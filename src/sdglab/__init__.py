"""sdglab: desk-scale comparison of keyword search strategies over bibliographic corpora."""

__version__ = "0.1.0"

from .corpus import (Corpus, PublicationRecord, YearWindow, ingest_corpus,
                     load_corpus_file, load_coverage_file, normalize_doi)
from .index import PositionalIndex, build_index, tokenize, wildcard_expand
from .query import evaluate, explain, parse_query, print_query, proximity_match
from .strategy import (ClassifiedTerm, ResultSet, SearchStrategy, load_strategy,
                       load_strategy_file, run_strategy, term_class_summary)
from .clustering import (build_citation_graph, cluster_citation_graph,
                         enhance_by_cluster_threshold, load_cluster_assignment)
from .overlap import (PairwiseComparison, decompose_surplus, match_by_doi,
                      pairwise_compare, render_overlap_bar)
from .termmap import (TermMap, TermMapConfig, TermStats, build_term_map,
                      contrast_score, cooccurrence_edges, extract_terms,
                      export_term_map, layout_map)
from .pipeline import PipelineConfig, ReportBundle, emit_report, run_pipeline
