"""sdglab: desk-scale comparison of keyword search strategies over bibliographic corpora.

The package exports the data types, the query functions and the stage
functions that `run_pipeline` and every CLI subcommand call; the modules
hold the rest.
"""

__version__ = "0.1.0"

from .corpus import Corpus, PublicationRecord, YearWindow
from .index import PositionalIndex
from .query import evaluate, explain, parse_query, print_query
from .strategy import (ClassifiedTerm, EnhancementSpec, ResultSet, SearchStrategy,
                       run_strategy)
from .clustering import ClusterAssignment, EnhancementReport
from .pipeline import (PipelineConfig, PipelineError, ReportBundle, cluster_assignment,
                       compare, emit_report, enhance, index_corpus, ingest,
                       load_result_file, load_strategy, run_pipeline, term_map)

__all__ = [
    # data types
    "PublicationRecord", "Corpus", "YearWindow", "PositionalIndex", "ClassifiedTerm",
    "EnhancementSpec", "SearchStrategy", "ResultSet", "ClusterAssignment",
    "EnhancementReport", "PipelineConfig", "ReportBundle", "PipelineError",
    # queries
    "parse_query", "print_query", "explain", "evaluate",
    # stages
    "ingest", "index_corpus", "load_strategy", "run_strategy", "load_result_file",
    "cluster_assignment", "enhance", "compare", "term_map", "run_pipeline",
    "emit_report",
]
