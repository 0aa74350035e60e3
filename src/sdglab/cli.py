"""Command-line interface; every pipeline stage is individually inspectable."""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys
from pathlib import Path

from .clustering import (build_citation_graph, cluster_citation_graph,
                         enhance_by_cluster_threshold, load_cluster_assignment,
                         save_cluster_assignment)
from .corpus import Corpus, IngestError, load_corpus_file
from .index import PositionalIndex, build_index, load_index, save_index
from .overlap import pairwise_compare, render_overlap_bar
from .pipeline import (PipelineConfig, PipelineError, ReportBundle,
                       TABLE5_HEADER, emit_report, load_result_file,
                       result_to_doc, run_pipeline, table5_row, write_atomic)
from .query import ParseError, explain, parse_query, print_query
from .strategy import ResultSet, StrategyLoadError, load_strategy_file, \
    run_strategy, term_class_summary
from .termmap import TermMapConfig, build_term_map, export_term_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4

log = logging.getLogger("sdglab")


def _setup_logging() -> None:
    level = os.environ.get("SDGLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_ingest(args) -> int:
    corpus = load_corpus_file(args.corpus, name=args.name,
                              coverage_path=args.coverage)
    years = sorted({r.year for r in corpus})
    print(f"{corpus.name}: {len(corpus)} records, "
          f"{sum(1 for r in corpus if r.doi)} with DOI, "
          f"years {years[0]}-{years[-1]}, coverage {len(corpus.coverage)} DOIs")
    return EXIT_OK


def cmd_index(args) -> int:
    corpus = load_corpus_file(args.corpus)
    index = build_index(corpus)
    buf = io.StringIO()
    save_index(index, buf)
    write_atomic(Path(args.out), buf.getvalue())
    print(f"indexed {index.doc_count} docs, vocabulary {len(index.postings)}")
    return EXIT_OK


def cmd_parse(args) -> int:
    ast = parse_query(args.query)
    if args.explain:
        print(explain(ast))
    else:
        print(print_query(ast))
    return EXIT_OK


def cmd_strategy(args) -> int:
    if args.action != "summarize":
        raise StrategyLoadError(f"unknown action: {args.action}")
    strategy = load_strategy_file(args.file)
    s = term_class_summary(strategy)
    print("strategy,general,policy,technical,total")
    print(f"{s['strategy']},{s['counts']['general']},{s['counts']['policy']},"
          f"{s['counts']['technical']},{s['total']}")
    return EXIT_OK


def _load_index_for(path: str, corpus: Corpus) -> PositionalIndex:
    """Load an index file and check that it indexes exactly `corpus`.

    A malformed, foreign or mismatched index file is bad input, reported as
    a config error rather than the ValueError/KeyError it would cause.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            index = load_index(fh)
        except ValueError as exc:
            raise PipelineError("index", f"{path}: {exc}", kind="config") from exc
    if index.doc_ids != corpus.records.keys():
        missing = len(corpus.records.keys() - index.doc_ids)
        extra = len(index.doc_ids - corpus.records.keys())
        raise PipelineError(
            "index", f"{path} does not index corpus {corpus.name}: "
            f"{missing} corpus records not indexed, {extra} indexed ids "
            f"not in the corpus", kind="config")
    return index


def cmd_run(args) -> int:
    corpus = load_corpus_file(args.corpus, coverage_path=args.coverage)
    strategy = load_strategy_file(args.strategy)
    if args.index:
        index = _load_index_for(args.index, corpus)
    else:
        index = build_index(corpus)
    result = run_strategy(strategy, index, corpus)
    doc = json.dumps(result_to_doc(result), indent=2, sort_keys=True) + "\n"
    if args.out:
        write_atomic(Path(args.out), doc)
    else:
        print(doc, end="")
    return EXIT_OK


def cmd_enhance(args) -> int:
    corpus = load_corpus_file(args.corpus)
    result = load_result_file(args.result)
    seed_result = ResultSet(result.strategy_name, corpus, result.members)
    if args.assignment:
        with open(args.assignment, encoding="utf-8") as fh:
            assignment = load_cluster_assignment(fh, corpus)
    else:
        graph = build_citation_graph(corpus)
        assignment = cluster_citation_graph(graph, resolution=args.resolution,
                                            seed=args.seed)
        if args.save_assignment:
            with open(args.save_assignment, "w", encoding="utf-8") as fh:
                save_cluster_assignment(assignment, fh)
    enhanced, report = enhance_by_cluster_threshold(
        seed_result, assignment, args.threshold, corpus)
    doc = json.dumps(result_to_doc(enhanced), indent=2, sort_keys=True) + "\n"
    if args.out:
        write_atomic(Path(args.out), doc)
    else:
        print(doc, end="")
    print(f"clusters included: {len(report.included_clusters)}, "
          f"excluded: {len(report.excluded_clusters)}, "
          f"seed members lost to sub-threshold clusters: "
          f"{report.seed_members_lost}", file=sys.stderr)
    for cid, share in sorted(report.included_clusters.items()):
        log.info("included %s share=%.3f", cid, share)
    return EXIT_OK


def _load_coverage_lines(path) -> set[str]:
    from .corpus import load_coverage_file
    return load_coverage_file(path)


def cmd_compare(args) -> int:
    result_a = load_result_file(args.a)
    result_b = load_result_file(args.b)
    cov_a = _load_coverage_lines(args.coverage_a)
    cov_b = _load_coverage_lines(args.coverage_b)
    comparison = pairwise_compare(result_a, cov_b, result_b, cov_a)
    row = table5_row(comparison)
    header = TABLE5_HEADER
    print(header)
    print(",".join(str(row[h]) for h in header.split(",")))
    svg, sidecar = render_overlap_bar(
        comparison, sample_size=None if args.full_dois else args.sample)
    if args.out:
        out = Path(args.out)
        write_atomic(out / "overlap.svg", svg)
        write_atomic(out / "overlap.json", sidecar)
    return EXIT_OK


def cmd_termmap(args) -> int:
    corpus_a = load_corpus_file(args.corpus_a)
    corpus_b = load_corpus_file(args.corpus_b or args.corpus_a)
    result_a = load_result_file(args.a)
    result_b = load_result_file(args.b)
    config = TermMapConfig(min_occurrences=args.min_occurrences,
                           layout_seed=args.seed)
    docs_a = [corpus_a[m] for m in sorted(result_a.members)]
    docs_b = [corpus_b[m] for m in sorted(result_b.members)]
    term_map = build_term_map(result_a.strategy_name, docs_a,
                              result_b.strategy_name, docs_b, config)
    out = Path(args.out)
    for fmt in ("json", "graphml", "html"):
        write_atomic(out / f"termmap.{fmt}", export_term_map(term_map, fmt))
    print(f"{len(term_map.terms)} terms, {len(term_map.edges)} edges -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(Path(args.bundle) / "reports" / "bundle.json",
              encoding="utf-8") as fh:
        doc = json.load(fh)
    bundle = ReportBundle(table3=doc["table3"], table4=doc["table4"],
                          table5=doc["table5"], figures=doc["figures"],
                          manifest={})
    written = emit_report(bundle, args.format, Path(args.out))
    for path in written:
        print(path)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = PipelineConfig.load(args.config, output_dir=args.output_dir)
    bundle = run_pipeline(config)
    print(f"pipeline complete: {len(bundle.table3)} strategies, "
          f"{len(bundle.table5)} comparisons, outputs in {config.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdglab",
        description="Compare keyword search strategies over bibliographic corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarize a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--name")
    p.add_argument("--coverage")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build and save a positional index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("parse", help="parse a query; --explain prints the tree")
    p.add_argument("--query", required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("strategy", help="strategy file utilities")
    p.add_argument("action", choices=["summarize"])
    p.add_argument("file")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("run", help="execute a strategy against a corpus")
    p.add_argument("--strategy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--coverage")
    p.add_argument("--index")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("enhance", help="apply the cluster-threshold enhancement")
    p.add_argument("--corpus", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--assignment")
    p.add_argument("--threshold", type=float, default=0.15)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save-assignment")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("compare", help="pairwise overlap/surplus decomposition")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--coverage-a", required=True)
    p.add_argument("--coverage-b", required=True)
    p.add_argument("--out")
    p.add_argument("--sample", type=int, default=10)
    p.add_argument("--full-dois", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("termmap", help="build a contrast term map for two results")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--corpus-a", required=True)
    p.add_argument("--corpus-b")
    p.add_argument("--min-occurrences", type=int, default=70)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_termmap)

    p = sub.add_parser("report", help="re-emit tables from a pipeline bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"config": EXIT_CONFIG, "io": EXIT_IO}.get(exc.kind, EXIT_COMPUTE)
    except (IngestError, StrategyLoadError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
