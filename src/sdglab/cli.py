"""Command-line interface; every pipeline stage is individually inspectable."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from functools import partial
from pathlib import Path

from .clustering import save_cluster_assignment
from .corpus import Corpus, load_coverage_file
from .index import PositionalIndex, load_index, save_index
from .overlap import check_sample_size
from .pipeline import (REPORT_SUFFIXES, PipelineConfig, PipelineError, cluster_assignment,
                       compare, emit_report, enhance, index_corpus, ingest, load_bundle,
                       load_result_file, load_strategy, run_pipeline, stage, table4_row,
                       table_text, term_map, to_json, write_output)
from .query import explain, parse_query, print_query
from .strategy import result_to_doc, run_strategy
from .termmap import check_setting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4

log = logging.getLogger("sdglab")


def _setup_logging() -> None:
    level = os.environ.get("SDGLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(text: str, out) -> None:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if out:
        write_output(Path(out), text)
    else:
        print(text, end="")


def cmd_ingest(args) -> int:
    corpus = ingest(args.corpus, args.name, args.coverage)
    years = sorted({r.year for r in corpus})
    span = f"years {years[0]}-{years[-1]}, " if years else ""
    print(f"{corpus.name}: {len(corpus)} records, "
          f"{sum(1 for r in corpus if r.doi)} with DOI, "
          f"{span}coverage {len(corpus.coverage)} DOIs")
    return EXIT_OK


def cmd_index(args) -> int:
    index = index_corpus(ingest(args.corpus))
    write_output(Path(args.out), partial(save_index, index))
    print(f"indexed {index.doc_count} docs, vocabulary {len(index.sorted_vocabulary)}")
    return EXIT_OK


def cmd_parse(args) -> int:
    with stage("parse", "config"):
        ast = parse_query(args.query)
    print(explain(ast) if args.explain else print_query(ast))
    return EXIT_OK


def cmd_strategy(args) -> int:
    print(table_text("table4", [table4_row(load_strategy(args.file))], "csv"), end="")
    return EXIT_OK


def _load_index_for(path: str, corpus: Corpus) -> PositionalIndex:
    """Load an index file and check that it indexes exactly `corpus`; a
    malformed, foreign or mismatched one is a config error."""
    with stage(f"index:{path}", "config"), open(path, encoding="utf-8") as fh:
        index = load_index(fh)
        if index.doc_ids != corpus.records.keys():
            missing = len(corpus.records.keys() - index.doc_ids)
            extra = len(index.doc_ids - corpus.records.keys())
            raise ValueError(f"does not index corpus {corpus.name}: {missing} corpus "
                             f"records not indexed, {extra} indexed ids not in the corpus")
    return index


def cmd_run(args) -> int:
    corpus = ingest(args.corpus)
    strategy = load_strategy(args.strategy)
    index = _load_index_for(args.index, corpus) if args.index else index_corpus(corpus)
    _emit(to_json(result_to_doc(run_strategy(strategy, index, corpus))), args.out)
    return EXIT_OK


def cmd_enhance(args) -> int:
    corpus = ingest(args.corpus)
    result = load_result_file(args.result, corpus)
    strategy = load_strategy(args.strategy)
    with stage(f"strategy:{Path(args.strategy).stem}", "config"):
        if strategy.enhancement is None:
            raise ValueError("has no enhancement")
    with stage(f"result:{args.result}", "config"):
        if result.strategy_name != strategy.name:
            raise ValueError(f"is a result of strategy {result.strategy_name!r}, "
                             f"not of {strategy.name!r}")
    assignment = cluster_assignment(corpus, strategy.enhancement)
    if args.save_assignment:
        write_output(Path(args.save_assignment),
                     partial(save_cluster_assignment, assignment))
    enhanced, report = enhance(result, assignment, strategy, corpus)
    _emit(to_json(result_to_doc(enhanced)), args.out)
    print(f"clusters included: {len(report.included_clusters)}, "
          f"excluded: {len(report.excluded_clusters)}, "
          f"seed members lost to sub-threshold clusters: "
          f"{report.seed_members_lost}", file=sys.stderr)
    for cid, share in sorted(report.included_clusters.items()):
        log.info("included %s share=%.3f", cid, share)
    return EXIT_OK


def _load_coverage(path: str) -> set[str]:
    """Read a coverage file; an undecodable one is a config error."""
    with stage(f"coverage:{path}", "config"):
        return load_coverage_file(path)


def cmd_compare(args) -> int:
    row, svg, sidecar = compare(
        load_result_file(args.a), _load_coverage(args.coverage_a),
        load_result_file(args.b), _load_coverage(args.coverage_b),
        sample_size=None if args.full_dois else args.sample)
    print(table_text("table5", [row], "csv"), end="")
    if args.out:
        out = Path(args.out)
        write_output(out / "overlap.svg", svg)
        write_output(out / "overlap.json", sidecar)
    return EXIT_OK


def cmd_termmap(args) -> int:
    corpus_a = ingest(args.corpus_a)
    corpus_b = ingest(args.corpus_b) if args.corpus_b else corpus_a
    out = Path(args.out)
    flags = {"min_occurrences": args.min_occurrences, "max_ngram": args.max_ngram,
             "layout_seed": args.seed, "layout_iterations": args.layout_iterations}
    tm, _ = term_map(
        load_result_file(args.a, corpus_a), corpus_a,
        load_result_file(args.b, corpus_b), corpus_b,
        {k: v for k, v in flags.items() if v is not None}, out)
    print(f"{len(tm.terms)} terms, {len(tm.edges)} edges -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    for path in emit_report(load_bundle(args.bundle), args.format, Path(args.out)):
        print(path)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = PipelineConfig.load(args.config, output_dir=args.output_dir)
    bundle = run_pipeline(config)
    print(f"pipeline complete: {len(bundle.table3)} strategies, "
          f"{len(bundle.table5)} comparisons, outputs in {config.output_dir}")
    return EXIT_OK


def _checked(convert, check):
    """An argparse type: the text converted, then passed through `check`; a
    ValueError from either is a usage error."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


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
    p.add_argument("--index")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("enhance", help="apply the cluster-threshold enhancement")
    p.add_argument("--corpus", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--save-assignment")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("compare", help="pairwise overlap/surplus decomposition")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--coverage-a", required=True)
    p.add_argument("--coverage-b", required=True)
    p.add_argument("--out")
    p.add_argument("--sample", type=_checked(int, check_sample_size), default=10)
    p.add_argument("--full-dois", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("termmap", help="build a contrast term map for two results")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--corpus-a", required=True)
    p.add_argument("--corpus-b")
    # Each setting left out takes TermMapConfig's default.
    p.add_argument("--min-occurrences",
                   type=_checked(int, partial(check_setting, "min_occurrences")))
    p.add_argument("--max-ngram", type=_checked(int, partial(check_setting, "max_ngram")))
    p.add_argument("--seed", type=_checked(int, partial(check_setting, "layout_seed")))
    p.add_argument("--layout-iterations",
                   type=_checked(int, partial(check_setting, "layout_iterations")))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_termmap)

    p = sub.add_parser("report", help="re-emit tables from a pipeline bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--format", choices=list(REPORT_SUFFIXES), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. An OSError or ValueError surfaces as a
    stage-labelled PipelineError, whose kind picks the exit code."""
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        with stage(args.command):
            return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"config": EXIT_CONFIG, "io": EXIT_IO}.get(exc.kind, EXIT_COMPUTE)


if __name__ == "__main__":
    sys.exit(main())
