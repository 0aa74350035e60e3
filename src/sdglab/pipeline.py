"""End-to-end pipeline: ingest, index, run strategies, enhance, compare, map, report."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .clustering import (ClusterAssignment, build_citation_graph, cluster_citation_graph,
                         enhance_by_cluster_threshold, load_cluster_assignment)
from .corpus import Corpus, YearWindow, doi_share, load_corpus_file
from .index import build_index
from .overlap import (SEGMENT_ORDER, PairwiseComparison, pairwise_compare,
                      render_overlap_bar)
from .rounding import percent
from .strategy import ResultSet, load_strategy_file, run_strategy, term_class_summary
from .termmap import TermMapConfig, build_term_map, export_term_map

log = logging.getLogger("sdglab.pipeline")

TABLE3_HEADER = "strategy,total,with_doi,doi_share_pct"
TABLE4_HEADER = "strategy,general,policy,technical,total"
TABLE5_HEADER = ("a,b,cov_a,meth_a,overlap,meth_b,cov_b,"
                 "cov_a_pct,meth_a_pct,overlap_pct,meth_b_pct,cov_b_pct")


class PipelineError(Exception):
    """Stage-labeled pipeline failure; kind picks the process exit code."""

    def __init__(self, stage: str, message: str, kind: str = "computation"):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.kind = kind  # "config" | "io" | "computation"


@dataclass
class LoadedResult:
    """Result set reloaded from a result.json file."""
    strategy_name: str
    corpus_name: str
    members: frozenset[str]
    doi_members: frozenset[str]
    doi_record_count: int


def result_to_doc(result) -> dict:
    return {
        "strategy": result.strategy_name,
        "corpus": result.corpus_name,
        "members": sorted(result.members),
        "dois": sorted(result.doi_members),
        "with_doi": result.doi_record_count,
    }


def load_result_file(path) -> LoadedResult:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return LoadedResult(
        strategy_name=doc["strategy"],
        corpus_name=doc["corpus"],
        members=frozenset(doc["members"]),
        doi_members=frozenset(doc["dois"]),
        doi_record_count=doc["with_doi"],
    )


@dataclass
class PipelineConfig:
    corpora: list[dict]
    strategies: list[dict]
    comparisons: list[dict]
    termmaps: list[dict]
    window: YearWindow
    output_dir: Path
    base_dir: Path = field(default_factory=Path.cwd)
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path, output_dir=None) -> "PipelineConfig":
        path = Path(path)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise PipelineError("config", str(exc), kind="io") from exc
        except json.JSONDecodeError as exc:
            raise PipelineError("config", f"invalid JSON: {exc}", kind="config") from exc
        window_doc = doc.get("window", {"start": 2015, "end": 2019})
        config = cls(
            corpora=doc.get("corpora", []),
            strategies=doc.get("strategies", []),
            comparisons=doc.get("comparisons", []),
            termmaps=doc.get("termmaps", []),
            window=YearWindow(window_doc["start"], window_doc["end"]),
            output_dir=Path(output_dir or doc.get("output_dir", "sdglab-out")),
            base_dir=path.parent,
            raw=doc,
        )
        config.validate()
        return config

    def resolve(self, p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else self.base_dir / p

    def validate(self) -> None:
        corpus_names = [c.get("name") for c in self.corpora]
        if len(set(corpus_names)) != len(corpus_names):
            raise PipelineError("config", "duplicate corpus names", kind="config")
        if not self.corpora:
            raise PipelineError("config", "no corpora defined", kind="config")
        strategy_names = set()
        for s in self.strategies:
            if s.get("corpus") not in corpus_names:
                raise PipelineError(
                    "config", f"strategy references undefined corpus "
                    f"{s.get('corpus')!r}", kind="config")
            strategy_names.add(Path(s["file"]).stem)
        for pair in self.comparisons + self.termmaps:
            a, b = pair.get("a"), pair.get("b")
            if a == b:
                raise PipelineError("config", f"comparison pair not distinct: "
                                    f"{a!r}", kind="config")
            for name in (a, b):
                if name not in strategy_names:
                    raise PipelineError(
                        "config", f"comparison references undefined strategy "
                        f"{name!r}", kind="config")


@dataclass
class ReportBundle:
    table3: list[dict]
    table4: list[dict]
    table5: list[dict]
    figures: list[str]
    manifest: dict


def write_atomic(path: Path, content: str) -> None:
    """Write through a temporary file and os.replace, so a failure leaves
    the previous file at `path` whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


ClusteringKey = tuple[str, float, int]  # (corpus name, resolution, seed)


def _strategy_result(strategy, index, corpus, config: PipelineConfig,
                     out_dir: Path,
                     clusterings: dict[ClusteringKey, ClusterAssignment]) -> ResultSet:
    """Run a strategy and apply its enhancement.

    A computed clustering is looked up in `clusterings` and added on a miss:
    Louvain is seeded, so strategies that share a corpus, resolution and
    seed share one assignment. Enhanced members stay inside the strategy's
    window even when cluster shares are computed over the whole corpus.
    """
    result = run_strategy(strategy, index, corpus)
    spec = strategy.enhancement
    if spec is not None:
        if spec.assignment_source == "computed":
            key = (corpus.name, spec.resolution, spec.seed)
            assignment = clusterings.get(key)
            if assignment is None:
                assignment = cluster_citation_graph(
                    build_citation_graph(corpus),
                    resolution=spec.resolution, seed=spec.seed)
                clusterings[key] = assignment
                log.info("clustering %s resolution=%s seed=%s: computed, %d clusters",
                         *key, assignment.cluster_count)
            else:
                log.info("clustering %s resolution=%s seed=%s: reused", *key)
        else:
            with open(config.resolve(spec.assignment_source), encoding="utf-8") as fh:
                assignment = load_cluster_assignment(fh, corpus)
        in_window = {r.internal_id for r in corpus if strategy.window.contains(r.year)}
        result, report = enhance_by_cluster_threshold(
            result, assignment, spec.threshold, corpus,
            eligible=None if spec.whole_corpus_shares else in_window)
        result = ResultSet(result.strategy_name, corpus, result.members & in_window)
        write_atomic(out_dir / "enhancement.json", json.dumps({
            "included_clusters": report.included_clusters,
            "excluded_clusters": report.excluded_clusters,
            "seed_members_lost": report.seed_members_lost,
            "singleton_members": report.singleton_members,
        }, indent=2, sort_keys=True) + "\n")
    return result


def table5_row(comparison: PairwiseComparison) -> dict:
    counts = comparison.counts
    shares = comparison.shares
    return {
        "a": comparison.name_a,
        "b": comparison.name_b,
        "cov_a": counts["surplus_a_coverage"],
        "meth_a": counts["surplus_a_method"],
        "overlap": counts["overlap"],
        "meth_b": counts["surplus_b_method"],
        "cov_b": counts["surplus_b_coverage"],
        "cov_a_pct": shares["surplus_a_coverage"],
        "meth_a_pct": shares["surplus_a_method"],
        "overlap_pct": shares["overlap"],
        "meth_b_pct": shares["surplus_b_method"],
        "cov_b_pct": shares["surplus_b_coverage"],
    }


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Execute every configured stage in dependency order.

    Deterministic: rerunning on unchanged inputs reproduces byte-identical
    tables and figures.
    """
    out = config.output_dir

    corpora: dict[str, Corpus] = {}
    indexes = {}
    for c in config.corpora:
        stage = f"ingest:{c['name']}"
        try:
            corpus = load_corpus_file(
                config.resolve(c["corpus_file"]), name=c["name"],
                coverage_path=config.resolve(c["coverage_file"])
                if c.get("coverage_file") else None)
        except OSError as exc:
            raise PipelineError(stage, str(exc), kind="io") from exc
        except ValueError as exc:
            raise PipelineError(stage, str(exc), kind="config") from exc
        corpora[c["name"]] = corpus
        indexes[c["name"]] = build_index(corpus)
        log.info("ingest %s: %d records, %d vocabulary tokens", c["name"], len(corpus),
                 len(indexes[c["name"]].postings))

    results: dict[str, ResultSet] = {}
    result_corpus: dict[str, str] = {}
    clusterings: dict[ClusteringKey, ClusterAssignment] = {}
    table3, table4 = [], []
    for s in config.strategies:
        name = Path(s["file"]).stem
        stage = f"run:{name}"
        try:
            strategy = load_strategy_file(config.resolve(s["file"]))
        except OSError as exc:
            raise PipelineError(stage, str(exc), kind="io") from exc
        except ValueError as exc:
            raise PipelineError(stage, str(exc), kind="config") from exc
        corpus = corpora[s["corpus"]]
        try:
            result = _strategy_result(strategy, indexes[s["corpus"]], corpus,
                                      config, out / "results" / name, clusterings)
        except ValueError as exc:
            raise PipelineError(stage, str(exc)) from exc
        log.info("run %s: %d members", name, len(result))
        results[name] = result
        result_corpus[name] = s["corpus"]
        write_atomic(out / "results" / name / "result.json",
                      json.dumps(result_to_doc(result), indent=2,
                                 sort_keys=True) + "\n")
        share_pct = percent(result.doi_record_count, len(result.members)) \
            if result.members else 0.0
        table3.append({"strategy": name, "total": len(result.members),
                       "with_doi": result.doi_record_count,
                       "doi_share_pct": share_pct})
        summary = term_class_summary(strategy)
        table4.append({"strategy": name, **summary["counts"],
                       "total": summary["total"]})

    figures: list[str] = []
    table5 = []
    for pair in config.comparisons:
        a, b = pair["a"], pair["b"]
        stage = f"compare:{a}__{b}"
        cov_a = corpora[result_corpus[a]].coverage
        cov_b = corpora[result_corpus[b]].coverage
        comparison = pairwise_compare(results[a], cov_b, results[b], cov_a)
        table5.append(table5_row(comparison))
        pair_dir = out / "comparisons" / f"{a}__{b}"
        svg, sidecar = render_overlap_bar(comparison)
        write_atomic(pair_dir / "overlap.svg", svg)
        write_atomic(pair_dir / "overlap.json", sidecar)
        figures.append(str((pair_dir / "overlap.svg").relative_to(out)))
        log.info("compare %s__%s: %d DOIs in the union", a, b, comparison.denominator)

    for pair in config.termmaps:
        a, b = pair["a"], pair["b"]
        stage = f"termmap:{a}__{b}"
        cfg_doc = pair.get("config", {})
        tm_config = TermMapConfig(
            min_occurrences=cfg_doc.get("min_occurrences", 70),
            max_ngram=cfg_doc.get("max_ngram", 3),
            layout_seed=cfg_doc.get("layout_seed", 0),
            layout_iterations=cfg_doc.get("layout_iterations", 150),
        )
        docs_a = [corpora[result_corpus[a]][m] for m in sorted(results[a].members)]
        docs_b = [corpora[result_corpus[b]][m] for m in sorted(results[b].members)]
        try:
            term_map = build_term_map(a, docs_a, b, docs_b, tm_config)
        except ValueError as exc:
            raise PipelineError(stage, str(exc)) from exc
        map_dir = out / "termmaps" / f"{a}__{b}"
        for fmt in ("json", "graphml", "html"):
            write_atomic(map_dir / f"termmap.{fmt}", export_term_map(term_map, fmt))
            figures.append(str((map_dir / f"termmap.{fmt}").relative_to(out)))
        log.info("termmap %s__%s: %d docs, %d terms, %d edges", a, b,
                 len(docs_a) + len(docs_b), len(term_map.terms), len(term_map.edges))

    bundle = ReportBundle(table3=table3, table4=table4, table5=table5,
                          figures=figures, manifest={})
    emit_report(bundle, "csv", out / "reports")
    emit_report(bundle, "markdown", out / "reports")
    write_atomic(out / "reports" / "bundle.json", json.dumps({
        "table3": table3, "table4": table4, "table5": table5,
        "figures": figures,
    }, indent=2, sort_keys=True) + "\n")

    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(config.raw, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {},
    }
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            manifest["outputs"][str(path.relative_to(out))] = _sha256(path)
    write_atomic(out / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    bundle.manifest = manifest
    log.info("report: %d files", len(manifest["outputs"]) + 1)
    return bundle


def _csv_value(value) -> str:
    return f"{value}"


def emit_report(bundle: ReportBundle, fmt: str, out_dir: Path) -> list[Path]:
    """Write one file per table, as CSV or markdown."""
    tables = {
        "table3": (TABLE3_HEADER.split(","), bundle.table3),
        "table4": (TABLE4_HEADER.split(","), bundle.table4),
        "table5": (TABLE5_HEADER.split(","), bundle.table5),
    }
    written = []
    for name, (header, rows) in tables.items():
        if fmt == "csv":
            lines = [",".join(header)]
            lines += [",".join(_csv_value(row[h]) for h in header) for row in rows]
            path = Path(out_dir) / f"{name}.csv"
        elif fmt == "markdown":
            lines = ["| " + " | ".join(header) + " |",
                     "|" + "|".join("---" for _ in header) + "|"]
            lines += ["| " + " | ".join(_csv_value(row[h]) for h in header) + " |"
                      for row in rows]
            path = Path(out_dir) / f"{name}.md"
        else:
            raise ValueError(f"unknown report format: {fmt!r}")
        write_atomic(path, "\n".join(lines) + "\n")
        written.append(path)
    return written
