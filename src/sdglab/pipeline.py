"""End-to-end pipeline: ingest, index, run strategies, enhance, compare, map, report.

`run_pipeline` and every CLI subcommand call the same stage functions below.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .clustering import (ClusterAssignment, EnhancementReport, build_citation_graph,
                         cluster_citation_graph, enhance_by_cluster_threshold,
                         load_cluster_assignment)
from .corpus import Corpus, load_corpus_file
from .index import PositionalIndex, build_index
from .overlap import SEGMENT_ORDER, PairwiseComparison, pairwise_compare, render_overlap_bar
from .rounding import percent
from .strategy import (TERM_CLASSES, EnhancementSpec, ResultSet, SearchStrategy,
                       load_strategy_file, result_to_doc, run_strategy, term_class_summary)
from .termmap import (SETTING_MINIMUMS, TERMMAP_FORMATS, TermMap, TermMapConfig,
                      build_term_map, write_term_map)

log = logging.getLogger("sdglab.pipeline")

# The Table 5 column of each overlap segment's count; its share is the column
# with "_pct" appended.
_SEGMENT_COLUMNS = dict(zip(SEGMENT_ORDER, ("cov_a", "meth_a", "overlap", "meth_b", "cov_b")))
# The columns of each report table, in order.
TABLE_COLUMNS = {
    "table3": ("strategy", "total", "with_doi", "doi_share_pct"),
    "table4": ("strategy", *TERM_CLASSES, "total"),
    "table5": ("a", "b", *_SEGMENT_COLUMNS.values(),
               *(f"{c}_pct" for c in _SEGMENT_COLUMNS.values())),
}
# The report formats and the suffix of each one's files.
REPORT_SUFFIXES = {"csv": "csv", "markdown": "md"}


class PipelineError(Exception):
    """Stage-labeled failure; its kind is "io" for an OSError cause, else "config"."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.kind = "io" if isinstance(cause, OSError) else "config"


@contextmanager
def stage(name: str):
    """Label a failure inside the block with the stage `name`: an OSError, a
    ValueError or a RecursionError (JSON nested too deeply to read) becomes
    a PipelineError. A PipelineError raised by an inner stage keeps its own
    label. Only this makes a PipelineError."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise PipelineError(name, exc) from exc


def to_json(doc) -> str:
    """The text every JSON output is written as."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def ingest(corpus_file, name: str | None = None, coverage_file=None) -> Corpus:
    """Load a corpus, named `name` or else by its file stem, and its coverage."""
    name = name or Path(corpus_file).stem
    with stage(f"ingest:{name}"):
        return load_corpus_file(corpus_file, name=name, coverage_path=coverage_file)


def index_corpus(corpus: Corpus) -> PositionalIndex:
    """Build the corpus's positional index; a record the index cannot hold
    is a config error labelled by the corpus."""
    with stage(f"ingest:{corpus.name}"):
        return build_index(corpus)


def load_strategy(path) -> SearchStrategy:
    """Load a strategy file; a bad one, or one whose `name` is not its file
    stem, is a config error labelled by the stem."""
    with stage(f"strategy:{Path(path).stem}"):
        return load_strategy_file(path)


def load_result_file(path, corpus: Corpus | None = None) -> ResultSet:
    """Reload a result.json file; against `corpus` when given, so a result
    from another corpus is a config error."""
    with stage(f"result:{path}"), open(path, encoding="utf-8") as fh:
        return ResultSet.from_doc(json.load(fh), corpus)


ClusteringKey = tuple[str, float, int]  # (corpus name, resolution, seed)


def cluster_assignment(corpus: Corpus, spec: EnhancementSpec, resolve=Path,
                       clusterings: dict[ClusteringKey, ClusterAssignment] | None = None,
                       ) -> ClusterAssignment:
    """The assignment `spec` names: the file `resolve(spec.assignment_source)`,
    a bad one being a config error, or for "computed" seeded Louvain on the
    citation graph of `corpus`, looked up in `clusterings` and added on a
    miss: enhancements that share a corpus, resolution and seed share one."""
    if spec.assignment_source != "computed":
        path = resolve(spec.assignment_source)
        with stage(f"assignment:{path}"), open(path, encoding="utf-8") as fh:
            return load_cluster_assignment(fh, corpus)
    clusterings = {} if clusterings is None else clusterings
    key = (corpus.name, spec.resolution, spec.seed)
    if key in clusterings:
        log.info("clustering %s resolution=%s seed=%s: reused", *key)
        return clusterings[key]
    assignment = cluster_citation_graph(build_citation_graph(corpus),
                                        resolution=spec.resolution, seed=spec.seed)
    clusterings[key] = assignment
    log.info("clustering %s resolution=%s seed=%s: computed, %d clusters",
             *key, assignment.cluster_count)
    return assignment


def enhance(result: ResultSet, assignment: ClusterAssignment, strategy: SearchStrategy,
            corpus: Corpus) -> tuple[ResultSet, EnhancementReport]:
    """Cluster-threshold enhancement by `strategy.enhancement`, cut to the
    strategy's window: cluster shares count the records in the window (the whole
    corpus with `whole_corpus_shares`), and only members in the window are kept."""
    spec = strategy.enhancement
    in_window = {r.internal_id for r in corpus if strategy.window.contains(r.year)}
    enhanced, report = enhance_by_cluster_threshold(
        result, assignment, spec.threshold, corpus,
        eligible=None if spec.whole_corpus_shares else in_window)
    return ResultSet(enhanced.strategy_name, corpus, enhanced.members & in_window), report


def table3_row(result: ResultSet) -> dict:
    """The Table 3 row of a result: its size and its records with a DOI."""
    return {"strategy": result.strategy_name, "total": len(result.members),
            "with_doi": result.doi_record_count,
            "doi_share_pct": percent(result.doi_record_count, len(result.members))}


def table4_row(strategy: SearchStrategy) -> dict:
    """The Table 4 row of a strategy: its seed terms counted by class."""
    summary = term_class_summary(strategy)
    return {"strategy": strategy.name, **summary["counts"], "total": summary["total"]}


def table5_row(comparison: PairwiseComparison) -> dict:
    """The Table 5 row of a comparison: each segment's count, then its share."""
    counts, shares = comparison.counts, comparison.shares
    return {"a": comparison.name_a, "b": comparison.name_b,
            **{c: counts[s] for s, c in _SEGMENT_COLUMNS.items()},
            **{f"{c}_pct": shares[s] for s, c in _SEGMENT_COLUMNS.items()}}


def table_text(name: str, rows: list[dict], fmt: str) -> str:
    """The text of the report table `name` (a key of TABLE_COLUMNS) holding
    `rows`, in the report format `fmt`: CSV or markdown."""
    columns = TABLE_COLUMNS[name]
    cells = [[str(row[c]) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(line) for line in cells]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(line) + " |" for line in [columns, *cells]]
        lines.insert(1, "|" + "|".join("---" for _ in columns) + "|")
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    return "\n".join(lines) + "\n"


def compare(result_a: ResultSet, coverage_a, result_b: ResultSet, coverage_b,
            sample_size: int | None = 10) -> tuple[dict, str, str]:
    """Split the DOI overlap of two results, each side's surplus by the other
    database's coverage. Returns the Table 5 row, the overlap bar SVG and its
    JSON sidecar (with up to `sample_size` DOIs per segment, None for all)."""
    comparison = pairwise_compare(result_a, coverage_b, result_b, coverage_a)
    row = table5_row(comparison)
    svg, sidecar = render_overlap_bar(comparison, sample_size=sample_size)
    log.info("compare %s__%s: %d DOIs in the union", comparison.name_a,
             comparison.name_b, comparison.denominator)
    return row, svg, sidecar


def termmap_config(settings) -> TermMapConfig:
    """The TermMapConfig of a termmap entry's `config` object: the settings of
    SETTING_MINIMUMS it holds, TermMapConfig's defaults for the rest; other
    keys are ignored. ValueError when it is not an object or holds a bad value."""
    if type(settings) is not dict:
        raise ValueError(f"termmap config is not an object: {settings!r}")
    return TermMapConfig(**{k: settings[k] for k in SETTING_MINIMUMS if k in settings})


def term_map(result_a: ResultSet, corpus_a: Corpus, result_b: ResultSet,
             corpus_b: Corpus, settings: dict, out_dir: Path,
             ) -> tuple[TermMap, dict[Path, str]]:
    """Contrast term map of two results, over their members in id order,
    with `termmap_config(settings)`. Writes it to `out_dir/termmap.<fmt>`
    for each of TERMMAP_FORMATS, one format at a time, and returns the map
    and the sha256 of each file written."""
    config = termmap_config(settings)
    docs_a = [corpus_a[m] for m in sorted(result_a.members)]
    docs_b = [corpus_b[m] for m in sorted(result_b.members)]
    tm = build_term_map(result_a.strategy_name, docs_a, result_b.strategy_name, docs_b,
                        config)
    log.info("termmap %s__%s: %d docs, %d terms, %d edges", tm.name_a, tm.name_b,
             len(docs_a) + len(docs_b), len(tm.terms), len(tm.edges))
    digests = {}
    for fmt in TERMMAP_FORMATS:
        path = Path(out_dir) / f"termmap.{fmt}"
        digests[path] = write_output(path, partial(write_term_map, tm, fmt))
    return tm, digests


def _check_config(doc) -> None:
    """ValueError unless `doc` is a pipeline config document (README, File
    formats): its entries hold their string keys and name defined, distinct
    corpora and strategies, and each termmap's `config` is a TermMapConfig."""
    if type(doc) is not dict:
        raise ValueError("config file is not a JSON object")
    for key, kind in (("corpora", list), ("strategies", list), ("comparisons", list),
                      ("termmaps", list), ("output_dir", str)):
        if key in doc and type(doc[key]) is not kind:
            raise ValueError(f"config {key!r} is not a {kind.__name__}")
    corpora, strategies = doc.get("corpora", []), doc.get("strategies", [])
    termmaps = doc.get("termmaps", [])
    pairs = doc.get("comparisons", []) + termmaps
    for what, entries, keys in (("corpus", corpora, ("name", "corpus_file")),
                                ("strategy", strategies, ("file", "corpus")),
                                ("comparison", pairs, ("a", "b"))):
        for entry in entries:
            for key in keys:
                if type(entry) is not dict or type(entry.get(key)) is not str:
                    raise ValueError(f"{what} entry {entry!r} has no string {key!r}")
    for entry in corpora:
        if entry.get("coverage_file") is not None and \
                type(entry["coverage_file"]) is not str:
            raise ValueError(f"corpus entry {entry!r} has a 'coverage_file' that is "
                             f"not a string")
    corpus_names = [c["name"] for c in corpora]
    if len(set(corpus_names)) != len(corpus_names):
        raise ValueError("duplicate corpus names")
    if not corpora:
        raise ValueError("no corpora defined")
    for s in strategies:
        if s["corpus"] not in corpus_names:
            raise ValueError(f"strategy references undefined corpus {s['corpus']!r}")
    strategy_names = [Path(s["file"]).stem for s in strategies]
    if len(set(strategy_names)) != len(strategy_names):
        raise ValueError("duplicate strategy names")
    for pair in termmaps:
        try:
            termmap_config(pair.get("config", {}))
        except ValueError as exc:
            raise ValueError(f"termmap {pair['a']}__{pair['b']}: {exc}") from exc
    for pair in pairs:
        a, b = pair["a"], pair["b"]
        if a == b:
            raise ValueError(f"comparison pair not distinct: {a!r}")
        for name in (a, b):
            if name not in strategy_names:
                raise ValueError(f"comparison references undefined strategy {name!r}")


@dataclass
class PipelineConfig:
    corpora: list[dict]
    strategies: list[dict]
    comparisons: list[dict]
    termmaps: list[dict]
    output_dir: Path
    base_dir: Path = field(default_factory=Path.cwd)
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path, output_dir=None) -> "PipelineConfig":
        """Read a config file; a bad one is a config error labelled [config].
        Its paths, `output_dir` included, resolve against the file's
        directory; an `output_dir` argument is taken as given."""
        path = Path(path)
        with stage("config"), open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
            _check_config(doc)
        return cls(
            corpora=doc.get("corpora", []),
            strategies=doc.get("strategies", []),
            comparisons=doc.get("comparisons", []),
            termmaps=doc.get("termmaps", []),
            output_dir=Path(output_dir) if output_dir
            else path.parent / doc.get("output_dir", "sdglab-out"),
            base_dir=path.parent,
            raw=doc,
        )

    def resolve(self, p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else self.base_dir / p


@dataclass
class ReportBundle:
    table3: list[dict]
    table4: list[dict]
    table5: list[dict]
    figures: list[str]
    manifest: dict


# The keys of reports/bundle.json, each holding a list of the bundle's.
_BUNDLE_KEYS = ("table3", "table4", "table5", "figures")


def load_bundle(run_dir) -> ReportBundle:
    """Reload the bundle a pipeline run wrote to `run_dir`/reports/bundle.json;
    a bad one is a config error labelled [report]."""
    with stage("report"), open(Path(run_dir) / "reports" / "bundle.json",
                               encoding="utf-8") as fh:
        doc = json.load(fh)
        if type(doc) is not dict:
            raise ValueError("bundle.json is not an object")
        lists = {key: doc.get(key) for key in _BUNDLE_KEYS}
        for key, value in lists.items():
            if type(value) is not list:
                raise ValueError(f"bundle.json has no {key!r} list")
        for key, columns in TABLE_COLUMNS.items():
            for row in lists[key]:
                if type(row) is not dict or not row.keys() >= set(columns):
                    raise ValueError(f"bundle.json {key!r} row {row!r} lacks a column "
                                     f"of {','.join(columns)}")
    return ReportBundle(**lists, manifest={})


class _HashedSink:
    """Writes text to a file and hashes the UTF-8 bytes it becomes."""

    def __init__(self, fh):
        self.fh, self.sha256 = fh, hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha256.update(text.encode("utf-8"))
        self.fh.write(text)


def write_output(path: Path, content: str | Callable[[_HashedSink], object]) -> str:
    """Write `content` to `path`: a text, or a function that writes the text
    to the sink it is given. The text is written as a temporary file and
    moved over `path` by os.replace, so a failure leaves the previous file at
    `path` whole and no temporary file. Lines end in "\n" on every platform.
    Returns the sha256 of the bytes written, hashed as they are written, so
    no output is read back."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            sink = _HashedSink(fh)
            if isinstance(content, str):
                sink.write(content)
            else:
                content(sink)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return sink.sha256.hexdigest()


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Execute every configured stage in dependency order.

    Every strategy runs before any enhancement, and the indexes are dropped
    once the last has run, so clustering and term maps run without them;
    the cluster assignments are dropped once the last enhancement is written.
    Deterministic: rerunning on unchanged inputs reproduces byte-identical
    tables and figures.
    """
    out = config.output_dir
    digests: dict[Path, str] = {}  # the files this run writes, in the manifest

    def write(path: Path, content) -> None:
        digests[path] = write_output(path, content)

    corpora: dict[str, Corpus] = {}
    indexes = {}
    for c in config.corpora:
        corpus = ingest(config.resolve(c["corpus_file"]), c["name"],
                        config.resolve(c["coverage_file"])
                        if c.get("coverage_file") else None)
        corpora[c["name"]] = corpus
        indexes[c["name"]] = index_corpus(corpus)
        log.info("ingest %s: %d records, %d vocabulary tokens", c["name"], len(corpus),
                 len(indexes[c["name"]].sorted_vocabulary))

    runs = []
    for s in config.strategies:
        name = Path(s["file"]).stem
        strategy = load_strategy(config.resolve(s["file"]))
        with stage(f"run:{name}"):
            result = run_strategy(strategy, indexes[s["corpus"]], corpora[s["corpus"]])
        runs.append((name, strategy, result))
    del indexes

    results: dict[str, ResultSet] = {}
    clusterings: dict[ClusteringKey, ClusterAssignment] = {}
    table3, table4 = [], []
    for name, strategy, result in runs:
        corpus = corpora[result.corpus_name]
        if strategy.enhancement is not None:
            with stage(f"run:{name}"):
                result, report = enhance(
                    result, cluster_assignment(corpus, strategy.enhancement,
                                               config.resolve, clusterings),
                    strategy, corpus)
            write(out / "results" / name / "enhancement.json", to_json(asdict(report)))
        log.info("run %s: %d members", name, len(result))
        results[name] = result
        write(out / "results" / name / "result.json", to_json(result_to_doc(result)))
        table3.append(table3_row(result))
        table4.append(table4_row(strategy))
    del runs, clusterings

    figures: list[str] = []
    table5 = []
    for pair in config.comparisons:
        a, b = pair["a"], pair["b"]
        ra, rb = results[a], results[b]
        with stage(f"compare:{a}__{b}"):
            row, svg, sidecar = compare(ra, corpora[ra.corpus_name].coverage,
                                        rb, corpora[rb.corpus_name].coverage)
        table5.append(row)
        pair_dir = out / "comparisons" / f"{a}__{b}"
        write(pair_dir / "overlap.svg", svg)
        write(pair_dir / "overlap.json", sidecar)
        figures.append(str((pair_dir / "overlap.svg").relative_to(out)))

    for pair in config.termmaps:
        a, b = pair["a"], pair["b"]
        ra, rb = results[a], results[b]
        with stage(f"termmap:{a}__{b}"):
            _, written = term_map(ra, corpora[ra.corpus_name], rb, corpora[rb.corpus_name],
                                  pair.get("config", {}), out / "termmaps" / f"{a}__{b}")
        digests.update(written)
        figures += [str(path.relative_to(out)) for path in written]

    bundle = ReportBundle(table3=table3, table4=table4, table5=table5,
                          figures=figures, manifest={})
    digests.update(emit_report(bundle, "csv", out / "reports"))
    digests.update(emit_report(bundle, "markdown", out / "reports"))
    write(out / "reports" / "bundle.json",
          to_json({key: getattr(bundle, key) for key in _BUNDLE_KEYS}))

    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(config.raw, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {str(p.relative_to(out)): digest
                    for p, digest in sorted(digests.items())},
    }
    write_output(out / "manifest.json", to_json(manifest))
    bundle.manifest = manifest
    log.info("report: %d files", len(manifest["outputs"]) + 1)
    return bundle


def emit_report(bundle: ReportBundle, fmt: str, out_dir: Path) -> dict[Path, str]:
    """Write one file per table, as CSV or markdown; returns the sha256 of
    each file written."""
    written = {}
    for name in TABLE_COLUMNS:
        text = table_text(name, getattr(bundle, name), fmt)
        path = Path(out_dir) / f"{name}.{REPORT_SUFFIXES[fmt]}"
        written[path] = write_output(path, text)
    return written
