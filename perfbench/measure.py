"""Timed and traced runs of one workload.

Both call the public functions of the sdglab modules from outside; nothing in
the package is patched. The timed run gives the end-to-end metrics with
tracing off. The traced run repeats the calls `run_pipeline` makes, in its
order, with a span around each, and derives the per-layer metrics from them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

from sdglab.clustering import (build_citation_graph, cluster_citation_graph,
                               enhance_by_cluster_threshold, load_cluster_assignment)
from sdglab.corpus import load_corpus_file
from sdglab.index import FIELDS, build_index, load_index, save_index
from sdglab.overlap import pairwise_compare, render_overlap_bar
from sdglab.pipeline import (PipelineConfig, ReportBundle, emit_report, result_to_doc,
                             run_pipeline, table5_row)
from sdglab.query import (And, AndNot, FieldScope, Or, Phrase, Proximity, Term, Wildcard,
                          evaluate, parse_query)
from sdglab.rounding import percent
from sdglab.strategy import load_strategy_file, run_strategy, term_class_summary
from sdglab.termmap import (TermMap, TermMapConfig, cooccurrence_edges, export_term_map,
                            extract_terms, layout_map)

from checks import OutputCheck, oracle_sample
from gen import NODE_TYPES, node_type
from tracing import Tracer


MIN_ROUNDS = 2       # of a timed run
ORACLE_QUERIES = 2   # query results of a timed run checked against the scan oracle
UNTRACED_RUNS = 3    # untraced pipeline runs of a traced run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_all(workload):
    """Ingest and index every corpus of the workload, as the pipeline does."""
    corpora, indexes = {}, {}
    for c in workload.corpora:
        corpora[c["name"]] = load_corpus_file(c["corpus_file"], name=c["name"],
                                              coverage_path=c["coverage_file"])
        indexes[c["name"]] = build_index(corpora[c["name"]])
    return corpora, indexes


def index_round_trip(index, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        save_index(index, fh)
    with open(path, encoding="utf-8") as fh:
        return load_index(fh)


def run_pipeline_once(workload):
    shutil.rmtree(workload.out_dir, ignore_errors=True)
    return run_pipeline(PipelineConfig.load(workload.config_path, output_dir=workload.out_dir))


def query_pass(workload, indexes, corpora, check: OutputCheck, problems: list[str],
               oracle_queries: int) -> list[float]:
    """Evaluate every query once; return the latencies in seconds, in query order.

    A seeded sample of `oracle_queries` results is checked against the scan
    oracle.
    """
    rng = random.Random(workload.seed + 4)
    picks = set(rng.sample(range(len(workload.queries)), oracle_queries))
    kept: dict[int, set] = {}
    latencies = []
    gc.collect()
    for i, q in enumerate(workload.queries):
        t = time.perf_counter()
        try:
            hits = evaluate(parse_query(q.text), indexes[q.corpus], q.fields)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - t)
            check.query_error(q.text, exc)
            continue
        latencies.append(time.perf_counter() - t)
        check.query(i, hits, q.text)
        if i in picks:
            kept[i] = hits
    problems += oracle_sample(workload, kept, corpora)
    return latencies


# ---------------------------------------------------------------------------
# Timed run: end-to-end metrics.


def timed_run(workload, seconds: float, check: OutputCheck) -> tuple[dict, dict]:
    """Rounds of one set-up, one index round trip, the workload's query passes
    and one pipeline run, until MIN_ROUNDS rounds are done and another round
    of average length would end after `seconds`.

    Spreading each metric's samples over the rounds makes a run less
    sensitive to a slow spell of the host. Everything runs as a closed loop
    with one caller: each operation starts when the previous one has ended.
    Returns (metrics, details).
    """
    start = time.perf_counter()
    deadline = start + seconds
    io_path = workload.out_dir.parent / "index.json"
    problems: list[str] = []
    setup, io, pipeline, passes = [], [], [], []
    rounds = 0
    while rounds < MIN_ROUNDS or \
            time.perf_counter() + (time.perf_counter() - start) / rounds <= deadline:
        corpora = indexes = None
        gc.collect()
        t = time.perf_counter()
        corpora, indexes = load_all(workload)
        setup.append(time.perf_counter() - t)
        gc.collect()
        elapsed = 0.0
        for name, index in indexes.items():
            t = time.perf_counter()
            loaded = index_round_trip(index, io_path)
            elapsed += time.perf_counter() - t
            if not io and loaded != index:
                problems.append(f"index of {name} changed in a save/load round trip")
            del loaded
        io.append(elapsed)
        for _ in range(workload.spec.query_passes):
            passes.append(query_pass(workload, indexes, corpora, check, problems,
                                     0 if passes else ORACLE_QUERIES))
        # The pipeline builds its own corpora and indexes. Dropping the
        # harness's copies first keeps garbage-collection passes in the
        # pipeline as cheap as in a process that only runs the pipeline.
        corpora = indexes = None
        gc.collect()
        t = time.perf_counter()
        try:
            bundle = run_pipeline_once(workload)
        except Exception as exc:  # a failed operation is counted, not fatal
            pipeline.append(time.perf_counter() - t)
            check.pipeline_error(exc)
        else:
            pipeline.append(time.perf_counter() - t)
            check.pipeline(bundle.manifest)
        rounds += 1

    # The host has slow spells that can last a whole run, so whether a run
    # meets a fast spell is chance. Statistics over every sample of the run
    # (the median set-up, the mean round trip and pipeline run, percentiles
    # over every query evaluation of every pass) follow the share of the run
    # spent in slow spells and vary less from run to run than the fastest
    # sample does.
    latencies = [t for lat in passes for t in lat]
    metrics = {
        "setup_s": statistics.median(setup),
        "index_io_s": statistics.mean(io),
        "pipeline_s": statistics.mean(pipeline),
        "query_ms_p50": 1000 * percentile(latencies, 0.50),
        "query_ms_p98": 1000 * percentile(latencies, 0.98),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "rounds": rounds, "query_passes": len(passes),
        "samples": {"setup_s": setup, "index_io_s": io, "pipeline_s": pipeline},
        "query_samples": len(latencies), "measured_s": time.perf_counter() - start,
        "problems": problems,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _positional_nodes(ast, fields):
    """Phrase and proximity nodes of a query, with the fields they apply to."""
    if isinstance(ast, (Phrase, Proximity)):
        yield ast, fields
    elif isinstance(ast, (And, Or)):
        for child in ast.children:
            yield from _positional_nodes(child, fields)
    elif isinstance(ast, AndNot):
        yield from _positional_nodes(ast.left, fields)
        yield from _positional_nodes(ast.right, fields)
    elif isinstance(ast, FieldScope):
        yield from _positional_nodes(ast.child, tuple(f for f in FIELDS if f in ast.fields))


def _traced_pipeline(workload, tr: Tracer, m: Counter, out: Path):
    """The calls of `run_pipeline`, in its order, each inside a span.

    Returns the indexes, the sha256 of every artifact the pipeline would
    write, and the per-strategy (name, run time, members) rows.
    """
    artifacts: dict[str, str] = {}
    with tr.span("pipeline.PipelineConfig.load"):
        config = PipelineConfig.load(workload.config_path, output_dir=out)

    corpora, indexes = {}, {}
    for c in config.corpora:
        corpus_file = config.resolve(c["corpus_file"])
        coverage_file = config.resolve(c["coverage_file"]) if c.get("coverage_file") else None
        with tr.span("corpus.load_corpus_file") as sp:
            corpus = load_corpus_file(corpus_file, name=c["name"], coverage_path=coverage_file)
        sp.count = len(corpus)
        m["corpus.records"] += len(corpus)
        m["corpus.coverage_dois"] += len(corpus.coverage)
        m["corpus.input_bytes"] += (corpus_file.stat().st_size
              + (coverage_file.stat().st_size if coverage_file else 0))
        before = peak_rss_mb()
        with tr.span("index.build_index") as sp:
            index = build_index(corpus)
        m["index.rss_mb"] += peak_rss_mb() - before
        entries = sum(len(v) for v in index.postings.values())
        sp.count = entries
        m["index.vocab"] += len(index.postings)
        m["index.postings"] += entries
        m["index.positions"] += sum(len(p) for v in index.postings.values() for _, _, p in v)
        corpora[c["name"]], indexes[c["name"]] = corpus, index

    results, result_corpus, rows = {}, {}, []
    table3, table4 = [], []
    graphs: dict[tuple, tuple[int, int, int]] = {}
    for s in config.strategies:
        name = Path(s["file"]).stem
        with tr.span("strategy.load_strategy_file"):
            strategy = load_strategy_file(config.resolve(s["file"]))
        corpus = corpora[s["corpus"]]
        with tr.span("strategy.run_strategy") as sp:
            result = run_strategy(strategy, indexes[s["corpus"]], corpus)
        sp.count = len(result)
        rows.append((name, sp.duration, len(result)))
        spec = strategy.enhancement
        if spec is not None:
            if spec.assignment_source == "computed":
                with tr.span("clustering.build_citation_graph"):
                    graph = build_citation_graph(corpus)
                with tr.span("clustering.cluster_citation_graph") as sp:
                    assignment = cluster_citation_graph(graph, resolution=spec.resolution,
                                                        seed=spec.seed)
                sp.count = assignment.cluster_count
                m["clustering.louvain_calls"] += 1
                graphs[(s["corpus"], spec.resolution, spec.seed)] = (
                    graph.graph.number_of_edges(), graph.dangling_count,
                    assignment.cluster_count)
            else:
                with open(config.resolve(spec.assignment_source), encoding="utf-8") as fh:
                    with tr.span("clustering.load_cluster_assignment"):
                        assignment = load_cluster_assignment(fh, corpus)
            eligible = None
            if not spec.whole_corpus_shares:
                eligible = {r.internal_id for r in corpus if strategy.window.contains(r.year)}
            with tr.span("clustering.enhance_by_cluster_threshold"):
                result, report = enhance_by_cluster_threshold(
                    result, assignment, spec.threshold, corpus, eligible=eligible)
            m["clustering.enhanced_members"] += len(result)
            m["clustering.seed_members_lost"] += report.seed_members_lost
            artifacts[f"results/{name}/enhancement.json"] = _sha(_dumps({
                "included_clusters": report.included_clusters,
                "excluded_clusters": report.excluded_clusters,
                "seed_members_lost": report.seed_members_lost,
                "singleton_members": report.singleton_members,
            }))
        results[name] = result
        result_corpus[name] = s["corpus"]
        artifacts[f"results/{name}/result.json"] = _sha(_dumps(result_to_doc(result)))
        share_pct = percent(result.doi_record_count, len(result.members)) \
            if result.members else 0.0
        table3.append({"strategy": name, "total": len(result.members),
                       "with_doi": result.doi_record_count, "doi_share_pct": share_pct})
        summary = term_class_summary(strategy)
        table4.append({"strategy": name, **summary["counts"], "total": summary["total"]})
    m["clustering.louvain_distinct"] += len(graphs)
    corpus_graphs = {key[0]: value for key, value in graphs.items()}
    m["clustering.edges"] += sum(v[0] for v in corpus_graphs.values())
    m["clustering.dangling"] += sum(v[1] for v in corpus_graphs.values())
    m["clustering.clusters"] += sum(v[2] for v in graphs.values())

    figures, table5 = [], []
    for pair in config.comparisons:
        a, b = pair["a"], pair["b"]
        cov_a = corpora[result_corpus[a]].coverage
        cov_b = corpora[result_corpus[b]].coverage
        with tr.span("overlap.pairwise_compare"):
            comparison = pairwise_compare(results[a], cov_b, results[b], cov_a)
        table5.append(table5_row(comparison))
        with tr.span("overlap.render_overlap_bar"):
            svg, sidecar = render_overlap_bar(comparison)
        m["overlap.pairs"] += 1
        m["overlap.union_dois"] += comparison.denominator
        artifacts[f"comparisons/{a}__{b}/overlap.svg"] = _sha(svg)
        artifacts[f"comparisons/{a}__{b}/overlap.json"] = _sha(sidecar)
        figures.append(f"comparisons/{a}__{b}/overlap.svg")

    for pair in config.termmaps:
        a, b = pair["a"], pair["b"]
        cfg_doc = pair.get("config", {})
        tm_config = TermMapConfig(
            min_occurrences=cfg_doc.get("min_occurrences", 70),
            max_ngram=cfg_doc.get("max_ngram", 3),
            layout_seed=cfg_doc.get("layout_seed", 0),
            layout_iterations=cfg_doc.get("layout_iterations", 150),
        )
        docs_a = [corpora[result_corpus[a]][x] for x in sorted(results[a].members)]
        docs_b = [corpora[result_corpus[b]][x] for x in sorted(results[b].members)]
        before = peak_rss_mb()
        with tr.span("termmap.extract_terms") as sp:
            terms = extract_terms(docs_a, docs_b, tm_config)
        sp.count = len(terms)
        combined = {d.internal_id: d for d in docs_a + docs_b}
        with tr.span("termmap.cooccurrence_edges") as sp:
            edges = cooccurrence_edges(terms, combined.values(), tm_config)
        sp.count = len(edges)
        with tr.span("termmap.layout_map"):
            coords = layout_map(edges, terms, tm_config) if terms else {}
        term_map = TermMap(name_a=a, name_b=b, terms=terms, edges=edges,
                           coordinates=coords, config=tm_config)
        for fmt in ("json", "graphml", "html"):
            with tr.span("termmap.export_term_map") as sp:
                text = export_term_map(term_map, fmt)
            sp.count = len(text)
            m["termmap.export_bytes"] += len(text.encode("utf-8"))
            artifacts[f"termmaps/{a}__{b}/termmap.{fmt}"] = _sha(text)
            figures.append(f"termmaps/{a}__{b}/termmap.{fmt}")
        m["termmap.rss_mb"] += peak_rss_mb() - before
        m["termmap.docs"] += len(docs_a) + len(docs_b)
        m["termmap.terms"] += len(terms)
        m["termmap.edges"] += len(edges)

    bundle = ReportBundle(table3=table3, table4=table4, table5=table5,
                          figures=figures, manifest={})
    for fmt in ("csv", "markdown"):
        with tr.span("pipeline.emit_report"):
            written = emit_report(bundle, fmt, out / "reports")
        for path in written:
            artifacts[f"reports/{path.name}"] = _sha(path.read_text(encoding="utf-8"))
    artifacts["reports/bundle.json"] = _sha(_dumps({
        "table3": table3, "table4": table4, "table5": table5, "figures": figures}))
    return indexes, artifacts, rows


def traced_run(workload, check: OutputCheck, trace_file: Path) -> tuple[dict, dict]:
    """One traced pass: the pipeline's calls, an index round trip, a query pass.

    Spans stay in memory and are written to `trace_file` at the end.
    UNTRACED_RUNS untraced `run_pipeline` calls follow; their median is the
    untraced total beside the traced one.
    Returns (metrics, details).
    """
    tr = Tracer(run_id=f"{workload.name}-{workload.seed}-{os.getpid()}")
    m: Counter = Counter()
    problems: list[str] = []
    trace_out = workload.out_dir.parent / "traced"
    gc.collect()
    with tr.span("harness.run") as root:
        with tr.span("pipeline.run") as pipe:
            indexes, artifacts, rows = _traced_pipeline(workload, tr, m, trace_out)
        io_path = workload.out_dir.parent / "index.json"
        with tr.span("harness.index_io"):
            for name, index in indexes.items():
                with open(io_path, "w", encoding="utf-8") as fh:
                    with tr.span("index.save_index"):
                        save_index(index, fh)
                m["index.file_bytes"] += io_path.stat().st_size
                with open(io_path, encoding="utf-8") as fh:
                    with tr.span("index.load_index"):
                        loaded = load_index(fh)
                if loaded != index:
                    problems.append(f"index of {name} changed in a save/load round trip")
                del loaded
        asts = []
        with tr.span("harness.queries"):
            for i, q in enumerate(workload.queries):
                try:
                    with tr.span("query.parse_query"):
                        ast = parse_query(q.text)
                    with tr.span(f"query.evaluate.{node_type(ast)}") as sp:
                        hits = evaluate(ast, indexes[q.corpus], q.fields)
                except Exception as exc:  # a failed operation is counted, not fatal
                    check.query_error(q.text, exc)
                    continue
                sp.count = len(hits)
                check.query(i, hits, q.text)
                asts.append((ast, q, len(hits)))

    candidates = matched = 0
    for ast, q, hits in asts:
        index = indexes[q.corpus]
        for node, fields in _positional_nodes(ast, q.fields):
            tokens = tuple(Wildcard(t[:-1]) if t.endswith("*") else Term(t) for t in node.tokens)
            candidates += len(evaluate(And(tokens), index, fields))
            matched += hits if node is ast else len(evaluate(node, index, fields))

    del indexes, asts
    untraced_runs, outputs = [], {}
    for _ in range(UNTRACED_RUNS):
        gc.collect()
        t = time.perf_counter()
        try:
            bundle = run_pipeline_once(workload)
        except Exception as exc:  # a failed operation is counted, not fatal
            untraced_runs.append(time.perf_counter() - t)
            check.pipeline_error(exc)
        else:
            untraced_runs.append(time.perf_counter() - t)
            check.pipeline(bundle.manifest)
            outputs = bundle.manifest["outputs"]
    untraced = statistics.median(untraced_runs)
    if outputs and artifacts != outputs:
        differing = sorted(k for k in set(artifacts) | set(outputs)
                           if artifacts.get(k) != outputs.get(k))
        problems.append(f"traced calls disagree with run_pipeline on {differing[:5]}")

    calls_in_pipeline = pipe.duration - tr.self_times()[pipe.id]
    values = dict(m)
    values.update({
        "corpus.ingest_s": tr.total("corpus.load_corpus_file"),
        "index.build_s": tr.total("index.build_index"),
        "index.save_s": tr.total("index.save_index"),
        "index.load_s": tr.total("index.load_index"),
        "query.parse_s": tr.total("query.parse_query"),
        "query.hits": sum(s.count for s in tr.spans if s.name.startswith("query.evaluate.")),
        "query.positional.candidates": candidates,
        "query.positional.matched": matched,
        "query.positional.match_ratio": matched / candidates if candidates else 0.0,
        "strategy.load_s": tr.total("strategy.load_strategy_file"),
        "strategy.run_s": tr.total("strategy.run_strategy"),
        "clustering.graph_s": tr.total("clustering.build_citation_graph"),
        "clustering.louvain_s": tr.total("clustering.cluster_citation_graph"),
        "clustering.enhance_s": tr.total("clustering.enhance_by_cluster_threshold"),
        "overlap.compare_s": tr.total("overlap.pairwise_compare"),
        "overlap.render_s": tr.total("overlap.render_overlap_bar"),
        "termmap.extract_s": tr.total("termmap.extract_terms"),
        "termmap.cooc_s": tr.total("termmap.cooccurrence_edges"),
        "termmap.layout_s": tr.total("termmap.layout_map"),
        "termmap.export_s": tr.total("termmap.export_term_map"),
        "pipeline.report_s": tr.total("pipeline.emit_report"),
        "pipeline.files": len(outputs) + 1,
        "pipeline.output_bytes": sum(p.stat().st_size for p in workload.out_dir.rglob("*")
                                     if p.is_file()),
        "pipeline.traced_s": pipe.duration,
        "pipeline.untraced_s": untraced,
        "pipeline.unaccounted_s": untraced - calls_in_pipeline,
    })
    for kind in NODE_TYPES:
        spans = tr.named(f"query.evaluate.{kind}")
        values[f"query.{kind}.n"] = len(spans)
        values[f"query.{kind}.busy_s"] = sum(s.duration for s in spans)
        values[f"query.{kind}.p50_ms"] = (1000 * statistics.median(s.duration for s in spans)
                                          if spans else 0.0)
    for k, (_, run_s, members) in enumerate(rows, start=1):
        values[f"strategy.s{k}.run_s"] = run_s
        values[f"strategy.s{k}.members"] = members

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(tr.to_json()) + "\n", encoding="utf-8")
    shares = {layer: t / root.duration for layer, t in tr.self_by_layer(root).items()}
    details = {"traced_total_s": root.duration, "layer_shares": shares,
               "strategies": {name: {"run_s": r, "members": n} for name, r, n in rows},
               "trace_file": str(trace_file), "problems": problems}
    return values, details
