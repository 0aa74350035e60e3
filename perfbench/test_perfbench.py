"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the repo root."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from oracle import evaluate_by_scan  # noqa: E402
from sdglab.query import evaluate, parse_query, print_query  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return workloads.build("paper-queries", 1, tmp_path_factory.mktemp("paper"))


def test_paper_queries_agree_with_scan_oracle(paper):
    corpora, indexes = measure.load_all(paper)
    rng = random.Random(7)
    for i in rng.sample(range(len(paper.queries)), 30):
        q = paper.queries[i]
        ast = parse_query(q.text)
        assert evaluate(ast, indexes[q.corpus], q.fields) == \
            evaluate_by_scan(ast, corpora[q.corpus], q.fields), q.text


def test_two_pipeline_runs_write_identical_outputs(paper):
    first = measure.run_pipeline_once(paper).manifest
    second = measure.run_pipeline_once(paper).manifest
    assert checks.digest_manifest(first) == checks.digest_manifest(second)
    assert first["outputs"] == second["outputs"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("citation-scale", 5, tmp_path / "a")
    b = workloads.build("citation-scale", 5, tmp_path / "b")
    c = workloads.build("citation-scale", 6, tmp_path / "c")
    assert a.input_digest == b.input_digest != c.input_digest


def test_generator_properties(paper):
    records = workloads._read_records(paper.corpora[0]["corpus_file"])
    other = workloads._read_records(paper.corpora[1]["corpus_file"])
    with_doi = sum(1 for r in records if r["doi"]) / len(records)
    assert 0.89 < with_doi < 0.95
    shared = {r["doi"] for r in records if r["doi"]} & {r["doi"] for r in other if r["doi"]}
    assert shared
    years = {r["year"] for r in records}
    assert min(years) < 2015 and max(years) > 2019
    ids = {r["id"] for r in records}
    refs = [ref for r in records for ref in r["refs"]]
    assert any(ref not in ids for ref in refs) and any(ref in ids for ref in refs)
    vocab = gen.Vocabulary(gen.load_strategy_docs(
        sorted((workloads.DATA / "strategies").glob("*.json"))))
    assert set(vocab.strategy_tokens) <= set(vocab.words)
    seen = {w for r in records for w in (r["title"] + " " + r["abstract"]).lower().split()}
    assert len(set(vocab.strategy_tokens) & seen) > 0.9 * len(vocab.strategy_tokens)


def test_probes_cover_every_node_type_and_round_trip(paper):
    records = workloads._read_records(paper.corpora[0]["corpus_file"])
    topic = gen.strategy_words(gen.load_strategy_docs(
        sorted((workloads.DATA / "strategies").glob("*.json"))))
    probes = gen.probe_queries(records, 3, 5, topic)
    assert probes == gen.probe_queries(records, 3, 5, topic)
    kinds = [gen.node_type(parse_query(p)) for p in probes]
    assert all(kinds.count(k) == 5 for k in gen.NODE_TYPES)
    for p in probes:
        ast = parse_query(p)
        assert parse_query(print_query(ast)) == ast


def test_self_time_subtracts_children():
    tr = Tracer("t")
    with tr.span("a.outer") as outer:
        with tr.span("b.inner") as inner:
            pass
    self_s = tr.self_times()
    assert self_s[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert self_s[inner.id] == pytest.approx(inner.duration)
    shares = tr.self_by_layer(outer)
    assert sum(shares.values()) == pytest.approx(outer.duration)


def test_output_check_counts_mismatches():
    check = checks.OutputCheck("none", 0, "x", 2)
    assert check.query(0, {"a"}, "q") and check.query(0, {"a"}, "q")
    assert not check.query(0, {"b"}, "q")
    check.query_error("q", ValueError("bad"))
    assert (check.attempted, check.failed) == (4, 2)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "citation-scale", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (tmp_path / "perfbench").mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "citation-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
