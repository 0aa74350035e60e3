"""The generator scripts still write the data that ships in src/sdglab/data,
and the BENCH file writer pairs perfbench runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import DATA_DIR

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, shipped", [
    ("gen_demo", DATA_DIR / "demo"),
    ("gen_strategies", DATA_DIR / "strategies"),
], ids=["gen_demo", "gen_strategies"])
def test_script_reproduces_shipped_data(script, shipped, tmp_path):
    module = load_script(script)
    module.OUT_DIR = tmp_path
    module.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in shipped.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def write_run(path, seed, values):
    """A perfbench/run.py output: a meta line, then the result as the last line."""
    meta = {"cpu_model": "cpu", "git_sha": None, "input_digest": "d", "networkx": "3",
            "nproc": 2, "numpy": "2", "python": "3.11", "records": {"a": 5},
            "seconds": 60.0, "seed": seed, "workload": "w"}
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    result = {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}
    path.write_text(f"perfbench w seed={seed}\nmeta {json.dumps(meta)}\n"
                    f"details {{}}\n{json.dumps(result)}\n", encoding="utf-8")
    return path


def test_bench_file_pairs_runs_by_seed(tmp_path):
    bench_file = load_script("bench_file")
    names = [m["name"] for m in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    # the change is faster at seeds 1 and 2 and slower at seed 3
    parent = [write_run(tmp_path / f"p{s}", s, dict.fromkeys(names, 2.0 + s)) for s in (1, 2, 3)]
    change = [write_run(tmp_path / f"c{s}", s, dict.fromkeys(names, (1.0, 2.0, 9.0)[s - 1]))
              for s in (1, 2, 3)]
    out = tmp_path / "BENCH.json"
    assert bench_file.main(["--pr", "3", "--out", str(out), "--parent-rev", "abc",
                            "--change-rev", "def",
                            "--parent", *map(str, parent), "--change", *map(str, change)]) == 0
    doc = json.loads(out.read_text())
    assert doc["revision"] == {"parent": "abc", "change": "def"}
    entry = doc["workloads"]["w"]
    assert entry["seeds"] == [1, 2, 3]
    assert [p["change"]["metrics"][names[0]] for p in entry["pairs"]] == [1.0, 2.0, 9.0]
    summary = entry["summary"][names[0]]
    assert summary["change_better_pairs"] == 2 and summary["pairs"] == 3
    assert summary["parent"] == {"median": 4.0, "q1": 3.5, "q3": 4.5}
    assert summary["change"]["median"] == 2.0
    with pytest.raises(SystemExit, match="not the same"):
        bench_file.main(["--pr", "3", "--out", str(out), "--parent-rev", "abc",
                         "--change-rev", "def", "--parent", *map(str, parent),
                         "--change", *map(str, change[:2])])
