#!/usr/bin/env python3
"""Write a BENCH_<pr>.json file from paired perfbench runs.

    python3 scripts/bench_file.py --pr N --out BENCH_N.json \\
        --parent-rev SHA --change-rev SHA --note "parent first on odd seeds" \\
        --parent parent-*.txt --change change-*.txt

Each input file is the standard output of one `perfbench/run.py --trace 0`
run. Runs pair up by workload and seed. The file records the host, each
side's git revision (a commit, or the tree id of `src` for a change not yet
committed), every pair's end-to-end values, and per metric each side's
median and quartiles and the number of pairs in which the change reads
better.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy", "networkx")


def read_run(path: Path) -> tuple[dict, dict]:
    """(meta, result) of one run.py output: its `meta` line and its last line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = next(json.loads(line[len("meta "):]) for line in lines if line.startswith("meta "))
    return meta, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent", type=Path, nargs="+", required=True)
    ap.add_argument("--change", type=Path, nargs="+", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-rev", required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = {side: {} for side in ("parent", "change")}
    for side in runs:
        for path in getattr(args, side):
            meta, result = read_run(path)
            runs[side][meta["workload"], meta["seed"]] = meta, result
    if runs["parent"].keys() != runs["change"].keys():
        raise SystemExit("bench_file: the parent and change runs are not the same "
                         "workloads and seeds")
    metas = [meta for side in runs.values() for meta, _ in side.values()]
    host = {key: sorted({str(m[key]) for m in metas}) for key in HOST_KEYS}

    workloads: dict[str, dict] = {}
    for workload, seed in sorted(runs["parent"]):
        entry = workloads.setdefault(workload, {"seeds": [], "pairs": []})
        entry["seeds"].append(seed)
        pair = {"seed": seed}
        for side, side_runs in runs.items():
            meta, result = side_runs[workload, seed]
            pair[side] = {"records": meta["records"], "input_digest": meta["input_digest"],
                          "seconds": meta["seconds"], "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
        entry["pairs"].append(pair)
    for entry in workloads.values():
        summary = entry["summary"] = {}
        for m in metrics:
            values = {side: [p[side]["metrics"][m["name"]] for p in entry["pairs"]]
                      for side in runs}
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            summary[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m["bound"], "pairs": len(entry["pairs"]),
                                  "change_better_pairs": wins,
                                  **{side: spread(v) for side, v in values.items()}}

    doc = {"pr": args.pr, "command": "python3 perfbench/run.py --workload W --seed S "
                                     "--seconds SECONDS --trace 0",
           "host": host, "revision": {"parent": args.parent_rev, "change": args.change_rev},
           "note": args.note, "workloads": workloads}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
