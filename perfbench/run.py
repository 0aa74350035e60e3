#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-queries --seed 1 --seconds 60 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed into a scratch directory under .perfbench-work/, which is removed at
the end. With --trace 0 the run prints the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics; the last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper-queries", "citation-scale")


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, args) -> dict:
    import networkx
    import numpy
    origins: dict[str, int] = {}
    for q in workload.queries:
        origins[q.origin] = origins.get(q.origin, 0) + 1
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "records": workload.records(), "queries": origins,
        "strategies": workload.strategies, "input_digest": workload.input_digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="rounds of measurement go on while another round would "
                         "end within this many seconds (at least two rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digests as the reference for "
                         "the workload and seed (only when every check passed)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdglab" / "__init__.py").is_file():
        print(f"perfbench: no sdglab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import measure
    import workloads
    from checks import OutputCheck

    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root,
                                     prefix=f"{args.workload}-{args.seed}-") as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        meta = metadata(workload, args)
        check = OutputCheck(workload.name, workload.seed, workload.input_digest,
                            len(workload.queries))
        if args.trace:
            trace_file = work_root / "traces" / f"{args.workload}-{args.seed}.json"
            values, details = measure.traced_run(workload, check, trace_file)
        else:
            values, details = measure.timed_run(workload, args.seconds, check)

    metrics = {}
    for m in wanted:
        # A layer a workload never calls reports zero work.
        value = values.get(m["name"], 0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    problems = details.pop("problems") + check.notes
    correct = check.failed == 0 and not problems
    if args.record and correct:
        check.record()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    share = check.failed / check.attempted
    print(f"  {'failed_share':36s} {share:>16.6g} ratio "
          f"({check.failed} of {check.attempted} operations; digests "
          f"{'recorded' if check.recorded else 'from this run'})")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
