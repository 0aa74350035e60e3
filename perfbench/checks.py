"""Output checks: recorded digests per workload and seed, and a scan-oracle sample.

`digests.json` maps workload -> seed -> the digest of the generated inputs,
of the manifest `outputs` (the timestamp is not part of it) and of every
query result in workload order. When the inputs of a run match the recorded
ones, every operation is compared with the recorded digest; otherwise the
first result of each operation in the run becomes its reference, so repeats
must agree, and the oracle sample still checks the results themselves.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from sdglab.query import parse_query

DIGESTS = Path(__file__).resolve().parent / "digests.json"
QUERY_DIGEST_LEN = 8


def digest_members(members) -> str:
    return hashlib.sha256("\n".join(sorted(members)).encode()).hexdigest()[:QUERY_DIGEST_LEN]


def digest_manifest(manifest: dict) -> str:
    return hashlib.sha256(json.dumps(manifest["outputs"], sort_keys=True).encode()).hexdigest()[:16]


class OutputCheck:
    """Counts attempted and failed operations against reference digests."""

    def __init__(self, workload: str, seed: int, input_digest: str, n_queries: int):
        self.workload, self.seed, self.input_digest = workload, seed, input_digest
        entry = _load().get(workload, {}).get(str(seed))
        self.recorded = entry is not None and entry["inputs"] == input_digest
        if self.recorded:
            q = entry["queries"]
            self.query_ref = [q[i:i + QUERY_DIGEST_LEN]
                              for i in range(0, len(q), QUERY_DIGEST_LEN)]
            self.manifest_ref = entry["manifest"]
        else:
            self.query_ref = [None] * n_queries
            self.manifest_ref = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)
        return ok

    def query(self, i: int, members, text: str) -> bool:
        d = digest_members(members)
        if self.query_ref[i] is None:
            self.query_ref[i] = d
        return self._check(self.query_ref[i] == d, f"query {i} {text!r}: result differs")

    def query_error(self, text: str, exc: Exception) -> None:
        self._check(False, f"query {text!r} raised {exc!r}")

    def pipeline(self, manifest: dict) -> bool:
        d = digest_manifest(manifest)
        if self.manifest_ref is None:
            self.manifest_ref = d
        return self._check(self.manifest_ref == d, "pipeline outputs differ")

    def pipeline_error(self, exc: Exception) -> None:
        self._check(False, f"pipeline raised {exc!r}")

    def record(self) -> None:
        """Store this run's digests as the reference for its workload and seed."""
        data = _load()
        data.setdefault(self.workload, {})[str(self.seed)] = {
            "inputs": self.input_digest,
            "manifest": self.manifest_ref,
            "queries": "".join(self.query_ref),
        }
        for name in data:
            data[name] = dict(sorted(data[name].items(), key=lambda kv: int(kv[0])))
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def _load() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def oracle_sample(workload, results: dict, corpora: dict) -> list[str]:
    """Compare query results with the brute-force document scan.

    `results` maps a query's position in the workload to its member set.
    Returns a description of each disagreement.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from oracle import evaluate_by_scan

    problems = []
    for i, members in sorted(results.items()):
        q = workload.queries[i]
        expected = evaluate_by_scan(parse_query(q.text), corpora[q.corpus], q.fields)
        if set(members) != expected:
            problems.append(f"oracle disagrees on {q.text!r}")
    return problems
