"""In-memory spans recorded around calls into the sdglab modules.

A span holds a name, start and end times, its parent span, the run id and a
count of the items it handled. Spans stay in memory until the run ends; the
caller writes them out with `Tracer.to_json`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        """Record a span around the block; the block may set `.count` on it."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                  self.run_id, count)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans.

        Spans come from one stack, so children of a span never overlap.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_by_layer(self, root: Span) -> dict[str, float]:
        """Self time of `root` and every span under it, summed per layer."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        under = set()
        for s in self.spans:  # a parent is recorded before its children
            if s.id == root.id or s.parent in under:
                under.add(s.id)
                out[s.layer] = out.get(s.layer, 0.0) + self_s[s.id]
        return out

    def to_json(self) -> dict:
        self_s = self.self_times()
        return {"run_id": self.run_id,
                "spans": [dict(asdict(s), self_s=self_s[s.id]) for s in self.spans]}
