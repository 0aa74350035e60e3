"""A fuzz gate over the pipeline's input files.

Each example copies the demo, changes one leaf of `config.json`, of one
strategy file or of one corpus line, and runs `sdglab pipeline` on the copy.
A leaf is deleted, replaced by a value from a fixed pool, or nested 10^5
lists deep. The run must succeed or fail with a stage-labelled error and a
documented exit code, within a time limit; it must never raise.
"""

import contextlib
import io
import json
import shutil
import signal
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from sdglab.cli import main

DEMO = DATA_DIR / "demo"
DOCUMENTS = ("config.json", "alpha.json", "beta.json", "gamma.json", "delta.json")
CORPORA = ("corpus_x.jsonl", "corpus_y.jsonl")
POOL = (None, True, 0, -1, 1.5, float("nan"), "", [], {}, ["x"], 10**30, "alpha")
DEEP = 10**5
TIME_LIMIT_S = 10.0


def _lines(name: str) -> list[str]:
    return (DEMO / name).read_text(encoding="utf-8").splitlines()


def _leaves(value, path=()):
    """The paths of `value`'s leaves: the scalars and empty containers in it."""
    children = list(value.items() if isinstance(value, dict) else
                    enumerate(value) if isinstance(value, list) else ())
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, path + (key,))


@st.composite
def mutations(draw):
    """(file, line index or None, leaf path, action, pool value)."""
    name = draw(st.sampled_from(DOCUMENTS + CORPORA))
    if name in CORPORA:
        line = draw(st.integers(0, len(_lines(name)) - 1))
        doc = json.loads(_lines(name)[line])
    else:
        line, doc = None, json.loads((DEMO / name).read_text(encoding="utf-8"))
    path = draw(st.sampled_from([p for p in _leaves(doc) if p]))
    action = draw(st.sampled_from(("delete", "replace", "nest")))
    value = draw(st.sampled_from(POOL)) if action == "replace" else None
    return name, line, path, action, value


def _mutated_text(doc, path, action, value) -> str:
    """The JSON text of `doc` after changing its leaf at `path` by `action`."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "delete":
        del parent[key]
        return json.dumps(doc)
    if action == "replace":
        parent[key] = value
        return json.dumps(doc)
    marker = "\x00nest\x00"
    leaf, parent[key] = parent[key], marker
    return json.dumps(doc).replace(json.dumps(marker),
                                   "[" * DEEP + json.dumps(leaf) + "]" * DEEP)


class _TooSlow(Exception):
    """Raised by the alarm; not an OSError, so no stage takes it for bad input."""


def _too_slow(signum, frame):
    raise _TooSlow


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutations())
def test_one_changed_leaf_fails_as_documented(mutation):
    name, line, path, action, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "demo"
        shutil.copytree(DEMO, work)
        if line is None:
            text = _mutated_text(json.loads((work / name).read_text(encoding="utf-8")),
                                 path, action, value)
        else:
            lines = _lines(name)
            lines[line] = _mutated_text(json.loads(lines[line]), path, action, value)
            text = "\n".join(lines) + "\n"
        (work / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _too_slow)
        signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["pipeline", "--config", str(work / "config.json"),
                             "--output-dir", str(work / "out")])
        except _TooSlow:
            code = f"still running after {TIME_LIMIT_S} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code:
        assert any(row.startswith("error: [") for row in err.getvalue().splitlines()), \
            err.getvalue()
