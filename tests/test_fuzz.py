"""A fuzz gate over the CLI's input files and query strings.

Each example of the pipeline test copies the demo, changes one leaf of
`config.json`, of one strategy file or of one corpus line, and runs `sdglab
pipeline` on the copy. A leaf is deleted, replaced by a value from a fixed
pool, or nested 10^5 lists deep. The query tests edit a seed query of the
demo or reference strategies and run it through `sdglab parse` and, as a seed
of the demo's alpha strategy, `sdglab run`. The file tests edit the bytes of
a cluster assignment file that `sdglab enhance` reads, of a coverage file
that `sdglab compare` reads and of an index file that `sdglab run --index`
reads. Every run must succeed or fail with a stage-labelled error and a
documented exit code, within a time limit; it must never raise.
"""

import contextlib
import io
import json
import shutil
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from sdglab.cli import main

DEMO = DATA_DIR / "demo"
DOCUMENTS = ("config.json", "alpha.json", "beta.json", "gamma.json", "delta.json")
CORPORA = ("corpus_x.jsonl", "corpus_y.jsonl")
POOL = (None, True, 0, -1, 1.5, float("nan"), "", [], {}, ["x"], 10**30, "alpha")
DEEP = 10**5
TIME_LIMIT_S = 10.0
# The most bytes an error report may take: an error quotes excerpts of its
# input, never a whole query or line.
MAX_ERR_BYTES = 1000


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


def _cli(argv: list[str]) -> tuple[int | str, str]:
    """`sdglab argv`'s exit code, or why it has none, and its standard error."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except _TooSlow:
        code = f"still running after {TIME_LIMIT_S} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _labelled(err: str, label: str | None = None) -> bool:
    """Whether `err` holds an error line labelled `label`, or any label."""
    prefix = "error: [" if label is None else f"error: [{label}]"
    return any(row.startswith(prefix) for row in err.splitlines())


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
        code, err = _cli(["pipeline", "--config", str(work / "config.json"),
                          "--output-dir", str(work / "out")])
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert _labelled(err), err


def _strategy_docs() -> list[dict]:
    paths = [DEMO / name for name in DOCUMENTS[1:]]
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in paths + sorted((DATA_DIR / "strategies").glob("*.json"))]


SEED_QUERIES = sorted({q for doc in _strategy_docs()
                       for q in [s["query"] for s in doc["seeds"]] + doc["exclusions"]})
# Pieces an edit puts into a query: its syntax, odd characters, and long
# runs of operators, parentheses and tokens.
QUERY_POOL = ('"', "(", ")", "[", "]", ",", "*", "~", "~0", "~1", "~" + "9" * 30,
              " AND ", " OR ", " NOT ", " AND NOT ", "[title](", "[bogus](",
              "[title,abstract]", "_", "é", "東京", "İ", "ﬁ", "\x00", "\t", "\n",
              "a" * 10**5, "(" * 150, ")" * 150, "x AND " * 150, '"' + "x " * 10**4 + '"~2')


@st.composite
def queries(draw):
    """A seed query after one to three edits: a span of up to four
    characters is deleted, or replaced by, or preceded by a pool piece."""
    text = draw(st.sampled_from(SEED_QUERIES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(("",) + QUERY_POOL)) + text[j:]
    return text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(queries())
def test_edited_query_parses_as_documented(query):
    code, err = _cli(["parse", "--query", query])
    assert code == 0 or code == 2 and _labelled(err, "parse"), (code, err)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(queries())
def test_edited_seed_runs_as_documented(query):
    with tempfile.TemporaryDirectory() as tmp:
        doc = json.loads((DEMO / "alpha.json").read_text(encoding="utf-8"))
        doc["seeds"][0]["query"] = query
        strategy = Path(tmp) / "alpha.json"
        strategy.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _cli(["run", "--strategy", str(strategy),
                          "--corpus", str(DEMO / "corpus_x.jsonl"),
                          "--out", str(Path(tmp) / "result.json")])
    assert code == 0 or code == 2 and _labelled(err, "strategy:alpha"), (code, err)
    assert len(err) <= MAX_ERR_BYTES, err[:2000]


@pytest.fixture(scope="module")
def enhance_inputs(tmp_path_factory) -> Path:
    """A directory holding beta's result on corpus_x and the assignment that
    `sdglab enhance` computes for it, as `result.json` and `assignment.tsv`."""
    work = tmp_path_factory.mktemp("enhance")
    corpus, beta = str(DEMO / "corpus_x.jsonl"), str(DEMO / "beta.json")
    assert main(["run", "--strategy", beta, "--corpus", corpus,
                 "--out", str(work / "result.json")]) == 0
    assert main(["enhance", "--strategy", beta, "--corpus", corpus,
                 "--result", str(work / "result.json"),
                 "--save-assignment", str(work / "assignment.tsv"),
                 "--out", str(work / "enhanced.json")]) == 0
    return work


# Pieces an edit puts into an assignment line, as bytes: separators, ids
# that are not in the corpus, bytes that are not UTF-8, long runs.
ASSIGNMENT_POOL = (b"\t", b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", b" ",
                   b"ghost", b"c1", "東京".encode(), b"\t" * 3, b"x" * 10**5, b"\n" * 100)


@st.composite
def line_edits(draw, pool):
    """(line, start, end, piece): bytes start..end of line `line` of a file,
    counted modulo its line count, become the piece, nothing or one of `pool`."""
    line = draw(st.integers(0, 10**4))
    start = draw(st.integers(0, 12))
    return line, start, draw(st.integers(start, 14)), draw(st.sampled_from((b"",) + pool))


def _line_edited(path: Path, edit) -> bytes:
    """The bytes of the file at `path` after the line edit `edit`."""
    line, start, end, piece = edit
    lines = path.read_bytes().splitlines(keepends=True)
    line %= len(lines)
    lines[line] = lines[line][:start] + piece + lines[line][end:]
    return b"".join(lines)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edit=line_edits(ASSIGNMENT_POOL))
def test_edited_assignment_enhances_as_documented(enhance_inputs, edit):
    with tempfile.TemporaryDirectory() as tmp:
        assignment = Path(tmp) / "assignment.tsv"
        assignment.write_bytes(_line_edited(enhance_inputs / "assignment.tsv", edit))
        doc = json.loads((DEMO / "beta.json").read_text(encoding="utf-8"))
        doc["enhancement"]["assignment_source"] = str(assignment)
        strategy = Path(tmp) / "beta.json"
        strategy.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _cli(["enhance", "--strategy", str(strategy),
                          "--corpus", str(DEMO / "corpus_x.jsonl"),
                          "--result", str(enhance_inputs / "result.json"),
                          "--out", str(Path(tmp) / "enhanced.json")])
    assert code == 0 or code == 2 and _labelled(err, f"assignment:{assignment}"), (code, err)


@pytest.fixture(scope="module")
def compare_inputs(tmp_path_factory) -> Path:
    """A directory holding alpha's result on corpus_x and gamma's on
    corpus_y, as `alpha.json` and `gamma.json`."""
    work = tmp_path_factory.mktemp("compare")
    for name, corpus in (("alpha", "corpus_x"), ("gamma", "corpus_y")):
        assert main(["run", "--strategy", str(DEMO / f"{name}.json"),
                     "--corpus", str(DEMO / f"{corpus}.jsonl"),
                     "--out", str(work / f"{name}.json")]) == 0
    return work


# Pieces an edit puts into a coverage line, as bytes: separators, DOI
# prefixes, bytes that are not UTF-8, a byte order mark, long runs.
COVERAGE_POOL = (b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", b" ", b"\t",
                 b"10.", b"https://doi.org/", b"doi:", b"\xef\xbb\xbf", "東京".encode(),
                 b"x" * 10**5, b"\n" * 100)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(side=st.sampled_from("ab"), edit=line_edits(COVERAGE_POOL))
def test_edited_coverage_compares_as_documented(compare_inputs, side, edit):
    coverage = {"a": DEMO / "coverage_x.txt", "b": DEMO / "coverage_y.txt"}
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "coverage.txt"
        edited.write_bytes(_line_edited(coverage[side], edit))
        coverage[side] = edited
        code, err = _cli(["compare", "--a", str(compare_inputs / "alpha.json"),
                          "--b", str(compare_inputs / "gamma.json"),
                          "--coverage-a", str(coverage["a"]),
                          "--coverage-b", str(coverage["b"])])
    assert code == 0 or code == 2 and _labelled(err, f"coverage:{edited}"), (code, err)


@pytest.fixture(scope="module")
def index_file(tmp_path_factory) -> Path:
    """The index file `sdglab index` writes for corpus_x."""
    path = tmp_path_factory.mktemp("index") / "index.json"
    assert main(["index", "--corpus", str(DEMO / "corpus_x.jsonl"),
                 "--out", str(path)]) == 0
    return path


# Pieces an edit puts into an index file, as bytes: JSON syntax and
# literals, base64 characters, bytes that are not UTF-8, long runs.
INDEX_POOL = (b'"', b",", b":", b"[", b"]", b"{", b"}", b"\\", b"0", b"-1", b"true",
              b"null", b"1e400", b"NaN", b"A", b"AAAA", b"=", b"/", b"\x00", b"\xff",
              "é".encode(), b"A" * 10**5, b"[" * 10**5)


@st.composite
def index_edits(draw):
    """(offset, length, piece): `length` bytes from `offset` of the index
    file, counted modulo its size, become the piece. An offset falls in the
    keys before `doc_ids`, in the part before `postings`, or anywhere."""
    offset = draw(st.one_of(st.integers(0, 80), st.integers(0, 3300),
                            st.integers(0, 10**7)))
    return offset, draw(st.integers(0, 4)), draw(st.sampled_from((b"",) + INDEX_POOL))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edit=index_edits())
def test_edited_index_runs_as_documented(index_file, edit):
    offset, length, piece = edit
    data = index_file.read_bytes()
    offset %= len(data)
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index.json"
        index.write_bytes(data[:offset] + piece + data[offset + length:])
        code, err = _cli(["run", "--strategy", str(DEMO / "alpha.json"),
                          "--corpus", str(DEMO / "corpus_x.jsonl"), "--index", str(index),
                          "--out", str(Path(tmp) / "result.json")])
    assert code == 0 or code == 2 and _labelled(err, f"index:{index}"), (code, err)
