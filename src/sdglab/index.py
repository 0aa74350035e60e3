"""Tokenization and positional inverted index over title/abstract/keywords fields."""

from __future__ import annotations

import base64
import json
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from typing import IO, Iterator

import numpy as np

from .corpus import Corpus

# Unicode alphanumeric runs; underscore counts as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# For ASCII text, where the runs are exactly [A-Za-z0-9]+: lowers A-Z, keeps
# a-z and 0-9 and turns every other code point into a space, so the runs are
# what `str.split()` returns.
_ASCII_WORDS = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum() else " "
                              for c in range(128)})

TITLE, ABSTRACT, KEYWORDS = "title", "abstract", "keywords"
FIELDS = (TITLE, ABSTRACT, KEYWORDS)

# Keywords are independent phrases; a large position gap keeps proximity
# windows from spanning two keywords.
KEYWORD_GAP = 100

# One occurrence is one int64 code, doc number << DOC_SHIFT | field <<
# FIELD_SHIFT | position: docs are numbered in sorted id order, fields by
# their place in FIELDS (two bits), and a position must be below MAX_POSITION.
FIELD_SHIFT = 22
DOC_SHIFT = 24
MAX_POSITION = 1 << FIELD_SHIFT
POS_MASK = MAX_POSITION - 1

INDEX_MAGIC = "SDGLAB-INDEX"
INDEX_VERSION = 2
# Keys `load_index` requires besides magic and version, with their types.
_INDEX_KEYS = (("doc_count", int), ("doc_ids", list), ("tokens", list),
               ("counts", str), ("postings", str))
# `build_index` sorts each token place together with its token's rank, as
# one int64 key rank << _PLACE_BITS | place; a corpus's token stream may hold
# at most 2**_PLACE_BITS places.
_PLACE_BITS = 32
# Array bytes base64-encoded per write; a multiple of 3, so the pieces
# join into the encoding of the whole array.
_B64_CHUNK = 3 << 18


def words(text: str) -> list[str]:
    """The lowercase alphanumeric runs of text, in order.

    ASCII text is lowered and its separators turned into spaces by one
    `str.translate`, then split on whitespace. Other text is lowered token
    by token: lowering can turn one code point into two (`'İ'.lower()` ends
    in a combining mark), which would split a token if done before the split.
    """
    if text.isascii():
        return text.translate(_ASCII_WORDS).split()
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


def token_ids() -> defaultdict[str, int]:
    """An empty token -> id dict that gives a missing token the next id, so
    ids follow the order in which tokens are first looked up."""
    slot: defaultdict[str, int] = defaultdict()
    slot.default_factory = slot.__len__
    return slot


def tokenize(text: str) -> list[tuple[str, int]]:
    """Split text into lowercase alphanumeric runs with 0-based positions."""
    return [(tok, i) for i, tok in enumerate(words(text))]


def _keyword_runs(keywords: tuple[str, ...] | list[str]) -> Iterator[tuple[int, list[str]]]:
    """(position of the first token, tokens) of each keyword: each keyword
    starts KEYWORD_GAP positions after the previous keyword's tokens end."""
    base = 0
    for kw in keywords:
        toks = words(kw)
        yield base, toks
        base += len(toks) + KEYWORD_GAP


def tokenize_keywords(keywords: tuple[str, ...] | list[str]) -> list[tuple[str, int]]:
    """Tokenize a keyword list as one stream with a position gap between keywords."""
    return [(tok, base + i) for base, toks in _keyword_runs(keywords)
            for i, tok in enumerate(toks)]


def field_token_stream(record, field: str) -> list[tuple[str, int]]:
    if field == TITLE:
        return tokenize(record.title)
    if field == ABSTRACT:
        return tokenize(record.abstract)
    if field == KEYWORDS:
        return tokenize_keywords(record.keywords)
    raise ValueError(f"unknown field: {field}")


def run_starts(values: np.ndarray) -> np.ndarray:
    """A bool mask of a sorted array, set where a value differs from the one
    before it: at the first of each run of equal values."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    if len(values) < 2:
        return values
    return values[run_starts(values)]


class PositionalIndex:
    """Positional inverted index of packed occurrence codes.

    `codes` holds every token's codes (see DOC_SHIFT), token after token in
    the order of `sorted_vocabulary`, each token's run strictly increasing;
    `counts` gives the length of each run. Both arrays are read-only. A doc
    number is the place of its id in `doc_order`. `doc_order` and the
    vocabulary must be sorted and distinct.
    """

    def __init__(self, doc_order: list[str], tokens: list[str],
                 counts: np.ndarray, codes: np.ndarray):
        self.doc_order = tuple(doc_order)
        self.doc_count = len(doc_order)
        self.sorted_vocabulary = tokens
        self.counts, self.codes = counts, codes
        counts.flags.writeable = codes.flags.writeable = False
        self._offsets = [0, *np.cumsum(counts).tolist()]
        self._slot = {tok: i for i, tok in enumerate(tokens)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PositionalIndex):
            return NotImplemented
        return (self.doc_order == other.doc_order
                and self.sorted_vocabulary == other.sorted_vocabulary
                and bool(np.array_equal(self.counts, other.counts))
                and bool(np.array_equal(self.codes, other.codes)))

    __hash__ = None

    def token_codes(self, token: str) -> np.ndarray:
        """The token's codes, increasing; empty for a token not indexed."""
        i = self._slot.get(token)
        if i is None:
            return self.codes[:0]
        return self.codes[self._offsets[i]:self._offsets[i + 1]]

    def prefix_range(self, stem: str) -> tuple[int, int]:
        """The slice of `sorted_vocabulary` holding the tokens that start with `stem`."""
        vocab = self.sorted_vocabulary
        lo = hi = bisect_left(vocab, stem)
        while hi < len(vocab) and vocab[hi].startswith(stem):
            hi += 1
        return lo, hi

    def prefix_codes(self, stem: str) -> np.ndarray:
        """The codes of every token that starts with `stem`, token after token."""
        lo, hi = self.prefix_range(stem)
        return self.codes[self._offsets[lo]:self._offsets[hi]]

    def doc_names(self, doc_numbers: list[int]) -> set[str]:
        """A new set of the ids of the given doc numbers."""
        return set(map(self.doc_order.__getitem__, doc_numbers))

    @property
    def postings(self) -> dict[str, list[tuple[str, str, tuple[int, ...]]]]:
        """token -> [(doc, field, positions)] in (doc, field) order.

        Decoded from the codes on each access, for inspection and tests;
        evaluation reads the codes.
        """
        keys = self.codes >> FIELD_SHIFT  # (doc, field)
        bounds = np.union1d(np.flatnonzero(keys[1:] != keys[:-1]) + 1, self._offsets)
        first = np.searchsorted(bounds, self._offsets).tolist()
        keys, bounds = keys.tolist(), bounds.tolist()
        positions = (self.codes & POS_MASK).tolist()
        field_bits = DOC_SHIFT - FIELD_SHIFT
        entries = [(self.doc_order[keys[a] >> field_bits], FIELDS[keys[a] & 3],
                    tuple(positions[a:b]))
                   for a, b in zip(bounds, bounds[1:])]
        return {tok: entries[a:b]
                for tok, a, b in zip(self.sorted_vocabulary, first, first[1:])}


def build_index(corpus: Corpus) -> PositionalIndex:
    """Index the title, abstract and keywords fields of every record.

    Docs are visited in id order, fields in FIELDS order and positions in
    increasing order, so the codes come out increasing in stream order. Each
    run of tokens (a title, an abstract, a keyword) adds its token ids to one
    int32 stream, and the code of the token at place i of the stream is its
    run's shift plus i. The ids are renumbered in sorted token order and
    packed as rank << _PLACE_BITS | place into int64 keys; places are
    distinct, so one plain sort of the keys lists the places token by token,
    each token's places (and so its codes) still increasing, which is the
    order a stable argsort of the ranks gives.
    Raises ValueError for a position at or past MAX_POSITION, and for a
    token stream with a place that does not fit in _PLACE_BITS bits.
    """
    doc_order = sorted(corpus.records)
    slot = token_ids()
    ids = array("i")
    shifts: list[int] = []  # first code of a run minus its place in the stream
    lengths: list[int] = []
    for num, doc in enumerate(doc_order):
        rec = corpus.records[doc]
        runs = ([(0, words(rec.title))], [(0, words(rec.abstract))],
                _keyword_runs(rec.keywords))
        for f, field_runs in enumerate(runs):
            head = num << DOC_SHIFT | f << FIELD_SHIFT
            last = -1
            for start, toks in field_runs:
                if toks:
                    shifts.append(head + start - len(ids))
                    lengths.append(len(toks))
                    ids.extend(map(slot.__getitem__, toks))
                    last = start + len(toks) - 1
            if last >= MAX_POSITION:
                raise ValueError(f"record {doc!r} field {FIELDS[f]!r}: position "
                                 f"{last} is not below 2**{FIELD_SHIFT}")
    if len(ids) > 1 << _PLACE_BITS:
        raise ValueError(f"corpus {corpus.name!r} has {len(ids)} tokens; an index "
                         f"holds at most 2**{_PLACE_BITS}")
    tokens = sorted(slot)
    rank = np.empty(len(tokens), np.int32)
    rank[np.fromiter(map(slot.__getitem__, tokens), np.int32, len(tokens))] = \
        np.arange(len(tokens), dtype=np.int32)
    keys = rank[np.frombuffer(ids, np.int32)]
    del ids
    counts = np.bincount(keys, minlength=len(tokens)).astype(np.int64, copy=False)
    order = keys.astype(np.int64)
    del keys
    order <<= _PLACE_BITS
    order |= np.arange(len(order))
    order.sort()
    order &= (1 << _PLACE_BITS) - 1
    codes = np.repeat(np.array(shifts, np.int64), lengths)[order]
    codes += order
    return PositionalIndex(doc_order, tokens, counts, codes)


def _write_base64(sink: IO[str], array: np.ndarray) -> None:
    data = memoryview(array.astype("<i8", copy=False)).cast("B")
    for i in range(0, len(data), _B64_CHUNK):
        sink.write(base64.b64encode(data[i:i + _B64_CHUNK]).decode("ascii"))


def save_index(index: PositionalIndex, sink: IO[str]) -> None:
    """Write the index as one JSON object: magic, version, doc_count, the
    sorted doc_ids and tokens, then `counts` and `postings` (the codes) as
    base64 of little-endian int64 bytes. The base64 goes out in pieces, so
    the encoded arrays are never held whole in memory."""
    head = json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION,
                       "doc_count": index.doc_count, "doc_ids": list(index.doc_order),
                       "tokens": index.sorted_vocabulary}, ensure_ascii=False)
    sink.write(head[:-1])
    for key, array in (("counts", index.counts), ("postings", index.codes)):
        sink.write(f', "{key}": "')
        _write_base64(sink, array)
        sink.write('"')
    sink.write("}")


def _sorted_strings(doc: dict, key: str) -> list[str]:
    values = doc[key]
    if not all(type(v) is str for v in values):
        raise ValueError(f"index {key!r} holds a value that is not a string")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"index {key!r} is not sorted and distinct")
    return values


def _int64_array(doc: dict, key: str) -> np.ndarray:
    try:
        data = base64.b64decode(doc[key], validate=True)
    except ValueError as exc:
        raise ValueError(f"index {key!r} is not base64: {exc}") from exc
    if len(data) % 8:
        raise ValueError(f"index {key!r} holds {len(data)} bytes, not a multiple of 8")
    return np.frombuffer(data, dtype="<i8").astype(np.int64, copy=False)


def _check_codes(codes: np.ndarray, ends: np.ndarray, doc_count: int) -> None:
    if not len(codes):
        return
    rising = codes[1:] > codes[:-1]
    rising[ends[:-1] - 1] = True  # a token's first code follows another token's
    if not rising.all():
        raise ValueError("index codes of a token are not strictly increasing")
    if codes.min() < 0 or codes.max() >> DOC_SHIFT >= doc_count:
        raise ValueError(f"index codes name a doc number outside 0..{doc_count - 1}")
    if (codes >> FIELD_SHIFT & 3 >= len(FIELDS)).any():
        raise ValueError(f"index codes name field {len(FIELDS)}: "
                         f"a position not below 2**{FIELD_SHIFT}")


def load_index(source: IO[str]) -> PositionalIndex:
    """Read an index written by `save_index`; raises ValueError for anything
    else, naming what is wrong."""
    doc = json.load(source)
    if type(doc) is not dict or doc.get("magic") != INDEX_MAGIC:
        raise ValueError("not an index file")
    if type(doc.get("version")) is not int or doc["version"] != INDEX_VERSION:
        raise ValueError(f"unsupported index version: {doc.get('version')}")
    for key, kind in _INDEX_KEYS:
        if key not in doc:
            raise ValueError(f"index has no {key!r} key")
        if type(doc[key]) is not kind:
            raise ValueError(f"index {key!r} is a {type(doc[key]).__name__}, "
                             f"not a {kind.__name__}")
    doc_order, tokens = _sorted_strings(doc, "doc_ids"), _sorted_strings(doc, "tokens")
    if doc["doc_count"] != len(doc_order):
        raise ValueError(f"index doc_count {doc['doc_count']} is not the number "
                         f"of doc_ids, {len(doc_order)}")
    counts, codes = _int64_array(doc, "counts"), _int64_array(doc, "postings")
    if len(counts) != len(tokens):
        raise ValueError(f"index has {len(counts)} counts for {len(tokens)} tokens")
    if len(counts) and (counts.min() < 1 or counts.max() > len(codes)) \
            or int(counts.sum()) != len(codes):
        raise ValueError(f"index counts do not sum to the number of codes, {len(codes)}")
    _check_codes(codes, np.cumsum(counts), len(doc_order))
    return PositionalIndex(doc_order, tokens, counts, codes)
