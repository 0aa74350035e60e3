"""Tokenization and positional inverted index over title/abstract/keywords fields."""

from __future__ import annotations

import gc
import json
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import IO

from .corpus import Corpus

# Unicode alphanumeric runs; underscore counts as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TITLE, ABSTRACT, KEYWORDS = "title", "abstract", "keywords"
FIELDS = (TITLE, ABSTRACT, KEYWORDS)

# Keywords are independent phrases; a large position gap keeps proximity
# windows from spanning two keywords.
KEYWORD_GAP = 100

_DOC = itemgetter(0)

INDEX_MAGIC = "SDGLAB-INDEX"
INDEX_VERSION = 1
# Keys `load_index` requires besides magic and version, with their types.
_INDEX_KEYS = (("postings", dict), ("doc_count", int), ("doc_ids", list))


def tokenize(text: str) -> list[tuple[str, int]]:
    """Split text into lowercase alphanumeric runs with 0-based positions."""
    return [(m.group(0).lower(), i) for i, m in enumerate(_TOKEN_RE.finditer(text))]


def tokenize_keywords(keywords: tuple[str, ...] | list[str]) -> list[tuple[str, int]]:
    """Tokenize a keyword list as one stream with a position gap between keywords."""
    stream = []
    base = 0
    for kw in keywords:
        toks = tokenize(kw)
        for tok, pos in toks:
            stream.append((tok, base + pos))
        base += len(toks) + KEYWORD_GAP
    return stream


def field_token_stream(record, field: str) -> list[tuple[str, int]]:
    if field == TITLE:
        return tokenize(record.title)
    if field == ABSTRACT:
        return tokenize(record.abstract)
    if field == KEYWORDS:
        return tokenize_keywords(record.keywords)
    raise ValueError(f"unknown field: {field}")


@dataclass
class PositionalIndex:
    """Positional inverted index: token -> postings of (doc, field, positions).

    Each postings list is sorted by (doc, field), with docs in string order
    and fields in FIELDS order, so a doc's entries sit together and
    `positions` finds them by bisection. `build_index` establishes the order
    and `save_index`/`load_index` keep it.
    """

    postings: dict[str, list[tuple[str, str, tuple[int, ...]]]]
    doc_count: int
    doc_ids: frozenset[str]

    @property
    def vocabulary(self) -> set[str]:
        return set(self.postings)

    @cached_property
    def sorted_vocabulary(self) -> list[str]:
        """The tokens in sorted order, computed on first use; postings must not change after."""
        return sorted(self.postings)

    def doc_postings(self, token: str, doc_id: str) -> list[tuple[str, str, tuple[int, ...]]]:
        """The token's (doc, field, positions) entries for one doc, in field order."""
        entries = self.postings.get(token, ())
        i = bisect_left(entries, doc_id, key=_DOC)
        return [e for e in entries[i:i + len(FIELDS)] if e[0] == doc_id]

    def positions(self, token: str, doc_id: str, field: str) -> tuple[int, ...]:
        for _, f, pos in self.doc_postings(token, doc_id):
            if f == field:
                return pos
        return ()

    def docs_with_token(self, token: str, fields) -> set[str]:
        return {d for d, f, _ in self.postings.get(token, ()) if f in fields}


@contextmanager
def _gc_paused():
    """Hold the cyclic collector off around bulk allocation of acyclic data.

    Restores the caller's prior setting, so a caller that runs with GC off
    keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def build_index(corpus: Corpus) -> PositionalIndex:
    """Index the title, abstract and keywords fields of every record.

    Docs are visited in id order and fields in FIELDS order, so each postings
    list grows in (doc, field) order and each position list in increasing
    order; neither needs a sort. The final entry tuples are created token by
    token in a second pass, which keeps each token's entries close together
    in memory for the scans of `docs_with_token`.
    """
    with _gc_paused():
        raw: dict[str, list[tuple[str, str, list[int]]]] = {}
        for doc in sorted(corpus.records):
            rec = corpus.records[doc]
            for fld in FIELDS:
                field_posns: dict[str, list[int]] = {}
                for tok, pos in field_token_stream(rec, fld):
                    posns = field_posns.get(tok)
                    if posns is None:
                        field_posns[tok] = [pos]
                    else:
                        posns.append(pos)
                for tok, posns in field_posns.items():
                    entries = raw.get(tok)
                    if entries is None:
                        raw[tok] = [(doc, fld, posns)]
                    else:
                        entries.append((doc, fld, posns))
        postings = {tok: [(d, f, tuple(p)) for d, f, p in raw[tok]]
                    for tok in sorted(raw)}
    return PositionalIndex(postings=postings, doc_count=len(corpus),
                           doc_ids=frozenset(corpus.records))


def wildcard_expand(pattern: str, index: PositionalIndex) -> set[str]:
    """Expand a terminal-wildcard pattern to all vocabulary tokens with the stem prefix."""
    if not pattern.endswith("*"):
        raise ValueError(f"wildcard pattern must end with '*': {pattern!r}")
    stem = pattern[:-1]
    if not stem:
        raise ValueError("unbounded wildcard")
    vocab = index.sorted_vocabulary
    lo = hi = bisect_left(vocab, stem)
    while hi < len(vocab) and vocab[hi].startswith(stem):
        hi += 1
    return set(vocab[lo:hi])


def save_index(index: PositionalIndex, sink: IO[str]) -> None:
    # One json.dumps call runs the C encoder (json.dump streams through the
    # pure-Python one); tuples encode as arrays, so postings go in as they are.
    doc = {
        "magic": INDEX_MAGIC,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "doc_ids": sorted(index.doc_ids),
        "postings": index.postings,
    }
    sink.write(json.dumps(doc, ensure_ascii=False, sort_keys=True))


def load_index(source: IO[str]) -> PositionalIndex:
    with _gc_paused():
        doc = json.load(source)
        if not isinstance(doc, dict) or doc.get("magic") != INDEX_MAGIC:
            raise ValueError("not an index file")
        if doc.get("version") != INDEX_VERSION:
            raise ValueError(f"unsupported index version: {doc.get('version')}")
        for key, kind in _INDEX_KEYS:
            if key not in doc:
                raise ValueError(f"index has no {key!r} key")
            if not isinstance(doc[key], kind):
                raise ValueError(f"index {key!r} is a {type(doc[key]).__name__}, "
                                 f"not a {kind.__name__}")
        try:
            postings = {
                tok: [(d, f, tuple(p)) for d, f, p in entries]
                for tok, entries in doc["postings"].items()
            }
            doc_ids = frozenset(doc["doc_ids"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"index entries are malformed: {exc}") from exc
    return PositionalIndex(postings=postings, doc_count=doc["doc_count"],
                           doc_ids=doc_ids)
