"""Tokenization and positional inverted index over title/abstract/keywords fields."""

from __future__ import annotations

import json
import re
from bisect import bisect_left
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


def build_index(corpus: Corpus) -> PositionalIndex:
    """Index the title, abstract and keywords fields of every record."""
    raw: dict[str, dict[tuple[str, str], list[int]]] = {}
    for rec in corpus:
        for fld in FIELDS:
            for tok, pos in field_token_stream(rec, fld):
                raw.setdefault(tok, {}).setdefault((rec.internal_id, fld), []).append(pos)
    postings: dict[str, list[tuple[str, str, tuple[int, ...]]]] = {}
    for tok in sorted(raw):
        entries = [(doc, fld, tuple(sorted(posns)))
                   for (doc, fld), posns in raw[tok].items()]
        entries.sort(key=lambda e: (e[0], FIELDS.index(e[1])))
        postings[tok] = entries
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
    doc = {
        "magic": INDEX_MAGIC,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "doc_ids": sorted(index.doc_ids),
        "postings": {
            tok: [[d, f, list(p)] for d, f, p in entries]
            for tok, entries in index.postings.items()
        },
    }
    json.dump(doc, sink, ensure_ascii=False, sort_keys=True)


def load_index(source: IO[str]) -> PositionalIndex:
    doc = json.load(source)
    if doc.get("magic") != INDEX_MAGIC:
        raise ValueError("not an index file")
    if doc.get("version") != INDEX_VERSION:
        raise ValueError(f"unsupported index version: {doc.get('version')}")
    postings = {
        tok: [(d, f, tuple(p)) for d, f, p in entries]
        for tok, entries in doc["postings"].items()
    }
    return PositionalIndex(postings=postings, doc_count=doc["doc_count"],
                           doc_ids=frozenset(doc["doc_ids"]))
