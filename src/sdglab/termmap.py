"""Contrast term maps: n-gram extraction, co-occurrence graph, layout, exports."""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass
from html import escape
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from .index import sorted_distinct, token_ids, words

DEFAULT_STOPLIST = frozenset("""
a an and are as at be but by for from has have in is it its of on or that the
their this to was were which with we our not no
""".split())

_BLUE = (0x21, 0x66, 0xAC)
_MID = (0xF7, 0xF7, 0xF7)
_RED = (0xB2, 0x18, 0x2B)


# The int settings of a term map and the least value each may take.
SETTING_MINIMUMS = {"min_occurrences": 1, "max_ngram": 1, "layout_seed": 0,
                    "layout_iterations": 0}


def check_setting(name: str, value):
    """`value`, if it is an int (not a bool) no less than SETTING_MINIMUMS[name];
    else ValueError."""
    low = SETTING_MINIMUMS[name]
    if not (type(value) is int and value >= low):
        raise ValueError(f"{name} must be an int >= {low}: {value!r}")
    return value


@dataclass(frozen=True)
class TermMapConfig:
    min_occurrences: int = 70
    max_ngram: int = 3
    stoplist: frozenset[str] = DEFAULT_STOPLIST
    layout_seed: int = 0
    layout_iterations: int = 150

    def __post_init__(self):
        for name in SETTING_MINIMUMS:
            check_setting(name, getattr(self, name))


@dataclass(frozen=True)
class TermStats:
    term: str
    occ_a: int
    occ_b: int

    @property
    def score(self) -> float:
        return contrast_score(self.occ_a, self.occ_b)

    @property
    def total(self) -> int:
        return self.occ_a + self.occ_b


@dataclass
class TermMap:
    name_a: str
    name_b: str
    terms: list[TermStats]
    edges: np.ndarray  # (m, 3) int64 rows (u, v, doc count), u < v places in terms
    coordinates: list[list[float]]  # [x, y] of each term, in term order
    config: TermMapConfig


def contrast_score(occ_a: int, occ_b: int) -> float:
    """Frequency contrast in [-1, +1]: negative leans to the first set,
    positive to the second, 0 balanced."""
    if occ_a == 0 and occ_b == 0:
        raise ValueError("term unobserved")
    return (occ_b - occ_a) / (occ_a + occ_b)


# Term-pair codes gathered before one bincount adds them to the edge counts.
_PAIR_CHUNK = 1 << 20


class _DocGrams:
    """The retained-candidate n-grams of each doc's title and abstract, as
    integer keys: the runs of 1..max_ngram tokens inside one text whose first
    and last tokens are not stopwords.

    Tokens get ids in order of first sight. A run of one token is keyed by
    its id; a run of n tokens by rank(key of its first n-1 tokens) * V + id
    of its last, with V the number of token ids and rank the place of a key
    among the distinct keys of its length, so keys stay below T * V for T
    tokens whatever max_ngram is. Level n holds `keys[n-1]`, the distinct
    keys of every n-token run inside one text, and `pairs[n-1]`, the
    distinct (gram rank * doc count + doc number) codes of the retained
    candidates, in increasing order. Distinct values come from a sort, not
    `np.unique`: numpy 2.4 finds them by hashing, which took about 15 times
    as long as the sort on 100k int64 values.
    """

    def __init__(self, docs: list, config: TermMapConfig):
        self.doc_count = len(docs)
        slot = token_ids()
        ids = array("i")
        lengths = []
        for d in docs:
            for text in (d.title, d.abstract):
                toks = words(text)
                lengths.append(len(toks))
                ids.extend(map(slot.__getitem__, toks))
        self.vocab, self.slot = list(slot), slot
        tok = np.frombuffer(ids, np.int32).astype(np.int64)
        del ids
        top = min(config.max_ngram, max(lengths, default=0))  # the longest run
        # Text number per token, padded with -1 so no run ends past the last text.
        text = np.concatenate([np.repeat(np.arange(len(lengths)), lengths),
                               np.full(top, -1)])
        kept = ~np.fromiter((t in config.stoplist for t in self.vocab), bool,
                            len(self.vocab))[tok]
        # Every id occurs, so the distinct one-token keys are 0..V-1 and a
        # token's rank is its id.
        self.keys = [np.arange(len(self.vocab))]
        self.pairs: list[np.ndarray] = []
        start, rank = np.arange(len(tok)), tok
        for n in range(1, top + 1):
            if n > 1:
                inside = text[start + (n - 1)] == text[start]
                start = start[inside]
                key = rank[inside] * len(self.vocab) + tok[start + (n - 1)]
                del rank, inside
                self.keys.append(sorted_distinct(np.sort(key)))
                rank = np.searchsorted(self.keys[-1], key)
                del key
            cand = kept[start] & kept[start + (n - 1)]
            self.pairs.append(sorted_distinct(np.sort(rank[cand] * self.doc_count
                                                    + (text[start[cand]] >> 1))))

    def tally(self, n_a: int, min_occurrences: int) -> list[TermStats]:
        """Document frequency of each gram in docs 0..n_a-1 and in the rest,
        for the grams whose two counts add up to min_occurrences or more."""
        found = []
        for n, pairs in enumerate(self.pairs, 1):
            gram, doc = np.divmod(pairs, self.doc_count)
            size = len(self.keys[n - 1])
            occ_a = np.bincount(gram[doc < n_a], minlength=size)
            occ_b = np.bincount(gram[doc >= n_a], minlength=size)
            kept = np.flatnonzero(occ_a + occ_b >= min_occurrences)
            found += zip(self._strings(n, kept), occ_a[kept].tolist(),
                         occ_b[kept].tolist())
        return [TermStats(term, a, b) for term, a, b in sorted(found)]

    def _strings(self, n: int, ranks: np.ndarray) -> list[str]:
        """The text of the level-n grams of the given ranks."""
        columns = []
        key = self.keys[n - 1][ranks]
        for level in range(n - 1, 0, -1):
            prefix, last = np.divmod(key, len(self.vocab))
            columns.append(last.tolist())
            key = self.keys[level - 1][prefix]
        columns.append(key.tolist())
        vocab = self.vocab
        return [" ".join(map(vocab.__getitem__, toks)) for toks in zip(*columns[::-1])]

    def _places(self, names: list[str]) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(n, ranks, places): the ranks of the level-n grams that `names`
        spell and the places of those names in `names`, for each level; a
        name that spells no run is left out."""
        by_level: list[list[tuple[int, list[int]]]] = [[] for _ in self.keys]
        for i, name in enumerate(names):
            toks = name.split(" ")
            if len(toks) <= len(self.keys) and all(t in self.slot for t in toks):
                by_level[len(toks) - 1].append((i, [self.slot[t] for t in toks]))
        found = []
        for n, group in enumerate(by_level, 1):
            if not group or not len(self.keys[n - 1]):
                continue
            places = np.array([i for i, _ in group])
            toks = np.array([t for _, t in group], np.int64)
            key, spelled = toks[:, 0], np.ones(len(group), bool)
            for level, distinct in enumerate(self.keys[:n], 1):
                rank = np.minimum(np.searchsorted(distinct, key), len(distinct) - 1)
                spelled &= distinct[rank] == key
                if level < n:
                    key = rank * len(self.vocab) + toks[:, level]
            found.append((n, rank[spelled], places[spelled]))
        return found

    def edges(self, names: list[str], mask: np.ndarray | None = None) -> np.ndarray:
        """An (m, 3) int64 array of rows (u, v, number of docs holding both)
        for each pair of places u < v in `names` whose names share a doc, in
        (u, v) order; `names` must be sorted and distinct. Counts over the
        docs where `mask` is set, or over all.

        With the (doc, name) pairs sorted, the names of a doc are one run,
        increasing; the entries k apart within a run give each pair u < v of
        the doc once, as the code u * len(names) + v, for k = 1, 2, ... until
        no run is longer than k. The codes are tallied by bincount, in
        integers; increasing codes are (u, v) order. BLAS is not used: its
        threads spin after a call and slow the layout that runs next."""
        docs, places = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for n, ranks, place_of_rank in self._places(names):
            name_of = np.full(len(self.keys[n - 1]), -1)
            name_of[ranks] = place_of_rank
            gram, doc = np.divmod(self.pairs[n - 1], self.doc_count)
            place = name_of[gram]
            held = place >= 0 if mask is None else (place >= 0) & mask[doc]
            docs.append(doc[held])
            places.append(place[held])
        size = len(names)
        doc, place = np.divmod(np.sort(np.concatenate(docs) * size
                                       + np.concatenate(places)), size)
        counts = np.zeros(size * size, np.int64)
        chunk: list[np.ndarray] = []
        k = 1
        while True:
            same = doc[k:] == doc[:-k]
            done = not same.any()
            if not done:
                chunk.append(place[:-k][same] * size + place[k:][same])
            if chunk and (done or sum(map(len, chunk)) >= _PAIR_CHUNK):
                counts += np.bincount(np.concatenate(chunk), minlength=len(counts))
                chunk = []
            if done:
                break
            k += 1
        codes = np.flatnonzero(counts)
        return np.column_stack((*np.divmod(codes, size), counts[codes]))


def extract_terms(docs_a: Iterable, docs_b: Iterable,
                  config: TermMapConfig) -> list[TermStats]:
    """Document-frequency tally of 1..max_ngram grams over titles+abstracts,
    retaining terms whose combined count reaches min_occurrences."""
    docs = list(docs_a)
    n_a = len(docs)
    docs += docs_b
    return _DocGrams(docs, config).tally(n_a, config.min_occurrences)


def cooccurrence_edges(terms: list[TermStats], docs: Iterable,
                       config: TermMapConfig) -> np.ndarray:
    """Edges weighted by the number of documents containing both terms: an
    (m, 3) int64 array of rows (u, v, doc count) in (u, v) order, u < v
    being places in sorted({t.term for t in terms}), which is `terms` itself
    when it comes from `extract_terms`."""
    return _DocGrams(list(docs), config).edges(sorted({t.term for t in terms}))


# The byte size of one (2, n, b) float64 temporary of the layout, which sets
# its block of b columns. One iteration at n = 2,954 on 2 vCPUs took 0.25 s at
# 1 MiB (b = 22), 0.22 s at 2 MiB (b = 44), 0.31 s at 8 MiB (b = 177), and
# 0.49 s unblocked, with each (2, n, n) temporary 140 MB.
_LAYOUT_BLOCK_BYTES = 2 << 20


def layout_map(edges: np.ndarray, terms: list[TermStats],
               config: TermMapConfig) -> list[list[float]]:
    """Seeded force-directed layout normalized to the unit square: the
    [x, y] of each term (none without terms), for edges of places in `terms`.

    Attraction along weighted edges, repulsion between all pairs, fixed
    iteration count; deterministic for a fixed layout_seed.
    """
    n = len(terms)
    if n == 0:
        return []
    rng = np.random.default_rng(config.layout_seed)
    pos = rng.random((n, 2))

    adj = np.zeros((n, n))
    u, v, w = edges.T
    # Weights are at least 1, so 1 divides only when there are no edges; they
    # are exact in float64, so each quotient is correctly rounded.
    adj[u, v] = adj[v, u] = w / w.max(initial=1)

    k = 1.0 / np.sqrt(n)
    temp = 0.1
    cooling = temp / (config.layout_iterations + 1)
    # Planar (2, n) coordinates, pair arrays indexed [coord, j, i] over a
    # block of columns i, with d[:, j, i] = pos[i] - pos[j]; adj is
    # symmetric. The floats are those of the (n, n, 2) form pos[:, None] -
    # pos[None, :] with np.linalg.norm: sqrt(dx*dx + dy*dy) is what norm
    # computes over a length-2 axis, and a sum over axis 1 of (2, n, b) adds
    # j row by row as it did over axis 1 of (n, n, 2). A sum over the
    # contiguous axis (pairwise) or one fused (repulse - attract) product
    # would change the last bits, and so would a block of one column, whose
    # j axis is contiguous: a last block of one joins the block before it.
    width = max(2, _LAYOUT_BLOCK_BYTES // (16 * n))
    bounds = list(range(0, n, width)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    p = pos.T.copy()
    disp = np.empty((2, n))
    for _ in range(config.layout_iterations):
        for lo, hi in zip(bounds, bounds[1:]):
            d = p[:, None, lo:hi] - p[:, :, None]
            dist = np.sqrt(d[0] * d[0] + d[1] * d[1])
            np.fill_diagonal(dist[lo:hi], 1.0)
            dist = np.maximum(dist, 1e-9)
            unit = d / dist
            repulse = (k * k / dist) * unit
            attract = (adj[:, lo:hi] * dist / k) * unit
            disp[:, lo:hi] = repulse.sum(axis=1) - attract.sum(axis=1)
        length = np.maximum(np.sqrt(disp[0] * disp[0] + disp[1] * disp[1]), 1e-9)
        p += disp / length * np.minimum(length, temp)
        temp = max(temp - cooling, 1e-4)
    pos = p.T

    lo, hi = pos.min(axis=0), pos.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    pos = (pos - lo) / span
    pos = np.where((hi - lo) > 1e-12, pos, 0.5)
    return pos.tolist()


def build_term_map(name_a: str, docs_a, name_b: str, docs_b,
                   config: TermMapConfig | None = None) -> TermMap:
    """`extract_terms` over both sets and `cooccurrence_edges` over their
    union, with each doc tokenized once. Equal records are one record in the
    union, so a doc on both sides counts once; records of two corpora that
    share an id are two."""
    config = config or TermMapConfig()
    docs = list(docs_a)
    n_a = len(docs)
    docs += docs_b
    grams = _DocGrams(docs, config)
    terms = grams.tally(n_a, config.min_occurrences)
    union = np.zeros(len(docs), bool)
    union[list({d: i for i, d in enumerate(docs)}.values())] = True
    edges = grams.edges([t.term for t in terms], union)
    coords = layout_map(edges, terms, config)
    return TermMap(name_a=name_a, name_b=name_b, terms=terms, edges=edges,
                   coordinates=coords, config=config)


def score_color(score: float) -> str:
    """Blue (-1) through neutral (0) to red (+1)."""
    if score < 0:
        lo, hi, t = _BLUE, _MID, score + 1.0
    else:
        lo, hi, t = _MID, _RED, score
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


# ---------------------------------------------------------------------------
# Exports


# Pieces joined into one write: about 4k nodes or edges.
_WRITE_BATCH = 4096


def write_term_map(term_map: TermMap, fmt: str, sink) -> None:
    """Write the map as text in `fmt`, one of TERMMAP_FORMATS, to `sink`,
    anything with a write(str) method, in batches of _WRITE_BATCH pieces."""
    if fmt not in _PIECES:
        raise ValueError(f"unknown format: {fmt!r}")
    pieces = _PIECES[fmt](term_map)
    while batch := list(islice(pieces, _WRITE_BATCH)):
        sink.write("".join(batch))


def export_term_map(term_map: TermMap, fmt: str) -> str:
    """The text `write_term_map` writes."""
    sink = io.StringIO()
    write_term_map(term_map, fmt, sink)
    return sink.getvalue()


def _edge_rows(edges: np.ndarray) -> Iterator[list[int]]:
    """The (u, v, w) rows of `edges` as lists of ints, converted a batch at a
    time rather than all at once."""
    for start in range(0, len(edges), _WRITE_BATCH):
        yield from edges[start:start + _WRITE_BATCH].tolist()


def _json_array(items: Iterator[str], indent: str) -> Iterator[str]:
    """The pieces of a JSON array of rendered items, laid out as
    json.dumps(indent=2) lays out an array whose key line starts with `indent`."""
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield f"[\n{indent}  " + first
    for item in items:
        yield f",\n{indent}  " + item
    yield f"\n{indent}]"


def _json_pieces(term_map: TermMap) -> Iterator[str]:
    """The pieces of the text json.dumps(doc, indent=2, sort_keys=True) + "\n"
    gives for the map's document (keys in sorted order), written directly:
    strings go through json's ASCII string encoder and floats through
    json.dumps."""
    quote, config = encode_basestring_ascii, term_map.config
    names = [quote(t.term) for t in term_map.terms]
    terms = (f'{{\n      "occ_a": {t.occ_a},\n      "occ_b": {t.occ_b},\n'
             f'      "score": {json.dumps(t.score)},\n      "term": {name},\n'
             f'      "x": {json.dumps(x)},\n      "y": {json.dumps(y)}\n    }}'
             for t, name, (x, y) in zip(term_map.terms, names, term_map.coordinates))
    edges = (f'{{\n      "source": {names[u]},\n      "target": {names[v]},\n'
             f'      "weight": {w}\n    }}' for u, v, w in _edge_rows(term_map.edges))
    yield ("{\n"
           '  "config": {\n'
           f'    "layout_iterations": {config.layout_iterations},\n'
           f'    "layout_seed": {config.layout_seed},\n'
           f'    "max_ngram": {config.max_ngram},\n'
           f'    "min_occurrences": {config.min_occurrences},\n'
           '    "stoplist": ')
    yield from _json_array(map(quote, sorted(config.stoplist)), "    ")
    yield '\n  },\n  "edges": '
    yield from _json_array(edges, "  ")
    yield (f',\n  "name_a": {quote(term_map.name_a)},\n'
           f'  "name_b": {quote(term_map.name_b)},\n'
           '  "terms": ')
    yield from _json_array(terms, "  ")
    yield "\n}\n"


_GRAPHML_KEYS = (("occ_a", "node", "int"), ("occ_b", "node", "int"),
                 ("score", "node", "double"), ("x", "node", "double"),
                 ("y", "node", "double"), ("weight", "edge", "int"))


def _xml_attr(text: str) -> str:
    """An attribute value escaped as xml.etree.ElementTree escapes it."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _graphml_pieces(term_map: TermMap) -> Iterator[str]:
    """The pieces of GraphML text, character for character as
    xml.etree.ElementTree writes the same tree after ET.indent (declaration,
    two-space indent, " />" on empty elements, attributes in insertion
    order)."""
    yield ("<?xml version='1.0' encoding='utf-8'?>\n"
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    for key, target, kind in _GRAPHML_KEYS:
        yield f'  <key attr.name="{key}" attr.type="{kind}" for="{target}" id="{key}" />\n'
    graph = '  <graph id="termmap" edgedefault="undirected"'
    if not term_map.terms:
        yield graph + " />\n"
    else:
        yield graph + ">\n"
        names = [_xml_attr(t.term) for t in term_map.terms]
        for t, name, (x, y) in zip(term_map.terms, names, term_map.coordinates):
            yield (f'    <node id="{name}">\n'
                   f'      <data key="occ_a">{t.occ_a}</data>\n'
                   f'      <data key="occ_b">{t.occ_b}</data>\n'
                   f'      <data key="score">{t.score!r}</data>\n'
                   f'      <data key="x">{x!r}</data>\n'
                   f'      <data key="y">{y!r}</data>\n'
                   "    </node>\n")
        for i, (u, v, w) in enumerate(_edge_rows(term_map.edges)):
            yield (f'    <edge id="e{i}" source="{names[u]}" target="{names[v]}">\n'
                   f'      <data key="weight">{w}</data>\n'
                   "    </edge>\n")
        yield "  </graph>\n"
    yield "</graphml>\n"


def _html_pieces(term_map: TermMap) -> Iterator[str]:
    """Single self-contained HTML page: bubbles sized by combined count,
    colored blue (first set) to red (second set)."""
    name_a, name_b = (escape(name, quote=False) for name in (term_map.name_a, term_map.name_b))
    width, height = 900, 640
    max_total = max((t.total for t in term_map.terms), default=1)
    yield f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Term map: {name_a} vs {name_b}</title>
<style>body {{ font-family: sans-serif; margin: 1em; }}</style>
</head>
<body>
<h1>{name_a} (blue) vs {name_b} (red)</h1>
<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">
"""
    bubbles = sorted(zip(term_map.terms, term_map.coordinates), key=lambda tc: -tc[0].total)
    for i, (t, (x, y)) in enumerate(bubbles):
        cx = 40 + x * (width - 80)
        cy = 40 + y * (height - 80)
        r = 6 + 24 * (t.total / max_total) ** 0.5
        color = score_color(t.score)
        yield (("\n" if i else "") +
               f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:.1f}" fill="{color}" '
               f'fill-opacity="0.85"><title>{t.term}: {t.occ_a} vs {t.occ_b} '
               f'(score {t.score:+.2f})</title></circle>\n'
               f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
               f'font-size="10" font-family="sans-serif">{t.term}</text>')
    yield "\n</svg>\n</body>\n</html>\n"


# Each term-map format and the pieces of its text, in the order they are written.
_PIECES = {"json": _json_pieces, "graphml": _graphml_pieces, "html": _html_pieces}
TERMMAP_FORMATS = tuple(_PIECES)
