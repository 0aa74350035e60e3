"""Contrast term maps: n-gram extraction, co-occurrence graph, layout, exports."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .index import tokenize

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
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
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
    edges: list[tuple[str, str, int]]
    coordinates: dict[str, tuple[float, float]]
    config: TermMapConfig


def contrast_score(occ_a: int, occ_b: int) -> float:
    """Frequency contrast in [-1, +1]: negative leans to the first set,
    positive to the second, 0 balanced."""
    if occ_a == 0 and occ_b == 0:
        raise ValueError("term unobserved")
    return (occ_b - occ_a) / (occ_a + occ_b)


def _doc_ngrams(record, config: TermMapConfig) -> set[str]:
    """All retained-candidate n-grams of a record's title and abstract: the
    runs of 1..max_ngram tokens whose first and last tokens are not stopwords."""
    grams: set[str] = set()
    for text in (record.title, record.abstract):
        tokens = [tok for tok, _ in tokenize(text)]
        kept = [tok not in config.stoplist for tok in tokens]
        starts = [i for i, keep in enumerate(kept) if keep]
        grams.update([tokens[i] for i in starts])
        for n in range(2, min(config.max_ngram, len(tokens)) + 1):
            last = len(tokens) - n
            grams.update([" ".join(tokens[i:i + n]) for i in starts
                          if i <= last and kept[i + n - 1]])
    return grams


def _tally_terms(gram_sets_a: Iterable[Iterable[str]],
                 gram_sets_b: Iterable[Iterable[str]],
                 config: TermMapConfig) -> list[TermStats]:
    occ_a = Counter(chain.from_iterable(gram_sets_a))
    occ_b = Counter(chain.from_iterable(gram_sets_b))
    total = occ_a.copy()
    total.update(occ_b)
    retained = sorted(term for term, count in total.items()
                      if count >= config.min_occurrences)
    return [TermStats(term=term, occ_a=occ_a[term], occ_b=occ_b[term])
            for term in retained]


def _count_edges(terms: list[TermStats],
                 gram_sets: Iterable[Iterable[str]]) -> list[tuple[str, str, int]]:
    retained = {t.term for t in terms}
    weights = Counter(chain.from_iterable(
        combinations(sorted(retained.intersection(grams)), 2)
        for grams in gram_sets))
    return [(u, v, w) for (u, v), w in sorted(weights.items())]


def extract_terms(docs_a: Iterable, docs_b: Iterable,
                  config: TermMapConfig) -> list[TermStats]:
    """Document-frequency tally of 1..max_ngram grams over titles+abstracts,
    retaining terms whose combined count reaches min_occurrences."""
    return _tally_terms((_doc_ngrams(d, config) for d in docs_a),
                        (_doc_ngrams(d, config) for d in docs_b), config)


def cooccurrence_edges(terms: list[TermStats], docs: Iterable,
                       config: TermMapConfig) -> list[tuple[str, str, int]]:
    """Edges weighted by the number of documents containing both terms."""
    return _count_edges(terms, (_doc_ngrams(d, config) for d in docs))


def layout_map(edges: list[tuple[str, str, int]], terms: list[TermStats],
               config: TermMapConfig) -> dict[str, tuple[float, float]]:
    """Seeded force-directed layout normalized to the unit square.

    Attraction along weighted edges, repulsion between all pairs, fixed
    iteration count; deterministic for a fixed layout_seed.
    """
    names = [t.term for t in terms]
    n = len(names)
    if n == 0:
        raise ValueError("layout needs at least one term")
    if n == 1:
        return {names[0]: (0.5, 0.5)}
    idx = {name: i for i, name in enumerate(names)}
    rng = np.random.default_rng(config.layout_seed)
    pos = rng.random((n, 2))

    adj = np.zeros((n, n))
    max_w = max((w for _, _, w in edges), default=1)
    for u, v, w in edges:
        if u in idx and v in idx:
            adj[idx[u], idx[v]] = adj[idx[v], idx[u]] = w / max_w

    k = 1.0 / np.sqrt(n)
    temp = 0.1
    cooling = temp / (config.layout_iterations + 1)
    # Planar (2, n) coordinates, pair arrays indexed [coord, j, i] with
    # d[:, j, i] = pos[i] - pos[j]; adj is symmetric. The floats are those
    # of the (n, n, 2) form pos[:, None] - pos[None, :] with np.linalg.norm:
    # sqrt(dx*dx + dy*dy) is what norm computes over a length-2 axis, and a
    # sum over axis 1 of (2, n, n) adds j row by row as it did over axis 1 of
    # (n, n, 2). A sum over the contiguous axis (pairwise) or one fused
    # (repulse - attract) product would change the last bits.
    p = pos.T.copy()
    for _ in range(config.layout_iterations):
        d = p[:, None, :] - p[:, :, None]
        dist = np.sqrt(d[0] * d[0] + d[1] * d[1])
        np.fill_diagonal(dist, 1.0)
        dist = np.maximum(dist, 1e-9)
        unit = d / dist
        repulse = (k * k / dist) * unit
        attract = (adj * dist / k) * unit
        disp = repulse.sum(axis=1) - attract.sum(axis=1)
        length = np.maximum(np.sqrt(disp[0] * disp[0] + disp[1] * disp[1]), 1e-9)
        p += disp / length * np.minimum(length, temp)
        temp = max(temp - cooling, 1e-4)
    pos = p.T

    lo, hi = pos.min(axis=0), pos.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    pos = (pos - lo) / span
    pos = np.where((hi - lo) > 1e-12, pos, 0.5)
    return {name: (float(x), float(y)) for name, (x, y) in zip(names, pos)}


def build_term_map(name_a: str, docs_a, name_b: str, docs_b,
                   config: TermMapConfig | None = None) -> TermMap:
    """`extract_terms` over both sets and `cooccurrence_edges` over their
    union by internal_id (a later doc replaces an earlier one with its id),
    with each doc's n-grams extracted once.

    A doc's grams are kept as a tuple whose strings are shared across docs
    through `canon`; per-doc sets of private strings take more memory.
    """
    config = config or TermMapConfig()
    docs = list(docs_a)
    n_a = len(docs)
    docs += docs_b
    canon: dict[str, str] = {}
    gram_sets = [tuple(canon.setdefault(g, g) for g in _doc_ngrams(d, config))
                 for d in docs]
    terms = _tally_terms(gram_sets[:n_a], gram_sets[n_a:], config)
    combined = {d.internal_id: grams for d, grams in zip(docs, gram_sets)}
    edges = _count_edges(terms, combined.values())
    coords = layout_map(edges, terms, config) if terms else {}
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


def export_term_map(term_map: TermMap, fmt: str) -> str:
    if fmt == "json":
        return _export_json(term_map)
    if fmt == "graphml":
        return _export_graphml(term_map)
    if fmt == "html":
        return _export_html(term_map)
    raise ValueError(f"unknown format: {fmt!r}")


def _export_json(term_map: TermMap) -> str:
    doc = {
        "name_a": term_map.name_a,
        "name_b": term_map.name_b,
        "config": {
            "min_occurrences": term_map.config.min_occurrences,
            "max_ngram": term_map.config.max_ngram,
            "stoplist": sorted(term_map.config.stoplist),
            "layout_seed": term_map.config.layout_seed,
            "layout_iterations": term_map.config.layout_iterations,
        },
        "terms": [
            {"term": t.term, "occ_a": t.occ_a, "occ_b": t.occ_b,
             "score": t.score,
             "x": term_map.coordinates[t.term][0],
             "y": term_map.coordinates[t.term][1]}
            for t in term_map.terms
        ],
        "edges": [{"source": u, "target": v, "weight": w}
                  for u, v, w in term_map.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_term_map(text: str) -> TermMap:
    doc = json.loads(text)
    cfg = doc["config"]
    config = TermMapConfig(
        min_occurrences=cfg["min_occurrences"],
        max_ngram=cfg["max_ngram"],
        stoplist=frozenset(cfg["stoplist"]),
        layout_seed=cfg["layout_seed"],
        layout_iterations=cfg["layout_iterations"],
    )
    terms = [TermStats(term=t["term"], occ_a=t["occ_a"], occ_b=t["occ_b"])
             for t in doc["terms"]]
    coords = {t["term"]: (t["x"], t["y"]) for t in doc["terms"]}
    edges = [(e["source"], e["target"], e["weight"]) for e in doc["edges"]]
    return TermMap(name_a=doc["name_a"], name_b=doc["name_b"], terms=terms,
                   edges=edges, coordinates=coords, config=config)


_GRAPHML_KEYS = (("occ_a", "node", "int"), ("occ_b", "node", "int"),
                 ("score", "node", "double"), ("x", "node", "double"),
                 ("y", "node", "double"), ("weight", "edge", "int"))


def _xml_attr(text: str) -> str:
    """An attribute value escaped as xml.etree.ElementTree escapes it."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _export_graphml(term_map: TermMap) -> str:
    """GraphML text, character for character as xml.etree.ElementTree writes
    the same tree after ET.indent (declaration, two-space indent, " />" on
    empty elements, attributes in insertion order)."""
    lines = ["<?xml version='1.0' encoding='utf-8'?>",
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
    lines += [f'  <key attr.name="{key}" attr.type="{kind}" for="{target}" id="{key}" />'
              for key, target, kind in _GRAPHML_KEYS]
    graph = '  <graph id="termmap" edgedefault="undirected"'
    if not (term_map.terms or term_map.edges):
        lines.append(graph + " />")
    else:
        lines.append(graph + ">")
        for t in term_map.terms:
            x, y = term_map.coordinates[t.term]
            lines += [f'    <node id="{_xml_attr(t.term)}">',
                      f'      <data key="occ_a">{t.occ_a}</data>',
                      f'      <data key="occ_b">{t.occ_b}</data>',
                      f'      <data key="score">{t.score!r}</data>',
                      f'      <data key="x">{x!r}</data>',
                      f'      <data key="y">{y!r}</data>',
                      "    </node>"]
        for i, (u, v, w) in enumerate(term_map.edges):
            lines += [f'    <edge id="e{i}" source="{_xml_attr(u)}" target="{_xml_attr(v)}">',
                      f'      <data key="weight">{w}</data>',
                      "    </edge>"]
        lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _export_html(term_map: TermMap) -> str:
    """Single self-contained HTML page: bubbles sized by combined count,
    colored blue (first set) to red (second set)."""
    width, height = 900, 640
    max_total = max((t.total for t in term_map.terms), default=1)
    bubbles = []
    for t in sorted(term_map.terms, key=lambda t: -t.total):
        x, y = term_map.coordinates[t.term]
        cx = 40 + x * (width - 80)
        cy = 40 + y * (height - 80)
        r = 6 + 24 * (t.total / max_total) ** 0.5
        color = score_color(t.score)
        bubbles.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:.1f}" fill="{color}" '
            f'fill-opacity="0.85"><title>{t.term}: {t.occ_a} vs {t.occ_b} '
            f'(score {t.score:+.2f})</title></circle>\n'
            f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{t.term}</text>')
    return f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Term map: {term_map.name_a} vs {term_map.name_b}</title>
<style>body {{ font-family: sans-serif; margin: 1em; }}</style>
</head>
<body>
<h1>{term_map.name_a} (blue) vs {term_map.name_b} (red)</h1>
<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">
{chr(10).join(bubbles)}
</svg>
</body>
</html>
"""
