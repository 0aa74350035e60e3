import json
import math
import random
from html import escape
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from itertools import chain, combinations

import numpy as np
import pytest

from sdglab import index_corpus, ingest, load_strategy, run_strategy
from sdglab.corpus import PublicationRecord
from sdglab.index import tokenize
from sdglab import termmap
from sdglab.termmap import (DEFAULT_STOPLIST, TermMap, TermMapConfig, TermStats,
                            build_term_map, contrast_score, cooccurrence_edges,
                            export_term_map, extract_terms, layout_map, score_color,
                            write_term_map)


def doc(rid, title, abstract=""):
    return PublicationRecord(rid, title, 2016, abstract=abstract)


def repeated_docs(text, n, prefix):
    return [doc(f"{prefix}{i}", text) for i in range(n)]


def edge_rows(rows):
    """(u, v, w) rows of term places as a TermMap's (m, 3) int64 edge array."""
    return np.array(rows, np.int64).reshape(-1, 3)


def named(edges, names):
    """Edge rows of places in `names` as (name, name, weight) triples."""
    return [(names[u], names[v], w) for u, v, w in edges.tolist()]


def term_names(terms):
    return [t.term for t in terms]


def demo_member_docs(demo_dir):
    """The records of the demo's alpha and gamma results, in id order."""
    docs = []
    for strategy, corpus_file in (("alpha", "corpus_x.jsonl"), ("gamma", "corpus_y.jsonl")):
        corpus = ingest(demo_dir / corpus_file)
        result = run_strategy(load_strategy(demo_dir / f"{strategy}.json"),
                              index_corpus(corpus), corpus)
        docs.append([corpus[m] for m in sorted(result.members)])
    return docs


class TestContrastScore:
    def test_balanced(self):
        assert contrast_score(100, 100) == 0.0

    def test_one_sided_extremes(self):
        assert contrast_score(70, 0) == -1.0
        assert contrast_score(0, 70) == 1.0

    def test_formula(self):
        assert contrast_score(30, 90) == 0.5

    def test_unobserved_errors(self):
        with pytest.raises(ValueError, match="unobserved"):
            contrast_score(0, 0)

    def test_bounded(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = rng.randint(0, 500), rng.randint(0, 500)
            if a + b == 0:
                continue
            assert -1.0 <= contrast_score(a, b) <= 1.0


class TestExtractTerms:
    def config(self, min_occ):
        return TermMapConfig(min_occurrences=min_occ, stoplist=frozenset({"the"}))

    def test_retention_boundary(self):
        docs_69 = repeated_docs("solarwind", 69, "a")
        terms = extract_terms(docs_69, [], self.config(70))
        assert terms == []
        docs_70 = repeated_docs("solarwind", 70, "a")
        terms = extract_terms(docs_70, [], self.config(70))
        assert [t.term for t in terms] == ["solarwind"]

    def test_empty_sets(self):
        assert extract_terms([], [], self.config(1)) == []

    def test_stoplist_boundary_ngrams_excluded(self):
        docs = repeated_docs("the climate problem", 5, "a")
        terms = {t.term for t in extract_terms(docs, [], self.config(5))}
        assert "climate problem" in terms
        assert "the climate" not in terms
        assert "the climate problem" not in terms
        assert "the" not in terms

    def test_document_frequency_not_raw_frequency(self):
        docs = [doc("a", "climate", "climate climate climate climate")]
        terms = extract_terms(docs, [], self.config(1))
        stats = {t.term: t for t in terms}
        assert stats["climate"].occ_a == 1

    def test_counts_match_exhaustive_tally_oracle(self):
        rng = random.Random(21)
        words = ["climate", "carbon", "energy", "ocean", "risk", "trend"]
        docs_a = [doc(f"a{i}", " ".join(rng.choices(words, k=6)),
                      " ".join(rng.choices(words, k=12))) for i in range(50)]
        docs_b = [doc(f"b{i}", " ".join(rng.choices(words, k=6)),
                      " ".join(rng.choices(words, k=12))) for i in range(50)]
        config = TermMapConfig(min_occurrences=5, stoplist=frozenset())
        terms = extract_terms(docs_a, docs_b, config)

        def tally(docs):
            out = {}
            for d in docs:
                grams = set()
                for text in (d.title, d.abstract):
                    toks = text.split()
                    for n in (1, 2, 3):
                        for i in range(len(toks) - n + 1):
                            grams.add(" ".join(toks[i:i + n]))
                for g in grams:
                    out[g] = out.get(g, 0) + 1
            return out

        ta, tb = tally(docs_a), tally(docs_b)
        expected = {g: (ta.get(g, 0), tb.get(g, 0))
                    for g in set(ta) | set(tb)
                    if ta.get(g, 0) + tb.get(g, 0) >= 5}
        assert {t.term: (t.occ_a, t.occ_b) for t in terms} == expected

    def test_antisymmetry_under_swap(self):
        rng = random.Random(22)
        words = ["climate", "carbon", "energy"]
        docs_a = [doc(f"a{i}", " ".join(rng.choices(words, k=5)))
                  for i in range(20)]
        docs_b = [doc(f"b{i}", " ".join(rng.choices(words, k=5)))
                  for i in range(25)]
        config = TermMapConfig(min_occurrences=3, stoplist=frozenset())
        fwd = {t.term: t.score for t in extract_terms(docs_a, docs_b, config)}
        rev = {t.term: t.score for t in extract_terms(docs_b, docs_a, config)}
        assert set(fwd) == set(rev)
        for term in fwd:
            assert fwd[term] == pytest.approx(-rev[term])

    def test_retention_monotone_in_threshold(self):
        docs = repeated_docs("climate carbon", 10, "a")
        lo = {t.term for t in extract_terms(
            docs, [], TermMapConfig(min_occurrences=5, stoplist=frozenset()))}
        hi = {t.term for t in extract_terms(
            docs, [], TermMapConfig(min_occurrences=11, stoplist=frozenset()))}
        assert hi <= lo

    def test_extreme_score_iff_one_sided(self):
        docs_a = repeated_docs("onlyhere", 5, "a")
        docs_b = repeated_docs("onlythere", 5, "b")
        config = TermMapConfig(min_occurrences=1, stoplist=frozenset())
        for t in extract_terms(docs_a, docs_b, config):
            assert (abs(t.score) == 1.0) == (t.occ_a == 0 or t.occ_b == 0)


class TestCooccurrence:
    def test_shared_document_weight(self):
        docs = repeated_docs("climate carbon", 3, "a")
        config = TermMapConfig(min_occurrences=1, stoplist=frozenset())
        terms = extract_terms(docs, [], config)
        edges = cooccurrence_edges(terms, docs, config)
        weights = {(u, v): w for u, v, w in named(edges, term_names(terms))}
        assert weights[("carbon", "climate")] == 3

    def test_never_cooccurring_no_edge(self):
        docs = [doc("a", "climate"), doc("b", "carbon")]
        config = TermMapConfig(min_occurrences=1, stoplist=frozenset())
        terms = extract_terms(docs, [], config)
        edges = cooccurrence_edges(terms, docs, config)
        assert edges.shape == (0, 3) and edges.dtype == np.int64

    def test_matches_pairwise_intersection_oracle(self):
        rng = random.Random(23)
        words = ["climate", "carbon", "energy", "ocean"]
        docs = [doc(f"a{i}", " ".join(rng.choices(words, k=3)))
                for i in range(30)]
        config = TermMapConfig(min_occurrences=2, max_ngram=1,
                               stoplist=frozenset())
        terms = extract_terms(docs, [], config)
        edges = cooccurrence_edges(terms, docs, config)
        docsets = {t.term: {d.internal_id for d in docs
                            if t.term in d.title.split()} for t in terms}
        names = sorted(docsets)
        expected = {}
        for i, u in enumerate(names):
            for v in names[i + 1:]:
                w = len(docsets[u] & docsets[v])
                if w:
                    expected[(u, v)] = w
        assert {(u, v): w for u, v, w in named(edges, term_names(terms))} == expected

    def test_edges_are_place_rows_in_order(self):
        docs = random_ngram_docs(8, 150)
        config = TermMapConfig(min_occurrences=2, max_ngram=2)
        terms = extract_terms(docs, [], config)
        edges = cooccurrence_edges(terms, docs, config)
        assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 3
        u, v, w = edges.T
        assert len(edges) > 10 and (0 <= u).all() and (u < v).all()
        assert (v < len(terms)).all() and (w >= 1).all()
        assert edges.tolist() == sorted(edges.tolist())


class TestBuildTermMap:
    @staticmethod
    def random_docs(rng, ids):
        words = ["climate", "carbon", "energy", "ocean", "policy", "the", "of"]

        def text():
            return " ".join(rng.choices(words, k=rng.randint(0, 8)))
        return [doc(rid, text(), text()) for rid in ids]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_extract_terms_and_cooccurrence_over_union(self, seed):
        rng = random.Random(seed)
        # ids a20..a39 appear on both sides, and a5 twice on side a, each
        # time with its own text: the union holds every distinct record.
        docs_a = self.random_docs(rng, [f"a{i}" for i in range(40)] + ["a5"])
        docs_b = self.random_docs(rng, [f"a{i}" for i in range(20, 60)])
        config = TermMapConfig(min_occurrences=3, max_ngram=1 + seed % 3,
                               stoplist=frozenset({"the", "of"}))
        for side_a, side_b in ((docs_a, docs_b), (docs_a, []), ([], docs_b)):
            term_map = build_term_map("a", side_a, "b", side_b, config)
            terms = extract_terms(side_a, side_b, config)
            combined = dict.fromkeys(side_a + side_b)
            assert terms
            assert term_map.terms == terms
            edges = cooccurrence_edges(terms, combined, config)
            assert term_map.edges.dtype == edges.dtype == np.int64
            assert np.array_equal(term_map.edges, edges)

    @pytest.mark.parametrize("ids_b", [("1", "2"), ("b1", "b2")])
    def test_edges_count_records_not_ids(self, ids_b):
        # Two corpora may share ids: side b's "1" and "2" are other records
        # than side a's, and a record on both sides counts once.
        docs_a = [doc("1", "ocean warming"), doc("2", "ocean warming")]
        docs_b = [doc(rid, "coral reef") for rid in ids_b]
        config = TermMapConfig(min_occurrences=1, max_ngram=1, stoplist=frozenset())
        for side_b in (docs_b, docs_b + docs_a):
            term_map = build_term_map("a", docs_a, "b", side_b, config)
            weights = {(u, v): w for u, v, w in named(term_map.edges,
                                                      term_names(term_map.terms))}
            assert weights == {("coral", "reef"): 2, ("ocean", "warming"): 2}

    def test_both_sides_empty(self):
        term_map = build_term_map("a", [], "b", [], TermMapConfig())
        assert (term_map.terms, term_map.coordinates) == ([], [])
        assert term_map.edges.shape == (0, 3)

    @pytest.mark.parametrize("min_occurrences", [5, 10**6], ids=["demo", "no-terms"])
    def test_stage_by_stage_exports_equal(self, demo_dir, min_occurrences):
        # the composition perfbench/measure.py times: extract_terms, then
        # cooccurrence_edges over the union by id, then layout_map or {} when
        # no term is kept, on the members of the demo's alpha and gamma
        docs_a, docs_b = demo_member_docs(demo_dir)
        config = TermMapConfig(min_occurrences=min_occurrences, layout_seed=11)
        terms = extract_terms(docs_a, docs_b, config)
        combined = {d.internal_id: d for d in docs_a + docs_b}
        edges = cooccurrence_edges(terms, combined.values(), config)
        coords = layout_map(edges, terms, config) if terms else {}
        staged = TermMap(name_a="alpha", name_b="gamma", terms=terms, edges=edges,
                         coordinates=coords, config=config)
        built = build_term_map("alpha", docs_a, "gamma", docs_b, config)
        assert bool(terms) == (min_occurrences == 5)
        for fmt in ("json", "graphml", "html"):
            assert export_term_map(staged, fmt) == export_term_map(built, fmt)


class TestLayout:
    def test_single_term_centered(self):
        terms = [TermStats("solo", 3, 2)]
        for iterations in (0, 1, 150):
            coords = layout_map(edge_rows([]), terms,
                                TermMapConfig(min_occurrences=1,
                                              layout_iterations=iterations))
            assert coords == [[0.5, 0.5]]

    def test_deterministic(self):
        terms = [TermStats(f"t{i}", i + 1, 1) for i in range(8)]
        edges = edge_rows([(i, i + 1, 2) for i in range(7)])
        config = TermMapConfig(min_occurrences=1, layout_seed=9)
        assert layout_map(edges, terms, config) == \
            layout_map(edges, terms, config)

    def test_unit_square(self):
        terms = [TermStats(f"t{i}", 1, 1) for i in range(12)]
        coords = layout_map(edge_rows([]), terms, TermMapConfig(min_occurrences=1))
        assert len(coords) == len(terms)
        for x, y in coords:
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            assert math.isfinite(x) and math.isfinite(y)

    def test_cliques_separate(self):
        names_a = [f"a{i}" for i in range(5)]
        names_b = [f"b{i}" for i in range(5)]
        names = names_a + names_b
        terms = [TermStats(n, 2, 2) for n in names]
        edges = [(u, v, 10) for group in (range(5), range(5, 10))
                 for u, v in combinations(group, 2)]
        edges.append((0, 5, 1))
        config = TermMapConfig(min_occurrences=1, layout_seed=2,
                               layout_iterations=300)
        coords = dict(zip(names, layout_map(edge_rows(edges), terms, config)))

        def dist(u, v):
            (x1, y1), (x2, y2) = coords[u], coords[v]
            return math.hypot(x1 - x2, y1 - y2)

        intra = [dist(u, v) for group in (names_a, names_b)
                 for i, u in enumerate(group) for v in group[i + 1:]]
        inter = [dist(u, v) for u in names_a for v in names_b]
        assert sum(intra) / len(intra) < sum(inter) / len(inter)


def sample_map():
    docs_a = repeated_docs("climate carbon", 6, "a")
    docs_b = repeated_docs("carbon energy", 6, "b")
    config = TermMapConfig(min_occurrences=3, stoplist=frozenset(),
                           layout_seed=4)
    return build_term_map("first", docs_a, "second", docs_b, config)


class TestExports:
    def test_json_round_trip_byte_identical(self):
        term_map = sample_map()
        text = export_term_map(term_map, "json")
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
        config = term_map.config
        assert doc["config"] == {
            "min_occurrences": config.min_occurrences, "max_ngram": config.max_ngram,
            "stoplist": sorted(config.stoplist), "layout_seed": config.layout_seed,
            "layout_iterations": config.layout_iterations}
        assert (doc["name_a"], doc["name_b"]) == (term_map.name_a, term_map.name_b)
        assert [(t["term"], t["occ_a"], t["occ_b"], t["score"], [t["x"], t["y"]])
                for t in doc["terms"]] == \
            [(t.term, t.occ_a, t.occ_b, t.score, xy)
             for t, xy in zip(term_map.terms, term_map.coordinates)]
        assert [(e["source"], e["target"], e["weight"]) for e in doc["edges"]] == \
            named(term_map.edges, term_names(term_map.terms))

    def test_graphml_node_count(self):
        term_map = sample_map()
        xml = export_term_map(term_map, "graphml")
        assert xml.count("<node ") == len(term_map.terms)
        assert 'attr.name="score"' in xml

    def test_html_blue_extreme_bubble(self):
        docs_a = repeated_docs("exclusive", 4, "a")
        config = TermMapConfig(min_occurrences=1, stoplist=frozenset())
        term_map = build_term_map("first", docs_a, "second", [], config)
        assert [t.score for t in term_map.terms] == [-1.0]
        html = export_term_map(term_map, "html")
        assert score_color(-1.0) in html
        assert html.count("<circle") == 1

    def test_html_self_contained(self):
        html = export_term_map(sample_map(), "html")
        assert "http" not in html.split("xmlns")[0]  # no external fetches
        assert "<script src" not in html

    def test_html_names_escaped(self):
        html = export_term_map(replace(sample_map(), name_a="R&D", name_b="<b>"), "html")
        assert "<title>Term map: R&amp;D vs &lt;b&gt;</title>" in html
        assert "<h1>R&amp;D (blue) vs &lt;b&gt; (red)</h1>" in html

    def test_score_color_scale(self):
        assert score_color(-1.0) == "#2166ac"
        assert score_color(1.0) == "#b2182b"
        assert score_color(0.0) == "#f7f7f7"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_term_map(sample_map(), "pdf")


# ---------------------------------------------------------------------------
# Reference implementations: the (n, n, 2) layout with np.linalg.norm, the
# n-gram loop that joins every candidate, the tally that sorts every gram, the
# edge count over pairs of sorted gram strings, the ElementTree GraphML writer
# and json.dumps of the map's document. The module's versions must give the
# same floats, lists and text.


def reference_layout(edges, terms, config):
    names = [t.term for t in terms]
    n = len(names)
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
    for _ in range(config.layout_iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(delta, axis=-1)
        np.fill_diagonal(dist, 1.0)
        dist = np.maximum(dist, 1e-9)
        unit = delta / dist[..., None]
        repulse = (k * k / dist)[..., None] * unit
        attract = (adj * dist / k)[..., None] * unit
        disp = repulse.sum(axis=1) - attract.sum(axis=1)
        length = np.maximum(np.linalg.norm(disp, axis=-1, keepdims=True), 1e-9)
        pos += disp / length * np.minimum(length, temp)
        temp = max(temp - cooling, 1e-4)
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    pos = (pos - lo) / span
    pos = np.where((hi - lo) > 1e-12, pos, 0.5)
    return {name: (float(x), float(y)) for name, (x, y) in zip(names, pos)}


def reference_doc_ngrams(record, config):
    grams = set()
    for text in (record.title, record.abstract):
        tokens = [tok for tok, _ in tokenize(text)]
        for n in range(1, config.max_ngram + 1):
            for i in range(len(tokens) - n + 1):
                gram = tokens[i:i + n]
                if gram[0] in config.stoplist or gram[-1] in config.stoplist:
                    continue
                grams.add(" ".join(gram))
    return grams


def reference_tally(gram_sets_a, gram_sets_b, config):
    occ_a = Counter(chain.from_iterable(gram_sets_a))
    occ_b = Counter(chain.from_iterable(gram_sets_b))
    stats = []
    for term in sorted(occ_a.keys() | occ_b.keys()):
        a, b = occ_a[term], occ_b[term]
        if a + b >= config.min_occurrences:
            stats.append(TermStats(term=term, occ_a=a, occ_b=b))
    return stats


def reference_edges(terms, gram_sets):
    retained = {t.term for t in terms}
    weights = Counter(chain.from_iterable(
        combinations(sorted(retained.intersection(grams)), 2) for grams in gram_sets))
    return [(u, v, w) for (u, v), w in sorted(weights.items())]


def reference_json(term_map):
    config = term_map.config
    doc = {
        "name_a": term_map.name_a,
        "name_b": term_map.name_b,
        "config": {
            "min_occurrences": config.min_occurrences,
            "max_ngram": config.max_ngram,
            "stoplist": sorted(config.stoplist),
            "layout_seed": config.layout_seed,
            "layout_iterations": config.layout_iterations,
        },
        "terms": [{"term": t.term, "occ_a": t.occ_a, "occ_b": t.occ_b, "score": t.score,
                   "x": x, "y": y} for t, (x, y) in zip(term_map.terms, term_map.coordinates)],
        "edges": [{"source": u, "target": v, "weight": w}
                  for u, v, w in named(term_map.edges, term_names(term_map.terms))],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_graphml(term_map):
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, attr, target, kind in (
            ("occ_a", "occ_a", "node", "int"),
            ("occ_b", "occ_b", "node", "int"),
            ("score", "score", "node", "double"),
            ("x", "x", "node", "double"),
            ("y", "y", "node", "double"),
            ("weight", "weight", "edge", "int")):
        ET.SubElement(root, "key", id=key_id, attrib={
            "attr.name": attr, "attr.type": kind, "for": target})
    graph = ET.SubElement(root, "graph", id="termmap", edgedefault="undirected")
    for t, (x, y) in zip(term_map.terms, term_map.coordinates):
        node = ET.SubElement(graph, "node", id=t.term)
        for key, value in (("occ_a", t.occ_a), ("occ_b", t.occ_b),
                           ("score", t.score), ("x", x), ("y", y)):
            data = ET.SubElement(node, "data", key=key)
            data.text = repr(value) if isinstance(value, float) else str(value)
    for i, (u, v, w) in enumerate(named(term_map.edges, term_names(term_map.terms))):
        edge = ET.SubElement(graph, "edge", id=f"e{i}", source=u, target=v)
        data = ET.SubElement(edge, "data", key="weight")
        data.text = str(w)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def reference_html(term_map):
    name_a, name_b = (escape(name, quote=False) for name in (term_map.name_a, term_map.name_b))
    width, height = 900, 640
    max_total = max((t.total for t in term_map.terms), default=1)
    bubbles = []
    for t, (x, y) in sorted(zip(term_map.terms, term_map.coordinates),
                            key=lambda tc: -tc[0].total):
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
<title>Term map: {name_a} vs {name_b}</title>
<style>body {{ font-family: sans-serif; margin: 1em; }}</style>
</head>
<body>
<h1>{name_a} (blue) vs {name_b} (red)</h1>
<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">
{chr(10).join(bubbles)}
</svg>
</body>
</html>
"""


def random_layout_input(seed, n, edgeless):
    """`n` terms in shuffled name order and, unless `edgeless`, about 3n
    weighted edges between term places."""
    rng = random.Random(seed)
    names = [f"t{i:03d}" for i in range(n)]
    rng.shuffle(names)
    terms = [TermStats(name, 1, 1) for name in names]
    edges = []
    if not edgeless:
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))
            edges.append((u, v, rng.randint(1, 60)))
    return edge_rows(edges), terms


def assert_layout_equals_reference(edges, terms, config):
    got = layout_map(edges, terms, config)
    want = reference_layout(named(edges, term_names(terms)), terms, config)
    assert list(want) == term_names(terms)
    assert all(type(x) is float and type(y) is float for x, y in got)
    assert np.array_equal(np.array(got), np.array(list(want.values())))


class TestLayoutOracle:
    @pytest.mark.parametrize("n, iterations, edgeless", [
        (1, 150, True), (1, 1, True), (1, 0, True),
        (2, 150, False), (2, 1, True), (3, 150, False), (3, 150, True), (3, 0, False),
        (17, 150, False), (171, 150, False), (171, 150, True), (171, 1, False),
        (171, 0, False), (300, 150, False), (300, 150, True)])
    def test_bit_identical_to_reference(self, n, iterations, edgeless):
        edges, terms = random_layout_input(n, n, edgeless)
        config = TermMapConfig(min_occurrences=1, layout_seed=n,
                               layout_iterations=iterations)
        assert_layout_equals_reference(edges, terms, config)

    @pytest.mark.parametrize("n, iterations", [(400, 30), (1141, 2)],
                             ids=["two-blocks", "k-blocks-plus-one"])
    def test_column_blocks_bit_identical(self, n, iterations):
        # at the module's block budget, 400 terms take blocks of 327 and 73
        # columns, and 1,141 = 10 * 114 + 1 nine of 114 and a last one of 115
        edges, terms = random_layout_input(n, n, False)
        config = TermMapConfig(min_occurrences=1, layout_seed=n,
                               layout_iterations=iterations)
        assert_layout_equals_reference(edges, terms, config)

    @pytest.mark.parametrize("n, width", [(17, 2), (17, 3), (50, 7), (64, 7), (65, 16),
                                          (171, 17), (300, 64)])
    def test_block_widths_bit_identical(self, monkeypatch, n, width):
        # a budget of `width` columns; where n = k * width + 1 the last column
        # joins the block before it
        monkeypatch.setattr(termmap, "_LAYOUT_BLOCK_BYTES", 16 * n * width)
        edges, terms = random_layout_input(n + width, n, n % 2 == 0)
        config = TermMapConfig(min_occurrences=1, layout_seed=width,
                               layout_iterations=40)
        assert_layout_equals_reference(edges, terms, config)

    def test_random_sizes_bit_identical(self):
        rng = random.Random(5)
        for case in range(12):
            n = rng.randint(2, 220)
            edges, terms = random_layout_input(case, n, case % 4 == 0)
            config = TermMapConfig(min_occurrences=1, layout_seed=case,
                                   layout_iterations=rng.choice([1, 30, 150]))
            assert_layout_equals_reference(edges, terms, config)


NGRAM_WORDS = ["climate", "carbon", "energy", "ökologie", "naïve", "İstanbul",
               "東京", "co2", "the", "of", "and", "in", "to", "risk_trend", "x-ray"]


def random_text(rng, stop_only=False):
    words = sorted(DEFAULT_STOPLIST) if stop_only else NGRAM_WORDS
    return rng.choice(["", ".,;"]) if rng.random() < 0.15 else \
        " ".join(rng.choices(words, k=rng.randint(1, 14)))


def random_ngram_docs(seed, count):
    rng = random.Random(seed)
    return [doc(f"d{i}", random_text(rng, stop_only=rng.random() < 0.2),
                random_text(rng, stop_only=rng.random() < 0.2)) for i in range(count)]


def reference_grams(docs, config):
    return [reference_doc_ngrams(d, config) for d in docs]


class TestNgramOracle:
    @pytest.mark.parametrize("max_ngram", [1, 2, 3, 4])
    def test_doc_ngrams_equal_reference(self, max_ngram):
        docs = random_ngram_docs(max_ngram, 300)
        for stoplist in (DEFAULT_STOPLIST, frozenset(), frozenset({"climate", "東京"})):
            config = TermMapConfig(min_occurrences=1, max_ngram=max_ngram,
                                   stoplist=stoplist)
            for d in docs:
                assert extract_terms([d], [], config) == \
                    [TermStats(g, 1, 0) for g in sorted(reference_doc_ngrams(d, config))]

    def test_stopword_only_and_empty_texts_have_no_grams(self):
        config = TermMapConfig(min_occurrences=1, max_ngram=4)
        docs = [doc("a", "the of and", "in to"), doc("b", "", ""), doc("c", ".,;", "_")]
        assert extract_terms(docs, docs, config) == []
        assert cooccurrence_edges([TermStats("the", 1, 1)], docs, config).shape == (0, 3)

    @pytest.mark.parametrize("max_ngram", [1, 2, 3, 4, 5])
    def test_doc_gram_keys_and_pairs_equal_unique_reference(self, max_ngram):
        # a four-word vocabulary repeats n-grams of every length; empty and
        # stopword-only texts are among the docs, and make up the last sets
        rng = random.Random(50 + max_ngram)
        few = ["climate", "risk", "the", "of"]
        docs = random_ngram_docs(60 + max_ngram, 150) + [
            doc(f"r{i}", " ".join(rng.choices(few, k=rng.randint(0, 12))),
                " ".join(rng.choices(few, k=rng.randint(0, 12)))) for i in range(150)]
        blank = [doc("e", "", ".,;"), doc("s", "the of", "and")]
        for docs_ in (docs, blank, blank[:1], []):
            for stoplist in (DEFAULT_STOPLIST, frozenset()):
                config = TermMapConfig(max_ngram=max_ngram, stoplist=stoplist)
                grams = termmap._DocGrams(docs_, config)
                keys, pairs = unique_doc_grams(docs_, config)
                assert [k.tolist() for k in grams.keys] == [k.tolist() for k in keys]
                assert [p.tolist() for p in grams.pairs] == [p.tolist() for p in pairs]

    @pytest.mark.parametrize("min_occurrences", [1, 2, 5, 40])
    def test_tally_equals_reference(self, min_occurrences):
        config = TermMapConfig(min_occurrences=min_occurrences, max_ngram=3)
        docs_a, docs_b = random_ngram_docs(11, 120), random_ngram_docs(12, 90)
        grams_a, grams_b = reference_grams(docs_a, config), reference_grams(docs_b, config)
        want = reference_tally(grams_a, grams_b, config)
        assert extract_terms(iter(docs_a), iter(docs_b), config) == want
        assert extract_terms(docs_b, docs_a, config) == \
            reference_tally(grams_b, grams_a, config)
        assert extract_terms([], docs_b, config) == reference_tally([], grams_b, config)


def unique_doc_grams(docs, config):
    """Reference for `_DocGrams.keys` and `.pairs`: the same keys, ranked by
    `np.unique(..., return_inverse=True)` level by level."""
    slot = {}
    texts = [[slot.setdefault(tok, len(slot)) for tok, _ in tokenize(text)]
             for d in docs for text in (d.title, d.abstract)]
    stop = {slot[tok] for tok in config.stoplist if tok in slot}
    top = min(config.max_ngram, max(map(len, texts), default=0))
    keys, pairs, rank = [], [], {}
    # level 1 always has keys (the token ids); pairs only up to the longest text
    for n in range(1, max(top, 1) + 1):
        runs = [(t, i) for t, toks in enumerate(texts) for i in range(len(toks) - n + 1)]
        raw = [rank[t, i] * len(slot) + texts[t][i + n - 1] if n > 1 else texts[t][i]
               for t, i in runs]
        distinct, inverse = np.unique(np.array(raw, np.int64), return_inverse=True)
        keys.append(distinct)
        rank = {run: int(r) for run, r in zip(runs, inverse)}
        if n <= top:
            codes = [rank[t, i] * len(docs) + (t >> 1) for t, i in runs
                     if texts[t][i] not in stop and texts[t][i + n - 1] not in stop]
            pairs.append(np.unique(np.array(codes, np.int64)))
    return keys, pairs


class TestEdgeOracle:
    @pytest.mark.parametrize("max_ngram", [1, 2, 3, 5])
    def test_cooccurrence_edges_equal_reference(self, max_ngram):
        docs = random_ngram_docs(20 + max_ngram, 200)
        for stoplist in (DEFAULT_STOPLIST, frozenset(), frozenset({"climate", "東京"})):
            config = TermMapConfig(min_occurrences=2, max_ngram=max_ngram,
                                   stoplist=stoplist)
            terms = extract_terms(docs, [], config)
            assert len(terms) > 10
            assert named(cooccurrence_edges(terms, docs, config), term_names(terms)) == \
                reference_edges(terms, reference_grams(docs, config))

    def test_terms_given_in_any_form(self):
        # unsorted and repeated terms, terms the docs never spell as a kept
        # gram (stop-bounded, capitals, double spaces, longer than max_ngram,
        # a hyphen no token holds) and a doc listed twice
        docs = random_ngram_docs(5, 120)
        config = TermMapConfig(min_occurrences=1, max_ngram=2)
        found = extract_terms(docs, [], config)
        names = [t.term for t in found[::-3]] + [
            found[0].term, "the climate", "climate the", "Climate", "climate  carbon",
            "", " ", "absent", "x-ray", "carbon energy climate", "ökologie"]
        terms = [TermStats(name, 1, 1) for name in names]
        docs += docs[:7]
        assert named(cooccurrence_edges(terms, docs, config), sorted(set(names))) == \
            reference_edges(terms, reference_grams(docs, config))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_counts_over_pair_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(termmap, "_PAIR_CHUNK", chunk)
        docs = random_ngram_docs(6, 150)
        config = TermMapConfig(min_occurrences=3, max_ngram=2)
        terms = extract_terms(docs, [], config)
        assert named(cooccurrence_edges(terms, docs, config), term_names(terms)) == \
            reference_edges(terms, reference_grams(docs, config))

    @pytest.mark.parametrize("seed", range(6))
    def test_build_term_map_equals_reference(self, seed):
        # ids d0..d99 sit on both sides, and d3 twice on side a, each doc with
        # its own text: edges count every distinct record
        rng = random.Random(seed)
        docs_a = random_ngram_docs(30 + seed, 140)
        docs_a.append(doc("d3", random_text(rng), random_text(rng)))
        docs_b = random_ngram_docs(40 + seed, 100)
        config = TermMapConfig(min_occurrences=1 + seed, max_ngram=1 + seed % 4,
                               layout_iterations=5)
        term_map = build_term_map("a", docs_a, "b", docs_b, config)
        terms = reference_tally(reference_grams(docs_a, config),
                                reference_grams(docs_b, config), config)
        union = {d: reference_doc_ngrams(d, config) for d in docs_a + docs_b}
        assert term_map.terms == terms
        assert named(term_map.edges, term_names(terms)) == \
            reference_edges(terms, union.values())


def hand_built_map(names, edges):
    terms = [TermStats(name, i + 1, 2 * i) for i, name in enumerate(names)]
    coords = [[i / 7, 1.0 - i / 3] for i in range(len(names))]
    return TermMap("first", "second", terms, edge_rows(edges), coords,
                   TermMapConfig(min_occurrences=1))


class TestGraphmlOracle:
    SPECIAL = ["a & b", "<tag>", 'say "hi"', "line\nbreak", "tab\there", "cr\rlf",
               "it's", "ökologie 東京", "&amp;"]
    # each term linked to the next, with weights 1, 2, ...
    CHAIN = [(i, i + 1, i + 1) for i in range(len(SPECIAL) - 1)]

    @pytest.mark.parametrize("term_map", [
        hand_built_map(SPECIAL, CHAIN),
        hand_built_map(["solo"], []),
        hand_built_map([], []),
    ], ids=["special-characters", "one-term", "empty"])
    def test_text_equals_elementtree(self, term_map):
        assert export_term_map(term_map, "graphml") == reference_graphml(term_map)

    def test_built_maps_equal_elementtree(self):
        term_map = sample_map()
        assert export_term_map(term_map, "graphml") == reference_graphml(term_map)
        config = TermMapConfig(min_occurrences=3, max_ngram=2)
        built = build_term_map("a", random_ngram_docs(1, 80), "b",
                               random_ngram_docs(2, 80), config)
        assert built.terms and len(built.edges)
        assert export_term_map(built, "graphml") == reference_graphml(built)


def random_json_map(seed):
    """A hand-built map with names holding escapes, non-ASCII and astral
    characters, odd floats and int coordinates, and a random stoplist."""
    rng = random.Random(seed)
    pieces = ["climate", "ökologie", "東京", "a\"b", "back\\slash", "\n", "\t", "\x00",
              "\x1f", "\u2028", "𝄞", "é", "/", " ", "<&>"]
    names = sorted({"".join(rng.choices(pieces, k=rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 12))})
    floats = [0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 1e-300, 1e300, 2.5e-7, 12345678.9, 0, 1]
    terms = [TermStats(name, rng.randint(0, 9), rng.randint(1, 9)) for name in names]
    coords = [[rng.choice(floats + [rng.random()]), rng.choice(floats)] for _ in names]
    edges = edge_rows([(u, v, rng.randint(1, 10**6))
                       for u, v in combinations(range(len(names)), 2) if rng.random() < 0.5])
    stoplist = frozenset(rng.sample(pieces, rng.randint(0, 5)))
    config = TermMapConfig(min_occurrences=rng.randint(1, 99), max_ngram=rng.randint(1, 6),
                           stoplist=stoplist, layout_seed=rng.randint(0, 99),
                           layout_iterations=rng.randint(0, 300))
    return TermMap(rng.choice(pieces), rng.choice(pieces), terms, edges, coords, config)


class TestJsonOracle:
    @pytest.mark.parametrize("term_map", [
        hand_built_map(TestGraphmlOracle.SPECIAL, TestGraphmlOracle.CHAIN),
        hand_built_map(["solo"], []),
        hand_built_map([], []),
    ], ids=["special-characters", "one-term", "empty"])
    def test_text_equals_json_dumps(self, term_map):
        assert export_term_map(term_map, "json") == reference_json(term_map)

    def test_random_maps_equal_json_dumps(self):
        for seed in range(200):
            term_map = random_json_map(seed)
            assert export_term_map(term_map, "json") == reference_json(term_map)

    @pytest.mark.parametrize("stoplist", [frozenset(), frozenset({"ökologie", "東京", "x"})])
    def test_built_maps_equal_json_dumps(self, stoplist):
        config = TermMapConfig(min_occurrences=3, max_ngram=2, stoplist=stoplist)
        built = build_term_map("ä", random_ngram_docs(1, 80), "b", random_ngram_docs(2, 80),
                               config)
        assert built.terms and len(built.edges)
        assert export_term_map(built, "json") == reference_json(built)
        assert export_term_map(sample_map(), "json") == reference_json(sample_map())


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


REFERENCES = {"json": reference_json, "graphml": reference_graphml, "html": reference_html}


class TestStreamedExports:
    @pytest.fixture(params=["demo", "random", "no-terms"])
    def term_map(self, request, demo_dir):
        if request.param == "random":
            config = TermMapConfig(min_occurrences=2, max_ngram=2, layout_iterations=20)
            return build_term_map("ä <b>", random_ngram_docs(3, 120), "b",
                                  random_ngram_docs(4, 120), config)
        docs_a, docs_b = demo_member_docs(demo_dir)
        config = TermMapConfig(min_occurrences=5 if request.param == "demo" else 10**6,
                               layout_seed=11)
        return build_term_map("alpha", docs_a, "gamma", docs_b, config)

    @pytest.mark.parametrize("fmt", sorted(REFERENCES))
    def test_written_equals_export_and_reference(self, monkeypatch, term_map, fmt):
        # one write per piece at a batch of one, ceil(pieces / batch) writes
        # at any other, and the same text whatever the batch
        assert bool(term_map.terms) == (term_map.config.min_occurrences < 10**6)
        text = export_term_map(term_map, fmt)
        assert text == REFERENCES[fmt](term_map)
        monkeypatch.setattr(termmap, "_WRITE_BATCH", 1)
        sink = RecordingSink()
        write_term_map(term_map, fmt, sink)
        pieces = len(sink.writes)
        assert "".join(sink.writes) == text
        for batch in (2, 3, 4096):
            monkeypatch.setattr(termmap, "_WRITE_BATCH", batch)
            sink = RecordingSink()
            write_term_map(term_map, fmt, sink)
            assert len(sink.writes) == -(-pieces // batch)
            assert "".join(sink.writes) == text

    def test_random_maps_written_equal_references(self, monkeypatch):
        monkeypatch.setattr(termmap, "_WRITE_BATCH", 3)
        for seed in range(40):
            term_map = random_json_map(seed)
            for fmt, reference in REFERENCES.items():
                sink = RecordingSink()
                write_term_map(term_map, fmt, sink)
                assert "".join(sink.writes) == reference(term_map)


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("min_occurrences", 0), ("min_occurrences", -1), ("min_occurrences", True),
        ("min_occurrences", 1.5), ("min_occurrences", "5"), ("min_occurrences", None),
        ("max_ngram", 0), ("max_ngram", "3"), ("max_ngram", 2.5), ("max_ngram", True),
        ("layout_seed", -1), ("layout_seed", 1.5), ("layout_seed", "0"),
        ("layout_seed", False), ("layout_iterations", -1), ("layout_iterations", 2.5),
        ("layout_iterations", "150"), ("layout_iterations", None)])
    def test_bad_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an int >= [01]: "):
            TermMapConfig(**{name: value})

    def test_least_values_accepted(self):
        config = TermMapConfig(min_occurrences=1, max_ngram=1, layout_seed=0,
                               layout_iterations=0)
        term_map = build_term_map("a", repeated_docs("climate carbon", 2, "a"), "b", [],
                                  config)
        assert [t.term for t in term_map.terms] == ["carbon", "climate"]
