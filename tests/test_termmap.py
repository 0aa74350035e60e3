import math
import random

import pytest

from sdglab.corpus import PublicationRecord
from sdglab.termmap import (TermMap, TermMapConfig, TermStats, build_term_map,
                            contrast_score, cooccurrence_edges, export_term_map,
                            extract_terms, layout_map, load_term_map,
                            score_color)


def doc(rid, title, abstract=""):
    return PublicationRecord(rid, title, 2016, abstract=abstract)


def repeated_docs(text, n, prefix):
    return [doc(f"{prefix}{i}", text) for i in range(n)]


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
        weights = {(u, v): w for u, v, w in edges}
        assert weights[("carbon", "climate")] == 3

    def test_never_cooccurring_no_edge(self):
        docs = [doc("a", "climate"), doc("b", "carbon")]
        config = TermMapConfig(min_occurrences=1, stoplist=frozenset())
        terms = extract_terms(docs, [], config)
        edges = cooccurrence_edges(terms, docs, config)
        assert edges == []

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
        assert {(u, v): w for u, v, w in edges} == expected


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
        # time with its own text: the last doc with an id wins in the union.
        docs_a = self.random_docs(rng, [f"a{i}" for i in range(40)] + ["a5"])
        docs_b = self.random_docs(rng, [f"a{i}" for i in range(20, 60)])
        config = TermMapConfig(min_occurrences=3, max_ngram=1 + seed % 3,
                               stoplist=frozenset({"the", "of"}))
        for side_a, side_b in ((docs_a, docs_b), (docs_a, []), ([], docs_b)):
            term_map = build_term_map("a", side_a, "b", side_b, config)
            terms = extract_terms(side_a, side_b, config)
            combined = {d.internal_id: d for d in side_a + side_b}
            assert terms
            assert term_map.terms == terms
            assert term_map.edges == cooccurrence_edges(
                terms, combined.values(), config)

    def test_both_sides_empty(self):
        term_map = build_term_map("a", [], "b", [], TermMapConfig())
        assert (term_map.terms, term_map.edges, term_map.coordinates) == ([], [], {})


class TestLayout:
    def test_single_term_centered(self):
        terms = [TermStats("solo", 3, 2)]
        coords = layout_map([], terms, TermMapConfig(min_occurrences=1))
        assert coords == {"solo": (0.5, 0.5)}

    def test_deterministic(self):
        terms = [TermStats(f"t{i}", i + 1, 1) for i in range(8)]
        edges = [(f"t{i}", f"t{i+1}", 2) for i in range(7)]
        config = TermMapConfig(min_occurrences=1, layout_seed=9)
        assert layout_map(edges, terms, config) == \
            layout_map(edges, terms, config)

    def test_unit_square(self):
        terms = [TermStats(f"t{i}", 1, 1) for i in range(12)]
        coords = layout_map([], terms, TermMapConfig(min_occurrences=1))
        for x, y in coords.values():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            assert math.isfinite(x) and math.isfinite(y)

    def test_cliques_separate(self):
        names_a = [f"a{i}" for i in range(5)]
        names_b = [f"b{i}" for i in range(5)]
        terms = [TermStats(n, 2, 2) for n in names_a + names_b]
        edges = []
        for group in (names_a, names_b):
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    edges.append((u, v, 10))
        edges.append(("a0", "b0", 1))
        config = TermMapConfig(min_occurrences=1, layout_seed=2,
                               layout_iterations=300)
        coords = layout_map(edges, terms, config)

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
        again = load_term_map(text)
        assert export_term_map(again, "json") == text

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

    def test_score_color_scale(self):
        assert score_color(-1.0) == "#2166ac"
        assert score_color(1.0) == "#b2182b"
        assert score_color(0.0) == "#f7f7f7"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_term_map(sample_map(), "pdf")
