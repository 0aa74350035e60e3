import json
import random
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sdglab.overlap import (SEGMENT_ORDER, decompose_surplus, match_by_doi,
                            pairwise_compare, render_overlap_bar,
                            shares_from_counts)


def result(name, dois):
    return SimpleNamespace(strategy_name=name, doi_members=frozenset(dois))


class TestMatchByDoi:
    def test_set_algebra(self):
        overlap, only_a, only_b = match_by_doi(result("A", "xyz"),
                                               result("B", "yzw"))
        assert overlap == {"y", "z"}
        assert only_a == {"x"}
        assert only_b == {"w"}

    def test_identical_sets(self):
        overlap, only_a, only_b = match_by_doi(result("A", "abc"),
                                               result("B", "abc"))
        assert overlap == {"a", "b", "c"}
        assert only_a == only_b == set()

    def test_matches_sort_merge_oracle(self):
        rng = random.Random(12)
        universe = [f"10.1/{i}" for i in range(400)]
        a = set(rng.sample(universe, 200))
        b = set(rng.sample(universe, 200))
        overlap, only_a, only_b = match_by_doi(result("A", a), result("B", b))
        # oracle: sort both lists and merge
        sa, sb = sorted(a), sorted(b)
        i = j = 0
        o_overlap, o_only_a, o_only_b = [], [], []
        while i < len(sa) and j < len(sb):
            if sa[i] == sb[j]:
                o_overlap.append(sa[i]); i += 1; j += 1
            elif sa[i] < sb[j]:
                o_only_a.append(sa[i]); i += 1
            else:
                o_only_b.append(sb[j]); j += 1
        o_only_a += sa[i:]
        o_only_b += sb[j:]
        assert overlap == set(o_overlap)
        assert only_a == set(o_only_a)
        assert only_b == set(o_only_b)


class TestDecomposeSurplus:
    def test_identical_coverage_means_no_coverage_surplus(self):
        only_a = {"x", "y"}
        coverage = {"x", "y", "z"}
        method, cov = decompose_surplus(only_a, coverage)
        assert method == {"x", "y"}
        assert cov == set()

    def test_empty_coverage(self):
        method, cov = decompose_surplus({"x", "y"}, set())
        assert method == set()
        assert cov == {"x", "y"}

    def test_partition_matches_membership_oracle(self):
        rng = random.Random(4)
        only_a = {f"d{i}" for i in rng.sample(range(100), 40)}
        coverage = {f"d{i}" for i in rng.sample(range(100), 50)}
        method, cov = decompose_surplus(only_a, coverage)
        for d in only_a:
            assert (d in method) == (d in coverage)
            assert (d in cov) == (d not in coverage)

    @given(st.sets(st.integers(0, 60)), st.sets(st.integers(0, 60)))
    @settings(max_examples=200, deadline=None)
    def test_partition_identity(self, only_a, coverage):
        method, cov = decompose_surplus(only_a, coverage)
        assert method | cov == set(only_a)
        assert method & cov == set()
        assert len(only_a) == len(method) + len(cov)


TABLE5_ROWS = [
    # (a, b, counts per SEGMENT_ORDER, printed shares)
    ("elsevier", "strings", (44764, 102702, 48269, 104792, 2949),
     (14.8, 33.8, 15.9, 34.5, 1.0)),
    ("elsevier", "siris", (44764, 69502, 81469, 80421, 2910),
     (16.0, 24.9, 29.2, 28.8, 1.0)),
    ("elsevier", "dimensions", (7103, 104613, 84019, 82587, 36831),
     (2.3, 33.2, 26.7, 26.2, 11.7)),
    ("strings", "siris", (0, 102564, 53446, 111354, 0),
     (0.0, 38.4, 20.0, 41.6, 0.0)),
    ("dimensions", "strings", (76389, 84629, 42429, 112522, 1059),
     (24.1, 26.7, 13.4, 35.5, 0.3)),
    ("dimensions", "siris", (76389, 68933, 58125, 105494, 1181),
     (24.6, 22.2, 18.7, 34.0, 0.4)),
]


def synth_comparison(counts):
    """Synthesize DOI sets realizing the five segment counts."""
    cov_a_n, meth_a_n, overlap_n, meth_b_n, cov_b_n = counts
    ids = iter(range(sum(counts)))
    seg = {
        "surplus_a_coverage": {f"10.1/{next(ids)}" for _ in range(cov_a_n)},
        "surplus_a_method": {f"10.1/{next(ids)}" for _ in range(meth_a_n)},
        "overlap": {f"10.1/{next(ids)}" for _ in range(overlap_n)},
        "surplus_b_method": {f"10.1/{next(ids)}" for _ in range(meth_b_n)},
        "surplus_b_coverage": {f"10.1/{next(ids)}" for _ in range(cov_b_n)},
    }
    a = seg["surplus_a_coverage"] | seg["surplus_a_method"] | seg["overlap"]
    b = seg["surplus_b_coverage"] | seg["surplus_b_method"] | seg["overlap"]
    # the other side's database indexes exactly the method-surplus and overlap
    coverage_b = seg["surplus_a_method"] | b
    coverage_a = seg["surplus_b_method"] | a
    return result("A", a), coverage_b, result("B", b), coverage_a, seg


class TestPairwiseCompare:
    def test_elsevier_strings_row(self):
        counts, shares = TABLE5_ROWS[0][2], TABLE5_ROWS[0][3]
        comparison = pairwise_compare(*synth_comparison(counts)[:4])
        assert comparison.denominator == 303476
        assert tuple(comparison.counts[s] for s in SEGMENT_ORDER) == counts
        assert tuple(comparison.shares[s] for s in SEGMENT_ORDER) == shares

    def test_dimensions_siris_row(self):
        counts, shares = TABLE5_ROWS[5][2], TABLE5_ROWS[5][3]
        comparison = pairwise_compare(*synth_comparison(counts)[:4])
        assert tuple(comparison.shares[s] for s in SEGMENT_ORDER) == shares

    def test_all_rows_reproduce_printed_percentages(self):
        for _, _, counts, printed in TABLE5_ROWS:
            shares = shares_from_counts(
                dict(zip(SEGMENT_ORDER, counts)), sum(counts))
            for seg, expected in zip(SEGMENT_ORDER, printed):
                assert abs(shares[seg] - expected) <= 0.1, (counts, seg)

    def test_identity_comparison(self):
        a = result("A", {"x", "y"})
        b = result("B", {"x", "y"})
        comparison = pairwise_compare(a, {"x", "y"}, b, {"x", "y"})
        shares = comparison.shares
        assert shares["overlap"] == 100.0
        assert all(shares[s] == 0.0 for s in SEGMENT_ORDER if s != "overlap")

    def test_segments_partition_union(self):
        rng = random.Random(33)
        universe = [f"10.1/{i}" for i in range(300)]
        a = result("A", rng.sample(universe, 120))
        b = result("B", rng.sample(universe, 140))
        cov_a = set(rng.sample(universe, 200))
        cov_b = set(rng.sample(universe, 200))
        comparison = pairwise_compare(a, cov_b, b, cov_a)
        sets = list(comparison.segment_sets().values())
        union = set().union(*sets)
        assert union == a.doi_members | b.doi_members
        assert sum(len(s) for s in sets) == len(union)
        assert comparison.denominator == len(union)

    def test_symmetry(self):
        rng = random.Random(34)
        universe = [f"10.1/{i}" for i in range(200)]
        a = result("A", rng.sample(universe, 80))
        b = result("B", rng.sample(universe, 90))
        cov_a = set(rng.sample(universe, 150))
        cov_b = set(rng.sample(universe, 150))
        ab = pairwise_compare(a, cov_b, b, cov_a)
        ba = pairwise_compare(b, cov_a, a, cov_b)
        assert ab.overlap == ba.overlap
        assert ab.surplus_a_method == ba.surplus_b_method
        assert ab.surplus_a_coverage == ba.surplus_b_coverage

    def test_equal_coverage_zero_law(self):
        rng = random.Random(35)
        universe = [f"10.1/{i}" for i in range(100)]
        coverage = set(universe)
        a = result("A", rng.sample(universe, 40))
        b = result("B", rng.sample(universe, 40))
        comparison = pairwise_compare(a, coverage, b, coverage)
        assert comparison.surplus_a_coverage == frozenset()
        assert comparison.surplus_b_coverage == frozenset()

    def test_randomized_partition_identity_bulk(self):
        rng = random.Random(36)
        for _ in range(1000):
            universe = [f"10.1/{i}" for i in range(rng.randint(1, 40))]
            a = set(rng.sample(universe, rng.randint(0, len(universe))))
            b = set(rng.sample(universe, rng.randint(0, len(universe))))
            cov_b = set(rng.sample(universe, rng.randint(0, len(universe))))
            only_a = a - b
            method, cov = decompose_surplus(only_a, cov_b)
            assert len(only_a) == len(method) + len(cov)
            assert method & cov == set()


class TestRenderOverlapBar:
    def comparison(self):
        counts, _ = TABLE5_ROWS[0][2], None
        return pairwise_compare(*synth_comparison(TABLE5_ROWS[0][2])[:4])

    def test_segment_widths_proportional(self):
        svg, _ = render_overlap_bar(self.comparison())
        widths = [float(w.split('"')[0]) for w in
                  [part.split('width="')[1] for part in svg.split("<rect")[1:]]]
        total = sum(widths)
        counts = TABLE5_ROWS[0][2]
        for w, c in zip(widths, counts):
            assert abs(w / total - c / sum(counts)) < 0.001

    def test_zero_segment_omitted_from_svg_present_in_json(self):
        a = result("A", {"x"})
        b = result("B", {"x"})
        comparison = pairwise_compare(a, {"x"}, b, {"x"})
        svg, sidecar = render_overlap_bar(comparison)
        assert svg.count("<rect") == 1  # only the overlap segment
        data = json.loads(sidecar)
        assert len(data["segments"]) == 5
        assert {s["count"] for s in data["segments"]} == {0, 1}

    def test_names_escaped_as_xml_text(self):
        comparison = pairwise_compare(result("R&D", {"x"}), {"x"}, result("<b>", {"x"}), {"x"})
        svg, sidecar = render_overlap_bar(comparison)
        root = ET.fromstring(svg)
        assert root.find("{http://www.w3.org/2000/svg}text").text == "R&D vs <b>"
        assert "R&amp;D vs &lt;b&gt;</text>" in svg
        assert (json.loads(sidecar)["a"], json.loads(sidecar)["b"]) == ("R&D", "<b>")

    def test_byte_identical_rerender(self):
        comparison = self.comparison()
        assert render_overlap_bar(comparison) == render_overlap_bar(comparison)

    def test_sample_size(self):
        comparison = self.comparison()
        for size, expect in ((0, lambda n: 0), (3, lambda n: min(n, 3)),
                             (None, lambda n: n)):
            data = json.loads(render_overlap_bar(comparison, sample_size=size)[1])
            assert [len(s["sample_dois"]) for s in data["segments"]] == \
                [expect(s["count"]) for s in data["segments"]]
        with pytest.raises(ValueError, match="sample size must be >= 0: -1"):
            render_overlap_bar(comparison, sample_size=-1)
