"""Pairwise DOI overlap and the method/coverage surplus decomposition."""

from __future__ import annotations

import json
from dataclasses import dataclass
from html import escape
from typing import AbstractSet

from .rounding import percent

# Segment order used in the stacked-bar figures, left to right.
SEGMENT_ORDER = ("surplus_a_coverage", "surplus_a_method", "overlap",
                 "surplus_b_method", "surplus_b_coverage")

_SEGMENT_COLORS = {
    "surplus_a_coverage": "#08306b",
    "surplus_a_method": "#4292c6",
    "overlap": "#969696",
    "surplus_b_method": "#ef6548",
    "surplus_b_coverage": "#7f0000",
}
# The size of the overlap bar in SVG user units; the title line adds 40 to the height.
BAR_WIDTH, BAR_HEIGHT = 800, 60


@dataclass(frozen=True)
class PairwiseComparison:
    name_a: str
    name_b: str
    overlap: frozenset[str]
    surplus_a_method: frozenset[str]
    surplus_a_coverage: frozenset[str]
    surplus_b_method: frozenset[str]
    surplus_b_coverage: frozenset[str]

    def segment_sets(self) -> dict[str, frozenset[str]]:
        return {name: getattr(self, name) for name in SEGMENT_ORDER}

    @property
    def counts(self) -> dict[str, int]:
        return {name: len(s) for name, s in self.segment_sets().items()}

    @property
    def denominator(self) -> int:
        """The number of DOIs in the union, which the five segments partition."""
        return sum(self.counts.values())

    @property
    def shares(self) -> dict[str, float]:
        return shares_from_counts(self.counts, self.denominator)


def shares_from_counts(counts: dict[str, int], denominator: int) -> dict[str, float]:
    """Per-segment shares in percent of the union, rounded half-up to one digit."""
    return {name: percent(counts[name], denominator) for name in SEGMENT_ORDER}


def match_by_doi(result_a, result_b) -> tuple[frozenset, frozenset, frozenset]:
    """Intersect and difference two result sets on their normalized DOIs.

    Members without a DOI are ignored entirely.
    """
    a, b = result_a.doi_members, result_b.doi_members
    return a & b, a - b, b - a


def decompose_surplus(only_a: AbstractSet[str], coverage_b: AbstractSet[str],
                      ) -> tuple[AbstractSet[str], AbstractSet[str]]:
    """Split one side's surplus into method- and coverage-attributable parts.

    A DOI the other database indexes but its method missed is surplus
    (method); a DOI the other database does not index at all is surplus
    (coverage). The two parts partition the input.
    """
    surplus_method = only_a & coverage_b
    return surplus_method, only_a - surplus_method


def pairwise_compare(result_a, coverage_b, result_b, coverage_a,
                     ) -> PairwiseComparison:
    overlap, only_a, only_b = match_by_doi(result_a, result_b)
    a_method, a_coverage = decompose_surplus(only_a, coverage_b)
    b_method, b_coverage = decompose_surplus(only_b, coverage_a)
    return PairwiseComparison(
        name_a=getattr(result_a, "strategy_name", "A"),
        name_b=getattr(result_b, "strategy_name", "B"),
        overlap=frozenset(overlap),
        surplus_a_method=frozenset(a_method),
        surplus_a_coverage=frozenset(a_coverage),
        surplus_b_method=frozenset(b_method),
        surplus_b_coverage=frozenset(b_coverage),
    )


def check_sample_size(value):
    """`value`, if it is None or a number >= 0; else ValueError."""
    if value is not None and value < 0:
        raise ValueError(f"sample size must be >= 0: {value!r}")
    return value


def render_overlap_bar(comparison: PairwiseComparison,
                       sample_size: int | None = 10) -> tuple[str, str]:
    """Five-segment stacked horizontal bar as SVG, plus a JSON data sidecar.

    Zero-width segments are omitted from the SVG but kept in the JSON with
    count 0. Output is deterministic.
    """
    check_sample_size(sample_size)
    counts = comparison.counts
    shares = comparison.shares
    total = comparison.denominator or 1
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{BAR_WIDTH}" height="{BAR_HEIGHT + 40}" '
             f'viewBox="0 0 {BAR_WIDTH} {BAR_HEIGHT + 40}">',
             f'<text x="4" y="16" font-size="14" font-family="sans-serif">'
             f'{escape(comparison.name_a, quote=False)} vs '
             f'{escape(comparison.name_b, quote=False)}</text>']
    x = 0.0
    for name in SEGMENT_ORDER:
        w = BAR_WIDTH * counts[name] / total
        if counts[name] > 0:
            parts.append(
                f'<rect x="{x:.2f}" y="24" width="{w:.2f}" height="{BAR_HEIGHT}" '
                f'fill="{_SEGMENT_COLORS[name]}"><title>{name}: {counts[name]} '
                f'({shares[name]}%)</title></rect>')
        x += w
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    data = {
        "a": comparison.name_a,
        "b": comparison.name_b,
        "denominator": comparison.denominator,
        "segments": [
            {
                "name": name,
                "count": counts[name],
                "share_pct": shares[name],
                "sample_dois": sorted(comparison.segment_sets()[name])[:sample_size],
            }
            for name in SEGMENT_ORDER
        ],
    }
    return svg, json.dumps(data, indent=2, sort_keys=True) + "\n"
