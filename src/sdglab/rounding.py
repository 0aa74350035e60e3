"""Half-up decimal rounding, matching how the reported percentage tables round."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal


def percent(count: int, denominator: int, ndigits: int = 1) -> float:
    """Share of a denominator as a percentage, rounded half-up; 0.0 of 0.

    Uses exact rational arithmetic so ties round predictably.
    """
    if denominator == 0:
        return 0.0
    quant = Decimal(1).scaleb(-ndigits)
    return float((Decimal(100 * count) / Decimal(denominator))
                 .quantize(quant, rounding=ROUND_HALF_UP))
