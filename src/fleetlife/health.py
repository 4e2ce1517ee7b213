"""Asset health scoring on a 1-10 scale.

Scores 1-6 come from conditional failure probabilities over a short and a
long look-ahead window, most severe band first; scores 7-10 come from the
asset's age relative to the fleet average. 1-3 map to Purple, 4-6 to Red,
7-8 to Orange, 9-10 to Green. Probability bands take precedence over age
bands, so an asset only falls through to age scoring when the probabilities
clear every probability threshold. The thresholds are fixed. Every band rule
takes arrays, one value per asset, and score_asset applies them to the ages
of one family at a time.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from .weibull import WeibullLaw

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "Band",
    "ScoreBasis",
    "band_for_score",
    "basis_for_score",
    "probability_scores",
    "age_scores",
    "score_asset",
    "threshold_age",
]

# look-ahead windows (years) of scores 1-3 and 4-6
SHORT_WINDOW = 3.0
LONG_WINDOW = 7.0
# failure probability of each window's bands, least severe last
PROBABILITY_BANDS = (0.8, 0.5, 0.2)
# shares of the fleet average age above which an asset scores 7, then 8
AGE_FRACTIONS = (0.75, 0.60)
# ages (years) under this score 10
YOUNG_AGE_CUTOFF = 5.0


class Band(enum.Enum):
    PURPLE = "purple"
    RED = "red"
    ORANGE = "orange"
    GREEN = "green"


class ScoreBasis(enum.Enum):
    PROBABILITY = "probability"
    AGE = "age"


def band_for_score(score: int) -> Band:
    if not 1 <= score <= 10:
        raise ValueError(f"score {score} outside 1..10")
    if score <= 3:
        return Band.PURPLE
    if score <= 6:
        return Band.RED
    if score <= 8:
        return Band.ORANGE
    return Band.GREEN


def basis_for_score(score: int) -> ScoreBasis:
    """Scores 1-6 (purple and red) come from the probability bands, 7-10 from
    the age bands."""
    red_or_worse = band_for_score(score) in (Band.PURPLE, Band.RED)
    return ScoreBasis.PROBABILITY if red_or_worse else ScoreBasis.AGE


def probability_scores(p_short: ArrayLike, p_long: ArrayLike) -> np.ndarray:
    """Probability-band score 1-6 per asset, 0 where no band matches.

    ``p_short`` and ``p_long`` are each asset's failure probabilities over
    the short and the long window. The short window is checked first
    (scores 1-3), then the long window (scores 4-6), each against
    descending thresholds: bands are written from the least severe up, so
    the most severe match is the one kept.
    """
    p_short = np.asarray(p_short, dtype=np.float64)
    p_long = np.asarray(p_long, dtype=np.float64)
    for name, p in (("p_short", p_short), ("p_long", p_long)):
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise ValueError(f"{name} outside [0, 1]")
    if (p_long < p_short).any():
        raise ValueError("p_long < p_short: inconsistent nested windows")
    scores = np.zeros(p_short.shape, dtype=np.int64)
    for offset, p in ((3, p_long), (0, p_short)):
        for rank in range(len(PROBABILITY_BANDS), 0, -1):
            scores[p >= PROBABILITY_BANDS[rank - 1]] = offset + rank
    return scores


def age_scores(ages: ArrayLike, average_age: float) -> np.ndarray:
    """Age-band score 7-10 per asset, relative to the fleet average.

    Ages under the young-age cutoff score 10 outright, so the average only
    has to be positive once it is actually compared against.
    """
    ages = np.asarray(ages, dtype=np.float64)
    if (ages < 0).any():
        raise ValueError(f"negative age {ages.min()}")
    young = ages < YOUNG_AGE_CUTOFF
    if average_age <= 0 and not young.all():
        raise ValueError(f"average age must be positive, got {average_age}")
    hi, lo = AGE_FRACTIONS
    scores = np.where(ages > hi * average_age, 7, np.where(ages > lo * average_age, 8, 9))
    scores[young] = 10
    return scores


def score_asset(law: WeibullLaw, ages: ArrayLike, fleet_average_age: float) -> np.ndarray:
    """Score the assets of one family: probability bands first, age bands as fallback.

    ``ages`` are the ages (in years) that the probability and age bands read,
    one per asset. Returns their integer scores; band_for_score and
    basis_for_score tell the band and the basis of each.
    """
    ages = np.asarray(ages, dtype=np.float64)
    if (ages < 0).any():
        raise ValueError(f"negative age {ages.min()}")
    p_short = law.interval_failure_probability(ages, ages + SHORT_WINDOW)
    p_long = law.interval_failure_probability(ages, ages + LONG_WINDOW)
    scores = probability_scores(p_short, p_long)
    by_age = scores == 0
    scores[by_age] = age_scores(ages[by_age], fleet_average_age)
    return scores


def threshold_age(
    law: WeibullLaw, window: float, probability: float, tolerance: float = 1e-9
) -> float:
    """Age at which the next-window failure probability reaches a level.

    Inverts the conditional failure probability by bisection; requires a
    strictly aging law (beta > 1) so the inversion is single-valued. Returns
    0 when the level is already exceeded at age zero.
    """
    if law.beta <= 1.0:
        raise ValueError(
            f"non-monotone inversion unsupported for shape {law.beta} <= 1"
        )
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability {probability} outside (0, 1)")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    lo, hi = 0.0, 10.0 * law.eta
    if law.conditional_failure_probability(lo, window) >= probability:
        return 0.0
    if law.conditional_failure_probability(hi, window) < probability:
        raise ValueError(
            f"probability {probability} not reached within {hi:.1f} years"
        )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if law.conditional_failure_probability(mid, window) < probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
