"""Asset health scoring on a 1-10 scale.

Scores 1-6 come from conditional failure probabilities over a short and a
long look-ahead window, most severe band first; scores 7-10 come from the
asset's age relative to the fleet average. 1-3 map to Purple, 4-6 to Red,
7-8 to Orange, 9-10 to Green. Probability bands take precedence over age
bands, so an asset only falls through to age scoring when the probabilities
clear every probability threshold. Every band rule takes arrays, one value
per asset, and score_asset applies them to the ages of one family at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .weibull import WeibullLaw

__all__ = [
    "Band",
    "ScoreBasis",
    "AhiConfig",
    "AhiScore",
    "band_for_score",
    "probability_scores",
    "age_scores",
    "score_asset",
    "threshold_age",
    "RED_ONSET_APPARENT_AGE",
    "PURPLE_ONSET_APPARENT_AGE",
    "DEFAULT_CONDITION_TRIGGER_AGE",
]

# Default apparent ages at which an asset is considered to enter the red and
# purple severity regions; the default condition-based replacement policy
# fires at whichever comes first. threshold_age derives law-consistent
# alternatives (about 48 and 58 years for the bundled reference laws, which
# does not match these defaults exactly; see README).
RED_ONSET_APPARENT_AGE = 50.0
PURPLE_ONSET_APPARENT_AGE = 54.0
DEFAULT_CONDITION_TRIGGER_AGE = min(RED_ONSET_APPARENT_AGE, PURPLE_ONSET_APPARENT_AGE)


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


@dataclass(frozen=True)
class AhiConfig:
    """Scoring thresholds: look-ahead windows, probability bands, age bands."""

    short_window: float = 3.0
    long_window: float = 7.0
    probability_bands: tuple[float, float, float] = (0.8, 0.5, 0.2)
    age_fractions: tuple[float, float] = (0.75, 0.60)
    young_age_cutoff: float = 5.0

    def __post_init__(self) -> None:
        a, b, c = self.probability_bands
        if not (1.0 > a > b > c > 0.0):
            raise ValueError(
                f"probability bands must descend within (0, 1), got {self.probability_bands}"
            )
        if self.short_window <= 0 or self.long_window <= 0:
            raise ValueError("windows must be positive")
        if self.short_window > self.long_window:
            raise ValueError(
                f"short window {self.short_window} exceeds long window {self.long_window}"
            )
        hi, lo = self.age_fractions
        if not hi > lo > 0:
            raise ValueError(f"age fractions must descend, got {self.age_fractions}")


@dataclass(frozen=True)
class AhiScore:
    score: int
    band: Band
    basis: ScoreBasis

    def __post_init__(self) -> None:
        if band_for_score(self.score) is not self.band:
            raise ValueError(f"score {self.score} inconsistent with band {self.band}")


def probability_scores(
    p_short: ArrayLike, p_long: ArrayLike, config: AhiConfig = AhiConfig()
) -> np.ndarray:
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
        for rank in range(len(config.probability_bands), 0, -1):
            scores[p >= config.probability_bands[rank - 1]] = offset + rank
    return scores


def age_scores(
    ages: ArrayLike, average_age: float, config: AhiConfig = AhiConfig()
) -> np.ndarray:
    """Age-band score 7-10 per asset, relative to the fleet average.

    Ages under the young-age cutoff score 10 outright, so the average only
    has to be positive once it is actually compared against.
    """
    ages = np.asarray(ages, dtype=np.float64)
    if (ages < 0).any():
        raise ValueError(f"negative age {ages.min()}")
    young = ages < config.young_age_cutoff
    if average_age <= 0 and not young.all():
        raise ValueError(f"average age must be positive, got {average_age}")
    hi, lo = config.age_fractions
    scores = np.where(ages > hi * average_age, 7, np.where(ages > lo * average_age, 8, 9))
    scores[young] = 10
    return scores


# band code (index into tuple(Band)) of each score 1-10
_BAND_OF_SCORE = np.array(
    [-1, *(list(Band).index(band_for_score(s)) for s in range(1, 11))], dtype=np.int8
)
# basis code (index into tuple(ScoreBasis)) of probability and age scores
_BY_PROBABILITY = list(ScoreBasis).index(ScoreBasis.PROBABILITY)
_BY_AGE = list(ScoreBasis).index(ScoreBasis.AGE)


def score_asset(
    law: WeibullLaw,
    ages: ArrayLike,
    fleet_average_age: float,
    config: AhiConfig = AhiConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the assets of one family: probability bands first, age bands as fallback.

    ``ages`` are the ages (in years) that the probability and age bands read,
    one per asset. Returns three arrays of that length: the integer scores,
    their band codes (indices into tuple(Band)) and their basis codes
    (indices into tuple(ScoreBasis)).
    """
    ages = np.asarray(ages, dtype=np.float64)
    if (ages < 0).any():
        raise ValueError(f"negative age {ages.min()}")
    p_short = law.interval_failure_probability(ages, ages + config.short_window)
    p_long = law.interval_failure_probability(ages, ages + config.long_window)
    scores = probability_scores(p_short, p_long, config)
    by_age = scores == 0
    scores[by_age] = age_scores(ages[by_age], fleet_average_age, config)
    bases = np.where(by_age, _BY_AGE, _BY_PROBABILITY).astype(np.int8)
    return scores, _BAND_OF_SCORE[scores], bases


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
