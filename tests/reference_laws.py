"""Scalar evaluations of laws and curves that only the tests read.

The program reads a Weibull law through its cumulative hazard, the
conditional failure probability and its quantiles, and a Kaplan-Meier curve
through its step columns. The tests check those against the textbook forms
below.

* `cdf`, `survival` and `pdf` evaluate a `WeibullLaw` at one age.
* `survival_at` evaluates a `SurvivalCurve` step function at one age.
"""

from __future__ import annotations

import math

import numpy as np

from fleetlife.survival import SurvivalCurve
from fleetlife.weibull import WeibullLaw


def cdf(law: WeibullLaw, t: float) -> float:
    """F(t) = 1 - exp(-H(t))."""
    return -math.expm1(-law.cumulative_hazard(t))


def survival(law: WeibullLaw, t: float) -> float:
    """S(t) = exp(-H(t))."""
    return math.exp(-law.cumulative_hazard(t))


def pdf(law: WeibullLaw, t: float) -> float:
    """f(t) = (beta / eta) (t / eta)^(beta - 1) exp(-H(t)); at t = 0 it is
    0, 1 / eta or infinite as beta is above, at or below 1."""
    hazard = law.cumulative_hazard(t)  # rejects a negative age
    if t == 0.0:
        if law.beta > 1:
            return 0.0
        if law.beta == 1:
            return 1.0 / law.eta
        return math.inf
    z = t / law.eta
    return (law.beta / law.eta) * z ** (law.beta - 1.0) * math.exp(-hazard)


def survival_at(curve: SurvivalCurve, t: float) -> float:
    """Value of the right-continuous step function at age t."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    steps = int(np.searchsorted(curve.t, t, side="right"))
    return float(curve.survival[steps - 1]) if steps else 1.0
