"""Kaplan-Meier product-limit estimation on right-censored lifetimes.

The estimator builds one step per distinct event time; censored observations
reduce the at-risk count for later times but create no step of their own.
Ties are resolved events-first: an observation censored at time t is still at
risk for events happening at t. The resulting step function is
right-continuous, so the value AT an event time is the post-drop value.

The fit works on the columns of a LifetimeTable and returns the curve as
columns too, one entry per step. Distinct event times and their event counts
come from sorting the event durations, and each at-risk count from a search
in the sorted durations. The running product is a float64 cumulative product
of the step ratios (n - d) / n. Each ratio is one correctly rounded division
and each step one rounded multiplication, so the value after k steps is
within a relative k * 2**-52 of the exact rational product; rounding errors
mostly cancel, and the tests hold it to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .fleet import LifetimeTable

__all__ = ["UNBOUNDED", "SurvivalCurve", "km_fit", "write_curve_csv"]

# Returned by quantile() when the curve never drops to the requested level.
UNBOUNDED = float("inf")


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Step-function survival estimate with at-risk/event bookkeeping.

    One entry per step, in increasing time: ``t`` (float64 years),
    ``n_at_risk`` and ``d_events`` (int64), and ``survival``, the float64
    value from ``t`` on.
    """

    t: np.ndarray
    n_at_risk: np.ndarray
    d_events: np.ndarray
    survival: np.ndarray

    def survival_at(self, t: float) -> float:
        """Value of the right-continuous step function at age t."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        steps = int(np.searchsorted(self.t, t, side="right"))
        return float(self.survival[steps - 1]) if steps else 1.0

    def quantile(self, q: float) -> float:
        """Smallest t with S(t) <= 1 - q, or UNBOUNDED if never reached."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level {q} outside (0, 1)")
        reached = self.survival <= 1.0 - q
        return float(self.t[np.argmax(reached)]) if reached.any() else UNBOUNDED

    def median(self) -> float:
        return self.quantile(0.5)


def km_fit(table: LifetimeTable) -> SurvivalCurve:
    """Fit the product-limit estimator to every row of the table.

    With no events at all the curve is the constant 1 (no steps). The
    at-risk count at a time t is the number of rows with duration >= t, so
    rows censored at t still count there (events first). The survival value
    of each step is the float64 running product of the step ratios.
    """
    n = len(table)
    if n == 0:
        raise ValueError("no observations")
    ends = np.sort(table.duration[table.event])
    # a step starts wherever the sorted event time changes (durations >= 0)
    first = np.flatnonzero(np.diff(ends, prepend=-1.0))
    times = ends[first]
    deaths = np.diff(first, append=ends.size)
    at_risk = n - np.searchsorted(np.sort(table.duration), times)
    survival = np.cumprod((at_risk - deaths) / at_risk)
    return SurvivalCurve(times, at_risk, deaths, survival)


def write_curve_csv(curve: SurvivalCurve, stream: IO[str]) -> None:
    """One line per step: t,n_at_risk,d_events,survival, floats as repr."""
    lines = ["t,n_at_risk,d_events,survival"]
    lines.extend(
        f"{t!r},{n},{d},{s!r}"
        for t, n, d, s in zip(
            curve.t.tolist(),
            curve.n_at_risk.tolist(),
            curve.d_events.tolist(),
            curve.survival.tolist(),
        )
    )
    stream.write("\n".join(lines) + "\n")
