"""Two-parameter Weibull reliability laws and censored-data fitting.

A law is the pair (beta, eta): shape and scale in years. Fitting comes in two
flavours. fit_weibull_mle maximizes the right-censored log-likelihood through
the one-dimensional profile equation in beta (eta has a closed form given
beta). fit_weibull_rank_regression fits a straight line to the log-log
transform of a survival curve, whose shape doubles as the MLE's starting
point and which is an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import checked, field, known, read
from .fleet import LifetimeTable, VoltageClass

if TYPE_CHECKING:
    from .survival import SurvivalCurve

__all__ = [
    "WeibullLaw",
    "FitDiagnostics",
    "FitError",
    "fit_weibull_mle",
    "fit_weibull_rank_regression",
    "REFERENCE_LAWS",
    "law_to_record",
    "law_from_record",
]

BETA_BRACKET = (0.05, 100.0)
PROFILE_TOLERANCE = 1e-10
MAX_ITERATIONS = 200

# math.log applied to each element of an array, giving an object array
_libm_log = np.frompyfunc(math.log, 1, 1)


class FitError(RuntimeError):
    """Fitting failed to converge; carries the diagnostics at abort."""

    def __init__(self, message: str, diagnostics: "FitDiagnostics | None" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class WeibullLaw:
    """Weibull reliability law with shape beta and scale eta (years)."""

    beta: float
    eta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta: shape must be positive, got {self.beta}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta: scale must be positive, got {self.eta}")

    def _check_age(self, t: float) -> None:
        if t < 0:
            raise ValueError(f"negative age {t}")

    def cumulative_hazard(self, t: float) -> float:
        """H(t) = (t / eta) ** beta; inf where it passes the float range."""
        self._check_age(t)
        try:
            return (t / self.eta) ** self.beta
        except OverflowError:
            return math.inf

    def median(self) -> float:
        return self.quantile(0.5)

    def quantile(self, p: float) -> float:
        """Age at which the failure probability reaches p."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"probability {p} outside (0, 1)")
        return self.eta * (-math.log1p(-p)) ** (1.0 / self.beta)

    def conditional_failure_probability(self, t: float, window: float) -> float:
        """Probability of failing within `window` years given survival to t.

        Computed as 1 - exp(-(H(t+window) - H(t))) with H the cumulative
        hazard. The naive 1 - S(t+window)/S(t) underflows for old assets
        under steep laws; the hazard-difference form does not. Where H(t)
        overflows the probability is 1, its limit as the scale shrinks.
        """
        self._check_age(t)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        hazard = self.cumulative_hazard(t)
        if math.isinf(hazard):
            return 1.0
        gap = self.cumulative_hazard(t + window) - hazard
        return -math.expm1(-gap)

    def interval_failure_probability(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Elementwise probability of failing between ages start and end.

        Array form of conditional_failure_probability, with end = start +
        window: 1 - exp(-(H(end) - H(start))). Ages are not checked. Where
        H(start) overflows the probability is 1, as in the scalar form.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            hazard = (start / self.eta) ** self.beta
            p = -np.expm1(hazard - (end / self.eta) ** self.beta)
        return np.where(np.isinf(hazard), 1.0, p)

    def conditional_failure_age(self, start: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Elementwise age at which the cumulative hazard exceeds H(start) by e.

        The inverse of conditional_failure_probability: for e = -log(1 - u)
        with u uniform on [0, 1), the result is the failure age of an asset
        known to survive to `start`, and
        conditional_failure_probability(start, age - start) == -expm1(-e).
        Ages are not checked. Where H(start) overflows, the age is
        start * (1 + e / H(start)) ** (1 / beta), which is start.
        """
        with np.errstate(over="ignore"):
            hazard = (start / self.eta) ** self.beta
        return np.where(np.isinf(hazard), start, self.eta * (hazard + e) ** (1.0 / self.beta))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n lifetimes by inverse-CDF transform of rng uniforms."""
        u = rng.random(n)
        return self.eta * (-np.log1p(-u)) ** (1.0 / self.beta)


@dataclass(frozen=True)
class FitDiagnostics:
    event_count: int
    censored_count: int
    log_likelihood: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "event_count": self.event_count,
            "censored_count": self.censored_count,
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
        }


# Default laws for the three voltage families, used by the bundled demo
# scenarios and available as fixtures when no fleet data is at hand.
REFERENCE_LAWS: Mapping[VoltageClass, WeibullLaw] = {
    VoltageClass.V110: WeibullLaw(beta=6.67, eta=63.79),
    VoltageClass.V150: WeibullLaw(beta=6.42, eta=74.20),
    VoltageClass.V220_380: WeibullLaw(beta=5.65, eta=77.05),
}


def law_to_record(law: WeibullLaw, family: str, source: str) -> dict:
    return {"family": family, "beta": law.beta, "eta": law.eta, "source": source}


def law_from_record(record: object, path: str = "law") -> tuple[VoltageClass, WeibullLaw, str]:
    """The family, law and source of the `law_to_record` object at field
    `path`, whose family must be a JSON string naming a family, beta and
    eta finite JSON numbers, and source, if given, a JSON string."""
    entry = known(checked(record, path, dict), ("family", "beta", "eta", "source"), path)
    family = VoltageClass.named(field(entry, "family", path, str), f"{path}.family")
    return family, read(WeibullLaw, entry, path), field(entry, "source", path, str, "unknown")


def _profile_terms(beta: float, log_t: np.ndarray) -> tuple[float, float]:
    """Softmax-weighted mean and variance of log-durations at shape beta.

    Weights proportional to t_i^beta, computed in shifted log space so no
    intermediate overflows even at the top of the beta bracket. The weighted
    sums are numpy's own reductions, not a BLAS dot product, whose rounding
    would depend on the BLAS thread count.
    """
    w = beta * log_t
    w -= w.max()
    ew = np.exp(w)
    total = ew.sum()
    mean = float(np.sum(ew * log_t) / total)
    var = float(np.sum(ew * (log_t - mean) ** 2) / total)
    return mean, var


def _profile_residual(beta: float, log_t: np.ndarray, mean_log_event: float) -> float:
    mean, _ = _profile_terms(beta, log_t)
    return mean - 1.0 / beta - mean_log_event


def _log_likelihood(
    beta: float, eta: float, log_all: np.ndarray, log_events: np.ndarray
) -> float:
    r = log_events.size
    hazard_sum = float(np.exp(beta * (log_all - math.log(eta))).sum())
    return (
        r * math.log(beta)
        + (beta - 1.0) * float(log_events.sum())
        - r * beta * math.log(eta)
        - hazard_sum
    )


def fit_weibull_mle(
    table: LifetimeTable, rank_law: WeibullLaw | None
) -> tuple[WeibullLaw, FitDiagnostics]:
    """Maximum-likelihood Weibull fit to right-censored lifetimes.

    Events contribute log pdf, censored observations log survival. The shape
    solves the profile score equation by safeguarded Newton iteration on the
    bracket [0.05, 100], started from the shape of `rank_law`, the rank
    regression on the Kaplan-Meier curve of `table`, clamped to the
    bracket, or from 1 where there is none; the scale then has a closed
    form. Needs at least two events, and every event duration must be
    positive.
    """
    events = table.duration[table.event]
    censored = table.duration[~table.event]
    r = events.size
    if r < 2:
        raise ValueError(f"insufficient events: need at least 2, got {r}")
    if (events <= 0).any():
        raise ValueError("zero-duration events cannot be fitted")

    log_events = np.log(events)
    every = np.concatenate((events, censored))
    log_all = np.log(every[every > 0])
    mean_log_event = float(log_events.mean())

    lo, hi = BETA_BRACKET
    g_lo = _profile_residual(lo, log_all, mean_log_event)
    g_hi = _profile_residual(hi, log_all, mean_log_event)

    beta = 1.0 if rank_law is None else min(max(rank_law.beta, lo), hi)
    iterations = 0
    converged = False
    if g_lo < 0.0 < g_hi:
        a, b = lo, hi
        for iterations in range(1, MAX_ITERATIONS + 1):
            mean, var = _profile_terms(beta, log_all)
            g = mean - 1.0 / beta - mean_log_event
            if abs(g) <= PROFILE_TOLERANCE:
                converged = True
                break
            if g > 0.0:
                b = beta
            else:
                a = beta
            slope = var + 1.0 / (beta * beta)
            step = beta - g / slope
            beta = step if a < step < b else 0.5 * (a + b)

    eta = _profile_eta(beta, log_all, r)
    diagnostics = FitDiagnostics(
        event_count=r,
        censored_count=censored.size,
        log_likelihood=_log_likelihood(beta, eta, log_all, log_events),
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise FitError(
            f"profile equation did not converge within {MAX_ITERATIONS} iterations "
            f"on beta bracket {BETA_BRACKET}",
            diagnostics,
        )
    return WeibullLaw(beta=beta, eta=eta), diagnostics


def _profile_eta(beta: float, log_all: np.ndarray, r: int) -> float:
    shift = float((beta * log_all).max())
    log_sum = shift + math.log(float(np.exp(beta * log_all - shift).sum()))
    return math.exp((log_sum - math.log(r)) / beta)


def fit_weibull_rank_regression(curve: SurvivalCurve) -> WeibullLaw:
    """Least-squares fit of log(-log S) against log t over curve steps.

    Steps with survival 0 or 1 (or zero time) fall outside the transform's
    domain and are skipped. The slope is the shape; the scale follows from
    the intercept. The logs are libm's ``math.log`` per value: numpy's
    vectorised ``np.log`` differs from it in the last bit on some inputs,
    which would move the fitted law.
    """
    usable = (curve.survival > 0.0) & (curve.survival < 1.0) & (curve.t > 0.0)
    count = int(usable.sum())
    if count < 2:
        raise ValueError(f"rank regression needs at least 2 usable curve points, got {count}")
    xs = _libm_log(curve.t[usable]).astype(np.float64)
    ys = _libm_log(-_libm_log(curve.survival[usable])).astype(np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    beta = float(slope)
    if beta <= 0:
        raise ValueError(f"non-increasing survival transform (slope {beta})")
    return WeibullLaw(beta=beta, eta=math.exp(-float(intercept) / beta))
