"""Correctness checks computed apart from the program.

Each check reads the CLI's artifacts and compares them with a computation
made here, with numpy or scipy, or with a property the method must have. No
check compares against a stored copy of earlier output. A check returns
``(ok, detail)``; the caller counts a failed check as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize

DAYS_PER_YEAR = 365.25
MONEY = ("capex", "opex", "totex")
CENT_TOLERANCE = 0.0051  # report.json quantizes each money figure to cents


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def family_of(kv: int) -> str:
    return "220_380" if kv in (220, 380) else str(kv)


def lifetimes(assets_csv: Path, cutoff: str) -> dict:
    """Per-family (duration, event) arrays, durations as days / 365.25."""
    rows = read_csv(assets_csv)
    commission = np.array([r["commission_date"] for r in rows], dtype="datetime64[D]")
    failure = np.array([r["failure_date"] or cutoff for r in rows], dtype="datetime64[D]")
    event = np.array([bool(r["failure_date"]) for r in rows])
    days = (failure - commission).astype(np.int64)
    family = np.array([family_of(int(r["voltage_kv"])) for r in rows])
    return {
        "ids": [r["asset_id"] for r in rows],
        "family": family,
        "duration": days / DAYS_PER_YEAR,
        "event": event,
        "commission": commission,
    }


def km_numpy(duration: np.ndarray, event: np.ndarray):
    """Product-limit steps (t, at_risk, events, survival) from np.unique counts."""
    times, inverse, counts = np.unique(duration, return_inverse=True, return_counts=True)
    deaths = np.bincount(inverse, weights=event.astype(float), minlength=times.size)
    at_risk = duration.size - np.concatenate(([0], np.cumsum(counts)[:-1]))
    step = deaths > 0
    survival = np.cumprod(1.0 - deaths[step] / at_risk[step])
    return times[step], at_risk[step], deaths[step].astype(np.int64), survival


def check_km_curve(curve_csv: Path, duration: np.ndarray, event: np.ndarray):
    t, n, d, s = km_numpy(duration, event)
    rows = read_csv(curve_csv)
    if len(rows) != t.size:
        return False, f"{len(rows)} curve points, numpy KM has {t.size}"
    got_t = np.array([float(r["t"]) for r in rows])
    got_n = np.array([int(r["n_at_risk"]) for r in rows])
    got_d = np.array([int(r["d_events"]) for r in rows])
    got_s = np.array([float(r["survival"]) for r in rows])
    if not (np.array_equal(got_t, t) and np.array_equal(got_n, n) and np.array_equal(got_d, d)):
        return False, "event times or risk-set counts differ from numpy KM"
    worst = float(np.max(np.abs(got_s - s))) if s.size else 0.0
    return worst <= 1e-12, f"max |S - S_numpy| = {worst:.2e}"


def weibull_mle_scipy(duration: np.ndarray, event: np.ndarray) -> tuple[float, float]:
    """Censored Weibull MLE by trust-region Newton on (log beta, log eta)."""
    positive = duration > 0
    log_t = np.log(duration[positive])
    log_events = np.log(duration[event & positive])
    r, sum_log_events = log_events.size, float(log_events.sum())

    def terms(x):
        beta, log_eta = math.exp(x[0]), x[1]
        u = log_t - log_eta
        w = np.exp(beta * u)
        return beta, log_eta, u, w

    def negative_loglik(x):
        beta, log_eta, _, w = terms(x)
        return -(r * math.log(beta) + (beta - 1.0) * sum_log_events
                 - r * beta * log_eta - float(w.sum()))

    def gradient(x):
        beta, log_eta, u, w = terms(x)
        d_b = r + beta * (sum_log_events - r * log_eta - float(w @ u))
        d_e = beta * (float(w.sum()) - r)
        return -np.array([d_b, d_e])

    def hessian(x):
        beta, log_eta, u, w = terms(x)
        wu, wuu, ws = float(w @ u), float(w @ (u * u)), float(w.sum())
        h_bb = beta * (sum_log_events - r * log_eta - wu) - beta * beta * wuu
        h_be = beta * (ws - r) + beta * beta * wu
        h_ee = -beta * beta * ws
        return -np.array([[h_bb, h_be], [h_be, h_ee]])

    start = np.array([0.0, float(log_t.mean())])
    result = optimize.minimize(negative_loglik, start, jac=gradient, hess=hessian,
                               method="trust-exact", options={"gtol": 1e-9, "maxiter": 500})
    # Near the optimum rounding can stop the trust region from predicting an
    # improvement; finish with plain Newton steps and accept the point once
    # the step is far below the 1e-6 comparison tolerance.
    x = result.x
    for _ in range(10):
        step = np.linalg.solve(hessian(x), gradient(x))
        x = x - step
        if np.max(np.abs(step)) < 1e-10:
            break
    if not np.max(np.abs(step)) < 1e-8:
        raise RuntimeError(f"scipy MLE did not converge: {result.message}")
    return math.exp(x[0]), math.exp(x[1])


def mle_records(law_json: Path) -> dict:
    payload = json.loads(Path(law_json).read_text())
    return {rec["family"]: rec for rec in payload["laws"] if rec["source"] == "mle"}


def check_mle(record: dict, reference: tuple[float, float]):
    beta, eta = reference
    ok = close(record["beta"], beta, 1e-6) and close(record["eta"], eta, 1e-6)
    return ok, (f"program beta={record['beta']:.9g} eta={record['eta']:.9g}, "
                f"scipy beta={beta:.9g} eta={eta:.9g}")


def check_law_recovery(record: dict, generating: tuple[float, float]):
    beta, eta = generating
    db = abs(record["beta"] / beta - 1.0)
    de = abs(record["eta"] / eta - 1.0)
    return db <= 0.05 and de <= 0.02, f"|beta/beta0-1|={db:.4f} (<=0.05), |eta/eta0-1|={de:.4f} (<=0.02)"


# Scoring thresholds and windows as documented in the README.
SHORT_WINDOW, LONG_WINDOW = 3.0, 7.0
PROBABILITY_BANDS = (0.8, 0.5, 0.2)
AGE_FRACTIONS = (0.75, 0.60)
YOUNG_AGE = 5.0
BANDS = {1: "purple", 2: "purple", 3: "purple", 4: "red", 5: "red", 6: "red",
         7: "orange", 8: "orange", 9: "green", 10: "green"}


def expected_scores(age: np.ndarray, beta: float, eta: float):
    """Scores 1-10 from 1-exp(-(H(a+w)-H(a))) and the age bands.

    Also returns a mask of ages that lie within 1e-9 of a threshold, where
    the last bit of the arithmetic may legitimately pick either side.
    """
    def hazard(t):
        return (t / eta) ** beta

    p_short = -np.expm1(-(hazard(age + SHORT_WINDOW) - hazard(age)))
    p_long = -np.expm1(-(hazard(age + LONG_WINDOW) - hazard(age)))
    average = float(age.mean())
    score = np.where(age < YOUNG_AGE, 10,
                     np.where(age > AGE_FRACTIONS[0] * average, 7,
                              np.where(age > AGE_FRACTIONS[1] * average, 8, 9)))
    for offset, p in ((3, p_long), (0, p_short)):
        for rank in (3, 2, 1):
            score = np.where(p >= PROBABILITY_BANDS[rank - 1], offset + rank, score)
    edges = [p_short - b for b in PROBABILITY_BANDS] + [p_long - b for b in PROBABILITY_BANDS]
    edges += [age - YOUNG_AGE] + [age - f * average for f in AGE_FRACTIONS]
    ambiguous = np.any(np.abs(np.array(edges)) < 1e-9, axis=0)
    return score, ambiguous


def check_ahi(ahi_csv: Path, life: dict, as_of: str, laws: dict):
    """One row per in-service asset; score, band and basis recomputed."""
    rows = read_csv(ahi_csv)
    in_service = ~life["event"]
    ids = [i for i, keep in zip(life["ids"], in_service) if keep]
    if [r["asset_id"] for r in rows] != ids:
        return False, f"{len(rows)} rows, expected {len(ids)} in-service assets in input order"
    age = (np.datetime64(as_of, "D") - life["commission"][in_service]).astype(np.int64) / DAYS_PER_YEAR
    family = life["family"][in_service]
    got_score = np.array([int(r["score"]) for r in rows])
    got_age = np.array([float(r["apparent_age"]) for r in rows])
    mismatches, ambiguous_total = 0, 0
    for fam, law in laws.items():
        mask = family == fam
        want, ambiguous = expected_scores(age[mask], law["beta"], law["eta"])
        ambiguous_total += int(ambiguous.sum())
        mismatches += int(np.sum((got_score[mask] != want) & ~ambiguous))
    bands_ok = all(r["band"] == BANDS[int(r["score"])] for r in rows)
    basis_ok = all(r["basis"] == ("probability" if int(r["score"]) <= 6 else "age") for r in rows)
    age_ok = bool(np.all(np.abs(got_age - age) <= 5.1e-5))
    ok = mismatches == 0 and bands_ok and basis_ok and age_ok
    return ok, (f"{len(rows)} rows, {mismatches} score mismatches "
                f"({ambiguous_total} at a threshold), bands {bands_ok}, basis {basis_ok}, ages {age_ok}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def inspection_specs(scenario: dict) -> list[tuple[float, int, float]]:
    """Distinct (duration_hours, required_fte, cost) of the inspections."""
    specs = {(a["duration_hours"], a["required_fte"], a["material_cost"] + a["workforce_cost"])
             for a in scenario["activities"] if a["kind"] == "inspection"}
    return sorted(specs)


def replacement_person_hours(scenario: dict) -> float:
    hours = {a["duration_hours"] * a["required_fte"]
             for a in scenario["activities"] if a["kind"] != "inspection"}
    if len(hours) != 1:
        raise ValueError(f"expected one replacement workload, got {sorted(hours)}")
    return hours.pop()


def replacement_duration(scenario: dict) -> float:
    return min(a["duration_hours"] for a in scenario["activities"] if a["kind"] != "inspection")


def inspection_counts(hours: float, opex: float, specs):
    """Solve hours and OPEX for whole counts of the two inspection kinds.

    Returns the counts, or None when no non-negative integer pair
    reproduces both figures.
    """
    (h1, _, c1), (h2, _, c2) = specs
    x = np.linalg.solve(np.array([[h1, h2], [c1, c2]]), np.array([hours, opex]))
    counts = [int(round(v)) for v in x]
    if min(counts) < 0:
        return None
    if not close(counts[0] * h1 + counts[1] * h2, hours, 1e-9, 1e-6):
        return None
    if abs(counts[0] * c1 + counts[1] * c2 - opex) > CENT_TOLERANCE:
        return None
    return counts


def yearly_activity(replication: dict, scenario: dict):
    """Per-year inspection counts (or None where the solve fails)."""
    specs = inspection_specs(scenario)
    return [inspection_counts(h, o, specs)
            for h, o in zip(replication["inspection_hours"], replication["opex"])]


def check_integer_inspections(report: dict, scenario: dict):
    bad = sum(c is None for rep in report["replications"] for c in yearly_activity(rep, scenario))
    return bad == 0, f"{bad} replication-years without a non-negative integer solve"


def check_zero_backlog(report: dict):
    worst = max(max(rep["backlog_hours"]) for rep in report["replications"])
    return worst == 0.0, f"largest backlog {worst} h"


def check_unavailability(report: dict, scenario: dict):
    per_replacement = replacement_duration(scenario)
    bad = 0
    for rep in report["replications"]:
        for u, h, n in zip(rep["unavailability_hours"], rep["inspection_hours"], rep["replacements"]):
            floor = h + per_replacement * n
            bad += u < floor - 1e-9 * max(1.0, floor)
    return bad == 0, f"{bad} years below inspection hours + {per_replacement:g} h x replacements"


def early_failure_probabilities(fleet_csv: Path, scenario: dict, years: int) -> np.ndarray:
    """Probability that each asset of the fleet fails within the first years.

    Ages start at the newest commissioning date; each tick samples failure
    over the next tick. A time-based replacement at the first tick past the
    trigger age, or a corrective one after a failure, renews the asset. Only
    the original assets count: a renewed asset's cumulative hazard over 20
    years is below 5e-4 under every bundled law, so renewals add well under
    one expected failure, which the slack of the bound covers.
    """
    rows = read_csv(fleet_csv)
    commission = np.array([r["commission_date"] for r in rows], dtype="datetime64[D]")
    age0 = (commission.max() - commission).astype(np.int64) / DAYS_PER_YEAR
    family = np.array([family_of(int(r["voltage_kv"])) for r in rows])
    tick = scenario["tick_months"] / 12.0
    ticks = years * 12 // scenario["tick_months"]
    q = np.empty(age0.size)
    for fam in np.unique(family):
        policy = scenario["policy"][fam]["replacement"]
        if policy["type"] != "time_based":
            raise ValueError("the early-failure bound assumes time-based replacement")
        law = scenario["laws"][fam]
        mask = family == fam
        a = age0[mask]
        steps = np.ceil(np.maximum(policy["age_years"] - a, 0.0) / tick - 1e-9)
        last = a + np.minimum(steps, ticks - 1) * tick
        gap = ((last + tick) / law["eta"]) ** law["beta"] - (a / law["eta"]) ** law["beta"]
        q[mask] = -np.expm1(-gap)
    return q


def check_early_failures(report: dict, q: np.ndarray, years: int):
    mean, sd = float(q.sum()), math.sqrt(float((q * (1 - q)).sum()))
    observed = [sum(rep["failures"][:years]) for rep in report["replications"]]
    ok = all(abs(x - mean) <= 5.0 * sd + 2.0 for x in observed)
    return ok, f"failures in years 0-{years - 1}: {observed}, expected {mean:.1f} +- (5 x {sd:.2f} + 2)"


def check_capacity(report: dict, scenario: dict):
    cap = scenario["resources"]["fte_count"] * scenario["resources"]["hours_per_fte_per_year"]
    specs = inspection_specs(scenario)
    per_replacement = replacement_person_hours(scenario)
    worst, bad = 0.0, 0
    for rep in report["replications"]:
        for counts, n in zip(yearly_activity(rep, scenario), rep["replacements"]):
            if counts is None:
                bad += 1
                continue
            used = sum(c * h * fte for c, (h, fte, _) in zip(counts, specs)) + per_replacement * n
            worst = max(worst, used)
            bad += used > cap * (1 + 1e-9)
    return bad == 0, f"largest yearly use {worst:.2f} of {cap:g} person-hours, {bad} bad years"


def check_end_backlog(report: dict):
    ends = [rep["backlog_hours"][-1] for rep in report["replications"]]
    return all(e > 0 for e in ends), f"end backlog per replication {ends}"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(values)
    h = (len(xs) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def check_aggregates(report: dict):
    bad = []
    n = len(report["replications"])
    for name, agg in report["aggregates"].items():
        tol = CENT_TOLERANCE if name in MONEY else 1e-9
        for year in range(report["horizon_years"]):
            values = [float(rep[name][year]) for rep in report["replications"]]
            want = (sum(values) / n, percentile(values, 10), percentile(values, 90))
            got = (agg["mean"][year], agg["p10"][year], agg["p90"][year])
            if not all(close(g, w, 1e-9, tol) for g, w in zip(got, want)):
                bad.append((name, year))
    return not bad, f"{len(bad)} (metric, year) aggregates off, first {bad[:3]}"


def check_comparison(report_a: dict, report_b: dict, comparison_csv: Path, summary_json: Path):
    a = report_a["aggregates"]["totex"]["mean"]
    b = report_b["aggregates"]["totex"]["mean"]
    delta = [x - y for x, y in zip(a, b)]
    cumulative = list(np.cumsum(delta))
    crossover, first = None, 0.0
    for year, value in enumerate(cumulative):
        if value == 0.0:
            continue
        sign = math.copysign(1.0, value)
        if first == 0.0:
            first = sign
        elif sign != first:
            crossover = year
            break
    rows = read_csv(comparison_csv)
    table_ok = len(rows) == len(a) and all(
        int(r["year"]) == i
        and close(float(r["totex_a_mean"]), a[i], 1e-12)
        and close(float(r["totex_b_mean"]), b[i], 1e-12)
        and close(float(r["delta"]), delta[i], 1e-9, 1e-6)
        and close(float(r["cumulative_delta"]), cumulative[i], 1e-9, 1e-6)
        for i, r in enumerate(rows))
    summary = json.loads(Path(summary_json).read_text())
    summary_ok = (summary["scenario_a"] == report_a["scenario_name"]
                  and summary["scenario_b"] == report_b["scenario_name"]
                  and close(summary["cumulative_totex_a"], sum(a), 1e-9)
                  and close(summary["cumulative_totex_b"], sum(b), 1e-9)
                  and summary["crossover_year"] == crossover)
    return table_ok and summary_ok, f"table {table_ok}, summary {summary_ok}, crossover {crossover}"


# ---------------------------------------------------------------------------
# provenance: every input file a command read is hashed in its manifest
# ---------------------------------------------------------------------------


def check_manifest_inputs(out_dir: Path, inputs: list[Path]):
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    recorded = set(manifest["inputs"].values())
    missing = [p.name for p in inputs if sha256(p) not in recorded]
    return not missing, f"inputs not hashed in manifest: {missing}" if missing else "all inputs hashed"
