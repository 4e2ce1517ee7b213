"""The clock of the simulation engine, and the open pool's path.

Ages are whole units of a grid of 1/16 day. A generation's age is its age
at its origin (the tick it counts its age from: 0 for generation 0, else
its replacement tick) plus one tick a tick, so its replacement trigger and
the due ticks of its cadences are found in closed form, once, by
`trigger_delay` and `first_due`; the tick loop of `simulate._Engine` and
the open pool both read them.

Under `Unconstrained` no queue couples the assets, so each asset's history
is a chain of generations, and `run_open_pool` simulates it one round of
generations at a time rather than tick by tick. Every generation ends at
its failure tick or its trigger tick, whichever comes first (a failure wins
a tie, as failures are drawn before triggers). The ticks at which a cadence
is due are an arithmetic progression, so each year's inspections are
counted rather than listed. A run gives the counts the tick loop executes
under a pool that never binds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .simulate import _Engine

# The clock's grid is 1/16 day: a month of 365.25 / 12 days is 487 units and
# a year 5844, so ages from day counts and whole ticks are exact integers.
UNITS_PER_DAY = 16
UNITS_PER_MONTH = 487
UNITS_PER_YEAR = 12 * UNITS_PER_MONTH


def due_before(first: np.ndarray, period: np.ndarray, end: np.ndarray) -> np.ndarray:
    """How many of the due ticks ``first + m * period`` (m >= 0) lie below
    `end`: none if `end` is `first` or earlier."""
    # the ceiling of (end - first) / period, in four calls on arrays
    return np.maximum((end - 1 - first) // period + 1, 0)


def trigger_delay(
    age: np.ndarray, rate: np.ndarray, trigger_age: np.ndarray, tick: int, limit: int
) -> np.ndarray:
    """Ticks from each generation's origin to the first tick at which it
    reaches its replacement trigger, or `limit` if none before: the rule is
    that the age (grid units), `age` at the origin plus `tick` a tick, in
    years times the trigger `rate` (1 for time-based, the degradation rate
    for condition-based) reaches `trigger_age`.

    A replacement's generation is armed from the tick after its origin, but
    needs no bound for it: at age 0 it cannot reach a positive trigger.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.ceil((trigger_age * UNITS_PER_YEAR / rate - age) / tick)
    d = np.clip(np.nan_to_num(guess, nan=limit), 0, limit).astype(np.int64)

    def reached(i: np.ndarray, at: np.ndarray) -> np.ndarray:
        return (age[i] + at * tick) / UNITS_PER_YEAR * rate[i] >= trigger_age[i]

    # the guess is off by a rounding at most; the rule is monotone in the
    # age, so step back while the tick before meets it, then forward while
    # the tick does not
    i = np.flatnonzero(d > 0)
    while len(i):
        i = i[reached(i, d[i] - 1)]
        d[i] -= 1
        i = i[d[i] > 0]
    i = np.flatnonzero(d < limit)
    while len(i):
        i = i[~reached(i, d[i])]
        d[i] += 1
        i = i[d[i] < limit]
    return d


def first_due(
    start: np.ndarray,
    age: np.ndarray,
    origin: np.ndarray,
    first: np.ndarray,
    period: np.ndarray,
    tick: int,
) -> np.ndarray:
    """The first tick, `first` or later, at which a cadence of start age
    `start` (grid units) and `period` ticks is due for a generation of age
    `age` at tick `origin`.

    The cadence is due, by the rule ``since >= 0 and since % interval <
    tick`` on ``since = age - start``, at ``anchor + m * period`` for m >=
    0, where ``anchor`` is the first tick at which the age reaches `start`.
    """
    anchor = origin - (age - start) // tick
    return anchor + due_before(anchor, period, first) * period


def run_open_pool(
    engine: _Engine,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int]:
    """One replication of the engine's scenario under an open pool: failures
    per year, replacements and inspections executed per (year, activity),
    requests raised per class (corrective, planned, inspection), and
    inspections dropped.

    A failed generation is replaced in its failure tick and a triggered one
    in its trigger tick, so every request executes in the tick that raises
    it except the inspections raised with a planned replacement, which are
    dropped.
    """
    asset, generation, origin, end, failed = _generations(engine)
    n_ticks, tpy, n_specs = engine.n_ticks, engine.ticks_per_year, len(engine.specs)
    horizon = n_ticks // tpy
    done = np.flatnonzero(end < n_ticks)
    rep_year, rep_failed = end[done] // tpy, failed[done]
    rep_spec = np.where(
        rep_failed, engine.corrective_spec[asset[done]], engine.planned_spec[asset[done]]
    )
    failures = np.bincount(rep_year[rep_failed], minlength=horizon)
    replaced = np.bincount(
        rep_year * n_specs + rep_spec, minlength=horizon * n_specs
    ).reshape(horizon, n_specs)
    *pairs, dropped = _cadence_pairs(engine, asset, generation, origin, end, failed)
    inspected = _count_inspections(engine, *pairs)
    n_failed = int(rep_failed.sum())
    raised = [n_failed, len(done) - n_failed, int(inspected.sum()) + dropped]
    return failures, replaced, inspected, raised, dropped


def _generations(engine: _Engine) -> tuple[np.ndarray, ...]:
    """Every generation that starts within the horizon, a round at a time.

    Each round ends the current generation of every asset still in the
    horizon at its failure tick or its trigger tick, whichever is first,
    and starts the next one at age 0 in that tick. Returns, per generation:
    its asset, its number, its origin, its end tick (at least n_ticks when
    it outlives the horizon) and whether it ends by failure.
    """
    n_ticks = engine.n_ticks
    asset = np.arange(len(engine.age0))
    generation = np.zeros(len(asset), dtype=np.int64)
    origin = np.zeros(len(asset), dtype=np.int64)
    rounds = []
    while len(asset):
        fail, trigger = engine._generation_rules(asset, generation, origin)
        end = np.minimum(fail, trigger)
        rounds.append((asset, generation, origin, end, fail <= trigger))
        on = np.flatnonzero(end < n_ticks)
        asset, generation, origin = asset[on], generation[on] + 1, end[on]
    return tuple(np.concatenate(column) for column in zip(*rounds))


def _cadence_pairs(
    engine: _Engine,
    asset: np.ndarray,
    generation: np.ndarray,
    origin: np.ndarray,
    end: np.ndarray,
    failed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The inspections of every (generation, cadence entry) pair.

    A generation raises inspections at its cadences' due ticks (`first_due`)
    from its first armed tick (its origin, or the tick after for a
    replacement), and executes them up to the tick before its end; the tick
    of a planned replacement raises the ones it drops. Returns, per pair
    that executes any, its first due tick, period, end (exclusive) and
    activity, and the number of inspections dropped.
    """
    n_ticks, tick = engine.n_ticks, engine.tick_units
    armed = origin + (generation > 0)
    age = np.where(generation == 0, engine.age0[asset], 0)
    stop = np.minimum(end, n_ticks)
    planned = (end < n_ticks) & ~failed
    empty = np.empty(0, dtype=np.int32)
    pairs, dropped = [(empty,) * 4], 0
    # a cadence slot of the plans at a time, to bound the arrays in flight
    for slot in range(engine.entries_of.shape[1]):
        entries = engine.entries_of[asset, slot]
        row = np.flatnonzero(entries >= 0)
        entry = entries[row]
        period = engine.entry_period[entry]
        start = engine.entry_start[entry]
        first = first_due(start, age[row], origin[row], armed[row], period, tick)
        last = stop[row]
        due_last = (last >= first) & ((last - first) % period == 0)
        dropped += int(np.count_nonzero(planned[row] & due_last))
        keep = np.flatnonzero(first < last)
        # ticks and activity ids fit an int32, which halves the pairs held
        columns = (first, period, last, engine.entry_spec[entry])
        pairs.append(tuple(column[keep].astype(np.int32) for column in columns))
    return (*(np.concatenate(column) for column in zip(*pairs)), dropped)


def _count_inspections(
    engine: _Engine, first: np.ndarray, period: np.ndarray, stop: np.ndarray, spec: np.ndarray
) -> np.ndarray:
    """Inspections executed per (year, activity) by the pairs of
    `_cadence_pairs`: the ticks ``first + m * period`` below `stop`, counted
    a year at a time over the pairs active in it."""
    tpy, n_specs = engine.ticks_per_year, len(engine.specs)
    horizon = engine.n_ticks // tpy
    inspected = np.zeros((horizon, n_specs), dtype=np.int64)
    # pairs join in the year of their first due tick and leave after the
    # year of their last
    order = np.argsort(first)
    joins = np.searchsorted(first[order], np.arange(horizon + 1) * tpy).tolist()
    active = order[:0]
    for year in range(horizon):
        k0, k1 = year * tpy, (year + 1) * tpy
        joining = order[joins[year] : joins[year + 1]]
        active = np.concatenate((active[stop[active] > k0], joining))
        f, p = first[active], period[active]
        # due ticks below min(stop, k1), less those below k0
        count = due_before(f, p, np.minimum(stop[active], k1)) - due_before(f, p, k0)
        inspected[year] = np.bincount(spec[active], weights=count, minlength=n_specs)
    return inspected
