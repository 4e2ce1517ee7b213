"""The clock of the simulation engine, the open pool's path and the
constrained pool's replacement pass.

Ages are whole units of a grid of 1/16 day. A generation's age is its age
at its origin (the tick it counts its age from: 0 for generation 0, else
its replacement tick) plus one tick a tick, so its replacement trigger and
the due ticks of its cadences are found in closed form, once, by
`trigger_delay` and `first_due`; both pools of `simulate._Engine` read
them.

Under `Unconstrained` no queue couples the assets, so each asset's history
is a chain of generations, and `run_open_pool` simulates it one round of
generations at a time rather than tick by tick. Every generation ends at
its failure tick or its trigger tick, whichever comes first (a failure wins
a tie, as failures are drawn before triggers). The ticks at which a cadence
is due are an arithmetic progression, so each year's inspections are
counted rather than listed. A run gives the counts a constrained pool
executes when it never binds.

Under `Constrained`, `schedule_replacements` walks the replacements of the
whole run first, tick by tick, and the engine then walks the inspections
on the budget they leave; both spend a budget by the rule of
`_greedy_walk`.
"""

from __future__ import annotations

import math
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


def _greedy_walk(demand: np.ndarray, remaining: float) -> tuple[np.ndarray, float]:
    """Execute requests in queue order within a budget, skipping misfits.

    Returns the positions executed and the capacity left. Each request that
    fits the remaining budget executes and spends its person-hours; one that
    does not is carried. The walk goes a run at a time: a misfit is skipped
    and so is every later request at least as large, since the budget only
    shrinks. `np.subtract.accumulate` subtracts left to right,
    so the budget evolves in exactly the float steps of a scalar loop.
    """
    executed: list[np.ndarray] = []
    # the positions still to walk and their demand
    pos, tail = np.arange(len(demand)), demand
    while len(pos):
        left = np.subtract.accumulate(np.concatenate(([remaining], tail)))
        # demand is never negative, so the budget only falls: all fit if
        # the last does
        if left[-1] >= 0:
            executed.append(pos)
            remaining = float(left[-1])
            break
        # left[0] is the budget, never negative
        misfit = int((left < 0).argmax())
        executed.append(pos[: misfit - 1])
        remaining = float(left[misfit - 1])
        fits = tail[misfit:] <= remaining
        pos, tail = pos[misfit:][fits], tail[misfit:][fits]
    if len(executed) == 1:
        return executed[0], remaining
    # no request at all leaves `pos` empty
    return np.concatenate(executed or [pos]), remaining


def schedule_replacements(engine: _Engine) -> dict[int, tuple]:
    """Walk the replacements of a constrained pool over the whole run, tick
    by tick, ahead of its inspections: they never wait on an inspection.

    A tick's new requests come from two calendars (due tick to assets),
    filled as each generation starts; a failure entry whose asset was
    renewed first is stale. Each class's pending requests are walked in
    (request tick, id) order, corrective before planned, by the rule of
    `_greedy_walk` in the same float steps: a request executes if
    its person-hours are at most the budget left, and the walk stops once
    the budget is below the class's floor. A failed asset may be replaced
    by either of its requests; the other one is then dropped.

    It books the failures, replacements, gap ticks, the replacement requests
    pending at each year end (`engine.queued`) and the request counters, and
    leaves the assets' ticks and generations in their end state. Returns,
    for each tick at which an asset fails or is replaced: the budget left,
    the assets that fail and those replaced (the first `corrective` of them
    by their corrective request).

    Each event touches a few assets, so their state is read and written an
    int at a time: `ticks` are views of the rows of `engine.ticks`, and a
    renewed generation's ticks are read from views of the rows of
    `engine.tables`, taken again when the tables double.
    """
    n_ticks, tpy, n_specs = engine.n_ticks, engine.ticks_per_year, len(engine.specs)
    spec_of = (engine.corrective_spec, engine.planned_spec)
    specs = [spec.tolist() for spec in spec_of]
    hours = engine.person_hours.tolist()
    floors = [float(engine.person_hours[spec].min(initial=math.inf)) for spec in spec_of]
    # the assets' failure and trigger ticks, and the calendars of the
    # requests they raise: a generation raises its corrective request at
    # its failure tick and its planned one at its trigger tick
    ticks = [memoryview(row) for row in engine.ticks]
    calendars: list[list] = [[[] for _ in range(n_ticks)] for _ in ticks]
    for tick, calendar in zip(ticks, calendars):
        for a, t in enumerate(tick):
            if t < n_ticks:
                calendar[t].append(a)
    # rows[cls][g][a] is tables[cls, g, a]
    rows = [list(map(memoryview, table)) for table in engine.tables]
    generation = engine.generation.tolist()
    n_assets = len(generation)
    # each class's requests pending, in (request tick, id) order, one asset
    # each; a request whose asset was renewed by the other one stays listed
    # until the walk reaches it, counted in `stale`
    pending: tuple[list[int], list[int]] = ([], [])
    stale = ([0] * n_assets, [0] * n_assets)
    queued, raised = [0] * n_specs, [0, 0]
    replaced = engine.replaced.tolist()
    failures, gap_ticks = [0] * len(replaced), [0] * len(replaced)
    events, examined, dropped = {}, 0, 0
    for k in range(n_ticks):
        year = k // tpy
        # an asset renewed before a failure tick it was listed at may fail
        # again at that tick, and be listed twice
        failed = sorted({a for a in calendars[0][k] if ticks[0][a] == k})
        for cls, new in enumerate((failed, sorted(calendars[1][k]))):
            pending[cls].extend(new)
            raised[cls] += len(new)
            for a in new:
                queued[specs[cls][a]] += 1
        calendars[0][k] = calendars[1][k] = None
        failures[year] += len(failed)
        remaining, done = engine.capacity, ([], [])
        for cls, queue in enumerate(pending):
            i, kept, skipped = 0, [], stale[cls]
            while i < len(queue) and remaining >= floors[cls]:
                a = queue[i]
                i += 1
                spec = specs[cls][a]
                if skipped[a]:
                    skipped[a] -= 1
                elif hours[spec] <= remaining:
                    remaining -= hours[spec]
                    done[cls].append(a)
                    queued[spec] -= 1
                    replaced[year][spec] += 1
                else:
                    kept.append(a)
            queue[:i] = kept
            examined += i
            for a in done[cls]:
                if ticks[0][a] > k:
                    continue
                gap_ticks[year] += k - ticks[0][a]
                # the failed asset's other request, if pending, is stale
                other = 1 - cls
                if other == 0 or ticks[1][a] <= k:
                    stale[other][a] += 1
                    queued[specs[other][a]] -= 1
                    dropped += 1
        renewed = done[0] + done[1]
        # start each renewed asset's next generation at tick k
        for a in renewed:
            g = generation[a] = generation[a] + 1
            if g == len(rows[0]):
                engine._draw_generations(g)
                rows = [list(map(memoryview, table)) for table in engine.tables]
            for tick, row, calendar in zip(ticks, rows, calendars):
                t = tick[a] = row[g][a] + k
                if t < n_ticks:
                    calendar[t].append(a)
        if failed or renewed:
            events[k] = (remaining, failed, renewed, len(done[0]))
        if (k + 1) % tpy == 0:
            engine.queued[year] = queued
    engine.generation[:] = generation
    engine.replaced[:] = replaced
    engine.failures = failures
    engine.gap_ticks[:] = gap_ticks
    engine.raised[:2] = raised
    engine.examined += examined
    engine.executed += int(engine.replaced.sum())
    engine.dropped += dropped
    return events


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

    A generation raises inspections at its cadences' due ticks, from the
    first that the engine's set-up holds (`anchor0` for generation 0, else
    `entry_restart` past its origin), and executes them up to the tick
    before its end; the tick of a planned replacement raises the ones it
    drops. Returns, per pair that executes any, its first due tick, period,
    end (exclusive) and activity, and the number of inspections dropped.
    """
    n_ticks = engine.n_ticks
    stop = np.minimum(end, n_ticks)
    planned = (end < n_ticks) & ~failed
    empty = np.empty(0, dtype=np.int32)
    pairs, dropped = [(empty,) * 4], 0
    # each generation's asset's entries are bounds[a] + slot for the slots
    # below its count; a slot at a time, to bound the arrays in flight
    bounds = engine.bounds
    entry0, count = bounds[asset], bounds[asset + 1] - bounds[asset]
    for slot in range(int(count.max(initial=0))):
        row = np.flatnonzero(count > slot)
        entry = entry0[row] + slot
        period = engine.entry_period[entry]
        first = np.where(
            generation[row] == 0, engine.anchor0[entry], origin[row] + engine.entry_restart[entry]
        )
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
