"""The open pool's path of the simulation engine: generation by generation.

Under `Unconstrained` no queue couples the assets, so each asset's history
is a chain of generations, and `OpenPool` simulates it one round of
generations at a time rather than tick by tick. Every generation ends at
its failure tick or its trigger tick, whichever comes first (a failure wins
a tie, as failures are drawn before triggers), both found in closed form.
Ages are whole units of the clock's grid, so the ticks at which a cadence
is due are an arithmetic progression, and each year's inspections are
counted rather than listed. A run gives the counts the tick loop executes
under a pool that never binds.

The clock's grid and the replacement rule live here, and the tick loop of
`simulate._Engine` applies them too; the engine hands `OpenPool` the arrays
it reads and its failure-tick and trigger-rate rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# The clock's grid is 1/16 day: a month of 365.25 / 12 days is 487 units and
# a year 5844, so ages from day counts and whole ticks are exact integers.
UNITS_PER_DAY = 16
UNITS_PER_MONTH = 487
UNITS_PER_YEAR = 12 * UNITS_PER_MONTH


def _trigger_reached(
    age: np.ndarray, trigger_rate: np.ndarray, trigger_age: np.ndarray
) -> np.ndarray:
    """The replacement rule: the age (grid units) in years times the trigger
    rate (1 for time-based, the degradation rate for condition-based)
    reaches the trigger age."""
    return age / UNITS_PER_YEAR * trigger_rate >= trigger_age


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return -(-a // b)


@dataclass(frozen=True, eq=False)
class OpenPool:
    """One replication under an open pool, from the engine's set-up.

    Ages and cadences are in grid units, and `tick` is the units a tick
    holds. Per asset: `age0` is the age at tick 0, `trigger_age` the
    replacement trigger (years), and `corrective_spec` and `planned_spec`
    its replacement activities. Per cadence entry, numbered asset by asset
    in plan order (`entries_of` lists each asset's entries, -1 padded):
    `entry_start`, `entry_interval` and `entry_spec`. `n_specs` is the
    number of activities.
    `generation_rules(assets, generation, first_at_risk)` is the engine's
    rule for a generation of each asset: its failure tick, read only when
    `failures_enabled`, and its trigger rate.
    """

    tick: int
    ticks_per_year: int
    n_ticks: int
    age0: np.ndarray
    trigger_age: np.ndarray
    corrective_spec: np.ndarray
    planned_spec: np.ndarray
    entries_of: np.ndarray
    entry_start: np.ndarray
    entry_interval: np.ndarray
    entry_spec: np.ndarray
    n_specs: int
    failures_enabled: bool
    generation_rules: Callable[
        [np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ]

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int]:
        """The run's counts: failures per year, replacements and inspections
        executed per (year, activity), requests raised per class (corrective,
        planned, inspection), and inspections dropped.

        A failed generation is replaced in its failure tick and a triggered
        one in its trigger tick, so every request executes in the tick that
        raises it except the inspections raised with a planned replacement,
        which are dropped.
        """
        asset, generation, origin, end, failed = self._generations()
        horizon = self.n_ticks // self.ticks_per_year
        done = np.flatnonzero(end < self.n_ticks)
        rep_year, rep_failed = end[done] // self.ticks_per_year, failed[done]
        rep_spec = np.where(
            rep_failed, self.corrective_spec[asset[done]], self.planned_spec[asset[done]]
        )
        failures = np.bincount(rep_year[rep_failed], minlength=horizon)
        replaced = np.bincount(
            rep_year * self.n_specs + rep_spec, minlength=horizon * self.n_specs
        ).reshape(horizon, self.n_specs)
        *pairs, dropped = self._cadence_pairs(asset, generation, origin, end, failed)
        inspected = self._count_inspections(*pairs)
        n_failed = int(rep_failed.sum())
        raised = [n_failed, len(done) - n_failed, int(inspected.sum()) + dropped]
        return failures, replaced, inspected, raised, dropped

    def _generations(self) -> tuple[np.ndarray, ...]:
        """Every generation that starts within the horizon, a round at a time.

        Each round ends the current generation of every asset still in the
        horizon at its failure tick or its trigger tick, whichever is first
        (a failure wins a tie, as failures are drawn before triggers), and
        starts the next one at age 0 in that tick. Returns, per generation:
        its asset, its number, its origin (the tick it counts its age from:
        0 for generation 0, else its replacement tick), its end tick (at
        least n_ticks when it outlives the horizon) and whether it ends by
        failure.
        """
        n_ticks = self.n_ticks
        asset = np.arange(len(self.age0))
        generation = np.zeros(len(asset), dtype=np.int64)
        origin = np.zeros(len(asset), dtype=np.int64)
        rounds = []
        while len(asset):
            # generation 0 is at risk and armed from tick 0; a later one from
            # the tick after its replacement
            first = origin + (generation > 0)
            fail, rate = self.generation_rules(asset, generation, first)
            if not self.failures_enabled:
                fail = np.full(len(asset), n_ticks)
            age = np.where(generation == 0, self.age0[asset], 0)
            trigger = self._trigger_tick(asset, age, origin, first, rate)
            end = np.minimum(fail, trigger)
            rounds.append((asset, generation, origin, end, fail <= trigger))
            on = np.flatnonzero(end < n_ticks)
            asset, generation, origin = asset[on], generation[on] + 1, end[on]
        return tuple(np.concatenate(column) for column in zip(*rounds))

    def _trigger_tick(
        self,
        asset: np.ndarray,
        age: np.ndarray,
        origin: np.ndarray,
        first: np.ndarray,
        rate: np.ndarray,
    ) -> np.ndarray:
        """The first tick from `first` at which each generation, of age `age`
        at tick `origin`, reaches its trigger (`_trigger_reached`) at its
        trigger `rate`, or n_ticks if none in the horizon."""
        trigger = self.trigger_age[asset]
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = origin + np.ceil((trigger * UNITS_PER_YEAR / rate - age) / self.tick)
        k = np.clip(np.nan_to_num(guess, nan=self.n_ticks), first, self.n_ticks).astype(np.int64)

        def reached(i: np.ndarray, at: np.ndarray) -> np.ndarray:
            return _trigger_reached(age[i] + (at - origin[i]) * self.tick, rate[i], trigger[i])

        # the guess is off by a rounding at most; the rule is monotone in the
        # age, so step back while the tick before meets it, then forward
        # while the tick does not
        i = np.flatnonzero(k > first)
        while len(i):
            i = i[reached(i, k[i] - 1)]
            k[i] -= 1
            i = i[k[i] > first[i]]
        i = np.flatnonzero(k < self.n_ticks)
        while len(i):
            i = i[~reached(i, k[i])]
            k[i] += 1
            i = i[k[i] < self.n_ticks]
        return k

    def _cadence_pairs(
        self,
        asset: np.ndarray,
        generation: np.ndarray,
        origin: np.ndarray,
        end: np.ndarray,
        failed: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """The inspections of every (generation, cadence entry) pair.

        A generation of age ``b`` at tick `origin` holds ``b + (k - origin) *
        tick`` at tick k, so a cadence of start age s and interval I is due,
        by the rule ``since >= 0 and since % I < tick`` on ``since = age -
        s``, at ``anchor + m * period`` for m >= 0: ``anchor`` is the first
        tick at which the age reaches s and ``period = I / tick``. A
        generation raises inspections from its first armed tick, and executes
        them up to the tick before its end; the tick of a planned replacement
        raises the ones it drops. Returns, per pair that executes any, its
        first due tick, period, end (exclusive) and activity, and the number
        of inspections dropped.
        """
        tick, n_ticks = self.tick, self.n_ticks
        armed = origin + (generation > 0)
        b = np.where(generation == 0, self.age0[asset], 0)
        stop = np.minimum(end, n_ticks)
        planned = (end < n_ticks) & ~failed
        empty = np.empty(0, dtype=np.int32)
        pairs, dropped = [(empty,) * 4], 0
        # a cadence slot of the plans at a time, to bound the arrays in flight
        for slot in range(self.entries_of.shape[1]):
            entries = self.entries_of[asset, slot]
            row = np.flatnonzero(entries >= 0)
            entry = entries[row]
            anchor = origin[row] + _ceil_div(self.entry_start[entry] - b[row], tick)
            period = self.entry_interval[entry] // tick
            first = anchor + _ceil_div(np.maximum(armed[row] - anchor, 0), period) * period
            last = stop[row]
            due_last = (last >= first) & ((last - first) % period == 0)
            dropped += int(np.count_nonzero(planned[row] & due_last))
            keep = np.flatnonzero(first < last)
            # ticks and activity ids fit an int32, which halves the pairs held
            columns = (first, period, last, self.entry_spec[entry])
            pairs.append(tuple(column[keep].astype(np.int32) for column in columns))
        return (*(np.concatenate(column) for column in zip(*pairs)), dropped)

    def _count_inspections(
        self, first: np.ndarray, period: np.ndarray, stop: np.ndarray, spec: np.ndarray
    ) -> np.ndarray:
        """Inspections executed per (year, activity) by the pairs of
        `_cadence_pairs`: the ticks ``first + m * period`` below `stop`,
        counted a year at a time over the pairs active in it."""
        tpy = self.ticks_per_year
        horizon = self.n_ticks // tpy
        inspected = np.zeros((horizon, self.n_specs), dtype=np.int64)
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
            # due ticks from first below min(stop, k1), less those below k0
            count = _ceil_div(np.minimum(stop[active], k1) - f, p)
            count -= _ceil_div(np.maximum(k0 - f, 0), p)
            inspected[year] = np.bincount(spec[active], weights=count, minlength=self.n_specs)
        return inspected
