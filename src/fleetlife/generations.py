"""The open pool's path of the simulation engine: generation by generation.

Under `Unconstrained` no queue couples the assets, so each asset's history
is a chain of generations, and `OpenPool` simulates it one round of
generations at a time rather than tick by tick. Every generation ends at
its failure tick or its trigger tick, whichever comes first (a failure wins
a tie, as failures are drawn before triggers), both found in closed form;
its inspections are the ticks at which the cadence rule holds on the age the
tick loop would hold, up to that end. The yearly sums are then folded in
the tick loop's order, a year at a time, so a run gives the report of the
tick loop under a pool that never binds.

The replacement and cadence rules and the left-to-right sum live here, and
the tick loop of `simulate._Engine` applies the same functions; the engine
hands `OpenPool` the arrays it reads and its failure-tick and trigger-rate
rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Sequence

import numpy as np


def _add_left_to_right(start: float, values: np.ndarray) -> float:
    """start + values[0] + values[1] + ..., rounded after every step."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


def _trigger_reached(
    age_months: np.ndarray, trigger_rate: np.ndarray, trigger_age: np.ndarray
) -> np.ndarray:
    """The replacement rule: the age in years times the trigger rate (1 for
    time-based, the degradation rate for condition-based) reaches the
    trigger age."""
    return age_months / 12.0 * trigger_rate >= trigger_age


def _cadence_due(
    since: np.ndarray, interval: np.ndarray, tick: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cadence rule on ``since = age - start`` (months): due where
    ``since >= 0 and since % interval < tick``. Returns the mask and the
    phase ``since % interval``."""
    phase = since % interval
    return (since >= 0) & (phase < tick), phase


def _age_restarts(
    age0: np.ndarray, tick: int, n_ticks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Where the running age sum ``age += tick`` of generation 0 restarts.

    A whole-month step added to a float age is exact while the sum stays in
    the binade (power-of-two range) of its last value: the sum is then a
    multiple of that binade's ulp and below its top. So the age held at tick
    k is ``b + (k - kb) * tick`` exactly, where (kb, b) is the last tick at
    which the sum entered a new binade and the value it rounded to there.
    Whole-month ages never round. Returns the restart ticks and ages, one
    row per restart, row 0 being tick 0 and the start age; the rows past an
    asset's last restart hold a tick of at least n_ticks.
    """
    kb, b = np.zeros(len(age0), dtype=np.int64), age0.copy()
    ticks, ages = [kb], [b]
    live = np.flatnonzero(b != np.floor(b))
    while len(live):
        base = b[live]
        top = np.ldexp(1.0, np.frexp(base)[1])
        # j: the most further ticks that keep the sum below the top; top -
        # base is exact, and the rounded quotient can put j one off
        j = np.ceil((top - base) / tick).astype(np.int64) - 1
        j -= base + j * tick >= top
        j += base + (j + 1) * tick < top
        kb = np.full(len(age0), n_ticks, dtype=np.int64)
        b = np.zeros(len(age0))
        kb[live] = ticks[-1][live] + j + 1
        b[live] = (base + j * tick) + tick
        ticks.append(kb)
        ages.append(b)
        live = live[(kb[live] < n_ticks) & (b[live] != np.floor(b[live]))]
    return np.array(ticks), np.array(ages)


# age pieces `OpenPool` expands into inspection pairs at a time
_PIECE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class OpenPool:
    """One replication under an open pool, from the engine's set-up.

    Per asset: `age0` is the age (months) at tick 0, `trigger_age` the
    replacement trigger (years), and `corrective_spec` and `planned_spec`
    its replacement activities. Per cadence entry, numbered asset by asset
    in plan order (`entries_of` lists each asset's entries, -1 padded):
    `entry_start` and `entry_interval` (months) and `entry_spec`. Per
    activity: `duration_hours` and `total_cost`.
    `generation_rules(assets, generation, first_at_risk)` is the engine's
    rule for a generation of each asset: its failure tick, read only when
    `failures_enabled`, and its trigger rate.
    """

    tick: int
    n_ticks: int
    age0: np.ndarray
    trigger_age: np.ndarray
    corrective_spec: np.ndarray
    planned_spec: np.ndarray
    entries_of: np.ndarray
    entry_start: np.ndarray
    entry_interval: np.ndarray
    entry_spec: np.ndarray
    duration_hours: np.ndarray
    total_cost: Sequence[Decimal]
    failures_enabled: bool
    generation_rules: Callable[
        [np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ]

    def run(self) -> tuple[dict[str, list], tuple[int, int, int]]:
        """The run's yearly KPI columns (all but the backlog, which stays
        zero), by name, and its request counters (examined, executed,
        dropped).

        A failed generation is replaced in its failure tick and a triggered
        one in its trigger tick, so every request executes in the tick that
        raises it except the inspections raised with a planned replacement,
        which are dropped. The yearly sums are folded a year at a time, in
        the order the tick loop completes its work: by tick, then class
        (corrective, planned, inspection), then asset or entry.
        """
        pairs, (rep_tick, rep_spec, rep_failed) = self._histories()
        tpy = 12 // self.tick
        horizon = self.n_ticks // tpy
        rep_year = rep_tick // tpy
        n_specs = len(self.total_cost)
        columns: dict[str, list] = {
            "failures": np.bincount(rep_year[rep_failed], minlength=horizon).tolist(),
            "replacements": np.bincount(rep_year, minlength=horizon).tolist(),
            "capex": self._ledger(
                np.bincount(rep_year * n_specs + rep_spec, minlength=horizon * n_specs).reshape(
                    horizon, n_specs
                )
            ),
            "inspection_hours": [],
            "unavailability_hours": [],
        }
        examined = executed = len(rep_tick)
        dropped = 0
        # inspections executed per (year, activity)
        inspected = np.zeros((horizon, n_specs), dtype=np.int64)
        bounds = np.searchsorted(rep_tick, np.arange(horizon + 1) * tpy).tolist()
        for year in range(horizon):
            k, pair = self._raised_inspections(pairs, year * tpy, (year + 1) * tpy)
            stale = pairs["drops"][pair] & (k == pairs["hi"][pair])
            k, spec = k[~stale], self.entry_spec[pairs["entry"][pair[~stale]]]
            examined += len(stale)
            dropped += int(stale.sum())
            executed += len(k)
            inspected[year] = np.bincount(spec, minlength=n_specs)
            a, b = bounds[year], bounds[year + 1]
            ticks = np.concatenate((rep_tick[a:b], k))
            hours = self.duration_hours[np.concatenate((rep_spec[a:b], spec))]
            # stable on ticks: within a tick the replacements (already in
            # class, asset order) come first, then the inspections in entry
            # order; a tick of the year fits an int8, which numpy sorts
            # stably by radix
            order = np.argsort((ticks - year * tpy).astype(np.int8), kind="stable")
            inspection = order >= b - a
            hours = hours[order]
            columns["unavailability_hours"].append(_add_left_to_right(0.0, hours))
            columns["inspection_hours"].append(_add_left_to_right(0.0, hours[inspection]))
        columns["opex"] = self._ledger(inspected)
        return columns, (examined, executed, dropped)

    def _ledger(self, count: np.ndarray) -> list[Decimal]:
        """The yearly cost of the activities executed, from their count per
        (year, activity): one exact Decimal product per cell."""
        ledger = [Decimal(0)] * len(count)
        for year, s in zip(*np.nonzero(count)):
            ledger[year] += self.total_cost[s] * int(count[year, s])
        return ledger

    def _histories(
        self,
    ) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every generation of every asset: the inspection pairs of the
        generations (`_inspection_pairs`), in asset order, and the tick,
        activity and failure flag of each replacement, in the order the tick
        loop completes them."""
        # the generation records are freed before the pairs are built, and
        # the pairs are built a block of pieces at a time (one block at
        # least, which may be empty), to bound the arrays in flight
        pieces, replaced = self._lives()
        blocks = [
            self._inspection_pairs(*(column[i : i + _PIECE_BLOCK] for column in pieces))
            for i in range(0, len(pieces[0]) + 1, _PIECE_BLOCK)
        ]
        keys = list(blocks[0])
        return {key: np.concatenate([block.pop(key) for block in blocks]) for key in keys}, replaced

    def _lives(
        self,
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The age pieces of every generation (`_age_pieces`), and the
        replacements as `_histories` returns them."""
        n_ticks = self.n_ticks
        restarts = _age_restarts(self.age0, self.tick, n_ticks)
        asset, generation, origin, end, failed = self._generations(restarts)
        ended = end < n_ticks
        # the last tick at which each generation raises inspections: the one
        # before its failure, the one of its planned replacement (whose
        # inspections are dropped), or the last of the horizon
        last = np.where(ended & failed, end - 1, np.minimum(end, n_ticks - 1))
        pieces = self._age_pieces(restarts, asset, generation, origin, last, ended & ~failed)
        done = np.flatnonzero(ended)
        done = done[np.lexsort((asset[done], ~failed[done], end[done]))]
        rep_asset, rep_failed = asset[done], failed[done]
        rep_spec = np.where(
            rep_failed, self.corrective_spec[rep_asset], self.planned_spec[rep_asset]
        )
        return pieces, (end[done], rep_spec, rep_failed)

    def _generations(self, restarts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
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
            trigger = self._trigger_tick(restarts, asset, generation, origin, first, rate)
            end = np.minimum(fail, trigger)
            rounds.append((asset, generation, origin, end, fail <= trigger))
            on = np.flatnonzero(end < n_ticks)
            asset, generation, origin = asset[on], generation[on] + 1, end[on]
        return tuple(np.concatenate(column) for column in zip(*rounds))

    def _ages(
        self,
        restarts: tuple[np.ndarray, np.ndarray],
        asset: np.ndarray,
        generation: np.ndarray,
        origin: np.ndarray,
        k: np.ndarray,
    ) -> np.ndarray:
        """The age (months) the tick loop holds at tick k for the given
        generation of each asset: whole ticks since its replacement, or for
        generation 0 the running sum read from its restarts."""
        age = ((k - origin) * self.tick).astype(float)
        zero = np.flatnonzero(generation == 0)
        if len(zero):
            a, kz = asset[zero], k[zero]
            restart_tick, restart_age = restarts
            row = (restart_tick[:, a] <= kz).sum(axis=0) - 1
            age[zero] = restart_age[row, a] + (kz - restart_tick[row, a]) * self.tick
        return age

    def _trigger_tick(
        self,
        restarts: tuple[np.ndarray, np.ndarray],
        asset: np.ndarray,
        generation: np.ndarray,
        origin: np.ndarray,
        first: np.ndarray,
        rate: np.ndarray,
    ) -> np.ndarray:
        """The first tick from `first` at which each generation reaches its
        trigger (`_trigger_reached`) at its trigger `rate`, or n_ticks if none
        in the horizon."""
        trigger = self.trigger_age[asset]
        age0 = np.where(generation == 0, restarts[1][0, asset], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = origin + np.ceil((trigger * 12.0 / rate - age0) / self.tick)
        k = np.clip(np.nan_to_num(guess, nan=self.n_ticks), first, self.n_ticks).astype(np.int64)

        def reached(i: np.ndarray, at: np.ndarray) -> np.ndarray:
            age = self._ages(restarts, asset[i], generation[i], origin[i], at)
            return _trigger_reached(age, rate[i], trigger[i])

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

    def _age_pieces(
        self,
        restarts: tuple[np.ndarray, np.ndarray],
        asset: np.ndarray,
        generation: np.ndarray,
        origin: np.ndarray,
        last: np.ndarray,
        drops: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Spans of ticks ``lo..hi`` over which a generation's age is
        ``b + (k - kb) * tick`` exactly, up to its `last` tick: a whole later
        generation (age 0 at its replacement tick), or one restart of
        generation 0's running sum (`_age_restarts`). Returns the asset of
        each piece, kb, b, lo, hi, and whether an inspection raised at hi is
        dropped: `drops` marks the generations whose inspections raised at
        their `last` tick are. The pieces are in asset order, and those whose
        age stays below every cadence start of their asset, so that no
        cadence can be due, are left out.
        """
        tick = self.tick
        # each asset's earliest cadence start, inf with none
        starts = np.where(self.entries_of >= 0, self.entry_start[self.entries_of], np.inf)
        earliest = starts.min(axis=1, initial=np.inf)
        later = np.flatnonzero(generation > 0)
        later = later[(last[later] - origin[later]) * tick >= earliest[asset[later]]]
        start = origin[later]
        pieces = [(later, start, np.zeros(len(later)), start + 1, last[later])]
        zero = np.flatnonzero(generation == 0)
        restart_tick, restart_age = restarts
        # a restart row at a time: the pieces of generation 0 that start there
        for r in range(len(restart_tick)):
            kb, b = restart_tick[r, asset[zero]], restart_age[r, asset[zero]]
            if r + 1 < len(restart_tick):
                hi = np.minimum(last[zero], restart_tick[r + 1, asset[zero]] - 1)
            else:
                hi = last[zero]
            on = np.flatnonzero((kb <= hi) & (b + (hi - kb) * tick >= earliest[asset[zero]]))
            pieces.append((zero[on], kb[on], b[on], kb[on], hi[on]))
        record, kb, b, lo, hi = (np.concatenate(column) for column in zip(*pieces))
        order = np.argsort(asset[record], kind="stable")
        record, kb, b, lo, hi = record[order], kb[order], b[order], lo[order], hi[order]
        # a piece of generation 0 may end before the generation does
        return asset[record], kb, b, lo, hi, drops[record] & (hi == last[record])

    def _inspection_pairs(
        self,
        asset: np.ndarray,
        kb: np.ndarray,
        b: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        drops: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """One row per (cadence entry, age piece) that can raise inspections,
        from the pieces of `_age_pieces`, piece by piece and, within a piece,
        in entry order. Two pairs that can raise in the same tick are then in
        entry order, as the pieces of one asset never share a tick.

        The inspections of a pair are raised at the ticks of its piece where
        `_cadence_due` holds, and `_raised_inspections` evaluates the rule at
        the candidate ticks k with ``(k - anchor) % period < width`` from
        `lo` on (``period = interval / tick``). In exact arithmetic the due
        ticks are ``anchor + m * period``, from the first at which the age
        reaches the start age. The pair is exact when its ages up to that
        tick and its last, its start age and the tick are all multiples of
        the ulp of the largest of them: then no step of the rule rounds
        (each value it forms is on that grid and below the ulp's binade
        top), so where the rule holds at that tick with ``age - start <
        tick`` (no earlier tick is due), those ticks are the candidates.
        Otherwise the phase the rule reads is rounded and a due tick may
        move by one either way, so the candidates are ``anchor - 1 ..
        anchor + 1`` in each period, from the tick before the age reaches
        the start age.
        """
        tick = self.tick
        entries = self.entries_of[asset]
        piece, slot = np.nonzero(entries >= 0)
        entry = entries[piece, slot]
        # the first tick with b + (k - kb) * tick >= start, up to rounding;
        # a pair that ends before the tick ahead of it raises nothing
        first = kb[piece] + np.ceil((self.entry_start[entry] - b[piece]) / tick).astype(np.int64)
        lo = np.maximum(lo[piece], first - 1)
        keep = np.flatnonzero(lo <= hi[piece])
        piece, entry, first, lo = piece[keep], entry[keep], first[keep], lo[keep]
        kb, b = kb[piece], b[piece]
        start, interval = self.entry_start[entry], self.entry_interval[entry]
        period = (interval // tick).astype(np.int64)
        # the first due tick from there, up to rounding, and the rule on it
        phase = ((first - kb) * tick + b - start) % interval
        anchor = first + (-np.minimum(phase // tick, period - 1).astype(np.int64)) % period
        since = (anchor - kb) * tick + b - start
        hi = hi[piece]
        ulp = np.spacing(np.maximum(b + (np.maximum(hi, anchor) - kb) * tick, start))
        exact = (b % ulp == 0) & (start % ulp == 0) & (since >= 0) & (since < tick)
        # ticks and entry ids fit an int32, which halves the pairs held
        ints = {
            "entry": entry,
            "lo": lo,
            "hi": hi,
            "anchor": anchor - ~exact,
            "period": period,
            "width": np.where(exact, 1, np.minimum(period, 3)),
            "kb": kb,
        }
        pairs = {key: column.astype(np.int32) for key, column in ints.items()}
        return dict(pairs, drops=drops[piece], b=b)

    def _raised_inspections(
        self, pairs: dict[str, np.ndarray], k0: int, k1: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The inspections raised in ticks k0..k1 - 1: their ticks and pair
        rows, pair by pair and, within a pair, by tick."""
        k, pair = self._candidates(pairs, k0, k1)
        entry = pairs["entry"][pair]
        age = pairs["b"][pair] + (k - pairs["kb"][pair]) * self.tick
        due, _ = _cadence_due(age - self.entry_start[entry], self.entry_interval[entry], self.tick)
        return k[due], pair[due]

    def _candidates(
        self, pairs: dict[str, np.ndarray], k0: int, k1: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The candidate ticks of the pairs (`_inspection_pairs`) in ticks
        k0..k1 - 1 and within their spans, with their pair rows."""
        sel = np.flatnonzero((pairs["lo"] < k1) & (pairs["hi"] >= k0))
        lo, hi = np.maximum(pairs["lo"][sel], k0), np.minimum(pairs["hi"][sel], k1 - 1)
        anchor, period, width = pairs["anchor"][sel], pairs["period"][sel], pairs["width"][sel]
        # the candidates of each period from the first that can reach lo
        m0 = (lo - anchor) // period
        count = np.maximum((hi - anchor) // period - m0 + 1, 0) * width
        # int32, as the pair columns are, to halve the arrays in flight
        at = np.repeat(np.arange(len(sel), dtype=np.int32), count)
        pos = np.arange(len(at), dtype=np.int32)
        pos -= np.repeat(np.cumsum(count, dtype=np.int32) - count, count)
        m, offset = np.divmod(pos, width[at])
        k = anchor[at] + (m0[at] + m) * period[at] + offset
        keep = (k >= lo[at]) & (k <= hi[at])
        return k[keep], sel[at[keep]]
