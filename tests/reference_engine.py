"""Scalar reference rules for the simulation engine.

Rules of `fleetlife.simulate._Engine`, written one request or one age at a
time: the form the array engine replaced. Tests compare the engine with
them.

* `allocate_resources` is the reference for `_greedy_walk`, the engine's
  walk of a queue within a person-hour budget.
* `inspection_due` and `trigger_reached` are the references for the
  engine's clock rules, on exact ages: the schedule tests evaluate them for
  every asset at every tick.
* `LedgerEngine` is the reference for the engine's hour ledgers: it lists
  every executed duration and queued person-hour one by one, and recounts
  the live queued inspections of each cadence entry from the queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from fleetlife.simulate import (
    ActivityKind,
    ActivitySpec,
    PeriodicInspections,
    _Engine,
    _INSPECTION,
)

# Lower value executes first.
PRIORITY = {
    ActivityKind.CORRECTIVE_REPLACEMENT: 0,
    ActivityKind.PLANNED_REPLACEMENT: 1,
    ActivityKind.INSPECTION: 2,
}


@dataclass(frozen=True)
class ActivityRequest:
    """A queued activity; ordering is (priority, request_tick, asset_id)."""

    kind: ActivityKind
    request_tick: int
    asset_id: str
    spec: ActivitySpec

    @property
    def sort_key(self) -> tuple[int, int, str]:
        return (PRIORITY[self.kind], self.request_tick, self.asset_id)


def allocate_resources(
    requests: Iterable[ActivityRequest], capacity_person_hours: float
) -> tuple[list[ActivityRequest], list[ActivityRequest]]:
    """Execute requests in priority order within a person-hour budget.

    Requests are attempted in (priority, request_tick, asset_id) order; each
    executed request consumes duration * required_fte person-hours; a
    request that does not fit is carried, and later requests may still use
    the leftover capacity.
    """
    queue = sorted(requests, key=lambda r: r.sort_key)
    executed: list[ActivityRequest] = []
    carried: list[ActivityRequest] = []
    remaining = capacity_person_hours
    for req in queue:
        demand = req.spec.person_hours
        if demand <= remaining:
            executed.append(req)
            remaining -= demand
        else:
            carried.append(req)
    return executed, carried


def grid_months(years: float) -> Fraction:
    """A start age in months, rounded up to the clock's grid of 1/487 month
    (1/16 day)."""
    return Fraction(math.ceil(Fraction(years) * 12 * 487), 487)


def inspection_due(
    age_months: Fraction, plan: PeriodicInspections, interval_months: int, tick_months: int
) -> bool:
    """Whether the given cadence falls due in the tick starting at this
    exact age.

    The cadence is anchored to the age at which the asset becomes eligible
    (start_age, on the grid), so it restarts automatically after a
    replacement resets the age.
    """
    start = grid_months(plan.start_age_years)
    if age_months < start:
        return False
    return (age_months - start) % interval_months < tick_months


def trigger_reached(age_months: Fraction, rate: float, trigger_age: float) -> bool:
    """The replacement rule: the exact age in years, rounded to a float,
    times the trigger rate reaches the trigger age."""
    return float(age_months / 12) * rate >= trigger_age


class LedgerEngine(_Engine):
    """The tick loop, listing every term of its yearly hour ledgers.

    Per year: `inspection_terms` holds the duration of each inspection
    executed, `unavailability_terms` those of every activity executed plus
    each corrective replacement's hours out of service, and `backlog_terms`
    the person-hours of each live request queued at the year end. At each
    year end, `recounted` holds the live queued inspections of each cadence
    entry, recounted from the queue, `counted` the engine's counts, and
    `stale_left` how many stale inspections the year end left queued.
    """

    def run(self):
        years = self.scenario.horizon_years
        self.inspection_terms = [[] for _ in range(years)]
        self.unavailability_terms = [[] for _ in range(years)]
        self.backlog_terms = [[] for _ in range(years)]
        self.recounted, self.counted, self.stale_left = [], [], []
        self.year = 0
        return super().run()

    def _complete(self, cls, assets, specs, k, year):
        hours = self.duration_hours[specs].tolist()
        self.unavailability_terms[year] += hours
        if cls == _INSPECTION:
            self.inspection_terms[year] += hours
        else:
            out = ~self.in_service[assets]
            gaps = (k - self.fail_tick[assets[out]]) * self.tick_hours
            self.unavailability_terms[year] += gaps.tolist()
        super()._complete(cls, assets, specs, k, year)

    def _backlog_person_hours(self):
        # a request is live while its asset keeps the generation it was
        # raised for, and an inspection also while its asset is in service
        for cls, queue in enumerate(self.queues):
            ids, generation = queue.entries()
            asset = self.entry_asset[ids] if cls == _INSPECTION else ids
            live = generation == self.generation[asset]
            if cls == _INSPECTION:
                live &= self.in_service[asset]
            spec = self.class_spec[cls][ids[live]]
            self.backlog_terms[self.year] += self.person_hours[spec].tolist()
            if cls == _INSPECTION:
                n_entries = len(self.queued_inspections)
                self.recounted.append(np.bincount(ids[live], minlength=n_entries).tolist())
                self.counted.append(self.queued_inspections.tolist())
        self.year += 1
        backlog = super()._backlog_person_hours()
        self.stale_left.append(len(self.queues[_INSPECTION]) - sum(self.recounted[-1]))
        return backlog

    def assert_ledgers_exact(self):
        """Each year's hours are `math.fsum` of their terms."""
        kpis = self.kpis
        for year in range(self.scenario.horizon_years):
            assert kpis.inspection_hours[year] == math.fsum(self.inspection_terms[year])
            assert kpis.unavailability_hours[year] == math.fsum(self.unavailability_terms[year])
            assert kpis.backlog_hours[year] == math.fsum(self.backlog_terms[year])
        assert self.counted == self.recounted
