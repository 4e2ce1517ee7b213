"""Scalar reference rules for the simulation engine.

Rules of `fleetlife.simulate._Engine`, written one request or one age at a
time: the form the array engine replaced. Tests compare the engine with
them.

* `allocate_resources` is the reference for `_greedy_walk`, the engine's
  walk of a queue within a person-hour budget.
* `inspection_due` and `trigger_reached` are the references for the
  engine's clock rules, on exact ages: the schedule tests evaluate them for
  every asset at every tick.
* `ReferenceQueue` is the reference for the engine's allocation, which
  keeps no queue: it holds every request the engine raises and walks the
  live ones one request at a time, each tick.
* `LedgerEngine` is the reference for the engine's hour ledgers: it lists
  every executed duration and pending person-hour one by one.
* `pending` lists a class's requests pending in an engine, one id each.
"""

from __future__ import annotations

import math
from collections import defaultdict
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


class ReferenceQueue:
    """The README's request queue, one request at a time.

    It keeps every request raised as an `ActivityRequest`, with the
    generation (replacements executed so far) of its asset when raised.
    Each tick it queues the tick's requests and walks the queue in
    (priority, request_tick, asset_id) order by `allocate_resources`'s rule:
    a live request that fits the budget left executes, one that does not
    carries. A request is stale once its asset was replaced after it was
    raised, and an inspection also while its asset is out of service; a
    stale request is dropped when the walk reaches it, so a replacement
    executed earlier in the walk counts.
    """

    def __init__(self, capacity_person_hours: float):
        self.capacity = capacity_person_hours
        self.queue: list[tuple[ActivityRequest, int]] = []
        self.generation: defaultdict[str, int] = defaultdict(int)
        self.failed: set[str] = set()

    def live(self, req: ActivityRequest, generation: int) -> bool:
        if generation != self.generation[req.asset_id]:
            return False
        return req.kind is not ActivityKind.INSPECTION or req.asset_id not in self.failed

    def tick(self, raised: Iterable[ActivityRequest]) -> list[ActivityRequest]:
        """Queue one tick's requests, given in the order they are raised,
        and return those executed, in order. A corrective request marks its
        asset failed."""
        for req in raised:
            if req.kind is ActivityKind.CORRECTIVE_REPLACEMENT:
                self.failed.add(req.asset_id)
            self.queue.append((req, self.generation[req.asset_id]))
        # a stable sort: an asset's inspections of a tick stay in plan order
        self.queue.sort(key=lambda item: item[0].sort_key)
        executed: list[ActivityRequest] = []
        carried: list[tuple[ActivityRequest, int]] = []
        remaining = self.capacity
        for req, generation in self.queue:
            if not self.live(req, generation):
                continue
            if req.spec.person_hours <= remaining:
                remaining -= req.spec.person_hours
                executed.append(req)
                if req.kind is not ActivityKind.INSPECTION:
                    self.generation[req.asset_id] += 1
                    self.failed.discard(req.asset_id)
            else:
                carried.append((req, generation))
        self.queue = carried
        return executed

    def backlog(self) -> list[float]:
        """The person-hours of each live queued request."""
        return [req.spec.person_hours for req, g in self.queue if self.live(req, g)]


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


def pending(engine: _Engine, cls: int, k: int) -> np.ndarray:
    """A class's requests pending at tick k, one id (an asset, or a
    cadence entry) each, in id order.

    An asset out of service (past its failure tick) has its corrective
    replacement pending, and one past its trigger tick its planned one;
    the rows of `ticks` are in class order. The replacement pass leaves
    them as they end the run, so these two classes are read at its last
    tick only. An open pool executes or drops each request in the tick
    that raises it, so none is ever pending; its run
    (`generations.run_open_pool`) leaves the assets' state as set up."""
    if engine.capacity is None:
        return np.zeros(0, dtype=np.int64)
    if cls == _INSPECTION:
        return np.repeat(*engine._pending_inspections(k))
    return (engine.ticks[cls] <= k).nonzero()[0]


class LedgerEngine(_Engine):
    """A constrained run, listing every term of its yearly hour ledgers.

    Per year: `inspection_terms` holds the duration of each inspection
    executed, `unavailability_terms` those of every activity executed plus
    each failed asset's hours out of service, from its failure tick to its
    replacement, and `backlog_terms` the person-hours of each request
    pending at the year end. The replacements are read from the events of
    the replacement pass, as the inspection pass applies them; the assets
    out of service are tracked here from them. `carried` holds the number
    of inspections pending at each year end.
    """

    def run(self):
        years = self.scenario.horizon_years
        self.inspection_terms = [[] for _ in range(years)]
        self.unavailability_terms = [[] for _ in range(years)]
        self.backlog_terms = [[] for _ in range(years)]
        self.carried = []
        self.failed_at = {}
        return super().run()

    def _apply(self, k, event):
        _, failed, renewed, corrective, _ = event
        year = k * self.tick // 12
        self.failed_at.update((a, k) for a in failed)
        for n, a in enumerate(renewed):
            spec = (self.corrective_spec if n < corrective else self.planned_spec)[a]
            self.unavailability_terms[year].append(float(self.duration_hours[spec]))
            if a in self.failed_at:
                self.unavailability_terms[year].append((k - self.failed_at.pop(a)) * self.tick_hours)
        super()._apply(k, event)

    def _complete(self, entries, k, year):
        hours = self.duration_hours[self.entry_spec[entries]].tolist()
        self.unavailability_terms[year] += hours
        self.inspection_terms[year] += hours
        super()._complete(entries, k, year)

    def _backlog_person_hours(self, k):
        year = k * self.tick // 12
        replacements = np.repeat(self.person_hours, self.queued[year])
        inspections = self.person_hours[self.entry_spec[pending(self, _INSPECTION, k)]]
        self.backlog_terms[year] += replacements.tolist() + inspections.tolist()
        self.carried.append(len(inspections))
        return super()._backlog_person_hours(k)

    def assert_ledgers_exact(self):
        """Each year's hours are `math.fsum` of their terms."""
        kpis = self.kpis
        for year in range(self.scenario.horizon_years):
            assert kpis.inspection_hours[year] == math.fsum(self.inspection_terms[year])
            assert kpis.unavailability_hours[year] == math.fsum(self.unavailability_terms[year])
            assert kpis.backlog_hours[year] == math.fsum(self.backlog_terms[year])
