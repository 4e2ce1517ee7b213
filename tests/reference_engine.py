"""Scalar reference rules for the simulation engine.

Two rules of `fleetlife.simulate._Engine`, written one request or one age at
a time: the form the array engine replaced. Tests compare the engine with
them.

* `allocate_resources` is the reference for `_greedy_walk`, the engine's
  walk of a queue within a person-hour budget.
* `inspection_due` is the reference for the engine's next-check inspection
  schedule: the schedule tests evaluate it for every asset at every tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from fleetlife.simulate import ActivityKind, ActivitySpec, PeriodicInspections

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


def inspection_due(
    age_months: float, plan: PeriodicInspections, interval_months: int, tick_months: int
) -> bool:
    """Whether the given cadence falls due in the tick starting at this age.

    The cadence is anchored to the age at which the asset becomes eligible
    (start_age), so it restarts automatically after a replacement resets the
    age.
    """
    start = plan.start_age_years * 12.0
    if age_months < start:
        return False
    return (age_months - start) % interval_months < tick_months
