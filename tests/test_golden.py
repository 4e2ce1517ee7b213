"""Golden bytes of simulation reports.

Each case runs a builtin scenario on a small fixed fleet and pins the sha256
of the report as canonical JSON. A change to the engine that is meant to be
a pure refactor or speedup must leave every hash unchanged; a change that
alters results on purpose re-pins them and says so.
"""

import dataclasses
import hashlib
import json
from datetime import date

import numpy as np
import pytest

from fleetlife.fleet import SyntheticFleetSpec, VoltageClass, generate_synthetic_fleet
from fleetlife.generations import due_before
from fleetlife.scenarios import builtin_scenario
from fleetlife.simulate import Constrained, _Engine, run_scenario
from reference_engine import pending

FLEET = generate_synthetic_fleet(
    SyntheticFleetSpec(
        sizes={VoltageClass.V110: 80, VoltageClass.V150: 80, VoltageClass.V220_380: 40},
        commission_years=(1965, 2000),
        seed=23,
    )
)

# 10 FTE x 500 h/yr gives 416.7 person-hours a month: one 400-hour
# replacement and a few inspections, so work is carried across year ends.
BINDING_POOL = Constrained(fte_count=10, hours_per_fte_per_year=500.0)

GOLDEN = {
    "time-based": "fde1558cefc6ad2edbf362860284e78be25910fea43068e76d16dba4178521f5",
    "condition-based": "59de210a421f9bb60c31923ceb5f17f653450b1c9d40868534cc307a4c1a7b47",
    "time-based:binding": "84685a8c6f6bb2c455c8003179a920433117cb221c0078a4b74f497a23dba147",
    "condition-based:binding": "223b3647bdbd037c988048a0821b09528b730f212b0556892bc5ba2d7bcd852d",
    # the open pool over 100 years of monthly ticks: several generations of
    # every asset; the tick-by-tick engine gives the same bytes under a pool
    # that never binds
    "time-based:century": "1d369726cf157c30adfa4d5be7f9717fe87673888c3b74e2266a264ed675edbc",
    "condition-based:century": "07ee3e0649bf8b91218f9a6492c65ea2deafac819f46859baf1de2596a8e4252",
    # the binding pool over 100 years: carried inspections pile up, and
    # failures and replacements clear an asset's queued ones in many ticks
    "time-based:binding:century": "6a08d9ab5e6482a937a33570cb8aa7d3dbfc5b993c8732fabf7fcf0f4da32b5f",
    "condition-based:binding:century": "549f88ff0fab0955293824f2609e589aa9cf6b750b244b29c08608c98e1e4ec7",
}


def golden_scenario(case: str):
    strategy, *pools = case.split(":")
    scenario = dataclasses.replace(
        builtin_scenario(strategy, replications=2, master_seed=5),
        horizon_years=12,
        start_date=date(2021, 7, 1),
    )
    if "binding" in pools:
        scenario = dataclasses.replace(scenario, resources=BINDING_POOL)
    if "century" in pools:
        scenario = dataclasses.replace(scenario, horizon_years=100)
    return scenario


def report_sha256(report) -> str:
    canonical = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes_pinned(case):
    report = run_scenario(FLEET, golden_scenario(case))
    assert report_sha256(report) == GOLDEN[case]


@pytest.mark.parametrize("case", ["time-based:binding", "condition-based:binding"])
def test_binding_cases_carry_work_across_year_ends(case):
    # guards the cases above: without carried work they would not pin the
    # backlog path
    report = run_scenario(FLEET, golden_scenario(case))
    for series in report.replications:
        assert sum(b > 0 for b in series.backlog_hours) >= 3


# The engine counters of replications 0 and 1 of each binding case: requests
# raised per class (corrective, planned, inspection), executed, dropped as
# stale, examined by the walks, and pending per class at the last tick.
COUNTERS = {
    "time-based:binding": [
        ([10, 130, 7979], 5566, 2553, 11098, [0, 0, 0]),
        ([14, 131, 7870], 5368, 2647, 10288, [0, 0, 0]),
    ],
    "condition-based:binding": [
        ([12, 106, 8561], 7157, 1407, 12105, [0, 1, 114]),
        ([22, 111, 8338], 6937, 1534, 11916, [0, 0, 0]),
    ],
    "time-based:binding:century": [
        ([36, 493, 52268], 45864, 6088, 61346, [0, 0, 845]),
        ([45, 487, 51622], 44643, 6456, 58851, [0, 1, 1054]),
    ],
    "condition-based:binding:century": [
        ([72, 389, 55916], 54701, 1646, 67731, [0, 0, 30]),
        ([96, 384, 54657], 53331, 1725, 66023, [0, 0, 81]),
    ],
}


@pytest.mark.parametrize("case", sorted(COUNTERS))
def test_binding_counters_pinned(case):
    # the report's bytes do not show how many requests were raised, dropped
    # or examined; these pin each count exactly
    scenario = golden_scenario(case)
    counters = []
    for rep in range(scenario.replications):
        engine = _Engine(FLEET, scenario)
        engine.run(rep)
        left = [len(pending(engine, cls, engine.n_ticks - 1)) for cls in range(3)]
        counters.append((engine.raised, engine.executed, engine.dropped, engine.examined, left))
    assert counters == COUNTERS[case]


class ClearProbe(_Engine):
    """The engine, noting the ticks at which a failure and those at which a
    replacement cleared queued inspections.

    The engine counts the inspections its ended cadences dropped at each
    year end, so the probe notes each ended entry's cause and tick as it
    ends, and at the year end counts each one's dropped inspections from
    what the engine kept of it; their sum must be what the engine adds."""

    def run(self, rep):
        self.cleared = {"failure": set(), "replacement": set()}
        self.causes = []
        return super().run(rep)

    def _apply(self, k, event):
        self.k = k
        super()._apply(k, event)

    def _end_cadences(self, entry, end):
        # a failure at tick k ends its asset's cadences at k, a replacement
        # in service at k + 1
        super()._end_cadences(entry, end)
        self.causes += [("failure" if end == self.k else "replacement", self.k)] * len(entry)

    def _close_year(self, k, year):
        _, oldest, period, end = np.array(self.ended, dtype=np.int64).reshape(-1, 4).T
        dropped = due_before(oldest, period, end)
        before = self.dropped
        super()._close_year(k, year)
        assert self.dropped - before == dropped.sum()
        for (cause, tick), n in zip(self.causes, dropped.tolist()):
            if n:
                self.cleared[cause].add(tick)
        self.causes = []


@pytest.mark.parametrize("case", ["time-based:binding:century", "condition-based:binding:century"])
def test_binding_century_cases_clear_queued_inspections(case):
    # guards the cases above: they pin the clearing of carried inspections
    # by both a failure and a replacement
    engine = ClearProbe(FLEET, golden_scenario(case))
    engine.run(0)
    # 17 and 18 ticks by failure, 386 and 171 by replacement
    assert len(engine.cleared["failure"]) >= 10
    assert len(engine.cleared["replacement"]) >= 100
