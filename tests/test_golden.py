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

import pytest

from fleetlife.fleet import SyntheticFleetSpec, VoltageClass, generate_synthetic_fleet
from fleetlife.scenarios import builtin_scenario
from fleetlife.simulate import _INSPECTION, Constrained, _Engine, run_scenario

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
    # the binding pool over 100 years: carried inspections pile up, so the
    # queue drops its stale entries both at year ends and before it grows
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


class DropProbe(_Engine):
    """The engine, noting where it dropped stale inspections: at a year
    end, or before its inspection queue's buffer moved or grew."""

    def run(self):
        self.drops, self.where = set(), None
        return super().run()

    def _push(self, cls, ids):
        self.where = "growth"
        super()._push(cls, ids)

    def _backlog_person_hours(self):
        self.where = "year end"
        return super()._backlog_person_hours()

    def _drop_stale(self, cls):
        if cls == _INSPECTION:
            self.drops.add(self.where)
        super()._drop_stale(cls)


@pytest.mark.parametrize("case", ["time-based:binding:century", "condition-based:binding:century"])
def test_binding_century_cases_drop_stale_inspections_both_ways(case):
    # guards the cases above: they pin both paths that drop stale
    # inspections from a long carried queue
    engine = DropProbe(FLEET, golden_scenario(case), 0)
    engine.run()
    assert engine.drops == {"year end", "growth"}
