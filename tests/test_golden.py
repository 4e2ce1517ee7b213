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
from fleetlife.simulate import Constrained, run_scenario

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
    "time-based": "ac4d8f4e558ece497d301595303502b0cf4dd94d465ba772d1b608f492724a9c",
    "condition-based": "dd6c94a3ef8f3b91cf59439dceb1997394af6b974c1540479da82b4b1e0ed68e",
    "time-based:binding": "27029b76542e35a6566fb9efc5d83932e8ffcdb17ded635129277e657c846835",
    "condition-based:binding": "1c135a411e3a537d725fb2d2a2b1373bf7da04374761b19c7dd6e923dfa6d65a",
    # the open pool over 100 years of monthly ticks: several generations of
    # every asset, pinned from the tick-by-tick engine
    "time-based:century": "6299aa5d9ccdef868c1b12474f2e0cb070cdcab04b8e88b293052a9fa130d5a8",
    "condition-based:century": "f523438e918342ea4c96093902f950dd989a01460d67e65a0efcfd11dbdb3d9d",
}


def golden_scenario(case: str):
    strategy, _, pool = case.partition(":")
    scenario = dataclasses.replace(
        builtin_scenario(strategy, replications=2, master_seed=5),
        horizon_years=12,
        start_date=date(2021, 7, 1),
    )
    if pool == "binding":
        scenario = dataclasses.replace(scenario, resources=BINDING_POOL)
    elif pool == "century":
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
