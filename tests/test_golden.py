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
    "time-based": "d257af0d0be55cd201cb983a765f4a9c7aa64d82ed2519d29898f85eadbe4459",
    "condition-based": "cf1b6a6db573224a53d65f5783fbad61f38f9064ab3fb8445a988f7d944ffa43",
    "time-based:binding": "cc05518d60c64aa29cba3a60fd4ea7f34e870937cd811c6daf80b1787c8d99ce",
    "condition-based:binding": "7a80cf9fb86ca38b4f746b78bf30b1252e1056bb727edfda333fdb9cc733de4f",
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
