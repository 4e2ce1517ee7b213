"""Golden bytes of simulation reports.

Each case runs a builtin scenario on a small fixed fleet and pins the sha256
of the report as canonical JSON and of its `kpis.csv`; one pair of reports
also pins the files `fleetlife report` writes from them. A change to the
engine or to the report format that is meant to be a pure refactor or
speedup must leave every hash unchanged; a change that alters results on
purpose re-pins them and says so.
"""

import dataclasses
import functools
import hashlib
import io
import json
from datetime import date

import numpy as np
import pytest

from conftest import invoke
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


@functools.cache
def golden_report(case: str):
    return run_scenario(FLEET, golden_scenario(case))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_sha256(report) -> str:
    return sha256(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes_pinned(case):
    assert report_sha256(golden_report(case)) == GOLDEN[case]


# the sha256 of the kpis.csv of each case above
GOLDEN_KPIS_CSV = {
    "time-based": "d442f54f00e5e82dad0e3f24650431903f91133749185078f37ec5776aec1959",
    "condition-based": "e8ea8042e2030fb3460bcdcb889c524c11091ea88f4d5adad19ca5557a336bbd",
    "time-based:binding": "3f45d21a996ca8f8aec7d6957b96cc001834b7c4d6f54eead6eb5e406cf2180f",
    "condition-based:binding": "fe22ecd5431fc635b436772a667b727503bb35ed804487864f3e0966c6da4553",
    "time-based:century": "7b11f66d6b6a00360651902b29d78137918573a6a4d60260285115b2178babc7",
    "condition-based:century": "9e8c23c68244757fa7177b286c9ac5c056e0aa4d4ac70092ee67d2ff59eb58b3",
    "time-based:binding:century": "670dcb6a7b7b2cd8d90f82b841ec9720c5f8dc79e0fa9606ee0076aaac9003e0",
    "condition-based:binding:century": "e5009a5859fcb0e86dcd2ca26b6584bc38052a65bf0af16b23bc210cde6669bd",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_KPIS_CSV))
def test_kpis_csv_bytes_pinned(case):
    stream = io.StringIO()
    golden_report(case).write_kpis_csv(stream)
    assert sha256(stream.getvalue()) == GOLDEN_KPIS_CSV[case]


# the sha256 of each file but the manifest that `fleetlife report` writes
# from the report.json files of the two binding cases, which cross over in
# year 8
GOLDEN_COMPARISON = {
    "comparison.csv": "3bf4761be2fcc0a685bdf44ad86cf1db04f2f4707346e451a94a4dbeff8fb627",
    "plotdata/a_totex_stack.csv": "7975a017d43e5eed04a05fa0c36eea17a4ed471a64ab5e8938cb06b719da6160",
    "plotdata/b_totex_stack.csv": "d4388e952460daed03f49c80359db135bcf53bbcc9fbe2fc2762a32f82dfa116",
    "summary.json": "46ee145c89b147b6f1ea4d910760f956b72b351dd0e7c5dfad137595e9cbb302",
}


def test_comparison_bytes_pinned(tmp_path):
    args, out = ["report"], tmp_path / "cmp"
    for role, case in (("a", "time-based:binding"), ("b", "condition-based:binding")):
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(golden_report(case).to_json_dict(), indent=2) + "\n")
        args += [f"--{role}", str(path)]
    result = invoke(*args, "--out", out)
    assert result.exit_code == 0, result.output
    written = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.*"))
        if path.name != "manifest.json"
    }
    assert written == GOLDEN_COMPARISON


@pytest.mark.parametrize("case", ["time-based:binding", "condition-based:binding"])
def test_binding_cases_carry_work_across_year_ends(case):
    # guards the cases above: without carried work they would not pin the
    # backlog path
    for series in golden_report(case).replications:
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
