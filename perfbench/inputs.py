"""Seeded input generation for the three workloads.

Every input the CLI reads is written here from the workload seed: the
observed-records CSV, the fleet CSVs and the scenario files. The same seed
gives byte-identical files. The make-up of each input is documented in
README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

CSV_HEADER = "asset_id,voltage_kv,commission_date,failure_date,manufacturer"
DAYS_PER_YEAR = 365.25

# estimate: ~10^5 observed records over 60 commissioning years, cut off so
# that roughly a quarter of them carry a failure date.
ESTIMATE_RECORDS = 100_000
ESTIMATE_COMMISSION = (date(1940, 1, 1), date(1999, 12, 31))
ESTIMATE_CUTOFF = date(2020, 12, 31)

# sim-open-pool: a few thousand in-service assets over five decades.
OPEN_POOL_ASSETS = 2_000
OPEN_POOL_COMMISSION = (date(1965, 1, 1), date(2020, 12, 31))
OPEN_POOL_REPLICATIONS = 1

# sim-binding-pool: the README wave fleet under 40 FTE x 250 h/yr.
BINDING_FLEET_SPEC = {"sizes": {"110": 400, "150": 400, "220_380": 200},
                      "commission_years": [1982, 1986], "seed": 11}
BINDING_FTE = 40
BINDING_HOURS_PER_FTE = 250.0
BINDING_REPLICATIONS = 2

# Family shares of every generated fleet: 40% 110 kV, 40% 150 kV,
# 20% 220/380 kV, as in the README fleet.
FAMILY_SHARES = (("110", 0.4), ("150", 0.4), ("220_380", 0.2))


@dataclass(frozen=True)
class Fleet:
    """Columns of a generated fleet, as written to its CSV."""

    asset_id: list[str]
    voltage_kv: np.ndarray
    family: list[str]
    commission: np.ndarray  # datetime64[D]
    failure: np.ndarray  # datetime64[D], NaT when in service

    def __len__(self) -> int:
        return len(self.asset_id)


def _family_sizes(n: int) -> list[tuple[str, int]]:
    sizes = [(fam, int(round(n * share))) for fam, share in FAMILY_SHARES]
    sizes[-1] = (sizes[-1][0], n - sum(s for _, s in sizes[:-1]))
    return sizes


def _random_fleet(rng: np.random.Generator, n: int, first: date, last: date) -> Fleet:
    ids, kvs, families, offsets = [], [], [], []
    span = (last - first).days
    for fam, size in _family_sizes(n):
        if fam == "220_380":
            kv = np.where(rng.integers(0, 2, size) == 0, 220, 380)
        else:
            kv = np.full(size, int(fam))
        kvs.append(kv)
        offsets.append(rng.integers(0, span + 1, size))
        families += [fam] * size
        ids += [f"{fam}-{i:06d}" for i in range(size)]
    commission = np.datetime64(first.isoformat(), "D") + np.concatenate(offsets)
    return Fleet(ids, np.concatenate(kvs), families, commission,
                 np.full(n, np.datetime64("NaT"), dtype="datetime64[D]"))


def _write_fleet_csv(fleet: Fleet, path: Path) -> None:
    commission = np.datetime_as_string(fleet.commission, unit="D")
    failure = np.datetime_as_string(fleet.failure, unit="D")
    lines = [CSV_HEADER]
    for i, asset_id in enumerate(fleet.asset_id):
        fail = "" if failure[i] == "NaT" else failure[i]
        lines.append(f"{asset_id},{fleet.voltage_kv[i]},{commission[i]},{fail},M{1 + i % 8}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def observed_fleet(seed: int, reference_laws: dict) -> Fleet:
    """Fleet with failures drawn from the reference laws up to the cutoff.

    Lifetimes come from the inverse Weibull CDF and round to whole days, at
    least one; a failure later than the cutoff leaves the asset censored.
    """
    rng = np.random.default_rng([seed, 1])
    first, last = ESTIMATE_COMMISSION
    fleet = _random_fleet(rng, ESTIMATE_RECORDS, first, last)
    beta = np.array([reference_laws[f][0] for f in fleet.family])
    eta = np.array([reference_laws[f][1] for f in fleet.family])
    life_years = eta * (-np.log1p(-rng.random(len(fleet)))) ** (1.0 / beta)
    days = np.maximum(1, np.round(life_years * DAYS_PER_YEAR)).astype(np.int64)
    failure = fleet.commission + days
    cutoff = np.datetime64(ESTIMATE_CUTOFF.isoformat(), "D")
    failure = np.where(failure <= cutoff, failure, np.datetime64("NaT"))
    return Fleet(fleet.asset_id, fleet.voltage_kv, fleet.family, fleet.commission, failure)


def open_pool_fleet(seed: int) -> Fleet:
    first, last = OPEN_POOL_COMMISSION
    return _random_fleet(np.random.default_rng([seed, 2]), OPEN_POOL_ASSETS, first, last)


def master_seed(seed: int, salt: int) -> int:
    """Simulation master seed derived from the workload seed."""
    return int(np.random.default_rng([seed, salt]).integers(0, 2**31))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_estimate_inputs(fl, seed: int, out: Path) -> dict:
    laws = {vc.value: (law.beta, law.eta) for vc, law in fl.REFERENCE_LAWS.items()}
    fleet = observed_fleet(seed, laws)
    _write_fleet_csv(fleet, out / "assets.csv")
    return {"assets": out / "assets.csv", "records": len(fleet), "laws": laws,
            "cutoff": ESTIMATE_CUTOFF.isoformat()}


def write_open_pool_inputs(fl, seed: int, out: Path) -> dict:
    fleet = open_pool_fleet(seed)
    _write_fleet_csv(fleet, out / "fleet.csv")
    scenario = fl.scenario_to_dict(fl.builtin_scenario(
        "time-based", "unconstrained",
        replications=OPEN_POOL_REPLICATIONS, master_seed=master_seed(seed, 3)))
    _write_json(out / "open.json", scenario)
    return {"fleet": out / "fleet.csv", "scenarios": {"open": out / "open.json"},
            "assets": len(fleet)}


def write_binding_pool_inputs(fl, seed: int, out: Path) -> dict:
    spec = fl.SyntheticFleetSpec(
        sizes={fl.VoltageClass(k): v for k, v in BINDING_FLEET_SPEC["sizes"].items()},
        commission_years=tuple(BINDING_FLEET_SPEC["commission_years"]),
        seed=BINDING_FLEET_SPEC["seed"])
    records = fl.generate_synthetic_fleet(spec)
    with open(out / "fleet.csv", "w", encoding="utf-8", newline="") as handle:
        fl.write_asset_csv(records, handle)
    scenarios = {}
    for label, strategy, salt in (("tb", "time-based", 4), ("cb", "condition-based", 5)):
        scenario = fl.scenario_to_dict(fl.builtin_scenario(
            strategy, "fte40", replications=BINDING_REPLICATIONS,
            master_seed=master_seed(seed, salt)))
        scenario["name"] = f"{strategy}:fte{BINDING_FTE}x{BINDING_HOURS_PER_FTE:g}h"
        scenario["resources"] = {"mode": "constrained", "fte_count": BINDING_FTE,
                                 "hours_per_fte_per_year": BINDING_HOURS_PER_FTE}
        scenarios[label] = out / f"{label}.json"
        _write_json(scenarios[label], scenario)
    return {"fleet": out / "fleet.csv", "scenarios": scenarios, "assets": len(records)}
