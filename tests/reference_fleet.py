"""Per-asset reference draws of the synthetic fleet layer.

One numpy call per value: the loops that `fleetlife.fleet.
generate_synthetic_fleet` and `draw_failures` replaced with one array call
per family. The fleet oracle tests check that both give the same table and
leave their generator in the same state.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import date
from typing import Mapping

import numpy as np

from reference_laws import sample
from fleetlife.fleet import (
    DAYS_PER_YEAR,
    FAMILIES,
    AssetTable,
    SyntheticFleetSpec,
    VoltageClass,
)


def generate_synthetic_fleet(spec: SyntheticFleetSpec) -> AssetTable:
    """Per asset, in VoltageClass order: for 220/380 kV a draw of 220 or
    380, then a commission day and a manufacturer, one scalar draw each."""
    rng = np.random.default_rng(spec.seed)
    first = date(spec.commission_years[0], 1, 1).toordinal()
    span = date(spec.commission_years[1], 12, 31).toordinal() - first
    ids: list[str] = []
    kvs: list[int] = []
    commissions: list[int] = []
    manufacturers: list[str] = []
    for vc in VoltageClass:
        for i in range(spec.sizes.get(vc, 0)):
            if vc is VoltageClass.V220_380:
                kv = 220 if rng.integers(0, 2) == 0 else 380
            else:
                kv = int(vc.value)
            ids.append(f"{kv}-{i:05d}")
            kvs.append(kv)
            commissions.append(first + int(rng.integers(0, span + 1)))
            manufacturers.append(f"M{int(rng.integers(1, 9))}")
    return AssetTable(ids, kvs, commissions, np.zeros(len(ids), dtype=np.int64), manufacturers)


def draw_failures(
    assets: AssetTable, laws: Mapping[VoltageClass, object], cutoff: date, seed: int
) -> AssetTable:
    """Per asset in row order whose family has a law: one lifetime from
    `sample`, whole days rounded by `round` (at least 1), and a failure date
    where that day is no later than the cutoff."""
    rng = np.random.default_rng(seed)
    end = cutoff.toordinal()
    failure = assets.failure.copy()
    for i, (code, commission) in enumerate(
        zip(assets.family.tolist(), assets.commission.tolist())
    ):
        law = laws.get(FAMILIES[code])
        if law is None:
            continue
        life_years = float(sample(law, 1, rng)[0])
        day = commission + max(1, round(life_years * DAYS_PER_YEAR))
        if day <= end:
            failure[i] = day
    return replace(assets, failure=failure)
