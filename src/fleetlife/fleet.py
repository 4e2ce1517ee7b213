"""Asset records, right-censored lifetime tables, and synthetic fleet generation.

The asset CSV schema is ``asset_id,voltage_kv,commission_date,failure_date,
manufacturer`` with ISO-8601 dates and an empty failure_date for assets still
in service. 220 kV and 380 kV units are pooled into one statistical family but
keep their raw voltage for activity costing. A lifetime table holds one row
per asset as columns (duration, event flag, family), which the estimators
read as arrays.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import IO, Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "DataError",
    "VoltageClass",
    "AssetRecord",
    "FAMILIES",
    "LifetimeTable",
    "ClassSummary",
    "FleetSummary",
    "SyntheticFleetSpec",
    "years_between",
    "service_years",
    "parse_asset_csv",
    "write_asset_csv",
    "build_lifetime_table",
    "fleet_summary",
    "generate_synthetic_fleet",
    "draw_failures",
]

DAYS_PER_YEAR = 365.25

CSV_HEADER = ["asset_id", "voltage_kv", "commission_date", "failure_date", "manufacturer"]

VALID_VOLTAGES = (110, 150, 220, 380)


class DataError(ValueError):
    """Invalid or inconsistent fleet input data."""


class VoltageClass(enum.Enum):
    """Statistical family of an asset. 220 kV and 380 kV form one family."""

    V110 = "110"
    V150 = "150"
    V220_380 = "220_380"

    @classmethod
    def from_kv(cls, kv: int) -> "VoltageClass":
        if kv == 110:
            return cls.V110
        if kv == 150:
            return cls.V150
        if kv in (220, 380):
            return cls.V220_380
        raise DataError(f"unknown voltage {kv} kV (expected one of {VALID_VOLTAGES})")


# Row order of the family codes in a LifetimeTable.
FAMILIES: tuple[VoltageClass, ...] = tuple(VoltageClass)
_FAMILY_CODE = {kv: FAMILIES.index(VoltageClass.from_kv(kv)) for kv in VALID_VOLTAGES}


def years_between(start: date, end: date) -> float:
    """Elapsed years as exact day count / 365.25."""
    return (end - start).days / DAYS_PER_YEAR


@dataclass(frozen=True)
class AssetRecord:
    """One physical asset: identity, voltage, commissioning and failure status."""

    asset_id: str
    voltage_kv: int
    commission_date: date
    failure_date: Optional[date] = None
    manufacturer_code: Optional[str] = None

    def __post_init__(self) -> None:
        if self.voltage_kv not in VALID_VOLTAGES:
            raise DataError(
                f"asset {self.asset_id!r}: unknown voltage {self.voltage_kv} kV"
            )
        if self.failure_date is not None and self.failure_date <= self.commission_date:
            raise DataError(
                f"asset {self.asset_id!r}: failure before commission"
            )

    @property
    def voltage_class(self) -> VoltageClass:
        return VoltageClass.from_kv(self.voltage_kv)

    @property
    def failed(self) -> bool:
        return self.failure_date is not None


@dataclass(frozen=True, eq=False)
class LifetimeTable:
    """Right-censored lifetimes as columns, one row per asset.

    ``duration`` is in years (float64), ``event`` is False where the row is
    right-censored, and ``family`` holds each row's index into FAMILIES.
    Durations must be finite and non-negative.
    """

    duration: np.ndarray
    event: np.ndarray
    family: np.ndarray

    def __post_init__(self) -> None:
        duration = np.asarray(self.duration, dtype=np.float64)
        event = np.asarray(self.event, dtype=bool)
        family = np.asarray(self.family, dtype=np.int8)
        if duration.ndim != 1 or not duration.shape == event.shape == family.shape:
            raise ValueError("lifetime columns must be one-dimensional and of equal length")
        bad = ~(np.isfinite(duration) & (duration >= 0.0))
        if bad.any():
            raise DataError(f"invalid duration {duration[bad][0]}")
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "family", family)

    def __len__(self) -> int:
        return len(self.duration)

    def select(self, family: VoltageClass) -> "LifetimeTable":
        """The rows of one family, in table order."""
        rows = self.family == FAMILIES.index(family)
        return LifetimeTable(self.duration[rows], self.event[rows], self.family[rows])

    def families(self) -> set[VoltageClass]:
        """Families with at least one row."""
        return {FAMILIES[code] for code in np.unique(self.family).tolist()}


@dataclass(frozen=True)
class ClassSummary:
    total: int
    events: int
    censored: int


@dataclass(frozen=True)
class FleetSummary:
    """Per-family counts plus a fleet-wide age histogram in 5-year buckets."""

    classes: Mapping[VoltageClass, ClassSummary]
    age_histogram: Sequence[tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "classes": {
                vc.value: {"total": s.total, "events": s.events, "censored": s.censored}
                for vc, s in self.classes.items()
            },
            "age_histogram": [
                {"bucket_start_years": b, "count": c} for b, c in self.age_histogram
            ],
        }

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["voltage_class", "total", "events", "censored"])
        for vc in VoltageClass:
            s = self.classes[vc]
            writer.writerow([vc.value, s.total, s.events, s.censored])


@dataclass(frozen=True)
class SyntheticFleetSpec:
    """Sizes per family, commissioning year range (inclusive), and a seed."""

    sizes: Mapping[VoltageClass, int]
    commission_years: tuple[int, int]
    seed: int

    def __post_init__(self) -> None:
        lo, hi = self.commission_years
        if hi < lo:
            raise DataError(f"empty commission year range {lo}..{hi}")
        for vc, n in self.sizes.items():
            if n < 0:
                raise DataError(f"negative size {n} for {vc.value}")


def _parse_date(text: str, row: int, field: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise DataError(f"row {row}: malformed {field} {text!r}") from None


def parse_asset_csv(source: IO[bytes] | IO[str] | Iterable[str]) -> list[AssetRecord]:
    """Parse the asset CSV, preserving row order.

    Rejects the whole file on the first malformed row, reporting the
    1-based row number (header is row 1) and the reason.
    """
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: missing header") from None
    if header != CSV_HEADER:
        raise DataError(f"row 1: bad header {header!r} (expected {CSV_HEADER!r})")

    records: list[AssetRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataError(f"row {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        asset_id, kv_text, commission_text, failure_text, manufacturer = row
        if not asset_id:
            raise DataError(f"row {lineno}: empty asset_id")
        if asset_id in seen:
            raise DataError(f"row {lineno}: duplicate asset_id {asset_id!r}")
        seen.add(asset_id)
        try:
            kv = int(kv_text)
        except ValueError:
            raise DataError(f"row {lineno}: malformed voltage {kv_text!r}") from None
        commission = _parse_date(commission_text, lineno, "commission_date")
        failure = _parse_date(failure_text, lineno, "failure_date") if failure_text else None
        try:
            records.append(
                AssetRecord(
                    asset_id=asset_id,
                    voltage_kv=kv,
                    commission_date=commission,
                    failure_date=failure,
                    manufacturer_code=manufacturer or None,
                )
            )
        except DataError as exc:
            raise DataError(f"row {lineno}: {exc}") from None
    return records


def write_asset_csv(records: Iterable[AssetRecord], stream: IO[str]) -> None:
    """Inverse of parse_asset_csv; round-trips all fields exactly."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(
            [
                rec.asset_id,
                rec.voltage_kv,
                rec.commission_date.isoformat(),
                rec.failure_date.isoformat() if rec.failure_date else "",
                rec.manufacturer_code or "",
            ]
        )


def service_years(
    assets: Sequence[AssetRecord], end: date | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Years from commission to ``end`` for each record, and its family code.

    ``end`` is one date for every record, or an int64 array of per-record end
    days as ``date.toordinal()`` values. Years count whole days over 365.25,
    as years_between does, and are negative for a record commissioned after
    its end. Family codes index FAMILIES.
    """
    n = len(assets)
    if isinstance(end, date):
        end = end.toordinal()
    commission = np.fromiter(
        (rec.commission_date.toordinal() for rec in assets), dtype=np.int64, count=n
    )
    family = np.fromiter(
        (_FAMILY_CODE[rec.voltage_kv] for rec in assets), dtype=np.int8, count=n
    )
    return (end - commission) / DAYS_PER_YEAR, family


def build_lifetime_table(assets: Sequence[AssetRecord], cutoff: date) -> LifetimeTable:
    """Turn asset records into a right-censored lifetime table.

    Failed assets contribute (commission -> failure, event). Unfailed assets
    are censored at the cutoff. The cutoff must not precede any commission
    date, and no failure may lie beyond it; the first record in input order
    that breaks either rule is named in the error.
    """
    end_of_window = cutoff.toordinal()
    failure = np.fromiter(
        (rec.failure_date.toordinal() if rec.failure_date else 0 for rec in assets),
        dtype=np.int64,
        count=len(assets),
    )
    event = failure > 0
    duration, family = service_years(assets, np.where(event, failure, end_of_window))
    bad = (duration < 0) | (failure > end_of_window)
    if bad.any():
        rec = assets[int(np.argmax(bad))]
        if rec.commission_date > cutoff:
            raise DataError(
                f"asset {rec.asset_id!r}: cutoff {cutoff.isoformat()} before "
                f"commission {rec.commission_date.isoformat()}"
            )
        raise DataError(
            f"asset {rec.asset_id!r}: failure {rec.failure_date.isoformat()} "
            f"after cutoff {cutoff.isoformat()} (observation outside window)"
        )
    return LifetimeTable(duration, event, family)


def fleet_summary(table: LifetimeTable) -> FleetSummary:
    """Count totals and event/censored splits per family; histogram durations."""
    totals = np.bincount(table.family, minlength=len(FAMILIES)).tolist()
    events = np.bincount(table.family[table.event], minlength=len(FAMILIES)).tolist()
    classes = {
        vc: ClassSummary(total=totals[i], events=events[i], censored=totals[i] - events[i])
        for i, vc in enumerate(FAMILIES)
    }
    starts, counts = np.unique((table.duration // 5).astype(np.int64) * 5, return_counts=True)
    return FleetSummary(
        classes=classes, age_histogram=list(zip(starts.tolist(), counts.tolist()))
    )


def generate_synthetic_fleet(spec: SyntheticFleetSpec) -> list[AssetRecord]:
    """Deterministically generate an in-service fleet from a spec.

    Commission dates are uniform over the year range. No failure dates are
    assigned; failures come from simulation or from draw_failures.
    """
    rng = np.random.default_rng(spec.seed)
    first = date(spec.commission_years[0], 1, 1)
    last = date(spec.commission_years[1], 12, 31)
    span = (last - first).days
    records: list[AssetRecord] = []
    for vc in VoltageClass:
        n = spec.sizes.get(vc, 0)
        for i in range(n):
            if vc is VoltageClass.V220_380:
                kv = 220 if rng.integers(0, 2) == 0 else 380
            else:
                kv = int(vc.value)
            offset = int(rng.integers(0, span + 1))
            records.append(
                AssetRecord(
                    asset_id=f"{kv}-{i:05d}",
                    voltage_kv=kv,
                    commission_date=first + timedelta(days=offset),
                    manufacturer_code=f"M{int(rng.integers(1, 9))}",
                )
            )
    return records


def draw_failures(
    assets: Sequence[AssetRecord],
    laws: Mapping[VoltageClass, "object"],
    cutoff: date,
    seed: int,
) -> list[AssetRecord]:
    """Assign sampled failure dates to a fleet, censoring at the cutoff.

    For each asset a lifetime is drawn from its family's reliability law; the
    asset gets a failure date only if that lifetime ends before the cutoff.
    Assets whose family has no law are left untouched. Deterministic in the
    seed and input order.
    """
    rng = np.random.default_rng(seed)
    out: list[AssetRecord] = []
    for rec in assets:
        law = laws.get(rec.voltage_class)
        if law is None:
            out.append(rec)
            continue
        life_years = float(law.sample(1, rng)[0])
        days = max(1, round(life_years * DAYS_PER_YEAR))
        failure = rec.commission_date + timedelta(days=days)
        if failure <= cutoff:
            out.append(replace(rec, failure_date=failure))
        else:
            out.append(rec)
    return out
