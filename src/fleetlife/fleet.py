"""Asset records, right-censored lifetime tables, and synthetic fleet generation.

The asset CSV schema is ``asset_id,voltage_kv,commission_date,failure_date,
manufacturer`` with YYYY-MM-DD dates and an empty failure_date for assets still
in service. 220 kV and 380 kV units are pooled into one statistical family but
keep their raw voltage for activity costing. A fleet is an AssetTable, one
row per asset held as columns, and a lifetime table holds one row per asset
as columns (duration, event flag, family), which the estimators read as
arrays.
"""

from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass, replace
from datetime import date
from itertools import chain
from typing import IO, Iterable, Mapping

import numpy as np

__all__ = [
    "DataError",
    "VoltageClass",
    "AssetTable",
    "FAMILIES",
    "LifetimeTable",
    "SyntheticFleetSpec",
    "service_years",
    "parse_asset_csv",
    "write_asset_csv",
    "build_lifetime_table",
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

    @classmethod
    def named(cls, name: str, where: str) -> "VoltageClass":
        """The family whose value is `name`, else a DataError naming field `where`."""
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(vc.value for vc in cls)
            raise DataError(f"{where}: unknown family {name!r} (expected {valid})") from None


# Row order of the family codes in a LifetimeTable.
FAMILIES: tuple[VoltageClass, ...] = tuple(VoltageClass)
# family code of each valid voltage, indexed by kV
_FAMILY_OF_KV = np.full(max(VALID_VOLTAGES) + 1, -1, dtype=np.int8)
_FAMILY_OF_KV[list(VALID_VOLTAGES)] = [
    FAMILIES.index(VoltageClass.from_kv(kv)) for kv in VALID_VOLTAGES
]


@dataclass(frozen=True, eq=False)
class AssetTable:
    """Asset records as columns, one row per asset, in input order.

    ``asset_id`` and ``manufacturer`` are lists of str, with "" for no
    manufacturer. ``voltage_kv`` is an int array. ``commission`` and
    ``failure`` are int64 day numbers as ``date.toordinal()`` gives them,
    with failure 0 for an asset still in service (no date has ordinal 0).
    Ids must be non-empty and unique, voltages known, and a failure must
    come after its commission; the first row breaking a rule is named.
    """

    asset_id: list[str]
    voltage_kv: np.ndarray
    commission: np.ndarray
    failure: np.ndarray
    manufacturer: list[str]

    def __post_init__(self) -> None:
        asset_id = list(self.asset_id)
        manufacturer = list(self.manufacturer)
        voltage_kv = np.asarray(self.voltage_kv, dtype=np.int64)
        commission = np.asarray(self.commission, dtype=np.int64)
        failure = np.asarray(self.failure, dtype=np.int64)
        n = len(asset_id)
        if not (
            voltage_kv.shape == commission.shape == failure.shape == (n,)
            and len(manufacturer) == n
        ):
            raise ValueError("asset columns must be one-dimensional and of equal length")
        if "" in asset_id:
            raise DataError(f"empty asset_id at index {asset_id.index('')}")
        if len(set(asset_id)) != n:
            seen: set[str] = set()
            for name in asset_id:
                if name in seen:
                    raise DataError(f"duplicate asset_id {name!r}")
                seen.add(name)
        bad = ~np.isin(voltage_kv, VALID_VOLTAGES)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"asset {asset_id[i]!r}: unknown voltage {voltage_kv[i]} kV")
        bad = (failure != 0) & (failure <= commission)
        if bad.any():
            raise DataError(f"asset {asset_id[int(np.argmax(bad))]!r}: failure before commission")
        object.__setattr__(self, "asset_id", asset_id)
        object.__setattr__(self, "voltage_kv", voltage_kv)
        object.__setattr__(self, "commission", commission)
        object.__setattr__(self, "failure", failure)
        object.__setattr__(self, "manufacturer", manufacturer)

    def __len__(self) -> int:
        return len(self.asset_id)

    @property
    def family(self) -> np.ndarray:
        """Each row's index into FAMILIES."""
        return _FAMILY_OF_KV[self.voltage_kv]


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
        counts = np.bincount(self.family, minlength=len(FAMILIES))
        return {FAMILIES[code] for code in np.flatnonzero(counts).tolist()}


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


def iso_date(value: object, field: str) -> date:
    """`value` as a date if it is a string of exactly YYYY-MM-DD, else a
    DataError naming `field`. (`date.fromisoformat` alone reads other ISO
    forms too, such as 20200101, from Python 3.11 on.)"""
    if isinstance(value, str) and re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", value):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    raise DataError(f"{field}: malformed date {value!r} (expected YYYY-MM-DD)")


def parse_asset_csv(source: IO[bytes] | IO[str] | Iterable[str]) -> AssetTable:
    """Parse the asset CSV into a table, preserving row order.

    Rejects the whole file on the first malformed row, reporting the
    1-based row number (header is row 1) and the reason. Blank lines are
    skipped. Each row is checked in this order: field count, empty id,
    duplicate id, integer voltage, commission date, failure date, known
    voltage, failure after commission.

    A byte stream, as the CLI opens a file, is read whole. A plain file (no
    quote, CR, NUL or blank line, four commas on every line, a final
    newline) takes a columnar path, which accepts only voltages written
    110, 150, 220 or 380 and dates written YYYY-MM-DD in ASCII digits. Any
    other file, any file that fails a check there, and any text goes
    through the row loop, so both paths accept the same files, give the
    same table and name the same first bad row.
    """
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        data = source.read()
        table = _parse_plain(data)
        if table is not None:
            return table
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return _parse_rows(source)


# The header line, and the separator that ends each field of a row
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode()
_ROW_SEPARATORS = np.frombuffer(b",,,,\n", dtype=np.uint8)
# The columnar path reads about this many bytes of rows at a time, which
# bounds the memory their split fields take.
_BLOCK_BYTES = 1 << 20
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _parse_plain(data: bytes) -> AssetTable | None:
    """The table of a plain asset CSV, or None where the row loop must decide.

    None means the file is not plain, some field is not in the one form
    this path reads, or the table's own checks fail.
    """
    if (
        not data.startswith(_HEADER_LINE)
        or not data.endswith(b"\n")
        or any(c in data for c in (b'"', b"\r", b"\0"))
    ):
        return None
    parts = []
    start = len(_HEADER_LINE)
    while start < len(data):
        end = data.index(b"\n", min(start + _BLOCK_BYTES, len(data) - 1)) + 1
        parts.append(_plain_block(data[start:end]))
        if parts[-1] is None:
            return None
        start = end
    if not parts:
        return None  # no rows: the row loop is as quick
    ids, kv, commission, failure, manufacturer = zip(*parts)
    try:
        return AssetTable(
            list(chain.from_iterable(ids)),
            np.concatenate(kv),
            np.concatenate(commission),
            np.concatenate(failure),
            list(chain.from_iterable(manufacturer)),
        )
    except DataError:
        return None


def _plain_block(block: bytes) -> tuple | None:
    """The five columns of whole rows of a plain file, or None.

    Voltages and dates are read from the bytes of each column at once; ids
    and manufacturers are the text between the separators.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if seps.size % 5 or (raw[seps].reshape(-1, 5) != _ROW_SEPARATORS).any():
        return None
    seps = seps.reshape(-1, 5)
    dated = seps[:, 3] > seps[:, 2] + 1
    kv = _field_bytes(raw, seps[:, 0] + 1, seps[:, 1], "999")
    commission = _field_bytes(raw, seps[:, 1] + 1, seps[:, 2], "9999-99-99")
    failure = _field_bytes(raw, seps[dated, 2] + 1, seps[dated, 3], "9999-99-99")
    if kv is None or commission is None or failure is None:
        return None
    commission, failure_days = _day_ordinals(commission), _day_ordinals(failure)
    if commission is None or failure_days is None:
        return None
    failure = np.zeros(len(seps), dtype=np.int64)
    failure[dated] = failure_days
    try:
        fields = block.decode("utf-8").replace("\n", ",").split(",")
    except UnicodeDecodeError:
        return None
    kv = kv.view("S3").ravel().astype(np.int64)
    return fields[0:-1:5], kv, commission, failure, fields[4::5]


def _field_bytes(raw: np.ndarray, start: np.ndarray, end: np.ndarray, form: str):
    """The bytes raw[start:end] of each row as an (n, len(form)) array.

    None unless every row matches form, where 9 stands for any ASCII digit
    and every other character for itself.
    """
    if (end - start != len(form)).any():
        return None
    chars = raw[start[:, None] + np.arange(len(form))]
    pattern = np.frombuffer(form.encode(), dtype=np.uint8)
    digits = (chars >= ord("0")) & (chars <= ord("9"))
    return chars if np.where(pattern == ord("9"), digits, chars == pattern).all() else None


def _day_ordinals(chars: np.ndarray) -> np.ndarray | None:
    """Day ordinals of (n, 10) bytes that each read YYYY-MM-DD, or None.

    None if some row names no calendar day from 0001-01-01 on (numpy also
    reads year 0, which dates do not have).
    """
    try:
        days = chars.view("S10").ravel().astype("datetime64[D]").astype(np.int64)
    except ValueError:
        return None
    days += _EPOCH_ORDINAL
    return days if (days >= 1).all() else None


def _parse_rows(lines: Iterable[str]) -> AssetTable:
    """The row loop of parse_asset_csv: csv.reader, then every check per row."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: missing header") from None
    if header != CSV_HEADER:
        raise DataError(f"row 1: bad header {header!r} (expected {CSV_HEADER!r})")

    ids: dict[str, None] = {}  # insertion-ordered: also the id column
    kvs: list[int] = []
    commissions: list[int] = []
    failures: list[int] = []
    manufacturers: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataError(f"row {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        asset_id, kv_text, commission_text, failure_text, manufacturer = row
        if not asset_id:
            raise DataError(f"row {lineno}: empty asset_id")
        if asset_id in ids:
            raise DataError(f"row {lineno}: duplicate asset_id {asset_id!r}")
        ids[asset_id] = None
        try:
            kv = int(kv_text)
        except ValueError:
            raise DataError(f"row {lineno}: malformed voltage {kv_text!r}") from None
        try:
            commission = iso_date(commission_text, "commission_date").toordinal()
        except DataError:
            raise DataError(
                f"row {lineno}: malformed commission_date {commission_text!r}"
            ) from None
        try:
            failure = iso_date(failure_text, "failure_date").toordinal() if failure_text else 0
        except DataError:
            raise DataError(f"row {lineno}: malformed failure_date {failure_text!r}") from None
        if kv not in VALID_VOLTAGES:
            raise DataError(f"row {lineno}: asset {asset_id!r}: unknown voltage {kv} kV")
        if failure and failure <= commission:
            raise DataError(f"row {lineno}: asset {asset_id!r}: failure before commission")
        kvs.append(kv)
        commissions.append(commission)
        failures.append(failure)
        manufacturers.append(manufacturer)
    return AssetTable(list(ids), kvs, commissions, failures, manufacturers)


def _iso_dates(days: np.ndarray) -> list[str]:
    """ISO dates of day ordinals, "" for 0."""
    return [date.fromordinal(day).isoformat() if day else "" for day in days.tolist()]


def write_asset_csv(assets: AssetTable, stream: IO[str]) -> None:
    """Inverse of parse_asset_csv; round-trips all fields exactly."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        zip(
            assets.asset_id,
            assets.voltage_kv.tolist(),
            _iso_dates(assets.commission),
            _iso_dates(assets.failure),
            assets.manufacturer,
        )
    )


def service_years(assets: AssetTable, end: date | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Years from commission to ``end`` for each asset, and its family code.

    ``end`` is one date for every asset, or an int64 array of per-asset end
    days as ``date.toordinal()`` values. Years count whole days over 365.25
    and are negative for an asset commissioned after its end. Family codes
    index FAMILIES.
    """
    if isinstance(end, date):
        end = end.toordinal()
    return (end - assets.commission) / DAYS_PER_YEAR, assets.family


def build_lifetime_table(assets: AssetTable, cutoff: date) -> LifetimeTable:
    """Turn an asset table into a right-censored lifetime table.

    Failed assets contribute (commission -> failure, event). Unfailed assets
    are censored at the cutoff. The cutoff must not precede any commission
    date, and no failure may lie beyond it; the first row in table order
    that breaks either rule is named in the error.
    """
    end_of_window = cutoff.toordinal()
    failure = assets.failure
    event = failure > 0
    duration, family = service_years(assets, np.where(event, failure, end_of_window))
    bad = (duration < 0) | (failure > end_of_window)
    if bad.any():
        i = int(np.argmax(bad))
        asset_id = assets.asset_id[i]
        commission = date.fromordinal(int(assets.commission[i]))
        if commission > cutoff:
            raise DataError(
                f"asset {asset_id!r}: cutoff {cutoff.isoformat()} before "
                f"commission {commission.isoformat()}"
            )
        raise DataError(
            f"asset {asset_id!r}: failure {date.fromordinal(int(failure[i])).isoformat()} "
            f"after cutoff {cutoff.isoformat()} (observation outside window)"
        )
    return LifetimeTable(duration, event, family)


def generate_synthetic_fleet(spec: SyntheticFleetSpec) -> AssetTable:
    """Deterministically generate an in-service fleet from a spec.

    Commission dates are uniform over the year range. No failure dates are
    assigned; failures come from simulation or from draw_failures.
    """
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
    assets: AssetTable,
    laws: Mapping[VoltageClass, "object"],
    cutoff: date,
    seed: int,
) -> AssetTable:
    """Assign sampled failure dates to a fleet, censoring at the cutoff.

    For each asset a lifetime is drawn from its family's reliability law; the
    asset gets a failure date only if that lifetime ends before the cutoff.
    Assets whose family has no law are left untouched. Deterministic in the
    seed and row order.
    """
    rng = np.random.default_rng(seed)
    end = cutoff.toordinal()
    failure = assets.failure.copy()
    for i, (code, commission) in enumerate(
        zip(assets.family.tolist(), assets.commission.tolist())
    ):
        law = laws.get(FAMILIES[code])
        if law is None:
            continue
        life_years = float(law.sample(1, rng)[0])
        day = commission + max(1, round(life_years * DAYS_PER_YEAR))
        if day <= end:
            failure[i] = day
    return replace(assets, failure=failure)
