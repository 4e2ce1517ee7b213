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
    manufacturer; equal manufacturer names may be one object.
    ``voltage_kv`` is an int array. ``commission`` and ``failure`` are
    int64 day numbers as ``date.toordinal()`` gives them, with failure 0
    for an asset still in service (no date has ordinal 0).
    Ids must be non-empty and unique, voltages known, and a failure must
    come after its commission; the first row breaking a rule is named.
    """

    asset_id: list[str]
    voltage_kv: np.ndarray
    commission: np.ndarray
    failure: np.ndarray
    manufacturer: list[str]

    def __post_init__(self) -> None:
        # a list column is kept as given, any other sequence copied
        asset_id, manufacturer = (
            c if isinstance(c, list) else list(c) for c in (self.asset_id, self.manufacturer)
        )
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
        # equal ids have equal hashes: a sorted array of them, not a set of
        # ids, shows that every id is unique
        hashes = np.sort(np.fromiter(map(hash, asset_id), np.int64, n))
        if (hashes[1:] == hashes[:-1]).any():
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
    """Sizes per family, commissioning year range (inclusive), and a seed.
    Each check names its field first, as a spec file gives it."""

    sizes: Mapping[VoltageClass, int]
    commission_years: tuple[int, int]
    seed: int = 0

    def __post_init__(self) -> None:
        for vc, n in self.sizes.items():
            if not isinstance(vc, VoltageClass):
                raise DataError(f"sizes.{vc}: key must be a VoltageClass, got {vc!r}")
            if n < 0:
                raise DataError(f"sizes.{vc.value}: must be >= 0, got {n}")
        lo, hi = self.commission_years
        if not 1 <= lo <= hi <= 9999:
            raise DataError(f"commission_years: expected 1 <= first <= last <= 9999, got [{lo}, {hi}]")
        if self.seed < 0:
            raise DataError(f"seed: must be >= 0, got {self.seed}")


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
    newline) takes a columnar path in blocks of about 256 KiB. After its first
    comma each row there has a fixed layout, a voltage of three ASCII
    digits and YYYY-MM-DD dates (the failure date may be empty), read as
    digits, with day numbers by calendar arithmetic; only ids and
    manufacturers are decoded, one object per manufacturer name. Any other
    file, any file that fails a check there, and any text goes through the
    row loop, so both paths accept the same files, give the same table and
    name the same first bad row.
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
# bounds the memory their masks, gathers and split fields take: with the
# input and the table, one block is all that ingest holds. Smaller blocks
# cost more calls per row.
_BLOCK_BYTES = 1 << 18
# Days in each month of a common year, and before it in the year, by month
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS


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
    ids: list[str] = []
    manufacturer: list[str] = []
    names: dict[str, str] = {}  # one object per manufacturer name
    numbers = []
    start = len(_HEADER_LINE)
    while start < len(data):
        end = data.index(b"\n", min(start + _BLOCK_BYTES, len(data) - 1)) + 1
        part = _plain_block(memoryview(data)[start:end], names)
        if part is None:
            return None
        ids += part[0]
        manufacturer += part[4]
        numbers.append(part[1:4])
        start = end
    if not ids:
        return None  # no rows: the row loop is as quick
    kv, commission, failure = map(np.concatenate, zip(*numbers))
    del numbers, part  # the table keeps the columns, not their parts
    try:
        return AssetTable(ids, kv, commission, failure, manufacturer)
    except DataError:
        return None


def _plain_block(block: memoryview, names: dict[str, str]) -> tuple | None:
    """The five columns of whole rows of a plain file, or None.

    After its first comma a row has a fixed layout: a 3-digit voltage, a
    10-byte commission date, then an empty or 10-byte failure date. Those
    are read as digits at their offsets and cut out before decoding, so
    only ids and manufacturers become str, each name one object of `names`.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if seps.size % 5 or (raw[seps].reshape(-1, 5) != _ROW_SEPARATORS).any():
        return None
    seps = seps.reshape(-1, 5)
    first = seps[:, 0]
    # the next three commas lie 4, 15 and 16 bytes after the first, or 26
    # after a failure date
    offsets = seps[:, 1:4] - first[:, None]
    dated = offsets[:, 2] == 26
    if (offsets[:, :2] != (4, 15)).any() or not (dated | (offsets[:, 2] == 16)).all():
        return None
    windows = np.lib.stride_tricks.sliding_window_view(raw, 10)
    failure = np.zeros(len(seps), dtype=np.int64)
    # cut each row from its voltage through the comma after its failure date
    edges = np.zeros(raw.size, dtype=bool)
    edges[first + 1] = edges[seps[:, 3] + 1] = True
    try:
        kv = _digits(windows[first + 1, :3], "999")
        commission = _day_ordinals(windows[first + 5])
        failure[dated] = _day_ordinals(windows[first[dated] + 16])
        text = raw[~np.logical_xor.accumulate(edges)].tobytes().decode("utf-8")
    except ValueError:
        return None
    kv = kv[:, 0] * 100 + kv[:, 1] * 10 + kv[:, 2]
    fields = text.replace("\n", ",").split(",")
    made = fields[1::2]
    return fields[0:-1:2], kv, commission, failure, list(map(names.setdefault, made, made))


def _digits(chars: np.ndarray, form: str) -> np.ndarray:
    """The digit values of (n, len(form)) bytes as int32; ValueError unless
    each row matches form, where 9 stands for any ASCII digit."""
    pattern = np.frombuffer(form.encode(), dtype=np.uint8)
    digit = pattern == ord("9")
    values = chars - np.uint8(ord("0"))
    if (values[:, digit] > 9).any() or (chars[:, ~digit] != pattern[~digit]).any():
        raise ValueError(f"bytes not of the form {form}")
    return values.astype(np.int32)


def _day_ordinals(chars: np.ndarray) -> np.ndarray:
    """Day ordinals, as date.toordinal gives them, of (n, 10) bytes that
    each read YYYY-MM-DD; ValueError where a row names no calendar day, as
    date.fromisoformat does (year 0, month 0 or 13 on, day 0 or past the
    month's end)."""
    digits = _digits(chars, "9999-99-99")
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month = digits[:, 5] * 10 + digits[:, 6]
    day = digits[:, 8] * 10 + digits[:, 9]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    length = np.take(_MONTH_DAYS, month, mode="clip") + (leap & (month == 2))
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)).all():
        raise ValueError("not a calendar day")
    y = year - 1
    in_year = _DAYS_BEFORE[month] + (leap & (month > 2)) + day
    return y * 365 + y // 4 - y // 100 + y // 400 + in_year


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
    assigned; failures come from simulation or from draw_failures. Each
    family is one draw of a row per asset ([220 or 380,] day, manufacturer)
    that gives the values of one scalar draw per value.
    """
    rng = np.random.default_rng(spec.seed)
    first = date(spec.commission_years[0], 1, 1).toordinal()
    span = date(spec.commission_years[1], 12, 31).toordinal() - first
    makers = [f"M{k}" for k in range(1, 9)]
    ids, manufacturers, kvs, days = [], [], [], []
    for vc in VoltageClass:
        n = spec.sizes.get(vc, 0)
        if vc is VoltageClass.V220_380:
            pick, day, maker = rng.integers([0, 0, 1], [2, span + 1, 9], size=(n, 3)).T
            kv = np.where(pick == 0, 220, 380)
        else:
            day, maker = rng.integers([0, 1], [span + 1, 9], size=(n, 2)).T
            kv = np.full(n, int(vc.value))
        ids += [f"{k}-{i:05d}" for i, k in enumerate(kv.tolist())]
        manufacturers += [makers[k - 1] for k in maker.tolist()]
        kvs.append(kv)
        days.append(day)
    commission = first + np.concatenate(days)
    return AssetTable(ids, np.concatenate(kvs), commission, np.zeros_like(commission), manufacturers)


def draw_failures(
    assets: AssetTable,
    laws: Mapping[VoltageClass, "object"],
    cutoff: date,
    seed: int,
) -> AssetTable:
    """Assign sampled failure dates to a fleet, censoring at the cutoff.

    For each asset a lifetime is drawn from its family's reliability law; the
    asset gets a failure date only if that lifetime ends before the cutoff.
    Assets whose family has no law are left untouched; a key that is not a
    VoltageClass is refused. Deterministic in the seed and row order; a
    lifetime is the law's conditional_failure_age at 0.
    """
    for vc in laws:
        if not isinstance(vc, VoltageClass):
            raise DataError(f"laws.{vc}: key must be a VoltageClass, got {vc!r}")
    rng = np.random.default_rng(seed)
    codes = [code for code, vc in enumerate(FAMILIES) if laws.get(vc) is not None]
    rows = np.flatnonzero(np.isin(assets.family, codes))
    family = assets.family[rows]
    e = -np.log1p(-rng.random(len(rows)))
    life = np.empty(len(rows))
    for code in codes:
        at = family == code
        life[at] = laws[FAMILIES[code]].conditional_failure_age(0.0, e[at])
    # half to even, as round rounds; in float, an infinite life ends after any cutoff
    days = np.maximum(np.round(life * DAYS_PER_YEAR), 1.0)
    commission = assets.commission[rows]
    fails = days <= cutoff.toordinal() - commission
    failure = assets.failure.copy()
    failure[rows[fails]] = commission[fails] + days[fails].astype(np.int64)
    return replace(assets, failure=failure)
