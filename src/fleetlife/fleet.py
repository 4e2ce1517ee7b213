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
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "DataError",
    "VoltageClass",
    "AssetTable",
    "TextColumn",
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


class _Codes(dict):
    """The code of each key; a key not yet seen takes the next code."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


# rows of a TextColumn that one gather decodes
_TAKE_ROWS = 1 << 13


class TextColumn:
    """A read-only column of text, one str per row, with no Python object
    per row.

    Texts that differ from row to row, such as asset ids, are one UTF-8
    buffer, ``data``, with each row's end offset in ``offsets`` (int64,
    after a leading 0). Few texts repeated, such as manufacturers, are a
    tuple of texts, ``names``, with each row's int32 index into it in
    ``codes``. Either form takes `len`, an int index, which gives the row's
    str, and iteration; `encode` and `coded` copy what they are given.
    """

    __slots__ = ("data", "offsets", "names", "codes", "_checked_ids")

    def __init__(self, data=b"", offsets=None, names=(), codes=None):
        for column in (offsets, codes):
            if column is not None:
                column.flags.writeable = False
        self.data, self.offsets, self.names, self.codes = data, offsets, names, codes
        # set where AssetTable's id rules are known to hold for the column
        self._checked_ids = False

    @classmethod
    def encode(cls, texts: Iterable[str]) -> "TextColumn":
        """`texts` as one UTF-8 buffer with an end offset per row."""
        texts = list(texts)
        joined = "".join(texts)
        if joined.isascii():
            data, lengths = joined.encode("ascii"), map(len, texts)
        else:
            encoded = [text.encode() for text in texts]
            data, lengths = b"".join(encoded), map(len, encoded)
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(lengths, np.int64, len(texts)), out=offsets[1:])
        return cls(data, offsets)

    @classmethod
    def coded(cls, texts: Iterable[str]) -> "TextColumn":
        """`texts` as the tuple of their distinct values, in the order they
        first come, with an int32 code per row."""
        texts, code = list(texts), _Codes()
        codes = np.fromiter(map(code.__getitem__, texts), np.int32, len(texts))
        if not all(isinstance(name, str) for name in code):
            raise TypeError("a text column holds str")
        return cls(names=tuple(code), codes=codes)

    def __len__(self) -> int:
        return len(self.offsets) - 1 if self.codes is None else len(self.codes)

    def __getitem__(self, row: int) -> str:
        row = range(len(self))[row]  # negative from the end, as a list takes it
        if self.codes is not None:
            return self.names[self.codes[row]]
        return self.data[self.offsets[row] : self.offsets[row + 1]].decode()

    def __iter__(self) -> Iterator[str]:
        for start in range(0, len(self), _TAKE_ROWS):
            yield from self.take(slice(start, start + _TAKE_ROWS))

    def take(self, rows: slice | np.ndarray) -> list[str]:
        """The texts of `rows`, a slice or an int array, in its order.

        A buffer's texts are gathered with one numpy index, each followed
        by a line feed, decoded once and split there; only where a text
        holds a line feed is each decoded alone.
        """
        if self.codes is not None:
            return list(map(self.names.__getitem__, self.codes[rows].tolist()))
        starts, stops = self.offsets[:-1][rows], self.offsets[1:][rows]
        if not (len(starts) and self.data):
            return [""] * len(starts)
        sizes = stops - starts + 1
        ends = np.cumsum(sizes)
        # the byte of data each gathered byte copies; a line feed copies
        # the byte after its text, and is then written over
        source = np.arange(ends[-1]) - np.repeat(ends - sizes - starts, sizes)
        gathered = np.frombuffer(self.data, dtype=np.uint8)[np.minimum(source, len(self.data) - 1)]
        gathered[ends - 1] = ord("\n")
        texts = gathered.tobytes().decode().split("\n")
        if len(texts) == len(sizes) + 1:
            texts.pop()
            return texts
        return [self.data[a:b].decode() for a, b in zip(starts.tolist(), stops.tolist())]

    def encoded(self) -> list[bytes]:
        """Each row's text as its UTF-8 bytes."""
        if self.codes is not None:
            names = [name.encode() for name in self.names]
            return list(map(names.__getitem__, self.codes.tolist()))
        bounds = self.offsets.tolist()
        return list(map(self.data.__getitem__, map(slice, bounds[:-1], bounds[1:])))


@dataclass(frozen=True, eq=False)
class AssetTable:
    """Asset records as columns, one row per asset, in input order.

    ``asset_id`` and ``manufacturer`` are TextColumns, built from any
    sequence of str given for them: the ids as one UTF-8 buffer, the
    manufacturers as codes into their distinct names, with "" for none.
    ``voltage_kv`` is an int array. ``commission`` and ``failure`` are
    int64 day numbers as ``date.toordinal()`` gives them, with failure 0
    for an asset still in service (no date has ordinal 0).
    Ids must be non-empty and unique, voltages known, and a failure must
    come after its commission; the first row breaking a rule is named.
    """

    asset_id: TextColumn
    voltage_kv: np.ndarray
    commission: np.ndarray
    failure: np.ndarray
    manufacturer: TextColumn

    def __post_init__(self) -> None:
        asset_id, manufacturer = self.asset_id, self.manufacturer
        checked = isinstance(asset_id, TextColumn) and asset_id._checked_ids
        ids = asset_id if checked else list(asset_id)
        if not isinstance(manufacturer, TextColumn):
            manufacturer = TextColumn.coded(manufacturer)
        voltage_kv = np.asarray(self.voltage_kv, dtype=np.int64)
        commission = np.asarray(self.commission, dtype=np.int64)
        failure = np.asarray(self.failure, dtype=np.int64)
        n = len(ids)
        if not (
            voltage_kv.shape == commission.shape == failure.shape == (n,)
            and len(manufacturer) == n
        ):
            raise ValueError("asset columns must be one-dimensional and of equal length")
        if not checked:
            if "" in ids:
                raise DataError(f"empty asset_id at index {ids.index('')}")
            # equal ids have equal hashes: a sorted array of them, not a set
            # of ids, shows that every id is unique
            hashes = np.sort(np.fromiter(map(hash, ids), np.int64, n))
            if (hashes[1:] == hashes[:-1]).any():
                seen: set[str] = set()
                for name in ids:
                    if name in seen:
                        raise DataError(f"duplicate asset_id {name!r}")
                    seen.add(name)
            asset_id = TextColumn.encode(ids)
            asset_id._checked_ids = True
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

    A byte stream, as the CLI opens a file, is read whole, and is refused
    before any row is read unless it is UTF-8, naming the line of its first
    bad byte. A plain file (no quote, CR, NUL or blank line, four commas on
    every line, a final newline) takes a columnar path in blocks of about
    256 KiB. After its first comma each row there has a fixed layout, a
    voltage of three ASCII digits and YYYY-MM-DD dates (the failure date
    may be empty), read as digits, with day numbers by calendar arithmetic;
    ids and manufacturers stay bytes, the ids one buffer, the manufacturers
    codes. Any other file, any file that fails a check there, and any text
    goes through the row loop, so both paths accept the same files, give
    the same table and name the same first bad row.
    """
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        data = source.read()
        table = _parse_plain(data)
        if table is not None:
            return table
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                before = data[: exc.start]
                line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
                raise DataError(
                    f"line {line}: not UTF-8 (byte 0x{data[exc.start]:02x}: {exc.reason})"
                ) from None
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
    n = data.count(b"\n") - 1  # each line after the header is one row
    if not n:
        return None  # no rows: the row loop is as quick
    offsets = np.zeros(n + 1, dtype=np.int64)
    hashes, kv, commission, failure = (np.empty(n, dtype=np.int64) for _ in range(4))
    codes = np.empty(n, dtype=np.int32)
    ids: list[bytes] = []  # the id bytes of each block
    makers = _Codes()  # of each manufacturer name
    row, start = 0, len(_HEADER_LINE)
    while start < len(data):
        end = data.index(b"\n", min(start + _BLOCK_BYTES, len(data) - 1)) + 1
        part = _plain_block(memoryview(data)[start:end], makers)
        if part is None:
            return None
        rows = slice(row, row + len(part[1]))
        ids.append(part[0])
        offsets[rows.start + 1 : rows.stop + 1] = offsets[row] + np.cumsum(part[1])
        for column, values in zip((hashes, kv, commission, failure, codes), part[2:]):
            column[rows] = values
        row, start = rows.stop, end
    del part  # the table keeps the columns, not their parts
    # equal ids have equal hashes; where two hashes are equal, the row loop
    # names the first duplicate, or keeps ids whose hashes alone are equal
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any():
        return None
    del hashes
    asset_id = TextColumn(b"".join(ids), offsets)
    asset_id._checked_ids = True
    del ids
    manufacturer = TextColumn(names=tuple(name.decode() for name in makers), codes=codes)
    try:
        return AssetTable(asset_id, kv, commission, failure, manufacturer)
    except DataError:
        return None


def _plain_block(block: memoryview, makers: _Codes) -> tuple | None:
    """The columns of whole rows of a plain file, or None: the bytes of
    their ids, one after another, each id's length and hash, then voltage,
    commission, failure and manufacturer code.

    After its first comma a row has a fixed layout: a 3-digit voltage, a
    10-byte commission date, then an empty or 10-byte failure date. Those
    are read as digits at their offsets and cut out; ids and manufacturer
    names stay bytes, checked as UTF-8, and each name is coded by `makers`.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if seps.size % 5 or (raw[seps].reshape(-1, 5) != _ROW_SEPARATORS).any():
        return None
    seps = seps.reshape(-1, 5)
    # the next three commas lie 4, 15 and 16 bytes after the first, or 26
    # after a failure date
    offsets = seps[:, 1:4] - seps[:, :1]
    dated = offsets[:, 2] == 26
    if (offsets[:, :2] != (4, 15)).any() or not (dated | (offsets[:, 2] == 16)).all():
        return None
    lengths = seps[:, 0] - np.concatenate(([0], seps[:-1, 4] + 1))
    if not lengths.all():
        return None  # an empty id
    # each row is cut from its voltage through the comma after its failure
    # date; the block's temporaries are freed as they are used
    cut, stop = seps[:, 0] + 1, seps[:, 3] + 1
    del seps, offsets
    windows = np.lib.stride_tricks.sliding_window_view(raw, 10)
    failure = np.zeros(len(cut), dtype=np.int64)
    try:
        kv = _digits(windows[cut, :3], "999")
        commission = _day_ordinals(windows[cut + 4])
        failure[dated] = _day_ordinals(windows[cut[dated] + 15])
    except ValueError:
        return None
    kv = kv[:, 0] * 100 + kv[:, 1] * 10 + kv[:, 2]
    edges = np.zeros(raw.size, dtype=bool)
    edges[cut] = edges[stop] = True
    np.logical_xor.accumulate(edges, out=edges)
    text = raw[np.logical_not(edges, out=edges)].tobytes()
    del edges
    if not text.isascii():
        try:
            text.decode("utf-8")
        except UnicodeDecodeError:
            return None
    # a plain field holds no comma or line feed
    fields = text.replace(b"\n", b",").split(b",")
    del text
    ids, made = fields[0:-1:2], fields[1::2]
    del fields
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    codes = np.fromiter(map(makers.__getitem__, made), np.int32, len(made))
    return b"".join(ids), lengths, hashes, kv, commission, failure, codes


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


class _LineFeedRows:
    """The stream a csv writer writes to that ends each row with LF where
    the writer ended it with CR LF: the writer quotes a field holding a CR
    only where CR is part of its line terminator."""

    def __init__(self, stream: IO[str]):
        self.stream = stream

    def write(self, row: str) -> None:
        self.stream.write(row[:-2] + "\n")


def write_asset_csv(assets: AssetTable, stream: IO[str]) -> None:
    """Inverse of parse_asset_csv; round-trips all fields exactly. A field
    is quoted only where it holds a comma, a quote, a CR or a LF. Rows are
    written a slice at a time, through the csv module only in a slice where
    some id or manufacturer holds one of those."""
    stream.write(",".join(CSV_HEADER) + "\n")
    quoting = csv.writer(_LineFeedRows(stream), lineterminator="\r\n")
    for start in range(0, len(assets), _TAKE_ROWS):
        rows = slice(start, start + _TAKE_ROWS)
        ids, makers = assets.asset_id.take(rows), assets.manufacturer.take(rows)
        fields = zip(
            ids,
            assets.voltage_kv[rows].tolist(),
            _iso_dates(assets.commission[rows]),
            _iso_dates(assets.failure[rows]),
            makers,
        )
        texts = "".join(ids) + "".join(makers)
        if any(c in texts for c in ',"\r\n'):
            quoting.writerows(fields)
        else:
            stream.write("".join(map("%s,%d,%s,%s,%s\n".__mod__, fields)))


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
    ids, kvs, days, makers = [], [], [], []
    for vc in VoltageClass:
        n = spec.sizes.get(vc, 0)
        if vc is VoltageClass.V220_380:
            pick, day, maker = rng.integers([0, 0, 1], [2, span + 1, 9], size=(n, 3)).T
            kv = np.where(pick == 0, 220, 380)
        else:
            day, maker = rng.integers([0, 1], [span + 1, 9], size=(n, 2)).T
            kv = np.full(n, int(vc.value))
        ids += [f"{k}-{i:05d}" for i, k in enumerate(kv.tolist())]
        kvs.append(kv)
        days.append(day)
        makers.append(maker - 1)
    commission = first + np.concatenate(days)
    # maker k is named Mk
    manufacturer = TextColumn(
        names=tuple(f"M{k}" for k in range(1, 9)), codes=np.concatenate(makers).astype(np.int32)
    )
    return AssetTable(ids, np.concatenate(kvs), commission, np.zeros_like(commission), manufacturer)


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
