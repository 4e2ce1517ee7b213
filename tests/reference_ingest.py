"""Record-based reference parser for the asset CSV.

One frozen record per row, validated on construction: the parser the
columnar `fleetlife.fleet.parse_asset_csv` replaced. The ingest oracle test
checks that both give the same rows, or the same first error, on the same
text.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Optional

from fleetlife.fleet import CSV_HEADER, VALID_VOLTAGES, DataError


@dataclass(frozen=True)
class AssetRecord:
    asset_id: str
    voltage_kv: int
    commission_date: date
    failure_date: Optional[date] = None
    manufacturer_code: Optional[str] = None

    def __post_init__(self) -> None:
        if self.voltage_kv not in VALID_VOLTAGES:
            raise DataError(f"asset {self.asset_id!r}: unknown voltage {self.voltage_kv} kV")
        if self.failure_date is not None and self.failure_date <= self.commission_date:
            raise DataError(f"asset {self.asset_id!r}: failure before commission")


def _parse_date(text: str, row: int, field: str) -> date:
    """The date of `text` written exactly YYYY-MM-DD in ASCII digits, on
    every Python version (`date.fromisoformat` reads 20000101 too from
    Python 3.11 on)."""
    if len(text) == 10 and text[4] == text[7] == "-":
        digits = text[:4] + text[5:7] + text[8:]
        if digits.isascii() and digits.isdigit():
            try:
                return date(int(text[:4]), int(text[5:7]), int(text[8:]))
            except ValueError:
                pass
    raise DataError(f"row {row}: malformed {field} {text!r}")


def parse_records(lines: Iterable[str]) -> list[AssetRecord]:
    reader = csv.reader(lines)
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
            records.append(AssetRecord(asset_id, kv, commission, failure, manufacturer or None))
        except DataError as exc:
            raise DataError(f"row {lineno}: {exc}") from None
    return records
