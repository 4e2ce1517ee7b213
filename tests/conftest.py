import contextlib
import io
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest

from fleetlife.cli import main
from fleetlife.fleet import AssetTable, LifetimeTable

_acceptance_results: list[tuple[str, bool]] = []


class CliResult(NamedTuple):
    exit_code: int
    output: str


def invoke(*args) -> CliResult:
    """`fleetlife.cli.main` on `args` as strings, in process, with stdout and
    stderr captured into one buffer. The exit code is 0 when `main` returns,
    else the code of its `SystemExit`; any other exception propagates."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            main([str(a) for a in args])
            code = 0
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, buffer.getvalue())


def single_family(duration, event) -> LifetimeTable:
    """Lifetime table whose rows all belong to the first family."""
    return LifetimeTable(duration, event, np.zeros(len(duration), dtype=np.int8))


def fleet_of(rows) -> AssetTable:
    """Asset table from (asset_id, voltage_kv, commission[, failure[, manufacturer]]) rows.

    Dates are `date`s; a missing or None failure leaves the asset in
    service, and a missing or None manufacturer means none.
    """
    rows = [tuple(row) + (None,) * (5 - len(row)) for row in rows]
    return AssetTable(
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2].toordinal() for row in rows],
        [row[3].toordinal() if row[3] else 0 for row in rows],
        [row[4] or "" for row in rows],
    )


def rows_of(table: AssetTable) -> list[tuple]:
    """The rows of an asset table in the form fleet_of takes them."""
    return [
        (asset_id, kv, date.fromordinal(commission),
         date.fromordinal(failure) if failure else None, manufacturer or None)
        for asset_id, kv, commission, failure, manufacturer in zip(
            table.asset_id,
            table.voltage_kv.tolist(),
            table.commission.tolist(),
            table.failure.tolist(),
            table.manufacturer,
        )
    ]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.module.__name__ == "test_acceptance":
        label = (item.function.__doc__ or item.name).strip().splitlines()[0]
        _acceptance_results.append((label, report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed in _acceptance_results:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {label}")
