import numpy as np
import pytest

from fleetlife.fleet import LifetimeTable

_acceptance_results: list[tuple[str, bool]] = []


def single_family(duration, event) -> LifetimeTable:
    """Lifetime table whose rows all belong to the first family."""
    return LifetimeTable(duration, event, np.zeros(len(duration), dtype=np.int8))


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
