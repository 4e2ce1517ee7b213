"""The README's API sketch runs against the current API.

The whole sketch is executed as written, from the synthetic fleet through
the fit to the simulation run, so each public name and signature it uses
stays callable.
"""

import contextlib
import io
import re
from pathlib import Path

import fleetlife as fl

README = Path(__file__).resolve().parents[1] / "README.md"


def api_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## API sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README API sketch has no python block"
    return match.group(1)


def test_api_sketch_runs():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(api_sketch(), str(README), "exec"), namespace)
    assert isinstance(namespace["table"], fl.LifetimeTable)
    assert isinstance(namespace["curve"], fl.SurvivalCurve)
    law, diagnostics = namespace["law"], namespace["diagnostics"]
    assert isinstance(law, fl.WeibullLaw)
    assert diagnostics.converged
    assert diagnostics.event_count + diagnostics.censored_count == len(namespace["fleet"])
    report = namespace["report"]
    assert isinstance(report, fl.SimulationReport)
    assert len(report.replications) == namespace["scenario"].replications
    assert printed.getvalue() == f"{report.aggregates['totex'].mean[:5]}\n"
