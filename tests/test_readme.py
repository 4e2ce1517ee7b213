"""The README's API sketch runs against the current API.

The estimation part of the sketch (up to the MLE fit) is executed as
written; the simulation lines after it are left to the simulation tests.
"""

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


def estimation_lines(sketch: str) -> str:
    lines = sketch.splitlines()
    last = next(i for i, line in enumerate(lines) if "fit_weibull_mle" in line)
    return "\n".join(lines[: last + 1])


def test_api_sketch_estimation_runs():
    namespace: dict = {}
    exec(compile(estimation_lines(api_sketch()), str(README), "exec"), namespace)
    assert isinstance(namespace["table"], fl.LifetimeTable)
    assert isinstance(namespace["curve"], fl.SurvivalCurve)
    law, diagnostics = namespace["law"], namespace["diagnostics"]
    assert isinstance(law, fl.WeibullLaw)
    assert diagnostics.converged
    assert diagnostics.event_count + diagnostics.censored_count == len(namespace["fleet"])
