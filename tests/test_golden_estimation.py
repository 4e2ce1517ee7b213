"""Golden outputs of the estimation commands.

`fit` and `score` run on a small fixed set of observed records. The bytes of
`ahi.csv` are pinned by sha256, and every law in `law.json` is pinned to
1e-12 relative: the Kaplan-Meier product feeds the MLE initializer and the
rank regression, so a change in how that product is rounded may move the
laws in their last digits, but no further.
"""

import hashlib
import json
from datetime import date

import pytest
from click.testing import CliRunner

from fleetlife.cli import main
from fleetlife.fleet import (
    SyntheticFleetSpec,
    VoltageClass,
    draw_failures,
    generate_synthetic_fleet,
    write_asset_csv,
)
from fleetlife.weibull import REFERENCE_LAWS

CUTOFF = date(2021, 7, 1)

AHI_SHA256 = "0e8c2953457b0936300337748433126929e30dcb575e20378b5cd4664f43e280"

# (family, source) -> (beta, eta)
LAWS = {
    ("110", "rank_regression"): (6.740713770525097, 63.64227908204414),
    ("110", "mle"): (6.563451957550258, 64.06913972363807),
    ("150", "rank_regression"): (6.14560865385087, 74.92291264385725),
    ("150", "mle"): (6.674252507024113, 73.41798500208496),
    ("220_380", "rank_regression"): (4.975668247517978, 81.520357623884),
    ("220_380", "mle"): (5.502546964679085, 78.97161964731329),
}


@pytest.fixture(scope="module")
def estimated(tmp_path_factory):
    work = tmp_path_factory.mktemp("estimation")
    fleet = generate_synthetic_fleet(
        SyntheticFleetSpec(
            sizes={VoltageClass.V110: 1200, VoltageClass.V150: 1200, VoltageClass.V220_380: 600},
            commission_years=(1945, 1995),
            seed=31,
        )
    )
    assets = work / "assets.csv"
    with open(assets, "w", newline="") as handle:
        write_asset_csv(draw_failures(fleet, REFERENCE_LAWS, CUTOFF, seed=37), handle)
    runner = CliRunner()
    for args in (
        ["fit", "--assets", assets, "--cutoff", CUTOFF.isoformat(), "--out", work / "fit"],
        ["score", "--assets", assets, "--laws", work / "fit" / "law.json",
         "--as-of", CUTOFF.isoformat(), "--out", work / "score"],
    ):
        result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return work


def test_ahi_bytes_pinned(estimated):
    digest = hashlib.sha256((estimated / "score" / "ahi.csv").read_bytes()).hexdigest()
    assert digest == AHI_SHA256


def test_laws_pinned(estimated):
    records = json.loads((estimated / "fit" / "law.json").read_text())["laws"]
    found = {(r["family"], r["source"]): (r["beta"], r["eta"]) for r in records}
    assert set(found) == set(LAWS)
    for key, (beta, eta) in LAWS.items():
        assert found[key][0] == pytest.approx(beta, rel=1e-12, abs=0)
        assert found[key][1] == pytest.approx(eta, rel=1e-12, abs=0)
