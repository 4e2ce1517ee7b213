import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fleetlife
from fleetlife.cli import main
from fleetlife.fleet import (
    SyntheticFleetSpec,
    VoltageClass,
    draw_failures,
    generate_synthetic_fleet,
    write_asset_csv,
)
from fleetlife.weibull import REFERENCE_LAWS

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def write_fleet(path: Path, records) -> None:
    with open(path, "w", newline="") as handle:
        write_asset_csv(records, handle)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_without_duration(out_dir: Path) -> dict:
    data = json.loads((out_dir / "manifest.json").read_text())
    data.pop("duration_seconds")
    return data


@pytest.fixture()
def synth_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "sizes": {"110": 30, "150": 20, "220_380": 10},
                "commission_years": [1980, 2010],
                "seed": 42,
            }
        )
    )
    return spec


class TestSynth:
    def test_deterministic_artifacts(self, tmp_path, synth_spec):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert invoke("synth", "--spec", synth_spec, "--out", out1).exit_code == 0
        assert invoke("synth", "--spec", synth_spec, "--out", out2).exit_code == 0
        assert (out1 / "fleet.csv").read_bytes() == (out2 / "fleet.csv").read_bytes()
        assert manifest_without_duration(out1) == manifest_without_duration(out2)

    def test_counts_match_spec(self, tmp_path, synth_spec):
        out = tmp_path / "run"
        invoke("synth", "--spec", synth_spec, "--out", out)
        lines = (out / "fleet.csv").read_text().splitlines()
        assert len(lines) == 1 + 60

    def test_bad_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sizes": {}, "commission_years": [2000]}))
        result = runner.invoke(main, ["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "spec, named",
        [
            ([1], "spec: expected an object, got list"),
            ({"sizes": [1]}, "sizes: expected an object, got list"),
            ({"sizes": {"110": 2.7}}, "sizes.110: expected an integer, got float"),
            ({"sizes": {"110": True}}, "sizes.110: expected an integer, got bool"),
            ({"sizes": {"110": "2"}}, "sizes.110: expected an integer, got str"),
            ({"sizes": {"400": 2}}, "sizes.400: unknown family"),
            ({"seed": 1.9}, "seed: expected an integer, got float"),
            ({"seed": False}, "seed: expected an integer, got bool"),
            ({"seed": "1"}, "seed: expected an integer, got str"),
            ({"commission_years": [1980.5, 2010]}, "commission_years.0: expected an integer, got float"),
            ({"commission_years": [1980, "2010"]}, "commission_years.1: expected an integer, got str"),
            ({"commission_years": [1980]}, "commission_years: expected [first_year, last_year]"),
            ({"sise": {"110": 2}}, "sise: unknown field"),
            # the checks of the spec itself name their field too
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"sizes": {"110": 2, "150": -3}}, "sizes.150: must be >= 0, got -3"),
            ({"commission_years": [2010, 1980]}, "commission_years: expected 1 <= first <= last <= 9999, got [2010, 1980]"),
            ({"commission_years": [0, 1986]}, "commission_years: expected 1 <= first <= last <= 9999, got [0, 1986]"),
            ({"commission_years": [1980, 10000]}, "commission_years: expected 1 <= first <= last <= 9999"),
        ],
    )
    def test_malformed_spec_names_the_field(self, tmp_path, spec, named):
        path = tmp_path / "spec.json"
        if isinstance(spec, dict):
            spec = {"sizes": {"110": 2}, "commission_years": [1980, 2010], "seed": 1, **spec}
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["synth", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"error: {named}" in result.output
        assert not (tmp_path / "o" / "fleet.csv").exists()

    def test_seed_defaults_to_zero(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sizes": {"110": 3}, "commission_years": [1980, 2010]}))
        assert invoke("synth", "--spec", spec, "--out", tmp_path / "o").exit_code == 0
        assert manifest_without_duration(tmp_path / "o")["seeds"] == {"seed": 0}


class TestFit:
    def make_observed_fleet(self, tmp_path, n=4000):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: n},
                commission_years=(1950, 1995),
                seed=8,
            )
        )
        observed = draw_failures(fleet, REFERENCE_LAWS, date(2021, 7, 1), seed=15)
        path = tmp_path / "assets.csv"
        write_fleet(path, observed)
        return path

    def test_recovers_reference_law(self, tmp_path):
        assets = self.make_observed_fleet(tmp_path)
        out = tmp_path / "fit"
        result = invoke(
            "fit", "--assets", assets, "--cutoff", "2021-07-01", "--family", "110", "--out", out
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "law.json").read_text())
        mle = next(r for r in payload["laws"] if r["source"] == "mle")
        assert abs(mle["beta"] - 6.67) / 6.67 <= 0.05
        assert abs(mle["eta"] - 63.79) / 63.79 <= 0.05
        assert payload["diagnostics"]["110"]["converged"] is True
        assert (out / "km_110.csv").exists()
        assert "110" in payload["medians"]

    def test_repeated_family_fits_once_in_the_order_given(self, tmp_path):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 300, VoltageClass.V150: 300},
                commission_years=(1950, 1995),
                seed=8,
            )
        )
        assets = tmp_path / "assets.csv"
        write_fleet(assets, draw_failures(fleet, REFERENCE_LAWS, date(2021, 7, 1), seed=15))
        out = tmp_path / "fit"
        result = invoke(
            "fit", "--assets", assets, "--cutoff", "2021-07-01",
            "--family", "150", "--family", "110", "--family", "150", "--out", out,
        )
        assert result.exit_code == 0, result.output
        laws = json.loads((out / "law.json").read_text())["laws"]
        assert [(r["family"], r["source"]) for r in laws] == [
            ("150", "rank_regression"), ("150", "mle"), ("110", "rank_regression"), ("110", "mle")
        ]

    def test_law_json_independent_of_blas_threads(self, tmp_path):
        # A BLAS dot product splits its sum across threads, so its rounding
        # follows the thread count. Families of more than 10k rows are where
        # OpenBLAS starts to thread one; fit runs once per thread count, each
        # in a fresh process, since the count is read at start-up.
        # (with the dot product, this input's 110 kV MLE beta differs in
        # its last digits between 1 and 2 threads)
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 20000}, commission_years=(1940, 1990), seed=4
            )
        )
        assets = tmp_path / "assets.csv"
        write_fleet(assets, draw_failures(fleet, REFERENCE_LAWS, date(2021, 7, 1), seed=9))
        src = str(Path(fleetlife.__file__).resolve().parents[1])
        laws = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            out = tmp_path / f"fit{threads}"
            subprocess.run(
                [sys.executable, "-m", "fleetlife.cli", "fit", "--assets", str(assets),
                 "--cutoff", "2021-07-01", "--out", str(out)],
                env=env,
                check=True,
                capture_output=True,
            )
            laws.append((out / "law.json").read_bytes())
        assert laws[0] == laws[1]

    def test_all_censored_writes_curve_then_fails(self, tmp_path):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 50}, commission_years=(2015, 2020), seed=3
            )
        )
        path = tmp_path / "young.csv"
        write_fleet(path, fleet)
        out = tmp_path / "fit"
        result = runner.invoke(
            main,
            ["fit", "--assets", str(path), "--cutoff", "2021-07-01", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "insufficient events" in result.output
        km = (out / "km_110.csv").read_text().splitlines()
        assert km == ["t,n_at_risk,d_events,survival"]

    def test_cutoff_before_commission(self, tmp_path):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 5}, commission_years=(2000, 2010), seed=3
            )
        )
        path = tmp_path / "assets.csv"
        write_fleet(path, fleet)
        result = runner.invoke(
            main,
            ["fit", "--assets", str(path), "--cutoff", "1999-01-01", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "before commission" in result.output

    def test_degenerate_durations_exit_three(self, tmp_path):
        path = tmp_path / "assets.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "A1,110,2000-01-01,2010-01-01,\n"
            "A2,110,2000-01-01,2010-01-01,\n"
            "A3,110,2000-01-01,2010-01-01,\n"
        )
        result = runner.invoke(
            main,
            ["fit", "--assets", str(path), "--cutoff", "2021-07-01", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3
        assert "did not converge" in result.output

    def test_unbounded_median_rendering(self, tmp_path):
        # two failures among ten assets leave the survival curve at 0.8,
        # so the non-parametric median never materializes
        lines = ["asset_id,voltage_kv,commission_date,failure_date,manufacturer"]
        lines.append("F1,110,1990-01-01,2000-01-01,")
        lines.append("F2,110,1990-01-01,2002-01-01,")
        lines.extend(f"C{i},110,1990-01-01,," for i in range(8))
        path = tmp_path / "assets.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit"
        result = invoke("fit", "--assets", path, "--cutoff", "2021-07-01", "--out", out)
        assert result.exit_code == 0, result.output
        medians = json.loads((out / "law.json").read_text())["medians"]["110"]
        assert medians["km_median_years"] == "unbounded"
        assert medians["km_q75_years"] == "unbounded"
        assert isinstance(medians["weibull_median_years"], float)

    @pytest.mark.parametrize(
        "rows, families, code, said",
        [
            (["A,110,2000-01-01,,"], ["220_380"], 2, "error: no assets in family 220_380"),
            ([], [], 2, "error: no observations in any requested family"),
            # every asset failed: the curve's last step is 0, which leaves
            # rank regression one usable point, and the MLE fits alone
            (
                ["A,110,2000-01-01,2005-01-01,", "B,110,2000-01-01,2009-03-01,"],
                [],
                0,
                "note: family 110: rank regression skipped (rank regression needs at least 2 "
                "usable curve points, got 1)",
            ),
            (
                ["F1,110,1990-01-01,2000-01-01,", "F2,110,1990-01-01,2002-01-01,",
                 "C1,110,1990-01-01,,", "D1,150,1990-01-01,,"],
                ["110"],
                0,
                "note: families present but not fitted: 150",
            ),
        ],
    )
    def test_family_notes_and_errors(self, tmp_path, rows, families, code, said):
        path = tmp_path / "assets.csv"
        path.write_text("\n".join(["asset_id,voltage_kv,commission_date,failure_date,manufacturer", *rows]) + "\n")
        args = ["fit", "--assets", str(path), "--cutoff", "2021-07-01", "--out", str(tmp_path / "o")]
        for family in families:
            args += ["--family", family]
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert said in result.output


class TestScore:
    def laws_file(self, tmp_path):
        path = tmp_path / "laws.json"
        records = [
            {"family": vc.value, "beta": law.beta, "eta": law.eta, "source": "reference"}
            for vc, law in REFERENCE_LAWS.items()
        ]
        path.write_text(json.dumps({"laws": records}))
        return path

    def test_new_fleet_scores_ten(self, tmp_path):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 5}, commission_years=(2021, 2021), seed=2
            )
        )
        path = tmp_path / "fleet.csv"
        write_fleet(path, fleet)
        out = tmp_path / "score"
        result = invoke(
            "score", "--assets", path, "--laws", self.laws_file(tmp_path),
            "--as-of", "2021-12-31", "--out", out,
        )
        assert result.exit_code == 0, result.output
        rows = (out / "ahi.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(row.split(",")[2] == "10" for row in rows)

    def test_seventy_year_asset_is_purple(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "OLD,110,1951-07-01,,\n"
        )
        out = tmp_path / "score"
        result = invoke(
            "score", "--assets", path, "--laws", self.laws_file(tmp_path),
            "--as-of", "2021-07-01", "--out", out,
        )
        assert result.exit_code == 0, result.output
        row = (out / "ahi.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "OLD"
        assert float(row[1]) == pytest.approx(70.0, abs=0.05)
        assert row[2] == "3" and row[3] == "purple" and row[4] == "probability"

    def test_overflowing_hazard_scores_one(self, tmp_path):
        # under a vanishing scale (age / eta) ** beta passes the float range:
        # each asset's failure in the next window is certain
        path = tmp_path / "fleet.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "A,110,1980-01-01,,\n"
            "B,110,2000-01-01,,\n"
        )
        laws = tmp_path / "laws.json"
        laws.write_text(json.dumps([{"family": "110", "beta": 6.67, "eta": 1e-300}]))
        out = tmp_path / "score"
        result = invoke("score", "--assets", path, "--laws", laws, "--as-of", "2021-01-01", "--out", out)
        assert result.exit_code == 0, result.output
        rows = [row.split(",") for row in (out / "ahi.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["A", "B"]
        assert [row[2:] for row in rows] == [["1", "purple", "probability"]] * 2

    def test_rows_written_a_slice_at_a_time(self, tmp_path, monkeypatch):
        # failed assets lie between the in-service rows; slices of 4 rows,
        # the last one short, write the bytes of one slice
        fleet = generate_synthetic_fleet(SyntheticFleetSpec(
            sizes={VoltageClass.V110: 15, VoltageClass.V150: 10, VoltageClass.V220_380: 5},
            commission_years=(1960, 1990),
            seed=6,
        ))
        path = tmp_path / "fleet.csv"
        write_fleet(path, draw_failures(fleet, REFERENCE_LAWS, date(2021, 7, 1), seed=15))
        written = []
        for rows in (8192, 4):
            monkeypatch.setattr("fleetlife.cli._AHI_ROWS", rows)
            out = tmp_path / f"score{rows}"
            result = invoke(
                "score", "--assets", path, "--laws", self.laws_file(tmp_path),
                "--as-of", "2021-07-01", "--out", out,
            )
            assert result.exit_code == 0, result.output
            written.append((out / "ahi.csv").read_text())
        assert written[0] == written[1]
        lines = written[0].splitlines()
        assert lines[0] == "asset_id,apparent_age,score,band,basis"
        assert 4 < len(lines) - 1 < 30 and (len(lines) - 1) % 4

    def test_empty_fleet_ok(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text("asset_id,voltage_kv,commission_date,failure_date,manufacturer\n")
        out = tmp_path / "score"
        result = invoke(
            "score", "--assets", path, "--laws", self.laws_file(tmp_path),
            "--as-of", "2021-07-01", "--out", out,
        )
        assert result.exit_code == 0
        assert (out / "ahi.csv").read_text() == "asset_id,apparent_age,score,band,basis\n"

    def test_missing_family_law(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "A,150,2000-01-01,,\n"
        )
        laws = tmp_path / "laws.json"
        laws.write_text(json.dumps([{"family": "110", "beta": 6.67, "eta": 63.79}]))
        result = runner.invoke(
            main,
            ["score", "--assets", str(path), "--laws", str(laws),
             "--as-of", "2021-07-01", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "150" in result.output

    def test_first_bad_asset_named(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "A,110,2000-01-01,,\n"
            "B,150,2000-01-01,,\n"
            "C,220,2022-01-01,,\n"
            "D,380,2000-01-01,,\n"
        )
        laws = tmp_path / "laws.json"
        laws.write_text(json.dumps([{"family": "110", "beta": 6.67, "eta": 63.79}]))
        for as_of, named in (
            ("2021-07-01", "'C' commissioned after"),
            ("2023-01-01", "family 150 (asset 'B')"),
        ):
            result = invoke(
                "score", "--assets", path, "--laws", laws,
                "--as-of", as_of, "--out", tmp_path / as_of,
            )
            assert result.exit_code == 2
            assert named in result.output

    @pytest.mark.parametrize(
        "records, named",
        [
            ([1], "laws[0]: expected an object, got int"),
            ({"laws": [{"family": "110", "beta": 6.67, "eta": 63.79}, "x"]}, "laws[1]: expected an object, got str"),
            ([{"family": "110", "beta": True, "eta": 63.79}], "laws[0].beta: expected a number, got bool"),
            ([{"family": "110", "beta": 6.67, "eta": "60"}], "laws[0].eta: expected a number, got str"),
            ([{"family": "110", "beta": 6.67}], "laws[0].eta: required"),
            ([{"family": 110, "beta": 6.67, "eta": 63.79}], "laws[0].family: expected a string, got int"),
            (
                [{"family": "400", "beta": 6.67, "eta": 63.79}],
                "laws[0].family: unknown family '400' (expected 110, 150, 220_380)",
            ),
            ([{"family": "110", "beta": -6, "eta": 63.79}], "laws[0].beta: shape must be positive, got -6.0"),
            # an integer past the float range, which Python's json reads
            ([{"family": "110", "beta": 6.67, "eta": 10**400}], "laws[0].eta: expected a finite number, got 1000"),
            ([{"family": "110", "bta": 1, "beta": 6.67, "eta": 63.79}], "laws[0].bta: unknown field"),
            ({"laws": {"family": "110", "beta": 6.67, "eta": 63.79}}, "laws file: expected a list of law records"),
        ],
    )
    def test_malformed_law_record_names_the_field(self, tmp_path, records, named):
        path = tmp_path / "fleet.csv"
        path.write_text("asset_id,voltage_kv,commission_date,failure_date,manufacturer\nA,110,2000-01-01,,\n")
        laws = tmp_path / "laws.json"
        laws.write_text(json.dumps(records))
        result = runner.invoke(
            main,
            ["score", "--assets", str(path), "--laws", str(laws),
             "--as-of", "2021-07-01", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert f"error: {named}" in result.output
        assert "Traceback" not in result.output

    def test_second_record_of_a_family_and_source_rejected(self, tmp_path):
        # a file may hold one law of each source per family, as `fit` writes
        # it; a second one would otherwise go unused without a word
        path = tmp_path / "fleet.csv"
        path.write_text("asset_id,voltage_kv,commission_date,failure_date,manufacturer\nA,110,2000-01-01,,\n")
        records = [
            {"family": "110", "beta": 6.67, "eta": 63.79, "source": "mle"},
            {"family": "110", "beta": 6.5, "eta": 63.0, "source": "rank_regression"},
            {"family": "110", "beta": 5.0, "eta": 60.0, "source": "mle"},
        ]
        laws = tmp_path / "laws.json"
        for kept, code in ((2, 0), (3, 2)):
            laws.write_text(json.dumps({"laws": records[:kept]}))
            result = runner.invoke(
                main,
                ["score", "--assets", str(path), "--laws", str(laws),
                 "--as-of", "2021-07-01", "--out", str(tmp_path / f"o{kept}")],
            )
            assert result.exit_code == code, result.output
        assert "error: laws[2]: a second mle law record for family 110" in result.output

    @pytest.mark.parametrize("command, option", [("fit", "--cutoff"), ("score", "--as-of")])
    @pytest.mark.parametrize("value", ["20210701", "2021-7-1", "2021-07-01T00:00", "2021-02-30"])
    def test_dates_must_be_yyyy_mm_dd(self, tmp_path, command, option, value):
        path = tmp_path / "fleet.csv"
        path.write_text("asset_id,voltage_kv,commission_date,failure_date,manufacturer\nA,110,2000-01-01,,\n")
        args = [command, "--assets", str(path), option, value, "--out", str(tmp_path / "o")]
        if command == "score":
            args += ["--laws", str(self.laws_file(tmp_path))]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"error: {option}: malformed date {value!r} (expected YYYY-MM-DD)" in result.output

    def test_failed_assets_excluded(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(
            "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"
            "DEAD,110,1980-01-01,2020-01-01,\n"
            "LIVE,110,2018-01-01,,\n"
        )
        out = tmp_path / "score"
        result = invoke(
            "score", "--assets", path, "--laws", self.laws_file(tmp_path),
            "--as-of", "2021-07-01", "--out", out,
        )
        assert result.exit_code == 0
        rows = (out / "ahi.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["LIVE"]


@pytest.fixture()
def small_fleet_csv(tmp_path):
    fleet = generate_synthetic_fleet(
        SyntheticFleetSpec(
            sizes={VoltageClass.V110: 15, VoltageClass.V150: 10, VoltageClass.V220_380: 5},
            commission_years=(1980, 2015),
            seed=6,
        )
    )
    path = tmp_path / "fleet.csv"
    write_fleet(path, fleet)
    return path


def scenario_file(tmp_path, **overrides) -> Path:
    from fleetlife.scenarios import builtin_scenario, scenario_to_dict

    data = scenario_to_dict(builtin_scenario("time-based"))
    data.update({"horizon_years": 30, "replications": 2, "start_date": "2021-07-01"})
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path, small_fleet_csv):
        sc = scenario_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        r1 = invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", out1, "--seed", 1)
        r2 = invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", out2, "--seed", 1)
        assert r1.exit_code == 0, r1.output
        assert r2.exit_code == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "kpis.csv").read_bytes() == (out2 / "kpis.csv").read_bytes()
        assert manifest_without_duration(out1) == manifest_without_duration(out2)

    def test_builtin_name(self, tmp_path, small_fleet_csv):
        out = tmp_path / "sim"
        result = invoke(
            "simulate", "--fleet", small_fleet_csv, "--scenario", "time-based:fte60",
            "--out", out, "--jobs", 2,
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "report.json").read_text())
        assert payload["scenario_name"] == "time-based:fte60"
        assert len(payload["replications"]) == 5

    def test_seed_recorded_in_manifest(self, tmp_path, small_fleet_csv):
        sc = scenario_file(tmp_path)
        out = tmp_path / "sim"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", out, "--seed", 99)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"master_seed": 99}

    def test_inputs_hashed_by_role(self, tmp_path, small_fleet_csv):
        sc = scenario_file(tmp_path)
        out = tmp_path / "sim"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "fleet": sha256_file(small_fleet_csv),
            "scenario": sha256_file(sc),
        }

    def test_builtin_name_has_no_scenario_hash(self, tmp_path, small_fleet_csv):
        out = tmp_path / "sim"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", "time-based", "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"fleet"}

    def test_scenario_missing_resources(self, tmp_path, small_fleet_csv):
        sc_path = tmp_path / "broken.json"
        from fleetlife.scenarios import builtin_scenario, scenario_to_dict

        data = scenario_to_dict(builtin_scenario("time-based"))
        del data["resources"]
        sc_path.write_text(json.dumps(data))
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(small_fleet_csv), "--scenario", str(sc_path),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "resources: required" in result.output

    def test_scenario_directory_is_a_validation_error(self, tmp_path, small_fleet_csv):
        folder = tmp_path / "scenarios"
        folder.mkdir()
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(small_fleet_csv), "--scenario", str(folder),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert f"{folder}: cannot read scenario file" in result.output

    def test_misspelled_scenario_key_is_a_validation_error(self, tmp_path, small_fleet_csv):
        sc = scenario_file(tmp_path, horizon_year=30)
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(small_fleet_csv), "--scenario", str(sc),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "horizon_year: unknown field" in result.output

    def test_horizon_past_the_tick_columns_is_a_validation_error(self, tmp_path, small_fleet_csv):
        # fails when the scenario loads, before any array is sized by it
        sc = scenario_file(tmp_path, horizon_years=10**400)
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(small_fleet_csv), "--scenario", str(sc),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "horizon_years: at most 178956970 years of 1-month ticks" in result.output

    def test_unknown_scenario_name(self, tmp_path, small_fleet_csv):
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(small_fleet_csv), "--scenario", "usage-based",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "empty, overrides, named",
        [
            (True, {}, "fleet is empty"),
            (
                False,
                {"start_date": "1990-01-01"},
                "asset '110-00000' commissioned after simulation start 1990-01-01",
            ),
            (
                False,
                {"policy": {"110": {"replacement": {"type": "time_based", "age_years": 45.0}}}},
                "policy has no entry for family 150",
            ),
        ],
    )
    def test_fleet_the_scenario_does_not_fit(self, tmp_path, small_fleet_csv, empty, overrides, named):
        # the scenario is checked against the fleet once, before any run
        fleet = small_fleet_csv
        if empty:
            fleet = tmp_path / "empty.csv"
            fleet.write_text("asset_id,voltage_kv,commission_date,failure_date,manufacturer\n")
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["simulate", "--fleet", str(fleet), "--scenario", str(scenario_file(tmp_path, **overrides)),
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert f"error: {named}" in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "kind, key, value, horizon, named",
        [
            (
                "inspection", "duration_hours", 1e306, 40,
                "replications.0.inspection_hours.20: expected a finite number, got inf",
            ),
            # a valid money string whose yearly totals need more than 28 digits
            # at the cent, within the float range
            ("planned_replacement", "material_cost", "1e24", 60, None),
            # an amount that is itself past the float range never loads
            (
                "planned_replacement", "material_cost", "1e999999", 60,
                "activities[0].material_cost: amount past the float range, got 1e999999",
            ),
        ],
    )
    def test_year_past_the_float_range(self, tmp_path, kind, key, value, horizon, named):
        # the README fleet, one replication of the time-based template: a
        # year whose hours pass the float range is refused, naming the field
        # as `report` would, and so is an amount past it, naming the scenario
        # field, before any artifact is written; money that stays within it
        # is written to the cent, and `report` reads it back
        fleet = tmp_path / "fleet.csv"
        write_fleet(fleet, generate_synthetic_fleet(SyntheticFleetSpec(
            sizes={VoltageClass.V110: 400, VoltageClass.V150: 400, VoltageClass.V220_380: 200},
            commission_years=(1982, 1986),
            seed=11,
        )))
        sc = scenario_file(tmp_path, horizon_years=horizon, replications=1, start_date=None)
        data = json.loads(sc.read_text())
        for activity in data["activities"]:
            if activity["kind"] == kind:
                activity[key] = value
        sc.write_text(json.dumps(data))
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["simulate", "--fleet", str(fleet), "--scenario", str(sc), "--out", str(out)]
        )
        if named:
            assert result.exit_code == 2
            assert f"error: {named}" in result.output
            assert list(out.iterdir()) == []
        else:
            assert result.exit_code == 0, result.output
            report = out / "report.json"
            assert invoke("report", "--a", report, "--b", report, "--out", tmp_path / "r").exit_code == 0


def short_aggregate(report):
    report["aggregates"]["totex"]["mean"].pop()
    return report


def horizon_in_words(report):
    report["horizon_years"] = "ten"
    return report


def zero_horizon(report):
    report["horizon_years"] = 0
    return report


def short_series_horizon(report):
    report["replications"][0]["horizon_years"] = 29
    return report


def long_series(report):
    report["replications"][1]["failures"].append(0)
    return report


def nan_aggregate(report):
    report["aggregates"]["totex"]["mean"][3] = float("nan")
    return report


def infinite_backlog(report):
    report["replications"][0]["backlog_hours"][2] = float("inf")
    return report


def huge_cost(report):
    report["replications"][1]["opex"][0] = 10**400
    return report


def misspelled_key(report):
    report["horizon_year"] = report["horizon_years"]
    return report


def unknown_series_field(report):
    report["replications"][0]["failure"] = report["replications"][0]["failures"]
    return report


def unknown_metric(report):
    report["aggregates"]["capex_total"] = report["aggregates"]["capex"]
    return report


def unknown_statistic(report):
    report["aggregates"]["totex"]["p50"] = report["aggregates"]["totex"]["mean"]
    return report


# ways to break a report.json, by name
MALFORMED = {
    "short_aggregate": short_aggregate,
    "top_level_list": lambda report: [report],
    "horizon_in_words": horizon_in_words,
    "zero_horizon": zero_horizon,
    "short_series_horizon": short_series_horizon,
    "long_series": long_series,
    "nan_aggregate": nan_aggregate,
    "infinite_backlog": infinite_backlog,
    "huge_cost": huge_cost,
    "misspelled_key": misspelled_key,
    "unknown_series_field": unknown_series_field,
    "unknown_metric": unknown_metric,
    "unknown_statistic": unknown_statistic,
}


class TestReport:
    def test_self_comparison_zero_deltas(self, tmp_path, small_fleet_csv):
        sc = scenario_file(tmp_path)
        sim_out = tmp_path / "sim"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", sim_out)
        out = tmp_path / "cmp"
        result = invoke(
            "report", "--a", sim_out / "report.json", "--b", sim_out / "report.json", "--out", out
        )
        assert result.exit_code == 0, result.output
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[3]) == 0.0 for row in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["crossover_year"] is None
        assert (out / "plotdata" / "a_totex_stack.csv").exists()
        assert (out / "plotdata" / "b_totex_stack.csv").exists()

    def test_same_basename_inputs_both_hashed(self, tmp_path, small_fleet_csv):
        out_x, out_y = tmp_path / "x", tmp_path / "y"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path), "--out", out_x)
        invoke(
            "simulate", "--fleet", small_fleet_csv,
            "--scenario", scenario_file(tmp_path, master_seed=8), "--out", out_y,
        )
        out = tmp_path / "cmp"
        result = invoke(
            "report", "--a", out_x / "report.json", "--b", out_y / "report.json", "--out", out
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "a": sha256_file(out_x / "report.json"),
            "b": sha256_file(out_y / "report.json"),
        }
        assert manifest["inputs"]["a"] != manifest["inputs"]["b"]

    def test_horizon_mismatch(self, tmp_path, small_fleet_csv):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path), "--out", out_a)
        invoke(
            "simulate", "--fleet", small_fleet_csv,
            "--scenario", scenario_file(tmp_path, horizon_years=20), "--out", out_b,
        )
        result = runner.invoke(
            main,
            ["report", "--a", str(out_a / "report.json"), "--b", str(out_b / "report.json"),
             "--out", str(tmp_path / "cmp")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "role, damage, named",
        [
            ("a", "short_aggregate", "aggregates.totex.mean: expected 30 values"),
            ("b", "top_level_list", "report: expected an object, got list"),
            ("a", "horizon_in_words", "horizon_years: expected an integer, got str"),
            ("b", "zero_horizon", "horizon_years: expected at least 1, got 0"),
            ("a", "short_series_horizon", "replications.0.horizon_years: expected the report's 30"),
            ("b", "long_series", "replications.1.failures: expected 30 values"),
            # json writes and reads NaN and Infinity, which are not JSON, and
            # an integer past the largest float
            ("a", "nan_aggregate", "aggregates.totex.mean.3: expected a finite number, got nan"),
            ("b", "infinite_backlog", "replications.0.backlog_hours.2: expected a finite number, got inf"),
            ("a", "huge_cost", "replications.1.opex.0: expected a finite number, got 1000"),
            # a field the reader does not know, at each level (a series also
            # carries horizon_years and totex, which the reader skips)
            ("b", "misspelled_key", "horizon_year: unknown field"),
            ("a", "unknown_series_field", "replications.0.failure: unknown field"),
            ("b", "unknown_metric", "aggregates.capex_total: unknown field"),
            ("a", "unknown_statistic", "aggregates.totex.p50: unknown field"),
        ],
    )
    def test_malformed_report_names_role_and_field(self, tmp_path, small_fleet_csv, role, damage, named):
        sim_out = tmp_path / "sim"
        invoke("simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path), "--out", sim_out)
        data = json.loads((sim_out / "report.json").read_text())
        data = MALFORMED[damage](data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        paths = {"a": sim_out / "report.json", "b": sim_out / "report.json", role: bad}
        out = tmp_path / "cmp"
        result = runner.invoke(
            main, ["report", "--a", str(paths["a"]), "--b", str(paths["b"]), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"--{role} {bad}: " in result.output and named in result.output
        assert "Traceback" not in result.output
        assert not (out / "comparison.csv").exists()


def test_help_lists_commands():
    result = invoke("--help")
    for command in ("fit", "score", "simulate", "synth", "report"):
        assert command in result.output


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's fleetlife."""
    src = str(Path(fleetlife.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def child_python(code: str) -> str:
    """The last line that `code`, run by a fresh interpreter, prints."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def loaded_after(argv, modules) -> str:
    """Those of `modules` that a fresh interpreter holds after `main(argv)`."""
    argv = [str(a) for a in argv]
    return child_python(
        f"from fleetlife.cli import main; main({argv!r}, standalone_mode=False); "
        f"import sys; print(sorted(m for m in {modules!r} if m in sys.modules))"
    )


def test_import_leaves_the_process_pool_unloaded():
    # the pool modules load only when a run has replications to spread
    code = "import sys, fleetlife.cli; print('concurrent.futures' in sys.modules)"
    assert child_python(code) == "False"


def test_import_leaves_decimal_and_dataclasses_unloaded():
    # the package's JSON reader imports them only when it reads a file
    code = "import sys, fleetlife.cli; print([m for m in ('decimal', 'dataclasses') if m in sys.modules])"
    assert child_python(code) == "[]"


def test_import_leaves_the_engine_and_scenarios_unloaded():
    # fit and score load neither; simulate and report import them when run
    code = (
        "import sys, fleetlife.cli; "
        "print([m for m in ('fleetlife.simulate', 'fleetlife.scenarios') if m in sys.modules])"
    )
    assert child_python(code) == "[]"


def test_simulate_leaves_health_unloaded(tmp_path, small_fleet_csv):
    # scoring is not part of a simulation: a builtin condition-based run,
    # whose trigger age is a scenario constant, never loads fleetlife.health.
    # Survival curves are for fitting, and numpy.typing for annotations.
    argv = ["simulate", "--fleet", small_fleet_csv, "--scenario", "condition-based",
            "--out", tmp_path / "sim"]
    assert loaded_after(argv, ("fleetlife.health", "fleetlife.survival", "numpy.typing")) == "[]"
    assert (tmp_path / "sim" / "report.json").exists()


def test_score_leaves_survival_and_the_engine_unloaded(tmp_path, small_fleet_csv):
    # scoring reads laws: it fits no survival curve and simulates nothing
    argv = ["score", "--assets", small_fleet_csv, "--laws", TestScore().laws_file(tmp_path),
            "--as-of", "2021-07-01", "--out", tmp_path / "score"]
    assert loaded_after(argv, ("fleetlife.survival", "fleetlife.simulate")) == "[]"
    assert (tmp_path / "score" / "ahi.csv").exists()


def test_simulate_leaves_numpy_ma_unloaded(tmp_path, small_fleet_csv):
    # with numpy 2.4, np.unique without counts and np.percentile import
    # numpy.ma on first use; a simulate run calls neither
    if child_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("a bare `import numpy` loads numpy.ma")
    argv = ["simulate", "--fleet", small_fleet_csv, "--scenario", "time-based",
            "--out", tmp_path / "sim"]
    assert loaded_after(argv, ("numpy.ma",)) == "[]"
    assert (tmp_path / "sim" / "report.json").exists()


def test_report_leaves_numpy_unloaded(tmp_path, small_fleet_csv):
    # report compares two JSON files; it loads neither numpy nor the engine
    sc = scenario_file(tmp_path)
    invoke("simulate", "--fleet", small_fleet_csv, "--scenario", sc, "--out", tmp_path / "sim")
    report = tmp_path / "sim" / "report.json"
    argv = ["report", "--a", report, "--b", report, "--out", tmp_path / "cmp"]
    assert loaded_after(argv, ("numpy", "fleetlife.simulate")) == "[]"
    assert (tmp_path / "cmp" / "summary.json").exists()


@pytest.mark.parametrize(
    "command", ["fit", "score", "simulate-open-pool", "simulate-constrained", "report"]
)
def test_cli_never_loads_openssl(tmp_path, small_fleet_csv, command):
    # each asset key and manifest digest is the interpreter's own SHA-256, so
    # no command maps OpenSSL's libcrypto (_hashlib, 3.7 MB of peak RSS).
    # Before numpy 2.0 a bare `import numpy` loads numpy.random, whose
    # `secrets` import loads it; report runs without numpy.
    bare_numpy = "import sys, numpy; print('_hashlib' in sys.modules)"
    if command != "report" and child_python(bare_numpy) == "True":
        pytest.skip("a bare `import numpy` loads _hashlib")
    simulate = ["simulate", "--fleet", small_fleet_csv, "--jobs", 1, "--scenario"]
    if command == "report":
        invoke(*simulate, scenario_file(tmp_path), "--out", tmp_path / "sim")
        report = tmp_path / "sim" / "report.json"
        argv = ["report", "--a", report, "--b", report]
    elif command.startswith("simulate"):
        constrained = {"mode": "constrained", "fte_count": 12, "hours_per_fte_per_year": 400.0}
        resources = constrained if command == "simulate-constrained" else {"mode": "unconstrained"}
        argv = [*simulate, scenario_file(tmp_path, resources=resources)]
    else:
        assets = TestFit().make_observed_fleet(tmp_path, n=1000)
        argv = ["fit", "--assets", assets, "--cutoff", "2021-07-01"]
        if command == "score":
            argv = ["score", "--assets", assets, "--laws", TestScore().laws_file(tmp_path),
                    "--as-of", "2021-07-01"]
    assert loaded_after([*argv, "--out", tmp_path / "out"], ("_hashlib",)) == "[]"
    assert (tmp_path / "out" / "manifest.json").exists()


@settings(max_examples=30, deadline=None)
@example(data=b"", pad=0)
@example(data=b"x", pad=0)
@example(data=b"x", pad=(1 << 20) - 1)
@example(data=b"x", pad=1 << 20)
@given(data=st.binary(max_size=256), pad=st.sampled_from([0, (1 << 20) - 1, 1 << 20]))
def test_digest_is_hashlibs(tmp_path_factory, data, pad):
    # the package's digest and the manifest's, through a file of exactly
    # one read chunk and one byte past it, equal OpenSSL's
    import fleetlife.cli as cli

    data += bytes(pad)
    path = tmp_path_factory.mktemp("digest") / "file"
    path.write_bytes(data)
    assert fleetlife.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert cli._sha256(path) == hashlib.sha256(data).hexdigest()


def test_digest_without_the_builtin_module_writes_the_same_bytes(tmp_path, small_fleet_csv):
    # on a build with neither `_sha256` nor `_sha2` the package hashes with
    # hashlib: the same asset keys, draws, report and manifest hashes
    args = ["simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path), "--seed", 1]
    argv = [str(a) for a in (*args, "--out", tmp_path / "hashlib")]
    assert child_python(
        "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
        f"from fleetlife.cli import main; main({argv!r}, standalone_mode=False); "
        "print('_hashlib' in sys.modules)"
    ) == "True"
    assert invoke(*args, "--out", tmp_path / "builtin").exit_code == 0
    for name in ("report.json", "kpis.csv"):
        assert (tmp_path / "hashlib" / name).read_bytes() == (tmp_path / "builtin" / name).read_bytes()
    hashlib_run, builtin_run = (manifest_without_duration(tmp_path / run) for run in ("hashlib", "builtin"))
    for key in ("inputs", "outputs"):
        assert hashlib_run[key] == builtin_run[key]


@pytest.mark.parametrize(
    "resources, jobs",
    [
        # a pool of 12 FTE x 400 h/yr, one replacement's hours a tick, which
        # leaves a backlog on this fleet; replications in process and spread
        # over workers
        ({"mode": "constrained", "fte_count": 12, "hours_per_fte_per_year": 400.0}, 1),
        ({"mode": "constrained", "fte_count": 12, "hours_per_fte_per_year": 400.0}, 2),
        ({"mode": "unconstrained"}, 1),
    ],
    ids=["constrained-jobs1", "constrained-jobs2", "open-pool"],
)
def test_collector_off_leaves_no_cycles_per_replication(tmp_path, small_fleet_csv, resources, jobs):
    # the `fleetlife` process runs with the cyclic collector off, which is
    # safe while a command leaves a fixed set of cyclic objects: the same
    # count after 2 replications as after 8. (A single replication runs in
    # process at any --jobs, so 2 is the fewest that a pool spreads.)
    counts = []
    for replications in (2, 8):
        sc = scenario_file(tmp_path, resources=resources, replications=replications)
        argv = ["simulate", "--fleet", str(small_fleet_csv), "--scenario", str(sc),
                "--out", str(tmp_path / f"sim{replications}"), "--jobs", str(jobs)]
        counts.append(int(child_python(
            "import gc; gc.disable(); from fleetlife.cli import main; "
            f"main({argv!r}, standalone_mode=False); print(gc.collect())"
        )))
    assert counts[0] == counts[1]


def test_process_entry_writes_what_main_writes(tmp_path, small_fleet_csv):
    # `python -m fleetlife.cli` runs `run`, main with the collector off: the
    # same exit code and error line, and the same bytes
    def entry(*args):
        return subprocess.run(
            [sys.executable, "-m", "fleetlife.cli", *map(str, args)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )

    bad = scenario_file(tmp_path, horizon_year=30)
    args = ["simulate", "--fleet", small_fleet_csv, "--scenario", bad]
    process = entry(*args, "--out", tmp_path / "bad-process")
    in_process = invoke(*args, "--out", tmp_path / "bad-main")
    assert process.returncode == in_process.exit_code == 2
    assert process.stderr.startswith("error: ")
    assert process.stderr.strip() == in_process.output.strip().splitlines()[-1]

    args = ["simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path), "--seed", 1]
    assert entry(*args, "--out", tmp_path / "process").returncode == 0
    assert invoke(*args, "--out", tmp_path / "main").exit_code == 0
    for name in ("report.json", "kpis.csv"):
        assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_only_the_process_entry_changes_the_collector(tmp_path, small_fleet_csv):
    # run() turns the collector off and freezes what is left for the exit
    code = (
        "import atexit, gc, sys; from fleetlife.cli import run; "
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
        "sys.argv[1:] = ['--version']; run()"
    )
    assert child_python(code) == "False True"
    # main called in process leaves the caller's collector as it found it
    result = invoke("simulate", "--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path),
                    "--out", tmp_path / "sim")
    assert result.exit_code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_layers_the_benchmark_traces_are_names_of_cli():
    # perfbench/run.py routes the commands' layer calls through spans by
    # replacing these names in vars(fleetlife.cli); a missing one would
    # break the traced benchmark
    import fleetlife.cli as cli

    bench = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    patched = re.findall(r'\(fl\.cli, "(\w+)"', bench.read_text(encoding="utf-8"))
    assert len(patched) >= 8
    assert [name for name in patched if not callable(vars(cli).get(name))] == []


def test_family_choices_are_the_voltage_classes():
    import fleetlife.cli as cli

    assert cli.FAMILY_CHOICES == [vc.value for vc in VoltageClass]


def test_manifest_outputs_are_the_files_written(tmp_path, small_fleet_csv):
    # each command's manifest lists every file it leaves under --out but
    # itself, plotdata/ included, each with its sha256
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sizes": {"110": 20, "150": 10}, "commission_years": [1980, 2010]}))
    assets = TestFit().make_observed_fleet(tmp_path, n=1000)
    simulated = tmp_path / "simulate" / "report.json"
    commands = {
        "synth": (["--spec", spec], {"fleet.csv"}),
        "fit": (["--assets", assets, "--cutoff", "2021-07-01"], {"km_110.csv", "law.json"}),
        "score": (
            ["--assets", assets, "--laws", tmp_path / "fit" / "law.json", "--as-of", "2021-07-01"],
            {"ahi.csv"},
        ),
        "simulate": (
            ["--fleet", small_fleet_csv, "--scenario", scenario_file(tmp_path)],
            {"report.json", "kpis.csv"},
        ),
        "report": (
            ["--a", simulated, "--b", simulated],
            {"comparison.csv", "plotdata/a_totex_stack.csv", "plotdata/b_totex_stack.csv", "summary.json"},
        ),
    }
    for command, (args, files) in commands.items():
        out = tmp_path / command
        result = invoke(command, *args, "--out", out)
        assert result.exit_code == 0, result.output
        written = {
            path.relative_to(out).as_posix(): sha256_file(path)
            for path in out.rglob("*")
            if path.is_file() and path.name != "manifest.json"
        }
        assert set(written) == files
        assert json.loads((out / "manifest.json").read_text())["outputs"] == written
