"""Command-line front end: fit, score, simulate, synth, report.

Every command writes its artifacts into a fresh output directory together
with a manifest recording input hashes, seeds, and output hashes. Reruns
with identical inputs produce byte-identical artifacts; only the manifest's
wall-clock duration differs.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from datetime import date
from pathlib import Path

import click

from . import __version__

EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# the values of fleet.VoltageClass, named here so that the option parser
# needs no numpy
FAMILY_CHOICES = ["110", "150", "220_380"]


class _Run:
    """Collects inputs/outputs/seed info and writes the manifest last.

    Inputs are keyed by the role they play in the command (``fleet``,
    ``scenario``, ``a``, ...), so two inputs with one basename both count.
    """

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.seeds: dict[str, int] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def add_input(self, role: str, path: Path) -> None:
        self.inputs[role] = _sha256(path)

    def add_output(self, path: Path) -> None:
        self.outputs[str(path.relative_to(self.out_dir))] = _sha256(path)

    def write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "argv": sys.argv[1:],
            "version": __version__,
            "inputs": self.inputs,
            "seeds": self.seeds,
            "outputs": self.outputs,
            "duration_seconds": round(time.monotonic() - self.started, 3),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_iso_date(value: str, label: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        _fail(f"{label}: malformed date {value!r} (expected YYYY-MM-DD)", EXIT_VALIDATION)
        raise AssertionError("unreachable")


def _load_assets(path: Path):
    with open(path, "rb") as handle:
        return parse_asset_csv(handle)


def _layer(module: str, name: str):
    """`name` of the submodule `module`, imported on the first call.

    Each command loads only the modules it runs, so `report` loads neither
    numpy nor the engine. The layer functions stay names of this module,
    so a caller can wrap them here.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"`{module}.{name}`."
    return call


parse_asset_csv = _layer("fleet", "parse_asset_csv")
build_lifetime_table = _layer("fleet", "build_lifetime_table")
km_fit = _layer("survival", "km_fit")
fit_weibull_mle = _layer("weibull", "fit_weibull_mle")
fit_weibull_rank_regression = _layer("weibull", "fit_weibull_rank_regression")
score_asset = _layer("health", "score_asset")
run_scenario = _layer("simulate", "run_scenario")
compare_scenarios = _layer("reports", "compare_scenarios")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Fleet aging analysis and maintenance strategy simulation."""


@main.command()
@click.option("--assets", "assets_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Asset CSV.")
@click.option("--cutoff", required=True, help="Observation cutoff date (YYYY-MM-DD).")
@click.option("--family", "families", multiple=True, type=click.Choice(FAMILY_CHOICES), help="Restrict to one or more families (default: all present).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def fit(assets_path: Path, cutoff: str, families: tuple[str, ...], out_dir: Path) -> None:
    """Estimate survival curves and reliability laws from failure records."""
    from .fleet import DataError, VoltageClass
    from .survival import UNBOUNDED, write_curve_csv
    from .weibull import FitError, law_to_record

    cutoff_date = _parse_iso_date(cutoff, "--cutoff")
    run = _Run("fit", out_dir)
    run.add_input("assets", assets_path)
    try:
        assets = _load_assets(assets_path)
        table = build_lifetime_table(assets, cutoff_date)
    except DataError as exc:
        _fail(str(exc), EXIT_VALIDATION)
        return

    wanted = [VoltageClass(f) for f in families] if families else list(VoltageClass)
    present = table.families()
    laws: list[dict] = []
    diagnostics: dict[str, dict] = {}
    medians: dict[str, dict] = {}
    for vc in wanted:
        family_table = table.select(vc)
        if not len(family_table):
            if families:
                _fail(f"no assets in family {vc.value}", EXIT_VALIDATION)
            continue
        curve = km_fit(family_table)
        curve_path = out_dir / f"km_{vc.value}.csv"
        with open(curve_path, "w", encoding="utf-8", newline="") as handle:
            write_curve_csv(curve, handle)
        run.add_output(curve_path)

        try:
            mle_law, diag = fit_weibull_mle(family_table)
        except ValueError as exc:
            _fail(f"family {vc.value}: {exc}", EXIT_VALIDATION)
            return
        except FitError as exc:
            _fail(f"family {vc.value}: {exc}", EXIT_NONCONVERGENCE)
            return
        try:
            rr_law = fit_weibull_rank_regression(curve)
            laws.append(law_to_record(rr_law, vc.value, "rank_regression"))
        except ValueError as exc:
            click.echo(f"note: family {vc.value}: rank regression skipped ({exc})", err=True)
        laws.append(law_to_record(mle_law, vc.value, "mle"))
        diagnostics[vc.value] = diag.to_json_dict()

        km_median = curve.median()
        km_q75 = curve.quantile(0.75)
        medians[vc.value] = {
            "km_median_years": "unbounded" if km_median == UNBOUNDED else km_median,
            "km_q75_years": "unbounded" if km_q75 == UNBOUNDED else km_q75,
            "weibull_median_years": mle_law.median(),
        }

    if not medians:
        _fail("no observations in any requested family", EXIT_VALIDATION)
    law_path = out_dir / "law.json"
    _write_json(law_path, {"laws": laws, "diagnostics": diagnostics, "medians": medians})
    run.add_output(law_path)
    run.write_manifest()
    for vc_value, entry in medians.items():
        click.echo(f"family {vc_value}: km median {entry['km_median_years']}, weibull median {entry['weibull_median_years']:.2f}")
    extras = sorted(vc.value for vc in present if vc not in wanted)
    if extras:
        click.echo(f"note: families present but not fitted: {', '.join(extras)}")


def _pick_laws(payload) -> dict:
    from .fleet import DataError, VoltageClass
    from .weibull import law_from_record

    records = payload["laws"] if isinstance(payload, dict) and "laws" in payload else payload
    if not isinstance(records, list):
        raise DataError("laws file: expected a list of law records or {'laws': [...]}")
    preference = {"mle": 0, "rank_regression": 1, "reference": 2}
    best: dict = {}
    for record in records:
        family, law, source = law_from_record(record)
        vc = VoltageClass(family)
        rank = preference.get(source, 3)
        if vc not in best or rank < best[vc][0]:
            best[vc] = (rank, law)
    return {vc: law for vc, (_, law) in best.items()}


@main.command()
@click.option("--assets", "assets_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Asset CSV.")
@click.option("--laws", "laws_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Law JSON (fit output or law records).")
@click.option("--as-of", "as_of", required=True, help="Scoring date (YYYY-MM-DD).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def score(assets_path: Path, laws_path: Path, as_of: str, out_dir: Path) -> None:
    """Score every in-service asset on the 1-10 health scale."""
    import numpy as np

    from .fleet import FAMILIES, DataError, service_years
    from .health import AhiConfig, Band, ScoreBasis

    as_of_date = _parse_iso_date(as_of, "--as-of")
    run = _Run("score", out_dir)
    run.add_input("assets", assets_path)
    run.add_input("laws", laws_path)
    try:
        assets = _load_assets(assets_path)
        with open(laws_path, "r", encoding="utf-8") as handle:
            laws = _pick_laws(json.load(handle))
    except (DataError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
        return

    failure = assets.failure
    in_service = np.flatnonzero((failure == 0) | (failure > as_of_date.toordinal()))
    ages, family = service_years(assets, as_of_date)
    ages, family = ages[in_service], family[in_service]
    if (ages < 0).any():
        asset_id = assets.asset_id[in_service[np.argmax(ages < 0)]]
        _fail(f"asset {asset_id!r} commissioned after --as-of {as_of}", EXIT_VALIDATION)
    lawless = np.isin(family, [code for code, vc in enumerate(FAMILIES) if vc not in laws])
    if lawless.any():
        row = int(np.argmax(lawless))
        _fail(
            f"no law for family {FAMILIES[family[row]].value} "
            f"(asset {assets.asset_id[in_service[row]]!r})",
            EXIT_VALIDATION,
        )

    config = AhiConfig()
    scores = np.zeros(len(in_service), dtype=np.int64)
    bands = np.zeros(len(in_service), dtype=np.int8)
    bases = np.zeros(len(in_service), dtype=np.int8)
    for code in np.flatnonzero(np.bincount(family, minlength=len(FAMILIES))).tolist():
        rows = family == code
        # fleet average in record order, summed left to right
        average = sum(ages[rows].tolist()) / int(rows.sum())
        scores[rows], bands[rows], bases[rows] = score_asset(
            laws[FAMILIES[code]], ages[rows], average, config
        )
    ids = [assets.asset_id[row] for row in in_service.tolist()]
    # scoring knows no per-asset degradation rate, so the apparent age it
    # reports is the service age
    lines = ["asset_id,apparent_age,score,band,basis"]
    # ahi.csv text of each band and basis code
    band_values = np.array([band.value for band in Band])
    basis_values = np.array([basis.value for basis in ScoreBasis])
    lines.extend(
        map(
            "%s,%.4f,%d,%s,%s".__mod__,
            zip(
                ids,
                ages.tolist(),
                scores.tolist(),
                band_values[bands].tolist(),
                basis_values[bases].tolist(),
            ),
        )
    )
    ahi_path = out_dir / "ahi.csv"
    ahi_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.add_output(ahi_path)
    run.write_manifest()
    click.echo(f"scored {len(in_service)} assets -> {ahi_path}")


@main.command()
@click.option("--fleet", "fleet_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Fleet CSV.")
@click.option("--scenario", "scenario_ref", required=True, help="Scenario JSON path or builtin name (e.g. time-based:fte40).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1), help="Parallel replication workers.")
@click.option("--seed", default=None, type=int, help="Override the scenario's master seed.")
def simulate(fleet_path: Path, scenario_ref: str, out_dir: Path, jobs: int, seed: int | None) -> None:
    """Run a maintenance scenario against a fleet."""
    import dataclasses

    from .fleet import DataError
    from .scenarios import ScenarioError, resolve_scenario

    run = _Run("simulate", out_dir)
    run.add_input("fleet", fleet_path)
    if Path(scenario_ref).is_file():
        run.add_input("scenario", Path(scenario_ref))
    try:
        fleet = _load_assets(fleet_path)
        scenario = resolve_scenario(scenario_ref)
        if seed is not None:
            scenario = dataclasses.replace(scenario, master_seed=seed)
        run.seeds["master_seed"] = scenario.master_seed
        report = run_scenario(fleet, scenario, jobs=jobs)
    except (DataError, ScenarioError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
        return

    report_path = out_dir / "report.json"
    _write_json(report_path, report.to_json_dict())
    run.add_output(report_path)
    kpi_path = out_dir / "kpis.csv"
    with open(kpi_path, "w", encoding="utf-8", newline="") as handle:
        report.write_kpis_csv(handle)
    run.add_output(kpi_path)
    run.write_manifest()
    totex = sum(report.aggregates["totex"].mean)
    click.echo(
        f"{scenario.name}: {scenario.replications} replications over "
        f"{scenario.horizon_years} years; mean cumulative TOTEX {totex:,.2f}"
    )


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Synthetic fleet spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def synth(spec_path: Path, out_dir: Path) -> None:
    """Generate a synthetic in-service fleet CSV from a spec file.

    The spec is {"sizes": {"110": N, "150": N, "220_380": N},
    "commission_years": [first, last], "seed": integer}.
    """
    from .fleet import (
        DataError,
        SyntheticFleetSpec,
        VoltageClass,
        generate_synthetic_fleet,
        write_asset_csv,
    )

    run = _Run("synth", out_dir)
    run.add_input("spec", spec_path)
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        sizes = {
            VoltageClass(key): int(value)
            for key, value in raw.get("sizes", {}).items()
        }
        years = raw.get("commission_years")
        if not isinstance(years, list) or len(years) != 2:
            raise DataError("spec: commission_years must be [first_year, last_year]")
        spec = SyntheticFleetSpec(
            sizes=sizes,
            commission_years=(int(years[0]), int(years[1])),
            seed=int(raw.get("seed", 0)),
        )
        fleet = generate_synthetic_fleet(spec)
    except (DataError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
        return
    run.seeds["seed"] = spec.seed
    fleet_path = out_dir / "fleet.csv"
    with open(fleet_path, "w", encoding="utf-8", newline="") as handle:
        write_asset_csv(fleet, handle)
    run.add_output(fleet_path)
    run.write_manifest()
    click.echo(f"wrote {len(fleet)} assets -> {fleet_path}")


@main.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="First report.json.")
@click.option("--b", "path_b", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Second report.json.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def report(path_a: Path, path_b: Path, out_dir: Path) -> None:
    """Compare two simulation reports year by year."""
    from .reports import SimulationReport

    run = _Run("report", out_dir)
    run.add_input("a", path_a)
    run.add_input("b", path_b)
    try:
        with open(path_a, "r", encoding="utf-8") as handle:
            report_a = SimulationReport.from_json_dict(json.load(handle))
        with open(path_b, "r", encoding="utf-8") as handle:
            report_b = SimulationReport.from_json_dict(json.load(handle))
        comparison = compare_scenarios(report_a, report_b)
    except (KeyError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
        return

    comparison_path = out_dir / "comparison.csv"
    with open(comparison_path, "w", encoding="utf-8", newline="") as handle:
        comparison.write_csv(handle)
    run.add_output(comparison_path)

    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    for label, rep in (("a", report_a), ("b", report_b)):
        stack_path = plot_dir / f"{label}_totex_stack.csv"
        lines = ["year,capex_mean,opex_mean,totex_mean"]
        for year in range(rep.horizon_years):
            lines.append(
                f"{year},{rep.aggregates['capex'].mean[year]!r},"
                f"{rep.aggregates['opex'].mean[year]!r},"
                f"{rep.aggregates['totex'].mean[year]!r}"
            )
        stack_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run.add_output(stack_path)

    summary_path = out_dir / "summary.json"
    _write_json(
        summary_path,
        {
            "scenario_a": report_a.scenario_name,
            "scenario_b": report_b.scenario_name,
            "cumulative_totex_a": sum(report_a.aggregates["totex"].mean),
            "cumulative_totex_b": sum(report_b.aggregates["totex"].mean),
            "crossover_year": comparison.crossover_year,
        },
    )
    run.add_output(summary_path)
    run.write_manifest()
    if comparison.crossover_year is None:
        click.echo("no cumulative-cost crossover within the horizon")
    else:
        click.echo(f"cumulative cost crossover in year {comparison.crossover_year}")


if __name__ == "__main__":
    main()
