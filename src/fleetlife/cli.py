"""Command-line front end: fit, score, simulate, synth, report.

Every command writes its artifacts into a fresh output directory together
with a manifest recording input hashes, seeds, and output hashes. Reruns
with identical inputs produce byte-identical artifacts; only the manifest's
wall-clock duration differs.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import sys
import time
from datetime import date
from pathlib import Path
from typing import NoReturn

import click

from . import __version__, checked, field, known, read, sha256

EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# the values of fleet.VoltageClass, named here so that the option parser
# needs no numpy
FAMILY_CHOICES = ["110", "150", "220_380"]
# rows of ahi.csv formatted and written at a time
_AHI_ROWS = 8192


class _Run:
    """Collects inputs/outputs/seed info and writes the manifest last.

    Inputs are keyed by the role they play in the command (``fleet``,
    ``scenario``, ``a``, ...), so two inputs with one basename both count.
    Every artifact is written through `output`, which records its hash.
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

    @contextlib.contextmanager
    def output(self, name: str):
        """The text file `name` under the output directory (``plotdata/``
        is created on first use), open for writing; its sha256 is recorded
        as output `name` once it closes."""
        path = self.out_dir / name
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
        self.outputs[name] = _sha256(path)

    def output_json(self, name: str, payload: dict) -> None:
        with self.output(name) as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")

    def write_manifest(self) -> None:
        """The manifest, written last: it lists every output before it."""
        manifest = {
            "command": self.command,
            "argv": sys.argv[1:],
            "version": __version__,
            "inputs": self.inputs,
            "seeds": self.seeds,
            "outputs": self.outputs,
            "duration_seconds": round(time.monotonic() - self.started, 3),
        }
        self.output_json("manifest.json", manifest)


def _sha256(path: Path) -> str:
    digest = sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fail(message: str, code: int) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_iso_date(value: str, label: str) -> date:
    from .fleet import DataError, iso_date

    try:
        return iso_date(value, label)
    except DataError as exc:
        _fail(str(exc), EXIT_VALIDATION)


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


def run() -> None:
    """The `fleetlife` process: `main` with the cyclic garbage collector off.

    A command leaves a fixed few hundred cyclic objects, mostly module-level
    definitions, however many replications it runs, so collecting during the
    command frees nothing that matters. `gc.freeze` at the end leaves the
    interpreter's final collection nothing to walk. Forked `--jobs` workers
    inherit the setting; `main` called in process leaves the caller's
    collector alone.
    """
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


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

    # a family given twice is fitted once, where it is first given
    wanted = [VoltageClass(f) for f in dict.fromkeys(families)] if families else list(VoltageClass)
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
        with run.output(f"km_{vc.value}.csv") as handle:
            write_curve_csv(curve, handle)

        try:
            rr_law, rr_error = fit_weibull_rank_regression(curve), None
        except ValueError as exc:
            rr_law, rr_error = None, exc
        try:
            mle_law, diag = fit_weibull_mle(family_table, rr_law)
        except ValueError as exc:
            _fail(f"family {vc.value}: {exc}", EXIT_VALIDATION)
        except FitError as exc:
            _fail(f"family {vc.value}: {exc}", EXIT_NONCONVERGENCE)
        if rr_law is None:
            click.echo(f"note: family {vc.value}: rank regression skipped ({rr_error})", err=True)
        else:
            laws.append(law_to_record(rr_law, vc.value, "rank_regression"))
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
    run.output_json("law.json", {"laws": laws, "diagnostics": diagnostics, "medians": medians})
    run.write_manifest()
    for vc_value, entry in medians.items():
        click.echo(f"family {vc_value}: km median {entry['km_median_years']}, weibull median {entry['weibull_median_years']:.2f}")
    extras = sorted(vc.value for vc in present if vc not in wanted)
    if extras:
        click.echo(f"note: families present but not fitted: {', '.join(extras)}")


def _pick_laws(payload) -> dict:
    from .fleet import DataError
    from .weibull import law_from_record

    records = payload["laws"] if isinstance(payload, dict) and "laws" in payload else payload
    if not isinstance(records, list):
        raise DataError("laws file: expected a list of law records or {'laws': [...]}")
    preference = {"mle": 0, "rank_regression": 1, "reference": 2}
    best: dict = {}
    seen = set()
    for i, record in enumerate(records):
        vc, law, source = law_from_record(record, f"laws[{i}]")
        if (vc, source) in seen:
            raise DataError(f"laws[{i}]: a second {source} law record for family {vc.value}")
        seen.add((vc, source))
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
    from .health import band_for_score, basis_for_score

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

    scores = np.zeros(len(in_service), dtype=np.int64)
    for code in np.flatnonzero(np.bincount(family, minlength=len(FAMILIES))).tolist():
        rows = family == code
        # fleet average in record order, summed left to right
        average = sum(ages[rows].tolist()) / int(rows.sum())
        scores[rows] = score_asset(laws[FAMILIES[code]], ages[rows], average)
    # the score,band,basis text of each score 1-10
    rated = [""] + [
        f"{s},{band_for_score(s).value},{basis_for_score(s).value}" for s in range(1, 11)
    ]
    # scoring knows no per-asset degradation rate, so the apparent age it
    # reports is the service age
    with run.output("ahi.csv") as handle:
        handle.write("asset_id,apparent_age,score,band,basis\n")
        for rows in (slice(lo, lo + _AHI_ROWS) for lo in range(0, len(in_service), _AHI_ROWS)):
            ids = map(assets.asset_id.__getitem__, in_service[rows].tolist())
            rated_rows = map(rated.__getitem__, scores[rows].tolist())
            handle.write("".join(map("%s,%.4f,%s\n".__mod__, zip(ids, ages[rows].tolist(), rated_rows))))
    run.write_manifest()
    click.echo(f"scored {len(in_service)} assets -> {out_dir / 'ahi.csv'}")


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

    run.output_json("report.json", report.to_json_dict())
    with run.output("kpis.csv") as handle:
        report.write_kpis_csv(handle)
    run.write_manifest()
    totex = sum(report.aggregates["totex"].mean)
    click.echo(
        f"{scenario.name}: {scenario.replications} replications over "
        f"{scenario.horizon_years} years; mean cumulative TOTEX {totex:,.2f}"
    )


def _synth_spec(raw: object):
    """The synthetic fleet spec of a spec file; an unknown key or a value
    that is not a JSON integer is named by its dotted field."""
    import dataclasses

    from .fleet import DataError, SyntheticFleetSpec, VoltageClass

    spec = known(checked(raw, "spec", dict), tuple(f.name for f in dataclasses.fields(SyntheticFleetSpec)))
    sizes = {}
    for key, n in field(spec, "sizes", "", dict).items():
        sizes[VoltageClass.named(key, f"sizes.{key}")] = checked(n, f"sizes.{key}", int)
    years = field(spec, "commission_years", "", list)
    if len(years) != 2:
        raise DataError("commission_years: expected [first_year, last_year]")
    years = tuple(checked(y, f"commission_years.{i}", int) for i, y in enumerate(years))
    return read(SyntheticFleetSpec, spec, "", sizes=sizes, commission_years=years)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Synthetic fleet spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def synth(spec_path: Path, out_dir: Path) -> None:
    """Generate a synthetic in-service fleet CSV from a spec file.

    The spec is {"sizes": {"110": N, "150": N, "220_380": N},
    "commission_years": [first, last], "seed": integer}, all integers;
    "seed" is optional, default 0.
    """
    from .fleet import DataError, generate_synthetic_fleet, write_asset_csv

    run = _Run("synth", out_dir)
    run.add_input("spec", spec_path)
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            spec = _synth_spec(json.load(handle))
        fleet = generate_synthetic_fleet(spec)
    except (DataError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    run.seeds["seed"] = spec.seed
    with run.output("fleet.csv") as handle:
        write_asset_csv(fleet, handle)
    run.write_manifest()
    click.echo(f"wrote {len(fleet)} assets -> {out_dir / 'fleet.csv'}")


@main.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="First report.json.")
@click.option("--b", "path_b", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Second report.json.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
def report(path_a: Path, path_b: Path, out_dir: Path) -> None:
    """Compare two simulation reports year by year."""
    from .reports import SimulationReport

    run = _Run("report", out_dir)
    reports = []
    for role, path in (("a", path_a), ("b", path_b)):
        run.add_input(role, path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(SimulationReport.from_json_dict(json.load(handle)))
        except ValueError as exc:
            _fail(f"--{role} {path}: {exc}", EXIT_VALIDATION)
    report_a, report_b = reports
    try:
        comparison = compare_scenarios(report_a, report_b)
    except ValueError as exc:
        _fail(str(exc), EXIT_VALIDATION)

    with run.output("comparison.csv") as handle:
        comparison.write_csv(handle)
    for label, rep in (("a", report_a), ("b", report_b)):
        lines = ["year,capex_mean,opex_mean,totex_mean"]
        for year in range(rep.horizon_years):
            lines.append(
                f"{year},{rep.aggregates['capex'].mean[year]!r},"
                f"{rep.aggregates['opex'].mean[year]!r},"
                f"{rep.aggregates['totex'].mean[year]!r}"
            )
        with run.output(f"plotdata/{label}_totex_stack.csv") as handle:
            handle.write("\n".join(lines) + "\n")
    run.output_json(
        "summary.json",
        {
            "scenario_a": report_a.scenario_name,
            "scenario_b": report_b.scenario_name,
            "cumulative_totex_a": sum(report_a.aggregates["totex"].mean),
            "cumulative_totex_b": sum(report_b.aggregates["totex"].mean),
            "crossover_year": comparison.crossover_year,
        },
    )
    run.write_manifest()
    if comparison.crossover_year is None:
        click.echo("no cumulative-cost crossover within the horizon")
    else:
        click.echo(f"cumulative cost crossover in year {comparison.crossover_year}")


if __name__ == "__main__":
    run()
