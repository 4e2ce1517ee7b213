"""The three workloads: inputs, CLI command sequence, checks, work counts.

Each workload runs one round at a time. A round is the workload's whole CLI
command sequence followed by its correctness checks; every round attempts
the same operations (commands plus checks), so the share of failed
operations does not depend on how many rounds a run fits in. A traced round
runs the same commands in-process (see run.py) and reads the work counts
from the artifacts they write.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import inputs

# Checks that fail because of known faults in the program's manifest
# bookkeeping: `simulate` never hashes the scenario file it was given, and
# `_Run.add_input` keys inputs by basename, so `report --a tb/report.json
# --b cb/report.json` keeps only the hash of b. They stay counted as failed
# operations until the manifest records every input by role. The fleet
# hash and the hash of b have checks of their own, which are not excused.
KNOWN_FAULTS = frozenset({"provenance.simulate_scenario_hash", "provenance.report_input_a"})


def cli(*args) -> list[str]:
    """Arguments of one `fleetlife` CLI command, as strings."""
    return [str(a) for a in args]


def rows(csv_path: Path) -> int:
    """Data rows of a CSV file with a header line."""
    return len(checks.read_csv(csv_path))


class Estimate:
    name = "estimate"
    item_unit = "records"

    def setup(self, fl, seed: int, work: Path) -> dict:
        return inputs.write_estimate_inputs(fl, seed, work)

    def commands(self, inp: dict, out: Path) -> list[tuple[str, list[str]]]:
        return [
            ("fit", cli("fit", "--assets", inp["assets"], "--cutoff", inp["cutoff"],
                        "--out", out / "fit")),
            ("score", cli("score", "--assets", inp["assets"], "--laws", out / "fit" / "law.json",
                          "--as-of", inp["cutoff"], "--out", out / "score")),
        ]

    compute_commands = ("fit", "score")

    def items(self, inp: dict) -> int:
        return inp["records"]

    def reference(self, inp: dict) -> dict:
        """Input-only reference values, computed once per run."""
        if "reference" not in inp:
            life = checks.lifetimes(inp["assets"], inp["cutoff"])
            mle = {}
            for fam in inp["laws"]:
                mask = life["family"] == fam
                mle[fam] = checks.weibull_mle_scipy(life["duration"][mask], life["event"][mask])
            inp["reference"] = {"life": life, "mle": mle}
        return inp["reference"]

    def checks(self, inp: dict, out: Path):
        fit = out / "fit"

        def arrays(fam: str):
            life = self.reference(inp)["life"]
            mask = life["family"] == fam
            return life["duration"][mask], life["event"][mask]

        def mle_laws() -> dict:
            return checks.mle_records(fit / "law.json")

        found = []
        for fam in inp["laws"]:
            found += [
                (f"km.{fam}", lambda fam=fam: checks.check_km_curve(
                    fit / f"km_{fam}.csv", *arrays(fam))),
                (f"mle.scipy.{fam}", lambda fam=fam: checks.check_mle(
                    mle_laws()[fam], self.reference(inp)["mle"][fam])),
                (f"mle.recovers_law.{fam}", lambda fam=fam: checks.check_law_recovery(
                    mle_laws()[fam], inp["laws"][fam])),
            ]
        found.append(("ahi.scores", lambda: checks.check_ahi(
            out / "score" / "ahi.csv", self.reference(inp)["life"], inp["cutoff"], mle_laws())))
        return found

    def counts(self, inp: dict, out: Path) -> dict:
        diagnostics = json.loads((out / "fit" / "law.json").read_text())["diagnostics"].values()
        return {
            "survival.km_steps": sum(rows(out / "fit" / f"km_{fam}.csv") for fam in inp["laws"]),
            "weibull.mle_iterations": sum(d["iterations"] for d in diagnostics),
            "weibull.events": sum(d["event_count"] for d in diagnostics),
            "health.assets_scored": rows(out / "score" / "ahi.csv"),
        }


class _Simulation:
    """Shared by both pool workloads: simulate each scenario, then check."""

    compute_commands = ("simulate",)
    item_unit = "asset-years"

    def scenario(self, inp: dict, label: str) -> dict:
        return json.loads(Path(inp["scenarios"][label]).read_text())

    def commands(self, inp: dict, out: Path) -> list[tuple[str, list[str]]]:
        return [("simulate", cli("simulate", "--fleet", inp["fleet"], "--scenario", path,
                                 "--out", out / label, "--jobs", 1))
                for label, path in inp["scenarios"].items()]

    def items(self, inp: dict) -> int:
        total = 0
        for label in inp["scenarios"]:
            scenario = self.scenario(inp, label)
            total += inp["assets"] * scenario["horizon_years"] * scenario["replications"]
        return total

    def report(self, out: Path, label: str) -> dict:
        return json.loads((out / label / "report.json").read_text())

    def simulate_checks(self, inp: dict, out: Path, label: str) -> list:
        return [
            ("aggregates." + label, lambda: checks.check_aggregates(self.report(out, label))),
            ("provenance.simulate_fleet_hash", lambda: checks.check_manifest_inputs(
                out / label, [Path(inp["fleet"])])),
            ("provenance.simulate_scenario_hash", lambda: checks.check_manifest_inputs(
                out / label, [Path(inp["scenarios"][label])])),
        ]

    def counts(self, inp: dict, out: Path) -> dict:
        found = dict.fromkeys(("simulate.replications", "simulate.asset_years",
                               "simulate.failures", "simulate.replacements",
                               "simulate.inspections", "simulate.backlog_hours_end"), 0)
        for label in inp["scenarios"]:
            scenario = self.scenario(inp, label)
            for rep in self.report(out, label)["replications"]:
                found["simulate.replications"] += 1
                found["simulate.asset_years"] += inp["assets"] * rep["horizon_years"]
                found["simulate.failures"] += sum(rep["failures"])
                found["simulate.replacements"] += sum(rep["replacements"])
                found["simulate.inspections"] += sum(
                    sum(c) for c in checks.yearly_activity(rep, scenario) if c)
                found["simulate.backlog_hours_end"] += rep["backlog_hours"][-1]
        return found


# Years over which failures of the original open-pool fleet are compared
# with their binomial expectation.
EARLY_YEARS = 20


class OpenPool(_Simulation):
    name = "sim-open-pool"

    def setup(self, fl, seed: int, work: Path) -> dict:
        return inputs.write_open_pool_inputs(fl, seed, work)

    def checks(self, inp: dict, out: Path):
        scenario = self.scenario(inp, "open")

        def report() -> dict:
            return self.report(out, "open")

        def early_failures():
            if "early_q" not in inp:
                inp["early_q"] = checks.early_failure_probabilities(
                    inp["fleet"], scenario, EARLY_YEARS)
            return checks.check_early_failures(report(), inp["early_q"], EARLY_YEARS)

        return [
            ("backlog.zero", lambda: checks.check_zero_backlog(report())),
            ("failures.early_binomial", early_failures),
            ("inspections.integer_counts", lambda: checks.check_integer_inspections(report(), scenario)),
            ("unavailability.floor", lambda: checks.check_unavailability(report(), scenario)),
            *self.simulate_checks(inp, out, "open"),
        ]


class BindingPool(_Simulation):
    name = "sim-binding-pool"

    def setup(self, fl, seed: int, work: Path) -> dict:
        return inputs.write_binding_pool_inputs(fl, seed, work)

    def commands(self, inp: dict, out: Path):
        return super().commands(inp, out) + [
            ("report", cli("report", "--a", out / "tb" / "report.json",
                           "--b", out / "cb" / "report.json", "--out", out / "cmp")),
        ]

    def checks(self, inp: dict, out: Path):
        found = []
        for label in ("tb", "cb"):
            scenario = self.scenario(inp, label)
            found += [
                ("capacity." + label, lambda label=label, scenario=scenario:
                    checks.check_capacity(self.report(out, label), scenario)),
                ("backlog.end_positive." + label, lambda label=label:
                    checks.check_end_backlog(self.report(out, label))),
                *self.simulate_checks(inp, out, label),
            ]
        found += [
            ("report.comparison", lambda: checks.check_comparison(
                self.report(out, "tb"), self.report(out, "cb"),
                out / "cmp" / "comparison.csv", out / "cmp" / "summary.json")),
            ("provenance.report_input_a", lambda: checks.check_manifest_inputs(
                out / "cmp", [out / "tb" / "report.json"])),
            ("provenance.report_input_b", lambda: checks.check_manifest_inputs(
                out / "cmp", [out / "cb" / "report.json"])),
        ]
        return found


WORKLOADS = {w.name: w for w in (Estimate(), OpenPool(), BindingPool())}
