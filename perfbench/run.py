"""Run one benchmark workload against the fleetlife CLI of this checkout.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 25 --trace 0

Inputs are generated from --seed. Rounds of the workload's CLI command
sequence, each followed by its correctness checks, repeat until --seconds
have passed; the last round may run past it. With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics (medians over rounds); with
--trace 1 it holds the per-layer metrics of an in-process traced run,
whose spans are written to .perfbench_runs/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Single-threaded BLAS in this process and in every CLI child, so that CPU
# time counts work rather than idle threads spinning on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (after the BLAS settings above)
from tracing import Tracer  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Set-up repeats until both counts are reached and reports the median of
# the scaled repeats: nine of about 0.5 s for estimate, about fifty of
# 20 ms for the sim-* workloads.
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 1.0
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "items_per_s": "items/s"}

LAYER_COUNTS = {
    "fleet.records": "count",
    "survival.km_steps": "count",
    "weibull.mle_iterations": "count",
    "weibull.events": "count",
    "health.assets_scored": "count",
    "simulate.replications": "count",
    "simulate.asset_years": "asset-years",
    "simulate.failures": "count",
    "simulate.replacements": "count",
    "simulate.inspections": "count",
    "simulate.backlog_hours_end": "h",
}
LAYER_SPANS = (
    "fleet.parse_asset_csv", "fleet.build_lifetime_table", "survival.km_fit",
    "weibull.fit_weibull_mle", "weibull.fit_weibull_rank_regression", "health.score_asset",
    "scenarios.load_scenario_file", "simulate.run_scenario",
    "simulate.aggregate_replications", "simulate.to_json", "simulate.from_json_dict",
    "simulate.compare_scenarios",
)
CLI_COMMANDS = ("fit", "score", "simulate", "report")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one child to completion through launch.py.

    Returns its exit code, wall time, and the CPU time and peak RSS from the
    rusage the OS returns for it, plus the speed scale of the reference
    kernel timed around it. A child still running at the deadline is killed
    with its launcher and reads as exit code -9.
    """
    result_path = log.with_name("child.json")
    result_path.unlink(missing_ok=True)

    def launch() -> int:
        with open(log, "ab") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(result_path), *argv],
                stdout=handle, stderr=subprocess.STDOUT, env=child_env(),
                start_new_session=True)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                return proc.wait()
            finally:
                timer.cancel()

    code, scale = reference.timed(launch)
    if code != 0 or not result_path.exists():
        return {"code": -9, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "scale": scale}
    return {**json.loads(result_path.read_text()), "scale": scale}


def run_round(workload, inp: dict, out: Path, deadline: float) -> dict:
    """The workload's command sequence, then its checks, as counted operations.

    Times are kept both as measured ("raw_*") and scaled to the reference
    machine speed (see reference.py).
    """
    out.mkdir(parents=True)
    log = out.parent / "cli.log"
    result = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "raw_cpu": 0.0, "rss": 0.0,
              "commands": {}, "raw_commands": {}, "ops": []}
    for label, args in workload.commands(inp, out):
        child = run_child([sys.executable, "-m", "fleetlife.cli", *args], log, deadline)
        result["wall"] += child["wall_s"] * child["scale"]
        result["cpu"] += child["cpu_s"] * child["scale"]
        result["raw_wall"] += child["wall_s"]
        result["raw_cpu"] += child["cpu_s"]
        result["rss"] = max(result["rss"], child["peak_rss_mb"])
        result["commands"][label] = (result["commands"].get(label, 0.0)
                                     + child["wall_s"] * child["scale"])
        result["raw_commands"][label] = result["raw_commands"].get(label, 0.0) + child["wall_s"]
        result["ops"].append((f"command.{label}", child["code"] == 0,
                              f"exit code {child['code']}"))
    for name, check in workload.checks(inp, out):
        try:
            ok, detail = check()
        except Exception as exc:  # a check that cannot run is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        result["ops"].append((name, bool(ok), detail))
    compute = sum(result["commands"].get(c, 0.0) for c in workload.compute_commands)
    result["items_per_s"] = workload.items(inp) / compute if compute else 0.0
    return result


def rounds_until(seconds: float, deadline: float, one_round) -> list:
    """Repeat whole rounds until `seconds` have passed (at least one round).

    A round is not started if it is expected to run past the deadline.
    """
    results, start, last = [], time.monotonic(), 0.0
    while not results or (time.monotonic() - start < seconds
                          and time.monotonic() + last < deadline):
        begun = time.monotonic()
        results.append(one_round(len(results)))
        last = time.monotonic() - begun
    return results


def setup_inputs(fl, workload, seed: int, work: Path) -> tuple[dict, float]:
    """Generate the inputs repeatedly; return the last set and the median time.

    Each repeat is scaled by the reference kernel timed on either side of it.
    """
    def one_setup(i: int) -> dict:
        if i:
            shutil.rmtree(work / f"inputs{i - 1}")
        target = work / f"inputs{i}"
        target.mkdir(parents=True)
        return workload.setup(fl, seed, target)

    inp, times = reference.timed_repeats(one_setup, SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
    return inp, statistics.median(times)


def count_ops(rounds: list, known_faults: frozenset) -> tuple[int, int, bool]:
    """Attempted and failed operations; print each distinct failed check once.

    The outputs are correct when every failed operation is a known fault.
    """
    failed = [op for r in rounds for op in r["ops"] if not op[1]]
    for name, _, detail in {op[0]: op for op in failed}.values():
        tag = "known fault" if name in known_faults else "FAILED"
        print(f"  {tag}: {name}: {detail}")
    correct = all(name in known_faults for name, _, _ in failed)
    return sum(len(r["ops"]) for r in rounds), len(failed), correct


def end_to_end(workload, rounds: list, setup_s: float) -> dict:
    values = {"setup_s": setup_s}
    for name, key in (("wall_s", "wall"), ("cpu_s", "cpu"), ("peak_rss_mb", "rss"),
                      ("items_per_s", "items_per_s")):
        values[name] = statistics.median(r[key] for r in rounds)
    # Command-level figures, printed for the commands this workload runs.
    print(f"{workload.name}: {len(rounds)} rounds; times scaled to the reference speed")
    for key in ("raw_wall", "raw_cpu"):
        print(f"  {key}_s {statistics.median(r[key] for r in rounds):.4f} s (as measured)")
    for label in CLI_COMMANDS:
        if label in rounds[0]["commands"]:
            print(f"  {label}_s {statistics.median(r['commands'][label] for r in rounds):.4f} s")
    print(f"  {workload.item_unit.replace('-', '_')}_per_s {values['items_per_s']:.2f}"
          f" {workload.item_unit}/s")
    for name, value in values.items():
        print(f"  {name} {value:.4f} {END_TO_END[name]}")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def import_time() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fleetlife.cli"], env=child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_calls(fl) -> list[tuple]:
    """(owner, attribute, span name[, count]) of every call a traced round wraps.

    cli.py binds the layer functions as its own module names, so patching
    them there routes the real command's calls through spans. The
    scenario loader and the aggregation are called from inside their
    modules, and the report methods are looked up on the class.
    """
    report = fl.simulate.SimulationReport
    return [
        (fl.cli, "parse_asset_csv", "fleet.parse_asset_csv", "fleet.records"),
        (fl.cli, "build_lifetime_table", "fleet.build_lifetime_table"),
        (fl.cli, "km_fit", "survival.km_fit"),
        (fl.cli, "fit_weibull_mle", "weibull.fit_weibull_mle"),
        (fl.cli, "fit_weibull_rank_regression", "weibull.fit_weibull_rank_regression"),
        (fl.cli, "score_asset", "health.score_asset"),
        (fl.scenarios, "load_scenario_file", "scenarios.load_scenario_file"),
        (fl.cli, "run_scenario", "simulate.run_scenario"),
        (fl.simulate, "aggregate_replications", "simulate.aggregate_replications"),
        (report, "to_json_dict", "simulate.to_json"),
        (report, "write_kpis_csv", "simulate.to_json"),
        (report, "from_json_dict", "simulate.from_json_dict"),
        (fl.cli, "compare_scenarios", "simulate.compare_scenarios"),
    ]


def per_layer(fl, workload, inp: dict, work: Path, seed: int, untraced: dict,
              seconds: float, deadline: float) -> dict:
    """Run the workload's real CLI commands in-process with layer spans."""
    tracers, counts = [], []

    def traced_round(i: int):
        tracer, out = Tracer(), work / f"traced{i}"
        with contextlib.ExitStack() as stack:
            for call in layer_calls(fl):
                stack.enter_context(tracer.patched(*call))
            for label, args in workload.commands(inp, out):
                with tracer.span(f"cli.{label}"), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        fl.cli.main(args, standalone_mode=False)
                    except SystemExit as exc:
                        raise RuntimeError(f"traced {label} exited {exc.code}") from None
        counts.append({**tracer.counts, **workload.counts(inp, out)})
        shutil.rmtree(out)
        tracers.append(tracer)

    rounds_until(seconds, deadline, traced_round)
    if any(c != counts[0] for c in counts):
        print(f"  note: per-layer counts differ between traced rounds: {counts}")
    span_metrics = [f"{name}_s" for name in LAYER_SPANS] + ["cli.self_s"]
    per_round = []
    for tracer in tracers:
        totals = dict.fromkeys(span_metrics, 0.0)
        for name, self_time in tracer.self_times().items():
            totals["cli.self_s" if name.startswith("cli.") else f"{name}_s"] += self_time
        per_round.append(totals)
    values: dict[str, float] = dict.fromkeys(LAYER_COUNTS, 0)
    values.update(counts[0])
    values.update({key: statistics.median(r[key] for r in per_round) for key in span_metrics})
    for label in CLI_COMMANDS:
        values[f"cli.{label}_s"] = untraced["raw_commands"].get(label, 0.0)
    values["cli.import_s"] = import_time()
    # The in-process round skips one interpreter start-up and import per
    # command, which the untraced round pays.
    traced_total = statistics.median(t.root_time() for t in tracers)
    starts = len(workload.commands(inp, work)) * values["cli.import_s"]
    values["trace.overhead_s"] = traced_total - (untraced["raw_wall"] - starts)
    print(f"{workload.name}: traced {len(tracers)} rounds in process, {traced_total:.4f} s each;"
          f" untraced CLI round {untraced['raw_wall']:.4f} s")
    metrics = {name: {"value": value, "unit": LAYER_COUNTS.get(name, "s")}
               for name, value in sorted(values.items())}
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    trace_path = RUNS / f"trace-{workload.name}-seed{seed}.json"
    tracers[0].write(trace_path, metrics)
    print(f"  spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "fleetlife" / "cli.py").is_file():
        print(f"error: no fleetlife sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fleetlife as fl
    import fleetlife.cli  # noqa: F401  (the traced run calls the CLI in-process)

    if Path(fl.__file__).resolve().parent != SRC / "fleetlife":
        print(f"error: imported fleetlife from {fl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = RUNS / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        inp, setup_s = setup_inputs(fl, workload, args.seed, work)

        def cli_round(i: int) -> dict:
            result = run_round(workload, inp, work / f"round{i}", deadline)
            shutil.rmtree(work / f"round{i}")
            return result

        if args.trace:
            rounds = [cli_round(0)]
            metrics = per_layer(fl, workload, inp, work, args.seed, rounds[0],
                                args.seconds, deadline)
        else:
            rounds = rounds_until(args.seconds, deadline, cli_round)
            metrics = end_to_end(workload, rounds, setup_s)
        attempted, failed, correct = count_ops(rounds, KNOWN_FAULTS)
        print(f"  operations: {attempted} attempted, {failed} failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
