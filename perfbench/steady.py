"""Steadiness check: two independent sets of runs of the same code.

    python3 perfbench/steady.py --runs 10 [--workloads estimate ...] [--seconds N]

Runs every workload ``--runs`` times per set, each run with its own seed
(set A seeds 1..n, set B seeds 1001..1000+n), one run at a time, set A
first. For each workload and end-to-end metric it prints both medians, the
quartile spread of each set (distance between the first and third
quartile, as a share of the median), that of both sets pooled, and whether
the two sets agree: every spread within the metric's bound, the two medians
apart by no more than the bound (as a share of set A's median, in either
direction), and the same share of failed operations in both sets. Raw
results go to .perfbench_runs/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    results: dict = {}
    for workload in args.workloads:
        for label, base in (("A", 1), ("B", 1001)):
            runs = []
            for seed in range(base, base + args.runs):
                start = time.monotonic()
                runs.append(run_once(workload, seed, args.seconds))
                print(f"{workload} set {label} seed {seed}: "
                      f"wall_s {runs[-1]['metrics']['wall_s']['value']:.3f} "
                      f"(run took {time.monotonic() - start:.0f} s)", flush=True)
            results.setdefault(workload, {})[label] = runs
    out = ROOT / ".perfbench_runs" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    all_ok = True
    print(f"{'workload':18} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'pooled':>9} {'bound':>6}  agree")
    for workload, sets in results.items():
        shares = {label: {Fraction(r["failed"], r["attempted"]) for r in runs}
                  for label, runs in sets.items()}
        same_failures = len(shares["A"] | shares["B"]) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            sa, sb = spread(a), spread(b)
            moved = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a)
            ok = (moved <= bound and sa <= bound and sb <= bound and same_failures
                  and all(r["correct"] for r in sets["A"] + sets["B"]))
            all_ok &= ok
            print(f"{workload:18} {name:14} {statistics.median(a):12.4f} "
                  f"{statistics.median(b):12.4f} {sa:9.4f} {sb:9.4f} {spread(a + b):9.4f} "
                  f"{bound:6.2f}  "
                  f"{'yes' if ok else 'NO'}")
        print(f"{workload:18} failed share A {sorted(map(str, shares['A']))} "
              f"B {sorted(map(str, shares['B']))}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
