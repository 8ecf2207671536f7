"""Steadiness check: run every workload repeatedly, report each spread.

Usage: ``python3 perfbench/steady.py``

For each workload in BENCHMARK.json it makes two sets of ``RUNS`` runs
of ``run.py --trace 0``, alternating between the sets run by run, set 1
on seeds 1-10 and set 2 on seeds 11-20.  For every end-to-end metric it
prints each set's median and quartiles, the spread (interquartile range
over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) against the metric's bound in BENCHMARK.json, and how far set
2's median moved from set 1's.  Exits 1 when a spread or a move is over
its bound, or when any run has a failed round.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True, timeout=900,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(metric: str, label: str, values: list, bound: float) -> tuple:
    """Print one set's quartiles; return its median and whether it is ok."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    verdict = "ok" if spread <= bound else "OVER BOUND"
    print(f"  {metric:12s} {label}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"spread {spread:.3f} (bound {bound}, a third {bound / 3:.3f}) "
          f"{verdict}")
    return q2, spread <= bound


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        set1, set2 = [], []
        for i in range(RUNS):
            for label, runs, seed in (("set 1", set1, 1 + i),
                                      ("set 2", set2, 1 + RUNS + i)):
                result = one_run(workload, seed, spec["run_seconds"])
                runs.append(result)
                print(f"{workload} {label} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4f}"
                                 for m, v in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}"
                      f" correct={result['correct']}",
                      file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in set1 + set2}
        print(f"{workload}: failed share {sorted(shares)}")
        ok &= shares == {0.0} and all(r["correct"] for r in set1 + set2)
        for metric, bound in bounds.items():
            median1, ok1 = report(
                metric, "set 1",
                [r["metrics"][metric]["value"] for r in set1], bound)
            median2, ok2 = report(
                metric, "set 2",
                [r["metrics"][metric]["value"] for r in set2], bound)
            moved = median2 / median1 - 1.0
            ok &= ok1 and ok2 and abs(moved) <= bound
            verdict = "ok" if abs(moved) <= bound else "OVER BOUND"
            print(f"  {metric:12s} median moved {moved:+.3f} "
                  f"(bound {bound}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
