"""Wall-clock benchmark of whole ``run_job`` calls.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regenerate-modeled

For one workload it generates the input from ``--seed``, writes it as an
edge-list file, and runs the whole job (``read_edge_list`` then
``run_job``) again and again, each time in a fresh process beside the
speed probe (``probe.py``), for ``--seconds`` seconds.  Every job is
checked against outputs computed apart from the program, and the modeled clock (``JobMetrics.to_dict()``)
of a fixed-seed run is compared with ``modeled_ref.json``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the medians of the end-to-end metrics (``--trace 0``) or
of the per-layer metrics (``--trace 1``).

``--regenerate-modeled`` rewrites ``modeled_ref.json`` from the current
code; a change that corrects the cost model on purpose does this and
says so.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from check import check_job, expected_values  # noqa: E402
from spans import SOURCES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: seed of the input whose modeled clock modeled_ref.json records.
GUARD_SEED = 12345
MODELED_REF = HERE / "modeled_ref.json"
#: a run ends within this many seconds, whatever --seconds asks for.
DEADLINE_S = 170.0
#: timed jobs per run, at least, however short --seconds is.
MIN_ROUNDS = 3
#: seconds the kernel of probe.py takes when the reference host runs at
#: its usual speed.  Times are reported at that speed: each is scaled by
#: REF_PROBE_S over the probe's mean time in the same window.  See
#: README.md, "Noise on this host".
REF_PROBE_S = 0.00027
#: probe samples this far outside a window still count for it, so that
#: a window shorter than the probe's period still has a few.
PAD_S = 0.1

END_TO_END = {"job_s": "s", "setup_s": "s", "iterate_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "io.read_s": "s", "graph.build_s": "s", "graph.csr_s": "s",
    "runtime.init_s": "s", "runtime.setup_s": "s", "veblock.build_s": "s",
    "adjacency.build_s": "s", "superstep.s": "s", "superstep.count": "count",
    "superstep.max_s": "s", "switching.observe_s": "s",
    "checkpoint.take_s": "s", "checkpoint.restore_s": "s",
    "checkpoint.count": "count", "store.save_s": "s", "store.load_s": "s",
    "store.bytes": "bytes", "recovery.rework_supersteps": "count",
    "recovery.rework_s": "s", "gc.s": "s", "gc.collections": "count",
    "modeled.s": "s", "modeled.disk_bytes": "bytes",
    "modeled.net_bytes": "bytes", "modeled.spilled_messages": "count",
    "trace.overhead_s": "s", "unattributed_s": "s",
    "raw.job_s": "s", "probe.s": "s",
}


class JobFailed(Exception):
    """The child process exited without a report."""


def run_child(workload: str, edge_list: Path, out: Path, traced: bool,
              deadline: float):
    """Run one job in a fresh process, with the speed probe on its CPU.

    Returns ``(report, values)``; each of the report's times is scaled
    to the reference speed by the probe's mean over the time's window.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cpu = max(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(cpu)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as probe:
        try:
            probe.stdout.readline()  # "ready"
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), workload,
                 str(edge_list), str(out), "1" if traced else "0", str(cpu)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.monotonic()),
            )
        finally:
            try:
                samples = probe.communicate("", timeout=30)[0]
            except subprocess.TimeoutExpired:
                probe.kill()
                raise
    if proc.returncode != 0:
        raise JobFailed(proc.stderr.strip().splitlines()[-1:] or
                        [f"exit code {proc.returncode}"])
    with open(out / "result.json", encoding="ascii") as handle:
        report = json.load(handle)
    samples = json.loads(samples)
    report["probe_s"] = {}
    report["raw_s"] = {}
    for name, (start, end) in report["windows"].items():
        window = [s for t, s in samples
                  if start - PAD_S <= t <= end + PAD_S]
        if not window:
            raise JobFailed(f"no probe sample in the {name} window")
        report["probe_s"][name] = sum(window) / len(window)
        report["raw_s"][name] = report[name]
        report[name] *= REF_PROBE_S / report["probe_s"][name]
    return report, np.load(out / "values.npy")


def load_reference() -> dict:
    with open(MODELED_REF, encoding="ascii") as handle:
        return json.load(handle)


def guard(name: str, work: Path, deadline: float) -> str:
    """The modeled-clock digest of the fixed-seed input."""
    edge_list = work / "guard.txt"
    gen.write_edge_list(edge_list, WORKLOADS[name].generate(GUARD_SEED))
    report, _values = run_child(name, edge_list, work / "guard", False,
                                deadline)
    return report["digest"]


def regenerate(work: Path) -> int:
    reference = {}
    for name in WORKLOADS:
        digest = guard(name, work, time.monotonic() + DEADLINE_S)
        reference[name] = {"seed": GUARD_SEED, "sha256": digest}
        print(f"{name}: {digest}", file=sys.stderr)
    with open(MODELED_REF, "w", encoding="ascii") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def measure(args, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    graph = workload.generate(args.seed)
    edge_list = work / "input.txt"
    gen.write_edge_list(edge_list, graph)
    expected = expected_values(workload, graph)

    problems = []
    reference = load_reference().get(args.workload, {}).get("sha256")
    try:
        digest = guard(args.workload, work, deadline)
    except (JobFailed, subprocess.TimeoutExpired) as exc:
        digest = None
        problems.append(f"guard job failed: {exc}")
    if digest != reference:
        # every round relies on the cost model this guard checks, so a
        # mismatch fails all of them alike
        problems.append(f"modeled clock digest {digest} != {reference}")

    reports = {False: [], True: []}
    attempted = failed = 0
    digests = set()
    # one round: an untraced job, and with --trace 1 also a traced one
    kinds = (False, True) if args.trace else (False,)
    start = time.monotonic()
    # start a round only if it should end within --seconds, judging by
    # the rounds so far, so a run lasts about --seconds
    while attempted < MIN_ROUNDS or (
        (time.monotonic() - start) * (attempted + 1) / attempted
        <= args.seconds
    ):
        attempted += 1
        round_problems = list(problems)
        for traced in kinds:
            try:
                report, values = run_child(args.workload, edge_list,
                                           work / "job", traced, deadline)
            except (JobFailed, subprocess.TimeoutExpired) as exc:
                round_problems.append(f"job failed: {exc}")
                continue
            reports[traced].append(report)
            digests.add(report["digest"])
            print(f"round {attempted}{' traced' if traced else ''}: "
                  + " ".join(f"{k}={report[k]:.4f}" for k in END_TO_END)
                  + f" raw_job_s={report['raw_s']['job_s']:.4f}"
                  + f" probe_s={report['probe_s']['job_s']:.6f}",
                  file=sys.stderr)
            round_problems += check_job(workload, report, values, expected)
        if len(digests) > 1:
            round_problems.append("modeled clock differs between runs")
        if round_problems:
            failed += 1
            print(f"round {attempted}: " + "; ".join(round_problems),
                  file=sys.stderr)
        if time.monotonic() > deadline:
            break

    plain = reports[False]
    if not plain or (args.trace and not reports[True]):
        raise JobFailed("no job finished")
    if args.trace:
        spans = work / "job" / "spans.json"
        if spans.exists():  # the last round's traced job finished
            shutil.copyfile(spans, work.parent / f"spans-{args.workload}.json")
        metrics = per_layer(plain, reports[True])
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain),
                   "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(plain, traced) -> dict:
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in ("raw.job_s", "probe.s"):
            # the untraced jobs' unscaled time and the probe's mean beside
            # them, so that the scaling can be checked afterwards
            key = "raw_s" if name == "raw.job_s" else "probe_s"
            value = statistics.median(r[key]["job_s"] for r in plain)
        elif name == "trace.overhead_s":
            value = (statistics.median(r["job_s"] for r in traced)
                     - statistics.median(r["job_s"] for r in plain))
        elif name.startswith("modeled."):
            value = traced[0]["modeled"][name]
        else:
            values = [r["layers"][name] for r in traced]
            if unit == "s" and None not in values:
                values = [v * REF_PROBE_S / r["probe_s"]["job_s"]
                          for v, r in zip(values, traced)]
            value = None if None in values else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["missing"] = (
                "not found: " + traced[0]["missing"][SOURCES[name]])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-modeled", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if not args.regenerate_modeled and args.workload is None:
        parser.error("--workload is required")
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.regenerate_modeled:
            return regenerate(work)
        try:
            result = measure(args, work)
        except (JobFailed, OSError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
