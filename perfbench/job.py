"""Run one job in a fresh process and report what it measured.

Usage: ``python3 job.py <workload> <edge-list> <out-dir> <trace 0|1> <cpu>``

The parent (``run.py``) starts this once per repetition, so no timing
depends on what ran earlier in the same process: the heap, and with it
the cost of cyclic GC, starts the same every time.  Everything is
imported before the clock starts.  The job goes through the public API,
``read_edge_list`` then ``run_job``; the checkpoint directory is
``<out-dir>/checkpoints``.  The process pins itself to ``<cpu>``, where
``probe.py`` samples the CPU's speed meanwhile.  Writes
``<out-dir>/result.json`` and ``<out-dir>/values.npy``, plus
``<out-dir>/spans.json`` when traced.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401
import repro.cluster.checkpoint_store  # noqa: E402,F401
import repro.core.engine  # noqa: E402,F401
import repro.core.modes.vectorized  # noqa: E402,F401
import repro.datasets.io  # noqa: E402
from repro.core.runtime import Runtime  # noqa: E402

from spans import SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_job  # noqa: E402


def modeled_digest(metrics) -> str:
    """SHA-256 of ``JobMetrics.to_dict()`` in canonical JSON."""
    blob = json.dumps(metrics.to_dict(), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def main(argv) -> int:
    workload = WORKLOADS[argv[1]]
    edge_list, out = Path(argv[2]), Path(argv[3])
    traced = argv[4] == "1"
    program, config = make_job(workload, str(out / "checkpoints"))
    os.sched_setaffinity(0, {int(argv[5])})

    recorder = SpanRecorder() if traced else None
    setup_end = []
    original_setup = Runtime.setup

    def marked_setup(self):
        original_setup(self)
        setup_end.append(time.perf_counter())

    # The untraced run's only hook: one clock read when setup returns,
    # marking the boundary between setup_s and iterate_s.
    Runtime.setup = marked_setup
    if recorder is not None:
        recorder.install()

    start = time.perf_counter()
    graph = repro.datasets.io.read_edge_list(edge_list, name=workload.name)
    result = repro.run_job(graph, program, config)
    end = time.perf_counter()

    if recorder is not None:
        recorder.uninstall()
    Runtime.setup = original_setup
    metrics = result.metrics
    mid = setup_end[0]
    report = {
        "job_s": end - start,
        "setup_s": mid - start,
        "iterate_s": end - mid,
        # the windows of the three times, on the clock probe.py uses
        "windows": {
            "job_s": [start, end],
            "setup_s": [start, mid],
            "iterate_s": [mid, end],
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": modeled_digest(metrics),
        "active_executor": result.runtime.active_executor,
        "spill_bytes": [s.io_message_spill for s in metrics.supersteps],
        "mode_trace": list(metrics.mode_trace),
        "restarts": metrics.restarts,
        "recoveries": [dict(r) for r in metrics.recoveries],
        "snapshots": sorted(
            p.name for p in (out / "checkpoints").glob("*")
        ),
        "modeled": {
            "modeled.s": metrics.runtime_seconds,
            "modeled.disk_bytes": metrics.total_io.total,
            "modeled.net_bytes": metrics.total_net_bytes,
            "modeled.spilled_messages": sum(
                s.spilled_messages for s in metrics.supersteps
            ),
        },
    }
    if recorder is not None:
        recorder.dump(out / "spans.json")
        report["layers"] = layer_metrics(
            recorder.spans, recorder.missing, start, end
        )
        report["missing"] = recorder.missing
    np.save(out / "values.npy", np.asarray(result.values, dtype=np.float64))
    with open(out / "result.json", "w", encoding="ascii") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
