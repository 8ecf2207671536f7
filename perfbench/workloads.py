"""The benchmark's workloads: input generator, program and job config.

The parent process (``run.py``) only generates inputs and checks
outputs; it never imports ``repro``.  The child process (``job.py``)
builds the program and config through :func:`make_job`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> (num_vertices, src, dst, weight) arrays.
    generate: Callable[[int], tuple]
    algorithm: str  # "pagerank" | "sssp" | "lpa"
    supersteps: Optional[int]


#: PageRank supersteps; the NumPy reference runs the same count.
PAGERANK_SUPERSTEPS = 20
#: LPA supersteps; the crash lands late, at CRASH_SUPERSTEP.
LPA_SUPERSTEPS = 10
CRASH_SUPERSTEP = 8
CRASH_WORKER = 2
DAMPING = 0.85

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pagerank-bpull",
            generate=lambda seed: gen.social(30_000, 10, seed),
            algorithm="pagerank",
            supersteps=PAGERANK_SUPERSTEPS,
        ),
        Workload(
            name="sssp-push-web",
            generate=lambda seed: gen.web(150, 20, 10, 5, seed),
            algorithm="sssp",
            supersteps=None,
        ),
        Workload(
            name="lpa-hybrid-recovery",
            generate=lambda seed: gen.social(12_000, 8, seed),
            algorithm="lpa",
            supersteps=LPA_SUPERSTEPS,
        ),
    )
}


def make_job(workload: Workload, checkpoint_dir: str):
    """``(program, JobConfig)`` for *workload*; imports ``repro``."""
    from repro import (
        LPA,
        SSSP,
        FaultPlan,
        FaultSchedule,
        JobConfig,
        PageRank,
    )

    if workload.algorithm == "pagerank":
        return (
            PageRank(damping=DAMPING, supersteps=workload.supersteps),
            JobConfig(mode="bpull", executor="vectorized", num_workers=5,
                      message_buffer_per_worker=2000),
        )
    if workload.algorithm == "sssp":
        return (
            SSSP(source=0),
            JobConfig(mode="push", num_workers=5,
                      message_buffer_per_worker=500),
        )
    # The corrupt fault spoils the newest snapshot (superstep 7) in the
    # same superstep as the crash, so recovery falls back to superstep 6
    # and re-executes superstep 7: the only way to lose completed work
    # while a snapshot is written after every superstep.
    faults = FaultSchedule(faults=(
        FaultPlan(worker=CRASH_WORKER, superstep=CRASH_SUPERSTEP),
        FaultPlan(worker=CRASH_WORKER, superstep=CRASH_SUPERSTEP,
                  kind="checkpoint_corrupt"),
    ))
    return (
        LPA(supersteps=workload.supersteps),
        JobConfig(mode="hybrid", num_workers=5,
                  message_buffer_per_worker=7000, checkpoint_interval=1,
                  checkpoint_dir=checkpoint_dir, fault=faults),
    )
