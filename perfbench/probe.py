"""Samples how fast one CPU runs while a job runs on it.

Usage: ``python3 probe.py <cpu>``; prints ``ready``, then samples until
its standard input closes, then prints the samples as one JSON list of
``[end time, seconds]`` pairs (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and so comparable across processes).

The host's speed drifts by up to 2x, in spells that last from seconds to
minutes, and the two CPUs drift apart.  ``run.py`` pins this process to
the job's CPU, so every ``PERIOD_S`` the probe takes the CPU for about
0.3 ms (2% of the job's time) and sees the spells the job sees.  The
kernel is an interpreter loop that stays in the L1 cache.  Each sample
first runs a short untimed pass of the same loop, so that the job's use
of the caches between samples does not reach the timed pass: beside a
stand-in job that reads a 200 MB list at random, the timed pass took as
long as beside one that spins in L1.  A kernel that also read a large
list at random tracked memory-bound spells, but its random reads ran
10-17% slower beside the 200 MB job, so it would have read a change in the job's footprint as
a change in the host's speed.  The probe is a process of its own so that
its memory does not count in the job's peak RSS.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

PERIOD_S = 0.02
LOOP_STEPS = 4000
WARM_STEPS = 200


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    closed = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        closed.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    samples = []
    clock = time.perf_counter
    print("ready", flush=True)
    while not closed.is_set():
        x = 0
        for _ in itertools.repeat(None, WARM_STEPS):
            x = (x * 5 + 1) & 255
        start = clock()
        for _ in itertools.repeat(None, LOOP_STEPS):
            x = (x * 5 + 1) & 255
        end = clock()
        samples.append((end, end - start))
        closed.wait(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
