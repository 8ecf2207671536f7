"""Executor equivalence under recovery: a fault must not change one byte.

``tests/core/test_hotpath_equivalence.py`` holds the batched, reference
and vectorized executors to byte-identical ``JobMetrics.to_dict()``
dumps on fault-free runs.  Recovery re-enters the same per-worker
superstep code from a rewound state (a checkpoint restore or a restart
from scratch), and a straggler or a failed snapshot only touches the
modeled clock, so the contract must hold under every fault kind too.
Each cell runs one faulty job through all three executors, compares the
full dumps, and checks the values against the fault-free run.
"""

import json

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.core.config import FAULT_KINDS, FaultPlan, FaultSchedule, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph

EXECUTORS = ("batched", "reference", "vectorized")

PROGRAMS = {
    "pagerank": PageRank,
    "sssp": lambda: SSSP(source=0),
    "lpa": LPA,
    "wcc": WCC,
}


def _graph():
    return random_graph(300, 6, seed=42)


def _dump(result):
    # the fallback record names the requested executor, which
    # legitimately differs across the compared runs.
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


def run_all(program_factory, **cfg_kwargs):
    return [
        run_job(_graph(), program_factory(),
                JobConfig(executor=executor, **cfg_kwargs))
        for executor in EXECUTORS
    ]


def assert_identical(results, clean):
    expected = _dump(results[0])
    for other in results[1:]:
        assert _dump(other) == expected
    for result in results:
        assert result.values == clean.values


class TestCrashRecovery:
    """One crash at superstep 3, recovered from scratch or a snapshot."""

    POLICIES = {
        "scratch": dict(),
        "checkpoint": dict(checkpoint_interval=2),
    }

    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_metrics_identical(self, policy, program, mode):
        cfg = dict(mode=mode, num_workers=4, message_buffer_per_worker=100,
                   max_supersteps=6, **self.POLICIES[policy])
        clean = run_job(_graph(), PROGRAMS[program](), JobConfig(**cfg))
        results = run_all(
            PROGRAMS[program], fault=FaultPlan(worker=1, superstep=3), **cfg,
        )
        assert_identical(results, clean)
        for result in results:
            assert result.metrics.restarts == 1
            assert result.metrics.recoveries[0]["policy"] == policy


class TestEveryFaultKind:
    """Each fault kind alone, on each transport."""

    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_metrics_identical(self, kind, mode):
        cfg = dict(mode=mode, num_workers=4, message_buffer_per_worker=100,
                   max_supersteps=6, checkpoint_interval=2)
        clean = run_job(_graph(), PageRank(), JobConfig(**cfg))
        results = run_all(
            PageRank, fault=FaultPlan(worker=2, superstep=4, kind=kind),
            **cfg,
        )
        assert_identical(results, clean)
        for result in results:
            assert [f["kind"] for f in result.metrics.faults] == [kind]


class TestCrashNearSwitch:
    """SSSP to convergence: crashes around the hybrid switch point."""

    CFG = dict(mode="hybrid", num_workers=4, message_buffer_per_worker=100)

    @pytest.fixture(scope="class")
    def clean(self):
        result = run_job(_graph(), SSSP(source=0), JobConfig(**self.CFG))
        assert any("->" in label for label in result.metrics.mode_trace)
        return result

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("interval", [1, 3])
    def test_metrics_identical(self, clean, offset, interval):
        switch = next(
            index + 1 for index, label in enumerate(clean.metrics.mode_trace)
            if "->" in label
        )
        superstep = max(1, switch + offset)
        results = run_all(
            lambda: SSSP(source=0), **self.CFG,
            fault=FaultPlan(worker=1, superstep=superstep),
            checkpoint_interval=interval,
        )
        assert_identical(results, clean)
        for result in results:
            assert result.metrics.restarts == 1
            assert result.metrics.mode_trace == clean.metrics.mode_trace


class TestSeededChaos:
    """Probabilistic schedules nobody hand-picked, on each transport."""

    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_metrics_identical(self, mode, seed):
        cfg = dict(mode=mode, num_workers=4, message_buffer_per_worker=100,
                   max_supersteps=7, checkpoint_interval=2)
        clean = run_job(_graph(), PageRank(), JobConfig(**cfg))
        results = run_all(PageRank, **cfg, fault=FaultSchedule(
            chaos_probability=0.4, chaos_seed=seed,
            chaos_kinds=("crash", "straggler", "checkpoint_write"),
        ))
        assert_identical(results, clean)
        assert results[0].metrics.faults
