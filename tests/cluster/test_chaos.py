"""Chaos harness: multi-fault schedules must not change one byte.

The acceptance matrix for the resilience stack: a schedule that mixes a
straggler, two crashes, and a corrupted snapshot must leave final
values identical to the fault-free run and keep ``JobMetrics.to_dict()``
byte-identical across the batched/vectorized executors — the same
equivalence contract the fault-free suite enforces, now under fire.
Seeded probabilistic chaos sweeps extend the guarantee to schedules
nobody hand-picked.
"""

import json

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.cluster.fault import WorkerFailure
from repro.core.config import FaultPlan, FaultSchedule, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph


def _graph():
    return random_graph(120, 6, seed=21)


def _dump(result):
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


#: straggler, then a crash, then a second crash that lands together with a
#: corrupted snapshot — the corruption invalidates the checkpoint taken
#: at superstep 4, so the second recovery must fall back to superstep 2.
ACCEPTANCE_SCHEDULE = FaultSchedule(faults=(
    FaultPlan(worker=2, superstep=2, kind="straggler", factor=3.0),
    FaultPlan(worker=1, superstep=3, kind="crash"),
    FaultPlan(worker=0, superstep=5, kind="checkpoint_corrupt"),
    FaultPlan(worker=0, superstep=5, kind="crash"),
))


class TestAcceptanceMatrix:
    def _cfg(self, **kwargs):
        return JobConfig(
            mode="hybrid", num_workers=3, max_supersteps=8,
            message_buffer_per_worker=100, checkpoint_interval=2,
            **kwargs,
        )

    @pytest.mark.parametrize("executor", ["batched", "vectorized"])
    def test_three_fault_schedule(self, tmp_path, executor):
        clean = run_job(_graph(), PageRank(), self._cfg())
        chaotic = run_job(_graph(), PageRank(), self._cfg(
            executor=executor,
            fault=ACCEPTANCE_SCHEDULE, checkpoint_dir=str(tmp_path),
        ))
        assert chaotic.values == clean.values
        assert chaotic.metrics.restarts == 2
        assert [f["kind"] for f in chaotic.metrics.faults] == [
            "straggler", "crash", "checkpoint_corrupt", "crash",
        ]
        # first recovery restores the snapshot taken at superstep 2;
        # the corruption at superstep 5 invalidates the re-taken
        # snapshot at 4, forcing the second recovery back to 2 as well.
        assert [
            (r["policy"], r["resume_after"])
            for r in chaotic.metrics.recoveries
        ] == [("checkpoint", 2), ("checkpoint", 2)]

    def test_byte_identical_across_executors(self, tmp_path):
        dumps = []
        for executor in ("batched", "vectorized"):
            result = run_job(_graph(), PageRank(), self._cfg(
                executor=executor, fault=ACCEPTANCE_SCHEDULE,
                checkpoint_dir=str(tmp_path / executor),
            ))
            dumps.append(_dump(result))
        assert dumps[0] == dumps[1]

    def test_in_memory_log_matches_durable_store(self, tmp_path):
        durable = run_job(_graph(), PageRank(), self._cfg(
            fault=ACCEPTANCE_SCHEDULE, checkpoint_dir=str(tmp_path),
        ))
        in_memory = run_job(_graph(), PageRank(), self._cfg(
            fault=ACCEPTANCE_SCHEDULE,
        ))
        assert _dump(durable) == _dump(in_memory)


class TestSeededChaos:
    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_chaos_run_matches_clean(self, mode, seed):
        cfg = JobConfig(mode=mode, num_workers=4, max_supersteps=7,
                        message_buffer_per_worker=100,
                        checkpoint_interval=2)
        clean = run_job(_graph(), PageRank(), cfg)
        chaotic = run_job(_graph(), PageRank(), cfg.but(
            fault=FaultSchedule(
                chaos_probability=0.4, chaos_seed=seed,
                chaos_kinds=("crash", "straggler", "checkpoint_write"),
            ),
        ))
        assert chaotic.values == clean.values

    def test_same_seed_is_reproducible(self):
        cfg = JobConfig(mode="hybrid", num_workers=4, max_supersteps=7,
                        message_buffer_per_worker=100,
                        checkpoint_interval=2,
                        fault=FaultSchedule(
                            chaos_probability=0.5, chaos_seed=17,
                            chaos_kinds=("crash", "straggler"),
                        ))
        a = run_job(_graph(), PageRank(), cfg)
        b = run_job(_graph(), PageRank(), cfg)
        assert _dump(a) == _dump(b)
        assert a.metrics.faults  # p=0.5 over 7+ attempts must fire

    def test_chaos_faults_are_recorded_with_source(self):
        result = run_job(_graph(), PageRank(), JobConfig(
            mode="push", num_workers=4, max_supersteps=6,
            message_buffer_per_worker=100, checkpoint_interval=2,
            fault=FaultSchedule(chaos_probability=0.9, chaos_seed=2,
                                chaos_kinds=("straggler",)),
        ))
        assert result.metrics.faults
        assert all(f["source"] == "chaos" for f in result.metrics.faults)
        assert result.metrics.restarts == 0  # stragglers never abort


class TestRecoveryPolicy:
    def _cfg(self, **kwargs):
        return JobConfig(mode="push", num_workers=3, max_supersteps=6,
                         message_buffer_per_worker=100, **kwargs)

    def test_repeated_fault_consumes_repeat_budget(self):
        clean = run_job(_graph(), PageRank(), self._cfg())
        result = run_job(_graph(), PageRank(), self._cfg(
            fault=FaultPlan(worker=1, superstep=3, repeat=2),
            checkpoint_interval=2,
        ))
        assert result.metrics.restarts == 2
        assert result.values == clean.values

    def test_max_restarts_exhaustion_raises(self):
        with pytest.raises(WorkerFailure):
            run_job(_graph(), PageRank(), self._cfg(
                max_restarts=1,
                fault=FaultPlan(worker=1, superstep=3, repeat=3),
            ))

    def test_max_restarts_zero_fails_fast(self):
        with pytest.raises(WorkerFailure):
            run_job(_graph(), PageRank(), self._cfg(
                max_restarts=0,
                fault=FaultPlan(worker=1, superstep=2),
            ))

    def test_exponential_backoff_downtime(self):
        clean = run_job(_graph(), PageRank(), self._cfg())
        result = run_job(_graph(), PageRank(), self._cfg(
            restart_backoff_seconds=10.0,
            fault=FaultPlan(worker=1, superstep=3, repeat=2),
            checkpoint_interval=2,
        ))
        downtimes = [
            r["downtime_seconds"] for r in result.metrics.recoveries
        ]
        assert downtimes == [10.0, 20.0]
        assert result.metrics.recovery_seconds == 30.0
        assert result.metrics.runtime_seconds == pytest.approx(
            clean.metrics.runtime_seconds
            + 30.0
            + sum(r["rework_seconds"] for r in result.metrics.recoveries)
            + result.metrics.checkpoint_seconds,
        )

    def test_recovery_records_are_structured(self):
        result = run_job(_graph(), PageRank(), self._cfg(
            fault=FaultPlan(worker=1, superstep=4, kind="crash"),
            checkpoint_interval=2,
        ))
        (record,) = result.metrics.recoveries
        assert record["restart"] == 1
        assert record["superstep"] == 4
        assert record["worker"] == 1
        assert record["kind"] == "crash"
        assert record["policy"] == "checkpoint"
        assert record["resume_after"] == 2
        assert record["rework_supersteps"] == 1
        assert record["rework_seconds"] > 0.0
        assert record["downtime_seconds"] == 0.0

    def test_scratch_recovery_record(self):
        result = run_job(_graph(), PageRank(), self._cfg(
            fault=FaultPlan(worker=0, superstep=3),
        ))
        (record,) = result.metrics.recoveries
        assert record["policy"] == "scratch"
        assert record["resume_after"] == 0
        assert record["rework_supersteps"] == 2

    def test_straggler_stretches_elapsed_without_restart(self):
        clean = run_job(_graph(), PageRank(), self._cfg())
        result = run_job(_graph(), PageRank(), self._cfg(
            fault=FaultPlan(worker=1, superstep=2, kind="straggler",
                            factor=5.0),
        ))
        assert result.values == clean.values
        assert result.metrics.restarts == 0
        slow = result.metrics.supersteps[1]
        fast = clean.metrics.supersteps[1]
        assert slow.worker_seconds[1] == pytest.approx(
            fast.worker_seconds[1] * 5.0
        )
        assert slow.elapsed_seconds >= fast.elapsed_seconds

    def test_checkpoint_write_failure_pays_cost_keeps_nothing(self):
        result = run_job(_graph(), PageRank(), self._cfg(
            checkpoint_interval=2,
            fault=FaultPlan(worker=0, superstep=2,
                            kind="checkpoint_write"),
        ))
        # the failed snapshot is recorded with its (superstep, nbytes,
        # seconds), its modeled cost is charged, and no snapshot for
        # superstep 2 survives in the retained list.
        (entry,) = result.metrics.checkpoint_failures
        assert entry[0] == 2
        assert entry[2] > 0.0
        assert 2 not in [t for t, _b, _s in result.metrics.checkpoints]
        assert result.metrics.checkpoint_seconds == pytest.approx(
            sum(s for _t, _b, s in result.metrics.checkpoints) + entry[2]
        )

    def test_failed_snapshot_forces_scratch_recovery(self):
        result = run_job(_graph(), PageRank(), self._cfg(
            checkpoint_interval=2,
            fault=FaultSchedule(faults=(
                FaultPlan(worker=0, superstep=2,
                          kind="checkpoint_write"),
                FaultPlan(worker=1, superstep=3),
            )),
        ))
        # the only snapshot before the crash failed to write, so
        # recovery had nothing to restore and recomputed from scratch.
        assert result.metrics.recoveries[0]["policy"] == "scratch"

    def test_mttr_rollup_in_trace_summary(self):
        result = run_job(_graph(), PageRank(), self._cfg(
            trace=True, restart_backoff_seconds=5.0,
            fault=FaultPlan(worker=1, superstep=3, repeat=2),
            checkpoint_interval=2,
        ))
        summary = result.trace.summary()
        assert summary.recovery is not None
        assert summary.recovery["restarts"] == 2
        assert summary.recovery["faults"] == 2
        assert summary.recovery["downtime_seconds"] == pytest.approx(15.0)
        assert summary.recovery["mttr_seconds"] == pytest.approx(
            (15.0 + summary.recovery["rework_seconds"]) / 2
        )
        assert "MTTR" in summary.table()

    def test_sssp_hybrid_switch_with_faults(self):
        # the sparser 300-vertex graph makes the hybrid controller
        # switch transports mid-run (same shape the fault-free
        # parallel-equivalence suite relies on).
        graph = random_graph(300, 6, seed=42)
        cfg = JobConfig(mode="hybrid", num_workers=4,
                        message_buffer_per_worker=100)
        clean = run_job(graph, SSSP(source=0), cfg)
        result = run_job(graph, SSSP(source=0), cfg.but(
            fault=FaultSchedule(faults=(
                FaultPlan(worker=2, superstep=2, kind="straggler"),
                FaultPlan(worker=1, superstep=4),
            )),
            checkpoint_interval=3,
        ))
        assert result.values == clean.values
        assert any("->" in label for label in result.metrics.mode_trace)
