"""Per-superstep and per-job metrics.

These are the quantities the paper reports in its figures: runtime
(Figs. 7–9, 15, 25), I/O bytes by class (Figs. 10, 14b, 24), network
traffic and message counts (Figs. 14c, 18, 26), memory usage (Figs. 14d,
23), blocking time (Fig. 17), plus the raw inputs of the switching metric
``Q_t`` (Eq. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.disk import IOCounters

__all__ = ["SuperstepMetrics", "LoadMetrics", "JobMetrics"]


@dataclass
class SuperstepMetrics:
    """Everything measured during one superstep (cluster-wide sums,

    except ``worker_seconds``/``elapsed_seconds`` which respect the BSP
    barrier: the superstep lasts as long as its slowest worker).
    """

    superstep: int
    mode: str

    # --- disk -----------------------------------------------------------
    io: IOCounters = field(default_factory=IOCounters)
    #: message bytes spilled by the push family this superstep (written).
    io_message_spill: int = 0
    #: spilled message bytes read back by load() this superstep.
    io_message_read: int = 0
    #: adjacency-edge bytes read while pushing (IO(E_t)).
    io_edges_push: int = 0
    #: Eblock edge bytes read while pulling (IO(Ē_t)).
    io_edges_bpull: int = 0
    #: fragment auxiliary-data bytes read (IO(F_t)).
    io_fragments: int = 0
    #: source-vertex value bytes randomly read by Pull-Respond (IO(V_rr)).
    io_vrr: int = 0
    #: vertex record bytes read+written by update() (IO(V_t)).
    io_vertex: int = 0

    # --- network ---------------------------------------------------------
    net_bytes: int = 0
    net_transfer_units: int = 0  # messages actually shipped (after concat/combine)
    raw_messages: int = 0        # messages produced (M)
    mco: int = 0                 # messages saved by concat/combine (M - groups)
    pull_requests: int = 0
    net_packages: int = 0

    # --- counts ----------------------------------------------------------
    updated_vertices: int = 0
    responding_vertices: int = 0
    spilled_messages: int = 0
    lru_misses: int = 0
    edges_scanned: int = 0

    #: cluster-wide aggregator totals produced this superstep.
    aggregates: Dict[str, float] = field(default_factory=dict)

    # --- memory / time ---------------------------------------------------
    memory_bytes: int = 0        # peak buffered bytes + metadata
    cpu_seconds: float = 0.0
    #: modeled wall seconds per worker (io + net + cpu), before the barrier.
    worker_seconds: Dict[int, float] = field(default_factory=dict)
    #: modeled superstep duration: max over workers (BSP barrier).
    elapsed_seconds: float = 0.0
    #: modeled time spent exchanging messages (Fig. 17 "blocking time").
    blocking_seconds: float = 0.0

    @property
    def spill_fraction(self) -> float:
        """Fraction of produced messages that hit disk (Fig. 2's y2-axis)."""
        if self.raw_messages == 0:
            return 0.0
        return self.spilled_messages / self.raw_messages


@dataclass
class LoadMetrics:
    """Cost of the graph loading phase (Fig. 16)."""

    structures: str = ""
    io: IOCounters = field(default_factory=IOCounters)
    cpu_seconds: float = 0.0
    elapsed_seconds: float = 0.0


@dataclass
class JobMetrics:
    """Aggregated results of one job run."""

    mode: str
    graph_name: str
    program_name: str
    num_workers: int
    load: LoadMetrics = field(default_factory=LoadMetrics)
    supersteps: List[SuperstepMetrics] = field(default_factory=list)
    restarts: int = 0
    #: (modeled seconds, cluster net bytes in flight) samples (Fig. 18).
    traffic_timeline: List[tuple] = field(default_factory=list)
    #: per-superstep mode actually run (hybrid traces, Fig. 14).
    mode_trace: List[str] = field(default_factory=list)
    #: per-superstep Q_t values computed by the switcher (Fig. 14a).
    q_trace: List[Optional[float]] = field(default_factory=list)
    #: (superstep, bytes, modeled seconds) per checkpoint taken.
    checkpoints: List[tuple] = field(default_factory=list)
    #: (superstep, bytes, modeled seconds) per *failed* checkpoint
    #: attempt (``checkpoint_write`` faults): the write cost was paid
    #: but no snapshot was retained.
    checkpoint_failures: List[tuple] = field(default_factory=list)
    #: superstep the last recovery resumed after (None: no recovery or
    #: recompute-from-scratch).
    recovered_from: Optional[int] = None
    #: restart budget the recovery engine ran with
    #: (``JobConfig.max_restarts``).
    max_restarts: int = 3
    #: every fault the injector fired, in firing order — job-level
    #: history, never trimmed by recovery rewinds:
    #: ``{"superstep", "worker", "kind", "source", "factor"}``.
    faults: List[Dict] = field(default_factory=list)
    #: one record per restart the recovery engine performed:
    #: ``{"restart", "superstep", "worker", "kind", "policy",
    #: "resume_after", "rework_supersteps", "rework_seconds",
    #: "downtime_seconds"}``.  ``policy`` is "checkpoint" or "scratch";
    #: ``rework_*`` is the completed work discarded by the failure;
    #: ``downtime_seconds`` the modeled backoff charged before the
    #: restart.
    recoveries: List[Dict] = field(default_factory=list)
    #: superstep a ``resume_from`` run continued after (None: fresh run).
    resumed_from: Optional[int] = None
    #: supersteps actually executed, including work discarded by
    #: failures — compare with num_supersteps to see recovery waste.
    executed_supersteps: int = 0
    #: set only when the runtime downgraded the requested executor tier:
    #: ``{"requested_executor", "active_executor", "reason"}``.  None
    #: on a non-degraded run — and then absent from :meth:`to_dict`, so
    #: runs that differ only in the *requested* tier stay byte-identical
    #: (the cross-executor equivalence contract).
    fallback: Optional[Dict] = None

    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def compute_seconds(self) -> float:
        """Modeled iterative-computation time (excludes loading)."""
        return sum(s.elapsed_seconds for s in self.supersteps)

    @property
    def checkpoint_seconds(self) -> float:
        """Modeled snapshot-write time, including failed attempts."""
        return (sum(seconds for _t, _b, seconds in self.checkpoints)
                + sum(seconds for _t, _b, seconds in self.checkpoint_failures))

    @property
    def recovery_seconds(self) -> float:
        """Modeled restart downtime (exponential backoff), all restarts."""
        return sum(r["downtime_seconds"] for r in self.recoveries)

    @property
    def runtime_seconds(self) -> float:
        """Modeled job runtime: loading + supersteps + checkpoints +
        restart downtime."""
        return (self.load.elapsed_seconds + self.compute_seconds
                + self.checkpoint_seconds + self.recovery_seconds)

    @property
    def total_io(self) -> IOCounters:
        total = self.load.io.copy()
        for step in self.supersteps:
            total.add(step.io)
        return total

    @property
    def compute_io_bytes(self) -> int:
        """Total I/O bytes during iterations (Fig. 10 excludes loading)."""
        return sum(s.io.total for s in self.supersteps)

    @property
    def total_net_bytes(self) -> int:
        return sum(s.net_bytes for s in self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(s.raw_messages for s in self.supersteps)

    @property
    def peak_memory_bytes(self) -> int:
        return max((s.memory_bytes for s in self.supersteps), default=0)

    def mean_superstep_seconds(self) -> float:
        if not self.supersteps:
            return 0.0
        return self.compute_seconds / len(self.supersteps)

    def to_dict(self) -> Dict:
        """Full machine-readable dump (for saving experiment runs).

        The result is JSON-pure (string keys, lists, no tuples) so that
        ``json.loads(m.to_json()) == m.to_dict()`` holds exactly — the
        round-trip test and the executor-equivalence guard depend on it.
        """
        out = {
            "mode": self.mode,
            "graph": self.graph_name,
            "program": self.program_name,
            "num_workers": self.num_workers,
            "restarts": self.restarts,
            "max_restarts": self.max_restarts,
            "recovered_from": self.recovered_from,
            "resumed_from": self.resumed_from,
            "executed_supersteps": self.executed_supersteps,
            "faults": [dict(f) for f in self.faults],
            "recoveries": [dict(r) for r in self.recoveries],
            "load": {
                "structures": self.load.structures,
                "elapsed_seconds": self.load.elapsed_seconds,
                "write_bytes": self.load.io.write,
            },
            "checkpoints": [list(c) for c in self.checkpoints],
            "checkpoint_failures": [
                list(c) for c in self.checkpoint_failures
            ],
            "mode_trace": list(self.mode_trace),
            "q_trace": list(self.q_trace),
            "traffic_timeline": [list(t) for t in self.traffic_timeline],
            "supersteps": [
                {
                    "superstep": s.superstep,
                    "mode": s.mode,
                    "elapsed_seconds": s.elapsed_seconds,
                    "io_bytes": s.io.total,
                    "io_random_read": s.io.random_read,
                    "io_random_write": s.io.random_write,
                    "io_seq_read": s.io.seq_read,
                    "io_seq_write": s.io.seq_write,
                    "io_message_spill": s.io_message_spill,
                    "io_message_read": s.io_message_read,
                    "io_edges_push": s.io_edges_push,
                    "io_edges_bpull": s.io_edges_bpull,
                    "io_fragments": s.io_fragments,
                    "io_vrr": s.io_vrr,
                    "io_vertex": s.io_vertex,
                    "net_bytes": s.net_bytes,
                    "net_transfer_units": s.net_transfer_units,
                    "raw_messages": s.raw_messages,
                    "mco": s.mco,
                    "pull_requests": s.pull_requests,
                    "net_packages": s.net_packages,
                    "spilled_messages": s.spilled_messages,
                    "lru_misses": s.lru_misses,
                    "edges_scanned": s.edges_scanned,
                    "updated_vertices": s.updated_vertices,
                    "responding_vertices": s.responding_vertices,
                    "memory_bytes": s.memory_bytes,
                    "cpu_seconds": s.cpu_seconds,
                    "blocking_seconds": s.blocking_seconds,
                    "worker_seconds": {
                        str(w): t for w, t in s.worker_seconds.items()
                    },
                    "aggregates": dict(s.aggregates),
                }
                for s in self.supersteps
            ],
        }
        if self.fallback is not None:
            out["fallback"] = dict(self.fallback)
        return out

    def to_json(self, **dumps_kwargs) -> str:
        """``to_dict`` serialised with :func:`json.dumps`."""
        import json

        return json.dumps(self.to_dict(), **dumps_kwargs)

    def summary(self) -> Dict[str, float]:
        """Compact dict used by the benchmark reporters."""
        return {
            "mode": self.mode,
            "graph": self.graph_name,
            "program": self.program_name,
            "supersteps": self.num_supersteps,
            "runtime_s": round(self.runtime_seconds, 6),
            "compute_s": round(self.compute_seconds, 6),
            "load_s": round(self.load.elapsed_seconds, 6),
            "io_bytes": self.compute_io_bytes,
            "net_bytes": self.total_net_bytes,
            "messages": self.total_messages,
            "peak_memory": self.peak_memory_bytes,
            "restarts": self.restarts,
            "faults": len(self.faults),
        }
