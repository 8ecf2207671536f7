"""Spans around calls into each layer's public functions.

The wrappers live here, not in the program: :class:`SpanRecorder`
replaces each named function or method with a timing wrapper for the
duration of one traced job, and a ``gc.callbacks`` hook records every
collection as a span of its own.  Spans are ``[name, start, end,
parent, note]`` rows kept in memory; :func:`layer_metrics` turns them
into per-layer self times.

A target that no longer exists (a later refactor renamed it) is not an
error: the metrics that need it are reported as missing.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: span name -> candidate ``module:attribute.path`` targets.  A span is
#: missing only when none of its candidates exists.
TARGETS: Dict[str, List[str]] = {
    "io.read": ["repro.datasets.io:read_edge_list"],
    "graph.build": ["repro.core.graph:Graph.__init__"],
    "graph.csr": ["repro.core.graph:Graph.csr"],
    "runtime.init": ["repro.core.runtime:Runtime.__init__"],
    "runtime.setup": ["repro.core.runtime:Runtime.setup"],
    "veblock.build": ["repro.storage.veblock:VEBlockStore.__init__"],
    "adjacency.build": ["repro.storage.adjacency:AdjacencyStore.__init__"],
    # the engine binds the superstep executors by name at import time
    "superstep": [
        "repro.core.engine:run_superstep",
        "repro.core.engine:run_superstep_vectorized",
    ],
    "switching.observe": ["repro.core.switching:HybridController.observe"],
    "checkpoint.take": ["repro.core.engine:take_checkpoint"],
    "checkpoint.restore": ["repro.core.engine:restore_checkpoint"],
    "store.save": ["repro.cluster.checkpoint_store:CheckpointStore.save"],
    "store.load": [
        "repro.cluster.checkpoint_store:CheckpointStore.load_latest"
    ],
}


def _superstep_arg(args, kwargs, _result):
    return kwargs.get("superstep", args[1] if len(args) > 1 else None)


def _saved_bytes(_args, _kwargs, result):
    return Path(result).stat().st_size


#: span name -> note(args, kwargs, result) stored with the span.
NOTES: Dict[str, Callable] = {
    "superstep": _superstep_arg,
    "store.save": _saved_bytes,
}


def _resolve(target: str):
    """``(owner, attribute)`` for a target, or None when it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class SpanRecorder:
    """Installs the wrappers and the GC hook; records spans in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: Dict[str, str] = {}
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        self._gc_open: Optional[int] = None

    def install(self) -> None:
        for name, targets in TARGETS.items():
            found = False
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr = resolved
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._installed.append((owner, attr, original))
                found = True
            if not found:
                self.missing[name] = " | ".join(targets)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        # allocating the row may start a collection, whose own span then
        # lands first: take the index only once the row is in
        row = [name, None, None, parent, None]
        self.spans.append(row)
        index = len(self.spans) - 1
        self._stack.append(index)
        row[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][4] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = self._open("gc")
        elif self._gc_open is not None:
            self._close(self._gc_open)
            self.spans[self._gc_open][4] = info.get("generation")
            self._gc_open = None

    def dump(self, path: Path) -> None:
        """Write the spans out as JSON, one row per span."""
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"missing": self.missing, "spans": self.spans}, handle)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _note in spans]
    for _name, start, end, parent, _note in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


#: per-layer metric -> the span it is computed from.
SOURCES: Dict[str, str] = {
    "io.read_s": "io.read",
    "graph.build_s": "graph.build",
    "graph.csr_s": "graph.csr",
    "runtime.init_s": "runtime.init",
    "runtime.setup_s": "runtime.setup",
    "veblock.build_s": "veblock.build",
    "adjacency.build_s": "adjacency.build",
    "superstep.s": "superstep",
    "superstep.count": "superstep",
    "superstep.max_s": "superstep",
    "switching.observe_s": "switching.observe",
    "checkpoint.take_s": "checkpoint.take",
    "checkpoint.restore_s": "checkpoint.restore",
    "checkpoint.count": "checkpoint.take",
    "store.save_s": "store.save",
    "store.load_s": "store.load",
    "store.bytes": "store.save",
    "recovery.rework_supersteps": "superstep",
    "recovery.rework_s": "superstep",
}


def layer_metrics(spans: List[list], missing: Dict[str, str],
                  job_start: float, job_end: float
                  ) -> Dict[str, Optional[float]]:
    """Per-layer figures from one traced job's spans.

    Seconds are self times.  A metric whose span is missing maps to
    None.  ``unattributed_s`` is the job time that no top-level span
    covers, so the self times of all spans plus ``unattributed_s`` add
    up to the traced job time.
    """
    own = self_times(spans)
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for (name, *_rest), seconds in zip(spans, own):
        total[name] = total.get(name, 0.0) + seconds
        count[name] = count.get(name, 0) + 1

    def of(name: str) -> list:
        return [s for s in spans if s[0] == name]

    steps = of("superstep")
    # a superstep number that runs again after a restore was discarded
    # the first time: that execution is rework.
    last_run = {span[4]: i for i, span in enumerate(steps)}
    rework = [s for i, s in enumerate(steps) if last_run[s[4]] != i]
    covered = sum(end - start for _n, start, end, parent, _note in spans
                  if parent < 0)
    out = {metric: total.get(span, 0.0) for metric, span in SOURCES.items()}
    out.update({
        "superstep.count": len(steps),
        "superstep.max_s": max((s[2] - s[1] for s in steps), default=0.0),
        "checkpoint.count": count.get("checkpoint.take", 0),
        "store.bytes": sum(s[4] for s in of("store.save")),
        "recovery.rework_supersteps": len(rework),
        "recovery.rework_s": sum(s[2] - s[1] for s in rework),
        "gc.s": total.get("gc", 0.0),
        "gc.collections": count.get("gc", 0),
        "unattributed_s": (job_end - job_start) - covered,
    })
    for metric, span in SOURCES.items():
        if span in missing:
            out[metric] = None
    return out
