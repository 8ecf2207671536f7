"""Expected outputs, computed apart from the program under test.

Each reference works from the generated arrays, never from ``repro``,
and :func:`check_job` compares one job's report and values with it.
Every string :func:`check_job` returns is one failed check.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from workloads import CRASH_SUPERSTEP, DAMPING, Workload

#: PageRank sums the same terms in another order than the program, so
#: it may differ in the last bits; 1e-9 is far above float64 rounding
#: over a 20-step power iteration and far below any real error.
PAGERANK_RTOL = 1e-9


def pagerank(graph, supersteps: int) -> np.ndarray:
    """Power iteration: superstep 1 sets every vertex to 1/n; afterwards
    ``(1-d)/n + d * sum(rank[u] / outdeg[u])`` over in-edges ``u -> v``.
    Dangling vertices send nothing."""
    n, src, dst, _weight = graph
    out_degree = np.bincount(src, minlength=n)
    rank = np.full(n, 1.0 / n)
    for _ in range(supersteps - 1):
        acc = np.bincount(dst, weights=rank[src] / out_degree[src],
                          minlength=n)
        rank = (1.0 - DAMPING) / n + DAMPING * acc
    return rank


def dijkstra(graph, source: int = 0) -> np.ndarray:
    """``heapq`` Dijkstra; unreachable vertices stay at infinity."""
    n, src, dst, weight = graph
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    targets = dst[order].tolist()
    weights = weight[order].tolist()
    bounds = indptr.tolist()
    dist = [float("inf")] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for i in range(bounds[u], bounds[u + 1]):
            v = targets[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.asarray(dist)


def label_propagation(graph, supersteps: int) -> np.ndarray:
    """Synchronous majority vote over in-edges, once per superstep after
    the first (superstep 1 has no messages yet).  Each in-edge is one
    vote; ties go to the smaller label; a vertex without in-edges keeps
    its label."""
    n, src, dst, _weight = graph
    labels = np.arange(n, dtype=np.int64)
    has_in = np.bincount(dst, minlength=n) > 0
    for _ in range(supersteps - 1):
        votes = labels[src]
        # sort votes by (vertex, label) and count each run
        order = np.lexsort((votes, dst))
        v_sorted, l_sorted = dst[order], votes[order]
        run_start = np.ones(len(order), dtype=bool)
        run_start[1:] = (v_sorted[1:] != v_sorted[:-1]) | (
            l_sorted[1:] != l_sorted[:-1]
        )
        starts = np.flatnonzero(run_start)
        run_vertex = v_sorted[starts]
        run_label = l_sorted[starts]
        run_count = np.diff(np.append(starts, len(order)))
        # most votes first, then the smaller label: the first run of
        # each vertex in this order is its winner
        best = np.lexsort((run_label, -run_count, run_vertex))
        first = np.ones(len(best), dtype=bool)
        first[1:] = run_vertex[best][1:] != run_vertex[best][:-1]
        winners = best[first]
        new = labels.copy()
        new[run_vertex[winners]] = run_label[winners]
        labels = np.where(has_in, new, labels)
    return labels.astype(np.float64)


def expected_values(workload: Workload, graph) -> np.ndarray:
    if workload.algorithm == "pagerank":
        return pagerank(graph, workload.supersteps)
    if workload.algorithm == "sssp":
        return dijkstra(graph)
    return label_propagation(graph, workload.supersteps)


def _transports(mode_trace: List[str]) -> set:
    return {part for label in mode_trace for part in label.split("->")}


def check_job(workload: Workload, report: dict, values: np.ndarray,
              expected: np.ndarray) -> List[str]:
    """Failed checks of one job; empty when every check passes."""
    failed = []
    if values.shape != expected.shape:
        return [f"values: {values.shape} vs expected {expected.shape}"]
    if workload.algorithm == "pagerank":
        if not np.allclose(values, expected, rtol=PAGERANK_RTOL, atol=0.0):
            worst = np.max(np.abs(values - expected) / expected)
            failed.append(f"pagerank values off by {worst:.3g} relative")
        if report["active_executor"] != "vectorized":
            failed.append(
                f"ran on {report['active_executor']}, not vectorized"
            )
        if any(report["spill_bytes"]):
            failed.append("b-pull spilled message bytes")
    elif workload.algorithm == "sssp":
        if not np.array_equal(values, expected):
            wrong = int(np.sum(values != expected))
            failed.append(f"{wrong} distances differ from Dijkstra")
        if not any(report["spill_bytes"]):
            failed.append("push never spilled a message")
    else:
        if not np.array_equal(values, expected):
            wrong = int(np.sum(values != expected))
            failed.append(f"{wrong} labels differ from the reference")
        recoveries = report["recoveries"]
        if report["restarts"] != 1 or len(recoveries) != 1:
            failed.append(f"restarted {report['restarts']} times, not once")
        else:
            recovery = recoveries[0]
            if recovery["superstep"] != CRASH_SUPERSTEP:
                failed.append(f"crash at superstep {recovery['superstep']}")
            if recovery["policy"] != "checkpoint":
                failed.append(f"recovery policy {recovery['policy']}")
            if recovery["resume_after"] < 1:
                failed.append("recovery did not resume from a snapshot")
            if recovery["rework_supersteps"] < 1:
                failed.append("recovery re-executed no superstep")
        layers = report.get("layers")
        if layers and layers["recovery.rework_supersteps"] != sum(
            r["rework_supersteps"] for r in recoveries
        ):
            failed.append("traced rework disagrees with JobMetrics")
        if not report["snapshots"]:
            failed.append("no durable snapshot written")
        if not {"push", "bpull"} <= _transports(report["mode_trace"]):
            failed.append(f"mode trace {report['mode_trace']} lacks a "
                          "transport")
    return failed
