"""NumPy-vectorized superstep executor (the third executor tier).

Same modeled costs as :mod:`repro.core.modes.common` (batched) and
:mod:`repro.core.modes.reference` (oracle), computed from dense kernels
over a CSR view of the graph instead of per-vertex Python loops:

* frontier selection reads the :class:`~repro.core.flags.FlagBitset`
  bytes as a bool array;
* push fan-out slices the CSR row ranges of responding vertices and
  routes by one ``owner_of`` take;
* ``sum``/``min`` message combining folds with ``np.bincount`` /
  ``np.minimum.at`` — **sequential** C folds that reproduce Python's
  left-fold ``sum``/``min`` bit-for-bit (``np.sum``'s pairwise
  summation would not, and must never be used for value-affecting
  totals here);
* the program's update/message rules run as dense array expressions via
  the optional :class:`~repro.core.api.VectorizedRules` interface.

The equivalence contract is strict: ``JobMetrics.to_dict()`` must be
byte-identical to the other executors for every (input, output)
mechanism combination, including hybrid's switch supersteps.  Where the
batched executor's float accumulation order is observable (aggregator
folds, per-pair b-pull combines followed by a per-vertex fold over pair
results, the network's per-flow timing accumulation), this module
reproduces the exact same fold structure rather than a mathematically
equal one.

NumPy is optional: :func:`fallback_reason` reports why a job cannot run
vectorized (no NumPy, non-combinable program, no dense rules, …) and the
:class:`~repro.core.runtime.Runtime` transparently downgrades to the
batched executor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

try:  # NumPy is an optional dependency of this tier only.
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via np=None in tests
    _numpy = None

#: module-global NumPy handle; tests monkeypatch this to None to drive
#: the NumPy-less fallback path on hosts that do have NumPy.
np = _numpy

from repro.core.api import VertexProgram
from repro.core.metrics import SuperstepMetrics
from repro.core.modes.common import finalize_superstep_metrics
from repro.storage.messages import LoadResult

__all__ = [
    "fallback_reason",
    "run_superstep_vectorized",
    "VectorizedMessageStore",
    "compute_worker_update",
    "apply_update_shard",
    "triple_contribution",
]

#: dense combines the executor knows how to fold.
_DENSE_COMBINES = ("sum", "min")


def fallback_reason(program, config) -> Optional[str]:
    """Why this job cannot run vectorized, or None when it can.

    The decision is made once per job (job shape and program class do
    not change mid-run); a non-None reason downgrades the runtime's
    ``active_executor`` to ``"batched"``.
    """
    if np is None:
        return "NumPy is not installed"
    if config.mode not in ("push", "bpull", "hybrid"):
        return f"mode {config.mode!r} has no vectorized path"
    if config.asynchronous:
        return "asynchronous iteration is scalar-only"
    if config.sender_combine:
        return "sender_combine (pushM+com) is scalar-only"
    if config.receiver_combine:
        return "receiver_combine is scalar-only"
    if not program.combinable:
        return f"{program.name} is not combinable"
    if config.mode in ("bpull", "hybrid") and not config.bpull_combine:
        return "b-pull without combining is scalar-only"
    rules = program.vectorized()
    if rules is None:
        return f"{program.name} provides no vectorized rules"
    if rules.combine not in _DENSE_COMBINES:
        return f"unsupported dense combine {rules.combine!r}"
    return None


class VectorizedMessageStore:
    """Array-chunk receiver store with SpillingMessageStore's cost model.

    Holds deposited messages as ``(dst_array, payload_array)`` chunks in
    arrival order.  Charges are identical to a combine-less
    :class:`~repro.storage.messages.SpillingMessageStore` fed the same
    message stream: the mem/spill split is purely positional (the first
    ``capacity`` messages fit, the rest spill as random writes), and
    ``load`` reads the spilled bytes back sequentially.  The vectorized
    executor only runs without receiver combining, so no combine
    parameter exists here.
    """

    def __init__(self, capacity: Optional[int], sizes, disk) -> None:
        self._capacity = capacity
        self._sizes = sizes
        self._disk = disk
        self._chunks: List[Tuple[Any, Any]] = []
        self._total = 0
        self._spill_count = 0
        self.total_deposited = 0
        self.total_spilled = 0

    # ------------------------------------------------------------------
    def deposit_arrays(self, dsts, payloads) -> None:
        """Receive one aligned (dst, payload) array pair."""
        count = len(dsts)
        if count == 0:
            return
        self.total_deposited += count
        capacity = self._capacity
        if capacity is not None:
            over_before = self._total - capacity
            if over_before < 0:
                over_before = 0
            over_after = self._total + count - capacity
            if over_after < 0:
                over_after = 0
            spilled = over_after - over_before
            if spilled:
                self._spill_count += spilled
                self.total_spilled += spilled
                self._disk.charge(
                    random_write=spilled * self._sizes.message
                )
        self._total += count
        self._chunks.append((dsts, payloads))

    def load_arrays(self) -> Tuple[Any, Any, int, int]:
        """Drain to ``(dsts, payloads, spilled_read, spilled_count)``.

        The concatenated arrays preserve deposit order, which is the
        per-destination message order the scalar store's ``load()``
        produces (its mem/spill split is a single positional cutoff, so
        the mem-then-spill merge per vertex equals stream order).
        """
        spilled_count = self._spill_count
        spilled_read = self._sizes.messages(spilled_count)
        if spilled_read:
            self._disk.read(spilled_read, sequential=True)
        chunks = self._chunks
        self._chunks = []
        self._total = 0
        self._spill_count = 0
        if not chunks:
            return None, None, spilled_read, spilled_count
        if len(chunks) == 1:
            dsts, payloads = chunks[0]
        else:
            dsts = np.concatenate([c[0] for c in chunks])
            payloads = np.concatenate([c[1] for c in chunks])
        return dsts, payloads, spilled_read, spilled_count

    def load(self) -> LoadResult:
        """Scalar-compatible drain (restart/recovery paths only)."""
        dsts, payloads, spilled_read, spilled_count = self.load_arrays()
        messages: Dict[int, List[Any]] = {}
        if dsts is not None:
            for dst, value in zip(dsts.tolist(), payloads.tolist()):
                if dst in messages:
                    messages[dst].append(value)
                else:
                    messages[dst] = [value]
        return LoadResult(messages, spilled_read, spilled_count)

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return self._total

    @property
    def memory_bytes(self) -> int:
        in_mem = self._total
        if self._capacity is not None and in_mem > self._capacity:
            in_mem = self._capacity
        return self._sizes.messages(in_mem)

    @property
    def spilled_pending(self) -> int:
        return self._spill_count


# ----------------------------------------------------------------------
# cached per-job dense state
# ----------------------------------------------------------------------
class _WorkerVec:
    """Per-worker dense views: local ids and (for push) CSR slices."""

    __slots__ = (
        "local", "indptr", "e_dst", "e_w", "e_src", "e_owner", "deg",
        "block_bytes", "block_edges",
    )

    def __init__(self, local) -> None:
        self.local = local
        self.indptr = None
        self.e_dst = None
        self.e_w = None
        self.e_src = None
        self.e_owner = None
        self.deg = None
        self.block_bytes = None
        self.block_edges = None


class _TripleBundle:
    """All Eblocks one responder scans for one requested Vblock.

    Per-Eblock quantities are concatenated across the responder's
    matching source blocks *in scan order* (src_block ascending,
    fragments in svertex order, edges in adjacency order), so one boolean
    mask per array replaces the per-Eblock Python loop, and the
    concatenated edge stream is exactly the stream the scalar gather
    folds per (requester, Vblock, responder) triple.
    """

    __slots__ = (
        "p_src_block", "p_disk", "p_nedge", "p_aux", "p_ebytes",
        "f_sv", "f_src_block",
        "e_sv", "e_pos", "e_w", "e_src_block",
    )


class _PullState:
    """Dense VE-BLOCK mirror: per-responder Eblock arrays keyed by the
    requested destination block, plus block-id/position lookups.

    Built from the CSR view rather than by walking the VEBlockStore's
    fragment lists: the (src_block, dst_block, svertex, adjacency) scan
    order the store materializes is recovered with one stable sort of
    the per-edge (src_block, dst_block) key over the block-ordered edge
    stream — the pre-sort stream is svertex-major/adjacency-minor, which
    a stable sort preserves within each Eblock, and fragment/Eblock
    boundaries fall out of run-length encoding the sorted keys.
    """

    def __init__(self, rt) -> None:
        layout = rt.layout
        sizes = rt.config.sizes
        csr = rt.graph.csr()
        n = rt.graph.num_vertices
        num_blocks = layout.num_blocks
        self.block_vids = [
            np.asarray(layout.block_vertices[b], dtype=np.int64)
            for b in range(num_blocks)
        ]
        block_pos = np.zeros(n, dtype=np.int64)
        for vids in self.block_vids:
            block_pos[vids] = np.arange(len(vids), dtype=np.int64)
        block_of = np.asarray(layout.block_of_vertex, dtype=np.int64)
        #: worker id -> {dst_block: _TripleBundle}
        self.by_dst: List[Dict[int, _TripleBundle]] = []
        for worker in rt.workers:
            by_dst: Dict[int, _TripleBundle] = {}
            self.by_dst.append(by_dst)
            local_blocks = list(worker.veblock.local_blocks)
            if not local_blocks:
                continue
            scan_vids = np.concatenate(
                [self.block_vids[b] for b in local_blocks]
            )
            _indptr, e_dst, e_w = csr.gather_rows(scan_vids)
            if len(e_dst) == 0:
                continue
            e_sv = np.repeat(scan_vids, csr.out_degrees[scan_vids])
            # one key per edge; stable-sorting it groups edges into
            # Eblocks in (src_block, dst_block) order while keeping the
            # (svertex, adjacency) order inside each group.
            key = block_of[e_sv] * num_blocks + block_of[e_dst]
            order = np.argsort(key, kind="stable")
            key = key[order]
            e_sv = e_sv[order]
            e_dst = e_dst[order]
            e_w = e_w[order]
            # Eblock runs over the edge stream
            is_eb_start = np.empty(len(key), dtype=bool)
            is_eb_start[0] = True
            np.not_equal(key[1:], key[:-1], out=is_eb_start[1:])
            eb_start = np.flatnonzero(is_eb_start)
            eb_key = key[eb_start]
            eb_nedge = np.diff(
                np.append(eb_start, len(key))
            )
            if rt.config.fragment_clustering:
                # fragment runs: consecutive same (Eblock, svertex)
                is_fr_start = is_eb_start.copy()
                is_fr_start[1:] |= e_sv[1:] != e_sv[:-1]
                fr_start = np.flatnonzero(is_fr_start)
                fr_sv = e_sv[fr_start]
                fr_key = key[fr_start]
            else:
                # clustering ablation: every edge is its own fragment
                fr_sv = e_sv
                fr_key = key
            # fragments per Eblock (fr_key is sorted, eb_key unique)
            eb_nfrag = np.diff(
                np.searchsorted(
                    fr_key, np.append(eb_key, np.iinfo(np.int64).max)
                )
            )
            eb_dst_block = eb_key % num_blocks
            eb_src_block = eb_key // num_blocks
            e_dst_block = key % num_blocks
            fr_dst_block = fr_key % num_blocks
            e_pos = block_pos[e_dst]
            e_src_block = key // num_blocks
            fr_src_block = fr_key // num_blocks
            for dst_block in np.unique(eb_dst_block).tolist():
                bundle = _TripleBundle.__new__(_TripleBundle)
                eb_sel = eb_dst_block == dst_block
                bundle.p_src_block = eb_src_block[eb_sel]
                bundle.p_nedge = eb_nedge[eb_sel]
                bundle.p_aux = eb_nfrag[eb_sel] * sizes.fragment_aux
                bundle.p_ebytes = bundle.p_nedge * sizes.edge
                bundle.p_disk = bundle.p_aux + bundle.p_ebytes
                fr_sel = fr_dst_block == dst_block
                bundle.f_sv = fr_sv[fr_sel]
                bundle.f_src_block = fr_src_block[fr_sel]
                e_sel = e_dst_block == dst_block
                bundle.e_sv = e_sv[e_sel]
                bundle.e_pos = e_pos[e_sel]
                bundle.e_w = e_w[e_sel]
                bundle.e_src_block = e_src_block[e_sel]
                by_dst[int(dst_block)] = bundle


class _VecState:
    """All per-job dense state, cached in ``rt.scratch['vectorized']``.

    Recovery paths invalidate the cache (``reset_for_restart`` clears
    the scratch dict, ``restore_checkpoint`` pops this key) because they
    rebind ``rt.values`` and replace the message stores.
    """

    def __init__(self, rt) -> None:
        graph = rt.graph
        program = rt.program
        cfg = rt.config
        sizes = cfg.sizes
        self.rules = program.vectorized()
        csr = graph.csr()
        self.out_degrees = csr.out_degrees
        self.values = np.asarray(rt.values)
        combine = self.rules.combine
        dtype = self.values.dtype
        if combine == "sum":
            # bincount's identity; matches Python sum(()) == 0.
            self.identity: Any = 0.0
            self.acc_dtype = np.float64
        else:
            self.identity = (
                np.inf
                if np.issubdtype(dtype, np.floating)
                else np.iinfo(dtype).max
            )
            self.acc_dtype = dtype
        self.owner = np.asarray(rt.owner_of, dtype=np.int64)
        self.bv = max(1, cfg.adjacency_block_vertices)
        mask = self.rules.initially_active_mask(rt.ctx, np)
        if mask is None:
            if (
                type(program).initially_active
                is VertexProgram.initially_active
            ):
                mask = np.ones(graph.num_vertices, dtype=bool)
            else:
                mask = np.fromiter(
                    (
                        program.initially_active(v, rt.ctx)
                        for v in range(graph.num_vertices)
                    ),
                    dtype=np.bool_, count=graph.num_vertices,
                )
        self.initial_mask = np.asarray(mask, dtype=bool)
        need_push = rt.needs_adjacency()
        self.workers: List[_WorkerVec] = []
        for worker in rt.workers:
            span = rt.partition.vertices_of(worker.worker_id)
            local = np.arange(
                span.start, span.stop, span.step, dtype=np.int64
            )
            wvec = _WorkerVec(local)
            if need_push:
                if span.step == 1:
                    indptr, e_dst, e_w = csr.row_span(
                        span.start, span.stop
                    )
                else:
                    indptr, e_dst, e_w = csr.gather_rows(local)
                deg = csr.out_degrees[local]
                wvec.indptr = indptr
                wvec.e_dst = e_dst
                wvec.e_w = e_w
                wvec.deg = deg
                wvec.e_src = np.repeat(local, deg)
                wvec.e_owner = self.owner[e_dst]
                n_local = len(local)
                if n_local:
                    starts = np.arange(0, n_local, self.bv)
                    wvec.block_bytes = np.add.reduceat(
                        deg * sizes.edge, starts
                    )
                    wvec.block_edges = np.add.reduceat(deg, starts)
                else:
                    wvec.block_bytes = np.zeros(0, dtype=np.int64)
                    wvec.block_edges = np.zeros(0, dtype=np.int64)
            self.workers.append(wvec)
        self.pull: Optional[_PullState] = None

    def ensure_pull(self, rt) -> _PullState:
        if self.pull is None:
            self.pull = _PullState(rt)
        return self.pull


def _row_gather(indptr, rows, counts):
    """Flat edge indices of *rows* (row-major, adjacency order)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.repeat(indptr[rows], counts)
    prefix = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        prefix, counts
    )
    return starts + offsets


def _fold(dsts, payloads, size, combine, identity, dtype):
    """Sequential dense fold of (dst, payload) pairs into *size* bins.

    ``bincount``/``minimum.at`` process the input left to right, so for
    each destination the fold order equals the input stream order —
    the property the bit-for-bit contract rests on.
    """
    if combine == "sum":
        return np.bincount(dsts, weights=payloads, minlength=size)
    acc = np.full(size, identity, dtype=dtype)
    np.minimum.at(acc, dsts, payloads)
    return acc


# ----------------------------------------------------------------------
# per-worker halves
# ----------------------------------------------------------------------
def compute_worker_update(
    rt,
    state: "_VecState",
    worker,
    superstep: int,
    received_local,
    acc_local,
    pushing: bool,
    resp_view,
) -> Dict[str, Any]:
    """Phase 2 for one worker: dense update + push staging.

    Touches only *worker*-owned state — its slice of ``state.values``,
    its disk, its vertices' bytes of *resp_view*.  The inputs
    ``received_local``/``acc_local`` are the worker's slices of the
    global fold (``received[local]``/``acc_global[local]``; gathers of
    a gather are bitwise identical to gathering ``targets`` directly).
    The returned shard carries everything the caller must fold into
    shared metrics (:func:`apply_update_shard`) plus the staged
    per-destination message arrays.  Aggregator contributions are
    returned as per-vertex streams, never partial sums: the caller
    replays the sequential carry fold so the float grouping matches
    the scalar executors.
    """
    program = rt.program
    rules = state.rules
    ctx = rt.ctx
    sizes = rt.config.sizes
    values = state.values
    wid = worker.worker_id
    wvec = state.workers[wid]
    local = wvec.local
    num_workers = len(rt.workers)
    shard: Dict[str, Any] = {
        "num_targets": 0,
        "n_respond": 0,
        "contrib": None,
        "record_bytes": 0,
        "raw_staged": 0,
        "edges_scanned": 0,
        "edge_bytes": 0,
        "staged": [None] * num_workers,
    }
    if superstep == 1:
        mask = state.initial_mask[local]
        if received_local is not None:
            mask = mask | received_local
        tpos = np.flatnonzero(mask)
        targets = local[tpos]
    elif program.all_active:
        tpos = None  # the whole worker slice
        targets = local
    else:
        if received_local is None:
            return shard
        tpos = np.flatnonzero(received_local)
        targets = local[tpos]
    num_targets = len(targets)
    shard["num_targets"] = num_targets
    if num_targets == 0:
        return shard

    old_values = values[targets]
    if acc_local is not None:
        if tpos is None:
            acc = acc_local
            has_message = received_local
        else:
            acc = acc_local[tpos]
            has_message = received_local[tpos]
    else:
        acc = np.full(
            num_targets, state.identity, dtype=state.acc_dtype
        )
        has_message = np.zeros(num_targets, dtype=bool)
    new_values, respond = rules.update_dense(
        ctx, targets, old_values, acc, has_message, np
    )
    new_values = np.asarray(new_values, dtype=values.dtype)
    values[targets] = new_values

    contrib = rules.aggregate_dense(
        ctx, targets, old_values, new_values, np
    )
    if contrib:
        shard["contrib"] = {
            agg_key: np.asarray(agg_vals, dtype=np.float64)
            for agg_key, agg_vals in contrib.items()
        }

    if isinstance(respond, np.ndarray):
        rmask = respond.astype(bool, copy=False)
        resp_targets = targets[rmask]
        resp_pos = (
            tpos[rmask] if tpos is not None
            else np.flatnonzero(rmask)
        )
    elif respond:
        resp_targets = targets
        resp_pos = (
            tpos if tpos is not None
            else np.arange(num_targets, dtype=np.int64)
        )
    else:
        resp_targets = targets[:0]
        resp_pos = np.zeros(0, dtype=np.int64)
    num_respond = len(resp_targets)
    shard["n_respond"] = num_respond
    if num_respond:
        # 0 -> 1 flips only (each vertex is targeted once), reported
        # through add_to_count — the FlagBitset hot-path discipline.
        resp_view[resp_targets] = 1
        rt.resp_next.add_to_count(num_respond)

    # IO(V_t): one aggregated read+write charge per worker.
    record_bytes = num_targets * sizes.vertex_record
    shard["record_bytes"] = record_bytes
    worker.disk.charge(
        seq_read=record_bytes, seq_write=record_bytes
    )

    if not (pushing and num_respond):
        return shard

    # IO(E_t): whole adjacency blocks touched by responding vertices.
    blocks = np.unique(resp_pos // state.bv)
    edge_bytes = int(wvec.block_bytes[blocks].sum())
    shard["edges_scanned"] = int(wvec.block_edges[blocks].sum())
    shard["edge_bytes"] = edge_bytes
    worker.disk.charge(seq_read=edge_bytes)

    if program.uniform_messages:
        payloads, valid = rules.source_payloads(
            ctx, values[resp_targets], wvec.deg[resp_pos], np
        )
        stage_mask = wvec.deg[resp_pos] > 0
        if valid is not None:
            stage_mask = stage_mask & valid
        rows = resp_pos[stage_mask]
        if len(rows) == 0:
            return shard
        counts = wvec.deg[rows]
        flat = _row_gather(wvec.indptr, rows, counts)
        dsts = wvec.e_dst[flat]
        owners = wvec.e_owner[flat]
        edge_payloads = np.repeat(payloads[stage_mask], counts)
        raw_staged = int(counts.sum())
    else:
        counts = wvec.deg[resp_pos]
        flat = _row_gather(wvec.indptr, resp_pos, counts)
        sources = wvec.e_src[flat]
        dsts = wvec.e_dst[flat]
        owners = wvec.e_owner[flat]
        edge_payloads, valid = rules.edge_payloads(
            ctx, values, sources, wvec.e_w[flat], np
        )
        if valid is not None:
            dsts = dsts[valid]
            owners = owners[valid]
            edge_payloads = edge_payloads[valid]
        raw_staged = len(dsts)
        if raw_staged == 0:
            return shard
    shard["raw_staged"] = raw_staged
    per_src = shard["staged"]
    for dst_wid in range(num_workers):
        flow = owners == dst_wid
        if flow.any():
            per_src[dst_wid] = (dsts[flow], edge_payloads[flow])
    return shard


def apply_update_shard(
    metrics: SuperstepMetrics,
    wid: int,
    shard: Dict[str, Any],
    updates_of: Dict[int, int],
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
) -> None:
    """Fold one worker's update shard into shared metrics.

    Every field here is either an order-independent integer sum or the
    aggregator carry fold, which the caller invokes in worker-id order.
    """
    updates_of[wid] = shard["num_targets"]
    contrib = shard["contrib"]
    if contrib:
        aggregates = metrics.aggregates
        for agg_key, arr in contrib.items():
            # Carry the running total through the same sequential
            # left fold the scalar loop performs — folding the
            # contributions first and adding once would change the
            # float grouping.
            carry = np.zeros(1, dtype=np.float64)
            carry[0] = aggregates.get(agg_key, 0.0)
            np.add.at(
                carry, np.zeros(len(arr), dtype=np.intp), arr
            )
            aggregates[agg_key] = float(carry[0])
    metrics.io_vertex += 2 * shard["record_bytes"]
    raw_staged = shard["raw_staged"]
    msgs_gen_of[wid] += raw_staged
    metrics.raw_messages += raw_staged
    edges_of[wid] += shard["edges_scanned"]
    metrics.edges_scanned += shard["edges_scanned"]
    metrics.io_edges_push += shard["edge_bytes"]


def triple_contribution(
    rt,
    state: "_VecState",
    responder,
    bundle: "_TripleBundle",
    block_size: int,
    block_res,
    resp_bool,
    payload_all,
    payload_valid,
    stats: List[int],
):
    """Scan one (requested Vblock, responder) triple.

    Charges the responder's disk and scan *stats* (order-independent
    sums) and returns ``None`` when nothing responds, else
    ``(nvalues, ngroups, nbytes, got, acc_block)`` — the block-local
    combine the caller transfers and appends to the inbox stream.  Pass
    ``payload_all=None`` for non-uniform programs.
    """
    sizes = rt.config.sizes
    rules = state.rules
    values = state.values
    scanned = block_res[bundle.p_src_block]
    if not scanned.any():
        return None
    seq_bytes = int(bundle.p_disk[scanned].sum())
    stats[0] += int(bundle.p_nedge[scanned].sum())
    stats[1] += int(bundle.p_aux[scanned].sum())
    stats[2] += int(bundle.p_ebytes[scanned].sum())
    if seq_bytes:
        responder.disk.charge(seq_read=seq_bytes)
    # responding fragments pay IO(V_rr) even when their
    # payload turns out invalid (scalar order: charge
    # precedes the payload check).
    frag_mask = (
        block_res[bundle.f_src_block]
        & resp_bool[bundle.f_sv]
    )
    frag_count = int(frag_mask.sum())
    if frag_count:
        vrr_bytes = frag_count * sizes.vertex_value
        responder.disk.charge(random_read=vrr_bytes)
        stats[3] += vrr_bytes
    edge_mask = (
        block_res[bundle.e_src_block]
        & resp_bool[bundle.e_sv]
    )
    if payload_all is not None:
        if payload_valid is not None:
            edge_mask &= payload_valid[bundle.e_sv]
        if not edge_mask.any():
            return None
        positions = bundle.e_pos[edge_mask]
        payloads = payload_all[bundle.e_sv[edge_mask]]
    else:
        if not edge_mask.any():
            return None
        payloads, valid = rules.edge_payloads(
            rt.ctx, values,
            bundle.e_sv[edge_mask],
            bundle.e_w[edge_mask], np,
        )
        positions = bundle.e_pos[edge_mask]
        if valid is not None:
            payloads = payloads[valid]
            positions = positions[valid]
        if len(payloads) == 0:
            return None
    nvalues = len(positions)
    got = np.zeros(block_size, dtype=bool)
    got[positions] = True
    acc_block = _fold(
        positions, payloads, block_size,
        rules.combine, state.identity, state.acc_dtype,
    )
    ngroups = int(got.sum())
    nbytes = sizes.combined(ngroups)
    return nvalues, ngroups, nbytes, got, acc_block


# ----------------------------------------------------------------------
# the superstep
# ----------------------------------------------------------------------
def run_superstep_vectorized(
    rt,
    superstep: int,
    in_mech: str,
    out_mech: str,
    mode_label: str,
) -> SuperstepMetrics:
    """Execute one BSP superstep with dense kernels."""
    if in_mech not in ("stored", "pull"):
        raise ValueError(f"unknown input mechanism {in_mech!r}")
    if out_mech not in ("push", "flag"):
        raise ValueError(f"unknown output mechanism {out_mech!r}")
    state = rt.scratch.get("vectorized")
    if state is None:
        state = _VecState(rt)
        rt.scratch["vectorized"] = state

    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    ctx = rt.ctx
    ctx.superstep = superstep
    rt.network.begin_superstep(superstep)
    metrics = SuperstepMetrics(superstep=superstep, mode=mode_label)

    disk_before = {w.worker_id: w.disk.snapshot() for w in rt.workers}
    spilled_before = {
        w.worker_id: (
            w.message_store.total_spilled if w.message_store else 0
        )
        for w in rt.workers
    }
    updates_of = {w.worker_id: 0 for w in rt.workers}
    msgs_gen_of = {w.worker_id: 0 for w in rt.workers}
    edges_of = {w.worker_id: 0 for w in rt.workers}
    spill_read_of = {w.worker_id: 0 for w in rt.workers}
    pull_memory_of = {w.worker_id: 0 for w in rt.workers}

    pushing = out_mech == "push"
    num_workers = len(rt.workers)
    values = state.values
    num_vertices = len(values)
    rules = state.rules
    combine = rules.combine
    uniform = program.uniform_messages

    # ------------------------------------------------------------------
    # Phase 0/1: obtain this superstep's messages as a dense fold.
    # ------------------------------------------------------------------
    received = None
    acc_global = None
    if in_mech == "pull":
        if superstep > 1:
            received, acc_global = _bpull_gather_vectorized(
                rt, state, metrics,
                msgs_gen_of, edges_of, pull_memory_of,
            )
    else:
        chunk_dsts: List[Any] = []
        chunk_payloads: List[Any] = []
        for worker in rt.workers:
            if worker.message_store is None:
                raise RuntimeError(
                    f"mode {mode_label} needs a message store on "
                    f"worker {worker.worker_id}"
                )
            dsts, payloads, spilled_read, spilled_count = (
                worker.message_store.load_arrays()
            )
            metrics.io_message_read += spilled_read
            spill_read_of[worker.worker_id] = spilled_count
            if dsts is not None:
                chunk_dsts.append(dsts)
                chunk_payloads.append(payloads)
        if chunk_dsts:
            # Stores hold disjoint (locally owned) destination sets, so
            # concatenating the per-worker streams in worker order keeps
            # each vertex's message order equal to the scalar inbox's.
            if len(chunk_dsts) == 1:
                dsts, payloads = chunk_dsts[0], chunk_payloads[0]
            else:
                dsts = np.concatenate(chunk_dsts)
                payloads = np.concatenate(chunk_payloads)
            received = np.zeros(num_vertices, dtype=bool)
            received[dsts] = True
            acc_global = _fold(
                dsts, payloads, num_vertices,
                combine, state.identity, state.acc_dtype,
            )

    # ------------------------------------------------------------------
    # Phase 2: dense update; stage outgoing arrays if pushing.
    # ------------------------------------------------------------------
    resp_view = rt.resp_next.numpy_view(np)
    staged: List[List[Optional[Tuple[Any, Any]]]] = [
        [None] * num_workers for _ in range(num_workers)
    ]
    for worker in rt.workers:
        wid = worker.worker_id
        local = state.workers[wid].local
        shard = compute_worker_update(
            rt, state, worker, superstep,
            received[local] if received is not None else None,
            acc_global[local] if acc_global is not None else None,
            pushing, resp_view,
        )
        apply_update_shard(
            metrics, wid, shard, updates_of, msgs_gen_of, edges_of
        )
        staged[wid] = shard["staged"]

    # ------------------------------------------------------------------
    # Phase 3: route staged arrays (same flow order as batched).
    # ------------------------------------------------------------------
    if pushing:
        transfer = rt.network.transfer
        for worker in rt.workers:
            src_wid = worker.worker_id
            per_src = staged[src_wid]
            for dst_wid in range(num_workers):
                pair = per_src[dst_wid]
                if pair is None:
                    continue
                dsts, payloads = pair
                count = len(dsts)
                transfer(
                    src_wid, dst_wid, sizes.messages(count),
                    units=count,
                )
                rt.workers[dst_wid].message_store.deposit_arrays(
                    dsts, payloads
                )

    # ------------------------------------------------------------------
    # Metrics assembly (shared with the batched executor).
    # ------------------------------------------------------------------
    finalize_superstep_metrics(
        rt, metrics, in_mech, out_mech,
        disk_before, spilled_before,
        updates_of, msgs_gen_of, edges_of, spill_read_of,
        pull_memory_of,
    )
    # Keep the runtime's scalar value list in sync — checkpoints, the
    # final JobResult, and any scalar consumer read rt.values.
    rt.values[:] = values.tolist()
    return metrics


def _bpull_gather_vectorized(
    rt,
    state: _VecState,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
):
    """Dense Pull-Request/Pull-Respond with batched-identical charges.

    The fold is two-level, mirroring the scalar inbox structure: each
    (requester, Vblock, responder) triple combines its edge stream
    block-locally (Eblock scan order), and the per-vertex fold over the
    pair results happens in triple-iteration order — a single flat fold
    over all edges would regroup the floats and break bit-identity.
    """
    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    ctx = rt.ctx
    pull = state.ensure_pull(rt)
    values = state.values
    rules = state.rules
    combine = rules.combine
    uniform = program.uniform_messages
    num_vertices = len(values)

    resp = np.frombuffer(rt.resp_prev.data, dtype=np.uint8)
    resp_bool = resp.view(np.bool_)
    block_res = np.fromiter(
        (bool(resp[vids].any()) for vids in pull.block_vids),
        dtype=bool, count=len(pull.block_vids),
    )
    payload_all = payload_valid = None
    if uniform:
        # payloads depend only on the source's (pre-update) value, so
        # one dense evaluation replaces the scalar memoization.
        payload_all, payload_valid = rules.source_payloads(
            ctx, values, state.out_degrees, np
        )

    send_buffer_peak = {w.worker_id: 0 for w in rt.workers}
    recv_block_peak = {w.worker_id: 0 for w in rt.workers}
    # per-responder [edges, aux_bytes, edge_bytes, vrr_bytes]
    scan_stats = {w.worker_id: [0, 0, 0, 0] for w in rt.workers}
    stream_dsts: List[Any] = []
    stream_vals: List[Any] = []
    transfer = rt.network.transfer
    send_request = rt.network.send_request

    for requester in rt.workers:
        rx = requester.worker_id
        for block_id in requester.veblock.local_blocks:
            block_received = 0
            block_vids = pull.block_vids[block_id]
            block_size = len(block_vids)
            for responder in rt.workers:
                ry = responder.worker_id
                send_request(rx, ry)
                bundle = pull.by_dst[ry].get(block_id)
                if bundle is None:
                    continue
                result = triple_contribution(
                    rt, state, responder, bundle, block_size,
                    block_res, resp_bool, payload_all, payload_valid,
                    scan_stats[ry],
                )
                if result is None:
                    continue
                nvalues, ngroups, nbytes, got, acc_block = result
                metrics.raw_messages += nvalues
                msgs_gen_of[ry] += nvalues
                if nbytes > send_buffer_peak[ry]:
                    send_buffer_peak[ry] = nbytes
                transfer(ry, rx, nbytes, units=ngroups)
                if ry != rx:
                    metrics.mco += nvalues - ngroups
                block_received += nbytes
                # inbox append order: ascending vertex id within the
                # pair (the scalar sorted(cbuffer.items())), pairs in
                # triple-iteration order.
                stream_dsts.append(block_vids[got])
                stream_vals.append(acc_block[got])
            if block_received > recv_block_peak[rx]:
                recv_block_peak[rx] = block_received

    # scan statistics -> metrics (the batched tail, verbatim semantics)
    for worker in rt.workers:
        wid = worker.worker_id
        edges_scanned, aux_bytes, edge_bytes, vrr_bytes = (
            scan_stats[wid]
        )
        metrics.edges_scanned += edges_scanned
        edges_of[wid] += edges_scanned
        metrics.io_fragments += aux_bytes
        metrics.io_edges_bpull += edge_bytes
        metrics.io_vrr += vrr_bytes
        factor = 2 if cfg.prepull else 1
        pull_memory_of[wid] += (
            factor * recv_block_peak[wid] + send_buffer_peak[wid]
        )

    if not stream_dsts:
        return None, None
    if len(stream_dsts) == 1:
        dsts, vals = stream_dsts[0], stream_vals[0]
    else:
        dsts = np.concatenate(stream_dsts)
        vals = np.concatenate(stream_vals)
    received = np.zeros(num_vertices, dtype=bool)
    received[dsts] = True
    acc_global = _fold(
        dsts, vals, num_vertices,
        combine, state.identity, state.acc_dtype,
    )
    return received, acc_global
