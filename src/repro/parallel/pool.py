"""The campaign path: the block executor, block planning, and the
campaign runner every entry point shares.

Alg. 2 is a set of independent tree indices whose balanced states are
reduced by merging (§2.2, §3.3).  A campaign is a validated spec
(:class:`~repro.cloud.checkpoint.CampaignMeta`), a plan of ``(start,
stop, step)`` blocks, the executor :func:`run_block` (the only code that
chooses between the swap, batched and per-tree engines), and the driver
(:mod:`repro.parallel.supervisor`).  :func:`run_campaign` plans, drives
and merges; ``sample_cloud``, ``resume_cloud`` and
:func:`sample_cloud_pool` are thin calls into it.  Pool workers get the
graph once, as a pickle or as the path of a packed
:class:`~repro.graph.store.GraphStore` they map read-only, and every
task carries the graph fingerprint so a stale worker slot is caught.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence, Tuple, Union

import numpy as np

import repro.core.parity_batch as parity_batch
import repro.harary.bipartition as bipartition
from repro.cloud.checkpoint import CampaignMeta, CheckpointWriter, recover_cloud
from repro.cloud.cloud import FrustrationCloud
from repro.core.balancer import balance
from repro.errors import CheckpointError, EngineError, SupervisorError
from repro.graph.csr import SignedGraph
from repro.graph.store import GraphStore, graph_fingerprint
from repro.perf.flight import (
    get_flight_recorder,
    install_flight_recorder,
    set_flight_recorder,
)
from repro.perf.journal import get_journal, journal_event
from repro.perf.registry import collecting, get_registry
from repro.perf.tracectx import TraceContext, pop_trace, push_trace
from repro.perf.tracing import (
    TraceCollector,
    absorb_shard,
    collector_shard,
    get_trace_collector,
    set_trace_collector,
    span,
)
from repro.rng import SeedLike
from repro.trees.sampler import TreeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.parallel.supervisor import RetryPolicy

__all__ = ["sample_cloud_pool", "run_block", "run_campaign"]

Block = Tuple[int, int, int]
StoreLike = Union[str, "Path", GraphStore]

# Per-process graph slot, filled by the initializer; the store path
# lets a stale store-backed slot heal by remapping.
_WORKER_GRAPH: SignedGraph | None = None
_WORKER_FINGERPRINT: str | None = None
_WORKER_STORE: str | None = None

#: Span events one block shard ships back at most (the rest: dropped).
_SHARD_MAX_EVENTS = 512


def _init_worker_flight(flight_dir: str | None) -> None:
    """Drop the trace collector and flight recorder a forked worker
    inherits from the parent (a worker ships span shards only when no
    collector is installed), and arm the worker's own recorder."""
    set_trace_collector(None)
    set_flight_recorder(None)
    if flight_dir is not None:
        install_flight_recorder(flight_dir, role="pool-worker")


def _init_worker(
    graph: SignedGraph,
    fingerprint: str | None = None,
    flight_dir: str | None = None,
) -> None:
    """Pickle initializer: install the shipped graph in the worker slot."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _init_worker_flight(flight_dir)
    _WORKER_GRAPH = graph
    _WORKER_FINGERPRINT = (
        fingerprint if fingerprint is not None else graph_fingerprint(graph)
    )
    _WORKER_STORE = None


def _init_worker_store(
    path: str,
    fingerprint: str | None = None,
    flight_dir: str | None = None,
) -> None:
    """Zero-copy initializer: map the packed graph store read-only, so
    every worker on the machine shares one page-cache copy of the graph;
    only the path and the expected fingerprint cross the process
    boundary."""
    global _WORKER_GRAPH, _WORKER_STORE
    _init_worker_flight(flight_dir)
    _WORKER_GRAPH, _WORKER_STORE = None, str(path)
    _worker_graph(fingerprint)


def _reset_worker_slot() -> None:
    """Clear the per-process graph slot (parent-side before in-process
    execution, and tests) so stale state cannot leak into a later
    campaign that reuses this process."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _WORKER_GRAPH = None
    _WORKER_FINGERPRINT = None
    _WORKER_STORE = None


def _worker_graph(fingerprint: str | None) -> SignedGraph:
    """The worker-slot graph, fingerprint-checked against the task.  A
    store-backed slot that is empty or stale heals by remapping; a
    pickle-backed mismatch raises (the supervisor rebuilds the pool)."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT
    if _WORKER_GRAPH is not None and (
        fingerprint is None or fingerprint == _WORKER_FINGERPRINT
    ):
        return _WORKER_GRAPH
    if _WORKER_STORE is not None:
        store = GraphStore.open(_WORKER_STORE)
        if fingerprint is not None and store.fingerprint != fingerprint:
            raise EngineError(
                f"graph store {_WORKER_STORE} holds fingerprint "
                f"{store.fingerprint[:12]}..., the campaign expects "
                f"{fingerprint[:12]}... (was the store repacked?)"
            )
        _WORKER_GRAPH = store.graph()
        _WORKER_FINGERPRINT = store.fingerprint
        return _WORKER_GRAPH
    if _WORKER_GRAPH is None:
        raise EngineError("worker process has no graph; initializer missing")
    raise EngineError(
        f"worker graph slot is stale: holds fingerprint "
        f"{(_WORKER_FINGERPRINT or 'unknown')[:12]}..., task expects "
        f"{(fingerprint or 'unknown')[:12]}..."
    )


# -- the block executor ------------------------------------------------
def run_block(
    graph: SignedGraph,
    spec: CampaignMeta,
    block: Block,
    fault: Callable[[Block], None] | None = None,
    trace: dict | None = None,
) -> FrustrationCloud:
    """Balance the tree indices ``range(*block)`` of the campaign *spec*
    into a fresh cloud.

    *fault* (see :mod:`repro.util.faults`) is called with the block
    before any work.  *trace* names the parent span: in a pool worker
    the block's spans ship back as ``cloud.trace_shard``.  The block's
    metrics ride back as ``cloud.metrics``, its process as
    ``cloud.worker_pid``.
    """
    recorder = get_flight_recorder()
    if recorder is not None:  # a SIGKILL mid-block leaves a dump naming it
        recorder.mark_inflight(what="block", block=list(block),
                               method=spec.method)
    if fault is not None:
        fault(block)
    ctx = TraceContext.from_dict(trace) if trace is not None else None
    shard: TraceCollector | None = None
    if ctx is not None and get_trace_collector() is None:
        shard = TraceCollector(_SHARD_MAX_EVENTS)
        set_trace_collector(shard)
    if ctx is not None:
        push_trace(ctx)
    try:
        # A detached window: the parent merges the snapshot exactly once.
        with collecting(merge=False) as metrics, span("block"):
            cloud = _balance_block(graph, spec, range(*block))
            get_registry().count("cloud.states_total", cloud.num_states)
    finally:
        if ctx is not None:
            pop_trace()
        if shard is not None:
            set_trace_collector(None)
    cloud.metrics = metrics.snapshot()
    if shard is not None:
        cloud.trace_shard = collector_shard(shard)
    cloud.worker_pid = os.getpid()
    if recorder is not None:
        recorder.clear_inflight(block=list(block), states=cloud.num_states)
    return cloud


def _balance_block(
    graph: SignedGraph, spec: CampaignMeta, indices: range
) -> FrustrationCloud:
    """The engine choice: per-tree balancing, the tree-batched parity
    engine, or the swap chain's delta states."""
    sampler = TreeSampler(
        graph, method=spec.method, seed=spec.seed,
        swaps_per_state=spec.swaps_per_state,
    )
    cloud = FrustrationCloud(graph, store_states=spec.store_states)
    if spec.method != "swap" and spec.batch_size == 1:
        for i in indices:
            with span("tree_sample"):
                tree = sampler.tree(i)
            result = balance(graph, tree, kernel=spec.kernel)
            with span("harary"):
                cloud.add_result(result)
        return cloud
    for lo in range(0, len(indices), spec.batch_size):
        chunk = indices[lo : lo + spec.batch_size]
        if spec.method == "swap":
            # Chain states are pure functions of (seed, index): the
            # block enters the chain at its segment and walks forward.
            with span("tree_sample"):
                signs, s2r = sampler.swap_states(chunk)
        else:
            with span("tree_sample"):
                batch = sampler.batch(chunk)
            with span("parity_kernel"):
                signs, s2r = parity_batch.balance_batch(graph, batch)
        with span("harary"):
            cloud.add_batch(signs, bipartition.sides_from_sign_to_root(s2r))
    return cloud


def _worker(
    spec: CampaignMeta,
    block: Block,
    fault: Callable[[Block], None] | None = None,
    fingerprint: str | None = None,
    trace: dict | None = None,
) -> FrustrationCloud:
    """Pool entry point: run a block against the worker-slot graph."""
    return run_block(_worker_graph(fingerprint), spec, block, fault, trace)


def _absorb_metrics(local: FrustrationCloud) -> None:
    """Fold a block cloud's metrics snapshot and span shard into the
    active registry/collector, exactly once."""
    snap = getattr(local, "metrics", None)
    if snap:
        get_registry().merge_snapshot(snap)
        local.metrics = None
    shard = getattr(local, "trace_shard", None)
    if shard:
        collector = get_trace_collector()
        if collector is not None:
            absorb_shard(collector, shard)
        local.trace_shard = None


def merge_blocks(
    cloud: FrustrationCloud,
    completed: Sequence[tuple[Block, FrustrationCloud]],
) -> None:
    """Merge ``(block, block_cloud)`` pairs into *cloud* in sorted block
    order, absorbing each block's metrics and span shard."""
    for _block, local in sorted(completed, key=lambda pair: pair[0]):
        cloud.merge(local)
        _absorb_metrics(local)


# -- block planning ----------------------------------------------------
def _merge_intervals(done: Sequence[Block]) -> list[tuple[int, int]]:
    intervals = sorted((s, e) for s, e, _ in done)
    merged: list[tuple[int, int]] = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _compress_runs(indices: np.ndarray) -> list[Block]:
    """Greedily compress a sorted index array into arithmetic blocks."""
    blocks: list[Block] = []
    i, n = 0, len(indices)
    while i < n:
        if i == n - 1:
            blocks.append((int(indices[i]), int(indices[i]) + 1, 1))
            break
        step = int(indices[i + 1] - indices[i])
        j = i + 1
        while j + 1 < n and int(indices[j + 1] - indices[j]) == step:
            j += 1
        blocks.append((int(indices[i]), int(indices[j]) + 1, step))
        i = j + 1
    return blocks


def _remaining_blocks(
    done: Sequence[Block], target: int, workers: int
) -> list[Block]:
    """The indices of ``[0, target)`` not covered by *done*, as blocks.
    A fresh campaign, a prefix and same-stride salvage blocks keep
    compact strided shapes; anything else is compressed into arithmetic
    runs."""
    target = int(target)
    done = [
        (int(s), int(e), int(st)) for s, e, st in done if int(e) > int(s)
    ]
    if not done:
        return [(w, target, workers) for w in range(min(workers, target))]
    steps = {st for _s, _e, st in done}
    if steps == {1}:
        merged = _merge_intervals(done)
        if len(merged) == 1 and merged[0][0] == 0:
            start = min(merged[0][1], target)
            return [
                (start + w, target, workers)
                for w in range(min(workers, target - start))
            ]
    elif len(steps) == 1:
        stride = steps.pop()
        stops: dict[int, int] = {}
        for s, e, _st in done:
            r = s % stride
            stops[r] = max(stops.get(r, 0), e)
        remaining: list[Block] = []
        for r in range(stride):
            if r in stops:
                behind = max(stops[r] - r, 0)
                nxt = r + stride * ((behind + stride - 1) // stride)
            else:
                nxt = r
            if nxt < target:
                remaining.append((nxt, target, stride))
        return remaining
    covered = np.zeros(target, dtype=bool)
    for s, e, st in done:
        covered[s:e:st] = True
    return _compress_runs(np.nonzero(~covered)[0])


def _block_len(block: Block) -> int:
    return len(range(*block))


def _contiguous_blocks(target: int, workers: int) -> list[Block]:
    """Split ``[0, target)`` into up to *workers* contiguous step-1
    blocks of near-equal size."""
    workers = min(workers, target)
    blocks: list[Block] = []
    lo = 0
    for w in range(workers):
        hi = lo + (target - lo) // (workers - w)
        if hi > lo:
            blocks.append((lo, hi, 1))
        lo = hi
    return blocks


def _split_blocks(blocks: Sequence[Block], num_chunks: int) -> list[Block]:
    """Subdivide *blocks* into about *num_chunks* same-stride pieces,
    proportionally to their index counts (zero-length pieces are
    dropped, never emitted)."""
    blocks = [b for b in blocks if _block_len(b) > 0]
    total = sum(_block_len(b) for b in blocks)
    if total == 0 or num_chunks <= len(blocks):
        return list(blocks)
    out: list[Block] = []
    for start, _stop, step in blocks:
        n = _block_len((start, _stop, step))
        share = max(1, round(num_chunks * n / total))
        lo = 0
        for w in range(share):
            hi = lo + (n - lo) // (share - w)
            if hi > lo:
                out.append((start + lo * step, start + hi * step, step))
            lo = hi
    return out


def plan_blocks(
    spec: CampaignMeta,
    target: int,
    *,
    workers: int = 1,
    done: Sequence[Block] = (),
    steal_chunks: int | None = None,
    every: int = 0,
) -> list[Block]:
    """The blocks that take a campaign from *done* to *target* states:
    a fresh campaign splits strided, ``range(w, target, workers)``, or
    contiguously for work-stealing and the swap chain (a strided swap
    block would replay nearly the whole chain); a resume fills the gaps.
    ``every > 0`` cuts blocks at whole batches, for checkpoints."""
    if not done and (steal_chunks is not None or spec.method == "swap"):
        blocks = _contiguous_blocks(target, steal_chunks or workers)
    else:
        blocks = _remaining_blocks(done, target, workers)
        if steal_chunks is not None:
            blocks = _split_blocks(blocks, steal_chunks)
    if every > 0:
        size = -(-every // spec.batch_size) * spec.batch_size
        pieces = [
            range(*b)[lo : lo + size]
            for b in blocks for lo in range(0, _block_len(b), size)
        ]
        blocks = [(r.start, r.stop, r.step) for r in pieces]
    return blocks


# -- the campaign runner -----------------------------------------------
def run_campaign(
    graph: SignedGraph,
    spec: CampaignMeta,
    target: int,
    *,
    workers: int = 1,
    base: FrustrationCloud | None = None,
    done: Sequence[Block] = (),
    steal_chunks: int | None = None,
    policy: "RetryPolicy | None" = None,
    fault: Callable[[Block], None] | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    keep_checkpoints: int = 1,
    flight_dir: str | None = None,
    driver: str = "pool",
) -> FrustrationCloud:
    """Take a campaign from *base* (holding the *done* blocks) to
    *target* states: plan, drive, and merge in sorted block order.

    A block merges once every earlier one has, so the checkpoint written
    every ``checkpoint_every`` states always holds a prefix.  Without a
    *policy* the first failing block raises after a salvage checkpoint
    of the completed blocks; with one, a partial campaign returns its
    cloud with ``done_blocks`` recorded and ``cloud.run_report``.
    """
    from repro.parallel.supervisor import CampaignSupervisor

    have = base.num_states if base is not None else 0
    if target < max(have, 1):
        raise EngineError(
            f"num_states must be at least {max(have, 1)} (the cloud holds "
            f"{have} states), got {target}"
        )
    blocks = plan_blocks(
        spec, target, workers=workers, done=done,
        steal_chunks=steal_chunks, every=checkpoint_every,
    )
    todo = sum(map(_block_len, blocks))
    if have + todo != target:
        raise CheckpointError(
            f"resume accounting mismatch: checkpoint holds {have} states "
            f"and {todo} remain, but the target is {target} (was the "
            "checkpoint produced by a larger campaign?)"
        )
    journal_event(
        "campaign_started", driver=driver, num_states=target,
        workers=workers, **spec.params(), resumed_states=have,
        blocks=len(blocks), vertices=graph.num_vertices,
        edges=graph.num_edges, steal_chunks=steal_chunks,
    )
    merged = base if base is not None else FrustrationCloud(
        graph, store_states=spec.store_states
    )
    writer = CheckpointWriter(
        checkpoint_path, spec, every=checkpoint_every, keep=keep_checkpoints
    )
    queue = sorted(blocks, reverse=True)  # next block to merge at the end
    early: dict[Block, FrustrationCloud] = {}
    folded = [b for b in done if b[1] > b[0]]

    def fold(pairs: list) -> None:
        if pairs:
            merge_blocks(merged, pairs)
            folded.extend(b for b, _c in pairs)
            writer.step(merged, sum(c.num_states for _b, c in pairs))
            if get_journal() is not None:
                journal_event(
                    "convergence", states=merged.num_states,
                    frustration_upper_bound=merged.frustration_upper_bound(),
                )

    def on_complete(block: Block, local: FrustrationCloud) -> None:
        early[block] = local
        while queue and queue[-1] in early:
            fold([(queue[-1], early.pop(queue.pop()))])

    def partial(quarantined=None) -> CampaignMeta:
        """Fold the out-of-order blocks too: the spec of what is done."""
        fold(sorted(early.items()))
        early.clear()
        return replace(
            spec, done_blocks=tuple(sorted(folded)),
            quarantined_blocks=quarantined,
        )

    with collecting() as metrics, span("campaign"):
        _absorb_metrics(merged)
        supervisor = CampaignSupervisor(
            graph, blocks, spec, workers=workers, policy=policy,
            fault=fault, flight_dir=flight_dir, on_complete=on_complete,
        )
        try:
            _completed, report = supervisor.run()
        except BaseException as exc:
            count = len(supervisor.completed)
            if checkpoint_path is None or not (count or base is not None):
                raise
            writer.campaign = partial()
            merged.metrics = get_registry().snapshot()
            writer.write(merged)
            journal_event(
                "salvage_written", blocks=count,
                states=merged.num_states, path=str(checkpoint_path),
            )
            if not isinstance(exc, EngineError):
                raise
            raise EngineError(
                f"{exc}; salvaged {count} completed block(s) "
                f"({merged.num_states} states) to {checkpoint_path} — "
                "finish with sample_cloud_pool(..., resume_from=...)"
            ) from exc
        if not report.ok:
            writer.campaign = partial(report.quarantined_blocks or None)
            if merged.num_states == 0:
                raise SupervisorError(
                    "supervised campaign produced no states "
                    f"({report.summary()})", report=report,
                )
        _steal_summary(supervisor.completed, workers)
        merged.metrics = get_registry().snapshot()
        writer.write(merged)
    if checkpoint_path is not None or getattr(merged, "campaign_meta", None):
        # The spec of the checkpoint chain this cloud belongs to.
        merged.campaign_meta = writer.campaign
    merged.metrics = report.metrics = metrics.snapshot()
    if policy is not None:
        merged.run_report = report
    journal_event(
        "campaign_completed", driver=driver, states=merged.num_states
    )
    return merged


def _steal_summary(
    completed: Sequence[tuple[Block, FrustrationCloud]], workers: int
) -> None:
    """Journal and gauge the per-worker block/state tallies of a pool
    campaign (the schedule work-stealing actually produced)."""
    per_worker: dict[int, list[int]] = {}
    for block, local in completed:
        pid = getattr(local, "worker_pid", None)
        if pid is None or pid == os.getpid():
            continue
        tally = per_worker.setdefault(int(pid), [0, 0])
        tally[0] += 1
        tally[1] += _block_len(block)
    if not per_worker:
        return
    blocks_per_worker = [t[0] for t in per_worker.values()]
    registry = get_registry()
    registry.gauge("pool.workers_used", float(len(per_worker)))
    registry.gauge("pool.steal_max_blocks", float(max(blocks_per_worker)))
    registry.gauge("pool.steal_min_blocks", float(min(blocks_per_worker)))
    journal_event(
        "steal_summary",
        workers=workers,
        workers_used=len(per_worker),
        blocks={str(pid): t[0] for pid, t in sorted(per_worker.items())},
        states={str(pid): t[1] for pid, t in sorted(per_worker.items())},
    )


def sample_cloud_pool(
    graph: SignedGraph,
    num_states: int,
    workers: int = 2,
    method: str | None = None,
    kernel: str | None = None,
    seed: SeedLike = None,
    store_states: bool | None = None,
    batch_size: int | str | None = None,
    checkpoint_path=None,
    keep_checkpoints: int = 1,
    resume_from=None,
    fault: Callable[[Block], None] | None = None,
    policy: "RetryPolicy | None" = None,
    swaps_per_state: int | None = None,
    graph_store: StoreLike | None = None,
    steal_chunks: int | None = None,
    flight_dir: str | None = None,
) -> FrustrationCloud:
    """Alg. 2 with tree-level process parallelism: attribute for
    attribute ``sample_cloud`` with the same seed (``workers=1`` runs
    in-process).  Parameters left ``None`` take the defaults (``bfs``,
    ``lockstep``, seed 0, batch 1) or the ``resume_from`` checkpoint's.

    ``checkpoint_path`` checkpoints the finished campaign — or, when a
    block fails or raises :class:`KeyboardInterrupt`, salvages every
    completed block before the :class:`~repro.errors.EngineError` or the
    interrupt propagates; ``resume_from`` reruns only missing blocks.
    *fault* (:class:`repro.util.faults.WorkerCrash`) sees each block
    first.  ``policy`` enables the self-healing supervisor
    (``cloud.run_report``; a partial campaign records ``done_blocks``).
    ``graph_store`` (a store holding *graph*, or its path) has workers
    map the packed graph.  ``steal_chunks=K`` runs K contiguous blocks
    (``4–8 × workers``) so stragglers delay only themselves;
    ``flight_dir`` arms a crash flight recorder in every worker.
    """
    if workers < 1:
        raise EngineError("workers must be positive")
    if steal_chunks is not None and steal_chunks < 1:
        raise EngineError("steal_chunks must be positive")
    base, stored, done = None, None, ()
    if resume_from is not None:
        base, stored, _source = recover_cloud(resume_from, graph)
        done = (
            stored.done_blocks
            if stored is not None and stored.done_blocks is not None
            else ((0, base.num_states, 1),)
        )
    spec = CampaignMeta.build(
        graph, stored, method=method, kernel=kernel, seed=seed,
        batch_size=batch_size, store_states=store_states,
        swaps_per_state=swaps_per_state, graph_store=graph_store,
    )
    return run_campaign(
        graph, spec, num_states, workers=workers, base=base, done=done,
        steal_chunks=steal_chunks, policy=policy, fault=fault,
        checkpoint_path=checkpoint_path, keep_checkpoints=keep_checkpoints,
        flight_dir=flight_dir,
    )
