"""The two campaign workloads: a consensus answer from two
independently seeded half-campaigns, merged.

* ``cloud-batched`` runs :func:`repro.cloud.cloud.sample_cloud` in
  process with the batched BFS + parity engine (``batch_size="auto"``).
* ``cloud-pool`` runs :func:`repro.parallel.pool.sample_cloud_pool`
  with the paper-default engine (``batch_size=1``, lockstep kernel),
  two workers, a packed graph store and a checkpoint per half.

Both answer with the merged cloud's per-vertex status and frustration
upper bound.  The accuracy of the answer is the Pearson correlation of
the two halves' status vectors.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Tally, derive_seed, median, pearson
from tracer import ROOT, Tracer, campaign_patches, layer_table

import repro.cloud.cloud as cloud_mod
import repro.parallel.pool as pool_mod
from repro.cloud.cloud import FrustrationCloud
from repro.core.balancer import balance
from repro.core.verify import check_balance
from repro.graph.components import largest_connected_component
from repro.graph.datasets import load
from repro.graph.store import GraphStore
from repro.perf.journal import journaling
from repro.trees.sampler import TreeSampler

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 21
#: Pool workers of ``cloud-pool``.
WORKERS = 2


@dataclass(frozen=True)
class CloudSpec:
    """One campaign workload."""

    name: str
    dataset: str
    scale: float | None
    states: int  # per half
    engine: str  # "batched" | "pool"
    spot_checks: int  # state indices re-derived per half


CLOUD_BATCHED = CloudSpec("cloud-batched", "S*_slashdot", 0.1, 256, "batched", 1)
CLOUD_POOL = CloudSpec("cloud-pool", "A*_Instruments_core5", None, 384, "pool", 3)


@dataclass
class Setup:
    graph: object
    store: GraphStore
    store_path: Path
    build_s: float
    pack_s: float
    open_s: float

    @property
    def store_bytes(self) -> int:
        return self.store_path.stat().st_size


def build_graph(dataset: str, scale: float | None, seed: int):
    """The dataset stand-in's largest connected component."""
    graph, _ = largest_connected_component(load(dataset, scale=scale, seed=seed))
    return graph


def set_up(dataset: str, scale: float | None, seed: int, workdir: Path) -> Setup:
    """Build the graph, pack it into a store and reopen the store."""
    start = time.perf_counter()
    graph = build_graph(dataset, scale, seed)
    built = time.perf_counter()
    path = workdir / "graph.rsgs"
    GraphStore.pack(graph, path)
    packed = time.perf_counter()
    store = GraphStore.open(path)
    opened = time.perf_counter()
    return Setup(store.graph(), store, path, built - start, packed - built, opened - packed)


def repeated_setup(spec: CloudSpec, seed: int, workdir: Path):
    """Set up ``SETUPS`` times; returns the last set-up, every set-up's
    time, and the median build, pack and open times.  Only the last
    set-up is kept, so the others add nothing to peak memory."""
    graph_seed = derive_seed(seed, spec.name, "graph")
    times, parts = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        setup = set_up(spec.dataset, spec.scale, graph_seed, workdir)
        times.append(time.perf_counter() - start)
        parts.append((setup.build_s, setup.pack_s, setup.open_s))
    return setup, times, [median(column) for column in zip(*parts)]


@dataclass
class Answer:
    halves: tuple
    merged: FrustrationCloud
    status: np.ndarray
    wall_s: float


def half_seeds(spec: CloudSpec, seed: int) -> tuple[int, int]:
    return derive_seed(seed, spec.name, "half-a"), derive_seed(seed, spec.name, "half-b")


def answer(spec: CloudSpec, setup: Setup, seed: int, workdir: Path) -> Answer:
    """Both halves, their merge and the merged status, timed."""
    start = time.perf_counter()
    halves = []
    for tag, half_seed in zip("ab", half_seeds(spec, seed)):
        if spec.engine == "batched":
            half = cloud_mod.sample_cloud(
                setup.graph, spec.states, seed=half_seed, batch_size="auto"
            )
        else:
            half = pool_mod.sample_cloud_pool(
                setup.graph, spec.states, workers=WORKERS, seed=half_seed,
                batch_size=1, kernel="lockstep", graph_store=setup.store,
                checkpoint_path=workdir / f"half-{tag}.npz",
            )
        halves.append(half)
    merged = FrustrationCloud(setup.graph)
    for half in halves:
        merged.merge(half)
    status = merged.status()
    return Answer(tuple(halves), merged, status, time.perf_counter() - start)


def log_order(spec: CloudSpec) -> np.ndarray:
    """The state index at each position of a half's flip log.

    The in-process engine logs states in index order.  The pool splits
    a fresh campaign into strided blocks ``range(w, states, WORKERS)``
    and merges them in block order, so the log holds every worker's
    residue class in turn.
    """
    if spec.engine == "batched":
        return np.arange(spec.states)
    return np.concatenate([np.arange(w, spec.states, WORKERS) for w in range(WORKERS)])


def _rebuild(graph, sampler: TreeSampler, index: int, tally: Tally, label: str) -> int:
    """State *index* from the reference walk kernel, certified balanced
    by ``check_balance``; returns its flip count."""
    state = balance(graph, sampler.tree(index), kernel="walk")
    cert = check_balance(graph.with_signs(state.signs))
    tally.check(cert.balanced, f"{label}: state {index} not balanced")
    return int(np.count_nonzero(state.signs != graph.edge_sign))


def check_answer(spec: CloudSpec, setup: Setup, seed: int, result: Answer,
                 tally: Tally) -> None:
    """Spot-check states against the reference walk kernel.

    For each half, re-derive ``spot_checks`` state indices with
    ``TreeSampler.tree(i)`` and ``balance(kernel="walk")``, certify the
    balanced signs with ``check_balance``, and match the state's flip
    count against the half's log at the state's position (see
    :func:`log_order`).  The indices are seeded random picks, except
    that the half holding the smaller log minimum checks the state at
    that minimum first; the frustration bound must equal that minimum.
    """
    graph = setup.graph
    order = log_order(spec)
    position = np.argsort(order)
    rng = np.random.default_rng(derive_seed(seed, spec.name, "spot"))
    logs = [half.flip_counts() for half in result.halves]
    minima = [int(log.min()) for log in logs]
    best = int(np.argmin(minima))
    bound = result.merged.frustration_upper_bound()
    tally.check(bound == minima[best],
                f"{spec.name}: frustration bound {bound}, half minima {minima}")
    for h, (log, half_seed) in enumerate(zip(logs, half_seeds(spec, seed))):
        tally.check(len(log) == spec.states, f"{spec.name}: half holds {len(log)} states")
        sampler = TreeSampler(graph, method="bfs", seed=half_seed)
        indices = rng.choice(spec.states, size=spec.spot_checks, replace=False)
        if h == best:
            at_min = int(order[int(np.argmin(log))])
            indices = [at_min] + [int(i) for i in indices if i != at_min][:spec.spot_checks - 1]
        for index in indices:
            flips = _rebuild(graph, sampler, int(index), tally, spec.name)
            logged = int(log[position[index]])
            tally.check(logged == flips,
                        f"{spec.name}: state {index} has {flips} flips, the log {logged}")
    tally.check(
        result.merged.num_states == 2 * spec.states,
        f"{spec.name}: merged cloud holds {result.merged.num_states} states",
    )


def agreement(result: Answer) -> float:
    a, b = result.halves
    return pearson(a.status(), b.status())


def run(spec: CloudSpec, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Untraced run: end-to-end metrics.

    The first answer warms the process up (lazy imports, page cache)
    and is checked but not timed; ``answer_s`` is the median of the
    answers that follow within *seconds*.
    """
    setup, setup_times, _ = repeated_setup(spec, seed, workdir)
    first = answer(spec, setup, seed, workdir)
    walls = []
    start = time.perf_counter()
    # Start another answer only when it is expected to end in time.
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        result = answer(spec, setup, seed, workdir)
        walls.append(result.wall_s)
        tally.check(
            np.array_equal(first.status, result.status),
            f"{spec.name}: repeated answer differs",
        )
    check_answer(spec, setup, seed, first, tally)
    return {
        "setup_s": median(setup_times),
        "answer_s": median(walls),
        "status_agreement": agreement(first),
        "frustration_ub": float(first.merged.frustration_upper_bound()),
    }


def traced_answer(spec: CloudSpec, setup: Setup, seed: int, workdir: Path):
    """One answer with every campaign layer wrapped; returns the answer,
    its spans and the number of pool blocks the journal recorded."""
    shards = workdir / "shards"
    shards.mkdir(exist_ok=True)
    tracer = Tracer(shards)
    journal = workdir / "journal.jsonl"
    with journaling(journal), tracer.installed(campaign_patches()):
        with tracer.span(ROOT):
            result = answer(spec, setup, seed, workdir)
    tracer.absorb_shards()
    blocks = sum(
        '"kind":"block_completed"' in line
        for line in journal.read_text().splitlines()
    )
    journal.unlink()
    shutil.rmtree(shards)
    return result, tracer.spans, blocks


def run_traced(spec: CloudSpec, seed: int, workdir: Path, tally: Tally) -> dict:
    """Traced run: a warm-up answer, then one untraced and one traced
    answer; per-layer figures come from the traced one."""
    setup, _, (build_s, pack_s, open_s) = repeated_setup(spec, seed, workdir)
    answer(spec, setup, seed, workdir)
    plain = answer(spec, setup, seed, workdir)
    result, spans, blocks = traced_answer(spec, setup, seed, workdir)
    tally.check(
        np.array_equal(plain.status, result.status)
        and np.array_equal(plain.merged.flip_counts(), result.merged.flip_counts()),
        f"{spec.name}: the traced answer differs from the untraced one",
    )
    check_answer(spec, setup, seed, result, tally)
    root = next(s for s in spans if s.name == ROOT)
    main = [s for s in spans if s.pid == os.getpid()]
    table = layer_table(main, root.duration)
    tables = [("benchmark process (wall = the traced answer)", table)]
    workers = [s for s in spans if s.pid != os.getpid()]
    if workers:
        pool_s = sum(s.duration for s in spans if s.name == "parallel.sample_cloud_pool")
        tables.append((
            f"pool workers (wall = {WORKERS} workers x time in sample_cloud_pool)",
            layer_table(workers, WORKERS * pool_s),
        ))
    return {
        "spans": spans,
        "tables": tables,
        "graph.build_s": build_s,
        "graph.pack_s": pack_s,
        "graph.open_s": open_s,
        "graph.store_bytes": setup.store_bytes,
        "parallel.blocks": blocks,
        "campaign.unattributed_s": table["unattributed_s"],
        "trace.overhead_share": (result.wall_s - plain.wall_s) / plain.wall_s,
        "workers": WORKERS if spec.engine == "pool" else 1,
    }
