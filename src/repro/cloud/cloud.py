"""Frustration-cloud accumulation (Alg. 2 and §2.2–2.3).

A *frustration cloud* is the multiset of nearest balanced states reached
from sampled (or, for tiny graphs, all) spanning trees.
:class:`FrustrationCloud` keeps exactly the running statistics the
consensus attributes need in O(n + m) memory; every one is an exact sum,
so a cloud does not depend on how its states were grouped or merged.
Storing unique states is opt-in (Fig. 2's "5 unique states").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.balancer import balance
from repro.core.state import BalanceResult
from repro.errors import NotBalancedError, ReproError
from repro.graph.csr import SignedGraph
from repro.harary.bipartition import (  # noqa: F401 - sides_from_sign_to_root
    HararyBipartition,                   # stays a module attribute for the
    harary_bipartition,                  # perfbench span patches
    sides_from_sign_to_root,
)
from repro.rng import SeedLike, freeze_seed
from repro.trees.enumeration import all_spanning_trees

__all__ = [
    "FrustrationCloud",
    "sample_cloud",
    "exact_cloud",
    "auto_batch_size",
    "BATCHED_KERNELS",
]

#: Kernels whose campaigns run on the tree-batched sign-to-root engine
#: at every batch size, 1 included (it reproduces them bit for bit).
#: ``walk`` runs the per-tree loop and must use ``batch_size=1``.
BATCHED_KERNELS = ("lockstep", "parity")


def auto_batch_size(num_vertices: int) -> int:
    """A good default batch size for a graph of *num_vertices*.

    B sizes only the batched parity kernel's ``(B, n)`` working set;
    it selects no engine and changes no bits (the tree sampler draws
    one tree at a time).  States/sec climbs with B until that working
    set falls out of cache (BENCH_cloud.json: 4000 vertices peak near
    B=32).
    Targeting ``B * n ≈ 2**17`` keeps it near a megabyte, clamped to
    the power-of-two range [8, 64].
    """
    if num_vertices < 1:
        raise ReproError("num_vertices must be positive")
    b = 2**17 // max(num_vertices, 1)
    b = max(8, min(64, b))
    # Round down to a power of two (stable, cache-friendly shapes).
    return 1 << (b.bit_length() - 1)


@dataclass
class FrustrationCloud:
    """Streaming accumulator over nearest balanced states of *graph*.

    ``store_states`` keeps a count per *unique* balanced state (keyed by
    the sign array): needed for Fig. 2, off by default since it costs
    O(m) per unique state.
    """

    graph: SignedGraph
    store_states: bool = False

    num_states: int = 0
    _majority: np.ndarray = field(init=False, repr=False)
    _majority_sq: np.ndarray = field(init=False, repr=False)
    _coalition: np.ndarray = field(init=False, repr=False)
    _edge_preserved: np.ndarray = field(init=False, repr=False)
    _edge_coside: np.ndarray = field(init=False, repr=False)
    _flip_counts: np.ndarray = field(init=False, repr=False)
    _flip_len: int = field(init=False, repr=False)
    _unique: Dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, m = self.graph.num_vertices, self.graph.num_edges
        self._majority = np.zeros(n, dtype=np.float64)
        self._majority_sq = np.zeros(n, dtype=np.float64)
        # Sum of (side size - 1) over the states: an exact integer, so
        # the cloud is the same however its states are grouped and merged.
        self._coalition = np.zeros(n, dtype=np.int64)
        self._edge_preserved = np.zeros(m, dtype=np.int64)
        self._edge_coside = np.zeros(m, dtype=np.int64)
        # A doubling buffer: no per-state list growth.
        self._flip_counts = np.zeros(64, dtype=np.int64)
        self._flip_len = 0
        self._unique = {}

    def _append_flip_counts(self, values: np.ndarray) -> None:
        """Append per-state flip counts, doubling capacity as needed."""
        values = np.asarray(values, dtype=np.int64).ravel()
        need = self._flip_len + len(values)
        if need > len(self._flip_counts):
            capacity = max(len(self._flip_counts), 1)
            while capacity < need:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._flip_len] = self._flip_counts[: self._flip_len]
            self._flip_counts = grown
        self._flip_counts[self._flip_len : need] = values
        self._flip_len = need

    def add_signs(self, signs: np.ndarray) -> HararyBipartition:
        """Fold one balanced state (a length-m sign array) into the cloud.

        Returns the state's Harary bipartition (so callers can reuse it).
        Raises :class:`~repro.errors.NotBalancedError` if *signs* is not
        balanced — the cloud only contains balanced states by definition.
        """
        signs = np.asarray(signs, dtype=np.int8)
        bip = harary_bipartition(self.graph, signs)
        n = self.graph.num_vertices

        delta = bip.in_majority()
        self._majority += delta
        self._majority_sq += delta * delta
        size0, size1 = bip.sizes
        self._coalition += np.where(bip.side == 0, size0, size1) - 1
        self._edge_preserved += signs == self.graph.edge_sign
        self._edge_coside += (
            bip.side[self.graph.edge_u] == bip.side[self.graph.edge_v]
        )
        self._append_flip_counts(
            np.array([np.count_nonzero(signs != self.graph.edge_sign)])
        )
        if self.store_states:
            key = signs.tobytes()
            self._unique[key] = self._unique.get(key, 0) + 1
        self.num_states += 1
        return bip

    def add_result(self, result: BalanceResult) -> HararyBipartition:
        """Fold a :class:`BalanceResult` into the cloud."""
        return self.add_signs(result.signs)

    def add_batch(
        self, signs: np.ndarray, sides: np.ndarray | None = None
    ) -> None:
        """Fold B balanced states at once with matrix reductions.

        Parameters
        ----------
        signs:
            ``(B, m)`` int8 stack of balanced sign arrays (one state
            per row).
        sides:
            Optional ``(B, n)`` stack of Harary sides matching *signs*
            (e.g. from :func:`~repro.harary.bipartition.sides_from_sign_to_root`
            on the batched parity output).  When omitted, each row goes
            through :meth:`add_signs` and its bipartition oracle.

        The accumulator updates are single ``sum(axis=0)`` reductions
        over the batch, so the cloud after ``add_batch`` is exactly the
        cloud after B sequential :meth:`add_signs` calls in row order.
        Raises :class:`~repro.errors.ReproError` for a misshapen batch
        or a side label other than 0/1, and :class:`~repro.errors.
        NotBalancedError` if any row's signs are inconsistent with its
        sides (every positive edge must stay inside a side, every
        negative edge must cross).
        """
        signs = np.asarray(signs, dtype=np.int8)
        if signs.ndim != 2 or signs.shape[1] != self.graph.num_edges:
            raise ReproError(
                f"sign batch has shape {signs.shape}, expected "
                f"(B, {self.graph.num_edges})"
            )
        if sides is None:
            for row in signs:
                self.add_signs(row)
            return
        sides = np.asarray(sides)
        num_new, n = len(signs), self.graph.num_vertices
        if sides.shape != (num_new, n) or np.any((sides != 0) & (sides != 1)):
            raise ReproError(f"side batch must be a ({num_new}, {n}) array of "
                             f"0/1 labels, got shape {sides.shape}")
        sides = sides.astype(np.int8, copy=False)

        coside = sides[:, self.graph.edge_u] == sides[:, self.graph.edge_v]
        if np.any((signs > 0) != coside):
            b = int(np.nonzero(((signs > 0) != coside).any(axis=1))[0][0])
            raise NotBalancedError(
                f"state {b} of the batch is not balanced under its sides"
            )

        size1 = sides.sum(axis=1, dtype=np.int64)
        size0 = n - size1
        # majority side per state: 0, 1, or -1 on ties (δ = 0.5 for all).
        maj = np.where(size0 > size1, 0, np.where(size1 > size0, 1, -1))
        delta = (sides == maj[:, None]).astype(np.float64)
        delta[maj == -1] = 0.5
        self._majority += delta.sum(axis=0)
        self._majority_sq += (delta * delta).sum(axis=0)
        self._coalition += np.where(
            sides == 0, size0[:, None], size1[:, None]
        ).sum(axis=0) - num_new
        self._edge_preserved += (signs == self.graph.edge_sign).sum(axis=0)
        self._edge_coside += coside.sum(axis=0)
        self._append_flip_counts(
            (signs != self.graph.edge_sign).sum(axis=1, dtype=np.int64)
        )
        if self.store_states:
            for row in signs:
                key = row.tobytes()
                self._unique[key] = self._unique.get(key, 0) + 1
        self.num_states += num_new

    # -- attributes (§2.3 / the frustration-cloud paper [33]) ----------
    def _require_states(self) -> None:
        if self.num_states == 0:
            raise ReproError("the cloud is empty; add states first")

    def status(self) -> np.ndarray:
        """Per-vertex status (§2.3): mean of δ_T(v) over the states,
        where δ is 1 in the larger bipartition, 0.5 on ties, 0 else."""
        self._require_states()
        return self._majority / self.num_states

    def influence(self) -> np.ndarray:
        """Per-vertex influence: the expected fraction of the *other*
        vertices that share v's side of the bipartition.

        Documented substitution: the cloud paper [33]'s formula is not
        reproduced in the SC paper, so this is the natural "expected
        coalition size" (0.5-centred, monotone in how often large groups
        side with v).
        """
        self._require_states()
        n = self.graph.num_vertices
        return self._coalition / max(n - 1, 1) / self.num_states

    def edge_agreement(self) -> np.ndarray:
        """Per-edge agreement: fraction of states preserving the edge's
        original sentiment (never-flipped edges score 1.0)."""
        self._require_states()
        return self._edge_preserved / self.num_states

    def vertex_agreement(self) -> np.ndarray:
        """Per-vertex agreement: mean agreement of incident edges."""
        self._require_states()
        edge_agree = self.edge_agreement()
        n = self.graph.num_vertices
        total = np.zeros(n, dtype=np.float64)
        half_agree = edge_agree[self.graph.adj_edge]
        src = np.repeat(np.arange(n), self.graph.degrees)
        np.add.at(total, src, half_agree)
        deg = self.graph.degrees
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(deg > 0, total / np.maximum(deg, 1), 0.0)
        return out

    def edge_coside(self) -> np.ndarray:
        """Per-edge co-side probability: fraction of states in which the
        edge's endpoints share a Harary side (the signal the community
        metrics in :mod:`repro.cloud.metrics` build on)."""
        self._require_states()
        return self._edge_coside / self.num_states

    def status_volatility(self) -> np.ndarray:
        """Per-vertex variance of the majority-membership score δ_T(v)
        across states — 0 for vertices always (or never) in the
        majority, maximal (0.25) for coin-flip vertices."""
        self._require_states()
        mean = self._majority / self.num_states
        mean_sq = self._majority_sq / self.num_states
        return np.maximum(mean_sq - mean * mean, 0.0)

    def frustration_upper_bound(self) -> int:
        """Minimum flip count over the sampled states — an upper bound
        on (and for exhaustive clouds, equal to) the frustration index
        L(Σ) *restricted to tree-based nearest states*."""
        self._require_states()
        return int(self._flip_counts[: self._flip_len].min())

    def flip_counts(self) -> np.ndarray:
        """Flip count of every ingested state, in ingestion order."""
        return self._flip_counts[: self._flip_len].copy()

    def merge(self, other: "FrustrationCloud") -> None:
        """Fold another cloud over the *same* graph into this one: the
        reduction step of the campaign drivers, identical to one cloud
        over the union of their states."""
        from repro.graph.validation import assert_same_structure

        assert_same_structure(self.graph, other.graph)
        if self.store_states != other.store_states:
            raise ReproError("cannot merge clouds with different store_states")
        self._majority += other._majority
        self._majority_sq += other._majority_sq
        self._coalition += other._coalition
        self._edge_preserved += other._edge_preserved
        self._edge_coside += other._edge_coside
        self._append_flip_counts(other.flip_counts())
        if self.store_states:
            for key, count in other._unique.items():
                self._unique[key] = self._unique.get(key, 0) + count
        self.num_states += other.num_states

    def unique_states(self) -> Dict[bytes, int]:
        """Multiplicity per unique balanced state (requires
        ``store_states=True``)."""
        if not self.store_states:
            raise ReproError("cloud was built with store_states=False")
        return dict(self._unique)

    @property
    def num_unique_states(self) -> int:
        """Number of distinct balanced states seen."""
        if not self.store_states:
            raise ReproError("cloud was built with store_states=False")
        return len(self._unique)


def sample_cloud(
    graph: SignedGraph,
    num_states: int,
    method: str = "bfs",
    kernel: str = "lockstep",
    seed: SeedLike = None,
    store_states: bool = False,
    batch_size: int | str = 1,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    keep_checkpoints: int = 1,
    swaps_per_state: int = 1,
    graph_store=None,
) -> FrustrationCloud:
    """Alg. 2: sample ``num_states`` spanning trees, balance each, and
    accumulate the Harary bipartitions into a cloud, in-process.

    Kernels in :data:`BATCHED_KERNELS` run the tree-batched engine;
    ``batch_size`` (or ``"auto"``, see :func:`auto_batch_size`) only
    sizes its kernel calls, so every batch size gives the same cloud.
    ``kernel="walk"`` balances tree by tree and raises with a batch.
    ``method="swap"`` runs the swap-chain engine
    (:mod:`repro.trees.swap_chain`), deterministic in the seed but only
    statistically equivalent to BFS clouds (see EXPERIMENTS.md).

    ``checkpoint_path`` writes an atomic, self-describing checkpoint
    (rotating ``keep_checkpoints`` files) every ``checkpoint_every``
    states and at the end, for :func:`~repro.cloud.checkpoint.
    resume_cloud`; ``graph_store`` (a store holding *graph*, or its
    path) is recorded there.  Invalid parameters raise
    :class:`~repro.errors.EngineError`.
    """
    from repro.cloud.checkpoint import CampaignMeta
    from repro.parallel.pool import run_campaign

    spec = CampaignMeta.build(
        graph, method=method, kernel=kernel, seed=freeze_seed(seed),
        batch_size=batch_size, store_states=store_states,
        swaps_per_state=swaps_per_state, graph_store=graph_store,
    )
    return run_campaign(
        graph, spec, num_states, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, keep_checkpoints=keep_checkpoints,
        driver="sequential",
    )


def exact_cloud(graph: SignedGraph, root: int = 0) -> FrustrationCloud:
    """The exhaustive cloud over *all* spanning trees (tiny graphs
    only): the Fig. 1–3 anchors (8 trees, 5 unique states)."""
    cloud = FrustrationCloud(graph, store_states=True)
    for tree in all_spanning_trees(graph, root=root):
        result = balance(graph, tree, kernel="lockstep")
        cloud.add_result(result)
    return cloud
