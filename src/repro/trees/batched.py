"""Batched spanning-tree sampling: B trees in stacked ``(B, n)`` arrays.

The paper's key performance observation (§3.3) is that cycle processing
is embarrassingly parallel *across trees* — Alg. 2 samples 1000
independent BFS trees.  In pure NumPy the analog of launching one GPU
grid per tree is stacking B trees into ``(B, n)`` arrays so the batched
parity kernel (:mod:`repro.core.parity_batch`) processes all of them in
the same vectorized operations.

Each tree is drawn by the levels-first kernel
:func:`repro.trees.bfs.bfs_parents`, whose per-tree cost is a C BFS and
a few passes over the arcs with no per-level interpreter loop, so
:func:`sample_bfs_batch` simply runs it once per tree index.  Tree
``i`` draws from the ``i``-th spawned child stream, which makes the
batch bit-identical, tree index by tree index, to
:meth:`repro.trees.sampler.TreeSampler.tree` with the same seed — the
equivalence that lets the batched cloud engine, which every lockstep
and parity campaign runs at any batch size (it only sizes a kernel
call), reproduce the per-tree cloud attribute for attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.trees.bfs import bfs_parents
from repro.trees.tree import SpanningTree

__all__ = ["TreeBatch", "sample_bfs_batch", "spawn_batch"]


@dataclass(frozen=True)
class TreeBatch:
    """B rooted spanning trees of one graph in stacked arrays.

    Row ``b`` of every array describes one spanning tree exactly as the
    corresponding fields of :class:`~repro.trees.tree.SpanningTree`
    would: ``parent[b, v]`` is the BFS parent of ``v`` (−1 at the
    root), ``parent_edge[b, v]`` the undirected edge id to that parent,
    ``level_of[b, v]`` the BFS depth.
    """

    roots: np.ndarray        # (B,) root vertex per tree
    parent: np.ndarray       # (B, n)
    parent_edge: np.ndarray  # (B, n)
    level_of: np.ndarray     # (B, n)

    @property
    def num_trees(self) -> int:
        return len(self.roots)

    @property
    def num_vertices(self) -> int:
        return self.parent.shape[1]

    @property
    def num_levels(self) -> int:
        """Deepest level across the batch, plus one."""
        return int(self.level_of.max()) + 1 if self.level_of.size else 0

    @cached_property
    def flat_levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, level_ptr)`` over *flattened* tree-vertex ids.

        ``order`` lists all ``B * n`` flattened ids (``b * n + v``)
        sorted by BFS level; ``level_ptr[l] : level_ptr[l + 1]`` slices
        the ids at level ``l`` across every tree in the batch — the
        iteration structure of the batched top-down parity pass.
        """
        flat = self.level_of.ravel()
        order = np.argsort(flat, kind="stable").astype(np.int64)
        counts = np.bincount(flat, minlength=self.num_levels)
        level_ptr = np.zeros(self.num_levels + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        return order, level_ptr

    @cached_property
    def flat_parent(self) -> np.ndarray:
        """Flattened parent pointers: ``b * n + parent[b, v]`` (−1 kept
        at the roots), indexable against any ``(B * n,)`` array."""
        offsets = np.arange(self.num_trees, dtype=np.int64)[:, None]
        flat = self.parent + offsets * self.num_vertices
        flat[self.parent < 0] = -1
        return flat.ravel()

    def to_tree(self, graph: SignedGraph, b: int) -> SpanningTree:
        """Materialize tree *b* as a validated :class:`SpanningTree`."""
        return SpanningTree.from_parents(
            graph, int(self.roots[b]), self.parent[b], self.parent_edge[b]
        )

    @classmethod
    def from_trees(cls, trees: Sequence[SpanningTree]) -> "TreeBatch":
        """Stack individually sampled trees (the non-BFS fallback)."""
        if not trees:
            raise EngineError("cannot build an empty TreeBatch")
        return cls(
            roots=np.asarray([t.root for t in trees], dtype=np.int64),
            parent=np.stack([t.parent for t in trees]),
            parent_edge=np.stack([t.parent_edge for t in trees]),
            level_of=np.stack([t.level_of for t in trees]),
        )


def spawn_batch(seed: int, indices: Sequence[int]) -> list[np.random.Generator]:
    """Child generators for the given tree indices, identical to
    ``[repro.rng.spawn(seed, i) for i in indices]``.

    ``SeedSequence(seed).spawn(k)[i]`` is by construction
    ``SeedSequence(seed, spawn_key=(i,))``, so only the requested
    children are built — a resumed block ``[9000, 9032)`` costs 32
    SeedSequence constructions, not 9032 spawns.
    """
    indices = list(indices)
    if not indices:
        return []
    if min(indices) < 0:
        raise EngineError("tree indices must be non-negative")
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in indices
    ]


def sample_bfs_batch(
    graph: SignedGraph,
    seed: int,
    indices: Sequence[int],
    root: int | None = None,
    counters: Counters | None = None,
) -> TreeBatch:
    """Sample the randomized BFS trees for the given indices.

    Tree-by-tree the output is bit-identical to
    ``bfs_tree(graph, root=root, seed=spawn(seed, i))`` because both run
    the levels-first kernel :func:`repro.trees.bfs.bfs_parents` on the
    same child stream; the batch only stacks the rows.
    """
    n = graph.num_vertices
    rngs = spawn_batch(seed, indices)
    num_trees = len(rngs)
    if num_trees == 0:
        raise EngineError("need at least one tree index")

    roots = np.empty(num_trees, dtype=np.int64)
    parent = np.empty((num_trees, n), dtype=np.int64)
    parent_edge = np.empty((num_trees, n), dtype=np.int64)
    level = np.empty((num_trees, n), dtype=np.int64)
    for b, rng in enumerate(rngs):
        roots[b], parent[b], parent_edge[b], level[b] = bfs_parents(graph, rng, root)
    if counters is not None:
        # One region per BFS round, sized by the vertices the round
        # discovers across the batch.
        for discovered in np.bincount(level.ravel())[1:]:
            counters.parallel_region("batch.bfs_round", int(discovered))
    return TreeBatch(roots=roots, parent=parent, parent_edge=parent_edge, level_of=level)
