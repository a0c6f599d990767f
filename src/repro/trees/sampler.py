"""Tree sampling (the tree-generation half of Alg. 2).

A :class:`TreeSampler` owns a sampling *method* (BFS, DFS, Wilson) and
a seed, and hands out reproducible independent trees by index: the
``k``-th tree is the same whether sampled alone, in a batch, or on a
different simulated rank — the property the distributed driver
(:mod:`repro.parallel.distributed`) needs for its results to be
bit-identical to the serial driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.perf.registry import get_registry
from repro.rng import SeedLike, freeze_seed, spawn
from repro.trees.bfs import bfs_tree
from repro.trees.degree_aware import degree_aware_bfs_tree
from repro.trees.dfs import dfs_tree
from repro.trees.random_tree import wilson_tree
from repro.trees.swap_chain import SwapChainSampler, swap_method_stub
from repro.trees.tree import SpanningTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trees.batched import TreeBatch

__all__ = ["TreeSampler", "TREE_METHODS"]

TREE_METHODS: dict[str, Callable[..., SpanningTree]] = {
    "bfs": bfs_tree,
    "bfs-low-degree": degree_aware_bfs_tree,
    "dfs": dfs_tree,
    "wilson": wilson_tree,
    # Chain-derived, not an independent draw: TreeSampler routes it
    # through SwapChainSampler; calling the entry directly raises.
    "swap": swap_method_stub,
}


@dataclass(frozen=True)
class TreeSampler:
    """Reproducible indexed sampler of spanning trees.

    Parameters
    ----------
    graph:
        Connected signed graph to sample from.
    method:
        ``"bfs"`` (paper default), ``"dfs"``, or ``"wilson"``.
    seed:
        Root seed; tree *i* uses the ``i``-th spawned child stream.
    root:
        Optional pinned root vertex (default: random per tree).
    swaps_per_state / segment_length:
        Swap-chain knobs, meaningful only for ``method="swap"`` (see
        :mod:`repro.trees.swap_chain`): swaps applied per chain step,
        and how many states share one independently sampled base tree.
    """

    graph: SignedGraph
    method: str = "bfs"
    seed: SeedLike = None
    root: int | None = None
    swaps_per_state: int = 1
    segment_length: int = 256

    def __post_init__(self) -> None:
        if self.method not in TREE_METHODS:
            raise EngineError(
                f"unknown tree method {self.method!r}; known: {sorted(TREE_METHODS)}"
            )
        if self.swaps_per_state < 1:
            raise EngineError("swaps_per_state must be positive")
        if self.segment_length < 1:
            raise EngineError("segment_length must be positive")
        # Freeze the seed so tree(i) is stable regardless of call order,
        # even when constructed with None or a live generator.
        object.__setattr__(self, "seed", freeze_seed(self.seed))

    def swap_chain(self) -> SwapChainSampler:
        """The sampler's swap chain (``method="swap"`` only), created
        lazily and cached across calls so sequential indices advance
        incrementally instead of replaying the segment each time."""
        if self.method != "swap":
            raise EngineError(
                f'method {self.method!r} has no swap chain; use method="swap"'
            )
        chain = getattr(self, "_chain", None)
        if chain is None:
            chain = SwapChainSampler(
                self.graph,
                seed=self.seed,
                root=self.root,
                swaps_per_state=self.swaps_per_state,
                segment_length=self.segment_length,
            )
            object.__setattr__(self, "_chain", chain)
        return chain

    def swap_states(self, indices, start: int = 0):
        """Balanced states ``(signs, s2r)`` straight off the swap chain
        (``method="swap"`` only) — the delta path that replaces
        ``batch()`` + the parity kernel."""
        get_registry().count(
            "trees.sampled_total",
            indices if isinstance(indices, int) else len(list(indices)),
        )
        return self.swap_chain().states(indices, start=start)

    def tree(self, index: int) -> SpanningTree:
        """The *index*-th tree of this sampler's stream."""
        get_registry().count("trees.sampled_total", 1)
        if self.method == "swap":
            return self.swap_chain().tree(index)
        rng = spawn(self.seed, index)
        return TREE_METHODS[self.method](self.graph, root=self.root, seed=rng)

    def trees(self, count: int, start: int = 0) -> Iterator[SpanningTree]:
        """Yield trees ``start .. start + count - 1``."""
        for i in range(start, start + count):
            yield self.tree(i)

    def batch(
        self,
        indices: Sequence[int] | int,
        start: int = 0,
        counters=None,
    ) -> "TreeBatch":
        """The trees at *indices* (or ``start .. start + indices - 1``
        when an int) as a stacked :class:`~repro.trees.batched.TreeBatch`.

        Tree ``i`` of the batch is bit-identical to ``self.tree(i)``.
        The BFS method writes the levels-first kernel's rows straight
        into the stacked arrays (:func:`~repro.trees.batched.sample_bfs_batch`);
        other methods fall back to stacking individually sampled trees.
        """
        from repro.trees.batched import TreeBatch, sample_bfs_batch

        if isinstance(indices, int):
            indices = range(start, start + indices)
        if self.method == "bfs":
            get_registry().count("trees.sampled_total", len(indices))
            return sample_bfs_batch(
                self.graph, self.seed, indices, root=self.root,
                counters=counters,
            )
        # The fallback stacks individually sampled trees; tree() already
        # counts each, so no batch-level count here.
        return TreeBatch.from_trees([self.tree(i) for i in indices])
