"""Randomized breadth-first-search spanning trees.

The paper samples BFS trees because they maximize the number of
minimal-length fundamental cycles (§2.2).  Randomness comes from two
sources, matching the "1000 BFS trees" methodology:

* the root is drawn uniformly (unless pinned), and
* when several frontier vertices could adopt the same undiscovered
  vertex, the winning parent is drawn uniformly among the offers.

Every BFS sampler in the package (:func:`bfs_tree`, the batched
:func:`repro.trees.batched.sample_bfs_batch` and the degree-aware
variant) runs the one *levels-first* kernel :func:`bfs_parents`.  The
levels are a deterministic function of the root, so scipy's C BFS
computes them; only the parent draw is random, and it is one
vectorized pass over the arcs that join consecutive levels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graph.components import bfs_levels
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, as_generator
from repro.trees.tree import SpanningTree

__all__ = ["bfs_tree", "bfs_parents"]


def bfs_parents(
    graph: SignedGraph,
    rng: np.random.Generator,
    root: int | None = None,
    priority: np.ndarray | None = None,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The levels-first kernel: one randomized BFS tree as
    ``(root, parent, parent_edge, level)``, int64 arrays with
    ``parent`` and ``parent_edge`` −1 at the root.

    Draws the root from *rng* unless pinned, computes the levels, and
    takes the *offers* — the arcs ``u → v`` with
    ``level[v] == level[u] + 1``.  Each offer gets one uniform key from a
    single ``rng.random(K)`` call, assigned in (``level[u]``, CSR
    position) order; each vertex adopts the offer with the smallest key,
    ties going to the earliest offer.  With *priority* (one integer per
    vertex) only the offers whose source has the smallest priority
    compete.

    That is exactly the draw sequence of a level-synchronous frontier
    loop that calls ``rng.random`` once per level with the level's
    offers in frontier-then-CSR order: a float64 draw consumes one
    uint64, so ``random(k1)`` then ``random(k2)`` equals
    ``random(k1 + k2)``.
    """
    n = graph.num_vertices
    if root is None:
        root = int(rng.integers(0, n))
    level = bfs_levels(graph.bfs_csgraph, root)
    reached = int(np.count_nonzero(level >= 0))
    if reached != n:
        raise DisconnectedGraphError(
            f"BFS from root {root} reached {reached} of {n} vertices; "
            "extract the largest connected component first"
        )

    source = graph.arc_source
    source_level = level[source]
    offer = np.flatnonzero(level[graph.adj_vertex] == source_level + 1)
    target = graph.adj_vertex[offer]
    keys = np.empty(len(offer), dtype=np.float64)
    # Stable by level keeps CSR order within a level; the narrowest
    # dtype that holds the depth lets numpy radix-sort it.
    draw_order = np.argsort(
        source_level[offer].astype(np.min_scalar_type(level.max())), kind="stable"
    )
    keys[draw_order] = rng.random(len(offer))

    if priority is not None:
        offer_priority = priority[source[offer]]
        best = np.full(n, np.iinfo(offer_priority.dtype).max, dtype=offer_priority.dtype)
        np.minimum.at(best, target, offer_priority)
        keys[offer_priority != best[target]] = np.inf
    best_key = np.full(n, np.inf)
    np.minimum.at(best_key, target, keys)
    win = np.flatnonzero(keys == best_key[target])
    if len(win) > n - 1:
        # An exact key tie: all offers to a vertex share one level, so
        # the earliest offer in the array is the earliest drawn.
        win = win[np.unique(target[win], return_index=True)[1]]

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent[target[win]] = source[offer[win]]
    parent_edge[target[win]] = graph.adj_edge[offer[win]]
    return root, parent, parent_edge, level


def bfs_tree(
    graph: SignedGraph,
    root: int | None = None,
    seed: SeedLike = None,
) -> SpanningTree:
    """Sample a randomized BFS spanning tree of a connected graph.

    Raises :class:`DisconnectedGraphError` if some vertex is not
    reachable from the root.
    """
    root, parent, parent_edge, _ = bfs_parents(graph, as_generator(seed), root)
    return SpanningTree.from_parents(graph, root, parent, parent_edge)
