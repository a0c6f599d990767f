"""Reference implementations the package code must reproduce bit for bit.

* The frontier-loop component labeling and the DFS 2-coloring that
  :mod:`repro.graph.components` and :mod:`repro.harary.bipartition`
  once ran themselves.
* :func:`per_tree_cloud`, the frustration cloud built tree by tree with
  no campaign code: the oracle every campaign mode is compared with.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cloud.cloud import FrustrationCloud
from repro.core.balancer import balance
from repro.errors import NotBalancedError
from repro.graph.csr import SignedGraph
from repro.trees.sampler import TreeSampler
from repro.util.arrays import gather_adjacency


def per_tree_cloud(
    graph: SignedGraph,
    states: int | Iterable[int],
    seed: int,
    method: str = "bfs",
    kernel: str = "lockstep",
    *,
    store_states: bool = False,
) -> FrustrationCloud:
    """The cloud of tree indices *states* (an int ``n`` means
    ``range(n)``), one tree at a time: ``TreeSampler.tree(i)``,
    ``balance(kernel=...)``, and ``FrustrationCloud.add_result``, whose
    Harary bipartition is the independent oracle.  No block executor,
    batch, sign-to-root side or campaign spec is involved.
    """
    sampler = TreeSampler(graph, method=method, seed=seed)
    cloud = FrustrationCloud(graph, store_states=store_states)
    for i in range(states) if isinstance(states, int) else states:
        cloud.add_result(balance(graph, sampler.tree(i), kernel=kernel))
    return cloud


def frontier_components(
    graph: SignedGraph, keep: np.ndarray | None = None
) -> np.ndarray:
    """Component labels by a seed-in-id-order vectorized frontier BFS,
    over the half-edges where *keep* is true (all of them by default).
    Ids are consecutive and ordered by each component's smallest vertex.
    """
    n = graph.num_vertices
    label = np.full(n, -1, dtype=np.int64)
    comp = 0
    for seed in range(n):
        if label[seed] != -1:
            continue
        label[seed] = comp
        frontier = np.array([seed], dtype=np.int64)
        while len(frontier):
            offsets, _ = gather_adjacency(graph.indptr, frontier)
            if keep is not None:
                offsets = offsets[keep[offsets]]
            if len(offsets) == 0:
                break
            nbrs = graph.adj_vertex[offsets]
            fresh = nbrs[label[nbrs] == -1]
            if len(fresh) == 0:
                break
            fresh = np.unique(fresh)
            label[fresh] = comp
            frontier = fresh
        comp += 1
    return label


def dfs_harary(graph: SignedGraph, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(side, components)`` of a balanced state: positive components,
    then a stack-driven DFS 2-coloring of the collapsed negative-edge
    graph seeded at each uncolored super-vertex in id order, vertex 0
    normalized onto side 0.  Raises :class:`NotBalancedError` with the
    package's messages on unbalanced input.
    """
    n = graph.num_vertices
    comp = frontier_components(graph, signs[graph.adj_edge] > 0)
    num_comp = int(comp.max() + 1) if n else 0

    neg = np.nonzero(signs < 0)[0]
    cu = comp[graph.edge_u[neg]]
    cv = comp[graph.edge_v[neg]]
    inside = cu == cv
    if np.any(inside):
        e = int(neg[np.nonzero(inside)[0][0]])
        raise NotBalancedError(
            f"negative edge {e} connects vertices of the same positive "
            "component; the sign assignment is not balanced"
        )

    side_of_comp = np.full(num_comp, -1, dtype=np.int8)
    adj: list[list[int]] = [[] for _ in range(num_comp)]
    for a, b in zip(cu.tolist(), cv.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    for seed in range(num_comp):
        if side_of_comp[seed] != -1:
            continue
        side_of_comp[seed] = 0
        stack = [seed]
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if side_of_comp[d] == -1:
                    side_of_comp[d] = 1 - side_of_comp[c]
                    stack.append(d)
                elif side_of_comp[d] == side_of_comp[c]:
                    raise NotBalancedError(
                        "collapsed negative-edge graph contains an odd "
                        "cycle; the sign assignment is not balanced"
                    )

    side = side_of_comp[comp]
    if n and side[0] == 1:
        side = (1 - side).astype(np.int8)
    return side.astype(np.int8), comp
