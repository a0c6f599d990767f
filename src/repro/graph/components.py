"""Connected-component labeling, BFS levels and largest-component
extraction.

The paper processes only the largest connected component of each input
(Table 1 reports component sizes, not whole-input sizes).  Both graph
traversals here run in scipy's C ``csgraph`` kernels over the cached
:attr:`SignedGraph.bfs_csgraph`; :func:`bfs_levels` is the one BFS-level
routine behind the tree sampler, the Harary 2-coloring and the diameter
estimates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import connected_components as _cc_labels

from repro.errors import EngineError
from repro.graph.build import csr_from_undirected
from repro.graph.csr import SignedGraph

__all__ = [
    "bfs_levels",
    "connected_components",
    "num_connected_components",
    "largest_connected_component",
    "component_sizes",
]


def bfs_levels(csgraph, root: int) -> np.ndarray:
    """BFS depth of every vertex of a scipy CSR adjacency from *root*
    (int64, −1 where unreachable).

    scipy's C BFS returns the visit order and predecessors; the levels
    are recovered from them in O(depth) vectorized steps.
    """
    n = csgraph.shape[0]
    if not 0 <= root < n:
        # scipy's C BFS does not bound-check the start vertex.
        raise EngineError(f"root {root} is not a vertex of a {n}-vertex graph")
    order, pred = breadth_first_order(
        csgraph, root, directed=True, return_predecessors=True
    )
    # A FIFO BFS enqueues children in the order it dequeues parents, so
    # the queue position of each vertex's predecessor never decreases
    # along ``order``: level d + 1 ends right after the last vertex
    # whose predecessor lies in levels 0..d.  O(depth) binary searches.
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(len(order))
    pred_pos = pos[pred[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(1 + int(np.searchsorted(pred_pos, ends[-1])))
    level = np.full(n, -1, dtype=np.int64)
    level[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return level


def connected_components(graph: SignedGraph) -> np.ndarray:
    """Label each vertex with its component id (0-based, dense).

    Component ids are assigned in order of the smallest vertex they
    contain, so the labeling is deterministic: scipy's undirected
    labeling seeds a traversal at every unlabeled vertex in id order.
    """
    return _cc_labels(graph.bfs_csgraph, directed=False)[1].astype(np.int64)


def num_connected_components(graph: SignedGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    if graph.num_vertices == 0:
        return 0
    return int(connected_components(graph).max() + 1)


def component_sizes(graph: SignedGraph) -> np.ndarray:
    """Vertex count of each component, indexed by component id."""
    label = connected_components(graph)
    return np.bincount(label)


def largest_connected_component(
    graph: SignedGraph,
) -> Tuple[SignedGraph, np.ndarray]:
    """Extract the largest connected component as its own graph.

    Returns ``(subgraph, old_ids)`` where ``old_ids[i]`` is the original
    vertex id of the subgraph's vertex ``i``.  Ties between equally
    large components go to the one containing the smallest vertex id.
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    label = connected_components(graph)
    sizes = np.bincount(label)
    target = int(sizes.argmax())
    keep = np.nonzero(label == target)[0]
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))

    mask = (label[graph.edge_u] == target) & (label[graph.edge_v] == target)
    eu = remap[graph.edge_u[mask]]
    ev = remap[graph.edge_v[mask]]
    es = graph.edge_sign[mask]
    # Canonical orientation may flip after remapping.
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    sub = csr_from_undirected(len(keep), lo[order], hi[order], es[order])
    return sub, keep
