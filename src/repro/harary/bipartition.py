"""Harary bipartitioning of balanced states (§3, Fig. 6(h–i)).

For a balanced graph the vertices split into two camps such that every
positive edge stays inside a camp and every negative edge crosses —
the *Harary bipartition*.  The paper computes it by

1. ignoring the negative edges and labeling the connected components
   (the "agreement islands", Fig. 6(h)),
2. collapsing each component to a super-vertex and 2-coloring the
   collapsed graph with a BFS: even levels form one side, odd levels
   the other (Fig. 6(i)).

Both traversals run in scipy's C ``csgraph`` kernels; the tests hold
them bit for bit to a plain-Python DFS and component loop
(``tests/references.py``).

For a *balanced* input the collapsed graph is bipartite by
construction; :func:`harary_bipartition` verifies this and raises
:class:`NotBalancedError` otherwise, so it doubles as a balance check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import NotBalancedError
from repro.graph.components import bfs_levels
from repro.graph.csr import SignedGraph, symmetric_csgraph
from repro.perf.compat import Counters

__all__ = [
    "HararyBipartition",
    "harary_bipartition",
    "positive_components",
    "sides_from_sign_to_root",
]


@dataclass(frozen=True)
class HararyBipartition:
    """A two-coloring of a balanced state.

    ``side`` assigns each vertex 0 or 1.  Side ids are normalized so
    vertex 0's component is on side 0, making equal states produce
    identical arrays.  ``components`` is the positive-subgraph
    component labeling from which the bipartition was built.
    """

    side: np.ndarray
    components: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.side)

    @cached_property
    def sizes(self) -> tuple[int, int]:
        """(|side 0|, |side 1|)."""
        ones = int(self.side.sum())
        return len(self.side) - ones, ones

    @cached_property
    def majority_side(self) -> int:
        """0 or 1: the larger side; ties return -1 (paper scores ties
        as δ = 0.5 for *both* sides in the status computation)."""
        a, b = self.sizes
        if a == b:
            return -1
        return 0 if a > b else 1

    def in_majority(self) -> np.ndarray:
        """Per-vertex status contribution δ_T(v): 1.0 for the larger
        side, 0.5 on ties, 0.0 otherwise (§2.3)."""
        maj = self.majority_side
        if maj == -1:
            return np.full(len(self.side), 0.5)
        return (self.side == maj).astype(np.float64)

    def key(self) -> bytes:
        """Hashable identity of the bipartition."""
        return self.side.tobytes()


def _check_signs(graph: SignedGraph, signs: np.ndarray | None) -> np.ndarray:
    """Normalize and validate an optional external sign array."""
    if signs is None:
        return graph.edge_sign
    signs = np.asarray(signs, dtype=np.int8)
    if signs.shape != (graph.num_edges,):
        raise NotBalancedError(
            f"sign array has shape {signs.shape}, expected ({graph.num_edges},)"
        )
    return signs


def positive_components(
    graph: SignedGraph, signs: np.ndarray | None = None
) -> np.ndarray:
    """Component labels of the subgraph keeping only positive edges.

    Masks the cached :attr:`SignedGraph.bfs_csgraph` down to its
    positive half-edges and labels it with scipy's C
    ``connected_components``.  Labels are consecutive and ordered by
    each component's smallest vertex id, like a seed-in-id-order BFS.
    """
    signs = _check_signs(graph, signs)
    keep = signs[graph.adj_edge] > 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    positive = symmetric_csgraph(graph.bfs_csgraph.indices[keep], kept[graph.indptr])
    return connected_components(positive, directed=False)[1].astype(np.int64)


def sides_from_sign_to_root(s2r: np.ndarray) -> np.ndarray:
    """Harary sides straight from a balanced state's sign-to-root vector.

    For the balanced state of tree T, the sign of every edge equals
    ``s2r[u] * s2r[v]``, so positive edges join equal-``s2r`` vertices
    and negative edges join opposite ones — the two ``s2r`` sign
    classes *are* the Harary bipartition, which for a connected graph
    is unique up to a side swap.  Normalizing vertex 0 onto side 0
    therefore reproduces :func:`harary_bipartition`'s ``side`` array
    exactly, in O(n) with no positive-component BFS or collapsed-graph
    2-coloring (that oracle remains as the correctness check in the
    tests).

    Accepts a single ``(n,)`` vector or a stacked ``(B, n)`` batch;
    the output has the matching shape.
    """
    s2r = np.asarray(s2r, dtype=np.int8)
    ref = s2r[..., :1]  # each state's vertex 0, broadcast over the row
    return (s2r != ref).astype(np.int8)


def _two_color(cu: np.ndarray, cv: np.ndarray, num_comp: int) -> np.ndarray:
    """BFS-level parity of the collapsed graph with edges ``(cu, cv)``
    over *num_comp* super-vertices: even levels on side 0.

    Each collapsed component is searched from its smallest
    super-vertex.  One BFS covers them all: a virtual root (id
    *num_comp*) points at every component's smallest member, so those
    sit on level 1 and ``level - 1`` is the per-component BFS depth.
    """
    src = np.concatenate([cu, cv])
    dst = np.concatenate([cv, cu])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=num_comp))])
    # The narrowest dtype that holds the ids lets numpy radix-sort them.
    order = np.argsort(src.astype(np.min_scalar_type(num_comp)), kind="stable")
    indices = dst[order]
    label = connected_components(
        symmetric_csgraph(indices, indptr), directed=False
    )[1]
    seeds = np.unique(label, return_index=True)[1]
    rooted = csr_matrix(
        (
            np.ones(len(indices) + len(seeds)),
            np.concatenate([indices, seeds]).astype(np.int32),
            np.append(indptr, indptr[-1] + len(seeds)).astype(np.int32),
        ),
        shape=(num_comp + 1, num_comp + 1),
    )
    level = bfs_levels(rooted, num_comp)[:num_comp]
    return ((level - 1) & 1).astype(np.int8)


def harary_bipartition(
    graph: SignedGraph,
    signs: np.ndarray | None = None,
    counters: Counters | None = None,
) -> HararyBipartition:
    """Compute the Harary bipartition of a balanced state.

    Parameters
    ----------
    graph:
        The structure; must be connected for the bipartition to be
        unique (up to side swap).
    signs:
        Balanced sign array to use instead of ``graph.edge_sign``
        (lets callers avoid materializing a :class:`SignedGraph` per
        balanced state).

    Raises
    ------
    NotBalancedError
        If some negative edge fails to cross the induced cut, i.e. the
        signs are not balanced.
    """
    n = graph.num_vertices
    use_signs = _check_signs(graph, signs)
    comp = positive_components(graph, use_signs)
    num_comp = int(comp.max() + 1) if n else 0
    if counters is not None:
        counters.parallel_region("harary.components", n)

    # Collapse: negative edges become edges between super-vertices.
    neg = np.nonzero(use_signs < 0)[0]
    cu = comp[graph.edge_u[neg]]
    cv = comp[graph.edge_v[neg]]
    inside = cu == cv
    if np.any(inside):
        e = int(neg[np.nonzero(inside)[0][0]])
        raise NotBalancedError(
            f"negative edge {e} connects vertices of the same positive "
            "component; the sign assignment is not balanced"
        )

    side_of_comp = _two_color(cu, cv, num_comp)
    if np.any(side_of_comp[cu] == side_of_comp[cv]):
        raise NotBalancedError(
            "collapsed negative-edge graph contains an odd "
            "cycle; the sign assignment is not balanced"
        )
    if counters is not None:
        counters.parallel_region("harary.two_coloring", num_comp)

    side = side_of_comp[comp]
    # Normalize: vertex 0 on side 0.
    if n and side[0] == 1:
        side = (1 - side).astype(np.int8)
    return HararyBipartition(side=side.astype(np.int8), components=comp)
