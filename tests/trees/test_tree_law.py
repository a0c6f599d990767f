"""Exact tree laws: sampled spanning-tree frequencies against the law
each method claims, by a χ² goodness-of-fit test on tiny graphs.

* ``method="bfs"`` (paper §2.2): a uniform root, then every non-root
  vertex picks its parent uniformly among its neighbours one level
  closer to the root.  A spanning tree's probability is therefore
  ``1/n · Σ_root Π_v 1/#offers(v)`` over the roots from which it is a
  BFS tree (every tree edge joins consecutive distance levels), and 0
  for every other tree.
* ``method="wilson"``: uniform over all spanning trees.

Every spanning tree is enumerated with :mod:`repro.trees.enumeration`
and its probability computed exactly; the seed is fixed, so the test is
deterministic.
"""

from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.graph.build import from_edges
from repro.graph.datasets import fig1_sigma
from repro.graph.generators import grid_graph
from repro.trees import TreeSampler
from repro.trees.enumeration import all_spanning_trees, tree_from_edge_ids

SAMPLES = 3000
MIN_EXPECTED = 5  # χ² is only trustworthy when every expected count is ≥ 5


def _house():
    """A square 0-1-2-3 with a roof vertex 4 on the edge 0-1."""
    return from_edges(
        [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 0, 1), (0, 4, 1), (1, 4, -1)]
    )


GRAPHS = {
    "fig1": fig1_sigma,
    "grid2x3": lambda: grid_graph(2, 3, seed=0),
    "house": _house,
}


def _distances(graph, root):
    dist = [-1] * graph.num_vertices
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(int(w))
    return dist


def _bfs_probability(graph, edge_ids):
    n = graph.num_vertices
    total = Fraction(0)
    for root in range(n):
        dist = _distances(graph, root)
        tree = tree_from_edge_ids(graph, edge_ids, root=root)
        prob = Fraction(1, n)
        for v in range(n):
            if v == root:
                continue
            if dist[int(tree.parent[v])] != dist[v] - 1:
                prob = Fraction(0)
                break
            offers = sum(dist[int(u)] == dist[v] - 1 for u in graph.neighbors(v))
            prob /= offers
        total += prob
    return total


def _exact_law(graph, method):
    trees = [tuple(t.tree_edge_ids()) for t in all_spanning_trees(graph)]
    if method == "wilson":
        return {key: Fraction(1, len(trees)) for key in trees}
    return {key: _bfs_probability(graph, key) for key in trees}


@pytest.mark.parametrize("method", ["bfs", "wilson"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sampled_trees_follow_exact_law(name, method):
    graph = GRAPHS[name]()
    law = _exact_law(graph, method)
    assert sum(law.values()) == 1
    support = sorted(key for key, p in law.items() if p > 0)
    assert min(law[key] for key in support) * SAMPLES >= MIN_EXPECTED

    sampler = TreeSampler(graph, method=method, seed=2024)
    seen = Counter(tuple(sampler.tree(i).tree_edge_ids()) for i in range(SAMPLES))
    assert set(seen) <= set(support), "sampled a tree the law gives probability 0"

    observed = np.array([seen[key] for key in support], dtype=float)
    expected = np.array([float(law[key]) * SAMPLES for key in support])
    _stat, p_value = chisquare(observed, expected)
    assert p_value > 1e-3, (name, method, p_value)


def test_bfs_and_uniform_laws_differ_on_the_grid():
    """On the 2×3 grid the BFS law is non-uniform and leaves trees out —
    the two laws the test distinguishes really differ."""
    graph = grid_graph(2, 3, seed=0)
    bfs, wilson = _exact_law(graph, "bfs"), _exact_law(graph, "wilson")
    assert set(bfs) == set(wilson)
    assert 0 < sum(p > 0 for p in bfs.values()) < len(bfs)
    assert len(set(p for p in bfs.values() if p > 0)) > 1
