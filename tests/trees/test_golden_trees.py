"""Golden BFS trees: SHA-256 pins of every BFS sampler's exact output.

The hashes were taken from the frontier-loop samplers (one expansion
loop per sampler, one tie-break draw per level) before the shared
levels-first kernel replaced them.  The batched ≡ sequential tests now
compare that kernel with itself, so these pins are the independent
check that every tree — root, parent, parent edge and level — is still
bit-identical: same RNG consumption, same tie-breaks.

An intentional change to the tree law or RNG consumption must update
the constants deliberately; regenerate them with
``{key: _case_hashes(key) for key in GOLDEN}``.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.components import largest_connected_component
from repro.graph.generators import (
    chung_lu_signed,
    cycle_graph,
    ensure_connected,
    erdos_renyi_signed,
    grid_graph,
)
from repro.trees import TreeSampler, bfs_tree, degree_aware_bfs_tree
from repro.trees.batched import sample_bfs_batch

SEED = 11


def _graph(name):
    if name == "er":
        return ensure_connected(erdos_renyi_signed(300, 900, seed=5), seed=5)
    if name == "powerlaw":
        return largest_connected_component(
            chung_lu_signed(1500, 5000, exponent=1.9, seed=0)
        )[0]
    if name == "grid":
        return grid_graph(12, 9, seed=3)
    if name == "cycle":  # depth 150: levels beyond an int8
        return cycle_graph([1] * 301)
    raise KeyError(name)


def _stack(trees):
    return (
        np.stack([t.parent for t in trees]),
        np.stack([t.parent_edge for t in trees]),
        np.stack([t.level_of for t in trees]),
    )


def _batch(graph, indices, root=None):
    batch = sample_bfs_batch(graph, SEED, indices, root=root)
    return batch.parent, batch.parent_edge, batch.level_of


def _arrays(graph, case):
    if case == "bfs_tree":
        sampler = TreeSampler(graph, seed=SEED)
        return _stack([sampler.tree(i) for i in range(6)] + [bfs_tree(graph, root=0, seed=7)])
    if case == "batch_contiguous":
        return _batch(graph, range(8))
    if case == "batch_strided":
        return _batch(graph, range(3, 30, 4))
    if case == "batch_offset":
        return _batch(graph, range(100, 105))
    if case == "batch_pinned_root":
        return _batch(graph, range(4), root=1)
    if case == "bfs_low_degree":
        sampler = TreeSampler(graph, method="bfs-low-degree", seed=SEED)
        return _stack(
            [sampler.tree(i) for i in range(6)]
            + [degree_aware_bfs_tree(graph, seed=3, prefer="high")]
        )
    raise KeyError(case)


def _case_hashes(key):
    graph_name, case = key
    return tuple(
        hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()[:16]
        for a in _arrays(_graph(graph_name), case)
    )


#: (graph, case) -> (parent, parent_edge, level_of) hash prefixes.
GOLDEN = {
    ('er', 'bfs_tree'): ('097e5ba44a0d9af2', '2fb8590ad3cebefc', 'c8ce1beccd20a79c'),
    ('er', 'batch_contiguous'): ('2a741baa23c09a1a', '5fe8e743b94ce93e', '2cef39b35885b84f'),
    ('er', 'batch_strided'): ('81d0a2f5b4c4104e', '186c0d277e0d5205', '21e0023f99dc262f'),
    ('er', 'batch_offset'): ('02e0fafd9f6d08a6', '1152cfc44a95eb5b', 'f1d45711034d2273'),
    ('er', 'batch_pinned_root'): ('df41b61bd637a538', '2d78698ce8879a38', '183298e0694f7607'),
    ('er', 'bfs_low_degree'): ('ab94e904438a5970', '1b4674df26aff391', '24b7dd58228d278a'),
    ('powerlaw', 'bfs_tree'): ('d3842de16fda9cd5', '018ed7bc082e1388', 'fd4d1841955a304e'),
    ('powerlaw', 'batch_contiguous'): ('e93119c85c325552', '13924836c1d67fcd', '5d67adeb56bbc413'),
    ('powerlaw', 'batch_strided'): ('123fbb0d1a0344bb', 'd4bde02b4e0613c3', 'b064fbe20187c8b1'),
    ('powerlaw', 'batch_offset'): ('bd7092b9b55c7fc8', '193fbbaa7fa7590c', 'f90738d82c604377'),
    ('powerlaw', 'batch_pinned_root'): ('5e82b5da40392972', 'ad38f450686f1ebb', '10897b872afb1bfa'),
    ('powerlaw', 'bfs_low_degree'): ('4ef23cc2fc230e58', 'a741ec37bc3a4068', '9b129b4d2d22229a'),
    ('grid', 'bfs_tree'): ('ddd5015ecff9c197', '4249550a1317f802', '28b971ba4d31a066'),
    ('grid', 'batch_contiguous'): ('6b0f02878f722e94', 'a619ba9b51017058', 'fe5f65c30a422ba8'),
    ('grid', 'batch_strided'): ('356f301bfc7e49ce', '978d7917206ee1ac', '34da597ebce8b867'),
    ('grid', 'batch_offset'): ('06a8438d53b6005c', 'e1b13dc40e85b07a', 'c22576dd848d9b35'),
    ('grid', 'batch_pinned_root'): ('2efd5a17456c4600', '787ed9baa2d37e63', '3e6051cba69b6381'),
    ('grid', 'bfs_low_degree'): ('7be9156165090276', 'b6db2cd97f81ffb1', 'ba0061084a647669'),
    ('cycle', 'bfs_tree'): ('fe58c92d58843bb0', '83dd6a6149e623d6', '57aaa7efdfaae54c'),
    ('cycle', 'batch_contiguous'): ('b82f239d8e4443fc', 'd34096b35f10ea92', '132debbe24e42f2b'),
    ('cycle', 'batch_strided'): ('e7d1efd562e77c9c', '1c03b0b33ebe7dfd', '23132ea0a7d9788f'),
    ('cycle', 'batch_offset'): ('5a331af2756fd343', 'c757a4246cb0acfc', '97413aa315ceae6e'),
    ('cycle', 'batch_pinned_root'): ('e8925e9dbd495a4b', 'f693585f2e5a4a16', '0d5fcc451e4c2937'),
    ('cycle', 'bfs_low_degree'): ('3cf9bc9341ecaa3f', '69f6a8759bc34ec1', '2681f53fcd979e13'),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_trees_match_golden_hashes(key):
    assert _case_hashes(key) == GOLDEN[key]


class CoarseKeys:
    """A generator stand-in whose uniform keys take four values, so
    exact key ties — far too rare to meet with real float64 draws —
    happen at most vertices."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, low, high):
        return self._rng.integers(low, high)

    def random(self, size):
        return np.floor(self._rng.random(size) * 4) / 4


def _frontier_reference(graph, rng, root, priority):
    """The per-level frontier loop in plain Python: the level's offers in
    (ascending frontier vertex, CSR position) order, one ``rng.random``
    call per level, and each vertex adopting the smallest
    (priority, key) offer — the earliest one on an exact tie."""
    n = graph.num_vertices
    parent, parent_edge, level = [-1] * n, [-1] * n, [-1] * n
    level[root] = 0
    frontier = [root]
    while frontier:
        offers = [
            (u, pos)
            for u in sorted(frontier)
            for pos in range(graph.indptr[u], graph.indptr[u + 1])
            if level[graph.adj_vertex[pos]] < 0
        ]
        best = {}
        for (u, pos), key in zip(offers, rng.random(len(offers))):
            v = int(graph.adj_vertex[pos])
            rank = (0 if priority is None else int(priority[u]), key)
            if v not in best or rank < best[v][0]:
                best[v] = (rank, u, pos)
        for v, (_rank, u, pos) in best.items():
            parent[v], parent_edge[v] = u, int(graph.adj_edge[pos])
            level[v] = level[u] + 1
        frontier = list(best)
    return parent, parent_edge, level


@pytest.mark.parametrize("prefer", [None, "low", "high"])
@pytest.mark.parametrize("graph_name", ["er", "grid"])
def test_exact_ties_go_to_the_earliest_offer(graph_name, prefer):
    from repro.trees.bfs import bfs_parents

    graph = _graph(graph_name)
    priority = {None: None, "low": graph.degrees, "high": -graph.degrees}[prefer]
    for seed in range(3):
        root, parent, parent_edge, level = bfs_parents(graph, CoarseKeys(seed), priority=priority)
        rng = CoarseKeys(seed)
        assert root == rng.integers(0, graph.num_vertices)
        expected = _frontier_reference(graph, rng, root, priority)
        assert (parent.tolist(), parent_edge.tolist(), level.tolist()) == expected
