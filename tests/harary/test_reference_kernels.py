"""The C-backed Harary bipartition and component labeling against the
plain-Python references they replaced, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.core.balancer import balance
from repro.errors import NotBalancedError
from repro.graph.build import from_arrays
from repro.graph.components import connected_components
from repro.graph.generators import (
    chung_lu_signed,
    ensure_connected,
    erdos_renyi_signed,
)
from repro.harary.bipartition import harary_bipartition, positive_components
from repro.rng import as_generator
from repro.trees.sampler import TreeSampler

from tests.references import dfs_harary, frontier_components


def assert_matches_reference(graph, signs):
    bip = harary_bipartition(graph, signs)
    side, comp = dfs_harary(graph, signs)
    assert_array_equal(bip.side, side)
    assert_array_equal(bip.components, comp)
    assert bip.side.dtype == np.int8 and bip.components.dtype == np.int64


def switched_graph(n, m, seed, mode):
    """A possibly disconnected graph (isolated vertices included) with
    a balanced sign array: ``s[u] * s[v]`` for a random switching *s*.
    ``mode`` "positive" fixes ``s = 1`` (all edges positive);
    "bipartite" keeps only edges across *s* (all edges negative)."""
    rng = as_generator(seed)
    s = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    if mode == "positive":
        s[:] = 1
    u, v = rng.integers(0, max(n, 1), size=(2, m))
    keep = u != v  # n <= 1 keeps no edge
    if mode == "bipartite" and n:
        keep &= s[u] != s[v]
    graph = from_arrays(
        u[keep], v[keep], np.ones(int(keep.sum())), num_vertices=n, dedup="first"
    )
    signs = (s[graph.edge_u] * s[graph.edge_v]).astype(np.int8)
    return graph, signs


@given(
    st.integers(min_value=0, max_value=500),
    st.sampled_from(["er", "chung-lu"]),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_tree_states_match_reference(seed, family, n, neg_frac):
    """Balanced states of random BFS trees on ER and Chung-Lu graphs."""
    if family == "er":
        m = min(2 * n, n * (n - 1) // 2)
        g = erdos_renyi_signed(n, m, negative_fraction=neg_frac, seed=seed)
    else:
        g = chung_lu_signed(n, 2 * n, negative_fraction=neg_frac, seed=seed)
    g = ensure_connected(g, seed=seed)
    tree = TreeSampler(g, seed=seed).tree(0)
    assert_matches_reference(g, balance(g, tree, kernel="parity").signs)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=80),
    st.sampled_from(["switch", "positive", "bipartite"]),
)
@settings(max_examples=80, deadline=None)
def test_disconnected_states_match_reference(seed, n, m, mode):
    """Disconnected inputs: isolated vertices, several collapsed
    components, all-positive and all-negative bipartite states, and
    n = 0 or 1."""
    g, signs = switched_graph(n, m, seed, mode)
    assert_matches_reference(g, signs)
    if mode == "bipartite":
        assert np.all(signs < 0)


@pytest.mark.parametrize("n", [0, 1])
def test_trivial_graphs(n):
    g = from_arrays([], [], [], num_vertices=n)
    bip = harary_bipartition(g)
    assert_array_equal(bip.side, np.zeros(n, dtype=np.int8))
    assert_array_equal(bip.components, np.arange(n))
    assert_array_equal(connected_components(g), np.arange(n))


def raised(fn, *args):
    with pytest.raises(NotBalancedError) as info:
        fn(*args)
    return str(info.value)


def test_negative_edge_inside_component_names_reference_edge():
    # Positive islands {0} and {1, 2, 3}; of the negative edges 0 = (0, 1),
    # 1 = (0, 2) and 3 = (1, 3), only edge 3 stays inside an island.
    g = from_arrays([0, 1, 1, 2, 0], [1, 2, 3, 3, 2], [-1, 1, -1, 1, -1])
    message = raised(harary_bipartition, g, g.edge_sign)
    assert message == raised(dfs_harary, g, g.edge_sign)
    assert message.startswith("negative edge 3 connects")


def test_odd_collapsed_cycle_matches_reference():
    # All-negative triangle plus a pendant positive edge: singleton
    # super-vertices joined in an odd cycle.
    g = from_arrays([0, 1, 2, 2], [1, 2, 0, 3], [-1, -1, -1, 1])
    message = raised(harary_bipartition, g, g.edge_sign)
    assert message == raised(dfs_harary, g, g.edge_sign)
    assert "odd cycle" in message


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_arbitrary_signs_raise_like_reference(seed, n, m, neg_frac):
    """On arbitrary (mostly unbalanced) signs both implementations
    either agree on the bipartition or raise the same message."""
    g, _ = switched_graph(n, m, seed, "switch")
    draw = as_generator(seed + 1).random(g.num_edges)
    signs = np.where(draw < neg_frac, -1, 1).astype(np.int8)
    try:
        expected = dfs_harary(g, signs)
    except NotBalancedError as exc:
        assert raised(harary_bipartition, g, signs) == str(exc)
        return
    bip = harary_bipartition(g, signs)
    assert_array_equal(bip.side, expected[0])
    assert_array_equal(bip.components, expected[1])


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=90),
)
@settings(max_examples=80, deadline=None)
def test_connected_components_match_reference(seed, n, m):
    g, _ = switched_graph(n, m, seed, "switch")
    assert_array_equal(connected_components(g), frontier_components(g))


# Components of PERMUTED_EDGES by member set; labels must follow each
# component's smallest vertex, not its size or the edge order.
PERMUTED_EDGES = [(9, 7), (6, 1), (8, 3), (5, 0), (7, 5), (0, 9)]
PERMUTED_LABELS = [0, 1, 2, 3, 4, 0, 1, 0, 3, 0]


def test_label_order_pinned():
    """Vertex 0 sits in the largest component ({0, 5, 7, 9}); the others
    ({1, 6}, {2}, {3, 8}, {4}) appear out of id order in the edge list.
    Labels are numbered by smallest member — a scipy that numbers its
    components any other way fails here."""
    u, v = np.array(PERMUTED_EDGES).T
    g = from_arrays(u, v, np.ones(len(u)), num_vertices=10)
    assert_array_equal(connected_components(g), PERMUTED_LABELS)
    assert_array_equal(positive_components(g), PERMUTED_LABELS)
    # With every edge negative, each vertex is its own positive island.
    assert_array_equal(positive_components(g, -g.edge_sign), np.arange(10))
