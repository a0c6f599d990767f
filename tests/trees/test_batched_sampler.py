"""Batched tree sampling: bit-identity with the sequential sampler."""

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, EngineError
from repro.graph.build import from_edges
from repro.trees.batched import TreeBatch, sample_bfs_batch, spawn_batch
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed


class TestSpawnBatch:
    def test_matches_individual_spawn(self):
        from repro.rng import spawn

        rngs = spawn_batch(123, [0, 3, 7])
        for rng, i in zip(rngs, [0, 3, 7]):
            assert rng.integers(0, 1 << 30) == spawn(123, i).integers(0, 1 << 30)

    def test_rejects_negative_indices(self):
        with pytest.raises(EngineError):
            spawn_batch(0, [-1])

    def test_spawns_only_requested_children(self, monkeypatch):
        """A high-index batch must not spawn every predecessor stream:
        the children are built directly from their spawn keys, so
        ``SeedSequence.spawn`` is never called and only ``len(indices)``
        sequences are constructed."""
        indices = [9000, 9007, 9031]
        expected = [
            rng.integers(0, 1 << 30) for rng in spawn_batch(321, indices)
        ]

        constructed = []

        class Recorder(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

            def spawn(self, n):  # pragma: no cover - would fail the test
                raise AssertionError(
                    f"spawn_batch called SeedSequence.spawn({n})"
                )

        monkeypatch.setattr(np.random, "SeedSequence", Recorder)
        rngs = spawn_batch(321, indices)
        assert [rng.integers(0, 1 << 30) for rng in rngs] == expected
        assert constructed == [(9000,), (9007,), (9031,)]


class TestBatchedBfs:
    @pytest.mark.parametrize("seed", [0, 17, 99])
    def test_bit_identical_to_sequential(self, seed):
        g = make_connected_signed(60, 150, seed=seed)
        sampler = TreeSampler(g, seed=seed)
        batch = sampler.batch(12)
        assert batch.num_trees == 12
        assert batch.num_vertices == g.num_vertices
        for i in range(12):
            tree = sampler.tree(i)
            assert int(batch.roots[i]) == tree.root
            assert np.array_equal(batch.parent[i], tree.parent)
            assert np.array_equal(batch.parent_edge[i], tree.parent_edge)
            assert np.array_equal(batch.level_of[i], tree.level_of)

    @pytest.mark.parametrize(
        "n,m,batch", [(12, 18, 3), (60, 150, 8), (60, 150, 32), (150, 600, 16)]
    )
    def test_bit_identical_across_shapes(self, n, m, batch):
        """The batch stays bit-identical across batch sizes and graph
        shapes (B above, at, and below n)."""
        g = make_connected_signed(n, m, seed=n + batch)
        sampler = TreeSampler(g, seed=31)
        trees = sampler.batch(batch)
        for i in range(batch):
            tree = sampler.tree(i)
            assert np.array_equal(trees.parent[i], tree.parent)
            assert np.array_equal(trees.parent_edge[i], tree.parent_edge)
            assert np.array_equal(trees.level_of[i], tree.level_of)

    def test_offset_batch_matches_tail_indices(self):
        g = make_connected_signed(40, 90, seed=2)
        sampler = TreeSampler(g, seed=5)
        batch = sampler.batch(4, start=10)
        for b, i in enumerate(range(10, 14)):
            assert np.array_equal(batch.parent[b], sampler.tree(i).parent)

    def test_explicit_strided_indices(self):
        g = make_connected_signed(40, 90, seed=4)
        sampler = TreeSampler(g, seed=9)
        indices = [1, 4, 7, 12]
        batch = sampler.batch(indices)
        for b, i in enumerate(indices):
            assert np.array_equal(batch.parent[b], sampler.tree(i).parent)

    def test_pinned_root(self):
        g = make_connected_signed(30, 60, seed=1)
        sampler = TreeSampler(g, seed=3, root=5)
        batch = sampler.batch(6)
        assert np.all(batch.roots == 5)
        for i in range(6):
            assert np.array_equal(batch.parent[i], sampler.tree(i).parent)

    def test_to_tree_roundtrip_validates(self):
        g = make_connected_signed(25, 50, seed=6)
        batch = TreeSampler(g, seed=0).batch(3)
        tree = batch.to_tree(g, 1)
        assert tree.num_vertices == g.num_vertices
        assert int(tree.in_tree.sum()) == g.num_vertices - 1

    def test_disconnected_raises(self):
        g = from_edges([(0, 1, 1), (2, 3, -1)])
        with pytest.raises(DisconnectedGraphError):
            sample_bfs_batch(g, 0, [0, 1])

    @pytest.mark.parametrize("root", [-1, 10])
    def test_out_of_range_root_raises(self, root):
        g = make_connected_signed(10, 10, seed=0)
        with pytest.raises(EngineError, match="not a vertex"):
            sample_bfs_batch(g, 0, [0], root=root)

    def test_empty_batch_raises(self):
        g = make_connected_signed(10, 10, seed=0)
        with pytest.raises(EngineError):
            sample_bfs_batch(g, 0, [])

    def test_single_vertex_graph(self):
        g = from_edges([], num_vertices=1)
        batch = sample_bfs_batch(g, 0, [0, 1, 2])
        assert np.all(batch.roots == 0)
        assert np.all(batch.level_of == 0)


class TestNonBfsFallback:
    @pytest.mark.parametrize("method", ["dfs", "wilson", "bfs-low-degree"])
    def test_stacked_fallback_matches_sequential(self, method):
        g = make_connected_signed(25, 60, seed=3)
        sampler = TreeSampler(g, method=method, seed=7)
        batch = sampler.batch(4)
        assert isinstance(batch, TreeBatch)
        for i in range(4):
            tree = sampler.tree(i)
            assert np.array_equal(batch.parent[i], tree.parent)
            assert np.array_equal(batch.level_of[i], tree.level_of)

    def test_from_trees_rejects_empty(self):
        with pytest.raises(EngineError):
            TreeBatch.from_trees([])


class TestFlatLevels:
    def test_flat_levels_cover_all_vertices(self):
        g = make_connected_signed(30, 70, seed=8)
        batch = TreeSampler(g, seed=1).batch(5)
        order, ptr = batch.flat_levels
        assert len(order) == 5 * g.num_vertices
        assert ptr[0] == 0 and ptr[-1] == len(order)
        flat_levels = batch.level_of.ravel()[order]
        assert np.all(np.diff(flat_levels) >= 0)

    def test_flat_parent_roots_negative(self):
        g = make_connected_signed(20, 40, seed=9)
        batch = TreeSampler(g, seed=2).batch(3)
        flat = batch.flat_parent
        n = g.num_vertices
        for b in range(3):
            assert flat[b * n + int(batch.roots[b])] == -1
