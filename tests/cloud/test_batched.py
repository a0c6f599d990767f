"""Tree-batched cloud engine: seed-for-seed equivalence with the
per-tree Alg. 2 oracle (:func:`tests.references.per_tree_cloud`), across
every consensus attribute, and the routing that sends every lockstep and
parity campaign through it."""

import numpy as np
import pytest

from repro.cloud.cloud import FrustrationCloud, sample_cloud
from repro.core.parity_batch import balance_batch, sign_to_root_batch
from repro.core.cycles_vectorized import sign_to_root
from repro.errors import NotBalancedError, ReproError
from repro.harary.bipartition import sides_from_sign_to_root
from repro.parallel.pool import sample_cloud_pool
from repro.perf.compat import Counters
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed
from tests.references import per_tree_cloud

ATTRIBUTES = (
    "status",
    "influence",
    "edge_agreement",
    "edge_coside",
    "vertex_agreement",
    "status_volatility",
)


def assert_clouds_identical(a: FrustrationCloud, b: FrustrationCloud) -> None:
    assert a.num_states == b.num_states
    for name in ATTRIBUTES:
        lhs, rhs = getattr(a, name)(), getattr(b, name)()
        np.testing.assert_array_equal(lhs, rhs, err_msg=f"{name} differs")
    np.testing.assert_array_equal(a.flip_counts(), b.flip_counts())
    assert a.frustration_upper_bound() == b.frustration_upper_bound()
    if a.store_states:
        assert a.unique_states() == b.unique_states()


def span_calls(cloud: FrustrationCloud, name: str) -> int:
    """Entries into span *name* at any nesting depth of the campaign."""
    suffix = f"/{name}.calls"
    counters = cloud.metrics["counters"]
    return sum(v for k, v in counters.items() if k.endswith(suffix))


class TestBatchedParityKernel:
    def test_sign_to_root_batch_matches_single(self):
        g = make_connected_signed(50, 130, seed=4)
        sampler = TreeSampler(g, seed=21)
        batch = sampler.batch(8)
        s2r = sign_to_root_batch(g, batch)
        for i in range(8):
            assert np.array_equal(s2r[i], sign_to_root(g, sampler.tree(i)))

    def test_balance_batch_matches_all_kernels(self):
        from repro.core.balancer import balance

        g = make_connected_signed(40, 110, seed=5)
        sampler = TreeSampler(g, seed=13)
        batch = sampler.batch(6)
        signs, _ = balance_batch(g, batch)
        for i in range(6):
            tree = sampler.tree(i)
            for kernel in ("walk", "lockstep", "parity"):
                result = balance(g, tree, kernel=kernel)
                assert np.array_equal(signs[i], result.signs), (i, kernel)

    def test_counters_recorded(self):
        g = make_connected_signed(30, 80, seed=6)
        counters = Counters()
        batch = TreeSampler(g, seed=1).batch(4, counters=counters)
        balance_batch(g, batch, counters=counters)
        stats = counters.region_stats()
        assert "batch.bfs_round" in stats
        assert "parity.top_down" in stats
        assert counters.get("cycle.count") == 4 * g.num_fundamental_cycles


class TestSeedForSeedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 8, 32, 100])
    def test_batched_equals_sequential(self, batch_size):
        g = make_connected_signed(70, 220, seed=10)
        ref = per_tree_cloud(g, 25, 42)
        bat = sample_cloud(g, 25, seed=42, batch_size=batch_size)
        assert_clouds_identical(ref, bat)

    @pytest.mark.parametrize("batch_size", [1, 2, 8, 32, 100])
    @pytest.mark.parametrize("method", ["dfs", "wilson", "bfs-low-degree"])
    def test_every_tree_method_matches_per_tree(self, method, batch_size):
        g = make_connected_signed(30, 75, seed=20)
        ref = per_tree_cloud(g, 12, 8, method, store_states=True)
        got = sample_cloud(g, 12, method=method, seed=8,
                           batch_size=batch_size, store_states=True)
        assert_clouds_identical(ref, got)

    def test_unique_states_match(self):
        g = make_connected_signed(20, 45, seed=11)
        ref = per_tree_cloud(g, 15, 3, store_states=True)
        for batch_size in (1, 2, 4, 8, 32, 100):
            bat = sample_cloud(g, 15, seed=3, store_states=True,
                               batch_size=batch_size)
            assert bat.unique_states() == ref.unique_states(), batch_size
            assert bat.num_unique_states == ref.num_unique_states

    def test_batched_merge_matches_whole(self):
        g = make_connected_signed(30, 70, seed=12)
        whole = sample_cloud(g, 20, seed=9, batch_size=8)
        left = sample_cloud(g, 20, seed=9, batch_size=8)
        # merging an empty-state-compatible split via two runs of the
        # same stream halves
        a = FrustrationCloud(g)
        sampler = TreeSampler(g, seed=9)
        for start in (0, 10):
            batch = sampler.batch(10, start=start)
            signs, s2r = balance_batch(g, batch)
            a.add_batch(signs, sides_from_sign_to_root(s2r))
        assert_clouds_identical(whole, a)
        assert_clouds_identical(whole, left)
        assert_clouds_identical(per_tree_cloud(g, 20, 9), a)

    def test_phase_timer_has_batched_phases(self):
        g = make_connected_signed(25, 60, seed=13)
        cloud = sample_cloud(g, 8, seed=1, batch_size=4)
        counters = cloud.metrics["counters"]

        def calls(name):
            suffix = f"/{name}.calls"
            return sum(v for k, v in counters.items() if k.endswith(suffix))

        # Two batches of 4: one span of each batched phase per batch.
        for phase in ("tree_sample", "parity_kernel", "harary"):
            assert calls(phase) == 2, phase

    def test_non_bfs_method_falls_back(self):
        g = make_connected_signed(20, 50, seed=14)
        ref = per_tree_cloud(g, 6, 5, "dfs")
        bat = sample_cloud(g, 6, method="dfs", seed=5, batch_size=3)
        assert_clouds_identical(ref, bat)


class TestEngineRouting:
    """The kernel alone picks the engine; the batch size never does."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel", ["lockstep", "parity"])
    def test_batched_kernels_run_the_parity_engine_at_batch_one(
        self, kernel, workers
    ):
        g = make_connected_signed(25, 60, seed=21)
        cloud = sample_cloud_pool(g, 6, workers=workers, seed=4,
                                  kernel=kernel, batch_size=1)
        assert span_calls(cloud, "parity_kernel") == 6
        for phase in ("lockstep_kernel", "labeling", "walk_kernel"):
            assert span_calls(cloud, phase) == 0, phase
        ref = per_tree_cloud(g, 6, 4, kernel=kernel)
        for name in ATTRIBUTES:
            np.testing.assert_array_equal(
                getattr(ref, name)(), getattr(cloud, name)(), err_msg=name
            )
        np.testing.assert_array_equal(
            np.sort(ref.flip_counts()), np.sort(cloud.flip_counts())
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_walk_runs_tree_by_tree(self, workers):
        g = make_connected_signed(25, 60, seed=21)
        cloud = sample_cloud_pool(g, 6, workers=workers, seed=4,
                                  kernel="walk")
        assert span_calls(cloud, "walk_kernel") == 6
        assert span_calls(cloud, "parity_kernel") == 0

    def test_walk_and_batched_kernels_give_one_cloud(self):
        g = make_connected_signed(40, 100, seed=22)
        ref = per_tree_cloud(g, 10, 6, kernel="walk", store_states=True)
        for kernel in ("walk", "lockstep", "parity"):
            got = sample_cloud(g, 10, seed=6, kernel=kernel,
                               store_states=True)
            assert_clouds_identical(ref, got)


class TestAddBatchValidation:
    def test_rejects_bad_shapes(self):
        g = make_connected_signed(10, 20, seed=0)
        cloud = FrustrationCloud(g)
        with pytest.raises(ReproError):
            cloud.add_batch(np.ones((2, 3), dtype=np.int8))
        with pytest.raises(ReproError):
            cloud.add_batch(
                np.ones((2, g.num_edges), dtype=np.int8),
                np.zeros((3, g.num_vertices), dtype=np.int8),
            )

    def test_rejects_one_dimensional_sides(self):
        g = make_connected_signed(10, 20, seed=0)
        cloud = FrustrationCloud(g)
        signs = np.ones((1, g.num_edges), dtype=np.int8)
        with pytest.raises(ReproError, match=r"got shape \(10,\)"):
            cloud.add_batch(signs, np.zeros(g.num_vertices, dtype=np.int8))
        assert cloud.num_states == 0

    @pytest.mark.parametrize("label", [2, -1, 255, 0.5])
    def test_rejects_side_labels_outside_zero_one(self, label):
        # All-positive signs keep every edge inside one side, so a batch
        # of one foreign label passes the balance check; before the
        # label check it folded status 0.0 and influence 2.11 into the
        # cloud, where add_signs gives 1.0 and 1.0.
        g = make_connected_signed(10, 20, seed=0)
        g = g.with_signs(np.ones(g.num_edges, dtype=np.int8))
        cloud = FrustrationCloud(g)
        sides = np.full((1, g.num_vertices), label)
        with pytest.raises(ReproError, match="0/1 labels"):
            cloud.add_batch(np.ones((1, g.num_edges), dtype=np.int8), sides)
        assert cloud.num_states == 0
        cloud.add_batch(np.ones((1, g.num_edges), dtype=np.int8),
                        np.zeros((1, g.num_vertices), dtype=np.int8))
        reference = FrustrationCloud(g)
        reference.add_signs(np.ones(g.num_edges, dtype=np.int8))
        assert_clouds_identical(reference, cloud)

    def test_rejects_unbalanced_rows(self):
        g = make_connected_signed(15, 30, seed=1)
        sampler = TreeSampler(g, seed=2)
        batch = sampler.batch(2)
        signs, s2r = balance_batch(g, batch)
        sides = sides_from_sign_to_root(s2r)
        signs = signs.copy()
        signs[1, 0] = -signs[1, 0]  # breaks side consistency for row 1
        cloud = FrustrationCloud(g)
        with pytest.raises(NotBalancedError):
            cloud.add_batch(signs, sides)

    def test_sides_omitted_uses_oracle(self):
        g = make_connected_signed(15, 35, seed=2)
        sampler = TreeSampler(g, seed=4)
        batch = sampler.batch(3)
        signs, _ = balance_batch(g, batch)
        a = FrustrationCloud(g)
        a.add_batch(signs)  # per-row oracle path
        b = FrustrationCloud(g)
        for row in signs:
            b.add_signs(row)
        assert_clouds_identical(a, b)

    def test_batch_size_must_be_positive(self):
        g = make_connected_signed(10, 20, seed=3)
        with pytest.raises(ReproError):
            sample_cloud(g, 4, batch_size=0)


class TestPoolBatched:
    def test_pool_batched_matches_sequential(self):
        g = make_connected_signed(40, 100, seed=15)
        seq = per_tree_cloud(g, 16, 8)
        pooled = sample_cloud_pool(g, 16, workers=2, seed=8, batch_size=4)
        # Every accumulator is an exact sum, so the strided worker
        # blocks merge to the per-tree cloud.
        for name in ATTRIBUTES:
            np.testing.assert_array_equal(
                getattr(seq, name)(), getattr(pooled, name)(), err_msg=name
            )
        np.testing.assert_array_equal(
            np.sort(seq.flip_counts()), np.sort(pooled.flip_counts())
        )

    def test_single_worker_batched(self):
        g = make_connected_signed(30, 70, seed=16)
        seq = per_tree_cloud(g, 10, 6)
        pooled = sample_cloud_pool(g, 10, workers=1, seed=6, batch_size=8)
        assert_clouds_identical(seq, pooled)


class TestFlipCountBuffer:
    def test_growth_past_initial_capacity(self):
        g = make_connected_signed(12, 25, seed=17)
        cloud = sample_cloud(g, 150, seed=2, batch_size=37)
        assert len(cloud.flip_counts()) == 150
        seq = per_tree_cloud(g, 150, 2)
        np.testing.assert_array_equal(cloud.flip_counts(), seq.flip_counts())

    def test_checkpoint_roundtrip_keeps_flip_counts(self, tmp_path):
        from repro.cloud.checkpoint import load_cloud, save_cloud

        g = make_connected_signed(15, 30, seed=18)
        cloud = sample_cloud(g, 12, seed=1, batch_size=5)
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path)
        back = load_cloud(path, g)
        assert np.array_equal(back.flip_counts(), cloud.flip_counts())
        assert back.frustration_upper_bound() == cloud.frustration_upper_bound()

    def test_resume_batched_matches_uninterrupted(self, tmp_path):
        from repro.cloud.checkpoint import resume_cloud

        g = make_connected_signed(20, 45, seed=19)
        partial = sample_cloud(g, 7, seed=5, batch_size=4)
        resumed = resume_cloud(partial, 20, seed=5, batch_size=6)
        whole = per_tree_cloud(g, 20, 5)
        assert_clouds_identical(resumed, whole)


class TestConvergenceOnTheEngine:
    """The convergence helpers run campaign blocks; their estimates are
    the per-tree clouds of the same tree indices."""

    @pytest.mark.parametrize("method", ["bfs", "dfs"])
    def test_split_half_halves_are_per_tree_halves(self, method):
        from repro.cloud.convergence import split_half_agreement

        g = make_connected_signed(40, 100, seed=23)
        even = per_tree_cloud(g, range(0, 21, 2), 3, method)
        odd = per_tree_cloud(g, range(1, 21, 2), 3, method)
        expected = float(np.corrcoef(even.status(), odd.status())[0, 1])
        assert split_half_agreement(g, 21, method=method, seed=3) == expected

    @pytest.mark.parametrize("method", ["bfs", "dfs"])
    def test_trajectory_estimates_are_per_tree_prefixes(self, method):
        from repro.cloud.convergence import status_trajectory

        g = make_connected_signed(40, 100, seed=24)
        checkpoints = [4, 9, 20]
        traj = status_trajectory(g, checkpoints, method=method, seed=5)
        for row, cp in zip(traj.estimates, checkpoints):
            np.testing.assert_array_equal(
                row, per_tree_cloud(g, cp, 5, method).status()
            )
