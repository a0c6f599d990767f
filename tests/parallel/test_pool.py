"""Tests for the process-pool cloud driver and cloud merging."""

import numpy as np
import pytest

from repro.cloud import FrustrationCloud
from repro.cloud.checkpoint import recover_cloud, resume_cloud
from repro.core import balance
from repro.errors import CheckpointError, EngineError, ReproError
from repro.graph.build import from_edges
from repro.parallel.pool import _remaining_blocks, sample_cloud_pool
from repro.util.faults import WorkerCrash

from tests.conftest import make_connected_signed
from tests.references import per_tree_cloud


class TestMerge:
    def test_merge_equals_sequential(self):
        g = make_connected_signed(40, 100, seed=0)
        a = FrustrationCloud(g, store_states=True)
        b = FrustrationCloud(g, store_states=True)
        full = FrustrationCloud(g, store_states=True)
        for i in range(10):
            r = balance(g, seed=i)
            (a if i % 2 == 0 else b).add_result(r)
            full.add_result(r)
        a.merge(b)
        np.testing.assert_array_equal(a.status(), full.status())
        np.testing.assert_array_equal(a.edge_agreement(), full.edge_agreement())
        assert a.num_unique_states == full.num_unique_states
        assert sorted(a.flip_counts()) == sorted(full.flip_counts())

    def test_merge_rejects_different_structure(self):
        a = FrustrationCloud(make_connected_signed(10, 20, seed=0))
        b = FrustrationCloud(make_connected_signed(12, 20, seed=0))
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            a.merge(b)

    def test_merge_rejects_mixed_store_flags(self):
        g = make_connected_signed(10, 20, seed=0)
        a = FrustrationCloud(g, store_states=True)
        b = FrustrationCloud(g, store_states=False)
        with pytest.raises(ReproError):
            a.merge(b)


class TestPool:
    def test_single_worker_matches_sequential(self):
        g = make_connected_signed(40, 100, seed=1)
        seq = per_tree_cloud(g, 9, 5)
        pool = sample_cloud_pool(g, 9, workers=1, seed=5)
        np.testing.assert_array_equal(seq.status(), pool.status())
        np.testing.assert_array_equal(seq.influence(), pool.influence())
        np.testing.assert_array_equal(seq.flip_counts(), pool.flip_counts())

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_matches_sequential(self, workers):
        g = make_connected_signed(40, 100, seed=1)
        seq = per_tree_cloud(g, 10, 5)
        pool = sample_cloud_pool(g, 10, workers=workers, seed=5)
        np.testing.assert_array_equal(seq.status(), pool.status())
        np.testing.assert_array_equal(seq.influence(), pool.influence())
        np.testing.assert_array_equal(
            seq.edge_agreement(), pool.edge_agreement()
        )
        assert sorted(pool.flip_counts()) == sorted(seq.flip_counts())
        assert pool.num_states == 10

    def test_more_workers_than_states(self):
        g = make_connected_signed(20, 40, seed=2)
        pool = sample_cloud_pool(g, 3, workers=8, seed=1)
        assert pool.num_states == 3

    def test_rejects_bad_args(self):
        g = from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(EngineError):
            sample_cloud_pool(g, 0)
        with pytest.raises(EngineError):
            sample_cloud_pool(g, 5, workers=0)
        with pytest.raises(EngineError, match="batched"):
            sample_cloud_pool(g, 5, kernel="walk", batch_size=2)

    def test_final_checkpoint_is_sequentially_resumable(self, tmp_path):
        g = make_connected_signed(30, 60, seed=1)
        ckpt = tmp_path / "pool.npz"
        sample_cloud_pool(g, 9, workers=3, seed=5, checkpoint_path=ckpt)
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks is None  # completed run is a full prefix
        resumed = resume_cloud(cloud, 15)
        seq = per_tree_cloud(g, 15, 5)
        np.testing.assert_array_equal(seq.status(), resumed.status())
        assert sorted(resumed.flip_counts()) == sorted(seq.flip_counts())


class TestRemainingBlocks:
    def test_fresh_split_is_strided(self):
        assert _remaining_blocks((), 10, 3) == [
            (0, 10, 3), (1, 10, 3), (2, 10, 3)
        ]
        assert _remaining_blocks((), 2, 8) == [(0, 2, 8), (1, 2, 8)]

    def test_prefix_resume_strides_the_tail(self):
        assert _remaining_blocks(((0, 6, 1),), 12, 2) == [
            (6, 12, 2), (7, 12, 2)
        ]
        assert _remaining_blocks(((0, 12, 1),), 12, 2) == []

    def test_salvage_resume_fills_missing_residues(self):
        done = ((0, 12, 3), (2, 12, 3))
        assert _remaining_blocks(done, 12, 3) == [(1, 12, 3)]
        # Extending the target also extends the completed residues.
        assert _remaining_blocks(done, 15, 3) == [
            (12, 15, 3), (1, 15, 3), (14, 15, 3)
        ]

    def test_mixed_shapes_fall_back_to_run_compression(self):
        done = ((0, 4, 1), (5, 12, 3))
        remaining = _remaining_blocks(done, 12, 2)
        got = sorted(i for b in remaining for i in range(*b))
        assert got == [4, 6, 7, 9, 10]

    def test_blocks_cover_exactly_the_campaign(self):
        for done in [(), ((0, 7, 1),), ((1, 20, 4), (3, 20, 4))]:
            blocks = _remaining_blocks(done, 20, 4)
            covered = sorted(
                list(i for b in done for i in range(*b))
                + [i for b in blocks for i in range(*b)]
            )
            assert covered == list(range(20))


class TestSalvage:
    def test_worker_crash_salvages_completed_blocks(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(1),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == ((0, 12, 3), (2, 12, 3))
        assert cloud.num_states == 8
        # Resume reruns only the missing block and matches sequential.
        finished = sample_cloud_pool(g, 12, workers=3, seed=9, resume_from=ckpt)
        seq = per_tree_cloud(g, 12, 9)
        np.testing.assert_array_equal(seq.status(), finished.status())
        np.testing.assert_array_equal(seq.influence(), finished.influence())
        np.testing.assert_array_equal(
            seq.edge_agreement(), finished.edge_agreement()
        )
        assert finished.num_states == 12
        assert sorted(finished.flip_counts()) == sorted(seq.flip_counts())

    def test_sequential_resume_refuses_salvage_checkpoint(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(1),
            )
        cloud, _meta, _src = recover_cloud(ckpt, g)
        with pytest.raises(CheckpointError, match="salvaged pool blocks"):
            resume_cloud(cloud, 12)

    def test_salvage_validates_campaign_on_resume(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(1),
            )
        with pytest.raises(CheckpointError, match="seed"):
            sample_cloud_pool(g, 12, workers=3, seed=4, resume_from=ckpt)

    def test_no_checkpoint_path_still_raises(self):
        g = make_connected_signed(20, 40, seed=3)
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(g, 12, workers=3, seed=9, fault=WorkerCrash(1))

    def test_hard_worker_death_is_survivable(self, tmp_path):
        # os._exit kills the process outright: the executor reports a
        # broken pool for unfinished futures, and whatever completed is
        # salvaged.  (Which blocks finish first is timing-dependent, so
        # only the invariants are asserted.)
        g = make_connected_signed(20, 40, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(
                g, 9, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(0, mode="exit"),
            )
        if ckpt.exists():
            cloud, meta, _src = recover_cloud(ckpt, g)
            assert cloud.num_states == sum(
                len(range(*b)) for b in meta.done_blocks
            )
            finished = sample_cloud_pool(
                g, 9, workers=3, seed=9, resume_from=ckpt
            )
            seq = per_tree_cloud(g, 9, 9)
            np.testing.assert_array_equal(seq.status(), finished.status())

    def test_batched_salvage_round_trip(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, batch_size=2,
                checkpoint_path=ckpt, fault=WorkerCrash(1),
            )
        finished = sample_cloud_pool(
            g, 12, workers=3, seed=9, batch_size=2, resume_from=ckpt
        )
        seq = per_tree_cloud(g, 12, 9)
        np.testing.assert_array_equal(seq.status(), finished.status())
        assert sorted(finished.flip_counts()) == sorted(seq.flip_counts())


class _CrashExcept:
    """Picklable fault: crash every block except the one starting at
    *keep* — used to manufacture a salvage checkpoint whose resume
    leaves several blocks for the sequential (workers=1) path."""

    def __init__(self, keep):
        self.keep = keep

    def __call__(self, block):
        if int(block[0]) != self.keep:
            from repro.util.faults import SimulatedCrash

            raise SimulatedCrash(f"crash on {block}")


class TestSequentialSalvage:
    def test_in_process_crash_salvages_earlier_blocks(self, tmp_path):
        # Stage 1: pool crash leaves a checkpoint with only (0, 12, 3)
        # done, so a workers=1 resume walks TWO blocks in-process.
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "seq.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=_CrashExcept(0),
            )
        _cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == ((0, 12, 3),)

        # Stage 2: in the sequential path, block (1, 12, 3) completes
        # and then (2, 12, 3) crashes.  The salvage checkpoint must
        # keep (1, 12, 3)'s work — this is the bug the pool path never
        # had and the in-process path used to.
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=1, seed=9, checkpoint_path=ckpt,
                resume_from=ckpt, fault=WorkerCrash(2),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == ((0, 12, 3), (1, 12, 3))
        assert cloud.num_states == 8

        finished = sample_cloud_pool(g, 12, workers=1, seed=9,
                                     resume_from=ckpt)
        seq = per_tree_cloud(g, 12, 9)
        np.testing.assert_array_equal(seq.status(), finished.status())
        assert finished.num_states == 12

    def test_in_process_crash_without_checkpoint_still_raises(self):
        g = make_connected_signed(20, 40, seed=3)
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(g, 12, workers=1, seed=9, fault=WorkerCrash(0))


class TestInterruptSalvage:
    def test_pool_interrupt_salvages_and_reraises(self, tmp_path):
        # The interrupted block sleeps long enough for its siblings to
        # finish, so exactly two blocks are salvageable when the
        # KeyboardInterrupt ships back to the parent.
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "interrupt.npz"
        with pytest.raises(KeyboardInterrupt):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(1, mode="interrupt", delay=2.0),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == ((0, 12, 3), (2, 12, 3))
        assert cloud.num_states == 8

        finished = sample_cloud_pool(g, 12, workers=3, seed=9,
                                     resume_from=ckpt)
        seq = per_tree_cloud(g, 12, 9)
        np.testing.assert_array_equal(seq.status(), finished.status())
        assert finished.num_states == 12

    def test_in_process_interrupt_salvages_and_reraises(self, tmp_path):
        # Same invariant on the workers=1 path: BaseException salvage,
        # then the interrupt propagates unchanged (not as EngineError).
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "interrupt.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=_CrashExcept(0),
            )
        with pytest.raises(KeyboardInterrupt):
            sample_cloud_pool(
                g, 12, workers=1, seed=9, checkpoint_path=ckpt,
                resume_from=ckpt,
                fault=WorkerCrash(2, mode="interrupt"),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == ((0, 12, 3), (1, 12, 3))
        assert cloud.num_states == 8
