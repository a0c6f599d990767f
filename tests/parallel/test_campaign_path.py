"""One campaign path: every entry point is a configuration of the same
spec → block executor → driver, so every mode must produce the same
cloud as ``sample_cloud``, bit for bit — ``influence()`` included — and
must agree on what it rejects."""

from __future__ import annotations

import os
from multiprocessing import util as mp_util

import numpy as np
import pytest

from repro.cloud import FrustrationCloud, sample_cloud
from repro.cloud.checkpoint import load_cloud, recover_cloud, resume_cloud
from repro.errors import EngineError
from repro.graph.store import GraphStore
from repro.parallel.pool import sample_cloud_pool
from repro.parallel.supervisor import RetryPolicy, run_supervised
from repro.serve.growth import GrowthWorker
from repro.serve.state import SnapshotStore
from repro.util.faults import WorkerCrash

from tests.conftest import make_connected_signed

STATES = 12
FAST = dict(backoff_base=0.0, jitter=0.0)
ATTRIBUTES = (
    "status",
    "influence",
    "edge_agreement",
    "vertex_agreement",
    "edge_coside",
    "status_volatility",
    "frustration_upper_bound",
)
ENGINES = {
    "bfs-batch1": dict(method="bfs", batch_size=1),
    "bfs-batch4": dict(method="bfs", batch_size=4),
    "swap": dict(method="swap"),
}


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(30, 70, seed=3)


def _second_block(engine: dict) -> int:
    """Start index of the second block of a fresh 2-worker campaign:
    strided for tree methods, contiguous for the swap chain."""
    return STATES // 2 if engine["method"] == "swap" else 1


def _sequential_chunked(graph, engine, tmp_path):
    return sample_cloud(
        graph, STATES, seed=7, checkpoint_path=tmp_path / "seq.npz",
        checkpoint_every=5, **engine,
    )


def _resume_prefix(graph, engine, tmp_path):
    path = tmp_path / "prefix.npz"
    sample_cloud(graph, 5, seed=7, checkpoint_path=path, **engine)
    return resume_cloud(load_cloud(path, graph), STATES)


def _pool(graph, engine, tmp_path):
    return sample_cloud_pool(graph, STATES, workers=2, seed=7, **engine)


def _steal(graph, engine, tmp_path):
    return sample_cloud_pool(
        graph, STATES, workers=2, seed=7, steal_chunks=5, **engine
    )


def _supervised_degrade(graph, engine, tmp_path):
    # Two pool attempts fail, the third (in-process, degraded) succeeds.
    fault = WorkerCrash(
        _second_block(engine), mode="flaky", fails=2, counter_dir=tmp_path
    )
    cloud = sample_cloud_pool(
        graph, STATES, workers=2, seed=7, fault=fault,
        policy=RetryPolicy(max_retries=1, degrade=True, **FAST), **engine,
    )
    assert cloud.run_report.ok and cloud.run_report.degraded
    return cloud


def _salvage_resume(graph, engine, tmp_path):
    path = tmp_path / "salvage.npz"
    with pytest.raises(EngineError, match="salvaged"):
        sample_cloud_pool(
            graph, STATES, workers=2, seed=7, checkpoint_path=path,
            fault=WorkerCrash(_second_block(engine)), **engine,
        )
    _cloud, meta, _source = recover_cloud(path, graph)
    assert meta.done_blocks is not None
    return sample_cloud_pool(
        graph, STATES, workers=2, seed=7, resume_from=path, **engine
    )


ROWS = {
    "sequential": _sequential_chunked,
    "resume-prefix": _resume_prefix,
    "pool-2": _pool,
    "steal": _steal,
    "supervised-degrade": _supervised_degrade,
    "salvage-resume": _salvage_resume,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_every_mode_matches_sample_cloud(graph, tmp_path, row, engine):
    expected = sample_cloud(graph, STATES, seed=7, **ENGINES[engine])
    got = ROWS[row](graph, ENGINES[engine], tmp_path)
    assert got.num_states == expected.num_states
    for name in ATTRIBUTES:
        assert np.array_equal(getattr(got, name)(), getattr(expected, name)()), name
    assert np.array_equal(
        np.sort(got.flip_counts()), np.sort(expected.flip_counts())
    )


# -- one validation path -------------------------------------------------
def _run_sample_cloud(graph, num_states, **kwargs):
    return sample_cloud(graph, num_states, seed=1, **kwargs)


def _run_pool(graph, num_states, **kwargs):
    return sample_cloud_pool(graph, num_states, workers=2, seed=1, **kwargs)


def _run_resume(graph, num_states, **kwargs):
    return resume_cloud(FrustrationCloud(graph), num_states, seed=1, **kwargs)


def _run_supervised(graph, num_states, **kwargs):
    return run_supervised(graph, [(0, num_states, 1)], seed=1, **kwargs)


ENTRY_POINTS = {
    "sample_cloud": _run_sample_cloud,
    "sample_cloud_pool": _run_pool,
    "resume_cloud": _run_resume,
    "run_supervised": _run_supervised,
}
INVALID = {
    "zero-states": (0, {}),
    "zero-batch": (6, dict(batch_size=0)),
    "negative-batch": (6, dict(batch_size=-2)),
    "unknown-batch-word": (6, dict(batch_size="bogus")),
    "zero-swaps": (6, dict(swaps_per_state=0)),
    "unbatched-kernel": (6, dict(kernel="walk", batch_size=2)),
}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in sorted(ENTRY_POINTS) for case in sorted(INVALID)
    # run_supervised takes blocks, not a state count.
    if (entry, case) != ("run_supervised", "zero-states")
])
def test_invalid_inputs_raise_one_engine_error(graph, entry, case):
    num_states, kwargs = INVALID[case]
    with pytest.raises(EngineError):
        ENTRY_POINTS[entry](graph, num_states, **kwargs)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_auto_batch_size_everywhere(graph, entry):
    result = ENTRY_POINTS[entry](graph, 6, batch_size="auto")
    cloud = result if isinstance(result, FrustrationCloud) else result[0][0][1]
    expected = sample_cloud(graph, 6, seed=1)
    assert np.array_equal(cloud.status(), expected.status())
    assert np.array_equal(cloud.influence(), expected.influence())


def test_resume_to_current_count_is_a_no_op(graph):
    cloud = sample_cloud(graph, 5, seed=1)
    before = cloud.influence().copy(), cloud.flip_counts()
    resumed = resume_cloud(cloud, 5)
    assert resumed.num_states == 5
    assert np.array_equal(resumed.influence(), before[0])
    assert np.array_equal(resumed.flip_counts(), before[1])


# -- the graph store survives a resume ----------------------------------
def test_resume_keeps_graph_store(graph, tmp_path):
    store = GraphStore.pack(graph, tmp_path / "g.rsgs")
    path = tmp_path / "c.npz"
    sample_cloud(graph, 6, seed=1, checkpoint_path=path, graph_store=store)
    _cloud, meta, _src = recover_cloud(path, graph)
    assert meta.graph_store == str(store.path)
    resume_cloud(load_cloud(path, graph), 9, checkpoint_path=path)
    _cloud, meta, _src = recover_cloud(path, graph)
    assert meta.graph_store == str(store.path)


def test_growth_worker_keeps_graph_store(graph, tmp_path):
    store = GraphStore.pack(graph, tmp_path / "g.rsgs")
    path = tmp_path / "c.npz"
    sample_cloud(graph, 4, seed=1, checkpoint_path=path, graph_store=store)
    cloud, _meta, _src = recover_cloud(path, graph)
    worker = GrowthWorker(
        graph, cloud, SnapshotStore(), "fp", target_states=8, grow_step=4,
        seed=1, checkpoint_path=path,
    )
    assert worker.campaign_meta().graph_store == str(store.path)
    assert worker.grow_once()
    _cloud, meta, _src = recover_cloud(path, graph)
    assert meta.graph_store == str(store.path)
    assert np.array_equal(
        worker.cloud.influence(), sample_cloud(graph, 8, seed=1).influence()
    )


# -- clean pool shutdown -------------------------------------------------
def _touch(path: str) -> None:
    with open(path, "w", encoding="utf-8"):
        pass


class _ExitMarker:
    """Picklable fault hook that runs no fault: it records which worker
    ran a block and registers a ``Finalize`` hook that marks the
    worker's normal exit."""

    def __init__(self, directory) -> None:
        self.directory = str(directory)

    def __call__(self, block) -> None:
        pid = os.getpid()
        _touch(os.path.join(self.directory, f"ran-{pid}"))
        mp_util.Finalize(
            None, _touch, args=(os.path.join(self.directory, f"exit-{pid}"),),
            exitpriority=10,
        )


@pytest.mark.parametrize("policy", [None, RetryPolicy()], ids=["plain", "supervised"])
def test_finished_pool_lets_workers_exit_normally(graph, tmp_path, policy):
    sample_cloud_pool(
        graph, STATES, workers=2, seed=1, policy=policy,
        fault=_ExitMarker(tmp_path),
    )
    ran = {p.name[len("ran-"):] for p in tmp_path.glob("ran-*")}
    exited = {p.name[len("exit-"):] for p in tmp_path.glob("exit-*")}
    assert ran and str(os.getpid()) not in ran
    assert exited == ran
