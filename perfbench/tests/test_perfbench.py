"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench/tests``).

The campaign tests use shortened campaigns (``STATES`` per half) of the
real workloads; the metrics they check are the ones that must repeat
exactly: status agreement, frustration bound, tree and cycle counts and
checkpoint bytes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import campaigns
import layers
import run as bench
import serve_load
from common import Tally, derive_seed
from repro.perf.trace_export import validate_chrome_trace
from tracer import ROOT, chrome_events, layer_table

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
STATES = 24
#: The campaign workloads with ``STATES`` per half.
BATCHED = dataclasses.replace(campaigns.CLOUD_BATCHED, states=STATES)
POOL = dataclasses.replace(campaigns.CLOUD_POOL, states=STATES)


def _deterministic(spec, seed, workdir):
    graph_seed = derive_seed(seed, spec.name, "graph")
    setup = campaigns.set_up(spec.dataset, spec.scale, graph_seed, workdir)
    result, spans, _ = campaigns.traced_answer(spec, setup, seed, workdir)
    values = layers.span_metrics(spans, campaigns.WORKERS)
    return {
        "status_agreement": campaigns.agreement(result),
        "frustration_ub": result.merged.frustration_upper_bound(),
        "trees.count": values["trees.count"],
        "core.cycles": values["core.cycles"],
        "checkpoint.bytes": values["checkpoint.bytes"],
    }


def test_deterministic_metrics_repeat_per_seed_and_differ_across_seeds(tmp_path):
    spec = POOL
    first = _deterministic(spec, 1, tmp_path)
    again = _deterministic(spec, 1, tmp_path)
    other = _deterministic(spec, 2, tmp_path)
    assert first == again
    # The tree count is fixed by the workload; everything else depends
    # on the seed's graph or campaign.
    assert first["trees.count"] == other["trees.count"] == 2 * STATES
    for name in ("status_agreement", "frustration_ub", "core.cycles", "checkpoint.bytes"):
        assert first[name] != other[name], name


@pytest.mark.parametrize("spec", [BATCHED, POOL], ids=lambda s: s.name)
def test_traced_run_changes_no_answer(spec, tmp_path):
    setup = campaigns.set_up(spec.dataset, spec.scale, 5, tmp_path)
    plain = campaigns.answer(spec, setup, 3, tmp_path)
    traced, spans, _ = campaigns.traced_answer(spec, setup, 3, tmp_path)
    assert np.array_equal(plain.status, traced.status)
    assert np.array_equal(plain.merged.flip_counts(), traced.merged.flip_counts())
    # The wrappers are gone again, and the spans reconcile.
    import repro.parallel.pool as pool

    assert not hasattr(pool.sample_cloud_pool, "__wrapped__")
    root = next(s for s in spans if s.name == ROOT)
    main = [s for s in spans if s.pid == root.pid]
    table = layer_table(main, root.duration)
    claimed = sum(row["self_s"] for name, row in table["layers"].items() if name != ROOT)
    assert claimed + table["unattributed_s"] == pytest.approx(root.duration)
    assert table["unattributed_s"] >= 0
    validate_chrome_trace({"traceEvents": chrome_events(spans, root.pid, {})})
    tally = Tally()
    campaigns.check_answer(spec, setup, 3, traced, tally)
    assert tally.failed == 0 and tally.attempted > 0


def test_pool_workers_report_spans(tmp_path):
    spec = POOL
    setup = campaigns.set_up(spec.dataset, spec.scale, 5, tmp_path)
    _, spans, blocks = campaigns.traced_answer(spec, setup, 3, tmp_path)
    values = layers.span_metrics(spans, campaigns.WORKERS)
    assert blocks == 2 * campaigns.WORKERS
    assert values["trees.count"] == 2 * STATES
    assert values["parallel.worker_busy_s"] > 0
    assert len({s.pid for s in spans}) > 1


def _raise_every_count(half, spec):
    half._flip_counts[:STATES] += 1


def _log_in_index_order(half, spec):
    """The log a checker assuming index order would expect."""
    log = half.flip_counts()
    half._flip_counts[:STATES] = log[np.argsort(campaigns.log_order(spec))]


@pytest.mark.parametrize("spec, corrupt", [
    (BATCHED, _raise_every_count),
    (POOL, _raise_every_count),
    (POOL, _log_in_index_order),
], ids=["batched-raised", "pool-raised", "pool-index-order"])
def test_wrong_answer_is_counted(spec, corrupt, tmp_path):
    setup = campaigns.set_up(spec.dataset, spec.scale, 5, tmp_path)
    result = campaigns.answer(spec, setup, 3, tmp_path)
    corrupt(result.halves[0], spec)
    tally = Tally()
    campaigns.check_answer(spec, setup, 3, result, tally)
    assert tally.failed >= 1


def test_serve_idle_answers_match_reference(tmp_path):
    setups, times = serve_load.set_up_serve(4, tmp_path)
    s = setups[-1]
    assert len(times) == serve_load.SETUPS
    tally = Tally()
    with s.daemon:
        phase = serve_load._idle(4, s, 1.0, "idle", tally)
    assert phase.sent == int(serve_load.RATE)
    assert tally.failed == 0, tally.errors
    assert s.daemon.proc.returncode == 0


def test_query_schedule_is_seeded():
    a = serve_load.query_paths(1, 100, 400, 64)
    assert a == serve_load.query_paths(1, 100, 400, 64)
    assert a != serve_load.query_paths(2, 100, 400, 64)
    assert {p.split("/")[1] for p in a} == set(serve_load.EXPECTED_KEYS)


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == bench.END_TO_END[metric["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_doc_covers_workloads_and_layers():
    doc = (BENCH / "README.md").read_text()
    for name in bench.WORKLOADS:
        assert f"`{name}`" in doc
    for name, _unit, _better in layers.PER_LAYER:
        assert f"`{name}`" in doc, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "_reports", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cloud-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
