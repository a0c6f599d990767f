"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import load_graph_file, main
from repro.graph.io import write_edgelist
from repro.graph.io_formats import write_konect, write_matrix_market

from tests.conftest import make_connected_signed


@pytest.fixture
def graph_file(tmp_path):
    g = make_connected_signed(30, 70, seed=0)
    path = tmp_path / "graph.txt"
    write_edgelist(g, path)
    return str(path), g


class TestLoadDispatch:
    def test_edgelist(self, graph_file):
        path, g = graph_file
        assert load_graph_file(path) == g

    def test_mtx(self, tmp_path):
        g = make_connected_signed(15, 30, seed=1)
        path = tmp_path / "g.mtx"
        write_matrix_market(g, path)
        assert load_graph_file(str(path)) == g

    def test_konect(self, tmp_path):
        g = make_connected_signed(15, 30, seed=1)
        path = tmp_path / "g.tsv"
        write_konect(g, path)
        assert load_graph_file(str(path)) == g


class TestCommands:
    def test_stats(self, graph_file, capsys):
        path, g = graph_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "fundamental cycles" in out
        assert f"{g.num_edges:,}" in out

    def test_balance_and_output(self, graph_file, tmp_path, capsys):
        path, _g = graph_file
        out_path = tmp_path / "balanced.txt"
        code = main(
            ["balance", path, "--seed", "3", "--show-flips", "5",
             "--output", str(out_path)]
        )
        assert code == 0
        balanced = load_graph_file(str(out_path))
        from repro.core import is_balanced

        assert is_balanced(balanced)

    def test_cloud_csv(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        csv = tmp_path / "attrs.csv"
        edge_csv = tmp_path / "edges.csv"
        assert main(
            ["cloud", path, "--states", "5", "--output", str(csv),
             "--edge-output", str(edge_csv)]
        ) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "vertex,status,influence,agreement,volatility"
        assert len(lines) == g.num_vertices + 1
        edge_lines = edge_csv.read_text().strip().splitlines()
        assert edge_lines[0] == "u,v,sign,agreement,coside,controversy"
        assert len(edge_lines) == g.num_edges + 1

    def test_cloud_kernel_methods(self, graph_file):
        path, _g = graph_file
        assert main(["cloud", path, "--states", "3", "--method", "dfs"]) == 0

    def test_cloud_walk_kernel_matches_default(self, graph_file, tmp_path):
        """The per-tree walk and the default kernel's batched engine
        write the same CSV; a walk batch is refused."""
        path, _g = graph_file
        csvs = [tmp_path / "default.csv", tmp_path / "walk.csv"]
        assert main(["cloud", path, "--states", "6", "--seed", "3",
                     "--output", str(csvs[0])]) == 0
        assert main(["cloud", path, "--states", "6", "--seed", "3",
                     "--kernel", "walk", "--output", str(csvs[1])]) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        assert main(["cloud", path, "--states", "6", "--kernel", "walk",
                     "--batch-size", "2"]) == 1

    def test_stats_profile(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["stats", path, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "assortativity" in out

    def test_cloud_checkpoint_and_resume(self, graph_file, tmp_path, capsys):
        path, _g = graph_file
        ckpt = tmp_path / "cloud.npz"
        assert main(
            ["cloud", path, "--states", "4", "--checkpoint", str(ckpt)]
        ) == 0
        assert ckpt.exists()
        # Resume to 8 states and compare against a straight 8-state run.
        csv_resumed = tmp_path / "resumed.csv"
        assert main(
            ["cloud", path, "--states", "8", "--resume", str(ckpt),
             "--output", str(csv_resumed)]
        ) == 0
        csv_direct = tmp_path / "direct.csv"
        assert main(
            ["cloud", path, "--states", "8", "--output", str(csv_direct)]
        ) == 0
        assert csv_resumed.read_text() == csv_direct.read_text()

    def test_cloud_resume_rejects_mismatched_campaign(
        self, graph_file, tmp_path, capsys
    ):
        path, _g = graph_file
        ckpt = tmp_path / "cloud.npz"
        assert main(
            ["cloud", path, "--states", "4", "--seed", "7",
             "--checkpoint", str(ckpt)]
        ) == 0
        # Respelling the seed on resume would silently diverge; the CLI
        # must fail loudly instead.
        assert main(
            ["cloud", path, "--states", "8", "--seed", "5",
             "--resume", str(ckpt)]
        ) == 1
        err = capsys.readouterr().err
        assert "seed" in err

    def test_cloud_resume_inherits_campaign(self, graph_file, tmp_path):
        path, _g = graph_file
        ckpt = tmp_path / "cloud.npz"
        assert main(
            ["cloud", path, "--states", "4", "--seed", "7", "--method",
             "dfs", "--checkpoint", str(ckpt)]
        ) == 0
        # No --seed/--method respelled: the stored campaign is inherited.
        csv_resumed = tmp_path / "resumed.csv"
        assert main(
            ["cloud", path, "--states", "8", "--resume", str(ckpt),
             "--output", str(csv_resumed)]
        ) == 0
        csv_direct = tmp_path / "direct.csv"
        assert main(
            ["cloud", path, "--states", "8", "--seed", "7", "--method",
             "dfs", "--output", str(csv_direct)]
        ) == 0
        assert csv_resumed.read_text() == csv_direct.read_text()

    def test_cloud_checkpoint_rotation(self, graph_file, tmp_path):
        path, _g = graph_file
        ckpt = tmp_path / "cloud.npz"
        assert main(
            ["cloud", path, "--states", "9", "--checkpoint", str(ckpt),
             "--checkpoint-every", "3", "--keep-checkpoints", "3"]
        ) == 0
        assert ckpt.exists()
        assert (tmp_path / "cloud.npz.1").exists()
        assert (tmp_path / "cloud.npz.2").exists()

    def test_cloud_resume_from_corrupt_falls_back(
        self, graph_file, tmp_path, capsys
    ):
        from repro.util.faults import truncate_file

        path, _g = graph_file
        ckpt = tmp_path / "cloud.npz"
        assert main(
            ["cloud", path, "--states", "6", "--checkpoint", str(ckpt),
             "--checkpoint-every", "3", "--keep-checkpoints", "2"]
        ) == 0
        truncate_file(ckpt, keep_bytes=40)
        assert main(
            ["cloud", path, "--states", "8", "--resume", str(ckpt)]
        ) == 0
        out = capsys.readouterr().out
        assert "cloud.npz.1" in out  # resumed from the rotation backup

    def test_frustration(self, tmp_path, capsys):
        g = make_connected_signed(12, 20, seed=2)
        path = tmp_path / "small.txt"
        write_edgelist(g, path)
        code = main(["frustration", str(path), "--exact", "--states", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact frustration index" in out
        assert "cloud upper bound" in out

    def test_dataset_list(self, capsys):
        assert main(["dataset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "A*_Book" in out and "S*_wiki" in out

    def test_dataset_build(self, tmp_path, capsys):
        out_path = tmp_path / "wiki.npz"
        code = main(
            ["dataset", "S*_wiki", "--scale", "0.02", "--output", str(out_path)]
        )
        assert code == 0
        g = load_graph_file(str(out_path))
        assert g.num_vertices > 50

    def test_dataset_requires_name(self, capsys):
        assert main(["dataset"]) == 2

    def test_model(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["model", path, "--trees", "10", "--sample-trees", "1"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "cuda" in out

    def test_memory_dataset(self, capsys):
        assert main(["memory", "--dataset", "A*_Book"]) == 0
        out = capsys.readouterr().out
        assert "OpenMP host" in out

    def test_memory_sizes(self, capsys):
        assert main(["memory", "--vertices", "1000", "--edges", "5000"]) == 0

    def test_memory_requires_input(self, capsys):
        assert main(["memory"]) == 2

    def test_trace(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["trace", path, "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycle of non-tree edge" in out

    def test_trace_on_tree_graph(self, tmp_path, capsys):
        g = make_connected_signed(10, 0, seed=0)  # acyclic
        path = tmp_path / "tree.txt"
        write_edgelist(g, path)
        assert main(["trace", str(path)]) == 0
        assert "no fundamental cycles" in capsys.readouterr().out

    def test_communities(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        csv = tmp_path / "comm.csv"
        code = main(
            ["communities", path, "--states", "5", "--threshold", "0.8",
             "--output", str(csv)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "consensus communities" in out
        assert "polarization" in out
        assert len(csv.read_text().splitlines()) == g.num_vertices + 1

    def test_convergence(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["convergence", path, "--max-states", "16"]) == 0
        out = capsys.readouterr().out
        assert "split-half reliability" in out

    def test_missing_file_is_error_not_traceback(self, capsys):
        assert main(["stats", "/nonexistent/graph.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_repro_error_reported(self, tmp_path, capsys):
        # Exact frustration on a too-large graph -> clean error.
        g = make_connected_signed(40, 80, seed=0)
        path = tmp_path / "big.txt"
        write_edgelist(g, path)
        assert main(["frustration", str(path), "--exact"]) == 1
        assert "error" in capsys.readouterr().err


class TestObservabilityFlags:
    """The cloud subcommand's metrics surface: --trace, --metrics-out,
    --no-metrics."""

    def setup_method(self):
        from repro.perf.registry import (
            reset_global_registry,
            set_metrics_enabled,
        )

        reset_global_registry()
        set_metrics_enabled(True)

    teardown_method = setup_method

    def test_trace_prints_phase_table(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["cloud", path, "--states", "4", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "tree_sample" in out

    def test_metrics_out_json(self, graph_file, tmp_path, capsys):
        import json

        path, _g = graph_file
        out_path = tmp_path / "metrics.json"
        assert main(["cloud", path, "--states", "4",
                     "--metrics-out", str(out_path)]) == 0
        assert "metrics written to" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["counters"]["cloud.states_total"] == 4

    def test_metrics_out_prometheus(self, graph_file, tmp_path):
        path, _g = graph_file
        out_path = tmp_path / "metrics.prom"
        assert main(["cloud", path, "--states", "4",
                     "--metrics-out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "repro_cloud_states_total 4" in text

    def test_no_metrics_suppresses_collection(self, graph_file, capsys):
        path, _g = graph_file
        assert main(["cloud", path, "--states", "4", "--no-metrics",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        # Collection was off: either the empty-snapshot table or the
        # no-metrics hint, but never an actual phase breakdown.
        assert "no spans recorded" in out or "no metrics recorded" in out
        assert "tree_sample" not in out


class TestGraphStoreCli:
    def test_pack_and_info(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        store = tmp_path / "graph.rsgs"
        assert main(
            ["graph", "pack", path, str(store), "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "checksum verified" in out
        assert "fingerprint" in out
        assert store.exists()

        assert main(["graph", "info", str(store)]) == 0
        info = capsys.readouterr().out
        assert f"{g.num_vertices:,}" in info
        assert "indptr" in info and "edge_sign" in info

    def test_store_loadable_as_graph_input(self, graph_file, tmp_path):
        path, g = graph_file
        store = tmp_path / "graph.rsgs"
        assert main(["graph", "pack", path, str(store)]) == 0
        loaded = load_graph_file(str(store))
        assert loaded == g
        assert not loaded.indptr.flags.writeable

    def test_sharded_cloud_matches_sequential(
        self, graph_file, tmp_path, capsys
    ):
        path, _g = graph_file
        store = tmp_path / "graph.rsgs"
        csv_shard = tmp_path / "shard.csv"
        csv_seq = tmp_path / "seq.csv"
        assert main(
            ["cloud", path, "--states", "8", "--seed", "5",
             "--shard-workers", "3", "--graph-store", str(store),
             "--output", str(csv_shard)]
        ) == 0
        assert store.exists()
        assert main(
            ["cloud", path, "--states", "8", "--seed", "5",
             "--output", str(csv_seq)]
        ) == 0
        assert csv_shard.read_text() == csv_seq.read_text()

    def test_graph_store_reused_on_second_run(
        self, graph_file, tmp_path, capsys
    ):
        path, _g = graph_file
        store = tmp_path / "graph.rsgs"
        args = ["cloud", path, "--states", "4", "--workers", "2",
                "--graph-store", str(store)]
        assert main(args) == 0
        assert "packed" in capsys.readouterr().out
        assert main(args) == 0
        assert "opened, zero-copy" in capsys.readouterr().out

    def test_shard_workers_conflicts_with_workers(self, graph_file, capsys):
        path, _g = graph_file
        assert main(
            ["cloud", path, "--states", "4", "--workers", "2",
             "--shard-workers", "2"]
        ) == 1
        assert "not both" in capsys.readouterr().err

    def test_mismatched_store_rejected(self, graph_file, tmp_path, capsys):
        path, _g = graph_file
        other = make_connected_signed(12, 20, seed=9)
        from repro.graph.store import GraphStore

        store = tmp_path / "other.rsgs"
        GraphStore.pack(other, store)
        assert main(
            ["cloud", path, "--states", "4", "--workers", "2",
             "--graph-store", str(store)]
        ) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err


class TestTraceShow:
    @pytest.fixture()
    def trace_json(self, tmp_path):
        from repro.perf.tracing import SpanEvent, TraceCollector
        from repro.perf.trace_export import spans_to_events, write_chrome_trace

        collector = TraceCollector()
        tid = "ab" * 16
        collector.record_event(SpanEvent(
            "campaign", 0.0, 2.0, 1, tid, "a" * 16, ""))
        collector.record_event(SpanEvent(
            "campaign/block", 0.5, 1.5, 2, tid, "b" * 16, "a" * 16,
            pid=4242))
        path = tmp_path / "trace.json"
        write_chrome_trace(spans_to_events(collector.events()), path)
        return str(path)

    def test_show_human(self, trace_json, capsys):
        assert main(["trace", "show", trace_json]) == 0
        out = capsys.readouterr().out
        assert "2 span events across 2 process(es)" in out
        assert "trace " + "ab" * 16 in out
        assert "hottest spans" in out
        assert "campaign" in out

    def test_show_json(self, trace_json, capsys):
        import json

        assert main(["trace", "show", trace_json, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["events"] == 2
        info = doc["traces"]["ab" * 16]
        assert info["spans"] == 2
        assert len(info["processes"]) == 2
        assert doc["spans"]["campaign"]["calls"] == 1

    def test_show_without_file_is_usage_error(self, capsys):
        assert main(["trace", "show"]) == 2
        assert "provide the trace" in capsys.readouterr().err

    def test_graph_trace_still_works(self, graph_file, capsys):
        # Backward compatibility: `repro trace <graph>` is untouched.
        path, _g = graph_file
        assert main(["trace", path, "--cycles", "1"]) == 0
        assert "cycle of non-tree edge" in capsys.readouterr().out
