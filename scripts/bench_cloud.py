#!/usr/bin/env python
"""Benchmark the cloud engines: sequential, tree-batched, and swap-chain.

Writes ``BENCH_cloud.json``: states/sec for the ``batch_size=1``
campaign (the ``sequential`` row), the batched BFS engine, and the
incremental swap-chain engine at several graph sizes and batch sizes —
plus an exact seed-for-seed consensus-attribute identity check of every
BFS row against the per-tree oracle (``tests/references.py::
per_tree_cloud``: one ``balance`` and one Harary bipartition per tree,
no campaign code), and a frustration-bound tolerance check for the swap
rows (statistically equivalent by contract).  This
file tracks the perf trajectory for the cloud pipeline — re-run after
optimizations and compare.

Usage::

    PYTHONPATH=src python scripts/bench_cloud.py              # full run
    PYTHONPATH=src python scripts/bench_cloud.py --smoke      # CI smoke
    PYTHONPATH=src python scripts/bench_cloud.py --tree-method swap
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cloud.cloud import sample_cloud
from repro.graph.generators import ensure_connected, erdos_renyi_signed
from repro.perf.export import phase_seconds
from repro.perf.registry import collecting

#: Relative tolerance for the swap rows' frustration-bound agreement
#: with the sequential BFS cloud (loose: both are minima of noisy
#: samples; the bound documents statistical, not bit, equivalence).
FRUSTRATION_RTOL = 0.10


def build_graph(num_vertices: int, num_edges: int, seed: int):
    graph = ensure_connected(
        erdos_renyi_signed(num_vertices, num_edges, negative_fraction=0.3,
                           seed=seed),
        seed=seed,
    )
    from repro.graph.components import largest_connected_component

    sub, _ = largest_connected_component(graph)
    return sub


def per_tree_reference(graph, num_states: int, seed: int):
    """The per-tree oracle cloud of the first *num_states* BFS trees,
    from the repository's test references (the BFS rows must equal it
    bit for bit)."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests.references import per_tree_cloud

    return per_tree_cloud(graph, num_states, seed)


def attributes_identical(a, b) -> bool:
    """Exact equality of every consensus attribute (the acceptance bar
    for the batched BFS engine)."""
    checks = [
        np.array_equal(a.status(), b.status()),
        np.array_equal(a.influence(), b.influence()),
        np.array_equal(a.edge_agreement(), b.edge_agreement()),
        np.array_equal(a.edge_coside(), b.edge_coside()),
        np.array_equal(a.flip_counts(), b.flip_counts()),
        a.frustration_upper_bound() == b.frustration_upper_bound(),
    ]
    return all(bool(c) for c in checks)


def frustration_within_tol(a, b, rtol: float = FRUSTRATION_RTOL) -> bool:
    """The swap rows' acceptance bar: frustration upper bounds agree
    within *rtol* (swap clouds are statistically, not bit, equivalent)."""
    lo, hi = a.frustration_upper_bound(), b.frustration_upper_bound()
    return abs(hi - lo) <= max(5, rtol * max(lo, 1))


def bench_one(
    graph,
    num_states: int,
    batch_size: int,
    seed: int,
    repeat: int = 1,
    method: str = "bfs",
    swaps_per_state: int = 1,
) -> dict:
    """Best-of-*repeat* timing of one configuration, with the fastest
    run's per-phase span breakdown (tree_sample / tree_swap /
    delta_relabel / kernels / harary), so regressions are attributable
    to a phase, not just a total."""
    best: dict | None = None
    for _ in range(max(repeat, 1)):
        # Detached window: repeats don't pollute the global registry.
        with collecting(merge=False) as registry:
            start = time.perf_counter()
            cloud = sample_cloud(
                graph, num_states, method=method, seed=seed,
                batch_size=batch_size, swaps_per_state=swaps_per_state,
            )
            elapsed = time.perf_counter() - start
        if best is not None and elapsed >= best["seconds"]:
            continue
        snapshot = registry.snapshot()
        phases = phase_seconds(snapshot)
        campaign = float(
            snapshot["counters"].get("span.campaign.seconds", 0.0)
        )
        best = {
            "method": method,
            "batch_size": batch_size,
            "seconds": round(elapsed, 4),
            "states_per_sec": round(num_states / elapsed, 2),
            "phases": {
                name: round(secs, 4) for name, secs in sorted(phases.items())
            },
            # Fraction of the wall-clock the campaign span accounts for
            # (instrumentation completeness, not performance).
            "span_coverage": round(campaign / elapsed, 4) if elapsed else 0.0,
            "_cloud": cloud,
        }
    assert best is not None
    return best


class ShardProbe:
    """Picklable per-block hook for the shard benchmark.

    Two jobs: model a heavy chain tail (sleep *per_heavy* seconds for
    every state at or past *heavy_from* — the skew that static
    partitioning serializes onto one worker and work-stealing spreads)
    and sample the worker's anonymous RSS into a shared file, one
    ``pid kb`` line per block (anonymous, not total: memmap'd store
    pages are file-backed and shared, so RssAnon is what the zero-copy
    store is supposed to keep flat).
    """

    def __init__(self, rss_path, heavy_from=None, per_heavy=0.0):
        self.rss_path = str(rss_path)
        self.heavy_from = heavy_from
        self.per_heavy = per_heavy

    def __call__(self, block):
        if self.heavy_from is not None and self.per_heavy:
            heavy = sum(1 for i in range(*block) if i >= self.heavy_from)
            if heavy:
                time.sleep(heavy * self.per_heavy)
        anon = 0
        try:
            for line in Path("/proc/self/status").read_text().splitlines():
                if line.startswith("RssAnon"):
                    anon = int(line.split()[1])
                    break
        except OSError:
            pass
        with open(self.rss_path, "a") as fh:
            fh.write(f"{os.getpid()} {anon}\n")


def _per_worker_anon_kb(path) -> dict[str, int]:
    """Peak RssAnon (KB) per worker pid from a :class:`ShardProbe` log."""
    worst: dict[str, int] = {}
    for line in Path(path).read_text().splitlines():
        pid, kb = line.split()
        worst[pid] = max(worst.get(pid, 0), int(kb))
    return worst


def bench_shard(graph, store, num_states, seed, workers, scratch) -> dict:
    """Static partitioning vs work-stealing on a skewed workload, plus
    per-worker RSS for pickle- vs store-initialized pools.

    The skew is a synthetic heavy tail: the last quarter of the states
    each cost an extra ``sleep``.  Static contiguous partitioning hands
    the whole tail to the last worker; fine-grained stealing chunks let
    idle workers drain it, so the steal run should win wall-clock on
    the same campaign.
    """
    from repro.parallel.pool import sample_cloud_pool

    heavy_from = num_states * 3 // 4
    per_heavy = 0.02
    section: dict = {
        "states": num_states,
        "workers": workers,
        "heavy_tail_states": num_states - heavy_from,
        "sleep_per_heavy_state": per_heavy,
    }
    clouds = {}
    for label, steal in (("static", None), ("steal", 8 * workers)):
        probe = ShardProbe(
            scratch / f"rss-{label}.txt",
            heavy_from=heavy_from, per_heavy=per_heavy,
        )
        start = time.perf_counter()
        clouds[label] = sample_cloud_pool(
            graph, num_states, workers=workers, method="swap", seed=seed,
            graph_store=store, steal_chunks=steal, fault=probe,
        )
        section[f"{label}_seconds"] = round(time.perf_counter() - start, 4)
    section["steal_speedup"] = round(
        section["static_seconds"] / section["steal_seconds"], 2
    )
    section["status_identical"] = bool(
        np.array_equal(clouds["static"].status(), clouds["steal"].status())
    )
    print(f"  shard swap static    {section['static_seconds']:>8.4f}s")
    print(f"  shard swap steal     {section['steal_seconds']:>8.4f}s "
          f"({section['steal_speedup']}x, "
          f"identical={section['status_identical']})", flush=True)

    rss: dict = {}
    for mode in ("pickle", "store"):
        per_count: dict = {}
        for w in sorted({2, workers}):
            log = scratch / f"rss-{mode}-{w}.txt"
            sample_cloud_pool(
                graph, min(num_states, 4 * w), workers=w, seed=seed,
                graph_store=store if mode == "store" else None,
                fault=ShardProbe(log),
            )
            worst = _per_worker_anon_kb(log)
            values = sorted(worst.values())
            per_count[str(w)] = {
                "workers_seen": len(worst),
                "mean_anon_kb": int(sum(values) / max(len(values), 1)),
                "max_anon_kb": values[-1] if values else 0,
            }
        rss[mode] = per_count
        shown = ", ".join(
            f"{w}w mean={v['mean_anon_kb']}KB" for w, v in per_count.items()
        )
        print(f"  shard rss {mode:<6s}     {shown}", flush=True)
    section["per_worker_rss_anon_kb"] = rss
    return section


def _print_phases(run: dict) -> None:
    total = sum(run["phases"].values()) or 1.0
    for name, secs in sorted(
        run["phases"].items(), key=lambda kv: -kv[1]
    ):
        print(f"      {name:<16s} {secs:>8.4f}s  {100 * secs / total:5.1f}%",
              flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_cloud.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (seconds, not minutes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="time each configuration N times and keep "
                             "the fastest (reduces scheduler noise; the "
                             "CI gate uses 3)")
    parser.add_argument("--tree-method", choices=["bfs", "swap", "both"],
                        default="both",
                        help="which engines to benchmark (default both; "
                             "the sequential BFS baseline always runs — "
                             "swap rows are measured against it)")
    parser.add_argument("--swaps-per-state", type=int, default=1,
                        metavar="N",
                        help="chain stride for the swap rows (default 1)")
    parser.add_argument("--phases", action="store_true",
                        help="print the per-phase table for every run")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write every benchmarked campaign's span "
                             "timeline as Chrome trace JSON")
    parser.add_argument("--graph-store", action="store_true",
                        help="also bench the zero-copy mmap store: a "
                             "store-backed sequential row per graph "
                             "(method 'bfs_store', gated like any other "
                             "row) plus a sharded section — static vs "
                             "work-stealing wall time on a skewed "
                             "workload and per-worker RssAnon for "
                             "pickle- vs store-initialized pools")
    parser.add_argument("--shard-workers", type=int, default=4, metavar="N",
                        help="pool size for the --graph-store shard "
                             "section (default 4)")
    args = parser.parse_args(argv)

    if args.smoke:
        # Big enough that every gated phase clears the regression
        # checker's noise floor, small enough for a CI smoke lane.
        configs = [
            {"vertices": 1000, "edges": 4000, "states": 200,
             "batch_sizes": [8, 32]},
        ]
    else:
        configs = [
            {"vertices": 1000, "edges": 4000, "states": 200,
             "batch_sizes": [8, 32, 64]},
            {"vertices": 4000, "edges": 20000, "states": 1000,
             "batch_sizes": [32, 64, 128]},
            {"vertices": 12000, "edges": 60000, "states": 200,
             "batch_sizes": [32, 64]},
        ]
    methods = (
        ["bfs", "swap"] if args.tree_method == "both" else [args.tree_method]
    )

    report = {
        "benchmark": "cloud_states_per_sec",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "repeat": args.repeat,
        "swaps_per_state": args.swaps_per_state,
        "runs": [],
    }
    if args.trace_out:
        from repro.perf.tracing import collecting_trace

        trace_scope = collecting_trace()
    else:
        trace_scope = contextlib.nullcontext(None)
    scratch: Path | None = None
    shard_section: dict | None = None
    with trace_scope as collector:
        for cfg in configs:
            graph = build_graph(cfg["vertices"], cfg["edges"], args.seed)
            entry = {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "states": cfg["states"],
            }
            print(f"graph n={graph.num_vertices} m={graph.num_edges} "
                  f"states={cfg['states']}", flush=True)

            reference = per_tree_reference(graph, cfg["states"], args.seed)
            seq = bench_one(graph, cfg["states"], 1, args.seed, args.repeat)
            seq_cloud = seq.pop("_cloud")
            seq["attributes_identical"] = attributes_identical(
                reference, seq_cloud
            )
            entry["sequential"] = seq
            print(f"  sequential          {seq['states_per_sec']:>9.2f} "
                  f"states/s  (identical={seq['attributes_identical']})",
                  flush=True)
            if args.phases:
                _print_phases(seq)

            entry["batched"] = []
            if args.graph_store:
                from repro.graph.store import GraphStore

                if scratch is None:
                    scratch = Path(tempfile.mkdtemp(prefix="bench-store-"))
                store = GraphStore.pack(
                    graph, scratch / f"bench-{graph.num_vertices}.rsgs"
                )
                # Same engine, same order — only the arrays' backing
                # changes, so this row must stay bit-identical AND as
                # fast as the in-memory sequential row.
                run = bench_one(
                    store.graph(), cfg["states"], 1, args.seed, args.repeat
                )
                cloud = run.pop("_cloud")
                run["method"] = "bfs_store"
                run["speedup_vs_sequential"] = round(
                    run["states_per_sec"] / seq["states_per_sec"], 2
                )
                run["attributes_identical"] = attributes_identical(
                    reference, cloud
                )
                entry["batched"].append(run)
                print(f"  bfs_store (mmap)    {run['states_per_sec']:>9.2f} "
                      f"states/s  ({run['speedup_vs_sequential']}x, "
                      f"identical={run['attributes_identical']})",
                      flush=True)
                if shard_section is None:
                    shard_section = bench_shard(
                        graph, store, cfg["states"], args.seed,
                        args.shard_workers, scratch,
                    )
            for method in methods:
                for bs in cfg["batch_sizes"]:
                    run = bench_one(
                        graph, cfg["states"], bs, args.seed, args.repeat,
                        method=method,
                        swaps_per_state=args.swaps_per_state,
                    )
                    cloud = run.pop("_cloud")
                    run["speedup_vs_sequential"] = round(
                        run["states_per_sec"] / seq["states_per_sec"], 2
                    )
                    if method == "bfs":
                        run["attributes_identical"] = attributes_identical(
                            reference, cloud
                        )
                        verdict = (
                            f"identical={run['attributes_identical']}"
                        )
                    else:
                        run["frustration_within_tol"] = (
                            frustration_within_tol(seq_cloud, cloud)
                        )
                        verdict = (
                            "frustration_within_tol="
                            f"{run['frustration_within_tol']}"
                        )
                    entry["batched"].append(run)
                    print(f"  {method:<5s} batch_size={bs:<4d}"
                          f"{run['states_per_sec']:>9.2f} "
                          f"states/s  ({run['speedup_vs_sequential']}x, "
                          f"{verdict})", flush=True)
                    if args.phases:
                        _print_phases(run)
            report["runs"].append(entry)
    if args.trace_out:
        from repro.perf.trace_export import spans_to_events, write_chrome_trace

        write_chrome_trace(spans_to_events(collector.events()), args.trace_out)
        print(f"wrote {args.trace_out} ({len(collector)} spans)")

    best = max(
        (run["speedup_vs_sequential"]
         for entry in report["runs"] for run in entry["batched"]),
        default=0.0,
    )
    report["best_speedup"] = best
    report["all_identical"] = all(
        run["attributes_identical"]
        for entry in report["runs"]
        for run in (entry["sequential"], *entry["batched"])
        if run["method"] in ("bfs", "bfs_store")
    )
    if shard_section is not None:
        report["shard"] = shard_section
    report["all_swap_within_tol"] = all(
        run["frustration_within_tol"]
        for entry in report["runs"] for run in entry["batched"]
        if run["method"] == "swap"
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} (best speedup {best}x, "
          f"all identical: {report['all_identical']}, "
          f"swap within tol: {report['all_swap_within_tol']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
