"""Per-layer metrics of a traced run, computed from its spans.

Every workload reports the full list in :data:`PER_LAYER`; a layer the
workload does not exercise reads 0 (for example ``serve.*`` on the
campaign workloads, or ``parallel.*`` on ``cloud-batched``).  See
README.md for which end-to-end metric each one should move.
"""

from __future__ import annotations

from common import median
from tracer import Span, self_times

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("graph.build_s", "s", "lower"),
    ("graph.pack_s", "s", "lower"),
    ("graph.open_s", "s", "lower"),
    ("graph.store_bytes", "bytes", "lower"),
    ("trees.count", "count", "higher"),
    ("trees.busy_s", "s", "lower"),
    ("trees.us_per_tree", "us", "lower"),
    ("core.parity_s", "s", "lower"),
    ("core.balance_s", "s", "lower"),
    ("core.cycles", "count", "higher"),
    ("core.ns_per_cycle", "ns", "lower"),
    ("core.parity_bytes_computed", "bytes", "lower"),
    ("harary.calls", "count", "lower"),
    ("harary.busy_s", "s", "lower"),
    ("cloud.ingest_s", "s", "lower"),
    ("cloud.merge_s", "s", "lower"),
    ("cloud.merge_calls", "count", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("parallel.blocks", "count", "lower"),
    ("parallel.pool_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.worker_idle_share", "ratio", "lower"),
    ("parallel.first_block_s", "s", "lower"),
    ("serve.admission_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.idle_cache_hit_ratio", "ratio", "higher"),
    ("serve.grow_cache_hit_ratio", "ratio", "higher"),
    ("serve.idle_hit_p50_ms", "ms", "lower"),
    ("serve.idle_miss_p50_ms", "ms", "lower"),
    ("serve.route_s", "s", "lower"),
    ("serve.publishes", "count", "higher"),
    ("serve.publish_s", "s", "lower"),
    ("serve.grow_rounds", "count", "higher"),
    ("serve.grow_round_s", "s", "lower"),
    ("serve.grow_states_per_s", "1/s", "higher"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.server_p99_ms", "ms", "lower"),
    ("serve.unattributed_p50_ms", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.failed", "count", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("client.idle_p50_ms", "ms", "lower"),
    ("client.grow_p50_ms", "ms", "lower"),
    ("client.idle_p99_ms", "ms", "lower"),
    ("client.grow_p99_ms", "ms", "lower"),
    ("campaign.unattributed_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("calib_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _by_name(spans: list[Span], *names: str) -> list[Span]:
    return [s for s in spans if s.name in names]


def span_metrics(spans: list[Span], workers: int = 1) -> dict:
    """Layer counts and busy (self) times from *spans*.

    ``parallel.worker_busy_s`` sums the outermost spans that ran in a
    pool worker under a ``sample_cloud_pool`` span; idle share is the
    rest of ``workers × pool_s``.
    """
    own = self_times(spans)
    busy = lambda group: sum(own[s.span_id] for s in group)  # noqa: E731
    out: dict[str, float] = {}

    trees = [s for s in spans if s.layer == "trees"]
    out["trees.count"] = sum(s.extra.get("trees", 0) for s in trees)
    out["trees.busy_s"] = busy(trees)
    out["trees.us_per_tree"] = (
        1e6 * out["trees.busy_s"] / out["trees.count"] if out["trees.count"] else 0.0
    )

    parity = _by_name(spans, "core.parity")
    single = _by_name(spans, "core.balance")
    out["core.parity_s"] = busy(parity)
    out["core.balance_s"] = busy(single)
    out["core.cycles"] = sum(s.extra.get("cycles", 0) for s in parity + single)
    out["core.ns_per_cycle"] = (
        1e9 * (out["core.parity_s"] + out["core.balance_s"]) / out["core.cycles"]
        if out["core.cycles"] else 0.0
    )
    out["core.parity_bytes_computed"] = sum(s.extra.get("bytes", 0) for s in parity)

    harary = [s for s in spans if s.layer == "harary"]
    out["harary.calls"] = len(harary)
    out["harary.busy_s"] = busy(harary)

    out["cloud.ingest_s"] = busy(_by_name(spans, "cloud.add_batch", "cloud.add_result"))
    merges = _by_name(spans, "cloud.merge")
    out["cloud.merge_s"] = busy(merges)
    out["cloud.merge_calls"] = len(merges)

    writes = _by_name(spans, "checkpoint.save_cloud")
    out["checkpoint.writes"] = len(writes)
    out["checkpoint.write_s"] = busy(writes)
    out["checkpoint.bytes"] = sum(s.extra.get("bytes", 0) for s in writes)

    pools = _by_name(spans, "parallel.sample_cloud_pool")
    pool_ids = {s.span_id: s for s in pools}
    in_worker = [
        s for s in spans
        if s.parent_id in pool_ids and pool_ids[s.parent_id].pid != s.pid
    ]
    out["parallel.pool_s"] = sum(s.duration for s in pools)
    out["parallel.worker_busy_s"] = sum(s.duration for s in in_worker)
    capacity = workers * out["parallel.pool_s"]
    out["parallel.worker_idle_share"] = (
        1.0 - out["parallel.worker_busy_s"] / capacity if capacity else 0.0
    )
    firsts = []
    for pool in pools:
        starts = [s.start for s in in_worker if s.parent_id == pool.span_id]
        if starts:
            firsts.append(min(starts) - pool.start)
    out["parallel.first_block_s"] = sum(firsts) / len(firsts) if firsts else 0.0

    out["serve.admission_s"] = busy(_by_name(spans, "serve.admission"))
    lookups = _by_name(spans, "serve.cache_get")
    hits = sum(s.extra.get("hit", 0) for s in lookups)
    out["serve.cache_hit_ratio"] = hits / len(lookups) if lookups else 0.0
    out["serve.route_s"] = busy(_by_name(spans, "serve.route"))
    publishes = _by_name(spans, "serve.publish")
    out["serve.publishes"] = len(publishes)
    out["serve.publish_s"] = busy(publishes)
    rounds = _by_name(spans, "parallel.run_supervised")
    out["serve.grow_rounds"] = len(rounds)
    out["serve.grow_round_s"] = median([s.duration for s in rounds]) if rounds else 0.0
    return out


def complete(values: dict) -> dict:
    """All :data:`PER_LAYER` metrics (missing ones read 0) with units."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
