"""Span tracing for the benchmark's traced run.

A :class:`Tracer` patches wrappers onto the public entry points of each
``repro`` layer (see :func:`campaign_patches` and :func:`serve_patches`)
and records one :class:`Span` per call: name, start, end, the span that
was open when it started, process and thread.  Nothing in ``src/`` is
edited; the wrappers exist only inside :meth:`Tracer.installed`.

Pool workers forked while a tracer is installed inherit the wrappers.
The first span a forked worker records resets its inherited span list
and registers an exit hook that writes the worker's spans to
``spans-<pid>.json`` in the shard directory; the parent reads those
files back with :meth:`Tracer.absorb_shards` once the pool has joined.
The serve daemon runs in a child process of its own and writes its
shard the same way when it exits.

Times come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans of every process share one axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.perf.trace_export import spans_to_events
from repro.perf.tracing import SpanEvent

#: The layer a span belongs to is the part of its name before the dot.
ROOT = "campaign"


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    end: float
    span_id: str
    parent_id: Optional[str]
    pid: int
    tid: int
    extra: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """A span being recorded; wrappers add counts to ``extra``."""

    __slots__ = ("span_id", "extra")

    def __init__(self, span_id: str) -> None:
        self.span_id = span_id
        self.extra: dict = {}


class Tracer:
    """Records spans in memory; patches and restores layer wrappers."""

    def __init__(self, shard_dir: Path) -> None:
        self.shard_dir = Path(shard_dir)
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        """First span in a forked child: own a fresh span list and
        write it to the shard directory when the process exits."""
        self._pid = os.getpid()
        self.spans = []
        mp_util.Finalize(None, self.write_shard, exitpriority=10)

    @contextmanager
    def span(self, name: str) -> Iterator[_Open]:
        """Record one span around the ``with`` body."""
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = self._stack()
        parent = stack[-1] if stack else None
        current = _Open(f"{self._pid}:{next(self._ids)}")
        stack.append(current.span_id)
        start = time.perf_counter()
        try:
            yield current
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                name, start, end, current.span_id, parent, self._pid,
                threading.get_ident(), current.extra,
            ))

    # -- patching ------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span *name*.

        *measure*, when given, maps ``(args, kwargs, result)`` to counts
        stored on the span.  Class and static methods keep their kind.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as current:
                result = func(*args, **kwargs)
                if measure is not None:
                    current.extra.update(measure(args, kwargs, result))
                return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, patches) -> Iterator["Tracer"]:
        """Every ``(owner, attr, name, measure)`` patch applied for the
        duration of the ``with`` body."""
        for owner, attr, name, measure in patches:
            self.patch(owner, attr, name, measure)
        try:
            yield self
        finally:
            self.restore()

    # -- shards ----------------------------------------------------------
    def write_shard(self) -> None:
        """Write this process's spans to ``spans-<pid>.json``."""
        path = self.shard_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([asdict(s) for s in self.spans]))
        tmp.replace(path)

    def absorb_shards(self) -> None:
        """Read (and delete) every shard written by other processes."""
        for path in sorted(self.shard_dir.glob("spans-*.json")):
            if path.name == f"spans-{os.getpid()}.json":
                continue
            self.spans.extend(Span(**row) for row in json.loads(path.read_text()))
            path.unlink()


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _cycles(graph) -> int:
    return graph.num_edges - graph.num_vertices + 1


def _parity_counts(args, kwargs, result) -> dict:
    """Cycles and computed bytes of one ``balance_batch`` call.

    Bytes are computed from array sizes, not measured.  Per state the
    top-down pass reads a parent index and a parent-edge index (8 B
    each), the parent's sign-to-root and the edge sign (1 B each) and
    writes one sign (1 B) per vertex: 19 B per vertex.  The edge pass
    gathers two sign-to-root entries and writes one sign: 3 B per edge
    per state, plus the two int64 endpoint arrays read once per call.
    """
    graph = args[0]
    states = int(result[0].shape[0])
    n, m = graph.num_vertices, graph.num_edges
    return {
        "cycles": states * _cycles(graph),
        "bytes": states * (19 * n + 3 * m) + 16 * m,
    }


#: Checkpoint members left out of ``checkpoint.bytes``: a snapshot of
#: measured times and the graph store's path, which vary run to run.
_VARYING_MEMBERS = ("metrics_json.npy", "campaign_graph_store.npy")


def _checkpoint_bytes(args, kwargs, result) -> dict:
    """Bytes of the cloud state one ``save_cloud`` call wrote: the sizes
    of the checkpoint's stored arrays, without the members that vary
    between runs of one seed."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        with zipfile.ZipFile(path) as archive:
            return {"bytes": sum(
                info.file_size for info in archive.infolist()
                if info.filename not in _VARYING_MEMBERS
            )}
    except (OSError, TypeError, zipfile.BadZipFile):
        return {"bytes": 0}


def campaign_patches() -> list:
    """Wrappers for the campaign layers: graph, trees, core, harary,
    cloud, checkpoint and parallel.

    Names imported into a caller's module are patched at that lookup
    site; names a caller imports inside a function are patched on the
    defining module.
    """
    import repro.cloud.checkpoint as checkpoint
    import repro.cloud.cloud as cloud
    import repro.core.parity_batch as parity_batch
    import repro.harary.bipartition as bipartition
    import repro.parallel.pool as pool
    import repro.serve.growth as growth
    from repro.graph.store import GraphStore
    from repro.trees.sampler import TreeSampler

    FrustrationCloud = cloud.FrustrationCloud
    one_tree = lambda a, k, r: {"trees": 1}  # noqa: E731
    balanced = lambda a, k, r: {"cycles": _cycles(a[0])}  # noqa: E731
    return [
        (GraphStore, "pack", "graph.pack", None),
        (GraphStore, "open", "graph.open", None),
        (TreeSampler, "tree", "trees.tree", one_tree),
        (TreeSampler, "batch", "trees.batch",
         lambda a, k, r: {"trees": int(r.num_trees)}),
        (parity_batch, "balance_batch", "core.parity", _parity_counts),
        (cloud, "balance", "core.balance", balanced),
        (pool, "balance", "core.balance", balanced),
        (cloud, "sides_from_sign_to_root", "harary.sides", None),
        (bipartition, "sides_from_sign_to_root", "harary.sides", None),
        (cloud, "harary_bipartition", "harary.bipartition", None),
        (FrustrationCloud, "add_batch", "cloud.add_batch", None),
        (FrustrationCloud, "add_result", "cloud.add_result", None),
        (FrustrationCloud, "merge", "cloud.merge", None),
        (FrustrationCloud, "status", "cloud.status", None),
        (checkpoint, "save_cloud", "checkpoint.save_cloud", _checkpoint_bytes),
        (growth, "save_cloud", "checkpoint.save_cloud", _checkpoint_bytes),
        (pool, "sample_cloud_pool", "parallel.sample_cloud_pool", None),
        (growth, "run_supervised", "parallel.run_supervised", None),
    ]


def serve_patches() -> list:
    """Wrappers for the serve layer (plus the campaign layers its
    growth rounds run through)."""
    import repro.serve.server as server
    from repro.serve.admission import TokenBucket
    from repro.serve.cache import ResultCache
    from repro.serve.state import SnapshotStore

    return campaign_patches() + [
        (TokenBucket, "try_acquire", "serve.admission", None),
        (ResultCache, "get", "serve.cache_get",
         lambda a, k, r: {"hit": int(r is not None)}),
        (server, "route_query", "serve.route", None),
        (SnapshotStore, "publish", "serve.publish", None),
    ]


# ----------------------------------------------------------------------
# Self time and reports
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id → duration minus the direct children that ran in the
    same process (children in other processes ran concurrently)."""
    out = {s.span_id: s.duration for s in spans}
    pid_of = {s.span_id: s.pid for s in spans}
    for s in spans:
        if s.parent_id in out and pid_of[s.parent_id] == s.pid:
            out[s.parent_id] -= s.duration
    return out


def layer_table(spans: list[Span], wall: float) -> dict:
    """Per-layer calls, inclusive and self seconds of *spans*.

    Self times plus ``unattributed`` sum to *wall*: pass the root
    span's duration for a campaign (its self time is what no layer
    claimed) or thread-seconds of a window for a daemon.
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    layers: dict[str, dict] = {}
    for s in spans:
        row = layers.setdefault(s.layer, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[s.span_id]
        # Inclusive time counts only outermost spans of the layer, so a
        # layer calling itself is not counted twice.
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            row["inclusive_s"] += s.duration
    claimed = sum(row["self_s"] for name, row in layers.items() if name != ROOT)
    return {
        "wall_s": wall,
        "layers": layers,
        "unattributed_s": wall - claimed,
    }


def format_table(title: str, table: dict) -> str:
    """Human-readable self vs inclusive table."""
    lines = [title, f"  {'layer':<12}{'calls':>8}{'inclusive_s':>14}{'self_s':>12}{'share':>8}"]
    wall = table["wall_s"] or 1.0
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        if name == ROOT:
            continue
        lines.append(
            f"  {name:<12}{row['calls']:>8}{row['inclusive_s']:>14.4f}"
            f"{row['self_s']:>12.4f}{100 * row['self_s'] / wall:>7.1f}%"
        )
    lines.append(
        f"  {'unattributed':<12}{'':>8}{'':>14}{table['unattributed_s']:>12.4f}"
        f"{100 * table['unattributed_s'] / wall:>7.1f}%"
    )
    lines.append(f"  {'wall':<12}{'':>8}{'':>14}{table['wall_s']:>12.4f}")
    return "\n".join(lines)


def chrome_events(spans: list[Span], main_pid: int, names: dict[int, str]) -> list[dict]:
    """Spans as Chrome-trace events, one process row per pid.

    *main_pid*'s row is named ``benchmark``; rows of the pids in
    *names* (the serve daemons) are renamed from the exporter's
    ``worker-<pid>``.
    """
    events = spans_to_events([
        SpanEvent(path=s.name, start=s.start, end=s.end, thread=s.tid,
                  trace_id="perfbench", span_id=s.span_id, parent_id=s.parent_id or "",
                  pid=s.pid)
        for s in spans
    ], pid=main_pid, process_name="benchmark")
    for event in events:
        if event["ph"] == "M" and event["name"] == "process_name" and event["pid"] in names:
            event["args"]["name"] = names[event["pid"]]
    return events
