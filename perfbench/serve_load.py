"""The ``serve`` workload: client-observed latency of the serve daemon,
idle and while its cloud grows.

The daemon runs in a child process (``daemon.py``) on the
``A*_Instruments_core5`` stand-in.  An open-loop generator in this
process sends requests on a fixed schedule (``RATE`` per second) over
``CONNECTIONS`` keep-alive connections, one thread each; request *k* is
due at ``t0 + k / RATE`` and its latency is measured from that due
time, so a stall also counts against the requests queued behind it.
The query mix cycles ``/vertex``, ``/edge``, ``/snapshot`` and
``/frustration`` with Zipf-skewed ids.

Phases:

* ``idle``: the daemon boots from a checkpoint written at set-up, with
  growth off.  The checkpoint holds the reference answer: two
  independently seeded half-clouds, merged.  Every answer must be
  byte-identical to the set-up reference snapshot.
* ``growing``: a fresh daemon grows a campaign it cannot finish in the
  window, checkpointing every round.  Every answer must be well formed
  and its epoch must not go back on one connection.

The generator's own lateness (how long after a request fell due it was
sent, counting only time the connection was free) is reported; when it
exceeds ``MAX_GENERATOR_LATE_MS`` at p90 the run is invalid, because
the client, not the daemon, fell behind.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from campaigns import set_up
from common import BenchmarkError, Tally, derive_seed, median, pearson, percentile
from tracer import Span, Tracer, layer_table

from repro.cloud.checkpoint import save_cloud
from repro.cloud.cloud import FrustrationCloud, sample_cloud
from repro.graph.store import graph_fingerprint
from repro.serve.handlers import Deadline, route_query
from repro.serve.state import QuerySnapshot

HERE = Path(__file__).resolve().parent
NAME = "serve"
DATASET = "A*_Instruments_core5"
SETUPS = 5
#: States in each half of the reference answer.
REF_STATES = 256
RATE = 200.0
CONNECTIONS = 2
#: Popularity of ``/vertex`` and ``/edge`` ids: the k-th most requested
#: id is requested with probability proportional to ``k ** -ZIPF_ALPHA``
#: over the graph's finite id range.  No access log of this daemon
#: exists, so the skew is an assumption taken from web traffic: Breslau
#: et al., "Web Caching and Zipf-like Distributions: Evidence and
#: Implications" (INFOCOM 1999), measured exponents of 0.64-0.83 in six
#: proxy traces.
ZIPF_ALPHA = 0.8
WARM_UP = 40
#: Share of ``--seconds`` for the idle phase; the growing phase, whose
#: latency is the gated ``answer_s`` and spreads more, gets the rest.
IDLE_SHARE = 1 / 4
#: The run is invalid when more than a tenth of its requests were sent
#: later than this after they fell due.  Healthy runs send 90% within
#: 0.5 ms; single stalls of the machine reach the p99, not the p90.
MAX_GENERATOR_LATE_MS = 2.0
REQUEST_TIMEOUT = 10.0
BOOT_TIMEOUT = 60.0

#: Keys every well-formed answer of each endpoint carries.
EXPECTED_KEYS = {
    "vertex": {"vertex", "status", "influence", "side", "states", "epoch"},
    "edge": {"edge", "u", "v", "sign", "agreement", "states", "epoch"},
    "snapshot": {"epoch", "states", "vertices", "edges", "fingerprint"},
    "frustration": {"frustration_upper_bound", "states", "epoch"},
}


def zipf_ids(rng: np.random.Generator, num_ids: int, count: int) -> np.ndarray:
    """*count* ids of ``range(num_ids)`` with Zipf(``ZIPF_ALPHA``)
    popularity over a seeded permutation of the ids."""
    weights = np.arange(1, num_ids + 1, dtype=np.float64) ** -ZIPF_ALPHA
    ranks = rng.choice(num_ids, size=count, p=weights / weights.sum())
    return rng.permutation(num_ids)[ranks]


def query_paths(seed: int, num_vertices: int, num_edges: int, count: int) -> list[str]:
    """The seeded request schedule: the endpoint cycles through
    ``/vertex``, ``/edge``, ``/snapshot`` and ``/frustration``; vertex
    and edge ids are Zipf-skewed (see :func:`zipf_ids`)."""
    rng = np.random.default_rng(derive_seed(seed, NAME, "queries"))
    vertices = zipf_ids(rng, num_vertices, (count + 3) // 4)
    edges = zipf_ids(rng, num_edges, (count + 2) // 4)
    paths = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            paths.append(f"/vertex/{vertices[k // 4]}")
        elif kind == 1:
            paths.append(f"/edge/{edges[k // 4]}")
        elif kind == 2:
            paths.append("/snapshot")
        else:
            paths.append("/frustration")
    return paths


# ----------------------------------------------------------------------
# The daemon child process
# ----------------------------------------------------------------------
class Daemon:
    """One ``daemon.py`` child process; stopped on exit from ``with``."""

    def __init__(self, workdir: Path, store: Path, checkpoint: Path, *,
                 grow: bool = False, seed: int | None = None,
                 shard_dir: Path | None = None, access_log: Path | None = None):
        self.workdir = workdir
        self.port_file = workdir / "port.txt"
        self.argv = [
            sys.executable, str(HERE / "daemon.py"),
            "--store", str(store), "--checkpoint", str(checkpoint),
            "--port-file", str(self.port_file),
        ]
        if grow:
            self.argv += ["--grow", "--seed", str(seed)]
        if shard_dir is not None:
            self.argv += ["--shard-dir", str(shard_dir)]
        if access_log is not None:
            self.argv += ["--access-log", str(access_log)]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Start the daemon; returns seconds until ``/readyz`` is 200."""
        self.port_file.unlink(missing_ok=True)
        start = time.perf_counter()
        with open(self.workdir / "daemon.log", "ab") as log:
            self.proc = subprocess.Popen(self.argv, stdout=log, stderr=subprocess.STDOUT)
        while time.perf_counter() - start < BOOT_TIMEOUT:
            if self.proc.poll() is not None:
                raise BenchmarkError(f"daemon exited with {self.proc.returncode} at boot")
            if self.port == 0 and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port and self.get("/readyz")[0] == 200:
                return time.perf_counter() - start
            time.sleep(0.005)
        raise BenchmarkError("daemon not ready in time")

    def get(self, path: str) -> tuple[int, bytes]:
        """One request on a fresh connection (probes, not load)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, wait for the drain; kill when it overruns."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc is not None else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one load phase observed."""

    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    epochs: dict = field(default_factory=dict)  # epoch -> (first seen, states)

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q)


def _well_formed(path: str, body: bytes) -> dict | None:
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    kind = path.split("/")[1]
    if not isinstance(payload, dict) or not EXPECTED_KEYS[kind] <= payload.keys():
        return None
    if payload["states"] < 1:
        return None
    return payload


def drive(port: int, paths: list[str], reference: dict | None) -> Phase:
    """Send *paths* open-loop at ``RATE``; check every answer.

    With *reference* (path -> body) every body must match it byte for
    byte; without, it must be well formed with a non-decreasing epoch
    per connection.
    """
    phase = Phase()
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def client(lane: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        last_epoch = 0
        free_at = t0
        lat, late, fails, errors, seen = [], [], 0, [], {}
        for k in range(lane, len(paths), CONNECTIONS):
            due = t0 + k / RATE
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            late.append(1000.0 * (sent - max(due, free_at)))
            path = paths[k]
            ok, why = False, ""
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                body = resp.read()
                if resp.status != 200:
                    why = f"{path}: HTTP {resp.status}"
                elif reference is not None:
                    ok = body == reference[path]
                    why = f"{path}: body differs from the reference snapshot"
                else:
                    payload = _well_formed(path, body)
                    if payload is None:
                        why = f"{path}: malformed answer {body[:80]!r}"
                    elif payload["epoch"] < last_epoch:
                        why = f"{path}: epoch went back {last_epoch} -> {payload['epoch']}"
                    else:
                        ok = True
                        last_epoch = payload["epoch"]
                        if last_epoch not in seen:
                            seen[last_epoch] = (time.perf_counter(), payload["states"])
            except (OSError, http.client.HTTPException) as exc:
                why = f"{path}: {type(exc).__name__}: {exc}"
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
            free_at = time.perf_counter()
            lat.append(1000.0 * (free_at - due))
            if not ok:
                fails += 1
                errors.append(why)
        conn.close()
        with lock:
            phase.latencies_ms += lat
            phase.late_ms += late
            phase.sent += len(lat)
            phase.failed += fails
            phase.errors += errors[:5]
            for epoch, (when, states) in seen.items():
                if epoch not in phase.epochs or when < phase.epochs[epoch][0]:
                    phase.epochs[epoch] = (when, states)

    threads = [threading.Thread(target=client, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if phase.sent != len(paths):
        raise BenchmarkError(f"a client thread died after {phase.sent} of {len(paths)} requests")
    late = percentile(phase.late_ms, 90)
    if late > MAX_GENERATOR_LATE_MS:
        raise BenchmarkError(
            f"generator fell behind (p90 lateness {late:.1f} ms "
            f"> {MAX_GENERATOR_LATE_MS} ms): the run is invalid, not slow"
        )
    return phase


def growth_rate(phase: Phase) -> float:
    """States merged per second: the median over consecutive epochs
    the clients saw of states added over the time between their first
    sightings."""
    seen = sorted(phase.epochs.values())
    rates = [
        (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(seen, seen[1:]) if b[0] > a[0]
    ]
    if not rates:
        raise BenchmarkError("the growing daemon published fewer than two epochs in the window")
    return median(rates)


def account(phase: Phase, tally: Tally, label: str) -> None:
    """Fold a phase's requests into the run's tally."""
    tally.attempted += phase.sent
    tally.failed += phase.failed
    tally.errors += [f"{label}: {e}" for e in phase.errors]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class ServeSetup:
    setup: object
    workdir: Path
    checkpoint: Path
    halves: tuple
    reference_cloud: object
    daemon: Daemon

    @property
    def agreement(self) -> float:
        """Pearson r of the reference halves' status vectors."""
        a, b = self.halves
        return pearson(a.status(), b.status())


def _one_setup(graph_seed: int, ref_seeds: tuple, workdir: Path) -> ServeSetup:
    workdir.mkdir(parents=True, exist_ok=True)
    setup = set_up(DATASET, None, graph_seed, workdir)
    checkpoint = workdir / "reference.npz"
    halves = tuple(
        sample_cloud(setup.graph, REF_STATES, seed=s, batch_size="auto") for s in ref_seeds
    )
    cloud = FrustrationCloud(setup.graph)
    for half in halves:
        cloud.merge(half)
    save_cloud(cloud, checkpoint)
    daemon = Daemon(workdir, setup.store_path, checkpoint)
    daemon.start()
    return ServeSetup(setup, workdir, checkpoint, halves, cloud, daemon)


def set_up_serve(seed: int, workdir: Path) -> tuple[list[ServeSetup], list[float]]:
    """Graph, store, reference answer + checkpoint and an idle daemon,
    ``SETUPS`` times; only the last idle daemon is left running."""
    graph_seed = derive_seed(seed, NAME, "graph")
    ref_seeds = (derive_seed(seed, NAME, "reference-a"), derive_seed(seed, NAME, "reference-b"))
    times, setups = [], []
    for i in range(SETUPS):
        if setups:
            setups[-1].daemon.stop()
        start = time.perf_counter()
        setups.append(_one_setup(graph_seed, ref_seeds, workdir / f"setup{i}"))
        times.append(time.perf_counter() - start)
    return setups, times


def reference_bodies(s: ServeSetup, paths: list[str]) -> dict:
    """The set-up snapshot's answer to every distinct path."""
    snapshot = QuerySnapshot(s.reference_cloud, 1, graph_fingerprint(s.setup.graph))
    return {
        path: route_query(path, snapshot, Deadline(None))[2]
        for path in set(paths)
    }


def _schedule(seed: int, s: ServeSetup, seconds: float, tag: str) -> list[str]:
    graph = s.setup.graph
    return query_paths(
        derive_seed(seed, tag), graph.num_vertices, graph.num_edges,
        max(1, int(RATE * seconds)),
    )


def warm_up(daemon: Daemon, paths: list[str]) -> None:
    """Closed-loop requests before a phase, so lazy set-up in the
    daemon is done before timing starts."""
    for path in paths[:WARM_UP]:
        daemon.get(path)


def _idle(seed, s: ServeSetup, seconds, tag, tally, daemon=None) -> Phase:
    daemon = daemon or s.daemon
    paths = _schedule(seed, s, seconds, tag)
    reference = reference_bodies(s, paths)
    warm_up(daemon, paths)
    phase = drive(daemon.port, paths, reference)
    account(phase, tally, tag)
    return phase


def _growing(seed, s: ServeSetup, seconds, tally, shard_dir=None, access_log=None):
    workdir = s.workdir / "grow"
    workdir.mkdir(exist_ok=True)
    for old in workdir.glob("grow.npz*"):
        old.unlink()
    paths = _schedule(seed, s, seconds, "growing")
    with Daemon(workdir, s.setup.store_path, workdir / "grow.npz", grow=True,
                seed=derive_seed(seed, NAME, "grow"), shard_dir=shard_dir,
                access_log=access_log) as daemon:
        daemon.start()
        warm_up(daemon, paths)
        phase = drive(daemon.port, paths, None)
    tally.check(daemon.proc.returncode == 0, f"growing daemon exited {daemon.proc.returncode}")
    account(phase, tally, "growing")
    return phase


def run(seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Untraced run: end-to-end metrics.

    The user of this workload waits for query answers while the cloud
    grows, so ``answer_s`` is the growing phase's median latency.  The
    answer served is the set-up's reference answer: its halves give
    ``status_agreement`` and its bound ``frustration_ub``.
    """
    setups, setup_times = set_up_serve(seed, workdir)
    s = setups[-1]
    with s.daemon:
        _idle(seed, s, seconds * IDLE_SHARE, "idle", tally)
    tally.check(s.daemon.proc.returncode == 0, f"idle daemon exited {s.daemon.proc.returncode}")
    grow = _growing(seed, s, seconds * (1 - IDLE_SHARE), tally)
    return {
        "setup_s": median(setup_times),
        "answer_s": grow.p(50) / 1000.0,
        "status_agreement": s.agreement,
        "frustration_ub": float(s.reference_cloud.frustration_upper_bound()),
    }


def _access_rows(path: Path) -> list[tuple[float, str]]:
    """(server latency in ms, cache state) of every answered query in
    an access log."""
    out = []
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if row.get("kind") == "serve_access" and row.get("outcome") == "ok":
            out.append((float(row["latency_ms"]), row.get("cache", "")))
    return out


def _access_latencies(path: Path, cache: str | None = None) -> list[float]:
    """Server latencies (ms) in an access log; only cache *hit* or
    *miss* queries when *cache* is given."""
    return [ms for ms, state in _access_rows(path) if cache in (None, state)]


def hit_ratio(path: Path) -> float:
    """Share of the logged queries answered from the result cache."""
    rows = _access_rows(path)
    return sum(state == "hit" for _, state in rows) / len(rows)


#: Spans on a daemon's request path (the rest run on its growth thread
#: or at drain).
REQUEST_SPANS = ("serve.admission", "serve.cache_get", "serve.route")


def _daemon_tables(label: str, spans: list[Span], access_log: Path) -> list:
    """Two self-time tables for one daemon.

    Request path: wall = the summed server-side latency of its queries
    (access log), so ``unattributed`` is HTTP parsing, encoding and
    writing.  Growth thread: wall = its first to last span, so
    ``unattributed`` is time between rounds.
    """
    requests = [s for s in spans if s.name in REQUEST_SPANS]
    tables = [(f"{label}: request path (wall = summed server latency, access log)",
               layer_table(requests, sum(_access_latencies(access_log)) / 1000.0))]
    grow_tids = {s.tid for s in spans if s.name == "parallel.run_supervised"}
    growth = [s for s in spans if s.tid in grow_tids]
    if growth:
        wall = max(s.end for s in growth) - min(s.start for s in growth)
        tables.append((f"{label}: growth thread (wall = first to last round)",
                       layer_table(growth, wall)))
    return tables


def run_traced(seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Traced run: an untraced idle and growing phase, then the same
    two phases with the daemon's layers wrapped and its access log on;
    a quarter of *seconds* each."""
    setups, _ = set_up_serve(seed, workdir)
    s = setups[-1]
    window = seconds / 4
    with s.daemon:
        plain_idle = _idle(seed, s, window, "idle", tally)
    plain_grow = _growing(seed, s, window, tally)
    shards = workdir / "shards"
    shards.mkdir(exist_ok=True)
    idle_log = workdir / "idle-access.jsonl"
    with Daemon(s.workdir, s.setup.store_path, s.checkpoint, shard_dir=shards,
                access_log=idle_log) as traced_idle:
        traced_idle.start()
        idle = _idle(seed, s, window, "idle", tally, daemon=traced_idle)
    grow_log = workdir / "grow-access.jsonl"
    grow = _growing(seed, s, window, tally, shard_dir=shards, access_log=grow_log)
    tracer = Tracer(shards)
    tracer.absorb_shards()
    spans = tracer.spans
    grow_pid = next(sp.pid for sp in spans if sp.name == "parallel.run_supervised")
    names = {traced_idle.proc.pid: "idle-daemon", grow_pid: "growing-daemon"}
    tables = _daemon_tables(
        "idle daemon", [sp for sp in spans if sp.pid == traced_idle.proc.pid], idle_log,
    ) + _daemon_tables(
        "growing daemon", [sp for sp in spans if sp.pid == grow_pid], grow_log,
    )
    server = _access_latencies(grow_log)
    plain = plain_idle.latencies_ms + plain_grow.latencies_ms
    traced = idle.latencies_ms + grow.latencies_ms
    return {
        "spans": spans,
        "names": names,
        "tables": tables,
        "serve.idle_cache_hit_ratio": hit_ratio(idle_log),
        "serve.grow_cache_hit_ratio": hit_ratio(grow_log),
        "serve.idle_hit_p50_ms": percentile(_access_latencies(idle_log, "hit"), 50),
        "serve.idle_miss_p50_ms": percentile(_access_latencies(idle_log, "miss"), 50),
        "serve.server_p50_ms": percentile(server, 50),
        "serve.server_p99_ms": percentile(server, 99),
        "serve.unattributed_p50_ms": grow.p(50) - percentile(server, 50),
        "client.sent": idle.sent + grow.sent,
        "client.failed": idle.failed + grow.failed,
        "client.late_p99_ms": percentile(idle.late_ms + grow.late_ms, 99),
        "client.idle_p50_ms": plain_idle.p(50),
        "client.grow_p50_ms": plain_grow.p(50),
        "client.idle_p99_ms": plain_idle.p(99),
        "client.grow_p99_ms": plain_grow.p(99),
        "serve.grow_states_per_s": growth_rate(plain_grow),
        "trace.overhead_share": (percentile(traced, 50) - percentile(plain, 50))
        / percentile(plain, 50),
        "graph.build_s": median([x.setup.build_s for x in setups]),
        "graph.pack_s": median([x.setup.pack_s for x in setups]),
        "graph.open_s": median([x.setup.open_s for x in setups]),
        "graph.store_bytes": s.setup.store_bytes,
    }
