"""Chaos tests: the daemon as a real subprocess under kill -9 / SIGTERM.

The crash-only contract under test:

* **SIGKILL mid-growth** — no warning, no flush, no handler.  The
  restarted daemon must recover a checkpointed prefix of the campaign
  and serve **byte-identical** responses for it (compared against an
  in-process rebuild of the same prefix from the same seed).
* **SIGTERM mid-growth** — the daemon drains, writes a final
  checkpoint, and exits 0.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graph.components import largest_connected_component
from repro.graph.io import save_npz
from repro.graph.store import graph_fingerprint
from repro.cloud.cloud import FrustrationCloud
from repro.serve.growth import GrowthWorker
from repro.serve.state import QuerySnapshot, SnapshotStore, canonical_json
from repro.util.faults import kill_process

from tests.conftest import make_connected_signed

SEED = 3
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(tmp_path: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro", "serve", str(tmp_path / "g.npz"),
        "--states", "300", "--grow-step", "4", "--grow-delay-ms", "15",
        "--seed", str(SEED),
        "--checkpoint", str(tmp_path / "ck.npz"),
        "--journal", str(tmp_path / "j.jsonl"),
        "--port-file", str(tmp_path / "port.txt"),
        *extra,
    ]
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _request(port: int, path: str, timeout: float = 5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _wait_port(tmp_path: Path, proc, budget: float = 30.0) -> int:
    port_file = tmp_path / "port.txt"
    limit = time.monotonic() + budget
    while time.monotonic() < limit:
        if proc.poll() is not None:
            out, err = proc.communicate()
            pytest.fail(f"daemon died during boot: {err[-800:]}")
        if port_file.exists():
            return int(port_file.read_text())
        time.sleep(0.02)
    pytest.fail("daemon never wrote its port file")


def _wait_states(port: int, count: int, budget: float = 60.0) -> int:
    limit = time.monotonic() + budget
    while time.monotonic() < limit:
        with contextlib.suppress(OSError):
            status, body = _request(port, "/snapshot", timeout=2.0)
            if status == 200:
                states = json.loads(body)["states"]
                if states >= count:
                    return states
        time.sleep(0.02)
    pytest.fail(f"daemon never published {count} states")


@pytest.fixture()
def graph_file(tmp_path):
    graph = make_connected_signed(24, 30, seed=SEED)
    save_npz(graph, tmp_path / "g.npz")
    return graph


@pytest.mark.timeout(180)
def test_sigkill_then_restart_serves_byte_identical_prefix(
    tmp_path, graph_file
):
    flight_dir = tmp_path / "flight"
    proc = _spawn(tmp_path, "--flight-dir", str(flight_dir))
    try:
        port = _wait_port(tmp_path, proc)
        _wait_states(port, 12)  # genuinely mid-growth (target is 300)
        kill_process(proc.pid)  # kill -9: no flush, no drain
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
    (tmp_path / "port.txt").unlink()

    # The black box survived the kill: the daemon's flight dump is
    # readable and names the growth round that was in flight (the
    # dump-before-compute discipline needs no exit hook to fire).
    from repro.perf.flight import find_flight_dumps, read_flight_dump

    dumps = find_flight_dumps(str(flight_dir))
    assert dumps, "SIGKILL'd daemon left no flight dump"
    daemon_doc = next(
        (d for d in map(read_flight_dump, dumps) if d["pid"] == proc.pid),
        None,
    )
    assert daemon_doc is not None
    rounds = [e for e in daemon_doc["events"]
              if e["kind"] == "inflight" and e.get("what") == "growth_round"]
    assert rounds, "no growth round was recorded before the kill"
    assert rounds[-1]["block_stop"] - rounds[-1]["block_start"] <= 4

    # Restart; boot must recover from the checkpoint chain alone.
    proc2 = _spawn(tmp_path, "--no-grow")
    try:
        port2 = _wait_port(tmp_path, proc2)
        recovered = _wait_states(port2, 1)
        assert recovered >= 4  # at least one checkpointed round survived
        assert recovered % 4 == 0  # a whole number of growth rounds

        # Rebuild the same prefix in-process *by the same growth
        # discipline* — rounds of grow_step merged in order.
        sub, _ = largest_connected_component(graph_file)
        fingerprint = graph_fingerprint(sub)
        rebuilt = GrowthWorker(
            sub,
            FrustrationCloud(sub, store_states=False),
            SnapshotStore(),
            fingerprint,
            target_states=recovered,
            grow_step=4,
            seed=SEED,
        )
        rebuilt.start()
        assert rebuilt.join(timeout=60)
        reference = QuerySnapshot(
            rebuilt.cloud, epoch=1, fingerprint=fingerprint
        )
        for v in range(0, reference.num_vertices, 3):
            status, body = _request(port2, f"/vertex/{v}")
            assert status == 200
            assert body == canonical_json(reference.vertex_payload(v))
        for e in range(0, reference.num_edges, 5):
            status, body = _request(port2, f"/edge/{e}")
            assert body == canonical_json(reference.edge_payload(e))
        status, body = _request(port2, "/frustration")
        assert body == canonical_json(reference.frustration_payload())
        status, body = _request(port2, "/bipartition?members=1")
        assert body == canonical_json(
            reference.bipartition_payload(include_members=True)
        )

        # The journal recorded the recovery (torn tail, if any, was
        # truncated by the reopen — strict read must succeed).
        from repro.perf.journal import read_journal

        kinds = [e["kind"] for e in read_journal(tmp_path / "j.jsonl")]
        assert "server_recovered" in kinds
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc2.kill()
            pytest.fail("recovered daemon did not drain on SIGTERM")
    assert proc2.returncode == 0


@pytest.mark.timeout(120)
def test_sigterm_mid_growth_drains_checkpoints_and_exits_zero(
    tmp_path, graph_file
):
    proc = _spawn(tmp_path)
    try:
        port = _wait_port(tmp_path, proc)
        _wait_states(port, 8)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, f"stderr: {err[-800:]}"
    assert "drained" in out
    assert (tmp_path / "ck.npz").exists()
    events = [
        json.loads(line)
        for line in (tmp_path / "j.jsonl").read_text().splitlines()
    ]
    assert events[-1]["kind"] == "server_stopped"
    # The final checkpoint covers every state the daemon had grown.
    from repro.cloud.checkpoint import recover_cloud

    sub, _ = largest_connected_component(graph_file)
    cloud, meta, _ = recover_cloud(tmp_path / "ck.npz", sub)
    stopped = [e for e in events if e["kind"] == "server_stopped"][-1]
    assert cloud.num_states == stopped["states"] >= 8
