"""The campaign driver: runs campaign blocks in a process pool or
in-process, optionally under a self-healing fault ladder.

The pool rung serves ``workers > 1`` with more than one block; blocks
otherwise run in-process, as do blocks degrading off the pool.  Without
a :class:`RetryPolicy` the first failing block stops the campaign.  With
one, a campaign heals itself:

1. **Retry** a failed block up to ``max_retries`` times after a
   deterministic exponential backoff.
2. **Watchdog**: a block past ``block_timeout`` is declared hung, the
   workers are terminated, the pool is rebuilt, and innocent in-flight
   blocks are requeued without burning an attempt.
3. **Broken pool**: ``BrokenProcessPool`` does not say which block
   killed the worker, so the suspects re-run one at a time.
4. **Degrade**: a block out of pool retries re-runs in the parent
   (never one that hung or killed a worker).
5. **Quarantine** a block that still fails; the checkpoint records it
   apart from ``done_blocks`` so a resume re-attempts it.
6. **Deadline / stop**: stop submitting, tear the pool down, and hand
   the completed blocks back for a clean checkpoint.

A pool that finished cleanly is shut down with ``wait=True`` so worker
exit hooks run; only hung or broken pools are terminated.  A block's
result depends only on its indices and the seed, so healing changes
*whether* a block completes, never what it computes.  Every fault is a
:class:`FaultEvent` in the :class:`RunReport` (``cloud.run_report``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence, Tuple

from repro.cloud.checkpoint import CampaignMeta
from repro.errors import EngineError, SupervisorError
from repro.graph.csr import SignedGraph
from repro.graph.store import graph_fingerprint
from repro.parallel.pool import (
    _init_worker,
    _init_worker_store,
    _reset_worker_slot,
    _worker,
    run_block,
)
from repro.perf.journal import journal_event
from repro.perf.registry import get_registry
from repro.perf.tracectx import current_trace

__all__ = [
    "RetryPolicy",
    "FaultEvent",
    "RunReport",
    "run_supervised",
]

Block = Tuple[int, int, int]

#: The longest the wait loop blocks between checks of timeouts, cooled
#: retries and the deadline.
_TICK = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-handling knobs for a supervised campaign.

    A block is tried at most ``max_retries + 1`` times in the pool;
    ``block_timeout`` bounds each attempt and ``deadline`` the campaign
    (seconds, ``None`` = unlimited).  Retry *k* backs off
    ``min(backoff_max, backoff_base * backoff_factor**(k-1)) * (1 + j)``,
    ``j ∈ [0, jitter)`` deterministic in ``(seed, block, k)``.
    ``degrade=False`` sends stubborn blocks straight to quarantine.
    """

    max_retries: int = 2
    block_timeout: float | None = None
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    deadline: float | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        rules = [
            ("max_retries", self.max_retries >= 0, ">= 0"),
            ("block_timeout",
             self.block_timeout is None or self.block_timeout > 0, "positive"),
            ("backoff_base", self.backoff_base >= 0, ">= 0"),
            ("backoff_factor", self.backoff_factor >= 1.0, ">= 1"),
            ("backoff_max", self.backoff_max >= 0, ">= 0"),
            ("jitter", 0.0 <= self.jitter <= 1.0, "in [0, 1]"),
            ("deadline", self.deadline is None or self.deadline > 0, "positive"),
        ]
        for name, ok, rule in rules:
            if not ok:
                raise SupervisorError(
                    f"{name} must be {rule}, got {getattr(self, name)}"
                )

    def backoff_seconds(self, seed: int, block: Block, retry: int) -> float:
        """Deterministic backoff before the *retry*-th re-attempt
        (1-based) of *block*: exponential growth, capped, with a jitter
        fraction drawn from a hash of ``(seed, block, retry)``."""
        if retry < 1:
            raise SupervisorError(f"retry must be >= 1, got {retry}")
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (retry - 1),
        )
        if base <= 0 or self.jitter == 0:
            return base
        key = f"{seed}:{block[0]}:{block[1]}:{block[2]}:{retry}"
        digest = hashlib.sha256(key.encode("ascii")).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter * frac)


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the supervisor's structured fault log."""

    t: float  #: seconds since campaign start
    kind: str  #: failure | crash | timeout | backoff | suspect |
    #:  pool_rebuild | requeue | degrade | quarantine | deadline | stop
    block: Block | None
    attempt: int
    detail: str


@dataclass
class RunReport:
    """What a supervised campaign survived (``cloud.run_report``): the
    completed, quarantined (with attempts and last error) and abandoned
    (``remaining``) blocks, and the chronological fault log.  Durations
    are monotonic; ``started_at_unix`` is the one wall-clock anchor.
    """

    policy: RetryPolicy
    blocks_total: int = 0
    completed: list[Block] = field(default_factory=list)
    quarantined: list[dict] = field(default_factory=list)
    remaining: list[Block] = field(default_factory=list)
    degraded: list[Block] = field(default_factory=list)
    events: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    deadline_hit: bool = False
    stopped: bool = False
    wall_seconds: float = 0.0
    started_at_unix: float = 0.0
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        """True when every block completed: nothing quarantined,
        nothing abandoned to the deadline or a stop request."""
        return not self.quarantined and not self.remaining

    @property
    def quarantined_blocks(self) -> tuple[Block, ...]:
        return tuple(sorted(tuple(q["block"]) for q in self.quarantined))

    def to_dict(self) -> dict:
        """JSON-ready dict: policy knobs, per-block outcomes, counters,
        the chronological fault log, and ``ok``."""
        return {**json.loads(json.dumps(asdict(self))), "ok": self.ok}

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def dump(self, path) -> None:
        """Write the report as JSON to *path*."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def summary(self) -> str:
        """One line for logs/CLI output."""
        parts = [
            f"{len(self.completed)}/{self.blocks_total} blocks completed",
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.pool_rebuilds} pool rebuilds",
        ]
        if self.degraded:
            parts.append(f"{len(self.degraded)} degraded in-process")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.deadline_hit:
            parts.append("deadline hit")
        if self.stopped:
            parts.append("stopped on request")
        return "; ".join(parts)


#: FaultEvent kind -> journal event kind.  Backoff and degrade journal
#: dedicated events where the matching RunReport counter changes, so a
#: summarized journal reconciles exactly with the report.
_JOURNAL_KINDS = {
    "failure": "block_failed",
    "crash": "block_failed",
    "timeout": "block_timeout",
    "suspect": "worker_suspected",
    "requeue": "block_requeued",
    "pool_rebuild": "pool_rebuilt",
    "quarantine": "block_quarantined",
    "deadline": "deadline_hit",
    "stop": "campaign_stopped",
}


class CampaignSupervisor:
    """One run of the driver over *blocks* of the campaign *spec*.
    Unsupervised (``policy=None``), the first failure stops submission
    and, once in-flight blocks finish, raises (``completed`` keeps what
    finished).  *on_complete* sees each ``(block, block_cloud)``."""

    def __init__(
        self,
        graph: SignedGraph,
        blocks: Sequence[Block],
        spec: CampaignMeta,
        *,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        fault: Callable[[Block], None] | None = None,
        stop_event: "threading.Event | None" = None,
        flight_dir: str | None = None,
        on_complete: Callable[[Block, object], None] | None = None,
    ) -> None:
        self.graph, self.spec, self.workers = graph, spec, workers
        self.blocks = [tuple(int(x) for x in b) for b in blocks]
        self.fail_fast = policy is None
        self.policy = policy or RetryPolicy(max_retries=0, degrade=False)
        self.fault, self.stop_event = fault, stop_event
        self.flight_dir, self.on_complete = flight_dir, on_complete
        self.pooled = workers > 1 and len(self.blocks) > 1
        # Pool tasks carry the graph fingerprint and the trace context
        # their block spans chain under.
        self.fingerprint = graph_fingerprint(graph) if self.pooled else None
        ctx = current_trace()
        self.trace = ctx.to_dict() if ctx is not None else None
        self.report = RunReport(self.policy, blocks_total=len(self.blocks))
        self.report.started_at_unix = time.time()
        self.start = time.monotonic()
        self.completed: list[tuple[Block, object]] = []
        self.failures: list[tuple[Block, str, BaseException | None]] = []
        # Queues of (block, attempt), attempt 1-based: ready to submit;
        # in flight when the pool broke (re-run one at a time, so the
        # poison block is attributed unambiguously); out of pool retries
        # and degrading in-process.  Cooling entries wait out a backoff.
        self.pending = deque((b, 1) for b in self.blocks)
        self.suspects: deque = deque()
        self.degrade_queue: deque = deque()
        self.cooling: list[tuple[float, Block, int]] = []
        self.pool: ProcessPoolExecutor | None = None

    # -- bookkeeping ---------------------------------------------------
    def _event(
        self, kind: str, block: Block | None, attempt: int, detail: str
    ) -> None:
        t = round(time.monotonic() - self.start, 4)
        self.report.events.append(FaultEvent(t, kind, block, attempt, detail))
        if kind in _JOURNAL_KINDS:
            journal_event(
                _JOURNAL_KINDS[kind], block=block[0] if block else None,
                attempt=attempt, detail=detail,
            )

    def _complete(self, block: Block, local) -> None:
        """Record one completed block (every rung funnels here)."""
        self.completed.append((block, local))
        journal_event(
            "block_completed", block=block[0], stop=block[1], step=block[2],
            states=local.num_states, worker=getattr(local, "worker_pid", None),
        )
        if self.on_complete is not None:
            self.on_complete(block, local)

    def _deadline_left(self) -> float | None:
        if self.policy.deadline is None:
            return None
        return self.policy.deadline - (time.monotonic() - self.start)

    def _quarantine(self, block: Block, attempt: int, detail: str) -> None:
        self.report.quarantined.append(
            {"block": block, "attempts": attempt, "error": detail}
        )
        get_registry().count("supervisor.quarantined_total", 1)
        self._event("quarantine", block, attempt, detail)

    def _register_failure(
        self, block: Block, attempt: int, kind: str, detail: str,
        exc: BaseException | None = None,
    ) -> None:
        """One attempt of *block* failed; climb the ladder: backoff +
        retry, then in-process degradation (plain pool failures only:
        a hang cannot be interrupted in-process and a hard crash would
        kill the parent), then quarantine.  Unsupervised, stop."""
        if kind == "timeout":
            self.report.timeouts += 1
            get_registry().count("supervisor.timeouts_total", 1)
        self._event(kind, block, attempt, detail)
        if self.fail_fast:
            self.failures.append((block, detail, exc))
            self.pending.clear()
        elif attempt <= self.policy.max_retries:
            delay = self.policy.backoff_seconds(self.spec.seed, block, attempt)
            self.report.retries += 1
            get_registry().count("supervisor.retries_total", 1)
            journal_event(
                "block_retried", block=block[0], attempt=attempt,
                backoff_seconds=delay,
            )
            if delay > 0:
                self._event(
                    "backoff", block, attempt,
                    f"backing off {delay:.3f}s before attempt {attempt + 1}",
                )
            self.cooling.append((time.monotonic() + delay, block, attempt + 1))
        elif self.policy.degrade and kind == "failure" and self.pooled:
            self.degrade_queue.append((block, attempt + 1))
            self._event(
                "degrade", block, attempt, "pool retries exhausted; falling "
                "back to in-process sequential execution",
            )
        else:
            self._quarantine(block, attempt, detail)

    def _suspect(self, block: Block, attempt: int) -> None:
        self.suspects.append((block, attempt))
        self._event(
            "suspect", block, attempt, "pool broke with this block in "
            "flight; will re-run isolated for attribution",
        )

    # -- pool management -----------------------------------------------
    def _pool_size(self) -> int:
        return max(1, min(self.workers, len(self.blocks)))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            # Zero-copy when the store is at hand: workers map it, and a
            # rebuild costs a header read + mmap, not a graph pickle.
            store = self.spec.graph_store
            mapped = store is not None and os.path.exists(store)
            self.pool = ProcessPoolExecutor(
                max_workers=self._pool_size(),
                initializer=_init_worker_store if mapped else _init_worker,
                initargs=(
                    store if mapped else self.graph, self.fingerprint,
                    self.flight_dir,
                ),
            )
            journal_event(
                "pool_initialized", mode="store" if mapped else "pickle",
                workers=self._pool_size(),
            )
        return self.pool

    def _teardown_pool(self, kill: bool = True) -> None:
        """Shut the pool down.  A clean shutdown lets the workers exit
        normally, so their exit hooks run; a pool that may hold a hung
        or dead worker is killed (a running call cannot be cancelled)."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                with contextlib.suppress(Exception):
                    proc.terminate()
        with contextlib.suppress(Exception):
            pool.shutdown(wait=not kill, cancel_futures=True)

    def _rebuild_after(self, reason: str) -> None:
        self._teardown_pool()
        self.report.pool_rebuilds += 1
        get_registry().count("supervisor.pool_rebuilds_total", 1)
        self._event("pool_rebuild", None, 0, reason)

    # -- main loop -----------------------------------------------------
    def run(self) -> tuple[list[tuple[Block, object]], RunReport]:
        """Drive every block; returns ``(completed, report)``."""
        try:
            if self.pooled:
                self._run_pooled()
            else:
                self._run_inprocess(self.pending)
            self._teardown_pool(kill=False)  # nothing is in flight
            self._run_inprocess(self.degrade_queue, degraded=True)
        finally:
            self._teardown_pool()
            self.report.completed = sorted(b for b, _c in self.completed)
            self.report.wall_seconds = round(time.monotonic() - self.start, 4)
        for _block, _detail, exc in self.failures:
            if exc is not None and not isinstance(exc, Exception):
                raise exc
        if self.failures:
            block, detail, exc = min(self.failures, key=lambda f: f[0])
            raise EngineError(f"block {block} crashed: {detail}") from exc
        return self.completed, self.report

    def _promote_cooled(self) -> None:
        now = time.monotonic()
        self.pending.extend((b, a) for r, b, a in self.cooling if r <= now)
        self.cooling = [entry for entry in self.cooling if entry[0] > now]

    def _nap(self) -> None:
        """Sleep toward the first cooled retry (bounded, so deadlines
        and stop requests stay live)."""
        pause = min(r for r, _b, _a in self.cooling) - time.monotonic()
        left = self._deadline_left()
        if left is not None:
            pause = min(pause, left)
        time.sleep(min(max(pause, 0.0), 1.0))

    def _halted(self, inflight: dict) -> bool:
        """Abandon the campaign when a stop was requested or the
        deadline expired, recording every block that did not finish."""
        left = self._deadline_left()
        if self.stop_event is not None and self.stop_event.is_set():
            self.report.stopped = True
            reason, kind = "external stop requested", "stop"
        elif left is not None and left <= 0:
            self.report.deadline_hit = True
            reason = f"campaign deadline of {self.policy.deadline:.3f}s expired"
            kind = "deadline"
        else:
            return False
        queued = [*self.pending, *self.suspects, *self.degrade_queue]
        self.report.remaining = sorted(
            {b for b, _a in queued}
            | {b for _r, b, _a in self.cooling}
            | {b for b, _a, _t in inflight.values()}
        )
        for queue in (self.pending, self.suspects, self.degrade_queue, inflight):
            queue.clear()
        self.cooling = []
        self._teardown_pool()
        self._event(
            kind, None, 0, f"{reason}; {len(self.report.remaining)} block(s) "
            "abandoned for a clean checkpointed stop",
        )
        return True

    def _run_inprocess(self, queue: deque, degraded: bool = False) -> None:
        """The in-process rung (``workers == 1`` or a single block) and
        the degrade rung.  No timeouts: an in-process block cannot be
        interrupted."""
        if queue:
            _reset_worker_slot()  # no stale slot leaks into in-process use
        while (queue or self.cooling) and not self.failures:
            if self._halted({}):
                return
            self._promote_cooled()
            if not queue:
                self._nap()
                continue
            block, attempt = queue.popleft()
            try:
                local = run_block(self.graph, self.spec, block, self.fault)
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                if degraded:
                    self._quarantine(
                        block, attempt, f"in-process fallback failed: {detail}"
                    )
                else:
                    self._register_failure(block, attempt, "failure", detail, exc)
                continue
            self._complete(block, local)
            if degraded:
                self.report.degraded.append(block)
                journal_event("block_degraded", block=block[0])
                self._event(
                    "degrade", block, attempt, "in-process fallback succeeded"
                )

    def _run_pooled(self) -> None:
        inflight: dict = {}  # Future -> (block, attempt, t_submit)
        while self.pending or self.cooling or self.suspects or inflight:
            if self._halted(inflight):
                return
            self._promote_cooled()
            # While suspects exist, run exactly one block at a time so a
            # repeat pool break is attributed unambiguously.
            source, limit = (
                (self.suspects, 1) if self.suspects
                else (self.pending, self._pool_size())
            )
            try:
                while source and len(inflight) < limit:
                    block, attempt = source[0]
                    fut = self._ensure_pool().submit(
                        _worker, self.spec, block, self.fault,
                        self.fingerprint, self.trace,
                    )
                    source.popleft()
                    inflight[fut] = (block, attempt, time.monotonic())
            except (BrokenProcessPool, RuntimeError) as exc:
                self.suspects.extend((b, a) for b, a, _t in inflight.values())
                inflight.clear()
                self._rebuild_after(
                    "executor rejected submissions: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if not inflight:
                if self.cooling:
                    self._nap()
                continue
            # Wait, bounded by the nearest block timeout and the deadline.
            timeout = _TICK if self.cooling else 1.0
            if self.policy.block_timeout is not None:
                now = time.monotonic()
                timeout = min(timeout, max(0.0, min(
                    t0 + self.policy.block_timeout - now
                    for _b, _a, t0 in inflight.values()
                )))
            left = self._deadline_left()
            if left is not None:
                timeout = min(timeout, max(left, 0.0))
            alone = len(inflight) == 1
            done, _ = wait(list(inflight), timeout, FIRST_COMPLETED)
            broken = False
            for fut in done:
                block, attempt, _t0 = inflight.pop(fut)
                try:
                    local = fut.result(timeout=0)
                except BrokenProcessPool as exc:
                    broken = True
                    if alone or self.fail_fast:
                        self._register_failure(
                            block, attempt, "crash",
                            f"worker process died: {exc}", exc,
                        )
                    else:
                        self._suspect(block, attempt)
                except BaseException as exc:
                    self._register_failure(
                        block, attempt, "failure",
                        f"{type(exc).__name__}: {exc}", exc,
                    )
                else:
                    self._complete(block, local)
            if broken:
                for block, attempt, _t0 in inflight.values():
                    if self.fail_fast:
                        self._register_failure(
                            block, attempt, "crash",
                            "worker process died: the pool broke",
                        )
                    else:
                        self._suspect(block, attempt)
                inflight.clear()
                self._rebuild_after("BrokenProcessPool: worker died")
            elif self.policy.block_timeout is not None and inflight:
                self._watchdog(inflight)

    def _watchdog(self, inflight: dict) -> None:
        """Declare blocks past their wall-clock budget hung.  A running
        future cannot be cancelled, so the pool is torn down; innocent
        in-flight blocks are requeued without charge."""
        now = time.monotonic()
        expired = [
            fut for fut, (_b, _a, t0) in inflight.items()
            if now - t0 >= self.policy.block_timeout and not fut.done()
        ]
        if not expired:
            return
        for fut in expired:
            block, attempt, t0 = inflight.pop(fut)
            self._register_failure(
                block, attempt, "timeout",
                f"block exceeded block_timeout="
                f"{self.policy.block_timeout:.3f}s (ran {now - t0:.3f}s); "
                "worker terminated",
            )
        for fut, (block, attempt, _t0) in list(inflight.items()):
            del inflight[fut]
            if not fut.done():
                self.pending.appendleft((block, attempt))
                self._event(
                    "requeue", block, attempt, "requeued without charge: "
                    "pool torn down to kill a hung sibling",
                )
                continue
            try:  # finished while we were deciding: harvest it
                self._complete(block, fut.result(timeout=0))
            except BaseException as exc:
                self._register_failure(
                    block, attempt, "failure", f"{type(exc).__name__}: {exc}"
                )
        self._rebuild_after(f"terminated {len(expired)} hung worker(s)")


def run_supervised(
    graph: SignedGraph,
    blocks: Sequence[Block],
    *,
    method: str = "bfs",
    kernel: str = "lockstep",
    seed: int = 0,
    store_states: bool = False,
    batch_size: int | str = 1,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    fault: Callable[[Block], None] | None = None,
    swaps_per_state: int = 1,
    graph_store=None,
    stop_event: "threading.Event | None" = None,
    flight_dir: str | None = None,
) -> tuple[list[tuple[Block, object]], RunReport]:
    """Run campaign *blocks* through the driver; returns the
    ``(block, block_cloud)`` pairs that completed (merge them in sorted
    block order) and the :class:`RunReport`.

    With a *policy* the ladder consumes block failures; ``policy=None``
    raises :class:`~repro.errors.EngineError` on the first failing block.
    Setting ``stop_event`` (the serve daemon draining) abandons the
    remaining blocks like an expired deadline (``report.stopped``).
    """
    spec = CampaignMeta.build(
        graph, method=method, kernel=kernel, seed=seed,
        batch_size=batch_size, store_states=store_states,
        swaps_per_state=swaps_per_state, graph_store=graph_store,
    )
    return CampaignSupervisor(
        graph, blocks, spec, workers=workers, policy=policy, fault=fault,
        stop_event=stop_event, flight_dir=flight_dir,
    ).run()
