"""Crash-safe cloud checkpointing: the campaign spec, save, load,
recover, and resume.

* **Atomic, self-describing writes** (format v2).  :func:`save_cloud`
  writes to a temp file, fsyncs, and publishes with ``os.replace``, so
  a kill at any instant leaves the previous checkpoint or the new one,
  never a torn file.  The payload embeds the campaign spec
  (:class:`CampaignMeta`) next to the graph fingerprint.
* **Rotation + recovery.**  ``save_cloud(..., keep=K)`` keeps the last
  K checkpoints (``path``, ``path.1``, …) and :func:`recover_cloud`
  falls back to the newest loadable one.  Every array is shape-checked
  against the graph, so damage surfaces as a
  :class:`~repro.errors.CheckpointError`.
* **Validated resume.**  :func:`resume_cloud` continues a campaign from
  state ``cloud.num_states``, bit-identical to an uninterrupted run;
  unset parameters inherit the stored spec and explicit ones must
  match it.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Tuple, Union

import numpy as np

from repro.cloud.cloud import BATCHED_KERNELS, FrustrationCloud, auto_batch_size
from repro.errors import CheckpointError, EngineError
from repro.graph.csr import SignedGraph

# The canonical fingerprint lives with the graph store (re-exported).
from repro.graph.store import GraphStore, graph_fingerprint
from repro.perf.journal import journal_event
from repro.perf.registry import get_registry
from repro.perf.tracing import span
from repro.rng import freeze_seed

__all__ = [
    "CampaignMeta",
    "CheckpointWriter",
    "save_cloud",
    "load_cloud",
    "load_checkpoint",
    "recover_cloud",
    "resume_cloud",
    "validate_campaign",
    "graph_fingerprint",
    "rotated_paths",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
_COMPAT_VERSIONS = (1, 2)

# Fault-injection seams (see repro.util.faults): crash tests kill the
# atomic write mid-stream or before the publishing rename through these.
_replace: Callable[..., None] = os.replace
_wrap_stream: Callable[[IO[bytes]], IO[bytes]] = lambda fh: fh


#: Default campaign parameters (what a checkpoint without a spec implies).
_CAMPAIGN_DEFAULTS = {
    "method": "bfs",
    "kernel": "lockstep",
    "seed": 0,
    "batch_size": 1,
    "store_states": False,
    "swaps_per_state": 1,
}


@dataclass(frozen=True)
class CampaignMeta:
    """The campaign spec: the parameters that determine a campaign's
    exact state sequence, validated on construction (invalid values
    raise :class:`~repro.errors.EngineError`).  Entry points build it
    with :meth:`build`; every checkpoint stores it.

    ``graph_store`` is the path of the packed
    :class:`~repro.graph.store.GraphStore` the campaign runs against —
    advisory, since the checkpoint's fingerprint pins the graph.
    ``done_blocks`` is ``None`` for a contiguous prefix, else the
    ``(start, stop, step)`` blocks that completed before the campaign
    stopped; ``quarantined_blocks`` are the blocks the supervisor gave
    up on (a resume re-attempts them).
    """

    method: str
    kernel: str
    seed: int
    batch_size: int
    store_states: bool
    # Swap-chain stride (method="swap" only); 1 for every other method.
    swaps_per_state: int = 1
    graph_store: str | None = None
    done_blocks: Tuple[Tuple[int, int, int], ...] | None = None
    quarantined_blocks: Tuple[Tuple[int, int, int], ...] | None = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "swaps_per_state"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise EngineError(
                    f"{name} must be a positive int"
                    + (" or 'auto'" if name == "batch_size" else "")
                    + f", got {value!r}"
                )
        # The swap chain emits balanced states directly, so only tree
        # methods going through the parity engine need a batched kernel.
        if (
            self.method != "swap"
            and self.batch_size > 1
            and self.kernel not in BATCHED_KERNELS
        ):
            raise EngineError(
                f"kernel {self.kernel!r} has no batched implementation; "
                f"use batch_size=1 or one of {BATCHED_KERNELS}"
            )

    @classmethod
    def build(
        cls,
        graph: SignedGraph,
        stored: "CampaignMeta | None" = None,
        *,
        graph_store=None,
        **given,
    ) -> "CampaignMeta":
        """The spec for a campaign over *graph*: resolves
        ``batch_size="auto"`` and freezes the seed.  *given* values left
        ``None`` inherit from *stored* (or the defaults); explicit ones
        that disagree with it raise :class:`~repro.errors.
        CheckpointError`.  *graph_store* (a path or an open store) must
        hold *graph*; when omitted, the stored campaign's is kept.
        """
        if given.get("batch_size") == "auto":
            given["batch_size"] = auto_batch_size(graph.num_vertices)
        if given.get("seed") is not None:
            given["seed"] = freeze_seed(given["seed"])
        params = dict(_CAMPAIGN_DEFAULTS)
        if stored is not None:
            params.update((k, getattr(stored, k)) for k in _CAMPAIGN_DEFAULTS)
        params.update((k, v) for k, v in given.items() if v is not None)
        explicit = graph_store is not None
        if not explicit and stored is not None:
            graph_store = stored.graph_store
        if graph_store is not None:
            fingerprint = getattr(graph_store, "fingerprint", None)
            graph_store = str(getattr(graph_store, "path", graph_store))
            if fingerprint is None and (explicit or os.path.exists(graph_store)):
                fingerprint = GraphStore.read_header(graph_store).fingerprint
            if fingerprint is not None and fingerprint != graph_fingerprint(graph):
                raise (EngineError if explicit else CheckpointError)(
                    f"graph store {graph_store} holds a different graph than "
                    "the campaign's (fingerprint mismatch); pass "
                    "store.graph() as the graph, or repack the store"
                )
        spec = cls(**params, graph_store=graph_store)
        validate_campaign(stored, **given)
        return spec

    def params(self) -> dict:
        """The campaign parameters as keyword arguments (no block
        bookkeeping) — what :func:`~repro.parallel.supervisor.
        run_supervised` and the journal take."""
        names = (*_CAMPAIGN_DEFAULTS, "graph_store")
        return {name: getattr(self, name) for name in names}


# -- atomic write + rotation -------------------------------------------
def _backup_path(path: Path, k: int) -> Path:
    return path.with_name(f"{path.name}.{k}")


def _rotate(path: Path, keep: int) -> None:
    """Shift ``path`` into the backup chain ``path.1 .. path.{keep-1}``."""
    if keep <= 1 or not path.exists():
        return
    for k in range(keep - 2, 0, -1):
        src = _backup_path(path, k)
        if src.exists():
            _replace(src, _backup_path(path, k + 1))
    _replace(path, _backup_path(path, 1))


def rotated_paths(path: PathLike) -> list[Path]:
    """The checkpoint path and its existing rotation backups, newest
    first (the primary path is listed even when missing, so callers can
    report it)."""
    return list(_candidates(Path(path)))


def _candidates(path: Path) -> Iterator[Path]:
    yield path
    k = 1
    while True:
        backup = _backup_path(path, k)
        if not backup.exists():
            return
        yield backup
        k += 1


def save_cloud(
    cloud: FrustrationCloud,
    path: PathLike,
    campaign: CampaignMeta | None = None,
    keep: int = 1,
) -> None:
    """Persist the cloud's accumulators to an NPZ checkpoint at exactly
    *path* (no ``.npz`` suffix is appended).

    The write is atomic (``<path>.tmp``, fsync, rename), so a crash
    leaves the previous checkpoint untouched.  ``keep >= 2`` rotates the
    previous checkpoint to ``<path>.1`` (and so on, ``keep`` files in
    all), so :func:`recover_cloud` can fall back past later damage.
    """
    path = Path(path)
    if keep < 1:
        raise CheckpointError(f"keep must be >= 1, got {keep}")
    if campaign is not None and campaign.store_states != cloud.store_states:
        raise CheckpointError(
            "campaign.store_states disagrees with the cloud being saved"
        )
    with span("checkpoint_write"):
        payload = _payload(cloud, campaign)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as raw:
                fh = _wrap_stream(raw)
                np.savez_compressed(fh, **payload)
                fh.flush()
                os.fsync(raw.fileno())
            _rotate(path, keep)
            _replace(tmp, path)
        except OSError as exc:
            # An I/O failure (classically ENOSPC) mid-write: drop the
            # temp file, record it, and raise the CheckpointError the
            # campaign layers degrade on.
            with contextlib.suppress(OSError):
                tmp.unlink()
            kind = "disk_full" if exc.errno == errno.ENOSPC else "io_error"
            get_registry().count(f"checkpoint.{kind}_total", 1)
            journal_event(
                kind, op="checkpoint_write", path=str(path), error=str(exc)
            )
            raise CheckpointError(
                f"checkpoint write to {path} failed: {exc}"
            ) from exc
        registry = get_registry()
        registry.count("checkpoint.writes_total", 1)
        registry.gauge("checkpoint.last_bytes", float(path.stat().st_size))
        journal_event(
            "checkpoint_written",
            path=str(path),
            states=cloud.num_states,
            bytes=path.stat().st_size,
        )


def _payload(
    cloud: FrustrationCloud, campaign: CampaignMeta | None
) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "fingerprint": np.frombuffer(
            graph_fingerprint(cloud.graph).encode("ascii"), dtype=np.uint8
        ),
        "num_vertices": np.array([cloud.graph.num_vertices], dtype=np.int64),
        "num_edges": np.array([cloud.graph.num_edges], dtype=np.int64),
        "num_states": np.array([cloud.num_states], dtype=np.int64),
        "store_states": np.array([int(cloud.store_states)], dtype=np.int64),
        "majority": cloud._majority,
        "majority_sq": cloud._majority_sq,
        # The accumulator is the integer sum of (side size - 1); the
        # file keeps the historical per-state fraction sum.
        "coalition": cloud._coalition / max(cloud.graph.num_vertices - 1, 1),
        "edge_preserved": cloud._edge_preserved,
        "edge_coside": cloud._edge_coside,
        "flip_counts": cloud.flip_counts(),
    }
    metrics = getattr(cloud, "metrics", None)
    if metrics:
        # A 0-d unicode array round-trips through np.load without
        # allow_pickle, keeping the checkpoint pickle-free.
        payload["metrics_json"] = np.array(json.dumps(metrics))
    if cloud.store_states:
        keys = list(cloud._unique.keys())
        payload["unique_signs"] = (
            np.stack([np.frombuffer(k, dtype=np.int8) for k in keys])
            if keys
            else np.empty((0, cloud.graph.num_edges), dtype=np.int8)
        )
        payload["unique_counts"] = np.asarray(
            [cloud._unique[k] for k in keys], dtype=np.int64
        )
    if campaign is not None:
        for name, value in campaign.params().items():
            if value is not None:
                payload[f"campaign_{name}"] = np.array(value)
        for name in ("done_blocks", "quarantined_blocks"):
            blocks = getattr(campaign, name)
            if blocks is not None:
                payload[f"campaign_{name}"] = np.asarray(
                    blocks, dtype=np.int64
                ).reshape(-1, 3)
    return payload


# -- load + validation + recovery --------------------------------------
def _scalar(data, key: str, path: Path) -> int:
    try:
        arr = data[key]
    except KeyError as exc:
        raise CheckpointError(
            f"{path} is not a cloud checkpoint: missing {key!r}"
        ) from exc
    if np.size(arr) < 1:
        raise CheckpointError(f"corrupt checkpoint {path}: empty {key!r}")
    return int(np.ravel(arr)[0])


def _array(data, key: str, shape: tuple, dtype, path: Path) -> np.ndarray:
    try:
        arr = data[key]
    except KeyError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: missing array {key!r}"
        ) from exc
    if arr.shape != shape:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {key} has shape {arr.shape}, "
            f"expected {shape} for this graph"
        )
    return np.ascontiguousarray(arr, dtype=dtype)


def _restore(
    data, graph: SignedGraph, path: Path
) -> tuple[FrustrationCloud, CampaignMeta | None]:
    version = _scalar(data, "version", path)
    if version not in _COMPAT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path} "
            f"(this build reads versions {_COMPAT_VERSIONS})"
        )
    try:
        stored_fp = bytes(data["fingerprint"]).decode("ascii")
    except KeyError as exc:
        raise CheckpointError(
            f"{path} is not a cloud checkpoint: missing 'fingerprint'"
        ) from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: unreadable fingerprint"
        ) from exc
    if stored_fp != graph_fingerprint(graph):
        raise CheckpointError(
            f"checkpoint {path} was built from a different graph "
            "(fingerprint mismatch)"
        )
    n, m = graph.num_vertices, graph.num_edges
    num_states = _scalar(data, "num_states", path)
    if num_states < 0:
        raise CheckpointError(
            f"corrupt checkpoint {path}: negative num_states {num_states}"
        )
    store_states = bool(_scalar(data, "store_states", path))

    cloud = FrustrationCloud(graph, store_states=store_states)
    cloud._majority = _array(data, "majority", (n,), np.float64, path)
    cloud._majority_sq = _array(data, "majority_sq", (n,), np.float64, path)
    coalition = _array(data, "coalition", (n,), np.float64, path)
    cloud._coalition = np.rint(coalition * max(n - 1, 1)).astype(np.int64)
    cloud._edge_preserved = _array(
        data, "edge_preserved", (m,), np.int64, path
    )
    cloud._edge_coside = _array(data, "edge_coside", (m,), np.int64, path)
    # Through the doubling buffer: the next append finds headroom.
    flips = _array(data, "flip_counts", (num_states,), np.int64, path)
    cloud._append_flip_counts(flips)
    cloud.num_states = num_states
    if store_states:
        try:
            signs = data["unique_signs"]
            counts = data["unique_counts"]
        except KeyError as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: store_states set but "
                f"missing {exc}"
            ) from exc
        if signs.ndim != 2 or signs.shape[1] != m or (
            counts.shape != signs.shape[:1]
        ):
            raise CheckpointError(
                f"corrupt checkpoint {path}: unique_signs/unique_counts have "
                f"shapes {signs.shape}/{counts.shape}, expected (k, {m})/(k,)"
            )
        if int(counts.sum()) != num_states:
            raise CheckpointError(
                f"corrupt checkpoint {path}: unique-state counts sum to "
                f"{int(counts.sum())}, expected {num_states}"
            )
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        cloud._unique = {
            signs[i].tobytes(): int(counts[i]) for i in range(len(counts))
        }

    if "metrics_json" in data.files:
        try:
            metrics = json.loads(str(data["metrics_json"][()]))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: unreadable metrics_json"
            ) from exc
        if not isinstance(metrics, dict):
            raise CheckpointError(
                f"corrupt checkpoint {path}: metrics_json is not an object"
            )
        cloud.metrics = metrics

    meta: CampaignMeta | None = None
    if version >= 2 and "campaign_method" in data.files:
        def value(name: str, required: bool = True):
            key = f"campaign_{name}"
            if key not in data.files:
                if required:
                    raise CheckpointError(
                        f"corrupt checkpoint {path}: missing {key!r}"
                    )
                return None
            arr = data[key]
            if name.endswith("_blocks"):
                if arr.ndim != 2 or arr.shape[1] != 3:
                    raise CheckpointError(
                        f"corrupt checkpoint {path}: {key} has shape "
                        f"{arr.shape}, expected (k, 3)"
                    )
                return tuple(tuple(int(x) for x in row) for row in arr.tolist())
            return str(arr[()]) if arr.dtype.kind == "U" else _scalar(data, key, path)

        meta = CampaignMeta(
            **{k: value(k) for k in ("method", "kernel", "seed", "batch_size")},
            store_states=bool(value("store_states")),
            # Checkpoints older than the swap chain imply 1.
            swaps_per_state=value("swaps_per_state", False) or 1,
            **{
                k: value(k, False)
                for k in ("graph_store", "done_blocks", "quarantined_blocks")
            },
        )
        if meta.store_states != store_states:
            raise CheckpointError(
                f"corrupt checkpoint {path}: campaign metadata disagrees "
                "with the stored accumulators on store_states"
            )
    return cloud, meta


def load_checkpoint(
    path: PathLike, graph: SignedGraph
) -> tuple[FrustrationCloud, CampaignMeta | None]:
    """Restore a checkpoint and its campaign spec (``None`` for v1).
    Every failure mode — missing file, torn zip, bit flips, wrong graph,
    wrong shapes — raises :class:`~repro.errors.CheckpointError`."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            cloud, meta = _restore(data, graph, path)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"corrupt or unreadable checkpoint {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    cloud.campaign_meta = meta
    return cloud, meta


def load_cloud(path: PathLike, graph: SignedGraph) -> FrustrationCloud:
    """Restore a checkpoint against the graph it was built from; its
    spec rides along as ``cloud.campaign_meta``."""
    cloud, _meta = load_checkpoint(path, graph)
    return cloud


def recover_cloud(
    path: PathLike, graph: SignedGraph
) -> tuple[FrustrationCloud, CampaignMeta | None, Path]:
    """Load the newest loadable checkpoint among *path* and its
    backups (``path.1``, …): ``(cloud, meta, source_path)``.  Raises
    :class:`~repro.errors.CheckpointError` naming every attempt when
    none loads."""
    path = Path(path)
    attempts: list[str] = []
    for candidate in _candidates(path):
        try:
            cloud, meta = load_checkpoint(candidate, graph)
            return cloud, meta, candidate
        except CheckpointError as exc:
            attempts.append(f"{candidate}: {exc}")
    raise CheckpointError(
        f"no loadable checkpoint at {path} or its backups; tried: "
        + " | ".join(attempts)
    )


# -- campaign validation + resume --------------------------------------
def validate_campaign(
    stored: CampaignMeta | None,
    *,
    method: str | None = None,
    kernel: str | None = None,
    seed: int | None = None,
    batch_size: int | None = None,
    store_states: bool | None = None,
    swaps_per_state: int | None = None,
) -> dict:
    """Resolve resume parameters against a stored campaign: ``None``
    inherits the stored value (or the default); an explicit value that
    disagrees raises :class:`~repro.errors.CheckpointError`, since the
    resumed run would silently diverge from the original."""
    given = dict(
        method=method, kernel=kernel, seed=seed, batch_size=batch_size,
        store_states=store_states, swaps_per_state=swaps_per_state,
    )
    resolved = {}
    for name, value in given.items():
        inherited = (
            getattr(stored, name) if stored is not None
            else _CAMPAIGN_DEFAULTS[name]
        )
        if stored is not None and value is not None and value != inherited:
            raise CheckpointError(
                f"resume {name}={value!r} does not match the checkpoint's "
                f"campaign {name}={inherited!r}; resuming would diverge "
                "from the original run (pass matching parameters, or omit "
                "them to inherit the stored campaign)"
            )
        resolved[name] = inherited if value is None else value
    return resolved


class CheckpointWriter:
    """Periodic atomic checkpointer bound to one campaign (a ``None``
    path makes every method a no-op)."""

    def __init__(
        self,
        path: PathLike | None,
        campaign: CampaignMeta | None = None,
        every: int = 0,
        keep: int = 1,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.campaign = campaign
        self.every = every
        self.keep = keep
        self._since = 0

    def step(self, cloud: FrustrationCloud, new_states: int) -> None:
        """Record *new_states* freshly ingested states; write a rotated
        checkpoint whenever ``every`` of them accumulate."""
        if self.path is None:
            return
        self._since += new_states
        if self.every > 0 and self._since >= self.every:
            self.write(cloud)

    def write(self, cloud: FrustrationCloud) -> None:
        """Write a checkpoint now (atomic, rotated)."""
        if self.path is None:
            return
        save_cloud(cloud, self.path, campaign=self.campaign, keep=self.keep)
        self._since = 0


def resume_cloud(
    cloud: FrustrationCloud,
    target_states: int,
    method: str | None = None,
    kernel: str | None = None,
    seed: int | None = None,
    checkpoint_path: PathLike | None = None,
    checkpoint_every: int = 0,
    batch_size: int | str | None = None,
    keep_checkpoints: int = 1,
    campaign: CampaignMeta | None = None,
    swaps_per_state: int | None = None,
) -> FrustrationCloud:
    """Continue a seeded campaign from tree index ``cloud.num_states``
    to ``target_states`` states, exactly as an uninterrupted run.

    Parameters left ``None`` inherit the stored spec (the cloud's
    ``campaign_meta``, or *campaign*), including its graph store;
    explicit ones that conflict raise
    :class:`~repro.errors.CheckpointError`.  Re-checkpoints every
    ``checkpoint_every`` new states when ``checkpoint_path`` is given.
    Resuming to the current state count is a no-op.
    """
    from repro.parallel.pool import run_campaign

    stored = campaign if campaign is not None else getattr(
        cloud, "campaign_meta", None
    )
    if stored is not None and stored.done_blocks is not None:
        raise CheckpointError(
            "checkpoint holds salvaged pool blocks, not a contiguous "
            "prefix of the campaign; finish it with "
            "sample_cloud_pool(..., resume_from=...) or the CLI "
            "`cloud --resume --workers`"
        )
    spec = CampaignMeta.build(
        cloud.graph, stored, method=method, kernel=kernel, seed=seed,
        batch_size=batch_size, store_states=cloud.store_states,
        swaps_per_state=swaps_per_state,
    )
    return run_campaign(
        cloud.graph, spec, target_states, base=cloud,
        done=((0, cloud.num_states, 1),), checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, keep_checkpoints=keep_checkpoints,
        driver="resume",
    )
