"""Status-estimate convergence diagnostics (paper future work, §7).

The paper samples 1000 trees per input but defers the question of *how
many samples the status actually needs*.  These tools answer it
empirically for a given graph:

* :func:`status_trajectory` — running status estimates at checkpoints,
  with the max vertex-wise change between consecutive checkpoints (a
  Cauchy-style convergence signal);
* :func:`split_half_agreement` — correlation between the status
  estimates of two disjoint halves of the sample (a split-half
  reliability coefficient: near 1 means the sample size suffices);
* :func:`recommend_sample_size` — doubling search until the split-half
  agreement clears a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cloud.cloud import FrustrationCloud
from repro.errors import ReproError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, freeze_seed

__all__ = [
    "StatusTrajectory",
    "status_trajectory",
    "split_half_agreement",
    "recommend_sample_size",
]


@dataclass(frozen=True)
class StatusTrajectory:
    """Running status estimates at increasing sample sizes."""

    checkpoints: np.ndarray          # sample sizes
    estimates: np.ndarray            # (len(checkpoints), n) status matrix
    max_step_change: np.ndarray      # max |Δ status| between checkpoints

    @property
    def final(self) -> np.ndarray:
        return self.estimates[-1]

    def converged(self, tolerance: float) -> bool:
        """Whether the last checkpoint-to-checkpoint change is below
        *tolerance* (per vertex, max-norm)."""
        return bool(self.max_step_change[-1] <= tolerance)


def _blocks(graph: SignedGraph, method: str, seed: SeedLike, blocks) -> list:
    """One block cloud per ``(start, stop, step)`` block of the campaign
    *method*, *seed* (the engine and bits of ``sample_cloud``)."""
    from repro.cloud.checkpoint import CampaignMeta
    from repro.parallel.pool import run_block

    spec = CampaignMeta.build(graph, method=method, seed=freeze_seed(seed),
                              batch_size="auto")
    return [run_block(graph, spec, block) for block in blocks]


def status_trajectory(
    graph: SignedGraph,
    checkpoints: Sequence[int],
    method: str = "bfs",
    seed: SeedLike = 0,
) -> StatusTrajectory:
    """Status estimates after each checkpoint's worth of sampled states.

    Checkpoints must be strictly increasing; states are shared across
    checkpoints (the 50-state estimate extends the 25-state one), so
    the total work equals the largest checkpoint.
    """
    cps = list(checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        raise ReproError("checkpoints must be strictly increasing and >= 1")

    cloud = FrustrationCloud(graph)
    estimates = []
    segments = zip([0] + cps, cps, [1] * len(cps))
    for segment in _blocks(graph, method, seed, segments):
        cloud.merge(segment)
        estimates.append(cloud.status())
    est = np.stack(estimates)
    steps = np.abs(np.diff(est, axis=0)).max(axis=1)
    changes = np.concatenate([[np.inf], steps])
    return StatusTrajectory(
        checkpoints=np.asarray(cps, dtype=np.int64),
        estimates=est,
        max_step_change=changes,
    )


def split_half_agreement(
    graph: SignedGraph,
    num_states: int,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> float:
    """Pearson correlation between status estimates from the even- and
    odd-indexed halves of a ``num_states`` sample.

    Values near 1 mean the sample size is large enough that two
    independent half-samples agree; near 0 means the estimates are
    still sampling noise.
    """
    if num_states < 4:
        raise ReproError("need at least 4 states to split")
    even, odd = _blocks(
        graph, method, seed, [(0, num_states, 2), (1, num_states, 2)]
    )
    a, b = even.status(), odd.status()
    if np.allclose(a, a[0]) or np.allclose(b, b[0]):
        # Degenerate (e.g. already-balanced graph): identical constant
        # estimates count as full agreement.
        return 1.0 if np.allclose(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def recommend_sample_size(
    graph: SignedGraph,
    target_agreement: float = 0.9,
    start: int = 8,
    max_states: int = 512,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> tuple[int, float]:
    """Double the sample size until split-half agreement clears the
    target; returns ``(size, agreement)`` (the size is capped at
    *max_states* even if the target was not reached)."""
    if not 0.0 < target_agreement <= 1.0:
        raise ReproError("target_agreement must be in (0, 1]")
    size = max(start, 4)
    agreement = split_half_agreement(graph, size, method=method, seed=seed)
    while agreement < target_agreement and size < max_states:
        size = min(size * 2, max_states)
        agreement = split_half_agreement(graph, size, method=method, seed=seed)
    return size, agreement
