"""Degree-aware BFS spanning trees (extension motivated by §6.6).

The paper observes that fundamental cycles are short but pass through
very high-degree vertices (~150 average on-cycle degree), making
"determining which edge to follow" the cycle-processing bottleneck, and
notes the observation "may prove useful to further enhance the
performance of graphB+".

This sampler acts on that hint: it is a BFS like
:func:`repro.trees.bfs.bfs_tree` (the same levels-first kernel), but
when several frontier vertices offer to adopt the same undiscovered
vertex, the **lowest-degree** offerer wins (ties broken randomly)
instead of a uniformly random one.
Hubs therefore adopt fewer children, so cycle walks descend through
smaller child lists.  Tree depth is unchanged (still a BFS — levels are
graph distances), so cycle lengths stay minimal; only the scan cost per
visited vertex drops.  The effect is quantified in
``benchmarks/test_ablation_degree_aware.py``.

``prefer="high"`` inverts the choice (the adversarial configuration,
useful for bounding the effect).
"""

from __future__ import annotations

from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, as_generator
from repro.trees.bfs import bfs_parents
from repro.trees.tree import SpanningTree

__all__ = ["degree_aware_bfs_tree"]


def degree_aware_bfs_tree(
    graph: SignedGraph,
    root: int | None = None,
    seed: SeedLike = None,
    prefer: str = "low",
) -> SpanningTree:
    """BFS tree whose parent choices prefer low- (or high-)degree offers:
    each vertex adopts the offer with the smallest (degree rank, random
    key), the earliest offer winning exact ties."""
    if prefer not in ("low", "high"):
        raise EngineError(f"prefer must be 'low' or 'high', got {prefer!r}")
    rank = graph.degrees if prefer == "low" else -graph.degrees
    root, parent, parent_edge, _ = bfs_parents(
        graph, as_generator(seed), root, priority=rank
    )
    return SpanningTree.from_parents(graph, root, parent, parent_edge)
