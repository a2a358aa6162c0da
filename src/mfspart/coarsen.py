"""Multilevel coarsening: FPGA-aware greedy pairwise matching.

One function, `best_partner`, is the whole matching rule.  A vertex
scores each unmatched neighbour by the nets they share (heavy edges,
small pins), skips a neighbour whose combined weight exceeds the largest
per-type FPGA capacity, and weighs the rest by a balance penalty on the
product of the two vertices' resource usage, normalized by mean FPGA
capacity.  Zero-penalty merges come first, ordered by score; the others
follow by score over penalty; ties go to the lower id.  The penalty
exponent grows with the level index so early levels chase connectivity
and late levels enforce balance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import Hyperedge, Hypergraph, ResourceVector, Vertex
from .seeds import TAG_COARSEN, sub_seed
from .topology import MfsTopology, mean_capacity


@dataclass
class CoarseningConfig:
    alpha0: float = 0.5
    dalpha: float = 3.0
    n_final: int | None = None  # None: max(128, 16 * K) resolved at build
    min_reduction: float = 0.95  # stop when a level retains more than this
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError("alpha0 must be finite and positive")
        if not (math.isfinite(self.dalpha) and self.dalpha >= 0):
            raise ValueError("dalpha must be finite and non-negative")
        if not (0 < self.min_reduction <= 1):
            raise ValueError("min_reduction must be in (0, 1]")
        if self.n_final is not None and self.n_final < 1:
            raise ValueError("n_final must be at least 1")

    def resolved_n_final(self, k_fpgas: int) -> int:
        if self.n_final is not None:
            return self.n_final
        return max(128, 16 * k_fpgas)


@dataclass
class Level:
    """One coarsening step: the coarse graph plus the fine-to-coarse map."""

    hypergraph: Hypergraph
    mapping: list[int]
    index: int


def heavy_node_penalty(
    wu: ResourceVector, wv: ResourceVector, alpha: float, mean_caps: tuple
) -> float:
    """(sum_i w_i(u) * w_i(v) / mean_cap_i^2) ** alpha.

    Types with zero mean capacity must carry zero usage (checked at
    hierarchy build); they contribute nothing here.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = 0.0
    for i in range(len(wu)):
        c = float(mean_caps[i])
        if c > 0:
            s += wu[i] * wv[i] / (c * c)
    if s == 0.0:
        return 0.0
    return s**alpha


def alpha_at_level(
    cfg: CoarseningConfig, n_init: int, level: int, n_final: int | None = None
) -> float:
    """Penalty exponent at a level: alpha0 plus a log-scaled ramp, clamped
    to [alpha0, alpha0 + dalpha]."""
    if n_final is None:
        n_final = cfg.n_final
    if n_final is None:
        raise ValueError("n_final unresolved; set it in the config or pass it")
    if n_init + 1 <= n_final:
        raise ValueError("degenerate instance: initial size not above final size")
    raw = cfg.alpha0 + cfg.dalpha * math.log(2) / math.log((n_init + 1) / n_final) * level
    return min(max(raw, cfg.alpha0), cfg.alpha0 + cfg.dalpha)


def merge_priority(r: float, p: float) -> tuple[int, float]:
    """Sort key of a merge with connectivity score r and balance penalty
    p, higher first: every zero-penalty merge, by r, outranks every other,
    by r/p (zero-cost merges are taken greedily)."""
    return (1, r) if p == 0.0 else (0, r / p)


def best_partner(
    h: Hypergraph, u: int, match: list[int], alpha: float, mean_caps: list[float],
    max_caps: list[int],
) -> int:
    """The neighbour vertex u merges with, or -1 for none.

    Every neighbour v with match[v] == -1 is scored by the sum of
    w_e / (|e| - 1) over the nets it shares with u.  A pair whose combined
    weight exceeds `max_caps` in some type is skipped; the rest rank by
    `merge_priority` of that score and `heavy_node_penalty`, ties to the
    lower id.
    """
    scores: dict[int, float] = {}
    for e in h.incidence[u]:
        edge = h.edges[e]
        contrib = edge.weight / (len(edge) - 1)
        for m in edge.members:
            if m != u and match[m] == -1:
                scores[m] = scores.get(m, 0.0) + contrib
    vertices = h.vertices
    wu = vertices[u].weight.values
    best_key = None
    best_v = -1
    for v, r in scores.items():
        wv = vertices[v].weight.values
        if any(a + b > c for a, b, c in zip(wu, wv, max_caps)):
            continue
        key = (*merge_priority(r, heavy_node_penalty(wu, wv, alpha, mean_caps)), -v)
        if best_key is None or key > best_key:
            best_key = key
            best_v = v
    return best_v


def coarsen_level(
    h: Hypergraph,
    t: MfsTopology,
    cfg: CoarseningConfig,
    level: int,
    n_init: int | None = None,
) -> Level:
    """One pairwise-matching pass.

    Vertices are visited in seeded random order; each unmatched vertex
    merges with its `best_partner`.  Coarse ids are dense, in fine-id
    order.  Single-pin coarse edges are dropped and parallel coarse edges
    merged with summed weights.
    """
    n = h.num_vertices
    alpha = alpha_at_level(
        cfg, n if n_init is None else n_init, level, n_final=cfg.resolved_n_final(t.k_fpgas)
    )
    mean_caps = [float(c) for c in mean_capacity(t)]
    max_caps = [max(c[i] for c in t.capacities) for i in range(t.num_resource_types)]

    order = list(range(n))
    random.Random(sub_seed(cfg.seed, TAG_COARSEN, level)).shuffle(order)
    match = [-1] * n
    for u in order:
        if match[u] == -1:
            v = best_partner(h, u, match, alpha, mean_caps, max_caps)
            if v >= 0:
                match[u], match[v] = v, u

    mapping = [-1] * n
    n_coarse = 0
    for v in range(n):
        if mapping[v] == -1:
            mapping[v] = n_coarse
            if match[v] != -1:
                mapping[match[v]] = n_coarse
            n_coarse += 1
    coarse_w = [[0] * h.num_resource_types for _ in range(n_coarse)]
    for v, c in enumerate(mapping):
        cw = coarse_w[c]
        for i, x in enumerate(h.vertices[v].weight.values):
            cw[i] += x

    merged: dict[tuple[int, tuple[int, ...]], int] = {}
    for e in h.edges:
        src = mapping[e.source]
        drains = tuple(sorted({mapping[d] for d in e.drains} - {src}))
        if drains:
            merged[src, drains] = merged.get((src, drains), 0) + e.weight
    return Level(
        Hypergraph(
            [Vertex(i, ResourceVector(w)) for i, w in enumerate(coarse_w)],
            [Hyperedge(j, w, src, drains) for j, ((src, drains), w) in enumerate(merged.items())],
        ),
        mapping,
        level,
    )


def build_hierarchy(h: Hypergraph, t: MfsTopology, cfg: CoarseningConfig) -> list[Level]:
    """Coarsen until the vertex count reaches the target or progress stalls.

    Total vertex weight per resource type is conserved at every level.
    """
    n_final = cfg.resolved_n_final(t.k_fpgas)
    n_init = h.num_vertices
    if n_init <= n_final:
        return []
    mean_caps = mean_capacity(t)
    totals = h.total_weight()
    for i in range(h.num_resource_types):
        if mean_caps[i] == 0 and totals[i] > 0:
            raise ValueError(
                f"zero mean capacity for resource type {i} with non-zero usage"
            )
    levels: list[Level] = []
    cur = h
    level = 0
    while cur.num_vertices > n_final:
        lv = coarsen_level(cur, t, cfg, level, n_init=n_init)
        new_n = lv.hypergraph.num_vertices
        if new_n >= cur.num_vertices or new_n > cfg.min_reduction * cur.num_vertices:
            break  # no merge or too little progress; hierarchy ends here
        levels.append(lv)
        cur = lv.hypergraph
        level += 1
    return levels
