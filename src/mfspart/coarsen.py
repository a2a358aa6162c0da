"""Multilevel coarsening: FPGA-aware greedy pairwise matching.

Merge priority combines a connectivity score (heavy shared edges, small
pins) with a balance penalty on the product of the two vertices' resource
usage, normalized by mean FPGA capacity.  The penalty exponent grows with
the level index so early levels chase connectivity and late levels enforce
balance.
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


def heavy_edge_score(h: Hypergraph, u: int, v: int) -> float:
    """Sum over shared edges of w_e / (|e| - 1); 0 when nothing is shared."""
    if u == v:
        raise ValueError("heavy_edge_score needs two distinct vertices")
    eu = set(h.incidence[u])
    score = 0.0
    for e in h.incidence[v]:
        if e in eu:
            edge = h.edges[e]
            score += edge.weight / (len(edge) - 1)
    return score


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


def rating(h: Hypergraph, u: int, v: int, alpha: float, mean_caps: tuple) -> float:
    """Merge priority r/p; infinite when the balance penalty is zero."""
    r = heavy_edge_score(h, u, v)
    p = heavy_node_penalty(h.vertices[u].weight, h.vertices[v].weight, alpha, mean_caps)
    zero_penalty, score = merge_priority(r, p)
    return math.inf if zero_penalty else score


def _max_caps(t: MfsTopology) -> list[int]:
    k = t.num_resource_types
    return [max(c[i] for c in t.capacities) for i in range(k)]


def coarsen_level(
    h: Hypergraph,
    t: MfsTopology,
    cfg: CoarseningConfig,
    level: int,
    n_init: int | None = None,
) -> Level:
    """One pairwise-matching pass.

    Vertices are visited in seeded random order; each unmatched vertex
    merges with its best-rated unmatched neighbor (ties to the lower id).
    Merges whose combined weight cannot fit the largest per-type FPGA
    capacity are skipped.  Single-pin coarse edges are dropped and parallel
    coarse edges merged with summed weights.
    """
    n = h.num_vertices
    if n_init is None:
        n_init = n
    n_final = cfg.resolved_n_final(t.k_fpgas)
    alpha = alpha_at_level(cfg, n_init, level, n_final=n_final)
    mean_caps = [float(c) for c in mean_capacity(t)]
    max_caps = _max_caps(t)
    k = h.num_resource_types
    weights = [v.weight.values for v in h.vertices]

    order = list(range(n))
    random.Random(sub_seed(cfg.seed, TAG_COARSEN, level)).shuffle(order)
    match = [-1] * n
    for u in order:
        if match[u] != -1:
            continue
        wu = weights[u]
        # connectivity scores for every unmatched neighbor in one pass
        scores: dict[int, float] = {}
        for e in h.incidence[u]:
            edge = h.edges[e]
            contrib = edge.weight / (len(edge) - 1)
            for m in edge.members:
                if m != u and match[m] == -1:
                    scores[m] = scores.get(m, 0.0) + contrib
        best_key = None
        best_v = -1
        for v_cand, r in scores.items():
            wv = weights[v_cand]
            if any(wu[i] + wv[i] > max_caps[i] for i in range(k)):
                continue
            p = heavy_node_penalty(wu, wv, alpha, mean_caps)
            key = (*merge_priority(r, p), -v_cand)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v_cand
        if best_v >= 0:
            match[u] = best_v
            match[best_v] = u

    # dense coarse ids in fine-id order
    mapping = [-1] * n
    next_id = 0
    for v in range(n):
        if mapping[v] != -1:
            continue
        mapping[v] = next_id
        if match[v] != -1 and mapping[match[v]] == -1:
            mapping[match[v]] = next_id
        next_id += 1

    coarse_w = [[0] * k for _ in range(next_id)]
    for v in range(n):
        cw = coarse_w[mapping[v]]
        wv = weights[v]
        for i in range(k):
            cw[i] += wv[i]
    coarse_vertices = [Vertex(i, ResourceVector(w)) for i, w in enumerate(coarse_w)]

    merged: dict[tuple[int, tuple[int, ...]], int] = {}
    keys_in_order: list[tuple[int, tuple[int, ...]]] = []
    for e in h.edges:
        src = mapping[e.source]
        drains = tuple(sorted({mapping[d] for d in e.drains} - {src}))
        if not drains:
            continue
        key = (src, drains)
        if key in merged:
            merged[key] += e.weight
        else:
            merged[key] = e.weight
            keys_in_order.append(key)
    coarse_edges = [
        Hyperedge(j, merged[key], key[0], key[1]) for j, key in enumerate(keys_in_order)
    ]
    return Level(Hypergraph(coarse_vertices, coarse_edges), mapping, level)


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


def compose_mappings(levels: list[Level]) -> list[int]:
    """Map each original vertex to its coarsest hypernode."""
    if not levels:
        return []
    acc = list(levels[0].mapping)
    for lv in levels[1:]:
        acc = [lv.mapping[c] for c in acc]
    return acc
