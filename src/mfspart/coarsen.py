"""Multilevel coarsening: FPGA-aware greedy pairwise matching, contracted
in arrays.

One function, `best_partner`, is the whole matching rule.  A vertex
scores each unmatched neighbour by the nets they share (heavy edges,
small pins), skips a neighbour whose combined weight exceeds the largest
per-type FPGA capacity, and weighs the rest by a balance penalty on the
product of the two vertices' resource usage, normalized by mean FPGA
capacity.  Zero-penalty merges come first, ordered by score; the others
follow by score over penalty; ties go to the lower id.  The penalty
exponent grows with the level index so early levels chase connectivity
and late levels enforce balance.

A level reads only the hypergraph's arrays and builds the next level's
(`model.Hypergraph`); no `Vertex` or `Hyperedge` is made.  Within a level
a pair's score, penalty and capacity test never change, only which
vertices are matched, so `coarsen_level` ranks the candidates of many
vertices in one array pass (`_ranked`) and the greedy pass takes each
free vertex's first free candidate.  `_contract` maps the pins through
the matching into the coarse graph's arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._exchange import _dedupe, _ranges
from .model import Hypergraph, ResourceVector
from .seeds import TAG_COARSEN, sub_seed
from .topology import MfsTopology, mean_capacity

CHUNK = 1 << 12  # pair rows per ranking pass: bounds its temporaries


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
    s = _usage_product(wu, wv, mean_caps)
    return s**alpha if s else 0.0


def _usage_product(wu, wv, mean_caps):
    """sum_i w_i(u) * w_i(v) / mean_cap_i^2, added type by type from 0.0:
    of one pair, or of many when wu and wv hold one array per type."""
    s = 0.0
    for a, b, c in zip(wu, wv, mean_caps):
        c = float(c)
        if c > 0:
            s += a * b / (c * c)
    return s


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


def _ranked(
    h: Hypergraph, us: np.ndarray, free: np.ndarray, alpha: float, mean_caps, max_caps
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of the vertices us, each vertex's in `best_partner`'s
    order, as (ptr, cand): those of us[i] are cand[ptr[i]:ptr[i + 1]].  A
    candidate of u is a vertex v != u with free[v] that shares a net with
    u and fits with it under `max_caps`.

    One array pass over the pins: a row per (u, net of u, member), in
    ascending net order for each u, holds the net's share w_e / (|e| - 1).
    A pair's score is the bincount of its rows' shares over np.unique's
    inverse, which adds them one by one in that order, as `best_partner`'s
    sum is defined.  The penalty is `heavy_node_penalty`'s, its power
    Python's, taken once per distinct value."""
    n = h.num_vertices
    pos, row = _ranges(h.inc_ptr[us], h.inc_ptr[us + 1])
    es = h.inc[pos]
    pos, at = _ranges(h.pin_ptr[es], h.pin_ptr[es + 1])
    lu, v = row[at], h.pins[pos]
    keep = free[v] & (v != us[lu])
    es, lu, v = es[at[keep]], lu[keep], v[keep]
    share = h.weight[es] / (h.pin_ptr[es + 1] - h.pin_ptr[es] - 1)
    pair, inv = np.unique(lu * n + v, return_inverse=True)
    score = np.bincount(inv, share, len(pair))
    lu, v = np.divmod(pair, n)
    w = h.weight_matrix().T
    wu, wv = w[:, us[lu]], w[:, v]
    fit = (wu + wv <= np.array(max_caps)[:, None]).all(0)
    lu, v, score = lu[fit], v[fit], score[fit]
    s = _usage_product(wu[:, fit], wv[:, fit], mean_caps)
    vals, inv = np.unique(s, return_inverse=True)
    penalty = np.array([x**alpha if x else 0.0 for x in vals.tolist()])[inv]
    # zero-penalty merges first, by score, then the rest by score over
    # penalty; the sort is stable and the pairs come by vertex, then id
    costly = penalty != 0.0
    value = np.divide(score, penalty, out=score.astype(float), where=costly)
    order = np.lexsort((-value, 2 * lu + costly))
    return np.searchsorted(lu[order], np.arange(len(us) + 1)), v[order]


def best_partner(
    h: Hypergraph, u: int, match: list[int], alpha: float, mean_caps: list[float],
    max_caps: list[int],
) -> int:
    """The neighbour vertex u merges with, or -1 for none.

    Every neighbour v with match[v] == -1 is scored by the sum of
    w_e / (|e| - 1) over the nets it shares with u, added in ascending net
    order.  A pair whose combined weight exceeds `max_caps` in some type
    is skipped; the rest rank zero-`heavy_node_penalty` pairs first, by
    score, then the others by score over penalty, ties to the lower id.
    """
    cand = _ranked(h, np.array([u]), np.asarray(match) == -1, alpha, mean_caps, max_caps)[1]
    return int(cand[0]) if len(cand) else -1


def _contract(h: Hypergraph, mapping: np.ndarray, n_coarse: int) -> Hypergraph:
    """The coarse hypergraph of a fine-to-coarse vertex `mapping`, built
    from the pin arrays: each net's pins mapped, its drains sorted and
    deduplicated without its source, a net left without a drain dropped,
    and parallel nets (same source and drains) merged in first-appearance
    order, their weights summed."""
    src = mapping[h.source]
    net = np.repeat(np.arange(h.num_edges), np.diff(h.pin_ptr))
    pin = mapping[h.pins]
    keep = pin != src[net]  # the source's own pin among them
    net, drains = np.divmod(_dedupe(net[keep] * n_coarse + pin[keep]), n_coarse)
    # the nets left with a drain, each keyed by its source and its drains'
    # bytes: the first net of each key is kept, with the weights of the rest
    es = _dedupe(net)
    cut = np.append(net.searchsorted(es), len(net))
    raw, at = drains.tobytes(), (cut * drains.itemsize).tolist()
    first: dict[tuple[int, bytes], int] = {}
    group = [
        first.setdefault((s, raw[a:b]), j)
        for j, (s, a, b) in enumerate(zip(src[es].tolist(), at, at[1:]))
    ]
    weight = np.zeros(len(es), np.int64)
    np.add.at(weight, group, h.weight[es])
    lead = np.fromiter(first.values(), np.intp, len(first))
    pin_ptr = np.zeros(len(lead) + 1, np.intp)
    np.cumsum(np.diff(cut)[lead] + 1, out=pin_ptr[1:])
    # each kept net's drains, with its source inserted before them
    body = drains[_ranges(cut[lead], cut[lead + 1])[0]]
    pins = np.insert(body, pin_ptr[:-1] - np.arange(len(lead)), src[es[lead]])
    weights = np.zeros((n_coarse, h.num_resource_types), np.int64)
    np.add.at(weights, mapping, h.weight_matrix())
    return Hypergraph.from_arrays(weights, pin_ptr, pins.astype(np.int32), weight[lead])


def coarsen_level(
    h: Hypergraph,
    t: MfsTopology,
    cfg: CoarseningConfig,
    level: int,
    n_init: int | None = None,
) -> Level:
    """One pairwise-matching pass.

    Vertices are visited in seeded random order; each unmatched vertex
    merges with its `best_partner`.  The visit order is ranked in chunks
    of at most CHUNK pair rows (`_ranked`), each over the vertices and
    candidates still free when it starts, and the greedy pass takes each
    free vertex's first free candidate: a pair's rank does not depend on
    what else is matched.  Coarse ids are dense, in fine-id order; the
    coarse graph is `_contract`'s.
    """
    n = h.num_vertices
    alpha = alpha_at_level(
        cfg, n if n_init is None else n_init, level, n_final=cfg.resolved_n_final(t.k_fpgas)
    )
    mean_caps = [float(c) for c in mean_capacity(t)]
    max_caps = [max(c[i] for c in t.capacities) for i in range(t.num_resource_types)]

    order = list(range(n))
    random.Random(sub_seed(cfg.seed, TAG_COARSEN, level)).shuffle(order)
    visit = np.array(order, np.intp)
    match = np.arange(n)  # each vertex's partner, itself while free
    free = np.ones(n, bool)
    # the rows of `_ranked` before each vertex of the visit order: a
    # vertex's are the pins of its nets
    sizes = np.diff(h.pin_ptr)
    ends = np.zeros(n + 1)
    np.cumsum(np.bincount(h.pins, np.repeat(sizes, sizes), n)[visit], out=ends[1:])
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(ends.searchsorted(ends[lo] + CHUNK, "right")) - 1)
        us = visit[lo:hi][free[visit[lo:hi]]]
        ptr, cand = (x.tolist() for x in _ranked(h, us, free, alpha, mean_caps, max_caps))
        for u, a, b in zip(us.tolist(), ptr, ptr[1:]):
            if free[u]:
                for v in cand[a:b]:
                    if free[v]:
                        match[u], match[v] = v, u
                        free[u] = free[v] = False
                        break
        lo = hi

    # a coarse id per pair, numbered by the pair's lower id
    low = np.minimum(match, np.arange(n))
    lead = low == np.arange(n)
    mapping = (lead.cumsum() - 1)[low]
    return Level(_contract(h, mapping, int(lead.sum())), mapping.tolist(), level)


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
