"""Multi-FPGA network model: capacities, I/O limits, links, hop distances."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import ResourceVector

# Penalty coefficient applied to hops beyond the max-hop limit when scoring
# topological centrality.
HOP_PENALTY_BETA = 2


@dataclass(frozen=True, eq=False)
class HopMatrix:
    """All-pairs shortest-path link counts between FPGAs.

    One hop matrix per command, one array: `dist` is a read-only (K, K)
    int64 array that every phase reads in place, converted once from the
    rows it is given.  It is compared and hashed by identity only."""

    dist: np.ndarray
    _nearest: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dist = np.array(self.dist, np.int64)
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)

    def nearest(self, hosts) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Nearest-copy rows of a non-empty FPGA set: for every FPGA f, the
        hop distance from the closest member of `hosts` to f, and that
        member (ties to the lowest id).  Memoized per set, so the cache
        holds one entry per distinct host set asked for.

        This is the one place a "nearest source copy" is computed: the
        hop distance, the worst hop and the I/O server of a net all read
        the rows of its source's host set, through `metrics.net_terms`."""
        key = frozenset(hosts)
        rows = self._nearest.get(key)
        if rows is None:
            if not key:
                raise ValueError("nearest copy of an empty host set")
            order = sorted(key)
            sub = self.dist[order]
            pick = sub.argmin(0)  # the first minimum: the lowest id
            rows = self._nearest[key] = (
                tuple(sub.min(0).tolist()), tuple(order[i] for i in pick.tolist())
            )
        return rows

    @property
    def k_fpgas(self) -> int:
        return len(self.dist)

    def as_array(self) -> np.ndarray:
        """`dist` itself, not a copy."""
        return self.dist


class MfsTopology:
    """K FPGAs with per-type capacities, optional per-FPGA I/O limits,
    an undirected unit-cost link set, and an optional max-hop bound.

    An I/O limit of None means unconstrained; hop_max None means unlimited.
    """

    def __init__(
        self,
        capacities: list[ResourceVector],
        links: list[tuple[int, int]],
        io_limits: list[int | None] | None = None,
        hop_max: int | None = None,
    ):
        k_fpgas = len(capacities)
        if k_fpgas < 1:
            raise ValueError("topology needs at least one FPGA")
        k = len(capacities[0])
        for c in capacities:
            if len(c) != k:
                raise ValueError("all FPGA capacities must have the same length")
        if io_limits is None:
            io_limits = [None] * k_fpgas
        if len(io_limits) != k_fpgas:
            raise ValueError("io_limits length must equal FPGA count")
        for lim in io_limits:
            if lim is not None and lim < 0:
                raise ValueError("io limit must be non-negative")
        if hop_max is not None and hop_max < 1:
            raise ValueError("hop_max must be positive")
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in links:
            if a == b:
                raise ValueError(f"self-link ({a}, {b})")
            if not (0 <= a < k_fpgas and 0 <= b < k_fpgas):
                raise ValueError(f"link ({a}, {b}) endpoint out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate link ({key[0]}, {key[1]})")
            seen.add(key)
            canon.append(key)
        self.capacities = list(capacities)
        self.io_limits = list(io_limits)
        self.links = sorted(canon)
        self.hop_max = hop_max
        adj: list[list[int]] = [[] for _ in range(k_fpgas)]
        for a, b in self.links:
            adj[a].append(b)
            adj[b].append(a)
        self.adjacency = [sorted(ns) for ns in adj]

    @property
    def k_fpgas(self) -> int:
        return len(self.capacities)

    @property
    def num_resource_types(self) -> int:
        return len(self.capacities[0])

    def capacity_matrix(self) -> np.ndarray:
        return np.array([c.values for c in self.capacities], dtype=np.int64)


def hop_row(t: MfsTopology, src: int) -> list[int]:
    """Link counts from `src` to every FPGA, by one BFS; raises on the
    first FPGA it cannot reach."""
    row = [-1] * t.k_fpgas
    row[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = row[u]
        for w in t.adjacency[u]:
            if row[w] < 0:
                row[w] = du + 1
                queue.append(w)
    for v, d in enumerate(row):
        if d < 0:
            raise ValueError(f"unreachable pair ({src}, {v})")
    return row


def compute_hop_matrix(t: MfsTopology) -> HopMatrix:
    """The hop matrix, one BFS per FPGA; raises if any pair is
    unreachable.  One hop matrix per command: the pipeline, `evaluate` and
    `validate` each build one and hand it to every phase."""
    return HopMatrix([hop_row(t, src) for src in range(t.k_fpgas)])


def mean_capacity(t: MfsTopology) -> tuple[Fraction, ...]:
    """Per-type arithmetic mean of the FPGA capacities, exact."""
    k = t.num_resource_types
    totals = [0] * k
    for c in t.capacities:
        for i in range(k):
            totals[i] += c[i]
    return tuple(Fraction(tot, t.k_fpgas) for tot in totals)


def hop_sum(t: MfsTopology, hm: HopMatrix, f: int) -> int:
    """Sum of hop distances from f to every other FPGA.

    Hops beyond hop_max are charged the fixed penalty
    HOP_PENALTY_BETA * hop_max instead of their true distance.
    """
    row = hm.dist[f]  # row[f] is 0, below any penalty
    if t.hop_max is not None:
        row = np.where(row > t.hop_max, HOP_PENALTY_BETA * t.hop_max, row)
    return int(row.sum())


def capacities_from_imbalance(
    total_weight: ResourceVector, k_fpgas: int, epsilon: float
) -> list[ResourceVector]:
    """Uniform capacities (1 + epsilon) * (total vertex weight / K), per type.

    Used when an instance carries no explicit FPGA capacities (the
    single-resource benchmark regime with an imbalance factor).
    """
    if k_fpgas < 1:
        raise ValueError("need at least one FPGA")
    if epsilon < 0:
        raise ValueError("imbalance factor must be non-negative")
    cap = ResourceVector(
        int(np.floor((1.0 + epsilon) * w / k_fpgas)) for w in total_weight
    )
    return [cap for _ in range(k_fpgas)]
