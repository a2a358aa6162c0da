"""Brute-force reference implementations.

These deliberately avoid the search modules: the exhaustive enumerator
carries its own vectorized objective and constraint arithmetic, and the
gain reference is two complete metric evaluations around `apply_op`, the
one op transform on a `Placement`, which the refinement state does not
use.  Agreement with the incremental code is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from .metrics import total_hop_distance, validate
from .model import Hypergraph, Placement
from .topology import HopMatrix, MfsTopology, compute_hop_matrix

ENUMERATION_GUARD = 10**7


def exhaustive_partition(
    h: Hypergraph,
    t: MfsTopology,
    hm: HopMatrix | None = None,
    chunk: int = 1 << 15,
) -> tuple[Placement | None, int | None]:
    """Optimal unreplicated placement by full enumeration.

    Ties go to the lexicographically smallest assignment vector.  Returns
    (None, None) when no assignment satisfies the constraints.  Refuses
    instances with more than 10^7 assignments.
    """
    n = h.num_vertices
    kf = t.k_fpgas
    total = kf**n
    if total > ENUMERATION_GUARD:
        raise ValueError(f"refusing to enumerate {total} assignments (guard {ENUMERATION_GUARD})")
    if hm is None:
        hm = compute_hop_matrix(t)
    hop = hm.as_array()
    weights = h.weight_matrix()
    caps = t.capacity_matrix()
    io_limits = t.io_limits
    hop_max = t.hop_max

    best_thd: int | None = None
    best_code: int | None = None
    # digit order: vertex 0 is the most significant digit, so ascending
    # codes enumerate assignments in lexicographic order
    powers = np.array([kf ** (n - 1 - v) for v in range(n)], dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        m = stop - start
        asg = (codes[:, None] // powers[None, :]) % kf  # (m, n)
        feasible = np.ones(m, dtype=bool)

        for f in range(kf):
            usage = (asg == f).astype(np.int64) @ weights  # (m, k)
            feasible &= (usage <= caps[f]).all(axis=1)

        thd = np.zeros(m, dtype=np.int64)
        io = np.zeros((m, kf), dtype=np.int64)
        rows = np.arange(m)
        for e in h.edges:
            s = asg[:, e.source]
            drain_hosts = np.zeros((m, kf), dtype=bool)
            for d in e.drains:
                drain_hosts[rows, asg[:, d]] = True
            hops = hop[s]  # (m, kf)
            thd += e.weight * (hops * drain_hosts).sum(axis=1)
            if hop_max is not None:
                feasible &= ((hops <= hop_max) | ~drain_hosts).all(axis=1)
            importers = drain_hosts.copy()
            importers[rows, s] = False
            io += e.weight * importers
            io[rows, s] += e.weight * importers.any(axis=1)
        for f in range(kf):
            if io_limits[f] is not None:
                feasible &= io[:, f] <= io_limits[f]

        if feasible.any():
            thd_masked = np.where(feasible, thd, np.iinfo(np.int64).max)
            idx = int(np.argmin(thd_masked))  # first occurrence: lex smallest
            cand_thd = int(thd_masked[idx])
            if best_thd is None or cand_thd < best_thd:
                best_thd = cand_thd
                best_code = start + idx
    if best_thd is None:
        return None, None
    digits = [(best_code // int(powers[v])) % kf for v in range(n)]
    return Placement(digits), best_thd


def best_single_replication(
    h: Hypergraph, p: Placement, hm: HopMatrix, t: MfsTopology
) -> tuple[int, int, int] | None:
    """Scan every (vertex, FPGA) replication, full-recompute each THD, and
    return the best feasible one as (v, f, gain); ties to the lowest ids.
    Returns None when no replication is feasible."""
    base = total_hop_distance(h, p, hm)
    best: tuple[int, int, int] | None = None
    for v in range(h.num_vertices):
        hosted = p.hosts(v)
        for f in range(t.k_fpgas):
            if f in hosted:
                continue
            q = p.copy()
            q.add_replica(v, f)
            if validate(h, t, q, hm):
                continue
            gain = base - total_hop_distance(h, q, hm)
            if best is None or gain > best[2]:
                best = (v, f, gain)
    if best is None:
        return None
    return best[0], best[1], best[2]


def apply_op(p: Placement, op) -> None:
    """Mutate a placement per the operation; no constraint checking."""
    if op.kind == "move":
        p.set_original(op.v, op.dest)
    elif op.kind == "exchange":
        if op.partner is None or op.partner_dest is None:
            raise ValueError("exchange op without a partner")
        p.set_original(op.v, op.dest)
        p.set_original(op.partner, op.partner_dest)
    elif op.kind == "replicate":
        p.add_replica(op.v, op.dest)
    elif op.kind == "delete":
        p.remove_replica(op.v, op.dest)
    else:
        raise ValueError(f"unknown op kind '{op.kind}'")


def full_gain_recompute(h: Hypergraph, p: Placement, hm: HopMatrix, op) -> int:
    """Reference gain: two complete THD evaluations around the op, which
    `apply_op` applies to a copy of the placement."""
    q = p.copy()
    apply_op(q, op)
    return total_hop_distance(h, p, hm) - total_hop_distance(h, q, hm)
