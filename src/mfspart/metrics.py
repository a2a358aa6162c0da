"""Objective and constraint evaluation.

Everything the search modules optimize or must respect is defined here:
total hop distance, cut size, per-FPGA I/O usage, and the validator.  The
cost of a net is the sum, over the FPGAs hosting its drains, of the hop
distance from the nearest copy of the source; without replication this is
exactly the classic source-to-drain-FPGA hop sum.

Every per-net term comes from one kernel, `HopMatrix.nearest`, applied to
the source's host set S.  With its rows (hop, server) and D the set of
FPGAs hosting a drain, the net costs sum(hop[f] for f in D) units, its
worst hop is max(hop[f] for f in D), and it imports on every f in D - S,
each served (exported) by server[f].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import Hypergraph, Placement, ResourceVector, drain_fpgas
from .topology import HopMatrix, MfsTopology, compute_hop_matrix


@dataclass(frozen=True)
class Violation:
    """One constraint breach.  `index` is an FPGA id for resource/io kinds,
    an edge id for hop kinds, and a vertex id for placement kinds."""

    kind: str  # resource | io | hop | placement
    index: int
    observed: int
    limit: int
    detail: str = ""

    def __post_init__(self):
        if self.observed <= self.limit:
            raise ValueError("violations must actually exceed the limit")


@dataclass
class MetricsReport:
    total_hop_distance: int
    cut_size: int
    fpga_usage: list[ResourceVector]
    fpga_io: list[int]
    max_hop_used: int
    replica_count: int

    def to_text(self) -> str:
        """Flat key/value JSON, deterministic byte-for-byte."""
        payload = {
            "total_hop_distance": self.total_hop_distance,
            "cut_size": self.cut_size,
            "fpga_usage": [list(u.values) for u in self.fpga_usage],
            "fpga_io": list(self.fpga_io),
            "max_hop_used": self.max_hop_used,
            "replica_count": self.replica_count,
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def _net_hops(h: Hypergraph, e: int, p: Placement, hm: HopMatrix) -> list[int]:
    """Per FPGA hosting a drain of net e, the hop distance from the nearest
    copy of the source."""
    hop, _ = hm.nearest(p.hosts(h.edges[e].source))
    return [hop[f] for f in drain_fpgas(h, e, p)]


def net_hop_distance(h: Hypergraph, e: int, p: Placement, hm: HopMatrix) -> int:
    """Unweighted cost of net e: per drain FPGA, the hop distance from the
    nearest copy of the source."""
    return sum(_net_hops(h, e, p, hm))


def total_hop_distance(h: Hypergraph, p: Placement, hm: HopMatrix) -> int:
    """Sum over nets of weight times net hop distance."""
    return sum(e.weight * net_hop_distance(h, e.id, p, hm) for e in h.edges)


def cut_size(h: Hypergraph, p: Placement) -> int:
    """Number of nets no single FPGA can serve locally.

    A net is uncut iff some one FPGA hosts a copy of the source and a copy
    of every drain.
    """
    cut = 0
    for e in h.edges:
        common = p.hosts(e.source)
        for d in e.drains:
            common = common & p.hosts(d)
            if not common:
                break
        if not common:
            cut += 1
    return cut


def net_io_contrib_hosts(edge, src_hosts, drain_hosts, hm: HopMatrix) -> dict[int, int]:
    """Per-FPGA signal units a net adds, given the FPGAs hosting its source
    and its drains: w_e per importing FPGA (hosts a drain, no local source
    copy) and w_e per exporting FPGA (the nearest source copy serving at
    least one importer; ties to the lowest id)."""
    _, server = hm.nearest(src_hosts)
    contrib: dict[int, int] = {}
    for f in drain_hosts:
        if f not in src_hosts:
            contrib[f] = edge.weight
            # an exporter hosts the source, so it is never an importer
            contrib[server[f]] = edge.weight
    return contrib


def io_usage_all(h: Hypergraph, p: Placement, hm: HopMatrix, k_fpgas: int) -> list[int]:
    """I/O signal units per FPGA, across all nets."""
    io = [0] * k_fpgas
    for e in h.edges:
        contrib = net_io_contrib_hosts(
            e, p.hosts(e.source), drain_fpgas(h, e.id, p), hm
        )
        for f, units in contrib.items():
            io[f] += units
    return io


def io_usage(h: Hypergraph, p: Placement, hm: HopMatrix, f: int) -> int:
    return io_usage_all(h, p, hm, hm.k_fpgas)[f]


def _placement_violations(p: Placement, k_fpgas: int) -> list[Violation]:
    out: list[Violation] = []
    for v in range(p.num_vertices):
        o = p.original[v]
        bad = 0
        detail = []
        if not (0 <= o < k_fpgas):
            bad += 1
            detail.append(f"original {o} out of range")
        for r in sorted(p.replicas[v]):
            if not (0 <= r < k_fpgas):
                bad += 1
                detail.append(f"replica {r} out of range")
            elif r == o:
                bad += 1
                detail.append("replica coincides with original")
        if bad:
            out.append(Violation("placement", v, bad, 0, "; ".join(detail)))
    return out


def fpga_usage(h: Hypergraph, p: Placement, k_fpgas: int) -> list[ResourceVector]:
    """Per-FPGA resource usage summed over every hosted copy."""
    k = h.num_resource_types
    usage = [[0] * k for _ in range(k_fpgas)]
    for v in range(h.num_vertices):
        w = h.vertices[v].weight
        for f in p.hosts(v):
            row = usage[f]
            for i in range(k):
                row[i] += w[i]
    return [ResourceVector(row) for row in usage]


def validate(
    h: Hypergraph, t: MfsTopology, p: Placement, hm: HopMatrix | None = None
) -> list[Violation]:
    """Empty iff the placement is well-formed and meets every resource,
    I/O, and max-hop constraint.  Violations are data, never exceptions."""
    placement_bad = _placement_violations(p, t.k_fpgas)
    if placement_bad:
        # The remaining checks index by FPGA id and would be meaningless.
        return placement_bad
    if hm is None:
        hm = compute_hop_matrix(t)
    out: list[Violation] = []
    usage = fpga_usage(h, p, t.k_fpgas)
    for f in range(t.k_fpgas):
        cap = t.capacities[f]
        for i in range(t.num_resource_types):
            if usage[f][i] > cap[i]:
                out.append(
                    Violation("resource", f, usage[f][i], cap[i], f"resource type {i}")
                )
    io = io_usage_all(h, p, hm, t.k_fpgas)
    for f in range(t.k_fpgas):
        lim = t.io_limits[f]
        if lim is not None and io[f] > lim:
            out.append(Violation("io", f, io[f], lim))
    if t.hop_max is not None:
        for e in h.edges:
            worst = max(_net_hops(h, e.id, p, hm))
            if worst > t.hop_max:
                out.append(Violation("hop", e.id, worst, t.hop_max))
    return out


def report(
    h: Hypergraph, t: MfsTopology, p: Placement, hm: HopMatrix | None = None
) -> MetricsReport:
    if hm is None:
        hm = compute_hop_matrix(t)
    thd = 0
    max_hop = 0
    for e in h.edges:
        hops = _net_hops(h, e.id, p, hm)
        thd += e.weight * sum(hops)
        max_hop = max(max_hop, *hops)
    return MetricsReport(
        total_hop_distance=thd,
        cut_size=cut_size(h, p),
        fpga_usage=fpga_usage(h, p, t.k_fpgas),
        fpga_io=io_usage_all(h, p, hm, t.k_fpgas),
        max_hop_used=max_hop,
        replica_count=p.replica_count(),
    )
