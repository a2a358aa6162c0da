"""Objective and constraint evaluation.

Everything the search modules optimize or must respect is defined here:
total hop distance, cut size, per-FPGA I/O usage, and the validator.  The
cost of a net is the sum, over the FPGAs hosting its drains, of the hop
distance from the nearest copy of the source; without replication this is
exactly the classic source-to-drain-FPGA hop sum.

Every per-net term comes from one kernel, `net_terms`, which reads the
source's nearest-copy rows (`HopMatrix.nearest`) at the FPGAs hosting a
drain: the net's units, its worst hop and its I/O ports.  The metrics here
and refinement's application-time checks all go through it.
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


def net_terms(
    hm: HopMatrix, src_hosts, drain_hosts
) -> tuple[int, int, set[int]]:
    """A net's (units, worst hop, I/O ports), given the FPGAs hosting its
    source and its drains.

    With (hop, server) the nearest-copy rows of the source hosts, every
    drain FPGA f with hop[f] > 0 adds hop[f] to the units, bounds the
    worst hop from below, and makes f (an importer) and server[f] (the
    exporting source copy, ties to the lowest id) ports: each port carries
    the net's weight once.  hop[f] is 0 exactly when f hosts a source copy,
    which then serves f locally.
    """
    hop, server = hm.nearest(src_hosts)
    units = worst = 0
    ports: set[int] = set()
    for f in drain_hosts:
        x = hop[f]
        if x:
            units += x
            if x > worst:
                worst = x
            ports.add(f)
            ports.add(server[f])
    return units, worst, ports


def _placed_terms(h: Hypergraph, p: Placement, hm: HopMatrix):
    """(edge, units, worst hop, I/O ports) of every net under p."""
    for e in h.edges:
        yield (e, *net_terms(hm, p.hosts(e.source), drain_fpgas(h, e.id, p)))


def net_hop_distance(h: Hypergraph, e: int, p: Placement, hm: HopMatrix) -> int:
    """Unweighted cost of net e: per drain FPGA, the hop distance from the
    nearest copy of the source."""
    return net_terms(hm, p.hosts(h.edges[e].source), drain_fpgas(h, e, p))[0]


def total_hop_distance(h: Hypergraph, p: Placement, hm: HopMatrix) -> int:
    """Sum over nets of weight times net hop distance."""
    return sum(e.weight * units for e, units, _, _ in _placed_terms(h, p, hm))


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


def io_usage_all(h: Hypergraph, p: Placement, hm: HopMatrix) -> list[int]:
    """I/O signal units per FPGA, across all nets."""
    io = [0] * hm.k_fpgas
    for e, _, _, ports in _placed_terms(h, p, hm):
        for f in ports:
            io[f] += e.weight
    return io


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
    io = [0] * t.k_fpgas
    hops: list[Violation] = []
    for e, _, worst, ports in _placed_terms(h, p, hm):
        for f in ports:
            io[f] += e.weight
        if t.hop_max is not None and worst > t.hop_max:
            hops.append(Violation("hop", e.id, worst, t.hop_max))
    for f in range(t.k_fpgas):
        lim = t.io_limits[f]
        if lim is not None and io[f] > lim:
            out.append(Violation("io", f, io[f], lim))
    return out + hops


def report(
    h: Hypergraph, t: MfsTopology, p: Placement, hm: HopMatrix | None = None
) -> MetricsReport:
    if hm is None:
        hm = compute_hop_matrix(t)
    thd = 0
    max_hop = 0
    io = [0] * t.k_fpgas
    for e, units, worst, ports in _placed_terms(h, p, hm):
        thd += e.weight * units
        max_hop = max(max_hop, worst)
        for f in ports:
            io[f] += e.weight
    return MetricsReport(
        total_hop_distance=thd,
        cut_size=cut_size(h, p),
        fpga_usage=fpga_usage(h, p, t.k_fpgas),
        fpga_io=io,
        max_hop_used=max_hop,
        replica_count=p.replica_count(),
    )
