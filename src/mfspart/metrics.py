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

A placement is evaluated in one pass, `tally`, over its host mask
(`Placement.host_mask`) and the drain-count matrix the graph's pin arrays
make of it (`Hypergraph.drain_counts`): the kernel on each net's covered
FPGAs, the cut rule and the usage.  Every multi-net metric here reads
that pass, and so does the refinement state when it is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress

import numpy as np

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


@dataclass
class Tally:
    """A placement's nets and FPGAs, from one pass over its drain counts."""

    cnt: np.ndarray  # m x K: per net and FPGA, the net's drains with a copy there
    thd: int
    worst: list[int]  # per net, its worst hop
    io: list[int]  # per FPGA, its I/O signal units
    cut: int
    usage: np.ndarray  # K x resource types: per FPGA, the weight of its copies


def tally(h: Hypergraph, hosted: np.ndarray, hm: HopMatrix) -> Tally:
    """Every net's terms and every FPGA's load under the n x K host mask
    `hosted`, from the graph's pin arrays.

    The count matrix comes from `Hypergraph.drain_counts`.  Each net's units,
    worst hop and ports are `net_terms` of its source's hosts at the FPGAs
    its counts cover; a net is cut unless some host f of its source has
    cnt[e, f] equal to its drain count; and the usage is the host mask
    times the vertex weights."""
    cnt = h.drain_counts(hosted)
    thd = 0
    worst = []
    fpgas = range(hm.k_fpgas)
    io = [0] * hm.k_fpgas
    for w, hosts, row in zip(h.weight.tolist(), hosted[h.source].tolist(), cnt.tolist()):
        units, x, ports = net_terms(hm, compress(fpgas, hosts), compress(fpgas, row))
        thd += w * units
        worst.append(x)
        for f in ports:
            io[f] += w
    return Tally(cnt, thd, worst, io, _cut(h, hosted, cnt), _usage(h, hosted))


def _cut(h: Hypergraph, hosted: np.ndarray, cnt: np.ndarray) -> int:
    """How many nets no host f of their source serves wholly: cnt[e, f]
    is below the net's drain count at each of them."""
    whole = cnt == np.diff(h.pin_ptr)[:, None] - 1
    return len(cnt) - int((hosted[h.source] & whole).any(1).sum())


def _usage(h: Hypergraph, hosted: np.ndarray) -> np.ndarray:
    """Per FPGA and resource type, the weight of the copies it holds."""
    return hosted.T.astype(np.int64) @ h.weight_matrix()


def net_hop_distance(h: Hypergraph, e: int, p: Placement, hm: HopMatrix) -> int:
    """Unweighted cost of net e: per drain FPGA, the hop distance from the
    nearest copy of the source."""
    return net_terms(hm, p.hosts(h.edges[e].source), drain_fpgas(h, e, p))[0]


def total_hop_distance(h: Hypergraph, p: Placement, hm: HopMatrix) -> int:
    """Sum over nets of weight times net hop distance."""
    return tally(h, p.host_mask(hm.k_fpgas), hm).thd


def cut_size(h: Hypergraph, p: Placement) -> int:
    """Number of nets no single FPGA can serve locally.

    A net is uncut iff some one FPGA hosts a copy of the source and a copy
    of every drain.
    """
    hosted = p.host_mask(1 + max((f for r in (p.original, *p.replicas) for f in r), default=0))
    return _cut(h, hosted, h.drain_counts(hosted))


def io_usage_all(h: Hypergraph, p: Placement, hm: HopMatrix) -> list[int]:
    """I/O signal units per FPGA, across all nets."""
    return tally(h, p.host_mask(hm.k_fpgas), hm).io


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
    facts = tally(h, p.host_mask(t.k_fpgas), hm)
    out: list[Violation] = []
    for f, (used, cap) in enumerate(zip(facts.usage.tolist(), t.capacities)):
        for i, (x, c) in enumerate(zip(used, cap)):
            if x > c:
                out.append(Violation("resource", f, x, c, f"resource type {i}"))
    for f, (x, lim) in enumerate(zip(facts.io, t.io_limits)):
        if lim is not None and x > lim:
            out.append(Violation("io", f, x, lim))
    if t.hop_max is not None:
        out += [Violation("hop", e, x, t.hop_max)
                for e, x in enumerate(facts.worst) if x > t.hop_max]
    return out


def report(
    h: Hypergraph, t: MfsTopology, p: Placement, hm: HopMatrix | None = None
) -> MetricsReport:
    if hm is None:
        hm = compute_hop_matrix(t)
    facts = tally(h, p.host_mask(t.k_fpgas), hm)
    return MetricsReport(
        total_hop_distance=facts.thd,
        cut_size=facts.cut,
        fpga_usage=[ResourceVector(u) for u in facts.usage.tolist()],
        fpga_io=facts.io,
        max_hop_used=max(facts.worst, default=0),
        replica_count=p.replica_count(),
    )
