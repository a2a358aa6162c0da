"""Text formats and instance generation.

Hypergraph format (whitespace separated, '#' starts a comment):

    V E k
    <k ints>              x V lines   vertex resource usage
    w src d1 d2 ...       x E lines   net weight, source, drains

Topology format:

    K L k [hop_max]
    cap_1 ... cap_k [io_limit]    x K lines   (io_limit absent = unlimited)
    a b                           x L lines   undirected links

Solution format: one line per vertex, the original FPGA followed by any
replica FPGAs.

An hMETIS-style reader is also provided for unweighted netlists; it treats
the first pin of each net as the source, which loses any distinction the
original data made, so round-tripping through it is lossy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import Hyperedge, Hypergraph, Placement, ResourceVector, Vertex
from .topology import MfsTopology, compute_hop_matrix


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokenized_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((i, tokens))
    return out


def _ints(line_no: int, tokens: list[str], what: str) -> list[int]:
    vals = []
    for tok in tokens:
        try:
            vals.append(int(tok))
        except ValueError:
            raise ParseError(line_no, f"{what}: '{tok}' is not an integer") from None
    return vals


@dataclass
class InstanceBundle:
    """A hypergraph plus the topology it is to be mapped onto."""

    hypergraph: Hypergraph
    topology: MfsTopology

    def __post_init__(self):
        hk = self.hypergraph.num_resource_types
        tk = self.topology.num_resource_types
        if self.hypergraph.num_vertices and hk != tk:
            raise ValueError(
                f"resource type count mismatch: hypergraph has {hk}, topology has {tk}"
            )


def parse_hypergraph(text: str) -> Hypergraph:
    lines = _tokenized_lines(text)
    if not lines:
        raise ParseError(1, "malformed header: empty input")
    line_no, header = lines[0]
    if len(header) != 3:
        raise ParseError(line_no, f"malformed header: expected 'V E k', got {len(header)} fields")
    n, m, k = _ints(line_no, header, "header")
    if n < 0 or m < 0 or k < 0:
        raise ParseError(line_no, "malformed header: counts must be non-negative")
    if len(lines) != 1 + n + m:
        raise ParseError(
            lines[-1][0],
            f"expected {1 + n + m} content lines for V={n} E={m}, found {len(lines)}",
        )
    vertices = []
    for v in range(n):
        line_no, tokens = lines[1 + v]
        if len(tokens) != k:
            raise ParseError(line_no, f"vertex {v}: expected {k} resource values")
        vals = _ints(line_no, tokens, f"vertex {v}")
        if any(x < 0 for x in vals):
            raise ParseError(line_no, f"vertex {v}: negative weight")
        vertices.append(Vertex(v, ResourceVector(vals)))
    edges = []
    for j in range(m):
        line_no, tokens = lines[1 + n + j]
        if len(tokens) < 3:
            raise ParseError(line_no, f"edge {j}: need weight, source, and at least one drain")
        vals = _ints(line_no, tokens, f"edge {j}")
        w, src, drains = vals[0], vals[1], vals[2:]
        if w < 1:
            raise ParseError(line_no, f"edge {j}: negative or zero weight")
        for x in (src, *drains):
            if not (0 <= x < n):
                raise ParseError(line_no, f"edge {j}: dangling vertex id {x}")
        if src in drains:
            raise ParseError(line_no, f"edge {j}: source repeated in drains")
        # Repeated drains are silently deduplicated (Hyperedge stores a set).
        edges.append(Hyperedge(j, w, src, drains))
    return Hypergraph(vertices, edges)


def write_hypergraph(h: Hypergraph) -> str:
    out = [f"{h.num_vertices} {h.num_edges} {h.num_resource_types}"]
    for v in h.vertices:
        out.append(" ".join(str(x) for x in v.weight))
    for e in h.edges:
        out.append(f"{e.weight} {e.source} " + " ".join(str(d) for d in e.drains))
    return "\n".join(out) + "\n"


def parse_topology(text: str) -> MfsTopology:
    lines = _tokenized_lines(text)
    if not lines:
        raise ParseError(1, "malformed header: empty input")
    line_no, header = lines[0]
    if len(header) not in (3, 4):
        raise ParseError(line_no, "malformed header: expected 'K L k [hop_max]'")
    vals = _ints(line_no, header, "header")
    k_fpgas, n_links, k = vals[0], vals[1], vals[2]
    hop_max = vals[3] if len(vals) == 4 else None
    if k_fpgas < 1:
        raise ParseError(line_no, "need at least one FPGA")
    if hop_max is not None and hop_max < 1:
        raise ParseError(line_no, "hop_max must be positive")
    if len(lines) != 1 + k_fpgas + n_links:
        raise ParseError(
            lines[-1][0],
            f"expected {1 + k_fpgas + n_links} content lines, found {len(lines)}",
        )
    capacities = []
    io_limits: list[int | None] = []
    for f in range(k_fpgas):
        line_no, tokens = lines[1 + f]
        if len(tokens) not in (k, k + 1):
            raise ParseError(line_no, f"FPGA {f}: expected {k} capacities plus optional io limit")
        vals = _ints(line_no, tokens, f"FPGA {f}")
        caps, lim = vals[:k], (vals[k] if len(vals) == k + 1 else None)
        if any(c < 0 for c in caps):
            raise ParseError(line_no, f"FPGA {f}: negative capacity")
        if lim is not None and lim < 0:
            raise ParseError(line_no, f"FPGA {f}: negative io limit")
        capacities.append(ResourceVector(caps))
        io_limits.append(lim)
    links = []
    seen = set()
    for j in range(n_links):
        line_no, tokens = lines[1 + k_fpgas + j]
        if len(tokens) != 2:
            raise ParseError(line_no, f"link {j}: expected two endpoints")
        a, b = _ints(line_no, tokens, f"link {j}")
        if a == b:
            raise ParseError(line_no, f"link {j}: self-link ({a}, {b})")
        if not (0 <= a < k_fpgas and 0 <= b < k_fpgas):
            raise ParseError(line_no, f"link {j}: endpoint out of range")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(line_no, f"link {j}: duplicate link ({a}, {b})")
        seen.add(key)
        links.append((a, b))
    try:
        topo = MfsTopology(capacities, links, io_limits, hop_max)
        compute_hop_matrix(topo)  # connectivity is a load-time requirement
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None
    return topo


def write_topology(t: MfsTopology) -> str:
    header = f"{t.k_fpgas} {len(t.links)} {t.num_resource_types}"
    if t.hop_max is not None:
        header += f" {t.hop_max}"
    out = [header]
    for f in range(t.k_fpgas):
        row = " ".join(str(c) for c in t.capacities[f])
        if t.io_limits[f] is not None:
            row += f" {t.io_limits[f]}"
        out.append(row)
    for a, b in t.links:
        out.append(f"{a} {b}")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> Placement:
    lines = _tokenized_lines(text)
    original = []
    replicas = []
    for line_no, tokens in lines:
        vals = _ints(line_no, tokens, "solution")
        if any(x < 0 for x in vals):
            raise ParseError(line_no, "negative FPGA id")
        orig, reps = vals[0], vals[1:]
        if orig in reps:
            raise ParseError(line_no, f"replica equal to original ({orig})")
        original.append(orig)
        replicas.append(set(reps))
    if not original:
        raise ParseError(1, "empty solution")
    return Placement(original, replicas)


def write_solution(p: Placement) -> str:
    out = []
    for v in range(p.num_vertices):
        parts = [str(p.original[v])] + [str(r) for r in sorted(p.replicas[v])]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def parse_hmetis(text: str) -> Hypergraph:
    """Read an hMETIS .hgr netlist; the first pin of each net becomes the
    source.  Nets with fewer than two distinct pins are dropped (lossy)."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("%", 1)[0]
        tokens = body.split()
        if tokens:
            lines.append((i, tokens))
    if not lines:
        raise ParseError(1, "malformed header: empty input")
    line_no, header = lines[0]
    vals = _ints(line_no, header, "header")
    if len(vals) not in (2, 3):
        raise ParseError(line_no, "malformed header: expected 'E V [fmt]'")
    m, n = vals[0], vals[1]
    fmt = vals[2] if len(vals) == 3 else 0
    if fmt not in (0, 1, 10, 11):
        raise ParseError(line_no, f"unknown hmetis format code {fmt}")
    has_edge_w = fmt in (1, 11)
    has_node_w = fmt in (10, 11)
    expected = 1 + m + (n if has_node_w else 0)
    if len(lines) != expected:
        raise ParseError(lines[-1][0], f"expected {expected} content lines, found {len(lines)}")
    edge_specs = []
    for j in range(m):
        line_no, tokens = lines[1 + j]
        vals = _ints(line_no, tokens, f"net {j}")
        w = 1
        if has_edge_w:
            if not vals:
                raise ParseError(line_no, f"net {j}: missing weight")
            w, vals = vals[0], vals[1:]
            if w < 1:
                raise ParseError(line_no, f"net {j}: negative or zero weight")
        pins = []
        for x in vals:
            if not (1 <= x <= n):
                raise ParseError(line_no, f"net {j}: pin {x} out of range")
            pins.append(x - 1)
        # dedupe preserving order; first pin is the source
        uniq = list(dict.fromkeys(pins))
        if len(uniq) < 2:
            continue
        edge_specs.append((w, uniq[0], uniq[1:]))
    weights = []
    for v in range(n):
        if has_node_w:
            line_no, tokens = lines[1 + m + v]
            vals = _ints(line_no, tokens, f"node {v}")
            if len(vals) != 1:
                raise ParseError(line_no, f"node {v}: expected one weight")
            if vals[0] < 0:
                raise ParseError(line_no, f"node {v}: negative weight")
            weights.append([vals[0]])
        else:
            weights.append([1])
    return Hypergraph.build(weights, edge_specs)


def gen_instance(
    seed: int,
    n_vertices: int,
    n_edges: int,
    k_fpgas: int,
    n_resource_types: int = 1,
    *,
    spare: float = 0.25,
    max_fanout: int = 8,
    hub_fraction: float = 0.1,
    hub_fanout: int = 16,
    driver_fraction: float = 0.05,
    locality: int | None = None,
    extra_links: int | None = None,
    max_vertex_weight: int = 4,
    max_edge_weight: int = 3,
    io_limit: int | None = None,
    hop_max: int | None = None,
) -> InstanceBundle:
    """Deterministic random instance.

    Fanout is skewed: most nets have a couple of drains, a `hub_fraction`
    slice fans out up to `hub_fanout`.  Hub nets are sourced from a small
    pool of driver vertices (ids below `driver_fraction` * V) that never
    appear as drains, and their drains spread over the whole id range;
    regular nets stay inside an id window (`locality`).  Drivers therefore
    behave like fanout cells: no inputs, consumers everywhere, which is
    what gives replication its headroom.  Capacities are sized so total
    vertex weight fits with a `spare` fraction to spare on every FPGA.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    if n_vertices < 2 and n_edges > 0:
        raise ValueError("cannot generate edges with fewer than two vertices")
    if k_fpgas < 1:
        raise ValueError("need at least one FPGA")
    if n_resource_types < 1:
        raise ValueError("need at least one resource type")
    if not (math.isfinite(spare) and spare >= 0):
        raise ValueError("spare fraction must be finite and non-negative")
    if locality is None:
        locality = max(8, n_vertices // max(1, k_fpgas) // 4)
    if extra_links is None:
        extra_links = max(0, k_fpgas // 2)
    # each shape argument fails here under its own name, not later in the
    # random draws or, for a NaN fraction or a window or link count out of
    # range, not at all
    for name, value, low in (
        ("n_edges", n_edges, 0),
        ("max_fanout", max_fanout, 1),
        ("hub_fanout", hub_fanout, 2),
        ("locality", locality, 1),
        ("extra_links", extra_links, 0),
        ("max_vertex_weight", max_vertex_weight, 1),
        ("max_edge_weight", max_edge_weight, 1),
    ):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    for name, value in (("hub_fraction", hub_fraction), ("driver_fraction", driver_fraction)):
        if not 0 <= value <= 1:  # also refuses NaN
            raise ValueError(f"{name} must be a fraction in [0, 1], got {value}")
    rand = random.Random(seed)

    weights = [
        [rand.randint(1, max_vertex_weight) for _ in range(n_resource_types)]
        for _ in range(n_vertices)
    ]

    def skewed(p: float, cap: int) -> int:
        # geometric with success probability p, clipped to [1, cap]
        u = rand.random()
        return min(1 + int(math.log(1.0 - u) / math.log(1.0 - p)), cap)

    n_drivers = 0
    if hub_fraction > 0 and n_vertices >= 4:
        n_drivers = max(1, int(driver_fraction * n_vertices))
        n_drivers = min(n_drivers, n_vertices - 2)
    edge_specs = []
    for _ in range(n_edges):
        if n_drivers and rand.random() < hub_fraction:
            src = rand.randrange(n_drivers)
            fanout = rand.randint(2, hub_fanout)
            lo, hi = n_drivers, n_vertices
        else:
            src = rand.randrange(n_drivers, n_vertices)
            fanout = skewed(0.6, max_fanout)
            lo = max(n_drivers, src - locality)
            hi = min(n_vertices, src + locality + 1)
            if hi - lo < 2:
                lo, hi = n_drivers, n_vertices
        drains: set[int] = set()
        for _ in range(4 * fanout):
            d = rand.randrange(lo, hi)
            if d != src:
                drains.add(d)
            if len(drains) >= fanout:
                break
        if not drains:
            drains.add((src + 1) % n_vertices if (src + 1) % n_vertices != src else src - 1)
        w = skewed(0.7, max_edge_weight)
        edge_specs.append((w, src, sorted(drains)))
    h = Hypergraph.build(weights, edge_specs)

    totals = h.total_weight()
    caps = []
    for i in range(n_resource_types):
        per = int(math.ceil(totals[i] * (1.0 + spare) / k_fpgas))
        per = max(per, max(w[i] for w in weights))
        caps.append(per)
    for i in range(n_resource_types):
        if totals[i] > caps[i] * k_fpgas:
            raise ValueError(
                f"infeasible knobs: total weight {totals[i]} exceeds total capacity "
                f"{caps[i] * k_fpgas} for resource type {i}"
            )
    capacities = [ResourceVector(caps) for _ in range(k_fpgas)]

    links: set[tuple[int, int]] = set()
    order = list(range(k_fpgas))
    rand.shuffle(order)
    for idx in range(1, k_fpgas):
        a, b = order[idx], order[rand.randrange(idx)]
        links.add((min(a, b), max(a, b)))
    attempts = 0
    while len(links) < (k_fpgas - 1) + extra_links and attempts < 20 * (extra_links + 1):
        a = rand.randrange(k_fpgas)
        b = rand.randrange(k_fpgas)
        attempts += 1
        if a != b:
            links.add((min(a, b), max(a, b)))
    io_limits: list[int | None] = [io_limit] * k_fpgas
    topo = MfsTopology(capacities, sorted(links), io_limits, hop_max)
    return InstanceBundle(h, topo)
