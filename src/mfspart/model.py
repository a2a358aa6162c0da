"""Hypergraph and placement data types.

A circuit netlist is modelled as a hypergraph: every net has one source
vertex (the signal producer) and a non-empty set of drain vertices (the
consumers).  A placement maps each vertex to one original FPGA plus an
optional set of replica FPGAs; a replica is a full copy of the vertex, so
its outputs are available locally and all of its inputs must reach it.

Each hypergraph also holds its pins as arrays, built once on first use
(`Hypergraph.pin_index`, a `PinIndex`), which the metrics, the refinement
state and its exchange table all read; with a placement's host mask
(`Placement.host_mask`) it gives the matrix of each net's drain copies
per FPGA (`PinIndex.drain_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Non-negative resource amounts, one integer per resource type."""

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(x) for x in values)
        if any(x < 0 for x in vals):
            raise ValueError(f"resource amounts must be non-negative, got {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


@dataclass(frozen=True, slots=True)
class Vertex:
    """A circuit unit: dense id plus its per-type resource usage."""

    id: int
    weight: ResourceVector


@dataclass(frozen=True, slots=True)
class Hyperedge:
    """A net: one source vertex, a set of drains, and a signal count.

    Drains are stored sorted and deduplicated; the source never appears
    among them.
    """

    id: int
    weight: int
    source: int
    drains: tuple[int, ...]

    def __init__(self, id: int, weight: int, source: int, drains: Iterable[int]):
        ds = tuple(sorted(set(int(d) for d in drains)))
        if weight < 1:
            raise ValueError(f"edge {id}: weight must be >= 1, got {weight}")
        if not ds:
            raise ValueError(f"edge {id}: drain set is empty")
        if source in ds:
            raise ValueError(f"edge {id}: source repeated in drains")
        object.__setattr__(self, "id", int(id))
        object.__setattr__(self, "weight", int(weight))
        object.__setattr__(self, "source", int(source))
        object.__setattr__(self, "drains", ds)

    def __len__(self) -> int:
        """Pin count: source plus drains."""
        return 1 + len(self.drains)

    @property
    def members(self) -> tuple[int, ...]:
        return (self.source,) + self.drains


class Hypergraph:
    """Immutable hypergraph with per-vertex incidence lists.

    Vertex and edge ids are dense (0..n-1 / 0..m-1); the incidence list of
    a vertex holds the ids of every edge it appears in, source or drain,
    in ascending edge-id order.
    """

    def __init__(self, vertices: list[Vertex], edges: list[Hyperedge]):
        n = len(vertices)
        for i, v in enumerate(vertices):
            if v.id != i:
                raise ValueError(f"vertex ids must be dense, got {v.id} at position {i}")
        k = len(vertices[0].weight) if vertices else 0
        for v in vertices:
            if len(v.weight) != k:
                raise ValueError(f"vertex {v.id}: expected {k} resource types")
        for j, e in enumerate(edges):
            if e.id != j:
                raise ValueError(f"edge ids must be dense, got {e.id} at position {j}")
            for m in e.members:
                if not (0 <= m < n):
                    raise ValueError(f"edge {e.id}: dangling vertex id {m}")
        self.vertices = vertices
        self.edges = edges
        incidence: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            for m in e.members:
                incidence[m].append(e.id)
        self.incidence = incidence
        self._weight_matrix: np.ndarray | None = None
        self._pin_index: PinIndex | None = None

    @classmethod
    def build(
        cls,
        vertex_weights: Iterable[Iterable[int]],
        edge_specs: Iterable[tuple[int, int, Iterable[int]]],
    ) -> "Hypergraph":
        """Construct from raw (weight vector) rows and (w, src, drains) triples."""
        vertices = [Vertex(i, ResourceVector(w)) for i, w in enumerate(vertex_weights)]
        edges = [Hyperedge(j, w, s, d) for j, (w, s, d) in enumerate(edge_specs)]
        return cls(vertices, edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_resource_types(self) -> int:
        return len(self.vertices[0].weight) if self.vertices else 0

    def weight_matrix(self) -> np.ndarray:
        """Vertex weights as an (n, k) int64 array; cached."""
        if self._weight_matrix is None:
            self._weight_matrix = np.array(
                [v.weight.values for v in self.vertices], dtype=np.int64
            ).reshape(self.num_vertices, self.num_resource_types)
        return self._weight_matrix

    def pin_index(self) -> "PinIndex":
        """The pins as arrays (see `PinIndex`); cached."""
        if self._pin_index is None:
            self._pin_index = PinIndex(self)
        return self._pin_index

    def total_weight(self) -> ResourceVector:
        if not self.vertices:
            return ResourceVector(())
        return ResourceVector(self.weight_matrix().sum(axis=0))


class PinIndex:
    """A hypergraph's pins as arrays, built once per graph and read by the
    metrics, the refinement state and its exchange table: every net's
    members in CSR (`pin_ptr`, `pins`), source first; each net's `source`
    and `weight`; and every vertex's nets, drained or sourced, in CSR by
    vertex (`inc_ptr`, `inc`), in ascending net order."""

    def __init__(self, h: Hypergraph):
        n, m = h.num_vertices, h.num_edges
        sizes = np.fromiter((1 + len(e.drains) for e in h.edges), np.intp, m)
        self.pin_ptr = np.zeros(m + 1, np.intp)
        np.cumsum(sizes, out=self.pin_ptr[1:])
        n_pins = int(self.pin_ptr[-1])
        self.pins = np.fromiter((x for e in h.edges for x in e.members), np.int32, n_pins)
        self.source = self.pins[self.pin_ptr[:-1]].astype(np.intp)
        self.weight = np.fromiter((e.weight for e in h.edges), np.int64, m)
        self.inc_ptr = np.zeros(n + 1, np.intp)
        np.cumsum(np.bincount(self.pins, minlength=n), out=self.inc_ptr[1:])
        pin_net = np.repeat(np.arange(m, dtype=np.int32), sizes)
        self.inc = pin_net[np.argsort(self.pins, kind="stable")]

    def drain_counts(self, hosted: np.ndarray) -> np.ndarray:
        """Per net and FPGA, the number of the net's drains with a copy
        there, as an m x K int64 matrix, given the n x K host mask `hosted`
        (`Placement.host_mask`): one scatter over the drain pins' copies."""
        m, kf = len(self.weight), hosted.shape[1]
        net = np.repeat(np.arange(m), np.diff(self.pin_ptr) - 1)
        pin, f = np.nonzero(hosted[np.delete(self.pins, self.pin_ptr[:-1])])
        return np.bincount(net[pin] * kf + f, minlength=m * kf).reshape(m, kf)


class Placement:
    """Per-vertex host FPGAs: one original plus a set of replicas.

    The constructor is deliberately lenient (malformed placements, such as
    out-of-range ids or a replica on its original, are detected by the
    metrics validator, not rejected here); the mutators below do enforce
    well-formedness, and `oracle.apply_op` applies a refinement op with
    them.  Refinement itself holds a placement as an array of originals
    and a host mask (`refine.RefineState`) and builds one of these from
    them when asked.
    """

    __slots__ = ("original", "replicas")

    def __init__(self, original: list[int], replicas: list[set[int]] | None = None):
        self.original = list(original)
        if replicas is None:
            self.replicas = [set() for _ in self.original]
        else:
            if len(replicas) != len(self.original):
                raise ValueError("replicas list length must match vertex count")
            self.replicas = [set(r) for r in replicas]

    @property
    def num_vertices(self) -> int:
        return len(self.original)

    def hosts(self, v: int) -> set[int]:
        """All FPGAs holding a copy of v: the original plus replicas."""
        return {self.original[v]} | self.replicas[v]

    def replica_count(self) -> int:
        return sum(len(r) for r in self.replicas)

    def host_mask(self, k_fpgas: int) -> np.ndarray:
        """The n x K bool matrix of which FPGAs hold a copy of each vertex."""
        mask = np.zeros((self.num_vertices, k_fpgas), bool)
        mask[np.arange(self.num_vertices), self.original] = True
        rows = [v for v, r in enumerate(self.replicas) for _ in r]
        mask[rows, [f for r in self.replicas for f in r]] = True
        return mask

    def copy(self) -> "Placement":
        return Placement(self.original, self.replicas)

    def set_original(self, v: int, f: int) -> None:
        """Move the original of v to f; a replica at f is absorbed."""
        self.replicas[v].discard(f)
        self.original[v] = f

    def add_replica(self, v: int, f: int) -> None:
        if f == self.original[v]:
            raise ValueError("replica would coincide with original")
        self.replicas[v].add(f)

    def remove_replica(self, v: int, f: int) -> None:
        self.replicas[v].remove(f)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self.original == other.original and self.replicas == other.replicas

    def __repr__(self) -> str:
        return f"Placement(original={self.original!r}, replicas={self.replicas!r})"


def drain_fpgas(h: Hypergraph, e: int, p: Placement) -> set[int]:
    """FPGAs hosting a copy of any drain of edge e.

    Replica hosts count: a replica is a full copy and needs the signal.
    """
    if not (0 <= e < h.num_edges):
        raise IndexError(f"edge id {e} out of range 0..{h.num_edges - 1}")
    out: set[int] = set()
    for d in h.edges[e].drains:
        out.add(p.original[d])
        out |= p.replicas[d]
    return out
