"""Hypergraph and placement data types.

A circuit netlist is modelled as a hypergraph: every net has one source
vertex (the signal producer) and a non-empty set of drain vertices (the
consumers).  A placement maps each vertex to one original FPGA plus an
optional set of replica FPGAs; a replica is a full copy of the vertex, so
its outputs are available locally and all of its inputs must reach it.

A hypergraph is held one way, as arrays: its vertex weight matrix and its
pins.  This module is the only one that knows their layout: every phase
reads a graph through its gathers (`Hypergraph.nets_of`, `pins_of`), the
arrays derived once per graph (each net's size, each pin's net, each
vertex's degree and reach) and its list views, and a coarse level is made
by `Hypergraph.contract`.  The `Vertex` and `Hyperedge` objects are a view
for parsing, formatting and the reference code.  With a placement's host
mask (`Placement.host_mask`) the pins give the matrix of each net's drain
copies per FPGA (`Hypergraph.drain_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges [starts[i], stops[i]) and, per element, the
    index i of its range."""
    lens = stops - starts
    ends = lens.cumsum()
    row = np.arange(len(lens)).repeat(lens)
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lens)[row], row


def _dedupe(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted."""
    x = x.copy()
    x.sort()
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


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
    """An immutable hypergraph, held as arrays: the n x k vertex weight
    matrix (`weight_matrix`) and the pins:

    - every net's members in CSR (`pin_ptr`, `pins`), source first, then
      the drains in ascending order;
    - each net's `source` and `weight`;
    - every vertex's nets, drained or sourced, in CSR by vertex
      (`inc_ptr`, `inc`), in ascending net order.

    No other module reads the CSR offsets.  The phases read a graph
    through the gathers `nets_of` and `pins_of` and through arrays derived
    once per graph: each net's pin count (`size`), each pin's net
    (`pin_net`), and per vertex its net count (`degree`) and the pins over
    its nets (`reach`).  `contract` makes a coarse level.

    Vertex and net ids are dense (0..n-1 / 0..m-1).  `Hypergraph(vertices,
    edges)` checks the objects and builds the arrays from them;
    `from_arrays` takes arrays that are already well-formed, as a
    contraction makes them.  `vertices`, `edges`, `incidence` (each
    vertex's net ids, ascending) and `members` (each net's pins, as
    `pins` orders them) are read-only list views: the given lists, or
    lists built from the arrays on first read.
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
        members = [e.members for e in edges]
        pin_ptr = np.zeros(len(edges) + 1, np.intp)
        np.cumsum(np.fromiter(map(len, members), np.intp, len(edges)), out=pin_ptr[1:])
        pins = np.fromiter(chain.from_iterable(members), np.int64, int(pin_ptr[-1]))
        bad = np.flatnonzero((pins < 0) | (pins >= n))
        if len(bad):
            j = int(pin_ptr.searchsorted(bad[0], "right")) - 1
            raise ValueError(f"edge {j}: dangling vertex id {pins[bad[0]]}")
        self._hold(
            np.array([v.weight.values for v in vertices], np.int64).reshape(n, k),
            pin_ptr,
            pins.astype(np.int32),
            np.fromiter((e.weight for e in edges), np.int64, len(edges)),
        )
        self._vertices, self._edges = vertices, edges

    @classmethod
    def from_arrays(
        cls, weights: np.ndarray, pin_ptr: np.ndarray, pins: np.ndarray, weight: np.ndarray
    ) -> "Hypergraph":
        """A hypergraph of the n x k int64 vertex weights and the nets'
        pins (`pin_ptr`, intp; `pins`, int32; see the class docstring) and
        int64 weights, unchecked."""
        h = cls.__new__(cls)
        h._hold(weights, pin_ptr, pins, weight)
        return h

    def _hold(self, weights, pin_ptr, pins, weight) -> None:
        """Hold the arrays, and derive the rest of the class docstring's
        arrays from them."""
        n = len(weights)
        self._weights, self.pin_ptr, self.pins, self.weight = weights, pin_ptr, pins, weight
        self.source = pins[pin_ptr[:-1]].astype(np.intp)
        self.size = np.diff(pin_ptr)
        self.pin_net = np.arange(len(weight)).repeat(self.size)
        self.degree = np.bincount(pins, minlength=n)
        self.inc_ptr = np.zeros(n + 1, np.intp)
        np.cumsum(self.degree, out=self.inc_ptr[1:])
        self.inc = self.pin_net[np.argsort(pins, kind="stable")]
        self.reach = np.bincount(pins, self.size[self.pin_net], n).astype(np.intp)
        self._vertices = self._edges = self._incidence = self._members = None

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
    def vertices(self) -> list[Vertex]:
        if self._vertices is None:
            self._vertices = [
                Vertex(i, ResourceVector(w)) for i, w in enumerate(self._weights.tolist())
            ]
        return self._vertices

    @property
    def edges(self) -> list[Hyperedge]:
        if self._edges is None:
            self._edges = [
                Hyperedge(j, w, ms[0], ms[1:])
                for j, (w, ms) in enumerate(zip(self.weight.tolist(), self.members))
            ]
        return self._edges

    @property
    def incidence(self) -> list[list[int]]:
        if self._incidence is None:
            self._incidence = _split(self.inc, self.inc_ptr)
        return self._incidence

    @property
    def members(self) -> list[list[int]]:
        if self._members is None:
            self._members = _split(self.pins, self.pin_ptr)
        return self._members

    @property
    def num_vertices(self) -> int:
        return len(self._weights)

    @property
    def num_edges(self) -> int:
        return len(self.weight)

    @property
    def num_resource_types(self) -> int:
        return self._weights.shape[1]

    def weight_matrix(self) -> np.ndarray:
        """Vertex weights as an (n, k) int64 array."""
        return self._weights

    def total_weight(self) -> ResourceVector:
        return ResourceVector(self._weights.sum(axis=0))

    def nets_of(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nets of the vertices vs, each vertex's in ascending order,
        and for each the position in vs of its vertex."""
        pos, owner = _ranges(self.inc_ptr[vs], self.inc_ptr[vs + 1])
        return self.inc[pos], owner

    def pins_of(self, es: np.ndarray, drains: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The pins of the nets es, each net's source first and then its
        drains in ascending order, or with `drains` its drains only; and
        for each the position in es of its net."""
        pos, owner = _ranges(self.pin_ptr[es] + drains, self.pin_ptr[es + 1])
        return self.pins[pos], owner

    def drain_counts(self, hosted: np.ndarray) -> np.ndarray:
        """Per net and FPGA, the number of the net's drains with a copy
        there, as an m x K int64 matrix, given the n x K host mask `hosted`
        (`Placement.host_mask`): one scatter over the drain pins' copies."""
        m, kf = len(self.weight), hosted.shape[1]
        net = np.delete(self.pin_net, self.pin_ptr[:-1])
        pin, f = np.nonzero(hosted[np.delete(self.pins, self.pin_ptr[:-1])])
        return np.bincount(net[pin] * kf + f, minlength=m * kf).reshape(m, kf)

    def contract(self, mapping: np.ndarray, n_coarse: int) -> "Hypergraph":
        """The coarse hypergraph of a fine-to-coarse vertex `mapping`, built
        from the pin arrays: each net's pins mapped, its drains sorted and
        deduplicated without its source, a net left without a drain dropped,
        and parallel nets (same source and drains) merged in first-appearance
        order, their weights summed."""
        src = mapping[self.source]
        pin = mapping[self.pins]
        keep = pin != src[self.pin_net]  # the source's own pin among them
        net, drains = np.divmod(_dedupe(self.pin_net[keep] * n_coarse + pin[keep]), n_coarse)
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
        np.add.at(weight, group, self.weight[es])
        lead = np.fromiter(first.values(), np.intp, len(first))
        pin_ptr = np.zeros(len(lead) + 1, np.intp)
        np.cumsum(np.diff(cut)[lead] + 1, out=pin_ptr[1:])
        # each kept net's drains, with its source inserted before them
        body = drains[_ranges(cut[lead], cut[lead + 1])[0]]
        pins = np.insert(body, pin_ptr[:-1] - np.arange(len(lead)), src[es[lead]])
        weights = np.zeros((n_coarse, self.num_resource_types), np.int64)
        np.add.at(weights, mapping, self._weights)
        return Hypergraph.from_arrays(weights, pin_ptr, pins.astype(np.int32), weight[lead])


def _split(flat: np.ndarray, ptr: np.ndarray) -> list[list[int]]:
    """The CSR rows flat[ptr[i]:ptr[i + 1]], as lists."""
    flat, ptr = flat.tolist(), ptr.tolist()
    return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


class Placement:
    """Per-vertex host FPGAs: one original plus a set of replicas.

    The constructor is deliberately lenient (malformed placements, such as
    out-of-range ids or a replica on its original, are detected by the
    metrics validator, not rejected here); the mutators below do enforce
    well-formedness, and `oracle.apply_op` applies a refinement op with
    them.  The pipeline, from assignment to its output, and refinement
    (`refine.RefineState`) hold a placement as an array of originals and
    a host mask instead; `host_mask` and `from_mask` convert between the
    two forms.
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

    @classmethod
    def from_mask(cls, orig: np.ndarray, hosted: np.ndarray) -> "Placement":
        """The placement whose originals are `orig` and whose replicas are
        the other FPGAs of each row of the n x K host mask `hosted`."""
        q = cls(orig.tolist())
        reps = hosted.copy()
        reps[np.arange(len(reps)), orig] = False
        for x, f in zip(*(a.tolist() for a in np.nonzero(reps))):
            q.replicas[x].add(f)
        return q

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
    for d in h.pins_of(np.array([e]), drains=True)[0].tolist():
        out.add(p.original[d])
        out |= p.replicas[d]
    return out
