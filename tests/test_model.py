import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

import mfspart
from mfspart.io import gen_instance, parse_hypergraph, write_hypergraph
from mfspart.model import (
    Hyperedge,
    Hypergraph,
    Placement,
    ResourceVector,
    drain_fpgas,
)


def test_resource_vector_rejects_negative():
    with pytest.raises(ValueError):
        ResourceVector([1, -1])


def test_hyperedge_invariants():
    with pytest.raises(ValueError):
        Hyperedge(0, 0, 0, [1])
    with pytest.raises(ValueError):
        Hyperedge(0, 1, 0, [])
    with pytest.raises(ValueError):
        Hyperedge(0, 1, 0, [0, 1])
    e = Hyperedge(0, 2, 0, [2, 1, 2])
    assert e.drains == (1, 2)
    assert len(e) == 3


def test_incidence_is_inverse_of_membership():
    h = Hypergraph.build(
        [[1]] * 6,
        [(1, 0, [1, 2]), (2, 2, [3]), (1, 4, [0, 5]), (3, 5, [1])],
    )
    for v in range(h.num_vertices):
        for e in range(h.num_edges):
            member = v in h.edges[e].members
            listed = e in h.incidence[v]
            assert member == listed


def test_dangling_vertex_rejected():
    with pytest.raises(ValueError):
        Hypergraph.build([[1]] * 2, [(1, 0, [2])])


def test_drain_fpgas_single_host():
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2])])
    p = Placement([0, 2, 2])
    assert drain_fpgas(h, 0, p) == {2}


def test_drain_fpgas_includes_replicas():
    h = Hypergraph.build([[1]] * 2, [(1, 0, [1])])
    p = Placement([0, 1], [set(), {3}])
    assert drain_fpgas(h, 0, p) == {1, 3}


def test_drain_fpgas_replication_story():
    # source vertex 1 on FPGA 1, three drains on FPGA 2
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1]), (1, 1, [2])])
    p = Placement([1, 1, 2])
    assert drain_fpgas(h, 1, p) == {2}
    p.add_replica(1, 2)  # replicate vertex 1 onto FPGA 2
    assert drain_fpgas(h, 0, p) == {1, 2}


def test_hosts_never_empty_and_replica_rules():
    p = Placement([0, 1])
    p.add_replica(0, 2)
    assert p.hosts(0) == {0, 2}
    p.remove_replica(0, 2)
    assert p.hosts(0) == {0}
    with pytest.raises(ValueError):
        p.add_replica(1, 1)


def test_serialization_round_trip_preserves_incidence():
    h = Hypergraph.build(
        [[2, 1], [1, 1], [3, 0], [1, 4]],
        [(2, 0, [1, 2]), (1, 3, [0]), (4, 2, [0, 1, 3])],
    )
    h2 = parse_hypergraph(write_hypergraph(h))
    assert h2.incidence == h.incidence
    assert [e.members for e in h2.edges] == [e.members for e in h.edges]
    assert [v.weight.values for v in h2.vertices] == [v.weight.values for v in h.vertices]


def test_placement_copy_is_independent():
    p = Placement([0, 1], [{2}, set()])
    q = p.copy()
    q.add_replica(1, 3)
    q.set_original(0, 2)
    assert p.original == [0, 1]
    assert p.replicas == [{2}, set()]
    assert q.original == [2, 1]


def test_move_absorbs_replica_at_destination():
    p = Placement([0], [{2}])
    p.set_original(0, 2)
    assert p.original == [2]
    assert p.replicas == [set()]


def test_gathers_and_derived_arrays_match_the_object_views():
    # each net's size and each pin's net, each vertex's degree and reach,
    # and the gathers over any vertex or net set, as the objects list them
    h = gen_instance(4, 60, 80, 4, 2).hypergraph
    edges, inc = h.edges, h.incidence
    assert h.members == [list(e.members) for e in edges]
    assert h.size.tolist() == [len(e) for e in edges]
    assert h.pin_net.tolist() == [e.id for e in edges for _ in e.members]
    assert h.degree.tolist() == [len(es) for es in inc]
    assert h.reach.tolist() == [sum(len(edges[e]) for e in es) for es in inc]
    vs = np.array([7, 0, 59, 7, 31])
    nets, owner = h.nets_of(vs)
    assert list(zip(owner.tolist(), nets.tolist())) == [
        (i, e) for i, v in enumerate(vs.tolist()) for e in inc[v]
    ]
    es = np.array([3, 79, 0, 3])
    for drains in (False, True):
        pins, owner = h.pins_of(es, drains=drains)
        assert list(zip(owner.tolist(), pins.tolist())) == [
            (i, x) for i, e in enumerate(es.tolist())
            for x in (edges[e].drains if drains else edges[e].members)
        ]
    for gather in (h.nets_of, h.pins_of):
        items, owner = gather(np.array([], np.intp))
        assert items.tolist() == owner.tolist() == []


def test_only_the_model_knows_the_pin_layout():
    # the CSR offsets and the range helper are the model's own: every
    # other module reads a hypergraph through its gathers, derived arrays
    # and views, and coarsening takes nothing from the exchange table
    def names(path):
        text = io.StringIO(path.read_text()).readline
        return {t.string for t in tokenize.generate_tokens(text) if t.type == tokenize.NAME}

    root = Path(mfspart.__file__).parent
    read = {path.name: names(path) for path in sorted(root.glob("*.py"))}
    layout = ("pin_ptr", "inc_ptr", "_ranges")
    assert [(m, x) for m, got in read.items() if m != "model.py" for x in layout if x in got] == []
    assert set(layout) <= read["model.py"]
    assert "_exchange" not in read["coarsen.py"]


@pytest.mark.parametrize("seed", range(20))
def test_from_mask_inverts_host_mask(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 40)), int(rng.integers(2, 7))
    orig = rng.integers(0, k, n).tolist()
    reps = [{f for f in range(k) if f != o and rng.random() < 0.3} for o in orig]
    reps[0].add((orig[0] + 1) % k)
    p = Placement(orig, reps)
    assert Placement.from_mask(np.array(p.original), p.host_mask(k)) == p
