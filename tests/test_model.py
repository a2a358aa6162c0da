import pytest

from mfspart.io import parse_hypergraph, write_hypergraph
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
