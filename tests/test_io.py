import random

import pytest

from mfspart.io import (
    InstanceBundle,
    ParseError,
    gen_instance,
    parse_hmetis,
    parse_hypergraph,
    parse_solution,
    parse_topology,
    write_hypergraph,
    write_solution,
    write_topology,
)
from mfspart.metrics import validate
from mfspart.model import Placement


HG_BASIC = """\
3 1 1
1
1
1
2 0 1 2
"""


def test_parse_hypergraph_basic():
    h = parse_hypergraph(HG_BASIC)
    assert h.num_vertices == 3
    assert h.num_edges == 1
    e = h.edges[0]
    assert (e.weight, e.source, e.drains) == (2, 0, (1, 2))


def test_parse_hypergraph_comments_ok():
    h = parse_hypergraph("# heading\n2 1 1  # counts\n1\n1\n1 0 1\n")
    assert h.num_edges == 1


def test_source_in_drains_rejected():
    text = "2 1 1\n1\n1\n1 0 0\n"
    with pytest.raises(ParseError, match="source repeated in drains"):
        parse_hypergraph(text)


def test_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_hypergraph("3 1\n")


def test_negative_weight_diagnostic():
    with pytest.raises(ParseError, match="negative"):
        parse_hypergraph("2 1 1\n1\n-1\n1 0 1\n")
    with pytest.raises(ParseError, match="negative or zero weight"):
        parse_hypergraph("2 1 1\n1\n1\n0 0 1\n")


def test_dangling_vertex_diagnostic():
    with pytest.raises(ParseError, match="dangling vertex id 5"):
        parse_hypergraph("2 1 1\n1\n1\n1 0 5\n")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_hypergraph(HG_BASIC + "7 7 7\n")


def test_case01_shaped_file():
    # 16 vertices, 13 nets, one resource type
    rng = random.Random(1)
    lines = ["16 13 1"] + ["1"] * 16
    for j in range(13):
        src = rng.randrange(16)
        drains = sorted(set(rng.randrange(16) for _ in range(3)) - {src})
        if not drains:
            drains = [(src + 1) % 16]
        lines.append(f"1 {src} " + " ".join(map(str, drains)))
    h = parse_hypergraph("\n".join(lines) + "\n")
    assert h.num_vertices == 16
    assert h.num_edges == 13


TOPO_PATH4 = """\
4 3 1
10 5
10 5
10 5
10 5
0 1
1 2
2 3
"""


def test_parse_topology_path():
    t = parse_topology(TOPO_PATH4)
    assert t.k_fpgas == 4
    assert t.links == [(0, 1), (1, 2), (2, 3)]
    assert t.io_limits == [5, 5, 5, 5]
    assert t.hop_max is None


def test_topology_io_limit_optional():
    t = parse_topology("2 1 1\n10\n10 7\n0 1\n")
    assert t.io_limits == [None, 7]


def test_topology_hop_max_header():
    t = parse_topology("2 1 1 3\n10\n10\n0 1\n")
    assert t.hop_max == 3


def test_topology_self_link_rejected():
    with pytest.raises(ParseError, match="self-link"):
        parse_topology("3 1 1\n1\n1\n1\n2 2\n")


def test_topology_duplicate_link_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_topology("2 2 1\n1\n1\n0 1\n1 0\n")


def test_topology_late_duplicate_link_reports_its_line():
    # a full mesh on 30 FPGAs, then its first link again, reversed: the
    # error names the last line, 1 header + 30 FPGA lines + 436 links
    pairs = [(a, b) for a in range(30) for b in range(a + 1, 30)] + [(1, 0)]
    text = f"30 {len(pairs)} 1\n" + "1\n" * 30 + "".join(f"{a} {b}\n" for a, b in pairs)
    with pytest.raises(ParseError, match=r"link 435: duplicate link \(1, 0\)") as err:
        parse_topology(text)
    assert err.value.line == 467


def test_topology_disconnected_rejected():
    with pytest.raises(ParseError, match=r"unreachable pair \(0, 1\)"):
        parse_topology("2 0 1\n1\n1\n")


def test_topology_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_topology(TOPO_PATH4 + "9 9\n")


def test_emitters_fuzz_round_trip():
    for seed in range(12):
        b = gen_instance(seed * 3 + 1, 15 + seed, 25 + seed, 2 + seed % 4, 1 + seed % 3)
        ht = write_hypergraph(b.hypergraph)
        tt = write_topology(b.topology)
        assert write_hypergraph(parse_hypergraph(ht)) == ht
        assert write_topology(parse_topology(tt)) == tt


def test_sampleinput_shaped_topology():
    # 8 FPGAs, 11 links, one resource type
    links = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
             (0, 7), (1, 6), (2, 5), (3, 7)]
    text = "8 11 1\n" + "\n".join(["100"] * 8) + "\n"
    text += "\n".join(f"{a} {b}" for a, b in links) + "\n"
    t = parse_topology(text)
    assert t.k_fpgas == 8
    assert len(t.links) == 11


def test_solution_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 12)
        orig = [rng.randrange(4) for _ in range(n)]
        reps = [
            set(rng.sample([f for f in range(4) if f != orig[v]], rng.randrange(0, 3)))
            for v in range(n)
        ]
        p = Placement(orig, reps)
        assert parse_solution(write_solution(p)) == p


def test_solution_lines():
    p = Placement([1, 1], [{3}, set()])
    assert write_solution(p) == "1 3\n1\n"


def test_solution_replica_equal_original_rejected():
    with pytest.raises(ParseError, match="replica equal to original"):
        parse_solution("1 1\n")


def test_round_trip_hypergraph_topology():
    b = gen_instance(3, 30, 50, 4, 2)
    assert parse_hypergraph(write_hypergraph(b.hypergraph)).incidence == b.hypergraph.incidence
    t2 = parse_topology(write_topology(b.topology))
    assert t2.links == b.topology.links
    assert [c.values for c in t2.capacities] == [c.values for c in b.topology.capacities]


def test_gen_deterministic():
    a = gen_instance(11, 40, 60, 4, 2)
    b = gen_instance(11, 40, 60, 4, 2)
    assert write_hypergraph(a.hypergraph) == write_hypergraph(b.hypergraph)
    assert write_topology(a.topology) == write_topology(b.topology)


def test_gen_instances_validate():
    for seed in range(5):
        b = gen_instance(seed, 25, 40, 3, 2)
        # the bundle constructor checks k agreement; nothing should raise
        InstanceBundle(b.hypergraph, b.topology)


def test_gen_all_on_one_fpga_feasibility_matches_arithmetic():
    b = gen_instance(5, 10, 12, 3, 1, spare=0.2)
    total = b.hypergraph.total_weight()
    cap = b.topology.capacities[0]
    p = Placement([0] * 10)
    fits = all(total[i] <= cap[i] for i in range(len(cap)))
    resource_violations = [
        v for v in validate(b.hypergraph, b.topology, p) if v.kind == "resource"
    ]
    assert (len(resource_violations) == 0) == fits


def test_gen_zero_vertices_rejected():
    with pytest.raises(ValueError):
        gen_instance(1, 0, 0, 2)


@pytest.mark.parametrize("spare", [float("inf"), float("nan"), -0.5])
def test_gen_spare_not_finite_and_non_negative_rejected(spare):
    # an infinite spare overflowed the capacity arithmetic and a NaN one
    # failed in int(); both are refused up front
    with pytest.raises(ValueError, match="^spare fraction must be finite and non-negative$"):
        gen_instance(1, 10, 12, 2, spare=spare)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"hub_fanout": 1}, "hub_fanout must be at least 2, got 1"),
        ({"max_fanout": 0}, "max_fanout must be at least 1, got 0"),
        ({"max_vertex_weight": 0}, "max_vertex_weight must be at least 1, got 0"),
        ({"max_edge_weight": 0}, "max_edge_weight must be at least 1, got 0"),
        ({"hub_fraction": float("nan")}, "hub_fraction must be a fraction in [0, 1], got nan"),
        ({"driver_fraction": 1.5}, "driver_fraction must be a fraction in [0, 1], got 1.5"),
        ({"locality": 0}, "locality must be at least 1, got 0"),
        ({"locality": -5}, "locality must be at least 1, got -5"),
        ({"extra_links": -1}, "extra_links must be at least 0, got -1"),
        ({"n_edges": -3}, "n_edges must be at least 0, got -3"),
    ],
    ids=["hub-fanout", "max-fanout", "max-vertex-weight", "max-edge-weight",
         "hub-fraction", "driver-fraction", "locality-zero", "locality-negative",
         "extra-links", "n-edges"],
)
def test_gen_shape_argument_rejected(kwargs, message):
    # before, a hub fanout of 1 or a vertex weight cap of 0 failed in
    # random's "empty range", an edge weight cap of 0 in the first net's
    # weight check, a fanout cap of 0 ran as 1, a NaN hub fraction
    # dropped every hub net, a locality below 1 ran as an unbounded window
    # and a negative extra link count as 0, and a negative net count made
    # an instance without nets; each is now refused under its own name
    with pytest.raises(ValueError) as err:
        gen_instance(**{"seed": 1, "n_vertices": 10, "n_edges": 12, "k_fpgas": 2, **kwargs})
    assert str(err.value) == message


def test_gen_mismatched_types_rejected():
    b = gen_instance(2, 10, 10, 2, 2)
    b2 = gen_instance(2, 10, 10, 2, 1)
    with pytest.raises(ValueError, match="mismatch"):
        InstanceBundle(b.hypergraph, b2.topology)


HMETIS_PLAIN = """\
4 7 0
1 2
1 7 5 6
5 6 4
2 3 4
"""


def test_hmetis_plain():
    h = parse_hmetis(HMETIS_PLAIN)
    assert h.num_vertices == 7
    assert h.num_edges == 4
    assert h.edges[0].source == 0
    assert h.edges[0].drains == (1,)
    assert all(e.weight == 1 for e in h.edges)


def test_hmetis_edge_weights():
    h = parse_hmetis("2 3 1\n9 1 2\n4 2 3\n")
    assert [e.weight for e in h.edges] == [9, 4]


def test_hmetis_node_weights():
    h = parse_hmetis("1 2 10\n1 2\n5\n7\n")
    assert [v.weight.values for v in h.vertices] == [(5,), (7,)]


def test_hmetis_single_pin_net_dropped():
    h = parse_hmetis("2 3 0\n1 1 1\n1 2 3\n")
    assert h.num_edges == 1
