import random

import pytest

from mfspart.io import gen_instance
from mfspart.metrics import (
    cut_size,
    io_usage_all,
    net_hop_distance,
    report,
    total_hop_distance,
    validate,
)
from mfspart.model import Hypergraph, Placement, ResourceVector
from mfspart.topology import MfsTopology, compute_hop_matrix

from conftest import fanout_story, path_topology, ring_topology


def test_net_hop_all_local():
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2])])
    p = Placement([1] * 3)
    hm = compute_hop_matrix(path_topology(2))
    assert net_hop_distance(h, 0, p, hm) == 0


def test_fanout_story_replication_saves_two():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    # three unit nets from vertex 1 each cross one hop
    assert total_hop_distance(h, p, hm) == 3
    p2 = p.copy()
    p2.add_replica(1, 2)
    # the fanout nets become local; the feeder net must now also reach FPGA 2
    assert total_hop_distance(h, p2, hm) == 1
    assert net_hop_distance(h, 0, p2, hm) == 1


def test_net_hop_min_over_source_copies():
    # source copies on 0 and 2 of a path; drain on 1: nearest copy is 1 away
    h = Hypergraph.build([[1]] * 2, [(1, 0, [1])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1], [{2}, set()])
    assert net_hop_distance(h, 0, p, hm) == 1


def test_total_hop_weight_linearity():
    h = Hypergraph.build([[1]] * 2, [(3, 0, [1])])
    t = path_topology(2)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    assert total_hop_distance(h, p, hm) == 3


def _brute_thd(h, p, hm):
    total = 0
    for e in h.edges:
        hosts = {p.original[e.source]} | p.replicas[e.source]
        dset = set()
        for d in e.drains:
            dset |= {p.original[d]} | p.replicas[d]
        total += e.weight * sum(min(hm.dist[s][f] for s in hosts) for f in dset)
    return total


def _random_state(seed, n=8, m=14, k=3):
    rng = random.Random(seed)
    b = gen_instance(seed, n, m, k, 1, spare=1.0)
    hm = compute_hop_matrix(b.topology)
    orig = [rng.randrange(k) for _ in range(n)]
    reps = [
        set(rng.sample([f for f in range(k) if f != orig[v]], rng.randrange(0, k)))
        for v in range(n)
    ]
    return b.hypergraph, b.topology, hm, Placement(orig, reps)


def _edge_states():
    """States with the shapes the shared count pass must handle: a
    net-less graph (an empty (0, K) count matrix), isolated vertices, and
    a single FPGA (every net local)."""
    for seed in range(5):
        yield _random_state(seed, n=10, m=0, k=5)
        h, t, hm, p = _random_state(seed, n=10, m=2, k=5)
        assert not all(h.incidence)  # a vertex without a net
        yield h, t, hm, p
        yield _random_state(seed, n=10, m=18, k=1)


def _brute_net_worst(h, p, hm):
    """Per net, the largest hop from its nearest source copy to a drain copy."""
    out = []
    for e in h.edges:
        hosts = {p.original[e.source]} | p.replicas[e.source]
        worst = 0
        for d in e.drains:
            for f in {p.original[d]} | p.replicas[d]:
                worst = max(worst, min(hm.dist[s][f] for s in hosts))
        out.append(worst)
    return out


def _brute_max_hop(h, p, hm):
    return max(_brute_net_worst(h, p, hm), default=0)


def _brute_io(h, p, hm, k):
    """Importers: drain-host FPGAs without a source copy.  Exporters: for
    each importer, the source copy at the least hop distance, lowest id on
    ties.  Each charges the net's weight once."""
    io = [0] * k
    for e in h.edges:
        hosts = {p.original[e.source]} | p.replicas[e.source]
        dset = set()
        for d in e.drains:
            dset |= {p.original[d]} | p.replicas[d]
        importers = dset - hosts
        exporters = {min(hosts, key=lambda s: (hm.dist[s][f], s)) for f in importers}
        for f in importers | exporters:
            io[f] += e.weight
    return io


def test_report_matches_brute_force_with_replicas():
    replicated = 0
    states = [_random_state(seed, n=10, m=18, k=5) for seed in range(30)]
    for h, t, hm, p in states + list(_edge_states()):
        replicated += p.replica_count()
        rep = report(h, t, p, hm)
        assert rep.total_hop_distance == _brute_thd(h, p, hm)
        assert rep.max_hop_used == _brute_max_hop(h, p, hm)
        assert rep.fpga_io == _brute_io(h, p, hm, t.k_fpgas)
        usage = [[0] * h.num_resource_types for _ in range(t.k_fpgas)]
        for v in h.vertices:
            for f in {p.original[v.id]} | p.replicas[v.id]:
                usage[f] = [a + b for a, b in zip(usage[f], v.weight)]
        assert [list(u) for u in rep.fpga_usage] == usage
    assert replicated > 0


def test_nearest_is_min_and_lowest_argmin():
    rng = random.Random(11)
    # on a ring, two copies often sit at the same distance from an FPGA
    for t in (path_topology(1), ring_topology(4), ring_topology(7)):
        k = t.k_fpgas
        hm = compute_hop_matrix(t)
        ties = 0
        for _ in range(40):
            hosts = set(rng.sample(range(k), rng.randint(1, k)))
            hop, server = hm.nearest(hosts)
            for f in range(k):
                best = min(hm.dist[s][f] for s in hosts)
                tied = [s for s in sorted(hosts) if hm.dist[s][f] == best]
                ties += len(tied) > 1
                assert hop[f] == best
                assert server[f] == tied[0]
            assert hm.nearest(frozenset(hosts)) is hm.nearest(sorted(hosts))
        assert ties > 0 or k == 1
    with pytest.raises(ValueError):
        hm.nearest(set())


def test_total_hop_matches_brute_force():
    for seed in range(20):
        h, t, hm, p = _random_state(seed)
        assert total_hop_distance(h, p, hm) == _brute_thd(h, p, hm)


def test_unreplicated_reduces_to_plain_formula():
    for seed in range(10):
        h, t, hm, p = _random_state(seed)
        q = Placement(p.original)  # strip replicas
        plain = sum(
            e.weight
            * sum(
                hm.dist[q.original[e.source]][f]
                for f in {q.original[d] for d in e.drains}
            )
            for e in h.edges
        )
        assert total_hop_distance(h, q, hm) == plain


def test_relabel_invariance():
    rng = random.Random(3)
    h, t, hm, p = _random_state(42, n=10, m=16, k=4)
    perm = list(range(t.k_fpgas))
    rng.shuffle(perm)
    links2 = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in t.links)
    t2 = MfsTopology([t.capacities[perm.index(f)] for f in range(t.k_fpgas)], links2,
                     [t.io_limits[perm.index(f)] for f in range(t.k_fpgas)], t.hop_max)
    hm2 = compute_hop_matrix(t2)
    p2 = Placement([perm[o] for o in p.original], [{perm[r] for r in rs} for rs in p.replicas])
    assert total_hop_distance(h, p, hm) == total_hop_distance(h, p2, hm2)


def test_cut_size_all_local():
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2])])
    assert cut_size(h, Placement([0] * 3)) == 0


def test_cut_size_fanout_story():
    # feeder on FPGA 0 this time: all four nets are cut before replication
    h, t, p = fanout_story(src_fpga=0)
    assert cut_size(h, p) == 4
    p2 = p.copy()
    p2.add_replica(1, 2)
    # fanout nets become local on FPGA 2; only the feeder net stays cut
    assert cut_size(h, p2) == 1


def test_cut_size_matches_brute_force():
    for h, t, hm, p in [_random_state(seed) for seed in range(15)] + list(_edge_states()):
        brute = 0
        for e in h.edges:
            common = {p.original[e.source]} | p.replicas[e.source]
            for d in e.drains:
                common &= {p.original[d]} | p.replicas[d]
            if not common:
                brute += 1
        assert cut_size(h, p) == brute


def test_io_all_local():
    h = Hypergraph.build([[1]] * 2, [(1, 0, [1])])
    t = path_topology(2)
    hm = compute_hop_matrix(t)
    assert io_usage_all(h, Placement([0] * 2), hm) == [0, 0]


def test_io_symmetric_crossing():
    h = Hypergraph.build([[1]] * 2, [(2, 0, [1])])
    t = path_topology(2)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    assert io_usage_all(h, p, hm)[0] == 2
    assert io_usage_all(h, p, hm)[1] == 2


def test_io_fanout_story_post_replication():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    p.add_replica(1, 2)
    # FPGA 2 imports only the feeder net (weight 1); its fanout nets are local
    assert io_usage_all(h, p, hm)[2] == 1


def test_validate_feasible_empty():
    h, t, p = fanout_story(src_fpga=1)
    assert validate(h, t, p) == []


def test_validate_resource_violation():
    h = Hypergraph.build([[5]], [])
    t = MfsTopology([ResourceVector([4]), ResourceVector([9])], [(0, 1)])
    bad = validate(h, t, Placement([0]))
    assert len(bad) == 1
    v = bad[0]
    assert (v.kind, v.index, v.observed, v.limit) == ("resource", 0, 5, 4)


def test_validate_hop_violation():
    h = Hypergraph.build([[1]] * 2, [(1, 0, [1])])
    t = path_topology(4, hop_max=2)
    bad = validate(h, t, Placement([0, 3]))
    assert [v.kind for v in bad] == ["hop"]
    assert bad[0].observed == 3
    assert bad[0].limit == 2


def test_validate_io_violation():
    h = Hypergraph.build([[1]] * 2, [(4, 0, [1])])
    t = path_topology(2, io_limit=3)
    bad = validate(h, t, Placement([0, 1]))
    assert {v.kind for v in bad} == {"io"}
    assert len(bad) == 2  # both endpoints carry 4 > 3


def test_validate_bounds_match_brute_force_with_replicas():
    # hop and I/O bounds one below what the brute force reports: validate
    # must list exactly the nets and FPGAs that exceed them
    checked = 0
    for seed in range(30):
        h, t, hm, p = _random_state(seed, n=10, m=18, k=5)
        worst = _brute_net_worst(h, p, hm)
        io = _brute_io(h, p, hm, t.k_fpgas)
        hop_max = max(worst) - 1
        if hop_max < 1:
            continue
        # every other FPGA with traffic gets a limit one below its usage
        limits = [x - 1 if x and f % 2 == 0 else x for f, x in enumerate(io)]
        bounded = MfsTopology(t.capacities, t.links, limits, hop_max)
        bad = validate(h, bounded, p, hm)
        hops = {(v.index, v.observed, v.limit) for v in bad if v.kind == "hop"}
        ios = {(v.index, v.observed, v.limit) for v in bad if v.kind == "io"}
        assert hops == {
            (e, w, hop_max) for e, w in enumerate(worst) if w > hop_max
        }
        assert ios == {
            (f, x, x - 1) for f, x in enumerate(io) if x and f % 2 == 0
        }
        assert hops and ios
        checked += 1
    assert checked >= 20
    # the edge shapes, under a hop bound of 1 and the same I/O limits
    for h, t, hm, p in _edge_states():
        worst = _brute_net_worst(h, p, hm)
        io = _brute_io(h, p, hm, t.k_fpgas)
        limits = [x - 1 if x and f % 2 == 0 else x for f, x in enumerate(io)]
        bad = validate(h, MfsTopology(t.capacities, t.links, limits, 1), p, hm)
        assert {(v.index, v.observed) for v in bad if v.kind == "hop"} == {
            (e, w) for e, w in enumerate(worst) if w > 1
        }
        assert {(v.index, v.observed, v.limit) for v in bad if v.kind == "io"} == {
            (f, x, x - 1) for f, x in enumerate(io) if x and f % 2 == 0
        }


def test_validate_malformed_placement():
    h = Hypergraph.build([[1]] * 2, [(1, 0, [1])])
    t = path_topology(2)
    bad = validate(h, t, Placement([0, 5]))
    assert [v.kind for v in bad] == ["placement"]
    p = Placement([0, 1])
    p.replicas[1].add(1)  # direct corruption
    bad = validate(h, t, p)
    assert [v.kind for v in bad] == ["placement"]


def test_replica_only_hurts_nets_where_vertex_drains():
    for seed in range(10):
        h, t, hm, p = _random_state(seed, n=9, m=16, k=3)
        rng = random.Random(seed + 100)
        v = rng.randrange(h.num_vertices)
        cand = [f for f in range(t.k_fpgas) if f not in p.hosts(v)]
        if not cand:
            continue
        f = rng.choice(cand)
        before = {e.id: e.weight * net_hop_distance(h, e.id, p, hm) for e in h.edges}
        q = p.copy()
        q.add_replica(v, f)
        for e in h.edges:
            after = e.weight * net_hop_distance(h, e.id, q, hm)
            if after > before[e.id]:
                assert v in e.drains


def test_replicate_then_delete_restores_metrics():
    for seed in range(10):
        h, t, hm, p = _random_state(seed)
        rng = random.Random(seed + 7)
        v = rng.randrange(h.num_vertices)
        cand = [f for f in range(t.k_fpgas) if f not in p.hosts(v)]
        if not cand:
            continue
        f = cand[0]
        snap = report(h, t, p, hm).to_text()
        p.add_replica(v, f)
        p.remove_replica(v, f)
        assert report(h, t, p, hm).to_text() == snap


def test_report_fields():
    h, t, p = fanout_story(src_fpga=1)
    rep = report(h, t, p)
    assert rep.total_hop_distance == 3
    assert rep.cut_size == 3
    assert rep.max_hop_used == 1
    assert rep.replica_count == 0
    assert rep.fpga_io == [0, 3, 3]
    text = rep.to_text()
    assert text.startswith("{") and text.endswith("}\n")
