import hashlib
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from mfspart import assign
from mfspart.assign import (
    SearchBudget,
    backtrack_depth,
    compute_heats,
    dfs_assign,
    fpga_heat,
    node_heat,
    parallel_assign,
    perturb_heats,
    should_deep_backtrack,
)
from mfspart.coarsen import CoarseningConfig, build_hierarchy
from mfspart.io import InstanceBundle, gen_instance
from mfspart.metrics import report, total_hop_distance, validate
from mfspart.model import Hypergraph, Placement, ResourceVector
from mfspart.oracle import exhaustive_partition
from mfspart.seeds import TAG_COARSEN, sub_seed
from mfspart.topology import HopMatrix, MfsTopology, compute_hop_matrix

from conftest import path_topology, ring_topology


EXHAUSTIVE = SearchBudget(max_solutions=None, stall_delta=1e-9, max_nodes=None)
# stall_delta ~ 0 never triggers on integer THDs, so deep backtracking is off


def test_fpga_heat_path_orders_center_first():
    t = path_topology(3, cap=6)
    hm = compute_hop_matrix(t)
    assert fpga_heat(t, hm, 1) == pytest.approx(36 / 2)
    assert fpga_heat(t, hm, 0) == pytest.approx(36 / 3)
    assert fpga_heat(t, hm, 1) > fpga_heat(t, hm, 0)


def test_fpga_heat_ring_symmetric():
    t = ring_topology(5, cap=4)
    hm = compute_hop_matrix(t)
    heats = {fpga_heat(t, hm, f) for f in range(5)}
    assert len(heats) == 1


def test_fpga_heat_quadratic_in_capacity():
    # doubling one FPGA's capacities quadruples its heat (hop_sum unchanged)
    t = MfsTopology([ResourceVector([4])] * 3, [(0, 1), (1, 2)])
    t2 = MfsTopology([ResourceVector([8]), ResourceVector([4]), ResourceVector([4])],
                     [(0, 1), (1, 2)])
    hm = compute_hop_matrix(t)
    assert fpga_heat(t2, hm, 0) == pytest.approx(4 * fpga_heat(t, hm, 0))


def test_fpga_heat_single_fpga_convention():
    t = path_topology(1)
    hm = compute_hop_matrix(t)
    assert fpga_heat(t, hm, 0) == 1.0


def test_node_heat_values():
    h = Hypergraph.build([[2], [1]], [(3, 0, [1])])
    assert node_heat(h, 0) == 3 * 4
    assert node_heat(h, 1) == 3 * 1
    h_iso = Hypergraph.build([[2]], [])
    assert node_heat(h_iso, 0) == 0
    h_scaled = Hypergraph.build([[2], [1]], [(6, 0, [1])])
    assert node_heat(h_scaled, 0) == 2 * node_heat(h, 0)


def test_heat_order_invariant_under_capacity_scaling():
    t = path_topology(4, cap=5)
    hm = compute_hop_matrix(t)
    t2 = path_topology(4, cap=50)
    order1 = sorted(range(4), key=lambda f: -fpga_heat(t, hm, f))
    order2 = sorted(range(4), key=lambda f: -fpga_heat(t2, hm, f))
    assert order1 == order2


def test_dfs_single_node():
    h = Hypergraph.build([[1]], [])
    t = path_topology(1)
    hm = compute_hop_matrix(t)
    res = dfs_assign(h, t, hm, EXHAUSTIVE)
    assert res.status == "complete"
    assert res.thd == 0
    assert res.placement.original == [0]


def test_dfs_empty_hypergraph():
    h = Hypergraph.build([], [])
    t = path_topology(2)
    res = dfs_assign(h, t, compute_hop_matrix(t), EXHAUSTIVE)
    assert res.status == "complete"
    assert res.placement == Placement([])
    assert res.thd == 0


def test_dfs_two_nodes_forced_split():
    # either FPGA fits one unit vertex; the four assignments are
    # (0,0),(0,1),(1,0),(1,1): the same-FPGA ones violate capacity, the
    # split ones cost exactly one hop
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    t = path_topology(2, cap=1)
    hm = compute_hop_matrix(t)
    res = dfs_assign(h, t, hm, EXHAUSTIVE)
    assert res.status == "complete"
    assert res.thd == 1


def test_dfs_oversized_node_no_solution():
    h = Hypergraph.build([[9]], [])
    t = path_topology(2, cap=5)
    hm = compute_hop_matrix(t)
    res = dfs_assign(h, t, hm, EXHAUSTIVE)
    assert res.status == "complete"
    assert res.placement is None


def test_budget_exhausted_distinct_from_no_solution():
    b = gen_instance(3, 12, 20, 3, 1, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    res = dfs_assign(b.hypergraph, b.topology, hm, SearchBudget(max_nodes=2))
    assert res.status == "budget"


def test_deep_backtrack_trigger_rules():
    assert should_deep_backtrack(100, 99, 0.02)
    assert not should_deep_backtrack(100, 90, 0.02)
    assert backtrack_depth(20, 0.3) == 6


def test_dfs_matches_oracle_when_exhaustive():
    for seed in range(12):
        b = gen_instance(seed, 7, 12, 3, 1, spare=0.5)
        hm = compute_hop_matrix(b.topology)
        opt_p, opt_thd = exhaustive_partition(b.hypergraph, b.topology, hm)
        res = dfs_assign(b.hypergraph, b.topology, hm, EXHAUSTIVE)
        if opt_p is None:
            assert res.placement is None
        else:
            assert res.status == "complete"
            assert res.thd == opt_thd
            assert total_hop_distance(b.hypergraph, res.placement, hm) == opt_thd


def test_dfs_matches_oracle_under_binding_io_and_hop_bounds():
    # Bounds taken from the unbounded optimum on a 4-FPGA path: every
    # FPGA's I/O and the worst hop exactly at its values (the optimum stays
    # feasible), a uniform I/O budget one below its peak, and a hop bound
    # one below its worst hop.  The last two cut the optimum off.
    path = [(0, 1), (1, 2), (2, 3)]
    outcomes = set()
    for seed in range(12):
        b = gen_instance(seed, 7, 12, 4, 1, spare=0.5)
        caps = b.topology.capacities
        free = MfsTopology(caps, path)
        hm = compute_hop_matrix(free)
        opt_p, opt_thd = exhaustive_partition(b.hypergraph, free, hm)
        assert opt_p is not None
        rep = report(b.hypergraph, free, opt_p, hm)
        bounds = [
            (list(rep.fpga_io), rep.max_hop_used),
            ([max(rep.fpga_io) - 1] * 4, rep.max_hop_used),
        ]
        if rep.max_hop_used > 1:
            bounds.append((None, rep.max_hop_used - 1))
        for io_limits, hop_max in bounds:
            t = MfsTopology(caps, path, io_limits, hop_max)
            ref_p, ref_thd = exhaustive_partition(b.hypergraph, t, hm)
            res = dfs_assign(b.hypergraph, t, hm, EXHAUSTIVE)
            assert res.status == "complete"
            assert res.thd == ref_thd
            if ref_p is None:
                assert res.placement is None
                outcomes.add("infeasible")
            else:
                assert validate(b.hypergraph, t, res.placement, hm) == []
                assert total_hop_distance(b.hypergraph, res.placement, hm) == ref_thd
                outcomes.add("same" if ref_thd == opt_thd else "worse")
    assert outcomes == {"same", "worse", "infeasible"}


def test_dfs_matches_oracle_on_asymmetric_hop_matrix():
    # the search reads dist[source][drain] and never assumes symmetry
    rng = random.Random(5)
    for seed in range(8):
        b = gen_instance(seed, 7, 12, 3, 1, spare=0.5, hop_max=3 if seed % 2 else None)
        hm = HopMatrix(tuple(
            tuple(0 if a == d else rng.randint(1, 4) for d in range(3)) for a in range(3)
        ))
        opt_p, opt_thd = exhaustive_partition(b.hypergraph, b.topology, hm)
        res = dfs_assign(b.hypergraph, b.topology, hm, EXHAUSTIVE)
        assert res.status == "complete"
        assert res.thd == opt_thd
        if opt_p is not None:
            assert total_hop_distance(b.hypergraph, res.placement, hm) == opt_thd


def _hub(seed, io_limit):
    # nets of up to 64 drains; the hop bound and these I/O budgets each
    # change what a 50k-node search finds on these instances
    return gen_instance(seed, 150, 180, 8, 2, spare=0.4, hub_fanout=64,
                        hop_max=2, io_limit=io_limit)


def _coarsest(seed):
    # the coarsest level of a 1000-vertex instance, as the pipeline builds it
    b = gen_instance(seed, 1000, 1200, 8, 2, spare=0.4)
    levels = build_hierarchy(b.hypergraph, b.topology,
                             CoarseningConfig(seed=sub_seed(1, TAG_COARSEN)))
    return InstanceBundle(levels[-1].hypergraph, b.topology)


def _hop_only(seed):
    return gen_instance(seed, 80, 96, 8, 2, spare=0.4, hop_max=2)


NODES_50K = SearchBudget(max_nodes=50_000)
# a wide stall window, so that deep backtracking fires (5 times here)
DEEP = SearchBudget(max_solutions=None, max_nodes=None, stall_delta=0.5, rho=0.5)

# Results of fixed searches, recorded before the search's inner loop was
# rewritten around per-depth candidate rows: (instance, heat-jitter seed or
# None, budget, (status, nodes, solutions, THD, placement with one FPGA
# digit per vertex)).  Any change to visit order, pruning or ties shows here.
PINNED_SEARCHES = [
    ("unbounded-41", lambda: gen_instance(41, 80, 96, 8, 2, spare=0.4), 1, NODES_50K,
     ("budget", 50001, 1, 259,
      "541445631406366361655606466006336640530051564144164444331160"
      "65553145101304031153")),
    ("unbounded-41", lambda: gen_instance(41, 80, 96, 8, 2, spare=0.4), 2, NODES_50K,
     ("budget", 50001, 1, 270,
      "545445601406366361651606466006356440530351564144164414301163"
      "63553145101304034153")),
    ("unbounded-42", lambda: gen_instance(42, 80, 96, 8, 2, spare=0.4), 1, NODES_50K,
     ("budget", 50001, 3, 255,
      "333333223721572515756235262666257667136167517127371652312326"
      "45252373612557227642")),
    ("unbounded-42", lambda: gen_instance(42, 80, 96, 8, 2, spare=0.4), 2, NODES_50K,
     ("budget", 50001, 3, 262,
      "334333232721577515556237262666257667137166517526271752312326"
      "31253373616557227232")),
    ("hub-2003", lambda: _hub(2003, 115), 1, NODES_50K, ("budget", 50001, 0, None, None)),
    ("hub-2003", lambda: _hub(2003, 115), 2, NODES_50K,
     ("budget", 50001, 5, 556,
      "555335565246456233731646443555125335341611643224231216162426"
      "151326354134516615163424135444445562511243135615753526121535"
      "331556425135366251626315321553")),
    ("hub-2005", lambda: _hub(2005, 120), 1, NODES_50K,
     ("budget", 50001, 4, 577,
      "757570773275320503753277555207173127051112305235035375217213"
      "352170035053530507720711052037071275031152331250207735577555"
      "051122501317510537013710237203")),
    ("hub-2005", lambda: _hub(2005, 120), 2, NODES_50K, ("budget", 50001, 0, None, None)),
    ("deep-8", lambda: gen_instance(8, 10, 14, 3, 1, spare=0.4), None, DEEP,
     ("complete", 21642, 6, 11, "1000222222")),
    # Recorded before each depth's cost half was memoized by the slots it
    # reads.  The coarsest graph has wide dependency sets (657 nets with
    # 2,411 pins over 88 hypernodes); on the hop-only instance, drains
    # placed earlier already break the bound at hundreds of depth entries.
    ("coarsest-7000", lambda: _coarsest(7000), 1, NODES_50K,
     ("budget", 50001, 1, 2207,
      "777401730471737211344133007017434020714747132404033004732722"
      "2727174037722013030100302131")),
    ("coarsest-7000", lambda: _coarsest(7000), 2, NODES_50K,
     ("budget", 50001, 1, 2215,
      "707001430221434213347203007730734723714424132434013074432722"
      "1440104017722310131107104731")),
    ("hop-3002", lambda: _hop_only(3002), 1, NODES_50K,
     ("budget", 50001, 3, 286,
      "565666176574555526165551461543311115156173665614744173464347"
      "37343733417131717461")),
    ("hop-3002", lambda: _hop_only(3002), 2, NODES_50K,
     ("budget", 50001, 3, 282,
      "564666176575655466167411464443111155656147661615754133464357"
      "37353733417131767461")),
]


@pytest.mark.parametrize(
    "make, heat_seed, budget, expected",
    [case[1:] for case in PINNED_SEARCHES],
    ids=[f"{case[0]}-heat{case[2]}" for case in PINNED_SEARCHES],
)
def test_pinned_search_results(make, heat_seed, budget, expected):
    b = make()
    hm = compute_hop_matrix(b.topology)
    heats = compute_heats(b.hypergraph, b.topology, hm)
    if heat_seed is not None:
        heats = perturb_heats(heats, heat_seed)
    res = dfs_assign(b.hypergraph, b.topology, hm, budget, heats)
    placement = None if res.placement is None else "".join(map(str, res.placement.original))
    assert (res.status, res.nodes, res.solutions, res.thd, placement) == expected


def _pinned_heats(make, heat_seed):
    """A pinned case's instance, hop matrix and (jittered) heats."""
    b = make()
    hm = compute_hop_matrix(b.topology)
    heats = compute_heats(b.hypergraph, b.topology, hm)
    if heat_seed is not None:
        heats = perturb_heats(heats, heat_seed)
    return b, hm, heats


# Every node cap from 1 to 500 on three of the pinned searches, recorded
# before the search charged dead candidates and dead children in bulk: a
# cap that falls inside a charged run must stop with the same (status,
# nodes, solutions, THD, placement) as a search that counts node by node,
# having computed the same candidate rows.  Each case holds the sha256 of
# those tuples' reprs and that of the row counts' reprs, cap 1 first.
PINNED_SWEEPS = [
    ("unbounded-41", lambda: gen_instance(41, 80, 96, 8, 2, spare=0.4), 1, NODES_50K,
     "c1119decb27d456c12ebc9465408fcab9b3c66810690a7278c167e8ecb540166",
     "87d996baccd0823f008db7db4f59480628a5c08c0457ef45f6096c229b29cacc"),
    ("hub-2005", lambda: _hub(2005, 120), 1, NODES_50K,
     "306989ad21d3342c9d90aada3236c599dbec91349393ce199edd4dc7850dc3c9",
     "7799e82b1fa3aa9475ffb052a607edeb162ee17c6ce339259b927b5bac3fbb88"),
    ("deep-8", lambda: gen_instance(8, 10, 14, 3, 1, spare=0.4), None, DEEP,
     "7ca27627849bb06063a999ef9e375f63d4b4f1d4be0679b40c63e18b9567a2e2",
     "3c631fbc82c6f248597f32730e07092f0d2cacaf15d4ecf923823d22c18d1355"),
]


@pytest.mark.parametrize(
    "make, heat_seed, budget, expected, expected_rows",
    [case[1:] for case in PINNED_SWEEPS],
    ids=[case[0] for case in PINNED_SWEEPS],
)
def test_pinned_node_cap_sweep(make, heat_seed, budget, expected, expected_rows):
    b, hm, heats = _pinned_heats(make, heat_seed)
    digest = hashlib.sha256()
    rows = hashlib.sha256()
    for cap in range(1, 501):
        res = dfs_assign(b.hypergraph, b.topology, hm, replace(budget, max_nodes=cap), heats)
        placement = None if res.placement is None else "".join(map(str, res.placement.original))
        digest.update(repr((res.status, res.nodes, res.solutions, res.thd, placement)).encode())
        rows.update(repr(res.rows).encode())
    assert (digest.hexdigest(), rows.hexdigest()) == (expected, expected_rows)


# Candidate rows three pinned searches compute, counted on the search that
# visited every node: looking a child's row up before entering it computes
# the row of every child that search entered, and no other.
PINNED_ROWS = [
    ("coarsest-7000", lambda: _coarsest(7000), 1, NODES_50K, 1680),
    ("coarsest-7000", lambda: _coarsest(7000), 2, NODES_50K, 942),
    ("deep-8", lambda: gen_instance(8, 10, 14, 3, 1, spare=0.4), None, DEEP, 2265),
]


@pytest.mark.parametrize(
    "make, heat_seed, budget, expected",
    [case[1:] for case in PINNED_ROWS],
    ids=[f"{case[0]}-heat{case[2]}" for case in PINNED_ROWS],
)
def test_pinned_rows_computed(make, heat_seed, budget, expected):
    b, hm, heats = _pinned_heats(make, heat_seed)
    assert dfs_assign(b.hypergraph, b.topology, hm, budget, heats).rows == expected


def test_portfolio_sums_rows():
    b = gen_instance(41, 80, 96, 8, 2, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget(max_nodes=5_000)
    base = compute_heats(b.hypergraph, b.topology, hm)
    solo = [dfs_assign(b.hypergraph, b.topology, hm, budget, perturb_heats(base, s))
            for s in (1, 2)]
    par = parallel_assign(b.hypergraph, b.topology, hm, budget, [1, 2])
    assert par.rows == sum(r.rows for r in solo) > 0
    assert par.nodes == sum(r.nodes for r in solo)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(max_nodes=0), "max_nodes must be at least 1"),
        (dict(max_nodes=-5), "max_nodes must be at least 1"),
        (dict(max_solutions=0), "max_solutions must be at least 1"),
    ],
    ids=["max-nodes-0", "max-nodes-negative", "max-solutions-0"],
)
def test_budget_below_one_rejected(kwargs, message):
    # a search always counts its first node and a solution ends it at the
    # cap, so a cap below one would silently act as one
    with pytest.raises(ValueError, match=message):
        SearchBudget(**kwargs)


def test_returned_placements_validate():
    for seed in range(6):
        b = gen_instance(100 + seed, 14, 24, 4, 2, spare=0.4)
        hm = compute_hop_matrix(b.topology)
        res = dfs_assign(b.hypergraph, b.topology, hm, SearchBudget(max_nodes=15_000))
        if res.placement is not None:
            assert validate(b.hypergraph, b.topology, res.placement, hm) == []


def test_parallel_single_seed_equals_dfs():
    b = gen_instance(5, 12, 18, 3, 1, spare=0.5)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget()
    heats = perturb_heats(compute_heats(b.hypergraph, b.topology, hm), 77)
    solo = dfs_assign(b.hypergraph, b.topology, hm, budget, heats)
    par = parallel_assign(b.hypergraph, b.topology, hm, budget, [77])
    assert par.thd == solo.thd
    assert par.placement == solo.placement


def test_parallel_picks_strictly_better():
    b = gen_instance(8, 14, 22, 3, 1, spare=0.5)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget(max_nodes=15_000)
    results = {
        s: dfs_assign(
            b.hypergraph, b.topology, hm, budget,
            perturb_heats(compute_heats(b.hypergraph, b.topology, hm), s),
        )
        for s in (1, 2, 3, 4)
    }
    par = parallel_assign(b.hypergraph, b.topology, hm, budget, [1, 2, 3, 4])
    assert par.thd == min(r.thd for r in results.values())


def test_parallel_tie_breaks_to_lower_seed():
    # a symmetric trivial instance: every seed finds the same THD
    h = Hypergraph.build([[1]], [])
    t = path_topology(2, cap=2)
    hm = compute_hop_matrix(t)
    par = parallel_assign(h, t, hm, SearchBudget(), [9, 4])
    solo = dfs_assign(h, t, hm, SearchBudget(),
                      perturb_heats(compute_heats(h, t, hm), 4))
    assert par.placement == solo.placement


def test_perturb_variants():
    b = gen_instance(2, 10, 15, 3, 1)
    hm = compute_hop_matrix(b.topology)
    base = compute_heats(b.hypergraph, b.topology, hm)
    nodes = perturb_heats(base, 5)
    assert nodes.fpga_heat == base.fpga_heat
    assert nodes.node_heat != base.node_heat


def test_deterministic_dfs():
    b = gen_instance(12, 16, 28, 4, 2, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    r1 = dfs_assign(b.hypergraph, b.topology, hm, SearchBudget(max_nodes=15_000))
    r2 = dfs_assign(b.hypergraph, b.topology, hm, SearchBudget(max_nodes=15_000))
    assert r1.placement == r2.placement
    assert r1.nodes == r2.nodes


def test_time_limit_read_every_thousand_nodes(monkeypatch):
    # a clock that advances 1 s per read from t=1: the first check, at
    # node 1000, already sees the deadline t=0.5 passed
    reads = []

    def monotonic():
        reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(assign, "time", SimpleNamespace(monotonic=monotonic))
    b = gen_instance(41, 80, 96, 8, 2, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget(max_solutions=None, max_nodes=None)
    res = dfs_assign(b.hypergraph, b.topology, hm, budget, deadline=0.5)
    assert (res.status, res.nodes) == ("budget", 1000)
    assert len(reads) == 1


def test_time_limit_stops_at_the_multiple_it_was_read_at(monkeypatch):
    # a clock at t=0 on its first read and t=1 on its second: the deadline
    # t=0.5 is seen at the second multiple of 1000, and the search stops
    # there even when a scan charged nodes past it
    reads = []

    def monotonic():
        reads.append(None)
        return float(len(reads) - 1)

    monkeypatch.setattr(assign, "time", SimpleNamespace(monotonic=monotonic))
    b = gen_instance(41, 80, 96, 8, 2, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget(max_solutions=None, max_nodes=None)
    res = dfs_assign(b.hypergraph, b.topology, hm, budget, deadline=0.5)
    assert (res.status, res.nodes) == ("budget", 2000)
    assert len(reads) == 2

def test_portfolio_shares_one_time_limit(monkeypatch):
    # the same 1 s-per-read clock: the first search stops at its first
    # check, and the deadline has passed before a second search could
    # start, so four seeds run the nodes of one
    reads = []

    def monotonic():
        reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(assign, "time", SimpleNamespace(monotonic=monotonic))
    b = gen_instance(41, 80, 96, 8, 2, spare=0.4)
    hm = compute_hop_matrix(b.topology)
    budget = SearchBudget(max_solutions=None, max_nodes=None)
    res = parallel_assign(b.hypergraph, b.topology, hm, budget, [11, 12, 13, 14], deadline=0.5)
    assert (res.status, res.nodes) == ("budget", 1000)
