import math
import random

import numpy as np
import pytest

from mfspart.coarsen import (
    CoarseningConfig,
    alpha_at_level,
    best_partner,
    build_hierarchy,
    coarsen_level,
    heavy_node_penalty,
)
from mfspart.io import gen_instance
from mfspart.model import Hyperedge, Hypergraph, ResourceVector
from mfspart.seeds import TAG_COARSEN, sub_seed
from mfspart.topology import MfsTopology, mean_capacity

from conftest import path_topology


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alpha0": math.nan}, "alpha0 must be finite and positive"),
        ({"alpha0": math.inf}, "alpha0 must be finite and positive"),
        ({"dalpha": math.nan}, "dalpha must be finite and non-negative"),
        ({"dalpha": math.inf}, "dalpha must be finite and non-negative"),
    ],
    ids=["alpha0-nan", "alpha0-inf", "dalpha-nan", "dalpha-inf"],
)
def test_config_rejects_non_finite_alpha(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CoarseningConfig(n_final=128, **kwargs)


def _caps(t):
    mean_caps = [float(c) for c in mean_capacity(t)]
    return mean_caps, [max(c[i] for c in t.capacities) for i in range(t.num_resource_types)]


def _partner(h, u, t=None, match=None):
    t = t or path_topology(2, cap=100)
    match = match or [-1] * h.num_vertices
    return best_partner(h, u, match, 1.0, *_caps(t))


def test_best_partner_needs_a_shared_free_neighbour():
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1]), (1, 2, [3])])
    assert _partner(h, 0) == 1
    assert _partner(h, 0, match=[-1, 3, -1, 1]) == -1  # 2 and 3 share no net with 0


# a net's share of a pair's score is w_e / (|e| - 1); the pairs below tie
# at equal scores, so the lower id wins and a miscounted share would not


def test_best_partner_net_share_is_weight_over_pins_minus_one():
    # a 3-pin net of weight 2 and a 2-pin net of weight 1 both give 1.0
    first = Hypergraph.build([[0]] * 4, [(2, 0, [1, 2]), (1, 0, [3])])
    last = Hypergraph.build([[0]] * 4, [(1, 0, [1]), (2, 0, [2, 3])])
    assert _partner(first, 0) == 1
    assert _partner(last, 0) == 1


def test_best_partner_scores_sum_over_shared_nets():
    # a 2-pin net of weight 1 plus a 4-pin net of weight 3 give 2.0, as
    # does a 2-pin net of weight 2
    summed_first = Hypergraph.build([[0]] * 5, [(1, 0, [1]), (3, 0, [1, 3, 4]), (2, 0, [2])])
    summed_last = Hypergraph.build([[0]] * 5, [(2, 0, [1]), (1, 0, [2]), (3, 0, [2, 3, 4])])
    assert _partner(summed_first, 0) == 1
    assert _partner(summed_last, 0) == 1


def test_heavy_node_penalty_zero_weight():
    z = ResourceVector([0])
    assert heavy_node_penalty(z, z, 1.0, (10.0,)) == 0.0


def test_heavy_node_penalty_unit():
    w = ResourceVector([10])
    assert heavy_node_penalty(w, w, 1.0, (10.0,)) == pytest.approx(1.0)
    assert heavy_node_penalty(w, w, 2.0, (10.0,)) == pytest.approx(1.0)


def test_alpha_at_level_zero_is_alpha0():
    cfg = CoarseningConfig(alpha0=0.5, dalpha=3.0, n_final=128)
    assert alpha_at_level(cfg, 2047, 0) == 0.5


def test_alpha_at_level_hand_value():
    # ln(2048/128) = ln 16 = 4 ln 2, so level 4 lands exactly on the cap
    cfg = CoarseningConfig(alpha0=0.5, dalpha=3.0, n_final=128)
    assert alpha_at_level(cfg, 2047, 4) == pytest.approx(3.5)


def test_alpha_clamped():
    cfg = CoarseningConfig(alpha0=0.5, dalpha=3.0, n_final=128)
    assert alpha_at_level(cfg, 2047, 40) == pytest.approx(3.5)


def test_alpha_monotone_in_level():
    cfg = CoarseningConfig(alpha0=0.7, dalpha=2.0, n_final=64)
    vals = [alpha_at_level(cfg, 1000, l) for l in range(10)]
    assert vals == sorted(vals)
    assert vals[0] == 0.7


def test_alpha_degenerate_rejected():
    cfg = CoarseningConfig(n_final=128)
    with pytest.raises(ValueError, match="degenerate"):
        alpha_at_level(cfg, 100, 1)


def test_best_partner_ranks_zero_penalty_first_then_score_over_penalty():
    t = path_topology(2, cap=20)  # mean and largest capacity 20
    # vertex 0 weighs 10.  Vertex 1: r = 2, p = 10*10/20^2 = 0.25, r/p = 8.
    # Vertex 2: r = 1, p = 10*2/20^2 = 0.05, r/p = 20.  Vertex 3: r = 5 but
    # 10 + 15 exceeds the capacity.  Vertex 4: r = 1, weightless, p = 0.
    h = Hypergraph.build(
        [[10], [10], [2], [15], [0]],
        [(2, 0, [1]), (1, 0, [2]), (5, 0, [3]), (1, 4, [0])],
    )
    assert _partner(h, 0, t) == 4
    assert _partner(h, 0, t, match=[-1, -1, -1, -1, 0]) == 2
    assert _partner(h, 0, t, match=[-1, -1, 0, -1, 0]) == 1
    assert _partner(h, 0, t, match=[-1, 0, 0, -1, 0]) == -1


def test_best_partner_zero_penalty_pairs_by_score():
    # both merges cost no balance; the higher score wins, at the higher id
    h = Hypergraph.build([[0], [5], [5]], [(1, 0, [1]), (2, 0, [2])])
    assert _partner(h, 0) == 2
    assert _partner(h, 0, match=[-1, -1, 0]) == 1


def test_best_partner_matches_brute_force_on_random_states():
    rng = random.Random(5)
    b = gen_instance(9, 20, 30, 3, 2, spare=0.5)
    caps = _caps(b.topology)
    for _ in range(30):
        match = [rng.choice([-1, -1, 0]) for _ in range(20)]
        u = rng.randrange(20)
        assert best_partner(b.hypergraph, u, match, 1.7, *caps) == _brute_force_partner(
            b.hypergraph, u, match, 1.7, *caps
        )


def _clique_edges(members, offset):
    out = []
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            out.append((1, u, [v]))
    return out


def test_no_cross_clique_merges():
    edges = _clique_edges([0, 1, 2, 3], 0) + _clique_edges([4, 5, 6, 7], 0)
    h = Hypergraph.build([[1]] * 8, edges)
    t = path_topology(2, cap=100)
    cfg = CoarseningConfig(n_final=2, seed=13)
    lv = coarsen_level(h, t, cfg, 0, n_init=8)
    groups = {}
    for v, c in enumerate(lv.mapping):
        groups.setdefault(c, []).append(v)
    for members in groups.values():
        assert all(m < 4 for m in members) or all(m >= 4 for m in members)


def test_overweight_pair_never_merges():
    h = Hypergraph.build([[60], [60], [1]], [(5, 0, [1]), (1, 1, [2])])
    t = path_topology(2, cap=100)  # max capacity 100 < 120
    cfg = CoarseningConfig(n_final=1, seed=0)
    lv = coarsen_level(h, t, cfg, 0, n_init=3)
    assert lv.mapping[0] != lv.mapping[1]


def test_coarsen_deterministic_per_seed():
    b = gen_instance(21, 60, 90, 4, 2)
    t = b.topology
    cfg = CoarseningConfig(n_final=8, seed=99)
    lv1 = coarsen_level(b.hypergraph, t, cfg, 0)
    lv2 = coarsen_level(b.hypergraph, t, cfg, 0)
    assert lv1.mapping == lv2.mapping
    cfg2 = CoarseningConfig(n_final=8, seed=100)
    lv3 = coarsen_level(b.hypergraph, t, cfg2, 0)
    # different seed is allowed to differ; only require validity
    assert len(lv3.mapping) == b.hypergraph.num_vertices


def test_single_pin_edges_removed_and_parallel_merged():
    h = Hypergraph.build(
        [[1]] * 4,
        [(2, 0, [1]), (3, 0, [1]), (1, 0, [1, 2]), (1, 2, [3])],
    )
    t = path_topology(2, cap=100)
    cfg = CoarseningConfig(n_final=2, seed=1)
    lv = coarsen_level(h, t, cfg, 0, n_init=4)
    ch = lv.hypergraph
    # whichever pair merged, no edge may have an empty drain set and no
    # two edges may share (source, drains)
    keys = [(e.source, e.drains) for e in ch.edges]
    assert len(keys) == len(set(keys))
    for e in ch.edges:
        assert e.drains
    _assert_contracted(h, lv)


def test_weight_conservation_and_composition():
    b = gen_instance(31, 200, 320, 4, 2)
    cfg = CoarseningConfig(n_final=24, seed=5)
    levels = build_hierarchy(b.hypergraph, b.topology, cfg)
    assert levels, "expected at least one level"
    total = b.hypergraph.total_weight().values
    cur = b.hypergraph
    for lv in levels:
        assert lv.hypergraph.total_weight().values == total
        assert len(lv.mapping) == cur.num_vertices
        assert max(lv.mapping) == lv.hypergraph.num_vertices - 1
        cur = lv.hypergraph
    comp = list(range(b.hypergraph.num_vertices))
    for lv in levels:
        comp = [lv.mapping[c] for c in comp]
    # each coarsest vertex weighs what the original vertices mapped to it do
    coarsest = levels[-1].hypergraph
    sums = [[0] * len(total) for _ in range(coarsest.num_vertices)]
    for v, c in enumerate(comp):
        sums[c] = [a + w for a, w in zip(sums[c], b.hypergraph.vertices[v].weight)]
    assert sums == [list(x.weight.values) for x in coarsest.vertices]


def test_hierarchy_empty_for_small_graph():
    b = gen_instance(1, 10, 12, 2, 1)
    cfg = CoarseningConfig(n_final=128)
    assert build_hierarchy(b.hypergraph, b.topology, cfg) == []


def test_level_count_bound():
    b = gen_instance(17, 400, 600, 4, 1)
    cfg = CoarseningConfig(n_final=32, seed=2, min_reduction=0.95)
    levels = build_hierarchy(b.hypergraph, b.topology, cfg)
    bound = math.ceil(math.log(400 / 32) / math.log(1 / 0.95))
    assert len(levels) <= bound


def test_alpha_sequence_nondecreasing_across_hierarchy():
    cfg = CoarseningConfig(alpha0=0.5, dalpha=3.0, n_final=16)
    vals = [alpha_at_level(cfg, 500, l) for l in range(6)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_edge_weight_scaling_keeps_matching():
    b = gen_instance(41, 80, 120, 3, 2)
    h = b.hypergraph
    scaled = Hypergraph.build(
        [v.weight.values for v in h.vertices],
        [(e.weight * 7, e.source, e.drains) for e in h.edges],
    )
    cfg = CoarseningConfig(n_final=8, seed=3)
    lv1 = coarsen_level(h, b.topology, cfg, 0)
    lv2 = coarsen_level(scaled, b.topology, cfg, 0)
    assert lv1.mapping == lv2.mapping


def test_zero_mean_capacity_rejected():
    h = Hypergraph.build([[1, 1]] * 200, [(1, 0, [1])])
    caps = [ResourceVector([50, 0])] * 2
    t = MfsTopology(caps, [(0, 1)])
    with pytest.raises(ValueError, match="zero mean capacity"):
        build_hierarchy(h, t, CoarseningConfig(n_final=16))


def _brute_force_partner(h, u, match, alpha, mean_caps, max_caps):
    """The documented partner rule written out pair by pair: score a free
    pair by its shared nets, w / (|e| - 1) summed in ascending net id;
    skip pairs over the largest per-type capacity; rank zero-penalty pairs
    first by score, the rest by score over penalty, ties to the lower id."""
    nets_u = set(h.incidence[u])
    wu = h.vertices[u].weight
    best, best_v = None, -1
    for v in range(h.num_vertices):
        shared = sorted(nets_u & set(h.incidence[v]))
        if v == u or match[v] != -1 or not shared:
            continue
        wv = h.vertices[v].weight
        if any(wu[i] + wv[i] > max_caps[i] for i in range(len(wu))):
            continue
        r = 0.0
        for e in shared:
            r += h.edges[e].weight / (len(h.edges[e]) - 1)
        p = heavy_node_penalty(wu, wv, alpha, mean_caps)
        key = (True, r) if p == 0.0 else (False, r / p)
        if best is None or key > best:
            best, best_v = key, v
    return best_v


def _brute_force_mapping(h, t, cfg, level, n_init):
    """Visit in the seeded shuffle, match each free vertex to its brute
    force partner, and number coarse vertices in fine-id order."""
    n = h.num_vertices
    alpha = alpha_at_level(cfg, n_init, level, n_final=cfg.resolved_n_final(t.k_fpgas))
    order = list(range(n))
    random.Random(sub_seed(cfg.seed, TAG_COARSEN, level)).shuffle(order)
    match = [-1] * n
    for u in order:
        if match[u] == -1:
            v = _brute_force_partner(h, u, match, alpha, *_caps(t))
            if v >= 0:
                match[u], match[v] = v, u
    mapping = [-1] * n
    next_id = 0
    for v in range(n):
        if mapping[v] == -1:
            mapping[v] = next_id
            if match[v] != -1:
                mapping[match[v]] = next_id
            next_id += 1
    return mapping


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
@pytest.mark.parametrize("seed", range(6))
def test_hierarchy_matches_brute_force_rule(seed, deep):
    # deep: every fifth vertex weightless, so zero-penalty pairs compete,
    # and coarsening down to 2, so late merges meet the capacity filter
    b = gen_instance(seed, 300, 360, 4, 2, spare=0.4)
    h = b.hypergraph
    if deep:
        h = Hypergraph.build(
            [[0, 0] if v % 5 == 0 else x.weight.values for v, x in enumerate(h.vertices)],
            [(e.weight, e.source, e.drains) for e in h.edges],
        )
    cfg = CoarseningConfig(n_final=2 if deep else 32, seed=seed)
    levels = build_hierarchy(h, b.topology, cfg)
    assert len(levels) >= 3
    cur = h
    for lv in levels:
        assert lv.mapping == _brute_force_mapping(cur, b.topology, cfg, lv.index, h.num_vertices)
        cur = lv.hypergraph


def _dict_contraction(h, mapping):
    """The coarse graph of `mapping`, contracted with objects and a dict:
    coarse vertex weights summed per type, and per net its mapped source
    and its sorted distinct mapped drains without the source, a net with
    no drain left dropped and parallel nets merged in first-appearance
    order with summed weights.  Returns (vertex weight rows, [(weight,
    source, drains)])."""
    coarse_w = [[0] * h.num_resource_types for _ in range(max(mapping) + 1)]
    for v, c in enumerate(mapping):
        for i, x in enumerate(h.vertices[v].weight.values):
            coarse_w[c][i] += x
    merged = {}
    for e in h.edges:
        src = mapping[e.source]
        drains = tuple(sorted({mapping[d] for d in e.drains} - {src}))
        if drains:
            merged[src, drains] = merged.get((src, drains), 0) + e.weight
    return coarse_w, [(w, src, drains) for (src, drains), w in merged.items()]


def _assert_contracted(fine, lv):
    """The level's coarse graph is the dict contraction of its mapping,
    in its arrays and in its object views."""
    weights, edges = _dict_contraction(fine, lv.mapping)
    g = lv.hypergraph
    assert g.weight_matrix().tolist() == weights
    assert [(e.weight, e.source, e.drains) for e in g.edges] == edges
    assert g.weight.tolist() == [w for w, _, _ in edges]
    assert g.pins.tolist() == [x for _, s, ds in edges for x in (s, *ds)]
    assert np.diff(g.pin_ptr).tolist() == [1 + len(ds) for _, _, ds in edges]


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
@pytest.mark.parametrize("seed", range(6))
def test_contraction_matches_the_dict_reference(seed, deep):
    # the instances of test_hierarchy_matches_brute_force_rule
    b = gen_instance(seed, 300, 360, 4, 2, spare=0.4)
    h = b.hypergraph
    if deep:
        h = Hypergraph.build(
            [[0, 0] if v % 5 == 0 else x.weight.values for v, x in enumerate(h.vertices)],
            [(e.weight, e.source, e.drains) for e in h.edges],
        )
    cfg = CoarseningConfig(n_final=2 if deep else 32, seed=seed)
    levels = build_hierarchy(h, b.topology, cfg)
    assert len(levels) >= 3
    cur = h
    for lv in levels:
        _assert_contracted(cur, lv)
        cur = lv.hypergraph


def test_contraction_merges_parallel_nets_in_first_appearance_order():
    # three weight-10 nets pair 0-3, 1-4 and 2-5 whatever the visit order,
    # and collapse to one pin each; nets 5 and 7 merge into nets 3 and 4,
    # which come before net 6 whose source and drains sort first; net 6's
    # drains map in descending order, and net 8 loses a drain to its source
    h = Hypergraph.build(
        [[1]] * 6,
        [(10, 0, [3]), (10, 1, [4]), (10, 2, [5]), (1, 2, [4]), (1, 1, [0, 5]),
         (2, 5, [1]), (1, 3, [5, 4]), (1, 4, [2, 3]), (1, 0, [3, 4])],
    )
    lv = coarsen_level(h, path_topology(2, cap=100), CoarseningConfig(n_final=2, seed=1), 0)
    assert lv.mapping == [0, 1, 2, 0, 1, 2]
    _assert_contracted(h, lv)
    assert [(e.weight, e.source, e.drains) for e in lv.hypergraph.edges] == [
        (3, 2, (1,)), (2, 1, (0, 2)), (1, 0, (1, 2)), (1, 0, (1,)),
    ]
    assert lv.hypergraph.weight_matrix().tolist() == [[2], [2], [2]]


def test_coarse_graph_object_views_rebuild_the_same_graph():
    # the views of a coarse graph, built from its arrays, give back the
    # same arrays through the checked constructor (the lean 600-vertex
    # instance of tests/test_cli.py, coarsened as run_pipeline does)
    b = gen_instance(3000, 600, 720, 8, 2, spare=0.4)
    levels = build_hierarchy(b.hypergraph, b.topology, CoarseningConfig(seed=sub_seed(1, TAG_COARSEN)))
    assert len(levels) == 3
    for lv in levels:
        g = lv.hypergraph
        rebuilt = Hypergraph(g.vertices, g.edges)
        for name in ("pin_ptr", "pins", "source", "weight", "inc_ptr", "inc"):
            a, r = getattr(g, name), getattr(rebuilt, name)
            assert a.dtype == r.dtype and a.tolist() == r.tolist(), name
        assert rebuilt.weight_matrix().tolist() == g.weight_matrix().tolist()
        assert rebuilt.incidence == g.incidence
        assert [v.weight for v in rebuilt.vertices] == [v.weight for v in g.vertices]


def test_no_ranking_pass_on_an_empty_vertex_set(monkeypatch):
    # one net spans every vertex, so each vertex's ranking rows are over
    # 600 and a chunk holds a few vertices; late in the visit order every
    # vertex of a chunk is often matched already, and such a chunk is
    # skipped, not ranked over no vertex
    import mfspart.coarsen as coarsen

    b = gen_instance(5, 600, 720, 8, 2, spare=0.4)
    h = b.hypergraph
    h = Hypergraph(h.vertices, [*h.edges, Hyperedge(h.num_edges, 1, 0, range(1, 600))])
    sizes = []
    ranked = coarsen._ranked

    def recording(g, us, *args):
        sizes.append(len(us))
        return ranked(g, us, *args)

    monkeypatch.setattr(coarsen, "_ranked", recording)
    levels = build_hierarchy(h, b.topology, CoarseningConfig(seed=1))
    assert len(levels) == 3 and len(sizes) > 100
    assert min(sizes) > 0
