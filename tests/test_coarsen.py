import math
import random

import pytest

from mfspart.coarsen import (
    CoarseningConfig,
    alpha_at_level,
    build_hierarchy,
    coarsen_level,
    compose_mappings,
    heavy_edge_score,
    heavy_node_penalty,
    rating,
)
from mfspart.io import gen_instance
from mfspart.model import Hypergraph, ResourceVector
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


def test_heavy_edge_score_no_shared():
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1]), (1, 2, [3])])
    assert heavy_edge_score(h, 0, 2) == 0.0


def test_heavy_edge_score_single_shared():
    h = Hypergraph.build([[1]] * 3, [(2, 0, [1, 2])])
    assert heavy_edge_score(h, 0, 1) == 1.0


def test_heavy_edge_score_two_shared():
    h = Hypergraph.build(
        [[1]] * 4,
        [(1, 0, [1]), (3, 0, [1, 2, 3])],
    )
    assert heavy_edge_score(h, 0, 1) == 1.0 + 1.0


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


def test_rating_basic_and_infinite():
    h = Hypergraph.build([[10], [10], [0], [0]], [(2, 0, [1]), (1, 2, [3])])
    t = path_topology(2, cap=10)
    caps = [float(c) for c in mean_capacity(t)]
    # r = 2, p = (10*10/100)^1 = 1
    assert rating(h, 0, 1, 1.0, caps) == pytest.approx(2.0)
    assert rating(h, 2, 3, 1.0, caps) == math.inf
    # random pairs match an independent recomputation
    rng = random.Random(5)
    b = gen_instance(9, 20, 30, 3, 2, spare=0.5)
    caps2 = [float(c) for c in mean_capacity(b.topology)]
    for _ in range(30):
        u, v = rng.sample(range(20), 2)
        r = heavy_edge_score(b.hypergraph, u, v)
        p = heavy_node_penalty(
            b.hypergraph.vertices[u].weight, b.hypergraph.vertices[v].weight, 1.7, caps2
        )
        expect = math.inf if p == 0 else r / p
        assert rating(b.hypergraph, u, v, 1.7, caps2) == pytest.approx(expect)


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
    comp = compose_mappings(levels)
    assert len(comp) == b.hypergraph.num_vertices
    step = list(range(b.hypergraph.num_vertices))
    for lv in levels:
        step = [lv.mapping[c] for c in step]
    assert comp == step


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
