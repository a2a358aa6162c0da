import copy
import gc
import random
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from mfspart._exchange import FAR, NONE, OUT, ExchangeTable
from mfspart.cli import run_pipeline
from mfspart.coarsen import CoarseningConfig, Level, build_hierarchy
from mfspart.io import gen_instance
from mfspart.metrics import report, total_hop_distance, validate
from mfspart.model import Hypergraph, Placement, ResourceVector
from mfspart.oracle import apply_op, best_single_replication, full_gain_recompute
from mfspart.refine import (
    ALL_OPS,
    FPGA_KINDS,
    KIND_RANK,
    Op,
    RefineState,
    gain_delete,
    gain_exchange,
    gain_move,
    gain_replicate,
    project_to_finer,
    refine_level,
    run_refine_loop,
)
from mfspart.topology import MfsTopology, compute_hop_matrix

from conftest import (
    bank_snapshot,
    bounded_state,
    check_bank_after_every_attempt,
    fanout_story,
    fresh_bank,
    pair_corrections,
    path_topology,
    reference_corr_term,
    random_feasible_state,
    shaken_bounded_state,
    tight_state,
)


def _random_replicated_state(seed, n=10, m=18, k=4):
    rng = random.Random(seed)
    b = gen_instance(seed, n, m, k, 1, spare=1.5)
    hm = compute_hop_matrix(b.topology)
    orig = [rng.randrange(k) for _ in range(n)]
    reps = []
    for v in range(n):
        pool = [f for f in range(k) if f != orig[v]]
        reps.append(set(rng.sample(pool, rng.randrange(0, 2))))
    return b.hypergraph, b.topology, hm, Placement(orig, reps)


# -- pure gain functions -------------------------------------------------


def test_gain_move_isolated_vertex():
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])] )
    h_iso = Hypergraph.build([[1]] * 3, [(1, 1, [2])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1, 1])
    assert gain_move(h_iso, p, hm, 0, 2) == 0


def test_gain_move_pull_drain_to_source():
    h = Hypergraph.build([[1], [1]], [(4, 0, [1])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    assert gain_move(h, p, hm, 1, 0) == 4
    assert gain_move(h, p, hm, 1, 2) == -4


def test_gain_move_rejects_noop_destination():
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    hm = compute_hop_matrix(path_topology(2))
    with pytest.raises(ValueError):
        gain_move(h, Placement([0, 1]), hm, 1, 1)


def test_gain_exchange_disjoint_sums_moves():
    h = Hypergraph.build([[1]] * 4, [(2, 0, [1]), (3, 2, [3])])
    t = path_topology(2, cap=100)
    hm = compute_hop_matrix(t)
    p = Placement([0, 0, 1, 1])
    # vertices 1 and 2 share no net and sit on different FPGAs
    expect = gain_move(h, p, hm, 1, 1) + gain_move(h, p, hm, 2, 0)
    assert gain_exchange(h, p, hm, 1, 2) == expect
    op = Op("exchange", 1, 1, 2, 0)
    assert gain_exchange(h, p, hm, 1, 2) == full_gain_recompute(h, p, hm, op)


def test_gain_exchange_shared_net_matches_recompute():
    h = Hypergraph.build([[1]] * 3, [(2, 0, [1, 2]), (1, 1, [2])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1, 2])
    op = Op("exchange", 1, 2, 2, 1)
    assert gain_exchange(h, p, hm, 1, 2) == full_gain_recompute(h, p, hm, op)


def test_gain_exchange_symmetric_twins_zero():
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    t = path_topology(2)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    assert gain_exchange(h, p, hm, 0, 1) == 0


def test_gain_replicate_fanout_story():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    assert gain_replicate(h, p, hm, 1, 2) == 2


def test_gain_replicate_no_out_nets_never_positive():
    for seed in range(8):
        h, t, hm, p = _random_replicated_state(seed)
        for v in range(h.num_vertices):
            if any(h.edges[e].source == v for e in h.incidence[v]):
                continue
            for f in range(t.k_fpgas):
                if f in p.hosts(v):
                    continue
                assert gain_replicate(h, p, hm, v, f) <= 0


def test_gain_replicate_onto_consumer_fpga_nonnegative():
    # all of v's consumers and its input's source sit on FPGA 2
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1]), (2, 1, [2])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([2, 0, 2])
    assert gain_replicate(h, p, hm, 1, 2) >= 0


def test_gain_delete_is_inverse_of_replicate():
    for seed in range(8):
        h, t, hm, p = _random_replicated_state(seed)
        rng = random.Random(seed + 1)
        v = rng.randrange(h.num_vertices)
        cand = [f for f in range(t.k_fpgas) if f not in p.hosts(v)]
        if not cand:
            continue
        f = cand[0]
        g_rep = gain_replicate(h, p, hm, v, f)
        q = p.copy()
        q.add_replica(v, f)
        assert gain_delete(h, q, hm, v, f) == -g_rep


def test_gain_delete_unused_replica_nonnegative():
    # replica on FPGA 0 serves nothing and receives an input signal
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    p = Placement([1, 1], [set(), {0}])  # vertex 1 replicated onto 0
    assert gain_delete(h, p, hm, 1, 0) >= 0


def test_gain_delete_requires_replica():
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    hm = compute_hop_matrix(path_topology(2))
    with pytest.raises(ValueError):
        gain_delete(h, Placement([0, 1]), hm, 1, 1)


# -- entry exactness (the module's central property) ---------------------


def _all_entry_gains_match(state, h, hm):
    for op in state.entries():
        expected = full_gain_recompute(h, state.p, hm, op)
        if op.gain != expected:
            return False, op, expected
    return True, None, None


def test_bank_gains_exact_over_random_walks():
    for seed in range(6):
        h, t, hm, p = _random_replicated_state(seed, n=12, m=20, k=3)
        state = RefineState(h, t, hm, p)
        rng = random.Random(seed * 17 + 1)
        for step in range(12):
            ok, op, expected = _all_entry_gains_match(state, h, hm)
            assert ok, f"seed {seed} step {step}: {op} expected {expected}"
            entries = list(state.entries())
            rng.shuffle(entries)
            for op in entries:
                if state.try_apply(op.kind, op.v, op.dest) is not None:
                    break
            else:
                break


def test_bank_equals_fresh_bank_over_random_walks():
    # a stale cached pair correction can pick the wrong best partner while
    # every stored gain still matches its own op, so compare whole banks
    applied = rejected = 0
    for seed in range(8):
        h, t, hm, p = tight_state(seed)
        state = RefineState(h, t, hm, p)
        rng = random.Random(seed)
        for step in range(20):
            entries = list(state.entries())
            rng.shuffle(entries)
            for op in entries:
                if state.try_apply(op.kind, op.v, op.dest) is not None:
                    applied += 1
                    assert bank_snapshot(state) == fresh_bank(state), (
                        f"seed {seed} step {step} after {state.applied[-1]}"
                    )
                    break
                rejected += 1
            else:
                break
    assert applied >= 100 and rejected >= 100


def test_loop_bank_equals_fresh_bank_after_each_op():
    # an entry try_apply rejects on I/O or hop grounds stays in the bank,
    # shelved, so the bank is a fresh one after every attempt; the bounded
    # seeds make the loop meet such rejections
    counts = Counter()
    cases = [tight_state(seed, n=20, m=36) for seed in range(6)]
    cases += [shaken_bounded_state(seed) for seed in (9, 19, 42, 65)]
    for args in cases:
        state = RefineState(*args)
        seen = check_bank_after_every_attempt(state)
        run_refine_loop(state)
        assert seen["applied"] == len(state.applied)
        counts += seen
    assert counts["applied"] >= 10
    assert counts["rejected"] >= 5


def test_state_counters_match_metrics_after_walk():
    for seed in range(5):
        h, t, hm, p = _random_replicated_state(seed, n=12, m=22, k=3)
        state = RefineState(h, t, hm, p)
        rng = random.Random(seed)
        for _ in range(15):
            entries = list(state.entries())
            rng.shuffle(entries)
            for op in entries:
                if state.try_apply(op.kind, op.v, op.dest) is not None:
                    break
        rep = report(h, t, state.p, hm)
        assert state.thd == rep.total_hop_distance
        assert state.io == rep.fpga_io
        assert [tuple(u) for u in state.usage] == [u.values for u in rep.fpga_usage]


def test_boundary_sufficiency():
    for seed in range(6):
        h, t, hm, p = _random_replicated_state(seed)
        for v in range(h.num_vertices):
            spans = False
            for e in h.incidence[v]:
                hosts = set()
                for m in h.edges[e].members:
                    hosts |= p.hosts(m)
                if len(hosts) >= 2:
                    spans = True
                    break
            if spans:
                continue
            for f in range(t.k_fpgas):
                if f != p.original[v]:
                    assert gain_move(h, p, hm, v, f) <= 0


# -- refine_level behaviour ----------------------------------------------


def test_refine_fixed_point_unchanged():
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    t = path_topology(2, cap=1)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    out = refine_level(h, p, t, hm)
    assert out == p


def test_refine_applies_fanout_replication():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    before = total_hop_distance(h, p, hm)
    ops_seen = []
    out = refine_level(h, p, t, hm, observer=lambda op, pl, thd: ops_seen.append(op))
    after = total_hop_distance(h, out, hm)
    assert before - after >= 2
    assert any(op.kind == "replicate" and op.v == 1 and op.dest == 2 for op in ops_seen)


def test_delete_unblocks_replicate_on_saturated_fpga():
    # both FPGAs are exactly full, so no move fits anywhere; the zero-gain
    # delete of a useless replica must run first to make room for the
    # profitable replicate of the fanout source
    h = Hypergraph.build(
        [[1], [1], [1], [1], [1], [1]],
        [(1, 0, [1]), (1, 0, [2]), (1, 0, [3]), (1, 0, [5])],
    )
    caps = [ResourceVector([3]), ResourceVector([4])]
    t = MfsTopology(caps, [(0, 1)])
    hm = compute_hop_matrix(t)
    # vertex 4 is isolated with a useless replica filling FPGA 1; vertex 5
    # is a local consumer keeping the source tied to FPGA 0
    p = Placement([0, 1, 1, 1, 0, 0], [set(), set(), set(), set(), {1}, set()])
    assert validate(h, t, p, hm) == []
    ops_seen = []
    out = refine_level(h, p, t, hm, ops=("move", "replicate", "delete"),
                       observer=lambda op, pl, thd: ops_seen.append(op))
    kinds = [op.kind for op in ops_seen]
    assert "delete" in kinds and "replicate" in kinds
    assert kinds.index("delete") < kinds.index("replicate")
    assert total_hop_distance(h, out, hm) == 0


def test_refine_monotone_and_valid_throughout():
    for seed in range(5):
        b = gen_instance(seed + 50, 20, 36, 4, 2, spare=0.5)
        hm = compute_hop_matrix(b.topology)
        from mfspart.assign import SearchBudget, dfs_assign

        res = dfs_assign(b.hypergraph, b.topology, hm, SearchBudget(max_nodes=10_000))
        assert res.placement is not None
        thds = [total_hop_distance(b.hypergraph, res.placement, hm)]
        states_valid = []

        def watch(op, pl, thd):
            thds.append(thd)
            states_valid.append(validate(b.hypergraph, b.topology, pl, hm) == [])

        refine_level(b.hypergraph, res.placement, b.topology, hm, observer=watch)
        assert all(a >= b2 for a, b2 in zip(thds, thds[1:]))
        assert all(states_valid)


def test_refine_level_past_deadline_applies_nothing():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    seen = []
    # without a deadline this level applies ops (see the fanout test above)
    out = refine_level(h, p, t, hm, deadline=time.monotonic() - 1.0,
                       observer=lambda op, pl, thd: seen.append(op))
    assert seen == [] and out == p


def test_past_deadline_leaves_bank_empty():
    h, t, hm, p = tight_state(2, n=20, m=36)
    assert list(RefineState(h, t, hm, p).entries())
    state = RefineState(h, t, hm, p, deadline=time.monotonic() - 1.0)
    assert list(state.entries()) == []
    # the counters are still exact; only the bank build is skipped
    assert state.thd == total_hop_distance(h, p, hm)
    assert state.io == report(h, t, p, hm).fpga_io
    assert refine_level(h, p, t, hm, deadline=time.monotonic() - 1.0) == p


def test_bank_build_checks_deadline_every_vertex(monkeypatch):
    import mfspart.refine as refine

    class Clock:  # one tick per reading
        now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    h, t, hm, p = tight_state(2, n=20, m=36)
    full = {op.v for op in RefineState(h, t, hm, p).entries() if op.kind != "exchange"}
    clock = Clock()
    monkeypatch.setattr(refine, "time", clock)
    monkeypatch.setattr(refine, "RUN", 1)
    state = RefineState(h, t, hm, p, deadline=3.5)
    # readings 1-3 each build one vertex's entries, reading 4 stops the build
    assert clock.now == 4.0
    assert {op.v for op in state.entries()} == full & {0, 1, 2}
    assert not any(op.kind == "exchange" for op in state.entries())


def test_refine_loop_checks_deadline_every_iteration(monkeypatch):
    import mfspart.refine as refine

    class Clock:  # one tick per reading
        now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    h, t, hm, p = tight_state(1, n=20, m=36)
    unbounded = RefineState(h, t, hm, p)
    run_refine_loop(unbounded)
    assert len(unbounded.applied) > 3
    state = RefineState(h, t, hm, p)
    clock = Clock()
    monkeypatch.setattr(refine, "time", clock)
    run_refine_loop(state, deadline=3.5)
    # readings 1-3 each start an iteration, reading 4 ends the loop
    assert clock.now == 4.0
    assert state.applied == unbounded.applied[: len(state.applied)]


def test_run_pipeline_tiny_time_limit_returns_valid_placement():
    from mfspart.cli import run_pipeline

    b = gen_instance(31, 300, 360, 8, 2, spare=0.4)
    res = run_pipeline(b.hypergraph, b.topology, n_seeds=1,
                       assign_max_nodes=2000, time_limit=1e-6)
    assert res.status == "ok" and res.placement is not None
    assert validate(b.hypergraph, b.topology, res.placement) == []
    assert res.thd == total_hop_distance(
        b.hypergraph, res.placement, compute_hop_matrix(b.topology)
    )


def test_refine_ops_subset_respected():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    seen = []
    refine_level(h, p, t, hm, ops=("move", "exchange"),
                 observer=lambda op, pl, thd: seen.append(op.kind))
    assert all(k in ("move", "exchange") for k in seen)


def test_refine_empty_ops_is_identity():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    assert refine_level(h, p, t, hm, ops=()) == p


def test_refine_empty_hypergraph_is_identity():
    # no vertex, so no usage row has an entry: selection still finds none
    h = Hypergraph.build([], [])
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    assert RefineState(h, t, hm, Placement([])).peek_best() is None
    assert refine_level(h, Placement([]), t, hm) == Placement([])


def _start_with_replicas(seed, n, m, k):
    """A generated instance with a random placement, a third of whose
    vertices hold a replica when there is a second FPGA."""
    rng = random.Random(seed)
    b = gen_instance(seed, n, m, k, 1, spare=0.8)
    orig = [rng.randrange(k) for _ in range(n)]
    reps = [set() for _ in range(n)]
    if k > 1:
        for v in rng.sample(range(n), n // 3):
            reps[v].add(rng.choice([f for f in range(k) if f != orig[v]]))
    return b.hypergraph, b.topology, compute_hop_matrix(b.topology), Placement(orig, reps)


_START_CASES = pytest.mark.parametrize(
    "n, m, k", [(24, 40, 4), (12, 20, 1), (12, 0, 3)],
    ids=["replicated", "single-fpga", "net-less"],
)


@_START_CASES
def test_refinement_leaves_the_callers_placement_untouched(n, m, k):
    # the state holds the placement as its own arrays and never writes
    # the caller's object; each `state.p` is a new placement
    h, t, hm, p = _start_with_replicas(1, n, m, k)
    before = p.copy()
    state = RefineState(h, t, hm, p)
    assert state.p == p and state.p is not state.p
    run_refine_loop(state)
    assert p == before
    out = state.p
    if out.num_vertices:
        out.original[0] = -1
        assert state.p != out
    refined = refine_level(h, p, t, hm)
    assert p == before and refined is not p
    assert refined == state.p


@_START_CASES
def test_state_placement_follows_the_oracle_op_transform(n, m, k):
    # a walk that takes each kind in turn, a random entry of it that
    # `try_apply` accepts whatever its gain: after every op the state's
    # placement is the start with `oracle.apply_op` of each applied op
    h, t, hm, p = _start_with_replicas(2, n, m, k)
    state = RefineState(h, t, hm, p)
    walked = p.copy()
    rng = random.Random(k)
    kinds = set()
    for step in range(40):
        kind = ALL_OPS[step % len(ALL_OPS)]
        ops = [op for op in state.entries() if op.kind == kind]
        rng.shuffle(ops)
        for op in ops:
            done = state.try_apply(op.kind, op.v, op.dest)
            if done is not None:
                apply_op(walked, done)
                kinds.add(done.kind)
                break
        assert state.p == walked, (step, kind)
    if k == 1:
        assert not kinds and walked == p
    elif m == 0:
        assert {"move", "replicate", "delete"} <= kinds
    else:
        assert kinds == set(ALL_OPS)


def test_max_replicas_cap():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    seen = []
    refine_level(h, p, t, hm, max_replicas=0,
                 observer=lambda op, pl, thd: seen.append(op.kind))
    assert "replicate" not in seen


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_capped_bank_is_a_fresh_bank_without_replicate(cap):
    # once the cap binds, replicate is not an enabled kind: after every op
    # the bank is the one a fresh state without replicate builds
    checked = 0
    for seed in range(6):
        h, t, hm, p = _random_replicated_state(seed, n=14, m=26, k=3)
        state = RefineState(h, t, hm, p, max_replicas=cap)

        def check(op, pl, thd):
            nonlocal checked
            capped = state.replicates_applied >= cap
            ops = tuple(k for k in ALL_OPS if not (capped and k == "replicate"))
            assert bank_snapshot(state) == bank_snapshot(RefineState(h, t, hm, state.p, ops=ops))
            checked += capped

        if cap == 0:
            assert "replicate" not in {op.kind for op in state.entries()}
        run_refine_loop(state, observer=check)
        assert state.replicates_applied <= cap
    assert checked >= 30


def test_negative_max_replicas_rejected():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    with pytest.raises(ValueError, match="max_replicas must be non-negative"):
        RefineState(h, t, hm, p, max_replicas=-1)


def test_zero_gain_moves_only_with_flag():
    # two symmetric unit-capacity FPGAs: the only candidates are zero-gain
    h = Hypergraph.build([[1], [1]], [(1, 0, [1])])
    t = path_topology(2, cap=1)
    hm = compute_hop_matrix(t)
    p = Placement([0, 1])
    seen = []
    refine_level(h, p, t, hm, observer=lambda op, pl, thd: seen.append(op))
    assert seen == []
    seen2 = []
    refine_level(h, p, t, hm, allow_zero_gain=True, zero_gain_limit=3,
                 observer=lambda op, pl, thd: seen2.append(op))
    assert len(seen2) <= 3


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_zero_gain_ops_never_take_a_vertex_back(seed):
    # until a positive-gain op commits, no zero-gain move or exchange puts
    # a vertex back on an FPGA it left at zero gain; on seed 5, vertex 6
    # used to move between FPGAs 0 and 2 at gain 0 until the zero-gain
    # allowance (the vertex count) ran out.  The bank stays exact.
    h, t, p = random_feasible_state(seed)
    state = RefineState(h, t, compute_hop_matrix(t), p, allow_zero_gain=True)
    check_bank_after_every_attempt(state)
    orig = list(p.original)
    left = set()
    zero = []

    def check(op, pl, thd):
        moved = [op.v] + ([op.partner] if op.kind == "exchange" else [])
        if op.gain > 0:
            left.clear()
        elif op.kind in ("move", "exchange"):
            zero.append(op)
            assert not {(x, pl.original[x]) for x in moved} & left, op
            left.update((x, orig[x]) for x in moved)
        for x in moved:
            orig[x] = pl.original[x]

    run_refine_loop(state, observer=check)
    assert state.zero_gain_left == h.num_vertices - len(zero) > 0
    if seed == 5:
        assert len(zero) >= 2


def test_incremental_and_full_variants_agree():
    for seed in range(4):
        h, t, hm, p = _random_replicated_state(seed, n=14, m=26, k=3)
        out_inc = refine_level(h, p, t, hm, incremental=True)
        out_full = refine_level(h, p, t, hm, incremental=False)
        assert out_inc == out_full


def test_replicate_delete_inverse_bit_exact():
    for seed in range(6):
        h, t, hm, p = _random_replicated_state(seed, n=12, m=20, k=3)
        state = RefineState(h, t, hm, p)
        rng = random.Random(seed)
        reps = [op for op in state.entries() if op.kind == "replicate"]
        if not reps:
            continue
        op = rng.choice(reps)
        snap_text = report(h, t, state.p, hm).to_text()
        snap_usage = [list(row) for row in state.usage]
        snap_io = list(state.io)
        applied = state.try_apply("replicate", op.v, op.dest)
        if applied is None:
            continue
        assert state.try_apply("delete", op.v, op.dest) is not None
        assert report(h, t, state.p, hm).to_text() == snap_text
        assert state.usage == snap_usage
        assert state.io == snap_io


# -- projection -----------------------------------------------------------


def test_project_identity_mapping():
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2])])
    lv = Level(h, [0, 1, 2], 0)
    p = Placement([0, 1, 1], [set(), {2}, set()])
    assert project_to_finer(lv, p) == p


def test_project_preserves_thd_and_counts():
    b = gen_instance(9, 160, 260, 4, 2)
    cfg = CoarseningConfig(n_final=24, seed=4)
    levels = build_hierarchy(b.hypergraph, b.topology, cfg)
    assert levels
    hm = compute_hop_matrix(b.topology)
    rng = random.Random(1)
    coarse_h = levels[-1].hypergraph
    p = Placement(
        [rng.randrange(b.topology.k_fpgas) for _ in range(coarse_h.num_vertices)]
    )
    # sprinkle replicas on the coarse placement
    for v in range(0, coarse_h.num_vertices, 5):
        pool = [f for f in range(b.topology.k_fpgas) if f != p.original[v]]
        p.add_replica(v, pool[0])
    cur = p
    graphs = [b.hypergraph] + [lv.hypergraph for lv in levels]
    for i in range(len(levels) - 1, -1, -1):
        coarse_thd = total_hop_distance(graphs[i + 1], cur, hm)
        fine = project_to_finer(levels[i], cur)
        fine_thd = total_hop_distance(graphs[i], fine, hm)
        assert fine_thd == coarse_thd
        # replica copies fan out to every constituent
        n_members = [0] * graphs[i + 1].num_vertices
        for c in levels[i].mapping:
            n_members[c] += 1
        expect_reps = sum(len(cur.replicas[c]) * n_members[c] for c in range(len(n_members)))
        assert fine.replica_count() == expect_reps
        cur = fine


def test_best_single_replication_matches_heap_max():
    # the oracle filters by feasibility and scans every vertex; the heap
    # holds boundary vertices only, so compare on the feasible subset
    # (positive gains only arise at boundary vertices)
    checked = 0
    for seed in range(8):
        h, t, hm, p = _random_replicated_state(seed, n=10, m=18, k=3)
        state = RefineState(h, t, hm, p)
        feas_best = None
        for op in state.entries():
            if op.kind != "replicate":
                continue
            q = state.p.copy()
            q.add_replica(op.v, op.dest)
            if validate(h, t, q, hm):
                continue
            if feas_best is None or op.gain > feas_best:
                feas_best = op.gain
        oracle_best = best_single_replication(h, p, hm, t)
        if oracle_best is None or oracle_best[2] <= 0:
            continue
        assert feas_best == oracle_best[2]
        checked += 1
    assert checked > 0


def test_oracle_best_replication_fanout_story():
    h, t, p = fanout_story(src_fpga=1)
    hm = compute_hop_matrix(t)
    assert best_single_replication(h, p, hm, t) == (1, 2, 2)


def _clone(state):
    shared = {id(state.h): state.h, id(state.t): state.t, id(state.hm): state.hm}
    return copy.deepcopy(state, shared)


def test_try_apply_feasibility_exact_under_binding_bounds():
    """try_apply rejects a bank entry exactly when validate rejects its
    result, with resource, I/O and hop limits that all bind."""
    kinds = set()
    for seed in range(4):
        h, t, hm, p = bounded_state(seed)
        assert validate(h, t, p, hm) == []
        state = RefineState(h, t, hm, p)
        rng = random.Random(seed)
        for _ in range(6):
            feasible = []
            for op in list(state.entries()):
                trial = state.p.copy()
                apply_op(trial, op)
                bad = validate(h, t, trial, hm)
                kinds.update(v.kind for v in bad)
                if bad:
                    assert state.try_apply(op.kind, op.v, op.dest) is None
                else:
                    assert _clone(state).try_apply(op.kind, op.v, op.dest) is not None
                    feasible.append(op)
            if not feasible:
                break
            op = rng.choice(feasible)
            assert state.try_apply(op.kind, op.v, op.dest) is not None
            assert state.io == report(h, t, state.p, hm).fpga_io
            assert state.thd == total_hop_distance(h, state.p, hm)
    assert kinds == {"resource", "io", "hop"}


def test_refine_respects_io_and_hop_limits():
    from mfspart.cli import run_pipeline

    # Both bounds bind: on instance 903 the pipeline ends at THD 16 under
    # them, against 20 without bounds and 26 under the I/O budget alone,
    # and every seed still gets a placement.
    checked = 0
    for seed in range(4):
        b = gen_instance(seed + 900, 24, 44, 4, 1, spare=0.8,
                         hub_fraction=0.2, hub_fanout=8, io_limit=45, hop_max=1)
        hm = compute_hop_matrix(b.topology)
        res = run_pipeline(b.hypergraph, b.topology, seed=seed,
                           assign_max_nodes=20_000, n_seeds=2)
        if res.placement is None:
            continue
        checked += 1
        assert validate(b.hypergraph, b.topology, res.placement, hm) == []
        # walk a constrained state randomly; every applied op must keep it valid
        state = RefineState(b.hypergraph, b.topology, hm, res.placement)
        rng = random.Random(seed)
        applied = 0
        for _ in range(10):
            entries = list(state.entries())
            rng.shuffle(entries)
            for op in entries:
                if state.try_apply(op.kind, op.v, op.dest) is not None:
                    assert validate(b.hypergraph, b.topology, state.p, hm) == []
                    applied += 1
                    break
        assert applied >= 1
    assert checked >= 3


def _random_feasible_hm(seed):
    h, t, p = random_feasible_state(seed)
    return h, t, compute_hop_matrix(t), p


# refine_level results recorded before the gain bank was folded into one
# table: (instance, refine_level options, applied ops as (kind, v, dest,
# partner, partner_dest, gain), final originals, final replicas).  Any
# change to a gain, to the tie order or to feasibility shows here.
PINNED_REFINES = [
    # gains tie across kinds here: swapping any two adjacent kind ranks
    # changes the result
    ("ties-0", lambda: tight_state(0, n=20, m=36), {},
     [("exchange", 1, 2, 6, 0, 10), ("move", 9, 1, None, None, 3),
      ("delete", 10, 1, None, None, 2), ("delete", 3, 1, None, None, 2),
      ("replicate", 5, 1, None, None, 3), ("move", 15, 1, None, None, 2),
      ("exchange", 0, 0, 14, 1, 2), ("exchange", 11, 0, 19, 1, 3),
      ("exchange", 9, 2, 16, 1, 2), ("replicate", 5, 0, None, None, 2),
      ("exchange", 10, 1, 15, 2, 1)],
     [0, 2, 1, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 1, 1, 2, 1, 1, 1, 1],
     {2: [2], 5: [0, 1]}),
    ("tight-4", lambda: tight_state(4, n=20, m=36), {},
     [("exchange", 7, 0, 11, 2, 7), ("exchange", 14, 1, 13, 2, 6),
      ("replicate", 2, 0, None, None, 4), ("exchange", 11, 1, 6, 2, 2),
      ("exchange", 3, 1, 2, 2, 3), ("delete", 18, 2, None, None, 1),
      ("exchange", 12, 0, 18, 1, 1), ("replicate", 8, 2, None, None, 1),
      ("replicate", 16, 2, None, None, 1), ("delete", 8, 0, None, None, 0)],
     [2, 1, 2, 1, 2, 0, 2, 0, 1, 2, 0, 1, 0, 2, 1, 0, 0, 0, 1, 1],
     {0: [1], 2: [0], 6: [0], 8: [2], 16: [2]}),
    ("replicated-7", lambda: _random_replicated_state(7, n=14, m=26, k=3), {},
     [("exchange", 2, 2, 6, 1, 7), ("replicate", 2, 0, None, None, 6),
      ("move", 8, 0, None, None, 5), ("delete", 5, 1, None, None, 4),
      ("move", 6, 0, None, None, 8), ("move", 0, 0, None, None, 3),
      ("replicate", 0, 2, None, None, 3), ("replicate", 4, 2, None, None, 3),
      ("replicate", 3, 0, None, None, 2), ("delete", 13, 2, None, None, 0)],
     [0, 0, 2, 2, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0],
     {0: [2], 1: [2], 2: [0], 3: [0], 4: [2], 9: [0]}),
    # the cap binds after the first two ops, while replicates with positive
    # gain stay at the top of the bank
    ("replicated-3-capped", lambda: _random_replicated_state(3, n=14, m=26, k=3),
     dict(max_replicas=2),
     [("replicate", 0, 1, None, None, 12), ("replicate", 0, 2, None, None, 12),
      ("exchange", 4, 0, 11, 1, 5), ("delete", 10, 0, None, None, 3),
      ("move", 4, 2, None, None, 1), ("delete", 2, 1, None, None, 0),
      ("delete", 3, 1, None, None, 0), ("move", 6, 2, None, None, 2),
      ("move", 12, 2, None, None, 1)],
     [0, 2, 2, 0, 2, 2, 2, 2, 2, 0, 2, 1, 2, 1],
     {0: [1, 2], 6: [0], 11: [2], 13: [2]}),
    ("bounded-5", lambda: shaken_bounded_state(5, io_slack=4), {},
     [("move", 3, 3, None, None, 4), ("move", 7, 1, None, None, 3),
      ("replicate", 4, 1, None, None, 3), ("move", 2, 1, None, None, 1)],
     [1, 3, 1, 3, 2, 3, 2, 1, 3, 1, 1, 2, 1, 2, 2, 1, 2, 2, 1, 3],
     {0: [3], 4: [1]}),
    # a zero-gain move may not take a vertex back where it came from until
    # a positive-gain op commits: vertex 6 leaves FPGA 2 at gain 0 and
    # returns only by a positive exchange, after the zero-gain moves have
    # opened two positive ones
    ("zero-gain-5", lambda: _random_feasible_hm(5),
     dict(allow_zero_gain=True, zero_gain_limit=3, max_replicas=1),
     [("replicate", 0, 2, None, None, 2), ("move", 6, 0, None, None, 0),
      ("move", 16, 2, None, None, 0), ("move", 22, 2, None, None, 1),
      ("move", 1, 0, None, None, 1), ("exchange", 6, 2, 9, 0, 2)],
     [0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1, 2, 1],
     {0: [2]}),
    ("exchange-only-8", lambda: tight_state(8, n=24, m=44), dict(ops=("exchange",)),
     [("exchange", 3, 2, 16, 0, 10), ("exchange", 12, 1, 18, 0, 8),
      ("exchange", 2, 2, 17, 1, 7), ("exchange", 11, 2, 15, 1, 6),
      ("exchange", 5, 2, 22, 1, 3), ("exchange", 8, 2, 13, 0, 2),
      ("exchange", 1, 2, 8, 0, 2), ("exchange", 9, 1, 17, 0, 1),
      ("exchange", 14, 1, 23, 0, 1)],
     [2, 2, 2, 2, 2, 2, 2, 1, 0, 1, 1, 2, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0],
     {0: [0], 7: [2]}),
]


@pytest.mark.parametrize(
    "make, options, ops, original, replicas",
    [case[1:] for case in PINNED_REFINES],
    ids=[case[0] for case in PINNED_REFINES],
)
def test_pinned_refine_results(make, options, ops, original, replicas):
    h, t, hm, p = make()
    seen = []

    def record(op, pl, thd):
        seen.append((op.kind, op.v, op.dest, op.partner, op.partner_dest, op.gain))

    out = refine_level(h, p, t, hm, observer=record, **options)
    assert seen == ops
    assert out.original == original
    assert {v: sorted(r) for v, r in enumerate(out.replicas) if r} == replicas


def test_pinned_bounded_refine_is_bound():
    # the bounds change what refinement does on the pinned bounded case
    h, t, hm, p = shaken_bounded_state(5, io_slack=4)
    free = MfsTopology(t.capacities, t.links)
    assert refine_level(h, p, t, hm) != refine_level(h, p, free, hm)


def test_exchange_only_bank_exact_after_each_op():
    # with moves disabled, exchange gains still come from maintained move
    # entries; only exchange entries are offered or applied
    seen = 0
    for seed in range(4):
        h, t, hm, p = tight_state(seed, n=24, m=44)
        state = RefineState(h, t, hm, p, ops=("exchange",))

        def check(op, pl, thd):
            nonlocal seen
            seen += 1
            assert op.kind == "exchange"
            entries = list(state.entries())
            assert {e.kind for e in entries} <= {"exchange"}
            for e in entries:
                assert e.gain == full_gain_recompute(h, state.p, hm, e), e
            fresh = RefineState(h, t, hm, state.p, ops=("exchange",))
            assert bank_snapshot(state) == bank_snapshot(fresh)

        run_refine_loop(state, observer=check)
        assert state.applied and all(op.kind == "exchange" for op in state.applied)
    assert seen >= 10


@pytest.mark.parametrize("ops", [
    ("move", "replicate", "delete"),
    ("move", "exchange", "delete"),
    ("move", "exchange", "replicate"),
], ids=["no-exchange", "no-replicate", "no-delete"])
def test_bank_with_a_kind_disabled_exact_after_each_op(ops):
    # a disabled kind's gains are never banked, and without exchange no
    # exchange table is built (`state.exchange` is None): after every op
    # only enabled kinds are offered, each at its from-scratch gain, and
    # the bank is a fresh one
    seen = 0
    for seed in range(4):
        h, t, hm, p = tight_state(seed, n=24, m=44)
        state = RefineState(h, t, hm, p, ops=ops)
        assert (state.exchange is None) == ("exchange" not in ops)

        def check(op, pl, thd):
            nonlocal seen
            seen += 1
            entries = list(state.entries())
            assert {e.kind for e in entries} <= set(ops)
            for e in entries:
                assert e.gain == full_gain_recompute(h, state.p, hm, e), e
            fresh = RefineState(h, t, hm, state.p, ops=ops)
            assert bank_snapshot(state) == bank_snapshot(fresh)

        run_refine_loop(state, observer=check)
        assert {op.kind for op in state.applied} <= set(ops)
    assert seen >= 30


# -- selection and the transition-driven refresh -----------------------------


def _reference_loop(state):
    """Selection stated on `entries()` alone: the best acceptable entry
    goes to `try_apply`, and a rejected entry is passed over until the
    next commit."""
    excluded = set()
    rejected = 0
    while True:
        capped = (state.max_replicas is not None
                  and state.replicates_applied >= state.max_replicas)
        offered = [
            op for op in state.entries()
            if state._acceptable(op.kind, op.gain)
            and not (capped and op.kind == "replicate")
            and op not in excluded
        ]
        if not offered:
            return rejected
        op = min(offered, key=lambda o: (-o.gain, KIND_RANK[o.kind], o.v, o.dest))
        if state.try_apply(op.kind, op.v, op.dest) is None:
            excluded.add(op)
            rejected += 1
        else:
            excluded.clear()


@pytest.mark.parametrize("bounded", [False, True], ids=["tight", "shaken-bounded"])
def test_loop_applies_what_reference_selection_applies(bounded):
    """The loop, which shelves entries that do not fit and tries only the
    rest, applies the same ops as popping and rejecting in key order; the
    reference state rebuilds its bank from scratch after every commit.
    Bounded seed 19 rejects a move on I/O grounds and applies it after a
    later commit that left its gain unchanged, so only the commit's
    unshelving of the held heap brings it back."""
    cases = rejected = attempts = applied = 0
    for seed in (*range(12), 19) if bounded else range(6):
        args = shaken_bounded_state(seed) if bounded else tight_state(seed, n=20, m=36)
        if args is None:
            continue
        cases += 1
        reference = RefineState(*args, incremental=False)
        rejected += _reference_loop(reference)
        state = RefineState(*args)
        seen = check_bank_after_every_attempt(state)
        run_refine_loop(state)
        attempts += seen.total()
        assert state.applied == reference.applied, f"seed {seed}"
        applied += len(state.applied)
    assert cases >= 4 and applied >= 20
    assert rejected >= 20  # the reference does meet entries that do not fit
    if not bounded:
        # without I/O or hop limits every entry the loop tries fits
        assert attempts == applied


def _brute_force_pick(state, rejected):
    """The entry selection must offer, from `entries()` and the state's own
    rules: the best by higher gain, then delete > move > exchange >
    replicate, then lower vertex and destination ids, of the entries whose
    gain is acceptable, that `try_apply` has not rejected since the last
    commit (`rejected`), that `_returns` does not flag at gain 0 and whose
    resource deltas fit.  Returns it as (kind, v, dest, gain), or None,
    and a Counter of why each better acceptable entry was passed over."""
    passed = Counter()
    acceptable = sorted(
        ((-op.gain, KIND_RANK[op.kind], op.v, op.dest), op)
        for op in state.entries() if state._acceptable(op.kind, op.gain)
    )
    for _, op in acceptable:
        key = (op.kind, op.v, op.dest)
        if key in rejected:
            passed["rejected"] += 1
        elif op.gain == 0 and state._returns(*key):
            passed["returns"] += 1
        elif not state._fits(state._resource_deltas(state._op_change(*key))):
            passed["fit"] += 1
        else:
            return (*key, op.gain), passed
    return None, passed


def check_selection_before_every_attempt(state):
    """Make every `peek_best` on `state` assert that it returns the brute
    force pick, keeping the entries `try_apply` rejected since the last
    commit.  Returns a Counter of the picks made ("picks") and of why
    better entries were passed over ("fit", "rejected", "returns")."""
    counts = Counter()
    rejected = set()
    peek, tried = state.peek_best, state.try_apply

    def checked_peek():
        want, passed = _brute_force_pick(state, rejected)
        got = peek()
        assert got == want, (got, want)
        counts.update(passed)
        counts["picks"] += 1
        return got

    def checked_try(kind, v, dest):
        op = tried(kind, v, dest)
        if op is None:
            rejected.add((kind, v, dest))
        else:
            rejected.clear()
        return op

    state.peek_best = checked_peek
    state.try_apply = checked_try
    return counts


def _selection_cases(name):
    if name == "tight":
        return [RefineState(*tight_state(seed, n=20, m=36)) for seed in range(6)]
    if name == "shaken-bounded":  # seed 19 rejects on I/O grounds
        cases = (shaken_bounded_state(seed) for seed in (*range(6), 19))
        return [RefineState(*args) for args in cases if args is not None]
    if name == "zero-gain-capped":
        return [
            RefineState(*args, allow_zero_gain=True, max_replicas=2)
            for args in (*map(_random_feasible_hm, (5, 6, 7)),
                         *(tight_state(seed, n=20, m=36) for seed in range(3)))
        ]
    left_out = name.removeprefix("no-")
    ops = tuple(k for k in ALL_OPS if k != left_out)
    return [RefineState(*tight_state(seed, n=24, m=44), ops=ops) for seed in range(4)]


@pytest.mark.parametrize("name", [
    "tight", "shaken-bounded", "zero-gain-capped",
    "no-move", "no-exchange", "no-replicate", "no-delete",
])
def test_peek_best_is_the_brute_force_pick_before_every_attempt(name):
    counts = Counter()
    for state in _selection_cases(name):
        seen = check_selection_before_every_attempt(state)
        run_refine_loop(state)
        assert seen["picks"] > len(state.applied)  # the last peek finds none
        counts += seen
    assert counts["picks"] >= 20
    assert counts["fit"] >= 1, counts
    if name == "shaken-bounded":
        assert counts["rejected"] >= 1, counts
    if name == "zero-gain-capped":
        assert counts["returns"] >= 1, counts


def _full_exchange_pair():
    # FPGAs 0 and 1 are full.  Vertices 0 and 1 share a net, and each
    # drives a vertex on the other's FPGA: swapping them makes both nets
    # local.  No move fits, and the exchange's deltas cancel on both FPGAs
    h = Hypergraph.build([[1]] * 4, [(1, 0, [2]), (1, 1, [3]), (1, 0, [1])])
    return h, path_topology(2, cap=2), Placement([0, 1, 1, 0]), ("exchange", 0, 1, 2)


def _move_onto_own_replica():
    # vertex 0 sits on FPGA 0 with a replica on full FPGA 1, where its
    # driver sits: moving there adds no copy, so it fits, and it ties the
    # replicate of the driver onto FPGA 0 at gain 1, which ranks below it
    h = Hypergraph.build([[1]] * 2, [(1, 1, [0])])
    p = Placement([0, 1], [{1}, set()])
    return h, path_topology(2, cap=2), p, ("move", 0, 1, 1)


def _exchange_with_a_replica_on_the_vertex_fpga():
    # vertex 0 (weight 1) on full FPGA 0 drives vertex 2 on full FPGA 1;
    # vertex 1 (weight 2) on FPGA 1 has a replica on FPGA 0.  Exchanging
    # 0 and 1 absorbs that replica, so FPGA 0 only loses vertex 0's weight
    # and FPGA 1 nets 1 - 2: it fits, where counting vertex 1's weight on
    # FPGA 0 would not
    h = Hypergraph.build([[1], [2], [1]], [(3, 0, [2]), (1, 1, [0])])
    caps = [ResourceVector([3]), ResourceVector([3])]
    t = MfsTopology(caps, [(0, 1)])
    p = Placement([0, 1, 1], [set(), {0}, set()])
    return h, t, p, ("exchange", 0, 1, 2)


def _one_type_overflows():
    # moving vertex 0 onto FPGA 1 and moving vertex 1 onto FPGA 0 tie at
    # gain 2; FPGA 1 has room for vertex 0's first resource type but not
    # its second, so the lower id does not fit and the move of 1 wins
    h = Hypergraph.build([[1, 2], [1, 1]], [(2, 1, [0])])
    caps = [ResourceVector([3, 3]), ResourceVector([5, 1])]
    t = MfsTopology(caps, [(0, 1)])
    return h, t, Placement([0, 1]), ("move", 1, 0, 2)


@pytest.mark.parametrize("make", [
    _full_exchange_pair,
    _move_onto_own_replica,
    _exchange_with_a_replica_on_the_vertex_fpga,
    _one_type_overflows,
], ids=["full-pair-exchange", "move-onto-replica", "exchange-onto-replica", "one-type-overflows"])
def test_peek_best_resource_fit_on_hand_built_states(make):
    h, t, p, expected = make()
    hm = compute_hop_matrix(t)
    assert validate(h, t, p, hm) == []
    state = RefineState(h, t, hm, p)
    assert _brute_force_pick(state, set())[0] == expected
    assert state.peek_best() == expected
    assert state.try_apply(*expected[:3]) is not None
    assert validate(h, t, state.p, hm) == []


def _exchange_bounds(state):
    """ub(v) = max_f (move[v, f] + top[f, orig v]) of every vertex, top[f, g]
    the largest move gain to g among the vertices on f, from the move
    rows one vertex at a time."""
    move, orig, kf = state.gains[0], state.p.original, state.kf
    top = np.full((kf, kf), OUT)
    for w, f in enumerate(orig):
        top[f] = np.maximum(top[f], move[w])
    return [max(move[v, f] + top[f, orig[v]] for f in range(kf)) for v in range(len(orig))]


def _bound_edge_state():
    # a fresh state, so every exchange best is stale: the best move,
    # replicate or delete is vertex 2's replicate onto FPGA 2, at gain 3;
    # vertex 1's exchange with vertex 2 gains 3 too, its bound exactly, and
    # outranks the replicate at equal gain; the bound of vertices 0, 3 and
    # 4 is 2, below the pick
    h = Hypergraph.build([[1]] * 5, [(1, 2, [4]), (2, 2, [4, 0, 1]), (2, 3, [1, 0])])
    t = path_topology(3)
    p = Placement([1, 2, 1, 1, 2])
    return RefineState(h, t, compute_hop_matrix(t), p)


def test_stale_exchange_at_its_bound_ties_a_replicate_and_wins():
    state = _bound_edge_state()
    assert state.exchange.stale.all()
    assert _exchange_bounds(state)[1] == 3
    rows = [(int(g), -k, v, f) for (k, v, f), g in np.ndenumerate(state.gains)]
    assert max(rows) == (3, -FPGA_KINDS.index("replicate"), 2, 2)
    assert gain_exchange(state.h, state.p, state.hm, 1, 2) == 3
    expected = ("exchange", 1, 1, 3)
    assert state.peek_best() == expected
    assert _brute_force_pick(state, set())[0] == expected
    assert state.try_apply(*expected[:3]).partner == 2


def test_stale_vertex_below_the_pick_is_never_scored(monkeypatch):
    scored = []
    best = ExchangeTable._best

    def recording(self, vs, bar):
        scored.extend(vs.tolist())
        return best(self, vs, bar)

    monkeypatch.setattr(ExchangeTable, "_best", recording)
    state = _bound_edge_state()
    ub = _exchange_bounds(state)
    assert state.peek_best()[3] == 3
    assert sorted(scored) == [v for v in range(5) if ub[v] >= 3] == [1, 2]
    assert state.exchange.stale.tolist() == [True, False, False, True, True]


def _drain_cnt_change(state, e, kind, v, dest):
    before = {f: c for f, c in enumerate(state.cnt[e].tolist()) if c}
    assert state.try_apply(kind, v, dest) is not None
    assert bank_snapshot(state) == fresh_bank(state)
    return before, {f: c for f, c in enumerate(state.cnt[e].tolist()) if c}


def _gain(state, kind, v, f):
    """The stored gain of (kind, v, f): its slot of `state.gains`."""
    return int(state.gains[FPGA_KINDS.index(kind), v, f])


def test_rows_commit_that_changes_no_net():
    # vertex 2 is isolated: moving it, or deleting its replica, changes no
    # net, so the commit hands the array passes no count rows at all
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1])])
    t = path_topology(3)
    p = Placement([0, 1, 0], [set(), set(), {2}])
    state = RefineState(h, t, compute_hop_matrix(t), p)
    check_bank_after_every_attempt(state)
    assert state.try_apply("move", 2, 1).gain == 0
    assert state.try_apply("delete", 2, 2).gain == 0
    assert state.p == Placement([0, 1, 1])


def test_rows_level_without_nets():
    # a level of isolated vertices: the count matrix has no row, and only
    # the vertex with a replica has entries, all at zero gain
    h = Hypergraph.build([[1]] * 3, [])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 1, 2], [{1}, set(), set()]))
    assert state.cnt.shape == (0, 3)
    assert {(op.v, op.gain) for op in state.entries()} == {(0, 0)}
    assert bank_snapshot(state) == fresh_bank(state)
    check_bank_after_every_attempt(state)
    run_refine_loop(state)
    assert state.p == Placement([0, 1, 2]) and not list(state.entries())


def test_rows_single_fpga():
    # K = 1: every net lies wholly on the one FPGA and no replica can
    # exist, so every row is OUT and the loop applies nothing
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1, 2]), (2, 3, [0])])
    t = path_topology(1)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0] * 4))
    assert state.gains.shape == (len(FPGA_KINDS), 4, 1) and (state.gains == OUT).all()
    assert bank_snapshot(state) == fresh_bank(state) == []
    assert run_refine_loop(state) == 0


def test_rows_vertex_hosted_on_every_fpga():
    # vertex 0 has a copy on every FPGA: there is nowhere to replicate it,
    # its delete row holds K - 1 entries, and its move row the K - 1 moves
    # onto its replicas, each absorbing one
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1, 2, 3]), (1, 1, [0])])
    t = path_topology(4)
    p = Placement([0, 1, 2, 3], [{1, 2, 3}, set(), set(), set()])
    state = RefineState(h, t, compute_hop_matrix(t), p)
    assert (state.gains[FPGA_KINDS.index("replicate"), 0] == OUT).all()
    for kind in ("move", "delete"):
        row = state.gains[FPGA_KINDS.index(kind), 0]
        assert (row != OUT).tolist() == [False, True, True, True], kind
    check_bank_after_every_attempt(state)
    run_refine_loop(state)
    assert state.applied


def test_refresh_drain_whose_own_copy_takes_a_count_from_2_to_1():
    # drains 1 and 2 share FPGA 2; 2 leaves for FPGA 1, where drain 3 sits.
    # No count crosses 0|1, and only drain 1's own copy keeps FPGA 2 covered
    # now, so its move gains change
    h = Hypergraph.build([[1]] * 4, [(2, 0, [1, 2, 3])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 2, 2, 1]))
    before = _gain(state, "move", 1, 1)
    cnt = _drain_cnt_change(state, 0, "move", 2, 1)
    assert cnt == ({2: 2, 1: 1}, {2: 1, 1: 2})
    assert _gain(state, "move", 1, 1) != before


def test_refresh_net_whose_source_moves():
    # the drain counts stay as they were; only the source's hosts change
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2]), (1, 2, [0])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 2, 2]))
    before = _gain(state, "move", 1, 1)
    cnt = _drain_cnt_change(state, 0, "move", 0, 1)
    assert cnt == ({2: 2}, {2: 2})
    assert _gain(state, "move", 1, 1) != before


def test_refresh_count_from_0_to_1_where_the_source_has_a_replica():
    # drain 1 moves onto FPGA 2, where the source keeps a replica: the
    # replica now serves it, so the source's delete gain there changes
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1, 2])])
    t = path_topology(3)
    p = Placement([0, 1, 0], [{2}, set(), set()])
    state = RefineState(h, t, compute_hop_matrix(t), p)
    before = _gain(state, "delete", 0, 2)
    cnt = _drain_cnt_change(state, 0, "move", 1, 2)
    assert cnt == ({1: 1, 0: 1}, {2: 1, 0: 1})
    assert _gain(state, "delete", 0, 2) != before


def test_refresh_exchange_whose_stored_partner_becomes_ineligible():
    # drain 1 on FPGA 0 pairs best with drain 2 on FPGA 1 (a tie with drain
    # 4, broken by id).  Drain 2 then moves onto FPGA 0: no count that
    # drain 1 reads crosses, so only its exchange entry needs a new partner
    h = Hypergraph.build([[1]] * 5, [(1, 0, [1, 2, 3, 4])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 0, 1, 0, 1]))

    def partner_of_1():
        [op] = [op for op in state.entries() if op.kind == "exchange" and op.v == 1]
        return op.partner

    assert partner_of_1() == 2
    cnt = _drain_cnt_change(state, 0, "move", 2, 0)
    assert cnt == ({0: 2, 1: 2}, {0: 3, 1: 1})
    assert partner_of_1() == 4


def test_settle_vertex_that_moved_and_held_its_partner_on_a_changed_pair():
    # vertex 0 exchanges with its best partner 1: it moves, so every pair
    # of it changed, and its move row changes at 1's new FPGA, so the pair
    # it held changed too; it is marked stale for both reasons and, once
    # settled, must end at the partner a fresh table picks
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1]), (1, 2, [0]), (1, 1, [3])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 2, 2, 0]))
    table = state.exchange
    table.wake()
    assert table.best_u[0] == 1
    old = state.gains[0, 0].copy()
    assert state.try_apply("exchange", 0, 2) is not None
    assert state.p.original[:2] == [2, 0]
    new = state.gains[0, 0]
    assert ((old == OUT) != (new == OUT)).any() and old[0] != new[0]
    assert table.stale[0]
    table.wake()
    assert (table.best_g[0], table.best_u[0]) == (-4, 1)
    assert bank_snapshot(state) == fresh_bank(state)


def test_settle_vertex_whose_net_goes_local_ends_without_a_partner():
    # vertex 0's one net goes local when its drain 1 moves onto FPGA 0: it
    # keeps its rows, as it has a net, but every move now cuts that net
    # and a replicate gains nothing; its only pair, with 1, shares its
    # FPGA, so it ends without an exchange entry
    h = Hypergraph.build([[1]] * 3, [(1, 0, [1]), (1, 1, [2])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 1, 2]))
    table = state.exchange
    table.wake()
    assert (table.best_g[0], table.best_u[0]) == (-1, 1)
    assert state.try_apply("move", 1, 0) is not None
    assert state.gains[0, 0].tolist() == [OUT, -1, -2]
    assert state.gains[1, 0].tolist() == [OUT, 0, 0]
    assert table.stale[0]
    table.wake()
    assert (table.best_g[0], table.best_u[0]) == (NONE, -1)
    assert bank_snapshot(state) == fresh_bank(state)


def test_exchange_without_a_partner_is_refused_and_changes_nothing():
    # vertices 0 and 1 share one net that lies wholly on FPGA 0 and have no
    # replica, so neither has an exchange entry: the table stores no
    # partner for them, and an exchange of either applies nowhere
    h = Hypergraph.build([[1]] * 4, [(1, 0, [1]), (1, 2, [3])])
    t = path_topology(3)
    state = RefineState(h, t, compute_hop_matrix(t), Placement([0, 0, 0, 1]))
    assert {op.v for op in state.entries() if op.kind == "exchange"} == {2, 3}
    before = bank_snapshot(state), state.p.copy(), state.thd
    for v in (0, 1):
        for f in range(t.k_fpgas):
            assert state.try_apply("exchange", v, f) is None
            assert (bank_snapshot(state), state.p, state.thd) == before
    assert not state.applied


def test_pair_corrections_on_demand_symmetric_and_exact():
    # corr(v, u) == corr(u, v), and after every op each correction the
    # settle kernel computes is the sum of the pair's shared-net terms
    # under the current placement, for every neighbour pair on two FPGAs
    checked = 0
    for seed in range(4):
        h, t, hm, p = tight_state(seed, n=20, m=36)
        state = RefineState(h, t, hm, p)

        def check(op, pl, thd):
            nonlocal checked
            corr = pair_corrections(state.exchange)
            orig = state.p.original
            assert set(corr) == {
                (v, u) for e in h.edges for v in e.members for u in e.members
                if orig[v] != orig[u]
            }
            for (v, u), c in corr.items():
                assert corr[u, v] == c
                shared = set(h.incidence[v]) & set(h.incidence[u])
                assert c == sum(reference_corr_term(state, e, v, u) for e in shared)
                checked += 1

        run_refine_loop(state, observer=check)
    assert checked >= 100


def test_exchange_settles_in_runs_of_a_few_rows(monkeypatch):
    # a settle scores its vertices in runs of at most CHUNK rows (the pins
    # of their nets), or of one vertex with more, so that a level with
    # millions of pairs keeps its temporaries small; small runs must refine
    # exactly as one run
    import mfspart._exchange as exchange

    h, t, hm, p = tight_state(5, n=20, m=36)
    whole = RefineState(h, t, hm, p)
    first = bank_snapshot(whole)
    run_refine_loop(whole)
    monkeypatch.setattr(exchange, "CHUNK", 40)
    runs = []
    best = ExchangeTable._best

    def recording(self, vs, bar):  # the rows of a run of several vertices
        runs.append(int(self.reach[vs].sum()) if len(vs) > 1 else 0)
        return best(self, vs, bar)

    monkeypatch.setattr(ExchangeTable, "_best", recording)
    state = RefineState(h, t, hm, p)
    assert bank_snapshot(state) == first
    assert len(runs) > 3 and max(runs) <= exchange.CHUNK and max(runs) > 0
    run_refine_loop(state)
    assert state.applied == whole.applied and state.p == whole.p


def test_exchange_table_reads_the_state_facts_in_place():
    # the state owns every fact a term or a pair gain reads and writes it
    # at each commit; the table was built with views of those arrays, the
    # state's count matrix and its pin index among them, so it keeps no
    # copy that a commit would have to hand over
    state = RefineState(*tight_state(4, n=20, m=36))
    table = state.exchange
    for mine, theirs in (
        (table.orig, state.orig),
        (table.host_hop, state.hop),
        (table.rep_hop, state.rep_hop),
        (table.move, state.gains),
        (table.cnt, state.cnt),
        (table.pins, state.index.pins),
        (table.pin_ptr, state.index.pin_ptr),
        (table.source, state.index.source),
        (table.inc, state.index.inc),
        (table.inc_ptr, state.index.inc_ptr),
    ):
        assert np.shares_memory(mine, theirs)
    run_refine_loop(state)
    assert state.applied
    p, hm, n = state.p, state.hm, state.h.num_vertices
    assert state.orig.tolist() == p.original
    assert state.hop.tolist() == [list(hm.nearest(p.hosts(v))[0]) for v in range(n)]
    far = [FAR] * state.kf
    reps = [list(hm.nearest(r)[0]) if r else far for r in p.replicas]
    assert any(p.replicas) and state.rep_hop.tolist() == reps


def test_refine_state_freed_with_its_last_reference():
    # the exchange table holds no reference back to the state, so even
    # without the cycle collector a level's state, its table with it, is
    # freed as soon as the last reference to it goes
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = RefineState(*tight_state(3, n=20, m=36))
        run_refine_loop(state)
        assert state.applied and state.exchange is not None
        refs = weakref.ref(state), weakref.ref(state.exchange)
        del state
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_exchange_upkeep_work_on_lean_600(monkeypatch):
    # pinned bytes cannot catch a change that keeps the output and scores
    # more vertices or more pair rows; these counts were recorded on
    # the lean-600 partition of PINNED_PARTITIONS when exchange bests came
    # to be settled on demand under the move-gain bound, and the upkeep may
    # not do more work than that
    counts = Counter()
    terms = ExchangeTable._terms
    best = ExchangeTable._best

    def counting_terms(self, e, *rest):
        counts["rows"] += len(e)
        return terms(self, e, *rest)

    def counting_best(self, vs, bar):
        counts["scored"] += len(vs)
        return best(self, vs, bar)

    monkeypatch.setattr(ExchangeTable, "_terms", counting_terms)
    monkeypatch.setattr(ExchangeTable, "_best", counting_best)
    b = gen_instance(3000, 600, 720, 8, 2, spare=0.4)
    run_pipeline(b.hypergraph, b.topology, n_seeds=1, assign_max_nodes=2000)
    assert 0 < counts["rows"] <= 13_178
    assert 0 < counts["scored"] <= 3_958
