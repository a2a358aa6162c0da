"""Property tests of the refinement bank over generated op sequences."""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfspart._exchange import OUT
from mfspart.metrics import report, total_hop_distance, validate
from mfspart.model import drain_fpgas
from mfspart.oracle import apply_op
from mfspart.refine import (
    FPGA_KINDS,
    RefineState,
    gain_delete,
    gain_exchange,
    gain_move,
    gain_replicate,
    run_refine_loop,
)
from mfspart.topology import compute_hop_matrix

from conftest import (
    bank_snapshot,
    bounded_state,
    check_bank_after_every_attempt,
    drain_counts,
    fresh_bank,
    pair_corrections,
    random_feasible_state,
    reference_corr_term,
    shaken_bounded_state,
    tight_state,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([(10, 18, 3), (14, 26, 3), (16, 30, 4)]),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=30),
)
def test_bank_equals_fresh_bank_after_every_applied_op(seed, size, picks):
    n, m, k = size
    h, t, hm, p = tight_state(seed, n=n, m=m, k=k)
    state = RefineState(h, t, hm, p)
    for pick in picks:
        entries = list(state.entries())
        if not entries:
            break
        op = entries[pick % len(entries)]
        before = bank_snapshot(state)
        if state.try_apply(op.kind, op.v, op.dest) is None:
            assert bank_snapshot(state) == before  # a rejection changes nothing
            continue
        assert bank_snapshot(state) == fresh_bank(state)
        assert state.thd == total_hop_distance(h, state.p, hm)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=20),
)
def test_bounded_try_apply_matches_validate_and_fresh_bank(seed, picks):
    """Under binding resource, I/O and hop limits: an entry is applied
    exactly when its result validates, and every commit leaves the counters
    and the bank as a fresh state would have them."""
    state_args = bounded_state(seed)
    assume(state_args is not None)
    h, t, hm, p = state_args
    state = RefineState(h, t, hm, p)
    for pick in picks:
        entries = list(state.entries())
        if not entries:
            break
        op = entries[pick % len(entries)]
        trial = state.p.copy()
        apply_op(trial, op)
        feasible = validate(h, t, trial, hm) == []
        assert (state.try_apply(op.kind, op.v, op.dest) is not None) == feasible
        if feasible:
            assert state.io == report(h, t, state.p, hm).fpga_io
            assert state.thd == total_hop_distance(h, state.p, hm)
            assert bank_snapshot(state) == fresh_bank(state)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), bounded=st.booleans())
def test_refine_loop_bank_equals_fresh_bank_after_every_op(seed, bounded):
    """The loop in its own op order, rejections included: after every
    attempt, applied or rejected, the bank is a fresh one."""
    if bounded:
        state_args = shaken_bounded_state(seed, steps=10)
        assume(state_args is not None)
    else:
        state_args = tight_state(seed, n=20, m=36)
    state = RefineState(*state_args)
    check_bank_after_every_attempt(state)
    run_refine_loop(state)


_SCRATCH_GAINS = {"move": gain_move, "replicate": gain_replicate, "delete": gain_delete}


def _check_rows(state):
    """Every slot of `state.gains` from scratch and against `entries()`.
    A vertex has entries when it has a replica or a net; its slot of a
    kept kind then holds the op's gain where the op applies, and every
    other slot is OUT.  A kept kind is an enabled one, or move while
    exchange, which reads the move rows, is enabled; any other kind is
    all OUT.  A slot of an enabled kind is not OUT exactly when
    `entries()` lists it, at that gain."""
    h, hm, p = state.h, state.hm, state.p
    applies = {
        "move": lambda v, f: f != p.original[v],
        "replicate": lambda v, f: f not in p.hosts(v),
        "delete": lambda v, f: f in p.replicas[v],
    }
    listed = {
        (op.kind, op.v, op.dest): op.gain for op in state.entries() if op.kind != "exchange"
    }
    slots = 0
    for k, kind in enumerate(FPGA_KINDS):
        rows = state.gains[k].tolist()
        if kind not in state.enabled and not (kind == "move" and "exchange" in state.enabled):
            assert all(g == OUT for row in rows for g in row), kind
            continue
        for v, row in enumerate(rows):
            entries = bool(p.replicas[v]) or bool(h.incidence[v])
            for f, g in enumerate(row):
                expected = (
                    _SCRATCH_GAINS[kind](h, p, hm, v, f)
                    if entries and applies[kind](v, f) else OUT
                )
                assert g == expected, (kind, v, f)
                if kind in state.enabled and g != OUT:
                    assert listed[kind, v, f] == g, (kind, v, f)
                    slots += 1
    assert len(listed) == slots


def _walk_checking_corr_and_rows(state, picks):
    """Apply the picked entries one by one.  After every applied op, each
    kept correction between two FPGAs must equal the exchange gain less
    the two move gains, in both orders, the gain rows must hold their
    from-scratch gains, as `entries()` lists them (`_check_rows`), every
    correction the settle kernel computes must equal the sum of the pair's
    shared-net terms as `reference_corr_term` reads them, and the state's
    count matrix must hold the placement's drain counts.
    Returns how many applied ops had a touched vertex sourcing a net, and
    how many checked pairs share more than one net."""
    h, hm = state.h, state.hm
    sourcing_ops = multi_net_pairs = 0
    for pick in picks:
        entries = list(state.entries())
        if not entries:
            break
        op = entries[pick % len(entries)]
        if state.try_apply(op.kind, op.v, op.dest) is None:
            continue
        p = state.p
        touched = {op.v, op.partner} - {None}
        sourcing_ops += any(e.source in touched for e in h.edges)
        assert state.cnt.tolist() == drain_counts(state)
        corr = pair_corrections(state.exchange)
        assert corr
        for (a, b), c in corr.items():
            assert corr[b, a] == c
            shared = set(h.incidence[a]) & set(h.incidence[b])
            assert c == sum(reference_corr_term(state, e, a, b) for e in shared), (a, b)
            pa, pb = p.original[a], p.original[b]
            expected = (
                gain_exchange(h, p, hm, a, b)
                - gain_move(h, p, hm, a, pb)
                - gain_move(h, p, hm, b, pa)
            )
            assert c == expected, (a, b)
            multi_net_pairs += len(shared) > 1
        _check_rows(state)
    return sourcing_ops, multi_net_pairs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bounded=st.booleans(),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=25),
)
def test_pair_corrections_and_move_rows_exact_after_every_op(seed, bounded, picks):
    """Corrections kept by per-net deltas stay exact on tight states and
    under binding resource, I/O and hop limits."""
    if bounded:
        state_args = bounded_state(seed)
        assume(state_args is not None)
    else:
        state_args = tight_state(seed, n=16, m=30, k=4)
    _walk_checking_corr_and_rows(RefineState(*state_args), picks)


def test_corr_walk_covers_sourced_and_multi_net_pairs():
    # the walks above do reach the cases the deltas must get right: a
    # touched vertex that sources a shared net, and pairs sharing 2+ nets
    sourcing_ops = multi_net_pairs = 0
    for seed in range(3):
        state = RefineState(*tight_state(seed, n=16, m=30, k=4))
        counts = _walk_checking_corr_and_rows(state, range(0, 1500, 13))
        sourcing_ops += counts[0]
        multi_net_pairs += counts[1]
    assert sourcing_ops >= 20 and multi_net_pairs >= 100


@pytest.mark.parametrize("options", [
    {"max_replicas": 1},
    {"ops": ("move", "exchange", "replicate")},
    {"ops": ("move", "replicate", "delete")},
    {"ops": ("exchange", "replicate", "delete")},
    {"ops": ("replicate", "delete")},
], ids=["replicate-capped", "no-delete", "no-exchange", "no-move", "no-move-or-exchange"])
def test_gain_rows_exact_with_a_kind_disabled(options):
    # the gain rows stay exact, and a disabled replicate or delete stays
    # all OUT, whether the kind is left out from the start or the
    # replicate cap binds partway through the loop; the move rows are
    # kept for the exchange table, and all OUT without move or exchange
    checked = capped = 0
    for seed in range(3):
        state = RefineState(*tight_state(seed, n=20, m=36), **options)

        def check(op, pl, thd):
            nonlocal checked
            _check_rows(state)
            checked += 1

        run_refine_loop(state, observer=check)
        capped += "replicate" not in state.enabled
    assert checked >= 10
    assert capped == (3 if "max_replicas" in options else 0)


def _check_local_vertices(state):
    """Every vertex that has no replica and whose nets have every copy on
    its FPGA lists no entry selection could take: each move gain is
    negative, each replicate gain at most zero, and it has no exchange
    entry.  Returns how many such vertices list a move entry."""
    h, p = state.h, state.p
    exchanges = {op.v for op in state.entries() if op.kind == "exchange"}
    listed = 0
    for v in range(h.num_vertices):
        home = {p.original[v]}
        if p.replicas[v] or not all(
            p.hosts(x) == home for e in h.incidence[v] for x in h.edges[e].members
        ):
            continue
        move, rep = (row[row != OUT] for row in state.gains[:2, v])
        assert (move < 0).all() and (rep <= 0).all(), v
        assert v not in exchanges, v
        listed += len(move) > 0
    return listed


@pytest.mark.parametrize("options", [
    {},
    {"allow_zero_gain": True},
    {"ops": ("move", "exchange")},
    {"ops": ("move", "exchange"), "allow_zero_gain": True},
], ids=["default", "zero-gain", "move-exchange", "move-exchange-zero-gain"])
def test_vertex_whose_nets_lie_on_its_fpga_lists_nothing_selectable(options):
    # a vertex with a net keeps its rows even when every one of its nets
    # lies wholly on its FPGA: selection must never be able to take one,
    # under zero-gain acceptance too, after every attempt of the loop; at
    # half as many nets as vertices, such vertices occur on most seeds
    listed = 0
    for seed in range(3):
        h, t, p = random_feasible_state(seed, n=30, m=15)
        for state_args in ((h, t, compute_hop_matrix(t), p), tight_state(seed, n=30, m=15)):
            state = RefineState(*state_args, **options)
            listed += _check_local_vertices(state)
            tried = state.try_apply

            def checked(kind, v, dest, state=state, tried=tried):
                nonlocal listed
                op = tried(kind, v, dest)
                listed += _check_local_vertices(state)
                return op

            state.try_apply = checked
            run_refine_loop(state)
    assert listed > 0


def _scratch_aggregates(state, v):
    """copy_cost, src_w and the sourced-net terms of v, from their
    definitions under the current placement."""
    h, hm, p = state.h, state.hm, state.p
    hosts = p.hosts(v)
    copy_cost = [0] * state.kf
    src_w = {}
    for e in h.edges:
        if e.source == v:
            for f in drain_fpgas(h, e.id, p):
                src_w[f] = src_w.get(f, 0) + e.weight
        elif v in e.drains:
            others = set()
            for d in e.drains:
                if d != v:
                    others |= p.hosts(d)
            hop = hm.nearest(p.hosts(e.source))[0]
            for f in range(state.kf):
                if f not in others:
                    copy_cost[f] += e.weight * hop[f]

    def sourced_cost(host_set):
        hop = hm.nearest(host_set)[0]
        return sum(w * hop[g] for g, w in src_w.items())

    reps = p.replicas[v]
    src_now = sourced_cost(hosts)
    move_col = [sourced_cost(reps | {f}) for f in range(state.kf)]
    rep_col = [sourced_cost(hosts | {f}) for f in range(state.kf)]
    falls = {r: src_now - sourced_cost(hosts - {r}) for r in reps}
    return copy_cost, src_w, (src_now, move_col, rep_col, falls)


def _walk_checking_aggregates(state, picks):
    """Apply the picked entries one by one.  After every applied op, each
    vertex's copy costs, sourced weights and sourced-net terms, as the
    array pass computes them (the falls read off its delete rows), must
    equal their definitions.  Returns how many applied ops touched the
    source of a net, exchanged two drains of one net, and deleted a
    vertex's last replica."""
    h = state.h
    cases = Counter()
    for pick in picks:
        entries = list(state.entries())
        if not entries:
            break
        op = entries[pick % len(entries)]
        if state.try_apply(op.kind, op.v, op.dest) is None:
            continue
        touched = {op.v, op.partner} - {None}
        for e in h.edges:
            if e.source in touched:
                cases["touched source"] += 1
                break
        if op.kind == "exchange" and any(
            op.v in e.drains and op.partner in e.drains for e in h.edges
        ):
            cases["exchanged drains"] += 1
        if op.kind == "delete" and not state.p.replicas[op.v]:
            cases["last replica deleted"] += 1
        sums = state._sums(np.arange(h.num_vertices))
        for v, (cc, sw, src_now, move_col, rep_col) in enumerate(zip(*(x.tolist() for x in sums))):
            copy_cost, src_w, terms = _scratch_aggregates(state, v)
            assert cc == copy_cost, v
            assert {f: w for f, w in enumerate(sw) if w} == src_w, v
            falls = {r: int(state.gains[2, v, r]) - cc[r] for r in state.p.replicas[v]}
            assert (src_now, move_col, rep_col, falls) == terms, v
    return cases


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bounded=st.booleans(),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=25),
)
def test_aggregates_exact_after_every_op(seed, bounded, picks):
    """Aggregates kept by per-net deltas stay exact on tight states and
    under binding resource, I/O and hop limits."""
    if bounded:
        state_args = bounded_state(seed)
        assume(state_args is not None)
    else:
        state_args = tight_state(seed, n=16, m=30, k=4)
    _walk_checking_aggregates(RefineState(*state_args), picks)


def test_aggregate_walk_covers_the_delta_cases():
    # the walks above do reach the cases the deltas must get right: a
    # touched source, two drains of one net swapping FPGAs (coverage
    # changes with no count changing), and a delete of a last replica
    cases = Counter()
    for seed in range(3):
        state = RefineState(*tight_state(seed, n=16, m=30, k=4))
        cases += _walk_checking_aggregates(state, range(0, 1500, 13))
    assert cases["touched source"] >= 10, cases
    assert cases["exchanged drains"] >= 3, cases
    assert cases["last replica deleted"] >= 3, cases
