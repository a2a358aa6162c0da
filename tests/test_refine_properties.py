"""Property tests of the refinement bank over generated op sequences."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mfspart.metrics import total_hop_distance
from mfspart.refine import RefineState

from conftest import bank_snapshot, fresh_bank, tight_state


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
