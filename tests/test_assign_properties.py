"""Property test of the assignment DFS against the brute-force oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mfspart.assign import SearchBudget, dfs_assign
from mfspart.io import gen_instance
from mfspart.metrics import total_hop_distance, validate
from mfspart.oracle import exhaustive_partition
from mfspart.topology import MfsTopology, compute_hop_matrix

# stall_delta ~ 0 never triggers on integer THDs, so deep backtracking is off
EXHAUSTIVE = SearchBudget(max_solutions=None, stall_delta=1e-9, max_nodes=None)


@st.composite
def tiny_instances(draw):
    """A generated hypergraph of at most 7 vertices on at most 4 FPGAs,
    with drawn hop bound and per-FPGA I/O budgets; many are infeasible."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    m = 0 if n == 1 else draw(st.integers(0, 12))
    b = gen_instance(
        draw(st.integers(0, 10_000)), n, m, k, draw(st.integers(1, 2)),
        spare=draw(st.sampled_from([0.0, 0.3, 1.0])),
        hub_fraction=draw(st.sampled_from([0.0, 0.5])),
        hub_fanout=6,
    )
    io_limits = draw(st.lists(st.none() | st.integers(0, 12), min_size=k, max_size=k))
    hop_max = draw(st.none() | st.integers(1, 3))
    t = MfsTopology(b.topology.capacities, b.topology.links, io_limits, hop_max)
    return b.hypergraph, t


@settings(max_examples=150, deadline=None)
@given(inst=tiny_instances())
def test_exhaustive_dfs_equals_oracle(inst):
    h, t = inst
    hm = compute_hop_matrix(t)
    ref_p, ref_thd = exhaustive_partition(h, t, hm)
    res = dfs_assign(h, t, hm, EXHAUSTIVE)
    assert res.status == "complete"
    assert res.thd == ref_thd
    assert (res.placement is None) == (ref_p is None)
    if res.placement is not None:
        assert validate(h, t, res.placement, hm) == []
        assert total_hop_distance(h, res.placement, hm) == ref_thd
