"""Inputs the generator rarely makes end cleanly and on time: each runs
through `run_pipeline` under default flags, lean flags and a zero time
limit, within a CPU bound of its own."""

import time
import tracemalloc

import pytest

from mfspart.cli import run_pipeline
from mfspart.io import gen_instance
from mfspart.metrics import report, validate

FLAGS = {
    "default": {},
    "lean": {"n_seeds": 1, "assign_max_nodes": 2000},
    "time-limit-0": {"time_limit": 0},
}

# (id, vertices, nets, generator keywords, status, CPU bound in seconds);
# K=8, 2 resource types and spare 0.4 unless a keyword says otherwise
CASES = [
    ("net-less", 50, 0, {}, "ok", 1),
    ("mostly-isolated", 300, 10, {}, "ok", 1),
    ("one-fpga", 200, 300, {"k_fpgas": 1}, "ok", 1),
    ("two-fpgas-three-types", 200, 300, {"k_fpgas": 2, "n_resource_types": 3}, "ok", 2),
    ("all-hub-nets", 150, 180, {"hub_fraction": 1.0, "hub_fanout": 64}, "ok", 8),
    ("wide-nets", 600, 720, {"hub_fraction": 0.01, "hub_fanout": 500}, "ok", 4),
    ("two-pin-nets", 150, 180, {"max_fanout": 1}, "ok", 2),
    ("one-vertex", 1, 0, {}, "ok", 1),
    ("one-net-one-fpga", 2, 1, {"k_fpgas": 1}, "ok", 1),
    ("no-spare", 200, 300, {"spare": 0}, "budget", 2),
    ("io-limit-0", 200, 300, {"io_limit": 0}, "budget", 2),
    ("hop-max-1", 200, 300, {"hop_max": 1}, "budget", 2),
]


@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
@pytest.mark.parametrize(
    "n, m, kwargs, status, cpu_s", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_rare_input_ends_cleanly_within_its_cpu_bound(n, m, kwargs, status, cpu_s, flags):
    kwargs = {"k_fpgas": 8, "n_resource_types": 2, "spare": 0.4, **kwargs}
    b = gen_instance(2, n, m, **kwargs)
    h, t = b.hypergraph, b.topology
    t0 = time.process_time()
    res = run_pipeline(h, t, **flags)
    assert time.process_time() - t0 < cpu_s
    assert res.status == status
    if status == "ok":
        assert validate(h, t, res.placement) == []
        assert res.thd == report(h, t, res.placement).total_hop_distance
    else:
        assert res.placement is None


def test_wide_nets_lean_run_peaks_below_10_mib():
    # nets of up to 494 pins: the exchange bests are scored on demand from
    # the pin index, with nothing stored per member pair, so the traced
    # peak of a lean run stays a few MiB
    b = gen_instance(2, 600, 720, 8, 2, spare=0.4, hub_fraction=0.01, hub_fanout=500)
    assert max(len(e) for e in b.hypergraph.edges) > 400
    tracemalloc.start()
    try:
        res = run_pipeline(b.hypergraph, b.topology, **FLAGS["lean"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "ok"
    assert peak < 10 * 2**20
