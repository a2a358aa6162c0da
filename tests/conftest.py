import random
from collections import Counter

import numpy as np
import pytest

from mfspart.io import gen_instance
from mfspart.model import Hypergraph, Placement, ResourceVector
from mfspart.topology import MfsTopology, compute_hop_matrix


def path_topology(k, cap=100, types=1, io_limit=None, hop_max=None):
    caps = [ResourceVector([cap] * types) for _ in range(k)]
    links = [(i, i + 1) for i in range(k - 1)]
    limits = [io_limit] * k
    return MfsTopology(caps, links, limits, hop_max)


def ring_topology(k, cap=100, types=1):
    caps = [ResourceVector([cap] * types) for _ in range(k)]
    links = [(i, (i + 1) % k) for i in range(k)]
    return MfsTopology(caps, links)


def fanout_story(src_fpga):
    """Vertex 0 feeds vertex 1; vertex 1 feeds drains 2,3,4 on FPGA 2 and a
    local consumer 5 on its own FPGA 1.  Vertex 0 sits on `src_fpga`
    (path topology 0-1-2).  Replicating vertex 1 onto FPGA 2 makes the
    three fanout nets local at the cost of delivering the feeder net there."""
    h = Hypergraph.build(
        [[1]] * 6,
        [
            (1, 0, [1]),
            (1, 1, [2]),
            (1, 1, [3]),
            (1, 1, [4]),
            (1, 1, [5]),
        ],
    )
    t = path_topology(3, cap=100)
    p = Placement([src_fpga, 1, 2, 2, 2, 1])
    return h, t, p


def random_feasible_state(seed, n=24, m=48, k_fpgas=4, types=2, spare=0.6):
    """Generated instance plus a placement that passes validation."""
    from mfspart.cli import run_pipeline

    bundle = gen_instance(seed, n, m, k_fpgas, types, spare=spare)
    res = run_pipeline(
        bundle.hypergraph, bundle.topology, seed=seed, ops=("move", "exchange")
    )
    assert res.placement is not None
    return bundle.hypergraph, bundle.topology, res.placement


def tight_state(seed, n=14, m=26, k=3):
    """Generated instance with little spare capacity, plus a balanced
    random placement with a few replicas; many ops do not fit."""
    rng = random.Random(seed)
    b = gen_instance(seed, n, m, k, 1, spare=0.15)
    hm = compute_hop_matrix(b.topology)
    orig = [v % k for v in range(n)]
    rng.shuffle(orig)
    reps = [set() for _ in range(n)]
    for v in rng.sample(range(n), n // 4):
        reps[v].add(rng.choice([f for f in range(k) if f != orig[v]]))
    return b.hypergraph, b.topology, hm, Placement(orig, reps)


def bounded_state(seed, n=20, m=36, k=5, io_slack=2):
    """A refined placement on a path of k FPGAs, plus that path with I/O
    limits `io_slack` above the placement's per-FPGA I/O and a hop bound at
    its largest hop used, so that resource, I/O and hop limits all reject
    some ops.  None when the unbounded pipeline finds no placement."""
    from mfspart.cli import run_pipeline
    from mfspart.metrics import report

    b = gen_instance(seed, n, m, k, 1, spare=0.8, hub_fraction=0.2, hub_fanout=6)
    links = [(f, f + 1) for f in range(k - 1)]
    free = MfsTopology(b.topology.capacities, links)
    res = run_pipeline(b.hypergraph, free, seed=seed, n_seeds=1, assign_max_nodes=2000)
    if res.placement is None:
        return None
    hm = compute_hop_matrix(free)
    rep = report(b.hypergraph, free, res.placement, hm)
    limits = [io + io_slack for io in rep.fpga_io]
    t = MfsTopology(free.capacities, links, limits, rep.max_hop_used)
    return b.hypergraph, t, hm, res.placement


def shaken_bounded_state(seed, io_slack=2, steps=20):
    """`bounded_state` with its refined placement walked back by random
    original moves that each keep it valid, so that refinement has work to
    do under the bounds."""
    from mfspart.metrics import validate

    state = bounded_state(seed, io_slack=io_slack)
    if state is None:
        return None
    h, t, hm, p = state
    rng = random.Random(seed)
    done = 0
    for _ in range(3000):
        if done == steps:
            break
        v = rng.randrange(h.num_vertices)
        f = rng.randrange(t.k_fpgas)
        if f == p.original[v]:
            continue
        trial = p.copy()
        trial.set_original(v, f)
        if validate(h, t, trial, hm) == []:
            p = trial
            done += 1
    return h, t, hm, p


def bank_snapshot(state):
    """Every live bank entry as a sortable tuple, exchange partners included."""
    return sorted(
        (op.kind, op.v, op.dest, op.partner, op.partner_dest, op.gain)
        for op in state.entries()
    )


def fresh_bank(state):
    """The bank a new RefineState builds from scratch on the same placement."""
    from mfspart.refine import RefineState

    return bank_snapshot(RefineState(state.h, state.t, state.hm, state.p))


def pair_corrections(table):
    """corr(v, u) of every neighbour pair on two FPGAs, under both orders,
    as an exchange table's settle kernel computes it on demand."""
    v, u, gain, _ = table._pairs(np.arange(len(table.orig)))
    corr = gain - table.move[v, table.orig[u]] - table.move[u, table.orig[v]]
    return dict(zip(zip(v.tolist(), u.tolist()), corr.tolist()))


def reference_corr_term(state, e, a, b):
    """Net e's part of the exchange correction of members a and b, from
    the state's counts, originals and host mask, one Python branch per
    case."""
    edge = state.h.edges[e]
    s = edge.source
    cnt = state.cnt[e]
    orig, hosted = state.orig, state.hosted
    if s in (a, b):
        d = b if s == a else a
        ps, pd = orig[s], orig[d]
        term = state.hop[s][pd] if cnt[pd] <= 1 else 0
        if cnt[ps] == 0 and not hosted[d, ps]:
            copies = {f for f in range(state.kf) if hosted[s, f] and f != ps} | {pd}
            term += min(state.hm.dist[r][ps] for r in copies)
        return -edge.weight * term
    term = 0
    for x, y in ((a, b), (b, a)):
        if cnt[orig[x]] <= 1 and not hosted[y, orig[x]]:
            term += state.hop[s][orig[x]]
    return -edge.weight * term


def drain_counts(state):
    """The count matrix of `state`'s hypergraph under its placement: per
    net and FPGA, the number of the net's drains with a copy there."""
    h, p = state.h, state.p
    return [
        [sum(f in p.hosts(d) for d in e.drains) for f in range(state.kf)]
        for e in h.edges
    ]


def check_bank_after_every_attempt(state):
    """Make every `try_apply` on `state` assert, whether it applies its op
    or rejects it, that the bank then equals a fresh one and that the count
    matrix holds the placement's drain counts.  Returns a Counter of the
    attempts, by "applied" and "rejected"."""
    from mfspart.refine import RefineState

    counts = Counter()
    tried = state.try_apply

    def checked(kind, v, dest):
        op = tried(kind, v, dest)
        counts["rejected" if op is None else "applied"] += 1
        fresh = RefineState(state.h, state.t, state.hm, state.p)
        assert bank_snapshot(state) == bank_snapshot(fresh), (kind, v, dest, op)
        assert state.cnt.tolist() == drain_counts(state), (kind, v, dest, op)
        return op

    state.try_apply = checked
    return counts


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
