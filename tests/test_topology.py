import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from mfspart.model import ResourceVector
from mfspart.topology import (
    HopMatrix,
    MfsTopology,
    capacities_from_imbalance,
    compute_hop_matrix,
    hop_sum,
    mean_capacity,
)

from conftest import path_topology, ring_topology


def test_path_hops():
    hm = compute_hop_matrix(path_topology(3))
    assert hm.dist[0][2] == 2
    assert hm.dist[1][1] == 0
    assert hm.dist[0][1] == 1


def test_ring_of_four():
    hm = compute_hop_matrix(ring_topology(4))
    assert hm.dist[0][2] == 2
    assert hm.dist[0][3] == 1


def test_hop_matrix_is_one_read_only_array():
    # one (K, K) int64 array, read in place: as_array() hands out the
    # same object, no row copies exist, and no phase can write to it
    hm = compute_hop_matrix(ring_topology(5))
    assert hm.dist.shape == (5, 5) and hm.dist.dtype == np.int64
    assert hm.as_array() is hm.dist
    assert not hasattr(hm, "rows")
    with pytest.raises(ValueError):
        hm.dist[0, 1] = 7
    # nested rows are converted once, to an equal read-only array
    again = HopMatrix(tuple(map(tuple, hm.dist.tolist())))
    assert (again.dist == hm.dist).all() and not again.dist.flags.writeable
    # what leaves it is Python ints
    hop, server = hm.nearest({0, 2})
    assert all(type(x) is int for x in hop + server)
    assert server == (0, 0, 2, 2, 0)  # FPGA 1 is 1 hop from both: ties to 0
    assert type(hop_sum(ring_topology(5), hm, 3)) is int


def test_disconnected_reports_pair():
    caps = [ResourceVector([1]), ResourceVector([1])]
    t = MfsTopology(caps, [])
    with pytest.raises(ValueError, match=r"unreachable pair \(0, 1\)"):
        compute_hop_matrix(t)


def test_self_link_rejected():
    with pytest.raises(ValueError, match="self-link"):
        MfsTopology([ResourceVector([1])] * 3, [(2, 2)])


def test_duplicate_link_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MfsTopology([ResourceVector([1])] * 3, [(0, 1), (1, 0)])


def test_mean_capacity():
    caps = [ResourceVector([10]), ResourceVector([30])]
    t = MfsTopology(caps, [(0, 1)])
    assert mean_capacity(t) == (Fraction(20),)


def test_mean_capacity_identity():
    caps = [ResourceVector([7, 9])] * 3
    t = MfsTopology(caps, [(0, 1), (1, 2)])
    assert mean_capacity(t) == (Fraction(7), Fraction(9))


def test_mean_capacity_multitype():
    caps = [ResourceVector([2, 4]), ResourceVector([4, 8]), ResourceVector([6, 12])]
    t = MfsTopology(caps, [(0, 1), (1, 2)])
    assert mean_capacity(t) == (Fraction(4), Fraction(8))


def test_hop_sum_path():
    t = path_topology(3)
    hm = compute_hop_matrix(t)
    assert hop_sum(t, hm, 1) == 2
    assert hop_sum(t, hm, 0) == 3


def test_hop_sum_single_fpga():
    t = path_topology(1)
    hm = compute_hop_matrix(t)
    assert hop_sum(t, hm, 0) == 0


def test_hop_sum_penalty_branch():
    t = path_topology(3, hop_max=1)
    hm = compute_hop_matrix(t)
    # one in-range hop plus the 2 * hop_max penalty for the far FPGA
    assert hop_sum(t, hm, 0) == 1 + 2 * 1


def _random_connected(rng, k):
    links = set()
    nodes = list(range(k))
    rng.shuffle(nodes)
    for i in range(1, k):
        a, b = nodes[i], nodes[rng.randrange(i)]
        links.add((min(a, b), max(a, b)))
    for _ in range(rng.randrange(0, 2 * k)):
        a, b = rng.randrange(k), rng.randrange(k)
        if a != b:
            links.add((min(a, b), max(a, b)))
    caps = [ResourceVector([1])] * k
    return MfsTopology(caps, sorted(links))


def test_bfs_matches_floyd_warshall(rng):
    for _ in range(25):
        k = rng.randrange(2, 32)
        t = _random_connected(rng, k)
        hm = compute_hop_matrix(t)
        adj = np.zeros((k, k))
        for a, b in t.links:
            adj[a][b] = adj[b][a] = 1
        fw = floyd_warshall(adj, directed=False, unweighted=True)
        assert (hm.as_array() == fw.astype(int)).all()


def test_hop_matrix_invariants(rng):
    for _ in range(10):
        t = _random_connected(rng, rng.randrange(2, 20))
        dist = compute_hop_matrix(t).as_array()
        assert (dist == dist.T).all()
        assert (np.diag(dist) == 0).all()
        # triangle inequality
        k = dist.shape[0]
        for a in range(k):
            assert (dist[a][None, :] <= dist[a][:, None] + dist).all()


def test_hop_sum_relabel_equivariant(rng):
    k = 6
    t = _random_connected(rng, k)
    hm = compute_hop_matrix(t)
    perm = list(range(k))
    rng.shuffle(perm)
    relinks = sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in t.links
    )
    t2 = MfsTopology([ResourceVector([1])] * k, relinks)
    hm2 = compute_hop_matrix(t2)
    for f in range(k):
        assert hop_sum(t, hm, f) == hop_sum(t2, hm2, perm[f])


def test_capacities_from_imbalance():
    total = ResourceVector([100, 50])
    caps = capacities_from_imbalance(total, 4, 0.2)
    assert len(caps) == 4
    assert caps[0].values == (30, 15)
