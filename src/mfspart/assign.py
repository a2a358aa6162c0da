"""Initial placement: heat-ordered depth-first search with pruning.

Hypernodes are placed in descending node-heat order, trying FPGAs in
descending FPGA-heat order.  A branch dies when the partial cost already
matches the incumbent, a per-FPGA I/O budget is exceeded, or a resource
capacity is exceeded.  When consecutive complete solutions are nearly
equal, the search retreats to a fraction of the current depth and abandons
that whole subtree, which forces it into a different region.

Each node of the search is cheap because of four facts.  A net's cost is
known exactly when its last member in the visit order is placed, so every
net is listed once, at that depth (its completion list), and costed there
only.  The placed prefix does not change while a depth cycles through its
FPGAs, so a depth takes one candidate row: per FPGA, the cost the vertex
would add there, or None when it breaks the hop bound.  That row is the
cost half of a candidate.  It depends only on where the depth's
dependency set, the other members of the nets it completes, was placed;
so it is memoized per depth, keyed by those FPGAs.  The memo pays off on
sparse graphs, where it hits on nearly every depth entry; on a coarsest
graph with wide dependency sets nearly every entry computes a fresh row.
The fit half, whether the vertex fits the capacity left, changes with
every placement and is tested afresh at each candidate.  A candidate is
then a row lookup, the incumbent prune, the fit test and, only when some
FPGA has an I/O limit, that check.

Most nodes are not visited at all: they are charged in bulk.  With each
row the memo keeps its suffix minima, the smallest cost at each slot or
after it.  Once that minimum reaches the incumbent's limit, every slot
left at the depth fails the prune, so the scan stops and counts them in
one sum.  A candidate that passes every test looks its child's row up
before it is placed; a child whose smallest cost reaches the limit left
after the candidate is counted as its K nodes without being entered.  A
charged node is one the incumbent prune rejects, a test that comes
before the fit and I/O tests and changes nothing, so the search meets the
same solutions in the same order with the same node count as one that
visits every node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import inf
from operator import itemgetter

import numpy as np

from .model import Hypergraph, Placement
from .seeds import pcg64_uniform
from .topology import HopMatrix, MfsTopology, hop_sum


@dataclass
class HeatScores:
    fpga_heat: list[float]
    node_heat: list[float]


@dataclass
class SearchBudget:
    max_solutions: int | None = 32
    stall_delta: float = 0.02
    rho: float = 0.3
    max_nodes: int | None = 20_000

    def __post_init__(self):
        if not (0 < self.stall_delta < 1):
            raise ValueError("stall_delta must be in (0, 1)")
        if not (0 < self.rho < 1):
            raise ValueError("rho must be in (0, 1)")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be at least 1")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")


@dataclass
class AssignResult:
    placement: Placement | None
    thd: int | None
    status: str  # "complete": search space exhausted; "budget": stopped early
    solutions: int = 0
    nodes: int = 0
    rows: int = 0  # candidate rows computed; the rest of the depth entries hit the memo


def fpga_heat(t: MfsTopology, hm: HopMatrix, f: int) -> float:
    """Squared capacity mass over hop-sum; larger means big and central."""
    if t.k_fpgas == 1:
        return 1.0
    num = sum(c * c for c in t.capacities[f])
    return num / hop_sum(t, hm, f)


def node_heats(h: Hypergraph) -> list[float]:
    """Per vertex, connected signal volume times squared resource usage:
    the weight of its nets times the sum of its squared weights, each
    exact in a float (a bincount sums the weights)."""
    w = h.weight_matrix()
    volume = np.bincount(h.pins, h.weight[h.pin_net], h.num_vertices)
    return (volume * (w * w).sum(1)).tolist()


def node_heat(h: Hypergraph, v: int) -> float:
    """The heat of vertex v (see `node_heats`)."""
    return node_heats(h)[v]


def compute_heats(h: Hypergraph, t: MfsTopology, hm: HopMatrix) -> HeatScores:
    return HeatScores(
        fpga_heat=[fpga_heat(t, hm, f) for f in range(t.k_fpgas)],
        node_heat=node_heats(h),
    )


def perturb_heats(heats: HeatScores, seed: int) -> HeatScores:
    """Multiplicative jitter, uniform in [0.9, 1.1], on the node heats.

    The jitter is `seeds.pcg64_uniform`, the stream of numpy's
    `default_rng(seed).uniform(0.9, 1.1, n)` written out in Python ints,
    so a search imports no `numpy.random` and its visit order does not
    depend on the installed numpy.
    """
    jitter = pcg64_uniform(seed, 0.9, 1.1, len(heats.node_heat))
    return HeatScores(
        fpga_heat=list(heats.fpga_heat),
        node_heat=[h * j for h, j in zip(heats.node_heat, jitter)],
    )


def should_deep_backtrack(thd_prev: int, thd_new: int, delta: float) -> bool:
    """Stall detector: consecutive solutions differ by less than delta."""
    if thd_prev <= 0:
        return False
    return abs(thd_new - thd_prev) / thd_prev < delta


def backtrack_depth(depth: int, rho: float) -> int:
    return int(rho * depth)


def _no_slots(asg: list[int]) -> tuple[()]:
    """Memo key of a depth whose completing nets read no other slot."""
    return ()


def dfs_assign(
    h: Hypergraph,
    t: MfsTopology,
    hm: HopMatrix,
    budget: SearchBudget,
    heats: HeatScores | None = None,
    *,
    deadline: float | None = None,
) -> AssignResult:
    """Best feasible unreplicated placement found within the budget.

    status "complete" with a placement means the search space was
    exhausted, so the result is optimal for this objective; "complete"
    without a placement proves infeasibility.  A `deadline` (a
    `time.monotonic()` value, read whenever the node count passes a multiple of
    1000) stops it with "budget" at that multiple.
    """
    if h.num_vertices == 0:
        return AssignResult(Placement([]), 0, "complete", 1, 0)
    if heats is None:
        heats = compute_heats(h, t, hm)
    n = h.num_vertices
    kf = t.k_fpgas
    krt = t.num_resource_types
    order = sorted(range(n), key=lambda v: (-heats.node_heat[v], v))
    fpga_order = sorted(range(kf), key=lambda f: (-heats.fpga_heat[f], f))
    # FPGAs are renumbered by heat rank: slot i is fpga_order[i], so every
    # depth tries slots 0..kf-1 in order.  Only the result is mapped back.
    dist = hm.dist[np.ix_(fpga_order, fpga_order)].tolist()
    dist_t = [list(col) for col in zip(*dist)]  # dist_t[d][f] == dist[f][d]
    io_limits = [t.io_limits[f] for f in fpga_order]
    io_limited = any(l is not None for l in io_limits)
    hop_max = t.hop_max
    node_cap = inf if budget.max_nodes is None else budget.max_nodes
    max_solutions = budget.max_solutions
    # Capacity left per slot, every resource type packed into one int: the
    # `width`-bit field r holds room_r + 2**(width - 1), which exceeds every
    # capacity and weight, so subtracting a packed weight borrows across no
    # field and leaves each field's top bit set exactly when that resource
    # still fits.
    weights = h.weight_matrix().tolist()
    amounts = [x for c in t.capacities for x in c] + [x for w in weights for x in w]
    width = max(amounts, default=0).bit_length() + 1

    def pack(vals) -> int:
        return sum(x << (r * width) for r, x in enumerate(vals))

    guard = pack([1 << (width - 1)] * krt)
    room = [pack(t.capacities[f]) + guard for f in fpga_order]
    wts = [pack(weights[v]) for v in order]  # per depth

    # A net is costed once, at the depth of its last member in `order`;
    # the entry keeps the drains other than the vertex placed there.  A
    # depth's row reads the slots of every other member of those nets,
    # sources included, and nothing else that changes: its dependency set,
    # whose slots key the depth's memo.
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    completing: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
    for w, ms in zip(h.weight.tolist(), h.members):
        d = max(pos[m] for m in ms)
        v = order[d]
        others = tuple(x for x in ms[1:] if x != v)
        completing[d].append((ms[0], others, w))
    slots_read = []
    for d, v in enumerate(order):
        deps = sorted({x for src, others, _ in completing[d] for x in (src, *others)} - {v})
        slots_read.append(itemgetter(*deps) if deps else _no_slots)
    memo: list[dict] = [{} for _ in range(n)]

    # Slot per vertex of the placed prefix.  A candidate's slot is written
    # before its child's row is looked up, so the vertex of the depth being
    # scanned may hold the last slot tried; nothing reads it until placed.
    asg = [-1] * n
    io = [0] * kf
    partial = 0

    best_asg: list[int] | None = None
    best_thd: int | None = None
    prev_thd: int | None = None
    solutions = 0
    nodes = 0
    status = "complete"

    # Per depth: the candidate row (cost per slot, None where the hop bound
    # breaks) with its suffix minima, and the undo record (slot, cost
    # added, I/O added per slot) of the placed candidate.
    rows: list[tuple[list[int | None], list[float]]] = [([], [])] * n
    undo: list[tuple[int, int, dict[int, int] | None]] = [(0, 0, None)] * n
    cand_idx = [0] * (n + 1)
    dead = ([None] * kf, [inf] * (kf + 1))

    def cost_row(depth: int) -> tuple[list[int | None], list[float]]:
        """Cost the completed nets add with order[depth] on each slot, None
        where one of them would break hop_max (all None when drains placed
        earlier already break it), and the row's suffix minima: entry i is
        the smallest cost at slots i and after, inf past the last."""
        v = order[depth]
        add = [0] * kf
        worst = [0] * kf  # worst hop of the completed nets, per slot
        for src, others, w in completing[depth]:
            hosts = set(map(asg.__getitem__, others))
            if src == v:
                # from source slot f, drain slot d costs dist[f][d]
                for d in hosts:
                    col = dist_t[d]
                    add = [a + w * x for a, x in zip(add, col)]
                    if hop_max is not None:
                        worst = list(map(max, worst, col))
            else:
                srow = dist[asg[src]]
                hops = list(map(srow.__getitem__, hosts))
                if hop_max is not None:
                    if max(hops, default=0) > hop_max:
                        return dead
                    worst = list(map(max, worst, srow))
                # slot f adds srow[f] unless another drain already sits on f
                units = sum(hops)
                add = [a + w * (units + x) for a, x in zip(add, srow)]
                for d in hosts:
                    add[d] -= w * srow[d]
        if hop_max is not None:
            add = [a if x <= hop_max else None for a, x in zip(add, worst)]
        tail = [inf] * (kf + 1)
        low = inf
        for i in range(kf - 1, -1, -1):
            if add[i] is not None and add[i] < low:
                low = add[i]
            tail[i] = low
        return add, tail

    def io_added(f: int, depth: int) -> dict[int, int]:
        """Per-slot I/O the nets completing at `depth` add with order[depth]
        on slot f: every drain slot other than the source's imports w, and
        the source's exports w once if any drain slot imports."""
        v = order[depth]
        added: dict[int, int] = {}
        for src, others, w in completing[depth]:
            hosts = set(map(asg.__getitem__, others))
            if src == v:
                s = f
            else:
                s = asg[src]
                hosts.add(f)
            external = False
            for d in hosts:
                if d != s:
                    added[d] = added.get(d, 0) + w
                    external = True
            if external:
                added[s] = added.get(s, 0) + w
        return added

    # Nodes are counted once per scan of a depth.  The search stops with
    # "budget" at node_cap + 1, or at a multiple of 1000 once the deadline
    # has passed; the clock is read when a scan reaches the next multiple.
    next_read = inf if deadline is None else 1000
    stop_at = min(next_read, node_cap + 1)
    rows[0] = memo[0][()] = cost_row(0)  # depth 0 reads no other slot
    depth = 0
    while True:
        if depth == n:
            # Complete solution; the incumbent-THD prune guarantees strict improvement.
            solutions += 1
            best_thd = partial
            best_asg = list(asg)
            if max_solutions is not None and solutions >= max_solutions:
                status = "budget"
                break
            if prev_thd is not None and should_deep_backtrack(
                prev_thd, partial, budget.stall_delta
            ):
                target = backtrack_depth(depth, budget.rho)
            else:
                target = depth - 1
            prev_thd = partial
        else:
            # Scan from the depth's next slot while some slot left costs
            # less than the limit.  A candidate that passes every test is
            # placed unless its child is dead: then the child's kf nodes
            # are charged and the scan goes on.
            start = i = cand_idx[depth]
            row, tail = rows[depth]
            wv = wts[depth]
            limit = inf if best_thd is None else best_thd - partial
            child = depth + 1
            # a candidate at slot i - 1 is node nodes + i - start + charged
            allowance = node_cap - nodes + start
            charged = 0
            f = -1
            added = None
            while tail[i] < limit:
                cost = row[i]
                i += 1
                if cost is None or cost >= limit or (room[i - 1] - wv) & guard != guard:
                    continue
                if io_limited:
                    added = io_added(i - 1, depth)
                    if any(
                        io_limits[g] is not None and io[g] + a > io_limits[g]
                        for g, a in added.items()
                    ):
                        continue
                if child < n:
                    if i + charged > allowance:
                        break  # past the cap: its child's row is never needed
                    # the child's row from its memo; whether its vertex fits
                    # is tested at each of its candidates, as `room` changes
                    asg[order[depth]] = i - 1
                    key = slots_read[child](asg)
                    entry = memo[child].get(key)
                    if entry is None:
                        entry = memo[child][key] = cost_row(child)
                    if entry[1][0] >= limit - cost:
                        charged += kf
                        continue
                    rows[child] = entry
                f = i - 1
                break
            else:
                i = kf  # every slot left fails the prune
            nodes += i - start + charged
            if nodes >= stop_at:
                if nodes >= next_read:
                    if next_read <= node_cap and time.monotonic() >= deadline:
                        nodes = next_read
                        status = "budget"
                        break
                    next_read = nodes - nodes % 1000 + 1000
                if nodes > node_cap:
                    nodes = node_cap + 1
                    status = "budget"
                    break
                stop_at = min(next_read, node_cap + 1)
            cand_idx[depth] = i
            if f >= 0:
                if added:
                    for g, a in added.items():
                        io[g] += a
                room[f] -= wv
                asg[order[depth]] = f
                partial += cost
                undo[depth] = (f, cost, added)
                depth = child
                cand_idx[depth] = 0
                continue
            if depth == 0:
                break  # exhausted: proven result
            target = depth - 1
        while depth > target:
            depth -= 1
            f, cost, added = undo[depth]
            asg[order[depth]] = -1
            partial -= cost
            room[f] += wts[depth]
            if added:
                for g, a in added.items():
                    io[g] -= a

    placement = None if best_asg is None else Placement([fpga_order[f] for f in best_asg])
    return AssignResult(placement, best_thd, status, solutions, nodes, sum(map(len, memo)))


def parallel_assign(
    h: Hypergraph,
    t: MfsTopology,
    hm: HopMatrix,
    budget: SearchBudget,
    seeds: list[int],
    *,
    deadline: float | None = None,
) -> AssignResult:
    """Independent searches with per-seed heat jitter; deterministic
    reduction to the lowest THD, ties to the lowest seed value.

    The seeds run one after another in this process; "parallel" names the
    portfolio, not the execution.  Keeping it in-process keeps CPU-time
    measurements of a run complete.

    A search that exhausts its space proves optimality (or infeasibility)
    for the whole portfolio, so remaining seeds are skipped: the visit
    order cannot change what an exhaustive search finds.

    `deadline` (a `time.monotonic()` value) bounds the whole portfolio:
    every search stops at it, and no search after the first starts once
    it has passed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    base = compute_heats(h, t, hm)
    best: AssignResult | None = None
    best_key: tuple | None = None
    total_nodes = 0
    total_solutions = 0
    total_rows = 0
    any_complete_infeasible = False
    for idx, seed in enumerate(seeds):
        if idx and deadline is not None and time.monotonic() >= deadline:
            break
        res = dfs_assign(h, t, hm, budget, perturb_heats(base, seed), deadline=deadline)
        total_nodes += res.nodes
        total_solutions += res.solutions
        total_rows += res.rows
        if res.placement is None:
            if res.status == "complete":
                any_complete_infeasible = True
                break
            continue
        key = (res.thd, seed, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = res
        if res.status == "complete":
            break
    if best is None:
        status = "complete" if any_complete_infeasible else "budget"
        return AssignResult(None, None, status, total_solutions, total_nodes, total_rows)
    return AssignResult(
        best.placement, best.thd, best.status, total_solutions, total_nodes, total_rows
    )
