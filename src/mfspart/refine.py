"""Refinement: move, exchange, replicate, and delete driven by gain heaps.

The bank is one table, `bank[kind][f]`: a heap per destination FPGA for
each of move, replicate and delete.  Exchange entries sit in one heap
keyed by vertex, with the best partner alongside.  The loop applies the
globally best operation whose gain passes its acceptance rule (delete runs
at zero gain to free resources, everything else needs strictly positive
gain) and that fits its destination's resources, re-checks the I/O and
hop bounds at application time, and then refreshes only the entries the
operation can have changed.

A prospective operation is a map {vertex: frozenset of its new hosts},
built by `_change`, which holds each kind's precondition.  The state
keeps, per edge, the count of drain copies on each FPGA; an operation is
evaluated by applying its host changes to copies of the affected edges'
counts and reading the source's nearest-copy rows (`HopMatrix.nearest`)
over them, which gives each edge's units, worst hop and I/O contribution.
On commit those same counts are installed.

The refresh is driven by count transitions, as in FM-style delta gain
updates.  A vertex's move, replicate and delete entries read, per incident
edge, the source's hosts and only the part of the drain counts its own
copies do not account for.  So the commit compares each changed edge's
counts before and after, and rebuilds the touched vertices, every drain of
an edge whose source was touched, the source of an edge whose covered
FPGAs changed, and a drain for which the FPGAs other drains cover changed
(a count crossing 0|1 at an FPGA it does not host, or 1|2 at one it
does); see `_dirty`.

An exchange gain is the two endpoints' move gains plus a shared-edge
correction, so move entries are banked whenever exchange is enabled, even
when moves themselves are not offered.  The correction is symmetric and
cached under both orders of each vertex pair; on each commit it is dropped
for every pair of members of an edge with a touched member, which is
exactly the set of pairs whose correction can change.  The rebuilt
vertices get a full best-partner scan; any other vertex re-scores only the
partners that were rebuilt or whose correction was dropped, against its
stored best, and rescans only when that stored partner is among them.

Selection shelves an acceptable heap top that does not fit its
destination's free resources: it leaves heap order but stays live, so
the bank still holds every entry, and it returns once usage on that FPGA
falls (exchange entries: at the next commit).  `try_apply` therefore
sees only entries that fit; one it rejects on I/O or hop grounds is parked
and re-offered by the next commit, before its refresh, so that exchange
rebuilds always find exact move entries to decompose against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from ._heap import AddressableMaxHeap
from .metrics import net_hop_distance, net_io_contrib_hosts, total_hop_distance
from .model import Hypergraph, Placement
from .topology import HopMatrix, MfsTopology

KIND_RANK = {"delete": 0, "move": 1, "exchange": 2, "replicate": 3}
ALL_OPS = ("move", "exchange", "replicate", "delete")
FPGA_KINDS = ("move", "replicate", "delete")  # banked per destination FPGA
OP_ALIASES = {"mv": "move", "ex": "exchange", "rep": "replicate", "del": "delete"}


@dataclass(frozen=True)
class Op:
    """One refinement operation; gain is the THD decrease it achieves."""

    kind: str
    v: int
    dest: int
    partner: int | None = None
    partner_dest: int | None = None
    gain: int = 0


def _change(
    p: Placement, kind: str, v: int, dest: int, partner: int | None = None
) -> dict[int, frozenset] | None:
    """The host sets an op leaves its vertices with, {vertex: frozenset},
    or None when it does not apply: a move to v's own FPGA, an exchange
    whose partner is missing, not on `dest` or on v's FPGA, a replicate
    onto a host of v, or a delete of a copy v does not have.  Each kind's
    precondition lives here and nowhere else.  A move or exchange absorbs
    a replica already on the destination."""
    o = p.original[v]
    reps = p.replicas[v]
    if kind == "move":
        return None if dest == o else {v: frozenset(reps | {dest})}
    if kind == "exchange":
        if partner is None or p.original[partner] != dest or dest == o:
            return None
        return {
            v: frozenset(reps | {dest}),
            partner: frozenset(p.replicas[partner] | {o}),
        }
    if kind == "replicate":
        return None if dest == o or dest in reps else {v: frozenset(reps | {o, dest})}
    if kind == "delete":
        return {v: frozenset(reps - {dest} | {o})} if dest in reps else None
    raise ValueError(f"unknown op kind '{kind}'")


def _drain_counts(h: Hypergraph, p: Placement, e: int) -> dict[int, int]:
    """Per FPGA, the number of drain copies of net e it hosts."""
    cnt: dict[int, int] = {}
    for d in h.edges[e].drains:
        for f in p.hosts(d):
            cnt[f] = cnt.get(f, 0) + 1
    return cnt


def _units(hm: HopMatrix, src_hosts, drain_hosts) -> int:
    hop, _ = hm.nearest(src_hosts)
    return sum(hop[f] for f in drain_hosts)


def _changed_nets(
    h: Hypergraph,
    p: Placement,
    change: dict[int, frozenset],
    drain_cnt: Callable[[int], dict[int, int]],
) -> dict[int, tuple[set | frozenset, dict[int, int]]]:
    """Source hosts and drain-host counts, after a prospective change
    {vertex: new host set}, of every net with a changed member.
    `drain_cnt(e)` gives the current counts; they are copied, not edited."""
    after: dict[int, tuple[set | frozenset, dict[int, int]]] = {}
    for v, new in change.items():
        old = p.hosts(v)
        for e in h.incidence[v]:
            src = h.edges[e].source
            if e not in after:
                src_hosts = change[src] if src in change else p.hosts(src)
                after[e] = (src_hosts, dict(drain_cnt(e)))
            if src == v:
                continue
            cnt = after[e][1]
            for f in old:
                c = cnt[f] - 1
                if c:
                    cnt[f] = c
                else:
                    del cnt[f]
            for f in new:
                cnt[f] = cnt.get(f, 0) + 1
    return after


_INAPPLICABLE = {
    "move": "move destination equals the current original",
    "exchange": "exchange requires vertices on different FPGAs",
    "replicate": "replicate destination already hosts the vertex",
    "delete": "delete target is not a replica of the vertex",
}


def _gain_of(
    h: Hypergraph,
    p: Placement,
    hm: HopMatrix,
    kind: str,
    v: int,
    dest: int,
    partner: int | None = None,
) -> int:
    """THD decrease of one op, from the nets whose members it changes."""
    change = _change(p, kind, v, dest, partner)
    if change is None:
        raise ValueError(_INAPPLICABLE[kind])
    g = 0
    nets = _changed_nets(h, p, change, partial(_drain_counts, h, p))
    for e, (src_hosts, cnt) in nets.items():
        before = net_hop_distance(h, e, p, hm)
        g += h.edges[e].weight * (before - _units(hm, src_hosts, cnt))
    return g


def gain_move(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from moving the original of v to FPGA f."""
    return _gain_of(h, p, hm, "move", v, f)


def gain_exchange(h: Hypergraph, p: Placement, hm: HopMatrix, u: int, v: int) -> int:
    """THD decrease from swapping the originals of u and v, computed jointly."""
    return _gain_of(h, p, hm, "exchange", u, p.original[v], v)


def gain_replicate(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from adding a copy of v on FPGA f."""
    return _gain_of(h, p, hm, "replicate", v, f)


def gain_delete(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from removing the replica of v on FPGA f."""
    return _gain_of(h, p, hm, "delete", v, f)


def apply_op(p: Placement, op: Op) -> None:
    """Mutate a placement per the operation; no constraint checking."""
    if op.kind == "move":
        p.set_original(op.v, op.dest)
    elif op.kind == "exchange":
        if op.partner is None or op.partner_dest is None:
            raise ValueError("exchange op without a partner")
        p.set_original(op.v, op.dest)
        p.set_original(op.partner, op.partner_dest)
    elif op.kind == "replicate":
        p.add_replica(op.v, op.dest)
    elif op.kind == "delete":
        p.remove_replica(op.v, op.dest)
    else:
        raise ValueError(f"unknown op kind '{op.kind}'")


class RefineState:
    """Incrementally maintained placement state plus the gain-heap bank.

    Every live heap entry's gain equals the from-scratch gain of that
    operation under the current placement; the test suite leans on this.
    """

    def __init__(
        self,
        h: Hypergraph,
        t: MfsTopology,
        hm: HopMatrix,
        p: Placement,
        ops: tuple[str, ...] = ALL_OPS,
        max_replicas: int | None = None,
        allow_zero_gain: bool = False,
        zero_gain_limit: int | None = None,
        incremental: bool = True,
        deadline: float | None = None,
    ):
        self.h = h
        self.t = t
        self.hm = hm
        self.p = p.copy()
        self.enabled = frozenset(OP_ALIASES.get(o, o) for o in ops)
        unknown = self.enabled - set(ALL_OPS)
        if unknown:
            raise ValueError(f"unknown op kinds: {sorted(unknown)}")
        self.max_replicas = max_replicas
        self.allow_zero_gain = allow_zero_gain
        self.zero_gain_left = (
            (zero_gain_limit if zero_gain_limit is not None else h.num_vertices)
            if allow_zero_gain
            else 0
        )
        self.incremental = incremental

        self.kf = t.k_fpgas
        self.krt = t.num_resource_types
        self.caps = [list(c.values) for c in t.capacities]
        self.io_limits = list(t.io_limits)
        self.io_limited = any(l is not None for l in self.io_limits)
        self.hop_max = t.hop_max
        self.weights = [v.weight.values for v in h.vertices]

        # per-edge counts of drain copies per FPGA, kept current so gain
        # rebuilds never rescan (possibly huge) drain lists
        self.edge_drain_cnt = [_drain_counts(h, self.p, e.id) for e in h.edges]
        self.edge_units = [
            _units(hm, self.p.hosts(e.source), self.edge_drain_cnt[e.id])
            for e in h.edges
        ]
        self.thd = sum(e.weight * self.edge_units[e.id] for e in h.edges)
        self.usage = [[0] * self.krt for _ in range(self.kf)]
        for v in range(h.num_vertices):
            wv = self.weights[v]
            for f in self.p.hosts(v):
                row = self.usage[f]
                for i in range(self.krt):
                    row[i] += wv[i]
        self.io = [0] * self.kf
        for e in h.edges:
            contrib = net_io_contrib_hosts(
                e, self.p.hosts(e.source), self.edge_drain_cnt[e.id], hm
            )
            for f, amt in contrib.items():
                self.io[f] += amt

        # bank[kind][f] holds the kind's entries with destination f; moves
        # are banked whenever exchange is enabled, since exchange gains are
        # built from them, but only enabled kinds are offered.  Exchange
        # entries are per vertex, with the best partner in ex_partner.
        self.bank = {
            kind: [AddressableMaxHeap() for _ in range(self.kf)]
            for kind in FPGA_KINDS
            if kind in self.enabled or (kind == "move" and "exchange" in self.enabled)
        }
        self.ex_heap = AddressableMaxHeap()
        self.ex_partner: dict[int, int] = {}
        # corr(v, u) of `_rebuild_exchange`, keyed pair_corr[v][u]
        self.pair_corr: dict[int, dict[int, int]] = {}
        # entries run_refine_loop popped and try_apply rejected, as
        # (kind, v, dest, gain); re-offered on the next commit.  A parked
        # exchange keeps its partner in ex_partner, which only a rebuild
        # of v changes, and rebuilds run after the re-offer.
        self.parked: list[tuple[str, int, int, int]] = []

        self.applied: list[Op] = []
        self.replicates_applied = 0
        self._neighbors: dict[int, tuple[int, ...]] = {}  # lazy, static

        # moves first: exchange entries read move gains from the bank.
        # Past `deadline` the build stops and the bank stays partial; the
        # loop, which checks the same deadline, then applies nothing.
        for rebuild in (self._rebuild_mrd, self._rebuild_exchange):
            for v in range(h.num_vertices):
                if _past(deadline):
                    return
                rebuild(v)

    # -- gain bookkeeping -------------------------------------------------

    def _is_boundary(self, v: int) -> bool:
        if self.p.replicas[v]:
            return True
        p = self.p
        for e in self.h.incidence[v]:
            edge = self.h.edges[e]
            if p.replicas[edge.source]:
                return True
            cnt = self.edge_drain_cnt[e]
            if len(cnt) >= 2:
                return True
            if cnt and next(iter(cnt)) != p.original[edge.source]:
                return True
        return False

    def _neighbor_tuple(self, v: int) -> tuple[int, ...]:
        cached = self._neighbors.get(v)
        if cached is None:
            out: set[int] = set()
            for e in self.h.incidence[v]:
                out.update(self.h.edges[e].members)
            out.discard(v)
            cached = tuple(sorted(out))
            self._neighbors[v] = cached
        return cached

    def _rebuild_mrd(self, v: int) -> None:
        """Refresh the move/replicate/delete entries of one vertex.

        Every candidate changes only v's host set H, so the weighted cost
        of v's incident edges is collected once into per-FPGA terms: an
        edge sourced at v costs its weight times the nearest-copy row of H
        over its drain hosts, and an edge draining at v costs what its
        other drains cost plus, per f in H that no other drain covers, its
        weight times the source's row at f.  Drain edges are visited only
        at the FPGAs they cover; their rows are summed once per distinct
        source host set.
        """
        p = self.p
        for heaps in self.bank.values():
            for heap in heaps:
                heap.remove(v)
        if not self._is_boundary(v):
            return
        h = self.h
        kf = self.kf
        nearest = self.hm.nearest
        v_hosts = p.hosts(v)

        base_cost = 0  # current weighted units over I(v)
        fixed = 0  # cost of the edges draining at v, without v's copies
        src_w: dict[int, int] = {}  # weight of edges sourced at v draining on f
        by_src: dict = {}  # weight of edges draining at v, per source host set
        rows: dict = {}  # nearest-copy row per source host set
        covered = [0] * kf  # weighted hops at FPGAs other drains cover
        for e in h.incidence[v]:
            edge = h.edges[e]
            w = edge.weight
            base_cost += w * self.edge_units[e]
            cnt = self.edge_drain_cnt[e]
            s = edge.source
            if s == v:
                for f in cnt:
                    src_w[f] = src_w.get(f, 0) + w
                continue
            reps = p.replicas[s]
            key = frozenset(reps | {p.original[s]}) if reps else p.original[s]
            by_src[key] = by_src.get(key, 0) + w
            hop = rows.get(key)
            if hop is None:
                hop = rows[key] = nearest(key if reps else (key,))[0]
            for f, c in cnt.items():
                if c > (1 if f in v_hosts else 0):
                    wh = w * hop[f]
                    fixed += wh
                    covered[f] += wh
        copy_cost = [-c for c in covered]  # cost of a copy of v on f, as a drain
        for key, w in by_src.items():
            hop = rows[key]
            for f in range(kf):
                copy_cost[f] += w * hop[f]

        def gain(hosts: frozenset) -> int:
            hop, _ = nearest(hosts)
            new_cost = fixed
            for f in hosts:
                new_cost += copy_cost[f]
            for f, w in src_w.items():
                new_cost += w * hop[f]
            return base_cost - new_cost

        for kind, heaps in self.bank.items():
            for f, heap in enumerate(heaps):
                change = _change(p, kind, v, f)
                if change is not None:
                    heap.push(v, gain(change[v]))

    def _rebuild_exchange(self, v: int) -> None:
        """Refresh the best-partner exchange entry of one vertex from a
        scan of all its neighbours (see `_best_partner`)."""
        self.ex_heap.remove(v)
        self.ex_partner.pop(v, None)
        if "exchange" not in self.enabled or not self._is_boundary(v):
            return
        best_g, best_u = self._best_partner(v, self._neighbor_tuple(v), None, -1)
        if best_g is not None:
            self.ex_heap.push(v, best_g)
            self.ex_partner[v] = best_u

    def _patch_exchange(self, v: int, changed: set[int]) -> None:
        """Update the exchange entry of a vertex whose own entries the op
        left alone, given the partners whose pair gain may have changed.
        Every other pair gain is as stored, so the stored best stays the
        best of them, and only the changed pairs are re-scored against it;
        when the stored partner is among them, v is rescanned in full."""
        stored = self.ex_partner.get(v)
        if stored in changed:
            self._rebuild_exchange(v)
            return
        old = None if stored is None else self.ex_heap.gain_of(v)
        best_g, best_u = self._best_partner(
            v, changed, old, -1 if stored is None else stored
        )
        if best_g is not None and best_u != stored:
            self.ex_heap.push(v, best_g)
            self.ex_partner[v] = best_u

    def _best_partner(
        self, v: int, candidates, best_g: int | None, best_u: int
    ) -> tuple[int | None, int]:
        """The best of (best_g, best_u) and v's exchanges with candidates
        on another FPGA: highest gain, then lowest partner id.

        A pair gain decomposes into the two move gains plus a correction
        over shared edges only, g = g_v(pu) + g_u(pv) + corr(v, u).  Both
        move entries are banked and exact: v and u share a net across two
        FPGAs, so both are boundary vertices, and parked entries are back
        before any rebuild.  They are read with plain lookups, so a broken
        invariant fails loudly.  The correction is symmetric, since the
        exchange of v with u is the exchange of u with v, and it is cached
        under both pair_corr[v][u] and pair_corr[u][v]; the shared edge
        table of `_exchange_prep` is built only when some pair misses.
        `try_apply` drops corr(a, b) for every pair a, b that share an
        edge with a touched member, which is exactly when either input of
        the correction (shared-edge drain counts and source hosts, both
        endpoints' hosts) can change.
        """
        orig = self.p.original
        pv = orig[v]
        moves = self.bank["move"]
        g_u_of = moves[pv].gain_of
        pair_corr = self.pair_corr
        corr_v = pair_corr.setdefault(v, {})
        prep = None
        for u in candidates:
            pu = orig[u]
            if pu == pv:
                continue
            corr = corr_v.get(u)
            if corr is None:
                if prep is None:
                    prep = self._exchange_prep(v)
                corr = corr_v[u] = self._pair_corr(v, u, prep)
                pair_corr.setdefault(u, {})[v] = corr
            g = moves[pu].gain_of(v) + g_u_of(u) + corr
            if best_g is None or g > best_g or (g == best_g and u < best_u):
                best_g = g
                best_u = u
        return best_g, best_u

    def _exchange_prep(self, v: int) -> dict[int, tuple]:
        """Per incident edge of v: drain-host counts with v's own
        contribution removed when v drains it (host sets are subsets of
        the K FPGAs), and the source's nearest-copy row, so that
        shared-edge corrections cost O(K) rather than a scan of the whole
        (possibly huge) net."""
        p = self.p
        h = self.h
        vh = p.hosts(v)
        prep: dict[int, tuple] = {}
        for e in h.incidence[v]:
            edge = h.edges[e]
            if edge.source == v:
                prep[e] = ("src_v", edge.weight, self.edge_drain_cnt[e], None)
            else:
                cnt = dict(self.edge_drain_cnt[e])
                for f in vh:
                    c = cnt.get(f, 0) - 1
                    if c <= 0:
                        cnt.pop(f, None)
                    else:
                        cnt[f] = c
                hop, _ = self.hm.nearest(p.hosts(edge.source))
                prep[e] = ("drain_v", edge.weight, cnt, hop)
        return prep

    def _pair_corr(self, v: int, u: int, prep: dict[int, tuple]) -> int:
        """Shared-edge correction of the exchange of v and u.

        The correction has a closed form: writing the joint cost delta as
        a mixed second difference over per-FPGA memberships, every term
        cancels except where BOTH endpoints' host membership flips, i.e.
        at the two originals being swapped.
        """
        p = self.p
        h = self.h
        nearest = self.hm.nearest
        pv, pu = p.original[v], p.original[u]
        v_reps = p.replicas[v]
        reps_u = p.replicas[u]
        corr = 0
        for e in h.incidence[u]:
            rec = prep.get(e)
            if rec is None:
                continue
            kind, w, cnt, shop = rec
            if kind == "src_v":
                # v sources e, u drains it: the source-side min
                # shift matters only at uncovered flip hosts
                v_cur, _ = nearest(p.hosts(v))
                v_new, _ = nearest(v_reps | {pu})
                term = 0
                if cnt.get(pu, 0) <= 1:
                    term += v_new[pu] - v_cur[pu]
                if pv not in reps_u and cnt.get(pv, 0) <= 0:
                    term -= v_new[pv] - v_cur[pv]
                corr += w * term
            elif u == h.edges[e].source:
                # u sources e, v drains it (cnt excludes v)
                u_cur, _ = nearest(p.hosts(u))
                u_new, _ = nearest(reps_u | {pv})
                term = 0
                if cnt.get(pv, 0) <= 0:
                    term += u_new[pv] - u_cur[pv]
                if pu not in v_reps and cnt.get(pu, 0) <= 0:
                    term -= u_new[pu] - u_cur[pu]
                corr += w * term
            else:
                # both drain e: the swapped originals keep the
                # host union intact wherever nobody else covers
                # them, cancelling the move gains' savings
                term = 0
                if pv not in reps_u and cnt.get(pv, 0) <= 0:
                    term -= shop[pv]
                if pu not in v_reps and cnt.get(pu, 0) <= 1:
                    term -= shop[pu]
                corr += w * term
        return corr

    # -- selection and application ----------------------------------------

    def _acceptable(self, kind: str, gain: int) -> bool:
        if kind == "delete":
            return gain >= 0
        if gain > 0:
            return True
        return (
            gain == 0
            and self.allow_zero_gain
            and self.zero_gain_left > 0
            and kind in ("move", "exchange")
        )

    def peek_best(self) -> tuple[str, int, int, int] | None:
        """Best acceptable entry that fits its destination's resources, as
        (kind, vertex, dest, gain), or None.

        Ties: higher gain, then delete > move > exchange > replicate,
        then lower vertex id, then lower destination id.  An acceptable
        heap top that does not fit is shelved: it leaves heap order but
        stays live, and `try_apply` puts it back once the room it lacked
        can have grown (for move and replicate, when usage on its FPGA
        falls; for exchange, at the next commit).  So the result is the
        entry the loop would reach by popping and rejecting every better
        acceptable one that does not fit.
        """
        orig = self.p.original

        def top(kind: str, f: int, heap: AddressableMaxHeap):
            entry = heap.peek()
            if entry is None or not self._acceptable(kind, entry[0]):
                return None
            gain, v = entry
            dest = orig[self.ex_partner[v]] if kind == "exchange" else f
            return (-gain, KIND_RANK[kind], v, dest), kind, f, heap

        capped = (
            self.max_replicas is not None
            and self.replicates_applied >= self.max_replicas
        )
        offered = [
            (kind, f, heap)
            for kind, heaps in self.bank.items()
            if kind in self.enabled and not (capped and kind == "replicate")
            for f, heap in enumerate(heaps)
        ]
        offered.append(("exchange", -1, self.ex_heap))
        tops = [t for t in (top(*o) for o in offered) if t is not None]
        while tops:
            i = min(range(len(tops)), key=tops.__getitem__)
            key, kind, f, heap = tops[i]
            gain, v, dest = -key[0], key[2], key[3]
            if self._fits(self._resource_deltas(self._op_change(kind, v, dest))):
                return kind, v, dest, gain
            heap.shelve()
            nxt = top(kind, f, heap)
            if nxt is None:
                del tops[i]
            else:
                tops[i] = nxt
        return None

    def _heap(self, kind: str, dest: int) -> AddressableMaxHeap:
        """The heap holding the entries of `kind` with destination `dest`."""
        return self.ex_heap if kind == "exchange" else self.bank[kind][dest]

    def pop_entry(self, kind: str, v: int, dest: int) -> None:
        self._heap(kind, dest).remove(v)

    def stored_gain(self, op: Op) -> int | None:
        """Current bank gain for an op, or None if it has no live entry."""
        if op.kind not in self.enabled:
            return None
        if op.kind == "exchange" and self.ex_partner.get(op.v) != op.partner:
            return None
        return self._heap(op.kind, op.dest).get(op.v)

    def entries(self) -> Iterator[Op]:
        """All live entries of the enabled kinds as ops (gains filled in)."""
        for f in range(self.kf):
            for kind, heaps in self.bank.items():
                if kind in self.enabled:
                    for v, g in sorted(heaps[f].items().items()):
                        yield Op(kind, v, f, gain=g)
        orig = self.p.original
        for v, g in sorted(self.ex_heap.items().items()):
            u = self.ex_partner[v]
            yield Op("exchange", v, orig[u], u, orig[v], gain=g)

    def _op_change(self, kind: str, v: int, dest: int) -> dict[int, frozenset] | None:
        """`_change` of a bank entry; an exchange takes its stored partner."""
        partner = self.ex_partner.get(v) if kind == "exchange" else None
        return _change(self.p, kind, v, dest, partner)

    def _resource_deltas(self, change: dict[int, frozenset]) -> dict[int, list[int]]:
        """Net per-FPGA resource deltas of a host-set change."""
        deltas: dict[int, list[int]] = {}
        for tv, new_hosts in change.items():
            old_hosts = self.p.hosts(tv)
            wv = self.weights[tv]
            for f in new_hosts - old_hosts:
                row = deltas.setdefault(f, [0] * self.krt)
                for i in range(self.krt):
                    row[i] += wv[i]
            for f in old_hosts - new_hosts:
                row = deltas.setdefault(f, [0] * self.krt)
                for i in range(self.krt):
                    row[i] -= wv[i]
        return deltas

    def _fits(self, deltas: dict[int, list[int]]) -> bool:
        """Whether every FPGA has room for its positive deltas."""
        for f, dv in deltas.items():
            row = self.usage[f]
            cap = self.caps[f]
            for i in range(self.krt):
                if dv[i] > 0 and row[i] + dv[i] > cap[i]:
                    return False
        return True

    def try_apply(self, kind: str, v: int, dest: int) -> Op | None:
        """Constraint-check and apply one operation; None if infeasible.

        Resources, I/O limits, and the max-hop bound are all re-checked
        against the post-operation state before anything is committed.
        Resource deltas are net per FPGA, so a swap between two full FPGAs
        stays legal when the weights balance out.
        """
        h = self.h
        p = self.p
        change = self._op_change(kind, v, dest)
        if change is None:
            return None
        deltas = self._resource_deltas(change)
        if not self._fits(deltas):
            return None

        # every changed edge's units, worst hop and I/O from its new
        # source hosts and drain counts, through the nearest-copy rows
        after = _changed_nets(h, p, change, self.edge_drain_cnt.__getitem__)
        new_units: dict[int, int] = {}
        gain = 0
        io_delta: dict[int, int] = {}
        for e, (src_hosts, cnt) in after.items():
            edge = h.edges[e]
            hop, _ = self.hm.nearest(src_hosts)
            if self.hop_max is not None and max(hop[f] for f in cnt) > self.hop_max:
                return None
            new_units[e] = nu = sum(hop[f] for f in cnt)
            gain += edge.weight * (self.edge_units[e] - nu)
            old_io = net_io_contrib_hosts(
                edge, p.hosts(edge.source), self.edge_drain_cnt[e], self.hm
            )
            for f, amt in old_io.items():
                io_delta[f] = io_delta.get(f, 0) - amt
            for f, amt in net_io_contrib_hosts(edge, src_hosts, cnt, self.hm).items():
                io_delta[f] = io_delta.get(f, 0) + amt
        if self.io_limited:
            for f, d in io_delta.items():
                lim = self.io_limits[f]
                if lim is not None and self.io[f] + d > lim:
                    return None

        # commit
        dirty = self._dirty(change, after)
        partner = self.ex_partner.get(v) if kind == "exchange" else None
        partner_dest = None if partner is None else p.original[v]
        op = Op(kind, v, dest, partner, partner_dest, gain)
        apply_op(p, op)
        for e, (_, cnt) in after.items():
            self.edge_drain_cnt[e] = cnt
            self.edge_units[e] = new_units[e]
        for f, dv in deltas.items():
            row = self.usage[f]
            for i in range(self.krt):
                row[i] += dv[i]
            if min(dv) < 0:  # room on f grew: shelved entries may fit now
                for heaps in self.bank.values():
                    heaps[f].unshelve()
        self.ex_heap.unshelve()
        for f, d in io_delta.items():
            self.io[f] += d
        self.thd -= gain
        if kind == "replicate":
            self.replicates_applied += 1
        if gain == 0 and kind in ("move", "exchange") and self.allow_zero_gain:
            self.zero_gain_left -= 1
        self.applied.append(op)
        # corr(a, b) reads the shared edges' drain counts and source hosts
        # and both endpoints' hosts; each changes only where a shared edge
        # has a touched member
        pair_corr = self.pair_corr
        for e in after:
            members = h.edges[e].members
            for a in members:
                cache = pair_corr.get(a)
                if cache:
                    for b in members:
                        cache.pop(b, None)
        self._unpark()
        self._refresh_after(dirty, after)
        return op

    def _dirty(self, change: dict[int, frozenset], after: dict) -> set[int]:
        """The vertices whose move/replicate/delete entries a commit of
        `change` can alter, read from the changed nets' drain counts
        before (installed) and after (`after`) it.

        Those entries read, per incident edge, only the source's hosts
        and, of the drain counts, what the vertex's own copies do not
        account for: for the source the covered FPGAs, for a drain d the
        FPGAs that other drains cover, {f : cnt[f] - [f in hosts(d)] > 0}.
        So beside the touched vertices the dirty ones are every drain of
        a net whose source was touched, the source of a net whose covered
        set changed, and a drain for which some count crossed 0|1 at an
        FPGA it does not host or 1|2 at one it does.
        """
        h = self.h
        p = self.p
        dirty = set(change)
        for e, (_, new) in after.items():
            edge = h.edges[e]
            if edge.source in change:
                dirty.update(edge.drains)
                continue
            old = self.edge_drain_cnt[e]
            if old.keys() != new.keys():
                dirty.add(edge.source)
            outside = []  # 0|1 crossings: reach drains not hosting f
            inside = []  # 1|2 crossings: reach drains hosting f
            for f in old.keys() | new.keys():
                a, b = old.get(f, 0), new.get(f, 0)
                if (a == 0) != (b == 0):
                    outside.append(f)
                if (a > 1) != (b > 1):
                    inside.append(f)
            if not outside and not inside:
                continue
            for d in edge.drains:
                if d in dirty:
                    continue
                od, rd = p.original[d], p.replicas[d]
                if any(f != od and f not in rd for f in outside) or any(
                    f == od or f in rd for f in inside
                ):
                    dirty.add(d)
        return dirty

    def _unpark(self) -> None:
        """Re-offer parked entries before the refresh rebuilds exchange
        gains, so those read exact move entries.  Every re-offered entry
        whose gain the op could have changed is one the refresh rebuilds
        or re-scores; the rest are still exact."""
        for kind, v, dest, gain in self.parked:
            self._heap(kind, dest).push(v, gain)
        self.parked = []

    def _refresh_after(self, dirty: set[int], after: dict) -> None:
        h = self.h
        if not self.incremental:
            # the full variant is the from-scratch reference: no reuse
            self.pair_corr.clear()
            for v in range(h.num_vertices):
                self._rebuild_mrd(v)
            for v in range(h.num_vertices):
                self._rebuild_exchange(v)
            return
        for v in sorted(dirty):
            self._rebuild_mrd(v)
        if "exchange" not in self.enabled:
            return
        # a pair gain g_v(pu) + g_u(pv) + corr(v, u) of a clean v changed
        # only if u is dirty or the pair's corr was dropped
        changed: dict[int, set[int]] = {}
        for d in dirty:
            for v in self._neighbor_tuple(d):
                if v not in dirty:
                    changed.setdefault(v, set()).add(d)
        for e in after:
            members = h.edges[e].members
            for v in members:
                if v not in dirty:
                    changed.setdefault(v, set()).update(members)
        for v in sorted(dirty):
            self._rebuild_exchange(v)
        for v in sorted(changed):
            self._patch_exchange(v, changed[v])


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def refine_level(
    h: Hypergraph,
    p: Placement,
    t: MfsTopology,
    hm: HopMatrix,
    *,
    ops: tuple[str, ...] = ALL_OPS,
    max_replicas: int | None = None,
    allow_zero_gain: bool = False,
    zero_gain_limit: int | None = None,
    incremental: bool = True,
    max_ops: int | None = None,
    observer: Callable[[Op, Placement, int], None] | None = None,
    deadline: float | None = None,
) -> Placement:
    """Apply highest-gain operations until none is both acceptable and
    feasible, or until `deadline` (a `time.monotonic()` value) passes;
    THD never increases and every intermediate state is valid."""
    if not ops:
        return p.copy()
    state = RefineState(
        h,
        t,
        hm,
        p,
        ops=ops,
        max_replicas=max_replicas,
        allow_zero_gain=allow_zero_gain,
        zero_gain_limit=zero_gain_limit,
        incremental=incremental,
        deadline=deadline,
    )
    run_refine_loop(state, max_ops=max_ops, observer=observer, deadline=deadline)
    return state.p


def run_refine_loop(
    state: RefineState,
    max_ops: int | None = None,
    observer: Callable[[Op, Placement, int], None] | None = None,
    deadline: float | None = None,
) -> int:
    """Drive a RefineState to a fixed point; returns the op count applied.

    An entry that `try_apply` rejects is parked on the state rather than
    dropped; the next commit re-offers every parked entry before its
    refresh (see `RefineState._unpark`), so after each applied op the bank
    holds what a fresh bank would.  With a `deadline` (a `time.monotonic()`
    value) the loop stops at the first iteration that starts past it.
    """
    applied = 0
    while max_ops is None or applied < max_ops:
        if _past(deadline):
            break
        best = state.peek_best()
        if best is None:
            break
        kind, v, dest, _ = best
        state.pop_entry(kind, v, dest)
        op = state.try_apply(kind, v, dest)
        if op is None:
            state.parked.append(best)
            continue
        applied += 1
        if observer is not None:
            observer(op, state.p, state.thd)
    return applied


def project_to_finer(level, coarse_p: Placement) -> Placement:
    """Expand a placement of hypernodes to the finer graph they condense;
    replicas fan out to every constituent vertex."""
    mapping = level.mapping
    original = [coarse_p.original[mapping[v]] for v in range(len(mapping))]
    replicas = [set(coarse_p.replicas[mapping[v]]) for v in range(len(mapping))]
    return Placement(original, replicas)


def incremental_vs_full_check(
    h: Hypergraph,
    t: MfsTopology,
    hm: HopMatrix,
    p: Placement,
    ops: list[Op],
    tamper: Callable[[RefineState, int], None] | None = None,
) -> bool:
    """Replay an op sequence, asserting each op's bank gain matches a
    from-scratch recomputation (two full THD evaluations).  Any mismatch,
    missing entry, or infeasible application returns False."""
    state = RefineState(h, t, hm, p)
    for i, op in enumerate(ops):
        if tamper is not None:
            tamper(state, i)
        stored = state.stored_gain(op)
        if stored is None:
            return False
        before = total_hop_distance(h, state.p, hm)
        trial = state.p.copy()
        apply_op(trial, op)
        expected = before - total_hop_distance(h, trial, hm)
        if stored != expected:
            return False
        if state.try_apply(op.kind, op.v, op.dest) is None:
            return False
    return True
