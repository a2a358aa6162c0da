"""Refinement: move, exchange, replicate, and delete driven by gain heaps.

One heap tracks exchanges; for each of the K FPGAs there is one heap each
for moves, replicates, and deletes targeting it.  The loop applies the
globally best operation whose gain passes its acceptance rule (delete runs
at zero gain to free resources, everything else needs strictly positive
gain), re-checks constraints at application time, and then refreshes the
gains of every vertex whose stored value the operation could have changed:
net-sharing neighbors for moves, replicates, and deletes, and their
neighbors in turn for exchange pairings.

An exchange gain is the two endpoints' move gains plus a shared-edge
correction.  The correction is cached per vertex pair and dropped, on each
commit, for every pair of members of an edge with a touched member, which
is exactly the set of pairs whose correction can change.  Entries the loop
popped but could not apply are parked and re-offered by the next commit,
before its refresh, so that exchange rebuilds always find exact move
entries to decompose against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from ._heap import AddressableMaxHeap
from .metrics import net_io_contrib_hosts, total_hop_distance
from .model import Hypergraph, Placement
from .topology import HopMatrix, MfsTopology

KIND_RANK = {"delete": 0, "move": 1, "exchange": 2, "replicate": 3}
ALL_OPS = ("move", "exchange", "replicate", "delete")
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


HostOverride = dict[int, tuple[int, frozenset]]


def _edge_units(
    h: Hypergraph, p: Placement, dist, e: int, ov: HostOverride | None
) -> int:
    """Cost units of edge e, optionally with some vertices' hosts overridden."""
    edge = h.edges[e]
    src = edge.source
    if ov is not None and src in ov:
        so, sreps = ov[src]
    else:
        so, sreps = p.original[src], p.replicas[src]
    total = 0
    seen: set[int] = set()
    srow = dist[so]
    for d in edge.drains:
        if ov is not None and d in ov:
            do, dreps = ov[d]
        else:
            do, dreps = p.original[d], p.replicas[d]
        if do not in seen:
            seen.add(do)
            best = srow[do]
            for s in sreps:
                x = dist[s][do]
                if x < best:
                    best = x
            total += best
        for f in dreps:
            if f not in seen:
                seen.add(f)
                best = srow[f]
                for s in sreps:
                    x = dist[s][f]
                    if x < best:
                        best = x
                total += best
    return total


def _edge_worst_minhop(
    h: Hypergraph, p: Placement, dist, e: int, ov: HostOverride | None
) -> int:
    """Largest per-drain-host min-hop of edge e (for the max-hop check)."""
    edge = h.edges[e]
    src = edge.source
    if ov is not None and src in ov:
        so, sreps = ov[src]
    else:
        so, sreps = p.original[src], p.replicas[src]
    worst = 0
    seen: set[int] = set()
    srow = dist[so]
    for d in edge.drains:
        if ov is not None and d in ov:
            do, dreps = ov[d]
        else:
            do, dreps = p.original[d], p.replicas[d]
        for f in (do, *dreps):
            if f in seen:
                continue
            seen.add(f)
            best = srow[f]
            for s in sreps:
                x = dist[s][f]
                if x < best:
                    best = x
            if best > worst:
                worst = best
    return worst


def _min_hop(f: int, hosts: tuple[int, ...], dist) -> int:
    best = dist[hosts[0]][f]
    for s in hosts[1:]:
        x = dist[s][f]
        if x < best:
            best = x
    return best


def _hosts_with_override(p: Placement, ov: HostOverride | None) -> Callable[[int], set]:
    def hosts_of(v: int) -> set:
        if ov is not None and v in ov:
            o, reps = ov[v]
            return {o} | set(reps)
        return {p.original[v]} | p.replicas[v]

    return hosts_of


def _moved_hosts(p: Placement, v: int, f: int) -> tuple[int, frozenset]:
    # the old original is left behind; a replica already at f is absorbed
    return f, frozenset(p.replicas[v] - {f})


def _gain_over(
    h: Hypergraph, p: Placement, hm: HopMatrix, edge_ids, ov: HostOverride
) -> int:
    dist = hm.dist
    g = 0
    for e in edge_ids:
        w = h.edges[e].weight
        g += w * (_edge_units(h, p, dist, e, None) - _edge_units(h, p, dist, e, ov))
    return g


def gain_move(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from moving the original of v to FPGA f."""
    if f == p.original[v]:
        raise ValueError("move destination equals the current original")
    return _gain_over(h, p, hm, h.incidence[v], {v: _moved_hosts(p, v, f)})


def gain_exchange(h: Hypergraph, p: Placement, hm: HopMatrix, u: int, v: int) -> int:
    """THD decrease from swapping the originals of u and v, computed jointly."""
    pu, pv = p.original[u], p.original[v]
    if pu == pv:
        raise ValueError("exchange requires vertices on different FPGAs")
    ov = {u: _moved_hosts(p, u, pv), v: _moved_hosts(p, v, pu)}
    edge_ids = sorted(set(h.incidence[u]) | set(h.incidence[v]))
    return _gain_over(h, p, hm, edge_ids, ov)


def gain_replicate(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from adding a copy of v on FPGA f."""
    if f == p.original[v] or f in p.replicas[v]:
        raise ValueError("replicate destination already hosts the vertex")
    ov = {v: (p.original[v], frozenset(p.replicas[v] | {f}))}
    return _gain_over(h, p, hm, h.incidence[v], ov)


def gain_delete(h: Hypergraph, p: Placement, hm: HopMatrix, v: int, f: int) -> int:
    """THD decrease from removing the replica of v on FPGA f."""
    if f not in p.replicas[v]:
        raise ValueError("delete target is not a replica of the vertex")
    ov = {v: (p.original[v], frozenset(p.replicas[v] - {f}))}
    return _gain_over(h, p, hm, h.incidence[v], ov)


def apply_op(p: Placement, op: Op) -> None:
    """Mutate a placement per the operation; no constraint checking."""
    if op.kind == "move":
        p.set_original(op.v, op.dest)
    elif op.kind == "exchange":
        assert op.partner is not None and op.partner_dest is not None
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
        self.dist = hm.rows()
        self.caps = [list(c.values) for c in t.capacities]
        self.io_limits = list(t.io_limits)
        self.io_limited = any(l is not None for l in self.io_limits)
        self.hop_max = t.hop_max
        self.weights = [v.weight.values for v in h.vertices]

        self.edge_units = [
            _edge_units(h, self.p, self.dist, e.id, None) for e in h.edges
        ]
        self.thd = sum(e.weight * self.edge_units[e.id] for e in h.edges)
        # per-edge counts of drain copies per FPGA, kept current so gain
        # rebuilds never rescan (possibly huge) drain lists
        self.edge_drain_cnt: list[dict[int, int]] = []
        for e in h.edges:
            cnt: dict[int, int] = {}
            for d in e.drains:
                cnt[self.p.original[d]] = cnt.get(self.p.original[d], 0) + 1
                for r in self.p.replicas[d]:
                    cnt[r] = cnt.get(r, 0) + 1
            self.edge_drain_cnt.append(cnt)
        self.usage = [[0] * self.krt for _ in range(self.kf)]
        for v in range(h.num_vertices):
            wv = self.weights[v]
            for f in self.p.hosts(v):
                row = self.usage[f]
                for i in range(self.krt):
                    row[i] += wv[i]
        self.io = [0] * self.kf
        for e in h.edges:
            for f, amt in self._edge_io(e.id, None).items():
                self.io[f] += amt

        self.move_heaps = [AddressableMaxHeap() for _ in range(self.kf)]
        self.rep_heaps = [AddressableMaxHeap() for _ in range(self.kf)]
        self.del_heaps = [AddressableMaxHeap() for _ in range(self.kf)]
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

        # moves first: exchange entries read move gains from the bank
        for v in range(h.num_vertices):
            self._rebuild_mrd(v)
        for v in range(h.num_vertices):
            self._rebuild_exchange(v)

    # -- gain bookkeeping -------------------------------------------------

    def _edge_io(self, e: int, ov: HostOverride | None) -> dict[int, int]:
        return net_io_contrib_hosts(
            self.h.edges[e], _hosts_with_override(self.p, ov), self.dist
        )

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

    def _gain_cached(self, ov: HostOverride, edge_ids) -> int:
        """Gain using the cached per-edge units as the 'before' side."""
        g = 0
        h = self.h
        p = self.p
        dist = self.dist
        units = self.edge_units
        for e in edge_ids:
            w = h.edges[e].weight
            g += w * (units[e] - _edge_units(h, p, dist, e, ov))
        return g

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

    def _joint_exchange_gain(self, v: int, u: int) -> int:
        p = self.p
        ov = {
            v: _moved_hosts(p, v, p.original[u]),
            u: _moved_hosts(p, u, p.original[v]),
        }
        edge_ids = sorted(set(self.h.incidence[v]) | set(self.h.incidence[u]))
        return self._gain_cached(ov, edge_ids)

    def _rebuild_mrd(self, v: int) -> None:
        """Refresh the move/replicate/delete entries of one vertex.

        All candidate host sets share the same incident edges, so the
        drain-host structure of each edge is collected once: for edges
        sourced at v only the source side varies, and for edges draining
        at v only v's own contribution beyond the other drains varies.
        """
        p = self.p
        for f in range(self.kf):
            self.move_heaps[f].remove(v)
            self.rep_heaps[f].remove(v)
            self.del_heaps[f].remove(v)
        if not self._is_boundary(v):
            return
        h = self.h
        dist = self.dist
        inc = h.incidence[v]
        o = p.original[v]
        reps = p.replicas[v]

        v_hosts = (o, *reps)
        base_cost = 0  # current weighted units over I(v)
        src_edges: list[tuple[int, list[int]]] = []  # (w, drain host list)
        drain_edges: list[tuple[int, tuple[int, ...], set[int], int]] = []
        for e in inc:
            edge = h.edges[e]
            base_cost += edge.weight * self.edge_units[e]
            cnt = self.edge_drain_cnt[e]
            if edge.source == v:
                src_edges.append((edge.weight, list(cnt)))
            else:
                s = edge.source
                shosts = (p.original[s], *p.replicas[s])
                # drain hosts contributed by the other drains only
                others = {
                    f for f, c in cnt.items() if c > (1 if f in v_hosts else 0)
                }
                if len(shosts) == 1:
                    row = dist[shosts[0]]
                    base = sum(row[f] for f in others)
                else:
                    base = sum(min(dist[s2][f] for s2 in shosts) for f in others)
                drain_edges.append((edge.weight, shosts, others, base))

        def new_cost(hosts: tuple[int, ...]) -> int:
            total = 0
            for w, dlist in src_edges:
                if len(hosts) == 1:
                    row = dist[hosts[0]]
                    units = sum(row[f] for f in dlist)
                else:
                    units = sum(min(dist[s2][f] for s2 in hosts) for f in dlist)
                total += w * units
            for w, shosts, others, base in drain_edges:
                extra = 0
                for f in hosts:
                    if f not in others:
                        if len(shosts) == 1:
                            extra += dist[shosts[0]][f]
                        else:
                            extra += min(dist[s2][f] for s2 in shosts)
                total += w * (base + extra)
            return total

        if "move" in self.enabled:
            for f in range(self.kf):
                if f == o:
                    continue
                hosts = (f, *(reps - {f}))
                self.move_heaps[f].push(v, base_cost - new_cost(hosts))
        if "replicate" in self.enabled:
            for f in range(self.kf):
                if f == o or f in reps:
                    continue
                hosts = (o, *reps, f)
                self.rep_heaps[f].push(v, base_cost - new_cost(hosts))
        if "delete" in self.enabled:
            for f in sorted(reps):
                hosts = (o, *(reps - {f}))
                self.del_heaps[f].push(v, base_cost - new_cost(hosts))

    def _rebuild_exchange(self, v: int) -> None:
        """Refresh the best-partner exchange entry of one vertex.

        When move entries are maintained, a pair gain decomposes into the
        two move gains plus a correction over shared edges only,
        g = g_v(pu) + g_u(pv) + corr(v, u); both move entries are exact by
        the bank invariant, so this stays exact while skipping the full
        joint evaluation.  corr(v, u) is cached per vertex, so a cached
        pair costs two move-heap lookups and one dict lookup; the shared
        edge table of `_exchange_prep` is built only when some pair misses.
        `try_apply` drops corr(a, b) for every pair a, b that share an
        edge with a touched member, which is exactly when either input of
        the correction (shared-edge drain counts and source hosts, both
        endpoints' hosts) can change.
        """
        self.ex_heap.remove(v)
        self.ex_partner.pop(v, None)
        if "exchange" not in self.enabled or not self._is_boundary(v):
            return
        orig = self.p.original
        pv = orig[v]
        use_decomposition = "move" in self.enabled
        if use_decomposition:
            g_v_at = [heap.get(v) for heap in self.move_heaps]
            g_u_of = self.move_heaps[pv].get
        corr_v = self.pair_corr.setdefault(v, {})
        prep = None
        best_g = None
        best_u = -1
        for u in self._neighbor_tuple(v):
            pu = orig[u]
            if pu == pv:
                continue
            g = None
            if use_decomposition:
                g_v = g_v_at[pu]
                g_u = g_u_of(u)
                if g_v is not None and g_u is not None:
                    corr = corr_v.get(u)
                    if corr is None:
                        if prep is None:
                            prep = self._exchange_prep(v)
                        corr = corr_v[u] = self._pair_corr(v, u, prep)
                    g = g_v + g_u + corr
            if g is None:
                g = self._joint_exchange_gain(v, u)
            if best_g is None or g > best_g:
                best_g = g
                best_u = u
        if best_g is not None:
            self.ex_heap.push(v, best_g)
            self.ex_partner[v] = best_u

    def _exchange_prep(self, v: int) -> dict[int, tuple]:
        """Per incident edge of v: drain-host counts with v's own
        contribution removed when v drains it (host sets are subsets of
        the K FPGAs), so that shared-edge corrections cost O(K) rather
        than a scan of the whole (possibly huge) net."""
        p = self.p
        h = self.h
        vh = (p.original[v], *p.replicas[v])
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
                s = edge.source
                prep[e] = ("drain_v", edge.weight, cnt, (p.original[s], *p.replicas[s]))
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
        dist = self.dist
        pv, pu = p.original[v], p.original[u]
        v_reps = p.replicas[v]
        v_hosts_cur = (pv, *v_reps)
        v_hosts_new = (pu, *(v_reps - {pu})) if pu in v_reps else (pu, *v_reps)
        reps_u = p.replicas[u]
        u_hosts = (pu, *reps_u)
        corr = 0
        for e in h.incidence[u]:
            rec = prep.get(e)
            if rec is None:
                continue
            kind, w, cnt, shosts = rec
            if kind == "src_v":
                # v sources e, u drains it: the source-side min
                # shift matters only at uncovered flip hosts
                term = 0
                if cnt.get(pu, 0) <= (1 if pu in u_hosts else 0):
                    term += _min_hop(pu, v_hosts_new, dist) - _min_hop(
                        pu, v_hosts_cur, dist
                    )
                if pv not in reps_u and cnt.get(pv, 0) <= (
                    1 if pv in u_hosts else 0
                ):
                    term -= _min_hop(pv, v_hosts_new, dist) - _min_hop(
                        pv, v_hosts_cur, dist
                    )
                corr += w * term
            elif u == h.edges[e].source:
                # u sources e, v drains it (cnt excludes v)
                u_hosts_new = (
                    (pv, *(reps_u - {pv}))
                    if pv in reps_u
                    else (pv, *reps_u)
                )
                term = 0
                if cnt.get(pv, 0) <= 0:
                    term += _min_hop(pv, u_hosts_new, dist) - _min_hop(
                        pv, u_hosts, dist
                    )
                if pu not in v_reps and cnt.get(pu, 0) <= 0:
                    term -= _min_hop(pu, u_hosts_new, dist) - _min_hop(
                        pu, u_hosts, dist
                    )
                corr += w * term
            else:
                # both drain e: the swapped originals keep the
                # host union intact wherever nobody else covers
                # them, cancelling the move gains' savings
                term = 0
                if pv not in reps_u and cnt.get(pv, 0) <= (
                    1 if pv in u_hosts else 0
                ):
                    term -= _min_hop(pv, shosts, dist)
                if pu not in v_reps and cnt.get(pu, 0) <= (
                    1 if pu in u_hosts else 0
                ):
                    term -= _min_hop(pu, shosts, dist)
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
        """Best acceptable entry as (kind, vertex, dest, gain), or None.

        Ties: higher gain, then delete > move > exchange > replicate,
        then lower vertex id, then lower destination id.
        """
        best_key = None
        best = None

        def consider(kind: str, dest: int, top: tuple[int, int] | None) -> None:
            nonlocal best_key, best
            if top is None:
                return
            gain, v = top
            if not self._acceptable(kind, gain):
                return
            key = (-gain, KIND_RANK[kind], v, dest)
            if best_key is None or key < best_key:
                best_key = key
                best = (kind, v, dest, gain)

        for f in range(self.kf):
            consider("delete", f, self.del_heaps[f].peek())
            consider("move", f, self.move_heaps[f].peek())
            if (
                self.max_replicas is None
                or self.replicates_applied < self.max_replicas
            ):
                consider("replicate", f, self.rep_heaps[f].peek())
        top = self.ex_heap.peek()
        if top is not None:
            gain, v = top
            consider("exchange", self.p.original[self.ex_partner[v]], top)
        return best

    def pop_entry(self, kind: str, v: int, dest: int) -> None:
        if kind == "move":
            self.move_heaps[dest].remove(v)
        elif kind == "replicate":
            self.rep_heaps[dest].remove(v)
        elif kind == "delete":
            self.del_heaps[dest].remove(v)
        else:
            self.ex_heap.remove(v)

    def stored_gain(self, op: Op) -> int | None:
        """Current bank gain for an op, or None if it has no live entry."""
        try:
            if op.kind == "move":
                return self.move_heaps[op.dest].gain_of(op.v)
            if op.kind == "replicate":
                return self.rep_heaps[op.dest].gain_of(op.v)
            if op.kind == "delete":
                return self.del_heaps[op.dest].gain_of(op.v)
            if op.kind == "exchange":
                if self.ex_partner.get(op.v) != op.partner:
                    return None
                return self.ex_heap.gain_of(op.v)
        except KeyError:
            return None
        return None

    def entries(self) -> Iterator[Op]:
        """All live bank entries as ops (gains filled in)."""
        for f in range(self.kf):
            for v, g in sorted(self.move_heaps[f].items().items()):
                yield Op("move", v, f, gain=g)
            for v, g in sorted(self.rep_heaps[f].items().items()):
                yield Op("replicate", v, f, gain=g)
            for v, g in sorted(self.del_heaps[f].items().items()):
                yield Op("delete", v, f, gain=g)
        for v, g in sorted(self.ex_heap.items().items()):
            u = self.ex_partner[v]
            yield Op(
                "exchange", v, self.p.original[u], u, self.p.original[v], gain=g
            )

    def try_apply(self, kind: str, v: int, dest: int) -> Op | None:
        """Constraint-check and apply one operation; None if infeasible.

        Resources, I/O limits, and the max-hop bound are all re-checked
        against the post-operation state before anything is committed.
        Resource deltas are net per FPGA, so a swap between two full FPGAs
        stays legal when the weights balance out.
        """
        h = self.h
        p = self.p
        if kind == "exchange":
            u = self.ex_partner.get(v)
            if u is None:
                return None
            pv, pu = p.original[v], p.original[u]
            if pu != dest or pv == pu:
                return None
            ov: HostOverride = {
                v: _moved_hosts(p, v, pu),
                u: _moved_hosts(p, u, pv),
            }
            touched = [v, u]
            op = Op("exchange", v, pu, u, pv)
        elif kind == "move":
            if dest == p.original[v]:
                return None
            ov = {v: _moved_hosts(p, v, dest)}
            touched = [v]
            op = Op("move", v, dest)
        elif kind == "replicate":
            if dest == p.original[v] or dest in p.replicas[v]:
                return None
            ov = {v: (p.original[v], frozenset(p.replicas[v] | {dest}))}
            touched = [v]
            op = Op("replicate", v, dest)
        elif kind == "delete":
            if dest not in p.replicas[v]:
                return None
            ov = {v: (p.original[v], frozenset(p.replicas[v] - {dest}))}
            touched = [v]
            op = Op("delete", v, dest)
        else:
            raise ValueError(f"unknown op kind '{kind}'")

        # net per-FPGA resource deltas from the host-set changes
        deltas: dict[int, list[int]] = {}
        for tv in touched:
            old_hosts = p.hosts(tv)
            no, nreps = ov[tv]
            new_hosts = {no} | set(nreps)
            wv = self.weights[tv]
            for f in new_hosts - old_hosts:
                row = deltas.setdefault(f, [0] * self.krt)
                for i in range(self.krt):
                    row[i] += wv[i]
            for f in old_hosts - new_hosts:
                row = deltas.setdefault(f, [0] * self.krt)
                for i in range(self.krt):
                    row[i] -= wv[i]
        for f, dv in deltas.items():
            row = self.usage[f]
            cap = self.caps[f]
            for i in range(self.krt):
                if dv[i] > 0 and row[i] + dv[i] > cap[i]:
                    return None

        edge_ids = sorted({e for tv in touched for e in h.incidence[tv]})
        new_units: dict[int, int] = {}
        gain = 0
        for e in edge_ids:
            nu = _edge_units(h, p, self.dist, e, ov)
            new_units[e] = nu
            gain += h.edges[e].weight * (self.edge_units[e] - nu)
            if self.hop_max is not None:
                if _edge_worst_minhop(h, p, self.dist, e, ov) > self.hop_max:
                    return None

        io_delta: dict[int, int] = {}
        for e in edge_ids:
            for f, amt in self._edge_io(e, None).items():
                io_delta[f] = io_delta.get(f, 0) - amt
            for f, amt in self._edge_io(e, ov).items():
                io_delta[f] = io_delta.get(f, 0) + amt
        if self.io_limited:
            for f, d in io_delta.items():
                lim = self.io_limits[f]
                if lim is not None and self.io[f] + d > lim:
                    return None

        # commit
        op = Op(op.kind, op.v, op.dest, op.partner, op.partner_dest, gain)
        old_hosts = {tv: (p.original[tv], *p.replicas[tv]) for tv in touched}
        apply_op(p, op)
        for tv in touched:
            no, nreps = ov[tv]
            for e in h.incidence[tv]:
                if h.edges[e].source == tv:
                    continue
                cnt = self.edge_drain_cnt[e]
                for f in old_hosts[tv]:
                    c = cnt[f] - 1
                    if c:
                        cnt[f] = c
                    else:
                        del cnt[f]
                for f in (no, *nreps):
                    cnt[f] = cnt.get(f, 0) + 1
        for f, dv in deltas.items():
            row = self.usage[f]
            for i in range(self.krt):
                row[i] += dv[i]
        for e, nu in new_units.items():
            self.edge_units[e] = nu
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
        for e in edge_ids:
            members = h.edges[e].members
            for a in members:
                cache = pair_corr.get(a)
                if cache:
                    for b in members:
                        cache.pop(b, None)
        self._unpark()
        self._refresh_after(touched)
        return op

    def _unpark(self) -> None:
        """Re-offer parked entries before the refresh rebuilds exchange
        gains, so those read exact move entries instead of falling back to
        the joint evaluation.  Every re-offered entry whose gain the op
        could have changed is one the refresh rebuilds, replacing it; the
        rest are still exact."""
        for kind, v, dest, gain in self.parked:
            if kind == "exchange":
                self.ex_heap.push(v, gain)
            elif kind == "move":
                self.move_heaps[dest].push(v, gain)
            elif kind == "replicate":
                self.rep_heaps[dest].push(v, gain)
            else:
                self.del_heaps[dest].push(v, gain)
        self.parked = []

    def _refresh_after(self, touched: list[int]) -> None:
        if not self.incremental:
            # the full variant is the from-scratch reference: no reuse
            self.pair_corr.clear()
            for v in range(self.h.num_vertices):
                self._rebuild_mrd(v)
            for v in range(self.h.num_vertices):
                self._rebuild_exchange(v)
            return
        # moves/replicates/deletes change only for net-sharing neighbors of
        # the touched vertices; exchange pairings reach one net further
        a1: set[int] = set(touched)
        for tv in touched:
            for e in self.h.incidence[tv]:
                a1.update(self.h.edges[e].members)
        a2: set[int] = set(a1)
        for v in a1:
            for e in self.h.incidence[v]:
                a2.update(self.h.edges[e].members)
        for v in sorted(a1):
            self._rebuild_mrd(v)
        p = self.p
        for v in sorted(a2):
            if v in a1:
                self._rebuild_exchange(v)
                continue
            # a pair gain involving v went stale only if its stored partner
            # or some current exchange candidate lies in the one-hop set
            stored = self.ex_partner.get(v)
            need = stored is not None and stored in a1
            if not need:
                pv = p.original[v]
                for m in self._neighbor_tuple(v):
                    if m in a1 and p.original[m] != pv:
                        need = True
                        break
            if need:
                self._rebuild_exchange(v)


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
        if deadline is not None and time.monotonic() >= deadline:
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
