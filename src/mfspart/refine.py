"""Refinement: move, exchange, replicate, and delete, selected from the gain arrays.

Every enabled kind's entries live in arrays, one copy each: move,
replicate and delete per vertex and destination FPGA in `gains`, and
exchange per vertex, with its best partner alongside, in the exchange
table's `best_g` and `best_u`.  The loop applies the best operation whose
gain passes its acceptance rule (delete runs at zero gain to free
resources, everything else needs strictly positive gain) and that fits
its destination's resources, re-checks the I/O and hop bounds at
application time, and then refreshes only the entries the operation can
have changed.

A prospective operation is a map {vertex: frozenset of its new hosts},
built by `_change`, which holds each kind's precondition; a commit
installs those sets in `hosts[v]`.  The state also keeps, per edge, the
count of drain copies on each FPGA; an operation is
evaluated by applying its host changes to copies of the affected edges'
counts and calling `metrics.net_terms` on each changed edge before and
after, which gives its units (so the gain), worst hop and I/O ports.  On
commit those same counts are installed.

The refresh is driven by count transitions, as in FM-style delta gain
updates.  A vertex's move, replicate and delete entries read, per incident
edge, the source's hosts and only the part of the drain counts its own
copies do not account for.  So the commit compares each changed edge's
counts before and after, and rebuilds the touched vertices, every drain of
an edge whose source was touched, the source of an edge whose covered
FPGAs changed, and a drain for which the FPGAs other drains cover changed
(a count crossing 0|1 at an FPGA it does not host, or 1|2 at one it
does); see `_transitions`.

A rebuilt vertex's entries come in closed form from two per-FPGA
aggregates of its incident edges, copy_cost (the cost of a copy of it on
each FPGA, as a drain) and src_w (the weight of the edges it sources that
drain on each FPGA); see `_mrd_rows`.  They are built on the vertex's
first use and from then on kept by per-net deltas, as an FM gain table
is: the commit patches them from each changed edge's counts and source
row, before and after.  The terms that read only src_w and the vertex's
hosts are cached until either changes, so a rebuild reads no edge and
costs O(K).  Every vertex's move, replicate and delete gains live in one
int64 array, `gains`, indexed by kind (in `FPGA_KINDS` order), vertex and
destination FPGA.  `OUT` is its one "no entry" value: at the vertex's own
FPGA, for a replicate onto a host, for a delete of a copy that is not a
replica, at every slot of a vertex without entries, at every slot of a
disabled replicate or delete, and at every move slot when neither move
nor exchange is enabled.  A commit writes the rebuilt vertices' rows into
`gains` (`_store_rows`).

An exchange gain is the two endpoints' move gains plus a correction over
the nets they share.  One array table per level, an `ExchangeTable` the
state owns, keeps every exchange entry's gain and each vertex's best
partner.  Every fact it reads is the state's own, read in place: the
arrays `orig`, `hop` and `rep_hop` (each vertex's original and
nearest-host and nearest-replica rows), which `_install` writes with the
host sets, the host mask `hosted`, the move rows `gains[0]` and the list
of drain counts.  It holds no reference back to the state: after a
commit the state makes one call, `ExchangeTable.commit`, naming the
touched vertices, the changed nets, and the rebuilt vertices with their
move rows from before the commit, and the table alone works out which
terms, pairs and partners to redo (see `_exchange`).

Selection is one masked argmax over those arrays (`peek_best`).  Of the
entries whose gain is acceptable, it keeps those whose resource deltas
fit the free room of their FPGAs, worked out as arrays from per-level
weights, capacities, usage and an n x K host mask, and takes the highest
gain, then the lowest item id, which orders kind, vertex and destination
as the tie order does.  Only the winner is checked in Python: an entry
`try_apply` rejected on I/O or hop grounds since the last commit (see
`hold`), or a zero-gain return (`_returns`), is masked out and the next
one taken.  So `try_apply` sees only entries that fit, and every entry
stays exact whether it is taken or not.  Once `max_replicas` binds,
replicate is no longer an enabled kind: its rows stay OUT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ._exchange import FAR, NONE, OUT, ExchangeTable
from .metrics import fpga_usage, net_terms
from .model import Hypergraph, Placement
from .topology import HopMatrix, MfsTopology

KIND_RANK = {"delete": 0, "move": 1, "exchange": 2, "replicate": 3}
BY_RANK = sorted(KIND_RANK, key=KIND_RANK.get)
ALL_OPS = ("move", "exchange", "replicate", "delete")
FPGA_KINDS = ("move", "replicate", "delete")  # entries per destination FPGA
OP_ALIASES = {"mv": "move", "ex": "exchange", "rep": "replicate", "del": "delete"}
_FPGA_RANKS = np.array([KIND_RANK[k] for k in FPGA_KINDS])
_NEVER = np.iinfo(np.int64).max  # above every gain


def op_kinds(ops) -> tuple[str, ...]:
    """The op kinds named by `ops`, in order, aliases resolved; an unknown
    name is a ValueError."""
    kinds = tuple(OP_ALIASES.get(o, o) for o in ops)
    unknown = set(kinds) - set(ALL_OPS)
    if unknown:
        raise ValueError(f"unknown op kinds: {sorted(unknown)}")
    return kinds


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


def _drain_counts(h: Hypergraph, hosts, e: int) -> dict[int, int]:
    """Per FPGA, the number of net e's drains d with it in `hosts[d]`."""
    cnt: dict[int, int] = {}
    for d in h.edges[e].drains:
        for f in hosts[d]:
            cnt[f] = cnt.get(f, 0) + 1
    return cnt


def _changed_nets(
    h: Hypergraph,
    hosts,
    change: dict[int, frozenset],
    drain_cnt: list[dict[int, int]] | dict[int, dict[int, int]],
) -> dict[int, tuple[frozenset, dict[int, int]]]:
    """Source hosts and drain-host counts, after a prospective change
    {vertex: new host set}, of every net with a changed member, from the
    current `hosts[v]` and `drain_cnt[e]` (copied, not edited)."""
    after: dict[int, tuple[frozenset, dict[int, int]]] = {}
    for v, new in change.items():
        old = hosts[v]
        for e in h.incidence[v]:
            src = h.edges[e].source
            if e not in after:
                after[e] = (change.get(src, hosts[src]), dict(drain_cnt[e]))
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
    # the hosts of every member of the nets the op reaches, and of the
    # changed vertices themselves (an isolated one reaches no net)
    nets = {e for x in change for e in h.incidence[x]}
    hosts = {x: p.hosts(x) for x in (*change, *(m for e in nets for m in h.edges[e].members))}
    cnts = {e: _drain_counts(h, hosts, e) for e in nets}
    g = 0
    for e, (src_hosts, cnt) in _changed_nets(h, hosts, change, cnts).items():
        edge = h.edges[e]
        before = net_terms(hm, hosts[edge.source], cnts[e])[0]
        g += edge.weight * (before - net_terms(hm, src_hosts, cnt)[0])
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
    """Incrementally maintained placement state plus the gain arrays.

    Every entry's gain equals the from-scratch gain of that operation
    under the current placement; the test suite leans on this.
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
        self.enabled = frozenset(op_kinds(ops))
        if max_replicas is not None and max_replicas < 0:
            raise ValueError("max_replicas must be non-negative")
        self.max_replicas = max_replicas
        if max_replicas == 0:  # the cap binds from the start
            self.enabled -= {"replicate"}
        self.allow_zero_gain = allow_zero_gain
        self.zero_gain_left = (
            (zero_gain_limit if zero_gain_limit is not None else h.num_vertices)
            if allow_zero_gain
            else 0
        )
        self.incremental = incremental

        n = h.num_vertices
        self.kf = t.k_fpgas
        self.caps = t.capacity_matrix()
        self.io_limits = list(t.io_limits)
        self.io_limited = any(l is not None for l in self.io_limits)
        self.hop_max = t.hop_max
        self.weights = h.weight_matrix().T  # per resource type, every vertex's weight

        # every vertex's host set, replaced at each commit by the one
        # `_change` gave, and the facts read from it (see `_install`); and
        # per-edge counts of drain copies per FPGA, kept current so gain
        # rebuilds never rescan (possibly huge) drain lists
        self.hosts: list[frozenset] = [frozenset()] * n
        self.host_hop: list[tuple[int, ...]] = [()] * n
        self.orig = np.zeros(n, np.intp)
        self.hop = np.zeros((n, self.kf), np.int64)
        self.rep_hop = np.full((n, self.kf), FAR, np.int64)
        self.hosted = np.zeros((n, self.kf), bool)
        for x in range(n):
            self._install(x, frozenset(self.p.hosts(x)))
        self.edge_drain_cnt = [_drain_counts(h, self.hosts, e.id) for e in h.edges]
        self.thd = 0
        self.io = [0] * self.kf
        for e, cnt in zip(h.edges, self.edge_drain_cnt):
            units, _, ports = net_terms(hm, self.hosts[e.source], cnt)
            self.thd += e.weight * units
            for f in ports:
                self.io[f] += e.weight
        self.usage = [list(u.values) for u in fpga_usage(h, self.p, self.kf)]

        # the nets each vertex sources, as (e, weight), and drains, as (e,
        # weight, source); and per drain FPGA g and cap c, the hops min(c,
        # dist[f][g]) over f, filled as asked for
        self.sourced: list[list[tuple[int, int]]] = [[] for _ in h.vertices]
        self.drained: list[list[tuple[int, int, int]]] = [[] for _ in h.vertices]
        for e in h.edges:
            self.sourced[e.source].append((e.id, e.weight))
            for d in e.drains:
                self.drained[d].append((e.id, e.weight, e.source))
        self._capped: list[dict] = [{None: col} for col in zip(*hm.dist)]
        # an entry's item id is (KIND_RANK[kind] * n + v) * K + dest, dest 0
        # for an exchange: its order is the tie order
        self._span = n * self.kf
        # (vertex, FPGA) pairs a vertex left by a zero-gain move or
        # exchange since the last positive-gain commit
        self.left_at_zero: set[tuple[int, int]] = set()
        # the item ids `try_apply` rejected since the last commit, and the
        # item id `peek_best` last returned
        self.held: set[int] = set()
        self._peeked: int | None = None

        self.applied: list[Op] = []
        self.replicates_applied = 0
        # every vertex's move, replicate and delete rows (see the module
        # docstring); and the exchange pairs of this level, whose table
        # reads the vertex facts, the move rows and the drain counts in
        # place and holds no reference back here
        self.gains = np.full((len(FPGA_KINDS), n, self.kf), OUT, np.int64)
        self.exchange = (
            ExchangeTable(
                h, hm.dist, self.orig, self.hop, self.rep_hop, self.hosted, self.gains[0],
                self.edge_drain_cnt,
            )
            if "exchange" in self.enabled else None
        )

        # past `deadline` the entries stay partial; the loop, which checks
        # the same deadline, then applies nothing
        self._build_entries(deadline)

    def _build_entries(self, deadline: float | None = None) -> None:
        """Build every entry from scratch: every vertex's rows, stored into
        an all-OUT `gains`, then the exchange entries, which read the move
        rows.  Stops at the first vertex that starts past `deadline`, and
        builds no exchange entry once it has passed.  Every aggregate and
        cache starts empty."""
        n = self.h.num_vertices
        # per vertex, built by `_aggregates` on first use and from then on
        # kept by per-net deltas (see `_transitions`): copy_cost[v][f], the
        # cost of a copy of v on f as a drain, and src_w[v], per FPGA f the
        # weight of the nets v sources whose drains cover f; src_terms[v]
        # caches what `_mrd_rows` reads of src_w[v] and v's hosts
        self.copy_cost: list[list[int] | None] = [None] * n
        self.src_w: list[dict[int, int] | None] = [None] * n
        self.src_terms: list[tuple | None] = [None] * n
        # v has entries exactly when it has a replica or cut[v] > 0: the
        # count of its nets that do not lie wholly on one FPGA (`_local`)
        self.cut = [0] * n
        for e, cnt in zip(self.h.edges, self.edge_drain_cnt):
            if not _local(self.hosts[e.source], cnt):
                for x in e.members:
                    self.cut[x] += 1
        # an entry of an enabled kind is a slot of `gains` that is not
        # OUT, for move, replicate and delete, and a vertex whose best_g
        # in the exchange table is not NONE, for exchange; the table scores
        # those from gains[0], each vertex's move gain to every FPGA
        self.gains.fill(OUT)
        rows = []
        while len(rows) < n and not _past(deadline):
            rows.append(self._mrd_rows(len(rows)))
        self._store_rows(np.arange(len(rows)), rows)
        if len(rows) == n and self.exchange is not None and not _past(deadline):
            self.exchange.build()

    def _install(self, x: int, hosts: frozenset) -> None:
        """Store x's host set, which the placement already holds, and every
        fact read from it: `hosts[x]`, its nearest-host row as a tuple
        (`host_hop[x]`) and as an array row (`hop[x]`), its nearest-replica
        row (`rep_hop[x]`, FAR without a replica), its original
        (`orig[x]`) and its row of the host mask (`hosted[x]`)."""
        reps = self.p.replicas[x]
        self.hosts[x] = hosts
        self.host_hop[x] = self.hop[x] = self.hm.nearest(hosts)[0]
        self.rep_hop[x] = self.hm.nearest(reps)[0] if reps else FAR
        self.orig[x] = self.p.original[x]
        self.hosted[x] = False
        self.hosted[x, list(hosts)] = True

    def _partner(self, v: int) -> int | None:
        """v's stored exchange partner, None without one."""
        u = -1 if self.exchange is None else int(self.exchange.best_u[v])
        return None if u < 0 else u

    # -- gain bookkeeping -------------------------------------------------

    def _capped_col(self, g: int, cap: int | None) -> tuple[int, ...]:
        """Per FPGA f, min(cap, dist[f][g]): the hop to g from the nearer of
        f and a host set `cap` hops away from g (None: from f alone)."""
        cols = self._capped[g]
        col = cols.get(cap)
        if col is None:
            col = cols[cap] = tuple(x if x < cap else cap for x in cols[None])
        return col

    def _aggregates(self, v: int) -> list[int]:
        """Build v's aggregates from its incident nets, on its first use;
        returns copy_cost[v].

        A net draining at v costs what its other drains cost plus, per f
        in v's hosts H that no other drain covers, its weight times the
        source's row at f: copy_cost[f] sums those terms over all f.  Drain
        nets are visited only at the FPGAs they cover, and their rows are
        summed once per distinct source row.  src_w[f] is the weight of
        the nets v sources whose drains cover f."""
        host_hop = self.host_hop
        cnts = self.edge_drain_cnt
        v_hosts = self.hosts[v]
        src_w: dict[int, int] = {}
        for e, w in self.sourced[v]:
            for f in cnts[e]:
                src_w[f] = src_w.get(f, 0) + w
        by_row: dict[tuple, int] = {}  # weight of nets draining at v, per source row
        covered = [0] * self.kf  # weighted hops at FPGAs other drains cover
        for e, w, s in self.drained[v]:
            hop = host_hop[s]
            by_row[hop] = by_row.get(hop, 0) + w
            for f, c in cnts[e].items():
                if c > (f in v_hosts):
                    covered[f] += w * hop[f]
        copy_cost = [-c for c in covered]
        for hop, w in by_row.items():
            copy_cost = [c + w * x for c, x in zip(copy_cost, hop)]
        self.src_w[v] = src_w
        self.copy_cost[v] = copy_cost
        return copy_cost

    def _sourced_terms(self, v: int) -> tuple:
        """The terms of v's gains that read only src_w[v] and v's hosts H
        (replicas R), cached in src_terms[v] until either changes:
        (src_now, move_col, rep_col, falls).

        src_now is the cost of v's sourced nets, src_w[g] times the row of
        H at g summed over g.  Adding a copy on f caps each FPGA's hop at
        f's, so the sourced cost after a move (hosts R + {f}) or a
        replicate (H + {f}) is, per f, a capped-column sum over the drain
        FPGAs, with R's row or H's as the cap: move_col[f] and rep_col[f].
        falls holds (r, the fall of the sourced cost when replica r goes)."""
        src_w = self.src_w[v]
        v_hop = self.host_hop[v]
        reps = self.p.replicas[v]
        r_hop = self.hm.nearest(reps)[0] if reps else None
        src_now = 0
        move_col = rep_col = [0] * self.kf
        for g, w in src_w.items():
            cap = v_hop[g]
            if cap:
                src_now += w * cap
                col = self._capped_col(g, cap)
                rep_col = [a + w * x for a, x in zip(rep_col, col)]
            cap = r_hop[g] if r_hop else None
            if cap != 0:
                col = self._capped_col(g, cap)
                move_col = [a + w * x for a, x in zip(move_col, col)]
        falls = []
        if reps:
            v_hosts = self.hosts[v]
            for r in reps:
                hop = self.hm.nearest(v_hosts - {r})[0]
                falls.append((r, src_now - sum(w * hop[g] for g, w in src_w.items())))
        terms = self.src_terms[v] = (src_now, tuple(move_col), tuple(rep_col), tuple(falls))
        return terms

    def _mrd_rows(self, v: int) -> tuple[list, list, list]:
        """v's move, replicate and delete rows: per destination FPGA, the
        gain, or OUT where the op does not apply.

        Every candidate changes only v's host set H, so its gain is a
        closed form in v's kept aggregates (see `_aggregates` and
        `_sourced_terms`): the copy costs of the copies it drops less
        those of the copies it adds, plus the fall of the sourced cost.
        The aggregates are built on v's first use and from then on patched
        by each commit's changed nets, so this reads no net and costs
        O(K).  A row is all OUT for a vertex without entries, for a
        disabled replicate or delete, and for move when neither move nor
        exchange, which reads the move rows, is enabled.
        """
        p = self.p
        reps = p.replicas[v]
        out = [OUT] * self.kf
        if not (reps or self.cut[v]):  # v has no entries
            return out, out, out
        copy_cost = self.copy_cost[v] or self._aggregates(v)
        src_now, move_col, rep_col, falls = self.src_terms[v] or self._sourced_terms(v)
        o = p.original[v]
        move = rep = dele = out
        if self.enabled & {"move", "exchange"}:
            keep = copy_cost[o] + src_now  # H's cost less R's copy costs
            move = [keep - c - x for c, x in zip(copy_cost, move_col)]
            for r in reps:  # a move onto a replica adds no copy
                move[r] += copy_cost[r]
            move[o] = OUT
        if "replicate" in self.enabled:
            rep = [src_now - c - x for c, x in zip(copy_cost, rep_col)]
            rep[o] = OUT
            for r in reps:
                rep[r] = OUT
        if reps and "delete" in self.enabled:
            dele = [OUT] * self.kf
            for r, fall in falls:
                dele[r] = copy_cost[r] + fall
        return move, rep, dele

    def _store_rows(self, vs: np.ndarray, rows: list) -> None:
        """Store `rows`, the `_mrd_rows` of the vertices vs, in `gains`."""
        new = np.array(rows, np.int64).reshape(len(vs), len(FPGA_KINDS), self.kf)
        self.gains[:, vs] = new.swapaxes(0, 1)

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

    def _returns(self, kind: str, v: int, dest: int) -> bool:
        """Whether a zero-gain move or exchange entry takes a vertex back
        to an FPGA it left at zero gain since the last positive-gain
        commit.  Selection passes such an entry over, so zero-gain ops
        cannot undo each other; the entry itself stays exact and live."""
        left = self.left_at_zero
        if not left or kind not in ("move", "exchange"):
            return False
        if (v, dest) in left:
            return True
        return kind == "exchange" and (self._partner(v), self.p.original[v]) in left

    def peek_best(self) -> tuple[str, int, int, int] | None:
        """Best acceptable entry that fits its destination's resources, as
        (kind, vertex, dest, gain), or None.

        The order is the tie order: higher gain, then delete > move >
        exchange > replicate, then lower vertex id, then lower destination
        id, which is higher gain, then lower item id.  Every acceptable
        entry that fits is a candidate (`_offers`); the best one is taken
        unless `try_apply` rejected it since the last commit (`hold`) or,
        at gain 0, `_returns` flags it, in which case the next is.  So the
        result is the entry the loop would reach by trying every better
        acceptable one and rejecting those that do not fit or return.
        """
        gains, items = self._offers()
        while len(gains):
            at = np.flatnonzero(gains == gains.max())
            i = at[items[at].argmin()]
            item, gain = int(items[i]), int(gains[i])
            kind, v, dest = self._decode(item)
            if item in self.held or (not gain and self._returns(kind, v, dest)):
                gains = np.delete(gains, i)
                items = np.delete(items, i)
                continue
            self._peeked = item
            return kind, v, dest, gain
        return None

    def _offers(self) -> tuple[np.ndarray, np.ndarray]:
        """Gains and item ids of every entry of an enabled kind whose gain
        is acceptable and whose resource deltas fit, as arrays: the rule of
        `_acceptable` and of `_fits` on `_resource_deltas`, over all entries
        at once.

        A move, replicate or delete of v to f adds v's weight on f exactly
        when f does not host v: a replicate's f never does and a delete's
        always does, so only a move onto a replica of v adds nothing.  An
        exchange of v on pv with u on pu changes pu by w_v [pu not a host
        of v] - w_u and pv by w_u [pv not a host of u] - w_v."""
        kf, span = self.kf, self._span
        # per resource type, the room left on each FPGA: a delta fits where
        # it is at most that, and one that is not positive always does
        free = self.caps - np.array(self.usage, np.int64)
        np.maximum(free, 0, out=free)
        rooms = list(zip(self.weights, free.T))
        hosted = self.hosted.reshape(-1)
        # the lowest acceptable gain of each kind (every positive gain is),
        # above every gain for a disabled one
        floor = np.array([
            1 - self._acceptable(kind, 0) if kind in self.enabled else _NEVER
            for kind in FPGA_KINDS
        ]).reshape(-1, 1, 1)
        at = np.flatnonzero(self.gains >= floor)
        k, vf = np.divmod(at, span)
        v, f = np.divmod(vf, kf)
        adds = ~hosted[vf]
        ok = np.ones(len(at), bool)
        for w, room in rooms:
            ok &= w[v] * adds <= room[f]
        gains = [self.gains.reshape(-1)[at[ok]]]
        items = [_FPGA_RANKS[k[ok]] * span + vf[ok]]
        if self.exchange is not None:
            table = self.exchange
            v = np.flatnonzero(table.best_g >= 1 - self._acceptable("exchange", 0))
            # the two FPGAs of each exchange: on y's FPGA, x arrives and y
            # leaves, for (x, y) = (v, u) and (u, v)
            x = np.concatenate((v, table.best_u[v]))
            y = np.concatenate((x[len(v):], v))
            at = self.orig[y]
            adds = ~hosted[x * kf + at]
            ok = np.ones(len(x), bool)
            for w, room in rooms:
                ok &= w[x] * adds - w[y] <= room[at]
            v = v[ok[:len(v)] & ok[len(v):]]
            gains.append(table.best_g[v])
            items.append(KIND_RANK["exchange"] * span + v * kf)
        return np.concatenate(gains), np.concatenate(items)

    def _decode(self, item: int) -> tuple[str, int, int]:
        """(kind, vertex, dest) of an item id; an exchange's dest is its
        stored partner's FPGA."""
        rank, rest = divmod(item, self._span)
        v, dest = divmod(rest, self.kf)
        if rank == KIND_RANK["exchange"]:
            dest = self.p.original[self._partner(v)]
        return BY_RANK[rank], v, dest

    def hold(self) -> None:
        """Pass over the entry `peek_best` just returned, which `try_apply`
        rejected on I/O or hop grounds, until the next commit.  It stays
        exact and listed meanwhile."""
        self.held.add(self._peeked)

    def entries(self) -> Iterator[Op]:
        """All entries of the enabled kinds as ops (gains filled in): by
        destination FPGA, then kind in `FPGA_KINDS` order, then vertex, and
        the exchanges last, by vertex."""
        kinds = [(k, kind) for k, kind in enumerate(FPGA_KINDS) if kind in self.enabled]
        ops = []
        for f in range(self.kf):
            for k, kind in kinds:
                col = self.gains[k, :, f]
                vs = np.flatnonzero(col != OUT)
                ops += [Op(kind, v, f, gain=g) for v, g in zip(vs.tolist(), col[vs].tolist())]
        if self.exchange is not None:
            orig = self.p.original
            best_g = self.exchange.best_g
            vs = np.flatnonzero(best_g != NONE)
            for v, u, g in zip(vs.tolist(), self.exchange.best_u[vs].tolist(), best_g[vs].tolist()):
                ops.append(Op("exchange", v, orig[u], u, orig[v], gain=g))
        return iter(ops)

    def _op_change(self, kind: str, v: int, dest: int) -> dict[int, frozenset] | None:
        """`_change` of an entry; an exchange takes its stored partner."""
        partner = self._partner(v) if kind == "exchange" else None
        return _change(self.p, kind, v, dest, partner)

    def _resource_deltas(self, change: dict[int, frozenset]) -> dict[int, np.ndarray]:
        """Net per-FPGA resource deltas of a host-set change."""
        deltas: dict[int, np.ndarray] = {}
        for tv, new_hosts in change.items():
            old_hosts = self.hosts[tv]
            wv = self.weights[:, tv]
            for f in new_hosts - old_hosts:
                deltas[f] = deltas.get(f, 0) + wv
            for f in old_hosts - new_hosts:
                deltas[f] = deltas.get(f, 0) - wv
        return deltas

    def _fits(self, deltas: dict[int, np.ndarray]) -> bool:
        """Whether every FPGA has room for its positive deltas."""
        return all(
            ((dv <= 0) | (self.usage[f] + dv <= self.caps[f])).all()
            for f, dv in deltas.items()
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
        change = self._op_change(kind, v, dest)
        if change is None:
            return None
        deltas = self._resource_deltas(change)
        if not self._fits(deltas):
            return None

        # every changed edge's terms after the op, and before it from the
        # installed counts: the gain, the worst hop and the I/O delta
        after = _changed_nets(h, self.hosts, change, self.edge_drain_cnt)
        gain = 0
        io_delta: dict[int, int] = {}
        for e, (src_hosts, cnt) in after.items():
            edge = h.edges[e]
            w = edge.weight
            units, worst, ports = net_terms(self.hm, src_hosts, cnt)
            if self.hop_max is not None and worst > self.hop_max:
                return None
            old_units, _, old_ports = net_terms(
                self.hm, self.hosts[edge.source], self.edge_drain_cnt[e]
            )
            gain += w * (old_units - units)
            for f in old_ports:
                io_delta[f] = io_delta.get(f, 0) - w
            for f in ports:
                io_delta[f] = io_delta.get(f, 0) + w
        if self.io_limited:
            for f, d in io_delta.items():
                lim = self.io_limits[f]
                if lim is not None and self.io[f] + d > lim:
                    return None

        # commit
        dirty = self._transitions(change, after) if self.incremental else ()
        partner = self._partner(v) if kind == "exchange" else None
        source = p.original[v]
        partner_dest = None if partner is None else source
        op = Op(kind, v, dest, partner, partner_dest, gain)
        apply_op(p, op)
        for e, (_, cnt) in after.items():
            self.edge_drain_cnt[e] = cnt
        for x, hosts in change.items():
            self._install(x, hosts)
        for f, dv in deltas.items():
            row = self.usage[f]
            for i, d in enumerate(dv.tolist()):
                row[i] += d
        self.held.clear()
        for f, d in io_delta.items():
            self.io[f] += d
        self.thd -= gain
        if kind == "replicate":
            self.replicates_applied += 1
            if self.replicates_applied == self.max_replicas:
                self._drop_replicates()
        if gain > 0:
            self.left_at_zero.clear()
        elif gain == 0 and kind in ("move", "exchange"):
            self.left_at_zero.add((v, source))
            if partner is not None:
                self.left_at_zero.add((partner, dest))
            if self.allow_zero_gain:
                self.zero_gain_left -= 1
        self.applied.append(op)
        self._refresh_after(dirty, change, after)
        return op

    def _drop_replicates(self) -> None:
        """Disable replicate, whose cap binds: its rows stay OUT."""
        self.gains[1] = OUT
        self.enabled -= {"replicate"}

    def _transitions(self, change: dict[int, frozenset], after: dict) -> set[int]:
        """The vertices whose move/replicate/delete entries a commit of
        `change` can alter, read in one pass over the changed nets' drain
        counts before (installed) and after (`after`) it.  The same pass
        patches the kept aggregates by each changed net's terms before and
        after, and drops the cached sourced-net terms of the vertices whose
        hosts or src_w change.

        Those entries read, per incident edge, only the source's hosts
        and, of the drain counts, what the vertex's own copies do not
        account for: for the source the covered FPGAs, for a drain d the
        FPGAs that other drains cover, {f : cnt[f] - [f in hosts(d)] > 0}.
        So when the source is touched, every drain is dirty.  Otherwise
        what matters is the FPGAs where a count crosses 0|1 or 1|2: the
        source is dirty when the covered set changed, and a drain when a
        0|1 crossing is at an FPGA it does not host, or a 1|2 crossing at
        one it does.  A touched drain is dirty anyway, but what other
        drains cover can change for it with no count changing (an exchange
        of two drains of one net), so its copy_cost is patched at every
        FPGA e covers.
        """
        h = self.h
        hosts = self.hosts
        host_hop = self.host_hop
        copy_cost = self.copy_cost
        src_w = self.src_w
        src_terms = self.src_terms
        cut = self.cut
        dirty = set(change)
        for x in change:
            src_terms[x] = None
        for e, (src_hosts, new) in after.items():
            edge = h.edges[e]
            s = edge.source
            w = edge.weight
            old = self.edge_drain_cnt[e]
            was_local = _local(hosts[s], old)
            if was_local != _local(src_hosts, new):
                step = 1 if was_local else -1
                for x in edge.members:
                    cut[x] += step
            spread = old.keys() | new.keys()
            outside = set()  # 0|1 crossings: reach drains not hosting f
            inside = set()  # 1|2 crossings: reach drains hosting f
            for f in spread:
                a, b = old.get(f, 0), new.get(f, 0)
                if (a == 0) != (b == 0):
                    outside.add(f)
                if (a > 1) != (b > 1):
                    inside.add(f)
            if outside:  # the covered set changed
                dirty.add(s)
                sw = src_w[s]
                if sw is not None:
                    src_terms[s] = None
                    for f in outside:
                        x = sw.get(f, 0) + (w if f in new else -w)
                        if x:
                            sw[f] = x
                        else:
                            del sw[f]
            if s in change:
                dirty.update(edge.drains)
                hop_old = host_hop[s]
                hop_new = self.hm.nearest(src_hosts)[0]
                shift = [w * (b - a) for a, b in zip(hop_old, hop_new)]
                for d in edge.drains:
                    cc = copy_cost[d]
                    if cc is None:
                        continue
                    was, now = hosts[d], change.get(d, hosts[d])
                    cc = copy_cost[d] = [c + x for c, x in zip(cc, shift)]
                    for f, c in old.items():
                        if c > (f in was):  # another drain covers f
                            cc[f] += w * hop_old[f]
                    for f, c in new.items():
                        if c > (f in now):
                            cc[f] -= w * hop_new[f]
            else:
                hop = host_hop[s]
                flips = outside | inside
                for d in edge.drains:
                    cc = copy_cost[d]
                    if d in change:
                        if cc is None:  # touched, so dirty already
                            continue
                        fpgas = spread
                    elif not flips or (cc is None and d in dirty):
                        continue
                    else:
                        fpgas = flips
                    was, now = hosts[d], change.get(d, hosts[d])
                    for f in fpgas:
                        held = f in was
                        # whether no other drain covers f, before and after
                        uncovered = new.get(f, 0) == (f in now)
                        if (old.get(f, 0) == held) != uncovered:
                            dirty.add(d)
                            if cc is not None:
                                cc[f] += w * hop[f] if uncovered else -w * hop[f]
        return dirty

    def _refresh_after(self, dirty: set[int], change: dict, after: dict) -> None:
        """Rebuild and store the dirty vertices' rows, then name to the
        exchange table, whose facts `_install` and the drain counts already
        hold, what the commit of `change` changed: the touched vertices,
        the changed nets (those of `after`) and the dirty vertices with
        their old move rows."""
        if not self.incremental:
            # the full variant is the from-scratch reference: no reuse
            self._build_entries()
            return
        vs = np.fromiter(dirty, np.intp, len(dirty))
        old = self.gains[0, vs]
        self._store_rows(vs, [self._mrd_rows(v) for v in vs.tolist()])
        if self.exchange is not None:
            self.exchange.commit(
                np.fromiter(change, np.intp, len(change)),
                np.fromiter(after, np.intp, len(after)),
                vs,
                old,
            )


def _local(src_hosts, cnt: dict[int, int]) -> bool:
    """Whether a net lies wholly on one FPGA: its source has one copy and
    every drain copy sits with it.  A vertex none of whose nets is cut
    this way, and that has no replica, has no entries."""
    return len(cnt) == 1 and len(src_hosts) == 1 and not src_hosts.isdisjoint(cnt)


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
    if not ops or _past(deadline):
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

    An entry that `try_apply` rejects is passed over until the next commit
    (see `RefineState.hold`); it stays exact and listed meanwhile, so
    after every attempt the entries are those a fresh state builds.  With
    a `deadline` (a
    `time.monotonic()` value) the loop stops at the first iteration that
    starts past it.
    """
    applied = 0
    while max_ops is None or applied < max_ops:
        if _past(deadline):
            break
        best = state.peek_best()
        if best is None:
            break
        kind, v, dest, _ = best
        op = state.try_apply(kind, v, dest)
        if op is None:
            state.hold()
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

