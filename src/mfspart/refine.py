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

The state holds the placement one way: `orig`, every vertex's original
FPGA, and the n x K host mask `hosted`, which FPGAs hold a copy of each
vertex; `RefineState.p` builds a `Placement` from them when asked.  A
prospective operation is a map {vertex: (frozenset of its hosts, frozenset
of its new hosts)}, built by `_change` from those arrays, which holds each
kind's precondition and reads each changed vertex's mask row once; a
commit writes the new originals into `orig` and the new sets into the
mask rows (`_install`).  The state also keeps one m x K count
matrix, `cnt`: per net and FPGA, the number of the net's drains with a
copy there.  It takes that matrix, the THD, the I/O and the usage from
the metrics' one pass over the host mask, `metrics.tally`.  An operation
is evaluated by `_evaluate`, which reads each vertex's nets and each
net's source and weight from lists built once per level off the pin
arrays, applies its host changes to list copies of the affected nets'
rows and calls `metrics.net_terms` on each
changed net's covered FPGAs before and after, which gives its units (so
the gain), worst hop and I/O ports.  On commit those rows are written
back in one assignment.  The from-scratch gains (`gain_move` and the
rest) run the same evaluation on a placement's own host mask and count
matrix.

A vertex's move, replicate and delete entries are a closed form in two
per-FPGA sums over its nets and in its own hop rows (see `_rows`):
copy_cost, the cost of a copy of it on each FPGA as a drain, and src_w,
the weight of the nets it sources whose drains cover each FPGA.  The
sourced cost after a copy is added on f is a sum of src_w times hops
capped at f's, by the vertex's nearest-replica row for a move and by its
nearest-host row for a replicate; a delete's fall comes from the
nearest-host row without that replica.  `_rows` computes all of it for
any vertex set in a few array passes over the level's pin arrays (the
hypergraph's own), the count matrix and the host arrays, and keeps nothing
between calls: the entry build calls it in runs of `RUN` vertices, and
every commit on the vertices the commit made dirty.

The refresh is driven by count transitions, as in FM-style delta gain
updates.  A vertex's entries read, per incident net, the source's hosts
and only the part of the drain counts its own copies do not account
for.  So the commit compares each changed net's count row before and
after, as arrays, and rebuilds the touched vertices, every drain of a
net whose source was touched, the source of a net whose covered FPGAs
changed, and a drain d for which cnt == [f in hosts(d)] flips at some
FPGA f: a count crossing 0|1 at an FPGA d does not host, or 1|2 at one
it does; see `_dirty`.  Every vertex's move, replicate and delete gains
live in one int64 array, `gains`, indexed by kind (in `FPGA_KINDS`
order), vertex and destination FPGA.  `OUT` is its one "no entry"
value: at the vertex's own FPGA, for a replicate onto a host, for a
delete of a copy that is not a replica, at every slot of a vertex
without entries, at every slot of a disabled replicate or delete, and
at every move slot when neither move nor exchange is enabled.  A vertex
has entries exactly when it has a net or a replica, which `_rows` reads
from the pin arrays and the host mask.

An exchange gain is the two endpoints' move gains plus a correction over
the nets they share.  One table per level, an `ExchangeTable` the state
owns, keeps each vertex's best exchange (gain and partner), scored on
demand from the pin arrays, and nothing per pair.  Every fact it reads is
the state's own, read in place: the hypergraph, the arrays `orig`, `hop`
and `rep_hop` (each vertex's original and nearest-host and
nearest-replica rows), which a commit writes with the host mask, the
move rows `gains[0]` and the count matrix.  It holds no reference back
to the state: after a commit the state makes one call,
`ExchangeTable.commit`, naming the changed nets and the rebuilt vertices
with their move rows from before the commit, and the table marks stale
every best the commit can have changed (see `_exchange`).

Selection is one masked argmax over those arrays (`peek_best`).  Of the
entries whose gain is acceptable, it keeps those whose resource deltas
fit the free room of their FPGAs, worked out as arrays from per-level
weights, capacities, usage and an n x K host mask, and takes the highest
gain, then the lowest item id, which orders kind, vertex and destination
as the tie order does.  Only the winner is checked in Python: an entry
`try_apply` rejected on I/O or hop grounds since the last commit (see
`hold`), or a zero-gain return (`_returns`), is masked out and the next
one taken.  Then the stale exchange bests that could reach the winner's
gain are settled, and the winner taken again from them and itself.  So
`try_apply` sees only entries that fit, and every entry is exact whether
it is taken or not: a stale best is settled before it is read, by
selection, by `entries()` and by an exchange's partner lookup.  Once
`max_replicas` binds, replicate is no longer an enabled kind: its rows
stay OUT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator

import numpy as np

from ._exchange import FAR, NONE, OUT, ExchangeTable, _dedupe, _ranges
from .metrics import net_terms, tally
from .model import Hypergraph, Placement
from .topology import HopMatrix, MfsTopology

KIND_RANK = {"delete": 0, "move": 1, "exchange": 2, "replicate": 3}
BY_RANK = sorted(KIND_RANK, key=KIND_RANK.get)
ALL_OPS = ("move", "exchange", "replicate", "delete")
FPGA_KINDS = ("move", "replicate", "delete")  # entries per destination FPGA
OP_ALIASES = {"mv": "move", "ex": "exchange", "rep": "replicate", "del": "delete"}
_FPGA_RANKS = np.array([KIND_RANK[k] for k in FPGA_KINDS])
_NEVER = np.iinfo(np.int64).max  # above every gain
RUN = 1 << 7  # vertices per `_rows` pass: bounds its (run, K, K) temporaries


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


def _hosts(hosted: np.ndarray, v: int) -> frozenset:
    """The FPGAs holding a copy of v, read off its row of the host mask."""
    return frozenset(compress(range(hosted.shape[1]), hosted[v].tolist()))


def _change(
    orig, hosted: np.ndarray, kind: str, v: int, dest: int, partner: int | None = None
) -> dict[int, tuple[frozenset, frozenset]] | None:
    """The host sets of the vertices an op changes, before and after it,
    {vertex: (hosts, new hosts)}, or None when it does not apply: a move
    to v's own FPGA, an exchange whose partner is missing, not on `dest`
    or on v's FPGA, a replicate onto a host of v, or a delete of a copy v
    does not have.  Each kind's precondition lives here and nowhere else.
    A move or exchange absorbs a replica already on the destination.
    `orig` holds every vertex's original and `hosted` is the host mask."""
    o = int(orig[v])
    hosts = _hosts(hosted, v)
    if kind == "move":
        return None if dest == o else {v: (hosts, hosts - {o} | {dest})}
    if kind == "exchange":
        if partner is None or orig[partner] != dest or dest == o:
            return None
        theirs = _hosts(hosted, partner)
        return {v: (hosts, hosts - {o} | {dest}), partner: (theirs, theirs - {dest} | {o})}
    if kind == "replicate":
        return None if dest in hosts else {v: (hosts, hosts | {dest})}
    if kind == "delete":
        return {v: (hosts, hosts - {dest})} if dest in hosts and dest != o else None
    raise ValueError(f"unknown op kind '{kind}'")


def _net_lists(h: Hypergraph) -> tuple[list[list[int]], list[int], list[int]]:
    """Every vertex's nets, and each net's source and weight, as lists."""
    return h.incidence, h.source.tolist(), h.weight.tolist()


def _evaluate(nets, hm: HopMatrix, hosted: np.ndarray, cnt: np.ndarray, change):
    """A prospective change (see `_change`) evaluated net by net, from
    `_net_lists`, the current host mask and the count matrix: `(rows,
    gain, worst, io_delta)`.  `rows` holds, per net with a changed member,
    its source and its count rows before and after the change, as lists;
    then come the THD decrease, the worst hop of those nets after it, and
    the I/O delta at every FPGA that is a port of one of them before or
    after.  A net's terms are `net_terms` of its source's hosts at the
    FPGAs its count row covers."""
    incidence, sources, weights = nets
    fpgas = range(hm.k_fpgas)
    # every changed vertex's hosts before and after the change; each
    # other source's are read off its mask row once
    before = {v: old for v, (old, _) in change.items()}
    after = {v: new for v, (_, new) in change.items()}
    rows: dict[int, tuple[int, list[int], list[int]]] = {}
    for v, (old, new) in change.items():
        for e in incidence[v]:
            src = sources[e]
            if e not in rows:
                was = cnt[e].tolist()
                rows[e] = (src, was, was.copy())
            if src != v:
                row = rows[e][2]
                for f in old:
                    row[f] -= 1
                for f in new:
                    row[f] += 1
    gain = worst = 0
    io_delta: dict[int, int] = {}
    for e, (src, was, now) in rows.items():
        if src not in before:
            before[src] = _hosts(hosted, src)
        w = weights[e]
        units, x, ports = net_terms(hm, after.get(src, before[src]), compress(fpgas, now))
        old_units, _, old_ports = net_terms(hm, before[src], compress(fpgas, was))
        gain += w * (old_units - units)
        if x > worst:
            worst = x
        for f in old_ports:
            io_delta[f] = io_delta.get(f, 0) - w
        for f in ports:
            io_delta[f] = io_delta.get(f, 0) + w
    return rows, gain, worst, io_delta


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
    """THD decrease of one op, from the nets whose members it changes,
    evaluated on the placement's drain counts."""
    hosted = p.host_mask(hm.k_fpgas)
    change = _change(p.original, hosted, kind, v, dest, partner)
    if change is None:
        raise ValueError(_INAPPLICABLE[kind])
    return _evaluate(_net_lists(h), hm, hosted, h.drain_counts(hosted), change)[1]


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
        kf = self.kf = t.k_fpgas
        self.caps = t.capacity_matrix()
        self.io_limits = list(t.io_limits)
        self.io_limited = any(l is not None for l in self.io_limits)
        self.hop_max = t.hop_max
        self.weights = h.weight_matrix().T  # per resource type, every vertex's weight
        self.index = h  # the level's pin arrays, read by `_sums`, `_dirty` and the table
        self.nets = _net_lists(h)
        self.dist = np.array(hm.dist, np.int64).reshape(kf, kf)

        # the placement, one way: every vertex's original and the host
        # mask, with the facts read from them (see `_install`): set for
        # every vertex at once as if it had no replica, then installed one
        # by one for those that have one
        self.orig = np.array(p.original, np.intp).reshape(n)
        # the nearest-host and nearest-replica rows, in one array so that
        # `_sums` reads both of a vertex set in one pass
        self._hops = np.full((2, n, kf), FAR, np.int64)
        self.hop, self.rep_hop = self._hops
        self.hop[:] = self.dist[self.orig]
        self.hosted = p.host_mask(kf)
        for x, reps in enumerate(p.replicas):
            if reps:
                self._install(x, frozenset(reps | {p.original[x]}))
        # the count matrix (per net and FPGA, the number of the net's
        # drains with a copy there), THD, I/O and usage, from the host mask
        facts = tally(h, self.hosted, hm)
        self.cnt, self.thd, self.io = facts.cnt, facts.thd, facts.io
        self.usage = facts.usage.tolist()

        # an entry's item id is (KIND_RANK[kind] * n + v) * K + dest, dest 0
        # for an exchange: its order is the tie order
        self._span = n * kf
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
        # docstring); and the exchange bests of this level, whose table
        # reads the pin arrays, the vertex facts, the move rows and the
        # count matrix in place and holds no reference back here
        self.gains = np.full((len(FPGA_KINDS), n, kf), OUT, np.int64)
        self.exchange = (
            ExchangeTable(
                self.index, self.dist, self.orig, self.hop, self.rep_hop, self.gains[0], self.cnt,
            )
            if "exchange" in self.enabled else None
        )

        # past `deadline` the entries stay partial; the loop, which checks
        # the same deadline, then applies nothing
        self._build_entries(deadline)

    def _build_entries(self, deadline: float | None = None) -> None:
        """Build every entry from scratch: every vertex's rows, stored into
        an all-OUT `gains` in runs of `RUN` vertices, then every exchange
        best is marked stale, to be scored from the move rows when read.
        Stops at the first run that starts past `deadline`, and lists no
        exchange entry once it has passed."""
        n = self.h.num_vertices
        # an entry of an enabled kind is a slot of `gains` that is not
        # OUT, for move, replicate and delete, and a vertex whose settled
        # best_g in the exchange table is not NONE, for exchange; the table
        # scores those from gains[0], each vertex's move gain to every FPGA
        self.gains.fill(OUT)
        done = 0
        while done < n and not _past(deadline):
            vs = np.arange(done, min(done + RUN, n))
            self.gains[:, vs] = self._rows(vs)
            done += len(vs)
        if done == n and self.exchange is not None and not _past(deadline):
            self.exchange.reset()

    @property
    def p(self) -> Placement:
        """The current placement, built from `orig` and the replica part of
        `hosted`; a new object on every read."""
        q = Placement(self.orig.tolist())
        reps = self.hosted.copy()
        reps[np.arange(len(reps)), self.orig] = False
        for x, f in zip(*(a.tolist() for a in np.nonzero(reps))):
            q.replicas[x].add(f)
        return q

    def _install(self, x: int, hosts: frozenset) -> None:
        """Store x's host set, whose original `orig[x]` already holds, in
        its row of the host mask (`hosted[x]`), with the facts read from
        it: its nearest-host row (`hop[x]`) and its nearest-replica row
        (`rep_hop[x]`, FAR without a replica)."""
        reps = hosts - {self.orig[x]}
        self.hop[x] = self.hm.nearest(hosts)[0]
        self.rep_hop[x] = self.hm.nearest(reps)[0] if reps else FAR
        self.hosted[x] = False
        self.hosted[x, list(hosts)] = True

    def _partner(self, v: int) -> int | None:
        """v's best exchange partner, None without one."""
        return None if self.exchange is None else self.exchange.partner(v)

    # -- gain bookkeeping -------------------------------------------------

    def _sums(self, vs: np.ndarray) -> tuple[np.ndarray, ...]:
        """The terms of the rows of the vertices vs, each a (len(vs), K)
        array but src_now, one value per vertex:

        - copy_cost[f], the cost of a copy of v on f as a drain: over the
          nets v drains, the weight times the source's hop to f where no
          other drain covers f, that is where the count is at most [f in
          H], H the hosts of v;
        - src_w[f], the weight of the nets v sources whose drains cover f;
        - src_now, the cost of v's sourced nets, src_w times v's hop row;
        - move_col[f] and rep_col[f], that cost once a copy on f is added
          to v's replicas R (a move) or to H (a replicate): src_w times the
          hops from f capped by the row of R (FAR without a replica) or of
          H."""
        ix = self.index
        caps = np.take(self._hops, vs, 1)
        hop = caps[0]
        # every net of every vertex v of vs: as a drain v adds its copy
        # cost, as the source its sourced weight
        starts, stops = ix.inc_ptr[vs], ix.inc_ptr[vs + 1]
        pos, row = _ranges(starts, stops)
        es = ix.inc[pos]
        src = ix.source[es]
        v = vs[row]
        cnt = np.take(self.cnt, es, 0)  # np.take: a faster row gather
        w = ix.weight[es]
        sourced = np.flatnonzero(src == v)
        src_w = _run_sums(
            (cnt[sourced] > 0) * w[sourced, None], np.bincount(row[sourced], minlength=len(vs))
        )
        w[sourced] = 0
        cost = np.take(self.hop, src, 0)
        cost *= w[:, None]
        cost *= cnt <= np.take(self.hosted, v, 0)
        copy_cost = _run_sums(cost, stops - starts)
        src_now = (src_w * hop).sum(1)
        # the capped hops of a replicate, then of a move, times src_w
        rep_col, move_col = (np.minimum(self.dist, caps[:, :, None]) @ src_w[:, :, None])[..., 0]
        return copy_cost, src_w, src_now, move_col, rep_col

    def _rows(self, vs: np.ndarray) -> np.ndarray:
        """The move, replicate and delete rows of the vertices vs, as a
        (3, len(vs), K) array: per destination FPGA, the gain, or OUT
        where the op does not apply.

        Every candidate changes only v's host set H, so its gain is a
        closed form in the terms of `_sums`: the copy costs of the copies
        it drops less those of the copies it adds, plus the fall of the
        sourced cost.  A move onto a replica adds no copy, and a delete of
        replica r drops r's copy and the sourced cost falls to that of H
        less r.  A row is all OUT for a vertex without entries, one with
        no net and no replica, for a disabled replicate or delete, and for
        move when neither move nor exchange, which reads the move rows, is
        enabled.  A vertex whose nets all lie wholly on its one FPGA keeps
        its rows: every move gain is negative and every replicate gain at
        most zero, so selection never takes one."""
        copy_cost, src_w, src_now, move_col, rep_col = self._sums(vs)
        at = np.arange(len(vs))
        o = self.orig[vs]
        held = self.hosted[vs]
        reps = held.copy()
        reps[at, o] = False
        rows = np.full((len(FPGA_KINDS), len(vs), self.kf), OUT, np.int64)
        if self.enabled & {"move", "exchange"}:
            move = rows[0]
            np.subtract((copy_cost[at, o] + src_now)[:, None], move_col, out=move)
            move -= copy_cost * ~reps
            move[at, o] = OUT
        if "replicate" in self.enabled:
            rep = rows[1]
            np.subtract(src_now[:, None], copy_cost, out=rep)
            rep -= rep_col
            rep[held] = OUT
        at, r = np.nonzero(reps)
        if len(r) and "delete" in self.enabled:
            without = held[at]
            without[np.arange(len(r)), r] = False
            hop = np.where(without[:, :, None], self.dist, FAR).min(1)
            fall = src_now[at] - (src_w[at] * hop).sum(1)
            rows[2, at, r] = copy_cost[at, r] + fall
        ptr = self.index.inc_ptr
        rows[:, (ptr[vs + 1] == ptr[vs]) & ~reps.any(1)] = OUT
        return rows

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
        return kind == "exchange" and (self._partner(v), int(self.orig[v])) in left

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
        acceptable one and rejecting those that do not fit or return.  A
        stale exchange best is not a candidate until settled: those that
        reach the pick's gain, or the exchange floor without a pick, are
        settled (`ExchangeTable.wake`; ties count, as an exchange outranks
        a replicate) and the pick taken again.
        """
        rooms = self._rooms()
        best = self._pick(*self._offers(rooms))
        if self.exchange is not None:
            # the stale bests that can beat the pick, each settled at its
            # gain or above; one wake is enough, since the pick among them
            # and the old pick gains no less.  None of them is held: a
            # commit marks, and clears what is held
            bar = 1 - self._acceptable("exchange", 0)
            if best is not None:
                bar = max(bar, best[1][3])
            woken = self.exchange.wake(bar)
            if len(woken):
                gains, items = self._exchange_offers(woken, rooms)
                if best is not None:
                    gains = np.append(gains, best[1][3])
                    items = np.append(items, best[0])
                best = self._pick(gains, items)
        if best is None:
            return None
        self._peeked = best[0]
        return best[1]

    def _pick(self, gains: np.ndarray, items: np.ndarray):
        """The best of the offers (gains and item ids) that is not held and
        not a zero-gain return, as (item id, (kind, vertex, dest, gain)),
        or None."""
        while len(gains):
            at = np.flatnonzero(gains == gains.max())
            i = at[items[at].argmin()]
            item, gain = int(items[i]), int(gains[i])
            kind, v, dest = self._decode(item)
            if item in self.held or (not gain and self._returns(kind, v, dest)):
                gains = np.delete(gains, i)
                items = np.delete(items, i)
                continue
            return item, (kind, v, dest, gain)
        return None

    def _rooms(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per resource type, every vertex's weight and the room left on
        each FPGA: a delta fits where it is at most that, and one that is
        not positive always does."""
        free = self.caps - np.array(self.usage, np.int64)
        np.maximum(free, 0, out=free)
        return list(zip(self.weights, free.T))

    def _offers(self, rooms) -> tuple[np.ndarray, np.ndarray]:
        """Gains and item ids of every entry of an enabled kind whose gain
        is acceptable and whose resource deltas fit (`_rooms`), as arrays:
        the rule of `_acceptable` and of `_fits` on `_resource_deltas`, over
        all entries at once.

        A move, replicate or delete of v to f adds v's weight on f exactly
        when f does not host v: a replicate's f never does and a delete's
        always does, so only a move onto a replica of v adds nothing."""
        kf, span = self.kf, self._span
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
        gains = self.gains.reshape(-1)[at[ok]]
        items = _FPGA_RANKS[k[ok]] * span + vf[ok]
        if self.exchange is None:
            return gains, items
        v = (self.exchange.best_g >= 1 - self._acceptable("exchange", 0)).nonzero()[0]
        more = self._exchange_offers(v, rooms)
        return np.concatenate((gains, more[0])), np.concatenate((items, more[1]))

    def _exchange_offers(self, v: np.ndarray, rooms) -> tuple[np.ndarray, np.ndarray]:
        """`_offers` of the settled exchange bests of the vertices v, whose
        gains are acceptable.  An exchange of v on pv with u on pu changes
        pu by w_v [pu not a host of v] - w_u and pv by w_u [pv not a host of
        u] - w_v."""
        table = self.exchange
        # the two FPGAs of each exchange: on y's FPGA, x arrives and y
        # leaves, for (x, y) = (v, u) and (u, v)
        x = np.concatenate((v, table.best_u[v]))
        y = np.concatenate((x[len(v):], v))
        at = self.orig[y]
        adds = ~self.hosted[x, at]
        ok = np.ones(len(x), bool)
        for w, room in rooms:
            ok &= w[x] * adds - w[y] <= room[at]
        v = v[ok[:len(v)] & ok[len(v):]]
        return table.best_g[v], KIND_RANK["exchange"] * self._span + v * self.kf

    def _decode(self, item: int) -> tuple[str, int, int]:
        """(kind, vertex, dest) of an item id; an exchange's dest is its
        best partner's FPGA."""
        rank, rest = divmod(item, self._span)
        v, dest = divmod(rest, self.kf)
        if rank == KIND_RANK["exchange"]:
            dest = int(self.orig[self._partner(v)])
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
            self.exchange.wake()
            orig = self.orig.tolist()
            best_g = self.exchange.best_g
            vs = np.flatnonzero(best_g != NONE)
            for v, u, g in zip(vs.tolist(), self.exchange.best_u[vs].tolist(), best_g[vs].tolist()):
                ops.append(Op("exchange", v, orig[u], u, orig[v], gain=g))
        return iter(ops)

    def _op_change(self, kind: str, v: int, dest: int):
        """`_change` of an entry; an exchange takes its best partner."""
        partner = self._partner(v) if kind == "exchange" else None
        return _change(self.orig, self.hosted, kind, v, dest, partner)

    def _resource_deltas(self, change) -> dict[int, np.ndarray]:
        """Net per-FPGA resource deltas of a host-set change (see `_change`)."""
        deltas: dict[int, np.ndarray] = {}
        for tv, (old_hosts, new_hosts) in change.items():
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
        change = self._op_change(kind, v, dest)
        if change is None:
            return None
        deltas = self._resource_deltas(change)
        if not self._fits(deltas):
            return None

        # every changed net's terms before and after the op: the gain, the
        # worst hop and the I/O delta
        rows, gain, worst, io_delta = _evaluate(self.nets, self.hm, self.hosted, self.cnt, change)
        if self.hop_max is not None and worst > self.hop_max:
            return None
        if self.io_limited:
            for f, d in io_delta.items():
                lim = self.io_limits[f]
                if lim is not None and self.io[f] + d > lim:
                    return None

        # commit
        es = np.fromiter(rows, np.intp, len(rows))
        old = self.cnt[es]
        new = np.array([now for _, _, now in rows.values()], np.int64).reshape(-1, self.kf)
        partner = self._partner(v) if kind == "exchange" else None
        source = int(self.orig[v])
        partner_dest = None if partner is None else source
        op = Op(kind, v, dest, partner, partner_dest, gain)
        if kind in ("move", "exchange"):
            self.orig[v] = dest
        if partner is not None:
            self.orig[partner] = source
        self.cnt[es] = new
        for x, (_, hosts) in change.items():
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
        self._refresh_after(np.fromiter(change, np.intp, len(change)), es, old, new)
        return op

    def _drop_replicates(self) -> None:
        """Disable replicate, whose cap binds: its rows stay OUT."""
        self.gains[1] = OUT
        self.enabled -= {"replicate"}

    def _dirty(
        self,
        touched: np.ndarray,
        es: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        crossed: np.ndarray,
    ) -> np.ndarray:
        """The vertices whose move/replicate/delete entries a commit can
        alter, sorted, from the `touched` vertices, the changed nets `es`
        with their count rows before (`old`) and after (`new`) it, and per
        net and FPGA whether its count crossed 0|1 or 1|2 (`crossed`).

        Those entries read, per incident net, only the source's hosts and,
        of the counts, what the vertex's own copies do not account for:
        for the source the covered FPGAs, for a drain d whether other
        drains cover f, that is whether cnt[f] > [f in hosts(d)].  So when
        the source is touched, every drain is dirty.  Otherwise the source
        is dirty when the covered set changed, and an untouched drain when
        cnt == [f in hosts(d)] flips at some FPGA f, which only a 0|1 or
        1|2 crossing can do.  A touched vertex is dirty anyway."""
        ix = self.index
        src = ix.source[es]
        whole = (src[:, None] == touched).any(1)
        look = whole | crossed.any(1)
        seen = es[look]
        pos, row = _ranges(ix.pin_ptr[seen] + 1, ix.pin_ptr[seen + 1])
        drains = ix.pins[pos]
        held = np.take(self.hosted, drains, 0)
        flips = (old[look][row] == held) != (new[look][row] == held)
        return _dedupe(np.concatenate((
            touched,
            src[((old > 0) != (new > 0)).any(1)],
            drains[whole[look][row] | flips.any(1)],
        )))

    def _refresh_after(
        self,
        touched: np.ndarray,
        es: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
    ) -> None:
        """After a commit that touched the vertices `touched` and changed
        the count rows of the nets es from `old` to `new`: rebuild and
        store the dirty vertices' rows, then name to the exchange table,
        whose facts `_install` and the count matrix already hold, what the
        commit changed: the touched vertices, the changed nets with their
        count crossings and the dirty vertices with their old move rows."""
        if not self.incremental:
            # the full variant is the from-scratch reference: no reuse
            self._build_entries()
            return
        crossed = np.minimum(old, 2) != np.minimum(new, 2)
        vs = self._dirty(touched, es, old, new, crossed)
        prev = self.gains[0, vs]
        for lo in range(0, len(vs), RUN):
            run = vs[lo:lo + RUN]
            self.gains[:, run] = self._rows(run)
        if self.exchange is not None:
            self.exchange.commit(es, vs, prev)


def _run_sums(vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of the rows of vals, lens[i] rows in run
    i; an empty run sums to zero."""
    out = np.zeros((len(lens), *vals.shape[1:]), vals.dtype)
    full = np.flatnonzero(lens)
    if len(full):
        out[full] = np.add.reduceat(vals, (lens.cumsum() - lens)[full], 0)
    return out


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

