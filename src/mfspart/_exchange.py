"""Exchange partners: each vertex's best exchange, scored on demand from
the pin arrays and kept until a commit can change it.

An exchange of v and u gains the two move gains g_v(pu) + g_u(pv) plus a
correction over the nets they share, corr(v, u), a sum of one term per
shared net (`_terms`).  The table keeps nothing per pair.  Per vertex it
keeps its best (gain, partner) key, higher gain first, then the lower
partner id, in `best_g` and `best_u` (NONE and -1 without an entry: its
move row is all OUT, or it has no partner off its FPGA), and whether that
key is `stale`, that is unknown; a stale vertex's `best_g` is NONE.

- Settle: `settle(vs)` scores every pair of the vertices vs from the pin
  arrays, one row per (v, net, member u) with that net's term, summed per
  (v, u), plus the two move gains, and stores each vertex's best.  It
  works in runs of at most CHUNK rows.
- Marks: a commit marks stale every vertex whose best it can change
  (`commit`).  A term of net e reads only e's counts, its source's hosts
  and its two members' originals and hosts, so every term a commit
  changes lies on a net with a touched member, and every member of such
  a net is stale.  A pair gain also reads each endpoint's move row at the
  other's original, so each neighbour of a vertex whose move row changed
  is stale if it lies on an FPGA where that row changed.  Every vertex is
  stale when a level's rows are built (`reset`).
- Bound: every term is at most 0, so an exchange of v gains at most its
  two move gains, and ub(v) = max_f (move[v, f] + top[f, pv]), where
  top[f, g] is the largest move gain to g among the vertices on f.
  Selection calls `wake(bar)` with the gain of its pick: it settles each
  stale vertex whose bound reaches the bar, and a stale vertex whose bound
  is below it cannot win.  Such a settle scores only the pairs whose two
  move gains reach the bar; a vertex whose best falls below the bar stays
  stale, and its `cap`, kept with ub until it is marked again (its best
  cannot change before), drops to the top move gains of its pairs, below
  the bar.  The top is taken afresh once the rows scored since reach the
  vertex count, and raised with the rebuilt rows at each commit between,
  so that it stays an upper bound.

What a term or a pair gain reads is the refinement state's own objects,
read in place: the level's hypergraph, whose arrays hold each net's
members, source first, its source and its weight, and each vertex's nets
(`model.Hypergraph`), each vertex's original, its nearest-host
and nearest-replica hop rows (FAR without a replica), the move rows, an
n x K array of move gains (OUT where there is no move), and the m x K
matrix of each net's drain counts per FPGA.  The table holds no reference
to the refinement state.
"""

from __future__ import annotations

import numpy as np

NONE = np.iinfo(np.int64).min  # the best gain of a vertex without an entry
# the "no entry" gain of the refinement state's rows: a move's at the
# vertex's own FPGA, and every FPGA's of a vertex without entries, one
# with no net and no replica; a pair gain that reads one lies below OUT // 2
OUT = -(1 << 60)
FAR = np.iinfo(np.int32).max  # the hop row of an empty replica set
UNKNOWN = np.iinfo(np.int64).max  # the cap of a vertex not scored since marked
CHUNK = 1 << 14  # pair rows per settle pass: bounds its temporaries


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges [starts[i], stops[i]) and, per element, the
    index i of its range."""
    lens = stops - starts
    ends = lens.cumsum()
    row = np.arange(len(lens)).repeat(lens)
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lens)[row], row


def _dedupe(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted."""
    x = x.copy()
    x.sort()
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


def _firsts(x: np.ndarray) -> np.ndarray:
    """Where each run of equal values of x starts."""
    first = np.empty(len(x), bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


class ExchangeTable:
    """The exchange bests of one hypergraph level (see the module docstring)."""

    def __init__(self, h, dist, orig, host_hop, rep_hop, move, cnt):
        n, kf = move.shape
        self.pin_ptr, self.pins = h.pin_ptr, h.pins
        self.inc_ptr, self.inc = h.inc_ptr, h.inc
        self.source = h.source
        self.weight = h.weight
        # per vertex, the rows its settle scores: the pins of its nets
        pins = np.zeros(len(self.inc) + 1, np.intp)
        np.cumsum(np.diff(self.pin_ptr)[self.inc], out=pins[1:])
        self.reach = np.diff(pins[self.inc_ptr])
        self.dist = dist
        # the state's facts, read in place (see the module docstring)
        self.orig = orig
        self.host_hop = host_hop
        self.rep_hop = rep_hop
        self.move = move
        self.cnt = cnt
        self.best_g = np.full(n, NONE, np.int64)
        self.best_u = np.full(n, -1, np.intp)
        self.stale = np.zeros(n, bool)
        self.cap = np.full(n, UNKNOWN, np.int64)  # per stale vertex, a bound on its best
        self._top: np.ndarray | None = None  # top[g, f] (see the module docstring)
        self._spent = 0  # rows scored since the top was taken
        self._near = np.zeros((len(self.weight), kf), bool)  # scratch net marks

    # -- terms and scores ---------------------------------------------------

    def _terms(self, e, x, y, px, py) -> np.ndarray:
        """The correction terms of members x and y, on FPGAs px and py, of
        nets e.

        Written as a mixed second difference over the two host sets, the
        net's cost delta cancels everywhere except at the two originals
        being swapped.  A drain's FPGA is left uncovered when no other
        drain holds a copy there, a count of 1, its own copy, and it then
        costs the source's hop to it.  A copy of the other member there
        needs no test of its own: a drain's is counted, and the source's
        makes that hop 0.  The source's FPGA ps, where its hop is 0, is
        left uncovered when no drain holds a copy, a count of 0, and then
        costs the hop to ps from its new hosts R_s + {pd}, pd the drain's
        FPGA.  The term is minus the net's weight times those hops, and
        symmetric in the two members."""
        kf = self.move.shape[1]
        s = self.source[e]
        # the m x K and n x K facts are read flat: a fancy 2-d gather is
        # several times slower
        cnt, hop = self.cnt.reshape(-1), self.host_hop.reshape(-1)
        w = self.weight[e]
        e, s_at = e * kf, s * kf
        terms = (cnt[e + px] == 1) * hop[s_at + px]
        terms += (cnt[e + py] == 1) * hop[s_at + py]
        from_x = x == s
        i = (from_x | (y == s)).nonzero()[0]
        ps = np.where(from_x[i], px[i], py[i])
        pd = px[i] + py[i] - ps
        terms[i] += (cnt[e[i] + ps] == 0) * np.minimum(self.dist[pd, ps], self.rep_hop[s[i], ps])
        terms *= -w
        return terms

    def _pairs(self, vs: np.ndarray, bar: int = OUT // 2):
        """The exchanges of the vertices vs whose two move gains
        g_v(pu) + g_u(pv) reach `bar`, one per neighbour pair (v, u), as
        (position of v in vs, u, gain), by v's position and then u; and per
        vertex of vs the top of the two move gains over all of its pairs,
        NONE without one, which no exchange of it exceeds.  One row per net
        of v and member u, whose terms (`_terms`) are summed per pair.  A
        pair on one FPGA reads a move gain of OUT: it has no exchange."""
        n, kf = self.move.shape
        pos, row = _ranges(self.inc_ptr[vs], self.inc_ptr[vs + 1])
        es = self.inc[pos]
        pos, at = _ranges(self.pin_ptr[es], self.pin_ptr[es + 1])
        u = self.pins[pos]
        lv = row[at]
        v = vs[lv]
        pu, pv = self.orig[u], self.orig[v]
        move = self.move.reshape(-1)
        g = move[v * kf + pu]
        g += move[u * kf + pv]
        # each vertex's rows are contiguous, the pins of its nets
        lens = self.reach[vs]
        cap = np.full(len(vs), NONE, np.int64)
        has = lens.nonzero()[0]
        cap[has] = np.maximum.reduceat(g, (lens.cumsum() - lens)[has])
        keep = (g >= bar).nonzero()[0]
        lv, u, g = lv[keep], u[keep], g[keep]
        if len(keep):
            terms = self._terms(es[at[keep]], vs[lv], u, pv[keep], pu[keep])
            key = lv * n + u
            order = key.argsort()
            start = _firsts(key[order]).nonzero()[0]
            first = order[start]
            lv, u, g = lv[first], u[first], g[first] + np.add.reduceat(terms[order], start)
        return lv, u, g, cap

    def _best(self, vs: np.ndarray, bar: int | None) -> None:
        """Settle the vertices vs: store each one's best (gain, partner),
        higher gain first, then the lower partner id, NONE and -1 when
        every pair is out (its row is all OUT, or it shares each partner's
        FPGA).  With a `bar`, only the pairs whose move gains reach it are
        scored, and a vertex whose best falls below it stays stale, its cap
        the top of its pairs' move gains, below the bar at most."""
        lv, u, g, cap = self._pairs(vs, OUT // 2 if bar is None else bar)
        best_g = np.full(len(vs), NONE, np.int64)
        best_u = np.full(len(vs), -1, np.intp)
        if len(g):
            first = _firsts(lv)
            start = first.nonzero()[0]
            top = np.maximum.reduceat(g, start)
            # the first pair at the top gain has the lowest partner id
            hit = np.where(g == top[first.cumsum() - 1], np.arange(len(g)), len(g))
            best_g[lv[start]] = top
            best_u[lv[start]] = u[np.minimum.reduceat(hit, start)]
        if bar is not None:
            low = best_g < bar
            self.cap[vs[low]] = np.minimum(cap[low], bar - 1)
            vs, best_g, best_u = vs[~low], best_g[~low], best_u[~low]
        self.stale[vs] = False
        self.best_g[vs] = best_g
        self.best_u[vs] = best_u

    # -- marks and settles --------------------------------------------------

    def mark(self, vs) -> None:
        """Forget the bests of the vertices vs (an index) until settled."""
        self.stale[vs] = True
        self.best_g[vs] = NONE
        self.cap[vs] = UNKNOWN

    def reset(self) -> None:
        """Forget every best and the bound's top: the rows are new."""
        self.mark(slice(None))
        self._top = None

    def commit(self, es: np.ndarray, rebuilt: np.ndarray, old: np.ndarray) -> None:
        """Mark stale every vertex whose best a commit can have changed,
        given the nets `es` with a touched member and the `rebuilt`
        vertices, whose move rows the state has stored, with those rows as
        they were before (`old`, one per vertex): the members of es, and
        the neighbours of a rebuilt vertex on an FPGA where its row changed
        (see the module docstring), and every rebuilt vertex with a net is
        a member of es.  The rebuilt rows raise the bound's top."""
        kf = self.move.shape[1]
        # per net, the FPGAs whose members are marked: every FPGA for es,
        # and each FPGA where a member's row changed
        x, f = (old != self.move[rebuilt]).nonzero()
        x = rebuilt[x]
        pos, row = _ranges(self.inc_ptr[x], self.inc_ptr[x + 1])
        nets = self.inc[pos]
        near = self._near.reshape(-1)
        self._near[es] = True
        near[nets * kf + f[row]] = True
        nets = _dedupe(np.concatenate((es, nets)))
        pos, row = _ranges(self.pin_ptr[nets], self.pin_ptr[nets + 1])
        u = self.pins[pos]
        self.mark(u[near[nets[row] * kf + self.orig[u]]])
        self._near[nets] = False
        if self._top is not None:
            np.maximum.at(self._top.T, self.orig[rebuilt], self.move[rebuilt])

    def settle(self, vs: np.ndarray, bar: int | None = None) -> None:
        """Settle the distinct vertices vs (see `_best`), in runs of at most
        CHUNK rows (the pins of their nets), or of one vertex with more."""
        ends = self.reach[vs].cumsum()
        lo = 0
        while lo < len(vs):
            hi = max(lo + 1, int(ends.searchsorted(ends[lo] - self.reach[vs[lo]] + CHUNK, "right")))
            self._best(vs[lo:hi], bar)
            lo = hi
        self._spent += int(ends[-1]) if len(vs) else 0

    def wake(self, bar: int | None = None) -> np.ndarray:
        """Settle every stale vertex, or with a `bar` each one whose bound
        reaches it, the least of its cap and ub, and return those settled
        (see the module docstring)."""
        vs = self.stale.nonzero()[0]
        if bar is not None:
            vs = vs[self.cap[vs] >= bar]
            if not len(vs):
                return vs
            move, orig = self.move, self.orig
            if self._top is None or self._spent >= len(orig):
                on = np.bincount(orig, minlength=move.shape[1])
                top = np.full((len(on),) * 2, OUT, np.int64)
                top[on > 0] = np.maximum.reduceat(move[orig.argsort()], (on.cumsum() - on)[on > 0])
                self._top, self._spent = top.T.copy(), 0
            ub = (move[vs] + self._top[orig[vs]]).max(1)
            self.cap[vs] = np.minimum(self.cap[vs], ub)
            vs = vs[ub >= bar]
        self.settle(vs, bar)
        return vs[~self.stale[vs]]

    def partner(self, v: int) -> int | None:
        """v's best exchange partner, settled if stale; None without one."""
        if self.stale[v]:
            self.settle(np.array([v]))
        u = int(self.best_u[v])
        return None if u < 0 else u
