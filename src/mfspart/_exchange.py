"""Exchange pair table: every neighbour pair's correction and each
vertex's best exchange partner, kept in numpy arrays by per-net deltas.

An exchange of u and v gains the two move gains g_v(pu) + g_u(pv) plus a
correction over the nets they share, corr(v, u), a sum of one term per
shared net.  The table holds, per level:

- static, built once: every member pair of every net as a triple (net,
  a, b), a before b in the net's member order, so a is the source when
  either is; in CSR by net, and indexed by member position (each pin's
  triples); each triple's neighbour pair; and every neighbour pair as two
  directed slots in CSR by vertex, each vertex's slots sorted by partner
  id;
- what a term or a pair gain reads, as the refinement state's own
  objects, read in place: the level's pin index (the hypergraph's own
  `model.PinIndex`: each net's members, source first, its source and its
  weight), each vertex's original, its nearest-host and nearest-replica
  hop rows (FAR without a replica), the host sets as an n x K boolean
  matrix, the move rows, an n x K array of move gains (OUT where there is
  no move), and the m x K matrix of each net's drain counts per FPGA;
- dynamic: each triple's term, each pair's correction (the sum of its
  triples' terms), and each vertex's best (gain, partner) key: higher
  gain first, then the lower partner id.  best_u holds the partner, -1
  for a vertex without an entry: its move row is all OUT (it has no net
  and no replica, so no pair either), or it has no partner off its FPGA.

The state writes every fact itself, so a commit only names what changed:
`commit(touched, es, flip, rebuilt, old)` takes the vertices the commit
touched, the nets with a touched member, per such net and FPGA whether
its drain count crossed 0|1 or 1|2, and the vertices whose move rows it
rebuilt with those rows as they were before it, and works out what to
redo itself:

- crossings: a term reads of net e's drain count at FPGA f only whether
  it is zero and whether it is at most one, so only a count that crosses
  0|1 or 1|2 can change a term through it;
- hot triples: a term reads e's source row, the two members' originals
  and hosts, and the counts at their originals.  So every triple of a
  net whose source was touched is hot; otherwise those of a touched
  member, or of a member whose original holds a crossing, found in
  one array pass over the nets' pins.  A hot triple's term is
  recomputed, and a nonzero delta added to its pair's correction;
- changed pairs: those of a hot triple whose term changed, and, for a
  vertex v whose move row changed at FPGAs F, the pairs of v with a
  partner on F;
- rescans: a pair gain reads each endpoint's row at the other's
  original, so every pair of a vertex that moved, or whose row became
  or stopped being all OUT, changed; such a vertex, and one whose stored
  partner's pair changed, has its best reset to none and is given its
  whole segment.

Then one rule settles every best: each changed slot is scored against
its owner's stored best.  `build` takes the same steps over every net,
triple and slot, from zero terms and no bests.

Neither returns anything: the state's selection reads each vertex's best
from `best_g` and `best_u` in place.  The table holds no reference to the
refinement state, only the arrays it was built with.
"""

from __future__ import annotations

import numpy as np

NONE = np.iinfo(np.int64).min  # the best gain of a vertex without an entry
# the "no entry" gain of the refinement state's rows: a move's at the
# vertex's own FPGA, and every FPGA's of a vertex without entries, one
# with no net and no replica; a pair gain that reads one lies below OUT // 2
OUT = -(1 << 60)
FAR = np.iinfo(np.int32).max  # the hop row of an empty replica set
CHUNK = 1 << 18  # triples or slots per array pass: bounds the temporaries of big levels
# the index arrays that grow with the pair count are stored as int32 and
# widened to intp where they index
I32 = np.int32


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


class ExchangeTable:
    """The exchange pairs of one hypergraph level (see the module docstring)."""

    def __init__(self, index, dist, orig, host_hop, rep_hop, host, move, cnt):
        n = len(orig)
        pin_ptr, pins = index.pin_ptr, index.pins
        sizes = np.diff(pin_ptr)
        n_pins = len(pins)
        pin_net = np.repeat(np.arange(len(sizes), dtype=I32), sizes)
        self.source = index.source
        self.weight = index.weight
        self.dist = dist
        self.tri_ptr = np.zeros(len(pin_ptr), np.intp)
        np.cumsum(sizes * (sizes - 1) // 2, out=self.tri_ptr[1:])
        self.pin_ptr = pin_ptr
        self.pins = pins

        # the triples, net by net: each pin position with every later one
        # of its net; then each pin position's triples
        b_pos, a_pos = _ranges(np.arange(1, n_pins + 1), pin_ptr[pin_net + 1])
        at = np.concatenate((a_pos, b_pos)).astype(I32)
        self.tri_net = pin_net[a_pos]
        self.tri_a = pins[a_pos]
        del a_pos
        self.tri_b = pins[b_pos]
        del b_pos, pin_net
        n_tri = len(self.tri_net)
        self.mem_ptr = np.zeros(n_pins + 1, np.intp)
        np.cumsum(np.bincount(at, minlength=n_pins), out=self.mem_ptr[1:])
        order = np.argsort(at, kind="stable")
        del at
        order %= max(n_tri, 1)
        self.mem_tri = order.astype(I32)
        del order

        # every triple's neighbour pair: pair ids follow (lower id, higher id)
        key = np.minimum(self.tri_a, self.tri_b).astype(np.int64) * n
        key += np.maximum(self.tri_a, self.tri_b)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(n_tri, bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self.pair = np.empty(n_tri, I32)
        self.pair[order] = np.cumsum(first) - 1
        del order
        keys = key[first]
        del key, first
        n_pairs = len(keys)
        lo, hi = np.divmod(keys, max(n, 1))
        del keys
        # slots: the pairs seen from the higher id, then from the lower one,
        # stably sorted by owner, so each owner's partners ascend
        owner = np.concatenate((hi, lo)).astype(I32)
        order = np.argsort(owner, kind="stable")
        self.owner = owner[order]
        del owner
        self.ptr = np.zeros(n + 1, np.intp)
        np.cumsum(np.bincount(self.owner, minlength=n), out=self.ptr[1:])
        self.partner = np.concatenate((lo.astype(I32), hi.astype(I32)))[order]
        del lo, hi
        where = np.empty(2 * n_pairs, I32)
        where[order] = np.arange(2 * n_pairs, dtype=I32)
        order %= max(n_pairs, 1)
        self.slot_pair = order.astype(I32)
        del order
        self.pair_slots = where.reshape(2, n_pairs).T.copy()  # each pair's two slots
        del where

        # the state's facts, read in place (see the module docstring)
        self.orig = orig
        self.host_hop = host_hop
        self.rep_hop = rep_hop
        self.host = host
        self.move = move
        self.cnt = cnt
        self.term = np.zeros(n_tri, np.int64)
        self.corr = np.zeros(n_pairs, np.int64)
        self.best_g = np.full(n, NONE, np.int64)
        self.best_u = np.full(n, -1, np.intp)
        self._mark = np.zeros(n, bool)  # scratch vertex marks

    # -- terms and scores ---------------------------------------------------

    def _terms(self, t: np.ndarray) -> np.ndarray:
        """The correction terms of triples t.

        Written as a mixed second difference over the two host sets, the
        net's cost delta cancels everywhere except at the two originals
        being swapped.  Source s and drain d (a = s): d's FPGA pd stops
        being covered unless another drain holds it, costing s's hop to
        pd, and s's FPGA ps gets covered unless a drain or d's hosts hold
        it, served by s's new hosts R_s + {pd}.  Two drains: each original
        costs the source's hop to it when no other drain covers it and the
        other member does not host it.  The term is minus the net's weight
        times that hop sum, and symmetric in the two members."""
        e = self.tri_net[t].astype(np.intp)
        a = self.tri_a[t].astype(np.intp)
        b = self.tri_b[t].astype(np.intp)
        s = self.source[e]
        from_src = a == s
        pa = self.orig[a]
        pb = self.orig[b]
        cnt = self.cnt
        hop = self.host_hop
        at_b = ((cnt[e, pb] <= 1) & (from_src | ~self.host[a, pb])) * hop[s, pb]
        hop_a = np.where(from_src, np.minimum(self.dist[pb, pa], self.rep_hop[s, pa]), hop[s, pa])
        # no other drain covers pa: a count of 1 at a drain's FPGA, 0 at
        # the source's
        at_a = ((cnt[e, pa] == ~from_src) & ~self.host[b, pa]) * hop_a
        at_a += at_b
        at_a *= -self.weight[e]
        return at_a

    def _best(self, slots: np.ndarray):
        """Per owner of the sorted `slots`: (owners, best gain, partner),
        higher gain first, then the lower partner id; the gain is NONE for
        an owner whose slots are all out: its row is all OUT, or it shares
        each partner's FPGA."""
        owners = self.owner[slots].astype(np.intp)
        u = self.partner[slots].astype(np.intp)
        g = self.move[owners, self.orig[u]]
        g += self.move[u, self.orig[owners]]
        g += self.corr[self.slot_pair[slots]]
        first = np.empty(len(owners), bool)
        first[:1] = True
        np.not_equal(owners[1:], owners[:-1], out=first[1:])
        start = first.nonzero()[0]
        top = np.maximum.reduceat(g, start)
        # the first slot at the top gain has the lowest partner id
        hit = np.where(g == top[first.cumsum() - 1], np.arange(len(g)), len(g))
        top[top < OUT // 2] = NONE
        return owners[start], top, u[np.minimum.reduceat(hit, start)]

    # -- build and commit ---------------------------------------------------

    def build(self) -> None:
        """Fill every term, correction and best partner from the state's
        facts: `commit`'s steps over every triple and slot, from zero terms
        and no bests."""
        self.term[:] = 0
        self.corr[:] = 0
        self._retally(np.arange(len(self.term), dtype=I32))
        self.best_g[:] = NONE
        self.best_u[:] = -1
        self._settle(np.arange(len(self.owner), dtype=I32))

    def commit(
        self,
        touched: np.ndarray,
        es: np.ndarray,
        flip: np.ndarray,
        rebuilt: np.ndarray,
        old: np.ndarray,
    ) -> None:
        """Bring terms, corrections and best partners up to date after a
        commit whose facts the state has installed, given what it changed:
        the `touched` vertices, the nets `es` with a touched member, per
        such net and FPGA whether its count crossed 0|1 or 1|2 (`flip`,
        one row per net), and the `rebuilt` vertices, whose move rows the
        state has stored, with those rows as they were before (`old`, one
        per vertex)."""
        changed = self._retally(self._hot(touched, es, flip))
        new = self.move[rebuilt]
        at = old != new  # per rebuilt vertex, the FPGAs where its row changed
        # the vertices whose OUT places changed: they moved, or their row
        # became or stopped being all OUT
        moved = rebuilt[((old == OUT) != (new == OUT)).any(1)]
        # a pair of v with a partner on an FPGA where v's row changed, and
        # every pair of a vertex that moved
        seg, row = _ranges(self.ptr[rebuilt], self.ptr[rebuilt + 1])
        seg = seg[at[row, self.orig[self.partner[seg]]]]
        every, _ = _ranges(self.ptr[moved], self.ptr[moved + 1])
        pairs = self.slot_pair[np.concatenate((seg, every))]
        slots = np.concatenate((*changed, self.pair_slots[pairs].reshape(-1)))
        # a vertex that moved, or whose stored partner's pair changed,
        # forgets its best and is given its whole segment
        owners = self.owner[slots].astype(np.intp)
        full = _dedupe(np.concatenate((moved, owners[self.partner[slots] == self.best_u[owners]])))
        self.best_g[full] = NONE
        self.best_u[full] = -1
        seg, _ = _ranges(self.ptr[full], self.ptr[full + 1])
        self._settle(_dedupe(np.concatenate((slots, seg))))

    def _hot(self, touched: np.ndarray, es: np.ndarray, flip: np.ndarray) -> np.ndarray:
        """The triples of the nets `es` whose terms a commit can alter, from
        the touched vertices and, per net and FPGA, whether its count
        crossed 0|1 or 1|2: every triple of a net whose source was touched,
        otherwise those of a touched member or of one whose original holds
        a crossing (see the module docstring)."""
        mark = self._mark
        mark[touched] = True
        whole = mark[self.source[es]]
        ws, ps = es[whole], es[~whole]
        t, _ = _ranges(self.tri_ptr[ws], self.tri_ptr[ws + 1])
        pos, row = _ranges(self.pin_ptr[ps], self.pin_ptr[ps + 1])
        members = self.pins[pos]
        hot = pos[mark[members] | flip[~whole][row, self.orig[members]]]
        mark[touched] = False
        if not len(hot):
            return t
        at, _ = _ranges(self.mem_ptr[hot], self.mem_ptr[hot + 1])
        at = self.mem_tri[at]
        # a triple of two hot members is listed twice
        return np.concatenate((t, _dedupe(at) if len(hot) > 1 else at))

    def _retally(self, t: np.ndarray) -> list[np.ndarray]:
        """Recompute the terms of triples t, add the nonzero deltas to their
        pairs and return the slots of the pairs that changed."""
        out = []
        for lo in range(0, len(t), CHUNK):
            chunk = t[lo:lo + CHUNK]
            delta = self._terms(chunk)
            delta -= self.term[chunk]
            nz = delta.nonzero()[0]
            if len(nz):
                chunk = chunk[nz]
                delta = delta[nz]
                self.term[chunk] += delta
                pairs = self.pair[chunk].astype(np.intp)
                np.add.at(self.corr, pairs, delta)
                out.append(self.pair_slots[pairs].reshape(-1))
        return out

    def _settle(self, slots: np.ndarray) -> None:
        """Score the sorted distinct `slots` against the stored best of
        their owners, and store the better.  An owner whose best was reset
        must be given all of its slots; a vertex without slots has no
        pairs, so no entry.  Slots are scored in runs of about CHUNK, split
        between owners, which bounds the temporaries of a build on a level
        with millions of pairs."""
        runs = [slots]
        if len(slots) > CHUNK:
            owners = self.owner[slots]
            runs = np.split(slots, owners.searchsorted(owners[CHUNK::CHUNK]))
        for run in runs:
            if not len(run):
                continue
            vs, g, u = self._best(run)
            base_g = self.best_g[vs]
            base_u = self.best_u[vs]
            better = (g > base_g) | ((g == base_g) & (u < base_u))
            self.best_g[vs] = np.where(better, g, base_g)
            self.best_u[vs] = np.where(better, u, base_u)
