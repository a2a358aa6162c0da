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
- mirrors of what a term or a pair gain reads, which the state installs
  at each commit: the originals, the host sets as a boolean matrix, the
  nearest-host and nearest-replica hop rows, the drain counts per net and
  FPGA capped at 2, and the move rows as an n x K array;
- dynamic: each triple's term, each pair's correction (the sum of its
  triples' terms), and each vertex's best (gain, partner) key: higher
  gain first, then the lower partner id.

`build` fills the dynamic part from the mirrors in a few array passes.
`refresh` is given the triples whose terms a commit can alter and the
move-row gains it changed; it recomputes those terms, applies the nonzero
deltas, re-scores only the changed pairs against each endpoint's stored
best, and rescans a whole segment only for a vertex that moved, gained or
lost its row, or whose stored partner's pair changed.

The table holds no reference to the refinement state: what it reads is
what was installed in it.
"""

from __future__ import annotations

import numpy as np

NONE = np.iinfo(np.int64).min  # the best gain of a vertex without an entry
# the move gain at a vertex's own FPGA, and at every FPGA of a vertex
# without a row; a pair gain that reads one lies below OUT // 2
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
    x.sort(kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


class ExchangeTable:
    """The exchange pairs of one hypergraph level (see the module docstring)."""

    def __init__(self, h, dist, kf: int):
        n, m = h.num_vertices, h.num_edges
        sizes = np.fromiter((1 + len(e.drains) for e in h.edges), np.intp, m)
        pin_ptr = np.zeros(m + 1, np.intp)
        np.cumsum(sizes, out=pin_ptr[1:])
        n_pins = int(pin_ptr[-1])
        pins = np.fromiter((x for e in h.edges for x in e.members), I32, n_pins)
        pin_net = np.repeat(np.arange(m, dtype=I32), sizes)
        self.source = pins[pin_ptr[:-1]].astype(np.intp)
        self.weight = np.fromiter((e.weight for e in h.edges), np.int64, m)
        self.dist = np.array(dist, np.int64).reshape(kf, kf)
        tri_ptr = np.zeros(m + 1, np.intp)
        np.cumsum(sizes * (sizes - 1) // 2, out=tri_ptr[1:])
        self._pin_ptr = pin_ptr.tolist()
        self._tri_ptr = tri_ptr.tolist()

        # the triples, net by net: each pin position with every later one
        # of its net; then each pin position's triples
        b_pos, a_pos = _ranges(np.arange(1, n_pins + 1), pin_ptr[pin_net + 1])
        at = np.concatenate((a_pos, b_pos)).astype(I32)
        self.tri_net = pin_net[a_pos]
        self.tri_a = pins[a_pos]
        del a_pos
        self.tri_b = pins[b_pos]
        del b_pos, pins, pin_net
        n_tri = len(self.tri_net)
        mem_ptr = np.zeros(n_pins + 1, np.intp)
        np.cumsum(np.bincount(at, minlength=n_pins), out=mem_ptr[1:])
        self._mem_ptr = mem_ptr.tolist()
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
        self._ptr = self.ptr.tolist()
        self.partner = np.concatenate((lo.astype(I32), hi.astype(I32)))[order]
        del lo, hi
        where = np.empty(2 * n_pairs, I32)
        where[order] = np.arange(2 * n_pairs, dtype=I32)
        order %= max(n_pairs, 1)
        self.slot_pair = order.astype(I32)
        del order
        # each pair's two slots, and the other slot of each slot's pair
        self.pair_slots = where.reshape(2, n_pairs).T.copy()
        self.rev = np.empty(2 * n_pairs, I32)
        self.rev[where[:n_pairs]] = where[n_pairs:]
        self.rev[where[n_pairs:]] = where[:n_pairs]
        del where

        self.orig = np.zeros(n, np.intp)
        self.host = np.zeros((n, kf), bool)
        self.host_hop = np.zeros((n, kf), np.int64)
        self.rep_hop = np.full((n, kf), FAR, np.int64)
        self.level = np.zeros((m, kf), np.int64)
        self.move = np.full((n, kf), OUT, np.int64)
        self.term = np.zeros(n_tri, np.int64)
        self.corr = np.zeros(n_pairs, np.int64)
        self.best_g = np.full(n, NONE, np.int64)
        self.best_u = np.full(n, -1, np.intp)
        self._full = np.zeros(n, bool)  # scratch vertex marks

    # -- mirrors ------------------------------------------------------------

    def install(self, orig, hosts, host_hop, rep_hop: dict, cnts, move_rows) -> None:
        """Install the whole state: every vertex's original, host set and
        nearest-host row, the nearest-replica rows {v: row} of the vertices
        with replicas, every net's drain counts and every move row."""
        self.orig[:] = orig
        self.host[:] = False
        self.host[
            [v for v, hs in enumerate(hosts) for _ in hs], [f for hs in hosts for f in hs]
        ] = True
        self.host_hop[:] = np.reshape(host_hop, self.host_hop.shape)
        self.rep_hop[:] = FAR
        if rep_hop:
            self.rep_hop[list(rep_hop)] = list(rep_hop.values())
        self.level[:] = 0
        self.set_levels(
            [e for e, cnt in enumerate(cnts) for _ in cnt],
            [f for cnt in cnts for f in cnt],
            [min(c, 2) for cnt in cnts for c in cnt.values()],
        )
        self.set_rows(dict(enumerate(move_rows)))

    def set_vertex(self, v: int, orig: int, hosts, hop_row, rep_row) -> None:
        """Install v's original, host set and nearest-host and nearest-
        replica hop rows (rep_row None: no replica)."""
        self.orig[v] = orig
        row = self.host[v]
        row[:] = False
        row[list(hosts)] = True
        self.host_hop[v] = hop_row
        self.rep_hop[v] = FAR if rep_row is None else rep_row

    def set_levels(self, nets: list, fpgas: list, levels: list) -> None:
        """Install, at some (net, FPGA) places, min(2, the number of the
        net's drains with a copy there): all that a term reads of the
        drain counts."""
        if nets:
            self.level[nets, fpgas] = levels

    def set_rows(self, rows: dict) -> None:
        """Install the move rows {v: row or None} of some vertices, OUT
        where a row is None."""
        if rows:
            kf = self.move.shape[1]
            self.move[list(rows)] = [
                [OUT if g is None else g for g in row] if row else [OUT] * kf
                for row in rows.values()
            ]

    # -- terms and scores -------------------------------------------------------

    def _terms(self, t: np.ndarray) -> np.ndarray:
        """The correction terms of triples t, from the mirrors.

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
        level = self.level
        hop = self.host_hop
        at_b = ((level[e, pb] <= 1) & (from_src | ~self.host[a, pb])) * hop[s, pb]
        hop_a = np.where(from_src, np.minimum(self.dist[pb, pa], self.rep_hop[s, pa]), hop[s, pa])
        # no other drain covers pa: a count of 1 at a drain's FPGA, 0 at
        # the source's
        at_a = ((level[e, pa] == ~from_src) & ~self.host[b, pa]) * hop_a
        at_a += at_b
        at_a *= -self.weight[e]
        return at_a

    def _best(self, slots: np.ndarray):
        """Per owner of the sorted `slots`: (owners, best gain, partner),
        higher gain first, then the lower partner id; the gain is NONE for
        an owner whose slots are all out: it has no row, or shares each
        partner's FPGA."""
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

    # -- build and refresh ----------------------------------------------------

    def build(self) -> list[tuple[int, int | None, int]]:
        """Every term, correction and best partner from the mirrors as
        installed; returns (v, gain, partner) of each vertex with an
        entry.  Works in runs of about CHUNK triples, then CHUNK slots."""
        self.corr[:] = 0
        n_tri = len(self.term)
        for lo in range(0, n_tri, CHUNK):
            hi = min(lo + CHUNK, n_tri)
            terms = self.term[lo:hi] = self._terms(np.arange(lo, hi))
            np.add.at(self.corr, self.pair[lo:hi], terms)
        self.best_g[:] = NONE
        self.best_u[:] = -1
        # slot runs that start at a vertex's first slot
        n_slots = self._ptr[-1]
        cut = self.ptr[self.ptr.searchsorted(np.arange(CHUNK, n_slots, CHUNK))].tolist()
        bounds = [0, *cut, n_slots]
        return [
            best for lo, hi in zip(bounds, bounds[1:])
            for best in self._settle(np.arange(lo, hi), [])
        ]

    def refresh(self, whole, hot, rows: dict, moved: list) -> list[tuple[int, int | None, int]]:
        """Bring corrections and best partners up to date after a commit,
        once the other mirrors hold its state.

        `whole` lists the nets all of whose triples' terms may have
        changed, `hot` (net, member position) pairs whose triples' terms
        may have.  `rows` holds the move rows {v: row or None} that
        changed: the pairs of v with a partner on an FPGA where v's row
        changed, changed.  All the pairs of a vertex in `moved` changed
        (it moved, or gained or lost its row).  Returns (v, gain or None,
        partner) of every vertex whose best changed."""
        ptr = self._ptr
        changed = self._retally(whole, hot)
        if rows:
            vs = np.fromiter(rows, np.intp, len(rows))
            old = self.move[vs]
            self.set_rows(rows)
            at = old != self.move[vs]  # per row, the FPGAs where it changed
            seg, row = _ranges(self.ptr[vs], self.ptr[vs + 1])
            seg = seg[at[row, self.orig[self.partner[seg]]]]
            changed += (seg, self.rev[seg])
        # every neighbour's slot to a vertex that moved
        changed += [self.rev[ptr[v]:ptr[v + 1]] for v in moved]
        if not changed:
            return []
        slots = _dedupe(np.concatenate(changed))
        owners = self.owner[slots].astype(np.intp)
        # a vertex whose stored partner's pair changed rescans its segment
        stale = owners[self.partner[slots] == self.best_u[owners]]
        full = np.fromiter(set(moved).union(stale.tolist()), np.intp)
        if len(full):
            mark = self._full
            mark[full] = True
            keep = ~mark[owners]
            mark[full] = False
            seg, _ = _ranges(self.ptr[full], self.ptr[full + 1])
            slots = np.concatenate((slots[keep], seg))
            slots.sort(kind="stable")
        return self._settle(slots, full)

    def _retally(self, whole, hot) -> list[np.ndarray]:
        """Recompute the terms of every triple of the `whole` nets and of
        the `hot` (net, member position) pairs; add the nonzero deltas to
        their pairs and return the slots of the pairs that changed."""
        tri_ptr, pin_ptr, mem_ptr = self._tri_ptr, self._pin_ptr, self._mem_ptr
        parts = [np.arange(tri_ptr[e], tri_ptr[e + 1]) for e in whole]
        if hot:
            at = [pin_ptr[e] + i for e, i in hot]
            t = np.concatenate([self.mem_tri[mem_ptr[p]:mem_ptr[p + 1]] for p in at])
            # a triple of two hot members is listed twice
            parts.append((_dedupe(t) if len(at) > 1 else t).astype(np.intp))
        if not parts:
            return []
        t = np.concatenate(parts)
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

    def _settle(self, slots: np.ndarray, rescan) -> list[tuple[int, int | None, int]]:
        """Score the sorted `slots` against the stored best of their
        owners, of which those in `rescan` forget their stored best first
        (all their slots are given); store and return the bests that
        changed, as (v, gain or None, partner).  A vertex without slots
        has no pairs, so no entry, before and after.  Slots are scored in
        runs of about CHUNK, split between owners, which bounds the
        temporaries of a bank build on a level with millions of pairs."""
        if len(slots) <= CHUNK:
            return self._settle_run(slots, rescan)
        owners = self.owner[slots]
        runs = np.split(slots, owners.searchsorted(owners[CHUNK::CHUNK]))
        return [best for run in runs for best in self._settle_run(run, rescan)]

    def _settle_run(self, slots: np.ndarray, rescan) -> list[tuple[int, int | None, int]]:
        """`_settle` on slots that hold every given slot of their owners."""
        if not len(slots):
            return []
        vs, g, u = self._best(slots)
        old_g = self.best_g[vs]
        old_u = self.best_u[vs]
        if len(rescan):
            mark = self._full
            mark[rescan] = True
            forget = mark[vs]
            mark[rescan] = False
            base_g = np.where(forget, NONE, old_g)
            base_u = np.where(forget, -1, old_u)
        else:
            base_g, base_u = old_g, old_u
        better = (g > base_g) | ((g == base_g) & (u < base_u))
        g = np.where(better, g, base_g)
        u = np.where(better, u, base_u)
        self.best_g[vs] = g
        self.best_u[vs] = u
        diff = ((g != old_g) | (u != old_u)).nonzero()[0]
        return [
            (v, None if x == NONE else x, y)
            for v, x, y in zip(vs[diff].tolist(), g[diff].tolist(), u[diff].tolist())
        ]
