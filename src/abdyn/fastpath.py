"""Complete-scheduler execution strategies for pair-statistics potentials.

Potentials that decide a pair purely from (edge state, common neighbor count,
common neighbor edges) declare a :class:`~abdyn.potentials.PairStatsRule`
with a ``cn_floor``: below that common neighbor count the decision provably
keeps the current state. Both strategies here exploit that certificate and
stay exactly equivalent to pairwise evaluation of every pair:

* :class:`IncrementalStepper` maintains, across rounds, the exact common
  neighbor counts of all pairs of high-degree nodes (only they can reach the
  floor, since CN <= min degree). It builds the table with one sparse
  product over the adjacency rows of the high nodes alone, keeps neighbor
  sets restricted to the high side for those nodes only, and keys each
  pair {a, b}, a < b, by the integer ``(a << 32) | b``, as
  :func:`~abdyn.graph.edge_codes` does. Per round it re-decides just the
  pairs at or above the floor. Updates are O(local) per toggled edge and
  per node that falls below the floor, so a huge graph with few high nodes
  and few toggles costs little beyond one pass over the degrees.

* :class:`BulkStepper` recomputes all common neighbor counts from scratch
  each round with a chunked sparse matrix product and decides every pair at
  or above the floor, as the incremental route does. It shares no state with
  that route, which makes it the independent side of the equivalence checks
  at scales where the unpruned reference, ``engine="naive"``, cannot
  enumerate the pairs.

Both verify the floor certificate itself at startup by exhaustively checking
``decide`` on every count below the floor, with a common-neighbor-edge
supplier that refuses to be called.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta
from .potentials import PairStatsRule, Potential
from .schedulers import pair_count

_LOW32 = 0xFFFFFFFF


def _resolve_stats(potential: Potential) -> tuple[PairStatsRule, int]:
    """Return (stats, substeps). A merged potential executes two base rounds."""
    if potential.pair_stats is not None:
        return potential.pair_stats, 1
    if potential.merged_base is not None and potential.merged_base.pair_stats is not None:
        return potential.merged_base.pair_stats, 2
    raise ConfigError(f"potential {potential.name} provides no pair statistics")


def _exact_ce(adj, u: int, v: int):
    def _ce() -> int:
        common = adj[u] & adj[v]
        if len(common) < 2:
            return 0
        total = 0
        for w in common:
            total += len(adj[w] & common)
        return total // 2
    return _ce


def _adjacency_rows(adj, rows, n: int):
    """Sparse 0/1 matrix whose i-th row is the neighbor set of ``rows[i]``."""
    from scipy import sparse

    sets = [adj[u] for u in rows]
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(sets), dtype=np.int32, count=int(indptr[-1]))
    data = np.ones(len(indices), dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(sets), n))


class IncrementalStepper:
    """Exact incremental execution of a pair-statistics potential under the
    complete scheduler.

    ``high`` holds the nodes of degree at least the floor, ``nh`` maps each
    of them to its neighbors in ``high``, and ``cn`` maps the key
    ``(a << 32) | b`` of every pair a < b of high nodes with a common
    neighbor to their common neighbor count.
    """

    prune = True        # pairs below the floor are never decided

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        self.stats, self.substeps = _resolve_stats(potential)
        self.stats.certify()
        self.floor = self.stats.cn_floor
        adj = g._adj
        degrees = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
        high_ids = np.flatnonzero(degrees >= self.floor)
        hids = high_ids.tolist()
        self.high = set(hids)
        self.nh = {h: adj[h] & self.high for h in hids}
        # common neighbor counts of the high pairs: A_H A_H^T over the high rows
        a_high = _adjacency_rows(adj, hids, g.n)
        upper = (a_high @ a_high.T).tocoo()
        sel = upper.row < upper.col
        codes = (high_ids[upper.row[sel]] << 32) | high_ids[upper.col[sel]]
        self.cn: dict[int, int] = dict(zip(codes.tolist(), upper.data[sel].tolist()))

    # -- state maintenance ------------------------------------------------
    #
    # Only high nodes change degree: a pair with a low endpoint has fewer
    # common neighbors than the floor, so it is never toggled. Both ends of
    # a toggle are therefore high, and a node can leave the high set but
    # never join it.

    def _toggle(self, u: int, v: int, present_after: bool) -> None:
        g = self.g
        adj = g._adj
        nh = self.nh
        cn = self.cn
        # endpoint a gains or loses the common neighbor b with every other
        # high neighbor x of b
        if present_after:
            adj[u].add(v)
            adj[v].add(u)
            g._m += 1
            nh[u].add(v)
            nh[v].add(u)
            for a, b in ((u, v), (v, u)):
                hi = a << 32
                for x in nh[b]:
                    if x != a:
                        key = hi | x if a < x else (x << 32) | a
                        cn[key] = cn.get(key, 0) + 1
        else:
            adj[u].discard(v)
            adj[v].discard(u)
            g._m -= 1
            nh[u].discard(v)
            nh[v].discard(u)
            for a, b in ((u, v), (v, u)):
                hi = a << 32
                for x in nh[b]:
                    key = hi | x if a < x else (x << 32) | a
                    c = cn[key] - 1
                    if c:
                        cn[key] = c
                    else:
                        del cn[key]

    def _reconcile_threshold_crossings(self, touched) -> None:
        """Drop the touched nodes that fell below the floor from the high
        set, the high-neighbor sets and the table."""
        adj = self.g._adj
        high = self.high
        nh = self.nh
        for v in [u for u in touched if len(adj[u]) < self.floor]:
            # v's pairs: the high neighbors of its neighbors; a low
            # neighbor has fewer than floor neighbors to look up
            partners = set()
            for w in adj[v]:
                partners.update(nh[w] if w in high else adj[w] & high)
            partners.discard(v)
            for x in partners:
                del self.cn[(v << 32) | x if v < x else (x << 32) | v]
            high.discard(v)
            for x in nh.pop(v):
                nh[x].discard(v)

    # -- round execution ---------------------------------------------------

    def _substep(self) -> list[tuple[int, int, bool]]:
        adj = self.g._adj
        floor = self.floor
        decide = self.stats.decide
        toggles: list[tuple[int, int, bool]] = []
        for key, c in self.cn.items():
            if c < floor:
                continue
            u = key >> 32
            v = key & _LOW32
            edge = 1 if v in adj[u] else 0
            nxt = decide(edge, c, _exact_ce(adj, u, v))
            if nxt != edge:
                toggles.append((u, v, bool(nxt)))
        touched = set()
        for u, v, present in toggles:
            self._toggle(u, v, present)
            touched.add(u)
            touched.add(v)
        self._reconcile_threshold_crossings(touched)
        return toggles

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        net: dict[tuple[int, int], bool] = {}
        for _ in range(self.substeps):
            for u, v, present in self._substep():
                key = (u, v)
                if key in net:
                    del net[key]
                else:
                    net[key] = present
        additions = [p for p, present in net.items() if present]
        removals = [p for p, present in net.items() if not present]
        return EdgeDelta.build(additions, removals), pair_count(self.g.n)

    # -- test hook ----------------------------------------------------------

    def verify_counts(self) -> None:
        """Brute-force audit of the high set, the high-neighbor sets and the
        tracked common neighbor counts."""
        adj = self.g._adj
        high = {u for u in range(self.g.n) if len(adj[u]) >= self.floor}
        if high != self.high:
            raise ContractError(
                f"tracked high set diverged: missing {sorted(high - self.high)[:5]}, "
                f"stale {sorted(self.high - high)[:5]}")
        wrong = sorted(h for h in high if self.nh.get(h) != adj[h] & high)
        if wrong or len(self.nh) != len(high):
            raise ContractError(
                f"tracked high-neighbor sets diverged at {len(wrong)} node(s) "
                f"(first: {wrong[:3]}); {len(self.nh)} sets for {len(high)} high nodes")
        expect: dict[int, int] = {}
        for w in range(self.g.n):
            for u, x in combinations(sorted(adj[w] & high), 2):
                key = (u << 32) | x
                expect[key] = expect.get(key, 0) + 1
        if self.cn != expect:
            def pairs(items):
                return [((k >> 32, k & _LOW32), c) for k, c in items][:3]
            missing = {k: c for k, c in expect.items() if self.cn.get(k) != c}
            extra = {k: c for k, c in self.cn.items() if expect.get(k) != c}
            raise ContractError(
                f"tracked common neighbor counts diverged: {len(missing)} wrong/missing, "
                f"{len(extra)} stale (examples: {pairs(missing.items())} {pairs(extra.items())})")


class BulkStepper:
    """Complete-scheduler round via a chunked sparse matrix product that
    decides only the pairs whose common neighbor count reaches the certified
    floor."""

    prune = True

    def __init__(self, g: DynGraph, potential: Potential, chunk: int = 2048):
        self.g = g
        stats, substeps = _resolve_stats(potential)
        if substeps != 1:
            raise ConfigError("bulk execution does not support merged potentials")
        self.stats = stats
        stats.certify()
        self.chunk = chunk

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        g = self.g
        adj = g._adj
        n = g.n
        a_mat = _adjacency_rows(adj, range(n), n)

        floor = self.stats.cn_floor
        decide = self.stats.decide
        additions = []
        removals = []
        for start in range(0, n, self.chunk):
            stop = min(start + self.chunk, n)
            block = (a_mat[start:stop] @ a_mat).tocoo()
            sel = block.data >= floor
            rows = block.row[sel].astype(np.int64) + start
            cols = block.col[sel].astype(np.int64)
            counts = block.data[sel]
            upper = cols > rows
            for u, v, c in zip(rows[upper], cols[upper], counts[upper]):
                u, v, c = int(u), int(v), int(c)
                edge = 1 if v in adj[u] else 0
                nxt = decide(edge, c, _exact_ce(adj, u, v))
                if nxt != edge:
                    (additions if nxt else removals).append((u, v))
        delta = EdgeDelta.build(additions, removals)
        g.apply_delta(delta)
        return delta, pair_count(n)
