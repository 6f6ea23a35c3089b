"""Complete-scheduler execution strategies for pair-statistics potentials.

Potentials that decide a pair purely from (edge state, common neighbor count,
common neighbor edges) declare a :class:`~abdyn.potentials.PairStatsRule`
with a ``cn_floor``: below that common neighbor count the decision provably
keeps the current state. Both strategies here exploit that certificate and
stay exactly equivalent to pairwise evaluation of every pair:

* :class:`IncrementalStepper` maintains, across rounds, the exact common
  neighbor counts of all pairs of high-degree nodes (only they can reach the
  floor, since CN <= min degree). Per round it re-decides just the pairs at
  or above the floor. Updates are O(local) per toggled edge.

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

from itertools import combinations

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta
from .potentials import PairStatsRule, Potential
from .schedulers import pair_count


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


class IncrementalStepper:
    """Exact incremental execution of a pair-statistics potential under the
    complete scheduler."""

    prune = True        # pairs below the floor are never decided

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        self.stats, self.substeps = _resolve_stats(potential)
        self.stats.certify()
        self.floor = self.stats.cn_floor
        adj = g._adj
        n = g.n
        self.deg = [len(adj[u]) for u in range(n)]
        self.high = {u for u in range(n) if self.deg[u] >= self.floor}
        self.nh = [adj[u] & self.high for u in range(n)]
        self.cn: dict[tuple[int, int], int] = {}
        for w in range(n):
            hn = self.nh[w]
            if len(hn) >= 2:
                for u, x in combinations(sorted(hn), 2):
                    key = (u, x)
                    self.cn[key] = self.cn.get(key, 0) + 1

    # -- state maintenance ------------------------------------------------

    def _bump(self, a: int, x: int, s: int) -> None:
        key = (a, x) if a < x else (x, a)
        c = self.cn.get(key, 0) + s
        if c:
            self.cn[key] = c
        else:
            self.cn.pop(key, None)

    def _toggle(self, u: int, v: int, present_after: bool) -> None:
        g = self.g
        adj = g._adj
        high = self.high
        if present_after:
            if u in high:
                for x in self.nh[v]:
                    if x != u:
                        self._bump(u, x, 1)
            if v in high:
                for x in self.nh[u]:
                    if x != v:
                        self._bump(v, x, 1)
            adj[u].add(v)
            adj[v].add(u)
            g._m += 1
            self.deg[u] += 1
            self.deg[v] += 1
            if v in high:
                self.nh[u].add(v)
            if u in high:
                self.nh[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
            g._m -= 1
            self.deg[u] -= 1
            self.deg[v] -= 1
            self.nh[u].discard(v)
            self.nh[v].discard(u)
            if u in high:
                for x in self.nh[v]:
                    if x != u:
                        self._bump(u, x, -1)
            if v in high:
                for x in self.nh[u]:
                    if x != v:
                        self._bump(v, x, -1)

    def _reconcile_threshold_crossings(self, touched) -> None:
        # only nodes with a degree change can cross the floor
        adj = self.g._adj
        crossed_in = [u for u in touched
                      if self.deg[u] >= self.floor and u not in self.high]
        crossed_out = [u for u in touched
                       if self.deg[u] < self.floor and u in self.high]
        for v in crossed_out:
            self.high.discard(v)
            for x in adj[v]:
                self.nh[x].discard(v)
        for v in crossed_in:
            self.high.add(v)
            for x in adj[v]:
                self.nh[x].add(v)
            stale = [key for key in self.cn if v in key]
            for key in stale:
                del self.cn[key]
            fresh: dict[int, int] = {}
            for w in adj[v]:
                for x in self.nh[w]:
                    if x != v:
                        fresh[x] = fresh.get(x, 0) + 1
            for x, c in fresh.items():
                self.cn[(v, x) if v < x else (x, v)] = c

    # -- round execution ---------------------------------------------------

    def _substep(self) -> list[tuple[int, int, bool]]:
        adj = self.g._adj
        floor = self.floor
        high = self.high
        decide = self.stats.decide
        toggles: list[tuple[int, int, bool]] = []
        for (u, v), c in self.cn.items():
            if c < floor or u not in high or v not in high:
                continue
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
        """Brute-force audit of the tracked common neighbor counts."""
        adj = self.g._adj
        expect: dict[tuple[int, int], int] = {}
        for w in range(self.g.n):
            hn = sorted(x for x in adj[w] if x in self.high)
            for u, x in combinations(hn, 2):
                expect[(u, x)] = expect.get((u, x), 0) + 1
        tracked = {k: c for k, c in self.cn.items()
                   if c and k[0] in self.high and k[1] in self.high}
        if tracked != expect:
            missing = {k: v for k, v in expect.items() if tracked.get(k) != v}
            extra = {k: v for k, v in tracked.items() if expect.get(k) != v}
            raise ContractError(
                f"tracked common neighbor counts diverged: {len(missing)} wrong/missing, "
                f"{len(extra)} stale (examples: {list(missing.items())[:3]} {list(extra.items())[:3]})")


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
        import numpy as np
        from scipy import sparse

        g = self.g
        adj = g._adj
        n = g.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        for u in range(n):
            indptr[u + 1] = indptr[u] + len(adj[u])
        indices = np.empty(indptr[-1], dtype=np.int32)
        pos = 0
        for u in range(n):
            nbrs = np.fromiter(adj[u], dtype=np.int32, count=len(adj[u]))
            indices[pos:pos + len(nbrs)] = nbrs
            pos += len(nbrs)
        data = np.ones(len(indices), dtype=np.int32)
        a_mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))

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
