"""Complete-scheduler execution strategies for pair-statistics potentials.

Potentials that decide a pair purely from (edge state, common neighbor count,
common neighbor edges) declare a :class:`~abdyn.potentials.PairStatsRule`
with a ``cn_floor``: below that common neighbor count the decision provably
keeps the current state. Both strategies here exploit that certificate and
stay exactly equivalent to pairwise evaluation of every pair:

* :class:`IncrementalStepper` keeps, across rounds, the exact common
  neighbor counts of all pairs of a fixed node set H: the nodes of degree at
  least the floor at init (only they can reach it, since CN <= min degree,
  and no node joins them later). The counts are the upper triangle of one
  sparse matrix, built with one product over the adjacency rows of H, and
  each substep updates it with sparse products of the substep's toggles
  alone. Per round it re-decides just the pairs at or above the floor, so a
  huge graph with few high nodes and few toggles costs little beyond one
  pass over the degrees.

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

from itertools import chain

import numpy as np

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta
from .potentials import PairStatsRule, Potential
from .schedulers import pair_count

# Adjacency rows per sparse product in BulkStepper.advance.
BULK_ROWS = 2048


def _resolve_stats(potential: Potential) -> tuple[PairStatsRule, int]:
    """Return (stats, substeps). A merged potential executes two base rounds."""
    if potential.pair_stats is not None:
        return potential.pair_stats, 1
    if potential.merged_base is not None and potential.merged_base.pair_stats is not None:
        return potential.merged_base.pair_stats, 2
    raise ConfigError(f"potential {potential.name} provides no pair statistics")


def _exact_ce(g: DynGraph, u: int, v: int):
    """The lazy common neighbor edge count that ``decide`` receives."""
    return lambda: g.common_neighbor_edges(u, v)


def _toggling(g: DynGraph, decide, us: list, vs: list, counts: list) -> list[int]:
    """Positions k at which ``decide`` toggles the pair (us[k], vs[k]),
    whose common neighbor count is counts[k]."""
    adj = g._adj
    flipped = []
    for k, (u, v, c) in enumerate(zip(us, vs, counts)):
        edge = 1 if v in adj[u] else 0
        if decide(edge, c, _exact_ce(g, u, v)) != edge:
            flipped.append(k)
    return flipped


def _adjacency_rows(adj, rows, n: int):
    """Sparse 0/1 matrix whose i-th row is the neighbor set of ``rows[i]``."""
    # scipy loads on first use: loaded with this module, before a large graph
    # is built, it raised the peak resident set of a W=4 rule-110 run by 15 MB
    from scipy import sparse

    sets = [adj[u] for u in rows]
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(sets), dtype=np.int32, count=int(indptr[-1]))
    data = np.ones(len(indices), dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(sets), n))


class PairCounts:
    """Exact common neighbor counts of the pairs of a fixed node set.

    ``ids`` holds the nodes in ascending order and ``upper`` the strict upper
    triangle of A_H A_H^T as a CSR matrix over positions in ``ids``, where
    A_H is the |ids| x n adjacency of those nodes. No zero is stored, so
    ``len`` is the number of pairs with a common neighbor.
    """

    __slots__ = ("ids", "upper")

    def __init__(self, ids: np.ndarray, upper):
        self.ids = ids
        self.upper = upper

    def __len__(self) -> int:
        return self.upper.nnz


def _at_floor(adj, floor: int) -> np.ndarray:
    """Ascending ids of the nodes of degree at least ``floor``."""
    return np.flatnonzero(np.fromiter(map(len, adj), dtype=np.int64, count=len(adj)) >= floor)


def _high_side(adj, ids: np.ndarray, n: int):
    """(A_HH, upper triangle of A_H A_H^T) for the nodes ``ids``."""
    from scipy import sparse

    a_high = _adjacency_rows(adj, ids.tolist(), n)
    return (a_high[:, ids].tocsr(),
            sparse.triu(a_high @ a_high.T, 1, format="csr"))


class IncrementalStepper:
    """Exact incremental execution of a pair-statistics potential under the
    complete scheduler.

    H, the nodes of degree at least the floor at init, stays fixed: a pair
    with an endpoint outside H has fewer common neighbors than the floor,
    so it is never toggled, and the degree of such a node never changes.
    ``a_hh`` is the adjacency among the nodes of H and ``cn`` the
    :class:`PairCounts` of all pairs of H, counted over every node. A node
    of H may fall below the floor; its counts stay exact, and so below the
    floor, and its pairs are never decided again.

    Each substep decides the pairs whose count reaches the floor, builds the
    symmetric +-1 toggle matrix D on H and, with A = ``a_hh`` and C the
    count triangle, updates ``C += triu(A D + D A + D D, 1)`` and
    ``A += D``: (A + D)^2 - A^2 = A D + D A + D D. That is exact because
    every toggle lies inside H and the edges from H to the other nodes
    never change.
    """

    prune = True        # pairs below the floor are never decided

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        self.stats, self.substeps = _resolve_stats(potential)
        self.stats.certify()
        self.floor = self.stats.cn_floor
        ids = _at_floor(g._adj, self.floor)
        self.a_hh, upper = _high_side(g._adj, ids, g.n)
        self.cn = PairCounts(ids, upper)

    # -- round execution ---------------------------------------------------

    def _substep(self) -> list[tuple[int, int, bool]]:
        from scipy import sparse

        g = self.g
        adj = g._adj
        ids = self.cn.ids
        upper = self.cn.upper
        hot = np.flatnonzero(upper.data >= self.floor)
        rows = np.searchsorted(upper.indptr, hot, side="right") - 1
        cols = upper.indices[hot]
        us, vs = ids[rows].tolist(), ids[cols].tolist()
        flipped = _toggling(g, self.stats.decide, us, vs, upper.data[hot].tolist())
        toggles = [(us[k], vs[k], vs[k] not in adj[us[k]]) for k in flipped]
        if not toggles:
            return toggles

        sign = np.fromiter((1 if present else -1 for _, _, present in toggles),
                           dtype=np.int32, count=len(toggles))
        ti, tj = rows[flipped], cols[flipped]
        d = sparse.csr_matrix((np.concatenate([sign, sign]),
                               (np.concatenate([ti, tj]), np.concatenate([tj, ti]))),
                              shape=self.a_hh.shape)
        # a CSR sum stores no zeros: a count or an edge that drops to 0 leaves
        # the matrix, and len(self.cn) stays the number of pairs with a count
        ad = self.a_hh @ d
        self.cn.upper = upper + sparse.triu(ad + ad.T + d @ d, 1, format="csr")
        self.a_hh = self.a_hh + d

        for u, v, present in toggles:
            if present:
                adj[u].add(v)
                adj[v].add(u)
            else:
                adj[u].discard(v)
                adj[v].discard(u)
        g._m += int(sign.sum())
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
        """Audit the tracked state against a fresh build: every node of
        degree at least the floor is in H, and ``a_hh`` and the count
        triangle equal their values on the live graph."""
        adj = self.g._adj
        ids = self.cn.ids
        outside = np.setdiff1d(_at_floor(adj, self.floor), ids)
        if len(outside):
            raise ContractError(
                f"{len(outside)} node(s) reached the floor outside the tracked set "
                f"(first: {outside[:5].tolist()})")
        a_hh, upper = _high_side(adj, ids, self.g.n)
        for name, want, have in (("adjacency among the tracked nodes", a_hh, self.a_hh),
                                 ("common neighbor counts", upper, self.cn.upper)):
            wrong = (want != have).tocoo()
            if wrong.nnz or have.nnz != want.nnz:
                pairs = list(zip(ids[wrong.row[:3]].tolist(), ids[wrong.col[:3]].tolist()))
                raise ContractError(
                    f"tracked {name} diverged at {wrong.nnz} entries (first: {pairs}); "
                    f"{have.nnz} stored for {want.nnz}")


class BulkStepper:
    """Complete-scheduler round via a chunked sparse matrix product that
    decides only the pairs whose common neighbor count reaches the certified
    floor."""

    prune = True

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        stats, substeps = _resolve_stats(potential)
        if substeps != 1:
            raise ConfigError("bulk execution does not support merged potentials")
        self.stats = stats
        stats.certify()

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        g = self.g
        adj = g._adj
        n = g.n
        a_mat = _adjacency_rows(adj, range(n), n)

        additions = []
        removals = []
        for start in range(0, n, BULK_ROWS):
            stop = min(start + BULK_ROWS, n)
            block = (a_mat[start:stop] @ a_mat).tocoo()
            rows = block.row.astype(np.int64) + start
            keep = (block.data >= self.stats.cn_floor) & (block.col > rows)
            us, vs = rows[keep].tolist(), block.col[keep].tolist()
            for k in _toggling(g, self.stats.decide, us, vs, block.data[keep].tolist()):
                u, v = us[k], vs[k]
                (removals if v in adj[u] else additions).append((u, v))
        delta = EdgeDelta.build(additions, removals)
        g.apply_delta(delta)
        return delta, pair_count(n)
