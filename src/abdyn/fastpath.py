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
supplier that refuses to be called. The same supplier tabulates ``decide``
over (edge state, count) at and above the floor (:class:`Decisions`): a round
looks its pairs up in one array operation and calls ``decide`` only on the
pairs whose entry reads the common neighbor edges. The rule keeps one
definition, its own ``decide``. The incremental route hands each substep's
toggles to the graph as sorted edge codes (:meth:`DynGraph.toggle_codes`),
and builds the round's delta from them.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, graph_fingerprint, pair_codes
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


class _Refused(Exception):
    """Raised by the common neighbor edge supplier of a tabulation call."""


class Decisions:
    """A pair-statistics rule's ``decide``, tabulated over (edge state,
    common neighbor count) from the floor up.

    Each entry comes from the rule's own ``decide``, called with a common
    neighbor edge supplier that records the call and refuses. An entry whose
    call used the supplier, even if ``decide`` caught the refusal, or raised,
    is marked ``slow``: its pairs are decided one by one by ``decide`` with
    their exact count, so an error is raised on the pair that causes it.
    Below the certified floor no entry toggles. The table grows when a count
    passes its end.
    """

    __slots__ = ("decide", "floor", "flips", "slow")

    def __init__(self, stats: PairStatsRule, size: int):
        self.decide = stats.decide
        self.floor = stats.cn_floor
        self.flips = np.zeros((2, 0), dtype=bool)
        self.slow = np.zeros((2, 0), dtype=bool)
        self._grow(size)

    def __len__(self) -> int:
        return self.flips.shape[1]

    def _grow(self, size: int) -> None:
        old = len(self)
        flips = np.zeros((2, size), dtype=bool)
        slow = np.zeros((2, size), dtype=bool)
        flips[:, :old] = self.flips
        slow[:, :old] = self.slow
        asked = []

        def refuse() -> int:
            asked.append(True)
            raise _Refused

        for cn in range(max(old, self.floor), size):
            for edge in (0, 1):
                asked.clear()
                try:
                    flips[edge, cn] = self.decide(edge, cn, refuse) != edge
                except Exception:   # the pair-by-pair call raises it again
                    slow[edge, cn] = True
                if asked:
                    slow[edge, cn] = True
        self.flips, self.slow = flips, slow

    def toggling(self, g: DynGraph, us: np.ndarray, vs: np.ndarray, edges: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
        """Positions k at which the rule toggles the pair (us[k], vs[k]) of
        edge state edges[k] (0 or 1) and common neighbor count counts[k]."""
        top = int(counts.max(initial=0))
        if top >= len(self):
            self._grow(max(2 * len(self), top + 1))
        flips = self.flips[edges, counts]
        for k in np.flatnonzero(self.slow[edges, counts]).tolist():
            edge = int(edges[k])
            ce = _exact_ce(g, int(us[k]), int(vs[k]))
            flips[k] = self.decide(edge, int(counts[k]), ce) != edge
        return np.flatnonzero(flips)


class Toggles:
    """One substep's toggles: the ascending codes of the toggled edges (see
    :func:`~abdyn.graph.pair_codes`) and whether each was born or removed."""

    __slots__ = ("codes", "born")

    def __init__(self, codes: np.ndarray, born: np.ndarray):
        self.codes = codes
        self.born = born

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def ordered(cls, codes: np.ndarray, born: np.ndarray) -> "Toggles":
        order = np.argsort(codes)
        return cls(codes[order], born[order])

    def then(self, later: "Toggles") -> "Toggles":
        """The net toggles of this substep followed by ``later``: a pair
        toggled in both is back in its state and drops out."""
        both = Toggles.ordered(np.concatenate([self.codes, later.codes]),
                               np.concatenate([self.born, later.born]))
        twice = both.codes[1:] == both.codes[:-1]
        keep = np.ones(len(both), dtype=bool)
        keep[1:] &= ~twice
        keep[:-1] &= ~twice
        return Toggles(both.codes[keep], both.born[keep])


_NO_TOGGLES = Toggles(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool))


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

    Each substep decides the pairs whose count reaches the floor, reading
    their edge state from ``a_hh`` and their decision from the rule's
    :class:`Decisions`. It builds the symmetric +-1 toggle matrix D on H
    and, with A = ``a_hh`` and C the count triangle, updates
    ``C += triu(A D + D A + D D, 1)`` and ``A += D``:
    (A + D)^2 - A^2 = A D + D A + D D. That is exact because every toggle
    lies inside H and the edges from H to the other nodes never change.
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
        self.decisions = Decisions(self.stats,
                                   max(self.floor, int(upper.data.max(initial=0))) + 1)

    # -- round execution ---------------------------------------------------

    def _substep(self) -> Toggles:
        from scipy import sparse

        ids = self.cn.ids
        upper = self.cn.upper
        hot = np.flatnonzero(upper.data >= self.floor)
        if not len(hot):
            # fancy indexing a sparse matrix with empty arrays gives a matrix
            return _NO_TOGGLES
        rows = np.searchsorted(upper.indptr, hot, side="right") - 1
        cols = upper.indices[hot]
        edges = np.asarray(self.a_hh[rows, cols]).ravel()
        flipped = self.decisions.toggling(self.g, ids[rows], ids[cols], edges,
                                          upper.data[hot])
        if not len(flipped):
            return _NO_TOGGLES

        born = edges[flipped] == 0
        sign = np.where(born, 1, -1).astype(np.int32)
        ti, tj = rows[flipped], cols[flipped]
        d = sparse.csr_matrix((np.concatenate([sign, sign]),
                               (np.concatenate([ti, tj]), np.concatenate([tj, ti]))),
                              shape=self.a_hh.shape)
        # a CSR sum stores no zeros: a count or an edge that drops to 0 leaves
        # the matrix, and len(self.cn) stays the number of pairs with a count
        ad = self.a_hh @ d
        self.cn.upper = upper + sparse.triu(ad + ad.T + d @ d, 1, format="csr")
        self.a_hh = self.a_hh + d

        # ti < tj and the ids ascend, so each code is (smaller << 32) | larger
        toggles = Toggles.ordered(pair_codes(ids[ti], ids[tj]), born)
        self.g.toggle_codes(toggles.codes, toggles.born)
        return toggles

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        net = self._substep()
        for _ in range(1, self.substeps):
            net = net.then(self._substep())
        return EdgeDelta.from_codes(net.codes, net.born), pair_count(self.g.n)

    # -- test hook ----------------------------------------------------------

    def verify_counts(self) -> None:
        """Audit the tracked state against a fresh build: every node of
        degree at least the floor is in H, ``a_hh`` and the count triangle
        equal their values on the live graph, and so does the graph's
        maintained fingerprint."""
        g = self.g
        if g.fingerprint != graph_fingerprint(g):
            raise ContractError(
                f"maintained fingerprint {g.fingerprint:016x} diverged from the "
                f"graph's fold {graph_fingerprint(g):016x}")
        adj = g._adj
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
        self.decisions = Decisions(stats, stats.cn_floor + 1)

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        g = self.g
        n = g.n
        a_mat = _adjacency_rows(g._adj, range(n), n)

        found = [_NO_TOGGLES]
        for start in range(0, n, BULK_ROWS):
            band = a_mat[start:min(start + BULK_ROWS, n)]
            block = (band @ a_mat).tocoo()
            rows = block.row.astype(np.int64)
            cols = block.col.astype(np.int64)
            keep = np.flatnonzero((block.data >= self.stats.cn_floor) & (cols > rows + start))
            if not len(keep):
                continue
            rows, cols = rows[keep], cols[keep]
            edges = np.asarray(band[rows, cols]).ravel()
            us = rows + start
            flipped = self.decisions.toggling(g, us, cols, edges, block.data[keep])
            found.append(Toggles(pair_codes(us[flipped], cols[flipped]), edges[flipped] == 0))
        toggles = Toggles.ordered(np.concatenate([x.codes for x in found]),
                                  np.concatenate([x.born for x in found]))
        delta = EdgeDelta.from_codes(toggles.codes, toggles.born)
        g.apply_delta(delta)
        return delta, pair_count(n)
