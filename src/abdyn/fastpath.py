"""Complete-scheduler execution of pair-statistics potentials.

Potentials that decide a pair purely from (edge state, common neighbor count,
common neighbor edges) declare a :class:`~abdyn.potentials.PairStatsRule`
with a ``cn_floor``: below that common neighbor count the decision provably
keeps the current state. :class:`IncrementalStepper` exploits that
certificate and stays exactly equivalent to pairwise evaluation of every
pair. It keeps, across rounds, the exact common neighbor counts of all pairs
of a fixed node set H: the nodes of degree at least the floor at init (only
they can reach it, since CN <= min degree, and no node joins them later).
The counts are the upper triangle of one sparse matrix, built with one
product over the adjacency rows of H, and each substep updates it with
sparse products of the substep's toggles alone. It also keeps the state from
before the last substep that toggled: when the pairs toggled in exactly one
of the two substeps are fewer than the new substep's own, as in a clock that
flips the same pairs every substep, it updates from that older state by
those net toggles instead. Per round it re-decides just the pairs at or
above the floor, so a huge graph with few high nodes and few toggles costs
little beyond one pass over the graph's maintained degree list
(:attr:`~abdyn.graph.DynGraph.degrees`) at init.

It runs a merged potential's two substeps (see
:attr:`~abdyn.potentials.Potential.pair_rule`) and nets their deltas
(:meth:`~abdyn.graph.EdgeDelta.then`), and tabulates ``decide`` over (edge
state, count) from count 0 up with a common-neighbor-edge supplier that
refuses to be called (:class:`Decisions`); the rows below the floor are the
certificate check. A round looks its pairs up in one array operation and
calls ``decide`` only on the pairs whose entry reads the common neighbor
edges, so the rule keeps one definition, its own ``decide``; a pair whose
count an observer kept on the same state
(:meth:`~abdyn.graph.DynGraph.keep_common_neighbor_edges`, as the rule-110
structure check does for its anchor pairs) costs a lookup. Each substep
applies its toggles as one :class:`~abdyn.graph.EdgeDelta` built from their
sorted edge codes, which a long delta keeps as arrays, through the
validating :meth:`DynGraph.apply_delta`, so an edit made behind the
stepper's back raises ``ContractError`` instead of corrupting the graph.

A run that wrote the caller's graph parks its stepper there
(:meth:`IncrementalStepper.park`, :meth:`~abdyn.graph.DynGraph.park`), and
the graph journals the edges that later edits toggle. The next run of the
same rule on that graph resumes it (:func:`incremental_stepper`): the net
toggles move the tracked state as a substep's would, so a runner that puts
many tapes through one rule-110 assembly builds the counts once. A journal
past its bound, a toggled pair with an endpoint outside H, another rule or
a copy of the graph gets a fresh build.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError
from .graph import DynGraph, EdgeDelta, code_ends, graph_fingerprint, pair_codes
from .potentials import PairStatsRule, Potential
from .schedulers import pair_count


def _exact_ce(g: DynGraph, u: int, v: int):
    """The lazy common neighbor edge count that ``decide`` receives."""
    return lambda: g.kept_common_neighbor_edges(u, v)


class Decisions:
    """A pair-statistics rule's ``decide``, tabulated over (edge state,
    common neighbor count) from count 0 up.

    Each entry comes from the rule's own ``decide``, called with a common
    neighbor edge supplier that records the call and refuses. An entry whose
    call used the supplier, even if ``decide`` caught the refusal, or raised,
    is marked ``slow``: its pairs are decided one by one by ``decide`` with
    their exact count, so an error is raised on the pair that causes it.
    Below the floor a toggling or slow entry raises ``ContractError`` (the
    certificate is false), and an error of ``decide``'s own propagates. The
    table grows when a count passes its end.
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
            raise ContractError("common neighbor edges are not tabulated")

        for cn in range(old, size):
            for edge in (0, 1):
                asked.clear()
                try:
                    flips[edge, cn] = self.decide(edge, cn, refuse) != edge
                except Exception:   # from the floor up, the pair-by-pair call raises it again
                    if cn < self.floor and not asked:
                        raise
                    slow[edge, cn] = True
                if asked:
                    slow[edge, cn] = True
            if cn < self.floor and (flips[:, cn].any() or slow[:, cn].any()):
                what = ("changes state" if flips[:, cn].any() else
                        "below the floor consulted common neighbor edges")
                raise ContractError(f"cn_floor certificate violated at cn={cn}: decision {what}")
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


def _adjacency_rows(g: DynGraph, rows: np.ndarray):
    """Sparse 0/1 matrix whose i-th row is the neighbor set of ``rows[i]``,
    from the graph's CSR rows (:meth:`~abdyn.graph.DynGraph.csr_rows`)."""
    # scipy loads on first use: loaded with this module, before a large graph
    # is built, it raised the peak resident set of a W=4 rule-110 run by 15 MB
    from scipy import sparse

    indptr, indices = g.csr_rows(rows)
    data = np.ones(len(indices), dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), g.n))


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


def _at_floor(degrees: list[int], floor: int) -> np.ndarray:
    """Ascending ids of the nodes whose entry in ``degrees`` is at least ``floor``."""
    return np.flatnonzero(np.fromiter(degrees, dtype=np.int64, count=len(degrees)) >= floor)


def _high_side(g: DynGraph, ids: np.ndarray):
    """(A_HH, upper triangle of A_H A_H^T) for the nodes ``ids`` of g."""
    from scipy import sparse

    a_high = _adjacency_rows(g, ids)
    return (a_high[:, ids].tocsr(),
            sparse.triu(a_high @ a_high.T, 1, format="csr"))


class Toggles(NamedTuple):
    """The pairs of H that one substep toggles: their codes, ascending in a
    substep's own toggles, their positions ``ti < tj`` in the tracked ids,
    and ``sign`` +1 for an edge added, -1 for one removed."""

    codes: np.ndarray
    ti: np.ndarray
    tj: np.ndarray
    sign: np.ndarray

    def then(self, later: "Toggles", shorter: bool = False) -> Optional["Toggles"]:
        """These toggles and then ``later``'s, netted; with ``shorter``, None
        unless that leaves fewer pairs than ``later`` holds. A pair in both
        is back in its old state, so the net toggles are the pairs in
        exactly one of the two."""
        _, mine, theirs = np.intersect1d(self.codes, later.codes, assume_unique=True,
                                         return_indices=True)
        # |self| + |later| - 2 |both| < |later|
        if shorter and 2 * len(mine) <= len(self.codes):
            return None
        if (self.sign[mine] == later.sign[theirs]).any():
            raise ContractError("a pair toggled in two substeps moved the same way twice")
        return Toggles(*(np.concatenate([np.delete(a, mine), np.delete(b, theirs)])
                         for a, b in zip(self, later)))


def _moved(a_hh, upper, toggles: Toggles):
    """A + D and C + triu(A D + D A + D D, 1) for A = ``a_hh``, the count
    triangle C = ``upper`` and D the symmetric +-1 matrix of ``toggles``:
    (A + D)^2 - A^2 = A D + D A + D D."""
    from scipy import sparse

    ti, tj, sign = toggles.ti, toggles.tj, toggles.sign
    d = sparse.csr_matrix((np.concatenate([sign, sign]),
                           (np.concatenate([ti, tj]), np.concatenate([tj, ti]))),
                          shape=a_hh.shape)
    # a CSR sum stores no zeros: a count or an edge that drops to 0 leaves
    # the matrix, and len(cn) stays the number of pairs with a count
    ad = a_hh @ d
    return a_hh + d, upper + sparse.triu(ad + ad.T + d @ d, 1, format="csr")


def _diverged(what: str, ids: np.ndarray, want, have) -> None:
    """Raise ``ContractError`` if the tracked matrix ``have`` differs from
    ``want`` in an entry or in what it stores."""
    wrong = (want != have).tocoo()
    if wrong.nnz or have.nnz != want.nnz:
        pairs = list(zip(ids[wrong.row[:3]].tolist(), ids[wrong.col[:3]].tolist()))
        raise ContractError(
            f"{what} diverged at {wrong.nnz} entries (first: {pairs}); "
            f"{have.nnz} stored for {want.nnz}")


def incremental_stepper(g: DynGraph, potential: Potential) -> "IncrementalStepper":
    """An :class:`IncrementalStepper` of ``potential`` on g: the one that the
    last run on g parked there, brought up to g's edges, if it runs the same
    :class:`~abdyn.potentials.PairStatsRule` (by identity; the substep count
    may differ) and every pair toggled since has both endpoints in its H;
    else a new one."""
    parked = g.unpark()
    if parked is not None:
        stepper, codes, now = parked
        stats, substeps = potential.pair_rule
        if stepper.stats is stats and stepper._fold(g, codes, now):
            stepper.substeps = substeps
            return stepper
    return IncrementalStepper(g, potential)


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
    :class:`Decisions`. Its toggles, as the symmetric +-1 matrix D on H,
    update A = ``a_hh`` and the count triangle C by ``A += D`` and
    ``C += triu(A D + D A + D D, 1)``. That is exact because every toggle
    lies inside H and the edges from H to the other nodes never change.

    ``older`` holds (``a_hh``, ``cn.upper``) from before the last substep
    that toggled, and ``toggled`` that substep's :class:`Toggles`. When the
    pairs toggled in exactly one of that substep and the new one are fewer
    than the new one's own, the new state is the older one moved by those
    net toggles, by the same identity (A_{t+1} = A_{t-1} + D_net); a clock
    that flips the same pairs every substep then costs only the pairs that
    change otherwise. ``rebased`` counts those substeps. A substep that
    toggles nothing changes neither state.

    Between two runs on one graph the stepper waits parked on it
    (:meth:`park`); :func:`incremental_stepper` resumes it, moving its
    state by the pairs toggled in between, which must lie inside H.
    """

    prune = True        # pairs below the floor are never decided

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        self.stats, self.substeps = potential.pair_rule
        self.floor = self.stats.cn_floor
        ids = _at_floor(g.degrees, self.floor)
        self.a_hh, upper = _high_side(g, ids)
        self.cn = PairCounts(ids, upper)
        self.decisions = Decisions(self.stats,
                                   max(self.floor, int(upper.data.max(initial=0))) + 1)
        self.older = None
        self.toggled: Optional[Toggles] = None
        self.rebased = 0

    # -- round execution ---------------------------------------------------

    def _substep(self) -> EdgeDelta:
        ids = self.cn.ids
        upper = self.cn.upper
        hot = np.flatnonzero(upper.data >= self.floor)
        if not len(hot):
            # fancy indexing a sparse matrix with empty arrays gives a matrix
            return EdgeDelta()
        rows = np.searchsorted(upper.indptr, hot, side="right") - 1
        cols = upper.indices[hot]
        edges = np.asarray(self.a_hh[rows, cols]).ravel()
        flipped = self.decisions.toggling(self.g, ids[rows], ids[cols], edges,
                                          upper.data[hot])
        if not len(flipped):
            return EdgeDelta()

        born = edges[flipped] == 0
        ti, tj = rows[flipped], cols[flipped]
        # ti < tj and the ids ascend, so each code is (smaller << 32) | larger
        codes = pair_codes(ids[ti], ids[tj])
        order = np.argsort(codes)
        toggles = Toggles(codes[order], ti[order], tj[order],
                          np.where(born[order], 1, -1).astype(np.int32))
        net = self.toggled.then(toggles, shorter=True) if self.toggled is not None else None
        delta = EdgeDelta.from_codes(toggles.codes, born[order])
        # the graph is written first, so a refused delta leaves both states as they were
        self.g.apply_delta(delta)
        start, moves = (self.a_hh, upper), toggles
        if net is not None:
            start, moves = self.older, net
            self.rebased += 1
        self.older, self.toggled = (self.a_hh, upper), toggles
        self.a_hh, self.cn.upper = _moved(*start, moves)
        return delta

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        delta = self._substep()
        for _ in range(1, self.substeps):
            delta = delta.then(self._substep())
        return delta, pair_count(self.g.n)

    # -- from one run on a graph to the next --------------------------------

    def park(self) -> None:
        """Leave the stepper on its graph (:meth:`DynGraph.park`) for the
        next run there, which :func:`incremental_stepper` resumes. The
        graph keeps a journal of at most as many toggles as the stepper
        counts pairs, the scale of a fresh build's work."""
        g, self.g = self.g, None        # no reference cycle while parked
        g.park(self, len(self.cn))

    def _fold(self, g: DynGraph, codes: np.ndarray, now: np.ndarray) -> bool:
        """Bring the tracked state up to g, whose pairs of ascending edge
        codes ``codes`` were toggled since the stepper was parked and are
        edges where ``now`` holds, unless one of them has an endpoint
        outside H; returns whether it did. The state moves by those toggles
        as by a substep's, and they join the last substep's toggles, so a
        first substep that undoes the last one still takes the older
        state."""
        ids = self.cn.ids
        us, vs = (end.astype(np.int64) for end in code_ends(codes))
        ti, tj = np.searchsorted(ids, us), np.searchsorted(ids, vs)
        if len(codes) and not (tj.max() < len(ids)
                               and (ids[ti] == us).all() and (ids[tj] == vs).all()):
            return False
        self.g = g
        if not len(codes):
            return True
        toggles = Toggles(codes, ti, tj, np.where(now, 1, -1).astype(np.int32))
        if self.toggled is None:
            self.older, self.toggled = (self.a_hh, self.cn.upper), toggles
        else:
            self.toggled = self.toggled.then(toggles)
        self.a_hh, self.cn.upper = _moved(self.a_hh, self.cn.upper, toggles)
        return True

    # -- test hook ----------------------------------------------------------

    def verify_counts(self) -> None:
        """Audit the tracked state against a fresh build: every node of
        degree at least the floor is in H, ``a_hh`` and the count triangle
        equal their values on the live graph, and so do the graph's
        maintained fingerprint and degree list. The older state moved by the
        last toggles must equal them too."""
        g = self.g
        if g.fingerprint != graph_fingerprint(g):
            raise ContractError(
                f"maintained fingerprint {g.fingerprint:016x} diverged from the "
                f"graph's fold {graph_fingerprint(g):016x}")
        fresh = list(map(g.degree, range(g.n)))
        listed = g.degrees
        if listed != fresh:
            u = next((u for u, (d, e) in enumerate(zip(listed, fresh)) if d != e), None)
            where = (f"first at node {u}: listed {listed[u]}, degree {fresh[u]}" if u is not None
                     else f"{len(listed)} entries for {len(fresh)} nodes")
            raise ContractError(f"maintained degree list diverged ({where})")
        ids = self.cn.ids
        outside = np.setdiff1d(_at_floor(fresh, self.floor), ids)
        if len(outside):
            raise ContractError(
                f"{len(outside)} node(s) reached the floor outside the tracked set "
                f"(first: {outside[:5].tolist()})")
        have = (self.a_hh, self.cn.upper)
        names = ("adjacency among the tracked nodes", "common neighbor counts")
        for name, want, got in zip(names, _high_side(g, ids), have):
            _diverged(f"tracked {name}", ids, want, got)
        if self.toggled is not None:
            for name, want, got in zip(names, _moved(*self.older, self.toggled), have):
                _diverged(f"older state plus the last toggles: {name}", ids, want, got)
