"""Ground-truth core decomposition by classical peeling.

This oracle is independent of the dynamics engine: it never evaluates a
potential, so it can verify minimum-degree runs without sharing code with the
path it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import DynGraph, code_ends, code_pairs, edge_codes


@dataclass(frozen=True)
class CoreDecomposition:
    core: frozenset
    crust: frozenset
    k: int


def peel(g: DynGraph, k: int) -> CoreDecomposition:
    """Iteratively delete nodes of degree below k until none remain.

    Worklist peeling; O(n + m) for a single k, and the result is independent
    of deletion order.
    """
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    deg = [g.degree(u) for u in range(g.n)]
    removed = [False] * g.n
    queue = [u for u in range(g.n) if deg[u] < k]
    for u in queue:
        removed[u] = True
    while queue:
        u = queue.pop()
        for w in g.neighbors(u):
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < k:
                    removed[w] = True
                    queue.append(w)
    core = frozenset(u for u in range(g.n) if not removed[u])
    crust = frozenset(u for u in range(g.n) if removed[u])
    return CoreDecomposition(core=core, crust=crust, k=k)


@dataclass
class KcoreReport:
    ok: bool
    misclassified_isolated: list[int]
    misclassified_core: list[int]
    missing_edges: list[tuple[int, int]]
    extra_edges: list[tuple[int, int]]

    def summary(self) -> str:
        if self.ok:
            return "kcore: PASS"
        return ("kcore: FAIL "
                f"(crust mismatches={len(self.misclassified_isolated)}, "
                f"core mismatches={len(self.misclassified_core)}, "
                f"missing={len(self.missing_edges)}, extra={len(self.extra_edges)})")


def verify_kcore_run(final: DynGraph, g0: DynGraph, alpha: int) -> KcoreReport:
    """Check a minimum-degree run's output against the peeling oracle.

    The final graph must consist of exactly the alpha-core of the initial
    graph with its original edges, every other node isolated. Edge sets are
    compared exactly because the dynamics can only delete here.
    """
    if final.n != g0.n:
        raise InputError(f"graph sizes differ: final n={final.n}, initial n={g0.n}")
    dec = peel(g0, alpha)
    core = np.zeros(g0.n, dtype=bool)
    core[list(dec.core)] = True
    deg = np.array(final.degrees, dtype=np.int64)
    # an isolated core node is possible only in the degenerate core-of-isolates
    # sense; classify mismatches from both directions
    mis_isolated = np.flatnonzero((deg == 0) & core).tolist() if alpha > 0 else []
    mis_core = np.flatnonzero((deg > 0) & ~core).tolist()
    codes = edge_codes(g0)
    us, vs = code_ends(codes)
    core_codes = codes[core[us] & core[vs]]
    final_codes = edge_codes(final)
    # setdiff1d keeps the order of its first, ascending argument
    missing = code_pairs(np.setdiff1d(core_codes, final_codes, assume_unique=True))
    extra = code_pairs(np.setdiff1d(final_codes, core_codes, assume_unique=True))
    ok = not (mis_isolated or mis_core or missing or extra)
    return KcoreReport(ok, mis_isolated, mis_core, missing, extra)
