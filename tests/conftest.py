"""Shared helpers: brute-force oracles kept independent of the library paths
they check."""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from scipy import sparse

from abdyn.fastpath import Decisions
from abdyn.graph import (DynGraph, EdgeDelta, code_ends, edge_codes, graph_fingerprint,
                         pair_codes)
from abdyn.potentials import Potential

# Property tests draw the same examples on every run and write no example
# database, so a tier-1 run is reproducible. Hypothesis still caches the
# constants it finds in the source; keep that cache out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "abdyn-hypothesis"))
settings.register_profile("tier1", derandomize=True, deadline=None, database=None,
                          max_examples=40)
settings.load_profile("tier1")


def brute_common_neighbors(g: DynGraph, u: int, v: int) -> int:
    return sum(1 for w in range(g.n)
               if w not in (u, v) and g.has_edge(w, u) and g.has_edge(w, v))


def brute_common_neighbor_edges(g: DynGraph, u: int, v: int) -> int:
    common = [w for w in range(g.n)
              if w not in (u, v) and g.has_edge(w, u) and g.has_edge(w, v)]
    count = 0
    for i, a in enumerate(common):
        for b in common[i + 1:]:
            if g.has_edge(a, b):
                count += 1
    return count


def brute_component_labels(g: DynGraph) -> list[int]:
    """Component label of every node, by a depth-first search over has_edge."""
    label = [-1] * g.n
    for s in range(g.n):
        if label[s] >= 0:
            continue
        label[s] = s
        stack = [s]
        while stack:
            x = stack.pop()
            for y in range(g.n):
                if label[y] < 0 and g.has_edge(x, y):
                    label[y] = s
                    stack.append(y)
    return label


class BulkOracle:
    """Complete-scheduler rounds of a pair-statistics potential by a fresh
    recount in every substep: the independent side of the checks on
    :class:`~abdyn.fastpath.IncrementalStepper` at scales where the unpruned
    reference, ``engine="naive"``, cannot enumerate the pairs.

    It carries no count between substeps and builds its adjacency from the
    graph's edge codes, not from the stepper's adjacency rows. Only nodes of
    degree at least the floor on the live graph have pairs that can reach
    it; those pairs are counted, decided through the rule's
    :class:`~abdyn.fastpath.Decisions` and applied by the validating
    :meth:`DynGraph.apply_delta`."""

    def __init__(self, g: DynGraph, potential: Potential):
        self.g = g
        stats, self.substeps = potential.pair_rule
        self.floor = stats.cn_floor
        self.decisions = Decisions(stats, self.floor + 1)

    def _substep(self) -> EdgeDelta:
        g = self.g
        us, vs = (x.astype(np.int64) for x in code_ends(edge_codes(g)))
        ends = np.concatenate([us, vs])
        adj = sparse.csr_matrix((np.ones(len(ends), dtype=np.int32),
                                 (ends, np.concatenate([vs, us]))), shape=(g.n, g.n))
        ids = np.flatnonzero(np.diff(adj.indptr) >= self.floor)
        a_high = adj[ids]
        counts = sparse.triu(a_high @ a_high.T, 1, format="coo")
        hot = np.flatnonzero(counts.data >= self.floor)
        if not len(hot):
            return EdgeDelta()
        us, vs = ids[counts.row[hot]], ids[counts.col[hot]]
        edges = np.asarray(a_high[counts.row[hot], vs]).ravel()
        flipped = self.decisions.toggling(g, us, vs, edges, counts.data[hot])
        codes = pair_codes(us[flipped], vs[flipped])
        order = np.argsort(codes)
        delta = EdgeDelta.from_codes(codes[order], edges[flipped][order] == 0)
        g.apply_delta(delta)
        return delta

    def advance(self) -> EdgeDelta:
        """One round: the substeps' deltas, netted."""
        delta = self._substep()
        for _ in range(1, self.substeps):
            delta = delta.then(self._substep())
        return delta


def oracle_rounds(g: DynGraph, potential: Potential, rounds: int) -> list[tuple[EdgeDelta, int]]:
    """Step a :class:`BulkOracle` on ``g``, in place, for ``rounds`` rounds:
    each round's delta with the graph's fingerprint after it. After every
    round the graph's maintained fingerprint must equal a fresh fold."""
    oracle = BulkOracle(g, potential)
    out = []
    for t in range(rounds):
        delta = oracle.advance()
        assert g.fingerprint == graph_fingerprint(g), t
        out.append((delta, g.fingerprint))
    return out


def random_graph(n: int, p: float, seed: int) -> DynGraph:
    rng = random.Random(seed)
    g = DynGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def blinker() -> DynGraph:
    """Two 22-cliques sharing the pair (0, 1), whose edge the rule-110
    potential flips every round: a cycle of period 2 from round 0."""
    g = DynGraph(42)
    for half in (range(2, 22), range(22, 42)):
        nodes = [0, 1] + list(half)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                g.add_edge(a, b)
    return g


def triangle() -> DynGraph:
    return DynGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def rng():
    return random.Random(12345)
