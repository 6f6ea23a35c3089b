"""Shared helpers: brute-force oracles kept independent of the library paths
they check."""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import settings

from abdyn.graph import DynGraph

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
