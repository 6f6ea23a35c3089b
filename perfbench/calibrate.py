"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed changes under it: from one
second to the next as neighbours come and go, and by a quarter or more
between minutes. Every timing is therefore paired with a fixed reference
task, timed in the same process before and after the timed interval, at
most about ``REF_EVERY_S`` away from it. ``Calibrator.scaled`` multiplies a
timing by ``REF_S`` over the mean time of the nearest reference samples, so
it reads as seconds on a host where the reference task takes ``REF_S``
seconds. Drift that slows the library and the reference alike cancels; a
change to the library does not, because the reference uses no library code.

The reference task is plain Python with the mix of work of the library's
hot loops, in three parts of about equal time: k-core peeling with dicts and
sets, random pair draws with edge lookups, and small objects with method
calls and a sort. A single kind of work tracks the drift less well, because
a busy neighbour slows some kinds of work more than others. The task runs
with the garbage collector off, so its time does not depend on how many
objects the workload keeps alive.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# About the median reference_task() seconds on a 2-core Intel Xeon KVM guest
# with Python 3.11.7. Fixed, so scaled timings from different commits and
# hosts compare directly.
REF_S = 0.015

# A reference task runs after the first library run that ends at least this
# many seconds after the previous reference.
REF_EVERY_S = 0.25

# A timing is scaled by the mean of this many reference samples on each side
# of it. One sample per side lets the jitter of single samples through: the
# slowest scaled runs of a workload are then mostly runs whose neighbouring
# samples happened to be fast.
NEAR = 2


def _reference_graph(n: int = 200, p: float = 0.05) -> dict:
    rng = random.Random(20210308)
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_GRAPH = _reference_graph()


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> int:
        return (self.a * 7919 + self.b) % 10007


def _peel() -> int:
    """k-core peeling of the fixed graph for several k: set and dict work."""
    removed_total = 0
    for k in (3, 4, 5, 6, 7, 8, 9, 10) * 2:
        adj = {u: set(vs) for u, vs in _GRAPH.items()}
        deg = {u: len(vs) for u, vs in adj.items()}
        stack = [u for u in adj if deg[u] < k]
        removed = set()
        while stack:
            u = stack.pop()
            if u in removed:
                continue
            removed.add(u)
            for v in adj[u]:
                adj[v].discard(u)
                deg[v] -= 1
                if deg[v] < k and v not in removed:
                    stack.append(v)
        removed_total += len(removed)
    return removed_total


def _probe() -> int:
    """Uniform random pair draws and edge lookups: random-module calls."""
    rng = random.Random(7)
    n = len(_GRAPH)
    hits = 0
    for _ in range(4500):
        u, v = rng.randrange(n), rng.randrange(n)
        if v in _GRAPH[u]:
            hits += 1
    return hits


def _objects() -> int:
    """Small objects, tuples, method calls and a sort."""
    items = [_Item(i, i * 2) for i in range(5600)]
    ordered = sorted(items, key=_Item.key)
    pairs = [(x.a, x.b) for x in ordered]
    return ordered[0].key() + len(pairs)


def reference_task() -> int:
    """Three parts of about equal time; fixed work, no library code."""
    return _peel() + _probe() + _objects()


_EXPECTED = reference_task()


class Calibrator:
    """Reference-task samples of one process, and timings scaled by them."""

    def __init__(self):
        self.starts: list[float] = []      # when each reference task started
        self.times: list[float] = []       # and how long it took

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = reference_task()
            self.times.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()
        if result != _EXPECTED:
            raise AssertionError("reference task gave a different result")

    def maybe_sample(self) -> None:
        """Sample if ``REF_EVERY_S`` have passed since the last sample ended."""
        if not self.starts or time.perf_counter() - self.starts[-1] - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` timed from ``start``, times ``REF_S`` over the mean of
        the ``NEAR`` reference samples before and the ``NEAR`` after that
        interval (fewer at either end)."""
        i = bisect.bisect_right(self.starts, start)
        return seconds * REF_S / statistics.fmean(self.times[max(i - NEAR, 0):i + NEAR])
