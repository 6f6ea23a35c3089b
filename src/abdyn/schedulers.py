"""Interaction schedulers: generators of the per-round pair sets.

Every scheduler declares its fairness contract. A declared
``fairness_period`` P promises that every unordered pair is scheduled within
any window of P consecutive rounds; schedulers without one either follow the
current edge set or are stochastic, and the engine adjusts its stabilization
verdict accordingly.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Optional

from .errors import ConfigError
from .graph import DynGraph, norm_pair


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def all_pairs(n: int) -> Iterator[tuple[int, int]]:
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


class InteractionSet:
    """An unordered collection of distinct node pairs activated in one round.

    A complete set is represented lazily so that no quadratic structure is
    materialized for large graphs.
    """

    __slots__ = ("_pairs", "_n")

    def __init__(self, pairs: Iterable[tuple[int, int]] | None = None, complete_n: int | None = None):
        if complete_n is not None:
            self._pairs = None
            self._n = complete_n
        else:
            self._pairs = frozenset(norm_pair(*p) for p in pairs or ())
            self._n = None

    @property
    def complete(self) -> bool:
        return self._pairs is None

    def __iter__(self) -> Iterator[tuple[int, int]]:
        if self._pairs is None:
            return all_pairs(self._n)
        return iter(self._pairs)

    def __len__(self) -> int:
        if self._pairs is None:
            return pair_count(self._n)
        return len(self._pairs)

    def __contains__(self, pair) -> bool:
        u, v = norm_pair(*pair)
        if self._pairs is None:
            return 0 <= u < self._n and 0 <= v < self._n and u != v
        return (u, v) in self._pairs

    def validate(self, n: int) -> None:
        if self._pairs is None:
            return
        for u, v in self._pairs:
            if u == v:
                raise ConfigError(f"interaction set contains self-pair ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ConfigError(f"interaction pair ({u},{v}) out of range for n={n}")
        if len(self._pairs) > pair_count(n):
            raise ConfigError("interaction set larger than the number of pairs")


class Scheduler:
    """Base scheduler. Subclasses override ``interactions``.

    ``deterministic`` marks schedulers whose output is a function of the
    round index and current graph only, which makes exact cycle detection
    sound. ``graph_driven`` marks schedulers whose output depends only on the
    current graph (no round phase), for which a single quiet round proves
    stabilization.
    """

    name = "scheduler"
    fairness_period: Optional[int] = None
    is_complete = False
    deterministic = True
    graph_driven = False

    def reset(self, graph: DynGraph) -> None:
        """Called by the engine at the start of every run."""

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        raise NotImplementedError

    def phase(self, t: int) -> int:
        """Scheduler state entering round t, as a cycle-detection key."""
        return 0

    def params(self) -> dict:
        return {}


class CompleteScheduler(Scheduler):
    """Every pair, every round."""

    name = "complete"
    fairness_period = 1
    is_complete = True

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        return InteractionSet(complete_n=graph.n)


class CurrentEdgesScheduler(Scheduler):
    """Exactly the current edge set each round.

    Not weakly fair: once an edge is gone its pair never comes back. The
    engine's stabilization verdict for this scheduler is that a round changed
    nothing, which also freezes the interaction set itself.
    """

    name = "current_edges"
    fairness_period = None
    graph_driven = True

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        return InteractionSet(graph.edges())


class UniformRandomScheduler(Scheduler):
    """One pair per round, uniform over all pairs, reproducible from the seed."""

    name = "uniform"
    fairness_period = None
    deterministic = False

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self, graph: DynGraph) -> None:
        if graph.n < 2:
            raise ConfigError("uniform scheduler needs at least 2 nodes")
        self._rng = random.Random(self.seed)

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        k = self._rng.randrange(pair_count(graph.n))
        # unrank: pairs (i, j), i < j, ordered by j then i
        j = (1 + math.isqrt(8 * k + 1)) // 2
        if j * (j - 1) // 2 > k:
            j -= 1
        i = k - j * (j - 1) // 2
        return InteractionSet([(i, j)])

    def params(self) -> dict:
        return {"seed": self.seed}


class FairRoundRobinScheduler(Scheduler):
    """All pairs in a fixed cyclic order, a batch per round.

    The pair stream is continuous across rounds, so any window of
    ceil(#pairs / batch) consecutive rounds covers every pair.
    """

    name = "round_robin"

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self._order: list[tuple[int, int]] = []

    def reset(self, graph: DynGraph) -> None:
        self._order = list(all_pairs(graph.n))
        self.fairness_period = max(1, math.ceil(len(self._order) / self.batch_size))

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        total = len(self._order)
        if total == 0:
            return InteractionSet([])
        start = (t * self.batch_size) % total
        picked = [self._order[(start + k) % total] for k in range(min(self.batch_size, total))]
        return InteractionSet(picked)

    def phase(self, t: int) -> int:
        total = len(self._order)
        return (t * self.batch_size) % total if total else 0

    def params(self) -> dict:
        return {"batch_size": self.batch_size}


class ScriptedScheduler(Scheduler):
    """Replays a fixed per-round script, optionally cyclically.

    When fairness is claimed the script's union must cover every pair; the
    constructor rejects scripts that do not, naming the missing pairs.
    """

    name = "scripted"

    def __init__(self, script: list[list[tuple[int, int]]], n: int,
                 repeat: bool = True, claim_fair: bool = False):
        if not script:
            raise ConfigError("script must contain at least one round")
        self.script = [tuple(norm_pair(*p) for p in rounds) for rounds in script]
        for i, rounds in enumerate(self.script):
            for u, v in rounds:
                if u == v or not (0 <= u < n and 0 <= v < n):
                    raise ConfigError(
                        f"script round {i} holds invalid pair ({u},{v}) for n={n}")
        self.repeat = repeat
        self.n = n
        self.claims_fair = claim_fair
        if claim_fair:
            if not repeat:
                raise ConfigError("fairness claim requires a repeating script")
            covered = set()
            for rounds in self.script:
                covered.update(rounds)
            missing = sorted(set(all_pairs(n)) - covered)
            if missing:
                shown = ", ".join(f"({u},{v})" for u, v in missing[:10])
                more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
                raise ConfigError(f"script does not cover all pairs; missing {shown}{more}")
            self.fairness_period = len(self.script)

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        if self.repeat:
            return InteractionSet(self.script[t % len(self.script)])
        if t < len(self.script):
            return InteractionSet(self.script[t])
        return InteractionSet([])

    def phase(self, t: int) -> int:
        if self.repeat:
            return t % len(self.script)
        return min(t, len(self.script))

    def params(self) -> dict:
        return {"rounds": len(self.script), "repeat": self.repeat,
                "claim_fair": self.claims_fair}


class SocialScheduler(Scheduler):
    """Interaction rules of the social toy model.

    Per round the scheduler activates, excluding enemy pairs entirely:
    adjacent pairs with at most ``gamma`` common neighbors (stronger
    friendships are left alone), and non-adjacent pairs whose distance lies
    in (1, x(u) + x(v)] where x is per-node extroversion.
    """

    name = "social"
    fairness_period = None
    graph_driven = True

    def __init__(self, profile, gamma: int):
        self.profile = profile
        self.gamma = gamma

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        prof = self.profile
        n = graph.n
        pairs = []
        reach = [self._reachable(graph, u, prof.extroversion[u] + max(prof.extroversion))
                 for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in prof.enemies:
                    continue
                if graph.has_edge(u, v):
                    if graph.common_neighbors(u, v) <= self.gamma:
                        pairs.append((u, v))
                else:
                    limit = prof.extroversion[u] + prof.extroversion[v]
                    dist = reach[u].get(v)
                    if dist is not None and 1 < dist <= limit:
                        pairs.append((u, v))
        return InteractionSet(pairs)

    @staticmethod
    def _reachable(graph: DynGraph, source: int, depth: int) -> dict[int, int]:
        dist = {source: 0}
        frontier = [source]
        for d in range(1, depth + 1):
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
            if not frontier:
                break
        return dist

    def params(self) -> dict:
        return {"gamma": self.gamma}
