"""Social toy model and the spanning-star stateless protocol.

The social model attaches static attributes to nodes: niceness (nonnegative
real), extroversion (nonnegative integer) and a symmetric enemy relation.
Niceness feeds a degree-like node function; the enemy relation and
extroversion shape the social scheduler (see
:class:`abdyn.schedulers.SocialScheduler`).

The star protocol is a general stateless rewrite rule rather than a
threshold rule: a pairwise interaction may rewire everything up to distance
2 from the interacting pair, and the run goal is a spanning star.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Optional

from .engine import RunConfig, RunTrace, run
from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, ball_nodes, norm_pair
# unused here: perfbench/tracer.py wraps them by name until ROADMAP item 1 step B
from .graph import edge_token, graph_fingerprint  # noqa: F401
from .schedulers import Scheduler


@dataclass(frozen=True)
class SocialProfile:
    niceness: tuple[float, ...]
    extroversion: tuple[int, ...]
    enemies: frozenset

    def __post_init__(self):
        if any(x < 0 for x in self.niceness):
            raise ConfigError("niceness must be nonnegative")
        if any(x < 0 for x in self.extroversion):
            raise ConfigError("extroversion must be nonnegative")
        if len(self.extroversion) != len(self.niceness):
            raise ConfigError(f"{len(self.niceness)} niceness values but "
                              f"{len(self.extroversion)} extroversion values")
        for u, v in self.enemies:
            if u == v:
                raise ConfigError("a node cannot be its own enemy")
            if not (0 <= u < len(self.niceness) and 0 <= v < len(self.niceness)):
                raise ConfigError(f"enemy pair ({u},{v}) out of range")
        object.__setattr__(self, "enemies", frozenset(norm_pair(*p) for p in self.enemies))

    @property
    def n(self) -> int:
        return len(self.niceness)


def random_profile(n: int, seed: int, enemy_p: float = 0.0) -> SocialProfile:
    rng = random.Random(seed)
    enemies = set()
    if enemy_p > 0:
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < enemy_p:
                    enemies.add((u, v))
    return SocialProfile(
        niceness=tuple(round(rng.uniform(0, 5), 3) for _ in range(n)),
        extroversion=tuple(rng.randint(0, 3) for _ in range(n)),
        enemies=frozenset(enemies),
    )


def niceness_g(profile: SocialProfile) -> Callable:
    """Degree-like node function: own niceness plus the niceness of all
    current neighbors. Nonnegative niceness keeps it monotone under
    neighborhood inclusion."""
    niceness = profile.niceness

    def g(graph: DynGraph, u: int) -> float:
        # fixed summation order keeps evaluation deterministic
        return niceness[u] + sum(niceness[w] for w in sorted(graph.neighbors(u)))

    return g


# ---------------------------------------------------------------------------
# General stateless protocols

@dataclass(frozen=True)
class GeneralProtocol:
    """A pairwise rewrite rule confined to distance 2 from the interacting
    pair. ``rewrite`` returns the delta plus a round annotation used by
    progress accounting. As ``RunConfig.potential`` it runs in
    :func:`abdyn.engine.run` with the goal ``stop`` (verdict ``target``),
    ``random.Random(seed)`` handed to every rewrite, and, with
    ``progress_check``, every round tagged (see :func:`run_general`)."""

    name: str
    rewrite: Callable[[DynGraph, int, int, random.Random], tuple[EdgeDelta, dict]]
    stop: Optional[Callable[[DynGraph], bool]] = None
    seed: int = 0
    progress_check: bool = False


def star_predicate(g: DynGraph) -> bool:
    """One center of degree n-1, everything else a leaf."""
    if g.n < 2:
        return True
    if g.m != g.n - 1:
        return False
    if g.n == 2:
        return True
    centers = 0
    for u in range(g.n):
        d = g.degree(u)
        if d == g.n - 1:
            centers += 1
        elif d != 1:
            return False
    return centers == 1


def star_protocol(seed: int) -> GeneralProtocol:
    """Degree-greedy absorption toward a spanning star.

    On an interaction (u, v), with degrees counted ignoring the mutual edge:
    the higher-degree side absorbs the other's remaining edges and keeps the
    mutual edge, making the loser a leaf. Ties of degree other than 1 are
    broken by fair coins (lower node id tosses first); an equal toss leaves
    the round without effect. When both sides have exactly one other
    neighbor, the comparison escalates to those neighbors; the winner there
    collects both former partners plus the loser itself, and the mutual
    (u, v) edge is dropped, leaving the winner the root of a small star.
    The coins come from the ``rng`` a run seeds with the protocol's ``seed``.
    """
    def coin_winner(a: int, b: int, rng: random.Random) -> int | None:
        """Lower id tosses first; unequal tosses pick the node showing heads."""
        a, b = norm_pair(a, b)
        ca = rng.random() < 0.5
        cb = rng.random() < 0.5
        if ca == cb:
            return None
        return a if ca else b

    def rewrite(g: DynGraph, u: int, v: int, rng: random.Random) -> tuple[EdgeDelta, dict]:
        had_uv = g.has_edge(u, v)
        nu = g.neighbors(u) - {v}
        nv = g.neighbors(v) - {u}
        du, dv = len(nu), len(nv)
        additions: set = set()
        removals: set = set()

        def move_all(winner: int, loser: int) -> None:
            # loser keeps (or gains) only its edge to the winner
            for w in list(g.neighbors(loser)):
                if w == winner:
                    continue
                removals.add(norm_pair(loser, w))
                if not g.has_edge(winner, w):
                    additions.add(norm_pair(winner, w))
            if not g.has_edge(winner, loser):
                additions.add(norm_pair(winner, loser))

        def tie() -> tuple[EdgeDelta, dict]:
            return EdgeDelta.build((), ()), {"tie": True, "leaves": []}

        if du != dv:
            winner, loser = (u, v) if du > dv else (v, u)
            move_all(winner, loser)
            leaves = [loser]
        elif du != 1:
            winner = coin_winner(u, v, rng)
            if winner is None:
                return tie()
            loser = v if winner == u else u
            move_all(winner, loser)
            leaves = [loser]
        else:
            x = next(iter(nu))
            y = next(iter(nv))
            if x == y:
                # both hang off the same hub: a self-comparison, so nothing to
                # decide; the mutual edge is not kept
                if not had_uv:
                    return tie()
                removals.add(norm_pair(u, v))
                leaves = [u, v]
            else:
                dx = len(g.neighbors(x) - {y})
                dy = len(g.neighbors(y) - {x})
                if dx != dy:
                    winner, loser = (x, y) if dx > dy else (y, x)
                else:
                    winner = coin_winner(x, y, rng)
                    if winner is None:
                        return tie()
                    loser = y if winner == x else x
                move_all(winner, loser)
                if had_uv:
                    removals.add(norm_pair(u, v))
                leaves = sorted({loser, u, v} - {winner})
        return EdgeDelta.build(additions, removals), {"tie": False, "leaves": leaves}

    return GeneralProtocol(name="star", rewrite=rewrite, seed=seed)


def run_general(g0: DynGraph, protocol: GeneralProtocol, scheduler: Scheduler,
                budget: int, seed: Optional[int] = None,
                stop_predicate: Optional[Callable[[DynGraph], bool]] = None,
                progress_check: Optional[bool] = None) -> RunTrace:
    """Run a general rewrite protocol under a singleton-interaction scheduler.

    Stops with verdict ``target`` when ``stop_predicate`` holds, or ``budget``
    when exhausted. Each rewrite is validated against the distance-2
    confinement contract. With ``progress_check`` every round is classified
    as component-merge, leaf-settling or tie and the classification is
    verified; the per-round tags are stored in the trace metadata. Only the
    rounds that change the graph are recorded. An argument left at None keeps
    the protocol's own ``seed``, ``stop`` or ``progress_check``.
    """
    given = {"seed": seed, "stop": stop_predicate, "progress_check": progress_check}
    rule = replace(protocol, **{k: x for k, x in given.items() if x is not None})
    return run(RunConfig(graph=g0, potential=rule, scheduler=scheduler, max_rounds=budget,
                         record_rounds="changes"))


class RewriteStepper:
    """One round of a :class:`GeneralProtocol`: the scheduler's single pair
    is rewritten, the rewrite checked against the confinement contract and
    applied, and with ``progress_check`` the round tagged in ``tags``.

    A round's checks cost about as much as the rewrite's neighbourhood. The
    confinement test reads the radius-1 ball N1 of (u, v): a node is within
    distance 2 iff it is in N1 or has a neighbour there, so the test costs
    O(deg u + deg v + |delta| * min degree). The component count changes
    only in components that hold an endpoint of the delta; they are counted
    before and after it by a breadth-first search from those endpoints
    (``_touched_components``). An empty delta is not counted. In a
    connected graph the count before is 1 without a search, and so is the
    count after when every endpoint is the hub of the additions or adjacent
    to it (``_touched_after``).
    """

    def __init__(self, g: DynGraph, protocol: GeneralProtocol, scheduler: Scheduler):
        self.g = g
        self.protocol = protocol
        self.scheduler = scheduler
        self.rng = random.Random(protocol.seed)
        self.tags: list[str] = []
        self.components = (_touched_components(g, range(g.n))
                           if protocol.progress_check else 0)

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        g = self.g
        inter = self.scheduler.interactions(t, g)
        if len(inter) != 1:
            raise ConfigError(
                f"general protocols need singleton interactions, got {len(inter)} in round {t}")
        inter.validate(g.n)
        u, v = next(iter(inter))
        delta, info = self.protocol.rewrite(g, u, v, self.rng)
        pairs = delta.additions + delta.removals
        if pairs:
            near = ball_nodes(g, u, v, 1)
            for a, b in pairs:
                if not (_near(g, a, near) or _near(g, b, near)):
                    raise ContractError(
                        f"rewrite touched pair ({a},{b}) outside distance 2 of ({u},{v})")
        progress = self.protocol.progress_check
        if progress and pairs:
            ends = {x for pair in pairs for x in pair}
            # a connected graph holds every endpoint in its one component
            before = 1 if self.components == 1 else _touched_components(g, ends)
        g.apply_delta(delta)
        if progress:
            count = self.components
            if pairs:
                count += _touched_after(g, delta, ends) - before
            if count < self.components:
                tag = "merge"
            elif info.get("tie"):
                if pairs:
                    raise ContractError(f"tie round {t} changed the graph")
                tag = "tie"
            else:
                for leaf in info.get("leaves", []):
                    if g.degree(leaf) != 1:
                        raise ContractError(
                            f"round {t}: node {leaf} should have settled as a leaf, "
                            f"degree {g.degree(leaf)}")
                tag = "leaf"
            self.tags.append(tag)
            self.components = count
        return delta, 1


def _touched_after(g: DynGraph, delta: EdgeDelta, ends: set[int]) -> int:
    """Number of components that hold a node of ``ends``, the endpoints of
    the applied ``delta``. If every endpoint is the hub (the endpoint of the
    most additions) or adjacent to it, that is 1 at O(|delta|) cost;
    otherwise ``_touched_components`` counts."""
    hits = Counter(chain.from_iterable(delta.additions))
    if hits:
        hub = max(hits, key=hits.__getitem__)
        nbrs = g.neighbors(hub)
        if all(x == hub or x in nbrs for x in ends):
            return 1
    return _touched_components(g, ends)


def _near(g: DynGraph, x: int, ball: set[int]) -> bool:
    """Whether x lies in ``ball`` or has a neighbour there in g; an id
    outside the graph has neither."""
    return x in ball or (0 <= x < g.n and not g.neighbors(x).isdisjoint(ball))


def _touched_components(g: DynGraph, nodes: Iterable[int]) -> int:
    """Number of connected components of g that hold a node of ``nodes``.

    A breadth-first search starts at a node not yet reached and counts one
    component; the count is final as soon as every node has been reached.
    Ids outside the graph lie in no component.
    """
    n, row = g.n, g.neighbors
    left = {x for x in nodes if 0 <= x < n}
    count = 0
    while left:
        count += 1
        start = left.pop()
        seen = {start}
        queue = deque((start,))
        while left and queue:
            for y in row(queue.popleft()):
                if y not in seen:
                    seen.add(y)
                    left.discard(y)
                    queue.append(y)
    return count
