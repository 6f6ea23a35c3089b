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
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import RoundRecord, RunTrace, Verdict
from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, ball_nodes, edge_token, graph_fingerprint, norm_pair
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
        for u, v in self.enemies:
            if u == v:
                raise ConfigError("a node cannot be its own enemy")
            if not (0 <= u < len(self.niceness) and 0 <= v < len(self.niceness)):
                raise ConfigError(f"enemy pair ({u},{v}) out of range")

    @property
    def n(self) -> int:
        return len(self.niceness)

    def are_enemies(self, u: int, v: int) -> bool:
        return norm_pair(u, v) in self.enemies


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
    progress accounting."""

    name: str
    rewrite: Callable[[DynGraph, int, int, random.Random], tuple[EdgeDelta, dict]]


def star_predicate(g: DynGraph) -> bool:
    """One center of degree n-1, everything else a leaf."""
    if g.n < 2:
        return True
    if g.n == 2:
        return g.m == 1
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
    """
    coin_rng = random.Random(seed)

    def coin_winner(a: int, b: int) -> int | None:
        """Lower id tosses first; unequal tosses pick the node showing heads."""
        a, b = norm_pair(a, b)
        ca = coin_rng.random() < 0.5
        cb = coin_rng.random() < 0.5
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
            winner = coin_winner(u, v)
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
                    winner = coin_winner(x, y)
                    if winner is None:
                        return tie()
                    loser = y if winner == x else x
                move_all(winner, loser)
                if had_uv:
                    removals.add(norm_pair(u, v))
                leaves = sorted({loser, u, v} - {winner})
        return EdgeDelta.build(additions, removals), {"tie": False, "leaves": leaves}

    return GeneralProtocol(name="star", rewrite=rewrite)


def run_general(g0: DynGraph, protocol: GeneralProtocol, scheduler: Scheduler,
                budget: int, seed: int = 0,
                stop_predicate: Optional[Callable[[DynGraph], bool]] = None,
                check_confinement: bool = True,
                progress_check: bool = False) -> RunTrace:
    """Run a general rewrite protocol under a singleton-interaction scheduler.

    Stops with verdict ``target`` when ``stop_predicate`` holds, or ``budget``
    when exhausted. Each rewrite is validated against the distance-2
    confinement contract. With ``progress_check`` every round is classified
    as component-merge, leaf-settling or tie and the classification is
    verified; the per-round tags are stored in the trace metadata.
    """
    g = g0.copy()
    scheduler.reset(g)
    rng = random.Random(seed)
    rounds: list[RoundRecord] = []
    changed_rounds: list[int] = []
    tags: list[str] = []
    last_change = None
    fp = graph_fingerprint(g)

    comp_count = _component_count(g) if progress_check else 0

    if stop_predicate is not None and stop_predicate(g):
        return RunTrace(rounds=[], verdict=Verdict("target", 0), seed=seed,
                        metadata={"protocol": protocol.name, "tags": []},
                        final_graph=g, changed_rounds=[], last_change_round=None)

    verdict = Verdict("budget", budget)
    for t in range(budget):
        inter = list(scheduler.interactions(t, g))
        if len(inter) != 1:
            raise ConfigError(
                f"general protocols need singleton interactions, got {len(inter)} in round {t}")
        u, v = inter[0]
        delta, info = protocol.rewrite(g, u, v, rng)
        if check_confinement and not delta.empty:
            allowed = ball_nodes(g, u, v, 2)
            for a, b in delta.additions + delta.removals:
                if a not in allowed and b not in allowed:
                    raise ContractError(
                        f"rewrite touched pair ({a},{b}) outside distance 2 of ({u},{v})")
        g.apply_delta(delta)
        changed = not delta.empty
        for a, b in delta.additions + delta.removals:
            fp ^= edge_token(a, b)
        if changed:
            changed_rounds.append(t)
            last_change = t

        if progress_check:
            new_comp = _component_count(g) if changed else comp_count
            if new_comp < comp_count:
                tag = "merge"
            elif info.get("tie"):
                if changed:
                    raise ContractError(f"tie round {t} changed the graph")
                tag = "tie"
            else:
                for leaf in info.get("leaves", []):
                    if g.degree(leaf) != 1:
                        raise ContractError(
                            f"round {t}: node {leaf} should have settled as a leaf, "
                            f"degree {g.degree(leaf)}")
                tag = "leaf"
            comp_count = new_comp
            tags.append(tag)

        if changed:
            rounds.append(RoundRecord(t, 1, len(delta.additions), len(delta.removals),
                                      0, fp))
        if stop_predicate is not None and changed and stop_predicate(g):
            verdict = Verdict("target", t + 1)
            break

    return RunTrace(rounds=rounds, verdict=verdict, seed=seed,
                    metadata={"protocol": protocol.name, "tags": tags},
                    final_graph=g, changed_rounds=changed_rounds,
                    last_change_round=last_change)


def _component_count(g: DynGraph) -> int:
    seen = [False] * g.n
    count = 0
    for s in range(g.n):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count
