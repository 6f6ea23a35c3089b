"""Catalog of pair potentials behind one uniform pure-function interface.

A potential maps a node pair plus the induced ball around it to a real value,
which the engine compares against the thresholds: below ``alpha`` the edge is
dropped, in ``[alpha, beta)`` it is kept as is, at or above ``beta`` it is
created. Each rule has exactly one evaluator, which reads the live graph.
Locality is a contract, not a restriction the evaluator runs under: the value
of a pair must depend only on the edges among the nodes within the declared
radius of the pair (plus static per-node attributes). The tests check it for
every catalog potential by evaluating on the graph that keeps only the edges
of that ball.

The degree and degree-like rules also certify their ``node_form`` (f, h):
the value of (u, v) is f(h(u), h(v)) and h reads only the node's closed
neighbourhood. The evaluator is built from that pair, and the engine's
``auto`` route decides such a rule from one h per node instead of calling
the evaluator pair by pair.

All potentials here are integer-valued on integer inputs; tests pin exact
equality so no tolerance questions arise in threshold comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, ball_nodes, induced_ball

ProperFunction = Callable[[float, float], float]
# Degree-like node functions receive (graph, node); they must depend only on
# the node's closed neighborhood plus static per-node attributes.
DegreeLikeFunction = Callable[[DynGraph, int], float]


@dataclass(frozen=True)
class PairStatsRule:
    """Decision procedure for potentials that depend only on the pair's edge
    state, common neighbor count and common neighbor edge count.

    ``decide`` returns the next edge state (0/1) given the current state, the
    common neighbor count and a zero-argument callable producing the common
    neighbor edge count (evaluated lazily since it is rarely needed).

    ``cn_floor`` is a pruning certificate: whenever the common neighbor count
    of a pair is below it, ``decide`` is guaranteed to return the current
    state, so the pair can be skipped without evaluation. It must be at least
    1: the fast routes only ever visit pairs with a common neighbor.
    """

    decide: Callable[[int, int, Callable[[], int]], int]
    cn_floor: int

    def __post_init__(self):
        if self.cn_floor < 1:
            raise ConfigError(f"cn_floor must be at least 1, got {self.cn_floor}")

    def certify(self) -> None:
        """Check the floor exhaustively: below it, ``decide`` keeps both edge
        states without consulting the common neighbor edges, also when it
        would catch the refusal of the supplier it is given."""
        asked = []

        def _no_ce() -> int:
            asked.append(True)
            raise ContractError("decision below the floor consulted common neighbor edges")

        for cn in range(self.cn_floor):
            if self.decide(0, cn, _no_ce) != 0 or self.decide(1, cn, _no_ce) != 1:
                raise ContractError(
                    f"cn_floor certificate violated at cn={cn}: decision changes state")
            if asked:
                raise ContractError(
                    f"cn_floor certificate violated at cn={cn}: decision below the floor "
                    f"consulted common neighbor edges")


@dataclass(frozen=True)
class Potential:
    """A local threshold rule with its thresholds and locality radius."""

    name: str
    alpha: float
    beta: float
    evaluator: Callable[[DynGraph, int, int], float]
    radius: int = 1
    pair_stats: Optional[PairStatsRule] = None
    merged_base: Optional["Potential"] = None
    params: dict = field(default_factory=dict)
    # Certificate (f, h): the value of (u, v) is f(h(g, u), h(g, v)) for a
    # proper f and a degree-like h, which reads only the node's closed
    # neighbourhood (plus static per-node attributes). A value then changes
    # only in a round that toggles an edge at u or v, and ``auto`` decides
    # from one h per node. The engine's active-pair route relies on it and
    # raises ContractError when a run contradicts it.
    node_form: Optional[tuple[ProperFunction, DegreeLikeFunction]] = None

    def __post_init__(self):
        if self.alpha > self.beta:
            raise ConfigError(f"alpha={self.alpha} exceeds beta={self.beta}")

    def value(self, g: DynGraph, u: int, v: int) -> float:
        return self.evaluator(g, u, v)

    def next_state(self, value: float, edge: bool) -> bool:
        if value < self.alpha:
            return False
        if value >= self.beta:
            return True
        return edge


# ---------------------------------------------------------------------------
# Property validation for user-supplied functions

def validate_proper(f: ProperFunction, samples: int = 1000, seed: int = 0,
                    grid_max: int = 14) -> None:
    """Randomized check that f is symmetric and non-decreasing in both
    arguments on an integer grid. Raises ConfigError with the violating
    sample on failure.
    """
    rng = random.Random(seed)
    for _ in range(samples):
        x = rng.randint(0, grid_max)
        y = rng.randint(0, grid_max)
        if f(x, y) != f(y, x):
            raise ConfigError(f"function not symmetric at ({x},{y}): "
                              f"f(x,y)={f(x, y)} f(y,x)={f(y, x)}")
        if f(x + 1, y) < f(x, y):
            raise ConfigError(f"function decreasing in first argument at ({x},{y})")
        if f(x, y + 1) < f(x, y):
            raise ConfigError(f"function decreasing in second argument at ({x},{y})")


def validate_degree_like(g_fn: DegreeLikeFunction, samples: int = 200, seed: int = 0,
                         max_nodes: int = 10) -> None:
    """Sampled check that the node function never grows when the node's
    neighborhood shrinks, and orders nodes consistently with closed
    neighborhood inclusion.

    ``max_nodes`` bounds the sampled graphs; functions backed by per-node
    attributes are only defined up to their attribute table's size.
    """
    if max_nodes < 2:
        raise ConfigError("degree-like validation needs at least 2 nodes")
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(2, max_nodes)
        g = DynGraph(n)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    g.add_edge(a, b)
        tol = 1e-9  # comparisons tolerate float summation noise
        u = rng.randrange(n)
        try:
            before = g_fn(g, u)
        except Exception as exc:
            raise ConfigError(
                f"node function failed on a {n}-node validation graph: {exc}") from exc
        nbrs = list(g.neighbors(u))
        for w in nbrs:
            if rng.random() < 0.5:
                g.remove_edge(u, w)
        after = g_fn(g, u)
        if after > before + tol:
            raise ConfigError(
                f"function grew when node {u}'s neighborhood shrank: {before} -> {after}")
        # closed-neighborhood inclusion between two nodes of the same graph
        for v in range(n):
            if v == u:
                continue
            closed_u = set(g.neighbors(u)) | {u}
            closed_v = set(g.neighbors(v)) | {v}
            if closed_u >= closed_v and g_fn(g, u) < g_fn(g, v) - tol:
                raise ConfigError(
                    f"inclusion violated: node {u} covers node {v} but "
                    f"g({u})={g_fn(g, u)} < g({v})={g_fn(g, v)}")


PROPER_FUNCTIONS: dict[str, ProperFunction] = {
    "sum": lambda x, y: x + y,
    "min": min,
    "max": max,
    "product": lambda x, y: x * y,
}


def _needs_validation(f: ProperFunction) -> bool:
    """The catalog functions are proper by inspection (the tests check them
    once); any other function is sampled on every construction."""
    return not any(f is c for c in PROPER_FUNCTIONS.values())


# ---------------------------------------------------------------------------
# Degree based potentials

def degree(g: DynGraph, u: int) -> int:
    """The degree of u: the node function of every degree potential."""
    return len(g._adj[u])


def _node_form_potential(name: str, f: ProperFunction, h: DegreeLikeFunction,
                         alpha: float, beta: float, params: dict) -> Potential:
    """Potential f(h(u), h(v)), certified by its ``node_form``; the evaluator
    is built from the same pair, so the rule has one definition."""
    return Potential(
        name=name,
        alpha=alpha,
        beta=beta,
        evaluator=lambda g, u, v: f(h(g, u), h(g, v)),
        params=params,
        node_form=(f, h),
    )


def min_degree_potential(alpha: float, beta: float) -> Potential:
    """Potential equal to the smaller endpoint degree.

    The isolated-core guarantee holds when alpha <= n-1 < beta, which makes
    edge creation impossible; the constructor itself only requires
    alpha <= beta.
    """
    return _node_form_potential("min_degree", min, degree, alpha, beta,
                                {"alpha": alpha, "beta": beta})


def proper_degree_potential(f: ProperFunction, alpha: float, beta: float,
                            name: str = "proper_degree", validate: bool = True) -> Potential:
    """Potential f(d(u), d(v)) for a symmetric, non-decreasing f."""
    if validate and _needs_validation(f):
        validate_proper(f)
    return _node_form_potential(name, f, degree, alpha, beta,
                                {"alpha": alpha, "beta": beta, "f": name})


def degree_like_potential(f: ProperFunction, g_fn: DegreeLikeFunction,
                          alpha: float, beta: float,
                          name: str = "degree_like", validate: bool = True,
                          validate_nodes: int = 10) -> Potential:
    """Potential f(g(u), g(v)) for a proper f and a degree-like node function.

    Its ``node_form`` is (f, g_fn), sound by the :data:`DegreeLikeFunction`
    contract: g(u) depends only on u's closed neighbourhood and static
    attributes.
    ``validate_nodes`` caps the node count of the sampled validation graphs;
    pass the attribute table size for attribute-backed node functions.
    """
    if validate:
        if _needs_validation(f):
            validate_proper(f)
        validate_degree_like(g_fn, max_nodes=min(10, validate_nodes))
    return _node_form_potential(name, f, g_fn, alpha, beta, {"alpha": alpha, "beta": beta})


def community_potential(alpha: float, beta: float) -> Potential:
    """Common neighbors plus the edge indicator plus edges among the common
    neighbors; rewards locally dense pairs."""

    def _eval(g: DynGraph, u: int, v: int) -> float:
        return (g.common_neighbors(u, v) + (1 if g.has_edge(u, v) else 0)
                + g.common_neighbor_edges(u, v))

    return Potential(name="community", alpha=alpha, beta=beta, evaluator=_eval,
                     params={"alpha": alpha, "beta": beta})


# ---------------------------------------------------------------------------
# The cellular automaton potential

def rule110_value(beta: float, edge: int, cn: int, ce_fn: Callable[[], int]) -> float:
    """Branch cascade of the automaton rule, shared by its evaluator and its
    pair-statistics decision."""
    load = cn + edge
    if 66 <= load <= 70:
        return beta + 60 + ce_fn() - cn
    if load == 71:
        return beta + 12 - ce_fn()
    if 40 <= cn <= 41:
        return beta - edge
    return beta - 1 + edge


def rule110_potential(beta: float) -> Potential:
    """Threshold rule that drives the cell-gadget automaton; requires
    alpha == beta, so every scheduled pair is re-decided each round."""

    def _eval(g: DynGraph, u: int, v: int) -> float:
        return rule110_value(beta, 1 if g.has_edge(u, v) else 0,
                             g.common_neighbors(u, v),
                             lambda: g.common_neighbor_edges(u, v))

    def _decide(edge: int, cn: int, ce_fn: Callable[[], int]) -> int:
        return 0 if rule110_value(beta, edge, cn, ce_fn) < beta else 1

    return Potential(
        name="rule110",
        alpha=beta,
        beta=beta,
        evaluator=_eval,
        pair_stats=PairStatsRule(decide=_decide, cn_floor=40),
        params={"beta": beta},
    )


# ---------------------------------------------------------------------------
# Two rounds in one

def two_step_merge(base: Potential) -> Potential:
    """Radius-3 potential that advances the pair's neighborhood one round of
    the base rule and evaluates the base rule on the result.

    The construction per evaluated pair (u, v):
      a. take the nodes within distance 2 of the pair,
      b. re-decide every pair among them one round forward under the base
         rule, using information within distance 3,
      c. evaluate the base rule on (u, v) in that advanced fragment.

    With a full interaction set one merged round reproduces two base rounds
    when the base meets two conditions, which the constructor enforces:

    * it has radius 1 and pair statistics (:class:`PairStatsRule`, whose
      floor is at least 1), so a pair without a common neighbor keeps its
      state. Every edge a round creates then joins two nodes at distance 2,
      and the advanced neighborhood of (u, v) lies in the fragment. A degree
      rule, for one, can create edges between distant nodes;
    * ``alpha == beta``. The engine applies the merged value to the pair's
      pre-round edge state, so a value in a keep band ``[alpha, beta)`` would
      keep that state instead of the state after the first round.

    The evaluator rebuilds the fragment for every pair, so it is only
    practical on small graphs; large runs go through the engine's
    incremental route.
    """
    if base.radius != 1 or base.pair_stats is None or base.alpha != base.beta:
        raise ConfigError(
            f"two_step_merge requires a radius-1 base with pair statistics and "
            f"alpha == beta; {base.name} has radius {base.radius}, "
            f"pair statistics {base.pair_stats is not None}, "
            f"alpha={base.alpha}, beta={base.beta}")

    def _eval(g: DynGraph, u: int, v: int) -> float:
        frag, nodes = induced_ball(g, u, v, 3)
        fu, fv = nodes.index(u), nodes.index(v)
        # fragment distances match the live graph up to the ball radius
        core = sorted(ball_nodes(frag, fu, fv, 2))
        additions = []
        removals = []
        for i, x in enumerate(core):
            for y in core[i + 1:]:
                edge = y in frag._adj[x]
                nxt = base.next_state(base.evaluator(frag, x, y), edge)
                if nxt and not edge:
                    additions.append((x, y))
                elif edge and not nxt:
                    removals.append((x, y))
        frag.apply_delta(EdgeDelta.build(additions, removals))
        return base.evaluator(frag, fu, fv)

    return Potential(
        name=f"{base.name}_merged",
        alpha=base.alpha,
        beta=base.beta,
        radius=3,
        evaluator=_eval,
        merged_base=base,
        params=dict(base.params),
    )


# ---------------------------------------------------------------------------
# Name registry used by the run config

def make_potential(name: str, alpha: float, beta: float, f: str | None = None,
                   profile=None) -> Potential:
    if name == "min_degree":
        return min_degree_potential(alpha, beta)
    if name == "proper_degree":
        if f not in PROPER_FUNCTIONS:
            raise ConfigError(f"potential.f must be one of {sorted(PROPER_FUNCTIONS)}, got {f!r}")
        return proper_degree_potential(PROPER_FUNCTIONS[f], alpha, beta, name=f"proper_{f}")
    if name == "degree_like_niceness":
        if profile is None:
            raise ConfigError("degree_like_niceness requires a social profile")
        from .social import niceness_g
        fn = PROPER_FUNCTIONS[f] if f else PROPER_FUNCTIONS["sum"]
        return degree_like_potential(fn, niceness_g(profile), alpha, beta,
                                     name="niceness", validate_nodes=profile.n)
    if name == "community":
        return community_potential(alpha, beta)
    if name == "rule110":
        if alpha != beta:
            raise ConfigError("rule110 potential requires alpha == beta")
        return rule110_potential(beta)
    if name == "rule110_merged":
        if alpha != beta:
            raise ConfigError("rule110 potential requires alpha == beta")
        return two_step_merge(rule110_potential(beta))
    raise ConfigError(f"unknown potential {name!r}")
