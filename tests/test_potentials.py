import random

import pytest

from abdyn.engine import RunConfig, run
from abdyn.errors import ConfigError
from abdyn.graph import DynGraph, induced_ball
from abdyn.potentials import (PROPER_FUNCTIONS, PairStatsRule, Potential,
                              community_potential, degree_like_potential,
                              make_potential, min_degree_potential,
                              proper_degree_potential, rule110_potential,
                              rule110_value, two_step_merge,
                              validate_degree_like, validate_proper)
from abdyn.schedulers import CompleteScheduler
from abdyn.social import niceness_g, random_profile

from conftest import random_graph, triangle


def cycle_graph(n):
    return DynGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def blinker_fragment(edge_on: bool) -> DynGraph:
    """Two 22-cliques sharing the special pair (0, 1), special edge open."""
    g = DynGraph(42)
    for half in (range(2, 22), range(22, 42)):
        nodes = [0, 1] + list(half)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if {a, b} != {0, 1}:
                    g.add_edge(a, b)
    if edge_on:
        g.add_edge(0, 1)
    return g


# ---------------------------------------------------------------------------
# catalog values

def test_min_degree_examples():
    pot = min_degree_potential(2, 4)
    p3 = DynGraph.from_edges(3, [(0, 1), (1, 2)])
    assert pot.value(p3, 0, 1) == 1
    assert pot.value(triangle(), 0, 1) == 2
    s5 = DynGraph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert pot.value(s5, 0, 1) == 1


def test_proper_degree_examples():
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 4, 4)
    assert pot.value(cycle_graph(4), 0, 1) == 4
    prod = proper_degree_potential(PROPER_FUNCTIONS["product"], 0, 100)
    k4 = random_graph(4, 1.1, 0)
    assert prod.value(k4, 0, 1) == 9


@pytest.mark.parametrize("seed", range(4))
def test_min_f_reproduces_min_degree(seed):
    g = random_graph(10, 0.4, seed)
    a = min_degree_potential(2, 50)
    b = proper_degree_potential(PROPER_FUNCTIONS["min"], 2, 50)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert a.value(g, u, v) == b.value(g, u, v)


def test_community_examples():
    pot = community_potential(0, 100)
    k4 = random_graph(4, 1.1, 0)
    assert pot.value(k4, 0, 1) == 2 + 1 + 1
    iso = DynGraph(2)
    assert pot.value(iso, 0, 1) == 0
    assert pot.value(cycle_graph(5), 0, 1) == 0 + 1 + 0


@pytest.mark.parametrize("seed", range(3))
def test_degree_like_with_plain_degree_collapses(seed):
    g = random_graph(10, 0.4, seed)
    plain = degree_like_potential(PROPER_FUNCTIONS["sum"],
                                  lambda g, u: g.degree(u), 3, 9)
    direct = proper_degree_potential(PROPER_FUNCTIONS["sum"], 3, 9)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert plain.value(g, u, v) == direct.value(g, u, v)


def test_degree_like_examples():
    g_plus_one = lambda g, u: g.degree(u) + 1
    pot = degree_like_potential(PROPER_FUNCTIONS["sum"], g_plus_one, 0, 100)
    iso = DynGraph(2)
    assert pot.value(iso, 0, 1) == 2
    zero = degree_like_potential(PROPER_FUNCTIONS["sum"], lambda g, u: 0.0,
                                 0, 100)
    assert zero.value(random_graph(6, 0.5, 1), 0, 1) == 0


@pytest.mark.parametrize("name", sorted(PROPER_FUNCTIONS))
def test_symmetry_property(name):
    rng = random.Random(9)
    pot = proper_degree_potential(PROPER_FUNCTIONS[name], 0, 100, name=name)
    com = community_potential(0, 100)
    r110 = rule110_potential(100)
    for seed in range(3):
        g = random_graph(9, 0.5, seed)
        for _ in range(20):
            u, v = rng.sample(range(g.n), 2)
            assert pot.value(g, u, v) == pot.value(g, v, u)
            assert com.value(g, u, v) == com.value(g, v, u)
            assert r110.value(g, u, v) == r110.value(g, v, u)


def test_threshold_order_enforced():
    with pytest.raises(ConfigError):
        min_degree_potential(5, 3)


@pytest.mark.parametrize("name", sorted(PROPER_FUNCTIONS))
def test_higher_degree_dominates_potential(name):
    # non-decreasing f orders potentials consistently with degrees
    rng = random.Random(31)
    pot = proper_degree_potential(PROPER_FUNCTIONS[name], 0, 100, name=name)
    for seed in range(4):
        g = random_graph(11, 0.45, seed)
        for _ in range(30):
            u, w, x = rng.sample(range(g.n), 3)
            if g.degree(u) >= g.degree(w):
                assert pot.value(g, u, x) >= pot.value(g, w, x)


def test_validate_proper_rejects_bad_functions():
    with pytest.raises(ConfigError, match="symmetric"):
        validate_proper(lambda x, y: x - y)
    with pytest.raises(ConfigError, match="decreasing"):
        validate_proper(lambda x, y: -(x + y))


def test_validate_degree_like_rejects_shrink_growth():
    bad = lambda g, u: -len(g.neighbors(u))
    with pytest.raises(ConfigError):
        validate_degree_like(bad)


# ---------------------------------------------------------------------------
# automaton potential

def test_rule110_value_examples():
    beta = 100
    assert rule110_value(beta, 0, 70, lambda: 8) == beta - 2
    assert rule110_value(beta, 1, 40, lambda: 0) == beta - 1
    assert rule110_value(beta, 1, 20, lambda: 0) == beta


def test_rule110_blinker_fragment_flips():
    pot = rule110_potential(100)
    g = blinker_fragment(edge_on=True)
    assert g.common_neighbors(0, 1) == 40
    assert pot.value(g, 0, 1) == 99  # below beta: edge goes
    g2 = blinker_fragment(edge_on=False)
    assert pot.value(g2, 0, 1) == 100  # at beta: edge comes back


def test_rule110_branches_total_and_disjoint():
    rng = random.Random(4)
    for _ in range(4000):
        cn = rng.randrange(0, 90)
        e = rng.randrange(0, 2)
        b1 = 66 <= cn + e <= 70
        b2 = cn + e == 71
        b3 = 40 <= cn <= 41
        b4 = not (b1 or b2 or b3)
        assert sum([b1, b2, b3, b4]) == 1
        rule110_value(100, e, cn, lambda: 0)  # total: never raises


def test_rule110_requires_equal_thresholds_via_registry():
    with pytest.raises(ConfigError):
        make_potential("rule110", alpha=3, beta=5)
    pot = make_potential("rule110", alpha=7, beta=7)
    assert pot.alpha == pot.beta == 7


def test_registry_unknown_name():
    with pytest.raises(ConfigError):
        make_potential("nope", 0, 1)


# ---------------------------------------------------------------------------
# two-round merge

def test_merge_requires_radius_one():
    base = rule110_potential(50)
    merged = two_step_merge(base)
    assert merged.radius == 3
    with pytest.raises(ConfigError):
        two_step_merge(merged)


def triadic_potential(alpha, beta):
    """Pair-statistics rule with floor 1: without a common neighbor a pair
    keeps its state, otherwise cn + ce + edge modulo 3 picks the value."""
    def _value(edge, cn, ce_fn):
        if cn == 0:
            return beta - 1 + edge
        return beta - 1 + (cn + ce_fn() + edge) % 3

    def _eval(g, u, v):
        return _value(1 if g.has_edge(u, v) else 0, g.common_neighbors(u, v),
                      lambda: g.common_neighbor_edges(u, v))

    def _decide(edge, cn, ce_fn):
        return 1 if _value(edge, cn, ce_fn) >= beta else 0

    return Potential(name="triadic", alpha=alpha, beta=beta, evaluator=_eval,
                     pair_stats=PairStatsRule(decide=_decide, cn_floor=1))


def test_merge_rejects_constant_base():
    # a constant rule has no pair statistics, and a degree rule creates edges
    # between distant nodes, so neither merges into a radius-3 rule
    const = Potential(name="const", alpha=0, beta=5, evaluator=lambda g, u, v: 5.0)
    degree_sum = proper_degree_potential(PROPER_FUNCTIONS["sum"], 6, 6)
    for base in (const, degree_sum):
        with pytest.raises(ConfigError, match="pair statistics"):
            two_step_merge(base)
    # a keep band would keep the pre-round state instead of the advanced one
    with pytest.raises(ConfigError, match="alpha == beta"):
        two_step_merge(triadic_potential(3, 4))


@pytest.mark.parametrize("floor", [0, -1])
def test_pair_stats_floor_must_be_positive(floor):
    # the fast routes only visit pairs with a common neighbor, so a floor of 0
    # would let them skip pairs that a naive round changes
    with pytest.raises(ConfigError, match="cn_floor"):
        PairStatsRule(decide=lambda edge, cn, ce_fn: 1 - edge, cn_floor=floor)


def _advance(g, potential, rounds):
    trace = run(RunConfig(graph=g, potential=potential,
                          scheduler=CompleteScheduler(), max_rounds=rounds,
                          stop_mode="budget", engine="naive"))
    return trace.final_graph


@pytest.mark.parametrize("seed", range(6))
def test_merged_equals_two_rounds_random(seed):
    base = triadic_potential(4, 4)
    merged = two_step_merge(base)
    g = random_graph(30, (0.05, 0.07, 0.09)[seed % 3], seed)
    # sparse enough that radius-3 balls leave part of the graph out
    assert any(len(induced_ball(g, u, v, 3)[1]) < g.n
               for u in range(g.n) for v in range(u + 1, g.n))
    one = _advance(g.copy(), merged, 1)
    two = _advance(g.copy(), base, 2)
    assert one == two
    assert two != g


def test_merged_equals_two_rounds_blinker():
    base = rule110_potential(100)
    merged = two_step_merge(base)
    g = blinker_fragment(edge_on=True)
    one = _advance(g.copy(), merged, 1)
    two = _advance(g.copy(), base, 2)
    assert one == two == g  # the special edge toggles twice and returns
    half = _advance(g.copy(), base, 1)
    assert not half.has_edge(0, 1)


# ---------------------------------------------------------------------------
# locality: a pair's value depends only on the edges of its radius ball

def ball_only(g, u, v, radius):
    """The graph on the same node ids that keeps only the edges among the
    nodes within ``radius`` of u or v, and the size of that ball."""
    ball = {u, v}
    frontier = {u, v}
    for _ in range(radius):
        frontier = {y for x in frontier for y in g.neighbors(x)} - ball
        ball |= frontier
    kept = [(a, b) for a, b in g.edges() if a in ball and b in ball]
    return DynGraph.from_edges(g.n, kept), len(ball)


def clusters_with_tail(size, seed):
    """A dense cluster of ``size`` nodes, a 6-node path leaving it, and a
    second dense cluster of 24 nodes at the path's end."""
    rng = random.Random(seed)
    g = DynGraph(size + 6 + 24)
    for block in (range(size), range(size + 6, g.n)):
        for a in block:
            for b in block:
                if a < b and rng.random() < 0.95:
                    g.add_edge(a, b)
    for x in range(size - 1, size + 6):
        g.add_edge(x, x + 1)
    return g


def assert_local(pot, g, pairs):
    strict = 0
    for u, v in pairs:
        restricted, ball = ball_only(g, u, v, pot.radius)
        assert pot.value(g, u, v) == pot.value(restricted, u, v), (pot.name, u, v)
        strict += ball < g.n
    assert strict, f"{pot.name}: every ball covered the whole graph"


@pytest.mark.parametrize("seed", range(5))
def test_catalog_potentials_are_local(seed):
    rng = random.Random(seed)
    sparse = random_graph(30, 0.12, seed)
    sparse_pairs = [tuple(rng.sample(range(sparse.n), 2)) for _ in range(40)]
    profile = random_profile(sparse.n, seed)
    catalog = [min_degree_potential(0, 100), community_potential(0, 100),
               degree_like_potential(PROPER_FUNCTIONS["sum"], niceness_g(profile), 0, 100,
                                     name="niceness", validate_nodes=profile.n)]
    catalog += [proper_degree_potential(f, 0, 100, name=name)
                for name, f in PROPER_FUNCTIONS.items()]
    for pot in catalog:
        assert_local(pot, sparse, sparse_pairs)

    # rule-110 branches need 40 to 71 common neighbors
    size = 44 + 9 * seed
    dense = clusters_with_tail(size, seed)
    dense_pairs = [tuple(rng.sample(range(size), 2)) for _ in range(30)]
    dense_pairs += [(size - 1, size), (size + 2, size + 3), (size + 5, size + 7)]
    assert_local(rule110_potential(100), dense, dense_pairs)
    assert_local(two_step_merge(rule110_potential(100)), dense,
                 [dense_pairs[0], (size - 2, size), (size + 1, size + 3)])
