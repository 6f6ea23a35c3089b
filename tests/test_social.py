import random

import pytest

from abdyn.engine import RunConfig, run
from abdyn.errors import ConfigError, ContractError
from abdyn.generators import random_connected
from abdyn.graph import DynGraph, EdgeDelta, graph_fingerprint
from abdyn.potentials import (PROPER_FUNCTIONS, degree_like_potential,
                              validate_degree_like)
from abdyn.schedulers import (FairRoundRobinScheduler, SocialScheduler,
                              UniformRandomScheduler)
from abdyn.social import (GeneralProtocol, SocialProfile, niceness_g,
                          random_profile, run_general, star_predicate,
                          star_protocol)

from conftest import random_graph


def profile_of(niceness, extroversion=None, enemies=()):
    n = len(niceness)
    return SocialProfile(niceness=tuple(niceness),
                         extroversion=tuple(extroversion or [1] * n),
                         enemies=frozenset(enemies))


# ---------------------------------------------------------------------------
# profiles and niceness

def test_profile_validation():
    with pytest.raises(ConfigError):
        profile_of([1.0, -0.5])
    with pytest.raises(ConfigError):
        SocialProfile(niceness=(1.0,), extroversion=(-1,), enemies=frozenset())
    with pytest.raises(ConfigError):
        profile_of([1.0, 1.0], enemies=[(0, 5)])


def test_niceness_examples():
    prof = profile_of([1.0] * 5)
    g = DynGraph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    fn = niceness_g(prof)
    assert fn(g, 0) == 1 + 3
    assert fn(g, 4) == 1
    prof2 = profile_of([3.0, 0.0])
    assert niceness_g(prof2)(DynGraph(2), 0) == 3.0


def test_niceness_is_degree_like():
    prof = random_profile(10, seed=3)
    validate_degree_like(niceness_g(prof), samples=80)


def test_small_profile_validates_within_its_universe():
    from abdyn.potentials import make_potential
    prof = random_profile(4, seed=1)
    pot = make_potential("degree_like_niceness", alpha=1, beta=5, profile=prof)
    assert pot.name == "niceness"


def test_niceness_potential_runs_stabilize_under_fair_scheduler():
    rng = random.Random(2)
    for seed in range(5):
        prof = random_profile(14, seed=seed)
        pot = degree_like_potential(PROPER_FUNCTIONS["sum"], niceness_g(prof),
                                    alpha=rng.uniform(1, 8), beta=rng.uniform(8, 20),
                                    validate=False)
        g = random_graph(14, 0.3, seed)
        trace = run(RunConfig(graph=g, potential=pot,
                              scheduler=FairRoundRobinScheduler(7),
                              max_rounds=100_000))
        assert trace.verdict.kind == "stabilized"


def test_enemy_pairs_never_gain_edges():
    enemies = [(0, 1), (2, 3)]
    prof = profile_of([1.0] * 8, extroversion=[2] * 8, enemies=enemies)
    g = random_graph(8, 0.3, 4)
    for u, v in enemies:
        if g.has_edge(u, v):
            g.remove_edge(u, v)
    pot = degree_like_potential(PROPER_FUNCTIONS["sum"], niceness_g(prof),
                                alpha=1, beta=3, validate=False)
    sched = SocialScheduler(prof, gamma=2)
    trace = run(RunConfig(graph=g, potential=pot, scheduler=sched,
                          max_rounds=10_000))
    for u, v in enemies:
        assert not trace.final_graph.has_edge(u, v)


# ---------------------------------------------------------------------------
# star protocol rewrites

def apply_interaction(g, u, v, seed=0):
    proto = star_protocol(seed)
    delta, info = proto.rewrite(g, u, v, random.Random(0))
    g.apply_delta(delta)
    return delta, info


def test_star_rewrite_path_center_absorbs_nothing():
    g = DynGraph.from_edges(3, [(0, 1), (1, 2)])
    delta, info = apply_interaction(g, 0, 1)
    assert delta.empty
    assert info["leaves"] == [0]
    assert g == DynGraph.from_edges(3, [(0, 1), (1, 2)])


def test_star_rewrite_disjoint_edges_escalates():
    outcomes = set()
    for seed in range(12):
        g = DynGraph.from_edges(4, [(0, 1), (2, 3)])
        delta, info = apply_interaction(g, 0, 2, seed=seed)
        if info["tie"]:
            assert delta.empty
            outcomes.add("tie")
        else:
            center = next(u for u in range(4) if g.degree(u) == 3)
            assert center in (1, 3)  # one former unique neighbor wins
            assert not g.has_edge(0, 2)
            assert star_predicate(g)
            outcomes.add(center)
    assert "tie" in outcomes and len(outcomes) >= 2


def test_star_rewrite_unequal_centers_merge():
    # stars of size 3 and 2 interacting leaf-to-leaf escalate to their hubs
    g = DynGraph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)])
    delta, info = apply_interaction(g, 1, 5)
    assert not info["tie"]
    assert g.degree(0) == 6
    assert star_predicate(g)


def test_star_rewrite_shared_hub_is_noop_tie():
    g = DynGraph.from_edges(3, [(0, 2), (1, 2)])
    delta, info = apply_interaction(g, 0, 1)
    assert delta.empty and info["tie"]
    # with the mutual edge present, the hub keeps both as leaves
    g2 = DynGraph.from_edges(3, [(0, 2), (1, 2), (0, 1)])
    delta2, info2 = apply_interaction(g2, 0, 1)
    assert not g2.has_edge(0, 1)
    assert sorted(info2["leaves"]) == [0, 1]
    assert star_predicate(g2)


def test_star_rewrite_equal_nonleaf_coin():
    ties = others = 0
    for seed in range(16):
        g = DynGraph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        delta, info = apply_interaction(g, 0, 3, seed=seed)
        if info["tie"]:
            assert delta.empty
            ties += 1
        else:
            winner = 0 if g.degree(0) > g.degree(3) else 3
            assert g.degree(winner) == 5
            assert star_predicate(g)
            others += 1
    assert ties and others


def test_star_predicate():
    assert star_predicate(DynGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert not star_predicate(DynGraph.from_edges(4, [(0, 1), (2, 3)]))
    assert not star_predicate(random_graph(5, 1.1, 0))


def test_star_preserved_after_convergence():
    g = DynGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    sched = UniformRandomScheduler(3)
    proto = star_protocol(3)
    rng = random.Random(3)
    sched.reset(g)
    for t in range(10_000):
        u, v = tuple(sched.interactions(t, g))[0]
        delta, info = proto.rewrite(g, u, v, rng)
        g.apply_delta(delta)
        assert star_predicate(g), (t, u, v)


@pytest.mark.parametrize("seed", range(6))
def test_star_run_reaches_target_with_progress_checks(seed):
    g = random_connected(16, 0.15, seed)
    trace = run_general(g, star_protocol(seed), UniformRandomScheduler(seed),
                        budget=200_000, seed=seed, stop_predicate=star_predicate,
                        progress_check=True)
    assert trace.verdict.kind == "target"
    assert star_predicate(trace.final_graph)
    assert set(trace.metadata["tags"]) <= {"merge", "leaf", "tie"}
    assert trace.rounds[-1].fingerprint == graph_fingerprint(trace.final_graph)


def test_star_run_merges_components():
    g = DynGraph.from_edges(4, [(0, 1), (2, 3)])
    trace = run_general(g, star_protocol(0), UniformRandomScheduler(0),
                        budget=50_000, seed=0, stop_predicate=star_predicate,
                        progress_check=True)
    assert trace.verdict.kind == "target"
    assert "merge" in trace.metadata["tags"]


def test_star_run_budget_verdict():
    # one interaction cannot wire a spanning star over 8 path nodes
    g = DynGraph.from_edges(8, [(i, i + 1) for i in range(7)])
    trace = run_general(g, star_protocol(0), UniformRandomScheduler(0),
                        budget=1, seed=0, stop_predicate=star_predicate)
    assert trace.verdict.kind == "budget"


def test_run_general_requires_singletons():
    g = random_graph(5, 0.4, 0)
    with pytest.raises(ConfigError):
        run_general(g, star_protocol(0), FairRoundRobinScheduler(2), budget=10)


def test_run_general_confinement_contract():
    def naughty(g, u, v, rng):
        far = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
               if not g.has_edge(a, b)]
        return EdgeDelta.build(far[:1], []), {"tie": False, "leaves": []}

    g = DynGraph.from_edges(8, [(0, 1), (6, 7)])
    proto = GeneralProtocol(name="naughty", rewrite=naughty)
    with pytest.raises(ContractError):
        for seed in range(20):
            run_general(g.copy(), proto, UniformRandomScheduler(seed), budget=50,
                        seed=seed)
