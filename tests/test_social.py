import random
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abdyn import social
from abdyn.engine import RunConfig, Verdict, run
from abdyn.errors import ConfigError, ContractError
from abdyn.generators import random_connected
from abdyn.graph import DynGraph, EdgeDelta, ball_nodes, graph_fingerprint, norm_pair
from abdyn.potentials import (PROPER_FUNCTIONS, degree_like_potential,
                              validate_degree_like)
from abdyn.schedulers import (FairRoundRobinScheduler, InteractionSet, Scheduler,
                              ScriptedScheduler, SocialScheduler, UniformRandomScheduler)
from abdyn.social import (GeneralProtocol, SocialProfile, _touched_components,
                          niceness_g, random_profile, run_general, star_predicate,
                          star_protocol)

from conftest import brute_component_labels, random_graph


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
    with pytest.raises(ConfigError, match="3 niceness values but 1 extroversion values"):
        SocialProfile(niceness=(1.0, 2.0, 3.0), extroversion=(1,), enemies=frozenset())


def test_reversed_enemy_pairs_are_never_scheduled():
    # on the path 0-1-2 the pair (0, 2) lies at distance 2, within reach
    g = path_graph(3)
    assert (0, 2) in set(SocialScheduler(profile_of([1.0] * 3), 1).interactions(0, g))
    prof = profile_of([1.0] * 3, enemies=[(2, 0)])
    assert prof.enemies == {(0, 2)}
    assert (0, 2) not in set(SocialScheduler(prof, 1).interactions(0, g))


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
    delta, info = proto.rewrite(g, u, v, random.Random(seed))
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


def path_graph(n: int) -> DynGraph:
    return DynGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_star_predicate():
    star = [(0, i) for i in range(1, 6)]
    assert star_predicate(DynGraph.from_edges(6, star))
    assert not star_predicate(DynGraph.from_edges(4, [(0, 1), (2, 3)]))
    assert not star_predicate(random_graph(5, 1.1, 0))
    # paths have the n - 1 edges of a star
    for n in range(4, 9):
        assert path_graph(n).m == n - 1 and not star_predicate(path_graph(n))
    assert not star_predicate(DynGraph.from_edges(6, star + [(1, 2)]))
    assert not star_predicate(DynGraph.from_edges(6, star[:-1]))
    assert not star_predicate(DynGraph(3))
    assert star_predicate(path_graph(3))
    assert star_predicate(DynGraph(0)) and star_predicate(DynGraph(1))
    assert star_predicate(path_graph(2)) and not star_predicate(DynGraph(2))


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


@pytest.mark.parametrize("seed", range(4))
def test_reused_star_protocol_replays_its_run(seed):
    # the coins come from the run's rng, so a protocol object holds no stream
    g = random_connected(30, 0.1, seed)
    proto = star_protocol(seed)
    traces = [run_general(g, proto, UniformRandomScheduler(seed), budget=100_000,
                          seed=seed, stop_predicate=star_predicate) for _ in range(2)]
    traces.append(run(RunConfig(graph=g, potential=replace(proto, stop=star_predicate),
                                scheduler=UniformRandomScheduler(seed), max_rounds=100_000,
                                record_rounds="changes")))
    assert proto.seed == seed
    for trace in traces[1:]:
        assert trace.rounds == traces[0].rounds and trace.verdict == traces[0].verdict


@pytest.mark.parametrize("seed", [1, 3, 4, 5])
def test_run_general_keeps_the_fields_the_caller_leaves_out(seed):
    # the protocol's own seed, goal and progress check, not 0, None and False;
    # seed 0 gives another run on each of these graphs
    g = random_connected(40, 0.05, seed)
    own = replace(star_protocol(seed), stop=star_predicate, progress_check=True)
    kept = run_general(g, own, UniformRandomScheduler(seed), budget=100_000)
    given = [run_general(g, star_protocol(seed), UniformRandomScheduler(seed),
                         budget=100_000, seed=s, stop_predicate=star_predicate,
                         progress_check=True) for s in (seed, 0)]
    assert kept.verdict.kind == "target"
    assert kept.rounds == given[0].rounds and kept.verdict == given[0].verdict
    assert kept.metadata["tags"] == given[0].metadata["tags"]
    assert kept.rounds != given[1].rounds


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


class FixedPairScheduler(Scheduler):
    """Emits the same pair every round, unchecked."""

    def __init__(self, pair):
        self.pair = pair

    def interactions(self, t, graph):
        return InteractionSet([self.pair])


@pytest.mark.parametrize("pair, message", [((3, 3), r"self-pair \(3,3\)"),
                                           ((3, 99), r"\(3,99\) out of range for n=6")])
def test_run_general_validates_scheduled_pairs(pair, message):
    g = random_connected(6, 0.3, 0)
    with pytest.raises(ConfigError, match=message):
        run_general(g, star_protocol(0), FixedPairScheduler(pair), budget=5)


# Confinement at its boundary: on the path 0-1-...-9 the pair (4,5) has
# {3,4,5,6} within distance 1, {2,7} at distance 2, {1,8} at 3, {0,9} at 4.

def run_fixed_delta_on_path(additions, removals=()):
    def rewrite(g, u, v, rng):
        return EdgeDelta.build(additions, removals), {"tie": False, "leaves": []}
    return run_general(path_graph(10), GeneralProtocol("fixed", rewrite),
                       ScriptedScheduler([[(4, 5)]], 10), budget=1)


@pytest.mark.parametrize("additions, removals", [
    ([(2, 7), (0, 7)], []),     # an endpoint at distance exactly 2
    ([(3, 9)], [(7, 8)]),       # one endpoint near, one far
])
def test_confinement_passes_pairs_with_an_endpoint_within_distance_2(additions, removals):
    g = run_fixed_delta_on_path(additions, removals).final_graph
    assert all(g.has_edge(*p) for p in additions)
    assert not any(g.has_edge(*p) for p in removals)


def test_confinement_rejects_a_pair_at_distance_3():
    with pytest.raises(ContractError, match=r"pair \(1,8\) outside distance 2 of \(4,5\)"):
        run_fixed_delta_on_path([(2, 7), (1, 8)])


# ---------------------------------------------------------------------------
# progress accounting against from-scratch component counts

@st.composite
def small_graphs(draw, min_n=1, max_n=14):
    n = draw(st.integers(min_n, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return DynGraph.from_edges(n, [(a, b) for a, b in pairs if a != b])


@given(small_graphs(), st.data())
def test_touched_components_matches_brute_force(g, data):
    label = brute_component_labels(g)
    # ids just outside the graph lie in no component
    nodes = data.draw(st.lists(st.integers(-1, g.n), max_size=g.n + 2))
    expected = len({label[x] for x in nodes if 0 <= x < g.n})
    assert _touched_components(g, nodes) == expected
    assert _touched_components(g, range(g.n)) == len(set(label))


def test_touched_components_on_graphs_with_hubs():
    rng = random.Random(5)
    for case in range(60):
        n = rng.randrange(20, 60)
        g = random_graph(n, rng.choice((0.01, 0.03, 0.08)), case)
        for w in rng.sample(range(n), n // 3):
            if w != 0:
                g.add_edge(0, w)            # node 0 is a hub
        label = brute_component_labels(g)
        for _ in range(5):
            nodes = rng.sample(range(n), rng.randrange(1, 8))
            expected = len({label[x] for x in nodes})
            assert _touched_components(g, nodes) == expected


def toggle_protocol() -> GeneralProtocol:
    """Toggles up to three random pairs with an endpoint within distance 2
    of the interacting pair, so rounds both merge and split components."""

    def rewrite(g, u, v, rng):
        ball = sorted(ball_nodes(g, u, v, 2))
        pairs = set()
        for _ in range(rng.randrange(4)):
            a = rng.choice(ball)
            # half the picks remove an edge at a, to split components too
            nbrs = sorted(g.neighbors(a))
            b = rng.choice(nbrs) if nbrs and rng.random() < 0.5 else rng.randrange(g.n)
            if a != b:
                pairs.add(norm_pair(a, b))
        adds = [p for p in pairs if not g.has_edge(*p)]
        rems = [p for p in pairs if g.has_edge(*p)]
        return EdgeDelta.build(adds, rems), {"tie": not pairs, "leaves": []}

    return GeneralProtocol("toggle", rewrite)


def component_count(g) -> int:
    return len(set(brute_component_labels(g)))


class Reference(NamedTuple):
    records: list               # (t, added, removed, classes, fingerprint) of changed rounds
    changed_rounds: list
    verdict: tuple              # (kind, round)
    final: DynGraph
    tags: list
    counts: list                # component count before round 0 and after each round


def reference_run(g0, protocol, scheduler, seed, budget, stop=None) -> Reference:
    """A rewrite run as a plain loop of its own, recounting components,
    degree classes and the fingerprint from scratch after every round."""
    g = g0.copy()
    scheduler.reset(g)
    rng = random.Random(seed)
    counts = [component_count(g)]
    records, changed, tags = [], [], []
    if stop is not None and stop(g):
        return Reference(records, changed, ("target", 0), g, tags, counts)
    for t in range(budget):
        (u, v), = scheduler.interactions(t, g)
        delta, info = protocol.rewrite(g, u, v, rng)
        g.apply_delta(delta)
        counts.append(component_count(g))
        tags.append("merge" if counts[-1] < counts[-2] else "tie" if info["tie"] else "leaf")
        if delta.empty:
            continue
        classes = len({g.degree(x) for x in range(g.n)})
        records.append((t, len(delta.additions), len(delta.removals), classes,
                        graph_fingerprint(g)))
        changed.append(t)
        if stop is not None and stop(g):
            return Reference(records, changed, ("target", t + 1), g, tags, counts)
    return Reference(records, changed, ("budget", budget), g, tags, counts)


def assert_matches_reference(trace, ref: Reference) -> None:
    assert [(r.t, r.added, r.removed, r.classes, r.fingerprint)
            for r in trace.rounds] == ref.records
    assert all(r.interactions == 1 for r in trace.rounds)
    assert trace.changed_rounds == ref.changed_rounds
    assert (trace.verdict.kind, trace.verdict.round) == ref.verdict
    assert trace.final_graph == ref.final
    assert trace.metadata == {"protocol": trace.metadata["protocol"], "tags": ref.tags}


def empty_graph(g) -> bool:
    return g.m == 0


PROTOCOLS = {"toggle": (lambda seed: toggle_protocol(), empty_graph),
             "star": (star_protocol, star_predicate)}


@given(small_graphs(min_n=2, max_n=12), st.integers(0, 2 ** 16),
       st.sampled_from(sorted(PROTOCOLS)))
def test_progress_tags_match_full_recounts(g, seed, name):
    make, stop = PROTOCOLS[name]
    trace = run_general(g, make(seed), UniformRandomScheduler(seed), budget=30,
                        seed=seed, stop_predicate=stop, progress_check=True)
    ref = reference_run(g, make(seed), UniformRandomScheduler(seed), seed, 30, stop)
    assert_matches_reference(trace, ref)


def test_toggle_protocol_merges_and_splits():
    merges = splits = 0
    for seed in range(10):
        g = random_graph(10, 0.15, seed)
        trace = run_general(g, toggle_protocol(), UniformRandomScheduler(seed), budget=60,
                            seed=seed, progress_check=True)
        ref = reference_run(g, toggle_protocol(), UniformRandomScheduler(seed), seed, 60)
        assert_matches_reference(trace, ref)
        merges += ref.tags.count("merge")
        splits += sum(b > a for a, b in zip(ref.counts, ref.counts[1:]))
    assert merges >= 50 and splits >= 50


def test_rewrite_runs_never_stabilize_or_cycle():
    # Two stars whose hubs 0 and 3 have equal degree, and a deterministic
    # script that repeats (0, 3): a coin tie there changes nothing. A
    # threshold rule's run would stop at its first quiet round, whose cycle
    # key repeats the initial one.
    g = DynGraph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])

    def script():
        return ScriptedScheduler([[(0, 3)]], 6, repeat=True)

    first_ties = 0
    for seed in range(12):
        trace = run_general(g, star_protocol(seed), script(), budget=8, seed=seed,
                            progress_check=True)
        assert trace.verdict == Verdict("budget", 8)
        assert_matches_reference(trace, reference_run(g, star_protocol(seed), script(),
                                                      seed, 8))
        first_ties += trace.metadata["tags"][0] == "tie"
        # with a goal, the run ends right after the merge that reaches it
        trace = run_general(g, star_protocol(seed), script(), budget=8, seed=seed,
                            stop_predicate=star_predicate)
        if trace.changed_rounds:
            assert trace.verdict == Verdict("target", trace.changed_rounds[0] + 1)
        else:
            assert trace.verdict == Verdict("budget", 8)
    assert 0 < first_ties < 12


def test_run_general_stops_before_round_0_at_its_goal():
    star = DynGraph.from_edges(5, [(0, i) for i in range(1, 5)])
    # the round-robin pairs are no singletons, but no round runs
    trace = run_general(star, star_protocol(0), FairRoundRobinScheduler(2), budget=1,
                        stop_predicate=star_predicate)
    assert trace.verdict == Verdict("target", 0)
    assert trace.rounds == [] and trace.changed_rounds == []


@pytest.mark.parametrize("edges, additions, removals, touched, searched", [
    # the hub 0 absorbs 3 and its neighbour 4, as in a star rewrite
    ([(0, 5)], [(0, 3), (0, 4)], [(3, 4)], 1, False),
    # the hub 0 gains 1 and 2, and the removal leaves 3 and 4 apart
    ([(0, 5), (3, 6)], [(0, 1), (0, 2)], [(3, 4)], 3, True),
    # 4 and 5 are two steps from the hub 0, in its component
    ([(0, 3), (3, 4), (3, 5)], [(0, 1), (0, 2)], [(4, 5)], 1, True),
    # removals only: no hub
    ([(0, 1), (2, 3)], [], [(1, 2)], 2, True),
])
def test_touched_after_shortcut_and_its_fallback(monkeypatch, edges, additions, removals,
                                                 touched, searched):
    g = DynGraph.from_edges(7, edges + removals)
    delta = EdgeDelta.build(additions, removals)
    g.apply_delta(delta)
    ends = {x for pair in additions + removals for x in pair}
    label = brute_component_labels(g)
    assert len({label[x] for x in ends}) == touched
    calls = []
    monkeypatch.setattr(social, "_touched_components",
                        lambda g, nodes: calls.append(sorted(nodes)) or
                        _touched_components(g, nodes))
    assert social._touched_after(g, delta, ends) == touched
    assert calls == ([sorted(ends)] if searched else [])
