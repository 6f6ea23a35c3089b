import random

import pytest

from abdyn.engine import RunConfig, run
from abdyn.generators import gnp
from abdyn.graph import DynGraph
from abdyn.kcore import KcoreReport, peel, verify_kcore_run
from abdyn.potentials import (community_potential, degree, degree_like_potential,
                              min_degree_potential)
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, UniformRandomScheduler, pair_count)

from conftest import random_graph, triangle


def shuffled_peel(g: DynGraph, k: int, seed: int) -> frozenset:
    """Independent oracle: delete low-degree nodes one at a time in a random
    order until none qualify."""
    rng = random.Random(seed)
    alive = set(range(g.n))
    deg = {u: g.degree(u) for u in alive}
    while True:
        victims = [u for u in alive if deg[u] < k]
        if not victims:
            return frozenset(alive)
        u = rng.choice(victims)
        alive.discard(u)
        for w in g.neighbors(u):
            if w in alive:
                deg[w] -= 1


def test_peel_examples():
    g = DynGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    dec = peel(g, 3)
    assert dec.core == frozenset({0, 1, 2, 3})
    assert dec.crust == frozenset({4})

    p5 = DynGraph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert peel(p5, 2).core == frozenset()

    assert peel(triangle(), 2).core == frozenset({0, 1, 2})


def test_core_properties():
    g = random_graph(40, 0.15, 3)
    dec = peel(g, 3)
    assert dec.core | dec.crust == frozenset(range(40))
    assert not dec.core & dec.crust
    for u in dec.core:
        assert sum(1 for w in g.neighbors(u) if w in dec.core) >= 3


@pytest.mark.parametrize("seed", range(6))
def test_peel_order_independence(seed):
    g = random_graph(30, 0.2, seed)
    for k in (2, 3, 4):
        want = peel(g, k).core
        for order_seed in range(3):
            assert shuffled_peel(g, k, order_seed) == want


def _kcore_run(g, alpha, scheduler, rounds=200_000):
    pot = min_degree_potential(alpha, g.n)
    return run(RunConfig(graph=g, potential=pot, scheduler=scheduler,
                         max_rounds=rounds))


def test_verify_kcore_random_round_robin():
    g = random_graph(50, 0.1, 11)
    trace = _kcore_run(g, 3, FairRoundRobinScheduler(16))
    assert trace.verdict.kind == "stabilized"
    report = verify_kcore_run(trace.final_graph, g, 3)
    assert report.ok, report.summary()


def test_verify_kcore_k3_stays():
    trace = _kcore_run(triangle(), 2, CompleteScheduler())
    report = verify_kcore_run(trace.final_graph, triangle(), 2)
    assert report.ok
    assert trace.final_graph.m == 3


def test_verify_kcore_star_collapses():
    star = DynGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    trace = _kcore_run(star.copy(), 2, CompleteScheduler())
    report = verify_kcore_run(trace.final_graph, star, 2)
    assert report.ok
    assert trace.final_graph.m == 0


def test_verify_detects_mismatch():
    g = random_graph(20, 0.3, 2)
    trace = _kcore_run(g.copy(), 2, CompleteScheduler())
    tampered = trace.final_graph.copy()
    dec = peel(g, 2)
    if dec.core:
        u = min(dec.core)
        w = next(iter(tampered.neighbors(u)))
        tampered.remove_edge(u, w)
        assert not verify_kcore_run(tampered, g, 2).ok


def set_verify_kcore_run(final: DynGraph, g0: DynGraph, alpha: int) -> KcoreReport:
    """The oracle: verify_kcore_run computed with Python sets."""
    dec = peel(g0, alpha)
    isolated = {u for u in range(final.n) if final.degree(u) == 0}
    mis_isolated = sorted(u for u in isolated - dec.crust if u in dec.core and alpha > 0)
    mis_core = sorted(u for u in dec.crust if final.degree(u) > 0)
    core_edges = {(u, v) for (u, v) in g0.edges() if u in dec.core and v in dec.core}
    final_edges = final.edge_set()
    missing = sorted(core_edges - final_edges)
    extra = sorted(final_edges - core_edges)
    ok = not (mis_isolated or mis_core or missing or extra)
    return KcoreReport(ok, mis_isolated, mis_core, missing, extra)


@pytest.mark.parametrize("seed", range(12))
def test_verify_matches_the_set_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 60)
    g = random_graph(n, rng.uniform(0.02, 0.3), seed)
    alpha = rng.randrange(0, 5)
    final = _kcore_run(g.copy(), alpha, CompleteScheduler()).final_graph
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # tamper: toggle some pairs (missing core edges, extra edges, crust nodes
    # with edges) and isolate a core node
    for u, v in rng.sample(pairs, min(len(pairs), rng.randrange(0, 8))):
        final.remove_edge(u, v) if final.has_edge(u, v) else final.add_edge(u, v)
    core = sorted(peel(g, alpha).core)
    if core and seed % 2:
        u = rng.choice(core)
        for w in list(final.neighbors(u)):
            final.remove_edge(u, w)
    report = verify_kcore_run(final, g, alpha)
    assert report == set_verify_kcore_run(final, g, alpha)
    for field in (report.misclassified_isolated, report.misclassified_core):
        assert all(type(u) is int for u in field)
    for field in (report.missing_edges, report.extra_edges):
        assert all(type(p) is tuple and all(type(u) is int for u in p) for p in field)


def test_changes_bound_and_edge_scheduler_speed():
    for seed in range(4):
        g = random_graph(40, 0.12, seed)
        m0 = g.m
        trace = _kcore_run(g.copy(), 3, CompleteScheduler())
        assert trace.change_count <= m0
        t2 = _kcore_run(g.copy(), 3, CurrentEdgesScheduler())
        assert t2.verdict.kind == "stabilized"
        assert t2.verdict.round <= g.n
        assert verify_kcore_run(t2.final_graph, g, 3).ok


def test_complete_runs_on_half_a_million_pairs():
    # 499,500 pairs: the k-core rounds are sorted sweeps of the twin; a rule
    # with no twin and no pair statistics runs pair by pair under auto, with
    # the rounds of the naive reference
    g = gnp(1000, 0.005, seed=1)
    assert pair_count(g.n) == 499_500
    trace = _kcore_run(g.copy(), 3, CompleteScheduler())
    assert trace.verdict.kind == "stabilized"
    assert verify_kcore_run(trace.final_graph, g, 3).ok
    auto, naive = (run(RunConfig(graph=g, potential=community_potential(3, 1000),
                                 scheduler=CompleteScheduler(), max_rounds=10, engine=mode))
                   for mode in ("auto", "naive"))
    assert auto.metadata["engine"] == naive.metadata["engine"] == "NaiveStepper"
    assert auto.verdict == naive.verdict
    assert auto.rounds == naive.rounds and auto.final_graph == naive.final_graph


def test_uniform_user_rule_proves_its_fixed_point_on_400k_pairs():
    # 404,550 pairs and a min with no numpy twin: the active route decides
    # it pair by pair and stops at the fixed point instead of the budget
    g = gnp(900, 0.004, seed=1)
    assert pair_count(g.n) == 404_550
    pot = degree_like_potential(lambda x, y: min(x, y), degree, 2, 10**6, validate=False)
    trace = run(RunConfig(graph=g, potential=pot, scheduler=UniformRandomScheduler(1),
                          max_rounds=3_000_000, record_rounds="changes"))
    assert trace.metadata["engine"] == "ActiveSetStepper"
    assert trace.verdict.kind == "stabilized"
    assert verify_kcore_run(trace.final_graph, g, 2).ok


@pytest.mark.slow
def test_uniform_kcore_on_5000_nodes():
    # 12,497,500 pairs: the active route decides the catalog min from its
    # twin; the run takes about 87 M rounds
    g = gnp(5000, 0.002, seed=1)
    assert pair_count(g.n) == 12_497_500
    trace = run(RunConfig(graph=g, potential=min_degree_potential(5, 5000),
                          scheduler=UniformRandomScheduler(1), max_rounds=10**9,
                          record_rounds="changes"))
    assert trace.metadata["engine"] == "ActiveSetStepper"
    assert trace.verdict.kind == "stabilized"
    assert verify_kcore_run(trace.final_graph, g, 5).ok
