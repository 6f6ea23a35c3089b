import json
import random

import pytest

from abdyn.engine import (RunConfig, check_degree_properties, decide_pairs,
                          degree_classes, frozen_nodes, run, snapshot_observer)
from abdyn.errors import ConfigError, ContractError
from abdyn.fastpath import IncrementalStepper
from abdyn.graph import DynGraph, graph_fingerprint
from abdyn.kcore import peel
from abdyn.potentials import (PROPER_FUNCTIONS, PairStatsRule, Potential,
                              min_degree_potential, proper_degree_potential,
                              rule110_potential, two_step_merge)
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, InteractionSet,
                              ScriptedScheduler, UniformRandomScheduler)

from conftest import random_graph, triangle


def cycle_graph(n):
    return DynGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return DynGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return random_graph(n, 1.1, 0)


# ---------------------------------------------------------------------------
# one round: decide_pairs

def test_step_min_degree_p3():
    g = path_graph(3)
    delta = decide_pairs(g, min_degree_potential(2, 4), InteractionSet(complete_n=3), False)
    assert delta.removals == ((0, 1), (1, 2))
    assert delta.additions == ()


def test_step_sum_c4_adds_diagonals():
    g = cycle_graph(4)
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 4, 4)
    delta = decide_pairs(g, pot, InteractionSet(complete_n=4), False)
    assert delta.additions == ((0, 2), (1, 3))
    assert delta.removals == ()


def test_step_empty_interactions():
    delta = decide_pairs(triangle(), min_degree_potential(2, 4), InteractionSet([]), False)
    assert delta.empty


def test_step_reorder_invariance():
    g = random_graph(12, 0.4, 3)
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 7, 7)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    d1 = decide_pairs(g, pot, pairs, False)
    rng = random.Random(0)
    for _ in range(3):
        rng.shuffle(pairs)
        assert decide_pairs(g, pot, pairs, False) == d1


def test_failing_potential_aborts_with_diagnostics():
    bad = Potential(name="bad", alpha=0, beta=1,
                    evaluator=lambda g, u, v: 1 / 0)
    with pytest.raises(ContractError, match=r"pair \(0,1\)"):
        decide_pairs(triangle(), bad, InteractionSet([(0, 1)]), False)


# ---------------------------------------------------------------------------
# run verdicts

def test_run_k4_fixed_point():
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 4, 4)
    trace = run(RunConfig(graph=complete_graph(4), potential=pot,
                          scheduler=CompleteScheduler(), max_rounds=10))
    assert trace.verdict.kind == "stabilized"
    assert trace.verdict.round <= 2
    assert trace.final_graph == complete_graph(4)


def test_run_p4_to_null():
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 100, 100)
    trace = run(RunConfig(graph=path_graph(4), potential=pot,
                          scheduler=CompleteScheduler(), max_rounds=10))
    assert trace.verdict.kind == "stabilized"
    assert trace.final_graph.m == 0


def test_run_determinism_byte_level():
    cfg = dict(potential=min_degree_potential(2, 100),
               scheduler=UniformRandomScheduler(5), max_rounds=5000, seed=9)
    t1 = run(RunConfig(graph=random_graph(25, 0.2, 1), **cfg))
    t2 = run(RunConfig(graph=random_graph(25, 0.2, 1), **cfg))
    assert json.dumps([r._asdict() for r in t1.rounds]) == \
        json.dumps([r._asdict() for r in t2.rounds])
    assert t1.verdict == t2.verdict


def test_fixed_point_is_absorbing():
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 6, 6)
    g = random_graph(12, 0.5, 2)
    t1 = run(RunConfig(graph=g.copy(), potential=pot,
                       scheduler=CompleteScheduler(), max_rounds=50))
    assert t1.verdict.kind == "stabilized"
    t2 = run(RunConfig(graph=t1.final_graph, potential=pot,
                       scheduler=CompleteScheduler(), max_rounds=7,
                       stop_mode="budget"))
    assert not t2.changed_rounds


def test_current_edges_scheduler_stabilizes_on_empty_delta():
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=path_graph(5), potential=pot,
                          scheduler=CurrentEdgesScheduler(), max_rounds=20))
    assert trace.verdict.kind == "stabilized"
    assert trace.final_graph.m == 0


def test_empty_script_is_stable_not_fair():
    sched = ScriptedScheduler([[]], n=4, repeat=True)
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=path_graph(4), potential=pot,
                          scheduler=sched, max_rounds=50))
    assert trace.verdict.kind == "stabilized"
    assert trace.final_graph == path_graph(4)  # frozen, nothing ever scheduled
    assert sched.fairness_period is None


def test_round_robin_quiescence_window():
    sched = FairRoundRobinScheduler(2)
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=path_graph(6), potential=pot,
                          scheduler=sched, max_rounds=500))
    assert trace.verdict.kind == "stabilized"
    assert trace.final_graph.m == 0


def test_uniform_run_sweep_confirmed():
    g = random_graph(30, 0.2, 4)
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=g, potential=pot,
                          scheduler=UniformRandomScheduler(11), max_rounds=400_000,
                          seed=11))
    assert trace.verdict.kind == "stabilized"
    dec = peel(g, 2)
    for u in range(g.n):
        assert (trace.final_graph.degree(u) == 0) == (u in dec.crust)


def test_budget_verdict():
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=random_graph(20, 0.3, 1), potential=pot,
                          scheduler=UniformRandomScheduler(3), max_rounds=5,
                          seed=3))
    assert trace.verdict.kind == "budget"


def test_cycle_detection_exact_period_two():
    # two 22-cliques sharing an open special pair flip forever
    g = DynGraph(42)
    for half in (range(2, 22), range(22, 42)):
        nodes = [0, 1] + list(half)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if {a, b} != {0, 1}:
                    g.add_edge(a, b)
    g.add_edge(0, 1)
    trace = run(RunConfig(graph=g, potential=rule110_potential(100),
                          scheduler=CompleteScheduler(), max_rounds=50,
                          stop_mode="cycle"))
    assert trace.verdict.kind == "cycle"
    assert trace.verdict.period == 2
    assert trace.verdict.round == 0


def test_max_rounds_validation():
    with pytest.raises(ConfigError):
        RunConfig(graph=DynGraph(2), potential=min_degree_potential(0, 1),
                  scheduler=CompleteScheduler(), max_rounds=0)


# ---------------------------------------------------------------------------
# engine equivalences

@pytest.mark.parametrize("seed", range(5))
def test_prune_matches_unpruned_naive(seed):
    g = random_graph(50, 0.85, seed)
    pot = rule110_potential(10)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=12,
                stop_mode="budget", record_rounds="all")
    t_plain = run(RunConfig(graph=g.copy(), prune=False, engine="naive", **base))
    t_prune = run(RunConfig(graph=g.copy(), prune=True, engine="naive", **base))
    assert [r.fingerprint for r in t_plain.rounds] == \
        [r.fingerprint for r in t_prune.rounds]


def test_prune_matches_unpruned_on_gadget_fragment():
    g = DynGraph(42)
    for half in (range(2, 22), range(22, 42)):
        nodes = [0, 1] + list(half)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if {a, b} != {0, 1}:
                    g.add_edge(a, b)
    g.add_edge(0, 1)
    pot = rule110_potential(10)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=6,
                stop_mode="budget", record_rounds="all")
    runs = [run(RunConfig(graph=g.copy(), prune=p, engine=e, **base))
            for p, e in [(False, "naive"), (True, "naive"), (True, "incremental")]]
    fps = [[r.fingerprint for r in t.rounds] for t in runs]
    assert fps[0] == fps[1] == fps[2]


def test_every_pruning_route_rejects_a_false_floor():
    # drops edges with a single common neighbor, below its claimed floor of 2
    stats = PairStatsRule(decide=lambda edge, cn, ce_fn: 0 if cn == 1 else edge,
                          cn_floor=2)
    pot = Potential(name="false_floor", alpha=1, beta=1,
                    evaluator=lambda g, u, v: 0, pair_stats=stats)
    base = dict(graph=path_graph(4), potential=pot, scheduler=CompleteScheduler(),
                max_rounds=1)
    for engine, prune in [("naive", True), ("incremental", True), ("bulk", False)]:
        with pytest.raises(ContractError, match="cn=1"):
            run(RunConfig(engine=engine, prune=prune, **base))
    run(RunConfig(engine="naive", prune=False, **base))     # unpruned never relies on it


@pytest.mark.parametrize("seed", range(5))
def test_incremental_and_bulk_match_naive(seed):
    g = random_graph(48, 0.9, seed)
    pot = rule110_potential(10)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=10,
                stop_mode="budget", record_rounds="all")
    fps = {}
    for engine in ("naive", "incremental", "bulk"):
        fresh = []
        t = run(RunConfig(graph=g.copy(), engine=engine,
                          prune=(engine == "incremental"),
                          observers=(lambda t, h, d, diff: fresh.append(graph_fingerprint(h)),),
                          **base))
        fps[engine] = [r.fingerprint for r in t.rounds]
        # the run's incremental XOR equals a fresh fold after every round
        assert fps[engine] == fresh, engine
        assert t.change_count and fresh[-1] == graph_fingerprint(t.final_graph)
        assert t.diff == g.edge_set() ^ t.final_graph.edge_set()
    assert fps["naive"] == fps["incremental"] == fps["bulk"]


@pytest.mark.parametrize("seed", range(4))
def test_incremental_counts_stay_exact(seed):
    g = random_graph(52, 0.88, seed)
    stepper = IncrementalStepper(g, rule110_potential(10))
    stepper.verify_counts()
    for t in range(8):
        stepper.advance(t)
        stepper.verify_counts()


@pytest.mark.parametrize("seed", range(3))
def test_incremental_merged_matches_generic_merged(seed):
    pot = two_step_merge(rule110_potential(10))
    g = random_graph(14, 0.8, seed)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=3,
                stop_mode="budget", record_rounds="all")
    t_gen = run(RunConfig(graph=g.copy(), engine="naive", **base))
    t_inc = run(RunConfig(graph=g.copy(), engine="incremental", **base))
    assert [r.fingerprint for r in t_gen.rounds] == \
        [r.fingerprint for r in t_inc.rounds]


# ---------------------------------------------------------------------------
# diagnostics

def test_degree_classes_examples():
    assert degree_classes(cycle_graph(5)).count == 1
    s4 = DynGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    dc = degree_classes(s4)
    assert dc.degrees == (3, 1)
    assert [len(c) for c in dc.classes] == [1, 3]
    p4 = path_graph(4)
    assert degree_classes(p4).degrees == (2, 1)


@pytest.mark.parametrize("seed", range(6))
def test_degree_class_count_bound(seed):
    g = random_graph(14, 0.5, seed)
    assert degree_classes(g).count <= g.n - 1


def test_check_degree_properties_clean_run():
    rng = random.Random(0)
    g = random_graph(30, 0.3, 17)
    beta = rng.randint(5, 40)
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], beta, beta)
    snaps = [g.copy()]
    run(RunConfig(graph=g, potential=pot, scheduler=CompleteScheduler(),
                  max_rounds=100, observers=(snapshot_observer(snaps),)))
    report = check_degree_properties(snaps)
    assert report.ok, report.violations[:3]


def test_check_degree_properties_c4_to_k4_single_class():
    pot = proper_degree_potential(PROPER_FUNCTIONS["sum"], 4, 4)
    snaps = [cycle_graph(4)]
    run(RunConfig(graph=cycle_graph(4), potential=pot,
                  scheduler=CompleteScheduler(), max_rounds=10,
                  observers=(snapshot_observer(snaps),)))
    assert snaps[-1] == complete_graph(4)
    assert all(degree_classes(g).count == 1 for g in snaps)
    assert check_degree_properties(snaps).ok


def test_check_degree_properties_single_round_vacuous():
    g = random_graph(10, 0.3, 1)
    report = check_degree_properties([g, g.copy()])
    assert report.ok and report.rounds_checked == 0


def test_check_degree_properties_flags_violations():
    # a fabricated non-monotone transition: degrees swap order
    g0 = DynGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    g1 = DynGraph.from_edges(4, [(1, 0), (1, 2), (1, 3)])
    report = check_degree_properties([g0, g0.copy(), g1], start=1)
    assert not report.ok


def test_stabilization_bound_small_sample():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(6, 30)
        g = random_graph(n, rng.choice([0.1, 0.3, 0.7]), rng.randrange(10**6))
        fname = rng.choice(sorted(PROPER_FUNCTIONS))
        beta = rng.randint(0, 2 * n)
        pot = proper_degree_potential(PROPER_FUNCTIONS[fname], beta, beta)
        classes0 = degree_classes(g).count
        trace = run(RunConfig(graph=g, potential=pot,
                              scheduler=CompleteScheduler(), max_rounds=n + 5))
        assert trace.verdict.kind == "stabilized"
        last = trace.last_change_round
        assert last is None or last + 1 <= classes0 + 1


def test_frozen_nodes():
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=path_graph(5), potential=pot,
                          scheduler=CompleteScheduler(), max_rounds=20,
                          record_deltas=True))
    assert trace.verdict.kind == "stabilized"
    assert frozen_nodes(trace, 1) == set(range(5))
    with pytest.raises(ConfigError):
        frozen_nodes(trace, 0)
    # isolated node under deletion dynamics freezes once isolated
    g = DynGraph.from_edges(3, [(0, 1)])
    tr = run(RunConfig(graph=g, potential=min_degree_potential(2, 100),
                       scheduler=CompleteScheduler(), max_rounds=20,
                       record_deltas=True, stop_mode="budget"))
    assert 2 in frozen_nodes(tr, len(tr.deltas))


def test_frozen_nodes_excludes_flipping_pair():
    g = DynGraph(42)
    for half in (range(2, 22), range(22, 42)):
        nodes = [0, 1] + list(half)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if {a, b} != {0, 1}:
                    g.add_edge(a, b)
    g.add_edge(0, 1)
    trace = run(RunConfig(graph=g, potential=rule110_potential(100),
                          scheduler=CompleteScheduler(), max_rounds=6,
                          stop_mode="budget", record_deltas=True))
    frozen = frozen_nodes(trace, 2)
    assert 0 not in frozen and 1 not in frozen
    assert 5 in frozen
