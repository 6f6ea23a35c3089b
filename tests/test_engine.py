import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdyn import engine as engine_module
from abdyn import graph as graph_module
from abdyn.engine import (RunConfig, Verdict, check_degree_properties, decide_pairs,
                          degree_classes, run, snapshot_observer)
from abdyn.errors import ConfigError, ContractError
from abdyn.fastpath import Decisions, IncrementalStepper
from abdyn.graph import DynGraph, EdgeDelta, graph_fingerprint
from abdyn.kcore import peel
from abdyn.potentials import (PROPER_FUNCTIONS, PairStatsRule, Potential,
                              community_potential, degree, degree_like_potential,
                              min_degree_potential, proper_degree_potential,
                              rule110_potential, two_step_merge)
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, InteractionSet, Scheduler,
                              ScriptedScheduler, UniformRandomScheduler, all_pairs)
from abdyn.social import niceness_g, random_profile, star_protocol

from conftest import BulkOracle, blinker, oracle_rounds, random_graph, triangle


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
    # a base that fails inside a merged rule's fragment, whose ids 0..2 are
    # not the graph's 3..5: the error names the merged rule and the live pair
    base = Potential(name="bad", alpha=1, beta=1, evaluator=lambda g, u, v: 1 / 0,
                     pair_stats=PairStatsRule(decide=lambda edge, cn, ce_fn: edge, cn_floor=1))
    g = DynGraph.from_edges(6, [(3, 4), (4, 5)])
    with pytest.raises(ContractError, match=r"^potential bad_merged failed on pair \(3,5\)"):
        decide_pairs(g, two_step_merge(base), InteractionSet([(3, 5)]), False)


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
               scheduler=UniformRandomScheduler(5), max_rounds=5000)
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


class _FixedPairScheduler(Scheduler):
    """A custom scheduler that emits one given pair every round."""

    name = "fixed_pair"

    def __init__(self, pair):
        self.pair = pair

    def interactions(self, t, graph):
        return InteractionSet([self.pair])


@pytest.mark.parametrize("engine", ["auto", "naive"])
@pytest.mark.parametrize("potential", [min_degree_potential(1, 4), community_potential(1, 4)],
                         ids=["node_form", "pairwise"])
@pytest.mark.parametrize("pair,message", [((2, 2), r"self-pair \(2,2\)"),
                                          ((1, 9), r"pair \(1,9\) out of range")],
                         ids=["self_pair", "out_of_range"])
def test_custom_scheduler_pairs_are_validated(engine, potential, pair, message):
    with pytest.raises(ConfigError, match=message):
        run(RunConfig(graph=path_graph(4), potential=potential,
                      scheduler=_FixedPairScheduler(pair), max_rounds=5, engine=engine))


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
                          scheduler=UniformRandomScheduler(11), max_rounds=400_000))
    assert trace.verdict.kind == "stabilized"
    dec = peel(g, 2)
    for u in range(g.n):
        assert (trace.final_graph.degree(u) == 0) == (u in dec.crust)


def test_budget_verdict():
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=random_graph(20, 0.3, 1), potential=pot,
                          scheduler=UniformRandomScheduler(3), max_rounds=5,
                          engine="naive"))
    assert trace.verdict.kind == "budget"


def test_active_route_proves_fixed_point_at_round_zero():
    # the input of test_budget_verdict is already a fixed point
    pot = min_degree_potential(2, 100)
    trace = run(RunConfig(graph=random_graph(20, 0.3, 1), potential=pot,
                          scheduler=UniformRandomScheduler(3), max_rounds=5))
    assert trace.verdict == Verdict("stabilized", 0)
    assert trace.rounds == [] and trace.metadata["engine"] == "ActiveSetStepper"


def test_active_route_budget_verdict():
    # alpha = n: every edge stays active, and one round removes at most one
    g = random_graph(20, 0.3, 1)
    trace = run(RunConfig(graph=g, potential=min_degree_potential(20, 100),
                          scheduler=UniformRandomScheduler(3), max_rounds=5,
                          record_rounds="all"))
    assert trace.metadata["engine"] == "ActiveSetStepper"
    assert trace.verdict == Verdict("budget", 5)
    assert [r.t for r in trace.rounds] == list(range(5))
    assert trace.final_graph.m >= g.m - 5 > 0      # edges, all of them active, remain
    naive = run(RunConfig(graph=g, potential=min_degree_potential(20, 100),
                          scheduler=UniformRandomScheduler(3), max_rounds=5,
                          engine="naive", record_rounds="all"))
    assert (naive.verdict, naive.rounds, naive.final_graph) == \
        (trace.verdict, trace.rounds, trace.final_graph)


def test_cycle_detection_exact_period_two():
    trace = run(RunConfig(graph=blinker(), potential=rule110_potential(100),
                          scheduler=CompleteScheduler(), max_rounds=50,
                          stop_mode="cycle"))
    assert trace.verdict.kind == "cycle"
    assert trace.verdict.period == 2
    assert trace.verdict.round == 0


def test_max_rounds_validation():
    base = dict(graph=DynGraph(2), potential=min_degree_potential(0, 1),
                scheduler=CompleteScheduler())
    with pytest.raises(ConfigError):
        RunConfig(max_rounds=0, **base)
    with pytest.raises(ConfigError, match="^unknown record_rounds 'change'; "
                                          "allowed: all, changes, auto$"):
        RunConfig(max_rounds=1, record_rounds="change", **base)
    with pytest.raises(ConfigError, match="^unknown stop_mode 'fixed_point'; "
                                          "allowed: cycle, budget$"):
        RunConfig(max_rounds=1, stop_mode="fixed_point", **base)
    with pytest.raises(ConfigError, match="^unknown engine 'bogus'; allowed: auto, naive$"):
        RunConfig(max_rounds=1, engine="bogus", **base)


@pytest.mark.parametrize("engine", ["bogus", "naive", "incremental", "bulk"])
def test_rewrite_protocols_run_on_engine_auto_only(engine):
    base = dict(graph=DynGraph(4), potential=star_protocol(1),
                scheduler=UniformRandomScheduler(1), max_rounds=5)
    with pytest.raises(ConfigError, match=repr(engine)):
        RunConfig(engine=engine, **base)
    assert run(RunConfig(engine="auto", **base)).metadata["protocol"] == "star"


@pytest.mark.parametrize("n, window", [(2, 12), (5, 48), (12, 272)])
def test_stochastic_sweep_window(n, window):
    """A uniform run that starts at a fixed point sweeps all pairs after
    4 C(n,2) + 8 quiet rounds; the clean sweep stabilizes it at round 0."""
    trace = run(RunConfig(graph=DynGraph(n), potential=min_degree_potential(0, 1),
                          scheduler=UniformRandomScheduler(1), max_rounds=10_000,
                          engine="naive", record_rounds="all"))
    assert trace.verdict == Verdict("stabilized", 0)
    assert len(trace.rounds) == window


@pytest.mark.parametrize("engine, potential, scheduler, stepper", [
    ("incremental", min_degree_potential(1, 3), CompleteScheduler(), "NaiveStepper"),
    ("bulk", community_potential(1, 3), CompleteScheduler(), "NaiveStepper"),
    ("bulk", two_step_merge(rule110_potential(10)), CompleteScheduler(), "IncrementalStepper"),
    ("incremental", rule110_potential(10), FairRoundRobinScheduler(2), "NaiveStepper"),
    ("bulk", rule110_potential(10), UniformRandomScheduler(1), "NaiveStepper"),
])
def test_forced_routes_are_refused_when_the_config_is_built(engine, potential, scheduler,
                                                            stepper):
    # a route is not forced: auto takes the fast one wherever one applies
    cfg = dict(graph=random_graph(48, 0.9, 0), potential=potential, scheduler=scheduler,
               max_rounds=2, stop_mode="budget")
    with pytest.raises(ConfigError, match=f"^unknown engine '{engine}'; allowed: auto, naive$"):
        RunConfig(engine=engine, **cfg)
    trace = run(RunConfig(**cfg))
    assert trace.metadata["engine"] == stepper
    if stepper == "IncrementalStepper":
        assert trace.change_count


# ---------------------------------------------------------------------------
# engine equivalences

@pytest.mark.parametrize("seed", range(5))
def test_prune_matches_unpruned_naive(seed):
    g = random_graph(50, 0.85, seed)
    pot = rule110_potential(10)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=12,
                stop_mode="budget", record_rounds="all")
    t_plain = run(RunConfig(graph=g.copy(), engine="naive", **base))
    t_prune = run(RunConfig(graph=g.copy(), engine="auto", **base))
    assert t_prune.metadata["prune"] and not t_plain.metadata["prune"]
    assert t_prune.metadata["engine"] == "IncrementalStepper"
    assert [r.fingerprint for r in t_plain.rounds] == \
        [r.fingerprint for r in t_prune.rounds]


@pytest.mark.parametrize("seed", range(3))
def test_auto_runs_pair_rules_incrementally_on_small_graphs(seed):
    # the route does not depend on the size: 8 nodes, and a low floor at
    # which every one of these runs changes the graph
    g = random_graph(8, 0.6, seed)
    base = dict(potential=_table_potential(1, seed), scheduler=CompleteScheduler(),
                max_rounds=6, stop_mode="budget", record_rounds="all")
    auto = run(RunConfig(graph=g, **base))
    naive = run(RunConfig(graph=g, engine="naive", **base))
    assert auto.metadata["engine"] == "IncrementalStepper" and auto.change_count
    assert auto.rounds == naive.rounds and auto.verdict == naive.verdict


def _fair_script(n, seed, chunk):
    pairs = list(all_pairs(n))
    random.Random(seed).shuffle(pairs)
    return [pairs[k:k + chunk] for k in range(0, len(pairs), chunk)]


@pytest.mark.parametrize("scheduler", [
    FairRoundRobinScheduler(150),
    ScriptedScheduler(_fair_script(50, 1, 150), 50, repeat=True, claim_fair=True),
    UniformRandomScheduler(4),
], ids=lambda s: s.name)
def test_auto_prunes_like_naive_under_other_schedulers(scheduler):
    g = random_graph(50, 0.85, 2)
    base = dict(potential=rule110_potential(10), scheduler=scheduler,
                max_rounds=40 if scheduler.deterministic else 4000,
                stop_mode="budget", record_rounds="all")
    ref = run(RunConfig(graph=g, engine="naive", **base))
    pruned = run(RunConfig(graph=g, **base))
    assert pruned.metadata["prune"] is True and not ref.metadata["prune"]
    assert ref.change_count
    assert pruned.verdict == ref.verdict
    assert pruned.rounds == ref.rounds
    assert pruned.final_graph == ref.final_graph


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
    runs = [run(RunConfig(graph=g.copy(), engine=e, **base)) for e in ("naive", "auto")]
    assert [t.metadata["prune"] for t in runs] == [False, True]
    assert runs[1].metadata["engine"] == "IncrementalStepper"
    fps = [[r.fingerprint for r in t.rounds] for t in runs]
    oracle = [fp for _, fp in oracle_rounds(g.copy(), pot, len(fps[0]))]
    assert fps[0] == fps[1] == oracle


def test_every_pruning_route_rejects_a_false_floor():
    # drops edges with a single common neighbor, below its claimed floor of 2
    stats = PairStatsRule(decide=lambda edge, cn, ce_fn: 0 if cn == 1 else edge,
                          cn_floor=2)
    pot = Potential(name="false_floor", alpha=1, beta=1,
                    evaluator=lambda g, u, v: 0, pair_stats=stats)
    base = dict(graph=path_graph(4), potential=pot, scheduler=CompleteScheduler(),
                max_rounds=1)
    with pytest.raises(ContractError, match="cn=1"):
        run(RunConfig(**base))
    with pytest.raises(ContractError, match="cn=1"):
        BulkOracle(path_graph(4), pot)
    run(RunConfig(engine="naive", **base))      # the unpruned reference never relies on it


@pytest.mark.parametrize("seed", range(5))
def test_incremental_and_bulk_match_naive(seed):
    g = random_graph(48, 0.9, seed)
    pot = rule110_potential(10)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=10,
                stop_mode="budget", record_rounds="all")
    fps = {}
    for engine in ("naive", "auto"):
        fresh = []
        t = run(RunConfig(graph=g.copy(), engine=engine,
                          observers=(lambda t, h, d, diff: fresh.append(graph_fingerprint(h)),),
                          **base))
        assert t.metadata["engine"] == ("IncrementalStepper" if engine == "auto"
                                        else "NaiveStepper")
        fps[engine] = [r.fingerprint for r in t.rounds]
        # the run's incremental XOR equals a fresh fold after every round
        assert fps[engine] == fresh, engine
        assert t.change_count and fresh[-1] == graph_fingerprint(t.final_graph)
        assert t.diff == g.edge_set() ^ t.final_graph.edge_set()
    # the oracle checks the maintained fingerprint against the fold itself
    fps["bulk"] = [fp for _, fp in oracle_rounds(g.copy(), pot, len(fps["naive"]))]
    assert fps["naive"] == fps["auto"] == fps["bulk"]


@pytest.mark.parametrize("seed", range(4))
def test_incremental_counts_stay_exact(seed):
    g = random_graph(52, 0.88, seed)
    stepper = IncrementalStepper(g, rule110_potential(10))
    stepper.verify_counts()
    for t in range(8):
        stepper.advance(t)
        stepper.verify_counts()


def _corrupt_count(stepper):
    stepper.cn.upper.data[0] += 1


def _flip_adjacency(stepper):
    stepper.a_hh.data[0] = 0


def _stale_older(stepper):
    # one substep of a rule that removes every edge of the K5; the state kept
    # from before it then holds the adjacency after it
    drop = PairStatsRule(decide=lambda edge, cn, ce_fn: 0 if cn >= 3 else edge, cn_floor=3)
    stepper.decisions = Decisions(drop, 4)
    assert len(stepper._substep().removals) == 10
    stepper.verify_counts()
    stepper.older = (stepper.a_hh, stepper.older[1])


def _raise_outside_node(stepper):
    # an untracked node gains edges until it reaches the floor
    g = stepper.g
    low = min(set(range(g.n)) - set(stepper.cn.ids.tolist()))
    for v in range(g.n):
        if g.degree(low) >= stepper.floor:
            break
        if v != low:
            g.add_edge(low, v)


def _tamper_degrees(stepper):
    stepper.g.degrees[7] += 1


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_count, "common neighbor counts diverged"),
    (_flip_adjacency, "adjacency among the tracked nodes diverged"),
    (_raise_outside_node, "reached the floor outside the tracked set"),
    (_stale_older, "older state plus the last toggles: adjacency among the tracked nodes"),
    (_tamper_degrees, r"maintained degree list diverged \(first at node 7: listed 2, degree 1\)"),
])
def test_verify_counts_catches_each_corruption(corrupt, message):
    # K5 on 0..4 plus leaves 5..9 hung off node 0: the leaves stay below the
    # floor of 3
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    g = DynGraph.from_edges(10, edges + [(0, leaf) for leaf in range(5, 10)])
    keep = PairStatsRule(decide=lambda edge, cn, ce_fn: edge, cn_floor=3)
    stepper = IncrementalStepper(g, Potential(name="keep", alpha=1, beta=1,
                                              evaluator=lambda g, u, v: 0,
                                              pair_stats=keep))
    stepper.verify_counts()
    assert stepper.cn.ids.tolist() == list(range(5))
    corrupt(stepper)
    with pytest.raises(ContractError, match=message):
        stepper.verify_counts()


def _table_potential(floor, seed):
    """Pair-statistics rule with a random decision table at and above a low
    floor: an edge is kept or dropped, a non-edge added or not, by its
    common neighbor count. It removes more than it adds, so high nodes fall
    below the floor."""
    rng = random.Random(seed)
    keep = {c: rng.random() < 0.5 for c in range(floor, 64)}
    add = {c: rng.random() < 0.25 for c in range(floor, 64)}

    def decide(edge, cn, ce_fn):
        if cn < floor:
            return edge
        return int(keep[cn] if edge else add[cn])

    def evaluate(g, u, v):
        return decide(int(g.has_edge(u, v)), g.common_neighbors(u, v), None)
    return Potential(name="table", alpha=1, beta=1, evaluator=evaluate,
                     pair_stats=PairStatsRule(decide=decide, cn_floor=floor))


def _at_floor(g, floor):
    return {u for u in range(g.n) if g.degree(u) >= floor}


def test_incremental_drops_nodes_that_fall_below_the_floor():
    # K6 on 0..5 plus node 6 joined to 0 and 1: node 6 stays below the floor
    # of 3, yet it is a common neighbor of 0 and 1
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(0, 6), (1, 6)]
    g = DynGraph.from_edges(7, edges)
    drop = PairStatsRule(decide=lambda edge, cn, ce_fn: 0 if cn >= 3 else edge,
                         cn_floor=3)
    pot = Potential(name="drop", alpha=1, beta=1, evaluator=lambda g, u, v: 0,
                    pair_stats=drop)
    stepper = IncrementalStepper(g, pot)
    stepper.verify_counts()
    # the tracked nodes are 0..5, so positions in the count matrix are node ids
    assert stepper.cn.ids.tolist() == list(range(6)) and stepper.cn.upper[0, 1] == 5
    delta, _ = stepper.advance(0)
    assert len(delta.removals) == 15
    # (0, 1) still has node 6 in common, but no node is at the floor any more:
    # the tracked set stays, with exact counts below the floor
    assert max(map(g.degree, range(g.n))) < 3
    assert stepper.cn.ids.tolist() == list(range(6)) and stepper.cn.upper[0, 1] == 1
    assert stepper.cn.upper.max() < 3 and stepper.advance(1)[0].empty
    stepper.verify_counts()


def test_incremental_refuses_a_graph_edited_behind_its_back():
    # K6 on 0..5 plus node 6: the first substep removes all 15 edges of the K6
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(0, 6), (1, 6)]
    g = DynGraph.from_edges(7, edges)
    drop = PairStatsRule(decide=lambda edge, cn, ce_fn: 0 if cn >= 3 else edge,
                         cn_floor=3)
    stepper = IncrementalStepper(g, Potential(name="drop", alpha=1, beta=1,
                                              evaluator=lambda g, u, v: 0, pair_stats=drop))
    g.fingerprint
    g.remove_edge(2, 3)
    with pytest.raises(ContractError, match=r"^delta removes missing edge \(2,3\)$"):
        stepper.advance(0)
    # refused before any write: the graph keeps its count and fingerprint
    assert g.m == len(edges) - 1 and g.fingerprint == graph_fingerprint(g)


def test_incremental_floor_crossings_match_naive():
    dropped = 0
    for seed in range(12):
        floor = 2 + seed % 3
        g = random_graph(20, 0.4, seed)
        pot = _table_potential(floor, seed)
        stepper = IncrementalStepper(g.copy(), pot)
        stepper.verify_counts()
        naive = run(RunConfig(graph=g, potential=pot, scheduler=CompleteScheduler(),
                              max_rounds=6, engine="naive", stop_mode="budget",
                              record_deltas=True))
        tracked = stepper.cn.ids.tolist()
        for t in range(6):
            before = _at_floor(stepper.g, floor)
            delta, _ = stepper.advance(t)
            stepper.verify_counts()
            # only tracked nodes change degree, so no node rises to the floor
            after = _at_floor(stepper.g, floor)
            assert after <= before, (seed, t)
            assert stepper.cn.ids.tolist() == tracked, (seed, t)
            dropped += len(before - after)
            want = naive.deltas[t] if t < len(naive.deltas) else EdgeDelta()
            assert delta == want, (seed, t)
    assert dropped >= 10


def test_verify_counts_catches_a_drifted_fingerprint():
    g = random_graph(20, 0.5, 3)
    stepper = IncrementalStepper(g, _table_potential(3, 3))
    stepper.advance(0)
    stepper.verify_counts()
    assert g._fp is not None
    g._fp ^= 1
    with pytest.raises(ContractError, match="maintained fingerprint"):
        stepper.verify_counts()


# ---------------------------------------------------------------------------
# the maintained fingerprint on every route

def _fold_check(seen):
    """Observer recording, per round, the graph's maintained fingerprint
    and a fresh fold of it."""
    def observe(t, g, delta, diff):
        seen.append((g.fingerprint, graph_fingerprint(g)))
    return observe


@pytest.mark.parametrize("route", ["naive", "incremental", "bulk", "merged", "merged-bulk",
                                   "auto-pruned", "rewrite"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cached", [False, True])
def test_maintained_fingerprint_equals_the_fold_every_round(route, seed, cached):
    g = random_graph(20, 0.4, seed)
    if cached:
        g.fingerprint     # the run's copy then starts from a maintained value
    table = _table_potential(2 + seed, seed)
    engine, potential, scheduler = {
        "naive": ("naive", table, CompleteScheduler()),
        "incremental": ("auto", table, CompleteScheduler()),
        "bulk": (None, table, None),
        "merged": ("auto", two_step_merge(table), CompleteScheduler()),
        "merged-bulk": (None, two_step_merge(table), None),
        "auto-pruned": ("auto", table, FairRoundRobinScheduler(17)),
        "rewrite": ("auto", star_protocol(seed), UniformRandomScheduler(seed)),
    }[route]
    if engine is None:
        # the oracle compares the maintained fingerprint with the fold itself
        steps = oracle_rounds(g, potential, 300)
        assert any(delta for delta, _ in steps)
        return
    seen = []
    trace = run(RunConfig(graph=g, potential=potential, scheduler=scheduler,
                          max_rounds=300, engine=engine, stop_mode="budget",
                          record_rounds="all", observers=(_fold_check(seen),)))
    assert trace.change_count
    if route in ("incremental", "merged"):
        assert trace.metadata["engine"] == "IncrementalStepper"
    assert len(seen) == len(trace.rounds)
    for t, ((kept, folded), record) in enumerate(zip(seen, trace.rounds)):
        assert kept == folded == record.fingerprint, (route, t)
    assert trace.final_graph.fingerprint == graph_fingerprint(trace.final_graph)


# ---------------------------------------------------------------------------
# degree classes and the diff on every route, in both delta forms

@pytest.fixture(params=["pairs", "codes", "as built"])
def delta_form(request, monkeypatch):
    """Hold every delta as pairs (booked node by node), every delta built
    from codes as codes (booked in bulk), or choose by size."""
    size = {"pairs": 10**9, "codes": 1, "as built": graph_module.CODE_FORM_PAIRS}[request.param]
    monkeypatch.setattr(graph_module, "CODE_FORM_PAIRS", size)
    return request.param


@pytest.mark.parametrize("route, stepper", [
    ("naive", "NaiveStepper"), ("incremental", "IncrementalStepper"),
    ("merged", "IncrementalStepper"), ("active-set", "ActiveSetStepper"),
    ("array round robin", "NaiveStepper"), ("rewrite", None)])
@pytest.mark.parametrize("seed", range(2))
def test_classes_and_diff_are_exact_every_round(route, stepper, seed, delta_form):
    # complete rounds of these tables toggle from 2 to 87 pairs, over 12 and 14 rounds
    case = (5, 11)[seed]
    g = random_graph(18, 0.4, case)
    table = _table_potential(2, case)
    engine, potential, scheduler = {
        "naive": ("naive", table, CompleteScheduler()),
        "incremental": ("auto", table, CompleteScheduler()),
        "merged": ("auto", two_step_merge(table), CompleteScheduler()),
        "active-set": ("auto", min_degree_potential(6, 100), UniformRandomScheduler(seed)),
        "array round robin": ("auto", min_degree_potential(7, 100), FairRoundRobinScheduler(23)),
        "rewrite": ("auto", star_protocol(seed), UniformRandomScheduler(seed)),
    }[route]
    initial = g.edge_set()
    seen = []

    def observe(t, h, delta, diff):
        seen.append((degree_classes(h).count, diff == initial ^ h.edge_set()))
    trace = run(RunConfig(graph=g, potential=potential, scheduler=scheduler, max_rounds=300,
                          engine=engine, record_rounds="all", record_deltas=True,
                          observers=() if route == "active-set" else (observe,)))
    assert trace.metadata.get("engine") == stepper and trace.change_count
    if route != "active-set":
        assert seen == [(record.classes, True) for record in trace.rounds]
    # replayed on a copy, every round's record counts the classes of its graph
    h = g.copy()
    for record, delta in zip(trace.rounds, trace.deltas, strict=True):
        h.apply_delta(delta)
        assert record.classes == degree_classes(h).count, record.t
    assert h == trace.final_graph and trace.diff == initial ^ h.edge_set()


@pytest.mark.parametrize("engine", ["auto", "naive"])
def test_complete_community_run_keeps_no_ce(monkeypatch, engine):
    # only a caller that knows the count is read again on the same state
    # keeps it; the rule's own reads on either route keep none
    g = random_graph(14, 0.5, 4)
    held = []
    count = DynGraph.common_neighbor_edges

    def counted(h, u, v):
        held.append(len((h._tables or {}).get(graph_module._CE, ())))
        return count(h, u, v)
    monkeypatch.setattr(DynGraph, "common_neighbor_edges", counted)
    trace = run(RunConfig(graph=g, potential=community_potential(5, 5),
                          scheduler=CompleteScheduler(), max_rounds=20, stop_mode="budget",
                          engine=engine))
    assert trace.change_count and len(held) > 20
    assert max(held) == 0


@pytest.mark.parametrize("seed", range(6))
def test_active_route_fingerprints_equal_naive_and_the_fold(seed):
    # the active route takes no observers: its records must equal naive's
    g = random_graph(18, 0.3, seed)
    pot = min_degree_potential(5, 100)
    ref, act = _run_both(g, pot, seed, "all")
    assert act.metadata["engine"] == "ActiveSetStepper" and act.change_count
    assert act.rounds == ref.rounds[:act.verdict.round]
    assert act.final_graph.fingerprint == graph_fingerprint(act.final_graph)
    assert act.rounds[-1].fingerprint == graph_fingerprint(act.final_graph)


def test_graph_reused_across_runs_keeps_its_fingerprint(monkeypatch):
    # copy_graph off, as a reused rule-110 runner runs: the second run reads
    # the value the first one kept up to date, edits between runs included,
    # without folding again
    g = blinker()
    cfg = dict(graph=g, potential=rule110_potential(100), scheduler=CompleteScheduler(),
               max_rounds=3, stop_mode="budget", copy_graph=False, record_rounds="all")
    first = run(RunConfig(**cfg))
    assert first.metadata["engine"] == "IncrementalStepper"
    assert first.change_count and g._fp == graph_fingerprint(g)
    g.remove_edge(2, 3)
    folds = []
    fold = graph_module.graph_fingerprint
    monkeypatch.setattr(graph_module, "graph_fingerprint",
                        lambda h: folds.append(h) or fold(h))
    second = run(RunConfig(**cfg))
    monkeypatch.undo()
    assert not folds and second.change_count
    assert second.rounds[-1].fingerprint == g.fingerprint == graph_fingerprint(g)


@pytest.mark.parametrize("engine", ["naive", "auto"])
def test_runs_on_one_source_graph_fold_it_once(monkeypatch, engine):
    # each run copies the source graph, and the copy inherits the fingerprint
    # the first run folded on the source
    g = random_graph(20, 0.4, 0)
    folds = []
    fold = graph_module.graph_fingerprint
    monkeypatch.setattr(graph_module, "graph_fingerprint",
                        lambda h: folds.append(h) or fold(h))
    cfg = dict(graph=g, potential=_table_potential(3, 0), scheduler=CompleteScheduler(),
               max_rounds=3, engine=engine, stop_mode="budget", record_rounds="all")
    first = run(RunConfig(**cfg))
    assert len(folds) == 1 and folds[0] is g
    second = run(RunConfig(**cfg))
    monkeypatch.undo()
    assert len(folds) == 1 and first.change_count and second.rounds == first.rounds
    assert g == random_graph(20, 0.4, 0) and g.fingerprint == graph_fingerprint(g)


@pytest.mark.parametrize("seed", range(3))
def test_incremental_merged_matches_generic_merged(seed):
    # a low floor: on 14 nodes no pair reaches rule 110's floor of 40
    pot = two_step_merge(_table_potential(2 + seed, seed))
    g = random_graph(14, 0.5, seed)
    base = dict(potential=pot, scheduler=CompleteScheduler(), max_rounds=3,
                stop_mode="budget", record_rounds="all")
    naive, auto = (run(RunConfig(graph=g.copy(), engine=engine, **base))
                   for engine in ("naive", "auto"))
    assert naive.change_count and auto.metadata["engine"] == "IncrementalStepper"
    assert naive.rounds == auto.rounds
    oracle = oracle_rounds(g.copy(), pot, len(naive.rounds))
    assert [(len(d.additions), len(d.removals), fp) for d, fp in oracle] == \
        [(r.added, r.removed, r.fingerprint) for r in naive.rounds]


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


def _pairwise_degree_properties(graphs, start=1):
    """The pairwise loop that ``check_degree_properties`` replaced, kept as
    its oracle."""
    violations = []
    checked = 0
    for t in range(start, len(graphs) - 1):
        g, h = graphs[t], graphs[t + 1]
        checked += 1
        n = g.n
        dg = [g.degree(u) for u in range(n)]
        dh = [h.degree(u) for u in range(n)]
        order = sorted(range(n), key=lambda u: -dg[u])
        for a in range(n):
            u = order[a]
            for b in range(a + 1, n):
                w = order[b]
                if dh[u] < dh[w]:
                    violations.append(("P1", t, (u, w)))
                nu = h.neighbors(u) - {w}
                nw = h.neighbors(w) - {u}
                if dg[u] == dg[w]:
                    if nu != nw:
                        violations.append(("P2", t, (u, w)))
                elif not nw <= nu:
                    violations.append(("L4", t, (u, w)))
        cg, ch = degree_classes(g), degree_classes(h)
        if ch.count > cg.count:
            violations.append(("P3", t, (cg.count, ch.count)))
        elif ch.count == cg.count:
            sizes_g = tuple(len(c) for c in cg.classes)
            sizes_h = tuple(len(c) for c in ch.classes)
            if sizes_g != sizes_h:
                violations.append(("P4", t, (sizes_g, sizes_h)))
    return violations, checked


@pytest.mark.parametrize("block", [None, 1, 7])
def test_check_degree_properties_matches_the_pairwise_loop(block, monkeypatch):
    rng = random.Random(11)
    kinds = set()
    for case in range(60):
        n = case if case < 3 else rng.randint(3, 16)
        p = rng.choice([0.2, 0.5, 0.8])
        snaps = [random_graph(n, p, rng.randrange(10**6))]
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                snaps.append(snaps[-1].copy())     # a quiet round
            else:
                snaps.append(random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6)))
        start = rng.choice([0, 1])
        expected, checked = _pairwise_degree_properties(snaps, start)
        if block is not None:       # rows per block
            monkeypatch.setattr(engine_module, "BLOCK_ENTRIES", block * n)
        report = check_degree_properties(snaps, start=start)
        assert [(v.prop, v.round, v.witness) for v in report.violations] == expected
        assert report.rounds_checked == checked
        kinds.update(v[0] for v in expected)
    assert kinds == {"P1", "P2", "L4", "P3", "P4"}


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


# ---------------------------------------------------------------------------
# the active-pair route against the naive reference

@st.composite
def node_form_cases(draw):
    """A graph with n <= 25 and a node-form potential. The thresholds
    are values the potential takes on the graph's pairs (beta may also lie
    above all of them, which rules creation out), so runs remove and create."""
    n = draw(st.integers(2, 25))
    g = random_graph(n, draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.85])),
                     draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["min_degree", "proper", "niceness"]))
    fname = draw(st.sampled_from(sorted(PROPER_FUNCTIONS)))
    f = PROPER_FUNCTIONS[fname]
    if kind == "min_degree":
        make = min_degree_potential
    elif kind == "proper":
        def make(alpha, beta):
            return proper_degree_potential(f, alpha, beta, name=f"proper_{fname}")
    else:
        g_fn = niceness_g(random_profile(n, draw(st.integers(0, 1000))))

        def make(alpha, beta):
            return degree_like_potential(f, g_fn, alpha, beta, name="niceness",
                                         validate_nodes=n)
    probe = make(0, 0)
    values = sorted(probe.value(g, u, v) for u, v in all_pairs(n))
    i = draw(st.integers(0, len(values) - 1))
    beta_at = draw(st.sampled_from(["alpha", "above_all", "value"]))
    if beta_at == "alpha":
        beta = values[i]
    elif beta_at == "above_all":
        beta = values[-1] + n
    else:
        beta = draw(st.sampled_from(values[i:]))
    return g, make(values[i], beta)


def _run_both(g, pot, seed, record_rounds):
    return [run(RunConfig(graph=g, potential=pot, scheduler=UniformRandomScheduler(seed),
                          max_rounds=60_000, engine=engine, record_rounds=record_rounds))
            for engine in ("naive", "auto")]


@settings(max_examples=150)
@given(node_form_cases(), st.integers(0, 1000))
def test_active_route_matches_naive(case, seed):
    g, pot = case
    ref, act = _run_both(g, pot, seed, "changes")
    assert act.metadata["engine"] == "ActiveSetStepper"
    assert act.verdict == ref.verdict
    assert act.changed_rounds == ref.changed_rounds
    assert act.rounds == ref.rounds
    assert act.final_graph == ref.final_graph
    assert act.diff == ref.diff


@settings(max_examples=40)
@given(node_form_cases(), st.integers(0, 1000))
def test_active_route_records_every_round_like_naive(case, seed):
    g, pot = case
    ref, act = _run_both(g, pot, seed, "all")
    assert act.metadata["engine"] == "ActiveSetStepper"
    assert act.verdict == ref.verdict
    assert act.rounds == ref.rounds[:act.verdict.round]


def _triangles_at(g, u):
    """Edges among u's neighbours: not a degree-like function, since a toggle
    between two neighbours of u changes it."""
    nbrs = g.neighbors(u)
    return sum(len(g.neighbors(w) & nbrs) for w in nbrs) // 2


def test_active_route_rejects_a_false_locality_certificate():
    # min(h(u), h(v)) >= 1 creates (1, 2) only; that gives node 0 its first
    # edge among neighbours, so (0, 3) and (0, 4) reach beta although neither
    # has an endpoint at 1 or 2; the confirming sweep finds them
    g = DynGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    pot = degree_like_potential(min, _triangles_at, 0, 1, name="triangles", validate=False)
    assert pot.node_form == (min, _triangles_at)
    for seed in range(5):
        with pytest.raises(ContractError, match="node_form"):
            run(RunConfig(graph=g, potential=pot, scheduler=UniformRandomScheduler(seed),
                          max_rounds=10_000))
    naive = run(RunConfig(graph=g, potential=pot, scheduler=UniformRandomScheduler(0),
                          max_rounds=10_000, engine="naive"))
    assert naive.verdict.kind == "stabilized" and naive.final_graph.m == 10


def test_active_route_selection():
    g = random_graph(12, 0.3, 2)
    pot = min_degree_potential(2, 100)

    def engine_of(**kw):
        cfg = dict(graph=g, potential=pot, scheduler=UniformRandomScheduler(1), max_rounds=50)
        return run(RunConfig(**{**cfg, **kw})).metadata["engine"]

    assert engine_of() == "ActiveSetStepper"
    assert engine_of(observers=(snapshot_observer([]),)) == "NaiveStepper"
    assert engine_of(potential=community_potential(0, 100)) == "NaiveStepper"
    assert engine_of(scheduler=CompleteScheduler()) == "NaiveStepper"
    assert engine_of(scheduler=FairRoundRobinScheduler(3)) == "NaiveStepper"
    assert engine_of(engine="naive") == "NaiveStepper"
    # a node-form rule without a numpy twin is decided pair by pair there
    user_min = degree_like_potential(lambda x, y: min(x, y), degree, 2, 100, validate=False)
    assert engine_of(potential=user_min) == "ActiveSetStepper"


def test_uniform_runs_with_observers_sweep_on_every_route():
    # with an observer a uniform run is not on the active route; it sweeps
    # after its quiet streak under auto and under forced naive alike
    g = random_graph(12, 0.3, 2)
    user_min = degree_like_potential(lambda x, y: min(x, y), degree, 2, 100, validate=False)

    def verdict(potential, engine):
        return run(RunConfig(graph=g, potential=potential, scheduler=UniformRandomScheduler(1),
                             max_rounds=5000, engine=engine,
                             observers=(lambda t, h, delta, diff: None,))).verdict

    for pot in (min_degree_potential(2, 100), user_min):
        auto = verdict(pot, "auto")
        assert auto.kind == "stabilized"
        assert auto == verdict(pot, "naive")
