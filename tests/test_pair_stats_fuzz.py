"""Differential fuzzing of the pair-statistics routes: generated graphs and
random decision tables that meet (or violate) a random low floor."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdyn.engine import RunConfig, run
from abdyn.errors import ContractError
from abdyn.fastpath import Decisions, IncrementalStepper
from abdyn.graph import DynGraph, EdgeDelta, graph_fingerprint
from abdyn.potentials import PairStatsRule, Potential, rule110_potential, two_step_merge
from abdyn.schedulers import CompleteScheduler, FairRoundRobinScheduler

from conftest import BulkOracle, blinker, oracle_rounds, random_graph

ROUTES = ("naive", "auto")
ROUNDS = 6
# what a table entry does with the pair's edge state; "ce" reads the
# common neighbor edges, "ce-caught" too but keeps the state if that fails
ACTIONS = ("keep", "flip", "on", "off", "ce", "ce-caught")
READS_CE = ("ce", "ce-caught")
TOP = 14        # counts at or above it keep the state; graphs have n <= TOP


def _table_rule(floor: int, table: dict) -> PairStatsRule:
    def decide(edge, cn, ce_fn):
        act = table.get((edge, cn), "keep")
        if act == "keep":
            return edge
        if act == "flip":
            return 1 - edge
        if act == "ce":
            return ce_fn() % 2
        if act == "ce-caught":
            try:
                return ce_fn() % 2
            except Exception:
                return edge
        return int(act == "on")
    decide.table = table    # the tests read it back; the routes see decide only
    return PairStatsRule(decide=decide, cn_floor=floor)


def _random_table(rng: random.Random) -> PairStatsRule:
    """A decision table over a floor of 1 to 3 that never reads the common
    neighbor edges."""
    floor = rng.randint(1, 3)
    return _table_rule(floor, {(e, c): rng.choice(ACTIONS[:4])
                               for e in (0, 1) for c in range(floor, TOP)})


def _potential(rule: PairStatsRule) -> Potential:
    def evaluate(g, u, v):
        return rule.decide(int(g.has_edge(u, v)), g.common_neighbors(u, v),
                           lambda: g.common_neighbor_edges(u, v))
    return Potential(name="table", alpha=1, beta=1, evaluator=evaluate, pair_stats=rule)


@st.composite
def table_rules(draw, valid: bool = True):
    """A decision table that keeps the state below its floor, or, with
    ``valid=False``, one entry below the floor that changes it or reads the
    common neighbor edges."""
    floor = draw(st.integers(1, 4))
    table = {(edge, c): draw(st.sampled_from(ACTIONS[:4]))
             for edge in (0, 1) for c in range(floor, TOP)}
    # any number of cells, from none to all, read the common neighbor edges
    for cell in draw(st.sets(st.sampled_from(sorted(table)))):
        table[cell] = draw(st.sampled_from(READS_CE))
    if not valid:
        edge = draw(st.integers(0, 1))
        c = draw(st.integers(0, floor - 1))
        table[edge, c] = draw(st.sampled_from(("flip", "ce", "ce-caught",
                                               "off" if edge else "on")))
    return _table_rule(floor, table)


@st.composite
def graphs(draw, max_n: int = TOP):
    n = draw(st.integers(4, max_n))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))    # 0.1: often no pair at the floor
    return random_graph(n, p, draw(st.integers(0, 10_000)))


def _run(g, pot, engine, rounds):
    trace = run(RunConfig(graph=g.copy(), potential=pot, scheduler=CompleteScheduler(),
                          max_rounds=rounds, engine=engine, stop_mode="budget",
                          record_rounds="all", record_deltas=True))
    # auto takes the incremental route on every pair rule, merged ones included
    assert trace.metadata["engine"] == ("IncrementalStepper" if engine == "auto"
                                        else "NaiveStepper")
    return trace


def _padded(trace, rounds):
    """The delta of each of ``rounds`` rounds and the fingerprint after it; a
    run that stops at its fixed point keeps its last graph."""
    deltas = trace.deltas + [EdgeDelta()] * (rounds - len(trace.deltas))
    fps = [r.fingerprint for r in trace.rounds]
    return deltas, fps + fps[-1:] * (rounds - len(fps))


def _states(g, pot, engine, rounds):
    """Fingerprint after each of ``rounds`` rounds."""
    return _padded(_run(g, pot, engine, rounds), rounds)[1]


def _oracle_states(g, pot, rounds):
    """The deltas and fingerprints of :func:`_padded`, by the oracle."""
    steps = oracle_rounds(g.copy(), pot, rounds)
    return [delta for delta, _ in steps], [fp for _, fp in steps]


@settings(max_examples=120)
@given(graphs(), table_rules())
def test_routes_agree_round_by_round(g, rule):
    pot = _potential(rule)
    traces = {engine: _run(g, pot, engine, ROUNDS) for engine in ROUTES}
    naive = traces["naive"]
    for engine, trace in traces.items():
        assert trace.deltas == naive.deltas, engine
        assert [r.fingerprint for r in trace.rounds] == [r.fingerprint for r in naive.rounds]
        assert trace.verdict == naive.verdict, engine
    want = _padded(naive, ROUNDS)
    assert _oracle_states(g, pot, ROUNDS) == want

    stepper = IncrementalStepper(g.copy(), pot)
    stepper.verify_counts()
    for t in range(ROUNDS):
        delta, _ = stepper.advance(t)
        stepper.verify_counts()
        assert delta == want[0][t], t
    assert graph_fingerprint(stepper.g) == graph_fingerprint(naive.final_graph)


@settings(max_examples=60)
@given(graphs(), table_rules(), st.integers(1, 30))
def test_pruned_pairwise_route_agrees_under_round_robin(g, rule, batch):
    # off the complete scheduler auto decides pairwise and skips the pairs
    # below the floor
    base = dict(graph=g, potential=_potential(rule), max_rounds=3 * ROUNDS,
                stop_mode="budget", record_rounds="all", record_deltas=True)
    naive, auto = (run(RunConfig(scheduler=FairRoundRobinScheduler(batch), engine=engine, **base))
                   for engine in ("naive", "auto"))
    assert auto.metadata["engine"] == "NaiveStepper" and auto.metadata["prune"]
    assert auto.deltas == naive.deltas and auto.rounds == naive.rounds
    assert auto.verdict == naive.verdict


@settings(max_examples=40)
@given(graphs(max_n=9), table_rules())
def test_merged_round_equals_two_plain_rounds(g, rule):
    pot = _potential(rule)
    plain = _states(g, pot, "naive", 4)
    merged = two_step_merge(pot)
    for engine in ROUTES:
        assert _states(g, merged, engine, 2) == plain[1::2], engine
    assert _oracle_states(g, merged, 2)[1] == plain[1::2]


@given(table_rules(valid=False))
def test_floor_violating_tables_are_rejected(rule):
    with pytest.raises(ContractError, match="cn_floor certificate violated"):
        Decisions(rule, rule.cn_floor)
    g = random_graph(8, 0.5, 0)
    with pytest.raises(ContractError):
        _run(g, _potential(rule), "auto", 1)
    with pytest.raises(ContractError):
        BulkOracle(g.copy(), _potential(rule))


# ---------------------------------------------------------------------------
# the tabulated decisions

@given(table_rules())
def test_decision_table_marks_exactly_the_cells_that_read_ce(rule):
    decisions = Decisions(rule, TOP)
    floor = rule.cn_floor
    assert not decisions.flips[:, :floor].any() and not decisions.slow[:, :floor].any()
    for (edge, c), act in rule.decide.table.items():
        assert decisions.slow[edge, c] == (act in READS_CE), (edge, c, act)
        if act not in READS_CE:
            assert decisions.flips[edge, c] == (rule.decide(edge, c, None) != edge)


def test_decision_table_sends_failing_cells_pair_by_pair():
    # decide raises at one count without reading ce: the table marks the
    # cell, and the error comes from the pair that has that count
    def decide(edge, cn, ce_fn):
        if cn == 5:
            raise ValueError("no rule for 5")
        return edge
    decisions = Decisions(PairStatsRule(decide=decide, cn_floor=2), 8)
    assert decisions.slow[:, 5].all() and decisions.slow.sum() == 2
    g = DynGraph(3)
    one = np.array([0])
    assert len(decisions.toggling(g, one, one + 1, one, np.array([4]))) == 0
    with pytest.raises(ValueError, match="no rule for 5"):
        decisions.toggling(g, one, one + 1, one, np.array([5]))


def _path(n):
    return DynGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_decision_table_grows_past_its_first_extent():
    # on a path every count is 0 or 1; adding every pair at a count of at
    # least 1 raises the counts round by round past the first table
    rule = _table_rule(1, {(0, c): "on" for c in range(1, TOP)})
    pot = _potential(rule)
    g = _path(12)
    naive = _run(g, pot, "naive", 4)
    assert naive.change_count == 4
    incremental = IncrementalStepper(g.copy(), pot)
    bulk = BulkOracle(g.copy(), pot)
    first = (len(incremental.decisions), len(bulk.decisions))
    assert first == (2, 2)
    for t in range(4):
        assert incremental.advance(t)[0] == bulk.advance() == naive.deltas[t], t
        incremental.verify_counts()
    assert len(incremental.decisions) > 10 and len(bulk.decisions) > 10


@pytest.mark.parametrize("merged", [False, True])
def test_substep_without_a_hot_pair(merged):
    # every count on a path is at most 1, below the floor of 2
    rule = _table_rule(2, {(e, c): "flip" for e in (0, 1) for c in range(2, TOP)})
    pot = two_step_merge(_potential(rule)) if merged else _potential(rule)
    g = _path(8)
    stepper = IncrementalStepper(g.copy(), pot)
    assert len(stepper._substep()) == 0
    assert stepper.advance(0)[0] == EdgeDelta() and stepper.g == g
    stepper.verify_counts()
    bulk = BulkOracle(g.copy(), pot)
    assert len(bulk._substep()) == 0
    assert bulk.advance() == EdgeDelta() and bulk.g == g
    for engine in ROUTES:
        trace = _run(g, pot, engine, 3)
        assert trace.verdict.kind == "stabilized" and not trace.change_count, engine


def test_merged_rounds_cancel_pairs_toggled_in_both_substeps():
    twice = once = 0
    for seed in range(40):
        rng = random.Random(seed)
        rule = _random_table(rng)
        g = random_graph(9, rng.choice((0.3, 0.5, 0.7)), seed)
        plain = _run(g, _potential(rule), "naive", 2).final_graph
        want = EdgeDelta.build(plain.edge_set() - g.edge_set(),
                               g.edge_set() - plain.edge_set())
        stepper = IncrementalStepper(g.copy(), two_step_merge(_potential(rule)))
        substeps = []
        substep = stepper._substep
        stepper._substep = lambda: substeps.append(substep()) or substeps[-1]
        delta, _ = stepper.advance(0)
        assert delta == want, seed
        stepper.verify_counts()
        first, second = (set(x.additions + x.removals) for x in substeps)
        twice += len(first & second)
        once += len(first ^ second)
    assert twice >= 20 and once >= 20


# ---------------------------------------------------------------------------
# the state kept from before the last toggling substep

def _pairs(delta: EdgeDelta) -> set:
    return set(delta.additions + delta.removals)


def _checked_substep(stepper: IncrementalStepper, oracle: BulkOracle) -> EdgeDelta:
    delta = stepper._substep()
    stepper.verify_counts()
    assert delta == oracle._substep()
    return delta


def _stepper_and_oracle(seed: int):
    rng = random.Random(seed)
    rule = _random_table(rng)
    g = random_graph(10, rng.choice((0.3, 0.5, 0.7)), seed)
    return IncrementalStepper(g.copy(), _potential(rule)), BulkOracle(g.copy(), _potential(rule))


def test_toggling_substeps_update_from_the_nearer_state():
    # a toggling substep takes the older state exactly when the pairs toggled
    # in one of it and the last toggling substep are fewer than its own
    taken = passed = 0
    for seed in range(40):
        stepper, oracle = _stepper_and_oracle(seed)
        last = None
        for _ in range(6):
            rebased = stepper.rebased
            delta = _checked_substep(stepper, oracle)
            nearer = bool(delta) and last is not None and (
                len(_pairs(last) ^ _pairs(delta)) < len(delta))
            assert stepper.rebased - rebased == nearer, seed
            if delta and last is not None:
                taken += nearer
                passed += not nearer
            last = delta or last
    assert taken >= 20 and passed >= 20


def test_an_empty_substep_keeps_both_states():
    # the rule toggles, then keeps every pair for one substep, then toggles
    # again: the third substep nets against the first
    taken = 0
    for seed in range(40):
        stepper, oracle = _stepper_and_oracle(seed)
        first = _checked_substep(stepper, oracle)
        kept = (stepper.older, stepper.toggled, stepper.a_hh, stepper.cn.upper)
        rule = stepper.decisions
        stepper.decisions = oracle.decisions = Decisions(_table_rule(stepper.floor, {}), TOP)
        assert not _checked_substep(stepper, oracle)
        assert all(a is b for a, b in zip(kept, (stepper.older, stepper.toggled,
                                                  stepper.a_hh, stepper.cn.upper)))
        stepper.decisions = oracle.decisions = rule
        third = _checked_substep(stepper, oracle)
        nearer = bool(first) and bool(third) and (
            len(_pairs(first) ^ _pairs(third)) < len(third))
        assert stepper.rebased == nearer, seed
        taken += nearer
    assert taken >= 5


def test_a_refused_delta_leaves_both_states():
    # the blinker's rule toggles (0, 1) in every substep, so from the second
    # on the net toggles against the older state are none
    g = blinker()
    stepper = IncrementalStepper(g, rule110_potential(100))
    assert _pairs(stepper._substep()) == {(0, 1)} and not stepper.rebased
    assert _pairs(stepper._substep()) == {(0, 1)} and stepper.rebased == 1
    stepper.verify_counts()

    def state():
        return (stepper.older, stepper.toggled, stepper.a_hh, stepper.cn.upper)
    kept = state()
    g.remove_edge(0, 1)
    with pytest.raises(ContractError, match=r"^delta removes missing edge \(0,1\)$"):
        stepper._substep()
    assert all(a is b for a, b in zip(kept, state())) and stepper.rebased == 1
    g.add_edge(0, 1)

    # kept toggles that claim (0, 1) was added are refused before any write
    toggled = stepper.toggled
    stepper.toggled = toggled._replace(sign=-toggled.sign)
    with pytest.raises(ContractError, match="moved the same way twice"):
        stepper._substep()
    assert g.has_edge(0, 1) and stepper.rebased == 1
    stepper.toggled = toggled

    assert _pairs(stepper._substep()) == {(0, 1)} and stepper.rebased == 2
    stepper.verify_counts()
