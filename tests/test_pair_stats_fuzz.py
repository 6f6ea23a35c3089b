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
from abdyn.fastpath import BulkStepper, Decisions, IncrementalStepper
from abdyn.graph import DynGraph, EdgeDelta, graph_fingerprint
from abdyn.potentials import PairStatsRule, Potential, two_step_merge
from abdyn.schedulers import CompleteScheduler

from conftest import random_graph

ROUTES = ("naive", "auto", "incremental", "bulk")
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
    return run(RunConfig(graph=g.copy(), potential=pot, scheduler=CompleteScheduler(),
                         max_rounds=rounds, engine=engine, stop_mode="budget",
                         record_rounds="all", record_deltas=True))


def _states(g, pot, engine, rounds):
    """Fingerprint after each of ``rounds`` rounds; a run that stops at its
    fixed point keeps its last graph."""
    trace = _run(g, pot, engine, rounds)
    fps = [r.fingerprint for r in trace.rounds]
    return fps + fps[-1:] * (rounds - len(fps))


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

    stepper = IncrementalStepper(g.copy(), pot)
    stepper.verify_counts()
    for t in range(ROUNDS):
        delta, _ = stepper.advance(t)
        stepper.verify_counts()
        assert delta == (naive.deltas[t] if t < len(naive.deltas) else EdgeDelta()), t
    assert graph_fingerprint(stepper.g) == graph_fingerprint(naive.final_graph)


@settings(max_examples=40)
@given(graphs(max_n=9), table_rules())
def test_merged_round_equals_two_plain_rounds(g, rule):
    pot = _potential(rule)
    plain = _states(g, pot, "naive", 4)
    merged = two_step_merge(pot)
    for engine in ("naive", "incremental"):
        assert _states(g, merged, engine, 2) == plain[1::2], engine


@given(table_rules(valid=False))
def test_floor_violating_tables_are_rejected(rule):
    with pytest.raises(ContractError):
        rule.certify()
    g = random_graph(8, 0.5, 0)
    for engine in ("auto", "incremental", "bulk"):
        with pytest.raises(ContractError):
            _run(g, _potential(rule), engine, 1)


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
    bulk = BulkStepper(g.copy(), pot)
    first = (len(incremental.decisions), len(bulk.decisions))
    assert first == (2, 2)
    for t in range(4):
        assert incremental.advance(t)[0] == bulk.advance(t)[0] == naive.deltas[t], t
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
    if not merged:
        assert BulkStepper(g.copy(), pot).advance(0)[0] == EdgeDelta()
    for engine in ("naive", "incremental") + (() if merged else ("bulk", "auto")):
        trace = _run(g, pot, engine, 3)
        assert trace.verdict.kind == "stabilized" and not trace.change_count, engine


def test_merged_rounds_cancel_pairs_toggled_in_both_substeps():
    twice = once = 0
    for seed in range(40):
        rng = random.Random(seed)
        floor = rng.randint(1, 3)
        rule = _table_rule(floor, {(e, c): rng.choice(ACTIONS[:4])
                                   for e in (0, 1) for c in range(floor, TOP)})
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
        first, second = (set(x.codes.tolist()) for x in substeps)
        twice += len(first & second)
        once += len(first ^ second)
    assert twice >= 20 and once >= 20
