"""Differential fuzzing of the pair-statistics routes: generated graphs and
random decision tables that meet (or violate) a random low floor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdyn.engine import RunConfig, run
from abdyn.errors import ContractError
from abdyn.fastpath import IncrementalStepper
from abdyn.graph import EdgeDelta, graph_fingerprint
from abdyn.potentials import PairStatsRule, Potential, two_step_merge
from abdyn.schedulers import CompleteScheduler

from conftest import random_graph

ROUTES = ("naive", "auto", "incremental", "bulk")
ROUNDS = 6
# what a table entry does with the pair's edge state; "ce" reads the
# common neighbor edges
ACTIONS = ("keep", "flip", "on", "off", "ce")
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
        return int(act == "on")
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
    table = {(edge, c): draw(st.sampled_from(ACTIONS))
             for edge in (0, 1) for c in range(floor, TOP)}
    if not valid:
        edge = draw(st.integers(0, 1))
        c = draw(st.integers(0, floor - 1))
        table[edge, c] = draw(st.sampled_from(("flip", "ce", "off" if edge else "on")))
    return _table_rule(floor, table)


@st.composite
def graphs(draw, max_n: int = TOP):
    n = draw(st.integers(4, max_n))
    p = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)))
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
