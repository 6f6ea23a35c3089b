"""The graph's per-state tables and maintained degree list.

``Potential.value`` and the ``auto`` route read a node-form potential's h
from :meth:`DynGraph.node_table`, which every edit drops. Every read must
equal the cache-free f(h(g, u), h(g, v)) whatever edits came between, and
``engine="naive"`` must keep calling the evaluator, with no table. The
common neighbor edge counts kept by ``keep_common_neighbor_edges`` must
likewise equal fresh counts until the edit that drops them, and
``common_neighbor_edges`` itself, which ``naive`` calls, keeps none. The
degree list, which every edit keeps current, must equal the degrees.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abdyn.engine import RunConfig, decide_pairs, run
from abdyn.errors import ContractError
from abdyn import graph as graph_module
from abdyn.graph import DynGraph, EdgeDelta, edge_codes, pair_codes
from abdyn.potentials import (PROPER_FUNCTIONS, degree_like_potential,
                              proper_degree_potential)
from abdyn.schedulers import FairRoundRobinScheduler, InteractionSet, all_pairs
from abdyn.social import niceness_g, random_profile

from conftest import brute_common_neighbor_edges, random_graph

N = 8


def _potentials():
    # niceness values of these graphs lie between about 4 and 16
    nice = niceness_g(random_profile(N, seed=3))
    return [proper_degree_potential(PROPER_FUNCTIONS["sum"], 6, 6),
            proper_degree_potential(PROPER_FUNCTIONS["min"], 2, 4, name="proper_min"),
            degree_like_potential(PROPER_FUNCTIONS["sum"], nice, 16.0, 16.0, name="nice_sum",
                                  validate=False),
            degree_like_potential(PROPER_FUNCTIONS["max"], nice, 8.0, 11.0, name="nice_max",
                                  validate=False)]


POTENTIALS = _potentials()
pair_st = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(lambda p: p[0] != p[1])
# each step: an operation, the pairs it edits or reads, and a potential
steps_st = st.lists(st.tuples(
    st.sampled_from(["add", "remove", "delta", "codes", "copy", "value", "decide"]),
    st.lists(pair_st, min_size=1, max_size=6), st.integers(0, len(POTENTIALS) - 1)),
    min_size=10, max_size=40)


def _toggles(g, pairs):
    """The distinct pairs as sorted (additions, removals) against g."""
    pairs = sorted({(min(p), max(p)) for p in pairs})
    return ([p for p in pairs if not g.has_edge(*p)], [p for p in pairs if g.has_edge(*p)])


@given(st.integers(0, 10**6), steps_st)
def test_reads_match_cache_free_values_across_edits(seed, steps):
    g = random_graph(N, 0.4, seed)
    for op, pairs, k in steps:
        if op == "add":
            g.add_edge(*pairs[0])       # a no-op when the edge is there
        elif op == "remove":
            g.remove_edge(*pairs[0])    # a no-op when it is not
        elif op == "delta":
            g.apply_delta(EdgeDelta.build(*_toggles(g, pairs)))
        elif op == "codes":
            adds, rems = _toggles(g, pairs)
            toggled = sorted(adds + rems)
            ends = np.array(toggled, dtype=np.int64).reshape(-1, 2)
            g.apply_delta(EdgeDelta.from_codes(pair_codes(ends[:, 0], ends[:, 1]),
                                               np.array([p in adds for p in toggled])))
        elif op == "copy":
            g = g.copy()
        elif op == "value":
            pot = POTENTIALS[k]
            f, h = pot.node_form
            for u, v in pairs:
                assert pot.value(g, u, v) == f(h(g, u), h(g, v))
        else:
            pot = POTENTIALS[k]
            chosen = InteractionSet(sorted({(min(p), max(p)) for p in pairs}))
            for scheduled in (chosen, InteractionSet(complete_n=N)):
                assert decide_pairs(g, pot, scheduled, True) == \
                    decide_pairs(g, pot, list(scheduled), False)
    for pot in POTENTIALS:
        f, h = pot.node_form
        assert [pot.value(g, u, v) for u, v in all_pairs(N)] == \
            [f(h(g, u), h(g, v)) for u, v in all_pairs(N)]


M = 24
wide_pair_st = st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)).filter(
    lambda p: p[0] != p[1])
# each step: an operation and the pairs it edits or reads; deltas of up to 40
# pairs lie on both sides of CODE_FORM_PAIRS
state_steps_st = st.lists(st.tuples(
    st.sampled_from(["add", "remove", "delta", "codes", "copy", "from_codes", "ce",
                     "degrees"]),
    st.lists(wide_pair_st, min_size=1, max_size=40)), min_size=5, max_size=30)


def _ce_memo(g) -> dict:
    return (g._tables or {}).get(graph_module._CE, {})


def _check_state(g, kept) -> None:
    """The degree list, once built, and every kept count equal fresh values;
    the counts kept are those asked to be kept since the last edit."""
    if g._deg is not None:
        assert g._deg == [g.degree(u) for u in range(g.n)]
    memo = _ce_memo(g)
    assert memo.keys() == kept
    for (u, v), value in memo.items():
        assert u < v and value == brute_common_neighbor_edges(g, u, v)


@given(st.integers(0, 10**6), st.booleans(), state_steps_st)
def test_degrees_and_ce_memo_match_fresh_values_across_edits(seed, listed, steps):
    g = random_graph(M, 0.3, seed)
    if listed:
        g.degrees
    kept = set()
    for op, pairs in steps:
        before = g.edge_set()
        if op == "add":
            g.add_edge(*pairs[0])
        elif op == "remove":
            g.remove_edge(*pairs[0])
        elif op == "delta":
            g.apply_delta(EdgeDelta.build(*_toggles(g, pairs)))
        elif op == "codes":
            adds, rems = _toggles(g, pairs)
            toggled = sorted(adds + rems)
            ends = np.array(toggled, dtype=np.int64).reshape(-1, 2)
            g.apply_delta(EdgeDelta.from_codes(pair_codes(ends[:, 0], ends[:, 1]),
                                               np.array([p in adds for p in toggled],
                                                        dtype=bool)))
        elif op == "copy":
            tables = g._tables
            h = g.copy()
            assert h._tables is None and h._deg == g._deg
            assert h._deg is None or h._deg is not g._deg
            h.keep_common_neighbor_edges(*pairs[0])
            assert g._tables is tables and _ce_memo(h) is not _ce_memo(g)
            g = h
            kept = {tuple(sorted(pairs[0]))}
        elif op == "from_codes":
            g = DynGraph.from_codes(M, edge_codes(g))
            assert g._deg is None and g._tables is None
            kept = set()
        elif op == "ce":
            for u, v in pairs[1:]:
                assert g.common_neighbor_edges(u, v) == g.kept_common_neighbor_edges(v, u)
            u, v = pairs[0]
            assert g.keep_common_neighbor_edges(u, v) == g.kept_common_neighbor_edges(v, u)
            kept.add((min(u, v), max(u, v)))
        else:
            assert g.degrees == [g.degree(u) for u in range(M)]
        if g.edge_set() != before:
            kept = set()        # an edit drops every kept count
        _check_state(g, kept)


def test_tables_live_until_an_edit():
    g = random_graph(N, 0.4, 1)
    nice = POTENTIALS[2]
    h = nice.node_form[1]
    nice.value(g, 0, 1)
    table = g.node_table(h)
    assert set(table) == {0, 1}
    # edits that change no edge keep the table
    g.add_edge(*next(iter(g.edges())))
    g.remove_edge(*next(p for p in all_pairs(N) if not g.has_edge(*p)))
    g.apply_delta(EdgeDelta())
    g.apply_delta(EdgeDelta.from_codes(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)))
    assert g.node_table(h) is table
    assert g.copy().node_table(h) == {}
    u, v = next(iter(g.edges()))
    g.remove_edge(u, v)
    assert g.node_table(h) == {}


def test_failing_h_stores_no_entry_and_names_the_node():
    g = random_graph(N, 0.5, 2)

    def h(g, u):
        if u == 3:
            raise ZeroDivisionError("no value at 3")
        return len(g.neighbors(u))
    pot = degree_like_potential(PROPER_FUNCTIONS["sum"], h, 4, 4, name="broken", validate=False)
    with pytest.raises(ZeroDivisionError):
        pot.value(g, 2, 3)
    assert 3 not in g.node_table(h) and g.node_table(h)[2] == h(g, 2)
    for pairs in ([(1, 3), (0, 2)], InteractionSet(complete_n=N)):
        with pytest.raises(ContractError, match=r"^potential broken failed on node 3: no value"):
            decide_pairs(g, pot, pairs, True)
        assert 3 not in g.node_table(h)

    def f(x, y):
        raise ValueError("bad f")
    bad_f = degree_like_potential(f, h, 4, 4, name="bad_f", validate=False)
    with pytest.raises(ContractError, match=r"^potential bad_f failed on pair \(0,1\): bad f"):
        decide_pairs(g, bad_f, [(0, 1)], True)


def test_tables_hold_no_reference_to_the_graph():
    g = random_graph(N, 0.5, 4)
    before = sys.getrefcount(g)
    for pot in POTENTIALS:
        pot.value(g, 0, 1)
        decide_pairs(g, pot, InteractionSet(complete_n=N), True)
        decide_pairs(g, pot, [(2, 5)], True)
    assert g.node_table(POTENTIALS[2].node_form[1]).keys() == set(range(N))
    assert sys.getrefcount(g) == before


def test_naive_calls_h_twice_per_scheduled_pair():
    base = niceness_g(random_profile(12, seed=5))
    calls = []

    def h(g, u):
        calls.append(u)
        return base(g, u)
    g = random_graph(12, 0.5, 6)
    # min-combined niceness below 0.55 of the median peels part of the graph
    alpha = 0.55 * sorted(base(g, u) for u in range(12))[6]
    pot = degree_like_potential(PROPER_FUNCTIONS["min"], h, alpha, 10**9, name="counted",
                                validate=False)
    trace = run(RunConfig(graph=g, potential=pot, scheduler=FairRoundRobinScheduler(7),
                          max_rounds=200, engine="naive"))
    assert trace.change_count and trace.verdict.kind == "stabilized"
    assert len(calls) == 2 * sum(r.interactions for r in trace.rounds)
    calls.clear()
    auto = run(RunConfig(graph=g, potential=pot, scheduler=FairRoundRobinScheduler(7),
                         max_rounds=200))
    assert auto.final_graph == trace.final_graph
    # at most one h per node per graph state: the initial one and one per change
    assert len(calls) <= g.n * (1 + auto.change_count)
