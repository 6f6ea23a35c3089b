"""The graph's node tables: h computed once per node per graph state.

``Potential.value`` and the ``auto`` route read a node-form potential's h
from :meth:`DynGraph.node_table`, which every edit drops. Every read must
equal the cache-free f(h(g, u), h(g, v)) whatever edits came between, and
``engine="naive"`` must keep calling the evaluator, with no table.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abdyn.engine import RunConfig, decide_pairs, run
from abdyn.errors import ContractError
from abdyn.graph import EdgeDelta, pair_codes
from abdyn.potentials import (PROPER_FUNCTIONS, degree_like_potential,
                              proper_degree_potential)
from abdyn.schedulers import FairRoundRobinScheduler, InteractionSet, all_pairs
from abdyn.social import niceness_g, random_profile

from conftest import random_graph

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
