"""Node-form potentials on the ``auto`` route against the ``naive`` reference.

``auto`` decides a potential f(h(u), h(v)) from one h per node, and a
complete interaction set by a sorted sweep; ``naive`` calls the evaluator on
every scheduled pair. Both must produce the same rounds.
"""

import dataclasses
import random

from hypothesis import given
from hypothesis import strategies as st

from abdyn import engine
from abdyn.engine import RunConfig, decide_pairs, run
from abdyn.potentials import (PROPER_FUNCTIONS, degree, degree_like_potential,
                              proper_degree_potential)
from abdyn.schedulers import (CompleteScheduler, FairRoundRobinScheduler, InteractionSet,
                              ScriptedScheduler, UniformRandomScheduler, all_pairs)

from conftest import random_graph


def attribute_sum(attrs):
    """Static attribute of the node plus those of its neighbours, summed in
    a fixed order; negative attributes make h negative."""
    def h(g, u):
        return attrs[u] + sum(attrs[w] for w in sorted(g.neighbors(u)))
    return h


@st.composite
def node_form_cases(draw):
    """A graph with n <= 9 and a node-form potential whose thresholds are
    values it takes on the graph's pairs, so runs remove and create."""
    n = draw(st.integers(2, 9))
    g = random_graph(n, draw(st.sampled_from([0.15, 0.4, 0.7])), draw(st.integers(0, 10**6)))
    fname = draw(st.sampled_from(sorted(PROPER_FUNCTIONS)))
    f = PROPER_FUNCTIONS[fname]
    kind = draw(st.sampled_from(["degree", "int_attributes", "float_attributes"]))
    if kind == "degree":
        h = degree
    elif kind == "int_attributes":
        h = attribute_sum(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n)))
    else:
        h = attribute_sum(draw(st.lists(st.floats(-2.5, 4.0, allow_nan=False, width=32),
                                        min_size=n, max_size=n)))
    values = sorted({f(h(g, u), h(g, v)) for u, v in all_pairs(n)})
    i = draw(st.integers(0, len(values) - 1))
    alpha = values[i]
    beta = alpha if draw(st.booleans()) else draw(st.sampled_from(values[i:] + [values[-1] + 1]))
    if h is degree:
        pot = proper_degree_potential(f, alpha, beta, name=f"proper_{fname}")
    else:
        pot = degree_like_potential(f, h, alpha, beta, name=f"{kind}_{fname}", validate=False)
    return g, pot


def _fair_script(n, seed, chunk):
    pairs = list(all_pairs(n))
    random.Random(seed).shuffle(pairs)
    return ScriptedScheduler([pairs[k:k + chunk] for k in range(0, len(pairs), chunk)],
                             n, repeat=True, claim_fair=True)


def _schedulers(n, seed):
    return [CompleteScheduler(), FairRoundRobinScheduler(1 + seed % 5),
            _fair_script(n, seed, 1 + seed % 4), UniformRandomScheduler(seed)]


@given(node_form_cases(), st.integers(0, 1000))
def test_auto_matches_naive_round_by_round(case, seed):
    g, pot = case
    for ref_sched, auto_sched in zip(_schedulers(g.n, seed), _schedulers(g.n, seed)):
        ref, act = (run(RunConfig(graph=g, potential=pot, scheduler=sched, max_rounds=20_000,
                                  engine=mode, record_rounds="all", record_deltas=True))
                    for mode, sched in (("naive", ref_sched), ("auto", auto_sched)))
        route = "ActiveSetStepper" if ref_sched.name == "uniform" else "NaiveStepper"
        assert act.metadata["engine"] == route
        assert act.verdict == ref.verdict, ref_sched.name
        # the active route stops at the proven fixed point, naive after its sweep
        assert act.rounds == ref.rounds[:len(act.rounds)], ref_sched.name
        assert act.deltas == ref.deltas[:len(act.deltas)], ref_sched.name
        assert act.final_graph == ref.final_graph, ref_sched.name


@given(node_form_cases())
def test_sorted_sweep_equals_pairwise_decisions(case):
    g, pot = case
    f, h = pot.node_form
    values = [h(g, u) for u in range(g.n)]
    catalog_order = f is not PROPER_FUNCTIONS["product"] or min(values) >= 0
    assert engine._sortable(f, values) == catalog_order
    sweep = decide_pairs(g, pot, InteractionSet(complete_n=g.n), True)
    assert sweep == decide_pairs(g, pot, list(all_pairs(g.n)), False)


def test_naive_calls_the_evaluator_on_every_scheduled_pair():
    g = random_graph(12, 0.4, 5)
    calls = []
    base = proper_degree_potential(PROPER_FUNCTIONS["sum"], 9, 9)

    def counted(g, u, v):
        calls.append((u, v))
        return base.evaluator(g, u, v)
    pot = dataclasses.replace(base, evaluator=counted)
    trace = run(RunConfig(graph=g, potential=pot, scheduler=CompleteScheduler(),
                          max_rounds=30, engine="naive"))
    assert len(calls) == sum(r.interactions for r in trace.rounds) > 0
    calls.clear()
    assert run(RunConfig(graph=g, potential=pot, scheduler=CompleteScheduler(),
                         max_rounds=30)).final_graph == trace.final_graph
    assert calls == []


def test_sorted_sweep_falls_back_on_values_that_do_not_sort():
    g = random_graph(8, 0.5, 1)
    nan_at_3 = attribute_sum([1.0, 2.0, 0.5, float("nan"), 1.5, 0.0, 3.0, 2.5])
    mixed = attribute_sum([1, 2.0, 0, 3, 1.5, 0, 3, 2])
    user_min = degree_like_potential(lambda x, y: min(x, y), degree, 3, 3, validate=False)
    for pot in [degree_like_potential(PROPER_FUNCTIONS["max"], nan_at_3, 4, 4, validate=False),
                degree_like_potential(PROPER_FUNCTIONS["sum"], mixed, 6, 6, validate=False),
                user_min]:
        f, h = pot.node_form
        assert not engine._sortable(f, [h(g, u) for u in range(g.n)])
        assert decide_pairs(g, pot, InteractionSet(complete_n=g.n), True) == \
            decide_pairs(g, pot, list(all_pairs(g.n)), False)
