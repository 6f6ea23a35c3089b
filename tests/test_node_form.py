"""Node-form potentials on the ``auto`` route against the ``naive`` reference.

``auto`` decides a potential f(h(u), h(v)) from one h per node, and a
complete interaction set by a sorted sweep; ``naive`` calls the evaluator on
every scheduled pair. Both must produce the same rounds.
"""

import dataclasses
import math
import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abdyn import engine
from abdyn.engine import RunConfig, decide_pairs, run
from abdyn.graph import DynGraph
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


def attribute_plus_degree(attrs):
    """Static attribute of the node plus its degree."""
    def h(g, u):
        return attrs[u] + len(g.neighbors(u))
    return h


# Node values far past the guard, where int64 arithmetic on them would wrap
# (sum near 2**63, product near 2**64) or not even hold them (min, max).
_WIDE = {"sum": 2**62, "product": 2**32, "min": 2**64, "max": 2**64}


def _guard_attributes(draw, fname, n, kind):
    """Attributes a few steps either side of the largest |h| the numpy twin
    of f admits (ints) or of 2**53 (floats), so that node values, f values
    and thresholds fall on both sides of the ±2**53 guard; or, for
    ``int_wide``, a few steps either side of ``_WIDE``."""
    if kind == "int_wide":
        bound = _WIDE[fname]
    elif kind == "int_guard":
        bound = engine._TWINS[PROPER_FUNCTIONS[fname]][1]
    else:
        bound = 2.0 ** 53
    # product is sortable on nonnegative values only
    signs = [1] if fname == "product" else [1, -1]
    return draw(st.lists(st.builds(lambda s, d: s * (bound - d), st.sampled_from(signs),
                                   st.integers(-3, n)), min_size=n, max_size=n))


@st.composite
def node_form_cases(draw):
    """A graph with n <= 60 and a node-form potential whose thresholds are
    values it takes on the graph's pairs, so runs remove and create. Graphs
    above 9 nodes make the uniform runs cross many draw batches."""
    n = draw(st.one_of(st.integers(2, 9), st.integers(10, 60)))
    g = random_graph(n, draw(st.sampled_from([0.15, 0.4, 0.7])), draw(st.integers(0, 10**6)))
    fname = draw(st.sampled_from(sorted(PROPER_FUNCTIONS)))
    f = PROPER_FUNCTIONS[fname]
    kind = draw(st.sampled_from(["degree", "int_attributes", "float_attributes",
                                 "int_guard", "float_guard", "int_wide"]))
    if kind == "degree":
        h = degree
    elif kind == "int_attributes":
        h = attribute_sum(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n)))
    elif kind == "float_attributes":
        h = attribute_sum(draw(st.lists(st.floats(-2.5, 4.0, allow_nan=False, width=32),
                                        min_size=n, max_size=n)))
    else:
        h = attribute_plus_degree(_guard_attributes(draw, fname, n, kind))
    values = sorted({f(h(g, u), h(g, v)) for u, v in all_pairs(n)})
    i = draw(st.integers(0, len(values) - 1))
    alpha = values[i]
    beta = alpha if draw(st.booleans()) else draw(st.sampled_from(values[i:] + [values[-1] + 1]))
    if kind in ("degree", "int_attributes", "int_guard", "int_wide") and draw(st.booleans()):
        # float thresholds against int values: compared in float64 by the twin
        alpha, beta = float(alpha), float(beta)
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


def _counted(calls, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


@settings(max_examples=30)
@given(node_form_cases(), st.sampled_from(["one", "below", "equal", "above", "twice"]),
       st.integers(0, 1000), st.booleans())
def test_array_route_matches_naive_round_by_round(case, size, seed, user_f):
    """Round robin, with a batch below, equal to and above the pair count
    (which wraps past the end of the order), and scripted rounds, decided
    from the node values by f's numpy twin, match ``naive``. A user f that
    computes the same values is decided pair by pair and matches too."""
    g, pot = case
    f, h = pot.node_form
    if user_f:
        pot = dataclasses.replace(pot, node_form=(lambda x, y: f(x, y), h))
    total = g.n * (g.n - 1) // 2
    batch = {"one": 1, "below": max(1, total - 1), "equal": total, "above": total + 1,
             "twice": 2 * total + 3}[size]
    twin_fits = engine._twin_array(pot, [h(g, u) for u in range(g.n)]) is not None
    for make in (lambda: FairRoundRobinScheduler(batch),
                 lambda: _fair_script(g.n, seed, 1 + seed % 7)):
        calls = []
        with mock.patch.object(engine, "_twin_decide", _counted(calls, engine._twin_decide)):
            ref, act = (run(RunConfig(graph=g, potential=pot, scheduler=make(),
                                      max_rounds=20_000, engine=mode, record_rounds="all",
                                      record_deltas=True))
                        for mode in ("naive", "auto"))
        name = ref.metadata["scheduler"]
        assert act.metadata["engine"] == "NaiveStepper"
        assert act.verdict == ref.verdict, name
        assert act.rounds == ref.rounds, name
        assert act.deltas == ref.deltas, name
        assert act.final_graph == ref.final_graph, name
        if user_f:
            assert not calls, name
        elif twin_fits:
            assert calls, name


def test_array_sets_are_decided_from_the_scheduled_nodes_without_a_pair_loop():
    g = random_graph(30, 0.3, 4)
    calls = []
    h = _counted(calls, attribute_sum([u % 5 - 2 for u in range(30)]))
    pot = degree_like_potential(PROPER_FUNCTIONS["sum"], h, 1, 4, validate=False)
    pairs = [(0, 29), (3, 7), (3, 29), (11, 12), (5, 28), (0, 7)]
    want = decide_pairs(g, pot, pairs, False)
    us, vs = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    inter = InteractionSet.from_arrays(us, vs)
    calls.clear()
    with mock.patch.object(InteractionSet, "__iter__", side_effect=AssertionError("iterated")):
        assert decide_pairs(g, pot, inter, True) == want
    assert sorted(u for _, u in calls) == sorted(set(us.tolist() + vs.tolist()))


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


def test_twin_array_keeps_the_exact_dtype_up_to_the_guard():
    sum_, min_, max_, product = (PROPER_FUNCTIONS[k] for k in ("sum", "min", "max", "product"))

    def dtype(f, values, threshold=0):
        pot = degree_like_potential(f, degree, threshold, threshold, validate=False)
        x = engine._twin_array(pot, values)
        return None if x is None else x.dtype

    assert dtype(sum_, [2**52, -2**52]) == np.int64
    assert dtype(sum_, [2**52 + 1, 0]) is None
    assert dtype(sum_, [0, -2**52 - 1]) is None
    assert dtype(product, [math.isqrt(2**53)] * 2) == np.int64
    assert dtype(product, [math.isqrt(2**53) + 1, 0]) is None
    assert dtype(product, [-1, 2]) is None
    for f in (min_, max_):
        assert dtype(f, [2**53, -2**53]) == np.int64
        assert dtype(f, [2**53 + 1, 0]) is None
    assert dtype(sum_, [1.5, 2.0**80]) == np.float64
    assert dtype(sum_, [1, 2.0]) is None
    # thresholds that an int64 or float64 comparison could round
    assert dtype(sum_, [1, 2], 2**53) == np.int64
    assert dtype(sum_, [1, 2], 2**53 + 1) is None
    assert dtype(sum_, [1.0, 2.0], -2**53 - 1) is None
    assert dtype(sum_, [1.0, 2.0], 0.5) == np.float64


def test_sorted_sweep_adds_pairs_whose_wide_ints_would_wrap_in_int64():
    # the largest f value is 2**63 (sum) or 2**64 (product): int64 wraps it
    # to -2**63 or 0, below beta, although the pair of top values reaches it
    g = DynGraph(3)
    for f, top in ((PROPER_FUNCTIONS["sum"], 2**62), (PROPER_FUNCTIONS["product"], 2**32)):
        attrs = [top, top, 1]
        pot = degree_like_potential(f, lambda g, u: attrs[u], 0, f(top, top), validate=False)
        assert engine._twin_array(pot, attrs) is None
        assert decide_pairs(g, pot, InteractionSet(complete_n=3), True).additions == ((0, 1),)


def test_active_route_follows_values_across_the_guard(monkeypatch):
    # sum of (2**52 - 3 + degree): a path's values fit int64, and the
    # creations the threshold allows push degrees, so values pass 2**52
    n = 14
    g = DynGraph.from_edges(n, [(u, u + 1) for u in range(n - 1)])
    h = attribute_plus_degree([2**52 - 3] * n)
    beta = 2 * (2**52 - 3) + 3
    pot = degree_like_potential(PROPER_FUNCTIONS["sum"], h, beta, beta, validate=False)
    dtypes = []
    advance = engine.ActiveSetStepper.advance

    def recorded(stepper, t):
        step = advance(stepper, t)
        dtypes.append(None if stepper.values is None else stepper.values.dtype)
        return step
    monkeypatch.setattr(engine.ActiveSetStepper, "advance", recorded)
    for seed in range(3):
        ref, act = (run(RunConfig(graph=g, potential=pot, scheduler=UniformRandomScheduler(seed),
                                  max_rounds=50_000, engine=mode, record_rounds="all"))
                    for mode in ("naive", "auto"))
        assert act.metadata["engine"] == "ActiveSetStepper" and act.change_count
        assert act.verdict == ref.verdict
        assert act.rounds == ref.rounds[:len(act.rounds)]
        assert act.final_graph == ref.final_graph
    assert dtypes[0] == np.int64 and None in dtypes
