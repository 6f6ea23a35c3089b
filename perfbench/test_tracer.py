"""Tests of the benchmark's tracer, statistics and calibration.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import run

run.import_library()

from abdyn import engine, generators, potentials, schedulers, social  # noqa: E402
from calibrate import REF_S, Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.timed("leaf", lambda: clock.advance(1.0), span=True)
    tick = tr.timed("tick", lambda: clock.advance(0.25))     # aggregate, no span

    def mid_body():
        clock.advance(2.0)
        leaf()
        tick()
        tick()
        clock.advance(0.5)
    mid = tr.timed("mid", mid_body, span=True)

    def root_body():
        clock.advance(1.0)
        mid()
        leaf()
        clock.advance(3.0)
    tr.run_id = 7
    tr.span("root", root_body)

    stats, _ = tr.take()
    assert stats["root"] == (1, 9.0, 4.0)
    assert stats["mid"] == (1, 4.0, 2.5)
    assert stats["leaf"] == (2, 2.0, 2.0)
    assert stats["tick"] == (2, 0.5, 0.5)
    # the self times partition the root's wall time
    assert sum(s for _, _, s in stats.values()) == 9.0

    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    root, = by_name["root"]
    mid_span, = by_name["mid"]
    assert (root.parent, root.start, root.end, root.self_s, root.run) == (None, 0.0, 9.0, 4.0, 7)
    assert (mid_span.parent, mid_span.self_s) == (root.id, 2.5)
    assert sorted(s.parent for s in by_name["leaf"]) == sorted([mid_span.id, root.id])
    assert "tick" not in by_name
    assert tr.take()[0]["root"] == (0, 0.0, 0.0)


def _small_runs():
    """One engine run, one fair run and one star run on small graphs; returns
    their final edge sets."""
    g = generators.gnp(30, 0.2, seed=3)
    kc = engine.run(engine.RunConfig(
        graph=g, potential=potentials.min_degree_potential(3, 30),
        scheduler=schedulers.UniformRandomScheduler(5), max_rounds=200_000))
    fair = engine.run(engine.RunConfig(
        graph=g, potential=potentials.proper_degree_potential(min, 4, 4),
        scheduler=schedulers.FairRoundRobinScheduler(50), max_rounds=10_000))
    star = social.run_general(
        generators.random_connected(20, 0.1, seed=1), social.star_protocol(1),
        schedulers.UniformRandomScheduler(1), budget=100_000, seed=1,
        stop_predicate=social.star_predicate, progress_check=True)
    return [t.final_graph.edge_set() for t in (kc, fair, star)]


def test_uninstall_restores_every_original_and_untraced_runs_make_no_calls():
    expected = _small_runs()
    tr = Tracer()
    tr.install()
    try:
        patched = tr.patched()
        assert tr.missing == []
        assert len(patched) > 30
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        assert _small_runs() == expected          # tracing changes no output
        assert tr.wrapper_calls > 0
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert tr.patched() == []

    calls = tr.wrapper_calls
    assert _small_runs() == expected
    assert tr.wrapper_calls == calls


def test_tail_is_the_eleventh_slowest_run():
    times = [float(k) for k in range(100)]
    assert run.tail(times) == (89.0, "p90 of 100 runs (10 runs beyond it)")
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("p100 (slowest of 3 runs")


def test_calibration_scales_by_the_samples_around_an_interval():
    cal = Calibrator()
    cal.starts = [0.0, 10.0, 20.0, 30.0, 40.0]
    cal.times = [REF_S, REF_S, 2 * REF_S, 4 * REF_S, 4 * REF_S]
    # between the samples at 10 and 20: the two before and the two after
    # average 2 REF_S
    assert cal.scaled(12.0, 3.0) == 1.5
    # before the first sample only the two after it count
    assert cal.scaled(-5.0, 3.0) == 3.0
    # after the last sample only the two before it count
    assert cal.scaled(45.0, 4.0) == 1.0
    cal.sample()
    assert len(cal.times) == 6 and cal.times[-1] > 0
