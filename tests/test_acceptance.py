"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; the whole suite takes on the order of fifteen minutes.
"""

import gc
import itertools
import random
import time

import pytest

from abdyn.engine import (RunConfig, check_degree_properties, degree_classes,
                          run, snapshot_observer)
from abdyn.generators import gnp, random_connected
from abdyn.kcore import verify_kcore_run
from abdyn.potentials import (PROPER_FUNCTIONS, degree_like_potential,
                              min_degree_potential, proper_degree_potential,
                              rule110_potential, two_step_merge)
from abdyn.rule110 import AssemblyRunner, build_assembly, reference_run
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, ScriptedScheduler,
                              UniformRandomScheduler, all_pairs)
from abdyn.social import (niceness_g, random_profile, run_general,
                          star_predicate, star_protocol)

from conftest import oracle_rounds

N_KCORE = 200
P_KCORE = 0.05
KCORE_GRAPHS = 30
KCORE_ALPHAS = (2, 3, 4)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _adversarial_script(n: int, seed: int, chunk: int = 150):
    """Fair script covering all pairs, with the lowest pair deferred to the
    final round of the period."""
    rng = random.Random(seed)
    pairs = list(all_pairs(n))
    deferred = pairs[0]
    rest = pairs[1:]
    rng.shuffle(rest)
    script = [rest[i:i + chunk] for i in range(0, len(rest), chunk)]
    script.append([deferred])
    return script


@pytest.fixture(scope="module")
def runner_w3():
    return AssemblyRunner(3)


# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_kcore_correctness():
    worst = 0.0
    runs = 0
    for gseed in range(KCORE_GRAPHS):
        g0 = gnp(N_KCORE, P_KCORE, seed=1000 + gseed)
        m0 = g0.m
        for alpha in KCORE_ALPHAS:
            pot = min_degree_potential(alpha, N_KCORE)
            schedulers = [
                CompleteScheduler(),
                FairRoundRobinScheduler(100),
                ScriptedScheduler(_adversarial_script(N_KCORE, gseed),
                                  N_KCORE, repeat=True, claim_fair=True),
                UniformRandomScheduler(gseed * 10 + alpha),
            ]
            for sched in schedulers:
                t0 = time.perf_counter()
                trace = run(RunConfig(graph=g0.copy(), potential=pot,
                                      scheduler=sched, max_rounds=5_000_000,
                                      record_rounds="changes"))
                elapsed = time.perf_counter() - t0
                worst = max(worst, elapsed)
                runs += 1
                assert trace.verdict.kind == "stabilized", \
                    (gseed, alpha, sched.name, trace.verdict)
                report = verify_kcore_run(trace.final_graph, g0, alpha)
                assert report.ok, (gseed, alpha, sched.name, report.summary())
                assert trace.change_count <= m0, (gseed, alpha, sched.name)
                assert elapsed < 10.0, (gseed, alpha, sched.name, elapsed)
    _report(1, "k-core correctness", True,
            f"{runs} runs, worst {worst:.2f}s per run")


def test_criterion_2_edge_scheduler_speed():
    failures = []
    for gseed in range(KCORE_GRAPHS):
        g0 = gnp(N_KCORE, P_KCORE, seed=1000 + gseed)
        for alpha in KCORE_ALPHAS:
            pot = min_degree_potential(alpha, N_KCORE)
            trace = run(RunConfig(graph=g0.copy(), potential=pot,
                                  scheduler=CurrentEdgesScheduler(),
                                  max_rounds=2 * N_KCORE))
            if trace.verdict.kind != "stabilized" or trace.verdict.round > N_KCORE:
                failures.append((gseed, alpha, trace.verdict))
            elif not verify_kcore_run(trace.final_graph, g0, alpha).ok:
                failures.append((gseed, alpha, "oracle mismatch"))
    _report(2, "edge-scheduler speed", not failures,
            f"{KCORE_GRAPHS * len(KCORE_ALPHAS)} runs within {N_KCORE} rounds"
            if not failures else str(failures[:3]))


def test_criterion_3_degree_dynamics_bound():
    rng = random.Random(33)
    beta_cap = {"sum": lambda n: 2 * n, "min": lambda n: n,
                "max": lambda n: n, "product": lambda n: (n - 1) ** 2}
    checked = 0
    for i in range(100):
        n = rng.randint(8, 60)
        p = rng.choice([0.1, 0.3, 0.7])
        fname = rng.choice(sorted(PROPER_FUNCTIONS))
        beta = rng.randint(0, beta_cap[fname](n))
        g = gnp(n, p, seed=5000 + i)
        classes0 = degree_classes(g).count
        pot = proper_degree_potential(PROPER_FUNCTIONS[fname], beta, beta,
                                      validate=False)
        snaps = [g.copy()]
        trace = run(RunConfig(graph=g, potential=pot,
                              scheduler=CompleteScheduler(), max_rounds=n + 3,
                              observers=(snapshot_observer(snaps),)))
        assert trace.verdict.kind == "stabilized", (i, fname, beta)
        last = trace.last_change_round
        last_step = 0 if last is None else last + 1
        assert last_step <= classes0 + 1, (i, fname, beta, last_step, classes0)
        report = check_degree_properties(snaps, start=1)
        assert report.ok, (i, fname, beta, report.violations[:3])
        checked += report.rounds_checked
    _report(3, "degree-dynamics bound", True,
            f"100 runs, {checked} property rounds, zero violations")


def test_criterion_4_fair_scheduler_stabilization():
    rng = random.Random(44)
    budget = 1_000_000
    runs = 0
    for i in range(100):
        n = rng.randint(8, 40)
        profile = random_profile(n, seed=i)
        fname = rng.choice(["sum", "min", "max"])
        if i % 2:
            g_fn = niceness_g(profile)
        else:
            shift = rng.randint(0, 3)
            g_fn = (lambda s: lambda view, u: view.degree(u) + s)(shift)
        alpha = rng.uniform(0, 10)
        beta = alpha if rng.random() < 0.3 else alpha + rng.uniform(0, 10)
        pot = degree_like_potential(PROPER_FUNCTIONS[fname], g_fn, alpha, beta,
                                    validate=False)
        g = gnp(n, rng.choice([0.1, 0.3, 0.6]), seed=7000 + i)
        schedulers = [FairRoundRobinScheduler(rng.randint(1, 80))]
        for k in range(10):
            schedulers.append(ScriptedScheduler(
                _adversarial_script(n, seed=100 * i + k, chunk=rng.randint(5, 60)),
                n, repeat=True, claim_fair=True))
        for sched in schedulers:
            trace = run(RunConfig(graph=g.copy(), potential=pot, scheduler=sched,
                                  max_rounds=budget))
            runs += 1
            assert trace.verdict.kind == "stabilized", \
                (i, sched.name, trace.verdict)
    _report(4, "arbitrary fair-scheduler stabilization", True,
            f"{runs} runs quiesced over a full fairness period")


def _fidelity_sweep(width: int, tapes, steps: int = 5):
    runner = AssemblyRunner(width)
    t0 = time.perf_counter()
    for tape in tapes:
        res = runner.run(tape, steps=steps, merged=False, check=True)
        assert res.inconsistent_rounds == [], (width, tape)
        bad = [r for r in res.structure_reports if not r.ok]
        assert not bad, (width, tape, bad[0].summary())
        got = [tuple(t) for t in res.tapes]
        assert got == reference_run(tape, steps), (width, tape, got)
    elapsed = time.perf_counter() - t0
    del runner
    gc.collect()
    return elapsed


@pytest.mark.slow
def test_criterion_5_rule110_fidelity():
    details = []
    for width in (3, 4):
        tapes = [tuple(bits) for bits in itertools.product((0, 1), repeat=width)]
        elapsed = _fidelity_sweep(width, tapes)
        details.append(f"W={width} all {len(tapes)} tapes {elapsed:.0f}s")
        if width == 4:
            assert elapsed < 300.0, f"W=4 sweep took {elapsed:.0f}s"
    rng = random.Random(55)
    for width in (5, 6):
        tapes = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(10)]
        elapsed = _fidelity_sweep(width, tapes)
        details.append(f"W={width} 10 tapes {elapsed:.0f}s")
    _report(5, "rule-110 fidelity", True, "; ".join(details))


@pytest.mark.slow
def test_criterion_6_merged_equivalence(runner_w3):
    steps = 4
    for bits in itertools.product((0, 1), repeat=3):
        merged = runner_w3.run(bits, steps=steps, merged=True, check=True)
        plain = runner_w3.run(bits, steps=steps, merged=False, check=True)
        assert merged.ok and plain.ok, bits
        m_tapes = [tuple(t) for t in merged.tapes]
        p_tapes = [tuple(t) for t in plain.tapes]
        assert m_tapes == p_tapes, (bits, m_tapes, p_tapes)

    all_zero_merged = runner_w3.run((0, 0, 0), steps=3, merged=True)
    assert all_zero_merged.trace.verdict.kind == "stabilized"
    all_zero_plain = runner_w3.run((0, 0, 0), steps=3, merged=False, check=False)
    assert all_zero_plain.trace.verdict.kind == "cycle"
    assert all_zero_plain.trace.verdict.period == 2
    _report(6, "merged-step equivalence", True,
            "8 tapes x 4 steps; all-zero: merged stabilized, plain cycles with period 2")


def test_criterion_7_prune_soundness(runner_w3):
    pots = [rule110_potential(10)]
    assert all(p.pair_stats.cn_floor > 0 for p in pots)
    rng = random.Random(77)
    for i in range(50):
        n = rng.randint(44, 60)
        p = rng.choice([0.5, 0.8, 0.95])
        g = gnp(n, p, seed=9000 + i)
        base = dict(potential=pots[0], scheduler=CompleteScheduler(),
                    max_rounds=10, stop_mode="budget", record_rounds="all")
        plain = run(RunConfig(graph=g.copy(), engine="naive", **base))
        pruned = run(RunConfig(graph=g.copy(), engine="auto", **base))
        assert pruned.metadata["prune"] and not plain.metadata["prune"]
        assert [r.fingerprint for r in plain.rounds] == \
            [r.fingerprint for r in pruned.rounds], (i, n, p)

    # naive cannot enumerate the assembly's pairs; the incremental route is
    # checked against the independent recount of the test oracle
    assembly_rule = rule110_potential(100)
    for merged, potential in ((False, assembly_rule), (True, two_step_merge(assembly_rule))):
        trace = runner_w3.run((0, 1, 1), steps=2, merged=merged, check=False).trace
        assert trace.metadata["prune"]
        assert trace.metadata["engine"] == "IncrementalStepper"
        rounds = len(trace.rounds)
        assert rounds == (2 if merged else 4)
        oracle = oracle_rounds(build_assembly((0, 1, 1)).graph, potential, rounds)
        assert [(r.t, r.added, r.removed, r.fingerprint) for r in trace.rounds] == \
            [(t, len(d.additions), len(d.removals), fp) for t, (d, fp) in enumerate(oracle)]
    _report(7, "prune soundness", True,
            "50 random graphs + one width-3 assembly, plain and merged, "
            "identical round fingerprints")


def test_criterion_8_spanning_star():
    budget = 1_000_000
    hits = 0
    total_rounds = 0
    for seed in range(50):
        n = random.Random(seed).randint(8, 50)
        g = random_connected(n, 0.1, seed=seed)
        trace = run_general(g, star_protocol(seed), UniformRandomScheduler(seed),
                            budget=budget, seed=seed,
                            stop_predicate=star_predicate, progress_check=True)
        if trace.verdict.kind == "target":
            hits += 1
            total_rounds += trace.verdict.round
    ok = hits >= 48  # 95% of 50 runs, rounded up
    _report(8, "spanning star", ok,
            f"{hits}/50 runs reached the star (mean {total_rounds / max(hits, 1):.0f}"
            f" rounds); progress trichotomy held throughout")
