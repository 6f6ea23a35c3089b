#!/usr/bin/env python3
"""abdyn benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload kcore_uniform --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the repository root; it imports ``abdyn`` from ``src/`` there
and nowhere else. ``--trace 0`` times untraced runs and prints the
end-to-end metrics. ``--trace 1`` spends half the time on untraced runs and
half on runs under the tracer, and prints the per-layer metrics. Every run's
output is checked. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a report with
the environment, digest, counters and spans goes to ``perfbench/out/``.
``--workload all`` runs each workload in its own process, one at a time.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S, Calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("r110_sweep", "kcore_uniform", "degree_fair", "star")
SETUP_LAYER_METRICS = ("potentials.validate_s", "rule110.build_s")


def import_library():
    """Import abdyn from this checkout's ``src/``; exit non-zero if it is not there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import abdyn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import abdyn from {src}: {exc}")
    if not Path(abdyn.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: abdyn was imported from {abdyn.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Environment

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(dist: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Measurement

class Batch:
    """Per-run seconds, problems and the digest of one timed loop."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.scaled: list[float] = []      # times scaled by the calibration
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0


def measure(run_one, seconds: float, digest_runs: int, cal: Calibrator) -> Batch:
    """Run ``run_one(0)``, ``run_one(1)``, ... until ``seconds`` have passed
    and at least ``digest_runs`` runs are done. The outputs of the first
    ``digest_runs`` runs are hashed into the digest. Reference tasks for
    ``cal`` run before the first run, between runs and after the last run;
    ``wall`` leaves their time out."""
    from abdyn.errors import AbdynError
    from workloads import Outcome

    batch = Batch()
    gc.collect()
    cal.sample()
    start = time.perf_counter()
    ref_before = sum(cal.times)
    i = 0
    while i < digest_runs or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            outcome = run_one(i)
        except AbdynError as exc:
            outcome = Outcome(f"run {i}: {type(exc).__name__}: {exc}", ("error", str(exc)))
        batch.starts.append(t0)
        batch.times.append(time.perf_counter() - t0)
        if outcome.problem:
            batch.problems.append(outcome.problem)
        if i < digest_runs:
            batch.digest.update(repr((i, outcome.output)).encode())
        i += 1
        cal.maybe_sample()
    batch.wall = time.perf_counter() - start - (sum(cal.times) - ref_before)
    cal.sample()
    batch.scaled = [cal.scaled(t0, t) for t0, t in zip(batch.starts, batch.times)]
    return batch


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten runs beyond it: the 11th
    slowest run, at percentile floor(100 (N - 10) / N). Below 20 runs that
    percentile would fall under the median, so the slowest run is used."""
    n = len(times)
    ordered = sorted(times)
    if n < 20:
        return ordered[-1], f"p100 (slowest of {n} runs; fewer than 20, so no " \
                            f"percentile at or above p50 has 10 runs beyond it)"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n} runs (10 runs beyond it)"


def timed_setups(workload, seed: int, cal: Calibrator) -> tuple[object, list[float], list[float]]:
    """Build the workload's inputs ``SETUP_REPEATS`` times; keep the last.
    Returns it with the wall and the scaled seconds of each set-up. A
    reference task for ``cal`` runs before and after each set-up."""
    times, scaled = [], []
    cal.sample()
    for _ in range(workload.SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload(seed)
        times.append(time.perf_counter() - t0)
        cal.sample()
        scaled.append(cal.scaled(t0, times[-1]))
    return state, times, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: list[float], setup_scaled: list[float],
               batch: Batch) -> tuple[dict, dict]:
    """Timings are scaled seconds (see ``calibrate.py``); the notes give the
    same figures in wall seconds."""
    tail_s, tail_label = tail(batch.scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "run_s_p50": (statistics.median(batch.scaled), "s"),
        "run_s_tail": (tail_s, "s"),
        "runs_per_s": (len(batch.scaled) / sum(batch.scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall_tail, _ = tail(batch.times)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; "
                   f"{statistics.median(setup_times):.6g} s wall",
        "run_s_p50": f"median of {len(batch.times)} runs; "
                     f"{statistics.median(batch.times):.6g} s wall",
        "run_s_tail": f"{tail_label}; {wall_tail:.6g} s wall",
        "runs_per_s": f"{len(batch.times)} runs in {sum(batch.scaled):.3f} scaled s; "
                      f"{len(batch.times) / batch.wall:.6g} per wall s",
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Per-layer metrics from the tracer

def exact_counters(tracer) -> dict:
    """Rounds, pairs decided and toggles so far, counted where they happen."""
    c = tracer.counts

    def calls(name):
        st = tracer.stats.get(name)
        return st.calls if st is not None else 0
    return {
        "rounds": c["engine.rounds"] + c["social.rounds"],
        "pairs_decided": (c["engine.pairs_decided"] + calls("fastpath.decide")
                          + calls("social.rewrite")),
        "toggles": c["engine.toggles"] + c["social.toggles"],
    }


def per_layer(setup_stats: dict, stats: dict, counts, runs: int, run_wall: float,
              overhead: float, fail_ratio: float) -> dict:
    def stat(name, field, table=stats):     # field: 0 calls, 1 total_s, 2 self_s
        return table.get(name, (0, 0.0, 0.0))[field]

    def total(name, table=stats):
        return stat(name, 1, table)

    def per_run_s(*names):
        return sum(total(n) for n in names) / runs

    def per_run_calls(name):
        return stat(name, 0) / runs

    def ratio(a, b):
        return a / b if b else 0.0

    inits = counts["fastpath.inits"]
    fixed = 0.0
    if total("rule110.restore"):    # the O(m) fixed costs of a rule-110 run
        fixed = total("graph.fingerprint") + total("rule110.restore") + total("rule110.check_full")
    s, n, r = "s", "count", "ratio"
    return {
        "graph.fingerprint_s": (per_run_s("graph.fingerprint", "graph.fingerprint_xor"), s),
        "graph.apply_s": (per_run_s("graph.apply"), s),
        "graph.apply_calls": (per_run_calls("graph.apply"), n),
        "graph.edges_toggled": (counts["graph.edges_toggled"] / runs, n),
        "graph.copy_s": (per_run_s("graph.copy"), s),
        "engine.run_s": (per_run_s("engine.run"), s),
        "engine.self_s": (stat("engine.run", 2) / runs, s),
        "engine.rounds": (counts["engine.rounds"] / runs, n),
        "engine.changed_rounds": (counts["engine.changed_rounds"] / runs, n),
        "engine.useful_round_ratio": (ratio(counts["engine.changed_rounds"],
                                            counts["engine.rounds"]), r),
        "engine.decide_s": (per_run_s("engine.decide"), s),
        "engine.pairs_decided": (counts["engine.pairs_decided"] / runs, n),
        "engine.decide_yield": (ratio(counts["engine.decide_toggles"],
                                      counts["engine.pairs_decided"]), r),
        "engine.sweep_s": (per_run_s("engine.sweep"), s),
        "engine.sweeps": (per_run_calls("engine.sweep"), n),
        "engine.observer_s": (per_run_s("engine.observer"), s),
        "engine.bookkeep_s": (per_run_s("engine.bookkeep"), s),
        "engine.degree_props_s": (per_run_s("engine.degree_props"), s),
        "schedulers.interactions_s": (per_run_s("schedulers.interactions"), s),
        "schedulers.calls": (per_run_calls("schedulers.interactions"), n),
        "schedulers.pairs_emitted": (counts["schedulers.pairs_emitted"] / runs, n),
        "schedulers.reset_s": (per_run_s("schedulers.reset"), s),
        "potentials.evals": (per_run_calls("potentials.eval"), n),
        "potentials.eval_s": (per_run_s("potentials.eval"), s),
        "potentials.validate_s": (total("potentials.validate", setup_stats), s),
        "fastpath.init_s": (per_run_s("fastpath.init"), s),
        "fastpath.advance_s": (per_run_s("fastpath.advance"), s),
        "fastpath.substeps": (counts["fastpath.substeps"] / runs, n),
        "fastpath.toggles": (counts["fastpath.toggles"] / runs, n),
        "fastpath.decide_calls": (per_run_calls("fastpath.decide"), n),
        "fastpath.ce_calls": (per_run_calls("fastpath.ce"), n),
        "fastpath.decide_yield": (ratio(counts["fastpath.toggles"],
                                        stat("fastpath.decide", 0)), r),
        "fastpath.cn_table_size_init": (ratio(counts["fastpath.cn_table_size_init"], inits), n),
        "fastpath.cn_table_size": (ratio(counts["fastpath.cn_table_size_end"], inits), n),
        "rule110.build_s": (total("rule110.build", setup_stats), s),
        "rule110.restore_s": (per_run_s("rule110.restore"), s),
        "rule110.check_s": (per_run_s("rule110.check", "rule110.check_full"), s),
        "rule110.check_calls": (counts["rule110.check_calls"] / runs, n),
        "rule110.extract_s": (per_run_s("rule110.extract"), s),
        "rule110.set_tape_s": (per_run_s("rule110.set_tape"), s),
        "rule110.violations": (float(counts["rule110.violations"]), n),
        "rule110.fixed_share": (ratio(fixed, run_wall), r),
        "kcore.verify_s": (per_run_s("kcore.verify"), s),
        "social.run_s": (per_run_s("social.run"), s),
        "social.rewrites": (per_run_calls("social.rewrite"), n),
        "social.rewrite_s": (per_run_s("social.rewrite"), s),
        "social.confine_s": (per_run_s("social.confine"), s),
        "social.predicate_s": (per_run_s("social.predicate"), s),
        "social.useful_round_ratio": (ratio(counts["social.changed_rounds"],
                                            counts["social.rounds"]), r),
        "trace.overhead_frac": (overhead, r),
        "trace.accounted_frac": (1.0 - ratio(stat("run", 2), run_wall), r),
        "fail_ratio": (fail_ratio, r),
    }


# ---------------------------------------------------------------------------
# One workload in this process

def traced_phase(workload, seed: int, seconds: float, cal: Calibrator):
    """Set up once and run for ``seconds`` under the tracer, then remove it.

    Returns the tracer, the batch, the set-up and run timers, the counters,
    and the exact counters over the first ``DIGEST_RUNS`` runs.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    exact = {}
    try:
        state = tracer.span("setup", workload, seed)
        setup_stats, _ = tracer.take()

        def traced_run(i):
            tracer.run_id = i
            outcome = tracer.span("run", state.run, i)
            if i == workload.DIGEST_RUNS - 1:
                exact.update(exact_counters(tracer))
            return outcome
        batch = measure(traced_run, seconds, workload.DIGEST_RUNS, cal)
        stats, counts = tracer.take()
    finally:
        patched = tracer.patched()
        tracer.uninstall()
    if any(vars(owner)[attr] is not original for owner, attr, original in patched):
        sys.exit("perfbench: the tracer left a wrapped attribute behind")
    return tracer, batch, setup_stats, stats, counts, exact


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_library()
    from abdyn.errors import AbdynError
    from workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[name]
    cal = Calibrator()
    state, setup_times, setup_scaled = timed_setups(workload, seed, cal)
    try:
        state.run(0)                # warm-up, excluded from every figure
    except AbdynError:
        pass                        # run 0 fails again, and is counted, below
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "setup_times": setup_times}

    if not trace:
        batch = measure(state.run, seconds, workload.DIGEST_RUNS, cal)
        metrics, notes = end_to_end(setup_times, setup_scaled, batch)
        batches = [batch]
    else:
        plain = measure(state.run, seconds / 2, workload.DIGEST_RUNS, cal)
        state = None
        gc.collect()
        tracer, traced, setup_stats, stats, counts, exact = \
            traced_phase(workload, seed, seconds / 2, cal)
        if plain.digest.hexdigest() != traced.digest.hexdigest():
            traced.problems.append("traced outputs differ from untraced outputs")
        batches = [plain, traced]
        m = min(len(plain.times), len(traced.times))
        # scaled times, so that a change of machine speed between the halves cancels
        overhead = sum(traced.scaled[:m]) / sum(plain.scaled[:m]) - 1.0
        failed = sum(len(b.problems) for b in batches)
        attempted = sum(len(b.times) for b in batches)
        metrics = per_layer(setup_stats, stats, counts, len(traced.times),
                            sum(traced.times), overhead, failed / attempted)
        notes = {k: ("per traced set-up" if k in SETUP_LAYER_METRICS else
                     "over all traced runs" if u == "ratio" else "mean per traced run")
                 for k, (_, u) in metrics.items()}
        notes["fail_ratio"] = f"{failed} of {attempted} runs failed"
        report.update(exact_counters_first_runs=exact, missing_names=tracer.missing,
                      self_s={k: v[2] for k, v in sorted(stats.items())},
                      spans=[s._asdict() for s in tracer.spans])

    attempted = sum(len(b.times) for b in batches)
    problems = [p for b in batches for p in b.problems]
    digest = batches[0].digest.hexdigest()
    report.update(calibration={"ref_s": REF_S, "starts": cal.starts, "times": cal.times},
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes, digest=digest, digest_runs=workload.DIGEST_RUNS,
                  run_starts=[b.starts for b in batches],
                  run_times=[b.times for b in batches],
                  attempted=attempted, problems=problems[:20])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env))
    print(f"calibration: {len(cal.times)} reference tasks, median "
          f"{statistics.median(cal.times):.6g} s; timings below are scaled to {REF_S} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<28} {value:>14.6g} {unit:<6} {notes[key]}")
    if not trace:
        print(f"  {'fail_ratio':<28} {len(problems) / attempted:>14.6g} ratio  "
              f"{len(problems)} of {attempted} runs failed")
    print(f"digest {digest} (outputs of runs 0..{workload.DIGEST_RUNS - 1})")
    if trace:
        print("exact counters over runs 0..%d: %s" % (workload.DIGEST_RUNS - 1, json.dumps(exact)))
        if tracer.missing:
            print("not traced (absent from the library): " + ", ".join(tracer.missing))
    for p in problems[:5]:
        print("FAILED " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
