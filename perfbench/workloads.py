"""The four benchmark workloads.

Each workload class builds all of its inputs from the seed in ``__init__``
(the timed set-up) and runs one verified simulation per ``run(i)``. Run ``i``
always uses the same inputs for the same seed, so the first
``DIGEST_RUNS`` runs give a simulation digest that a pure speed change must
leave unchanged. The library is called only through module attributes
(``engine.run``, ``potentials.min_degree_potential``, ...), so a traced run
sees the wrappers the tracer installs there.

A run returns an ``Outcome`` whose ``problem`` names the first check that
failed; the runner counts a library error (``AbdynError``) as a failed run too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from abdyn import engine, generators, kcore, potentials, rule110, schedulers, social


@dataclass
class Outcome:
    problem: str                 # empty when every check passed
    output: tuple                # canonical output, hashed into the digest


def _edges(g) -> tuple:
    return tuple(sorted(g.edges()))


def _seeds(seed: int, label: str, k: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(k)]


class R110Sweep:
    """``AssemblyRunner(4).run(tape, steps=5, check=True)`` over W=4 tapes,
    checked against ``reference_run``."""

    name = "r110_sweep"
    WIDTH = 4
    STEPS = 5
    DIGEST_RUNS = 2
    SETUP_REPEATS = 3

    def __init__(self, seed: int):
        import abdyn.fastpath  # noqa: F401  (lazy import of the engine's fast route)
        self.tapes = list(product((0, 1), repeat=self.WIDTH))
        random.Random(seed).shuffle(self.tapes)
        self.runner = rule110.AssemblyRunner(self.WIDTH)

    def run(self, i: int) -> Outcome:
        tape = self.tapes[i % len(self.tapes)]
        res = self.runner.run(tape, steps=self.STEPS, check=True)
        tapes = tuple(tuple(t) for t in res.tapes)
        out = (tape, res.trace.verdict.kind, tapes)
        if tapes != tuple(rule110.reference_run(tape, self.STEPS)):
            return Outcome(f"tape {tape}: extracted {tapes} differ from the reference", out)
        if res.inconsistent_rounds:
            return Outcome(f"tape {tape}: inconsistent rounds {res.inconsistent_rounds}", out)
        violations = sum(len(r.violations) for r in res.structure_reports)
        if violations or len(res.structure_reports) != 2 * self.STEPS + 1:
            return Outcome(f"tape {tape}: {violations} structure violations in "
                           f"{len(res.structure_reports)} checks", out)
        return Outcome("", out)


class KcoreUniform:
    """Min-degree k-cores of one G(200, 0.05) at alpha = 2, 3 and 4, each
    under its own ``UniformRandomScheduler`` and checked by
    ``verify_kcore_run``.

    One run covers all three alphas. At this density alpha 2 and 3 rarely
    change anything, so a single simulation costs either the bare
    confirmation window or that plus a cascade of up to twice as many
    rounds; three per run make the per-run times unimodal, which keeps the
    median and the tail of one seed close to those of another.
    """

    name = "kcore_uniform"
    N = 200
    P = 0.05
    ALPHAS = (2, 3, 4)
    GRAPHS = 16
    DIGEST_RUNS = 2
    SETUP_REPEATS = 25

    def __init__(self, seed: int):
        gseeds = _seeds(seed, self.name, self.GRAPHS)
        self.graphs = [generators.gnp(self.N, self.P, seed=s) for s in gseeds]
        self.pots = {a: potentials.min_degree_potential(a, self.N) for a in self.ALPHAS}
        k = self.GRAPHS * len(self.ALPHAS)
        self.scheds = [schedulers.UniformRandomScheduler(s)
                       for s in _seeds(seed, "uniform", k)]

    def run(self, i: int) -> Outcome:
        j = i % self.GRAPHS
        g0 = self.graphs[j]
        out, problem = [], ""
        for a, alpha in enumerate(self.ALPHAS):
            trace = engine.run(engine.RunConfig(
                graph=g0, potential=self.pots[alpha],
                scheduler=self.scheds[len(self.ALPHAS) * j + a],
                max_rounds=5_000_000, record_rounds="changes"))
            out.append((trace.verdict.kind, _edges(trace.final_graph)))
            if problem:
                continue
            if trace.verdict.kind != "stabilized":
                problem = f"run {i}, alpha {alpha}: verdict {trace.verdict}"
                continue
            report = kcore.verify_kcore_run(trace.final_graph, g0, alpha)
            if not report.ok:
                problem = f"run {i}, alpha {alpha}: {report.summary()}"
            elif trace.change_count > g0.m:
                problem = f"run {i}, alpha {alpha}: {trace.change_count} changes exceed m={g0.m}"
        return Outcome(problem, tuple(out))


def _adversarial_script(n: int, seed: int, chunk: int) -> list:
    """Fair script covering all pairs once, with the lowest pair deferred to
    the last round of the period."""
    pairs = list(schedulers.all_pairs(n))
    first, rest = pairs[0], pairs[1:]
    random.Random(seed).shuffle(rest)
    script = [rest[k:k + chunk] for k in range(0, len(rest), chunk)]
    script.append([first])
    return script


def _fixed_point_problem(pot, g) -> str:
    """Empty if no pair of ``g`` would change under ``pot``, else the first
    pair that would."""
    for u, v in schedulers.all_pairs(g.n):
        edge = g.has_edge(u, v)
        if pot.next_state(pot.value(g, u, v), edge) != edge:
            return f"pair ({u},{v}) would change"
    return ""


class DegreeFair:
    """One run is three simulations on one G(n, p):

    * proper-degree dynamics at alpha == beta under ``CompleteScheduler``,
      checked by ``check_degree_properties``;
    * niceness degree-like dynamics under ``FairRoundRobinScheduler``;
    * min-degree dynamics under a fair adversarial ``ScriptedScheduler``;

    the last two checked as fixed points by evaluating every pair. The runs
    are deterministic, so their cost depends on the graph alone; many
    distinct graphs keep the figures of one seed close to those of another.
    """

    name = "degree_fair"
    N = 150
    P = 0.1
    INPUTS = 48
    RR_BATCH = 1000
    SCRIPT_CHUNK = 500
    DIGEST_RUNS = 6
    SETUP_REPEATS = 5

    def __init__(self, seed: int):
        fnames = sorted(potentials.PROPER_FUNCTIONS)
        self.round_robin = schedulers.FairRoundRobinScheduler(self.RR_BATCH)
        self.script = schedulers.ScriptedScheduler(
            _adversarial_script(self.N, seed, self.SCRIPT_CHUNK),
            self.N, repeat=True, claim_fair=True)
        proper = {}
        self.inputs = []
        for k, s in enumerate(_seeds(seed, self.name, self.INPUTS)):
            g = generators.gnp(self.N, self.P, seed=s)
            degs = sorted(g.degree(u) for u in range(g.n))
            med = degs[len(degs) // 2]
            fname = fnames[k % len(fnames)]
            f = potentials.PROPER_FUNCTIONS[fname]
            # f at the median degree pair splits the pairs, so round 1 writes
            beta = f(med, med)
            if (fname, beta) not in proper:
                proper[fname, beta] = potentials.proper_degree_potential(
                    f, beta, beta, name=f"proper_{fname}")
            profile = social.random_profile(self.N, seed=s)
            gn = social.niceness_g(profile)
            vals = sorted(gn(g, u) for u in range(g.n))
            # min-combined niceness below 0.55 of the median peels part of
            # the graph; the huge beta forbids creation
            nice = potentials.degree_like_potential(
                potentials.PROPER_FUNCTIONS["min"], gn, 0.55 * vals[len(vals) // 2], 1e9,
                name="niceness", validate_nodes=profile.n)
            # two thirds of the median degree leaves a proper, nonempty core
            mindeg = potentials.min_degree_potential(2 * med // 3, self.N)
            self.inputs.append((g, proper[fname, beta], nice, mindeg))

    def run(self, i: int) -> Outcome:
        g0, proper, nice, mindeg = self.inputs[i % len(self.inputs)]
        snaps = [g0.copy()]
        complete = engine.run(engine.RunConfig(
            graph=g0, potential=proper, scheduler=schedulers.CompleteScheduler(),
            max_rounds=g0.n + 3, observers=(engine.snapshot_observer(snaps),)))
        fair = [engine.run(engine.RunConfig(graph=g0, potential=pot, scheduler=sched,
                                            max_rounds=1_000_000))
                for pot, sched in ((nice, self.round_robin), (mindeg, self.script))]
        traces = [complete] + fair
        out = tuple((t.verdict.kind, _edges(t.final_graph)) for t in traces)
        for t in traces:
            if t.verdict.kind != "stabilized":
                return Outcome(f"run {i}: {t.metadata['potential']} verdict {t.verdict}", out)
        report = engine.check_degree_properties(snaps, start=1)
        if not report.ok:
            return Outcome(f"run {i}: degree properties violated: {report.violations[:3]}", out)
        for pot, t in zip((nice, mindeg), fair):
            problem = _fixed_point_problem(pot, t.final_graph)
            if problem:
                return Outcome(f"run {i}: {pot.name} final state is no fixed point: {problem}",
                               out)
        return Outcome("", out)


def _is_spanning_star(g) -> bool:
    degs = sorted(g.degree(u) for u in range(g.n))
    return g.m == g.n - 1 and degs == [1] * (g.n - 1) + [g.n - 1]


class Star:
    """``social.run_general(star_protocol)`` on ``random_connected`` graphs,
    uniform single-pair rounds, ``progress_check=True``. Run ``i`` draws its
    graph from a pool and has scheduler and coin seeds of its own, so the
    random streams, which set most of a run's length, differ run by run."""

    name = "star"
    N = 200
    EXTRA_P = 0.02
    GRAPHS = 16
    STREAMS = 1024
    DIGEST_RUNS = 40
    SETUP_REPEATS = 9

    def __init__(self, seed: int):
        self.graphs = [generators.random_connected(self.N, self.EXTRA_P, seed=s)
                       for s in _seeds(seed, self.name, self.GRAPHS)]
        self.seeds = _seeds(seed, "streams", self.STREAMS)
        self.scheds = [schedulers.UniformRandomScheduler(s) for s in self.seeds]

    def run(self, i: int) -> Outcome:
        j = i % self.STREAMS
        s = self.seeds[j]
        # a violated progress trichotomy raises ContractError, counted as a failure
        trace = social.run_general(
            self.graphs[i % self.GRAPHS], social.star_protocol(s), self.scheds[j],
            budget=1_000_000, seed=s, stop_predicate=social.star_predicate,
            progress_check=True)
        out = (trace.verdict.kind, _edges(trace.final_graph))
        tags = trace.metadata.get("tags", [])
        if trace.verdict.kind != "target" or not _is_spanning_star(trace.final_graph):
            return Outcome(f"run {i}: verdict {trace.verdict} without a spanning star", out)
        if len(tags) != trace.verdict.round or not set(tags) <= {"merge", "leaf", "tie"}:
            return Outcome(f"run {i}: {len(tags)} progress tags for "
                           f"{trace.verdict.round} rounds", out)
        return Outcome("", out)


WORKLOADS = {w.name: w for w in (R110Sweep, KcoreUniform, DegreeFair, Star)}
