"""Command-line entry point.

Subcommands: run, verify, kcore, rule110, star, social. Exit codes: 0 for a
stabilized or target-met run (and passing verification), 2 for a detected
cycle, 3 for an exhausted budget, 4 for verification failure, 64 for usage
or configuration errors, malformed numbers in input files and configs among them.

Run configs are flat ``key = value`` text files; see the README for the key
set. ``run.stop = cycle``, the default, ends a run at its first repeated
state; ``run.stop = budget`` runs every round and reports a cycle at the end.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import generators
from .engine import RunConfig, check_degree_properties, run, snapshot_observer
from .errors import AbdynError, ConfigError, InputError
from .fileio import (read_edgelist, read_interaction_script, read_social_profile,
                     read_trace, write_edgelist, write_trace)
from .graph import DynGraph, fingerprint_hex
from .kcore import peel, verify_kcore_run
from .potentials import make_potential
from .rule110 import (AssemblyRunner, build_assembly, check_structure, extract_values,
                      validate_tape)
from .schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                         FairRoundRobinScheduler, ScriptedScheduler,
                         SocialScheduler, UniformRandomScheduler)
from .social import SocialProfile, run_general, star_predicate, star_protocol

EXIT_OK = 0
EXIT_CYCLE = 2
EXIT_BUDGET = 3
EXIT_VERIFY_FAIL = 4
EXIT_USAGE = 64

_VERDICT_CODES = {"stabilized": EXIT_OK, "target": EXIT_OK,
                  "cycle": EXIT_CYCLE, "budget": EXIT_BUDGET}

# potential.name of a run config that sets none, for run and its replay alike
DEFAULT_POTENTIAL = "min_degree"


def parse_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _number(cfg: dict, key: str, default=None, kind=int):
    """The value of ``key``, or ``default`` when it is not set, as ``kind``."""
    value = cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key} needs {kind.__name__}, got {value!r}") from None


def _build_graph(cfg: dict, base: str = "graph") -> DynGraph:
    if f"{base}.file" in cfg:
        return read_edgelist(cfg[f"{base}.file"])
    gen = cfg.get(f"{base}.generator")
    if gen is None:
        raise ConfigError(f"config needs {base}.file or {base}.generator")
    n = _number(cfg, f"{base}.n", "0")
    if gen == "gnp":
        return generators.gnp(n, _number(cfg, f"{base}.p", kind=float),
                              _number(cfg, f"{base}.seed", "0"))
    if gen == "cycle":
        return generators.cycle(n)
    if gen == "path":
        return generators.path(n)
    if gen == "star":
        return generators.star(n)
    if gen == "complete":
        return generators.complete(n)
    if gen == "rule110-assembly":
        tape = cfg.get(f"{base}.tape")
        if not tape:
            raise ConfigError("rule110-assembly generator needs graph.tape")
        return build_assembly(tape).graph
    raise ConfigError(f"unknown generator {gen!r}")


def _potential_from_config(cfg: dict, profile=None):
    return make_potential(cfg.get("potential.name", DEFAULT_POTENTIAL),
                          alpha=_number(cfg, "potential.alpha", "0", float),
                          beta=_number(cfg, "potential.beta", "0", float),
                          f=cfg.get("potential.f"), profile=profile)


def _scheduler_from_config(cfg: dict, graph: DynGraph, profile=None):
    name = cfg.get("scheduler.name", "complete")
    if name == "complete":
        return CompleteScheduler()
    if name == "current_edges":
        return CurrentEdgesScheduler()
    if name == "uniform":
        return UniformRandomScheduler(_number(cfg, "scheduler.seed", cfg.get("seed", "0")))
    if name == "round_robin":
        return FairRoundRobinScheduler(_number(cfg, "scheduler.batch", "1"))
    if name == "scripted":
        if "scheduler.script" not in cfg:
            raise ConfigError("scripted scheduler needs config key scheduler.script")
        script = read_interaction_script(cfg["scheduler.script"])
        fair = cfg.get("scheduler.fair", "false").lower() == "true"
        return ScriptedScheduler(script, graph.n, repeat=True, claim_fair=fair)
    if name == "social":
        if profile is None:
            raise ConfigError("social scheduler needs potential.profile")
        return SocialScheduler(profile, _number(cfg, "scheduler.gamma", "1"))
    raise ConfigError(f"unknown scheduler {name!r}")


def _read_profile(path: str) -> SocialProfile:
    niceness, extroversion, enemies = read_social_profile(path)
    return SocialProfile(niceness=niceness, extroversion=extroversion, enemies=enemies)


def _finish(trace, graph_path=None) -> int:
    """Print the verdict, write the final graph to ``graph_path`` if one is
    given, and return the verdict's exit code."""
    v = trace.verdict
    print(f"verdict: {v.kind} at round {v.round}"
          + (f" (period {v.period})" if v.period else ""))
    if graph_path:
        write_edgelist(trace.final_graph, graph_path)
    return _VERDICT_CODES.get(v.kind, EXIT_BUDGET)


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    seed = _number(cfg, "seed", "0")
    graph = _build_graph(cfg)
    profile = _read_profile(cfg["potential.profile"]) if "potential.profile" in cfg else None
    if profile is not None and profile.n != graph.n:
        raise ConfigError(
            f"potential.profile describes {profile.n} nodes, graph has {graph.n}")
    potential = _potential_from_config(cfg, profile)
    scheduler = _scheduler_from_config(cfg, graph, profile)
    rc = RunConfig(
        graph=graph,
        potential=potential,
        scheduler=scheduler,
        max_rounds=_number(cfg, "run.rounds", "100000"),
        stop_mode=cfg.get("run.stop", "cycle"),
        engine=cfg.get("run.engine", "auto"),
    )
    trace = run(rc)
    target = cfg.get("output.trace")
    if target is not None:
        with nullcontext(sys.stdout) if target == "-" else open(target, "w") as fh:
            write_trace(fh, seed, {"config": cfg, **trace.metadata}, trace)
    return _finish(trace, cfg.get("output.graph"))


def cmd_kcore(args) -> int:
    g = read_edgelist(args.graph)
    dec = peel(g, args.k)
    print(f"{args.k}-core ({len(dec.core)} nodes):",
          " ".join(map(str, sorted(dec.core))))
    print(f"{args.k - 1}-crust ({len(dec.crust)} nodes):",
          " ".join(map(str, sorted(dec.crust))))
    return EXIT_OK


def cmd_rule110(args) -> int:
    tape = validate_tape(args.tape)
    if args.steps < 0:
        raise InputError(f"steps must be nonnegative, got {args.steps}")
    if args.dump_assembly:
        assembly = build_assembly(tape)
        write_edgelist(assembly.graph, args.dump_assembly + ".edges")
        with open(args.dump_assembly + ".labels", "w") as fh:
            for node in range(assembly.graph.n):
                fh.write(f"{node}\t{assembly.gmap.describe_node(node)}\n")
    result = AssemblyRunner(len(tape)).run(tape, args.steps, merged=args.merged,
                                           check=args.check)
    for k, extracted in enumerate(result.tapes):
        print(f"step {k}: " + "".join("?" if c is None else str(c) for c in extracted))
    ok = result.ok and result.matches_reference()
    print(f"reference match: {'yes' if ok else 'NO'}")
    code = _finish(result.trace)
    return code if ok else EXIT_VERIFY_FAIL


def cmd_star(args) -> int:
    if args.graph:
        g = read_edgelist(args.graph)
    else:
        g = generators.random_connected(args.n, args.p, args.seed)
    scheduler = UniformRandomScheduler(args.seed)
    trace = run_general(g, star_protocol(args.seed), scheduler,
                        budget=args.budget, seed=args.seed,
                        stop_predicate=star_predicate)
    return _finish(trace, args.out)


def cmd_social(args) -> int:
    profile = _read_profile(args.profile)
    g = read_edgelist(args.graph)
    if g.n != profile.n:
        raise ConfigError(f"graph has {g.n} nodes but profile describes {profile.n}")
    potential = make_potential("degree_like_niceness", alpha=args.alpha,
                               beta=args.beta, f="sum", profile=profile)
    scheduler = SocialScheduler(profile, args.gamma)
    trace = run(RunConfig(graph=g, potential=potential, scheduler=scheduler,
                          max_rounds=args.rounds))
    return _finish(trace, args.out)


def _trace_mismatch(recorded: dict, trace) -> str:
    """What differs between a trace file read by ``read_trace`` and the
    replay's rounds and verdict; empty if nothing does."""
    want = [r.get("fingerprint") for r in recorded["rounds"]]
    got = [fingerprint_hex(r.fingerprint) for r in trace.rounds]
    if want != got:
        k = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b),
                 min(len(want), len(got)))
        return (f"replay fingerprints diverge from trace at round record {k}; "
                f"trace has {len(want)} round records, replay {len(got)}")
    v = recorded["verdict"]
    if v is None:
        return "trace has no verdict record"
    if (v.get("kind"), v.get("round"), v.get("period")) != tuple(trace.verdict):
        return f"replay {trace.verdict} differs from trace verdict {v}"
    return ""


def cmd_verify(args) -> int:
    if args.mode == "kcore":
        if not (args.initial and args.final and args.alpha is not None):
            raise ConfigError("kcore mode needs --initial, --final and --alpha")
        report = verify_kcore_run(read_edgelist(args.final),
                                  read_edgelist(args.initial), args.alpha)
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_VERIFY_FAIL

    if args.mode == "rule110":
        if not (args.tape and args.graph_file):
            raise ConfigError("rule110 mode needs --tape and --graph")
        assembly = build_assembly(args.tape)
        g = read_edgelist(args.graph_file)
        report = check_structure(assembly, g, round_index=args.round)
        print(report.summary())
        if report.ok and args.round % 2 == 0:
            values = extract_values(assembly, g)
            if None in values:
                bad = [i for i, c in enumerate(values) if c is None]
                print(f"extraction inconsistent at cells {bad}")
                return EXIT_VERIFY_FAIL
            print("extracted: " + "".join(map(str, values)))
        return EXIT_OK if report.ok else EXIT_VERIFY_FAIL

    if args.mode == "degree-props":
        if not args.config:
            raise ConfigError("degree-props mode needs --config")
        cfg = parse_config(args.config)
        # the degree properties hold along complete-scheduler runs only
        scheduler = cfg.get("scheduler.name", "complete")
        if scheduler != "complete":
            raise ConfigError(f"degree-props mode replays under the complete scheduler; "
                              f"config key scheduler.name is {scheduler!r}")
        recorded = read_trace(args.trace) if args.trace else None
        graph = _build_graph(cfg)
        potential = _potential_from_config(cfg)
        snapshots = [graph.copy()]
        rc = RunConfig(graph=graph, potential=potential,
                       scheduler=CompleteScheduler(),
                       max_rounds=_number(cfg, "run.rounds", "100000"),
                       stop_mode=cfg.get("run.stop", "cycle"),
                       observers=(snapshot_observer(snapshots),))
        trace = run(rc)
        mismatch = recorded and _trace_mismatch(recorded, trace)
        if mismatch:
            print(f"degree-props: FAIL ({mismatch})")
            return EXIT_VERIFY_FAIL
        report = check_degree_properties(snapshots)
        if report.ok:
            print(f"degree-props: PASS ({report.rounds_checked} rounds checked)")
            return EXIT_OK
        first = report.violations[0]
        print(f"degree-props: FAIL ({first.prop} at round {first.round}, "
              f"witness {first.witness})")
        return EXIT_VERIFY_FAIL

    raise ConfigError(f"unknown verify mode {args.mode!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abdyn",
        description="Thresholded structural network dynamics: run and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a run config")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="verify run artifacts")
    p.add_argument("--mode", required=True, choices=["kcore", "rule110", "degree-props"])
    p.add_argument("--initial")
    p.add_argument("--final")
    p.add_argument("--alpha", type=int)
    p.add_argument("--tape")
    p.add_argument("--graph", dest="graph_file")
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kcore", help="peel a graph file")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_kcore)

    p = sub.add_parser("rule110", help="simulate the cell-gadget automaton")
    p.add_argument("--tape", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--merged", action="store_true")
    p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--dump-assembly", metavar="PREFIX")
    p.set_defaults(func=cmd_rule110)

    p = sub.add_parser("star", help="run the spanning-star protocol")
    p.add_argument("--graph")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("social", help="run the social dynamics model")
    p.add_argument("--graph", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rounds", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_social)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AbdynError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
