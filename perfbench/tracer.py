"""Tracer that wraps abdyn's names from outside the library.

Nothing in the library imports this module. ``Tracer.install`` replaces each
traced name in the module (or class) where its caller looks it up, and
``Tracer.uninstall`` puts every original object back. While installed:

* stage-level calls (one engine run, a fingerprint fold, a structure check,
  an assembly restore, ...) become spans with a name, start, end, parent span
  and run id, kept in memory;
* per-round and per-pair calls (scheduler draws, decisions, potential
  evaluations, edge tokens, ...) only feed aggregate call counts and timers.

Every timed call, span or not, adds its duration to the enclosing timed
call, so each name also gets an exact self time: its duration minus the part
covered by its timed children. One thread runs a simulation, so children
never overlap and the covered part is the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter
from collections.abc import Sized
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Optional[int]
    self_s: float


class Stat:
    """Calls, total seconds and self seconds of one traced name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans, per-name timers and counters for one benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.spans: list[Span] = []
        self.run_id: Optional[int] = None
        self.wrapper_calls = 0
        self.missing: list[str] = []
        self._frames: list[list] = []       # per open call: [child seconds]
        self._open_spans: list[int] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stepper = None

    # -- timing core --------------------------------------------------------

    def timed(self, name: str, fn: Callable, span: bool = False,
              after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is timed under ``name``.

        ``after(result, args)`` runs once the call has returned, to update
        counters from the call's inputs and outputs.
        """
        stat = self.stats.setdefault(name, Stat())
        frames = self._frames
        clock = self.clock

        def wrapper(*args, **kwargs):
            self.wrapper_calls += 1
            if span:
                sid = self._next_span
                self._next_span += 1
                self._open_spans.append(sid)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                own = dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += own
                if span:
                    self._open_spans.pop()
                    parent = self._open_spans[-1] if self._open_spans else None
                    self.spans.append(Span(sid, name, start, end, parent, self.run_id, own))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once inside a span named ``name``."""
        return self.timed(name, fn, span=True)(*args, **kwargs)

    def take(self) -> tuple[dict[str, tuple[int, float, float]], Counter]:
        """Return (calls, total_s, self_s) per name and the counters so far,
        and zero them."""
        stats = {}
        for name, st in self.stats.items():
            stats[name] = (st.calls, st.total_s, st.self_s)
            st.calls, st.total_s, st.self_s = 0, 0.0, 0.0
        counts = Counter(self.counts)
        self.counts.clear()
        return stats, counts

    # -- patching -------------------------------------------------------------

    def _patch(self, module: str, path: str, make: Callable[[object], object]) -> None:
        """Replace ``module.path`` (``path`` may be ``Class.attr``) by
        ``make(original)``. A name the library does not have is recorded in
        ``missing`` and skipped, so the tracer survives refactors."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _time(self, module: str, path: str, name: str, span: bool = False,
              after: Optional[Callable] = None) -> None:
        self._patch(module, path, lambda fn: self.timed(name, fn, span, after))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """The installed (owner, attribute, original object) triples."""
        return list(self._patches)

    def _install(self) -> None:
        import abdyn.fastpath  # noqa: F401  (the engine imports it lazily)
        from abdyn import schedulers

        count = self.counts

        # graph
        for mod in ("abdyn.engine", "abdyn.social"):
            self._time(mod, "graph_fingerprint", "graph.fingerprint", span=True)
            self._time(mod, "edge_token", "graph.fingerprint_xor")

        def applied(result, args):
            count["graph.edges_toggled"] += len(args[1])
        self._time("abdyn.graph", "DynGraph.apply_delta", "graph.apply", after=applied)
        self._time("abdyn.graph", "DynGraph.copy", "graph.copy")

        # engine
        self._patch("abdyn.engine", "run", self._wrap_engine_run)
        self._patch("abdyn.rule110", "run", self._wrap_engine_run)
        self._patch("abdyn.engine", "decide_pairs", self._wrap_decide)

        def advanced(result, args):
            count["engine.rounds"] += 1
            count["engine.toggles"] += len(result[0])
            count["engine.changed_rounds"] += bool(len(result[0]))
        self._time("abdyn.engine", "NaiveStepper.advance", "engine.advance", after=advanced)
        self._time("abdyn.engine", "NaiveStepper.sweep_is_clean", "engine.sweep")
        self._time("abdyn.engine", "_bookkeep", "engine.bookkeep")
        self._time("abdyn.engine", "check_degree_properties", "engine.degree_props", span=True)

        # schedulers
        def emitted(result, args):
            count["schedulers.pairs_emitted"] += len(result)
        for cls in vars(schedulers).values():
            if isinstance(cls, type) and issubclass(cls, schedulers.Scheduler):
                if "interactions" in vars(cls) and cls is not schedulers.Scheduler:
                    self._time("abdyn.schedulers", f"{cls.__name__}.interactions",
                               "schedulers.interactions", after=emitted)
                if "reset" in vars(cls):
                    self._time("abdyn.schedulers", f"{cls.__name__}.reset",
                               "schedulers.reset")

        # potentials: validation, and the callables of every potential built
        for fn_name in ("validate_proper", "validate_degree_like"):
            self._time("abdyn.potentials", fn_name, "potentials.validate", span=True)
        for ctor in ("min_degree_potential", "proper_degree_potential",
                     "degree_like_potential"):
            self._patch("abdyn.potentials", ctor, self._wrap_potential_ctor)
        self._patch("abdyn.rule110", "rule110_potential", self._wrap_potential_ctor)

        # fastpath
        def initialised(result, args):
            self._stepper = args[0]
            count["fastpath.inits"] += 1
            count["fastpath.cn_table_size_init"] += len(args[0].cn)
        self._time("abdyn.fastpath", "IncrementalStepper.__init__", "fastpath.init",
                   span=True, after=initialised)
        self._time("abdyn.fastpath", "IncrementalStepper.advance", "fastpath.advance",
                   after=advanced)

        def substepped(result, args):
            count["fastpath.substeps"] += 1
            count["fastpath.toggles"] += len(result)
        self._time("abdyn.fastpath", "IncrementalStepper._substep", "fastpath.substep",
                   after=substepped)
        self._patch("abdyn.fastpath", "_exact_ce", self._wrap_ce_factory)

        # rule110
        self._time("abdyn.rule110", "build_assembly", "rule110.build", span=True)
        self._time("abdyn.rule110", "AssemblyRunner._restore", "rule110.restore", span=True)
        self._time("abdyn.rule110", "AssemblyRunner._set_tape", "rule110.set_tape", span=True)
        self._time("abdyn.rule110", "extract_values", "rule110.extract", span=True)
        self._patch("abdyn.rule110", "check_structure", self._wrap_check)

        # kcore
        self._time("abdyn.kcore", "verify_kcore_run", "kcore.verify", span=True)

        # social
        def social_ran(result, args):
            count["social.rounds"] += result.verdict.round
            count["social.changed_rounds"] += len(result.changed_rounds)
            count["social.toggles"] += sum(r.added + r.removed for r in result.rounds)
        self._time("abdyn.social", "run_general", "social.run", span=True, after=social_ran)
        self._time("abdyn.social", "ball_nodes", "social.confine")
        self._time("abdyn.social", "star_predicate", "social.predicate")
        self._patch("abdyn.social", "star_protocol", self._wrap_protocol_ctor)

    # -- wrappers that need more than a timer ----------------------------------

    def _wrap_engine_run(self, fn):
        def ran(result, args):
            if self._stepper is not None:
                self.counts["fastpath.cn_table_size_end"] += len(self._stepper.cn)
                self._stepper = None
        timed_run = self.timed("engine.run", fn, span=True, after=ran)

        def run(config):
            if config.observers:
                config = dataclasses.replace(config, observers=tuple(
                    self.timed("engine.observer", obs) for obs in config.observers))
            return timed_run(config)
        return run

    def _wrap_decide(self, fn):
        def decided(result, args):
            self.counts["engine.decide_toggles"] += len(result)
        timed_decide = self.timed("engine.decide", fn, after=decided)

        def decide_pairs(g, potential, pairs, prune):
            if not isinstance(pairs, Sized):
                pairs = list(pairs)      # a sweep passes a generator
            self.counts["engine.pairs_decided"] += len(pairs)
            return timed_decide(g, potential, pairs, prune)
        return decide_pairs

    def _wrap_check(self, fn):
        def checked(result, args):
            self.counts["rule110.check_calls"] += 1
            self.counts["rule110.violations"] += len(result.violations)
        # the round-0 check compares the whole edge set; later ones use the diff
        full = self.timed("rule110.check_full", fn, span=True, after=checked)
        by_diff = self.timed("rule110.check", fn, span=True, after=checked)

        def check_structure(assembly, g=None, round_index=0, diff=None):
            chosen = full if diff is None else by_diff
            return chosen(assembly, g, round_index, diff)
        return check_structure

    def _wrap_ce_factory(self, factory):
        def exact_ce(*args):
            return self.timed("fastpath.ce", factory(*args))
        return exact_ce

    def _wrap_potential_ctor(self, ctor):
        def build(*args, **kwargs):
            pot = ctor(*args, **kwargs)
            changes = {}
            for field in ("evaluator", "fast_evaluator"):
                if getattr(pot, field, None) is not None:
                    changes[field] = self.timed("potentials.eval", getattr(pot, field))
            if getattr(pot, "change_filter", None) is not None:
                changes["change_filter"] = self.timed("potentials.filter", pot.change_filter)
            stats = getattr(pot, "pair_stats", None)
            if stats is not None:
                changes["pair_stats"] = dataclasses.replace(
                    stats, decide=self.timed("fastpath.decide", stats.decide))
            return dataclasses.replace(pot, **changes)
        return build

    def _wrap_protocol_ctor(self, ctor):
        def build(*args, **kwargs):
            proto = ctor(*args, **kwargs)
            return dataclasses.replace(proto, rewrite=self.timed("social.rewrite", proto.rewrite))
        return build
