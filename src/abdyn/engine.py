"""Synchronous round execution, stabilization and cycle detection.

Each round the scheduler emits an interaction set; every scheduled pair is
decided against the pre-round graph (synchronous semantics), the resulting
delta is applied, and bookkeeping updates the trace. A pair's decision is a
pure function of the pair and the pre-round graph, and each unordered pair
appears at most once per round, so conflicting simultaneous decisions cannot
arise.

Stabilization verdicts depend on the scheduler contract:

* complete or graph-driven deterministic schedulers: one changeless round
  proves a fixed point;
* schedulers with a declared fairness period P: P consecutive changeless
  rounds prove it;
* stochastic schedulers: after a configurable quiet streak the engine runs a
  full sweep over all pairs and declares stabilization only if no pair would
  change.

Cycle detection compares exact edge-set differences from the initial graph
(plus the scheduler phase), so a cycle verdict is never a false positive;
fingerprints appear in traces only as cheap labels.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, edge_token, graph_fingerprint
from .potentials import Potential
from .schedulers import Scheduler, all_pairs, pair_count


class RoundRecord(NamedTuple):
    t: int
    interactions: int
    added: int
    removed: int
    classes: int
    fingerprint: int


class Verdict(NamedTuple):
    kind: str                       # stabilized | cycle | budget | target
    round: int
    period: Optional[int] = None


@dataclass
class RunTrace:
    rounds: list[RoundRecord]
    verdict: Verdict
    seed: int
    metadata: dict
    final_graph: DynGraph
    changed_rounds: list[int]
    last_change_round: Optional[int]
    deltas: Optional[list[EdgeDelta]] = None
    # pairs whose state differs from the run's initial graph: the run loop's
    # own set, handed over uncopied (read-only); None when it is not tracked
    diff: Optional[set[tuple[int, int]]] = None

    @property
    def change_count(self) -> int:
        return len(self.changed_rounds)


@dataclass
class RunConfig:
    graph: DynGraph
    potential: Potential
    scheduler: Scheduler
    max_rounds: int
    stop_mode: str = "fixed_point"          # fixed_point | cycle | budget
    prune: bool = False
    seed: int = 0
    engine: str = "auto"                    # auto | naive | incremental | bulk
    copy_graph: bool = True
    record_rounds: str = "auto"             # all | changes | auto
    record_deltas: bool = False
    quiescence_window: Optional[int] = None
    cycle_history: int = 4096
    naive_pair_limit: int = 400_000
    observers: Sequence[Callable] = ()

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.stop_mode not in ("fixed_point", "cycle", "budget"):
            raise ConfigError(f"unknown stop_mode {self.stop_mode!r}")


def coupon_streak_default(n: int) -> int:
    """Changeless-round streak after which a stochastic run is worth a
    stabilization sweep; scaled like pair-coupon collection."""
    pairs = max(pair_count(n), 2)
    return int(20 * pairs * math.log(pairs))


# ---------------------------------------------------------------------------
# Single-round decision logic

def decide_pairs(g: DynGraph, potential: Potential, pairs, prune: bool) -> EdgeDelta:
    """Decide every scheduled pair against the pre-round graph.

    With ``prune``, a pair whose common neighbor count lies below the
    potential's certified floor (see :class:`~abdyn.potentials.PairStatsRule`)
    keeps its state and is skipped; potentials without pair statistics are
    never pruned.
    """
    additions = []
    removals = []
    alpha, beta = potential.alpha, potential.beta
    evaluate = potential.evaluator
    adj = g._adj
    stats = potential.pair_stats
    floor = stats.cn_floor if prune and stats is not None else 0
    for u, v in pairs:
        if floor and len(adj[u] & adj[v]) < floor:
            continue
        try:
            val = evaluate(g, u, v)
        except ContractError:
            raise
        except Exception as exc:
            raise ContractError(
                f"potential {potential.name} failed on pair ({u},{v}): {exc}") from exc
        if val < alpha:
            if v in adj[u]:
                removals.append((u, v))
        elif val >= beta:
            if v not in adj[u]:
                additions.append((u, v))
    return EdgeDelta.build(additions, removals)


# ---------------------------------------------------------------------------
# Steppers: strategies that compute and apply one round

class NaiveStepper:
    """Pairwise evaluation of whatever the scheduler emits."""

    def __init__(self, g: DynGraph, potential: Potential, scheduler: Scheduler, prune: bool):
        if prune and potential.pair_stats is not None:
            potential.pair_stats.certify()
        self.g = g
        self.potential = potential
        self.scheduler = scheduler
        self.prune = prune

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        inter = self.scheduler.interactions(t, self.g)
        delta = decide_pairs(self.g, self.potential, inter, self.prune)
        self.g.apply_delta(delta)
        return delta, len(inter)

    def sweep_is_clean(self) -> bool:
        return decide_pairs(self.g, self.potential, all_pairs(self.g.n), False).empty


def _make_stepper(cfg: RunConfig, g: DynGraph):
    mode = cfg.engine
    sched = cfg.scheduler
    pot = cfg.potential
    npairs = pair_count(g.n)
    merged_capable = pot.merged_base is not None and pot.merged_base.pair_stats is not None
    if mode == "auto":
        if not sched.is_complete:
            mode = "naive"
        elif merged_capable:
            mode = "incremental"
        elif pot.pair_stats is not None and npairs > cfg.naive_pair_limit:
            mode = "incremental" if cfg.prune else "bulk"
        elif npairs > cfg.naive_pair_limit:
            raise ConfigError(
                "graph too large for pairwise evaluation under the complete "
                "scheduler; the potential provides no pair statistics")
        else:
            mode = "naive"
    if mode == "naive":
        return NaiveStepper(g, pot, sched, cfg.prune)
    if mode in ("incremental", "bulk"):
        if not sched.is_complete:
            raise ConfigError(f"{mode} engine requires the complete scheduler")
        from . import fastpath
        if mode == "incremental":
            return fastpath.IncrementalStepper(g, pot)
        return fastpath.BulkStepper(g, pot)
    raise ConfigError(f"unknown engine {mode!r}")


# ---------------------------------------------------------------------------
# The run loop

def run(config: RunConfig) -> RunTrace:
    g = config.graph.copy() if config.copy_graph else config.graph
    sched = config.scheduler
    sched.reset(g)

    stepper = _make_stepper(config, g)

    record_all = config.record_rounds == "all" or (
        config.record_rounds == "auto" and config.max_rounds <= 100_000)

    fp = graph_fingerprint(g)
    degree_counter = Counter(len(g._adj[u]) for u in range(g.n))
    diff: set[tuple[int, int]] = set()

    track_cycles = sched.deterministic
    history: dict[tuple, int] = {}
    history_order: list[tuple] = []
    if track_cycles:
        key0 = (frozenset(), sched.phase(0))
        history[key0] = 0
        history_order.append(key0)

    rounds: list[RoundRecord] = []
    deltas: list[EdgeDelta] | None = [] if config.record_deltas else None
    changed_rounds: list[int] = []
    last_change: Optional[int] = None
    quiet_streak = 0
    cycle_seen: Optional[Verdict] = None

    window = config.quiescence_window
    if window is None:
        if sched.fairness_period is not None:
            window = sched.fairness_period
        else:
            window = min(coupon_streak_default(g.n), 4 * pair_count(g.n) + 8)

    sweep_allowed = pair_count(g.n) <= config.naive_pair_limit
    verdict: Optional[Verdict] = None

    for t in range(config.max_rounds):
        delta, n_inter = stepper.advance(t)
        changed = not delta.empty

        if changed:
            _bookkeep(delta, g, degree_counter, diff)
            for u, v in delta.additions:
                fp ^= edge_token(u, v)
            for u, v in delta.removals:
                fp ^= edge_token(u, v)
            changed_rounds.append(t)
            last_change = t
            quiet_streak = 0
        else:
            quiet_streak += 1

        if record_all or changed:
            rounds.append(RoundRecord(t, n_inter, len(delta.additions),
                                      len(delta.removals), len(degree_counter), fp))
        if deltas is not None:
            deltas.append(delta)
        for obs in config.observers:
            obs(t, g, delta, diff)

        # stabilization by scheduler contract
        stabilized = False
        if not changed:
            if sched.is_complete or sched.graph_driven:
                stabilized = True
            elif sched.fairness_period is not None and quiet_streak >= sched.fairness_period:
                stabilized = True
            elif sched.fairness_period is None and not sched.deterministic \
                    and quiet_streak >= window and sweep_allowed \
                    and hasattr(stepper, "sweep_is_clean"):
                if stepper.sweep_is_clean():
                    stabilized = True
                else:
                    quiet_streak = 0
        if stabilized:
            verdict = Verdict("stabilized", (last_change + 1) if last_change is not None else 0)
            break

        if track_cycles and cycle_seen is None:
            key = (frozenset(diff), sched.phase(t + 1))
            if key in history:
                entered = history[key]
                period = t + 1 - entered
                if last_change is None or last_change < entered:
                    verdict = Verdict("stabilized",
                                      (last_change + 1) if last_change is not None else 0)
                    break
                cycle_seen = Verdict("cycle", entered, period)
                if config.stop_mode in ("fixed_point", "cycle"):
                    verdict = cycle_seen
                    break
            else:
                history[key] = t + 1
                history_order.append(key)
                if len(history_order) > config.cycle_history:
                    history.pop(history_order.pop(0), None)

    if verdict is None:
        verdict = cycle_seen if cycle_seen is not None else Verdict("budget", config.max_rounds)

    metadata = {
        "potential": config.potential.name,
        "potential_params": config.potential.params,
        "scheduler": sched.name,
        "scheduler_params": sched.params(),
        "prune": config.prune,
        "engine": type(stepper).__name__,
        "n": g.n,
        "half_step_rounds": (config.potential.name == "rule110"),
    }
    return RunTrace(rounds=rounds, verdict=verdict, seed=config.seed,
                    metadata=metadata, final_graph=g, changed_rounds=changed_rounds,
                    last_change_round=last_change, deltas=deltas, diff=diff)


def _bookkeep(delta: EdgeDelta, g: DynGraph, counter: Counter, diff: set) -> None:
    """Update the degree-class counter and the diff-from-initial set after
    the delta has been applied."""
    shift = Counter()
    for u, v in delta.additions:
        shift[u] += 1
        shift[v] += 1
        pair = (u, v)
        if pair in diff:
            diff.discard(pair)
        else:
            diff.add(pair)
    for u, v in delta.removals:
        shift[u] -= 1
        shift[v] -= 1
        pair = (u, v)
        if pair in diff:
            diff.discard(pair)
        else:
            diff.add(pair)
    for node, ch in shift.items():
        if ch == 0:
            continue
        new = len(g._adj[node])
        old = new - ch
        counter[old] -= 1
        if counter[old] == 0:
            del counter[old]
        counter[new] += 1


# ---------------------------------------------------------------------------
# Degree-class diagnostics

@dataclass(frozen=True)
class DegreeClasses:
    classes: tuple[frozenset, ...]
    degrees: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def degree_classes(g: DynGraph) -> DegreeClasses:
    """Partition of the nodes by degree, ordered by decreasing degree."""
    buckets: dict[int, set[int]] = {}
    for u in range(g.n):
        buckets.setdefault(len(g._adj[u]), set()).add(u)
    degs = sorted(buckets, reverse=True)
    return DegreeClasses(
        classes=tuple(frozenset(buckets[d]) for d in degs),
        degrees=tuple(degs),
    )


@dataclass
class PropertyViolation:
    prop: str
    round: int
    witness: tuple


@dataclass
class PropertyReport:
    violations: list[PropertyViolation]
    rounds_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_degree_properties(graphs: Sequence[DynGraph], start: int = 1) -> PropertyReport:
    """Verify the degree-dynamics invariants along a recorded run.

    Expects the graph snapshots of a run under the complete scheduler with
    alpha == beta and a proper potential on degrees. For every recorded round
    t >= start it checks, against round t+1:

    * P1 degree order is preserved;
    * P2 nodes of equal degree get identical next neighborhoods apart from
      their mutual edge;
    * P3 the number of degree classes never grows;
    * P4 if the class count is unchanged, so are the class sizes rank by rank;
    * L4 next neighborhoods are nested along the degree order.
    """
    violations: list[PropertyViolation] = []
    checked = 0
    for t in range(start, len(graphs) - 1):
        g, h = graphs[t], graphs[t + 1]
        checked += 1
        n = g.n
        dg = [g.degree(u) for u in range(n)]
        dh = [h.degree(u) for u in range(n)]
        order = sorted(range(n), key=lambda u: -dg[u])
        for a in range(n):
            u = order[a]
            for b in range(a + 1, n):
                w = order[b]
                if dh[u] < dh[w]:
                    violations.append(PropertyViolation("P1", t, (u, w)))
                nu = h.neighbors(u) - {w}
                nw = h.neighbors(w) - {u}
                if dg[u] == dg[w]:
                    if nu != nw:
                        violations.append(PropertyViolation("P2", t, (u, w)))
                elif not nw <= nu:
                    violations.append(PropertyViolation("L4", t, (u, w)))
        cg, ch = degree_classes(g), degree_classes(h)
        if ch.count > cg.count:
            violations.append(PropertyViolation("P3", t, (cg.count, ch.count)))
        elif ch.count == cg.count:
            sizes_g = tuple(len(c) for c in cg.classes)
            sizes_h = tuple(len(c) for c in ch.classes)
            if sizes_g != sizes_h:
                violations.append(PropertyViolation("P4", t, (sizes_g, sizes_h)))
    return PropertyReport(violations=violations, rounds_checked=checked)


def frozen_nodes(trace: RunTrace, window: int) -> set[int]:
    """Nodes untouched by any delta over the last ``window`` recorded rounds,
    hence with unchanged neighborhoods there. Requires record_deltas."""
    if window < 1:
        raise ConfigError(f"window must be positive, got {window}")
    if trace.deltas is None:
        raise ConfigError("run was not configured with record_deltas=True")
    touched: set[int] = set()
    for delta in trace.deltas[-window:]:
        for u, v in delta.additions:
            touched.add(u)
            touched.add(v)
        for u, v in delta.removals:
            touched.add(u)
            touched.add(v)
    return set(range(trace.final_graph.n)) - touched


def snapshot_observer(store: list):
    """Observer that copies the graph after every round; prepend the initial
    graph yourself before running."""
    def _obs(t, g, delta, diff):
        store.append(g.copy())
    return _obs
