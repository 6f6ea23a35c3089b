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
* stochastic schedulers: after 4 C(n,2) + 8 quiet rounds the engine runs a
  full sweep over all pairs and declares stabilization only if no pair would
  change.

Routes (``RunConfig.engine``): ``naive`` evaluates whatever the scheduler
emits through ``potential.evaluator`` and is the unpruned reference;
``incremental`` and ``bulk`` (see :mod:`abdyn.fastpath`) serve the complete
scheduler on pair-statistics rules. ``auto`` uses the potential's
certificates, which changes no decision:

* it skips the pairs below a pair-statistics rule's certified floor, and
  picks ``incremental`` for the complete scheduler on graphs too large for
  pairwise evaluation;
* it decides a node-form potential f(h(u), h(v)) (see
  :attr:`~abdyn.potentials.Potential.node_form`) from a table of h, computed
  at most once per node per decision. A decision over all pairs (a
  complete-scheduler round, or the init and the confirming sweep below)
  takes O(n log n + m + |delta|) calls of a catalog f: the nodes that u
  would join form a suffix of the nodes sorted by h;
* it serves uniform one-pair rounds on node-form potentials without
  observers through :class:`ActiveSetStepper`, which keeps the exact set of
  pairs whose decision would change, so a round that draws a pair outside
  it is quiet without evaluation, and a run stops as soon as the set is
  empty. If the run changed the graph, one full sweep confirms the empty
  set first; a dirty sweep means the potential's certificate is false and
  raises ``ContractError``. The route consumes the scheduler's random
  stream exactly as ``naive`` does, so both produce the same rounds up to
  the fixed point.

Cycle detection compares exact edge-set differences from the initial graph
(plus the scheduler phase), so a cycle verdict is never a false positive;
fingerprints appear in traces only as cheap labels. The loop reads them from
the graph (:attr:`~abdyn.graph.DynGraph.fingerprint`), which folds itself once
and then XORs in the tokens of each toggle as the steppers apply them, so a
round's label costs O(toggles), not O(m). A graph run with ``copy_graph``
off keeps its fingerprint between runs and is folded only once.

The same loop runs a rewrite protocol (:class:`abdyn.social.GeneralProtocol`
passed as ``RunConfig.potential``) through its stepper. Such a run has no
stabilization rules, sweeps or cycle keys: it ends with verdict ``target``
when the protocol's ``stop`` predicate holds, checked before round 0 and
after each changed round, or with ``budget``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, norm_pair
# unused here: perfbench/tracer.py wraps them by name until ROADMAP item 1 step B
from .graph import edge_token, graph_fingerprint  # noqa: F401
from .potentials import PROPER_FUNCTIONS, Potential, degree
from .schedulers import (InteractionSet, Scheduler, UniformRandomScheduler, pair_count,
                         rank_pair, unrank_pair)

# Largest pair count that a run evaluates pair by pair in one round or sweep.
NAIVE_PAIR_LIMIT = 400_000
# Deterministic-scheduler states kept for cycle detection; older ones are
# dropped, so a longer cycle is not detected.
CYCLE_HISTORY = 4096
# Entries of one dense row block in check_degree_properties.
BLOCK_ENTRIES = 1 << 20


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
    metadata: dict
    final_graph: DynGraph
    changed_rounds: list[int]
    deltas: Optional[list[EdgeDelta]] = None
    # pairs whose state differs from the run's initial graph: the run loop's
    # own set, handed over uncopied (read-only); None when it is not tracked
    diff: Optional[set[tuple[int, int]]] = None

    @property
    def change_count(self) -> int:
        return len(self.changed_rounds)

    @property
    def last_change_round(self) -> Optional[int]:
        return self.changed_rounds[-1] if self.changed_rounds else None


@dataclass
class RunConfig:
    graph: DynGraph
    potential: Potential                    # or a social.GeneralProtocol
    scheduler: Scheduler
    max_rounds: int
    stop_mode: str = "cycle"                # cycle | budget
    engine: str = "auto"                    # auto | naive | incremental | bulk
    copy_graph: bool = True
    record_rounds: str = "auto"             # all | changes | auto
    record_deltas: bool = False
    observers: Sequence[Callable] = ()

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.stop_mode not in ("cycle", "budget"):
            raise ConfigError(f"unknown stop_mode {self.stop_mode!r}")
        if self.engine not in ("auto", "naive", "incremental", "bulk"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.engine != "auto" and not isinstance(self.potential, Potential):
            raise ConfigError(f"a rewrite protocol runs on engine auto, not {self.engine!r}")
        if self.record_rounds not in ("all", "changes", "auto"):
            raise ConfigError(f"unknown record_rounds {self.record_rounds!r}")


# ---------------------------------------------------------------------------
# Single-round decision logic

def decide_pairs(g: DynGraph, potential: Potential, pairs, prune: bool) -> EdgeDelta:
    """Decide every scheduled pair against the pre-round graph.

    Without ``prune`` every pair goes through ``potential.evaluator``: the
    reference. With it (the ``auto`` route) the decisions use the potential's
    certificates, which moves none of them:

    * a pair-statistics rule (see :class:`~abdyn.potentials.PairStatsRule`)
      skips the pairs whose common neighbor count lies below its certified
      floor; they keep their state;
    * a node-form potential f(h(u), h(v)) computes h at most once per node
      and evaluates f on the values. A complete interaction set is decided
      by :func:`_sorted_sweep` when f is a catalog function and the values
      allow it.
    """
    evaluate = potential.evaluator
    if prune and potential.node_form is not None:
        f, h = potential.node_form
        # the degrees of all nodes cost one pass in C; any other h is
        # computed for the scheduled nodes only
        table = list(map(len, g._adj)) if h is degree else _NodeTable(g, potential)
        if isinstance(pairs, InteractionSet) and pairs.complete:
            values = table if h is degree else [table[u] for u in range(g.n)]
            if _sortable(f, values):
                return _sorted_sweep(g, potential, values)

        def evaluate(_g, u, v):
            return f(table[u], table[v])
    additions = []
    removals = []
    alpha, beta = potential.alpha, potential.beta
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


class _NodeTable(dict):
    """h of each node, computed on first lookup; lives for one decision, so
    it reads the pre-round graph."""

    __slots__ = ("g", "potential")

    def __init__(self, g: DynGraph, potential: Potential):
        super().__init__()
        self.g = g
        self.potential = potential

    def __missing__(self, u: int):
        try:
            value = self.potential.node_form[1](self.g, u)
        except ContractError:
            raise
        except Exception as exc:
            raise ContractError(
                f"potential {self.potential.name} failed on node {u}: {exc}") from exc
        self[u] = value
        return value


def _sortable(f, values: list) -> bool:
    """Whether :func:`_sorted_sweep` decides exactly as f pair by pair.

    f must be a catalog function, matched by identity, and the values all
    ints or all finite floats (nonnegative for ``product``). f is then
    non-decreasing in each argument along the sorted values, and equal
    values give equal results: mixing ints and floats could break both,
    since an int above 2**53 loses precision in float arithmetic.
    """
    if not any(f is c for c in PROPER_FUNCTIONS.values()):
        return False
    kind = type(values[0]) if values else int
    if kind not in (int, float) or any(type(x) is not kind for x in values):
        return False
    if kind is float and not all(map(math.isfinite, values)):
        return False
    return f is not PROPER_FUNCTIONS["product"] or all(x >= 0 for x in values)


def _sorted_sweep(g: DynGraph, potential: Potential, table: list) -> EdgeDelta:
    """Decide all pairs of a node-form potential from its node values with
    O(n log n) calls of f and O(m + |delta|) further steps.

    Since f is non-decreasing, the nodes v with f(h(u), h(v)) < alpha form a
    prefix, and those with f(h(u), h(v)) >= beta a suffix, of the nodes
    sorted by h. Two bisections per node find where they end and start.
    The removals at u are its neighbours with a value below the prefix's
    end. The walk over the suffix meets, beside the additions at u, only
    u's neighbours, u itself and additions counted from their other end.
    """
    f = potential.node_form[0]
    alpha, beta = potential.alpha, potential.beta
    adj = g._adj
    n = g.n
    order = sorted(range(n), key=table.__getitem__)
    ranked = [table[w] for w in order]
    additions = []
    removals = []
    for u in range(n):
        x = table[u]
        nbrs = adj[u]
        low = bisect_left(ranked, True, key=lambda y: f(x, y) >= alpha)
        if low == n:
            removals.extend((u, v) for v in nbrs if v > u)
        elif low:
            bound = ranked[low]
            removals.extend((u, v) for v in nbrs if v > u and table[v] < bound)
        if beta != alpha:
            low = bisect_left(ranked, True, lo=low, key=lambda y: f(x, y) >= beta)
        additions.extend((u, v) for v in order[low:] if v > u and v not in nbrs)
    return EdgeDelta.build(additions, removals)


# ---------------------------------------------------------------------------
# Steppers: strategies that compute and apply one round

class NaiveStepper:
    """Pairwise evaluation of whatever the scheduler emits. With
    ``certified`` (the ``auto`` route) :func:`decide_pairs` uses the
    potential's certificates, and a pair-statistics rule has its floor
    certified first; ``self.prune`` says whether any pair can be skipped."""

    def __init__(self, g: DynGraph, potential: Potential, scheduler: Scheduler,
                 certified: bool):
        self.certified = certified
        self.prune = certified and potential.pair_stats is not None
        if self.prune:
            potential.pair_stats.certify()
        self.g = g
        self.potential = potential
        self.scheduler = scheduler

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        inter = self.scheduler.interactions(t, self.g)
        inter.validate(self.g.n)
        delta = decide_pairs(self.g, self.potential, inter, self.certified)
        self.g.apply_delta(delta)
        return delta, len(inter)

    def sweep_is_clean(self) -> bool:
        return decide_pairs(self.g, self.potential, InteractionSet(complete_n=self.g.n),
                            self.certified).empty


class ActiveSetStepper(NaiveStepper):
    """Uniform one-pair rounds on a node-form potential.

    ``active`` holds the ranks (see :func:`~abdyn.schedulers.rank_pair`) of
    exactly the pairs whose decision would change the graph. Only a toggle at
    u or v can change the decision of (u, v), so after each change the pairs
    at its two endpoints are decided again and nothing else is. A drawn rank
    outside the set is a quiet round that needs no evaluation.
    """

    def __init__(self, g: DynGraph, potential: Potential, scheduler: UniformRandomScheduler):
        super().__init__(g, potential, scheduler, certified=True)
        self._pending: Optional[int] = None
        self.active = self._changing(InteractionSet(complete_n=g.n))

    def _changing(self, pairs) -> set[int]:
        """Ranks of those of ``pairs`` whose decision would change the graph."""
        delta = decide_pairs(self.g, self.potential, pairs, True)
        return {rank_pair(u, v) for u, v in delta.additions + delta.removals}

    def skip_quiet(self, limit: int) -> int:
        """Draw up to ``limit`` rounds; return how many drew a pair outside
        the active set before one drew a pair inside it, which the next
        ``advance`` decides."""
        draw = self.scheduler.draw
        active = self.active
        for quiet in range(limit):
            k = draw()
            if k in active:
                self._pending = k
                return quiet
        return limit

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        """Decide and apply the active pair that ``skip_quiet`` drew."""
        u, v = unrank_pair(self._pending)
        self._pending = None
        delta = decide_pairs(self.g, self.potential, ((u, v),), True)
        if delta.empty:
            raise ContractError(
                f"potential {self.potential.name} has a false node_form: the decision "
                f"of pair ({u},{v}) moved although no edge at u or v was toggled")
        self.g.apply_delta(delta)
        touched = {norm_pair(x, y) for x in (u, v) for y in range(self.g.n) if y != x}
        self.active.difference_update(rank_pair(x, y) for x, y in touched)
        self.active |= self._changing(touched)
        return delta, 1


def _active_route_applies(cfg: RunConfig, npairs: int) -> bool:
    """Whether :class:`ActiveSetStepper` can serve ``cfg``: observers need
    every round materialised, and the pair limit bounds the confirming sweep."""
    return (isinstance(cfg.scheduler, UniformRandomScheduler)
            and cfg.potential.node_form is not None
            and not cfg.observers
            and npairs <= NAIVE_PAIR_LIMIT)


def _make_stepper(cfg: RunConfig, g: DynGraph):
    mode = cfg.engine
    sched = cfg.scheduler
    pot = cfg.potential
    if not isinstance(pot, Potential):
        from . import social
        return social.RewriteStepper(g, pot, sched)
    npairs = pair_count(g.n)
    merged_capable = pot.merged_base is not None and pot.merged_base.pair_stats is not None
    if mode == "auto":
        if _active_route_applies(cfg, npairs):
            return ActiveSetStepper(g, pot, sched)
        if not sched.is_complete:
            mode = "naive"
        elif merged_capable or (pot.pair_stats is not None and npairs > NAIVE_PAIR_LIMIT):
            mode = "incremental"
        elif npairs > NAIVE_PAIR_LIMIT:
            raise ConfigError(
                "graph too large for pairwise evaluation under the complete "
                "scheduler; the potential provides no pair statistics")
        else:
            mode = "naive"
    if mode == "naive":
        # a forced naive run is the unpruned reference
        return NaiveStepper(g, pot, sched, certified=cfg.engine == "auto")
    if not sched.is_complete:
        raise ConfigError(f"{mode} engine requires the complete scheduler")
    from . import fastpath
    if mode == "incremental":
        return fastpath.IncrementalStepper(g, pot)
    return fastpath.BulkStepper(g, pot)


# ---------------------------------------------------------------------------
# The run loop

def run(config: RunConfig) -> RunTrace:
    g = config.graph.copy() if config.copy_graph else config.graph
    sched = config.scheduler
    sched.reset(g)

    stepper = _make_stepper(config, g)
    rule = config.potential
    # A rewrite protocol's coin tie changes nothing but proves no fixed point,
    # so its run ends only at its goal (verdict target) or the budget.
    settles = isinstance(rule, Potential)
    stop = None if settles else rule.stop

    record_all = config.record_rounds == "all" or (
        config.record_rounds == "auto" and config.max_rounds <= 100_000)

    fp = g.fingerprint
    degrees = list(map(len, g._adj))
    degree_counter = Counter(degrees)
    diff: set[tuple[int, int]] = set()

    track_cycles = settles and sched.deterministic
    # insertion-ordered, so the first key is the oldest
    history: dict[tuple, int] = {}
    if track_cycles:
        history[frozenset(), sched.phase(0)] = 0

    rounds: list[RoundRecord] = []
    deltas: list[EdgeDelta] | None = [] if config.record_deltas else None
    changed_rounds: list[int] = []
    quiet_streak = 0
    cycle_seen: Optional[Verdict] = None
    stable = False      # a fixed point is proved

    window = 4 * pair_count(g.n) + 8       # quiet rounds before a stochastic sweep
    sweep_allowed = pair_count(g.n) <= NAIVE_PAIR_LIMIT
    verdict = Verdict("target", 0) if stop is not None and stop(g) else None
    fast = stepper if isinstance(stepper, ActiveSetStepper) else None
    quiet_delta = EdgeDelta()

    t = 0
    while verdict is None:
        if fast is not None:
            if not fast.active:
                # Without a change the set is still the exact all-pairs
                # decision made at init; after one it rests on the
                # potential's node_form certificate, which a sweep checks.
                if changed_rounds and not fast.sweep_is_clean():
                    raise ContractError(
                        f"potential {config.potential.name} has a false node_form: the "
                        f"active set is empty but a sweep finds a pair that would change")
                stable = True
                break
            # fast-forward over the rounds that draw a pair outside the set
            quiet = fast.skip_quiet(config.max_rounds - t)
            if record_all:
                classes = len(degree_counter)
                rounds.extend(RoundRecord(s, 1, 0, 0, classes, fp)
                              for s in range(t, t + quiet))
            if deltas is not None:
                deltas.extend([quiet_delta] * quiet)
            t += quiet
        if t >= config.max_rounds:
            break
        delta, n_inter = stepper.advance(t)
        changed = not delta.empty

        if changed:
            _bookkeep(delta, g, degrees, degree_counter, diff)
            fp = g.fingerprint
            changed_rounds.append(t)
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
        if changed and stop is not None and stop(g):
            verdict = Verdict("target", t + 1)
            break

        # stabilization by scheduler contract
        if settles and not changed:
            if sched.is_complete or sched.graph_driven or (
                    sched.fairness_period is not None and quiet_streak >= sched.fairness_period):
                stable = True
            elif sched.fairness_period is None and not sched.deterministic \
                    and quiet_streak >= window and sweep_allowed:
                stable = stepper.sweep_is_clean()
                quiet_streak = 0
            if stable:
                break

        if track_cycles and cycle_seen is None:
            key = (frozenset(diff), sched.phase(t + 1))
            if key in history:
                entered = history[key]
                period = t + 1 - entered
                if not changed_rounds or changed_rounds[-1] < entered:
                    stable = True
                    break
                cycle_seen = Verdict("cycle", entered, period)
                if config.stop_mode == "cycle":
                    verdict = cycle_seen
                    break
            else:
                history[key] = t + 1
                if len(history) > CYCLE_HISTORY:
                    del history[next(iter(history))]
        t += 1

    if stable:
        verdict = Verdict("stabilized", changed_rounds[-1] + 1 if changed_rounds else 0)
    elif verdict is None:
        verdict = cycle_seen if cycle_seen is not None else Verdict("budget", config.max_rounds)

    if settles:
        metadata = {
            "potential": rule.name,
            "potential_params": rule.params,
            "scheduler": sched.name,
            "scheduler_params": sched.params(),
            "prune": stepper.prune,
            "engine": type(stepper).__name__,
            "n": g.n,
            "half_step_rounds": (rule.name == "rule110"),
        }
    else:
        metadata = {"protocol": rule.name, "tags": stepper.tags}
    return RunTrace(rounds=rounds, verdict=verdict, metadata=metadata, final_graph=g,
                    changed_rounds=changed_rounds, deltas=deltas, diff=diff)


def _bookkeep(delta: EdgeDelta, g: DynGraph, degrees: list[int], counter: Counter,
              diff: set) -> None:
    """Update the degrees, their class counter and the diff-from-initial set
    after the delta has been applied; an endpoint met again is up to date."""
    pairs = delta.additions + delta.removals
    diff.symmetric_difference_update(pairs)
    adj = g._adj
    for x in chain.from_iterable(pairs):
        new = len(adj[x])
        old = degrees[x]
        if new != old:
            degrees[x] = new
            counter[old] -= 1
            if not counter[old]:
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

    The pairs (u, w), u before w in the order of decreasing degree at t (ties
    by node id), are checked as arrays. In the graph at t+1, w has
    ``deg(w) - C[w, u] - A[w, u]`` neighbours outside N(u) - {w}, where A is
    the adjacency matrix and C = A·Aᵀ counts common neighbours. C is built
    a block of rows at a time, at most ``BLOCK_ENTRIES`` entries but at
    least one row, so the extra memory is O(block·n). A round's violations
    come in the order of the pairs, P1 before P2 or L4, then P3 or P4.
    """
    violations: list[PropertyViolation] = []
    checked = 0
    for t in range(start, len(graphs) - 1):
        g, h = graphs[t], graphs[t + 1]
        checked += 1
        violations += _pair_violations(t, g, h)
        cg, ch = degree_classes(g), degree_classes(h)
        if ch.count > cg.count:
            violations.append(PropertyViolation("P3", t, (cg.count, ch.count)))
        elif ch.count == cg.count:
            sizes_g = tuple(len(c) for c in cg.classes)
            sizes_h = tuple(len(c) for c in ch.classes)
            if sizes_g != sizes_h:
                violations.append(PropertyViolation("P4", t, (sizes_g, sizes_h)))
    return PropertyReport(violations=violations, rounds_checked=checked)


def _pair_violations(t: int, g: DynGraph, h: DynGraph) -> list[PropertyViolation]:
    """The P1, P2 and L4 violations of round t, in pair order."""
    n = g.n
    if n < 2:
        return []
    dg = np.fromiter(map(len, g._adj), dtype=np.int64, count=n)
    order = np.argsort(-dg, kind="stable")
    dg = dg[order]
    # the adjacency of h in sparse rows, rows and columns in the order
    sets = [h._adj[u] for u in order.tolist()]
    dh = np.fromiter(map(len, sets), dtype=np.int64, count=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dh, out=starts[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    cols = rank[np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(starts[-1]))]

    def dense(lo: int, hi: int) -> np.ndarray:
        # float32 counts are exact below 2**24 and multiply in BLAS
        rows = np.zeros((hi - lo, n), dtype=np.float32)
        rows[np.repeat(np.arange(hi - lo), dh[lo:hi]), cols[starts[lo]:starts[hi]]] = 1
        return rows

    block = max(1, BLOCK_ENTRIES // n)
    pos = np.arange(n)
    found = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        a = dense(lo, hi)
        shared = a.copy()       # A + C on rows lo..hi-1, for the columns after lo
        for clo in range(lo, n, block):
            chi = min(n, clo + block)
            shared[:, clo:chi] += a @ (a if clo == lo else dense(clo, chi)).T
        later = pos[None, :] > pos[lo:hi, None]
        same = dg[lo:hi, None] == dg[None, :]
        w_out = dh[None, :] - shared > 0      # w has a neighbour outside N(u) - {w}
        u_out = dh[lo:hi, None] - shared > 0
        p1 = later & (dh[lo:hi, None] < dh[None, :])
        nest = later & np.where(same, w_out | u_out, w_out)
        for kind, mask in ((0, p1), (1, nest)):
            i, j = np.nonzero(mask)
            found.append(((i + lo) * n + j) * 2 + kind)
    codes = np.sort(np.concatenate(found))
    kinds = codes % 2
    i, j = np.divmod(codes // 2, n)
    names = np.where(kinds == 0, "P1", np.where(dg[i] == dg[j], "P2", "L4"))
    return [PropertyViolation(str(name), t, (int(u), int(w)))
            for name, u, w in zip(names, order[i], order[j])]


def snapshot_observer(store: list):
    """Observer that copies the graph after every round; prepend the initial
    graph yourself before running."""
    def _obs(t, g, delta, diff):
        store.append(g.copy())
    return _obs
