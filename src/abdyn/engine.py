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
emits through ``potential.evaluator`` and is the unpruned reference. ``auto``
uses the potential's certificates, which changes no decision:

* it runs every complete-scheduler potential with a pair rule
  (:attr:`~abdyn.potentials.Potential.pair_rule`), merged ones included, on
  :class:`~abdyn.fastpath.IncrementalStepper`; under other schedulers it
  skips the pairs below the rule's certified floor;
* it decides a node-form potential f(h(u), h(v)) (see
  :attr:`~abdyn.potentials.Potential.node_form`) from the graph's table of h
  (:meth:`~abdyn.graph.DynGraph.node_table`), computed at most once per node
  per graph state. A decision over all pairs (a complete-scheduler round, or
  the init and the confirming sweep below) takes O(n log n + m + |delta|)
  calls of a catalog f: the nodes that u would join form a suffix of the
  nodes sorted by h. An array-backed interaction set (round robin and
  scripted rounds) is decided on the scheduled nodes' values by f's numpy
  twin, with one edge lookup per pair whose value leaves [alpha, beta);
* it serves uniform one-pair rounds on node-form potentials without
  observers through :class:`ActiveSetStepper`, which keeps the exact set of
  pairs whose decision would change, so a round that draws a pair outside
  it is quiet without evaluation, and a run stops as soon as the set is
  empty. If the run changed the graph, one full sweep confirms the empty
  set first; a dirty sweep means the potential's certificate is false and
  raises ``ContractError``. The route consumes the scheduler's random
  stream exactly as ``naive`` does, in batches of quiet rounds, so both
  produce the same rounds up to the fixed point. For a catalog f on
  machine ints or floats it works on arrays (see :func:`_twin_array`);
  other values are decided pair by pair, exactly, at any size.

Bookkeeping is carried from round to round at O(toggles) per round: the set
of pairs that differ from the initial graph, which observers receive after
every round as ``obs(t, g, delta, diff)``, and the degree classes of each
:class:`RoundRecord`, counted from the graph's maintained degree list
(:attr:`~abdyn.graph.DynGraph.degrees`) at the delta's endpoints only: node
by node for a delta of pairs, in bulk for an array-backed one.

Cycle detection compares exact edge-set differences from the initial graph
(plus the scheduler phase), so a cycle verdict is never a false positive;
fingerprints appear in traces only as cheap labels. The loop reads them from
the graph (:attr:`~abdyn.graph.DynGraph.fingerprint`), which folds itself once
and then XORs in the tokens of each toggle as the steppers apply them, so a
round's label costs O(toggles), not O(m). The run reads the caller's graph's
fingerprint and degree list before it copies the graph, so the copy inherits
them, and runs on one source graph, copied or not, fold and list it only
once.

The same loop runs a rewrite protocol (:class:`abdyn.social.GeneralProtocol`
passed as ``RunConfig.potential``) through its stepper. Such a run has no
stabilization rules, sweeps or cycle keys: it ends with verdict ``target``
when the protocol's ``stop`` predicate holds, checked before round 0 and
after each changed round, or with ``budget``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence, Sized

import numpy as np

from .errors import ConfigError, ContractError
from .graph import DynGraph, EdgeDelta, code_ends, edge_codes, pair_codes
# unused here: perfbench/tracer.py wraps them by name until ROADMAP item 1 step B
from .graph import edge_token, graph_fingerprint  # noqa: F401
from .potentials import PROPER_FUNCTIONS, Potential, degree
from .schedulers import (InteractionSet, Scheduler, UniformRandomScheduler, in_sorted,
                         pair_count, rank_pair, unrank_pair)

# Every value and result of a twin on int64 node values lies within ±2**53,
# so the arithmetic and its float64 comparisons with the thresholds are exact.
_EXACT = 1 << 53
# The numpy twin of each catalog function and the largest |h| it admits.
_TWINS = {
    PROPER_FUNCTIONS["sum"]: (np.add, _EXACT // 2),
    PROPER_FUNCTIONS["min"]: (np.minimum, _EXACT),
    PROPER_FUNCTIONS["max"]: (np.maximum, _EXACT),
    PROPER_FUNCTIONS["product"]: (np.multiply, math.isqrt(_EXACT)),
}
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
    engine: str = "auto"                    # auto | naive (the unpruned reference)
    copy_graph: bool = True
    record_rounds: str = "auto"             # all | changes | auto
    record_deltas: bool = False
    observers: Sequence[Callable] = ()

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be at least 1, got {self.max_rounds}")
        for key, allowed in (("stop_mode", ("cycle", "budget")), ("engine", ("auto", "naive")),
                             ("record_rounds", ("all", "changes", "auto"))):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"unknown {key} {value!r}; allowed: {', '.join(allowed)}")
        if self.engine != "auto" and not isinstance(self.potential, Potential):
            raise ConfigError(f"a rewrite protocol runs on engine auto, not {self.engine!r}")


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
    * a node-form potential f(h(u), h(v)) reads h from the graph's table,
      computed at most once per node per graph state and only for the
      scheduled nodes (degrees are read directly), and evaluates f on the
      values. When f is a catalog function and the values allow it (see
      :func:`_twin_array`), a complete interaction set is decided by
      :func:`_sorted_sweep`, and an array-backed one
      (:meth:`~abdyn.schedulers.InteractionSet.from_arrays`) by
      :func:`_twin_decide`.
    """
    evaluate = potential.evaluator
    if prune and potential.node_form is not None:
        f, h = potential.node_form
        table = None        # h by node, or None where degrees are read from the adjacency
        if isinstance(pairs, InteractionSet) and pairs.complete:
            table = _node_values(g, potential)
            x = _twin_array(potential, table)
            if x is not None:
                return _sorted_sweep(g, potential, x)
        elif isinstance(pairs, InteractionSet) and pairs.array_backed:
            us, vs = pairs.arrays()
            scheduled = np.zeros(g.n, dtype=bool)
            scheduled[us] = scheduled[vs] = True
            nodes = scheduled.nonzero()[0]
            x = _twin_array(potential, _node_values(g, potential, nodes.tolist()))
            if x is not None:
                by_node = np.empty(g.n, dtype=x.dtype)
                by_node[nodes] = x
                return _twin_decide(g, potential, us, vs, by_node[us], by_node[vs])
        if table is None and h is not degree:
            if not isinstance(pairs, Sized):
                pairs = list(pairs)     # read twice: a generator would run dry
            table = _node_table(g, potential, chain.from_iterable(pairs))
        if table is None:
            deg = g.degrees

            def evaluate(_g, u, v):
                return f(deg[u], deg[v])
        else:
            def evaluate(_g, u, v):
                return f(table[u], table[v])
    additions = []
    removals = []
    alpha, beta = potential.alpha, potential.beta
    row = g.neighbors
    stats = potential.pair_stats
    floor = stats.cn_floor if prune and stats is not None else 0
    for u, v in pairs:
        if floor and len(row(u) & row(v)) < floor:
            continue
        try:
            val = evaluate(g, u, v)
        except ContractError:
            raise
        except Exception as exc:
            raise ContractError(
                f"potential {potential.name} failed on pair ({u},{v}): {exc}") from exc
        if val < alpha:
            if v in row(u):
                removals.append((u, v))
        elif val >= beta:
            if v not in row(u):
                additions.append((u, v))
    return EdgeDelta.build(additions, removals)


def _twin_decide(g: DynGraph, potential: Potential, us: np.ndarray, vs: np.ndarray,
                 xu: np.ndarray, xv: np.ndarray) -> EdgeDelta:
    """Decide the pairs (us[k], vs[k]) of a node-form potential from their
    ends' node values xu, xv (see :func:`_twin_array`) with f's numpy twin.
    Only the pairs whose value lies outside [alpha, beta) have their edge
    state read, one set lookup each."""
    value = _TWINS[potential.node_form[0]][0](xu, xv)
    born = value >= potential.beta
    picked = (born | (value < potential.alpha)).nonzero()[0]
    if not picked.size:
        return EdgeDelta()
    pu, pv = us[picked], vs[picked]
    edge = g.has_edges(pu, pv)
    born = born[picked]
    change = born != edge
    codes = pair_codes(pu[change], pv[change])
    order = np.argsort(codes)
    return EdgeDelta.from_codes(codes[order], born[change][order])


def _node_table(g: DynGraph, potential: Potential, nodes) -> dict:
    """The graph's table of h (see :meth:`~abdyn.graph.DynGraph.node_table`)
    for a node-form potential, filled for every node in ``nodes``. An
    exception in h becomes a ContractError naming the node and stores no
    entry."""
    h = potential.node_form[1]
    table = g.node_table(h)
    for u in sorted(set(nodes).difference(table)):
        try:
            table[u] = h(g, u)
        except ContractError:
            raise
        except Exception as exc:
            raise ContractError(
                f"potential {potential.name} failed on node {u}: {exc}") from exc
    return table


def _node_values(g: DynGraph, potential: Potential, nodes: Optional[list] = None) -> list:
    """h of a node-form potential at ``nodes``, by default at every node, in
    their order. Degrees are read from the adjacency; any other h from the
    graph's table, filled for those nodes only."""
    if potential.node_form[1] is degree:
        deg = g.degrees
        return list(deg) if nodes is None else list(map(deg.__getitem__, nodes))
    if nodes is None:
        nodes = range(g.n)
    return list(map(_node_table(g, potential, nodes).__getitem__, nodes))


def _sortable(f, values: list) -> bool:
    """Whether :func:`_sorted_sweep` decides exactly as f pair by pair.

    f must be a catalog function, matched by identity, and the values all
    ints or all finite floats (nonnegative for ``product``). f is then
    non-decreasing in each argument along the sorted values, and equal
    values give equal results: mixing ints and floats could break both,
    since an int above 2**53 loses precision in float arithmetic.
    """
    if f not in _TWINS:
        return False
    kinds = set(map(type, values)) or {int}
    if kinds != {int} and kinds != {float}:
        return False
    if kinds == {float} and not all(map(math.isfinite, values)):
        return False
    return f is not PROPER_FUNCTIONS["product"] or min(values, default=0) >= 0


def _twin_array(potential: Potential, values: list) -> Optional[np.ndarray]:
    """The node values as an array on which the numpy twin of f (see
    ``_TWINS``) decides every pair exactly as f does, or None.

    :func:`_sortable` floats become float64 and ints int64 while every value
    lies within the twin's guard, if both thresholds are floats or ints
    within ±2**53. Any other values are None: they are decided pair by pair
    from the node table, which is exact. This is the one statement of the
    guard: a single value fits an array of another dtype exactly when
    ``_twin_array`` of it alone has that dtype.
    """
    f = potential.node_form[0]
    if not _sortable(f, values) or not all(
            isinstance(t, float) or isinstance(t, int) and abs(t) <= _EXACT
            for t in (potential.alpha, potential.beta)):
        return None
    if values and type(values[0]) is float:
        return np.array(values, dtype=np.float64)
    if max(map(abs, values), default=0) <= _TWINS[f][1]:
        return np.array(values, dtype=np.int64)
    return None


def _sorted_sweep(g: DynGraph, potential: Potential, x: np.ndarray) -> EdgeDelta:
    """Decide all pairs of a node-form potential from its node values x
    (see :func:`_twin_array`) with O(n log n + m) twin evaluations and
    O(m + |delta|) further steps.

    The edges are decided one by one. Since f is non-decreasing, the nodes v
    with f(x[u], x[v]) >= beta form a suffix of the nodes sorted by x; a
    bisection of log2(n) rounds, each over all nodes, finds where every
    suffix starts. The walk over the suffixes meets, beside the additions,
    only edges (counted from both ends) and each u itself.
    """
    twin = _TWINS[potential.node_form[0]][0]
    n = g.n
    codes = edge_codes(g)
    us, vs = code_ends(codes)
    removals = codes[twin(x[us], x[vs]) < potential.alpha]
    if not n:
        return EdgeDelta.from_code_sets(codes[:0], removals)
    # f is largest at the largest value, so no pair reaches beta unless that one does
    top = x.max()
    if not twin(top, top) >= potential.beta:
        return EdgeDelta.from_code_sets(codes[:0], removals)
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        reach = twin(x, ranked[np.minimum(mid, n - 1)]) >= potential.beta
        undecided = lo < hi
        hi = np.where(undecided & reach, mid, hi)
        lo = np.where(undecided & ~reach, mid + 1, lo)
    # the suffixes one after another: u's starts at position lo[u] of order
    length = n - lo
    au = np.repeat(np.arange(n), length)
    av = order[np.arange(int(length.sum())) + np.repeat(lo + length - np.cumsum(length), length)]
    keep = au < av
    add_codes = pair_codes(au[keep], av[keep])
    return EdgeDelta.from_code_sets(np.sort(add_codes[~in_sorted(codes, add_codes)]), removals)


# ---------------------------------------------------------------------------
# Steppers: strategies that compute and apply one round

class NaiveStepper:
    """Pairwise evaluation of whatever the scheduler emits. With
    ``certified`` (the ``auto`` route) :func:`decide_pairs` uses the
    potential's certificates, and a pair-statistics rule has its floor
    checked first (:class:`~abdyn.fastpath.Decisions` below the floor);
    ``self.prune`` says whether any pair can be skipped."""

    def __init__(self, g: DynGraph, potential: Potential, scheduler: Scheduler,
                 certified: bool):
        self.certified = certified
        self.prune = certified and potential.pair_stats is not None
        if self.prune:
            from .fastpath import Decisions
            Decisions(potential.pair_stats, potential.pair_stats.cn_floor)
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

    ``active`` is the sorted int64 array of the ranks (see
    :func:`~abdyn.schedulers.rank_pair`) of exactly the pairs whose decision
    would change the graph. Only a toggle at u or v can change the decision
    of (u, v), so after each change the pairs at its two endpoints are
    decided again and nothing else is. A drawn rank outside the set is a
    quiet round that needs no evaluation, and the scheduler draws past such
    rounds in batches (:meth:`~abdyn.schedulers.UniformRandomScheduler.skip_until`).

    ``values`` holds the node values as :func:`_twin_array` builds them, or
    None when they have no twin. It is carried forward: a change refreshes
    h(u) and h(v) only, and the pairs at u and v are decided from it by the
    twin. Once a refreshed value does not fit it, it is dropped for the rest
    of the run. Without it the pairs are decided pair by pair, exactly.
    """

    def __init__(self, g: DynGraph, potential: Potential, scheduler: UniformRandomScheduler):
        super().__init__(g, potential, scheduler, certified=True)
        self._pending: Optional[int] = None
        self.values = _twin_array(potential, _node_values(g, potential))
        delta = decide_pairs(g, potential, InteractionSet(complete_n=g.n), True)
        self.active = np.array(sorted(rank_pair(u, v) for u, v in
                                      delta.additions + delta.removals), dtype=np.int64)

    def skip_quiet(self, limit: int) -> int:
        """Draw up to ``limit`` rounds; return how many drew a pair outside
        the active set before one drew a pair inside it, which the next
        ``advance`` decides."""
        quiet, self._pending = self.scheduler.skip_until(self.active, limit)
        return quiet

    def advance(self, t: int) -> tuple[EdgeDelta, int]:
        """Decide and apply the active pair that ``skip_quiet`` drew."""
        u, v = unrank_pair(self._pending)
        self._pending = None
        g = self.g
        delta = decide_pairs(g, self.potential, ((u, v),), True)
        if delta.empty:
            raise ContractError(
                f"potential {self.potential.name} has a false node_form: the decision "
                f"of pair ({u},{v}) moved although no edge at u or v was toggled")
        g.apply_delta(delta)
        if self.values is not None:
            self._carry_values((u, v))
        # the pairs at u, then those at v but not u, each row ascending by rank
        nodes = np.arange(g.n)
        rows = [(u, nodes[nodes != u]), (v, nodes[(nodes != u) & (nodes != v)])]
        ranks = [rank_pair(np.minimum(w, x), np.maximum(w, x)) for x, w in rows]
        stale = in_sorted(ranks[0], self.active) | in_sorted(ranks[1], self.active)
        active = self.active[~stale]
        for found in self._changing(rows, ranks):
            active = _merged(active, found)
        self.active = active
        return delta, 1

    def _carry_values(self, nodes) -> None:
        """Recompute h at ``nodes``, the endpoints of a toggle, in ``values``;
        set ``values`` to None when a new value does not fit its dtype."""
        table = _node_table(self.g, self.potential, nodes)
        for node in nodes:
            one = _twin_array(self.potential, [table[node]])
            if one is None or one.dtype != self.values.dtype:
                self.values = None
                return
            self.values[node] = one[0]

    def _changing(self, rows, ranks) -> list[np.ndarray]:
        """The ascending ranks of those pairs of ``rows`` (a node and its
        partners, whose ranks are ``ranks``) that would change the graph."""
        g, pot = self.g, self.potential
        x = self.values
        if x is None:
            pairs = [(min(a, b), max(a, b)) for a, w in rows for b in w.tolist()]
            delta = decide_pairs(g, pot, pairs, True)
            changed = sorted(rank_pair(a, b) for a, b in delta.additions + delta.removals)
            return [np.array(changed, dtype=np.int64)]
        twin = _TWINS[pot.node_form[0]][0]
        found = []
        for (node, w), row in zip(rows, ranks):
            value = twin(x[node], x[w])
            edge = np.zeros(g.n, dtype=bool)
            edge[list(g.neighbors(node))] = True
            edge = edge[w]
            found.append(row[np.where(edge, value < pot.alpha, value >= pot.beta)])
        return found


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The union of two disjoint ascending int64 arrays, ascending."""
    at = np.searchsorted(a, b) + np.arange(b.size)
    out = np.empty(a.size + b.size, dtype=np.int64)
    rest = np.ones(out.size, dtype=bool)
    rest[at] = False
    out[at] = b
    out[rest] = a
    return out


def _make_stepper(cfg: RunConfig, g: DynGraph):
    sched = cfg.scheduler
    pot = cfg.potential
    if not isinstance(pot, Potential):
        from . import social
        return social.RewriteStepper(g, pot, sched)
    if cfg.engine == "naive":
        return NaiveStepper(g, pot, sched, certified=False)
    # the route follows the scheduler, the potential's certificates and the
    # observers, never the graph's size; observers need every round
    # materialised, which the active route skips
    if (isinstance(sched, UniformRandomScheduler) and pot.node_form is not None
            and not cfg.observers):
        return ActiveSetStepper(g, pot, sched)
    if sched.is_complete and pot.pair_rule is not None:
        from .fastpath import IncrementalStepper
        return IncrementalStepper(g, pot)
    return NaiveStepper(g, pot, sched, certified=True)


# ---------------------------------------------------------------------------
# The run loop

def run(config: RunConfig) -> RunTrace:
    g = config.graph
    # folded and listed on the caller's graph, at most once, and inherited by a copy
    g.fingerprint
    g.degrees
    if config.copy_graph:
        g = g.copy()
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
    degrees = g.degrees.copy()      # as of the last bookkeeping
    # counted in C: Counter(degrees) took twice as long on a W=4 rule-110 assembly
    counts = np.bincount(np.fromiter(degrees, dtype=np.int64, count=len(degrees)))
    present = counts.nonzero()[0]
    degree_counter = Counter(dict(zip(present.tolist(), counts[present].tolist())))
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
    sweeps = settles and sched.fairness_period is None and not sched.deterministic
    verdict = Verdict("target", 0) if stop is not None and stop(g) else None
    fast = stepper if isinstance(stepper, ActiveSetStepper) else None
    quiet_delta = EdgeDelta()

    t = 0
    while verdict is None:
        if fast is not None:
            if not fast.active.size:
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
        added, removed = delta.counts
        changed = bool(added or removed)

        if changed:
            _bookkeep(delta, g, degrees, degree_counter, diff)
            fp = g.fingerprint
            changed_rounds.append(t)
            quiet_streak = 0
        else:
            quiet_streak += 1

        if record_all or changed:
            rounds.append(RoundRecord(t, n_inter, added, removed, len(degree_counter), fp))
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
            elif sweeps and quiet_streak >= window:
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
    """Update ``degrees``, their class counter and the diff-from-initial set
    after the delta has been applied; the new degrees come from the graph's
    list. A delta of pairs is booked node by node (an endpoint met again is
    up to date), an array-backed one in bulk over its distinct endpoints,
    with C-level reads and counts."""
    now = g.degrees
    if not delta.array_backed:
        pairs = delta.additions + delta.removals
        diff.symmetric_difference_update(pairs)
        for x in chain.from_iterable(pairs):
            new = now[x]
            old = degrees[x]
            if new != old:
                degrees[x] = new
                counter[old] -= 1
                if not counter[old]:
                    del counter[old]
                counter[new] += 1
        return
    diff.symmetric_difference_update(delta.pairs())
    ends = delta.endpoints()
    old = Counter(map(degrees.__getitem__, ends))
    new = list(map(now.__getitem__, ends))
    for x, d in zip(ends, new):
        degrees[x] = d
    counter.update(new)
    counter.subtract(old)
    for d in old:
        if not counter[d]:
            del counter[d]


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
    for u, d in enumerate(g.degrees):
        buckets.setdefault(d, set()).add(u)
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
    dg = np.array(g.degrees, dtype=np.int64)
    order = np.argsort(-dg, kind="stable")
    dg = dg[order]
    # the adjacency of h in sparse rows, rows and columns in the order
    starts, nbrs = h.csr_rows(order)
    dh = np.diff(starts)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    cols = rank[nbrs]

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
