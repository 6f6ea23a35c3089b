"""Gadget-graph realization of the Rule 110 cellular automaton.

One automaton cell is realized by a cell gadget of four subcells. The two
*driver* subcells recompute the cell value on integer rounds; the two
*follower* subcells copy it back on the intervening half rounds, so one
automaton step costs two engine rounds (or one round of the merged
potential). Each subcell stores its bit as the edge of an anchor pair,
padded by 60 auxiliary nodes whose blinker gadgets toggle every round and
thereby gate which subcells are active in a given round.

Building blocks:

* pin gadget: a 22-clique whose two special nodes may carry outside edges;
  its special edge survives every round.
* blinker gadget: two pin gadgets sharing their special pair, with the
  special edge left open; that edge then alternates every round, providing
  the construction's clock.

Cells are wired on a ring. A periodic tape of width 3 would make each cell's
left and right neighbors adjacent to each other, which perturbs the common
neighborhood counts the potential relies on; width-3 tapes are therefore
realized on a 6-cell ring carrying two copies of the tape, which simulates
the same periodic automaton exactly. The logical tape width is preserved in
the gadget map and extraction folds the copies back together.

Node ids are assigned deterministically: per ring cell, per subcell (drivers
then followers): the two anchors, the 60 auxiliaries, then the blinker
internals; after the four subcells, the cell's connection pin internals.

The builder emits the edges of every gadget as edge codes with numpy and
sorts them once; that array is the assembly's ``initial_codes`` and the
input of ``DynGraph.from_codes``, which builds the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .engine import RunConfig, RunTrace, run
from .errors import ContractError, InputError
from .graph import DynGraph, code_pairs, edge_code_xor, norm_pair, pair_codes
from .potentials import rule110_potential, two_step_merge
from .schedulers import CompleteScheduler

AUX_PER_SUBCELL = 60
BLINKER_HALF = 20
PIN_INTERNALS = 20

DRIVERS = ("d1", "d2")
FOLLOWERS = ("f1", "f2")
KINDS = DRIVERS + FOLLOWERS

SUBCELL_BLOCK = 2 + AUX_PER_SUBCELL + 2 * AUX_PER_SUBCELL * 2 * BLINKER_HALF  # 4862
CONNECTIONS_PER_CELL = 8
CELL_BLOCK = 4 * SUBCELL_BLOCK + CONNECTIONS_PER_CELL * 4 * PIN_INTERNALS      # 20088

# integer rounds have even parity; drivers' blinker edges exist exactly there
INTEGER = 0
HALF = 1


def validate_tape(tape) -> tuple[int, ...]:
    """The cells of ``tape``, a sequence of 0/1 ints or a string such as
    ``"0110"``, as a tuple of ints."""
    if any(str(c) not in ("0", "1") for c in tape):
        raise InputError(f"tape cells must be 0 or 1, got {tape!r}")
    cells = tuple(int(c) for c in tape)
    if len(cells) < 3:
        raise InputError(f"tape width must be at least 3, got {len(cells)}")
    return cells


def reference_step(tape) -> tuple[int, ...]:
    """One synchronous Rule 110 update on a cyclic tape."""
    cells = tuple(tape)
    w = len(cells)
    out = []
    for i in range(w):
        left, mid, right = cells[(i - 1) % w], cells[i], cells[(i + 1) % w]
        if mid == 0:
            out.append(right)
        else:
            out.append(0 if (left == 1 and right == 1) else 1)
    return tuple(out)


def reference_run(tape, steps: int) -> list[tuple[int, ...]]:
    seq = [tuple(tape)]
    for _ in range(steps):
        seq.append(reference_step(seq[-1]))
    return seq


# ---------------------------------------------------------------------------
# Gadget map and assembly

@dataclass(frozen=True)
class SubCell:
    cell: int
    kind: str              # d1 | d2 | f1 | f2
    anchors: tuple[int, int]
    aux: tuple[int, ...]

    @property
    def is_driver(self) -> bool:
        return self.kind in DRIVERS

    @property
    def lane(self) -> int:
        """1 or 2: which of the two parallel copies this subcell belongs to."""
        return int(self.kind[1])


@dataclass
class GadgetMap:
    width: int                     # logical tape width
    ring_width: int                # cells actually built (2x width when doubled)
    subcells: dict[tuple[int, str], SubCell]
    driver_blinkers: frozenset
    follower_blinkers: frozenset
    dynamic: frozenset             # anchor and blinker pairs: all a healthy run toggles
    blinker_owner: dict            # pair -> (cell, kind, anchor_idx, aux_idx)
    anchor_owner: dict             # pair -> (cell, kind)

    @cached_property
    def blinker_rows(self) -> tuple[tuple[tuple[int, frozenset], ...], ...]:
        """The driver and then the follower blinker pairs, each as rows
        (u, every v of a pair (u, v)): the structure check tests a row with
        one set operation instead of a lookup per pair."""
        grouped = []
        for pairs in (self.driver_blinkers, self.follower_blinkers):
            rows: dict[int, set] = {}
            for u, v in pairs:
                rows.setdefault(u, set()).add(v)
            grouped.append(tuple((u, frozenset(vs)) for u, vs in rows.items()))
        return tuple(grouped)

    def describe_node(self, node: int) -> str:
        cell, off = divmod(node, CELL_BLOCK)
        if off < 4 * SUBCELL_BLOCK:
            k, so = divmod(off, SUBCELL_BLOCK)
            kind = KINDS[k]
            if so < 2:
                return f"cell {cell} {kind} anchor{so}"
            if so < 2 + AUX_PER_SUBCELL:
                return f"cell {cell} {kind} aux{so - 2}"
            b, slot = divmod(so - 2 - AUX_PER_SUBCELL, 2 * BLINKER_HALF)
            anchor_idx, aux_idx = divmod(b, AUX_PER_SUBCELL)
            return (f"cell {cell} {kind} blinker(anchor{anchor_idx},aux{aux_idx}) "
                    f"internal {slot}")
        co = off - 4 * SUBCELL_BLOCK
        conn, rest = divmod(co, 4 * PIN_INTERNALS)
        pin, slot = divmod(rest, PIN_INTERNALS)
        return f"cell {cell} connection {conn} pin {pin} internal {slot}"

    def describe_pair(self, pair) -> str:
        pair = norm_pair(*pair)
        if pair in self.anchor_owner:
            cell, kind = self.anchor_owner[pair]
            return f"anchor pair of cell {cell} {kind}"
        if pair in self.blinker_owner:
            cell, kind, anchor_idx, aux_idx = self.blinker_owner[pair]
            return f"blinker pair (anchor{anchor_idx}, aux{aux_idx}) of cell {cell} {kind}"
        return f"pair ({self.describe_node(pair[0])}; {self.describe_node(pair[1])})"


@dataclass
class CellAssembly:
    graph: DynGraph
    gmap: GadgetMap
    initial_codes: np.ndarray      # the sorted edge codes the graph was built from
    # per subcell, the nodes and pairs its anchor counts are read from once a
    # full check has proved the build (see check_structure); None until then
    anchor_plan: Optional[dict] = field(default=None, repr=False, compare=False)


def _clique_codes(rows: np.ndarray, skip_specials: bool = False) -> np.ndarray:
    """Edge codes, unsorted, of a clique on each row of node ids in ``rows``;
    ``skip_specials`` leaves out the pair of the first two columns."""
    iu, ju = np.triu_indices(rows.shape[1], 1)
    if skip_specials:
        iu, ju = iu[1:], ju[1:]     # (0, 1) comes first
    a, b = rows[:, iu], rows[:, ju]
    return pair_codes(np.minimum(a, b), np.maximum(a, b)).ravel()


def build_assembly(tape) -> CellAssembly:
    """Construct the initial gadget graph for a cyclic tape: the gadget map
    node by node, then the edges as one sorted array of edge codes, from
    which the graph is built."""
    logical = validate_tape(tape)
    width = len(logical)
    ring = logical * 2 if width == 3 else logical
    rw = len(ring)

    subcells: dict[tuple[int, str], SubCell] = {}
    driver_blinkers = set()
    follower_blinkers = set()
    blinker_owner: dict = {}
    anchor_owner: dict = {}

    for cell in range(rw):
        base = cell * CELL_BLOCK
        for k, kind in enumerate(KINDS):
            sb = base + k * SUBCELL_BLOCK
            anchors = (sb, sb + 1)
            aux = tuple(sb + 2 + i for i in range(AUX_PER_SUBCELL))
            subcells[(cell, kind)] = SubCell(cell=cell, kind=kind, anchors=anchors, aux=aux)
            anchor_owner[anchors] = (cell, kind)
            blinkers = driver_blinkers if kind in DRIVERS else follower_blinkers
            for anchor_idx in (0, 1):
                for aux_idx in range(AUX_PER_SUBCELL):
                    spair = (anchors[anchor_idx], aux[aux_idx])
                    blinker_owner[spair] = (cell, kind, anchor_idx, aux_idx)
                    blinkers.add(spair)

    # blinker gadgets: blinker b of a subcell joins anchor b // 60 and aux
    # b % 60 through two pin gadgets, whose internals follow the aux
    starts = (np.arange(rw)[:, None] * CELL_BLOCK
              + np.arange(len(KINDS)) * SUBCELL_BLOCK).reshape(-1, 1)    # one row per subcell
    b = np.arange(2 * AUX_PER_SUBCELL)
    first = (starts[:, :, None] + 2 + AUX_PER_SUBCELL
             + (2 * b[:, None] + np.arange(2)) * BLINKER_HALF)      # (subcell, blinker, pin)
    blinker_pins = np.empty(first.shape + (2 + BLINKER_HALF,), dtype=np.int64)
    blinker_pins[..., 0] = (starts + b // AUX_PER_SUBCELL)[:, :, None]
    blinker_pins[..., 1] = (starts + 2 + b % AUX_PER_SUBCELL)[:, :, None]
    blinker_pins[..., 2:] = first[..., None] + np.arange(BLINKER_HALF)

    # connection pin gadgets; each connection carries 4 pins,
    # one per anchor pairing of its two subcells
    pin_specials = []
    for cell in range(rw):
        nxt = (cell + 1) % rw
        links = [
            ((cell, "d1"), (cell, "f1")),
            ((cell, "d1"), (cell, "f2")),
            ((cell, "d2"), (cell, "f1")),
            ((cell, "d2"), (cell, "f2")),
            ((cell, "d1"), (nxt, "d1")),
            ((cell, "d2"), (nxt, "d2")),
            ((cell, "d1"), (nxt, "f1")),
            ((cell, "d2"), (nxt, "f2")),
        ]
        for akey, bkey in links:
            x_sc = subcells[akey]
            y_sc = subcells[bkey]
            for xi, yi in ((0, 0), (0, 1), (1, 0), (1, 1)):
                pin_specials.append((x_sc.anchors[xi], y_sc.anchors[yi]))
    pin_first = (np.arange(rw)[:, None] * CELL_BLOCK + 4 * SUBCELL_BLOCK
                 + np.arange(CONNECTIONS_PER_CELL * 4) * PIN_INTERNALS).reshape(-1, 1)
    connection_pins = np.concatenate((np.array(pin_specials), pin_first + np.arange(PIN_INTERNALS)),
                                     axis=1)

    # the driver blinker edges exist at integer rounds, round 0 among them, and
    # the anchor pairs of the set cells hold their bits
    dynamic_edges = np.array([*driver_blinkers,
                              *(sc.anchors for sc in subcells.values() if ring[sc.cell])])
    codes = np.concatenate((
        _clique_codes(blinker_pins.reshape(-1, 2 + BLINKER_HALF), skip_specials=True),
        _clique_codes(connection_pins),
        pair_codes(dynamic_edges[:, 0], dynamic_edges[:, 1]),
    ))
    codes.sort()

    gmap = GadgetMap(
        width=width,
        ring_width=rw,
        subcells=subcells,
        driver_blinkers=frozenset(driver_blinkers),
        follower_blinkers=frozenset(follower_blinkers),
        dynamic=frozenset(anchor_owner) | frozenset(blinker_owner),
        blinker_owner=blinker_owner,
        anchor_owner=anchor_owner,
    )
    return CellAssembly(graph=DynGraph.from_codes(rw * CELL_BLOCK, codes), gmap=gmap,
                        initial_codes=codes)


# ---------------------------------------------------------------------------
# Extraction and structural verification

def subcell_bits(assembly: CellAssembly, g: Optional[DynGraph] = None) -> dict:
    g = g or assembly.graph
    return {key: (1 if g.has_edge(*sc.anchors) else 0)
            for key, sc in assembly.gmap.subcells.items()}


def extract_values(assembly: CellAssembly, g: Optional[DynGraph] = None):
    """Read the tape off the anchor pairs.

    Returns a list of 0, 1, or None (inconsistent) per logical cell.
    ``subcell_bits`` gives the raw bit of every subcell instead, which is the
    diagnostic view for half-round states where followers lag.
    """
    bits = subcell_bits(assembly, g)
    gmap = assembly.gmap
    values = []
    for i in range(gmap.width):
        ring_cells = [i] if gmap.ring_width == gmap.width else [i, i + gmap.width]
        seen = {bits[(rc, kind)] for rc in ring_cells for kind in KINDS}
        values.append(seen.pop() if len(seen) == 1 else None)
    return values


@dataclass
class StructureViolation:
    kind: str
    where: str
    expected: object
    actual: object


@dataclass
class StructureReport:
    round: int
    violations: list[StructureViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"round {self.round}: structure OK"
        v = self.violations[0]
        return (f"round {self.round}: {len(self.violations)} violation(s); first: "
                f"{v.kind} at {v.where}: expected {v.expected}, got {v.actual}")


def check_structure(assembly: CellAssembly, g: Optional[DynGraph] = None,
                    round_index: int = 0, diff=None) -> StructureReport:
    """Verify the gadget invariants for the graph after ``round_index`` rounds.

    Checks, for parity p = round_index mod 2:

    a. every driver blinker edge exists iff p is integer, every follower
       blinker edge iff p is half;
    b. all other edges apart from anchor pairs match the built graph (via the
       engine's diff set when provided, else a full comparison), reported in
       ascending pair order;
    c. anchor common neighbor counts are exactly 70/10 for drivers and 6/66
       for followers at integer/half parity;
    d. the anchor common-neighbor-edge counts satisfy the wiring formulas
       8 + value sums for drivers and 4 + value sums for followers.

    A ``diff`` must hold every pair other than an anchor or blinker pair
    (a static pair) in which g differs from the build, as the engine's diff
    of a run does once the run's round-0 state was proved.

    When b finds nothing, every static pair of g equals the build, so a
    common neighbor of an anchor pair is either one of its static common
    neighbors in the build or a dynamic partner of one anchor. The counts
    then come from the anchor plan: per anchor pair, those nodes U, the
    static edges among U and the dynamic pairs among U. cn is the size of
    U ∩ N(a0) ∩ N(a1), and ce adds the static edges and the dynamic pairs
    that are edges now with both ends in it. The plan is built once per
    assembly, on the first check that compared every edge and found b
    clean. Otherwise both counts come from one intersection of the anchor
    rows (:meth:`DynGraph.common_neighbor_counts`).

    Either way the edge count is kept on g for its current edges
    (:meth:`DynGraph.keep_common_neighbor_edges`): the fast route reads it
    when it decides those pairs on the same state.
    """
    g = g or assembly.graph
    if g.n != assembly.graph.n:
        raise InputError(f"graph has {g.n} nodes, assembly expects {assembly.graph.n}")
    gmap = assembly.gmap
    parity = round_index % 2
    report = StructureReport(round=round_index)

    for pairs, rows, want in ((gmap.driver_blinkers, gmap.blinker_rows[0], parity == INTEGER),
                              (gmap.follower_blinkers, gmap.blinker_rows[1], parity == HALF)):
        test = set.issuperset if want else set.isdisjoint
        if all(test(g.neighbors(u), vs) for u, vs in rows):
            continue
        for pair in pairs:
            if g.has_edge(*pair) != want:
                report.violations.append(StructureViolation(
                    "blinker_parity", gmap.describe_pair(pair), want, not want))

    full = diff is None
    if full:
        diff = code_pairs(edge_code_xor(g, assembly.initial_codes))
    static = sorted(set(diff) - gmap.dynamic)
    for pair in static:
        report.violations.append(StructureViolation(
            "static_edge", gmap.describe_pair(pair), "unchanged from build", "toggled"))

    plan = None
    if not static:
        if assembly.anchor_plan is None and full:
            assembly.anchor_plan = _anchor_plan(gmap, g)
        plan = assembly.anchor_plan

    bits = subcell_bits(assembly, g)
    rw = gmap.ring_width
    for (cell, kind), sc in gmap.subcells.items():
        a0, a1 = sc.anchors
        if plan is None:
            cn, ce = g.common_neighbor_counts(a0, a1)
        else:
            cn, ce = _planned_counts(g, a0, a1, *plan[(cell, kind)])
        g.keep_common_neighbor_edges(a0, a1, ce)     # the fast route decides these next
        if sc.is_driver:
            want_cn = 70 if parity == INTEGER else 10
        else:
            want_cn = 6 if parity == INTEGER else 66
        if cn != want_cn:
            report.violations.append(StructureViolation(
                "anchor_cn", gmap.describe_pair((a0, a1)), want_cn, cn))
        j = sc.lane
        if sc.is_driver:
            want_ce = (8
                       + bits[((cell - 1) % rw, f"d{j}")]
                       + bits[(cell, "f1")]
                       + bits[(cell, "f2")]
                       + bits[((cell + 1) % rw, f"d{j}")]
                       + bits[((cell + 1) % rw, f"f{j}")])
        else:
            want_ce = (4
                       + bits[((cell - 1) % rw, f"d{j}")]
                       + bits[(cell, "d1")]
                       + bits[(cell, "d2")])
        if ce != want_ce:
            report.violations.append(StructureViolation(
                "anchor_ce", gmap.describe_pair((a0, a1)), want_ce, ce))
    return report


def _anchor_plan(gmap: GadgetMap, g: DynGraph) -> dict:
    """Per subcell key, ``(U, static edges among U, dynamic pairs among U)``
    for its anchor pair (see :func:`check_structure`), read off g, whose
    static pairs must equal the build's. Every dynamic pair, an anchor or
    a blinker pair, has an anchor end. The anchors' rows, which the check
    reads as sets anyway, are read as sets, the other rows of U as arrays
    (:meth:`DynGraph.csr_rows`): a plan built at round 0 that put the
    auxiliaries' rows in the overlay before the run raised the peak
    resident set of a W=4 sweep by 0.5 MB."""
    dynamic = gmap.dynamic
    partners = {a: set() for sc in gmap.subcells.values() for a in sc.anchors}
    for u, v in dynamic:
        if u in partners:
            partners[u].add(v)
        if v in partners:
            partners[v].add(u)
    plan = {}
    for key, sc in gmap.subcells.items():
        a0, a1 = sc.anchors
        p0, p1 = partners[a0], partners[a1]
        among = frozenset(((g.neighbors(a0) - p0) & (g.neighbors(a1) - p1)) | p0 | p1) - {a0, a1}
        nodes = np.array(sorted(among), dtype=np.int64)
        indptr, indices = g.csr_rows(nodes)
        ends = np.repeat(nodes, np.diff(indptr))
        inside = (ends < indices) & np.isin(indices, nodes)
        fixed = [p for p in zip(ends[inside].tolist(), indices[inside].tolist())
                 if p not in dynamic]
        toggling = {(x, y) if x < y else (y, x) for x in among.intersection(partners)
                    for y in among.intersection(partners[x])}
        plan[key] = (among, tuple(fixed), tuple(toggling))
    return plan


def _planned_counts(g: DynGraph, a0: int, a1: int, among: frozenset, fixed: tuple,
                    toggling: tuple) -> tuple[int, int]:
    """(common neighbors, common neighbor edges) of the anchors a0 and a1
    from their plan, on g whose static pairs equal the build's."""
    common = among & g.neighbors(a0) & g.neighbors(a1)
    ce = sum(1 for x, y in fixed if x in common and y in common)
    ce += sum(1 for x, y in toggling if x in common and y in common and g.has_edge(x, y))
    return len(common), ce


# ---------------------------------------------------------------------------
# Simulation

@dataclass
class SimulationResult:
    tapes: list
    trace: RunTrace
    structure_reports: list[StructureReport]
    inconsistent_rounds: list[int]

    @property
    def ok(self) -> bool:
        return (not self.inconsistent_rounds
                and all(r.ok for r in self.structure_reports)
                and all(None not in t for t in self.tapes))

    def matches_reference(self) -> bool:
        ref = reference_run(self.tapes[0], len(self.tapes) - 1)
        return [tuple(t) for t in self.tapes] == ref


class AssemblyRunner:
    """Runs rule-110 tapes of one width on one built assembly.

    A run only ever toggles anchor and blinker edges when the construction is
    healthy; the runner restores the graph to its built state from the exact
    diff of each run, then rewrites the anchor bits for the next tape, so a
    sweep pays the construction cost once.

    The first checked run compares every edge with the build at round 0.
    Once such a check has passed, every run since was restored exactly and
    the graph's fingerprint shows no edit since the last restore, the graph
    at round 0 differs from the build in the tape's anchor pairs only, and
    the round-0 check reads that diff instead. The later checks of a run
    read the engine's diff only when its round 0 was proved so or by a full
    check that passed; otherwise each compares every edge with the build.

    Every run, merged or not, runs the one rule-110 potential built here.
    The engine parks its incremental stepper on the graph at the end of a
    run, and the next run resumes it, moved by the few anchor and blinker
    pairs that the restore and the new tape toggled
    (:func:`abdyn.fastpath.incremental_stepper`), so only the first run
    builds the counts of the high-degree nodes.
    """

    def __init__(self, width: int):
        self.assembly = build_assembly((0,) * width)
        # the fingerprint of the build once a full check and exact restores
        # proved it, else None
        self._proved_fp: Optional[int] = None
        potential = rule110_potential(100)
        # one pair rule for every run, so that each run resumes the last one's stepper
        self._potentials = {False: potential, True: two_step_merge(potential)}

    def run(self, tape, steps: int, merged: bool = False,
            check: bool = True) -> SimulationResult:
        """Simulate ``steps`` automaton steps of ``tape``.

        Unmerged runs spend two engine rounds per step; merged runs one. The
        returned tapes hold the extraction after every automaton step, padded
        with the fixed point if the run stabilized early. A repeated state
        does not end the run; it is reported as a cycle at the end.
        """
        logical = validate_tape(tape)
        if steps < 0:
            raise InputError(f"steps must be nonnegative, got {steps}")
        assembly = self.assembly
        if len(logical) != assembly.gmap.width:
            raise InputError(f"runner is built for width {assembly.gmap.width}")
        proved_fp, self._proved_fp = self._proved_fp, None
        exact = proved_fp is not None and assembly.graph.fingerprint == proved_fp
        switched_on = self._set_tape(logical)

        tapes = [extract_values(assembly)]
        reports: list[StructureReport] = []
        inconsistent: list[int] = []
        if check:
            reports.append(check_structure(assembly, round_index=0,
                                           diff=switched_on if exact else None))
        # the engine's diff holds every static pair that moved only from a
        # round-0 state that equals the build apart from the tape
        proven = exact or (check and reports[0].ok)

        def observer(t, g, delta, diff):
            round_index = 2 * (t + 1) if merged else t + 1
            if check:
                reports.append(check_structure(assembly, g, round_index,
                                               diff=diff if proven else None))
            if round_index % 2 == 0 and round_index // 2 <= steps:
                vals = extract_values(assembly, g)
                if None in vals:
                    inconsistent.append(round_index // 2)
                tapes.append(vals)

        cfg = RunConfig(
            graph=assembly.graph,
            potential=self._potentials[merged],
            scheduler=CompleteScheduler(),
            max_rounds=max(steps if merged else 2 * steps, 1),
            stop_mode="budget",
            copy_graph=False,
            record_rounds="all",
            observers=(observer,),
        )
        trace = run(cfg)
        self._restore(trace.diff)
        if proven:
            self._proved_fp = assembly.graph.fingerprint
        while len(tapes) < steps + 1:
            tapes.append(list(tapes[-1]))
        return SimulationResult(tapes=tapes, trace=trace, structure_reports=reports,
                                inconsistent_rounds=inconsistent)

    def _set_tape(self, logical) -> frozenset:
        """Write the tape into the anchor pairs; returns the anchor pairs
        that are now edges, which the all-zero build leaves open."""
        g = self.assembly.graph
        gmap = self.assembly.gmap
        ring = logical * 2 if gmap.ring_width != gmap.width else logical
        on = []
        for (cell, kind), sc in gmap.subcells.items():
            if ring[cell]:
                g.add_edge(*sc.anchors)
                on.append(norm_pair(*sc.anchors))
            else:
                g.remove_edge(*sc.anchors)
        return frozenset(on)

    def _restore(self, diff) -> None:
        """Undo a run from its exact ``diff``, then clear the tape anchors,
        which leaves the built all-zero assembly.

        A healthy run toggles only anchor and blinker pairs. Any other pair in
        the diff is undone too, so the runner stays usable, and then reported
        as a ``ContractError``. So is an edge count that differs from the
        build's after the undo: the graph was edited outside the run.
        """
        g = self.assembly.graph
        gmap = self.assembly.gmap
        for u, v in diff:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        for sc in gmap.subcells.values():
            g.remove_edge(*sc.anchors)
        static = sorted(p for p in diff if p not in gmap.dynamic)
        if static:
            raise ContractError(
                f"run toggled {len(static)} static pair(s); first: "
                f"{gmap.describe_pair(static[0])}")
        built = len(self.assembly.initial_codes)
        if g.m != built:
            raise ContractError(
                f"restored graph has {g.m} edges, the build {built}: "
                f"the graph was edited outside the run")
