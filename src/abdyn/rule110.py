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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import RunConfig, RunTrace, run
from .errors import ContractError, InputError
from .graph import DynGraph, edge_codes, norm_pair
from .potentials import Potential, rule110_potential, two_step_merge
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
    cells = tuple(int(c) for c in tape)
    if len(cells) < 3:
        raise InputError(f"tape width must be at least 3, got {len(cells)}")
    if any(c not in (0, 1) for c in cells):
        raise InputError("tape cells must be 0 or 1")
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
    anchor_pairs: frozenset
    blinker_owner: dict            # pair -> (cell, kind, anchor_idx, aux_idx)
    anchor_owner: dict             # pair -> (cell, kind)

    @property
    def blinker_pairs(self) -> frozenset:
        return self.driver_blinkers | self.follower_blinkers

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
    tape: tuple[int, ...]
    initial_codes: np.ndarray      # graph.edge_codes of the built edge set


def _add_clique(g: DynGraph, nodes) -> None:
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            g.add_edge(u, v)


def _add_clique_except(g: DynGraph, nodes, skip) -> None:
    a, b = norm_pair(*skip)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if norm_pair(u, v) != (a, b):
                g.add_edge(u, v)


def build_assembly(tape) -> CellAssembly:
    """Construct the initial gadget graph for a cyclic tape."""
    logical = validate_tape(tape)
    width = len(logical)
    ring = logical * 2 if width == 3 else logical
    rw = len(ring)
    n = rw * CELL_BLOCK
    g = DynGraph(n)

    subcells: dict[tuple[int, str], SubCell] = {}
    driver_blinkers = set()
    follower_blinkers = set()
    blinker_owner: dict = {}
    anchor_pairs = set()
    anchor_owner: dict = {}

    for cell in range(rw):
        base = cell * CELL_BLOCK
        for k, kind in enumerate(KINDS):
            sb = base + k * SUBCELL_BLOCK
            anchors = (sb, sb + 1)
            aux = tuple(sb + 2 + i for i in range(AUX_PER_SUBCELL))
            sc = SubCell(cell=cell, kind=kind, anchors=anchors, aux=aux)
            subcells[(cell, kind)] = sc
            pair = norm_pair(*anchors)
            anchor_pairs.add(pair)
            anchor_owner[pair] = (cell, kind)
            is_driver = kind in DRIVERS

            internal_base = sb + 2 + AUX_PER_SUBCELL
            for anchor_idx in (0, 1):
                x = anchors[anchor_idx]
                for aux_idx in range(AUX_PER_SUBCELL):
                    y = aux[aux_idx]
                    b = anchor_idx * AUX_PER_SUBCELL + aux_idx
                    half0 = [internal_base + b * 2 * BLINKER_HALF + s
                             for s in range(BLINKER_HALF)]
                    half1 = [internal_base + b * 2 * BLINKER_HALF + BLINKER_HALF + s
                             for s in range(BLINKER_HALF)]
                    _add_clique_except(g, [x, y] + half0, (x, y))
                    _add_clique_except(g, [x, y] + half1, (x, y))
                    spair = norm_pair(x, y)
                    blinker_owner[spair] = (cell, kind, anchor_idx, aux_idx)
                    if is_driver:
                        driver_blinkers.add(spair)
                        g.add_edge(x, y)
                    else:
                        follower_blinkers.add(spair)

            if ring[cell]:
                g.add_edge(*anchors)

    # connection pin gadgets; each connection carries 4 pins,
    # one per anchor pairing of its two subcells
    for cell in range(rw):
        base = cell * CELL_BLOCK + 4 * SUBCELL_BLOCK
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
        for conn_idx, (akey, bkey) in enumerate(links):
            x_sc = subcells[akey]
            y_sc = subcells[bkey]
            for pin_idx, (xi, yi) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                x = x_sc.anchors[xi]
                y = y_sc.anchors[yi]
                internals = [base + conn_idx * 4 * PIN_INTERNALS + pin_idx * PIN_INTERNALS + s
                             for s in range(PIN_INTERNALS)]
                _add_clique(g, [x, y] + internals)

    gmap = GadgetMap(
        width=width,
        ring_width=rw,
        subcells=subcells,
        driver_blinkers=frozenset(driver_blinkers),
        follower_blinkers=frozenset(follower_blinkers),
        anchor_pairs=frozenset(anchor_pairs),
        blinker_owner=blinker_owner,
        anchor_owner=anchor_owner,
    )
    return CellAssembly(graph=g, gmap=gmap, tape=logical, initial_codes=edge_codes(g))


# ---------------------------------------------------------------------------
# Extraction and structural verification

def subcell_bits(assembly: CellAssembly, g: Optional[DynGraph] = None) -> dict:
    g = g or assembly.graph
    return {key: (1 if g.has_edge(*sc.anchors) else 0)
            for key, sc in assembly.gmap.subcells.items()}


def extract_values(assembly: CellAssembly, g: Optional[DynGraph] = None,
                   per_subcell: bool = False):
    """Read the tape off the anchor pairs.

    Returns a list of 0, 1, or None (inconsistent) per logical cell. With
    ``per_subcell`` the raw bit of every subcell is returned instead, which
    is the diagnostic view for half-round states where followers lag.
    """
    g = g or assembly.graph
    bits = subcell_bits(assembly, g)
    if per_subcell:
        return bits
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
       engine's diff set when provided, else a full comparison);
    c. anchor common neighbor counts are exactly 70/10 for drivers and 6/66
       for followers at integer/half parity;
    d. the anchor common-neighbor-edge counts satisfy the wiring formulas
       8 + value sums for drivers and 4 + value sums for followers.
    """
    g = g or assembly.graph
    gmap = assembly.gmap
    parity = round_index % 2
    report = StructureReport(round=round_index)

    for pair in gmap.driver_blinkers:
        want = parity == INTEGER
        if g.has_edge(*pair) != want:
            report.violations.append(StructureViolation(
                "blinker_parity", gmap.describe_pair(pair), want, not want))
    for pair in gmap.follower_blinkers:
        want = parity == HALF
        if g.has_edge(*pair) != want:
            report.violations.append(StructureViolation(
                "blinker_parity", gmap.describe_pair(pair), want, not want))

    dynamic = gmap.anchor_pairs | gmap.blinker_pairs
    if diff is not None:
        for pair in diff:
            if pair not in dynamic:
                report.violations.append(StructureViolation(
                    "static_edge", gmap.describe_pair(pair),
                    "unchanged from build", "toggled"))
    else:
        changed = np.setxor1d(edge_codes(g), assembly.initial_codes, assume_unique=True)
        for code in changed.tolist():
            pair = (code >> 32, code & 0xFFFFFFFF)
            if pair not in dynamic:
                report.violations.append(StructureViolation(
                    "static_edge", gmap.describe_pair(pair),
                    "unchanged from build", "toggled"))

    bits = subcell_bits(assembly, g)
    rw = gmap.ring_width
    for (cell, kind), sc in gmap.subcells.items():
        a0, a1 = sc.anchors
        cn = g.common_neighbors(a0, a1)
        if sc.is_driver:
            want_cn = 70 if parity == INTEGER else 10
        else:
            want_cn = 6 if parity == INTEGER else 66
        if cn != want_cn:
            report.violations.append(StructureViolation(
                "anchor_cn", gmap.describe_pair((a0, a1)), want_cn, cn))
        ce = g.common_neighbor_edges(a0, a1)
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


def _run_assembly(assembly: CellAssembly, steps: int, merged: bool,
                  check_rounds: bool, stop_mode: str, engine: str,
                  max_rounds: Optional[int] = None) -> SimulationResult:
    potential: Potential = two_step_merge(rule110_potential(100)) if merged \
        else rule110_potential(100)
    rounds = max_rounds if max_rounds is not None else (steps if merged else 2 * steps)
    rounds = max(rounds, 1)

    tapes = [extract_values(assembly)]
    reports: list[StructureReport] = []
    inconsistent: list[int] = []
    if check_rounds:
        reports.append(check_structure(assembly, round_index=0))

    def observer(t, g, delta, diff):
        round_index = 2 * (t + 1) if merged else t + 1
        if check_rounds:
            reports.append(check_structure(assembly, g, round_index, diff=diff))
        if round_index % 2 == 0 and round_index // 2 <= steps:
            vals = extract_values(assembly, g)
            if None in vals:
                inconsistent.append(round_index // 2)
            tapes.append(vals)

    cfg = RunConfig(
        graph=assembly.graph,
        potential=potential,
        scheduler=CompleteScheduler(),
        max_rounds=rounds,
        stop_mode=stop_mode,
        prune=True,
        engine=engine,
        copy_graph=False,
        record_rounds="all",
        observers=(observer,),
    )
    trace = run(cfg)
    while len(tapes) < steps + 1:
        tapes.append(list(tapes[-1]))
    return SimulationResult(tapes=tapes, trace=trace,
                            structure_reports=reports,
                            inconsistent_rounds=inconsistent)


def simulate(tape, steps: int, merged: bool = False, check: bool = True,
             stop_mode: str = "budget", engine: str = "auto") -> SimulationResult:
    """Build the assembly for ``tape`` and simulate ``steps`` automaton steps.

    Unmerged runs spend two engine rounds per step; merged runs one. The
    returned tapes hold the extraction after every automaton step, padded
    with the fixed point if the run stabilized early.
    """
    if steps < 0:
        raise InputError(f"steps must be nonnegative, got {steps}")
    assembly = build_assembly(tape)
    return _run_assembly(assembly, steps, merged, check, stop_mode, engine)


class AssemblyRunner:
    """Reuses one built assembly across many tapes of the same width.

    A run only ever toggles anchor and blinker edges when the construction is
    healthy; the runner restores the graph to its built state from the exact
    diff of each run, then rewrites the anchor bits for the next tape, so a
    sweep pays the construction cost once.
    """

    def __init__(self, width: int):
        self.assembly = build_assembly((0,) * width)

    def run(self, tape, steps: int, merged: bool = False, check: bool = True,
            stop_mode: str = "budget", engine: str = "auto") -> SimulationResult:
        logical = validate_tape(tape)
        gmap = self.assembly.gmap
        if len(logical) != gmap.width:
            raise InputError(f"runner is built for width {gmap.width}")
        self._set_tape(logical)
        result = _run_assembly(self.assembly, steps, merged, check, stop_mode, engine)
        self._restore(result.trace.diff)
        return result

    def raw_run(self, tape, rounds: int, engine: str, prune: bool,
                stop_mode: str = "budget") -> RunTrace:
        """Engine-level run on the shared assembly graph, restored afterwards.

        Used to compare execution strategies round for round on the same
        initial state.
        """
        logical = validate_tape(tape)
        self._set_tape(logical)
        cfg = RunConfig(
            graph=self.assembly.graph,
            potential=rule110_potential(100),
            scheduler=CompleteScheduler(),
            max_rounds=rounds,
            stop_mode=stop_mode,
            prune=prune,
            engine=engine,
            copy_graph=False,
            record_rounds="all",
        )
        trace = run(cfg)
        self._restore(trace.diff)
        return trace

    def _set_tape(self, logical) -> None:
        g = self.assembly.graph
        gmap = self.assembly.gmap
        ring = logical * 2 if gmap.ring_width != gmap.width else logical
        for (cell, kind), sc in gmap.subcells.items():
            want = bool(ring[cell])
            if g.has_edge(*sc.anchors) != want:
                if want:
                    g.add_edge(*sc.anchors)
                else:
                    g.remove_edge(*sc.anchors)

    def _restore(self, diff) -> None:
        """Undo a run from its exact ``diff``, then clear the tape anchors,
        which leaves the built all-zero assembly.

        A healthy run toggles only anchor and blinker pairs. Any other pair in
        the diff is undone too, so the runner stays usable, and then reported
        as a ``ContractError``.
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
        static = sorted(p for p in diff
                        if p not in gmap.anchor_owner and p not in gmap.blinker_owner)
        if static:
            raise ContractError(
                f"run toggled {len(static)} static pair(s); first: "
                f"{gmap.describe_pair(static[0])}")
