import itertools

import numpy as np
import pytest

from abdyn import graph as graph_module
from abdyn import rule110
from abdyn.errors import ContractError, InputError
from abdyn.fastpath import IncrementalStepper
from abdyn.graph import DynGraph, edge_codes, graph_fingerprint
from abdyn.potentials import rule110_potential
from abdyn.rule110 import (CELL_BLOCK, KINDS, SUBCELL_BLOCK, AssemblyRunner,
                           build_assembly, check_structure, extract_values,
                           reference_run, reference_step, subcell_bits)

RULE_TABLE = {  # patterns 111..000 mapped to the bits of 0b01101110
    (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
    (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
}


def test_reference_step_matches_rule_table():
    for pattern, want in RULE_TABLE.items():
        tape = (pattern[0], pattern[1], pattern[2], 0)
        # cell 1 sees exactly this pattern on the 4-ring
        assert reference_step(tape)[1] == want


def test_reference_step_examples():
    assert reference_step((0,) * 6) == (0,) * 6
    assert reference_step((0, 0, 0, 1, 0, 0, 0)) == (0, 0, 1, 1, 0, 0, 0)


def test_reference_step_known_glider_widths():
    # periodicity sanity: width-3 all-equal tapes cycle with period <= 2
    assert reference_step((1, 1, 1)) == (0, 0, 0)
    assert reference_step((0, 1, 1)) == (1, 1, 1)


def test_tape_validation():
    with pytest.raises(InputError):
        build_assembly([0, 1])
    with pytest.raises(InputError):
        build_assembly([0, 1, 2])


@pytest.fixture(scope="module")
def asm4():
    return build_assembly([0, 1, 1, 0])


def test_block_constants():
    assert SUBCELL_BLOCK == 2 + 60 + 120 * 40 == 4862
    assert CELL_BLOCK == 4 * 4862 + 8 * 4 * 20 == 20088


def test_assembly_sizes(asm4):
    g = asm4.graph
    assert g.n == 4 * CELL_BLOCK
    gmap = asm4.gmap
    assert gmap.width == 4 and gmap.ring_width == 4
    assert len(gmap.subcells) == 16
    assert len(gmap.driver_blinkers) == 2 * 120 * 4
    assert len(gmap.follower_blinkers) == 2 * 120 * 4
    sc = gmap.subcells[(0, "d1")]
    assert len(sc.aux) == 60
    # a subcell owns 2 anchors + 60 aux + 120 blinkers of 40 internals
    ids = {sc.anchors[0], sc.anchors[1], *sc.aux}
    assert max(ids) - min(ids) + 1 == 62


def test_width3_is_doubled():
    asm = build_assembly([0, 1, 1])
    assert asm.gmap.width == 3
    assert asm.gmap.ring_width == 6
    assert asm.graph.n == 6 * CELL_BLOCK
    assert extract_values(asm) == [0, 1, 1]


def test_pin_gadget_edge_count(asm4):
    # first connection pin of cell 0: its 20 internals plus the two specials
    g = asm4.graph
    gmap = asm4.gmap
    base = 4 * SUBCELL_BLOCK  # connection block of cell 0
    internals = [base + s for s in range(20)]
    x = gmap.subcells[(0, "d1")].anchors[0]
    y = gmap.subcells[(0, "f1")].anchors[0]
    nodes = [x, y] + internals
    count = sum(1 for a, b in itertools.combinations(nodes, 2) if g.has_edge(a, b))
    assert count == 231


def test_fresh_assembly_counts(asm4):
    g = asm4.graph
    gmap = asm4.gmap
    for (cell, kind), sc in gmap.subcells.items():
        cn = g.common_neighbors(*sc.anchors)
        assert cn == (70 if sc.is_driver else 6), (cell, kind, cn)
    # all-zero assembly has driver anchor CE exactly 8, follower exactly 4
    zero = build_assembly([0, 0, 0, 0])
    for (cell, kind), sc in zero.gmap.subcells.items():
        ce = zero.graph.common_neighbor_edges(*sc.anchors)
        assert ce == (8 if sc.is_driver else 4), (cell, kind, ce)


def test_blinker_and_pin_neighborhood_ranges(asm4):
    g = asm4.graph
    gmap = asm4.gmap
    some_blinkers = list(gmap.driver_blinkers)[:40] + list(gmap.follower_blinkers)[:40]
    for pair in some_blinkers:
        assert 40 <= g.common_neighbors(*pair) <= 41
    sc_a = gmap.subcells[(0, "d1")]
    sc_b = gmap.subcells[(0, "f1")]
    for xi in (0, 1):
        for yi in (0, 1):
            cn = g.common_neighbors(sc_a.anchors[xi], sc_b.anchors[yi])
            assert 20 <= cn <= 24, cn


def test_fresh_structure_passes(asm4):
    assert check_structure(asm4, round_index=0).ok


def test_structure_flags_tampered_blinker(asm4):
    g = asm4.graph.copy()
    pair = min(asm4.gmap.driver_blinkers)
    g.remove_edge(*pair)
    report = check_structure(asm4, g, round_index=0)
    assert not report.ok
    assert any(v.kind == "blinker_parity" and "blinker" in v.where
               for v in report.violations)


def test_structure_rejects_a_graph_of_another_size(asm4):
    for n in (asm4.graph.n - 1, asm4.graph.n + 1):
        with pytest.raises(InputError, match="assembly expects"):
            check_structure(asm4, DynGraph(n), round_index=0)


def test_structure_flags_tampered_static_edge(asm4):
    g = asm4.graph.copy()
    sc = asm4.gmap.subcells[(0, "d1")]
    # an edge inside a blinker clique, never part of the dynamics
    internal = sc.anchors[1] + 2 + 60  # first blinker internal of the subcell
    partner = internal + 1
    assert g.has_edge(internal, partner)
    g.remove_edge(internal, partner)
    report = check_structure(asm4, g, round_index=0)
    assert any(v.kind == "static_edge" for v in report.violations)
    # the engine's diff set reports the same violation as the full compare
    assert check_structure(asm4, g, round_index=0, diff={(internal, partner)}) == report


def test_extraction_consistency_and_diagnostics(asm4):
    assert extract_values(asm4) == [0, 1, 1, 0]
    bits = subcell_bits(asm4)
    assert bits[(1, "d1")] == 1 and bits[(0, "f2")] == 0
    g = asm4.graph.copy()
    sc = asm4.gmap.subcells[(2, "f1")]
    g.remove_edge(*sc.anchors)
    assert extract_values(asm4, g)[2] is None


def test_describe_node_and_pair(asm4):
    gmap = asm4.gmap
    sc = gmap.subcells[(1, "f2")]
    assert gmap.describe_node(sc.anchors[0]) == "cell 1 f2 anchor0"
    assert gmap.describe_node(sc.aux[3]) == "cell 1 f2 aux3"
    assert "blinker" in gmap.describe_node(sc.aux[59] + 1)
    assert gmap.describe_pair(sc.anchors) == "anchor pair of cell 1 f2"


def test_runner_restores_between_tapes(monkeypatch):
    runner = AssemblyRunner(4)
    folds = []
    fold = graph_module.graph_fingerprint
    monkeypatch.setattr(graph_module, "graph_fingerprint", lambda g: folds.append(g) or fold(g))
    first = runner.run([1, 0, 0, 1], steps=1)
    second = runner.run([0, 0, 1, 0], steps=1)
    monkeypatch.undo()
    # the reused graph is folded once; later runs read the value it kept
    assert folds == [runner.assembly.graph]
    assert runner.assembly.graph.fingerprint == graph_fingerprint(runner.assembly.graph)
    assert first.ok and second.ok
    fresh = AssemblyRunner(4).run([0, 0, 1, 0], steps=1)
    assert second.trace.rounds == fresh.trace.rounds
    assert [tuple(t) for t in first.tapes] == reference_run((1, 0, 0, 1), 1)
    assert second.matches_reference()
    assert extract_values(runner.assembly) == [0, 0, 0, 0]
    assert check_structure(runner.assembly, round_index=0).ok
    assert runner.assembly.graph == build_assembly((0, 0, 0, 0)).graph


def test_runner_restores_the_built_width3_graph():
    runner = AssemblyRunner(3)
    with pytest.raises(InputError, match="steps"):
        runner.run((0, 1, 1), steps=-1)
    result = runner.run((0, 1, 1), steps=1)
    assert result.ok and result.matches_reference()
    assert result.trace.diff    # anchors and blinkers did toggle
    assert runner.assembly.graph == build_assembly((0, 0, 0)).graph


def test_restore_rejects_a_toggled_static_pair():
    runner = AssemblyRunner(4)
    g = runner.assembly.graph
    sc = runner.assembly.gmap.subcells[(0, "d1")]
    internal = sc.anchors[1] + 2 + 60   # first blinker internal of the subcell
    g.remove_edge(internal, internal + 1)
    g.add_edge(*sc.anchors)             # as a tape bit would be
    with pytest.raises(ContractError, match="static pair"):
        runner._restore(frozenset({(internal, internal + 1)}))
    # the pair is undone and the anchors cleared before the error is raised
    assert g.has_edge(internal, internal + 1) and not g.has_edge(*sc.anchors)


def test_restore_rejects_an_outside_edit():
    runner = AssemblyRunner(4)
    g = runner.assembly.graph
    sc = runner.assembly.gmap.subcells[(0, "d1")]
    internal = sc.anchors[1] + 2 + 60
    g.remove_edge(internal, internal + 1)   # not in any run's diff
    with pytest.raises(ContractError, match="edited outside the run"):
        runner._restore(frozenset())


def test_reused_runner_round0_checks(monkeypatch):
    runner = AssemblyRunner(3)
    asm = runner.assembly
    calls = []

    def spy(assembly, g=None, round_index=0, diff=None):
        if round_index == 0:
            calls.append(diff)
        return check_structure(assembly, g, round_index, diff)
    monkeypatch.setattr(rule110, "check_structure", spy)

    tapes = [tuple(bits) for bits in itertools.product((0, 1), repeat=3)]
    for k, tape in enumerate(tapes):
        res = runner.run(tape, steps=1, check=True)
        assert res.ok and res.matches_reference(), tape
        assert np.array_equal(edge_codes(asm.graph), asm.initial_codes), tape
        # one full round-0 check per runner; later runs read the tape anchors
        on = frozenset(asm.gmap.subcells[(cell, kind)].anchors
                       for cell in range(asm.gmap.ring_width) for kind in KINDS
                       if tape[cell % 3])
        assert calls[-1] == (None if k == 0 else on), tape
        runner._set_tape(tape)
        full = check_structure(asm, round_index=0)
        assert res.structure_reports[0] == full
        assert check_structure(asm, round_index=0, diff=on) == full
        runner._restore(frozenset())
        IncrementalStepper(asm.graph, rule110_potential(100)).verify_counts()
    assert len(calls) == len(tapes)


def test_merged_step_equals_two_half_steps_on_four_ring():
    runner = AssemblyRunner(4)
    tape = (1, 0, 1, 0)
    merged = runner.run(tape, steps=1, merged=True)
    halves = runner.run(tape, steps=1, merged=False)
    assert merged.ok and halves.ok
    assert [tuple(t) for t in merged.tapes] == [tuple(t) for t in halves.tapes]
    assert merged.tapes[1] == list(reference_step(tape))
