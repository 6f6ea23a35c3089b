import ast
import copy
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abdyn import graph as graph_module
from abdyn.errors import ContractError, InputError
from abdyn.graph import (CODE_FORM_PAIRS, DynGraph, EdgeDelta, edge_code_xor, edge_codes,
                         edge_token, graph_fingerprint, induced_ball)

from conftest import (brute_common_neighbor_edges, brute_common_neighbors,
                      random_graph, triangle)


def test_common_neighbors_triangle():
    g = triangle()
    assert g.common_neighbors(0, 1) == 1
    assert g.common_neighbors(1, 2) == 1
    assert g.common_neighbors(0, 2) == 1


def test_common_neighbors_isolated_pair():
    g = DynGraph(2)
    assert g.common_neighbors(0, 1) == 0


def test_common_neighbor_edges_k4_adjacent():
    g = random_graph(4, 1.1, 0)  # complete
    assert g.common_neighbor_edges(0, 1) == 1


def test_common_neighbor_edges_star_leaves():
    g = DynGraph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert g.common_neighbor_edges(1, 2) == 0


@pytest.mark.parametrize("seed", range(8))
def test_counts_match_brute_force(seed):
    g = random_graph(12, 0.4, seed)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.common_neighbors(u, v) == brute_common_neighbors(g, u, v)
            assert g.common_neighbors(u, v) == g.common_neighbors(v, u)
            assert g.common_neighbor_edges(u, v) == brute_common_neighbor_edges(g, u, v)
            assert g.common_neighbor_edges(u, v) == g.common_neighbor_edges(v, u)
            assert g.common_neighbor_counts(u, v) == (brute_common_neighbors(g, u, v),
                                                      brute_common_neighbor_edges(g, u, v))


def test_invalid_node_id():
    g = DynGraph(3)
    with pytest.raises(InputError):
        g.common_neighbors(0, 5)
    with pytest.raises(InputError):
        g.degree(-1)
    with pytest.raises(InputError):
        g.add_edge(0, 0)


def test_edge_count_consistency():
    g = random_graph(15, 0.3, 7)
    assert 2 * g.m == sum(g.degree(u) for u in range(g.n))


def test_induced_ball_radius_zero():
    g = DynGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    frag, nodes = induced_ball(g, 0, 2, 0)
    assert nodes == [0, 2]
    assert frag.m == 0
    frag2, nodes2 = induced_ball(g, 0, 1, 0)
    assert frag2.m == 1


def test_induced_ball_path():
    g = DynGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    frag, nodes = induced_ball(g, 0, 1, 1)
    assert nodes == [0, 1, 2]
    assert frag.m == 2


def test_induced_ball_k5_radius_one_is_everything():
    g = random_graph(5, 1.1, 0)
    frag, nodes = induced_ball(g, 0, 1, 1)
    assert nodes == list(range(5))
    assert frag.m == 10


@pytest.mark.parametrize("seed", range(5))
def test_induced_ball_is_induced(seed):
    g = random_graph(10, 0.35, seed)
    frag, nodes = induced_ball(g, 0, 1, 2)
    back = {i: x for i, x in enumerate(nodes)}
    for i in range(frag.n):
        for j in range(i + 1, frag.n):
            assert frag.has_edge(i, j) == g.has_edge(back[i], back[j])


def test_apply_delta_roundtrip():
    g = random_graph(10, 0.4, 3)
    before = graph_fingerprint(g)
    delta = EdgeDelta.build([(0, 9)] if not g.has_edge(0, 9) else [],
                            [e for e in [(0, 1)] if g.has_edge(0, 1)])
    g.apply_delta(delta)
    g.apply_delta(EdgeDelta(additions=delta.removals, removals=delta.additions))
    assert graph_fingerprint(g) == before


def test_apply_delta_examples():
    g = DynGraph(2)
    g.apply_delta(EdgeDelta.build([], []))
    assert g.m == 0
    g.apply_delta(EdgeDelta.build([(0, 1)], []))
    assert g.m == 1 and g.degree(0) == 1 and g.degree(1) == 1
    t = triangle()
    t.apply_delta(EdgeDelta.build([], [(0, 1), (1, 2), (0, 2)]))
    assert t.m == 0


def test_delta_contract_violations():
    g = triangle()
    with pytest.raises(ContractError):
        g.apply_delta(EdgeDelta.build([(0, 1)], []))  # already present
    with pytest.raises(ContractError):
        g.apply_delta(EdgeDelta.build([], [(0, 1), (0, 1)]))  # duplicate
    g2 = DynGraph(3)
    with pytest.raises(ContractError):
        g2.apply_delta(EdgeDelta.build([], [(0, 1)]))  # not present
    with pytest.raises(ContractError):
        g2.apply_delta(EdgeDelta.build([(0, 1)], [(0, 1)]))  # overlap


@pytest.mark.parametrize("additions, removals, error, message", [
    ([(1, 3)], [], InputError, "node id 3 out of range 0..2"),
    ([], [(-1, 2)], InputError, "node id -1 out of range 0..2"),
    ([(1, 1)], [], ContractError, "delta contains self-loop (1,1)"),
    ([(1, 2), (1, 2)], [], ContractError, "delta contains duplicate pairs"),
    ([], [(0, 1), (0, 1)], ContractError, "delta contains duplicate pairs"),
    ([(0, 2)], [(0, 2)], ContractError, "delta adds and removes the same pairs: [(0, 2)]"),
    ([(1, 2), (0, 1)], [], ContractError, "delta adds existing edge (0,1)"),
    ([], [(0, 1), (1, 2)], ContractError, "delta removes missing edge (1,2)"),
    # a pair and its reverse are one edge, which would be toggled twice
    ([(0, 2), (2, 0)], [], ContractError, "delta pair (2,0) is not ordered u < v"),
    ([], [(0, 1), (1, 0)], ContractError, "delta pair (1,0) is not ordered u < v"),
    ([(2, 1)], [], ContractError, "delta pair (2,1) is not ordered u < v"),
])
def test_delta_validate_messages(additions, removals, error, message):
    g = DynGraph.from_edges(3, [(0, 1)])
    delta = EdgeDelta(additions=tuple(additions), removals=tuple(removals))
    with pytest.raises(error) as info:
        g.apply_delta(delta)
    assert str(info.value) == message
    assert g.edge_set() == {(0, 1)} and g.m == 1


def test_fingerprint_examples():
    g = triangle()
    assert graph_fingerprint(g) == graph_fingerprint(triangle())
    p3 = DynGraph.from_edges(3, [(0, 1), (1, 2)])
    assert graph_fingerprint(g) != graph_fingerprint(p3)
    assert g.edge_set() != p3.edge_set()  # exact comparison backs the digest
    g.remove_edge(0, 2)
    g.add_edge(0, 2)
    assert graph_fingerprint(g) == graph_fingerprint(triangle())


def token_fold(g):
    """Reference fingerprint: the n seed XOR one token per edge, in Python."""
    acc = graph_fingerprint(DynGraph(g.n))
    for u, v in g.edges():
        acc ^= edge_token(u, v)
    return acc


def sorted_codes(g):
    return sorted((u << 32) | v for u, v in g.edges())


def sparse_graph(n, m, seed):
    rng = random.Random(seed)
    g = DynGraph(n)
    while g.m < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def test_fingerprint_seed_is_splitmix64_of_n():
    # first output of the published SplitMix64 generator seeded with 0
    assert graph_fingerprint(DynGraph(0)) == 0xE220A8397B1DCDAF
    assert edge_token(3, 1) == edge_token(1, 3) != edge_token(1, 2)


@pytest.mark.parametrize("n, m, seed", [(0, 0, 0), (1, 0, 0), (9, 0, 1), (12, 30, 2),
                                        (200, 900, 3), (70_000, 3000, 4)])
def test_vectorised_fingerprint_equals_token_fold(n, m, seed):
    g = sparse_graph(n, m, seed)
    assert graph_fingerprint(g) == token_fold(g)
    assert edge_codes(g).tolist() == sorted_codes(g)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_fingerprint_folds_partial_last_block(monkeypatch, block):
    g = sparse_graph(45, 120, block)     # 45 nodes: no multiple of 7 or 64
    want_fp, want_codes = token_fold(g), sorted_codes(g)
    monkeypatch.setattr(graph_module, "FOLD_BLOCK", block)
    assert graph_fingerprint(g) == want_fp
    assert edge_codes(g).tolist() == want_codes
    # the block-by-block xor, on sets and on a base with a few rows edited
    other = edge_codes(sparse_graph(45, 100, block + 1))
    h = DynGraph.from_codes(45, other)
    for u, v in [(0, 44), (3, 9), (20, 21)]:
        (h.remove_edge if h.has_edge(u, v) else h.add_edge)(u, v)
    for graph, codes in ((g, other), (h, other), (h, edge_codes(g)), (h, edge_codes(h))):
        assert np.array_equal(edge_code_xor(graph, codes),
                              np.setxor1d(edge_codes(graph), codes, assume_unique=True))


def test_copy_independent():
    g = triangle()
    h = g.copy()
    h.remove_edge(0, 1)
    assert g.has_edge(0, 1) and not h.has_edge(0, 1)
    assert g != h and g == triangle()


def _edits(g):
    """Edits of every kind on a random graph: a toggle through each entry
    point, a no-op add and remove, a refused delta, deltas built from edge
    codes, and a delta long enough to fold its tokens as one array."""
    absent = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if not g.has_edge(u, v))
    present = next(iter(g.edges()))
    yield lambda: g.add_edge(*absent)
    yield lambda: g.add_edge(absent[1], absent[0])          # already there
    yield lambda: g.remove_edge(present[1], present[0])
    yield lambda: g.remove_edge(*present)                   # already gone
    yield lambda: g.apply_delta(EdgeDelta.build([present], [absent]))

    def refused():
        with pytest.raises(ContractError):
            g.apply_delta(EdgeDelta.build([present], []))
    yield refused
    edges = sorted(g.edges())[:3]
    gaps = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)][:2]
    pairs = sorted(edges + gaps)
    codes = np.array([(u << 32) | v for u, v in pairs], dtype=np.uint64)
    born = np.array([p in gaps for p in pairs])
    yield lambda: g.apply_delta(EdgeDelta.from_codes(codes, born))
    yield lambda: g.apply_delta(EdgeDelta.from_codes(codes, ~born))     # and back
    yield lambda: g.apply_delta(EdgeDelta.from_codes(codes[:0], born[:0]))
    every = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    assert len(every) >= CODE_FORM_PAIRS
    yield lambda: g.apply_delta(EdgeDelta.build(                       # the complement
        [p for p in every if not g.has_edge(*p)], [p for p in every if g.has_edge(*p)]))


@pytest.mark.parametrize("seed", range(4))
def test_edits_keep_a_cached_fingerprint(seed):
    g = random_graph(12, 0.4, seed)
    assert g._fp is None and g.fingerprint == token_fold(g)
    for k, edit in enumerate(_edits(g)):
        edit()
        assert g._fp == token_fold(g), k
        assert g.m == len(g.edge_set()), k


@pytest.mark.parametrize("seed", range(4))
def test_edits_leave_an_unasked_fingerprint_unfolded(seed):
    g = random_graph(12, 0.4, seed)
    for k, edit in enumerate(_edits(g)):
        edit()
        assert g._fp is None, k
        assert g.m == len(g.edge_set()), k
    assert g.fingerprint == token_fold(g)


def _unparked(g: DynGraph, item: object) -> list[tuple[tuple[int, int], bool]]:
    """The net toggles that g journalled for ``item``, with whether each
    pair is an edge now; nothing is parked afterwards."""
    taken, codes, now = g.unpark()
    assert taken is item and g.unpark() is None
    assert codes.dtype == np.uint64 and (codes[1:] > codes[:-1]).all()
    return [((code >> 32, code & 0xFFFFFFFF), edge)
            for code, edge in zip(codes.tolist(), now.tolist())]


def _net(g: DynGraph, before: set) -> list[tuple[tuple[int, int], bool]]:
    return [(pair, g.has_edge(*pair)) for pair in sorted(before ^ g.edge_set())]


@pytest.mark.parametrize("seed", range(3))
def test_the_journal_holds_the_net_toggles_of_every_kind_of_edit(seed):
    # each edit alone, no-op edits and a refused delta among them, and then
    # all of them under one park, where pairs toggled twice drop out
    g = random_graph(12, 0.4, seed)
    item = object()
    for k, edit in enumerate(_edits(g)):
        before = g.edge_set()
        g.park(item, 66)        # every pair of the 12 nodes, which the complement toggles
        edit()
        assert _unparked(g, item) == _net(g, before), k
    before = g.edge_set()
    g.park(item, 1000)
    for edit in _edits(g):
        edit()
    assert _unparked(g, item) == _net(g, before)


def test_a_refused_delta_journals_nothing():
    g = random_graph(12, 0.4, 5)
    item = object()
    g.park(item, 100)
    present = next(iter(g.edges()))
    gaps = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    long = sorted(gaps[:CODE_FORM_PAIRS] + [present])
    codes = np.array([(u << 32) | v for u, v in long], dtype=np.uint64)
    for delta in (EdgeDelta.build([present], []),
                  EdgeDelta.from_codes(codes, np.ones(len(codes), dtype=bool))):
        with pytest.raises(ContractError, match="adds existing edge"):
            g.apply_delta(delta)
    assert g._parked.size == 0 and _unparked(g, item) == []


def test_a_journal_past_its_bound_drops_the_parked_item():
    g = random_graph(12, 0.4, 6)
    item = object()
    u, v = next(iter(g.edges()))
    g.park(item, 3)
    for edit in (g.remove_edge, g.add_edge, g.remove_edge):
        edit(u, v)
    assert g._parked.item is item and g._parked.size == 3      # at the bound it stays
    g.add_edge(u, v)
    assert g._parked is None and g.unpark() is None
    # a code-form delta longer than the bound drops it at once
    gaps = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b)]
    codes = np.array([(a << 32) | b for a, b in gaps[:CODE_FORM_PAIRS]], dtype=np.uint64)
    g.park(item, CODE_FORM_PAIRS - 1)
    g.apply_delta(EdgeDelta.from_codes(codes, np.ones(len(codes), dtype=bool)))
    assert g.unpark() is None


def test_a_copy_starts_with_nothing_parked():
    g = random_graph(12, 0.4, 7)
    item = object()
    g.park(item, 100)
    before = g.edge_set()
    h = g.copy()
    assert h._parked is None and h.unpark() is None
    h.add_edge(0, 1) if not h.has_edge(0, 1) else h.remove_edge(0, 1)     # journals on h only
    assert _unparked(g, item) == _net(g, before) == []


@pytest.mark.parametrize("cached", [False, True])
def test_copy_carries_the_fingerprint(cached):
    g = random_graph(12, 0.4, 9)
    if cached:
        g.fingerprint
    h = g.copy()
    assert h._fp == g._fp
    h.add_edge(0, 1) if not h.has_edge(0, 1) else h.remove_edge(0, 1)
    assert h.fingerprint == token_fold(h) != token_fold(g)
    assert g.fingerprint == token_fold(g)


def test_delta_from_codes_equals_build():
    rng = random.Random(3)
    pairs = sorted({tuple(sorted(rng.sample(range(70_000), 2))) for _ in range(300)})
    born = [rng.random() < 0.5 for _ in pairs]
    codes = np.array([(u << 32) | v for u, v in pairs], dtype=np.uint64)
    want = EdgeDelta.build([p for p, b in zip(pairs, born) if b],
                           [(v, u) for (u, v), b in zip(pairs, born) if not b])
    assert EdgeDelta.from_codes(codes, np.array(born)) == want
    assert EdgeDelta.from_codes(codes[:0], np.array(born)[:0]) == EdgeDelta()


def test_delta_then_cancels_pairs_in_both_and_sorts():
    first = EdgeDelta.build([(5, 1), (0, 3)], [(2, 4), (0, 1)])
    later = EdgeDelta.build([(4, 2), (0, 2)], [(1, 5), (3, 6)])
    assert first.then(later) == EdgeDelta(additions=((0, 2), (0, 3)),
                                          removals=((0, 1), (3, 6)))
    assert first.then(EdgeDelta()) == first == EdgeDelta().then(first)


@pytest.mark.parametrize("seed", range(6))
def test_delta_then_equals_applying_both(seed):
    rng = random.Random(seed)
    g = random_graph(14, 0.4, seed)
    every = [(u, v) for u in range(14) for v in range(u + 1, 14)]

    def toggle(h, pairs):
        return EdgeDelta.build([p for p in pairs if not h.has_edge(*p)],
                               [p for p in pairs if h.has_edge(*p)])
    start = g.copy()
    first = toggle(g, rng.sample(every, 30))
    g.apply_delta(first)
    later = toggle(g, rng.sample(every, 30))
    g.apply_delta(later)
    net = first.then(later)
    assert net == toggle(start, start.edge_set() ^ g.edge_set())
    start.apply_delta(net)
    assert start == g


def _code_form(pairs, born):
    """The delta of ``pairs``, added where ``born`` holds, held as codes
    whatever its size."""
    codes = np.array([(u << 32) | v for u, v in pairs], dtype=np.uint64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "CODE_FORM_PAIRS", 1)
        return EdgeDelta.from_codes(codes, np.array(born, dtype=bool))


@pytest.mark.parametrize("forms", ["pairs", "codes", "mixed"])
@pytest.mark.parametrize("what", ["add", "remove"])
def test_delta_then_refuses_a_pair_moved_the_same_way_twice(forms, what):
    first = [((0, 5), True), ((1, 2), False), ((2, 7), what == "add"), ((3, 4), True)]
    later = [((0, 1), True), ((2, 7), what == "add"), ((3, 4), False), ((5, 6), False)]

    def make(steps, coded):
        pairs, born = zip(*steps)
        if coded:
            return _code_form(pairs, born)
        return EdgeDelta.build([p for p, b in steps if b], [p for p, b in steps if not b])
    a = make(first, forms != "pairs")
    b = make(later, forms == "codes")
    with pytest.raises(ContractError, match=rf"^both deltas {what} the pair \(2,7\)$"):
        a.then(b)
    # a pair added and then removed nets out in every form
    fine = [(p, not b) if p == (2, 7) else (p, b) for p, b in later]
    assert a.then(make(fine, forms == "codes")) == EdgeDelta.build(
        [(0, 1), (0, 5)], [(1, 2), (5, 6)])


@pytest.mark.parametrize("coded", [False, True])
def test_delta_is_immutable(coded):
    pairs, born = [(0, 3), (1, 2), (2, 5)], [True, False, True]
    delta = _code_form(pairs, born) if coded else EdgeDelta.build([(0, 3), (2, 5)], [(1, 2)])
    assert delta.array_backed == coded
    for name in ("additions", "removals", "_codes", "extra"):
        with pytest.raises(AttributeError):
            setattr(delta, name, ())
        with pytest.raises(AttributeError):
            delattr(delta, name)
    assert delta == EdgeDelta(((0, 3), (2, 5)), ((1, 2),))
    # a copy or a pickled delta holds the same pairs in the same form
    for again in (copy.copy(delta), copy.deepcopy(delta), pickle.loads(pickle.dumps(delta))):
        assert again == delta and again.array_backed == coded
        assert hash(again) == hash(delta)


def _faulty(kind, g, rng):
    """A code-form delta of 30 pairs against g with one fault of ``kind``."""
    every = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    pairs = sorted(rng.sample(every, 30))
    born = [not g.has_edge(*p) for p in pairs]
    i = rng.randrange(1, 29)
    if kind in ("existing", "missing"):
        i = rng.choice([k for k, b in enumerate(born) if b == (kind == "missing")])
    u, v = pairs[i]
    if kind == "repeat":
        pairs.insert(i, pairs[i])
        born.insert(i, born[i])
    elif kind == "overlap":
        pairs.insert(i, pairs[i])
        born.insert(i, not born[i])
    elif kind == "unordered":
        pairs[i] = (v, u)
    elif kind == "self-pair":
        pairs[i] = (u, u)
    elif kind == "out of range":
        pairs[i] = (u, g.n + v)
    elif kind in ("existing", "missing"):
        born[i] = not born[i]
    elif kind == "unsorted":
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
        born[i], born[i + 1] = born[i + 1], born[i]
    if kind in ("unordered", "self-pair", "out of range"):
        order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0] << 32) | pairs[k][1])
        pairs, born = [pairs[k] for k in order], [born[k] for k in order]
    return _code_form(pairs, born)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, message", [
    ("repeat", "delta contains duplicate pairs"),
    ("overlap", "delta adds and removes the same pairs"),
    ("unordered", "delta pair"),
    ("self-pair", "delta contains self-loop"),
    ("out of range", "node id"),
    ("existing", "delta adds existing edge"),
    ("missing", "delta removes missing edge"),
])
def test_code_form_faults_match_the_pair_oracle(kind, message, seed):
    rng = random.Random(seed)
    g = random_graph(12, 0.4, seed)
    g.fingerprint
    g.degrees
    delta = _faulty(kind, g, rng)
    assert delta.array_backed and len(delta) >= CODE_FORM_PAIRS
    oracle = EdgeDelta(additions=delta.additions, removals=delta.removals)
    assert not oracle.array_backed
    with pytest.raises((ContractError, InputError), match=f"^{message}") as want:
        g.copy().apply_delta(oracle)
    before = (g.edge_set(), g.fingerprint, list(g.degrees))
    with pytest.raises(type(want.value)) as got:
        g.apply_delta(delta)
    assert str(got.value) == str(want.value)
    assert (g.edge_set(), g.fingerprint, g.degrees) == before


def test_code_form_refuses_unsorted_codes():
    g = random_graph(12, 0.4, 5)
    delta = _faulty("unsorted", g, random.Random(5))
    EdgeDelta(additions=delta.additions, removals=delta.removals).validate(g)   # pairs fine
    with pytest.raises(ContractError, match=r"^delta edge codes not sorted ascending: "
                                            r"\(\d+,\d+\) at index \d+ follows \(\d+,\d+\)$"):
        g.apply_delta(delta)


@pytest.mark.parametrize("codes, born", [
    (np.array([1, 2], dtype=np.int64), np.array([True, False])),
    (np.array([1, 2], dtype=np.uint64), np.array([1, 0])),
    (np.array([1, 2], dtype=np.uint64), np.array([True])),
    (np.array([[1, 2]], dtype=np.uint64), np.array([[True, False]])),
])
def test_delta_from_codes_refuses_other_arrays(codes, born):
    with pytest.raises(ContractError, match="one-dimensional uint64 code array"):
        EdgeDelta.from_codes(codes, born)


# ---------------------------------------------------------------------------
# Bulk constructors

def codes_of(pairs):
    return np.array([(u << 32) | v for u, v in pairs], dtype=np.uint64)


def per_edge(n, pairs):
    """The oracle: the graph built one add_edge at a time."""
    g = DynGraph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


@pytest.mark.parametrize("n, codes, message", [
    (3, codes_of([(1, 1)]), r"^self-loop at node 1 not allowed$"),
    (3, codes_of([(0, 1), (0, 5)]), r"^node id 5 out of range 0\.\.2$"),
    (3, codes_of([(4, 7)]), r"^node id 4 out of range 0\.\.2$"),
    (0, codes_of([(0, 1)]), r"^node id 0 out of range 0\.\.-1$"),
    (3, codes_of([(0, 1), (0, 1), (1, 2)]), r"^edge \(0,1\) listed twice$"),
    (3, codes_of([(0, 2), (0, 1)]), r"^edge codes not sorted ascending: \(0,1\) at index 1 "
                                    r"follows \(0,2\)$"),
    (3, codes_of([(2, 1)]), r"^edge code 8589934593 holds the pair \(2,1\) with u > v$"),
    # the first offending code wins, whatever is wrong further on
    (3, codes_of([(0, 1), (0, 1), (0, 9)]), r"listed twice"),
    (3, codes_of([(0, 9), (0, 1), (0, 1)]), r"node id 9"),
    (3, codes_of([(0, 2), (1, 1)]), r"self-loop at node 1"),
    (3, np.array([1], dtype=np.int64), r"^edge codes must be a one-dimensional uint64 array, "
                                       r"got int64 of shape \(1,\)$"),
    (3, codes_of([(0, 1)]).reshape(1, 1), r"one-dimensional uint64 array, got uint64 of shape"),
    (3, [1], r"one-dimensional uint64 array, got list of shape \(1,\)"),
    (-1, codes_of([]), r"^node count must be nonnegative, got -1$"),
])
def test_from_codes_refusals(n, codes, message):
    with pytest.raises(InputError, match=message):
        DynGraph.from_codes(n, codes)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_from_codes_without_edges(n):
    g = DynGraph.from_codes(n, codes_of([]))
    assert g == DynGraph(n) and g.n == n and g.m == 0
    assert g._fp is None and g._tables is None
    assert g.fingerprint == graph_fingerprint(DynGraph(n))


def test_from_codes_builds_no_set_and_reads_plain_ints():
    rng = random.Random(5)
    n = 9000      # ids past the interpreter's small-int cache, over several blocks
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(20_000)})
    g = DynGraph.from_codes(n, codes_of(pairs))
    assert g._adj == [None] * n
    assert g._indptr.dtype == g._indices.dtype == np.int32
    assert g == per_edge(n, pairs) and g.m == len(pairs) and len(g.degrees) == n
    indptr, indices = g.csr_rows(range(n))  # base rows hold their neighbours ascending
    assert all((np.diff(indices[a:b]) > 0).all() for a, b in zip(indptr[:-1], indptr[1:]))
    assert list(g.edges()) == pairs
    assert g._adj == [None] * n     # equality, edges, edge codes and degrees build no set
    entries = [v for u in range(n) for v in g.neighbors(u)]
    assert all(type(v) is int for v in entries) and None not in g._adj


@st.composite
def graphs_and_edits(draw):
    n = draw(st.integers(0, 40))
    if n < 2:
        return n, [], []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=120))
    # toggle batches fall on both sides of CODE_FORM_PAIRS
    batch = st.one_of(st.lists(pair, max_size=6), st.lists(pair, min_size=30, max_size=60))
    edits = draw(st.lists(st.tuples(st.sampled_from(("add", "remove", "toggle")), batch),
                          max_size=6))
    return n, pairs, edits


@given(graphs_and_edits())
def test_from_codes_equals_the_per_edge_build(case):
    n, pairs, edits = case
    canon = sorted({(min(p), max(p)) for p in pairs})
    g = DynGraph.from_codes(n, codes_of(canon))
    for other in (per_edge(n, pairs), DynGraph.from_edges(n, pairs)):
        assert all(g.neighbors(u) == other.neighbors(u) for u in range(n))
        assert g == other and g.m == other.m
        assert g.fingerprint == graph_fingerprint(other)
    for kind, batch in edits:
        if kind == "add":
            for u, v in batch:
                g.add_edge(u, v)
        elif kind == "remove":
            for u, v in batch:
                g.remove_edge(u, v)
        else:
            toggled = sorted({(min(p), max(p)) for p in batch})
            born = np.array([not g.has_edge(u, v) for u, v in toggled], dtype=bool)
            g.apply_delta(EdgeDelta.from_codes(codes_of(toggled), born))
        assert g.fingerprint == token_fold(g)
        assert g.m == len(g.edge_set())


def test_equality_compares_edges_across_graph_kinds():
    pairs = [(0, 1), (1, 4), (2, 3), (0, 4)]
    base = DynGraph.from_edges(5, pairs)
    sets = per_edge(5, reversed(pairs))
    assert base == sets and sets == base and base == DynGraph.from_edges(5, pairs)
    assert base._adj == [None] * 5     # comparing built no set
    assert base == base.copy()
    assert base != DynGraph.from_edges(6, pairs)            # same edges, another n
    assert base != DynGraph.from_edges(5, pairs[:-1])       # one edge fewer
    assert base != DynGraph.from_edges(5, pairs[:-1] + [(0, 3)])     # same m, one edge moved
    sets.remove_edge(1, 4)
    assert base != sets
    sets.add_edge(1, 4)
    assert base == sets
    base.remove_edge(2, 3)
    base.add_edge(3, 4)
    assert base != sets and base == per_edge(5, [(0, 1), (1, 4), (0, 4), (3, 4)])
    assert DynGraph(0) == DynGraph.from_codes(0, codes_of([])) != DynGraph(1)
    assert (base == "graph") is False


def test_base_arrays_refuse_writes():
    g = DynGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for graph in (g, g.copy()):
        for array in (graph._indptr, graph._indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 1
    assert g.copy()._indices is g._indices


@st.composite
def graph_scripts(draw):
    """A node count, starting edges and a list of operations on the graph."""
    n = draw(st.integers(2, 14))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    op = st.one_of(
        st.tuples(st.sampled_from(("add", "remove")), pair),
        st.tuples(st.sampled_from(("pairs", "codes")), st.lists(pair, max_size=2 * CODE_FORM_PAIRS)),
        st.tuples(st.just("copy"), st.none()),
        # a rebuild, then the pair toggled before the degree list is built
        st.tuples(st.sampled_from(("from_codes", "from_edges")), pair))
    ops = draw(st.lists(op, max_size=8))
    # the nodes whose rows each check reads one by one; the rest stay in the base
    probes = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=len(ops) + 1,
                           max_size=len(ops) + 1))
    return n, edges, ops, probes


def _toggle_delta(ref, pairs):
    canon = sorted({(min(p), max(p)) for p in pairs})
    return canon, [not ref.has_edge(u, v) for u, v in canon]


def _same_graph(g, ref, probe, start):
    """g agrees with the set-only reference on every query; the bulk
    readers first, while the rows outside ``probe`` are still in the base.
    ``start`` holds the codes of the first graph of the script."""
    n = ref.n
    assert g == ref and ref == g and g.m == ref.m and g.n == n
    assert np.array_equal(edge_codes(g), edge_codes(ref))
    assert np.array_equal(edge_code_xor(g, start), np.setxor1d(edge_codes(ref), start))
    assert sorted(g.edges()) == sorted(ref.edges())
    assert g.degrees == ref.degrees
    assert graph_fingerprint(g) == g.fingerprint == graph_fingerprint(ref)
    indptr, indices = g.csr_rows(range(n))
    assert [set(indices[a:b].tolist()) for a, b in zip(indptr, indptr[1:])] == \
        [ref.neighbors(u) for u in range(n)]
    assert [g.degree(u) for u in range(n)] == ref.degrees
    us = np.repeat(np.array(sorted(probe), dtype=np.int64), n)
    vs = np.tile(np.arange(n), len(probe))
    assert g.has_edges(us, vs).tolist() == [ref.has_edge(u, v) for u, v in zip(us, vs)]
    for u in sorted(probe):
        assert g.neighbors(u) == ref.neighbors(u)
        for v in range(n):
            assert g.has_edge(u, v) == ref.has_edge(u, v)
            if u != v:
                assert g.common_neighbors(u, v) == ref.common_neighbors(u, v)
                assert g.common_neighbor_edges(u, v) == ref.common_neighbor_edges(u, v)
    assert g.degrees == ref.degrees and g == ref


@given(graph_scripts())
def test_base_backed_graph_matches_a_set_only_reference(script):
    n, edges, ops, probes = script
    ref = per_edge(n, edges)
    g = DynGraph.from_edges(n, edges)
    g.fingerprint
    start = edge_codes(ref)
    _same_graph(g, ref, probes[0], start)
    for (kind, arg), probe in zip(ops, probes[1:]):
        if kind == "add":
            g.add_edge(*arg)
            ref.add_edge(*arg)
        elif kind == "remove":
            g.remove_edge(*arg)
            ref.remove_edge(*arg)
        elif kind in ("pairs", "codes"):
            canon, born = _toggle_delta(ref, arg)
            if kind == "pairs":
                delta = EdgeDelta([p for p, b in zip(canon, born) if b],
                                  [p for p, b in zip(canon, born) if not b])
            else:
                delta = EdgeDelta.from_codes(codes_of(canon), np.array(born, dtype=bool))
            g.apply_delta(delta)
            for (u, v), b in zip(canon, born):
                (ref.add_edge if b else ref.remove_edge)(u, v)
        elif kind == "copy":
            source, g = g, g.copy()
            assert g._indptr is source._indptr and g._indices is source._indices
            assert None not in g._adj and not {id(s) for s in g._adj} & {id(s) for s in source._adj}
            assert g == source
        else:
            current = sorted(ref.edges())
            g = (DynGraph.from_codes(n, codes_of(current)) if kind == "from_codes"
                 else DynGraph.from_edges(n, [(v, u) for u, v in current]))
            assert g._adj == [None] * n
            g.fingerprint
            for graph in (g, ref):
                (graph.remove_edge if ref.has_edge(*arg) else graph.add_edge)(*arg)
        _same_graph(g, ref, probe, start)


def test_from_edges_takes_repeats_and_either_orientation():
    g = DynGraph.from_edges(4, [(0, 1), (1, 0), (0, 1), (3, 2), (2, 3)])
    assert g.edge_set() == {(0, 1), (2, 3)} and g.m == 2
    assert DynGraph.from_edges(4, iter([(2, 1)])).edge_set() == {(1, 2)}


@pytest.mark.parametrize("n, pairs, message", [
    (3, [(0, 1), (2, 2), (0, 7)], r"^self-loop at node 2 not allowed$"),
    (3, [(0, 1), (0, 7), (2, 2)], r"^node id 7 out of range 0\.\.2$"),
    (3, [(9, 4)], r"^node id 9 out of range"),
    (3, [(1, -1)], r"^node id -1 out of range"),
    (3, [(0, 1), (2, 2 ** 70)], rf"^node id {2 ** 70} out of range"),
    (-2, [(0, 1)], r"^node count must be nonnegative, got -2$"),
])
def test_from_edges_refuses_like_add_edge(n, pairs, message):
    with pytest.raises(InputError, match=message):
        DynGraph.from_edges(n, pairs)
    if n >= 0:
        with pytest.raises(InputError, match=message):
            per_edge(n, pairs)


@pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0, 1), (2,)], [(0, 1, 2), (1,)]])
def test_from_edges_refuses_what_is_not_a_pair(pairs):
    with pytest.raises(InputError, match="^every edge must be a pair of node ids$"):
        DynGraph.from_edges(3, pairs)


# ---------------------------------------------------------------------------
# The one writer of the adjacency and the degree list

_SET_WRITES = {"add", "discard", "update", "remove", "clear", "pop"}
_LIST_WRITES = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
_ARRAY_WRITES = {"fill", "sort", "put", "resize", "setflags", "partition", "itemset"}
_NUMPY_WRITES = {"copyto", "put", "place", "putmask"}
_ADJ = {"_adj"}
_DEGREES = {"_deg", "degrees"}
_BASE = {"_indptr", "_indices"}
_PARKED = {"_parked"}
_STATE = _ADJ | _DEGREES | _BASE | _PARKED


def _adj_writes(path: Path) -> list[str]:
    """file:line of every write to a graph's adjacency overlay ``_adj``, its
    base arrays ``_indptr`` and ``_indices``, its degree list (``_deg``,
    read through ``degrees``) or its parked item with the journal
    (``_parked``) in one source file: an assignment or deletion of the
    attribute or of an entry of it, a set-mutating call on an entry of
    ``._adj``, a list-mutating call on the degree list, an assignment to
    anything reached through a base array (an entry, a slice, its flags) or
    through the parked slot (a field of the journal), an array-mutating
    method call on a base array, a list-mutating call on anything reached
    through the parked slot, or numpy's ``copyto``-like calls into a base
    array; a name bound to any of these attributes counts the same."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def attr_in(node, names):
        return isinstance(node, ast.Attribute) and node.attr in names
    aliases = {t.id: node.value.attr for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and attr_in(node.value, _STATE)
               for t in node.targets if isinstance(t, ast.Name)}

    def is_state(node, names):
        return attr_in(node, names) or isinstance(node, ast.Name) and aliases.get(node.id) in names

    def entry_of(node, names):
        return isinstance(node, ast.Subscript) and is_state(node.value, names)

    def through(node, names):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
            if is_state(node, names):
                return True
        return False

    def targets(node):
        for t in node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]:
            yield from t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            if any(attr_in(t, _STATE) or entry_of(t, _ADJ | _DEGREES)
                   or through(t, _BASE | _PARKED) for t in targets(node)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if (name in _SET_WRITES and entry_of(owner, _ADJ)
                    or name in _LIST_WRITES and is_state(owner, _DEGREES)
                    or name in _LIST_WRITES and through(owner, _PARKED)
                    or name in _ARRAY_WRITES and is_state(owner, _BASE)
                    or name in _NUMPY_WRITES and node.args and is_state(node.args[0], _BASE)):
                lines.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(set(lines))]


def test_only_graph_py_writes_the_adjacency():
    src = Path(graph_module.__file__).parent
    assert _adj_writes(src / "graph.py")        # the scan sees the writer's own writes
    hits = [hit for path in sorted(src.glob("*.py")) if path.name != "graph.py"
            for hit in _adj_writes(path)]
    assert hits == []


def test_the_adjacency_scan_flags_each_kind_of_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("\n".join([
        "def f(g, u, v, x):",
        "    g._adj[u].add(v)",
        "    adj = g._adj",
        "    adj[v].discard(u)",
        "    g._adj = []",
        "    g._adj[u] = set()",
        "    a, g._adj = 1, 2",
        "    x[list(g._adj[u])] = 1",             # reads the adjacency only
        "    adj[u].update(x); adj[u].clear()",
        "    adj[u].pop(); adj[u].remove(v)",
        "    deg = g.degrees",                     # binds the degree list, writes nothing
        "    deg[u] += 1",
        "    g.degrees[v] = 0",
        "    g._deg = None",
        "    deg.append(0); g._deg.extend(x)",
        "    del deg[u]",
        "    deg.sort(); g.degrees.insert(0, 1)",
        "    y = g.degrees.copy(); y[u] = deg[v]",  # writes a copy only
        "    g._indices[0] = 1",
        "    ix = g._indptr",                      # binds a base array, writes nothing
        "    ix[1:3] += 1",
        "    g._indptr = None",
        "    g._indices.flags.writeable = True",
        "    ix.fill(0); g._indices.sort()",
        "    np.copyto(g._indices, x)",
        "    del ix[0]",
        "    z = g._indices[g._indptr[u]:g._indptr[u + 1]].copy(); z[0] = 1",  # reads only
        "    g._parked = None",
        "    p = g._parked",                       # binds the parked slot, writes nothing
        "    p.size += 1",
        "    g._parked.ints.extend(x)",
        "    p.arrays.append(x); k = len(g._parked.ints) + p.bound",
        "    return len(adj[u] & g._adj[v])",
    ]))
    assert _adj_writes(probe) == [f"probe.py:{k}" for k in (2, 4, 5, 6, 7, 9, 10, 12, 13, 14,
                                                          15, 16, 17, 19, 21, 22, 23, 24,
                                                          25, 26, 28, 30, 31, 32)]
