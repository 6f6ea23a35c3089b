import random

import numpy as np
import pytest

from abdyn import graph as graph_module
from abdyn.errors import ContractError, InputError
from abdyn.graph import (DynGraph, EdgeDelta, edge_codes, edge_token,
                         graph_fingerprint, induced_ball)

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


def test_copy_independent():
    g = triangle()
    h = g.copy()
    h.remove_edge(0, 1)
    assert g.has_edge(0, 1) and not h.has_edge(0, 1)
    assert g != h and g == triangle()


def _edits(g):
    """Edits of every kind on a random graph: a toggle through each entry
    point, a no-op add and remove, a refused delta and a toggle by codes."""
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
    yield lambda: g.toggle_codes(codes, born)
    yield lambda: g.toggle_codes(codes, ~born)              # and back
    yield lambda: g.toggle_codes(codes[:0], born[:0])


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
