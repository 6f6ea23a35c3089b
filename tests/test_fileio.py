import pytest
from hypothesis import given
from hypothesis import strategies as st

from abdyn import fileio
from abdyn.engine import RoundRecord, RunTrace, Verdict
from abdyn.errors import InputError
from abdyn.fileio import (TRACE_FORMAT, read_edgelist, read_interaction_script,
                          read_social_profile, read_trace, write_edgelist, write_trace)
from abdyn.graph import DynGraph, graph_fingerprint

from conftest import random_graph


def test_edgelist_roundtrip(tmp_path):
    g = random_graph(20, 0.2, 5)
    path = tmp_path / "g.edges"
    write_edgelist(g, str(path))
    h = read_edgelist(str(path))
    assert h.n == g.n
    assert graph_fingerprint(h) == graph_fingerprint(g)


def _line_writer(g, path):
    """The oracle: one line per edge of the sorted edge iteration."""
    with open(path, "w") as fh:
        fh.write(f"nodes {g.n}\n")
        for u, v in sorted(g.edges()):
            fh.write(f"{u} {v}\n")


@st.composite
def edited_graphs(draw):
    """A graph built from codes or edge by edge, with some edits after."""
    n = draw(st.integers(0, 70))
    if n < 2:
        return DynGraph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=4 * n))
    if draw(st.booleans()):
        g = DynGraph.from_edges(n, edges)
    else:
        g = DynGraph(n)
        for u, v in edges:
            g.add_edge(u, v)
    for add, (u, v) in draw(st.lists(st.tuples(st.booleans(), pair), max_size=10)):
        (g.add_edge if add else g.remove_edge)(u, v)
    return g


@given(edited_graphs(), st.sampled_from([1, 7, 1 << 16]))
def test_edgelist_writer_matches_the_line_writer(tmp_path_factory, g, block):
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    _line_writer(g, path.with_suffix(".want"))
    old, fileio.WRITE_BLOCK = fileio.WRITE_BLOCK, block
    try:
        write_edgelist(g, str(path))
    finally:
        fileio.WRITE_BLOCK = old
    assert path.read_bytes() == path.with_suffix(".want").read_bytes()


def test_edgelist_isolated_nodes(tmp_path):
    path = tmp_path / "iso.edges"
    path.write_text("# comment\nnodes 5\n0 1\n")
    g = read_edgelist(str(path))
    assert g.n == 5 and g.m == 1 and g.degree(4) == 0


def test_edgelist_bad_lines(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 2\n")
    with pytest.raises(InputError):
        read_edgelist(str(path))
    path.write_text("nodes 1\n0 3\n")
    with pytest.raises(InputError):
        read_edgelist(str(path))


@pytest.mark.parametrize("second", ["0 1", "1 0"])
def test_edgelist_edge_listed_twice(tmp_path, second):
    path = tmp_path / "dup.edges"
    path.write_text(f"nodes 4\n0 1\n# comment\n2 3\n{second}\n")
    with pytest.raises(InputError) as info:
        read_edgelist(str(path))
    assert str(info.value) == f"{path}:5: edge (0,1) listed twice"


def test_script_roundtrip(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("0-1 3-2\n\n# a comment line is no round\n2-1\n")
    back = read_interaction_script(str(path))
    assert back == [[(0, 1), (2, 3)], [], [(1, 2)]]


def test_social_profile(tmp_path):
    path = tmp_path / "prof.txt"
    path.write_text("0 1.5 2\n1 0.0 1\n2 3 0\nenemy 0 2\n")
    niceness, extroversion, enemies = read_social_profile(str(path))
    assert niceness == (1.5, 0.0, 3.0)
    assert extroversion == (2, 1, 0)
    assert enemies == frozenset({(0, 2)})


def test_social_profile_dense_ids(tmp_path):
    path = tmp_path / "prof.txt"
    path.write_text("0 1 1\n2 1 1\n")
    with pytest.raises(InputError):
        read_social_profile(str(path))


def test_social_profile_node_listed_twice(tmp_path):
    path = tmp_path / "prof.txt"
    path.write_text("0 1 1\n1 2 0\n0 3 1\n")
    with pytest.raises(InputError) as info:
        read_social_profile(str(path))
    assert str(info.value) == f"{path}:3: node 0 listed twice"


@pytest.mark.parametrize("verdict", [Verdict("stabilized", 3), Verdict("cycle", 1, 2),
                                     Verdict("budget", 5), Verdict("target", 0)])
def test_write_trace_roundtrip(tmp_path, verdict):
    rounds = [RoundRecord(0, 3, 1, 0, 2, 0x0123456789ABCDEF),
              RoundRecord(1, 3, 0, 1, 1, 2**64 - 1)]
    trace = RunTrace(rounds=rounds, verdict=verdict, metadata={}, final_graph=DynGraph(3),
                     changed_rounds=[0, 1])
    path = tmp_path / "run.trace"
    with open(path, "w") as fh:
        write_trace(fh, 7, {"config": {"seed": "7"}, "n": 3}, trace)
    back = read_trace(str(path))
    assert back["header"] == {"format": TRACE_FORMAT, "seed": 7, "config": {"seed": "7"},
                              "n": 3}
    assert back["rounds"] == [
        {"round": 0, "interactions": 3, "added": 1, "removed": 0, "classes": 2,
         "fingerprint": "0123456789abcdef"},
        {"round": 1, "interactions": 3, "added": 0, "removed": 1, "classes": 1,
         "fingerprint": "ffffffffffffffff"}]
    period = {} if verdict.period is None else {"period": verdict.period}
    assert back["verdict"] == {"kind": verdict.kind, "round": verdict.round, **period}
