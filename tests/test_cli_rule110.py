"""CLI paths that need a built assembly; kept separate because each build of
the smallest ring costs a few seconds."""

import pytest

from abdyn import cli, rule110
from abdyn.cli import main
from abdyn.fileio import read_edgelist, write_edgelist
from abdyn.rule110 import build_assembly


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("r110")
    assembly = build_assembly([0, 1, 0, 0])
    prefix = tmp / "asm"
    write_edgelist(assembly.graph, str(prefix) + ".edges")
    return assembly, str(prefix) + ".edges"


def test_verify_rule110_fresh(dumped, capsys):
    _, edges = dumped
    code = main(["verify", "--mode", "rule110", "--tape", "0100",
                 "--graph", edges, "--round", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "extracted: 0100" in out


def test_verify_rule110_flags_tampered_edge(dumped, tmp_path, capsys):
    assembly, edges = dumped
    g = read_edgelist(edges)
    pair = min(assembly.gmap.driver_blinkers)
    g.remove_edge(*pair)
    bad = tmp_path / "tampered.edges"
    write_edgelist(g, str(bad))
    code = main(["verify", "--mode", "rule110", "--tape", "0100",
                 "--graph", str(bad), "--round", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "blinker" in out


def test_rule110_merged_all_zero_exits_clean(capsys):
    code = main(["rule110", "--tape", "0000", "--steps", "2", "--merged"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: stabilized" in out
    assert "reference match: yes" in out


def test_rule110_unmerged_cycle_exit_code(capsys):
    code = main(["rule110", "--tape", "0000", "--steps", "1", "--no-check"])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: cycle" in out


def test_rule110_dump_assembly(tmp_path, capsys):
    prefix = tmp_path / "dump"
    code = main(["rule110", "--tape", "1000", "--steps", "1", "--no-check",
                 "--dump-assembly", str(prefix)])
    assert code == 3  # too few rounds to re-encounter a configuration
    dumped = read_edgelist(str(prefix) + ".edges")
    fresh = build_assembly([1, 0, 0, 0])
    assert dumped == fresh.graph
    labels = (tmp_path / "dump.labels").read_text().splitlines()
    assert labels[0] == "0\tcell 0 d1 anchor0"
    assert len(labels) == fresh.graph.n


def test_rule110_negative_steps_is_a_usage_error(capsys, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("the step count is refused before any build")
    monkeypatch.setattr(rule110, "build_assembly", unexpected)
    monkeypatch.setattr(cli, "build_assembly", unexpected)
    assert main(["rule110", "--tape", "0000", "--steps", "-1"]) == 64
    assert "steps" in capsys.readouterr().err
