import json

import pytest

from abdyn.cli import main
from abdyn.fileio import read_edgelist, read_trace, write_edgelist
from abdyn.graph import graph_fingerprint

from conftest import blinker, random_graph


@pytest.fixture
def sample_graph(tmp_path):
    g = random_graph(30, 0.15, 21)
    path = tmp_path / "g.edges"
    write_edgelist(g, str(path))
    return g, path


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_kcore_subcommand(sample_graph, capsys):
    _, path = sample_graph
    assert main(["kcore", str(path), "3"]) == 0
    out = capsys.readouterr().out
    assert "3-core" in out and "2-crust" in out


def test_bundled_kcore_config(tmp_path, capsys, monkeypatch):
    import pathlib
    import shutil
    root = pathlib.Path(__file__).resolve().parents[1]
    work = tmp_path / "samples"
    shutil.copytree(root / "samples", work)
    outputs = ("kcore_final.edges", "kcore_run.trace")
    for name in outputs:
        (work / name).unlink()
    monkeypatch.chdir(tmp_path)
    assert main(["run", "samples/kcore_run.cfg"]) == 0
    # the run reproduces the bundled outputs byte for byte, trace header included
    for name in outputs:
        assert (work / name).read_bytes() == (root / "samples" / name).read_bytes(), name
    assert main(["verify", "--mode", "kcore",
                 "--initial", "samples/gnp60.edges",
                 "--final", "samples/kcore_final.edges",
                 "--alpha", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_run_kcore_config_and_verify(tmp_path, sample_graph, capsys):
    g, gpath = sample_graph
    trace_path = tmp_path / "out.trace"
    final_path = tmp_path / "final.edges"
    cfg = write_config(tmp_path, f"""
# minimum-degree run
seed = 7
graph.file = {gpath}
potential.name = min_degree
potential.alpha = 3
potential.beta = {g.n}
scheduler.name = round_robin
scheduler.batch = 40
run.rounds = 100000
output.trace = {trace_path}
output.graph = {final_path}
""")
    assert main(["run", cfg]) == 0
    assert main(["verify", "--mode", "kcore", "--initial", str(gpath),
                 "--final", str(final_path), "--alpha", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    trace = read_trace(str(trace_path))
    assert trace["header"]["seed"] == 7
    assert trace["verdict"]["kind"] == "stabilized"


def test_run_rejects_bad_thresholds(tmp_path, sample_graph, capsys):
    _, gpath = sample_graph
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = min_degree
potential.alpha = 5
potential.beta = 2
""")
    assert main(["run", cfg]) == 64
    assert "alpha" in capsys.readouterr().err


def test_verify_kcore_detects_tamper(tmp_path, sample_graph, capsys):
    g, gpath = sample_graph
    final = tmp_path / "bad.edges"
    tampered = g.copy()  # claim the initial graph is its own 3-core output
    write_edgelist(tampered, str(final))
    code = main(["verify", "--mode", "kcore", "--initial", str(gpath),
                 "--final", str(final), "--alpha", "3"])
    out = capsys.readouterr().out
    assert code == 4 and "FAIL" in out


def test_final_graph_roundtrip_fingerprint(tmp_path, sample_graph):
    g, gpath = sample_graph
    back = read_edgelist(str(gpath))
    assert graph_fingerprint(back) == graph_fingerprint(g)


def test_degree_props_verify(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    write_edgelist(random_graph(24, 0.3, 5), str(gpath))
    trace_path = tmp_path / "dp.trace"
    cfg = write_config(tmp_path, f"""
seed = 1
graph.file = {gpath}
potential.name = proper_degree
potential.f = sum
potential.alpha = 9
potential.beta = 9
scheduler.name = complete
run.rounds = 200
output.trace = {trace_path}
""")
    assert main(["run", cfg]) == 0
    assert main(["verify", "--mode", "degree-props", "--config", cfg,
                 "--trace", str(trace_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    # a trace of another format, or of none, is refused before any replay
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    unversioned = {k: v for k, v in header.items() if k != "format"}
    for bad in ({**header, "format": 1}, unversioned):
        trace_path.write_text("\n".join([json.dumps(bad)] + lines[1:]) + "\n")
        assert main(["verify", "--mode", "degree-props", "--config", cfg,
                     "--trace", str(trace_path)]) == 64
        assert "trace format" in capsys.readouterr().err


@pytest.mark.parametrize("cut, reason", [
    ("header only", "trace has 0 round records, replay 3"),
    ("no verdict", "trace has no verdict record"),
    ("round dropped", "diverge from trace at round record 0"),
    ("verdict moved", "differs from trace verdict"),
])
def test_degree_props_verify_refuses_a_cut_trace(tmp_path, capsys, cut, reason):
    gpath = tmp_path / "g.edges"
    write_edgelist(random_graph(30, 0.3, 5), str(gpath))
    trace_path = tmp_path / "dp.trace"
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = proper_degree
potential.f = sum
potential.alpha = 9
potential.beta = 9
run.rounds = 200
output.trace = {trace_path}
""")
    verify = ["verify", "--mode", "degree-props", "--config", cfg, "--trace", str(trace_path)]
    assert main(["run", cfg]) == 0
    assert main(verify) == 0
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 5          # header, 3 rounds, verdict
    verdict = json.loads(lines[-1])
    kept = {"header only": lines[:1], "no verdict": lines[:-1],
            "round dropped": lines[:1] + lines[2:],
            "verdict moved": lines[:-1] + [json.dumps({**verdict, "round": 0})]}[cut]
    trace_path.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(verify) == 4
    out = capsys.readouterr().out
    assert out.startswith("degree-props: FAIL (") and reason in out


def test_degree_props_verify_replays_with_run_stop(tmp_path, capsys):
    gpath = tmp_path / "blinker.edges"
    write_edgelist(blinker(), str(gpath))
    trace_path = tmp_path / "out.trace"
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = rule110
potential.alpha = 100
potential.beta = 100
run.rounds = 20
run.stop = budget
output.trace = {trace_path}
""")
    assert main(["run", cfg]) == 2
    # the replay runs all 20 rounds too, so it reaches the degree checks,
    # which the blinker's flipping pair fails
    assert main(["verify", "--mode", "degree-props", "--config", cfg,
                 "--trace", str(trace_path)]) == 4
    assert "degree-props: FAIL (P2 at round 1" in capsys.readouterr().out


@pytest.mark.parametrize("scheduler", ["round_robin", "uniform", "current_edges"])
def test_degree_props_verify_refuses_other_schedulers(tmp_path, capsys, scheduler):
    gpath = tmp_path / "g.edges"
    write_edgelist(random_graph(30, 0.3, 5), str(gpath))
    trace_path = tmp_path / "rr.trace"
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = proper_degree
potential.f = sum
potential.alpha = 9
potential.beta = 9
scheduler.name = {scheduler}
scheduler.batch = 50
run.rounds = 200
output.trace = {trace_path}
""")
    assert main(["run", cfg]) in (0, 3)
    capsys.readouterr()
    assert main(["verify", "--mode", "degree-props", "--config", cfg,
                 "--trace", str(trace_path)]) == 64
    err = capsys.readouterr().err
    assert "scheduler.name" in err and repr(scheduler) in err


def test_degree_props_verify_defaults_the_potential_as_run_does(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    write_edgelist(random_graph(30, 0.3, 5), str(gpath))
    trace_path = tmp_path / "md.trace"
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.alpha = 4
potential.beta = 4
run.rounds = 200
output.trace = {trace_path}
""")
    assert main(["run", cfg]) == 0
    assert json.loads(trace_path.read_text().splitlines()[0])["potential"] == "min_degree"
    capsys.readouterr()
    assert main(["verify", "--mode", "degree-props", "--config", cfg,
                 "--trace", str(trace_path)]) == 0
    assert "degree-props: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("line", ['{"type": "header", "format": 2, "se',    # truncated
                                  '[1, 2]', '{"format": 2}'])
def test_malformed_trace_is_a_usage_error(tmp_path, capsys, line):
    cfg = write_config(tmp_path, """
graph.generator = complete
graph.n = 6
potential.name = proper_degree
potential.f = sum
potential.alpha = 9
potential.beta = 9
""")
    trace_path = tmp_path / "cut.trace"
    trace_path.write_text(line + "\n")
    assert main(["verify", "--mode", "degree-props", "--config", cfg,
                 "--trace", str(trace_path)]) == 64
    assert "cut.trace:1: malformed trace record" in capsys.readouterr().err


def test_scripted_scheduler_without_script_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, """graph.generator = cycle
graph.n = 4
scheduler.name = scripted
""")
    assert main(["run", cfg]) == 64
    assert "scheduler.script" in capsys.readouterr().err


def test_star_subcommand(tmp_path, capsys):
    out_path = tmp_path / "star.edges"
    code = main(["star", "--n", "14", "--p", "0.2", "--seed", "4",
                 "--budget", "100000", "--out", str(out_path)])
    assert code == 0
    final = read_edgelist(str(out_path))
    degrees = sorted(final.degree(u) for u in range(final.n))
    assert degrees == [1] * 13 + [13]


def test_social_subcommand(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    write_edgelist(random_graph(10, 0.3, 9), str(gpath))
    ppath = tmp_path / "prof.txt"
    lines = [f"{i} {1.0 + 0.1 * i} 1" for i in range(10)] + ["enemy 0 1"]
    ppath.write_text("\n".join(lines) + "\n")
    code = main(["social", "--graph", str(gpath), "--profile", str(ppath),
                 "--gamma", "1", "--alpha", "2", "--beta", "8",
                 "--rounds", "50000"])
    assert code == 0


def test_trace_to_stdout(tmp_path, sample_graph, capsys):
    g, gpath = sample_graph
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = min_degree
potential.alpha = 2
potential.beta = {g.n}
scheduler.name = complete
run.rounds = 500
output.trace = -
""")
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert '"type": "header"' in out and '"type": "verdict"' in out


def test_usage_error_on_missing_mode_args(capsys):
    assert main(["verify", "--mode", "kcore"]) == 64


@pytest.mark.parametrize("files, argv, where", [
    ({}, ["rule110", "--tape", "01a0", "--steps", "1"], "'01a0'"),
    ({"edges": "nodes x\n0 1\n"}, ["kcore", "{edges}", "2"], "edges:1"),
    ({"script": "0-1\n0-a\n",
      "cfg": "graph.generator = cycle\ngraph.n = 4\n"
             "scheduler.name = scripted\nscheduler.script = {script}\n"},
     ["run", "{cfg}"], "script:2"),
    ({"profile": "0 1.0 1\n1 kind 1\n", "edges": "0 1\n"},
     ["social", "--graph", "{edges}", "--profile", "{profile}", "--alpha", "2", "--beta", "8"],
     "profile:2"),
    ({"cfg": "graph.generator = cycle\ngraph.n = ten\n"}, ["run", "{cfg}"], "graph.n"),
])
def test_malformed_number_is_a_usage_error(tmp_path, capsys, files, argv, where):
    paths = {name: str(tmp_path / name) for name in files}
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(**paths))
    assert main([arg.format(**paths) for arg in argv]) == 64
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("stop, code, records", [
    (None, 2, 2),               # cycle, the default: the run ends at the repeated state
    ("budget", 2, 20),          # every round runs; the cycle is reported at the end
    ("fixed_point", 64, None),
])
def test_run_stop_modes(tmp_path, capsys, stop, code, records):
    gpath = tmp_path / "blinker.edges"
    write_edgelist(blinker(), str(gpath))
    trace_path = tmp_path / "out.trace"
    cfg = write_config(tmp_path, f"""
graph.file = {gpath}
potential.name = rule110
potential.alpha = 100
potential.beta = 100
scheduler.name = complete
run.rounds = 20
output.trace = {trace_path}
""" + (f"run.stop = {stop}\n" if stop else ""))
    assert main(["run", cfg]) == code
    captured = capsys.readouterr()
    if records is None:
        assert "stop_mode" in captured.err
        return
    assert "verdict: cycle at round 0 (period 2)" in captured.out
    assert len(read_trace(str(trace_path))["rounds"]) == records
