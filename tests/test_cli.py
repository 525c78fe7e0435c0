import json
import math
import os
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

import resistnet
from conftest import triangle_chain
from resistnet import build_graph, laplacian, save_graph
from resistnet import cli
from resistnet import resistance as rs
from resistnet.graph import WeightedGraph
from resistnet.cli import main


def _jround(obj):
    """Round floats to 12 significant digits (the encoder's former first pass)."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _jround(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jround(v) for v in obj]
    return obj


def reference_json(doc):
    """Report text as the json module writes it: the oracle for ``cli._json_text``."""
    return json.dumps(_jround(doc), indent=2, sort_keys=True)


@pytest.fixture(autouse=True)
def reports_match_reference_json(monkeypatch):
    # every report a test here writes, to stdout or report.json, is also
    # written by the json module and compared byte for byte
    encode = cli._json_text

    def checked(obj, indent=""):
        text = encode(obj, indent)
        if not indent:
            assert text == reference_json(obj)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    save_graph(build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, n, edges):
    path = tmp_path / name
    save_graph(build_graph(n, edges), path)
    return str(path)


def triangle_chain_file(tmp_path, negative=()):
    """Chain of 8 unit triangles (24 edges); edges in ``negative`` weigh -0.3."""
    edges = [(u, v, -0.3 if k in negative else w)
             for k, (u, v, w) in enumerate(triangle_chain(8).edges)]
    return write_graph(tmp_path, "chain.json", 17, edges)


# ----------------------------------------------------------------- analyze


def test_analyze_stable_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "analyze", triangle_file)
    assert code == 0
    assert "stable_agreement" in out
    assert "(2, 0, 1)" in out


def test_analyze_negative_path_unstable(capsys, tmp_path):
    path = write_graph(tmp_path, "p.json", 3, [(0, 1, 1.0), (1, 2, -1.0)])
    code, out, _ = run(capsys, "analyze", path)
    assert code == 2
    assert "unstable" in out
    assert "indefinite_by_cut" in out
    assert "[1]" in out  # the cut edge is listed


def test_analyze_marginal_triangle(capsys, tmp_path):
    path = write_graph(tmp_path, "m.json", 3,
                       [(0, 1, -0.5), (0, 2, 1.0), (1, 2, 1.0)])
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "marginal" in out


def test_analyze_json_schema(capsys, triangle_file):
    code, out, _ = run(capsys, "analyze", triangle_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "resistnet-report/1"
    assert doc["graph"]["nodes"] == 3
    assert doc["stability"]["classification"] == "stable_agreement"
    assert doc["stability"]["signature"] == {"n_plus": 2, "n_minus": 0, "n_zero": 1}
    assert doc["margin"]["global_margin"] == 1.5
    assert doc["margin"]["method"] == "exact_single_edge"


def test_analyze_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1


def test_analyze_thresholds_reported(capsys, tmp_path):
    path = write_graph(tmp_path, "t.json", 3,
                       [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)])
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 2
    doc = json.loads(out)
    tds = doc["negative_edge_diagnostics"]["thresholds"]
    assert tds["applicable"]
    assert tds["per_edge"] == [{"edge": 2, "threshold": 0.5}]
    assert doc["negative_edge_diagnostics"]["total_resistance_check"] is False


def test_analyze_thresholds_beyond_twenty_edges(capsys, tmp_path):
    path = triangle_chain_file(tmp_path, negative=(0, 23))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "negative-edge thresholds (|w| must stay below):\n  edge 0: 0.5\n  edge 23: 0.5\n" in out
    assert "skipped" not in out


def test_analyze_eigendecomposes_positive_subgraph_once(capsys, tmp_path, monkeypatch):
    # the verdict, the LMI, the cut test, the thresholds and the total-resistance
    # check all read the one cached positive subgraph and its factorization
    seen = {}
    for name in ("grounded_eigvals", "grounded_inverse"):
        def counting(g, solve=WeightedGraph.__dict__[name].func, log=seen.setdefault(name, [])):
            log.append((g.node_count, g.edge_count))
            return solve(g)

        wrapped = cached_property(counting)
        wrapped.__set_name__(WeightedGraph, name)
        monkeypatch.setattr(WeightedGraph, name, wrapped)
    path = triangle_chain_file(tmp_path, negative=(0, 23))
    code, _, _ = run(capsys, "analyze", path)
    assert code == 0
    for log in seen.values():
        assert log.count((17, 22)) == 1
        assert log.count((17, 24)) == 1


def test_analyze_reads_negative_edge_resistances_once(capsys, tmp_path, monkeypatch):
    # the thresholds and the total-resistance check share one R_- read
    calls = []

    def counting(g, pairs, read=rs.node_pair_resistance_matrix):
        calls.append([tuple(p) for p in pairs])
        return read(g, pairs)

    monkeypatch.setattr(rs, "node_pair_resistance_matrix", counting)
    path = triangle_chain_file(tmp_path, negative=(0, 23))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    assert calls == [[(0, 1), (15, 16)]]
    diag = json.loads(out)["negative_edge_diagnostics"]
    assert diag["total_resistance_check"] is True
    assert [item["threshold"] for item in diag["thresholds"]["per_edge"]] == [0.5, 0.5]


# ------------------------------------------------------------------ margin


def test_margin_single_edge(capsys, triangle_file):
    code, out, _ = run(capsys, "margin", triangle_file, "--edges", "single:0")
    assert code == 0
    assert "exact_single_edge" in out
    assert "global margin: 1.5" in out


def test_margin_uniform_weights(capsys, tmp_path):
    path = write_graph(tmp_path, "u.json", 3,
                       [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)])
    code, out, _ = run(capsys, "margin", path)
    assert code == 0
    assert "uniform_weight" in out
    assert "global margin: 2" in out


def test_margin_sector_verdict(capsys, triangle_file):
    code, out, _ = run(capsys, "margin", triangle_file,
                       "--edges", "single:0", "--sector=-1,1")
    assert code == 0
    assert "sector verdict: stable" in out


def test_margin_sector_failure_exits_2(capsys, triangle_file):
    code, out, _ = run(capsys, "margin", triangle_file,
                       "--edges", "single:0", "--sector=-2,2")
    assert code == 2
    assert "not certified" in out


def test_margin_overlap_falls_back_with_warning(capsys, triangle_file):
    code, out, err = run(capsys, "margin", triangle_file, "--edges", "set:0,1")
    assert code == 0
    assert "warning" in err
    assert "small_gain" in out


def test_margin_disjoint_blocks_beyond_twenty_edges(capsys, tmp_path):
    path = triangle_chain_file(tmp_path)
    code, out, err = run(capsys, "margin", path, "--edges", "set:0,23")
    assert code == 0
    assert err == ""  # no fallback warning, which text mode prints to stderr
    assert "margin method: disjoint_paths\nglobal margin: 1.5\n" in out
    code, out, _ = run(capsys, "margin", path, "--edges", "set:0,23", "--json")
    doc = json.loads(out)
    assert (doc["margin"]["method"], doc["margin"]["global_margin"]) == ("disjoint_paths", 1.5)
    assert doc["warning"] is None


def test_margin_unstable_graph_exits_2(capsys, tmp_path):
    path = write_graph(tmp_path, "n.json", 3,
                       [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)])
    code, _, err = run(capsys, "margin", path)
    assert code == 2
    assert "stab" in err


def test_margin_json(capsys, triangle_file):
    code, out, _ = run(capsys, "margin", triangle_file, "--json")
    assert code == 0
    doc = json.loads(out)
    # all weights equal, so the exact uniform-weight promotion kicks in
    assert doc["margin"]["method"] == "uniform_weight"
    assert doc["margin"]["global_margin"] == 1.0
    assert doc["margin"]["bounds"]["r_total"] == 2.0


# ---------------------------------------------------------------- simulate


def test_simulate_converges(capsys, tmp_path, triangle_file):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", triangle_file, "--out", str(out_csv))
    assert code == 0
    assert "converged" in out
    assert out_csv.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x0,x1,x2,z0,z1,z2"


def test_simulate_boundary_clusters(capsys, tmp_path):
    # perturbing the bridge of a path graph to zero splits it in two
    path = write_graph(tmp_path, "p.json", 3, [(0, 1, 1.0), (1, 2, 1.0)])
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", path, "--perturb", "1=-1",
                       "--duration", "40", "--out", str(out_csv))
    assert code == 0
    assert "clustered (2 clusters)" in out


def test_simulate_beyond_margin_diverges(capsys, tmp_path, triangle_file):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", triangle_file, "--perturb", "0=-9",
                       "--duration", "100", "--out", str(out_csv), "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "diverged"
    assert doc["diverged_at"] > 0


def test_simulate_nonlinear_flag(capsys, tmp_path, triangle_file):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", triangle_file,
                       "--nonlinear", "0=-0.45,0.45,1",
                       "--duration", "40", "--out", str(out_csv))
    assert code == 0
    assert "converged" in out


def test_simulate_explicit_x0_and_step_guard(capsys, tmp_path, triangle_file):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", triangle_file, "--x0", "1,0,-1",
                       "--out", str(out_csv), "--json")
    assert code == 0
    # dt guard violation names the bound and exits 1
    code, _, err = run(capsys, "simulate", triangle_file, "--dt", "0.7",
                       "--out", str(out_csv))
    assert code == 1
    assert "step guard" in err


def test_simulate_bad_flags_exit_1(capsys, tmp_path, triangle_file):
    out_csv = str(tmp_path / "t.csv")
    for argv in (
        ("simulate", triangle_file, "--perturb", "abc", "--out", out_csv),
        ("simulate", triangle_file, "--nonlinear", "0=1,2", "--out", out_csv),
        ("simulate", triangle_file, "--x0", "nope", "--out", out_csv),
        ("simulate", triangle_file, "--perturb", "9=-1", "--out", out_csv),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    capsys.readouterr()


def count_eigensolves(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(A, *args, solve=getattr(np.linalg, name), **kwargs):
            calls.append(np.shape(A))
            return solve(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_simulate_with_dt_eigensolves_once(capsys, tmp_path, triangle_file, monkeypatch):
    # the automatic step needs lambda_max; a given --dt leaves only the
    # integrator's own step guard
    calls = count_eigensolves(monkeypatch)
    out_csv = str(tmp_path / "traj.csv")
    for extra in ((), ("--perturb", "0=0.5"), ("--nonlinear", "1=-0.2,0.1,1")):
        calls.clear()
        code, _, _ = run(capsys, "simulate", triangle_file, "--dt", "0.01",
                         "--out", out_csv, *extra)
        assert code == 0
        assert calls == [(3, 3)], extra


def test_simulate_automatic_dt(capsys, tmp_path):
    # heavy weights put 1/lambda_max below 0.01, so the step is read off L
    path = write_graph(tmp_path, "heavy.json", 3, [(0, 1, 100.0), (0, 2, 80.0), (1, 2, 60.0)])
    out_csv = str(tmp_path / "traj.csv")
    for extra, weights, slope in (
        ((), [100.0, 80.0, 60.0], 0.0),
        (("--perturb", "0=-20", "--nonlinear", "2=-0.5,2,3"), [80.0, 80.0, 60.0], 6.5),
    ):
        L = laplacian(build_graph(3, [(0, 1, weights[0]), (0, 2, weights[1]),
                                      (1, 2, weights[2])]))
        expected = min(0.01, 1.0 / (float(np.linalg.eigvalsh(L)[-1]) + slope))
        assert expected < 0.01
        code, out, _ = run(capsys, "simulate", path, "--out", out_csv, "--json", *extra)
        assert code == 0
        assert json.loads(out)["dt"] == float(format(expected, ".12g"))


def test_parser_reuse_leaks_no_defaults(capsys, tmp_path, triangle_file):
    # one process: repeatable flags, then a usage error, then a plain run;
    # the last report must match a fresh interpreter's
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", triangle_file, "--perturb", "0=0.5",
                     "--nonlinear", "1=-0.2,0.1,1", "--out", str(out_csv), "--json")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", triangle_file, "--no-such-flag"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, _ = run(capsys, "simulate", triangle_file, "--out", str(out_csv), "--json")
    assert code == 0
    in_process = out_csv.read_bytes()

    src = os.path.dirname(os.path.dirname(resistnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "resistnet.cli", "simulate", triangle_file,
         "--out", str(out_csv), "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(out) == json.loads(fresh.stdout)
    assert out_csv.read_bytes() == in_process


# ------------------------------------------------------------------ report


ENCODER_EDGE_CASES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 123456789012.5,
    1 / 3, 2.5e-300, 1e22, np.float64(2) / 3, [], {}, (), [[]], [{}], {"a": {}},
    {"b": [1, {"c": [None, True, False]}], "a": (0.1, -7, "x")}, [[1.5, [2.5, []]], {"k": ()}],
    "", "plain", "h\u00e9llo \u2603 \U0001f600", 'quote " backslash \\ tab \t newline \n',
    {"\u00fcber": "na\u00efve", "z": -0.0, "y": 10 ** 30}, True, False, None, 0, -12,
]


@pytest.mark.parametrize("value", ENCODER_EDGE_CASES)
def test_report_encoder_matches_json_module(value):
    assert cli._json_text(value) == reference_json(value)
    assert cli._json_text({"value": value, "list": [value, value]}) == \
        reference_json({"value": value, "list": [value, value]})


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}, object(), b"bytes"])
def test_report_encoder_rejects_what_the_json_module_rejects(value):
    for doc in (value, [1.5, value], {"key": {"inner": value}}):
        with pytest.raises(TypeError) as expected:
            reference_json(doc)
        with pytest.raises(TypeError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(expected.value)


# --------------------------------------------------------------- repro-sec6


@pytest.mark.slow
def test_repro_small_instance_deterministic(capsys, tmp_path):
    # n=12 instance whose binding edge is a bridge: all expectations hold,
    # and rerunning with the same seed gives byte-identical artifacts
    args = ["repro-sec6", "--n", "12", "--radius", "0.4", "--seed", "6"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(args + ["--out", str(out_a)])
    stdout_a = capsys.readouterr().out
    code_b = main(args + ["--out", str(out_b)])
    stdout_b = capsys.readouterr().out
    assert code_a == code_b == 0
    names = ["graph.json", "report.json", "nominal.csv", "boundary.csv",
             "beyond.csv", "nonlinear_stable.csv", "nonlinear_unstable.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # stdout may only differ in the output directory name
    tail = lambda s: [ln for ln in s.splitlines() if not ln.startswith("outputs in")]
    assert tail(stdout_a) == tail(stdout_b)

    report = json.loads((out_a / "report.json").read_text())
    assert report["expectations"]["binding_matches_scan"]
    assert report["expectations"]["boundary_two_clusters"]
    assert report["runs"]["boundary"]["cluster_count"] == 2
    assert report["runs"]["beyond"]["diverged"]
    assert report["runs"]["nonlinear_unstable"]["diverged"]
    assert not report["runs"]["nominal"]["diverged"]


@pytest.mark.slow
def test_repro_two_nodes(capsys, tmp_path):
    # the boundary Laplacian of a 2-node graph is zero: no third eigenvalue
    code = main(["repro-sec6", "--n", "2", "--radius", "2", "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["runs"]["boundary"]["duration"] == 60.0
    assert "7/7 hold" in out


def test_repro_rejects_tiny_n(capsys):
    code = main(["repro-sec6", "--n", "1", "--out", "/tmp/unused"])
    err = capsys.readouterr().err
    assert code == 1
    assert "2 nodes" in err


def test_repro_generation_failure_exit_1(capsys, tmp_path):
    code = main(["repro-sec6", "--n", "40", "--radius", "0.01",
                 "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert "attempts" in err
