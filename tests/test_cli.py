import json
import math
import os
import subprocess
import sys
import warnings
from functools import cached_property

import numpy as np
import pytest

import resistnet
from conftest import triangle_chain
from resistnet import build_graph, laplacian, save_graph
from resistnet import _jsontext, cli
from resistnet import resistance as rs
from resistnet.graph import WeightedGraph
from resistnet.cli import main


def _jround(obj):
    """Round floats to 12 significant digits (the encoder's former first pass)
    and expand each column table into its list of row dicts."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, _jsontext.Table):
        keys = list(obj.columns)
        return [_jround(dict(zip(keys, row))) for row in zip(*obj.columns.values())]
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


@pytest.mark.parametrize("nodes", [1, 3])
def test_analyze_edgeless_graph_reports_no_margin(capsys, tmp_path, nodes):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["stability"]["classification"] == "stable_agreement"
    assert doc["stability"]["signature"] == {"n_plus": 0, "n_minus": 0, "n_zero": nodes}
    assert doc["margin"] is None and "no edges" in doc["margin_note"]
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and not err
    assert "margin: unavailable (the graph has no edges" in out


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_margin_on_edgeless_graph_is_not_applicable(capsys, tmp_path, mode):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"nodes": 3, "edges": []}))
    code, out, err = run(capsys, "margin", str(path), *mode)
    assert code == 2 and not out
    assert err == "resistnet: the graph has no edges, so there is no margin\n"


def test_analyze_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1


def test_analyze_weight_beyond_float_range_exit_1(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 1' + "0" * 400 + "}]}")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err.startswith("resistnet: error: ")
    assert "edges[0]" in err and "float range" in err


def test_analyze_file_that_is_not_utf8_exit_1(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"nodes": 1, "edges": []}'.encode("utf-16-le"))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and not out
    assert err.startswith("resistnet: error: ") and "not UTF-8 text" in err and err.count("\n") == 1


def test_analyze_overflowing_degree_exit_1(capsys, tmp_path):
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [{"u": u, "v": v, "w": 1e308}
                                                      for u, v in ((0, 1), (0, 2), (1, 2))]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and not out
    assert err == f"resistnet: error: {path}: node 0: its weighted degree (the sum of |w| over its edges) " \
                  "is beyond the float range\n"


def test_analyze_largest_finite_degrees_warn_nothing(capsys, tmp_path):
    path = write_graph(tmp_path, "big.json", 3, [(0, 1, 8.9e307), (0, 2, 8.9e307), (1, 2, 8.9e307)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0 and json.loads(out)["stability"]["classification"] == "stable_agreement"


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


def test_analyze_factors_positive_subgraph_once(capsys, tmp_path, monkeypatch):
    # the verdict, the LMI, the cut test, the thresholds and the total-resistance
    # check all read the one cached positive subgraph and its factorization;
    # its weights decide its verdict, so it runs no eigensolve
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
    assert seen["grounded_eigvals"] == [(17, 24)]
    assert sorted(seen["grounded_inverse"]) == [(17, 22), (17, 24)]


def test_analyze_reads_negative_edge_resistances_once(capsys, tmp_path, monkeypatch):
    # the thresholds and the total-resistance check share one R_- read
    calls = []

    def counting(g, a, b, read=rs._gram):
        calls.append(list(zip(a.tolist(), b.tolist())))
        return read(g, a, b)

    monkeypatch.setattr(rs, "_gram", counting)
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


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_margin_sector_width_beyond_float_range_exit_1(capsys, triangle_file, fmt):
    code, out, err = run(capsys, "margin", triangle_file, "--sector=-1e300,1e300", *fmt)
    assert code == 1 and not out
    assert err.startswith("resistnet: error: sector 0 (-1e+300, 1e+300): its width squared")


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


def geometric_graph_file(tmp_path, n, seed):
    """Connected unit-square geometric graph: points within 1.9 sqrt(ln n / (pi n))
    joined, weight radius / distance capped at 10."""
    rng = np.random.default_rng(seed)
    radius = 1.9 * math.sqrt(math.log(n) / (math.pi * n))
    iu, ju = np.triu_indices(n, 1)
    while True:
        points = rng.random((n, 2))
        d = np.hypot(*(points[iu] - points[ju]).T)
        near = d < radius
        edges = [(int(u), int(v), min(radius / x, 10.0)) for u, v, x in zip(iu[near], ju[near], d[near])]
        if resistnet.connected_components(build_graph(n, edges))[0] == 1:
            return write_graph(tmp_path, f"geometric{n}.json", n, edges)


def edge_lines(rows, name):
    # the per-edge block as one print per row writes it
    return "".join(f"  edge {row['edge']}: {format(row[name], '.12g')}\n" for row in rows)


@pytest.mark.parametrize("graph, argv", [
    ("geometric", ["margin"]),
    ("geometric", ["margin", "--edges", "set:0,17,400"]),
    ("geometric", ["analyze"]),
    ("signed_chain", ["analyze"]),
])
def test_text_mode_edge_rows_match_the_json_rows(capsys, tmp_path, graph, argv):
    if graph == "geometric":
        path = geometric_graph_file(tmp_path, 150, 1)
    else:  # one -0.3 edge per unit triangle: eight thresholds
        path = triangle_chain_file(tmp_path, negative=tuple(range(0, 24, 3)))
    code, out, _ = run(capsys, *argv[:1], path, *argv[1:])
    _, text, _ = run(capsys, *argv[:1], path, *argv[1:], "--json")
    assert code == 0
    doc = json.loads(text)
    blocks = [("per-edge margins:\n", doc["margin"]["per_edge"], "margin")]
    if argv[0] == "analyze":
        thresholds = doc["negative_edge_diagnostics"]["thresholds"]
        if thresholds["applicable"] and thresholds["per_edge"]:
            blocks.append(("negative-edge thresholds (|w| must stay below):\n", thresholds["per_edge"], "threshold"))
    rows = 0
    for header, per_edge, name in blocks:
        assert header + edge_lines(per_edge, name) in out
        rows += len(per_edge)
    assert out.count("\n  edge ") == rows
    assert rows >= (3 if graph == "geometric" else 8 + 24)


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
    """Records ``(name, shape)`` of every eigensolve and dense inverse numpy makes."""
    calls = []
    for name in ("eigh", "eigvalsh", "inv"):
        def counting(A, *args, solve=getattr(np.linalg, name), name=name, **kwargs):
            calls.append((name, np.shape(A)))
            return solve(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("edges", ["single:7", "set:1,5,9"])
def test_few_edge_margin_on_a_positive_graph_needs_no_pencil_eigensolve(capsys, tmp_path, monkeypatch,
                                                                         edges):
    calls = count_eigensolves(monkeypatch)
    for n in (60, 100):  # at most and above the block size
        g = resistnet.generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=9)
        path = write_graph(tmp_path, f"rgg{n}.json", n, g.edges)
        calls.clear()
        code, out, _ = run(capsys, "margin", path, "--edges", edges, "--json")
        assert code == 0 and json.loads(out)["margin"]["per_edge"]
        square = [name for name, shape in calls if shape == (n - 1, n - 1)]
        if n - 1 <= resistnet.spectral._TRI_BLOCK:
            assert square == ["inv"]  # the pencil's C^{-1}
        else:  # C^{-1} is inverted by halves
            assert square == [] and ("inv", (49, 49)) in calls


def test_simulate_with_dt_eigensolves_once(capsys, tmp_path, triangle_file, monkeypatch):
    # with or without --dt, one eigh of the (perturbed) Laplacian serves the
    # automatic step, the integrator's step guard and a linear run
    calls = count_eigensolves(monkeypatch)
    out_csv = str(tmp_path / "traj.csv")
    for dt in (("--dt", "0.01"), ()):
        for extra in ((), ("--perturb", "0=0.5"), ("--nonlinear", "1=-0.2,0.1,1"),
                      ("--perturb", "0=0.5", "--nonlinear", "1=-0.2,0.1,1")):
            calls.clear()
            code, _, _ = run(capsys, "simulate", triangle_file, "--out", out_csv, *dt, *extra)
            assert code == 0
            assert calls == [("eigh", (3, 3))], (dt, extra)


@pytest.mark.parametrize("delta", [("0=nan",), ("0=inf",), ("1=-inf",), ("0=1e308", "0=1e308")])
def test_simulate_non_finite_perturbed_weight_exit_1(capsys, tmp_path, triangle_file, delta):
    argv = ["simulate", triangle_file, "--out", str(tmp_path / "traj.csv")]
    for item in delta:
        argv += ["--perturb", item]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("resistnet: error: perturbed weight of edge") and "not finite" in err
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_perturbed_degree_overflow_exit_1(capsys, tmp_path, triangle_file):
    out_csv = tmp_path / "traj.csv"
    code, out, err = run(capsys, "simulate", triangle_file, "--perturb", "0=1.7e308", "--perturb", "1=1.7e308",
                         "--dt", "0.01", "--out", str(out_csv))
    assert code == 1 and not out
    assert err.startswith("resistnet: error: node 0: its weighted degree") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["analyze", "margin"])
@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf", "-inf", "abc"])
def test_bad_tol_exit_1(capsys, triangle_file, command, tol):
    with pytest.raises(SystemExit) as exc:
        main([command, triangle_file, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and not captured.out
    assert "argument --tol: expects a finite non-negative number" in captured.err


def test_tol_zero_is_accepted_and_simulate_has_no_tol(capsys, tmp_path, triangle_file):
    assert run(capsys, "analyze", triangle_file, "--tol", "0")[0] == 0
    assert run(capsys, "margin", triangle_file, "--tol=0")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", triangle_file, "--tol", "1e-9", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


NO_MASKED_ARRAYS = """
import contextlib, io, os, sys
import resistnet as rn
from resistnet.cli import main

out = sys.argv[1]
rgg = rn.generate_rgg(60, 0.3, 4)
signed = rn.build_graph(60, [(u, v, -0.05 if k % 7 == 0 else w) for k, (u, v, w) in enumerate(rgg.edges)])
triangle = rn.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4)])
paths = []
for name, g in (("rgg", rgg), ("signed", signed), ("triangle", triangle)):
    paths.append(os.path.join(out, name + ".json"))
    rn.save_graph(g, paths[-1])
runs = [["analyze", p, flag] for p in paths for flag in ("--json", "--tol=1e-9")]
runs += [["margin", paths[0], "--json"], ["margin", paths[0], "--edges", "set:0,5,9", "--sector=-0.5,0.5"],
         ["margin", paths[2], "--edges", "single:0"],
         ["simulate", paths[0], "--duration", "1", "--out", os.path.join(out, "a.csv"), "--json"],
         ["simulate", paths[0], "--duration", "1", "--perturb", "0=-0.1", "--nonlinear", "1=-0.2,0.1,1",
          "--out", os.path.join(out, "b.csv")],
         ["repro-sec6", "--n", "12", "--radius", "0.4", "--seed", "6", "--out", os.path.join(out, "r")]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in runs]
for g in (signed, triangle):
    rn.classify_stability(g), rn.lmi_psd_check(g), rn.negative_cut_verdict(g), rn.is_balanced(g)
    for check in (rn.multi_negative_edge_thresholds, rn.total_resistance_necessary_check):
        try:
            check(g)
        except rn.ResistNetError:
            pass
    rn.effective_resistance(g, 0, 1, method="pseudoinverse")
print(codes, "numpy.ma" in sys.modules)
"""


def test_no_run_imports_numpy_masked_arrays(tmp_path):
    # numpy.ma is imported lazily (by np.unique, for one); loading it costs
    # about 1.5 MB of peak memory per process
    src = os.path.dirname(os.path.dirname(resistnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    codes, masked = done.stdout.rsplit("]", 1)
    assert all(code in {"0", "2"} for code in codes.strip("[ ").split(", ")), done.stdout
    assert masked.strip() == "False"


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


def test_python_dash_m_resistnet_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(resistnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "resistnet", "--help"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: resistnet")
    missing = subprocess.run([sys.executable, "-m", "resistnet", "analyze", str(tmp_path / "none.json")],
                             capture_output=True, text=True, env=env, check=False)
    assert missing.returncode == 1 and "No such file" in missing.stderr


# ------------------------------------------------------------------ report


ENCODER_EDGE_CASES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 123456789012.5,
    1 / 3, 2.5e-300, 1e22, np.float64(2) / 3, [], {}, (), [[]], [{}], {"a": {}},
    {"b": [1, {"c": [None, True, False]}], "a": (0.1, -7, "x")}, [[1.5, [2.5, []]], {"k": ()}],
    "", "plain", "h\u00e9llo \u2603 \U0001f600", 'quote " backslash \\ tab \t newline \n',
    {"\u00fcber": "na\u00efve", "z": -0.0, "y": 10 ** 30}, True, False, None, 0, -12,
]


ROUNDING_FLOATS = [
    0.5, 1 / 3, -2.75, 3.0, -7.0, 2.9999999999999, -0.99999999999999, 999999999999.7,
    123456789012.4, 1e12, 1.5e12, 9.99999999999e14, 1e15, 5e15, 9999999999999998.0, 1e16,
    1.234e16, 1e-4, 1e-5, 0.000123456789012345, 2.2250738585072014e-308, 1e-300, 1e300,
    1.7976931348623157e308, 5e-324, 2.5e-320, -0.0, 0.0,
]


def as_table(rows):
    """The rows as a column table when they share one non-empty key set;
    otherwise the rows themselves, which the recursive walk writes."""
    keys = rows[0].keys() if rows and type(rows[0]) is dict else {}
    if not keys or any(type(row) is not dict or row.keys() != keys for row in rows):
        return rows
    return _jsontext.Table({k: [row[k] for row in rows] for k in keys})


# per-edge rows: a column table wherever the rows share one key set (each
# column formatted at once, or value by value when it is not all ints or
# all floats), a list of row dicts otherwise
ROW_LISTS = [as_table(rows) for rows in [
    [{"edge": 0, "margin": 0.5}, {"edge": 1, "margin": 1 / 3}, {"edge": 7, "margin": 2.0}],
    [{"edge": k, "margin": x} for k, x in enumerate(ROUNDING_FLOATS)],
    [{"edge": k, "margin": -x} for k, x in enumerate(ROUNDING_FLOATS)],
    [{"threshold": x} for x in (math.nan, 1.5, math.inf, -math.inf)],
    [{"edge": 3, "margin": 1.5}],
    [{"a": 1}, {"b": 2}],
    [{"a": 1, "b": 2.0}, {"a": 1}],
    [{"a": 1, "b": 2.0}, {"a": 1, "c": 2.0}],
    [{"a": 1}, {"a": 2, "b": 3.0}],
    [{"a": [1.5]}, {"a": [2.5]}],
    [{"a": {"b": 1}}, {"a": {"b": 2}}],
    [{"flag": True}, {"flag": False}],
    [{"a": 1}, {"a": True}],
    [{"a": 1}, {"a": 1.5}],
    [{"a": None}, {"a": None}],
    [{"a": "x"}, {"a": "y"}],
    [{"a": np.float64(2) / 3}, {"a": np.float64(0.5)}],
    [{"a": 10 ** 30, "b": -0.0}, {"a": -5, "b": 5e-324}],
    [{"%s": 1.5, "%%d": 2}, {"%s": 2.5, "%%d": 3}],
    [{"über": 1.5, "z\"q": 1}],
    [{}],
    [{}, {}],
    [{"a": 1}, {}],
    ({"edge": 0, "margin": 0.5}, {"edge": 1, "margin": 0.25}),
]] + [
    [_jsontext.Table({"a": [1.5, 2.5]}), {"rows": _jsontext.Table({"b": [1, 2], "a": [[], {"c": 0.5}]})}],
]

# one column of a table, each checked alone and beside an edge column
TABLE_COLUMNS = [
    [0, 7, -3, 10 ** 30],
    [0.5, 1 / 3, -2.75],
    [True, False, True],
    [math.nan, 1.5, math.inf, -math.inf],
    [-0.0, 0.0, -0.0],
    [1.5e12, 2.25e13, -3.125e14, 9.87654321e15, 0.5],
    [1e12, 1e13, 1e14, 1e15],
    [5e-324, 2.5e-320, 2.2250738585072014e-308, 0.25],
    [1, 1.5, 2, -0.0],
    [2.5],
    [],
]


@pytest.mark.parametrize("column", TABLE_COLUMNS)
def test_table_columns_match_json_module(column):
    edges = list(range(len(column)))
    for table in (_jsontext.Table({"x": column}), _jsontext.Table({"margin": column, "edge": edges})):
        rows = reference_json(table)
        assert len(json.loads(rows)) == len(column)
        assert cli._json_text(table) == rows
        assert cli._json_text({"per_edge": table, "n": 1}) == reference_json({"per_edge": table, "n": 1})
    assert cli._json_text(_jsontext.Table({})) == "[]"


@pytest.mark.parametrize("value", ENCODER_EDGE_CASES + ROW_LISTS)
def test_report_encoder_matches_json_module(value):
    assert cli._json_text(value) == reference_json(value)
    assert cli._json_text({"value": value, "list": [value, value]}) == \
        reference_json({"value": value, "list": [value, value]})


def test_report_encoder_float_columns_match_per_value_rounding():
    # every float comes out as repr(float(format(v, ".12g"))), whichever way its column goes
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2 ** 63, 4000, dtype=np.uint64) | (rng.integers(0, 2, 4000, dtype=np.uint64) << 63)
    columns = [
        bits.view(np.float64).tolist(),  # every exponent, subnormals, NaN and infinities
        (rng.uniform(-1, 1, 4000) * 10.0 ** rng.integers(-8, 20, 4000)).tolist(),
        rng.uniform(0.01, 100, 4000).tolist(),
        np.round(rng.uniform(-1e6, 1e6, 400)).tolist(),
        ROUNDING_FLOATS,
        # every value has a "." at 12 digits, so only the exponent or the
        # subnormal rule sends the column the per-value way
        [1.5e12, 2.25e13, -3.125e14, 9.87654321e15, 0.5, 1.5e16],
        [2.5e-320, 0.5, 5e-324],
        [1.5e-300, 0.25],
    ]
    for column in columns:
        table = _jsontext.Table({"x": column})
        assert cli._json_text(table) == reference_json(table) == cli._json_text([{"x": x} for x in column])
        want = [repr(float(format(x, ".12g"))) for x in column if math.isfinite(x)]
        assert [t for t, x in zip(_jsontext._column_texts(column), column) if math.isfinite(x)] == want


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}, object(), b"bytes"])
def test_report_encoder_rejects_what_the_json_module_rejects(value):
    for doc in (value, [1.5, value], {"key": {"inner": value}}, [{"a": 1, "b": value}, {"a": 2, "b": 0.5}],
                [{"a": 1.5}, {"a": value}], _jsontext.Table({"a": [1, 2], "b": [value, 0.5]})):
        with pytest.raises(TypeError) as expected:
            reference_json(doc)
        with pytest.raises(TypeError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(expected.value)


# --------------------------------------------------------------- repro-sec6


def check_repro_bridge_instance(capsys, tmp_path, n, radius, seed):
    """All expectations hold on an instance whose binding edge is a bridge,
    and rerunning with the same seed gives byte-identical artifacts."""
    args = ["repro-sec6", "--n", str(n), "--radius", str(radius), "--seed", str(seed)]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(args + ["--out", str(out_a)])
    stdout_a = capsys.readouterr().out
    code_b = main(args + ["--out", str(out_b)])
    stdout_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert "7/7 hold" in stdout_a
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
def test_repro_small_instance_deterministic(capsys, tmp_path):
    check_repro_bridge_instance(capsys, tmp_path, 12, 0.4, 6)


@pytest.mark.slow
def test_repro_case_study_deterministic(capsys, tmp_path):
    # the n=40 case study: its beyond run diverges only at t = 6101
    check_repro_bridge_instance(capsys, tmp_path, 40, 0.25, 3)


@pytest.mark.slow
@pytest.mark.parametrize("n, radius, seed", [(150, 0.2, 9), (300, 0.15, 9), (40, 0.3, 2)])
def test_repro_non_bridge_binding_edge_ends_in_null_space(capsys, tmp_path, n, radius, seed):
    # the extra null vector L+ b_e of a non-bridge binding edge takes many
    # values, so the boundary run ends in span{1, L+ b_e} instead of two clusters
    code = main(["repro-sec6", "--n", str(n), "--radius", str(radius), "--seed", str(seed),
                 "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 0
    assert "7/7 hold" in out and "no bridge" in out
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["expectations"]["boundary_null_space"]
    assert "boundary_two_clusters" not in report["expectations"]
    boundary = report["runs"]["boundary"]
    assert boundary["cluster_count"] > 2
    assert boundary["null_space_residual"] <= 2 * cli._NULL_SPACE_RTOL


@pytest.mark.slow
@pytest.mark.parametrize("n, radius, seed", [(12, 0.4, 6), (40, 0.3, 2)])
def test_repro_eigendecomposes_three_weight_vectors(capsys, tmp_path, monkeypatch, n, radius, seed):
    # one eigh per weight vector (nominal, boundary, beyond) serves the scan,
    # every run's step and guard and the null vector; no n x n inverse
    calls = count_eigensolves(monkeypatch)
    code = main(["repro-sec6", "--n", str(n), "--radius", str(radius), "--seed", str(seed),
                 "--out", str(tmp_path / "r")])
    assert code == 0 and "7/7 hold" in capsys.readouterr().out
    assert [c for c in calls if c[1] == (n, n)] == [("eigh", (n, n))] * 3


def test_spectral_scan_matches_pseudoinverse():
    # the scan and the null vector read L's cached spectrum; the n x n inverse
    # they replaced is the oracle
    compared = 0
    for seed in range(50):
        n = 8 + seed
        g = resistnet.generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed)
        Lp = rs._laplacian_pinv(g)
        want = Lp[g.tails, g.tails] - 2.0 * Lp[g.tails, g.heads] + Lp[g.heads, g.heads]
        got = cli._spectral_resistances(g)
        assert np.max(np.abs(got - want) / want) <= 1e-10, seed
        for u, v, _ in g.edges[:: max(1, g.edge_count // 5)]:
            p = Lp[:, u] - Lp[:, v]
            assert np.max(np.abs(cli._spectral_potential(g, u, v) - p)) <= 1e-10 * np.abs(p).max()
        top2 = np.sort(want)[-2:]
        if top2[1] - top2[0] > 1e-9 * top2[1]:
            compared += 1
            assert np.argmax(got) == np.argmax(want), seed
    assert compared >= 45


def boundary_run(n, radius, seed):
    """The repro-sec6 boundary run on a generated graph, with its null vector L+ b_e."""
    g = resistnet.generate_rgg(n, radius, seed)
    worst = resistnet.worst_single_edge(g)
    u, v, _ = g.edges[worst.binding_edge]
    Lp = rs._laplacian_pinv(g)
    dt = cli._auto_dt(float(np.linalg.eigvalsh(laplacian(g))[-1]))
    config = resistnet.SimulationConfig(duration=100.0, dt=dt, state_seed=seed + 1,
                                        output_edges=((u, v),), store_every=50)
    traj = resistnet.simulate_linear(g, {worst.binding_edge: -worst.global_margin}, config)
    return traj, Lp[:, u] - Lp[:, v]


def test_null_space_check_rejects_corrupted_final_states():
    traj, p = boundary_run(40, 0.3, 2)
    ok, residual = cli._ends_in_null_space(traj, p)
    assert ok and residual < 1e-12

    def corrupted(final, outputs=None):
        states = traj.states.copy()
        states[-1] = final
        return resistnet.Trajectory(traj.times, states, traj.outputs if outputs is None else outputs,
                                    False, None)

    x = traj.states[-1]
    basis = np.column_stack((np.ones_like(p), p))
    off = np.random.default_rng(3).normal(size=x.size)
    off -= basis @ np.linalg.lstsq(basis, off, rcond=None)[0]  # orthogonal to span{1, p}
    off /= np.abs(off).max()
    for scale in (1e-3, 1e-6, 1e-8):
        ok, residual = cli._ends_in_null_space(corrupted(x + scale * off), p)
        assert not ok and residual > 0.5 * scale
    # consensus lies in the span, but z across the edge is zero
    flat = np.full_like(x, x.mean())
    z = traj.outputs.copy()
    z[-1] = 0.0
    assert not cli._ends_in_null_space(corrupted(flat, z), p)[0]
    # z still moving: its final value differs from the one halfway through
    z = traj.outputs.copy()
    z[len(z) // 2] += 1e-2
    assert not cli._ends_in_null_space(corrupted(x, z), p)[0]


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
