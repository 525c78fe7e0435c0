"""The three workloads: their inputs, their questions and the checks on every answer.

A question is one user-level request.  ``run`` is what gets timed; it
starts again from the graph file or the edge list each time, so no round
reuses an object an earlier round built.  ``check`` compares the answer
with the numpy oracle or with a property, and returns a list of problems.
An exception raised by the program inside ``run`` makes the question
*failed*; a wrong answer makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import inputs
import oracle

RTOL = 1e-6
ORDER_SLACK = 1e-9


class Question:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Workload:
    """Question set plus the input-building pass that set-up times.

    ``graphs`` holds (n, edges, path) triples; ``build`` turns each into the
    program's input with ``build_graph`` and, when a path is given,
    ``save_graph``.
    """

    def __init__(self, graphs, questions):
        self.graphs, self.questions = graphs, questions

    def build(self, rn):
        for n, edges, path in self.graphs:
            g = rn.build_graph(n, edges)
            if path is not None:
                rn.save_graph(g, path)


def cli(rn, argv):
    """One in-process ``resistnet`` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rn.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _close(a, b, rtol=RTOL):
    return bool(np.allclose(a, b, rtol=rtol, atol=0.0))


def _fmt(x):
    return repr(float(x))


def _check_margin_doc(doc, n_edges_res, sigma, methods, problems, where):
    """Margin report against oracle resistances ``{edge: R_e}`` and sigma_bar."""
    margins = {item["edge"]: item["margin"] for item in doc["per_edge"]}
    edges = sorted(n_edges_res)
    if sorted(margins) != edges:
        problems.append(f"{where}: per-edge margins cover {len(margins)} edges, expected {len(edges)}")
        return
    res = np.array([n_edges_res[k] for k in edges])
    if not _close([margins[k] for k in edges], 1.0 / res):
        problems.append(f"{where}: per-edge margins differ from 1/R_e")
    expected = {"exact_single_edge": 1.0 / res.max(), "disjoint_paths": 1.0 / res.max(),
                "small_gain": 1.0 / sigma}
    if doc["method"] not in methods:
        problems.append(f"{where}: method {doc['method']}, expected one of {sorted(methods)}")
    elif not _close(doc["global_margin"], expected[doc["method"]]):
        problems.append(f"{where}: global margin {doc['global_margin']} != {expected[doc['method']]}")
    b = doc["bounds"]
    if not (_close(b["max_edge_resistance"], res.max()) and _close(b["sigma_bar_m11"], sigma)
            and _close(b["r_total"], res.sum())):
        problems.append(f"{where}: bounds differ from the oracle")
    lo, mid, hi = b["max_edge_resistance"], b["sigma_bar_m11"], b["r_total"]
    if not (lo <= mid * (1 + ORDER_SLACK) and mid <= hi * (1 + ORDER_SLACK)):
        problems.append(f"{where}: bounds out of order {lo} <= {mid} <= {hi}")
    if doc["binding_edge"] is not None and not _close(1.0 / n_edges_res[doc["binding_edge"]["index"]],
                                                      1.0 / res.max()):
        problems.append(f"{where}: binding edge {doc['binding_edge']['index']} is not a worst edge")


def _analyze_check(out, n, R, sigma, tag):
    code, text, _ = out
    problems = [] if code == 0 else [f"{tag} analyze: exit {code}"]
    doc = json.loads(text)
    if doc["stability"]["classification"] != "stable_agreement":
        problems.append(f"{tag} analyze: {doc['stability']['classification']}")
    if doc["stability"]["signature"] != {"n_plus": n - 1, "n_minus": 0, "n_zero": 1}:
        problems.append(f"{tag} analyze: signature {doc['stability']['signature']}")
    diag = doc["negative_edge_diagnostics"]
    if not (diag["lmi_psd"] and diag["cut_verdict"] == "inconclusive"
            and diag["total_resistance_check"] is True):
        problems.append(f"{tag} analyze: negative-edge diagnostics {diag}")
    _check_margin_doc(doc["margin"], R, sigma, {"exact_single_edge"}, problems, f"{tag} analyze")
    return problems


def _margin_check(out, R, sigma, methods, where, sector=None):
    """``margin --json`` answer; ``sector`` is the oracle's (gain, quadratic) verdict."""
    code, text, _ = out
    doc = json.loads(text)
    problems = []
    _check_margin_doc(doc["margin"], R, sigma, methods, problems, where)
    want_code = 0
    if sector is not None:
        gain, quad = sector
        s = doc["sector"]
        if (s["gain_condition"], s["quadratic_condition"], s["stable"]) != (gain, quad, gain and quad):
            problems.append(f"{where}: sector verdict {s['gain_condition']}/"
                            f"{s['quadratic_condition']}, oracle {gain}/{quad}")
        want_code = 0 if gain and quad else 2
    if code != want_code:
        problems.append(f"{where}: exit {code}, expected {want_code}")
    return problems


# ------------------------------------------------------------ rgg_analysis

# Mostly n = 50, so that the median question falls inside a cluster of
# same-sized questions instead of on the edge between two sizes; one
# n = 150 graph carries about half of answer_s.  Not n = 200: its
# questions took two thirds of a ~12 s round, so a run asked each only
# three times and answer_s spread twice as wide between runs.
RGG_SIZES = (50,) * 14 + (75,) * 4 + (100,) * 3 + (150,)


def rgg_analysis(rng, workdir, rn):
    """CLI analyze and four kinds of margin question on seeded geometric graphs."""
    graphs, questions = [], []
    for i, n in enumerate(RGG_SIZES):
        edges = inputs.rgg(rng, n)
        path = os.path.join(workdir, f"rgg{i:02d}_n{n}.json")
        graphs.append((n, edges, path))
        m = len(edges)
        Lp = oracle.laplacian_pinv(n, edges)
        pairs = [(u, v) for u, v, _ in edges]
        R = dict(enumerate(oracle.pair_resistances(Lp, pairs)))
        sigma_all = oracle.sigma_bar(Lp, pairs)
        single = int(rng.integers(0, m))
        chosen = sorted(int(k) for k in rng.choice(m, size=3, replace=False))
        sigma_set = oracle.sigma_bar(Lp, [pairs[k] for k in chosen])
        block_of = {k: j for j, b in enumerate(oracle.blocks(n, edges)) for k in b}
        disjoint = len({block_of[k] for k in chosen}) == len(chosen)
        alpha = -(0.5 if i % 2 == 0 else 1.5) / sigma_set
        beta = alpha + 0.75
        gain, quad = oracle.scalar_sector_test([w for _, _, w in edges], chosen, alpha, beta, sigma_set)
        set_methods = {"small_gain", "disjoint_paths"} if disjoint else {"small_gain"}
        set_arg = "set:" + ",".join(map(str, chosen))
        sub = {k: R[k] for k in chosen}
        tag = f"rgg{i:02d}(n={n},m={m})"

        questions += [
            Question(f"{tag} analyze", lambda p=path: cli(rn, ["analyze", p, "--json"]),
                     lambda out, n=n, R=R, s=sigma_all, tag=tag: _analyze_check(out, n, R, s, tag)),
            Question(f"{tag} margin", lambda p=path: cli(rn, ["margin", p, "--json"]),
                     lambda out, R=R, s=sigma_all, tag=tag: _margin_check(
                         out, R, s, {"small_gain"}, f"{tag} margin all")),
            Question(f"{tag} single", lambda p=path, k=single: cli(
                rn, ["margin", p, "--edges", f"single:{k}", "--json"]),
                lambda out, k=single, R=R, tag=tag: _margin_check(
                    out, {k: R[k]}, R[k], {"exact_single_edge"}, f"{tag} single:{k}")),
            Question(f"{tag} set", lambda p=path, s=set_arg: cli(rn, ["margin", p, "--edges", s, "--json"]),
                     lambda out, sub=sub, sg=sigma_set, ms=set_methods, tag=tag: _margin_check(
                         out, sub, sg, ms, f"{tag} set")),
            Question(f"{tag} sector", lambda p=path, s=set_arg, a=alpha, b=beta: cli(
                rn, ["margin", p, "--edges", s, f"--sector={_fmt(a)},{_fmt(b)}", "--json"]),
                lambda out, sub=sub, sg=sigma_set, ms=set_methods, tag=tag, gq=(gain, quad): _margin_check(
                    out, sub, sg, ms, f"{tag} sector", gq)),
        ]
    return Workload(graphs, questions)


# --------------------------------------------------------- sec6_simulation

# Each simulate mode runs from SIM_STARTS seeded initial states, and the
# durations make every simulate question cost about the same (0.04 to
# 0.07 s here), so the median question sits among near-equal questions
# and a round takes about a second: a run asks every question some thirty
# times, often enough for its best ask to find the host at its usual
# speed.  Each CSV keeps 51 rows.  repro-sec6 is not asked: at its
# defaults it is one 6-8 s question that a run can ask only four or five
# times, and its best of those moved by a third between runs.
SIM_N = 75
SIM_DT = 0.01
SIM_STARTS = 4
NOMINAL_T, NOMINAL_EVERY = 40.0, 80
KERNEL_T, KERNEL_EVERY = 40.0, 80
COUPLED_T, COUPLED_EVERY = 3.0, 6
BURST_T, BURST_DT, BURST_WINDOW, BURST_AMPLITUDE = 12.0, 1.0 / 128.0, (1.0, 3.0), 0.5


def _read_csv(path, n):
    """Times and states (first n state columns) of a trajectory CSV, and its digest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # parsed by numpy, not into per-cell Python strings, so the check adds
    # little to the process's peak RSS
    data = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, usecols=range(1 + n), ndmin=2)
    return data[:, 0], data[:, 1:1 + n], hashlib.sha256(raw).hexdigest()


def sec6_simulation(rng, workdir, rn):
    """CLI simulate questions and one library burst run on a seeded RGG."""
    digests = {}

    def same(name, digest, problems):
        if digests.setdefault(name, digest) != digest:
            problems.append(f"{name}: bytes differ from an earlier round")

    n = SIM_N
    edges = inputs.rgg(rng, n)
    path = os.path.join(workdir, "sim_graph.json")
    weights = np.array([w for _, _, w in edges])
    L = oracle.laplacian(n, edges)
    Lp = oracle.laplacian_pinv(n, edges)
    R = oracle.pair_resistances(Lp, [(u, v) for u, v, _ in edges])
    worst = int(np.argmax(R))
    margin = 1.0 / R[worst]
    # coupling a*y + b*sin(y) with sector [-0.9 margin, 0] on the worst edge
    a_s, b_s = -0.45 * margin, 0.45 * margin
    gain, quad = oracle.scalar_sector_test(weights, [worst], a_s - b_s, a_s + b_s, R[worst])
    if not (gain and quad):
        raise RuntimeError("generated coupling is not certified; the input set is inconsistent")

    L_kernel = oracle.laplacian(n, [(u, v, w - margin if k == worst else w)
                                    for k, (u, v, w) in enumerate(edges)])
    starts = rng.uniform(-1.0, 1.0, (SIM_STARTS, n))
    tol = 1e-9 * (1.0 + np.abs(starts).max())
    burst_nodes = sorted(int(k) for k in rng.choice(n, size=5, replace=False))
    injected = BURST_AMPLITUDE * len(burst_nodes) * (BURST_WINDOW[1] - BURST_WINDOW[0]) / n

    def simulate(x0, name, duration, every, extra):
        out_path = os.path.join(workdir, name)
        argv = ["simulate", path, "--x0=" + ",".join(_fmt(x) for x in x0), "--duration", _fmt(duration),
                "--dt", _fmt(SIM_DT), "--store-every", str(every), "--out", out_path, "--json", *extra]
        return lambda: cli(rn, argv)

    def sim_check(x0, name, laplacian=None, kernel=False, contracts=False):
        """Checks on a simulate answer; every stored row must match the exact
        solution under ``laplacian`` when given, and ``kernel`` runs must end
        on x0's projection onto the kernel."""
        mean0 = x0.mean()
        if kernel:
            projection, kernel_dim, slowest = oracle.kernel_projection(L_kernel, x0)
            if kernel_dim != 2:
                raise RuntimeError(f"perturbed Laplacian has a {kernel_dim}-dimensional kernel, expected 2")

        def check(out):
            code, text, err = out
            problems = [] if code == 0 else [f"simulate {name}: exit {code}: {err.strip()[-200:]}"]
            if problems:
                return problems
            doc = json.loads(text)
            times, states, digest = _read_csv(os.path.join(workdir, name), n)
            same(name, digest, problems)
            if doc["outcome"] == "diverged" or not np.array_equal(states[0], x0):
                problems.append(f"simulate {name}: outcome {doc['outcome']}, or x0 not echoed")
            if abs(states[-1].mean() - mean0) > tol:
                problems.append(f"simulate {name}: node mean moved by {states[-1].mean() - mean0:.3e}")
            if laplacian is not None:
                # at the stored times (every 0.8 s) RK4 at dt = 0.01 stays within
                # 5e-9 of the exact solution, an RK3 step map misses by 1e-7 or more
                gap = float(np.abs(states - oracle.linear_solution(laplacian, x0, times)).max())
                if gap > 2e-8:
                    problems.append(f"simulate {name}: trajectory off the exact solution by {gap:.3e}")
            if kernel:
                slack = 1e-6 + np.exp(-slowest * times[-1]) * np.linalg.norm(x0)
                if float(np.abs(states[-1] - projection).max()) > slack:
                    problems.append(f"simulate {name}: final state is not x0 projected on the kernel")
            if contracts and (np.linalg.norm(states[-1] - mean0) > np.linalg.norm(x0 - mean0) + tol):
                problems.append(f"simulate {name}: disagreement grew under a certified coupling")
            return problems
        return check

    def burst_run():
        g = rn.build_graph(n, edges)
        cfg = rn.SimulationConfig(
            duration=BURST_T, dt=BURST_DT, initial_state=starts[0], store_every=128,
            exogenous_input=rn.burst_input(n, burst_nodes, BURST_AMPLITUDE, *BURST_WINDOW))
        return rn.simulate_linear(g, None, cfg)

    def burst_check(traj):
        problems = []
        moved = traj.states[-1].mean() - starts[0].mean()
        if traj.diverged or abs(moved - injected) > tol:
            problems.append(f"burst: mean moved {moved!r}, injected {injected!r}")
        if not np.array_equal(traj.states[0], starts[0]):
            problems.append("burst: initial state not kept")
        return problems

    questions = []
    for j, x in enumerate(starts):
        questions += [
            Question(f"simulate nominal x0#{j}", simulate(x, f"nominal{j}.csv", NOMINAL_T, NOMINAL_EVERY, []),
                     sim_check(x, f"nominal{j}.csv", laplacian=L)),
            Question(f"simulate -margin x0#{j}", simulate(x, f"kernel{j}.csv", KERNEL_T, KERNEL_EVERY,
                                                          [f"--perturb={worst}={_fmt(-margin)}"]),
                     sim_check(x, f"kernel{j}.csv", laplacian=L_kernel, kernel=True)),
            Question(f"simulate coupled x0#{j}", simulate(x, f"coupled{j}.csv", COUPLED_T, COUPLED_EVERY,
                                                          [f"--nonlinear={worst}={_fmt(a_s)},{_fmt(b_s)},1"]),
                     sim_check(x, f"coupled{j}.csv", contracts=True)),
        ]
    questions.append(Question("simulate_linear burst", burst_run, burst_check))
    return Workload([(n, edges, path)], questions)


# ------------------------------------------------------------ small_signed

SMALL_COUNT = 1000
ILL_SCALED_EVERY = SMALL_COUNT // len(inputs.ILL_SCALED)


def _small_question(rn, i, spec, rng):
    n, edges = spec["n"], spec["edges"]
    m = len(edges)
    weights = np.array([w for _, _, w in edges])
    negative = spec["negative"]
    plus = [e for e in edges if e[2] > 0]
    plus_labels = oracle.component_labels(n, plus)
    plus_connected = len(set(plus_labels)) == 1
    stable = oracle.is_stable(n, edges)
    # rounding error grows with the spread of the weights (the problem's condition)
    rtol = max(RTOL, 1e-14 * np.abs(weights).max() / np.abs(weights).min())

    def close(a, b):
        return _close(a, b, rtol)

    expect = {}
    if not stable:
        expect["inertia"] = oracle.inertia(oracle.laplacian(n, edges))
        expect["witnesses"] = tuple(k for k in negative
                                    if plus_labels[edges[k][0]] != plus_labels[edges[k][1]])
    if plus_connected and negative:
        Lp_plus = oracle.laplacian_pinv(n, plus)
        r_plus = oracle.pair_resistances(Lp_plus, [edges[k][:2] for k in negative])
        expect["thresholds"] = {k: 1.0 / r for k, r in zip(negative, r_plus)}
        expect["total_ok"] = float(np.sum(1.0 / np.abs(weights[negative]))) >= r_plus.sum() * (1 - 1e-9)

    edge_set = single = alpha = beta = None
    if stable:
        blocks = spec["blocks"]
        if spec["set_kind"] == "overlap":
            edge_set = sorted(int(k) for k in rng.choice(blocks[0], size=2, replace=False))
        else:
            picks = rng.permutation(len(blocks))[:3]
            edge_set = sorted(int(rng.choice(blocks[j])) for j in picks)
        single = int(rng.integers(0, m))
        Lp = oracle.laplacian_pinv(n, edges)
        pairs = [(u, v) for u, v, _ in edges]
        R = oracle.pair_resistances(Lp, pairs)
        expect["R"] = R
        expect["sigma_all"] = oracle.sigma_bar(Lp, pairs)
        sigma_set = oracle.sigma_bar(Lp, [pairs[k] for k in edge_set])
        expect["sigma_set"] = sigma_set
        alpha = -float(rng.choice((0.5, 1.5))) / sigma_set
        beta = alpha + float(rng.uniform(0.2, 2.5))
        expect["sector"] = oracle.scalar_sector_test(weights, edge_set, alpha, beta, sigma_set)
        block_of = {k: j for j, b in enumerate(oracle.blocks(n, edges)) for k in b}
        expect["disjoint"] = len({block_of[k] for k in edge_set}) == len(edge_set)
    tag = f"small{i:04d}({spec['family']},n={n},m={m})"

    def run():
        g = rn.build_graph(n, edges)
        out = {
            "verdict": rn.classify_stability(g),
            "psd": rn.lmi_psd_check(g),
            "cut": rn.negative_cut_verdict(g),
        }
        if plus_connected:
            out["thresholds"] = rn.multi_negative_edge_thresholds(g)
            out["total_ok"] = rn.total_resistance_necessary_check(g)
        if stable:
            spec_set = rn.UncertaintySpec(tuple(edge_set))
            out["worst"] = rn.worst_single_edge(g)
            out["all"] = rn.small_gain_margin(g, rn.UncertaintySpec(tuple(range(m))))
            out["single"] = rn.single_edge_margin(g, single)
            try:
                out["paths"] = rn.disjoint_paths_margin(g, spec_set)
            except rn.NotApplicableError:
                out["paths"] = None
            out["sector"] = rn.sector_stability_check(
                g, spec_set, rn.SectorSpec(tuple((alpha, beta) for _ in edge_set)))
        return out

    def check(out):
        problems = []
        v = out["verdict"]
        if stable:
            if v.classification != "stable_agreement" or v.signature.as_tuple() != (n - 1, 0, 1):
                problems.append(f"{tag}: {v.classification} {v.signature.as_tuple()}, oracle stable")
        elif v.classification != "unstable" or v.signature.as_tuple() != expect["inertia"]:
            problems.append(f"{tag}: {v.classification} {v.signature.as_tuple()}, "
                            f"oracle unstable {expect['inertia']}")
        elif expect["witnesses"] and tuple(v.witnesses or ()) != expect["witnesses"]:
            problems.append(f"{tag}: witnesses {v.witnesses}, oracle {expect['witnesses']}")
        if out["psd"] != stable:
            problems.append(f"{tag}: lmi_psd_check {out['psd']}, oracle {stable}")
        if (out["cut"] == "indefinite_by_cut") == plus_connected:
            problems.append(f"{tag}: cut verdict {out['cut']} but G+ connected={plus_connected}")
        if plus_connected:
            t = out["thresholds"]
            want = expect.get("thresholds", {})
            if not t.applicable or sorted(t.thresholds) != sorted(want) or not close(
                    [t.thresholds[k] for k in sorted(want)], [want[k] for k in sorted(want)]):
                problems.append(f"{tag}: thresholds {t}, oracle {want}")
            if out["total_ok"] != expect.get("total_ok", True):
                problems.append(f"{tag}: total-resistance check {out['total_ok']}")
        if not stable:
            return problems
        R = expect["R"]
        worst = out["worst"]
        if not (close(worst.global_margin, 1.0 / R.max())
                and close([worst.per_edge[k] for k in range(m)], 1.0 / R)
                and close(R[worst.binding_edge], R.max())):
            problems.append(f"{tag}: worst_single_edge differs from min 1/R_e")
        if not close(out["all"].global_margin, 1.0 / expect["sigma_all"]):
            problems.append(f"{tag}: small-gain margin differs from 1/sigma_bar")
        if not close(out["single"].global_margin, 1.0 / R[single]):
            problems.append(f"{tag}: single-edge margin differs from 1/R")
        p = out["paths"]
        disjoint = expect["disjoint"]
        if (p is not None) != disjoint:
            problems.append(f"{tag}: disjoint-paths margin applied={p is not None}, supports disjoint={disjoint}")
        elif p is not None:
            margins = np.array([p.per_edge[k] for k in edge_set])
            if not close(margins, 1.0 / R[edge_set]):
                problems.append(f"{tag}: disjoint-paths margins differ from 1/R_e")
            inside = weights.copy()
            inside[edge_set] -= 0.999 * margins
            beyond = weights.copy()
            beyond[edge_set[0]] -= 1.001 * margins[0]
            if not oracle.is_stable(n, _reweight(edges, inside)):
                problems.append(f"{tag}: 0.999x the disjoint-paths margins loses stability")
            if oracle.is_stable(n, _reweight(edges, beyond)):
                problems.append(f"{tag}: 1.001x one disjoint-paths margin keeps L PSD")
        s = out["sector"]
        gain, quad = expect["sector"]
        if (s.gain_condition, s.quadratic_condition, s.stable) != (gain, quad, gain and quad):
            problems.append(f"{tag}: sector {s.gain_condition}/{s.quadratic_condition}, oracle {gain}/{quad}")
        if not close(s.sigma_bar_m11, expect["sigma_set"]):
            problems.append(f"{tag}: sector sigma_bar differs from the oracle")
        return problems

    return Question(tag, run, check)


def _reweight(edges, weights):
    return [(u, v, w) for (u, v, _), w in zip(edges, weights)]


def small_signed(rng, workdir, rn):
    """About a thousand signed graphs on 6-14 nodes through the library calls."""
    graphs, questions = [], []
    templates = inputs.SMALL_TEMPLATES
    regular = 0
    for i in range(SMALL_COUNT):
        if i % ILL_SCALED_EVERY == ILL_SCALED_EVERY // 2:
            spec = inputs.ILL_SCALED[i // ILL_SCALED_EVERY]
        else:
            spec = inputs.small_signed_graph(rng, templates[regular % len(templates)])
            regular += 1
        graphs.append((spec["n"], spec["edges"], None))
        questions.append(_small_question(rn, i, spec, rng))
    return Workload(graphs, questions)


WORKLOADS = {
    "rgg_analysis": rgg_analysis,
    "sec6_simulation": sec6_simulation,
    "small_signed": small_signed,
}
