"""Command line interface: analyze, margin, simulate, repro-sec6.

Exit codes: 0 on success (including stable analytic verdicts), 2 for
analytic negative outcomes (unstable network, uncertified sector, diverged
simulation, unmet reproduction expectations), 1 for usage and input errors.
Reports print floats at 12 significant digits (``_jsontext`` writes the
JSON ones) and carry their per-edge rows as column tables; trajectory
files carry 17.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import graph as gr
from . import robustness as rb
from . import simulation as sim
from . import spectral as sp
from . import stability as st
from ._jsontext import Table, _json_text
from .errors import (
    DisconnectedGraphError,
    GenerationError,
    GraphConstructionError,
    GraphFormatError,
    InputError,
    NominalInstabilityError,
    NotApplicableError,
    ResistNetError,
    SingularMatrixError,
    StepSizeError,
)

SCHEMA_VERSION = "resistnet-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYTIC = 2

REPRO_DEFAULT_N = 75
REPRO_DEFAULT_RADIUS = 0.17
REPRO_DEFAULT_SEED = 9

_MARGIN_NOTE = (
    "margins are open bounds: a perturbation of exactly the margin is marginal "
    "(extra zero eigenvalue), anything beyond is unstable"
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit_json(doc: dict) -> None:
    print(_json_text(doc))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage by default; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """``--tol``: a finite, non-negative zero threshold."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"expects a finite non-negative number, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # copies the ``append`` defaults, so no call leaks into the next
    parser = _Parser(
        prog="resistnet",
        description="Stability and robustness analysis of weighted consensus networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="full stability report for a graph file")
    p.add_argument("graph", help="graph JSON file ({nodes, edges:[{u,v,w}]})")
    p.add_argument("--tol", type=_tolerance, default=sp.DEFAULT_TOL, help="zero threshold (default 1e-9)")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("margin", help="robustness margins for uncertain edges")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument(
        "--edges",
        default="all",
        help="uncertain edge set: 'all', 'single:K', or 'set:I,J,...' (default all)",
    )
    p.add_argument("--sector", default=None, metavar="A,B",
                   help="also run the sector check with bounds [A, B] on every uncertain edge")
    p.add_argument("--tol", type=_tolerance, default=sp.DEFAULT_TOL, help="zero threshold (default 1e-9)")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("simulate", help="integrate the agreement dynamics")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--perturb", action="append", default=[], metavar="K=DELTA",
                   help="additive weight perturbation on edge K (repeatable)")
    p.add_argument("--nonlinear", action="append", default=[], metavar="K=A,B,C",
                   help="sector coupling a*y+b*sin(c*y) on edge K (repeatable)")
    p.add_argument("--duration", "--T", "-T", type=float, default=20.0,
                   help="simulated time (default 20)")
    p.add_argument("--dt", type=float, default=None,
                   help="integrator step (default: min(0.01, half the stability bound))")
    p.add_argument("--x0", default="seed:0",
                   help="initial state: comma-separated values or 'seed:N' (default seed:0)")
    p.add_argument("--store-every", type=int, default=1, help="keep every k-th sample (default 1)")
    p.add_argument("--out", default="traj.csv", help="trajectory CSV path (default traj.csv)")
    p.add_argument("--json", action="store_true", help="machine-readable summary")

    p = sub.add_parser("repro-sec6",
                       help="seeded geometric-graph case study: margins, clustering, divergence")
    p.add_argument("--n", type=int, default=REPRO_DEFAULT_N, help="node count (default 75)")
    p.add_argument("--radius", type=float, default=REPRO_DEFAULT_RADIUS,
                   help="connection radius in the unit square (default 0.17)")
    p.add_argument("--seed", type=int, default=REPRO_DEFAULT_SEED, help="generator seed (default 9)")
    p.add_argument("--out", default="sec6_out", help="output directory (default sec6_out)")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    return parser


# ---------------------------------------------------------------- analyze


def _signature_doc(sig: sp.Signature) -> dict:
    return {"n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero}


def _edge_table(values: dict[int, float], name: str) -> Table:
    """Rows ``{"edge": k, name: values[k]}`` of a per-edge dict, whose keys
    ascend (``MarginReport.per_edge``, ``MultiEdgeThresholds.thresholds``)."""
    return Table({"edge": list(values), name: list(values.values())})


def _margin_doc(report: rb.MarginReport, g: gr.WeightedGraph) -> dict:
    b = report.binding_edge
    return {
        "method": report.method,
        "global_margin": report.global_margin,
        "binding_edge": None if b is None else {
            "index": b, "u": g.edges[b][0], "v": g.edges[b][1], "weight": g.edges[b][2],
        },
        "per_edge": _edge_table(report.per_edge, "margin"),
        "bounds": {
            "inv_max_weight": report.bounds.inv_max_weight,
            "max_edge_resistance": report.bounds.max_edge_resistance,
            "sigma_bar_m11": report.bounds.sigma_bar_m11,
            "r_total": report.bounds.r_total,
        },
        "note": _MARGIN_NOTE,
    }


def _analysis_document(g: gr.WeightedGraph, tol: float) -> dict:
    count, _ = gr.connected_components(g)
    part = gr.signed_partition(g)
    verdict = st.classify_stability(g, tol)
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "graph": {
            "nodes": g.node_count,
            "edges": g.edge_count,
            "components": count,
            "negative_edges": list(part.negative_edges),
            "balanced": gr.is_balanced(g),
        },
        "stability": {
            "classification": verdict.classification,
            "signature": _signature_doc(verdict.signature),
            "witness_cut_edges": list(verdict.witnesses) if verdict.witnesses else None,
        },
    }

    _, cut_edges = gr.negative_cut_components(g)
    diag: dict = {
        "cut_verdict": st.negative_cut_verdict(g),
        "cut_edges": list(cut_edges),
        "lmi_psd": st.lmi_psd_check(g, tol),
    }
    try:
        diag["total_resistance_check"] = st.total_resistance_necessary_check(g)
    except DisconnectedGraphError:
        diag["total_resistance_check"] = None
        diag["total_resistance_note"] = "positive subgraph is disconnected"
    try:
        thresholds = st.multi_negative_edge_thresholds(g)
        if thresholds.applicable:
            diag["thresholds"] = {
                "applicable": True,
                "per_edge": _edge_table(thresholds.thresholds, "threshold"),
            }
        else:
            diag["thresholds"] = {
                "applicable": False,
                "overlapping_edges": list(thresholds.overlap),
            }
    except DisconnectedGraphError:
        diag["thresholds"] = None
        diag["thresholds_note"] = "positive subgraph is disconnected"
    doc["negative_edge_diagnostics"] = diag

    try:
        doc["margin"] = _margin_doc(rb.worst_single_edge(g, tol), g)
    except (NominalInstabilityError, SingularMatrixError, NotApplicableError) as exc:
        doc["margin"] = None
        doc["margin_note"] = str(exc)
    return doc


def _print_edge_rows(table: Table, name: str) -> None:
    """``  edge k: value`` for each row of a per-edge table, in one write."""
    columns = table.columns
    print("\n".join(f"  edge {k}: {v}" for k, v in zip(columns["edge"], map(_fmt, columns[name]))))


def _print_analysis_text(doc: dict) -> None:
    graph = doc["graph"]
    print(f"graph: {graph['nodes']} nodes, {graph['edges']} edges, "
          f"{graph['components']} component(s)")
    print(f"negative edges: {graph['negative_edges'] or 'none'}; "
          f"balanced: {graph['balanced']}")
    stab = doc["stability"]
    sig = stab["signature"]
    print(f"classification: {stab['classification']}")
    print(f"signature: ({sig['n_plus']}, {sig['n_minus']}, {sig['n_zero']})")
    if stab["witness_cut_edges"]:
        print(f"witness cut edges: {stab['witness_cut_edges']}")
    diag = doc["negative_edge_diagnostics"]
    print(f"negative-cut verdict: {diag['cut_verdict']}"
          + (f" (cut edges {diag['cut_edges']})" if diag["cut_edges"] else ""))
    print(f"psd block test: {diag['lmi_psd']}")
    if diag.get("total_resistance_check") is not None:
        print(f"total-resistance necessary check: {diag['total_resistance_check']}")
    elif "total_resistance_note" in diag:
        print(f"total-resistance necessary check: skipped ({diag['total_resistance_note']})")
    thresholds = diag.get("thresholds")
    if thresholds is None:
        print(f"negative-edge thresholds: skipped ({diag.get('thresholds_note', 'n/a')})")
    elif not thresholds["applicable"]:
        print("negative-edge thresholds: not applicable "
              f"(path supports of edges {thresholds['overlapping_edges']} overlap)")
    elif thresholds["per_edge"]:
        print("negative-edge thresholds (|w| must stay below):")
        _print_edge_rows(thresholds["per_edge"], "threshold")
    margin = doc.get("margin")
    if margin is None:
        print(f"margin: unavailable ({doc.get('margin_note', 'n/a')})")
    else:
        _print_margin_text(margin)


def _print_margin_text(margin: dict, sector: dict | None = None) -> None:
    print(f"margin method: {margin['method']}")
    print(f"global margin: {_fmt(margin['global_margin'])}")
    b = margin["binding_edge"]
    if b is not None:
        print(f"binding edge: {b['index']} ({b['u']}, {b['v']}), weight {_fmt(b['weight'])}")
    bounds = margin["bounds"]
    print("bounds: "
          f"1/max_weight={_fmt(bounds['inv_max_weight'])} (reference only), "
          f"max_edge_resistance={_fmt(bounds['max_edge_resistance'])} <= "
          f"sigma_bar_m11={_fmt(bounds['sigma_bar_m11'])} <= "
          f"r_total={_fmt(bounds['r_total'])}")
    per_edge = margin["per_edge"]
    if len(per_edge) > 1:
        print("per-edge margins:")
        _print_edge_rows(per_edge, "margin")
    print(f"note: {margin['note']}")
    if sector is not None:
        print(f"sector verdict: {'stable' if sector['stable'] else 'not certified'} "
              f"(gain_condition={sector['gain_condition']}, "
              f"quadratic_condition={sector['quadratic_condition']}, "
              f"gain_margin={_fmt(sector['gain_margin'])}, "
              f"quadratic_min_eig={_fmt(sector['quadratic_min_eig'])})")


def cmd_analyze(args) -> int:
    g = gr.load_graph(args.graph)
    doc = _analysis_document(g, args.tol)
    if args.json:
        _emit_json(doc)
    else:
        _print_analysis_text(doc)
    unstable = doc["stability"]["classification"] == st.UNSTABLE
    return EXIT_ANALYTIC if unstable else EXIT_OK


# ----------------------------------------------------------------- margin


def _parse_edge_selection(text: str, g: gr.WeightedGraph):
    if text == "all":
        return range(g.edge_count)
    if text.startswith("single:"):
        return (int(text[len("single:"):]),)
    if text.startswith("set:"):
        items = [s for s in text[len("set:"):].split(",") if s]
        if not items:
            raise InputError("--edges set: needs at least one edge index")
        return tuple(int(s) for s in items)
    raise InputError(f"--edges must be 'all', 'single:K', or 'set:I,J,...', got {text!r}")


def cmd_margin(args) -> int:
    g = gr.load_graph(args.graph)
    if not g.edge_count:
        raise NotApplicableError("the graph has no edges, so there is no margin")
    try:
        edges = _parse_edge_selection(args.edges, g)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad --edges value: {exc}") from exc
    spec = rb.UncertaintySpec(edges)
    warning = None
    if args.edges == "all" or len(edges) == 1:
        # on one edge the small-gain margin is the exact margin 1/R_e
        report = rb.small_gain_margin(g, spec, args.tol)
    else:
        try:
            report = rb.disjoint_paths_margin(g, spec, args.tol)
        except NotApplicableError as exc:
            warning = f"{exc}; falling back to the small-gain margin"
            report = rb.small_gain_margin(g, spec, args.tol)

    sector_doc = None
    exit_code = EXIT_OK
    if args.sector is not None:
        try:
            alpha, beta = (float(s) for s in args.sector.split(","))
        except ValueError as exc:
            raise InputError(f"--sector expects 'A,B', got {args.sector!r}") from exc
        result = rb.sector_stability_check(
            g, spec, rb.SectorSpec(tuple((alpha, beta) for _ in spec.uncertain_edges)), args.tol
        )
        sector_doc = {"alpha": alpha, "beta": beta, **asdict(result)}
        if not result.stable:
            exit_code = EXIT_ANALYTIC

    doc = {
        "schema": SCHEMA_VERSION,
        "margin": _margin_doc(report, g),
        "sector": sector_doc,
        "warning": warning,
    }
    if args.json:
        _emit_json(doc)
    else:
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        _print_margin_text(doc["margin"], sector_doc)
    return exit_code


# --------------------------------------------------------------- simulate


def _parse_perturbations(items: list[str]) -> dict[int, float]:
    delta: dict[int, float] = {}
    for item in items:
        try:
            key, val = item.split("=", 1)
            k = int(key)
            d = float(val)
        except ValueError as exc:
            raise InputError(f"--perturb expects 'K=DELTA', got {item!r}") from exc
        delta[k] = delta.get(k, 0.0) + d
    return delta


def _parse_couplings(items: list[str]) -> dict[int, tuple[float, float, float]]:
    out: dict[int, tuple[float, float, float]] = {}
    for item in items:
        try:
            key, val = item.split("=", 1)
            k = int(key)
            a, b, c = (float(s) for s in val.split(","))
        except ValueError as exc:
            raise InputError(f"--nonlinear expects 'K=A,B,C', got {item!r}") from exc
        if k in out:
            raise InputError(f"--nonlinear given twice for edge {k}")
        out[k] = (a, b, c)
    return out


def _parse_x0(text: str):
    """Returns (vector, seed): exactly one is not None."""
    if text.startswith("seed:"):
        try:
            return None, int(text[len("seed:"):])
        except ValueError as exc:
            raise InputError(f"--x0 seed must be an integer, got {text!r}") from exc
    try:
        return [float(s) for s in text.split(",")], None
    except ValueError as exc:
        raise InputError(
            f"--x0 expects comma-separated values or 'seed:N', got {text!r}"
        ) from exc


def _auto_dt(rate: float) -> float:
    return min(0.01, 1.0 / rate) if rate > 0 else 0.01


def _outcome(traj: sim.Trajectory, tol: float = sim.CLUSTER_TOL) -> tuple[str, tuple]:
    if traj.diverged:
        return "diverged", ()
    clusters = sim.detect_clusters(traj.states[-1], tol)
    return ("converged" if len(clusters) == 1 else "clustered"), clusters


def cmd_simulate(args) -> int:
    g = gr.load_graph(args.graph)
    delta = _parse_perturbations(args.perturb)
    couplings = _parse_couplings(args.nonlinear)
    x0_vec, x0_seed = _parse_x0(args.x0)

    if delta:  # the automatic dt and the run read this graph's one spectrum
        g = gr._with_weights(g, sim._perturbed_weights(g, delta))
    edges_sorted = sorted(couplings)
    coupling = sim.NonlinearCoupling(tuple(couplings[k] for k in edges_sorted)) if couplings else None
    dt = args.dt
    if dt is None:  # the integrators run their own step guards
        slope = coupling.slope_bound() if couplings else 0.0
        dt = _auto_dt(float(g._spectrum[0][-1]) + slope)

    config = sim.SimulationConfig(
        duration=args.duration,
        dt=dt,
        initial_state=x0_vec,
        state_seed=x0_seed if x0_seed is not None else 0,
        store_every=args.store_every,
    )
    if couplings:
        traj = sim.simulate_nonlinear(g, edges_sorted, coupling, config)
    else:
        traj = sim.simulate_linear(g, None, config)
    sim.write_trajectory_csv(traj, args.out)

    outcome, clusters = _outcome(traj)
    final_z = float(np.linalg.norm(traj.outputs[-1])) if traj.outputs.size else 0.0
    doc = {
        "schema": SCHEMA_VERSION,
        "outcome": outcome,
        "diverged_at": traj.diverged_at,
        "cluster_count": len(clusters) if clusters else None,
        "clusters": [list(c) for c in clusters] if clusters else None,
        "final_output_norm": final_z,
        "dt": dt,
        "duration": args.duration,
        "csv": args.out,
    }
    if args.json:
        _emit_json(doc)
    else:
        if outcome == "diverged":
            print(f"diverged at t = {_fmt(traj.diverged_at)}")
        elif outcome == "converged":
            print(f"converged (1 cluster); ||z(T)|| = {_fmt(final_z)}")
        else:
            print(f"clustered ({len(clusters)} clusters); ||z(T)|| = {_fmt(final_z)}")
        print(f"trajectory: {args.out} (dt = {_fmt(dt)})")
    return EXIT_ANALYTIC if outcome == "diverged" else EXIT_OK


# -------------------------------------------------------------- repro-sec6

# A boundary run lasts 40 time constants of its slowest decaying mode, so its
# final state lies in L's null space up to e^-40 plus rounding (1e-16 to 1e-14
# measured); this bound on the residual is relative to 1 + ||x(0)||.
_NULL_SPACE_RTOL = 1e-9


def _ends_in_null_space(traj: sim.Trajectory, p: np.ndarray) -> tuple[bool, float]:
    """Whether a run at the exact margin of a non-bridge edge ends as theory says.

    The margin adds one null vector to L, the potential p = L+ b_e of the
    binding edge.  Holds when the final state lies in span{1, p} within
    ``_NULL_SPACE_RTOL`` and z across the edge (the run's one output) has
    settled at a nonzero constant: its final value differs from the one
    halfway through by at most the cluster tolerance and from zero by more.
    Also returns the residual (max-norm distance from that span).
    """
    x = traj.states[-1]
    basis = np.column_stack((np.ones_like(p), p))
    residual = float(np.abs(x - basis @ np.linalg.lstsq(basis, x, rcond=None)[0]).max())
    z = traj.outputs[:, 0]
    settled = abs(z[-1] - z[len(z) // 2]) <= sim.CLUSTER_TOL < abs(z[-1])
    bound = _NULL_SPACE_RTOL * (1.0 + float(np.abs(traj.states[0]).max()))
    return bool(residual <= bound and settled), residual


def _spectral_resistances(g: gr.WeightedGraph) -> np.ndarray:
    """Resistance b_e^T L+ b_e of every edge of a connected graph, from L's spectrum."""
    lam, V = g._spectrum  # the zero mode, V[:, 0], drops out
    return ((V[g.tails, 1:] - V[g.heads, 1:]) ** 2) @ (1.0 / lam[1:])


def _spectral_potential(g: gr.WeightedGraph, u: int, v: int) -> np.ndarray:
    """The potential L+ (e_u - e_v) on a connected graph, from L's spectrum."""
    lam, V = g._spectrum
    return V[:, 1:] @ ((V[u, 1:] - V[v, 1:]) / lam[1:])


def cmd_repro_sec6(args) -> int:
    if args.n < 2:
        raise InputError("repro-sec6 needs at least 2 nodes")
    os.makedirs(args.out, exist_ok=True)
    g = sim.generate_rgg(args.n, args.radius, args.seed)
    gr.save_graph(g, os.path.join(args.out, "graph.json"))

    verdict = st.classify_stability(g)
    worst = rb.worst_single_edge(g)
    k_bind = worst.binding_edge
    u, v, w_bind = g.edges[k_bind]
    margin = worst.global_margin

    # independent argmax: per-edge resistance from L's spectrum, not the kernel
    scan_edge = int(np.argmax(_spectral_resistances(g)))
    binding_matches_scan = scan_edge == k_bind

    lam2, lam_max = map(float, g._spectrum[0][[1, -1]])  # the graph is connected
    dt = _auto_dt(lam_max)
    x0_seed = args.seed + 1
    out_pair = ((u, v),)

    def run(name: str, graph: gr.WeightedGraph, duration: float, triple=None) -> sim.Trajectory:
        """A linear run on ``graph``, or with ``triple`` coupling the binding edge."""
        coupling = sim.NonlinearCoupling((triple,)) if triple else None
        step = _auto_dt(lam_max + coupling.slope_bound()) if triple else dt
        cfg = sim.SimulationConfig(
            duration=duration, dt=step, state_seed=x0_seed, output_edges=out_pair,
            store_every=max(1, int(math.ceil(duration / step / 1000.0))),
        )
        if triple:
            traj = sim.simulate_nonlinear(graph, [k_bind], coupling, cfg)
        else:
            traj = sim.simulate_linear(graph, None, cfg)
        sim.write_trajectory_csv(traj, os.path.join(args.out, name))
        return traj

    # nominal, boundary, beyond-margin linear runs
    t_nominal = max(20.0, 40.0 / lam2)
    traj_nominal = run("nominal.csv", g, t_nominal)

    # the exact margin is a rank-one update: by interlacing exactly one more
    # eigenvalue reaches zero (both of them on a 2-node graph)
    boundary = gr._with_weights(g, sim._perturbed_weights(g, {k_bind: -margin}))
    t_boundary = max(20.0, 40.0 / float(boundary._spectrum[0][2])) if g.node_count > 2 else 60.0
    traj_boundary = run("boundary.csv", boundary, t_boundary)
    clusters = sim.detect_clusters(traj_boundary.states[-1])
    # the extra null vector L+ b_e takes two values only across a bridge
    bridge = gr.path_edge_set(g, u, v) == {k_bind}
    if bridge:
        boundary_key, boundary_ok = "boundary_two_clusters", len(clusters) == 2
    else:
        boundary_key = "boundary_null_space"
        boundary_ok, null_residual = _ends_in_null_space(traj_boundary, _spectral_potential(g, u, v))

    beyond = gr._with_weights(g, sim._perturbed_weights(g, {k_bind: -1.001 * margin}))
    lam_neg = float(beyond._spectrum[0][0])
    t_beyond = 40.0 / abs(lam_neg) if lam_neg < 0 else 2000.0
    traj_beyond = run("beyond.csv", beyond, t_beyond)

    # sector-satisfying coupling: sector [-0.9*margin, 0], strictly certified
    a_s = -0.45 * margin
    b_s = 0.45 * margin
    sector_result = rb.sector_stability_check(
        g, rb.UncertaintySpec((k_bind,)), rb.SectorSpec(((a_s - b_s, a_s + b_s),))
    )
    # destabilizing coupling: asymptotic slope beyond the margin (the classic
    # a=-3 whenever the instance margin allows it)
    a_u = -max(3.0, 1.25 * margin + 1.0)

    traj_nl_stable = run("nonlinear_stable.csv", g, t_nominal, (a_s, b_s, 1.0))
    traj_nl_unstable = run("nonlinear_unstable.csv", g, 400.0, (a_u, 1.0, 1.0))

    nl_stable_converged = (
        not traj_nl_stable.diverged
        and float(np.linalg.norm(traj_nl_stable.outputs[-1])) <= 1e-4
    )
    expectations = {
        "nominal_stable": verdict.classification == st.STABLE and not traj_nominal.diverged,
        "binding_matches_scan": binding_matches_scan,
        boundary_key: boundary_ok,
        "beyond_diverged": traj_beyond.diverged,
        "sector_certified": sector_result.stable,
        "nonlinear_stable_converged": nl_stable_converged,
        "nonlinear_unstable_diverged": traj_nl_unstable.diverged,
    }

    doc = {
        "schema": SCHEMA_VERSION,
        "parameters": {"n": args.n, "radius": args.radius, "seed": args.seed,
                       "state_seed": x0_seed, "dt": dt},
        "graph": {"nodes": g.node_count, "edges": g.edge_count},
        "classification": verdict.classification,
        "binding_edge": {"index": k_bind, "u": u, "v": v, "weight": w_bind,
                         "resistance": 1.0 / margin, "margin": margin},
        "argmax_scan_edge": scan_edge,
        "runs": {
            "nominal": {"duration": t_nominal, "diverged": traj_nominal.diverged,
                        "final_output_norm": float(np.linalg.norm(traj_nominal.outputs[-1]))},
            "boundary": {"duration": t_boundary, "diverged": traj_boundary.diverged,
                         "cluster_count": len(clusters),
                         "cluster_sizes": [len(c) for c in clusters],
                         "final_cut_output": float(traj_boundary.outputs[-1][0])},
            "beyond": {"duration": t_beyond, "diverged": traj_beyond.diverged,
                       "diverged_at": traj_beyond.diverged_at},
            "nonlinear_stable": {
                "coupling": {"a": a_s, "b": b_s, "c": 1.0},
                "sector": [a_s - b_s, a_s + b_s],
                "certified": sector_result.stable,
                "diverged": traj_nl_stable.diverged,
                "final_output_norm": float(np.linalg.norm(traj_nl_stable.outputs[-1])),
            },
            "nonlinear_unstable": {
                "coupling": {"a": a_u, "b": 1.0, "c": 1.0},
                "sector": [a_u - 1.0, a_u + 1.0],
                "diverged": traj_nl_unstable.diverged,
                "diverged_at": traj_nl_unstable.diverged_at,
            },
        },
        "expectations": expectations,
        "files": sorted((
            "graph.json", "report.json", "nominal.csv", "boundary.csv",
            "beyond.csv", "nonlinear_stable.csv", "nonlinear_unstable.csv",
        )),
    }
    if not bridge:
        doc["runs"]["boundary"]["null_space_residual"] = null_residual
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc) + "\n")

    if args.json:
        _emit_json(doc)
    else:
        print(f"graph: n={g.node_count}, edges={g.edge_count} "
              f"(radius={_fmt(args.radius)}, seed={args.seed})")
        print(f"classification: {verdict.classification}")
        print(f"binding edge: {k_bind} ({u}, {v}), weight {_fmt(w_bind)}, "
              f"resistance {_fmt(1.0 / margin)}")
        print(f"margin: {_fmt(margin)}")
        print(f"argmax cross-check: {'agree' if binding_matches_scan else f'DISAGREE (scan says {scan_edge})'}")
        if bridge:
            print(f"boundary run: {len(clusters)} clusters (sizes {[len(c) for c in clusters]}); "
                  f"z across binding edge -> {_fmt(traj_boundary.outputs[-1][0])}")
        else:
            print(f"boundary run (binding edge is no bridge): final state {_fmt(null_residual)} "
                  f"from span{{1, L+ b_e}}; z across binding edge -> "
                  f"{_fmt(traj_boundary.outputs[-1][0])}")
        beyond_at = traj_beyond.diverged_at
        print("beyond run (1.001x margin): "
              + (f"diverged at t = {_fmt(beyond_at)}" if traj_beyond.diverged else "did not diverge"))
        print(f"nonlinear stable (a={_fmt(a_s)}, b={_fmt(b_s)}, c=1): "
              f"certified={sector_result.stable}, "
              + ("converged" if nl_stable_converged else "did not converge")
              + f", ||z(T)|| = {_fmt(float(np.linalg.norm(traj_nl_stable.outputs[-1])))}")
        print(f"nonlinear unstable (a={_fmt(a_u)}, b=1, c=1): "
              + (f"diverged at t = {_fmt(traj_nl_unstable.diverged_at)}"
                 if traj_nl_unstable.diverged else "did not diverge"))
        print(f"expectations: {sum(expectations.values())}/{len(expectations)} hold")
        print(f"outputs in {args.out}/")
    return EXIT_OK if all(expectations.values()) else EXIT_ANALYTIC


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "margin": cmd_margin,
        "simulate": cmd_simulate,
        "repro-sec6": cmd_repro_sec6,
    }
    try:
        return handlers[args.command](args)
    except (GraphFormatError, GraphConstructionError, InputError, StepSizeError,
            GenerationError, OSError) as exc:
        print(f"resistnet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResistNetError as exc:  # any remaining domain error is analytic
        print(f"resistnet: {exc}", file=sys.stderr)
        return EXIT_ANALYTIC


if __name__ == "__main__":
    sys.exit(main())
