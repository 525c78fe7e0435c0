"""The grounded-Laplacian kernel against the edge form and the pseudoinverse.

Every verdict and margin is read from one cached factorization per graph
(pencil eigenvalues and the grounded inverse); the spanning-forest edge
form (cut Gram R W R^T) and the Laplacian pseudoinverse stay as independent
oracles here.
"""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import random_cactus, random_connected_positive, random_signed, triangle_chain
from resistnet import (
    NotApplicableError,
    SectorSpec,
    SingularMatrixError,
    UncertaintySpec,
    build_graph,
    classify_stability,
    cli,
    disjoint_paths_margin,
    effective_resistance,
    generate_rgg,
    laplacian,
    lmi_psd_check,
    m11_at_zero,
    multi_negative_edge_thresholds,
    negative_cut_verdict,
    node_pair_resistance_matrix,
    pseudoinverse,
    save_graph,
    sector_stability_check,
    signature_of,
    single_edge_margin,
    small_gain_margin,
    spanning_forest,
    spectral_norm,
    total_resistance_necessary_check,
    weighted_cut_matrix,
    worst_single_edge,
)
from resistnet import graph as gr
from resistnet import spectral as sp


def disjoint_union(a, b):
    shift = a.node_count
    edges = list(a.edges) + [(u + shift, v + shift, w) for u, v, w in b.edges]
    return build_graph(a.node_count + b.node_count, edges)


def kernel_graphs(seed):
    """Positive connected, signed connected and disconnected graphs."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(40):
        graphs.append(random_connected_positive(rng))
        graphs.append(random_signed(rng))
        graphs.append(disjoint_union(random_signed(rng, 5), random_connected_positive(rng, 5)))
    graphs.append(build_graph(4, []))
    return graphs


def random_subset(rng, pool, size):
    return tuple(sorted(int(k) for k in rng.choice(pool, size=size, replace=False)))


def connected_stable(g):
    return classify_stability(g).signature.as_tuple() == (g.node_count - 1, 0, 1)


def edge_form_m11(g, edges):
    """P^T R^T (R W R^T)^{-1} R P built from the spanning forest."""
    f = spanning_forest(g)
    RP = f.cut_matrix[:, list(edges)]
    return RP.T @ np.linalg.solve(weighted_cut_matrix(g, f), RP)


def test_signature_matches_cut_gram_plus_components():
    for g in kernel_graphs(301):
        f = spanning_forest(g)
        ess = signature_of(weighted_cut_matrix(g, f))
        expected = (ess.n_plus, ess.n_minus, ess.n_zero + f.component_count)
        assert classify_stability(g).signature.as_tuple() == expected


def test_node_pair_resistances_match_pseudoinverse():
    checked_signed = 0
    for g in kernel_graphs(302):
        _, labels = gr.connected_components(g)
        pairs = [(u, v) for u in range(g.node_count) for v in range(u + 1, g.node_count)
                 if labels[u] == labels[v]]
        if not pairs:
            continue
        M = node_pair_resistance_matrix(g, pairs)
        D = np.zeros((g.node_count, len(pairs)))
        for j, (u, v) in enumerate(pairs):
            D[u, j], D[v, j] = 1.0, -1.0
        ref = D.T @ pseudoinverse(laplacian(g)) @ D
        assert np.allclose(M, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
        checked_signed += bool(np.any(g.weights < 0))
    assert checked_signed >= 40


def test_sigma_bar_matches_edge_form_spectral_norm():
    rng = np.random.default_rng(303)
    checked = 0
    for g in kernel_graphs(303):
        if not connected_stable(g) or g.edge_count < 2:
            continue
        edges = random_subset(rng, g.edge_count, int(rng.integers(2, g.edge_count + 1)))
        for spec in (UncertaintySpec(edges), UncertaintySpec(tuple(range(g.edge_count)))):
            ref = edge_form_m11(g, spec.uncertain_edges)
            report = small_gain_margin(g, spec)
            assert report.bounds.sigma_bar_m11 == pytest.approx(spectral_norm(ref), rel=1e-10)
            assert report.bounds.r_total == pytest.approx(np.trace(ref), rel=1e-10)
            assert np.allclose(m11_at_zero(g, spec), ref, rtol=1e-10, atol=1e-12)
            checked += 1
    assert checked >= 60


def test_singular_at_exact_stability_boundary():
    rng = np.random.default_rng(304)
    for _ in range(30):
        g = random_connected_positive(rng)
        e = int(rng.integers(0, g.edge_count))
        margin = single_edge_margin(g, e).global_margin
        edges = [(u, v, w - margin if k == e else w) for k, (u, v, w) in enumerate(g.edges)]
        if abs(edges[e][2]) < 1e-9:
            continue  # a bridge: the boundary deletes the edge instead
        boundary = build_graph(g.node_count, edges)
        assert classify_stability(boundary).classification == "marginal"
        with pytest.raises(SingularMatrixError):
            node_pair_resistance_matrix(boundary, [(boundary.edges[e][0], boundary.edges[e][1])])


def weak_path(w, n=301):
    """Path 0-1-...-(n-1) whose first edge has weight w and the rest weight 1."""
    return build_graph(n, [(0, 1, w)] + [(i, i + 1, 1.0) for i in range(1, n - 1)])


def weak_bridge(w, n=40):
    """Two seeded n-node geometric graphs joined by one bridge (0, n) of weight w."""
    radius = 1.9 * math.sqrt(math.log(n) / (math.pi * n))
    a, b = generate_rgg(n, radius, seed=1), generate_rgg(n, radius, seed=2)
    edges = list(a.edges) + [(u + n, v + n, x) for u, v, x in b.edges] + [(0, n, w)]
    return build_graph(2 * n, edges)


def edge_form_signature(g):
    f = spanning_forest(g)
    ess = signature_of(weighted_cut_matrix(g, f))
    return (ess.n_plus, ess.n_minus, ess.n_zero + f.component_count)


def test_weak_edge_on_long_path_matches_edge_form():
    """On a tree the kernel's eigenvalues are R W R^T's, the weights, at any length."""
    for w in (1e-6, 1e-7, 1e-8, 1e-11):
        g = weak_path(w)
        lam = g.grounded_eigvals
        assert np.allclose(np.sort(lam), np.sort(g.weights), rtol=1e-4, atol=1e-13)
        assert classify_stability(g).signature.as_tuple() == edge_form_signature(g)
        if w < 1e-9:
            assert classify_stability(g).classification == "marginal"
            with pytest.raises(SingularMatrixError):
                effective_resistance(g, 0, 1)
        else:
            assert classify_stability(g).classification == "stable_agreement"
            assert effective_resistance(g, 0, 1) == pytest.approx(1.0 / w, rel=1e-6)
            assert effective_resistance(g, 0, 300) == pytest.approx(1.0 / w + 299.0, rel=1e-6)


def test_weak_bridge_between_blocks_keeps_its_weight():
    """The kernel's smallest eigenvalue is the bridge weight, whatever the blocks.

    The edge form's zero cut grows with the blocks (R W R^T's largest
    eigenvalue sums chord weights), so it calls the 1e-7 bridge marginal;
    wherever it calls the graph stable, the kernel does too.
    """
    for w in (1e-4, 1e-5, 1e-6, 1e-7):
        g = weak_bridge(w)
        lam = g.grounded_eigvals
        assert lam.min() == pytest.approx(w, rel=1e-5)
        verdict = classify_stability(g)
        assert verdict.classification == "stable_agreement"
        edge_form = edge_form_signature(g)
        assert (edge_form[2] == 1) == (w > 1e-7)
        if edge_form[2] == 1:
            assert verdict.signature.as_tuple() == edge_form
        assert effective_resistance(g, 0, 40) == pytest.approx(1.0 / w, rel=1e-5)


def test_weak_bridge_pseudoinverse_keeps_its_weight():
    """L^+ formed from the component indicators drops no eigenvalue as zero."""
    g = weak_bridge(1e-6)
    assert effective_resistance(g, 0, 40, method="pseudoinverse") == pytest.approx(1e6, rel=1e-6)


# ------------------------------------------------------- sector check


def dense_sector_forms(g, spec, sectors, tol=sp.DEFAULT_TOL):
    """The m x m statement and proof matrices and their eigenvalue verdicts."""
    m, d = g.edge_count, len(spec.uncertain_edges)
    P = np.zeros((m, d))
    P[list(spec.uncertain_edges), range(d)] = 1.0
    K = np.diag(sectors.betas - sectors.alphas)
    W2 = 2.0 * np.diag(g.weights)
    ev_s = np.linalg.eigvalsh(W2 + P @ (K @ K - 2.0 * K - np.eye(d)) @ P.T)
    ev_p = np.linalg.eigvalsh(W2 + P @ (-K @ K + 2.0 * K - np.eye(d)) @ P.T)
    quad = bool(ev_s[0] > tol * max(1.0, float(np.max(np.abs(ev_s)))))
    proof = bool(ev_p[0] > tol * max(1.0, float(np.max(np.abs(ev_p)))))
    gain = float(np.max(np.abs(sectors.alphas))) < 1.0 / spectral_norm(m11_at_zero(g, spec))
    return ev_s, ev_p, gain, quad, proof


def sector_cases(rng):
    """Stable graphs with multi-edge uncertain sets.

    The signed half carries one negative edge outside E_delta (weight
    -(1/R_e - w_e)/2, inside its margin), so the statement form's minimum
    2 w_e sits off the uncertain set and is negative.
    """
    for g in kernel_graphs(305):
        if connected_stable(g) and g.edge_count >= 2:
            yield g, random_subset(rng, g.edge_count, int(rng.integers(2, g.edge_count + 1)))
    for _ in range(30):
        g = random_connected_positive(rng, n_max=9, extra_prob=0.5)
        e = int(rng.integers(0, g.edge_count))
        margin = single_edge_margin(g, e).global_margin
        if margin <= g.edges[e][2] * (1 + 1e-9) or g.edge_count < 3:
            continue  # a bridge cannot carry a stable negative weight
        w_neg = -0.5 * (margin - g.edges[e][2])
        g = build_graph(g.node_count, [(u, v, w_neg if k == e else w)
                                       for k, (u, v, w) in enumerate(g.edges)])
        others = [k for k in range(g.edge_count) if k != e]
        yield g, random_subset(rng, others, int(rng.integers(2, len(others) + 1)))


def test_diagonal_sector_check_matches_dense_eigensolve():
    rng = np.random.default_rng(305)
    outside_min = outside_negative = cases = 0
    for g, edges in sector_cases(rng):
        spec = UncertaintySpec(edges)
        sigma = small_gain_margin(g, spec).bounds.sigma_bar_m11
        size = len(edges)
        for width in (0.3, 1.0, 2.2, 3.5):
            alphas = -rng.choice((0.5, 1.5), size=size) / sigma
            widths = width * rng.uniform(0.8, 1.2, size=size)
            sectors = SectorSpec(tuple(zip(alphas, alphas + widths)))
            ev_s, ev_p, gain, quad, proof = dense_sector_forms(g, spec, sectors)
            result = sector_stability_check(g, spec, sectors)
            assert result.quadratic_min_eig == pytest.approx(ev_s[0], rel=1e-12, abs=1e-14)
            assert result.proof_form_min_eig == pytest.approx(ev_p[0], rel=1e-12, abs=1e-14)
            assert result.gain_condition == gain
            assert result.quadratic_condition == quad
            assert result.stable == (gain and quad)
            assert result.proof_form_disagrees == (proof != quad)
            statement = 2.0 * g.weights
            statement[list(edges)] += widths * widths - 2.0 * widths - 1.0
            if int(np.argmin(statement)) not in edges:
                outside_min += 1
                outside_negative += bool(statement.min() < 0 < statement[list(edges)].min())
            cases += 1
    assert cases >= 150
    assert outside_min >= 20
    assert outside_negative >= 10


# ------------------------------------------------------- hot-path guard


def test_analysis_never_touches_edge_form(monkeypatch, tmp_path, capsys):
    # nor eigenvectors: the kernel needs the pencil's eigenvalues and one inverse
    def forbidden(*args, **kwargs):
        raise AssertionError("edge-form reference or eigenvector solve called on the analysis path")

    for mod, name in ((gr, "spanning_forest"), (gr, "weighted_cut_matrix"),
                      (gr, "forest_left_inverse"), (sp, "spectral_norm"), (np.linalg, "eigh")):
        monkeypatch.setattr(mod, name, forbidden)

    n = 40
    g = generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=5)
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    edge_set = f"set:0,{g.edge_count // 2},{g.edge_count - 1}"
    commands = [
        (["analyze", path, "--json"], {0}),
        (["margin", path, "--json"], {0}),
        (["margin", path, "--edges", "single:3", "--json"], {0}),
        (["margin", path, "--edges", edge_set, "--json"], {0}),
        (["margin", path, "--edges", edge_set, "--sector=-0.1,0.5", "--json"], {0, 2}),
        (["margin", path, "--edges", "all", "--sector=-0.1,0.5", "--json"], {0, 2}),
    ]
    for argv, codes in commands:
        capsys.readouterr()
        assert cli.main(argv) in codes
        json.loads(capsys.readouterr().out)

    rng = np.random.default_rng(306)
    for _ in range(10):
        cactus, blocks = random_cactus(rng)
        cycle = next((b for b in blocks if len(b) > 1), None)
        signed = cactus
        if cycle is not None:
            signed = build_graph(cactus.node_count, [(u, v, -0.05 if k == cycle[0] else w)
                                                     for k, (u, v, w) in enumerate(cactus.edges)])
        for h in (cactus, signed):
            verdict = classify_stability(h)
            lmi_psd_check(h)
            negative_cut_verdict(h)
            multi_negative_edge_thresholds(h)
            total_resistance_necessary_check(h)
            if verdict.classification != "stable_agreement":
                continue
            spec = UncertaintySpec(tuple(b[0] for b in blocks))
            worst_single_edge(h)
            small_gain_margin(h, UncertaintySpec(tuple(range(h.edge_count))))
            single_edge_margin(h, 0)
            try:
                disjoint_paths_margin(h, spec)
            except NotApplicableError:
                pass
            sectors = SectorSpec(tuple((-0.1, 0.4) for _ in spec.uncertain_edges))
            sector_stability_check(h, spec, sectors)


def test_margins_never_form_an_n_by_m_channel():
    """Peak traced memory of the all-edge margins stays below half of one (n-1) x m array."""
    n = 400
    radius = 1.9 * math.sqrt(math.log(n) / (math.pi * n))
    limit = 0.5 * (n - 1) * generate_rgg(n, radius, seed=9).edge_count * 8
    for margin in (worst_single_edge,
                   lambda g: small_gain_margin(g, UncertaintySpec(tuple(range(g.edge_count))))):
        g = generate_rgg(n, radius, seed=9)
        tracemalloc.start()
        try:
            margin(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_analyzed_graphs_are_freed_by_reference_counting():
    """No per-graph cache refers back to its graph, so its n x n arrays go with it."""

    def analyze(g):
        # the same calls on both graphs; edges 0 and 23 lie in distinct blocks
        cli._analysis_document(g, sp.DEFAULT_TOL)
        gr.positive_subgraph(g)
        every_edge = UncertaintySpec(tuple(range(g.edge_count)))
        pair = UncertaintySpec((0, 23))
        worst_single_edge(g)
        small_gain_margin(g, every_edge)
        small_gain_margin(g, pair)
        single_edge_margin(g, 5)
        disjoint_paths_margin(g, pair)
        sector_stability_check(g, pair, SectorSpec(((-0.1, 0.4), (-0.1, 0.4))))
        m11_at_zero(g, every_edge)
        return weakref.ref(g)

    chain = triangle_chain(8)
    signed = build_graph(chain.node_count, [(u, v, -0.3 if k in (0, 23) else w)
                                            for k, (u, v, w) in enumerate(chain.edges)])
    assert classify_stability(signed).classification == "stable_agreement"
    graphs = [chain, signed]
    del chain, signed
    gc.collect()
    gc.disable()
    try:
        while graphs:
            ref = analyze(graphs.pop())
            assert ref() is None
    finally:
        gc.enable()
