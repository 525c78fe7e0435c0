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
    InputError,
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
    incidence_matrix,
    lmi_psd_check,
    m11_at_zero,
    m11_frequency_response,
    multi_negative_edge_thresholds,
    negative_cut_verdict,
    node_pair_resistance_matrix,
    pseudoinverse,
    save_graph,
    sector_stability_check,
    signature_of,
    single_edge_margin,
    single_edge_sector_check,
    small_gain_margin,
    spanning_forest,
    spectral_norm,
    total_resistance_necessary_check,
    weighted_cut_matrix,
    worst_single_edge,
)
from resistnet import graph as gr
from resistnet import robustness as rb
from resistnet import spectral as sp
from resistnet import stability as st


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


def test_one_by_one_kernel_is_never_singular():
    # 1.6279741148513789 less its own margin 1/R leaves one ulp-sized weight;
    # the kernel's one eigenvalue is its own scale, so the edge is stable
    g = build_graph(2, [(0, 1, 1.6279741148513789)])
    w = g.weights[0] - single_edge_margin(g, 0).global_margin
    assert w == 2.220446049250313e-16
    ulp = build_graph(2, [(0, 1, w)])
    assert classify_stability(ulp).classification == "stable_agreement"
    assert node_pair_resistance_matrix(ulp, [(0, 1)])[0, 0] == pytest.approx(1.0 / w, rel=1e-12)
    assert effective_resistance(ulp, 0, 1) == pytest.approx(1.0 / w, rel=1e-12)


def test_tiny_weight_beside_a_unit_one_is_marginal_and_singular():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 5e-10)])  # weight ratio 5e-10 <= tol
    assert classify_stability(g).classification == "marginal"
    with pytest.raises(SingularMatrixError):
        effective_resistance(g, 0, 2)


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


# --------------------------------------- structural verdict, column solve


def dense_pencil_verdict(g, tol=sp.DEFAULT_TOL):
    """(classification, signature) from eigvalsh of the grounded pencil
    C^{-1} L_g C^{-T}, built here with each component's smallest node grounded."""
    count, labels = gr.connected_components(g)
    roots = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
    keep = np.ix_(*2 * [np.delete(np.arange(g.node_count), roots)])
    unit = laplacian(build_graph(g.node_count, [(u, v, 1.0) for u, v, _ in g.edges]))
    Ci = np.linalg.inv(np.linalg.cholesky(unit[keep]))
    lam = np.linalg.eigvalsh(Ci @ laplacian(g)[keep] @ Ci.T)
    cut = tol * float(np.abs(lam).max(initial=0.0))
    plus, minus = int(np.sum(lam > cut)), int(np.sum(lam < -cut))
    zero = lam.size - plus - minus
    label = "unstable" if minus else "marginal" if zero else "stable_agreement"
    return label, (plus, minus, zero + count)


def test_positive_verdict_without_eigensolve_matches_dense_pencil():
    """Weights over 12 decades, the smallest one set just above, at or
    below the zero cut tol * w_max; some graphs are disconnected."""
    rng = np.random.default_rng(1717)
    sides = {True: 0, False: 0}
    for i in range(400):
        base = random_connected_positive(rng, n_max=10, extra_prob=0.35)
        keep = [e for e in base.edges if rng.random() > 0.1] or list(base.edges[:1])
        w = 10.0 ** rng.uniform(-6.0, 6.0, len(keep))
        tol = float(rng.choice([sp.DEFAULT_TOL, 1e-6]))
        w[np.argmin(w)] = (0.5, 0.999, 1.0, 1.001, 2.0, 1e3)[i % 6] * tol * w.max()
        g = build_graph(base.node_count, [(u, v, float(x)) for (u, v, _), x in zip(keep, w)])
        verdict = classify_stability(g, tol)
        structural = bool(w.min() > tol * w.max())
        assert ("grounded_eigvals" in g.__dict__) != structural
        assert (verdict.classification, verdict.signature.as_tuple()) == dense_pencil_verdict(g, tol)
        sides[structural] += 1
    assert min(sides.values()) >= 100


def test_verdicts_the_structural_rule_leaves_to_the_eigensolve():
    tiny = build_graph(3, [(0, 1, 1e-11), (0, 2, 1e-11), (1, 2, 1e-11)])  # no absolute floor
    assert classify_stability(tiny).classification == "stable_agreement"
    assert "grounded_eigvals" not in tiny.__dict__
    ill_scaled = build_graph(3, [(0, 1, 1e6), (1, 2, 1e-3)])  # w_min is the cut itself
    assert classify_stability(ill_scaled).classification == "marginal"
    assert "grounded_eigvals" in ill_scaled.__dict__
    with pytest.raises(InputError):
        classify_stability(build_graph(2, []), -1.0)


def scale_free_graphs(rng, count):
    """Signed graphs, some disconnected, with weights over 12 decades; every
    fourth is on an exact stability boundary (a positive graph with one
    non-bridge edge less its own margin, or the triangle whose negative edge
    is at its threshold)."""
    graphs = []
    while len(graphs) < count:
        if len(graphs) % 4 == 0:
            if len(graphs) % 8 == 0:
                graphs.append(build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)]))
                continue
            g = random_connected_positive(rng, n_max=10, extra_prob=0.4)
            w = 10.0 ** rng.uniform(-3.0, 3.0, g.edge_count)
            g = build_graph(g.node_count, [(u, v, float(x)) for (u, v, _), x in zip(g.edges, w)])
            e = int(rng.integers(0, g.edge_count))
            edges = list(g.edges)
            u, v, x = edges[e]
            edges[e] = (u, v, x - single_edge_margin(g, e).global_margin)
            if abs(edges[e][2]) > 1e-9 * x:  # a bridge's boundary deletes it
                graphs.append(build_graph(g.node_count, edges))
            continue
        g = random_signed(rng, n_max=10)
        keep = [e for e in g.edges if rng.random() > 0.1] or list(g.edges[:1])
        graphs.append(build_graph(g.node_count, [(u, v, math.copysign(10.0 ** rng.uniform(-6, 6), x))
                                                 for u, v, x in keep]))
    return graphs


def gate(g):
    """The resistance Gram over the graph's edges, or None where it raises."""
    try:
        return node_pair_resistance_matrix(g, [e[:2] for e in g.edges])
    except SingularMatrixError:
        return None


def test_verdicts_and_resistance_gate_are_scale_free():
    """Scaling every weight by s keeps the signature and the gate, and
    divides R by s: within 1e-9 of max |R|, or kappa * 1e-14 where the
    pencil's condition number kappa amplifies the half-ulp rounding of s * w
    beyond that."""
    rng = np.random.default_rng(1818)
    graphs = scale_free_graphs(rng, 240)
    verdicts = [classify_stability(g) for g in graphs]
    grams = [gate(g) for g in graphs]
    assert sum(v.classification == "marginal" for v in verdicts) >= 40
    assert 40 <= sum(R is None for R in grams) <= 200
    assert any(v.classification == "unstable" for v in verdicts)
    lams = [np.abs(g.grounded_eigvals) for g in graphs]
    kappas = [lam.max() / lam.min() if R is not None else None for lam, R in zip(lams, grams)]
    assert sum(k is not None and k <= 1e5 for k in kappas) >= 50
    for s in (1e-12, 1e-6, 1e6, 1e12):
        for g, verdict, R, kappa in zip(graphs, verdicts, grams, kappas):
            scaled = build_graph(g.node_count, [(u, v, s * w) for u, v, w in g.edges])
            assert classify_stability(scaled) == verdict
            R_s = gate(scaled)
            assert (R_s is None) == (R is None)
            if R is not None:
                assert np.abs(R_s * s - R).max() <= max(1e-9, 1e-14 * kappa) * np.abs(R).max()


def column_and_g_gains(edges, n, spec, tol=sp.DEFAULT_TOL):
    """Gains of ``spec`` through the column solve and through G, on two copies."""
    columns, full = build_graph(n, edges), build_graph(n, edges)
    by_columns = rb._gains(columns, spec, tol)
    assert "grounded_inverse" not in columns.__dict__
    full.grounded_inverse
    return by_columns, rb._gains(full, spec, tol), columns


def test_column_solve_matches_g_and_pseudoinverse():
    rng = np.random.default_rng(2024)
    checked = 0
    for spread in (0.5, 6.0):  # weights over 1 and over 12 decades
        for _ in range(150):
            g = random_connected_positive(rng, n_max=12, extra_prob=0.3)
            w = 10.0 ** rng.uniform(-spread, spread, g.edge_count)
            edges = [(u, v, float(x)) for (u, v, _), x in zip(g.edges, w)]
            size = min(int(rng.integers(1, 4)), g.edge_count)
            spec = UncertaintySpec(tuple(rng.choice(g.edge_count, size, replace=False).tolist()))
            ends = {node for k in spec.uncertain_edges for node in edges[k][:2]}
            if len(spec.uncertain_edges) == g.edge_count or len(ends) >= g.node_count - 1:
                continue  # the all-edge and many-node sets read G
            (r, sigma), (r_g, sigma_g), _ = column_and_g_gains(edges, g.node_count, spec, tol=0.0)
            assert np.allclose(r, r_g, rtol=1e-12, atol=0.0) and sigma == pytest.approx(sigma_g, rel=1e-12)
            if spread < 1.0:
                weighted = build_graph(g.node_count, edges)
                pinv = [effective_resistance(weighted, *edges[k][:2], method="pseudoinverse")
                        for k in spec.uncertain_edges]
                assert np.allclose(r, pinv, rtol=1e-9, atol=0.0)
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("graph, edge, exact", [
    (weak_bridge(1e-6), -1, 1e6),  # the bridge (0, 40)
    (weak_path(1e-8), 0, 1e8),  # the weak end of the 301-node path
])
def test_column_solve_across_weak_links(graph, edge, exact):
    k = edge % graph.edge_count
    spec = UncertaintySpec((k,))
    (r, _), (r_g, _), columns = column_and_g_gains(graph.edges, graph.node_count, spec)
    assert r[0] == pytest.approx(r_g[0], rel=1e-12)
    assert r[0] == pytest.approx(exact, rel=1e-7)
    if graph.node_count == 80:  # L^+ keeps the bridge (the path's is too ill-conditioned)
        pinv = effective_resistance(graph, *graph.edges[k][:2], method="pseudoinverse")
        assert r[0] == pytest.approx(pinv, rel=1e-6)
    assert single_edge_margin(columns, k).global_margin == pytest.approx(1.0 / exact, rel=1e-7)


# ------------------------------------------------- triangular factors


def rgg(n, seed=9):
    return generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=seed)


def star(n):
    """Unit star centred on its last node, so every row of the grounded factor reaches it."""
    return build_graph(n, [(i, n - 1, 1.0) for i in range(n - 1)])


def ground(g):
    """The pencil's grounding: each component's smallest node deleted."""
    count, labels = gr.connected_components(g)
    roots = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
    return np.ix_(*2 * [np.delete(np.arange(g.node_count), roots)])


def lu_route(g):
    """Pencil eigenvalues and G the way they were built before the triangular
    kernel: C^{-1} by ``np.linalg.inv``, G_g = C^{-T} X with A X = C^{-1} by an LU solve."""
    keep = ground(g)
    unit = gr._laplacian(g.node_count, g.tails, g.heads, np.ones(g.edge_count))
    Cinv = np.linalg.inv(np.linalg.cholesky(unit[keep]))
    A = Cinv @ laplacian(g)[keep] @ Cinv.T
    G = np.zeros((g.node_count, g.node_count))
    G[keep] = Cinv.T @ np.linalg.solve(A, Cinv)
    return np.linalg.eigvalsh(A), G


def unit_factor(g):
    """Cholesky factor of the grounded unit-weight Laplacian."""
    return np.linalg.cholesky(gr._laplacian(g.node_count, g.tails, g.heads, np.ones(g.edge_count))[ground(g)])


def pencil_factor(g):
    """K with K K^T = A, the pencil of g reweighted over 6 decades."""
    return np.linalg.cholesky(gr._with_weights(g, np.logspace(-3, 3, g.edge_count))._pencil[1])


@pytest.mark.parametrize("factor", [
    lambda: unit_factor(weak_path(1.0)),  # 300 rows: three levels of halves
    lambda: unit_factor(star(130)),
    *[lambda n=n: unit_factor(rgg(n)) for n in (65, 66, 150, 600)],  # 64, 65 (odd), 149 and 599 rows
    lambda: pencil_factor(rgg(150)),  # weights over 6 decades: its own LU exchanges rows
])
def test_blocked_triangular_inverse_matches_lu_inverse(factor):
    C = factor()
    X = sp._tri_inv(C.copy())
    assert np.abs(X @ C - np.eye(len(C))).max() <= 1e-12
    assert not np.triu(X, 1).any()
    assert np.abs(X - np.linalg.inv(C)).max() <= 1e-12 * np.abs(X).max()


@pytest.mark.parametrize("factor", [
    lambda: unit_factor(rgg(40)),  # 39 rows: one block
    lambda: unit_factor(weak_path(1.0)),
    *[lambda n=n: unit_factor(rgg(n)) for n in (65, 66, 150)],
    lambda: pencil_factor(rgg(150)),
])
@pytest.mark.parametrize("columns", [1, 2, 7])
def test_blocked_triangular_solve_matches_the_inverse(factor, columns):
    C = factor()
    S = np.random.default_rng(columns).standard_normal((len(C), columns))
    Z = sp._tri_solve(C, S)
    assert Z.shape == S.shape
    assert np.abs(C @ Z - S).max() <= 1e-12 * np.abs(S).max()
    assert np.abs(Z - sp._tri_inv(C.copy()) @ S).max() <= 1e-12 * np.abs(Z).max()


def random_positive_graph(rng, n, decades):
    """Random recursive tree on n nodes plus about 2n chords, weights 10^U(-d/2, d/2)."""
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    pairs |= {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, size=(2 * n, 2)).tolist() if u != v}
    w = 10.0 ** rng.uniform(-decades / 2, decades / 2, len(pairs))
    return build_graph(n, [(u, v, float(x)) for (u, v), x in zip(sorted(pairs), w)])


def test_cholesky_route_resistances_match_the_lu_route():
    """Graphs of 65 to 300 grounded rows: relative 1e-10 up to a weight ratio
    of 1e3, and 1e-14 times the ratio beyond it."""
    rng = np.random.default_rng(1919)
    sides = {True: 0, False: 0}
    for i in range(100):
        g = random_positive_graph(rng, int(rng.integers(66, 302)), (1.0, 2.0, 4.0, 6.0)[i % 4])
        assert sp._cholesky(g._pencil[1]) is not None  # A = K K^T: G = M^T M
        G, (_, G_lu) = g.grounded_inverse, lu_route(g)
        assert np.array_equal(G, G.T)
        t, h = g.tails, g.heads
        r = G[t, t] + G[h, h] - 2.0 * G[t, h]
        r_lu = G_lu[t, t] + G_lu[h, h] - 2.0 * G_lu[t, h]
        ratio = g.weights.max() / g.weights.min()
        assert (np.abs(r - r_lu) <= max(1e-10, 1e-14 * ratio) * r_lu).all()
        sides[bool(ratio <= 1e3)] += 1
    assert min(sides.values()) >= 30


def test_signed_pencil_above_the_block_size_takes_the_lu_route(monkeypatch):
    base = rgg(90, seed=3)
    g = gr._with_weights(base, [-50.0] + [w for _, _, w in base.edges[1:]])
    verdict = classify_stability(g)
    assert verdict.classification == "unstable" and verdict.signature.n_zero == 1  # nonsingular
    assert sp._cholesky(g._pencil[1]) is None  # the Cholesky of the indefinite A fails
    solves = []

    def counted(A, b, solve=np.linalg.solve):
        solves.append(np.shape(b))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for u, v in ((0, 1), (0, 89), (17, 64), *[e[:2] for e in g.edges[:3]]):
        r = effective_resistance(g, u, v)
        assert r == pytest.approx(effective_resistance(g, u, v, method="pseudoinverse"), rel=1e-9)
    assert solves == [(89, 89)]  # G, once


def test_pencils_up_to_the_block_size_keep_the_lu_route_bit_for_bit():
    rng = np.random.default_rng(1920)
    wide = rgg(60)
    graphs = kernel_graphs(1920)[:-1] + [rgg(65), disjoint_union(rgg(40), star(25)),
                                         gr._with_weights(wide, 10.0 ** rng.uniform(-3, 3, wide.edge_count))]
    checked = 0
    for g in graphs:
        if classify_stability(g).signature.n_zero != gr.connected_components(g)[0]:
            continue  # a singular pencil has no G
        assert len(g._pencil[1]) <= sp._TRI_BLOCK and sp._cholesky(g._pencil[1]) is None
        lam, G = lu_route(g)
        assert np.array_equal(g.grounded_eigvals, lam) and np.array_equal(g.grounded_inverse, G)
        checked += 1
    assert checked >= 60


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


def test_single_edge_sector_check_is_the_sector_check_on_one_edge():
    rng = np.random.default_rng(310)
    outcomes = []
    for g, _ in sector_cases(rng):
        for _ in range(3):
            e = int(rng.integers(0, g.edge_count))
            alpha = single_edge_margin(g, e).global_margin * float(rng.uniform(-1.3, 1.3))
            beta = alpha + float(rng.uniform(0.05, 3.0))
            spec, sectors = UncertaintySpec((e,)), SectorSpec(((alpha, beta),))
            stable = sector_stability_check(g, spec, sectors).stable
            assert single_edge_sector_check(g, e, alpha, beta) is stable
            outcomes.append(stable)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


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


# ------------------------------------------------- frequency response


def forest_form_m11(g, edges, omega):
    """P^T R^T (j omega I + L_e(F) R W R^T)^{-1} L_e(F) R P from the spanning forest."""
    f = spanning_forest(g)
    EF = incidence_matrix(g)[:, list(f.forest_edges)]
    Le = EF.T @ EF
    RP = f.cut_matrix[:, list(edges)]
    lhs = 1j * omega * np.eye(Le.shape[0]) + Le @ weighted_cut_matrix(g, f)
    return RP.T @ np.linalg.solve(lhs, Le @ RP)


def test_m11_frequency_response_matches_forest_form():
    rng = np.random.default_rng(309)
    checked = signed = 0
    for g, edges in sector_cases(rng):
        for scale in (1e-6, 1.0, 1e6):
            h = build_graph(g.node_count, [(u, v, scale * w) for u, v, w in g.edges])
            for omega in (0.0, 1e-9, 1.0, 1e6):
                ref = forest_form_m11(h, edges, omega)
                got = m11_frequency_response(h, UncertaintySpec(edges), omega)
                assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        checked += 1
        signed += bool(np.any(g.weights < 0))
    assert checked >= 40 and signed >= 5


# ------------------------------------------------------- hot-path guard


def test_analysis_never_touches_edge_form(monkeypatch, tmp_path, capsys):
    # nor eigenvectors: the kernel needs the pencil's eigenvalues and one inverse
    def forbidden(*args, **kwargs):
        raise AssertionError("edge-form reference or eigenvector solve called on the analysis path")

    for mod, name in ((gr, "spanning_forest"), (gr, "weighted_cut_matrix"),
                      (gr, "forest_left_inverse"), (gr, "incidence_matrix"),
                      (sp, "spectral_norm"), (np.linalg, "eigh")):
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
            m11_frequency_response(h, spec, 0.7)
            worst_single_edge(h)
            small_gain_margin(h, UncertaintySpec(tuple(range(h.edge_count))))
            single_edge_margin(h, 0)
            try:
                disjoint_paths_margin(h, spec)
            except NotApplicableError:
                pass
            sectors = SectorSpec(tuple((-0.1, 0.4) for _ in spec.uncertain_edges))
            sector_stability_check(h, spec, sectors)


def analyze_everything(g, tol=sp.DEFAULT_TOL):
    """Every analysis entry point on one graph: the CLI report, the
    negative-edge certificates, path supports and, on a stable graph, the
    five margin functions on the all-edge set, two one-edge sets and a
    two-edge set."""
    cli._analysis_document(g, tol)
    classify_stability(g, tol)
    lmi_psd_check(g, tol)
    negative_cut_verdict(g)
    plus = gr.positive_subgraph(g)
    if gr.connected_components(plus)[0] == 1:
        multi_negative_edge_thresholds(g)
        total_resistance_necessary_check(g)
    gr.path_edge_set(g, 0, g.node_count - 1)
    gr.path_edge_set(plus, 0, g.node_count - 1)
    if classify_stability(g, tol).classification != "stable_agreement":
        return
    pair = UncertaintySpec((0, g.edge_count - 1))
    worst_single_edge(g, tol)
    small_gain_margin(g, UncertaintySpec(tuple(range(g.edge_count))), tol)
    small_gain_margin(g, UncertaintySpec((1,)), tol)
    single_edge_margin(g, 2, tol)
    small_gain_margin(g, pair, tol)
    try:
        disjoint_paths_margin(g, pair, tol)
    except NotApplicableError:
        pass
    sector_stability_check(g, pair, SectorSpec(((-0.1, 0.4), (-0.1, 0.4))), tol)
    m11_at_zero(g, pair, tol)


def guard_graphs():
    """Stable graphs: a chain of 8 unit triangles, the same with edges 0 and
    23 at -0.3 (disjoint supports), and a unit 4-cycle whose two chords are at
    -0.1 (overlapping supports)."""
    chain = triangle_chain(8)
    signed = build_graph(chain.node_count, [(u, v, -0.3 if k in (0, 23) else w)
                                            for k, (u, v, w) in enumerate(chain.edges)])
    chords = build_graph(4, [(0, 1, 1.0), (0, 2, -0.1), (0, 3, 1.0),
                             (1, 2, 1.0), (1, 3, -0.1), (2, 3, 1.0)])
    return [chain, signed, chords]


def count_property(monkeypatch, name):
    """Count computations of a cached ``WeightedGraph`` property, per graph."""
    prop = gr.WeightedGraph.__dict__[name]
    counts = {}

    def counted(g, original=prop.func):
        counts[id(g)] = counts.get(id(g), 0) + 1
        return original(g)

    monkeypatch.setattr(prop, "func", counted)
    return counts


def test_one_pencil_and_one_eigensolve_per_graph(monkeypatch):
    pencils = count_property(monkeypatch, "_pencil")
    eigvals = count_property(monkeypatch, "grounded_eigvals")
    for g in guard_graphs():
        pencils.clear()
        eigvals.clear()
        analyze_everything(g)
        analyze_everything(g)
        plus = gr.positive_subgraph(g)
        expected = {id(g): 1} if plus is g else {id(g): 1, id(plus): 1}
        assert pencils == expected
        # the well-conditioned positive subgraph's weights gate its resistances
        assert eigvals == {id(g): 1}
        assert "_pencil" not in g.__dict__ and "_pencil" not in plus.__dict__  # G exists


def test_one_edge_gain_needs_no_eigensolve(monkeypatch):
    g = triangle_chain(6)
    classify_stability(g)  # the pencil's own eigensolve

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh called for a one-edge uncertain set")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    for k in range(g.edge_count):
        spec = UncertaintySpec((k,))
        single_edge_margin(g, k)
        small_gain_margin(g, spec)
        disjoint_paths_margin(g, spec)
        sector_stability_check(g, spec, SectorSpec(((-0.1, 0.4),)))


def test_single_edge_loop_solves_columns_once_then_builds_g(monkeypatch):
    n = 200
    g = generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=9)
    pencils = count_property(monkeypatch, "_pencil")
    inverses = count_property(monkeypatch, "grounded_inverse")
    eigvals = count_property(monkeypatch, "grounded_eigvals")
    calls = []
    for name in ("solve", "cholesky"):
        def counted(*operands, call=getattr(np.linalg, name), name=name):
            calls.append((name, *map(np.shape, operands)))
            return call(*operands)

        monkeypatch.setattr(np.linalg, name, counted)
    for k in range(g.edge_count):
        single_edge_margin(g, k)
    assert pencils == {id(g): 1} and inverses == {id(g): 1} and eigvals == {}
    # L1_g's factor, then A = K K^T and K^{-1} S_U for edge 0's two columns,
    # solved on K's 49- and 50-row diagonal blocks, then A's factor again
    # for G, which serves every later edge: no LU solve of A runs
    square = (n - 1, n - 1)
    blocks = [("solve", (k, k), (k, 2)) for k in (49, 50, 50, 50)]
    assert calls == [("cholesky", square)] * 2 + blocks + [("cholesky", square)]


def test_single_edge_loop_leaves_g_without_the_pencil():
    n = 200
    g = generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=9)
    for k in range(g.edge_count):
        single_edge_margin(g, k)
    assert "grounded_inverse" in g.__dict__ and "_pencil" not in g.__dict__
    worst_single_edge(g)  # reads the eigenvalues after G
    assert "grounded_eigvals" in g.__dict__ and "_pencil" not in g.__dict__


def test_one_signature_per_graph_and_tol(monkeypatch):
    calls = []
    original = st._classify
    monkeypatch.setattr(st, "_classify", lambda g, tol: calls.append(tol) or original(g, tol))
    g = triangle_chain(6)
    pair = UncertaintySpec((0, 17))
    for tol in (sp.DEFAULT_TOL, 1e-6, sp.DEFAULT_TOL, 1e-6):
        worst_single_edge(g, tol)
        small_gain_margin(g, pair, tol)
        single_edge_margin(g, 3, tol)
        disjoint_paths_margin(g, pair, tol)
        sector_stability_check(g, pair, SectorSpec(((-0.1, 0.4), (-0.1, 0.4))), tol)
    assert calls == [sp.DEFAULT_TOL, 1e-6]


@pytest.mark.parametrize("d", [1, 10, 40])
def test_one_block_search_per_positive_subgraph(monkeypatch, d):
    calls = []
    original = gr._edge_blocks
    monkeypatch.setattr(gr, "_edge_blocks", lambda g: calls.append(g) or original(g))
    chain = triangle_chain(40)
    g = build_graph(chain.node_count, [(u, v, -0.2 if k % 3 == 0 and k < 3 * d else w)
                                       for k, (u, v, w) in enumerate(chain.edges)])
    for _ in range(2):
        res = multi_negative_edge_thresholds(g)
        assert res.applicable and len(res.thresholds) == d
    assert calls == [gr.positive_subgraph(g)]


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
    caches = {"tails", "heads", "weights", "_weight_range", "_adj", "_bfs", "_blocks", "_block_tree",
              "_signs", "_memo", "grounded_eigvals", "grounded_inverse"}
    signed_caches = {"_positive", "_negative_resistances"}

    def analyze(g):
        # every analysis at two zero thresholds, so each cache is filled
        analyze_everything(g)
        analyze_everything(g, 1e-6)
        plus = gr.positive_subgraph(g)
        if plus is g:
            assert caches <= set(g.__dict__)
        else:
            assert caches | signed_caches <= set(g.__dict__)
            assert {"_adj", "_bfs", "_blocks", "_block_tree", "grounded_inverse"} <= set(plus.__dict__)
            assert "grounded_eigvals" not in plus.__dict__  # its weights decide its verdict
        assert "_pencil" not in g.__dict__
        memo_keys = {key[0] for key in g._memo}
        assert memo_keys == {"verdict", "gains"}
        return weakref.ref(g), weakref.ref(plus)

    graphs = guard_graphs()
    assert [classify_stability(g).classification for g in graphs] == ["stable_agreement"] * 3
    gc.collect()
    gc.disable()
    try:
        while graphs:
            refs = analyze(graphs.pop())
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
