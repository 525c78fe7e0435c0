import math

import numpy as np
import pytest

from conftest import random_connected_positive
from resistnet import (
    GraphConstructionError,
    InputError,
    NominalInstabilityError,
    NotApplicableError,
    SectorSpec,
    UncertaintySpec,
    build_graph,
    classify_stability,
    disjoint_paths_margin,
    laplacian,
    m11_at_zero,
    m11_frequency_response,
    resistance_matrix,
    sandwich_bounds,
    sector_stability_check,
    signature_of,
    single_edge_margin,
    single_edge_sector_check,
    small_gain_margin,
    spectral_norm,
    worst_single_edge,
)

TRIANGLE = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
STAR = build_graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])


def all_edges(g):
    return UncertaintySpec(tuple(range(g.edge_count)))


# ------------------------------------------------------------------ specs


def test_uncertainty_spec_validation():
    spec = UncertaintySpec((2, 0, 1))
    assert spec.uncertain_edges == (0, 1, 2)
    with pytest.raises(GraphConstructionError):
        UncertaintySpec(())
    with pytest.raises(GraphConstructionError):
        UncertaintySpec((0, 0))


@pytest.mark.parametrize("edge", [True, np.bool_(False), 0.7, np.float64(1.0)])
def test_uncertainty_spec_edges_must_be_integers(edge):
    # a bool or a float was read as another edge index
    with pytest.raises(GraphConstructionError, match="edges must be integers"):
        UncertaintySpec((edge,))
    with pytest.raises(GraphConstructionError, match="edges must be integers"):
        UncertaintySpec((0, edge))
    assert UncertaintySpec((np.int64(2), 0)).uncertain_edges == (0, 2)


@pytest.mark.parametrize("edge", [True, 1.9, np.float64(1.0)])
def test_single_edge_margin_edge_must_be_an_integer(edge):
    with pytest.raises(GraphConstructionError, match="edges must be integers"):
        single_edge_margin(STAR, edge)
    assert single_edge_margin(STAR, np.int64(1)).global_margin == single_edge_margin(STAR, 1).global_margin


def test_out_of_range_uncertain_edges_are_named():
    # the first edge out of range in ascending order, at either end of the set
    for edges, bad in (((3,), 3), ((0, 7, 4), 4), ((-1, 1), -1), ((-2, 9, 0), -2)):
        for margin in (small_gain_margin, sandwich_bounds):
            with pytest.raises(GraphConstructionError,
                               match=rf"uncertain edge index {bad} out of range for 3 edges"):
                margin(TRIANGLE, UncertaintySpec(edges))
    with pytest.raises(GraphConstructionError, match="index 3 out of range"):
        single_edge_margin(TRIANGLE, 3)


def test_sector_spec_validation():
    s = SectorSpec(((-1.0, 1.0), (0.0, 2.0)))
    assert np.allclose(s.alphas, [-1.0, 0.0])
    assert np.allclose(s.betas, [1.0, 2.0])
    with pytest.raises(GraphConstructionError):
        SectorSpec(((1.0, 1.0),))
    with pytest.raises(GraphConstructionError):
        SectorSpec(((float("inf"), 2.0),))


def test_sector_whose_width_squared_overflows_is_refused():
    """The quadratic condition squares beta - alpha: from about 1.34e154 on
    that square is inf, so such a sector is refused by name."""
    cases = [(((-1e300, 1e300),), 0), (((0.0, 1.0), (0.0, 1.4e154)), 1),
             (((-1e308, 1e308),), 0), (((-0.7e154, 0.7e154),), 0)]
    for sectors, named in cases:
        with pytest.raises(GraphConstructionError, match=rf"sector {named} \(.*width squared"):
            SectorSpec(sectors)
    widest = SectorSpec(((-6e153, 6e153),) * 3)  # width 1.2e154, square 1.44e308
    res = sector_stability_check(TRIANGLE, all_edges(TRIANGLE), widest)  # RuntimeWarnings are errors here
    assert not res.stable and math.isfinite(res.quadratic_min_eig) and math.isfinite(res.proof_form_min_eig)


# ------------------------------------------------------------------- M11


def test_m11_at_zero_equals_resistance_matrix():
    # two independent code paths must agree entrywise
    rng = np.random.default_rng(97)
    for _ in range(60):
        g = random_connected_positive(rng)
        M = m11_at_zero(g, all_edges(g))
        R = resistance_matrix(g, range(g.edge_count))
        assert np.max(np.abs(M - R)) <= 1e-10


def test_m11_requires_nominal_stability():
    unstable = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)])
    with pytest.raises(NominalInstabilityError):
        m11_at_zero(unstable, UncertaintySpec((0,)))
    disconnected = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(NominalInstabilityError):
        m11_at_zero(disconnected, UncertaintySpec((0,)))


def test_m11_frequency_response_limits():
    spec = all_edges(TRIANGLE)
    lo = m11_frequency_response(TRIANGLE, spec, 1e-9)
    assert np.allclose(lo, m11_at_zero(TRIANGLE, spec), atol=1e-6)
    hi = m11_frequency_response(TRIANGLE, spec, 1e6)
    assert spectral_norm(hi) < 1e-5


# ---------------------------------------------------------------- margins


def test_single_edge_margin_triangle():
    rep = single_edge_margin(TRIANGLE, 0)
    assert rep.global_margin == pytest.approx(1.5)
    assert rep.method == "exact_single_edge"
    assert rep.binding_edge == 0
    assert rep.per_edge == {0: pytest.approx(1.5)}


def test_single_edge_margin_is_exact():
    # at -margin the Laplacian turns marginal, beyond it indefinite,
    # short of it strictly stable
    rng = np.random.default_rng(101)
    for _ in range(60):
        g = random_connected_positive(rng)
        e = int(rng.integers(0, g.edge_count))
        margin = single_edge_margin(g, e).global_margin
        u, v, w = g.edges[e]

        def perturbed(delta):
            edges = list(g.edges)
            edges[e] = (u, v, w + delta)
            edges = [t for t in edges if t[2] != 0.0]
            return build_graph(g.node_count, edges)

        n = g.node_count
        assert signature_of(laplacian(perturbed(-margin))).as_tuple() == (n - 2, 0, 2)
        assert signature_of(laplacian(perturbed(-1.001 * margin))).n_minus >= 1
        assert signature_of(laplacian(perturbed(-0.999 * margin))).as_tuple() == (n - 1, 0, 1)


def test_bridge_margin_equals_weight():
    g = build_graph(3, [(0, 1, 2.5), (1, 2, 0.7)])
    assert single_edge_margin(g, 0).global_margin == pytest.approx(2.5)
    assert single_edge_margin(g, 1).global_margin == pytest.approx(0.7)


def test_worst_single_edge_star():
    rep = worst_single_edge(STAR)
    assert rep.method == "exact_single_edge"
    assert rep.per_edge == {
        0: pytest.approx(1.0),
        1: pytest.approx(2.0),
        2: pytest.approx(3.0),
    }
    assert rep.binding_edge == 0
    assert rep.global_margin == pytest.approx(1.0)


@pytest.mark.parametrize("nodes", [1, 3])
def test_worst_single_edge_needs_an_edge(nodes):
    with pytest.raises(NotApplicableError, match="no edges"):
        worst_single_edge(build_graph(nodes, []))


def test_binding_tie_resolves_to_lowest_index():
    rep = worst_single_edge(TRIANGLE)
    assert rep.binding_edge == 0
    assert rep.global_margin == pytest.approx(1.5)
    # a near tie within the relative window binds the lower index too, at its own margin
    star = build_graph(3, [(0, 1, 1.0 + 1e-11), (0, 2, 1.0)])
    rep = worst_single_edge(star)
    assert rep.per_edge[0] > rep.per_edge[1]
    assert (rep.binding_edge, rep.global_margin) == (0, rep.per_edge[0])


def test_small_gain_margin_uniform_promotion():
    g = build_graph(3, [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)])
    rep = small_gain_margin(g, all_edges(g))
    assert rep.method == "uniform_weight"
    assert rep.global_margin == pytest.approx(2.0)


def test_small_gain_margin_certifies_stability():
    # any diagonal perturbation with norm 0.99 * margin keeps L PSD
    rng = np.random.default_rng(103)
    for _ in range(100):
        g = random_connected_positive(rng)
        rep = small_gain_margin(g, all_edges(g))
        delta = rng.uniform(-1.0, 1.0, g.edge_count)
        delta *= 0.99 * rep.global_margin / max(np.abs(delta))
        E_w = g.weights + delta
        edges = [(u, v, float(wk)) for (u, v, _), wk in zip(g.edges, E_w) if wk != 0.0]
        sig = signature_of(laplacian(build_graph(g.node_count, edges)))
        assert sig.n_minus == 0


def test_small_gain_is_conservative_vs_exact():
    rng = np.random.default_rng(107)
    for _ in range(40):
        g = random_connected_positive(rng)
        rep = small_gain_margin(g, all_edges(g))
        exact = worst_single_edge(g)
        assert rep.global_margin <= exact.global_margin + 1e-12


def test_disjoint_paths_margin_two_triangles():
    g = build_graph(
        5,
        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)],
    )
    rep = disjoint_paths_margin(g, UncertaintySpec((0, 5)))
    assert rep.method == "disjoint_paths"
    assert rep.per_edge == {0: pytest.approx(1.5), 5: pytest.approx(1.5)}
    # simultaneous perturbations just inside both margins stay PSD
    edges = list(g.edges)
    for e in (0, 5):
        u, v, w = edges[e]
        edges[e] = (u, v, w - 0.999 * rep.per_edge[e])
    assert signature_of(laplacian(build_graph(5, edges))).n_minus == 0
    # pushing one past its margin breaks PSD
    u, v, w = g.edges[0]
    edges[0] = (u, v, w - 1.001 * rep.per_edge[0])
    assert signature_of(laplacian(build_graph(5, edges))).n_minus >= 1


def test_disjoint_paths_margin_overlap_raises():
    with pytest.raises(NotApplicableError, match="0 and 1"):
        disjoint_paths_margin(TRIANGLE, UncertaintySpec((0, 1)))


def test_disjoint_paths_singleton_promotes():
    rep = disjoint_paths_margin(TRIANGLE, UncertaintySpec((2,)))
    assert rep.method == "exact_single_edge"
    assert rep.global_margin == pytest.approx(1.5)


# ---------------------------------------------------------------- sandwich


def test_sandwich_ordering_always_holds():
    rng = np.random.default_rng(109)
    for _ in range(60):
        g = random_connected_positive(rng)
        b = sandwich_bounds(g, all_edges(g))
        assert b.max_edge_resistance <= b.sigma_bar_m11 + 1e-12
        assert b.sigma_bar_m11 <= b.r_total + 1e-12


def test_sandwich_inv_max_weight_not_a_lower_bound():
    # documented counterexample: unit triangle has 1/max_w = 1 > max R_e = 2/3,
    # so inv_max_weight is reported but never asserted against the others
    b = sandwich_bounds(TRIANGLE, all_edges(TRIANGLE))
    assert b.inv_max_weight == pytest.approx(1.0)
    assert b.max_edge_resistance == pytest.approx(2.0 / 3.0)
    assert b.inv_max_weight > b.max_edge_resistance


# ----------------------------------------------------------------- sector


def test_sector_check_small_beta_passes():
    # sectors [0, 0.1] everywhere: alpha = 0 clears the gain test
    spec = all_edges(TRIANGLE)
    res = sector_stability_check(TRIANGLE, spec, SectorSpec(((0.0, 0.1),) * 3))
    assert res.stable and res.gain_condition and res.quadratic_condition


def test_sector_check_gain_violation():
    # alpha = -2/R_uv = -3 on one edge violates |alpha| < 1/R
    spec = UncertaintySpec((0,))
    res = sector_stability_check(TRIANGLE, spec, SectorSpec(((-3.0, -2.9),)))
    assert not res.stable
    assert not res.gain_condition


def test_sector_check_quadratic_arithmetic_pass():
    # w = 1, width 2: 2*1 + (4 - 4 - 1) = 1 > 0
    spec = UncertaintySpec((0,))
    res = sector_stability_check(TRIANGLE, spec, SectorSpec(((-1.0, 1.0),)))
    assert res.quadratic_condition
    assert res.quadratic_min_eig == pytest.approx(1.0)
    assert res.stable


def test_sector_check_quadratic_arithmetic_fail():
    # w = 0.4, width 2: 0.8 - 1 < 0
    g = build_graph(3, [(0, 1, 0.4), (0, 2, 1.0), (1, 2, 1.0)])
    spec = UncertaintySpec((0,))
    res = sector_stability_check(g, spec, SectorSpec(((-1.0, 1.0),)))
    assert not res.quadratic_condition
    assert res.quadratic_min_eig == pytest.approx(-0.2)
    assert not res.stable


def test_sector_check_proof_form_reported():
    spec = UncertaintySpec((0,))
    res = sector_stability_check(TRIANGLE, spec, SectorSpec(((-1.0, 1.0),)))
    # statement form: 2w + (K^2 - 2K - 1) = 2 + (4 - 4 - 1) = 1
    # proof form:     2w + (-K^2 + 2K - 1) = 2 + (-4 + 4 - 1) = 1
    assert res.proof_form_min_eig == pytest.approx(1.0)
    assert not res.proof_form_disagrees


def test_sector_check_proof_form_disagreement_flagged():
    # width 1 on an edge of weight 0.5: statement form gives 2w + (1-2-1) = -1,
    # proof form gives 2w + (-1+2-1) = 1; verdicts differ and the flag is set
    g = build_graph(3, [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 1.0)])
    res = sector_stability_check(g, UncertaintySpec((0,)), SectorSpec(((-0.5, 0.5),)))
    assert res.gain_condition
    assert not res.quadratic_condition
    assert res.quadratic_min_eig == pytest.approx(-1.0)
    assert res.proof_form_min_eig == pytest.approx(1.0)
    assert res.proof_form_disagrees
    assert not res.stable  # the statement form decides


def test_sector_count_mismatch_rejected():
    with pytest.raises(GraphConstructionError):
        sector_stability_check(TRIANGLE, UncertaintySpec((0, 1)), SectorSpec(((-1.0, 1.0),)))


def test_single_edge_sector_check_examples():
    assert single_edge_sector_check(TRIANGLE, 0, -1.0, 1.0)
    assert not single_edge_sector_check(TRIANGLE, 0, -1.6, 1.0)  # gain fails
    g = build_graph(3, [(0, 1, 0.4), (0, 2, 1.0), (1, 2, 1.0)])
    assert not single_edge_sector_check(g, 0, -1.0, 1.0)  # quadratic fails


def test_single_edge_sector_check_reads_every_edge_weight():
    # the negative edge 2 keeps the statement form's minimum at 2 w_2 = -0.6,
    # off the uncertain edge, so the sector on edge 0 is not certified
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.3)])
    assert classify_stability(g).classification == "stable_agreement"
    res = sector_stability_check(g, UncertaintySpec((0,)), SectorSpec(((-0.1, 0.4),)))
    assert res.gain_condition and not res.quadratic_condition
    assert res.quadratic_min_eig == pytest.approx(-0.6)
    assert single_edge_sector_check(g, 0, -0.1, 0.4) is False


def test_sector_check_requires_nominal_stability():
    unstable = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)])
    with pytest.raises(NominalInstabilityError):
        sector_stability_check(unstable, UncertaintySpec((0,)), SectorSpec(((-0.1, 0.1),)))


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_frequency_response_refuses_a_non_finite_omega(omega):
    # nan gave [[nan+nanj]], and inf the same after a RuntimeWarning
    with pytest.raises(InputError, match=rf"omega must be finite, got {omega!r}"):
        m11_frequency_response(TRIANGLE, UncertaintySpec((0,)), omega)
