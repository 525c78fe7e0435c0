"""Hand-computed cases for the benchmark's oracle and input families.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import inputs
import oracle

TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
K4 = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]


def test_unit_triangle_resistance_is_two_thirds():
    Lp = oracle.laplacian_pinv(3, TRIANGLE)
    R = oracle.pair_resistances(Lp, [(0, 1), (1, 2), (0, 2)])
    assert np.allclose(R, 2.0 / 3.0)


def test_bridge_margin_equals_its_weight():
    # unit triangle with a pendant edge of weight 3: the bridge's R is 1/3
    edges = TRIANGLE + [(2, 3, 3.0)]
    R = oracle.pair_resistances(oracle.laplacian_pinv(4, edges), [(2, 3)])
    assert 1.0 / R[0] == pytest.approx(3.0)


@pytest.mark.parametrize("n, edges", [(3, TRIANGLE), (4, K4)])
def test_sigma_bar_of_unit_complete_graph_is_one(n, edges):
    # L = nI - J, so E^T L^+ E = E^T E / n, whose nonzero eigenvalues are n / n
    Lp = oracle.laplacian_pinv(n, edges)
    assert oracle.sigma_bar(Lp, [(u, v) for u, v, _ in edges]) == pytest.approx(1.0)


def test_sigma_bar_routes_agree():
    # more pairs than nodes goes through the n x n matrix; compare with the Gram itself
    rng = np.random.default_rng(0)
    edges = inputs.rgg(rng, 20)
    Lp = oracle.laplacian_pinv(20, edges)
    pairs = [(u, v) for u, v, _ in edges]
    direct = np.linalg.eigvalsh(oracle.resistance_gram(Lp, pairs))[-1]
    assert len(pairs) > 20
    assert oracle.sigma_bar(Lp, pairs) == pytest.approx(direct, rel=1e-10)


def test_inertia_counts():
    assert oracle.inertia(np.diag([2.0, -1.0, 0.0])) == (1, 1, 1)


def test_single_negative_edge_threshold_on_a_triangle():
    # positive part is a two-edge unit path (R = 2), so |w| must stay below 1/2
    assert oracle.is_stable(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.4)])
    assert not oracle.is_stable(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.6)])
    assert not oracle.is_stable(4, TRIANGLE)  # node 3 is isolated


def test_stability_does_not_depend_on_weight_spread():
    assert oracle.is_stable(3, [(0, 1, 1e6), (1, 2, 1e-3)])
    assert all(oracle.is_stable(t["n"], t["edges"]) for t in inputs.ILL_SCALED)


def test_scalar_sector_test():
    # k = 1: diagonal 2w - 2 on the sector edge, so w = 1.5 passes and w = 0.9 does not
    assert oracle.scalar_sector_test([1.5, 1.0], [0], -0.2, 0.8, sigma=1.0) == (True, True)
    assert oracle.scalar_sector_test([0.9, 1.0], [0], -0.2, 0.8, sigma=1.0) == (True, False)
    assert oracle.scalar_sector_test([1.5, 1.0], [0], -1.2, -0.2, sigma=1.0)[0] is False


def test_two_node_linear_solution():
    L = oracle.laplacian(2, [(0, 1, 1.0)])
    x = oracle.linear_solution(L, np.array([1.0, -1.0]), [0.0, 0.5])
    assert np.allclose(x, [[1.0, -1.0], [np.exp(-1.0), -np.exp(-1.0)]])


def test_kernel_projection_is_component_means():
    L = oracle.laplacian(4, [(0, 1, 1.0), (2, 3, 2.0)])
    proj, dim, slowest = oracle.kernel_projection(L, np.array([1.0, 3.0, 0.0, 4.0]))
    assert dim == 2 and slowest == pytest.approx(2.0)
    assert np.allclose(proj, [2.0, 2.0, 2.0, 2.0])


def test_blocks_split_at_cut_nodes():
    edges = TRIANGLE + [(2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    assert sorted(oracle.blocks(6, edges)) == [[0, 1, 2], [3], [4, 5, 6]]


def test_small_families_have_their_intended_verdicts():
    rng = np.random.default_rng(5)
    for template in inputs.SMALL_TEMPLATES:
        spec = inputs.small_signed_graph(rng, template)
        n, edges = spec["n"], spec["edges"]
        family, _, extra = template
        assert 6 <= n <= 14 and len(edges) <= 20
        assert oracle.component_count(n, edges) == 1
        plus = [e for e in edges if e[2] > 0]
        assert (oracle.component_count(n, plus) > 1) == (family == "negative_cut")
        want = {"positive": True, "negative_cut": False}.get(family, extra in (0.5, "stable"))
        assert oracle.is_stable(n, edges) == want
        if family != "negative_cut":
            assert sorted(map(sorted, oracle.blocks(n, edges))) == sorted(spec["blocks"])


def test_rgg_edge_count_is_fixed():
    rng = np.random.default_rng(3)
    for n in (50, 75):
        edges = inputs.rgg(rng, n)
        assert len(edges) == inputs.rgg_edge_count(n)
        assert oracle.component_count(n, edges) == 1
        assert all(1.0 <= w <= inputs.RGG_WEIGHT_CAP for _, _, w in edges)
