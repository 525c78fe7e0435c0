import numpy as np
import pytest

import networkx as nx

from conftest import random_connected_positive
from resistnet import (
    DisconnectedGraphError,
    GraphConstructionError,
    SingularMatrixError,
    build_graph,
    effective_resistance,
    node_pair_resistance_matrix,
    resistance_matrix,
    total_effective_resistance,
)

TRIANGLE = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def nx_resistance(g, u, v):
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    for a, b, w in g.edges:
        G.add_edge(a, b, weight=w)
    # weights are conductances, so do not invert them
    return nx.resistance_distance(G, u, v, weight="weight", invert_weight=False)


def test_oracle_self_check():
    # unit triangle: two parallel branches, 1 and 1/2 -> R = 2/3
    assert nx_resistance(TRIANGLE, 0, 1) == pytest.approx(2.0 / 3.0)


def test_triangle_both_methods():
    assert effective_resistance(TRIANGLE, 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert effective_resistance(TRIANGLE, 0, 1, method="pseudoinverse") == pytest.approx(
        2.0 / 3.0, abs=1e-10
    )


def test_series_law_on_paths():
    # path graph: R(0, n-1) = sum of 1/w
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 3.0, n - 1)
        g = build_graph(n, [(i, i + 1, float(w[i])) for i in range(n - 1)])
        assert effective_resistance(g, 0, n - 1) == pytest.approx(float(np.sum(1.0 / w)))


def test_matches_networkx_on_random_graphs():
    rng = np.random.default_rng(59)
    for _ in range(40):
        g = random_connected_positive(rng)
        u = int(rng.integers(0, g.node_count))
        v = int(rng.integers(0, g.node_count))
        if u == v:
            continue
        assert effective_resistance(g, u, v) == pytest.approx(nx_resistance(g, u, v), abs=1e-9)


def test_edge_form_agrees_with_pseudoinverse():
    rng = np.random.default_rng(61)
    for _ in range(40):
        g = random_connected_positive(rng)
        for u, v, _ in g.edges[:3]:
            a = effective_resistance(g, u, v, method="edge_form")
            b = effective_resistance(g, u, v, method="pseudoinverse")
            assert a == pytest.approx(b, abs=1e-9)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        effective_resistance(TRIANGLE, 0, 1, method="guess")


def test_endpoint_validation():
    with pytest.raises(GraphConstructionError):
        effective_resistance(TRIANGLE, 0, 0)
    with pytest.raises(GraphConstructionError):
        effective_resistance(TRIANGLE, 0, 5)


@pytest.mark.parametrize("node", [True, np.bool_(False), 1.5, np.float64(1.0)])
def test_nodes_and_edges_must_be_integers(node):
    # a bool was read as a mask, a float raised numpy's IndexError or was
    # truncated to another index
    for call in (lambda: effective_resistance(TRIANGLE, node, 2),
                 lambda: effective_resistance(TRIANGLE, 0, node, method="pseudoinverse"),
                 lambda: node_pair_resistance_matrix(TRIANGLE, [(0, 1), (node, 2)])):
        with pytest.raises(GraphConstructionError, match="must be integers"):
            call()
    with pytest.raises(GraphConstructionError, match="edge indices must be integers"):
        resistance_matrix(TRIANGLE, [node])
    with pytest.raises(GraphConstructionError, match="edge indices must be integers"):
        total_effective_resistance(TRIANGLE, [0, node])
    assert effective_resistance(TRIANGLE, np.int64(0), 2) == pytest.approx(2.0 / 3.0)
    assert resistance_matrix(TRIANGLE, [np.int64(1)])[0, 0] == pytest.approx(2.0 / 3.0)
    assert node_pair_resistance_matrix(TRIANGLE, [(np.int64(0), 1)])[0, 0] == pytest.approx(2.0 / 3.0)


def test_disconnected_pair_raises():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        effective_resistance(g, 0, 2)
    with pytest.raises(DisconnectedGraphError):
        effective_resistance(g, 0, 2, method="pseudoinverse")
    # pairs inside one component still work
    assert effective_resistance(g, 0, 1) == pytest.approx(1.0)
    M = node_pair_resistance_matrix(g, [(0, 1), (2, 3)])
    assert np.allclose(np.diag(M), [1.0, 1.0])


def test_resistance_matrix_is_psd_and_sorted():
    rng = np.random.default_rng(67)
    for _ in range(20):
        g = random_connected_positive(rng)
        M = resistance_matrix(g, range(g.edge_count))
        assert np.allclose(M, M.T)
        assert np.min(np.linalg.eigvalsh(M)) > -1e-10
        # subset rows follow ascending edge order regardless of input order
        if g.edge_count >= 2:
            M2 = resistance_matrix(g, [1, 0])
            assert M2[0, 0] == pytest.approx(M[0, 0])
            assert M2[1, 1] == pytest.approx(M[1, 1])


def test_resistance_matrix_requires_connected():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        resistance_matrix(g, [0])


def test_total_effective_resistance_triangle():
    assert total_effective_resistance(TRIANGLE, range(3)) == pytest.approx(2.0)


def test_singular_cut_gram_raises():
    # negative edge tuned to the exact stability boundary: R W R^T singular
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)])
    with pytest.raises(SingularMatrixError):
        effective_resistance(g, 0, 1)


def test_signed_weights_supported_when_invertible():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4)])
    a = effective_resistance(g, 0, 1)
    b = effective_resistance(g, 0, 1, method="pseudoinverse")
    assert a == pytest.approx(b, abs=1e-9)
