"""Effective resistance through the grounded-Laplacian kernel or the pseudoinverse.

The default reads entries of the graph's cached grounded inverse
G = L_g^{-1} (``WeightedGraph.grounded_inverse``): R_uv = G_uu + G_vv - 2 G_uv.
G is built through the pencil of L_g against its unit-weight copy, which is
congruent to the cut-space matrix R W R^T, so it equals the paper's edge
form x^T (R W R^T)^{-1} x without building the spanning forest
(``graph.spanning_forest`` keeps that form as the reference); the graph's
cached verdict, which cuts the pencil at tol * max |lambda_i| with no
absolute floor, decides singularity.  The pseudoinverse form d^T L(G)^+ d,
with L^+ built from the component indicators, is an independent
cross-check.  Both accept signed weights as long as the required inverse
exists.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import graph as gr
from . import stability as st
from .errors import DisconnectedGraphError, SingularMatrixError

__all__ = [
    "effective_resistance",
    "resistance_matrix",
    "node_pair_resistance_matrix",
    "total_effective_resistance",
]


def node_pair_resistance_matrix(
    g: gr.WeightedGraph, pairs: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Gram matrix of effective resistances over arbitrary node pairs.

    Entry (i, j) is (e_{u_i}-e_{v_i})^T L^+ (e_{u_j}-e_{v_j}), evaluated
    through the grounded-Laplacian kernel.  Every pair must lie inside one
    component; the pairs need not be edges of the graph.  Raises
    SingularMatrixError exactly when ``classify_stability`` counts more
    zeros than components, at the pencil cut tol * max |lambda_i| (default
    tol); on a tree those eigenvalues are R W R^T's, the weights.
    """
    ends = np.array(_connected_pairs(g, pairs, "pair"), dtype=int).reshape(-1, 2)
    return _gram(g, ends[:, 0], ends[:, 1])


def _connected_pairs(g: gr.WeightedGraph, pairs, label: str) -> tuple[tuple[int, int], ...]:
    """The checked node pairs (``graph._indices``), each inside one component."""
    pairs = gr._indices(pairs, label, g.node_count, pairs=True)
    _, labels = gr.connected_components(g)
    for u, v in pairs:
        if labels[u] != labels[v]:
            raise DisconnectedGraphError(
                f"nodes {u} and {v} lie in different components: infinite resistance"
            )
    return pairs


def _gram(g: gr.WeightedGraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Resistance Gram over the node pairs (a_i, b_i), each inside one
    component, unless the verdict finds the pencil singular."""
    sig = st.classify_stability(g).signature
    count, _ = gr.connected_components(g)
    if sig.n_zero > count:
        raise SingularMatrixError(
            "grounded Laplacian (congruent to R W R^T) is numerically singular "
            f"(signature {sig.as_tuple()} on {count} component(s)); "
            "the network sits on a degeneracy of its weights"
        )
    return _pair_gram(g.grounded_inverse, a, b)


def _pair_gram(G: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(e_a - e_b)^T G (e_a - e_b) over pairs, read from entries of G (symmetrized).

    Takes the rows G[a] and G[b] once, then their columns.
    """
    Ga, Gb = G[a], G[b]
    M = Ga[:, a] - Ga[:, b] - Gb[:, a] + Gb[:, b]
    return 0.5 * (M + M.T)


def _laplacian_pinv(g: gr.WeightedGraph) -> np.ndarray:
    """L^+ = (L + N N^T)^{-1} - N N^T, N the unit-norm component indicators.

    L's null space is known by structure, so no eigenvalue is cut: a weak
    bridge keeps its resistance 1/w.
    """
    N = gr.component_indicators(g, normalized=True)
    NN = N @ N.T
    return np.linalg.inv(gr.laplacian(g) + NN) - NN


def effective_resistance(g: gr.WeightedGraph, u: int, v: int, method: str = "edge_form") -> float:
    """Effective resistance between nodes u and v.

    ``method`` is ``"edge_form"`` (default) or ``"pseudoinverse"``.  The
    edge form reads the graph's cached grounded-Laplacian kernel, which is
    congruent to the cut-space matrix R W R^T; the pseudoinverse form builds
    L^+ directly and is the independent cross-check.  The two agree to
    rounding whenever both are defined.  Raises DisconnectedGraphError when
    u and v are in different components and SingularMatrixError when the
    kernel, equivalently R W R^T, is numerically singular.
    """
    (u, v), = _connected_pairs(g, ((u, v),), "effective_resistance pair")
    if method == "edge_form":
        return float(_gram(g, [u], [v])[0, 0])
    if method == "pseudoinverse":
        d = np.zeros(g.node_count)
        d[u], d[v] = 1.0, -1.0
        return float(d @ _laplacian_pinv(g) @ d)
    raise ValueError(f"unknown method {method!r}; expected 'edge_form' or 'pseudoinverse'")


def resistance_matrix(g: gr.WeightedGraph, edge_subset: Iterable[int]) -> np.ndarray:
    """Resistance Gram matrix over a subset of edges (ascending index order).

    Row/column j corresponds to the j-th smallest index in ``edge_subset``;
    diagonal entries are the edges' effective resistances.  Requires a
    connected graph.
    """
    subset = sorted(set(gr._indices(edge_subset, "edge indices", g.edge_count)))
    if gr.connected_components(g)[0] != 1:
        raise DisconnectedGraphError("resistance_matrix requires a connected graph")
    return _gram(g, g.tails[subset], g.heads[subset])


def total_effective_resistance(g: gr.WeightedGraph, edge_subset: Iterable[int]) -> float:
    """Sum of effective resistances across the subset's edges (matrix trace)."""
    return float(np.trace(resistance_matrix(g, edge_subset)))
