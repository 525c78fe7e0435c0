"""Stability classification of weighted consensus networks.

The Laplacian L = E W E^T of a connected network with n_zero = 1 and no
negative eigenvalues drives the agreement dynamics xdot = -L x to consensus.
Classification reads the eigenvalues of the graph's cached grounded-Laplacian
pencil (L with one node per component deleted, against its unit-weight copy;
congruent to R W R^T), whose inertia equals L's up to the structural zeros,
plus a set of certificates for networks with negative weights: a
positive-semidefinite block test (true by structure without negative
edges), a cut criterion, single- and multi-edge magnitude thresholds and a
total-resistance necessary condition, which read resistances from the
positive subgraph's cached grounded inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import resistance as rs
from . import spectral as sp
from .errors import DisconnectedGraphError, GraphConstructionError

__all__ = [
    "StabilityVerdict",
    "MultiEdgeThresholds",
    "classify_stability",
    "lmi_psd_check",
    "negative_cut_verdict",
    "single_negative_edge_threshold",
    "multi_negative_edge_thresholds",
    "total_resistance_necessary_check",
]

STABLE = "stable_agreement"
MARGINAL = "marginal"
UNSTABLE = "unstable"

# slack applied to the total-resistance comparison so the documented
# boundary case (sum exactly equal to the required total) passes
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the signature test.

    ``classification`` is ``stable_agreement`` (no negative eigenvalues, only
    the structural zeros, one per component), ``marginal`` (no negative
    eigenvalues but extra zeros), or ``unstable`` (a negative eigenvalue).
    ``signature`` is the full Laplacian inertia; ``witnesses`` carries the
    negative cut edges when that certificate explains instability.
    """

    classification: str
    signature: sp.Signature
    witnesses: tuple[int, ...] | None = None


def classify_stability(g: gr.WeightedGraph, tol: float = sp.DEFAULT_TOL) -> StabilityVerdict:
    """Classify via the inertia of the grounded Laplacian plus the structural zeros.

    Grounding one node per component removes exactly the c structural zero
    eigenvalues, so they never interact with the zero threshold; they are
    appended exactly.  The zero threshold is applied to the eigenvalues of
    the pencil against the unit-weight grounded Laplacian, which do not
    shrink as the graph grows (on a tree they are the weights).
    """
    lam = g.grounded_eigvals
    ess = sp._eigval_signature(lam, tol)
    sig = sp.Signature(ess.n_plus, ess.n_minus, ess.n_zero + g.node_count - lam.size)
    if sig.n_minus > 0:
        cut_exists, cut_edges = gr.negative_cut_components(g)
        return StabilityVerdict(UNSTABLE, sig, cut_edges if cut_exists else None)
    if ess.n_zero > 0:
        return StabilityVerdict(MARGINAL, sig)
    return StabilityVerdict(STABLE, sig)


def lmi_psd_check(g: gr.WeightedGraph, tol: float = sp.DEFAULT_TOL) -> bool:
    """Block-matrix test equivalent to L(G) being positive semidefinite.

    Checks that [[|W_-|^{-1}, E_-^T], [E_-, E_+ W_+ E_+^T]] >= 0, where the
    split is by weight sign.  With no negative edges L = E W E^T >= 0 holds
    by structure, so no eigensolve runs.  Agrees with
    ``classify_stability``'s n_minus == 0 for every signed graph.
    """
    part = gr.signed_partition(g)
    if not part.negative_edges:
        return True
    E = gr.incidence_matrix(g)
    En = E[:, list(part.negative_edges)]
    wn = np.abs(g.weights[list(part.negative_edges)])
    Lp = gr.laplacian(gr.positive_subgraph(g))
    d = len(part.negative_edges)
    n = g.node_count
    M = np.zeros((d + n, d + n))
    M[:d, :d] = np.diag(1.0 / wn)
    M[:d, d:] = En.T
    M[d:, :d] = En
    M[d:, d:] = Lp
    return sp.is_psd(M, tol)


def negative_cut_verdict(g: gr.WeightedGraph) -> str:
    """``indefinite_by_cut`` when negative edges disconnect the positive part.

    Whenever the negative edge set contains a cut of the graph, L is
    indefinite for every magnitude of the negative weights; otherwise this
    certificate alone decides nothing and the verdict is ``inconclusive``.
    """
    cut_exists, _ = gr.negative_cut_components(g)
    return "indefinite_by_cut" if cut_exists else "inconclusive"


def single_negative_edge_threshold(g_plus: gr.WeightedGraph, e: tuple[int, int]) -> float:
    """Largest magnitude a lone negative edge across (u, v) can take.

    ``g_plus`` must be connected with all-positive weights and does not
    contain the candidate edge; attaching weight -mu across (u, v) keeps the
    Laplacian positive semidefinite iff mu <= 1/R_uv(g_plus), with equality
    giving the marginal case.
    """
    if np.any(g_plus.weights <= 0):
        raise GraphConstructionError(
            "single_negative_edge_threshold requires an all-positive base graph"
        )
    count, _ = gr.connected_components(g_plus)
    if count != 1:
        raise DisconnectedGraphError(
            "single_negative_edge_threshold requires a connected base graph "
            "(a disconnecting negative edge is indefinite at any magnitude)"
        )
    u, v = e
    return 1.0 / rs.effective_resistance(g_plus, u, v)


@dataclass(frozen=True)
class MultiEdgeThresholds:
    """Per-negative-edge magnitude thresholds under disjoint path supports.

    ``applicable`` is False when two negative edges' path edge sets (simple
    paths in the positive subgraph between their endpoints) overlap; then
    ``thresholds`` is None and ``overlap`` names an offending pair of edge
    indices.  When applicable, ``thresholds`` maps each negative edge index
    to 1/R over its endpoints in the positive subgraph, and the network is
    positive semidefinite iff every magnitude is at most its threshold.
    """

    applicable: bool
    thresholds: dict[int, float] | None
    overlap: tuple[int, int] | None = None


def multi_negative_edge_thresholds(g: gr.WeightedGraph) -> MultiEdgeThresholds:
    """Independent magnitude thresholds for several negative edges.

    Requires the positive subgraph to be connected.  Each negative edge's
    path support is read from the biconnected blocks of the positive
    subgraph plus that edge, at any size; thresholds are only valid when
    those supports are pairwise disjoint.
    """
    part = gr.signed_partition(g)
    if not part.negative_edges:
        return MultiEdgeThresholds(True, {})
    plus = gr.positive_subgraph(g)
    count, _ = gr.connected_components(plus)
    if count != 1:
        raise DisconnectedGraphError(
            "multi_negative_edge_thresholds requires a connected positive subgraph"
        )
    keys = part.negative_edges
    supports = {k: gr.path_edge_set(plus, g.edges[k][0], g.edges[k][1]) for k in keys}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if supports[a] & supports[b]:
                return MultiEdgeThresholds(False, None, (a, b))
    diag = np.diag(g._negative_resistances)
    thresholds = {k: 1.0 / float(r) for k, r in zip(part.negative_edges, diag)}
    return MultiEdgeThresholds(True, thresholds)


def total_resistance_necessary_check(g: gr.WeightedGraph) -> bool:
    """Necessary condition: sum of 1/|w_k| must cover the total resistance.

    Sums 1/|w_k| over the negative edges and compares against the total
    effective resistance (in the positive subgraph) across those edges'
    endpoints.  Failing this check proves L is not positive semidefinite;
    passing proves nothing.  Equality passes.  Requires a connected positive
    subgraph; with no negative edges the check trivially passes.
    """
    part = gr.signed_partition(g)
    if not part.negative_edges:
        return True
    plus = gr.positive_subgraph(g)
    count, _ = gr.connected_components(plus)
    if count != 1:
        raise DisconnectedGraphError(
            "total_resistance_necessary_check requires a connected positive subgraph"
        )
    r_total = float(np.trace(g._negative_resistances))
    capacity = float(np.sum(1.0 / np.abs(g.weights[list(part.negative_edges)])))
    return capacity >= r_total - _BOUNDARY_SLACK * max(1.0, abs(r_total))
