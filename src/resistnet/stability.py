"""Stability classification of weighted consensus networks.

The Laplacian L = E W E^T of a connected network with n_zero = 1 and no
negative eigenvalues drives the agreement dynamics xdot = -L x to consensus.
Classification reads the eigenvalues of the graph's cached grounded-Laplacian
pencil (L with one node per component deleted, against its unit-weight copy;
congruent to R W R^T), whose inertia equals L's up to the structural zeros,
cut at tol * max |lambda_i| with no absolute floor; on a positive graph
they lie in [w_min, w_max], so one with w_min > tol * w_max is stable
without them.  Networks with negative weights also get certificates: a cut
criterion, single- and multi-edge magnitude thresholds, a total-resistance
necessary condition and a positive-semidefinite block test (the cut
criterion plus the d x d Schur complement |W_-|^{-1} - R_-), which all read
one resistance Gram R_- from the positive subgraph's cached grounded inverse.
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

# relative slack applied to the total-resistance comparison so the documented
# boundary case (sum exactly equal to the required total) passes at any scale
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
    appended exactly.  The zero threshold tol * max |lambda_i| is applied to
    the eigenvalues of the pencil against the unit-weight grounded Laplacian,
    which do not shrink as the graph grows (on a tree they are the weights),
    so scaling every weight leaves the verdict alone.  The verdict is kept
    on the graph per ``tol``.
    """
    key = ("verdict", tol)
    verdict = g._memo.get(key)
    if verdict is None:
        verdict = g._memo[key] = _classify(g, tol)
    return verdict


def _classify(g: gr.WeightedGraph, tol: float) -> StabilityVerdict:
    """The pencil's eigenvalues lie in [w_min, w_max] on a positive graph, so
    when w_min clears the zero cut tol * w_max the verdict is
    ``stable_agreement`` (n - c, 0, c) without an eigensolve; every other
    graph counts the eigenvalues."""
    w_min, w_max = g._weight_range
    # max |w| is w_max on a positive graph; the dense path checks tol otherwise
    if w_min > 0 and w_min > sp._zero_cut(None, tol, 0.0, scale=w_max):
        count = g._bfs[0]
        return StabilityVerdict(STABLE, sp.Signature(g.node_count - count, 0, count))
    lam = g.grounded_eigvals
    ess = sp._eigval_signature(lam, tol, 0.0)
    sig = sp.Signature(ess.n_plus, ess.n_minus, ess.n_zero + g.node_count - lam.size)
    if sig.n_minus > 0:
        cut_exists, cut_edges = gr.negative_cut_components(g)
        return StabilityVerdict(UNSTABLE, sig, cut_edges if cut_exists else None)
    if ess.n_zero > 0:
        return StabilityVerdict(MARGINAL, sig)
    return StabilityVerdict(STABLE, sig)


def lmi_psd_check(g: gr.WeightedGraph, tol: float = sp.DEFAULT_TOL) -> bool:
    """Block-matrix test equivalent to L(G) being positive semidefinite.

    [[|W_-|^{-1}, E_-^T], [E_-, E_+ W_+ E_+^T]] >= 0 (split by weight sign)
    iff no negative edge joins two components of the positive subgraph and
    the Schur complement |W_-|^{-1} - R_- >= 0, R_- the thresholds'
    resistance Gram; its inertia is read from the d x d I - D R_- D,
    D = |W_-|^{1/2} (d = 1: |w| <= 1/R_uv).  True without negative edges,
    by structure, and False on a negative cut edge, even one whose weight
    ``classify_stability`` counts as a zero below tol * max |lambda|, so the
    two can disagree (ROADMAP item 4).  Raises SingularMatrixError when
    the positive subgraph's pencil is singular, as the resistance Gram does.
    """
    neg = list(gr.signed_partition(g).negative_edges)
    if not neg:
        return True
    if gr.negative_cut_components(g)[0]:
        return False
    D = np.sqrt(np.abs(g.weights[neg]))
    S = np.eye(len(neg)) - D[:, None] * g._negative_resistances * D
    return sp._eigval_signature(np.linalg.eigvalsh(S), tol).n_minus == 0


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
    return 1.0 / float(rs.node_pair_resistance_matrix(g_plus, (e,))[0, 0])


@dataclass(frozen=True)
class MultiEdgeThresholds:
    """Per-negative-edge magnitude thresholds under disjoint path supports.

    ``applicable`` is False when two negative edges' path edge sets (simple
    paths in the positive subgraph between their endpoints) overlap; then
    ``thresholds`` is None and ``overlap`` names an offending pair of edge
    indices.  When applicable, ``thresholds`` maps each negative edge index,
    in ascending order, to 1/R over its endpoints in the positive subgraph, and the network is
    positive semidefinite iff every magnitude is at most its threshold.
    """

    applicable: bool
    thresholds: dict[int, float] | None
    overlap: tuple[int, int] | None = None


def _negative_edges(g: gr.WeightedGraph, caller: str) -> tuple[int, ...]:
    """The negative edges of ``g``; when there are any, its positive
    subgraph must be connected, or ``caller`` raises DisconnectedGraphError."""
    neg = gr.signed_partition(g).negative_edges
    if neg and gr.connected_components(gr.positive_subgraph(g))[0] != 1:
        raise DisconnectedGraphError(f"{caller} requires a connected positive subgraph")
    return neg


def multi_negative_edge_thresholds(g: gr.WeightedGraph) -> MultiEdgeThresholds:
    """Independent magnitude thresholds for several negative edges.

    Requires the positive subgraph to be connected.  Each negative edge's
    path support is the set of blocks on its endpoints' block-cut-tree path
    in the positive subgraph, whose block search runs once per graph, at
    any size; thresholds are only valid when those supports are pairwise
    disjoint.  Blocks partition the edges, so two supports overlap iff they
    share a block, and ``overlap`` names the least such pair.
    """
    neg = _negative_edges(g, "multi_negative_edge_thresholds")
    if not neg:
        return MultiEdgeThresholds(True, {})
    plus = gr.positive_subgraph(g)
    pair = gr._first_overlap(gr._path_blocks(plus, *g.edges[k][:2]) for k in neg)
    if pair is not None:
        return MultiEdgeThresholds(False, None, (neg[pair[0]], neg[pair[1]]))
    diag = np.diag(g._negative_resistances)
    return MultiEdgeThresholds(True, {k: 1.0 / float(r) for k, r in zip(neg, diag)})


def total_resistance_necessary_check(g: gr.WeightedGraph) -> bool:
    """Necessary condition: sum of 1/|w_k| must cover the total resistance.

    Sums 1/|w_k| over the negative edges and compares against the total
    effective resistance (in the positive subgraph) across those edges'
    endpoints.  Failing this check proves L is not positive semidefinite;
    passing proves nothing.  Equality passes.  Requires a connected positive
    subgraph; with no negative edges the check trivially passes.
    """
    neg = _negative_edges(g, "total_resistance_necessary_check")
    if not neg:
        return True
    r_total = float(np.trace(g._negative_resistances))
    capacity = float(np.sum(1.0 / np.abs(g.weights[list(neg)])))
    return capacity >= r_total * (1.0 - _BOUNDARY_SLACK)
