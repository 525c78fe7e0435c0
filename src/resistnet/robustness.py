"""Robustness margins for additive weight uncertainty on selected edges.

For a nominally stable network (connected, L positive semidefinite with a
single zero eigenvalue), additive perturbations on an uncertain edge set
E_delta enter the agreement dynamics through the transfer matrix

    M11(s) = P^T R^T (s I + L_ess)^{-1} L_e(F) R P,

whose H-infinity norm is attained at s = 0, where M11(0) equals the
effective-resistance Gram matrix over the uncertain edges.  The small-gain
margin is 1/sigma_max(M11(0)); for a single uncertain edge the margin
1/R_uv(G) is exact, and for negative edges with pairwise-disjoint path
supports the per-edge margins are exact as well.  Sector-bounded nonlinear
couplings are certified by a gain condition plus a quadratic condition on
the sector widths.

Margins read the graph's cached grounded inverse G = L_g^{-1}: M11(0) is
the resistance Gram over E_delta read from entries of G, and the per-edge
resistances are its diagonal.  A few-edge set needs only G's rows and
columns at its endpoints, so the graph's first such request solves the
pencil for those columns alone, on G's route but without its triangular
inverse, and G is built on the next.  sigma_bar needs no n x m channel:
it is 1/lambda_min of the grounded pencil when E_delta is every edge,
otherwise the top eigenvalue of the smaller of the |E_delta|-square Gram
and the (n-1)-square K^T L_delta,g K (K K^T = G_g, L_delta the unit
Laplacian of E_delta).  ``m11_frequency_response`` reads the channel in
node form; the forest form above is its tested reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import graph as gr
from . import resistance as rs
from . import spectral as sp
from . import stability as st
from .errors import GraphConstructionError, InputError, NominalInstabilityError, NotApplicableError

__all__ = [
    "UncertaintySpec",
    "SectorSpec",
    "SandwichBounds",
    "MarginReport",
    "SectorCheckResult",
    "m11_at_zero",
    "m11_frequency_response",
    "small_gain_margin",
    "single_edge_margin",
    "worst_single_edge",
    "disjoint_paths_margin",
    "sandwich_bounds",
    "sector_stability_check",
    "single_edge_sector_check",
]

# relative window for treating per-edge margins as tied (lowest index wins)
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class UncertaintySpec:
    """Uncertain edge set E_delta: distinct integer edge indices, stored sorted."""

    uncertain_edges: tuple[int, ...]

    def __post_init__(self):
        edges = gr._indices(self.uncertain_edges, "UncertaintySpec edges", distinct=True)
        if not edges:
            raise GraphConstructionError("UncertaintySpec needs at least one uncertain edge")
        object.__setattr__(self, "uncertain_edges", edges)


@dataclass(frozen=True)
class SectorSpec:
    """Sector bounds (alpha_i, beta_i), one pair per uncertain edge.

    Pairs align positionally with the (sorted) edges of the companion
    UncertaintySpec; each sector must satisfy alpha < beta, with a width
    beta - alpha whose square is finite (below about 1.34e154), since the
    quadratic condition squares it.
    """

    sectors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for i, pair in enumerate(self.sectors):
            a, b = float(pair[0]), float(pair[1])
            if not (math.isfinite(a) and math.isfinite(b)):
                raise GraphConstructionError(f"sector {i}: bounds must be finite")
            if not a < b:
                raise GraphConstructionError(f"sector {i}: alpha={a} must be < beta={b}")
            if not math.isfinite((b - a) * (b - a)):
                raise GraphConstructionError(
                    f"sector {i} ({a}, {b}): its width squared is beyond the float range"
                )
            cleaned.append((a, b))
        object.__setattr__(self, "sectors", tuple(cleaned))

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for a, _ in self.sectors])

    @property
    def betas(self) -> np.ndarray:
        return np.array([b for _, b in self.sectors])


class SandwichBounds(NamedTuple):
    """Ordered bounds around the uncertainty-channel gain.

    ``max_edge_resistance <= sigma_bar_m11 <= r_total`` always holds;
    ``inv_max_weight`` (1/max nominal weight over the uncertain edges) is
    reported for reference only, since it can exceed ``max_edge_resistance``
    (unit triangle: 1 > 2/3).
    """

    inv_max_weight: float
    max_edge_resistance: float
    sigma_bar_m11: float
    r_total: float


@dataclass(frozen=True)
class MarginReport:
    """Stability margin for a class of weight perturbations.

    ``global_margin`` is the certified magnitude bound; perturbations with
    every |delta_e| strictly below it preserve stability (the margin itself
    is the marginal boundary in the exact methods).  ``method`` is one of
    ``exact_single_edge``, ``small_gain``, ``uniform_weight``, or
    ``disjoint_paths``; ``per_edge`` maps each analyzed edge, in ascending
    order, to its individual margin, ``binding_edge`` attains the global
    margin.
    """

    global_margin: float
    method: str
    per_edge: dict[int, float]
    binding_edge: int | None
    bounds: SandwichBounds


@dataclass(frozen=True)
class SectorCheckResult:
    """Outcome and per-condition detail of the sector stability test.

    ``stable`` requires both the gain condition (max |alpha| strictly below
    1/sigma_bar(M11(0))) and the quadratic condition (statement form
    2 W + P (K^2 - 2K - I) P^T positive definite, K = K2 - K1).  The proof
    form 2 W + P (-K^2 + 2K - I) P^T is evaluated alongside and flagged when
    it disagrees with the statement form.
    """

    stable: bool
    gain_condition: bool
    quadratic_condition: bool
    sigma_bar_m11: float
    max_abs_alpha: float
    gain_margin: float
    quadratic_min_eig: float
    proof_form_min_eig: float
    proof_form_disagrees: bool


def _validate_edges(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float) -> None:
    """Require a connected, nominally stable network, then the spec's edges
    in range.  They are ascending, so only its ends can be out of range;
    the error names the first edge that is."""
    count, _ = gr.connected_components(g)
    verdict = st.classify_stability(g, tol)
    if count != 1 or verdict.classification != st.STABLE:
        raise NominalInstabilityError(
            "robustness analysis requires a connected, nominally stable network; "
            f"got {count} component(s), classification '{verdict.classification}', "
            f"signature {verdict.signature.as_tuple()}"
        )
    edges, m = spec.uncertain_edges, g.edge_count
    if edges[0] < 0 or edges[-1] >= m:
        k = edges[0] if edges[0] < 0 else next(k for k in edges if k >= m)
        raise GraphConstructionError(f"uncertain edge index {k} out of range for {m} edges")


def _gains(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float) -> tuple[np.ndarray, float]:
    """Per-edge resistances G_tt + G_hh - 2 G_th (read-only) and sigma_bar(M11(0)).

    Kept on the graph per uncertain-edge set and ``tol``, so the margins
    and the sector check on one set share them.  sigma_bar is 1/lam_min when
    E_delta is every edge (B B^T = L1, so M11(0) shares its nonzero spectrum
    with Lambda^{-1}), the edge's resistance when E_delta is one edge, the
    top eigenvalue of the |E_delta|-square Gram when |E_delta| <= n - 1,
    and otherwise that of the (n-1)-square K^T L_delta,g K with K K^T = G_g.
    Only the all-edge set reads the pencil's eigenvalues, before G, which
    drops the pencil when it is built; sets of at most n - 1 edges read G
    through ``WeightedGraph._inverse_at``, which may solve for their
    endpoints alone.
    """
    key = ("gains", spec.uncertain_edges, tol)
    gains = g._memo.get(key)
    if gains is None:
        gains = g._memo[key] = _compute_gains(g, spec, tol)
    return gains


def _edge_index(g: gr.WeightedGraph, spec: UncertaintySpec) -> slice | np.ndarray:
    """Index of the spec's edges into the graph's edge arrays: every edge
    (distinct and in range) is the whole array, read without a gather."""
    edges = spec.uncertain_edges
    return slice(None) if len(edges) == g.edge_count else np.array(edges)


def _compute_gains(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float) -> tuple[np.ndarray, float]:
    _validate_edges(g, spec, tol)
    k = _edge_index(g, spec)
    t, h = g.tails[k], g.heads[k]
    every = t.size == g.edge_count
    few = not every and t.size < g.node_count  # at most n - c edges (connected: c = 1)
    if every:
        lam_min = float(g.grounded_eigvals[0])  # before G, which drops the pencil
    G, a, b = g._inverse_at(t, h) if few else (g.grounded_inverse, t, h)
    r = G[a, a] - G[a, b] - G[b, a] + G[b, b]
    r.flags.writeable = False
    if every:
        return r, 1.0 / lam_min
    if r.size == 1:
        return r, float(r[0])  # the 1 x 1 Gram is r itself
    if few:
        return r, float(np.linalg.eigvalsh(rs._pair_gram(G, a, b))[-1])
    K = np.linalg.cholesky(G[1:, 1:])  # connected: node 0 is the grounded one
    L_delta = gr._laplacian(g.node_count, t, h, np.ones(r.size))[1:, 1:]
    return r, float(np.linalg.eigvalsh(K.T @ L_delta @ K)[-1])


def m11_at_zero(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> np.ndarray:
    """DC gain M11(0) = P^T R^T (R W R^T)^{-1} R P of the uncertainty channel.

    Equals the effective-resistance Gram matrix over the uncertain edges;
    symmetric and positive semidefinite for nominally stable networks.
    Read from entries of the graph's grounded inverse.
    """
    _validate_edges(g, spec, tol)
    k = list(spec.uncertain_edges)
    return rs._pair_gram(g.grounded_inverse, g.tails[k], g.heads[k])


def m11_frequency_response(
    g: gr.WeightedGraph,
    spec: UncertaintySpec,
    omega: float,
    tol: float = sp.DEFAULT_TOL,
) -> np.ndarray:
    """M11(j omega) = E_delta^T (j omega I + L + c 1 1^T / n)^{-1} E_delta (complex).

    E_delta holds the uncertain edges' incidence columns, which sum to
    zero, so the rank-one term changes nothing on them and keeps omega = 0
    (the resistance Gram ``m11_at_zero``) solvable: one n x n solve.  Its
    eigenvalue c = tr(L)/n sits at L's scale, so any weight scale solves
    as accurately.  Raises InputError unless ``omega`` is finite.
    """
    if not math.isfinite(omega):
        raise InputError(f"omega must be finite, got {omega!r}")
    _validate_edges(g, spec, tol)
    n, k = g.node_count, list(spec.uncertain_edges)
    cols = np.arange(len(k))
    E = np.zeros((n, len(k)))
    E[g.tails[k], cols] = 1.0
    E[g.heads[k], cols] = -1.0
    L = gr.laplacian(g)
    A = L + L.trace() / n**2 + 1j * omega * np.eye(n)
    return E.T @ np.linalg.solve(A, E)


def _bounds(g: gr.WeightedGraph, spec: UncertaintySpec, r: np.ndarray, sigma: float) -> SandwichBounds:
    return SandwichBounds(
        inv_max_weight=1.0 / float(g.weights[_edge_index(g, spec)].max()),
        max_edge_resistance=float(r.max()),
        sigma_bar_m11=sigma,
        r_total=float(r.sum()),
    )


def sandwich_bounds(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> SandwichBounds:
    """Cheap bounds around sigma_bar(M11(0)); see SandwichBounds."""
    return _bounds(g, spec, *_gains(g, spec, tol))


def _report(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float, method: str,
            small_gain: bool) -> MarginReport:
    """Margin report over E_delta; the global margin is 1/sigma_bar when
    ``small_gain`` and the binding edge's exact margin 1/R_e otherwise.

    The margins 1/R_e are one array division, bit-equal to ``1.0 / float(R_e)``
    per edge (IEEE division rounds correctly either way).  The binding edge
    is the first within the tie window of the smallest margin: the edges are
    ascending, so that is the lowest index.
    """
    r, sigma = _gains(g, spec, tol)
    margins = 1.0 / r
    at = int(np.argmax(margins <= margins.min() * (1.0 + _TIE_RTOL)))
    per_edge = dict(zip(spec.uncertain_edges, margins.tolist()))
    return MarginReport(
        global_margin=1.0 / sigma if small_gain else float(margins[at]),
        method=method,
        per_edge=per_edge,
        binding_edge=spec.uncertain_edges[at],
        bounds=_bounds(g, spec, r, sigma),
    )


def small_gain_margin(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> MarginReport:
    """Margin 1/sigma_bar(M11(0)) for simultaneous perturbations on E_delta.

    Any diagonal perturbation with every magnitude strictly below the global
    margin preserves stability.  ``per_edge`` reports the exact single-edge
    margins 1/R_e for reference.  The method label is promoted to
    ``exact_single_edge`` for a singleton set and to ``uniform_weight`` when
    E_delta covers all edges of a uniform-weight network (margin equals the
    common weight exactly).
    """
    method = "small_gain"
    if len(spec.uncertain_edges) == 1:
        method = "exact_single_edge"
    elif len(spec.uncertain_edges) == g.edge_count:
        w_min, w_max = g._weight_range  # max |w| is w_max when every weight is positive
        if w_min > 0 and w_max - w_min <= 1e-12 * w_max:
            method = "uniform_weight"
    return _report(g, spec, tol, method, small_gain=True)


def single_edge_margin(
    g: gr.WeightedGraph, e: int, tol: float = sp.DEFAULT_TOL
) -> MarginReport:
    """Exact margin 1/R_uv(G) for a perturbation confined to edge ``e``.

    Perturbing the edge by exactly -margin makes the network marginal and
    anything beyond indefinite; for a bridge the margin equals the edge
    weight itself.
    """
    return _report(g, UncertaintySpec((e,)), tol, "exact_single_edge", False)


def worst_single_edge(g: gr.WeightedGraph, tol: float = sp.DEFAULT_TOL) -> MarginReport:
    """Smallest exact single-edge margin over every edge of the network.

    The binding edge attains min_e 1/R_e (ties resolve to the lowest edge
    index); the report's global margin is exact for perturbations confined
    to that edge and safe for any single-edge perturbation.  Raises
    NotApplicableError on a graph without edges.
    """
    if not g.edge_count:
        raise NotApplicableError("the graph has no edges, so there is no single-edge margin")
    return _report(g, UncertaintySpec(range(g.edge_count)), tol, "exact_single_edge", False)


def disjoint_paths_margin(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> MarginReport:
    """Exact per-edge margins when uncertain edges have disjoint path supports.

    Each uncertain edge (u, v) gets margin 1/R_uv(G); the margins hold
    simultaneously when the sets of edges on simple u-v paths are pairwise
    disjoint, that is, when the uncertain edges lie in distinct biconnected
    blocks (an edge's path support is its own block), at any size.  Raises
    NotApplicableError naming the first pair that shares a block (fall back
    to ``small_gain_margin``).  A singleton set reduces to the single-edge
    margin.
    """
    _validate_edges(g, spec, tol)
    block, _, _ = g._blocks
    keys = spec.uncertain_edges
    pair = gr._first_overlap([block[k]] for k in keys)
    if pair is not None:
        raise NotApplicableError(
            f"path supports of uncertain edges {keys[pair[0]]} and {keys[pair[1]]} overlap; "
            "the disjoint-paths margin does not apply (use small_gain_margin)"
        )
    return _report(g, spec, tol, "exact_single_edge" if len(keys) == 1 else "disjoint_paths", False)


def sector_stability_check(
    g: gr.WeightedGraph,
    spec: UncertaintySpec,
    sectors: SectorSpec,
    tol: float = sp.DEFAULT_TOL,
) -> SectorCheckResult:
    """Certify sector-bounded nonlinear couplings on the uncertain edges.

    Stability holds when max_i |alpha_i| < 1/sigma_bar(M11(0)) and the
    statement-form quadratic matrix 2 W + P (K^2 - 2K - I) P^T is positive
    definite (strictly, above the relative zero threshold).  Both conditions
    are sufficient, not necessary.
    """
    if len(sectors.sectors) != len(spec.uncertain_edges):
        raise GraphConstructionError(
            f"need one sector per uncertain edge: got {len(sectors.sectors)} sectors "
            f"for {len(spec.uncertain_edges)} edges"
        )
    _, sigma = _gains(g, spec, tol)
    max_abs_alpha = float(np.max(np.abs(sectors.alphas)))
    gain_ok = max_abs_alpha < 1.0 / sigma

    # 2W + P(...)P^T is diagonal: 2 w_e off E_delta, shifted by a function
    # of the sector width k on it, so its eigenvalues are its diagonal
    k = sectors.betas - sectors.alphas
    edges = list(spec.uncertain_edges)
    ev_statement, ev_proof = 2.0 * g.weights, 2.0 * g.weights
    ev_statement[edges] += k * k - 2.0 * k - 1.0
    ev_proof[edges] += -k * k + 2.0 * k - 1.0
    quad_ok = bool(ev_statement.min() > sp._zero_cut(ev_statement, tol))
    proof_ok = bool(ev_proof.min() > sp._zero_cut(ev_proof, tol))
    return SectorCheckResult(
        stable=bool(gain_ok and quad_ok),
        gain_condition=bool(gain_ok),
        quadratic_condition=quad_ok,
        sigma_bar_m11=sigma,
        max_abs_alpha=max_abs_alpha,
        gain_margin=1.0 / sigma - max_abs_alpha,
        quadratic_min_eig=float(ev_statement.min()),
        proof_form_min_eig=float(ev_proof.min()),
        proof_form_disagrees=proof_ok != quad_ok,
    )


def single_edge_sector_check(
    g: gr.WeightedGraph,
    e: int,
    alpha: float,
    beta: float,
    tol: float = sp.DEFAULT_TOL,
) -> bool:
    """``sector_stability_check`` on the one uncertain edge ``e``.

    True iff |alpha| < 1/R_uv(G) and the quadratic condition holds with
    the sector (alpha, beta) on edge ``e`` and every other edge at its
    nominal weight, above the relative zero threshold.  Raises
    GraphConstructionError unless alpha < beta.
    """
    sectors = SectorSpec(((alpha, beta),))
    return sector_stability_check(g, UncertaintySpec((e,)), sectors, tol).stable
