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
resistances are its diagonal.  sigma_bar needs no n x m channel: it is
1/lambda_min of the grounded pencil when E_delta is every edge, otherwise
the top eigenvalue of the smaller of the |E_delta|-square Gram and the
(n-1)-square K^T L_delta,g K (K K^T = G_g, L_delta the unit Laplacian of
E_delta).  ``m11_frequency_response`` keeps the forest form above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import graph as gr
from . import resistance as rs
from . import spectral as sp
from . import stability as st
from .errors import GraphConstructionError, NominalInstabilityError, NotApplicableError

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
    """Uncertain edge set E_delta plus a magnitude bound on the perturbation.

    ``uncertain_edges`` holds distinct edge indices (stored sorted);
    ``bound`` is the nonnegative magnitude the perturbations are allowed to
    reach (0 means the set is only being analyzed, not bounded yet).
    """

    uncertain_edges: tuple[int, ...]
    bound: float = 0.0

    def __post_init__(self):
        edges = tuple(sorted(int(k) for k in self.uncertain_edges))
        if not edges:
            raise GraphConstructionError("UncertaintySpec needs at least one uncertain edge")
        if len(set(edges)) != len(edges):
            raise GraphConstructionError("UncertaintySpec edges must be distinct")
        object.__setattr__(self, "uncertain_edges", edges)
        b = float(self.bound)
        if not (math.isfinite(b) and b >= 0):
            raise GraphConstructionError(f"UncertaintySpec bound must be >= 0, got {self.bound!r}")
        object.__setattr__(self, "bound", b)


@dataclass(frozen=True)
class SectorSpec:
    """Sector bounds (alpha_i, beta_i), one pair per uncertain edge.

    Pairs align positionally with the (sorted) edges of the companion
    UncertaintySpec; each sector must satisfy alpha < beta.
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
    ``disjoint_paths``; ``per_edge`` maps each analyzed edge to its
    individual margin, ``binding_edge`` attains the global margin.
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


def _validate_edges(g: gr.WeightedGraph, edges: Sequence[int]) -> None:
    for k in edges:
        if not (0 <= k < g.edge_count):
            raise GraphConstructionError(
                f"uncertain edge index {k} out of range for {g.edge_count} edges"
            )


def _require_nominal_stability(g: gr.WeightedGraph, tol: float) -> None:
    count, _ = gr.connected_components(g)
    verdict = st.classify_stability(g, tol)
    if count != 1 or verdict.classification != st.STABLE:
        raise NominalInstabilityError(
            "robustness analysis requires a connected, nominally stable network; "
            f"got {count} component(s), classification '{verdict.classification}', "
            f"signature {verdict.signature.as_tuple()}"
        )


def _validated_inverse(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float) -> np.ndarray:
    _require_nominal_stability(g, tol)
    _validate_edges(g, spec.uncertain_edges)
    return g.grounded_inverse


def _gains(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float) -> tuple[np.ndarray, float]:
    """Per-edge resistances G_tt + G_hh - 2 G_th and sigma_bar(M11(0)).

    sigma_bar is 1/lam_min when E_delta is every edge (B B^T = L1, so
    M11(0) shares its nonzero spectrum with Lambda^{-1}), the top eigenvalue
    of the |E_delta|-square Gram when |E_delta| <= n - 1, and otherwise that
    of the (n-1)-square K^T L_delta,g K with K K^T = G_g.
    """
    G = _validated_inverse(g, spec, tol)
    k = list(spec.uncertain_edges)
    t, h = g.tails[k], g.heads[k]
    r = G[t, t] - G[t, h] - G[h, t] + G[h, h]
    lam = g.grounded_eigvals
    if len(k) == g.edge_count:
        return r, 1.0 / float(lam[0])
    if len(k) <= lam.size:
        return r, float(np.linalg.eigvalsh(rs._pair_gram(G, t, h))[-1])
    K = np.linalg.cholesky(G[1:, 1:])  # connected: node 0 is the grounded one
    L_delta = gr._laplacian(g.node_count, t, h, np.ones(len(k)))[1:, 1:]
    return r, float(np.linalg.eigvalsh(K.T @ L_delta @ K)[-1])


def m11_at_zero(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> np.ndarray:
    """DC gain M11(0) = P^T R^T (R W R^T)^{-1} R P of the uncertainty channel.

    Equals the effective-resistance Gram matrix over the uncertain edges;
    symmetric and positive semidefinite for nominally stable networks.
    Read from entries of the graph's grounded inverse.
    """
    G = _validated_inverse(g, spec, tol)
    k = list(spec.uncertain_edges)
    return rs._pair_gram(G, g.tails[k], g.heads[k])


def m11_frequency_response(
    g: gr.WeightedGraph,
    spec: UncertaintySpec,
    omega: float,
    tol: float = sp.DEFAULT_TOL,
) -> np.ndarray:
    """M11(j omega) = P^T R^T (j omega I + L_ess)^{-1} L_e(F) R P (complex)."""
    _require_nominal_stability(g, tol)
    _validate_edges(g, spec.uncertain_edges)
    f = gr.spanning_forest(g)
    E = gr.incidence_matrix(g)
    EF = E[:, list(f.forest_edges)]
    Le = EF.T @ EF
    R = f.cut_matrix
    RP = R[:, list(spec.uncertain_edges)]
    ess = Le @ (R * g.weights) @ R.T
    lhs = 1j * omega * np.eye(ess.shape[0]) + ess
    return RP.T @ np.linalg.solve(lhs, Le @ RP)


def _bounds(g: gr.WeightedGraph, spec: UncertaintySpec, r: np.ndarray, sigma: float) -> SandwichBounds:
    return SandwichBounds(
        inv_max_weight=1.0 / float(np.max(g.weights[list(spec.uncertain_edges)])),
        max_edge_resistance=float(np.max(r)),
        sigma_bar_m11=sigma,
        r_total=float(np.sum(r)),
    )


def sandwich_bounds(
    g: gr.WeightedGraph, spec: UncertaintySpec, tol: float = sp.DEFAULT_TOL
) -> SandwichBounds:
    """Cheap bounds around sigma_bar(M11(0)); see SandwichBounds."""
    return _bounds(g, spec, *_gains(g, spec, tol))


def _binding(per_edge: dict[int, float]) -> int:
    best = min(per_edge.values())
    window = best * (1.0 + _TIE_RTOL)
    return min(k for k, v in per_edge.items() if v <= window)


def _report(g: gr.WeightedGraph, spec: UncertaintySpec, tol: float, method: str,
            small_gain: bool) -> MarginReport:
    """Margin report over E_delta; the global margin is 1/sigma_bar when
    ``small_gain`` and the binding edge's exact margin 1/R_e otherwise."""
    r, sigma = _gains(g, spec, tol)
    per_edge = {k: 1.0 / float(x) for k, x in zip(spec.uncertain_edges, r)}
    binding = _binding(per_edge)
    return MarginReport(
        global_margin=1.0 / sigma if small_gain else per_edge[binding],
        method=method,
        per_edge=per_edge,
        binding_edge=binding,
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
        w = g.weights
        if np.all(w > 0) and float(np.max(w) - np.min(w)) <= 1e-12 * float(np.max(np.abs(w))):
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
    return _report(g, UncertaintySpec((int(e),)), tol, "exact_single_edge", False)


def worst_single_edge(g: gr.WeightedGraph, tol: float = sp.DEFAULT_TOL) -> MarginReport:
    """Smallest exact single-edge margin over every edge of the network.

    The binding edge attains min_e 1/R_e (ties resolve to the lowest edge
    index); the report's global margin is exact for perturbations confined
    to that edge and safe for any single-edge perturbation.
    """
    return _report(g, UncertaintySpec(tuple(range(g.edge_count))), tol, "exact_single_edge", False)


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
    _require_nominal_stability(g, tol)
    _validate_edges(g, spec.uncertain_edges)
    block = gr._edge_blocks(g)
    keys = spec.uncertain_edges
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if block[a] == block[b]:
                raise NotApplicableError(
                    f"path supports of uncertain edges {a} and {b} overlap; "
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
    """Scalar sector test on one edge.

    True iff |alpha| < 1/R_uv(G) and (beta-alpha)^2 - 2(beta-alpha) - 1
    > -2 w_uv (both strict).  Consistent with ``sector_stability_check`` on
    a singleton uncertain set.
    """
    if not alpha < beta:
        raise GraphConstructionError(f"sector requires alpha < beta, got ({alpha}, {beta})")
    report = single_edge_margin(g, int(e), tol)
    width = beta - alpha
    w = g.edges[int(e)][2]
    return abs(alpha) < report.global_margin and width * width - 2.0 * width - 1.0 > -2.0 * w
