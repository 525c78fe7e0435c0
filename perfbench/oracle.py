"""Reference answers computed from an edge list with numpy alone.

Nothing here imports resistnet: every quantity is derived again from the
textbook definitions, so a benchmark check compares the program against an
independent computation, never against stored output.

Edge lists are sequences of ``(u, v, w)`` triples on nodes ``0..n-1``.
"""

from __future__ import annotations

import numpy as np

ZERO_TOL = 1e-9


def laplacian(n, edges):
    """Weighted Laplacian L = sum_e w_e (e_u - e_v)(e_u - e_v)^T."""
    L = np.zeros((n, n))
    for u, v, w in edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def component_labels(n, edges):
    """Label per node (union-find); nodes share a label iff the edges connect them."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    return [find(a) for a in range(n)]


def component_count(n, edges):
    return len(set(component_labels(n, edges)))


def inertia(M, tol=ZERO_TOL):
    """(n_plus, n_minus, n_zero) of a symmetric matrix from ``eigvalsh``."""
    ev = np.linalg.eigvalsh(M)
    cut = tol * max(1.0, float(np.max(np.abs(ev))))
    plus = int(np.sum(ev > cut))
    minus = int(np.sum(ev < -cut))
    return plus, minus, len(ev) - plus - minus


def is_stable(n, edges):
    """Connected with L positive semidefinite and a one-dimensional kernel.

    Decided by a Cholesky factorization of the Laplacian grounded at node 0,
    which succeeds exactly when that matrix is positive definite.  Unlike an
    eigenvalue cut relative to the largest eigenvalue, this does not depend
    on how widely the weights are spread.
    """
    if component_count(n, edges) != 1:
        return False
    try:
        np.linalg.cholesky(laplacian(n, edges)[1:, 1:])
    except np.linalg.LinAlgError:
        return False
    return True


def laplacian_pinv(n, edges):
    """Moore-Penrose pseudoinverse of L for a connected graph.

    When the kernel of L is exactly the constants, L^+ = (L + J/n)^{-1} - J/n
    with J the all-ones matrix.  This avoids deciding which computed
    eigenvalue is "zero", which ``np.linalg.pinv``'s fixed relative cutoff
    gets wrong when rounding lifts the zero eigenvalue above it.
    """
    if component_count(n, edges) != 1:
        raise ValueError("laplacian_pinv needs a connected graph")
    J = np.full((n, n), 1.0 / n)
    return np.linalg.inv(laplacian(n, edges) + J) - J


def pair_columns(n, pairs):
    """n x d matrix whose columns are e_u - e_v."""
    B = np.zeros((n, len(pairs)))
    for j, (u, v) in enumerate(pairs):
        B[u, j] += 1.0
        B[v, j] -= 1.0
    return B


def pair_resistances(Lp, pairs):
    """Effective resistances (e_u - e_v)^T L^+ (e_u - e_v), one per pair."""
    return np.array([Lp[u, u] + Lp[v, v] - 2.0 * Lp[u, v] for u, v in pairs])


def resistance_gram(Lp, pairs):
    """Gram matrix B^T L^+ B of the pairs' probe vectors."""
    B = pair_columns(Lp.shape[0], pairs)
    return B.T @ Lp @ B


def sigma_bar(Lp, pairs):
    """Largest singular value of the resistance Gram over ``pairs``.

    The Gram B^T L^+ B is positive semidefinite and shares its nonzero
    eigenvalues with L^{+1/2} B B^T L^{+1/2}, so the smaller of the two
    matrices is decomposed.
    """
    n, d = Lp.shape[0], len(pairs)
    if d <= n:
        return float(np.linalg.eigvalsh(resistance_gram(Lp, pairs))[-1])
    ev, V = np.linalg.eigh(Lp)
    half = (V * np.sqrt(np.clip(ev, 0.0, None))) @ V.T
    B = pair_columns(n, pairs)
    return float(np.linalg.eigvalsh(half @ (B @ B.T) @ half)[-1])


def scalar_sector_test(weights, edge_set, alpha, beta, sigma, tol=ZERO_TOL):
    """Gain and quadratic conditions of the sector test, edge by edge.

    The gain condition is |alpha| < 1/sigma.  The statement-form matrix
    2W + P(K^2 - 2K - I)P^T is diagonal, so its smallest eigenvalue is its
    smallest diagonal entry: 2 w_e, plus k^2 - 2k - 1 (k = beta - alpha) on
    the sector edges.
    """
    diag = 2.0 * np.asarray(weights, dtype=float)
    k = beta - alpha
    for e in edge_set:
        diag[e] += k * k - 2.0 * k - 1.0
    cut = tol * max(1.0, float(np.max(np.abs(diag))))
    gain = abs(alpha) < 1.0 / sigma
    quad = bool(diag.min() > cut)
    return gain, quad


def linear_solution(L, x0, times):
    """Exact solution V e^{-Lambda t} V^T x0 of xdot = -L x, one row per time."""
    ev, V = np.linalg.eigh(L)
    return (V @ (np.exp(-np.outer(ev, times)) * (V.T @ x0)[:, None])).T


def kernel_projection(L, x0, tol=ZERO_TOL):
    """Projection of x0 onto the null space of L, and L's smallest other eigenvalue."""
    ev, V = np.linalg.eigh(L)
    cut = tol * max(1.0, float(np.max(np.abs(ev))))
    zero = np.abs(ev) <= cut
    K = V[:, zero]
    rest = ev[~zero]
    return K @ (K.T @ x0), int(zero.sum()), float(rest.min()) if rest.size else np.inf


def blocks(n, edges):
    """Biconnected blocks as lists of edge indices (Hopcroft-Tarjan).

    Two edges share a block iff some simple cycle contains both; a bridge is
    a block of its own.  By the fan lemma the edges on simple u-v paths for
    an edge (u, v) are exactly its block, so edges of distinct blocks have
    disjoint path supports.
    """
    adj = [[] for _ in range(n)]
    for k, (u, v, _) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    disc = [-1] * n
    low = [0] * n
    stack, out, clock = [], [], 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        frames = [(root, -1, iter(adj[root]))]
        while frames:
            node, via, it = frames[-1]
            advanced = False
            for nbr, k in it:
                if k == via:
                    continue
                if disc[nbr] < 0:
                    stack.append(k)
                    disc[nbr] = low[nbr] = clock
                    clock += 1
                    frames.append((nbr, k, iter(adj[nbr])))
                    advanced = True
                    break
                if disc[nbr] < disc[node]:
                    stack.append(k)
                    low[node] = min(low[node], disc[nbr])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] >= disc[parent]:
                    block = []
                    while True:
                        k = stack.pop()
                        block.append(k)
                        if k == via:
                            break
                    out.append(sorted(block))
    return out
