"""Symmetric-matrix kernels: inertia signatures, pseudoinverse, spectral norm,
and the triangular inverses and solves the graph pencil is built on.

Zero classification is relative: an eigenvalue counts as zero when
|lambda| <= tol * max(floor, max_i |lambda_i|), with tol defaulting to 1e-9.
The floor is 1 for generic matrices and 0 for graph pencils, whose verdicts
must not depend on the scale of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Signature", "DEFAULT_TOL", "signature_of", "pseudoinverse", "spectral_norm", "is_psd"]

DEFAULT_TOL = 1e-9

# relative asymmetry tolerated before the input is rejected outright
_SYMMETRY_RTOL = 1e-10


def _as_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("matrix has non-finite entries")
    if A.size == 0:
        return A
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > _SYMMETRY_RTOL * scale:
        raise InputError("matrix is not symmetric within 1e-10 relative tolerance")
    return 0.5 * (A + A.T)


def _zero_cut(eigvals: np.ndarray | None, tol: float, floor: float = 1.0,
              scale: float | None = None) -> float:
    """The zero threshold tol * max(floor, max |eigvals|); graph pencils pass
    floor 0, and a caller that knows max |eigvals| passes it as ``scale``
    instead of the values.  Every public ``tol`` is checked here."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be a finite non-negative number, got {tol!r}")
    if scale is None:
        if eigvals.size == 0:
            return tol
        scale = float(np.max(np.abs(eigvals)))
    return tol * max(floor, scale)


@dataclass(frozen=True)
class Signature:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def signature_of(A: np.ndarray, tol: float = DEFAULT_TOL) -> Signature:
    """Counts of positive, negative, and (relative-)zero eigenvalues."""
    A = _as_symmetric(A)
    if A.size == 0:
        return Signature(0, 0, 0)
    return _eigval_signature(np.linalg.eigvalsh(A), tol)


def _eigval_signature(eigvals: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 1.0) -> Signature:
    """Inertia of a symmetric matrix given its eigenvalues."""
    cut = _zero_cut(eigvals, tol, floor)
    n_plus = int(np.sum(eigvals > cut))
    n_minus = int(np.sum(eigvals < -cut))
    return Signature(n_plus, n_minus, eigvals.size - n_plus - n_minus)


def pseudoinverse(A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via eigendecomposition (zeros dropped)."""
    A = _as_symmetric(A)
    if A.size == 0:
        return A.copy()
    eigvals, vecs = np.linalg.eigh(A)
    cut = _zero_cut(eigvals, tol)
    inv = np.where(np.abs(eigvals) > cut, 1.0 / np.where(eigvals == 0, 1.0, eigvals), 0.0)
    P = (vecs * inv) @ vecs.T
    return 0.5 * (P + P.T)


# Triangular factors of at most this many rows are inverted by one
# ``np.linalg.inv`` and solved by one ``np.linalg.solve``; pencils of at most
# this many rows keep that inverse and LU solves.  Larger factors go through
# the recursions of ``_tri_inv`` and ``_tri_solve``.
_TRI_BLOCK = 64
_LOWER = np.tri(_TRI_BLOCK, dtype=bool)


def _tri_inv(C: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular C.

    At most ``_TRI_BLOCK`` rows: ``np.linalg.inv(C)``.  Otherwise C is
    overwritten and returned: its two diagonal halves are inverted in place,
    then X21 = -X22 (C21 X11), the blocked recursion of Du Croz and Higham
    (1992); the products need at most two temporaries of a quarter of C
    each.  A half of at most ``_TRI_BLOCK`` rows keeps only the lower
    triangle of its ``np.linalg.inv``: the row exchanges of that LU can
    leave rounding residue above the diagonal, and cutting it keeps the
    inverse exactly triangular.
    """
    n = len(C)
    if n <= _TRI_BLOCK:
        return np.linalg.inv(C)
    h = n // 2
    for half in (C[:h, :h], C[h:, h:]):
        k = len(half)
        if k > _TRI_BLOCK:
            _tri_inv(half)
        else:
            np.copyto(half, np.linalg.inv(half), where=_LOWER[:k, :k])
    T = C[h:, :h] @ C[:h, :h]
    np.negative(T, out=T)
    C[h:, :h] = C[h:, h:] @ T
    return C


def _cholesky(A: np.ndarray) -> np.ndarray | None:
    """K with A = K K^T; None when A has at most ``_TRI_BLOCK`` rows or is
    not positive definite, where callers solve with A by LU instead."""
    if len(A) <= _TRI_BLOCK:
        return None
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None


def _tri_solve(K: np.ndarray, S: np.ndarray) -> np.ndarray:
    """K^{-1} S for the lower-triangular K, by halves as ``_tri_inv`` inverts
    K: Z1 = K11^{-1} S1, then Z2 = K22^{-1} (S2 - K21 Z1).  Blocks of at most
    ``_TRI_BLOCK`` rows are solved by ``np.linalg.solve``.  For a few
    columns it costs O(n^2) beyond the blocks, against ``_tri_inv``'s
    O(n^3), and agrees with ``_tri_inv(K) @ S`` to rounding.
    """
    n = len(K)
    if n <= _TRI_BLOCK:
        return np.linalg.solve(K, S)
    h = n // 2
    Z1 = _tri_solve(K[:h, :h], S[:h])
    return np.vstack((Z1, _tri_solve(K[h:, h:], S[h:] - K[h:, :h] @ Z1)))


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value; zero for empty matrices."""
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise InputError("matrix has non-finite entries")
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def is_psd(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when no eigenvalue is below the relative zero threshold."""
    return signature_of(A, tol).n_minus == 0
