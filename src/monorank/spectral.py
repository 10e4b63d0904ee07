"""Spectral kernels and sign-matrix constructions.

The spectral norm and the singular spectrum come from numpy's LAPACK SVD.
On top of them sit the Forster sign-rank bound, the recursive Hadamard
family, and the encoding that plants a set of sign vectors inside the
threshold topes of a small integer matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceLimitError
from .signs import SignVectorSet

_HADAMARD_MAX = 20


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value, ``np.linalg.norm(a, 2)`` from LAPACK's SVD.

    forster_bound divides by this norm, so a value below the true norm
    would make that bound unsound; the SVD is backward stable and accurate
    to a few ulps of the norm.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("spectral_norm requires a nonempty matrix")
    return float(np.linalg.norm(a, 2))


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All min(m, n) singular values, descending, from LAPACK's SVD."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("singular_values requires a nonempty matrix")
    return np.linalg.svd(a, compute_uv=False)


def ensure_sign_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate that every entry is exactly +1 or -1."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("sign matrix must be a nonempty 2-d array")
    if not np.all(np.abs(a) == 1.0):
        raise DomainError("sign matrix entries must be exactly +1 or -1")
    return a


def forster_bound(matrix: np.ndarray) -> float:
    """Forster's sign-rank lower bound sqrt(m*n) / ||M|| for a ±1 matrix."""
    a = ensure_sign_matrix(matrix)
    m, n = a.shape
    return math.sqrt(m * n) / spectral_norm(a)


def hadamard(n: int) -> np.ndarray:
    """The 2^n-by-2^n recursive Hadamard matrix (entries ±1, int dtype)."""
    if n < 0:
        raise DomainError("hadamard order must be nonnegative")
    if n > _HADAMARD_MAX:
        raise ResourceLimitError(f"hadamard order {n} exceeds guard {_HADAMARD_MAX}")
    h = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(n):
        h = np.kron(block, h)
    return h


def sign_matrix_with_columns(vectors: SignVectorSet) -> np.ndarray:
    """±1 matrix whose columns are the given zero-free vectors, in canonical
    set order."""
    if not vectors.is_zero_free():
        raise DomainError("sign matrix requires zero-free vectors")
    m = vectors.ground_size
    cols = [[1.0 if v.pos >> i & 1 else -1.0 for i in range(m)] for v in vectors]
    return np.array(cols, dtype=float).T


def sign_matrix_with_rows(vectors: SignVectorSet) -> np.ndarray:
    """±1 matrix whose rows are the given zero-free vectors."""
    return sign_matrix_with_columns(vectors).T


def encode_signs_as_matrix(vectors: SignVectorSet) -> np.ndarray:
    """A generic integer matrix whose threshold topes contain the given
    zero-free vectors.

    Column j realizes vector sigma_j by ordering its rows with all minus
    rows (ascending index) below all plus rows, using values 1..m; the cut
    between the two blocks then reproduces sigma_j.
    """
    if len(vectors) == 0:
        raise DomainError("cannot encode an empty sign-vector set")
    if not vectors.is_zero_free():
        bad = next(v for v in vectors if not v.is_zero_free())
        raise DomainError(f"encoding requires zero-free vectors, got {bad}")
    m = vectors.ground_size
    cols = []
    for v in vectors:
        col = np.empty(m, dtype=float)
        value = 1
        for i in range(m):
            if v.neg >> i & 1:
                col[i] = value
                value += 1
        for i in range(m):
            if v.pos >> i & 1:
                col[i] = value
                value += 1
        cols.append(col)
    return np.column_stack(cols)
