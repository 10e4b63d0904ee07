"""Spectral kernels and sign-matrix constructions.

The singular spectrum comes from numpy's LAPACK SVD, and the spectral norm
is its first value.  On top of them sit the Forster sign-rank bound, the
recursive (Sylvester) Hadamard family, and the encoding that plants a set
of sign vectors inside the threshold topes of a small integer matrix.

±1 matrices of zero-free vectors are built by _sign_matrix from their
positive masks, which build_report passes directly;
sign_matrix_with_columns and sign_matrix_with_rows are its adapters for a
SignVectorSet.  The public functions check their input; _singular_values
and _forster are the same computations for callers whose arrays are
checked already.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceLimitError
from .matrices import _finite_matrix
from .signs import SignVectorSet, _bits_from_masks, _zero_free_masks

# hadamard(n) holds 4^n int64 entries; the guard keeps it within this budget
_HADAMARD_BYTES = 128 << 20
_HADAMARD_MAX = ((_HADAMARD_BYTES // 8).bit_length() - 1) // 2


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value, the first of singular_values.

    forster_bound divides by this norm, so a value below the true norm
    would make that bound unsound; the SVD is backward stable and accurate
    to a few ulps of the norm.
    """
    return float(singular_values(matrix)[0])


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All min(m, n) singular values, descending, from LAPACK's SVD."""
    return _singular_values(_finite_matrix(matrix))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """singular_values of a float array that passed _finite_matrix."""
    return np.linalg.svd(a, compute_uv=False)


def forster_bound(matrix: np.ndarray) -> float:
    """Forster's sign-rank lower bound sqrt(m*n) / ||M|| for a ±1 matrix."""
    a = _finite_matrix(matrix, "sign matrix")
    if not np.all(np.abs(a) == 1.0):
        raise DomainError("sign matrix entries must be exactly +1 or -1")
    return _forster(a)


def _forster(a: np.ndarray) -> float:
    """forster_bound of a float ±1 array known to be one, such as
    _sign_matrix builds: the same SVD on the same array, so the same
    float."""
    return math.sqrt(a.size) / float(_singular_values(a)[0])


def hadamard(n: int) -> np.ndarray:
    """The 2^n-by-2^n Sylvester Hadamard matrix, int64: n doublings
    H -> [[H, H], [H, -H]] of H = [[1]]."""
    if n < 0:
        raise DomainError("hadamard order must be nonnegative")
    if n > _HADAMARD_MAX:
        raise ResourceLimitError(f"hadamard order {n} exceeds guard {_HADAMARD_MAX}")
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h


def sign_matrix_with_columns(vectors: SignVectorSet) -> np.ndarray:
    """±1 matrix whose columns are the given zero-free vectors, in canonical
    set order.  Adapter onto _sign_matrix."""
    masks = _zero_free_masks(vectors, "sign matrix")
    return _sign_matrix(masks, vectors.ground_size).T


def sign_matrix_with_rows(vectors: SignVectorSet) -> np.ndarray:
    """±1 matrix whose rows are the given zero-free vectors."""
    return sign_matrix_with_columns(vectors).T


def _sign_matrix(masks: list[int], width: int) -> np.ndarray:
    """±1 matrix with one row per positive mask: +1 at its set bits."""
    return np.where(_bits_from_masks(masks, width), 1.0, -1.0)


def encode_signs_as_matrix(vectors: SignVectorSet) -> np.ndarray:
    """A generic integer matrix whose threshold topes contain the given
    zero-free vectors.

    Column j realizes vector sigma_j by ordering its rows with all minus
    rows (ascending index) below all plus rows, using values 1..m; the cut
    between the two blocks then reproduces sigma_j.  A stable argsort of
    sigma_j's 0/1 row gives that order, and its inverse the values.
    """
    if len(vectors) == 0:
        raise DomainError("cannot encode an empty sign-vector set")
    bits = _bits_from_masks(_zero_free_masks(vectors, "encoding"), vectors.ground_size)
    order = np.argsort(bits, axis=1, kind="stable")
    return np.argsort(order, axis=1).T + 1.0
