"""Threshold and difference topes: the two sign-vector encodings of a
matrix's column orders.

Threshold topes record which rows sit above each cut through a column;
difference topes record the row-vs-row comparison outcome across columns.
Both are negation-closed, zero-free, and invariant under strictly
increasing per-column distortion.

Both are built by a numpy kernel (_threshold_masks, _difference_masks)
that returns the sorted positive masks of the tope set; build_report
works on these masks directly.  threshold_topes and difference_topes
are its adapters from a matrix to a SignVectorSet.  The kernels pack
their 0/1 rows with np.packbits and read them with the signs module's
decoder, which holds the word-size rule.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GenericityError, _shown
from .matrices import _finite_matrix, _float, _integer, _require_generic
from .signs import (
    SignVector,
    SignVectorSet,
    _decode,
    _masks_from_bits,
    _negation_closure,
    _zero_free_set,
)


def _one_based(index: int, size: int, what: str) -> int:
    """The 0-based position of a 1-based index, an int that must lie in
    [1..size]: numpy would read 0 as the last entry."""
    if not 1 <= index <= size:
        raise IndexError(f"{what} {_shown(index)} outside [1..{size}]")
    return index - 1


def threshold_vector(matrix: np.ndarray, column: int, theta: float) -> SignVector:
    """The cut vector of one column: sign(a_ij - theta) over rows i.

    `column` is 1-based.  The threshold is any real number that misses
    every entry, ±inf included; one that is not real or past the float
    range, or NaN, which compares false with every entry, is a DomainError.
    """
    cut = _float(theta, "threshold")
    if np.isnan(cut):
        raise DomainError("threshold must not be NaN")
    a = _finite_matrix(matrix)
    column = _integer(column, "column")
    col = a[:, _one_based(column, a.shape[1], "column")]
    if np.any(col == cut):
        raise GenericityError(f"threshold {theta} hits an entry of column {column}")
    return SignVector.from_signs(np.sign(col - cut))


def threshold_topes(matrix: np.ndarray) -> SignVectorSet:
    """All cut vectors of all columns, with negations, deduplicated.

    Any threshold in the same open gap between two consecutive entries of
    a column yields the same vector, so each column has m + 1 cut vectors,
    two of them constant.  Adapter onto _threshold_masks.
    """
    a = _require_generic(matrix)
    return _zero_free_set(a.shape[0], _threshold_masks(a))


def _threshold_masks(a: np.ndarray) -> list[int]:
    """Sorted positive masks of threshold_topes, for a float matrix already
    checked to be generic.

    Moving the cut down a column from above its largest entry makes + one
    more row at each step, in the column's descending order.  So the
    cumulative OR of the one-hot rows, packed into bytes, down that order
    gives every top set of the column, from its largest entry to all rows,
    at once.  The all-minus cut is the complement of the all-plus one, so
    the negation closure of these m * n masks is the whole tope set.
    """
    m = a.shape[0]
    one_hot = np.packbits(np.eye(m, dtype=bool), axis=1, bitorder="little")
    tops = np.bitwise_or.accumulate(one_hot[np.argsort(a, axis=0)[::-1]], axis=0)
    return _negation_closure(_decode(tops.reshape(m * a.shape[1], -1)), m)


def difference_vector(matrix: np.ndarray, i: int, k: int) -> SignVector:
    """Row-comparison vector sign(a_i - a_k) across columns; i, k 1-based."""
    a = _finite_matrix(matrix)
    i, k = _integer(i, "row"), _integer(k, "row")
    if i == k:
        raise ValueError("row indices must differ")
    m = a.shape[0]
    diff = a[_one_based(i, m, "row")] - a[_one_based(k, m, "row")]
    if np.any(diff == 0):
        j = int(np.nonzero(diff == 0)[0][0]) + 1
        raise GenericityError(
            f"rows {i} and {k} coincide in column {j}", ties=[(j, min(i, k), max(i, k))]
        )
    return SignVector.from_signs(np.sign(diff))


def difference_topes(matrix: np.ndarray) -> SignVectorSet:
    """All row-comparison vectors over ordered row pairs, deduplicated.

    Negation-closed by construction (swapping the pair negates the vector).
    A single-row matrix yields the empty set.  Adapter onto
    _difference_masks.
    """
    a = _require_generic(matrix)
    return _zero_free_set(a.shape[1], _difference_masks(a))


def _difference_masks(a: np.ndarray) -> list[int]:
    """Sorted positive masks of difference_topes, for a float matrix already
    checked to be generic: the masks of row a_i > a_k over the pairs
    i > k, then the negations (the pairs i < k)."""
    i, k = np.nonzero(np.tri(a.shape[0], k=-1, dtype=bool))
    return _negation_closure(_masks_from_bits(a[i] > a[k]), a.shape[1])
