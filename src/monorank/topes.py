"""Threshold and difference topes: the two sign-vector encodings of a
matrix's column orders.

Threshold topes record which rows sit above each cut through a column;
difference topes record the row-vs-row comparison outcome across columns.
Both are negation-closed, zero-free, and invariant under strictly
increasing per-column distortion.

Both are built by a numpy kernel (_threshold_masks, _difference_masks)
that returns the sorted positive masks of the tope set; build_report
works on these masks directly.  threshold_topes and difference_topes
are its adapters from a matrix to a SignVectorSet.  The kernels sum bit
weights 1 << row (or 1 << column) from signs._bit_weights, so they stay
exact at any width.  The threshold kernel sums int64 weights up to 63
rows and Python ints beyond; the difference kernel dots 63 columns at a
time with int64 weights and shifts each slice into place.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GenericityError
from .matrices import _finite_matrix, _require_generic
from .signs import (
    SignVector,
    SignVectorSet,
    _bit_weights,
    _negation_closure,
    _zero_free_set,
)


def _one_based(index: int, size: int, what: str) -> int:
    """The 0-based position of a 1-based index, which must lie in
    [1..size]: numpy would read 0 as the last entry."""
    if not 1 <= index <= size:
        raise IndexError(f"{what} {index} outside [1..{size}]")
    return index - 1


def threshold_vector(matrix: np.ndarray, column: int, theta: float) -> SignVector:
    """The cut vector of one column: sign(a_ij - theta) over rows i.

    `column` is 1-based.  The threshold must miss every entry; a NaN
    threshold, which compares false with every entry, is a DomainError.
    """
    if np.isnan(theta):
        raise DomainError("threshold must not be NaN")
    a = _finite_matrix(matrix)
    col = a[:, _one_based(column, a.shape[1], "column")]
    if np.any(col == theta):
        raise GenericityError(f"threshold {theta} hits an entry of column {column}")
    return SignVector.from_signs(np.sign(col - theta))


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
    cumulative sum of 1 << row down that order gives every top set of the
    column, from its largest entry to all rows, at once: the bits are
    disjoint, so the sum is their OR.  The all-minus cut is the complement
    of the all-plus one, so the negation closure of these m * n masks is
    the whole tope set.
    """
    tops = np.cumsum(_bit_weights(a.shape[0])[np.argsort(a, axis=0)[::-1]], axis=0)
    return _negation_closure(tops.ravel().tolist(), a.shape[0])


def difference_vector(matrix: np.ndarray, i: int, k: int) -> SignVector:
    """Row-comparison vector sign(a_i - a_k) across columns; i, k 1-based."""
    a = _finite_matrix(matrix)
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
    checked to be generic: row a_i > a_k over the pairs i > k, dotted with
    the bit weights 1 << column, then the negations (the pairs i < k).

    Each slice of 63 columns is dotted with int64 weights and ORed in
    shifted by its first column, as Python ints past the first slice, so
    no dot takes one Python operation per entry."""
    i, k = np.nonzero(np.tri(a.shape[0], k=-1, dtype=bool))
    above, width = a[i] > a[k], a.shape[1]
    masks = above[:, :63] @ _bit_weights(min(width, 63))
    for j in range(63, width, 63):
        word = above[:, j : j + 63] @ _bit_weights(min(width - j, 63))
        masks = masks.astype(object) | word.astype(object) << j
    return _negation_closure(masks.tolist(), width)

