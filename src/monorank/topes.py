"""Threshold and difference topes: the two sign-vector encodings of a
matrix's column orders.

Threshold topes record which rows sit above each cut through a column;
difference topes record the row-vs-row comparison outcome across columns.
Both are negation-closed, zero-free, and invariant under strictly
increasing per-column distortion.
"""

from __future__ import annotations

import numpy as np

from .errors import GenericityError
from .matrices import check_generic
from .signs import SignVector, SignVectorSet


def _require_generic(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    report = check_generic(a)
    if not report.is_generic:
        raise GenericityError(report.describe(), ties=report.ties)
    return a


def threshold_vector(matrix: np.ndarray, column: int, theta: float) -> SignVector:
    """The cut vector of one column: sign(a_ij - theta) over rows i.

    `column` is 1-based.  The threshold must miss every entry.
    """
    a = np.asarray(matrix, dtype=float)
    col = a[:, column - 1]
    if np.any(col == theta):
        raise GenericityError(f"threshold {theta} hits an entry of column {column}")
    return SignVector.from_signs(np.sign(col - theta))


def threshold_topes(matrix: np.ndarray) -> SignVectorSet:
    """All cut vectors of all columns, with negations, deduplicated.

    Each column is argsorted once.  Starting from the all-+ cut below the
    minimum, moving the cut past each sorted entry in turn flips that
    entry's row to -.  These m cuts and their negations (the all-+ cut is
    the negation of the last) are all of the column's cut vectors: any
    threshold in the same open gap between consecutive entries yields the
    same vector.
    """
    a = _require_generic(matrix)
    m = a.shape[0]
    full = (1 << m) - 1
    cuts: set[int] = set()
    for order in np.argsort(a, axis=0).T.tolist():
        pos = full
        for i in order:
            pos ^= 1 << i
            cuts.add(pos)
    cuts |= {full ^ pos for pos in cuts}
    return SignVectorSet(
        m, (SignVector(m, pos, full ^ pos) for pos in cuts), negation_closed=True
    )


def difference_vector(matrix: np.ndarray, i: int, k: int) -> SignVector:
    """Row-comparison vector sign(a_i - a_k) across columns; i, k 1-based."""
    a = np.asarray(matrix, dtype=float)
    if i == k:
        raise ValueError("row indices must differ")
    diff = a[i - 1] - a[k - 1]
    if np.any(diff == 0):
        j = int(np.nonzero(diff == 0)[0][0]) + 1
        raise GenericityError(
            f"rows {i} and {k} coincide in column {j}", ties=[(j, min(i, k), max(i, k))]
        )
    return SignVector.from_signs(np.sign(diff))


def difference_topes(matrix: np.ndarray) -> SignVectorSet:
    """All row-comparison vectors over ordered row pairs, deduplicated.

    Negation-closed by construction (swapping the pair negates the vector).
    A single-row matrix yields the empty set.
    """
    a = _require_generic(matrix)
    m, n = a.shape
    vecs: list[SignVector] = []
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            v = difference_vector(a, i, k)
            vecs.append(v)
            vecs.append(-v)
    return SignVectorSet(n, vecs, negation_closed=True)
