"""Matrix ingestion, genericity checking, and column-order extraction.

Matrices are plain float64 numpy arrays.  A Permutation is a tuple of
1-based row indices; entry i of the tuple names the row holding the i-th
smallest value of the column, so column orders are invariant under any
strictly increasing per-column distortion.  The convention runs both
ways: column_permutations reads the orders of a matrix, and
_matrix_with_orders builds the matrix of values 1..m with given orders.

Every entry point that takes a numeric matrix passes it through one gate,
_finite_matrix, and every tie tolerance through _tolerance.  Column orders
are defined only for finite entries, and a NaN tolerance would call every
pair untied.  Sample sizes, ranks, d_max, the Hadamard order, the
ground size of a SignVectorSet, the uniform_rank of a
CircuitCandidateSet, the resource guards (max_ground, max_nodes,
max_points, max_normals) and the 1-based indices of threshold_vector,
difference_vector, shatters and SignVector.sign are read through
_integer, so a float is a DomainError naming it rather than a TypeError
from inside numpy or itertools, an IndexError from numpy, or a guard
compared as a float.  A caller's real
number (the threshold of threshold_vector, the parameters of a
MonotoneDistortion) is read through _float, so a string, None or an int
past the float range is a DomainError naming it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, FormatError, GenericityError, _shown

Permutation = tuple[int, ...]


def parse_matrix(text: str) -> np.ndarray:
    """Parse CSV text into an m-by-n float matrix.

    Comma-separated, LF or CRLF line ends.  A non-numeric first row is
    treated as a header and skipped.  Ragged rows and unparsable or
    non-finite fields are format errors naming the offending location.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix input")
    start = 0
    # non-finite tokens count as numbers here so they reach the finiteness
    # check as data instead of silently becoming a header
    try:
        [float(field.strip()) for field in lines[0].split(",")]
    except ValueError:
        start = 1
        if len(lines) == 1:
            raise FormatError("header row present but no data rows") from None
    # float() ignores the same whitespace as strip() but for \x1c-\x1f, of
    # which splitlines() leaves only \x1f in a line.  A row that map(float)
    # refuses, or whose sum is not finite (a non-finite entry, or an
    # overflow), goes field by field: that path names the first bad field,
    # or parses the fields that strip() cleans.
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = line.split(",")
        if rows and len(fields) != len(rows[0]):
            raise FormatError(f"row {lineno}: expected {len(rows[0])} fields, found {len(fields)}")
        try:
            row = list(map(float, fields))
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            row = []
            for col, field in enumerate(map(str.strip, fields), start=1):
                at = f"row {lineno}, column {col}"
                try:
                    row.append(float(field))
                except ValueError:
                    raise FormatError(f"{at}: cannot parse {field!r}") from None
                if not math.isfinite(row[-1]):
                    raise FormatError(f"{at}: non-finite entry")
        rows.append(row)
    return np.array(rows, dtype=float)


def format_matrix_csv(matrix: np.ndarray) -> str:
    """Render a matrix as CSV with shortest round-trip float formatting."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return "\n".join(",".join(map(repr, row)) for row in matrix.tolist()) + "\n"


def _finite_matrix(matrix: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The input as a nonempty 2-D float64 array of finite entries;
    otherwise DomainError naming `what`."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError(f"{what} must be a nonempty 2-d array")
    if not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite")
    return a


def _tolerance(tol: float) -> float:
    """The tie tolerance, which must be a finite number >= 0: a string, or
    an int or fraction past the float range, is not."""
    try:
        finite = math.isfinite(tol)
    except (TypeError, OverflowError):
        finite = False
    if not (finite and tol >= 0):
        raise DomainError(f"tolerance must be a finite number >= 0, got {_shown(tol)}")
    return float(tol)


def _integer(value, what: str) -> int:
    """The value as a Python int, read with operator.index, so numpy
    integers pass and floats do not; otherwise DomainError naming `what`
    and the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {_shown(value)}") from None


def _float(value, what: str) -> float:
    """The value as a Python float if it is a real number (numpy scalars
    included, strings not); otherwise, or if it is past the float range
    (an int or fraction too large for one), DomainError naming `what`."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} must fit in a float") from None


def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) as rows, in itertools.combinations order."""
    subsets = list(itertools.combinations(range(m), k))
    return np.array(subsets, dtype=np.intp).reshape(len(subsets), k)


@dataclass(frozen=True, slots=True)
class TieReport:
    """All (column, row pair) positions whose entries coincide within tol.

    Columns and rows are 1-based.  An empty report means the matrix is
    generic at the given tolerance.
    """

    tolerance: float
    ties: tuple[tuple[int, int, int], ...]

    @property
    def is_generic(self) -> bool:
        return not self.ties

    def describe(self) -> str:
        if self.is_generic:
            return "generic"
        parts = [f"column {j} rows {{{i},{k}}}" for j, i, k in self.ties]
        return "tied entries: " + "; ".join(parts)


def check_generic(matrix: np.ndarray, tol: float = 0.0) -> TieReport:
    """Scan every column for entry pairs with |a_ij - a_kj| <= tol.

    One sort of all columns gives the adjacent gaps; a column holds a tie
    iff one of its sorted adjacent gaps is <= tol, since every wider pair
    spans one of them.  Tied pairs are listed only for those columns.  A
    gap too wide for a float reads inf, untied at every finite tol.
    """
    return _tie_report(_finite_matrix(matrix), tol)


def _tie_report(a: np.ndarray, tol: float) -> TieReport:
    """check_generic of a matrix that passed _finite_matrix."""
    tol = _tolerance(tol)
    with np.errstate(over="ignore"):
        gaps = np.diff(np.sort(a, axis=0), axis=0)
    ties = []
    for j in np.flatnonzero((gaps <= tol).any(axis=0)).tolist():
        col = a[:, j].tolist()  # Python floats overflow to inf silently
        rows = np.argsort(a[:, j], kind="stable").tolist()
        # every pair within tol of a sorted entry follows it in the sort
        for ai, i in enumerate(rows):
            for k in rows[ai + 1 :]:
                if abs(col[k] - col[i]) <= tol:
                    ties.append((j + 1, min(i, k) + 1, max(i, k) + 1))
                else:
                    break
    return TieReport(tolerance=tol, ties=tuple(sorted(ties)))


def _require_generic(matrix: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """The matrix as a float array, if check_generic finds no tie within
    tol; otherwise GenericityError listing every tie."""
    a = _finite_matrix(matrix)
    report = _tie_report(a, tol)
    if not report.is_generic:
        raise GenericityError(report.describe(), ties=report.ties)
    return a


def column_permutations(matrix: np.ndarray) -> list[Permutation]:
    """Per-column order data: entry i of permutation j is the 1-based row
    index of the i-th smallest entry in column j.

    Tied column entries are a hard error; the column orders the downstream
    bounds rely on are undefined for ties.
    """
    order = np.argsort(_require_generic(matrix), axis=0) + 1
    return [tuple(perm) for perm in order.T.tolist()]


def _matrix_with_orders(orders) -> np.ndarray:
    """The inverse of column_permutations: the float matrix with one column
    per order, holding the values 1..m so that the row named at position i
    receives value i.  Orders may be 1- or 0-based (their argsort is the
    same), and must be permutations, so no two values tie.
    """
    return np.argsort(orders, axis=1).T + 1.0


def perturb_ties(matrix: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Deterministic tie breaking by row order, for exploratory use only.

    Each column is walked in increasing order, tied entries by row index.
    An entry within `tol` of the one before it is raised to the next float
    more than `tol` above it, so the result passes check_generic at `tol`;
    entries already further apart stay put, and distinct entries keep their
    strict order.  An entry that would have to leave the finite floats is a
    DomainError.
    """
    a = _finite_matrix(matrix).copy()
    tol = _tolerance(tol)
    for j, col in enumerate(a.T):  # columns as views, updated in place
        below = -math.inf
        for i in np.argsort(col, kind="stable").tolist():
            x = float(col[i])
            if x - below <= tol:
                x = _next_untied(max(x, below + tol), below, tol)
            if x == math.inf:
                raise DomainError(f"tolerance {tol!r} overflows column {j + 1}")
            col[i] = below = x
    return a


def _next_untied(start: float, below: float, tol: float) -> float:
    """The smallest float above `start` whose computed difference from a
    finite `below` exceeds tol.

    Stepping up one float at a time finds it, but when |below| is much
    larger than the result, the difference rounds far more coarsely than
    the floats step, and the walk can take billions of steps.  Instead:
    the difference rounds above tol exactly when its true value passes
    tol + ulp(tol)/2, or rounds up to even on reaching it.  So a float is
    untied when it is above the exact sum below + tol + ulp(tol)/2, or is
    that sum and rounds up, and the float nearest the sum is the smallest
    untied float or the one just below it.  A sum past the float range
    leaves only inf untied.
    """
    try:
        x = float(Fraction(below) + Fraction(tol) + Fraction(math.ulp(tol)) / 2)
    except OverflowError:
        return math.inf
    if x - below <= tol:
        x = math.nextafter(x, math.inf)
    return max(x, math.nextafter(start, math.inf)) + 0.0  # never -0.0
