"""Matrix ingestion, genericity checking, and column-order extraction.

Matrices are plain float64 numpy arrays.  A Permutation is a tuple of
1-based row indices; entry i of the tuple names the row holding the i-th
smallest value of the column, so column orders are invariant under any
strictly increasing per-column distortion.

Every entry point that takes a numeric matrix passes it through one gate,
_finite_matrix, and every tie tolerance through _tolerance.  Column orders
are defined only for finite entries, and a NaN tolerance would call every
pair untied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, GenericityError

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
    first = [f.strip() for f in lines[0].split(",")]
    if not all(_is_number(f) for f in first):
        start = 1
        if len(lines) == 1:
            raise FormatError("header row present but no data rows")
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
    """The tie tolerance, which must be a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return float(tol)


def _is_number(field: str) -> bool:
    # non-finite tokens count as numeric here so they reach the finiteness
    # check as data instead of silently becoming a header
    try:
        float(field)
    except ValueError:
        return False
    return True


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
    the floats step, and the walk can take billions of steps.  The computed
    difference never decreases as the float grows, so after trying the
    next float, which mostly suffices, this bisects the order of the
    floats: at most 64 more tests.
    """
    lo, hi = _float_rank(start), _float_rank(math.inf)  # hi is untied
    mid = lo + 1
    while hi - lo > 1:
        if _rank_float(mid) - below > tol:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) // 2
    return _rank_float(hi)


def _float_rank(x: float) -> int:
    """The position of x in the order of the floats, 0 at +-0.0: adjacent
    floats have adjacent ranks."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(1 << 63) - bits


def _rank_float(rank: int) -> float:
    """Inverse of _float_rank."""
    bits = rank if rank >= 0 else -(1 << 63) - rank
    return float(np.int64(bits).view(np.float64))
