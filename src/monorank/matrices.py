"""Matrix ingestion, genericity checking, and column-order extraction.

Matrices are plain float64 numpy arrays.  A Permutation is a tuple of
1-based row indices; entry i of the tuple names the row holding the i-th
smallest value of the column, so column orders are invariant under any
strictly increasing per-column distortion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GenericityError

Permutation = tuple[int, ...]


def parse_matrix(text: str) -> np.ndarray:
    """Parse CSV text into an m-by-n float matrix.

    Comma-separated, LF or CRLF line ends.  A non-numeric first row is
    treated as a header and skipped.  Ragged rows and unparsable or
    non-finite fields are format errors naming the offending location.
    """
    rows: list[list[float]] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix input")
    start = 0
    first = [f.strip() for f in lines[0].split(",")]
    if not all(_is_number(f) for f in first):
        start = 1
        if len(lines) == 1:
            raise FormatError("header row present but no data rows")
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(
                f"row {lineno}: expected {width} fields, found {len(fields)}"
            )
        row = []
        for col, field in enumerate(fields, start=1):
            try:
                value = float(field)
            except ValueError:
                raise FormatError(
                    f"row {lineno}, column {col}: cannot parse {field!r}"
                ) from None
            if not np.isfinite(value):
                raise FormatError(f"row {lineno}, column {col}: non-finite entry")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float)


def format_matrix_csv(matrix: np.ndarray) -> str:
    """Render a matrix as CSV with shortest round-trip float formatting."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return "\n".join(",".join(repr(float(x)) for x in row) for row in matrix) + "\n"


def _is_number(field: str) -> bool:
    # non-finite tokens count as numeric here so they reach the finiteness
    # check as data instead of silently becoming a header
    try:
        float(field)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
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
    """Scan every column for entry pairs with |a_ij - a_kj| <= tol."""
    a = np.asarray(matrix, dtype=float)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    m, n = a.shape
    ties = []
    for j in range(n):
        col = a[:, j]
        order = np.argsort(col, kind="stable")
        # sorted adjacent scan finds all tied pairs at tol=0; for tol>0 widen
        for ai in range(m):
            for ak in range(ai + 1, m):
                i, k = int(order[ai]), int(order[ak])
                if abs(col[k] - col[i]) <= tol:
                    ties.append((j + 1, min(i, k) + 1, max(i, k) + 1))
                else:
                    break
    return TieReport(tolerance=tol, ties=tuple(sorted(ties)))


def column_permutations(matrix: np.ndarray) -> list[Permutation]:
    """Per-column order data: entry i of permutation j is the 1-based row
    index of the i-th smallest entry in column j.

    Tied column entries are a hard error; the column orders the downstream
    bounds rely on are undefined for ties.
    """
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    perms: list[Permutation] = []
    for j in range(n):
        col = a[:, j]
        order = np.argsort(col, kind="stable")
        for t in range(m - 1):
            if col[order[t]] == col[order[t + 1]]:
                i, k = sorted((int(order[t]) + 1, int(order[t + 1]) + 1))
                raise GenericityError(
                    f"column {j + 1} has tied entries in rows {{{i},{k}}}",
                    ties=[(j + 1, i, k)],
                )
        perms.append(tuple(int(i) + 1 for i in order))
    return perms


def perturb_ties(matrix: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Deterministic tie breaking by row order, for exploratory use only.

    Each column is walked in increasing order, tied entries by row index.
    An entry within `tol` of the one before it is raised to the next float
    more than `tol` above it, so the result passes check_generic at `tol`;
    entries already further apart stay put, and distinct entries keep their
    strict order.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    a = np.asarray(matrix, dtype=float).copy()
    for j in range(a.shape[1]):
        col = a[:, j]
        below = -np.inf
        for i in np.argsort(col, kind="stable"):
            x = col[i]
            while x - below <= tol:
                x = np.nextafter(max(x, below + tol), np.inf)
            col[i] = below = x
    return a
