import re
from fractions import Fraction

import numpy as np
import pytest

from monorank import (
    DomainError,
    GenericityError,
    SignVector,
    SignVectorSet,
    column_permutations,
    difference_topes,
    difference_vector,
    random_representation,
    threshold_topes,
    threshold_vector,
)

from monorank.topes import _difference_masks, _threshold_masks

from .fixtures import (
    DIFFERENCE_TOPES_A,
    DISTORTION_A,
    THRESHOLD_TOPES_A,
    oracle_matrices,
)


def midpoint_threshold_topes(matrix: np.ndarray) -> SignVectorSet:
    """Reference oracle: one threshold_vector per gap of each sorted column,
    at the midpoint of each pair of consecutive entries plus one below the
    minimum and one above the maximum."""
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    vecs = []
    for j in range(n):
        col = np.sort(a[:, j])
        thetas = [col[0] - 1.0]
        thetas += [(col[t] + col[t + 1]) / 2.0 for t in range(m - 1)]
        thetas.append(col[-1] + 1.0)
        for theta in thetas:
            v = threshold_vector(a, j + 1, theta)
            vecs += [v, -v]
    return SignVectorSet(m, vecs)


def object_threshold_topes(a: np.ndarray) -> SignVectorSet:
    """Reference oracle: the former object builder, one argsort per column
    and one SignVector per distinct cut mask."""
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


def object_difference_topes(a: np.ndarray) -> SignVectorSet:
    """Reference oracle: the former object builder, one difference_vector
    and its negation per row pair."""
    m, n = a.shape
    vecs: list[SignVector] = []
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            v = difference_vector(a, i, k)
            vecs += [v, -v]
    return SignVectorSet(n, vecs, negation_closed=True)


def test_threshold_topes_match_midpoint_reference():
    for mat in oracle_matrices():
        assert threshold_topes(mat) == midpoint_threshold_topes(mat)


# the decoder reads masks of up to 8 bytes (64 bits) as uint64 words and
# wider ones with int.from_bytes, so the kernels are checked on either side
# of that boundary and well past it
WORD_WIDTHS = (1, 2, 62, 63, 64, 65, 70, 128, 130)


def word_boundary_matrices() -> list[np.ndarray]:
    """Generic matrices with a word-boundary number of rows (the threshold
    width) or columns (the difference width)."""
    rng = np.random.default_rng(16)
    return [rng.standard_normal(shape) for w in WORD_WIDTHS for shape in ((w, 4), (4, w))]


def test_tope_masks_match_object_builders():
    for a in oracle_matrices() + word_boundary_matrices():
        thresh, diff = object_threshold_topes(a), object_difference_topes(a)
        # same masks in the same (canonical) order, all of them Python ints
        got_thresh, got_diff = _threshold_masks(a), _difference_masks(a)
        assert got_thresh == [v.pos for v in thresh]
        assert got_diff == [v.pos for v in diff]
        assert all(type(p) is int for p in got_thresh + got_diff)
        assert threshold_topes(a) == thresh
        assert difference_topes(a) == diff


@pytest.mark.parametrize("width", [62, 63, 64, 65, 70, 126, 127, 128, 130])
def test_difference_masks_match_object_builder_across_words(width):
    a = np.random.default_rng(width).standard_normal((7, width))
    want = [v.pos for v in object_difference_topes(a)]
    got = _difference_masks(a)
    assert got == want
    assert all(type(p) is int for p in got)


def test_threshold_topes_a1_exact():
    assert set(threshold_topes(DISTORTION_A).strings()) == THRESHOLD_TOPES_A


def test_threshold_vector_sigma_2_of_3():
    assert str(threshold_vector(DISTORTION_A, 2, 3.0)) == "+--+"


def test_threshold_vector_hits_entry():
    with pytest.raises(GenericityError):
        threshold_vector(DISTORTION_A, 1, 3.67)


@pytest.mark.parametrize("theta, want", [(float("inf"), "--"), (-float("inf"), "++")])
def test_threshold_vector_at_an_infinite_threshold_is_a_constant_cut(theta, want):
    assert str(threshold_vector(np.array([[1.0], [2.0]]), 1, theta)) == want


def test_threshold_vector_rejects_a_nan_threshold():
    # NaN compares false with every entry, so its cut used to read "00"
    with pytest.raises(DomainError, match="NaN"):
        threshold_vector(np.array([[1.0], [2.0]]), 1, float("nan"))


@pytest.mark.parametrize(
    "theta, message",
    [
        (10**400, "threshold must fit in a float"),
        ("0.5", "threshold must be a real number, got '0.5'"),
        (None, "threshold must be a real number, got None"),
    ],
)
def test_threshold_vector_refuses_a_threshold_that_is_not_a_float(theta, message):
    # each leaked numpy's TypeError from np.isnan
    with pytest.raises(DomainError, match=re.escape(message)):
        threshold_vector(np.array([[1.0], [2.0]]), 1, theta)


@pytest.mark.parametrize("theta", [1.5, Fraction(3, 2), np.float32(1.5), np.float64(1.5)])
def test_threshold_vector_reads_any_real_threshold(theta):
    assert str(threshold_vector(np.array([[1.0], [2.0]]), 1, theta)) == "-+"


@pytest.mark.parametrize("column", [0, 4])
def test_threshold_vector_rejects_column_outside_range(column):
    # numpy would read column 0 as the last one
    with pytest.raises(IndexError, match=rf"column {column} outside \[1\.\.3\]"):
        threshold_vector(DISTORTION_A, column, 3.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a: threshold_vector(a, 1.5, 0.0), "column must be an integer, got 1.5"),
        (lambda a: threshold_vector(a, 2.0, 0.0), "column must be an integer, got 2.0"),
        (lambda a: threshold_vector(a, "1", 0.0), "column must be an integer, got '1'"),
        (lambda a: difference_vector(a, 1.5, 2), "row must be an integer, got 1.5"),
        (
            lambda a: difference_vector(a, 1, np.float64(2.0)),
            f"row must be an integer, got {np.float64(2.0)!r}",
        ),
        (lambda a: difference_vector(a, 1.5, 1.5), "row must be an integer, got 1.5"),
    ],
)
def test_indices_that_are_not_integers_are_domain_errors(call, message):
    # these leaked numpy's IndexError, or (equal rows) called 1.5 a repeated row
    with pytest.raises(DomainError) as info:
        call(DISTORTION_A)
    assert str(info.value) == message


def test_numpy_integer_indices_read_as_ints():
    a = DISTORTION_A
    assert threshold_vector(a, np.int64(2), 3.0) == threshold_vector(a, 2, 3.0)
    assert difference_vector(a, np.uint8(1), np.int32(3)) == difference_vector(a, 1, 3)
    with pytest.raises(IndexError, match=r"^column 4 outside \[1\.\.3\]$"):
        threshold_vector(DISTORTION_A, np.int64(4), 3.0)


def test_single_column_chain_cardinality():
    rng = np.random.default_rng(0)
    for m in range(1, 8):
        col = rng.permutation(m).astype(float).reshape(m, 1)
        topes = threshold_topes(col)
        assert len(topes) == 2 * (m + 1) - 2
        # chain property: one orientation's positive parts are nested
        ups = sorted(
            (v for v in topes if v.sign(int(np.argmax(col)) + 1) >= 0),
            key=lambda v: len(v.positive_part()),
        )
        for a, b in zip(ups, ups[1:]):
            assert a.positive_part() <= b.positive_part()


def test_threshold_cardinality_bound_and_constants():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m, n = rng.integers(2, 7), rng.integers(1, 6)
        mat = rng.standard_normal((m, n))
        topes = threshold_topes(mat)
        assert len(topes) <= 2 * n * (m + 1)
        full = (1 << m) - 1
        assert SignVector(m, full, 0) in topes
        assert SignVector(m, 0, full) in topes
        assert topes.is_negation_closed() and topes.is_zero_free()


def test_difference_topes_a1_exact():
    assert set(difference_topes(DISTORTION_A).strings()) == DIFFERENCE_TOPES_A


def test_difference_vector_sigma_13():
    assert str(difference_vector(DISTORTION_A, 1, 3)) == "++-"


@pytest.mark.parametrize("i, k, bad", [(0, 1, 0), (1, 0, 0), (5, 2, 5), (2, 5, 5)])
def test_difference_vector_rejects_row_outside_range(i, k, bad):
    # numpy would read row 0 as the last one
    with pytest.raises(IndexError, match=rf"row {bad} outside \[1\.\.4\]"):
        difference_vector(DISTORTION_A, i, k)


def test_difference_identical_rows_error():
    mat = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(GenericityError):
        difference_topes(mat)


def test_topes_invariant_under_column_distortion():
    rng = np.random.default_rng(2)
    for _ in range(15):
        m, n = rng.integers(2, 7), rng.integers(1, 5)
        mat = rng.standard_normal((m, n)) * 2
        thresh, diff = threshold_topes(mat), difference_topes(mat)
        distorted = np.empty_like(mat)
        for j in range(n):
            choice = rng.integers(0, 3)
            col = mat[:, j]
            if choice == 0:
                distorted[:, j] = np.exp(col / 10.0)
            elif choice == 1:
                distorted[:, j] = col**3 + col
            else:
                knots = np.sort(rng.uniform(-8, 8, 4))
                vals = np.cumsum(rng.uniform(0.1, 1.0, 4))
                distorted[:, j] = np.interp(col, knots, vals) + np.where(
                    col < knots[0], col - knots[0], 0.0
                ) + np.where(col > knots[-1], col - knots[-1], 0.0)
        assert threshold_topes(distorted) == thresh
        assert difference_topes(distorted) == diff


def test_difference_topes_recover_column_permutations():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        mat = rng.standard_normal((m, n))
        perms = column_permutations(mat)
        vectors = {
            (i, k): difference_vector(mat, i, k)
            for i in range(1, m + 1)
            for k in range(1, m + 1)
            if i != k
        }
        for j in range(1, n + 1):
            # row i precedes row k in column j iff sigma_ik is negative there
            wins = {
                i: sum(
                    1
                    for k in range(1, m + 1)
                    if k != i and vectors[(i, k)].sign(j) < 0
                )
                for i in range(1, m + 1)
            }
            rebuilt = tuple(sorted(range(1, m + 1), key=lambda i: m - 1 - wins[i]))
            assert rebuilt == perms[j - 1]
