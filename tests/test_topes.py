import numpy as np
import pytest

from monorank import (
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

from .fixtures import DIFFERENCE_TOPES_A, DISTORTION_A, THRESHOLD_TOPES_A


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


def test_threshold_topes_match_midpoint_reference():
    mats = [DISTORTION_A, DISTORTION_A[:1], DISTORTION_A[:, :1]]
    rng = np.random.default_rng(6)
    mats += [rng.standard_normal((1, n)) for n in (1, 2, 5)]
    mats += [rng.standard_normal((m, 1)) for m in (2, 5, 16)]
    for d in (2, 3, 4):
        for size in (4, 9, 16):
            for seed in range(3):
                mats.append(random_representation(size, size, d, seed).matrix)
        mats.append(random_representation(16, 7, d, 100 + d).matrix)
    for mat in mats:
        assert threshold_topes(mat) == midpoint_threshold_topes(mat)


def test_threshold_topes_a1_exact():
    assert set(threshold_topes(DISTORTION_A).strings()) == THRESHOLD_TOPES_A


def test_threshold_vector_sigma_2_of_3():
    assert str(threshold_vector(DISTORTION_A, 2, 3.0)) == "+--+"


def test_threshold_vector_hits_entry():
    with pytest.raises(GenericityError):
        threshold_vector(DISTORTION_A, 1, 3.67)


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
