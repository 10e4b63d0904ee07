import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monorank import (
    DomainError,
    ResourceLimitError,
    SignVector,
    SignVectorSet,
    difference_topes,
    encode_signs_as_matrix,
    forster_bound,
    hadamard,
    random_representation,
    sign_matrix_with_columns,
    sign_matrix_with_rows,
    singular_values,
    spectral_norm,
    threshold_topes,
)

from monorank.spectral import _HADAMARD_BYTES, _HADAMARD_MAX, _sign_matrix

from .fixtures import (
    DISTORTION_A,
    DISTORTION_A_SPECTRUM,
    DISTORTION_B,
    DISTORTION_B_SPECTRUM,
    oracle_matrices,
)


@pytest.mark.parametrize("n", range(1, 6))
def test_spectral_norm_hadamard(n):
    root = math.sqrt(2**n)
    assert spectral_norm(hadamard(n)) == pytest.approx(root, rel=1e-9)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_b_fixture():
    assert spectral_norm(DISTORTION_B) == pytest.approx(37.01, abs=0.01)


def test_singular_values_b_fixture():
    sv = singular_values(DISTORTION_B)
    assert sv[0] == pytest.approx(DISTORTION_B_SPECTRUM[0], abs=0.01)
    assert sv[1] == pytest.approx(DISTORTION_B_SPECTRUM[1], abs=0.01)
    assert sv[2] <= 1e-9


def test_singular_values_a_fixture():
    sv = singular_values(DISTORTION_A)
    for got, want in zip(sv, DISTORTION_A_SPECTRUM):
        assert got == pytest.approx(want, abs=0.01)


def test_singular_values_diagonal():
    assert np.allclose(singular_values(np.diag([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0])


def smaller_gram(a: np.ndarray) -> np.ndarray:
    return a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T


def test_singular_values_match_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m, n = rng.integers(1, 9, size=2)
        mat = rng.standard_normal((m, n)) * rng.uniform(0.1, 10)
        ours = singular_values(mat)
        ref = np.linalg.svd(mat, compute_uv=False)
        assert ours.shape == ref.shape
        scale = max(ref[0], 1e-12)
        assert np.max(np.abs(ours - ref)) <= 1e-8 * scale
        # checks that do not go through an SVD routine
        assert np.all(np.diff(ours) <= 0)
        assert np.sum(ours**2) == pytest.approx(np.sum(mat**2), rel=1e-12)
        eig = np.linalg.eigvalsh(smaller_gram(mat))[::-1]
        assert np.max(np.abs(ours**2 - eig)) <= 1e-12 * scale**2


def test_spectral_norm_matches_max_singular_value():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n = rng.integers(1, 9, size=2)
        mat = rng.standard_normal((m, n))
        top = singular_values(mat)[0]
        norm = spectral_norm(mat)
        assert norm == pytest.approx(top, rel=1e-8)
        # ||A|| is the largest stretch of any unit vector
        for v in rng.standard_normal((20, n)):
            assert np.linalg.norm(mat @ v) <= norm * np.linalg.norm(v) * (1 + 1e-13)
        assert norm**2 == pytest.approx(np.linalg.eigvalsh(smaller_gram(mat))[-1], rel=1e-12)


@pytest.mark.parametrize("shape", [(9, 9, 2, 57), (8, 8, 3, 13)])
def test_tope_matrix_norm_is_not_underestimated(shape):
    # forster_bound divides by the norm, so it must not come out low;
    # eigvalsh is a different LAPACK driver from the SVD behind the norm
    rep = random_representation(*shape)
    for mat in (
        sign_matrix_with_columns(threshold_topes(rep.matrix)),
        sign_matrix_with_rows(difference_topes(rep.matrix)),
    ):
        top = np.linalg.eigvalsh(smaller_gram(mat))[-1]
        assert spectral_norm(mat) ** 2 >= top * (1 - 1e-13)


@pytest.mark.parametrize("n", range(1, 6))
def test_forster_hadamard(n):
    assert forster_bound(hadamard(n)) == pytest.approx(math.sqrt(2**n), rel=1e-9)


def test_forster_all_ones():
    assert forster_bound(np.ones((2, 2))) == pytest.approx(1.0, rel=1e-9)


def test_forster_h1_direct():
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.linalg.norm(h1, 2) == pytest.approx(math.sqrt(2))
    assert forster_bound(h1) == pytest.approx(math.sqrt(2), rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_spectral_norm_is_the_first_singular_value(seed):
    # bit for bit, and equal to the former np.linalg.norm(a, 2)
    rng = np.random.default_rng(seed)
    a = random_representation(8, 7, 3, seed=seed).matrix
    for m in (
        rng.standard_normal((5, 9)),
        rng.standard_normal((12, 4)) * 1e6,
        sign_matrix_with_columns(threshold_topes(a)),
        sign_matrix_with_rows(difference_topes(a)),
    ):
        assert spectral_norm(m) == singular_values(m)[0] == np.linalg.norm(m, 2)


def test_forster_rejects_non_sign_entries():
    with pytest.raises(DomainError):
        forster_bound(np.array([[1.0, 0.5], [-1.0, 1.0]]))


def test_hadamard_base_case():
    assert np.array_equal(hadamard(0), np.array([[1]]))


def test_hadamard_one_step():
    assert np.array_equal(hadamard(1), np.array([[1, 1], [1, -1]]))


@pytest.mark.parametrize("n", range(11))
def test_hadamard_matches_scipy_oracle(n):
    import scipy.linalg

    want = scipy.linalg.hadamard(1 << n, dtype=np.int64)
    got = hadamard(n)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_hadamard_rows_orthogonal():
    h = hadamard(3)
    gram = h @ h.T
    assert np.array_equal(gram, 8 * np.eye(8, dtype=np.int64))


def test_hadamard_guard():
    with pytest.raises(ResourceLimitError):
        hadamard(21)


def test_hadamard_guard_is_largest_order_within_byte_budget():
    # order n holds 4^n int64 entries; past the guard nothing is allocated
    assert hadamard(3).nbytes == 8 * 4**3
    assert 8 * 4**_HADAMARD_MAX <= _HADAMARD_BYTES < 8 * 4 ** (_HADAMARD_MAX + 1)
    assert _HADAMARD_MAX == 12
    with pytest.raises(ResourceLimitError, match="exceeds guard 12"):
        hadamard(_HADAMARD_MAX + 1)


def test_encode_single_mixed_vector():
    vectors = SignVectorSet.from_strings(["--++"])
    mat = encode_signs_as_matrix(vectors)
    assert np.array_equal(mat[:, 0], [1.0, 2.0, 3.0, 4.0])
    assert "--++" in threshold_topes(mat).strings()


def test_encode_all_plus():
    vectors = SignVectorSet.from_strings(["++++"])
    col = encode_signs_as_matrix(vectors)[:, 0]
    assert all(a < b for a, b in zip(col, col[1:]))
    assert "++++" in threshold_topes(col.reshape(-1, 1)).strings()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_encode_hadamard_rows_are_threshold_topes(n):
    rows = sign_matrix_with_rows_of_hadamard(n)
    mat = encode_signs_as_matrix(rows)
    topes = threshold_topes(mat)
    assert all(v in topes for v in rows)


def sign_matrix_with_rows_of_hadamard(n: int) -> SignVectorSet:
    from monorank import SignVector

    h = hadamard(n)
    vecs = []
    for row in h:
        v = SignVector.from_signs(row)
        vecs.append(v)
        vecs.append(-v)
    return SignVectorSet(h.shape[0], vecs)


def per_bit_encode_signs_as_matrix(vectors: SignVectorSet) -> np.ndarray:
    """Reference oracle: the former construction, two passes over the bits
    of each vector, handing out values 1..m to the minus rows, then the
    plus rows, in ascending row order."""
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


def assert_encoding_matches_reference(vectors: SignVectorSet) -> None:
    got = encode_signs_as_matrix(vectors)
    want = per_bit_encode_signs_as_matrix(vectors)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(5))
def test_encode_matches_per_bit_reference_on_hadamard_rows(n):
    # n = 0 is the one-element ground set {+, -}
    assert_encoding_matches_reference(sign_matrix_with_rows_of_hadamard(n))


@given(
    st.integers(1, 9).flatmap(
        lambda m: st.tuples(
            st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12)
        )
    )
)
def test_encode_matches_per_bit_reference_on_zero_free_sets(case):
    m, masks = case
    full = (1 << m) - 1
    vectors = SignVectorSet(m, (SignVector(m, p, full ^ p) for p in masks))
    assert_encoding_matches_reference(vectors)


def test_encode_rejects_zeros():
    with pytest.raises(DomainError):
        encode_signs_as_matrix(SignVectorSet.from_strings(["+0-"]))


def test_sign_matrix_constructors():
    vectors = SignVectorSet.from_strings(["++-", "--+", "+-+"])
    cols = sign_matrix_with_columns(vectors)
    rows = sign_matrix_with_rows(vectors)
    assert cols.shape == (3, 3)
    assert np.array_equal(cols.T, rows)
    strings = vectors.strings()
    for j, s in enumerate(strings):
        rebuilt = "".join("+" if x > 0 else "-" for x in cols[:, j])
        assert rebuilt == s


def per_bit_sign_matrix_with_columns(vectors: SignVectorSet) -> np.ndarray:
    """Reference oracle: the former construction, one Python float per bit."""
    m = vectors.ground_size
    cols = [[1.0 if v.pos >> i & 1 else -1.0 for i in range(m)] for v in vectors]
    return np.array(cols, dtype=float).T


def test_sign_matrices_match_per_bit_reference():
    for a in oracle_matrices():
        m, n = a.shape
        sides = [(threshold_topes(a), m), (difference_topes(a), n)]
        for topes, width in sides:
            if not len(topes):
                continue
            ref = per_bit_sign_matrix_with_columns(topes)
            cols = sign_matrix_with_columns(topes)
            rows = sign_matrix_with_rows(topes)
            kernel = _sign_matrix([v.pos for v in topes], width)
            # same entries and the same memory layout, so LAPACK sees the
            # same input and the Forster floats are bit-identical
            for got, want in ((cols, ref), (rows, ref.T), (kernel, ref.T)):
                assert got.dtype == want.dtype and got.strides == want.strides
                assert np.array_equal(got, want)
            assert forster_bound(cols) == forster_bound(ref)
            assert forster_bound(rows) == forster_bound(ref.T)


def test_forster_of_topes_random_rank_d():
    # sign rank of the tope matrices is bounded through the monotone rank
    from monorank import difference_topes, random_representation

    for d in (1, 2, 3):
        for seed in range(8):
            rep = random_representation(5, 4, d, seed=seed)
            f_thresh = forster_bound(
                sign_matrix_with_columns(threshold_topes(rep.matrix))
            )
            f_diff = forster_bound(sign_matrix_with_rows(difference_topes(rep.matrix)))
            assert f_thresh <= d + 1 + 1e-9
            assert f_diff <= d + 1e-9
