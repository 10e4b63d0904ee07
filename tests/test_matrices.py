import numpy as np
import pytest

from monorank import (
    FormatError,
    GenericityError,
    check_generic,
    column_permutations,
    format_matrix_csv,
    parse_matrix,
    perturb_ties,
)

from .fixtures import DISTORTION_A, a1_csv


def test_parse_small():
    assert np.array_equal(parse_matrix("1,2\n3,4"), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_a1_fixture():
    assert np.allclose(parse_matrix(a1_csv()), DISTORTION_A)


def test_parse_ragged():
    with pytest.raises(FormatError):
        parse_matrix("1,2\n3")


def test_parse_bad_field_location():
    with pytest.raises(FormatError, match="row 2, column 2"):
        parse_matrix("1,2\n3,x")


def test_parse_header_autodetect():
    m = parse_matrix("alpha,beta\r\n1,2\r\n3,4\r\n")
    assert np.array_equal(m, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_rejects_nonfinite():
    with pytest.raises(FormatError):
        parse_matrix("1,inf\n2,3")


def test_csv_roundtrip():
    m = np.array([[1.25, -3.5], [0.1, 2.0]])
    assert np.array_equal(parse_matrix(format_matrix_csv(m)), m)


def test_column_permutation_a1_first_column():
    assert column_permutations(DISTORTION_A)[0] == (2, 3, 1, 4)


def test_column_permutation_identity():
    m = np.arange(1.0, 6.0).reshape(5, 1)
    assert column_permutations(m) == [(1, 2, 3, 4, 5)]


def test_column_permutations_monotone_invariance():
    perms = column_permutations(DISTORTION_A)
    exp = np.exp(DISTORTION_A / 10.0)
    cubic = DISTORTION_A**3 + DISTORTION_A
    assert column_permutations(exp) == perms
    assert column_permutations(cubic) == perms
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((6, 4)) * 3
        base = column_permutations(m)
        distorted = np.empty_like(m)
        for j in range(m.shape[1]):
            # random strictly increasing piecewise-linear map covering the data
            knots = np.sort(rng.uniform(-12, 12, 5))
            vals = np.cumsum(rng.uniform(0.05, 1.0, 5))
            lo, hi = knots[0], knots[-1]
            col = m[:, j]
            distorted[:, j] = np.interp(col, knots, vals) + np.where(
                col < lo, col - lo, 0.0
            ) + np.where(col > hi, col - hi, 0.0)
        assert column_permutations(distorted) == base


def test_column_permutations_sorted_output():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((7, 3))
    for j, perm in enumerate(column_permutations(m)):
        values = [m[i - 1, j] for i in perm]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_column_permutations_tie_error_names_location():
    with pytest.raises(GenericityError, match=r"column 1.*\{1,2\}"):
        column_permutations(np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_check_generic_a1():
    assert check_generic(DISTORTION_A).is_generic


def test_check_generic_tie():
    report = check_generic(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert report.ties == ((1, 1, 2),)


def test_check_generic_wide_tolerance():
    assert not check_generic(DISTORTION_A, tol=10.0).is_generic


def test_check_generic_rejects_negative_tol():
    with pytest.raises(ValueError):
        check_generic(DISTORTION_A, tol=-1.0)


def test_perturb_ties_breaks_ties_preserving_order():
    m = np.array([[1.0, 5.0], [1.0, 2.0], [3.0, 2.0]])
    fixed = perturb_ties(m)
    assert check_generic(fixed).is_generic
    # strict orders between originally distinct entries survive
    assert fixed[2, 0] > fixed[0, 0] and fixed[0, 1] > fixed[1, 1]
    # ties break upward by row index
    assert fixed[1, 0] > fixed[0, 0]


def test_perturb_ties_below_one_ulp_of_a_relative_gap():
    # the smallest gap is 1 and the entries near 1.6e9, where one ulp is 2.4e-7
    m = np.array([[1600000000.0], [1600000000.0], [1600000001.0]])
    fixed = perturb_ties(m)
    assert check_generic(fixed).is_generic
    assert fixed[0, 0] < fixed[1, 0] < fixed[2, 0]


def test_perturb_ties_separates_near_ties_at_tolerance():
    m = np.array([[1.0, 4.0], [1.05, 4.0], [1.08, 4.0], [3.0, 0.0]])
    fixed = perturb_ties(m, tol=0.1)
    assert check_generic(fixed, tol=0.1).is_generic
    for j in range(m.shape[1]):
        assert column_permutations(fixed)[j] == tuple(
            int(i) + 1 for i in np.argsort(m[:, j], kind="stable")
        )
    # entries already more than tol above their predecessor stay put
    assert fixed[0, 0] == 1.0 and fixed[3, 0] == 3.0 and fixed[3, 1] == 0.0
