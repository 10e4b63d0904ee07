import math
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monorank
from monorank import (
    AllowableSequence,
    DomainError,
    FormatError,
    GenericityError,
    HyperplaneArrangement,
    MonotoneDistortion,
    PointArrangement,
    ResourceLimitError,
    SignVector,
    SignVectorSet,
    TieReport,
    build_report,
    check_generic,
    column_permutations,
    difference_topes,
    difference_vector,
    format_matrix_csv,
    forster_bound,
    hadamard,
    om_completion_rank_of_matrix,
    parse_matrix,
    perturb_ties,
    radon_rank,
    random_representation,
    shatters,
    singular_values,
    spectral_norm,
    threshold_topes,
    threshold_vector,
    uniform_completion,
    vc_rank,
)
from monorank.errors import _shown
from monorank.matrices import _matrix_with_orders, _next_untied, _require_generic

from .fixtures import DISTORTION_A, a1_csv, oracle_matrices


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,nan\n2,3", "row 1, column 2: non-finite entry"),
        ("1,2\n-inf,3", "row 2, column 1: non-finite entry"),
        ("1,2\n3,1e400", "row 2, column 2: non-finite entry"),
        ("a,b\n1,NaN", "row 2, column 2: non-finite entry"),
        # the first bad field of a row is reported, non-finite or not
        ("1,2,3\n4,inf,x", "row 2, column 2: non-finite entry"),
        ("1,2,3\n4,x,inf", "row 2, column 2: cannot parse 'x'"),
    ],
)
def test_parse_nonfinite_error_text(text, message):
    with pytest.raises(FormatError) as info:
        parse_matrix(text)
    assert str(info.value) == message


def test_matrix_with_orders_inverts_column_permutations():
    rng = np.random.default_rng(25)
    for m, k in [(1, 1), (2, 5), (6, 3), (11, 11), (40, 2)]:
        perms = [tuple((rng.permutation(m) + 1).tolist()) for _ in range(k)]
        matrix = _matrix_with_orders(perms)
        assert matrix.dtype == np.float64 and matrix.shape == (m, k)
        assert column_permutations(matrix) == perms
        # 0-based orders give the same matrix
        zero_based = np.array(perms) - 1
        assert _matrix_with_orders(zero_based).tobytes() == matrix.tobytes()
        # and the values are 1..m in every column
        assert (np.sort(matrix, axis=0) == np.arange(1.0, m + 1)[:, None]).all()


def test_csv_roundtrip():
    m = np.array([[1.25, -3.5], [0.1, 2.0]])
    assert np.array_equal(parse_matrix(format_matrix_csv(m)), m)


def _is_number(field: str) -> bool:
    # the oracle's own header rule, kept apart from the parser it checks:
    # non-finite tokens count as numbers, so they reach the finiteness check
    try:
        float(field)
    except ValueError:
        return False
    return True


def field_loop_parse_matrix(text: str) -> np.ndarray:
    """Reference oracle: the former parser, one float() per stripped field."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix input")
    start = 0
    first = [f.strip() for f in lines[0].split(",")]
    if not all(_is_number(f) for f in first):
        start = 1
        if len(lines) == 1:
            raise FormatError("header row present but no data rows")
    rows, width = [], None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(f"row {lineno}: expected {width} fields, found {len(fields)}")
        row = []
        for col, field in enumerate(fields, start=1):
            try:
                value = float(field)
            except ValueError:
                raise FormatError(f"row {lineno}, column {col}: cannot parse {field!r}") from None
            if not math.isfinite(value):
                raise FormatError(f"row {lineno}, column {col}: non-finite entry")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float)


def test_parse_is_bit_identical_to_float_on_formatted_matrices():
    rng = np.random.default_rng(16)
    specials = [5e-324, -2.2250738585072014e-308 / 3, -0.0, 0.0, 1e308, -1e308, 2.0**-1074]
    for shape in [(1, 1), (3, 7), (10, 10), (40, 3)]:
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        m.flat[: len(specials)] = specials[: m.size]
        text = format_matrix_csv(m)
        got = parse_matrix(text)
        want = np.array(
            [[float(f) for f in line.split(",")] for line in text.splitlines()], dtype=float
        )
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes() == m.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "alpha,beta\n1,2\n3,4\n",
        "1,2\r\n3,4\r\n",
        "a,b\r\n\r\n1,2\r\n",
        "1_000,2\n3,4_5.5",
        " 1 , 2\t\n\t3,  4 ",
        "1\u2003,\u00a02\n3,4",
        "1\x1f,2\n3,4",
        "5\n",
        "1,2\n3",
        "1,2\n3,4,5\n6,7",
        "1,2\n3,x",
        "1,2\n3,",
        "1,,2\n3,4,5",
        "1,2\n3,4\n5,6,nan",
        "1,nan\n2,3",
        "1,2\n-inf,3",
        "1,2\n3,1e400",
        "a,b\n1,NaN",
        "1,2,3\n4,inf,x",
        "1,2,3\n4,x,inf",
        "1,2\n3,4\n5,x,7",
        "header only",
        "",
        "\n \n",
    ],
)
def test_parse_matches_field_loop(text):
    try:
        want = field_loop_parse_matrix(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            parse_matrix(text)
        assert str(info.value) == str(exc)
    else:
        got = parse_matrix(text)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_column_permutations_match_per_column_reference():
    for a in oracle_matrices():
        want = [
            tuple(int(i) + 1 for i in np.argsort(a[:, j], kind="stable"))
            for j in range(a.shape[1])
        ]
        got = column_permutations(a)
        assert got == want
        assert all(type(i) is int for perm in got for i in perm)


def test_check_generic_a1():
    assert check_generic(DISTORTION_A).is_generic


def test_check_generic_tie():
    report = check_generic(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert report.ties == ((1, 1, 2),)


def test_check_generic_wide_tolerance():
    assert not check_generic(DISTORTION_A, tol=10.0).is_generic


def test_check_generic_rejects_negative_tol():
    with pytest.raises(DomainError):
        check_generic(DISTORTION_A, tol=-1.0)


def pairwise_check_generic(matrix: np.ndarray, tol: float = 0.0) -> TieReport:
    """Reference oracle: the former scan, which walks every column's stable
    sort and lists each entry's successors within tol."""
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    ties = []
    for j in range(n):
        col = a[:, j]
        order = np.argsort(col, kind="stable")
        for ai in range(m):
            for ak in range(ai + 1, m):
                i, k = int(order[ai]), int(order[ak])
                if abs(col[k] - col[i]) <= tol:
                    ties.append((j + 1, min(i, k) + 1, max(i, k) + 1))
                else:
                    break
    return TieReport(tolerance=tol, ties=tuple(sorted(ties)))


# small integers tie often; 1 and its float neighbours, and 1.1 / 1.25,
# sit at or just around the tolerances below
_entries = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([1.0, *(float(np.nextafter(1.0, x)) for x in (0.0, 2.0)), 1.1, 1.25]),
)
_matrices = st.tuples(st.integers(1, 7), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        _entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda xs: np.array(xs).reshape(shape))
)
_tolerances = st.sampled_from([0.0, 2.3e-16, 1e-12, 0.1, 0.25, 0.5, 1.0, 3.0])


@settings(max_examples=400, deadline=None)
@given(_matrices, _tolerances)
def test_check_generic_matches_pairwise_reference(a, tol):
    assert check_generic(a, tol) == pairwise_check_generic(a, tol)


@pytest.mark.parametrize(
    "column, ties", [([-1e308, 1e308], ()), ([-1e308, 1e308, 1e308], ((1, 2, 3),))]
)
def test_check_generic_gap_past_the_largest_float(column, ties):
    # the gap 2e308 overflows to inf, untied; numpy used to warn about it,
    # once in the adjacent gaps and once more in the pair loop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_generic(np.array(column)[:, None])
    assert report.ties == ties


class Crawl(Exception):
    pass


def stepping_perturb_ties(matrix: np.ndarray, tol: float, max_steps: int) -> np.ndarray:
    """Reference oracle: the former loop, which raises a tied entry one
    float at a time; Crawl when an entry needs more than max_steps."""
    a = np.array(matrix, dtype=float)
    for j, col in enumerate(a.T):
        below = -math.inf
        for i in np.argsort(col, kind="stable").tolist():
            x = float(col[i])
            for _ in range(max_steps + 1):
                if x - below > tol:
                    break
                x = math.nextafter(max(x, below + tol), math.inf)
            else:
                raise Crawl
            if x == math.inf:
                raise DomainError(f"tolerance {tol!r} overflows column {j + 1}")
            col[i] = below = x
    return a


def test_perturb_ties_matches_the_stepping_loop():
    rng = np.random.default_rng(13)
    scales = [1.0, 1e-3, 1e3, 1e15, 1e-300]
    tols = [0.0]
    tols += [f * s for s in (1e-3, 1.0, 1e3, 1e15) for f in (0.5, 0.9999999, 1.5)]
    compared = 0
    for _ in range(1500):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        a = rng.integers(-3, 4, size=shape) * scales[rng.integers(len(scales))]
        tol = tols[rng.integers(len(tols))]
        try:
            want = stepping_perturb_ties(a, tol, 20_000)
        except Crawl:
            continue
        got = perturb_ties(a, tol)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        compared += 1
    assert compared > 1400


@pytest.mark.parametrize(
    "entry, tol, want",
    [
        (-1.0, 0.9999999, -9.999999989185326e-08),
        (-1e6, 999999.9999, -9.99998883344233e-05),
    ],
)
def test_perturb_ties_does_not_crawl(entry, tol, want):
    # x - below rounds at the ulp of below, far coarser than the floats
    # near the result, which one-float steps took 4.2e6 and about 4.3e9 of;
    # a subprocess with a timeout fails instead of hanging on such a walk
    code = (
        "import numpy as np; from monorank import perturb_ties; "
        f"a = perturb_ties(np.array([[{entry!r}], [{entry!r}]]), {tol!r}); "
        "print(repr(float(a[1, 0])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(monorank.__file__).parent.parent)},
        timeout=60,
    )
    assert float(out.stdout) == want


def _float_rank(x: float) -> int:
    """The position of x in the order of the floats, 0 at +-0.0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def _rank_float(rank: int) -> float:
    bits = rank if rank >= 0 else -(1 << 63) - rank
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def bisecting_next_untied(start: float, below: float, tol: float) -> float:
    """Reference oracle: the former search, which bisects the order of the
    floats above `start` for the first whose computed difference from
    `below` exceeds tol; unlike the stepping loop it never crawls."""
    lo, hi = _float_rank(start), _float_rank(math.inf)  # hi is untied
    mid = lo + 1
    while hi - lo > 1:
        if _rank_float(mid) - below > tol:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) // 2
    return _rank_float(hi)


def test_next_untied_matches_the_bisection():
    rng = random.Random(31)
    big = sys.float_info.max
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 0.5, 1.0, -1.0, 1.7e308, -1.7e308, big, -big]

    def number():
        r = rng.random()
        if r < 0.2:
            return rng.choice(special)
        if r < 0.5:  # decimal magnitudes over the whole range
            return rng.choice([-1, 1]) * rng.random() * 10.0 ** rng.randint(-320, 308)
        if r < 0.7:  # small multiples of powers of two, where ties round to even
            return rng.randint(-5, 5) * 2.0 ** rng.randint(-1074, 1000)
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        return x if math.isfinite(x) else 0.0

    # both crawl cases of test_perturb_ties_does_not_crawl, as perturb_ties asks
    triples = [(-1.0 + 0.9999999, -1.0, 0.9999999), (-1e6 + 999999.9999, -1e6, 999999.9999)]
    while len(triples) < 50_000:
        below, tol = number(), abs(number())
        # perturb_ties starts at below + tol; other starts test the max
        start = below + tol if rng.random() < 0.6 else rng.choice([below, number()])
        triples.append((start, below, tol))
    for start, below, tol in triples:
        want = bisecting_next_untied(start, below, tol)
        got = _next_untied(start, below, tol)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), (start, below, tol)


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


NOT_A_FINITE_MATRIX = {
    "nan": np.array([[1.0, 2.0], [np.nan, 3.0]]),
    "+inf": np.array([[1.0, 2.0], [np.inf, 3.0]]),
    "inf tie": np.array([[np.inf, 1.0], [np.inf, 2.0], [0.0, 3.0]]),
    "1-d": np.array([1.0, 2.0]),
    "3-d": np.arange(8.0).reshape(2, 2, 2),
    "no rows": np.zeros((0, 3)),
    "no columns": np.zeros((3, 0)),
}

MATRIX_ENTRY_POINTS = {
    "check_generic": check_generic,
    "_require_generic": _require_generic,
    "column_permutations": column_permutations,
    "threshold_topes": threshold_topes,
    "difference_topes": difference_topes,
    "radon_rank": radon_rank,
    "vc_rank": vc_rank,
    "build_report": build_report,
    "om_completion_rank_of_matrix": lambda a: om_completion_rank_of_matrix(a, 2),
    "perturb_ties": perturb_ties,
    "threshold_vector": lambda a: threshold_vector(a, 1, 0.5),
    "difference_vector": lambda a: difference_vector(a, 1, 2),
    "singular_values": singular_values,
    "spectral_norm": spectral_norm,
    "forster_bound": forster_bound,
    # a 1-d array is one point or normal, so arrangements skip that case
    "PointArrangement": lambda a: PointArrangement(np.shape(a)[-1], a),
    "HyperplaneArrangement": lambda a: HyperplaneArrangement(np.shape(a)[-1], a),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in MATRIX_ENTRY_POINTS
        for case in NOT_A_FINITE_MATRIX
        if not (entry.endswith("Arrangement") and case == "1-d")
    ],
)
def test_entry_points_reject_a_matrix_that_is_not_finite_2d_nonempty(entry, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            MATRIX_ENTRY_POINTS[entry](NOT_A_FINITE_MATRIX[case])


@pytest.mark.parametrize(
    "tol",
    [-1.0, float("nan"), float("inf"), -float("inf")]
    # past the float range, or not a number: these leaked OverflowError or TypeError
    + [10**400, -(10**400), Fraction(10**400, 3), "0.1", None],
)
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tolerance used to call an exact tie untied
    tied = np.array([[1.0, 1.0], [1.0, 2.0]])
    for check in (check_generic, _require_generic):
        with pytest.raises(DomainError, match="tolerance"):
            check(tied, tol)
    with pytest.raises(DomainError, match="tolerance"):
        build_report(tied, tie_tolerance=tol)
    if tol != float("inf"):  # an infinite tolerance used to loop forever here
        with pytest.raises(DomainError, match="tolerance"):
            perturb_ties(tied, tol)


def test_perturb_ties_refuses_to_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows column 2"):
            perturb_ties(np.array([[1.0, 1e308], [2.0, 1e308]]), 1e308)
        fixed = perturb_ties(np.array([[1e308], [1e308]]), 1e307)
    assert np.isfinite(fixed).all() and check_generic(fixed, 1e307).is_generic


BIG = 10**5000  # past the 4,300 digits Python prints of an int
_STRINGS = SignVectorSet.from_strings(["++-", "--+", "+-+", "-+-"])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: MonotoneDistortion(BIG),
            DomainError,
            "unknown distortion kind an integer of 5001 digits",
        ),
        (
            lambda: hadamard(BIG),
            ResourceLimitError,
            "hadamard order an integer of 5001 digits exceeds guard 12",
        ),
        (
            lambda: uniform_completion(_STRINGS, BIG),
            DomainError,
            "rank must be in [1, 2], got an integer of 5001 digits",
        ),
        (
            lambda: random_representation(3, 3, 2, -BIG),
            DomainError,
            "seed must be an integer >= 0, got a negative integer of 5001 digits",
        ),
        (
            lambda: uniform_completion(_STRINGS, 2, max_ground=-BIG),
            ResourceLimitError,
            "ground set size 3 exceeds completion guard a negative integer of 5001 digits",
        ),
        (
            lambda: MonotoneDistortion("identity", (BIG,)),
            DomainError,
            "identity expects 0 parameters, got a tuple holding an integer too long to print",
        ),
        (
            lambda: hadamard(Fraction(BIG, 3)),
            DomainError,
            "hadamard order must be an integer, "
            "got a Fraction holding an integer too long to print",
        ),
        (
            lambda: AllowableSequence([(1, BIG)]),
            DomainError,
            "a tuple holding an integer too long to print is not a permutation of 1..2",
        ),
        (
            lambda: check_generic(DISTORTION_A, BIG),
            DomainError,
            "tolerance must be a finite number >= 0, got an integer of 5001 digits",
        ),
        (
            lambda: threshold_vector(DISTORTION_A, BIG, 0.0),
            IndexError,
            "column an integer of 5001 digits outside [1..3]",
        ),
        (
            lambda: SignVector.from_string("+-").sign(-BIG),
            IndexError,
            "element a negative integer of 5001 digits outside ground set [1..2]",
        ),
        (
            lambda: shatters(_STRINGS, [1, BIG]),
            IndexError,
            "subset a list holding an integer too long to print outside ground set [1..3]",
        ),
    ],
)
def test_refusals_show_an_integer_too_long_to_print_by_its_digits(call, error, message):
    # each leaked "ValueError: Exceeds the limit (4300 digits) for integer
    # string conversion" from formatting its message
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_shown_values_are_their_repr_where_python_prints_them():
    limit = sys.get_int_max_str_digits()
    for value in (0, -7, 10**limit - 1, -(10**limit - 1), 1.5, "3", None, (1, 2), np.int64(3)):
        assert _shown(value) == repr(value)
    for digits in (limit + 1, limit + 2, 5001, 6021):
        for value in (10 ** (digits - 1), 10**digits - 1, -(10 ** (digits - 1))):
            sign = "a negative" if value < 0 else "an"
            assert _shown(value) == f"{sign} integer of {digits} digits"
    assert _shown(2**20000) == "an integer of 6021 digits"
