import itertools
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog, milp

from monorank import (
    AllowableSequence,
    DomainError,
    HyperplaneArrangement,
    MonotoneDistortion,
    PointArrangement,
    ResourceLimitError,
    check_circuit_axioms,
    column_permutations,
    hyperplane_topes,
    is_rank2_topes,
    matrix_from_allowable,
    point_circuits,
    point_topes,
    radon_rank,
    random_representation,
    realize_matrix,
    sweep_permutations,
    threshold_topes,
    validate_allowable,
    vc_dimension,
)

from monorank import CircuitCandidateSet, SignVector, SignVectorSet, arrangements
from monorank.arrangements import _POSITION_TOL
from monorank.spectral import _HADAMARD_BYTES

from .fixtures import DISTORTION_A, DISTORTION_B, NORMALS_B, POINTS_B


# -- realization -------------------------------------------------------------


def test_realize_recovers_distortion_fixture():
    pts = PointArrangement(2, POINTS_B)
    normals = HyperplaneArrangement(2, NORMALS_B)
    assert np.allclose(pts.points @ normals.normals.T, DISTORTION_B, atol=1e-12)
    fs = [MonotoneDistortion.exp_scale(10.0)] * 3
    realized = realize_matrix(pts, normals, fs)
    assert np.max(np.abs(realized - DISTORTION_A)) <= 1e-2


def test_realize_identity_is_inner_products():
    rep = random_representation(4, 3, 2, seed=1, identity_distortions=True)
    assert np.allclose(rep.matrix, rep.points.points @ rep.normals.normals.T)


def test_realize_dimension_mismatch():
    from monorank import DimensionMismatchError

    pts = PointArrangement(2, [[0.0, 1.0]])
    normals = HyperplaneArrangement(3, [[1.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        realize_matrix(pts, normals, [MonotoneDistortion.identity()])


def test_random_representation_bounds():
    for seed in range(5):
        rep = random_representation(5, 4, 2, seed=seed)
        assert radon_rank(rep.matrix) <= 2


def test_random_representation_deterministic():
    a = random_representation(4, 3, 2, seed=42)
    b = random_representation(4, 3, 2, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.points.points, b.points.points)
    assert a.distortions == b.distortions


@pytest.mark.parametrize(
    "seed", [-1, -(2**70), 1.5, 3.0, float("nan"), "3", None, np.int64(-1), np.float64(2.0)]
)
def test_random_representation_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        random_representation(3, 3, 2, seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5), np.int32(5)])
def test_random_representation_takes_numpy_integer_seeds(seed):
    a, b = random_representation(4, 3, 2, seed), random_representation(4, 3, 2, 5)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.distortions == b.distortions


def test_random_representation_takes_seeds_past_a_machine_word():
    a = random_representation(4, 3, 2, 2**70)
    assert np.array_equal(a.matrix, random_representation(4, 3, 2, 2**70).matrix)
    assert not np.array_equal(a.matrix, random_representation(4, 3, 2, 0).matrix)


def test_random_representation_rank1_single_sweep_order():
    for seed in range(8):
        rep = random_representation(6, 4, 1, seed=seed)
        perms = column_permutations(rep.matrix)
        base = perms[0]
        assert all(p == base or p == tuple(reversed(base)) for p in perms)


def test_monotone_distortions_increasing():
    xs = np.linspace(-5, 5, 101)
    for f in (
        MonotoneDistortion.identity(),
        MonotoneDistortion.exp_scale(2.5),
        MonotoneDistortion.power_odd(3),
        MonotoneDistortion.piecewise_linear([-1.0, 0.0, 2.0], [0.0, 0.5, 4.0]),
    ):
        ys = f(xs)
        assert np.all(np.diff(ys) > 0)


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        MonotoneDistortion.piecewise_linear([0.0, 1.0], [1.0, 0.5])


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("exp-scale", (-1.0,), "exp-scale parameter must be positive"),
        ("exp-scale", (0.0,), "exp-scale parameter must be positive"),
        ("exp-scale", (math.inf,), "exp-scale parameter must be positive and finite"),
        ("power-odd", (0,), "power-odd exponent must be odd and positive"),
        ("power-odd", (2,), "power-odd exponent must be odd and positive"),
        ("piecewise-linear", ((0.0, 1.0), (1.0, 0.5)), "values must be strictly increasing"),
        ("piecewise-linear", ((1.0, 0.0), (0.0, 1.0)), "breakpoints must be strictly increasing"),
        ("piecewise-linear", ((0.0, 1.0), (0.0, math.nan)), "must be finite"),
        ("piecewise-linear", ((0.0,), (0.0,)), "at least two matching breakpoints"),
        ("cubic", (), "unknown distortion kind 'cubic'"),
        ("exp-scale", (), r"exp-scale expects 1 parameters, got \(\)"),
        # parameters the constructor cannot normalise
        ("exp-scale", ("2",), r"exp-scale parameters must be real numbers, got \('2',\)"),
        ("exp-scale", (None,), "exp-scale parameters must be real numbers"),
        ("exp-scale", (1 + 2j,), "exp-scale parameters must be real numbers"),
        ("exp-scale", 2.0, "exp-scale parameters must be a sequence, got 2.0"),
        ("power-odd", ("3",), "power-odd exponent must be an integer, got '3'"),
        ("power-odd", (3.5,), "power-odd exponent must be an integer, got 3.5"),
        ("piecewise-linear", ("ab", "cd"), "breakpoints must be real numbers, got 'ab'"),
        ("piecewise-linear", ((0.0, 1.0), "cd"), "values must be real numbers, got 'cd'"),
        ("piecewise-linear", (1.0, 2.0), "breakpoints must be a sequence, got 1.0"),
        # a kind that is not a string, and integers past the float range,
        # which leaked TypeError and OverflowError (power-odd only when called)
        (["x"], (), r"unknown distortion kind \['x'\]"),
        (None, (), "unknown distortion kind None"),
        ("exp-scale", (10**400,), "exp-scale parameters must fit in a float"),
        ("piecewise-linear", ((0, 10**400), (0, 1)), "breakpoints must fit in a float"),
        ("piecewise-linear", ((0, 1), (0, 10**5000)), "values must fit in a float"),
        ("power-odd", (10**400 + 1,), "power-odd exponent must fit in a float"),
    ],
)
def test_distortion_constructor_checks_its_parameters(kind, params, message):
    # each would be a map that decreases somewhere, is constant, is not
    # defined everywhere, or (an unknown kind) fails only when called; the
    # last rows once leaked a TypeError or ValueError instead
    with pytest.raises(DomainError, match=message):
        MonotoneDistortion(kind, params)


def test_distortion_classmethods_normalise_before_the_check():
    assert MonotoneDistortion.exp_scale(2) == MonotoneDistortion("exp-scale", (2.0,))
    for k in (3.0, np.int64(3), np.float64(3.0)):
        assert MonotoneDistortion.power_odd(k).params == (3,)
        assert type(MonotoneDistortion.power_odd(k).params[0]) is int
    f = MonotoneDistortion.piecewise_linear([0, 1], np.array([0, 2]))
    assert f.params == ((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(DomainError, match="exp-scale parameter must be positive"):
        MonotoneDistortion.exp_scale(0)


@pytest.mark.parametrize(
    "k",
    [
        *(3.5, 1.9, -0.5, math.nan, math.inf, -math.inf, np.float64(2.5), "3", None),
        # their floats are 1.0 and 3.0
        *(Fraction(10**30 + 1, 10**30), Fraction(3 * 10**20 + 1, 10**20)),
    ],
)
def test_power_odd_refuses_an_exponent_that_is_not_an_integer(k):
    # truncating 3.5 to 3 would record an exponent the caller did not give
    with pytest.raises(DomainError, match="power-odd exponent must be an integer"):
        MonotoneDistortion.power_odd(k)


@pytest.mark.parametrize(
    "params, want",
    [
        ([1.0], (1.0,)),
        ((np.float32(2.0),), (2.0,)),
        ((np.int64(2),), (2.0,)),
        (np.array([3.0]), (3.0,)),
    ],
)
def test_distortion_constructor_normalises_an_exp_scale(params, want):
    f = MonotoneDistortion("exp-scale", params)
    assert f.params == want and type(f.params) is tuple and type(f.params[0]) is float
    assert hash(f) == hash(MonotoneDistortion.exp_scale(want[0]))
    assert json.dumps(f.as_dict()) == json.dumps(MonotoneDistortion.exp_scale(want[0]).as_dict())


@pytest.mark.parametrize("k", [3, 3.0, np.int64(3), np.float64(3.0), np.int8(3), Fraction(3)])
def test_distortion_constructor_normalises_a_power_odd_exponent(k):
    f = MonotoneDistortion("power-odd", (k,))
    assert f.params == (3,) and type(f.params[0]) is int
    assert hash(f) == hash(MonotoneDistortion.power_odd(3))
    assert json.dumps(f.as_dict()) == '{"kind": "power-odd", "params": [3]}'


def test_distortion_constructor_normalises_piecewise_linear_parameters():
    for params in [([0, 1], [0, 2]), (np.array([0, 1]), (np.float32(0), 2)), [range(2), [0, 2]]]:
        f = MonotoneDistortion("piecewise-linear", params)
        assert f.params == ((0.0, 1.0), (0.0, 2.0))
        assert all(type(x) is float for part in f.params for x in part)
        assert hash(f) == hash(MonotoneDistortion.piecewise_linear([0.0, 1.0], [0.0, 2.0]))
        assert json.loads(json.dumps(f.as_dict())) == {
            "kind": "piecewise-linear",
            "params": [[0.0, 1.0], [0.0, 2.0]],
        }


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2.0, 3, 2, 1), {}, "m must be an integer, got 2.0"),
        ((2.0, 3, 2, 1), {"identity_distortions": True}, "m must be an integer, got 2.0"),
        ((2, 3.0, 2, 1), {}, "n must be an integer, got 3.0"),
        ((2, 3, 2.5, 1), {}, "d must be an integer, got 2.5"),
        ((2, "3", 2, 1), {}, "n must be an integer, got '3'"),
    ],
)
def test_random_representation_refuses_sizes_that_are_not_integers(args, kwargs, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        random_representation(*args, **kwargs)


@pytest.mark.parametrize(
    "m, n, d",
    [
        (10**30, 3, 2),
        # 8 bytes past the budget in each of the three arrays
        (_HADAMARD_BYTES // 8 + 1, 1, 1),
        (1, _HADAMARD_BYTES // 8 + 1, 1),
        (1, 1, _HADAMARD_BYTES // 8 + 1),
    ],
)
def test_random_representation_refuses_sizes_past_the_array_budget(m, n, d):
    # refused before numpy allocates anything, or fails to
    with pytest.raises(ResourceLimitError, match=f"{_HADAMARD_BYTES}-byte array guard"):
        random_representation(m, n, d, 0)


def test_random_representation_takes_numpy_integer_sizes():
    a = random_representation(np.int64(4), np.int32(3), np.uint8(2), 7)
    b = random_representation(4, 3, 2, 7)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.distortions == b.distortions


# -- topes of arrangements ----------------------------------------------------


def test_point_topes_affinely_independent_triangle():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(point_topes(pts)) == 8


def test_point_topes_square_is_cube_minus_radon_pair():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    topes = point_topes(pts)
    got = set(topes.strings())
    everything = {"".join(s) for s in itertools.product("+-", repeat=4)}
    assert got == everything - {"+-+-", "-+-+"}


def test_point_topes_collinear_middle_point():
    pts = PointArrangement(1, [[0.0], [1.0], [2.0]])
    strings = set(point_topes(pts).strings())
    assert "+-+" not in strings and "-+-" not in strings
    assert "++-" in strings


def test_hyperplane_topes_two_independent_normals():
    arr = HyperplaneArrangement(2, [[1.0, 0.0], [0.0, 1.0]])
    assert len(hyperplane_topes(arr)) == 4


def test_hyperplane_topes_three_generic_normals_rank2_cycle():
    arr = HyperplaneArrangement(2, [[1.0, 0.2], [-0.3, 1.0], [1.0, 1.0]])
    topes = hyperplane_topes(arr)
    assert len(topes) == 6
    assert is_rank2_topes(topes)


def test_tope_vc_dimension_senses_dimension():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        pts = PointArrangement(d, rng.standard_normal((d + 3, d)))
        assert vc_dimension(point_topes(pts)) == d + 1
    for d in (2, 3):
        arr = HyperplaneArrangement(d, rng.standard_normal((d + 2, d)))
        assert vc_dimension(hyperplane_topes(arr)) == d


def test_threshold_topes_inside_point_topes():
    for seed in range(5):
        rep = random_representation(5, 3, 2, seed=seed)
        pt = point_topes(rep.points)
        assert all(v in pt for v in threshold_topes(rep.matrix))


def test_tope_guard():
    pts = PointArrangement(1, np.arange(25.0).reshape(-1, 1))
    normals = HyperplaneArrangement(1, np.ones((25, 1)))
    for oracle, option, arrangement, noun in [
        (point_topes, "max_points", pts, "points"),
        (hyperplane_topes, "max_normals", normals, "normals"),
        (point_circuits, "max_points", pts, "points"),
    ]:
        with pytest.raises(ResourceLimitError) as info:
            oracle(arrangement)
        assert str(info.value) == f"25 {noun} exceeds enumeration guard 20"
        assert len(oracle(arrangement, **{option: 25})) > 0


_FIVE_POINTS = PointArrangement(2, [[0, 0], [1, 0], [0, 1], [1, 2], [3, 1]])
_FIVE_NORMALS = HyperplaneArrangement(2, [[1, 0.2], [-0.3, 1], [1, 1], [2, -1], [0.5, 3]])
_GUARDED = [
    (point_topes, "max_points", "points", _FIVE_POINTS),
    (hyperplane_topes, "max_normals", "normals", _FIVE_NORMALS),
    (point_circuits, "max_points", "points", _FIVE_POINTS),
]


@pytest.mark.parametrize("oracle, option, noun, arrangement", _GUARDED)
@pytest.mark.parametrize("limit", ["9", 4.5, 9.0, None])
def test_oracle_guards_that_are_not_integers_are_domain_errors(
    oracle, option, noun, arrangement, limit
):
    # these leaked TypeError from the comparison, or were compared as floats
    with pytest.raises(DomainError) as info:
        oracle(arrangement, **{option: limit})
    assert str(info.value) == f"{option} must be an integer, got {limit!r}"
    assert oracle(arrangement, **{option: np.int64(5)}) == oracle(arrangement)


@pytest.mark.parametrize("oracle, option, noun, arrangement", _GUARDED)
def test_oracle_guards_refuse_one_past_the_limit_and_pass_the_limit(
    oracle, option, noun, arrangement
):
    with pytest.raises(ResourceLimitError) as info:
        oracle(arrangement, **{option: 4})
    assert str(info.value) == f"5 {noun} exceeds enumeration guard 4"
    assert oracle(arrangement, **{option: 5}) == oracle(arrangement)


# -- tope enumeration against the all-halves reference -------------------------

_FLIP = str.maketrans("+-", "-+")


def one_margin(rows, signs):
    """The largest t with s_i (row_i · x) >= t over the box ||x||_inf <= 1,
    from one LP over one sign vector."""
    k, cols = rows.shape
    a_ub = np.hstack([-signs[:, None] * rows, np.ones((k, 1))])
    c = np.zeros(cols + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * cols + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


def reference_topes(rows, affine, margin=1e-7):
    """Tope strings from one separation LP per sign half (last element +):
    the largest t with s_i (row_i · h - theta) >= t over the box
    ||(h, theta)||_inf <= 1 must exceed `margin`."""
    if affine:
        rows = np.hstack([rows, -np.ones((len(rows), 1))])
    found = set()
    for rest in itertools.product((1.0, -1.0), repeat=len(rows) - 1):
        signs = np.array(rest + (1.0,))
        if one_margin(rows, signs) > margin:
            tope = "".join("+" if s > 0 else "-" for s in signs)
            found |= {tope, tope.translate(_FLIP)}
    return found


def _random_arrangements(d):
    rng = np.random.default_rng(100 + d)
    for m in (2, 5, 8):
        yield PointArrangement(d, rng.standard_normal((m, d)))
        yield HyperplaneArrangement(d, rng.standard_normal((m, d)))


def _topes(arrangement):
    if isinstance(arrangement, PointArrangement):
        return point_topes(arrangement)
    return hyperplane_topes(arrangement)


def _rows(arrangement):
    if isinstance(arrangement, PointArrangement):
        return arrangement.points, True
    return arrangement.normals, False


@pytest.mark.parametrize("d", [1, 2, 3])
def test_topes_match_reference_random(d):
    for arrangement in _random_arrangements(d):
        expected = reference_topes(*_rows(arrangement))
        assert set(_topes(arrangement).strings()) == expected


_DEGENERATE = [
    PointArrangement(1, [[0.0], [1.0], [2.0]]),
    PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    HyperplaneArrangement(2, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    HyperplaneArrangement(3, [[1.0, 2.0, 0.5], [0.0, 1.0, 0.0], [1.0, 2.0, 0.5]]),
]


@pytest.mark.parametrize(
    "arrangement",
    _DEGENERATE,
    ids=["collinear-triple", "square", "coincident-planar", "coincident-3d"],
)
def test_topes_match_reference_degenerate(arrangement):
    assert set(_topes(arrangement).strings()) == reference_topes(*_rows(arrangement))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tope_search_lp_count(monkeypatch, d):
    # general position: no prefix of r rows or fewer reaches an LP (its
    # least-norm witness separates it), one LP call per level that needs
    # any, and at most 1 + sum_{k<m} T_k / 2 separation problems for T_k
    # topes on k elements
    calls = 0
    for arrangement in _random_arrangements(d):
        rows, affine = _rows(arrangement)
        rank = rows.shape[1] + affine
        width = rank + 1  # each problem's (x, t)
        problems, prefix_lengths = [], []

        def counting_milp(c, *, constraints, **kwargs):
            problems.append(constraints.A.shape[1] // width)
            prefix_lengths.append(constraints.A.shape[0] // problems[-1])
            return milp(c, constraints=constraints, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", counting_milp)
        _topes(arrangement)
        monkeypatch.undo()
        m = len(rows)
        # one call per prefix length, and only lengths past the rank
        assert prefix_lengths == sorted(set(prefix_lengths))
        assert set(prefix_lengths) <= set(range(rank + 1, m + 1))
        kind = type(arrangement)
        prefix_halves = sum(len(_topes(kind(d, rows[:k]))) // 2 for k in range(1, m))
        assert sum(problems) <= 1 + prefix_halves
        calls += len(problems)
    assert calls > 0  # the spy sees the search's LPs


def test_tope_search_splits_a_level_into_batches(monkeypatch):
    # a level with more problems than one call takes gets several calls
    monkeypatch.setattr(arrangements, "_LP_BLOCKS", 3)
    problems = []

    def counting_milp(c, **kwargs):
        problems.append(len(c) // 4)  # planar points: (x, t) has 4 entries
        return milp(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting_milp)
    arrangement = PointArrangement(2, np.random.default_rng(102).standard_normal((8, 2)))
    topes = set(point_topes(arrangement).strings())
    monkeypatch.undo()
    # levels 3 to 7 reach an LP, and split into calls of at most 3 problems
    assert max(problems) == 3 and problems.count(3) > 5
    assert topes == reference_topes(*_rows(arrangement))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_max_margins_match_one_problem_lps(d):
    # every block of the batched LP sits at its own problem's optimum
    rng = np.random.default_rng(300 + d)
    margin = arrangements._SEPARATION_MARGIN
    for k, blocks in [(2, 1), (3, 1), (2, 4), (4, 17), (6, 40)]:
        rows = rng.standard_normal((k, d + 1))
        rows[:, -1] = -1.0  # lifted points, so some sign vectors separate
        if k > 2:
            rows[-1] = rows[0]  # a repeated point: margin 0 where they differ
        signs = rng.choice([1.0, -1.0], size=(blocks, k))
        t, x = arrangements._max_margins(rows, signs)
        assert t.shape == (blocks,) and x.shape == (blocks, d + 1)
        expected = np.array([one_margin(rows, s) for s in signs])
        np.testing.assert_allclose(t, expected, rtol=0, atol=1e-9)
        assert np.array_equal(t > margin, expected > margin)
        # each x is in the box and attains its t
        assert np.all(np.abs(x) <= 1 + 1e-9)
        assert np.all(signs * (x @ rows.T) >= t[:, None] - 1e-9)


def test_failed_separation_lp_is_a_domain_error(monkeypatch):
    def failing_milp(*args, **kwargs):
        res = milp(*args, **kwargs)
        res.status, res.message = 4, "Numerical difficulties encountered."
        return res

    monkeypatch.setattr(scipy.optimize, "milp", failing_milp)
    # five planar points: the fourth point's prefixes reach an LP
    with pytest.raises(DomainError, match=r"^separation LP failed: Numerical difficulties"):
        point_topes(_FIVE_POINTS)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_topes_do_not_depend_on_row_scale(scale):
    # a positive factor per row changes no sign, so it changes no tope
    rng = np.random.default_rng(404)
    for arrangement in [*_random_arrangements(2), *_DEGENERATE]:
        rows, affine = _rows(arrangement)
        if affine:
            rows = np.hstack([rows, -np.ones((len(rows), 1))])
        factors = np.where(rng.random((len(rows), 1)) < 0.5, scale, 1.0)
        want = arrangements._enumerate_topes(rows, 20, "rows")
        assert arrangements._enumerate_topes(rows * factors, 20, "rows") == want
    # unscaled, the first lost every tope and the second failed its LP
    assert len(hyperplane_topes(HyperplaneArrangement(2, [[1e-150, 0], [0, 1]]))) == 4
    assert len(point_topes(PointArrangement(2, [[1e300, 0], [0, 1e300], [1, 1]]))) == 8


@pytest.mark.parametrize("shift", [1e4, -1e6])
def test_point_topes_do_not_depend_on_translation(shift):
    # moving every point by one vector changes no tope
    for arrangement in [*_random_arrangements(2), *_random_arrangements(3), *_DEGENERATE]:
        if isinstance(arrangement, PointArrangement):
            moved = PointArrangement(arrangement.dimension, arrangement.points + shift)
            assert point_topes(moved) == point_topes(arrangement)
    # a unit triangle far out, where the reference LP on the raw coordinates
    # still finds all 8 topes; dividing each lifted row by its max-norm alone
    # would cut their margins to about 1e-8 and lose half of them
    triangle = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]) + [1e4, 0.0]
    assert set(point_topes(PointArrangement(2, triangle)).strings()) == reference_topes(
        triangle, True
    )
    assert len(point_topes(PointArrangement(2, triangle + shift))) == 8


def test_hyperplane_arrangement_refuses_only_zero_normals():
    with pytest.raises(DomainError, match="^zero normal vector$"):
        HyperplaneArrangement(2, [[1.0, 0.0], [0.0, 0.0]])
    # the norms of these underflow to 0 and overflow to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for normals in ([[1e-200, 0.0], [0.0, 1.0]], [[1e300, 1e300], [0.0, 1.0]]):
            assert len(hyperplane_topes(HyperplaneArrangement(2, normals))) == 4


def test_planar_point_topes_are_sweep_prefixes():
    # LP-free oracle: a line cuts off exactly the prefixes of some sweep order
    rng = np.random.default_rng(23)
    for _ in range(6):
        pts = PointArrangement(2, rng.standard_normal((7, 2)))
        positives = {
            frozenset(i + 1 for i, s in enumerate(tope) if s == "+")
            for tope in point_topes(pts).strings()
        }
        prefixes = {
            frozenset(perm[:j]) for perm in sweep_permutations(pts) for j in range(8)
        }
        assert positives == prefixes


# -- circuits ------------------------------------------------------------------


def test_point_circuits_interior_point():
    pts = PointArrangement(
        2, [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]]
    )
    strings = set(point_circuits(pts).circuits.strings())
    assert strings == {"+++-", "---+"}


def test_point_circuits_square_diagonals():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    strings = set(point_circuits(pts).circuits.strings())
    assert strings == {"+-+-", "-+-+"}


def test_point_circuits_orthogonal_to_topes():
    rng = np.random.default_rng(7)
    pts = PointArrangement(2, rng.standard_normal((5, 2)))
    circuits = point_circuits(pts)
    topes = point_topes(pts)
    assert all(c.orthogonal(t) for c in circuits for t in topes)
    assert check_circuit_axioms(circuits).ok


def test_point_circuits_degenerate_error():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    with pytest.raises(DomainError):
        point_circuits(pts)


def test_general_position_flagging():
    assert PointArrangement(2, [[0, 0], [1, 0], [0, 1], [2, 3]]).in_general_position()
    assert not PointArrangement(
        2, [[0, 0], [1, 0], [2, 0], [0, 1]]
    ).in_general_position()


# -- stacked SVDs and column orders against the per-subset loops ---------------


def loop_point_circuits(arrangement):
    """Reference oracle: one SVD per (d+2)-subset, signs packed bit by bit."""
    pts = arrangement.points
    m, d = pts.shape
    hom = np.hstack([pts, np.ones((m, 1))])
    members = []
    for subset in itertools.combinations(range(m), d + 2):
        _, s, vt = np.linalg.svd(hom[list(subset)].T)
        names = tuple(i + 1 for i in subset)
        if s[-1] <= _POSITION_TOL * s[0]:
            raise DomainError(
                f"points {names} are affinely degenerate (null space dimension > 1)"
            )
        null = vt[-1]
        if np.min(np.abs(null)) <= _POSITION_TOL * np.max(np.abs(null)):
            raise DomainError(
                f"points {names} are not in general position (vanishing coefficient)"
            )
        pos = neg = 0
        for idx, i in enumerate(subset):
            if null[idx] > 0:
                pos |= 1 << i
            else:
                neg |= 1 << i
        members += [SignVector(m, pos, neg), SignVector(m, neg, pos)]
    return CircuitCandidateSet(m, SignVectorSet(m, members), uniform_rank=d + 1)


def loop_in_general_position(arrangement):
    """Reference oracle: one SVD per (d+1)-subset (all points when m <= d)."""
    pts = arrangement.points
    m, d = pts.shape
    subsets = itertools.combinations(range(m), d + 1) if m > d else [tuple(range(m))]
    for subset in subsets:
        sub = pts[list(subset)]
        diffs = sub[1:] - sub[0]
        if diffs.shape[0] == 0:
            continue
        s = np.linalg.svd(diffs, compute_uv=False)
        if s[-1] <= _POSITION_TOL * max(s[0], 1.0):
            return False
    return True


def loop_sweep_permutations(arrangement):
    """Reference oracle: sorted (angle, pair) criticals and one argsort per
    sweep cell."""
    pts = arrangement.points
    m = len(pts)
    criticals = []
    for i, k in itertools.combinations(range(m), 2):
        dx, dy = pts[i] - pts[k]
        if dx == 0.0 and dy == 0.0:
            raise DomainError(f"points {i + 1} and {k + 1} coincide")
        criticals.append((math.atan2(dx, -dy) % math.pi, (i + 1, k + 1)))
    criticals.sort()
    wrapped = criticals[1:] + [(criticals[0][0] + math.pi, criticals[0][1])]
    for (a1, pair1), (a2, pair2) in zip(criticals, wrapped):
        if abs(a2 - a1) <= _POSITION_TOL:
            raise DomainError(
                f"degenerate configuration: pairs {pair1} and {pair2} give "
                f"parallel connecting segments (or a collinear triple)"
            )
    angles = [a for a, _ in criticals]
    angles += [a + math.pi for a in angles]
    count = len(angles)
    perms = []
    for idx in range(count):
        a0 = angles[idx]
        a1 = angles[(idx + 1) % count] + (2 * math.pi if idx == count - 1 else 0.0)
        mid = (a0 + a1) / 2.0
        order = np.argsort(pts @ np.array([math.cos(mid), math.sin(mid)]))
        perms.append(tuple(int(i) + 1 for i in order))
    return AllowableSequence(perms)


def _outcome(fn, arrangement):
    """The result of fn, or the type and text of the DomainError it raises."""
    try:
        return fn(arrangement)
    except DomainError as exc:
        return "DomainError", str(exc)


def _oracle_arrangements():
    """Seeded point sets in dimensions 1-4 with m below, at and above d+2,
    and small-integer grids, which give collinear and coincident points."""
    rng = np.random.default_rng(61)
    for d in (1, 2, 3, 4):
        for m in range(2, d + 6):
            yield PointArrangement(d, rng.standard_normal((m, d)))
            yield PointArrangement(d, rng.integers(-2, 3, size=(m, d)).astype(float))
    yield PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    yield PointArrangement(3, np.zeros((5, 3)))
    # spread below 1: the general-position test scales by max(s0, 1)
    yield PointArrangement(2, 1e-10 * rng.standard_normal((4, 2)))


def _planar_sweep_inputs():
    # parallel segments (2, 4) and (3, 5): math.atan2 and np.arctan2 round
    # their angles in opposite orders, so the message names them in turn
    yield PointArrangement(2, [[2, 1], [2, 0], [-2, 2], [-1, 2], [1, 0]])
    rng = np.random.default_rng(62)
    for m in (2, 2, 3, 5, 7, 9):
        yield PointArrangement(2, rng.standard_normal((m, 2)))
    for _ in range(40):
        m = int(rng.integers(2, 7))
        yield PointArrangement(2, rng.integers(-3, 4, size=(m, 2)).astype(float))


def test_point_circuits_match_per_subset_loop():
    kinds = set()
    for arrangement in _oracle_arrangements():
        got = _outcome(point_circuits, arrangement)
        want = _outcome(loop_point_circuits, arrangement)
        assert got == want
        kinds.add(got[1].split(" (")[-1] if isinstance(got, tuple) else len(got) > 0)
    # empty (m < d+2) and nonempty circuit sets, and both error texts
    assert kinds == {
        False,
        True,
        "null space dimension > 1)",
        "vanishing coefficient)",
    }


def test_general_position_matches_per_subset_loop():
    flags = [
        (a.in_general_position(), loop_in_general_position(a))
        for a in _oracle_arrangements()
    ]
    assert all(got == want for got, want in flags)
    assert {got for got, _ in flags} == {True, False}


def test_sweeps_match_per_cell_loop():
    messages = set()
    for arrangement in _planar_sweep_inputs():
        got = _outcome(sweep_permutations, arrangement)
        assert got == _outcome(loop_sweep_permutations, arrangement)
        if isinstance(got, tuple):
            messages.add(got[1].split()[0])
    assert messages == {"points", "degenerate"}


# -- sweeps and allowable sequences --------------------------------------------


def test_sweep_triangle():
    pts = PointArrangement(2, [[0.0, 0.0], [2.0, 0.3], [0.7, 1.9]])
    seq = sweep_permutations(pts)
    assert len(seq) == 6 and seq.is_simple
    perms = list(seq)
    for cur, nxt in zip(perms, perms[1:] + perms[:1]):
        diff = [i for i in range(3) if cur[i] != nxt[i]]
        assert len(diff) == 2 and diff[1] == diff[0] + 1


def test_sweep_two_points():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.5]])
    assert list(sweep_permutations(pts)) == [(1, 2), (2, 1)]


def test_sweep_contains_expected_orders():
    # four points positioned so both 3214 and 3124 occur among the sweeps
    pts = PointArrangement(
        2, [[0.0, 0.3], [0.1, -0.5], [-2.0, 0.0], [2.0, 0.1]]
    )
    perms = set(sweep_permutations(pts))
    assert (3, 2, 1, 4) in perms and (3, 1, 2, 4) in perms


def test_sweep_degenerate_collinear():
    pts = PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DomainError, match="parallel|collinear"):
        sweep_permutations(pts)


def test_sweep_coincident_points():
    pts = PointArrangement(2, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DomainError, match="coincide"):
        sweep_permutations(pts)


def test_sweep_random_simple_configurations():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(3, 7))
        pts = PointArrangement(2, rng.standard_normal((m, 2)))
        seq = sweep_permutations(pts)
        assert len(seq) == m * (m - 1)
        assert seq.is_simple
        report = validate_allowable(list(seq))
        assert report.valid and report.simple


def test_validate_allowable_rotation():
    report = validate_allowable(
        [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    )
    assert report.valid and report.simple


def test_validate_allowable_pair_reversal_count():
    report = validate_allowable([(1, 2, 3), (3, 2, 1), (1, 2, 3), (3, 2, 1)])
    assert not report.valid
    assert "pair-reversal count" in report.violation


def test_validate_allowable_full_reversal_pair():
    report = validate_allowable([(1, 2, 3), (3, 2, 1)])
    assert report.valid and not report.simple


def test_validate_allowable_bad_step():
    report = validate_allowable(
        [(1, 2, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2)]
    )
    assert not report.valid


def test_validate_allowable_rejects_non_permutation():
    with pytest.raises(DomainError):
        validate_allowable([(1, 1, 2)])


def test_allowable_sequence_canonical_rotation():
    base = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    rotated = base[2:] + base[:2]
    assert AllowableSequence(base) == AllowableSequence(rotated)
    assert AllowableSequence(base) == AllowableSequence(list(reversed(base)))


def test_canonical_rotation_is_the_least_rotation_of_either_orientation():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = int(rng.integers(3, 8))
        perms = list(sweep_permutations(PointArrangement(2, rng.standard_normal((m, 2)))))
        assert len(set(perms)) == len(perms)  # a sweep never repeats a permutation
        expected = min(
            tuple(seq[i:] + seq[:i]) for seq in (perms, perms[::-1]) for i in range(len(perms))
        )
        for k in range(len(perms)):
            rotated = perms[k:] + perms[:k]
            assert AllowableSequence(rotated).permutations == expected
            assert AllowableSequence(rotated[::-1]).permutations == expected


def test_allowable_sequence_checks_its_permutations_once(monkeypatch):
    calls = []
    check = arrangements._check_permutations
    monkeypatch.setattr(
        arrangements, "_check_permutations", lambda perms: calls.append(1) or check(perms)
    )
    base = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    assert AllowableSequence(base).is_simple
    assert len(calls) == 1
    sweep_permutations(PointArrangement(2, [[0.0, 0.0], [2.0, 0.3], [0.7, 1.9]]))
    assert len(calls) == 2
    assert validate_allowable(base).valid
    assert len(calls) == 3


def test_allowable_sequence_reads_an_iterator_once():
    base = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    assert AllowableSequence(iter(base)) == AllowableSequence(base)
    assert AllowableSequence(tuple(p) for p in base).is_simple


def test_allowable_sequence_stores_python_ints():
    base = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    seq = AllowableSequence([np.array(p, dtype=np.int64) for p in base])
    assert seq == AllowableSequence(base)
    assert all(type(i) is int for p in seq for i in p)
    assert repr(seq) == repr(AllowableSequence(base))
    assert json.loads(json.dumps(list(seq))) == [list(p) for p in seq]


def test_allowable_sequence_rejects_non_integer_entries():
    base = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]
    floats = [tuple(map(float, p)) for p in base]
    with pytest.raises(DomainError, match=r"\(1\.0, 2\.0, 3\.0\) has an entry that is not an integer"):
        AllowableSequence(floats)
    with pytest.raises(DomainError, match="not an integer"):
        validate_allowable(floats)
    with pytest.raises(DomainError, match="not an integer"):
        matrix_from_allowable([(1.0, 2.0)])


def test_matrix_from_allowable_roundtrip():
    pts = PointArrangement(2, [[0.0, 0.0], [2.0, 0.3], [0.7, 1.9]])
    seq = sweep_permutations(pts)
    matrix = matrix_from_allowable(seq)
    assert matrix.shape == (3, 6)
    assert column_permutations(matrix) == list(seq)
    assert radon_rank(matrix) <= 2


def test_matrix_from_single_permutation():
    matrix = matrix_from_allowable([(1, 2, 3, 4)])
    assert np.array_equal(matrix[:, 0], [1.0, 2.0, 3.0, 4.0])


def test_matrix_from_allowable_matches_the_former_inline_inverse():
    rng = np.random.default_rng(25)
    for m, k in [(1, 1), (2, 3), (5, 1), (7, 9), (12, 4)]:
        perms = [tuple((rng.permutation(m) + 1).tolist()) for _ in range(k)]
        got = matrix_from_allowable(perms)
        want = np.argsort(perms, axis=1).T + 1.0
        assert got.dtype == want.dtype and got.shape == want.shape == (m, k)
        assert got.tobytes() == want.tobytes()


def test_matrix_from_allowable_rejects_garbage():
    with pytest.raises(DomainError):
        matrix_from_allowable([(1, 2, 2)])


def test_column_orders_appear_among_sweeps():
    # every column order of a planar realization is a sweep order of its points
    for seed in range(6):
        rep = random_representation(5, 4, 2, seed=seed)
        sweeps = set(sweep_permutations(rep.points))
        assert set(column_permutations(rep.matrix)) <= sweeps


def test_allowable_file_roundtrip():
    from monorank import format_allowable_file, parse_allowable_file

    pts = PointArrangement(2, [[0.0, 0.0], [2.0, 0.3], [0.7, 1.9]])
    seq = sweep_permutations(pts)
    text = format_allowable_file(seq)
    parsed = parse_allowable_file(text)
    assert AllowableSequence(parsed) == seq
    assert parse_allowable_file("# note\n1 2 3\n3 2 1\n") == [(1, 2, 3), (3, 2, 1)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 3\n# note\n2 x 3\n", "line 3: not a permutation line"),
        ("1 2 3\n1.0 2 3\n", "line 2: not a permutation line"),
        ("", "no permutations found"),
        ("# only a comment\n\n", "no permutations found"),
    ],
)
def test_allowable_file_errors_are_format_errors(text, message):
    from monorank import FormatError, parse_allowable_file

    with pytest.raises(FormatError, match=message) as caught:
        parse_allowable_file(text)
    assert caught.value.exit_code == 2
