import itertools
import json
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from monorank import (
    AllowableSequence,
    DomainError,
    HyperplaneArrangement,
    MonotoneDistortion,
    PointArrangement,
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
    ],
)
def test_distortion_constructor_checks_its_parameters(kind, params, message):
    # each would be a map that decreases somewhere, is constant, is not
    # defined everywhere, or (an unknown kind) fails only when called
    with pytest.raises(DomainError, match=message):
        MonotoneDistortion(kind, params)


def test_distortion_classmethods_normalise_before_the_check():
    assert MonotoneDistortion.exp_scale(2) == MonotoneDistortion("exp-scale", (2.0,))
    assert type(MonotoneDistortion.power_odd(3.0).params[0]) is int
    f = MonotoneDistortion.piecewise_linear([0, 1], np.array([0, 2]))
    assert f.params == ((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(DomainError, match="exp-scale parameter must be positive"):
        MonotoneDistortion.exp_scale(0)


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
    from monorank import ResourceLimitError

    pts = PointArrangement(1, np.arange(25.0).reshape(-1, 1))
    with pytest.raises(ResourceLimitError):
        point_topes(pts)


# -- tope enumeration against the all-halves reference -------------------------

_FLIP = str.maketrans("+-", "-+")


def reference_topes(rows, affine, margin=1e-7):
    """Tope strings from one separation LP per sign half (last element +):
    the largest t with s_i (row_i · h - theta) >= t over the box
    ||(h, theta)||_inf <= 1 must exceed `margin`."""
    m, d = rows.shape
    cols = d + 1 + (1 if affine else 0)
    c = np.zeros(cols)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * (cols - 1) + [(None, None)]
    found = set()
    for rest in itertools.product((1.0, -1.0), repeat=m - 1):
        signs = np.array(rest + (1.0,))
        a_ub = np.zeros((m, cols))
        a_ub[:, :d] = -signs[:, None] * rows
        if affine:
            a_ub[:, d] = signs
        a_ub[:, -1] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds, method="highs")
        assert res.status == 0
        if -res.fun > margin:
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


@pytest.mark.parametrize(
    "arrangement",
    [
        PointArrangement(1, [[0.0], [1.0], [2.0]]),
        PointArrangement(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        HyperplaneArrangement(2, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        HyperplaneArrangement(3, [[1.0, 2.0, 0.5], [0.0, 1.0, 0.0], [1.0, 2.0, 0.5]]),
    ],
    ids=["collinear-triple", "square", "coincident-planar", "coincident-3d"],
)
def test_topes_match_reference_degenerate(arrangement):
    assert set(_topes(arrangement).strings()) == reference_topes(*_rows(arrangement))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tope_search_lp_count(monkeypatch, d):
    # general position: at most 1 + sum_{k<m} T_k / 2 LPs for T_k topes on k elements
    for arrangement in _random_arrangements(d):
        solved = []

        def counting_linprog(*args, **kwargs):
            solved.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
        _topes(arrangement)
        monkeypatch.undo()
        kind = type(arrangement)
        rows, _ = _rows(arrangement)
        prefix_halves = sum(
            len(_topes(kind(d, rows[:k]))) // 2 for k in range(1, len(rows))
        )
        assert len(solved) <= 1 + prefix_halves


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
