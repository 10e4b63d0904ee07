"""Geometric generators and oracles: realized matrices, topes and circuits
of point/hyperplane arrangements, planar sweeps, and allowable sequences.

These are the brute-force ground truth the combinatorial bounds are tested
against: a matrix realized from points, normals and per-column monotone
distortions has threshold topes inside the point topes and difference topes
inside the hyperplane topes, and its column orders appear among the sweep
permutations.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, FormatError, ResourceLimitError, _shown
from .matrices import (
    Permutation,
    _finite_matrix,
    _float,
    _integer,
    _matrix_with_orders,
    _subsets,
    check_generic,
    column_permutations,
    parse_matrix,
)
from .omatroid import CircuitCandidateSet
from .signs import (
    SignVectorSet,
    _content_lines,
    _keys_of_signs,
    _masks_from_bits,
    _negation_closure,
    _zero_free_set,
)
from .spectral import _HADAMARD_BYTES

DEFAULT_ENUM_GUARD = 20
_DISTORTION_ARITY = {"identity": 0, "exp-scale": 1, "power-odd": 1, "piecewise-linear": 2}
_SEPARATION_MARGIN = 1e-7
# separation problems per LP call: HiGHS's time per block stops
# falling at a few hundred blocks and rises in the thousands, and the cap
# bounds the LP's memory at the enumeration guard
_LP_BLOCKS = 256
_POSITION_TOL = 1e-9


# ---------------------------------------------------------------------------
# arrangement types


def _coordinates(rows, dimension: int, noun: str) -> np.ndarray:
    """The rows as a 2-D float array of finite `dimension`-vectors."""
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    if a.shape[1] != dimension:
        raise DimensionMismatchError(
            f"{noun}s have {a.shape[1]} coordinates, expected {dimension}"
        )
    return _finite_matrix(a, f"{noun} coordinates")


@dataclass(frozen=True, slots=True)
class PointArrangement:
    """m points in R^d, rows of `points`."""

    dimension: int
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "points", _coordinates(self.points, self.dimension, "point")
        )

    def __len__(self) -> int:
        return self.points.shape[0]

    def in_general_position(self) -> bool:
        """No d+1 points (no m points, when m <= d) affinely dependent."""
        pts = self.points
        m, d = pts.shape
        k = min(m, d + 1)
        if k < 2:
            return True
        sub = pts[_subsets(m, k)]
        s = np.linalg.svd(sub[:, 1:] - sub[:, :1], compute_uv=False)
        return not np.any(s[:, -1] <= _POSITION_TOL * np.maximum(s[:, 0], 1.0))


@dataclass(frozen=True, slots=True)
class HyperplaneArrangement:
    """n nonzero normal vectors in R^d, rows of `normals`; each defines a
    central hyperplane."""

    dimension: int
    normals: np.ndarray

    def __post_init__(self):
        nv = _coordinates(self.normals, self.dimension, "normal")
        if np.any(~nv.any(axis=1)):
            raise DomainError("zero normal vector")
        object.__setattr__(self, "normals", nv)

    def __len__(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True, slots=True)
class MonotoneDistortion:
    """A strictly increasing function on R from a small closed family.

    The constructor normalises the parameters as it checks them: a float
    scale, a Python-int exponent, and two tuples of float breakpoints and
    values, so every instance is strictly increasing, hashable and
    JSON-ready through as_dict.  Any other value is a DomainError; the
    classmethods pass their arguments straight through."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        arity = _DISTORTION_ARITY.get(self.kind) if isinstance(self.kind, str) else None
        if arity is None:
            raise DomainError(f"unknown distortion kind {_shown(self.kind)}")
        params = _items(self.params, f"{self.kind} parameters")
        if len(params) != arity:
            raise DomainError(f"{self.kind} expects {arity} parameters, got {_shown(self.params)}")
        if self.kind == "exp-scale":
            params = _reals(params, "exp-scale parameters")
            if not 0 < params[0] < math.inf:
                raise DomainError("exp-scale parameter must be positive and finite")
        if self.kind == "power-odd":
            (k,), what = params, "power-odd exponent"
            real = isinstance(k, numbers.Real)
            integral = isinstance(k, numbers.Integral)
            # exact: the float of a fraction next to an integer can be that integer
            if not (integral or real and math.isfinite(_float(k, what)) and k == int(k)):
                raise DomainError(f"power-odd exponent must be an integer, got {_shown(k)}")
            params = (int(k),)
            if not (params[0] >= 1 and params[0] % 2 == 1):
                raise DomainError("power-odd exponent must be odd and positive")
            _float(params[0], what)  # numpy raises to it as a float
        if self.kind == "piecewise-linear":
            bp, vals = _reals(params[0], "breakpoints"), _reals(params[1], "values")
            if len(bp) != len(vals) or len(bp) < 2:
                raise DomainError("need at least two matching breakpoints and values")
            if not all(map(math.isfinite, bp + vals)):
                raise DomainError("breakpoints and values must be finite")
            if not all(b2 > b1 for b1, b2 in zip(bp, bp[1:])):
                raise DomainError("breakpoints must be strictly increasing")
            if not all(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
                raise DomainError("values must be strictly increasing")
            params = (bp, vals)
        object.__setattr__(self, "params", params)

    @classmethod
    def identity(cls) -> "MonotoneDistortion":
        return cls("identity")

    @classmethod
    def exp_scale(cls, alpha: float) -> "MonotoneDistortion":
        return cls("exp-scale", (alpha,))

    @classmethod
    def power_odd(cls, k: int) -> "MonotoneDistortion":
        return cls("power-odd", (k,))

    @classmethod
    def piecewise_linear(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "MonotoneDistortion":
        return cls("piecewise-linear", (breakpoints, values))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "exp-scale":
            (alpha,) = self.params
            return np.exp(x / alpha)
        if self.kind == "power-odd":
            (k,) = self.params
            return np.sign(x) * np.abs(x) ** k
        bp, vals = self.params
        bp = np.asarray(bp)
        vals = np.asarray(vals)
        # extend with the end slopes so the map is increasing on all of R
        lo = (vals[1] - vals[0]) / (bp[1] - bp[0])
        hi = (vals[-1] - vals[-2]) / (bp[-1] - bp[-2])
        out = np.interp(x, bp, vals)
        below = x < bp[0]
        above = x > bp[-1]
        out = np.where(below, vals[0] + lo * (x - bp[0]), out)
        out = np.where(above, vals[-1] + hi * (x - bp[-1]), out)
        return out

    def as_dict(self) -> dict:
        return asdict(self)


def _items(value, what: str) -> tuple:
    """The items of a parameter sequence as a tuple; DomainError naming
    `what` if the value has no items to give."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {_shown(value)}") from None


def _reals(values, what: str) -> tuple[float, ...]:
    """The items of a sequence of real numbers (numpy scalars included,
    strings not) as Python floats; DomainError naming `what` otherwise."""
    items = _items(values, what)
    if not all(isinstance(v, numbers.Real) for v in items):
        raise DomainError(f"{what} must be real numbers, got {_shown(values)}")
    return tuple(_float(v, what) for v in items)


# ---------------------------------------------------------------------------
# realization


def realize_matrix(
    points: PointArrangement,
    normals: HyperplaneArrangement,
    distortions: Sequence[MonotoneDistortion],
) -> np.ndarray:
    """A_ij = f_j(p_i · h_j); generic whenever the inner products are
    distinct within each column."""
    if points.dimension != normals.dimension:
        raise DimensionMismatchError("point and normal dimensions differ")
    if len(distortions) != len(normals):
        raise DimensionMismatchError(
            f"{len(distortions)} distortions for {len(normals)} columns"
        )
    raw = points.points @ normals.normals.T
    out = np.empty_like(raw)
    for j, f in enumerate(distortions):
        out[:, j] = f(raw[:, j])
    return out


class RandomRepresentation(NamedTuple):
    points: PointArrangement
    normals: HyperplaneArrangement
    distortions: tuple[MonotoneDistortion, ...]
    matrix: np.ndarray


def random_representation(
    m: int, n: int, d: int, seed: int, *, identity_distortions: bool = False
) -> RandomRepresentation:
    """Standard-normal points and normals with random per-column distortions,
    resampled until the realized matrix is generic.  Deterministic per seed,
    which must be an integer >= 0 (a numpy integer will do).  Sizes whose
    float64 matrix or coordinate arrays would exceed hadamard's byte
    budget are a ResourceLimitError.
    """
    m, n, d = _integer(m, "m"), _integer(n, "n"), _integer(d, "d")
    if m < 1 or n < 1 or d < 1:
        raise DomainError("m, n, d must all be at least 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {_shown(seed)}")
    if 8 * max(m * n, m * d, n * d) > _HADAMARD_BYTES:
        raise ResourceLimitError(
            f"m={_shown(m)}, n={_shown(n)}, d={_shown(d)} exceed the "
            f"{_HADAMARD_BYTES}-byte array guard"
        )
    rng = np.random.default_rng(seed)
    for _ in range(100):
        pts = PointArrangement(d, rng.standard_normal((m, d)))
        nrm = HyperplaneArrangement(d, rng.standard_normal((n, d)))
        if identity_distortions:
            fs = tuple(MonotoneDistortion.identity() for _ in range(n))
        else:
            fs = tuple(_random_distortion(rng) for _ in range(n))
        matrix = realize_matrix(pts, nrm, fs)
        if check_generic(matrix).is_generic:
            return RandomRepresentation(pts, nrm, fs, matrix)
    raise DomainError("failed to sample a generic representation in 100 tries")


def _random_distortion(rng: np.random.Generator) -> MonotoneDistortion:
    kind = rng.integers(0, 3)
    if kind == 0:
        return MonotoneDistortion.exp_scale(float(rng.uniform(0.5, 3.0)))
    if kind == 1:
        return MonotoneDistortion.power_odd(int(rng.choice([1, 3, 5])))
    knots = int(rng.integers(3, 6))
    bp = np.sort(rng.uniform(-4.0, 4.0, knots))
    while np.any(np.diff(bp) < 1e-3):
        bp = np.sort(rng.uniform(-4.0, 4.0, knots))
    vals = np.cumsum(rng.uniform(0.1, 2.0, knots))
    return MonotoneDistortion.piecewise_linear(bp, vals)


# ---------------------------------------------------------------------------
# topes of realized arrangements (incremental search over sign prefixes)


def _max_margins(rows: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row b of a (B, k) stack of sign prefixes over the k rows,
    the largest t_b with signs[b, i] (row_i · x_b) >= t_b over the box
    ||x_b||_inf <= 1, and an x_b attaining it: the arrays t (B,) and x (B, cols).

    One LP for the whole stack, so scipy's per-call cost is paid once: the
    constraints are block diagonal, block b being [-signs[b, i] row_i | 1]
    on the variables (x_b, t_b), and the objective -sum_b t_b is separable,
    so every block sits at its own optimum.  It goes to HiGHS through
    `milp` with no integer variables, scipy's entry point with the least
    input checking and conversion per call.
    """
    # on first use: scipy is slow to import
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    blocks, k = signs.shape
    cols = rows.shape[1]
    width = cols + 1
    # column-major blocks: column j of block b holds its k constraint rows
    entries = np.ones((blocks, width, k))
    entries[:, :cols] = -signs[:, None, :] * rows.T
    row_index = np.broadcast_to(np.arange(blocks * k).reshape(blocks, 1, k), entries.shape)
    a_ub = csc_array(
        (entries.ravel(), row_index.ravel(), np.arange(0, entries.size + 1, k)),
        shape=(blocks * k, blocks * width),
    )
    c = np.zeros(blocks * width)
    c[cols::width] = -1.0
    upper = np.tile(np.append(np.ones(cols), np.inf), blocks)
    res = milp(c, bounds=Bounds(-upper, upper), constraints=LinearConstraint(a_ub, -np.inf, 0.0))
    if res.status != 0:
        raise DomainError(f"separation LP failed: {res.message}")
    solution = res.x.reshape(blocks, width)
    return solution[:, cols], solution[:, :cols]


def _enumeration_guard(m: int, guard: int, noun: str) -> None:
    """The three oracles' one enumeration guard: more than `guard` of the
    caller's `noun` (m of them, points or normals) is a ResourceLimitError,
    and a guard that is not an integer is a DomainError naming the
    caller's option, max_points or max_normals."""
    guard = _integer(guard, f"max_{noun}")
    if m > guard:
        raise ResourceLimitError(f"{m} {noun} exceeds enumeration guard {_shown(guard)}")


def _enumerate_topes(rows: np.ndarray, max_rows: int, noun: str) -> SignVectorSet:
    """Sign vectors s with some ||x||_inf <= 1 giving s_i (row_i · x) > margin
    for every row, found by extending sign prefixes one element at a time;
    the margin is _SEPARATION_MARGIN and each row is first scaled to unit
    max-norm, which changes no sign.

    More than `max_rows` rows (the caller's `noun`, points or normals) is a
    ResourceLimitError before any LP runs (see _enumeration_guard).

    Element 1 is fixed to + (the set is negation-closed).  A prefix is kept
    only if it has some x in the box with margin above `margin`; the prefix
    drops constraints of every extension over the same box, so no tope is
    pruned.  Each kept prefix carries such an x.  Of its two children, the
    one agreeing with sign(row · x) keeps x when |row · x| > margin.  A
    child on k rows that keeps no x tries the least-norm x solving
    rows[:k] x = s, scaled into the box: whenever the k rows are
    independent, its margin is 1 / ||x||_inf before scaling.  Only the
    children it fails for have their separation problem solved, so for
    rows in general position of rank r no prefix of r rows or fewer
    reaches an LP, and there is at most one problem per kept longer prefix:
    sum_{r<=k<m} T_k / 2 for T_k topes on the first k elements, against
    2^(m-1) for testing every sign half.  The problems of one level go to
    _max_margins together, at most _LP_BLOCKS at a time, so the search
    makes at most one LP call per level below that width.
    """
    m = rows.shape[0]
    _enumeration_guard(m, max_rows, noun)
    margin = _SEPARATION_MARGIN
    # no row is zero (the callers see to it), and scaling leaves the LP
    # coefficients and the margin on one scale whatever the rows' lengths
    # (point_topes's lifted rows already have max-norm 1)
    rows = rows / np.abs(rows).max(axis=1, keepdims=True)
    # x = sign(row) solves the one-row problem, with margin ||row||_1 >= 1
    signs, xs = np.ones((1, 1)), np.sign(rows[:1])
    for k in range(1, m):
        # each prefix's + child, then its - child
        signs = np.hstack([np.repeat(signs, 2, axis=0), np.tile([[1.0], [-1.0]], (len(signs), 1))])
        xs = np.repeat(xs, 2, axis=0)
        keep = signs[:, k] * (xs @ rows[k]) > margin
        solve = np.flatnonzero(~keep)
        prefix = rows[: k + 1]
        witness = signs[solve] @ np.linalg.pinv(prefix).T
        scale = np.abs(witness).max(axis=1, keepdims=True)
        witness = np.divide(witness, scale, out=np.zeros_like(witness), where=scale > 0)
        witnessed = (signs[solve] * (witness @ prefix.T)).min(axis=1) > margin
        keep[solve], xs[solve] = witnessed, witness
        solve = solve[~witnessed]
        for start in range(0, len(solve), _LP_BLOCKS):
            batch = solve[start : start + _LP_BLOCKS]
            t, xs[batch] = _max_margins(prefix, signs[batch])
            keep[batch] = t > margin
        signs, xs = signs[keep], xs[keep]
    return _zero_free_set(m, _negation_closure(_masks_from_bits(signs > 0), m))


def point_topes(
    arrangement: PointArrangement,
    *,
    max_points: int = DEFAULT_ENUM_GUARD,
) -> SignVectorSet:
    """All zero-free sign vectors realized by an affine hyperplane strictly
    separating the + points from the - points.

    Searched incrementally over sign prefixes (see `_enumerate_topes`): for m
    points in general position in R^d that solves at most
    sum_{d<k<m} sum_{i<=d} C(k-1, i) separation problems instead of
    2^(m-1), one LP call per level of up to _LP_BLOCKS of them: for 9
    planar points, at most 89 problems in 6 calls (69 to 81 on 36 random
    ones).

    The points are first moved by one affine map, which changes no tope:
    centred on their bounding box and divided by its largest half-width,
    so the separation margin does not shrink with their distance from the
    origin.
    """
    pts = arrangement.points
    hi, lo = pts.max(axis=0), pts.min(axis=0)
    pts = pts - (hi / 2 + lo / 2)  # halves first, so no sum overflows
    spread = np.abs(pts).max()
    # p · h - theta as one inner product with the lifted point (p, -1),
    # whose max-norm is then 1
    lifted = np.hstack([pts / (spread if spread > 0 else 1.0), -np.ones((len(pts), 1))])
    return _enumerate_topes(lifted, max_points, "points")


def hyperplane_topes(
    arrangement: HyperplaneArrangement,
    *,
    max_normals: int = DEFAULT_ENUM_GUARD,
) -> SignVectorSet:
    """All zero-free sign vectors realized by a point strictly off every
    hyperplane of the central arrangement.

    Searched incrementally over sign prefixes (see `_enumerate_topes`): for n
    normals in general position in R^d that solves at most
    sum_{d<=k<n} sum_{i<d} C(k-1, i) separation problems instead of
    2^(n-1), one LP call per level of up to _LP_BLOCKS of them: for 9
    planar normals, at most 35 problems in 7 calls (28 to 33 on 18 random
    ones).
    """
    return _enumerate_topes(arrangement.normals, max_normals, "normals")


def point_circuits(
    arrangement: PointArrangement,
    *,
    max_points: int = DEFAULT_ENUM_GUARD,
) -> CircuitCandidateSet:
    """Minimal Radon partitions of a general-position point set: the signed
    affine dependence of each (d+2)-subset, both orientations.

    A DomainError names the first degenerate subset in
    itertools.combinations order.
    """
    pts = arrangement.points
    m, d = pts.shape
    _enumeration_guard(m, max_points, "points")
    hom = np.hstack([pts, np.ones((m, 1))])
    subsets = _subsets(m, d + 2)
    # one (d+1) x (d+2) matrix per subset, its lifted points as columns
    _, s, vt = np.linalg.svd(hom[subsets].transpose(0, 2, 1))
    null = vt[:, -1]
    size = np.abs(null)
    degenerate = s[:, -1] <= _POSITION_TOL * s[:, 0]
    vanishing = size.min(axis=1) <= _POSITION_TOL * size.max(axis=1)
    bad = np.flatnonzero(degenerate | vanishing)
    if bad.size:
        first = bad[0]
        names = tuple(int(i) + 1 for i in subsets[first])
        if degenerate[first]:
            raise DomainError(
                f"points {names} are affinely degenerate (null space dimension > 1)"
            )
        raise DomainError(
            f"points {names} are not in general position (vanishing coefficient)"
        )
    # the check above refused every zero coefficient, so each subset's
    # entries are + or - and the rest of the row 0
    signs = np.zeros((len(subsets), m))
    np.put_along_axis(signs, subsets, null, axis=1)
    keys = _keys_of_signs(signs) + _keys_of_signs(-signs)
    circuits = SignVectorSet._from_keys(m, sorted(keys))
    return CircuitCandidateSet(ground_size=m, circuits=circuits, uniform_rank=d + 1)


# ---------------------------------------------------------------------------
# planar sweeps and allowable sequences


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of checking the three allowable-sequence conditions plus the
    simplicity flag; `violation` names the first failed condition."""

    valid: bool
    simple: bool
    violation: str | None = None


def _check_permutations(perms: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """The permutations as tuples of Python ints, if they are a nonempty
    list of permutations of one ground set 1..m; DomainError otherwise.
    The input is read once, so it may be an iterator."""
    perms = tuple(map(tuple, perms))
    if not perms:
        raise DomainError("empty permutation sequence")
    ground = tuple(range(1, len(perms[0]) + 1))
    checked = []
    for p in perms:
        try:
            p = tuple(map(operator.index, p))
        except TypeError:
            raise DomainError(f"{_shown(p)} has an entry that is not an integer") from None
        if tuple(sorted(p)) != ground:
            raise DomainError(f"{_shown(p)} is not a permutation of 1..{len(ground)}")
        checked.append(p)
    return tuple(checked)


def _reversal_runs(cur: Permutation, nxt: Permutation) -> list[tuple[int, int]] | None:
    """Decompose nxt as cur with disjoint index intervals reversed; returns
    the intervals or None if no such decomposition exists."""
    m = len(cur)
    position = {v: i for i, v in enumerate(cur)}
    runs = []
    i = 0
    while i < m:
        if cur[i] == nxt[i]:
            i += 1
            continue
        k = position.get(nxt[i])
        if k is None or k <= i:
            return None
        if tuple(reversed(cur[i : k + 1])) != nxt[i : k + 1]:
            return None
        runs.append((i, k))
        i = k + 1
    return runs


def validate_allowable(perms: Sequence[Permutation]) -> ValidationReport:
    """Check a circular permutation list against the allowable-sequence
    conditions: closure under reversal, steps that reverse disjoint
    substrings, and one order reversal per pair per half-period (the list
    must be antipodal: the opposite permutation sits half a period away).
    """
    return _validate(_check_permutations(perms))


def _validate(perms: tuple[Permutation, ...]) -> ValidationReport:
    """validate_allowable of permutations that passed _check_permutations."""
    m = len(perms[0])
    length = len(perms)
    present = set(perms)
    for p in perms:
        if p[::-1] not in present:
            return ValidationReport(
                False, False, f"condition 1: reverse of {p} missing"
            )
    simple = True
    total_flips = 0
    for idx in range(length):
        cur, nxt = perms[idx], perms[(idx + 1) % length]
        runs = _reversal_runs(cur, nxt)
        if runs is None or not runs:
            return ValidationReport(
                False,
                False,
                f"condition 2: step {idx + 1} is not a disjoint-substring reversal",
            )
        total_flips += sum((k - i + 1) * (k - i) // 2 for i, k in runs)
        if len(runs) != 1 or runs[0][1] - runs[0][0] != 1:
            simple = False
    if length % 2 != 0:
        return ValidationReport(False, simple, "condition 3: odd period")
    pairs = m * (m - 1) // 2
    if total_flips != 2 * pairs:
        return ValidationReport(
            False,
            simple,
            f"condition 3: pair-reversal count violated "
            f"({total_flips} flips per period, expected {2 * pairs})",
        )
    half = length // 2
    for idx in range(half):
        if perms[(idx + half) % length] != perms[idx][::-1]:
            return ValidationReport(
                False,
                simple,
                f"condition 3: permutation opposite {perms[idx]} is not its reverse",
            )
    return ValidationReport(True, simple, None)


@dataclass(frozen=True, slots=True, init=False)
class AllowableSequence:
    """A validated circular sequence of permutations, stored in canonical
    rotation: starting at the lexicographically smallest permutation,
    oriented so its successor is lexicographically smaller than its
    predecessor.  Equality compares the permutations only."""

    permutations: tuple[Permutation, ...]
    report: ValidationReport = field(compare=False)

    def __init__(self, perms: Iterable[Permutation]):
        perms = _check_permutations(perms)
        report = _validate(perms)
        if not report.valid:
            raise DomainError(f"not an allowable sequence: {report.violation}")
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "permutations", _canonical_rotation(perms))

    @property
    def is_simple(self) -> bool:
        return self.report.simple

    def __len__(self) -> int:
        return len(self.permutations)

    def __iter__(self):
        return iter(self.permutations)

    def __repr__(self) -> str:
        return f"AllowableSequence({list(self.permutations)!r})"


def _canonical_rotation(perms: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    """The smaller of the two orientations read from the smallest
    permutation.  A validated sequence never repeats a permutation, so
    above length 2 they differ at the second entry: the orientation whose
    successor is smaller."""
    start = perms.index(min(perms))
    forward = perms[start:] + perms[:start]
    return min(forward, forward[:1] + forward[:0:-1])


def sweep_permutations(arrangement: PointArrangement) -> AllowableSequence:
    """The circular sequence of orders in which a rotating directed sweep
    line passes the points of a planar arrangement.

    Critical directions are those perpendicular to a connecting segment;
    between consecutive critical directions the order of p · h is constant,
    so each cell's order is the column order of the projections onto its
    middle direction.  Requires a simple configuration: distinct points, no
    two connecting segments parallel, no three points collinear (coincident
    critical directions name the offending pairs).
    """
    if arrangement.dimension != 2:
        raise DomainError("sweeps are defined for planar arrangements")
    pts = arrangement.points
    m = len(pts)
    if m < 2:
        raise DomainError("need at least two points to sweep")
    pairs = _subsets(m, 2)
    diffs = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    coincident = np.flatnonzero(~diffs.any(axis=1))
    if coincident.size:
        i, k = pairs[coincident[0]].tolist()
        raise DomainError(f"points {i + 1} and {k + 1} coincide")
    # math.atan2 rather than np.arctan2, whose last bits differ and can
    # change which pair a degeneracy message names
    angles = np.array([math.atan2(dx, -dy) % math.pi for dx, dy in diffs.tolist()])
    # stable, so equal angles keep pair order, as a sort of (angle, pair) does
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    gaps = np.diff(angles, append=angles[0] + math.pi)
    close = np.flatnonzero(np.abs(gaps) <= _POSITION_TOL)
    if close.size:
        a, b = order[close[0]], order[(close[0] + 1) % len(order)]
        pair1, pair2 = (tuple(p) for p in (pairs[[a, b]] + 1).tolist())
        raise DomainError(
            f"degenerate configuration: pairs {pair1} and {pair2} give "
            f"parallel connecting segments (or a collinear triple)"
        )
    cuts = np.concatenate([angles, angles + math.pi])
    mid = (cuts + np.append(cuts[1:], cuts[0] + 2 * math.pi)) / 2.0
    keys = pts @ np.array([np.cos(mid), np.sin(mid)])
    return AllowableSequence(column_permutations(keys))


def matrix_from_allowable(
    sequence: AllowableSequence | Sequence[Permutation],
) -> np.ndarray:
    """One column per permutation, holding the values 1..m in that order:
    the row named by position i receives value i.  Column orders of the
    result reproduce the sequence's permutations.

    Accepts a validated AllowableSequence or any list of permutations of a
    common ground set (the construction itself needs no circular structure).
    """
    return _matrix_with_orders(_check_permutations(sequence))


# -- point / permutation file formats ---------------------------------------


def parse_points_csv(text: str) -> PointArrangement:
    pts = parse_matrix(text)
    return PointArrangement(pts.shape[1], pts)


def parse_allowable_file(text: str) -> list[Permutation]:
    """One permutation per line as space-separated integers; circular
    closure implied."""
    perms: list[Permutation] = []
    for lineno, line in _content_lines(text):
        try:
            perm = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"line {lineno}: not a permutation line") from None
        perms.append(perm)
    if not perms:
        raise FormatError("no permutations found")
    return perms


def format_allowable_file(perms: Iterable[Permutation]) -> str:
    return "\n".join(" ".join(str(i) for i in p) for p in perms) + "\n"
