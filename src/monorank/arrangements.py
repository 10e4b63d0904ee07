"""Geometric generators and oracles: realized matrices, topes and circuits
of point/hyperplane arrangements, planar sweeps, and allowable sequences.

These are the brute-force ground truth the combinatorial bounds are tested
against: a matrix realized from points, normals and per-column monotone
distortions has threshold topes inside the point topes and difference topes
inside the hyperplane topes, and its column orders appear among the sweep
permutations.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, ResourceLimitError
from .matrices import (
    Permutation,
    _finite_matrix,
    check_generic,
    column_permutations,
    parse_matrix,
)
from .omatroid import CircuitCandidateSet
from .signs import SignVectorSet, _masks_from_bits, _negation_closure, _zero_free_set

DEFAULT_ENUM_GUARD = 20
_DISTORTION_ARITY = {"identity": 0, "exp-scale": 1, "power-odd": 1, "piecewise-linear": 2}
_SEPARATION_MARGIN = 1e-7
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


def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) as rows, in itertools.combinations order."""
    subsets = list(itertools.combinations(range(m), k))
    return np.array(subsets, dtype=np.intp).reshape(-1, k)


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
        if np.any(np.linalg.norm(nv, axis=1) == 0):
            raise DomainError("zero normal vector")
        object.__setattr__(self, "normals", nv)

    def __len__(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True, slots=True)
class MonotoneDistortion:
    """A strictly increasing function on R from a small closed family.

    The constructor checks the kind and its parameters, so every instance
    is strictly increasing; the classmethods normalise their arguments
    first."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        arity = _DISTORTION_ARITY.get(self.kind)
        if arity is None:
            raise DomainError(f"unknown distortion kind {self.kind!r}")
        if len(self.params) != arity:
            raise DomainError(f"{self.kind} expects {arity} parameters, got {self.params!r}")
        if self.kind == "exp-scale" and not 0 < self.params[0] < math.inf:
            raise DomainError("exp-scale parameter must be positive and finite")
        if self.kind == "power-odd" and not (self.params[0] >= 1 and self.params[0] % 2 == 1):
            raise DomainError("power-odd exponent must be odd and positive")
        if self.kind == "piecewise-linear":
            bp, vals = self.params
            if len(bp) != len(vals) or len(bp) < 2:
                raise DomainError("need at least two matching breakpoints and values")
            if not np.isfinite(np.array([bp, vals], dtype=float)).all():
                raise DomainError("breakpoints and values must be finite")
            if not all(b2 > b1 for b1, b2 in zip(bp, bp[1:])):
                raise DomainError("breakpoints must be strictly increasing")
            if not all(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
                raise DomainError("values must be strictly increasing")

    @classmethod
    def identity(cls) -> "MonotoneDistortion":
        return cls("identity")

    @classmethod
    def exp_scale(cls, alpha: float) -> "MonotoneDistortion":
        return cls("exp-scale", (float(alpha),))

    @classmethod
    def power_odd(cls, k: int) -> "MonotoneDistortion":
        return cls("power-odd", (int(k),))

    @classmethod
    def piecewise_linear(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "MonotoneDistortion":
        bp = tuple(float(b) for b in breakpoints)
        return cls("piecewise-linear", (bp, tuple(float(v) for v in values)))

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
    resampled until the realized matrix is generic.  Deterministic per seed.
    """
    if m < 1 or n < 1 or d < 1:
        raise DomainError("m, n, d must all be at least 1")
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


def _max_margin(rows: np.ndarray, signs: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest t with sign_i (row_i · x) >= t over the box ||x||_inf <= 1,
    and an x attaining it."""
    from scipy.optimize import linprog  # on first use: scipy is slow to import

    k, cols = rows.shape
    a_ub = np.empty((k, cols + 1))
    a_ub[:, :cols] = -signs[:, None] * rows
    a_ub[:, cols] = 1.0
    c = np.zeros(cols + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * cols + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), bounds=bounds, method="highs")
    if res.status != 0:
        raise DomainError(f"separation LP failed: {res.message}")
    return -res.fun, res.x[:-1]


def _enumerate_topes(rows: np.ndarray) -> SignVectorSet:
    """Sign vectors s with some ||x||_inf <= 1 giving s_i (row_i · x) > margin
    for every row, found by extending sign prefixes one element at a time;
    the margin is _SEPARATION_MARGIN.

    Element 1 is fixed to + (the set is negation-closed).  A prefix is kept
    only if its separation LP has margin above `margin`; the prefix LP drops
    constraints of every extension over the same box, so no tope is pruned.
    Each kept prefix carries a solution x with margin t > `margin` on its
    rows.  Of its two children, the one agreeing with sign(row · x) keeps x,
    with margin min(t, |row · x|), and needs no LP when |row · x| > margin;
    the other child gets one LP.  In general position the search takes one
    LP per kept prefix: sum_{k<m} T_k / 2 for T_k topes on the first k
    elements, against 2^(m-1) for testing every sign half.
    """
    m = rows.shape[0]
    margin = _SEPARATION_MARGIN
    # x = sign(row) solves the one-row LP, with margin ||row||_1
    level = [(np.ones(1), np.sign(rows[0]))] if np.abs(rows[0]).sum() > margin else []
    for k in range(1, m):
        grown = []
        for signs, x in level:
            value = float(rows[k] @ x)
            for sign in (1.0, -1.0):
                child = np.append(signs, sign)
                if sign * value > margin:
                    grown.append((child, x))
                    continue
                t, x_child = _max_margin(rows[: k + 1], child)
                if t > margin:
                    grown.append((child, x_child))
        level = grown
    plus = np.array([signs > 0 for signs, _ in level], dtype=bool).reshape(-1, m)
    return _zero_free_set(m, _negation_closure(_masks_from_bits(plus), m))


def point_topes(
    arrangement: PointArrangement,
    *,
    max_points: int = DEFAULT_ENUM_GUARD,
) -> SignVectorSet:
    """All zero-free sign vectors realized by an affine hyperplane strictly
    separating the + points from the - points.

    Searched incrementally over sign prefixes (see `_enumerate_topes`): for m
    points in general position in R^d that takes
    sum_{0<k<m} sum_{i<=d} C(k-1, i) LPs (92 for 9 planar points) instead of
    2^(m-1).
    """
    m = len(arrangement)
    if m > max_points:
        raise ResourceLimitError(f"{m} points exceeds enumeration guard {max_points}")
    # p · h - theta as one inner product with the lifted point (p, -1)
    lifted = np.hstack([arrangement.points, -np.ones((m, 1))])
    return _enumerate_topes(lifted)


def hyperplane_topes(
    arrangement: HyperplaneArrangement,
    *,
    max_normals: int = DEFAULT_ENUM_GUARD,
) -> SignVectorSet:
    """All zero-free sign vectors realized by a point strictly off every
    hyperplane of the central arrangement.

    Searched incrementally over sign prefixes (see `_enumerate_topes`): for n
    normals in general position in R^d that takes
    sum_{0<k<n} sum_{i<d} C(k-1, i) LPs (36 for 9 planar normals) instead of
    2^(n-1).
    """
    n = len(arrangement)
    if n > max_normals:
        raise ResourceLimitError(f"{n} normals exceeds enumeration guard {max_normals}")
    return _enumerate_topes(arrangement.normals)


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
    if m > max_points:
        raise ResourceLimitError(f"{m} points exceeds enumeration guard {max_points}")
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
    plus = np.zeros((len(subsets), m), dtype=bool)
    minus = plus.copy()
    np.put_along_axis(plus, subsets, null > 0, axis=1)
    np.put_along_axis(minus, subsets, null <= 0, axis=1)
    # a key's low m bits are the negative part (see the signs module)
    keys = _masks_from_bits(np.hstack([minus, plus])) + _masks_from_bits(np.hstack([plus, minus]))
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
            raise DomainError(f"{p} has an entry that is not an integer") from None
        if tuple(sorted(p)) != ground:
            raise DomainError(f"{p} is not a permutation of 1..{len(ground)}")
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
    length = len(perms)
    start = min(range(length), key=lambda i: perms[i])
    succ = perms[(start + 1) % length]
    pred = perms[(start - 1) % length]
    if succ <= pred:
        rotated = [perms[(start + i) % length] for i in range(length)]
    else:
        rotated = [perms[(start - i) % length] for i in range(length)]
    return tuple(rotated)


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
    perms = _check_permutations(sequence)
    # column j is the inverse of permutation j, shifted to values 1..m
    return np.argsort(perms, axis=1).T + 1.0


# -- point / permutation file formats ---------------------------------------


def parse_points_csv(text: str) -> PointArrangement:
    pts = parse_matrix(text)
    return PointArrangement(pts.shape[1], pts)


def parse_allowable_file(text: str) -> list[Permutation]:
    """One permutation per line as space-separated integers; circular
    closure implied."""
    perms: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            perm = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise DomainError(f"line {lineno}: not a permutation line") from None
        perms.append(perm)
    if not perms:
        raise DomainError("no permutations found")
    return perms


def format_allowable_file(perms: Iterable[Permutation]) -> str:
    return "\n".join(" ".join(str(i) for i in p) for p in perms) + "\n"
