"""Oriented-matroid machinery: potential circuits, circuit-axiom checking,
uniform completion search, completion-rank bounds, and the linear-time
rank-two tope recognizer.

The completion search asks whether some uniform rank-d oriented matroid has
all of Sigma among its topes.  Uniformity is the standard reduction: the
matroid may be perturbed to general position without losing topes, so the
circuit set becomes one ± pair per (d+1)-support, drawn from the potential
circuits (the vectors of that support size orthogonal to all of Sigma).

Like the tope, VC and rank-two layers, the search runs on the positive
masks of Sigma: the kernels _completion (one rank) and _om_rank (ranks 1
to d_max) take masks, uniform_completion and om_rank_lower_bound are
adapters that read their SignVectorSet once, and the matrix bound passes
the tope masks straight in.  _candidates yields the potential circuits
support by support, for potential_circuits and for the search alike, and
holds the layer's one rank check.  _full_scan finds the first C4
violation of one circuit pair per support, for check_circuit_axioms and
for _first_violation.  The search's C4 checks depend on (n, rank)
alone: _modular_checks lists them, cached per (n, rank), and
_modular_violation tests one support's list against a candidate.  Every
circuit here is a key, the signs module's stored form, from the
candidates to the witness's SignVectorSet; a SignVector is built only
for an AxiomViolation or an error message.

Weak elimination (C4) is checked in separator-symmetric form: for vectors
X, Y with X != -Y and any e where they oppose, some circuit Z must satisfy
Z+ ⊆ (X+ ∪ Y+) \\ e and Z- ⊆ (X- ∪ Y-) \\ e.  For negation-closed sets this
is equivalent to the one-sided axiom.  Checks are ordered by the support of
the required eliminant (colexicographically), then by canonical vector
order, which pins down the reported violation witness deterministically.

Supports are placed in sorted order, so the placed ones are always a
prefix of the sorted support list.  A check made when support c is placed
is decisive once the last support its eliminant could sit on (its
trigger t) is placed, so it fires at step max(c, t): at once when t <= c,
after that step's own checks when it has to wait.  Once it fires, every
support inside its zone is placed, and its verdict no longer depends on
what comes later.  So the first violation is the failing check with the
smallest key (max(c, t), t > c, c, X, Y, e), which _full_scan finds by
testing each check against the complete placement, with no check filed
for later.  The search keeps its placed pairs on a list and backtracks by
popping them instead of copying its state; a candidate that fails a
check is never placed.

The completion search checks C4 on modular pairs only.  Signed sets that
meet C1-C3 and eliminate on every modular pair are the circuits of an
oriented matroid (modular elimination: Björner, Las Vergnas, Sturmfels,
White & Ziegler, Oriented Matroids, §3.2).  In a uniform rank-r matroid
two circuits X, Y form a modular pair exactly when |supp X ∪ supp Y| =
r + 2, and then the eliminant has one possible support.  A failed
modular check is a real C4 violation, so pruning on it is sound, and on
a complete assignment the two scans agree: the depth-first search
reaches the same first feasible leaf.  It may place more candidates on
the way, since a non-modular check can prune earlier.  The first
violation reported is still the full scan's: no backtrack comes before
the first violation, so it lies on the path of first candidates, and
_first_violation replays that path through the full scan.
check_circuit_axioms, whose input is any antichain, keeps the full scan.

The search files no check for later: _modular_checks leaves out each
check whose eliminant's support comes after the new one, because the
placement that decides it makes a check with the same verdict.  Take
circuits x, y, z on U∖p, U∖q and U∖e, where |U| = r + 2, and the check e
from (x, y), with y's sign chosen so that x(e) = -y(e).  Its zone is
U∖e, so ±z are the only candidate eliminants, and s·z eliminates exactly
when s = y(p)z(p) = x(q)z(q) and no k in U∖{p, q, e} has x(k) = y(k) =
-s·z(k).  In terms that no choice of signs changes, the check passes
exactly when
x(q)x(e)·y(p)y(e)·z(p)z(q) = -1 and no such k has x(e)y(e)x(k)y(k) =
x(q)z(q)x(k)z(k) = y(p)z(p)y(k)z(k) = -1.  Both conditions are symmetric
in (x, p), (y, q) and (z, e), so the checks q from (x, z) and p from
(y, z) share the verdict.  A check waits only when z's support comes last
of the three; placing z makes both of those checks, which are decisive
since x and y are placed, so the search rejects z exactly where filing
and re-testing the check would reject it.  This holds at every rank.
Negating both circuits changes no verdict either: (-x, -y, e) has the
spread, separator and zone of (x, y, e), and -z eliminates it exactly
when z eliminates (x, y, e).  So each modular neighbour j and element e
is one check: one circuit x of pair j, and the one circuit of the new
pair that opposes x at e.

A witness is certified before the search returns it, by checks that share
no code with the C4 scan: every circuit is orthogonal to the input, the
circuits are those of one chirotope, and that chirotope meets every 3-term
Grassmann–Plücker relation (see _certify_witness).  The chirotope check
is a walk over the (r+1)-supports in sorted order: each support takes its
sign from its basis without its largest element, which an earlier support
has always signed, so no search for a spanning order is needed.  The walk
is the same for every witness of one (n, r), so _witness_tables lists its
indices once per (n, r), in tables of its own rather than _modular_checks',
and the certificate runs it as a few numpy operations on the circuits'
signed rows; it reports the failure the walk would meet first, with the
walk's message.  A witness that fails raises MonorankError; no check is
an assert, so python -O keeps them all.  A
certified witness is built once, unchecked: the certificate has proved
one ± pair on every support and nothing else, which is all that
CircuitCandidateSet's constructor would check again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, MonorankError, ResourceLimitError, _shown
from .matrices import _integer, _require_generic, _subsets
from .signs import (
    SignVector,
    SignVectorSet,
    _is_negation_closed,
    _mask,
    _mask_to_set,
    _negated,
    _negation_closure,
    _sign_matrix,
    _signed_rows,
    _vector,
    _zero_free_masks,
)
from .topes import _difference_masks, _threshold_masks

DEFAULT_GROUND_GUARD = 10


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True, slots=True)
class CircuitCandidateSet:
    """A negation-closed set of candidate circuits on [ground_size].

    When uniform_rank is set, every support has size uniform_rank + 1 and
    carries at most one ± pair, as in a uniform oriented matroid.  The
    constructor checks both, and stores uniform_rank as an int >= 0; only
    a certified completion witness skips the checks (_certified).
    """

    ground_size: int
    circuits: SignVectorSet
    uniform_rank: int | None = None

    def __post_init__(self):
        if self.circuits.ground_size != self.ground_size:
            raise DomainError("circuit set ground size mismatch")
        if not self.circuits.is_negation_closed():
            raise DomainError("circuit candidate set must be negation-closed")
        if self.uniform_rank is not None:
            rank = _integer(self.uniform_rank, "uniform_rank")
            if rank < 0:
                raise DomainError(f"uniform_rank must be an integer >= 0, got {_shown(rank)}")
            object.__setattr__(self, "uniform_rank", rank)
            n, size = self.ground_size, rank + 1
            per_support: dict[int, int] = {}
            for key in self.circuits._keys():
                support = (key >> n | key) & ((1 << n) - 1)
                if support.bit_count() != size:
                    raise DomainError(
                        f"uniform rank {rank} requires supports of "
                        f"size {size}, got {_vector(n, key)}"
                    )
                per_support[support] = per_support.get(support, 0) + 1
            if any(count > 2 for count in per_support.values()):
                raise DomainError("more than one ± pair on a support")

    @classmethod
    def _certified(cls, circuits: SignVectorSet, rank: int) -> CircuitCandidateSet:
        """The uniform rank-`rank` witness with these circuits, which
        _certify_witness has accepted; unchecked, as the certificate proved
        one ± pair on every (rank+1)-support and nothing else."""
        out = object.__new__(cls)
        object.__setattr__(out, "ground_size", circuits.ground_size)
        object.__setattr__(out, "circuits", circuits)
        object.__setattr__(out, "uniform_rank", rank)
        return out

    def __iter__(self):
        return iter(self.circuits)

    def __len__(self):
        return len(self.circuits)


@dataclass(frozen=True, slots=True)
class AxiomViolation:
    """Witness for a failed circuit axiom; element is 1-based."""

    axiom: str
    x: SignVector
    y: SignVector | None = None
    element: int | None = None

    def as_dict(self) -> dict:
        out: dict = {"axiom": self.axiom, "x": str(self.x)}
        if self.y is not None:
            out["y"] = str(self.y)
        if self.element is not None:
            out["element"] = self.element
        return out


@dataclass(frozen=True, slots=True)
class AxiomReport:
    ok: bool
    violation: AxiomViolation | None = None


@dataclass(frozen=True, slots=True)
class CompletionResult:
    """Outcome of a uniform completion search at one rank.

    feasible implies a witness; infeasible with violation=None and
    missing_support set means some support admitted no potential circuit.
    timed_out marks an exhausted node budget, in which case infeasibility
    is not certified.  nodes counts the candidate circuits tried; as the
    search checks C4 on modular pairs only, it may exceed the count of a
    search that checks every pair, which can prune earlier.  A
    witness has passed _certify_witness: its circuits are orthogonal to the
    input and read off a chirotope that meets every 3-term
    Grassmann–Plücker relation.  Searches stopped by the same missing
    support return one shared result.
    """

    feasible: bool
    witness: CircuitCandidateSet | None = None
    violation: AxiomViolation | None = None
    missing_support: frozenset[int] | None = None
    timed_out: bool = False
    nodes: int = 0


@dataclass(frozen=True, slots=True)
class OmRankBound:
    """Smallest completable rank found; exceeds means no rank up to the
    cap worked, and value = cap + 1 is still a valid lower bound."""

    value: int
    exceeds: bool
    attempts: tuple[tuple[int, CompletionResult], ...] = ()


# ---------------------------------------------------------------------------
# potential circuits


def potential_circuits(vectors: SignVectorSet, rank: int) -> SignVectorSet:
    """All sign vectors with support size rank+1 orthogonal to every member
    of the (zero-free, negation-closed) input set, for 1 <= rank <= n-1.
    Adapter onto _candidates."""
    n = vectors.ground_size
    keys: list[int] = []
    for _, reps in _candidates(n, _tope_masks(vectors), rank):
        keys += (key for rep in reps for key in (rep, _negated(n, rep)))
    return SignVectorSet._from_keys(n, sorted(keys))


def _candidates(n: int, masks: list[int], rank: int) -> Iterator[tuple[int, list[int]]]:
    """(support mask, _orthogonal_pairs) for every (rank+1)-subset of the n
    elements, in itertools.combinations order, for the positive masks of a
    zero-free, negation-closed set.  This is the layer's one rank check:
    the rank must be in [1, n-1], since rank n leaves no support of size
    rank+1 and a matroid of rank 0 has no zero-free topes.
    """
    rank = _integer(rank, "rank")
    if not 1 <= rank <= n - 1:
        raise DomainError(f"rank must be in [1, {n - 1}], got {_shown(rank)}")
    supports = map(_mask, itertools.combinations(range(n), rank + 1))
    return ((support, _orthogonal_pairs(n, masks, support)) for support in supports)


def _orthogonal_pairs(n: int, masks: list[int], support: int) -> list[int]:
    """One key per ± pair on the support bitmask whose vectors are
    orthogonal to every member of the zero-free, negation-closed set on n
    elements with these positive masks: the key of the vector with + at
    the support's smallest element, ascending.

    A vector v on support S fails against a zero-free y exactly when it
    agrees with y or with -y on all of S.  With -y in the set as well, that
    is when v+ is the restriction y+ ∩ S of some member y.
    """
    taken = {y & support for y in masks}
    head = support & -support
    rest = support ^ head
    reps = []
    sub = 0
    while True:
        pos = head | sub
        if pos not in taken:
            reps.append(pos << n | support ^ pos)
        if sub == rest:
            return reps
        sub = (sub - rest) & rest  # next subset of rest in increasing order


def _tope_masks(vectors: SignVectorSet) -> list[int]:
    """The positive masks of a tope set, which must be zero-free and
    negation-closed."""
    masks = _zero_free_masks(vectors, "tope set")
    if not _is_negation_closed(masks, vectors.ground_size):
        raise DomainError("tope sets must be negation-closed")
    return masks


# ---------------------------------------------------------------------------
# circuit axioms


@functools.lru_cache(maxsize=64)
def _modular_checks(n: int, rank: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The completion search's C4 checks on n elements at this rank: row k
    lists, for the k-th (rank+1)-subset S_k in sorted (colexicographic)
    order, the triples (j, e, i) in (j, e) order.  j < k indexes a support
    with |S_j ∪ S_k| = rank + 2, a modular pair's span; e is the bit of an
    element of S_j ∩ S_k; and i < k indexes the check's zone (S_j ∪ S_k)
    \\ e, which has rank + 1 elements and so is one support.  A check whose
    zone comes after S_k is left out, since the placement that decides it
    makes a check with the same verdict (see the module docstring).

    The table depends on (n, rank) alone, so searches share it.  It is
    built span by span, with no test of other pairs: for each b outside
    S_k, the supports inside U = S_k ∪ b other than S_k are the U \\ c for
    c in S_k.  Each such j = U \\ a before S_k is a modular neighbour, and
    its checks are the e in S_k other than a whose zone i = U \\ e is
    also before S_k.
    """
    supports = sorted(map(_mask, itertools.combinations(range(n), rank + 1)))
    index = {support: k for k, support in enumerate(supports)}
    bits = [1 << i for i in range(n)]
    rows = []
    for k, support in enumerate(supports):
        row = []
        for span in (support | b for b in bits if not support & b):
            below = [(index[span ^ c], c) for c in bits if support & c and index[span ^ c] < k]
            row += [(j, e, i) for j, _ in below for i, e in below if i != j]
        rows.append(tuple(sorted(row)))
    return tuple(rows)


def _modular_violation(
    n: int, row: Sequence[tuple[int, int, int]], placed: list[tuple[int, int]], rep: int
) -> tuple[int, int, int] | None:
    """A failed C4 check, as keys (x, y, e), of placing the circuit with key
    rep and its negation on the support whose row of _modular_checks this
    is, or None.  placed holds the keys of the ± pairs placed on the
    earlier supports.

    Each triple (j, e, i) takes x, one circuit of pair j, and y, the one of
    ±rep that opposes x at e; (-x, -y, e) has the verdict of (x, y, e) (see
    the module docstring).  The check fails when neither circuit of pair i
    lies inside the zone with the signs of x and y.
    """
    minus_rep = _negated(n, rep)
    for j, e, i in row:
        x = placed[j][0]
        y = rep if (x ^ rep) >> n & e else minus_rep
        forbidden = ~(x | y)
        z, minus_z = placed[i]
        if z & forbidden and minus_z & forbidden:
            return x, y, e
    return None


def check_circuit_axioms(
    circuits: CircuitCandidateSet | SignVectorSet,
) -> AxiomReport:
    """Verify circuit axioms C1-C4, reporting the first violation found.

    C1: no empty vector.  C2: closure under negation.  C3: comparable
    supports only within a ± pair.  C4: weak elimination, scanned in the
    deterministic support order described on the module.
    """
    vectors = circuits.circuits if isinstance(circuits, CircuitCandidateSet) else circuits
    n, keys = vectors.ground_size, vectors._keys()
    if keys[:1] == [0]:  # the empty vector's key is the smallest
        return AxiomReport(False, AxiomViolation("C1", _vector(n, 0)))
    index = set(keys)
    for key in keys:
        if _negated(n, key) not in index:
            return AxiomReport(False, AxiomViolation("C2", _vector(n, key)))
    supports = [(key >> n | key) & ((1 << n) - 1) for key in keys]
    for i, sx in enumerate(supports):
        for j in range(i + 1, len(keys)):
            sy = supports[j]
            if (sx & ~sy == 0 or sy & ~sx == 0) and keys[j] != _negated(n, keys[i]):
                x, y = _vector(n, keys[i]), _vector(n, keys[j])
                return AxiomReport(False, AxiomViolation("C3", x, y))
    # after C1-C3 every support carries exactly one ± pair, and the scan
    # takes either circuit of a pair
    violation = _full_scan(n, dict(zip(supports, keys)))
    return AxiomReport(violation is None, violation)


def _full_scan(n: int, reps_by_support: dict[int, int]) -> AxiomViolation | None:
    """The first C4 violation of the circuits ±rep, one pair per support
    (support mask -> key of rep), placed in sorted order; None when they
    meet C4.

    Step c makes the checks (X, Y, e) with Y on support c and X on an
    earlier one.  A check fires at step max(c, t), where t is its trigger,
    the index of the last support inside its zone (supp X ∪ supp Y) \\ e
    (-1 for none): at once when t <= c, after the step's own checks when
    it waits.  By then every support inside the zone is placed, so the
    verdict is tested against them all, and the first violation is the
    failing check with the smallest key (max(c, t), t > c, c, X, Y, e).
    No check made after that key's firing step can come first.  Circuits
    are keys (see the signs module).
    """
    full = (1 << n) - 1
    supports = sorted(reps_by_support)
    pairs = [(rep, _negated(n, rep)) for rep in map(reps_by_support.get, supports)]

    @functools.cache
    def zone(mask: int) -> tuple[int, list[int]]:
        """(trigger, circuits on the supports inside the zone mask)"""
        inside = [i for i, s in enumerate(supports) if s & ~mask == 0]
        return max(inside, default=-1), [z for i in inside for z in pairs[i]]

    first: tuple | None = None
    for c, support in enumerate(supports):
        if first is not None and c > first[0]:
            break
        for x in itertools.chain.from_iterable(pairs[:c]):
            spread = (x >> n | x) & full | support  # supp X ∪ supp Y
            for y in pairs[c]:
                sep = (x >> n & y) | (x & y >> n)  # X+ ∩ Y- ∪ X- ∩ Y+
                while sep:
                    e = sep & -sep
                    sep ^= e
                    t, circuits = zone(spread ^ e)
                    key = (max(c, t), t > c, c, x, y, e)
                    forbidden = ~(x | y)
                    if (first is None or key < first) and all(z & forbidden for z in circuits):
                        first = key
    if first is None:
        return None
    x, y = (_vector(n, key) for key in first[3:5])
    return AxiomViolation("C4", x, y, element=first[5].bit_length())


# ---------------------------------------------------------------------------
# uniform completion search


def uniform_completion(
    vectors: SignVectorSet,
    rank: int,
    *,
    max_ground: int = DEFAULT_GROUND_GUARD,
    max_nodes: int | None = None,
) -> CompletionResult:
    """Search for a uniform rank-`rank` oriented matroid whose topes contain
    the given zero-free, negation-closed set.

    One ± circuit pair is chosen per (rank+1)-support from the potential
    circuits; C1-C3 hold by construction and C4 is enforced incrementally,
    on modular pairs only.  A support with no potential circuit makes
    completion immediately infeasible.  Infeasible results carry the first
    C4 violation of the full scan, from _first_violation.  Adapter onto
    _completion.
    """
    n, masks = vectors.ground_size, _tope_masks(vectors)
    return _completion(n, masks, rank, max_ground=max_ground, max_nodes=max_nodes)


def _completion(
    n: int, masks: list[int], rank: int, *, max_ground: int, max_nodes: int | None
) -> CompletionResult:
    """uniform_completion on the positive masks of a zero-free,
    negation-closed set on n elements.

    The search is depth first over the supports in sorted order, on an
    explicit stack of candidate positions, so its depth is not bounded by
    the interpreter's recursion limit.  A candidate is placed only when it
    passes its support's row of _modular_checks.  The two guards are read
    here, where they are checked: max_nodes=None sets no budget.
    """
    max_ground = _integer(max_ground, "max_ground")
    if n > max_ground:
        raise ResourceLimitError(
            f"ground set size {n} exceeds completion guard {_shown(max_ground)}"
        )
    if max_nodes is not None:
        max_nodes = _integer(max_nodes, "max_nodes")
    candidates: dict[int, list[int]] = {}
    for support, reps in _candidates(n, masks, rank):
        if not reps:
            return _missing_support_result(support)
        candidates[support] = reps
    choices = [candidates[support] for support in sorted(candidates)]
    rows = _modular_checks(n, rank)
    # placed[j]: the keys of the ± pair on support j; the search is at
    # support k = len(placed)
    placed: list[tuple[int, int]] = []
    nodes = 0
    # tried[k]: how many candidates of support k the current branch has tried
    tried = [0] * len(choices)
    while (k := len(placed)) < len(choices):
        if tried[k] == len(choices[k]):
            if not placed:
                return CompletionResult(
                    feasible=False, violation=_first_violation(n, candidates), nodes=nodes
                )
            tried[k] = 0
            placed.pop()
            continue
        if max_nodes is not None and nodes >= max_nodes:
            return CompletionResult(feasible=False, timed_out=True, nodes=nodes)
        nodes += 1
        rep = choices[k][tried[k]]
        tried[k] += 1
        if _modular_violation(n, rows[k], placed, rep) is None:
            placed.append((rep, _negated(n, rep)))
    _certify_witness(n, rank, [rep for rep, _ in placed], masks)
    circuits = SignVectorSet._from_keys(n, sorted(itertools.chain.from_iterable(placed)))
    witness = CircuitCandidateSet._certified(circuits, rank)
    return CompletionResult(feasible=True, witness=witness, nodes=nodes)


@functools.lru_cache(maxsize=1024)
def _missing_support_result(support: int) -> CompletionResult:
    """The result of a search stopped by a support with no potential
    circuit.  It is a frozen value of the support mask alone, so searches
    that stop at the same support share one object."""
    return CompletionResult(feasible=False, missing_support=_mask_to_set(support))


def _first_violation(n: int, candidates: dict[int, list[int]]) -> AxiomViolation:
    """The first C4 violation a full-scan search meets, for an infeasible
    search over these candidates (support mask -> keys of one circuit per
    ± pair).

    Before its first violation the depth-first search never backtracks,
    so it has placed the first candidate of every support up to the one
    that fails.  This places those through the full scan, in order.  A
    path that ends with no violation is a complete circuit set that meets
    C4, so the search was wrong to call the candidates infeasible: that
    raises MonorankError.
    """
    violation = _full_scan(n, {support: reps[0] for support, reps in candidates.items()})
    if violation is None:
        raise MonorankError(
            "completion search found the candidates infeasible, but their first "
            "candidates meet C4"
        )
    return violation


@dataclass(frozen=True, slots=True)
class _WitnessTables:
    """What _certify_witness reads on n elements at rank r and that depends
    on (n, r) alone; built by _witness_tables.  An incidence is a pair of a
    support and one of its elements, numbered k·(r+1) + i for S_k and its
    i-th smallest element s_i, the order in which the walk of
    _certify_witness visits them.

    elements: (N, r+1), the (r+1)-supports S_k in sorted (colexicographic)
      order, each with its elements ascending.
    binom: (n, r+2), C(j, p), so that a sorted set {c_0 < c_1 < ...} sits
      at Σ_p C(c_p, p+1) in colexicographic order among the sets of its
      size; capped at the number of supports or bases, whichever is
      larger, which no term of an index reaches, so it fits in int64.
    bases: (N, r+1), the index of the basis S_k ∖ s_i among the r-subsets.
    first: each basis's first incidence, whose circuit signs it.
    parent: each support's signer, the first incidence of S_k ∖ max S_k.
    paths: (N, D), each support's path to the root of the tree that parent
      spans: the support, its signer's support, that one's, and so on,
      padded with the root, the first support, which signs its own parent
      basis.
    relations: (6, T), the bases Aab, Acd, Aac, Abd, Aad, Abc of each
      3-term Grassmann–Plücker relation, one column per relation, in
      itertools.combinations order of A and then of a < b < c < d outside A.
    """

    elements: np.ndarray
    binom: np.ndarray
    bases: np.ndarray
    first: np.ndarray
    parent: np.ndarray
    paths: np.ndarray
    relations: np.ndarray

    def basis(self, b: int) -> list[int]:
        """The 1-based elements of basis b, read off its first incidence."""
        k, i = divmod(int(self.first[b]), self.elements.shape[1])
        return [int(e) + 1 for e in np.delete(self.elements[k], i)]


@functools.lru_cache(maxsize=64)
def _witness_tables(n: int, rank: int) -> _WitnessTables:
    """The certificate's tables on n elements at this rank (see
    _WitnessTables).  They depend on (n, rank) alone, so certificates share
    them; they share nothing with the search's _modular_checks."""
    size = rank + 1
    combos = _subsets(n, size)
    elements = combos[np.lexsort(combos.T)]  # by largest element, then the next
    count = len(elements)
    cap = max(count, math.comb(n, rank))
    binom = np.array(
        [[min(math.comb(j, p), cap) for p in range(size + 1)] for j in range(n)], np.int64
    )
    keep = _subsets(size, rank)[::-1]  # row i drops position i
    bases = _colex_index(binom, elements[:, keep])
    _, first = np.unique(bases, return_index=True)
    parent = first[bases[:, rank]]
    # the signer of a support other than the first comes earlier in the
    # walk, so every path reaches the first support, which is its own signer
    up = parent // size
    paths = [np.arange(count)]
    while paths[-1].any():
        paths.append(up[paths[-1]])
    relations = np.empty((6, 0), np.intp)
    if rank >= 2:
        inner = _subsets(n, rank - 2)
        outside = np.ones((len(inner), n), bool)
        outside[np.arange(len(inner))[:, None], inner] = False
        free = np.nonzero(outside)[1].reshape(len(inner), n - rank + 2)
        quads = free[:, _subsets(n - rank + 2, 4)]
        pairs = quads[:, :, [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]]]
        sets = np.concatenate(
            [np.broadcast_to(inner[:, None, None], (*pairs.shape[:3], rank - 2)), pairs], axis=-1
        )
        relations = _colex_index(binom, np.sort(sets, axis=-1)).reshape(-1, 6).T.copy()
    paths = np.stack(paths, axis=1)
    return _WitnessTables(elements, binom, bases, first, parent, paths, relations)


def _colex_index(binom: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The index of each row of ascending elements among the sets of its
    size in colexicographic order, Σ_p C(c_p, p+1), from a binom table."""
    return binom[sets, np.arange(1, sets.shape[-1] + 1)].sum(axis=-1)


def _certify_witness(n: int, rank: int, reps: Sequence[int], masks: list[int]) -> int:
    """Check a completion witness by other means than the search's C4
    scan; return the number of Grassmann–Plücker relations checked.

    reps holds the key of one circuit of each ± pair, one pair per
    (rank+1)-subset of the n elements, and masks the positive masks of the
    zero-free input set.  Three checks, each raising MonorankError
    with its name on failure:

    - orthogonality: a circuit v on support S fails against an input y
      when y ∩ S is v+ or v-;
    - chirotope: with S = s_0 < ... < s_r, C_S(s_i) = ε_S (-1)^i χ(S ∖ s_i)
      for one sign ε_S per support.  From χ({1..r}) = +1, the supports are
      walked in sorted (colexicographic) order: S reads ε_S off the sign of
      its basis S ∖ max S and gives χ to its other bases, which must agree
      with the signs they already have.  S ∖ max S is signed by then: it is
      {1..r} for the first support, and for any other it lies in the
      earlier support (S ∖ max S) ∪ x, x the smallest element outside S,
      which is below max S.  Every support must carry one circuit, and
      there must be no other circuits;
    - Grassmann–Plücker (r >= 2): for every (r-2)-set A and a < b < c < d
      outside it, χ(Aab)χ(Acd), -χ(Aac)χ(Abd) and χ(Aad)χ(Abc) (sets
      read in sorted order) do not all have one sign.  There are
      C(n, r-2)·C(n-r+2, 4) such relations.

    An alternating sign map on the r-subsets that meets every 3-term
    Grassmann–Plücker relation is a chirotope (Björner, Las Vergnas,
    Sturmfels, White & Ziegler, Oriented Matroids, §3.5–3.6), and the
    circuits read off it are those of a uniform rank-r oriented matroid.
    So a witness passes exactly when check_circuit_axioms accepts it.
    Failure means the search is at fault, hence the base error class.

    The walk's order is fixed, so every index in it comes from
    _witness_tables, and each check is a few array operations on the
    circuits' -1/0/+1 rows.  Orthogonality is one product of the circuits'
    ± rows with the inputs' ± rows: y·v is |S| or -|S| exactly when y ∩ S
    is v+ or v-.  ε_S is the sign of S ∖ max S, read at that basis's first
    incidence, times S's own term for max S, so it is the product of those
    terms along S's path in the tree of those first incidences; χ is then
    read at each basis's first incidence, and every incidence is compared with
    it at once.  The Grassmann–Plücker relations are one gather of χ.
    The failure reported is the one the walk meets first, with its
    message: the first circuit in reps to fail orthogonality; then the
    first support with no circuit or incidence that disagrees with χ, a
    support before its own incidences (every sign up to that point
    depends on earlier supports only, so it is the walk's); then the
    count of circuits; then the first failing relation.  As in a walk
    that files the circuits by support, the last circuit in reps on a
    support is the one read there.
    """
    tables = _witness_tables(n, rank)
    size = rank + 1
    # one -1/0/+1 row per circuit, and last a zero row, which a support
    # with no circuit reads
    signed = _signed_rows([*reps, 0], n)
    sizes = np.count_nonzero(signed, axis=1)
    # over ±1 rows, y·v is |S| or -|S| exactly when y ∩ S is v+ or v-
    dots = signed[:-1] @ _sign_matrix(masks, n).T
    bad = np.flatnonzero(np.abs(dots) == sizes[:-1, None])
    if bad.size:
        raise MonorankError(
            "completion witness fails orthogonality: circuit "
            f"{_vector(n, reps[bad[0] // len(masks)])} conforms to an input vector"
        )

    # signs are parities (0 for +, 1 for -): χ(S ∖ s_i) = ε_S ^ t_S(i),
    # t_S(i) = [C_S(s_i) = -] ^ (i & 1)
    on = np.flatnonzero(sizes == size)
    owner = np.full(len(tables.elements), -1)
    sets = np.nonzero(signed[on])[1].reshape(-1, size)
    np.maximum.at(owner, _colex_index(tables.binom, sets), on)
    t = (signed[owner[:, None], tables.elements] < 0) ^ (np.arange(size, dtype=np.uint8) & 1)
    # step: ε_S ^ ε of its signer's support, 0 for the first support, its
    # own signer; ε_S is the XOR of the steps on S's path and of ε of the
    # first support, which χ({1..r}) = +1 gives
    step = t.ravel()[tables.parent] ^ t[:, rank]
    eps = np.bitwise_xor.reduce(step[tables.paths], axis=1) ^ t[0, rank]
    sign = eps[:, None] ^ t
    chi = sign.ravel()[tables.first]
    clash = np.flatnonzero(sign != chi[tables.bases])
    missing = np.flatnonzero(owner < 0)
    if missing.size and not (clash.size and clash[0] // size < missing[0]):
        raise MonorankError(
            "completion witness fails chirotope: no circuit on support "
            f"{[int(e) + 1 for e in tables.elements[missing[0]]]}"
        )
    if clash.size:
        k, i = divmod(int(clash[0]), size)
        raise MonorankError(
            f"completion witness fails chirotope: circuit {_vector(n, reps[owner[k]])} gives "
            f"basis {tables.basis(tables.bases[k, i])} the opposite sign"
        )
    if len(tables.elements) != len(reps):
        raise MonorankError(
            f"completion witness fails chirotope: {len(reps)} circuits for "
            f"{len(tables.elements)} supports"
        )

    # χ(Aab)χ(Acd) = -χ(Aac)χ(Abd) = χ(Aad)χ(Abc) exactly when both
    # χ(Aab)χ(Acd)χ(Aac)χ(Abd) and χ(Aac)χ(Abd)χ(Aad)χ(Abc) are -1
    ab, cd, ac, bd, ad, bc = chi[tables.relations]
    middle = ac ^ bd
    bad = np.flatnonzero((ab ^ cd ^ middle) & (middle ^ ad ^ bc))
    if bad.size:
        left, right = (set(tables.basis(b)) for b in tables.relations[:2, bad[0]])
        raise MonorankError(
            "completion witness fails Grassmann–Plücker: three-term relation on "
            f"{sorted(left & right)} + {sorted(left ^ right)}"
        )
    return tables.relations.shape[1]


def om_rank_lower_bound(
    vectors: SignVectorSet,
    d_max: int,
    *,
    max_ground: int = DEFAULT_GROUND_GUARD,
    max_nodes: int | None = None,
) -> OmRankBound:
    """Smallest rank d <= d_max at which uniform completion succeeds.

    Every zero-free set on n elements completes trivially at rank n (the
    free matroid has all of {±}^n among its topes), so when d_max >= n and
    all smaller ranks fail the answer is n.  Otherwise failure up to d_max
    is reported as d_max + 1 with the exceeds flag set.  Adapter onto
    _om_rank.
    """
    n, masks = vectors.ground_size, _tope_masks(vectors)
    return _om_rank(n, masks, d_max, max_ground=max_ground, max_nodes=max_nodes)


def _om_rank(
    n: int, masks: list[int], d_max: int, *, max_ground: int, max_nodes: int | None
) -> OmRankBound:
    """om_rank_lower_bound on the positive masks of a zero-free,
    negation-closed set on n elements."""
    if _integer(d_max, "d_max") < 1:
        raise DomainError("d_max must be at least 1")
    attempts: list[tuple[int, CompletionResult]] = []
    for d in range(1, min(d_max, n - 1) + 1):
        result = _completion(n, masks, d, max_ground=max_ground, max_nodes=max_nodes)
        if result.timed_out:
            raise ResourceLimitError(f"completion search at rank {d} hit node budget")
        attempts.append((d, result))
        if result.feasible:
            return OmRankBound(d, exceeds=False, attempts=tuple(attempts))
    if d_max >= n:
        return OmRankBound(n, exceeds=False, attempts=tuple(attempts))
    return OmRankBound(d_max + 1, exceeds=True, attempts=tuple(attempts))


@dataclass(frozen=True, slots=True)
class MatrixCompletionRank:
    """Completion rank of a matrix: max of the difference-side rank and the
    threshold-side rank minus one.  exceeds means at least one side ran out
    of d_max, so value is a lower bound rather than the exact completion
    rank."""

    value: int
    exceeds: bool
    threshold: OmRankBound
    difference: OmRankBound


def om_completion_rank_of_matrix(
    matrix: np.ndarray,
    d_max: int,
    *,
    max_ground: int = DEFAULT_GROUND_GUARD,
    max_nodes: int | None = None,
) -> MatrixCompletionRank:
    a = _require_generic(matrix)
    thresh = _threshold_masks(a)
    diff = _difference_masks(a)
    return _completion_rank_of_masks(
        a.shape, thresh, diff, d_max, max_ground=max_ground, max_nodes=max_nodes
    )


def _completion_rank_of_masks(
    shape: tuple[int, int],
    thresh: list[int],
    diff: list[int],
    d_max: int,
    *,
    max_ground: int = DEFAULT_GROUND_GUARD,
    max_nodes: int | None = None,
) -> MatrixCompletionRank:
    """om_completion_rank_of_matrix from the sorted positive masks of an
    m-by-n matrix's threshold and difference topes, for callers that have
    built them already."""
    m, n = shape
    _integer(d_max, "d_max")  # here, so a refusal names d_max and not d_max + 1
    thresh_bound = _om_rank(m, thresh, d_max + 1, max_ground=max_ground, max_nodes=max_nodes)
    diff_bound = _om_rank(n, diff, d_max, max_ground=max_ground, max_nodes=max_nodes)
    return MatrixCompletionRank(
        value=max(diff_bound.value, thresh_bound.value - 1),
        exceeds=thresh_bound.exceeds or diff_bound.exceeds,
        threshold=thresh_bound,
        difference=diff_bound,
    )


# ---------------------------------------------------------------------------
# rank-two recognizer


def is_rank2_topes(vectors: SignVectorSet) -> bool:
    """Decide whether some rank-two oriented matroid contains every given
    zero-free vector among its topes, in O(mn) time for m vectors on n
    elements (one sort and one walk, see _is_rank2_masks).  Adapter onto
    _is_rank2_masks.

    Degenerate ground sets (n <= 2) are always completable; this matches
    the completion-rank convention that rank min(2, n) suffices there.
    """
    masks = _zero_free_masks(vectors, "rank-two recognition")
    return _is_rank2_masks(vectors.ground_size, masks)


def _is_rank2_masks(n: int, masks: list[int]) -> bool:
    """is_rank2_topes on the positive masks of zero-free vectors on n
    elements.  Two such vectors are separated exactly where their masks
    differ, so a separator is x ^ y and a negation is full ^ x.

    The topes of a rank-two matroid sit in a circular order in which each
    coordinate flips exactly once per half-turn.  Starting from the
    canonically smallest vector X*, the candidates are walked in order of
    |sep(X, X*)|, ties in canonical order (the sort is stable), and
    greedily chained while the separator stays nested; the set is
    completable iff the chain reaches one of each ± pair.  The walk keeps
    only the chain's last member and the set of its members.  Sorting the
    m closed masks costs O(m log m), which is O(mn) since m <= 2^n.
    """
    if not masks:
        return True
    full = (1 << n) - 1
    ordered = _negation_closure(masks, n)
    xstar = ordered[0]
    neg_xstar = full ^ xstar
    last, chain = xstar, {xstar}
    for v in sorted(ordered, key=lambda v: (v ^ xstar).bit_count()):
        if v != last and (last ^ v) | (v ^ neg_xstar) == last ^ neg_xstar:
            last = v
            chain.add(v)
    return all(v in chain or full ^ v in chain for v in ordered)
