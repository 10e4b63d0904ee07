import itertools
import math

import numpy as np
import pytest

from monorank import (
    AxiomReport,
    AxiomViolation,
    CircuitCandidateSet,
    CompletionResult,
    DomainError,
    PointArrangement,
    ResourceLimitError,
    SignVector,
    SignVectorSet,
    build_report,
    check_circuit_axioms,
    difference_topes,
    is_rank2_topes,
    om_completion_rank_of_matrix,
    om_rank_lower_bound,
    point_circuits,
    potential_circuits,
    random_representation,
    threshold_topes,
    uniform_completion,
    vc_rank,
)

from monorank.errors import MonorankError
from monorank.omatroid import (
    _certify_witness,
    _colex_index,
    _first_violation,
    _is_rank2_masks,
    _modular_checks,
    _modular_violation,
    _witness_tables,
)
from monorank.signs import _mask, _mask_to_set, _vector

from .fixtures import (
    POTENTIAL_CIRCUITS_RAD_STRICT,
    RAD_STRICT,
    RANK2_CYCLE,
    RANK3_REJECT,
    oracle_matrices,
)


def keys(vectors):
    """The keys pos << n | neg of sign vectors, as the completion layer's
    internals take them."""
    return [v.pos << v.length | v.neg for v in vectors]


def full_cube(n: int) -> SignVectorSet:
    full = (1 << n) - 1
    return SignVectorSet(
        n, [SignVector(n, p, full & ~p) for p in range(1 << n)]
    )


# -- potential circuits ------------------------------------------------------


def test_potential_circuits_rad_strict_exact():
    circuits = potential_circuits(threshold_topes(RAD_STRICT), 3)
    assert set(circuits.strings()) == POTENTIAL_CIRCUITS_RAD_STRICT


def test_potential_circuits_one_pair_per_support():
    circuits = potential_circuits(threshold_topes(RAD_STRICT), 3)
    by_support = {}
    for v in circuits:
        by_support.setdefault(frozenset(v.support()), set()).add(v)
    assert set(by_support) == {
        frozenset(s) for s in itertools.combinations(range(1, 6), 4)
    }
    assert all(len(pair) == 2 for pair in by_support.values())


def test_potential_circuits_of_full_cube_empty():
    for n in (2, 3, 4):
        for d in range(1, n):
            assert len(potential_circuits(full_cube(n), d)) == 0


@pytest.mark.parametrize(
    "search, value, message",
    [
        (potential_circuits, 1.5, "rank must be an integer, got 1.5"),
        (uniform_completion, 1.5, "rank must be an integer, got 1.5"),
        (uniform_completion, "2", "rank must be an integer, got '2'"),
        (om_rank_lower_bound, 1.5, "d_max must be an integer, got 1.5"),
        (om_rank_lower_bound, 2.0, "d_max must be an integer, got 2.0"),
        # the threshold side runs at d_max + 1; the refusal names d_max itself
        (om_completion_rank_of_matrix, 1.5, "d_max must be an integer, got 1.5"),
    ],
)
def test_completion_refuses_ranks_that_are_not_integers(search, value, message):
    topes = threshold_topes(RAD_STRICT)
    with pytest.raises(DomainError) as info:
        search(RAD_STRICT if search is om_completion_rank_of_matrix else topes, value)
    assert str(info.value) == message


def test_completion_takes_numpy_integer_ranks():
    topes = threshold_topes(RAD_STRICT)
    assert potential_circuits(topes, np.int64(3)) == potential_circuits(topes, 3)
    assert uniform_completion(topes, np.int32(2)) == uniform_completion(topes, 2)
    assert om_rank_lower_bound(topes, np.int64(3)) == om_rank_lower_bound(topes, 3)
    got = om_completion_rank_of_matrix(RAD_STRICT, np.int64(2))
    assert got == om_completion_rank_of_matrix(RAD_STRICT, 2)


def test_potential_circuits_orthogonal_and_closed():
    topes = threshold_topes(RAD_STRICT)
    circuits = potential_circuits(topes, 3)
    assert circuits.is_negation_closed()
    assert all(c.orthogonal(t) for c in circuits for t in topes)


@pytest.mark.parametrize("rank", [-2, -1, 0, 3])
def test_potential_circuits_rank_outside_one_to_n_minus_one(rank):
    # one rank check for the candidate builder and the search: RANK2_CYCLE
    # has n = 3, so rank 3 leaves no support of size rank + 1
    with pytest.raises(DomainError, match=f"got {rank}"):
        potential_circuits(RANK2_CYCLE, rank)
    with pytest.raises(DomainError, match=f"got {rank}"):
        uniform_completion(RANK2_CYCLE, rank)


# -- circuit axioms ----------------------------------------------------------


def test_axiom_check_rad_strict_c4_witness():
    circuits = potential_circuits(threshold_topes(RAD_STRICT), 3)
    rep = check_circuit_axioms(circuits)
    assert not rep.ok
    v = rep.violation
    assert v.axiom == "C4"
    assert str(v.x) == "+--0-"
    assert str(v.y) == "-+0-+"
    assert v.element == 5
    assert v.as_dict() == {
        "axiom": "C4",
        "x": "+--0-",
        "y": "-+0-+",
        "element": 5,
    }


def test_axiom_check_geometric_circuits_pass():
    rng = np.random.default_rng(8)
    pts = PointArrangement(2, rng.standard_normal((5, 2)))
    assert check_circuit_axioms(point_circuits(pts)).ok


def test_axiom_check_minimal_pair():
    assert check_circuit_axioms(SignVectorSet.from_strings(["+-", "-+"])).ok


def test_axiom_check_c1():
    rep = check_circuit_axioms(SignVectorSet.from_strings(["00", "+-", "-+"]))
    assert not rep.ok and rep.violation.axiom == "C1"


def test_axiom_check_c2():
    rep = check_circuit_axioms(SignVectorSet.from_strings(["+-"]))
    assert not rep.ok and rep.violation.axiom == "C2"


def test_axiom_check_c3():
    rep = check_circuit_axioms(
        SignVectorSet.from_strings(["+-0", "-+0", "+-+", "-+-"])
    )
    assert not rep.ok and rep.violation.axiom == "C3"


def test_axiom_check_empty_set_passes():
    assert check_circuit_axioms(SignVectorSet(3, [])).ok


# -- uniform completion ------------------------------------------------------


def test_completion_rad_strict_infeasible_with_witness():
    result = uniform_completion(threshold_topes(RAD_STRICT), 3)
    assert not result.feasible
    assert result.witness is None
    v = result.violation
    assert (v.axiom, str(v.x), str(v.y), v.element) == ("C4", "+--0-", "-+0-+", 5)


def test_completion_rank2_cycle_feasible():
    result = uniform_completion(RANK2_CYCLE, 2)
    assert result.feasible
    witness = result.witness
    assert witness.uniform_rank == 2
    assert check_circuit_axioms(witness).ok
    assert all(c.orthogonal(t) for c in witness for t in RANK2_CYCLE)


def test_completion_rank3_reject_at_rank2():
    assert not uniform_completion(RANK3_REJECT, 2).feasible


def test_completion_rank3_reject_feasible_at_rank3():
    assert uniform_completion(RANK3_REJECT, 3).feasible


def test_completion_missing_support_immediate():
    result = uniform_completion(full_cube(3), 2)
    assert not result.feasible
    assert result.missing_support == frozenset({1, 2, 3})


def test_searches_stopped_at_one_support_share_one_result():
    first, again = uniform_completion(full_cube(3), 2), uniform_completion(full_cube(3), 2)
    other = uniform_completion(full_cube(4), 2)
    assert first is again is other
    assert first == CompletionResult(feasible=False, missing_support=frozenset({1, 2, 3}))


def test_completion_guard():
    vectors = full_cube(11)
    with pytest.raises(ResourceLimitError):
        uniform_completion(vectors, 2)
    with pytest.raises(DomainError):
        uniform_completion(full_cube(3), 3)


_SEARCHES = {
    "uniform_completion": lambda **guards: uniform_completion(RANK2_CYCLE, 2, **guards),
    "om_rank_lower_bound": lambda **guards: om_rank_lower_bound(RANK2_CYCLE, 2, **guards),
    "build_report": lambda **guards: build_report(RAD_STRICT, complete_d_max=2, **guards),
}


@pytest.mark.parametrize(
    "search, option, value",
    [
        (search, "max_ground", value)
        for search in _SEARCHES
        for value in ("10", "9", 10.5, 10.0, None)
    ]
    + [
        (search, "max_nodes", value)
        for search in ("uniform_completion", "om_rank_lower_bound")
        for value in ("3", 3.0)
    ],
)
def test_completion_guards_that_are_not_integers_are_domain_errors(search, option, value):
    # these leaked TypeError from the comparison, or were compared as floats
    with pytest.raises(DomainError) as info:
        _SEARCHES[search](**{option: value})
    assert str(info.value) == f"{option} must be an integer, got {value!r}"


def test_completion_guards_take_integers_and_no_budget():
    for guards in ({"max_ground": np.int64(3)}, {"max_nodes": np.int64(100)}, {"max_nodes": None}):
        assert uniform_completion(RANK2_CYCLE, 2, **guards) == uniform_completion(RANK2_CYCLE, 2)
    with pytest.raises(ResourceLimitError, match="ground set size 3 exceeds completion guard 2"):
        uniform_completion(RANK2_CYCLE, 2, max_ground=np.int64(2))


def test_completion_node_budget_sets_timeout():
    result = uniform_completion(RANK2_CYCLE, 2, max_nodes=0)
    assert result.timed_out and not result.feasible


def test_rank_bound_raises_when_a_rank_hits_the_node_budget():
    # rank 1 fails on a missing support with no node tried; rank 2 times out
    with pytest.raises(ResourceLimitError, match="rank 2 hit node budget"):
        om_rank_lower_bound(RANK2_CYCLE, 2, max_nodes=0)


def test_completion_rejects_unclosed_input():
    with pytest.raises(DomainError):
        uniform_completion(SignVectorSet.from_strings(["++-"]), 2)


# -- rank bounds -------------------------------------------------------------


def test_om_rank_rank3_reject():
    bound = om_rank_lower_bound(RANK3_REJECT, 3)
    assert bound.value == 3 and not bound.exceeds


def test_om_rank_rank3_reject_exceeds_cap():
    bound = om_rank_lower_bound(RANK3_REJECT, 2)
    assert bound.value == 3 and bound.exceeds


def test_om_rank_rank2_cycle():
    bound = om_rank_lower_bound(RANK2_CYCLE, 2)
    assert bound.value == 2 and not bound.exceeds


def test_om_rank_constant_pair_is_one():
    for n in range(2, 6):
        vectors = SignVectorSet.from_strings(["+" * n, "-" * n])
        assert om_rank_lower_bound(vectors, 3).value == 1


@pytest.mark.parametrize("text", ["0", "+"])
def test_om_rank_refuses_invalid_sets_on_one_element(text):
    # n = 1 tries no rank, so only reading the set can refuse these: "0"
    # is not zero-free and "+" is not negation-closed
    with pytest.raises(DomainError):
        om_rank_lower_bound(SignVectorSet.from_strings([text]), 1)


def test_om_rank_full_cube_trivial_rank_n():
    bound = om_rank_lower_bound(full_cube(3), 5)
    assert bound.value == 3 and not bound.exceeds


def test_om_matrix_rad_strict():
    result = om_completion_rank_of_matrix(RAD_STRICT, 3)
    assert result.value >= 3
    rank3 = dict(result.threshold.attempts)[3]
    assert not rank3.feasible
    assert str(rank3.violation.x) == "+--0-"


def test_completion_results_are_slotted():
    rank = om_completion_rank_of_matrix(RAD_STRICT, 3)
    results = [r for bound in (rank.threshold, rank.difference) for _, r in bound.attempts]
    feasible = next(r for r in results if r.feasible)
    infeasible = next(r for r in results if r.violation is not None)
    report = check_circuit_axioms(feasible.witness)
    objects = [rank, rank.threshold, feasible, feasible.witness, infeasible.violation, report]
    assert {type(o).__name__ for o in objects} == {
        "MatrixCompletionRank",
        "OmRankBound",
        "CompletionResult",
        "CircuitCandidateSet",
        "AxiomViolation",
        "AxiomReport",
    }
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_om_matrix_a1():
    from .fixtures import DISTORTION_A

    assert om_completion_rank_of_matrix(DISTORTION_A, 3).value == 2


def test_matrix_completion_rank_matches_the_set_path():
    # om_completion_rank_of_matrix hands tope masks to the search, while
    # om_rank_lower_bound reads a SignVectorSet: attempts, witnesses and
    # violations must agree (RAD_STRICT fails C4 at threshold rank 3)
    cases = [(RAD_STRICT, 3)] + [
        (random_representation(m, n, d, seed=seed).matrix, d)
        for m, n, d in [(5, 4, 1), (5, 4, 2), (6, 5, 2), (6, 6, 3), (7, 7, 2)]
        for seed in range(3)
    ]
    for a, d in cases:
        got = om_completion_rank_of_matrix(a, d)
        assert got.threshold == om_rank_lower_bound(threshold_topes(a), d + 1)
        assert got.difference == om_rank_lower_bound(difference_topes(a), d)


def test_om_matrix_random_reps_bounded_by_d():
    for d in (1, 2, 3):
        for seed in range(6):
            rep = random_representation(5, 4, d, seed=seed)
            assert om_completion_rank_of_matrix(rep.matrix, 3).value <= d


# -- rank-two recognizer -----------------------------------------------------


def test_is_rank2_examples():
    assert is_rank2_topes(RANK2_CYCLE)
    assert not is_rank2_topes(RANK3_REJECT)
    assert is_rank2_topes(SignVectorSet.from_strings(["++", "--"]))


def test_is_rank2_rejects_zeros():
    with pytest.raises(DomainError):
        is_rank2_topes(SignVectorSet.from_strings(["+0"]))


def all_negation_closed_families(n, max_pairs):
    full = (1 << n) - 1
    vectors = [SignVector(n, p, full & ~p) for p in range(1 << n)]
    pairs = sorted({tuple(sorted((v, -v), key=SignVector.sort_key)) for v in vectors})
    for r in range(1, max_pairs + 1):
        for combo in itertools.combinations(pairs, r):
            yield SignVectorSet(n, [v for pair in combo for v in pair])


def test_is_rank2_matches_completion_n3():
    for family in all_negation_closed_families(3, 4):
        assert is_rank2_topes(family) == uniform_completion(family, 2).feasible


def test_is_rank2_sound_on_geometric_topes():
    for seed in range(10):
        rep = random_representation(5, 4, 2, seed=seed)
        assert is_rank2_topes(difference_topes(rep.matrix))
    found = 0
    for seed in range(40):
        rep = random_representation(6, 6, 3, seed=seed)
        diff = difference_topes(rep.matrix)
        if vc_rank(rep.matrix) == 3:
            found += 1
            assert not uniform_completion(diff, 2).feasible
            assert not is_rank2_topes(diff)
        if found >= 5:
            break
    assert found >= 1


def reference_is_rank2_topes(vectors: SignVectorSet) -> bool:
    """Reference oracle: the former recognizer on SignVector objects."""
    if len(vectors) == 0:
        return True
    n = vectors.ground_size
    plus_minus: set[SignVector] = set()
    for v in vectors:
        plus_minus.add(v)
        plus_minus.add(-v)
    ordered = sorted(plus_minus, key=SignVector.sort_key)
    xstar = ordered[0]
    neg_xstar = -xstar
    buckets: list[list[SignVector]] = [[] for _ in range(n + 1)]
    for v in ordered:
        buckets[v.separator_mask(xstar).bit_count()].append(v)
    chain = [xstar]
    chain_set = {xstar}
    for bucket in buckets:
        for v in bucket:
            last = chain[-1]
            if v == last:
                continue
            nested = last.separator_mask(v) | v.separator_mask(neg_xstar)
            if nested == last.separator_mask(neg_xstar):
                chain.append(v)
                chain_set.add(v)
    return all(v in chain_set or -v in chain_set for v in plus_minus)


def test_is_rank2_matches_object_reference():
    families = list(all_negation_closed_families(4, 4))
    rng = np.random.default_rng(12)
    for _ in range(300):
        # arbitrary zero-free sets, not only negation-closed ones
        n = int(rng.integers(1, 9))
        full = (1 << n) - 1
        masks = rng.integers(0, 1 << n, size=int(rng.integers(1, 12)))
        vectors = [SignVector(n, int(p), full ^ int(p)) for p in masks]
        families.append(SignVectorSet(n, vectors))
    for a in oracle_matrices():
        families += [threshold_topes(a), difference_topes(a)]
    agree = {True: 0, False: 0}
    for family in families:
        expected = reference_is_rank2_topes(family)
        assert is_rank2_topes(family) == expected
        assert _is_rank2_masks(family.ground_size, [v.pos for v in family]) == expected
        agree[expected] += 1
    assert min(agree.values()) >= 50


def bucket_is_rank2_masks(n: int, masks: list[int]) -> bool:
    """Reference oracle: the former mask recognizer, which bucket-sorted
    the closed masks by their distance from X* and kept the whole chain."""
    if not masks:
        return True
    full = (1 << n) - 1
    ordered = sorted(set(masks) | {full ^ p for p in masks})
    xstar = ordered[0]
    neg_xstar = full ^ xstar
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    for v in ordered:
        buckets[(v ^ xstar).bit_count()].append(v)
    chain = [xstar]
    chain_set = {xstar}
    for bucket in buckets:
        for v in bucket:
            last = chain[-1]
            if v == last:
                continue
            if (last ^ v) | (v ^ neg_xstar) == last ^ neg_xstar:
                chain.append(v)
                chain_set.add(v)
    return all(v in chain_set or full ^ v in chain_set for v in ordered)


def test_is_rank2_masks_match_the_bucket_version():
    rng = np.random.default_rng(23)
    verdicts = {True: 0, False: 0}
    for trial in range(3000):
        n = int(rng.integers(0, 9))
        full = (1 << n) - 1
        masks = {int(p) for p in rng.integers(0, 1 << n, size=int(rng.integers(0, 14)))}
        if trial % 2:  # negation-closed on odd trials, arbitrary on even ones
            masks |= {full ^ p for p in masks}
        masks = sorted(masks)
        expected = bucket_is_rank2_masks(n, masks)
        assert _is_rank2_masks(n, masks) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 300


def test_is_rank2_linear_scaling():
    # the recognizer does O(m) word-parallel operations, each an xor of
    # whole n-bit masks: doubling m should roughly double the operation
    # count and doubling n should not change it.  Masks that count their
    # xors keep the check independent of host speed.
    rng = np.random.default_rng(99)
    calls = 0

    class CountedMask(int):
        def __xor__(self, other):
            nonlocal calls
            calls += 1
            return CountedMask(int(self) ^ int(other))

        __rxor__ = __xor__

    def family(m, n):
        rows = rng.integers(0, 2, size=(m, n))
        members = []
        for row in rows:
            v = SignVector.from_signs(2 * row - 1)
            members.extend((v, -v))
        return SignVectorSet(n, members)

    def measure(m, n):
        nonlocal calls
        masks = [CountedMask(v.pos) for v in family(m, n)]
        calls = 0
        _is_rank2_masks(n, masks)
        return calls

    base = measure(1000, 200)
    double_m = measure(2000, 200)
    double_n = measure(1000, 400)
    assert 1.0 <= double_m / base <= 3.0
    assert double_n == base


# -- reference scan (test oracle) ---------------------------------------------
# The snapshot-based scan and the recursive search that the key-ordered full
# scan and the iterative search replaced.  Decisiveness scans every support,
# every deferred check is re-tested after each placement, and backtracking
# restores copies of the whole state.  The library must report exactly what
# these report.


class ReferenceScan:
    def __init__(self, ground_size, supports):
        self.ground_size = ground_size
        self.supports = sorted(supports)
        self.placed_supports = set()
        self.pool = []
        self.deferred = []

    def snapshot(self):
        return (set(self.placed_supports), list(self.pool), list(self.deferred))

    def restore(self, state):
        self.placed_supports, self.pool, self.deferred = state

    def _decisive(self, x, y, e_bit):
        zone = (x.support_mask | y.support_mask) & ~e_bit
        return all(t in self.placed_supports for t in self.supports if t & ~zone == 0)

    def _fire(self, x, y, e_bit):
        allowed_pos = (x.pos | y.pos) & ~e_bit
        allowed_neg = (x.neg | y.neg) & ~e_bit
        if any(
            z.pos & ~allowed_pos == 0 and z.neg & ~allowed_neg == 0 for z in self.pool
        ):
            return None
        return AxiomViolation("C4", x, y, element=e_bit.bit_length())

    def place(self, support, members):
        new = sorted(members, key=SignVector.sort_key)
        self.pool = sorted(self.pool + new, key=SignVector.sort_key)
        self.placed_supports.add(support)
        for x in self.pool:
            for y in new:
                if x == y or x == -y:
                    continue
                sep = x.separator_mask(y)
                while sep:
                    e_bit = sep & -sep
                    sep ^= e_bit
                    if not self._decisive(x, y, e_bit):
                        self.deferred.append((x, y, e_bit))
                        continue
                    violation = self._fire(x, y, e_bit)
                    if violation is not None:
                        return violation
        still = []
        for x, y, e_bit in self.deferred:
            if self._decisive(x, y, e_bit):
                violation = self._fire(x, y, e_bit)
                if violation is not None:
                    return violation
            else:
                still.append((x, y, e_bit))
        self.deferred = still
        return None

    def final_sweep(self):
        for x, y, e_bit in self.deferred:
            violation = self._fire(x, y, e_bit)
            if violation is not None:
                return violation
        self.deferred = []
        return None


class ZoneMemoModularScan:
    """The completion search's modular scan as it was before each check's
    zone was looked up as one support: the supports inside a zone are
    found by scanning them all, memoised per zone, and the zone's trigger
    is the last of them.  It walks every placed circuit, both of each ±
    pair, in sorted order.  Circuits are keys pos << n | neg, as in the
    library."""

    def __init__(self, ground_size, supports):
        self.n = ground_size
        self.supports = sorted(supports)
        self.span = self.supports[0].bit_count() + 1
        self.placed = []
        self.pool = []
        self.zones = {}

    def zone(self, zone):
        if zone not in self.zones:
            inside = tuple(i for i, t in enumerate(self.supports) if t & ~zone == 0)
            self.zones[zone] = (inside[-1] if inside else -1, inside)
        return self.zones[zone]

    def checks(self):
        """The modular checks (x, y, e) of the latest placement, in the
        order place() tests them."""
        n = self.n
        full = (1 << n) - 1
        new = self.placed[-1]
        support = (new[0] >> n | new[0]) & full
        for x in self.pool:
            if x in new:
                continue
            spread = (x >> n | x) & full | support
            if spread.bit_count() != self.span:
                continue
            for y in new:
                sep = (x >> n & y) | (x & y >> n)
                while sep:
                    e = sep & -sep
                    sep ^= e
                    yield x, y, e

    def fails(self, x, y, e):
        """Whether the check (x, y, e) is decisive on the placed supports
        and no placed circuit in its zone eliminates."""
        n = self.n
        full = (1 << n) - 1
        trigger, inside = self.zone(((x | y) >> n | x | y) & full ^ e)
        if trigger >= len(self.placed):
            return False
        forbidden = ~(x | y) | e << n | e
        return all(z & forbidden for i in inside for z in self.placed[i])

    def place(self, rep):
        n = self.n
        new = sorted((rep.pos << n | rep.neg, rep.neg << n | rep.pos))
        self.placed.append(new)
        self.pool = sorted(self.pool + new)
        return next((check for check in self.checks() if self.fails(*check)), None)

    def undo(self):
        for key in self.placed.pop():
            self.pool.remove(key)


def reference_check_circuit_axioms(circuits):
    members = list(circuits)
    for v in members:
        if v.support_mask == 0:
            return AxiomReport(False, AxiomViolation("C1", v))
    index = set(members)
    for v in members:
        if -v not in index:
            return AxiomReport(False, AxiomViolation("C2", v))
    ordered = sorted(index, key=SignVector.sort_key)
    for i, x in enumerate(ordered):
        for y in ordered[i + 1 :]:
            if x == -y:
                continue
            sx, sy = x.support_mask, y.support_mask
            if sx & ~sy == 0 or sy & ~sx == 0:
                return AxiomReport(False, AxiomViolation("C3", x, y))
    by_support = {}
    for v in ordered:
        by_support.setdefault(v.support_mask, []).append(v)
    scan = ReferenceScan(circuits.ground_size, list(by_support))
    for support in scan.supports:
        violation = scan.place(support, by_support[support])
        if violation is not None:
            return AxiomReport(False, violation)
    violation = scan.final_sweep()
    if violation is not None:
        return AxiomReport(False, violation)
    return AxiomReport(True, None)


def support_pair_reps(n, support):
    """One vector per ± pair on a 0-based support, + at its smallest element."""
    head, *rest = support
    for bits in range(1 << len(rest)):
        pos, neg = 1 << head, 0
        for idx, i in enumerate(rest):
            if bits >> idx & 1:
                neg |= 1 << i
            else:
                pos |= 1 << i
        yield SignVector(n, pos, neg)


def orthogonal_candidates(vectors, rank):
    """(support mask, 0-based support, sorted orthogonal reps) per (rank+1)-
    support in combinations order, by pairwise orthogonality."""
    n = vectors.ground_size
    members = list(vectors)
    out = []
    for support in itertools.combinations(range(n), rank + 1):
        reps = [
            v for v in support_pair_reps(n, support)
            if all(v.orthogonal(y) for y in members)
        ]
        mask = sum(1 << i for i in support)
        out.append((mask, support, sorted(reps, key=SignVector.sort_key)))
    return out


def reference_uniform_completion(vectors, rank, max_nodes=None):
    n = vectors.ground_size
    candidates = {}
    for mask, support, reps in orthogonal_candidates(vectors, rank):
        if not reps:
            return CompletionResult(
                feasible=False, missing_support=frozenset(i + 1 for i in support)
            )
        candidates[mask] = reps
    supports = sorted(candidates)
    scan = ReferenceScan(n, supports)
    first_violation = [None]
    nodes = [0]

    class Budget(Exception):
        pass

    def place(k):
        if k == len(supports):
            state = scan.snapshot()
            violation = scan.final_sweep()
            if violation is None:
                return True
            if first_violation[0] is None:
                first_violation[0] = violation
            scan.restore(state)
            return False
        support = supports[k]
        for rep in candidates[support]:
            if max_nodes is not None and nodes[0] >= max_nodes:
                raise Budget
            nodes[0] += 1
            state = scan.snapshot()
            violation = scan.place(support, [rep, -rep])
            if violation is None:
                if place(k + 1):
                    return True
            elif first_violation[0] is None:
                first_violation[0] = violation
            scan.restore(state)
        return False

    try:
        feasible = place(0)
    except Budget:
        return CompletionResult(feasible=False, timed_out=True, nodes=nodes[0])
    if not feasible:
        return CompletionResult(feasible=False, violation=first_violation[0], nodes=nodes[0])
    witness = CircuitCandidateSet(
        n, SignVectorSet(n, scan.pool, negation_closed=True), uniform_rank=rank
    )
    return CompletionResult(feasible=True, witness=witness, nodes=nodes[0])


def summary(result):
    return {
        "feasible": result.feasible,
        "timed_out": result.timed_out,
        "witness": result.witness.circuits.strings() if result.witness else None,
        "violation": result.violation.as_dict() if result.violation else None,
        "missing_support": result.missing_support,
        "nodes": result.nodes,
    }


def random_sign_set(rng, n, pairs):
    """`pairs` distinct ± pairs of zero-free vectors on n elements."""
    full = (1 << n) - 1
    reps = rng.choice(1 << (n - 1), size=pairs, replace=False)
    vecs = []
    for pos in (int(p) for p in reps):
        vecs += [SignVector(n, pos, full & ~pos), SignVector(n, full & ~pos, pos)]
    return SignVectorSet(n, vecs, negation_closed=True)


def outcome_kind(result):
    if result.timed_out:
        return "timed_out"
    if result.feasible:
        return "feasible"
    return "missing_support" if result.missing_support is not None else "C4"


def random_suite():
    """(sign set, rank) pairs of the seeded random completion suite."""
    rng = np.random.default_rng(41)
    cases = [
        (n, rank, pairs)
        for n in range(4, 8)
        for rank in range(1, min(4, n - 1) + 1)
        for pairs in (1, 2, 3, 4, 5, 6, 8) * 2
        if pairs <= 1 << (n - 1)
    ]
    # the strata that end in C4 violations after backtracking most often
    cases += [(n, 2, 3) for n in (5, 6, 7)] * 4 + [(7, 3, 8)] * 4
    for n, rank, pairs in cases:
        yield random_sign_set(rng, n, pairs), rank


def test_completion_matches_reference_scan_on_random_sets():
    kinds = []
    for sset, rank in random_suite():
        got = uniform_completion(sset, rank, max_nodes=100)
        want = reference_uniform_completion(sset, rank, max_nodes=100)
        assert summary(got) == summary(want), (rank, sset.strings())
        kinds.append(outcome_kind(got))
    assert len(kinds) == 226
    assert set(kinds) == {"feasible", "C4", "missing_support", "timed_out"}
    assert kinds.count("C4") >= 8


def modular_search_log(scan, choices, max_nodes):
    """What scan.place returned at each placement of the completion
    search's depth-first loop over choices[k], the candidate reps of the
    scan's k-th support, stopping after max_nodes placements."""
    log, tried, k = [], [0] * len(choices), 0
    while k < len(choices) and len(log) < max_nodes:
        if tried[k] == len(choices[k]):
            if k == 0:
                break
            tried[k] = 0
            k -= 1
            scan.undo()
            continue
        log.append(scan.place(choices[k][tried[k]]))
        tried[k] += 1
        if log[-1] is None:
            k += 1
        else:
            scan.undo()
    return log


def search_paths():
    """(sign set, rank, scan supports, candidate reps per support) for the
    random suite's searches that reach the C4 scan."""
    for sset, rank in random_suite():
        candidates = {mask: reps for mask, _, reps in orthogonal_candidates(sset, rank)}
        if all(candidates.values()):
            supports = sorted(candidates)
            yield sset, rank, supports, [candidates[support] for support in supports]


class LockstepScan:
    """The search's checks (_modular_violation on the rows of
    _modular_checks) and ZoneMemoModularScan, placed and undone together.
    At each placement they must agree on whether a check fails, and the
    check the library returns must be one of the oracle's modular checks
    that fails by the oracle's own zone test.  Which failing check comes
    back is free: the search only asks whether there is one."""

    def __init__(self, n, supports):
        self.n = n
        self.rows = _modular_checks(n, supports[0].bit_count() - 1)
        self.placed = []
        self.oracle = ZoneMemoModularScan(n, supports)

    def place(self, rep):
        row = self.rows[len(self.placed)]
        got = _modular_violation(self.n, row, self.placed, *keys([rep]))
        self.placed.append(tuple(keys([rep, -rep])))
        want = self.oracle.place(rep)
        assert (got is None) == (want is None)
        if got is not None:
            assert got in set(self.oracle.checks()) and self.oracle.fails(*got)
        return got

    def undo(self):
        self.placed.pop()
        self.oracle.undo()


def test_modular_scan_matches_zone_memo_oracle_along_search_paths():
    # the same verdict at every placement, a failing returned check, and
    # nodes exactly
    placements = failed = 0
    for sset, rank, supports, choices in search_paths():
        log = modular_search_log(LockstepScan(sset.ground_size, supports), choices, 100)
        assert uniform_completion(sset, rank, max_nodes=100).nodes == len(log)
        placements += len(log)
        failed += sum(check is not None for check in log)
    assert placements > 4000 and failed > 2000


class NegationCheckingScan(ZoneMemoModularScan):
    """The oracle scan, which asserts at each placement that every modular
    check (x, y, e) has the verdict of (-x, -y, e)."""

    def __init__(self, ground_size, supports):
        super().__init__(ground_size, supports)
        self.checked = self.failed = 0

    def place(self, rep):
        violation = super().place(rep)
        n = self.n
        full = (1 << n) - 1
        for x, y, e in self.checks():
            minus_x, minus_y = (x & full) << n | x >> n, (y & full) << n | y >> n
            fails = self.fails(x, y, e)
            assert self.fails(minus_x, minus_y, e) == fails
            self.checked += 1
            self.failed += fails
        return violation


def test_negated_modular_checks_share_one_verdict_along_search_paths():
    # the identity that lets the library walk one circuit of each placed pair
    checked = failed = 0
    for sset, _, supports, choices in search_paths():
        scan = NegationCheckingScan(sset.ground_size, supports)
        modular_search_log(scan, choices, 100)
        checked += scan.checked
        failed += scan.failed
    assert checked > 100_000 and failed > 10_000


# searches on which the modular scan tries more candidates than the full
# scan, which prunes some branches earlier; the outcome is the same
NODES_GROW = [
    (["+++----", "+-+++--", "+--+-+-", "-++-++-", "++-+++-", "+-++++-", "-+++++-",
      "+-----+", "-+----+", "--+---+", "+--+--+", "-++-+-+", "-+---++", "---++++"], 3),
    (["+------", "+++----", "+++-+--", "---++--", "-+-++--", "+--+-+-", "--+-++-",
      "-+-+++-", "+-++++-", "-+----+", "+-+---+", "++-+--+", "-++-+-+", "+-+--++",
      "+++--++", "---+-++", "---++++", "-++++++"], 3),
]

# infeasible searches whose first violation the full scan and the modular
# scan name differently on the path of first candidates
REPLAY_MATTERS = [
    (["------", "-+----", "--+---", "-+--+-", "-++-+-", "+--++-", "--+++-", "-++++-",
      "+----+", "++---+", "-++--+", "+--+-+", "+-++-+", "++-+++", "+-++++", "++++++"], 3),
    (["---+---", "--++---", "+---+--", "++--+--", "-+---+-", "+-+--+-", "---+-+-",
      "++++++-", "------+", "+++-+-+", "-+-++-+", "+-+++-+", "--++-++", "-+++-++",
      "++--+++", "+++-+++"], 3),
]


def larger_random_suite():
    """(sign set, rank) pairs on 4 to 8 elements at ranks 2 to 5, then
    NODES_GROW and REPLAY_MATTERS."""
    rng = np.random.default_rng(43)
    cases = [
        (n, rank, pairs)
        for n in range(4, 9)
        for rank in range(2, min(5, n - 1) + 1)
        # the reference takes about half a second per search on 8 elements
        for pairs in ((3, 8) if n == 8 else (2, 3, 4, 6, 8, 12))
    ]
    # the strata that end in C4 violations after backtracking most often
    cases += [(n, 2, 3) for n in (5, 6, 7, 8)] * 3 + [(7, 3, 8)] * 4
    for n, rank, pairs in cases:
        yield random_sign_set(rng, n, min(pairs, 1 << (n - 1))), rank
    for strings, rank in NODES_GROW + REPLAY_MATTERS:
        yield SignVectorSet.from_strings(strings), rank


def test_completion_matches_full_scan_reference_on_larger_suite():
    # the modular scan reaches the same outcome as the full scan, after
    # trying at least as many candidates
    kinds, grew = [], 0
    for sset, rank in larger_random_suite():
        result = uniform_completion(sset, rank, max_nodes=500)
        want = summary(reference_uniform_completion(sset, rank, max_nodes=500))
        got = summary(result)
        kinds.append(outcome_kind(result))
        if got["timed_out"] or want["timed_out"]:
            continue
        assert got["nodes"] >= want["nodes"], (rank, sset.strings())
        grew += got["nodes"] > want["nodes"]
        assert {**got, "nodes": 0} == {**want, "nodes": 0}, (rank, sset.strings())
    assert len(kinds) == 106
    assert grew >= len(NODES_GROW)
    assert {"feasible", "missing_support"} <= set(kinds) and kinds.count("C4") >= 8


def test_first_violation_raises_when_the_first_candidates_meet_c4():
    result = uniform_completion(random_sign_set(np.random.default_rng(3), 6, 2), 3)
    assert result.feasible
    candidates = {v.support_mask: keys([v]) for v in witness_reps(result.witness)}
    with pytest.raises(MonorankError, match="first candidates meet C4") as info:
        _first_violation(6, candidates)
    assert type(info.value) is MonorankError


EXAMPLE_SETS = {
    "rad_strict_thresh": threshold_topes(RAD_STRICT),
    "rad_strict_diff": difference_topes(RAD_STRICT),
    "rank2_cycle": RANK2_CYCLE,
    "rank3_reject": RANK3_REJECT,
    "cube3": full_cube(3),
    "constant_pair": SignVectorSet.from_strings(["+++++", "-----"]),
}


@pytest.mark.parametrize("vectors", EXAMPLE_SETS.values(), ids=EXAMPLE_SETS.keys())
def test_completion_matches_reference_scan_on_examples(vectors):
    for rank in range(1, vectors.ground_size):
        got = uniform_completion(vectors, rank)
        assert summary(got) == summary(reference_uniform_completion(vectors, rank))


def matrix_tope_sets():
    from .fixtures import DISTORTION_A, DISTORTION_B

    mats = [DISTORTION_A, DISTORTION_B]
    mats += [random_representation(6, 6, d, seed=s).matrix for d in (2, 3) for s in (1, 2)]
    for a in mats:
        yield threshold_topes(a)
        yield difference_topes(a)


def test_completion_matches_reference_scan_on_matrix_topes():
    for topes in matrix_tope_sets():
        for rank in range(1, min(4, topes.ground_size - 1) + 1):
            got = uniform_completion(topes, rank)
            assert summary(got) == summary(reference_uniform_completion(topes, rank))


def random_uniform_selection(rng, n, rank):
    """One random ± pair on every (rank+1)-support."""
    vecs = []
    for support in itertools.combinations(range(n), rank + 1):
        reps = list(support_pair_reps(n, support))
        v = reps[rng.integers(len(reps))]
        vecs += [v, -v]
    return SignVectorSet(n, vecs, negation_closed=True)


def random_antichain_circuits(rng, n):
    """Random ± pairs on an antichain of supports of mixed sizes."""
    supports = []
    for mask in rng.permutation(np.arange(1, 1 << n)).tolist():
        if all(mask & ~t and t & ~mask for t in supports):
            supports.append(mask)
        if len(supports) >= 2 * n:
            break
    vecs = []
    for mask in supports:
        neg = mask & int(rng.integers(0, 1 << n))
        v = SignVector(n, mask & ~neg, neg)
        vecs += [v, -v]
    return SignVectorSet(n, vecs, negation_closed=True)


def test_axiom_check_matches_reference_scan():
    rng = np.random.default_rng(5)
    sets = []
    for n in range(3, 8):
        for rank in range(1, min(4, n - 1) + 1):
            sets += [random_uniform_selection(rng, n, rank) for _ in range(4)]
            sets.append(potential_circuits(random_sign_set(rng, n, 2), rank))
        sets += [random_antichain_circuits(rng, n) for _ in range(6)]
    for sset in list(sets[::7]):
        members = list(sset)
        if members:
            sets.append(SignVectorSet(sset.ground_size, members[1:]))
            sets.append(sset.with_members([SignVector(sset.ground_size, 0, 0)]))
    for n, rank, pairs in ((6, 2, 2), (7, 3, 3), (7, 4, 4), (5, 2, 1)):
        result = uniform_completion(random_sign_set(rng, n, pairs), rank)
        assert result.feasible
        sets.append(result.witness.circuits)
    axioms = []
    for sset in sets:
        got = check_circuit_axioms(sset)
        want = reference_check_circuit_axioms(sset)
        assert got.ok == want.ok
        assert (got.violation and got.violation.as_dict()) == (
            want.violation and want.violation.as_dict()
        ), sset.strings()
        axioms.append(got.violation.axiom if got.violation else "ok")
    assert {"ok", "C1", "C2", "C3", "C4"} <= set(axioms)


def modular_scan_ok(circuits):
    """Whether a complete uniform circuit set meets every check of the
    modular-only scan that the completion search runs."""
    n = circuits.ground_size
    pairs = {v.support_mask: tuple(keys([v, -v])) for v in circuits}
    placed = [pairs[support] for support in sorted(pairs)]
    rows = _modular_checks(n, next(iter(pairs)).bit_count() - 1)
    # row k reads only the pairs placed before support k
    return all(
        _modular_violation(n, row, placed, rep) is None for row, (rep, _) in zip(rows, placed)
    )


def test_modular_checks_list_each_modular_check_once():
    # row k, by the definition: every (j, e) with S_j ∪ S_k of rank + 2
    # elements and e in S_j ∩ S_k whose zone (S_j ∪ S_k) ∖ e comes before S_k
    total = 0
    for n in range(2, 9):
        for rank in range(1, n):
            supports = sorted(map(sum, itertools.combinations([1 << i for i in range(n)], rank + 1)))
            index = {support: k for k, support in enumerate(supports)}
            want = tuple(
                tuple(
                    (j, e, index[(s_j | s_k) ^ e])
                    for j, s_j in enumerate(supports[:k])
                    if (s_j | s_k).bit_count() == rank + 2
                    for e in (1 << i for i in range(n))
                    if s_j & s_k & e and index[(s_j | s_k) ^ e] < k
                )
                for k, s_k in enumerate(supports)
            )
            assert _modular_checks(n, rank) == want, (n, rank)
            total += sum(map(len, want))
    assert total > 5000


def test_modular_scan_verdict_matches_axiom_check_on_complete_sets():
    # modular elimination: on one ± pair per (rank+1)-support, C4 on the
    # modular pairs decides C4
    rng = np.random.default_rng(31)
    verdicts = []
    for n in range(3, 9):
        for rank in range(1, n):
            sets = [random_uniform_selection(rng, n, rank) for _ in range(3)]
            # a witness, then the same witness with one sign of one circuit flipped
            reps = chirotope_reps(n, rank, realizable_chi(rng, n, rank))
            for flips in (0, 1, 1):
                changed = list(reps)
                for k in rng.choice(len(reps), size=flips, replace=False):
                    v = reps[k]
                    support = [1 << i for i in range(n) if v.support_mask >> i & 1]
                    bit = support[rng.integers(len(support))]
                    changed[k] = SignVector(n, v.pos ^ bit, v.neg ^ bit)
                sets.append(SignVectorSet(n, changed + [-v for v in changed]))
            for circuits in sets:
                ok = check_circuit_axioms(circuits).ok
                assert modular_scan_ok(circuits) == ok, (rank, circuits.strings())
                verdicts.append(ok)
    assert len(verdicts) == 162
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 60


def signed_tuples(size, missing):
    """Every sign tuple on range(size) that is 0 exactly at `missing`."""
    for signs in itertools.product((1, -1), repeat=size - 1):
        rest = iter(signs)
        yield tuple(0 if k == missing else next(rest) for k in range(size))


def eliminates(x, y, e, circuits):
    """Weak elimination of e from sign tuples x and y, with y's sign chosen
    so that they oppose at e: some circuit z has z+ within (x+ ∪ y+) minus
    e and z- within (x- ∪ y-) minus e."""
    if x[e] == y[e]:
        y = tuple(-s for s in y)
    return any(
        all(s == 0 or (k != e and s in (x[k], y[k])) for k, s in enumerate(z))
        for z in circuits
    )


def test_modular_checks_on_three_circuits_share_one_verdict():
    # circuits x, y, z on U minus p, q and e, |U| = r + 2: the checks e from
    # (x, y), q from (x, z) and p from (y, z) pass or fail together, with
    # the verdict the module docstring states.  So the modular scan can drop
    # a check that is not yet decisive.
    verdicts = []
    for rank in (1, 2, 3):
        size = rank + 2
        p, q, e = 0, 1, size - 1
        others = range(2, size - 1)
        for x, y, z in itertools.product(
            signed_tuples(size, p), signed_tuples(size, q), signed_tuples(size, e)
        ):
            circuits = [x, y, z] + [tuple(-s for s in v) for v in (x, y, z)]
            three = {
                eliminates(x, y, e, circuits),
                eliminates(x, z, q, circuits),
                eliminates(y, z, p, circuits),
            }
            stated = x[q] * x[e] * y[p] * y[e] * z[p] * z[q] == -1 and not any(
                x[e] * y[e] * x[k] * y[k]
                == x[q] * z[q] * x[k] * z[k]
                == y[p] * z[p] * y[k] * z[k]
                == -1
                for k in others
            )
            assert three == {stated}, (x, y, z)
            verdicts.append(stated)
    assert len(verdicts) == 4**3 + 8**3 + 16**3
    assert verdicts.count(True) > 0 and verdicts.count(False) > 0


# -- witness certificate -------------------------------------------------------


def gp_relations(n, rank):
    """C(n, r-2)·C(n-r+2, 4), the 3-term Grassmann–Plücker relations."""
    return math.comb(n, rank - 2) * math.comb(n - rank + 2, 4) if rank >= 2 else 0


def witness_reps(witness):
    """One circuit per ± pair of a witness: the one with + at its smallest
    element."""
    return [v for v in witness if v.pos & v.support_mask & -v.support_mask]


def chirotope_reps(n, rank, chi):
    """The circuits C(s_i) = (-1)^i chi(S minus s_i) of a sign map chi on
    ascending rank-tuples, one per (rank+1)-subset, + at its smallest
    element."""
    reps = []
    for support in itertools.combinations(range(n), rank + 1):
        signs = [(-1) ** i * chi(support[:i] + support[i + 1 :]) for i in range(rank + 1)]
        pos = sum(1 << e for e, s in zip(support, signs) if s == signs[0])
        reps.append(SignVector(n, pos, sum(1 << e for e in support) ^ pos))
    return reps


def realizable_chi(rng, n, rank):
    """The chirotope of n random vectors in R^rank: sign of the determinant."""
    vectors = rng.standard_normal((n, rank))
    return lambda basis: 1 if np.linalg.det(vectors[list(basis)]) > 0 else -1


def flipped_chi(chi, flips):
    return lambda basis: -chi(basis) if basis in flips else chi(basis)


def certificate_verdict(n, rank, reps):
    """The name of the check the certificate failed on, or "ok"."""
    try:
        _certify_witness(n, rank, keys(reps), [])
    except MonorankError as exc:
        assert type(exc) is MonorankError
        return str(exc).split(":")[0].removeprefix("completion witness fails ")
    return "ok"


def sequential_certify_witness(n, rank, reps, masks):
    """_certify_witness as the walk it describes, one support and one
    relation at a time (the library's form before its index tables): the
    oracle for the table-driven certificate, with the same checks, order
    of failures and messages."""
    full = (1 << n) - 1
    for rep in reps:
        support = (rep >> n | rep) & full
        taken = {y & support for y in masks}
        if rep >> n in taken or rep & full in taken:
            raise MonorankError(
                f"completion witness fails orthogonality: circuit {_vector(n, rep)} "
                "conforms to an input vector"
            )

    # signs are parities (0 for +, 1 for -): χ(S ∖ s) = ε_S ^ t_S(s),
    # t_S(s) = [C_S(s) = -] ^ (number of elements of S below s)
    circuits = {(rep >> n | rep) & full: rep for rep in reps}
    supports = sorted(map(_mask, itertools.combinations(range(n), rank + 1)))
    bits = [1 << i for i in range(n)]
    chi = {(1 << rank) - 1: 0}
    for support in supports:
        rep = circuits.get(support)
        if rep is None:
            raise MonorankError(
                f"completion witness fails chirotope: no circuit on support "
                f"{sorted(_mask_to_set(support))}"
            )
        neg = rep & full
        top = 1 << (support.bit_length() - 1)
        eps = chi[support ^ top] ^ (1 if neg & top else 0) ^ (rank & 1)
        for i, s in enumerate(b for b in bits if support & b):
            sign = eps ^ (1 if neg & s else 0) ^ (i & 1)
            other = support ^ s
            if chi.setdefault(other, sign) != sign:
                raise MonorankError(
                    f"completion witness fails chirotope: circuit {_vector(n, rep)} gives "
                    f"basis {sorted(_mask_to_set(other))} the opposite sign"
                )
    if len(supports) != len(reps):
        raise MonorankError(
            f"completion witness fails chirotope: {len(reps)} circuits for "
            f"{len(supports)} supports"
        )

    relations = 0
    if rank < 2:
        return relations
    for inner in itertools.combinations(range(n), rank - 2):
        a_mask = _mask(inner)
        free = [1 << i for i in range(n) if not a_mask >> i & 1]
        for a, b, c, d in itertools.combinations(free, 4):
            ab_cd = chi[a_mask | a | b] ^ chi[a_mask | c | d]
            ac_bd = 1 ^ chi[a_mask | a | c] ^ chi[a_mask | b | d]
            ad_bc = chi[a_mask | a | d] ^ chi[a_mask | b | c]
            if ab_cd == ac_bd == ad_bc:
                raise MonorankError(
                    "completion witness fails Grassmann–Plücker: three-term "
                    f"relation on {sorted(_mask_to_set(a_mask))} + "
                    f"{sorted(_mask_to_set(a | b | c | d))}"
                )
            relations += 1
    return relations


def certificate_outcome(certify, n, rank, reps, masks):
    """What a certificate returns, or the text of the MonorankError it
    raises."""
    try:
        return certify(n, rank, reps, masks)
    except MonorankError as exc:
        assert type(exc) is MonorankError
        return str(exc)


def corrupted_witness(rng, n, rank, fault):
    """(keys of one circuit per ± pair, input masks) of a realizable
    witness on n elements at this rank with one fault of the given kind."""
    bases = list(itertools.combinations(range(n), rank))
    vectors = rng.standard_normal((n, rank))

    def chi(basis):
        return 1 if np.linalg.det(vectors[list(basis)]) > 0 else -1

    if fault == "bases flipped":
        flips = rng.choice(len(bases), size=min(2, len(bases)), replace=False)
        chi = flipped_chi(chi, {bases[k] for k in flips})
    reps = chirotope_reps(n, rank, chi)
    # topes of the vector configuration, orthogonal to its circuits
    positive = vectors @ rng.standard_normal((rank, rng.integers(0, 4))) > 0
    masks = [sum(1 << i for i in range(n) if row[i]) for row in positive.T.tolist()]
    k = rng.integers(len(reps))
    support = [i for i in range(n) if reps[k].support_mask >> i & 1]
    if fault == "circuits swapped":
        for k in rng.choice(len(reps), size=min(2, len(reps)), replace=False):
            support = [i for i in range(n) if reps[k].support_mask >> i & 1]
            others = [v for v in support_pair_reps(n, support) if v != reps[k]]
            reps[k] = others[rng.integers(len(others))]
    elif fault == "circuit dropped":
        del reps[k]
    elif fault == "circuit moved to a wrong-size support":
        outside = [i for i in range(n) if i not in support]
        grow = outside and rng.integers(2)
        wrong = support + [int(rng.choice(outside))] if grow else support[:-1]
        reps[k] = SignVector.from_signs(
            [0 if i not in wrong else 1 - 2 * int(rng.integers(2)) for i in range(n)]
        )
    elif fault == "circuit doubled on a support":
        others = [v for v in support_pair_reps(n, support) if v != reps[k]]
        reps.insert(int(rng.integers(len(reps) + 1)), others[rng.integers(len(others))])
    elif fault == "input conforms to a circuit":
        v = reps[k]
        side = v.pos if rng.integers(2) else v.neg
        masks.insert(int(rng.integers(len(masks) + 1)), side | int(rng.integers(1 << n)) & ~v.support_mask)
    if rng.integers(2):
        reps = [reps[i] for i in rng.permutation(len(reps))]
    return keys(reps), masks


CERTIFICATE_FAULTS = (
    "none",
    "circuits swapped",
    "bases flipped",
    "circuit dropped",
    "circuit moved to a wrong-size support",
    "circuit doubled on a support",
    "input conforms to a circuit",
)


def test_certificate_matches_the_sequential_walk_on_corrupted_witnesses():
    rng = np.random.default_rng(31)
    outcomes = []
    for n in range(3, 9):
        for rank in range(1, n):
            for trial in range(6):
                for fault in CERTIFICATE_FAULTS:
                    reps, masks = corrupted_witness(rng, n, rank, fault)
                    got = certificate_outcome(_certify_witness, n, rank, reps, masks)
                    want = certificate_outcome(sequential_certify_witness, n, rank, reps, masks)
                    assert got == want, (n, rank, fault, reps, masks)
                    outcomes.append(got)
    assert len(outcomes) == 27 * 6 * 7 >= 1000
    texts = [out for out in outcomes if isinstance(out, str)]
    for failure in (
        "orthogonality",
        "chirotope: no circuit on support",
        "the opposite sign",
        "circuits for",
        "Grassmann–Plücker",
    ):
        assert sum(failure in text for text in texts) >= 20, failure
    assert len(outcomes) - len(texts) >= 200


def brute_force_witness_tables(n, rank):
    """The certificate's tables from their definitions, by walking the
    supports as sets: (elements, bases, first, parent, paths, relations)
    as nested lists."""
    size = rank + 1
    supports = sorted(map(_mask, itertools.combinations(range(n), size)))
    index = {b: j for j, b in enumerate(sorted(map(_mask, itertools.combinations(range(n), rank))))}
    elements = [[i for i in range(n) if support >> i & 1] for support in supports]
    bases = [[index[s ^ 1 << e] for e in row] for s, row in zip(supports, elements)]
    first = {}
    for k, row in enumerate(bases):
        for i, b in enumerate(row):
            first.setdefault(b, k * size + i)
    parent = [first[row[rank]] for row in bases]
    paths = []
    for k in range(len(supports)):
        path = [k]
        while path[-1]:
            path.append(parent[path[-1]] // size)
        paths.append(path)
    width = max(map(len, paths))
    paths = [path + [0] * (width - len(path)) for path in paths]
    relations = []
    for inner in itertools.combinations(range(n), rank - 2) if rank >= 2 else ():
        a_mask = _mask(inner)
        free = [1 << i for i in range(n) if not a_mask >> i & 1]
        for a, b, c, d in itertools.combinations(free, 4):
            pairs = [a | b, c | d, a | c, b | d, a | d, b | c]
            relations.append([index[a_mask | pair] for pair in pairs])
    relations = [list(column) for column in zip(*relations)] or [[] for _ in range(6)]
    return elements, bases, [first[b] for b in range(len(index))], parent, paths, relations


def test_witness_tables_match_their_definitions():
    for n in range(2, 9):
        for rank in range(1, n):
            tables = _witness_tables(n, rank)
            elements, bases, first, parent, paths, relations = brute_force_witness_tables(n, rank)
            assert tables.elements.tolist() == elements
            assert tables.bases.tolist() == bases
            assert tables.first.tolist() == first
            assert tables.parent.tolist() == parent
            assert tables.paths.tolist() == paths
            assert tables.relations.tolist() == relations
            assert tables.relations.shape == (6, gp_relations(n, rank))
            # the index the certificate puts each circuit's support at
            assert _colex_index(tables.binom, tables.elements).tolist() == list(range(len(elements)))
            assert _witness_tables(n, rank) is tables


def test_certificate_takes_ground_sets_past_the_machine_word():
    # rank one on 66 elements: 2,145 circuits whose keys take 132 bits
    n, rng = 66, np.random.default_rng(37)
    x = rng.standard_normal(n)
    reps = chirotope_reps(n, 1, lambda basis: 1 if x[basis[0]] > 0 else -1)
    plus = _mask(i for i in range(n) if x[i] > 0)
    masks = [plus, plus ^ ((1 << n) - 1)]
    assert _certify_witness(n, 1, keys(reps), masks) == 0
    assert sequential_certify_witness(n, 1, keys(reps), masks) == 0
    (other,) = (v for v in support_pair_reps(n, [n - 2, n - 1]) if v != reps[-1])
    flipped = reps[:-1] + [other]
    conforming = [plus ^ (1 << (n - 1))]
    for corrupt, input_masks, failure in [
        (flipped, [], "opposite sign"),
        (reps, conforming, "orthogonality"),
        (reps[:-1], masks, "no circuit on support [65, 66]"),
    ]:
        with pytest.raises(MonorankError) as info:
            _certify_witness(n, 1, keys(corrupt), input_masks)
        assert failure in str(info.value)
        want = certificate_outcome(sequential_certify_witness, n, 1, keys(corrupt), input_masks)
        assert str(info.value) == want


def test_certificate_matches_reference_scan_on_corrupted_witnesses():
    rng = np.random.default_rng(23)
    verdicts = []
    for n in range(4, 8):
        for rank in range(1, n):
            bases = list(itertools.combinations(range(n), rank))
            for trial in range(12):
                # 0: intact; 1, 2: that many circuits swapped for another ± pair
                # on their support; 3: two bases' signs flipped, which keeps
                # the circuits consistent and leaves the verdict to the
                # Grassmann–Plücker relations
                corruption = trial % 4
                chi = realizable_chi(rng, n, rank)
                if corruption == 3:
                    flips = {bases[k] for k in rng.choice(len(bases), size=2, replace=False)}
                    chi = flipped_chi(chi, flips)
                reps = chirotope_reps(n, rank, chi)
                swaps = corruption if corruption < 3 else 0
                for k in rng.choice(len(reps), size=min(swaps, len(reps)), replace=False):
                    support = [i for i in range(n) if reps[k].support_mask >> i & 1]
                    others = [v for v in support_pair_reps(n, support) if v != reps[k]]
                    reps[k] = others[rng.integers(len(others))]
                circuits = SignVectorSet(n, reps + [-v for v in reps])
                verdict = certificate_verdict(n, rank, reps)
                assert (verdict == "ok") == reference_check_circuit_axioms(circuits).ok, (
                    rank, circuits.strings()
                )
                verdicts.append(verdict)
    assert len(verdicts) == 216
    assert verdicts.count("ok") >= 60
    assert verdicts.count("chirotope") >= 40
    assert verdicts.count("Grassmann–Plücker") >= 10


def test_certificate_accepts_search_witnesses():
    cases = list(random_suite())
    examples = [*EXAMPLE_SETS.values(), *matrix_tope_sets()]
    examples += [f for n in (3, 4) for f in all_negation_closed_families(n, 4)]
    cases += [(v, rank) for v in examples for rank in range(1, min(4, v.ground_size - 1) + 1)]
    certified = 0
    for vectors, rank in cases:
        result = uniform_completion(vectors, rank, max_nodes=1000)
        if result.feasible:
            n = vectors.ground_size
            masks = [v.pos for v in vectors]
            reps = keys(witness_reps(result.witness))
            relations = _certify_witness(n, rank, reps, masks)
            assert relations == gp_relations(n, rank)
            assert relations == sequential_certify_witness(n, rank, reps, masks)
            certified += 1
    assert certified >= 300


def test_certificate_counts_every_grassmann_plucker_relation():
    # realizable chirotopes pass, and every 3-term relation is checked once
    rng = np.random.default_rng(29)
    for n in range(2, 11):
        for rank in range(1, n):
            reps = chirotope_reps(n, rank, realizable_chi(rng, n, rank))
            assert _certify_witness(n, rank, keys(reps), []) == gp_relations(n, rank)
    assert gp_relations(8, 3) == 280


def test_certificate_names_each_failure():
    cycle = uniform_completion(RANK2_CYCLE, 2)
    reps = witness_reps(cycle.witness)
    masks = [v.pos for v in RANK2_CYCLE]
    assert _certify_witness(3, 2, keys(reps), masks) == 0
    # an input vector that agrees with the circuit, or its negative, on
    # the whole support
    for conforming in (reps[0].pos, reps[0].neg):
        with pytest.raises(MonorankError, match="orthogonality"):
            _certify_witness(3, 2, keys(reps), [conforming])
    # rank one: {1,2} and {1,3} force the sign of {2,3}'s circuit
    flipped = [SignVector.from_string(s) for s in ("+-0", "+0-", "0++")]
    assert reference_check_circuit_axioms(
        SignVectorSet(3, flipped + [-v for v in flipped])
    ).violation.axiom == "C4"
    with pytest.raises(MonorankError, match=r"chirotope: circuit 0\+\+ "):
        _certify_witness(3, 1, keys(flipped), [])
    with pytest.raises(MonorankError, match=r"chirotope: no circuit on support \[2, 3\]"):
        _certify_witness(3, 1, keys(flipped[:2]), [])
    valid = [SignVector.from_string(s) for s in ("+-0", "+0-", "0+-")]
    assert _certify_witness(3, 1, keys(valid), []) == 0
    with pytest.raises(MonorankError, match="chirotope: 4 circuits for 3 supports"):
        _certify_witness(3, 1, keys(valid + [SignVector.from_string("+-+")]), [])
    # alternating and consistent, but [13][24] breaks [12][34] - [13][24] + [14][23] = 0
    chi = {(0, 2): -1}
    bad = chirotope_reps(4, 2, lambda basis: chi.get(basis, 1))
    with pytest.raises(MonorankError, match="Grassmann–Plücker"):
        _certify_witness(4, 2, keys(bad), [])
    assert not reference_check_circuit_axioms(SignVectorSet(4, bad + [-v for v in bad])).ok


def test_circuit_candidate_set_rejects_malformed_sets():
    pair = [SignVector.from_string(s) for s in ("+-0", "-+0")]
    with pytest.raises(DomainError, match="ground size mismatch"):
        CircuitCandidateSet(4, SignVectorSet(3, pair))
    with pytest.raises(DomainError, match="must be negation-closed"):
        CircuitCandidateSet(3, SignVectorSet(3, pair[:1]))
    wide = SignVectorSet.from_strings(["+-0", "-+0", "+-+", "-+-"])
    with pytest.raises(DomainError, match=r"requires supports of size 2, got [-+]{3}"):
        CircuitCandidateSet(3, wide, uniform_rank=1)
    doubled = SignVectorSet.from_strings(["+-0", "-+0", "++0", "--0"])
    with pytest.raises(DomainError, match="more than one ± pair on a support"):
        CircuitCandidateSet(3, doubled, uniform_rank=1)
    # with no uniform rank, supports are not constrained
    assert len(CircuitCandidateSet(3, wide)) == len(CircuitCandidateSet(3, doubled)) == 4


@pytest.mark.parametrize(
    "rank, message",
    [
        (1.5, "uniform_rank must be an integer, got 1.5"),
        ("1", "uniform_rank must be an integer, got '1'"),
        (-3, "uniform_rank must be an integer >= 0, got -3"),
    ],
)
def test_circuit_candidate_set_reads_uniform_rank_as_an_integer(rank, message):
    # 1.5 asked for supports of size 2.5, "1" leaked a TypeError, and an
    # empty set took any of them
    pair = SignVectorSet.from_strings(["+-0", "-+0"])
    for circuits in (pair, SignVectorSet(3, [])):
        with pytest.raises(DomainError) as info:
            CircuitCandidateSet(3, circuits, uniform_rank=rank)
        assert str(info.value) == message
    for value in (True, np.int64(1)):
        stored = CircuitCandidateSet(3, pair, uniform_rank=value).uniform_rank
        assert type(stored) is int and stored == 1


def test_certificate_rejects_what_the_constructor_rejects():
    # three circuits for the three supports of rank one on three elements,
    # but one on a support of the wrong size, or two pairs on {1, 2}: the
    # support {2, 3} is left bare
    valid = [SignVector.from_string(s) for s in ("+-0", "+0-", "0+-")]
    for odd in ("+-+", "++0"):
        reps = valid[:2] + [SignVector.from_string(odd)]
        with pytest.raises(MonorankError, match=r"chirotope: no circuit on support \[2, 3\]"):
            _certify_witness(3, 1, keys(reps), [])
        with pytest.raises(DomainError):
            CircuitCandidateSet(3, SignVectorSet(3, reps + [-v for v in reps]), uniform_rank=1)


def test_feasible_witness_is_validated_once(monkeypatch):
    cases = [(vectors, rank) for vectors, rank in random_suite() if vectors.ground_size >= 6]
    results = [uniform_completion(vectors, rank, max_nodes=1000) for vectors, rank in cases]
    witnesses = [result.witness for result in results if result.feasible]
    assert len(witnesses) >= 20
    for witness in witnesses:
        public = CircuitCandidateSet(witness.ground_size, witness.circuits, witness.uniform_rank)
        assert witness == public and hash(witness) == hash(public)

    def refuse(self):
        raise RuntimeError("CircuitCandidateSet re-validated")

    monkeypatch.setattr(CircuitCandidateSet, "__post_init__", refuse)
    again = [uniform_completion(vectors, rank, max_nodes=1000) for vectors, rank in cases]
    assert [result.witness for result in again if result.feasible] == witnesses
    with pytest.raises(RuntimeError, match="re-validated"):
        CircuitCandidateSet(witnesses[0].ground_size, witnesses[0].circuits)


def brute_force_completion(vectors, rank):
    """The first choice of one orthogonal pair per support, in sorted
    support order and canonical candidate order, that passes
    check_circuit_axioms; None if none does."""
    n = vectors.ground_size
    by_support = sorted(
        (mask, reps) for mask, _, reps in orthogonal_candidates(vectors, rank)
    )
    for choice in itertools.product(*(reps for _, reps in by_support)):
        circuits = SignVectorSet(n, [u for v in choice for u in (v, -v)])
        if check_circuit_axioms(circuits).ok:
            return circuits
    return None


def test_completion_matches_brute_force_for_small_ground_sets():
    rng = np.random.default_rng(17)
    checked = feasible = 0
    for n in (3, 4, 5):
        for rank in range(1, n):
            for pairs in range(1, min(6, 1 << (n - 1)) + 1):
                sset = random_sign_set(rng, n, pairs)
                sizes = [len(reps) for _, _, reps in orthogonal_candidates(sset, rank)]
                if math.prod(sizes) > 4096:
                    continue
                witness = brute_force_completion(sset, rank)
                result = uniform_completion(sset, rank)
                assert result.feasible == (witness is not None), (rank, sset.strings())
                if witness is not None:
                    # depth-first order finds the first passing choice
                    assert result.witness.circuits == witness
                    feasible += 1
                checked += 1
    assert checked >= 40 and 0 < feasible < checked


def test_completion_search_is_not_bounded_by_recursion_limit():
    # 126 supports of size 4 on 9 elements: a recursive search would need
    # more than 126 frames beyond the current depth
    import inspect
    import sys

    vectors = SignVectorSet.from_strings(["+" * 9, "-" * 9])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        result = uniform_completion(vectors, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert result.feasible
    assert len({c.support_mask for c in result.witness}) == math.comb(9, 4)


def test_completion_counts_nodes():
    # RANK2_CYCLE places one candidate per support with no backtracking
    result = uniform_completion(RANK2_CYCLE, 2)
    assert result.nodes == 1
    assert uniform_completion(full_cube(3), 2).nodes == 0
    # RAD_STRICT at rank 3 tries three candidates before its C4 violation;
    # a budget of exactly three nodes is enough, two is not
    topes = threshold_topes(RAD_STRICT)
    full = uniform_completion(topes, 3)
    assert full.violation is not None and full.nodes == 3
    assert uniform_completion(topes, 3, max_nodes=3) == full
    short = uniform_completion(topes, 3, max_nodes=2)
    assert short.timed_out and short.violation is None and short.nodes == 2


def sign_vectors_reachable(root):
    """(outside, inside): the SignVectors reachable from root by references
    that pass through no AxiomViolation, and those held by the
    AxiomViolations reached that way."""
    import gc

    outside, inside, seen, stack = [], [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, AxiomViolation):
            inside += [v for v in (obj.x, obj.y) if v is not None]
            continue
        if isinstance(obj, SignVector):
            outside.append(obj)
        stack.extend(gc.get_referents(obj))
    return outside, inside


def test_completion_outputs_hold_no_sign_vector_but_in_violations():
    # the search, its witnesses and its matrix bounds hold keys; a
    # SignVector is built only for an AxiomViolation
    outputs = [uniform_completion(sset, rank, max_nodes=100) for sset, rank in random_suite()]
    outputs += [
        om_completion_rank_of_matrix(random_representation(m, n, d, seed=s).matrix, d + 1)
        for m, n, d in ((7, 7, 2), (7, 6, 3), (6, 7, 2))
        for s in (1, 2)
    ]
    outside, inside = sign_vectors_reachable(outputs)
    assert outside == []
    assert len(inside) >= 16
    kinds = {outcome_kind(result) for result in outputs[:-6]}
    assert kinds == {"feasible", "C4", "missing_support", "timed_out"}


def test_report_completion_matches_matrix_completion():
    from monorank import build_report

    for a in (RAD_STRICT, random_representation(6, 5, 2, seed=3).matrix):
        report = build_report(a, complete_d_max=3)
        assert report.om_completion == om_completion_rank_of_matrix(a, 3)


def count_genericity_checks(monkeypatch) -> list:
    """Patch every module's _require_generic to log one entry per call."""
    import monorank.omatroid
    import monorank.report
    import monorank.topes

    calls = []
    for module in (monorank.omatroid, monorank.report, monorank.topes):
        original = module._require_generic

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "_require_generic", counted)
    return calls


def test_report_checks_genericity_once(monkeypatch):
    from monorank import build_report

    calls = count_genericity_checks(monkeypatch)
    build_report(RAD_STRICT, complete_d_max=3)
    assert len(calls) == 1


def test_matrix_completion_checks_genericity_once(monkeypatch):
    calls = count_genericity_checks(monkeypatch)
    om_completion_rank_of_matrix(RAD_STRICT, 3)
    assert len(calls) == 1
