import itertools

import numpy as np
import pytest

from monorank import (
    DomainError,
    PointArrangement,
    ResourceLimitError,
    SignVector,
    SignVectorSet,
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

from .fixtures import (
    POTENTIAL_CIRCUITS_RAD_STRICT,
    RAD_STRICT,
    RANK2_CYCLE,
    RANK3_REJECT,
)


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


def test_potential_circuits_orthogonal_and_closed():
    topes = threshold_topes(RAD_STRICT)
    circuits = potential_circuits(topes, 3)
    assert circuits.is_negation_closed()
    assert all(c.orthogonal(t) for c in circuits for t in topes)


def test_potential_circuits_support_too_large():
    with pytest.raises(DomainError):
        potential_circuits(RANK2_CYCLE, 3)


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


def test_completion_guard():
    vectors = full_cube(11)
    with pytest.raises(ResourceLimitError):
        uniform_completion(vectors, 2)
    with pytest.raises(DomainError):
        uniform_completion(full_cube(3), 3)


def test_completion_node_budget_sets_timeout():
    result = uniform_completion(RANK2_CYCLE, 2, max_nodes=0)
    assert result.timed_out and not result.feasible


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


def test_om_rank_full_cube_trivial_rank_n():
    bound = om_rank_lower_bound(full_cube(3), 5)
    assert bound.value == 3 and not bound.exceeds


def test_om_matrix_rad_strict():
    result = om_completion_rank_of_matrix(RAD_STRICT, 3)
    assert result.value >= 3
    rank3 = dict(result.threshold.attempts)[3]
    assert not rank3.feasible
    assert str(rank3.violation.x) == "+--0-"


def test_om_matrix_a1():
    from .fixtures import DISTORTION_A

    assert om_completion_rank_of_matrix(DISTORTION_A, 3).value == 2


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


def test_is_rank2_linear_scaling(monkeypatch):
    # the recognizer does O(m) word-parallel separator operations, each on
    # whole n-bit masks: doubling m should roughly double the operation
    # count and doubling n should not change it.  Counting the calls keeps
    # the check independent of host speed.
    rng = np.random.default_rng(99)

    def family(m, n):
        rows = rng.integers(0, 2, size=(m, n))
        members = []
        for row in rows:
            v = SignVector.from_signs(2 * row - 1)
            members.extend((v, -v))
        return SignVectorSet(n, members)

    calls = 0
    separator_mask = SignVector.separator_mask

    def counted(self, other):
        nonlocal calls
        calls += 1
        return separator_mask(self, other)

    monkeypatch.setattr(SignVector, "separator_mask", counted)

    def measure(m, n):
        nonlocal calls
        fam = family(m, n)
        calls = 0
        is_rank2_topes(fam)
        return calls

    base = measure(1000, 200)
    double_m = measure(2000, 200)
    double_n = measure(1000, 400)
    assert 1.0 <= double_m / base <= 3.0
    assert double_n == base
