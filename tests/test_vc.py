import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorank import (
    DomainError,
    GenericityError,
    SignVector,
    SignVectorSet,
    difference_topes,
    radon_rank,
    random_representation,
    shatters,
    threshold_topes,
    vc_dimension,
    vc_rank,
)

from monorank.signs import _bits_from_masks, _masks_from_bits
from monorank.topes import _difference_masks, _threshold_masks
from monorank.vc import _vc_of_masks

from .fixtures import DISTORTION_A, RAD_STRICT


def brute_force_vc(vectors: SignVectorSet) -> int:
    """Independent oracle: try every subset, no pruning."""
    patterns = [v.pos for v in vectors]
    n = vectors.ground_size
    best = 0
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            mask = sum(1 << i for i in subset)
            if len({p & mask for p in patterns}) == 1 << k:
                best = k
    return best


def levelwise_vc(vectors: SignVectorSet) -> int:
    """Reference oracle, level by level: a k-set is tested, by projecting
    every pattern onto it, only once all its (k-1)-subsets are known
    shattered and the family has at least 2^k members."""
    patterns = [v.pos for v in vectors]
    if not patterns:
        return 0
    n = vectors.ground_size
    shattered = {0}
    level = [0]
    dim = 0
    while len(patterns) >= 1 << (dim + 1):
        candidates = set()
        for t in level:
            for i in range(n):
                t2 = t | 1 << i
                subsets = (t2 & ~(1 << j) for j in range(n) if t2 >> j & 1)
                if t2 != t and all(s in shattered for s in subsets):
                    candidates.add(t2)
        size = 1 << (dim + 1)
        nxt = [t2 for t2 in candidates if len({p & t2 for p in patterns}) == size]
        if not nxt:
            break
        shattered.update(nxt)
        dim += 1
        level = nxt
    return dim


def plain_vc(n: int, masks: list[int]) -> int:
    """Reference oracle at benchmark sizes: the depth-first class split
    with both classes of every pattern kept, classes in split order, and
    only the cardinality and element-count cut-offs."""
    if not masks:
        return 0
    count = len(masks)
    cols = _masks_from_bits(_bits_from_masks(masks, n).T)
    ceiling = min(n, count.bit_length() - 1)
    best = 0
    stack = [(0, 0, [(1 << count) - 1])]
    while stack:
        k, i, classes = stack.pop()
        while k + n - i > best:
            col = cols[i]
            i += 1
            split = []
            for cls in classes:
                plus = cls & col
                if not plus or plus == cls:
                    break
                split.append(plus)
                split.append(cls ^ plus)
            else:
                stack.append((k, i, classes))
                stack.append((k + 1, i, split))
                if k + 1 > best:
                    best = k + 1
                    if best == ceiling:
                        return best
                break
    return best


def brute_force_shatters(vectors: SignVectorSet, subset) -> bool:
    mask = sum(1 << (i - 1) for i in subset)
    return len({v.pos & mask for v in vectors}) == 1 << len(set(subset))


def test_shatters_a1_triple():
    topes = threshold_topes(DISTORTION_A)
    assert brute_force_shatters(topes, {1, 2, 3})
    assert shatters(topes, {1, 2, 3})


def test_shatters_a1_quadruple_fails_by_cardinality():
    topes = threshold_topes(DISTORTION_A)
    assert len(topes) == 12 < 16
    assert not shatters(topes, {1, 2, 3, 4})


def test_shatters_empty_subset():
    assert shatters(SignVectorSet.from_strings(["+-"]), set())


def test_shatters_out_of_range():
    with pytest.raises(IndexError):
        shatters(SignVectorSet.from_strings(["+-"]), {3})


def test_shatters_rejects_zeros():
    with pytest.raises(DomainError):
        shatters(SignVectorSet.from_strings(["+0"]), {1})


def test_vc_full_square():
    assert vc_dimension(SignVectorSet.from_strings(["++", "+-", "-+", "--"])) == 2


def test_vc_a1_threshold():
    topes = threshold_topes(DISTORTION_A)
    assert brute_force_vc(topes) == 3
    assert vc_dimension(topes) == 3


def test_vc_a1_difference():
    topes = difference_topes(DISTORTION_A)
    assert brute_force_vc(topes) == 2
    assert vc_dimension(topes) == 2


def test_vc_empty_set_convention():
    assert vc_dimension(SignVectorSet(3, [])) == 0


def test_vc_matches_brute_force_on_random_families():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        count = int(rng.integers(1, min(2**n, 12) + 1))
        masks = rng.choice(2**n, size=count, replace=False)
        full = (1 << n) - 1
        family = SignVectorSet(
            n,
            [_zero_free(n, int(p), full) for p in masks],
        )
        assert vc_dimension(family) == brute_force_vc(family)


def _zero_free(n, pos, full):
    return SignVector(n, pos, full & ~pos)


zero_free_families = st.integers(1, 10).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=200).map(
        lambda masks: SignVectorSet(n, [_zero_free(n, p, (1 << n) - 1) for p in masks])
    )
)


@settings(max_examples=200, deadline=None)
@given(zero_free_families)
def test_vc_matches_levelwise_on_random_families(family):
    assert vc_dimension(family) == levelwise_vc(family)


negation_closed_families = zero_free_families.map(lambda f: f.with_members(-v for v in f))


@settings(max_examples=200, deadline=None)
@given(negation_closed_families)
def test_vc_matches_levelwise_on_negation_closed_families(family):
    assert family.is_negation_closed()
    assert vc_dimension(family) == levelwise_vc(family)


def test_vc_keeps_both_classes_on_a_family_not_negation_closed():
    # every pair misses --, but +- and ++ occur on each: a search that
    # kept only the + class of its first element would report 2
    family = SignVectorSet.from_strings(["+++", "+-+", "-++", "++-"])
    assert brute_force_vc(family) == 1
    assert vc_dimension(family) == 1


@pytest.mark.parametrize("shape, d", [((18, 24), 3), ((20, 20), 3), ((18, 18), 4), ((22, 22), 3)])
def test_vc_of_masks_matches_plain_search_on_benchmark_sized_topes(shape, d):
    m, n = shape
    for seed in range(3):
        a = random_representation(m, n, d, seed=seed).matrix
        for width, masks in ((m, _threshold_masks(a)), (n, _difference_masks(a))):
            assert _vc_of_masks(width, masks) == plain_vc(width, masks)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("shape", [(5, 7), (9, 9), (12, 10), (16, 16)])
def test_vc_matches_levelwise_on_matrix_topes(shape, d):
    m, n = shape
    for seed in range(3):
        a = random_representation(m, n, d, seed=seed).matrix
        for topes in (threshold_topes(a), difference_topes(a)):
            assert vc_dimension(topes) == levelwise_vc(topes)


def test_vc_of_masks_matches_levelwise_on_wide_and_tall_topes():
    # member bitsets wider than a machine word on both axes: 22x22 tope
    # sets of up to ~700 members, and ground sets of 70 elements.  The
    # threshold side of 70x3 (~400 members on 70 elements) takes the
    # level-wise oracle about a minute, so 24x3 stands in for it.
    cases = []
    for d in (2, 3, 4):
        a = random_representation(22, 22, d, seed=0).matrix
        cases += [(22, _threshold_masks(a)), (22, _difference_masks(a))]
    tall = random_representation(70, 3, 2, seed=7).matrix
    wide = random_representation(3, 70, 2, seed=7).matrix
    shorter = random_representation(24, 3, 2, seed=7).matrix
    cases += [(3, _difference_masks(tall)), (24, _threshold_masks(shorter))]
    cases += [(3, _threshold_masks(wide)), (70, _difference_masks(wide))]
    for n, masks in cases:
        family = SignVectorSet(n, [_zero_free(n, p, (1 << n) - 1) for p in masks])
        assert _vc_of_masks(n, masks) == levelwise_vc(family)


def test_vc_single_vector_is_zero():
    for member in ["+-+-+", "+", "-", "---", "++++"]:
        assert vc_dimension(SignVectorSet.from_strings([member])) == 0


def test_vc_empty_ground_set_is_zero():
    # the one vector on no elements is its own negation
    assert vc_dimension(SignVectorSet(0, [SignVector(0, 0, 0)])) == 0
    assert vc_dimension(SignVectorSet(0, [])) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_vc_full_cube_is_n(n):
    full = (1 << n) - 1
    cube = SignVectorSet(n, [_zero_free(n, p, full) for p in range(1 << n)])
    assert vc_dimension(cube) == n


def test_vc_rejects_zeros():
    with pytest.raises(DomainError):
        vc_dimension(SignVectorSet.from_strings(["++-", "+0-", "--+"]))


def test_vc_monotone_under_subsets():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        full = (1 << n) - 1
        count = int(rng.integers(2, min(2**n, 10) + 1))
        masks = list(rng.choice(2**n, size=count, replace=False))
        big = SignVectorSet(n, [_zero_free(n, int(p), full) for p in masks])
        keep = max(1, count // 2)
        small = SignVectorSet(n, [_zero_free(n, int(p), full) for p in masks[:keep]])
        assert vc_dimension(small) <= vc_dimension(big)


def test_radon_rank_rad_strict():
    assert radon_rank(RAD_STRICT) == 2


def test_radon_rank_a1():
    assert radon_rank(DISTORTION_A) == 2


def test_radon_rank_single_column():
    # the chain plus its negations shatters pairs (top two rows are split
    # both ways by opposite cuts), so the exhaustive oracle gives VC 2 and
    # Radon rank 1, matching monotone rank 1 of any single column
    col = np.array([[3.0], [1.0], [2.0], [5.0]])
    topes = threshold_topes(col)
    assert brute_force_vc(topes) == 2
    assert radon_rank(col) == 1


def test_vc_rank_a1():
    assert vc_rank(DISTORTION_A) == 2


def test_vc_rank_single_row():
    assert vc_rank(np.array([[1.0, 2.0, 3.0]])) == 0


def test_vc_rank_random_rank2_at_most_2():
    for seed in range(12):
        rep = random_representation(5, 4, 2, seed=seed)
        assert vc_rank(rep.matrix) <= 2
        assert radon_rank(rep.matrix) <= 2


def test_propagates_genericity():
    with pytest.raises(GenericityError):
        radon_rank(np.array([[1.0, 2.0], [1.0, 3.0]]))
