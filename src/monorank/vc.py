"""Exact VC dimension of zero-free sign-vector sets, and the two derived
matrix bounds: Radon rank (threshold side, minus one) and VC rank
(difference side).  Both lower-bound the monotone rank.

The VC dimension is found by _vc_of_masks on the positive masks of the
family; vc_dimension is its adapter for a SignVectorSet, and
build_report, radon_rank and vc_rank pass tope masks directly.  The
search runs depth first over index sets in increasing element order.
Each node carries the partition of the family by sign pattern on its
index set, as member bitsets; adding an element splits every class in
two, and the set stays shattered while no piece is empty.  The search
stops at the largest size the family's cardinality allows, and skips
extensions too short to beat the best set found.

Three rules cut the work per node, and none changes the maximum:
- Halving.  On a negation-closed family (every tope set is one) a set t
  is shattered iff every pattern with + at min(t) occurs: a pattern with
  - there is the negation of one with +, and the complement of a member
  showing that one shows it.  So a node keeps only the classes with + at
  its first element, 2^(k-1) of them on a k-set.  A family that is not
  closed keeps all 2^k.
- Smallest class first.  Whether an element splits every class does not
  depend on the order they are tried in, and a small class is the
  likeliest to lie on one side, so a failing extension tends to stop at
  its first check.
- Class-size cut.  A superset s grown from t is shattered only if every
  class of t splits into 2^(|s|-|t|) nonempty parts, so t grows by at
  most log2 of its smallest class.  A node whose smallest class is too
  small to reach a set larger than the best one found is dropped.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .matrices import _require_generic
from .signs import SignVectorSet, _bits_from_masks, _masks_from_bits, _zero_free_masks
from .topes import _difference_masks, _threshold_masks


def shatters(vectors: SignVectorSet, subset: Iterable[int]) -> bool:
    """True iff restricting to the given 1-based index set realizes all
    2^|subset| sign patterns.  The empty set is shattered by any nonempty
    family."""
    idx = sorted(set(subset))
    if idx and (idx[0] < 1 or idx[-1] > vectors.ground_size):
        raise IndexError(
            f"subset {idx} outside ground set [1..{vectors.ground_size}]"
        )
    patterns = _zero_free_masks(vectors, "VC dimension")
    if not patterns:
        return False
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return len({p & mask for p in patterns}) == 1 << len(idx)


def vc_dimension(vectors: SignVectorSet) -> int:
    """Largest size of a shattered index set.  Adapter onto _vc_of_masks;
    an empty family has VC dimension 0 by convention."""
    return _vc_of_masks(vectors.ground_size, _zero_free_masks(vectors, "VC dimension"))


def _vc_of_masks(n: int, masks: list[int]) -> int:
    """VC dimension of the zero-free vectors on n elements with these
    distinct positive masks, ascending, by depth-first class splitting.

    Member j of the family is bit j of every class bitset, and `cols[i]`
    holds the members that are + at element i: the transpose of the
    family's bit array.  A search node is an index set t, grown in
    increasing element order, with its classes: the members showing each
    sign pattern on t.  Adding an element i above max(t) splits every
    class into its + and - part; t + i is shattered iff no part is empty,
    and the split stops at the first empty part.  Shattering is
    hereditary, so every shattered set is reached through its shattered
    prefixes.

    The family is negation-closed iff the complement of the j-th smallest
    mask is the j-th largest (masks out of order at worst miss the
    closure and keep both classes).  Then the root's children start from
    their + class alone, and every descendant, which has the same first
    element, keeps only classes with + there (halving, module docstring).
    A node's classes are kept sorted by member count, and a split tries
    them smallest first.

    Three cut-offs bound the search.  A shattered k-set needs 2^k members,
    so the search ends once it finds a set of size floor(log2 |F|) (or n).
    A k-set t is not extended by element i (counted from 0) once
    k + (n - i) <= best: even t plus every element from i on would be no
    larger than the largest shattered set found so far.  And t is dropped
    once its smallest class has fewer than 2^(best+1-k) members, too few
    to show every pattern on the best+1-k elements a larger set needs.
    """
    if not masks:
        return 0
    count = len(masks)
    full = (1 << n) - 1
    closed = all(p ^ q == full for p, q in zip(masks, reversed(masks)))
    cols = _masks_from_bits(_bits_from_masks(masks, n).T)
    ceiling = min(n, count.bit_length() - 1)
    best = 0
    # (|t|, next element to try on t, classes of t, smallest first); a
    # child goes on top of its parent, which resumes at its next element
    # once the child's subtree is done.  best >= k for every node on the
    # stack, so the shift below is positive.
    stack = [(0, 0, [(1 << count) - 1])]
    while stack:
        k, i, classes = stack.pop()
        if not classes[0].bit_count() >> (best + 1 - k):
            continue
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
                if closed and not k:
                    del split[1]
                split.sort(key=int.bit_count)
                stack.append((k, i, classes))
                stack.append((k + 1, i, split))
                if k + 1 > best:
                    best = k + 1
                    if best == ceiling:
                        return best
                break
    return best


def radon_rank(matrix: np.ndarray) -> int:
    """VC dimension of the threshold topes, minus one."""
    a = _require_generic(matrix)
    return _vc_of_masks(a.shape[0], _threshold_masks(a)) - 1


def vc_rank(matrix: np.ndarray) -> int:
    """VC dimension of the difference topes."""
    a = _require_generic(matrix)
    return _vc_of_masks(a.shape[1], _difference_masks(a))
