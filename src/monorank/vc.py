"""Exact VC dimension of zero-free sign-vector sets, and the two derived
matrix bounds: Radon rank (threshold side, minus one) and VC rank
(difference side).  Both lower-bound the monotone rank.

The VC dimension is found by _vc_of_masks on the positive masks of the
family; vc_dimension is its adapter for a SignVectorSet, and
build_report passes its tope masks directly.  The search runs depth
first over index sets in increasing element order.  Each node carries
the partition of the family by sign pattern on its index set, as member
bitsets; adding an element splits every class in two, and the set stays
shattered while no piece is empty.  The search stops at the largest
size the family's cardinality allows, and skips extensions too short to
beat the best set found.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .signs import SignVectorSet, _bits_from_masks, _masks_from_bits, _zero_free_masks
from .topes import difference_topes, threshold_topes


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
    positive masks, by depth-first class splitting.

    Member j of the family is bit j of every class bitset, and `cols[i]`
    holds the members that are + at element i: the transpose of the
    family's bit array.  A search node is an index set t, grown in
    increasing element order, with its 2^|t| classes: the members showing
    each sign pattern on t.  Adding an element i above max(t) splits every
    class into its + and - part; t + i is shattered iff no part is empty,
    and the split stops at the first empty part.  Shattering is
    hereditary, so every shattered set is reached through its shattered
    prefixes.

    Two cut-offs bound the search.  A shattered k-set needs 2^k members,
    so the search ends once it finds a set of size floor(log2 |F|) (or n).
    A k-set t is not extended by element i (counted from 0) once
    k + (n - i) <= best: even t plus every element from i on would be no
    larger than the largest shattered set found so far.
    """
    if not masks:
        return 0
    count = len(masks)
    cols = _masks_from_bits(_bits_from_masks(masks, n).T)
    ceiling = min(n, count.bit_length() - 1)
    best = 0
    # (|t|, next element to try on t, classes of t); a child goes on top
    # of its parent, which resumes at its next element once the child's
    # subtree is done
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


def radon_rank(matrix: np.ndarray) -> int:
    """VC dimension of the threshold topes, minus one."""
    return vc_dimension(threshold_topes(matrix)) - 1


def vc_rank(matrix: np.ndarray) -> int:
    """VC dimension of the difference topes."""
    return vc_dimension(difference_topes(matrix))
