"""Sign vectors over {+, 0, -} and deduplicated sets of them.

A sign vector of length n is stored as two bitmasks (positive part,
negative part) with bit i standing for ground element i+1, so composition,
separators and orthogonality tests are word-parallel.  Ground elements are
1-based in every index set this module returns, matching the usual
combinatorics convention; only raw entry sequences are 0-indexed.

Text form: one character per entry, '+', '-' or '0', no separators.

A zero-free vector is determined by its positive mask alone, so the bulk
kernels (topes, VC dimension, sign matrices, rank-two recognition,
completion) work on lists of positive masks and convert between those and
0/1 numpy rows with the packing helpers below.  Sorted ascending, such a
list is in the canonical SignVectorSet order.  This module owns that
format: _zero_free_masks is the one reader, which checks a SignVectorSet
is zero-free and returns its masks, and _zero_free_set over
_negation_closure is the one writer.

The word-size rule: the packing helpers go through bytes
(np.packbits, int.to_bytes), so they are exact at any width.  The tope
kernels instead sum or dot the weights of _bit_weights, which are int64
when the width fits in 63 bits and Python ints in an object array when it
does not.  Only the threshold kernel takes the object weights: the
difference kernel dots 63-column slices with int64 weights and shifts
them into place.  The masks both return are Python ints either way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatchError, DomainError, FormatError

_CHARS = {"+", "-", "0"}


@dataclass(frozen=True, slots=True)
class SignVector:
    """Immutable element of {+, 0, -}^n."""

    length: int
    pos: int
    neg: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        full = (1 << self.length) - 1
        if self.pos & ~full or self.neg & ~full:
            raise ValueError("mask exceeds vector length")
        if self.pos & self.neg:
            raise ValueError("an entry cannot be both + and -")

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        pos = neg = 0
        for i, c in enumerate(text):
            if c == "+":
                pos |= 1 << i
            elif c == "-":
                neg |= 1 << i
            elif c != "0":
                raise FormatError(f"invalid sign character {c!r} at position {i + 1}")
        return cls(len(text), pos, neg)

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "SignVector":
        """Build from an iterable of {-1, 0, +1} (any numeric sign works)."""
        pos = neg = 0
        n = 0
        for i, s in enumerate(signs):
            if s > 0:
                pos |= 1 << i
            elif s < 0:
                neg |= 1 << i
            n = i + 1
        return cls(n, pos, neg)

    # -- basic structure ---------------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.pos | self.neg

    def support(self) -> frozenset[int]:
        """1-based indices of nonzero entries."""
        return _mask_to_set(self.support_mask)

    def positive_part(self) -> frozenset[int]:
        return _mask_to_set(self.pos)

    def negative_part(self) -> frozenset[int]:
        return _mask_to_set(self.neg)

    def is_zero_free(self) -> bool:
        return self.support_mask == (1 << self.length) - 1

    def sign(self, element: int) -> int:
        """Sign at 1-based ground element ∈ {-1, 0, +1}."""
        if not 1 <= element <= self.length:
            raise IndexError(f"element {element} outside ground set [1..{self.length}]")
        bit = 1 << (element - 1)
        return 1 if self.pos & bit else -1 if self.neg & bit else 0

    # -- algebra -----------------------------------------------------------

    def __neg__(self) -> "SignVector":
        return SignVector(self.length, self.neg, self.pos)

    def compose(self, other: "SignVector") -> "SignVector":
        """Componentwise composition: self wins wherever it is nonzero."""
        _check_lengths(self, other)
        free = ~self.support_mask
        return SignVector(
            self.length, self.pos | (other.pos & free), self.neg | (other.neg & free)
        )

    def separator_mask(self, other: "SignVector") -> int:
        _check_lengths(self, other)
        return (self.pos & other.neg) | (self.neg & other.pos)

    def separator(self, other: "SignVector") -> frozenset[int]:
        """1-based indices where the two vectors strictly oppose."""
        return _mask_to_set(self.separator_mask(other))

    def orthogonal(self, other: "SignVector") -> bool:
        """True iff supports are disjoint, or the vectors both agree and
        oppose somewhere on the common support."""
        _check_lengths(self, other)
        sp, sn, op, on = self.pos, self.neg, other.pos, other.neg
        if not (sp | sn) & (op | on):
            return True
        return bool((sp & op) | (sn & on)) and bool((sp & on) | (sn & op))

    # -- plumbing ----------------------------------------------------------

    def sort_key(self) -> tuple[int, int]:
        """Canonical order used everywhere: lexicographic on (pos, neg)."""
        return (self.pos, self.neg)

    def __lt__(self, other: "SignVector") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return "".join(
            "+" if self.pos >> i & 1 else "-" if self.neg >> i & 1 else "0"
            for i in range(self.length)
        )

    def __repr__(self) -> str:
        return f"SignVector.from_string({str(self)!r})"

    def __len__(self) -> int:
        return self.length


def compose(x: SignVector, y: SignVector) -> SignVector:
    return x.compose(y)


def separator(x: SignVector, y: SignVector) -> frozenset[int]:
    return x.separator(y)


def orthogonal(x: SignVector, y: SignVector) -> bool:
    return x.orthogonal(y)


def negate(x: SignVector) -> SignVector:
    return -x


def _check_lengths(x: SignVector, y: SignVector) -> None:
    if x.length != y.length:
        raise DimensionMismatchError(
            f"sign vectors of length {x.length} and {y.length} do not match"
        )


def _bit_weights(width: int) -> np.ndarray:
    """1 << i for i in range(width): int64 when `width` fits in 63 bits,
    an object array of Python ints when it does not, so sums and dots of
    these weights are exact at any width."""
    dtype = np.int64 if width <= 63 else object
    return np.array([1 << i for i in range(width)], dtype=dtype)


def _masks_from_bits(bits: np.ndarray) -> list[int]:
    """One int per row of a 2-D 0/1 array: entry [k, i] becomes bit i of
    mask k.  Rows of any width pack exactly, with no word-size limit."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    w = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[k * w : (k + 1) * w], "little") for k in range(len(bits))]


def _bits_from_masks(masks: list[int], width: int) -> np.ndarray:
    """Inverse of _masks_from_bits: a (len(masks), width) uint8 0/1 array."""
    nbytes = (width + 7) // 8
    raw = b"".join(p.to_bytes(nbytes, "little") for p in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _negation_closure(masks: Iterable[int], width: int) -> list[int]:
    """The distinct masks with their complements, sorted ascending: the
    canonical SignVectorSet order of the zero-free vectors they encode."""
    full = (1 << width) - 1
    closed = set(masks)
    closed |= {full ^ p for p in closed}
    return sorted(closed)


def _zero_free_strings(masks: list[int], width: int) -> list[str]:
    """Text form of the zero-free vectors with these positive masks."""
    chars = np.where(_bits_from_masks(masks, width), ord("+"), ord("-"))
    raw = chars.astype(np.uint8).tobytes().decode("ascii")
    return [raw[k * width : (k + 1) * width] for k in range(len(masks))]


def _zero_free_set(width: int, masks: Iterable[int]) -> SignVectorSet:
    """The SignVectorSet of the zero-free vectors with these positive masks."""
    full = (1 << width) - 1
    return SignVectorSet(width, (SignVector(width, p, full ^ p) for p in masks))


def _zero_free_masks(vectors: SignVectorSet, purpose: str) -> list[int]:
    """The positive masks of a zero-free set, ascending (canonical order).

    Raises DomainError naming the first member with a zero entry; `purpose`
    names the operation that needs zero-free input.
    """
    full = (1 << vectors.ground_size) - 1
    masks = []
    for v in vectors:
        if v.pos | v.neg != full:
            raise DomainError(f"{purpose} requires zero-free vectors, got {v}")
        masks.append(v.pos)
    return masks


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length())
        mask ^= bit
    return frozenset(out)


@dataclass(frozen=True, slots=True, init=False)
class SignVectorSet:
    """Deduplicated, immutable collection of sign vectors on a fixed ground set.

    Iteration order is canonical (lexicographic on (pos, neg) masks), so
    serialized output is deterministic.
    """

    ground_size: int
    _members: tuple[SignVector, ...]

    def __init__(
        self,
        ground_size: int,
        members: Iterable[SignVector] = (),
        negation_closed: bool = False,
    ):
        seen = set()
        for v in members:
            if v.length != ground_size:
                raise DimensionMismatchError(
                    f"vector {v} has length {v.length}, ground set has size {ground_size}"
                )
            seen.add(v)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "_members", tuple(sorted(seen, key=SignVector.sort_key)))
        if negation_closed and not self.is_negation_closed():
            raise ValueError("set declared negation-closed but is not")

    @classmethod
    def from_strings(cls, strings: Iterable[str], ground_size: int | None = None):
        vecs = [SignVector.from_string(s) for s in strings]
        if ground_size is None:
            if not vecs:
                raise ValueError("ground_size required for an empty set")
            ground_size = vecs[0].length
        return cls(ground_size, vecs)

    def __iter__(self) -> Iterator[SignVector]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, SignVector):
            return False
        members = self._members
        i = bisect_left(members, v.sort_key(), key=SignVector.sort_key)
        return i < len(members) and members[i] == v

    def __repr__(self) -> str:
        return f"SignVectorSet({self.ground_size}, {[str(v) for v in self._members]})"

    def with_members(self, extra: Iterable[SignVector]) -> "SignVectorSet":
        return SignVectorSet(self.ground_size, (*self._members, *extra))

    def is_negation_closed(self) -> bool:
        keys = {(v.pos, v.neg) for v in self._members}
        return all((neg, pos) in keys for pos, neg in keys)

    def is_zero_free(self) -> bool:
        return all(v.is_zero_free() for v in self._members)

    def strings(self) -> list[str]:
        return [str(v) for v in self._members]


# -- sign-vector file format ----------------------------------------------
# UTF-8 text, one vector per line in '+ - 0' form; blank lines and lines
# starting with '#' are ignored; all vectors must share one length.


def parse_sign_file(text: str) -> SignVectorSet:
    vecs = []
    length = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not set(line) <= _CHARS:
            bad = next(c for c in line if c not in _CHARS)
            raise FormatError(f"line {lineno}: invalid sign character {bad!r}")
        if length is None:
            length = len(line)
        elif len(line) != length:
            raise FormatError(
                f"line {lineno}: vector length {len(line)} differs from {length}"
            )
        vecs.append(SignVector.from_string(line))
    if length is None:
        raise FormatError("no sign vectors found")
    return SignVectorSet(length, vecs)


def format_sign_file(vectors: SignVectorSet) -> str:
    return "\n".join(vectors.strings()) + "\n"
