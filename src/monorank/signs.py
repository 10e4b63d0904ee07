"""Sign vectors over {+, 0, -} and deduplicated sets of them.

A sign vector of length n is stored as two bitmasks (positive part,
negative part) with bit i standing for ground element i+1, so composition,
separators and orthogonality tests are word-parallel.  Ground elements are
1-based in every index set this module returns, matching the usual
combinatorics convention; only raw entry sequences are 0-indexed.

Text form: one character per entry, '+', '-' or '0', no separators.

The key of a vector of length n is the int pos << n | neg.  Its numeric
order is the canonical (pos, neg) order, and Z+ ⊆ A+ with Z- ⊆ A- reads
z & ~a == 0.  Keys are the one stored form of a set: a SignVectorSet
holds its sorted, distinct keys, each n // 4 + 1 big-endian bytes, in one
bytes string, and builds a SignVector only when one is asked for.  The
completion layer works on keys throughout.  This module owns the format:
SignVectorSet._from_keys builds a set from sorted keys, _keys() reads
them back, and _vector and _negated turn a key into a vector or into the
key of its negation.

A zero-free vector is determined by its positive mask alone, so the bulk
kernels (topes, VC dimension, sign matrices, rank-two recognition,
completion) work on lists of positive masks and convert between those and
0/1 numpy rows with the packing helpers below.  Sorted ascending, such a
list is in the canonical SignVectorSet order.  _zero_free_masks decodes a
zero-free SignVectorSet into its masks, checking it is zero-free, and
_zero_free_set over _negation_closure encodes masks into a set; neither
builds an object per member.

The word-size rule: the packing helpers go through bytes
(np.packbits, int.to_bytes), so they are exact at any width.  The tope
kernels instead sum or dot the weights of _bit_weights, which are int64
when the width fits in 63 bits and Python ints in an object array when it
does not.  Only the threshold kernel takes the object weights: the
difference kernel dots 63-column slices with int64 weights and shifts
them into place.  The masks both return are Python ints either way.
"""

from __future__ import annotations

import operator
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
        for name in ("length", "pos", "neg"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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
        """Build from an iterable of {-1, 0, +1} (any numeric sign works;
        NaN is a DomainError)."""
        pos = neg = 0
        n = 0
        for i, s in enumerate(signs):
            if s > 0:
                pos |= 1 << i
            elif s < 0:
                neg |= 1 << i
            elif s != 0:
                raise DomainError(f"sign {s!r} at position {i + 1} is not a number")
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


def _zero_free_set(width: int, masks: Iterable[int]) -> SignVectorSet:
    """The SignVectorSet of the zero-free vectors with these positive
    masks, which must be ascending and distinct."""
    full = (1 << width) - 1
    return SignVectorSet._from_keys(width, (p << width | full ^ p for p in masks))


def _zero_free_masks(vectors: SignVectorSet, purpose: str) -> list[int]:
    """The positive masks of a zero-free set, ascending (canonical order).

    Raises DomainError naming the first member with a zero entry; `purpose`
    names the operation that needs zero-free input.
    """
    n = vectors.ground_size
    full = (1 << n) - 1
    keys = vectors._keys()
    for key in keys:
        if (key >> n | key) & full != full:
            raise DomainError(f"{purpose} requires zero-free vectors, got {_vector(n, key)}")
    return [key >> n for key in keys]


def _vector(n: int, key: int) -> SignVector:
    """The sign vector of length n with this key."""
    return SignVector(n, key >> n, key & ((1 << n) - 1))


def _negated(n: int, key: int) -> int:
    """The key of the negation of the vector with this key."""
    return (key & ((1 << n) - 1)) << n | key >> n


def _packed(n: int, keys: Iterable[int]) -> bytes:
    return b"".join(key.to_bytes(n // 4 + 1, "big") for key in keys)


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
    serialized output is deterministic.  The members are stored as packed
    keys (see the module docstring).
    """

    ground_size: int
    _data: bytes

    def __init__(
        self,
        ground_size: int,
        members: Iterable[SignVector] = (),
        negation_closed: bool = False,
    ):
        keys = set()
        for v in members:
            if v.length != ground_size:
                raise DimensionMismatchError(
                    f"vector {v} has length {v.length}, ground set has size {ground_size}"
                )
            keys.add(v.pos << ground_size | v.neg)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "_data", _packed(ground_size, sorted(keys)))
        if negation_closed and not self.is_negation_closed():
            raise ValueError("set declared negation-closed but is not")

    @classmethod
    def _from_keys(cls, ground_size: int, keys: Iterable[int]) -> "SignVectorSet":
        """The set with these keys, which must be ascending and distinct;
        unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "ground_size", ground_size)
        object.__setattr__(out, "_data", _packed(ground_size, keys))
        return out

    def _keys(self) -> list[int]:
        """The members' keys, ascending, as Python ints.  Keys of up to 8
        bytes are read as uint64 words in bulk, wider ones one at a time."""
        data, width = self._data, self.ground_size // 4 + 1
        if width > 8:
            return [int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)]
        rows = np.frombuffer(data, np.uint8).reshape(-1, width).astype(np.uint64)
        return (rows @ np.array([1 << 8 * j for j in reversed(range(width))], np.uint64)).tolist()

    @classmethod
    def from_strings(cls, strings: Iterable[str], ground_size: int | None = None):
        vecs = [SignVector.from_string(s) for s in strings]
        if ground_size is None:
            if not vecs:
                raise ValueError("ground_size required for an empty set")
            ground_size = vecs[0].length
        return cls(ground_size, vecs)

    def __iter__(self) -> Iterator[SignVector]:
        return (_vector(self.ground_size, key) for key in self._keys())

    def __len__(self) -> int:
        return len(self._data) // (self.ground_size // 4 + 1)

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, SignVector) or v.length != self.ground_size:
            return False
        w = v.length // 4 + 1
        target = (v.pos << v.length | v.neg).to_bytes(w, "big")
        i = bisect_left(range(len(self)), target, key=lambda i: self._data[i * w : i * w + w])
        return self._data[i * w : i * w + w] == target

    def __repr__(self) -> str:
        return f"SignVectorSet({self.ground_size}, {self.strings()})"

    def with_members(self, extra: Iterable[SignVector]) -> "SignVectorSet":
        return SignVectorSet(self.ground_size, (*self, *extra))

    def is_negation_closed(self) -> bool:
        n, keys = self.ground_size, set(self._keys())
        full = (1 << n) - 1
        return {(key & full) << n | key >> n for key in keys} == keys  # the negations' keys

    def is_zero_free(self) -> bool:
        return all(v.is_zero_free() for v in self)

    def strings(self) -> list[str]:
        n, keys = self.ground_size, self._keys()
        bits = _bits_from_masks(keys, 2 * n)  # the negative part, then the positive
        chars = np.where(bits[:, n:], ord("+"), np.where(bits[:, :n], ord("-"), ord("0")))
        raw = chars.astype(np.uint8).tobytes().decode("ascii")
        return [raw[k * n : (k + 1) * n] for k in range(len(keys))]


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
