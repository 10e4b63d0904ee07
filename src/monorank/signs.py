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
holds its sorted, distinct keys in one bytes string, one little-endian
row of n // 4 + 1 bytes per key, and builds a SignVector only when one is
asked for.  The completion layer works on keys throughout.  This module
owns the format: _packed writes the rows with _encode, and _rows() is the
one reader of them, for _keys() (through _decode), len() and strings()
(through _signs_of_rows, with no ints in between).
SignVectorSet._from_keys builds a set from sorted keys, and _vector and
_negated turn a key into a vector or into the key of its negation.

Between keys and signed rows there is one codec, and no other module
splits a key into its halves: _signed_rows writes keys as int8 rows of
-1/0/+1, and _keys_of_signs reads the key of each row of a real array
(> 0 as +, < 0 as -); _signs_of_rows writes the same int8 rows straight
from the byte rows of keys.  The text form of str() and strings() is one
lookup of those rows (_strings), the completion certificate reads its
circuits' rows, and point_circuits writes its keys from the signs of its
null vectors.

A zero-free vector is determined by its positive mask alone, so the bulk
kernels (topes, VC dimension, sign matrices, rank-two recognition,
completion) work on lists of positive masks and convert between those and
0/1 numpy rows with the packing helpers below; _sign_matrix is their
±1 matrix, for the Forster bounds and the completion certificate.
Sorted ascending, such a list is in the canonical SignVectorSet order.
_zero_free_masks decodes a zero-free SignVectorSet into its masks,
checking it is zero-free, and _zero_free_set over _negation_closure
encodes masks into a set; neither builds an object per member.  _is_negation_closed is the one closure test
on such a sorted list, for the VC and completion layers.

The word-size rule: ints and bit rows meet only as little-endian byte
rows.  _decode is the one reader of byte rows, for _masks_from_bits, the
tope kernels and _keys(): rows of up to 8 bytes are read as uint64 words
in bulk, wider ones with int.from_bytes.  _encode is its mirror image and
the one writer, for _bits_from_masks and _packed: masks of up to 8 bytes
are written as uint64 words in bulk, wider ones with int.to_bytes.  So
every mask is an exact Python int at any width and no other code knows
the machine word; np.packbits and np.unpackbits turn byte rows into 0/1
rows and back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatchError, DomainError, FormatError, _shown
from .matrices import _integer

_CHARS = {"+", "-", "0"}
_GLYPHS = np.frombuffer(b"-0+", np.uint8)  # indexed by sign + 1


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
        signs = list(signs)
        pos = neg = 0
        for i, s in enumerate(signs):
            if s > 0:
                pos |= 1 << i
            elif s < 0:
                neg |= 1 << i
            elif s != 0:
                raise DomainError(f"sign {s!r} at position {i + 1} is not a number")
        return cls(len(signs), pos, neg)

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
        element = _integer(element, "element")
        if not 1 <= element <= self.length:
            raise IndexError(f"element {_shown(element)} outside ground set [1..{self.length}]")
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
        return _strings(_signed_rows([self.pos << self.length | self.neg], self.length))[0]

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


def _decode(rows: np.ndarray) -> list[int]:
    """One Python int per row of a 2-D uint8 array of little-endian byte
    rows.  Rows of up to 8 bytes are read as uint64 words in bulk, wider
    ones one at a time."""
    count, width = rows.shape
    if width <= 8:
        words = np.zeros((count, 8), np.uint8)
        words[:, :width] = rows
        return words.view("<u8").ravel().tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _masks_from_bits(bits: np.ndarray) -> list[int]:
    """One int per row of a 2-D 0/1 array: entry [k, i] becomes bit i of
    mask k."""
    return _decode(np.packbits(bits, axis=1, bitorder="little"))


def _encode(masks: Iterable[int], nbytes: int) -> np.ndarray:
    """The mirror image of _decode: one little-endian row of nbytes bytes
    per mask, as a 2-D uint8 array.  Masks of up to 8 bytes are written as
    uint64 words in bulk, wider ones one at a time."""
    if nbytes <= 8:
        words = np.fromiter(masks, dtype="<u8")
        return words.view(np.uint8).reshape(-1, 8)[:, :nbytes]
    raw = b"".join(p.to_bytes(nbytes, "little") for p in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)


def _bits_from_masks(masks: Iterable[int], width: int) -> np.ndarray:
    """Inverse of _masks_from_bits: a (len(masks), width) uint8 0/1 array."""
    rows = _encode(masks, (width + 7) // 8)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


def _signed_rows(keys: Iterable[int], n: int) -> np.ndarray:
    """One int8 row of -1/0/+1 per key of a vector of length n: entry i is
    the sign of ground element i+1."""
    return _signs_of_rows(_encode(keys, n // 4 + 1), n)


def _signs_of_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """_signed_rows of the keys in the little-endian byte rows _encode
    writes, such as a SignVectorSet's stored rows, without reading them
    into ints."""
    bits = np.unpackbits(rows, axis=1, count=2 * n, bitorder="little").view(np.int8)
    return bits[:, n:] - bits[:, :n]


def _keys_of_signs(signs: np.ndarray) -> list[int]:
    """The key of each row of a 2-D real array, > 0 read as + and < 0 as -;
    the inverse of _signed_rows."""
    return _masks_from_bits(np.concatenate([signs < 0, signs > 0], axis=1))


def _strings(signed: np.ndarray) -> list[str]:
    """The text form of each int8 row of -1/0/+1."""
    count, n = signed.shape
    raw = _GLYPHS[signed + 1].tobytes().decode("ascii")
    return [raw[k * n : (k + 1) * n] for k in range(count)]


def _sign_matrix(masks: list[int], width: int) -> np.ndarray:
    """±1 matrix with one row per positive mask: +1 at its set bits."""
    return np.where(_bits_from_masks(masks, width), 1.0, -1.0)


def _negation_closure(masks: Iterable[int], width: int) -> list[int]:
    """The distinct masks with their complements, sorted ascending: the
    canonical SignVectorSet order of the zero-free vectors they encode."""
    full = (1 << width) - 1
    closed = set(masks)
    closed |= {full ^ p for p in closed}
    return sorted(closed)


def _is_negation_closed(masks: list[int], width: int) -> bool:
    """Whether ascending, distinct masks hold the complement of each of
    theirs.  Complementing reverses the order, so they do iff the
    complement of the j-th smallest is the j-th largest."""
    full = (1 << width) - 1
    return all(p ^ q == full for p, q in zip(masks, reversed(masks)))


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
    """The stored form of the ascending keys of a set on n elements: the
    rows _encode writes, n // 4 + 1 bytes each (SignVectorSet._rows reads
    them)."""
    return _encode(keys, n // 4 + 1).tobytes()


def _mask(elements: Iterable[int]) -> int:
    """The mask with bit i set for each 0-based element i."""
    mask = 0
    for i in elements:
        mask |= 1 << i
    return mask


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
    keys (see the module docstring).  ground_size must be an integer >= 0.
    """

    ground_size: int
    _data: bytes

    def __init__(
        self,
        ground_size: int,
        members: Iterable[SignVector] = (),
        negation_closed: bool = False,
    ):
        ground_size = _integer(ground_size, "ground_size")
        if ground_size < 0:
            raise DomainError(f"ground_size must be an integer >= 0, got {_shown(ground_size)}")
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

    def _rows(self) -> np.ndarray:
        """The stored form as a read-only 2-D uint8 array: one
        little-endian key row per member, ascending (see _packed)."""
        return np.frombuffer(self._data, np.uint8).reshape(-1, self.ground_size // 4 + 1)

    def _keys(self) -> list[int]:
        """The members' keys, ascending, as Python ints."""
        return _decode(self._rows())

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
        return len(self._rows())

    def __contains__(self, v: object) -> bool:
        # decoding the keys is linear, so a scan of them costs no more than a bisect
        if not isinstance(v, SignVector) or v.length != self.ground_size:
            return False
        return (v.pos << v.length | v.neg) in self._keys()

    def __repr__(self) -> str:
        return f"SignVectorSet({self.ground_size}, {self.strings()})"

    def with_members(self, extra: Iterable[SignVector]) -> "SignVectorSet":
        return SignVectorSet(self.ground_size, (*self, *extra))

    def is_negation_closed(self) -> bool:
        n, keys = self.ground_size, set(self._keys())
        return {_negated(n, key) for key in keys} == keys

    def is_zero_free(self) -> bool:
        return all(v.is_zero_free() for v in self)

    def strings(self) -> list[str]:
        return _strings(_signs_of_rows(self._rows(), self.ground_size))


# -- sign-vector file format ----------------------------------------------
# UTF-8 text, one vector per line in '+ - 0' form; blank lines and lines
# starting with '#' are ignored; all vectors must share one length.


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and stripped text of each line of a line-based
    file that is neither blank nor a '#' comment: the walk shared by the
    sign-vector and the allowable-sequence format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_sign_file(text: str) -> SignVectorSet:
    vecs = []
    for lineno, line in _content_lines(text):
        if not set(line) <= _CHARS:
            bad = next(c for c in line if c not in _CHARS)
            raise FormatError(f"line {lineno}: invalid sign character {bad!r}")
        if vecs and len(line) != vecs[0].length:
            raise FormatError(
                f"line {lineno}: vector length {len(line)} differs from {vecs[0].length}"
            )
        vecs.append(SignVector.from_string(line))
    if not vecs:
        raise FormatError("no sign vectors found")
    return SignVectorSet(vecs[0].length, vecs)


def format_sign_file(vectors: SignVectorSet) -> str:
    return "\n".join(vectors.strings()) + "\n"
