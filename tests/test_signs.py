import random
import re
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monorank import (
    DimensionMismatchError,
    DomainError,
    FormatError,
    SignVector,
    SignVectorSet,
    compose,
    encode_signs_as_matrix,
    format_sign_file,
    is_rank2_topes,
    negate,
    orthogonal,
    parse_sign_file,
    potential_circuits,
    separator,
    shatters,
    sign_matrix_with_columns,
    sign_matrix_with_rows,
    uniform_completion,
    vc_dimension,
)
from monorank.signs import (
    _bits_from_masks,
    _masks_from_bits,
    _negation_closure,
    _zero_free_masks,
    _zero_free_set,
)

from .test_topes import WORD_WIDTHS

sv = SignVector.from_string


def sign_vectors(length):
    return st.tuples(
        st.integers(0, (1 << length) - 1), st.integers(0, (1 << length) - 1)
    ).map(lambda pn: SignVector(length, pn[0] & ~pn[1], pn[1] & ~pn[0]))


@pytest.mark.parametrize(
    "length, pos, neg, message",
    [
        (-1, 0, 0, "length must be nonnegative"),
        (2, 0b100, 0, "mask exceeds vector length"),
        (2, 0, 0b100, "mask exceeds vector length"),
        (3, 0b011, 0b010, "an entry cannot be both"),
    ],
)
def test_sign_vector_rejects_invalid_masks(length, pos, neg, message):
    with pytest.raises(ValueError, match=message):
        SignVector(length, pos, neg)


@pytest.mark.parametrize("n", [8, 70])
def test_sign_vector_stores_numpy_ints_as_python_ints(n):
    pos, neg = 1 | 1 << (n - 1), 0b110
    plain = SignVector(n, pos, neg)
    # numpy ints where they fit, as rng.integers returns them
    made = SignVector(np.int64(n), np.int64(pos) if pos < 2**63 else pos, np.uint8(neg))
    assert all(type(x) is int for x in (made.length, made.pos, made.neg))
    assert made == plain and hash(made) == hash(plain)
    assert made in SignVectorSet(n, [plain]) and plain in SignVectorSet(n, [made])
    assert str(made) == str(plain)


@pytest.mark.parametrize("fields", [(2.0, 1, 0), (2, 1.0, 0), (2, 0, np.float64(2))])
def test_sign_vector_refuses_float_fields(fields):
    with pytest.raises(TypeError):
        SignVector(*fields)


def test_from_signs_refuses_nan():
    with pytest.raises(DomainError, match="position 1 "):
        SignVector.from_signs([float("nan"), 1])
    with pytest.raises(DomainError, match="position 3 "):
        SignVector.from_signs(np.array([1.0, -2.0, np.nan]))
    assert SignVector.from_signs(np.array([0.0, 2.5, -1e-300])) == sv("0+-")


def test_compose_componentwise():
    assert compose(sv("+0-"), sv("-+-")) == sv("++-")


def test_compose_idempotent():
    x = sv("+0-+")
    assert compose(x, x) == x


def test_compose_zero_identity():
    y = sv("-+0-")
    assert compose(sv("0000"), y) == y


def test_compose_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(sv("+-"), sv("+-0"))


def test_separator_single_opposition():
    assert separator(sv("+0-"), sv("-+-")) == {1}


def test_separator_self_empty():
    assert separator(sv("+-0+"), sv("+-0+")) == frozenset()


def test_separator_negation_is_support():
    x = sv("+-0+")
    assert separator(x, -x) == x.support() == {1, 2, 4}


def test_orthogonal_agree_and_oppose():
    assert orthogonal(sv("+--+0"), sv("+++++"))


def test_orthogonal_equal_on_common_support():
    assert not orthogonal(sv("+0"), sv("+-"))


def test_orthogonal_disjoint_supports():
    assert orthogonal(sv("+00"), sv("0+0"))


def test_negate_examples():
    assert negate(sv("+-0")) == sv("-+0")
    assert negate(sv("000")) == sv("000")
    x = sv("+++")
    assert negate(x) == sv("---")
    assert separator(x, negate(x)) == x.support()


def test_negate_involution():
    x = sv("+0--+")
    assert negate(negate(x)) == x


def test_parts_partition_support():
    x = sv("+-0-+0")
    assert x.positive_part() | x.negative_part() == x.support()
    assert not x.positive_part() & x.negative_part()


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(sign_vectors(n), sign_vectors(n))))
def test_separator_symmetries(pair):
    x, y = pair
    assert x.separator(y) == y.separator(x) == (-x).separator(-y)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(sign_vectors(n), sign_vectors(n))))
def test_orthogonality_symmetries(pair):
    x, y = pair
    assert x.orthogonal(y) == y.orthogonal(x) == (-x).orthogonal(y)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(sign_vectors(n), sign_vectors(n))))
def test_orthogonality_matches_entrywise_definition(pair):
    # orthogonal iff the entrywise products are all 0, or include both +1 and -1
    x, y = pair
    products = {x.sign(i) * y.sign(i) for i in range(1, len(x) + 1)}
    assert x.orthogonal(y) == (products <= {0} or {1, -1} <= products)


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(sign_vectors(n), sign_vectors(n), sign_vectors(n))
    )
)
def test_compose_associative(triple):
    x, y, z = triple
    assert x.compose(y).compose(z) == x.compose(y.compose(z))


def test_set_dedupe():
    x = sv("+-")
    assert len(SignVectorSet(2, [x, x, sv("+-")])) == 1


def test_set_iteration_canonical_and_deterministic():
    sset = SignVectorSet.from_strings(["-+", "+-", "--", "++"])
    assert sset.strings() == [str(v) for v in sorted(sset, key=SignVector.sort_key)]
    again = SignVectorSet.from_strings(["++", "--", "+-", "-+"])
    assert sset.strings() == again.strings()


def test_negation_closed_flag_verified():
    with pytest.raises(ValueError):
        SignVectorSet(2, [sv("+-")], negation_closed=True)
    SignVectorSet(2, [sv("+-"), sv("-+")], negation_closed=True)


def test_set_membership_non_member():
    sset = SignVectorSet.from_strings(["+-0", "-+0", "++-"])
    assert sv("+-0") in sset and sv("++-") in sset
    assert sv("--+") not in sset
    assert sv("+-+") not in sset
    assert "+-0" not in sset


def test_set_membership_other_length():
    # the same (pos, neg) masks on a longer vector are a different vector
    sset = SignVectorSet.from_strings(["+-", "-+"])
    assert SignVector(2, 1, 2) in sset
    assert SignVector(3, 1, 2) not in sset
    assert SignVector(1, 1, 0) not in sset


def test_set_membership_empty():
    empty = SignVectorSet(3, [])
    assert sv("+-0") not in empty
    assert empty.is_negation_closed()
    assert SignVectorSet(3, [], negation_closed=True) == empty


@given(st.integers(1, 6).flatmap(lambda n: st.lists(sign_vectors(n), max_size=12)))
def test_set_membership_matches_list(vectors):
    n = vectors[0].length if vectors else 1
    sset = SignVectorSet(n, vectors)
    full = (1 << n) - 1
    for pos in range(1 << n):
        for neg in (0, full & ~pos):
            v = SignVector(n, pos, neg)
            assert (v in sset) == (v in vectors)
    assert sset.is_negation_closed() == all(-v in vectors for v in vectors)


def test_length_mismatch_in_set():
    with pytest.raises(DimensionMismatchError):
        SignVectorSet(3, [sv("+-")])


def test_sign_file_roundtrip():
    sset = SignVectorSet.from_strings(["+0-", "-0+", "++-"])
    text = format_sign_file(sset)
    assert parse_sign_file(text) == sset


def test_sign_file_comments_and_blanks():
    sset = parse_sign_file("# comment\n\n+-\n-+\n")
    assert sset.strings() == ["+-", "-+"]


def test_sign_file_mixed_lengths():
    with pytest.raises(FormatError):
        parse_sign_file("+-\n+-0\n")


def test_sign_file_bad_character():
    with pytest.raises(FormatError):
        parse_sign_file("+x-\n")


def test_sign_file_empty():
    with pytest.raises(FormatError):
        parse_sign_file("# nothing\n")


# negation-closed, so the tope-set paths fail on the zero and not on closure;
# "+0-" is the first member with a zero in canonical order
WITH_ZERO = SignVectorSet.from_strings(["++-", "--+", "+0-", "-0+"])


@pytest.mark.parametrize(
    "call",
    [
        vc_dimension,
        lambda s: shatters(s, [1]),
        sign_matrix_with_columns,
        sign_matrix_with_rows,
        encode_signs_as_matrix,
        is_rank2_topes,
        lambda s: potential_circuits(s, 1),
        lambda s: uniform_completion(s, 1),
    ],
    ids=[
        "vc_dimension",
        "shatters",
        "sign_matrix_with_columns",
        "sign_matrix_with_rows",
        "encode_signs_as_matrix",
        "is_rank2_topes",
        "potential_circuits",
        "uniform_completion",
    ],
)
def test_zero_free_paths_name_the_vector_with_a_zero(call):
    with pytest.raises(DomainError, match=re.escape("+0-")):
        call(WITH_ZERO)


def word_boundary_bits(width: int) -> np.ndarray:
    """0/1 rows of `width` bits: all ones, all zeros, the top bit alone, and
    random rows, one of them repeated."""
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2, (8, width), dtype=np.uint8)
    bits[0], bits[1], bits[2] = 1, 0, 0
    bits[2, -1] = 1
    bits[-1] = bits[-2]
    return bits


@pytest.mark.parametrize("width", WORD_WIDTHS)
def test_mask_packing_round_trips_at_word_boundaries(width):
    bits = word_boundary_bits(width)
    masks = _masks_from_bits(bits)
    assert masks == [sum(b << i for i, b in enumerate(row)) for row in bits.tolist()]
    assert all(type(p) is int for p in masks)
    back = _bits_from_masks(masks, width)
    assert back.dtype == np.uint8 and np.array_equal(back, bits)
    assert _masks_from_bits(np.zeros((0, width), dtype=np.uint8)) == []
    empty = _bits_from_masks([], width)
    assert empty.dtype == np.uint8 and empty.shape == (0, width)


@pytest.mark.parametrize("width", WORD_WIDTHS)
def test_negation_closure_at_word_boundaries(width):
    masks = _masks_from_bits(word_boundary_bits(width))
    full = (1 << width) - 1
    closed = _negation_closure(masks, width)
    assert closed == sorted(set(masks) | {full ^ p for p in masks})
    assert all(type(p) is int for p in closed)
    assert _negation_closure([], width) == []


# -- the packed set against the former tuple-of-vectors set ---------------------
# Key widths step at every multiple of 4 (n // 4 + 1 bytes) and Python's
# machine words at 32 and 64 bits.
PACKED_SIZES = (0, 1, 3, 4, 5, 31, 32, 33, 63, 64, 70)


class TupleSignVectorSet:
    """SignVectorSet as it was when it held one SignVector per member, in
    a sorted tuple: the test oracle for the packed set."""

    def __init__(self, ground_size, members=()):
        seen = set()
        for v in members:
            if v.length != ground_size:
                raise DimensionMismatchError("length mismatch")
            seen.add(v)
        self.ground_size = ground_size
        self.members = tuple(sorted(seen, key=SignVector.sort_key))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, v):
        if not isinstance(v, SignVector):
            return False
        i = bisect_left(self.members, v.sort_key(), key=SignVector.sort_key)
        return i < len(self.members) and self.members[i] == v

    def __eq__(self, other):
        return (self.ground_size, self.members) == (other.ground_size, other.members)

    def __repr__(self):
        return f"SignVectorSet({self.ground_size}, {[str(v) for v in self.members]})"

    def with_members(self, extra):
        return TupleSignVectorSet(self.ground_size, (*self.members, *extra))

    def is_negation_closed(self):
        keys = {(v.pos, v.neg) for v in self.members}
        return all((neg, pos) in keys for pos, neg in keys)

    def is_zero_free(self):
        return all(v.is_zero_free() for v in self.members)

    def strings(self):
        return [str(v) for v in self.members]


def random_vector(rng, n, zero_free):
    full = (1 << n) - 1
    pos = rng.getrandbits(n) if n else 0
    neg = full ^ pos if zero_free else (rng.getrandbits(n) if n else 0) & ~pos
    return SignVector(n, pos, neg)


def member_lists(n):
    """Member lists on n elements: empty, with zeros, zero-free, their
    negation closures, with duplicates, and the extremes."""
    rng = random.Random(n)
    full = (1 << n) - 1
    lists = [[]]
    for zero_free in (False, True):
        vectors = [random_vector(rng, n, zero_free) for _ in range(9)]
        lists += [vectors, vectors + [-v for v in vectors], vectors + vectors[:3]]
    lists.append([SignVector(n, full, 0), SignVector(n, 0, full), SignVector(n, 0, 0)])
    return lists


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_set_matches_tuple_oracle(n):
    lists = member_lists(n)
    packed = [SignVectorSet(n, members) for members in lists]
    oracle = [TupleSignVectorSet(n, members) for members in lists]
    rng = random.Random(-n)
    strangers = [random_vector(rng, n, zero_free) for zero_free in (False, True) * 4]
    for got, want, members in zip(packed, oracle, lists):
        assert list(got) == list(want)
        assert len(got) == len(want)
        assert repr(got) == repr(want)
        assert got.strings() == want.strings()
        assert got.is_negation_closed() == want.is_negation_closed()
        assert got.is_zero_free() == want.is_zero_free()
        for v in members + strangers:
            assert (v in got) == (v in want)
        for v in members:
            assert SignVector(n + 1, v.pos, v.neg) not in got
        for other in (str(members[0]) if members else "", n, None, (0, 0)):
            assert other not in got
        assert SignVectorSet(n, reversed(members)) == got
        assert hash(SignVectorSet(n, reversed(members))) == hash(got)
        extra = strangers[:3]
        assert list(got.with_members(extra)) == list(want.with_members(extra))
    for i in range(len(lists)):
        for j in range(len(lists)):
            assert (packed[i] == packed[j]) == (oracle[i] == oracle[j])
    assert SignVectorSet(n + 1, []) != SignVectorSet(n, [])


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_zero_free_set_and_masks_round_trip(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    masks = sorted({rng.getrandbits(n) if n else 0 for _ in range(12)} | {0, full})
    vectors = _zero_free_set(n, masks)
    assert vectors == SignVectorSet(n, [SignVector(n, p, full ^ p) for p in masks])
    assert _zero_free_masks(vectors, "test") == masks
    assert _zero_free_set(n, _zero_free_masks(vectors, "test")) == vectors
    assert _zero_free_set(n, []) == SignVectorSet(n, [])
