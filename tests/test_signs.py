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
    _content_lines,
    _is_negation_closed,
    _keys_of_signs,
    _masks_from_bits,
    _negation_closure,
    _signed_rows,
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


@pytest.mark.parametrize("element", [1.5, 1.0, "1", None])
def test_sign_refuses_an_element_that_is_not_an_integer(element):
    # these leaked a TypeError from a bit shift or a comparison
    with pytest.raises(DomainError) as info:
        sv("+-0").sign(element)
    assert str(info.value) == f"element must be an integer, got {element!r}"


def test_sign_reads_integer_elements_as_before():
    v = sv("+-0")
    assert [v.sign(i) for i in (1, 2, 3)] == [v.sign(np.int64(i)) for i in (1, 2, 3)] == [1, -1, 0]
    for element in (0, 4, -1):
        with pytest.raises(IndexError) as info:
            v.sign(element)
        assert str(info.value) == f"element {element} outside ground set [1..3]"


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


@pytest.mark.parametrize(
    "size, message",
    [
        (2.5, "ground_size must be an integer, got 2.5"),
        ("3", "ground_size must be an integer, got '3'"),
        (-1, "ground_size must be an integer >= 0, got -1"),
    ],
)
def test_set_reads_its_ground_size_as_an_integer(size, message):
    # 2.5 leaked a TypeError from slicing, and -1 built a set that len(),
    # repr() and iteration then failed on inside numpy
    for build in (lambda: SignVectorSet(size, []), lambda: SignVectorSet.from_strings([], size)):
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message
    sset = SignVectorSet(np.int64(2), [sv("+-")])
    assert type(sset.ground_size) is int and sset == SignVectorSet.from_strings(["+-"])


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


def bytewise_bits_from_masks(masks, width):
    """_bits_from_masks through int.to_bytes at every width, the path it
    took for all widths before masks of up to 8 bytes went through words."""
    nbytes = (width + 7) // 8
    raw = b"".join(p.to_bytes(nbytes, "little") for p in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


@pytest.mark.parametrize("width", WORD_WIDTHS)
def test_bits_from_masks_matches_the_bytewise_path(width):
    full = (1 << width) - 1
    rng = random.Random(width)
    masks = [0, full, 1, 1 << (width - 1), full >> 1] + [rng.getrandbits(width) for _ in range(20)]
    for chosen in (masks, masks[:1], masks[1:2], []):
        got = _bits_from_masks(chosen, width)
        want = bytewise_bits_from_masks(chosen, width)
        assert got.dtype == want.dtype == np.uint8
        assert got.shape == want.shape == (len(chosen), width)
        assert np.array_equal(got, want)
    assert _masks_from_bits(_bits_from_masks(masks, width)) == masks


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
def test_signed_rows_round_trip(n):
    # from n = 32 on a key's 2n bits cross the 8-byte word
    rng = random.Random(n)
    full = (1 << n) - 1
    vectors = [SignVector(n, 0, 0), SignVector(n, full, 0), SignVector(n, 0, full)]
    for _ in range(30):
        support = rng.getrandbits(n) if n else 0
        pos = rng.getrandbits(n) & support if n else 0
        vectors.append(SignVector(n, pos, support ^ pos))
    keys = [v.pos << n | v.neg for v in vectors]
    rows = _signed_rows(keys, n)
    assert rows.dtype == np.int8 and rows.shape == (len(keys), n)
    assert rows.tolist() == [[v.sign(i) for i in range(1, n + 1)] for v in vectors]
    assert _keys_of_signs(rows) == keys
    assert all(type(key) is int for key in _keys_of_signs(rows))
    assert _keys_of_signs(rows.astype(float) * 2.5) == keys
    # the text form against a per-entry loop
    glyph = {1: "+", -1: "-", 0: "0"}
    texts = ["".join(glyph[v.sign(i)] for i in range(1, n + 1)) for v in vectors]
    assert [str(v) for v in vectors] == texts
    stored = SignVectorSet._from_keys(n, sorted(set(keys)))
    assert stored.strings() == [str(v) for v in stored] == sorted(set(texts), key=sv)
    assert _keys_of_signs(np.zeros((0, n))) == []
    assert _signed_rows([], n).shape == (0, n)


def test_keys_of_signs_reads_the_sign_of_any_real():
    assert _keys_of_signs(np.array([[0.5, -2.0, 0.0, -0.0, np.inf, -np.inf]])) == [
        0b010001 << 6 | 0b100010
    ]


@pytest.mark.parametrize("width", WORD_WIDTHS)
def test_negation_closure_at_word_boundaries(width):
    masks = _masks_from_bits(word_boundary_bits(width))
    full = (1 << width) - 1
    closed = _negation_closure(masks, width)
    assert closed == sorted(set(masks) | {full ^ p for p in masks})
    assert all(type(p) is int for p in closed)
    assert _negation_closure([], width) == []


@pytest.mark.parametrize(
    "masks, width, closed",
    [
        ([], 0, True),
        ([], 3, True),
        ([0], 0, True),  # the empty vector is its own negation
        ([0, 1], 1, True),
        ([0], 1, False),
        ([1], 1, False),
        ([0b000, 0b011, 0b100, 0b111], 3, True),
        ([0b000, 0b011, 0b110, 0b111], 3, False),  # 0b100 is missing
        ([0b001, 0b011, 0b100, 0b110], 3, True),
    ],
)
def test_is_negation_closed_small_cases(masks, width, closed):
    assert _is_negation_closed(masks, width) is closed
    assert (_negation_closure(masks, width) == masks) is closed


def test_is_negation_closed_matches_the_closure():
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for width in list(range(9)) + [63, 64, 65]:
        full = (1 << width) - 1
        for _ in range(200):
            masks = {rng.getrandbits(width) for _ in range(rng.randint(0, 8))}
            if rng.random() < 0.5:
                masks |= {full ^ p for p in masks}
                if masks and rng.random() < 0.5:
                    masks.discard(rng.choice(sorted(masks)))  # drop one member
            masks = sorted(masks)
            closed = _negation_closure(masks, width) == masks
            assert _is_negation_closed(masks, width) is closed
            verdicts[closed] += 1
    assert min(verdicts.values()) >= 500


def test_content_lines_skip_blanks_and_comments():
    text = "  # note\n\n +-0 \r\n\t\n#\n-+\n"
    assert list(_content_lines(text)) == [(3, "+-0"), (6, "-+")]
    assert list(_content_lines("")) == []


# -- the packed set against the former tuple-of-vectors set ---------------------
# Key widths step at every multiple of 4 (n // 4 + 1 bytes), the decoder's
# word path ends at 8 bytes (n = 31) and Python's machine words are 32 and
# 64 bits.
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


# -- the stored rows against the former big-endian store ------------------
# A stored row is n // 4 + 1 bytes: it widens between n = 27 and 28, and
# crosses the 8 bytes of a uint64 word between n = 31 and 32.
STORED_SIZES = (0, 1, 2, 27, 28, 31, 32, 33, 63, 64, 65)


class BigEndianStore:
    """The stored form of a SignVectorSet before _encode wrote its rows:
    the ascending keys, each n // 4 + 1 big-endian bytes from one
    int.to_bytes, and membership by a bisect over byte slices.  The test
    oracle for the little-endian rows."""

    def __init__(self, n, members):
        self.n, self.width = n, n // 4 + 1
        keys = sorted({v.pos << n | v.neg for v in members})
        self.data = b"".join(key.to_bytes(self.width, "big") for key in keys)

    def row(self, i):
        return self.data[i * self.width : (i + 1) * self.width]

    def __len__(self):
        return len(self.data) // self.width

    def keys(self):
        return [int.from_bytes(self.row(i), "big") for i in range(len(self))]

    def strings(self):
        n = self.n
        return [
            "".join("+" if key >> n + i & 1 else "-" if key >> i & 1 else "0" for i in range(n))
            for key in self.keys()
        ]

    def __contains__(self, v):
        if not isinstance(v, SignVector) or v.length != self.n:
            return False
        target = (v.pos << v.length | v.neg).to_bytes(self.width, "big")
        i = bisect_left(range(len(self)), target, key=self.row)
        return self.row(i) == target

    def __eq__(self, other):
        return (self.n, self.data) == (other.n, other.data)


def wrong_lengths(v):
    """v cut to one element fewer and padded to one more."""
    shorter = [SignVector(v.length - 1, v.pos >> 1, v.neg >> 1)] if v.length else []
    return shorter + [SignVector(v.length + 1, v.pos, v.neg)]


@pytest.mark.parametrize("n", STORED_SIZES)
def test_stored_rows_match_the_big_endian_store(n):
    lists = member_lists(n)
    sets = [SignVectorSet(n, members) for members in lists]
    stores = [BigEndianStore(n, members) for members in lists]
    rng = random.Random(n + 1000)
    strangers = [random_vector(rng, n, zero_free) for zero_free in (False, True) * 4]
    for got, want, members in zip(sets, stores, lists):
        assert got._keys() == want.keys()
        assert got.strings() == want.strings()
        assert len(got) == len(want)
        old_rows = np.frombuffer(want.data, np.uint8).reshape(-1, n // 4 + 1)
        assert np.array_equal(got._rows(), old_rows[:, ::-1])  # each row reversed
        for v in members + strangers:
            assert (v in got) == (v in want)
            for w in wrong_lengths(v):
                assert w not in got and w not in want
        assert SignVectorSet._from_keys(n, iter(want.keys())) == got
    for i, (a, want_a) in enumerate(zip(sets, stores)):
        for b, want_b in zip(sets[i:], stores[i:]):
            assert (a == b) == (want_a == want_b)
            if a == b:
                assert hash(a) == hash(b)
    # member lists in another order, with their duplicates, store the same
    for got, members in zip(sets, lists):
        again = SignVectorSet(n, members[::-1] + members[:2])
        assert again == got and hash(again) == hash(got)
