import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from d1ring import exactalg
from d1ring.errors import FormatError, UsageError
from d1ring.exactalg import (
    FieldSpec,
    Matrix,
    Subspace,
    inverse,
    kernel_basis,
    rank,
    solve,
)

from conftest import F2, F5, Q

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestFieldSpec:
    def test_prime_required(self):
        with pytest.raises(UsageError, match="prime"):
            FieldSpec.fp(4)

    @pytest.mark.parametrize("p", [7.0, True, Fraction(7)], ids=repr)
    def test_modulus_must_be_an_int(self, p):
        # Fp:7.0 labels no field that from_label reads, and coerces 10 to 3.0
        with pytest.raises(UsageError, match="p must be an int"):
            FieldSpec.fp(p)

    def test_labels(self):
        assert FieldSpec.fp(5).label() == "Fp:5"
        assert Q.label() == "Q"
        assert FieldSpec.from_label("Fp:7") == FieldSpec.fp(7)

    def test_modulus_at_or_above_2_64_refused(self):
        # 399165290221 * 798330580441, the least composite that Miller-Rabin
        # with the prime bases 2 .. 37 takes for a prime
        pseudoprime = 318665857834031151167461
        assert pseudoprime == 399165290221 * 798330580441
        with pytest.raises(UsageError, match="below 2\\^64"):
            FieldSpec.fp(pseudoprime)
        with pytest.raises(FormatError, match="below 2\\^64"):
            FieldSpec.from_label(f"Fp:{pseudoprime}")
        # 2^64 + 13 is the least prime above 2^64: refused all the same
        with pytest.raises(FormatError, match="below 2\\^64"):
            FieldSpec.from_label(f"Fp:{2**64 + 13}")

    @pytest.mark.parametrize("p", [2**31 - 1, 2**31 + 11, 2**64 - 59])
    def test_large_prime_moduli_accepted(self, p):
        # 2^64 - 59 is the largest prime below 2^64
        field = FieldSpec.from_label(f"Fp:{p}")
        assert field == FieldSpec.fp(p)
        a = 399165290221
        assert field.inv(a) * a % p == 1

    @pytest.mark.parametrize(
        "label",
        ["Fp: 5", "Fp:05", "Fp:+5", "Fp:5 ", "Fp:1_1", "Fp:\u0665", "fp:5", "q", True, None, 5],
    )
    def test_non_canonical_labels_refused(self, label):
        with pytest.raises(FormatError, match="bad field label"):
            FieldSpec.from_label(label)

    def test_a_label_gives_one_field(self, cold_caches):
        for label in ("Q", "Fp:5"):
            assert FieldSpec.from_label(label) is FieldSpec.from_label(label)
        for label, message in [("Fp:4", "p must be prime (got 4)"), ("Fp:05", "bad field label 'Fp:05'"),
                               (5, "bad field label 5")]:
            for _ in range(2):
                with pytest.raises(FormatError) as refusal:
                    FieldSpec.from_label(label)
                assert str(refusal.value) == message

    def test_a_rational_text_read_twice_reads_the_same(self, cold_caches):
        # a short text is read once and its pair shared; a refused text is
        # refused on every read, and a text past the length bound is read
        # every time and not kept
        for text, value, repaired in [("2/4", Fraction(1, 2), True), ("1/02", Fraction(1, 2), True),
                                      ("+1/2", Fraction(1, 2), True), ("-0/1", Fraction(0), True),
                                      ("1/2", Fraction(1, 2), False)]:
            first = Q.parse_scalar(text)
            assert first == (value, repaired) and type(first[0]) is Fraction
            assert Q.parse_scalar(text) is first
        for text in ("1/0", "x"):
            for _ in range(2):
                with pytest.raises(FormatError, match=f"bad rational '{text}'"):
                    Q.parse_scalar(text)
        kept = exactalg._cached_rational.cache_info().currsize
        num = 10**exactalg.MAX_CACHED_RATIONAL_TEXT
        long_text = f"{num}/3"
        assert len(long_text) > exactalg.MAX_CACHED_RATIONAL_TEXT
        for _ in range(2):
            assert Q.parse_scalar(long_text) == (Fraction(num, 3), False)
        assert exactalg._cached_rational.cache_info().currsize == kept

    def test_inverse(self):
        assert F5.inv(3) * 3 % 5 == 1
        assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)

    @pytest.mark.parametrize("a", [0, 5, -10])
    def test_inverse_of_zero_residue(self, a):
        # a nonzero multiple of p is zero in F_p
        with pytest.raises(ZeroDivisionError):
            F5.inv(a)

    def test_scalar_round_trip(self):
        for field, values in [(F5, [0, 1, 4]), (Q, [Fraction(-2, 3), Fraction(7), 0, 5, -3, Fraction(-9, 4)])]:
            for v in values:
                enc = field.encode_scalar(v)
                parsed, repaired = field.parse_scalar(enc)
                assert parsed == v and not repaired
                assert type(parsed) is (Fraction if field == Q else int)
        assert [Q.encode_scalar(v) for v in (0, 5, -3, Fraction(-9, 4), Fraction(6, 4))] == [
            "0/1", "5/1", "-3/1", "-9/4", "3/2"
        ]

    def test_scalar_repairs(self):
        assert F5.parse_scalar(7) == (2, True)
        assert Q.parse_scalar("6/4") == (Fraction(3, 2), True)
        assert Q.parse_scalar(3) == (Fraction(3), True)
        # non-canonical texts parse to their value and are flagged; the
        # canonical texts of the same values are not
        for text, value in [("6/4", Fraction(3, 2)), ("-0/3", Fraction(0)), ("0/3", Fraction(0)),
                            ("4/-6", Fraction(-2, 3)), ("-4/6", Fraction(-2, 3)), ("7", Fraction(7)),
                            ("+1/2", Fraction(1, 2)), ("01/2", Fraction(1, 2))]:
            assert Q.parse_scalar(text) == (value, True), text
            canonical = Q.encode_scalar(value)
            assert Q.parse_scalar(canonical) == (value, False), canonical

    @staticmethod
    def reference_parse_q(value):
        """parse_scalar over Q by re-encoding: repaired iff the text is not
        the encoding of the normalized Fraction it parses to."""
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value), True
        if not isinstance(value, str):
            raise FormatError(value)
        try:
            num, _, den = value.partition("/")
            f = Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise FormatError(value) from None
        return f, f"{f.numerator}/{f.denominator}" != value

    @settings(max_examples=500, deadline=None)
    @given(
        value=st.one_of(
            st.integers(-10**6, 10**6),
            st.builds(
                "{}{}{}{}".format,
                st.sampled_from(["", "-", "+", " ", "0", "-0", "00"]),
                st.integers(0, 60),
                st.sampled_from(["/", "", "/-", "/+", "/0", "/ ", "/_"]),
                st.one_of(st.just(""), st.integers(0, 60).map(str)),
            ),
            st.text("0123456789-+/ _x", max_size=8),
            st.sampled_from([None, 1.5, True, [1], "1/2/3", "٣/4", "1_0/3"]),
        )
    )
    @example(value="+3/4")
    @example(value="3/-4")
    @example(value="06/8")
    @example(value="-0/1")
    @example(value="3/")
    @example(value=" 3/4")
    @example(value="3/4")
    @example(value="0/1")
    @example(value=-7)
    @example(value="3/0")
    @example(value="")
    @example(value="/4")
    @example(value=False)
    def test_q_parse_matches_re_encoding(self, value):
        # the check on the text and the parsed ints flags exactly the texts
        # whose normalized Fraction encodes differently, and rejects the same
        try:
            expected = self.reference_parse_q(value)
        except FormatError:
            with pytest.raises(FormatError):
                Q.parse_scalar(value)
            return
        got = Q.parse_scalar(value)
        assert got == expected and type(got[0]) is Fraction

    def test_coerce_reduces_fractions_over_fp(self):
        f3 = FieldSpec.fp(3)
        assert f3.coerce(7) == 1 and f3.coerce(-1) == 2
        # 1/2 is 2 in F_3, since 2 * 2 = 1; -5/4 is -5 * 1 = 1
        assert f3.coerce(Fraction(1, 2)) == 2
        assert f3.coerce(Fraction(-5, 4)) == 1
        assert f3.coerce(Fraction(6, 1)) == 0
        for x in (Fraction(1, 3), Fraction(2, 9), 2.7, 2.0, "1"):
            with pytest.raises(UsageError, match="F_3"):
                f3.coerce(x)
        assert Q.coerce(Fraction(1, 3)) == Fraction(1, 3) and Q.coerce(2) == Fraction(2)

    @pytest.mark.parametrize("field", [FieldSpec.fp(3), Q], ids=["F_3", "Q"])
    @pytest.mark.parametrize("value", [True, 0.5, 2.0, "1/3", None])
    def test_coerce_takes_only_ints_and_fractions(self, field, value):
        # a bool is not 1, and floats and strings are neither read nor parsed
        with pytest.raises(UsageError, match="no value in"):
            field.coerce(value)


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(F2, 2)).dim == 0

    def test_parity_check_line(self):
        # all 4 vectors of F2^2: only (0,0) and (1,1) satisfy x+y=0
        k = kernel_basis(Matrix.from_rows(F2, [[1, 1]]))
        assert k.vectors() == [(1, 1)]

    def test_zero_map_full_kernel(self):
        k = kernel_basis(Matrix.zeros(Q, 1, 3))
        assert k.dim == 3
        assert k.basis == Matrix.identity(Q, 3)


class TestSolve:
    def test_identity(self):
        m = Matrix.identity(F5, 3)
        assert solve(m, [1, 2, 3]) == (1, 2, 3)

    def test_underdetermined_free_vars_zero(self):
        m = Matrix.from_rows(F2, [[1, 1]])
        x = solve(m, [1])
        assert x == (1, 0)
        assert m.mul_vector(x) == (1,)

    def test_infeasible(self):
        assert solve(Matrix.from_rows(F2, [[0]]), [1]) is None


class TestImageRank:
    def test_rank_examples(self):
        assert rank(Matrix.identity(Q, 4)) == 4
        assert rank(Matrix.from_rows(Q, [[1, 1], [1, 1]])) == 1
        assert rank(Matrix.zeros(F2, 3, 2)) == 0


class TestLargePrimeProducts:
    # (p-1)^2 is close to 2^62, so an int64 sum of three such products wraps
    P = FieldSpec.fp(2**31 - 1)

    def test_matmul_does_not_overflow(self):
        p = self.P.p
        a = Matrix.from_rows(self.P, [[p - 1] * 3])
        b = Matrix.from_rows(self.P, [[p - 1]] * 3)
        assert (a @ b).to_lists() == [[3]]

    def test_mul_vector_does_not_overflow(self):
        p = self.P.p
        a = Matrix.from_rows(self.P, [[p - 1] * 3])
        assert a.mul_vector([p - 1] * 3) == (3,)


def _random_matrix(rng, field, rows, cols):
    if rows == 0:
        return Matrix.zeros(field, 0, cols)
    if field.kind == "Fp":
        entries = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    else:
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    return Matrix.from_rows(field, entries)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, rows, cols)
        assert rank(m) + kernel_basis(m).dim == cols


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_solve_soundness(field):
    rng = random.Random(13)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, rows, cols)
        b = [field.coerce(rng.randint(-3, 3)) for _ in range(rows)]
        x = solve(m, b)
        if x is not None:
            assert m.mul_vector(x) == tuple(b)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_inverse_agrees_with_rank(field):
    rng = random.Random(17)
    for _ in range(40):
        size = rng.randint(0, 5)
        m = _random_matrix(rng, field, size, size)
        inv = inverse(m)
        if rank(m) < size:
            assert inv is None
        else:
            assert inv @ m == m @ inv == Matrix.identity(field, size)
    with pytest.raises(UsageError, match="square"):
        inverse(Matrix.zeros(field, 2, 3))


def test_kernel_vectors_really_in_kernel():
    rng = random.Random(19)
    for _ in range(30):
        m = _random_matrix(rng, F5, rng.randint(1, 5), rng.randint(1, 5))
        for v in kernel_basis(m).vectors():
            assert all(x == 0 for x in m.mul_vector(v))


def test_subspace_coerces_entries():
    assert Subspace.from_vectors(F5, 2, [[6, -3]]) == Subspace.from_vectors(F5, 2, [[1, 2]])
    assert Subspace.from_vectors(Q, 2, [[2, 1]]).vectors() == [(1, Fraction(1, 2))]


def test_subspace_membership():
    # w lies in the span of vectors iff adding it leaves the span as it is
    vectors = [[1, 2, 0], [0, 0, 1]]
    s = Subspace.from_vectors(F5, 3, vectors)
    assert Subspace.from_vectors(F5, 3, vectors + [[1, 2, 3]]) == s
    assert Subspace.from_vectors(F5, 3, vectors + [[0, 1, 0]]) != s


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_rational_exactness(num, den):
    x = Fraction(num, den)
    enc = Q.encode_scalar(x)
    assert Q.parse_scalar(enc) == (x, False)


# -- the dense Gauss-Jordan elimination the sparse kernel replaced ---------------

def _normalize(field, a):
    return a % field.p if field.kind == "Fp" else a


def dense_array(a):
    """A Matrix as a numpy object array, built from its dense rows."""
    return np.array(a.to_lists(), dtype=object).reshape(a.rows, a.cols)


def reference_rref(field, a):
    """Reduced row echelon form by dense row operations on the array."""
    a = a.copy()
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        pivot = field.coerce(a[r, c])
        if pivot != field.one:
            a[r] = _normalize(field, a[r] * field.inv(pivot))
        rows = np.nonzero(a[:, c])[0]
        for i in rows:
            if i != r:
                a[i] = _normalize(field, a[i] - a[i, c] * a[r])
        pivots.append(c)
        r += 1
    return a, pivots


def reference_canonical(field, vectors):
    if not vectors:
        return []
    r, pivots = reference_rref(field, dense_array(Matrix.from_rows(field, vectors)))
    return [[field.coerce(x) for x in row] for row in r[: len(pivots)]]


def reference_kernel(a):
    field = a.field
    r, pivots = reference_rref(field, dense_array(a))
    vectors = []
    for f in range(a.cols):
        if f in pivots:
            continue
        v = [field.zero] * a.cols
        v[f] = field.one
        for row_idx, c in enumerate(pivots):
            v[c] = field.neg(field.coerce(r[row_idx, f]))
        vectors.append(v)
    return reference_canonical(field, vectors)


def reference_solve(a, b):
    field = a.field
    col = np.empty((a.rows, 1), dtype=object)
    for i, x in enumerate(b):
        col[i, 0] = field.coerce(x)
    r, pivots = reference_rref(field, np.concatenate([dense_array(a), col], axis=1))
    if pivots and pivots[-1] == a.cols:
        return None
    x = [field.zero] * a.cols
    for row_idx, c in enumerate(pivots):
        x[c] = field.coerce(r[row_idx, a.cols])
    return tuple(x)


def assert_canonical(m):
    """Every stored entry is nonzero, in canonical field form and inside the shape."""
    assert len(m.data) == m.rows
    for row in m.data:
        for j, x in row.items():
            assert 0 <= j < m.cols
            if m.field.kind == "Fp":
                assert type(x) is int and 0 < x < m.field.p
            else:
                assert type(x) is Fraction and x != 0


# small primes, the largest prime below 2^31 and the least above it (sums of
# a few products (p-1)^2 there pass 2^63), and Q
AGREEMENT_FIELDS = [F2, F5, FieldSpec.fp(2**31 - 1), FieldSpec.fp(2**31 + 11), Q]


def _scalars(field):
    if field.kind == "Fp":
        return st.sampled_from([0, 0, 1, field.p - 1]) | st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def linear_systems(draw):
    """(A, b) with up to 6 x 5 entries, biased towards zeros, extreme
    residues, all-zero matrices and repeated rows."""
    field = draw(st.sampled_from(AGREEMENT_FIELDS))
    scalar = _scalars(field)
    if draw(st.integers(0, 7)) == 0:
        scalar = st.just(field.zero)
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = [[draw(scalar) for _ in range(cols)] for _ in range(rows)]
    if entries and draw(st.booleans()):
        entries.append(list(draw(st.sampled_from(entries))))
    a = Matrix.from_rows(field, entries) if entries else Matrix.zeros(field, 0, cols)
    b = [field.coerce(draw(scalar)) for _ in entries]
    return a, b


@settings(max_examples=80, deadline=None)
@given(linear_systems())
@example((Matrix.zeros(F5, 0, 3), []))
@example((Matrix.from_rows(Q, [[], []]), [Fraction(0), Fraction(1)]))
@example((Matrix.zeros(F2, 2, 2), [0, 1]))
@example((Matrix.from_rows(F5, [[1, 2], [1, 2]]), [1, 3]))
def test_sparse_elimination_agrees_with_dense_reference(system):
    a, b = system
    field = a.field
    ref_r, ref_pivots = reference_rref(field, dense_array(a))
    basis = Subspace.from_vectors(field, a.cols, a.to_lists()).basis
    assert (basis.rows, basis.cols) == (len(ref_pivots), a.cols)
    assert basis.to_lists() == [[field.coerce(x) for x in row] for row in ref_r[: len(ref_pivots)]]
    assert_canonical(basis)
    assert rank(a) == len(ref_pivots)
    kernel = kernel_basis(a)
    assert kernel.vectors() == [tuple(v) for v in reference_kernel(a)]
    assert_canonical(kernel.basis)
    x = solve(a, b)
    assert x == reference_solve(a, b)
    by_rows = Matrix(
        field, a.rows, a.cols, [{j: x for j, x in enumerate(row) if x} for row in a.to_lists()]
    )
    assert by_rows == a and solve(by_rows, b) == x
    if x is not None:
        assert a.mul_vector(x) == tuple(b)


@settings(max_examples=80, deadline=None)
@given(linear_systems(), st.data())
def test_solution_of_a_consistent_system_is_zero_off_the_pivots(system, data):
    # b = A x0 makes every system consistent; the solution read off the
    # RREF of [A | b] solves it and sets each free column to zero
    a, _ = system
    field = a.field
    x0 = [field.coerce(data.draw(_scalars(field))) for _ in range(a.cols)]
    b = a.mul_vector(x0)
    x = solve(a, b)
    assert x is not None and a.mul_vector(x) == b
    _, pivots = reference_rref(field, dense_array(a))
    assert all(not v for j, v in enumerate(x) if j not in pivots)


# -- the integer kernel over Q on wide rationals -------------------------------------

# denominators are products of distinct primes from here
DENOMINATOR_PRIMES = (2, 3, 5, 7, 11, 13, 101)


def _wide_rationals():
    """Rationals with numerators up to 10^12 in size, of either sign, over
    squarefree denominators."""
    return st.builds(
        lambda num, primes: Fraction(num, math.prod(primes)),
        st.integers(-(10**12), 10**12),
        st.sets(st.sampled_from(DENOMINATOR_PRIMES), max_size=4),
    )


@st.composite
def wide_rational_systems(draw):
    """(A, b) over Q with up to 10 x 8 wide rational entries.  Some rows are
    rational combinations of earlier rows, so elimination must cancel them
    exactly, and b is A x for a drawn x, sometimes bumped at one row, which
    makes the system infeasible when that row depends on the others."""
    wide = _wide_rationals()
    entry = st.just(Fraction(0)) | wide
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    entries: list[list] = []
    for _ in range(rows):
        if entries and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(entries)), draw(st.sampled_from(entries))
            s1, s2 = draw(wide), draw(entry)
            entries.append([s1 * x + s2 * y for x, y in zip(r1, r2)])
        else:
            entries.append([draw(entry) for _ in range(cols)])
    a = Matrix.from_rows(Q, entries)
    b = list(a.mul_vector([draw(entry) for _ in range(cols)]))
    if draw(st.booleans()):
        b[draw(st.integers(0, rows - 1))] += draw(wide)
    return a, b


@settings(max_examples=60, deadline=None)
@given(wide_rational_systems())
@example((Matrix.from_rows(Q, [[Fraction(-1, 3), Fraction(2, 5)], [Fraction(2, 3), Fraction(-4, 5)]]), [1, 3]))
@example((Matrix.from_rows(Q, [[Fraction(-10**12, 1001), 0, Fraction(7, 2)]]), [Fraction(-1, 6)]))
def test_integer_kernel_over_q_agrees_with_dense_reference(system):
    a, b = system
    rows_before = [dict(row) for row in a.data]
    b_before = list(b)
    ref_r, ref_pivots = reference_rref(Q, dense_array(a))
    basis = Subspace.from_rows(Q, a.cols, a.data).basis
    assert basis.to_lists() == [list(row) for row in ref_r[: len(ref_pivots)]]
    assert_canonical(basis)
    assert rank(a) == len(ref_pivots)
    kernel = kernel_basis(a)
    assert kernel.vectors() == [tuple(v) for v in reference_kernel(a)]
    assert_canonical(kernel.basis)
    for v in kernel.vectors():
        assert not any(a.mul_vector(v))
    x = solve(a, b)
    assert x == reference_solve(a, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert a.mul_vector(x) == tuple(b)
    assert a.data == rows_before and b == b_before
    assert all(type(v) is Fraction for row in a.data for v in row.values())


# -- kernels read off the basis that leads at the last column ------------------------

@st.composite
def stacked_systems(draw):
    """(field, d, e, top, bottom) over F_2, F_5 or Q: top has d columns,
    bottom d + e, and they stack to one matrix of d + e columns (top
    padded with zeros).  Either block may be empty, zero, the identity
    (full rank) or random; d may be 0."""
    field = draw(st.sampled_from([F2, F5, Q]))
    scalar = _scalars(field)
    d, e = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def block(cols):
        kind = draw(st.sampled_from(["random", "random", "zero", "identity"]))
        if kind == "identity":
            return [[field.one if i == j else field.zero for j in range(cols)] for i in range(cols)]
        rows = draw(st.integers(0, 5))
        if kind == "zero":
            return [[field.zero] * cols for _ in range(rows)]
        return [[draw(scalar) for _ in range(cols)] for _ in range(rows)]

    return field, d, e, block(d), block(d + e)


def _from_lists(field, rows, cols):
    return Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, cols)


@settings(max_examples=120, deadline=None)
@given(stacked_systems())
@example((F5, 0, 0, [], []))
@example((F2, 3, 0, [], [[1, 1, 0]]))
@example((Q, 2, 2, [[Fraction(1, 2), Fraction(-3)]], [[0, 0, 0, 0]]))
@example((Q, 2, 1, [[Fraction(2), 0], [0, Fraction(2)]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
# the kernel of the top block has basis rows (2, 0, 1) and (0, 2, 1),
# whose sum (2, 2, 2) spans the kernel of the stack
@example((Q, 3, 0, [[1, 1, -2]], [[1, -1, 0]]))
def test_kernel_basis_agrees_with_dense_reference(case):
    field, d, e, top, bottom = case
    stacked = _from_lists(field, [row + [field.zero] * e for row in top] + bottom, d + e)
    kernel = kernel_basis(stacked)
    assert kernel.vectors() == [tuple(v) for v in reference_kernel(stacked)]
    assert_canonical(kernel.basis)
    for c, row in kernel.pivot_rows.items():
        assert min(row) == c and row[c] > 0 and all(type(x) is int for x in row.values())
        if field == Q:
            assert math.gcd(*row.values()) == 1
        else:
            assert row[c] == 1


NONZERO_SCALES = st.lists(st.integers(-9, 9).filter(bool), min_size=10, max_size=10)


@settings(max_examples=60, deadline=None)
@given(wide_rational_systems(), NONZERO_SCALES, NONZERO_SCALES)
@example((Matrix.from_rows(Q, [[Fraction(1, 2), Fraction(-1, 3)], [1, Fraction(-2, 3)]]), []), [-1, 2], [-6, 1])
def test_kernel_basis_reads_any_nonzero_integer_multiple_of_a_row(system, scales, int_scales):
    # the integer-row contract invert.finitely_supported_kernel relies on:
    # each row scaled by a nonzero integer, negative scales included, and
    # each row as plain ints, a nonzero multiple of the lcm of its
    # denominators, have the kernel of the field rows
    a, _ = system
    scaled = [{j: x * k for j, x in row.items()} for row, k in zip(a.data, scales)]
    as_ints = []
    for row, k in zip(a.data, int_scales):
        den = math.lcm(*(x.denominator for x in row.values()))
        as_ints.append({j: int(x * den * k) for j, x in row.items()})
    kernel = kernel_basis(a)
    for rows in (scaled, as_ints):
        assert kernel_basis(Matrix(Q, a.rows, a.cols, rows)) == kernel


# -- the integer Subspace against the dense reference --------------------------------

SUBSPACE_FIELDS = [F2, FieldSpec.fp(3), Q]


def _combination(field, coeffs, vectors, dim):
    return [field.coerce(sum(c * v[j] for c, v in zip(coeffs, vectors))) for j in range(dim)]


@st.composite
def spanning_sets(draw):
    """(field, dim, vectors, other, w): vectors span a subspace, other
    spans the same one (each vector scaled by a nonzero scalar plus earlier
    vectors, shuffled, with a zero row added sometimes), w is a vector
    that may or may not lie in it.  Over Q the entries have denominators
    and either sign, so leads are negative and rows are not primitive;
    sometimes there are no vectors at all."""
    field = draw(st.sampled_from(SUBSPACE_FIELDS))
    scalar = _scalars(field)
    nonzero = scalar.filter(lambda x: field.coerce(x) != 0)
    dim = draw(st.integers(1, 5))
    count = draw(st.sampled_from([0, 1, 2, 3, 4]))
    vectors = [[field.coerce(draw(scalar)) for _ in range(dim)] for _ in range(count)]
    if vectors and draw(st.booleans()):
        # a dependent vector, so that the set is not a basis
        coeffs = [draw(scalar) for _ in vectors]
        vectors.append(_combination(field, coeffs, vectors, dim))
    other = []
    for i, v in enumerate(vectors):
        coeffs = [draw(scalar) for _ in range(i)] + [draw(nonzero)]
        other.append(_combination(field, coeffs, vectors[: i + 1], dim))
    other = draw(st.permutations(other))
    if draw(st.booleans()):
        other.append([field.zero] * dim)
    w = (
        _combination(field, [draw(scalar) for _ in vectors], vectors, dim)
        if vectors and draw(st.booleans())
        else [field.coerce(draw(scalar)) for _ in range(dim)]
    )
    return field, dim, vectors, list(other), w


@settings(max_examples=120, deadline=None)
@given(spanning_sets())
@example((Q, 2, [[Fraction(-2, 3), Fraction(1, 2)], [Fraction(4, 3), Fraction(-1)]],
          [[Fraction(-4, 3), Fraction(1)]], [Fraction(2), Fraction(-3, 2)]))
@example((FieldSpec.fp(3), 3, [], [[0, 0, 0]], [0, 0, 0]))
def test_integer_subspace_agrees_with_dense_reference(case):
    field, dim, vectors, other, w = case
    ref = reference_canonical(field, vectors)
    s = Subspace.from_vectors(field, dim, vectors)
    assert s.dim == len(ref)
    assert s.basis.to_lists() == ref and s.vectors() == [tuple(r) for r in ref]
    assert (s.basis.rows, s.basis.cols) == (len(ref), dim)
    assert_canonical(s.basis)
    # over Q the stored basis is the primitive integer multiple of each
    # RREF row, with a positive lead
    for c, row in s.pivot_rows.items():
        assert min(row) == c and row[c] > 0 and all(type(x) is int for x in row.values())
        if field == Q:
            assert math.gcd(*row.values()) == 1

    rows = [{j: x for j, x in enumerate(v) if x} for v in vectors]
    same = Subspace.from_vectors(field, dim, other)
    assert Subspace.from_rows(field, dim, rows) == s == same and hash(same) == hash(s)
    assert same.vectors() == s.vectors()
    zero = Subspace.zero(field, dim)
    assert zero == Subspace.from_vectors(field, dim, [[0] * dim]) and zero.dim == 0
    assert zero.basis.rows == 0 and zero.vectors() == []
    assert (s == zero) == (not ref)
    # w swapped in for the first vector often spans another subspace of
    # the same dimension
    swapped = vectors[1:] + [w]
    assert (Subspace.from_vectors(field, dim, swapped) == s) == (reference_canonical(field, swapped) == ref)

    # membership: w lies in s iff adding it leaves s as it is
    for v in vectors:
        assert Subspace.from_vectors(field, dim, vectors + [v]) == s
    grown = Subspace.from_vectors(field, dim, vectors + [w])
    assert (grown == s) == (len(reference_canonical(field, vectors + [w])) == len(ref))

    part = Subspace.from_vectors(field, dim, vectors[:1])
    assert (part == s) == (len(reference_canonical(field, vectors[:1])) == len(ref))

    a = Matrix.from_rows(field, vectors) if vectors else Matrix.zeros(field, 0, dim)
    kernel = kernel_basis(a)
    assert kernel.vectors() == [tuple(v) for v in reference_kernel(a)]
    assert kernel == Subspace.from_vectors(field, dim, reference_kernel(a))
    assert kernel.dim + s.dim == dim

    # the coordinates 0, 2, 4, ... moved to 0, 1, 2, ...
    cols = {j: j // 2 for j in range(0, dim, 2)}
    sliced = [[v[j] for j in sorted(cols)] for v in vectors]
    restricted = a.restrict(cols, len(cols))
    assert (restricted.rows, restricted.cols) == (a.rows, len(cols))
    if vectors:
        assert restricted.to_lists() == sliced
        assert kernel_basis(restricted).vectors() == [
            tuple(v) for v in reference_kernel(Matrix.from_rows(field, sliced))
        ]
    assert rank(a) == s.dim


# -- Matrix against plain lists ---------------------------------------------------

def list_product(field, a, b):
    """The defining sum of a matrix product on plain lists of field values."""
    cols = len(b[0]) if b else 0
    return [
        [field.coerce(sum(row[k] * b[k][j] for k in range(len(b)))) for j in range(cols)]
        for row in a
    ]


@st.composite
def matrix_pairs(draw):
    """Plain-list matrices A (r x k) and B (k x c) and a vector of length k."""
    field = draw(st.sampled_from(AGREEMENT_FIELDS))
    scalar = _scalars(field).map(field.coerce)
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(scalar) for _ in range(k)] for _ in range(r)]
    b = [[draw(scalar) for _ in range(c)] for _ in range(k)]
    return field, a, b, [draw(scalar) for _ in range(k)]


@settings(max_examples=80, deadline=None)
@given(matrix_pairs())
def test_matrix_agrees_with_plain_lists(case):
    field, a, b, v = case
    ma, mb = Matrix.from_rows(field, a), Matrix.from_rows(field, b)
    assert ma.to_lists() == a and mb.to_lists() == b
    assert (ma.rows, ma.cols) == (len(a), len(a[0]))
    assert_canonical(ma)
    product = ma @ mb
    assert product.to_lists() == list_product(field, a, b)
    assert (product.rows, product.cols) == (len(a), len(b[0]))
    assert_canonical(product)
    assert ma.mul_vector(v) == tuple(row[0] for row in list_product(field, a, [[x] for x in v]))
    again = Matrix.from_rows(field, [list(row) for row in a])
    assert again == ma and hash(again) == hash(ma)
    if any(x for row in a for x in row):
        assert Matrix.zeros(field, ma.rows, ma.cols) != ma
    assert Matrix.identity(field, len(a[0])) @ mb == mb
    assert ma @ Matrix.identity(field, ma.cols) == ma


def test_matrix_equality_needs_shape_and_field():
    assert Matrix.zeros(F5, 2, 3) != Matrix.zeros(F5, 2, 2)
    assert Matrix.zeros(F5, 0, 3) != Matrix.zeros(F5, 0, 2)
    assert Matrix.identity(F5, 2) != Matrix.identity(F2, 2)
    assert Matrix.from_rows(F5, [[6, -1]]) == Matrix.from_rows(F5, [[1, 4]])
    one = Matrix.from_rows(Q, [[1, 0]])
    assert one == Matrix.identity(Q, 1) @ Matrix.from_rows(Q, [[Fraction(1), 0]])
    assert hash(one) == hash(Matrix.from_rows(Q, [[Fraction(1), Fraction(0)]]))
    # row dicts that differ only in insertion order hold the same matrix
    a, b = Matrix(F5, 1, 3, [{2: 1, 0: 3}]), Matrix(F5, 1, 3, [{0: 3, 2: 1}])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(UsageError):
        Matrix.from_rows(F5, [[1, 2], [3]])
    with pytest.raises(UsageError):
        Matrix.identity(F5, 2) @ Matrix.identity(F5, 3)


def test_import_does_not_load_numpy():
    code = "import sys, d1ring, d1ring.cli; print('numpy' in sys.modules)"
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
