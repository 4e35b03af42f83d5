import copy
import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d1ring.errors import UsageError
from d1ring.exactalg import FieldSpec, Matrix, inverse
from d1ring import groupring
from d1ring.experiments import MAX_SUITE_N, _unit_sites, rand_groupring
from d1ring.groupring import (
    MAX_KERNEL_N,
    GroupRingElement,
    _canonical_terms,
    _kernels,
    _loop_kernels,
    _matrix_kernels,
    coeff_one,
    matrix_shuffle,
    matrix_unshuffle,
)
from d1ring.twisted import embed

from conftest import F2, F2FREE, F3, F5, GROUPS, Q, Z1, Z2, gre
from oracles import field_modulus, naive_convolve, o_add, o_is_zero, o_mul, plain_groupring


def assert_frozen(a, fields):
    """a refuses assignment and deletion of its fields and of any other
    name, as a frozen dataclass does, and stays as it was."""
    before = repr(a)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
    assert repr(a) == before


def assert_copies_equal(a):
    """copy, deepcopy and a pickle round trip give equal elements with equal
    hashes."""
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a)


FIELDS = ("group", "field", "shape", "terms")


def frozen_elements():
    rng = random.Random("frozen elements")
    return [
        GroupRingElement.zero(Z1, F5),
        GroupRingElement.one(F2FREE, Q, 2),
        rand_groupring(rng, F2FREE, F5, None, 2),
        rand_groupring(rng, Z2, Q, 2, 1),
    ]


class TestFrozenElement:
    """GroupRingElement is a slotted class that behaves as the frozen
    dataclass it replaces."""

    @pytest.mark.parametrize("a", frozen_elements())
    def test_fields_cannot_be_set_or_deleted(self, a):
        assert_frozen(a, FIELDS)

    def test_shared_one_and_zero_are_frozen(self):
        _, _, one, zero = _unit_sites(F2FREE, F5, 1)
        assert _unit_sites(F2FREE, F5, 1)[2] is one  # shared by every draw
        for a in (one.regular, zero.regular):
            assert_frozen(a, FIELDS)

    @pytest.mark.parametrize("a", frozen_elements())
    def test_copy_deepcopy_and_pickle(self, a):
        assert_copies_equal(a)

    @pytest.mark.parametrize("a", frozen_elements())
    def test_no_instance_dict(self, a):
        assert not hasattr(a, "__dict__")

    @pytest.mark.parametrize("a", frozen_elements())
    def test_eq_hash_and_repr_as_a_dataclass(self, a):
        fields = (a.group, a.field, a.shape, a.terms)
        assert a == GroupRingElement(*fields) and hash(a) == hash(fields)
        assert a != fields and fields != a
        assert a != embed(a) and embed(a) != a
        assert repr(a) == (
            f"GroupRingElement(group={a.group!r}, field={a.field!r},"
            f" shape={a.shape!r}, terms={a.terms!r})"
        )


class TestConvolve:
    def test_square_over_f2(self):
        # (1 + x)^2 = 1 + x^2 in characteristic 2; cross terms cancel.
        a = gre(Z1, F2, None, [((0,), 1), ((1,), 1)])
        expected = {(0,): 1, (2,): 1}
        assert naive_convolve("Zd", 2, plain_groupring(a), plain_groupring(a)) == expected
        assert dict((a * a).terms) == expected

    def test_unit_law(self):
        a = gre(Z1, F5, None, [((0,), 2), ((3,), 4)])
        one = GroupRingElement.one(Z1, F5)
        assert a * one == a
        assert one * a == a

    def test_single_term_product(self):
        a = gre(Z2, Q, None, [((1, 0), Fraction(1))])
        b = gre(Z2, Q, None, [((0, 1), Fraction(1))])
        assert (a * b).terms == (((1, 1), Fraction(1)),)

    def test_shape_mismatch(self):
        a = gre(Z1, F2, None, [((0,), 1)])
        b = gre(Z1, F2, 2, [((0,), ((1, 0), (0, 1)))])
        with pytest.raises(UsageError, match="shape"):
            a * b

    def test_field_mismatch(self):
        a = gre(Z1, F2, None, [((0,), 1)])
        b = gre(Z1, F5, None, [((0,), 1)])
        with pytest.raises(UsageError):
            a + b

    def test_construction_canonicalizes_coefficients(self):
        assert gre(Z1, F5, None, [((1,), 7)]) == gre(Z1, F5, None, [((1,), 2)])
        assert gre(Z1, Q, None, [((0,), 3)]).terms[0][1] == Fraction(3)
        with pytest.raises(UsageError):
            gre(Z1, F5, None, [((0,), ((1, 0), (0, 1)))])
        with pytest.raises(UsageError):
            gre(Z1, F5, 2, [((0,), 1)])


class TestAddScale:
    def test_add_zero(self):
        a = gre(Z1, F5, None, [((1,), 3)])
        assert a + GroupRingElement.zero(Z1, F5) == a

    def test_char_two_cancellation(self):
        a = gre(Z1, F2, None, [((0,), 1)])
        assert (a + a).is_zero()

    def test_scale_mod_five(self):
        a = gre(Z1, F5, None, [((1,), 1), ((2,), 3)])
        assert a.scale(2) == gre(Z1, F5, None, [((1,), 2), ((2,), 1)])

    def test_neg(self):
        a = gre(Z1, Q, None, [((1,), Fraction(2, 3))])
        assert (a + (-a)).is_zero()


class TestTranslate:
    def test_translate_moves_every_site(self):
        a = gre(Z2, F5, None, [((0, 0), 1), ((1, -1), 3)])
        assert a.translate((1, 2)) == gre(Z2, F5, None, [((1, 2), 1), ((2, 1), 3)])

    @pytest.mark.parametrize("g", [(1, 2, 3), (1,), "junk", (True, 0)])
    def test_bad_group_element_refused(self, g):
        # compose zips the tuples, so (1, 2, 3) once dropped its last coordinate
        a = gre(Z2, F5, None, [((0, 0), 1)])
        with pytest.raises(UsageError):
            a.translate(g)
        with pytest.raises(UsageError):
            GroupRingElement.zero(Z2, F5).translate(g)

    @pytest.mark.parametrize("g", [(1, 2, 3), "junk"])
    def test_coefficient_refuses_a_bad_site(self, g):
        # no term matches a bad site, so it once read as coefficient 0
        a = gre(Z2, F5, None, [((0, 0), 1)])
        with pytest.raises(UsageError):
            a.coefficient(g)


def reference_unshuffle(grid):
    """matrix_unshuffle read site by site: the coefficient of every entry
    at each site of the grid, re-coerced by from_terms."""
    n = len(grid)
    first = grid[0][0]
    sites = {g for row in grid for e in row for g, _ in e.terms}
    return GroupRingElement.from_terms(
        first.group,
        first.field,
        n,
        [(g, [[grid[i][j].coefficient(g) for j in range(n)] for i in range(n)]) for g in sites],
    )


class TestMatrixShuffle:
    def test_n1_reindexing(self):
        a = gre(Z1, F5, 1, [((2,), ((3,),))])
        grid = matrix_shuffle(a)
        assert grid == [[gre(Z1, F5, None, [((2,), 3)])]]
        assert matrix_unshuffle(grid) == a

    def test_read_off_entries(self):
        a = gre(
            Z1,
            F2,
            2,
            [((0,), ((1, 0), (0, 0))), ((1,), ((0, 1), (0, 0)))],
        )
        grid = matrix_shuffle(a)
        assert grid[0][0] == gre(Z1, F2, None, [((0,), 1)])
        assert grid[0][1] == gre(Z1, F2, None, [((1,), 1)])
        assert grid[1][0].is_zero()
        assert grid[1][1].is_zero()

    def test_round_trip_both_orders(self, rng):
        for _ in range(20):
            a = rand_groupring(rng, Z1, F5, 2, radius=2)
            assert matrix_unshuffle(matrix_shuffle(a)) == a
        for _ in range(20):
            grid = [
                [rand_groupring(rng, Z2, F2, None, radius=1) for _ in range(2)]
                for _ in range(2)
            ]
            assert matrix_shuffle(matrix_unshuffle(grid)) == grid

    @pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
    def test_unshuffle_agrees_with_the_site_by_site_reference(self, rng, field):
        for n in (1, 2, 3):
            for _ in range(10):
                grid = [
                    [rand_groupring(rng, Z2, field, None, radius=2, max_terms=6) for _ in range(n)]
                    for _ in range(n)
                ]
                built, reference = matrix_unshuffle(grid), reference_unshuffle(grid)
                assert built == reference
                assert repr(built) == repr(reference)  # the same entry types: Fractions over Q

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([], "square grid"),
            ([[gre(Z1, F5, None, [])], [gre(Z1, F5, None, [])]], "square grid"),
            ([[gre(Z1, F5, None, []), gre(Z1, F3, None, [])]] * 2, "disagree on group or field"),
            ([[gre(Z1, F5, 1, [])]], "must be scalar-shaped"),
        ],
    )
    def test_unshuffle_refuses_a_bad_grid(self, grid, message):
        with pytest.raises(UsageError, match=message):
            matrix_unshuffle(grid)

    def test_transports_products(self, rng):
        # shuffle(a*b) equals the matrix product of shuffles, with each
        # entry recomputed by the independent convolution oracle.
        a = rand_groupring(rng, Z1, F5, 2, radius=1, max_terms=3)
        b = rand_groupring(rng, Z1, F5, 2, radius=1, max_terms=3)
        left = matrix_shuffle(a * b)
        sa, sb = matrix_shuffle(a), matrix_shuffle(b)
        for i in range(2):
            for j in range(2):
                acc: dict = {}
                for r in range(2):
                    prod = naive_convolve(
                        "Zd", 5, plain_groupring(sa[i][r]), plain_groupring(sb[r][j])
                    )
                    for g, c in prod.items():
                        acc[g] = (acc.get(g, 0) + c) % 5
                acc = {g: c for g, c in acc.items() if c}
                assert dict(left[i][j].terms) == acc


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_ring_axioms_random(group, field):
    rng = random.Random(f"{group.label()}|{field.label()}|gr-axioms")
    for _ in range(200):
        a = rand_groupring(rng, group, field, None, radius=2)
        b = rand_groupring(rng, group, field, None, radius=2)
        c = rand_groupring(rng, group, field, None, radius=2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
def test_support_containment(group, rng):
    for _ in range(50):
        a = rand_groupring(rng, group, F5, None, radius=2)
        b = rand_groupring(rng, group, F5, None, radius=2)
        if a.is_zero() or b.is_zero():
            continue
        big = a.support().product(b.support())
        for g in (a * b).support():
            assert g in big


def test_convolve_matches_oracle_on_free_group(rng):
    for _ in range(50):
        a = rand_groupring(rng, F2FREE, F2, None, radius=2)
        b = rand_groupring(rng, F2FREE, F2, None, radius=2)
        expected = naive_convolve(
            "free", field_modulus(F2), plain_groupring(a), plain_groupring(b)
        )
        assert dict((a * b).terms) == expected


# -- n x n coefficients on raw accumulators ---------------------------------------

def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def draw_raw_terms(rng, group, field, n, k):
    """k terms at sites of ball(1) with raw entries from -7 to 7 (over Q
    also Fractions), so that sites repeat and sums cancel mod p often."""
    sites = group.ball(1)

    def entry():
        x = rng.randint(-7, 7)
        return Fraction(x, rng.randint(2, 3)) if field == Q and rng.random() < 0.5 else x

    return [(rng.choice(sites), tuple(tuple(entry() for _ in range(n)) for _ in range(n))) for _ in range(k)]


def oracle_sum(p, n, terms):
    zero = tuple((0,) * n for _ in range(n))
    acc: dict = {}
    for g, c in terms:
        acc[g] = o_add(p, acc.get(g, zero), c)
    return {g: c for g, c in acc.items() if not o_is_zero(c)}


def assert_canonical_entries(a):
    for _, c in a.terms:
        for x in (x for row in c for x in row):
            assert type(x) is Fraction if a.field == Q else 0 <= x < a.field.p


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F3, F5, Q]),
    n=st.sampled_from([1, 2, 3, MAX_KERNEL_N, MAX_KERNEL_N + 1]),
)
def test_matrix_terms_and_products_agree_with_oracle(seed, group, field, n):
    rng = random.Random(seed)
    p = field_modulus(field)
    raw_a = draw_raw_terms(rng, group, field, n, rng.randint(0, 6))
    raw_b = draw_raw_terms(rng, group, field, n, rng.randint(0, 6))
    a = GroupRingElement.from_terms(group, field, n, raw_a)
    b = GroupRingElement.from_terms(group, field, n, raw_b)
    assert dict(a.terms) == oracle_sum(p, n, raw_a)
    assert dict(b.terms) == oracle_sum(p, n, raw_b)
    product = naive_convolve(group.kind, p, plain_groupring(a), plain_groupring(b))
    built = a * b
    assert dict(built.terms) == product
    assert_canonical_entries(built)
    assert [g for g, _ in built.terms] == list(group.sort(g for g, _ in built.terms))
    assert a.product_is_one(b) == (product == {group.identity: identity_matrix(n)})


def draw_invertible(rng, field, n):
    """A random invertible n x n matrix over the field and its inverse."""
    draw = (lambda: rng.randrange(field.p)) if field.p else (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    while True:
        c = tuple(tuple(draw() for _ in range(n)) for _ in range(n))
        c_inv = inverse(Matrix(field, n, n, [{j: x for j, x in enumerate(row) if x} for row in c]))
        if c_inv is not None:
            return c, tuple(tuple(c_inv.data[i].get(j, 0) for j in range(n)) for i in range(n))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F3, F5, Q]),
    n=st.sampled_from([1, 2, 3, MAX_KERNEL_N, MAX_KERNEL_N + 1]),
)
def test_matrix_product_is_one_on_raw_entries(seed, group, field, n):
    # a = c g (1 + N h) and b = (1 - N h) c^-1 g^-1 with N^2 = 0: the raw
    # entries of a b at the identity are c c^-1 summed without reduction
    # (over F_5, 2 * 3 = 6), and at g h g^-1 they are c N c^-1 and
    # -(c N c^-1), each from reduced operands, so over F_p they cancel
    # only mod p
    rng = random.Random(seed)
    p = field_modulus(field)
    c, c_inv = draw_invertible(rng, field, n)
    nil = tuple(tuple(rng.randrange(5) if i == 0 and j > 0 else 0 for j in range(n)) for i in range(n))
    neg_nil = tuple(tuple(-x for x in row) for row in nil)
    sites = group.ball(1)
    g, h = rng.choice(sites), rng.choice(sites[1:])
    compose, g_inv = group.compose, group.inverse(g)
    a = gre(group, field, n, [(g, c), (compose(g, h), o_mul(p, c, nil))])
    b = gre(group, field, n, [(g_inv, c_inv), (compose(h, g_inv), o_mul(p, neg_nil, c_inv))])
    one = GroupRingElement.one(group, field, n)
    assert naive_convolve(group.kind, p, plain_groupring(a), plain_groupring(b)) == {
        group.identity: identity_matrix(n)
    }
    assert a * b == one
    assert a.product_is_one(b) and embed(a).product_is_one(embed(b))
    # one entry of b moved by 1 at one site: the checks follow the oracle
    i, j = rng.randrange(n), rng.randrange(n)
    bump = tuple(tuple(int((r, s) == (i, j)) for s in range(n)) for r in range(n))
    b2 = b + gre(group, field, n, [(rng.choice(sites), bump)])
    expected = naive_convolve(group.kind, p, plain_groupring(a), plain_groupring(b2)) == {
        group.identity: identity_matrix(n)
    }
    assert (a * b2 == one) == expected
    assert a.product_is_one(b2) == expected
    assert embed(a).product_is_one(embed(b2)) == expected


@given(
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F5, Q]),
    shape=st.sampled_from([None, 1, 2, 3]),
)
def test_one_is_the_checked_monomial(group, field, shape):
    # one is built without monomial's checks; it is the same element, down
    # to the types of its entries (Fractions over Q)
    one = GroupRingElement.one(group, field, shape)
    reference = GroupRingElement.monomial(group, field, shape, group.identity, coeff_one(field, shape))
    assert one == reference
    assert repr(one) == repr(reference)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_coeff_one_is_one_shared_identity_block(field):
    # n x n identities are made once per (field, n); a scalar one is read
    # straight off the field, not from a cache
    for n in (1, 2, 3):
        fresh = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
        one = coeff_one(field, n)
        assert one == fresh and repr(one) == repr(fresh)
        assert coeff_one(field, n) is one
        assert coeff_one(FieldSpec(field.kind, field.p), n) is one
    assert coeff_one(field, None) is field.one


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
def test_raw_identity_entries_are_reduced_before_the_check(group):
    # diag(2, 3) diag(3, 2) = diag(6, 6) raw, which is 1 over F_5;
    # diag(2, 3) diag(3, 3) = diag(6, 9) raw, which is diag(1, 4)
    e = group.identity
    a = gre(group, F5, 2, [(e, ((2, 0), (0, 3)))])
    b = gre(group, F5, 2, [(e, ((3, 0), (0, 2)))])
    c = gre(group, F5, 2, [(e, ((3, 0), (0, 3)))])
    acc: dict = {}
    _kernels(2)[0](acc, group.compose, a.terms, b.terms)
    assert acc == {e: [6, 0, 0, 6]}
    assert a.product_is_one(b) and embed(a).product_is_one(embed(b))
    assert not a.product_is_one(c) and not embed(a).product_is_one(embed(c))
    assert a * b == GroupRingElement.one(group, F5, 2)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_unrolled_kernels_agree_with_the_loops(field):
    # the kernels of each n (_kernels) against the loops that serve n >
    # MAX_KERNEL_N, on raw int entries (over Q the numerators over a scale
    # of 6): products added into a site already in the accumulator, one
    # site where they cancel to 0 exactly, over F_p one whose entries are
    # multiples of p, and for each entry k a site where only entry k is
    # nonzero
    group, e, s = Z2, (0, 0), (1, 0)
    for n in range(1, MAX_KERNEL_N + 2):
        rng = random.Random(f"kernels {field.label()} {n}")

        def coeff():
            return tuple(tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(n))

        c, d = coeff(), coeff()
        minus_d = tuple(tuple(-x for x in row) for row in d)
        # c d and -(c d) both land at s
        a_terms = [(e, c), (s, c), ((0, 1), coeff())]
        b_terms = [(s, d), (e, minus_d), ((-1, 1), coeff())]
        start = {e: [rng.randint(-7, 7) for _ in range(n * n)]}
        if field.p:
            start[(5, 5)] = [field.p * rng.randint(-2, 2) for _ in range(n * n)]
        lone = [(9, k) for k in range(n * n)]
        start.update(((9, k), [field.p or 0] * k + [1] + [0] * (n * n - 1 - k)) for k in range(n * n))
        runs = []
        for convolve, reduce in (_kernels(n), _loop_kernels(n)):
            acc = {g: flat.copy() for g, flat in start.items()}
            convolve(acc, group.compose, a_terms, b_terms)
            convolve(acc, group.compose, a_terms[:1], b_terms[1:2])  # into e again
            runs.append((acc, reduce(acc, field.p) if field.p else None))
        (acc, items), (loop_acc, loop_items) = runs
        assert acc == loop_acc
        assert acc[s] == [0] * (n * n)
        assert items == loop_items
        assert repr(items) == repr(loop_items)
        terms = _canonical_terms(group, field, n, acc, 6)
        assert s not in dict(terms) and (5, 5) not in dict(terms)
        assert set(lone) <= set(dict(terms))


def test_kernels_are_made_once_per_n_up_to_the_cap(cold_caches):
    for n in (1, 2, 2, 3, MAX_KERNEL_N, MAX_KERNEL_N + 1, MAX_KERNEL_N + 1):
        for field in (F5, Q):
            a = GroupRingElement.monomial(Z1, field, n, (1,), identity_matrix(n))
            assert a * a == GroupRingElement.monomial(Z1, field, n, (2,), identity_matrix(n))
            assert not a.product_is_one(a)
    info = _matrix_kernels.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert _kernels(2) is _matrix_kernels(2) is _matrix_kernels(2)


def test_a_product_at_the_suite_size_limit_makes_no_kernel():
    # past MAX_KERNEL_N the loops run, so no source of n^3 products is made
    rng = random.Random("suite size limit")
    n = MAX_SUITE_N
    a, b = (
        gre(Z2, F5, n, [((0, 1), tuple(tuple(rng.randrange(5) for _ in range(n)) for _ in range(n)))])
        for _ in range(2)
    )
    before = _matrix_kernels.cache_info()
    start = time.perf_counter()
    product = a * b
    assert time.perf_counter() - start < 1
    assert _matrix_kernels.cache_info() == before
    ((g, c),) = product.terms
    assert g == (0, 2) and c == o_mul(5, a.terms[0][1], b.terms[0][1])


@pytest.mark.parametrize("shape", [True, 2.0, 0], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda shape: GroupRingElement.from_terms(Z1, F5, shape, []),
        lambda shape: GroupRingElement.zero(Z1, F5, shape),
        lambda shape: GroupRingElement.one(Z1, F5, shape),
        lambda shape: GroupRingElement.monomial(Z1, F5, shape, (0,), 0),
    ],
    ids=["from_terms", "zero", "one", "monomial"],
)
def test_coefficient_shape_must_be_a_positive_int(build, shape):
    # True would serialize as the header "n": true, which no envelope reads
    with pytest.raises(UsageError, match="coefficient shape n must be"):
        build(shape)
