import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d1ring.errors import UsageError
from d1ring.exactalg import FieldSpec
from d1ring.experiments import (
    SuiteConfig,
    _unit_sites,
    gen_unit,
    rand_groupring,
    rand_scalar,
    rand_twisted,
)
from d1ring.groupring import MAX_KERNEL_N, GroupRingElement, coeff_one
from d1ring.groups import GroupSpec
from d1ring import twisted
from d1ring.twisted import (
    TwistedElement,
    TwistedMatrix,
    embed,
    f_shuffle,
    f_shuffle_inv,
)

from conftest import F2, F2FREE, F3, F5, GROUPS, Q, Z1, Z2, f3_pair, gre
from oracles import field_modulus, naive_twisted_mul, o_add, o_is_zero, plain_twisted
from test_groupring import (
    assert_copies_equal,
    assert_frozen,
    draw_invertible,
    identity_matrix,
    reference_unshuffle,
)


def assert_matches_oracle(u, v):
    prod = u * v
    kind = u.group.kind
    reg, sing = naive_twisted_mul(kind, field_modulus(u.field), plain_twisted(u), plain_twisted(v))
    assert dict(prod.regular.terms) == reg
    assert {g: dict(part.terms) for g, part in prod.singular} == sing


def frozen_elements():
    rng = random.Random("frozen twisted elements")
    return [
        TwistedElement.zero(Z1, F5),
        TwistedElement.one(F2FREE, Q, 2),
        rand_twisted(rng, F2FREE, F5, None, 2),
        rand_twisted(rng, Z2, Q, 2, 1),
    ]


class TestFrozenElement:
    """TwistedElement is a slotted class that behaves as the frozen
    dataclass it replaces."""

    @pytest.mark.parametrize("u", frozen_elements())
    def test_fields_cannot_be_set_or_deleted(self, u):
        assert_frozen(u, ("regular", "singular"))

    def test_shared_one_and_zero_are_frozen(self):
        _, _, one, zero = _unit_sites(F2FREE, F5, 1)
        assert _unit_sites(F2FREE, F5, 1)[3] is zero  # shared by every draw
        assert_frozen(one, ("regular", "singular"))
        assert_frozen(zero, ("regular", "singular"))

    @pytest.mark.parametrize("u", frozen_elements())
    def test_copy_deepcopy_and_pickle(self, u):
        assert_copies_equal(u)

    @pytest.mark.parametrize("u", frozen_elements())
    def test_no_instance_dict(self, u):
        assert not hasattr(u, "__dict__")

    @pytest.mark.parametrize("u", frozen_elements())
    def test_eq_hash_and_repr_as_a_dataclass(self, u):
        fields = (u.regular, u.singular)
        assert u == TwistedElement(*fields) and hash(u) == hash(fields)
        assert u != fields and fields != u
        assert u != u.regular and u.regular != u
        assert repr(u) == f"TwistedElement(regular={u.regular!r}, singular={u.singular!r})"


class TestSingularPart:
    @pytest.mark.parametrize("g", [(1, 2, 3), "junk"])
    def test_bad_site_refused(self, g):
        # no singular site matches a bad one, so it once read as the zero part
        u = TwistedElement.make(gre(Z2, F5, None, [((0, 0), 1)]), [((1, 0), gre(Z2, F5, None, [((0, 1), 2)]))])
        with pytest.raises(UsageError):
            u.singular_part(g)
        assert u.singular_part((1, 0)) == gre(Z2, F5, None, [((0, 1), 2)])


class TestMul:
    def test_unit_law(self):
        alpha = gre(Z1, F3, None, [((0,), 1), ((1,), 2)])
        beta0 = gre(Z1, F3, None, [((1,), 1)])
        u = TwistedElement.make(alpha, [((0,), beta0)])
        one = TwistedElement.one(Z1, F3)
        assert one * u == u
        assert u * one == u

    def test_pure_singular_product(self):
        # only the singular-times-singular term fires, landing at site 0
        u = TwistedElement.make(
            GroupRingElement.zero(Z1, F2), [((0,), gre(Z1, F2, None, [((1,), 1)]))]
        )
        v = TwistedElement.make(
            GroupRingElement.zero(Z1, F2), [((1,), gre(Z1, F2, None, [((0,), 1)]))]
        )
        prod = u * v
        assert prod.regular.is_zero()
        assert {g: dict(p.terms) for g, p in prod.singular} == {(0,): {(1,): 1}}
        assert_matches_oracle(u, v)

    def test_f3_inverse_pair(self):
        u, v = f3_pair()
        one = TwistedElement.one(Z1, F3)
        assert u * v == one
        assert v * u == one
        assert_matches_oracle(u, v)
        assert_matches_oracle(v, u)

    def test_shape_mismatch(self):
        u = TwistedElement.one(Z1, F2)
        v = TwistedElement.one(Z1, F2, 2)
        with pytest.raises(UsageError, match="shape"):
            u * v


class TestAdditiveStructure:
    def test_add_zero(self):
        u, _ = f3_pair()
        assert u + TwistedElement.zero(Z1, F3) == u

    def test_add_neg(self):
        u, _ = f3_pair()
        assert (u + (-u)).is_zero()

    def test_char_two(self):
        alpha = gre(Z1, F2, None, [((0,), 1)])
        u = TwistedElement.make(alpha, [((1,), gre(Z1, F2, None, [((0,), 1)]))])
        assert (u + u).is_zero()


class TestEmbed:
    def test_one(self):
        assert embed(GroupRingElement.one(Z1, F3)) == TwistedElement.one(Z1, F3)

    def test_additive(self, rng):
        for _ in range(20):
            a = rand_groupring(rng, Z2, F5, None, radius=1)
            b = rand_groupring(rng, Z2, F5, None, radius=1)
            assert embed(a) + embed(b) == embed(a + b)

    def test_multiplicative_via_convolve_example(self):
        a = gre(Z1, F2, None, [((0,), 1), ((1,), 1)])
        expected = embed(gre(Z1, F2, None, [((0,), 1), ((2,), 1)]))
        assert embed(a) * embed(a) == expected

    def test_injective(self, rng):
        seen = {}
        for _ in range(40):
            a = rand_groupring(rng, Z1, F3, None, radius=1)
            image = embed(a)
            if image in seen:
                assert seen[image] == a
            seen[image] = a
        # and embedding never invents a singular part
        assert all(not e.singular for e in seen)


class TestMatrixSize:
    @pytest.mark.parametrize("n", [True, 1.0], ids=repr)
    def test_size_must_be_an_int(self, n):
        # TwistedMatrix(True, ...) would serialize "size": true, which no
        # envelope reads
        with pytest.raises(UsageError, match="matrix size n must be an int"):
            TwistedMatrix(n, ((TwistedElement.one(Z1, F5),),))


class TestMatrixEntries:
    """A TwistedMatrix holds a checked grid of tuples of twisted elements."""

    def test_lists_are_stored_as_tuples(self):
        one = TwistedElement.one(Z1, F5)
        m = TwistedMatrix(1, [[one]])
        assert type(m.entries) is tuple and type(m.entries[0]) is tuple
        assert m == TwistedMatrix(1, ((one,),))
        assert hash(m) == hash(TwistedMatrix(1, ((one,),)))

    def test_entries_cannot_be_changed(self):
        one = TwistedElement.one(Z1, F5)
        rows = [[one]]
        m = TwistedMatrix(1, rows)
        rows[0][0] = "junk"
        assert m.entries == ((one,),)
        with pytest.raises(TypeError):
            m.entries[0][0] = "junk"

    @pytest.mark.parametrize("entry", [3, "junk", None], ids=repr)
    def test_non_element_entry_refused(self, entry):
        with pytest.raises(UsageError, match="twisted elements"):
            TwistedMatrix(1, ((entry,),))
        one = TwistedElement.one(Z1, F5)
        with pytest.raises(UsageError, match="twisted elements"):
            TwistedMatrix(2, ((one, one), (one, entry)))

    @pytest.mark.parametrize("entries", [(3,), 3, None], ids=repr)
    def test_grid_that_is_not_iterable_refused(self, entries):
        with pytest.raises(UsageError, match="n x n grid"):
            TwistedMatrix(1, entries)


class TestMatMul:
    def test_identity_neutral(self, rng):
        u = rand_twisted(rng, Z1, F3, None, radius=1)
        v = rand_twisted(rng, Z1, F3, None, radius=1)
        m = TwistedMatrix(2, ((u, v), (v, u)))
        j = TwistedMatrix.identity(2, Z1, F3)
        assert j @ m == m
        assert m @ j == m

    def test_diagonal_algebra(self, rng):
        u = rand_twisted(rng, Z1, F5, None, radius=1)
        v = rand_twisted(rng, Z1, F5, None, radius=1)
        left = TwistedMatrix.diagonal([u, u]) @ TwistedMatrix.diagonal([v, v])
        assert left == TwistedMatrix.diagonal([u * v, u * v])

    def test_entrywise_defining_sum(self, rng):
        a = [[rand_twisted(rng, Z1, F2, None, radius=1) for _ in range(2)] for _ in range(2)]
        b = [[rand_twisted(rng, Z1, F2, None, radius=1) for _ in range(2)] for _ in range(2)]
        ma = TwistedMatrix(2, tuple(tuple(r) for r in a))
        mb = TwistedMatrix(2, tuple(tuple(r) for r in b))
        assert ma @ mb == reference_matmul(ma, mb)


class TestFShuffle:
    def test_n1_wraps(self):
        u, _ = f3_pair()
        lifted = f_shuffle_inv(TwistedMatrix(1, ((u,),)))
        assert lifted.shape == 1
        m = f_shuffle(lifted)
        assert m.n == 1
        assert m.entries[0][0] == u
        assert f_shuffle_inv(m) == lifted

    def test_read_off_entries(self):
        x = TwistedElement.make(
            gre(Z1, F2, 2, [((0,), ((1, 0), (0, 0)))]),
            [((1,), gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))]))],
        )
        m = f_shuffle(x)
        assert m.entries[0][0] == TwistedElement.make(gre(Z1, F2, None, [((0,), 1)]), [])
        assert m.entries[0][1] == TwistedElement.make(
            GroupRingElement.zero(Z1, F2), [((1,), gre(Z1, F2, None, [((0,), 1)]))]
        )
        assert m.entries[1][0].is_zero()
        assert m.entries[1][1].is_zero()

    def test_round_trip(self, rng):
        for _ in range(25):
            x = rand_twisted(rng, Z2, F5, 2, radius=1)
            assert f_shuffle_inv(f_shuffle(x)) == x

    def test_scalar_lift_is_a_ring_map(self, rng):
        # the n=1 case: f_shuffle_inv of 1x1 matrices transports products,
        # sums, and the unit
        assert f_shuffle_inv(TwistedMatrix(1, ((TwistedElement.one(Z1, F5),),))).is_one()
        for _ in range(15):
            a = TwistedMatrix(1, ((rand_twisted(rng, Z1, F5, None, radius=1),),))
            b = TwistedMatrix(1, ((rand_twisted(rng, Z1, F5, None, radius=1),),))
            assert f_shuffle_inv(a @ b) == f_shuffle_inv(a) * f_shuffle_inv(b)
            assert f_shuffle_inv(a + b) == f_shuffle_inv(a) + f_shuffle_inv(b)

    def test_transports_products_sums_unit(self, rng):
        one = TwistedElement.one(Z1, F3, 2)
        assert f_shuffle(one).is_identity()
        for _ in range(10):
            x = rand_twisted(rng, Z1, F3, 2, radius=1)
            y = rand_twisted(rng, Z1, F3, 2, radius=1)
            assert f_shuffle(x * y) == f_shuffle(x) @ f_shuffle(y)
            assert f_shuffle(x + y) == f_shuffle(x) + f_shuffle(y)


def reference_f_shuffle_inv(m):
    """f_shuffle_inv as the site-by-site unshuffle of each part: each part
    re-coerced by from_terms, the parts assembled by TwistedElement.make.
    (matrix_unshuffle itself runs through f_shuffle_inv.)"""
    n = m.n
    reg = reference_unshuffle([[m.entries[i][j].regular for j in range(n)] for i in range(n)])
    sites = {g for row in m.entries for e in row for g, _ in e.singular}
    sing = [
        (g, reference_unshuffle([[m.entries[i][j].singular_part(g) for j in range(n)] for i in range(n)]))
        for g in sites
    ]
    return TwistedElement.make(reg, sing)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F5, Q]),
    n=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(["shared", "disjoint"]),
)
def test_f_shuffle_inv_agrees_with_unshuffle_per_site(seed, group, field, n, layout):
    # about a third of the entries are zero; the singular parts sit at two
    # sites every entry may use, or at one site of each entry's own
    rng = random.Random(seed)
    pool = group.ball(4)
    zero = TwistedElement.zero(group, field)

    def entry(k):
        if rng.random() < 1 / 3:
            return zero
        sites = [s for s in pool[:2] if rng.random() < 0.5] if layout == "shared" else [pool[k]]
        parts = [(s, rand_groupring(rng, group, field, None, radius=1)) for s in sites]
        return TwistedElement.make(rand_groupring(rng, group, field, None, radius=1), parts)

    m = TwistedMatrix(n, tuple(tuple(entry(i * n + j) for j in range(n)) for i in range(n)))
    built, reference = f_shuffle_inv(m), reference_f_shuffle_inv(m)
    assert built == reference
    assert repr(built) == repr(reference)  # the same entry types: Fractions over Q
    assert f_shuffle(built) == m


class TestEquality:
    def test_one_form(self):
        assert TwistedElement.one(Z1, F3) == TwistedElement.make(
            GroupRingElement.one(Z1, F3), []
        )

    def test_not_equal_after_bump(self):
        u, _ = f3_pair()
        bump = embed(gre(Z1, F3, None, [((2,), 1)]))
        assert u != u + bump

    def test_inverse_pair_product_is_one(self):
        u, v = f3_pair()
        assert (u * v).is_one() and (v * u).is_one()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F5], ids=lambda f: f.label())
def test_ring_axioms_random(group, field):
    rng = random.Random(f"{group.label()}|{field.label()}|tw-axioms")
    one = TwistedElement.one(group, field)
    for _ in range(80):
        u = rand_twisted(rng, group, field, None, radius=2)
        v = rand_twisted(rng, group, field, None, radius=2)
        w = rand_twisted(rng, group, field, None, radius=2)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w
        assert one * u == u and u * one == u


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_mul_matches_oracle(group, field):
    rng = random.Random(f"{group.label()}|{field.label()}|tw-oracle")
    for _ in range(40):
        u = rand_twisted(rng, group, field, None, radius=2)
        v = rand_twisted(rng, group, field, None, radius=2)
        assert_matches_oracle(u, v)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
def test_matrix_mul_matches_oracle(group, field):
    # 2 x 2 coefficients: every regular/singular pairing of the product,
    # summed on raw n x n accumulators, against the oracle
    rng = random.Random(f"{group.label()}|{field.label()}|tw-matrix-oracle")
    for _ in range(40):
        u = rand_twisted(rng, group, field, 2, radius=2)
        v = rand_twisted(rng, group, field, 2, radius=2)
        assert_matches_oracle(u, v)


@pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [MAX_KERNEL_N, MAX_KERNEL_N + 1])
def test_products_at_the_kernel_cap_match_the_oracle(field, n):
    # the largest n with unrolled kernels and the first with loops, through
    # every slot of _mul_into: x = m (1 + b) and y = (1 - b) m^-1, with m =
    # C g for an invertible C and b = N at s for N^2 = 0, have regular and
    # singular parts on both sides, and b1 = m b has the term g at s g^-1,
    # which hits b2 = -b m^-1 at s, so a1 b2 and b1 b2 both fire.  x y and
    # y x are 1, and with y perturbed x y is not
    rng = random.Random(f"kernel cap {field.label()} {n}")
    group, g, s = Z2, (1, 0), (0, 1)
    c, c_inv = draw_invertible(rng, field, n)
    nil = tuple(tuple(rng.randint(1, 4) if i == 0 and j > 0 else 0 for j in range(n)) for i in range(n))
    zero, one = GroupRingElement.zero(group, field, n), TwistedElement.one(group, field, n)
    b = TwistedElement.make(zero, [(s, gre(group, field, n, [(group.identity, nil)]))])
    x = embed(gre(group, field, n, [(g, c)])) * (one + b)
    y = (one - b) * embed(gre(group, field, n, [(group.inverse(g), c_inv)]))
    assert x.regular.terms and x.singular and y.regular.terms and y.singular
    oracle_one = ({group.identity: identity_matrix(n)}, {})
    p = field_modulus(field)
    assert naive_twisted_mul(group.kind, p, plain_twisted(x), plain_twisted(y)) == oracle_one
    assert_matches_oracle(x, y)
    assert_matches_oracle(y, x)
    assert x.product_is_one(y) and y.product_is_one(x)
    bump = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
    y2 = y + TwistedElement.make(zero, [(s, gre(group, field, n, [(g, bump)]))])
    assert_matches_oracle(x, y2)
    expected = naive_twisted_mul(group.kind, p, plain_twisted(x), plain_twisted(y2)) == oracle_one
    assert x.product_is_one(y2) == expected and not expected


def cancelling_singular_parts(rng, field):
    """Scalar singular parts b1, b2 over free:2 whose b1 b2 hits land on
    words that cancel, and the site g and word k where they meet: the two
    terms t1, t2 of b1(g) find b2 at g t1 and g t2, with the terms t1^-1 k
    and t2^-1 k, so each product t (t^-1 k) reduces to the short word k,
    and their coefficients c1 d1 + c2 d2 sum to zero there."""
    grp = F2FREE
    g, t1, t2 = rng.sample([w for w in grp.ball(2) if w], 3)
    k = rng.choice(grp.ball(1))
    c1, c2, d1 = (rand_scalar(rng, field, nonzero=True) for _ in range(3))
    d2 = field.coerce(-c1 * d1 * field.inv(c2))
    b1 = [(g, gre(grp, field, None, [(t1, c1), (t2, c2)]))]
    b2 = [
        (grp.compose(g, t), gre(grp, field, None, [(grp.compose(grp.inverse(t), k), d)]))
        for t, d in ((t1, d1), (t2, d2))
    ]
    return b1, b2, g, k


SIDES = ["zero", "one", "singular-only", "full"]


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
@pytest.mark.parametrize("left", SIDES)
@pytest.mark.parametrize("right", SIDES)
def test_scalar_mul_matches_oracle_on_cancelling_free_words(field, left, right):
    # the scalar kernel's own loops against the defining sums, where the
    # b1 b2 products reduce free words and cancel coefficients; zero and
    # identity sides go through the kernel as they are
    rng = random.Random(f"{field.label()}|{left}|{right}|cancelling words")
    grp = F2FREE
    zero, one = TwistedElement.zero(grp, field), TwistedElement.one(grp, field)

    def side(kind, singular):
        if kind == "zero":
            return zero
        if kind == "one":
            return one
        regular = GroupRingElement.zero(grp, field)
        if kind == "full":
            regular = rand_groupring(rng, grp, field, None, radius=1, max_terms=3)
        return TwistedElement.make(regular, singular)

    for _ in range(10):
        b1, b2, g, k = cancelling_singular_parts(rng, field)
        u, v = side(left, b1), side(right, b2)
        assert_matches_oracle(u, v)
        prod = u * v
        assert u.product_is_one(v) == prod.is_one()
        if left == right == "singular-only":
            # only b1 b2 reaches slot g, and its two terms at k cancel
            assert k not in dict(prod.singular_part(g).terms)
        a = TwistedMatrix(2, ((u, zero), (one, v)))
        b = TwistedMatrix(2, ((v, one), (zero, u)))
        for x, y in ((a, b), (b, a), (a, a)):
            assert x.product_is_identity(y) == (x @ y).is_identity()
            assert x @ y == reference_matmul(x, y)
        # J + E_01 w and J - E_01 w are inverse, with w = u v
        e = TwistedMatrix(2, ((one, prod), (zero, one)))
        f = TwistedMatrix(2, ((one, -prod), (zero, one)))
        assert e.product_is_identity(f) and f.product_is_identity(e)


def test_singular_support_containment(rng):
    # result singular sites sit inside supp(b1) united with supp(b2)*supp(a1)^-1
    for _ in range(60):
        u = rand_twisted(rng, Z2, F5, None, radius=1)
        v = rand_twisted(rng, Z2, F5, None, radius=1)
        prod = u * v
        allowed = set(g for g, _ in u.singular)
        for t, _ in u.regular.terms:
            for s, _ in v.singular:
                allowed.add(Z2.compose(s, Z2.inverse(t)))
        for g, _ in prod.singular:
            assert g in allowed


def reference_matmul(a, b):
    """The entrywise defining sum: each entry starts from a fresh zero and
    adds every product, zero factors included."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = TwistedElement.zero(a.group, a.field, a.shape)
            for r in range(n):
                acc = acc + a.entries[i][r] * b.entries[r][j]
            row.append(acc)
        rows.append(tuple(row))
    return TwistedMatrix(n, tuple(rows))


def plain_sum(p, x, y):
    """(regular, singular) of a sum, added up from the plain dicts."""

    def add(a, b):
        out = dict(a)
        for g, c in b.items():
            out[g] = o_add(p, out[g], c) if g in out else c
        return {g: c for g, c in out.items() if not o_is_zero(c)}

    (r1, s1), (r2, s2) = x, y
    sing = {g: add(s1.get(g, {}), s2.get(g, {})) for g in s1.keys() | s2.keys()}
    return add(r1, r2), {g: part for g, part in sing.items() if part}


def canonical(x):
    """x rebuilt through the canonicalizing constructors."""

    def part(a):
        return GroupRingElement.from_terms(a.group, a.field, a.shape, a.terms)

    return TwistedElement.make(part(x.regular), [(g, part(q)) for g, q in x.singular])


def draw_operand(rng, group, field, shape):
    """Zero and the identity, each about as often as a random element."""
    kind = rng.randrange(3)
    if kind == 0:
        return TwistedElement.zero(group, field, shape)
    if kind == 1:
        return TwistedElement.one(group, field, shape)
    return rand_twisted(rng, group, field, shape, radius=1)


def draw_matrix(rng, group, field, shape, n):
    return TwistedMatrix(
        n, tuple(tuple(draw_operand(rng, group, field, shape) for _ in range(n)) for _ in range(n))
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F3, Q]),
    shape=st.sampled_from([None, 2]),
    n=st.sampled_from([1, 2, 3]),
)
def test_fast_paths_agree_with_oracles(seed, group, field, shape, n):
    # + returns the other operand for a zero one, and * returns the other
    # operand for an identity one (a zero operand runs through the kernel);
    # @ skips zero entries and returns the other side of a lone product
    # with an identity side, so with n up to 3 an entry has 0-3 live
    # products; every result must match the defining sums
    rng = random.Random(seed)
    p = field_modulus(field)
    u = draw_operand(rng, group, field, shape)
    v = draw_operand(rng, group, field, shape)

    prod = u * v
    reg, sing = naive_twisted_mul(group.kind, p, plain_twisted(u), plain_twisted(v))
    assert plain_twisted(prod) == (reg, sing)
    assert prod == canonical(prod)

    total = u + v
    assert plain_twisted(total) == plain_sum(p, plain_twisted(u), plain_twisted(v))
    assert total == canonical(total)

    a, b = draw_matrix(rng, group, field, shape, n), draw_matrix(rng, group, field, shape, n)
    prod = a @ b
    assert prod == reference_matmul(a, b)
    assert all(e == canonical(e) for row in prod.entries for e in row)


def combine(op, x, y):
    return x * y if op == "mul" else x + y if op == "add" else x.product_is_one(y)


class TestCompatibilityChecks:
    # zero operands skip the arithmetic, never the checks
    @pytest.mark.parametrize("op", ["mul", "add", "product_is_one"])
    def test_field_mismatch(self, op):
        zero = TwistedElement.zero(F2FREE, F3)
        one = TwistedElement.one(F2FREE, F5)
        for x, y in ((zero, one), (one, zero)):
            with pytest.raises(UsageError, match="field"):
                combine(op, x, y)

    @pytest.mark.parametrize("op", ["mul", "add", "product_is_one"])
    def test_group_mismatch(self, op):
        zero = TwistedElement.zero(Z1, F3)
        for other in (TwistedElement.one(Z2, F3), TwistedElement.zero(F2FREE, F3)):
            for x, y in ((zero, other), (other, zero)):
                with pytest.raises(UsageError, match="group"):
                    combine(op, x, y)

    def test_shape_mismatch_through_matmul(self):
        def antidiagonal(shape):
            zero, one = TwistedElement.zero(Z1, F3, shape), TwistedElement.one(Z1, F3, shape)
            return TwistedMatrix(2, ((zero, one), (one, zero)))

        with pytest.raises(UsageError, match="shape"):
            antidiagonal(None) @ antidiagonal(2)

    @pytest.mark.parametrize("kind", ["zero", "identity"])
    def test_matmul_checks_before_skipping(self, kind):
        # the product of zero or identity matrices takes no kernel call,
        # and the check of it no accumulator, but a mismatch in field,
        # shape or size still raises from both
        def square(field, shape=None):
            if kind == "zero":
                zero = TwistedElement.zero(Z1, field, shape)
                return TwistedMatrix(2, ((zero, zero), (zero, zero)))
            return TwistedMatrix.identity(2, Z1, field, shape)

        for multiply in (TwistedMatrix.__matmul__, TwistedMatrix.product_is_identity):
            for x, y, match in (
                (square(F3), square(F5), "field"),
                (square(F3), square(F3, 2), "shape"),
            ):
                for left, right in ((x, y), (y, x)):
                    with pytest.raises(UsageError, match=match):
                        multiply(left, right)
            with pytest.raises(UsageError, match="size"):
                multiply(square(F3), TwistedMatrix.identity(3, Z1, F3))

    def test_public_constructor_checks_the_grid(self):
        zero, one = TwistedElement.zero(Z1, F3), TwistedElement.one(Z1, F3)
        with pytest.raises(UsageError, match="field"):
            TwistedMatrix(2, ((zero, one), (one, TwistedElement.zero(Z1, F5))))
        with pytest.raises(UsageError, match="shape"):
            TwistedMatrix(2, ((zero, one), (one, TwistedElement.zero(Z1, F3, 2))))
        with pytest.raises(UsageError, match="group"):
            TwistedMatrix(2, ((zero, one), (TwistedElement.one(Z2, F3), zero)))
        with pytest.raises(UsageError, match="grid"):
            TwistedMatrix(2, ((zero, one), (one,)))
        # products and sums of checked matrices still compare equal to
        # publicly built ones
        m = TwistedMatrix(2, ((zero, one), (one, zero)))
        assert m @ m == TwistedMatrix.identity(2, Z1, F3)
        assert m + m == TwistedMatrix(2, ((zero, one + one), (one + one, zero)))

    def test_equal_but_distinct_specs(self):
        def element(group, field):
            return TwistedElement.make(
                gre(group, field, None, [((1,), 1), ((), 2)]),
                [((-2,), gre(group, field, None, [((1, 2), 2)]))],
            )

        group, field = GroupSpec.free(2), FieldSpec.fp(3)
        assert group is not F2FREE and field is not F3
        u, v = element(F2FREE, F3), element(group, field)
        assert u * v == u * u
        assert u + v == u + u
        m = TwistedMatrix.diagonal([u, v])
        assert m @ TwistedMatrix.diagonal([v, u]) == TwistedMatrix.diagonal([u * u, u * u])


# -- structural unit checks and the fused matrix product ---------------------------

def near_one(kind, group, field, shape):
    """The unit, zero, a random element, or a near-miss of the unit."""
    e = group.identity
    step = (1,) + (0,) * (group.dim - 1) if group.kind == "Zd" else (1,)
    one = coeff_one(field, shape)
    two = 2 if shape is None else tuple(tuple(2 * x for x in row) for row in one)
    if kind == "one":
        return TwistedElement.one(group, field, shape)
    if kind == "zero":
        return TwistedElement.zero(group, field, shape)
    if kind == "two_at_e":
        return TwistedElement.make(gre(group, field, shape, [(e, two)]))
    if kind == "one_off_e":
        return TwistedElement.make(gre(group, field, shape, [(step, one)]))
    if kind == "one_plus_term":
        return TwistedElement.make(gre(group, field, shape, [(e, one), (step, one)]))
    if kind == "one_plus_singular_at_e":
        return TwistedElement.make(
            GroupRingElement.one(group, field, shape), [(e, gre(group, field, shape, [(e, one)]))]
        )
    if kind == "off_diagonal_coeff" and shape is not None:
        bumped = tuple(
            tuple(1 if (i, j) == (0, 1) else x for j, x in enumerate(row)) for i, row in enumerate(one)
        )
        return TwistedElement.make(gre(group, field, shape, [(e, bumped)]))
    return rand_twisted(random.Random(kind), group, field, shape, radius=1)


NEAR_ONE_KINDS = [
    "one", "zero", "two_at_e", "one_off_e", "one_plus_term",
    "one_plus_singular_at_e", "off_diagonal_coeff", "random-1", "random-2",
]


@settings(max_examples=120, deadline=None)
@given(
    group=st.sampled_from([Z2, F2FREE]),
    field=st.sampled_from([F2, F5, Q]),
    shape=st.sampled_from([None, 2]),
    kinds=st.lists(st.sampled_from(NEAR_ONE_KINDS), min_size=4, max_size=4),
)
def test_is_one_and_is_identity_agree_with_equality(group, field, shape, kinds):
    # is_one and is_identity read the structure; == compares with the
    # constructed unit and identity
    x = near_one(kinds[0], group, field, shape)
    assert x.is_one() == (x == TwistedElement.one(group, field, shape))
    entries = [near_one(k, group, field, shape) for k in kinds]
    m = TwistedMatrix(2, ((entries[0], entries[1]), (entries[2], entries[3])))
    assert m.is_identity() == (m == TwistedMatrix.identity(2, group, field, shape))
    one, zero = TwistedElement.one(group, field, shape), TwistedElement.zero(group, field, shape)
    bumped = TwistedMatrix(2, ((one, x), (zero, one)))
    assert bumped.is_identity() == x.is_zero()


def test_is_one_rejects_near_misses():
    for kind in NEAR_ONE_KINDS[1:7]:
        assert not near_one(kind, Z2, F5, 2).is_one(), kind
    assert TwistedMatrix.identity(2, Z2, Q).is_identity()
    two = near_one("two_at_e", Z2, Q, None)
    assert not TwistedMatrix.diagonal([TwistedElement.one(Z2, Q), two]).is_identity()


@pytest.mark.parametrize("field", [F2, Q], ids=lambda f: f.label())
def test_matmul_entry_whose_products_cancel(field):
    # entry (0,0) is u v + u (-v), which cancels completely, singular parts
    # included; entry (1,0) is u v + (u - 1)(-v) = v, where the singular
    # parts of u v cancel and v's stay
    def tw(regular, singular):
        return TwistedElement.make(
            gre(Z1, field, None, regular), [(g, gre(Z1, field, None, t)) for g, t in singular]
        )

    u = tw([((0,), 1), ((1,), 1)], [((0,), [((1,), 1)]), ((2,), [((-1,), 1)])])
    v = tw([((1,), 1)], [((1,), [((0,), 1), ((1,), 1)]), ((3,), [((1,), 1)])])
    zero = TwistedElement.zero(Z1, field)
    a = TwistedMatrix(2, ((u, u), (u, u - TwistedElement.one(Z1, field))))
    b = TwistedMatrix(2, ((v, zero), (-v, v)))
    prod = a @ b
    assert (u * v).singular and v.singular
    assert prod == reference_matmul(a, b)
    assert prod.entries[0][0].is_zero()
    assert prod.entries[1][0] == v
    for row in prod.entries:
        for e in row:
            assert all(part.terms for _, part in e.singular)
            assert e == canonical(e)


class TestKernelSkips:
    """@ sends only live pairs, both sides nonzero, to the kernel."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = twisted._mul_into

        def counting(acc, grp, shape, x, y):
            calls.append((x, y))
            kernel(acc, grp, shape, x, y)

        monkeypatch.setattr(twisted, "_mul_into", counting)
        return calls

    @pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_and_zero_make_no_kernel_call(self, kernel_calls, field, n):
        # a zero operand makes no kernel call; an identity operand's 1s are
        # multiplied like any other side
        rng = random.Random(f"skips|{field.label()}|{n}")
        m = TwistedMatrix(n, tuple(
            tuple(rand_twisted(rng, Z2, field, None, radius=1) for _ in range(n)) for _ in range(n)
        ))
        ident = TwistedMatrix.identity(n, Z2, field)
        zero = TwistedMatrix.diagonal([TwistedElement.zero(Z2, field)] * n)
        products = [(ident, m), (m, ident), (zero, m), (m, zero), (zero, zero), (ident, ident)]
        for a, b in products:
            expected = reference_matmul(a, b)
            kernel_calls.clear()
            assert a @ b == expected
            if zero in (a, b):
                assert kernel_calls == []

    def test_elementary_times_diagonal(self, kernel_calls):
        # (1 w; 0 1)(d0 0; 0 d1) = (d0 w d1; 0 d1): (1, 0) has no live
        # pair, and no pair with a zero side reaches the kernel
        def tw(regular, singular=()):
            return TwistedElement.make(
                gre(F2FREE, F5, None, regular), [(g, gre(F2FREE, F5, None, t)) for g, t in singular]
            )

        # a general element, a monomial and a unipotent 1 + (0, b)
        w = tw([((), 1), ((1,), 2)], [((-2,), [((1, 2), 3)])])
        d0 = tw([((2,), 3)])
        d1 = tw([((), 1)], [((1,), [((-1,), 4)])])
        one, zero = TwistedElement.one(F2FREE, F5), TwistedElement.zero(F2FREE, F5)
        elementary = TwistedMatrix(2, ((one, w), (zero, one)))
        diagonal = TwistedMatrix.diagonal([d0, d1])
        # the other order is (d0 d0 w; 0 d1)
        for a, b in ((elementary, diagonal), (diagonal, elementary)):
            expected = reference_matmul(a, b)
            kernel_calls.clear()
            assert a @ b == expected
            assert kernel_calls and all(not x.is_zero() and not y.is_zero() for x, y in kernel_calls)

    def test_kernel_calls_are_the_live_pairs(self, kernel_calls, monkeypatch):
        # a gen_unit pair: the kernel runs once per (i, j, k) with both
        # self[i][k] and other[k][j] nonzero, and no entry is tested with
        # is_zero(), where a test of every pair would make n^3 calls
        config = SuiteConfig(seed=0, trials=1, group=F2FREE, field=F5, n=30)
        u, v, _ = gen_unit(random.Random("matmul cost"), config, n_factors=6)
        live = Counter(
            (id(x), id(y)) for row in u.entries for col in zip(*v.entries) for x, y in zip(row, col)
            if not x.is_zero() and not y.is_zero()
        )
        tests = []
        is_zero = TwistedElement.is_zero
        monkeypatch.setattr(TwistedElement, "is_zero", lambda x: tests.append(x) or is_zero(x))
        kernel_calls.clear()
        prod = u @ v
        monkeypatch.undo()
        assert Counter((id(x), id(y)) for x, y in kernel_calls) == live and tests == []
        assert prod == reference_matmul(u, v)


# -- deciding a product against 1 on its accumulator --------------------------------

RIGHT_OPERANDS = ["inverse", "coefficient", "singular_term", "zero", "one"]


def right_operand(rng, y, kind):
    """y, y with one coefficient or one singular term changed, zero or 1."""
    group, field, shape = y.group, y.field, y.shape
    if kind == "inverse":
        return y
    if kind == "zero":
        return TwistedElement.zero(group, field, shape)
    if kind == "one":
        return TwistedElement.one(group, field, shape)
    if shape is None:
        c = 1
    else:
        i, j = rng.randrange(shape), rng.randrange(shape)
        c = tuple(tuple(int((a, b) == (i, j)) for b in range(shape)) for a in range(shape))
    sites = group.ball(1)
    if kind == "coefficient":
        h = rng.choice([g for g, _ in y.regular.terms] or sites)
        return y + embed(gre(group, field, shape, [(h, c)]))
    bump = gre(group, field, shape, [(rng.choice(sites), c)])
    return y + TwistedElement.make(GroupRingElement.zero(group, field, shape), [(rng.choice(sites), bump)])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F5, Q]),
    shape=st.sampled_from([None, 2]),
    kind=st.sampled_from(RIGHT_OPERANDS),
    n=st.sampled_from([1, 2, 3]),
)
def test_product_checks_agree_with_built_products(seed, group, field, shape, kind, n):
    # x y is an exact inverse pair from gen_unit, as elements of the given
    # shape; y is kept, perturbed or replaced by 0 or 1.  Every check must
    # give the answer of the product built and then compared
    rng = random.Random(seed)
    config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=shape or 1, max_factors=4)
    unit, inverse, _ = gen_unit(rng, config)
    if shape is None:
        x, y = unit.entries[0][0], inverse.entries[0][0]
    else:
        x, y = f_shuffle_inv(unit), f_shuffle_inv(inverse)
    assert x.product_is_one(y) and (x * y).is_one()
    y = right_operand(rng, y, kind)
    assert x.product_is_one(y) == (x * y).is_one()
    assert y.product_is_one(x) == (y * x).is_one()

    # sums with identity-side pairs: x y + z - z and x y - 1, each on one
    # accumulator, built and decided against 1 and 0
    def accumulated(pairs):
        return twisted._accumulate(group, field, shape, pairs)

    one = TwistedElement.one(group, field, shape)
    z = rand_twisted(rng, group, field, shape, radius=1)
    for pairs in (
        [(x, y), (one, z), (-z, one)], [(x, y), (-one, one)], [(one, z), (one, -z)], [(one, z)], [(one, one)]
    ):
        total = pairs[0][0] * pairs[0][1]
        for a, b in pairs[1:]:
            total = total + a * b
        assert twisted._acc_is(group, field, shape, *accumulated(pairs), True) == total.is_one()
        assert twisted._acc_is(group, field, shape, *accumulated(pairs), False) == total.is_zero()
        assert twisted._built(group, field, shape, *accumulated(pairs)) == total

    # (x w; 0 1)(y -y w; 0 1) is the identity iff x y = 1; entry (0, 1)
    # sums a product with an identity-side pair
    zero = TwistedElement.zero(group, field, shape)
    w = rand_twisted(rng, group, field, shape, radius=1)
    u = TwistedMatrix(2, ((x, w), (zero, one)))
    v = TwistedMatrix(2, ((y, -(y * w)), (zero, one)))
    assert u.product_is_identity(v) == (u @ v).is_identity()
    assert v.product_is_identity(u) == (v @ u).is_identity()

    # gen_unit's own n x n pair, with one entry of the inverse replaced
    config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=4)
    unit, inverse, _ = gen_unit(rng, config)
    assert unit.product_is_identity(inverse) and inverse.product_is_identity(unit)
    i, j = rng.randrange(n), rng.randrange(n)
    entries = [list(row) for row in inverse.entries]
    entries[i][j] = right_operand(rng, entries[i][j], kind)
    changed = TwistedMatrix(n, tuple(tuple(row) for row in entries))
    assert unit.product_is_identity(changed) == (unit @ changed).is_identity()
    assert changed.product_is_identity(unit) == (changed @ unit).is_identity()


# -- the matrix check: one accumulator per entry, each line read once -------------

BIG_P = FieldSpec.fp(2**64 - 59)  # the largest prime below 2^64
PERTURBATIONS = ["coefficient", "singular_term", "zero", "one"]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def rescaled_pair(u, v):
    """D u E and E^-1 v D^-1 for diagonal D, E of rationals with distinct
    prime numerators and denominators, so that the nonzero entries of a
    row or a column of either matrix have pairwise different denominators:
    a line's scale is then none of its entries' scales."""
    n = u.n
    d = [Fraction(PRIMES[i], PRIMES[n + i]) for i in range(n)]
    e = [Fraction(PRIMES[2 * n + k], PRIMES[3 * n + k]) for k in range(n)]
    return (
        TwistedMatrix(n, tuple(tuple(u.entries[i][k].scale(d[i] * e[k]) for k in range(n)) for i in range(n))),
        TwistedMatrix(n, tuple(tuple(v.entries[k][j].scale(1 / (e[k] * d[j])) for j in range(n)) for k in range(n))),
    )


def blocked(m, s):
    """The (n/s) x (n/s) matrix of s x s-shaped entries whose entry (I, J)
    is f_shuffle_inv of the s x s block (I, J) of m: M_{n/s}(M_s(D)) is
    M_n(D), so a unit pair stays a unit pair."""
    k = m.n // s
    return TwistedMatrix(k, tuple(
        tuple(
            f_shuffle_inv(TwistedMatrix(s, tuple(m.entries[I * s + a][J * s: J * s + s] for a in range(s))))
            for J in range(k)
        )
        for I in range(k)
    ))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([Z2, F2FREE]),
    field=st.sampled_from([F2, BIG_P, Q]),
    shape=st.sampled_from([None, 2]),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(PERTURBATIONS),
)
def test_identity_check_is_the_product_compared(seed, group, field, shape, n, kind):
    # a gen_unit pair (over Q rescaled so that no line's scale is an entry's),
    # with scalar entries or as n x n matrices of 2 x 2-shaped entries; then
    # each single entry of the inverse perturbed in turn, so that every
    # position, (n-1, n-1) too, is the one failing entry of some check
    rng = random.Random(seed)
    s = shape or 1
    if shape:
        n = min(n, 2)
    config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n * s, max_factors=4)
    unit, inverse, _ = gen_unit(rng, config)
    if field == Q:
        unit, inverse = rescaled_pair(unit, inverse)
    if shape:
        unit, inverse = blocked(unit, s), blocked(inverse, s)
    assert unit.shape == shape
    assert unit.product_is_identity(inverse) and inverse.product_is_identity(unit)
    assert (unit @ inverse).is_identity() and (inverse @ unit).is_identity()
    for i in range(n):
        for j in range(n):
            entries = [list(row) for row in inverse.entries]
            entries[i][j] = right_operand(rng, entries[i][j], kind)
            changed = TwistedMatrix(n, tuple(map(tuple, entries)))
            assert unit.product_is_identity(changed) == (unit @ changed).is_identity()
            assert changed.product_is_identity(unit) == (changed @ unit).is_identity()


class TestIdentityCheckCosts:
    """What TwistedMatrix.product_is_identity reads and calls."""

    @staticmethod
    def unit_pair(field, n=3):
        config = SuiteConfig(seed=0, trials=1, group=F2FREE, field=field, n=n, max_factors=4)
        return gen_unit(random.Random(f"check costs|{field.label()}"), config)[:2]

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        f = getattr(twisted, name)
        monkeypatch.setattr(twisted, name, lambda *args: calls.append(args) or f(*args))
        return calls

    def test_no_sum_routine_over_fp(self, monkeypatch):
        unit, inverse = self.unit_pair(F5)
        calls = [self.counting(monkeypatch, name) for name in ("_acc_is", "_accumulate", "_mul_into")]
        assert unit.product_is_identity(inverse) and inverse.product_is_identity(unit)
        acc_is, accumulate, kernel = calls
        assert acc_is == accumulate == [] and kernel

    def test_each_entry_scaled_once_over_q(self, monkeypatch):
        # every nonzero entry of both matrices is brought to its line's
        # numerators once per check, however many entries of the product
        # read it; zero entries are kept as they are.  The pair is U L and
        # L^-1 U^-1 for unitriangular U = (1 a b; 0 1 c; 0 0 1) and
        # L = (1 0 0; d 1 0; e f 1), so entries meet several nonzero partners
        rng = random.Random("dense unit over Q")
        one, zero = TwistedElement.one(F2FREE, Q), TwistedElement.zero(F2FREE, Q)
        a, b, c, d, e, f = (rand_twisted(rng, F2FREE, Q, None, radius=1) for _ in range(6))
        upper, upper_inv, lower, lower_inv = (
            TwistedMatrix(3, rows) for rows in (
                ((one, a, b), (zero, one, c), (zero, zero, one)),
                ((one, -a, a * c - b), (zero, one, -c), (zero, zero, one)),
                ((one, zero, zero), (d, one, zero), (e, f, one)),
                ((one, zero, zero), (-d, one, zero), (f * d - e, -f, one)),
            )
        )
        unit, inverse = upper @ lower, lower_inv @ upper_inv
        calls = self.counting(monkeypatch, "_numerators_of")
        for x, y in ((unit, inverse), (inverse, unit)):
            calls.clear()
            assert x.product_is_identity(y)
            lines = (*x.entries, *zip(*y.entries))
            nonzero = sorted(id(z) for line in lines for z in line if not z.is_zero())
            # a route that scaled each pair's sides would make this many reads
            per_pair = sum(
                2 for row in x.entries for col in zip(*y.entries) for p, q in zip(row, col)
                if not p.is_zero() and not q.is_zero()
            )
            assert sorted(id(z) for z, _ in calls) == nonzero and per_pair > len(nonzero)

    def test_failing_first_entry_stops_the_check(self, monkeypatch):
        # column 0 of the inverse doubled: entry (0, 0) of the product is 2,
        # and only the live pairs of row 0 and column 0 reach the kernel
        unit, inverse = self.unit_pair(F5)
        entries = [list(row) for row in inverse.entries]
        for row in entries:
            row[0] = row[0].scale(2)
        changed = TwistedMatrix(3, tuple(map(tuple, entries)))
        kernel = self.counting(monkeypatch, "_mul_into")
        assert not unit.product_is_identity(changed)
        live = [
            (x, y) for x, y in zip(unit.entries[0], (row[0] for row in entries))
            if not x.is_zero() and not y.is_zero()
        ]
        assert live and [(x, y) for _, _, _, x, y in kernel] == live
