"""Products and product checks over Q against the brute-force oracles.

Over Q the library multiplies integer numerators over one scale per
accumulator and divides once per output entry.  Every result here is
compared with tests/oracles.py, which sums Fractions straight from the
defining formulas and shares no code with the library: the values, and
the repr of every entry, so that an entry that comes out as an int where
the oracle has a Fraction fails.  The draws have denominators up to 12,
integer-valued operands (one scale of 1), products that cancel to 0 or to
1, and checks that come out false.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from d1ring.groupring import GroupRingElement
from d1ring import twisted
from d1ring.twisted import TwistedElement, TwistedMatrix

from conftest import F2FREE, Q, Z1, Z2, gre
from oracles import naive_convolve, naive_twisted_mul, o_identity, plain_twisted
from test_twisted import plain_sum

SHAPES = [None, 2]


def fractions(integral: bool):
    if integral:
        return st.integers(-4, 4).map(Fraction)
    return st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def coefficients(draw, shape, integral=False):
    if shape is None:
        return draw(fractions(integral))
    return tuple(tuple(draw(fractions(integral)) for _ in range(shape)) for _ in range(shape))


@st.composite
def group_ring_elements(draw, group, shape, integral=False):
    sites = group.ball(1)
    terms = draw(st.lists(st.tuples(st.sampled_from(sites), coefficients(shape, integral)), max_size=3))
    return gre(group, Q, shape, terms)


@st.composite
def twisted_elements(draw, group, shape, integral=False):
    regular = draw(group_ring_elements(group, shape, integral))
    singular = draw(st.lists(
        st.tuples(st.sampled_from(group.ball(1)), group_ring_elements(group, shape, integral)), max_size=2
    ))
    return TwistedElement.make(regular, singular)


@st.composite
def unit_pairs(draw, group, shape):
    """(u, v) with u v = v u = 1: u = 1 + b at one singular site g whose
    terms t != e are such that g t is no singular site, and v = 1 - b."""
    one = TwistedElement.one(group, Q, shape)
    g = draw(st.sampled_from(group.ball(1)))
    off = [t for t in group.ball(1) if t != group.identity]
    terms = draw(st.lists(st.tuples(st.sampled_from(off), coefficients(shape)), min_size=1, max_size=3))
    b = gre(group, Q, shape, terms)
    u = TwistedElement.make(one.regular, [(g, b)])
    v = TwistedElement.make(one.regular, [(g, -b)])
    return u, v


@st.composite
def cases(draw):
    group = draw(st.sampled_from([Z1, Z2, F2FREE]))
    shape = draw(st.sampled_from(SHAPES))
    return group, shape


def from_plain(group, shape, plain):
    """The element of the oracle's (regular, singular) dicts."""
    reg, sing = plain
    return TwistedElement.make(
        gre(group, Q, shape, reg.items()), [(g, gre(group, Q, shape, part.items())) for g, part in sing.items()]
    )


def reprs(plain):
    """The repr of every entry of (regular, singular) dicts."""
    reg, sing = plain
    return {g: repr(c) for g, c in reg.items()}, {g: {h: repr(c) for h, c in p.items()} for g, p in sing.items()}


def oracle_product(x, y):
    return naive_twisted_mul(x.group.kind, None, plain_twisted(x), plain_twisted(y))


def oracle_sum(pairs):
    total = ({}, {})
    for x, y in pairs:
        total = plain_sum(None, total, oracle_product(x, y))
    return total


def oracle_one(group, shape):
    one = Fraction(1) if shape is None else tuple(
        tuple(Fraction(int(i == j)) for j in range(shape)) for i in range(shape)
    )
    return {o_identity(group.kind, group.dim): one}, {}


def accumulated(group, shape, pairs):
    """The raw accumulator of the sum of the products over the pairs, with
    its scale, as _built and _acc_is take it."""
    return twisted._accumulate(group, Q, shape, pairs)


def assert_is_oracle(element, plain):
    assert plain_twisted(element) == plain
    assert reprs(plain_twisted(element)) == reprs(plain)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), case=cases(), integral=st.booleans())
def test_twisted_products_match_the_oracle(data, case, integral):
    group, shape = case
    x = data.draw(twisted_elements(group, shape, integral))
    y = data.draw(twisted_elements(group, shape, integral or data.draw(st.booleans())))
    expected = oracle_product(x, y)
    assert_is_oracle(x * y, expected)
    assert x.product_is_one(y) == (expected == oracle_one(group, shape))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), case=cases())
def test_products_that_cancel_to_one_or_zero(data, case):
    group, shape = case
    u, v = data.draw(unit_pairs(group, shape))
    one = oracle_one(group, shape)
    assert oracle_product(u, v) == one and oracle_product(v, u) == one
    assert_is_oracle(u * v, one)
    assert u.product_is_one(v) and v.product_is_one(u)
    # a perturbed inverse, by a term with a denominator of 12 at the
    # identity or at a singular site: the check comes out false
    h = data.draw(st.sampled_from(group.ball(1)))
    bump = gre(group, Q, shape, [(h, data.draw(coefficients(shape)))])
    where = data.draw(st.sampled_from(["regular", "singular"]))
    w = v + (TwistedElement(bump, ()) if where == "regular" else TwistedElement.make(
        GroupRingElement.zero(group, Q, shape), [(h, bump)]
    ))
    expected = oracle_product(u, w)
    assert_is_oracle(u * w, expected)
    assert u.product_is_one(w) == (expected == one)
    # cancellation to 0: a sum of a product and its negative, and scalar
    # or matrix units whose product vanishes
    assert_is_oracle(twisted._built(group, Q, shape, *accumulated(group, shape, [(u, w), (-u, w)])), ({}, {}))
    assert twisted._acc_is(group, Q, shape, *accumulated(group, shape, [(u, w), (-u, w)]), False)
    if shape is not None:
        c = data.draw(fractions(False).filter(bool))
        e12 = tuple(tuple(c * (i == 0 and j == 1) for j in range(shape)) for i in range(shape))
        x = TwistedElement(gre(group, Q, shape, [(h, e12)]), ())
        assert_is_oracle(x * x, oracle_product(x, x))
        assert (x * x).is_zero() and not x.product_is_one(x)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), case=cases())
def test_sums_of_products_match_the_oracle(data, case):
    # pairs of different scales, identity-side pairs among them, summed on
    # one accumulator, built and decided against 1 and 0
    group, shape = case
    one = TwistedElement.one(group, Q, shape)
    k = data.draw(st.integers(1, 3))
    pairs = []
    for _ in range(k):
        integral = data.draw(st.booleans())
        x = data.draw(twisted_elements(group, shape, integral))
        y = data.draw(st.sampled_from([one, data.draw(twisted_elements(group, shape, integral))]))
        pairs.append(data.draw(st.sampled_from([(x, y), (y, x)])))
    expected = oracle_sum(pairs)
    assert_is_oracle(twisted._built(group, Q, shape, *accumulated(group, shape, pairs)), expected)
    assert twisted._acc_is(group, Q, shape, *accumulated(group, shape, pairs), True) == (expected == oracle_one(group, shape))
    assert twisted._acc_is(group, Q, shape, *accumulated(group, shape, pairs), False) == (expected == ({}, {}))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=cases(), perturb=st.booleans())
def test_matrix_products_and_identity_checks_match_the_oracle(data, case, perturb):
    # (u w; 0 1)(v -(v w); 0 1) is the identity both ways when u v = v u = 1;
    # v w comes from the oracle, so the right factor is built without the
    # product under test.  Perturbing an entry of the right factor makes
    # the checks false
    group, shape = case
    u, v = data.draw(unit_pairs(group, shape))
    w = data.draw(twisted_elements(group, shape))
    zero, one = TwistedElement.zero(group, Q, shape), TwistedElement.one(group, Q, shape)
    a = TwistedMatrix(2, ((u, w), (zero, one)))
    b01 = -from_plain(group, shape, oracle_product(v, w))
    if perturb:
        b01 = b01 + TwistedElement(gre(group, Q, shape, [(group.identity, data.draw(coefficients(shape)))]), ())
    b = TwistedMatrix(2, ((v, b01), (zero, one)))
    for left, right in ((a, b), (b, a)):
        prod = left @ right
        expected = [
            [oracle_sum([(left.entries[i][r], right.entries[r][j]) for r in range(2)]) for j in range(2)]
            for i in range(2)
        ]
        for i in range(2):
            for j in range(2):
                assert_is_oracle(prod.entries[i][j], expected[i][j])
        identity = all(
            expected[i][j] == (oracle_one(group, shape) if i == j else ({}, {})) for i in range(2) for j in range(2)
        )
        assert left.product_is_identity(right) == identity
    if not perturb:
        assert a.product_is_identity(b) and b.product_is_identity(a)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), case=cases(), integral=st.booleans())
def test_group_ring_products_match_the_oracle(data, case, integral):
    # the check of a^-1 a: monomial units c g and c^-1 g^-1 multiply to 1,
    # and a perturbed inverse does not
    group, shape = case
    a = data.draw(group_ring_elements(group, shape, integral))
    b = data.draw(group_ring_elements(group, shape, integral or data.draw(st.booleans())))
    e = o_identity(group.kind, group.dim)
    one = oracle_one(group, shape)[0]
    expected = naive_convolve(group.kind, None, dict(a.terms), dict(b.terms))
    prod = a * b
    assert dict(prod.terms) == expected
    assert {g: repr(c) for g, c in prod.terms} == {g: repr(c) for g, c in expected.items()}
    assert a.product_is_one(b) == (expected == one)

    g = data.draw(st.sampled_from(group.ball(1)))
    c = data.draw(fractions(integral).filter(bool))
    if shape is None:
        c_inv = 1 / c
    else:
        d = data.draw(fractions(integral).filter(bool))

        def diag(x, y):
            return tuple(tuple(x if i == j == 0 else y if i == j else 0 for j in range(shape)) for i in range(shape))

        c, c_inv = diag(c, d), diag(1 / c, 1 / d)
    unit = gre(group, Q, shape, [(g, c)])
    inverse = gre(group, Q, shape, [(group.inverse(g), c_inv)])
    for x, y in ((unit, inverse), (inverse, unit)):
        assert naive_convolve(group.kind, None, dict(x.terms), dict(y.terms)) == one
        assert x.product_is_one(y)
        assert {h: repr(c) for h, c in (x * y).terms} == {h: repr(c) for h, c in one.items()}
    bumped = inverse + gre(group, Q, shape, [(e, data.draw(coefficients(shape)))])
    expected = naive_convolve(group.kind, None, dict(unit.terms), dict(bumped.terms))
    assert unit.product_is_one(bumped) == (expected == one)
    assert dict((unit * bumped).terms) == expected
