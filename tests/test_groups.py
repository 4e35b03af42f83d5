import copy
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from d1ring.errors import FormatError, UsageError
from d1ring.groups import MAX_BALL_SIZE, FiniteSubset, GroupSpec, reduce_word

from conftest import F2FREE, Z1, Z2


def w(*letters):
    return tuple(letters)


class TestCompose:
    def test_z2_componentwise(self):
        assert Z2.compose((1, 2), (3, -1)) == (4, 1)

    def test_free_cancellation(self):
        # "ab" * "Ba" -> "aa"
        assert F2FREE.compose(w(1, 2), w(-2, 1)) == w(1, 1)

    def test_identity_law(self):
        for grp, g in [(Z2, (3, -4)), (F2FREE, w(1, -2, 1))]:
            assert grp.compose(g, grp.identity) == g
            assert grp.compose(grp.identity, g) == g


class TestUnrolledSiteFunctions:
    """Z^d with d <= 12 carries compose, inverse and norm unrolled over its
    coordinates; they agree with the class methods, which larger d use."""

    @pytest.mark.parametrize("d", range(1, 14))
    def test_agree_with_the_class_methods(self, d):
        grp = GroupSpec.zd(d)
        assert ("compose" in vars(grp)) == (d <= 12)
        rng = random.Random(d)
        # each coordinate in turn carries the largest value, of either sign
        sites = [tuple(s * 9 if j == i else -j % 5 for j in range(d)) for i in range(d) for s in (1, -1)]
        sites += [tuple(rng.randint(-(2**70), 2**70) for _ in range(d)) for _ in range(20)]
        for g, h in zip(sites, sites[1:] + sites[:1]):
            assert grp.compose(g, h) == GroupSpec.compose(grp, g, h)
            assert grp.inverse(g) == GroupSpec.inverse(grp, g)
            assert grp.norm(g) == GroupSpec.norm(grp, g)
            assert type(grp.compose(g, h)) is tuple and type(grp.inverse(g)) is tuple

    def test_made_once_per_dimension(self):
        assert GroupSpec.zd(3).compose is GroupSpec("Zd", 3).compose
        assert GroupSpec.zd(3).compose is not GroupSpec.zd(4).compose
        assert "compose" not in vars(F2FREE)

    def test_a_huge_dimension_constructs_at_once(self):
        start = time.monotonic()
        big = GroupSpec.zd(10**8)
        assert GroupSpec.from_label("Zd:100000000") == big
        assert time.monotonic() - start < 1
        assert "compose" not in vars(big)

    @pytest.mark.parametrize("grp", [Z1, Z2, GroupSpec.zd(13), F2FREE], ids=lambda g: g.label())
    def test_value_semantics_are_the_fields(self, grp):
        kind, dim = grp.kind, grp.dim
        assert repr(grp) == f"GroupSpec(kind={kind!r}, dim={dim})"
        assert grp == GroupSpec(kind, dim) and hash(grp) == hash((kind, dim))
        e = grp.identity
        for other in (pickle.loads(pickle.dumps(grp)), copy.copy(grp), copy.deepcopy(grp)):
            assert other == grp and hash(other) == hash(grp)
            assert vars(other).keys() == vars(grp).keys()
            assert other.compose(e, e) == e and other.norm(e) == 0


class TestInverse:
    def test_z1(self):
        assert Z1.inverse((3,)) == (-3,)

    def test_free_reverse_flip(self):
        # "aB" -> "bA"
        assert F2FREE.inverse(w(1, -2)) == w(2, -1)

    def test_identity(self):
        for grp in (Z1, Z2, F2FREE):
            assert grp.inverse(grp.identity) == grp.identity

    def test_round_trip(self):
        for grp, g in [(Z2, (5, -1)), (F2FREE, w(1, 2, -1))]:
            assert grp.compose(g, grp.inverse(g)) == grp.identity


class TestProductSet:
    def test_interval_sum(self):
        e = FiniteSubset.make(Z1, [(0,), (1,)])
        assert e.product(e).elements == ((0,), (1,), (2,))

    def test_identity_neutral(self):
        e = FiniteSubset.make(Z2, [(0, 0), (1, -1), (2, 3)])
        ident = FiniteSubset.make(Z2, [Z2.identity])
        assert e.product(ident) == e

    def test_free_with_cancellation(self):
        e = FiniteSubset.make(F2FREE, [w(1), w(2)])
        f = FiniteSubset.make(F2FREE, [w(-1)])
        assert e.product(f).elements == ((), w(2, -1))


class TestCanonicalOrder:
    def test_zd_lex(self):
        assert Z2.key((0, 1)) < Z2.key((1, 0))

    def test_shortlex_length_first(self):
        assert F2FREE.key(w(1)) < F2FREE.key(w(1, 2))

    def test_reflexive(self):
        assert Z1.key((4,)) == Z1.key((4,))

    def test_generator_order(self):
        # a < a^-1 < b < b^-1
        elems = [w(2), w(-1), w(1), w(-2)]
        assert F2FREE.sort(elems) == (w(1), w(-1), w(2), w(-2))


class TestBalls:
    def test_z1_box(self):
        assert FiniteSubset.ball(Z1, 2).elements == ((-2,), (-1,), (0,), (1,), (2,))

    def test_free_sizes(self):
        assert len(FiniteSubset.ball(F2FREE, 0)) == 1
        assert len(FiniteSubset.ball(F2FREE, 1)) == 5
        assert len(FiniteSubset.ball(F2FREE, 2)) == 17

    def test_all_reduced(self):
        for g in FiniteSubset.ball(F2FREE, 3):
            F2FREE.check(g)

    @pytest.mark.parametrize(
        "group",
        [Z1, Z2, GroupSpec.zd(3), GroupSpec.free(1), F2FREE, GroupSpec.free(3)],
        ids=lambda g: g.label(),
    )
    def test_size_closed_form(self, group):
        for r in range(4):
            assert group.ball_size(r) == len(group.ball(r))

    def test_oversized_ball_refused(self):
        free26 = GroupSpec.free(26)
        assert free26.ball_size(3) == 137_957 <= MAX_BALL_SIZE < free26.ball_size(4)
        with pytest.raises(UsageError, match=r"has 7035809 elements; the limit is 1000000$"):
            free26.ball(4)
        # a count past 10^30 is not computed (3^r at r = 10^7 takes seconds)
        with pytest.raises(UsageError, match=r"has more than 10\^30 elements; the limit is 1000000$"):
            GroupSpec.free(2).ball(10**7)

    @pytest.mark.parametrize("label", ["Zd:1", "Zd:3", "free:1", "free:2", "free:26"])
    def test_capped_size(self, label):
        group = GroupSpec.from_label(label)
        for r in range(6):
            size = group.ball_size(r)
            assert group.ball_size(r, size) == size
            assert group.ball_size(r, size - 1) is None
        assert group.ball_size(10**7, MAX_BALL_SIZE) is None

    @pytest.mark.parametrize("radius", [True, 2.0, "a"], ids=repr)
    def test_radius_must_be_an_int(self, radius):
        with pytest.raises(UsageError, match="radius must be an int"):
            Z1.ball_size(radius)
        with pytest.raises(UsageError, match="radius must be an int"):
            Z1.ball(radius)
        with pytest.raises(UsageError, match="radius must be an int"):
            FiniteSubset.ball(Z1, radius)


class TestValidation:
    def test_unreduced_word_rejected(self):
        with pytest.raises(UsageError):
            F2FREE.check(w(1, -1))

    def test_wrong_length_vector(self):
        with pytest.raises(UsageError):
            Z2.check((1,))

    def test_rank_cap(self):
        with pytest.raises(UsageError):
            GroupSpec.free(27)

    @pytest.mark.parametrize("build", [GroupSpec.zd, GroupSpec.free], ids=["zd", "free"])
    @pytest.mark.parametrize("dim", [True, 2.0], ids=repr)
    def test_dimension_must_be_an_int(self, build, dim):
        # Zd:True labels no group that from_label reads, and Zd:2.0 cannot
        # make its identity
        with pytest.raises(UsageError, match="dimension/rank must be an int"):
            build(dim)

    @pytest.mark.parametrize("g", [(True, 0), (0, False), (1, True)])
    def test_boolean_coordinate_rejected(self, g):
        # isinstance(True, int) holds, but parse_element refuses true/false
        with pytest.raises(UsageError, match="integer vector"):
            Z2.check(g)

    @pytest.mark.parametrize("g", [(True,), (2, True), (-2, False)])
    def test_boolean_letter_rejected(self, g):
        with pytest.raises(UsageError, match="out of range"):
            F2FREE.check(g)


class TestSerialization:
    def test_zd_round_trip(self):
        assert Z2.encode_element((1, -2)) == [1, -2]
        assert Z2.parse_element([1, -2]) == ((1, -2), False)

    def test_free_round_trip(self):
        g = w(1, -2, 1)
        assert F2FREE.encode_element(g) == "aBa"
        assert F2FREE.parse_element("aBa") == (g, False)

    def test_unreduced_input_repaired(self):
        g, repaired = F2FREE.parse_element("aAb")
        assert g == w(2)
        assert repaired

    @pytest.mark.parametrize("label", ["Zd:1", "Zd:12", "free:2", "free:26"])
    def test_label_round_trip(self, label):
        assert GroupSpec.from_label(label).label() == label

    def test_a_label_gives_one_group(self, cold_caches):
        # every read of a label returns the same object; a refused label is
        # refused with the same message on every read
        for label in ("Zd:2", "free:2"):
            assert GroupSpec.from_label(label) is GroupSpec.from_label(label)
        refusals = {
            "Zd:0": "bad group label 'Zd:0': group dimension/rank must be >= 1",
            "Zd:01": "bad group label 'Zd:01': '01' is not a canonical integer",
            "free:27": "bad group label 'free:27': free rank capped at 26",
            "zd:1": "bad group label 'zd:1': unknown group kind 'zd'",
            5: "bad group label 5: expected a string",
        }
        for label, message in refusals.items():
            for _ in range(2):
                with pytest.raises(FormatError) as refusal:
                    GroupSpec.from_label(label)
                assert str(refusal.value) == message

    @pytest.mark.parametrize(
        "label",
        ["Zd:1_0", "Zd:01", "Zd:+1", "Zd: 1", "Zd:1\n", "Zd:\u0661", "free:\uff12", "zd:1",
         "Zd:0", "Zd:-1", "free:27", "Zd", "Zd:1:2", True, None, ["Zd", 1]],
    )
    def test_non_canonical_labels_refused(self, label):
        # once "Zd:1_0" read as Zd:10 and "Zd:\u0661" (an Arabic-Indic one) as Zd:1
        with pytest.raises(FormatError, match="bad group label"):
            GroupSpec.from_label(label)


# -- property tests ------------------------------------------------------------

zd_elements = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
free_elements = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6
).map(reduce_word)


@given(zd_elements, zd_elements, zd_elements)
def test_zd_associativity(g, h, t):
    assert Z2.compose(Z2.compose(g, h), t) == Z2.compose(g, Z2.compose(h, t))


@given(free_elements, free_elements, free_elements)
def test_free_associativity(g, h, t):
    assert F2FREE.compose(F2FREE.compose(g, h), t) == F2FREE.compose(g, F2FREE.compose(h, t))


@given(free_elements)
def test_reduction_idempotent(g):
    assert reduce_word(g) == g


@given(free_elements, free_elements)
def test_free_inverse_law(g, h):
    gh = F2FREE.compose(g, h)
    assert F2FREE.inverse(gh) == F2FREE.compose(F2FREE.inverse(h), F2FREE.inverse(g))


@given(st.lists(free_elements, max_size=4), st.lists(free_elements, max_size=4),
       st.lists(free_elements, max_size=4))
def test_product_set_associative(a, b, c):
    ea = FiniteSubset.make(F2FREE, a or [()])
    eb = FiniteSubset.make(F2FREE, b or [()])
    ec = FiniteSubset.make(F2FREE, c or [()])
    assert ea.product(eb).product(ec) == ea.product(eb.product(ec))


@given(free_elements, free_elements, free_elements)
def test_cmp_total_order(g, h, t):
    key = F2FREE.key
    # trichotomy, with equal keys only for equal words
    assert sum([key(g) == key(h), key(g) < key(h), key(g) > key(h)]) == 1
    assert (key(g) == key(h)) == (g == h)
    # transitivity
    if key(g) <= key(h) and key(h) <= key(t):
        assert key(g) <= key(t)


@st.composite
def free_word_pairs(draw):
    """(group, g, h) for reduced words g, h of free:1 to free:3 of length
    at most 6; h is often made to cancel into g: g^-1, a cancelling
    suffix of g with more letters, or the empty word."""
    grp = GroupSpec.free(draw(st.integers(1, 3)))
    words = st.lists(
        st.sampled_from([c for i in range(1, grp.dim + 1) for c in (i, -i)]), max_size=6
    ).map(reduce_word)
    g = draw(words)
    kind = draw(st.sampled_from(["any", "inverse", "partial", "empty"]))
    if kind == "inverse":
        h = grp.inverse(g)
    elif kind == "partial":
        cut = draw(st.integers(0, len(g)))
        h = reduce_word(grp.inverse(g[cut:]) + draw(words))[:6]
    elif kind == "empty":
        h = ()
    else:
        h = draw(words)
    return (grp, h, g) if draw(st.booleans()) else (grp, g, h)


@given(free_word_pairs())
def test_free_compose_is_the_reduced_concatenation(case):
    grp, g, h = case
    assert grp.compose(g, h) == reduce_word(g + h)


@given(free_word_pairs())
def test_free_key_is_shortlex_on_letter_ranks(case):
    grp, g, _ = case

    def letter_key(c):  # a < a^-1 < b < b^-1 < ...
        return 2 * abs(c) - (2 if c > 0 else 1)

    assert grp.key(g) == (len(g), tuple(letter_key(c) for c in g))


def test_free_key_covers_every_letter():
    grp = GroupSpec.free(26)
    letters = [c for i in range(1, 27) for c in (i, -i)]
    assert [grp.key((c,)) for c in letters] == [(1, (r,)) for r in range(52)]
