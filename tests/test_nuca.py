import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from d1ring.errors import UsageError
from d1ring.exactalg import Matrix, _integer_rows
from d1ring.experiments import rand_groupring, rand_twisted
from d1ring.groups import FiniteSubset, GroupSpec
from d1ring import nuca
from d1ring.invert import SearchBudget, stable_injectivity_verdict
from d1ring.nuca import Configuration, Nuca, basis_configuration
from d1ring.twisted import TwistedElement

from conftest import (
    F2,
    F2FREE,
    F3,
    F5,
    GROUPS,
    Q,
    Z1,
    Z2,
    f3_example_nuca,
    f3_nuca_pair,
    gre,
)
from oracles import field_modulus, naive_apply_at, plain_twisted


def rand_nuca(rng, group, field, n, radius=1, max_sites=2):
    return Nuca(rand_twisted(rng, group, field, n, radius, max_sites=max_sites))


def rand_config(rng, group, field, n, radius=1, max_dev=3, with_base=True):
    pool = group.ball(radius)
    base = [
        (rng.randrange(field.p) if field.kind == "Fp" else rng.randint(-2, 2))
        if with_base
        else 0
        for _ in range(n)
    ]
    dev = []
    for _ in range(rng.randint(0, max_dev)):
        vec = [
            rng.randrange(field.p) if field.kind == "Fp" else rng.randint(-2, 2)
            for _ in range(n)
        ]
        dev.append((rng.choice(pool), vec))
    return Configuration.make(group, field, n, base, dev)


def assert_apply_matches_oracle(t, x, extra_sites=()):
    """Compare apply() against the independent windowed evaluator on every
    site where either side could be nonzero, plus a margin."""
    y = t.apply(x)
    omega = plain_twisted(t.element)
    p = field_modulus(t.field)
    sites = set(extra_sites)
    sites.update(g for g, _ in y.deviation)
    sites.update(t.exceptional_set)
    for u, _ in x.deviation:
        for h in t.memory:
            sites.add(t.group.compose(u, t.group.inverse(h)))
    dev = {g: v for g, v in x.deviation}
    for g in sites:
        assert y.value_at(g) == naive_apply_at(
            t.group.kind, p, omega, x.base, dev, g
        ), f"mismatch at {g}"


class TestApply:
    def test_zero_map(self):
        t = Nuca.zero(Z1, F3, 1)
        x = Configuration.make(Z1, F3, 1, [2], [((0,), [1])])
        assert t.apply(x).is_zero()

    def test_exceptional_example_deviation(self):
        t = f3_example_nuca()
        x = Configuration.make(Z1, F3, 1, [0], [((0,), [1])])
        y = t.apply(x)
        assert y.base == (0,)
        assert y.deviation == (((-1,), (1,)), ((0,), (2,)))
        assert_apply_matches_oracle(t, x)

    def test_exceptional_example_base(self):
        t = f3_example_nuca()
        x = Configuration.make(Z1, F3, 1, [1], [])
        y = t.apply(x)
        assert y.base == (2,)
        assert y.deviation == (((0,), (1,)),)
        assert_apply_matches_oracle(t, x)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    @pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
    def test_matches_oracle(self, group, field):
        rng = random.Random(f"{group.label()}|{field.label()}|apply")
        for _ in range(25):
            t = rand_nuca(rng, group, field, rng.choice([1, 2]))
            x = rand_config(rng, group, field, t.n)
            margin = group.ball(1)
            assert_apply_matches_oracle(t, x, extra_sites=margin)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    @pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
    def test_result_is_canonical(self, group, field):
        """apply builds its result directly; it is the configuration that
        Configuration.make builds from the same base and deviation."""
        rng = random.Random(f"{group.label()}|{field.label()}|apply canonical")
        for _ in range(25):
            t = rand_nuca(rng, group, field, rng.choice([1, 2]))
            y = t.apply(rand_config(rng, group, field, t.n))
            assert y == Configuration.make(group, field, t.n, y.base, y.deviation)

    def test_linearity(self, rng):
        for _ in range(25):
            t = rand_nuca(rng, Z2, F5, 2)
            x = rand_config(rng, Z2, F5, 2)
            y = rand_config(rng, Z2, F5, 2)
            a, b = rng.randrange(5), rng.randrange(5)
            lhs = t.apply(x.scale(a) + y.scale(b))
            rhs = t.apply(x).scale(a) + t.apply(y).scale(b)
            assert lhs == rhs

    def test_incompatible_config(self):
        t = f3_example_nuca()
        x = Configuration.make(Z1, F5, 1, [0], [])
        with pytest.raises(UsageError):
            t.apply(x)


@pytest.mark.parametrize(
    "n,message", [(True, "n must be an int"), (1.0, "n must be an int"), (0, "n must be >= 1")], ids=repr
)
def test_configuration_size_must_be_a_positive_int(n, message):
    # the header "n": true (or 0) is refused by parse_envelope, so such a
    # configuration could not be read back
    with pytest.raises(UsageError, match=message):
        Configuration.make(Z1, F5, n, (1,))


@pytest.mark.parametrize("n", [True, 1.0], ids=repr)
def test_nuca_size_must_be_an_int(n):
    with pytest.raises(UsageError, match="coefficient shape n must be an int"):
        Nuca.identity(Z1, F5, n)


@pytest.mark.parametrize("element", [1, None, Z1], ids=repr)
def test_nuca_needs_a_twisted_element(element):
    with pytest.raises(UsageError, match="twisted element"):
        Nuca(element)


def many_exceptional_sites(rng, field, radius=8, group=Z2):
    """A map with n = 2 and a nonzero singular part at every site of
    ball(radius) (289 sites at radius 8 on Z^2)."""
    parts = []
    for g in group.ball(radius):
        part = rand_groupring(rng, group, field, 2, 1, max_terms=2)
        while part.is_zero():
            part = rand_groupring(rng, group, field, 2, 1, max_terms=2)
        parts.append((g, part))
    return Nuca(TwistedElement.make(rand_groupring(rng, group, field, 2, 1), parts))


class TestManyExceptionalSites:
    """apply and rule_at look each site's singular part up in a dict, so
    their work grows linearly in |E|; the answers are the oracle's."""

    @pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
    def test_apply_matches_oracle(self, field):
        rng = random.Random(f"{field.label()}|many exceptional sites")
        t = many_exceptional_sites(rng, field)
        assert len(t.exceptional_set) >= 200
        for _ in range(3):
            x = rand_config(rng, Z2, field, 2, radius=10, max_dev=6)
            assert_apply_matches_oracle(t, x, extra_sites=Z2.ball(10))

    @pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
    def test_apply_checks_no_site(self, field, monkeypatch):
        """apply composes its output sites from validated elements and
        reduces each entry once, so it builds its result without
        Configuration.make, and no GroupSpec.check runs; the result is
        still the canonical configuration make would build."""
        rng = random.Random(f"{field.label()}|many exceptional sites|checks")
        t = many_exceptional_sites(rng, field)
        x = rand_config(rng, Z2, field, 2, radius=10, max_dev=6)
        checked = []
        check = GroupSpec.check
        monkeypatch.setattr(GroupSpec, "check", lambda grp, g: checked.append(g) or check(grp, g))
        y = t.apply(x)
        assert checked == []
        monkeypatch.undo()
        assert y == Configuration.make(Z2, field, 2, y.base, y.deviation)
        assert_apply_matches_oracle(t, x, extra_sites=Z2.ball(10))

    @pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
    @pytest.mark.parametrize("group, radius", [(Z2, 8), (F2FREE, 3)], ids=["Zd:2", "free:2"])
    def test_rule_at_is_regular_plus_singular_part(self, group, radius, field):
        # rule_at reads the rule table, so this check sums the terms itself
        rng = random.Random(f"{group.label()}|{field.label()}|many exceptional sites|rules")
        t = many_exceptional_sites(rng, field, radius, group)
        reg = t.element.regular
        for g in group.ball(radius + 1):
            part = t.element.singular_part(g)
            expected = tuple(
                tuple(
                    tuple(field.coerce(a + b) for a, b in zip(ra, rb))
                    for ra, rb in zip(reg.coefficient(h), part.coefficient(h))
                )
                for h in t.memory
            )
            assert t.rule_at(g).blocks == expected


class TestLazySets:
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    def test_sets_are_the_elements(self, group):
        rng = random.Random(f"{group.label()}|lazy sets")
        for _ in range(20):
            t = rand_nuca(rng, group, F5, rng.choice([1, 2]))
            assert t.memory == t.element.memory()
            assert t.exceptional_set == t.element.singular_support()
            assert t.memory is t.memory and t.exceptional_set is t.exceptional_set

    def test_made_only_when_read(self, monkeypatch):
        u, v = f3_nuca_pair()

        def refuse(self):
            pytest.fail("made a site set")

        monkeypatch.setattr(TwistedElement, "memory", refuse)
        monkeypatch.setattr(TwistedElement, "singular_support", refuse)
        w = Nuca(v.element).compose(u)
        assert w == Nuca.identity(Z1, F3, 1)
        assert hash(w) == hash(w.element)

    def test_eq_and_hash_follow_the_element(self):
        u, v = f3_nuca_pair()
        same = Nuca(u.element)
        assert len(u.memory) == 2  # one side's slots filled, the other's not
        assert u == same and hash(u) == hash(same) == hash(u.element)
        assert u != v and u != u.element

    def test_unknown_attribute_raises(self):
        t = Nuca.identity(Z1, F3, 1)
        with pytest.raises(AttributeError, match="no_such"):
            t.no_such


class TestCompose:
    def test_identity_neutral(self, rng):
        t = rand_nuca(rng, Z1, F3, 2)
        ident = Nuca.identity(Z1, F3, 2)
        assert t.compose(ident) == t
        assert ident.compose(t) == t

    def test_shift_monomials(self):
        shift = Nuca(TwistedElement.make(gre(Z1, F2, 1, [((1,), ((1,),))]), []))
        composed = shift.compose(shift)
        assert composed.element.regular.terms == (((2,), ((1,),)),)

    def test_f3_pair_compose_is_identity(self, rng):
        u, v = f3_nuca_pair()
        assert v.compose(u) == Nuca.identity(Z1, F3, 1)
        for _ in range(50):
            x = rand_config(rng, Z1, F3, 1, radius=2)
            assert v.apply(u.apply(x)) == x

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    def test_transport(self, group):
        # ring product realizes map composition, exactly
        rng = random.Random(f"{group.label()}|transport")
        for _ in range(20):
            n = rng.choice([1, 2])
            t1 = rand_nuca(rng, group, F5, n)
            t2 = rand_nuca(rng, group, F5, n)
            x = rand_config(rng, group, F5, n)
            assert t1.compose(t2).apply(x) == t1.apply(t2.apply(x))


class TestLocalRules:
    def test_f3_construction(self):
        # constant rule w(0) + w(1), and 2 w(0) + w(1) at site 0
        t = f3_example_nuca()
        for g in [(-3,), (0,), (1,), (4,)]:
            rule = t.rule_at(g)
            a = 2 if g == (0,) else 1
            assert rule.memory.elements == ((0,), (1,))
            assert rule.blocks == (((a,),), ((1,),))

    def test_agrees_with_direct_rule_evaluation(self, rng):
        for _ in range(15):
            t = rand_nuca(rng, Z1, F5, 2)
            x = rand_config(rng, Z1, F5, 2)
            y = t.apply(x)
            sites = set(t.exceptional_set)
            for u, _ in x.deviation:
                for h in t.memory:
                    sites.add(Z1.compose(u, Z1.inverse(h)))
            for g in sites:
                rule = t.rule_at(g)
                pattern_values = [x.value_at(Z1.compose(g, h)) for h in t.memory]
                acc = tuple(
                    sum(
                        (b[i][j] * v[j]) % 5
                        for b, v in zip(rule.blocks, pattern_values)
                        for j in range(2)
                    )
                    % 5
                    for i in range(2)
                )
                assert y.value_at(g) == acc


class TestInducedLocalMap:
    @pytest.mark.parametrize("op", ["local_map", "kernel_tower"])
    def test_zero_map_builds_no_n_by_n_block(self, op):
        # the zero map has no memory site, so no rule block is needed; an
        # n x n zero block at n = 5,000 alone would take about 200 MB
        from d1ring.invert import kernel_tower

        t = Nuca.zero(Z1, F2, 5000)
        tracemalloc.start()
        try:
            if op == "local_map":
                t.induced_local_map(FiniteSubset.make(Z1, [(0,)]))
            else:
                kernel_tower(t, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_constant_rule_window_one(self):
        t = Nuca(TwistedElement.make(gre(Z1, F2, 1, [((0,), ((1,),)), ((1,), ((1,),))]), []))
        local = t.induced_local_map(FiniteSubset.make(Z1, [(0,)]))
        assert local.matrix == Matrix.from_rows(F2, [[1, 1]])

    def test_identity_selection(self):
        t = Nuca.identity(Z2, F5, 2)
        window = FiniteSubset.make(Z2, [(0, 0), (1, 1)])
        local = t.induced_local_map(window)
        assert local.domain_set == window
        assert local.matrix == Matrix.identity(F5, 4)

    def test_f3_exceptional_window(self):
        t = f3_example_nuca()
        local = t.induced_local_map(FiniteSubset.make(Z1, [(0,), (1,)]))
        assert local.domain_set.elements == ((0,), (1,), (2,))
        assert local.matrix == Matrix.from_rows(F3, [[2, 1, 0], [0, 1, 1]])

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    def test_consistency_with_apply(self, group):
        rng = random.Random(f"{group.label()}|induced")
        for _ in range(15):
            n = rng.choice([1, 2])
            t = rand_nuca(rng, group, F3, n)
            x = rand_config(rng, group, F3, n)
            window = FiniteSubset.make(
                group, [rng.choice(group.ball(1)) for _ in range(rng.randint(1, 3))]
            )
            local = t.induced_local_map(window)
            lhs = local.apply_pattern(x.restrict(local.domain_set))
            rhs = t.apply(x).restrict(window)
            assert lhs == rhs

    @pytest.mark.parametrize("field", [F3, Q], ids=lambda f: f.label())
    @pytest.mark.parametrize("group", [Z1, Z2], ids=lambda g: g.label())
    def test_rule_rows_made_once_per_nuca(self, group, field):
        # the rules are made on the first placement and read by every later
        # placement and window map, which equal those of a fresh NUCA
        rng = random.Random(f"{group.label()}|{field.label()}|rules")
        t = rand_nuca(rng, group, field, 2, max_sites=3)
        while not len(t.exceptional_set):
            t = rand_nuca(rng, group, field, 2, max_sites=3)
        windows = [FiniteSubset.ball(group, r) for r in range(3)]
        windows += [
            FiniteSubset.make(group, rng.sample(group.ball(2), rng.randint(1, 4))) for _ in range(3)
        ]
        fresh = [Nuca(t.element).induced_local_map(w).matrix for w in windows]
        built, placed = [], []
        with mock.patch.object(nuca, "_rule_rows", wraps=nuca._rule_rows) as spy:
            for w in windows:
                # the domain's own numbering places the window map's rows
                placed.append(t._window_rows(w, w.product(t.memory).position))
                built.append(t.induced_local_map(w).matrix)
        assert spy.call_count == 1 + len(t.exceptional_set)
        for m, ref, rows in zip(built, fresh, placed):
            assert m == ref
            assert rows == list(_integer_rows(field, ref.data))

    def test_rule_table_over_q_adds_no_fractions(self, monkeypatch):
        # the rules sum integer numerators over one scale and divide once
        # per entry, so no Fraction is added
        rng = random.Random("Q rule table|fractions")
        maps = []
        while len(maps) < 20:
            t = rand_nuca(rng, Z1, Q, 2, max_sites=3)
            if len(t.exceptional_set):
                maps.append(t)
        added = []
        for name in ("__add__", "__radd__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, op=op: added.append(1) or op(a, b))
        for t in maps:
            t._rules
        assert added == []

    def test_a_verdict_over_q_makes_no_field_rows(self):
        # the verdict's rule table holds ints only: every entry, and each
        # row's content and scale, from which rule_at and the window maps
        # read the field values
        def ints_only(rule):
            rows, read, scales = rule
            values = [x for entries in rows for e in entries for x in e] + read + [x for s in scales for x in s]
            return all(type(x) is int for x in values)

        rng = random.Random("Q verdict|field rows")
        read = []
        for _ in range(12):
            t = rand_nuca(rng, Z1, Q, 2, max_sites=3)
            stable_injectivity_verdict(t, SearchBudget(max_radius=1, depth=2, window=1))
            try:
                Nuca._rules.__get__(t, Nuca)
            except AttributeError:
                continue
            if len(t.exceptional_set):
                read.append(t)
        assert read
        for t in read:
            constant_rule, exceptional = t._rules
            assert ints_only(constant_rule) and all(map(ints_only, exceptional.values()))
            window = FiniteSubset.ball(Z1, 1)
            assert t.induced_local_map(window) == Nuca(t.element).induced_local_map(window)

    def test_blocks_vanish_off_translated_memory(self, rng):
        t = rand_nuca(rng, Z1, F5, 1)
        window = FiniteSubset.ball(Z1, 1)
        local = t.induced_local_map(window)
        mem = set(t.memory)
        dense = local.matrix.to_lists()
        for gi, g in enumerate(window):
            for qi, q in enumerate(local.domain_set):
                if Z1.compose(Z1.inverse(g), q) not in mem:
                    assert dense[gi][qi] == 0


@st.composite
def window_numberings(draw):
    """(t, window, sites): a radius-1 NUCA over Z^1, Z^2 or free:2 and F_2,
    F_5 or Q with n = 1 or 2, a window inside ball(2), and a numbering of
    its domain sites, sites[k] numbered k in a random order, that keeps
    all of them or only some."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    group = draw(st.sampled_from(GROUPS))
    field = draw(st.sampled_from([F2, F5, Q]))
    t = rand_nuca(rng, group, field, draw(st.sampled_from([1, 2])), max_sites=3)
    window = FiniteSubset.make(group, rng.sample(group.ball(2), rng.randint(1, 5)))
    domain = list(window.product(t.memory))
    kept = len(domain) if draw(st.booleans()) else rng.randint(0, len(domain))
    return t, window, rng.sample(domain, kept)


def _rule_map(field, blocks, exceptions=()):
    """A NUCA over Z^1 with n = 1 from {site: entry} for the constant rule
    and (site, {site: entry}) corrections."""
    def part(entries):
        return gre(Z1, field, 1, [((h,), ((x,),)) for h, x in entries.items()])

    return Nuca(TwistedElement.make(part(blocks), [((g,), part(e)) for g, e in exceptions]))


@settings(max_examples=150, deadline=None)
@given(window_numberings())
# the rule row (1, 2, 2) cut to its last two sites is (2, 2), whose
# primitive multiple is (1, 1)
@example((_rule_map(Q, {0: 1, 1: 2, 2: 2}), FiniteSubset.make(Z1, [(0,)]), [(1,), (2,)]))
# an exceptional rule row (1/2, 3/2) next to the constant one (1, 2)
@example((
    _rule_map(Q, {0: 1, 1: 2}, [(1, {0: Fraction(-1, 2), 1: Fraction(-1, 2)})]),
    FiniteSubset.make(Z1, [(0,), (1,)]), [(2,), (0,), (1,)],
))
@example((_rule_map(F5, {0: 2, -1: 3}), FiniteSubset.make(Z1, [(0,), (1,)]), [(1,), (-1,), (0,)]))
@example((_rule_map(Q, {0: 1, 1: 1}), FiniteSubset.make(Z1, [(0,)]), []))
def test_window_rows_are_the_restricted_integer_rows(case):
    # placing the rule rows at a numbering gives the integer rows of the
    # window map cut to the numbered sites and re-keyed to their numbers
    t, window, sites = case
    n, field = t.n, t.field
    local = t.induced_local_map(window)
    cols = {
        local.domain_set.position(u) * n + j: k * n + j for k, u in enumerate(sites) for j in range(n)
    }
    restricted = local.matrix.restrict(cols, n * len(sites))
    rows = t._window_rows(window, {u: k for k, u in enumerate(sites)}.get)
    assert rows == list(_integer_rows(field, restricted.data))
    assert all(type(z) is int for row in rows for z in row.values())


@st.composite
def kernel_sites(draw):
    """(t, sites): a radius-1 NUCA over Z^1, Z^2 or free:2 and F_2, F_5 or
    Q with n = 1 or 2, and some sites of ball(2) in a random order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    group = draw(st.sampled_from(GROUPS))
    field = draw(st.sampled_from([F2, F5, Q]))
    t = rand_nuca(rng, group, field, draw(st.sampled_from([1, 2])), max_sites=3)
    return t, rng.sample(group.ball(2), rng.randint(1, 5))


def _row_counts(rows):
    return Counter(frozenset(row.items()) for row in rows if row)


@settings(max_examples=100, deadline=None)
@given(kernel_sites())
def test_kernel_rows_are_every_rule_row_that_reads_the_sites(case):
    # the window map of ball(3), which holds every site whose rule reads
    # ball(2), cut to the sites' columns in their order: its nonzero rows
    # are those of the kernel rows, each once, and the kernel rows hold n
    # rows per site of their window, whatever they read
    t, sites = case
    n, group = t.n, t.group
    local = t.induced_local_map(FiniteSubset.ball(group, 3))
    domain = local.domain_set
    cols = {
        domain.position(u) * n + j: k * n + j
        for k, u in enumerate(sites) if u in set(domain) for j in range(n)
    }
    restricted = local.matrix.restrict(cols, n * len(sites))
    rows = t._kernel_rows(sites)
    assert _row_counts(rows) == _row_counts(_integer_rows(t.field, restricted.data))
    window = {group.compose(g, group.inverse(h)) for g in sites for h in t.memory}
    assert len(rows) == n * len(window | set(t.exceptional_set))
    assert all(type(z) is int for row in rows for z in row.values())


class TestShift:
    def test_identity_shift(self, rng):
        t = rand_nuca(rng, Z2, F3, 1)
        assert t.shift(Z2.identity) == t

    def test_action_law(self, rng):
        t = rand_nuca(rng, F2FREE, F3, 1)
        g, h = (1,), (2, -1)
        assert t.shift(g).shift(h) == t.shift(F2FREE.compose(h, g))

    def test_exception_moves(self):
        t = f3_example_nuca()
        shifted = t.shift((1,))
        assert shifted.exceptional_set.elements == ((1,),)
        assert shifted.element.regular == t.element.regular

    def test_equivariance(self, rng):
        t = f3_example_nuca()
        for _ in range(20):
            g = rng.choice(Z1.ball(2))
            x = rand_config(rng, Z1, F3, 1, radius=2)
            assert t.shift(g).apply(x.translate(g)) == t.apply(x).translate(g)


class TestTranslate:
    @pytest.mark.parametrize("g", ["junk", (1, 2), (True,)])
    @pytest.mark.parametrize("deviation", [[], [((0,), [1])]], ids=["no-deviation", "deviation"])
    def test_bad_group_element_refused(self, g, deviation):
        # with no deviation there is nothing to compose, so only the check sees g
        x = Configuration.make(Z1, F3, 1, [2], deviation)
        with pytest.raises(UsageError):
            x.translate(g)

    def test_translate_moves_the_deviation(self):
        x = Configuration.make(Z1, F3, 1, [2], [((0,), [1])])
        assert x.translate((3,)) == Configuration.make(Z1, F3, 1, [2], [((3,), [1])])


class TestSiteQueries:
    """A query at a site that is no element of the group is refused, where
    it once answered as at a site of no deviation or correction."""

    @pytest.mark.parametrize("g", [(1, 2, 3), "junk"])
    def test_bad_site_refused(self, g):
        x = Configuration.make(Z2, F3, 1, [2], [((0, 0), [1])])
        t = Nuca(TwistedElement.make(
            gre(Z2, F3, 1, [((0, 0), ((1,),))]), [((0, 0), gre(Z2, F3, 1, [((1, 0), ((1,),))]))]
        ))
        with pytest.raises(UsageError):
            x.value_at(g)
        with pytest.raises(UsageError):
            t.rule_at(g)

    def test_restrict_refuses_a_subset_of_another_group(self):
        x = Configuration.make(Z2, F3, 1, [2], [((0, 0), [1])])
        with pytest.raises(UsageError, match="subset of the configuration's group"):
            x.restrict(FiniteSubset.make(GroupSpec.zd(3), [(1, 2, 3)]))

    def test_restrict_is_linear_in_the_sites(self):
        # a deviation at each of the 19,881 sites of ball(70) on Z^2, read
        # on that ball: one dict read per site, where a scan of the whole
        # deviation per site took seconds
        rng = random.Random("restrict|ball(70)")
        ball = FiniteSubset.ball(Z2, 70)
        x = Configuration.make(
            Z2, F5, 2, [3, 1], [(g, [rng.randrange(1, 5), rng.randrange(5)]) for g in ball]
        )
        assert len(x.deviation) == len(ball) == 19_881
        start = time.monotonic()
        pattern = x.restrict(ball)
        assert time.monotonic() - start < 1.0
        assert pattern.domain == ball and len(pattern.values) == len(ball)
        # sampled sites, some of them past the ball and so off the deviation
        sites = FiniteSubset.make(Z2, rng.sample(Z2.ball(72), 50) + [(71, 0), (0, -72)])
        assert x.restrict(sites).values == tuple(x.value_at(g) for g in sites)
        assert x.value_at((71, 0)) == (3, 1)


class TestLocality:
    def test_output_window_reads_only_translated_window(self, rng):
        for _ in range(15):
            t = rand_nuca(rng, Z1, F5, 1)
            x = rand_config(rng, Z1, F5, 1)
            window = FiniteSubset.ball(Z1, 1)
            domain = (
                window.product(t.memory) if len(t.memory) else FiniteSubset.make(Z1, ())
            )
            # perturb x outside the translated window only
            far = [g for g in Z1.ball(4) if g not in domain]
            bump = Configuration.make(Z1, F5, 1, [0], [(rng.choice(far), [1 + rng.randrange(4)])])
            assert t.apply(x).restrict(window) == t.apply(x + bump).restrict(window)


class TestInjectivityWitness:
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    def test_nonzero_map_moves_some_probe(self, group):
        # single-site probes inside a computable ball separate every
        # nonzero map from zero
        rng = random.Random(f"{group.label()}|probe")
        found_all = True
        for _ in range(35):
            n = rng.choice([1, 2])
            t = rand_nuca(rng, group, F3, n)
            if t.element.is_zero():
                continue
            probe_origins = list(t.exceptional_set)
            for g in group.ball(2):
                if g not in t.exceptional_set:
                    probe_origins.append(g)
                    break
            hit = False
            for origin in probe_origins:
                for h in t.memory:
                    for j in range(n):
                        probe = basis_configuration(group, t.field, n, group.compose(origin, h), j)
                        if not t.apply(probe).is_zero():
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
            found_all = found_all and hit
        assert found_all


# -- canonical form of configurations against a plain-dict oracle --------------------


def _entries(field):
    if field.kind == "Fp":
        # residues that are negative or >= p
        return st.integers(-3 * field.p, 3 * field.p)
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def configuration_inputs(draw):
    group = draw(st.sampled_from(GROUPS))
    field = draw(st.sampled_from([F3, F5, Q]))
    n = draw(st.integers(1, 3))
    sites = st.sampled_from(group.ball(1))
    vector = st.lists(_entries(field), min_size=n, max_size=n)
    items = draw(st.lists(st.tuples(sites, vector), max_size=6))
    # duplicate sites that cancel
    for g, v in draw(st.lists(st.tuples(sites, vector), max_size=2)):
        items += [(g, v), (g, [-x for x in v])]
    return group, field, n, draw(vector), draw(st.permutations(items))


def reducer(field):
    return (lambda x: x % field.p) if field.kind == "Fp" else Fraction


def dict_oracle(field, n, base, items):
    """(base, {site: vector}) summed as plain numbers, then reduced, with
    zero vectors dropped."""
    reduce = reducer(field)
    dev: dict = {}
    for g, v in items:
        acc = dev.setdefault(g, [0] * n)
        for i, x in enumerate(v):
            acc[i] += x
    dev = {g: tuple(reduce(x) for x in v) for g, v in dev.items()}
    return tuple(reduce(x) for x in base), {g: v for g, v in dev.items() if any(v)}


def assert_canonical(x):
    p = x.field.p

    def entry_ok(e):
        return type(e) is int and 0 <= e < p if p else type(e) is Fraction

    assert type(x.base) is tuple and len(x.base) == x.n and all(map(entry_ok, x.base))
    for _, v in x.deviation:
        assert type(v) is tuple and len(v) == x.n and all(map(entry_ok, v))
        assert any(v), "a zero vector is stored"
    keys = [x.group.key(g) for g, _ in x.deviation]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def assert_matches_oracle(x, oracle):
    base, dev = oracle
    assert_canonical(x)
    assert x.base == base and dict(x.deviation) == dev
    reduce = reducer(x.field)
    for g in x.group.ball(1):
        expected = tuple(reduce(a + b) for a, b in zip(base, dev[g])) if g in dev else base
        assert x.value_at(g) == expected


@settings(max_examples=150, deadline=None)
@given(configuration_inputs(), st.integers(-7, 7))
def test_configuration_canonical_form_matches_dict_oracle(inputs, c):
    group, field, n, base, items = inputs
    x = Configuration.make(group, field, n, base, items)
    assert_matches_oracle(x, dict_oracle(field, n, base, items))

    scaled_items = [(g, [c * e for e in v]) for g, v in items]
    y = x.scale(c)
    assert_matches_oracle(y, dict_oracle(field, n, [c * e for e in base], scaled_items))
    both = [a + c * a for a in base]
    assert_matches_oracle(x + y, dict_oracle(field, n, both, items + scaled_items))

    zero = Configuration.zero(group, field, n)
    assert_canonical(zero)
    for z in (x.scale(0), x + x.scale(-1)):
        assert_canonical(z)
        assert z.is_zero() and z == zero
