import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from d1ring.errors import UsageError
from d1ring.exactalg import Matrix, inverse, solve
from d1ring.experiments import SuiteConfig, decoy_nuca, gen_unit, rand_twisted
from d1ring.groupring import GroupRingElement, matrix_shuffle, zd_determinant
from d1ring.groups import FiniteSubset, GroupSpec
from d1ring import exactalg, experiments, invert
from d1ring.invert import (
    MAX_BLOCK_COORDINATES,
    MAX_DET_TERM_PAIRS,
    MAX_EXTRA_LEVELS,
    MAX_TOWER_COORDINATES,
    MAX_UNKNOWNS,
    InjectivityVerdict,
    InverseSearchParams,
    KernelTowerLevel,
    KernelTowerReport,
    SearchBudget,
    check_search_radius,
    check_tower_depth,
    finitely_supported_kernel,
    kernel_tower,
    search_left_inverse,
    search_one_sided_inverse,
    search_radius_limit,
    solve_one_sided_inverse,
    stable_injectivity_verdict,
    verify_identity,
)
from d1ring.nuca import Configuration, Nuca, basis_configuration, constant_part
from d1ring.twisted import TwistedElement

from conftest import F2, F2FREE, F3, F5, GROUPS, Q, Z1, Z2, f3_nuca_pair, gre, nilpotent_nuca
from oracles import naive_twisted_mul, one_sided_inverse, plain_twisted
from test_exactalg import reference_canonical, reference_kernel

Z3 = GroupSpec.zd(3)


def decoy():
    return decoy_nuca(Z1, F2, 1)


class TestVerifyIdentity:
    def test_identity_pair(self):
        ident = Nuca.identity(Z1, F2, 1)
        assert verify_identity(ident, ident)

    def test_f3_pair_both_orders(self):
        u, v = f3_nuca_pair()
        assert verify_identity(u, v)
        assert verify_identity(v, u)

    def test_shift_not_identity(self):
        shift = Nuca(TwistedElement.make(gre(Z1, F2, 1, [((1,), ((1,),))]), []))
        assert not verify_identity(shift, Nuca.identity(Z1, F2, 1))


class TestSolveOneSided:
    def test_identity_map(self):
        ident = Nuca.identity(Z1, F3, 1)
        params = InverseSearchParams.make(
            "left", FiniteSubset.make(Z1, [(0,)]), FiniteSubset.make(Z1, [(0,)])
        )
        assert solve_one_sided_inverse(ident, params) == ident

    def test_f3_two_unknown_system(self):
        u, v = f3_nuca_pair()
        params = InverseSearchParams.make(
            "left", FiniteSubset.make(Z1, [(0,), (1,)]), FiniteSubset.make(Z1, [(0,)])
        )
        assert solve_one_sided_inverse(u, params) == v

    def test_right_side(self):
        u, v = f3_nuca_pair()
        params = InverseSearchParams.make(
            "right", FiniteSubset.make(Z1, [(0,), (1,)]), FiniteSubset.make(Z1, [(0,)])
        )
        assert solve_one_sided_inverse(u, params) == v

    def test_infeasible_for_decoy(self):
        ball = FiniteSubset.ball(Z1, 3)
        params = InverseSearchParams.make("left", ball, ball)
        assert solve_one_sided_inverse(decoy(), params) is None

    def test_params_normalization(self):
        # identity joins the memory window; empty exceptional window widens
        p = InverseSearchParams.make(
            "left", FiniteSubset.make(Z1, [(1,)]), FiniteSubset.make(Z1, [])
        )
        assert (0,) in p.memory_set
        assert len(p.exceptional_set) == 1

    def test_bad_side(self):
        with pytest.raises(UsageError):
            InverseSearchParams.make("up", FiniteSubset.ball(Z1, 0), FiniteSubset.ball(Z1, 0))

    def test_window_in_another_group(self):
        # a Z^1 map searched with Z^2 balls, and sets split across groups
        z1, z2 = FiniteSubset.ball(Z1, 1), FiniteSubset.ball(Z2, 1)
        with pytest.raises(UsageError, match="different group"):
            solve_one_sided_inverse(Nuca.identity(Z1, F3, 1), InverseSearchParams.make("left", z2, z2))
        with pytest.raises(UsageError, match="different groups"):
            InverseSearchParams.make("left", z1, z2)
        with pytest.raises(UsageError, match="different groups"):
            InverseSearchParams.make("right", z2, FiniteSubset.make(Z1, []))

    def test_oversized_system_refused(self):
        # 2705 * 2706 unknowns at radius 2 in free:26
        ball = FiniteSubset.ball(GroupSpec.free(26), 2)
        params = InverseSearchParams.make("left", ball, ball)
        assert len(ball) * (1 + len(ball)) > MAX_UNKNOWNS
        with pytest.raises(UsageError, match="limit"):
            solve_one_sided_inverse(Nuca.identity(ball.group, F3, 1), params)


class TestSearchSizeLimit:
    @pytest.mark.parametrize("label, n", [("free:4", 1), ("free:3", 3), ("Zd:3", 2)])
    def test_default_budget_fits(self, label, n):
        # 209,306, 316,404 and 471,968 unknowns at radius 3
        group = GroupSpec.from_label(label)
        size = group.ball_size(SearchBudget().max_radius)
        assert size * (size + 1) * n * n <= MAX_UNKNOWNS
        check_search_radius(group, n, SearchBudget().max_radius)

    def test_radius_limit(self):
        free26 = GroupSpec.free(26)
        assert search_radius_limit(free26, 1, 5) == 1
        assert search_radius_limit(free26, 1, 0) == 0
        assert search_radius_limit(Z2, 2, 3) == 3
        with pytest.raises(UsageError, match="largest radius within it: 1"):
            check_search_radius(free26, 1, 2)

    def test_a_repeated_check_counts_no_ball(self, monkeypatch, cold_caches):
        # the balls of one (group, n, radius) are counted once, a refusal's
        # too, and a patched limit is counted anew
        calls = []
        ball_size = GroupSpec.ball_size
        monkeypatch.setattr(GroupSpec, "ball_size", lambda self, *args: calls.append(args) or ball_size(self, *args))
        check_search_radius(Z2, 2, 3)
        assert search_radius_limit(Z2, 2, 3) == 3
        with pytest.raises(UsageError) as first:
            check_search_radius(Z2, 2, 13)
        counted = len(calls)
        assert counted > 0
        check_search_radius(Z2, 2, 3)
        assert search_radius_limit(Z2, 2, 3) == 3
        with pytest.raises(UsageError) as again:
            check_search_radius(Z2, 2, 13)
        assert len(calls) == counted
        assert str(again.value) == str(first.value) == (
            "an inverse search to radius 13 over Zd:2 with n = 2 needs 2128680 unknowns;"
            " the limit is 2000000 (largest radius within it: 12)"
        )
        monkeypatch.setattr(invert, "MAX_UNKNOWNS", 2)
        with pytest.raises(UsageError, match=r"the limit is 2 \(largest radius within it: -1\)"):
            check_search_radius(Z2, 2, 3)
        assert search_radius_limit(Z2, 2, 3) == -1
        assert len(calls) > counted

    def test_refused_before_any_work(self, monkeypatch):
        # the identity has an inverse at radius 0, but a search to radius 2
        # in free:26 is refused before radius 0 runs
        calls = []
        record = lambda *args: calls.append(args)
        monkeypatch.setattr(invert, "_regular_inverse", record)
        monkeypatch.setattr(invert, "finitely_supported_kernel", record)
        monkeypatch.setattr(invert, "kernel_tower", record)
        t = Nuca.identity(GroupSpec.free(26), F3, 1)
        with pytest.raises(UsageError, match="limit"):
            stable_injectivity_verdict(t, SearchBudget(max_radius=2))
        with pytest.raises(UsageError, match="limit"):
            search_one_sided_inverse(t, "right", 2)
        assert calls == []


class TestTowerSizeLimit:
    @pytest.mark.parametrize("label, n", [("Zd:1", 3), ("Zd:2", 3), ("Zd:3", 3)])
    def test_default_budget_fits(self, label, n):
        budget = SearchBudget()
        check_tower_depth(GroupSpec.from_label(label), n, budget.depth, budget.window)

    def test_depth_limit(self):
        # levels 0..79+2+8 = 89 of Z^2 hold sum (2m+1)^2 = 999,810 coordinates
        def total(depth):
            return sum(Z2.ball_size(m) for m in range(depth + 2 + MAX_EXTRA_LEVELS + 1))

        assert total(79) <= MAX_TOWER_COORDINATES < total(80)
        check_tower_depth(Z2, 1, 79, 2)
        with pytest.raises(UsageError, match="largest depth within it: 79"):
            check_tower_depth(Z2, 1, 80, 2)
        with pytest.raises(UsageError, match="largest depth within it: -1"):
            check_tower_depth(Z2, 1, 0, 10**9)
        # a tower exists only on Z^d, so other groups are never refused
        check_tower_depth(F2FREE, 1, 10**9, 2)

    def test_refused_before_any_work(self, monkeypatch):
        # the depth is huge, so the tower and the verdict stop before
        # level 0 and before the radius-0 searches
        calls = []
        record = lambda *args: calls.append(args)
        monkeypatch.setattr(invert, "_regular_inverse", record)
        monkeypatch.setattr(invert, "finitely_supported_kernel", record)
        monkeypatch.setattr(invert, "kernel_basis", record)
        monkeypatch.setattr(Nuca, "induced_local_map", record)
        monkeypatch.setattr(Nuca, "_window_rows", record)
        t = decoy_nuca(Z2, F3, 1)
        with pytest.raises(UsageError, match="limit"):
            kernel_tower(t, 10**12, 2)
        with pytest.raises(UsageError, match="limit"):
            stable_injectivity_verdict(t, SearchBudget(max_radius=1, depth=10**12))
        assert calls == []

    @pytest.mark.parametrize("group", [Z1, Z2, Z3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_limit_is_the_boundary(self, group, n):
        def total(depth):
            return sum(n * group.ball_size(m) for m in range(depth + 2 + MAX_EXTRA_LEVELS + 1))

        with pytest.raises(UsageError) as refusal:
            check_tower_depth(group, n, 10**12, 2)
        limit = int(re.search(r"largest depth within it: (-?\d+)\)", str(refusal.value))[1])
        assert total(limit) <= MAX_TOWER_COORDINATES < total(limit + 1)
        check_tower_depth(group, n, limit, 2)
        with pytest.raises(UsageError, match=f"largest depth within it: {limit}\\)"):
            check_tower_depth(group, n, limit + 1, 2)

    def test_refusal_reads_the_same_from_both_entry_points(self):
        t = decoy_nuca(Z2, F3, 1)
        with pytest.raises(UsageError) as direct:
            check_tower_depth(Z2, 1, 80, 2)
        with pytest.raises(UsageError) as tower:
            kernel_tower(t, 80, 2)
        with pytest.raises(UsageError) as verdict:
            stable_injectivity_verdict(t, SearchBudget(max_radius=1, depth=80))
        assert str(tower.value) == str(verdict.value) == str(direct.value)

    def test_verdict_checks_the_limit_once(self, monkeypatch):
        # the verdict checks the tower's limit before its searches, and its
        # tower is not checked again
        calls = []
        check = invert.check_tower_depth
        monkeypatch.setattr(invert, "check_tower_depth", lambda *args: calls.append(args) or check(*args))
        budget = SearchBudget(max_radius=1, depth=2, window=2)
        verdict = stable_injectivity_verdict(decoy(), budget)
        assert verdict.kind == "bounded_evidence"
        assert calls == [(Z1, 1, 2, 2)]
        # kernel_tower on its own checks once, and builds the same tower
        assert verdict.tower == kernel_tower(decoy(), 2, 2)
        assert calls == [(Z1, 1, 2, 2)] * 2

    def test_a_repeated_check_counts_no_level(self, monkeypatch, cold_caches):
        # the levels of one (group, n, depth, window) are counted once, a
        # refusal's too, and a patched limit is counted anew
        calls = []
        ball_size = GroupSpec.ball_size
        monkeypatch.setattr(GroupSpec, "ball_size", lambda self, *args: calls.append(args) or ball_size(self, *args))
        check_tower_depth(Z2, 2, 3, 2)
        assert len(calls) == 3 + 2 + MAX_EXTRA_LEVELS + 1
        with pytest.raises(UsageError) as first:
            check_tower_depth(Z2, 2, 80, 2)
        counted = len(calls)
        check_tower_depth(Z2, 2, 3, 2)
        with pytest.raises(UsageError) as again:
            check_tower_depth(Z2, 2, 80, 2)
        assert len(calls) == counted
        assert str(again.value) == str(first.value)
        monkeypatch.setattr(invert, "MAX_TOWER_COORDINATES", 10)
        with pytest.raises(UsageError, match=r"the limit of 10 \(largest depth within it: -1\)"):
            check_tower_depth(Z2, 2, 3, 2)
        assert len(calls) > counted

    def test_verdict_off_z_d_ignores_depth(self):
        t = Nuca.identity(F2FREE, F3, 1)
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=0, depth=10**12))
        assert verdict.kind == "proven_stably_injective"


class TestTwistedProductCount:
    """The inverse search reads its systems off a's translates and makes
    the inverse once, at the radius where a^-1 turns up: its only twisted
    products are S = a^-1 t and S^-1 a^-1, and its re-verification is one
    check of a product against 1, decided without building it."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        mul, is_one = TwistedElement.__mul__, TwistedElement.product_is_one

        def counting(self, other):
            calls.append(("*", self, other))
            return mul(self, other)

        def counting_check(self, other):
            calls.append(("=1", self, other))
            return is_one(self, other)

        monkeypatch.setattr(TwistedElement, "__mul__", counting)
        monkeypatch.setattr(TwistedElement, "product_is_one", counting_check)
        return calls

    def test_one_product_per_search(self, products):
        config = SuiteConfig(seed=0, trials=1, group=Z2, field=F5, n=2, max_factors=2)
        unit, _, _ = gen_unit(random.Random(3), config)
        t = Nuca.from_matrix(unit)
        products.clear()
        cert, radius = search_left_inverse(t, 2)
        assert radius >= 1
        assert len(products) == 3
        assert [kind for kind, _, _ in products] == ["*", "*", "=1"]
        (_, a_inv, right), (_, s_inv, a_inv_again), verified = products
        assert not a_inv.singular and a_inv == a_inv_again and right == t.element
        assert s_inv.regular == GroupRingElement.one(Z2, F5, 2)
        assert verified == ("=1", cert.element, t.element)
        assert a_inv.regular == cert.element.regular

    def test_no_product_without_solution(self, products):
        ball = FiniteSubset.ball(Z2, 1)
        t = decoy_nuca(Z2, F3, 2)
        assert solve_one_sided_inverse(t, InverseSearchParams.make("right", ball, ball)) is None
        assert products == []


class TestEachFactCheckedOnce:
    """a^-1 a = 1 is checked once: on the regular part of S = a^-1 t, which
    the search builds anyway, or, for an a^-1 discarded for leaving the
    window, on its own product.  Over Z^d the window is tested by norm, so
    no ball is made."""

    @pytest.fixture
    def regular_checks(self, monkeypatch):
        calls = []
        is_one = GroupRingElement.product_is_one

        def counting(self, other):
            calls.append((self, other))
            return is_one(self, other)

        monkeypatch.setattr(GroupRingElement, "product_is_one", counting)
        return calls

    def test_wrong_inverse_inside_the_window_fails_on_the_regular_part_of_s(
        self, monkeypatch, regular_checks
    ):
        u, _ = f3_nuca_pair()  # regular part 1, so a^-1 = 1; 2 is a wrong one
        wrong = gre(Z1, F3, 1, [((0,), ((2,),))])
        monkeypatch.setattr(invert, "zd_determinant", lambda a, pairs: (zd_determinant(a, pairs)[0], wrong))
        with pytest.raises(AssertionError, match="regular part other than 1"):
            search_left_inverse(u, 3)
        ball = FiniteSubset.ball(Z1, 1)
        with pytest.raises(AssertionError, match="regular part other than 1"):
            solve_one_sided_inverse(u, InverseSearchParams.make("left", ball, ball))
        assert regular_checks == []

    def test_wrong_inverse_outside_the_window_fails_on_its_own_product(
        self, monkeypatch, regular_checks
    ):
        u, _ = f3_nuca_pair()
        wrong = gre(Z1, F3, 1, [((5,), ((1,),))])
        monkeypatch.setattr(invert, "zd_determinant", lambda a, pairs: (zd_determinant(a, pairs)[0], wrong))
        with pytest.raises(AssertionError, match="adjugate produced a non-inverse"):
            search_left_inverse(u, 3)
        assert regular_checks == [(wrong, u.element.regular)]

    def test_right_inverse_outside_the_window_is_checked_once_and_dropped(self, regular_checks):
        shift = Nuca(TwistedElement(gre(Z1, F3, 1, [((5,), ((1,),))]), ()))
        assert search_left_inverse(shift, 3) is None
        assert len(regular_checks) == 1
        assert search_left_inverse(shift, 5) == (
            Nuca(TwistedElement(gre(Z1, F3, 1, [((-5,), ((1,),))]), ())), 5
        )
        assert len(regular_checks) == 1

    def test_zd_search_makes_no_ball(self, monkeypatch, regular_checks):
        config = SuiteConfig(seed=0, trials=1, group=Z2, field=F5, n=2, max_factors=2)
        unit, inverse, _ = gen_unit(random.Random(3), config)
        t = Nuca.from_matrix(unit)
        balls = []
        ball = GroupSpec.ball
        monkeypatch.setattr(GroupSpec, "ball", lambda self, r: balls.append(r) or ball(self, r))
        cert, radius = search_left_inverse(t, 2)
        assert cert == Nuca.from_matrix(inverse) and radius >= 1
        assert balls == [] and regular_checks == []


class TestSearchLeftInverse:
    def test_identity_radius_zero(self):
        hit = search_left_inverse(Nuca.identity(Z1, F3, 1), 2)
        assert hit == (Nuca.identity(Z1, F3, 1), 0)

    def test_f3_radius_one(self):
        u, v = f3_nuca_pair()
        hit = search_left_inverse(u, 3)
        assert hit == (v, 1)

    def test_decoy_none_within_four(self):
        assert search_left_inverse(decoy(), 4) is None

    def test_right_search(self):
        u, v = f3_nuca_pair()
        assert search_one_sided_inverse(v, "right", 2) == (u, 1)

    @pytest.mark.parametrize(
        "t",
        [Nuca(TwistedElement(gre(Z1, F3, 1, [((0,), ((1,),)), ((1,), ((1,),))]), ())), Nuca.identity(Z1, F3, 1)],
        ids=["pruned-by-det", "searched"],
    )
    def test_bad_side_refused_before_any_work(self, monkeypatch, t):
        # det(1 + x) is not a monomial, so no ball would be searched for it
        monkeypatch.setattr(invert, "_regular_inverse", lambda *args: pytest.fail("searched"))
        with pytest.raises(UsageError, match="side"):
            search_one_sided_inverse(t, "up", 2)


class TestFinitelySupportedKernel:
    def test_zero_map_first_basis_witness(self):
        t = Nuca.zero(Z1, F3, 2)
        w = finitely_supported_kernel(t, 0)
        assert w.base == (0, 0)
        assert w.deviation == (((0,), (1, 0)),)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.label())
    @pytest.mark.parametrize("field", [F3, Q], ids=lambda f: f.label())
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("radius", [0, 1])
    def test_zero_map_witness_on_the_general_path(self, group, field, n, radius):
        # the zero map has an empty window: e_0 at the first site of the ball
        w = finitely_supported_kernel(Nuca.zero(group, field, n), radius)
        first = FiniteSubset.ball(group, radius).elements[0]
        assert w == basis_configuration(group, field, n, first, 0)

    def test_nilpotent_radius_zero(self):
        w = finitely_supported_kernel(nilpotent_nuca(), 0)
        assert w.deviation == (((0,), (1, 0)),)

    def test_decoy_pre_injective(self):
        t = decoy()
        for r in range(9):
            assert finitely_supported_kernel(t, r) is None

    def test_witness_rechecked_through_induced_map(self):
        t = nilpotent_nuca()
        w = finitely_supported_kernel(t, 2)
        assert w is not None and not w.is_zero()
        support = w.deviation_support()
        window = support.product(t.memory.inverse()).union(t.exceptional_set)
        local = t.induced_local_map(window)
        out = local.apply_pattern(w.restrict(local.domain_set))
        assert all(all(x == 0 for x in v) for v in out.values)

    def test_shift_invariance(self, rng):
        # witnesses transport along shifts, with the support ball translated
        for _ in range(12):
            t = Nuca(rand_twisted(rng, Z1, F2, 1, radius=1))
            g = rng.choice(Z1.ball(2))
            w = finitely_supported_kernel(t, 2)
            if w is not None:
                moved = w.translate(g)
                assert t.shift(g).apply(moved).is_zero()
                assert finitely_supported_kernel(t.shift(g), 2 + Z1.norm(g)) is not None
            elif Z1.norm(g) <= 2:
                # a witness for the shifted map inside the shrunken ball would
                # translate back to one for t inside ball(2)
                assert finitely_supported_kernel(t.shift(g), 2 - Z1.norm(g)) is None


class TestKernelTower:
    def test_identity_all_zero(self):
        rep = kernel_tower(Nuca.identity(Z1, F2, 1), 3, 2)
        assert all(lv.kernel_dim == 0 and lv.stable_dim == 0 for lv in rep.levels)

    def test_decoy_stable_line(self):
        rep = kernel_tower(decoy(), 5, 3)
        assert len(rep.levels) == 6
        assert all(lv.stable_dim == 1 for lv in rep.levels)
        assert rep.stabilized()

    def test_nilpotent_dims_follow_window_size(self):
        rep = kernel_tower(nilpotent_nuca(), 3, 3)
        for lv in rep.levels:
            assert lv.stable_dim == 2 * lv.level + 1

    def test_z2_identity(self):
        rep = kernel_tower(Nuca.identity(Z2, F3, 1), 2, 2)
        assert rep.stabilized() and all(lv.stable_dim == 0 for lv in rep.levels)

    def test_free_group_unsupported(self):
        t = Nuca.identity(F2FREE, F2, 1)
        with pytest.raises(UsageError):
            kernel_tower(t, 2, 2)

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    @pytest.mark.parametrize("call, name", [
        (lambda t, x: kernel_tower(t, x, 2), "depth"),
        (lambda t, x: kernel_tower(t, 1, x), "window"),
        (lambda t, x: search_one_sided_inverse(t, "left", x), "max_radius"),
        (lambda t, x: finitely_supported_kernel(t, x), "radius"),
    ], ids=["tower-depth", "tower-window", "search-radius", "kernel-radius"])
    def test_integer_arguments_must_be_ints(self, call, name, value):
        # a bool would run as 1 (and serialize as true), and a float would
        # fail inside range with a TypeError
        with pytest.raises(UsageError, match=f"{name} must be an int"):
            call(decoy(), value)

    def test_tower_consistency_with_certificate(self):
        # a left-invertible map has no kernel threads at any level
        t, _ = f3_nuca_pair()
        assert search_left_inverse(t, 2) is not None
        rep = kernel_tower(t, 4, 3)
        assert rep.stabilized() and all(lv.stable_dim == 0 for lv in rep.levels)


class TestVerdict:
    @pytest.mark.parametrize("name", ["max_radius", "depth", "window"])
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_budget_fields_must_be_ints(self, name, value):
        # a bool would serialize as true, and a float would fail inside range
        with pytest.raises(UsageError, match=name):
            SearchBudget(**{name: value})

    def test_f3_proven_stably_injective(self):
        u, v = f3_nuca_pair()
        verdict = stable_injectivity_verdict(u, SearchBudget(max_radius=3))
        assert verdict.kind == "proven_stably_injective"
        assert verdict.certificate == v
        assert verdict.certificate_radius == 1

    def test_nilpotent_not_injective(self):
        verdict = stable_injectivity_verdict(nilpotent_nuca(), SearchBudget(max_radius=2))
        assert verdict.kind == "proven_not_injective"
        assert verdict.witness_radius == 0
        assert verdict.witness.deviation == (((0,), (1, 0)),)

    def test_decoy_bounded_evidence(self):
        verdict = stable_injectivity_verdict(decoy(), SearchBudget(max_radius=2, depth=5, window=3))
        assert verdict.kind == "bounded_evidence"
        assert all(lv.stable_dim == 1 for lv in verdict.tower.levels)

    def test_constant_part_witness(self):
        # injective map whose orbit-closure constant part is not injective:
        # constant rule is pointwise nilpotent, one exceptional site repairs it
        a = gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))])
        fix = gre(Z1, F2, 2, [((0,), ((1, 0), (0, 1)))])
        t = Nuca(TwistedElement.make(a, [((0,), fix)]))
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=1))
        assert verdict.kind == "proven_not_injective"
        assert verdict.witness_scope == "constant_part"

    def test_free_group_bounded_evidence_has_no_tower(self):
        t = decoy_nuca(F2FREE, F2, 1)
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=1))
        assert verdict.kind == "bounded_evidence"
        assert verdict.tower is None

    def test_proven_verdict_verifies_its_certificate_once(self, monkeypatch):
        # solve_one_sided_inverse re-verifies the certificate and raises on
        # failure, so the verdict makes no second identity check
        calls = []
        verify = invert.verify_identity

        def counting(u, v):
            calls.append((u, v))
            return verify(u, v)

        monkeypatch.setattr(invert, "verify_identity", counting)
        u, v = f3_nuca_pair()
        verdict = stable_injectivity_verdict(u, SearchBudget(max_radius=3))
        assert verdict.kind == "proven_stably_injective"
        assert calls == [(v, u)]


class TestZeroMap:
    def test_verdict_is_not_injective_at_radius_zero(self):
        verdict = stable_injectivity_verdict(Nuca.zero(Z1, F3, 2), SearchBudget(max_radius=1))
        assert verdict.kind == "proven_not_injective"
        assert verdict.witness_radius == 0


class TestTwoSidedAgreement:
    def test_left_and_right_searches_agree_on_units(self, rng):
        # over these universes the one-sided inverse is the two-sided one,
        # so both searches must surface the same element
        from d1ring.experiments import SuiteConfig, gen_unit

        config = SuiteConfig(seed=9, trials=1, group=Z1, field=F5, n=1)
        for i in range(6):
            unit, _, _ = gen_unit(random.Random(300 + i), config)
            t = Nuca.from_matrix(unit)
            left = search_one_sided_inverse(t, "left", 3)
            right = search_one_sided_inverse(t, "right", 3)
            assert left is not None and right is not None
            assert left[0] == right[0]


class TestCertificateSoundness:
    def test_random_units_certify_and_have_no_kernel(self, rng):
        from d1ring.experiments import SuiteConfig, gen_unit

        cfg = SuiteConfig(seed=5, trials=1, group=Z1, field=F3, n=1)
        for i in range(8):
            unit, inverse, _ = gen_unit(random.Random(100 + i), cfg)
            t = Nuca.from_matrix(unit)
            from d1ring.experiments import element_radius
            from d1ring.twisted import f_shuffle_inv

            hit = search_left_inverse(t, max(2, element_radius(f_shuffle_inv(inverse))))
            assert hit is not None
            cert, _ = hit
            assert verify_identity(cert, t)
            for r in range(3):
                assert finitely_supported_kernel(t, r) is None


def reference_one_sided_inverse(t, params):
    """The per-unknown assembly: one single-entry ring element per unknown
    coefficient, each multiplied by t in full, and the solution summed
    back from scaled single-entry elements."""
    grp, fld, n = t.group, t.field, t.n
    zero = GroupRingElement.zero(grp, fld, n)

    def unit_entry(g, i, j):
        c = tuple(
            tuple(fld.one if (a, b) == (i, j) else fld.zero for b in range(n)) for a in range(n)
        )
        return GroupRingElement.monomial(grp, fld, n, g, c)

    unknowns = [
        TwistedElement(unit_entry(g, i, j), ())
        for g in params.memory_set for i in range(n) for j in range(n)
    ] + [
        TwistedElement.make(zero, [(e, unit_entry(g, i, j))])
        for e in params.exceptional_set for g in params.memory_set
        for i in range(n) for j in range(n)
    ]

    def coordinates(elem):
        parts = [(("r",), elem.regular)] + [(("s", grp.key(e)), p) for e, p in elem.singular]
        return [
            (prefix + (grp.key(g), i, j), c[i][j])
            for prefix, part in parts for g, c in part.terms
            for i in range(n) for j in range(n) if c[i][j] != 0
        ]

    left = params.side == "left"
    columns = [coordinates(u * t.element if left else t.element * u) for u in unknowns]
    target = coordinates(TwistedElement.one(grp, fld, n))
    keys = sorted({k for col in columns for k, _ in col} | {k for k, _ in target})
    index = {k: r for r, k in enumerate(keys)}
    rows = [{} for _ in keys]
    for col, coords in enumerate(columns):
        for k, v in coords:
            rows[index[k]][col] = v
    a = Matrix(fld, len(keys), len(unknowns), rows)
    b = [fld.zero] * len(keys)
    for k, v in target:
        b[index[k]] = v
    x = solve(a, b)
    if x is None:
        return None
    acc = TwistedElement.zero(grp, fld, n)
    for coeff, u in zip(x, unknowns):
        if coeff != 0:
            acc = acc + u.scale(coeff)
    return Nuca(acc)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F3, Q]),
    n=st.sampled_from([1, 2]),
    side=st.sampled_from(["left", "right"]),
    from_unit=st.booleans(),
)
def test_slot_products_agree_with_per_unknown_assembly(seed, group, field, n, side, from_unit):
    # units with a window around the known inverse hold it, so the
    # reference system is solvable; random maps and windows mostly hold
    # no inverse
    rng = random.Random(seed)
    ball = group.ball(1)
    memory = rng.sample(ball, rng.randint(0, 3))
    exceptional = rng.sample(ball, rng.randint(0, 2))
    if from_unit:
        config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=1)
        unit, inverse, _ = gen_unit(rng, config)
        t, known = Nuca.from_matrix(unit), Nuca.from_matrix(inverse)
        memory += list(known.memory)
        exceptional += list(known.exceptional_set)
    else:
        t = Nuca(rand_twisted(rng, group, field, n, radius=1))
    params = InverseSearchParams.make(
        side, FiniteSubset.make(group, memory), FiniteSubset.make(group, exceptional)
    )
    assert solve_one_sided_inverse(t, params) == reference_one_sided_inverse(t, params)


def cancelling_maps():
    """Maps over Z^1, F3 whose products with a single-entry unknown each
    cancel at one (site, h), where a regular and a singular contribution
    meet: two 1x1 maps, and a 2x2 one whose coefficients also have zero
    rows and columns."""
    left = TwistedElement.make(
        gre(Z1, F3, 1, [((0,), ((1,),)), ((1,), ((1,),))]),
        [((1,), gre(Z1, F3, 1, [((0,), ((2,),))]))],
    )
    right = TwistedElement.make(
        gre(Z1, F3, 1, [((1,), ((1,),)), ((2,), ((1,),))]),
        [((-1,), gre(Z1, F3, 1, [((1,), ((2,),)), ((2,), ((1,),))]))],
    )
    one, two = ((1, 0), (0, 1)), ((2, 0), (0, 2))
    matrix = TwistedElement.make(
        gre(Z1, F3, 2, [((0,), one), ((1,), ((1, 1), (0, 1)))]),
        [((1,), gre(Z1, F3, 2, [((0,), two), ((1,), two), ((2,), ((0, 1), (0, 0)))]))],
    )
    return [Nuca(left), Nuca(right), Nuca(matrix)]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "t",
    cancelling_maps() + [f3_nuca_pair()[0], decoy()],
    ids=["cancel-left", "cancel-right", "cancel-matrix", "f3", "decoy"],
)
def test_system_equals_per_unknown_assembly(side, t):
    # maps whose products with single-entry unknowns cancel, where a
    # regular and a singular contribution meet, against the reference
    ball = FiniteSubset.ball(Z1, 2)
    params = InverseSearchParams.make(side, ball, ball)
    assert solve_one_sided_inverse(t, params) == reference_one_sided_inverse(t, params)


def reference_search(t, side, max_radius):
    """The ball loop: the first radius r whose ball, as memory and
    exceptional window, holds the per-unknown assembly's inverse."""
    for r in range(max_radius + 1):
        ball = FiniteSubset.ball(t.group, r)
        cert = reference_one_sided_inverse(t, InverseSearchParams.make(side, ball, ball))
        if cert is not None:
            return cert, r
    return None


def singular_block_map(rng, group, field, n):
    """t = a S with a invertible and S the identity off one site g, where
    its rule is 1 + s with s(e) = C - 1 for a singular C.  M is then the
    identity off the row block of g, whose diagonal block is C, so M is
    singular: t has no one-sided inverse, and ker M on V is a finitely
    supported kernel of t."""
    config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=1)
    unit, _, _ = gen_unit(rng, config)
    a = TwistedElement(Nuca.from_matrix(unit).element.regular, ())
    row = [field.coerce(rng.randint(-2, 2)) for _ in range(n)]
    c = (tuple(row),) * n if n > 1 else ((0,),)  # repeated rows (n = 1: zero)
    minus_one = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(c)]
    pool = [g for g in group.ball(1) if g != group.identity]
    extra = experiments._draw_groupring(rng, group, field, n, pool, 3)
    s = GroupRingElement.from_terms(group, field, n, [(group.identity, minus_one)] + list(extra.terms))
    one = GroupRingElement.one(group, field, n)
    return Nuca(a * TwistedElement.make(one, [(rng.choice(group.ball(1)), s)]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F3, Q]),
    n=st.sampled_from([1, 2]),
    side=st.sampled_from(["left", "right"]),
    kind=st.sampled_from(["unit", "random", "singular_block"]),
)
def test_search_agrees_with_reference_ball_loop(seed, group, field, n, side, kind):
    rng = random.Random(seed)
    max_radius = 2 if group == Z1 else 1
    if kind == "unit":
        config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=2)
        t = Nuca.from_matrix(gen_unit(rng, config)[0])
    elif kind == "random":
        t = Nuca(rand_twisted(rng, group, field, n, radius=1))
    else:
        t = singular_block_map(rng, group, field, n)
    hit = search_one_sided_inverse(t, side, max_radius)
    assert hit == reference_search(t, side, max_radius)
    if kind == "singular_block":
        assert hit is None
        # the kernel lies on V, inside ball(2)
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=2, depth=1, window=1))
        assert (verdict.kind, verdict.witness_scope) == ("proven_not_injective", "self")


@pytest.mark.parametrize("group", [Z1, Z2, F2FREE], ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F3, F5], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 2])
def test_search_agrees_with_the_one_sided_inverse_oracle(group, field, n):
    # units of one or two factors and a random map: every inverse the
    # oracle finds on the ball is two-sided, and the search finds the same
    # element inside the ball exactly when the oracle finds one
    rng = random.Random(f"inverse oracle|{group.label()}|{field.label()}|{n}")
    radius = 2 if group == Z1 else 1
    ball, kind, p = group.ball(radius), group.kind, field.p
    one = ({group.identity: tuple(tuple(int(i == j) for j in range(n)) for i in range(n))}, {})
    maps = [
        Nuca.from_matrix(gen_unit(rng, SuiteConfig(0, 1, group, field, n, max_factors=f))[0])
        for f in (1, 2)
    ]
    maps.append(Nuca(rand_twisted(rng, group, field, n, radius=1)))
    found = 0
    for t in maps:
        u = plain_twisted(t.element)
        for side in ("left", "right"):
            v = one_sided_inverse(kind, p, u, ball, side)
            hit = search_one_sided_inverse(t, side, radius)
            if v is None:
                assert hit is None
                continue
            assert naive_twisted_mul(kind, p, u, v) == one == naive_twisted_mul(kind, p, v, u)
            assert plain_twisted(hit[0].element) == v
            found += 1
    # a one-factor unit's inverse lies in ball(1), on both sides
    assert found >= 2


def test_exceptional_sites_past_the_window_stop_the_search(monkeypatch):
    # a = 1 and b = 2x at each of the sites 0..999: S = t, whose inverse
    # has the same 1000 exceptional sites, so no ball up to radius 3 holds
    # it and M, 1001 x 1001, is never built
    step = gre(Z1, F5, 1, [((1,), ((2,),))])
    t = Nuca(TwistedElement.make(GroupRingElement.one(Z1, F5, 1), [((g,), step) for g in range(1000)]))
    monkeypatch.setattr(invert, "_block", lambda *args: pytest.fail("placed M"))
    monkeypatch.setattr(invert, "inverse", lambda *args: pytest.fail("inverted M"))
    assert search_one_sided_inverse(t, "left", 3) is None
    assert search_one_sided_inverse(t, "right", 3) is None


def block_sites(s):
    """V for S = (1, s): the exceptional sites and every site they read."""
    grp = s.group
    reads = [grp.compose(g, h) for g, part in s.singular for h, _ in part.terms]
    return FiniteSubset(grp, grp.sort(reads + [g for g, _ in s.singular]))


def column_map(domain, sites, n):
    """{column of `domain`: column of `sites`} for the n coordinates of each
    site of `sites` that lies in `domain`."""
    return {
        domain.position(u) * n + i: k * n + i
        for k, u in enumerate(sites) if u in domain
        for i in range(n)
    }


def reference_block(s, v):
    """M as the V x V block of S's window map on V, re-keyed to V's order."""
    local = Nuca(s).induced_local_map(v)
    return local.matrix.restrict(column_map(local.domain_set, v, s.shape), s.shape * len(v))


def reference_factored_inverse(s, side):
    """The inverse of S = (1, s) from the window-map block, with S^-1's parts
    made by from_terms per site and assembled by TwistedElement.make."""
    grp, fld, n = s.group, s.field, s.shape
    v = block_sites(s)
    m_inv = inverse(reference_block(s, v))
    if m_inv is None:
        return None
    minus_one = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    singular = []
    for b, g in enumerate(v):
        coeffs: dict = {}
        for i, row in enumerate(m_inv.data[b * n : (b + 1) * n]):
            for col, x in row.items():
                q, j = divmod(col, n)
                coeffs.setdefault(q, [[0] * n for _ in range(n)])[i][j] = x
        terms = [(grp.compose(grp.inverse(g), v.elements[q]), c) for q, c in coeffs.items()]
        terms.append((grp.identity, minus_one))
        singular.append((g, GroupRingElement.from_terms(grp, fld, n, terms)))
    u = Nuca(TwistedElement.make(GroupRingElement.one(grp, fld, n), singular))
    t = Nuca(s)
    assert verify_identity(u, t) if side == "left" else verify_identity(t, u)
    return u


@st.composite
def unipotent_factors(draw):
    """S = (1, s) over Z^1 or Z^2, F_5 or Q, n = 1 or 2: up to three
    exceptional sites in ball(1), each s(g) of up to three terms in
    ball(1), entries fractions with denominators up to 3."""
    group = draw(st.sampled_from([Z1, Z2]))
    field = draw(st.sampled_from([F5, Q]))
    n = draw(st.integers(1, 2))
    ball = group.ball(1)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    parts = [
        (g, gre(group, field, n, draw(st.lists(st.tuples(st.sampled_from(ball), coeff), min_size=1, max_size=3))))
        for g in draw(st.lists(st.sampled_from(ball), min_size=1, max_size=3, unique=True))
    ]
    return TwistedElement.make(GroupRingElement.one(group, field, n), parts)


def unipotent(group, field, n, parts):
    return TwistedElement.make(
        GroupRingElement.one(group, field, n), [(g, gre(group, field, n, terms)) for g, terms in parts]
    )


@settings(max_examples=200, deadline=None)
@given(s=unipotent_factors(), side=st.sampled_from(["left", "right"]))
# s(0) = 1 + x: a term at e, and S^-1's part at the site 1 it reads is zero
@example(s=unipotent(Z1, F5, 1, [((0,), [((0,), ((1,),)), ((1,), ((1,),))])]), side="left")
# s(0) = 4 over F_5: 1 + s(0) = 0, so M = (0) is singular
@example(s=unipotent(Z1, F5, 1, [((0,), [((0,), ((4,),))])]), side="right")
# over Q with n = 2: s(0) has a term at e and reads the site (1, 0)
@example(
    s=unipotent(Z2, Q, 2, [((0, 0), [((0, 0), ((Fraction(1, 2), 1), (0, -1))), ((1, 0), ((0, 0), (2, 0)))])]),
    side="left",
)
def test_block_placed_from_the_rules_is_the_window_block(s, side):
    # M placed from S's rules is the block of S's window map, and the
    # inverse assembled on raw accumulators is the one from_terms made
    v = block_sites(s)
    assert invert._block(s, v) == reference_block(s, v)
    reference = reference_factored_inverse(s, side)
    one = GroupRingElement.one(s.group, s.field, s.shape)
    u = invert._factored_inverse(Nuca(s), one, side, FiniteSubset.ball(s.group, 1).__contains__)
    if reference is None:
        assert u is None
        return
    assert u == reference
    assert repr(u.element) == repr(reference.element)  # the same entry types: Fractions over Q
    # S^-1's parts off E are zero and dropped: its exceptional sites are E
    assert u.exceptional_set == Nuca(s).exceptional_set


# -- window maps and towers against the dense path --------------------------------

def reference_local_map(t, window):
    """The dense block fill of the window map: a list of dense rows with
    block (g, q) the rule-at-g block at h = g^-1 q, and the domain E M."""
    grp, fld, n = t.group, t.field, t.n
    domain = window.product(t.memory) if len(t.memory) else FiniteSubset.make(grp, ())
    dense = [[fld.zero] * (n * len(domain)) for _ in range(n * len(window))]
    for gi, g in enumerate(window):
        rule = t.rule_at(g)
        for h, block in zip(rule.memory, rule.blocks):
            qi = domain.position(grp.compose(g, h))
            for i in range(n):
                for j in range(n):
                    dense[gi * n + i][qi * n + j] = block[i][j]
    return domain, dense


def reference_kernel_vectors(t, radius):
    """Kernel vectors of the dense window map with the columns of
    ball(radius) copied out in support order (zero for sites outside E M)."""
    grp, fld, n = t.group, t.field, t.n
    support = FiniteSubset.ball(grp, radius)
    window = support.product(t.memory.inverse()) if len(t.memory) else FiniteSubset.make(grp, ())
    domain, dense = reference_local_map(t, window.union(t.exceptional_set))
    cols = [
        domain.position(u) * n + i if u in domain else None for u in support for i in range(n)
    ]
    a = [[fld.zero if c is None else row[c] for c in cols] for row in dense]
    return support, reference_kernel(Matrix.from_rows(fld, a))


def reference_kernel_tower(t, depth, window):
    """The tower with dense window maps, every level built up front, and
    projections sliced from dense kernel vectors.  Kernels, projections and
    their equality are the dense RREFs of test_exactalg (canonical lists of
    rows), so neither kernel_basis nor Subspace takes part."""
    fld, n = t.field, t.n
    max_level = depth + window + invert.MAX_EXTRA_LEVELS
    domains, kernels = [], []
    for m in range(max_level + 1):
        domain, dense = reference_local_map(t, FiniteSubset.ball(t.group, m))
        domains.append(domain)
        kernels.append(reference_kernel(Matrix.from_rows(fld, dense)))

    def project(level, m):
        cols = [domains[m].position(u) * n + i for u in domains[level] for i in range(n)]
        return reference_canonical(fld, [[v[c] for c in cols] for v in kernels[m]])

    levels = []
    for lv in range(depth + 1):
        current, run, stabilized_at, stable_dim = kernels[lv], 0, None, None
        for m in range(lv + 1, max_level + 1):
            nxt = project(lv, m)
            run = run + 1 if nxt == current else 0
            if run >= window:
                stabilized_at, stable_dim = m - window, len(current)
                break
            current = nxt
        levels.append(KernelTowerLevel(lv, len(kernels[lv]), stable_dim, stabilized_at))
    return KernelTowerReport(depth, window, tuple(levels))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F3, Q]),
    n=st.sampled_from([1, 2]),
)
def test_window_map_agrees_with_dense_fill(seed, group, field, n):
    rng = random.Random(seed)
    t = Nuca(rand_twisted(rng, group, field, n, radius=1))
    window = FiniteSubset.make(group, rng.sample(group.ball(2), rng.randint(1, 5)))
    local = t.induced_local_map(window)
    domain, dense = reference_local_map(t, window)
    assert local.domain_set == domain
    assert (local.matrix.rows, local.matrix.cols) == (n * len(window), n * len(domain))
    assert local.matrix.to_lists() == dense
    assert all(x != 0 for row in local.matrix.data for x in row.values())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F3, Q]),
    n=st.sampled_from([1, 2]),
    radius=st.integers(0, 2),
)
def test_kernel_witness_agrees_with_dense_path(seed, group, field, n, radius):
    t = Nuca(rand_twisted(random.Random(seed), group, field, n, radius=1))
    witness = finitely_supported_kernel(t, radius)
    if len(t.memory) == 0 and len(t.exceptional_set) == 0:
        return  # no window: the first basis probe is the witness
    support, vectors = reference_kernel_vectors(t, radius)
    if not vectors:
        assert witness is None
        return
    dev = [(u, tuple(vectors[0][i * n : (i + 1) * n])) for i, u in enumerate(support)]
    assert witness == Configuration.make(group, field, n, (field.zero,) * n, dev)


def witness_map(seed, group, field, n, kind, max_radius):
    """A random radius-1 map ("random"); the same map shifted by a site of
    norm max_radius + 2, so that its exceptional sites lie outside
    ball(max_radius) ("shifted"); the zero map, whose memory is empty
    ("zero"); a random map whose regular part has det 0 (draw_map's
    "singular"), whose kernel points spread over several shells; or a
    pointwise nilpotent constant rule, with the singular part of a random
    map ("nilpotent") or with the identity added at the sites of ball(m)
    for some -1 <= m <= max_radius + 1, which moves the first witness to
    radius m + 1 ("repaired")."""
    if kind == "zero":
        return Nuca.zero(group, field, n)
    if kind == "singular":
        return draw_map(random.Random(seed), group, field, n, kind)
    u = rand_twisted(random.Random(seed), group, field, n, radius=1)
    if kind == "shifted":
        far = max_radius + 2
        g = (far,) + (-1,) * (group.dim - 1) if group.kind == "Zd" else (1,) * far
        return Nuca(u).shift(g)
    if kind in ("nilpotent", "repaired"):
        nil = ((0, 1), (0, 0)) if n == 2 else ((0,),)
        a = gre(group, field, n, [(group.identity, nil)])
        singular = u.singular
        if kind == "repaired":
            one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            fix = gre(group, field, n, [(group.identity, one)])
            m = seed % (max_radius + 3) - 1
            singular = [(g, fix) for g in group.ball(m)] if m >= 0 else []
        return Nuca(TwistedElement.make(a, singular))
    return Nuca(u)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GROUPS),
    field=st.sampled_from([F2, F5, Q]),
    n=st.sampled_from([1, 2]),
    kind=st.sampled_from(["random", "singular", "shifted", "zero", "nilpotent", "repaired"]),
    max_radius=st.integers(0, 2),
)
@example(seed=0, group=Z1, field=F2, n=2, kind="nilpotent_nuca", max_radius=2)
# the first kernel point spans shells 0 and 1
@example(seed=0, group=Z1, field=F5, n=2, kind="singular", max_radius=1)
# the identity at the sites of ball(1) moves the first witness to radius 2
@example(seed=2, group=Z2, field=Q, n=2, kind="repaired", max_radius=2)
def test_first_witness_radius_is_the_first_kernel_radius(seed, group, field, n, kind, max_radius):
    # the one elimination finds the radius at which the per-radius search
    # finds its first witness
    if kind == "nilpotent_nuca":
        t = nilpotent_nuca()
    else:
        t = witness_map(seed, group, field, n, kind, max_radius)
    first = next(
        (r for r in range(max_radius + 1) if finitely_supported_kernel(t, r) is not None), None
    )
    assert invert._first_witness_radius(t, max_radius) == first
    const = constant_part(t)
    first = next(
        (r for r in range(max_radius + 1) if finitely_supported_kernel(const, r) is not None), None
    )
    assert invert._first_witness_radius(const, max_radius) == first


# a shift that moves the exceptional sites of a radius-1 map out of ball(1),
# so that they enter the tower at level 2 or later
TOWER_SHIFTS = {Z1: (3,), Z2: (2, -1), Z3: (2, -1, 1)}

# (group, largest depth, largest window, fields, n, levels built past depth +
# window): the dense reference of a Z^3 tower stops at ball(2), which it
# eliminates in about 0.3 s over Q (ball(3) takes seconds)
TOWER_CASES = [
    (Z1, 4, 2, [F2, F3, F5, Q], [1, 2], 2),
    (Z2, 2, 2, [F2, F3, F5, Q], [1, 2], 2),
    (Z3, 1, 1, [F5, Q], [1], 0),
]


def tower_map(seed, group, field, n, kind):
    """A random radius-1 map ("random"), the same map shifted by
    TOWER_SHIFTS ("shifted"), or the decoy ("decoy")."""
    if kind == "decoy":
        return decoy_nuca(group, field, n)
    t = Nuca(rand_twisted(random.Random(seed), group, field, n, radius=1))
    return t.shift(TOWER_SHIFTS[group]) if kind == "shifted" else t


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(TOWER_CASES).flatmap(
        lambda c: st.tuples(
            st.just(c[0]), st.integers(0, c[1]), st.integers(1, c[2]), st.sampled_from(c[3]),
            st.sampled_from(c[4]), st.just(c[5]),
        )
    ),
    kind=st.sampled_from(["random", "shifted", "decoy"]),
)
@example(seed=10, case=(Z1, 4, 2, F5, 2, 2), kind="shifted")
@example(seed=10, case=(Z2, 2, 2, F5, 2, 2), kind="shifted")
@example(seed=10, case=(Z2, 1, 1, Q, 2, 2), kind="shifted")
# level 1 has a 42-dimensional kernel that has not stabilized by level 2
@example(seed=0, case=(Z3, 1, 1, Q, 1, 0), kind="random")
@example(seed=0, case=(Z3, 1, 2, F5, 1, 0), kind="shifted")
def test_kernel_tower_agrees_with_dense_path(seed, case, kind):
    group, depth, window, field, n, extra = case
    t = tower_map(seed, group, field, n, kind)
    with mock.patch.object(invert, "MAX_EXTRA_LEVELS", extra):
        assert kernel_tower(t, depth, window) == reference_kernel_tower(t, depth, window)


@pytest.mark.parametrize(
    "group, field, n, kind",
    [(Z1, F5, 1, "decoy"), (Z1, Q, 2, "shifted"), (Z2, F2, 2, "shifted"), (Z2, Q, 1, "random")],
)
def test_kernel_tower_builds_each_window_row_once(group, field, n, kind):
    # level m places the rows of the shell ball(m) minus ball(m - 1) only,
    # so the rows eliminated sum to those of the last level's ball; no
    # window map is built, and the rows are placed inline, not by
    # Nuca._window_rows
    t = tower_map(10, group, field, n, kind)
    built = []
    echelon = invert._echelon

    def record(p, rows, lead=min, basis=None):
        rows = list(rows)
        built.append(len(rows))
        return echelon(p, rows, lead, basis)

    refuse = {"side_effect": AssertionError("built a window map")}
    with mock.patch.object(invert, "_echelon", record), \
            mock.patch.object(Nuca, "induced_local_map", **refuse), \
            mock.patch.object(Nuca, "_window_rows", **refuse):
        kernel_tower(t, 3, 2)
    assert 4 <= len(built) <= 3 + 2 + MAX_EXTRA_LEVELS + 1
    assert sum(built) == n * group.ball_size(len(built) - 1)


def two_pass_kernel_tower(t, depth, window):
    """The tower as it was built before the one-pass placement: each level
    first numbers the sites g h of its shell, then places the shell's rows
    at that numbering with Nuca._window_rows, which composes g h again.
    Returns the report and the pivots each level added, sorted."""
    grp, n, p = t.group, t.n, t.field.p
    max_level = depth + window + invert.MAX_EXTRA_LEVELS
    basis, dims, ranks, pivots, ids = {}, [], [], [], {}

    def ensure_level(m):
        while len(dims) <= m:
            shell = FiniteSubset(grp, grp.sort(
                g for g in FiniteSubset.ball(grp, len(dims)) if grp.norm(g) == len(dims)
            ))
            for g in shell:
                for h in t.memory:
                    ids.setdefault(grp.compose(g, h), len(ids))
            before = len(basis)
            exactalg._echelon(p, t._window_rows(shell, ids.get), max, basis)
            pivots.append(sorted(itertools.islice(basis, before, None)))
            ranks.append(len(basis))
            dims.append(n * len(ids))

    levels = []
    for lv in range(depth + 1):
        ensure_level(lv)
        c = dims[lv]
        kernel_dim = current = c - ranks[lv]
        run = 0
        stabilized_at = stable_dim = None
        for m in range(lv + 1, max_level + 1):
            ensure_level(m)
            cut = sum(1 for q in pivots[m] if q < c)
            if cut == 0:
                run += 1
                if run >= window:
                    stabilized_at, stable_dim = m - window, current
                    break
            else:
                run = 0
                current -= cut
        levels.append(KernelTowerLevel(lv, kernel_dim, stable_dim, stabilized_at))
    return KernelTowerReport(depth, window, tuple(levels)), pivots


@pytest.mark.parametrize("group", [Z1, Z2, Z3], ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
@pytest.mark.parametrize("kind", ["plain", "singular", "decoy"])
def test_one_pass_tower_matches_the_two_pass_tower(group, field, kind):
    # the same report and, level by level, the same pivots: the sites are
    # numbered in the same order, so the rows land at the same columns
    depth, window, n = (1, 1, 1) if group is Z3 else (3, 2, 2)
    rng = random.Random(f"two-pass|{group.label()}|{field.label()}|{kind}")
    if kind == "decoy":
        t = decoy_nuca(group, field, n)
    else:
        while True:
            t = Nuca(rand_twisted(rng, group, field, n, radius=1))
            if t.element.regular.terms and bool(t.element.singular) == (kind == "singular"):
                break
    expected, expected_pivots = two_pass_kernel_tower(t, depth, window)
    pivots = []
    echelon = invert._echelon

    def record(p, rows, lead=min, basis=None):
        before = len(basis)
        out = echelon(p, rows, lead, basis)
        pivots.append(sorted(itertools.islice(basis, before, None)))
        return out

    with mock.patch.object(invert, "_echelon", record):
        assert kernel_tower(t, depth, window) == expected
    assert pivots == expected_pivots


@pytest.mark.parametrize("group", [Z1, Z2, Z3], ids=lambda g: g.label())
def test_kernel_tower_composes_each_shell_site_with_each_memory_site_once(group):
    # counted through the compose of the map's own group: over Z^d it is an
    # instance attribute, which shadows GroupSpec.compose
    t = tower_map(3, group, Q, 1, "shifted")
    counts = []
    calls = mock.Mock(side_effect=t.group.compose)
    echelon = invert._echelon

    def record(p, rows, lead=min, basis=None):
        counts.append(calls.call_count)
        return echelon(p, rows, lead, basis)

    with mock.patch.dict(vars(t.group), compose=calls), mock.patch.object(invert, "_echelon", record):
        kernel_tower(t, 1, 1)
    per_level = [b - a for a, b in zip([0] + counts, counts)]
    assert per_level == [len(invert._box_shell(group, m)) * len(t.memory) for m in range(len(counts))]


@pytest.mark.parametrize(
    "group, field, n, kind",
    [(Z1, F5, 1, "decoy"), (Z1, Q, 2, "shifted"), (Z2, F2, 2, "shifted"), (Z2, Q, 1, "random")],
)
def test_window_rows_are_placed_without_sorted_site_sets(group, field, n, kind):
    # the tower numbers its domain sites and the witness search lists its
    # window rows from compose and inverse directly; no sorted product,
    # union or inverse set is built
    t = tower_map(10, group, field, n, kind)
    expected = kernel_tower(t, 3, 2), invert._first_witness_radius(t, 2)
    refuse = {"side_effect": AssertionError("built a sorted site set")}
    with mock.patch.object(FiniteSubset, "product", **refuse), \
            mock.patch.object(FiniteSubset, "union", **refuse), \
            mock.patch.object(FiniteSubset, "inverse", **refuse):
        got = kernel_tower(t, 3, 2), invert._first_witness_radius(t, 2)
    assert got == expected


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_shells_are_ball_differences(dim):
    group = GroupSpec.zd(dim)
    for m in range(5):
        inner = set(group.ball(m - 1)) if m else set()
        shell = invert._box_shell(group, m)
        assert shell.elements == tuple(g for g in group.ball(m) if g not in inner)
        # a shell depends on (group, m) alone, so it is made once
        assert invert._box_shell(group, m) is shell


# -- the regular-part obstruction over Z^d --------------------------------------

def leibniz_det(a):
    """det of a in M_n(k[G]) as the signed sum over permutations of
    products of the shuffled entries; k[G] must be commutative."""
    grid = matrix_shuffle(a)
    n = len(grid)
    total = GroupRingElement.zero(a.group, a.field)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = GroupRingElement.one(a.group, a.field)
        for i, j in enumerate(perm):
            term = term * grid[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def in_ball(t, side, r):
    """solve_one_sided_inverse with memory and exceptional window ball(r),
    with a^-1 found by its ball system, not from the determinant."""
    ball = FiniteSubset.ball(t.group, r)
    with mock.patch.object(invert, "MAX_DET_TERM_PAIRS", 0):
        return solve_one_sided_inverse(t, InverseSearchParams.make(side, ball, ball))


def det_pairs(a, inverse=False):
    """The fewest pairs of terms with which zd_determinant(a) yields det(a),
    or with inverse a^-1, found by raising the budget (by bisection) until
    it appears."""

    def found(budget):
        pair = zd_determinant(a, budget)
        return pair is not None and (not inverse or pair[1] is not None)

    lo, hi = 0, MAX_DET_TERM_PAIRS
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if found(mid) else (mid + 1, hi)
    return lo


def reference_verdict(t, budget):
    """The verdict loop with every search run, radius by radius: the
    certificate, then the two witnesses; no determinant pruning."""
    const = constant_part(t)
    for r in range(budget.max_radius + 1):
        cert = in_ball(t, "left", r)
        if cert is not None:
            return InjectivityVerdict(
                kind="proven_stably_injective", budget=budget, certificate=cert, certificate_radius=r
            )
        for target, scope in ((t, "self"), (const, "constant_part")):
            witness = finitely_supported_kernel(target, r)
            if witness is not None:
                return InjectivityVerdict(
                    kind="proven_not_injective", budget=budget, witness=witness,
                    witness_scope=scope, witness_radius=r,
                )
    tower = kernel_tower(t, budget.depth, budget.window) if t.group.kind == "Zd" else None
    return InjectivityVerdict(kind="bounded_evidence", budget=budget, tower=tower)


def draw_map(rng, group, field, n, kind):
    """A random radius-1 map; "unit" gives a two-sided unit (det(a) a
    monomial), "singular" a regular part whose last row repeats the first
    (n = 1: is zero), so det(a) = 0 with nonzero entries."""
    if kind == "unit":
        config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=1)
        unit, _, _ = gen_unit(rng, config)
        return Nuca.from_matrix(unit)
    u = rand_twisted(rng, group, field, n, radius=1)
    if kind == "singular":
        terms = [(g, c[:-1] + (c[0],)) for g, c in u.regular.terms] if n > 1 else []
        u = TwistedElement.make(GroupRingElement.from_terms(group, field, n, terms), u.singular)
    return Nuca(u)


# L U over Z^1 and F_5 with L = [[1, 0, 0], [x, 1, 0], [1 + x, 2, 1]] and
# U = [[1, x, 0], [0, 1, 1 + x], [0, 0, 2x]]: det(a) = 2x, a^-1 of radius 2
UNIT_3X3 = gre(Z1, F5, 3, [
    ((0,), ((1, 0, 0), (0, 1, 1), (1, 2, 2))),
    ((1,), ((0, 1, 0), (1, 0, 1), (1, 1, 4))),
    ((2,), ((0, 0, 0), (0, 1, 0), (0, 1, 0))),
])


class TestZdDeterminant:
    def test_cancellation_to_zero(self):
        # [[1 + x, x + x^2], [1, x]]: every entry nonzero, det = 0
        a = gre(Z1, Q, 2, [((0,), ((1, 0), (1, 0))), ((1,), ((1, 1), (0, 1))), ((2,), ((0, 1), (0, 0)))])
        assert leibniz_det(a).is_zero()
        assert zd_determinant(a, MAX_DET_TERM_PAIRS) == (leibniz_det(a), None)

    @pytest.mark.parametrize("field", [F2, F3, Q])
    def test_monomial_from_multi_term_entries(self, field):
        # [[1, 1 + x], [0, 1]] and [[1 + x, x], [1, 1]] both have det 1
        for terms in (
            [((0,), ((1, 1), (0, 1))), ((1,), ((0, 1), (0, 0)))],
            [((0,), ((1, 0), (1, 1))), ((1,), ((1, 1), (0, 0)))],
        ):
            a = gre(Z1, field, 2, terms)
            assert zd_determinant(a, MAX_DET_TERM_PAIRS)[0] == leibniz_det(a) == GroupRingElement.one(Z1, field)

    def test_rational_entries(self):
        # [[1/2 + x, 1/3], [3 x, 2/5]]: det = 1/5 + (2/5 - 1) x
        a = gre(Z1, Q, 2, [
            ((0,), ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(2, 5)))),
            ((1,), ((1, 0), (3, 0))),
        ])
        det, a_inv = zd_determinant(a, MAX_DET_TERM_PAIRS)
        assert det == leibniz_det(a) and a_inv is None
        assert det.terms == (((0,), Fraction(1, 5)), ((1,), Fraction(-3, 5)))

    def test_none_off_z_d_and_past_the_budget(self):
        assert zd_determinant(decoy_nuca(F2FREE, F3, 2).element.regular, MAX_DET_TERM_PAIRS) is None
        a = decoy_nuca(Z2, F3, 3).element.regular
        assert zd_determinant(a, 10**6)[0] == leibniz_det(a)
        assert zd_determinant(a, 3) is None

    @pytest.mark.parametrize(
        "a, pairs, inverse_pairs",
        [
            # 3x: a^-1 costs no pair more at n = 1
            (gre(Z1, F5, 1, [((1,), ((3,),))]), 1, 1),
            # [[1 + x, x y], [3, 3y]]: det(a) = 3y
            (gre(Z2, F5, 2, [
                ((0, 0), ((1, 0), (3, 0))), ((0, 1), ((0, 0), (0, 3))),
                ((1, 0), ((1, 0), (0, 0))), ((1, 1), ((0, 1), (0, 0))),
            ]), 7, 12),
            # [[1/2 + x, 1/3], [3x, 2/5]]: det(a) = 1/5 - 3x/5, no monomial
            (gre(Z1, Q, 2, [
                ((0,), ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(2, 5)))),
                ((1,), ((1, 0), (3, 0))),
            ]), 7, None),
            (UNIT_3X3, 60, 144),
        ],
        ids=["z1-f5-n1-unit", "z2-f5-n2-unit", "z1-q-n2-non-monomial", "z1-f5-n3-unit"],
    )
    def test_pair_charges(self, a, pairs, inverse_pairs):
        # every product of term lists is charged len(x) len(y) pairs, and
        # each x times C_0 = 1 len(x) pairs, though that product is not made
        assert det_pairs(a) == pairs
        if inverse_pairs is None:
            assert zd_determinant(a, MAX_DET_TERM_PAIRS)[1] is None
        else:
            assert det_pairs(a, inverse=True) == inverse_pairs

    def test_a_budget_that_runs_out_inside_the_horner_loop(self, monkeypatch):
        # past det(a) and P_1 = B + C_1, short of the products of P_2 = P_1 B + C_2
        a, side_radius = UNIT_3X3, 2
        t = Nuca(TwistedElement.make(a))
        budget = SearchBudget(max_radius=side_radius, depth=1, window=1)
        full = zd_determinant(a, MAX_DET_TERM_PAIRS)
        searched = {side: search_one_sided_inverse(t, side, side_radius) for side in ("left", "right")}
        verdict = stable_injectivity_verdict(t, budget)
        assert None not in searched.values() and verdict.kind == "proven_stably_injective"
        pairs = det_pairs(a) + sum(1 for _, c in a.terms for row in c for x in row if x) + 1
        assert pairs < det_pairs(a, inverse=True)
        assert zd_determinant(a, pairs) == (full[0], None)
        calls = []
        ball_inverse = invert._regular_inverse

        def recording(*args):
            calls.append(args)
            return ball_inverse(*args)

        monkeypatch.setattr(invert, "MAX_DET_TERM_PAIRS", pairs)
        monkeypatch.setattr(invert, "_regular_inverse", recording)
        for side, hit in searched.items():
            assert search_one_sided_inverse(t, side, side_radius) == hit
        assert stable_injectivity_verdict(t, budget) == verdict
        assert calls  # a^-1 came from the ball systems

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.sampled_from([Z1, Z2, Z3]),
        field=st.sampled_from([F2, F3, Q]),
        n=st.sampled_from([1, 2, 3, 4]),
        kind=st.sampled_from(["random", "unit", "singular"]),
    )
    def test_agrees_with_leibniz(self, seed, group, field, n, kind):
        a = draw_map(random.Random(seed), group, field, n, kind).element.regular
        det, a_inv = zd_determinant(a, MAX_DET_TERM_PAIRS)
        assert det == leibniz_det(a)
        assert (a_inv is not None) == (len(det.terms) == 1)
        if kind == "unit":
            assert len(det.terms) == 1
        if kind == "singular":
            assert det.is_zero()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([Z1, Z2]),
    field=st.sampled_from([F2, F3, Q]),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["random", "unit", "singular"]),
)
def test_determinant_pruning_is_sound(seed, group, field, n, kind):
    t = draw_map(random.Random(seed), group, field, n, kind)
    det = zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS)[0]
    radii = range(3 if group == Z1 else 2)
    if len(det.terms) != 1:
        for r in radii:
            assert invert._regular_inverse(t.element.regular, FiniteSubset.ball(group, r)) is None
            for side in ("left", "right"):
                assert in_ball(t, side, r) is None
    if not det.is_zero():
        const = constant_part(t)
        for r in radii:
            assert finitely_supported_kernel(const, r) is None
    budget = SearchBudget(max_radius=radii[-1], depth=1, window=1)
    with mock.patch.object(invert, "MAX_EXTRA_LEVELS", 2):
        assert stable_injectivity_verdict(t, budget) == reference_verdict(t, budget)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([Z1, Z2]),
    field=st.sampled_from([F2, F3, Q]),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["random", "unit"]),
)
def test_plain_maps_with_a_nonzero_det_have_no_witness(seed, group, field, n, kind):
    # a map with no singular part is its own constant part, so a nonzero
    # det(a) rules out its own witness, which the verdict then skips
    t = constant_part(draw_map(random.Random(seed), group, field, n, kind))
    det = zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS)[0]
    assume(not det.is_zero())
    max_radius = 2 if group == Z1 else 1
    assert invert._first_witness_radius(t, max_radius) is None
    budget = SearchBudget(max_radius=max_radius, depth=1, window=1)
    with mock.patch.object(invert, "MAX_EXTRA_LEVELS", 2):
        assert stable_injectivity_verdict(t, budget) == reference_verdict(t, budget)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([F2, F3, Q]),
    n=st.sampled_from([1, 2]),
    kind=st.sampled_from(["random", "unit", "singular"]),
)
def test_free_group_verdict_is_the_reference_verdict(seed, field, n, kind):
    # no determinant prunes off Z^d: every search runs, the witnesses from
    # the first witness radii of both scopes
    t = draw_map(random.Random(seed), F2FREE, field, n, kind)
    budget = SearchBudget(max_radius=1 if n == 2 else 2)
    assert stable_injectivity_verdict(t, budget) == reference_verdict(t, budget)


def row_scaled_unit(rng, group, field, n, max_factors):
    """The regular part of a gen_unit unit, shifted by a site of ball(1)
    and, over Q, with its rows scaled by 1/11, 3/13 and 5/17, so that the
    lcms of their denominators differ; over F_p by 1, 2 and 3 mod p."""
    config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=max_factors)
    unit, _, _ = gen_unit(rng, config)
    scales = (Fraction(1, 11), Fraction(3, 13), Fraction(5, 17)) if field == Q else (1, 2 % field.p or 1, 3 % field.p or 1)
    d = tuple(tuple(scales[i] if i == j else 0 for j in range(n)) for i in range(n))
    shift = gre(group, field, n, [(rng.choice(group.ball(1)), d)])
    return shift * Nuca.from_matrix(unit).element.regular


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([Z1, Z2, Z3]),
    field=st.sampled_from([F2, F5, Q]),
    n=st.sampled_from([1, 2, 3]),
    max_factors=st.integers(1, 3),
)
def test_adjugate_inverse_is_the_ball_inverse(seed, group, field, n, max_factors):
    a = row_scaled_unit(random.Random(seed), group, field, n, max_factors)
    det, a_inv = zd_determinant(a, MAX_DET_TERM_PAIRS)
    assert det == leibniz_det(a) and len(det.terms) == 1
    one = GroupRingElement.one(group, field, n)
    assert a_inv * a == one and a * a_inv == one
    radius = max(group.norm(g) for g, _ in a_inv.terms)
    # the ball systems are cheap enough below about 1,200 unknowns
    if n * n * group.ball_size(radius) <= 1200:
        assert invert._regular_inverse(a, FiniteSubset.ball(group, radius)) == a_inv
        if radius:
            assert invert._regular_inverse(a, FiniteSubset.ball(group, radius - 1)) is None


def test_adjugate_inverse_of_rows_with_different_denominators():
    # a = [[1/2, x/3], [0, 2/5]]: D = (6, 5), B = [[3, 2x], [0, 2]], so
    # det(B) = 6 and det(a) = 6 / 30 = 1/5, and a^-1 = [[2, -5x/3], [0, 5/2]]
    a = gre(Z1, Q, 2, [
        ((0,), ((Fraction(1, 2), 0), (0, Fraction(2, 5)))),
        ((1,), ((0, Fraction(1, 3)), (0, 0))),
    ])
    assert zd_determinant(a, MAX_DET_TERM_PAIRS) == (
        gre(Z1, Q, None, [((0,), Fraction(1, 5))]),
        gre(Z1, Q, 2, [
            ((0,), ((2, 0), (0, Fraction(5, 2)))),
            ((1,), ((0, Fraction(-5, 3)), (0, 0))),
        ]),
    )


def test_adjugate_inverse_is_none_for_a_non_monomial_det():
    a = gre(Z1, F5, 1, [((0,), ((1,),)), ((1,), ((1,),))])
    assert zd_determinant(a, MAX_DET_TERM_PAIRS) == (gre(Z1, F5, None, [((0,), 1), ((1,), 1)]), None)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([Z1, Z2]),
    field=st.sampled_from([F2, F5, Q]),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["unit", "random", "singular"]),
    side=st.sampled_from(["left", "right"]),
)
def test_search_past_the_det_budget_falls_back_to_balls(seed, group, field, n, kind, side):
    t = draw_map(random.Random(seed), group, field, n, kind)
    a = t.element.regular
    max_radius = 2 if group == Z1 else 1
    window = FiniteSubset.ball(group, max_radius)
    params = InverseSearchParams.make(side, window, window)
    searched = search_one_sided_inverse(t, side, max_radius)
    solved = solve_one_sided_inverse(t, params)
    # budget 0 leaves no determinant; the determinant's own pairs leave
    # none for the inverse once n >= 2
    for budget in (0, det_pairs(a)):
        calls = []
        ball_inverse = invert._regular_inverse

        def recording(*args):
            calls.append(args)
            return ball_inverse(*args)

        with mock.patch.object(invert, "MAX_DET_TERM_PAIRS", budget), mock.patch.object(
            invert, "_regular_inverse", recording
        ):
            assert search_one_sided_inverse(t, side, max_radius) == searched
            assert solve_one_sided_inverse(t, params) == solved
        if kind == "unit":
            assert bool(calls) == (budget == 0 or n >= 2)


def block_map(k):
    """Over Z^1 and F_5 with n = 1: 1 plus 1 at each site 0 .. k-1, so
    a^-1 = 1 and S = t reads and writes exactly those k sites; M = 2 I."""
    one = GroupRingElement.one(Z1, F5, 1)
    return Nuca(TwistedElement.make(one, [((i,), one) for i in range(k)]))


class TestBlockSizeLimit:
    def test_limit_is_the_boundary(self):
        t = block_map(MAX_BLOCK_COORDINATES)
        cert, radius = search_left_inverse(t, MAX_BLOCK_COORDINATES)
        assert radius == MAX_BLOCK_COORDINATES - 1
        assert verify_identity(t, cert)

    def test_refused_before_the_block_is_built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(invert, "_block", lambda *args: calls.append(("_block", args)))
        monkeypatch.setattr(invert, "inverse", lambda *args: calls.append(("inverse", args)))
        t, r = block_map(MAX_BLOCK_COORDINATES + 1), MAX_BLOCK_COORDINATES + 1
        message = f"block of {r} coordinates on the {r} sites.*the limit is {MAX_BLOCK_COORDINATES}"
        for side in ("left", "right"):
            with pytest.raises(UsageError, match=message):
                search_one_sided_inverse(t, side, r)
        ball = FiniteSubset.ball(Z1, r)
        with pytest.raises(UsageError, match=message):
            solve_one_sided_inverse(t, InverseSearchParams.make("left", ball, ball))
        with pytest.raises(UsageError, match=message):
            stable_injectivity_verdict(t, SearchBudget(max_radius=r, depth=0, window=1))
        assert calls == []


def other_map():
    """A Z^2 map over Q with det(a) = 1 + x, not a unit, and a singular part."""
    a = gre(Z2, Q, 2, [((0, 0), ((1, 0), (0, 1))), ((1, 0), ((1, 0), (0, 0)))])
    return Nuca(TwistedElement.make(a, [((0, 1), gre(Z2, Q, 2, [((0, 0), ((0, 1), (0, 0)))]))]))


class TestDeterminantPruning:
    """Which searches run, seen through recorders around the real ones."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        inverse, first = invert._regular_inverse, invert._first_witness_radius
        kernel = invert.finitely_supported_kernel

        def inverse_recorder(a, memory):
            calls.append(("inverse", a, max(a.group.norm(g) for g in memory)))
            return inverse(a, memory)

        def first_recorder(t, max_radius):
            calls.append(("witness", t, max_radius))
            return first(t, max_radius)

        def kernel_recorder(t, r):
            calls.append(("kernel", t, r))
            return kernel(t, r)

        monkeypatch.setattr(invert, "_regular_inverse", inverse_recorder)
        monkeypatch.setattr(invert, "_first_witness_radius", first_recorder)
        monkeypatch.setattr(invert, "finitely_supported_kernel", kernel_recorder)
        return calls

    @pytest.mark.parametrize(
        "t", [decoy_nuca(Z1, F2, 1), decoy_nuca(Z2, F3, 2), other_map()], ids=["decoy-z1", "decoy-z2", "other"]
    )
    def test_no_inverse_and_no_constant_part_search(self, searches, t):
        budget = SearchBudget(max_radius=2, depth=1, window=1)
        verdict = stable_injectivity_verdict(t, budget)
        assert verdict.kind == "bounded_evidence"
        # det(a) != 0: no constant-part system runs and no witness is
        # built; t's own witness system runs, once, up to radius 2, only
        # if t has a singular part, as a decoy is its own constant part
        if t.element.singular:
            assert [(kind, r) for kind, _, r in searches] == [("witness", 2)]
            assert searches[0][1] is t
        else:
            assert searches == []
        searches.clear()
        assert search_one_sided_inverse(t, "left", 2) is None
        assert search_one_sided_inverse(t, "right", 2) is None
        assert searches == []

    def test_unit_det_map_runs_no_ball_search(self, searches):
        # a^-1 comes from the determinant's coefficients, so no ball system
        # is solved; the certificate leaves no witness to search for
        u, v = f3_nuca_pair()
        verdict = stable_injectivity_verdict(u, SearchBudget(max_radius=3))
        assert verdict.certificate == v and verdict.certificate_radius == 1
        assert searches == []
        assert search_one_sided_inverse(v, "right", 2) == (u, 1)
        ball = FiniteSubset.ball(Z1, 1)
        assert solve_one_sided_inverse(v, InverseSearchParams.make("right", ball, ball)) == u
        assert searches == []

    @pytest.mark.parametrize("group, field, n", [(Z2, F5, 2), (Z2, Q, 3), (Z3, F2, 2)])
    def test_units_from_gen_unit_run_no_ball_search(self, searches, group, field, n):
        config = SuiteConfig(seed=0, trials=1, group=group, field=field, n=n, max_factors=3)
        unit, inverse, _ = gen_unit(random.Random(7), config)
        t = Nuca.from_matrix(unit)
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=3, depth=0, window=1))
        assert verdict.kind == "proven_stably_injective"
        assert verdict.certificate == Nuca.from_matrix(inverse)
        assert search_one_sided_inverse(t, "right", 3)[0] == verdict.certificate
        assert searches == []

    def test_free_group_runs_every_search(self, searches):
        # no determinant off Z^d: both scopes' witness systems run, t's
        # first, each once up to the largest radius
        t = decoy_nuca(F2FREE, F2, 1)
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=1))
        assert verdict.kind == "bounded_evidence"
        assert [(kind, r) for kind, _, r in searches] == [
            ("inverse", 0), ("inverse", 1), ("witness", 1), ("witness", 1)
        ]
        assert searches[2][1] is t and searches[3][1] == constant_part(t)

    def test_witness_verdicts_build_one_witness(self, searches):
        # the witness is made once, at the first radius; the constant part
        # is searched only below t's first radius
        t = nilpotent_nuca()
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=2))
        assert verdict.witness_scope == "self" and verdict.witness_radius == 0
        assert [(kind, r) for kind, _, r in searches] == [("witness", 2), ("kernel", 0)]
        searches.clear()
        a = gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))])
        fix = gre(Z1, F2, 2, [((0,), ((1, 0), (0, 1)))])
        t = Nuca(TwistedElement.make(a, [((0,), fix)]))
        verdict = stable_injectivity_verdict(t, SearchBudget(max_radius=2))
        assert verdict.witness_scope == "constant_part" and verdict.witness_radius == 0
        assert [(kind, r) for kind, _, r in searches] == [("witness", 2), ("witness", 0), ("kernel", 0)]
        assert searches[0][1] is t and searches[1][1] == searches[2][1] == constant_part(t)

    def test_verdict_computes_the_determinant_once(self, monkeypatch):
        # one call gives det(a), which serves the certificate, the
        # inverse-search prune and the constant-part prune, and a^-1, made
        # only for a monomial det(a)
        calls = []

        def counting(a, max_term_pairs):
            calls.append(zd_determinant(a, max_term_pairs))
            return calls[-1]

        monkeypatch.setattr(invert, "zd_determinant", counting)
        budget = SearchBudget(max_radius=2, depth=1, window=1)
        verdict = stable_injectivity_verdict(decoy_nuca(Z1, F3, 1), budget)
        assert verdict.kind == "bounded_evidence"
        assert len(calls) == 1 and len(calls[0][0].terms) > 1 and calls[0][1] is None
        calls.clear()
        u, v = f3_nuca_pair()
        assert stable_injectivity_verdict(u, budget).certificate == v
        assert len(calls) == 1 and calls[0][1] == v.element.regular
        calls.clear()
        assert search_one_sided_inverse(u, "left", 2) == (v, 1)
        assert len(calls) == 1 and calls[0][1] == v.element.regular

    def test_det_within_the_budget_and_the_inverse_past_it(self, searches, monkeypatch):
        # a = [[1, x], [0, 1]] has det(a) = 1; the singular part -a at 0
        # zeroes the rule there, so S = a^-1 t has the block M = 0 and t no
        # certificate at any radius
        a = gre(Z1, F3, 2, [((0,), ((1, 0), (0, 1))), ((1,), ((0, 1), (0, 0)))])
        t = Nuca(TwistedElement.make(a, [((0,), -a)]))
        budget = SearchBudget(max_radius=2, depth=1, window=1)
        full = stable_injectivity_verdict(t, budget)
        assert full.kind == "proven_not_injective" and full.witness_scope == "self"
        assert [kind for kind, _, _ in searches] == ["witness", "kernel"]
        pairs = det_pairs(a)
        assert zd_determinant(a, pairs) == (GroupRingElement.one(Z1, F3), None)
        searches.clear()
        monkeypatch.setattr(invert, "MAX_DET_TERM_PAIRS", pairs)
        assert stable_injectivity_verdict(t, budget) == full
        # a^-1 comes from the ball systems, found at radius 1; det(a) != 0
        # still rules out the constant part's witness, so only t's runs
        assert [(kind, r) for kind, _, r in searches] == [
            ("inverse", 0), ("inverse", 1), ("witness", 2), ("kernel", full.witness_radius)
        ]
        assert searches[2][1] is t

    def test_past_the_det_budget_every_search_runs(self, searches, monkeypatch):
        monkeypatch.setattr(invert, "MAX_DET_TERM_PAIRS", 0)
        t = decoy_nuca(Z1, F2, 1)
        budget = SearchBudget(max_radius=1, depth=1, window=1)
        verdict = stable_injectivity_verdict(t, budget)
        # no det(a) to prune with: the ball systems for a^-1 and both
        # scopes' witness systems run
        assert [(kind, r) for kind, _, r in searches] == [
            ("inverse", 0), ("inverse", 1), ("witness", 1), ("witness", 1)
        ]
        assert searches[2][1] is t and searches[3][1] == constant_part(t)
        assert verdict == reference_verdict(t, budget)
