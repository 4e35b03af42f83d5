import random

import pytest
from hypothesis import given, settings, strategies as st

from d1ring.errors import UsageError
from d1ring.exactalg import Matrix, solve
from d1ring.experiments import SuiteConfig, decoy_nuca, gen_unit, rand_twisted
from d1ring.groupring import GroupRingElement
from d1ring.groups import FiniteSubset, GroupSpec
from d1ring import invert
from d1ring.invert import (
    MAX_UNKNOWNS,
    InverseSearchParams,
    SearchBudget,
    check_search_radius,
    finitely_supported_kernel,
    kernel_tower,
    search_left_inverse,
    search_one_sided_inverse,
    search_radius_limit,
    solve_one_sided_inverse,
    stable_injectivity_verdict,
    verify_identity,
)
from d1ring.nuca import Nuca
from d1ring.twisted import TwistedElement

from conftest import F2, F2FREE, F3, F5, GROUPS, Q, Z1, Z2, f3_nuca_pair, gre, nilpotent_nuca


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

    def test_refused_before_any_work(self, monkeypatch):
        # the identity has an inverse at radius 0, but a search to radius 2
        # in free:26 is refused before radius 0 runs
        calls = []
        record = lambda *args: calls.append(args)
        monkeypatch.setattr(invert, "_inverse_in_ball", record)
        monkeypatch.setattr(invert, "finitely_supported_kernel", record)
        monkeypatch.setattr(invert, "kernel_tower", record)
        t = Nuca.identity(GroupSpec.free(26), F3, 1)
        with pytest.raises(UsageError, match="limit"):
            stable_injectivity_verdict(t, SearchBudget(max_radius=2))
        with pytest.raises(UsageError, match="limit"):
            search_one_sided_inverse(t, "right", 2)
        assert calls == []


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


class TestFinitelySupportedKernel:
    def test_zero_map_first_basis_witness(self):
        t = Nuca.zero(Z1, F3, 2)
        w = finitely_supported_kernel(t, 0)
        assert w.base == (0, 0)
        assert w.deviation == (((0,), (1, 0)),)

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
        assert rep.all_stable_dims_zero()

    def test_free_group_unsupported(self):
        t = Nuca.identity(F2FREE, F2, 1)
        with pytest.raises(UsageError):
            kernel_tower(t, 2, 2)

    def test_tower_consistency_with_certificate(self):
        # a left-invertible map has no kernel threads at any level
        t, _ = f3_nuca_pair()
        assert search_left_inverse(t, 2) is not None
        rep = kernel_tower(t, 4, 3)
        assert rep.all_stable_dims_zero()


class TestVerdict:
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
    a = Matrix.zeros(fld, len(keys), len(unknowns))
    for col, coords in enumerate(columns):
        for k, v in coords:
            a.data[index[k], col] = v
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
    # units with a window around the known inverse give solvable systems,
    # often with free variables; random maps and windows mostly give none
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
