import os
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from d1ring import experiments, invert
from d1ring.errors import UsageError
from d1ring.exactalg import FieldSpec
from d1ring.experiments import (
    SuiteConfig,
    decoy_nuca,
    element_radius,
    gen_unit,
    rand_twisted,
    run_direct_finiteness,
    run_surjunctivity_pipeline,
)
from d1ring.groupring import GroupRingElement
from d1ring.groups import GroupSpec
from d1ring.invert import SearchBudget
from d1ring.nuca import Nuca
from d1ring.twisted import TwistedElement, TwistedMatrix, embed, f_shuffle_inv, matrix_radius

from conftest import F2, F2FREE, F3, F5, Q, Z1, Z2, f3_pair, gre


def cfg(**kw):
    defaults = dict(seed=42, trials=4, group=Z1, field=F3, n=1)
    defaults.update(kw)
    return SuiteConfig(**defaults)


class TestGenUnit:
    def test_empty_word_is_identity_pair(self):
        unit, inverse, word = gen_unit(random.Random(0), cfg(), n_factors=0)
        ident = TwistedMatrix.identity(1, Z1, F3)
        assert unit == ident and inverse == ident and word == []

    @pytest.mark.parametrize("n_factors", [-3, experiments.MAX_SUITE_FACTORS + 1])
    def test_word_length_out_of_range_is_refused(self, n_factors):
        with pytest.raises(UsageError, match=f"n_factors must be >= 0 and <= {experiments.MAX_SUITE_FACTORS}"):
            gen_unit(random.Random(0), cfg(), n_factors=n_factors)

    @pytest.mark.parametrize("n_factors", [2.5, True, "2"])
    def test_word_length_must_be_an_int(self, n_factors):
        with pytest.raises(UsageError, match="n_factors must be an int"):
            gen_unit(random.Random(0), cfg(), n_factors=n_factors)

    def test_unipotent_factor_matches_f3_pair(self):
        # the generator recipe applied to the fixed singular part gives
        # exactly the known inverse pair
        u, v = f3_pair()
        one = TwistedElement.one(Z1, F3)
        nil = TwistedElement.make(
            GroupRingElement.zero(Z1, F3), [((0,), gre(Z1, F3, None, [((1,), 1)]))]
        )
        assert (nil * nil).is_zero()
        assert one + nil == u
        assert one - nil == v

    def test_two_monomials_invert_to_negated_sum(self):
        # [1] * [2] has inverse [-3]
        m1 = TwistedElement(GroupRingElement.monomial(Z1, F2, None, (1,), 1), ())
        m2 = TwistedElement(GroupRingElement.monomial(Z1, F2, None, (2,), 1), ())
        inv = TwistedElement(GroupRingElement.monomial(Z1, F2, None, (-3,), 1), ())
        assert ((m1 * m2) * inv).is_one()

    @pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda f: f.label())
    @pytest.mark.parametrize("n", [1, 2])
    def test_random_units_verify(self, field, n):
        config = cfg(field=field, n=n, group=Z2)
        for i in range(10):
            unit, inverse, word = gen_unit(random.Random(i), config)
            assert (unit @ inverse).is_identity()
            assert (inverse @ unit).is_identity()
            assert word


class TestDirectFiniteness:
    def test_single_trial_deterministic(self):
        config = cfg(trials=1)
        rep = run_direct_finiteness(config)
        assert rep.passes == 1 and rep.failures == 0
        again = run_direct_finiteness(config)
        assert rep.outcomes == again.outcomes

    def test_n_is_limited(self):
        assert cfg(n=experiments.MAX_SUITE_N).n == experiments.MAX_SUITE_N
        with pytest.raises(UsageError, match="size limit"):
            cfg(n=experiments.MAX_SUITE_N + 1)

    def test_max_factors_is_limited(self):
        limit = experiments.MAX_SUITE_FACTORS
        assert cfg(max_factors=limit).max_factors == limit
        with pytest.raises(UsageError, match="word-length limit"):
            cfg(max_factors=limit + 1)

    def test_trials_must_be_positive(self):
        with pytest.raises(UsageError):
            cfg(trials=0)

    @pytest.mark.parametrize("field_name, value", [
        ("trials", True), ("trials", 2.0), ("seed", False), ("seed", 1.5), ("n", True),
        ("support_radius", 1.0), ("max_factors", True), ("decoy_every", 0.0),
    ])
    def test_config_field_types(self, field_name, value):
        # ints must be plain ints, not bools or floats
        with pytest.raises(UsageError, match=field_name):
            cfg(**{field_name: value})

    @pytest.mark.parametrize("part, value, kind", [
        ("group", "Zd:1", "GroupSpec"), ("field", "Fp:5", "FieldSpec"), ("budget", None, "SearchBudget"),
    ])
    def test_config_part_types(self, part, value, kind):
        # a label is not its spec: the suites would fail on it with AttributeError
        with pytest.raises(UsageError, match=f"{part} must be a {kind}"):
            cfg(**{part: value})

    def test_many_trials_all_pass(self):
        rep = run_direct_finiteness(cfg(trials=40, group=Z2, field=F5, n=2))
        assert rep.failures == 0
        assert len(rep.outcomes) == 40
        assert [o["trial"] for o in rep.outcomes] == list(range(40))

    def test_d1_threads_is_ignored(self):
        # suites run their trials in one thread; D1_THREADS once sized a
        # thread pool, and setting it must leave the outcomes as they are
        config = cfg(trials=6, group=Z1, field=F2, n=2)
        unset = run_direct_finiteness(config)
        with mock.patch.dict(os.environ, {"D1_THREADS": "4"}):
            with_variable = run_direct_finiteness(config)
        assert unset.outcomes == with_variable.outcomes


class TestProductCount:
    def test_matmuls_per_trial(self, monkeypatch):
        # gen_unit builds the unit and its inverse by row and column
        # operations, with no matrix product, and ends each draw in one
        # check of u v, decided on its accumulator; the trial then makes one
        # more check, for v u.  A rejected draw also ends in a check, so the
        # draws are split at the checks.  No product is built only to be
        # compared with the identity ("!" never occurs), and none at all
        # ("@" never occurs).
        events = []
        matmul, check, is_identity = (
            TwistedMatrix.__matmul__, TwistedMatrix.product_is_identity, TwistedMatrix.is_identity
        )
        gen = gen_unit

        def tracked_gen(*args):
            events.append("gen")
            out = gen(*args)
            events.append(len(out[2]))
            return out

        monkeypatch.setattr(TwistedMatrix, "__matmul__", lambda a, b: events.append("@") or matmul(a, b))
        monkeypatch.setattr(TwistedMatrix, "product_is_identity", lambda a, b: events.append("?") or check(a, b))
        monkeypatch.setattr(TwistedMatrix, "is_identity", lambda m: events.append("!") or is_identity(m))
        monkeypatch.setattr(experiments, "gen_unit", tracked_gen)
        rep = run_direct_finiteness(cfg(trials=12, group=F2FREE, field=F5, n=2, max_factors=3))
        assert rep.failures == 0

        trials = "".join(e if isinstance(e, str) else f"<{e}>" for e in events).split("gen")[1:]
        assert len(trials) == 12
        for trial, outcome in zip(trials, rep.outcomes):
            draws, rest = trial.split(">")
            draws, length = draws.split("<")
            assert int(length) == len(outcome["word"])
            assert draws.endswith("?")
            *rejected, accepted, _ = draws.split("?")
            assert all(d == "" for d in rejected)
            assert accepted == ""
            assert rest == "?"
        assert "@" not in events and "!" not in events
        assert any(len(o["word"]) > 1 for o in rep.outcomes)


class TestDrawCosts:
    def test_words_encoded_once_and_constants_shared(self, monkeypatch, cold_caches):
        # a monomial word's sites and coefficients are encoded once, for the
        # draw that is accepted, and 1 and 0 are made once per (group,
        # field, radius), not per trial; field.inv runs once per monomial
        # site of every draw, so it counts the rejected draws' sites too
        counts = Counter()

        def counted(name, f):
            return lambda *args: counts.update([name]) or f(*args)

        monkeypatch.setattr(GroupSpec, "encode_element", counted("site", GroupSpec.encode_element))
        monkeypatch.setattr(FieldSpec, "encode_scalar", counted("coeff", FieldSpec.encode_scalar))
        monkeypatch.setattr(FieldSpec, "inv", counted("drawn", FieldSpec.inv))
        for name in ("one", "zero"):
            monkeypatch.setattr(TwistedElement, name, staticmethod(counted(name, getattr(TwistedElement, name))))
        rep = run_direct_finiteness(cfg(trials=40, group=F2FREE, field=F5, n=2, max_factors=3))
        assert rep.failures == 0
        accepted = sum(len(w["sites"]) for o in rep.outcomes for w in o["word"] if w["kind"] == "monomial")
        assert counts["site"] == counts["coeff"] == accepted > 0
        assert counts["drawn"] > accepted
        assert counts["one"] == counts["zero"] == 1


def reference_gen_unit(rng, config, n_factors=None):
    """gen_unit by its earlier route: each generator built as its forward
    and backward n x n grid, and the chains multiplied with
    TwistedMatrix.__matmul__, with the same RNG calls and words."""
    group, field, n = config.group, config.field, config.n
    ball, pool, _, _ = experiments._unit_sites(group, field, config.support_radius)
    one, zero = TwistedElement.one(group, field, None), TwistedElement.zero(group, field, None)

    def monomial(g, c):
        return embed(GroupRingElement(group, field, None, ((g, c),)))

    def grid(entry):
        return TwistedMatrix(n, tuple(tuple(entry(a, b) for b in range(n)) for a in range(n)))

    for _ in range(20):
        factors = []
        count = n_factors if n_factors is not None else rng.randint(1, config.max_factors)
        for _ in range(count):
            kind = rng.choice(["monomial", "unipotent"] + (["elementary"] if n >= 2 else []))
            if kind == "monomial":
                sites = [rng.choice(ball) for _ in range(n)]
                coeffs = [experiments.rand_scalar(rng, field, nonzero=True) for _ in range(n)]
                fwd = grid(lambda a, b: monomial(sites[a], coeffs[a]) if a == b else zero)
                bwd = grid(
                    lambda a, b: monomial(group.inverse(sites[a]), field.inv(coeffs[a])) if a == b else zero
                )
                word = {
                    "kind": "monomial",
                    "sites": [group.encode_element(g) for g in sites],
                    "coeffs": [field.encode_scalar(c) for c in coeffs],
                }
            elif kind == "unipotent":
                slot = rng.randrange(n)
                site = rng.choice(ball)
                part = experiments._draw_groupring(rng, group, field, None, pool, 2)
                plus, minus = (
                    (TwistedElement(one.regular, ((site, part),)), TwistedElement(one.regular, ((site, -part),)))
                    if part else (one, one)
                )
                fwd, bwd = (
                    grid(lambda a, b: x if a == b == slot else one if a == b else zero) for x in (plus, minus)
                )
                word = {"kind": "unipotent", "slot": slot}
            else:
                i = rng.randrange(n)
                j = rng.choice([x for x in range(n) if x != i])
                w = experiments._draw_twisted(rng, group, field, None, ball, 2, 2)
                fwd, bwd = (
                    grid(lambda a, b: one if a == b else x if (a, b) == (i, j) else zero) for x in (w, -w)
                )
                word = {"kind": "elementary", "i": i, "j": j}
            factors.append((fwd, bwd, word))

        if not factors:
            ident = TwistedMatrix.identity(n, group, field, None)
            return ident, ident, []
        unit = factors[0][0]
        for fwd, _, _ in factors[1:]:
            unit = unit @ fwd
        inverse = factors[-1][1]
        for _, bwd, _ in reversed(factors[:-1]):
            inverse = bwd @ inverse
        if (unit @ inverse).is_identity():
            return unit, inverse, [w for _, _, w in factors]
    raise AssertionError("degenerate draws")


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([F2FREE, Z1, Z2]),
    field=st.sampled_from([F2, F5, Q]),
    n=st.integers(1, 3),
    max_factors=st.integers(1, 4),
    support_radius=st.integers(0, 1),
    empty=st.booleans(),
)
def test_gen_unit_is_the_grid_product_route(seed, group, field, n, max_factors, support_radius, empty):
    # the row and column operations give the unit and inverse the grids
    # and matrix products gave, entry for entry and printed alike, with
    # the same words, and leave the RNG where that route left it
    config = cfg(group=group, field=field, n=n, max_factors=max_factors, support_radius=support_radius)
    n_factors = 0 if empty else None
    rng, ref_rng = random.Random(seed), random.Random(seed)
    unit, inverse, word = gen_unit(rng, config, n_factors)
    ref_unit, ref_inverse, ref_word = reference_gen_unit(ref_rng, config, n_factors)
    assert word == ref_word
    assert unit == ref_unit and inverse == ref_inverse
    assert repr(unit) == repr(ref_unit) and repr(inverse) == repr(ref_inverse)
    assert rng.getstate() == ref_rng.getstate()


class TestPipeline:
    def test_fixed_f3_style_config(self):
        rep = run_surjunctivity_pipeline(cfg(trials=5))
        assert rep.failures == 0
        assert all(o["ok"] for o in rep.outcomes)

    def test_decoy_flags_bounded_evidence(self):
        rep = run_surjunctivity_pipeline(cfg(trials=3, decoy_every=3, field=F2))
        decoys = [o for o in rep.outcomes if o.get("decoy")]
        assert len(decoys) == 1
        assert decoys[0]["verdict"] == "bounded_evidence"
        assert decoys[0]["ok"]
        assert rep.failures == 0

    def test_free_group_trials(self):
        rep = run_surjunctivity_pipeline(cfg(trials=4, group=F2FREE, field=F5))
        assert rep.failures == 0

    @pytest.mark.parametrize("group", [Z2, F2FREE], ids=lambda g: g.label())
    def test_trial_checks_each_identity_once(self, monkeypatch, group):
        # cert tau = 1 is checked in the search, on the certificate it
        # returns, and tau cert = 1 in the trial; nothing is checked twice
        calls, hits = [], []
        verify, search = invert.verify_identity, experiments.search_left_inverse

        def recording(u, v):
            calls.append((u, v))
            return verify(u, v)

        def capturing(tau, max_radius):
            hit = search(tau, max_radius)
            hits.append((tau, hit))
            return hit

        monkeypatch.setattr(invert, "verify_identity", recording)
        monkeypatch.setattr(experiments, "verify_identity", recording)
        monkeypatch.setattr(experiments, "search_left_inverse", capturing)
        config = cfg(seed=1, trials=1, group=group, field=F5, n=2, budget=SearchBudget(max_radius=2))
        assert run_surjunctivity_pipeline(config).ok
        ((tau, (cert, _)),) = hits
        assert len(calls) == 2
        (first, second) = calls
        assert first[0] is cert and first[1] is tau
        assert second[0] is tau and second[1] is cert


class TestSearchSizeLimit:
    def test_oversized_budget_refused_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "gen_unit", lambda *args: calls.append(args))
        config = cfg(trials=3, group=GroupSpec.free(26), budget=SearchBudget(max_radius=2))
        with pytest.raises(UsageError, match="limit"):
            run_surjunctivity_pipeline(config)
        assert calls == []

    def test_decoy_tower_past_the_limit_refused_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "gen_unit", lambda *args: calls.append(args))
        config = cfg(trials=3, group=Z2, decoy_every=2, budget=SearchBudget(max_radius=0, depth=10**6))
        with pytest.raises(UsageError, match="largest depth within it"):
            run_surjunctivity_pipeline(config)
        assert calls == []
        # without decoys no tower runs, so the depth is not limited
        monkeypatch.undo()
        assert run_surjunctivity_pipeline(replace(config, decoy_every=0)).failures == 0

    def test_suite_without_searches_is_not_limited(self):
        rep = run_direct_finiteness(cfg(trials=2, group=GroupSpec.free(26)))
        assert rep.failures == 0

    def test_trial_past_the_limit_is_a_failed_trial(self, monkeypatch):
        # with room for radius 0 only, units whose inverse needs radius 1
        # are recorded as failed trials and the suite still reports
        monkeypatch.setattr(invert, "MAX_UNKNOWNS", 2)
        rep = run_surjunctivity_pipeline(
            cfg(trials=6, field=F5, max_factors=3, budget=SearchBudget(max_radius=0))
        )
        assert len(rep.outcomes) == 6
        limited = [o for o in rep.outcomes if not o["ok"]]
        assert limited
        assert all("largest within the search size limit" in o["reason"] for o in limited)


class TestBlindSearchFailure:
    """A blind left search that finds nothing fails its trial with the
    suite's own payload, in a fixed key order."""

    @pytest.fixture(autouse=True)
    def no_inverse(self, monkeypatch):
        self.searches = []
        monkeypatch.setattr(
            experiments, "search_left_inverse", lambda t, r: self.searches.append(r)
        )

    def test_pipeline_outcome(self):
        from d1ring.envelope import twisted_payload

        config = cfg(trials=3, group=Z2, field=F5, n=2)
        rep = run_surjunctivity_pipeline(config)
        assert (rep.passes, rep.failures) == (0, 3)
        assert len(self.searches) == 3
        for i, o in enumerate(rep.outcomes):
            unit, _, word = gen_unit(experiments._trial_rng(config, i), config)
            assert list(o) == ["trial", "decoy", "word", "ok", "reason", "unit"]
            assert o["trial"] == i and o["decoy"] is False and o["word"] == word
            assert o["ok"] is False
            assert o["reason"] == "no left inverse found within budget"
            assert o["unit"] == twisted_payload(Nuca.from_matrix(unit).element)


class TestReportDeterminism:
    def test_bitwise_replay_modulo_timing(self):
        from dataclasses import replace

        from d1ring.envelope import suite_report_payload

        config = cfg(trials=5, group=Z2, field=F2, n=2)
        a, b = (suite_report_payload(replace(run_direct_finiteness(config), wall_clock_s=None)) for _ in range(2))
        assert a == b


def test_element_radius():
    u, _ = f3_pair()
    assert element_radius(u) == 1
    assert element_radius(TwistedElement.one(Z1, F3)) == 0


@pytest.mark.parametrize("group", [Z2, F2FREE], ids=lambda g: g.label())
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_radius_is_the_reassembled_radius(group, n):
    # _search_radius reads the known inverse's radius off its entries; it
    # is the radius of the reassembled matrix-coefficient element
    rng = random.Random(f"radius|{group.label()}|{n}")
    for _ in range(20):
        m = TwistedMatrix(n, tuple(
            tuple(rand_twisted(rng, group, F5, None, radius=rng.randint(0, 2)) for _ in range(n))
            for _ in range(n)
        ))
        assert matrix_radius(m) == element_radius(f_shuffle_inv(m))
    config = cfg(group=group, field=F5, n=n, budget=SearchBudget(max_radius=0))
    unit, inverse, _ = gen_unit(random.Random(7), config)
    assert experiments._search_radius(config, inverse)[0] == element_radius(f_shuffle_inv(inverse))


@pytest.mark.parametrize("group", [Z2, F2FREE], ids=lambda g: g.label())
@pytest.mark.parametrize("field", [F5, Q], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("max_factors", [1, 2, 3, 4])
def test_gen_unit_builds_canonical_entries(group, field, n, max_factors):
    # the factors skip the checking constructors, so every entry of the
    # unit and its inverse must equal, and print as, its rebuild through them
    def rebuilt(e):
        def part(a):
            return GroupRingElement.from_terms(group, field, None, a.terms)

        return TwistedElement.make(part(e.regular), [(g, part(q)) for g, q in e.singular])

    config = cfg(group=group, field=field, n=n, max_factors=max_factors)
    for i in range(15):
        unit, inverse, word = gen_unit(random.Random(i), config)
        assert 1 <= len(word) <= max_factors
        for m in (unit, inverse):
            for row in m.entries:
                for e in row:
                    assert e == rebuilt(e)
                    assert repr(e) == repr(rebuilt(e))


def test_decoy_has_expected_shape():
    t = decoy_nuca(Z2, F5, 2)
    assert t.n == 2
    assert len(t.element.regular.terms) == 2
    assert not t.element.singular
