"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All equality checks are exact; the stated wall-clock bounds are
asserted with time.monotonic.
"""

import contextlib
import io
import random
import time

import pytest

from d1ring.experiments import (
    SuiteConfig,
    decoy_nuca,
    rand_twisted,
    run_direct_finiteness,
)
from d1ring.groups import FiniteSubset
from d1ring.invert import (
    finitely_supported_kernel,
    kernel_tower,
    search_left_inverse,
    verify_identity,
)
from d1ring.nuca import Configuration, Nuca, basis_configuration
from d1ring.twisted import TwistedElement, embed, f_shuffle, f_shuffle_inv

from conftest import F2, F3, F5, Q, Z1, Z2, F2FREE, f3_nuca_pair, nilpotent_nuca
from oracles import field_modulus, naive_twisted_mul, plain_twisted

RING_CONFIGS = [
    (g, f)
    for g in (Z1, Z2, F2FREE)
    for f in (F2, F5, Q)
]


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _seeded(group, field, tag: str) -> random.Random:
    return random.Random(f"{group.label()}|{field.label()}|{tag}")


def test_criterion_01_twisted_ring_axioms():
    start = time.monotonic()
    checked = 0
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "axioms")
        one = TwistedElement.one(group, field)
        for _ in range(500):
            u = rand_twisted(rng, group, field, None, radius=2)
            v = rand_twisted(rng, group, field, None, radius=2)
            w = rand_twisted(rng, group, field, None, radius=2)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w
            assert one * u == u and u * one == u
            checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 60.0,
        f"ring axioms exact on {checked} triples across {len(RING_CONFIGS)} configs "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "oracle")
        p = field_modulus(field)
        for _ in range(200):
            u = rand_twisted(rng, group, field, None, radius=2)
            v = rand_twisted(rng, group, field, None, radius=2)
            prod = u * v
            reg, sing = naive_twisted_mul(group.kind, p, plain_twisted(u), plain_twisted(v))
            assert dict(prod.regular.terms) == reg
            assert {g: dict(part.terms) for g, part in prod.singular} == sing
            checked += 1
    elapsed = time.monotonic() - start
    report(
        2,
        elapsed < 30.0,
        f"mul agrees with the brute-force oracle on {checked} pairs ({elapsed:.1f}s < 30s)",
    )


def test_criterion_03_embedding():
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "embed")
        for _ in range(200):
            from d1ring.experiments import rand_groupring

            a = rand_groupring(rng, group, field, None, radius=1)
            b = rand_groupring(rng, group, field, None, radius=1)
            assert embed(a * b) == embed(a) * embed(b)
            assert embed(a + b) == embed(a) + embed(b)
            if embed(a) == embed(b):
                assert a == b
    report(3, True, "embedding is an exact ring homomorphism on 200 pairs per config")


def test_criterion_04_f_isomorphism():
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "fshuffle")
        for _ in range(200):
            x = rand_twisted(rng, group, field, 2, radius=1)
            y = rand_twisted(rng, group, field, 2, radius=1)
            assert f_shuffle_inv(f_shuffle(x)) == x
            assert f_shuffle(x * y) == f_shuffle(x) @ f_shuffle(y)
    report(4, True, "entry-shuffle isomorphism round-trips and transports products (n=2, 200 pairs per config)")


def _rand_configuration(rng, group, field, n, radius=1):
    pool = group.ball(radius)
    base = [rng.randrange(field.p) if field.kind == "Fp" else rng.randint(-2, 2) for _ in range(n)]
    dev = [
        (rng.choice(pool), [rng.randrange(field.p) if field.kind == "Fp" else rng.randint(-2, 2) for _ in range(n)])
        for _ in range(rng.randint(0, 3))
    ]
    return Configuration.make(group, field, n, base, dev)


def test_criterion_05_psi_transport_and_injectivity():
    n = 2
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "psi")
        for _ in range(100):
            t1 = Nuca(rand_twisted(rng, group, field, n, radius=1))
            t2 = Nuca(rand_twisted(rng, group, field, n, radius=1))
            x = _rand_configuration(rng, group, field, n)
            assert t1.compose(t2).apply(x) == t1.apply(t2.apply(x))

    # witness search: every nonzero element moves some single-site probe
    found = 0
    rng = random.Random("psi-injectivity")
    while found < 100:
        group, field = RING_CONFIGS[found % len(RING_CONFIGS)]
        t = Nuca(rand_twisted(rng, group, field, 2, radius=1))
        if t.element.is_zero():
            continue
        origins = list(t.exceptional_set)
        for g in group.ball(2):
            if g not in t.exceptional_set:
                origins.append(g)
                break
        hit = any(
            not t.apply(basis_configuration(group, field, 2, group.compose(o, h), j)).is_zero()
            for o in origins
            for h in t.memory
            for j in range(2)
        )
        assert hit, f"no probe separated a nonzero element over {group.label()}/{field.label()}"
        found += 1
    report(5, True, "composition transports exactly (100 triples per config); 100 injectivity witnesses found")


def test_criterion_06_induced_local_map_consistency():
    for group, field in RING_CONFIGS:
        rng = _seeded(group, field, "induced")
        for _ in range(50):
            n = rng.choice([1, 2])
            t = Nuca(rand_twisted(rng, group, field, n, radius=1))
            x = _rand_configuration(rng, group, field, n)
            window = FiniteSubset.make(
                group, [rng.choice(group.ball(1)) for _ in range(rng.randint(1, 3))]
            )
            local = t.induced_local_map(window)
            assert local.apply_pattern(x.restrict(local.domain_set)) == t.apply(x).restrict(window)
    report(6, True, "window matrices reproduce the action exactly (50 cases per config)")


def test_criterion_07_inverse_pipeline_fixed_case():
    start = time.monotonic()
    u, v = f3_nuca_pair()
    hit = search_left_inverse(u, 3)
    elapsed = time.monotonic() - start
    ok = (
        hit is not None
        and hit[1] == 1
        and hit[0] == v
        and verify_identity(hit[0], u)
        and verify_identity(u, hit[0])
        and elapsed < 1.0
    )
    report(7, ok, f"fixed inverse found at radius 1, two-sided ({elapsed:.2f}s < 1s)")


def test_criterion_08_direct_finiteness():
    start = time.monotonic()
    total = 0
    for group in (Z1, Z2, F2FREE):
        for field in (F2, F3, F5, Q):
            for n in (1, 2):
                config = SuiteConfig(seed=20240817, trials=100, group=group, field=field, n=n)
                rep = run_direct_finiteness(config)
                assert rep.failures == 0, rep.outcomes
                total += rep.passes
    elapsed = time.monotonic() - start
    report(
        8,
        elapsed < 300.0,
        f"{total} one-sided units were two-sided across 24 configs ({elapsed:.1f}s < 300s)",
    )


def test_criterion_09_negative_controls():
    start = time.monotonic()
    decoy = decoy_nuca(Z1, F2, 1)
    no_cert = search_left_inverse(decoy, 4) is None
    pre_injective = all(finitely_supported_kernel(decoy, r) is None for r in range(9))
    tower = kernel_tower(decoy, 5, 3)
    line = all(lv.stable_dim == 1 for lv in tower.levels) and len(tower.levels) == 6

    witness = finitely_supported_kernel(nilpotent_nuca(), 0)
    nilpotent_ok = witness is not None and witness.deviation == (((0,), (1, 0)),)
    elapsed = time.monotonic() - start
    report(
        9,
        no_cert and pre_injective and line and nilpotent_ok and elapsed < 10.0,
        "controls: no inverse <=r4, no kernel <=r8, stable tower line, "
        f"nilpotent witness at r0 ({elapsed:.1f}s < 10s)",
    )


def test_criterion_10_cli_golden_files():
    from d1ring.cli import main

    import golden_cases

    mismatches = golden_cases.stale_inputs()
    for expected_name, argv, expected_code in golden_cases.CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        expected = (golden_cases.EXPECTED / expected_name).read_text()
        if code != expected_code or out.getvalue() != expected:
            mismatches.append(expected_name)
    report(
        10,
        not mismatches,
        f"all {len(golden_cases.CASES)} subcommand outputs and their inputs byte-identical to checked-in files"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
