"""Seeded randomized suites over the supported universes.

Units of the matrix ring over the twisted group ring are built as random
products of three generator families, each with a known inverse:

* monomial diagonals (c * g, 0) with c a nonzero scalar,
* unipotent diagonals 1 + v with v a pure singular element whose twisted
  square vanishes (a single exceptional site whose part avoids the
  identity), inverse 1 - v,
* elementary matrices J + E_ij * w for i != j, inverse J - E_ij * w.

No generator is built as a matrix.  Each acts on the matrix it multiplies
as a row or column operation: multiplying by a monomial diagonal on the
right scales column a by c_a g_a, and its inverse on the left scales row
a by c_a^-1 g_a^-1; the unipotent at slot s adds column s times v to
column s, and its inverse subtracts v times row s from row s; J + E_ij w
adds column i times w to column j, and its inverse subtracts w times row
j from row i.  So the unit is the identity with the column operations
applied, and its inverse the identity with the row operations applied.

Each trial is reconstructible from the suite seed alone: the trial index
derives a private RNG, and the drawn generator word is recorded in the
report.  Over the supported universes every one-sided unit is expected to
be two-sided; the suites verify that implication on random units and
record any counterexample in full.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Optional

from .errors import UsageError, _check_int
from .exactalg import FieldSpec
from .groupring import GroupRingElement, _add_into, _canonical_terms, coeff_one
from .groups import Element, GroupSpec
from .invert import (
    SearchBudget,
    check_search_radius,
    check_tower_depth,
    search_left_inverse,
    search_radius_limit,
    verify_identity,
)
from .nuca import Nuca
# element_radius is not used here, but perfbench and the tests import it from this module
from .twisted import (
    TwistedElement,
    TwistedMatrix,
    _accumulate,
    _built,
    element_radius,
    embed,
    matrix_radius,
)


# -- random draws ----------------------------------------------------------------

def rand_scalar(rng: random.Random, field: FieldSpec, nonzero: bool = False):
    if field.kind == "Fp":
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.p)
    num = rng.randint(1, 3) if nonzero else rng.randint(-3, 3)
    if nonzero and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 3))


def rand_coeff(rng: random.Random, field: FieldSpec, shape):
    if shape is None:
        return rand_scalar(rng, field)
    return tuple(tuple(rand_scalar(rng, field) for _ in range(shape)) for _ in range(shape))


def rand_groupring(
    rng: random.Random,
    group: GroupSpec,
    field: FieldSpec,
    shape,
    radius: int,
    max_terms: int = 3,
) -> GroupRingElement:
    """Terms are drawn from group.ball(radius)."""
    return _draw_groupring(rng, group, field, shape, group.ball(radius), max_terms)


def rand_twisted(
    rng: random.Random,
    group: GroupSpec,
    field: FieldSpec,
    shape,
    radius: int,
    max_sites: int = 2,
    max_terms: int = 2,
) -> TwistedElement:
    """Sites and terms are drawn from group.ball(radius)."""
    return _draw_twisted(rng, group, field, shape, group.ball(radius), max_sites, max_terms)


def _draw_groupring(rng, group: GroupSpec, field: FieldSpec, shape, pool, max_terms: int) -> GroupRingElement:
    """Up to max_terms terms at sites of pool, summed and made canonical.
    The pool's elements are trusted and rand_coeff's coefficients are
    canonical, so no term is checked."""
    k = rng.randint(0, max_terms)
    acc: dict = {}
    _add_into(acc, shape, [(rng.choice(pool), rand_coeff(rng, field, shape)) for _ in range(k)])
    return GroupRingElement(group, field, shape, _canonical_terms(group, field, shape, acc))


def _draw_twisted(
    rng, group: GroupSpec, field: FieldSpec, shape, pool, max_sites: int, max_terms: int
) -> TwistedElement:
    """A regular part and up to max_sites singular parts drawn from the
    trusted pool; a nonzero part drawn at a site already taken replaces
    the earlier one."""
    reg = _draw_groupring(rng, group, field, shape, pool, max_terms + 1)
    sing = {}
    for _ in range(rng.randint(0, max_sites)):
        g = rng.choice(pool)
        part = _draw_groupring(rng, group, field, shape, pool, max_terms)
        if not part.is_zero():
            sing[g] = part
    return TwistedElement(reg, tuple(sorted(sing.items(), key=lambda t: group.key(t[0]))))


# -- suite plumbing -----------------------------------------------------------------

# Suites refuse n past this: a trial builds two n x n grids and checks their
# product entry by entry, reading only each row's nonzero entries, so its
# work grows about as n^2.  One direct-finiteness trial (2 vCPUs, Python
# 3.11, seeds 0-2) took 0.015-0.34 s at n = 100 over Zd:1/F_2, Zd:2/Q,
# Zd:3/Q, free:2/F_5 and free:26/Q (max_factors 2 or 6), and over Zd:1/F_2
# 0.035-0.057 s at n = 200 and 0.09-0.12 s at 300.
MAX_SUITE_N = 100

# Suites refuse max_factors past this, and gen_unit a longer word: the
# entries' supports, and over Q their coefficients, grow with each factor,
# and a rejected draw is retried up to 20 times.  One gen_unit call at 16
# factors (2 vCPUs, Python 3.11, seeds 0-2, every draw but one rejected)
# took 0.02-0.51 s at n = 2 and 0.17-1.9 s at n = 100 over Zd:1/F_2,
# Zd:2/Q, Zd:3/Q, free:2/F_5 and free:26/Q; at n = 2 it took up to 14.5 s
# at 20 factors and 41 s at 24 (free:26/Q, seed 2).
MAX_SUITE_FACTORS = 16

@dataclass(frozen=True)
class SuiteConfig:
    seed: int
    trials: int
    group: GroupSpec
    field: FieldSpec
    n: int
    support_radius: int = 1
    budget: SearchBudget = dataclass_field(default_factory=SearchBudget)
    max_factors: int = 2
    decoy_every: int = 0  # pipeline: every k-th trial runs the non-injective control

    def __post_init__(self):
        for name, kind in (("group", GroupSpec), ("field", FieldSpec), ("budget", SearchBudget)):
            if not isinstance(getattr(self, name), kind):
                raise UsageError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("seed", "trials", "n", "support_radius", "max_factors", "decoy_every"):
            _check_int(name, getattr(self, name))
        for name, low in (("trials", 1), ("support_radius", 0), ("max_factors", 1), ("decoy_every", 0)):
            if getattr(self, name) < low:
                raise UsageError(f"{name} must be >= {low}")
        if not 1 <= self.n <= MAX_SUITE_N:
            raise UsageError(f"n must be >= 1 and <= {MAX_SUITE_N} (the suites' size limit)")
        if self.max_factors > MAX_SUITE_FACTORS:
            raise UsageError(f"max_factors must be <= {MAX_SUITE_FACTORS} (the suites' word-length limit)")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: SuiteConfig
    note: str
    outcomes: tuple[dict, ...]
    passes: int
    failures: int
    wall_clock_s: Optional[float]

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _trial_rng(config: SuiteConfig, index: int) -> random.Random:
    return random.Random(config.seed * 1_000_000_007 + index)


# -- unit generation ------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _unit_sites(group: GroupSpec, field: FieldSpec, radius: int) -> tuple:
    """What gen_unit draws from and starts with for (group, field, radius),
    made once: the ball, the pool the terms of unipotent parts come from,
    ball(max(radius, 1)) minus e, and the scalar twisted 1 and 0.  They
    are immutable, so every draw shares them."""
    ball = group.ball(radius)
    pool = tuple(g for g in (ball if radius else group.ball(1)) if g != group.identity)
    return ball, pool, TwistedElement.one(group, field, None), TwistedElement.zero(group, field, None)


def gen_unit(
    rng: random.Random, config: SuiteConfig, n_factors: Optional[int] = None
) -> tuple[TwistedMatrix, TwistedMatrix, list]:
    """A two-sided unit of the n x n matrix ring with its known inverse,
    as a random product of invertible generators (an empty product is the
    identity pair): n_factors of them, an int from 0 to MAX_SUITE_FACTORS,
    or, if None, a count drawn from 1 to config.max_factors.  The product
    with the inverse is re-verified before returning, on its raw
    accumulators (TwistedMatrix.product_is_identity) without building it;
    degenerate draws are retried.

    Each generator is drawn as its pair of operations (module docstring):
    a column operation (c, ((k, x), ...)) sets column c to the sum of
    column k times x, and a row operation (r, ((k, x), ...)) sets row r to
    the sum of x times row k.  No operation reads a line that another
    operation of its generator sets, so they apply one after another.  The
    unit is the identity with the column operations applied in factor
    order, f1 f2 ... fk.  The loop for the inverse applies the row
    operations from the last factor to the first, which builds b1 b2 ... bk
    from the factors' inverses b_i.  That is the inverse bk ... b1 of the
    unit only when the factors commute; otherwise the u v check rejects the
    draw and it is drawn again.  This order is a defect, not the design
    (ROADMAP, Known defects).  Each new entry is built as an entry
    of @ is, on one raw accumulator of its nonzero pairs
    (twisted._accumulate, _built), so it is the entry the matrix product
    with the generator would give.

    The generators are built canonical, without the checking
    constructors: their sites come from the ball, their scalars are
    canonical nonzero field elements, and their parts are drawn as
    rand_groupring and rand_twisted draw them, with the same RNG calls.
    The ball, the pool, 1 and 0 are made once per (group, field, radius)
    (_unit_sites), and a monomial word's sites and coefficients are
    encoded once its draw passes the check, not for the draws retried.
    """
    if n_factors is not None:
        _check_int("n_factors", n_factors)
        if not 0 <= n_factors <= MAX_SUITE_FACTORS:
            raise UsageError(f"n_factors must be >= 0 and <= {MAX_SUITE_FACTORS} (the suites' word-length limit)")
    group, field, n = config.group, config.field, config.n
    ball, pool, one, zero = _unit_sites(group, field, config.support_radius)

    def monomial(g: Element, c) -> TwistedElement:
        return embed(GroupRingElement(group, field, None, ((g, c),)))

    def combine(lines: list, terms, right: bool) -> list:
        """The sum of lines[k] x (right) or of x lines[k] (left) over the
        terms (k, x), entry by entry: each entry is built on one raw
        accumulator of its live pairs, those with both sides nonzero.  A
        lone live pair with the shared 1 as a side is its other side, as it
        is; a side that equals 1 but is another object goes to the kernel."""
        sides = [(lines[k], x) for k, x in terms if x.singular or x.regular.terms]
        out = []
        for p in range(n):
            live = [(y, x) if right else (x, y) for line, x in sides if (y := line[p]).singular or y.regular.terms]
            if len(live) == 1:
                x, y = live[0]
                if x is one or y is one:
                    out.append(y if x is one else x)
                    continue
            out.append(_built(group, field, None, *_accumulate(group, field, None, live)) if live else zero)
        return out

    kinds = ["monomial", "unipotent"] + (["elementary"] if n >= 2 else [])
    for _ in range(20):
        factors: list[tuple[list, list, dict]] = []  # (column operations, row operations, word)
        count = n_factors if n_factors is not None else rng.randint(1, config.max_factors)
        for _ in range(count):
            kind = rng.choice(kinds)
            if kind == "monomial":
                sites = [rng.choice(ball) for _ in range(n)]
                coeffs = [rand_scalar(rng, field, nonzero=True) for _ in range(n)]
                col_ops = [(a, ((a, monomial(sites[a], coeffs[a])),)) for a in range(n)]
                row_ops = [
                    (a, ((a, monomial(group.inverse(sites[a]), field.inv(coeffs[a]))),)) for a in range(n)
                ]
                # encoded only if the draw is accepted
                word = {"kind": "monomial", "sites": sites, "coeffs": coeffs}
            elif kind == "unipotent":
                # 1 + (0, b) and 1 - (0, b) at the slot, with b at one site and no
                # term at e, so (0, b)^2 = 0; no operation when b is zero
                slot = rng.randrange(n)
                site = rng.choice(ball)
                part = _draw_groupring(rng, group, field, None, pool, 2)
                col_ops = [(slot, ((slot, TwistedElement(one.regular, ((site, part),))),))] if part else []
                row_ops = [(slot, ((slot, TwistedElement(one.regular, ((site, -part),))),))] if part else []
                word = {"kind": "unipotent", "slot": slot}
            else:
                i = rng.randrange(n)
                j = rng.choice([x for x in range(n) if x != i])
                w = _draw_twisted(rng, group, field, None, ball, 2, 2)
                # J + E_ij w and J - E_ij w
                col_ops = [(j, ((i, w), (j, one)))]
                row_ops = [(i, ((i, one), (j, -w)))]
                word = {"kind": "elementary", "i": i, "j": j}
            factors.append((col_ops, row_ops, word))

        # the unit by columns, for the column operations, and its inverse by rows
        columns = [[one if a == b else zero for b in range(n)] for a in range(n)]
        for col_ops, _, _ in factors:
            for c, terms in col_ops:
                columns[c] = combine(columns, terms, True)
        rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
        # the row operations go from the last factor to the first, so this
        # builds b1 b2 ... bk from the factors' inverses b_i, not the inverse
        # bk ... b1 of the unit; see ROADMAP Known defects
        for _, row_ops, _ in reversed(factors):
            for r, terms in row_ops:
                rows[r] = combine(rows, terms, False)
        unit = TwistedMatrix._trusted(n, tuple(zip(*columns)))
        inverse = TwistedMatrix._trusted(n, tuple(map(tuple, rows)))
        if unit.product_is_identity(inverse):
            words = [w for _, _, w in factors]
            for w in words:
                if w["kind"] == "monomial":
                    w["sites"] = [group.encode_element(g) for g in w["sites"]]
                    w["coeffs"] = [field.encode_scalar(c) for c in w["coeffs"]]
            return unit, inverse, words
    raise AssertionError("unit generator kept producing degenerate draws; this is a bug")


def decoy_nuca(group: GroupSpec, field: FieldSpec, n: int) -> Nuca:
    """The standard non-injective control: identity blocks at the identity
    and at one generator.  Its kernel holds no finitely supported point,
    and no finite-window left inverse exists."""
    step: Element = (1,) + (0,) * (group.dim - 1) if group.kind == "Zd" else (1,)
    reg = GroupRingElement.from_terms(
        group, field, n, [(group.identity, coeff_one(field, n)), (step, coeff_one(field, n))]
    )
    return Nuca(TwistedElement(reg, ()))


# -- suites ----------------------------------------------------------------------------

def _search_radius(config: SuiteConfig, inverse: TwistedMatrix) -> tuple[int, str]:
    """The radius a trial searches for a left inverse, with the reason to
    record if none is found: the budget's radius, widened to the known
    inverse's radius as far as the search size limit allows.  The suite
    has already checked that the budget's radius itself is within it."""
    wanted = max(config.budget.max_radius, matrix_radius(inverse))
    limit = search_radius_limit(config.group, config.n, wanted)
    if limit < wanted:
        return limit, (
            f"no left inverse found up to radius {limit}, the largest within the"
            f" search size limit (the known inverse has radius {wanted})"
        )
    return wanted, "no left inverse found within budget"


_NOTE = (
    "Over the supported universes every one-sided unit is expected to be "
    "two-sided; each trial verifies that implication on a random unit and "
    "any counterexample is recorded in full."
)


def _run_suite(suite: str, config: SuiteConfig, trial: Callable[[int], dict]) -> SuiteReport:
    """Run every trial in index order and assemble the report."""
    start = time.monotonic()
    outcomes = [trial(i) for i in range(config.trials)]
    failures = sum(1 for o in outcomes if not o["ok"])
    return SuiteReport(
        suite=suite,
        config=config,
        note=_NOTE,
        outcomes=tuple(outcomes),
        passes=config.trials - failures,
        failures=failures,
        wall_clock_s=time.monotonic() - start,
    )


def run_direct_finiteness(config: SuiteConfig) -> SuiteReport:
    """Per trial: build (u, v) with u*v = 1 and assert v*u = 1."""
    from .envelope import twisted_matrix_payload  # local import to avoid a cycle

    def trial(index: int) -> dict:
        rng = _trial_rng(config, index)
        unit, inverse, word = gen_unit(rng, config)
        # gen_unit has checked unit @ inverse; only v u = 1 is open
        outcome: dict = {"trial": index, "word": word, "ok": inverse.product_is_identity(unit)}
        if not outcome["ok"]:
            outcome["reason"] = "one-sided unit failed the two-sided check"
            outcome["unit"] = twisted_matrix_payload(unit)
            outcome["inverse"] = twisted_matrix_payload(inverse)
        return outcome

    return _run_suite("direct_finiteness", config, trial)


def run_surjunctivity_pipeline(config: SuiteConfig) -> SuiteReport:
    """Per trial: build a stably injective NUCA from a unit, strip the
    known inverse, rediscover a left inverse by blind search, then assert
    the same candidate is also a right inverse.

    The search has already checked cert tau = 1 on the certificate it
    returns, and raises if that fails (invert._factored_inverse), so the
    trial checks only tau cert = 1: each fact is checked once.

    Decoy trials (when configured) run the non-injective control and are
    expected to end in bounded evidence, not in a certificate.
    """
    from .envelope import twisted_payload  # local import to avoid a cycle
    from .invert import stable_injectivity_verdict

    check_search_radius(config.group, config.n, config.budget.max_radius)
    if config.decoy_every > 0:
        check_tower_depth(config.group, config.n, config.budget.depth, config.budget.window)

    def trial(index: int) -> dict:
        rng = _trial_rng(config, index)
        is_decoy = config.decoy_every > 0 and index % config.decoy_every == config.decoy_every - 1
        if is_decoy:
            tau = decoy_nuca(config.group, config.field, config.n)
            verdict = stable_injectivity_verdict(tau, config.budget)
            ok = verdict.kind == "bounded_evidence"
            out = {"trial": index, "decoy": True, "verdict": verdict.kind, "ok": ok}
            if not ok:
                out["reason"] = "control produced an unexpected verdict"
            return out
        unit, inverse, word = gen_unit(rng, config)
        tau = Nuca.from_matrix(unit)
        outcome: dict = {"trial": index, "decoy": False, "word": word}
        radius, reason = _search_radius(config, inverse)
        hit = search_left_inverse(tau, radius)
        if hit is None:
            outcome.update(ok=False, reason=reason, unit=twisted_payload(tau.element))
            return outcome
        cert, outcome["radius"] = hit
        outcome["ok"] = bool(verify_identity(tau, cert))
        if not outcome["ok"]:
            outcome["reason"] = "certificate failed an identity check"
            outcome["unit"] = twisted_payload(tau.element)
            outcome["certificate"] = twisted_payload(cert.element)
        return outcome

    return _run_suite("surjunctivity_pipeline", config, trial)
