"""Invertibility and injectivity procedures for linear NUCA.

Five complementary tools:

* exact one-sided inverses by factorisation.  Projecting t = (a, b) onto
  its regular part a is a ring map, and M_n(k[G]) is stably finite over
  Z^d and free groups, so a one-sided inverse of t has regular part a^-1,
  the two-sided inverse of a.  Over Z^d, a^-1 = c^-1 x^-g adj(a) when
  det(a) = c x^g, made from the characteristic coefficients det(a) was
  computed from, in the same call (groupring.zd_determinant); over free
  groups, and past MAX_DET_TERM_PAIRS, a^-1 solves a linear system read
  off a's translates (_regular_inverse).  S = a^-1 t has regular part 1, so it
  is the identity off finitely many sites, and one RREF of its block M on
  the sites it reads and writes decides the rest: t has the two-sided
  inverse S^-1 a^-1 if M is invertible, and no one-sided inverse at any
  radius if M is singular;
* identity verification by ring equality (sound and complete because the
  NUCA <-> ring-element correspondence is injective over infinite groups);
* finitely supported kernel search (a witness refutes pre-injectivity,
  hence injectivity).  The verdict finds the first radius with a witness
  from one elimination of the largest window map per map, and makes the
  witness once, at that radius (_first_witness_radius);
* the kernel tower over box exhaustions of Z^d, whose stabilized
  projections detect global kernel configurations;
* the regular-part obstruction over Z^d: M_n(k[Z^d]) is a matrix ring
  over a commutative domain whose units are the monomials c x^m.  So t
  has a one-sided inverse only if det(a) is a monomial, and the constant
  part (a CA) has a nonzero finitely supported kernel point only if
  det(a) = 0.  The searches these rule out are skipped.

Certificates and witnesses are re-verified before they are returned.

What depends only on a small key is worked out once per process: the size
checks per (group, n, radius or depth, limit), with the limit read at call
time so that a patched limit is a new key (_radius_limit, _search_refusal
and _tower_overflow, 64 keys each), and the sites the verdict and the
tower read per (group, radius) (_shell_ordered_ball and _box_shell, 32
each).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import UsageError, _check_int
from .exactalg import Matrix, _echelon, inverse, kernel_basis, solve
from .groupring import GroupRingElement, _canonical_terms, coeff_one, zd_determinant
from .groups import MAX_SHOWN_COUNT, Element, FiniteSubset, GroupSpec, shown_count
from .nuca import Configuration, Nuca, constant_part
from .twisted import TwistedElement, element_radius, embed


# The radius contract: an inverse search whose window (memory set M and
# exceptional set E; the ball of the radius for both in a ball search)
# counts more than this many unknowns n^2 |M| (1 + |E|) is refused before
# any work, with the messages of solve_one_sided_inverse and
# check_search_radius.  The inverse itself is found over Z^d from the
# determinant's coefficients and elsewhere from systems of n^2 |M|
# unknowns, and then from one block on the exceptional sites of a^-1 t
# (MAX_BLOCK_COORDINATES), so the count bounds the radii a caller may ask
# for, not the memory used.  free:26 at radius 2 would count 7.3 M.
# The verdict checks its budget with the same count (check_search_radius),
# and apart from MAX_BALL_SIZE that count is what bounds its first-witness
# elimination, which has n |ball(max_radius)| columns: a Z^2 verdict with
# n = 2 stops at radius 12 (a ball of 625 sites).  Counting only the
# n^2 |M| unknowns that _regular_inverse builds would admit radius 353 there,
# about 1 M columns in one elimination, so that elimination needs its own
# measured limit before this count may change.  Each count is made once per
# group, n, radius and limit (_radius_limit, _search_refusal).
MAX_UNKNOWNS = 2_000_000

# The block M of S = a^-1 t on the sites V it reads and writes
# (_factored_inverse) is placed straight from S's rules (_block) and
# inverted by one RREF of [M | I], whose work grows as (n |V|)^3 and, over
# Q, with the size of the integers.  A block of more than this many
# coordinates n |V| is refused before any row of it is placed.
# Measured on 2 vCPUs (Python 3.11, _factored_inverse alone, S = 1 plus
# random singular parts of up to 12 terms within radius 2 at every site of
# a ball of Z^2, n = 2): over Q n |V| = 196 takes 1.1 s, 282 takes 4.1 s
# and 390 takes 10.5 s (62 MB); over F_5 n |V| = 392 takes 1.0 s.  The
# benchmark's trials and verdicts need at most n |V| = 12.
MAX_BLOCK_COORDINATES = 200

# A kernel tower follows each level's projections at most this many levels
# past depth + stabilization window.
MAX_EXTRA_LEVELS = 8

# Kernel towers whose window coordinates n * ball_size(m), summed over every
# level m <= depth + window + MAX_EXTRA_LEVELS they may build, exceed this
# are refused before level 0.  A tower builds and eliminates each window row
# once, level m only the rows of its shell (kernel_tower), so the sum
# overstates its work; it stays the contract on the depths accepted.
# Measured on 2 vCPUs (Python 3.11, the decoy map, window 2, kernel_tower
# alone in a fresh process, its wall clock and the process's peak RSS, two
# runs each): 0.06-0.6 us per coordinate of the sum.  At the limit, which
# allows depth 989 on Z^1, 79 on Z^2 and 15 on Z^3 with n = 1 and window 2:
# Z^1 over Q and over F_5 0.06-0.07 s, both in 18 MB (the process with the
# package imported), Z^2 over F_5 0.26-0.33 s and 30 MB, Z^3 over F_5
# 0.43-0.56 s and 41-42 MB.  Z^2 over Q with n = 2 at depth 35 (0.26 M
# coordinates) takes 0.08-0.15 s and 22 MB.
MAX_TOWER_COORDINATES = 1_000_000

# The determinant of the regular part, and the inverse made from its
# coefficients in the same call (groupring.zd_determinant), are given up
# once their products together would multiply more than this many pairs of
# terms.  Past it with det(a), every search runs; past it with a^-1 alone,
# the determinant prunes still run.  Either way a^-1 is searched for over
# growing balls (_regular_inverse).
# Measured on 2 vCPUs (Python 3.11): about 0.6-0.7 us per pair over F_5
# and Q.  Random radius-1 maps need at most a few thousand pairs up to
# n = 6 on Z^3; a dense radius-1 map on Z^3 needs 0.59 M pairs (0.4 s
# over Q) at n = 5 and 2.1 M at n = 6, so a map that wide runs its
# searches unpruned, after at most about 0.7 s spent on the determinant.
# The inverse needs about as many pairs again: a unit L U on Z^3, with L
# and U unitriangular and dense within radius 1, needs 0.17 M pairs for
# det(a) and 0.11 M for a^-1 at n = 3 over F_5 (0.16 s), and 0.82 M and
# 0.87 M at n = 4 over Q with 30 % of the entries filled, so that one
# falls back to the ball systems after about 0.7 s.
MAX_DET_TERM_PAIRS = 1_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the verdict procedure; defaults are configuration, not theory."""

    max_radius: int = 3
    depth: int = 3
    window: int = 2

    def __post_init__(self):
        for name in ("max_radius", "depth", "window"):
            _check_int(f"budget field {name}", getattr(self, name))
        if self.max_radius < 0 or self.depth < 0 or self.window < 1:
            raise UsageError("budget fields out of range")


@dataclass(frozen=True)
class InverseSearchParams:
    """Support window for the unknown inverse: regular support inside
    memory_set, singular sites inside exceptional_set (each singular part
    again supported inside memory_set)."""

    side: str
    memory_set: FiniteSubset
    exceptional_set: FiniteSubset

    @staticmethod
    def make(side: str, memory_set: FiniteSubset, exceptional_set: FiniteSubset) -> "InverseSearchParams":
        _check_side(side)
        grp = memory_set.group
        if exceptional_set.group != grp:
            raise UsageError("memory set and exceptional set live in different groups")
        ident = FiniteSubset.make(grp, [grp.identity])
        memory_set = memory_set.union(ident)
        if len(exceptional_set) == 0:
            exceptional_set = ident
        return InverseSearchParams(side, memory_set, exceptional_set)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise UsageError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class KernelTowerLevel:
    level: int
    kernel_dim: int
    stable_dim: Optional[int]
    stabilized_at: Optional[int]


@dataclass(frozen=True)
class KernelTowerReport:
    depth: int
    window: int
    levels: tuple[KernelTowerLevel, ...]

    def stabilized(self) -> bool:
        return all(lv.stabilized_at is not None for lv in self.levels)


@dataclass(frozen=True)
class InjectivityVerdict:
    """One of: a left-inverse certificate (stable injectivity proven), a
    finitely supported kernel witness (injectivity refuted, for the map
    itself or for its constant part), or bounded tower evidence."""

    kind: str  # "proven_stably_injective" | "proven_not_injective" | "bounded_evidence"
    budget: SearchBudget
    certificate: Optional[Nuca] = None
    certificate_radius: Optional[int] = None
    witness: Optional[Configuration] = None
    witness_scope: Optional[str] = None  # "self" | "constant_part"
    witness_radius: Optional[int] = None
    tower: Optional[KernelTowerReport] = None


def verify_identity(u: Nuca, v: Nuca) -> bool:
    """True iff composing u after v is the identity map; decided exactly
    as ring equality of the product with the unit, on the product's raw
    accumulator (TwistedElement.product_is_one) without building it."""
    return u.element.product_is_one(v.element)


def solve_one_sided_inverse(t: Nuca, params: InverseSearchParams) -> Optional[Nuca]:
    """The one-sided inverse of t on params.side inside the window, if any:
    regular part supported in memory_set, exceptional sites in
    exceptional_set, each singular part supported in memory_set.

    Such an inverse is t's two-sided inverse and the only one (see the
    module docstring), so it is not searched for among the window's
    coefficients: a^-1 is made as the search makes it
    (_regular_part_inverse) and kept if it lies inside memory_set,
    _factored_inverse makes the inverse from it, and it is returned if it
    fits the window.  A window of more than MAX_UNKNOWNS unknowns is
    refused before any work.
    """
    grp, n = t.group, t.n
    if params.memory_set.group != grp or params.exceptional_set.group != grp:
        raise UsageError("the search window lives in a different group from the map")
    unknowns = len(params.memory_set) * (1 + len(params.exceptional_set)) * n * n
    if unknowns > MAX_UNKNOWNS:
        raise UsageError(
            f"the inverse search needs {unknowns} unknowns; the limit is {MAX_UNKNOWNS}"
        )
    det = zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS)
    memory = params.memory_set
    a_inv = _regular_part_inverse(t.element.regular, det, memory.__contains__, (memory,))
    if a_inv is None:
        return None
    u = _factored_inverse(t, a_inv, params.side, params.exceptional_set.__contains__)
    if u is None or any(g not in memory for g in u.memory):
        return None
    return u


def _regular_part_inverse(
    a: GroupRingElement, det: Optional[tuple], within: Callable[[Element], bool], memories
) -> Optional[GroupRingElement]:
    """a^-1 if every site of its support is `within` the window, else None.

    Given det = zd_determinant(a) = (det(a), a^-1) (over Z^d, within
    MAX_DET_TERM_PAIRS), a^-1 exists only if det(a) is a monomial, and
    then det holds it unless its products passed the budget.  An a^-1
    returned is checked once, by _factored_inverse, as the regular part
    of a^-1 t, which it builds anyway; one discarded for leaving the
    window is checked here on the product's accumulator, since the None
    it gives rests on it.  Off Z^d, or once those products pass the
    budget, _regular_inverse looks for it in each of the nested
    `memories` in turn, the last of which is the window; they may be made
    lazily, and none is made when det serves.
    """
    if det is not None:
        det_a, a_inv = det
        if len(det_a.terms) != 1:
            return None
        if a_inv is not None:
            if all(within(g) for g, _ in a_inv.terms):
                return a_inv
            if not a_inv.product_is_one(a):
                raise AssertionError("the adjugate produced a non-inverse; this is a bug")
            return None
    for memory in memories:
        a_inv = _regular_inverse(a, memory)
        if a_inv is not None:
            return a_inv
    return None


def _regular_inverse(a: GroupRingElement, memory: FiniteSubset) -> Optional[GroupRingElement]:
    """The x supported in memory with x a = 1 in M_n(k)[G], if any.

    The unknowns are the entries (i, j) of x's coefficients at the sites g
    of memory.  Entry (i, j) at g meets entry (i, k) of the coefficient of
    x a at g h with the value A[j][k], for each term A h of a, so the
    columns are read off the translates g a.  Such an x is a two-sided
    inverse, as M_n(k[G]) is stably finite, so it is unique.
    """
    grp, fld, n = a.group, a.field, a.shape
    compose = grp.compose
    target = {(grp.identity, i, i): fld.one for i in range(n)}
    system: dict[tuple, dict] = {row: {} for row in target}
    for s, g in enumerate(memory):
        for h, c in a.terms:
            gh = compose(g, h)
            for j, row in enumerate(c):
                for k, value in enumerate(row):
                    if value:
                        for i in range(n):
                            system.setdefault((gh, i, k), {})[(s * n + i) * n + j] = value
    keys = list(system)
    rhs = [target.get(key, fld.zero) for key in keys]
    x = solve(Matrix(fld, len(keys), len(memory) * n * n, [system[key] for key in keys]), rhs)
    if x is None:
        return None
    coeffs = (
        (g, tuple(tuple(x[(s * n + i) * n + j] for j in range(n)) for i in range(n)))
        for s, g in enumerate(memory)
    )
    return GroupRingElement.from_terms(grp, fld, n, coeffs)


def _factored_inverse(
    t: Nuca, a_inv: GroupRingElement, side: str, within: Callable[[Element], bool]
) -> Optional[Nuca]:
    """The inverse u = S^-1 a^-1 of t, where a^-1 inverts t's regular part
    and S = a^-1 t, if its exceptional sites are all `within` the window;
    None if they are not, or if t has no one-sided inverse at all.

    S has regular part a^-1 a.  "S has regular part 1" is checked before
    anything else is read, and that check is a^-1's, its only one
    (_regular_part_inverse): a wrong a^-1 raises AssertionError.  So off
    its exceptional sites E, S is the identity.  It reads and writes only
    V = E united with the sets g supp(s(g)) for g in E, and as a map it is
    diag(M, id) with M the V x V block of its window map, placed straight
    from S's rules (_block).  If M is singular, S is neither injective nor
    surjective, and neither is t = a S.  Otherwise S^-1 is diag(M^-1, id); its
    singular part at g is the row block of M^-1 at g minus the identity,
    summed on one raw accumulator per site and made canonical once.  That
    part is zero, and dropped, exactly where the row block of M is the
    identity, off E, so S^-1's exceptional sites are E, and so are u's.
    That is why the sites are checked before M is built.  A block of more
    than MAX_BLOCK_COORDINATES coordinates n |V| is refused before any row
    is placed.  u is re-verified on `side` before it is returned.
    """
    grp, fld, n = t.group, t.field, t.n
    inv = embed(a_inv)
    s = inv * t.element
    if s.regular.terms != ((grp.identity, coeff_one(fld, n)),):
        raise AssertionError("a^-1 t has a regular part other than 1, so a^-1 is wrong; this is a bug")
    if not all(within(g) for g, _ in s.singular):
        return None
    compose = grp.compose
    reads = [compose(g, h) for g, part in s.singular for h, _ in part.terms]
    v = FiniteSubset(grp, grp.sort(reads + [g for g, _ in s.singular]))
    if n * len(v) > MAX_BLOCK_COORDINATES:
        raise UsageError(
            f"the inverse needs a block of {n * len(v)} coordinates on the {len(v)} sites"
            f" its factor a^-1 t reads and writes; the limit is {MAX_BLOCK_COORDINATES}"
        )
    m_inv = inverse(_block(s, v))
    if m_inv is None:
        return None
    zero, one, e = fld.zero, fld.one, grp.identity
    singular = []  # v is sorted, so the sites come in order
    for b, g in enumerate(v):
        g_inv = grp.inverse(g)
        acc: dict = {e: [zero] * (n * n)}
        for i, row in enumerate(m_inv.data[b * n : (b + 1) * n]):
            for col, x in row.items():
                q, j = divmod(col, n)
                h = compose(g_inv, v.elements[q])
                acc.setdefault(h, [zero] * (n * n))[i * n + j] = x
        at_e = acc[e]
        for i in range(0, n * n, n + 1):  # the diagonal of a flat n x n list
            at_e[i] -= one
        terms = _canonical_terms(grp, fld, n, acc)
        if terms:
            singular.append((g, GroupRingElement(grp, fld, n, terms)))
    s_inv = TwistedElement(s.regular, tuple(singular))  # s.regular is 1
    u = Nuca(s_inv * inv)
    ok = verify_identity(u, t) if side == "left" else verify_identity(t, u)
    if not ok:
        raise AssertionError("inverse solver produced a non-inverse; this is a bug")
    return u


def _block(s: TwistedElement, v: FiniteSubset) -> Matrix:
    """The V x V block M of S = (1, s), for a V that holds every site S
    reads at V, with coordinate j of the k-th site of V at column k n + j.
    The rule of S at g is 1 + s(g), so row i of the block row of g holds 1
    at coordinate i of g and entry (i, j) of s(g)(h) at coordinate j of
    g h; only the entries at h = e sum two terms, and they are reduced
    once.  No window map is built."""
    grp, fld, n = s.group, s.field, s.shape
    p, one, compose = fld.p, fld.one, grp.compose
    column = {u: k * n for k, u in enumerate(v)}
    parts = dict(s.singular)
    rows: list[dict] = []
    for g in v:
        k = column[g]
        block = [{k + i: one} for i in range(n)]
        part = parts.get(g)
        if part is not None:
            for h, c in part.terms:
                base = column[compose(g, h)]
                for row, entries in zip(block, c):
                    for j, x in enumerate(entries):
                        if x:
                            row[base + j] = row.get(base + j, 0) + x
            for i, row in enumerate(block):
                x = row[k + i] % p if p else row[k + i]
                if x:
                    row[k + i] = x
                else:
                    del row[k + i]
        rows.extend(block)
    return Matrix(fld, n * len(v), n * len(v), rows)


def _ball_unknowns(group: GroupSpec, n: int, radius: int, cap: Optional[int] = None) -> Optional[int]:
    size = group.ball_size(radius, cap)
    return None if size is None else size * (1 + size) * n * n


def search_radius_limit(group: GroupSpec, n: int, max_radius: int) -> int:
    """The largest radius up to max_radius whose ball system has at most
    MAX_UNKNOWNS unknowns (-1 if even radius 0 has more).  It is counted
    once per group, n, radius and limit (_radius_limit), as every trial of
    a suite asks the same."""
    return _radius_limit(group, n, max_radius, MAX_UNKNOWNS)


@functools.lru_cache(maxsize=64)
def _radius_limit(group: GroupSpec, n: int, max_radius: int, limit: int) -> int:
    r = -1
    while r < max_radius:
        # a ball past limit sites has more unknowns than that, uncounted
        unknowns = _ball_unknowns(group, n, r + 1, limit)
        if unknowns is None or unknowns > limit:
            break
        r += 1
    return r


def check_search_radius(group: GroupSpec, n: int, max_radius: int) -> None:
    """Refuse a ball search up to max_radius whose last system would have
    more than MAX_UNKNOWNS unknowns, before any work is done.  The verdict
    checks its budget here too, and this is also what bounds its
    first-witness elimination, which has n |ball(max_radius)| columns
    (see MAX_UNKNOWNS).  The count is made once per group, n, radius and
    limit (_search_refusal), as every verdict of one budget asks the same."""
    refusal = _search_refusal(group, n, max_radius, MAX_UNKNOWNS)
    if refusal is not None:
        raise UsageError(refusal)


@functools.lru_cache(maxsize=64)
def _search_refusal(group: GroupSpec, n: int, max_radius: int, limit: int) -> Optional[str]:
    """check_search_radius's refusal for limit, None if the search fits."""
    unknowns = _ball_unknowns(group, n, max_radius, MAX_SHOWN_COUNT)
    if unknowns is None or unknowns > limit:
        return (
            f"an inverse search to radius {max_radius} over {group.label()} with n = {n}"
            f" needs {shown_count(unknowns)} unknowns; the limit is {limit}"
            f" (largest radius within it: {_radius_limit(group, n, max_radius, limit)})"
        )
    return None


def check_tower_depth(group: GroupSpec, n: int, depth: int, window: int) -> None:
    """Refuse a kernel tower over Z^d whose levels may build more than
    MAX_TOWER_COORDINATES window coordinates before any work is done.
    Other groups have no tower, so nothing is refused.  The largest depth
    within the limit is the one whose last level is m - 1 (-1 if none),
    for the first level m past it.  The levels are counted once per group,
    n, last level and limit (_tower_overflow), as every verdict of one
    budget asks the same."""
    if group.kind != "Zd":
        return
    m = _tower_overflow(group, n, depth + window + MAX_EXTRA_LEVELS, MAX_TOWER_COORDINATES)
    if m is not None:
        raise UsageError(
            f"a kernel tower to depth {depth} with window {window} over {group.label()}"
            f" with n = {n} would build more window coordinates over its levels than"
            f" the limit of {MAX_TOWER_COORDINATES}"
            f" (largest depth within it: {max(m - 1 - window - MAX_EXTRA_LEVELS, -1)})"
        )


@functools.lru_cache(maxsize=64)
def _tower_overflow(group: GroupSpec, n: int, last: int, limit: int) -> Optional[int]:
    """The first level m <= last at which the window coordinates n *
    ball_size of levels 0 .. m pass limit, None if none does.  The sum
    stops there, so an accepted depth costs one ball_size per level and a
    refused one stops at the first level m past the limit, however large
    the depth or the dimension: a ball past the limit is not counted."""
    total = 0
    for m in range(last + 1):
        size = group.ball_size(m, limit)
        if size is not None:
            total += n * size
        if size is None or total > limit:
            return m
    return None


def search_one_sided_inverse(t: Nuca, side: str, max_radius: int) -> Optional[tuple[Nuca, int]]:
    """The one-sided inverse of t on `side` inside ball(max_radius), with
    the radius of the smallest ball that holds it; None otherwise.

    Over Z^d, a^-1 is made from the coefficients of det(a), and no ball is
    searched; over free groups, and once those products pass
    MAX_DET_TERM_PAIRS, a^-1 is searched for over growing balls
    (_regular_part_inverse).  Either way the inverse is then made once
    (_factored_inverse).  None is in general not a proof of
    non-invertibility, since a^-1 or the inverse may lie past max_radius.
    It is one when the block M of a^-1 t is singular, and over Z^d when
    det(a) is not a monomial.  A search past search_radius_limit is
    refused before any work."""
    _check_side(side)
    _check_int("max_radius", max_radius)
    if max_radius < 0:
        raise UsageError("max_radius must be >= 0")
    check_search_radius(t.group, t.n, max_radius)
    return _search_inverse(t, side, max_radius, zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS))


def _search_inverse(
    t: Nuca, side: str, max_radius: int, det: Optional[tuple]
) -> Optional[tuple[Nuca, int]]:
    """search_one_sided_inverse past its checks, given zd_determinant of
    t's regular part (None off Z^d or past MAX_DET_TERM_PAIRS).

    A site g lies in the window ball(max_radius) iff norm(g) <= max_radius,
    so no ball is enumerated to test it; the balls _regular_inverse
    searches over are made one at a time, only when det does not serve.
    a^-1 is checked once, on the regular part of a^-1 t, and u once, on
    `side` (_factored_inverse)."""
    grp = t.group
    norm = grp.norm

    def within(g: Element) -> bool:
        return norm(g) <= max_radius

    balls = (FiniteSubset.ball(grp, r) for r in range(max_radius + 1))
    a_inv = _regular_part_inverse(t.element.regular, det, within, balls)
    if a_inv is None:
        return None
    u = _factored_inverse(t, a_inv, side, within)
    if u is None:
        return None
    radius = element_radius(u.element)
    return (u, radius) if radius <= max_radius else None


def search_left_inverse(t: Nuca, max_radius: int) -> Optional[tuple[Nuca, int]]:
    return search_one_sided_inverse(t, "left", max_radius)


def finitely_supported_kernel(t: Nuca, radius: int) -> Optional[Configuration]:
    """A nonzero configuration with zero base, support inside ball(radius),
    mapped to zero; None means no such witness exists AT THIS RADIUS.

    A witness refutes pre-injectivity: two asymptotic configurations with
    equal images differ exactly by such an element.
    """
    _check_int("radius", radius)
    if radius < 0:
        raise UsageError("radius must be >= 0")
    grp, fld, n = t.group, t.field, t.n
    support = FiniteSubset.ball(grp, radius)
    # over Q the rows are the primitive integer multiples elimination
    # reads, which have the kernel of the field rows
    rows = t._kernel_rows(support)
    ker = kernel_basis(Matrix(fld, len(rows), n * len(support), rows))
    if ker.dim == 0:
        return None
    first = ker.vectors()[0]
    dev = [
        (u, tuple(first[i * n : (i + 1) * n]))
        for i, u in enumerate(support)
    ]
    witness = Configuration.make(grp, fld, n, (fld.zero,) * n, dev)
    if witness.is_zero() or not t.apply(witness).is_zero():
        raise AssertionError("kernel search produced a non-witness; this is a bug")
    return witness


def _first_witness_radius(t: Nuca, max_radius: int) -> Optional[int]:
    """The smallest r <= max_radius at which finitely_supported_kernel(t, r)
    finds a witness, or None, from one elimination.

    The kernel rows of ball(max_radius) are taken with its sites in shell
    order (ball(0), then the sites of norm 1, of norm 2, ...), so the
    columns of each ball(r) form a prefix.  A row that reads ball(r) lies
    in the window of radius r, so those columns carry the map
    finitely_supported_kernel(t, r) eliminates, less some zero rows.  Its
    kernel is nonzero iff a column of the prefix lies in the span of the
    columns before it, which is when it is not a pivot of a basis whose
    rows lead at their first column: the first radius is the shell of the
    first column that is not a pivot.
    """
    grp, n = t.group, t.n
    shells = _shell_ordered_ball(grp, max_radius)
    pivots = _echelon(t.field.p, t._kernel_rows(shells), min)
    for c in range(n * len(shells)):
        if c not in pivots:
            return grp.norm(shells[c // n])
    return None


@functools.lru_cache(maxsize=32)
def _shell_ordered_ball(group: GroupSpec, radius: int) -> tuple:
    """ball(radius) in shell order, made once per (group, radius), as every
    verdict of one budget asks the same.  The verdict asks only for balls
    its search size check admits (check_search_radius), so each holds at
    most about 1,400 sites."""
    # a stable sort keeps the canonical order within each shell
    return tuple(sorted(group.ball(radius), key=group.norm))


@functools.lru_cache(maxsize=32)
def _box_shell(group: GroupSpec, m: int) -> FiniteSubset:
    """ball(m) minus ball(m - 1) on Z^d: the sites whose largest |coordinate|
    is m, taken face by face; the face g_i = +-m leaves out the sites of
    the faces of the axes before i.  A shell depends on (group, m) alone,
    and every tower reads the same first levels, so it is made once."""
    if m == 0:
        return FiniteSubset.ball(group, 0)
    d = group.dim
    sites = [
        rest[:i] + (s,) + rest[i:]
        for i in range(d)
        for s in (-m, m)
        for rest in itertools.product(
            *(range(1 - m, m) if j < i else range(-m, m + 1) for j in range(d - 1))
        )
    ]
    return FiniteSubset(group, group.sort(sites))


def kernel_tower(t: Nuca, depth: int, stabilization_window: int) -> KernelTowerReport:
    """Kernels of the induced maps over the box exhaustion of Z^d, with the
    dimensions of their projections to lower levels tracked until they sit
    still.

    Stationarity is guaranteed eventually (the projections form a
    decreasing chain of subspaces) but carries no effective bound, so the
    detection is heuristic: a level stabilizes once its projected subspace
    is unchanged for `stabilization_window` consecutive steps.  A tower
    past the size limit (check_tower_depth) is refused before level 0.

    The domain sites are numbered in the order they first appear, level by
    level (g h for each shell site g and memory site h), so the c_l
    coordinates of level l are a prefix of the next level's.  Only that
    prefix matters: every dimension below counts coordinates up to a
    level boundary, so the order within a level does not change it.  The
    window map A_m of ball(m) is A_{m-1} with the rows of the shell ball(m)
    minus ball(m - 1) below it, as the rows of ball(m - 1) read only the
    first c_{m-1} coordinates.  Each shell site g is composed with each
    memory site once, in one pass that numbers the sites g h and places
    the integer rule rows of g (Nuca._rules, read by memory position)
    straight at those numbers, with no window map built or re-keyed.
    Every domain site is numbered, so no row loses an entry.  So one
    semi-echelon basis whose rows lead at their last column takes in
    each shell's rows once, and its pivots P_m after level m give every
    dimension reported: the rows leading at c or later are independent on
    the columns >= c and the others vanish there, so
    rank A_m[:, >= c] = #{p in P_m : p >= c}, and the kernel K_m cut to the
    first c coordinates has dimension

        (c_m - |P_m|) - ((c_m - c) - #{p in P_m : p >= c}) = c - #{p in P_m : p < c},

    its dimension less that of its part that vanishes there.  The cuts of
    K_m, K_{m+1}, ... to one level form a decreasing chain (a point of
    K_{m+1} cut to c_m coordinates lies in K_m), so a cut is unchanged
    from one step to the next iff its dimension is.  No kernel vector is
    made.
    """
    if t.group.kind != "Zd":
        raise UsageError("kernel_tower needs the box exhaustion of Z^d")
    _check_int("depth", depth)
    _check_int("window", stabilization_window)
    if depth < 0 or stabilization_window < 1:
        raise UsageError("depth must be >= 0 and window >= 1")
    check_tower_depth(t.group, t.n, depth, stabilization_window)
    return _kernel_tower(t, depth, stabilization_window)


def _kernel_tower(t: Nuca, depth: int, stabilization_window: int) -> KernelTowerReport:
    """kernel_tower past its checks: t lives on Z^d, and the depth and
    window are in range and within check_tower_depth's limit."""
    grp, n, p = t.group, t.n, t.field.p
    max_level = depth + stabilization_window + MAX_EXTRA_LEVELS
    basis: dict[int, dict] = {}  # {pivot: integer row}, each row leads at its last column
    dims: list[int] = []  # c_m: the coordinates of each level, a prefix of the columns
    ranks: list[int] = []  # |P_m|
    pivots: list[list[int]] = []  # P_m minus P_{m-1}, sorted
    ids: dict = {}  # domain site -> its first column, in order of first appearance
    number, compose, memory = ids.setdefault, grp.compose, t.memory.elements
    constant_rule, exceptional = t._rules

    def ensure_level(m: int) -> None:
        while len(dims) <= m:
            rows = []
            for g in _box_shell(grp, len(dims)):
                # the first column of each memory site's block, read at g
                cols = [number(compose(g, h), n * len(ids)) for h in memory]
                for entries in exceptional.get(g, constant_rule)[1]:
                    rows.append({cols[k] + j: z for k, j, z in entries})
            before = len(basis)
            _echelon(p, rows, max, basis)
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
            cut = bisect_left(pivots[m], c)  # the new pivots p < c
            if cut == 0:
                run += 1
                if run >= stabilization_window:
                    stabilized_at, stable_dim = m - stabilization_window, current
                    break
            else:
                run = 0
                current -= cut
        levels.append(KernelTowerLevel(lv, kernel_dim, stable_dim, stabilized_at))
    return KernelTowerReport(depth=depth, window=stabilization_window, levels=tuple(levels))


def stable_injectivity_verdict(t: Nuca, budget: SearchBudget = SearchBudget()) -> InjectivityVerdict:
    """A left-inverse certificate, else a kernel witness, else tower evidence.

    A left-inverse certificate proves stable injectivity; a finitely
    supported kernel witness (for the map or for its constant part alone)
    refutes it; otherwise the verdict carries bounded tower evidence only.
    The certificate is searched for first, once.  A certificate at any
    radius rules out a witness at every radius: t is then injective, and
    its regular part is invertible, which makes the constant part
    injective.  So the verdict is the same as a search that tries the
    certificate, then both witnesses radius by radius, t's first.  The
    first radius with a witness comes from one elimination per map
    (_first_witness_radius): for t up to max_radius, then for the
    constant part below t's radius, and the witness is made once, at the
    smaller of the two.  Over Z^d a nonzero determinant of the regular
    part a proves that the constant part has no witness (adj(a) a =
    det(a), and k[Z^d] is a domain), so none is searched for; nor is t's
    own witness when t has no singular part, as t is then its own
    constant part.  The determinant and a^-1 are computed once, in one
    call, for the certificate and the prunes.
    A budget whose certificate search or kernel tower is past its size
    limit is refused before any search runs.
    """
    if not isinstance(budget, SearchBudget):
        raise UsageError(f"the verdict takes a SearchBudget, got {type(budget).__name__}")
    check_tower_depth(t.group, t.n, budget.depth, budget.window)
    check_search_radius(t.group, t.n, budget.max_radius)
    det = zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS)
    # _factored_inverse has re-verified the certificate
    hit = _search_inverse(t, "left", budget.max_radius, det)
    if hit is not None:
        return InjectivityVerdict(
            kind="proven_stably_injective",
            budget=budget,
            certificate=hit[0],
            certificate_radius=hit[1],
        )
    # the first witness radius of t, then of its constant part below it;
    # a nonzero det(a) proves that the constant part has no nonzero
    # finitely supported kernel point, nor t when it has no singular part
    det_nonzero = det is not None and not det[0].is_zero()
    radius = None if det_nonzero and not t.element.singular else _first_witness_radius(t, budget.max_radius)
    target, scope = t, "self"
    below = budget.max_radius if radius is None else radius - 1
    if not det_nonzero and below >= 0:
        const = constant_part(t)
        const_radius = _first_witness_radius(const, below)
        if const_radius is not None:
            target, scope, radius = const, "constant_part", const_radius
    if radius is not None:
        witness = finitely_supported_kernel(target, radius)
        if witness is None:
            raise AssertionError("no witness at the first witness radius; this is a bug")
        return InjectivityVerdict(
            kind="proven_not_injective",
            budget=budget,
            witness=witness,
            witness_scope=scope,
            witness_radius=radius,
        )
    # the budget's fields are in range, and check_tower_depth passed above
    tower = _kernel_tower(t, budget.depth, budget.window) if t.group.kind == "Zd" else None
    return InjectivityVerdict(kind="bounded_evidence", budget=budget, tower=tower)
