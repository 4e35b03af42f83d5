"""Invertibility and injectivity procedures for linear NUCA.

Five complementary tools:

* exact one-sided-inverse solving over a finite support window (the
  defining identity is linear in the unknown coefficients, and every
  product support is computable, so the search is a finite linear system
  whose columns are read straight off the map's terms);
* identity verification by ring equality (sound and complete because the
  NUCA <-> ring-element correspondence is injective over infinite groups);
* finitely supported kernel search (a witness refutes pre-injectivity,
  hence injectivity);
* the kernel tower over box exhaustions of Z^d, whose stabilized
  projections detect global kernel configurations;
* the regular-part obstruction over Z^d: projecting t = (a, b) onto its
  regular part a is a ring map into M_n(k[Z^d]), a matrix ring over a
  commutative domain whose units are the monomials c x^m.  So t has a
  one-sided inverse only if det(a) is a monomial, and the constant part
  (a CA) has a nonzero finitely supported kernel point only if
  det(a) = 0.  The searches these rule out are skipped.

Certificates and witnesses are re-verified before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UsageError
from .exactalg import Matrix, Subspace, kernel_basis, solve
from .groupring import GroupRingElement, coeff_is_zero, zd_determinant
from .groups import FiniteSubset, GroupSpec
from .nuca import Configuration, Nuca, constant_part
from .twisted import TwistedElement, basis_product_terms


# Inverse-search systems with more unknowns are refused before any work.
# Measured on 2 vCPUs (Python 3.11, one solvable left-search ball system of
# a random radius-1 map over F_5): about 0.75 KB of peak memory and 14-15 us
# per unknown, e.g. Z^3 radius 3 with n = 3 (1.06 M unknowns) 15 s and
# 754 MB, Z^2 radius 12 with n = 2 (1.57 M) 22 s and 1.17 GB; so one system
# at the limit needs about 1.5 GB.  free:26 at radius 2 would need 7.3 M.
MAX_UNKNOWNS = 2_000_000

# A kernel tower follows each level's projections at most this many levels
# past depth + stabilization window.
MAX_EXTRA_LEVELS = 8

# Kernel towers whose window coordinates n * ball_size(m), summed over every
# level m <= depth + window + MAX_EXTRA_LEVELS they may build, exceed this
# are refused before level 0.  The sum, not the last level alone, sets the
# cost: on Z^1 the last window grows linearly in the depth but the tower
# quadratically.  Measured on 2 vCPUs (Python 3.11, the decoy map, window 2,
# two runs each): 15-36 us and 0.2-0.27 KB of peak memory per coordinate.
# At the limit, which allows depth 989 on Z^1, 79 on Z^2 and 15 on Z^3 with
# n = 1 and window 2: Z^1 over Q 32-36 s and 267 MB, Z^1 over F_5 20-24 s
# and 220 MB, Z^2 over F_5 15-16 s and 205 MB.  Z^2 over Q with n = 2 at
# depth 35 (0.26 M coordinates) takes 4.0-4.2 s and 52 MB.
MAX_TOWER_COORDINATES = 1_000_000

# The determinant of the regular part is given up, and every search runs,
# once its products would multiply more than this many pairs of terms.
# Measured on 2 vCPUs (Python 3.11): about 1 us per pair over F_5 and Q.
# Random radius-1 maps need at most a few thousand pairs up to n = 6 on
# Z^3; a dense radius-1 map on Z^3 needs 0.59 M pairs (0.66 s over Q) at
# n = 5 and 2.1 M at n = 6, so a map that wide runs its searches unpruned,
# after at most about a second spent on the determinant.
MAX_DET_TERM_PAIRS = 1_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the verdict procedure; defaults are configuration, not theory."""

    max_radius: int = 3
    depth: int = 3
    window: int = 2

    def __post_init__(self):
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

    def all_stable_dims_zero(self) -> bool:
        return self.stabilized() and all(lv.stable_dim == 0 for lv in self.levels)


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
    as ring equality of the product with the unit."""
    return (u.element * v.element).is_one()


def solve_one_sided_inverse(t: Nuca, params: InverseSearchParams) -> Optional[Nuca]:
    """Exact search for an inverse supported in the given window.

    The identity (unknown * t = one, or t * unknown = one) is linear in the
    unknown's coefficients; the constraint set is finite because every
    product's support lies inside computable finite sets.  Free variables
    are set to zero, so the output is deterministic.

    The unknown has one n x n coefficient per support slot: a regular site
    g of the memory set, or an exceptional pair (e, g).  Each slot's
    columns come from P = (slot basis element with identity coefficient)
    times t on the searched side.  Such a product only relabels t's terms,
    so basis_product_terms reads P straight off t without a twisted
    product.  The product is bilinear and the slot's coefficient matrix
    factors out on its own side, so P yields all n^2 columns of the slot:
    row i of E_ij P is row j of P (left search), and column j of P E_ij is
    column i of P (right search).  Columns run over the slots (regular
    sites, then exceptional pairs), then over (i, j) row-major within a
    slot; rows are the product coordinates with a nonzero entry (or a
    nonzero target), in canonical order.  The one twisted product is the
    re-verification of a solution.  A system of more than MAX_UNKNOWNS
    unknowns is refused before it is assembled.
    """
    grp, fld, n = t.group, t.field, t.n
    if params.memory_set.group != grp or params.exceptional_set.group != grp:
        raise UsageError("the search window lives in a different group from the map")
    unknowns = len(params.memory_set) * (1 + len(params.exceptional_set)) * n * n
    if unknowns > MAX_UNKNOWNS:
        raise UsageError(
            f"the inverse search needs {unknowns} unknowns; the limit is {MAX_UNKNOWNS}"
        )
    left = params.side == "left"
    slots = [(None, g) for g in params.memory_set]
    slots += [(e, g) for e in params.exceptional_set for g in params.memory_set]

    # {row: {column: value}} for every nonzero entry; a row (site key, h key,
    # a, b) names one scalar coordinate of the product: entry (a, b) of the
    # coefficient at h of the regular part (site key ()) or of the singular
    # part at a site, so sorted rows follow the canonical coordinate order
    key = grp.key
    system: dict[tuple, dict] = {}
    for s, (e, g) in enumerate(slots):
        base = s * n * n
        for (site, h), c in basis_product_terms(t.element, params.side, e, g).items():
            site_key = () if site is None else key(site)
            h_key = key(h)
            for i in range(n):
                for j in range(n):
                    col = base + i * n + j
                    for k in range(n):
                        if left:
                            row, value = (site_key, h_key, i, k), c[j][k]
                        else:
                            row, value = (site_key, h_key, k, j), c[k][i]
                        if value:
                            system.setdefault(row, {})[col] = value
    target = {((), key(grp.identity), i, i): fld.one for i in range(n)}
    keys = sorted(system.keys() | target.keys())
    rhs = [target.get(row, fld.zero) for row in keys]
    x = solve(Matrix(fld, len(keys), len(slots) * n * n, [system.get(row, {}) for row in keys]), rhs)
    if x is None:
        return None

    terms: dict = {}
    for s, (e, g) in enumerate(slots):
        coeff = tuple(tuple(x[(s * n + i) * n + j] for j in range(n)) for i in range(n))
        if not coeff_is_zero(coeff):
            terms.setdefault(e, []).append((g, coeff))
    regular = GroupRingElement.from_terms(grp, fld, n, terms.pop(None, ()))
    singular = [(e, GroupRingElement.from_terms(grp, fld, n, ts)) for e, ts in terms.items()]
    candidate = Nuca(TwistedElement.make(regular, singular))
    ok = verify_identity(candidate, t) if left else verify_identity(t, candidate)
    if not ok:
        raise AssertionError("inverse solver produced a non-inverse; this is a bug")
    return candidate


def _regular_det_terms(t: Nuca) -> Optional[int]:
    """The number of terms of det(a), a the regular part of t, over Z^d;
    None off Z^d or past MAX_DET_TERM_PAIRS.  An inverse of t projects to
    one of a, so a count other than 1 proves that t has no one-sided
    inverse; a count other than 0 proves that the constant part of t has
    no nonzero finitely supported kernel point."""
    det = zd_determinant(t.element.regular, MAX_DET_TERM_PAIRS)
    return None if det is None else len(det.terms)


def _inverse_in_ball(t: Nuca, side: str, r: int) -> Optional[Nuca]:
    """The one-sided inverse with memory and exceptional window ball(r), if any."""
    ball = FiniteSubset.ball(t.group, r)
    return solve_one_sided_inverse(t, InverseSearchParams.make(side, ball, ball))


def _ball_unknowns(group: GroupSpec, n: int, radius: int) -> int:
    size = group.ball_size(radius)
    return size * (1 + size) * n * n


def search_radius_limit(group: GroupSpec, n: int, max_radius: int) -> int:
    """The largest radius up to max_radius whose ball system has at most
    MAX_UNKNOWNS unknowns (-1 if even radius 0 has more)."""
    r = -1
    while r < max_radius and _ball_unknowns(group, n, r + 1) <= MAX_UNKNOWNS:
        r += 1
    return r


def check_search_radius(group: GroupSpec, n: int, max_radius: int) -> None:
    """Refuse a ball search up to max_radius whose last system would have
    more than MAX_UNKNOWNS unknowns, before any work is done."""
    unknowns = _ball_unknowns(group, n, max_radius)
    if unknowns > MAX_UNKNOWNS:
        raise UsageError(
            f"an inverse search to radius {max_radius} over {group.label()} with n = {n}"
            f" needs {unknowns} unknowns; the limit is {MAX_UNKNOWNS}"
            f" (largest radius within it: {search_radius_limit(group, n, max_radius)})"
        )


def _tower_depth_limit(group: GroupSpec, n: int, window: int) -> int:
    """The largest depth whose tower, with this stabilization window, has at
    most MAX_TOWER_COORDINATES window coordinates over all the levels it may
    build (-1 if none)."""
    level, total = -1, 0
    while total + n * group.ball_size(level + 1) <= MAX_TOWER_COORDINATES:
        level += 1
        total += n * group.ball_size(level)
    return max(level - window - MAX_EXTRA_LEVELS, -1)


def check_tower_depth(group: GroupSpec, n: int, depth: int, window: int) -> None:
    """Refuse a kernel tower over Z^d past _tower_depth_limit before any
    work is done.  Other groups have no tower, so nothing is refused.

    The window coordinates of the levels the tower may build are summed
    until the sum passes the limit, so an accepted depth costs one
    ball_size per level and a refused one stops at the first level past
    the limit, however large the depth."""
    if group.kind != "Zd":
        return
    total = 0
    for m in range(depth + window + MAX_EXTRA_LEVELS + 1):
        total += n * group.ball_size(m)
        if total > MAX_TOWER_COORDINATES:
            raise UsageError(
                f"a kernel tower to depth {depth} with window {window} over {group.label()}"
                f" with n = {n} would build more window coordinates over its levels than"
                f" the limit of {MAX_TOWER_COORDINATES}"
                f" (largest depth within it: {_tower_depth_limit(group, n, window)})"
            )


def search_one_sided_inverse(t: Nuca, side: str, max_radius: int) -> Optional[tuple[Nuca, int]]:
    """Grow support balls until a one-sided inverse appears.  None is in
    general not a proof of non-invertibility; the needed radius has no
    a-priori bound.  Over Z^d a determinant of the regular part that is not
    a monomial is such a proof, and then no ball is searched.  A search
    past search_radius_limit is refused before radius 0 runs."""
    _check_side(side)
    if max_radius < 0:
        raise UsageError("max_radius must be >= 0")
    check_search_radius(t.group, t.n, max_radius)
    if _regular_det_terms(t) not in (None, 1):
        return None
    for r in range(max_radius + 1):
        cert = _inverse_in_ball(t, side, r)
        if cert is not None:
            return cert, r
    return None


def search_left_inverse(t: Nuca, max_radius: int) -> Optional[tuple[Nuca, int]]:
    return search_one_sided_inverse(t, "left", max_radius)


def finitely_supported_kernel(t: Nuca, radius: int) -> Optional[Configuration]:
    """A nonzero configuration with zero base, support inside ball(radius),
    mapped to zero; None means no such witness exists AT THIS RADIUS.

    A witness refutes pre-injectivity: two asymptotic configurations with
    equal images differ exactly by such an element.
    """
    if radius < 0:
        raise UsageError("radius must be >= 0")
    grp, fld, n = t.group, t.field, t.n
    support = FiniteSubset.ball(grp, radius)
    window = support.product(t.memory.inverse()) if len(t.memory) else FiniteSubset.make(grp, ())
    window = window.union(t.exceptional_set)

    local = t.induced_local_map(window)
    # keep the columns of the domain sites inside the support, re-keyed to
    # the support's order; the others meet only zero entries of the vector
    cols = _column_map(local.domain_set, support, n)
    rows = [{cols[j]: x for j, x in row.items() if j in cols} for row in local.matrix.data]
    ker = kernel_basis(Matrix(fld, local.matrix.rows, n * len(support), rows))
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


def _column_map(domain: FiniteSubset, sites: FiniteSubset, n: int) -> dict[int, int]:
    """{column of `domain`: column of `sites`} for the n coordinates of each
    site of `sites` that lies in `domain`."""
    return {
        domain.position(u) * n + i: k * n + i
        for k, u in enumerate(sites) if u in domain
        for i in range(n)
    }


def kernel_tower(t: Nuca, depth: int, stabilization_window: int) -> KernelTowerReport:
    """Kernels of the induced maps over the box exhaustion of Z^d, with
    their projections to lower levels tracked until they sit still.

    Stationarity is guaranteed eventually (the projections form a
    decreasing chain of subspaces) but carries no effective bound, so the
    detection is heuristic: a level stabilizes once its projected subspace
    is unchanged for `stabilization_window` consecutive steps.  A tower
    past the size limit (check_tower_depth) is refused before level 0.
    """
    if t.group.kind != "Zd":
        raise UsageError("kernel_tower needs the box exhaustion of Z^d")
    if depth < 0 or stabilization_window < 1:
        raise UsageError("depth must be >= 0 and window >= 1")
    fld, n = t.field, t.n

    check_tower_depth(t.group, n, depth, stabilization_window)
    max_level = depth + stabilization_window + MAX_EXTRA_LEVELS
    kernels: list[Subspace] = []
    domains: list[FiniteSubset] = []

    def ensure_level(m: int) -> None:
        while len(kernels) <= m:
            box = FiniteSubset.ball(t.group, len(kernels))
            local = t.induced_local_map(box)
            domains.append(local.domain_set)
            kernels.append(kernel_basis(local.matrix))

    def project(level: int, m: int) -> Subspace:
        """Restrict kernel vectors at level m to the coordinates of level `level`."""
        cols = _column_map(domains[m], domains[level], n)
        rows = ({cols[j]: x for j, x in row.items() if j in cols} for row in kernels[m].basis.data)
        return Subspace.from_rows(fld, n * len(domains[level]), rows)

    levels = []
    for lv in range(depth + 1):
        ensure_level(lv)
        current = kernels[lv]
        run = 0
        stabilized_at = None
        stable: Optional[Subspace] = None
        for m in range(lv + 1, max_level + 1):
            ensure_level(m)
            nxt = project(lv, m)
            if nxt == current:
                run += 1
                if run >= stabilization_window:
                    stabilized_at = m - stabilization_window
                    stable = current
                    break
            else:
                run = 0
            current = nxt
        levels.append(
            KernelTowerLevel(
                level=lv,
                kernel_dim=kernels[lv].dim,
                stable_dim=None if stable is None else stable.dim,
                stabilized_at=stabilized_at,
            )
        )
    return KernelTowerReport(depth=depth, window=stabilization_window, levels=tuple(levels))


def stable_injectivity_verdict(t: Nuca, budget: SearchBudget = SearchBudget()) -> InjectivityVerdict:
    """Interleaved certificate/witness search, then tower evidence.

    A left-inverse certificate proves stable injectivity; a finitely
    supported kernel witness (for the map or for its constant part alone)
    refutes it; otherwise the verdict carries bounded tower evidence only.
    Over Z^d the determinant of the regular part rules searches out: one
    that is not a monomial proves that no left inverse exists, so no
    certificate is searched for, and a nonzero one proves that the
    constant part has no witness, so none is searched for.  The verdict is
    the same as with every search run.  A budget whose largest certificate
    search or kernel tower is past its size limit is refused before any
    search runs.
    """
    check_search_radius(t.group, t.n, budget.max_radius)
    check_tower_depth(t.group, t.n, budget.depth, budget.window)
    det_terms = _regular_det_terms(t)
    search_inverse = det_terms in (None, 1)
    search_constant = det_terms in (None, 0)
    const = constant_part(t)
    for r in range(budget.max_radius + 1):
        # solve_one_sided_inverse has re-verified the certificate
        cert = _inverse_in_ball(t, "left", r) if search_inverse else None
        if cert is not None:
            return InjectivityVerdict(
                kind="proven_stably_injective",
                budget=budget,
                certificate=cert,
                certificate_radius=r,
            )
        witness = finitely_supported_kernel(t, r)
        if witness is not None:
            return InjectivityVerdict(
                kind="proven_not_injective",
                budget=budget,
                witness=witness,
                witness_scope="self",
                witness_radius=r,
            )
        cwitness = finitely_supported_kernel(const, r) if search_constant else None
        if cwitness is not None:
            return InjectivityVerdict(
                kind="proven_not_injective",
                budget=budget,
                witness=cwitness,
                witness_scope="constant_part",
                witness_radius=r,
            )
    tower = (
        kernel_tower(t, budget.depth, budget.window) if t.group.kind == "Zd" else None
    )
    return InjectivityVerdict(kind="bounded_evidence", budget=budget, tower=tower)
