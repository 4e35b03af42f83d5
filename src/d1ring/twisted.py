"""The twisted extension of a group ring: pairs (regular, singular) where
the regular part lives in the group ring and the singular part is a
finitely supported map from sites to group ring elements.

Addition is componentwise.  Multiplication twists the singular component:
with u = (a1, b1) and v = (a2, b2),

    u * v = (a1 a2,  a1 b2 + b1 a2 + b1 b2)

where the three singular products are defined slot-wise by

    (a b)(g)(h) = sum_t a(t) b(gt)(t^-1 h)
    (b a)(g)(h) = sum_t b(g)(t) a(t^-1 h)
    (b c)(g)(h) = sum_t b(g)(t) c(gt)(t^-1 h)

These are NOT the convolution of the iterated group ring (k[G])[G]; the
site argument of the right factor is shifted by the summation variable.
In code each slot reduces to ordinary group ring convolutions:
(a b)(g) = sum over t in supp(a) with site u = gt of (a(t) t) * b(u),
(b a)(g) = b(g) * a2, and (b c)(g) = sum over t in supp(b(g)) of
(b(g)(t) t) * c(gt).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import UsageError
from .exactalg import FieldSpec
from .groupring import (
    GroupRingElement,
    Shape,
    coeff_add,
    coeff_is_zero,
    matrix_shuffle,
    matrix_unshuffle,
)
from .groups import Element, FiniteSubset, GroupSpec


@dataclass(frozen=True)
class TwistedElement:
    """Canonical form: singular pairs sorted by site, zero parts dropped;
    all components share one group, field, and coefficient shape."""

    regular: GroupRingElement
    singular: tuple[tuple[Element, GroupRingElement], ...]

    @property
    def group(self) -> GroupSpec:
        return self.regular.group

    @property
    def field(self) -> FieldSpec:
        return self.regular.field

    @property
    def shape(self) -> Shape:
        return self.regular.shape

    @staticmethod
    def make(
        regular: GroupRingElement,
        singular: Mapping[Element, GroupRingElement] | Iterable[tuple[Element, GroupRingElement]] = (),
    ) -> "TwistedElement":
        items = singular.items() if isinstance(singular, Mapping) else singular
        acc: dict[Element, GroupRingElement] = {}
        for g, part in items:
            regular.group.check(g)
            if part.group != regular.group or part.field != regular.field or part.shape != regular.shape:
                raise UsageError("singular parts disagree with the regular part")
            acc[g] = acc[g] + part if g in acc else part
        pairs = [(g, p) for g, p in acc.items() if not p.is_zero()]
        pairs.sort(key=lambda t: regular.group.key(t[0]))
        return TwistedElement(regular, tuple(pairs))

    @staticmethod
    def zero(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "TwistedElement":
        return TwistedElement(GroupRingElement.zero(group, field, shape), ())

    @staticmethod
    def one(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "TwistedElement":
        return TwistedElement(GroupRingElement.one(group, field, shape), ())

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.regular.is_zero() and not self.singular

    def is_one(self) -> bool:
        return self == TwistedElement.one(self.group, self.field, self.shape)

    def singular_part(self, g: Element) -> GroupRingElement:
        for h, part in self.singular:
            if h == g:
                return part
        return GroupRingElement.zero(self.group, self.field, self.shape)

    def singular_support(self) -> FiniteSubset:
        """The exceptional sites: where the singular part is nonzero."""
        return FiniteSubset(self.group, tuple(g for g, _ in self.singular))

    def memory(self) -> FiniteSubset:
        """supp(regular) united with every singular part's support."""
        sites = set(g for g, _ in self.regular.terms)
        for _, part in self.singular:
            sites.update(g for g, _ in part.terms)
        return FiniteSubset(self.group, self.group.sort(sites))

    def _check_compatible(self, other: "TwistedElement") -> None:
        self.regular._check_compatible(other.regular)

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        # operands are canonical, so a zero summand leaves the other as is
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return TwistedElement.make(
            self.regular + other.regular, self.singular + other.singular
        )

    def __neg__(self) -> "TwistedElement":
        return TwistedElement(
            -self.regular, tuple((g, -p) for g, p in self.singular)
        )

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self + (-other)

    def scale(self, c) -> "TwistedElement":
        return TwistedElement.make(
            self.regular.scale(c), ((g, p.scale(c)) for g, p in self.singular)
        )

    def __mul__(self, other: "TwistedElement") -> "TwistedElement":
        self._check_compatible(other)
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        grp, field, shape = self.group, self.field, self.shape
        reg = self.regular * other.regular
        acc: dict[Element, GroupRingElement] = {}

        def add_into(site: Element, part: GroupRingElement) -> None:
            acc[site] = acc[site] + part if site in acc else part

        # regular1 * singular2: contributions land at site u t^-1 for each
        # term t of the regular part and each singular site u.
        for t, c in self.regular.terms:
            mono = GroupRingElement.monomial(grp, field, shape, t, c)
            t_inv = grp.inverse(t)
            for u, part in other.singular:
                add_into(grp.compose(u, t_inv), mono * part)

        # singular1 * regular2: sitewise right convolution.
        for g, part in self.singular:
            add_into(g, part * other.regular)

        # singular1 * singular2: only terms t of b1(g) whose shifted site
        # g t hits supp(b2) contribute.
        other_sites = dict(other.singular)
        for g, part in self.singular:
            for t, c in part.terms:
                hit = other_sites.get(grp.compose(g, t))
                if hit is not None:
                    add_into(g, GroupRingElement.monomial(grp, field, shape, t, c) * hit)

        return TwistedElement.make(reg, acc)


def basis_product_terms(
    t: TwistedElement, side: str, site: Element | None, g: Element
) -> dict[tuple[Element | None, Element], object]:
    """The terms of unit * t (side "left") or t * unit (side "right"), where
    unit is the basis element with identity coefficient at g: (g, 0) for
    site None, else (0, site |-> g).

    Multiplying by such a unit only relabels the terms of t = (a, b): group
    elements are translated by g and coefficients are copied unchanged, so
    the product is read off t's terms without computing it:

        (g, 0) * t          regular g h from a; site u g^-1 at g h from b(u)
        (0, e |-> g) * t    site e at g h from a and from b(e g)
        t * (g, 0)          regular h g from a; site u at h g from b(u)
        t * (0, e |-> g)    site e h^-1 at h g from a; site u at h g from
                            each term h of b(u) with u h = e

    Returns {(site, h): coefficient} with site None for the regular part.
    Contributions that land on one (site, h) are summed and entries that
    cancel are dropped, so the result holds exactly the canonical product's
    terms (the two summed cases are the exceptional rows above).
    """
    if side not in ("left", "right"):
        raise UsageError(f"side must be 'left' or 'right', got {side!r}")
    grp, field = t.group, t.field
    compose = grp.compose
    a, b = t.regular.terms, t.singular
    acc: dict[tuple[Element | None, Element], object] = {}

    def add(key: tuple[Element | None, Element], c) -> None:
        # acc holds the nonzero partial sums; a missing key means zero
        if key in acc:
            c = coeff_add(field, acc[key], c)
            if coeff_is_zero(c):
                del acc[key]
                return
        acc[key] = c

    if side == "left":
        if site is None:
            for h, c in a:
                add((None, compose(g, h)), c)
            g_inv = grp.inverse(g)
            for u, part in b:
                moved = compose(u, g_inv)
                for h, c in part.terms:
                    add((moved, compose(g, h)), c)
        else:
            for h, c in a:
                add((site, compose(g, h)), c)
            hit = compose(site, g)
            for u, part in b:
                if u == hit:
                    for h, c in part.terms:
                        add((site, compose(g, h)), c)
    elif site is None:
        for h, c in a:
            add((None, compose(h, g)), c)
        for u, part in b:
            for h, c in part.terms:
                add((u, compose(h, g)), c)
    else:
        for h, c in a:
            add((compose(site, grp.inverse(h)), compose(h, g)), c)
        for u, part in b:
            for h, c in part.terms:
                if compose(u, h) == site:
                    add((u, compose(h, g)), c)
    return acc


def embed(a: GroupRingElement) -> TwistedElement:
    """The canonical embedding of the group ring: a |-> (a, 0)."""
    return TwistedElement(a, ())


def as_matrix_shape(u: TwistedElement) -> TwistedElement:
    """Lift a scalar-shaped element to 1x1 matrix coefficients."""
    if u.shape is not None:
        raise UsageError("element already has matrix-shaped coefficients")
    return f_shuffle_inv(TwistedMatrix(1, ((u,),)))


@dataclass(frozen=True)
class TwistedMatrix:
    """A square matrix of twisted elements with uniform group/field/shape."""

    n: int
    entries: tuple[tuple[TwistedElement, ...], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.entries) != self.n or any(
            len(row) != self.n for row in self.entries
        ):
            raise UsageError("entries must form an n x n grid")
        first = self.entries[0][0]
        for row in self.entries:
            for e in row:
                e._check_compatible(first)

    @property
    def group(self) -> GroupSpec:
        return self.entries[0][0].group

    @property
    def field(self) -> FieldSpec:
        return self.entries[0][0].field

    @property
    def shape(self) -> Shape:
        return self.entries[0][0].shape

    @staticmethod
    def identity(n: int, group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "TwistedMatrix":
        one = TwistedElement.one(group, field, shape)
        zero = TwistedElement.zero(group, field, shape)
        return TwistedMatrix(
            n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @staticmethod
    def diagonal(entries: Iterable[TwistedElement]) -> "TwistedMatrix":
        entries = tuple(entries)
        n = len(entries)
        zero = TwistedElement.zero(entries[0].group, entries[0].field, entries[0].shape)
        return TwistedMatrix(
            n,
            tuple(
                tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
            ),
        )

    def is_identity(self) -> bool:
        return self == TwistedMatrix.identity(self.n, self.group, self.field, self.shape)

    def __matmul__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        if self.n != other.n:
            raise UsageError("matrix size mismatch")
        self.entries[0][0]._check_compatible(other.entries[0][0])
        n = self.n
        zero = TwistedElement.zero(self.group, self.field, self.shape)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for r in range(n):
                    a, b = self.entries[i][r], other.entries[r][j]
                    # `*` and `+` would return at once on a zero too; skipping
                    # here also saves their two calls and compatibility checks
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return TwistedMatrix(n, tuple(rows))

    def __add__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        if self.n != other.n:
            raise UsageError("matrix size mismatch")
        return TwistedMatrix(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )


def f_shuffle(x: TwistedElement) -> TwistedMatrix:
    """The entry-shuffle isomorphism from matrix-coefficient twisted
    elements to matrices of scalar-coefficient twisted elements:
    entry (i,j) of the result is (regular_(ij), sum_g singular(g)_(ij) g)."""
    if x.shape is None:
        raise UsageError("f_shuffle requires matrix-shaped coefficients")
    n = x.shape
    reg_grid = matrix_shuffle(x.regular)
    sing_grids = [(g, matrix_shuffle(part)) for g, part in x.singular]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sing = [(g, grid[i][j]) for g, grid in sing_grids if not grid[i][j].is_zero()]
            row.append(TwistedElement.make(reg_grid[i][j], sing))
        rows.append(tuple(row))
    return TwistedMatrix(n, tuple(rows))


def f_shuffle_inv(m: TwistedMatrix) -> TwistedElement:
    """Inverse of f_shuffle: reassemble matrix coefficients entrywise."""
    if m.shape is not None:
        raise UsageError("f_shuffle_inv expects scalar-shaped entries")
    n = m.n
    reg = matrix_unshuffle([[m.entries[i][j].regular for j in range(n)] for i in range(n)])
    sites: set[Element] = set()
    for row in m.entries:
        for e in row:
            sites.update(g for g, _ in e.singular)
    sing = []
    for g in sites:
        part = matrix_unshuffle(
            [[m.entries[i][j].singular_part(g) for j in range(n)] for i in range(n)]
        )
        sing.append((g, part))
    return TwistedElement.make(reg, sing)
