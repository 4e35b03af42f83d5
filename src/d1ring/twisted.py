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
In code each slot reduces to group ring convolutions:
(a b)(g) = sum over t in supp(a) with site u = gt of (a(t) t) * b(u),
(b a)(g) = b(g) * a2, and (b c)(g) = sum over t in supp(b(g)) of
(b(g)(t) t) * c(gt).  One fused kernel, _mul_into, convolves a1 a2 and
these three slot sums term by term into a single accumulator
{site or None: {h: coefficient}}.  Scalar coefficients, the entries of
every TwistedMatrix, are convolved in _mul_into's own loops; n x n
coefficients by the convolve kernel of n (groupring._kernels, unrolled
up to groupring.MAX_KERNEL_N), bound once per product and called for
each of a1 a2, a1 b2, b1 a2 and b1 b2.  A product, or a sum of products
such as an entry of a matrix product, is one list of pairs (x, y),
accumulated by the kernel (_accumulate) and made canonical once at the
end (_built), not once per partial convolution and sum.

The accumulator holds plain ints: over F_p the operands as they are, and
over Q each operand's integer numerators over one scale for its regular
and singular parts alike, since the kernel mixes them.  A sum of pairs is
brought to the lcm L of the pairs' scales (_accumulate), so it holds L
times the sum, and making it canonical divides each entry by L once,
into a Fraction even when L = 1.

Only the pairs that can contribute reach the kernel.  An entry of a
matrix product (@) pairs the entries of its row and column where both
are nonzero, each row's nonzero entries listed once: a pair with a zero
side adds nothing to the sum, and an entry with no pair left is the zero
element.  A product with a side 1 is its other side, returned as it is
since operands are canonical and immutable, in the callers that meet
many such products: TwistedElement * and product_is_one, and gen_unit
for an entry of one live pair with its shared 1 as a side.  Elsewhere
a side 1 goes to the kernel like any other, at the cost of one pass
over the other side's terms.  These skips are exact, and every
compatibility check runs before them.

Whether a sum of products is 1 or 0 is decided on the same raw
accumulator, without making it canonical (_acc_is): every raw entry
must reduce to zero (mod p over F_p), except that for 1 the regular
slot's coefficient at the identity must reduce to 1, the identity
matrix for n x n coefficients; over Q it must equal L times it, so
nothing is divided.  TwistedElement.product_is_one answers "is this
product 1?" with it, and TwistedMatrix.product_is_identity decides each
entry of a matrix product in the same way, on one raw accumulator per
entry, stopping at the first entry that fails.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

from .errors import UsageError, _check_int
from .exactalg import FieldSpec
from .groupring import (
    GroupRingElement,
    Shape,
    _Frozen,
    _canonical_terms,
    _denominator,
    _kernels,
    _numerators,
    _raw_is_one,
    _raw_is_zero,
    _slot_setters,
    coeff_one,
)
from .groups import Element, FiniteSubset, GroupSpec


class TwistedElement(_Frozen):
    """Canonical form: singular pairs sorted by site, zero parts dropped;
    all components share one group, field, and coefficient shape."""

    __slots__ = ("regular", "singular")
    regular: GroupRingElement
    singular: tuple[tuple[Element, GroupRingElement], ...]

    def __init__(
        self, regular: GroupRingElement, singular: tuple[tuple[Element, GroupRingElement], ...]
    ) -> None:
        _set_regular(self, regular)
        _set_singular(self, singular)

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
        if not isinstance(regular, GroupRingElement):
            raise UsageError(f"the regular part must be a group ring element, got {type(regular).__name__}")
        items = singular.items() if isinstance(singular, Mapping) else singular
        acc: dict[Element, GroupRingElement] = {}
        for g, part in items:
            regular.group.check(g)
            if not isinstance(part, GroupRingElement):
                raise UsageError(f"a singular part must be a group ring element, got {type(part).__name__}")
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
        return not self.singular and not self.regular.terms

    def is_one(self) -> bool:
        # most elements fail on the singular part or the term count
        reg = self.regular
        if self.singular or len(reg.terms) != 1:
            return False
        ((g, c),) = reg.terms
        return g == reg.group.identity and c == coeff_one(reg.field, reg.shape)

    def singular_part(self, g: Element) -> GroupRingElement:
        self.group.check(g)
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
        self._check_compatible(other)
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
        # operands are canonical and immutable, so a side 1 gives the other
        if self.is_one():
            return other
        if other.is_one():
            return self
        grp, field, shape = self.group, self.field, self.shape
        return _built(grp, field, shape, *_accumulate(grp, field, shape, ((self, other),)))

    def product_is_one(self, other: "TwistedElement") -> bool:
        """(self * other).is_one(), decided on the raw accumulator without
        building the product (_acc_is)."""
        self._check_compatible(other)
        left, right = self.is_one(), other.is_one()
        if left or right:
            return left and right
        grp, field, shape = self.group, self.field, self.shape
        return _acc_is(grp, field, shape, *_accumulate(grp, field, shape, ((self, other),)), True)


_set_regular, _set_singular = _slot_setters(TwistedElement)


def _mul_into(acc: dict, grp: GroupSpec, shape: Shape, x: TwistedElement, y: TwistedElement) -> None:
    """Add the raw terms of x * y into acc = {site: {h: coefficient}}, with
    site None for the regular part; x and y are trusted to share grp, field
    and shape.  n x n coefficients go to the convolve kernel of n
    (groupring._kernels), bound once per product; scalars stay in this
    function's own loops, as a kernel call for them cost suite-df-free2-f5
    1.7 % and pipeline-z2-f5 1.2 % (ROADMAP, measured and rejected)."""
    compose = grp.compose
    a1, a2 = x.regular.terms, y.regular.terms
    if shape is None:
        slot = acc.setdefault(None, {})
        get = slot.get
        for t, c in a1:
            for h, d in a2:
                k = compose(t, h)
                slot[k] = get(k, 0) + c * d
        # a1 b2: the term t of a1 times b2(u) lands at site u t^-1
        if y.singular:
            inverse = grp.inverse
            for t, c in a1:
                t_inv = inverse(t)
                for u, part in y.singular:
                    slot = acc.setdefault(compose(u, t_inv), {})
                    get = slot.get
                    for h, d in part.terms:
                        k = compose(t, h)
                        slot[k] = get(k, 0) + c * d
        if not x.singular:
            return
        # b1 a2 and b1 b2 by the terms t of b1(g): b2 is read at g t
        other_sites = dict(y.singular)
        for g, part in x.singular:
            slot = acc.setdefault(g, {})
            get = slot.get
            for t, c in part.terms:
                for h, d in a2:
                    k = compose(t, h)
                    slot[k] = get(k, 0) + c * d
                hit = other_sites.get(compose(g, t)) if other_sites else None
                if hit is not None:
                    for h, d in hit.terms:
                        k = compose(t, h)
                        slot[k] = get(k, 0) + c * d
        return
    convolve = _kernels(shape)[0]
    convolve(acc.setdefault(None, {}), compose, a1, a2)
    # a1 b2: the term t of a1 times b2(u) lands at site u t^-1
    if y.singular:
        for t, c in a1:
            t_inv = grp.inverse(t)
            for u, part in y.singular:
                convolve(acc.setdefault(compose(u, t_inv), {}), compose, ((t, c),), part.terms)
    if not x.singular:
        return
    # b1 a2 is sitewise; in b1 b2 only the terms t of b1(g) whose shifted
    # site g t hits supp(b2) contribute
    other_sites = dict(y.singular)
    for g, part in x.singular:
        slot = acc.setdefault(g, {})
        convolve(slot, compose, part.terms, a2)
        if other_sites:
            for t, c in part.terms:
                hit = other_sites.get(compose(g, t))
                if hit is not None:
                    convolve(slot, compose, ((t, c),), hit.terms)


def _scale_of(x: TwistedElement) -> int:
    """The lcm of the denominators of x's entries over Q, regular and
    singular alike."""
    shape = x.shape
    return math.lcm(_denominator(shape, x.regular.terms), *(_denominator(shape, b.terms) for _, b in x.singular))


def _numerators_of(x: TwistedElement, scale: int) -> TwistedElement:
    """x over Q times scale, a multiple of _scale_of(x), with plain int
    entries: not a canonical element, only what _mul_into and _accumulate
    read, so it is built without checks."""
    grp, fld, shape = x.group, x.field, x.shape

    def part(terms) -> GroupRingElement:
        return GroupRingElement(grp, fld, shape, _numerators(shape, terms, scale))

    return TwistedElement(part(x.regular.terms), tuple((g, part(b.terms)) for g, b in x.singular))


def _on_numerators(line) -> tuple[int, list]:
    """A row or column of entries over Q on integer numerators: the lcm L
    of its nonzero entries' scales (_scale_of), and the line with each
    nonzero entry read over L (_numerators_of); a zero entry is kept as it
    is."""
    scale = math.lcm(*(_scale_of(x) for x in line if x.singular or x.regular.terms))
    return scale, [_numerators_of(x, scale) if x.singular or x.regular.terms else x for x in line]


def _accumulate(grp: GroupSpec, field: FieldSpec, shape: Shape, pairs) -> tuple[dict, int]:
    """The raw sum of the products x y over the pairs (x, y), as {site or
    None: {h: coefficient}} filled by _mul_into, and its scale.  Over F_p
    the sides are read as they are, at scale 1.  Over Q each side is read
    on its integer numerators over one scale for its regular and singular
    parts, as _mul_into mixes them: the lcm L_y of y's denominators for
    the right side y, and L / L_y for the left side x, where L is the lcm
    of the scales L_x L_y of the pairs.  So every pair adds L times its
    product, in plain ints."""
    scale = 1
    if not field.p:
        sides = [(x, y, _scale_of(x), _scale_of(y)) for x, y in pairs]
        scale = math.lcm(*(lx * ly for _, _, lx, ly in sides))
        pairs = [(_numerators_of(x, scale // ly), _numerators_of(y, ly)) for x, y, _, ly in sides]
    acc: dict = {}
    for x, y in pairs:
        _mul_into(acc, grp, shape, x, y)
    return acc, scale


def _built(grp: GroupSpec, field: FieldSpec, shape: Shape, acc: dict, scale: int) -> TwistedElement:
    """The raw accumulator acc of the given scale (_accumulate) made
    canonical once: every part reduced (over Q divided by the scale),
    empty parts dropped, sites sorted.  The sites are composed from
    validated elements, so they are trusted."""
    regular = GroupRingElement(
        grp, field, shape, _canonical_terms(grp, field, shape, acc.pop(None, {}), scale)
    )
    singular = []
    for g, slot in acc.items():
        terms = _canonical_terms(grp, field, shape, slot, scale)
        if terms:
            singular.append((g, GroupRingElement(grp, field, shape, terms)))
    if len(singular) > 1:
        singular.sort(key=lambda t: grp.key(t[0]))
    return TwistedElement(regular, tuple(singular))


def _acc_is(grp: GroupSpec, field: FieldSpec, shape: Shape, acc: dict, scale: int, one: bool) -> bool:
    """Whether the raw accumulator acc of the given scale (_accumulate)
    holds 1 (one set) or 0, with no part reduced, sorted or built: every
    raw entry must reduce to zero, except that for 1 the regular slot's
    coefficient at the identity must reduce to 1, over Q equal the scale
    (groupring._raw_is_one and _raw_is_zero), so nothing is divided.  For
    1 that coefficient is popped from acc."""
    if one:
        c = acc.get(None, {}).pop(grp.identity, None)
        if c is None or not _raw_is_one(field, shape, c, scale):
            return False
    return _raw_is_zero(field, shape, chain.from_iterable(slot.values() for slot in acc.values()))


def embed(a: GroupRingElement) -> TwistedElement:
    """The canonical embedding of the group ring: a |-> (a, 0)."""
    if not isinstance(a, GroupRingElement):
        raise UsageError(f"embed takes a group ring element, got {type(a).__name__}")
    return TwistedElement(a, ())


def element_radius(u: TwistedElement) -> int:
    """Radius of the smallest ball containing all supports of u."""
    grp = u.group
    r = max((grp.norm(g) for g, _ in u.regular.terms), default=0)
    for g, part in u.singular:
        r = max(r, grp.norm(g))
        r = max(r, max((grp.norm(h) for h, _ in part.terms), default=0))
    return r


def matrix_radius(m: "TwistedMatrix") -> int:
    """Radius of the smallest ball containing all supports of m's entries;
    the same as element_radius(f_shuffle_inv(m)), without reassembling."""
    return max(element_radius(e) for row in m.entries for e in row)


@dataclass(frozen=True)
class TwistedMatrix:
    """A square matrix of twisted elements with uniform group/field/shape."""

    n: int
    entries: tuple[tuple[TwistedElement, ...], ...]

    def __post_init__(self):
        _check_int("matrix size n", self.n)
        try:
            entries = tuple(map(tuple, self.entries))
        except TypeError:  # the grid or one of its rows is not iterable
            raise UsageError("entries must form an n x n grid") from None
        object.__setattr__(self, "entries", entries)
        if self.n < 1 or len(entries) != self.n or any(len(row) != self.n for row in entries):
            raise UsageError("entries must form an n x n grid")
        first = entries[0][0]
        for row in entries:
            for e in row:
                if not isinstance(e, TwistedElement):
                    raise UsageError(f"matrix entries must be twisted elements, got {type(e).__name__}")
                e._check_compatible(first)

    @staticmethod
    def _trusted(n: int, entries: tuple[tuple[TwistedElement, ...], ...]) -> "TwistedMatrix":
        """A matrix of entries already known to form a compatible n x n
        grid, built without __post_init__'s checks."""
        m = object.__new__(TwistedMatrix)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "entries", entries)
        return m

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
        return TwistedMatrix.diagonal([TwistedElement.one(group, field, shape)] * n)

    @staticmethod
    def diagonal(entries: Iterable[TwistedElement]) -> "TwistedMatrix":
        """The diagonal matrix of the entries; only they are checked, as
        the zeros off the diagonal are built to match the first."""
        entries = tuple(entries)
        n = len(entries)
        if n < 1:
            raise UsageError("entries must form an n x n grid")
        first = entries[0]
        for e in entries:
            e._check_compatible(first)
        zero = TwistedElement.zero(first.group, first.field, first.shape)
        return TwistedMatrix._trusted(
            n, tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n))
        )

    def is_identity(self) -> bool:
        return all(
            e.is_one() if i == j else e.is_zero()
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def _check_product(self, other: "TwistedMatrix") -> TwistedElement:
        """Check that other can multiply self; returns self's first entry,
        which carries the group, field and shape of every entry."""
        if self.n != other.n:
            raise UsageError("matrix size mismatch")
        first = self.entries[0][0]
        first._check_compatible(other.entries[0][0])
        return first

    def __matmul__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        """The product, entry (i, j) built on one raw accumulator of the
        pairs (self[i][k], other[k][j]) whose sides are both nonzero (row
        i's nonzero entries are listed once), made canonical once; with no
        such pair it is 0."""
        first = self._check_product(other)
        grp, field, shape = first.group, first.field, first.shape
        zero = TwistedElement.zero(grp, field, shape)
        cols = list(zip(*other.entries))

        def entry(live, col) -> TwistedElement:
            pairs = [(x, y) for k, x in live if (y := col[k]).singular or y.regular.terms]
            return _built(grp, field, shape, *_accumulate(grp, field, shape, pairs)) if pairs else zero

        lives = ([(k, x) for k, x in enumerate(row) if x.singular or x.regular.terms] for row in self.entries)
        # the kernel gives every entry grp, field and shape
        return TwistedMatrix._trusted(self.n, tuple(tuple(entry(live, col) for col in cols) for live in lives))

    def product_is_identity(self, other: "TwistedMatrix") -> bool:
        """(self @ other).is_identity(), decided entry by entry without
        building the product; it stops at the first entry that fails.
        Entry (i, j) is one raw accumulator, which the kernel fills with
        x y for each k where x = self[i][k] and y = other[k][j] are both
        nonzero (row i's nonzero entries are listed once); with no such k
        it is 0.  Over Q each column of other, and each row of self as it
        is reached, is read once on integer numerators over the lcm L_j or
        L_i of its nonzero entries' scales, so the accumulator holds L_i L_j
        times the entry; a line's lcm stays about as small as one entry's
        scale, where one lcm over the matrix would grow with its n^2
        denominators.  Scalars over F_p, the checks of the direct-finiteness
        suites, are decided by inline loops that stop at the first residue
        that fails, all else by _acc_is: deciding them by _acc_is cost
        suite-df-free2-f5 7.6 % (ROADMAP, measured and rejected)."""
        first = self._check_product(other)
        grp, field, shape = first.group, first.field, first.shape
        cols = list(zip(*other.entries))
        p = field.p
        if not p:
            col_scales, cols = zip(*map(_on_numerators, cols))
        identity = grp.identity
        inline = p and shape is None
        for i, row in enumerate(self.entries):
            if not p:
                row_scale, row = _on_numerators(row)
            live = [(k, x) for k, x in enumerate(row) if x.singular or x.regular.terms]
            for j, col in enumerate(cols):
                acc: dict = {}
                for k, x in live:
                    y = col[k]
                    if y.singular or y.regular.terms:
                        _mul_into(acc, grp, shape, x, y)
                if not inline:
                    # an empty accumulator off the diagonal is 0
                    if (acc or i == j) and not _acc_is(
                        grp, field, shape, acc, 1 if p else row_scale * col_scales[j], i == j
                    ):
                        return False
                    continue
                if i == j:
                    c = acc[None].pop(identity, None) if None in acc else None
                    if c is None or c % p != 1:
                        return False
                for slot in acc.values():
                    for c in slot.values():
                        if c % p:
                            return False
        return True

    def __add__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        if self.n != other.n:
            raise UsageError("matrix size mismatch")
        # each entry sum checks its summands and is compatible with them
        return TwistedMatrix._trusted(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )


def f_shuffle(x: TwistedElement) -> TwistedMatrix:
    """The entry-shuffle isomorphism from matrix-coefficient twisted
    elements to matrices of scalar-coefficient twisted elements:
    entry (i,j) of the result is (regular_(ij), sum_g singular(g)_(ij) g).
    The mirror of f_shuffle_inv: one pass over each part's canonical terms,
    whose order every entry keeps, so nothing is made canonical again."""
    if x.shape is None:
        raise UsageError("f_shuffle requires matrix-shaped coefficients")
    grp, fld, n = x.group, x.field, x.shape

    def entries(terms) -> list[GroupRingElement]:
        cells: list[list] = [[] for _ in range(n * n)]  # row-major
        for h, c in terms:
            for cell, v in zip(cells, chain.from_iterable(c)):
                if v:
                    cell.append((h, v))
        return [GroupRingElement(grp, fld, None, tuple(t)) for t in cells]

    singular = [(g, entries(b.terms)) for g, b in x.singular]
    # a singular part with no term in entry (i, j) is dropped there
    flat = [TwistedElement(r, tuple((g, e[k]) for g, e in singular if e[k].terms))
            for k, r in enumerate(entries(x.regular.terms))]
    return TwistedMatrix._trusted(n, tuple(zip(*[iter(flat)] * n)))


def f_shuffle_inv(m: TwistedMatrix) -> TwistedElement:
    """Inverse of f_shuffle: reassemble matrix coefficients entrywise.

    One pass over the entries: the coefficient of entry (i, j) at h goes
    to slot i n + j of the flat n x n coefficient at h, in one raw
    accumulator for the regular part and one per singular site; each part
    is made canonical once and the sites are sorted once.  The entries
    are canonical and share one group and field, so nothing is re-checked."""
    if m.shape is not None:
        raise UsageError("f_shuffle_inv expects scalar-shaped entries")
    grp, fld, n = m.group, m.field, m.n
    blank = [fld.zero] * (n * n)

    def place(acc: dict, k: int, terms) -> None:
        for h, c in terms:
            flat = acc.get(h)
            if flat is None:
                flat = acc[h] = blank.copy()
            flat[k] = c

    def part(acc: dict) -> GroupRingElement:
        return GroupRingElement(grp, fld, n, _canonical_terms(grp, fld, n, acc))

    regular: dict = {}
    singular: dict = {}
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            k = i * n + j
            place(regular, k, e.regular.terms)
            for g, b in e.singular:
                place(singular.setdefault(g, {}), k, b.terms)
    # each singular part holds a nonzero term of some entry, so none is zero
    parts = [(g, part(acc)) for g, acc in singular.items()]
    if len(parts) > 1:
        parts.sort(key=lambda t: grp.key(t[0]))
    return TwistedElement(part(regular), tuple(parts))
