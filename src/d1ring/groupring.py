"""Group rings k[G] and M_n(k)[G]: finitely supported coefficient maps
with convolution product, plus the entry-shuffle isomorphism
M_n(k)[G] ~ M_n(k[G]).

Coefficients come in two shapes, selected at runtime: scalars (shape
``None``) and n x n matrices stored as nested tuples (shape ``n``).
Mixing shapes is a hard error, never a coercion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import FormatError, UsageError
from .exactalg import FieldSpec
from .groups import Element, FiniteSubset, GroupSpec

Shape = Optional[int]  # None = scalar, n = matrix n x n


# -- coefficient arithmetic (scalar or small matrix) --------------------------

def coeff_zero(field: FieldSpec, shape: Shape):
    if shape is None:
        return field.zero
    return tuple((field.zero,) * shape for _ in range(shape))


def coeff_one(field: FieldSpec, shape: Shape):
    if shape is None:
        return field.one
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(shape))
        for i in range(shape)
    )


def coeff_is_zero(c) -> bool:
    if isinstance(c, tuple):
        return all(x == 0 for row in c for x in row)
    return c == 0


def coeff_add(field: FieldSpec, a, b):
    if isinstance(a, tuple):
        p = field.p
        if p:
            return tuple(
                tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return field.add(a, b)


def coeff_neg(field: FieldSpec, a):
    if isinstance(a, tuple):
        return tuple(tuple(field.neg(x) for x in row) for row in a)
    return field.neg(a)


def coeff_mul(field: FieldSpec, a, b):
    """Scalar product or matrix product, depending on shape.  Over F_p each
    matrix entry sums plain int products and is reduced once; over Q the
    sums of Fractions are exact as they are."""
    if isinstance(a, tuple):
        p = field.p
        cols = tuple(zip(*b))
        if p:
            return tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                for row in a
            )
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
        )
    return field.mul(a, b)


def coeff_encode(field: FieldSpec, c):
    if isinstance(c, tuple):
        return [[field.encode_scalar(x) for x in row] for row in c]
    return field.encode_scalar(c)


def coeff_parse(field: FieldSpec, shape: Shape, value) -> tuple:
    """Parse a JSON coefficient; returns (coeff, repaired)."""
    if shape is None:
        return field.parse_scalar(value)
    if not isinstance(value, list) or len(value) != shape:
        raise FormatError(f"expected a {shape}x{shape} coefficient matrix: {value!r}")
    repaired = False
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != shape:
            raise FormatError(f"expected a {shape}x{shape} coefficient matrix: {value!r}")
        parsed = []
        for x in row:
            v, rep = field.parse_scalar(x)
            parsed.append(v)
            repaired = repaired or rep
        rows.append(tuple(parsed))
    return tuple(rows), repaired


def shape_label(shape: Shape) -> str:
    return "scalar" if shape is None else f"{shape}x{shape} matrix"


def coerce_coeff(field: FieldSpec, shape: Shape, c):
    """Validate a coefficient against the shape and bring it to canonical
    form (residue in range / reduced fraction)."""
    if shape is None:
        if isinstance(c, (tuple, list)):
            raise UsageError("expected a scalar coefficient, got a matrix")
        return field.coerce(c)
    try:
        square = len(c) == shape and all(len(row) == shape for row in c)
    except TypeError:
        square = False
    if not square:
        raise UsageError(f"expected a {shape_label(shape)} coefficient")
    return tuple(tuple(field.coerce(x) for x in row) for row in c)


# -- convolution accumulator ----------------------------------------------------

def _convolve_into(acc: dict, group: GroupSpec, field: FieldSpec, shape: Shape, a_terms, b_terms) -> None:
    """Add a(g) b(h) at g h into acc = {h: coefficient} for every term pair.
    Scalars are summed as raw ints (F_p, reduced later by _canonical_terms)
    or Fractions (Q); n x n coefficients stay canonical via coeff_mul/coeff_add."""
    compose = group.compose
    if shape is None:
        get = acc.get
        for g, a in a_terms:
            for h, b in b_terms:
                k = compose(g, h)
                acc[k] = get(k, 0) + a * b
        return
    for g, a in a_terms:
        for h, b in b_terms:
            k = compose(g, h)
            c = coeff_mul(field, a, b)
            acc[k] = coeff_add(field, acc[k], c) if k in acc else c


def _add_into(acc: dict, field: FieldSpec, shape: Shape, terms) -> None:
    """Add the terms into acc = {h: coefficient} as _convolve_into adds
    products: raw scalars, canonical n x n coefficients."""
    if shape is None:
        get = acc.get
        for h, c in terms:
            acc[h] = get(h, 0) + c
        return
    for h, c in terms:
        acc[h] = coeff_add(field, acc[h], c) if h in acc else c


def _canonical_terms(group: GroupSpec, field: FieldSpec, shape: Shape, acc: dict) -> tuple:
    """The canonical terms of an accumulator: reduced, zeros dropped,
    sorted by group.key."""
    p = field.p if shape is None else None
    if p:
        items = [(g, r) for g, c in acc.items() if (r := c % p)]
    else:
        items = [(g, c) for g, c in acc.items() if not coeff_is_zero(c)]
    if len(items) > 1:
        key = group.key
        items.sort(key=lambda t: key(t[0]))
    return tuple(items)


# -- group ring elements -------------------------------------------------------

@dataclass(frozen=True)
class GroupRingElement:
    """A finitely supported map G -> coefficients, in canonical form:
    terms sorted under the group's total order, zero coefficients dropped."""

    group: GroupSpec
    field: FieldSpec
    shape: Shape
    terms: tuple[tuple[Element, object], ...]

    @staticmethod
    def from_terms(
        group: GroupSpec,
        field: FieldSpec,
        shape: Shape,
        terms: Iterable[tuple[Element, object]],
    ) -> "GroupRingElement":
        """Canonicalize: sum duplicate sites, drop zeros, sort."""
        acc: dict[Element, object] = {}
        for g, c in terms:
            group.check(g)
            c = coerce_coeff(field, shape, c)
            acc[g] = coeff_add(field, acc[g], c) if g in acc else c
        return GroupRingElement(group, field, shape, _canonical_terms(group, field, shape, acc))

    @staticmethod
    def zero(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "GroupRingElement":
        return GroupRingElement(group, field, shape, ())

    @staticmethod
    def one(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "GroupRingElement":
        return GroupRingElement.monomial(group, field, shape, group.identity, coeff_one(field, shape))

    @staticmethod
    def monomial(
        group: GroupSpec, field: FieldSpec, shape: Shape, g: Element, coeff
    ) -> "GroupRingElement":
        group.check(g)
        coeff = coerce_coeff(field, shape, coeff)
        if coeff_is_zero(coeff):
            return GroupRingElement(group, field, shape, ())
        return GroupRingElement(group, field, shape, ((g, coeff),))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> FiniteSubset:
        return FiniteSubset(self.group, tuple(g for g, _ in self.terms))

    def coefficient(self, g: Element):
        for h, c in self.terms:
            if h == g:
                return c
        return coeff_zero(self.field, self.shape)

    def _check_compatible(self, other: "GroupRingElement") -> None:
        # shared specs are the common case; equal but distinct ones still pass
        if self.group is other.group and self.field is other.field and self.shape == other.shape:
            return
        if self.group != other.group:
            raise UsageError("group mismatch")
        if self.field != other.field:
            raise UsageError("field mismatch")
        if self.shape != other.shape:
            raise UsageError(
                f"coefficient shape mismatch: {shape_label(self.shape)} vs {shape_label(other.shape)}"
            )

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        return GroupRingElement.from_terms(
            self.group, self.field, self.shape, self.terms + other.terms
        )

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(
            self.group,
            self.field,
            self.shape,
            tuple((g, coeff_neg(self.field, c)) for g, c in self.terms),
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, c) -> "GroupRingElement":
        """Multiply every coefficient by the field scalar c; from_terms
        reduces the raw products."""
        c = self.field.coerce(c)
        if self.shape is None:
            terms = ((g, c * a) for g, a in self.terms)
        else:
            terms = ((g, [[c * x for x in row] for row in a]) for g, a in self.terms)
        return GroupRingElement.from_terms(self.group, self.field, self.shape, terms)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution: (ab)(g) = sum_t a(t) b(t^-1 g)."""
        self._check_compatible(other)
        grp, field, shape = self.group, self.field, self.shape
        acc: dict[Element, object] = {}
        _convolve_into(acc, grp, field, shape, self.terms, other.terms)
        return GroupRingElement(grp, field, shape, _canonical_terms(grp, field, shape, acc))

    def translate(self, g: Element) -> "GroupRingElement":
        """Left multiplication by the basis element g (coefficient 1)."""
        grp = self.group
        return GroupRingElement.from_terms(
            grp, self.field, self.shape, ((grp.compose(g, h), c) for h, c in self.terms)
        )


def matrix_shuffle(a: GroupRingElement) -> list[list[GroupRingElement]]:
    """M_n(k)[G] -> M_n(k[G]): entry (i,j) collects the (i,j) slots of
    every coefficient.  A ring isomorphism; inverse is matrix_unshuffle."""
    if a.shape is None:
        raise UsageError("matrix_shuffle requires matrix-shaped coefficients")
    n = a.shape
    return [
        [
            GroupRingElement.from_terms(a.group, a.field, None, ((g, c[i][j]) for g, c in a.terms))
            for j in range(n)
        ]
        for i in range(n)
    ]


def matrix_unshuffle(grid: list[list[GroupRingElement]]) -> GroupRingElement:
    """Inverse of matrix_shuffle: reassemble matrix coefficients."""
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise UsageError("expected a square grid of elements")
    first = grid[0][0]
    sites: set[Element] = set()
    for row in grid:
        for e in row:
            if e.group != first.group or e.field != first.field:
                raise UsageError("grid entries disagree on group or field")
            if e.shape is not None:
                raise UsageError("grid entries must be scalar-shaped")
            sites.update(g for g, _ in e.terms)
    terms = [
        (g, tuple(tuple(grid[i][j].coefficient(g) for j in range(n)) for i in range(n)))
        for g in sites
    ]
    return GroupRingElement.from_terms(first.group, first.field, n, terms)


def zd_determinant(a: GroupRingElement, max_term_pairs: int) -> Optional[GroupRingElement]:
    """The determinant of a in M_n(k)[Z^d] ~ M_n(k[Z^d]), a scalar element
    of the commutative ring k[Z^d]; None off Z^d, where k[G] is not
    commutative, and None once the products would multiply more than
    max_term_pairs pairs of terms.

    Berkowitz's algorithm: division-free and O(n^4) ring products.  Adding
    row and column k to the leading k x k block A_k, with row R, column S
    and corner c, the characteristic coefficients (det(x I - A_k) =
    sum_i C_i x^(k-i)) become C'_i = C_i - sum_{m=1..i} P_m C_{i-m}, where
    P_1 = c and P_{j+2} = R A_k^j S.  Then det = (-1)^n C_n.  Entries are
    raw term tuples, multiplied by _convolve_into and reduced by
    _canonical_terms, without validation.  Over Q each row is first scaled
    by the lcm of its denominators, so the products run on plain ints and
    only the coefficients of the result are divided back.
    """
    grp, fld, n = a.group, a.field, a.shape
    if grp.kind != "Zd":
        return None
    entries = [[[] for _ in range(n)] for _ in range(n)]
    for g, c in a.terms:
        for row, coeffs in zip(entries, c):
            for entry, x in zip(row, coeffs):
                if x:
                    entry.append((g, x))
    scale = 1
    if fld.p is None:
        for row in entries:
            m = math.lcm(*(x.denominator for entry in row for _, x in entry))
            scale *= m
            row[:] = [[(g, x.numerator * (m // x.denominator)) for g, x in entry] for entry in row]
    budget = max_term_pairs

    def sum_of_products(pairs, start=()):
        """start plus the sum of p q over the pairs, or None past the budget."""
        nonlocal budget
        acc = dict(start)
        for p, q in pairs:
            budget -= len(p) * len(q)
            if budget < 0:
                return None
            _convolve_into(acc, grp, fld, None, p, q)
        return _canonical_terms(grp, fld, None, acc)

    def neg(p):
        return tuple((g, -c) for g, c in p)

    coeffs = [((grp.identity, 1),)]  # C_0 .. C_k
    for k in range(n):
        row, col = entries[k][:k], [entries[i][k] for i in range(k)]
        negated = [neg(entries[k][k])]  # -P_1, -P_2, ...
        v = col
        for j in range(k):
            if j:
                v = [sum_of_products(zip(entries[i][:k], v)) for i in range(k)]
                if None in v:
                    return None
            p = sum_of_products(zip(row, v))
            if p is None:
                return None
            negated.append(neg(p))
        new = [coeffs[0]]
        for i in range(1, k + 2):
            start = coeffs[i] if i <= k else ()
            c = sum_of_products(((negated[m - 1], coeffs[i - m]) for m in range(1, i + 1)), start)
            if c is None:
                return None
            new.append(c)
        coeffs = new
    sign = -1 if n % 2 else 1
    det = tuple(
        (g, sign * c % fld.p if fld.p else Fraction(sign * c, scale)) for g, c in coeffs[n]
    )
    return GroupRingElement(grp, fld, None, det)
