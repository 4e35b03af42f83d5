"""Group rings k[G] and M_n(k)[G]: finitely supported coefficient maps
with convolution product, plus the entry-shuffle isomorphism
M_n(k)[G] ~ M_n(k[G]).

Coefficients come in two shapes, selected at runtime: scalars (shape
``None``) and n x n matrices stored as nested tuples (shape ``n``).
Mixing shapes is a hard error, never a coercion.  Sums run on raw
accumulators and are made canonical once.  A product is the regular part
of the twisted product of (a, 0) and (b, 0), as k[G] embeds in its
twisted extension (twisted.embed), so the twisted kernel is the one
product and product check of both rings (see the convolution
accumulator section).
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, mul
from typing import Iterable, Optional

from .errors import FormatError, UsageError, _check_int
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
    return _identity_block(field, shape)


@functools.lru_cache(maxsize=64)
def _identity_block(field: FieldSpec, n: int) -> tuple:
    """The n x n identity coefficient, made once per (field, n) and shared,
    as nested tuples are immutable.  Scalars are not memoized: a cache
    lookup takes longer than reading field.one."""
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n))
        for i in range(n)
    )


def coeff_is_zero(c) -> bool:
    if isinstance(c, tuple):
        return all(x == 0 for row in c for x in row)
    return c == 0


def coeff_neg(field: FieldSpec, a):
    if isinstance(a, tuple):
        return tuple(tuple(field.neg(x) for x in row) for row in a)
    return field.neg(a)


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


def _check_shape(shape: Shape) -> None:
    """Refuse a coefficient shape that is neither None nor an int n >= 1."""
    if shape is not None:
        _check_int("coefficient shape n", shape)
        if shape < 1:
            raise UsageError(f"coefficient shape n must be >= 1, got {shape}")


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
#
# An accumulator {h: raw coefficient} sums terms without reducing them, an
# n x n coefficient as a flat list of n^2 entries, row by row.  Each flat
# list belongs to its accumulator alone: whoever puts one in makes it
# fresh (convolve, _add_into, twisted.f_shuffle_inv,
# invert._factored_inverse), so convolve may add into it in place.  The
# twisted product (twisted._mul_into), the one product of k[G] too, adds
# scalar products in its own loops and n x n ones by the convolve kernel
# of n.  Products accumulate plain ints: over F_p the residues as they
# are, and over Q the integer numerators over one scale L, so that the
# accumulator holds L times the sum.  Each operand over Q is brought once
# to its numerators over the lcm of its denominators (_denominator,
# _numerators; twisted._accumulate picks the scales, and zd_determinant
# scales its rows with them).  An accumulator that adds canonical
# coefficients as they are (_add_into) holds Fractions over Q and has no
# scale.  _canonical_terms reduces each entry once, n x n ones over F_p by
# the reduce kernel of n and over Q by one division by L, and
# _raw_is_one/_raw_is_zero decide 1 and 0 on raw entries, over Q by
# comparing the identity entry with L.  The kernels of n (_kernels) are
# unrolled over the n^2 entries up to MAX_KERNEL_N, generated once per n
# at first use as dataclasses generate their methods from source, and
# loops past it.

def _denominator(shape: Shape, terms) -> int:
    """The lcm of the denominators of the entries of terms over Q."""
    if shape is None:
        return math.lcm(*(c.denominator for _, c in terms))
    return math.lcm(*(x.denominator for _, c in terms for row in c for x in row))


def _numerators(shape: Shape, terms, scale: int) -> tuple:
    """The terms over Q times scale, a multiple of every denominator of
    their entries, with plain int entries."""
    if shape is None:
        return tuple((g, c.numerator * (scale // c.denominator)) for g, c in terms)
    return tuple(
        (g, tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in c))
        for g, c in terms
    )


# n x n coefficients get unrolled kernels only up to this n, as the source
# of convolve holds 2 n^3 products (two million at experiments.MAX_SUITE_N).
# Measured on 2 vCPUs (Python 3.11): us per term pair of the loops and of
# the kernel (3 x 3 terms on Z^2), and ms to make both kernels:
#   n       1     2     3     4     5     6     7     8     9
#   loops   1.22  2.11  4.13  6.80  10.8  16.4  22.1  33.8  41.7
#   kernel  0.35  0.47  0.88  1.39  2.40  3.92  5.96  9.37  11.2
#   make    0.23  0.32  0.59  0.87  1.34  2.03  2.93  4.52  6.44
#   n       10    11    12    13    14    15    16    17    18
#   loops   55.8  65.7  90.1  101   129   160   181   208   245
#   kernel  18.9  19.2  31.8  37.2  41.8  58.1  75.7  91.2  112
#   make    7.38  11.5  13.0  17.7  22.3  22.7  28.7  35.9  39.4
# At 16 the kernel still runs 2.4 times as fast and is made in under 30 ms,
# repaid after about 270 term pairs; past it the making grows as n^3 and
# the speed-up keeps falling.
MAX_KERNEL_N = 16

# The two n x n kernels, for n = 2: convolve unpacks each coefficient in
# its loop header and adds each product entry, a0 * b0 + a1 * b2 for entry
# 0, as one expression into the flat list at g h, in place; reduce takes
# each entry mod p once and builds the rows of a nonzero coefficient.
_MATRIX_KERNELS = """\
def convolve(acc, compose, a_terms, b_terms):
    get = acc.get
    for g, ({a}) in a_terms:
        for h, ({b}) in b_terms:
            k = compose(g, h)
            c = get(k)
            if c is None:
                acc[k] = [{products}]
            else:
{adds}
def reduce(acc, p):
    items = []
    for g, ({x}) in acc.items():
        {x} = {residues}
        if {nonzero}:
            items.append((g, ({rows})))
    return items
"""


def _kernels(n: int) -> tuple:
    """The kernels of n, the one place n meets MAX_KERNEL_N:
    convolve(acc, compose, a_terms, b_terms) adds a(g) b(h) at g h into acc
    as raw entries, for each term pair; reduce(acc, p) gives acc's nonzero
    coefficients mod p as unsorted terms."""
    return _matrix_kernels(n) if n <= MAX_KERNEL_N else _loop_kernels(n)


@functools.lru_cache(maxsize=None)
def _matrix_kernels(n: int) -> tuple:
    """The kernels of n unrolled over the n^2 entries, made once per n."""
    cells = range(n * n)
    x = [f"x{e}" for e in cells]

    def rows(entries) -> str:
        return "".join(f"({''.join(f'{v}, ' for v in entries[i : i + n])}), " for i in range(0, n * n, n))

    products = [
        " + ".join(f"a{i + m} * b{m * n + j}" for m in range(n)) for i in range(0, n * n, n) for j in range(n)
    ]
    source = _MATRIX_KERNELS.format(
        a=rows([f"a{e}" for e in cells]),
        b=rows([f"b{e}" for e in cells]),
        products=", ".join(products),
        adds="\n".join(f"                c[{e}] += {s}" for e, s in enumerate(products)),
        x="".join(f"{v}, " for v in x),
        residues="".join(f"{v} % p, " for v in x),
        nonzero=" or ".join(x),
        rows=rows(x),
    )
    namespace: dict = {}
    exec(source, {}, namespace)
    return namespace["convolve"], namespace["reduce"]


def _loop_kernels(n: int) -> tuple:
    """The kernels of n as loops, with no source made: convolve transposes
    each right-hand coefficient once per call."""

    def convolve(acc, compose, a_terms, b_terms):
        get = acc.get
        b_cols = [(h, tuple(zip(*b))) for h, b in b_terms]
        for g, a in a_terms:
            for h, cols in b_cols:
                k = compose(g, h)
                c = [sum(map(mul, row, col)) for row in a for col in cols]
                old = get(k)
                acc[k] = c if old is None else list(map(add, old, c))

    def reduce(acc, p):
        items = []
        for g, flat in acc.items():
            flat = [x % p for x in flat]
            if any(flat):
                items.append((g, tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))))
        return items

    return convolve, reduce


def _add_into(acc: dict, shape: Shape, terms) -> None:
    """Add the terms into acc as raw entries, as convolve adds products."""
    get = acc.get
    if shape is None:
        for h, c in terms:
            acc[h] = get(h, 0) + c
        return
    for h, c in terms:
        old = get(h)
        flat = [x for row in c for x in row]
        acc[h] = flat if old is None else list(map(add, old, flat))


def _canonical_terms(
    group: GroupSpec, field: FieldSpec, shape: Shape, acc: dict, scale: Optional[int] = None
) -> tuple:
    """The canonical terms of an accumulator: each entry reduced once, n x n
    ones over F_p by the reduce kernel of n (_kernels), zeros dropped, and
    sorted by group.key.  Over Q numerators over `scale` are each divided by
    it, a Fraction even when it is 1; with no scale they stay as they are."""
    p = field.p
    div = None if p else scale
    if shape is None:
        if p:
            items = [(g, r) for g, c in acc.items() if (r := c % p)]
        elif div is not None:
            items = [(g, Fraction(c, div)) for g, c in acc.items() if c]
        else:
            items = [(g, c) for g, c in acc.items() if c]
    elif p:
        items = _kernels(shape)[1](acc, p)
    else:
        n, zero = shape, field.zero
        items = []
        for g, flat in acc.items():
            if any(flat):
                if div is not None:
                    flat = [Fraction(x, div) if x else zero for x in flat]
                items.append((g, tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))))
    if len(items) > 1:
        key = group.key
        items.sort(key=lambda t: key(t[0]))
    return tuple(items)


def _raw_is_one(field: FieldSpec, shape: Shape, c, scale: int = 1) -> bool:
    """Whether the raw coefficient c reduces to 1 (the identity matrix);
    over Q c is compared with 1 times the accumulator's scale."""
    p = field.p
    if shape is None:
        return c % p == 1 if p else c == scale
    step = shape + 1  # the diagonal of a flat n x n list
    if p:
        return all(x % p == (i % step == 0) for i, x in enumerate(c))
    return all(x == (scale if i % step == 0 else 0) for i, x in enumerate(c))


def _raw_is_zero(field: FieldSpec, shape: Shape, coeffs) -> bool:
    """Whether every raw coefficient in coeffs reduces to 0."""
    p = field.p
    if shape is not None:
        coeffs = chain.from_iterable(coeffs)
    if p:
        return not any(map(p.__rmod__, coeffs))  # x % p
    return not any(coeffs)


# -- group ring elements -------------------------------------------------------

class _Frozen:
    """Base of the immutable ring elements: slotted classes whose fields are
    their __slots__, with the ==, hash and repr a frozen dataclass would
    have.  Assignment and deletion raise FrozenInstanceError, and copy and
    pickle rebuild an element from its fields through __reduce__.  Each
    subclass's __init__ stores its fields through the slot descriptors'
    __set__, captured once (_slot_setters): a frozen dataclass sets each
    field through object.__setattr__, and takes about 790 ns to build four
    fields against about 420 ns (Python 3.11)."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._astuple = property(attrgetter(*cls.__slots__))  # the field values
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _slot_setters(cls) -> tuple:
    """The __set__ of each of cls's slot descriptors, in __slots__ order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class GroupRingElement(_Frozen):
    """A finitely supported map G -> coefficients, in canonical form:
    terms sorted under the group's total order, zero coefficients dropped."""

    __slots__ = ("group", "field", "shape", "terms")
    group: GroupSpec
    field: FieldSpec
    shape: Shape
    terms: tuple[tuple[Element, object], ...]

    def __init__(
        self, group: GroupSpec, field: FieldSpec, shape: Shape, terms: tuple[tuple[Element, object], ...]
    ) -> None:
        _set_group(self, group)
        _set_field(self, field)
        _set_shape(self, shape)
        _set_terms(self, terms)

    @staticmethod
    def from_terms(
        group: GroupSpec,
        field: FieldSpec,
        shape: Shape,
        terms: Iterable[tuple[Element, object]],
    ) -> "GroupRingElement":
        """Canonicalize: sum duplicate sites, drop zeros, sort."""
        _check_shape(shape)
        check = group.check
        coerced = []
        for g, c in terms:
            check(g)
            coerced.append((g, coerce_coeff(field, shape, c)))
        acc: dict[Element, object] = {}
        _add_into(acc, shape, coerced)
        return GroupRingElement(group, field, shape, _canonical_terms(group, field, shape, acc))

    @staticmethod
    def zero(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "GroupRingElement":
        _check_shape(shape)
        return GroupRingElement(group, field, shape, ())

    @staticmethod
    def one(group: GroupSpec, field: FieldSpec, shape: Shape = None) -> "GroupRingElement":
        # the identity and coeff_one are canonical, so monomial's checks add nothing
        _check_shape(shape)
        return GroupRingElement(group, field, shape, ((group.identity, coeff_one(field, shape)),))

    @staticmethod
    def monomial(
        group: GroupSpec, field: FieldSpec, shape: Shape, g: Element, coeff
    ) -> "GroupRingElement":
        _check_shape(shape)
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
        self.group.check(g)
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
        """Convolution: (ab)(g) = sum_t a(t) b(t^-1 g), the regular part of
        the twisted product of (a, 0) and (b, 0)."""
        from .twisted import embed

        return (embed(self) * embed(other)).regular

    def product_is_one(self, other: "GroupRingElement") -> bool:
        """(self * other) == 1, decided by the twisted kernel without
        building the product."""
        from .twisted import embed

        return embed(self).product_is_one(embed(other))

    def translate(self, g: Element) -> "GroupRingElement":
        """Left multiplication by the basis element g (coefficient 1)."""
        grp = self.group
        grp.check(g)
        return GroupRingElement.from_terms(
            grp, self.field, self.shape, ((grp.compose(g, h), c) for h, c in self.terms)
        )


_set_group, _set_field, _set_shape, _set_terms = _slot_setters(GroupRingElement)


def matrix_shuffle(a: GroupRingElement) -> list[list[GroupRingElement]]:
    """M_n(k)[G] -> M_n(k[G]): entry (i,j) collects the (i,j) slots of
    every coefficient, as the regular parts of twisted.f_shuffle on the
    embedded element.  A ring isomorphism; inverse is matrix_unshuffle."""
    from .twisted import embed, f_shuffle

    if a.shape is None:
        raise UsageError("matrix_shuffle requires matrix-shaped coefficients")
    return [[e.regular for e in row] for row in f_shuffle(embed(a)).entries]


def matrix_unshuffle(grid: list[list[GroupRingElement]]) -> GroupRingElement:
    """Inverse of matrix_shuffle: reassemble matrix coefficients, as the
    regular part of twisted.f_shuffle_inv on the embedded grid."""
    from .twisted import TwistedMatrix, embed, f_shuffle_inv

    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise UsageError("expected a square grid of elements")
    first = grid[0][0]
    for row in grid:
        for e in row:
            if e.group != first.group or e.field != first.field:
                raise UsageError("grid entries disagree on group or field")
            if e.shape is not None:
                raise UsageError("grid entries must be scalar-shaped")
    # the checks above make the grid a compatible n x n matrix
    embedded = tuple(tuple(embed(e) for e in row) for row in grid)
    return f_shuffle_inv(TwistedMatrix._trusted(n, embedded)).regular


class _OverBudget(Exception):
    """Raised by _berkowitz's products once they would pass the budget."""


_DetPair = Optional[tuple[GroupRingElement, Optional[GroupRingElement]]]


def zd_determinant(
    a: GroupRingElement, max_term_pairs: int
) -> Optional[tuple[GroupRingElement, Optional[GroupRingElement]]]:
    """(det(a), a^-1) for a in M_n(k)[Z^d] ~ M_n(k[Z^d]); det(a) is a
    scalar element of the commutative ring k[Z^d].  None off Z^d, where
    k[G] is not commutative, and None once the products for det(a) would
    multiply more than max_term_pairs pairs of terms.  a^-1 is None unless
    det(a) is a monomial, and None once its products would pass what
    det(a) left of that budget.

    The entries of a are read off its terms in one pass, as raw (site,
    int) term lists (_scaled_entries).  Over Q each row is first scaled
    by the lcm of its denominators, so the products run on plain ints on
    B = D a; then det(a) = det(B) / det D and a^-1 = B^-1 D, column j of
    B^-1 scaled by D_j.

    At n = 2 both come in closed form: det(B) = b00 b11 - b01 b10, and
    B^-1 = adj(B) / det(B) when det(B) = c x^g is a unit, where
    adj(B) = [[b11, -b01], [-b10, b00]] needs no product.  The closed form
    makes Berkowitz's two products at n = 2, P_2 = b10 b01 (reduced on its
    own) and b11 b00, reduces each sum once and sorts det(a) once, and
    charges the budget exactly as _berkowitz does, each charge before its
    product: len(b00), len(b10) len(b01) or 1, len(b11) + len(P_2),
    len(b11) len(b00) or 1, and for a^-1 the four entries' lengths.  So the
    answer at every budget is _berkowitz's.  _berkowitz serves every other
    n, and is the reference the tests hold the closed form to.
    """
    if a.group.kind != "Zd":
        return None
    solve = _det_2x2 if a.shape == 2 else _berkowitz
    return solve(a, *_scaled_entries(a), max_term_pairs)


def _scaled_entries(a: GroupRingElement) -> tuple[list, list]:
    """The entries of a in M_n(k[Z^d]) as raw (site, x) term lists in site
    order, split off a's terms in one pass, and the row scales D: all 1
    over F_p; over Q the lcm of each row's denominators, row i's entries
    then holding the ints D_i x."""
    n = a.shape
    entries = [[[] for _ in range(n)] for _ in range(n)]
    for g, c in a.terms:
        for row, xs in zip(entries, c):
            for entry, x in zip(row, xs):
                if x:
                    entry.append((g, x))
    scales = [1] * n
    if a.field.p is None:
        for i, row in enumerate(entries):
            m = scales[i] = _denominator(None, chain.from_iterable(row))
            row[:] = [_numerators(None, entry, m) for entry in row]
    return entries, scales


def _reduced(acc: dict, p: Optional[int]) -> list:
    """The raw sums of acc reduced once: mod p, zeros dropped."""
    if p:
        return [(g, r) for g, c in acc.items() if (r := c % p)]
    return [(g, c) for g, c in acc.items() if c]


def _det_element(a: GroupRingElement, terms, sign: int, scale: int) -> GroupRingElement:
    """det(a) from the terms of det(B) = sign C_n, over Q divided by
    scale = det D; sorted once."""
    p = a.field.p
    return GroupRingElement(a.group, a.field, None, tuple(
        (g, sign * c % p if p else Fraction(sign * c, scale))
        for g, c in sorted(terms)  # distinct sites, so the order of group.key on Z^d
    ))


def _inverse_element(a: GroupRingElement, grid, units, g: Element) -> GroupRingElement:
    """a^-1 = B^-1 D with det(B) = c x^g: entry ij (flat, row by row) of
    B^-1 D is x^-g units[ij] grid[ij], grid[ij] a raw term list."""
    grp, fld, n = a.group, a.field, a.shape
    p, compose, g_inv = fld.p, grp.compose, grp.inverse(g)
    zero, cells = fld.zero, {}  # each site's flat n x n entries; each (i, j) is set once
    for ij, (entry, s) in enumerate(zip(grid, units)):
        for h, x in entry:
            site = compose(h, g_inv)
            flat = cells.get(site)
            if flat is None:
                flat = cells[site] = [zero] * (n * n)
            flat[ij] = x * s % p if p else x * s
    inv = tuple((site, tuple(zip(*[iter(flat)] * n))) for site, flat in sorted(cells.items()))
    return GroupRingElement(grp, fld, n, inv)


def _det_2x2(a: GroupRingElement, entries: list, scales: list, max_term_pairs: int) -> _DetPair:
    """zd_determinant at n = 2, in closed form (see there)."""
    p, compose = a.field.p, a.group.compose
    (b00, b01), (b10, b11) = entries
    # the charges only grow, so two in a row are checked at the second:
    # b00 times C_0, then P_2 = b10 b01, at least one pair as in _berkowitz
    left = max_term_pairs - len(b00) - (len(b10) * len(b01) or 1)
    if left < 0:
        return None
    acc = {}
    get = acc.get
    for g, x in b10:
        for h, y in b01:
            site = compose(g, h)
            acc[site] = get(site, 0) + x * y
    p2 = _reduced(acc, p)
    # b11 and P_2 times C_0, then b11 times C_1 = -b00
    left -= len(b11) + len(p2) + (len(b11) * len(b00) or 1)
    if left < 0:
        return None
    acc = {g: -x for g, x in p2}
    get = acc.get
    for g, x in b11:
        for h, y in b00:
            site = compose(g, h)
            acc[site] = get(site, 0) + x * y
    terms = _reduced(acc, p)
    det = _det_element(a, terms, 1, scales[0] * scales[1])
    if len(terms) != 1:
        return det, None
    left -= len(b00) + len(b01) + len(b10) + len(b11)  # Horner's B C_0
    if left < 0:
        return det, None
    ((g, c),) = terms
    unit = pow(c, -1, p) if p else Fraction(1, c)
    u0, u1 = scales[0] * unit, scales[1] * unit  # column j of B^-1 D is scaled by D_j
    return det, _inverse_element(a, (b11, b01, b10, b00), (u0, -u1, -u0, u1), g)


def _berkowitz(a: GroupRingElement, entries: list, scales: list, max_term_pairs: int) -> _DetPair:
    """zd_determinant by Berkowitz's algorithm, for any n: division-free
    and O(n^4) ring products.  Adding row and column k to the leading
    k x k block B_k, with row R, column S and corner c, the characteristic
    coefficients (det(x I - B_k) = sum_i C_i x^(k-i)) become
    C'_i = C_i - sum_{m=1..i} P_m C_{i-m}, where P_1 = c and
    P_{j+2} = R B_k^j S.  Then det(B) = (-1)^n C_n.

    By Cayley-Hamilton sum_i C_i B^(n-i) = 0, so when C_n = c x^g is a
    unit, B^-1 = -C_n^-1 sum_{i<n} C_i B^(n-1-i) (the sum is
    (-1)^(n+1) adj(B)), and a^-1 = B^-1 D (Berkowitz 1984).  The sum is
    taken by Horner's rule, P_1 = B + C_1 and P_k = P_{k-1} B + C_k, with
    no division; at n = 1 it is C_0 = 1.  As M_n(k[Z^d]) is a matrix ring
    over a commutative ring, a^-1 is the two-sided inverse.

    Each new term list is summed into one dict, its products by an inline
    loop, and reduced once (mod p, zeros dropped), in no order: det(a) is
    sorted once and a^-1 made canonical once.  C_0 = 1 is never
    multiplied: each P_i C_0 is added as -P_i, and Horner starts from P_1,
    read off B.  The budget is charged as though C_0 were multiplied:
    len(x) len(y) pairs for each product x y of term lists, before it is
    made, and at least one, so that a map of empty entries still runs out
    of it; and len(x) for each x times C_0.
    """
    grp, n = a.group, a.shape
    p, compose = a.field.p, grp.compose
    left = max_term_pairs

    def total(pairs, *addends) -> list:
        """The sum of the addends and of x y over the pairs (x, y) of term
        lists, reduced once; each product charged before it is made."""
        nonlocal left
        acc = {}
        get = acc.get
        for terms in addends:
            for g, x in terms:
                acc[g] = get(g, 0) + x
        for xs, ys in pairs:
            left -= len(xs) * len(ys) or 1  # an empty product costs its step too
            if left < 0:
                raise _OverBudget
            for g, x in xs:
                for h, y in ys:
                    site = compose(g, h)
                    acc[site] = get(site, 0) + x * y
        return _reduced(acc, p)

    coeffs = [[(grp.identity, 1)]]  # C_0 .. C_k
    try:
        for k in range(n):
            row = [[(g, -x) for g, x in entry] for entry in entries[k][:k]]  # -R
            negated = [[(g, -x) for g, x in entries[k][k]]]  # -P_1, -P_2, ...
            v = [entries[i][k] for i in range(k)]  # S
            for j in range(k):
                if j:
                    v = [total(zip(entries[i][:k], v)) for i in range(k)]
                negated.append(total(zip(row, v)))
            left -= sum(map(len, negated))  # each -P_i C_0, added as -P_i
            if left < 0:
                raise _OverBudget
            coeffs.append(())  # C_(k+1) of B_k
            for i in range(k + 1, 0, -1):  # C'_i reads C_1 .. C_i, not yet updated
                coeffs[i] = total(zip(negated, coeffs[i - 1 : 0 : -1]), coeffs[i], negated[i - 1])
    except _OverBudget:
        return None
    det = _det_element(a, coeffs[n], -1 if n % 2 else 1, math.prod(scales))
    if len(det.terms) != 1:
        return det, None
    try:
        if n == 1:
            horner = [[coeffs[0]]]
        else:
            left -= sum(map(len, chain.from_iterable(entries)))  # B C_0, read off B
            if left < 0:
                raise _OverBudget
            horner = [
                [total((), coeffs[1], entry) if i == j else entry for j, entry in enumerate(row)]
                for i, row in enumerate(entries)
            ]
        cols = list(zip(*entries))
        for k in range(2, n):
            horner = [
                [total(zip(row, col), coeffs[k] if i == j else ()) for j, col in enumerate(cols)]
                for i, row in enumerate(horner)
            ]
    except _OverBudget:
        return det, None
    ((g, c),) = coeffs[n]
    unit = pow(-c, -1, p) if p else Fraction(-1, c)  # -C_n^-1 = unit x^-g
    units = [m * unit for m in scales] * n  # column j of B^-1 D is scaled by D_j
    return det, _inverse_element(a, chain.from_iterable(horner), units, g)
