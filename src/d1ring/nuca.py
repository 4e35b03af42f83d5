"""Linear cellular automata with finitely many exceptional local rules.

A map tau on V^G (V = k^n) is stored as a twisted ring element with
matrix coefficients: the regular part holds the constant rule, the
singular part the sitewise corrections.  The action is

    tau(x)(g) = sum_h regular(h) x(gh) + sum_h singular(g)(h) x(gh),

composition of maps is ring multiplication, and the identity map is the
ring unit.  Configurations are restricted to base-plus-finite-deviation
points of V^G, which is enough for every procedure in this package.

Vectors are plain tuples of field entries.  `Configuration.make` is the
validating boundary: it checks each site, coerces each entry as it
arrives, sums the vectors given for one site as plain ints or Fractions
and reduces each sum once, and drops zero vectors.  So sums and scalings
hand it raw sums, with no reduction per operation.  The action reduces
each output entry once itself and builds its result directly, as its
sites are composed from validated elements; `value_at` and `restrict`
reduce each sum they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import UsageError, _check_int
from .exactalg import FieldSpec, Matrix, _content_free
from .groupring import _denominator, _numerators
from .groups import Element, FiniteSubset, GroupSpec
from .twisted import TwistedElement, TwistedMatrix, f_shuffle_inv

Vector = tuple


@dataclass(frozen=True)
class Configuration:
    """An asymptotically constant point of V^G: x(g) = base + deviation(g),
    with finitely supported deviation (no stored zero vectors, keys sorted)."""

    group: GroupSpec
    field: FieldSpec
    n: int
    base: Vector
    deviation: tuple[tuple[Element, Vector], ...]

    @staticmethod
    def make(
        group: GroupSpec,
        field: FieldSpec,
        n: int,
        base: Sequence,
        deviation: Mapping[Element, Sequence] | Iterable[tuple[Element, Sequence]] = (),
    ) -> "Configuration":
        _check_int("n", n)
        if n < 1:
            raise UsageError(f"n must be >= 1, got {n}")
        coerce = field.coerce
        base = tuple(coerce(x) for x in base)
        if len(base) != n:
            raise UsageError(f"base vector must have length {n}")
        items = deviation.items() if isinstance(deviation, Mapping) else deviation
        acc: dict[Element, list] = {}
        for g, v in items:
            group.check(g)
            v = [coerce(x) for x in v]
            if len(v) != n:
                raise UsageError(f"deviation vector at {g!r} must have length {n}")
            acc.setdefault(g, []).append(v)
        pairs = []
        for g, vs in acc.items():
            # duplicate sites sum as plain ints or Fractions, reduced once
            v = tuple(coerce(sum(col)) for col in zip(*vs)) if len(vs) > 1 else tuple(vs[0])
            if any(v):
                pairs.append((g, v))
        key = group.key
        pairs.sort(key=lambda t: key(t[0]))
        return Configuration(group, field, n, base, tuple(pairs))

    @staticmethod
    def zero(group: GroupSpec, field: FieldSpec, n: int) -> "Configuration":
        return Configuration.make(group, field, n, (0,) * n)

    def is_zero(self) -> bool:
        return not any(self.base) and not self.deviation

    def value_at(self, g: Element) -> Vector:
        self.group.check(g)
        for h, v in self.deviation:
            if h == g:
                coerce = self.field.coerce
                return tuple(coerce(a + b) for a, b in zip(self.base, v))
        return self.base

    def deviation_support(self) -> FiniteSubset:
        return FiniteSubset(self.group, tuple(g for g, _ in self.deviation))

    def translate(self, g: Element) -> "Configuration":
        """The standard shift: (g x)(h) = x(g^-1 h)."""
        grp = self.group
        grp.check(g)
        return Configuration.make(
            grp,
            self.field,
            self.n,
            self.base,
            ((grp.compose(g, h), v) for h, v in self.deviation),
        )

    def restrict(self, sites: FiniteSubset) -> "Pattern":
        """This configuration on the sites, a subset of its group: only the
        subset's group is checked, as its sites are elements of it."""
        if sites.group != self.group:
            raise UsageError("sites must be a subset of the configuration's group")
        dev, base, coerce = dict(self.deviation), self.base, self.field.coerce
        values = tuple(
            base if (v := dev.get(g)) is None else tuple(coerce(a + b) for a, b in zip(base, v))
            for g in sites
        )
        return Pattern(self.group, self.field, self.n, sites, values)

    def _check_compatible(self, other: "Configuration") -> None:
        if (self.group, self.field, self.n) != (other.group, other.field, other.n):
            raise UsageError("configuration group/field/dimension mismatch")

    def __add__(self, other: "Configuration") -> "Configuration":
        self._check_compatible(other)
        return Configuration.make(
            self.group,
            self.field,
            self.n,
            [a + b for a, b in zip(self.base, other.base)],
            self.deviation + other.deviation,
        )

    def scale(self, c) -> "Configuration":
        c = self.field.coerce(c)
        return Configuration.make(
            self.group,
            self.field,
            self.n,
            [c * a for a in self.base],
            ((g, [c * a for a in v]) for g, v in self.deviation),
        )


@dataclass(frozen=True)
class Pattern:
    """A total assignment of vectors to a finite window of sites."""

    group: GroupSpec
    field: FieldSpec
    n: int
    domain: FiniteSubset
    values: tuple[Vector, ...]

    def value_at(self, g: Element) -> Vector:
        return self.values[self.domain.position(g)]

    def flatten(self) -> tuple:
        return tuple(x for v in self.values for x in v)


@dataclass(frozen=True)
class LocalRule:
    """A linear map V^M -> V given by one n x n block per memory site:
    rule(w) = sum_h block(h) w(h).  Nuca.rule_at reads one off a NUCA."""

    group: GroupSpec
    field: FieldSpec
    n: int
    memory: FiniteSubset
    blocks: tuple  # one n x n nested tuple per memory site, aligned


@dataclass(frozen=True)
class InducedLocalMap:
    """The exact matrix of the restricted action V^{EM} -> V^{E}.

    Block layout: row block i is the i-th site of the codomain window in
    canonical order, column block j the j-th site of the domain window;
    block (g, q) equals the local rule block at h = g^-1 q when h is in
    the memory, else zero.
    """

    group: GroupSpec
    field: FieldSpec
    n: int
    domain_set: FiniteSubset
    codomain_set: FiniteSubset
    matrix: Matrix

    def apply_pattern(self, p: Pattern) -> Pattern:
        if p.domain != self.domain_set:
            raise UsageError("pattern domain differs from the map's domain window")
        out = self.matrix.mul_vector(p.flatten())
        n = self.n
        values = tuple(
            tuple(out[i * n : (i + 1) * n]) for i in range(len(self.codomain_set))
        )
        return Pattern(self.group, self.field, n, self.codomain_set, values)


class Nuca:
    """A linear cellular automaton with finitely many exceptional rules,
    stored as its twisted ring element (matrix-shaped coefficients).

    The memory set (element.memory()), the exceptional set
    (element.singular_support()), the map {site: singular part} that
    apply reads, and the rule table that rule_at and every window placed
    read are made on first read, into their slots (__getattr__): the
    inverse search builds NUCA it only multiplies and checks, and a slot
    once filled reads as a plain attribute.
    """

    __slots__ = ("element", "memory", "exceptional_set", "_parts", "_rules")

    def __init__(self, element: TwistedElement):
        if not isinstance(element, TwistedElement):
            raise UsageError(f"a NUCA is built from a twisted element, got {type(element).__name__}")
        if element.shape is None:
            raise UsageError("a NUCA needs matrix-shaped coefficients (n >= 1)")
        self.element = element

    def __getattr__(self, name: str):
        # called only for a slot not yet filled
        if name == "memory":
            value = self.element.memory()
        elif name == "exceptional_set":
            value = self.element.singular_support()
        elif name == "_parts":
            value = dict(self.element.singular)
        elif name == "_rules":
            # the rule table: the _rule_rows of the constant rule a and {g:
            # those of a + b(g)} for the exceptional sites g, each from the
            # terms that sum to it.  rule_at lays its blocks out from the
            # field rows; _window_rows places the field rows for
            # induced_local_map and the integer rows for _kernel_rows, and
            # invert.kernel_tower places the integer rows itself
            field, n, position = self.field, self.n, self.memory.position
            a = self.element.regular.terms
            exceptional = {g: _rule_rows(field, n, position, a + b.terms) for g, b in self.element.singular}
            value = (_rule_rows(field, n, position, a), exceptional)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value

    @property
    def group(self) -> GroupSpec:
        return self.element.group

    @property
    def field(self) -> FieldSpec:
        return self.element.field

    @property
    def n(self) -> int:
        return self.element.shape

    @staticmethod
    def identity(group: GroupSpec, field: FieldSpec, n: int) -> "Nuca":
        return Nuca(TwistedElement.one(group, field, n))

    @staticmethod
    def zero(group: GroupSpec, field: FieldSpec, n: int) -> "Nuca":
        return Nuca(TwistedElement.zero(group, field, n))

    @staticmethod
    def from_matrix(m: TwistedMatrix) -> "Nuca":
        """View a matrix over the scalar twisted ring as a NUCA on V^G."""
        return Nuca(f_shuffle_inv(m))

    def __eq__(self, other) -> bool:
        return isinstance(other, Nuca) and self.element == other.element

    def __hash__(self):
        return hash(self.element)

    def __repr__(self):
        return (
            f"Nuca(n={self.n}, memory={len(self.memory)} sites, "
            f"exceptional={len(self.exceptional_set)} sites)"
        )

    def rule_at(self, g: Element) -> LocalRule:
        """The local rule used at site g, over this NUCA's memory set, laid
        out from its rows in the rule table (_rules)."""
        self.group.check(g)
        constant_rule, exceptional = self._rules
        n, zero = self.n, self.field.zero
        blocks = [[[zero] * n for _ in range(n)] for _ in self.memory]
        for i, entries in enumerate(exceptional.get(g, constant_rule)[0]):
            for k, j, x in entries:
                blocks[k][i][j] = x
        blocks = tuple(tuple(map(tuple, block)) for block in blocks)
        return LocalRule(self.group, self.field, n, self.memory, blocks)

    # -- the action on configurations ------------------------------------------

    def apply(self, x: Configuration) -> Configuration:
        """tau(x)(g) = sum_h regular(h) x(gh) + sum_h singular(g)(h) x(gh)."""
        if (x.group, x.field, x.n) != (self.group, self.field, self.n):
            raise UsageError("configuration incompatible with this NUCA")
        grp, n = self.group, self.n
        compose, inverse = grp.compose, grp.inverse
        regular, base, rows = self.element.regular.terms, x.base, range(n)
        coerce = self.field.coerce
        # the base maps to (sum_h regular(h)) base
        new_base = tuple(coerce(sum(a * b for _, c in regular for a, b in zip(c[i], base))) for i in rows)

        # candidate output sites: where a deviation is visible or a rule differs
        parts = self._parts
        candidates: set[Element] = set(parts)
        for u, _ in x.deviation:
            for h in self.memory:
                candidates.add(compose(u, inverse(h)))

        # tau(x)(g) - new_base: the regular part reads the deviations alone,
        # the singular part at g reads base plus deviation.  The sites are
        # composed from validated elements and each entry is reduced once,
        # so the result is built without Configuration.make's checks
        dev = dict(x.deviation)
        zero = (0,) * n
        out = []
        for g in candidates:
            reads = [(c, dev.get(compose(g, h), zero)) for h, c in regular]
            part = parts.get(g)
            if part is not None:
                reads += [
                    (c, [a + b for a, b in zip(base, dev.get(compose(g, h), zero))])
                    for h, c in part.terms
                ]
            value = tuple(coerce(sum(a * b for c, v in reads for a, b in zip(c[i], v))) for i in rows)
            if any(value):
                out.append((g, value))
        if len(out) > 1:
            key = grp.key
            out.sort(key=lambda t: key(t[0]))
        return Configuration(grp, self.field, n, new_base, tuple(out))

    def compose(self, other: "Nuca") -> "Nuca":
        """Ring product; equals map composition self after other."""
        return Nuca(self.element * other.element)

    def shift(self, g: Element) -> "Nuca":
        """Shift the rule configuration: the exceptional site u moves to g u."""
        grp = self.group
        grp.check(g)
        moved = [(grp.compose(g, u), part) for u, part in self.element.singular]
        return Nuca(TwistedElement.make(self.element.regular, moved))

    # -- finite windows --------------------------------------------------------------

    def induced_local_map(self, window: FiniteSubset) -> InducedLocalMap:
        """The matrix of the action restricted to a finite window E, with
        domain EM; block (g, q) is the rule-at-g block at h = g^-1 q,
        placed from the field rows of the rule table (_window_rows)."""
        if window.group != self.group:
            raise UsageError("window lives in a different group")
        grp, field, n = self.group, self.field, self.n
        domain = window.product(self.memory) if len(self.memory) else FiniteSubset.make(grp, ())
        rows = self._window_rows(window, domain.position, integer=False)
        mat = Matrix(field, n * len(window), n * len(domain), rows)
        return InducedLocalMap(grp, field, n, domain, window, mat)

    def _kernel_rows(self, sites: Sequence[Element]) -> list[dict]:
        """The integer rows of the window whose rules read the sites (the
        sites composed with M^-1, and the exceptional sites), with
        coordinate j of sites[k] at column k n + j.  The domain sites
        outside the sites meet only zero entries of a vector supported on
        them, so they are left out.  The window is a plain set: its order
        only orders the rows, and neither the pivots nor an RREF kernel
        basis depend on that."""
        grp = self.group
        compose = grp.compose
        inverses = [grp.inverse(h) for h in self.memory]
        window = {compose(g, h) for g in sites for h in inverses}
        window.update(self.exceptional_set)
        return self._window_rows(window, {u: k for k, u in enumerate(sites)}.get)

    def _window_rows(
        self,
        window: Iterable[Element],
        column: Callable[[Element], Optional[int]],
        integer: bool = True,
    ) -> list[dict]:
        """The rows of the rules at the window's sites, from the rule table
        (_rules), with the coordinate j of each domain site u at column
        column(u) * n + j; the sites where column(u) is None are left out.
        The rows are the integer rows elimination reads
        (exactalg._integer_rows), or with integer=False the field rows,
        which are placed only at a numbering of every domain site
        (induced_local_map).  Over Q an integer row that loses entries is
        divided by its content, so it stays the primitive multiple of its
        field row."""
        n, q = self.n, integer and not self.field.p
        compose, memory = self.group.compose, self.memory.elements
        constant_rule, exceptional = self._rules
        rows: list[dict] = []
        for g in window:
            rule_rows, rule_ints, read = exceptional.get(g, constant_rule)
            # the number of each memory site the rule reads, at g
            ks = {k: column(compose(g, memory[k])) for k in read}
            for entries in rule_ints if integer else rule_rows:
                row = {ks[k] * n + j: z for k, j, z in entries if ks[k] is not None}
                rows.append(_content_free(row) if q and len(row) < len(entries) else row)
        return rows


def _rule_rows(field: FieldSpec, n: int, position: Callable[[Element], int], terms) -> tuple:
    """The rule that the (h, block) terms sum to, h a memory site numbered
    position(h), as (rows, ints, read): for each row i of the rule, the
    sorted triples (k, j, x) for its nonzero entries x at column j of the
    block of the memory site numbered k; the same triples for the integer
    row elimination reads, the residues themselves over F_p (ints is rows)
    and the row's primitive integer multiple over Q; and the sorted
    positions k that hold an entry.  The entries are summed in one pass as
    plain ints, over Q the numerators over one scale."""
    p = field.p
    scale = 1 if p else _denominator(n, terms)
    raw: list[dict] = [{} for _ in range(n)]
    for h, block in terms if p else _numerators(n, terms, scale):
        k = position(h)
        for row, entries in zip(raw, block):
            for j, x in enumerate(entries):
                if x:
                    row[k, j] = row.get((k, j), 0) + x
    # each sum reduced once: to its residue over F_p, over Q to its
    # Fraction of the scale (the integer row keeps the numerators)
    raw = [{kj: r for kj, x in sorted(row.items()) if (r := x % p if p else x)} for row in raw]
    rows = [[(k, j, x if p else Fraction(x, scale)) for (k, j), x in row.items()] for row in raw]
    ints = rows if p else [[(k, j, z) for (k, j), z in _content_free(row).items()] for row in raw]
    read = sorted({k for row in raw for k, _ in row})
    return rows, ints, read


def constant_part(t: Nuca) -> Nuca:
    """The NUCA of the constant rule alone (singular part dropped)."""
    return Nuca(TwistedElement(t.element.regular, ()))


def basis_configuration(
    group: GroupSpec, field: FieldSpec, n: int, g: Element, j: int
) -> Configuration:
    """Zero base, a single standard basis vector e_j at site g."""
    return Configuration.make(group, field, n, (0,) * n, [(g, [int(i == j) for i in range(n)])])
