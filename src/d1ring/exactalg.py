"""Exact linear algebra over prime fields F_p and the rationals Q.

`Matrix` is the one matrix type: every row is a {column: nonzero value}
dict of Python ints mod p or Fractions, so window maps, bases and linear
systems cost memory in their nonzeros only.  One elimination kernel
(`_echelon`) serves solving, rank, kernels and subspaces.  Over F_p it
works on the residues as they are.  Over Q it is fraction-free: each row
enters as its primitive integer multiple (times the lcm of its
denominators, divided by the gcd of the result), and a reduction step is
row <- a*row - b*pivot followed by one content division.

A `Subspace` is its canonical reduced basis in the same integers: the
RREF rows over F_p, and over Q the primitive integer multiples of the
RREF rows, each with a positive leading entry.  Equality works on
those integer rows.  Fractions are made only where a caller reads
values: a subspace's `basis` and `vectors()` (made once, on first use),
solutions and inverses.  All arithmetic is exact; there is no floating
point anywhere.

`kernel_basis` reads the null vectors off a reduced basis whose rows
lead at their last column, where they come out as the canonical basis
with no second elimination.  `_echelon` may also sift rows into a basis
it is given, so that a caller can grow one basis block by block and
read ranks off its pivots (a kernel tower does so, level by level).

FieldSpec.from_label returns one object per label (at most 64 labels
kept), and over Q parse_scalar reads each "n/d" text of at most
MAX_CACHED_RATIONAL_TEXT (32) characters once per process (at most 1,024
texts kept); a refused text raises on every read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import FormatError, UsageError, _check_int


# the 12 prime bases 2 .. 37 make Miller-Rabin exact below 3.18e23; the
# moduli are kept below 2^64, well inside that
_P_LIMIT = 2**64


def _is_prime(n: int) -> bool:
    """Exact for n < _P_LIMIT; FieldSpec refuses any larger modulus."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Fractions are immutable, so every zero and one over Q can be these two
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)

# An envelope over Q repeats a few short texts ("1/2", "-3/1", ...), so
# parse_scalar reads each once per process and every reader shares the
# (Fraction, repaired) pair.  The cache (_cached_rational) holds at most
# 1,024 texts of at most MAX_CACHED_RATIONAL_TEXT characters, so it stays
# within a few hundred KB; a longer text is read on every call, and a
# refused one raises on every call, as a cache keeps no exception.
MAX_CACHED_RATIONAL_TEXT = 32


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: F_p for a prime p, or Q."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Fp":
            if self.p is not None:
                _check_int("p", self.p)
                if self.p >= _P_LIMIT:
                    raise UsageError(f"p must be a prime below 2^64 (got {self.p})")
            if self.p is None or not _is_prime(self.p):
                raise UsageError(f"p must be prime (got {self.p})")
        elif self.kind == "Q":
            if self.p is not None:
                raise UsageError("Q takes no modulus")
        else:
            raise UsageError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def fp(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    # -- scalar arithmetic ---------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "Fp" else _Q_ZERO

    @property
    def one(self):
        return 1 if self.kind == "Fp" else _Q_ONE

    def coerce(self, x):
        """Coerce an int (not a bool) or a Fraction into canonical form for
        this field.  Over F_p a Fraction num/den with den prime to p is
        num * den^-1.  Anything else, floats and strings included, is
        refused, not truncated or parsed."""
        p = self.p
        if isinstance(x, int) and not isinstance(x, bool):
            return x % p if p else Fraction(x)
        if isinstance(x, Fraction):
            if not p:
                return x
            if x.denominator % p:
                return x.numerator * pow(x.denominator, -1, p) % p
        raise UsageError(f"{x!r} has no value in {f'F_{p}' if p else 'Q'}")

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        a = self.coerce(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        return 1 / a

    # -- serialization ---------------------------------------------------------

    def label(self) -> str:
        return "Q" if self.kind == "Q" else f"Fp:{self.p}"

    @staticmethod
    def from_label(label: str) -> "FieldSpec":
        """The field of a label in its canonical form: "Q", or "Fp:" then p
        in ASCII digits with no sign, space, underscore or leading zero.
        Each label is read once per process, and every read returns the
        same object (_field_of_label)."""
        if not isinstance(label, str):
            raise FormatError(f"bad field label {label!r}")
        return _field_of_label(label)

    def encode_scalar(self, x):
        """JSON value: residue int for F_p, "num/den" string for Q."""
        if self.kind == "Fp":
            return int(x)
        # a Fraction is already in lowest terms; Fraction(x) would take the
        # slower path of the numbers ABC to copy it
        f = x if type(x) is Fraction else Fraction(x)
        return f"{f.numerator}/{f.denominator}"

    def parse_scalar(self, value) -> tuple:
        """Parse a JSON scalar; returns (value, repaired).  Over Q a text of
        at most MAX_CACHED_RATIONAL_TEXT characters is read once per
        process (_cached_rational); a longer one is read on every call."""
        if self.kind == "Fp":
            if not isinstance(value, int) or isinstance(value, bool):
                raise FormatError(f"expected an integer residue: {value!r}")
            return value % self.p, not (0 <= value < self.p)
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value), True
        if not isinstance(value, str):
            raise FormatError(f"expected a 'num/den' string: {value!r}")
        if len(value) <= MAX_CACHED_RATIONAL_TEXT:
            return _cached_rational(value)
        return _parse_rational(value)


@lru_cache(maxsize=64)
def _field_of_label(label: str) -> FieldSpec:
    """FieldSpec.from_label past its type check.  A label that is refused
    raises on every read, as a cache keeps no exception."""
    if label == "Q":
        return FieldSpec.rationals()
    if label.startswith("Fp:"):
        try:
            p = int(label[3:])
        except ValueError:
            raise FormatError(f"bad field label {label!r}") from None
        if str(p) == label[3:]:
            try:
                return FieldSpec.fp(p)
            except UsageError as exc:
                raise FormatError(str(exc)) from None
    raise FormatError(f"bad field label {label!r}")


def _parse_rational(text: str) -> tuple:
    """(Fraction, repaired) for a "num/den" text over Q."""
    try:
        num, _, den = text.partition("/")
        n, d = int(num), int(den) if den else 1
        f = Fraction(n, d)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational {text!r}") from None
    # the canonical encoding is "n/d" with n/d already in lowest terms
    # and d > 0 (Fraction left both as read), each written as str writes it
    return f, not (f.denominator == d and f.numerator == n and den == str(d) and num == str(n))


_cached_rational = lru_cache(maxsize=1024)(_parse_rational)


class Matrix:
    """An exact matrix over a FieldSpec, stored by rows: data[i] maps each
    column of row i that holds a nonzero entry to that entry, in canonical
    field form (an int in [0, p) or a Fraction).  Products, window maps,
    subspace bases and linear systems all use it.  rank and kernel_basis
    read each row over Q through its primitive integer multiple
    (_integer_rows), so for them a row may be any nonzero integer multiple
    of its field row, with int or Fraction entries, as
    invert.finitely_supported_kernel passes them (Nuca._kernel_rows).
    solve and inverse need the field rows, as each row pairs with its
    right-hand side; over F_p every entry must be a residue."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data: list[dict]):
        if len(data) != rows:
            raise UsageError("matrix data must have one dict per row")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, [_row_dict(field, ncols, row) for row in rows])

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, n, n, [{i: field.one} for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self):
        rows = tuple(tuple(sorted(row.items())) for row in self.data)
        return hash((self.field, self.rows, self.cols, rows))

    def __repr__(self):
        return f"Matrix({self.field.label()}, {self.to_lists()!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise UsageError("matrix product over different fields")
        if self.cols != other.rows:
            raise UsageError("matrix product shape mismatch")
        p = self.field.p
        data = []
        for row in self.data:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if p:
                acc = {j: v % p for j, v in acc.items()}
            data.append({j: v for j, v in acc.items() if v})
        return Matrix(self.field, self.rows, other.cols, data)

    def restrict(self, cols: Mapping[int, int], ncols: int) -> "Matrix":
        """The columns j in cols, each moved to column cols[j], in a matrix
        of ncols columns; the other columns are dropped."""
        data = [{cols[j]: x for j, x in row.items() if j in cols} for row in self.data]
        return Matrix(self.field, self.rows, ncols, data)

    def mul_vector(self, v: Sequence) -> tuple:
        """Apply to a coordinate vector, returning a tuple of field values."""
        if len(v) != self.cols:
            raise UsageError("vector length mismatch")
        coerce = self.field.coerce
        return tuple(coerce(sum(a * v[j] for j, a in row.items())) for row in self.data)

    def to_lists(self) -> list[list]:
        out = []
        for row in self.data:
            dense = [self.field.zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out


def _row_dict(field: FieldSpec, length: int, v: Sequence) -> dict:
    """The nonzero entries of a coordinate vector, coerced into the field."""
    if len(v) != length:
        raise UsageError(f"expected a vector of length {length}, got {len(v)}")
    return {j: x for j, x in enumerate(map(field.coerce, v)) if x}


def _integer_rows(field: FieldSpec, rows: Iterable[dict]) -> Iterable[dict]:
    """Fresh copies of canonical rows as the integer rows elimination works
    on: the residues themselves over F_p, primitive integer rows over Q."""
    return map(dict, rows) if field.p else map(_primitive_row, rows)


def _primitive_row(row: dict) -> dict:
    """The primitive integer multiple of a row of rationals (or integers):
    the row times the lcm of its denominators, divided by the gcd of the
    result."""
    den = lcm(*(v.denominator for v in row.values()))
    return _content_free({j: v.numerator * (den // v.denominator) for j, v in row.items()})


def _content_free(row: dict) -> dict:
    """An integer row divided by the gcd of its entries (its content)."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _field_rows(field: FieldSpec, basis: dict[int, dict]) -> list[dict]:
    """The rows of a reduced basis in canonical field form, by pivot
    column: over Q each integer row is divided by its leading entry."""
    out = []
    for c in sorted(basis):
        row = basis[c]
        if not field.p:
            d = row[c]
            row = {j: Fraction(v, d) for j, v in row.items()}
        out.append(row)
    return out


def _reduce(row: dict, pivot: dict, c: int, p: Optional[int]) -> None:
    """Clear column c of row in place: row <- a*row - b*pivot, dropping the
    entries that cancel.  Over F_p the pivot leads with 1, so a = 1 and
    b = row[c].  Over Q the pivot leads with a positive integer, a and b
    are pivot[c] and row[c] divided by their gcd, and the row is divided
    by its content afterwards, so it stays a primitive integer row."""
    b = row[c]
    if not p:
        a = pivot[c]
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if a != 1:
            for j in row:
                row[j] *= a
    for j, v in pivot.items():
        w = row.get(j, 0) - b * v
        if p:
            w %= p
        if w:
            row[j] = w
        else:
            row.pop(j, None)
    if not p and row:
        g = gcd(*row.values())
        if g != 1:
            for j in row:
                row[j] //= g


def _sift(p: Optional[int], basis: dict[int, dict], row: dict, lead=min) -> dict:
    """Reduce an integer row in place against a semi-echelon basis,
    leading column first, until no basis row leads at its leading column;
    return it.  It comes back empty iff it lies in the span of the basis.
    A row leads at its first column (lead=min) or at its last (lead=max)."""
    while row:
        c = lead(row)
        pivot_row = basis.get(c)
        if pivot_row is None:
            break
        _reduce(row, pivot_row, c, p)
    return row


def _echelon(
    p: Optional[int], rows: Iterable[dict], lead=min, basis: Optional[dict[int, dict]] = None,
) -> dict[int, dict]:
    """Semi-echelon basis {leading column: row} of the span of the rows,
    which are integer rows (_integer_rows) and are consumed.  Given a
    semi-echelon `basis` of the same lead, the rows join that one, in
    place, and the result spans both; the pivots it had stay.

    Each row is reduced against the basis (_sift) and joins it if anything
    is left: over F_p scaled to a leading 1, over Q with a positive
    leading entry.  Reducing by a row with leading column c only touches
    columns >= c (lead=min) or <= c (lead=max), so the leading columns of
    the basis are the pivot columns of the RREF, taken from the left or
    from the right.
    """
    if basis is None:
        basis = {}
    for row in rows:
        row = _sift(p, basis, row, lead)
        if row:
            c = lead(row)
            x = row[c]
            if p and x != 1:
                s = pow(x, p - 2, p)
                row = {j: v * s % p for j, v in row.items()}
            elif x < 0:
                row = {j: -v for j, v in row.items()}
            basis[c] = row
    return basis


def _reduced_echelon(p: Optional[int], rows: Iterable[dict], lead=min) -> dict[int, dict]:
    """The reduced basis {pivot column: row} of the span of integer rows:
    with lead=min the RREF over F_p, and over Q the primitive integer
    multiples of the RREF rows with positive leads, provided the rows
    given are primitive (a row that joins unreduced keeps its content).
    With lead=max the same with the columns taken from the right."""
    basis = _echelon(p, rows, lead)
    # back-reduce from the far end of the lead order (the rightmost lead
    # for lead=min): the rows that lead further on are already free of
    # every other pivot column
    for c in sorted(basis, reverse=lead is min):
        row = basis[c]
        for c2 in [j for j in row if j != c and j in basis]:
            _reduce(row, basis[c2], c2, p)
    return basis


class Subspace:
    """A linear subspace given by its canonical reduced basis `pivot_rows`,
    {pivot column: integer row}: the RREF rows over F_p, and over Q the
    primitive integer multiples of the RREF rows with positive leads.

    Equality of subspaces is equality of these bases, so it needs no
    elimination.  The constructor takes the basis as it is; from_rows,
    from_vectors and zero make it.
    """

    __slots__ = ("field", "ambient_dim", "pivot_rows", "_basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, pivot_rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivot_rows = pivot_rows
        self._basis: Optional[Matrix] = None

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, {})

    @staticmethod
    def from_rows(field: FieldSpec, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """The span of {column: nonzero canonical value} rows, which are
        read but not changed."""
        return Subspace(field, ambient_dim, _reduced_echelon(field.p, _integer_rows(field, rows)))

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = (_row_dict(field, ambient_dim, v) for v in vectors)
        return Subspace.from_rows(field, ambient_dim, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.field, self.ambient_dim) == (other.field, other.ambient_dim)
            and self.pivot_rows == other.pivot_rows
        )

    def __hash__(self):
        rows = tuple(tuple(sorted(self.pivot_rows[c].items())) for c in sorted(self.pivot_rows))
        return hash((self.field, self.ambient_dim, rows))

    def __repr__(self):
        return f"Subspace({self.field.label()}, {self.ambient_dim}, {self.vectors()!r})"

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    @property
    def basis(self) -> Matrix:
        """The RREF basis in canonical field values, dim x ambient_dim."""
        if self._basis is None:
            data = _field_rows(self.field, self.pivot_rows)
            self._basis = Matrix(self.field, len(data), self.ambient_dim, data)
        return self._basis

    def vectors(self) -> list[tuple]:
        return [tuple(row) for row in self.basis.to_lists()]


def rank(a: Matrix) -> int:
    return len(_echelon(a.field.p, _integer_rows(a.field, a.data)))


def kernel_basis(a: Matrix) -> Subspace:
    """Canonical echelon basis of the right null space {v : Av = 0}.  Over
    Q each row of a may be any nonzero integer multiple of its field row,
    negative or with plain int entries: the kernel is that of the rows'
    primitive integer multiples, which are the same for every such
    multiple."""
    p = a.field.p
    # each row of the reduced basis leads at its last column
    basis = _reduced_echelon(p, _integer_rows(a.field, a.data), max)
    # one vector per free column f: 1 at f and, at each pivot column c,
    # minus the entry at f of row c divided by its leading entry; in
    # integers, all of it times the lcm of those leading entries.  Row c
    # has entries at f only for f < c, so the vector of f starts at f,
    # and no other vector has an entry there: the vectors are already
    # the canonical reduced basis of the kernel.
    dens = {f: 1 for f in range(a.cols) if f not in basis}
    for c, row in basis.items():
        d_c = row[c]
        if d_c != 1:
            for f in row:
                if f != c:
                    dens[f] = lcm(dens[f], d_c)
    vectors = {f: {f: den} for f, den in dens.items()}
    for c, row in basis.items():
        d_c = row[c]
        for f, w in row.items():
            if f != c:
                vectors[f][c] = -w * (dens[f] // d_c)
    if p:
        null = {f: {j: x % p for j, x in v.items()} for f, v in vectors.items()}
    else:
        null = {f: _content_free(v) for f, v in vectors.items()}
    return Subspace(a.field, a.cols, null)


def solve(a: Matrix, b: Sequence) -> Optional[tuple]:
    """Some x with Ax = b (free variables zero), or None if infeasible,
    read off one RREF of [A | b] as inverse is: None if a pivot falls in
    the b column, and else x at each pivot column c is row c's b entry
    divided by its leading entry."""
    field, p = a.field, a.field.p
    if len(b) != a.rows:
        raise UsageError("right-hand side length mismatch")
    rhs = a.cols
    augmented = []
    for row, y in zip(a.data, b):
        y = field.coerce(y)
        augmented.append({**row, rhs: y} if y else row)
    basis = _reduced_echelon(p, _integer_rows(field, augmented))
    if rhs in basis:
        return None
    x = [field.zero] * a.cols
    for c, row in basis.items():
        y = row.get(rhs)
        if y:
            x[c] = y if p else Fraction(y, row[c])
    return tuple(x)


def inverse(a: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix, read off one RREF of [a | I]; None
    if a is singular, which is when a pivot falls in the I half."""
    n = a.rows
    if a.cols != n:
        raise UsageError("only a square matrix has an inverse")
    field = a.field
    augmented = ({**row, n + i: field.one} for i, row in enumerate(a.data))
    basis = _reduced_echelon(field.p, _integer_rows(field, augmented))
    if any(c >= n for c in basis):
        return None
    rows = _field_rows(field, basis)
    return Matrix(field, n, n, [{j - n: v for j, v in row.items() if j >= n} for row in rows])
