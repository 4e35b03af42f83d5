"""Exact dense linear algebra over prime fields F_p and the rationals Q.

Matrices are numpy arrays (int64 residues for F_p, Fraction objects for Q),
so all arithmetic is exact; there is no floating point anywhere.  Subspaces
carry a reduced-row-echelon basis, which makes subspace equality a plain
structural comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FormatError, UsageError

# plain Python ints beyond this would overflow int64 in a*b accumulations
_INT64_PRIME_LIMIT = 1 << 31


def _is_prime(n: int) -> bool:
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


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: F_p for a prime p, or Q."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Fp":
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
        return 0 if self.kind == "Fp" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "Fp" else Fraction(1)

    def coerce(self, x):
        """Coerce an int/Fraction into canonical form for this field."""
        if self.kind == "Fp":
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Fp":
            return pow(int(a), self.p - 2, self.p)
        return 1 / Fraction(a)

    # -- serialization ---------------------------------------------------------

    def label(self) -> str:
        return "Q" if self.kind == "Q" else f"Fp:{self.p}"

    @staticmethod
    def from_label(label: str) -> "FieldSpec":
        if label == "Q":
            return FieldSpec.rationals()
        if label.startswith("Fp:"):
            try:
                p = int(label[3:])
            except ValueError:
                raise FormatError(f"bad field label {label!r}") from None
            if not _is_prime(p):
                raise FormatError(f"p must be prime (got {p})")
            return FieldSpec.fp(p)
        raise FormatError(f"bad field label {label!r}")

    def encode_scalar(self, x):
        """JSON value: residue int for F_p, "num/den" string for Q."""
        if self.kind == "Fp":
            return int(x)
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"

    def parse_scalar(self, value) -> tuple:
        """Parse a JSON scalar; returns (value, repaired)."""
        if self.kind == "Fp":
            if not isinstance(value, int) or isinstance(value, bool):
                raise FormatError(f"expected an integer residue: {value!r}")
            return value % self.p, not (0 <= value < self.p)
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value), True
        if not isinstance(value, str):
            raise FormatError(f"expected a 'num/den' string: {value!r}")
        try:
            num, _, den = value.partition("/")
            f = Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad rational {value!r}") from None
        return f, self.encode_scalar(f) != value

    def _dtype(self):
        if self.kind == "Fp" and self.p < _INT64_PRIME_LIMIT:
            return np.int64
        return object

    def _normalize_array(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.kind == "Fp" else a

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b reduced into the field.  An int64 sum of a.shape[1]
        products, each up to (p-1)^2, can overflow; such sums are taken
        over Python ints instead."""
        if a.dtype == np.int64 and (self.p - 1) ** 2 * a.shape[1] >= 1 << 63:
            return (a.astype(object) @ b.astype(object) % self.p).astype(np.int64)
        return self._normalize_array(a @ b)


class Matrix:
    """A dense exact matrix over a FieldSpec."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: np.ndarray):
        if data.ndim != 2:
            raise UsageError("matrix data must be 2-dimensional")
        self.field = field
        self.rows, self.cols = data.shape
        self.data = data

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        a = np.empty((nrows, ncols), dtype=field._dtype())
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise UsageError("ragged matrix rows")
            for j, x in enumerate(row):
                a[i, j] = field.coerce(x)
        return Matrix(field, a)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        dtype = field._dtype()
        if dtype is object:
            a = np.empty((rows, cols), dtype=object)
            a[:] = field.zero
        else:
            a = np.zeros((rows, cols), dtype=dtype)
        return Matrix(field, a)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        for i in range(n):
            m.data[i, i] = field.one
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.data.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(self.data.flat)))

    def __repr__(self):
        return f"Matrix({self.field.label()}, {self.to_lists()!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise UsageError("matrix product over different fields")
        if self.cols != other.rows:
            raise UsageError("matrix product shape mismatch")
        return Matrix(self.field, self.field._product(self.data, other.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.data.shape != other.data.shape:
            raise UsageError("matrix sum shape mismatch")
        return Matrix(self.field, self.field._normalize_array(self.data + other.data))

    def mul_vector(self, v: Sequence) -> tuple:
        """Apply to a coordinate vector, returning a tuple of field values."""
        if len(v) != self.cols:
            raise UsageError("vector length mismatch")
        col = np.empty((self.cols,), dtype=self.field._dtype())
        for i, x in enumerate(v):
            col[i] = x
        out = self.field._product(self.data, col)
        return tuple(self.field.coerce(x) for x in out)

    def to_lists(self) -> list[list]:
        return [[self.field.coerce(x) for x in row] for row in self.data]


def _rref(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    a = a.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        pivot = field.coerce(a[r, c])
        if pivot != field.one:
            a[r] = field._normalize_array(a[r] * field.inv(pivot))
        rows = np.nonzero(a[:, c])[0]
        for i in rows:
            if i != r:
                a[i] = field._normalize_array(a[i] - a[i, c] * a[r])
        pivots.append(c)
        r += 1
    return a, pivots


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by its canonical reduced-echelon basis.

    Equality of subspaces is equality of bases, which is what makes the
    kernel-tower stabilization check decidable.
    """

    field: FieldSpec
    ambient_dim: int
    basis: Matrix  # dim x ambient_dim, in RREF, no zero rows

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim))

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return Subspace.zero(field, ambient_dim)
        m = Matrix.from_rows(field, vectors)
        if m.cols != ambient_dim:
            raise UsageError("vector length != ambient dimension")
        r, pivots = _rref(field, m.data)
        return Subspace(field, ambient_dim, Matrix(field, r[: len(pivots)]))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> list[tuple]:
        return [tuple(self.field.coerce(x) for x in row) for row in self.basis.data]

    def contains(self, v: Sequence) -> bool:
        stacked = Subspace.from_vectors(self.field, self.ambient_dim, self.vectors() + [list(v)])
        return stacked.dim == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise UsageError("ambient dimension mismatch")
        stacked = Subspace.from_vectors(
            self.field, self.ambient_dim, other.vectors() + self.vectors()
        )
        return stacked.dim == other.dim


def rank(a: Matrix) -> int:
    _, pivots = _rref(a.field, a.data)
    return len(pivots)


def kernel_basis(a: Matrix) -> Subspace:
    """Canonical echelon basis of the right null space {v : Av = 0}."""
    field = a.field
    r, pivots = _rref(field, a.data)
    free_cols = [c for c in range(a.cols) if c not in set(pivots)]
    vectors = []
    for f in free_cols:
        v = [field.zero] * a.cols
        v[f] = field.one
        for row_idx, c in enumerate(pivots):
            v[c] = field.neg(field.coerce(r[row_idx, f]))
        vectors.append(v)
    return Subspace.from_vectors(field, a.cols, vectors)


def solve(a: Matrix, b: Sequence) -> Optional[tuple]:
    """Some x with Ax = b (free variables zero), or None if infeasible."""
    field = a.field
    if len(b) != a.rows:
        raise UsageError("right-hand side length mismatch")
    col = np.empty((a.rows, 1), dtype=field._dtype())
    for i, x in enumerate(b):
        col[i, 0] = field.coerce(x)
    aug = np.concatenate([a.data, col], axis=1)
    r, pivots = _rref(field, aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [field.zero] * a.cols
    for row_idx, c in enumerate(pivots):
        x[c] = field.coerce(r[row_idx, a.cols])
    return tuple(x)


def image(a: Matrix, s: Subspace) -> Subspace:
    """Canonical basis of {Av : v in s}."""
    if s.ambient_dim != a.cols:
        raise UsageError("subspace ambient dimension != matrix columns")
    vectors = [a.mul_vector(v) for v in s.vectors()]
    return Subspace.from_vectors(a.field, a.rows, vectors)
