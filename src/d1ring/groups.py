"""Exact arithmetic and finite-subset algebra for the universe groups.

Two families are supported: Z^d (elements are integer coordinate tuples)
and free groups F_r (elements are reduced words, stored as tuples of
signed 1-based generator indices: +1 = 'a', -1 = 'A' = a^-1, +2 = 'b', ...).

Both representations are plain tuples, so elements are hashable and
immutable; a GroupSpec carries the operations.  compose takes free words
reduced, as check demands and parse_element and reduce_word make them,
and cancels only where its two words meet.  Over Z^d with d <= 12 (a
radius-1 ball within MAX_BALL_SIZE), each instance carries its own
compose, inverse and norm, unrolled over the d coordinates and generated
once per d, so a caller that binds grp.compose gets a plain function with
no kind test; larger d and free groups use the class methods.
GroupSpec.from_label reads each label once per process and returns one
object per label (at most 64 labels kept), so every cache keyed on a group
finds the group of an envelope by identity.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .errors import FormatError, UsageError, _check_int

Element = tuple

_MAX_FREE_RANK = 26
# Balls are never enumerated beyond this many elements.  Measured on 2 vCPUs
# (Python 3.11): about a million elements take 2-8 s and 150-370 MB to
# enumerate (Z^2 radius 500, Z^3 radius 50, free:4 radius 7), while free:26
# at radius 4 would have 7.0 M words.  It also bounds the Z^d whose site
# functions are unrolled: those whose radius-1 ball fits (d <= 12).
MAX_BALL_SIZE = 1_000_000
# Refusals count balls and search unknowns only up to 10^30: at radius 10^7
# of free:2 the count took 12.8 s and had millions of digits.
MAX_SHOWN_COUNT = 10**30
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_LETTER_VALUES = {ch: i + 1 for i, ch in enumerate(_LETTERS)} | {
    ch.upper(): -(i + 1) for i, ch in enumerate(_LETTERS)
}


def shown_count(count: Optional[int]) -> str:
    """A count for a refusal; None (not counted) or past MAX_SHOWN_COUNT reads "more than 10^30"."""
    return str(count) if count is not None and count <= MAX_SHOWN_COUNT else "more than 10^30"


def reduce_word(letters: Sequence[int]) -> Element:
    """Freely reduce a word, cancelling adjacent inverse pairs."""
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


# the rank of each letter in the order a < a^-1 < b < b^-1 < ...
_letter_rank = (
    {i + 1: 2 * i for i in range(_MAX_FREE_RANK)}
    | {-(i + 1): 2 * i + 1 for i in range(_MAX_FREE_RANK)}
).__getitem__

# Z^d's compose, inverse and norm unrolled over d coordinates, as
# dataclasses and namedtuple generate their methods from source.  On Z^2
# (2 vCPUs, Python 3.11) a call takes 0.09, 0.08 and 0.18 us, against
# 0.32, 0.28 and 0.67 us for the class methods' kind test and map.
_ZD_SITE_FUNCTIONS = """\
def compose(g, h):
    return ({compose},)
def inverse(g):
    return ({inverse},)
def norm(g):
    return {norm}
"""


@lru_cache(maxsize=None)
def _zd_site_functions(d: int) -> tuple:
    """(compose, inverse, norm) of Z^d, made once per d."""
    coords = range(d)
    norm = ", ".join(f"abs(g[{i}])" for i in coords)
    source = _ZD_SITE_FUNCTIONS.format(
        compose=", ".join(f"g[{i}] + h[{i}]" for i in coords),
        inverse=", ".join(f"-g[{i}]" for i in coords),
        norm=f"max({norm})" if d > 1 else norm,
    )
    namespace: dict = {}
    exec(source, {}, namespace)
    return namespace["compose"], namespace["inverse"], namespace["norm"]


@dataclass(frozen=True)
class GroupSpec:
    """Which group the elements live in: Z^d ("Zd") or F_rank ("free")."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("Zd", "free"):
            raise UsageError(f"unknown group kind {self.kind!r}")
        _check_int("group dimension/rank", self.dim)
        if self.dim < 1:
            raise UsageError("group dimension/rank must be >= 1")
        if self.kind == "free" and self.dim > _MAX_FREE_RANK:
            raise UsageError(f"free rank capped at {_MAX_FREE_RANK}")
        # instance attributes shadow the class methods, as frozen
        # dataclasses set their fields
        if self.kind == "Zd" and self.ball_size(1, MAX_BALL_SIZE) is not None:
            for name, fn in zip(("compose", "inverse", "norm"), _zd_site_functions(self.dim)):
                object.__setattr__(self, name, fn)

    def __reduce__(self):
        # rebuilt from its fields: the generated functions do not pickle
        return GroupSpec, (self.kind, self.dim)

    @staticmethod
    def zd(d: int) -> "GroupSpec":
        return GroupSpec("Zd", d)

    @staticmethod
    def free(rank: int) -> "GroupSpec":
        return GroupSpec("free", rank)

    # -- element algebra ---------------------------------------------------

    @property
    def identity(self) -> Element:
        return (0,) * self.dim if self.kind == "Zd" else ()

    def check(self, g: Element) -> None:
        """Validate that g is a well-formed element of this group.  A bool
        is no coordinate or letter, as parse_element has it: it would
        serialize as true or false."""
        if not isinstance(g, tuple):
            raise UsageError(f"group element must be a tuple, got {type(g).__name__}")
        if self.kind == "Zd":
            if len(g) != self.dim or not all(isinstance(c, int) and not isinstance(c, bool) for c in g):
                raise UsageError(f"expected an integer vector of length {self.dim}: {g!r}")
        else:
            for c in g:
                if not isinstance(c, int) or isinstance(c, bool) or c == 0 or abs(c) > self.dim:
                    raise UsageError(f"letter {c!r} out of range for free rank {self.dim}")
            for a, b in zip(g, g[1:]):
                if a == -b:
                    raise UsageError(f"word {g!r} is not reduced")

    def compose(self, g: Element, h: Element) -> Element:
        """g h.  Free words must be reduced, so they cancel only where they
        meet: the last i letters of g against the first i of h."""
        if self.kind == "Zd":
            return tuple(map(operator.add, g, h))
        if not g:
            return h
        if not h or g[-1] != -h[0]:
            return g + h
        i, n = 1, min(len(g), len(h))
        while i < n and g[-1 - i] == -h[i]:
            i += 1
        return g[: len(g) - i] + h[i:]

    def inverse(self, g: Element) -> Element:
        if self.kind == "Zd":
            return tuple(map(operator.neg, g))
        return tuple(-c for c in reversed(g))

    def key(self, g: Element):
        """Sort key realizing the canonical total order.

        Z^d: lexicographic on coordinates.  Free: shortlex with
        a < a^-1 < b < b^-1 < ...
        """
        if self.kind == "Zd":
            return g
        return (len(g), tuple(map(_letter_rank, g)))

    def sort(self, elems: Iterable[Element]) -> tuple[Element, ...]:
        """Deduplicate and sort under the canonical order."""
        return tuple(sorted(set(elems), key=self.key))

    def norm(self, g: Element) -> int:
        """Radius of the smallest ball containing g (Chebyshev / word length)."""
        if self.kind == "Zd":
            return max((abs(c) for c in g), default=0)
        return len(g)

    def ball_size(self, radius: int, cap: Optional[int] = None) -> Optional[int]:
        """len(ball(radius)) in closed form: (2r+1)^d for Z^d; for F_k the
        empty word plus 2k(2k-1)^(l-1) reduced words of each length
        1 <= l <= r, a geometric sum (plain 2r+1 for k = 1).  None past cap,
        found without computing a larger size."""
        _check_int("radius", radius)
        if radius < 0:
            raise UsageError("radius must be >= 0")
        k, free = self.dim, self.kind == "free" and self.dim > 1
        # the size is base^exp, or over F_k (k >= 2) at least that
        base, exp = (2 * k - 1, radius) if free else (2 * radius + 1, k if self.kind == "Zd" else 1)
        if cap is not None and exp * math.log(base) > math.log(cap + 1) + 1:
            return None
        size = 1 + 2 * k * (base**exp - 1) // (2 * k - 2) if free else base**exp
        return None if cap is not None and size > cap else size

    def ball(self, radius: int) -> tuple[Element, ...]:
        """Canonically ordered ball: the centered box [-r, r]^d for Z^d,
        all reduced words of length <= r for free groups.  A ball of more
        than MAX_BALL_SIZE elements is refused before it is enumerated."""
        size = self.ball_size(radius, MAX_SHOWN_COUNT)
        if size is None or size > MAX_BALL_SIZE:
            raise UsageError(
                f"the radius-{radius} ball of {self.label()} has {shown_count(size)} elements;"
                f" the limit is {MAX_BALL_SIZE}"
            )
        if self.kind == "Zd":
            rng = range(-radius, radius + 1)
            return self.sort(itertools.product(rng, repeat=self.dim))
        words: list[Element] = [()]
        frontier: list[Element] = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for c in range(1, self.dim + 1):
                    for s in (c, -c):
                        if not w or w[-1] != -s:
                            nxt.append(w + (s,))
            words.extend(nxt)
            frontier = nxt
        return self.sort(words)

    # -- serialization ------------------------------------------------------

    def label(self) -> str:
        return f"{self.kind}:{self.dim}"

    @staticmethod
    def from_label(label: str) -> "GroupSpec":
        """The group of a label in its canonical form: "Zd:" or "free:" then
        the dimension in ASCII digits with no sign, space, underscore or
        leading zero.  Each label is read once per process, and every read
        returns the same object (_group_of_label)."""
        if not isinstance(label, str):
            raise FormatError(f"bad group label {label!r}: expected a string")
        return _group_of_label(label)

    def encode_element(self, g: Element):
        """JSON value for g: integer array for Z^d, letter string for free."""
        if self.kind == "Zd":
            return list(g)
        return "".join(
            _LETTERS[c - 1] if c > 0 else _LETTERS[-c - 1].upper() for c in g
        )

    def parse_element(self, value) -> tuple[Element, bool]:
        """Parse a JSON value into an element.

        Returns (element, repaired); repaired is True when the input was
        legal but not canonical (an unreduced free word, or a letter that is
        not one of a-z, A-Z but lower-cases to one).
        """
        if self.kind == "Zd":
            if not isinstance(value, list) or len(value) != self.dim:
                raise FormatError(f"expected an integer array of length {self.dim}: {value!r}")
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
                raise FormatError(f"non-integer coordinate in {value!r}")
            return tuple(value), False
        if not isinstance(value, str):
            raise FormatError(f"expected a word string: {value!r}")
        letters = []
        foreign = False  # a letter outside a-z, A-Z that lower() maps onto a-z
        for ch in value:
            c = _LETTER_VALUES.get(ch)
            if c is None:
                idx = _LETTERS.find(ch.lower())
                c = 0 if idx < 0 else -(idx + 1) if ch.isupper() else idx + 1
                foreign = True
            if not c or abs(c) > self.dim:
                raise FormatError(f"letter {ch!r} out of range for free rank {self.dim}")
            letters.append(c)
        word = reduce_word(letters)
        return word, foreign or len(word) != len(letters)


@lru_cache(maxsize=64)
def _group_of_label(label: str) -> GroupSpec:
    """GroupSpec.from_label past its type check.  A label that is refused
    raises on every read, as a cache keeps no exception."""
    try:
        kind, dim = label.split(":")
        d = int(dim)
        if str(d) != dim:
            raise ValueError(f"{dim!r} is not a canonical integer")
        return GroupSpec(kind, d)
    except (ValueError, UsageError) as exc:
        raise FormatError(f"bad group label {label!r}: {exc}") from None


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset of a group, canonically ordered and duplicate-free."""

    group: GroupSpec
    elements: tuple[Element, ...]

    @staticmethod
    def make(group: GroupSpec, elems: Iterable[Element]) -> "FiniteSubset":
        elems = tuple(elems)
        for g in elems:
            group.check(g)
        return FiniteSubset(group, group.sort(elems))

    @staticmethod
    def ball(group: GroupSpec, radius: int) -> "FiniteSubset":
        return FiniteSubset(group, group.ball(radius))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g in self._index

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {g: i for i, g in enumerate(self.elements)}

    def position(self, g: Element) -> int:
        return self._index[g]

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_group(other)
        return FiniteSubset(self.group, self.group.sort(self.elements + other.elements))

    def product(self, other: "FiniteSubset") -> "FiniteSubset":
        """The product set {e*f : e in self, f in other}."""
        self._check_group(other)
        grp = self.group
        prods = {grp.compose(e, f) for e in self.elements for f in other.elements}
        return FiniteSubset(grp, grp.sort(prods))

    def inverse(self) -> "FiniteSubset":
        grp = self.group
        return FiniteSubset(grp, grp.sort(grp.inverse(e) for e in self.elements))

    def _check_group(self, other: "FiniteSubset") -> None:
        if self.group != other.group:
            raise UsageError("finite subsets live in different groups")
