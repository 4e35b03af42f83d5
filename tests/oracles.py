"""Independent brute-force implementations used as test oracles.

Everything here works on plain dict/tuple data and reimplements its own
group law, coefficient arithmetic, and summation loops directly from the
defining formulas.  It deliberately shares no code with the production
ring operations it is used to check.
"""

from __future__ import annotations

from fractions import Fraction


# -- group law (reimplemented) -------------------------------------------------

def o_compose(kind: str, g: tuple, h: tuple) -> tuple:
    if kind == "Zd":
        return tuple(a + b for a, b in zip(g, h))
    out = list(g)
    for c in h:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def o_inverse(kind: str, g: tuple) -> tuple:
    if kind == "Zd":
        return tuple(-a for a in g)
    return tuple(-c for c in reversed(g))


def o_identity(kind: str, dim: int) -> tuple:
    return (0,) * dim if kind == "Zd" else ()


# -- coefficient arithmetic (reimplemented) -----------------------------------------

def o_scalar_add(p, a, b):
    return (a + b) % p if p else Fraction(a) + Fraction(b)


def o_scalar_mul(p, a, b):
    return (a * b) % p if p else Fraction(a) * Fraction(b)


def o_add(p, a, b):
    if isinstance(a, tuple):
        return tuple(
            tuple(o_scalar_add(p, x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )
    return o_scalar_add(p, a, b)


def o_mul(p, a, b):
    if isinstance(a, tuple):
        n = len(a)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = 0 if p else Fraction(0)
                for t in range(n):
                    acc = o_scalar_add(p, acc, o_scalar_mul(p, a[i][t], b[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)
    return o_scalar_mul(p, a, b)


def o_is_zero(c) -> bool:
    if isinstance(c, tuple):
        return all(x == 0 for row in c for x in row)
    return c == 0


def _accumulate(p, acc: dict, key, value):
    if key in acc:
        acc[key] = o_add(p, acc[key], value)
    else:
        acc[key] = value


def _prune(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if not o_is_zero(v)}


# -- plain-data views of package objects ----------------------------------------------

def plain_groupring(a) -> dict:
    return dict(a.terms)


def plain_twisted(u) -> tuple[dict, dict]:
    return dict(u.regular.terms), {g: dict(part.terms) for g, part in u.singular}


def field_modulus(field) -> int | None:
    return field.p if field.kind == "Fp" else None


# -- the defining sums, evaluated naively ------------------------------------------------

def naive_convolve(kind: str, p, a: dict, b: dict) -> dict:
    """(ab)(g) = sum over all factorizations g = s t of a(s) b(t)."""
    acc: dict = {}
    for s, ca in a.items():
        for t, cb in b.items():
            _accumulate(p, acc, o_compose(kind, s, t), o_mul(p, ca, cb))
    return _prune(acc)


def naive_twisted_mul(kind: str, p, u, v) -> tuple[dict, dict]:
    """Triple-sum evaluation of (a1,b1)*(a2,b2) straight from the definition,
    over generously enumerated candidate indices."""
    a1, b1 = u
    a2, b2 = v

    reg = naive_convolve(kind, p, a1, a2)

    # candidate output sites g and inner elements h
    g_cand: set = set(b1)
    for t in a1:
        for site in b2:
            g_cand.add(o_compose(kind, site, o_inverse(kind, t)))
    h_cand: set = set()
    for t in a1:
        for part in b2.values():
            for w in part:
                h_cand.add(o_compose(kind, t, w))
    for part in b1.values():
        for t in part:
            for w in a2:
                h_cand.add(o_compose(kind, t, w))
            for p2 in b2.values():
                for w in p2:
                    h_cand.add(o_compose(kind, t, w))

    sing: dict = {}
    for g in g_cand:
        slot: dict = {}
        for h in h_cand:
            total = None
            # (a1 b2)(g)(h) = sum_t a1(t) b2(g t)(t^-1 h)
            for t, ca in a1.items():
                part = b2.get(o_compose(kind, g, t))
                if part is None:
                    continue
                cb = part.get(o_compose(kind, o_inverse(kind, t), h))
                if cb is None:
                    continue
                term = o_mul(p, ca, cb)
                total = term if total is None else o_add(p, total, term)
            # (b1 a2)(g)(h) = sum_t b1(g)(t) a2(t^-1 h)
            for t, cb in b1.get(g, {}).items():
                ca = a2.get(o_compose(kind, o_inverse(kind, t), h))
                if ca is None:
                    continue
                term = o_mul(p, cb, ca)
                total = term if total is None else o_add(p, total, term)
            # (b1 b2)(g)(h) = sum_t b1(g)(t) b2(g t)(t^-1 h)
            for t, cb in b1.get(g, {}).items():
                part = b2.get(o_compose(kind, g, t))
                if part is None:
                    continue
                cc = part.get(o_compose(kind, o_inverse(kind, t), h))
                if cc is None:
                    continue
                term = o_mul(p, cb, cc)
                total = term if total is None else o_add(p, total, term)
            if total is not None and not o_is_zero(total):
                slot[h] = total
        if slot:
            sing[g] = slot
    return reg, sing


def naive_apply_at(kind: str, p, omega, base: tuple, dev: dict, g: tuple) -> tuple:
    """tau(x)(g) = sum_h regular(h) x(gh) + sum_h singular(g)(h) x(gh),
    with x(site) = base + dev.get(site)."""
    reg, sing = omega
    n = len(base)
    zero = tuple(0 if p else Fraction(0) for _ in range(n))

    def value(site):
        v = dev.get(site)
        if v is None:
            return base
        return tuple(o_scalar_add(p, a, b) for a, b in zip(base, v))

    def mat_vec(m, vec):
        return tuple(
            sum_scalars(p, [o_scalar_mul(p, m[i][j], vec[j]) for j in range(n)])
            for i in range(n)
        )

    acc = zero
    for h, c in reg.items():
        acc = tuple(o_scalar_add(p, a, b) for a, b in zip(acc, mat_vec(c, value(o_compose(kind, g, h)))))
    for h, c in sing.get(g, {}).items():
        acc = tuple(o_scalar_add(p, a, b) for a, b in zip(acc, mat_vec(c, value(o_compose(kind, g, h)))))
    return acc


def sum_scalars(p, xs):
    acc = 0 if p else Fraction(0)
    for x in xs:
        acc = o_scalar_add(p, acc, x)
    return acc


# -- one-sided inverses on a ball, by their own elimination -----------------------------

def one_sided_inverse(kind: str, p: int, u, ball, side: str):
    """A v with u v = 1 (side "right") or v u = 1 (side "left") over F_p,
    in plain (regular, singular) form, whose regular part lies on the ball
    and whose singular parts sit at ball sites, each supported on the ball;
    None if there is none.  The unknowns are the entries of each slot, a
    regular coefficient at h or a singular coefficient at (g, h): the
    column of one is the naive product of u with that slot's unit vector,
    entry by entry, and the system (columns) v = 1 is solved by
    Gauss-Jordan elimination mod p with the free unknowns at 0."""
    reg, sing = u
    coeffs = list(reg.values()) + [c for part in sing.values() for c in part.values()]
    if not coeffs:
        return None  # the zero map inverts nothing
    n = len(coeffs[0])
    e = o_compose(kind, ball[0], o_inverse(kind, ball[0]))
    slots = [(h,) for h in ball] + [(g, h) for g in ball for h in ball]
    unknowns = [(slot, i, j) for slot in slots for i in range(n) for j in range(n)]

    def element(values: dict) -> tuple[dict, dict]:
        """The plain element whose slot entries are values[(slot, i, j)]."""
        out_reg: dict = {}
        out_sing: dict = {}
        for slot in slots:
            c = tuple(tuple(values.get((slot, i, j), 0) for j in range(n)) for i in range(n))
            if o_is_zero(c):
                continue
            if len(slot) == 1:
                out_reg[slot[0]] = c
            else:
                out_sing.setdefault(slot[0], {})[slot[1]] = c
        return out_reg, out_sing

    rows: dict = {}  # equation -> {unknown number: coefficient}
    for k, x in enumerate(unknowns):
        unit = element({x: 1})
        left, right = (u, unit) if side == "right" else (unit, u)
        prod_reg, prod_sing = naive_twisted_mul(kind, p, left, right)
        entries = [(("r", h), c) for h, c in prod_reg.items()]
        entries += [(("s", g, h), c) for g, part in prod_sing.items() for h, c in part.items()]
        for where, c in entries:
            for i in range(n):
                for j in range(n):
                    if c[i][j] % p:
                        rows.setdefault((where, i, j), {})[k] = c[i][j] % p
    width = len(unknowns)  # the right-hand side's column
    for i in range(n):
        rows.setdefault((("r", e), i, i), {})[width] = 1
    solution = _gauss_jordan_mod_p(p, rows.values(), width)
    return None if solution is None else element({unknowns[k]: x for k, x in solution.items()})


def _gauss_jordan_mod_p(p: int, rows, width: int):
    """{pivot column: value} solving the augmented rows ({column: entry},
    column `width` the right-hand side) mod p, the free columns at 0;
    None if the rows are inconsistent.  The pivot rows are kept fully
    reduced: each is 1 at its pivot and 0 at every other pivot."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        for c, prow in pivots.items():
            x = row.get(c)
            if x:
                for k, y in prow.items():
                    row[k] = (row.get(k, 0) - x * y) % p
        row = {k: x for k, x in row.items() if x}
        if not row:
            continue
        c = min(row)
        if c == width:
            return None  # 0 = a nonzero right-hand side
        inv = pow(row[c], -1, p)
        row = {k: x * inv % p for k, x in row.items()}
        for prow in pivots.values():
            x = prow.get(c)
            if x:
                for k, y in row.items():
                    prow[k] = (prow.get(k, 0) - x * y) % p
                for k in [k for k, y in prow.items() if not y]:
                    del prow[k]
        pivots[c] = row
    return {c: row.get(width, 0) for c, row in pivots.items()}
