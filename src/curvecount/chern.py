"""Splitting-principle Chern class calculus over abstract graded rings.

A bundle is represented by its Chern classes c_1..c_rank, each an element of
some graded ring supplied through a small handle interface.  Chern classes
of a symmetric power come from power sums of Chern roots: Newton's
identities give the power sums of E, the Adams operations psi^a (which
scale the j-th power sum by a^j) give those of Sym^m E through a recurrence,
and Newton's identities again give its Chern classes.  That runs once per
(rank, power, degree) on integer polynomials in c_1..c_r, keeping only
degrees up to the target ring's top degree, and the result is substituted
into the Grassmannian ring or a projective-bundle ring.  See Fulton,
Intersection Theory, ch. 3, and Katz and Stromme's Schubert package.

All coefficients are arbitrary-precision integers; products are summed in
place, and every division is exact, raises on a remainder and drops zero
terms.  Every value is immutable, and the polynomial cache is a
functools.lru_cache, safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .schubert import SchubertCycle, _is_int, _Record, chern_tautological, schubert_class
from .schubert import integrate as _grass_integrate


class GrassRing(_Record):
    """The Chow ring of G(k, n) as a graded ring handle."""

    _fields = ("ctx",)

    @property
    def top_degree(self) -> int:
        return self.ctx.dim

    def one(self):
        return SchubertCycle.unit(self.ctx)

    def zero(self):
        return SchubertCycle.zero(self.ctx)

    def integrate(self, x) -> int:
        return _grass_integrate(x)

    def schubert(self, parts) -> SchubertCycle:
        return schubert_class(self.ctx, parts)

    def tautological(self, which: str) -> "ChernVector":
        """Chern vector of the tautological bundle named by `which`
        ("sub", "sub_dual" or "quotient")."""
        rank = self.ctx.k if which in ("sub", "sub_dual") else self.ctx.width
        classes = tuple(chern_tautological(self.ctx, which, i) for i in range(1, rank + 1))
        return ChernVector(self, rank, classes)


def _poly_add(acc: dict, p: dict, scale: int) -> None:
    """acc += scale * p, in place; zero coefficients stay until _exact_div."""
    get = acc.get
    for e, c in p.items():
        acc[e] = get(e, 0) + scale * c


def _poly_addmul(acc: dict, p: dict, q: dict, scale: int) -> None:
    """acc += scale * p * q, in place, building no product; zeros stay too."""
    if len(p) > len(q):
        p, q = q, p
    get = acc.get
    q_items = q.items()
    for e1, c1 in p.items():
        c1 *= scale
        for e2, c2 in q_items:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _exact_div(p: dict, k: int) -> dict:
    """p / k with zero terms dropped; ArithmeticError unless every coefficient divides."""
    out = {}
    for e, c in p.items():
        q, rem = divmod(c, k)
        if rem:
            raise ArithmeticError(f"coefficient {c} is not divisible by {k}")
        if q:
            out[e] = q
    return out


@lru_cache(maxsize=None)
def _sym_chern_polys(r: int, m: int, top: int) -> tuple:
    """Chern classes c_1..c_min(R, top) of Sym^m of a rank-r bundle E, with
    R = binom(m + r - 1, r - 1) its rank, as integer polynomials in the
    classes c_1..c_v of E, v = min(r, top).

    A polynomial is a dict from exponent tuples (length v) to nonzero ints;
    every one is homogeneous, so stopping at degree top truncates them all.
    Newton's identities turn c(E) into the power sums P_j(E) of its Chern
    roots; the Adams recurrence

        s P_j(Sym^s) = sum_{a=1..s} sum_i binom(j, i) a^i P_i(E) P_{j-i}(Sym^(s-a)),

    with P_0(Sym^s) = binom(s + r - 1, r - 1), gives the power sums of each
    Sym^s; Newton's identities again give its Chern classes.  Products are
    summed in place; every division is exact, checked, and drops the zero
    terms the sums left.  Results are shared and must not be mutated.
    """
    nvars = min(r, top)
    depth = min(comb(m + r - 1, r - 1), top)
    # exponents are packed base top + 1 while working: no exponent of a
    # monomial of degree <= top exceeds top, so adding keys multiplies
    # monomials without carries
    base = top + 1
    unit = 0

    def c(i):  # c_i of E as a polynomial, i <= nvars
        return {base ** (i - 1): 1}

    # Newton: P_k = sum_{i<k} (-1)^(i-1) c_i P_{k-i} + (-1)^(k-1) k c_k
    power_e = [{unit: r}]
    for k in range(1, depth + 1):
        acc = {}
        for i in range(1, min(k - 1, nvars) + 1):
            _poly_addmul(acc, c(i), power_e[k - i], (-1) ** (i - 1))
        if k <= nvars:
            _poly_add(acc, c(k), (-1) ** (k - 1) * k)
        power_e.append(acc)

    sym = [[{unit: 1}] + [{}] * depth]  # sym[s][j] = P_j(Sym^s E)
    for s in range(1, m + 1):
        row = [{unit: comb(s + r - 1, r - 1)}]
        for j in range(1, depth + 1):
            acc = {}
            for i in range(j + 1):
                w = {}
                for b in range(s):
                    _poly_add(w, sym[b][j - i], (s - b) ** i)
                _poly_addmul(acc, power_e[i], w, comb(j, i))
            row.append(_exact_div(acc, s))
        sym.append(row)

    # Newton, inverted: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} P_i
    power = sym[m]
    chern = [{unit: 1}]
    for k in range(1, depth + 1):
        acc = {}
        for i in range(1, k + 1):
            _poly_addmul(acc, chern[k - i], power[i], (-1) ** (i - 1))
        chern.append(_exact_div(acc, k))
    return tuple(
        {tuple(e // base**i % base for i in range(nvars)): c for e, c in p.items()} for p in chern[1:]
    )


class ChernVector(_Record):
    """A bundle presented by its Chern classes in a graded ring.

    classes[i] is c_{i+1}, stored for i < min(rank, top degree); c_0 is the
    ring unit implicitly, and classes above the ring's top degree vanish and
    are not stored, so rank may be arbitrarily large.

    The ring is a handle (GrassRing or ProjBundleRing) with top_degree,
    one(), zero() and integrate(x), the integer degree of the top-degree
    part of x.  Its elements support +, -, * (with each other and with
    ints), nonnegative integer powers and component(degree), their
    homogeneous part of that degree; products above top_degree vanish.
    """

    _fields = ("ring", "rank", "classes")

    def __new__(cls, ring, rank: int, classes: tuple):
        if not _is_int(rank) or rank < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")
        depth = min(rank, ring.top_degree)
        if len(classes) != depth:
            raise ValueError(f"expected {depth} classes, got {len(classes)}")
        return tuple.__new__(cls, (ring, rank, classes))

    @classmethod
    def trivial(cls, ring, rank: int) -> "ChernVector":
        return cls(ring, rank, tuple(ring.zero() for _ in range(min(rank, ring.top_degree))))

    def c(self, i: int):
        """c_i, with c_0 = 1 and c_i = 0 above the rank or the top degree."""
        if not _is_int(i):
            raise ValueError(f"Chern indices must be integers, got {i!r}")
        if i == 0:
            return self.ring.one()
        if 1 <= i <= len(self.classes):
            return self.classes[i - 1]
        if i > 0:
            return self.ring.zero()
        raise ValueError("negative Chern index")

    def total_series(self, top: int) -> list:
        """[c_0, c_1, ..., c_top] padded with zeros above the stored classes."""
        return [self.c(i) for i in range(top + 1)]


def _series_mul(a: list, b: list, ring, top: int) -> list:
    # both series run through degree top and start with c_0 = 1, whose terms are
    # added, not multiplied; zero entries (classes above a base's top degree) are skipped
    out = [ring.one()]
    for d in range(1, top + 1):
        acc = a[d] + b[d]
        for i in range(1, d):
            if a[i] and b[d - i]:
                acc = acc + a[i] * b[d - i]
        out.append(acc)
    return out


def _series_inv(a: list, ring, top: int) -> list:
    # a runs through degree top; the term a_d * inv_0 = a_d is added
    if a[0] != ring.one():
        raise ValueError("total class series must start with the ring unit")
    inv = [ring.one()]
    for d in range(1, top + 1):
        acc = a[d]
        for i in range(1, d):
            if a[i] and inv[d - i]:
                acc = acc + a[i] * inv[d - i]
        inv.append(-acc)
    return inv


def sym_power(e: ChernVector, m: int) -> ChernVector:
    """Chern vector of Sym^m of e.

    The polynomials of _sym_chern_polys, truncated at the ring's top degree,
    are evaluated at the classes of e; each monomial of degree two or more is
    one ring product of a smaller monomial and one class.
    """
    if not _is_int(m) or m < 0:
        raise ValueError(f"symmetric power must be a nonnegative integer, got {m}")
    ring = e.ring
    if e.rank == 0:
        return ChernVector.trivial(ring, 1 if m == 0 else 0)
    rank = comb(m + e.rank - 1, e.rank - 1)
    top = min(ring.top_degree, rank)
    polys = _sym_chern_polys(e.rank, m, top)
    nvars = min(e.rank, top)
    memo = {tuple(int(j == i) for j in range(nvars)): e.classes[i] for i in range(nvars)}

    def monomial(expo):
        value = memo.get(expo)
        if value is None:
            i = max(j for j, x in enumerate(expo) if x)
            value = monomial(expo[:i] + (expo[i] - 1,) + expo[i + 1 :]) * e.classes[i]
            memo[expo] = value
        return value

    classes = []
    for poly in polys:
        acc = ring.zero()
        for expo, coeff in poly.items():
            acc = acc + coeff * monomial(expo)
        classes.append(acc)
    return ChernVector(ring, rank, tuple(classes))


def dual_bundle(e: ChernVector) -> ChernVector:
    """c_i of the dual is (-1)^i c_i."""
    classes = tuple(c if (i + 1) % 2 == 0 else -c for i, c in enumerate(e.classes))
    return ChernVector(e.ring, e.rank, classes)


def tensor_line(e: ChernVector, ell) -> ChernVector:
    """Twist by a line bundle with first Chern class ell.

    c_i(E (x) L) = sum_j binom(rank - j, i - j) c_j(E) ell^(i-j).
    ell must be homogeneous of degree 1 (or zero).
    """
    ring = e.ring
    if ell.component(1) != ell:
        raise ValueError("twisting class must be homogeneous of degree 1")
    r = e.rank
    top = min(r, ring.top_degree)
    ell_pow = [ring.one(), ell]
    for _ in range(top - 1):
        ell_pow.append(ell_pow[-1] * ell)
    classes = []
    for i in range(1, top + 1):
        # j = 0 and j = i are products with c_0 = 1 and ell^0 = 1
        acc = comb(r, i) * ell_pow[i] + e.c(i)
        for j in range(1, i):
            cj = e.c(j)
            if cj:  # classes above a base's top degree pull back to zero
                acc = acc + comb(r - j, i - j) * (cj * ell_pow[i - j])
        classes.append(acc)
    return ChernVector(ring, r, tuple(classes))


def direct_sum(*bundles: ChernVector) -> ChernVector:
    """Whitney sum: total classes multiply.  A single summand is returned
    unchanged."""
    if not bundles:
        raise ValueError("need at least one summand")
    if len(bundles) == 1:
        return bundles[0]
    ring = bundles[0].ring
    if any(b.ring != ring for b in bundles):
        raise ValueError("summands live in different rings")
    rank = sum(b.rank for b in bundles)
    top = min(rank, ring.top_degree)
    series = bundles[0].total_series(top)
    for b in bundles[1:]:
        series = _series_mul(series, b.total_series(top), ring, top)
    return ChernVector(ring, rank, tuple(series[1:]))


def whitney_quotient(f: ChernVector, s: ChernVector) -> ChernVector:
    """Chern vector of the quotient in 0 -> S -> F -> Q -> 0.

    Computed as the power-series quotient c(F)/c(S) through the ring's top
    degree.  A nonzero class above the quotient rank means no such bundle
    exists, which raises ValueError.  The division is re-checked by
    multiplying back through the top degree; a mismatch means the series
    arithmetic is broken and raises ArithmeticError.
    """
    ring = f.ring
    if s.ring != ring:
        raise ValueError("bundles live in different rings")
    rank = f.rank - s.rank
    if rank <= 0:
        raise ValueError(f"sub-bundle rank {s.rank} must be smaller than total rank {f.rank}")
    top = ring.top_degree
    sub = s.total_series(top)
    quot = _series_mul(f.total_series(top), _series_inv(sub, ring, top), ring, top)
    depth = min(rank, top)
    if any(quot[depth + 1 :]):
        raise ValueError(f"c(F)/c(S) has classes above degree {rank}: not a bundle of rank {rank}")
    if _series_mul(sub, quot, ring, top) != f.total_series(top):
        raise ArithmeticError("Whitney series division failed its own check")
    return ChernVector(ring, rank, tuple(quot[1 : depth + 1]))


def segre(e: ChernVector, top: int) -> list:
    """Segre classes s_0..s_top, the formal inverse of the total Chern
    class: s_0 = 1, s_1 = -c_1, s_2 = c_1^2 - c_2, ..."""
    ring = e.ring
    return _series_inv(e.total_series(top), ring, top)
