"""Splitting-principle Chern class calculus over abstract graded rings.

A bundle is represented by its Chern classes c_1..c_rank, each an element of
some graded ring supplied through a small handle interface.  Chern classes
of a symmetric power come from power sums of Chern roots: Newton's
identities give the power sums of E, the Adams operations psi^a (which
scale the j-th power sum by a^j) give those of Sym^m E through a recurrence,
and Newton's identities again give its Chern classes.  That runs once per
(rank, power, degree) on integer polynomials in c_1..c_r, keeping only
degrees up to the target ring's top degree; a class is substituted into
the Grassmannian ring or a projective-bundle ring on its first read, by
Horner's rule in c_1 (Knuth, TAOCP vol. 2, sec. 4.6.4).  See Fulton,
Intersection Theory, ch. 3, and Katz and Stromme's Schubert package.

All coefficients are arbitrary-precision integers.  While the polynomials
are computed they are packed by Kronecker substitution (Kronecker 1882; see
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", 2009): the part in c_2 and c_3 is one int with a W-bit digit
per monomial, so a product is one big-int multiplication; W comes from a
proven coefficient bound, and no float is involved.  Products are summed in
place, and every division is exact, checks every packed coefficient, raises
on a remainder and drops zero terms.  Ring elements are immutable.  A
bundle's classes are a tuple, or for a symmetric power or a Whitney sum a
sequence filled class by class on first read, a sum's class from only the
degrees of its partial sums that it needs; a fill is idempotent, so it is
safe to share across threads, as is the functools.lru_cache of polynomials.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import comb
from operator import mul

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


def _exact_div(p: dict, k: int, half: int, high: int) -> dict:
    """p / k for packed values, zero values dropped; ArithmeticError unless
    every packed coefficient divides.

    half and high are _packing's for a divisor bound of at least k.  The
    add-and-mask test accepts a quotient only if its every digit lies in
    [-2^B, 2^B); k times such a quotient has the dividend's digits, so a
    value that divides while one of its digits does not still raises.
    """
    out = {}
    for e, c in p.items():
        q, rem = divmod(c, k)
        if rem or (q + half) & high:
            raise ArithmeticError(f"a coefficient packed in {c} is not divisible by {k}")
        if q:
            out[e] = q
    return out


def _packing(bits: int, divisor: int, slots: int) -> tuple:
    """(W, half, high) for `slots` balanced digits below 2^bits in magnitude,
    divided by integers up to divisor: W = bits + bitlength(divisor) + 1,
    rounded up to whole bytes; half holds 2^bits in every slot, and high is
    every bit but the low bits + 1 of each slot."""
    width = -(-(bits + divisor.bit_length() + 1) // 8) * 8
    ones = ((1 << width * slots) - 1) // ((1 << width) - 1)  # a 1 in each slot
    return width, ones << bits, ~(ones * ((2 << bits) - 1))


def _coefficient_bound(r: int, m: int, depth: int) -> int:
    """A bound on |coefficient| for every dividend and quotient of
    _sym_chern_polys(r, m, top), depth = min(R, top).

    The L1 norm (sum of |coefficients|) is subadditive and submultiplicative,
    L1(c_i) = 1, and an exact division by k divides it by k; so each of the
    three recurrences, run on L1 norms with every sign +, bounds the norms of
    what it makes, and does so monotonically in its inputs.  Newton's
    identities give L1(P_k(E)) <= 2^k - 1 by induction on k, below the power
    sums of a bundle F with Chern roots (2, 0, ..., 0).  The Adams recurrence
    is exact for F, so L1(P_j(Sym^s E)) <= P_j(Sym^s F), whose roots are 2a_1
    over the a in N^r with |a| = s.  a -> a + (m - s, 0, ..., 0) maps these
    one-to-one to roots of Sym^m F, none smaller, and the nonzero roots are at
    least 2, so each Adams dividend s P_j(Sym^s E), j <= depth, is at most
    m P_depth(Sym^m F).  Newton's identities inverted, with every sign + and
    P_i(Sym^m F) in place of the L1 norms, bound each dividend k c_k(Sym^m E)
    by u_k below.  A quotient is at most its dividend.
    """
    # mult[a]: how many roots of Sym^m F equal 2a
    mult = [int(a == m) if r == 1 else comb(m - a + r - 2, r - 2) for a in range(m + 1)]
    power = [comb(m + r - 1, r - 1)] + [sum(c * (2 * a) ** j for a, c in enumerate(mult)) for j in range(1, depth + 1)]
    bound = m * power[depth]
    chern = [1]
    for k in range(1, depth + 1):
        u = sum(map(mul, chern[::-1], power[1 : k + 1]))
        bound = max(bound, u)
        chern.append(u // k)
    return bound


@lru_cache(maxsize=None)
def _sym_chern_polys(r: int, m: int, top: int) -> tuple:
    """Chern classes c_1..c_min(R, top) of Sym^m of a rank-r bundle E, with
    R = binom(m + r - 1, r - 1) its rank, as integer polynomials in the
    classes c_1..c_v of E, v = min(r, top).

    A polynomial is returned as a dict from exponent tuples (length v) to
    nonzero ints; every one is homogeneous, so stopping at degree top
    truncates them all.  Newton's identities turn c(E) into the power sums
    P_j(E) of its Chern roots; the Adams recurrence

        s P_j(Sym^s) = sum_{a=1..s} sum_i binom(j, i) a^i P_i(E) P_{j-i}(Sym^(s-a)),

    with P_0(Sym^s) = binom(s + r - 1, r - 1), gives the power sums of each
    Sym^s; Newton's identities again give its Chern classes.

    While working, a polynomial of degree d <= depth = min(R, top) is a dict
    from the exponents of c_4..c_v, packed base top + 1, to one int; the
    exponent of c_1 is d less the weighted others and is dropped, and the
    coefficient of c_2^a c_3^b is the balanced W-bit digit at slot a + S b,
    S = depth // 2 + 1 (Kronecker substitution; slots are kept only for the
    classes E has).  Putting c_1 = 1, c_2 = 2^W and c_3 = 2^(W S) is a ring
    map, so sums and products of these ints are exact for any W, and a
    product is one big-int multiplication; every product has degree
    <= depth, so a <= depth // 2 < S and no two monomials share a slot.
    Only the divisions and the final unpack read digits.  Every dividend
    (s P_j(Sym^s) and k c_k(Sym^m)) and quotient has coefficients below 2^B,
    B the bit length of _coefficient_bound, and W is
    B + bitlength(max(m, depth)) + 1 rounded up to whole bytes, so a digit
    is the coefficient it packs.  A quotient q whose digits all lie in
    [-2^B, 2^B) gives k q digits below max(m, depth) 2^B < 2^(W-1) in
    magnitude, which must be the dividend's own, so every coefficient
    divided (_exact_div).  Products are summed in place; every division is
    exact, checked, and drops the zero values the sums left.  Results are
    shared and must not be mutated.
    """
    nvars = min(r, top)
    depth = min(comb(m + r - 1, r - 1), top)
    max_a = depth // 2 if nvars > 1 else 0  # highest exponents of c_2 and c_3
    max_b = depth // 3 if nvars > 2 else 0
    stride = max_a + 1
    slots = stride * (max_b + 1)
    bits = _coefficient_bound(r, m, depth).bit_length()
    width, half, high = _packing(bits, max(m, depth), slots)
    # no exponent of a monomial of degree <= top exceeds top, so adding keys
    # multiplies monomials without carries
    base = top + 1
    unit = 0
    # c_i of E for i <= nvars: c_1 is the implied exponent, c_2 and c_3 are
    # digits, c_4.. are keys
    c = [None, {unit: 1}, {unit: 1 << width}, {unit: 1 << width * stride}]
    c += [{base ** (i - 4): 1} for i in range(4, nvars + 1)]

    # Newton: P_k = sum_{i<k} (-1)^(i-1) c_i P_{k-i} + (-1)^(k-1) k c_k
    power_e = [{unit: r}]
    for k in range(1, depth + 1):
        acc = {}
        for i in range(1, min(k - 1, nvars) + 1):
            _poly_addmul(acc, c[i], power_e[k - i], (-1) ** (i - 1))
        if k <= nvars:
            _poly_add(acc, c[k], (-1) ** (k - 1) * k)
        power_e.append(acc)

    sym = [[{unit: 1}] + [{}] * depth]  # sym[s][j] = P_j(Sym^s E)
    for s in range(1, m + 1):
        row = [{unit: comb(s + r - 1, r - 1)}]
        for j in range(1, depth + 1):
            acc = {}
            for i in range(j + 1):
                w = {}
                for b in range(0 if i == j else 1, s):  # P_d(Sym^0) = 0 for d > 0
                    _poly_add(w, sym[b][j - i], (s - b) ** i)
                if w:
                    _poly_addmul(acc, power_e[i], w, comb(j, i))
            row.append(_exact_div(acc, s, half, high))
        sym.append(row)

    # Newton, inverted: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} P_i
    power = sym[m]
    chern = [{unit: 1}]
    for k in range(1, depth + 1):
        acc = {}
        for i in range(1, k + 1):
            _poly_addmul(acc, chern[k - i], power[i], (-1) ** (i - 1))
        chern.append(_exact_div(acc, k, half, high))

    # unpack each value once: every digit of a quotient lies in
    # [-2^B, 2^B), so adding half leaves the unsigned digit + 2^B in its bytes
    size, bias = width // 8, 1 << bits
    out = []
    for d, p in enumerate(chern[1:], 1):
        poly = {}
        for key, value in p.items():
            rest = tuple(key // base**i % base for i in range(nvars - 3))  # exponents of c_4..c_v
            free = d - sum(i * e for i, e in enumerate(rest, 4))
            data = (value + half).to_bytes(slots * size, "little")
            for b in range(min(free // 3, max_b) + 1):
                for a in range(min((free - 3 * b) // 2, max_a) + 1):
                    t = (a + stride * b) * size
                    digit = int.from_bytes(data[t : t + size], "little") - bias
                    if digit:
                        poly[(free - 2 * a - 3 * b, a, b)[:nvars] + rest] = digit
        out.append(poly)
    return tuple(out)


class ChernVector(_Record):
    """A bundle presented by its Chern classes in a graded ring.

    classes[i] is c_{i+1}, stored for i < min(rank, top degree); c_0 is the
    ring unit implicitly, and classes above the ring's top degree vanish and
    are not stored, so rank may be arbitrarily large.  classes is a sequence
    equal to the tuple of the classes; a symmetric power or a Whitney sum
    fills it on read.

    The ring is a handle (GrassRing or ProjBundleRing) with top_degree,
    one(), zero() and integrate(x), the integer degree of the top-degree
    part of x.  Its elements support +, -, * (with each other and with
    ints), nonnegative integer powers and component(degree), their
    homogeneous part of that degree; products above top_degree vanish.
    """

    _fields = ("ring", "rank", "classes")

    def __new__(cls, ring, rank: int, classes: Sequence):
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


def _series_div(num: list, den: list, ring, top: int) -> list:
    # num / den for series through degree top that start with c_0 = 1, solved
    # degree by degree as q_d = num_d - sum_{i=1..d} den_i q_{d-i}; the term
    # den_d q_0 = den_d is subtracted, not multiplied
    quot = [ring.one()]
    for d in range(1, top + 1):
        acc = num[d] - den[d]
        for i in range(1, d):
            if den[i] and quot[d - i]:
                acc = acc - den[i] * quot[d - i]
        quot.append(acc)
    return quot


def sym_power(e: ChernVector, m: int) -> ChernVector:
    """Chern vector of Sym^m of e.

    The polynomials of _sym_chern_polys, truncated at the ring's top degree,
    are evaluated at the classes of e, each on its first read (_SymClasses).
    """
    if not _is_int(m) or m < 0:
        raise ValueError(f"symmetric power must be a nonnegative integer, got {m}")
    ring = e.ring
    if e.rank == 0:
        return ChernVector.trivial(ring, 1 if m == 0 else 0)
    rank = comb(m + e.rank - 1, e.rank - 1)
    top = min(ring.top_degree, rank)
    polys = _sym_chern_polys(e.rank, m, top)
    return ChernVector(ring, rank, _SymClasses(ring, polys, e.classes, min(e.rank, top)))


class _LazyClasses(Sequence):
    """A bundle's classes, each made by _fill(i) on its first read and kept:
    a read-only sequence that behaves as their tuple (len, indexing,
    iteration, ==, repr, pickling; no hash).  Threads racing on one class
    store the same value twice."""

    __slots__ = ("_values",)

    def __len__(self):
        return len(self._values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        value = self._values[i]
        if value is None:
            value = self._values[i] = self._fill(i % len(self._values))
        return value

    def __iter__(self):  # map, not a generator: one frame less per level of a deep read
        return map(self.__getitem__, range(len(self._values)))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _LazyClasses)) else NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


class _SymClasses(_LazyClasses):
    """The classes of a symmetric power: class i is its polynomial
    p = sum_e c_1^e R_e(c_2..c_v) at the base classes, by Horner's rule in
    c_1: acc = R_E, then acc = acc c_1 + R_e for e = E-1 down to 0.  Each
    monomial of R_e of degree two or more is one ring product of a smaller
    monomial and one of c_2..c_v, memoised across all classes; the memo
    holds no power of c_1."""

    __slots__ = ("_ring", "_polys", "_base", "_memo")

    def __init__(self, ring, polys: tuple, base, nvars: int):
        self._ring, self._polys, self._base = ring, polys, base
        self._values = [None] * len(polys)
        # keyed by the exponents of c_2..c_v
        self._memo = {tuple(int(j == i) for j in range(1, nvars)): base[i] for i in range(1, nvars)}
        self._memo[(0,) * (nvars - 1)] = ring.one()

    def _fill(self, i):
        rests = {}  # exponent of c_1 -> the terms of R_e
        for expo, coeff in self._polys[i].items():
            rests.setdefault(expo[0], []).append((expo[1:], coeff))
        high = max(rests, default=0)  # an empty polynomial (c_1 of Sym^0) is zero
        value = self._ring.zero()
        for e in range(high, -1, -1):
            if e < high:
                value = value * self._base[0]
            for rest, coeff in rests.get(e, ()):
                value = value + coeff * self._monomial(rest)
        return value

    def _monomial(self, expo):
        memo, chain = self._memo, []
        while expo not in memo:  # strip one factor of the last class present
            i = max(j for j, x in enumerate(expo) if x)
            chain.append((expo, i))
            expo = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
        value = memo[expo]
        for expo, i in reversed(chain):
            value = memo[expo] = value * self._base[i + 1]
        return value


class _SumClasses(_LazyClasses):
    """The classes of a Whitney sum A_1 + ... + A_n, n >= 2, through one memo
    per partial sum S_j = A_1 + ... + A_j: c(S_j) = c(S_{j-1}) c(A_j).  Class
    d asks S_j only for degrees max(1, d - sum_{l>j} depth_l) ..
    min(d, sum_{l<=j} depth_l), depth = len(classes), filled bottom-up in a
    loop, not by recursion per summand; so c_top of a sum whose rank is the
    top degree is the product of top classes, n - 1 ring products.  c_0
    terms are added, and products with a zero class skipped."""

    __slots__ = ("_ring", "_parts", "_memos")

    def __init__(self, ring, bundles: tuple, depth: int):
        self._ring, self._values = ring, [None] * depth
        # a summand that is itself a sum gives its summands, so reads of nested sums do not recurse
        self._parts = [p for b in bundles for p in (b.classes._parts if type(b.classes) is _SumClasses else (b.classes,))]
        self._memos = [{} for _ in self._parts]  # _memos[j][e] = c_e(S_j), e >= 1

    def _fill(self, i):
        d, ahead, below, prev = i + 1, sum(map(len, self._parts)), 0, None
        for part, memo in zip(self._parts, self._memos):
            depth = len(part)
            ahead -= depth
            for e in range(max(1, d - ahead), min(d, below + depth) + 1):
                if e not in memo:
                    terms = ([prev[e]] if e <= below else []) + ([part[e - 1]] if e <= depth else [])
                    for k in range(max(1, e - depth), min(e - 1, below) + 1):
                        if prev[k] and part[e - k - 1]:
                            terms.append(prev[k] * part[e - k - 1])
                    memo[e] = sum(terms[1:], terms[0]) if terms else self._ring.zero()
            below, prev = below + depth, memo
        return prev[d]


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
    """Whitney sum: total classes multiply, each class on its first read
    (_SumClasses).  A single summand is returned unchanged."""
    if not bundles:
        raise ValueError("need at least one summand")
    for b in bundles:
        if not isinstance(b, ChernVector):
            raise ValueError(f"summands must be Chern vectors, got {b!r}")
    if len(bundles) == 1:
        return bundles[0]
    ring = bundles[0].ring
    if any(b.ring != ring for b in bundles):
        raise ValueError("summands live in different rings")
    rank = sum(b.rank for b in bundles)
    return ChernVector(ring, rank, _SumClasses(ring, bundles, min(rank, ring.top_degree)))


def whitney_quotient(f: ChernVector, s: ChernVector) -> ChernVector:
    """Chern vector of the quotient in 0 -> S -> F -> Q -> 0.

    The power-series quotient c(F)/c(S) through the ring's top degree,
    solved degree by degree from c(S) c(Q) = c(F) (_series_div).  A nonzero
    class above the quotient rank means no such bundle exists, which raises
    ValueError.  The division is re-checked by building the Whitney sum
    S + Q (direct_sum); a class that differs from F's means the series
    arithmetic is broken and raises ArithmeticError.  Above rk F both sides
    vanish, as S and Q vanish above their ranks, so the check covers every
    degree through the top.
    """
    ring = f.ring
    if s.ring != ring:
        raise ValueError("bundles live in different rings")
    rank = f.rank - s.rank
    if rank <= 0:
        raise ValueError(f"sub-bundle rank {s.rank} must be smaller than total rank {f.rank}")
    top = ring.top_degree
    quot = _series_div(f.total_series(top), s.total_series(top), ring, top)
    depth = min(rank, top)
    if any(quot[depth + 1 :]):
        raise ValueError(f"c(F)/c(S) has classes above degree {rank}: not a bundle of rank {rank}")
    q = ChernVector(ring, rank, tuple(quot[1 : depth + 1]))
    if direct_sum(s, q).classes != f.classes:
        raise ArithmeticError("Whitney series division failed its own check")
    return q


def segre(e: ChernVector, top: int) -> list:
    """Segre classes s_0..s_top, the formal inverse of the total Chern
    class: s_0 = 1, s_1 = -c_1, s_2 = c_1^2 - c_2, ..."""
    ring = e.ring
    return _series_div([ring.one()] + [ring.zero()] * top, e.total_series(top), ring, top)
