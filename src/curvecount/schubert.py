"""Exact Schubert calculus on Grassmannians.

The Chow ring of G(k, n), the Grassmannian of k-dimensional subspaces of an
n-dimensional vector space, has an integral basis of Schubert classes
sigma_lambda indexed by partitions fitting a k x (n-k) box.  sigma_lambda has
codimension |lambda|, the class of a point is the full box, and the ring is
graded with top degree k(n-k).

Products are computed with arbitrary-precision integers by one step of the
column (dual) Giambelli determinant of one factor along its first column:
each term is a column class sigma_(1^i) times a basis product with one
column fewer, read from the product table or computed into it, and the
column class adds vertical strips, the dual Pieri rule.  The row form of
the determinant runs as the column form on the transposed (n-k) x k box,
the box of the dual Grassmannian G(n-k, n), which maps sigma_lambda to
sigma_lambda' and horizontal strips to vertical ones.  The check suites
(curvecount.suites) cross-check that pipeline against an independent
Littlewood-Richardson tableau rule.

A partition is checked once, where it enters: Partition, SchubertCycle,
schubert_class and dual_partition check their input, the last three through
one box check.  Strips, box enumeration, the point class, conjugates,
tautological classes and arithmetic results are built trusted.
That element core is shared with the projective-bundle ring.

Everything here is immutable; operations return new values.  The
structure constants of basis pairs live in one product table, _PRODUCTS,
for every Grassmannian: a dict from (k, n, lam, mu), lam <= mu, to the tuple
of ((nu, coeff), ...) terms of sigma_lam * sigma_mu on G(k, n), read by both
multiply and the projective-bundle product.  It fills itself: a missing key
is computed by __missing__ and stored.  Sharing it across threads is safe:
an entry is never changed once stored, and two threads that miss on the
same key only store the same tuple twice.
"""

from __future__ import annotations

import itertools
from operator import itemgetter


def _is_int(value) -> bool:
    """Nothing rounds: an integer input must be an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    The empty partition indexes the unit class.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        if not all(_is_int(p) for p in parts):
            raise ValueError(f"partition parts must be integers: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"partition parts must be nonnegative: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Total number of boxes; the codimension of sigma_self."""
        return sum(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        # sweeping up from the last row: the columns that row `rows` has and
        # row rows + 1 lacks hold exactly `rows` boxes.  The result is a
        # partition by construction, so it skips the re-check; products
        # conjugate every term they compute on the transposed box.
        parts = []
        below = 0
        for rows in range(len(self), 0, -1):
            p = self[rows - 1]
            parts += [rows] * (p - below)
            below = p
        return tuple.__new__(Partition, parts)

    def contains(self, other) -> bool:
        """Diagram containment, row by row."""
        other = Partition(other)
        if len(other) > len(self):
            return False
        return all(self[i] >= other[i] for i in range(len(other)))

    def __repr__(self):
        return f"Partition({tuple(self)!r})"


def _basis_order(lam: Partition) -> tuple:
    """Sort key of the Schubert basis: by codimension, then reverse
    lexicographically."""
    return (lam.weight, tuple(-p for p in lam))


class _Record(tuple):
    """Immutable record with named fields, the base of the package's value
    types; a subclass names its fields in _fields.  Records of different
    types never compare equal, and the tuple behaviour (len, indexing,
    ordering) is not part of any record's interface.
    """

    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
        return tuple.__new__(cls, values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __getnewargs__(self):
        return tuple(self)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__; tuple's would compare the items alone
    __hash__ = tuple.__hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


class GrassCtx(_Record):
    """The Grassmannian G(k, n) of k-dimensional subspaces of C^n."""

    _fields = ("k", "n")

    def __new__(cls, k: int, n: int):
        if not (_is_int(k) and _is_int(n)):
            raise ValueError("k and n must be integers")
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
        return tuple.__new__(cls, (k, n))

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def width(self) -> int:
        """Number of columns of the indexing box, n - k."""
        return self.n - self.k

    @property
    def point(self) -> Partition:
        """The full-box partition indexing the class of a point."""
        return tuple.__new__(Partition, (self.width,) * self.k)

    def box_partitions(self, weight=None) -> list[Partition]:
        """All partitions in the k x (n-k) box, optionally of a fixed weight.

        Deterministic order: by weight, then reverse lexicographic.
        """
        if weight is not None and not _is_int(weight):
            raise ValueError(f"weight must be an integer, got {weight!r}")
        # picks from width..1 with replacement come out weakly decreasing
        out = [tuple.__new__(Partition, parts) for rows in range(self.k + 1)
               for parts in itertools.combinations_with_replacement(range(self.width, 0, -1), rows)
               if weight is None or sum(parts) == weight]
        return sorted(out, key=_basis_order)

    def __str__(self):
        return f"G({self.k},{self.n})"


def _box_partition(ctx: GrassCtx, parts) -> Partition:
    """parts as a Partition that fits the box of ctx, or ValueError."""
    lam = Partition(parts)
    if len(lam) > ctx.k or (lam and lam[0] > ctx.width):
        raise ValueError(f"partition {tuple(lam)} does not fit the box of {ctx}")
    return lam


class _Element:
    """Shared core of ring elements: a space handle and a dict of terms,
    basis key -> nonzero int.

    Results are built by _trusted, which skips validation: every key and
    coefficient it receives comes from elements that were already valid.
    A subclass supplies _UNIT (the key of the unit), _MISMATCH (the error
    for operands from different spaces) and the hooks _product, and
    _degree, _order and _text (per key: degree, sort key and rendered body,
    "" for the unit); it may extend _coerce, which returns an operand as an
    element of this space, or None.
    """

    __slots__ = ("_space", "_terms")

    @classmethod
    def _trusted(cls, space, terms: dict):
        x = object.__new__(cls)
        x._space = space
        x._terms = terms
        return x

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other._space is not self._space and other._space != self._space:
                raise ValueError(self._MISMATCH)
            return other
        if isinstance(other, int) and other.__class__ is not bool:  # _is_int, inlined on a hot path
            return self._trusted(self._space, {self._UNIT: other} if other else {})
        return None

    def _combine(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) + sign * c
            if v:
                out[key] = v
            else:
                del out[key]
        return self._trusted(self._space, out)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        """Terms sorted by the basis order."""
        return sorted(self._terms.items(), key=lambda kv: self._order(kv[0]))

    def component(self, degree: int):
        """Homogeneous part of the given degree."""
        return self._trusted(self._space, {key: c for key, c in self._terms.items()
                                           if self._degree(key) == degree})

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._trusted(self._space, {key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and other.__class__ is not bool:  # a bool falls through to _coerce, which refuses it
            return self._trusted(self._space, {key: other * c for key, c in self._terms.items()} if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        # repeated multiplication by the base, starting from the base, not the
        # unit: squaring reaches basis products that repeated Pieri steps
        # never need, and measured slower; a zero power ends the loop
        if not _is_int(exponent) or exponent < 0:
            raise ValueError("powers need a nonnegative integer exponent")
        out = self if exponent else self._coerce(1)
        for _ in range(exponent - 1):
            if not out:
                break
            out = out * self
        return out

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return (self._space is other._space or self._space == other._space) and self._terms == other._terms

    def __str__(self):
        chunks = []
        for key, coeff in self.items():
            body, mag = self._text(key), abs(coeff)
            text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
            if not chunks:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(chunks) if chunks else "0"


_EMPTY = Partition()


class SchubertCycle(_Element):
    """Integer linear combination of Schubert classes of a fixed G(k, n).

    Terms are stored as a partition -> coefficient mapping with zero
    coefficients dropped.  Any class whose partition leaves the box is
    identically zero in the ring and is never stored, so products truncate
    above codimension k(n-k) automatically.  The constructor validates its
    input; arithmetic results are built trusted.
    """

    __slots__ = ()
    _UNIT = _EMPTY
    _MISMATCH = "cycles live on different Grassmannians"

    def __init__(self, ctx: GrassCtx, terms=()):
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for lam, coeff in items:
            lam = _box_partition(ctx, lam)
            if not _is_int(coeff):
                raise ValueError(f"coefficient of sigma{tuple(lam)} must be an integer, got {coeff!r}")
            if coeff:
                clean[lam] = clean.get(lam, 0) + coeff
                if not clean[lam]:
                    del clean[lam]
        self._space = ctx
        self._terms = clean

    @property
    def ctx(self) -> GrassCtx:
        return self._space

    @classmethod
    def unit(cls, ctx: GrassCtx) -> "SchubertCycle":
        return cls._trusted(ctx, {_EMPTY: 1})

    @classmethod
    def zero(cls, ctx: GrassCtx) -> "SchubertCycle":
        return cls._trusted(ctx, {})

    def _product(self, other):
        return multiply(self, other)

    @staticmethod
    def _degree(lam):
        return lam.weight

    _order = staticmethod(_basis_order)

    @staticmethod
    def _text(lam):
        return f"sigma[{','.join(str(p) for p in lam)}]" if lam else ""

    def __repr__(self):
        return f"<SchubertCycle {self} on {self.ctx}>"


def schubert_class(ctx: GrassCtx, parts) -> SchubertCycle:
    """The basis class sigma_parts on ctx."""
    return SchubertCycle._trusted(ctx, {_box_partition(ctx, parts): 1})


def dual_partition(lam, ctx: GrassCtx) -> Partition:
    """Complement of lam in the k x (n-k) box, rotated half a turn.

    The dual class is the unique basis partner under the integration
    pairing; applying the complement twice gives lam back.
    """
    lam = _box_partition(ctx, lam)
    padded = list(lam) + [0] * (ctx.k - len(lam))
    return Partition(ctx.width - padded[ctx.k - 1 - i] for i in range(ctx.k))


def _vertical_strips(lam: Partition, a: int, rows: int, width: int) -> list[Partition]:
    # mu_i in {lam_i, lam_i + 1}, mu weakly decreasing inside the rows x width box, no zero rows
    padded = list(lam) + [0] * (rows - len(lam))
    out = []

    def rec(i, remaining, prev, acc):
        if remaining > rows - i:
            return
        if i == rows:
            if remaining == 0:
                out.append(tuple.__new__(Partition, acc))
            return
        for add in (0, 1):
            m = padded[i] + add
            if add > remaining or m > prev or (i == 0 and m > width):
                continue
            rec(i + 1, remaining - add, m, acc + [m] if m else acc)

    rec(0, a, width, [])
    return out


class _ProductTable(dict):
    """The type of _PRODUCTS, the product table; see the module docstring."""

    __slots__ = ()

    def __missing__(self, key):
        """Compute, store and return the terms of sigma_lam * sigma_mu on G(k, n).

        One step of the column Giambelli determinant along its first column:
        with c the columns of lam, sigma_lam = sum_j (-1)^j sigma_(1^(c_j - j))
        sigma_lam(j), where lam(j) has the columns c_0+1, ..., c_(j-1)+1,
        c_(j+1), ...; the terms stop at the first c_j < j, and a lam(j) that
        leaves the box is zero.  Each sigma_lam(j) * sigma_mu is a basis
        product with one column fewer, read from this table (sigma_mu itself
        when lam(j) is empty, never stored), and gets vertical strips of
        c_j - j boxes, the dual Pieri rule.
        The factor with the smaller min(rows, columns) is expanded, in the row
        form when it has fewer rows than columns, the column form winning
        ties.  The row form is the column form on the transposed (n-k) x k
        box, so the sub-products' terms go in conjugated and the result comes
        out conjugated.
        """
        k, n, lam, mu = key
        if not lam:  # lam <= mu, so mu is empty only when lam is
            self[key] = out = ((mu, 1),)
            return out
        if (min(len(mu), mu[0]), len(mu) < mu[0]) < (min(len(lam), lam[0]), len(lam) < lam[0]):
            lam, mu = mu, lam
        transposed = len(lam) < lam[0]
        if transposed:
            cols, rows, width = lam, n - k, k
        else:
            cols, rows, width = lam.conjugate(), k, n - k
        acc = {}
        for j, cj in enumerate(cols):
            if cj < j:
                break
            shape = tuple.__new__(Partition, [c + 1 for c in cols[:j]] + list(cols[j + 1:]))
            if shape and shape[0] > rows:
                continue
            sub = shape if transposed else shape.conjugate()
            if not sub:
                prod = ((mu, 1),)
            else:
                prod = self[(k, n, sub, mu) if sub <= mu else (k, n, mu, sub)]
            sign = -1 if j & 1 else 1
            for nu, c in prod:
                for xi in _vertical_strips(nu.conjugate() if transposed else nu, cj - j, rows, width):
                    acc[xi] = acc.get(xi, 0) + sign * c
        if transposed:
            acc = {nu.conjugate(): c for nu, c in acc.items()}
        self[key] = out = tuple(sorted(((nu, c) for nu, c in acc.items() if c), key=lambda kv: _basis_order(kv[0])))
        return out


_PRODUCTS = _ProductTable()


def multiply(x: SchubertCycle, y: SchubertCycle) -> SchubertCycle:
    """Product in the Chow ring, bilinear over the product table."""
    ctx = x._space
    if y._space is not ctx and y._space != ctx:
        raise ValueError("cycles live on different Grassmannians")
    k, n = ctx
    out = {}
    for lam, a in x._terms.items():
        for mu, b in y._terms.items():
            ab = a * b
            for nu, c in _PRODUCTS[(k, n, lam, mu) if lam <= mu else (k, n, mu, lam)]:
                out[nu] = out.get(nu, 0) + ab * c
    return SchubertCycle._trusted(ctx, {nu: c for nu, c in out.items() if c})


def integrate(x: SchubertCycle) -> int:
    """Degree of the zero-dimensional part: the coefficient of the point
    class.  Components of lower codimension contribute nothing."""
    return x._terms.get(x._space.point, 0)


def chern_tautological(ctx: GrassCtx, which: str, i: int) -> SchubertCycle:
    """Chern class c_i of a tautological bundle on G(k, n).

    which is one of "sub" (the rank-k tautological sub-bundle S),
    "sub_dual" (its dual), or "quotient" (the rank n-k quotient Q).
    c_i(S*) = sigma_{(1^i)}, c_i(S) = (-1)^i sigma_{(1^i)}, c_i(Q) = sigma_i.
    """
    ranks = {"sub": ctx.k, "sub_dual": ctx.k, "quotient": ctx.n - ctx.k}
    if which not in ranks:
        raise ValueError(f"which must be one of {sorted(ranks)}, got {which!r}")
    if not _is_int(i) or not 0 <= i <= ranks[which]:
        raise ValueError(f"index {i} out of range for rank {ranks[which]}")
    if i == 0:
        return SchubertCycle.unit(ctx)
    # the range check keeps (i) and (1^i) inside the box
    lam = tuple.__new__(Partition, (i,) if which == "quotient" else (1,) * i)
    return SchubertCycle._trusted(ctx, {lam: (-1) ** i if which == "sub" else 1})
