"""Chow ring of a projective bundle P(E) over a Grassmannian.

P(E) parametrizes 1-dimensional subspaces of the fibers of E.  With
zeta = c_1(O_P(1)), the dual of the tautological sub-line-bundle O_P(-1),
the ring is a free module over the base ring on 1, zeta, ..., zeta^(r-1)
subject to the relation

    zeta^r + c_1(E) zeta^(r-1) + ... + c_r(E) = 0.

The ring is a record over E alone and stores that relation once, as
zeta^r grouped by power of zeta: for each j < r with a nonzero part, the
pairs (partition, coefficient) of sigma_partition * zeta^j.  Elements store
flat terms, (j, partition) -> nonzero int, on the element core they share
with SchubertCycle, and derive their base-cycle coefficients b_0, ...,
b_(r-1) (`coeffs`) on each read.  pb_multiply convolves the term pairs of
both factors through the product table into one dict per power of
zeta, then rewrites the powers r..2r-2, highest first, through the
relation, one group of its terms per target power.  Elements stay in that
canonical form, so the pushforward along the projection is the
zeta^(r-1) part; the rule pushforward(zeta^(r-1+j)) = s_j(E) follows from
the relation and is exercised by the test suite.
"""

from __future__ import annotations

from .chern import ChernVector, GrassRing
from .schubert import _EMPTY, _PRODUCTS, SchubertCycle, _basis_order, _Element, _is_int, _Record


class ProjBundleRing(_Record):
    """Graded ring handle for P(E), E a bundle over a Grassmannian ring.

    _relation, not a field, is zeta^r grouped by power of zeta: the group
    (r - i, ((mu, -b), ...)) holds the terms b * sigma_mu of each nonzero
    c_i(E).
    """

    _fields = ("bundle",)

    def __new__(cls, bundle: ChernVector):
        if not isinstance(bundle.ring, GrassRing):
            raise ValueError("the bundle must live over a Grassmannian ring")
        if bundle.rank < 1:
            raise ValueError("cannot projectivize a rank-0 bundle")
        self = tuple.__new__(cls, (bundle,))
        # c_i(E) above the base's top degree are zero and not stored
        relation = tuple((bundle.rank - i, tuple((mu, -b) for mu, b in c._terms.items()))
                         for i, c in enumerate(bundle.classes, 1) if c._terms)
        object.__setattr__(self, "_relation", relation)
        return self

    @property
    def base(self) -> GrassRing:
        return self.bundle.ring

    @property
    def fiber_rank(self) -> int:
        return self.bundle.rank

    @property
    def top_degree(self) -> int:
        return self.base.top_degree + self.fiber_rank - 1

    def one(self) -> "PBElement":
        return PBElement._trusted(self, {(0, _EMPTY): 1})

    def zero(self) -> "PBElement":
        return PBElement._trusted(self, {})

    def from_base(self, cycle: SchubertCycle) -> "PBElement":
        """Pullback of a base cycle."""
        if cycle.ctx != self.base.ctx:
            raise ValueError(f"cycle lives on {cycle.ctx}, not on the base {self.base.ctx}")
        return PBElement._trusted(self, {(0, lam): c for lam, c in cycle._terms.items()})

    def zeta(self, power: int = 1) -> "PBElement":
        """zeta^power in canonical form: one term below the fiber rank r,
        the relation at r, and (zeta^r)^q * zeta^s above, power = q*r + s."""
        if not _is_int(power) or power < 0:
            raise ValueError(f"zeta powers must be nonnegative integers, got {power!r}")
        r = self.fiber_rank
        if power < r:
            return PBElement._trusted(self, {(power, _EMPTY): 1})
        top = PBElement._trusted(self, {(j, mu): b for j, group in self._relation for mu, b in group})
        q, s = divmod(power, r)
        return top ** q * self.zeta(s) if s else top ** q

    def pullback(self, bundle: ChernVector) -> ChernVector:
        """Pullback of a Chern vector from the base.  Classes above the base's
        top degree vanish there, so they pull back to zero."""
        if bundle.ring != self.base:
            raise ValueError("bundle does not live on the base of this projective bundle")
        depth = min(bundle.rank, self.top_degree)
        classes = [self.from_base(c) for c in bundle.classes]
        classes += [self.zero()] * (depth - len(classes))
        return ChernVector(self, bundle.rank, tuple(classes))

    def integrate(self, x: "PBElement") -> int:
        return pb_integrate(x)

    def __str__(self):
        return f"P(E^{self.fiber_rank}) over {self.base.ctx}"


class PBElement(_Element):
    """sum of b_j * zeta^j with base-cycle coefficients and j < fiber rank.

    Terms are keyed by (j, partition): the coefficient of sigma_partition *
    zeta^j.  A term has degree j + |partition|.
    """

    __slots__ = ()
    _UNIT = (0, _EMPTY)
    _MISMATCH = "elements live on different projective bundles"

    def __init__(self, ring: ProjBundleRing, coeffs: tuple):
        if len(coeffs) != ring.fiber_rank:
            raise ValueError("coefficient count must equal the fiber rank")
        for b in coeffs:
            if not isinstance(b, SchubertCycle) or b.ctx != ring.base.ctx:
                raise ValueError(f"coefficients must be cycles on the base {ring.base.ctx}")
        self._space = ring
        self._terms = {(j, lam): c for j, b in enumerate(coeffs) for lam, c in b._terms.items()}

    @property
    def ring(self) -> ProjBundleRing:
        return self._space

    @property
    def coeffs(self) -> tuple:
        """The base cycles b_0, ..., b_(r-1), computed on each read."""
        split = [{} for _ in range(self._space.fiber_rank)]
        for (j, lam), c in self._terms.items():
            split[j][lam] = c
        ctx = self._space.base.ctx
        return tuple(SchubertCycle._trusted(ctx, t) for t in split)

    def _coerce(self, other):
        if isinstance(other, SchubertCycle):
            return self._space.from_base(other)
        return super()._coerce(other)

    def _product(self, other):
        return pb_multiply(self, other)

    @staticmethod
    def _degree(key):
        return key[0] + key[1].weight

    @staticmethod
    def _order(key):
        j, lam = key
        weight, rest = _basis_order(lam)
        return (weight + j, -j, rest)

    @staticmethod
    def _text(key):
        j, lam = key
        factors = [SchubertCycle._text(lam)] if lam else []
        if j == 1:
            factors.append("zeta")
        elif j > 1:
            factors.append(f"zeta^{j}")
        return "*".join(factors)

    def __repr__(self):
        return f"<PBElement {self} on {self.ring}>"


def pb_multiply(x: PBElement, y: PBElement) -> PBElement:
    """Product in the Chow ring of P(E), computed on the flat terms.

    Each pair of terms sigma_lam zeta^i of x and sigma_mu zeta^j of y adds
    a * b * sigma_lam * sigma_mu, read from the product table, to the
    slot of zeta^(i+j): one dict partition -> int per power 0..2r-2.  Each
    term of a power r..2r-2, highest power first, is then rewritten through
    the relation, one slot per group of its terms, and the slots below r are
    the result.
    """
    ring = x._space
    if y._space is not ring and y._space != ring:
        raise ValueError("elements live on different projective bundles")
    r = ring.fiber_rank
    k, n = ring.base.ctx
    slots = [{} for _ in range(2 * r - 1)]
    for (i, lam), a in x._terms.items():
        for (j, mu), b in y._terms.items():
            slot = slots[i + j]
            ab = a * b
            for nu, c in _PRODUCTS[(k, n, lam, mu) if lam <= mu else (k, n, mu, lam)]:
                slot[nu] = slot.get(nu, 0) + ab * c
    for power in range(2 * r - 2, r - 1, -1):
        for lam, a in slots[power].items():
            if not a:
                continue
            for j, group in ring._relation:
                slot = slots[power - r + j]
                for mu, b in group:
                    ab = a * b
                    for nu, c in _PRODUCTS[(k, n, lam, mu) if lam <= mu else (k, n, mu, lam)]:
                        slot[nu] = slot.get(nu, 0) + ab * c
    return PBElement._trusted(ring, {(j, nu): c for j in range(r) for nu, c in slots[j].items() if c})


def pb_pushforward(x: PBElement) -> SchubertCycle:
    """Pushforward to the base along the bundle projection.

    On canonical form only zeta^(r-1) survives, with multiplier s_0 = 1, so
    this is the top zeta coefficient.  Codimension drops by the fiber
    dimension r - 1.
    """
    top = x.ring.fiber_rank - 1
    return SchubertCycle._trusted(x.ring.base.ctx, {lam: c for (j, lam), c in x._terms.items() if j == top})


def pb_integrate(x: PBElement) -> int:
    """Integrate over the total space: push forward, then integrate over
    the Grassmannian base."""
    return x.ring.base.integrate(pb_pushforward(x))
