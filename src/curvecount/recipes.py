"""Curve-counting pipelines on Calabi-Yau threefolds.

One recipe counts lines and conics on a complete intersection of degrees
d_1, ..., d_s in P^N.  It expresses containment as a bundle on a moduli
space built from G(e+1, N+1), e the curve degree, and integrates its top
Chern class:

* lines live on G(2, N+1), and each equation contributes Sym^d(S*);
* conics live on P(Sym^2 S*) over G(3, N+1), the conics in each plane, and
  each equation contributes the quotient of Sym^d(S*) by the multiples of
  the conic's equation, Sym^(d-2)(S*) (x) O(-1).

A degree-d equation adds rank e*d + 1.  Rank and moduli dimension follow from
the inputs alone, so when they differ the recipe reports the dimension of
the expected family without building any ring.  Otherwise the count is
the evaluation of a curvecount.dsl query, whose text the report carries,
and a moduli dimension above MAX_MODULI_DIM is refused before the query is
built.  The bookkeeping for families and degenerations is in
curvecount.bookkeeping.
"""

from __future__ import annotations

from . import dsl
from .schubert import _is_int, _Record

# The largest moduli dimension a balanced recipe computes.  The cost grows
# steeply with it: conics at dimension 29 (P^10) take about 2 s as a CLI
# process, at 32 (P^11) about 6 s; lines take 0.25 s at 30 (P^16) and
# 2.6 s at 48 (P^25).
MAX_MODULI_DIM = 30


class CountReport(_Record):
    """Outcome of a counting recipe.

    Exactly one of count / family_dimension is set: a count requires the
    condition bundle rank to equal the moduli dimension.  A negative family
    dimension (rank above the moduli dimension) means that no such curve
    is expected: see expected_empty.  query is the DSL text whose value is
    the count (None when there is no count).
    """

    _fields = ("recipe", "ambient_dim", "degrees", "moduli_dim", "bundle_rank", "count", "family_dimension",
               "calabi_yau", "query")

    def __new__(cls, recipe: str, ambient_dim: int, degrees: tuple, moduli_dim: int, bundle_rank: int,
                count: int | None, family_dimension: int | None, calabi_yau: bool, query: str | None = None):
        balanced = bundle_rank == moduli_dim
        if balanced and (count is None or family_dimension is not None):
            raise ValueError("balanced recipe must carry a count and no family dimension")
        if not balanced and (count is not None or family_dimension is None):
            raise ValueError("unbalanced recipe must carry a family dimension and no count")
        return tuple.__new__(cls, (recipe, ambient_dim, degrees, moduli_dim, bundle_rank, count,
                                   family_dimension, calabi_yau, query))

    @property
    def expected_empty(self) -> bool:
        """More conditions than parameters: a generic member has no such
        curves."""
        return self.bundle_rank > self.moduli_dim

    @property
    def ambient(self) -> str:
        degs = ",".join(str(d) for d in self.degrees)
        return f"degree ({degs}) in P^{self.ambient_dim}"

    def describe(self) -> str:
        lines = [
            f"recipe:        {self.recipe}",
            f"ambient:       {self.ambient}",
            f"moduli dim:    {self.moduli_dim}",
            f"bundle rank:   {self.bundle_rank}",
            f"calabi-yau:    {'yes' if self.calabi_yau else 'no'}",
        ]
        if self.count is not None:
            lines.append(f"query:         {self.query}")
            lines.append(f"count:         {self.count}")
        else:
            lines.append(f"family dim:    {self.family_dimension}")
        return "\n".join(lines)


def _count(curve: str, ambient_dim: int, degrees: tuple) -> CountReport:
    e = 1 if curve == "lines" else 2
    rank = sum(e * d + 1 for d in degrees)
    dim = 2 * (ambient_dim - 1) if e == 1 else 3 * (ambient_dim - 2) + 5
    calabi_yau = sum(degrees) == ambient_dim + 1
    if rank != dim:
        return CountReport(curve, ambient_dim, degrees, dim, rank, None, dim - rank, calabi_yau)
    if dim > MAX_MODULI_DIM:
        raise ValueError(f"the moduli space of {curve} in P^{ambient_dim} has dimension {dim}, "
                         f"above the recipes' cap of {MAX_MODULI_DIM}")
    sdual, n = dsl.BundleAtom("Sdual"), ambient_dim + 1
    summands = []
    for d in degrees:
        forms = dsl.Sym(d, sdual)  # a conic's forms are taken modulo its equation's multiples
        summands.append(forms if e == 1 or d == 1 else dsl.Quotient(forms, dsl.Twist(dsl.Sym(d - 2, sdual), -1)))
    bundle = summands[0] if len(summands) == 1 else dsl.Sum(tuple(summands))
    space = dsl.GrassContext(2, n) if e == 1 else dsl.BundleContext(dsl.Sym(2, sdual), 3, n)
    query = dsl.Query(dsl.IntegrateNode(dsl.ChernOf(rank, bundle)), space)
    # the recipes' cap is not the DSL's: a count's query may lie past the DSL's size caps
    count = dsl._value(query)
    return CountReport(curve, ambient_dim, degrees, dim, rank, count, None, calabi_yau, dsl.render(query))


def _complete_intersection_degrees(ambient_dim, degrees) -> tuple:
    # nothing is converted: a float or a string degree is an error, not rounded
    if not _is_int(ambient_dim) or ambient_dim < 3:
        raise ValueError(f"ambient projective dimension must be an integer >= 3, got {ambient_dim!r}")
    degrees = tuple(degrees)
    if not degrees or not all(_is_int(d) and d >= 1 for d in degrees):
        raise ValueError(f"hypersurface degrees must be positive integers, got {degrees!r}")
    return degrees


def lines_on_complete_intersection(ambient_dim: int, degrees) -> CountReport:
    """Lines on a generic complete intersection of the given degrees in P^N.

    The moduli space is G(2, N+1) of dimension 2(N-1); a degree-d equation
    cuts the rank d+1 bundle Sym^d(S*).  When the total rank matches the
    dimension the count is the integral of the top Chern class; otherwise
    lines form a family of the reported dimension.  The calabi_yau flag
    records whether the degrees sum to N+1.
    """
    return _count("lines", ambient_dim, _complete_intersection_degrees(ambient_dim, degrees))


def conics_on_complete_intersection(ambient_dim: int, degrees) -> CountReport:
    """Conics on a generic complete intersection of the given degrees in P^N.

    A conic spans a plane, so the moduli space is the P^5-bundle of conics
    in the varying plane: the projectivization of Sym^2(S*) over G(3, N+1),
    of dimension 3(N-2) + 5.  A degree-d equation cuts the rank 2d+1
    quotient of Sym^d(S*) by Sym^(d-2)(S*) twisted by the conic's equation
    line (Sym^1(S*) itself for d = 1).  Counts and families are reported as
    for lines.
    """
    return _count("conics", ambient_dim, _complete_intersection_degrees(ambient_dim, degrees))


def conics_on_quintic_type(degree: int) -> CountReport:
    """Conics on a generic degree-d hypersurface in P^4, as reported by
    conics_on_complete_intersection(4, (degree,)): the count 609250 for
    d = 5, otherwise the family dimension 11 - (2d+1)."""
    return conics_on_complete_intersection(4, (degree,))
