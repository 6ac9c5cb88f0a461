"""Curve-counting pipelines on Calabi-Yau threefolds and the bookkeeping
for degenerate families.

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
the evaluation of a curvecount.dsl query, whose text the report carries.
The remaining entry points are the exact bookkeeping rules for families and
degenerations: normal-bundle splitting types on a rational curve, family
equivalences, the 1/m^3 multiple-cover weight, and validation of
degeneration ledgers whose component equivalences must add up to the
conserved total.
"""

from __future__ import annotations

import json
import os

from . import dsl
from .schubert import _is_int, _Record


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
    sdual, n = dsl.BundleAtom("Sdual"), ambient_dim + 1
    summands = []
    for d in degrees:
        forms = dsl.Sym(d, sdual)  # a conic's forms are taken modulo its equation's multiples
        summands.append(forms if e == 1 or d == 1 else dsl.Quotient(forms, dsl.Twist(dsl.Sym(d - 2, sdual), -1)))
    bundle = summands[0] if len(summands) == 1 else dsl.Sum(tuple(summands))
    space = dsl.GrassContext(2, n) if e == 1 else dsl.BundleContext(dsl.Sym(2, sdual), 3, n)
    query = dsl.Query(dsl.IntegrateNode(dsl.ChernOf(rank, bundle)), space)
    # a recipe takes any N, so its query may lie past the DSL's size caps
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


class ClemensCount(_Record):
    """Dimension bookkeeping for degree-d rational curves on a quintic.

    A degree-d map from P^1 to P^4 has 5(d+1) coefficients; lying on the
    quintic imposes 5d+1 conditions and reparametrization absorbs 4, so the
    excess is zero in every degree and rational curves are expected in
    finite number.
    """

    _fields = ("degree", "parameters", "conditions", "reparametrizations")

    @property
    def excess(self) -> int:
        return self.parameters - self.conditions - self.reparametrizations


def clemens_excess(degree: int) -> ClemensCount:
    """Parameter/condition count for degree-d rational curves on a quintic
    threefold: (5(d+1), 5d+1, 4), excess 0."""
    if not _is_int(degree) or degree < 1:
        raise ValueError(f"curve degree must be a positive integer, got {degree!r}")
    return ClemensCount(degree, 5 * (degree + 1), 5 * degree + 1, 4)


class NormalBundleSplit(_Record):
    """Splitting type O(a) + O(b) of the normal bundle of a rational curve
    on a Calabi-Yau threefold, with a + b = -2."""

    _fields = ("a", "b", "h0", "classification")


def normal_bundle_classify(a: int) -> NormalBundleSplit:
    """Classify a rational curve by the splitting type O(a) + O(-2-a).

    h^0 counts first-order deformations: h^0(O(a)) = max(a+1, 0) summed
    over both summands.  Zero sections means the curve is rigid (that needs
    a = b = -1), one means first-order deformations only, more means the
    curve moves in a family of that dimension.
    """
    if not _is_int(a):
        raise ValueError(f"splitting degree must be an integer, got {a!r}")
    b = -2 - a
    h0 = max(a + 1, 0) + max(b + 1, 0)
    if h0 == 0:
        kind = "rigid"
    elif h0 == 1:
        kind = "first_order"
    else:
        kind = "higher_dim"
    return NormalBundleSplit(a, b, h0, kind)


def equivalence_zero_dim(curve_classes, moduli_segre, integrate_top) -> int:
    """Contribution of a zero-dimensional piece of a family to a count.

    curve_classes and moduli_segre are graded class sequences on the piece,
    indexed by codimension and truncated at its dimension; the result is
    the integral of the dimension-zero part of their product.  The classes
    may be plain integers (multiples of a fixed cycle in each degree) or
    ring elements; integrate_top maps a top-degree class to an integer.
    Only one connected piece is handled here; a disconnected family is
    processed piece by piece and the results added.
    """
    curve_classes = list(curve_classes)
    moduli_segre = list(moduli_segre)
    dim = max(len(curve_classes), len(moduli_segre)) - 1
    if dim < 0:
        raise ValueError("class sequences must be nonempty")
    top = None
    for i in range(dim + 1):
        j = dim - i
        if i < len(curve_classes) and j < len(moduli_segre):
            term = curve_classes[i] * moduli_segre[j]
            top = term if top is None else top + term
    if top is None:
        raise ValueError("no terms of top dimension")
    return integrate_top(top)


def equivalence_unobstructed(family_dim: int, chern_integrals=None) -> int:
    """Count contributed by an unobstructed k-dimensional family of curves.

    The contribution is the Euler number of the rank-k obstruction sheaf
    over the family.  A zero-dimensional family contributes exactly 1.  For
    k >= 1 the caller supplies integrals of the obstruction Chern classes,
    indexed so that chern_integrals[k] is the integral of c_k; a mapping
    from index to integer also works.
    """
    if not _is_int(family_dim) or family_dim < 0:
        raise ValueError(f"family dimension must be a nonnegative integer, got {family_dim!r}")
    if family_dim == 0:
        return 1
    if chern_integrals is None:
        raise ValueError(f"need the integral of c_{family_dim} for a {family_dim}-dimensional family")
    try:
        value = chern_integrals[family_dim]
    except (KeyError, IndexError):
        raise ValueError(f"missing integral of c_{family_dim}") from None
    if not _is_int(value):
        raise ValueError(f"the integral of c_{family_dim} must be an integer, got {value!r}")
    return value


def multiple_cover_weight(cover_degree: int) -> Fraction:
    """Weight of degree-m multiple covers of a rigid rational curve: each
    cover contributes 1/m^3, exactly."""
    from fractions import Fraction  # here, not at import: fractions loads decimal, which nothing else needs

    if not _is_int(cover_degree) or cover_degree < 1:
        raise ValueError(f"cover degree must be a positive integer, got {cover_degree!r}")
    return Fraction(1, cover_degree**3)


class LedgerComponent(_Record):
    """One boundary component: its label, its equivalence (contribution per
    member), and how many members it has (default 1)."""

    _fields = ("label", "equivalence", "count")

    def __new__(cls, label: str, equivalence: int, count: int = 1):
        return tuple.__new__(cls, (label, equivalence, count))

    @property
    def contribution(self) -> int:
        return self.equivalence * self.count


class DegenerationLedger(_Record):
    """A conserved total and the components it is supposed to split into
    when the variety degenerates."""

    _fields = ("name", "total", "components")

    @property
    def computed(self) -> int:
        return sum(c.contribution for c in self.components)


class LedgerReport(_Record):
    """Result of checking one ledger; a failure is data, not an error."""

    _fields = ("name", "total", "computed", "ok")

    @property
    def residual(self) -> int:
        return self.total - self.computed


def ledger_check(ledger: DegenerationLedger) -> LedgerReport:
    """Verify that the component contributions add up to the total."""
    computed = ledger.computed
    return LedgerReport(ledger.name, ledger.total, computed, computed == ledger.total)


def _parse_ledger(obj, origin: str) -> DegenerationLedger:
    if not isinstance(obj, dict):
        raise ValueError(f"{origin}: ledger entries must be objects")
    for key in ("name", "total", "components"):
        if key not in obj:
            raise ValueError(f"{origin}: ledger is missing key '{key}'")
    name = obj["name"]
    total = obj["total"]
    raw = obj["components"]
    if not isinstance(name, str) or not _is_int(total) or not isinstance(raw, list):
        raise ValueError(f"{origin}: ledger needs a string name, integer total and component list")
    comps = []
    for i, c in enumerate(raw):
        where = f"{origin}: component {i}"
        if not isinstance(c, dict) or "label" not in c or "equivalence" not in c:
            raise ValueError(f"{where} needs label and equivalence")
        if not isinstance(c["label"], str):
            raise ValueError(f"{where} label must be a string")
        count = c.get("count", 1)
        if not _is_int(c["equivalence"]) or not _is_int(count):
            raise ValueError(f"{where} must use integer equivalence and count")
        comps.append(LedgerComponent(c["label"], c["equivalence"], count))
    return DegenerationLedger(name, total, tuple(comps))


_DATA = os.path.join(os.path.dirname(__file__), "data", "degenerations.json")


def _read_json(path):
    """The JSON document in a UTF-8 file; one that does not decode is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None
        except ValueError as exc:  # not UTF-8, or an integer past the interpreter's limit on digits
            raise ValueError(f"{path}: {exc}") from None


def builtin_ledgers() -> dict:
    """The shipped degeneration ledgers, keyed by name."""
    return {ledger.name: ledger for ledger in load_ledger_file(_DATA)}


def reference_counts() -> dict:
    """Shipped reference values that are recorded, never recomputed."""
    data = _read_json(_DATA)
    return {rec["name"]: {"value": rec["value"], "note": rec["note"]} for rec in data["reference_counts"]}


def load_ledger_file(path) -> list:
    """Parse a ledger file: {"version": 1, "ledgers": [...]}.

    Unknown top-level keys are ignored so the builtin data format loads too.
    """
    data = _read_json(path)
    if not isinstance(data, dict) or "ledgers" not in data:
        raise ValueError(f"{path}: expected an object with a 'ledgers' list")
    if not isinstance(data["ledgers"], list):
        raise ValueError(f"{path}: 'ledgers' must be a list")
    return [_parse_ledger(obj, f"{path} ledger {i}") for i, obj in enumerate(data["ledgers"])]
