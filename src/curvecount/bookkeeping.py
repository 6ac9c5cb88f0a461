"""Bookkeeping for families of curves and for degenerations.

These are exact rules that sit beside the counts: the dimension count of
rational curves on the quintic, normal-bundle splitting types on a rational
curve, the equivalence of a family, the 1/m^3 multiple-cover weight, and
degeneration ledgers, whose component equivalences must add up to a
conserved total, read from the shipped data file or from a ledger file.

Nothing here builds a ring.  The module loads on first use: the package
resolves its names when they are first read, and the equivalence and
ledger commands import it when they run, so a process that only counts
never compiles it.
"""

from __future__ import annotations

import json
import os

from .schubert import _is_int, _Record


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
    except TypeError:
        raise ValueError(f"chern_integrals must be a sequence or mapping, got {chern_integrals!r}") from None
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
        # a ledger file's messages are these, after the component's position
        if not isinstance(label, str):
            raise ValueError("label must be a string")
        if not _is_int(equivalence) or not _is_int(count):
            raise ValueError("must use integer equivalence and count")
        if count < 1:  # a negative count and total would balance
            raise ValueError(f"must have a count of at least 1, got {count}")
        return tuple.__new__(cls, (label, equivalence, count))

    @property
    def contribution(self) -> int:
        return self.equivalence * self.count


class DegenerationLedger(_Record):
    """A conserved total and the components it is supposed to split into
    when the variety degenerates."""

    _fields = ("name", "total", "components")

    def __new__(cls, name: str, total: int, components: tuple):
        if (not isinstance(name, str) or not _is_int(total) or not isinstance(components, tuple)
                or not all(isinstance(c, LedgerComponent) for c in components)):
            raise ValueError("a ledger needs a string name, an integer total and a tuple of LedgerComponent")
        return tuple.__new__(cls, (name, total, components))

    @property
    def computed(self) -> int:
        return sum(c.contribution for c in self.components)


class LedgerReport(_Record):
    """Result of checking one ledger; a failure is data, not an error."""

    _fields = ("name", "total", "computed", "ok")

    def __new__(cls, name: str, total: int, computed: int, ok: bool):
        if ok is not (computed == total):
            raise ValueError(f"a ledger report is ok exactly when computed == total, "
                             f"got ok={ok!r} with total {total!r} and computed {computed!r}")
        return tuple.__new__(cls, (name, total, computed, ok))

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
        try:
            comps.append(LedgerComponent(c["label"], c["equivalence"], c.get("count", 1)))
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
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
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() would take an int as a descriptor and close it
        raise ValueError(f"ledger file path must be a str, bytes or os.PathLike, got {path!r}")
    data = _read_json(path)
    if not isinstance(data, dict) or "ledgers" not in data:
        raise ValueError(f"{path}: expected an object with a 'ledgers' list")
    if not isinstance(data["ledgers"], list):
        raise ValueError(f"{path}: 'ledgers' must be a list")
    return [_parse_ledger(obj, f"{path} ledger {i}") for i, obj in enumerate(data["ledgers"])]
