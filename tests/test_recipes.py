import json
import os
from fractions import Fraction

import pytest

from curvecount import dsl, recipes
from curvecount.bookkeeping import (
    DegenerationLedger,
    LedgerComponent,
    LedgerReport,
    builtin_ledgers,
    clemens_excess,
    equivalence_unobstructed,
    equivalence_zero_dim,
    ledger_check,
    load_ledger_file,
    multiple_cover_weight,
    normal_bundle_classify,
    reference_counts,
)
from curvecount.recipes import (
    CountReport,
    conics_on_complete_intersection,
    conics_on_quintic_type,
    lines_on_complete_intersection,
)

CLASSICAL_LINE_COUNTS = [
    (4, (5,), 2875),
    (3, (3,), 27),
    (7, (2, 2, 2, 2), 512),
    (6, (2, 2, 3), 720),
    (5, (3, 3), 1053),
    (5, (2, 4), 1280),
]


@pytest.mark.parametrize("ambient,degrees,expected", CLASSICAL_LINE_COUNTS)
def test_classical_line_counts(ambient, degrees, expected):
    report = lines_on_complete_intersection(ambient, degrees)
    assert report.count == expected
    assert report.family_dimension is None


def test_line_report_fields():
    report = lines_on_complete_intersection(4, [5])
    assert report.recipe == "lines"
    assert report.moduli_dim == 6
    assert report.bundle_rank == 6
    assert report.calabi_yau
    assert report.ambient == "degree (5) in P^4"
    assert "count:         2875" in report.describe()


def test_line_families():
    cubic = lines_on_complete_intersection(4, [3])
    assert cubic.count is None
    assert cubic.family_dimension == 2
    assert not cubic.calabi_yau
    quartic = lines_on_complete_intersection(4, [4])
    assert quartic.family_dimension == 1
    sextic = lines_on_complete_intersection(4, [6])
    assert sextic.family_dimension == -1  # overdetermined


def test_degree_order_does_not_matter():
    a = lines_on_complete_intersection(5, (2, 4))
    b = lines_on_complete_intersection(5, (4, 2))
    assert a.count == b.count == 1280


def test_lines_input_validation():
    with pytest.raises(ValueError):
        lines_on_complete_intersection(2, [5])
    with pytest.raises(ValueError):
        lines_on_complete_intersection(4, [])
    with pytest.raises(ValueError):
        lines_on_complete_intersection(4, [0])
    with pytest.raises(ValueError):
        lines_on_complete_intersection("4", [5])
    # nothing rounds: a degree or dimension that is not an int is an error
    for ambient, degrees in ((4, [5.9]), (4, [5.0]), (4, ["5"]), (4, [True, 5]), (4.0, [5]), (True, [5])):
        with pytest.raises(ValueError):
            lines_on_complete_intersection(ambient, degrees)
    # a bare degree is not a list of degrees
    with pytest.raises(ValueError, match="hypersurface degrees must be positive integers, got 5$"):
        lines_on_complete_intersection(4, 5)


def test_conic_count_on_quintic():
    report = conics_on_quintic_type(5)
    assert report.count == 609250
    assert report.moduli_dim == 11
    assert report.bundle_rank == 11
    assert report.calabi_yau


@pytest.mark.parametrize("degree,family_dim", [(1, 8), (2, 6), (3, 4), (4, 2), (6, -2), (9, -8)])
def test_conic_families(degree, family_dim):
    report = conics_on_quintic_type(degree)
    assert report.count is None
    assert report.family_dimension == family_dim


def test_conics_input_validation():
    for bad in (0, 5.0, True, "5"):
        with pytest.raises(ValueError):
            conics_on_quintic_type(bad)
    for ambient, degrees in ((2, [5]), (4, []), (4, [0]), ("4", [5]), (4, ["5"]), (4, [5.9]), (4, [5.0]),
                             (4, [True, 5]), (4.0, [5]), (True, [5]), (4, 5)):
        with pytest.raises(ValueError):
            conics_on_complete_intersection(ambient, degrees)


def test_unbalanced_recipe_builds_no_bundle(monkeypatch):
    def no_bundle(*args):
        raise AssertionError("built a bundle for an unbalanced recipe")

    dsl._resolve_context.cache_clear()  # so a cached ring or bundle cannot hide the work
    dsl._eval_bundle.cache_clear()
    monkeypatch.setattr(dsl, "sym_power", no_bundle)
    report = conics_on_quintic_type(9)
    assert (report.moduli_dim, report.bundle_rank, report.family_dimension) == (11, 19, -8)
    assert lines_on_complete_intersection(4, [6]).family_dimension == -1
    assert conics_on_complete_intersection(4, [1]).family_dimension == 8  # conics in a P^3


# Libgober and Teitelbaum's degree-2 counts on Calabi-Yau complete intersections
CALABI_YAU_CONIC_COUNTS = [
    (4, (5,), 609250),
    (5, (3, 3), 52812),
    (5, (2, 4), 92288),
    (6, (2, 2, 3), 22428),
    (7, (2, 2, 2, 2), 9728),
]


@pytest.mark.parametrize("ambient,degrees,expected", CALABI_YAU_CONIC_COUNTS)
def test_calabi_yau_conic_counts(ambient, degrees, expected):
    report = conics_on_complete_intersection(ambient, degrees)
    assert report.count == expected
    assert report.moduli_dim == report.bundle_rank == 3 * (ambient - 2) + 5
    assert report.calabi_yau


def test_quintic_shorthand_matches_the_general_recipe():
    assert conics_on_quintic_type(5) == conics_on_complete_intersection(4, [5])
    for d in range(1, 10):
        assert conics_on_quintic_type(d) == conics_on_complete_intersection(4, (d,))


HYPERPLANE_CASES = [
    (lines_on_complete_intersection, 5, (1, 5), 2875),
    (lines_on_complete_intersection, 6, (1, 1, 5), 2875),
    (conics_on_complete_intersection, 5, (1, 5), 609250),
    (conics_on_complete_intersection, 6, (1, 1, 5), 609250),
    (conics_on_complete_intersection, 6, (1, 3, 3), 52812),
]


@pytest.mark.parametrize("recipe,ambient,degrees,expected", HYPERPLANE_CASES)
def test_hyperplane_section_leaves_counts_unchanged(recipe, ambient, degrees, expected):
    # a degree-1 equation one dimension up cuts out the same variety
    report = recipe(ambient, degrees)
    assert report.count == expected
    assert report.calabi_yau


@pytest.mark.parametrize(
    "recipe,ambient,degrees,expected",
    [(lines_on_complete_intersection, *case) for case in CLASSICAL_LINE_COUNTS]
    + [(conics_on_complete_intersection, *case) for case in CALABI_YAU_CONIC_COUNTS]
    + HYPERPLANE_CASES,
)
def test_report_query_evaluates_to_the_count(recipe, ambient, degrees, expected):
    # the public evaluator, caps and all, reproduces every golden from its text
    report = recipe(ambient, degrees)
    assert report.count == expected
    assert f"query:         {report.query}" in report.describe()
    assert dsl.evaluate(report.query).value == expected


def test_report_query_text():
    assert lines_on_complete_intersection(4, [5]).query == "integrate(c(6, sym(5, Sdual))) in G(2,5)"
    assert lines_on_complete_intersection(5, [2, 4]).query == (
        "integrate(c(8, sum(sym(2, Sdual), sym(4, Sdual)))) in G(2,6)"
    )
    assert conics_on_complete_intersection(5, [1, 5]).query == (
        "integrate(c(14, sum(sym(1, Sdual), quotient(sym(5, Sdual), twist(sym(3, Sdual), -1)))))"
        " in P(sym(2, Sdual)) over G(3,6)"
    )
    for report in (lines_on_complete_intersection(4, [3]), conics_on_quintic_type(9)):
        assert report.query is None
        assert "query:" not in report.describe()


# every balanced recipe of the classical suite, and (1,5) in P^5 for the d = 1
# forms: the exact query text and count of each report
PINNED_QUERIES = [
    (lines_on_complete_intersection, 4, (5,), "integrate(c(6, sym(5, Sdual))) in G(2,5)", 2875),
    (lines_on_complete_intersection, 3, (3,), "integrate(c(4, sym(3, Sdual))) in G(2,4)", 27),
    (lines_on_complete_intersection, 7, (2, 2, 2, 2),
     "integrate(c(12, sum(sym(2, Sdual), sym(2, Sdual), sym(2, Sdual), sym(2, Sdual)))) in G(2,8)", 512),
    (lines_on_complete_intersection, 6, (2, 2, 3),
     "integrate(c(10, sum(sym(2, Sdual), sym(2, Sdual), sym(3, Sdual)))) in G(2,7)", 720),
    (lines_on_complete_intersection, 5, (3, 3), "integrate(c(8, sum(sym(3, Sdual), sym(3, Sdual)))) in G(2,6)", 1053),
    (lines_on_complete_intersection, 5, (2, 4), "integrate(c(8, sum(sym(2, Sdual), sym(4, Sdual)))) in G(2,6)", 1280),
    (lines_on_complete_intersection, 5, (1, 5), "integrate(c(8, sum(sym(1, Sdual), sym(5, Sdual)))) in G(2,6)", 2875),
    (conics_on_complete_intersection, 5, (3, 3),
     "integrate(c(14, sum(quotient(sym(3, Sdual), twist(sym(1, Sdual), -1)), "
     "quotient(sym(3, Sdual), twist(sym(1, Sdual), -1))))) in P(sym(2, Sdual)) over G(3,6)", 52812),
    (conics_on_complete_intersection, 5, (2, 4),
     "integrate(c(14, sum(quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), "
     "quotient(sym(4, Sdual), twist(sym(2, Sdual), -1))))) in P(sym(2, Sdual)) over G(3,6)", 92288),
    (conics_on_complete_intersection, 6, (2, 2, 3),
     "integrate(c(17, sum(quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), "
     "quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), "
     "quotient(sym(3, Sdual), twist(sym(1, Sdual), -1))))) in P(sym(2, Sdual)) over G(3,7)", 22428),
    (conics_on_complete_intersection, 7, (2, 2, 2, 2),
     "integrate(c(20, sum(quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), "
     "quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), quotient(sym(2, Sdual), twist(sym(0, Sdual), -1)), "
     "quotient(sym(2, Sdual), twist(sym(0, Sdual), -1))))) in P(sym(2, Sdual)) over G(3,8)", 9728),
    (conics_on_complete_intersection, 4, (5,),
     "integrate(c(11, quotient(sym(5, Sdual), twist(sym(3, Sdual), -1)))) in P(sym(2, Sdual)) over G(3,5)", 609250),
    (conics_on_complete_intersection, 5, (1, 5),
     "integrate(c(14, sum(sym(1, Sdual), quotient(sym(5, Sdual), twist(sym(3, Sdual), -1)))))"
     " in P(sym(2, Sdual)) over G(3,6)", 609250),
]


@pytest.mark.parametrize("recipe,ambient,degrees,query,count", PINNED_QUERIES,
                         ids=[f"{recipe.__name__.split('_')[0]}-" + "x".join(map(str, degrees)) + f"-in-P{ambient}"
                              for recipe, ambient, degrees, _, _ in PINNED_QUERIES])
def test_recipe_queries_are_pinned(recipe, ambient, degrees, query, count):
    report = recipe(ambient, degrees)
    assert (report.query, report.count) == (query, count)


def test_recipes_ignore_the_dsl_size_caps(monkeypatch):
    # recipes skip the DSL's caps (theirs is MAX_MODULI_DIM); only the public evaluate stops a query past one
    # G(2,15) has dimension 26, past MAX_DIMENSION
    report = lines_on_complete_intersection(14, (1,) * 10 + (5,))
    assert report.count == 2875
    with pytest.raises(dsl.EvalError, match=r"G\(2,15\) has dimension 26"):
        dsl.evaluate(report.query)
    # sym(13, Sdual) is past MAX_SYM_POWER
    report = lines_on_complete_intersection(9, (1, 13))
    assert report.count == lines_on_complete_intersection(8, (13,)).count == 210776836330775
    with pytest.raises(dsl.EvalError, match="sym power 13 is above the cap"):
        dsl.evaluate(report.query)
    monkeypatch.setattr(dsl, "MAX_DIMENSION", 5)
    report = lines_on_complete_intersection(4, [5])
    assert report.count == 2875
    with pytest.raises(dsl.EvalError, match="above the cap of 5"):
        dsl.evaluate(report.query)


def test_recipes_refuse_a_balanced_count_past_the_cap(monkeypatch):
    evaluated = []
    monkeypatch.setattr(dsl, "_value", lambda query: evaluated.append(query) or -1)
    assert recipes.MAX_MODULI_DIM == 30
    # at the cap: lines in P^16 (G(2,17)) and conics in P^10 reach the evaluation
    assert lines_on_complete_intersection(16, (29,)).count == -1
    assert conics_on_complete_intersection(10, (14,)).count == -1
    assert len(evaluated) == 2
    for recipe, ambient, degrees, dim in ((lines_on_complete_intersection, 17, (31,), 32),
                                          (lines_on_complete_intersection, 40, (77,), 78),
                                          (conics_on_complete_intersection, 11, (7, 8), 32)):
        with pytest.raises(ValueError, match=rf"has dimension {dim}, above the recipes' cap of 30"):
            recipe(ambient, degrees)
    assert len(evaluated) == 2
    # an unbalanced recipe reports its family at any size
    assert lines_on_complete_intersection(40, (5,)).family_dimension == 72
    assert conics_on_complete_intersection(40, (5,)).family_dimension == 108


def test_expected_empty_when_rank_exceeds_dimension():
    for report in (lines_on_complete_intersection(4, [6]), conics_on_quintic_type(6), conics_on_quintic_type(9)):
        assert report.family_dimension < 0
        assert report.expected_empty
    for report in (lines_on_complete_intersection(4, [5]), lines_on_complete_intersection(4, [3]),
                   conics_on_quintic_type(4)):
        assert not report.expected_empty


def test_count_report_consistency_enforced():
    with pytest.raises(ValueError):
        CountReport("lines", 4, (5,), 6, 6, None, None, True)
    with pytest.raises(ValueError):
        CountReport("lines", 4, (3,), 6, 4, 99, None, False)


def test_clemens_dimension_count():
    c1 = clemens_excess(1)
    assert (c1.parameters, c1.conditions, c1.reparametrizations) == (10, 6, 4)
    assert c1.excess == 0
    c2 = clemens_excess(2)
    assert (c2.parameters, c2.conditions, c2.reparametrizations) == (15, 11, 4)
    assert c2.excess == 0


def test_clemens_excess_vanishes_for_all_degrees():
    assert all(clemens_excess(d).excess == 0 for d in range(1, 1001))
    for bad in (0, 1.0, 2.5, "1", True):
        with pytest.raises(ValueError):
            clemens_excess(bad)


def test_normal_bundle_classification():
    rigid = normal_bundle_classify(-1)
    assert (rigid.a, rigid.b, rigid.h0, rigid.classification) == (-1, -1, 0, "rigid")
    for a in range(-10, 11):
        split = normal_bundle_classify(a)
        assert split.a + split.b == -2
        assert (split.classification == "rigid") == (split.a == split.b == -1)
        assert split.h0 == max(a + 1, 0) + max(-1 - a, 0)
    for bad in ("0", -1.0, 0.5, True, False):
        with pytest.raises(ValueError):
            normal_bundle_classify(bad)


def test_equivalence_zero_dim_point():
    # a reduced point: no positive-degree classes anywhere
    assert equivalence_zero_dim([1], [1], lambda v: v) == 1


def test_equivalence_zero_dim_products():
    # one-dimensional piece: top degree mixes the two degree-1 entries
    got = equivalence_zero_dim([1, 3], [1, -2], lambda v: v)
    assert got == 3 - 2
    with pytest.raises(ValueError):
        equivalence_zero_dim([], [], lambda v: v)


def test_equivalence_unobstructed():
    assert equivalence_unobstructed(0) == 1
    assert equivalence_unobstructed(0, [5]) == 1
    assert equivalence_unobstructed(1, [0, 20]) == 20
    assert equivalence_unobstructed(2, {2: -4}) == -4
    with pytest.raises(ValueError):
        equivalence_unobstructed(1)
    with pytest.raises(ValueError):
        equivalence_unobstructed(2, [0, 20])
    with pytest.raises(ValueError):
        equivalence_unobstructed(-1)
    # nothing rounds: a non-int dimension or integral is an error
    for family_dim, integrals in ((1, [0, 20.7]), (1, {1: "20"}), (1, [0, 20.0]), (1, [0, True]),
                                  (1.0, [0, 20]), (True, [0, 20]), (0.0, None)):
        with pytest.raises(ValueError):
            equivalence_unobstructed(family_dim, integrals)
    # integrals that cannot be indexed are refused by name, not with a TypeError
    for integrals in (5, 2.5):
        with pytest.raises(ValueError, match="chern_integrals must be a sequence or mapping"):
            equivalence_unobstructed(1, integrals)


def test_multiple_cover_weights_are_inverse_cubes():
    for m in range(1, 11):
        assert multiple_cover_weight(m) == Fraction(1, m**3)
    # the weights stay exact rationals, no floats anywhere
    assert 8 * multiple_cover_weight(2) == 1
    assert isinstance(multiple_cover_weight(7), Fraction)
    for bad in (0, True, 2.0, 1.5, "2"):
        with pytest.raises(ValueError):
            multiple_cover_weight(bad)


def test_builtin_ledgers_all_balance():
    ledgers = builtin_ledgers()
    assert len(ledgers) == 5
    for name, ledger in ledgers.items():
        report = ledger_check(ledger)
        assert report.ok, f"{name} residual {report.residual}"
        assert report.residual == 0


def test_ledger_totals():
    ledgers = builtin_ledgers()
    assert ledgers["quintic-lines-hyperplane-quartic"].total == 2875
    assert ledgers["quintic-conics-quadric-cubic"].total == 609250
    fermat = ledgers["fermat-quintic-lines"]
    assert fermat.total == 2875
    assert sorted((c.equivalence, c.count) for c in fermat.components) == [(5, 375), (20, 50)]


def test_corrupted_ledger_is_rejected():
    ledger = DegenerationLedger(
        "corrupted-conic-split",
        609250,
        (
            LedgerComponent("conics in the hyperplane component", 187250),
            LedgerComponent("conics in the quartic component", 258200),
            LedgerComponent("incident line pairs", 163200),
        ),
    )
    report = ledger_check(ledger)
    assert not report.ok
    assert report.residual == 600


def test_ledger_records_check_their_fields():
    # built directly, a record refuses what a ledger file would
    with pytest.raises(ValueError, match="must have a count of at least 1, got -1"):
        ledger_check(DegenerationLedger("x", -2875, (LedgerComponent("lines", 2875, -1),)))
    for args, word in ((("a", 1.5, True), "integer equivalence and count"),
                       (("a", 5, True), "integer equivalence and count"),
                       (("a", True), "integer equivalence and count"),
                       (("a", 5, 2.0), "integer equivalence and count"),
                       (("a", 5, 0), "at least 1, got 0"),
                       ((3, 5), "label must be a string")):
        with pytest.raises(ValueError, match=word):
            LedgerComponent(*args)
    comp = LedgerComponent("a", 5)
    for args in (("x", True, (comp,)), ("x", 5.0, (comp,)), (5, 5, (comp,)), ("x", 5, [comp]),
                 ("x", 5, (comp, ("b", 1, 1))), ("x", 5, comp)):
        with pytest.raises(ValueError, match="a ledger needs a string name, an integer total and a tuple"):
            DegenerationLedger(*args)
    assert DegenerationLedger("x", 5, ()).computed == 0
    # a report is ok exactly when its residual is zero
    for args in (("x", 5, 3, True), ("x", 5, 5, False), ("x", 5, 5, 1)):
        with pytest.raises(ValueError, match="ok exactly when computed == total"):
            LedgerReport(*args)
    assert LedgerReport("x", 5, 3, False).residual == 2


def test_component_contribution_scales_with_count():
    comp = LedgerComponent("cones", 20, 50)
    assert comp.contribution == 1000


def test_ledger_file_round_trip(tmp_path):
    payload = {
        "version": 1,
        "ledgers": [
            {
                "name": "toy",
                "total": 10,
                "components": [
                    {"label": "a", "equivalence": 4},
                    {"label": "b", "equivalence": 3, "count": 2},
                ],
            }
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    ledgers = load_ledger_file(path)
    assert len(ledgers) == 1
    report = ledger_check(ledgers[0])
    assert report.ok
    assert report.computed == 10


def test_ledger_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ValueError):
        load_ledger_file(bad)
    bad.write_text(json.dumps({"ledgers": [{"name": "x", "total": 1}]}))
    with pytest.raises(ValueError, match="components"):
        load_ledger_file(bad)
    bad.write_text(json.dumps({"ledgers": [{"name": "x", "total": 1, "components": [{"label": "y"}]}]}))
    with pytest.raises(ValueError, match="equivalence"):
        load_ledger_file(bad)
    bad.write_text(json.dumps({"nothing": []}))
    with pytest.raises(ValueError, match="ledgers"):
        load_ledger_file(bad)
    # JSON true is a bool, not the integer 1; a label is not coerced to a string;
    # a count below 1 is refused, as a negative count and total would balance
    for total, component, word in ((True, {"label": "y", "equivalence": 1}, "integer"),
                                   (1, {"label": "y", "equivalence": True}, "integer"),
                                   (1, {"label": "y", "equivalence": 1, "count": True}, "integer"),
                                   (1, {"label": {"a": 1}, "equivalence": 5}, "label"),
                                   (0, {"label": "y", "equivalence": 5, "count": 0},
                                    "ledger 0: component 0 must have a count of at least 1, got 0"),
                                   (-5, {"label": "y", "equivalence": 5, "count": -1},
                                    "ledger 0: component 0 must have a count of at least 1, got -1")):
        bad.write_text(json.dumps({"ledgers": [{"name": "x", "total": total, "components": [component]}]}))
        with pytest.raises(ValueError, match=word):
            load_ledger_file(bad)


def test_ledger_file_path_must_be_a_path():
    # open() takes an int as a file descriptor, reads from it and closes it
    read_end, write_end = os.pipe()
    os.write(write_end, b'{"ledgers": []}')
    os.close(write_end)
    try:
        for path in (read_end, True):
            with pytest.raises(ValueError, match="path"):
                load_ledger_file(path)
        os.fstat(read_end)
    finally:
        os.close(read_end)


def test_reference_counts_are_recorded_not_computed():
    refs = reference_counts()
    assert refs["quintic-twisted-cubics"]["value"] == 317206375
    assert "never recomputes" in refs["quintic-twisted-cubics"]["note"]
    assert refs["quintic-elliptic-plane-cubics"]["value"] == 609250
