"""Value semantics shared by every record type of the package: AST nodes,
results and reports, ring handles and contexts."""

import copy
import pickle

import pytest

from curvecount.bookkeeping import (
    ClemensCount,
    DegenerationLedger,
    LedgerComponent,
    LedgerReport,
    NormalBundleSplit,
    clemens_excess,
    ledger_check,
    normal_bundle_classify,
)
from curvecount.chern import ChernVector, GrassRing
from curvecount.dsl import (
    Add,
    BundleAtom,
    BundleContext,
    ChernOf,
    Dual,
    GrassContext,
    IntegrateNode,
    IntLit,
    Mul,
    Neg,
    Pow,
    Quotient,
    Sigma,
    Sum,
    Sym,
    Twist,
    Zeta,
    evaluate,
    parse,
)
from curvecount.recipes import lines_on_complete_intersection
from curvecount.schubert import GrassCtx
from curvecount.suites import CheckResult

S, Q, SDUAL = BundleAtom("S"), BundleAtom("Q"), BundleAtom("Sdual")
TOY_LEDGER = ("toy", 2875, (LedgerComponent("a", 1275), LedgerComponent("b", 800, 2)))

# (builder of a fresh value, its field names, its repr)
RECORDS = [
    (lambda: IntLit(3), ("value",), "IntLit(value=3)"),
    (lambda: Sigma((2, 1)), ("parts",), "Sigma(parts=(2, 1))"),
    (lambda: Zeta(), (), "Zeta()"),
    (lambda: ChernOf(2, Q), ("index", "bundle"), "ChernOf(index=2, bundle=BundleAtom(name='Q'))"),
    (lambda: IntegrateNode(Zeta()), ("expr",), "IntegrateNode(expr=Zeta())"),
    (lambda: Neg(IntLit(2)), ("expr",), "Neg(expr=IntLit(value=2))"),
    (lambda: Add(((1, IntLit(1)), (-1, Zeta()))), ("terms",), "Add(terms=((1, IntLit(value=1)), (-1, Zeta())))"),
    (lambda: Mul((IntLit(1), Zeta())), ("factors",), "Mul(factors=(IntLit(value=1), Zeta()))"),
    (lambda: Pow(Sigma((1,)), 6), ("base", "exponent"), "Pow(base=Sigma(parts=(1,)), exponent=6)"),
    (lambda: SDUAL, ("name",), "BundleAtom(name='Sdual')"),
    (lambda: Sym(5, SDUAL), ("power", "bundle"), "Sym(power=5, bundle=BundleAtom(name='Sdual'))"),
    (lambda: Dual(S), ("bundle",), "Dual(bundle=BundleAtom(name='S'))"),
    (lambda: Twist(Sym(3, SDUAL), -1), ("bundle", "power"),
     "Twist(bundle=Sym(power=3, bundle=BundleAtom(name='Sdual')), power=-1)"),
    (lambda: Quotient(Sym(5, SDUAL), Twist(Sym(3, SDUAL), -1)), ("numerator", "denominator"),
     "Quotient(numerator=Sym(power=5, bundle=BundleAtom(name='Sdual')), "
     "denominator=Twist(bundle=Sym(power=3, bundle=BundleAtom(name='Sdual')), power=-1))"),
    (lambda: Sum((S, Q)), ("summands",), "Sum(summands=(BundleAtom(name='S'), BundleAtom(name='Q')))"),
    (lambda: GrassContext(2, 5), ("k", "n"), "GrassContext(k=2, n=5)"),
    (lambda: BundleContext(Sym(2, SDUAL), 3, 5), ("bundle", "k", "n"),
     "BundleContext(bundle=Sym(power=2, bundle=BundleAtom(name='Sdual')), k=3, n=5)"),
    (lambda: parse("integrate(sigma[1]^6) in G(2,5)"), ("expr", "context"),
     "Query(expr=IntegrateNode(expr=Pow(base=Sigma(parts=(1,)), exponent=6)), context=GrassContext(k=2, n=5))"),
    (lambda: evaluate("integrate(sigma[1]^6) in G(2,5)"), ("kind", "value", "rendered", "context"),
     "EvalResult(kind='integer', value=5, rendered='5', context='G(2,5)')"),
    (lambda: GrassRing(GrassCtx(2, 4)), ("ctx",), "GrassRing(ctx=GrassCtx(k=2, n=4))"),
    (lambda: ChernVector(GrassRing(GrassCtx(2, 4)), 0, ()), ("ring", "rank", "classes"),
     "ChernVector(ring=GrassRing(ctx=GrassCtx(k=2, n=4)), rank=0, classes=())"),
    (lambda: GrassCtx(2, 4), ("k", "n"), "GrassCtx(k=2, n=4)"),
    (lambda: lines_on_complete_intersection(4, [3]),
     ("recipe", "ambient_dim", "degrees", "moduli_dim", "bundle_rank", "count", "family_dimension",
      "calabi_yau", "query"),
     "CountReport(recipe='lines', ambient_dim=4, degrees=(3,), moduli_dim=6, bundle_rank=4, count=None, "
     "family_dimension=2, calabi_yau=False, query=None)"),
    (lambda: clemens_excess(2), ("degree", "parameters", "conditions", "reparametrizations"),
     "ClemensCount(degree=2, parameters=15, conditions=11, reparametrizations=4)"),
    (lambda: normal_bundle_classify(-1), ("a", "b", "h0", "classification"),
     "NormalBundleSplit(a=-1, b=-1, h0=0, classification='rigid')"),
    (lambda: LedgerComponent("hyperplane", 1275), ("label", "equivalence", "count"),
     "LedgerComponent(label='hyperplane', equivalence=1275, count=1)"),
    (lambda: DegenerationLedger(*TOY_LEDGER), ("name", "total", "components"),
     "DegenerationLedger(name='toy', total=2875, components=(LedgerComponent(label='a', equivalence=1275, "
     "count=1), LedgerComponent(label='b', equivalence=800, count=2)))"),
    (lambda: ledger_check(DegenerationLedger(*TOY_LEDGER)), ("name", "total", "computed", "ok"),
     "LedgerReport(name='toy', total=2875, computed=2875, ok=True)"),
    (lambda: CheckResult("lines on the quintic", "2875", "2875", True), ("name", "expected", "actual", "passed"),
     "CheckResult(name='lines on the quintic', expected='2875', actual='2875', passed=True)"),
]


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_record_value_semantics(build, fields, text):
    a, b = build(), build()
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
    # a plain tuple of the same values is not the record
    values = tuple(getattr(a, name) for name in fields)
    assert a != values and values != a and not a == values


@pytest.mark.parametrize("first, second, values", [
    (Add, Mul, ((IntLit(1), Zeta()),)),
    (Mul, Add, (((1, IntLit(1)), (1, Zeta())),)),
    (IntegrateNode, Neg, (Zeta(),)),
    (Dual, Sum, (S,)),
    (ClemensCount, NormalBundleSplit, (1, 2, 3, 4)),
    (LedgerReport, CheckResult, ("x", 1, 1, True)),
])
def test_records_of_different_types_with_equal_fields_differ(first, second, values):
    x, y = first(*values), second(*values)
    assert x != y and not x == y


def test_deeply_nested_nodes_compare_and_hash():
    # nodes are cache keys: == and hash must not need a frame per level
    def chain(depth, inner):
        node = inner
        for i in range(depth):
            node = Dual(node) if i % 2 else Sum((node, Q))
        return node

    a, b = chain(5000, S), chain(5000, S)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != chain(5000, Q) and a != chain(4999, S) and a != chain(5001, S)
    assert Sum((a, S)) != Sum((a,)) and Sum((a, S)) == Sum((b, S))
