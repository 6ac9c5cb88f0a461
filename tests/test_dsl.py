import hashlib
import math
import random
import re
import sys
import types
from pathlib import Path

import pytest

from curvecount import chern, dsl, schubert
from curvecount.dsl import (
    Add,
    BundleAtom,
    BundleContext,
    ChernOf,
    Dual,
    EvalError,
    GrassContext,
    IntegrateNode,
    IntLit,
    Mul,
    Neg,
    ParseError,
    Pow,
    Query,
    Quotient,
    Sigma,
    Sum,
    Sym,
    Twist,
    Zeta,
    evaluate,
    parse,
    render,
)
from curvecount.schubert import GrassCtx, schubert_class


def test_parse_power_over_class():
    q = parse("sigma[1]^6 in G(2,5)")
    assert q == Query(Pow(Sigma((1,)), 6), GrassContext(2, 5))


def test_parse_integrate_of_chern():
    q = parse("integrate(c(6, sym(5, Sdual))) in G(2,5)")
    assert q.expr == IntegrateNode(ChernOf(6, Sym(5, BundleAtom("Sdual"))))


def test_parse_bundle_context():
    q = parse("zeta in P(sym(2, Sdual)) over G(3,5)")
    assert q.context == BundleContext(Sym(2, BundleAtom("Sdual")), 3, 5)
    assert q.expr == Zeta()


def test_parse_precedence():
    q = parse("sigma[1] + sigma[2]*sigma[1]^2 in G(2,5)")
    assert q.expr == Add(((1, Sigma((1,))), (1, Mul((Sigma((2,)), Pow(Sigma((1,)), 2))))))
    q = parse("-sigma[1]^2 in G(2,5)")
    assert q.expr == Neg(Pow(Sigma((1,)), 2))
    q = parse("(sigma[1] - sigma[2])^2 in G(2,5)")
    assert q.expr == Pow(Add(((1, Sigma((1,))), (-1, Sigma((2,))))), 2)


def test_parse_sum_is_left_associative():
    q = parse("1 - 2 - 3 in G(1,2)")
    assert q.expr == Add(((1, IntLit(1)), (-1, IntLit(2)), (-1, IntLit(3))))
    assert evaluate(q).value == -4
    # a parenthesized chain is spliced into a chain of its kind that it leads, and only there
    assert parse("(1 - 2) - 3 in G(1,2)") == q
    assert parse("1 - (2 - 3) in G(1,2)").expr == Add(((1, IntLit(1)), (-1, Add(((1, IntLit(2)), (-1, IntLit(3)))))))
    assert parse("(2*3)*4 in G(1,2)").expr == Mul((IntLit(2), IntLit(3), IntLit(4)))
    assert parse("(2*3) + 4 in G(1,2)").expr == Add(((1, Mul((IntLit(2), IntLit(3)))), (1, IntLit(4))))


def test_parse_twist_with_negative_power():
    q = parse("c(1, twist(S, -2)) in P(Q) over G(2,4)")
    assert q.expr == ChernOf(1, Twist(BundleAtom("S"), -2))


def test_parse_sum_of_bundles():
    q = parse("c(2, sum(S, twist(Q, 1), sym(2, Sdual))) in P(Q) over G(2,4)")
    assert q.expr == ChernOf(2, Sum((BundleAtom("S"), Twist(BundleAtom("Q"), 1), Sym(2, BundleAtom("Sdual")))))
    assert parse("c(1, sum(S)) in G(2,4)").expr == ChernOf(1, Sum((BundleAtom("S"),)))
    for bad in ("c(1, sum()) in G(2,4)", "c(1, sum(S,)) in G(2,4)", "c(1, sum(S Q)) in G(2,4)"):
        with pytest.raises(ParseError):
            parse(bad)


def test_evaluate_sum_is_the_whitney_sum():
    # S + Q is the trivial rank-n bundle, and two cubic equations cut 1053 lines
    assert evaluate("c(2, sum(S, Q)) in G(2,5)").rendered == "0"
    assert evaluate("c(1, sum(S)) in G(2,5)").rendered == evaluate("c(1, S) in G(2,5)").rendered
    assert evaluate("integrate(c(8, sum(sym(3, Sdual), sym(3, Sdual)))) in G(2,6)").value == 1053
    # c(S(1)) c(Q) = 1 + ... gives c_2 = zeta^2 + c_1(Q) zeta = -c_2(Q) by the relation
    assert evaluate("c(2, sum(twist(S, 1), Q)) in P(Q) over G(2,4)").rendered == "-sigma[2]"


def test_syntax_error_at_eof():
    with pytest.raises(ParseError) as err:
        parse("sigma[1")
    assert err.value.line == 1
    assert err.value.column == 8
    assert "']'" in err.value.expected or "','" in err.value.expected


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse("sigma[1] ** 2 in G(2,4)")
    assert (err.value.line, err.value.column) == (1, 11)
    with pytest.raises(ParseError) as err:
        parse("sigma[1] in\nG(2,,4)")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("sigma[1] in G(2,4) trailing")
    with pytest.raises(ParseError):
        parse("sigma[1]")  # missing context clause
    with pytest.raises(ParseError):
        parse("sigma[1] in G(2,4) in G(2,5)")


@pytest.mark.parametrize(
    "text, diagnostic, line, column, expected",
    [
        (
            "sigma[1] @ sigma[2] in G(2,4)",
            "syntax error at line 1, column 10: unexpected character '@'",
            1, 10, (),
        ),
        (
            "sigma[1] in\n  G(2,4) $",
            "syntax error at line 2, column 10: unexpected character '$'",
            2, 10, (),
        ),
        (
            "c 1, S) in G(2,4)",
            "syntax error at line 1, column 3: unexpected '1' (expected '(')",
            1, 3, ("'('",),
        ),
        (
            "sigma[1] G(2,4)",
            "syntax error at line 1, column 10: unexpected 'G' (expected 'in')",
            1, 10, ("'in'",),
        ),
        (
            "zeta in P(S) G(2,4)",
            "syntax error at line 1, column 14: unexpected 'G' (expected 'over')",
            1, 14, ("'over'",),
        ),
        (
            "zeta in P(S) over H(2,4)",
            "syntax error at line 1, column 19: unexpected 'H' (expected 'G')",
            1, 19, ("'G'",),
        ),
        (
            "sigma[1]^x in G(2,4)",
            "syntax error at line 1, column 10: unexpected 'x' (expected an integer)",
            1, 10, ("an integer",),
        ),
        (
            "sigma[1] + in G(2,4)",
            "syntax error at line 1, column 12: unexpected 'in' "
            "(expected an integer or 'sigma' or 'zeta' or 'integrate' or 'c' or '(')",
            1, 12, ("an integer", "'sigma'", "'zeta'", "'integrate'", "'c'", "'('"),
        ),
        (
            "c(1, T) in G(2,4)",
            "syntax error at line 1, column 6: unexpected 'T' "
            "(expected 'S' or 'Sdual' or 'Q' or 'sym' or 'dual' or 'twist' or 'quotient' or 'sum')",
            1, 6, ("'S'", "'Sdual'", "'Q'", "'sym'", "'dual'", "'twist'", "'quotient'", "'sum'"),
        ),
        (
            "sigma[1] in H(2,4)",
            "syntax error at line 1, column 13: unexpected 'H' (expected 'G' or 'P')",
            1, 13, ("'G'", "'P'"),
        ),
        (
            "sigma[1] in G(2,4) trailing",
            "syntax error at line 1, column 20: unexpected 'trailing' (expected end of input)",
            1, 20, ("end of input",),
        ),
        (
            "sigma[1 2] in G(2,4)",
            "syntax error at line 1, column 9: unexpected '2' (expected ',' or ']')",
            1, 9, ("','", "']'"),
        ),
        (
            "sigma in G(2,4)",
            "syntax error at line 1, column 7: unexpected 'in' (expected '[')",
            1, 7, ("'['",),
        ),
        (
            "sigma[ in G(2,4)",
            "syntax error at line 1, column 8: unexpected 'in' (expected an integer)",
            1, 8, ("an integer",),
        ),
        (
            "sigma[1,] in G(2,4)",
            "syntax error at line 1, column 9: unexpected ']' (expected an integer)",
            1, 9, ("an integer",),
        ),
        (
            "sigma[x] in G(2,4)",
            "syntax error at line 1, column 7: unexpected 'x' (expected an integer)",
            1, 7, ("an integer",),
        ),
        (
            "sigma[1",
            "syntax error at line 1, column 8: unexpected end of input (expected ',' or ']')",
            1, 8, ("','", "']'"),
        ),
        (
            # past the interpreter's limit on integer string conversion
            "sigma[2," + "1" * 5000 + "] in G(2,4)",
            "syntax error at line 1, column 9: integer literal too long",
            1, 9, (),
        ),
        (
            "sigma[1] in\nG(2,4",
            "syntax error at line 2, column 6: unexpected end of input (expected ')')",
            2, 6, ("')'",),
        ),
        (
            # non-ASCII whitespace separates tokens and counts one column
            "sigma[1]\u3000G(2,4)",
            "syntax error at line 1, column 10: unexpected 'G' (expected 'in')",
            1, 10, ("'in'",),
        ),
        (
            "sigma[1]\u3000in\u2003G(2,4) $",
            "syntax error at line 1, column 20: unexpected character '$'",
            1, 20, (),
        ),
    ],
)
def test_parse_error_diagnostics(text, diagnostic, line, column, expected):
    # one case per place the parser can fail; the values are pinned
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.diagnostic() == diagnostic
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


def test_unknown_characters_rejected():
    with pytest.raises(ParseError):
        parse("sigma[1] @ sigma[2] in G(2,4)")
    # integers are ASCII digits: an Arabic-Indic four is not an exponent
    with pytest.raises(ParseError) as err:
        parse("integrate(sigma[1]^٤) in G(2,4)")
    assert err.value.args[0] == "unexpected character '٤'"
    assert (err.value.line, err.value.column) == (1, 20)


def test_render_canonical_spacing():
    assert render(parse("sigma[ 1, 1 ] * sigma[2]  in  G( 2 , 5 )")) == "sigma[1,1]*sigma[2] in G(2,5)"
    assert (
        render(parse("integrate(c(11, quotient(sym(5,Sdual), twist(sym(3,Sdual), -1)))) in P(sym(2,Sdual)) over G(3,5)"))
        == "integrate(c(11, quotient(sym(5, Sdual), twist(sym(3, Sdual), -1)))) in P(sym(2, Sdual)) over G(3,5)"
    )
    for text, canonical in [
        ("sigma[1] - sigma[2]", "sigma[1] - sigma[2]"),
        ("sigma[1] + -sigma[2]", "sigma[1] + (-sigma[2])"),
        ("-sigma[1]^2", "-sigma[1]^2"),
        ("(sigma[1] + sigma[2]) + sigma[1]", "sigma[1] + sigma[2] + sigma[1]"),
        ("(sigma[1]*sigma[1])*sigma[2]", "sigma[1]*sigma[1]*sigma[2]"),
        ("sigma[1]*(sigma[1]*sigma[2])", "sigma[1]*(sigma[1]*sigma[2])"),
        ("sigma[1] - (sigma[1] - sigma[2])", "sigma[1] - (sigma[1] - sigma[2])"),
    ]:
        assert render(parse(text + " in G(2,5)")) == canonical + " in G(2,5)"


# each node kind in each parent position: top level, first and later term of
# a sum, first and later factor of a product, base of a power, under unary
# minus, inside integrate
_PARENTS = [
    lambda x: x,
    lambda x: Add(((1, x), (1, Zeta()))),
    lambda x: Add(((1, Zeta()), (-1, x))),
    lambda x: Mul((x, Zeta())),
    lambda x: Mul((Zeta(), x)),
    lambda x: Pow(x, 3),
    Neg,
    IntegrateNode,
]


@pytest.mark.parametrize(
    "node, pinned",
    [
        (IntLit(2), "2 | 2 + zeta | zeta - 2 | 2*zeta | zeta*2 | 2^3 | -2 | integrate(2)"),
        (Sigma((2, 1)), "sigma[2,1] | sigma[2,1] + zeta | zeta - sigma[2,1] | sigma[2,1]*zeta | zeta*sigma[2,1] | "
                        "sigma[2,1]^3 | -sigma[2,1] | integrate(sigma[2,1])"),
        (Zeta(), "zeta | zeta + zeta | zeta - zeta | zeta*zeta | zeta*zeta | zeta^3 | -zeta | integrate(zeta)"),
        (ChernOf(1, BundleAtom("S")), "c(1, S) | c(1, S) + zeta | zeta - c(1, S) | c(1, S)*zeta | zeta*c(1, S) | "
                                      "c(1, S)^3 | -c(1, S) | integrate(c(1, S))"),
        (IntegrateNode(Zeta()), "integrate(zeta) | integrate(zeta) + zeta | zeta - integrate(zeta) | "
                                "integrate(zeta)*zeta | zeta*integrate(zeta) | integrate(zeta)^3 | "
                                "-integrate(zeta) | integrate(integrate(zeta))"),
        (Neg(Sigma((1,))), "-sigma[1] | -sigma[1] + zeta | zeta - (-sigma[1]) | (-sigma[1])*zeta | "
                           "zeta*(-sigma[1]) | (-sigma[1])^3 | -(-sigma[1]) | integrate(-sigma[1])"),
        (Add(((1, Sigma((1,))), (-1, IntLit(2)))),
         "sigma[1] - 2 | sigma[1] - 2 + zeta | zeta - (sigma[1] - 2) | (sigma[1] - 2)*zeta | "
         "zeta*(sigma[1] - 2) | (sigma[1] - 2)^3 | -(sigma[1] - 2) | integrate(sigma[1] - 2)"),
        (Mul((IntLit(2), Sigma((1,)))), "2*sigma[1] | 2*sigma[1] + zeta | zeta - 2*sigma[1] | 2*sigma[1]*zeta | "
                                        "zeta*(2*sigma[1]) | (2*sigma[1])^3 | -(2*sigma[1]) | integrate(2*sigma[1])"),
        (Pow(Sigma((1,)), 2), "sigma[1]^2 | sigma[1]^2 + zeta | zeta - sigma[1]^2 | sigma[1]^2*zeta | "
                              "zeta*sigma[1]^2 | (sigma[1]^2)^3 | -sigma[1]^2 | integrate(sigma[1]^2)"),
    ],
)
def test_render_pins_every_node_kind_in_every_parent_position(node, pinned):
    texts = [render(parent(node)) for parent in _PARENTS]
    assert " | ".join(texts) == pinned
    for text in texts:  # each rendering is canonical: it renders back unchanged
        assert render(parse(text + " in G(2,4)")) == text + " in G(2,4)"


def _random_bundle(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return BundleAtom(rng.choice(["S", "Sdual", "Q"]))
    kind = rng.choice(["sym", "dual", "twist", "quotient", "sum"])
    if kind == "sum":
        return Sum(tuple(_random_bundle(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == "sym":
        return Sym(rng.randint(0, 5), _random_bundle(rng, depth - 1))
    if kind == "dual":
        return Dual(_random_bundle(rng, depth - 1))
    if kind == "twist":
        return Twist(_random_bundle(rng, depth - 1), rng.randint(-3, 3))
    return Quotient(_random_bundle(rng, depth - 1), _random_bundle(rng, depth - 1))


def _random_expr(rng, depth):
    if depth <= 0:
        return rng.choice([IntLit(rng.randint(0, 9)), Sigma(tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))), Zeta()])
    kind = rng.choice(["add", "mul", "pow", "neg", "integrate", "chern", "leaf"])
    if kind in ("add", "mul"):
        # a canonical chain: 2 to 4 operands, never led by a chain of its own kind
        chain = Add if kind == "add" else Mul
        first = _random_expr(rng, depth - 1)
        while type(first) is chain:
            first = _random_expr(rng, depth - 1)
        rest = [_random_expr(rng, depth - 1) for _ in range(rng.randint(1, 3))]
        if chain is Mul:
            return Mul((first, *rest))
        return Add(((1, first), *((rng.choice([1, -1]), term) for term in rest)))
    if kind == "pow":
        return Pow(_random_expr(rng, depth - 1), rng.randint(0, 4))
    if kind == "neg":
        return Neg(_random_expr(rng, depth - 1))
    if kind == "integrate":
        return IntegrateNode(_random_expr(rng, depth - 1))
    if kind == "chern":
        return ChernOf(rng.randint(0, 6), _random_bundle(rng, 2))
    return _random_expr(rng, 0)


def test_parse_render_round_trip_on_random_asts():
    rng = random.Random(2026)
    for _ in range(300):
        if rng.random() < 0.5:
            ctx = GrassContext(rng.randint(1, 3), rng.randint(4, 6))
        else:
            ctx = BundleContext(_random_bundle(rng, 2), rng.randint(1, 3), rng.randint(4, 6))
        ast = Query(_random_expr(rng, 3), ctx)
        text = render(ast)
        again = parse(text)
        assert again == ast, text
        assert render(again) == text


# each bundle word wrapped around an inner bundle, in every argument slot
_WRAPS = {
    "sym": ["sym(2, {})", "sym( 0 ,{} )"],
    "dual": ["dual({})"],
    "twist": ["twist({}, -1)", "twist({},3)"],
    "quotient": ["quotient({}, S)", "quotient(Q, {})"],
    "sum": ["sum({})", "sum({}, Sdual)", "sum(S, {}, Q)"],
}


def _bundle_syntax_corpus():
    bundles = ["S", "Sdual", "Q"]
    for outer, outer_wraps in _WRAPS.items():
        for inner, inner_wraps in _WRAPS.items():
            for wrap in outer_wraps:
                text = inner_wraps[-1].format("Q")
                for _ in range(3):  # the inner word three levels down
                    text = wrap.format(text)
                bundles.append(text)
    bundles += [f"twist(S, {p})" for p in ("-2", "-0", "0", "3", "- 2", "007")]
    bundles += ["sum(S)", "sum(S, Q)", "sum(S, Q, Sdual)", "sum(sum(S), sum(Q, Q))"]
    texts = []
    for b in bundles:
        texts += [f"c(1, {b}) in G(2,4)", f"integrate(zeta) in P({b}) over G(2,4)"]
    bad = [
        "sym(2 S)", "twist(S 1)", "quotient(S Q)", "sum(S Q)", "sym(2, S, Q)", "dual(S, Q)",
        "sym(, S)", "twist(S, )", "twist(S, -)", "sym(-2, S)", "twist(S, --1)",
        "foo(S)", "S(1)", "Sym(2, S)", "sigma[1]", "sum()", "quotient(S)", "dual()", "sym(2)", "(S)", "",
    ]
    texts += [f"c(1, {b}) in G(2,4)" for b in bad] + [f"1 in P({b}) over G(2,4)" for b in bad]
    # end of input at every point inside each word
    for full in ("c(1, sym(2, S)) in G(2,4)", "c(1, dual(Q)) in G(2,4)", "c(1, twist(S, -1)) in G(2,4)",
                 "c(1, quotient(S, Q)) in G(2,4)", "c(1, sum(S, Q, Sdual)) in G(2,4)"):
        texts += [full[:end] for end in range(len("c(1, "), full.index(" in"))]
    return texts


def test_bundle_syntax_is_pinned():
    # the rendering of every parse, or its syntax error, of bundle words in
    # every slot of every other word, twist powers, sums of 1 to 3 summands,
    # bundles in c(i, ...) and in P(...), and each way a bundle can be cut short
    texts = _bundle_syntax_corpus()
    digest = hashlib.sha256()
    for text in texts:
        try:
            out = render(parse(text))
        except ParseError as err:
            out = err.diagnostic()
        digest.update(f"{text} => {out}\n".encode())
    assert len(texts) == 231
    assert digest.hexdigest() == "7c97e3427eda7b332c135399bb8472840d07702a6dce2069588b48049418f58a"


def test_evaluate_integer_results():
    assert evaluate("integrate(sigma[1]^6) in G(2,5)").value == 5
    assert evaluate("integrate(c(6, sym(5, Sdual))) in G(2,5)").value == 2875
    assert evaluate("2^3 - 10 in G(1,2)").value == -2


def test_evaluate_high_sym_power_truncates():
    # Sym^12 of a rank-4 bundle has rank 455; only degree 1 is needed here
    assert evaluate("c(1, sym(12, Q)) in G(2,6)").rendered == "1365*sigma[1]"


@pytest.mark.parametrize(
    "query,message",
    [
        ("c(1, sym(13, Q)) in G(2,6)", "sym power 13 is above the cap of 12"),
        ("sigma[1] in G(5,11)", "G(5,11) has dimension 30, above the cap of 25"),
        ("zeta in P(sym(4, Sdual)) over G(3,8)", "has dimension 29, above the cap of 25"),
        ("c(1, sym(2, sym(12, Q))) in G(2,6)", "has rank 103740, above the cap of 500"),
        ("c(1, sum(sym(12, Q), sym(12, Q))) in G(2,6)", "sum(sym(12, Q), sym(12, Q)) has rank 910, above the cap of 500"),
        ("c(1, sum(S, sym(13, Q))) in G(2,6)", "sym power 13 is above the cap of 12"),
        ("c(1, dual(sym(12, Q))) in P(sym(2, sym(12, Q))) over G(2,6)", "above the cap of 500"),
        ("sigma[1]^65 in G(2,5)", "exponent 65, counting enclosing powers, is above the cap of 64"),
        ("(1 + (sigma[1]^8)^9) in G(2,5)", "exponent 72, counting enclosing powers, is above the cap of 64"),
    ],
)
def test_size_caps(query, message, monkeypatch):
    # the caps reject before any Chern class or Schubert product is computed
    def no_work(*args):
        raise AssertionError("work started past a size cap")

    _clear_caches()  # a cached ring would hide a cap checked after the cache is read
    monkeypatch.setattr(dsl, "sym_power", no_work)
    monkeypatch.setattr(dsl, "GrassRing", no_work)
    with pytest.raises(EvalError, match=re.escape(message)):
        evaluate(query)


def test_size_caps_admit_the_largest_supported_queries():
    assert evaluate("integrate(sigma[7,7,7]) in G(3,10)").value == 1
    assert evaluate("c(1, sym(5, Sdual)) in G(3,10)").rendered == "35*sigma[1]"
    assert evaluate("integrate(sigma[1]^16) in G(4,8)").value == 24024
    assert evaluate("integrate(zeta^11) in P(sym(2, Sdual)) over G(3,5)").kind == "integer"
    assert evaluate("sigma[1]^64 in G(2,4)").rendered == "0"
    assert evaluate(f"c(1, sym({dsl.MAX_SYM_POWER}, S)) in G(2,{dsl.MAX_DIMENSION // 2 + 2})").kind == "cycle"


def test_untwisted_bundles_are_computed_on_the_base(monkeypatch):
    import curvecount.projbundle as projbundle

    _clear_caches()
    calls = []
    inner = projbundle.pb_multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(projbundle, "pb_multiply", counting)
    assert evaluate("c(2, sym(3, Q)) in P(S) over G(2,6)").rendered == "120*sigma[2] + 99*sigma[1,1]"
    assert calls == []
    # a twist still needs zeta, so the twisted node is computed upstairs
    assert evaluate("c(1, twist(sym(3, Q), 1)) in P(S) over G(2,8)").rendered == "56*zeta + 28*sigma[1]"
    assert calls


def test_evaluate_cycle_results():
    result = evaluate("sigma[1]*sigma[1] in G(2,4)")
    assert result.kind == "cycle"
    assert result.rendered == "sigma[2] + sigma[1,1]"
    assert evaluate("sigma[] in G(2,4)").rendered == "1"


def test_evaluate_in_bundle_context():
    five_lines = (
        "integrate(c(11, quotient(sym(5, Sdual), twist(sym(3, Sdual), -1))))"
        " in P(sym(2, Sdual)) over G(3,5)"
    )
    assert evaluate(five_lines).value == 609250
    assert evaluate("integrate(zeta^5 * sigma[2,2,2]) in P(sym(2, Sdual)) over G(3,5)").value == 1


def test_evaluate_accepts_parsed_queries():
    q = parse("integrate(sigma[2]*sigma[2]) in G(2,4)")
    assert evaluate(q).value == 1


def test_evaluate_is_deterministic():
    expr = "sigma[1]^3 + 2*sigma[2,1] in G(2,5)"
    assert evaluate(expr).rendered == evaluate(expr).rendered == "sigma[3] + 4*sigma[2,1]"


def test_eval_error_box_violation():
    with pytest.raises(EvalError, match="does not fit"):
        evaluate("sigma[4] in G(2,4)")
    with pytest.raises(EvalError, match="box"):
        evaluate("sigma[1,1,1] in G(2,5)")


def test_eval_error_zeta_needs_bundle_context():
    with pytest.raises(EvalError, match="zeta"):
        evaluate("zeta in G(2,4)")
    with pytest.raises(EvalError, match="twist"):
        evaluate("c(1, twist(S, 1)) in G(2,4)")


def test_eval_error_chern_index_out_of_range():
    with pytest.raises(EvalError, match="out of range"):
        evaluate("c(7, sym(5, Sdual)) in G(2,5)")
    with pytest.raises(EvalError):
        evaluate("c(3, S) in G(2,5)")


def test_eval_error_bad_context():
    with pytest.raises(EvalError):
        evaluate("sigma[1] in G(4,2)")
    with pytest.raises(EvalError):
        evaluate("sigma[1] in G(0,3)")


def test_eval_error_bad_quotient():
    with pytest.raises(EvalError):
        evaluate("c(1, quotient(S, Q)) in G(2,4)")
    # c(Sym^2 S*)/c(S*) does not stop at degree 1: no line bundle has it
    with pytest.raises(EvalError, match="not a bundle of rank 1"):
        evaluate("c(1, quotient(sym(2, Sdual), Sdual)) in G(2,5)")


# nine factors of about 1200 digits each: every one within the size caps,
# the product past the interpreter's 4300-digit limit on converting to text
_LONG_PRODUCT = "*".join(["99999999999999999999^60"] * 9)


@pytest.mark.parametrize("query", [f"{_LONG_PRODUCT} in G(1,2)", f"({_LONG_PRODUCT})*sigma[1] in G(1,2)"],
                         ids=["integer", "cycle"])
def test_a_result_past_the_integer_digit_limit_is_an_eval_error(query):
    with pytest.raises(EvalError, match=f"more than {sys.get_int_max_str_digits()} digits") as info:
        evaluate(query)
    assert "set_int_max_str_digits" not in info.value.diagnostic()


def test_zeta_in_expression():
    got = evaluate("zeta*zeta in P(S) over G(2,4)")
    assert got.kind == "cycle"
    # relation: zeta^2 = -(c1 zeta + c2) with c(S) = 1 - sigma_1 + sigma_11
    assert got.rendered == "sigma[1]*zeta - sigma[1,1]"


def test_diagnostics_are_printable():
    try:
        parse("sigma[1")
    except ParseError as err:
        text = err.diagnostic()
        assert "line 1" in text and "column 8" in text
    try:
        evaluate("zeta in G(2,4)")
    except EvalError as err:
        assert err.diagnostic().startswith("evaluation error")


def test_errors_share_a_base_class():
    assert issubclass(ParseError, dsl.DSLError)
    assert issubclass(EvalError, dsl.DSLError)


# ------------------------------------------------------------------ caches

def _clear_caches():
    dsl._resolve_context.cache_clear()
    dsl._eval_bundle.cache_clear()
    dsl._eval_atom.cache_clear()
    dsl._node.cache_clear()


def _counting(calls, fn):
    def count(*args):
        calls.append(1)
        return fn(*args)

    return count


def test_repeated_bundle_computes_its_symmetric_power_once(monkeypatch):
    _clear_caches()
    calls = []
    monkeypatch.setattr(dsl, "sym_power", _counting(calls, dsl.sym_power))
    results = {evaluate(f"c({i}, sym(3, Q)) in G(2,5)").rendered for i in (1, 1, 2, 3)}
    assert len(results) == 3
    assert len(calls) == 1


def test_one_bundle_context_builds_its_ring_once(monkeypatch):
    _clear_caches()
    calls = []

    class CountingRing(dsl.ProjBundleRing):
        def __new__(cls, bundle):
            calls.append(1)
            return super().__new__(cls, bundle)

    monkeypatch.setattr(dsl, "ProjBundleRing", CountingRing)
    queries = [f"integrate(zeta^{j} * sigma[{i}]) in P(sym(2, Sdual)) over G(2,5)" for j in range(4) for i in range(4)]
    values = [evaluate(q).value for q in queries]
    _clear_caches()  # later tests must not meet the counting subclass's ring
    assert len(values) == 16
    assert len(calls) == 1


def test_evaluation_errors_are_not_cached(monkeypatch):
    _clear_caches()
    calls = []
    monkeypatch.setattr(dsl, "whitney_quotient", _counting(calls, dsl.whitney_quotient))
    messages = []
    for _ in range(2):
        with pytest.raises(EvalError) as err:
            evaluate("c(1, quotient(sym(2, Sdual), Sdual)) in G(2,5)")
        messages.append(err.value.diagnostic())
    assert messages[0] == messages[1]
    assert "not a bundle of rank 1" in messages[0]
    assert len(calls) == 2


def _cache_queries():
    rng = random.Random(17)
    contexts = ["G(2,4)", "G(2,5)", "G(3,6)", "P(S) over G(2,4)", "P(Q) over G(2,5)", "P(sym(2, Sdual)) over G(2,4)"]
    bundles = ["S", "Sdual", "Q", "sym(2, Q)", "sym(3, Sdual)", "dual(sym(2, S))", "twist(S, 1)", "twist(sym(2, Q), -1)",
               "quotient(sym(2, Sdual), Sdual)", "quotient(sym(3, Sdual), twist(Sdual, -1))", "sum(S, Q)",
               "sum(sym(2, Sdual), twist(Q, 2))"]
    queries = []
    for _ in range(120):
        ctx = rng.choice(contexts)
        pe = ctx.startswith("P")
        bundle = rng.choice(bundles)
        atom = rng.choice(["zeta", "sigma[1]", "sigma[1,1]"] if pe else ["sigma[1]", "sigma[2]", "sigma[1,1]"])
        expr = rng.choice([f"c({rng.randint(0, 3)}, {bundle})", f"integrate(c({rng.randint(0, 4)}, {bundle}) * {atom}^6)",
                           f"c(1, {bundle}) * {atom} - {atom}^2"])
        queries.append(f"{expr} in {ctx}")
    return queries


def _outcome(query):
    try:
        return evaluate(query)
    except EvalError as err:
        return err.diagnostic()


def test_warm_and_cold_evaluation_agree():
    queries = _cache_queries()
    cold = []
    for q in queries:
        _clear_caches()
        cold.append(_outcome(q))
    warm = [_outcome(q) for q in queries]
    assert warm == cold
    assert any(isinstance(r, str) for r in cold) and any(not isinstance(r, str) for r in cold)
    assert dsl._eval_bundle.cache_info().hits > 0


@pytest.mark.parametrize("context", ["G(2,4)", "P(S) over G(2,4)"])
def test_deep_bundles_evaluate_alike_cold_and_warm(context):
    # the caches hold whole bundles and compare keys without recursion, so
    # a cached bundle nests as deep as an uncached one
    deep = "c(1, " + "dual(" * 800 + "S" + ")" * 800 + f") in {context}"
    _clear_caches()
    cold = evaluate(deep)
    assert evaluate(deep) == cold
    assert cold == evaluate(f"c(1, S) in {context}")


def _cold():
    _clear_caches()
    schubert._PRODUCTS.clear()
    chern._sym_chern_polys.cache_clear()


@pytest.mark.parametrize("d", range(6))
def test_a_flat_sum_at_the_rank_cap_evaluates_cold(d):
    # c(S) = 1 - sigma[1] on G(1,6), so c_d of 500 copies is (-1)^d C(500, d) sigma[d]
    _cold()
    got = evaluate(f"c({d}, sum({', '.join(['S'] * dsl.MAX_RANK)})) in G(1,6)")
    assert got.value == (-1) ** d * math.comb(dsl.MAX_RANK, d) * schubert_class(GrassCtx(1, 6), (d,) if d else ())
    with pytest.raises(EvalError, match="above the cap"):
        evaluate(f"c({d}, sum({', '.join(['S'] * (dsl.MAX_RANK + 1))})) in G(1,6)")


def test_nested_sums_evaluate_as_the_flat_sum():
    # a summand that is a sum is read through its summands, with no recursion per level
    nested = "c(5, " + "sum(" * 300 + "S" + ", S)" * 300 + ") in G(1,6)"
    _cold()
    assert evaluate(nested) == evaluate(f"c(5, sum({', '.join(['S'] * 301)})) in G(1,6)")


def _flat_sum(depth):
    return f"c(5, sum({', '.join(['S'] * (depth + 1))})) in G(1,6)"


# chain families: a query nested depth levels, and an equal shallow query
_CHAINS = {
    "sums": (lambda d: "c(5, " + "sum(" * d + "S" + ", S)" * d + ") in G(1,6)", _flat_sum),
    "sums-of-sym": (lambda d: "c(5, " + "sum(sym(1, " * d + "S" + "), S)" * d + ") in G(1,6)", _flat_sum),
    "duals": (lambda d: "c(1, " + "dual(" * d + "S" + ")" * d + ") in G(2,4)", None),
    "duals-in-P(S)": (lambda d: "c(1, " + "dual(" * d + "S" + ")" * d + ") in P(S) over G(2,4)", None),
    "duals-of-twist": (lambda d: "c(1, " + "dual(" * d + "twist(S, 1)" + ")" * d + ") in P(S) over G(2,4)", None),
    "duals-of-sym": (lambda d: "c(9, " + "dual(" * d + "sym(3, S)" + ")" * d + ") in G(3,6)", None),
    "minuses": (lambda d: "-" * d + "sigma[1] in G(2,4)", None),
}


def _deepest_parse(chain):
    lo, hi = 1, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse(chain(mid))
            lo = mid
        except ParseError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("family", list(_CHAINS))
def test_chains_evaluate_cold_and_warm_near_the_parsers_limit(family):
    # the size checks and the evaluator spend one frame per level, so only
    # the arithmetic under the deepest level separates their edge from the
    # parser's, 11 levels at most (under dual(...sym(3, S)...)); nested sums
    # meet the rank cap first
    chain, shallow = _CHAINS[family]
    limit = _deepest_parse(chain)
    depth = dsl.MAX_RANK - 1 if family == "sums" else limit - 12
    assert 100 < depth <= limit - 12
    # a dual or a unary minus applied twice is the identity
    expected = evaluate(shallow(depth) if shallow else chain(depth % 2))
    _cold()
    assert evaluate(chain(depth)) == expected
    assert evaluate(chain(depth)) == expected


@pytest.mark.parametrize("depth", [dsl.MAX_RANK, "the parser's limit"])
def test_a_nested_sum_over_the_rank_cap_names_the_cap(depth):
    # the rank check and the rendering in its message spend one frame per level
    chain = _CHAINS["sums"][0]
    if not isinstance(depth, int):
        depth = _deepest_parse(chain)
    with pytest.raises(EvalError, match=f"has rank {dsl.MAX_RANK + 1}, above the cap of {dsl.MAX_RANK}$"):
        evaluate(chain(depth))


@pytest.mark.parametrize(
    "query, rendered",
    [
        ("c(3, sym(2, sum(twist(S, 1), Q)))",
         "-240*sigma[1]*zeta^2 - 184*sigma[2]*zeta - 584*sigma[1,1]*zeta - 384*sigma[2,1]"),
        ("c(3, dual(sum(Q, twist(S, -1))))", "-sigma[1]*zeta^2 + sigma[2]*zeta - sigma[1,1]*zeta"),
        ("c(2, quotient(sum(S, twist(Q, 1)), S))", "zeta^2 + sigma[1]*zeta + sigma[2]"),
        ("c(3, sum(twist(Sdual, 2), Q))", "4*sigma[1]*zeta^2 + 6*sigma[2]*zeta + 2*sigma[1,1]*zeta + 2*sigma[2,1]"),
    ],
    ids=["sym", "dual", "quotient", "sum"],
)
def test_twisted_and_untwisted_parts_meet_in_a_bundle_context(query, rendered):
    # an untwisted part is computed on the base and pulled back where it
    # meets a twisted one; the renderings are pinned
    _clear_caches()
    for _ in range(2):  # cold, then from the cache
        assert evaluate(f"{query} in P(sym(2, Sdual)) over G(2,4)").rendered == rendered


def test_evaluation_reaches_the_chern_layer_through_module_globals(monkeypatch):
    # perfbench's tracer counts the Chern layer by rebinding these names in dsl
    calls = {name: [] for name in ("sym_power", "tensor_line", "whitney_quotient", "direct_sum", "dual_bundle")}
    for name, seen in calls.items():
        monkeypatch.setattr(dsl, name, _counting(seen, getattr(dsl, name)))
    _clear_caches()
    evaluate("c(5, sum(sym(2, Sdual), twist(dual(Q), 1), quotient(sum(S, Q), S))) in P(S) over G(2,4)")
    assert all(calls.values()), calls


def test_bundles_cached_on_an_evicted_ring_stay_correct():
    # the bundle cache can outlive the context cache's ring: its classes then
    # live on an equal ring, not the same object
    query = "integrate(c(2, twist(sym(2, Sdual), 1)) * zeta^2 * sigma[1]) in P(sym(2, Sdual)) over G(2,4)"
    _clear_caches()
    first = evaluate(query)
    dsl._resolve_context.cache_clear()
    again = evaluate(query)
    assert first == again


def _raised(query):
    try:
        return evaluate(query)
    except Exception as err:  # a hand-built node can fail outside the DSL's errors
        return type(err), str(err)


@pytest.mark.parametrize(
    "query, twin",
    [
        (Query(Sigma((1,)), GrassContext(True, 4)), Query(Sigma((1,)), GrassContext(1, 4))),
        (Query(ChernOf(1, Sym(True, BundleAtom("Q"))), GrassContext(2, 5)),
         Query(ChernOf(1, Sym(1, BundleAtom("Q"))), GrassContext(2, 5))),
        (Query(ChernOf(1, Sym(2.0, BundleAtom("Q"))), GrassContext(2, 5)),
         Query(ChernOf(1, Sym(2, BundleAtom("Q"))), GrassContext(2, 5))),
        (Query(ChernOf(1, Twist(BundleAtom("S"), True)), BundleContext(BundleAtom("S"), 2, 4)),
         Query(ChernOf(1, Twist(BundleAtom("S"), 1)), BundleContext(BundleAtom("S"), 2, 4))),
        (Query(Sigma((True,)), GrassContext(2, 4)), Query(Sigma((1,)), GrassContext(2, 4))),
    ],
    ids=["bool-context", "bool-sym-power", "float-sym-power", "bool-twist-power", "bool-sigma-part"],
)
def test_hand_built_non_integers_never_find_their_twins_entry(query, twin):
    # True == 1 and 2.0 == 2 hash alike, but nodes holding them differ; the
    # twin's entries are made from parsed text, whose keys are interned, and
    # from the hand-built twin, whose keys are not
    assert query != twin and hash(query) == hash(twin)
    _clear_caches()
    cold = _raised(query)
    _clear_caches()
    evaluate(render(twin))
    evaluate(twin)
    assert _raised(query) == cold
    assert cold != evaluate(twin)


@pytest.mark.parametrize(
    "expr, context, message",
    [
        (ChernOf(True, BundleAtom("S")), GrassContext(2, 4), "Chern index must be an integer, got True"),
        (ChernOf(1.0, BundleAtom("S")), GrassContext(2, 4), "Chern index must be an integer, got 1.0"),
        (Pow(Sigma((1,)), True), GrassContext(2, 4), "exponent must be an integer, got True"),
        (Pow(Sigma((1,)), -1), GrassContext(2, 4), "exponents must be nonnegative"),
        (ChernOf(1, Sym(True, BundleAtom("S"))), GrassContext(2, 4), "sym power must be an integer, got True"),
        (ChernOf(1, Twist(BundleAtom("S"), True)), BundleContext(BundleAtom("S"), 2, 4),
         "twist power must be an integer, got True"),
        (Zeta(), BundleContext(Twist(BundleAtom("S"), 1.0), 2, 4), "twist power must be an integer, got 1.0"),
        (IntLit(True), GrassContext(2, 4), "integer literal must be an integer, got True"),
        (IntLit(2.0), GrassContext(2, 4), "integer literal must be an integer, got 2.0"),
        (Sigma([1]), GrassContext(2, 4), "sigma parts must be a tuple, got [1]"),
        (ChernOf(1, Sum([BundleAtom("S"), BundleAtom("S")])), GrassContext(2, 4),
         "sum summands must be a nonempty tuple, got [BundleAtom(name='S'), BundleAtom(name='S')]"),
        (ChernOf(1, Sum(())), GrassContext(2, 4), "sum summands must be a nonempty tuple, got ()"),
        (Zeta(), BundleContext(Sum(()), 2, 4), "sum summands must be a nonempty tuple, got ()"),
        (ChernOf(1, BundleAtom("T")), GrassContext(2, 4), "unknown bundle 'T'"),
        (Zeta(), BundleContext(BundleAtom("T"), 2, 4), "unknown bundle 'T'"),
        (ChernOf(1, BundleAtom(["S"])), GrassContext(2, 4), "unknown bundle ['S']"),
        (Add(((-1, IntLit(2)), (1, IntLit(3)))), GrassContext(2, 4), "the first term of a sum must have sign 1, got -1"),
        (Add(((1, IntLit(2)), (0, IntLit(3)))), GrassContext(2, 4), "sum signs must be 1 or -1, got 0"),
        (Add(((1, IntLit(2)), (5, IntLit(3)))), GrassContext(2, 4), "sum signs must be 1 or -1, got 5"),
        (Add(((True, IntLit(2)), (1, IntLit(3)))), GrassContext(2, 4), "sum signs must be 1 or -1, got True"),
        (Add(((1, IntLit(2)), (-1.0, IntLit(3)))), GrassContext(2, 4), "sum signs must be 1 or -1, got -1.0"),
        (Add(()), GrassContext(2, 4), "sum terms must be a nonempty tuple, got ()"),
        (Add(((1, IntLit(2)), IntLit(3))), GrassContext(2, 4), "sum terms must be (sign, term) pairs, got IntLit(value=3)"),
        (Add(((1, IntLit(2)), (1, IntLit(3), IntLit(4)))), GrassContext(2, 4),
         "sum terms must be (sign, term) pairs, got (1, IntLit(value=3), IntLit(value=4))"),
        (Add([(1, IntLit(2)), (1, IntLit(3))]), GrassContext(2, 4),
         "sum terms must be a nonempty tuple, got [(1, IntLit(value=2)), (1, IntLit(value=3))]"),
        (Mul(()), GrassContext(2, 4), "product factors must be a nonempty tuple, got ()"),
        (Mul([IntLit(2), IntLit(3)]), GrassContext(2, 4),
         "product factors must be a nonempty tuple, got [IntLit(value=2), IntLit(value=3)]"),
        (BundleAtom("S"), GrassContext(2, 4), "not an expression node: BundleAtom(name='S')"),
        (GrassContext(2, 4), GrassContext(2, 4), "not an expression node: GrassContext(k=2, n=4)"),
        (Neg(BundleAtom("S")), GrassContext(2, 4), "not an expression node: BundleAtom(name='S')"),
        (Pow(GrassContext(2, 4), 2), GrassContext(2, 4), "not an expression node: GrassContext(k=2, n=4)"),
        (IntegrateNode(BundleAtom("S")), GrassContext(2, 4), "not an expression node: BundleAtom(name='S')"),
        ("sigma[1]", GrassContext(2, 4), "not an expression node: 'sigma[1]'"),
        (ChernOf(1, Sigma((1,))), GrassContext(2, 4), "not a bundle node: Sigma(parts=(1,))"),
        (ChernOf(1, Sum((BundleAtom("S"), Sigma((1,))))), GrassContext(2, 4), "not a bundle node: Sigma(parts=(1,))"),
        (Sigma((1,)), Sigma((1,)), "not a context node: Sigma(parts=(1,))"),
        (IntLit(1), BundleContext(BundleAtom("S"), 2, "4"), "context n must be an integer, got '4'"),
        (IntLit(1), GrassContext("2", 4), "context k must be an integer, got '2'"),
        (IntLit(1), GrassContext(2.0, 4), "context k must be an integer, got 2.0"),
    ],
)
def test_hand_built_leaves_that_are_not_ints_are_eval_errors(expr, context, message):
    # the parser makes every number an int, every sum and chain a nonempty
    # tuple, every sign 1 or -1 and the first 1, every bundle name known, and
    # every node of the kind its place takes; a hand-built node is checked with the size caps, before any cache is read
    _clear_caches()
    with pytest.raises(EvalError) as err:
        evaluate(Query(expr, context))
    assert err.value.args[0] == message


@pytest.mark.parametrize("query", [None, 42, b"integrate(sigma[1]) in G(2,4)", (IntLit(1), GrassContext(2, 4))])
def test_evaluate_refuses_what_is_neither_text_nor_a_query(query):
    with pytest.raises(EvalError) as err:
        evaluate(query)
    assert err.value.args[0] == f"not a query: {query!r}"


def _counting_partitions(monkeypatch):
    from curvecount import schubert

    calls = []
    inner = schubert.Partition.__new__

    def counting(cls, parts=()):
        calls.append(parts)
        return inner(cls, parts)

    monkeypatch.setattr(schubert.Partition, "__new__", counting)
    return calls


def test_a_warm_sigma_query_validates_no_partition(monkeypatch):
    _clear_caches()
    query = "sigma[2,1]*sigma[1]^2 - sigma[3] in G(2,6)"
    first = evaluate(query)
    calls = _counting_partitions(monkeypatch)
    assert evaluate(query) == first
    assert calls == []
    assert dsl._eval_atom.cache_info().hits == 3


def test_an_out_of_box_atom_raises_the_same_error_every_time(monkeypatch):
    _clear_caches()
    calls = _counting_partitions(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(EvalError) as err:
            evaluate("sigma[3] in G(2,4)")
        messages.append(err.value.diagnostic())
    assert messages == ["evaluation error: partition (3,) does not fit the box of G(2,4)"] * 2
    assert len(calls) == 2  # errors are not cached: each query validates again
    assert dsl._eval_atom.cache_info().currsize == 0


@pytest.mark.parametrize("bundle", ["S", "Q", "sym(2, Sdual)"])
def test_atoms_in_a_bundle_context_come_back_pulled_back(bundle):
    _clear_caches()
    context = parse(f"zeta in P({bundle}) over G(2,4)").context
    ring = dsl._resolve_context(context)
    sigma = ring.from_base(ring.base.schubert((1,)))
    for _ in range(2):  # cold, then from the cache
        assert evaluate(f"sigma[1] in P({bundle}) over G(2,4)").value == sigma
        # a power is taken on the base and then pulled back
        assert evaluate(f"sigma[1]^3 in P({bundle}) over G(2,4)").value == sigma * sigma * sigma
        assert evaluate(f"sigma[1]^0 in P({bundle}) over G(2,4)").value == ring.one()
    assert evaluate("sigma[1] in G(2,4)").value == ring.base.schubert((1,))


def test_a_power_chain_nested_to_the_parsers_limit_evaluates():
    # every level is a Pow of a Pow; only the innermost, a Pow of a Sigma,
    # goes through the atom cache, which adds no frame per level
    def chain(depth):
        return "(" * depth + "sigma[1]" + ")^1" * depth + " in G(2,4)"

    lo, hi = 1, sys.getrecursionlimit()
    while lo < hi:  # the deepest chain the parser takes
        mid = (lo + hi + 1) // 2
        try:
            parse(chain(mid))
            lo = mid
        except ParseError:
            hi = mid - 1
    assert lo > 100
    expected = evaluate("sigma[1] in G(2,4)")
    _clear_caches()
    assert evaluate(parse(chain(lo))) == expected
    assert evaluate(parse(chain(lo))) == expected


# -------------------------------------------------------------- node table

_KEYED = "integrate(c(2, twist(sym(2, Sdual), 1)) * zeta^2 * sigma[1]^2 - c(1, Q)) in P(sym(2, Sdual)) over G(2,4)"


def test_two_parses_of_one_text_share_their_keys():
    first, second = parse(_KEYED), parse(_KEYED)
    assert first is not second and first == second
    assert first.context is second.context
    assert first.context.bundle is second.context.bundle
    (_, product), (_, chern) = first.expr.expr.terms
    (_, product_again), (_, chern_again) = second.expr.expr.terms
    twisted, zeta_power, sigma_power = product.factors
    assert twisted.bundle is product_again.factors[0].bundle and chern.bundle is chern_again.bundle
    assert sigma_power is product_again.factors[2]  # a power of a sigma atom is a key
    assert zeta_power is not product_again.factors[1] and chern is not chern_again  # these are not
    assert parse("sigma[1] in G(2,4)").context is parse("sigma[2] in G(2,4)").context
    # a hand-built node equals the parsed one but is another object
    assert GrassContext(2, 4) == parse("sigma[1] in G(2,4)").context
    assert GrassContext(2, 4) is not parse("sigma[1] in G(2,4)").context


def test_a_fresh_parse_of_an_evaluated_query_hits_by_identity(monkeypatch):
    _clear_caches()
    first = evaluate(_KEYED)
    before = [cache.cache_info().hits for cache in (dsl._resolve_context, dsl._eval_bundle, dsl._eval_atom)]
    calls = []
    monkeypatch.setattr(dsl._Node, "__eq__", _counting(calls, dsl._Node.__eq__))
    again = evaluate(parse(_KEYED))
    assert calls == []
    monkeypatch.undo()
    after = [cache.cache_info().hits for cache in (dsl._resolve_context, dsl._eval_bundle, dsl._eval_atom)]
    assert all(a > b for a, b in zip(after, before))
    assert again == first


def test_the_node_table_is_bounded_and_eviction_costs_only_speed():
    _clear_caches()
    query = "sigma[1,1]^2 * sigma[2] in G(2,5)"
    first = evaluate(query)
    key = parse(query).expr.factors[0]
    for i in range(dsl._NODE_CACHE_SIZE + 8):
        parse(f"sigma[{i + 3}] in G(2,5)")
    assert dsl._node.cache_info().currsize <= dsl._NODE_CACHE_SIZE
    again = parse(query)
    assert again.expr.factors[0] is not key and again.expr.factors[0] == key
    assert evaluate(again) == first


def _session_workloads():
    # the benchmark's stream builder, read and run without writing anything
    # under perfbench/, such as a bytecode cache
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_session_renderings_are_pinned_cold_and_warm():
    # the 3024 queries of three benchmark session streams, parsed, rendered
    # and evaluated; the hash was fixed before the parser interned any node
    from curvecount.schubert import _PRODUCTS

    texts = [q["text"] for seed in (7, 11, 801) for q in _session_workloads().session_stream(seed)]
    assert len(texts) == 3024
    _clear_caches()
    _PRODUCTS.clear()
    for _ in ("cold", "warm"):
        lines = "".join(f"{render(parse(t))} => {evaluate(t).rendered}\n" for t in texts)
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == "19245c7603e720c5394a3ff3ecea83cf67cc494b66d7c6a8a84f7aee47f33293"
