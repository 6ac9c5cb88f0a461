"""A small query language for intersection-theory expressions.

Grammar (LL(1), whitespace insensitive):

    query    := expr "in" context
    context  := grass | "P" "(" bundle ")" "over" grass
    grass    := "G" "(" INT "," INT ")"
    expr     := term { ("+" | "-") term }
    term     := factor { "*" factor }
    factor   := "-" factor | power
    power    := atom [ "^" INT ]
    atom     := INT
              | "sigma" "[" [ INT { "," INT } ] "]"
              | "zeta"
              | "integrate" "(" expr ")"
              | "c" "(" INT "," bundle ")"
              | "(" expr ")"
    bundle   := "S" | "Sdual" | "Q"
              | "sym" "(" INT "," bundle ")"
              | "dual" "(" bundle ")"
              | "twist" "(" bundle "," ["-"] INT ")"
              | "quotient" "(" bundle "," bundle ")"
              | "sum" "(" bundle { "," bundle } ")"

sigma[...] names a Schubert class of the base Grassmannian, zeta the
hyperplane class of a projective-bundle context, twist(B, p) tensors B
by the p-th power of O_P(1), and sum(B, ...) is the Whitney sum.  In a
projective-bundle context a bundle without a twist is computed on the base
and pulled back once.  Parsing and evaluation never mutate anything;
errors carry positions and the expected-token set.

Size caps.  Legal queries can ask for more than a process can compute, so
evaluate() rejects a query past one of these caps with an EvalError before
any computation starts:

    MAX_DIMENSION  the context's dimension: k(n-k) for G(k,n), plus
                   rank(E) - 1 for P(E) over it
    MAX_SYM_POWER  m in sym(m, B)
    MAX_RANK       the rank of every bundle the query names
    MAX_EXPONENT   the exponent of a power times the exponents of the
                   powers around it, so nesting cannot square the cap
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .chern import ChernVector, GrassRing, direct_sum, dual_bundle, sym_power, tensor_line, whitney_quotient
from .projbundle import PBElement, ProjBundleRing
from .schubert import GrassCtx, SchubertCycle


class DSLError(Exception):
    """Common base so callers can treat parse and evaluation errors alike."""


class ParseError(DSLError):
    def __init__(self, message, line, column, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def diagnostic(self) -> str:
        msg = f"syntax error at line {self.line}, column {self.column}: {self.args[0]}"
        if self.expected:
            msg += " (expected " + " or ".join(self.expected) + ")"
        return msg


class EvalError(DSLError):
    def diagnostic(self) -> str:
        return f"evaluation error: {self.args[0]}"


MAX_DIMENSION = 25
MAX_SYM_POWER = 12
MAX_RANK = 500
MAX_EXPONENT = 64


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Sigma:
    parts: tuple


@dataclass(frozen=True)
class Zeta:
    pass


@dataclass(frozen=True)
class ChernOf:
    index: int
    bundle: object


@dataclass(frozen=True)
class IntegrateNode:
    expr: object


@dataclass(frozen=True)
class Neg:
    expr: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class BundleAtom:
    name: str  # "S" | "Sdual" | "Q"


@dataclass(frozen=True)
class Sym:
    power: int
    bundle: object


@dataclass(frozen=True)
class Dual:
    bundle: object


@dataclass(frozen=True)
class Twist:
    bundle: object
    power: int


@dataclass(frozen=True)
class Quotient:
    numerator: object
    denominator: object


@dataclass(frozen=True)
class Sum:
    summands: tuple


@dataclass(frozen=True)
class GrassContext:
    k: int
    n: int


@dataclass(frozen=True)
class BundleContext:
    bundle: object
    k: int
    n: int


@dataclass(frozen=True)
class Query:
    expr: object
    context: object


# ------------------------------------------------------------------- lexer

@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "punct" | "eof"
    text: str
    offset: int


_PUNCT = set("[](),+-*^")


def _lex(src: str) -> list:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(_Token("int", src[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
        elif ch in _PUNCT:
            tokens.append(_Token("punct", ch, i))
            i += 1
        else:
            line, col = _line_col(src, i)
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", len(src)))
    return tokens


def _line_col(src: str, offset: int):
    line = src.count("\n", 0, offset) + 1
    last = src.rfind("\n", 0, offset)
    return line, offset - (last + 1) + 1


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _lex(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> ParseError:
        tok = self.peek()
        line, col = _line_col(self.src, tok.offset)
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(f"unexpected {got}", line, col, expected)

    def eat_punct(self, ch: str) -> None:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            self.advance()
            return
        raise self.fail((f"'{ch}'",))

    def eat_name(self, word: str) -> None:
        tok = self.peek()
        if tok.kind == "name" and tok.text == word:
            self.advance()
            return
        raise self.fail((f"'{word}'",))

    def eat_int(self) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        raise self.fail(("an integer",))

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def at_name(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    # grammar productions

    def query(self) -> Query:
        expr = self.expr()
        self.eat_name("in")
        ctx = self.context()
        if self.peek().kind != "eof":
            raise self.fail(("end of input",))
        return Query(expr, ctx)

    def context(self):
        if self.at_name("G"):
            k, n = self.grass()
            return GrassContext(k, n)
        if self.at_name("P"):
            self.advance()
            self.eat_punct("(")
            bundle = self.bundle()
            self.eat_punct(")")
            self.eat_name("over")
            k, n = self.grass()
            return BundleContext(bundle, k, n)
        raise self.fail(("'G'", "'P'"))

    def grass(self):
        self.eat_name("G")
        self.eat_punct("(")
        k = self.eat_int()
        self.eat_punct(",")
        n = self.eat_int()
        self.eat_punct(")")
        return k, n

    def expr(self):
        node = self.term()
        while True:
            if self.at_punct("+"):
                self.advance()
                node = Add(node, self.term())
            elif self.at_punct("-"):
                self.advance()
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while self.at_punct("*"):
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.at_punct("-"):
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.at_punct("^"):
            self.advance()
            return Pow(node, self.eat_int())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return IntLit(self.eat_int())
        if self.at_punct("("):
            self.advance()
            node = self.expr()
            self.eat_punct(")")
            return node
        if self.at_name("sigma"):
            self.advance()
            self.eat_punct("[")
            parts = []
            if not self.at_punct("]"):
                parts.append(self.eat_int())
                while True:
                    if self.at_punct(","):
                        self.advance()
                        parts.append(self.eat_int())
                    elif self.at_punct("]"):
                        break
                    else:
                        raise self.fail(("','", "']'"))
            self.eat_punct("]")
            return Sigma(tuple(parts))
        if self.at_name("zeta"):
            self.advance()
            return Zeta()
        if self.at_name("integrate"):
            self.advance()
            self.eat_punct("(")
            inner = self.expr()
            self.eat_punct(")")
            return IntegrateNode(inner)
        if self.at_name("c"):
            self.advance()
            self.eat_punct("(")
            index = self.eat_int()
            self.eat_punct(",")
            bundle = self.bundle()
            self.eat_punct(")")
            return ChernOf(index, bundle)
        raise self.fail(("an integer", "'sigma'", "'zeta'", "'integrate'", "'c'", "'('"))

    def bundle(self):
        for name in ("S", "Sdual", "Q"):
            if self.at_name(name):
                self.advance()
                return BundleAtom(name)
        if self.at_name("sym"):
            self.advance()
            self.eat_punct("(")
            m = self.eat_int()
            self.eat_punct(",")
            inner = self.bundle()
            self.eat_punct(")")
            return Sym(m, inner)
        if self.at_name("dual"):
            self.advance()
            self.eat_punct("(")
            inner = self.bundle()
            self.eat_punct(")")
            return Dual(inner)
        if self.at_name("twist"):
            self.advance()
            self.eat_punct("(")
            inner = self.bundle()
            self.eat_punct(",")
            negative = False
            if self.at_punct("-"):
                self.advance()
                negative = True
            p = self.eat_int()
            self.eat_punct(")")
            return Twist(inner, -p if negative else p)
        if self.at_name("quotient"):
            self.advance()
            self.eat_punct("(")
            num = self.bundle()
            self.eat_punct(",")
            den = self.bundle()
            self.eat_punct(")")
            return Quotient(num, den)
        if self.at_name("sum"):
            self.advance()
            self.eat_punct("(")
            summands = [self.bundle()]
            while self.at_punct(","):
                self.advance()
                summands.append(self.bundle())
            self.eat_punct(")")
            return Sum(tuple(summands))
        raise self.fail(("'S'", "'Sdual'", "'Q'", "'sym'", "'dual'", "'twist'", "'quotient'", "'sum'"))


def parse(text: str) -> Query:
    """Parse a full query (expression plus context clause)."""
    return _Parser(text).query()


# ---------------------------------------------------------------- renderer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4


def _prec(node) -> int:
    if isinstance(node, (Add, Sub, Neg)):
        return _LEVEL_ADD
    if isinstance(node, Mul):
        return _LEVEL_MUL
    if isinstance(node, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _render(node, parent_level: int) -> str:
    level = _prec(node)
    if isinstance(node, IntLit):
        text = str(node.value)
    elif isinstance(node, Sigma):
        text = "sigma[" + ",".join(str(p) for p in node.parts) + "]"
    elif isinstance(node, Zeta):
        text = "zeta"
    elif isinstance(node, ChernOf):
        text = f"c({node.index}, {render_bundle(node.bundle)})"
    elif isinstance(node, IntegrateNode):
        text = f"integrate({_render(node.expr, _LEVEL_ADD)})"
    elif isinstance(node, Neg):
        # unary minus binds tighter than "*", so anything looser than a
        # power must be parenthesized to survive a re-parse
        text = "-" + _render(node.expr, _LEVEL_POW)
    elif isinstance(node, Add):
        text = f"{_render(node.left, _LEVEL_ADD)} + {_render(node.right, _LEVEL_MUL)}"
    elif isinstance(node, Sub):
        text = f"{_render(node.left, _LEVEL_ADD)} - {_render(node.right, _LEVEL_MUL)}"
    elif isinstance(node, Mul):
        text = f"{_render(node.left, _LEVEL_MUL)}*{_render(node.right, _LEVEL_POW)}"
    elif isinstance(node, Pow):
        text = f"{_render(node.base, _LEVEL_ATOM)}^{node.exponent}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if level < parent_level:
        return f"({text})"
    return text


def render_bundle(node) -> str:
    if isinstance(node, BundleAtom):
        return node.name
    if isinstance(node, Sym):
        return f"sym({node.power}, {render_bundle(node.bundle)})"
    if isinstance(node, Dual):
        return f"dual({render_bundle(node.bundle)})"
    if isinstance(node, Twist):
        return f"twist({render_bundle(node.bundle)}, {node.power})"
    if isinstance(node, Quotient):
        return f"quotient({render_bundle(node.numerator)}, {render_bundle(node.denominator)})"
    if isinstance(node, Sum):
        return "sum(" + ", ".join(render_bundle(b) for b in node.summands) + ")"
    raise TypeError(f"not a bundle node: {node!r}")


def render_context(node) -> str:
    if isinstance(node, GrassContext):
        return f"G({node.k},{node.n})"
    if isinstance(node, BundleContext):
        return f"P({render_bundle(node.bundle)}) over G({node.k},{node.n})"
    raise TypeError(f"not a context node: {node!r}")


def render(node) -> str:
    """Canonical text for an AST; parse(render(parse(s))) == parse(s)."""
    if isinstance(node, Query):
        return f"{_render(node.expr, _LEVEL_ADD)} in {render_context(node.context)}"
    return _render(node, _LEVEL_ADD)


# --------------------------------------------------------------- evaluator

@dataclass(frozen=True)
class EvalResult:
    kind: str  # "integer" | "cycle"
    value: object
    rendered: str
    context: str


def _resolve_context(node):
    try:
        ctx = GrassCtx(node.k, node.n)
    except ValueError as exc:
        raise EvalError(str(exc)) from None
    base = GrassRing(ctx)
    if isinstance(node, GrassContext):
        return base
    bundle = _eval_bundle(node.bundle, base)
    try:
        return ProjBundleRing(bundle)
    except ValueError as exc:
        raise EvalError(str(exc)) from None


def _has_twist(node) -> bool:
    if isinstance(node, Twist):
        return True
    if isinstance(node, Quotient):
        return _has_twist(node.numerator) or _has_twist(node.denominator)
    if isinstance(node, Sum):
        return any(_has_twist(b) for b in node.summands)
    return isinstance(node, (Sym, Dual)) and _has_twist(node.bundle)


def _eval_bundle(node, ring) -> ChernVector:
    if isinstance(ring, ProjBundleRing) and not _has_twist(node):
        # pulled back from the base: compute there, with base products
        return ring.pullback(_eval_bundle(node, ring.base))
    if isinstance(node, BundleAtom):
        which = {"S": "sub", "Sdual": "sub_dual", "Q": "quotient"}[node.name]
        return ring.tautological(which)
    if isinstance(node, Sym):
        return sym_power(_eval_bundle(node.bundle, ring), node.power)
    if isinstance(node, Dual):
        return dual_bundle(_eval_bundle(node.bundle, ring))
    if isinstance(node, Twist):
        if not isinstance(ring, ProjBundleRing):
            raise EvalError("twist needs a projective-bundle context to supply zeta")
        return tensor_line(_eval_bundle(node.bundle, ring), node.power * ring.zeta(1))
    if isinstance(node, Quotient):
        num = _eval_bundle(node.numerator, ring)
        den = _eval_bundle(node.denominator, ring)
        try:
            return whitney_quotient(num, den)
        except ValueError as exc:
            raise EvalError(str(exc)) from None
    if isinstance(node, Sum):
        return direct_sum(*(_eval_bundle(b, ring) for b in node.summands))
    raise TypeError(f"not a bundle node: {node!r}")


def _eval_expr(node, ring):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, Sigma):
        base = ring.base if isinstance(ring, ProjBundleRing) else ring
        try:
            cycle = base.schubert(node.parts)
        except ValueError as exc:
            raise EvalError(str(exc)) from None
        return ring.from_base(cycle) if isinstance(ring, ProjBundleRing) else cycle
    if isinstance(node, Zeta):
        if not isinstance(ring, ProjBundleRing):
            raise EvalError("zeta only exists in a projective-bundle context")
        return ring.zeta(1)
    if isinstance(node, ChernOf):
        bundle = _eval_bundle(node.bundle, ring)
        if not 0 <= node.index <= bundle.rank:
            raise EvalError(f"Chern index {node.index} out of range for rank {bundle.rank}")
        return bundle.c(node.index)
    if isinstance(node, IntegrateNode):
        inner = _eval_expr(node.expr, ring)
        if isinstance(inner, int):
            inner = inner * ring.one()
        return ring.integrate(inner)
    if isinstance(node, Neg):
        return -_eval_expr(node.expr, ring)
    if isinstance(node, Add):
        return _eval_expr(node.left, ring) + _eval_expr(node.right, ring)
    if isinstance(node, Sub):
        return _eval_expr(node.left, ring) - _eval_expr(node.right, ring)
    if isinstance(node, Mul):
        return _eval_expr(node.left, ring) * _eval_expr(node.right, ring)
    if isinstance(node, Pow):
        return _eval_expr(node.base, ring) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _bundle_rank(node, k: int, n: int) -> int:
    """Rank of a bundle node on G(k, n), checked against the caps."""
    if isinstance(node, BundleAtom):
        rank = n - k if node.name == "Q" else k
    elif isinstance(node, Sym):
        if node.power < 0:
            raise EvalError("symmetric powers must be nonnegative")
        if node.power > MAX_SYM_POWER:
            raise EvalError(f"sym power {node.power} is above the cap of {MAX_SYM_POWER}")
        r = _bundle_rank(node.bundle, k, n)
        rank = comb(node.power + r - 1, r - 1) if r > 0 else int(node.power == 0)
    elif isinstance(node, (Dual, Twist)):
        rank = _bundle_rank(node.bundle, k, n)
    elif isinstance(node, Quotient):
        rank = _bundle_rank(node.numerator, k, n) - _bundle_rank(node.denominator, k, n)
    elif isinstance(node, Sum):
        rank = sum(_bundle_rank(b, k, n) for b in node.summands)
    else:
        raise TypeError(f"not a bundle node: {node!r}")
    if rank > MAX_RANK:
        raise EvalError(f"{render_bundle(node)} has rank {rank}, above the cap of {MAX_RANK}")
    return rank


def _check_expr_size(node, k: int, n: int, outer: int) -> None:
    # runs on every query, so it dispatches on exact node types, commonest first
    kind = type(node)
    if kind is Mul or kind is Add or kind is Sub:
        _check_expr_size(node.left, k, n, outer)
        _check_expr_size(node.right, k, n, outer)
    elif kind is Pow:
        outer *= max(node.exponent, 1)
        if outer > MAX_EXPONENT:
            raise EvalError(f"exponent {outer}, counting enclosing powers, is above the cap of {MAX_EXPONENT}")
        _check_expr_size(node.base, k, n, outer)
    elif kind is ChernOf:
        _bundle_rank(node.bundle, k, n)
    elif kind is Neg or kind is IntegrateNode:
        _check_expr_size(node.expr, k, n, outer)


def _check_size(query: Query) -> None:
    """Raise EvalError if the query is past one of the size caps."""
    ctx = query.context
    if not 0 < ctx.k < ctx.n:
        return  # not a Grassmannian; _resolve_context reports it
    dim = ctx.k * (ctx.n - ctx.k)
    if dim > MAX_DIMENSION:
        raise EvalError(f"G({ctx.k},{ctx.n}) has dimension {dim}, above the cap of {MAX_DIMENSION}")
    if isinstance(ctx, BundleContext):
        dim += max(_bundle_rank(ctx.bundle, ctx.k, ctx.n) - 1, 0)
        if dim > MAX_DIMENSION:
            raise EvalError(f"{render_context(ctx)} has dimension {dim}, above the cap of {MAX_DIMENSION}")
    _check_expr_size(query.expr, ctx.k, ctx.n, 1)


def evaluate(query) -> EvalResult:
    """Evaluate a query string or parsed Query against its own context.

    A query past one of the size caps (see the module docstring) raises
    EvalError before any computation starts.
    """
    if isinstance(query, str):
        query = parse(query)
    _check_size(query)
    ring = _resolve_context(query.context)
    value = _eval_expr(query.expr, ring)
    context = render_context(query.context)
    if isinstance(value, int):
        return EvalResult("integer", value, str(value), context)
    if isinstance(value, (SchubertCycle, PBElement)):
        return EvalResult("cycle", value, str(value), context)
    raise EvalError(f"expression produced an unexpected value {value!r}")
