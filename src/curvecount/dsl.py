"""A small query language for intersection-theory expressions.

Grammar (LL(1), whitespace insensitive):

    query    := expr "in" context
    context  := grass | "P" "(" bundle ")" "over" grass
    grass    := "G" "(" INT "," INT ")"
    expr     := term { ("+" | "-") term }
    term     := factor { "*" factor }
    factor   := "-" factor | atom [ "^" INT ]
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

INT is a run of the ASCII digits 0-9 and a name is [A-Za-z_][A-Za-z0-9_]*;
any other non-space character is a syntax error.  The parser and
render_bundle read each bundle word, its node and its arguments from one
table, _WORDS.

sigma[...] names a Schubert class of the base Grassmannian, zeta the
hyperplane class of a projective-bundle context, twist(B, p) tensors B
by the p-th power of O_P(1), and sum(B, ...) is the Whitney sum.  In a
projective-bundle context each part of a bundle without a twist is computed
on the base, and pulled back once, where a twisted part needs it or at the
end.  Errors carry positions and the expected-token set.

Caches.  Four bounded least-recently-used caches live per process;
cache_info() on each gives its hit counts.  Evaluation keeps three, keyed by
AST nodes: _resolve_context holds the ring of each context clause,
_eval_bundle the Chern vector of each whole bundle a query names in each
context, and _eval_atom each sigma[...] atom and each power of one,
validated, in each context.  The fourth, the node table _node, holds the
one node the parser builds for each distinct context, bundle, sigma[...]
atom and power of one, so the keys of two parses of a text are the same
objects and a cache hit compares them by identity; a hand-built key is
equal, not the same, and hits through the == walk.  The size caps run
before any evaluation cache is read, and a query that raises stores
nothing.  Parts of a bundle are not cached: a miss computes each once.
Nodes compare without recursion, so the caches do not lower how deep a
query may nest.  Sharing them is safe: rings, Chern vectors and nodes are
immutable, and functools.lru_cache is thread-safe.

Size caps.  Legal queries can ask for more than a process can compute, so
evaluate() rejects a query past one of these caps with an EvalError before
any computation starts:

    MAX_DIMENSION  the context's dimension: k(n-k) for G(k,n), plus
                   rank(E) - 1 for P(E) over it
    MAX_SYM_POWER  m in sym(m, B)
    MAX_RANK       the rank of every bundle the query names
    MAX_EXPONENT   the exponent of a power times the exponents of the
                   powers around it, so nesting cannot square the cap

The caps do not bound the length of a product, so a long product of large
powers can hold an integer with more digits than the interpreter converts
to text (sys.get_int_max_str_digits()); evaluate() refuses such a result
with an EvalError that names that limit.

Nesting.  The size checks and the evaluator spend one interpreter frame per
level of nesting, as the parser does for a bundle or a unary minus and more
for parentheses.  So a query that parses evaluates, cold or warm, within the
caps and up to a dozen levels short of the parser's limit: the arithmetic
under the deepest level needs frames of its own.  A query nested past the
interpreter's recursion limit is refused as a ParseError or an EvalError
that says it nests too deeply; the length of a sum or product is not
nesting.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import comb

from .chern import ChernVector, GrassRing, direct_sum, dual_bundle, sym_power, tensor_line, whitney_quotient
from .projbundle import PBElement, ProjBundleRing
from .schubert import GrassCtx, SchubertCycle, _Record, schubert_class


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

class _Node(_Record):
    """A record of the syntax tree.  Nodes are cache keys (see Caches), so
    == walks nested nodes and tuples with a list, not with the interpreter's
    stack: a key nested as deep as the parser allows still compares.  Leaves
    of different types differ, as True and 1 do, so a hand-built node never
    finds the entry of its integer twin.  The hash is the tuple hash, which
    the interpreter computes without frames.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return False if isinstance(other, tuple) else NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if x is y:
                    continue
                if isinstance(x, _Node):
                    if type(y) is not type(x):
                        return False
                elif not (type(x) is tuple and type(y) is tuple):
                    if type(y) is not type(x) or x != y:
                        return False
                    continue
                pairs.append((x, y))
        return True

    __hash__ = _Record.__hash__


class IntLit(_Node):
    _fields = ("value",)


class Sigma(_Node):
    _fields = ("parts",)


class Zeta(_Node):
    pass


class ChernOf(_Node):
    _fields = ("index", "bundle")


class IntegrateNode(_Node):
    _fields = ("expr",)


class Neg(_Node):
    _fields = ("expr",)


class Add(_Node):
    _fields = ("terms",)  # (sign, term) pairs: sign 1 or -1, the first 1


class Mul(_Node):
    _fields = ("factors",)  # nodes


class Pow(_Node):
    _fields = ("base", "exponent")


class BundleAtom(_Node):
    _fields = ("name",)  # name: "S" | "Sdual" | "Q"


class Sym(_Node):
    _fields = ("power", "bundle")


class Dual(_Node):
    _fields = ("bundle",)


class Twist(_Node):
    _fields = ("bundle", "power")


class Quotient(_Node):
    _fields = ("numerator", "denominator")


class Sum(_Node):
    _fields = ("summands",)


class GrassContext(_Node):
    _fields = ("k", "n")


class BundleContext(_Node):
    _fields = ("bundle", "k", "n")


class Query(_Node):
    _fields = ("expr", "context")


# the bundle atoms, each with its name on GrassRing.tautological
_ATOMS = {"S": "sub", "Sdual": "sub_dual", "Q": "quotient"}

# the bundle words, each with its node and the kinds of its arguments in the
# order of the node's fields: "int" an INT, "signed" an INT after an optional
# "-", "bundle" a bundle and "bundles" one or more, separated by commas
_WORDS = {
    "sym": (Sym, ("int", "bundle")),
    "dual": (Dual, ("bundle",)),
    "twist": (Twist, ("bundle", "signed")),
    "quotient": (Quotient, ("bundle", "bundle")),
    "sum": (Sum, ("bundles",)),
}
_WORD_OF = {cls: (word, kinds) for word, (cls, kinds) in _WORDS.items()}

# builds a node without _Record's field count check, for callers that fix it
_new = tuple.__new__

# size of the node table (see Caches above)
_NODE_CACHE_SIZE = 1024


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _node(cls, *fields):
    """The one node of cls with these fields, for nodes that key a cache.

    Callers pass interned children and int or str leaves, so the table
    compares keys in C, children by identity, and a cache keyed by the node
    it returns hits by identity too.  An evicted node is built again, equal
    but not the same.
    """
    return tuple.__new__(cls, fields)


# ------------------------------------------------------------------- lexer

# an integer, a name or a punctuation mark; whitespace between tokens is
# never matched, and any other character is refused before lexing
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[\[\](),+\-*^]")
_BAD_CHAR = re.compile(r"[^0-9A-Za-z_\[\](),+\-*^\s]")


def _lex(src: str) -> list:
    """Token texts; the empty text marks the end of input."""
    bad = _BAD_CHAR.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", *_line_col(src, bad.start()))
    texts = _TOKEN.findall(src)
    texts.append("")
    return texts


def _line_col(src: str, offset: int):
    line = src.count("\n", 0, offset) + 1
    last = src.rfind("\n", 0, offset)
    return line, offset - (last + 1) + 1


class _Parser:
    # names, integers and punctuation marks never share a text, so a token
    # is identified by its text alone
    def __init__(self, src: str):
        self.src = src
        self.texts = _lex(src)
        self.pos = 0

    def where(self):
        """Line and column of the current token.  Only errors need them, so
        the offsets come from lexing the text again."""
        offsets = [m.start() for m in _TOKEN.finditer(self.src)]
        offsets.append(len(self.src))
        return _line_col(self.src, offsets[self.pos])

    def fail(self, expected) -> ParseError:
        text = self.texts[self.pos]
        got = repr(text) if text else "end of input"
        return ParseError(f"unexpected {got}", *self.where(), expected)

    def eat(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.fail((f"'{text}'",))
        self.pos += 1

    def eat_int(self) -> int:
        if not self.texts[self.pos].isdigit():
            raise self.fail(("an integer",))
        try:
            value = int(self.texts[self.pos])
        except ValueError:  # past the interpreter's limit on integer string conversion
            raise ParseError("integer literal too long", *self.where()) from None
        self.pos += 1
        return value

    # grammar productions

    def query(self) -> Query:
        expr = self.expr()
        self.eat("in")
        ctx = self.context()
        if self.texts[self.pos]:
            raise self.fail(("end of input",))
        return Query(expr, ctx)

    def context(self):
        if self.texts[self.pos] == "G":
            k, n = self.grass()
            return _node(GrassContext, k, n)
        if self.texts[self.pos] == "P":
            self.pos += 1
            self.eat("(")
            bundle = self.bundle()
            self.eat(")")
            self.eat("over")
            k, n = self.grass()
            return _node(BundleContext, bundle, k, n)
        raise self.fail(("'G'", "'P'"))

    def grass(self):
        self.eat("G")
        self.eat("(")
        k = self.eat_int()
        self.eat(",")
        n = self.eat_int()
        self.eat(")")
        return k, n

    def expr(self):
        # a chain is one node; a parenthesized chain that leads a chain of its
        # own kind is spliced in, so (a + b) + c parses as a + b + c
        first = self.term()
        terms = list(first.terms) if type(first) is Add else [(1, first)]
        while (op := self.texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            terms.append((1 if op == "+" else -1, self.term()))
        return _new(Add, (tuple(terms),)) if len(terms) > 1 else first

    def term(self):
        first = self.factor()
        factors = list(first.factors) if type(first) is Mul else [first]
        while self.texts[self.pos] == "*":
            self.pos += 1
            factors.append(self.factor())
        return _new(Mul, (tuple(factors),)) if len(factors) > 1 else first

    def factor(self):
        # unary minus, or an atom and its power; sigma[...], the commonest
        # atom, is read here, not in atom
        texts, pos = self.texts, self.pos
        if texts[pos] == "-":
            self.pos = pos + 1
            return _new(Neg, (self.factor(),))
        if texts[pos] == "sigma":
            self.pos = pos + 1
            self.eat("[")
            parts = []
            if texts[self.pos] != "]":
                parts.append(self.eat_int())
                while texts[self.pos] == ",":
                    self.pos += 1
                    parts.append(self.eat_int())
                if texts[self.pos] != "]":
                    raise self.fail(("','", "']'"))
            node = _node(Sigma, tuple(parts))
            pos = self.pos + 1
        else:
            node = self.atom()
            pos = self.pos
        if texts[pos] == "^":
            self.pos = pos + 1
            exponent = self.eat_int()
            # a power of a sigma atom keys the atom cache
            return _node(Pow, node, exponent) if type(node) is Sigma else _new(Pow, (node, exponent))
        self.pos = pos
        return node

    def atom(self):
        text = self.texts[self.pos]
        if text.isdigit():
            return _new(IntLit, (self.eat_int(),))
        if text == "(":
            self.pos += 1
            node = self.expr()
            self.eat(")")
            return node
        if text == "zeta":
            self.pos += 1
            return Zeta()
        if text == "integrate":
            self.pos += 1
            self.eat("(")
            inner = self.expr()
            self.eat(")")
            return IntegrateNode(inner)
        if text == "c":
            self.pos += 1
            self.eat("(")
            index = self.eat_int()
            self.eat(",")
            bundle = self.bundle()
            self.eat(")")
            return ChernOf(index, bundle)
        raise self.fail(("an integer", "'sigma'", "'zeta'", "'integrate'", "'c'", "'('"))

    def bundle(self):
        # the arguments are read here, not in a helper: one frame per level
        text = self.texts[self.pos]
        if text in _ATOMS:
            self.pos += 1
            return _node(BundleAtom, text)
        if text not in _WORDS:
            raise self.fail(_BUNDLE_EXPECTED)
        cls, kinds = _WORDS[text]
        self.pos += 1
        self.eat("(")
        fields = []
        for kind in kinds:
            if fields:
                self.eat(",")
            if kind == "bundle":
                fields.append(self.bundle())
            elif kind == "bundles":
                summands = [self.bundle()]
                while self.texts[self.pos] == ",":
                    self.pos += 1
                    summands.append(self.bundle())
                fields.append(tuple(summands))
            else:
                negative = kind == "signed" and self.texts[self.pos] == "-"
                if negative:
                    self.pos += 1
                fields.append(-self.eat_int() if negative else self.eat_int())
        self.eat(")")
        return _node(cls, *fields)


# what a bundle may start with, for the syntax error
_BUNDLE_EXPECTED = tuple(f"'{name}'" for name in (*_ATOMS, *_WORDS))


def parse(text: str) -> Query:
    """Parse a full query (expression plus context clause)."""
    parser = _Parser(text)
    try:
        return parser.query()
    except RecursionError:
        raise ParseError("expression nests too deeply", *parser.where()) from None


# ---------------------------------------------------------------- renderer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4


def _render(node, parent_level: int) -> str:
    # dispatches on exact node types, commonest first; atoms return at once
    kind = type(node)
    if kind is Sigma:
        return "sigma[" + ",".join(map(str, node.parts)) + "]"
    if kind is Pow:
        text, level = f"{_render(node.base, _LEVEL_ATOM)}^{node.exponent}", _LEVEL_POW
    elif kind is Mul:
        first, *rest = node.factors
        text, level = _render(first, _LEVEL_MUL), _LEVEL_MUL
        for factor in rest:
            text += "*" + _render(factor, _LEVEL_POW)
    elif kind is Add:
        (_, first), *rest = node.terms
        text, level = _render(first, _LEVEL_ADD), _LEVEL_ADD
        for sign, term in rest:
            text += (" + " if sign > 0 else " - ") + _render(term, _LEVEL_MUL)
    elif kind is Neg:
        # unary minus binds tighter than "*", so anything looser than a
        # power must be parenthesized to survive a re-parse
        text, level = "-" + _render(node.expr, _LEVEL_POW), _LEVEL_ADD
    elif kind is IntLit:
        return str(node.value)
    elif kind is IntegrateNode:
        return f"integrate({_render(node.expr, _LEVEL_ADD)})"
    elif kind is ChernOf:
        return f"c({node.index}, {render_bundle(node.bundle)})"
    elif kind is Zeta:
        return "zeta"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if level < parent_level else text


def render_bundle(node) -> str:
    if isinstance(node, BundleAtom):
        return node.name
    if type(node) not in _WORD_OF:
        raise TypeError(f"not a bundle node: {node!r}")
    word, kinds = _WORD_OF[type(node)]
    parts = []
    for value, kind in zip(node, kinds):  # loops, not generators: one frame per level
        if kind == "bundles":
            for b in value:
                parts.append(render_bundle(b))
        else:
            parts.append(render_bundle(value) if kind == "bundle" else str(value))
    return word + "(" + ", ".join(parts) + ")"


def render_context(node) -> str:
    if isinstance(node, GrassContext):
        return f"G({node.k},{node.n})"
    if isinstance(node, BundleContext):
        return f"P({render_bundle(node.bundle)}) over G({node.k},{node.n})"
    raise TypeError(f"not a context node: {node!r}")


def render(node) -> str:
    """Canonical text for an AST; parse(render(parse(s))) == parse(s)."""
    if type(node) is Query:
        return f"{_render(node.expr, _LEVEL_ADD)} in {render_context(node.context)}"
    return _render(node, _LEVEL_ADD)


# --------------------------------------------------------------- evaluator

class EvalResult(_Record):
    _fields = ("kind", "value", "rendered", "context")  # kind: "integer" | "cycle"


# sizes of the three evaluation caches (see Caches above); their keys are AST
# records, never rings, whose cycles are unhashable
_CONTEXT_CACHE_SIZE = 32
_BUNDLE_CACHE_SIZE = 256
_ATOM_CACHE_SIZE = 512


@lru_cache(maxsize=_CONTEXT_CACHE_SIZE)
def _resolve_context(node):
    """The ring of a context node: a GrassRing or a ProjBundleRing."""
    ctx = GrassCtx(node.k, node.n)
    if isinstance(node, GrassContext):
        return GrassRing(ctx)
    return ProjBundleRing(_eval_bundle(node.bundle, _node(GrassContext, node.k, node.n)))


@lru_cache(maxsize=_BUNDLE_CACHE_SIZE)
def _eval_bundle(node, context) -> ChernVector:
    """The Chern vector of a bundle node on the ring of a context node.

    Only whole bundles are cached; _bundle walks their parts uncached, each
    once.  The classes may live on a ring equal to, not the same object as,
    the one _resolve_context returns now: the two caches evict independently.
    """
    ring = _resolve_context(context)
    return _on(ring, _bundle(node, ring))


def _on(ring, vector: ChernVector) -> ChernVector:
    # vector on ring: pulled back if _bundle computed it on the base
    return vector if vector.ring is ring else ring.pullback(vector)


def _bundle(node, ring) -> ChernVector:
    """The Chern vector of a bundle node, bottom-up, one frame per level: on
    ring, or on its base where no part of the node is a twist.  A twist, and
    a quotient or sum with a twisted part, pulls its base parts back."""
    if isinstance(node, BundleAtom):
        return (ring.base if isinstance(ring, ProjBundleRing) else ring).tautological(_ATOMS[node.name])
    if isinstance(node, Sym):
        return sym_power(_bundle(node.bundle, ring), node.power)
    if isinstance(node, Dual):
        return dual_bundle(_bundle(node.bundle, ring))
    if isinstance(node, Twist):
        if not isinstance(ring, ProjBundleRing):
            raise EvalError("twist needs a projective-bundle context to supply zeta")
        return tensor_line(_on(ring, _bundle(node.bundle, ring)), node.power * ring.zeta(1))
    if isinstance(node, Quotient):
        num = _bundle(node.numerator, ring)
        den = _bundle(node.denominator, ring)
        if num.ring is not den.ring:
            num, den = _on(ring, num), _on(ring, den)
        return whitney_quotient(num, den)
    if isinstance(node, Sum):
        # equal summands, as in sum(sym(3, Sdual), sym(3, Sdual)), are
        # computed once; a loop, unlike a comprehension, adds no frame per level
        vectors = {}
        for b in node.summands:
            if b not in vectors:
                vectors[b] = _bundle(b, ring)
        parts = [vectors[b] for b in node.summands]
        if any(v.ring is not parts[0].ring for v in parts):
            parts = [_on(ring, v) for v in parts]
        return direct_sum(*parts)
    raise TypeError(f"not a bundle node: {node!r}")


@lru_cache(maxsize=_ATOM_CACHE_SIZE)
def _eval_atom(node, context):
    """The value of a Sigma node, or of a Pow of one, on the ring of a context
    node: the validated class or its power on the base, pulled back to P(E)."""
    ring = _resolve_context(context)
    base = ring.base if isinstance(ring, ProjBundleRing) else ring
    sigma = node.base if isinstance(node, Pow) else node
    value = schubert_class(base.ctx, sigma.parts)
    value = value if sigma is node else value ** node.exponent
    return value if base is ring else ring.from_base(value)


def _eval_expr(node, ring, context):
    """The value of an expression node on ring, the ring of context."""
    if isinstance(node, Sigma) or isinstance(node, Pow) and isinstance(node.base, Sigma):
        return _eval_atom(node, context)
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, Zeta):
        if not isinstance(ring, ProjBundleRing):
            raise EvalError("zeta only exists in a projective-bundle context")
        return ring.zeta(1)
    if isinstance(node, ChernOf):
        bundle = _eval_bundle(node.bundle, context)
        if not 0 <= node.index <= bundle.rank:
            raise EvalError(f"Chern index {node.index} out of range for rank {bundle.rank}")
        return bundle.c(node.index)
    if isinstance(node, IntegrateNode):
        inner = _eval_expr(node.expr, ring, context)
        if isinstance(inner, int):
            inner = inner * ring.one()
        return ring.integrate(inner)
    if isinstance(node, Neg):
        return -_eval_expr(node.expr, ring, context)
    if isinstance(node, Add):
        (_, first), *rest = node.terms
        value = _eval_expr(first, ring, context)
        for sign, term in rest:
            operand = _eval_expr(term, ring, context)
            value = value + operand if sign > 0 else value - operand
        return value
    if isinstance(node, Mul):
        first, *rest = node.factors
        value = _eval_expr(first, ring, context)
        for factor in rest:
            value = value * _eval_expr(factor, ring, context)
        return value
    if isinstance(node, Pow):
        return _eval_expr(node.base, ring, context) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _int_leaf(value, what: str) -> int:
    # the parser makes every number leaf an int; a hand-built node may not
    if type(value) is not int:
        raise EvalError(f"{what} must be an integer, got {value!r}")
    return value


def _bundle_rank(node, k: int, n: int) -> int:
    """Rank of a bundle node on G(k, n), checked against the caps."""
    if isinstance(node, BundleAtom):
        if not isinstance(node.name, str) or node.name not in _ATOMS:
            raise EvalError(f"unknown bundle {node.name!r}")
        rank = n - k if node.name == "Q" else k
    elif isinstance(node, Sym):
        if _int_leaf(node.power, "sym power") < 0:
            raise EvalError("symmetric powers must be nonnegative")
        if node.power > MAX_SYM_POWER:
            raise EvalError(f"sym power {node.power} is above the cap of {MAX_SYM_POWER}")
        r = _bundle_rank(node.bundle, k, n)
        rank = comb(node.power + r - 1, r - 1) if r > 0 else int(node.power == 0)
    elif isinstance(node, (Dual, Twist)):
        if isinstance(node, Twist):
            _int_leaf(node.power, "twist power")
        rank = _bundle_rank(node.bundle, k, n)
    elif isinstance(node, Quotient):
        rank = _bundle_rank(node.numerator, k, n) - _bundle_rank(node.denominator, k, n)
    elif isinstance(node, Sum):
        if type(node.summands) is not tuple or not node.summands:  # a list would not hash as a cache key
            raise EvalError(f"sum summands must be a nonempty tuple, got {node.summands!r}")
        rank = 0
        for b in node.summands:  # a loop, not a generator: one frame per level
            rank += _bundle_rank(b, k, n)
    else:
        raise EvalError(f"not a bundle node: {node!r}")
    if rank > MAX_RANK:
        raise EvalError(f"{render_bundle(node)} has rank {rank}, above the cap of {MAX_RANK}")
    return rank


def _check_expr_size(node, k: int, n: int, outer: int) -> None:
    # runs on every query, so it dispatches on exact node types, commonest first
    kind = type(node)
    if kind is Sigma:
        if type(node.parts) is not tuple:  # a list would not hash as a cache key
            raise EvalError(f"sigma parts must be a tuple, got {node.parts!r}")
    elif kind is Mul:
        if type(node.factors) is not tuple or not node.factors:
            raise EvalError(f"product factors must be a nonempty tuple, got {node.factors!r}")
        for factor in node.factors:
            _check_expr_size(factor, k, n, outer)
    elif kind is Add:
        if type(node.terms) is not tuple or not node.terms:
            raise EvalError(f"sum terms must be a nonempty tuple, got {node.terms!r}")
        for pair in node.terms:
            if type(pair) is not tuple or len(pair) != 2:
                raise EvalError(f"sum terms must be (sign, term) pairs, got {pair!r}")
            sign, term = pair
            if type(sign) is not int or sign * sign != 1:
                raise EvalError(f"sum signs must be 1 or -1, got {sign!r}")
            _check_expr_size(term, k, n, outer)
        if node.terms[0][0] != 1:
            raise EvalError("the first term of a sum must have sign 1, got -1")
    elif kind is Pow:
        if _int_leaf(node.exponent, "exponent") < 0:
            raise EvalError("exponents must be nonnegative")
        outer *= max(node.exponent, 1)
        if outer > MAX_EXPONENT:
            raise EvalError(f"exponent {outer}, counting enclosing powers, is above the cap of {MAX_EXPONENT}")
        _check_expr_size(node.base, k, n, outer)
    elif kind is ChernOf:
        _int_leaf(node.index, "Chern index")
        _bundle_rank(node.bundle, k, n)
    elif kind is Neg or kind is IntegrateNode:
        _check_expr_size(node.expr, k, n, outer)
    elif kind is IntLit:
        _int_leaf(node.value, "integer literal")
    elif kind is not Zeta:
        raise EvalError(f"not an expression node: {node!r}")


def _check_size(query: Query) -> None:
    """Raise EvalError if the query is past one of the size caps."""
    ctx = query.context
    if not isinstance(ctx, (GrassContext, BundleContext)):
        raise EvalError(f"not a context node: {ctx!r}")
    if not 0 < _int_leaf(ctx.k, "context k") < _int_leaf(ctx.n, "context n"):
        return  # not a Grassmannian; _resolve_context reports it
    dim = ctx.k * (ctx.n - ctx.k)
    if dim > MAX_DIMENSION:
        raise EvalError(f"G({ctx.k},{ctx.n}) has dimension {dim}, above the cap of {MAX_DIMENSION}")
    if isinstance(ctx, BundleContext):
        dim += max(_bundle_rank(ctx.bundle, ctx.k, ctx.n) - 1, 0)
        if dim > MAX_DIMENSION:
            raise EvalError(f"{render_context(ctx)} has dimension {dim}, above the cap of {MAX_DIMENSION}")
    _check_expr_size(query.expr, ctx.k, ctx.n, 1)


def _value(query: Query):
    """The value of a parsed query, without the size caps or node checks; the
    library's errors stay ValueErrors."""
    return _eval_expr(query.expr, _resolve_context(query.context), query.context)


def evaluate(query) -> EvalResult:
    """Evaluate a query string or parsed Query against its own context.

    A query past one of the size caps (see the module docstring), or an
    argument that is neither, raises EvalError before any computation starts.
    """
    if isinstance(query, str):
        query = parse(query)
    if type(query) is not Query:
        raise EvalError(f"not a query: {query!r}")
    try:
        _check_size(query)
        value = _value(query)
    except RecursionError:
        raise EvalError("expression nests too deeply") from None
    except ValueError as exc:  # the library refuses a context, class or quotient
        raise EvalError(str(exc)) from None
    try:
        rendered = str(value)
    except ValueError:  # an integer past the interpreter's limit on integer string conversion
        raise EvalError(f"the result holds an integer of more than {sys.get_int_max_str_digits()} digits, "
                        "the interpreter's limit for converting an integer to text") from None
    context = render_context(query.context)
    if isinstance(value, int):
        return EvalResult("integer", value, rendered, context)
    if isinstance(value, (SchubertCycle, PBElement)):
        return EvalResult("cycle", value, rendered, context)
    raise EvalError(f"expression produced an unexpected value {value!r}")
