"""Inputs and expected answers of the three benchmark workloads.

Nothing here imports curvecount at module level: the inputs are built from
the seed by this file alone, and the functions that need the package take it
as an argument.

* classical: the paper's counts, fixed; the seed does not change them.
* planes: top Chern integrals of Sym^m S* on k-plane Grassmannians, fixed.
* session: a seeded stream of DSL query texts.  Its composition is fixed
  (so many queries of each family on each space); the seed picks the
  classes, Chern indices and order.  That keeps the cost of a stream close
  across seeds while the queries themselves differ.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from functools import lru_cache
from math import comb
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Published values: Schubert's 2875 lines and Katz's 609250 conics on the
# quintic threefold, the 27 lines on a cubic surface, and the line counts on
# the other Calabi-Yau complete intersections.
CLASSICAL = [
    (("lines", 4, (5,)), "2875"),
    (("lines", 3, (3,)), "27"),
    (("lines", 7, (2, 2, 2, 2)), "512"),
    (("lines", 6, (2, 2, 3)), "720"),
    (("lines", 5, (3, 3)), "1053"),
    (("lines", 5, (2, 4)), "1280"),
    (("conics", 5), "609250"),
]

# (k, n, m): integral of c_top(Sym^m S*) on G(k, n); rank equals dimension.
PLANES = [(3, 8, 4), (4, 9, 3), (3, 10, 5)]

# One CLI process per run answers one item of the workload.  The console
# script is not always on PATH, so the benchmark runs `python -m curvecount`.
CLI = {
    "classical": (["count", "lines", "--ambient", "4", "--degrees", "5", "--json"], "2875"),
    "planes": (["grass", "integrate(c(15, sym(4, Sdual))) in G(3,8)", "--json"], "3297280"),
    # the degree of G(4,8) in its Pluecker embedding
    "session": (["grass", "integrate(sigma[1]^16) in G(4,8)", "--json"], "24024"),
}

# ------------------------------------------------------------- session

GRASS = [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8), (4, 8)]

# (bundle text, bundle rank as a function of (k, n)); P(E) contexts are
# (bundle text, rank, k, n).  sym(2, Sdual) over G(3,5) is the space of
# conics in P^4.
BUNDLE_RANK = {"S": lambda k, n: k, "Sdual": lambda k, n: k, "Q": lambda k, n: n - k}
P_CONTEXTS = [
    ("Sdual", 2, 2, 4),
    ("Q", 3, 2, 5),
    ("sym(2, Sdual)", 3, 2, 4),
    ("sym(2, Sdual)", 3, 2, 5),
    ("S", 3, 3, 6),
    ("sym(2, Sdual)", 6, 3, 5),
]

# Queries per family.  Sym powers stay at m <= 4 for rank <= 3 and m <= 2
# for rank 4, whose first touch costs well under a second; Sym^4 of a rank-4
# bundle costs tens of seconds and is left out.
SCHUBERT_INTEGRALS_PER_SPACE = 75
SCHUBERT_CYCLES_PER_SPACE = 25
SYM_QUERIES_PER_BUNDLE = 2
P_QUERIES_PER_CONTEXT = 16


@lru_cache(maxsize=None)
def box_partitions(k: int, n: int) -> tuple:
    """Partitions in the k x (n-k) box, by weight then reverse lexicographic."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) < k:
            for p in range(cap, 0, -1):
                rec(prefix + [p], p)

    rec([], n - k)
    return tuple(sorted(out, key=lambda lam: (sum(lam), [-p for p in lam])))


def dual(lam: tuple, k: int, n: int) -> tuple:
    padded = list(lam) + [0] * (k - len(lam))
    return tuple(p for p in ((n - k) - padded[k - 1 - i] for i in range(k)) if p)


def sigma(lam: tuple) -> str:
    return "sigma[" + ",".join(str(p) for p in lam) + "]"


def _power(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


def _product(factors: list) -> str:
    return "*".join(factors) if factors else "1"


def _linear(terms: list) -> str:
    """terms: [(coeff, text)] with coeff != 0 and the first positive."""
    out = ""
    for i, (c, text) in enumerate(terms):
        body = text if abs(c) == 1 else f"{abs(c)}*{text}"
        out += body if i == 0 else (" + " if c > 0 else " - ") + body
    return out


def _factors(rng: random.Random, weight: int, parts: tuple, weights: list) -> list:
    """Schubert factors (lam, exponent) whose weights add up to `weight`;
    parts are sorted by weight, and weights[i] is the weight of parts[i]."""
    out = []
    while weight:
        i = rng.randrange(bisect_right(weights, weight))
        e = min(rng.choice((1, 1, 1, 2, 2, 3)), weight // weights[i])
        out.append((parts[i], e))
        weight -= e * weights[i]
    return out


def _schubert_query(rng, k, n, integral):
    dim = k * (n - k)
    parts = box_partitions(k, n)[1:]
    weights = [sum(p) for p in parts]
    terms = []
    for i in range(rng.choice((1, 1, 2)) if integral else rng.choice((1, 2, 3))):
        coeff = rng.choice((1, 1, 2, 3)) * (1 if i == 0 or rng.random() < 0.5 else -1)
        weight = dim if integral else rng.randint(1, dim)
        terms.append((coeff, _factors(rng, weight, parts, weights)))
    body = _linear([(c, _product([_power(sigma(lam), e) for lam, e in f])) for c, f in terms])
    text = f"integrate({body}) in G({k},{n})" if integral else f"{body} in G({k},{n})"
    return {"family": "schubert", "text": text, "k": k, "n": n, "terms": terms, "integral": integral}


def sym_bundles() -> list:
    """(k, n, bundle, m) for every Sym^m the session may ask about."""
    out = []
    for k, n in GRASS:
        for name, rank in BUNDLE_RANK.items():
            r = rank(k, n)
            for m in (2, 3, 4) if r <= 3 else (2,) if r == 4 else ():
                out.append((k, n, name, m))
    return out


def sym_rank(k: int, n: int, bundle: str, m: int) -> int:
    r = BUNDLE_RANK[bundle](k, n)
    return comb(m + r - 1, r - 1)


def _sym_query(rng, k, n, bundle, m):
    dim = k * (n - k)
    i = rng.randint(1, min(sym_rank(k, n, bundle, m), dim))
    chern = f"c({i}, sym({m}, {bundle}))"
    spec = {"family": "sym", "k": k, "n": n, "bundle": bundle, "m": m, "i": i}
    if rng.random() < 0.5:
        return dict(spec, text=f"{chern} in G({k},{n})", against=None)
    lam = rng.choice([p for p in box_partitions(k, n) if sum(p) == dim - i])
    body = _product([chern] + ([sigma(lam)] if lam else []))
    return dict(spec, text=f"integrate({body}) in G({k},{n})", against=lam)


def p_queries(bundle: str, rank: int, k: int, n: int) -> list:
    """Every P(E) query the session may draw on one context; expected.json
    holds the answer to each."""
    top = k * (n - k) + rank - 1
    where = f" in P({bundle}) over G({k},{n})"
    out = []
    for lam in box_partitions(k, n):
        out.append(_product([_power("zeta", top - sum(lam))] + ([sigma(lam)] if lam else [])))
    for twisted, twisted_rank in ((bundle, rank), ("Sdual", k)):
        for p in (-1, 2):
            for j in range(1, twisted_rank + 1):
                for lam in box_partitions(k, n):
                    a = top - j - sum(lam)
                    if a < 0:
                        continue
                    factors = [f"c({j}, twist({twisted}, {p}))"]
                    factors += [_power("zeta", a)] if a else []
                    factors += [sigma(lam)] if lam else []
                    out.append(_product(factors))
    return [f"integrate({body}){where}" for body in out]


def session_stream(seed: int) -> list:
    rng = random.Random(seed)
    stream = []
    for k, n in GRASS:
        stream += [_schubert_query(rng, k, n, True) for _ in range(SCHUBERT_INTEGRALS_PER_SPACE)]
        stream += [_schubert_query(rng, k, n, False) for _ in range(SCHUBERT_CYCLES_PER_SPACE)]
    for k, n, bundle, m in sym_bundles():
        stream += [_sym_query(rng, k, n, bundle, m) for _ in range(SYM_QUERIES_PER_BUNDLE)]
    for context in P_CONTEXTS:
        pool = p_queries(*context)
        stream += [{"family": "proj", "text": rng.choice(pool)} for _ in range(P_QUERIES_PER_CONTEXT)]
    rng.shuffle(stream)
    return stream


# ------------------------------------------------------------- inputs

def build(workload: str, seed: int) -> list:
    """The workload's items, in the order one pass runs them."""
    if workload == "classical":
        return [item for item, _ in CLASSICAL]
    if workload == "planes":
        return list(PLANES)
    if workload == "session":
        return session_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_item(cc, workload: str, item):
    """Answer one item through the public API; returns (answer, extra).

    For a session query, extra is the parsed query and its rendering, which
    the pass checks after the timed region."""
    if workload == "classical":
        if item[0] == "lines":
            return str(cc.lines_on_complete_intersection(item[1], item[2]).count), None
        return str(cc.conics_on_quintic_type(item[1]).count), None
    if workload == "planes":
        k, n, m = item
        ring = cc.GrassRing(cc.GrassCtx(k, n))
        bundle = cc.sym_power(ring.tautological("sub_dual"), m)
        if bundle.rank != ring.top_degree:
            return f"rank {bundle.rank} differs from dimension {ring.top_degree}", None
        return str(ring.integrate(bundle.c(bundle.rank))), None
    query = cc.parse(item["text"])
    result = cc.evaluate(query)
    return result.rendered, (query, cc.render(query))


# ------------------------------------------------------------- answers

def load_expected() -> dict:
    with EXPECTED_FILE.open() as fh:
        return json.load(fh)


def expected_answers(cc, workload: str, items: list, recorded: dict) -> list:
    """The answer each item must produce, derived without the code path the
    pass times.

    Counts are published goldens.  Pure-Schubert session queries are
    recomputed with the Littlewood-Richardson rule (multiply_lr).  Sym-power
    queries use Chern classes recorded from the seed commit, with integrals
    read off by Poincare duality; P(E) queries and the planes counts use
    values recorded from the seed commit.
    """
    if workload == "classical":
        return [answer for _, answer in CLASSICAL]
    if workload == "planes":
        return [recorded["planes"][f"{k},{n},{m}"] for k, n, m in items]
    lr = {}
    out = []
    for q in items:
        if q["family"] == "proj":
            out.append(recorded["proj"][q["text"]])
            continue
        k, n = q["k"], q["n"]
        ctx = cc.GrassCtx(k, n)
        if q["family"] == "sym":
            classes = recorded["chern"][f"{q['bundle']}|{q['m']}|{k},{n}"]
            terms = {tuple(lam): c for lam, c in classes[q["i"] - 1]}
            if q["against"] is None:
                out.append(str(cc.SchubertCycle(ctx, terms)))
            else:
                out.append(str(terms.get(dual(tuple(q["against"]), k, n), 0)))
            continue
        total = {}
        for coeff, factors in q["terms"]:
            value = {(): coeff}
            for lam, e in factors:
                for _ in range(e):
                    value = _lr_multiply(cc, ctx, lr, value, lam)
            for nu, c in value.items():
                total[nu] = total.get(nu, 0) + c
        if q["integral"]:
            out.append(str(total.get(((n - k),) * k, 0)))
        else:
            out.append(str(cc.SchubertCycle(ctx, {nu: c for nu, c in total.items() if c})))
    return out


def _lr_multiply(cc, ctx, memo, value: dict, lam: tuple) -> dict:
    out = {}
    for mu, c in value.items():
        key = (ctx.k, ctx.n) + tuple(sorted((tuple(mu), tuple(lam))))
        if key not in memo:
            x, y = cc.schubert_class(ctx, key[2]), cc.schubert_class(ctx, key[3])
            memo[key] = {tuple(nu): d for nu, d in cc.multiply_lr(x, y).terms.items()}
        for nu, d in memo[key].items():
            out[nu] = out.get(nu, 0) + c * d
    return {nu: c for nu, c in out.items() if c}
