"""Built-in verification suites.

Two suites ship with the package.  The "classical" suite recomputes the
enumerative numbers the engine exists for and compares them against their
long-established values.  The "properties" suite exercises the algebraic
laws the calculus rests on (Whitney sums, Poincare duality, Pieri and
Littlewood-Richardson agreement, the projective-bundle relation) over
every small Grassmannian and over seeded random inputs, so a regression
anywhere in the tower shows up as a named failing check.  The
Littlewood-Richardson rule (lr_coefficient, multiply_lr) lives here, beside
the one check that uses it.

A property check is a generator that yields one outcome per case, None
when the case passes or the failure's text when it fails; _bulk alone
counts the cases and failures and turns them into the check's result.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import SUITE_NAMES
from .bookkeeping import (
    builtin_ledgers,
    clemens_excess,
    equivalence_unobstructed,
    ledger_check,
    multiple_cover_weight,
    normal_bundle_classify,
    reference_counts,
)
from .chern import GrassRing, _sym_chern_polys, segre, sym_power, tensor_line
from .projbundle import ProjBundleRing, pb_integrate, pb_pushforward
from .recipes import _count, conics_on_complete_intersection, lines_on_complete_intersection
from .schubert import (
    GrassCtx,
    Partition,
    SchubertCycle,
    _Record,
    dual_partition,
    integrate,
    multiply,
    schubert_class,
)

# Every Grassmannian whose dimension is at most this bound gets the
# exhaustive treatment in the properties suite.
_EXHAUSTIVE_DIM = 12


class CheckResult(_Record):
    _fields = ("name", "expected", "actual", "passed")


def _check(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, str(expected), str(actual), expected == actual)


def _bulk(name: str, outcomes) -> CheckResult:
    """The result of a property check, from its outcomes: one per case,
    None when the case passes, the failure's text when it fails."""
    outcomes = list(outcomes)
    failures = [text for text in outcomes if text is not None]
    expected = f"{len(outcomes)} cases, 0 failures"
    if failures:
        actual = f"{len(outcomes)} cases, {len(failures)} failures, first: {failures[0]}"
    else:
        actual = expected
    return CheckResult(name, expected, actual, not failures)


def _small_contexts() -> list:
    """Every G(k, n) of dimension k(n - k) at most _EXHAUSTIVE_DIM."""
    return [GrassCtx(k, n) for k in range(1, _EXHAUSTIVE_DIM + 1)
            for n in range(k + 1, k + _EXHAUSTIVE_DIM // k + 1)]


# ----------------------------------------------------------- classical suite

def _classical_suite() -> list:
    results = []

    goldens = [
        ("lines", 4, (5,), 2875),
        ("lines", 3, (3,), 27),
        ("lines", 7, (2, 2, 2, 2), 512),
        ("lines", 6, (2, 2, 3), 720),
        ("lines", 5, (3, 3), 1053),
        ("lines", 5, (2, 4), 1280),
        # Libgober and Teitelbaum's degree-2 counts on the other Calabi-Yau
        # complete intersections
        ("conics", 5, (3, 3), 52812),
        ("conics", 5, (2, 4), 92288),
        ("conics", 6, (2, 2, 3), 22428),
        ("conics", 7, (2, 2, 2, 2), 9728),
        ("conics", 4, (5,), 609250),
    ]
    for curve, ambient, degrees, expected in goldens:
        report = _count(curve, ambient, degrees)
        label = f"{curve}-" + "x".join(str(d) for d in degrees) + f"-in-P{ambient}"
        results.append(_check(label, expected, report.count))

    ctx45 = GrassCtx(2, 4)
    results.append(_check("sigma1^4-G(2,4)", 2, integrate(schubert_class(ctx45, (1,)) ** 4)))
    ctx25 = GrassCtx(2, 5)
    results.append(_check("sigma1^6-G(2,5)", 5, integrate(schubert_class(ctx25, (1,)) ** 6)))

    for name, ledger in sorted(builtin_ledgers().items()):
        report = ledger_check(ledger)
        results.append(_check(f"ledger-{name}", "residual 0", f"residual {report.residual}"))

    for d, expected in [(1, (10, 6, 4, 0)), (2, (15, 11, 4, 0))]:
        c = clemens_excess(d)
        actual = (c.parameters, c.conditions, c.reparametrizations, c.excess)
        results.append(_check(f"clemens-degree-{d}", expected, actual))

    for a, expected in [(-1, (-1, -1, 0, "rigid")), (0, (0, -2, 1, "first_order")), (3, (3, -5, 4, "higher_dim"))]:
        s = normal_bundle_classify(a)
        results.append(_check(f"normal-bundle-a={a}", expected, (s.a, s.b, s.h0, s.classification)))

    results.append(_check("equivalence-rigid-curve", 1, equivalence_unobstructed(0)))
    results.append(_check("equivalence-linear-family", 20, equivalence_unobstructed(1, [0, 20])))

    for m, expected in [(1, Fraction(1)), (2, Fraction(1, 8)), (3, Fraction(1, 27))]:
        results.append(_check(f"cover-weight-{m}", expected, multiple_cover_weight(m)))

    refs = reference_counts()
    results.append(_check("reference-twisted-cubics", 317206375, refs["quintic-twisted-cubics"]["value"]))

    return results


# ---------------------------------------------------------- properties suite

def _whitney_check(contexts):
    for ctx in contexts:
        ring = GrassRing(ctx)
        sub = ring.tautological("sub")
        quot = ring.tautological("quotient")
        for d in range(1, ctx.n + 1):
            acc = sum((sub.c(i) * quot.c(d - i) for i in range(d + 1)), ring.zero())
            yield None if acc == ring.zero() else f"{ctx} degree {d}"


def _duality_check(contexts):
    for ctx in contexts:
        for lam in ctx.box_partitions():
            comp = dual_partition(lam, ctx)
            for mu in ctx.box_partitions(ctx.dim - lam.weight):
                pairing = integrate(multiply(schubert_class(ctx, lam), schubert_class(ctx, mu)))
                want = 1 if mu == comp else 0
                yield None if pairing == want else f"{ctx} {tuple(lam)}.{tuple(mu)} = {pairing}, want {want}"


def _rows(lam, k: int) -> list:
    """The k rows of lam, zero-padded."""
    return list(lam) + [0] * (k - len(lam))


def _pieri_check(contexts):
    """sigma_lam * sigma_a from multiply against the Pieri rule itself:
    coefficient 1 on exactly the box partitions mu of weight |lam| + a with
    lam_(i-1) >= mu_i >= lam_i, the horizontal strips added to lam."""
    for ctx in contexts:
        for lam in ctx.box_partitions():
            low = _rows(lam, ctx.k)
            high = [ctx.width] + low[:-1]
            for a in range(ctx.width + 1):
                want = {mu: 1 for mu in ctx.box_partitions(lam.weight + a)
                        if all(lo <= m <= hi for lo, m, hi in zip(low, _rows(mu, ctx.k), high))}
                got = multiply(schubert_class(ctx, lam), schubert_class(ctx, (a,))).terms
                yield None if got == want else f"{ctx} sigma{tuple(lam)}*sigma_{a}"


def _random_cycle(rng, ctx, pool):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = rng.choice(pool)
        terms[lam] = terms.get(lam, 0) + rng.randint(-3, 3)
    return sum((c * schubert_class(ctx, lam) for lam, c in terms.items()), SchubertCycle.zero(ctx))


def _ring_laws_check(contexts, rng):
    for ctx in contexts:
        pool = ctx.box_partitions()
        for _ in range(100):  # random triples per Grassmannian
            x = _random_cycle(rng, ctx, pool)
            y = _random_cycle(rng, ctx, pool)
            z = _random_cycle(rng, ctx, pool)
            if (x * y) * z != x * (y * z):
                yield f"{ctx} associativity {x} | {y} | {z}"
            elif x * y != y * x:
                yield f"{ctx} commutativity {x} | {y}"
            elif x * (y + z) != x * y + x * z:
                yield f"{ctx} distributivity {x} | {y} | {z}"
            else:
                yield None


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts semistandard skew tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word.  Used only to cross-check the
    Giambelli + Pieri multiplication path.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.weight != lam.weight + mu.weight or not nu.contains(lam):
        return 0
    if not mu:
        return 1
    rows = len(nu)
    inner = list(lam) + [0] * (rows - len(lam))
    letters = len(mu)

    cells = []
    for i in range(rows):
        for j in range(nu[i] - 1, inner[i] - 1, -1):
            cells.append((i, j))

    grid = {}
    counts = [0] * (letters + 1)
    rem = list(mu)
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        above = grid.get((i - 1, j)) if i > 0 and j >= inner[i - 1] else None
        right = grid.get((i, j + 1))
        lo = 1 if above is None else above + 1
        hi = letters if right is None else right
        for v in range(lo, hi + 1):
            if not rem[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            grid[(i, j)] = v
            counts[v] += 1
            rem[v - 1] -= 1
            place(idx + 1)
            del grid[(i, j)]
            counts[v] -= 1
            rem[v - 1] += 1

    place(0)
    return total


def multiply_lr(x: SchubertCycle, y: SchubertCycle) -> SchubertCycle:
    """Product computed directly from Littlewood-Richardson coefficients.

    Independent of the Giambelli + Pieri path; the two must agree.
    """
    if x.ctx != y.ctx:
        raise ValueError("cycles live on different Grassmannians")
    ctx = x.ctx
    out = {}
    for lam, a in x._terms.items():
        for mu, b in y._terms.items():
            for nu in ctx.box_partitions(weight=lam.weight + mu.weight):
                c = lr_coefficient(lam, mu, nu)
                if c:
                    out[nu] = out.get(nu, 0) + a * b * c
    return SchubertCycle(ctx, out)


def _lr_cross_check(rng):
    pairs = [(ctx, lam, mu) for ctx in (GrassCtx(2, 5), GrassCtx(3, 6))
             for lam, mu in itertools.combinations_with_replacement(ctx.box_partitions(), 2)]
    for ctx in (GrassCtx(2, 8), GrassCtx(4, 8)):
        basis = ctx.box_partitions()
        pairs.extend((ctx, rng.choice(basis), rng.choice(basis)) for _ in range(60))
    for ctx, lam, mu in pairs:
        x, y = schubert_class(ctx, lam), schubert_class(ctx, mu)
        yield None if multiply(x, y) == multiply_lr(x, y) else f"{ctx} {tuple(lam)}*{tuple(mu)}"


def _sym_oracle_check(rng):
    """Numeric-roots oracle for the symmetric-power Chern polynomials.

    Give the rank-r bundle concrete integer Chern roots, expand the product
    of (1 + s t) over all degree-m monomial roots s directly, and compare
    coefficient by coefficient with the polynomials of _sym_chern_polys,
    untruncated, evaluated at the elementary symmetric values of the roots.
    Rank 5 runs the polynomials that hold c_4 and c_5.
    """
    # untruncated, rank 4 costs seconds from m = 4 (Sym^4 has 35 classes)
    for r, powers in ((1, 6), (2, 6), (3, 6), (4, 4), (5, 3)):
        for m in range(powers):
            for trial in range(3):
                roots = [rng.randint(-4, 4) for _ in range(r)]
                sym_roots = [sum(combo) for combo in itertools.combinations_with_replacement(roots, m)]
                direct = [1]
                for s in sym_roots:
                    direct = [direct[0]] + [direct[i] + s * direct[i - 1] for i in range(1, len(direct))] + [s * direct[-1]]
                evalues = [sum(math.prod(c) for c in itertools.combinations(roots, i)) for i in range(1, r + 1)]
                polys = _sym_chern_polys(r, m, len(sym_roots))
                symbolic = [sum(c * math.prod(v**e for v, e in zip(evalues, expo)) for expo, c in p.items()) for p in polys]
                yield None if symbolic == direct[1:] else f"r={r} m={m} roots={roots}"


def _segre_check():
    samples = []
    for k, n in ((2, 4), (2, 5), (3, 5)):
        ring = GrassRing(GrassCtx(k, n))
        samples.append((ring, ring.tautological("sub_dual")))
        samples.append((ring, ring.tautological("quotient")))
    ring35 = GrassRing(GrassCtx(3, 5))
    samples.append((ring35, sym_power(ring35.tautological("sub_dual"), 2)))
    for ring, bundle in samples:
        top = ring.top_degree
        s = segre(bundle, top)
        c = bundle.total_series(top)
        for d in range(1, top + 1):
            acc = sum((s[i] * c[d - i] for i in range(d + 1)), ring.zero())
            yield None if acc == ring.zero() else f"{ring.ctx} rank {bundle.rank} degree {d}"


def _conic_bundle_ring() -> ProjBundleRing:
    base = GrassRing(GrassCtx(3, 5))
    return ProjBundleRing(sym_power(base.tautological("sub_dual"), 2))


def _twist_roundtrip_check():
    pb = _conic_bundle_ring()
    zeta = pb.zeta(1)
    for m in (1, 2, 3):
        bundle = pb.pullback(sym_power(pb.base.tautological("sub_dual"), m))
        for ell in (zeta, 2 * zeta, -zeta):
            back = tensor_line(tensor_line(bundle, ell), -ell)
            yield None if back.classes == bundle.classes else f"sym^{m} twist by {ell}"
    ring = GrassRing(GrassCtx(2, 5))
    sig1 = ring.schubert((1,))
    for which in ("sub_dual", "quotient"):
        bundle = ring.tautological(which)
        back = tensor_line(tensor_line(bundle, sig1), -sig1)
        yield None if back.classes == bundle.classes else f"{which} twist by sigma[1]"


def _bundle_rings_for_relation():
    return [_conic_bundle_ring(),
            ProjBundleRing(GrassRing(GrassCtx(2, 4)).tautological("sub")),
            ProjBundleRing(GrassRing(GrassCtx(2, 5)).tautological("quotient"))]


def _grothendieck_check():
    for pb in _bundle_rings_for_relation():
        r = pb.fiber_rank
        bundle = pb.pullback(pb.bundle)
        # zeta^r as a product, so that the check runs the reduction rather
        # than reading zeta(r), which is the relation itself
        acc = sum((bundle.c(i) * pb.zeta(r - i) for i in range(1, r + 1)), pb.zeta(r - 1) * pb.zeta(1))
        yield None if acc == pb.zero() else str(pb)


def _pushforward_check():
    for pb in _bundle_rings_for_relation():
        r = pb.fiber_rank
        s = segre(pb.bundle, pb.base.top_degree)
        for j in range(pb.base.top_degree + 1):
            yield None if pb_pushforward(pb.zeta(r - 1 + j)) == s[j] else f"{pb} j={j}"


def _projection_formula_check(rng):
    for pb in _bundle_rings_for_relation():
        basis = pb.base.ctx.box_partitions()
        r = pb.fiber_rank
        for _ in range(25):
            alpha = schubert_class(pb.base.ctx, rng.choice(basis))
            beta = pb.from_base(schubert_class(pb.base.ctx, rng.choice(basis))) * pb.zeta(rng.randint(0, r - 1))
            lhs = pb_integrate(pb.from_base(alpha) * beta)
            rhs = integrate(multiply(alpha, pb_pushforward(beta)))
            yield None if lhs == rhs else f"{pb} alpha={alpha}"


def _hyperplane_check():
    """A degree-1 equation one dimension up cuts out the same variety, so
    it leaves every count unchanged."""
    for recipe, ambient, degrees, extra in (
        (lines_on_complete_intersection, 4, (5,), 2),
        (conics_on_complete_intersection, 4, (5,), 2),
        (conics_on_complete_intersection, 5, (3, 3), 1),
    ):
        want = recipe(ambient, degrees).count
        for i in range(1, extra + 1):
            got = recipe(ambient + i, (1,) * i + degrees).count
            yield None if got == want else f"{recipe.__name__} {(1,) * i + degrees} in P^{ambient + i}: {got}, want {want}"


def _properties_suite(seed: int) -> list:
    rng = random.Random(seed)
    contexts = _small_contexts()
    # _bulk runs each check to its end before the next starts, so the three
    # that draw from rng draw in this order
    checks = [
        ("whitney-sub-plus-quotient", _whitney_check(contexts)),
        ("duality-pairing", _duality_check(contexts)),
        ("pieri-multiplicity-free", _pieri_check(contexts)),
        ("product-ring-laws", _ring_laws_check(contexts, rng)),
        ("determinant-vs-tableau-products", _lr_cross_check(rng)),
        ("symmetric-power-numeric-oracle", _sym_oracle_check(rng)),
        ("segre-inverts-chern", _segre_check()),
        ("twist-untwist-roundtrip", _twist_roundtrip_check()),
        ("hyperplane-class-relation", _grothendieck_check()),
        ("fiber-integration-gives-segre", _pushforward_check()),
        ("projection-formula", _projection_formula_check(rng)),
        ("hyperplane-section-invariance", _hyperplane_check()),
    ]
    return [_bulk(name, outcomes) for name, outcomes in checks]


def run_suite(name: str, seed: int = 2026) -> list:
    """Run a named suite and return its CheckResults.

    name is "classical", "properties", or "all".  The seed feeds the
    randomized property checks; fixed seed, fixed checks.
    """
    if name == "classical":
        return _classical_suite()
    if name == "properties":
        return _properties_suite(seed)
    if name == "all":
        return _classical_suite() + _properties_suite(seed)
    raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITE_NAMES)}")
