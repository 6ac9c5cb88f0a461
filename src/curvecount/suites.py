"""Built-in verification suites.

Two suites ship with the package.  The "classical" suite recomputes the
enumerative numbers the engine exists for and compares them against their
long-established values.  The "properties" suite exercises the algebraic
laws the calculus rests on (Whitney sums, Poincare duality, Pieri and
Littlewood-Richardson agreement, the projective-bundle relation) over
every small Grassmannian and over seeded random inputs, so a regression
anywhere in the tower shows up as a named failing check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .chern import ChernVector, GrassRing, _sym_chern_polys, segre, sym_power, tensor_line
from .projbundle import ProjBundleRing, pb_integrate, pb_pushforward
from .recipes import (
    builtin_ledgers,
    clemens_excess,
    conics_on_complete_intersection,
    conics_on_quintic_type,
    equivalence_unobstructed,
    ledger_check,
    lines_on_complete_intersection,
    multiple_cover_weight,
    normal_bundle_classify,
    reference_counts,
)
from .schubert import (
    GrassCtx,
    SchubertCycle,
    _Record,
    dual_partition,
    integrate,
    multiply,
    multiply_lr,
    pieri,
    schubert_class,
)

SUITE_NAMES = ("classical", "properties", "all")

# Every Grassmannian whose dimension is at most this bound gets the
# exhaustive treatment in the properties suite.
_EXHAUSTIVE_DIM = 12


class CheckResult(_Record):
    _fields = ("name", "expected", "actual", "passed")


def _check(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, str(expected), str(actual), expected == actual)


def _bulk(name: str, cases: int, failures: list) -> CheckResult:
    expected = f"{cases} cases, 0 failures"
    if failures:
        actual = f"{cases} cases, {len(failures)} failures, first: {failures[0]}"
    else:
        actual = expected
    return CheckResult(name, expected, actual, not failures)


def _small_contexts() -> list:
    out = []
    for k in itertools.count(1):
        if k * 1 > _EXHAUSTIVE_DIM:
            break
        for n in itertools.count(k + 1):
            if k * (n - k) > _EXHAUSTIVE_DIM:
                break
            out.append(GrassCtx(k, n))
    return out


# ----------------------------------------------------------- classical suite

def _classical_suite() -> list:
    results = []

    counters = {"lines": lines_on_complete_intersection, "conics": conics_on_complete_intersection}
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
    ]
    for curve, ambient, degrees, expected in goldens:
        report = counters[curve](ambient, degrees)
        label = f"{curve}-" + "x".join(str(d) for d in degrees) + f"-in-P{ambient}"
        results.append(_check(label, expected, report.count))

    results.append(_check("conics-5-in-P4", 609250, conics_on_quintic_type(5).count))

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

def _whitney_check(contexts) -> CheckResult:
    cases, failures = 0, []
    for ctx in contexts:
        ring = GrassRing(ctx)
        sub = ring.tautological("sub")
        quot = ring.tautological("quotient")
        for d in range(1, ctx.n + 1):
            cases += 1
            acc = ring.zero()
            for i in range(d + 1):
                acc = acc + sub.c(i) * quot.c(d - i)
            if acc != ring.zero():
                failures.append(f"{ctx} degree {d}")
    return _bulk("whitney-sub-plus-quotient", cases, failures)


def _duality_check(contexts) -> CheckResult:
    cases, failures = 0, []
    for ctx in contexts:
        by_weight = {}
        for lam in ctx.box_partitions():
            by_weight.setdefault(lam.weight, []).append(lam)
        for lam in ctx.box_partitions():
            comp = dual_partition(lam, ctx)
            for mu in by_weight.get(ctx.dim - lam.weight, []):
                cases += 1
                pairing = integrate(multiply(schubert_class(ctx, lam), schubert_class(ctx, mu)))
                want = 1 if mu == comp else 0
                if pairing != want:
                    failures.append(f"{ctx} {tuple(lam)}.{tuple(mu)} = {pairing}, want {want}")
    return _bulk("duality-pairing", cases, failures)


def _rows(lam, k: int) -> list:
    """The k rows of lam, zero-padded."""
    return list(lam) + [0] * (k - len(lam))


def _pieri_check(contexts) -> CheckResult:
    """sigma_lam * sigma_a from pieri against the rule itself: coefficient
    1 on exactly the box partitions mu of weight |lam| + a with
    lam_i <= mu_i <= lam_(i-1), the horizontal strips added to lam."""
    cases, failures = 0, []
    for ctx in contexts:
        by_weight = {}
        for mu in ctx.box_partitions():
            by_weight.setdefault(mu.weight, []).append(mu)
        for lam in ctx.box_partitions():
            low = _rows(lam, ctx.k)
            high = [ctx.width] + low[:-1]
            for a in range(ctx.width + 1):
                cases += 1
                want = {mu: 1 for mu in by_weight.get(lam.weight + a, [])
                        if all(lo <= m <= hi for lo, m, hi in zip(low, _rows(mu, ctx.k), high))}
                if pieri(lam, a, ctx).terms != want:
                    failures.append(f"{ctx} sigma{tuple(lam)}*sigma_{a}")
    return _bulk("pieri-multiplicity-free", cases, failures)


def _random_cycle(rng, ctx, pool):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = rng.choice(pool)
        terms[lam] = terms.get(lam, 0) + rng.randint(-3, 3)
    return sum((c * schubert_class(ctx, lam) for lam, c in terms.items()), SchubertCycle.zero(ctx))


def _ring_laws_check(contexts, rng, triples_per_ctx) -> CheckResult:
    cases, failures = 0, []
    for ctx in contexts:
        pool = ctx.box_partitions()
        for _ in range(triples_per_ctx):
            cases += 1
            x = _random_cycle(rng, ctx, pool)
            y = _random_cycle(rng, ctx, pool)
            z = _random_cycle(rng, ctx, pool)
            if (x * y) * z != x * (y * z):
                failures.append(f"{ctx} associativity {x} | {y} | {z}")
            elif x * y != y * x:
                failures.append(f"{ctx} commutativity {x} | {y}")
            elif x * (y + z) != x * y + x * z:
                failures.append(f"{ctx} distributivity {x} | {y} | {z}")
    return _bulk("product-ring-laws", cases, failures)


def _lr_cross_check(rng) -> CheckResult:
    cases, failures = 0, []
    for ctx in (GrassCtx(2, 5), GrassCtx(3, 6)):
        basis = ctx.box_partitions()
        for lam, mu in itertools.combinations_with_replacement(basis, 2):
            cases += 1
            x, y = schubert_class(ctx, lam), schubert_class(ctx, mu)
            if multiply(x, y) != multiply_lr(x, y):
                failures.append(f"{ctx} {tuple(lam)}*{tuple(mu)}")
    for ctx in (GrassCtx(2, 8), GrassCtx(4, 8)):
        basis = ctx.box_partitions()
        for _ in range(60):
            cases += 1
            lam, mu = rng.choice(basis), rng.choice(basis)
            x, y = schubert_class(ctx, lam), schubert_class(ctx, mu)
            if multiply(x, y) != multiply_lr(x, y):
                failures.append(f"{ctx} {tuple(lam)}*{tuple(mu)}")
    return _bulk("determinant-vs-tableau-products", cases, failures)


def _sym_oracle_check(rng) -> CheckResult:
    """Numeric-roots oracle for the symmetric-power Chern polynomials.

    Give the rank-r bundle concrete integer Chern roots, expand the product
    of (1 + s t) over all degree-m monomial roots s directly, and compare
    coefficient by coefficient with the polynomials of _sym_chern_polys,
    untruncated, evaluated at the elementary symmetric values of the roots.
    """
    cases, failures = 0, []
    for r in range(1, 5):
        # untruncated, rank 4 costs seconds from m = 4 (Sym^4 has 35 classes)
        for m in range(0, 6) if r < 4 else range(0, 4):
            for trial in range(3):
                cases += 1
                roots = [rng.randint(-4, 4) for _ in range(r)]
                sym_roots = [sum(combo) for combo in itertools.combinations_with_replacement(roots, m)]
                direct = [1]
                for s in sym_roots:
                    direct = [direct[0]] + [direct[i] + s * direct[i - 1] for i in range(1, len(direct))] + [s * direct[-1]]
                evalues = [sum(math.prod(c) for c in itertools.combinations(roots, i)) for i in range(1, r + 1)]
                polys = _sym_chern_polys(r, m, len(sym_roots))
                symbolic = [sum(c * math.prod(v**e for v, e in zip(evalues, expo)) for expo, c in p.items()) for p in polys]
                if symbolic != direct[1:]:
                    failures.append(f"r={r} m={m} roots={roots}")
    return _bulk("symmetric-power-numeric-oracle", cases, failures)


def _segre_check() -> CheckResult:
    cases, failures = 0, []
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
            cases += 1
            acc = ring.zero()
            for i in range(d + 1):
                acc = acc + s[i] * c[d - i]
            if acc != ring.zero():
                failures.append(f"{ring.ctx} rank {bundle.rank} degree {d}")
    return _bulk("segre-inverts-chern", cases, failures)


def _conic_bundle_ring() -> ProjBundleRing:
    base = GrassRing(GrassCtx(3, 5))
    return ProjBundleRing(sym_power(base.tautological("sub_dual"), 2))


def _twist_roundtrip_check() -> CheckResult:
    cases, failures = 0, []
    pb = _conic_bundle_ring()
    zeta = pb.zeta(1)
    for m in (1, 2, 3):
        bundle = pb.pullback(sym_power(pb.base.tautological("sub_dual"), m))
        for ell in (zeta, 2 * zeta, -zeta):
            cases += 1
            back = tensor_line(tensor_line(bundle, ell), -ell)
            if back.classes != bundle.classes:
                failures.append(f"sym^{m} twist by {ell}")
    ring = GrassRing(GrassCtx(2, 5))
    sig1 = ring.schubert((1,))
    for which in ("sub_dual", "quotient"):
        cases += 1
        bundle = ring.tautological(which)
        back = tensor_line(tensor_line(bundle, sig1), -sig1)
        if back.classes != bundle.classes:
            failures.append(f"{which} twist by sigma[1]")
    return _bulk("twist-untwist-roundtrip", cases, failures)


def _bundle_rings_for_relation():
    out = [_conic_bundle_ring()]
    ring24 = GrassRing(GrassCtx(2, 4))
    out.append(ProjBundleRing(ring24.tautological("sub")))
    ring25 = GrassRing(GrassCtx(2, 5))
    out.append(ProjBundleRing(ring25.tautological("quotient")))
    return out


def _grothendieck_check() -> CheckResult:
    cases, failures = 0, []
    for pb in _bundle_rings_for_relation():
        cases += 1
        r = pb.fiber_rank
        bundle = pb.pullback(pb.bundle)
        # zeta^r as a product, so that the check runs the reduction rather
        # than reading zeta(r), which is the relation itself
        acc = pb.zeta(r - 1) * pb.zeta(1)
        for i in range(1, r + 1):
            acc = acc + bundle.c(i) * pb.zeta(r - i)
        if acc != pb.zero():
            failures.append(str(pb))
    return _bulk("hyperplane-class-relation", cases, failures)


def _pushforward_check() -> CheckResult:
    cases, failures = 0, []
    for pb in _bundle_rings_for_relation():
        r = pb.fiber_rank
        s = segre(pb.bundle, pb.base.top_degree)
        for j in range(pb.base.top_degree + 1):
            cases += 1
            got = pb_pushforward(pb.zeta(r - 1 + j))
            if got != s[j]:
                failures.append(f"{pb} j={j}")
    return _bulk("fiber-integration-gives-segre", cases, failures)


def _projection_formula_check(rng) -> CheckResult:
    cases, failures = 0, []
    for pb in _bundle_rings_for_relation():
        basis = pb.base.ctx.box_partitions()
        r = pb.fiber_rank
        for _ in range(25):
            cases += 1
            alpha = schubert_class(pb.base.ctx, rng.choice(basis))
            beta = pb.from_base(schubert_class(pb.base.ctx, rng.choice(basis))) * pb.zeta(rng.randint(0, r - 1))
            lhs = pb_integrate(pb.from_base(alpha) * beta)
            rhs = integrate(multiply(alpha, pb_pushforward(beta)))
            if lhs != rhs:
                failures.append(f"{pb} alpha={alpha}")
    return _bulk("projection-formula", cases, failures)


def _hyperplane_check() -> CheckResult:
    """A degree-1 equation one dimension up cuts out the same variety, so
    it leaves every count unchanged."""
    cases, failures = 0, []
    for recipe, ambient, degrees, extra in (
        (lines_on_complete_intersection, 4, (5,), 2),
        (conics_on_complete_intersection, 4, (5,), 2),
        (conics_on_complete_intersection, 5, (3, 3), 1),
    ):
        want = recipe(ambient, degrees).count
        for i in range(1, extra + 1):
            cases += 1
            got = recipe(ambient + i, (1,) * i + degrees).count
            if got != want:
                failures.append(f"{recipe.__name__} {(1,) * i + degrees} in P^{ambient + i}: {got}, want {want}")
    return _bulk("hyperplane-section-invariance", cases, failures)


def _properties_suite(seed: int) -> list:
    rng = random.Random(seed)
    contexts = _small_contexts()
    return [
        _whitney_check(contexts),
        _duality_check(contexts),
        _pieri_check(contexts),
        _ring_laws_check(contexts, rng, triples_per_ctx=100),
        _lr_cross_check(rng),
        _sym_oracle_check(rng),
        _segre_check(),
        _twist_roundtrip_check(),
        _grothendieck_check(),
        _pushforward_check(),
        _projection_formula_check(rng),
        _hyperplane_check(),
    ]


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
