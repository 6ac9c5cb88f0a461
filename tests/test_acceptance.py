"""Acceptance checks, one test per criterion.

Each test prints a single [PASS] line (visible with pytest -s or in captured
output) after its assertions hold, including the measured runtime where the
criterion bounds one.  Timed criteria clear the relevant caches first so the
clock covers a cold computation, not a lookup.
"""

import time
from fractions import Fraction

from curvecount.bookkeeping import (
    builtin_ledgers,
    clemens_excess,
    equivalence_unobstructed,
    equivalence_zero_dim,
    ledger_check,
    multiple_cover_weight,
    normal_bundle_classify,
    reference_counts,
)
from curvecount.chern import _sym_chern_polys
from curvecount.dsl import _eval_atom, _eval_bundle, _node, _resolve_context
from curvecount.recipes import conics_on_quintic_type, lines_on_complete_intersection
from curvecount.schubert import _PRODUCTS, GrassCtx, integrate, schubert_class
from curvecount.suites import _small_contexts, run_suite


def _cold_caches():
    _PRODUCTS.clear()
    _sym_chern_polys.cache_clear()
    _resolve_context.cache_clear()
    _eval_bundle.cache_clear()
    _eval_atom.cache_clear()
    _node.cache_clear()


def test_criterion_01_quintic_line_count():
    _cold_caches()
    start = time.perf_counter()
    report = lines_on_complete_intersection(4, [5])
    elapsed = time.perf_counter() - start
    assert report.count == 2875
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
    print(f"[PASS] lines on the quintic threefold = 2875 ({elapsed:.3f}s < 1s)")


def test_criterion_02_quintic_conic_count():
    _cold_caches()
    start = time.perf_counter()
    report = conics_on_quintic_type(5)
    elapsed = time.perf_counter() - start
    assert report.count == 609250
    assert elapsed < 30.0, f"took {elapsed:.3f}s, bound is 30s"
    print(f"[PASS] conics on the quintic threefold = 609250 ({elapsed:.3f}s < 30s)")


def test_criterion_03_cubic_surface_line_count():
    assert lines_on_complete_intersection(3, [3]).count == 27
    print("[PASS] lines on the cubic surface = 27")


def test_criterion_04_classical_schubert_numbers():
    g24 = GrassCtx(2, 4)
    assert integrate(schubert_class(g24, (1,)) ** 4) == 2
    g25 = GrassCtx(2, 5)
    assert integrate(schubert_class(g25, (1,)) ** 6) == 5
    print("[PASS] sigma_1^4 = 2 on G(2,4) and sigma_1^6 = 5 on G(2,5)")


def test_criterion_05_degeneration_ledgers_balance():
    ledgers = builtin_ledgers()
    assert len(ledgers) == 5
    expected_splits = {
        "quintic-lines-hyperplane-quartic": (2875, [1275, 1600]),
        "quintic-lines-quadric-cubic": (2875, [1300, 1575]),
        "quintic-conics-hyperplane-quartic": (609250, [187250, 258800, 163200]),
        "quintic-conics-quadric-cubic": (609250, [215950, 243900, 149400]),
        "fermat-quintic-lines": (2875, [20 * 50, 5 * 375]),
    }
    for name, (total, contributions) in expected_splits.items():
        ledger = ledgers[name]
        assert ledger.total == total
        assert [c.contribution for c in ledger.components] == contributions
        report = ledger_check(ledger)
        assert report.ok and report.residual == 0, name
    print("[PASS] all 5 degeneration ledgers balance exactly")


def test_criterion_06_reparametrization_excess_vanishes():
    start = time.perf_counter()
    for d in range(1, 1001):
        assert clemens_excess(d).excess == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
    print(f"[PASS] expected-dimension excess = 0 for degrees 1..1000 ({elapsed:.3f}s < 1s)")


def test_criterion_07_normal_bundle_classification():
    for a in range(-10, 11):
        split = normal_bundle_classify(a)
        assert split.b == -2 - a
        assert (split.classification == "rigid") == (split.a == split.b == -1)
    print("[PASS] normal bundle splits O(a)+O(-2-a), rigid exactly at a = b = -1")


def test_criterion_08_property_suite():
    # the exhaustive context list must cover every G(k,n) with k(n-k) <= 12
    contexts = {(c.k, c.n) for c in _small_contexts()}
    brute = {
        (k, n)
        for k in range(1, 14)
        for n in range(k + 1, 27)
        if k * (n - k) <= 12
    }
    assert contexts == brute
    checks = {c.name: c for c in run_suite("properties", seed=2026)}
    for required, cases_at_least in [
        ("whitney-sub-plus-quotient", len(brute)),
        ("duality-pairing", len(brute)),
        ("product-ring-laws", 100 * len(brute)),
        ("symmetric-power-numeric-oracle", 3 * 6),
        ("segre-inverts-chern", 1),
        ("hyperplane-class-relation", 1),
        ("fiber-integration-gives-segre", 1),
    ]:
        check = checks[required]
        assert check.passed, f"{required}: {check.actual}"
        assert int(check.actual.split()[0]) >= cases_at_least
    assert all(c.passed for c in checks.values())
    print(f"[PASS] property suite: {len(checks)} named checks over {len(brute)} Grassmannians, all exact")


def test_criterion_09_equivalence_formulas():
    assert equivalence_zero_dim([1], [1], lambda v: v) == 1
    assert equivalence_unobstructed(0) == 1
    assert equivalence_unobstructed(0, [99]) == 1
    for m in range(1, 11):
        assert multiple_cover_weight(m) == Fraction(1, m**3)
    print("[PASS] point equivalence = 1, rigid family = 1, cover weights = 1/m^3 for m = 1..10")


def test_criterion_10_reference_values_stay_data():
    refs = reference_counts()
    assert refs["quintic-twisted-cubics"]["value"] == 317206375
    ledgers = builtin_ledgers()
    # the twisted-cubic number appears nowhere as a computed ledger quantity
    for ledger in ledgers.values():
        assert ledger.total != 317206375
        assert ledger.computed != 317206375
    # the per-cone and per-line equivalences enter the Fermat ledger as data
    fermat = ledgers["fermat-quintic-lines"]
    assert sorted(c.equivalence for c in fermat.components) == [5, 20]
    assert sorted(c.count for c in fermat.components) == [50, 375]
    print("[PASS] 317206375 and the Fermat equivalences are recorded inputs, never recomputed")
