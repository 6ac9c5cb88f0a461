import copy
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from curvecount.chern import (
    ChernVector,
    GrassRing,
    _coefficient_bound,
    _exact_div,
    _packing,
    _sym_chern_polys,
    direct_sum,
    dual_bundle,
    segre,
    sym_power,
    tensor_line,
    whitney_quotient,
)
import curvecount
from curvecount import chern, schubert
from curvecount.projbundle import ProjBundleRing
from curvecount.schubert import GrassCtx, SchubertCycle

R25 = GrassRing(GrassCtx(2, 5))
R35 = GrassRing(GrassCtx(3, 5))


def _untruncated(r, m):
    return _sym_chern_polys(r, m, math.comb(m + r - 1, r - 1))


def test_sym_chern_rank_count():
    for r in (1, 2, 3):
        for m in (0, 1, 2, 3, 4, 5):
            assert len(_untruncated(r, m)) == math.comb(m + r - 1, r - 1)


def test_sym_one_is_identity():
    for r in (1, 2, 3):
        variables = [{tuple(int(j == i) for j in range(r)): 1} for i in range(r)]
        assert list(_untruncated(r, 1)) == variables


def test_sym_square_rank_two_closed_form():
    # rank 2: Sym^2 has roots 2a, a+b, 2b; keys are exponents of (c1, c2)
    p1, p2, p3 = _untruncated(2, 2)
    assert p1 == {(1, 0): 3}
    assert p2 == {(2, 0): 2, (0, 1): 4}
    assert p3 == {(1, 1): 4}


def test_sym_chern_numeric_oracle():
    import itertools

    rng = random.Random(5)
    for r in (1, 2, 3, 4):
        for m in range(6) if r < 4 else range(4):
            roots = [rng.randint(-4, 4) for _ in range(r)]
            sums = [sum(c) for c in itertools.combinations_with_replacement(roots, m)]
            direct = [1]
            for s in sums:
                direct = [direct[0]] + [direct[i] + s * direct[i - 1] for i in range(1, len(direct))] + [s * direct[-1]]
            evalues = [
                sum(math.prod(c) for c in itertools.combinations(roots, i)) for i in range(1, r + 1)
            ]
            got = [
                sum(c * math.prod(v**e for v, e in zip(evalues, expo)) for expo, c in p.items())
                for p in _untruncated(r, m)
            ]
            assert got == direct[1:], (r, m, roots)


def test_sym_chern_truncates_at_top_degree():
    full = _untruncated(3, 3)
    assert _sym_chern_polys(3, 3, 4) == full[:4]
    # above the rank of E only c_1..c_top take part
    assert all(len(expo) == 2 for p in _sym_chern_polys(3, 2, 2) for expo in p)


def _packed(*digits, width=8):
    return sum(d << width * i for i, d in enumerate(digits))


def test_exact_division_checks_remainders():
    # 8-bit slots holding digits below 2^5 in magnitude, divided by up to 3
    width, half, high = _packing(5, 3, 2)
    assert width == 8
    assert _exact_div({0: _packed(6, -4)}, 2, half, high) == {0: _packed(3, -2)}
    # the in-place sums leave cancelled terms behind; the division drops them
    assert _exact_div({1: 0, 2: _packed(4)}, 2, half, high) == {2: _packed(2)}
    with pytest.raises(ArithmeticError):
        _exact_div({0: _packed(6, 3)}, 2, half, high)
    with pytest.raises(ArithmeticError):
        _exact_div({0: _packed(7)}, 2, half, high)
    # 513 = 1 + 2 * 2^8 = 3 * 171 divides, though neither digit does
    assert _packed(1, 2) == 513 and 513 % 3 == 0
    with pytest.raises(ArithmeticError):
        _exact_div({0: 513}, 3, half, high)
    assert _exact_div({0: _packed(3, 6)}, 3, half, high) == {0: 513}
    assert _exact_div({0: _packed(-3, -30)}, 3, half, high) == {0: _packed(-1, -10)}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sym_chern_polys_hold_no_zero_coefficients(r):
    # sym_power pays one ring product per monomial, so a stored zero costs work, not an error
    for m in range(6):
        rank = math.comb(m + r - 1, r - 1)
        for top in {1, 2, 3, 6, min(rank, 10)}:
            if top <= rank:
                for p in _sym_chern_polys(r, m, top):
                    assert all(p.values()), (r, m, top)


def _pinned_keys():
    for r in range(1, 5):
        for m in range(6):
            for top in range(1, min(25, math.comb(m + r - 1, r - 1)) + 1):
                yield r, m, top


def _wide_keys():
    for r, powers in ((5, range(4)), (6, range(4)), (1, range(6, 13)), (2, range(6, 13)), (3, range(6, 13))):
        for m in powers:
            for top in range(1, min(12, math.comb(m + r - 1, r - 1)) + 1):
                yield r, m, top


def _digest(keys):
    digest = hashlib.sha256()
    count = 0
    for r, m, top in keys:
        out = _sym_chern_polys(r, m, top)
        digest.update(repr((r, m, top, [sorted(p.items()) for p in out])).encode())
        count += 1
    return count, digest.hexdigest()


def test_every_sym_chern_polynomial_is_pinned():
    # every truncation of Sym^m of a rank-r bundle for r <= 4, m <= 5 and
    # top <= 25; a new way of computing the polynomials must give each one
    # bit-identical, monomials and coefficients alike
    assert _digest(_pinned_keys()) == (168, "e8a32eed8158b48f89d07f11da1195f308aa5bfd655c410a26aa157589463be4")


def test_every_wide_sym_chern_polynomial_is_pinned():
    # the keys the pin above misses: ranks 5 and 6, whose polynomials hold
    # c_4..c_6, and powers up to the DSL's cap of 12, truncated at top <= 12
    assert _digest(_wide_keys()) == (221, "291f56d5f7fdf2f29e6aed2d6373adc21deab046f875f3fdf292d1a269aeedcf")


def test_coefficient_bound_covers_every_pinned_coefficient():
    for r, m, top in (*_pinned_keys(), *_wide_keys()):
        bound = _coefficient_bound(r, m, min(math.comb(m + r - 1, r - 1), top))
        for p in _sym_chern_polys(r, m, top):
            assert all(abs(c) <= bound for c in p.values()), (r, m, top)


@pytest.mark.parametrize("k,n,m,count", [(3, 8, 4, 3297280), (4, 9, 3, 321489), (3, 10, 5, 420760566875)])
def test_plane_counts(k, n, m, count):
    # top Chern integrals of Sym^m S* on G(k, n), where rank equals dimension
    ring = GrassRing(GrassCtx(k, n))
    bundle = sym_power(ring.tautological("sub_dual"), m)
    assert bundle.rank == ring.top_degree
    assert ring.integrate(bundle.c(bundle.rank)) == count


@pytest.fixture
def multiply_calls(monkeypatch):
    """A list that gains one entry per schubert.multiply call."""
    calls = []
    inner = schubert.multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(schubert, "multiply", counting)
    return calls


def _sym4_on_g38():
    return sym_power(GrassRing(GrassCtx(3, 8)).tautological("sub_dual"), 4)


def test_one_class_of_a_sym_power_costs_only_its_own_products(multiply_calls):
    # the planes counts read c_top alone; the other 14 classes are never substituted
    calls = multiply_calls
    schubert._PRODUCTS.clear()
    v = _sym4_on_g38()
    top = v.c(15)
    one = len(calls)
    assert v.ring.integrate(top) == 3297280
    calls.clear()
    schubert._PRODUCTS.clear()
    every = tuple(_sym4_on_g38().classes)
    assert 0 < one < len(calls)
    assert every[14] == top


def test_sym_power_classes_read_in_any_order_agree():
    forward = tuple(_sym4_on_g38().classes)
    backward = _sym4_on_g38().classes
    assert [backward[i] for i in reversed(range(15))] == list(forward)[::-1]
    order = list(range(15))
    random.Random(21).shuffle(order)
    shuffled = _sym4_on_g38().classes
    got = {i: shuffled[i] for i in order}
    assert tuple(got[i] for i in range(15)) == forward == tuple(shuffled)


def test_sym_power_classes_behave_as_their_tuple():
    q = R25.tautological("quotient")
    eager = ChernVector(R25, 10, tuple(sym_power(q, 3).classes))
    assert type(eager.classes) is tuple
    assert repr(sym_power(q, 3)) == repr(eager)  # repr of a vector nothing has read
    v = sym_power(q, 3)
    assert v.classes[-1] == eager.classes[5] and v.classes[-6] == eager.classes[0]
    for index in (6, -7):
        with pytest.raises(IndexError):
            v.classes[index]
    assert v.classes[1:4] == eager.classes[1:4]
    assert len(v.classes) == 6 and list(v.classes) == list(eager.classes)
    assert v.classes == eager.classes and eager.classes == v.classes
    assert not v.classes != eager.classes and not eager.classes != v.classes
    assert v.classes == sym_power(q, 3).classes and v == eager and eager == v
    for other in ((R25.zero(),) * 6, eager.classes[:5]):
        assert v.classes != other and other != v.classes
    assert v.classes != list(eager.classes)  # a list is not a tuple, as for tuples
    assert pickle.loads(pickle.dumps(v)) == v
    assert copy.deepcopy(v) == v and copy.copy(v) == v
    for value in (v, v.classes):
        with pytest.raises(TypeError):
            hash(value)


def _sum_on_g38():
    ring = GrassRing(GrassCtx(3, 8))
    return direct_sum(ring.tautological("quotient"), _sym4_on_g38(), ring.tautological("sub_dual"))


@pytest.mark.parametrize("make", [_sym4_on_g38, _sum_on_g38])
def test_threads_reading_one_lazy_vector_agree(make):
    v = make()
    orders = [list(range(15)), list(range(14, -1, -1)), list(range(0, 15, 2)) + list(range(1, 15, 2))]
    orders += [random.Random(t).sample(range(15), 15) for t in (4, 5, 6)]
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def read(t):
        barrier.wait()
        got = {i: v.classes[i] for i in orders[t]}
        results[t] = tuple(got[i] for i in range(15))

    threads = [threading.Thread(target=read, args=(t,)) for t in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the fills
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [tuple(make().classes)] * len(orders)


def _plainly(vector, base, m):
    # each class as sum coeff * prod c_i^e_i of its polynomial: no shared
    # monomials, no Horner's rule
    ring = vector.ring
    out = []
    for p in _sym_chern_polys(base.rank, m, len(vector.classes)):
        acc = ring.zero()
        for expo, coeff in p.items():
            term = ring.one()
            for c, e in zip(base.classes, expo):
                if e:
                    term = term * c**e
            acc = acc + coeff * term
        out.append(acc)
    return tuple(out)


def _sym_cases():
    for k, n in ((2, 5), (3, 6), (4, 8)):
        ring = GrassRing(GrassCtx(k, n))
        for which in ("sub", "sub_dual", "quotient"):
            yield f"{which} on G({k},{n})", ring.tautological(which)
    pb = ProjBundleRing(sym_power(R35.tautological("sub_dual"), 2))
    yield "sub_dual on P(Sym^2 S*) over G(3,5)", pb.pullback(R35.tautological("sub_dual"))


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("base", [pytest.param(base, id=name) for name, base in _sym_cases()])
def test_sym_power_classes_equal_their_polynomials_summed_plainly(base, m):
    plain = _plainly(sym_power(base, m), base, m)
    assert tuple(sym_power(base, m).classes) == plain  # ascending
    backward = sym_power(base, m).classes
    assert tuple(backward[i] for i in reversed(range(len(plain)))) == plain[::-1]
    assert sym_power(base, m).classes[-1] == plain[-1]  # the top class alone


def test_plane_counts_need_few_ring_products(multiply_calls):
    # Horner's rule in c_1 substitutes the three planes counts' top classes
    # with 162 ring products; one product per monomial takes 384
    calls = multiply_calls
    schubert._PRODUCTS.clear()
    for k, n, m in ((3, 8, 4), (4, 9, 3), (3, 10, 5)):
        v = sym_power(GrassRing(GrassCtx(k, n)).tautological("sub_dual"), m)
        v.c(v.rank)
    assert len(calls) <= 170


def test_chern_vector_indexing():
    e = R25.tautological("sub_dual")
    assert e.rank == 2
    assert e.c(0) == R25.one()
    assert e.c(1) == R25.schubert((1,))
    assert e.c(2) == R25.schubert((1, 1))
    assert e.c(3) == R25.zero()
    for index in (-1, True, False, 1.0):
        with pytest.raises(ValueError):
            e.c(index)
    for rank in (2.0, True, -1):
        with pytest.raises(ValueError):
            ChernVector(R25, rank, e.classes)


def test_trivial_bundle():
    t = ChernVector.trivial(R25, 4)
    assert t.rank == 4
    assert all(t.c(i) == R25.zero() for i in range(1, 5))


def test_dual_is_an_involution():
    for which in ("sub", "sub_dual", "quotient"):
        e = R35.tautological(which)
        assert dual_bundle(dual_bundle(e)).classes == e.classes
    assert dual_bundle(R35.tautological("sub")).classes == R35.tautological("sub_dual").classes


def test_whitney_sum_of_tautologicals_is_trivial():
    for ring in (R25, R35):
        s = ring.tautological("sub")
        q = ring.tautological("quotient")
        total = direct_sum(s, q)
        assert total.rank == ring.ctx.n
        assert all(c == ring.zero() for c in total.classes)


def test_quotient_recovers_tautological_quotient():
    # 0 -> S -> O^n -> Q -> 0 on the Grassmannian
    for ring in (R25, R35):
        n = ring.ctx.n
        q = whitney_quotient(ChernVector.trivial(ring, n), ring.tautological("sub"))
        assert q.rank == n - ring.ctx.k
        assert q.classes == ring.tautological("quotient").classes


def test_quotient_rank_validation():
    with pytest.raises(ValueError):
        whitney_quotient(R25.tautological("sub"), ChernVector.trivial(R25, 2))
    with pytest.raises(ValueError):
        whitney_quotient(R25.tautological("sub"), R35.tautological("sub"))


def test_quotient_that_is_no_bundle_is_rejected():
    # c(Sym^2 S*)/c(S*) = 1 + 2 sigma_1 + (2 sigma_1^2 + sigma_2) + ... has a
    # degree-2 class, so it is no line bundle
    sdual = R25.tautological("sub_dual")
    with pytest.raises(ValueError, match="not a bundle of rank 1"):
        whitney_quotient(sym_power(sdual, 2), sdual)


def test_quotient_division_is_checked_by_multiplying_back(monkeypatch):
    q = R25.tautological("quotient")
    whitney_quotient(sym_power(q, 3), q)
    inner = chern.direct_sum

    def perturbed(*bundles):
        out = inner(*bundles)
        classes = list(out.classes)
        classes[1] = classes[1] + out.ring.schubert((2,))
        return ChernVector(out.ring, out.rank, tuple(classes))

    monkeypatch.setattr(chern, "direct_sum", perturbed)
    with pytest.raises(ArithmeticError, match="failed its own check"):
        whitney_quotient(sym_power(q, 3), q)


def _series_product(a, b, ring, top):
    # c(A) c(B) through degree top, one plain sum per degree: the c_0 = 1 terms
    # are added and products with a zero class skipped, as _SumClasses does
    out = [ring.one()]
    for d in range(1, top + 1):
        acc = a[d] + b[d]
        for i in range(1, d):
            if a[i] and b[d - i]:
                acc = acc + a[i] * b[d - i]
        out.append(acc)
    return out


def test_quotient_times_the_sub_bundle_gives_the_total():
    # the conic recipe's pair for a quintic: Sym^5 S* over Sym^3 S* (x) O(-1);
    # the product shares no code with the division or with _SumClasses
    ring = ProjBundleRing(sym_power(R35.tautological("sub_dual"), 2))
    sdual = ring.pullback(R35.tautological("sub_dual"))
    f, s = sym_power(sdual, 5), tensor_line(sym_power(sdual, 3), -ring.zeta(1))
    top = ring.top_degree
    quot = whitney_quotient(f, s)
    assert quot.rank == top == 11
    assert _series_product(s.total_series(top), quot.total_series(top), ring, top) == f.total_series(top)


def test_tensor_line_c1_shift():
    e = R25.tautological("sub_dual")
    ell = R25.schubert((1,))
    twisted = tensor_line(e, ell)
    assert twisted.rank == e.rank
    assert twisted.c(1) == e.c(1) + 2 * ell


def test_tensor_line_rejects_mixed_degree():
    e = R25.tautological("sub_dual")
    with pytest.raises(ValueError):
        tensor_line(e, R25.one() + R25.schubert((1,)))
    with pytest.raises(ValueError):
        tensor_line(e, R25.schubert((2,)))


def test_tensor_line_roundtrip_and_additivity():
    e = sym_power(R25.tautological("sub_dual"), 2)
    ell = R25.schubert((1,))
    assert tensor_line(tensor_line(e, ell), -ell).classes == e.classes
    once_twice = tensor_line(tensor_line(e, ell), 2 * ell)
    assert once_twice.classes == tensor_line(e, 3 * ell).classes


def test_tensor_line_rank_above_top_degree():
    from curvecount.projbundle import ProjBundleRing

    r24 = GrassRing(GrassCtx(2, 4))
    pb = ProjBundleRing(r24.tautological("sub"))
    cases = [
        (sym_power(r24.tautological("sub_dual"), 4), r24.schubert((1,))),
        (pb.pullback(sym_power(r24.tautological("quotient"), 5)), pb.zeta(1)),
    ]
    for e, ell in cases:
        top = e.ring.top_degree
        assert e.rank > top
        twisted = tensor_line(e, ell)
        assert twisted.rank == e.rank
        assert twisted.c(1) == e.c(1) + e.rank * ell
        assert all(not twisted.c(i) for i in range(top + 1, e.rank + 1))
        assert tensor_line(twisted, -ell).classes == e.classes


def test_tensor_line_by_zero_is_identity():
    e = R35.tautological("quotient")
    assert tensor_line(e, R35.zero()).classes == e.classes


def test_sym_power_on_grassmannian():
    e = R25.tautological("sub_dual")
    quintic = sym_power(e, 5)
    assert quintic.rank == 6
    assert R25.integrate(quintic.c(6)) == 2875


def test_sym_power_rank_zero_edge():
    z = ChernVector.trivial(R25, 0)
    assert sym_power(z, 0).rank == 1
    assert sym_power(z, 3).rank == 0
    for m in (True, 2.0, -1):
        with pytest.raises(ValueError):
            sym_power(R25.tautological("sub_dual"), m)


def test_segre_closed_forms():
    e = R25.tautological("sub_dual")
    c1, c2 = e.c(1), e.c(2)
    s = segre(e, 4)
    assert s[0] == R25.one()
    assert s[1] == -c1
    assert s[2] == c1**2 - c2
    assert s[3] == -(c1**3) + 2 * c1 * c2
    assert s[4] == c1**4 - 3 * c1**2 * c2 + c2**2


def test_segre_inverts_total_class():
    for ring, bundle in [
        (R25, R25.tautological("sub_dual")),
        (R35, sym_power(R35.tautological("sub_dual"), 2)),
    ]:
        top = ring.top_degree
        s = bundle.total_series(top)
        t = segre(bundle, top)
        for d in range(1, top + 1):
            acc = ring.zero()
            for i in range(d + 1):
                acc = acc + s[i] * t[d - i]
            assert acc == ring.zero()


def test_direct_sum_rank_and_commutativity():
    a = R25.tautological("sub_dual")
    b = R25.tautological("quotient")
    ab = direct_sum(a, b)
    ba = direct_sum(b, a)
    assert ab.rank == 5
    assert ab.classes == ba.classes


def test_direct_sum_rejects_what_is_not_a_chern_vector():
    # the classes are read lazily, so every summand is checked at the call
    e = R25.tautological("sub")
    for bad in ((5,), (e, 5), (5, e), (e, e.classes)):
        with pytest.raises(ValueError, match="summands must be Chern vectors"):
            direct_sum(*bad)
    with pytest.raises(ValueError, match="need at least one summand"):
        direct_sum()
    with pytest.raises(ValueError, match="summands live in different rings"):
        direct_sum(e, R35.tautological("sub"))
    assert direct_sum(e) is e


def _eager_sum(*bundles):
    # the Whitney product as one eager fold of total series through the top
    # degree, by the plain per-degree product above
    ring = bundles[0].ring
    rank = sum(b.rank for b in bundles)
    top = min(rank, ring.top_degree)
    series = bundles[0].total_series(top)
    for b in bundles[1:]:
        series = _series_product(series, b.total_series(top), ring, top)
    return ChernVector(ring, rank, tuple(series[1:]))


def _summands(ring):
    s, q = ring.tautological("sub"), ring.tautological("quotient")
    return [s, ring.tautological("sub_dual"), q, dual_bundle(q), sym_power(ring.tautological("sub_dual"), 2), sym_power(s, 3)]


def _sum_cases():
    rng = random.Random(25)
    for k, n in ((2, 5), (3, 6), (2, 8), (3, 7)):
        ring = GrassRing(GrassCtx(k, n))
        pool = _summands(ring)
        for size in (2, 3, 4):
            for _ in range(4):
                yield f"G({k},{n})", [rng.choice(pool) for _ in range(size)]
    pb = ProjBundleRing(sym_power(R35.tautological("sub_dual"), 2))
    zeta = pb.zeta(1)
    # Sym^3 S* has rank 10, above the base's dimension 6: its c_7..c_10 pull back to zero
    base = [pb.pullback(b) for b in _summands(R35)] + [pb.pullback(sym_power(R35.tautological("sub_dual"), 3))]
    twisted = [tensor_line(base[1], zeta), tensor_line(base[2], -zeta), tensor_line(base[4], 2 * zeta)]
    pool = base + twisted
    for size in (2, 3, 4):
        for _ in range(4):
            yield "P(Sym^2 S*) over G(3,5)", [rng.choice(pool) for _ in range(size)] + [rng.choice(twisted)]


@pytest.mark.parametrize("summands", [pytest.param(b, id=f"{name}-{i}") for i, (name, b) in enumerate(_sum_cases())])
def test_lazy_sums_equal_the_eager_fold(summands):
    eager = _eager_sum(*summands)
    depth = len(eager.classes)
    assert direct_sum(*summands) == eager
    assert tuple(direct_sum(*summands).classes) == eager.classes  # ascending
    backward = direct_sum(*summands).classes
    assert [backward[i] for i in reversed(range(depth))] == list(eager.classes)[::-1]
    order = random.Random(depth).sample(range(depth), depth)
    shuffled = direct_sum(*summands).classes
    got = {i: shuffled[i] for i in order}
    assert tuple(got[i] for i in range(depth)) == eager.classes
    assert direct_sum(*summands).classes[-1] == eager.classes[-1]  # the top class alone
    nested = direct_sum(direct_sum(*summands[:2]), *summands[2:])
    assert nested.rank == eager.rank and nested.classes == eager.classes


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (2, 8), (3, 7)])
def test_a_full_read_of_a_sum_costs_no_more_products_than_the_fold(k, n, multiply_calls):
    calls = multiply_calls
    pool = _summands(GrassRing(GrassCtx(k, n)))
    for b in pool:
        tuple(b.classes)  # fill the symmetric powers first: only the sums are counted
    calls.clear()
    for size in (2, 3, 4):
        summands = pool[:size] + pool[-1:]
        eager = _eager_sum(*summands).classes
        fold = len(calls)
        calls.clear()
        assert tuple(direct_sum(*summands).classes) == eager
        assert len(calls) <= fold
        calls.clear()


def test_the_top_class_of_a_sum_is_the_product_of_top_classes(multiply_calls):
    # rank 3 * 2 = 6 = dim G(2,5): c_6 of S* + S* + S* is c_2(S*)^3 = sigma[3,3],
    # two ring products, where the fold multiplies out every class
    parts = [R25.tautological("sub_dual")] * 3
    top = R25.schubert((3, 3))
    assert direct_sum(*parts).c(6) == top
    assert len(multiply_calls) == 2
    assert _eager_sum(*parts).c(6) == top and len(multiply_calls) > 2 + 2


def test_line_counts_need_few_ring_products(multiply_calls):
    # c_top of a sum whose rank is the dimension is a product of the summands'
    # top classes: the six classical line counts make 29 ring products, and
    # 171 when every class of every sum is multiplied out
    from curvecount.recipes import lines_on_complete_intersection

    schubert._PRODUCTS.clear()
    counts = [lines_on_complete_intersection(n, d).count for n, d in ((4, (5,)), (3, (3,)), (7, (2, 2, 2, 2)), (6, (2, 2, 3)), (5, (3, 3)), (5, (2, 4)))]
    assert counts == [2875, 27, 512, 720, 1053, 1280]
    assert len(multiply_calls) <= 40


def test_the_conic_count_needs_few_bundle_products(monkeypatch):
    # from cold caches the 609250 conics make 158 products in P(Sym^2 S*), the
    # quotient's check included; computing that check's products twice breaks this
    from curvecount import dsl, projbundle
    from curvecount.recipes import conics_on_quintic_type

    for cache in (dsl._resolve_context, dsl._eval_bundle, dsl._eval_atom, dsl._node):
        cache.cache_clear()
    schubert._PRODUCTS.clear()
    calls = []
    inner = projbundle.pb_multiply

    def counting(x, y):
        calls.append(1)
        return inner(x, y)

    monkeypatch.setattr(projbundle, "pb_multiply", counting)
    assert conics_on_quintic_type(5).count == 609250
    assert len(calls) <= 160


def test_classes_stop_at_the_top_degree():
    q = R25.tautological("quotient")
    for e in (sym_power(q, 3), tensor_line(sym_power(q, 3), R25.schubert((1,))), direct_sum(q, q, q)):
        assert e.rank > R25.top_degree
        assert len(e.classes) == R25.top_degree
        assert not e.c(e.rank)
    assert len(whitney_quotient(sym_power(q, 3), q).classes) == R25.top_degree
    assert ChernVector.trivial(R25, 10).classes == (R25.zero(),) * R25.top_degree
    with pytest.raises(ValueError):
        ChernVector(R25, 10, (R25.zero(),) * 10)


_HUGE_SYM_POWER = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from curvecount.chern import GrassRing, sym_power
from curvecount.schubert import GrassCtx
e = sym_power(sym_power(GrassRing(GrassCtx(2, 5)).tautological("quotient"), 12), 12)
print(e.rank, len(e.classes), e.c(1))
"""


def test_sym_power_of_huge_rank_stores_only_the_top_degree():
    # rank 1.35e15: one stored class per unit of rank cannot fit in 1 GiB
    src = str(Path(curvecount.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HUGE_SYM_POWER], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    c1 = math.comb(102, 91) * math.comb(14, 3)  # c_1(Sym^m E) = binom(m + r - 1, r) c_1(E)
    assert proc.stdout.split() == [str(math.comb(102, 90)), "6", f"{c1}*sigma[1]"]
