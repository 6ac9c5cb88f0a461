import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from curvecount.chern import (
    ChernVector,
    GrassRing,
    _exact_div,
    _sym_chern_polys,
    direct_sum,
    dual_bundle,
    segre,
    sym_power,
    tensor_line,
    whitney_quotient,
)
import curvecount
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


def test_exact_division_checks_remainders():
    assert _exact_div({(2, 0): 6, (0, 1): -4}, 2) == {(2, 0): 3, (0, 1): -2}
    # the in-place sums leave cancelled terms behind; the division drops them
    assert _exact_div({(1, 0): 0, (0, 1): 4}, 2) == {(0, 1): 2}
    with pytest.raises(ArithmeticError):
        _exact_div({(2, 0): 6, (0, 1): 3}, 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sym_chern_polys_hold_no_zero_coefficients(r):
    # sym_power pays one ring product per monomial, so a stored zero costs work, not an error
    for m in range(6):
        rank = math.comb(m + r - 1, r - 1)
        for top in {1, 2, 3, 6, min(rank, 10)}:
            if top <= rank:
                for p in _sym_chern_polys(r, m, top):
                    assert all(p.values()), (r, m, top)


@pytest.mark.parametrize("k,n,m,count", [(3, 8, 4, 3297280), (4, 9, 3, 321489), (3, 10, 5, 420760566875)])
def test_plane_counts(k, n, m, count):
    # top Chern integrals of Sym^m S* on G(k, n), where rank equals dimension
    ring = GrassRing(GrassCtx(k, n))
    bundle = sym_power(ring.tautological("sub_dual"), m)
    assert bundle.rank == ring.top_degree
    assert ring.integrate(bundle.c(bundle.rank)) == count


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
