import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from curvecount.chern import ChernVector, GrassRing, segre, sym_power
from curvecount.projbundle import PBElement, ProjBundleRing, pb_integrate, pb_multiply, pb_pushforward
from curvecount.schubert import GrassCtx, Partition, SchubertCycle, integrate, multiply, schubert_class


def conic_ring():
    base = GrassRing(GrassCtx(3, 5))
    return ProjBundleRing(sym_power(base.tautological("sub_dual"), 2))


def taut_ring(k, n, which):
    base = GrassRing(GrassCtx(k, n))
    return ProjBundleRing(base.tautological(which))


def test_ring_shape():
    pb = conic_ring()
    assert pb.fiber_rank == 6
    assert pb.top_degree == 6 + 6 - 1  # base dim + fiber dim
    assert str(pb) == "P(E^6) over G(3,5)"


def test_requires_positive_rank():
    base = GrassRing(GrassCtx(2, 4))
    with pytest.raises(ValueError):
        ProjBundleRing(ChernVector.trivial(base, 0))


def test_requires_a_grassmannian_base():
    pb = taut_ring(2, 4, "sub")
    with pytest.raises(ValueError):
        ProjBundleRing(pb.pullback(pb.base.tautological("sub")))


def test_ring_is_a_record_over_its_bundle():
    base = GrassRing(GrassCtx(2, 4))
    five, six = ProjBundleRing(ChernVector.trivial(base, 5)), ProjBundleRing(ChernVector.trivial(base, 6))
    assert five == ProjBundleRing(ChernVector.trivial(base, 5)) and not five != ProjBundleRing(ChernVector.trivial(base, 5))
    # same base and the same (zero) classes, but different fiber ranks
    assert five != six and not five == six
    with pytest.raises(ValueError):
        five.zeta(4) + six.zeta(5)
    with pytest.raises(AttributeError):
        five.bundle = six.bundle
    assert (five.base, five.fiber_rank) == (base, 5)
    with pytest.raises(TypeError):  # its classes are cycles, which are unhashable
        hash(five)


def test_ring_copies_keep_the_relation():
    pb = conic_ring()
    for twin in (copy.copy(pb), copy.deepcopy(pb), pickle.loads(pickle.dumps(pb))):
        assert type(twin) is ProjBundleRing and twin == pb and not twin != pb
        assert twin._relation == pb._relation
        assert twin.zeta(8) == pb.zeta(8)


def test_ring_repr():
    pb = taut_ring(2, 4, "sub")
    assert repr(pb) == ("ProjBundleRing(bundle=ChernVector(ring=GrassRing(ctx=GrassCtx(k=2, n=4)), rank=2, "
                        "classes=(<SchubertCycle -sigma[1] on G(2,4)>, <SchubertCycle sigma[1,1] on G(2,4)>)))")
    assert repr(pb.zeta(1)) == "<PBElement zeta on P(E^2) over G(2,4)>"


def test_relation_is_zeta_to_the_rank():
    # c(S) = 1 - sigma_1 + sigma_11 on G(2,4): zeta^2 = sigma_1 zeta - sigma_11
    pb = taut_ring(2, 4, "sub")
    assert pb._relation == ((1, ((Partition((1,)), 1),)), (0, ((Partition((1, 1)), -1),)))
    assert pb.zeta(2) == pb.from_base(pb.base.schubert((1,))) * pb.zeta(1) - pb.base.schubert((1, 1))
    # Sym^4 S* has rank 5 over G(2,4), of top degree 4: c_5 is not stored,
    # so the relation has no zeta^0 term
    base = GrassRing(GrassCtx(2, 4))
    high = ProjBundleRing(sym_power(base.tautological("sub_dual"), 4))
    assert len(high.bundle.classes) == 4
    assert {j for j, _ in high._relation} == {1, 2, 3, 4}


def test_zeta_at_the_rank_builds_no_product(monkeypatch):
    import curvecount.projbundle as projbundle

    calls = []
    inner = projbundle.pb_multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(projbundle, "pb_multiply", counting)
    for pb in (taut_ring(2, 4, "sub"), conic_ring(), rank_one_ring()):
        for j in range(pb.fiber_rank + 1):
            pb.zeta(j)
    assert calls == []
    conic_ring().zeta(13)  # zeta^6 * zeta^7, zeta^7 = zeta^6 * zeta
    assert len(calls) == 2


def test_zeta_powers_run_in_a_loop():
    # on a rank-one bundle zeta^3000 is the relation's 3000th power, deeper
    # than a recursion per power can go; Sym^0 is trivial, so zeta is zero
    trivial = ProjBundleRing(sym_power(GrassRing(GrassCtx(2, 4)).tautological("sub_dual"), 0))
    assert trivial.fiber_rank == 1 and trivial.zeta(3000) == trivial.zero()
    for pb in (trivial, taut_ring(2, 4, "sub"), taut_ring(2, 5, "quotient"), conic_ring()):
        zeta = pb.zeta(1)
        for k in range(2 * pb.fiber_rank + 2):
            assert pb.zeta(k) == zeta ** k, (pb, k)


def test_zeta_powers_must_be_integers():
    pb = taut_ring(2, 4, "sub")
    for power in (1.5, 1.0, True, -1):
        with pytest.raises(ValueError):
            pb.zeta(power)


def test_zeta_powers_stay_canonical():
    pb = conic_ring()
    r = pb.fiber_rank
    for j in range(2 * r):
        elt = pb.zeta(j)
        # canonical form never shows zeta^r or higher
        assert len(elt.coeffs) == r
    assert pb.zeta(0) == pb.one()


def test_a_huge_power_of_a_positive_degree_class_is_zero_at_once():
    # each power raises the degree, so the loop meets zero within the top
    # degree instead of running 10**9 - 1 products
    pb = conic_ring()
    for x in (pb.zeta(1), pb.from_base(schubert_class(GrassCtx(3, 5), (1,))), pb.zeta(1) + pb.zeta(2)):
        assert x ** 10**9 == pb.zero()


def test_hyperplane_relation():
    # sum_i pi*(c_i(E)) zeta^(r-i) = 0 is the defining relation
    for pb in (conic_ring(), taut_ring(2, 4, "sub"), taut_ring(2, 5, "quotient")):
        bundle = pb.pullback(pb.bundle)
        r = pb.fiber_rank
        acc = pb.zero()
        for i in range(r + 1):
            acc = acc + bundle.c(i) * pb.zeta(r - i)
        assert acc == pb.zero()
        # zeta(r) is the stored relation, so the relation above holds by
        # construction; with zeta^r as a product it runs the reduction
        acc = pb.zeta(r - 1) * pb.zeta(1)
        for i in range(1, r + 1):
            acc = acc + bundle.c(i) * pb.zeta(r - i)
        assert acc == pb.zero()


def test_pushforward_of_low_powers_vanishes():
    pb = conic_ring()
    r = pb.fiber_rank
    for j in range(r - 1):
        assert pb_pushforward(pb.zeta(j)) == pb.base.zero()
    assert pb_pushforward(pb.zeta(r - 1)) == pb.base.one()


def test_pushforward_gives_segre_classes():
    for pb in (conic_ring(), taut_ring(2, 4, "sub"), taut_ring(2, 5, "quotient")):
        r = pb.fiber_rank
        s = segre(pb.bundle, pb.base.top_degree)
        for j in range(pb.base.top_degree + 1):
            assert pb_pushforward(pb.zeta(r - 1 + j)) == s[j]


def test_rank_one_bundle_is_the_base():
    # P(L) of a line bundle is the base itself; zeta = -c1(L)
    base = GrassRing(GrassCtx(2, 4))
    pb = ProjBundleRing(base.tautological("sub") )
    assert pb.fiber_rank == 2
    base12 = GrassRing(GrassCtx(1, 3))
    line = ChernVector(base12, 1, (base12.schubert((1,)),))
    flat = ProjBundleRing(line)
    assert flat.fiber_rank == 1
    assert flat.top_degree == base12.top_degree
    assert flat.zeta(1) == flat.from_base(-base12.schubert((1,)))
    assert pb_integrate(flat.from_base(base12.schubert((2,)))) == 1


def test_integration_of_point_times_top_zeta():
    pb = conic_ring()
    point = pb.from_base(pb.base.schubert((2, 2, 2)))
    assert pb_integrate(point * pb.zeta(5)) == 1
    assert pb_integrate(point * pb.zeta(4)) == 0
    assert pb_integrate(pb.one()) == 0


def test_projection_formula():
    rng = random.Random(3)
    pb = conic_ring()
    basis = pb.base.ctx.box_partitions()
    for _ in range(30):
        alpha = schubert_class(pb.base.ctx, rng.choice(basis))
        beta = pb.from_base(schubert_class(pb.base.ctx, rng.choice(basis))) * pb.zeta(rng.randint(0, 5))
        lhs = pb_integrate(pb.from_base(alpha) * beta)
        rhs = integrate(multiply(alpha, pb_pushforward(beta)))
        assert lhs == rhs


def test_element_arithmetic_laws():
    rng = random.Random(9)
    pb = taut_ring(2, 5, "sub")
    basis = pb.base.ctx.box_partitions()

    def rand_elt():
        acc = pb.zero()
        for _ in range(rng.randint(1, 3)):
            cyc = rng.randint(-2, 2) * schubert_class(pb.base.ctx, rng.choice(basis))
            acc = acc + pb.from_base(cyc) * pb.zeta(rng.randint(0, 1))
        return acc

    for _ in range(50):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    assert pb.one() * x == x
    assert 0 * x == pb.zero()


def test_coercion_with_base_and_integers():
    pb = taut_ring(2, 4, "sub")
    s1 = pb.base.schubert((1,))
    # SchubertCycle and int mix freely with bundle elements
    elt = s1 + pb.zeta(1)
    assert elt == pb.from_base(s1) + pb.zeta(1)
    assert (1 + pb.zeta(1)) - 1 == pb.zeta(1)
    assert s1 * pb.zeta(1) == pb.from_base(s1) * pb.zeta(1)
    # a bool is not an integer here
    for op in (lambda: pb.zeta(1) + True, lambda: True * pb.zeta(1), lambda: pb.zeta(1) * False):
        with pytest.raises(TypeError):
            op()


def test_component_and_codimensions():
    pb = conic_ring()
    mixed = pb.one() + pb.zeta(1) + pb.from_base(pb.base.schubert((1,))) * pb.zeta(2)
    assert mixed.component(0) == pb.one()
    assert mixed.component(1) == pb.zeta(1)
    assert mixed.component(3) == pb.from_base(pb.base.schubert((1,))) * pb.zeta(2)
    assert mixed.component(9) == pb.zero()
    # mixed has parts in codimensions 0, 1 and 3; zeta^2 only in 2
    assert mixed.component(0) + mixed.component(1) + mixed.component(3) == mixed
    assert all(mixed.component(d) for d in (0, 1, 3))
    assert pb.zeta(2).component(2) == pb.zeta(2)


def test_rendering():
    pb = taut_ring(2, 4, "sub")
    assert str(pb.zero()) == "0"
    assert str(pb.one()) == "1"
    assert str(pb.zeta(1)) == "zeta"
    assert str(3 * pb.zeta(1)) == "3*zeta"
    elt = pb.from_base(pb.base.schubert((1,))) * pb.zeta(1)
    assert str(elt) == "sigma[1]*zeta"


def test_mismatched_rings_do_not_mix():
    a = conic_ring()
    b = taut_ring(2, 4, "sub")
    with pytest.raises(ValueError):
        a.zeta(1) + b.zeta(1)


def test_pullback_preserves_chern_data():
    pb = conic_ring()
    up = pb.pullback(pb.base.tautological("sub_dual"))
    assert up.rank == 3
    assert up.c(1) == pb.from_base(pb.base.schubert((1,)))
    assert isinstance(up.c(1), PBElement)


def test_quintic_conic_count_through_raw_ring_ops():
    # full pipeline without the recipe wrapper
    from curvecount.chern import tensor_line, whitney_quotient

    pb = conic_ring()
    sym5 = pb.pullback(sym_power(pb.base.tautological("sub_dual"), 5))
    sym3 = pb.pullback(sym_power(pb.base.tautological("sub_dual"), 3))
    twisted = tensor_line(sym3, -pb.zeta(1))
    bundle = whitney_quotient(sym5, twisted)
    assert bundle.rank == 11
    assert pb_integrate(bundle.c(11)) == 609250


def test_series_loops_skip_empty_operands(monkeypatch):
    # classes of Sym^d S* above the base's top degree pull back to zero, and
    # c_0 = 1 and ell^0 = 1 are units: the twist, the Whitney series and the
    # symmetric-power monomials must not spend a product on either
    import curvecount.projbundle as projbundle
    from curvecount.chern import direct_sum, tensor_line, whitney_quotient

    pb = conic_ring()
    sdual = pb.base.tautological("sub_dual")
    pulled = {d: pb.pullback(sym_power(sdual, d)) for d in (1, 3, 5)}
    operands = []
    inner = projbundle.pb_multiply

    def counting(a, b):
        operands.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(projbundle, "pb_multiply", counting)
    pairs = [(pulled[d], tensor_line(pulled[d - 2], -pb.zeta(1))) for d in (5, 3)]
    quotients = [whitney_quotient(forms, ideal) for forms, ideal in pairs]
    total = direct_sum(*quotients, pb.pullback(sdual))
    tuple(total.classes)  # a sum multiplies on read
    sym_power(tensor_line(pb.pullback(sdual), pb.zeta(1)), 2)
    assert operands and all(a and b for a, b in operands)
    assert all(a != pb.one() and b != pb.one() for a, b in operands)
    assert total.rank == 11 + 7 + 3


CONIC_RING = conic_ring()


@st.composite
def conic_elements(draw):
    basis = CONIC_RING.base.ctx.box_partitions()
    acc = CONIC_RING.zero()
    for lam, j, c in draw(st.lists(st.tuples(st.sampled_from(basis), st.integers(0, 7), st.integers(-3, 3)),
                                   max_size=3)):
        acc = acc + c * schubert_class(CONIC_RING.base.ctx, lam) * CONIC_RING.zeta(j)
    return acc


def assert_valid_element(x):
    ring = x.ring
    revalidated = tuple(SchubertCycle(b.ctx, b.terms) for b in x.coeffs)
    assert PBElement(ring, x.coeffs) == x
    assert PBElement(ring, revalidated) == x
    ctx = ring.base.ctx
    for (j, lam), c in x.terms.items():
        assert 0 <= j < ring.fiber_rank
        assert isinstance(lam, Partition) and len(lam) <= ctx.k and (not lam or lam[0] <= ctx.width)
        assert tuple(lam) == tuple(Partition(lam))
        assert isinstance(c, int) and c != 0


@settings(max_examples=40, deadline=None)
@given(conic_elements(), conic_elements(), st.integers(-4, 4), st.integers(0, 3))
def test_trusted_results_equal_their_revalidated_copies(x, y, n, e):
    s1 = CONIC_RING.base.schubert((1,))
    for result in (x + y, x - y, -x, n * x, x * n, n + x, n - x, x - n, x + s1, s1 * x, x * y, x ** e):
        assert_valid_element(result)


def rank_one_ring():
    base = GrassRing(GrassCtx(1, 3))
    return ProjBundleRing(ChernVector(base, 1, (base.schubert((1,)),)))


def test_power_is_repeated_product():
    for pb in (taut_ring(2, 4, "sub"), conic_ring(), rank_one_ring()):
        r = pb.fiber_rank
        s1 = pb.from_base(pb.base.schubert((1,)))
        for x in (pb.zeta(1), pb.zeta(1) - s1, 2 * s1 + pb.zeta(r - 1)):
            acc = pb.one()
            for e in range(13):
                assert x ** e == acc
                acc = pb_multiply(acc, x)
        # zeta^j past the fiber rank, against a product that enters the relation once
        for j in range(r, 2 * r + 3):
            assert pb.zeta(j) == pb.zeta(r - 1) * pb.zeta(j - r + 1)
    flat = rank_one_ring()
    for j in range(5):
        assert flat.zeta(j) == flat.from_base((-flat.base.schubert((1,))) ** j)


def reference_product(x, y):
    """x * y through base cycles: split both factors into their zeta
    coefficients, multiply those with schubert.multiply, and rewrite
    zeta^j for j >= r through the relation, highest power first."""
    ring = x.ring
    r, base = ring.fiber_rank, ring.base
    slots = [base.zero()] * (2 * r - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            slots[i + j] = slots[i + j] + multiply(a, b)
    for power in range(2 * r - 2, r - 1, -1):
        top, slots[power] = slots[power], base.zero()
        for i in range(1, r + 1):
            slots[power - i] = slots[power - i] - multiply(top, ring.bundle.c(i))
    return PBElement(ring, tuple(slots[:r]))


PRODUCT_RINGS = (taut_ring(2, 4, "sub"), taut_ring(2, 5, "quotient"), CONIC_RING, rank_one_ring())


@st.composite
def bundle_operands(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    keys = st.tuples(st.integers(0, ring.fiber_rank - 1), st.sampled_from(ring.base.ctx.box_partitions()))

    def element():
        terms = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=6))
        return PBElement(ring, tuple(SchubertCycle(ring.base.ctx, {lam: c for (i, lam), c in terms.items() if i == j})
                                     for j in range(ring.fiber_rank)))

    return element(), element()


@settings(max_examples=150, deadline=None)
@given(bundle_operands())
def test_flat_product_matches_the_product_through_base_cycles(operands):
    x, y = operands
    product = pb_multiply(x, y)
    assert product == reference_product(x, y)
    assert_valid_element(product)


def _raise(*args, **kwargs):
    raise AssertionError("validating constructor called on an internal result")


def test_bundle_products_make_no_base_products(monkeypatch):
    import curvecount.schubert as schubert

    pb = conic_ring()
    s1, s21 = pb.base.schubert((1,)), pb.base.schubert((2, 1))
    x = pb.zeta(5) + s1 * pb.zeta(3) - 2 * s21
    y = pb.zeta(4) + s1 * pb.zeta(2) + 3
    expected = reference_product(x, y)
    calls = []
    inner = schubert.multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(schubert, "multiply", counting)
    monkeypatch.setattr(PBElement, "coeffs", property(_raise))
    assert x * y == expected
    assert calls == []


def test_arithmetic_never_calls_the_validating_constructors(monkeypatch):
    pb = conic_ring()
    s1 = pb.base.schubert((1,))
    x = pb.zeta(2) - 2 * s1
    y = s1 * pb.zeta(1) + 3
    expected = [x + y, x - y, -x, 3 * x, x * y, x ** 3, pb.zeta(8), pb_pushforward(x * y)]
    monkeypatch.setattr(SchubertCycle, "__init__", _raise)
    monkeypatch.setattr(PBElement, "__init__", _raise)
    assert [x + y, x - y, -x, 3 * x, x * y, x ** 3, pb.zeta(8), pb_pushforward(x * y)] == expected


def test_products_dispatch_through_module_pb_multiply(monkeypatch):
    import curvecount.projbundle as projbundle

    calls = []
    inner = projbundle.pb_multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    pb = taut_ring(2, 5, "sub")
    x, y = pb.zeta(1), pb.from_base(pb.base.schubert((1,)))
    monkeypatch.setattr(projbundle, "pb_multiply", counting)
    x * y
    assert len(calls) == 1
    x ** 3  # x * x * x: two products, none with the unit
    assert len(calls) == 3


def test_coefficients_must_be_cycles_on_the_base():
    pb = taut_ring(2, 4, "sub")
    other = schubert_class(GrassCtx(2, 5), (1,))
    with pytest.raises(ValueError):
        PBElement(pb, (other, pb.base.zero()))
    with pytest.raises(ValueError):
        pb.from_base(other)
    with pytest.raises(ValueError):
        pb.zeta(1) + other
