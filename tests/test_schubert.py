import contextlib
import copy
import hashlib
import io
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from curvecount.schubert import (
    _PRODUCTS,
    GrassCtx,
    Partition,
    SchubertCycle,
    chern_tautological,
    dual_partition,
    integrate,
    multiply,
    schubert_class,
)
from curvecount.suites import lr_coefficient, multiply_lr

G24 = GrassCtx(2, 4)
G25 = GrassCtx(2, 5)
G36 = GrassCtx(3, 6)


partitions = st.lists(st.integers(min_value=0, max_value=6), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_partition_normalization():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()).weight == 0
    assert Partition((4, 2, 1)).weight == 7
    assert tuple(Partition([2, 2])) == (2, 2)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    # nothing rounds: a part that is not an int is an error
    for parts in ((2.7, 1.2), (2.0, 1), ("2", 1), (True,), (1, False)):
        with pytest.raises(ValueError):
            Partition(parts)


@given(partitions)
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight == lam.weight
    # column j of the diagram has one box for each row longer than j
    columns = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    assert type(lam.conjugate()) is Partition and tuple(lam.conjugate()) == tuple(columns)


@given(partitions, partitions)
def test_containment_is_a_partial_order(lam, mu):
    if lam.contains(mu) and mu.contains(lam):
        assert lam == mu


def test_ctx_basics():
    assert G24.dim == 4
    assert G25.width == 3
    assert G36.point == Partition((3, 3, 3))
    # the box of G(k, n) has k rows and n - k columns; schubert_class refuses what leaves it
    for lam, inside in (((2, 2), True), ((3,), False), ((1, 1, 1), False)):
        assert (len(lam) <= G24.k and lam[0] <= G24.width) == inside
        if not inside:
            with pytest.raises(ValueError):
                schubert_class(G24, lam)


def test_ctx_validation():
    with pytest.raises(ValueError):
        GrassCtx(0, 4)
    with pytest.raises(ValueError):
        GrassCtx(4, 4)
    with pytest.raises(ValueError):
        GrassCtx(5, 3)
    for k, n in ((True, 3), (2, 4.0), (2.0, 4), (1, "3")):
        with pytest.raises(ValueError):
            GrassCtx(k, n)


def test_box_partition_count_is_binomial():
    # partitions in a k x (n-k) box are counted by binom(n, k)
    for k, n in [(1, 4), (2, 4), (2, 5), (3, 6), (2, 7)]:
        ctx = GrassCtx(k, n)
        assert len(ctx.box_partitions()) == math.comb(n, k)


def test_box_partitions_by_weight():
    ctx = G24
    assert ctx.box_partitions(weight=0) == [Partition(())]
    assert ctx.box_partitions(weight=2) == [Partition((2,)), Partition((1, 1))]
    assert ctx.box_partitions(weight=4) == [Partition((2, 2))]
    # nothing rounds: a float or bool weight is not read as an integer
    for weight in (2.0, True, "x"):
        with pytest.raises(ValueError, match="weight"):
            ctx.box_partitions(weight=weight)


def test_dual_partition_examples():
    assert dual_partition((), G24) == Partition((2, 2))
    assert dual_partition((2,), G24) == Partition((2,))
    assert dual_partition((1,), G24) == Partition((2, 1))
    assert dual_partition((3, 1), G25) == Partition((2,))


def test_dual_partition_is_complementary():
    for ctx in (G24, G25, G36):
        for lam in ctx.box_partitions():
            comp = dual_partition(lam, ctx)
            assert lam.weight + comp.weight == ctx.dim
            assert dual_partition(comp, ctx) == lam


def _special_product(lam, a, ctx):
    # the Pieri product sigma_lam * sigma_a, as the engine runs it
    return schubert_class(ctx, lam) * schubert_class(ctx, (a,))


def test_pieri_rule_examples():
    sq = _special_product((1,), 1, G24)
    assert sq == schubert_class(G24, (2,)) + schubert_class(G24, (1, 1))
    # boundary of the box: sigma_2 * sigma_1 in G(2,4) loses the (3,) term
    edge = _special_product((2,), 1, G24)
    assert edge == schubert_class(G24, (2, 1))
    assert _special_product((2, 2), 1, G24) == SchubertCycle.zero(G24)
    assert _special_product((1,), 0, G25) == schubert_class(G25, (1,))


def test_pieri_validation():
    with pytest.raises(ValueError):
        _special_product((3,), 1, G24)
    with pytest.raises(ValueError):
        _special_product((1,), 4, G25)
    with pytest.raises(ValueError):
        _special_product((1,), -1, G25)
    for a in (True, 1.0, 1.5):
        with pytest.raises(ValueError):
            _special_product((1,), a, G25)


def test_pieri_check_catches_a_missing_strip(monkeypatch):
    import curvecount.schubert as schubert
    from curvecount.suites import _bulk, _pieri_check

    contexts = [GrassCtx(2, 4), GrassCtx(2, 5)]
    assert _bulk("pieri-multiplicity-free", _pieri_check(contexts)).passed
    inner = schubert._vertical_strips
    # the check reads the product table: it starts empty, and no entry built under the patch outlives it
    _PRODUCTS.clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(schubert, "_vertical_strips", lambda lam, a, rows, width: inner(lam, a, rows, width)[:-1])
            assert not _bulk("pieri-multiplicity-free", _pieri_check(contexts)).passed
    finally:
        _PRODUCTS.clear()


def test_power_tower_in_g24():
    s1 = schubert_class(G24, (1,))
    assert s1**2 == schubert_class(G24, (2,)) + schubert_class(G24, (1, 1))
    assert s1**3 == 2 * schubert_class(G24, (2, 1))
    assert s1**4 == 2 * schubert_class(G24, (2, 2))
    assert integrate(s1**4) == 2
    for exponent in (True, 2.0, -1):
        with pytest.raises(ValueError):
            s1**exponent


def test_degree_of_grassmannian_matches_factorial_formula():
    # deg G(k,n) = (k(n-k))! * prod_i i! / (n-k+i)!  for i = 0..k-1
    for k, n in [(2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (1, 5)]:
        ctx = GrassCtx(k, n)
        expected = math.factorial(ctx.dim)
        for i in range(k):
            expected = expected * math.factorial(i) // math.factorial(n - k + i)
        assert integrate(schubert_class(ctx, (1,)) ** ctx.dim) == expected


def test_point_class_integrates_to_one():
    for ctx in (G24, G25, G36):
        assert integrate(schubert_class(ctx, ctx.point)) == 1
        assert integrate(SchubertCycle.unit(ctx)) == 0


def test_out_of_box_class_rejected():
    with pytest.raises(ValueError):
        schubert_class(G24, (3,))
    with pytest.raises(ValueError):
        SchubertCycle(G24, {Partition((1, 1, 1)): 1})
    for coeff in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError):
            SchubertCycle(G24, {(1,): coeff})


OUT_OF_BOX = "partition (3,) does not fit the box of G(2,4)"


def _raised(build):
    def message():
        with pytest.raises(ValueError) as info:
            build()
        return str(info.value)
    return message


def _cli_message():
    from curvecount import cli

    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["grass", "sigma[3] in G(2,4)"]) == 1
    return err.getvalue().removeprefix("evaluation error: ").removesuffix("\n")


@pytest.mark.parametrize(
    "entry",
    [
        _raised(lambda: SchubertCycle(G24, {(3,): 1})),
        _raised(lambda: schubert_class(G24, (3,))),
        _raised(lambda: dual_partition((3, 0), G24)),
        _cli_message,
    ],
    ids=["SchubertCycle", "schubert_class", "dual_partition", "cli"],
)
def test_every_entry_reports_an_out_of_box_partition_alike(entry):
    assert entry() == OUT_OF_BOX


def test_each_entering_partition_is_validated_once(monkeypatch):
    import curvecount.schubert as schubert
    from curvecount import dsl
    from curvecount.dsl import evaluate

    # a cached atom is not validated again, so the DSL starts cold
    for cache in (dsl._resolve_context, dsl._eval_bundle, dsl._eval_atom, dsl._node):
        cache.cache_clear()
    calls = []
    inner = schubert.Partition.__new__

    def counting(cls, parts=()):
        calls.append(parts)
        return inner(cls, parts)

    x = (schubert_class(G25, (2, 1)) + 1) ** 2
    monkeypatch.setattr(schubert.Partition, "__new__", counting)
    schubert_class(G25, (2, 1))
    assert len(calls) == 1
    evaluate("sigma[2,1] in G(2,5)")
    assert len(calls) == 2
    assert integrate(x) == 1
    assert len(calls) == 2


def test_cycles_from_different_contexts_do_not_mix():
    with pytest.raises(ValueError):
        schubert_class(G24, (1,)) + schubert_class(G25, (1,))
    with pytest.raises(ValueError):
        multiply(schubert_class(G24, (1,)), schubert_class(G25, (1,)))


def test_integer_coercion_in_arithmetic():
    s1 = schubert_class(G24, (1,))
    assert 1 + s1 - 1 == s1
    assert 3 * s1 == s1 + s1 + s1
    assert s1 * 0 == SchubertCycle.zero(G24)
    assert (2 - s1) + (s1 - 2) == SchubertCycle.zero(G24)


def test_bools_are_not_scalars():
    s1 = schubert_class(G24, (1,))
    one = schubert_class(G24, ())
    for flag in (True, False):
        for op in (lambda: s1 + flag, lambda: flag + s1, lambda: s1 - flag, lambda: flag - s1,
                   lambda: s1 * flag, lambda: flag * s1):
            with pytest.raises(TypeError):
                op()
    assert one != True and s1 * 1 == 1 * s1 == s1  # noqa: E712


def test_component_and_homogeneity():
    s1 = schubert_class(G25, (1,))
    mix = 1 + s1 + s1 * s1
    assert mix.component(1) == s1
    assert mix.component(3) == SchubertCycle.zero(G25)
    # mix has parts in codimensions 0, 1 and 2; s1 * s1 only in 2
    assert mix.component(0) + mix.component(1) + mix.component(2) == mix
    assert all(mix.component(d) for d in (0, 1, 2))
    assert (s1 * s1).component(2) == s1 * s1


def test_rendering():
    s = schubert_class(G24, (1,))
    assert str(s * s) == "sigma[2] + sigma[1,1]"
    assert str(2 * schubert_class(G24, (2, 2))) == "2*sigma[2,2]"
    assert str(SchubertCycle.zero(G24)) == "0"
    assert str(SchubertCycle.unit(G24)) == "1"
    assert str(-s) == "-sigma[1]"
    assert str(1 - s) == "1 - sigma[1]"


def test_tautological_chern_classes():
    # c(S) and c(Q) are cut out of the sigma basis
    assert chern_tautological(G25, "sub_dual", 1) == schubert_class(G25, (1,))
    assert chern_tautological(G25, "sub_dual", 2) == schubert_class(G25, (1, 1))
    assert chern_tautological(G25, "sub", 1) == -schubert_class(G25, (1,))
    assert chern_tautological(G25, "quotient", 2) == schubert_class(G25, (2,))
    assert chern_tautological(G25, "quotient", 0) == SchubertCycle.unit(G25)
    with pytest.raises(ValueError):
        chern_tautological(G25, "sub", 3)
    with pytest.raises(ValueError):
        chern_tautological(G25, "mystery", 1)
    for i in (True, 1.0):
        with pytest.raises(ValueError):
            chern_tautological(G25, "sub", i)


def test_whitney_sum_of_tautologicals_is_trivial():
    for ctx in (G24, G25, G36):
        for d in range(1, ctx.n + 1):
            acc = SchubertCycle.zero(ctx)
            for i in range(d + 1):
                if i <= ctx.k and d - i <= ctx.n - ctx.k:
                    acc = acc + multiply(
                        chern_tautological(ctx, "sub", i),
                        chern_tautological(ctx, "quotient", d - i),
                    )
            assert acc == SchubertCycle.zero(ctx), (ctx, d)


def test_duality_pairing_orthonormal():
    for ctx in (G24, G25):
        basis = ctx.box_partitions()
        for lam in basis:
            for mu in basis:
                if lam.weight + mu.weight != ctx.dim:
                    continue
                got = integrate(multiply(schubert_class(ctx, lam), schubert_class(ctx, mu)))
                assert got == (1 if mu == dual_partition(lam, ctx) else 0)


def test_determinant_and_tableau_rules_agree():
    rng = random.Random(7)
    for ctx in (G25, G36, GrassCtx(3, 7), GrassCtx(3, 5), GrassCtx(4, 6)):
        basis = ctx.box_partitions()
        for _ in range(40):
            x = schubert_class(ctx, rng.choice(basis))
            y = schubert_class(ctx, rng.choice(basis))
            assert multiply(x, y) == multiply_lr(x, y)


def test_every_basis_product_is_pinned():
    # every basis pair of every G(k,n) with k <= 7, n <= 13 and k(n-k) <= 18;
    # the hash was fixed by the permutation expansion of the Giambelli
    # determinant, so a new way of computing products must give each one
    # bit-identical
    lines = []
    for n in range(2, 14):
        for k in range(1, min(n, 8)):
            if k * (n - k) > 18:
                continue
            ctx = GrassCtx(k, n)
            for lam, mu in itertools.combinations_with_replacement(ctx.box_partitions(), 2):
                product = multiply(schubert_class(ctx, lam), schubert_class(ctx, mu))
                pair = (lam, mu) if lam <= mu else (mu, lam)
                lines.append(repr((k, n, pair, tuple(product.items()))) + "\n")
    assert len(lines) == 20409
    digest = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
    assert digest == "0d36da4585849fe7df0d89a26f0de53d288e89eabd5385af15453e743a185808"


def test_every_stored_sub_product_is_correct():
    # a basis product stores the smaller products its expansion reads
    ctx = GrassCtx(4, 9)
    _PRODUCTS.clear()
    multiply(schubert_class(ctx, (3, 2, 2, 1)), schubert_class(ctx, (4, 3, 1)))
    assert (4, 9, Partition((3, 2, 2, 1)), Partition((4, 3, 1))) in _PRODUCTS
    for (k, n, lam, mu), prod in _PRODUCTS.items():
        assert (k, n) == (4, 9)
        assert SchubertCycle(ctx, dict(prod)) == multiply_lr(schubert_class(ctx, lam), schubert_class(ctx, mu))


def test_products_commute_with_the_duality_of_grassmannians():
    # G(3,7) = G(4,7) maps sigma_lam to sigma_lam', so one side's row form
    # is the other side's column form
    ctx, dual = GrassCtx(3, 7), GrassCtx(4, 7)
    basis = ctx.box_partitions()
    pairs = [(lam, mu) for i, lam in enumerate(basis) for mu in basis[i:]]
    assert len(pairs) == 630
    for lam, mu in pairs:
        prod = multiply(schubert_class(ctx, lam), schubert_class(ctx, mu))
        conjugated = SchubertCycle(dual, {nu.conjugate(): c for nu, c in prod.terms.items()})
        assert conjugated == multiply(schubert_class(dual, lam.conjugate()), schubert_class(dual, mu.conjugate()))


def test_lr_coefficient_examples():
    # sigma_1 * sigma_1 = sigma_2 + sigma_11 regardless of any box
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1


@given(partitions, partitions)
def test_lr_coefficient_is_symmetric(lam, mu):
    # check on a fixed target shape built from the two inputs
    nu = Partition(
        sorted((a + b for a, b in zip(list(lam) + [0] * len(mu), list(mu) + [0] * len(lam))), reverse=True)
    )
    assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_ring_laws_on_random_cycles():
    rng = random.Random(11)
    basis = G36.box_partitions()

    def rand_cycle():
        acc = SchubertCycle.zero(G36)
        for _ in range(rng.randint(1, 3)):
            acc = acc + rng.randint(-3, 3) * schubert_class(G36, rng.choice(basis))
        return acc

    for _ in range(60):
        x, y, z = rand_cycle(), rand_cycle(), rand_cycle()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


SMALL_CTXS = (G24, G25, G36, GrassCtx(1, 4))


@st.composite
def cycles_on(draw, ctx):
    basis = ctx.box_partitions()
    terms = draw(st.lists(st.tuples(st.sampled_from(basis), st.integers(-3, 3)), max_size=4))
    return SchubertCycle(ctx, terms)


@st.composite
def cycle_operands(draw):
    ctx = draw(st.sampled_from(SMALL_CTXS))
    return draw(cycles_on(ctx)), draw(cycles_on(ctx)), draw(st.integers(-4, 4)), draw(st.integers(0, 4))


def assert_valid_cycle(x):
    assert SchubertCycle(x.ctx, x.terms) == x
    for lam, c in x.terms.items():
        assert isinstance(lam, Partition) and len(lam) <= x.ctx.k and (not lam or lam[0] <= x.ctx.width)
        # a trusted key with a zero row would be a second key for one class
        assert tuple(lam) == tuple(Partition(lam))
        assert isinstance(c, int) and c != 0


@given(cycle_operands())
def test_trusted_results_equal_their_revalidated_copies(operands):
    x, y, n, e = operands
    for result in (x + y, x - y, -x, n * x, x * n, n + x, n - x, x - n, x * y, x ** e, (x + n) * y):
        assert_valid_cycle(result)


def test_power_is_repeated_product():
    rng = random.Random(5)
    for ctx in (G25, G36, GrassCtx(2, 6)):
        basis = ctx.box_partitions()
        for _ in range(3):
            x = sum((rng.randint(-2, 2) * schubert_class(ctx, rng.choice(basis)) for _ in range(3)),
                    SchubertCycle.zero(ctx))
            acc = SchubertCycle.unit(ctx)
            for e in range(13):
                assert x ** e == acc
                acc = multiply(acc, x)


def test_a_huge_power_of_a_positive_degree_class_is_zero_at_once():
    # each power raises the degree, so the loop meets zero past dim = 4
    # instead of running 10**9 - 1 products
    ctx = GrassCtx(2, 4)
    for x in (schubert_class(ctx, (1,)), schubert_class(ctx, (2, 1)), schubert_class(ctx, (1,)) - schubert_class(ctx, (2,))):
        assert x ** 10**9 == SchubertCycle.zero(ctx)
    assert SchubertCycle.zero(ctx) ** 10**9 == SchubertCycle.zero(ctx)


def _raise(*args, **kwargs):
    raise AssertionError("validating constructor called on an internal result")


def test_arithmetic_never_calls_the_validating_constructor(monkeypatch):
    x = schubert_class(G36, (2, 1)) - 2 * schubert_class(G36, (1,))
    y = schubert_class(G36, (1, 1)) + 3
    expected = [x + y, x - y, -x, 3 * x, x * y, x ** 3, x.component(1)]
    monkeypatch.setattr(SchubertCycle, "__init__", _raise)
    assert [x + y, x - y, -x, 3 * x, x * y, x ** 3, x.component(1)] == expected


def test_products_dispatch_through_module_multiply(monkeypatch):
    import curvecount.schubert as schubert

    calls = []
    inner = schubert.multiply

    def counting(a, b):
        calls.append(1)
        return inner(a, b)

    x, y = schubert_class(G25, (1,)), schubert_class(G25, (2,))
    monkeypatch.setattr(schubert, "multiply", counting)
    x * y
    assert len(calls) == 1
    x ** 3  # x * x * x: two products, none with the unit
    assert len(calls) == 3


def test_equal_contexts_share_one_product_table():
    a, b = GrassCtx(3, 5), GrassCtx(3, 5)
    assert a is not b and a == b
    s1, s2 = Partition((1,)), Partition((2, 1))
    _PRODUCTS.pop((3, 5, s1, s2), None)
    product = multiply(schubert_class(a, s1), schubert_class(a, s2))
    assert dict(_PRODUCTS[(3, 5, s1, s2)]) == product.terms
    # a product on one context is a table entry for every equal one
    size = len(_PRODUCTS)
    for twin in (b, copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a
        assert multiply(schubert_class(twin, s2), schubert_class(twin, s1)) == product
    assert len(_PRODUCTS) == size
    # and only for an equal one
    _PRODUCTS.pop((2, 5, s1, s2), None)
    multiply(schubert_class(GrassCtx(2, 5), s1), schubert_class(GrassCtx(2, 5), s2))
    assert (2, 5, s1, s2) in _PRODUCTS


def test_lr_product_never_touches_the_product_table():
    ctx = GrassCtx(3, 9)
    x = schubert_class(ctx, (2, 1)) + schubert_class(ctx, (3,))
    y = schubert_class(ctx, (2, 2, 1)) - schubert_class(ctx, (1,))
    before = dict(_PRODUCTS)
    lr = multiply_lr(x, y)
    assert _PRODUCTS == before
    assert lr == multiply(x, y)
