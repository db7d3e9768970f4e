import ast
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from gbmoments import broken, qproduct
from gbmoments.broken import embed, empty, enumerate_broken, left_hook
from gbmoments.moments import (
    ThomaParameter,
    t_free,
    t_tensor,
    t_uncolored,
    thoma_n,
    tn_handle,
    tn_uncolored_handle,
    uncolored_handle,
)
from gbmoments.partitions import (
    CapacityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
    enumerate_colored,
    enumerate_pair_partitions,
)
from gbmoments.qproduct import (
    QMatrix,
    _residue_counts,
    clt_error_bound,
    clt_error_curve,
    gram_psd_check,
    q_product_eval,
    q_product_handle,
    stirling_check,
    t_q_limit,
    t_q_star_n,
)

HALF = Fraction(1, 2)
CROSSING = PairPartition.of([(1, 3), (2, 4)])


def test_qmatrix_validation():
    with pytest.raises(ValueError):
        QMatrix.of([[1, HALF], [Fraction(1, 3), 1]])
    with pytest.raises(ValueError):
        QMatrix.of([[2]])
    for malformed in ([[1, [2]], [[2], 1]], 5, [[True]], [["1/0"]]):
        with pytest.raises(ValueError):
            QMatrix.of(malformed)


@pytest.mark.parametrize("entry", ["1/2", None, True, False, [1]])
def test_qmatrix_refuses_entries_of_other_types(entry):
    # before, a string or None raised TypeError from the range check and a
    # bool was taken as an int
    with pytest.raises(ValueError, match="coupling entry"):
        QMatrix(((entry,),))
    if isinstance(entry, bool):
        with pytest.raises(ValueError, match="coupling entry"):
            QMatrix.constant(2, entry)


def test_qmatrix_takes_ints_fractions_and_floats():
    for entry in (1, -1, 0, HALF, -0.5):
        assert QMatrix(((entry,),)).at(0, 0) == entry


def test_q_product_examples():
    ones = lambda v: Fraction(1)
    q = QMatrix.of([[1, Fraction(1, 3)], [Fraction(1, 3), 1]])
    p = ColoredPairPartition.of([(1, 2), (3, 4)], [0, 1])
    assert q_product_eval([ones, ones], q, p) == 1
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert q_product_eval([ones, ones], q, p) == Fraction(1, 3)


def _crossing_product_reference(q, p, class_weights):
    """q.at over the crossings as `crossings` lists them, in that order,
    then the class weights in color order."""
    index = {pair: j for j, pair in enumerate(p.base.pairs)}
    value = Fraction(1)
    for p1, p2 in crossings(p.base):
        value *= q.at(p.colors[index[p1]], p.colors[index[p2]])
    for weight in class_weights:
        value *= weight
    return value


def _bits(x):
    return (type(x), x.hex() if isinstance(x, float) else x)


def test_q_product_multiplies_the_crossing_walk_in_order():
    # every two-colored partition with m <= 5 and seeded three-colored ones
    # with m <= 7, under a rational matrix with distinct entries and a float
    # one whose products must agree to the bit: the crossings are checked
    # against every pair of pairs compared, and q_product_eval against the
    # factors multiplied in crossing order, then the class weights
    rng = random.Random(28)
    matrices = {
        2: (QMatrix.of([["1/2", "-1/3"], ["-1/3", "3/7"]]), QMatrix.of([[0.9, -0.35], [-0.35, 0.55]])),
        3: (QMatrix.of([["1/2", "-1/3", "2/5"], ["-1/3", "3/7", "-5/6"], ["2/5", "-5/6", "1/9"]]),
            QMatrix.of([[0.9, -0.35, 0.2], [-0.35, 0.5, 0.75], [0.2, 0.75, -0.6]])),
    }
    cases = [p for m in range(6) for p in enumerate_colored(m, 2)]
    for _ in range(1500):
        m = rng.randrange(8)
        points = rng.sample(range(1, 2 * m + 1), 2 * m)
        cases.append(ColoredPairPartition.of(zip(points[::2], points[1::2]), [rng.randrange(3) for _ in range(m)], 3))
    weights = [tn_uncolored_handle(3), tn_uncolored_handle(-2), t_free]
    for p in cases:
        pairs = p.base.pairs
        assert crossings(p.base) == sorted(
            (a, b) for a in pairs for b in pairs if a[0] < b[0] < a[1] < b[1]
        )
        ts = weights[: p.num_colors]
        # classes by the re-sorting relabel
        class_weights = [t(reference.color_class(p, color)) for color, t in enumerate(ts)]
        for q in matrices[p.num_colors]:
            expected = _crossing_product_reference(q, p, class_weights)
            assert _bits(q_product_eval(ts, q, p)) == _bits(expected), p


FLOAT_WEIGHT = uncolored_handle(ThomaParameter(alpha=(0.6, 0.3)))


def test_q_layout_memos_are_bounded():
    for memo in (qproduct._q_layout, qproduct._class_of):
        info = memo.cache_info()
        assert info.maxsize is not None and info.maxsize <= 4096


@pytest.mark.parametrize("k", [2, 3])
def test_q_product_from_the_memo_equals_the_first_evaluation(k):
    # a cache hit gives the same type and float bits as the miss before it,
    # for a rational and a float matrix and for rational and float weights
    rng = random.Random(k)
    rational = QMatrix(tuple(tuple(Fraction(1 + min(i, j), 2 + max(i, j)) * (-1) ** (i + j)
                                   for j in range(k)) for i in range(k)))
    inexact = QMatrix(tuple(tuple(float(x) for x in row) for row in rational.entries))
    cases = [ColoredPairPartition.of([(1, 3), (2, 5), (4, 6)], [0, 1, k - 1], k)]
    for _ in range(20):
        m = rng.randrange(1, 6)
        points = rng.sample(range(1, 2 * m + 1), 2 * m)
        cases.append(ColoredPairPartition.of(zip(points[::2], points[1::2]), [rng.randrange(k) for _ in range(m)], k))
    for ts in ([tn_uncolored_handle(2)] * k, [FLOAT_WEIGHT] * k):
        for q in (rational, inexact):
            for p in cases:
                qproduct._q_layout.cache_clear()
                first = q_product_eval(ts, q, p)
                second = q_product_eval(ts, q, p)
                info = qproduct._q_layout.cache_info()
                assert (info.misses, info.hits) == (1, 1)
                classes = [t(reference.color_class(p, color)) for color, t in enumerate(ts)]
                expected = _crossing_product_reference(q, p, classes)
                assert _bits(first) == _bits(second) == _bits(expected), p


def test_q_layout_keys_on_the_color_count():
    # the same pairs and colors under one and under two colors have one
    # class and two, so they must not share an entry
    qproduct._q_layout.cache_clear()
    one = ColoredPairPartition(CROSSING, (0, 0), 1)
    two = ColoredPairPartition(CROSSING, (0, 0), 2)
    ones = lambda v: Fraction(1)
    assert q_product_eval([ones], QMatrix(((HALF,),)), one) == HALF
    assert q_product_eval([ones, lambda v: Fraction(v.m + 2)], QMatrix.constant(2, HALF), two) == 1
    assert qproduct._q_layout.cache_info().misses == 2
    assert len(qproduct._q_layout(CROSSING.pairs, (0, 0), 1)[1]) == 1
    assert len(qproduct._q_layout(CROSSING.pairs, (0, 0), 2)[1]) == 2
    # equal classes of two entries are one object
    _, (first, _) = qproduct._q_layout(((1, 2), (3, 4)), (0, 1), 2)
    _, (_, second) = qproduct._q_layout(((1, 2), (3, 4)), (1, 0), 2)
    assert first == second == PairPartition.of([(1, 2)]) and first is second


def test_q_product_refuses_a_mismatch_before_the_memo():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    before = qproduct._q_layout.cache_info()
    for ts, q in (([t_free], QMatrix.constant(2, HALF)),
                  ([t_free] * 3, QMatrix.constant(2, HALF)),
                  ([t_free] * 2, QMatrix.constant(3, HALF))):
        with pytest.raises(ValueError, match="one component weight per color"):
            q_product_eval(ts, q, p)
    assert qproduct._q_layout.cache_info() == before


def test_exact_product_of_ints_is_a_fraction():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    got = q_product_eval([lambda v: 1] * 2, QMatrix(((1, 1), (1, 1))), p)
    assert got == 1 and type(got) is Fraction
    got = q_product_eval([lambda v: 1] * 2, QMatrix(((1, -1), (-1, 1))), p)
    assert got == -1 and type(got) is Fraction


def test_exact_product_with_a_zero_class_weight_is_zero():
    q = QMatrix.of([["1/2", "-1/3"], ["-1/3", "3/7"]])
    for p in enumerate_colored(3, 2):
        got = q_product_eval([lambda v: Fraction(0), tn_uncolored_handle(2)], q, p)
        assert got == 0 and type(got) is Fraction


def test_float_class_weights_with_a_rational_matrix_keep_the_ordered_product():
    # Fraction(1) times each crossing entry, then each float class weight,
    # in that order, as before the product was taken over ints
    qs = {2: QMatrix.of([["1/2", "-1/3"], ["-1/3", "3/7"]]),
          3: QMatrix.of([["1/2", "-1/3", "2/5"], ["-1/3", "3/7", "-5/6"], ["2/5", "-5/6", "1/9"]])}
    weights = [FLOAT_WEIGHT, tn_uncolored_handle(3), uncolored_handle(ThomaParameter(beta=(0.7,)))]
    cases = [p for m in range(5) for p in enumerate_colored(m, 2)]
    cases += [p for m in range(4) for p in enumerate_colored(m, 3)]
    for p in cases:
        ts = weights[: p.num_colors]
        classes = [t(reference.color_class(p, color)) for color, t in enumerate(ts)]
        expected = _crossing_product_reference(qs[p.num_colors], p, classes)
        assert _bits(q_product_eval(ts, qs[p.num_colors], p)) == _bits(expected), p


def test_q_product_all_ones_is_tensor():
    q1 = QMatrix.constant(2, 1)
    comp = tn_uncolored_handle(2)
    for m in range(1, 4):
        for p in enumerate_colored(m, 2):
            assert q_product_eval([comp, comp], q1, p) == t_tensor(comp, comp, p)


def test_q_product_color_relabel_symmetry():
    q = QMatrix.of([[1, -HALF], [-HALF, Fraction(1, 4)]])
    q_swapped = QMatrix.of([[Fraction(1, 4), -HALF], [-HALF, 1]])
    free2 = lambda v: t_free(v)
    for p in enumerate_colored(3, 2):
        swapped = ColoredPairPartition(
            p.base, tuple(1 - c for c in p.colors), 2
        )
        assert q_product_eval([free2, t_free], q, p) == q_product_eval(
            [t_free, free2], q_swapped, swapped
        )


def test_single_color_reduction():
    q = QMatrix.of([[-HALF]])
    comp = tn_uncolored_handle(2)
    for v in enumerate_pair_partitions(3):
        p = ColoredPairPartition(v, (0,) * v.m, 1)
        expected = (-HALF) ** len(crossings(v)) * comp(v)
        assert q_product_eval([comp], q, p) == expected


def test_t_q_star_n_examples():
    single = PairPartition.of([(1, 2)])
    q = QMatrix.constant(2, HALF)
    for n in (1, 2, 5):
        assert t_q_star_n(t_free, q, n, single) == 1
    # closed form q(1 - 1/n) for the crossing under the free weight
    for n in (2, 4, 8, 10**6):
        assert t_q_star_n(t_free, q, n, CROSSING) == HALF * (1 - Fraction(1, n))


@pytest.mark.parametrize("n", [2.0, True, False, Fraction(2), "2", None])
def test_t_q_star_n_refuses_n_that_is_no_int(n):
    # before, n = 2.0 raised TypeError from math.perm and n = True was read
    # as 1; the weight refuses to be called, so no term is summed first
    with pytest.raises(ValueError, match="n must be an int"):
        t_q_star_n(_refuse, QMatrix.constant(2, HALF), n, CROSSING)
    with pytest.raises(ValueError, match="n must be an int"):
        clt_error_curve(t_free, QMatrix.constant(2, HALF), CROSSING, [2, n])


def test_t_q_star_n_at_base_size():
    q = QMatrix.of([[1, -HALF], [-HALF, Fraction(1, 4)]])
    got = t_q_star_n(t_free, q, 2, CROSSING)
    # direct two-color sum: only off-diagonal colorings survive the free weight
    assert got == Fraction(2, 4) * (-HALF)


def test_t_q_limit_examples():
    q = QMatrix.constant(3, HALF)
    for v in enumerate_pair_partitions(3):
        assert t_q_limit(q, v) == HALF ** len(crossings(v))
    mixed = QMatrix.of([[1, -1], [-1, 1]])
    assert t_q_limit(mixed, CROSSING) == 0


def test_clt_exact_rate():
    q = QMatrix.constant(2, HALF)
    curve = clt_error_curve(t_free, q, CROSSING, [4, 8, 16, 32])
    assert curve == [(n, HALF / n) for n in (4, 8, 16, 32)]


def test_clt_noncrossing_zero_error():
    q = QMatrix.constant(2, HALF)
    v = PairPartition.of([(1, 2), (3, 4)])
    assert clt_error_curve(t_free, q, v, [2, 8]) == [(2, 0), (8, 0)]


def test_clt_error_within_collision_bound():
    # random rational Q, free and t_N weights, every n <= 4K that K divides
    rng = random.Random(432)
    weights = [t_free] + [tn_uncolored_handle(n) for n in (1, -1, 2, -2, 3)]
    ratio = Fraction(0)
    for _ in range(60):
        k, m = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), 6) for _ in range(k)] for _ in range(k)]
        q = QMatrix.of([[rows[min(a, b)][max(a, b)] for b in range(k)] for a in range(k)])
        v = rng.choice(enumerate_pair_partitions(m))
        t = rng.choice(weights)
        for n, error in clt_error_curve(t, q, v, [k * j for j in range(1, 5)]):
            bound = clt_error_bound(m, n)
            assert error <= bound
            if bound:
                ratio = max(ratio, error / bound)
    assert 0 < ratio < 1


@pytest.mark.parametrize(
    "m, n", [(2, 0), (2, -1), (-1, 3), (True, 3), (2, True), (2.0, 3), (2, 3.0), ("2", 3), (None, 3)]
)
def test_clt_error_bound_refuses_what_is_no_size(m, n):
    # before, n = 0 raised ZeroDivisionError and m = -1 math's own error
    with pytest.raises(ValueError, match="integers"):
        clt_error_bound(m, n)


def test_clt_error_bound_edges():
    # no pair, or one color for one pair, is always injective; one color for
    # two pairs never is; perm(2, 3) = 0
    assert clt_error_bound(0, 1) == clt_error_bound(1, 1) == 0
    assert clt_error_bound(2, 1) == clt_error_bound(3, 2) == 2
    assert clt_error_bound(2, 4) == 2 * (1 - Fraction(12, 16))


def test_clt_mixed_matrix_monotone():
    mixed = QMatrix.of([[1, -1], [-1, 1]])
    curve = dict(clt_error_curve(t_free, mixed, CROSSING, [8, 32]))
    assert curve[32] <= curve[8]


def _refuse(_):
    raise AssertionError("the weight was called before the guard fired")


def test_coloring_sum_capacity():
    # the guard counts the (kernel, residue) terms whose coloring count is
    # nonzero; with n >= 8K every residue tuple counts, sum over set
    # partitions of the pairs of K^blocks (681,870 for 8 pairs and K = 3)
    nine = PairPartition.of([(j, j + 9) for j in range(1, 10)])
    eight = PairPartition.of([(j, j + 8) for j in range(1, 9)])
    for q, v, n in (
        (QMatrix.constant(1, HALF), nine, 2),
        (QMatrix.constant(3, HALF), eight, 24),
        (QMatrix.constant(3, HALF), eight, 10**6),
    ):
        with pytest.raises(CapacityError):
            t_q_star_n(_refuse, q, n, v)
    # at n = 2 only 256 colorings exist, so 8 pairs with K = 3 is cheap;
    # under the weight 1 and a constant matrix every coloring gives q^28
    assert t_q_star_n(lambda _: 1, QMatrix.constant(3, HALF), 2, eight) == HALF**28
    # 4 pairs at n = 64 was over the old n^m budget and is 94 terms now
    v = PairPartition.of([(1, 5), (2, 6), (3, 7), (4, 8)])
    assert t_q_star_n(lambda _: 1, QMatrix.constant(2, HALF), 64, v) == HALF**6


@pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 2), (3, 7), (4, 5), (5, 3)])
def test_residue_counts_match_enumeration(k, n):
    sizes = [(n - 1 - r) // k + 1 for r in range(k)]
    want = [
        sum(
            all(res.count(r) <= sizes[r] for r in range(k))
            for res in itertools.product(range(k), repeat=b)
        )
        for b in range(6)
    ]
    assert _residue_counts(5, sizes) == want


def _random_matrix(rng: random.Random, k: int, exact: bool) -> QMatrix:
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            x = Fraction(rng.randint(-6, 6), 6)
            rows[i][j] = rows[j][i] = x if exact else rng.uniform(-1, 1)
    return QMatrix(tuple(map(tuple, rows)))


def test_t_q_star_n_matches_coloring_enumeration():
    """The kernel/residue sum against the n^m enumeration: exact Fractions
    for rational matrices, and within rounding for float ones (summed in a
    different order, so near-cancelling sums differ at ~1e-17)."""
    rng = random.Random(7)
    # cached, since the enumeration asks for the same class weights many times
    weights = [t_free, tn_uncolored_handle(2), tn_uncolored_handle(-3), lambda _: 1]
    weights = [functools.cache(t) for t in weights]
    cases = [v for m in range(4) for v in enumerate_pair_partitions(m)]
    cases += rng.sample(enumerate_pair_partitions(4), 2)
    for v in cases:
        for k in (1, 2, 3):
            exact, inexact = _random_matrix(rng, k, True), _random_matrix(rng, k, False)
            for n in range(1, 6):
                for t in weights:
                    got = t_q_star_n(t, exact, n, v)
                    want = reference.t_q_star_n(t, exact, n, v)
                    assert got == want and type(got) is Fraction, (v, k, n)
            for n in (2, 5):
                got = t_q_star_n(weights[0], inexact, n, v)
                want = reference.t_q_star_n(weights[0], inexact, n, v)
                assert type(got) is type(want), (v, k, n)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (v, k, n)


def test_t_q_star_n_prices_each_kernel_once(monkeypatch):
    """A term's crossing links and class weights depend on its kernel
    alone, so no term builds a matrix or a colored partition or calls
    q_product_eval."""
    q = QMatrix.of([[1, -HALF], [-HALF, Fraction(1, 3)]])

    def tripwire(*args):
        raise AssertionError("t_q_star_n built a per-term value")

    for name in ("QMatrix", "ColoredPairPartition", "q_product_eval"):
        monkeypatch.setattr(qproduct, name, tripwire)
    for v in (PairPartition.of([(1, 5), (2, 7), (3, 6), (4, 8)]),
              PairPartition.of([(1, 3), (2, 6), (4, 7), (5, 8)])):
        for t in (t_free, tn_uncolored_handle(2), lambda _: 1):
            for n in (2, 3):
                assert t_q_star_n(t, q, n, v) == reference.t_q_star_n(t, q, n, v), (v, n)


def test_t_q_star_n_skips_kernels_of_weight_zero(monkeypatch):
    """Every term of a kernel with a class of weight 0 is 0, so none of
    its residue terms is multiplied out; the sum keeps its value and type."""

    class CountingMath:
        products = 0

        def __getattr__(self, name):
            return getattr(math, name)

        def prod(self, *args, **kwargs):
            CountingMath.products += 1
            return math.prod(*args, **kwargs)

    monkeypatch.setattr(qproduct, "math", CountingMath())
    q = QMatrix.of([[1, -HALF], [-HALF, Fraction(1, 3)]])
    v = PairPartition.of([(1, 5), (2, 7), (3, 6), (4, 8)])
    for n in (2, 3, 10**6):
        got = t_q_star_n(lambda _: 0, q, n, v)
        assert got == 0 and type(got) is Fraction
    assert CountingMath.products == 0
    # a weight that is 0 on one-pair classes leaves only the kernels
    # without one, whose terms still agree with the enumeration
    only_pairs = lambda u: Fraction(u.m != 1)
    for n in (2, 3):
        got = t_q_star_n(only_pairs, q, n, v)
        want = reference.t_q_star_n(only_pairs, q, n, v)
        assert got == want and type(got) is type(want)
    assert CountingMath.products > 0


@st.composite
def coloring_sums(draw):
    """A random V of 5 or 6 pairs, a rational K x K matrix with K <= 2,
    n <= 3 and one of the weights."""
    m = draw(st.integers(min_value=5, max_value=6))
    perm = draw(st.permutations(range(1, 2 * m + 1)))
    k = draw(st.integers(min_value=1, max_value=2))
    entries = {(i, j): Fraction(draw(st.integers(-6, 6)), 6) for i in range(k) for j in range(i, k)}
    q = QMatrix(tuple(tuple(entries[min(i, j), max(i, j)] for j in range(k)) for i in range(k)))
    n = draw(st.integers(min_value=1, max_value=3))
    t = draw(st.sampled_from([t_free, tn_uncolored_handle(2), tn_uncolored_handle(-3), lambda _: 1]))
    return PairPartition.of(zip(perm[::2], perm[1::2])), q, n, t


@settings(deadline=None, max_examples=100)
@given(coloring_sums())
def test_t_q_star_n_matches_enumeration_past_four_pairs(case):
    v, q, n, t = case
    assert t_q_star_n(t, q, n, v) == reference.t_q_star_n(t, q, n, v)


def test_gram_psd_orthonormal_hooks():
    from gbmoments.broken import left_hook

    min_eig, ok = gram_psd_check([left_hook(0), left_hook(1)], tn_handle(2))
    assert ok and min_eig == 1


def test_gram_psd_families():
    one_color = enumerate_broken(3, 1)
    handle = lambda p: t_uncolored(thoma_n(2), p.base)
    min_eig, ok = gram_psd_check(one_color, handle)
    assert ok, min_eig

    two_color = enumerate_broken(3, 2)
    min_eig, ok = gram_psd_check(two_color, tn_handle(2))
    assert ok, min_eig

    q = QMatrix.of([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]])
    handle = q_product_handle([tn_uncolored_handle(2)] * 2, q)
    min_eig, ok = gram_psd_check(two_color, handle)
    assert ok, min_eig


def _two_diagram_family():
    """The empty diagram and one pair: the Gram matrix is [[t(0 pairs),
    t(1 pair)], [t(1 pair), t(2 pairs)]], so a weight indexed by the number
    of pairs sets it entry by entry."""
    return [empty(1), embed(ColoredPairPartition.of([(1, 2)], [0], 1))]


@pytest.mark.parametrize(
    "by_pairs, expected",
    [
        ((1, 0, -1), (Fraction(-1), False)),  # negative pivot
        ((0, 1, 0), (Fraction(0), False)),  # zero pivot, nonzero row
        ((1, 1, 1), (Fraction(0), True)),  # singular PSD
        ((2, 1, 1), (HALF, True)),  # positive definite
    ],
    ids=["negative_pivot", "zero_pivot_nonzero_row", "singular_psd", "definite"],
)
def test_gram_psd_exact_verdict(by_pairs, expected):
    min_pivot, ok = gram_psd_check(_two_diagram_family(), lambda p: by_pairs[p.m])
    assert (min_pivot, ok) == expected
    assert ok is expected[1]


def test_gram_psd_rejects_float_weights():
    with pytest.raises(ValueError):
        gram_psd_check(_two_diagram_family(), lambda p: (1.0, 0.5, 1.0)[p.m])


def test_gram_psd_refuses_a_float_in_any_block_before_asymmetry():
    # the first block, one pair of each color, is asymmetric under the
    # first pair's color; the second, a left leg's, holds a float
    family = [
        embed(ColoredPairPartition.of([(1, 2)], [0])),
        embed(ColoredPairPartition.of([(1, 2)], [1])),
        left_hook(0),
    ]
    with pytest.raises(ValueError, match="must be symmetric"):
        gram_psd_check(family[:2], lambda p: p.colors[0])
    with pytest.raises(ValueError, match="int or Fraction"):
        gram_psd_check(family, lambda p: p.colors[0] if p.m == 2 else 0.5)


RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 10**6))


@st.composite
def symmetric_rational_matrices(draw):
    """A symmetric rational matrix of size 0..10: a Gram matrix B^T B of a
    random rational B with k <= n rows (rank-deficient when k < n), a
    random symmetric one (mostly indefinite), c * B^T B with B over
    {-1, 0, 1} (ties on the diagonal), or a PSD block beside a block with
    zero diagonal, congruent by a permutation (a zero pivot with a nonzero
    remainder).  Denominators reach 10^6."""
    n = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["gram", "indefinite", "ties", "zero_pivot"]))

    def gram(size, entries):
        b = [[draw(entries) for _ in range(size)] for _ in range(draw(st.integers(0, size)))]
        return [[sum((row[i] * row[j] for row in b), Fraction(0)) for j in range(size)] for i in range(size)]

    def symmetric(size, zero_diagonal):
        a = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + zero_diagonal, size):
                a[i][j] = a[j][i] = draw(RATIONALS)
        return a

    if kind == "gram":
        return gram(n, RATIONALS)
    if kind == "indefinite":
        return symmetric(n, False)
    if kind == "ties":
        c = draw(RATIONALS.filter(bool))
        return [[c * x for x in row] for row in gram(n, st.integers(-1, 1))]
    k = draw(st.integers(0, n))
    g, h = gram(k, RATIONALS), symmetric(n - k, True)
    a = [row + [0] * (n - k) for row in g] + [[0] * k + row for row in h]
    order = draw(st.permutations(range(n)))
    return [[a[i][j] for j in order] for i in order]


@settings(deadline=None, max_examples=300)
@given(symmetric_rational_matrices())
def test_integer_elimination_matches_rational_ldl(a):
    # the fraction-free pivots and verdict equal the Fraction LDL^T's
    assert broken._pivots(a) == reference.ldl_pivots(a)


def test_gram_path_lives_in_broken():
    # blocks, elimination and verdict live in broken; qproduct holds only the
    # verdict's name, the one the benchmark traces
    assert qproduct.gram_psd_check is broken.gram_psd_check
    tree = ast.parse(Path(qproduct.__file__).read_text())
    from_broken = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if node.module == "broken" or alias.name == "broken"
    ]
    assert from_broken == ["gram_psd_check"]
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert not [name for name in defined if name.startswith("gram_") or name == "_pivots"]


def test_stirling_examples():
    assert stirling_check(-1) == (0, True)
    assert stirling_check(-2) == (0, True)
    assert stirling_check(-3) == (0, True)
    with pytest.raises(ValueError):
        stirling_check(2)
    with pytest.raises(CapacityError):
        stirling_check(-8)
