import functools
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import kernel_reference as reference
from gbmoments import broken
from gbmoments.broken import (
    BrokenPairPartition,
    LeftHookRun,
    PermutationBlock,
    RightHookRun,
    broken_count,
    broken_from_json,
    embed,
    empty,
    enumerate_broken,
    evaluate_t_hat,
    gram_matrix,
    involution,
    left_hook,
    multiply,
    right_hook,
    standard_form,
    standard_form_product,
)
from gbmoments.moments import (
    ThomaParameter,
    t_uncolored,
    thoma_handle,
    thoma_n,
    tn_handle,
    tn_uncolored_handle,
)
from gbmoments.partitions import CapacityError, ColoredPairPartition, crossings, enumerate_colored
from gbmoments.qproduct import QMatrix, gram_psd_check, q_product_handle


def figure_d() -> BrokenPairPartition:
    # solid (0): right legs at 1 (number 2) and 3 (number 1)
    # dotted (1): left leg at 2, right leg at 4
    return BrokenPairPartition(
        n=4,
        num_colors=2,
        pairs=(),
        colors=(),
        left_legs=((), (2,)),
        right_legs=((3, 1), (4,)),
    )


def figure_dbar() -> BrokenPairPartition:
    return BrokenPairPartition(
        n=6,
        num_colors=2,
        pairs=((1, 4), (3, 6)),
        colors=(0, 1),
        left_legs=((2,), ()),
        right_legs=((), (5,)),
    )


def test_hook_products():
    assert multiply(right_hook(0), left_hook(0)) == embed(
        ColoredPairPartition.of([(1, 2)], [0])
    )
    d = multiply(left_hook(0), right_hook(0))
    assert d.pairs == ()
    assert d.left_legs[0] == (1,)
    assert d.right_legs[0] == (2,)


def test_cross_color_hooks_do_not_join():
    d = multiply(right_hook(0), left_hook(1))
    assert d.pairs == ()
    assert d.right_legs[0] == (1,)
    assert d.left_legs[1] == (2,)


def test_figure_multiplication():
    # Leg numbering matches the source diagram throughout; the solid join
    # consumes leg number 1 (the stack rule), closing (3, 6).
    prod = multiply(figure_d(), figure_dbar())
    assert prod.n == 10
    assert prod.pairs == ((3, 6), (5, 8), (7, 10))
    assert prod.colors == (0, 0, 1)
    assert prod.left_legs == ((), (2,))
    assert prod.right_legs == ((1,), (9, 4))


def test_figure_involution():
    # solid left leg at 2 becomes a solid right leg at 5 and vice versa
    got = involution(figure_dbar())
    assert got == BrokenPairPartition(
        n=6,
        num_colors=2,
        pairs=((1, 4), (3, 6)),
        colors=(1, 0),
        left_legs=((), (2,)),
        right_legs=((5,), ()),
    )


def test_involution_basics():
    assert involution(left_hook(1)) == right_hook(1)
    single = embed(ColoredPairPartition.of([(1, 2)], [0]))
    assert involution(single) == single


@pytest.fixture(scope="module")
def diagram_pool():
    return enumerate_broken(3, 2, include_right_legs=True)


def test_associativity_randomized(diagram_pool):
    rng = random.Random(20240)
    for _ in range(200):
        d1, d2, d3 = (rng.choice(diagram_pool) for _ in range(3))
        if d1.n + d2.n + d3.n > 8:
            continue
        assert multiply(multiply(d1, d2), d3) == multiply(d1, multiply(d2, d3))


def test_involution_antihomomorphism_randomized(diagram_pool):
    rng = random.Random(20241)
    for _ in range(200):
        d1, d2 = rng.choice(diagram_pool), rng.choice(diagram_pool)
        assert involution(multiply(d1, d2)) == multiply(
            involution(d2), involution(d1)
        )
        assert involution(involution(d1)) == d1


def test_evaluate_t_hat():
    tn = tn_handle(2)
    assert evaluate_t_hat(left_hook(0), tn) == 0
    assert evaluate_t_hat(empty(2), tn) == 1
    single = multiply(right_hook(1), left_hook(1))
    assert evaluate_t_hat(single, tn) == 1


def test_t_hat_extends_t():
    tn = tn_handle(2)
    from gbmoments.moments import t_n

    for p in enumerate_colored(3, 2):
        assert evaluate_t_hat(embed(p), tn) == t_n(2, p)


def test_gram_examples():
    tn = tn_handle(2)
    g = gram_matrix([left_hook(0), left_hook(1)], tn)
    assert g == [[1, 0], [0, 1]]
    assert gram_matrix([empty(2)], tn) == [[1]]


def test_gram_psd_two_point_one_color():
    family = enumerate_broken(2, 1, include_right_legs=True)
    assert len(family) == 10
    handle = lambda p: t_uncolored(thoma_n(2), p.base)
    assert gram_psd_check(family, handle)[1] is True


THOMA = ThomaParameter((Fraction(1, 2), Fraction(1, 5)), (Fraction(1, 4),))


def _weights(k):
    """t_N (N = 2), a Thoma weight and the q12 = -1 product on k-colored
    partitions; with k != 2 the first two are per-color products."""
    product = lambda t, q: q_product_handle([t] * k, QMatrix.constant(k, q))
    if k == 2:
        tn, thoma = tn_handle(2), thoma_handle(THOMA)
    else:
        tn, thoma = product(tn_uncolored_handle(2), 1), product(lambda v: t_uncolored(THOMA, v), 1)
    q12 = QMatrix.of([[1 if a == b else -1 for b in range(k)] for a in range(k)])
    return tn, thoma, q_product_handle([tn_uncolored_handle(2)] * k, q12)


@pytest.mark.parametrize(
    "args",
    [
        (2, 1, True),
        (3, 2, True),
        pytest.param((3, 3, True), marks=pytest.mark.slow),
        (4, 1, True),
        (4, 2),
        (3, 3),
    ],
    ids=["2_1_right_legs", "3_2_right_legs", "3_3_right_legs", "4_1_right_legs", "4_2", "3_3"],
)
def test_gram_matrix_matches_all_products_reference(args):
    # one pass per side: t records its argument and returns all three
    # weights, so each entry compares every weight at once
    weights = _weights(args[1])
    weigh = functools.cache(lambda p: tuple(w(p) for w in weights))
    family = enumerate_broken(*args)
    calls = {"reference": [], "blocked": []}

    def recording(side):
        return lambda p: calls[side].append(p) or weigh(p)

    expected = reference.gram_matrix(family, recording("reference"))
    assert gram_matrix(family, recording("blocked")) == expected
    assert calls["blocked"] == calls["reference"]


# mirror-invariant, so their Gram matrices are symmetric, and not PSD; the
# last one vanishes on the diagonal of every block with an even leg count
NOT_PSD = (lambda p: 2 ** len(crossings(p.base)), lambda p: (-1) ** p.m, lambda p: p.m % 2)


def _check_matches_dense(family, weights) -> list[tuple[Fraction, bool]]:
    """gram_psd_check against the dense LDL^T of the all-products Gram
    matrix, weight by weight: the same (min_pivot, verdict) and the same t
    calls.  Returns the dense run's (last pivot, verdict) per weight."""
    # the reference calls t on the leg-free products in row-major order,
    # whatever the weight, so one pass forms them all
    products = reference.gram_matrix(family, lambda p: p)
    leg_free = [x for row in products for x in row if isinstance(x, ColoredPairPartition)]
    ends = []
    for weight in weights:
        dense = [[weight(x) if isinstance(x, ColoredPairPartition) else x for x in row] for row in products]
        pivots, ok = reference.ldl_pivots(dense)
        calls = []
        got = gram_psd_check(family, lambda p: calls.append(p) or weight(p))
        assert got == (min(pivots), ok)
        assert type(got[0]) is Fraction and type(got[1]) is bool
        assert calls == leg_free
        ends.append((pivots[-1], ok))
    return ends


def _family_params():
    # the all-products reference forms 1.6M products at (4, 2) with right
    # legs and 18M at (4, 3) with right legs; seeded subfamilies cover both
    for n in range(5):
        for k in (1, 2, 3):
            for right in (False, True):
                size = broken_count(n, k, right)
                if size < 1000:
                    marks = [pytest.mark.slow] if size > 300 else []
                    yield pytest.param(n, k, right, marks=marks, id=f"{n}_{k}{'_right_legs' * right}")


@pytest.mark.parametrize("n, k, right", _family_params())
def test_gram_psd_check_matches_dense_reference(n, k, right):
    _check_matches_dense(enumerate_broken(n, k, right), _weights(k) + NOT_PSD)


def test_gram_psd_check_matches_dense_reference_on_subfamilies():
    ends = []
    for args in [(4, 2), (4, 2, True), (4, 3), (4, 3, True)]:
        pool, rng = enumerate_broken(*args), random.Random(16)
        for _ in range(12):
            family = rng.sample(pool, 16)
            right = any(any(d.right_legs) for d in family)
            ends += [(right, end) for end in _check_matches_dense(family, _weights(args[1]) + NOT_PSD)]
    # dense runs end at a positive pivot, at a negative one, at 0 with a
    # nonzero entry left, and at 0 with a PSD verdict among the zero rows of
    # right-legged diagrams
    assert any(d > 0 for _, (d, _) in ends)
    assert any(d < 0 for _, (d, _) in ends)
    assert (False, (0, False)) in ends
    assert (True, (0, True)) in ends


@pytest.mark.parametrize("args, products", [((4, 2), 5375), ((3, 2, True), 263)])
def test_gram_matrix_multiplies_only_matching_blocks(monkeypatch, args, products):
    # the diagrams without right legs, in blocks of equal left-leg counts;
    # every product, the Gram path's included, goes through broken._join
    family = enumerate_broken(*args)
    calls = []
    join = broken._join
    monkeypatch.setattr(broken, "_join", lambda *a: calls.append(1) or join(*a))
    gram_matrix(family, tn_handle(2))
    blocks = Counter(tuple(map(len, d.left_legs)) for d in family if not any(d.right_legs))
    assert sum(size**2 for size in blocks.values()) == products
    assert len(calls) == products


def test_gram_matrix_size_guard_precedes_every_product():
    # 16 pairs and one left leg: d* . d would have 66 > MAX_PRODUCT_POINTS
    # points, and the empty diagram's own product comes first in row order
    pairs = tuple((2 * j - 1, 2 * j) for j in range(1, 17))
    big = BrokenPairPartition(33, 1, pairs, (0,) * 16, ((33,),), ((),))
    assert 2 * big.n > broken.MAX_PRODUCT_POINTS >= big.n

    def refuse(_):
        raise AssertionError("t was called before the size guard fired")

    with pytest.raises(CapacityError):
        gram_matrix([empty(1), big], refuse)


@pytest.mark.parametrize(
    "max_points, num_colors",
    [(n, k) for n in range(5) for k in range(1, 4)] + [(5, 2)],
)
@pytest.mark.parametrize("include_right_legs", [False, True])
def test_broken_count_matches_enumeration(max_points, num_colors, include_right_legs):
    family = enumerate_broken(max_points, num_colors, include_right_legs)
    assert broken_count(max_points, num_colors, include_right_legs) == len(family)


def test_broken_count_closed_form():
    assert [broken_count(n, k) for n, k in [(5, 2), (4, 3), (6, 1), (6, 2), (5, 3)]] == [
        1571, 709, 1433, 11411, 5434
    ]
    with pytest.raises(ValueError):
        broken_count(3, 0)


def test_standard_form_single_pair():
    sf = standard_form(ColoredPairPartition.of([(1, 2)], [0]))
    assert sf.factors == (RightHookRun((0,)), LeftHookRun((0,)))


def test_standard_form_crossing_needs_transposition():
    sf = standard_form(ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1]))
    blocks = [f for f in sf.factors if isinstance(f, PermutationBlock)]
    assert len(blocks) == 1
    assert blocks[0].perms[1] == (1, 0)


def test_standard_form_ten_point_round_trip():
    p = ColoredPairPartition.of(
        [(1, 5), (2, 8), (3, 6), (4, 10), (7, 9)], [0, 0, 1, 1, 0]
    )
    assert standard_form_product(standard_form(p)) == embed(p)


def test_standard_form_round_trip_exhaustive():
    for m in range(1, 5):
        for p in enumerate_colored(m, 2):
            assert standard_form_product(standard_form(p)) == embed(p)


def test_enumerate_broken_counts():
    assert len(enumerate_broken(2, 1, include_right_legs=True)) == 10
    assert len(enumerate_broken(4, 1)) == 53


def test_json_round_trip():
    for d in [figure_dbar(), *enumerate_broken(3, 2, True), *enumerate_broken(2, 3, True)]:
        assert broken_from_json(d.to_json()) == d


def test_legs_are_points_in_leg_number_order():
    # solid right legs: number 1 at point 3, number 2 at point 1
    assert figure_d().to_json()["per_color"][0]["right_legs"] == {"1": 2, "3": 1}


def test_unsorted_pairs_rejected():
    with pytest.raises(ValueError):
        BrokenPairPartition(4, 1, ((3, 4), (1, 2)), (0, 0), ((),), ((),))


@pytest.mark.parametrize(
    "n, pairs, colors, left_legs",
    [
        (4, ((1, 2), (3, 4)), (0, 2), ((), ())),
        (4, ((1, 2), (3, 4)), (0,), ((), ())),
        (4, ((3, 4), (1, 2)), (0, 1), ((), ())),
        # points must be ints, not bools
        (3, ((1, 3),), (0,), ((2.0,), ())),
        (3, ((1, 3),), (0,), ((True,), ())),
        (3, ((1, 3.0),), (0,), ((2,), ())),
        (3, ((True, 3),), (0,), ((2,), ())),
        (True, (), (), ((1,), ())),
        (3.0, ((1, 3),), (0,), ((2,), ())),
    ],
    ids=[
        "color_out_of_range",
        "one_color_short",
        "unsorted_across_colors",
        "float_leg",
        "bool_leg",
        "float_pair_point",
        "bool_pair_point",
        "bool_n",
        "float_n",
    ],
)
def test_constructor_rejects_bad_layout(n, pairs, colors, left_legs):
    with pytest.raises(ValueError):
        BrokenPairPartition(n, 2, pairs, colors, left_legs, ((), ()))


def test_constructor_rejects_a_bad_color_count():
    # both were accepted with a float or a bool color count
    with pytest.raises(ValueError):
        BrokenPairPartition(2, 1.0, ((1, 2),), (0,), ((),), ((),))
    with pytest.raises(ValueError):
        empty(True)


@pytest.mark.parametrize(
    "perms",
    [[[True, False], []], [[1.0, 0.0], []], [[1, 0], [], [5, 7]], [[0], []], [[1, 0]]],
    ids=["bools", "floats", "past_the_color_count", "short", "a_color_short"],
)
def test_permute_right_legs_refuses_bad_permutations(perms):
    # two open right legs of color 0 and none of color 1
    d = multiply(right_hook(0), right_hook(0))
    assert broken.permute_right_legs(d, [[1, 0], []]).right_legs == ((1, 2), ())
    with pytest.raises(ValueError):
        broken.permute_right_legs(d, perms)


@pytest.mark.parametrize("m, k", [(m, 2) for m in range(5)] + [(m, 3) for m in range(4)])
def test_embed_shares_the_colored_layout(m, k):
    for p in enumerate_colored(m, k):
        d = embed(p)
        assert (d.pairs, d.colors) == (p.base.pairs, p.colors)
        assert d.as_colored() == p


@pytest.mark.parametrize(
    "args, sha256",
    [
        ((3, 2, True), "ed2f8a746c86893555a89e0185dd015d1b08be2ec065adf70c0a8251b23e77bf"),
        ((2, 3, True), "a5a2b2c3159ac1c9a4d3133cbdab0a2ffab7303cc7acfb6d89756f5182b3de6d"),
    ],
    ids=["3_2_right_legs", "2_3_right_legs"],
)
def test_products_pinned(args, sha256):
    # every involution, every product and the colored view of every
    # leg-free product, in family order
    h = hashlib.sha256()
    digest = lambda x: h.update(json.dumps(x.to_json(), sort_keys=True).encode())
    family = enumerate_broken(*args)
    for a in family:
        digest(involution(a))
        for b in family:
            prod = multiply(a, b)
            digest(prod)
            if not prod.has_legs:
                digest(prod.as_colored())
    assert h.hexdigest() == sha256


@pytest.mark.parametrize(
    "args, sha256",
    [
        ((4, 2), "986022fc7f5792aa254320986f2603defc26a8b0090bd27fed097db44c4c98dd"),
        ((3, 2, True), "f6f98898f44cfd424a68a3743f78ff087ce1f80febdb8e2375031792778d30f8"),
    ],
    ids=["4_2", "3_2_right_legs"],
)
def test_enumerate_broken_order_pinned(args, sha256):
    # Gram subfamilies are sampled by index, so the order is part of the API
    listing = json.dumps([d.to_json() for d in enumerate_broken(*args)], sort_keys=True)
    assert hashlib.sha256(listing.encode()).hexdigest() == sha256


def _one_color(entry, n=2):
    return {"n": n, "colors": 1, "per_color": [entry]}


@pytest.mark.parametrize(
    "obj",
    [
        _one_color({"pairs": [[1, 2, 3]], "left_legs": {"2": 1}}, n=3),
        _one_color({"pairs": [[True, 2]]}),
        _one_color({"pairs": [], "left_legs": {"1": 1}, "right_legs": {"2": 2}}),
        _one_color({"pairs": [], "left_legs": {"1": 1}, "right_legs": {"2": True}}),
        _one_color({"pairs": [], "left_legs": {"x": 1, "2": 2}}),
        {"n": 2, "colors": 2, "per_color": [{"pairs": [[1, 2]]}]},
        {"n": True, "colors": 1, "per_color": [{"pairs": []}]},
        [[1, 2]],
    ],
    ids=[
        "three_point_pair",
        "bool_point",
        "non_bijective_numbering",
        "bool_leg_number",
        "non_numeric_point",
        "per_color_count",
        "bool_n",
        "not_an_object",
    ],
)
def test_broken_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        broken_from_json(obj)


def test_broken_from_json_reads_leg_numbers():
    obj = _one_color({"pairs": [], "right_legs": {"1": 2, "2": 1}})
    assert broken_from_json(obj).right_legs == ((2, 1),)
