import json
import sys
from fractions import Fraction

import pytest

import kernel_reference as reference
from gbmoments import cli, moments
from gbmoments import words as W
from gbmoments.moments import (
    ThomaParameter,
    fock_moment,
    permutation_cycle_type,
    spherical_function,
    t_colored,
    t_free,
    t_n,
    t_tensor,
    t_uncolored,
    tensor_handle,
    thoma_character,
    thoma_handle,
    thoma_n,
    tn_handle,
    tn_uncolored_handle,
    uncolored_handle,
)
from gbmoments.partitions import (
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
    enumerate_colored,
    enumerate_pair_partitions,
)
from gbmoments.qproduct import QMatrix, q_product_eval

HALF = Fraction(1, 2)


def test_thoma_parameter_validation():
    with pytest.raises(ValueError):
        ThomaParameter(alpha=(HALF, HALF, HALF))
    with pytest.raises(ValueError):
        ThomaParameter(alpha=(Fraction(1, 4), HALF))
    with pytest.raises(ValueError):
        ThomaParameter(alpha=(Fraction(0),))
    tp = ThomaParameter(alpha=(HALF,), beta=(Fraction(1, 4),))
    assert tp.gamma == Fraction(1, 4)


@pytest.mark.parametrize(
    "alpha, beta",
    [((float("nan"),), ()), ((0.5,), (float("nan"),))],
    ids=["nan_alpha", "nan_beta"],
)
def test_thoma_parameter_refuses_nan(alpha, beta):
    # nan <= 0 is False, so positivity is tested as not x > 0
    with pytest.raises(ValueError, match="positive"):
        ThomaParameter(alpha, beta)


def test_thoma_n():
    assert thoma_n(2).alpha == (HALF, HALF)
    assert thoma_n(-2).beta == (HALF, HALF)
    with pytest.raises(ValueError):
        thoma_n(0)


def test_thoma_character_examples():
    assert thoma_character(thoma_n(2), {}) == 1
    assert thoma_character(thoma_n(2), {1: 5}) == 1
    assert thoma_character(thoma_n(2), {2: 1}) == HALF
    assert thoma_character(thoma_n(-2), {3: 1}) == Fraction(1, 4)


def test_thoma_character_matches_power_formula():
    # moved-point formula: value is (1/N)^(moved - cycles among moved)
    for n in (-3, -2, -1, 2, 3):
        for cycle_type in ({2: 1}, {3: 1}, {2: 2}, {4: 1, 2: 1}, {5: 1}):
            moved = sum(m * c for m, c in cycle_type.items())
            cycles = sum(cycle_type.values())
            assert thoma_character(thoma_n(n), cycle_type) == Fraction(
                1, n
            ) ** (moved - cycles)


@pytest.mark.parametrize(
    "cycle_type",
    [{2: 0.5}, {2.5: 1}, {True: 1}, {2: True}],
    ids=["count", "length", "bool_length", "bool_count"],
)
def test_thoma_character_refuses_non_int_cycle_types(cycle_type):
    # a non-int length or count gives a float or a wrong value at a rational parameter
    with pytest.raises(ValueError, match="int"):
        thoma_character(ThomaParameter((HALF,)), cycle_type)


@pytest.mark.parametrize(
    "perm", [[True, False], [0.0, 1.0], [0, 0]], ids=["bools", "floats", "repeat"]
)
def test_permutations_must_be_ints_in_one_line_notation(perm):
    with pytest.raises(ValueError, match="ints"):
        permutation_cycle_type(perm)
    # on either side of spherical_function
    for pi, pi_prime in ((perm, (0, 1)), ((0, 1), perm)):
        with pytest.raises(ValueError, match="ints"):
            spherical_function(thoma_n(2), pi, pi_prime)


def test_spherical_function():
    tp = thoma_n(2)
    assert spherical_function(tp, (1, 0, 2), (1, 0, 2)) == 1
    assert spherical_function(tp, (0, 1, 2), (1, 0, 2)) == HALF
    # (13) after undoing (12) is a 3-cycle
    assert spherical_function(tp, (1, 0, 2), (2, 1, 0)) == Fraction(1, 4)


def test_t_uncolored_examples():
    tp = thoma_n(2)
    assert t_uncolored(tp, PairPartition.of([(1, 2), (3, 4)])) == 1
    assert t_uncolored(tp, PairPartition.of([(1, 3), (2, 4)])) == HALF
    assert t_uncolored(thoma_n(3), PairPartition.of([(1, 4), (2, 5), (3, 6)])) == Fraction(1, 3)


def test_t_colored_examples(twelve_point):
    assert t_colored(thoma_n(5), ColoredPairPartition.of([(1, 2)], [1])) == 1
    for n in (2, 3):
        assert t_colored(thoma_n(n), twelve_point) == Fraction(1, n)
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert t_colored(thoma_n(3), p) == 1


def test_t_n_examples(twelve_point):
    assert t_n(7, ColoredPairPartition.of([(1, 2)], [0])) == 1
    for n in (2, 3, -1, -2):
        assert t_n(n, twelve_point) == Fraction(1, n)
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    assert t_n(2, p) == HALF


@pytest.mark.parametrize("num_colors", [1, 3])
def test_t_n_needs_two_colors(num_colors):
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, num_colors - 1], num_colors)
    with pytest.raises(ColorArityError):
        t_n(2, p)


@pytest.mark.parametrize("num_colors", [1, 3])
def test_t_colored_needs_two_colors(num_colors):
    # every weight that reads the cycle graph refuses another color count
    # by the kernel's one check, also when only colors 0 and 1 are used
    weights = (lambda p: t_colored(thoma_n(2), p), moments.tn_exponent, lambda p: t_n(2, p))
    for colors in ([0, 0], [0, 1], [0, 2]):
        if max(colors) < num_colors:
            p = ColoredPairPartition.of([(1, 3), (2, 4)], colors, num_colors)
            for weight in weights:
                with pytest.raises(ColorArityError, match="cycle-graph analysis is defined for exactly 2 colors"):
                    weight(p)


def test_graph_cache_is_bounded():
    # bench/worker.py reads this private function's cache statistics
    info = moments._graph_exponent.cache_info()
    assert info.maxsize is not None and info.maxsize <= 4096


def test_t_n_matches_t_colored_everywhere():
    for m in range(1, 5):
        for p in enumerate_colored(m, 2):
            for n in (-3, -2, -1, 2, 3):
                assert t_n(n, p) == t_colored(thoma_n(n), p)


def test_t_n_is_the_power_of_one_over_n():
    # the exponent is paths - cycles >= 0, so 1 / n**e is (1/n)**e, sign included
    for m in range(5):
        for p in enumerate_colored(m, 2):
            e = moments.tn_exponent(p)
            assert e >= 0
            for n in (-3, -2, 2, 3):
                got = t_n(n, p)
                assert got == Fraction(1, n) ** e and type(got) is Fraction


# the rectangular line on both sides, one rational parameter off it, and
# one float parameter, whose weights must stay floats
UNCOLORED_PARAMETERS = (
    thoma_n(2),
    thoma_n(-3),
    ThomaParameter(alpha=(HALF, Fraction(1, 3)), beta=(Fraction(1, 8),)),
    ThomaParameter(alpha=(0.5, 0.25), beta=(0.125,)),
)


def _reference_weight(tp, v):
    # the Bożejko–Guţă cycle type from the hat-based reference walk
    _, rho = reference.uncolored_cycles(v)
    return thoma_character(tp, rho)


def test_constant_coloring_reduces_to_uncolored():
    # t_uncolored reads the constant coloring's cycle graph; it must give the
    # character at the independently walked cycle type, value and type
    for tp in UNCOLORED_PARAMETERS:
        for m in range(6):
            for v in enumerate_pair_partitions(m):
                got, want = t_uncolored(tp, v), _reference_weight(tp, v)
                assert got == want and type(got) is type(want)
                assert uncolored_handle(tp)(v) == got


def test_no_uncolored_weight_walks_uncolored_cycles(monkeypatch, capsys):
    # uncolored_cycles stays the public decomposition and the tests'
    # reference, but no weight path may call it
    def tripwire(v):
        raise AssertionError("an uncolored weight called uncolored_cycles")

    for name, module in list(sys.modules.items()):
        if name.startswith("gbmoments") and hasattr(module, "uncolored_cycles"):
            monkeypatch.setattr(module, "uncolored_cycles", tripwire)
    for tp in UNCOLORED_PARAMETERS:
        for v in enumerate_pair_partitions(4):
            assert t_uncolored(tp, v) == _reference_weight(tp, v)
    comp = tn_uncolored_handle(2)
    q12 = Fraction(-1, 2)
    q = QMatrix.of([[Fraction(1), q12], [q12, Fraction(1)]])
    for p in enumerate_colored(4, 2):
        minus, plus = (
            _reference_weight(thoma_n(2), reference.color_class(p, b)) for b in (0, 1)
        )
        assert t_tensor(comp, comp, p) == minus * plus
        color_of = dict(zip(p.base.pairs, p.colors))
        mixed = sum(color_of[a] != color_of[b] for a, b in crossings(p.base))
        assert q_product_eval([comp, comp], q, p) == q12**mixed * minus * plus
    capsys.readouterr()
    assert cli.dispatch(["pd-check", "--max-points", "3", "--colors", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"family_size": 14, "min_pivot": "0"}
    assert report["checks"] == [{"actual": True, "expected": True, "name": "psd", "pass": True}]


def test_t_magnitude_bound():
    for tp in (thoma_n(2), thoma_n(-3), ThomaParameter(alpha=(HALF, Fraction(1, 4)))):
        for v in enumerate_pair_partitions(4):
            assert abs(t_uncolored(tp, v)) <= 1


def test_t_tensor_examples():
    comp = tn_uncolored_handle(2)
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    # single-color case: everything lands in one component
    assert t_tensor(comp, comp, p) == HALF
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert t_tensor(comp, comp, p) == 1
    p = ColoredPairPartition.of([(1, 4), (2, 5), (3, 6)], [0, 1, 0])
    assert t_tensor(comp, comp, p) == HALF


def test_fock_moment_examples():
    tn = tn_handle(2)
    w = W.word([W.annihilate(0, 1), W.create(0, 1)])
    assert fock_moment(w, tn) == 1
    w = W.word([W.annihilate(1, 1), W.annihilate(1, 2), W.create(1, 1), W.create(1, 2)])
    assert fock_moment(w, tn) == HALF
    w = W.word([W.annihilate(1, 1), W.annihilate(1, 1), W.create(1, 1), W.create(1, 1)])
    for n in (2, 3, -2):
        assert fock_moment(w, tn_handle(n)) == 1 + Fraction(1, n)
    assert fock_moment(w[:3], tn) == 0


def test_t_free():
    assert t_free(PairPartition.of([(1, 2), (3, 4)])) == 1
    assert t_free(PairPartition.of([(1, 3), (2, 4)])) == 0
    # the zero parameter's character is the noncrossing indicator
    for m in range(7):
        for v in enumerate_pair_partitions(m):
            value = t_free(v)
            assert type(value) is Fraction and value == (1 if not crossings(v) else 0), v


def test_tensor_word_moments_factor_over_colors():
    # mixed-color words never pair across colors, so the tensor moment is
    # the product of the single-color moments of the restricted subwords
    import random

    rng = random.Random(5150)
    comp = tn_uncolored_handle(2)
    handle = tensor_handle(comp, comp)
    single = tn_handle(2)
    letters = [
        W.Letter(b, i, k)
        for b in (0, 1)
        for i in (1, 2)
        for k in (W.ANNIHILATE, W.CREATE)
    ]
    for _ in range(60):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
        restricted = [
            tuple(let for let in w if let.b == b) for b in (0, 1)
        ]
        product = fock_moment(restricted[0], single) * fock_moment(
            restricted[1], single
        )
        assert fock_moment(w, handle) == product


@pytest.mark.parametrize("float_first", [True, False])
def test_equal_parameters_keep_their_scalar_type(float_first):
    # 0.5 == Fraction(1, 2) with equal hashes, so a memo keyed on the
    # parameter's value would hand one type's power sums to the other
    floats = ThomaParameter(alpha=(0.5, 0.25))
    rationals = ThomaParameter(alpha=(HALF, Fraction(1, 4)))
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    v = PairPartition.of([(1, 3), (2, 4)])
    order = [(floats, float), (rationals, Fraction)]
    for tp, scalar in order if float_first else order[::-1]:
        assert type(t_colored(tp, p)) is scalar
        assert type(t_uncolored(tp, v)) is scalar
        component = lambda u: t_uncolored(tp, u)
        assert type(t_tensor(component, component, p)) is scalar
        assert type(thoma_character(tp, {2: 1})) is scalar


def test_invalid_cycle_types_raise_on_every_call():
    tp = ThomaParameter(alpha=(HALF,))
    assert thoma_character(tp, {2: 1}) == Fraction(1, 4)
    # each drops out of the memo key {2: 1}, and each must still be refused
    for cycle_type in ({2: 1, 1: -1}, {2: 1, 0: 3}, {2: 1, 3: -1}):
        for _ in range(2):
            with pytest.raises(ValueError):
                thoma_character(tp, cycle_type)


def test_character_memo_stays_within_its_cap():
    tp = ThomaParameter(alpha=(HALF,), beta=(Fraction(1, 3),))
    cap = moments.CHARACTER_MEMO_SIZE
    for length in range(2, cap + 12):
        expected = tp.power_sum_factor(length) ** 2
        assert thoma_character(tp, {length: 2, 1: 3}) == expected
        assert len(tp._characters) <= cap
    assert len(tp._characters) == cap
    # dropped entries are computed again
    assert thoma_character(tp, {2: 2}) == tp.power_sum_factor(2) ** 2


def test_thoma_n_is_shared():
    tp = thoma_n(2)
    assert tp is thoma_n(2)
    tp.power_sum_factor(3)
    assert repr(tp) == "ThomaParameter(alpha=(Fraction(1, 2), Fraction(1, 2)), beta=())"
    assert tp == ThomaParameter(alpha=(HALF, HALF)) and tp != thoma_n(-2)
    assert hash(tp) == hash(ThomaParameter(alpha=(HALF, HALF)))


def test_partition_reprs():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 0])
    assert repr(p.base) == "PairPartition(pairs=((1, 3), (2, 4)))"
    assert repr(p) == (
        "ColoredPairPartition(base=PairPartition(pairs=((1, 3), (2, 4))), "
        "colors=(1, 0), num_colors=2)"
    )


def test_float_parameters_supported():
    tp = ThomaParameter(alpha=(0.5, 0.25))
    value = t_uncolored(tp, PairPartition.of([(1, 3), (2, 4)]))
    assert isinstance(value, float)
    assert abs(value - (0.25 + 0.0625)) < 1e-12
