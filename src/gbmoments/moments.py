"""Extreme-character evaluation and moment formulas for colored pair partitions.

Scalars are exact `Fraction`s whenever the character parameters are rational
(always true for the 1/N family); floats are only produced when float
parameters are supplied.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

from . import words as W
from .cyclegraph import _require_two_colors, bar_frame, loop_counter, point_roles
from .partitions import ColoredPairPartition, FrozenValue, PairPartition, _check_n

Scalar = Fraction | float
TFunction = Callable[[ColoredPairPartition], Scalar]
UncoloredTFunction = Callable[[PairPartition], Scalar]

# bounds each Thoma parameter's character memo, which a stream of ever
# larger partitions would otherwise grow without end
CHARACTER_MEMO_SIZE = 256


class ThomaParameter(FrozenValue):
    """Finite parameter (alpha, beta) with sum(alpha) + sum(beta) <= 1.

    Both sequences are weakly decreasing and strictly positive; the leftover
    mass gamma = 1 - sum(alpha) - sum(beta) needs no explicit representation
    since it contributes to no power sum of order >= 2.
    """

    __slots__ = ("alpha", "beta", "_characters")
    alpha: tuple[Scalar, ...]
    beta: tuple[Scalar, ...]
    # characters by sorted (length, count) items (see `_character`), filled
    # on first use, the one memo every weight call reads; kept per instance
    # because equal parameters need not give equal results (0.5 == Fraction(1, 2))
    _characters: dict[tuple[tuple[int, int], ...], Scalar]

    def __init__(self, alpha: tuple[Scalar, ...] = (), beta: tuple[Scalar, ...] = ()):
        for seq in (alpha, beta):
            # not x > 0 also refuses NaN
            if any(not x > 0 for x in seq):
                raise ValueError("parameter entries must be positive")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("parameter sequences must be weakly decreasing")
        entries = alpha + beta
        # exact comparison in rational mode, rounding slack for floats
        slack = 0 if all(isinstance(x, Fraction) for x in entries) else 1e-12
        if sum(entries) > 1 + slack:
            raise ValueError("sum(alpha) + sum(beta) must be <= 1")
        self._assign(alpha, beta, {})

    @property
    def gamma(self) -> Scalar:
        return 1 - sum(self.alpha) - sum(self.beta)

    def power_sum_factor(self, m: int) -> Scalar:
        """sum(alpha_i^m) + (-1)^(m+1) * sum(beta_i^m), the weight of an
        m-cycle."""
        sign = 1 if m % 2 else -1
        return sum(a**m for a in self.alpha) + sign * sum(b**m for b in self.beta)


# the zero parameter (gamma = 1), at which t_uncolored is t_free
FREE = ThomaParameter()


# typed, so that 2.0 and True reach _check_n and never share the entries of 2 and 1
@lru_cache(maxsize=64, typed=True)
def thoma_n(n: int) -> ThomaParameter:
    """The rectangular parameter: alpha_i = 1/N (i <= N) for N > 0, or
    beta_i = 1/|N| (i <= |N|) for N < 0."""
    _check_n(n)
    if n > 0:
        return ThomaParameter(alpha=(Fraction(1, n),) * n)
    return ThomaParameter(beta=(Fraction(1, -n),) * (-n))


def thoma_character(tp: ThomaParameter, cycle_type: Mapping[int, int]) -> Scalar:
    """Character value for a permutation with the given cycle type; fixed
    points (length-1 entries) are ignored.

    Every call validates the cycle type: each length an int >= 1 and each
    count an int >= 0 (bools refused), else ValueError."""
    contributing = []
    for m, count in sorted(cycle_type.items()):
        if type(m) is not int or type(count) is not int or m < 1 or count < 0:
            raise ValueError("cycle type must map int lengths >= 1 to int counts >= 0")
        if m >= 2 and count:
            contributing.append((m, count))
    return _character(tp, tuple(contributing))


def _character(tp: ThomaParameter, items: tuple[tuple[int, int], ...]) -> Scalar:
    """The product of p_k ** c over the sorted (k, c) items with k >= 2, in
    item order, memoized on tp by the items in at most CHARACTER_MEMO_SIZE
    entries, the oldest dropped first."""
    memo = tp._characters
    value = memo.get(items)
    if value is None:
        value = Fraction(1)
        for k, count in items:
            if k >= 2:
                value *= tp.power_sum_factor(k) ** count
        if len(memo) >= CHARACTER_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[items] = value
    return value


def t_uncolored(tp: ThomaParameter, v: PairPartition) -> Scalar:
    """Moment weight of an uncolored pair partition: the Thoma character at
    its Bożejko–Guţă cycle type rho, read as the cycle graph's histogram
    gamma under the constant coloring.  There every point is dominant, Z is
    the noncrossing hat and every creator r has Z(r) < r, so each cycle has
    one peak per pair, and gamma is rho."""
    return _character(tp, _graph_exponent(v.pairs, (1,) * v.m))


def t_colored(tp: ThomaParameter, p: ColoredPairPartition) -> Scalar:
    """Moment weight of a two-colored pair partition: the product over the
    cycles of its cycle graph of p_k(alpha, beta), k the cycle's number of
    maximal increasing paths, i.e. the Thoma character at the histogram
    gamma (k -> number of cycles)."""
    _require_two_colors(p)
    return _character(tp, _graph_exponent(p.base.pairs, p.colors))


# bench/worker.py reads this function's cache_info; the cap bounds memory
# when callers stream distinct partitions, each looked up a few times in a row
@lru_cache(maxsize=4096)
def _graph_exponent(
    pairs: tuple[tuple[int, int], ...], colors: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """The cycle graph's histogram gamma as its (path count, cycles) items,
    sorted by path count, which `_character` takes as they are: the bar
    frame of the pairs' points, and the per-cycle path counts of its bar
    arcs joined with the pairs' arcs.  The exponent of t_N is
    sum((k - 1) * c): paths - cycles."""
    color, annihilator, step = point_roles(pairs, colors)
    gamma: dict[int, int] = {}
    for k in loop_counter(bar_frame(color, annihilator), step):
        gamma[k] = gamma.get(k, 0) + 1
    return tuple(sorted(gamma.items()))


def tn_exponent(p: ColoredPairPartition) -> int:
    """paths - cycles of a two-colored partition's cycle graph, the power
    of 1/N in t_N."""
    _require_two_colors(p)
    return sum((k - 1) * c for k, c in _graph_exponent(p.base.pairs, p.colors))


def t_n(n: int, p: ColoredPairPartition) -> Fraction:
    """(1/N)^(paths - cycles); equals t_colored at the rectangular parameter."""
    _check_n(n)
    # the exponent is never negative, so n ** e is an exact int
    return Fraction(1, n ** tn_exponent(p))


def t_free(v: PairPartition) -> Fraction:
    """1 on noncrossing partitions, 0 otherwise: t_uncolored at the zero
    parameter, where every power sum of order >= 2 vanishes, so a partition
    weighs 1 iff its cycle type has only 1-cycles, iff it is noncrossing."""
    return t_uncolored(FREE, v)


def t_tensor(
    t_minus: UncoloredTFunction, t_plus: UncoloredTFunction, p: ColoredPairPartition
) -> Scalar:
    """Product of the component weights on the color-restricted subpartitions."""
    if p.num_colors != 2:
        raise ValueError("tensor weight needs exactly two colors")
    minus, plus = p.base.split(p.colors, 2)
    return t_minus(minus) * t_plus(plus)


def fock_moment(w: W.Word, t: TFunction) -> Scalar:
    """Vacuum moment of the word: sum of t over all compatible colored
    pair partitions (0 when there are none)."""
    return sum(map(t, W.compatible_partitions(w)), Fraction(0))


def thoma_handle(tp: ThomaParameter) -> TFunction:
    return lambda p: t_colored(tp, p)


def uncolored_handle(tp: ThomaParameter) -> UncoloredTFunction:
    return lambda v: t_uncolored(tp, v)


def tn_handle(n: int) -> TFunction:
    return lambda p: t_n(n, p)


def tn_uncolored_handle(n: int) -> UncoloredTFunction:
    return uncolored_handle(thoma_n(n))


def tensor_handle(
    t_minus: UncoloredTFunction, t_plus: UncoloredTFunction
) -> TFunction:
    return lambda p: t_tensor(t_minus, t_plus, p)
