"""Extreme-character evaluation and moment formulas for colored pair partitions.

Scalars are exact `Fraction`s whenever the character parameters are rational
(always true for the 1/N family); floats are only produced when float
parameters are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from . import words as W
from .cyclegraph import build_graph
from .partitions import (
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    _walk_cycles,
    uncolored_cycles,
)

Scalar = Fraction | float
TFunction = Callable[[ColoredPairPartition], Scalar]
UncoloredTFunction = Callable[[PairPartition], Scalar]


@dataclass(frozen=True)
class ThomaParameter:
    """Finite parameter (alpha, beta) with sum(alpha) + sum(beta) <= 1.

    Both sequences are weakly decreasing and strictly positive; the leftover
    mass gamma = 1 - sum(alpha) - sum(beta) needs no explicit representation
    since it contributes to no power sum of order >= 2.
    """

    alpha: tuple[Scalar, ...] = ()
    beta: tuple[Scalar, ...] = ()

    def __post_init__(self):
        for seq in (self.alpha, self.beta):
            if any(x <= 0 for x in seq):
                raise ValueError("parameter entries must be positive")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("parameter sequences must be weakly decreasing")
        entries = self.alpha + self.beta
        # exact comparison in rational mode, rounding slack for floats
        slack = 0 if all(isinstance(x, Fraction) for x in entries) else 1e-12
        if sum(entries) > 1 + slack:
            raise ValueError("sum(alpha) + sum(beta) must be <= 1")

    @property
    def gamma(self) -> Scalar:
        return 1 - sum(self.alpha) - sum(self.beta)

    def power_sum_factor(self, m: int) -> Scalar:
        """sum(alpha_i^m) + (-1)^(m+1) * sum(beta_i^m), the weight of an
        m-cycle."""
        sign = 1 if m % 2 else -1
        return sum(a**m for a in self.alpha) + sign * sum(b**m for b in self.beta)


def thoma_n(n: int) -> ThomaParameter:
    """The rectangular parameter: alpha_i = 1/N (i <= N) for N > 0, or
    beta_i = 1/|N| (i <= |N|) for N < 0."""
    if n == 0:
        raise ValueError("N must be nonzero")
    if n > 0:
        return ThomaParameter(alpha=(Fraction(1, n),) * n)
    return ThomaParameter(beta=(Fraction(1, -n),) * (-n))


def thoma_character(tp: ThomaParameter, cycle_type: Mapping[int, int]) -> Scalar:
    """Character value for a permutation with the given cycle type; fixed
    points (length-1 entries) are ignored."""
    value: Scalar = Fraction(1)
    for m, count in sorted(cycle_type.items()):
        if m < 1 or count < 0:
            raise ValueError("cycle type must map lengths >= 1 to counts >= 0")
        if m >= 2 and count:
            value *= tp.power_sum_factor(m) ** count
    return value


def permutation_cycle_type(perm: Sequence[int]) -> dict[int, int]:
    """Cycle type of a permutation in 0-based one-line notation."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation in one-line notation")
    out: dict[int, int] = {}
    for cycle in _walk_cycles(perm):
        out[len(cycle)] = out.get(len(cycle), 0) + 1
    return out


def spherical_function(
    tp: ThomaParameter, pi: Sequence[int], pi_prime: Sequence[int]
) -> Scalar:
    """Character of pi_prime * pi^-1 (permutations in one-line notation on a
    common support)."""
    if len(pi) != len(pi_prime):
        raise ValueError("permutations must act on the same support")
    inv = [0] * len(pi)
    for j, img in enumerate(pi):
        inv[img] = j
    composed = [pi_prime[inv[j]] for j in range(len(pi))]
    return thoma_character(tp, permutation_cycle_type(composed))


def t_uncolored(tp: ThomaParameter, v: PairPartition) -> Scalar:
    """Moment weight of an uncolored pair partition via its cycle type."""
    _, rho = uncolored_cycles(v)
    return thoma_character(tp, rho)


def t_colored(tp: ThomaParameter, p: ColoredPairPartition) -> Scalar:
    """Moment weight of a two-colored pair partition via the cycle graph."""
    return thoma_character(tp, build_graph(p).gamma)


@lru_cache(maxsize=65536)
def _graph_exponent(
    pairs: tuple[tuple[int, int], ...], colors: tuple[int, ...]
) -> int:
    analysis = build_graph(
        ColoredPairPartition(PairPartition(pairs), colors, 2)
    )
    return analysis.total_increasing_paths - analysis.num_cycles


def t_n(n: int, p: ColoredPairPartition) -> Fraction:
    """(1/N)^(paths - cycles); equals t_colored at the rectangular parameter."""
    if n == 0:
        raise ValueError("N must be nonzero")
    if p.num_colors != 2:
        raise ColorArityError("t_n is defined for exactly 2 colors")
    return Fraction(1, n) ** _graph_exponent(p.base.pairs, p.colors)


def t_free(v: PairPartition) -> Fraction:
    """1 on noncrossing partitions, 0 otherwise."""
    from .partitions import crossings

    return Fraction(1) if not crossings(v) else Fraction(0)


def t_tensor(
    t_minus: UncoloredTFunction, t_plus: UncoloredTFunction, p: ColoredPairPartition
) -> Scalar:
    """Product of the component weights on the color-restricted subpartitions."""
    if p.num_colors != 2:
        raise ValueError("tensor weight needs exactly two colors")
    return t_minus(p.color_class(0)) * t_plus(p.color_class(1))


def fock_moment(w: W.Word, t: TFunction) -> Scalar:
    """Vacuum moment of the word: sum of t over all compatible colored
    pair partitions (0 when there are none)."""
    return sum(map(t, W.compatible_partitions(w)), Fraction(0))


def thoma_handle(tp: ThomaParameter) -> TFunction:
    return lambda p: t_colored(tp, p)


def tn_handle(n: int) -> TFunction:
    return lambda p: t_n(n, p)


def tn_uncolored_handle(n: int) -> UncoloredTFunction:
    tp = thoma_n(n)
    return lambda v: t_uncolored(tp, v)


def tensor_handle(
    t_minus: UncoloredTFunction, t_plus: UncoloredTFunction
) -> TFunction:
    return lambda p: t_tensor(t_minus, t_plus, p)
