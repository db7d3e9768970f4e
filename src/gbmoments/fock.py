"""Brute-force vacuum-expectation oracles and word identities.

The dense oracle realizes the symmetrized Fock-like space explicitly at the
rectangular parameter alpha_i = 1/N (N in {2,3}): basis keys hold the two
equal-length value tuples of the underlying bi-invariant space together with
the per-color tensor words, a state keeps an integer amplitude per key and
one exact rational scale, and the symmetrization projector is applied after
every operator, computed by orbit sums: each orbit of keys under the
per-color symmetric groups gets its amplitude sum over its size.  The lambda
oracle propagates single "elementary" states through the canonical word of a
colored pair partition, summing over the finitely many value assignments to
dominant creators; the word fixes the scale, and an assignment only decides
whether the state survives.
Negative N is covered by the purely combinatorial weight sum together with
the exclusion, commutation, and finite-padding identities.  That sum is
computed by the loop-sum identity rho_N(w) = N^-P(w) sum over the
compatible matchings M of N^cycles(M u Z(w)): the bar partition Z(w) and
the path count P(w) are the same for every partition compatible with w, so
they are computed once per word (`word_frame`) and only the cycles of each
matching joined with Z(w) are counted.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from . import words as W
from .cyclegraph import BarFrame, bar_frame, classify, loop_counter
from .partitions import CapacityError, ColoredPairPartition

DENSE_MAX_LEVEL = 4
DENSE_MAX_N = 3
LAMBDA_MAX_LEVEL = 5

# key: (x, y, word_minus, word_plus); len(x) == len(y) == max(word lengths)
StateKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

VACUUM_KEY: StateKey = ((), (), (), ())

class State:
    """A vector of the dense space: one exact scale times integer
    amplitudes on basis keys, scale * sum of amp * key.  Operators do
    integer work per key and fold their denominators into the scale, once
    per step; len() is the number of keys."""

    __slots__ = ("scale", "amps")

    def __init__(self, scale: Fraction, amps: dict[StateKey, int]):
        self.scale = scale
        self.amps = amps

    def __len__(self) -> int:
        return len(self.amps)

    @classmethod
    def of(cls, exact: dict[StateKey, Fraction]) -> State:
        """The state with these exact amplitudes, keys kept as given."""
        common = lcm(*(Fraction(amp).denominator for amp in exact.values()))
        return cls(Fraction(1, common), {key: int(amp * common) for key, amp in exact.items()})

    def amplitudes(self) -> dict[StateKey, Fraction]:
        """The exact amplitude of every key."""
        return {key: amp * self.scale for key, amp in self.amps.items()}


def check_dense_params(n: int):
    if n < 2:
        raise ValueError("the Fock-space oracles require N >= 2 (signed case unsupported)")
    if n > DENSE_MAX_N:
        raise CapacityError(f"the Fock-space oracles are limited to N <= {DENSE_MAX_N}")


def check_dense_word(w: W.Word, n: int):
    """Refuse, before any operator is applied, what the dense oracle would
    refuse while applying w: the parameters, then the level apply_letter
    checks at each creator.  Read right to left, a creator of color b meets
    level max(n_b + 1, n_other), n_c counting the color-c creators minus
    annihilators so far; every key of a nonzero state has these word lengths,
    and a word with a compatible partition never vanishes at N in {2, 3}
    (its vacuum amplitude is a sum of positive t_N values).  A word without
    one may vanish first, so it is left to the oracle."""
    check_dense_params(n)
    counts, peak = [0, 0], 0
    for let in reversed(w):
        if let.k == W.CREATE:
            peak = max(peak, counts[let.b] + 1, counts[1 - let.b])
            counts[let.b] += 1
        else:
            counts[let.b] -= 1
    if peak > DENSE_MAX_LEVEL and W.compatible_count(w) > 0:
        raise CapacityError(f"word drives a level above {DENSE_MAX_LEVEL}")


def vacuum_state() -> State:
    return State(Fraction(1), {VACUUM_KEY: 1})


# the m <= 4 compare matrix meets 256 distinct column multisets
@lru_cache(maxsize=1024)
def _arrangements(columns: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distinct orderings of a multiset of (value, index) columns, each
    as its value prefix and its word."""
    if not columns:
        return (((), ()),)
    return tuple(tuple(zip(*order)) for order in set(itertools.permutations(columns)))


def sym_project(state: State) -> State:
    """The symmetrization projector P = (1/|G|) sum over g in G of g, with
    G = S_{n-} x S_{n+}: S_{n-} permutes the columns zip(x[:n-], w-), S_{n+}
    the columns zip(y[:n+], w+), and the tails x[n-:], y[n+:] stay fixed.
    P(v) is constant on each orbit of keys, equal to the orbit's amplitude
    sum over its size, so it is computed one orbit at a time; orbits that
    sum to zero are dropped.  On integer amplitudes: with L the lcm of the
    orbit sizes, each key gets total * (L // size) and the scale is divided
    by L; the amplitudes' gcd then moves into the scale.  Raises ValueError
    for a key whose value tuple is shorter than its word."""
    totals = defaultdict(int)
    for key, amp in state.amps.items():
        x, y, wm, wp = key
        nm, np_ = len(wm), len(wp)
        if len(x) < nm or len(y) < np_:
            raise ValueError(f"value tuples of {key} are shorter than its words")
        orbit = (tuple(sorted(zip(x, wm))), x[nm:], tuple(sorted(zip(y, wp))), y[np_:])
        totals[orbit] += amp
    orbits = []
    for (minus_columns, x_tail, plus_columns, y_tail), total in totals.items():
        if total:
            minus, plus = _arrangements(minus_columns), _arrangements(plus_columns)
            orbits.append((minus, x_tail, plus, y_tail, total, len(minus) * len(plus)))
    if not orbits:
        return State(state.scale, {})
    common = lcm(*(size for *_, size in orbits))
    shared = gcd(*(total * (common // size) for *_, total, size in orbits))
    out: dict[StateKey, int] = {}
    for minus, x_tail, plus, y_tail, total, size in orbits:
        value = total * (common // size) // shared
        for x_head, wm in minus:
            x = x_head + x_tail
            for y_head, wp in plus:
                out[(x, y_head + y_tail, wm, wp)] = value
    return State(state.scale * Fraction(shared, common), out)


def apply_letter(state: State, letter: W.Letter, n: int) -> State:
    """One creation or annihilation operator, exactly, then re-symmetrize.
    A creator multiplies each amplitude by n_b + 1; an annihilator divides
    the scale by N and multiplies the amplitude of each key it leaves at
    its level by N."""
    b, i = letter.b, letter.i
    scale = state.scale
    out: dict[StateKey, int] = defaultdict(int)
    if letter.k == W.CREATE:
        for (x, y, wm, wp), amp in state.amps.items():
            words = (wm, wp)
            nb, nother = len(words[b]), len(words[1 - b])
            if max(nb + 1, nother) > DENSE_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {DENSE_MAX_LEVEL}")
            coef = amp * (nb + 1)
            new_word = words[b] + (i,)
            pair = (new_word, words[1 - b]) if b == 0 else (words[1 - b], new_word)
            if nb >= nother:
                for z in range(1, n + 1):
                    out[(x + (z,), y + (z,), pair[0], pair[1])] += coef
            else:
                out[(x, y, pair[0], pair[1])] += coef
    else:
        # adjoint of creation: on an already-symmetrized state only the
        # last word factor is removed; the k-sum of the textbook formula
        # is recovered by the surrounding symmetrization average
        scale = scale / n
        for (x, y, wm, wp), amp in state.amps.items():
            words = (wm, wp)
            nb, nother = len(words[b]), len(words[1 - b])
            if nb == 0 or words[b][-1] != i:
                continue
            new_word = words[b][:-1]
            pair = (new_word, words[1 - b]) if b == 0 else (words[1 - b], new_word)
            if nb <= nother:
                out[(x, y, pair[0], pair[1])] += amp * n
            elif x[-1] == y[-1]:
                out[(x[:-1], y[:-1], pair[0], pair[1])] += amp
    return sym_project(State(scale, out))


def apply_word(state: State, w: W.Word, n: int) -> State:
    """Apply a word as an operator product (rightmost letter first)."""
    for letter in reversed(w):
        state = apply_letter(state, letter, n)
        if not state:
            break
    return state


def check_state(state: State) -> None:
    """Validate the basis-key invariants: the two value tuples of a key are
    equal-length permutations of each other, sized to the larger word, and
    the state is fixed by the symmetrization projector; raises ValueError
    otherwise."""
    for key in state.amps:
        x, y, wm, wp = key
        if not len(x) == len(y) == max(len(wm), len(wp)):
            raise ValueError(f"value tuples of {key} do not match its level")
        if sorted(x) != sorted(y):
            raise ValueError(f"value tuples of {key} are not permutations of each other")
    if sym_project(state).amplitudes() != state.amplitudes():
        raise ValueError("state is not fixed by the symmetrization projector")


def state_inner(s1: State, s2: State, n: int) -> Fraction:
    """Weighted inner product: each basis key carries N^-level / (n_-)!(n_+)!."""
    total = Fraction(0)
    others = s2.amplitudes()
    for key, amp in s1.amplitudes().items():
        other = others.get(key)
        if other is None:
            continue
        x, _, wm, wp = key
        weight = Fraction(1, n ** len(x) * factorial(len(wm)) * factorial(len(wp)))
        total += amp * other * weight
    return total


def vacuum_expectation_dense(w: W.Word, n: int) -> Fraction:
    """<vacuum, A vacuum> by literal operator application."""
    check_dense_params(n)
    final = apply_word(vacuum_state(), w, n)
    return final.scale * final.amps.get(VACUUM_KEY, 0)


def vacuum_expectation_lambda(p: ColoredPairPartition, n: int) -> Fraction:
    """<vacuum, A vacuum> for the canonical word of p, via elementary-state
    propagation summed over value assignments to the dominant creators.
    The levels, and with them the scale, are fixed by the word; an
    assignment only decides whether the state survives, so the sum is the
    survivor count times that one scale."""
    check_dense_params(n)
    word = W.canonical_word(p)
    cls = classify(p)
    rights = p.base.right_points()
    dominant_creators = [k for k in range(1, p.size + 1) if k in rights and cls[k] == "D"]

    survivors, scale = 0, None
    for values in itertools.product(range(1, n + 1), repeat=len(dominant_creators)):
        lam = dict(zip(dominant_creators, values))
        found = _propagate(word, lam, n, p)
        if found is None:
            continue
        if scale is None:
            scale = found
        elif found != scale:
            raise RuntimeError("every surviving assignment must carry the scale of the word")
        survivors += 1
    if scale is None:
        return Fraction(0)
    return Fraction(survivors * scale[0], scale[1])


def _propagate(
    word: W.Word, lam: dict[int, int], n: int, p: ColoredPairPartition
) -> tuple[int, int] | None:
    """Elementary-state propagation right-to-left through the word.

    The state is a scale factor, one value tuple per color (both of length
    max(level_0, level_1)), and one index word per color; word positions
    1..level_b bind to the same positions of color b's tuple, positions
    above level_b are its unbound tail.  Returns the scale as (numerator,
    denominator), or None when the state dies."""
    num = den = 1
    tuples: list[list[int]] = [[], []]  # color 0 tuple, color 1 tuple
    words: list[list[int]] = [[], []]
    for k in range(p.size, 0, -1):
        letter = word[k - 1]
        b, i = letter.b, letter.i
        nb, nother = len(words[b]), len(words[1 - b])
        if letter.k == W.CREATE:
            if max(nb + 1, nother) > LAMBDA_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {LAMBDA_MAX_LEVEL}")
            num *= nb + 1
            if (k in lam) != (nb >= nother):
                raise RuntimeError("exactly the dominant creators carry an assignment")
            if k in lam:
                tuples[0].append(lam[k])
                tuples[1].append(lam[k])
            words[b].append(i)
        else:
            pos = words[b].index(i)
            bound_value = tuples[b][pos]
            if nb > nother:
                # dominant: level drops, the weak side's top tail entry must
                # match the value bound to this index
                if tuples[1 - b][-1] != bound_value:
                    return None
                den *= n * nb
                del tuples[b][pos]
                del tuples[1 - b][-1]
            else:
                # subordinate: freed value becomes the bottom of b's tail
                den *= nb
                del tuples[b][pos]
                tuples[b].insert(nb - 1, bound_value)
            del words[b][pos]
    if words[0] or words[1] or tuples[0] or tuples[1]:
        raise RuntimeError("the word must return to the vacuum")
    return num, den


def word_frame(w: W.Word) -> BarFrame:
    """The bar frame of the word's points, shared by every partition
    compatible with it; the word must have one.  The frame indexes by color,
    so a color outside {0, 1} raises ValueError, as `words.word()` does."""
    color = [0] + [let.b for let in w]
    if not set(color) <= {0, 1}:
        raise ValueError("color id must be 0 or 1")
    annihilator = [False] + [let.k == W.ANNIHILATE for let in w]
    return bar_frame(color, annihilator)


def rho_n_combinatorial(w: W.Word, n: int) -> Fraction:
    """Moment functional: the sum of t_N(p) = N^-(paths - cycles) over the
    partitions p compatible with the word; valid for any nonzero N, in
    particular negative ones.

    The word fixes the bar frame, and with it Z(w) and the path count P(w),
    so the sum is the loop sum N^-P(w) * sum over the compatible matchings
    M of N^cycles(M u Z(w)); the cycle counts (the lengths of
    `cyclegraph.loop_counter`'s per-cycle lists) are tallied and divided by
    N^P(w) once.  Equals fock_moment(w, tn_handle(n))."""
    if n == 0:
        raise ValueError("N must be nonzero")
    matchings = W.compatible_matchings(w)
    if not matchings:
        return Fraction(0)
    frame = word_frame(w)
    path_counts = loop_counter(frame)
    histogram = [0] * (len(w) // 2 + 1)
    for pairs in matchings:
        histogram[len(path_counts(pairs))] += 1
    numerator = sum(count * n**c for c, count in enumerate(histogram))
    return Fraction(numerator, n**frame.paths)


def one_color_words(max_len: int, num_indices: int, color: int = 1):
    """All words on one color over indices 1..num_indices, lengths 1..max_len."""
    letters = [
        W.Letter(color, i, kind)
        for i in range(1, num_indices + 1)
        for kind in (W.ANNIHILATE, W.CREATE)
    ]
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield W.word(combo)


def exclusion_check(
    n: int, max_len: int = 6, num_indices: int = 2, color: int = 1
) -> dict:
    """For every generated word whose profile exceeds |N| somewhere, verify
    that the squared word has vanishing moment.  N must be negative."""
    if n >= 0:
        raise ValueError("exclusion principle applies to negative N")
    checked = 0
    failures = []
    for w in one_color_words(max_len, num_indices, color):
        prof = W.word_profile(w)
        if not any(v > -n for v in prof.values()):
            continue
        value = rho_n_combinatorial(W.adjoint(w) + w, n)
        checked += 1
        if value != 0:
            failures.append((w, value))
    return {"checked": checked, "failures": failures, "all_zero": not failures}


def commutation_check(
    a_word: W.Word, b_word: W.Word, b: int, i: int, n: int
) -> tuple[Fraction, Fraction, bool]:
    """Both sides of rho(B* a a* A) = (1 + w^A_b(i)/N) rho(B* A).

    Requires the color-b profile weight of A to dominate the other color's.
    """
    if W.profile_weight(a_word, b) < W.profile_weight(a_word, 1 - b):
        raise ValueError("hypothesis violated: |w_b| < |w_-b| for the word A")
    middle = (W.annihilate(b, i), W.create(b, i))
    lhs = rho_n_combinatorial(W.adjoint(b_word) + middle + a_word, n)
    weight = W.word_profile(a_word).get((b, i), 0)
    rhs = (1 + Fraction(weight, n)) * rho_n_combinatorial(
        W.adjoint(b_word) + a_word, n
    )
    return lhs, rhs, lhs == rhs


def _padded(
    a_word: W.Word, b_word: W.Word, b: int, pad: int, middle: W.Word
) -> W.Word:
    """B* a_{2p}..a_{p+1} middle a*_{p+1}..a*_{2p} A on the color-b padding
    indices p+1..2p (p = pad), which A and B must not use."""
    used = {(let.b, let.i) for let in a_word + b_word}
    if any((b, j) in used for j in range(pad + 1, 2 * pad + 1)):
        raise ValueError("padding indices must be unused by A and B")
    left_pad = tuple(W.annihilate(b, j) for j in range(2 * pad, pad, -1))
    right_pad = tuple(W.create(b, j) for j in range(pad + 1, 2 * pad + 1))
    return W.adjoint(b_word) + left_pad + middle + right_pad + a_word


def wlim_identity_check(
    a_word: W.Word, b_word: W.Word, b: int, i: int, n: int, pad: int
) -> tuple[Fraction, Fraction, bool]:
    """Exact finite-padding identity
    rho(B* a_{2p}..a_{p+1} a* a a*_{p+1}..a*_{2p} A) = (w^A_b(i)/N^2) rho(B* A)
    for padding size p beyond the profile threshold."""
    full = _padded(a_word, b_word, b, pad, (W.create(b, i), W.annihilate(b, i)))
    if pad + W.profile_weight(a_word, b) <= W.profile_weight(a_word, 1 - b):
        raise ValueError("padding size below the identity's threshold")
    lhs = rho_n_combinatorial(full, n)
    weight = W.word_profile(a_word).get((b, i), 0)
    rhs = Fraction(weight, n**2) * rho_n_combinatorial(
        W.adjoint(b_word) + a_word, n
    )
    return lhs, rhs, lhs == rhs


def wlim_creator_pair_bound(
    a_word: W.Word, b_word: W.Word, b: int, i: int, n: int, pad: int, r: int
) -> tuple[Fraction, Fraction, bool]:
    """Decay bound for the doubled-creator padding variant:
    |rho(B* pads a* a* pads* A)| <= C |N|^(1-r) with C the number of
    compatible partitions, valid once pad + |w_b| - |w_-b| > 2r."""
    full = _padded(a_word, b_word, b, pad, (W.create(b, i), W.create(b, i)))
    if pad + W.profile_weight(a_word, b) - W.profile_weight(a_word, 1 - b) <= 2 * r:
        raise ValueError("padding size below the bound's threshold")
    value = rho_n_combinatorial(full, n)
    count = W.compatible_count(full)
    bound = Fraction(count * abs(n), abs(n) ** r)
    return value, bound, abs(value) <= bound
