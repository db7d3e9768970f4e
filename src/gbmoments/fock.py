"""Brute-force vacuum-expectation oracles and word identities.

The dense oracle realizes the symmetrized Fock-like space explicitly at the
rectangular parameter alpha_i = 1/N (N in {2,3}): basis keys hold the two
equal-length value tuples of the underlying bi-invariant space together with
the per-color tensor words, amplitudes are exact rationals, and the
symmetrization projector is applied by literal group averaging after every
operator.  The lambda oracle propagates single "elementary" states through
the canonical word of a colored pair partition, summing over the finitely
many value assignments to dominant creators.  Negative N is covered by the
purely combinatorial weight sum together with the exclusion, commutation,
and finite-padding identities.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

from . import words as W
from .cyclegraph import classify
from .moments import fock_moment, tn_handle
from .partitions import CapacityError, ColoredPairPartition

DENSE_MAX_LEVEL = 4
DENSE_MAX_N = 3
LAMBDA_MAX_LEVEL = 5

# key: (x, y, word_minus, word_plus); len(x) == len(y) == max(word lengths)
StateKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
State = dict[StateKey, Fraction]

VACUUM_KEY: StateKey = ((), (), (), ())


def _check_dense_params(n: int):
    if n < 2:
        raise ValueError("the Fock-space oracles require N >= 2 (signed case unsupported)")
    if n > DENSE_MAX_N:
        raise CapacityError(f"the Fock-space oracles are limited to N <= {DENSE_MAX_N}")


def vacuum_state() -> State:
    return {VACUUM_KEY: Fraction(1)}


def _apply_perm(seq: tuple, perm: tuple[int, ...]) -> tuple:
    return tuple(seq[perm[i]] for i in range(len(perm))) + seq[len(perm):]


def sym_project(state: State) -> State:
    """Group-average over the per-color symmetrizations of tuple prefixes
    and tensor words."""
    out: State = defaultdict(Fraction)
    for (x, y, wm, wp), amp in state.items():
        nm, np_ = len(wm), len(wp)
        weight = amp / (factorial(nm) * factorial(np_))
        for pm in itertools.permutations(range(nm)):
            x2 = _apply_perm(x, pm)
            wm2 = _apply_perm(wm, pm)
            for pp in itertools.permutations(range(np_)):
                key = (x2, _apply_perm(y, pp), wm2, _apply_perm(wp, pp))
                out[key] += weight
    return {k: v for k, v in out.items() if v}


def apply_letter(state: State, letter: W.Letter, n: int) -> State:
    """One creation or annihilation operator, exactly, then re-symmetrize."""
    b, i = letter.b, letter.i
    out: State = defaultdict(Fraction)
    for (x, y, wm, wp), amp in state.items():
        words = (wm, wp)
        nb, nother = len(words[b]), len(words[1 - b])
        if letter.k == W.CREATE:
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
            if nb == 0 or words[b][-1] != i:
                continue
            new_word = words[b][:-1]
            pair = (new_word, words[1 - b]) if b == 0 else (words[1 - b], new_word)
            if nb <= nother:
                out[(x, y, pair[0], pair[1])] += amp
            else:
                if x[-1] != y[-1]:
                    continue
                out[(x[:-1], y[:-1], pair[0], pair[1])] += amp * Fraction(1, n)
    return sym_project(out)


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
    for key in state:
        x, y, wm, wp = key
        if not len(x) == len(y) == max(len(wm), len(wp)):
            raise ValueError(f"value tuples of {key} do not match its level")
        if sorted(x) != sorted(y):
            raise ValueError(f"value tuples of {key} are not permutations of each other")
    if sym_project(state) != state:
        raise ValueError("state is not fixed by the symmetrization projector")


def state_inner(s1: State, s2: State, n: int) -> Fraction:
    """Weighted inner product: each basis key carries N^-level / (n_-)!(n_+)!."""
    total = Fraction(0)
    for key, amp in s1.items():
        other = s2.get(key)
        if other is None:
            continue
        x, _, wm, wp = key
        weight = Fraction(1, n ** len(x) * factorial(len(wm)) * factorial(len(wp)))
        total += amp * other * weight
    return total


def vacuum_expectation_dense(w: W.Word, n: int) -> Fraction:
    """<vacuum, A vacuum> by literal operator application."""
    _check_dense_params(n)
    final = apply_word(vacuum_state(), w, n)
    return final.get(VACUUM_KEY, Fraction(0))


def vacuum_expectation_lambda(p: ColoredPairPartition, n: int) -> Fraction:
    """<vacuum, A vacuum> for the canonical word of p, via elementary-state
    propagation summed over value assignments to the dominant creators."""
    _check_dense_params(n)
    word = W.canonical_word(p)
    cls = classify(p)
    rights = p.base.right_points()
    dominant_creators = [k for k in range(1, p.size + 1) if k in rights and cls[k] == "D"]

    total = Fraction(0)
    for values in itertools.product(range(1, n + 1), repeat=len(dominant_creators)):
        lam = dict(zip(dominant_creators, values))
        total += _propagate(word, lam, n, p)
    return total


def _propagate(
    word: W.Word, lam: dict[int, int], n: int, p: ColoredPairPartition
) -> Fraction:
    """Elementary-state propagation right-to-left through the word.

    The state is a scale factor, one value tuple per color (both of length
    max(level_0, level_1)), and one index word per color; word positions
    1..level_b bind to the same positions of color b's tuple, positions
    above level_b are its unbound tail."""
    scale = Fraction(1)
    tuples: list[list[int]] = [[], []]  # color 0 tuple, color 1 tuple
    words: list[list[int]] = [[], []]
    for k in range(p.size, 0, -1):
        letter = word[k - 1]
        b, i = letter.b, letter.i
        nb, nother = len(words[b]), len(words[1 - b])
        if letter.k == W.CREATE:
            if max(nb + 1, nother) > LAMBDA_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {LAMBDA_MAX_LEVEL}")
            scale *= nb + 1
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
                    return Fraction(0)
                scale *= Fraction(1, n * nb)
                del tuples[b][pos]
                del tuples[1 - b][-1]
            else:
                # subordinate: freed value becomes the bottom of b's tail
                scale *= Fraction(1, nb)
                del tuples[b][pos]
                tuples[b].insert(nb - 1, bound_value)
            del words[b][pos]
    if words[0] or words[1] or tuples[0] or tuples[1]:
        raise RuntimeError("the word must return to the vacuum")
    return scale


def rho_n_combinatorial(w: W.Word, n: int) -> Fraction:
    """Moment functional as the weight sum over compatible partitions;
    valid for any nonzero N, in particular negative ones."""
    if n == 0:
        raise ValueError("N must be nonzero")
    return fock_moment(w, tn_handle(n))


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
