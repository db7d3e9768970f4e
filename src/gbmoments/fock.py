"""Brute-force vacuum-expectation oracles and word identities.

The dense oracle realizes the symmetrized Fock-like space explicitly at the
rectangular parameter alpha_i = 1/N (N in {2,3}).  A basis key holds the
two equal-length value tuples of the underlying bi-invariant space together
with the per-color tensor words; read per color, a key is a row of
(value, index) columns followed by an unbound tail of values, and an orbit
stores each column as the int index * COLUMN_BASE + value.  A
symmetrized vector is constant on each orbit of keys under the per-color
symmetric groups, which permute the columns and fix the tails, so a
`State` keeps one integer total per orbit (the amplitude sum of its keys)
and one exact scale; on totals the symmetrization projector, which spreads
a total evenly over the orbit's keys, is the identity.  An operator adds
each orbit's total, weighed, to its image orbits; no key is ever listed.
A state built by an operator carries its word lengths, so the next one
reads its level without a scan.
The lambda oracle propagates single "elementary" states through the
canonical word of a colored pair partition in one depth-first walk over an
explicit stack, right to left, that branches over value classes: a
dominant creator takes each of the d values its state holds, or one fresh
label that stands for the N - d others and weighs N - d.  The walk compares
values only for equality, so assignments that a permutation of 1..N maps
into each other survive or die together, and the class walk is exact.  A
branch is dropped at the first dominant annihilator whose values disagree.
The walk reads dominance off the word's levels alone, not from
`cyclegraph`; the word fixes the scale, and an assignment only decides
whether the state survives.
Negative N is covered by the purely combinatorial weight sum together with
the exclusion, commutation, and finite-padding identities.  That sum is
the loop sum rho_N(w) = N^-P(w) sum over the compatible matchings M of
N^cycles(M u Z(w)): the bar partition Z(w) and the path count P(w) are the
same for every partition compatible with w, so they are computed once per
word (`word_frame`), and the sum is read off one left-to-right scan over
the open paths of M u Z(w), which lists no matching.
"""

from __future__ import annotations

import itertools
from bisect import bisect, bisect_left, bisect_right, insort
from collections import defaultdict
from fractions import Fraction
from math import lcm

from . import words as W
from .cyclegraph import BarFrame, bar_frame
from .partitions import CapacityError, ColoredPairPartition, _check_n

DENSE_MAX_LEVEL = 4
DENSE_MAX_N = 3
LAMBDA_MAX_LEVEL = 5
# open paths, summed over the states of one point, that the loop scan may hold
SCAN_MAX_PATHS = 200_000
# a column is the int index * COLUMN_BASE + value; values stay below the base
COLUMN_BASE = DENSE_MAX_N + 1

# key: (x, y, word_minus, word_plus); len(x) == len(y) == max(word lengths)
StateKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# orbit of keys: (sorted minus columns, x tail, sorted plus columns, y tail),
# a column being a (value, index) pair of zip(x, word_minus) or zip(y, word_plus)
# encoded as index * COLUMN_BASE + value, so the columns of one index are a run
Orbit = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

VACUUM: Orbit = ((), (), (), ())


class State:
    """A symmetrized vector of the dense space, kept on orbits: amps[orbit]
    is the integer total of the orbit's keys, each of which carries the
    exact amplitude num / den * amps[orbit] / |orbit|.  Operators do integer
    work per orbit and fold their factors into num / den, which becomes a
    Fraction only when read; len() is the number of orbits.  `levels` is
    the word lengths (n_0, n_1) that every orbit shares, carried by the
    states `apply_letter` builds; a state built by hand leaves it None, and
    its orbits are scanned.  No oracle reads a single key, so the per-key
    view (every key with its amplitude) is left to the tests' reference
    `expand`."""

    __slots__ = ("num", "den", "amps", "levels")

    def __init__(self, num: int, den: int, amps: dict[Orbit, int], levels: tuple[int, int] | None = None):
        self.num = num
        self.den = den
        self.amps = amps
        self.levels = levels

    def __len__(self) -> int:
        return len(self.amps)


def check_dense_params(n: int):
    """ValueError unless N is an int >= 2 (not a bool); CapacityError above
    `DENSE_MAX_N`."""
    _check_n(n)
    if n < 2:
        raise ValueError("the Fock-space oracles require N >= 2 (signed case unsupported)")
    if n > DENSE_MAX_N:
        raise CapacityError(f"the Fock-space oracles are limited to N <= {DENSE_MAX_N}")


def vacuum_state() -> State:
    return State(1, 1, {VACUUM: 1}, (0, 0))


def sym_project(raw: dict[StateKey, int | Fraction]) -> State:
    """The symmetrization projector P = (1/|G|) sum over g in G of g on a
    vector given by one exact amplitude per basis key, with G = S_{n-} x
    S_{n+}: S_{n-} permutes the columns zip(x[:n-], w-), S_{n+} the columns
    zip(y[:n+], w+), and the tails x[n-:], y[n+:] stay fixed.  P(v) spreads
    each orbit's amplitude sum evenly over its keys, so as a State it is the
    nonzero orbit sums.  Raises ValueError for a key whose value tuple is
    shorter than its word, or whose column value lies outside
    0..COLUMN_BASE - 1, where its column would not decode."""
    common = lcm(*(Fraction(amp).denominator for amp in raw.values()))
    totals: dict[Orbit, int] = defaultdict(int)
    for key, amp in raw.items():
        x, y, wm, wp = key
        nm, np_ = len(wm), len(wp)
        if len(x) < nm or len(y) < np_:
            raise ValueError(f"value tuples of {key} are shorter than its words")
        if not all(0 <= v < COLUMN_BASE for v in x[:nm] + y[:np_]):
            raise ValueError(f"column values of {key} must lie in 0..{COLUMN_BASE - 1}")
        orbit = (_columns(x, wm), x[nm:], _columns(y, wp), y[np_:])
        totals[orbit] += int(amp * common)
    return State(1, common, {orbit: total for orbit, total in totals.items() if total})


def _columns(values: tuple[int, ...], word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(i * COLUMN_BASE + v for v, i in zip(values, word)))


def apply_letter(state: State, letter: W.Letter, n: int) -> State:
    """One creation or annihilation operator on a symmetrized state, exactly,
    one orbit total at a time; color b's columns and tail are the orbit
    slots 2b and 2b + 1, the other color's the remaining two.  The orbits
    of a state share their word lengths n_b and n_other, so the kind, the
    level, the dominance and the scale are settled once per letter, from
    the levels the state carries or, for a hand-built one, from a scan of
    its orbits (ValueError for a state whose orbits do not share them).

    A creator of index i inserts the column (z, i) into each key, for every
    z in 1..N when dominant (n_b >= n_other: both value tuples grow by z)
    and with z the first tail value otherwise; each image orbit gains the
    total, and the scale the factor n_b + 1.  An annihilator of index i
    removes the last column c = (v, i) from the keys that end in it, a
    share mult(c) / n_b of the orbit; the columns of index i are a run of
    the sorted columns.  Subordinate (n_b <= n_other), v becomes the first
    tail value; dominant, v must equal the other tail's last value, which
    leaves with it, and the amplitude is divided by N.  The scale is
    divided by N * n_b and a subordinate image multiplied by N, to stay on
    integers."""
    b, i, kind = letter
    levels = state.levels
    if levels is None:
        levels = _scanned_levels(state)
    nb, nother = levels[b], levels[1 - b]
    own, other = 2 * b, 2 - 2 * b
    key = i * COLUMN_BASE
    num, den = state.num, state.den
    amps = state.amps
    totals: dict[Orbit, int] = {}
    get = totals.get
    if kind == W.CREATE:
        if max(nb + 1, nother) > DENSE_MAX_LEVEL:
            raise CapacityError(f"word drives a level above {DENSE_MAX_LEVEL}")
        num *= nb + 1
        if nb >= nother:
            # the N columns a dominant creator may insert, each with the
            # value both tails grow by
            grown_by = [(key + z, (z,)) for z in range(1, n + 1)]
            for orbit, total in amps.items():
                cols, tail, other_cols, other_tail = orbit[own], orbit[own + 1], orbit[other], orbit[other + 1]
                for column, z in grown_by:
                    new, grown = _inserted(cols, column), other_tail + z
                    image = (new, tail, other_cols, grown) if b == 0 else (other_cols, grown, new, tail)
                    totals[image] = get(image, 0) + total
        else:
            for orbit, total in amps.items():
                cols, tail, other_cols, other_tail = orbit[own], orbit[own + 1], orbit[other], orbit[other + 1]
                new, rest = _inserted(cols, key + tail[0]), tail[1:]
                image = (new, rest, other_cols, other_tail) if b == 0 else (other_cols, other_tail, new, rest)
                totals[image] = get(image, 0) + total
        nb += 1
    elif nb:
        # adjoint of creation: on an already-symmetrized state only the
        # last word factor is removed; the k-sum of the textbook formula
        # is recovered by the surrounding symmetrization average
        den *= n * nb
        if nb > nother:
            for orbit, total in amps.items():
                cols, tail, other_cols, other_tail = orbit[own], orbit[own + 1], orbit[other], orbit[other + 1]
                # only the column whose value is the other tail's last can go
                column = key + other_tail[-1]
                j = bisect_left(cols, column)
                if j == nb or cols[j] != column:
                    continue
                mult = bisect_right(cols, column, j) - j
                rest, shrunk = cols[:j] + cols[j + 1:], other_tail[:-1]
                image = (rest, tail, other_cols, shrunk) if b == 0 else (other_cols, shrunk, rest, tail)
                totals[image] = get(image, 0) + total * mult
        else:
            for orbit, total in amps.items():
                cols, tail, other_cols, other_tail = orbit[own], orbit[own + 1], orbit[other], orbit[other + 1]
                j, stop = bisect_left(cols, key), bisect_left(cols, key + COLUMN_BASE)
                while j < stop:
                    column = cols[j]
                    mult = bisect_right(cols, column, j, stop) - j
                    rest, freed = cols[:j] + cols[j + 1:], (column - key,) + tail
                    image = (rest, freed, other_cols, other_tail) if b == 0 else (other_cols, other_tail, rest, freed)
                    totals[image] = get(image, 0) + total * mult * n
                    j += mult
        nb -= 1
    if 0 in totals.values():
        # orbits of opposite totals cancelled, and the projector drops them
        totals = {orbit: total for orbit, total in totals.items() if total}
    return State(num, den, totals, (nb, nother) if b == 0 else (nother, nb))


def _scanned_levels(state: State) -> tuple[int, int]:
    """The word lengths (n_0, n_1) of a hand-built state's orbits, (0, 0)
    for no orbit; ValueError when they differ."""
    levels = {(len(orbit[0]), len(orbit[2])) for orbit in state.amps}
    if len(levels) > 1:
        raise ValueError("the orbits of a state must share their word lengths")
    return next(iter(levels), (0, 0))


def _inserted(columns: tuple[int, ...], column: int) -> tuple[int, ...]:
    k = bisect(columns, column)
    return columns[:k] + (column,) + columns[k:]


def apply_word(state: State, w: W.Word, n: int) -> State:
    """Apply a word as an operator product (rightmost letter first)."""
    for letter in reversed(w):
        state = apply_letter(state, letter, n)
        if not state:
            break
    return state


def vacuum_expectation_dense(w: W.Word, n: int) -> Fraction:
    """<vacuum, A vacuum> by literal operator application; the letters are
    read through `words.word()`, so a malformed one raises ValueError."""
    check_dense_params(n)
    final = apply_word(vacuum_state(), W.word(w), n)
    return Fraction(final.num * final.amps.get(VACUUM, 0), final.den)


def vacuum_expectation_lambda(p: ColoredPairPartition, n: int) -> Fraction:
    """<vacuum, A vacuum> for the canonical word of p, via elementary-state
    propagation over the value assignments to the dominant creators (those
    whose color's level is at least the other's when they act, read off the
    word), all in one depth-first walk over value classes.  The walk
    compares values only for equality, so the assignments of one orbit of
    S_N, which permutes the values, survive or die together: a dominant
    creator branches over the d values its state holds and one fresh value
    standing for the N - d others, and each survivor counts the assignments
    it stands for.  The levels, and with them the scale, are fixed by the
    word; an assignment only decides whether the state survives, so the sum
    is the number of surviving assignments times that one scale."""
    check_dense_params(n)
    found = _surviving_scales(W.canonical_word(p), n)
    if not found:
        return Fraction(0)
    if len(found) > 1:
        raise RuntimeError("every surviving assignment must carry the scale of the word")
    ((num, den), count), = found.items()
    return Fraction(count * num, den)


def _surviving_scales(word: W.Word, n: int) -> dict[tuple[int, int], int]:
    """Elementary-state propagation right to left through the word, for
    every value assignment to the dominant creators, by value class, in one
    depth-first walk over an explicit stack: a branch splits at a dominant
    creator and ends at the first dominant annihilator whose values
    disagree, so assignments share the walk of their common prefix.

    A state is a scale factor, one value tuple per color (both of length
    max(level_0, level_1)), and one index word per color; word positions
    1..level_b bind to the same positions of color b's tuple, positions
    above level_b are its unbound tail.  The index words do not depend on
    the values, so one pass over the word reads, per letter, its color b,
    the level n_b before it, whether it is dominant and, for an
    annihilator, the position of its index in color b's word; a branch
    carries only its scale, its value tuples and the number of assignments
    it stands for.

    The steps compare values only for equality, and both tuples always
    hold the same values, so a branch's fate depends on which values are
    equal, not on what they are.  A dominant creator therefore branches
    over the d distinct values the state holds, once each, and over one
    fresh label that no held value carries, standing for the N - d values
    absent from the state, whose branches differ only by a renaming; the
    fresh branch is dropped when N - d <= 0.  A label is the step at which
    it was made fresh, so no two labels clash.  Returns, per scale
    (numerator, denominator) of a surviving branch, the number of
    assignments that survive with it."""
    steps: list[tuple[int, int, bool, int | None]] = []
    words: tuple[list[int], list[int]] = ([], [])
    for let in reversed(word):
        b = let.b
        nb, nother = len(words[b]), len(words[1 - b])
        if let.k == W.CREATE:
            if max(nb + 1, nother) > LAMBDA_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {LAMBDA_MAX_LEVEL}")
            words[b].append(let.i)
            steps.append((b, nb, nb >= nother, None))
        else:
            pos = words[b].index(let.i)
            del words[b][pos]
            steps.append((b, nb, nb > nother, pos))
    if words[0] or words[1]:
        raise RuntimeError("the word must return to the vacuum")
    found: dict[tuple[int, int], int] = {}
    # each entry: steps taken, value tuples of colors 0 and 1, scale, and
    # the number of assignments the branch stands for
    stack = [(0, [], [], 1, 1, 1)]
    while stack:
        k, x, y, num, den, count = stack.pop()
        tuples = (x, y)
        while k < len(steps):
            b, nb, dominant, pos = steps[k]
            k += 1
            if pos is None:
                num *= nb + 1
                if dominant:
                    # each held value branches off; this branch goes on
                    # with the fresh label k, for the N - d absent values
                    held = set(x)
                    for z in held:
                        stack.append((k, x + [z], y + [z], num, den, count))
                    if n <= len(held):
                        break
                    count *= n - len(held)
                    x.append(k)
                    y.append(k)
                continue
            bound_value = tuples[b][pos]
            if dominant:
                # level drops, the weak side's top tail entry must match
                # the value bound to this index
                if tuples[1 - b][-1] != bound_value:
                    break
                den *= n * nb
                del tuples[b][pos]
                del tuples[1 - b][-1]
            else:
                # freed value becomes the bottom of b's tail
                den *= nb
                del tuples[b][pos]
                tuples[b].insert(nb - 1, bound_value)
        else:
            if x or y:
                raise RuntimeError("the word must return to the vacuum")
            scale = (num, den)
            found[scale] = found.get(scale, 0) + count
    return found


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
    M of N^cycles(M u Z(w)), which `_loop_sum` scans without listing the
    matchings.  Equals fock_moment(w, tn_handle(n)).  The letters are read
    through `words.word()`, so a malformed one raises ValueError, as in the
    dense oracle; a word whose scan would hold more than `SCAN_MAX_PATHS`
    open paths raises CapacityError."""
    return _loop_sum(W.word(w), n)


def _loop_sum(w: W.Word, n: int) -> Fraction:
    """`rho_n_combinatorial` of a word already read through `words.word()`:
    the identity checks read each of their words once and sum here.

    One left-to-right scan over the word's points keeps the open paths of
    M u Z(w) for every partial matching M of the points scanned so far,
    grouped into states with integer weights (the number of partial
    matchings, times N per closed cycle).  An open path has two ends: a bar
    end waiting for its point t = Z(k) > k is labeled t, an annihilator end
    waiting for a creator is labeled by its (color, index) key.  A state
    lists every path from both of its ends, each as `end * base + other
    end`, sorted; so the ends that carry one label are a run found by
    bisection, and a state hashes as a tuple of ints.  Raises
    CapacityError once the states being built hold more than
    `SCAN_MAX_PATHS` paths in all, before the next letter is read.  N must
    be a nonzero int (not a bool), else ValueError."""
    _check_n(n)
    if not W.compatible_count(w):
        return Fraction(0)
    frame = word_frame(w)
    # bar labels are the points 1..len(w), key labels follow them
    base = 2 * len(w) + 1
    keys: dict[tuple[int, int], int] = {}
    states: dict[tuple[int, ...], int] = {(): 1}
    for k, let in enumerate(w, start=1):
        label = keys.setdefault((let.b, let.i), len(w) + 1 + len(keys))
        states = _scan_point(states, k, frame.z[k], label, let.k == W.CREATE, base, n)
        if not states:
            return Fraction(0)
    return Fraction(states.get((), 0), n**frame.paths)


def _scan_point(
    states: dict[tuple[int, ...], int], k: int, z: int, label: int, creator: bool, base: int, n: int
) -> dict[tuple[int, ...], int]:
    """The states after point k, with bar partner z and key label `label`.
    An annihilator opens a path (label, z) when z > k, and otherwise puts
    its label on the bar end k.  A creator takes one open end labeled
    `label`, in every way (a run of equal ends is one move, weighed by the
    run's length): when z > k that end becomes the bar end z; otherwise the
    path of the bar end k is joined to it, or closed, times N, when the
    taken end is that path's other end."""
    out: dict[tuple[int, ...], int] = {}
    built = 0

    def put(new: list[int], amount: int):
        nonlocal built
        state = tuple(new)
        total = out.get(state)
        if total is None:
            built += len(state) // 2
            if built > SCAN_MAX_PATHS:
                raise CapacityError(f"the loop scan holds more than {SCAN_MAX_PATHS} open paths")
            out[state] = amount
        elif total + amount:
            out[state] = total + amount
        else:
            # at negative N the moves into a state can cancel
            del out[state]

    bar, key = k * base, label * base
    for ends, weight in states.items():
        if z < k:
            # the bar end k is the one end labeled k; its path leaves the state
            rest = list(ends)
            other = rest.pop(bisect_left(ends, bar)) - bar
            del rest[bisect_left(rest, other * base + k)]
        if not creator:
            if z > k:
                new = list(ends)
                insort(new, key + z)
                insort(new, z * base + label)
            else:
                new = rest
                insort(new, key + other)
                insort(new, other * base + label)
            put(new, weight)
            continue
        if z < k and other == label:
            put(rest, weight * n)
        j, stop = bisect_left(ends, key), bisect_left(ends, key + base)
        while j < stop:
            end = ends[j]
            run = bisect_right(ends, end, j, stop) - j
            j += run
            # the taken end is one of `run` equal ends of paths (label, y)
            y = end - key
            if z > k:
                new, x = list(ends), z
            elif y != k:
                new, x = rest[:], other
            else:
                continue
            # the path (label, y) becomes (x, y)
            del new[bisect_left(new, end)]
            del new[bisect_left(new, y * base + label)]
            insort(new, x * base + y)
            insort(new, y * base + x)
            put(new, weight * run)
    return out


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


def commutation_check(
    a_word: W.Word, b_word: W.Word, b: int, i: int, n: int
) -> tuple[Fraction, Fraction, bool]:
    """Both sides of rho(B* a a* A) = (1 + w^A_b(i)/N) rho(B* A).

    Requires the color-b profile weight of A to dominate the other color's.
    """
    a_word, b_star = W.word(a_word), W.adjoint(W.word(b_word))
    weight_b, weight_other, weight = _profile_weights(a_word, b, i)
    if weight_b < weight_other:
        raise ValueError("hypothesis violated: |w_b| < |w_-b| for the word A")
    middle = W.word((W.annihilate(b, i), W.create(b, i)))
    lhs = _loop_sum(b_star + middle + a_word, n)
    rhs = (1 + Fraction(weight, n)) * _loop_sum(b_star + a_word, n)
    return lhs, rhs, lhs == rhs


def _profile_weights(a_word: W.Word, b: int, i: int) -> tuple[int, int, int]:
    """|w_b| and |w_-b|, the color weights of the word A's profile (as
    `words.profile_weight`), and its entry w_b(i), from one profile."""
    profile = W.word_profile(a_word)
    weight_b = sum(v for (c, _), v in profile.items() if c == b)
    weight_other = sum(v for (c, _), v in profile.items() if c == 1 - b)
    return weight_b, weight_other, profile.get((b, i), 0)


def _padded(
    a_word: W.Word, b_star: W.Word, b: int, pad: int, middle: W.Word
) -> W.Word:
    """B* a_{2p}..a_{p+1} middle a*_{p+1}..a*_{2p} A on the color-b padding
    indices p+1..2p (p = pad), which A and B must not use; read through
    `words.word()` when A, B* and middle are."""
    used = {(let.b, let.i) for let in a_word + b_star}
    if any((b, j) in used for j in range(pad + 1, 2 * pad + 1)):
        raise ValueError("padding indices must be unused by A and B")
    left_pad = tuple(W.annihilate(b, j) for j in range(2 * pad, pad, -1))
    right_pad = tuple(W.create(b, j) for j in range(pad + 1, 2 * pad + 1))
    return b_star + left_pad + middle + right_pad + a_word


def wlim_identity_check(
    a_word: W.Word, b_word: W.Word, b: int, i: int, n: int, pad: int
) -> tuple[Fraction, Fraction, bool]:
    """Exact finite-padding identity
    rho(B* a_{2p}..a_{p+1} a* a a*_{p+1}..a*_{2p} A) = (w^A_b(i)/N^2) rho(B* A)
    for padding size p beyond the profile threshold."""
    a_word, b_star = W.word(a_word), W.adjoint(W.word(b_word))
    full = _padded(a_word, b_star, b, pad, W.word((W.create(b, i), W.annihilate(b, i))))
    weight_b, weight_other, weight = _profile_weights(a_word, b, i)
    if pad + weight_b <= weight_other:
        raise ValueError("padding size below the identity's threshold")
    lhs = _loop_sum(full, n)
    rhs = Fraction(weight, n**2) * _loop_sum(b_star + a_word, n)
    return lhs, rhs, lhs == rhs
