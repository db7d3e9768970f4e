import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from gbmoments import fock
from gbmoments import words as W
from gbmoments.fock import (
    COLUMN_BASE,
    DENSE_MAX_LEVEL,
    State,
    apply_letter,
    apply_word,
    commutation_check,
    rho_n_combinatorial,
    sym_project,
    vacuum_expectation_dense,
    vacuum_expectation_lambda,
    vacuum_state,
    wlim_identity_check,
)
from gbmoments import cyclegraph
from gbmoments.cyclegraph import build_graph, classify
from gbmoments.moments import fock_moment, t_colored, t_n, thoma_handle, thoma_n, tn_handle
from gbmoments.partitions import (
    CapacityError,
    ColoredPairPartition,
    enumerate_colored,
    enumerate_pair_partitions,
)


def test_word_profile():
    w = W.word([W.create(0, 1)])
    assert W.word_profile(w) == {(0, 1): 1}
    w = W.word([W.annihilate(0, 1), W.create(0, 1)])
    assert W.word_profile(w) == {}
    w = W.word([W.create(1, 2), W.create(1, 2), W.annihilate(1, 2)])
    assert W.word_profile(w) == {(1, 2): 1}


def test_compatible_partitions_examples():
    w = W.word([W.annihilate(0, 3), W.create(0, 3)])
    [p] = W.compatible_partitions(w)
    assert p.base.pairs == ((1, 2),) and p.colors == (0,)
    w = W.word([W.create(0, 3), W.annihilate(0, 3)])
    assert W.compatible_partitions(w) == []
    w = W.word([W.annihilate(1, 1), W.annihilate(1, 2), W.create(1, 1), W.create(1, 2)])
    [p] = W.compatible_partitions(w)
    assert p.base.pairs == ((1, 3), (2, 4)) and p.colors == (1, 1)


def test_compatible_partitions_odd_and_unbalanced():
    assert W.compatible_partitions(W.word([W.create(0, 1)])) == []
    w = W.word([W.annihilate(0, 1), W.create(0, 2)])
    assert W.compatible_partitions(w) == []


def balanced_words(seed, count, max_m):
    """Seeded words with at least one compatible partition: a random
    partition whose pairs get random colors and indices 1 or 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, max_m)
        points = list(range(1, 2 * m + 1))
        rng.shuffle(points)
        letters = [None] * (2 * m)
        for l, r in zip(points[::2], points[1::2]):
            l, r = min(l, r), max(l, r)
            b, i = rng.randrange(2), rng.randint(1, 2)
            letters[l - 1] = W.annihilate(b, i)
            letters[r - 1] = W.create(b, i)
        out.append(W.word(letters))
    return out


def test_compatible_partitions_order_pinned():
    # same order as enumerate_pair_partitions, which the hash pins as well
    words = balanced_words(20260, 300, 6)
    listing = [p.to_json() for w in words for p in W.compatible_partitions(w)]
    assert len(listing) == 1039
    digest = hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    assert digest == "32bb1be409f143bc3f77470989ce50bbb92028ea581aa65cf24bc6ebcea6afe6"


def test_compatible_partitions_reject_at_the_ends(monkeypatch):
    # a creator first or an annihilator last closes or opens a pair with
    # no partner, so no matching is searched
    monkeypatch.setattr(W, "_matchings", lambda opens, closes: pytest.fail("searched"))
    a, a_star = W.annihilate(0, 1), W.create(0, 1)
    assert W.compatible_partitions((a_star, a)) == []
    assert W.compatible_partitions((a, a_star, a, a)) == []
    assert W.compatible_partitions((a_star, a_star, a, a_star)) == []
    monkeypatch.undo()
    assert len(W.compatible_partitions(())) == 1
    assert len(W.compatible_partitions((a, a_star))) == 1


@pytest.mark.parametrize("items", [((0, 1, "a"), (0, 1, "a*")), ["a", "a*"], (None,)])
def test_compatible_partitions_read_every_input_as_a_word(items):
    # a tuple of items that are no Letter is refused as a list of them is
    for letters in (tuple(items), list(items)):
        with pytest.raises(ValueError, match="Letter"):
            W.compatible_partitions(letters)
        with pytest.raises(ValueError, match="Letter"):
            fock_moment(letters, tn_handle(2))


def test_compatible_partitions_refuse_a_word_over_the_budget(monkeypatch):
    # 10 annihilators, then 10 creators, of one color and index: 10! = 3,628,800
    # matchings, more than MAX_ENUM_PARTITIONS = 15!! = 2,027,025; refused
    # by the closed-form count before any matching is searched
    monkeypatch.setattr(W, "_matchings", lambda opens, closes: pytest.fail("searched"))
    a, a_star = W.annihilate(0, 1), W.create(0, 1)
    assert W.compatible_count((a,) * 10 + (a_star,) * 10) > W.MAX_ENUM_PARTITIONS
    with pytest.raises(CapacityError):
        W.compatible_partitions((a,) * 10 + (a_star,) * 10)
    with pytest.raises(CapacityError):
        fock_moment((a,) * 10 + (a_star,) * 10, tn_handle(2))
    monkeypatch.undo()
    # the budget is inclusive: at a budget of 3! the 3! matchings of 3 + 3
    # letters are listed, and the 4! of 4 + 4 letters refused
    monkeypatch.setattr(W, "MAX_ENUM_PARTITIONS", 6)
    assert len(W.compatible_partitions((a,) * 3 + (a_star,) * 3)) == 6
    with pytest.raises(CapacityError):
        W.compatible_partitions((a,) * 4 + (a_star,) * 4)


def _compatible_by_filter(w):
    """Reference: every pair partition of the word's points, in enumeration
    order, kept when each pair is an annihilator followed by its creator."""
    if len(w) % 2:
        return []
    out = []
    for base in enumerate_pair_partitions(len(w) // 2):
        if all(
            w[l - 1].k == W.ANNIHILATE and w[r - 1] == W.create(w[l - 1].b, w[l - 1].i)
            for l, r in base.pairs
        ):
            out.append(ColoredPairPartition(base, tuple(w[l - 1].b for l, _ in base.pairs), 2))
    return out


LETTERS = [W.Letter(b, i, k) for b in (0, 1) for i in (1, 2) for k in (W.ANNIHILATE, W.CREATE)]


def test_compatible_partitions_match_filtered_enumeration():
    rng = random.Random(5150)
    words = balanced_words(5151, 100, 5)
    # shuffled one-key and two-key words, odd and unbalanced ones included
    for _ in range(100):
        alphabet = LETTERS[:2] if rng.random() < 0.5 else LETTERS[:4]
        words.append(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10))))
    nonempty = 0
    for w in words:
        found = W.compatible_partitions(w)
        assert found == _compatible_by_filter(w), w
        nonempty += bool(found)
    assert nonempty > 100


@st.composite
def shuffled_words(draw):
    """Letters of a random balanced word in random order, sometimes with
    one letter more, so odd, unbalanced and unmatchable words occur."""
    letters = []
    for _ in range(draw(st.integers(0, 5))):
        b, i = draw(st.integers(0, 1)), draw(st.integers(1, 2))
        letters += [W.annihilate(b, i), W.create(b, i)]
    if draw(st.booleans()):
        letters.append(draw(st.sampled_from(LETTERS)))
    return tuple(draw(st.permutations(letters)))


@settings(deadline=None)
@given(shuffled_words())
def test_compatible_count_matches_enumeration(w):
    assert W.compatible_count(w) == len(W.compatible_partitions(w))


def test_compatible_count_closed_form():
    a, c = W.annihilate(0, 1), W.create(0, 1)
    for m in range(1, 11):
        assert W.compatible_count((a,) * m + (c,) * m) == math.factorial(m)
    assert W.compatible_count(()) == 1
    assert W.compatible_count((c, a)) == 0
    assert W.compatible_count((a, a, c)) == 0


def test_canonical_word_unique_compatible():
    for p in enumerate_colored(3, 2)[::7]:
        found = W.compatible_partitions(W.canonical_word(p))
        assert found == [p]


def test_canonical_word_builds_checked_letters():
    # the letters are built without words.word(), so they must be what it
    # accepts: Letters with colors 0 or 1, ordinals >= 1 and the two kinds
    for p in (q for m in range(5) for q in enumerate_colored(m, 2)):
        w = W.canonical_word(p)
        assert type(w) is tuple and W.word(w) == w, p
    # three colors: only a partition that uses color 2 is refused
    two_of_three = ColoredPairPartition.of([(1, 2), (3, 4)], [0, 1], 3)
    assert W.canonical_word(two_of_three) == W.word(
        [W.annihilate(0, 1), W.create(0, 1), W.annihilate(1, 2), W.create(1, 2)]
    )
    with pytest.raises(ValueError, match="color id must be 0 or 1"):
        W.canonical_word(ColoredPairPartition.of([(1, 2), (3, 4)], [0, 2], 3))


def test_dense_oracle_basics():
    w = W.word([W.annihilate(0, 1), W.create(0, 1)])
    assert vacuum_expectation_dense(w, 2) == 1
    assert vacuum_expectation_dense(w[:1], 2) == 0
    w = W.word([W.annihilate(1, 1), W.annihilate(1, 2), W.create(1, 1), W.create(1, 2)])
    assert vacuum_expectation_dense(w, 2) == Fraction(1, 2)


def test_dense_oracle_guards():
    w = W.word([W.annihilate(0, 1), W.create(0, 1)])
    with pytest.raises(ValueError):
        vacuum_expectation_dense(w, -2)
    with pytest.raises(CapacityError):
        vacuum_expectation_dense(w, 5)
    deep = W.word(
        [W.annihilate(0, i) for i in range(5, 0, -1)]
        + [W.create(0, i) for i in range(1, 6)]
    )
    with pytest.raises(CapacityError):
        vacuum_expectation_dense(deep, 2)


@pytest.mark.parametrize("n", [2.0, 3.0, -2.0, True, False, Fraction(2), "2", None])
def test_oracles_refuse_n_that_is_no_int(monkeypatch, n):
    # before, 2.0 raised TypeError from range or from the scan, and True
    # was read as N = 1; now each refuses before any work
    for name in ("apply_word", "_surviving_scales", "_word_points", "bar_frame"):
        monkeypatch.setattr(fock, name, lambda *args: pytest.fail("worked on a non-int N"))
    w = W.word([W.annihilate(0, 1), W.create(0, 1)])
    p = ColoredPairPartition.of([(1, 2)], [0])
    for call in (
        lambda: fock.check_dense_params(n),
        lambda: vacuum_expectation_dense(w, n),
        lambda: vacuum_expectation_lambda(p, n),
        lambda: rho_n_combinatorial(w, n),
        lambda: commutation_check((), (), 1, 1, n),
        lambda: wlim_identity_check((), (), 1, 1, n, 4),
    ):
        with pytest.raises(ValueError, match="N must be an int"):
            call()


def test_dense_oracle_vanishes_before_the_level_guard():
    # the color-1 annihilator kills the vacuum first: no partition is
    # compatible, so the oracle's 0 stands although five creators follow
    w = W.word([W.create(0, 1)] * 5 + [W.annihilate(1, 1)])
    assert vacuum_expectation_dense(w, 2) == 0
    with pytest.raises(ValueError):
        vacuum_expectation_dense(w, 1)
    with pytest.raises(CapacityError):
        vacuum_expectation_dense(w, 4)


def test_dense_oracle_refuses_the_level_before_building_it(monkeypatch):
    # every orbit of a state has the same word lengths, so the level guard
    # fires once, before the creator inserts a fifth column anywhere
    built = []
    inserted = fock._inserted

    def recording(columns, column):
        built.append(inserted(columns, column))
        return built[-1]

    monkeypatch.setattr(fock, "_inserted", recording)
    a = [W.annihilate(b, 1) for b in (0, 1, 0, 0, 0, 0)]
    w = tuple(a) + W.adjoint(tuple(a))
    with pytest.raises(CapacityError, match="level above 4"):
        vacuum_expectation_dense(w, 3)
    assert max(map(len, built)) == DENSE_MAX_LEVEL


def column(value, index):
    """An orbit column, the int that encodes (value, index)."""
    return index * COLUMN_BASE + value


def test_apply_letter_drops_orbits_that_cancel():
    # both orbits lose their column to the same image, with opposite totals
    state = State(1, 1, {((column(1, 1),), (), (), (1,)): 1, ((column(2, 1),), (), (), (2,)): -1})
    reference.expand(state)
    after = apply_letter(state, W.annihilate(0, 1), 2)
    assert len(after) == 0
    assert len(apply_letter(vacuum_state(), W.annihilate(1, 1), 2)) == 0


def test_apply_letter_refuses_mixed_word_lengths():
    # only a hand-built state can mix word lengths; the check raises, so
    # python -O keeps it
    mixed = State(1, 1, {((column(1, 1),), (), (), (1,)): 1, ((), (), (), ()): 1})
    for letter in (W.create(0, 1), W.annihilate(0, 1), W.annihilate(1, 1)):
        with pytest.raises(ValueError, match="word lengths"):
            apply_letter(mixed, letter, 2)
    script = """
from gbmoments import fock, words as W
mixed = fock.State(1, 1, {((1 * fock.COLUMN_BASE + 1,), (), (), (1,)): 1, ((), (), (), ()): 1})
try:
    fock.apply_letter(mixed, W.create(1, 1), 2)
except ValueError as exc:
    print(exc)
"""
    src = str(Path(fock.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.stdout.strip() == "the orbits of a state must share their word lengths", proc.stderr


@pytest.mark.parametrize(
    "letter",
    [
        W.Letter(2, 1, W.CREATE), W.Letter(-1, 1, W.ANNIHILATE), W.Letter(0, 1, "x"),
        W.Letter(True, 1, W.CREATE), W.Letter(0, 1.5, W.CREATE), W.Letter(0, float("nan"), W.CREATE),
        W.Letter(0, "x", W.CREATE),
    ],
    ids=["color_2", "color_minus_1", "kind_x", "bool_color", "float_index", "nan_index", "str_index"],
)
def test_dense_oracle_refuses_malformed_letters(letter):
    # letters built without words.word(): the dense oracle reads the word
    # through it, so a tuple word and a list word raise ValueError where
    # the per-color lookups raised IndexError, or read an unknown kind as
    # an annihilator
    w = (W.annihilate(0, 1), letter, W.create(0, 1))
    for given_word in (w, list(w)):
        with pytest.raises(ValueError):
            vacuum_expectation_dense(given_word, 2)


def test_dense_matches_combinatorial_on_general_words():
    rng = random.Random(99)
    letters = [
        W.Letter(b, i, k)
        for b in (0, 1)
        for i in (1, 2)
        for k in (W.ANNIHILATE, W.CREATE)
    ]
    for _ in range(40):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
        assert vacuum_expectation_dense(w, 2) == rho_n_combinatorial(w, 2)


@st.composite
def built_words(draw):
    """A word of at most 4 pairs in two colors on indices 1 and 2, so that
    an orbit can hold one column twice: the left point of each pair of a
    random pair partition is an annihilator, its right point the creator of
    the same color and index.  Its generating partition is compatible with
    it, and every t_N with N >= 2 is positive, so its moment is nonzero."""
    m = draw(st.integers(0, 4))
    points = draw(st.permutations(range(2 * m)))
    letters = [None] * (2 * m)
    for j in range(m):
        l, r = sorted(points[2 * j : 2 * j + 2])
        b, i = draw(st.integers(0, 1)), draw(st.integers(1, 2))
        letters[l], letters[r] = W.annihilate(b, i), W.create(b, i)
    return tuple(letters)


@settings(deadline=None, max_examples=300)
@given(st.lists(built_words(), min_size=3, max_size=6), st.randoms(use_true_random=False))
def test_dense_matches_combinatorial_on_balanced_words(words, rng):
    # random letters mostly make words that both sides send to 0; here all
    # but one word are built from a partition, and the last is a shuffle of
    # one of them, which may vanish, so most cases compare nonzero values
    shuffled = list(rng.choice(words))
    rng.shuffle(shuffled)
    cases = nonzero = 0
    for k, w in enumerate(words + [tuple(shuffled)]):
        for n in (2, 3):
            value = vacuum_expectation_dense(w, n)
            assert value == rho_n_combinatorial(w, n), (w, n)
            assert value or k == len(words), (w, n)
            cases += 1
            nonzero += value != 0
    assert 2 * nonzero > cases


def test_lambda_oracle_examples(twelve_point):
    p = ColoredPairPartition.of([(1, 2)], [1])
    assert vacuum_expectation_lambda(p, 2) == 1
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    assert vacuum_expectation_lambda(p, 2) == Fraction(1, 2)
    assert vacuum_expectation_lambda(twelve_point, 3) == Fraction(1, 3)


def test_oracle_equivalence_m2():
    for p in enumerate_colored(2, 2):
        for n in (2, 3):
            dense = vacuum_expectation_dense(W.canonical_word(p), n)
            lam = vacuum_expectation_lambda(p, n)
            formula = t_colored(thoma_n(n), p)
            assert dense == lam == formula == t_n(n, p)


def test_lambda_oracle_full_m4():
    for p in enumerate_colored(4, 2):
        for n in (2, 3):
            assert vacuum_expectation_lambda(p, n) == t_n(n, p)


def test_dense_oracle_full_m4():
    for p in enumerate_colored(4, 2):
        for n in (2, 3):
            assert vacuum_expectation_dense(W.canonical_word(p), n) == t_n(n, p)


def test_lambda_oracle_sampled_m5():
    rng = random.Random(55)
    for p in rng.sample(enumerate_colored(5, 2), 300):
        for n in (2, 3):
            assert vacuum_expectation_lambda(p, n) == t_n(n, p)


def test_lambda_oracle_refuses_mixed_scales(monkeypatch):
    # the levels fix the scale, so two survivors with different scales
    # mean the walk is broken; the check raises, so python -O keeps it
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    monkeypatch.setattr(fock, "_surviving_scales", lambda *args: {(1, 2): 1, (1, 3): 1})
    with pytest.raises(RuntimeError, match="scale"):
        vacuum_expectation_lambda(p, 2)


def test_lambda_oracle_checks_survive_optimize():
    # python -O strips assert statements; the scale check of the walk must
    # still raise on survivors of mixed scales
    script = """
from gbmoments import fock
from gbmoments.partitions import ColoredPairPartition
one_color = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
def message(p):
    try:
        fock.vacuum_expectation_lambda(p, 2)
    except RuntimeError as exc:
        return str(exc)
print(message(one_color))
fock._surviving_scales = lambda *args: {(1, 2): 1, (1, 3): 1}
print(message(one_color))
"""
    src = str(Path(fock.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "None",
        "every surviving assignment must carry the scale of the word",
    ]


def test_level_rule_is_the_papers_classification():
    # the elementary-state walk branches at a creator iff its color's level
    # is at least the other's when it acts, and reads nothing else; read
    # right to left with one open count per color, that rule and its
    # annihilator twin (strictly above) are the kernel's dominance
    points = 0
    for m in range(1, 6):
        for p in enumerate_colored(m, 2):
            levels = [0, 0]
            rule = {}
            for k, let in reversed(list(enumerate(W.canonical_word(p), start=1))):
                b = let.b
                if let.k == W.CREATE:
                    rule[k] = "D" if levels[b] >= levels[1 - b] else "S"
                    levels[b] += 1
                else:
                    rule[k] = "D" if levels[b] > levels[1 - b] else "S"
                    levels[b] -= 1
            assert rule == classify(p), p
            points += len(rule)
    assert points == 316_612


def test_lambda_oracle_reads_no_cycle_graph(monkeypatch):
    # the oracle is checked against the cycle-graph kernel, so it must not
    # consult it: with the kernel's entry points made to raise, at every
    # module that holds them, the walk gives the same values
    parts = [p for m in (1, 2, 3) for p in enumerate_colored(m, 2)]
    expected = [vacuum_expectation_lambda(p, n) for p in parts for n in (2, 3)]

    def tripwire(*args):
        raise AssertionError("the elementary-state oracle consulted the cycle-graph kernel")

    for name in ("bar_frame", "classify", "build_graph"):
        original = getattr(cyclegraph, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "gbmoments" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, tripwire)
    # the wires are live in the oracle's own module
    with pytest.raises(AssertionError, match="consulted"):
        fock.word_frame(W.canonical_word(parts[0]))
    assert [vacuum_expectation_lambda(p, n) for p in parts for n in (2, 3)] == expected


def test_lambda_walk_matches_per_assignment_reference():
    # one propagation per value assignment against one depth-first walk
    rng = random.Random(57)
    parts = [p for m in (1, 2, 3, 4) for p in enumerate_colored(m, 2)]
    for p in parts + rng.sample(enumerate_colored(5, 2), 300):
        for n in (2, 3):
            assert vacuum_expectation_lambda(p, n) == reference.vacuum_expectation_lambda(p, n), (p, n)


def walk_value(p, n):
    # the elementary-state walk without the oracle's N cap
    found = fock._surviving_scales(W.canonical_word(p), n)
    assert len(found) <= 1, found
    return sum((Fraction(count * num, den) for (num, den), count in found.items()), Fraction(0))


@pytest.mark.parametrize("n", [4, 5])
def test_lambda_walk_beyond_the_cap_matches_per_assignment_reference(n):
    # at N > 3 a value class stands for more than one absent value, so the
    # fresh branch's weight N - d is checked against N^d assignments
    rng = random.Random(n)
    every = [enumerate_colored(m, 2) for m in (1, 2, 3, 4)]
    parts = [p for family in every for p in rng.sample(family, min(150, len(family)))]
    for p in parts:
        assert walk_value(p, n) == reference.vacuum_expectation_lambda(p, n) == t_n(n, p), (p, n)


def test_lambda_walk_at_a_million_values():
    # one branch per value class: a per-value walk could not finish this
    n = 10**6
    parts = [p for m in (1, 2, 3, 4) for p in enumerate_colored(m, 2)]
    assert len(parts) == 1814
    for p in parts:
        assert walk_value(p, n) == t_n(n, p), p


def test_lambda_oracle_full_m5():
    parts = enumerate_colored(5, 2)
    assert len(parts) == 30_240
    for p in parts:
        for n in (2, 3):
            assert vacuum_expectation_lambda(p, n) == t_n(n, p), (p, n)


def test_intermediate_states_stay_valid():
    p = ColoredPairPartition.of([(1, 5), (2, 4), (3, 6)], [0, 1, 0])
    state = vacuum_state()
    for letter in reversed(W.canonical_word(p)):
        state = apply_letter(state, letter, 2)
        assert len(reference.expand(state)) >= len(state) > 0


def test_dense_oracle_applies_each_letter_through_the_module(monkeypatch):
    # the traced run wraps fock.apply_letter in the module and reads len()
    # of each result (fock.apply_letter.calls, fock.state.peak_keys), so the
    # oracle must look it up there once per letter applied, and len() must
    # count orbits
    results = []
    apply = fock.apply_letter

    def recording(state, letter, n):
        results.append(apply(state, letter, n))
        return results[-1]

    monkeypatch.setattr(fock, "apply_letter", recording)
    peak = 0
    for p in (p for m in range(1, 5) for p in enumerate_colored(m, 2)):
        w = W.canonical_word(p)
        results.clear()
        assert vacuum_expectation_dense(w, 3) == t_n(3, p)
        assert len(results) == len(w) and all(len(after) == len(after.amps) > 0 for after in results)
        peak = max(peak, *map(len, results))
    assert peak == 81
    # a state that vanishes stops the word: one letter applied of six
    results.clear()
    assert vacuum_expectation_dense(W.word([W.create(0, 1)] * 5 + [W.annihilate(1, 1)]), 2) == 0
    assert len(results) == 1 and len(results[0]) == 0


def test_carried_levels_are_the_scanned_levels():
    # apply_letter settles the level from the levels a state carries; on
    # every oracle step they are the word lengths of each of its orbits
    for state, letter, n, after in oracle_steps():
        for s in (state, after):
            assert s.levels is not None
            assert all((len(orbit[0]), len(orbit[2])) == s.levels for orbit in s.amps), (letter, n)
    # a hand-built state carries none, and its scanned levels are used
    hand_built = State(1, 1, {((column(1, 1),), (), (), (1,)): 1})
    assert hand_built.levels is None
    after = apply_letter(hand_built, W.create(1, 2), 2)
    assert after.levels == (1, 1) and len(after) == 1


def test_reference_expand_rejects_invalid_states():
    # the per-key reference checks every orbit it lists, so each state the
    # oracle tests compare is checked too
    expand = reference.expand
    expand(sym_project({((2, 1), (1, 2), (5, 6), ()): Fraction(1)}))
    # orbits list their columns sorted
    with pytest.raises(AssertionError, match="unsorted columns"):
        expand(State(1, 1, {((column(1, 6), column(2, 5)), (), (), (1, 2)): 1}))
    # an orbit of total 0 is dropped by the projector
    zero = sym_project({((1,), (1,), (5,), ()): Fraction(2, 3)})
    zero.amps[((column(2, 5),), (), (), (2,))] = 0
    with pytest.raises(AssertionError, match="has total 0"):
        expand(zero)
    # the value tuples match the level and are permutations of each other
    with pytest.raises(AssertionError, match="off its level"):
        expand(State(1, 1, {((column(1, 5),), (), (), (1, 2)): 1}))
    with pytest.raises(AssertionError, match="unequal value multisets"):
        expand(State(1, 1, {((column(1, 5), column(2, 6)), (), (), (1, 1)): 1}))


def test_symmetrization_idempotent():
    for level_key in [
        ((1, 2, 1), (1, 1, 2), (5,), (7, 9)),
        ((1, 2), (2, 1), (3, 4), ()),
    ]:
        raw = {level_key: Fraction(1)}
        once = sym_project(raw)
        exact = reference.expand(once, from_vacuum=False)
        assert exact == reference.sym_project(raw)
        assert len(once) == 1 < len(exact)
        twice = sym_project(exact)
        assert reference.expand(twice, from_vacuum=False) == exact and len(twice) == len(once)


def _permute_columns(key, perm_minus, perm_plus):
    x, y, wm, wp = key
    x = tuple(x[j] for j in perm_minus) + x[len(wm):]
    wm = tuple(wm[j] for j in perm_minus)
    y = tuple(y[j] for j in perm_plus) + y[len(wp):]
    wp = tuple(wp[j] for j in perm_plus)
    return x, y, wm, wp


@st.composite
def raw_states(draw):
    """1-6 keys with per-color levels 0-4, tails of 0-2 values, values in
    1..3 and indices in 1..2 (so columns repeat), rational amplitudes; some
    keys come with a column-permuted copy of opposite amplitude, so whole
    orbits can cancel to zero."""
    values, indices = st.integers(1, 3), st.integers(1, 2)
    amplitudes = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    state = {}
    for _ in range(draw(st.integers(1, 6))):
        nm, np_ = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        tuples = [
            tuple(draw(st.lists(values, min_size=n + tail, max_size=n + tail)))
            for n, tail in ((nm, draw(st.integers(0, 2))), (np_, draw(st.integers(0, 2))))
        ]
        words = [tuple(draw(st.lists(indices, min_size=n, max_size=n))) for n in (nm, np_)]
        key = (tuples[0], tuples[1], words[0], words[1])
        amp = draw(amplitudes)
        state[key] = state.get(key, Fraction(0)) + amp
        if draw(st.booleans()):
            image = _permute_columns(
                key, draw(st.permutations(range(nm))), draw(st.permutations(range(np_)))
            )
            state[image] = state.get(image, Fraction(0)) - amp
    return state


@settings(deadline=None)
@given(raw_states())
def test_sym_project_matches_literal_average(state):
    expected = reference.sym_project(state)
    assert reference.expand(sym_project(state), from_vacuum=False) == expected


def oracle_steps():
    """Every step of the dense oracle on the canonical words of all m <= 3
    partitions and 20 sampled m = 4 ones, and on 60 words of at most 4
    pairs whose indices repeat (so an orbit can hold one column twice), at
    N = 2 and 3: the state before the letter, the letter, N, and the state
    after it."""
    rng = random.Random(808)
    parts = [p for m in (1, 2, 3) for p in enumerate_colored(m, 2)]
    words = [W.canonical_word(p) for p in parts + rng.sample(enumerate_colored(4, 2), 20)]
    words += balanced_words(809, 60, 4)
    steps = []
    for n in (2, 3):
        for w in words:
            state = vacuum_state()
            for letter in reversed(w):
                after = apply_letter(state, letter, n)
                steps.append((state, letter, n, after))
                state = after
    return steps


def test_orbit_states_match_the_per_key_operator():
    # each state the oracle reaches, listed key by key, is the literal
    # group average of the per-key operator applied to the state before
    steps = oracle_steps()
    assert len(steps) > 1800
    for state, letter, n, after in steps:
        expected = reference.sym_project(reference.apply_letter(reference.expand(state), letter, n))
        assert reference.expand(after) == expected, (letter, n)


def test_sym_project_matches_literal_average_on_oracle_states():
    # the per-key vectors the oracle's steps average, before averaging
    for state, letter, n, after in oracle_steps():
        raw = reference.apply_letter(reference.expand(state), letter, n)
        projected = sym_project(raw)
        assert reference.expand(projected) == reference.sym_project(raw)
        assert reference.expand(projected) == reference.expand(after)


def test_sym_project_rejects_short_value_tuples():
    with pytest.raises(ValueError, match="shorter"):
        sym_project({((1,), (1, 2), (5, 6), ()): Fraction(1)})
    with pytest.raises(ValueError, match="shorter"):
        sym_project({((1, 2), (1,), (), (5, 6)): Fraction(1)})


def test_sym_project_rejects_values_a_column_cannot_hold():
    # a column is index * COLUMN_BASE + value, so a value outside
    # 0..COLUMN_BASE - 1 would decode as another index's column
    for value in (COLUMN_BASE, -1):
        with pytest.raises(ValueError, match="column values"):
            sym_project({((value,), (value,), (1,), ()): Fraction(1)})
    # a tail value is no column, so any value may stay there
    assert len(sym_project({((1, COLUMN_BASE), (1, COLUMN_BASE), (1,), ()): Fraction(1)})) == 1


def test_creation_annihilation_adjoint():
    # v is made by 2-4 random creators in shuffled order and u by all but
    # the first of them, so a* u and v share orbits and <a* u, v> = <u, a v>
    # compares nonzero values
    for n in (2, 3):
        rng = random.Random(7)
        nonzero = 0
        for _ in range(25):
            creators = [W.create(rng.randrange(2), rng.randrange(1, 4)) for _ in range(rng.randrange(2, 5))]
            u = apply_word(vacuum_state(), tuple(creators[1:]), n)
            v = apply_word(vacuum_state(), tuple(rng.sample(creators, len(creators))), n)
            b, i, _ = creators[0]
            au = apply_letter(u, W.create(b, i), n)
            av = apply_letter(v, W.annihilate(b, i), n)
            inner = keyed_inner(reference.expand(au), reference.expand(v), n)
            assert inner == keyed_inner(reference.expand(u), reference.expand(av), n)
            nonzero += inner != 0
        assert nonzero >= 20, (n, nonzero)


def keyed_inner(amps1, amps2, n):
    """The weighted inner product summed key by key."""
    return sum(
        (amp * amps2[key] / (n ** len(key[0]) * math.factorial(len(key[2])) * math.factorial(len(key[3])))
         for key, amp in amps1.items() if key in amps2),
        Fraction(0),
    )


def test_rho_n_combinatorial_examples():
    a, c = W.annihilate(1, 1), W.create(1, 1)
    assert rho_n_combinatorial((a, a, c, c), -1) == 0
    assert rho_n_combinatorial((a, c), -5) == 1
    # squared word with an over-tall profile vanishes
    word_a = (c, a, c, c)
    assert W.word_profile(word_a) == {(1, 1): 2}
    assert rho_n_combinatorial(W.adjoint(word_a) + word_a, -1) == 0


def test_rho_n_combinatorial_on_a_deep_nest():
    # 1,200 nested pairs with distinct indices: one compatible partition,
    # and a matcher without recursion, so no RecursionError
    m = 1200
    w = tuple(W.annihilate(0, i) for i in range(1, m + 1)) + tuple(
        W.create(0, i) for i in range(m, 0, -1)
    )
    assert rho_n_combinatorial(w, 2) == 1


@pytest.mark.parametrize("color", [0, 1])
def test_rho_n_combinatorial_closed_form_on_one_index(color):
    # rho_N(a^m a*^m) = prod_{j<m} (1 + j/N): the word has m! compatible
    # partitions, 30! at m = 30, so only m <= 5 is also enumerated
    for m in range(31):
        w = (W.annihilate(color, 1),) * m + (W.create(color, 1),) * m
        for n in (-3, -2, -1, 2, 3, 5):
            expected = math.prod((1 + Fraction(j, n) for j in range(m)), start=Fraction(1))
            assert rho_n_combinatorial(w, n) == expected, (m, n)
            if m <= 5:
                assert fock_moment(w, tn_handle(n)) == expected, (m, n)


def heavy_word(rng, m):
    """A seeded word of m pairs in two colors on index 1 or 2, most on 1,
    so that it has many compatible partitions; balanced in every (color,
    index)."""
    points = list(range(2 * m))
    rng.shuffle(points)
    letters = [None] * (2 * m)
    for l, r in zip(points[::2], points[1::2]):
        l, r = min(l, r), max(l, r)
        b, i = rng.randrange(2), rng.choice((1, 1, 1, 2))
        letters[l], letters[r] = W.annihilate(b, i), W.create(b, i)
    return tuple(letters)


def test_rho_n_combinatorial_factors_at_a_balanced_seam():
    # u balanced in every (color, index): no pair of a compatible partition
    # crosses the seam, so rho(u v) = rho(u) rho(v); every product has more
    # than 15!! compatible partitions, past any enumeration
    rng = random.Random(2026)
    cases = 0
    while cases < 60:
        u, v = heavy_word(rng, rng.randint(9, 11)), heavy_word(rng, rng.randint(9, 11))
        if W.compatible_count(u + v) <= math.prod(range(1, 16, 2)):
            continue
        cases += 1
        for n in (-3, -1, 2, 3):
            assert rho_n_combinatorial(u + v, n) == rho_n_combinatorial(u, n) * rho_n_combinatorial(v, n), (u, v, n)


def test_rho_n_combinatorial_matches_the_reference_graphs():
    # the reference builds every compatible partition's graph with its own
    # Z map and rise/fall rule, sharing no code with the scan's bar frame
    partitions = 0
    for w in balanced_words(4242, 300, 6):
        graphs = [reference.build_graph(p) for p in W.compatible_partitions(w)]
        partitions += len(graphs)
        for n in (-3, -1, 2, 5):
            expected = sum((Fraction(n) ** (len(g.cycles) - sum(g.path_counts)) for g in graphs), Fraction(0))
            assert rho_n_combinatorial(w, n) == expected, (w, n)
    assert partitions > 700


def test_words_given_as_lists():
    a, c = W.annihilate(0, 1), W.create(0, 1)
    for w in [(a, c), (a, a, c, c), (a, W.annihilate(1, 2), W.create(1, 2), c), (c, a)]:
        listed = list(w)
        assert W.compatible_partitions(listed) == W.compatible_partitions(w)
        assert fock_moment(listed, tn_handle(3)) == fock_moment(w, tn_handle(3))
        for n in (2, -3):
            assert rho_n_combinatorial(listed, n) == rho_n_combinatorial(w, n)
    assert rho_n_combinatorial([a, c], 2) == W.compatible_count([a, c]) == 1


@pytest.mark.parametrize(
    "w, message",
    [
        ((W.annihilate(0, 1), W.Letter(2, 1, W.CREATE), W.create(0, 1)), "color id"),
        ((W.annihilate(0, 1), W.Letter(0, 1, "x")), "letter kind"),
        ((W.annihilate(0, 1), W.Letter(True, 1, W.CREATE), W.create(0, 1)), "color id"),
        ((W.annihilate(0, 1), W.Letter(0, 1.5, W.CREATE), W.create(0, 1)), "basis index"),
        ((W.annihilate(0, 1), W.Letter(0, float("nan"), W.CREATE), W.create(0, 1)), "basis index"),
        ((W.annihilate(0, 1), W.Letter(0, "x", W.CREATE), W.create(0, 1)), "basis index"),
    ],
    ids=["color_2", "kind_x", "bool_color", "float_index", "nan_index", "str_index"],
)
def test_rho_n_combinatorial_refuses_malformed_letters(w, message):
    # neither word has a compatible matching, so only the letter check on
    # entry can refuse it
    for given_word in (w, list(w)):
        with pytest.raises(ValueError, match=message):
            rho_n_combinatorial(given_word, 2)
    with pytest.raises(ValueError, match="nonzero"):
        rho_n_combinatorial((W.annihilate(0, 1), W.create(0, 1)), 0)


@pytest.mark.parametrize(
    "item",
    [(0, 1, "a"), None, "a*", SimpleNamespace(b=0, i=1, k="a*")],
    ids=["tuple", "none", "string", "namespace"],
)
def test_items_that_are_no_letter_are_refused(item):
    # the letters are read by attribute, so the first three raised
    # AttributeError where the docstrings promise ValueError for a malformed
    # letter, and a record with the fields b, i and k passed as a letter
    for w in ([item, (0, 1, "a*")], (W.annihilate(0, 1), item), [item]):
        for call in (W.word, lambda w: vacuum_expectation_dense(w, 2), lambda w: rho_n_combinatorial(w, 2)):
            with pytest.raises(ValueError, match="letters must be Letter"):
                call(w)


@pytest.mark.parametrize("color", [2, -1])
def test_words_with_colors_outside_zero_and_one_are_refused(color):
    # letters built without words.word(): a tuple word skips that check, so
    # the bar frame, which indexes by color, refuses them as a list is refused
    w = (W.Letter(color, 1, W.ANNIHILATE), W.Letter(color, 1, W.CREATE))
    for given_word in (w, list(w)):
        with pytest.raises(ValueError, match="color id must be 0 or 1"):
            rho_n_combinatorial(given_word, 2)
    with pytest.raises(ValueError, match="color id must be 0 or 1"):
        fock.word_frame(w)


def test_exclusion_small():
    report = reference.exclusion_check(-1, max_len=4, num_indices=2)
    assert report["all_zero"] and report["checked"] > 0
    report = reference.exclusion_check(-2, max_len=4, num_indices=1)
    assert report["all_zero"]
    with pytest.raises(ValueError):
        reference.exclusion_check(2)


@pytest.mark.parametrize("n, color, checked", [(-1, 0, 1834), (-1, 1, 1834), (-2, 0, 710), (-2, 1, 710)])
def test_exclusion_length_six(n, color, checked):
    # the benchmark's 5,088-word sweep
    report = reference.exclusion_check(n, max_len=6, num_indices=2, color=color)
    assert report["all_zero"], report["failures"][:3]
    assert report["checked"] == checked


LETTERS_3 = [W.Letter(b, i, k) for b in (0, 1) for i in (1, 2, 3) for k in (W.ANNIHILATE, W.CREATE)]


@st.composite
def words_up_to_14(draw):
    """A compatible word of up to 7 pairs in two colors and indices 1..3,
    kept, shuffled, cut to odd length or with one letter replaced."""
    m = draw(st.integers(0, 7))
    points = draw(st.permutations(range(2 * m)))
    letters = [None] * (2 * m)
    for j in range(m):
        l, r = sorted(points[2 * j : 2 * j + 2])
        b, i = draw(st.integers(0, 1)), draw(st.integers(1, 3))
        letters[l], letters[r] = W.annihilate(b, i), W.create(b, i)
    edit = draw(st.sampled_from(("keep", "keep", "shuffle", "odd", "replace")))
    if edit == "shuffle":
        letters = list(draw(st.permutations(letters)))
    elif letters and edit in ("odd", "replace"):
        k = draw(st.integers(0, len(letters) - 1))
        if edit == "odd":
            del letters[k]
        else:
            letters[k] = draw(st.sampled_from(LETTERS_3))
    return tuple(letters)


@settings(deadline=None, max_examples=150)
@given(words_up_to_14())
def test_rho_n_combinatorial_matches_weight_sum(w):
    # t_n shares the loop counter; the character formula walks each graph
    for n in (-3, -2, -1, 1, 2, 3, 5):
        value = rho_n_combinatorial(w, n)
        assert value == fock_moment(w, tn_handle(n)), (w, n)
        assert value == fock_moment(w, thoma_handle(thoma_n(n))), (w, n)


def test_word_frame_is_every_compatible_partitions_frame():
    # the bar partition and the path count depend on the word alone
    partitions = 0
    for w in balanced_words(1010, 400, 6):
        frame = fock.word_frame(w)
        for p in W.compatible_partitions(w):
            analysis = build_graph(p)
            assert frame.paths == reference.total_increasing_paths(analysis), (w, p)
            assert tuple(enumerate(frame.z))[1:] == analysis.z, (w, p)
            assert [c == "D" for _, c in analysis.classification] == frame.dominant[1:], (w, p)
            partitions += 1
    assert partitions > 1000


SHORT_LETTERS = [W.Letter(b, i, k) for b in (0, 1) for i in (1, 2) for k in (W.ANNIHILATE, W.CREATE)]


def _result_or_error(call, *args):
    try:
        return call(*args)
    except (ValueError, RuntimeError, CapacityError) as exc:
        return type(exc)


def _scan_words(seed, count):
    """Every word of <= 4 letters over colors {0, 1} and indices {1, 2},
    then `count` seeded words of 6-12 letters: a balanced word with 3 to 6
    pairs, kept, shuffled, or cut by one letter (so 5-11 letters)."""
    out = [W.word(c) for length in range(5) for c in itertools.product(SHORT_LETTERS, repeat=length)]
    rng = random.Random(seed)
    for w in balanced_words(seed, 3 * count, 6):
        if len(out) == 4681 + count:
            break
        if len(w) < 6:
            continue
        letters = list(w)
        edit = rng.choice(("keep", "shuffle", "cut"))
        if edit == "shuffle":
            rng.shuffle(letters)
        elif edit == "cut":
            del letters[rng.randrange(len(letters))]
        out.append(W.word(letters))
    return out


def test_loop_sum_matches_the_reference_scan(monkeypatch):
    # the one-sweep read of the letters against the reference's closed-form
    # count, frame and scan: equal Fractions or the same exception type,
    # and a frame is built exactly for the words some partition is
    # compatible with
    frames = []

    def spy(color, annihilator):
        frames.append(color)
        return cyclegraph.bar_frame(color, annihilator)

    monkeypatch.setattr(fock, "bar_frame", spy)
    words = _scan_words(3535, 2000)
    assert len(words) == 4681 + 2000
    nonzero = compatible = 0
    for w in words:
        count = W.compatible_count(w)
        compatible += count > 0
        for n in (-3, -2, -1, 2, 3):
            built = len(frames)
            got = _result_or_error(fock._loop_sum, w, n)
            assert got == _result_or_error(reference.loop_sum, w, n), (w, n)
            assert type(got) is Fraction, (w, n, got)
            assert len(frames) - built == (1 if count else 0), (w, n)
            nonzero += got != 0
    assert compatible > 700 and nonzero > 3000


def test_identity_checks_match_the_reference():
    # both sides, and the verdict, of every identity check equal the
    # reference's, which multiplies Fractions on a word_profile; a
    # refused hypothesis or threshold raises the same exception type
    rng = random.Random(3536)
    checked = refused = nonzero = 0
    for _ in range(1200):
        a = W.word(rng.choice(SHORT_LETTERS) for _ in range(rng.randint(0, 4)))
        # B a shuffle of A, as in the benchmark, so that B* A often balances
        b_word = rng.sample(a, len(a)) if rng.random() < 0.7 else [rng.choice(SHORT_LETTERS)]
        b, i, n = rng.randrange(2), rng.randint(1, 3), rng.choice((-3, -2, -1, 2, 3))
        for name, args in (
            ("commutation_check", (a, b_word, b, i, n)),
            # pad 1 pads on index 2, which A or B may use (refused); i stays off it
            ("wlim_identity_check", (a, b_word, b, 1, n, 1)),
            ("wlim_identity_check", (a, b_word, b, min(i, 2), n, 4)),
        ):
            got = _result_or_error(getattr(fock, name), *args)
            want = _result_or_error(getattr(reference, name), *args)
            assert got == want, (name, args)
            if isinstance(got, tuple):
                assert all(type(side) is Fraction for side in got[:2]) and got[2], (name, args)
                checked += 1
                nonzero += got[1] != 0
            else:
                refused += 1
    assert checked > 2000 and refused > 800 and nonzero > 300


def test_frame_invariants_survive_optimize():
    # python -O strips assert statements; the frame's checks must still
    # raise.  Only the pairing check fails on an input (a lone creator).
    # The others are reached through roles that answer differently when the
    # sweep reads a point again to close its bar pair: answers[k][i] is the
    # i-th read of point k, the last answer repeating.  On the pair (1, 2)
    # of color 0, point 1 is read for the partner check (annihilator), the
    # bar coloring (color) and the out-degree check (both), and point 2 for
    # the in-degree check.
    script = """
from gbmoments import cyclegraph
class Reads:
    def __init__(self, *answers):
        self.answers, self.reads = answers, [0] * len(answers)
    def __len__(self):
        return len(self.answers)
    def __getitem__(self, k):
        i, self.reads[k] = self.reads[k], self.reads[k] + 1
        return self.answers[k][min(i, len(self.answers[k]) - 1)]
def message(color, annihilator):
    try:
        cyclegraph.bar_frame(Reads(*color), Reads(*annihilator))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
print(message([[0], [0]], [[False], [False]]))
print(message([[0], [0], [0]], [[False], [True, False], [False]]))
print(message([[0], [0, 1], [0]], [[False], [True], [False]]))
print(message([[0], [0], [0]], [[False], [True, True, False], [False]]))
print(message([[0], [0], [0]], [[False], [True], [False, True]]))
"""
    src = str(Path(fock.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: a creator must close an open annihilator of its color",
        "RuntimeError: z must be a fixed-point-free involution",
        "RuntimeError: bar coloring must not depend on the endpoint",
        "RuntimeError: every vertex must have out-degree 1",
        "RuntimeError: every vertex must have in-degree 1",
    ]


def test_exclusion_full_length_eight():
    # 50,920 squared words of up to 16 letters, ~4 s on a 2-vCPU VM
    for n in (-1, -2):
        report = reference.exclusion_check(n, max_len=8, num_indices=2)
        assert report["all_zero"], report["failures"][:3]


def test_commutation_examples():
    lhs, rhs, ok = commutation_check((), (), 1, 1, 3)
    assert ok and lhs == 1
    a_star = (W.create(1, 1),)
    lhs, rhs, ok = commutation_check(a_star, a_star, 1, 1, 2)
    assert ok and lhs == Fraction(3, 2)
    lhs, rhs, ok = commutation_check(a_star, a_star, 1, 1, -1)
    assert ok and lhs == 0


def test_commutation_hypothesis_enforced():
    a_word = (W.create(0, 1), W.create(0, 2))
    with pytest.raises(ValueError):
        commutation_check(a_word, a_word, 1, 1, 2)


def test_identity_checks_read_their_words_once():
    # the words, the middle letters and the padding are read through
    # words.word(), so lists are accepted and malformed letters refused
    a_star = (W.create(1, 1),)
    assert commutation_check(list(a_star), list(a_star), 1, 1, 2) == commutation_check(a_star, a_star, 1, 1, 2)
    assert wlim_identity_check(list(a_star), list(a_star), 1, 1, 2, 4) == wlim_identity_check(a_star, a_star, 1, 1, 2, 4)
    bad = (W.Letter(0, 1, "x"),)
    with pytest.raises(ValueError, match="letter kind"):
        commutation_check(bad, (), 1, 1, 2)
    with pytest.raises(ValueError, match="basis index"):
        commutation_check((), (), 1, 0, 2)
    with pytest.raises(ValueError, match="basis index"):
        wlim_identity_check((), (), 1, 0, 2, 4)
    with pytest.raises(ValueError, match="letter kind"):
        reference.wlim_creator_pair_bound((), bad, 1, 1, 2, 4, 1)
    with pytest.raises(ValueError, match="nonzero"):
        commutation_check((), (), 1, 1, 0)


def random_word_and_shuffle(rng, max_len=4):
    letters = [
        W.Letter(b, i, k)
        for b in (0, 1)
        for i in (1, 2)
        for k in (W.ANNIHILATE, W.CREATE)
    ]
    a = [rng.choice(letters) for _ in range(rng.randrange(max_len + 1))]
    b = a[:]
    rng.shuffle(b)
    return tuple(a), tuple(b)


def test_commutation_randomized():
    rng = random.Random(31337)
    ns = itertools.cycle([1, -1, 2, -2, 3])
    done = 0
    while done < 50:
        a_word, b_word = random_word_and_shuffle(rng)
        b = 0 if W.profile_weight(a_word, 0) >= W.profile_weight(a_word, 1) else 1
        i = rng.randrange(1, 4)
        n = next(ns)
        lhs, rhs, ok = commutation_check(a_word, b_word, b, i, n)
        assert ok, (a_word, b_word, b, i, n, lhs, rhs)
        done += 1


def test_wlim_identity_examples():
    a_star = (W.create(1, 1),)
    lhs, rhs, ok = wlim_identity_check(a_star, a_star, 1, 1, 2, 3)
    assert ok and lhs == Fraction(1, 4)
    lhs, rhs, ok = wlim_identity_check((), (), 1, 1, 2, 2)
    assert ok and lhs == 0


def test_wlim_identity_randomized():
    rng = random.Random(424242)
    ns = itertools.cycle([2, -2, 3, -1, -3])
    done = 0
    while done < 20:
        a_word, b_word = random_word_and_shuffle(rng, max_len=3)
        b = rng.randrange(2)
        i = rng.randrange(1, 3)
        n = next(ns)
        pad = 4
        lhs, rhs, ok = wlim_identity_check(a_word, b_word, b, i, n, pad)
        assert ok, (a_word, b_word, b, i, n, lhs, rhs)
        done += 1


def test_wlim_identity_refuses_a_middle_index_among_the_padding():
    # pad 1 pads on the color-0 index 2, so the middle letters a*_2 a_2
    # would join the padding; the middle index 1 lies outside it
    with pytest.raises(ValueError, match="padding"):
        wlim_identity_check((), (), 0, 2, 2, 1)
    assert wlim_identity_check((), (), 0, 1, 2, 1) == (0, 0, True)


def test_wlim_identity_guards():
    a_star = (W.create(1, 5),)
    with pytest.raises(ValueError):
        wlim_identity_check(a_star, a_star, 1, 5, 2, 3)  # index 5 inside padding
    heavy = tuple(W.create(0, j) for j in (1, 2, 3))
    with pytest.raises(ValueError):
        wlim_identity_check(heavy, heavy, 1, 1, 2, 2)  # padding below threshold


def test_wlim_creator_pair_bound():
    b_word = (W.create(1, 1), W.create(1, 1))
    value, bound, ok = reference.wlim_creator_pair_bound((), b_word, 1, 1, 2, 6, 2)
    assert ok
    value, bound, ok = reference.wlim_creator_pair_bound((), b_word, 1, 1, 2, 8, 3)
    assert ok
