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

import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from gbmoments import fock
from gbmoments import words as W
from gbmoments.fock import (
    DENSE_MAX_LEVEL,
    State,
    apply_letter,
    apply_word,
    commutation_check,
    exclusion_check,
    rho_n_combinatorial,
    state_inner,
    sym_project,
    vacuum_expectation_dense,
    vacuum_expectation_lambda,
    vacuum_state,
    wlim_creator_pair_bound,
    wlim_identity_check,
)
from gbmoments.cyclegraph import build_graph
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


def _refused(check, *args):
    try:
        check(*args)
    except CapacityError:
        return True
    return False


def test_check_dense_word_matches_the_oracle_level_guard():
    # words built from random colored pairings, annihilator left of its
    # creator, so each has a compatible partition; about 1% drive the
    # level past DENSE_MAX_LEVEL
    rng = random.Random(17)
    over = 0
    for _ in range(700):
        m = rng.randint(1, 6)
        points = rng.sample(range(2 * m), 2 * m)
        w = [None] * (2 * m)
        for l, r in (sorted(points[j : j + 2]) for j in range(0, 2 * m, 2)):
            b, i = rng.randint(0, 1), rng.randint(1, 2)
            w[l], w[r] = W.annihilate(b, i), W.create(b, i)
        n = rng.choice([2, 3])
        expected = _refused(fock.check_dense_word, w, n)
        assert _refused(vacuum_expectation_dense, w, n) == expected
        over += expected
    assert over > 0, over


def test_check_dense_word_leaves_vanishing_words_to_the_oracle():
    # the color-1 annihilator kills the vacuum first: no partition is
    # compatible, so the oracle's 0 stands although five creators follow
    w = W.word([W.create(0, 1)] * 5 + [W.annihilate(1, 1)])
    fock.check_dense_word(w, 2)
    assert vacuum_expectation_dense(w, 2) == 0
    with pytest.raises(ValueError):
        fock.check_dense_word(w, 1)
    with pytest.raises(CapacityError):
        fock.check_dense_word(w, 4)


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
    # mean the propagation is broken; the check raises, so python -O keeps it
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    scales = iter([(1, 2), (1, 3)])
    monkeypatch.setattr(fock, "_propagate", lambda *args: next(scales))
    with pytest.raises(RuntimeError, match="scale"):
        vacuum_expectation_lambda(p, 2)


def exact_amplitudes(state):
    """The exact amplitudes of a state, after checking that it keeps one
    int per key."""
    assert all(type(amp) is int for amp in state.amps.values()), state.amps
    return state.amplitudes()


def test_intermediate_states_stay_valid():
    from gbmoments.fock import check_state

    p = ColoredPairPartition.of([(1, 5), (2, 4), (3, 6)], [0, 1, 0])
    state = vacuum_state()
    for letter in reversed(W.canonical_word(p)):
        state = apply_letter(state, letter, 2)
        check_state(state)
        assert len(state) == len(exact_amplitudes(state)) > 0


def test_check_state_rejects_invalid_states():
    from gbmoments.fock import check_state

    # a lone key with a two-letter word is not fixed by the symmetrization
    unsymmetrized = State.of({((1, 2), (1, 2), (5, 6), ()): Fraction(1)})
    with pytest.raises(ValueError, match="symmetrization"):
        check_state(unsymmetrized)
    check_state(sym_project(unsymmetrized))
    # an explicit zero amplitude is dropped by the projector
    zero = sym_project(State.of({((1,), (1,), (5,), ()): Fraction(2, 3)}))
    zero.amps[((2,), (2,), (5,), ())] = 0
    with pytest.raises(ValueError, match="symmetrization"):
        check_state(zero)
    with pytest.raises(ValueError, match="level"):
        check_state(State.of({((1,), (1,), (5, 6), ()): Fraction(1)}))
    with pytest.raises(ValueError, match="permutations"):
        check_state(State.of({((1, 2), (1, 1), (5, 6), ()): Fraction(1)}))


def test_symmetrization_idempotent():
    for level_key in [
        ((1, 2, 1), (1, 1, 2), (5,), (7, 9)),
        ((1, 2), (2, 1), (3, 4), ()),
    ]:
        raw = {level_key: Fraction(1)}
        once = sym_project(State.of(raw))
        exact = exact_amplitudes(once)
        assert exact == reference.sym_project(raw)
        assert len(once) == len(exact) > 1
        twice = sym_project(once)
        assert exact_amplitudes(twice) == exact and len(twice) == len(once)


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
    projected = sym_project(State.of(state))
    assert exact_amplitudes(projected) == expected
    assert len(projected) == len(expected)


def test_sym_project_matches_literal_average_on_oracle_states(monkeypatch):
    seen = []
    project = fock.sym_project
    monkeypatch.setattr(fock, "sym_project", lambda s: seen.append(s) or project(s))
    rng = random.Random(808)
    parts = [p for m in (1, 2, 3) for p in enumerate_colored(m, 2)]
    for n in (2, 3):
        for p in parts + rng.sample(enumerate_colored(4, 2), 20):
            vacuum_expectation_dense(W.canonical_word(p), n)
    assert len(seen) > 1800
    for state in seen:
        expected = reference.sym_project(exact_amplitudes(state))
        projected = project(state)
        assert exact_amplitudes(projected) == expected
        assert len(projected) == len(expected)


def test_sym_project_rejects_short_value_tuples():
    with pytest.raises(ValueError, match="shorter"):
        sym_project(State.of({((1,), (1, 2), (5, 6), ()): Fraction(1)}))
    with pytest.raises(ValueError, match="shorter"):
        sym_project(State.of({((1, 2), (1,), (), (5, 6)): Fraction(1)}))


def test_arrangements_memo_is_bounded():
    info = fock._arrangements.cache_info()
    assert info.maxsize is not None and info.maxsize <= 4096


def random_low_level_state(rng, n):
    state = vacuum_state()
    for _ in range(rng.randrange(1, 4)):
        letter = W.create(rng.randrange(2), rng.randrange(1, 4))
        state = apply_letter(state, letter, n)
    return state


def test_creation_annihilation_adjoint():
    rng = random.Random(7)
    n = 2
    for _ in range(25):
        u = random_low_level_state(rng, n)
        v = random_low_level_state(rng, n)
        b, i = rng.randrange(2), rng.randrange(1, 4)
        au = apply_letter(u, W.create(b, i), n)
        av = apply_letter(v, W.annihilate(b, i), n)
        for state in (u, v, au, av):
            assert len(state) == len(exact_amplitudes(state))
        assert state_inner(au, v, n) == state_inner(u, av, n)


def test_rho_n_combinatorial_examples():
    a, c = W.annihilate(1, 1), W.create(1, 1)
    assert rho_n_combinatorial((a, a, c, c), -1) == 0
    assert rho_n_combinatorial((a, c), -5) == 1
    # squared word with an over-tall profile vanishes
    word_a = (c, a, c, c)
    assert W.word_profile(word_a) == {(1, 1): 2}
    assert rho_n_combinatorial(W.adjoint(word_a) + word_a, -1) == 0


def test_exclusion_small():
    report = exclusion_check(-1, max_len=4, num_indices=2)
    assert report["all_zero"] and report["checked"] > 0
    report = exclusion_check(-2, max_len=4, num_indices=1)
    assert report["all_zero"]
    with pytest.raises(ValueError):
        exclusion_check(2)


@pytest.mark.parametrize("n, color, checked", [(-1, 0, 1834), (-1, 1, 1834), (-2, 0, 710), (-2, 1, 710)])
def test_exclusion_length_six(n, color, checked):
    # the benchmark's 5,088-word sweep
    report = exclusion_check(n, max_len=6, num_indices=2, color=color)
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
            assert frame.paths == analysis.total_increasing_paths, (w, p)
            assert frame.bar == analysis.bar_pairs.pairs and frame.bar_colors == analysis.bar_colors
            partitions += 1
    assert partitions > 1000


def test_frame_invariants_survive_optimize():
    # python -O strips assert statements; the frame's checks must still
    # raise.  Only Z can fail on an input (points no partition pairs off);
    # the degree checks are reached by misorienting the bar arcs.
    script = """
from gbmoments import cyclegraph
def message(*args):
    try:
        cyclegraph.bar_frame(*args)
    except RuntimeError as exc:
        return str(exc)
print(message([0, 0], [False, False]))
cyclegraph._oriented = lambda pair, c: (pair[1], pair[0]) if c else pair
print(message([0, 0, 0], [False, True, False]))
cyclegraph._oriented = lambda pair, c: (pair[0], pair[0])
print(message([0, 0, 0], [False, True, False]))
"""
    src = str(Path(fock.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "z must be a fixed-point-free involution",
        "every vertex must have out-degree 1",
        "every vertex must have in-degree 1",
    ]


@pytest.mark.slow
def test_exclusion_full_length_eight():
    for n in (-1, -2):
        report = exclusion_check(n, max_len=8, num_indices=2)
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


def test_wlim_identity_guards():
    a_star = (W.create(1, 5),)
    with pytest.raises(ValueError):
        wlim_identity_check(a_star, a_star, 1, 5, 2, 3)  # index 5 inside padding
    heavy = tuple(W.create(0, j) for j in (1, 2, 3))
    with pytest.raises(ValueError):
        wlim_identity_check(heavy, heavy, 1, 1, 2, 2)  # padding below threshold


def test_wlim_creator_pair_bound():
    b_word = (W.create(1, 1), W.create(1, 1))
    value, bound, ok = wlim_creator_pair_bound((), b_word, 1, 1, 2, 6, 2)
    assert ok
    value, bound, ok = wlim_creator_pair_bound((), b_word, 1, 1, 2, 8, 3)
    assert ok
