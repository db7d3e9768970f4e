import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbmoments import words as W
from gbmoments.fock import (
    DENSE_MAX_LEVEL,
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
from gbmoments.moments import t_colored, t_n, thoma_n
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
        assert vacuum_expectation_dense(W.canonical_word(p), 2) == t_n(2, p)


def test_lambda_oracle_sampled_m5():
    rng = random.Random(55)
    for p in rng.sample(enumerate_colored(5, 2), 300):
        assert vacuum_expectation_lambda(p, 2) == t_n(2, p)


def test_intermediate_states_stay_valid():
    from gbmoments.fock import check_state

    p = ColoredPairPartition.of([(1, 5), (2, 4), (3, 6)], [0, 1, 0])
    state = vacuum_state()
    for letter in reversed(W.canonical_word(p)):
        state = apply_letter(state, letter, 2)
        check_state(state)


def test_check_state_rejects_invalid_states():
    from gbmoments.fock import check_state

    # a lone key with a two-letter word is not fixed by the symmetrization
    unsymmetrized = {((1, 2), (1, 2), (5, 6), ()): Fraction(1)}
    with pytest.raises(ValueError, match="symmetrization"):
        check_state(unsymmetrized)
    check_state(sym_project(unsymmetrized))
    with pytest.raises(ValueError, match="level"):
        check_state({((1,), (1,), (5, 6), ()): Fraction(1)})


def test_symmetrization_idempotent():
    for level_key in [
        ((1, 2, 1), (1, 1, 2), (5,), (7, 9)),
        ((1, 2), (2, 1), (3, 4), ()),
    ]:
        raw = {level_key: Fraction(1)}
        once = sym_project(raw)
        assert sym_project(once) == once


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
