"""Acceptance suite: one test per criterion, each at its stated budget.

Every test prints a single PASS line on success (run with -s or -v to see
them); all comparisons on rational quantities are exact (tolerance 0),
the positivity check included: it factors the Gram matrix over the
rationals.
"""

import itertools
import random
import time
from fractions import Fraction

import kernel_reference as reference
from gbmoments import words as W
from gbmoments.broken import (
    embed,
    enumerate_broken,
    involution,
    multiply,
    standard_form,
    standard_form_product,
)
from gbmoments.cyclegraph import build_graph, classify, profile, z_map
from gbmoments.fock import (
    commutation_check,
    vacuum_expectation_dense,
    vacuum_expectation_lambda,
    wlim_identity_check,
)
from gbmoments.moments import (
    t_colored,
    t_free,
    t_n,
    t_uncolored,
    thoma_n,
    tn_handle,
    tn_uncolored_handle,
)
from gbmoments.partitions import (
    ColoredPairPartition,
    double_factorial,
    enumerate_colored,
    enumerate_pair_partitions,
)
from gbmoments.qproduct import (
    QMatrix,
    clt_error_curve,
    gram_psd_check,
    q_product_handle,
    stirling_check,
)

HALF = Fraction(1, 2)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
            print(f"PASS {self.name} ({elapsed:.2f}s / budget {self.seconds}s)")


def test_01_enumeration_counts():
    with Budget("1 enumeration counts", 1):
        expected = [1, 3, 15, 105, 945, 10395]
        for m, want in zip(range(1, 7), expected):
            got = len(enumerate_pair_partitions(m))
            assert got == want == double_factorial(2 * m - 1)


def test_02_twelve_point_analysis(twelve_point, twelve_point_expected):
    with Budget("2 twelve-point profile table", 1):
        prof = profile(twelve_point)
        cls = classify(twelve_point)
        z = z_map(twelve_point)
        for key, row in twelve_point_expected["rows"].items():
            k = int(key)
            c = reference.point_color(twelve_point, k)
            assert prof.r(k) == row["r"], f"r({k})"
            assert prof.p(1 - c, k) == row["p_other"], f"p_other({k})"
            assert cls[k] == row["class"], f"class({k})"
            assert z[k] == row["z"], f"z({k})"


def test_03_twelve_point_graph_and_weight(twelve_point, twelve_point_expected):
    with Budget("3 twelve-point cycles and 1/N weight", 1):
        analysis = build_graph(twelve_point)
        got = sorted(
            (list(vs), n) for vs, n in zip(analysis.cycles, analysis.path_counts)
        )
        want = sorted(
            (c["vertices"], c["inc_paths"]) for c in twelve_point_expected["cycles"]
        )
        assert got == want
        assert analysis.total_increasing_paths - analysis.num_cycles == 1
        for n in (2, 3, -1, -2):
            assert t_n(n, twelve_point) == Fraction(1, n)


def test_04_oracle_equivalence():
    with Budget("4 oracle equivalence (m <= 3, N in {2,3})", 600):
        count = 0
        for m in range(1, 4):
            for p in enumerate_colored(m, 2):
                word = W.canonical_word(p)
                for n in (2, 3):
                    dense = vacuum_expectation_dense(word, n)
                    lam = vacuum_expectation_lambda(p, n)
                    formula = t_colored(thoma_n(n), p)
                    power = t_n(n, p)
                    assert dense == lam == formula == power, (p, n)
                    count += 1
        assert count == 2 * (1 * 2 + 3 * 4 + 15 * 8)


def test_05_constant_coloring_reduction():
    with Budget("5 constant-coloring cycle statistics", 5):
        count = 0
        for m in range(1, 5):
            for v in enumerate_pair_partitions(m):
                p = ColoredPairPartition(v, (1,) * m, 2)
                from gbmoments.partitions import uncolored_cycles

                _, rho = uncolored_cycles(v)
                assert build_graph(p).gamma == rho
                count += 1
        assert count == 1 + 3 + 15 + 105


def test_06_exclusion_principle():
    with Budget("6 exclusion principle (N in {-1,-2})", 60):
        for n in (-1, -2):
            report = reference.exclusion_check(n, max_len=6, num_indices=2)
            assert report["all_zero"], report["failures"][:3]
            assert report["checked"] > 0


def test_07_stirling_cancellation():
    with Budget("7 signed cycle-count cancellation", 5):
        for n in (-1, -2, -3, -4, -5):
            value, ok = stirling_check(n)
            assert ok and value == 0


def _random_word_pair(rng, max_len):
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


def test_08_commutation_identity():
    with Budget("8 commutation identity (50 randomized)", 60):
        rng = random.Random(8080)
        ns = itertools.cycle([1, -1, 2, -2, 3])
        done = 0
        while done < 50:
            a_word, b_word = _random_word_pair(rng, 4)
            b = 0 if W.profile_weight(a_word, 0) >= W.profile_weight(a_word, 1) else 1
            i = rng.randrange(1, 4)
            lhs, rhs, ok = commutation_check(a_word, b_word, b, i, next(ns))
            assert ok, (a_word, b_word, b, i, lhs, rhs)
            done += 1


def test_09_weak_limit_identity():
    with Budget("9 finite-padding identity (20 randomized)", 120):
        rng = random.Random(9090)
        ns = itertools.cycle([2, -2, 3, -1, -3])
        done = 0
        while done < 20:
            a_word, b_word = _random_word_pair(rng, 3)
            b = rng.randrange(2)
            i = rng.randrange(1, 3)
            lhs, rhs, ok = wlim_identity_check(a_word, b_word, b, i, next(ns), pad=4)
            assert ok, (a_word, b_word, b, i, lhs, rhs)
            done += 1


def test_10_clt_rate():
    with Budget("10 averaging limit: exact rate and sweep", 30):
        from gbmoments.partitions import PairPartition

        crossing = PairPartition.of([(1, 3), (2, 4)])
        q = QMatrix.constant(2, HALF)
        curve = clt_error_curve(t_free, q, crossing, [4, 8, 16, 32])
        assert curve == [(n, HALF / n) for n in (4, 8, 16, 32)]
        mixed = QMatrix.of([[1, -1], [-1, 1]])
        sweep = dict(clt_error_curve(t_free, mixed, crossing, [8, 32]))
        assert sweep[32] <= sweep[8]


def test_11_positive_definiteness():
    with Budget("11 Gram positivity (three families)", 30):
        one_color = enumerate_broken(4, 1)
        handle = lambda p: t_uncolored(thoma_n(2), p.base)
        min_pivot, ok = gram_psd_check(one_color, handle)
        assert ok, min_pivot

        two_color = enumerate_broken(4, 2)
        min_pivot, ok = gram_psd_check(two_color, tn_handle(2))
        assert ok, min_pivot

        q = QMatrix.of([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]])
        coupled = q_product_handle([tn_uncolored_handle(2)] * 2, q)
        min_pivot, ok = gram_psd_check(two_color, coupled)
        assert ok, min_pivot


def test_12_semigroup_algebra():
    with Budget("12 semigroup algebra + standard form", 60):
        pool = enumerate_broken(3, 2, include_right_legs=True)
        rng = random.Random(1212)
        for _ in range(200):
            d1, d2, d3 = (rng.choice(pool) for _ in range(3))
            assert multiply(multiply(d1, d2), d3) == multiply(d1, multiply(d2, d3))
        for _ in range(200):
            d1, d2 = rng.choice(pool), rng.choice(pool)
            assert involution(multiply(d1, d2)) == multiply(
                involution(d2), involution(d1)
            )
            assert involution(involution(d1)) == d1
        for m in range(1, 5):
            for p in enumerate_colored(m, 2):
                assert standard_form_product(standard_form(p)) == embed(p)
