import itertools

import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from gbmoments import moments
from gbmoments.cyclegraph import bar_frame, build_graph, classify, point_roles
from gbmoments.partitions import (
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    enumerate_colored,
    enumerate_pair_partitions,
    noncrossing_hat,
    uncolored_cycles,
)


# the package keeps no span-count profile: the profile tests read the
# reference's, from which its classify, z_map and bar_partition are built,
# and `build_graph` must match those

def test_profile_single_pair():
    p = ColoredPairPartition.of([(1, 2)], [0])
    prof = reference.profile(p)
    assert [prof.p(0, u) for u in range(4)] == [0, 1, 1, 0]
    assert all(prof.p(1, u) == 0 for u in range(4))


def test_profile_mixed_crossing():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    prof = reference.profile(p)
    assert [prof.p(0, u) for u in range(1, 5)] == [1, 1, 1, 0]
    assert [prof.p(1, u) for u in range(1, 5)] == [0, 1, 1, 1]


def test_profile_rejects_other_arity():
    p = ColoredPairPartition.of([(1, 2)], [0], num_colors=3)
    with pytest.raises(ColorArityError):
        build_graph(p)
    with pytest.raises(ColorArityError):
        reference.profile(p)


def test_classify_examples():
    p = ColoredPairPartition.of([(1, 2)], [0])
    assert classify(p) == {1: "D", 2: "D"}
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert classify(p) == {1: "D", 2: "S", 3: "S", 4: "D"}


def test_z_map_examples():
    p = ColoredPairPartition.of([(1, 2)], [0])
    assert build_graph(p).z == ((1, 2), (2, 1))
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert build_graph(p).z == ((1, 2), (2, 1), (3, 4), (4, 3))


def test_bar_partition_examples():
    a = build_graph(ColoredPairPartition.of([(1, 2)], [0]))
    assert a.bar_pairs.pairs == ((1, 2),) and a.bar_colors == (1,)
    a = build_graph(ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1]))
    assert a.bar_pairs.pairs == ((1, 2), (3, 4))
    assert a.bar_colors == (1, 0)


def test_build_graph_mixed_crossing():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    a = build_graph(p)
    assert a.cycles == ((1, 2, 4, 3),)
    assert a.path_counts == (1,)


def test_build_graph_constant_crossing():
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    a = build_graph(p)
    assert a.cycles == ((1, 3, 2, 4),)
    assert a.path_counts == (2,)


def test_twelve_point_reference(twelve_point, twelve_point_expected):
    prof = reference.profile(twelve_point)
    a = build_graph(twelve_point)
    cls = dict(a.classification)
    z = dict(a.z)
    for key, row in twelve_point_expected["rows"].items():
        k = int(key)
        c = reference.point_color(twelve_point, k)
        assert c == row["color"]
        assert prof.r(k) == row["r"]
        assert prof.p(1 - c, k) == row["p_other"]
        assert cls[k] == row["class"]
        assert z[k] == row["z"]
    assert [list(p) for p in a.bar_pairs.pairs] == twelve_point_expected["bar"]["pairs"]
    assert list(a.bar_colors) == twelve_point_expected["bar"]["colors"]


def test_twelve_point_graph(twelve_point, twelve_point_expected):
    a = build_graph(twelve_point)
    got = sorted(
        (list(vs), n) for vs, n in zip(a.cycles, a.path_counts)
    )
    want = sorted(
        (c["vertices"], c["inc_paths"]) for c in twelve_point_expected["cycles"]
    )
    assert got == want
    assert a.gamma == {1: 1, 2: 1}


def all_two_colored(max_m):
    for m in range(1, max_m + 1):
        yield from enumerate_colored(m, 2)


def _frame_or_error(frame_of, color, annihilator):
    # any exception, so that an IndexError on one side shows as a difference
    try:
        return frame_of(color, annihilator)
    except Exception as exc:
        return type(exc)


def test_bar_frame_accepts_exactly_the_roles_some_partition_pairs_off():
    # every color/role sequence of <= 8 points (87,381); the valid ones are
    # read off the colored partitions themselves.  On each, the one sweep
    # gives the three-pass reference's frame or raises its exception type
    valid = {
        tuple(map(tuple, point_roles(p.base.pairs, p.colors)[:2]))
        for p in all_two_colored(4)
    } | {((0,), (False,))}
    accepted = 0
    for n in range(9):
        for points in itertools.product(((0, False), (0, True), (1, False), (1, True)), repeat=n):
            color = (0,) + tuple(c for c, _ in points)
            annihilator = (False,) + tuple(a for _, a in points)
            got = _frame_or_error(bar_frame, color, annihilator)
            assert got == _frame_or_error(reference.bar_frame, color, annihilator), (color, annihilator)
            if (color, annihilator) in valid:
                assert got.color == color
                accepted += 1
            else:
                assert got is ValueError, (color, annihilator)
    assert accepted == len(valid)


def test_z_map_color_side_laws():
    # the partner lies on the same side exactly when the colors differ, and
    # in the same dominance class exactly when the colors agree
    for p in all_two_colored(4):
        a = build_graph(p)
        cls = dict(a.classification)
        z = dict(a.z)
        lefts = reference.left_points(p.base)
        for k in range(1, p.size + 1):
            same_color = reference.point_color(p, k) == reference.point_color(p, z[k])
            assert (cls[z[k]] == cls[k]) == same_color
            assert ((z[k] in lefts) == (k in lefts)) == (not same_color)


def _arcs(pairs, colors):
    # color 1 keeps a pair's arc, color 0 reverses it
    return {(l, r) if c else (r, l) for (l, r), c in zip(pairs, colors)}


def test_structural_invariants_small():
    for p in all_two_colored(4):
        a = build_graph(p)
        n = p.size
        z = dict(a.z)
        # fixed-point-free involution
        assert all(z[z[k]] == k and z[k] != k for k in range(1, n + 1))
        # disjoint arc families, vertex-disjoint cycles covering [2m]
        assert not _arcs(p.base.pairs, p.colors) & _arcs(a.bar_pairs.pairs, a.bar_colors)
        assert sorted(v for c in a.cycles for v in c) == list(range(1, n + 1))
        # unit jumps and boundary zeros of the profiles
        prof = reference.profile(p)
        for b in (0, 1):
            assert prof.p(b, 0) == 0 and prof.p(b, n + 1) == 0
            for u in range(1, n + 2):
                assert abs(prof.p(b, u) - prof.p(b, u - 1)) <= 1


def test_profile_steps_happen_at_own_color_endpoints():
    for p in all_two_colored(3):
        prof = reference.profile(p)
        lefts = reference.left_points(p.base)
        for b in (0, 1):
            for k in range(1, p.size + 1):
                if prof.p(b, k) > prof.p(b, k - 1):
                    assert reference.point_color(p, k) == b and k in lefts
                if prof.p(b, k + 1) < prof.p(b, k):
                    assert reference.point_color(p, k) == b and k not in lefts


def test_profile_intermediate_values():
    for p in all_two_colored(3):
        prof = reference.profile(p)
        n = p.size
        for b in (0, 1):
            values = [prof.p(b, u) for u in range(n + 2)]
            for k in range(n + 1):
                for k2 in range(k + 1, n + 2):
                    low, high = sorted((values[k], values[k2]))
                    for u in range(low, high + 1):
                        assert any(values[j] == u for j in range(k, k2 + 1))


def test_profile_endpoint_inequalities():
    # at a left point nothing closes, so no profile can drop across it;
    # symmetrically nothing opens across a right point
    for p in all_two_colored(3):
        prof = reference.profile(p)
        lefts = reference.left_points(p.base)
        for k in range(1, p.size + 1):
            c = reference.point_color(p, k)
            if k in lefts:
                assert prof.r(k) >= prof.p(c, k - 1)
                for b in (0, 1):
                    assert prof.p(b, k + 1) >= prof.p(b, k)
            else:
                assert prof.r(k) >= prof.p(c, k + 1)
                for b in (0, 1):
                    assert prof.p(b, k - 1) >= prof.p(b, k)


def test_constant_coloring_matches_uncolored_cycles():
    # t_uncolored reads the constant coloring's histogram as the cycle type
    # rho; both constant colorings give it (m = 1..6: 11,464 partitions)
    for m in range(1, 7):
        for v in enumerate_pair_partitions(m):
            _, rho = uncolored_cycles(v)
            for c in (0, 1):
                p = ColoredPairPartition(v, (c,) * m, 2)
                assert build_graph(p).gamma == _cached_gamma(p) == rho


@st.composite
def pair_partitions(draw, min_m=7, max_m=12):
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    perm = draw(st.permutations(range(1, 2 * m + 1)))
    return PairPartition.of(zip(perm[::2], perm[1::2]))


def _assert_constant_coloring_bar_is_the_hat(v):
    # t_uncolored reads rho off the cycle graph because under a constant
    # coloring its Z is the noncrossing hat; the reference hat shares no
    # code with the package's
    hat = noncrossing_hat(v)
    assert hat == reference.noncrossing_hat(v)
    for c in (0, 1):
        assert build_graph(ColoredPairPartition(v, (c,) * v.m, 2)).bar_pairs == hat


def test_constant_coloring_bar_is_the_hat_exhaustive():
    # m = 0..6: 11,465 partitions, 22,930 colorings
    for m in range(7):
        for v in enumerate_pair_partitions(m):
            _assert_constant_coloring_bar_is_the_hat(v)


@settings(deadline=None)
@given(pair_partitions())
def test_constant_coloring_bar_is_the_hat_random(v):
    _assert_constant_coloring_bar_is_the_hat(v)


@settings(deadline=None)
@given(pair_partitions())
def test_constant_coloring_matches_uncolored_cycles_random(v):
    _, rho = uncolored_cycles(v)
    for c in (0, 1):
        assert dict(moments._graph_exponent(v.pairs, (c,) * v.m)) == rho


def test_monotone_path_counts_balance():
    for p in all_two_colored(4):
        for cycle in build_graph(p).cycles:
            inc, dec = reference.maximal_monotone_paths(cycle)
            assert len(inc) == len(dec)


def test_monotone_path_endpoints_are_dominant():
    for p in all_two_colored(4):
        a = build_graph(p)
        cls = dict(a.classification)
        lefts = reference.left_points(p.base)
        for cycle in a.cycles:
            inc, dec = reference.maximal_monotone_paths(cycle)
            for run in inc:
                assert cls[run[0]] == "D" and run[0] in lefts
                assert cls[run[-1]] == "D" and run[-1] not in lefts
            for run in dec:
                assert cls[run[0]] == "D" and run[0] not in lefts
                assert cls[run[-1]] == "D" and run[-1] in lefts


def test_kernel_matches_reference_exhaustive():
    for p in all_two_colored(4):
        a = build_graph(p)
        assert a == reference.build_graph(p)
        assert classify(p) == dict(a.classification) == reference.classify(p)
        assert dict(a.z) == reference.z_map(p)
        assert (a.bar_pairs, a.bar_colors) == reference.bar_partition(p)


@st.composite
def two_colored(draw, min_m=5, max_m=10):
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    perm = draw(st.permutations(range(1, 2 * m + 1)))
    colors = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return ColoredPairPartition.of(zip(perm[::2], perm[1::2]), colors)


@settings(deadline=None)
@given(two_colored())
def test_kernel_matches_reference_random(p):
    a = build_graph(p)
    assert a == reference.build_graph(p)
    z = dict(a.z)
    assert all(z[k] != k and z[z[k]] == k for k in range(1, p.size + 1))
    assert reference.total_increasing_paths(a) >= reference.num_cycles(a)


def _cached_gamma(p):
    return dict(moments._graph_exponent(p.base.pairs, p.colors))


# the weights read the loop walk's histogram; build_graph's vertex walk and
# the reference kernel compute it independently (m = 0..5: 32,055 partitions)
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_cached_gamma_matches_independent_walks_exhaustive(m):
    for p in enumerate_colored(m, 2):
        assert _cached_gamma(p) == build_graph(p).gamma == reference.build_graph(p).gamma


@settings(deadline=None)
@given(two_colored(min_m=0, max_m=12))
def test_sweep_frame_and_gamma_match_the_reference_random(p):
    color, annihilator, _ = point_roles(p.base.pairs, p.colors)
    assert bar_frame(color, annihilator) == reference.bar_frame(color, annihilator)
    assert moments._graph_exponent(p.base.pairs, p.colors) == tuple(sorted(build_graph(p).gamma.items()))


@settings(deadline=None)
@given(two_colored(min_m=6, max_m=8))
def test_cached_gamma_matches_independent_walks_random(p):
    assert _cached_gamma(p) == build_graph(p).gamma == reference.build_graph(p).gamma
