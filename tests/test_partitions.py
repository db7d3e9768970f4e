import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbmoments.partitions import (
    CapacityError,
    ColoredPairPartition,
    PairPartition,
    _crossing_indices,
    crossings,
    double_factorial,
    enumerate_colored,
    enumerate_pair_partitions,
    noncrossing_hat,
    uncolored_cycles,
)
from gbmoments.broken import (
    BrokenPairPartition,
    LeftHookRun,
    PermutationBlock,
    RightHookRun,
    StandardForm,
    standard_form,
)
from gbmoments import partitions
from gbmoments.cyclegraph import ColorProfile, CycleGraphAnalysis, build_graph, profile
from gbmoments.moments import ThomaParameter, t_free, t_n, thoma_character
from gbmoments.qproduct import QMatrix

import kernel_reference
from kernel_reference import cycle_type_via_permutation


def brute_force_crossings(v):
    out = []
    for p1 in v.pairs:
        for p2 in v.pairs:
            if p1[0] < p2[0] < p1[1] < p2[1]:
                out.append((p1, p2))
    return sorted(out)


def brute_force_crossing_indices(v):
    """Every (j, k) with pair j crossing pair k from the left, every
    ordered pair of indices compared, sorted."""
    return sorted(
        (j, k) for j, (l1, r1) in enumerate(v.pairs) for k, (l2, r2) in enumerate(v.pairs)
        if l1 < l2 < r1 < r2
    )


@st.composite
def pair_partitions(draw, max_m=5, min_m=1):
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    points = list(range(1, 2 * m + 1))
    perm = draw(st.permutations(points))
    return PairPartition.of(zip(perm[::2], perm[1::2]))


def test_enumeration_counts():
    assert [p.pairs for p in enumerate_pair_partitions(1)] == [((1, 2),)]
    assert {p.pairs for p in enumerate_pair_partitions(2)} == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }
    for m in range(7):
        assert len(enumerate_pair_partitions(m)) == double_factorial(2 * m - 1)


def test_enumeration_empty_and_capacity():
    assert enumerate_pair_partitions(0) == [PairPartition(())]
    with pytest.raises(CapacityError):
        enumerate_pair_partitions(9)


def test_enumeration_is_deterministic():
    once = [p.pairs for p in enumerate_pair_partitions(4)]
    again = [p.pairs for p in enumerate_pair_partitions(4)]
    assert once == again
    # smallest free point always pairs ascending partners
    assert once[0] == ((1, 2), (3, 4), (5, 6), (7, 8))


# SHA-256 of json.dumps([p.to_json() for p in enumerate_pair_partitions(m)])
ENUMERATION_SHA256 = [
    "c1c39fd77bc7c433773dbb183d3acf9bc200331f9a3318141a8f7ca5e8565271",
    "d6f741562e00c4e1722e1f89d723541c898f0fe7df8c7dc369e9abd81ecb3180",
    "4a6220e74d45874a6c60e727f00a7c509d7995174c3dc0e378ab2c2b73e68b9a",
    "fd6a9d0f416f73adbe746ebca45c01ce72ce4d837b7a40dcdfadacd27fcff014",
    "8a74399bcd6a5e596e39d8730d1fb09bafa87fa8949ca76472d1401e1cdb7023",
    "ddcbf6c45d8ccd3bcef2819f1b8dc7a3927fe5195165dad2ba4c28af6a09aa01",
    "27228f098beb7bf35ff74b81a17c0a0961c129a5d3f5faa70351fd27f2f7220c",
]


@pytest.mark.parametrize("m", range(len(ENUMERATION_SHA256)))
def test_enumeration_order_pinned(m):
    # colored enumerations and samples index into this order
    listing = json.dumps([p.to_json() for p in enumerate_pair_partitions(m)])
    assert hashlib.sha256(listing.encode()).hexdigest() == ENUMERATION_SHA256[m]


def test_enumerate_colored_counts():
    assert len(enumerate_colored(1, 2)) == 2
    assert len(enumerate_colored(2, 2)) == 12
    three = enumerate_colored(2, 1)
    assert len(three) == 3
    assert all(p.colors == (0, 0) for p in three)


def test_partition_validation():
    bad = [
        ((1, 2), (2, 3)),
        ((2, 1), (3, 4)),
        # points must be ints, not bools: (1, 2.0) used to pass and then
        # break t_n with a TypeError, (True, 2) wrote `true` to JSON
        ((1, 2.0),),
        ((1.0, 2),),
        ((True, 2),),
        ((1, 3), (2, True)),
        (("1", "2"),),
    ]
    for pairs in bad:
        with pytest.raises(ValueError):
            PairPartition(pairs)
    for colors in [(2,), (-1,), (), (0, 1), (True,), (1.0,)]:
        with pytest.raises(ValueError):
            ColoredPairPartition(PairPartition(((1, 2),)), colors, num_colors=2)
    # a color list of the wrong length is refused, not truncated
    for colors in [[0], [0, 1, 0]]:
        with pytest.raises(ValueError):
            ColoredPairPartition.of([(1, 2), (3, 4)], colors)


@pytest.mark.parametrize(
    "pairs, colors, num_colors",
    [(((1, 2),), (0,), 2.5), (((1, 2),), (0,), True), (((1, 2),), (0,), "2"), ((), (), 0)],
    ids=["float", "bool", "str", "zero_on_no_pairs"],
)
def test_color_count_validation(pairs, colors, num_colors):
    # all but "2" were accepted, and "2" raised TypeError out of a comparison
    with pytest.raises(ValueError):
        ColoredPairPartition(PairPartition(pairs), colors, num_colors)


def test_enumerate_colored_refuses_a_bool_color_count():
    with pytest.raises(ValueError):
        enumerate_colored(2, True)


# mutations of a well-formed broken diagram; each may make it invalid
MUTATIONS = ["shuffle", "overlap", "out_of_range", "flip", "leg_on_pair", "wrong_n", "bad_color"]


@st.composite
def broken_layouts(draw):
    """Fields (n, num_colors, pairs, colors, left_legs, right_legs) of a
    well-formed broken diagram on int points, then up to three mutations."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    points = draw(st.permutations(range(1, n + 1)))
    m = draw(st.integers(0, n // 2))
    pairs = sorted((min(points[2 * i : 2 * i + 2]), max(points[2 * i : 2 * i + 2])) for i in range(m))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    singles = points[2 * m :]
    roles = draw(st.lists(st.integers(0, 2 * k - 1), min_size=len(singles), max_size=len(singles)))
    legs = [[q for q, role in zip(singles, roles) if role == j] for j in range(2 * k)]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if mutation == "shuffle":
            pairs = draw(st.permutations(pairs))
        elif mutation == "wrong_n":
            n += draw(st.sampled_from([-2, -1, 1, 2]))
        elif mutation == "bad_color" and colors:
            colors[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-1, k, k + 1]))
        elif mutation == "leg_on_pair" and pairs:
            point = draw(st.sampled_from(pairs))[draw(st.integers(0, 1))]
            legged = [j for j in range(2 * k) if legs[j]]
            if legged and draw(st.booleans()):
                # move a leg, so the point count still matches n
                j = draw(st.sampled_from(legged))
                legs[j][draw(st.integers(0, len(legs[j]) - 1))] = point
            else:
                legs[draw(st.integers(0, 2 * k - 1))].append(point)
        elif pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            l, r = pairs[i]
            if mutation == "flip":
                pairs[i] = draw(st.sampled_from([(r, l), (l, l), (r, r)]))
            elif mutation == "overlap":
                # reuse a point, then sort again so only the overlap is wrong
                other = draw(st.sampled_from([q for pair in pairs for q in pair] + singles))
                pair = draw(st.sampled_from([(other, r), (l, other)]))
                pairs[i] = (min(pair), max(pair))
                pairs.sort()
            else:
                bad = draw(st.sampled_from([0, -1, n + 1, n + 2]))
                pairs[i] = draw(st.sampled_from([(bad, r), (l, bad)]))
    lefts, rights = tuple(map(tuple, legs[:k])), tuple(map(tuple, legs[k:]))
    return n, k, tuple(pairs), tuple(colors), lefts, rights


def _accepts(cls, *args) -> bool:
    try:
        cls(*args)
    except ValueError:
        return False
    return True


@settings(deadline=None, max_examples=300)
@given(broken_layouts())
def test_layout_checks_match_sort_based_reference(layout):
    _, k, pairs, colors, _, _ = layout
    assert _accepts(BrokenPairPartition, *layout) == kernel_reference.broken_layout_ok(*layout)
    valid_pairs = kernel_reference.pair_layout_ok(pairs)
    assert _accepts(PairPartition, pairs) == valid_pairs
    if valid_pairs:
        base = PairPartition(pairs)
        assert _accepts(ColoredPairPartition, base, colors, k) == kernel_reference.colors_ok(colors, base.m, k)


def test_crossings_examples():
    assert crossings(PairPartition.of([(1, 2), (3, 4)])) == []
    assert crossings(PairPartition.of([(1, 3), (2, 4)])) == [((1, 3), (2, 4))]
    v = PairPartition.of([(1, 4), (2, 5), (3, 6)])
    assert len(crossings(v)) == 3
    assert crossings(v) == brute_force_crossings(v)
    assert _crossing_indices(v.pairs) == [(0, 1), (0, 2), (1, 2)]
    # the walk's index form, and crossings as its view, at every partition
    # with m <= 6: a scan that stops before the first pair opening past r_j
    # misses a crossing, and one that goes on finds none more
    for m in range(7):
        for v in enumerate_pair_partitions(m):
            indices = brute_force_crossing_indices(v)
            assert _crossing_indices(v.pairs) == indices
            assert crossings(v) == brute_force_crossings(v) == [(v.pairs[j], v.pairs[k]) for j, k in indices]


def test_noncrossing_hat_examples():
    v = PairPartition.of([(1, 2), (3, 4)])
    assert noncrossing_hat(v) == v
    assert noncrossing_hat(PairPartition.of([(1, 3), (2, 4)])).pairs == (
        (1, 4),
        (2, 3),
    )
    assert noncrossing_hat(PairPartition.of([(1, 4), (2, 5), (3, 6)])).pairs == (
        (1, 6),
        (2, 5),
        (3, 4),
    )


def test_uncolored_cycles_examples():
    _, rho = uncolored_cycles(PairPartition.of([(1, 2), (3, 4)]))
    assert rho == {1: 2}
    cycles, rho = uncolored_cycles(PairPartition.of([(1, 3), (2, 4)]))
    assert rho == {2: 1}
    assert cycles == [((1, 3), (2, 4))]
    cycles, rho = uncolored_cycles(PairPartition.of([(1, 4), (2, 5), (3, 6)]))
    assert rho == {1: 1, 2: 1}
    assert set(cycles) == {((1, 4), (3, 6)), ((2, 5),)}


@given(pair_partitions())
def test_noncrossing_hat_properties(v):
    hat = noncrossing_hat(v)
    assert crossings(hat) == []
    assert hat.left_points() == v.left_points()
    assert noncrossing_hat(hat) == hat


@given(pair_partitions())
def test_cycle_lengths_sum_to_m(v):
    _, rho = uncolored_cycles(v)
    assert sum(s * count for s, count in rho.items()) == v.m


@given(pair_partitions())
def test_noncrossing_iff_all_cycles_trivial(v):
    _, rho = uncolored_cycles(v)
    assert (crossings(v) == []) == (rho.get(1, 0) == v.m)


def test_cycles_agree_with_permutation_method():
    for m in range(1, 6):
        for v in enumerate_pair_partitions(m):
            _, rho = uncolored_cycles(v)
            assert rho == cycle_type_via_permutation(v)


def _assert_cycles_match_hat_reference(v):
    cycles, rho = uncolored_cycles(v)
    ref_cycles, ref_rho = kernel_reference.uncolored_cycles(v)
    assert cycles == ref_cycles
    assert list(rho.items()) == list(ref_rho.items())


def test_cycles_match_hat_reference_exhaustively():
    for m in range(7):
        for v in enumerate_pair_partitions(m):
            _assert_cycles_match_hat_reference(v)


@given(pair_partitions(min_m=7, max_m=12))
def test_cycles_match_hat_reference_beyond_enumeration(v):
    _assert_cycles_match_hat_reference(v)


def test_color_class_relabels():
    p = ColoredPairPartition.of([(1, 4), (2, 5), (3, 6)], [0, 1, 0])
    assert p.color_class(0).pairs == ((1, 3), (2, 4))
    assert p.color_class(1).pairs == ((1, 2),)
    assert p.base.restrict([2, 0]) == p.color_class(0)


def test_color_class_matches_resorting_reference():
    # the one-pass split, and color_class as its view, against the
    # re-sorting relabel: every two-colored partition with m <= 5, then
    # seeded three-colored ones with up to 8 pairs
    rng = random.Random(0)
    cases = [p for m in range(6) for p in enumerate_colored(m, 2)]
    for _ in range(2000):
        m = rng.randrange(9)
        points = rng.sample(range(1, 2 * m + 1), 2 * m)
        colors = [rng.randrange(3) for _ in range(m)]
        cases.append(ColoredPairPartition.of(zip(points[::2], points[1::2]), colors, 3))
    for p in cases:
        classes = [kernel_reference.color_class(p, color) for color in range(p.num_colors)]
        assert p.base.split(p.colors, p.num_colors) == classes
        assert [p.color_class(color) for color in range(p.num_colors)] == classes


@pytest.mark.parametrize("color", [2, 7, -1, "0", True, 1.0, None])
def test_color_class_refuses_what_is_no_color(color):
    p = ColoredPairPartition.of([(1, 4), (2, 5), (3, 6)], [0, 1, 0])
    with pytest.raises(ValueError):
        p.color_class(color)


@pytest.mark.parametrize("pair_ids", [[-1], [3], [5], [0, 0], ["0"], [True], [1.0]])
def test_restrict_refuses_what_is_no_pair_index(pair_ids):
    v = PairPartition(((1, 4), (2, 5), (3, 6)))
    with pytest.raises(ValueError):
        v.restrict(pair_ids)


@pytest.mark.parametrize(
    "ids, count",
    [((0, 1), 1), ((0, -1), 2), ((0,), 2), ((0, 1, 0), 2), ((0, 1), -1), ((0, True), 2), ((0, 0), 1.0), ((), 0)],
)
def test_split_refuses_ids_out_of_range(ids, count):
    v = PairPartition(((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        v.split(ids, count)


BAD_PAIRS = [
    [(1, 2, 2), (3, 4)],
    [(1,), (2, 3, 4)],
    [(1, 2), (3,)],
    [(1, 2), 3],
    [(1, 2), ()],
    [(1, True), (2, 3)],
    [(1, 2.0), (3, 4)],
    [("1", "2"), (3, 4)],
    ["12", (3, 4)],
    [(1, None), (3, 4)],
]


@pytest.mark.parametrize("pairs", BAD_PAIRS)
def test_of_refuses_pairs_that_are_not_two_ints(pairs):
    # before, min/max collapsed a triple to its ends: ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="two integers"):
        PairPartition.of(pairs)
    with pytest.raises(ValueError, match="two integers"):
        ColoredPairPartition.of(pairs, [0] * len(pairs))


def test_of_takes_pairs_of_two_ints_in_either_order():
    v = PairPartition(((1, 4), (2, 3)))
    assert PairPartition.of([[4, 1], (2, 3)]) == PairPartition.of(iter([(3, 2), [1, 4]])) == v
    assert ColoredPairPartition.of([[3, 2], (4, 1)], [1, 0]) == ColoredPairPartition(v, (0, 1))
    # a pair of one point twice is two ints, which the layout check refuses
    with pytest.raises(ValueError, match="bad pair"):
        PairPartition.of([(1, 1), (2, 3)])


def test_split_builds_one_object_per_equal_class():
    # the classes come from the bounded memo partitions._class_of, so equal
    # classes are one object: of one split made twice, and of different
    # partitions
    v = PairPartition(((1, 4), (2, 5), (3, 6)))
    first = v.split((0, 1, 0), 2)
    assert first == [PairPartition(((1, 3), (2, 4))), PairPartition(((1, 2),))]
    assert all(a is b for a, b in zip(first, v.split((0, 1, 0), 2)))
    assert PairPartition(((1, 3), (2, 4))).split((0, 0), 1)[0] is first[0]
    assert ColoredPairPartition(v, (0, 1, 0)).color_class(1) is first[1]
    assert v.restrict([1]) is first[1]
    info = partitions._class_of.cache_info()
    assert info.maxsize is not None and info.maxsize <= 4096


def test_constructors_refuse_lists_which_do_not_hash():
    # a list of pairs, a list pair or a list of colors was accepted, and
    # then hash(p), the weights' memo keys and the q-product's raised
    # TypeError: unhashable type: 'list'
    with pytest.raises(ValueError, match="tuple"):
        PairPartition([(1, 2)])
    with pytest.raises(ValueError, match="tuple"):
        PairPartition(((1, 4), [2, 3]))
    with pytest.raises(ValueError, match="tuple"):
        ColoredPairPartition(PairPartition.of([(1, 3), (2, 4)]), [0, 1], 2)
    # the shared layout and color checks hold broken diagrams to tuples too
    with pytest.raises(ValueError, match="tuple"):
        BrokenPairPartition(2, 1, [(1, 2)], (0,), ((),), ((),))
    # `of` still canonicalizes any iterable into tuples, which hash
    p = ColoredPairPartition.of([[1, 3], [2, 4]], [0, 1])
    assert p == ColoredPairPartition(PairPartition(((1, 3), (2, 4))), (0, 1), 2)
    assert hash(p) == hash(ColoredPairPartition(PairPartition(((1, 3), (2, 4))), (0, 1), 2))
    assert t_n(2, p) == 1
    assert t_free(PairPartition.of([[1, 2]])) == 1


def test_split_of_no_pairs_has_the_classes_asked_for():
    empty = PairPartition(())
    assert empty.split((), 0) == []
    assert empty.split((), 2) == [empty, empty]


def _assert_frozen_value(obj, field, fields):
    """obj has no __dict__, refuses assignment and deletion, hashes as the
    tuple of its fields and survives a pickle round trip."""
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        setattr(obj, field, ())
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert hash(obj) == hash(fields)
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_partitions_are_slotted_and_frozen():
    v = PairPartition.of([(1, 3), (2, 4)])
    p = ColoredPairPartition(v, (0, 1))
    for obj, field, fields in ((v, "pairs", (v.pairs,)), (p, "colors", (v, (0, 1), 2))):
        _assert_frozen_value(obj, field, fields)
    assert v == PairPartition(((1, 3), (2, 4))) and v != PairPartition(((1, 2), (3, 4)))
    assert p == ColoredPairPartition.of([(2, 4), (1, 3)], [1, 0])
    assert p != ColoredPairPartition(v, (0, 1), 3)
    assert hash(p) == hash(ColoredPairPartition.of([(2, 4), (1, 3)], [1, 0]))
    # equality holds only within one class, even for equal fields
    assert v != BrokenPairPartition(4, 1, v.pairs, (0, 0), ((),), ((),))


def test_value_classes_are_slotted_and_frozen():
    d = BrokenPairPartition(3, 1, ((1, 3),), (0,), ((2,),), ((),))
    _assert_frozen_value(d, "n", (3, 1, ((1, 3),), (0,), ((2,),), ((),)))
    assert d == BrokenPairPartition(3, 1, ((1, 3),), (0,), ((2,),), ((),))
    assert d != BrokenPairPartition(3, 1, ((1, 3),), (0,), ((),), ((2,),))

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    tp = ThomaParameter(alpha=(half,), beta=(quarter,))
    _assert_frozen_value(tp, "alpha", ((half,), (quarter,)))
    # memo contents take no part in equality or hash
    fresh = ThomaParameter(alpha=(half,), beta=(quarter,))
    tp.power_sum_factor(3)
    thoma_character(tp, {2: 1})
    assert tp._characters and not fresh._characters
    assert tp == fresh and hash(tp) == hash(fresh)
    assert tp != ThomaParameter(alpha=(half, quarter))

    q = QMatrix(((half, quarter), (quarter, 1)))
    _assert_frozen_value(q, "entries", (q.entries,))
    assert q == QMatrix.of([["1/2", "1/4"], ["1/4", 1]]) and q != QMatrix.constant(2, half)

    sf = standard_form(ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1]))
    _assert_frozen_value(sf, "factors", (2, sf.factors))
    assert sf == standard_form(ColoredPairPartition.of([(2, 4), (1, 3)], [1, 0]))
    assert sf != standard_form(ColoredPairPartition.of([(1, 2), (3, 4)], [0, 1]))

    # classes built by FrozenValue's default constructor, one value per field
    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    prof, graph = profile(p), build_graph(p)
    _assert_frozen_value(prof, "counts", (prof.counts, prof.r_values))
    fields = (graph.classification, graph.z, graph.bar_pairs, graph.bar_colors,
              graph.arcs_pairs, graph.arcs_bar, graph.cycles, graph.path_counts)
    _assert_frozen_value(graph, "cycles", fields)
    assert hash(build_graph(p)) == hash(fields)
    assert graph == CycleGraphAnalysis(*fields) != CycleGraphAnalysis(*fields[:-1], (2,))
    right, block, left = standard_form(ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])).factors
    assert (type(right), type(block), type(left)) == (RightHookRun, PermutationBlock, LeftHookRun)
    for obj, field in ((right, "colors"), (block, "perms"), (left, "colors")):
        _assert_frozen_value(obj, field, (getattr(obj, field),))
    # a wrong value count
    for cls, values in ((RightHookRun, ((0,), (1,))), (ColorProfile, (prof.counts,)),
                        (StandardForm, ())):
        with pytest.raises(ValueError):
            cls(*values)


def test_json_round_trip():
    from gbmoments.partitions import colored_from_json

    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert colored_from_json(p.to_json()) == p
