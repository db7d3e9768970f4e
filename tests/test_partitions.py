import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from gbmoments.partitions import (
    CapacityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
    double_factorial,
    enumerate_colored,
    enumerate_pair_partitions,
    noncrossing_hat,
    uncolored_cycles,
)

from kernel_reference import cycle_type_via_permutation


def brute_force_crossings(v):
    out = []
    for p1 in v.pairs:
        for p2 in v.pairs:
            if p1[0] < p2[0] < p1[1] < p2[1]:
                out.append((p1, p2))
    return sorted(out)


@st.composite
def pair_partitions(draw, max_m=5):
    m = draw(st.integers(min_value=1, max_value=max_m))
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
    with pytest.raises(ValueError):
        PairPartition(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PairPartition(((2, 1), (3, 4)))
    with pytest.raises(ValueError):
        ColoredPairPartition(PairPartition(((1, 2),)), (2,), num_colors=2)


def test_crossings_examples():
    assert crossings(PairPartition.of([(1, 2), (3, 4)])) == []
    assert crossings(PairPartition.of([(1, 3), (2, 4)])) == [((1, 3), (2, 4))]
    v = PairPartition.of([(1, 4), (2, 5), (3, 6)])
    assert len(crossings(v)) == 3
    assert crossings(v) == brute_force_crossings(v)


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


def test_color_class_relabels():
    p = ColoredPairPartition.of([(1, 4), (2, 5), (3, 6)], [0, 1, 0])
    assert p.color_class(0).pairs == ((1, 3), (2, 4))
    assert p.color_class(1).pairs == ((1, 2),)


def test_json_round_trip():
    from gbmoments.partitions import colored_from_json

    p = ColoredPairPartition.of([(1, 3), (2, 4)], [0, 1])
    assert colored_from_json(p.to_json()) == p
