"""Pair partitions of [2m], colorings, crossings and cycle decomposition.

Points are 1-based everywhere in the public API.  A pair partition is stored
in canonical form: pairs (l, r) with l < r, sorted by l.  Colors are 0-based
integers; when a two-element color set {-1, 1} is meant, color id 0 stands
for -1 and color id 1 for +1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_ENUM_PAIRS = 8


class CapacityError(Exception):
    """Requested computation exceeds the configured exact-arithmetic budget."""


class ColorArityError(Exception):
    """Operation is only defined for two-colored pair partitions."""


@dataclass(frozen=True)
class PairPartition:
    """A partition of {1, ..., 2m} into m pairs, canonically ordered."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = len(self.pairs)
        points = [p for pair in self.pairs for p in pair]
        if sorted(points) != list(range(1, 2 * m + 1)):
            raise ValueError("pairs must cover 1..2m with each point used once")
        for l, r in self.pairs:
            if not l < r:
                raise ValueError(f"pair ({l},{r}) must have l < r")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("pairs must be sorted by left point")

    @classmethod
    def of(cls, pairs: Iterable[Sequence[int]]) -> "PairPartition":
        """Build from any iterable of 2-sequences, canonicalizing order."""
        canon = tuple(sorted((min(p), max(p)) for p in pairs))
        return cls(canon)

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def left_points(self) -> frozenset[int]:
        return frozenset(l for l, _ in self.pairs)

    def right_points(self) -> frozenset[int]:
        return frozenset(r for _, r in self.pairs)

    def restrict(self, pair_ids: Iterable[int]) -> "PairPartition":
        """The subpartition on the pairs with the given indices, points
        relabeled order-preservingly to 1..2s."""
        chosen = [self.pairs[j] for j in pair_ids]
        points = sorted(p for pair in chosen for p in pair)
        relabel = {p: i + 1 for i, p in enumerate(points)}
        return PairPartition.of((relabel[l], relabel[r]) for l, r in chosen)

    def to_json(self) -> dict:
        return {"m": self.m, "pairs": [list(p) for p in self.pairs]}


@dataclass(frozen=True)
class ColoredPairPartition:
    """A pair partition plus one color id per pair (aligned to canonical order)."""

    base: PairPartition
    colors: tuple[int, ...]
    num_colors: int = 2

    def __post_init__(self):
        if len(self.colors) != self.base.m:
            raise ValueError("need exactly one color per pair")
        if any(not 0 <= c < self.num_colors for c in self.colors):
            raise ValueError("color ids must lie in [0, num_colors)")

    @classmethod
    def of(cls, pairs, colors, num_colors: int = 2) -> "ColoredPairPartition":
        """Build from unsorted pairs; colors given in the order of `pairs`."""
        tagged = sorted(((min(p), max(p)), c) for p, c in zip(pairs, colors))
        base = PairPartition(tuple(p for p, _ in tagged))
        return cls(base, tuple(c for _, c in tagged), num_colors)

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def size(self) -> int:
        return self.base.size

    def point_color(self, k: int) -> int:
        """Color of point k (both endpoints of a pair share its color)."""
        for pair, c in zip(self.base.pairs, self.colors):
            if k in pair:
                return c
        raise KeyError(k)

    def color_class(self, color: int) -> PairPartition:
        """The subpartition of pairs with the given color, points relabeled
        order-preservingly to 1..2s."""
        return self.base.restrict(
            j for j, c in enumerate(self.colors) if c == color
        )

    def to_json(self) -> dict:
        d = self.base.to_json()
        d["colors"] = list(self.colors)
        d["num_colors"] = self.num_colors
        return d


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def pair_partition_from_json(obj) -> PairPartition:
    """Read {"pairs": [[l, r], ...]}; any other shape raises ValueError."""
    return PairPartition.of(_json_pairs(obj))


def _json_pairs(obj) -> list[list[int]]:
    """The "pairs" list of a JSON object: each pair two integers, not bools."""
    pairs = obj.get("pairs") if isinstance(obj, dict) else None
    if not isinstance(pairs, list):
        raise ValueError("a partition must be an object with a 'pairs' list")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ValueError(f"each pair must be a list of two integers, got {pair!r}")
    return pairs


def colored_from_json(obj) -> ColoredPairPartition:
    """Read a pair partition with optional integer "colors" (default all 0)
    and "num_colors" (default 2)."""
    base = pair_partition_from_json(obj)
    colors = obj.get("colors")
    if colors is None:
        colors = [0] * base.m
    num_colors = obj.get("num_colors", 2)
    if not (isinstance(colors, list) and all(map(_is_int, colors))):
        raise ValueError("'colors' must be a list of integers")
    if not _is_int(num_colors):
        raise ValueError("'num_colors' must be an integer")
    return ColoredPairPartition(base, tuple(colors), num_colors)


def double_factorial(n: int) -> int:
    """n!! for odd n (with (-1)!! = 1)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _matchings(opens: Sequence, closes: Sequence) -> list[tuple[tuple[int, int], ...]]:
    """The perfect matchings of 1..len(opens)-1 whose pairs (l, r) have
    opens[l] is not None and closes[r] == opens[l] (index 0 is unused), each
    as its pairs sorted by l.  The smallest free point is paired with each
    allowed partner in ascending order, recursively."""
    out: list[tuple[tuple[int, int], ...]] = []
    pairs: list[tuple[int, int]] = []

    def rec(free: list[int]):
        if not free:
            out.append(tuple(pairs))
            return
        l = free[0]
        key = opens[l]
        if key is None:
            return
        for j in range(1, len(free)):
            r = free[j]
            if closes[r] == key:
                pairs.append((l, r))
                rec(free[1:j] + free[j + 1 :])
                pairs.pop()

    rec(list(range(1, len(opens))))
    return out


def enumerate_pair_partitions(m: int) -> list[PairPartition]:
    """All (2m-1)!! pair partitions of [2m], in the order of `_matchings`."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_ENUM_PAIRS:
        raise CapacityError(f"enumeration limited to m <= {MAX_ENUM_PAIRS}")
    unconstrained = [0] * (2 * m + 1)
    return [PairPartition(pairs) for pairs in _matchings(unconstrained, unconstrained)]


def enumerate_colored(m: int, k: int) -> list[ColoredPairPartition]:
    """All pair partitions of [2m] with all k^m colorings, (2m-1)!!*k^m total."""
    if k < 1:
        raise ValueError("need at least one color")
    bases = enumerate_pair_partitions(m)
    return [
        ColoredPairPartition(base, coloring, k)
        for base in bases
        for coloring in itertools.product(range(k), repeat=m)
    ]


def crossings(
    v: PairPartition,
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All ordered pairs of pairs ((l1,r1),(l2,r2)) with l1 < l2 < r1 < r2."""
    out = []
    for p1, p2 in itertools.combinations(v.pairs, 2):
        l1, r1 = p1
        l2, r2 = p2
        if l1 < l2 < r1 < r2:
            out.append((p1, p2))
    return sorted(out)


def noncrossing_hat(v: PairPartition) -> PairPartition:
    """The unique noncrossing pair partition with the same left points as v.

    Left points open, right points close the most recently opened point
    (stack matching).
    """
    lefts = v.left_points()
    stack: list[int] = []
    pairs = []
    for k in range(1, v.size + 1):
        if k in lefts:
            stack.append(k)
        else:
            pairs.append((stack.pop(), k))
    return PairPartition.of(pairs)


def _walk_cycles(succ: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of the permutation k -> succ[k] of 0..len(succ)-1.

    Each cycle is listed in arc order from its smallest element, and the
    cycles are ordered by that element.
    """
    seen = [False] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = succ[cur]
        cycles.append(tuple(cycle))
    return cycles


def uncolored_cycles(
    v: PairPartition,
) -> tuple[list[tuple[tuple[int, int], ...]], dict[int, int]]:
    """Cycle decomposition of v and the histogram rho: length -> count.

    A cycle is a sequence of pairs ((l_1,r_1), ..., (l_s,r_s)) of v such
    that (l_i, r_{i+1 mod s}) lies in the noncrossing hat of v.
    """
    hat_right_of = dict(noncrossing_hat(v).pairs)
    # pair index whose right point is r
    owner_of_right = {r: j for j, (_, r) in enumerate(v.pairs)}
    succ = [owner_of_right[hat_right_of[l]] for l, _ in v.pairs]
    cycles = [tuple(v.pairs[j] for j in cyc) for cyc in _walk_cycles(succ)]
    rho: dict[int, int] = {}
    for cyc in cycles:
        rho[len(cyc)] = rho.get(len(cyc), 0) + 1
    return cycles, rho
