"""Directed cycle graph of a two-colored pair partition.

Everything here is for num_colors == 2.  Color id 0 plays the role of the
"minus" color and id 1 the "plus" color: arcs of plus-colored pairs run left
to right, arcs of minus-colored pairs are reversed.  The graph on [2m] built
from the partition's arcs together with the arcs of the derived bar-partition
decomposes into vertex-disjoint directed cycles; the number of maximal
increasing paths per cycle is the statistic that drives the two-colored
moment formulas.

Everything but the partition's own arcs is fixed by the colors and the
annihilator/creator roles of the points (left points are annihilators),
so `bar_frame` computes it from those alone, once per word for all the
partitions compatible with it.  `loop_counter` walks the cycles a
partition's arcs close with a frame's bar arcs and returns each cycle's
count of maximal increasing paths: the one cycle statistic behind every
moment weight (`moments.t_n`, `moments.t_colored`, and `moments.t_uncolored`
through the constant coloring) and the word-level sum.  `build_graph` walks
the full vertex cycles only for the `graph` report.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Sequence

from .partitions import (
    ColorArityError,
    ColoredPairPartition,
    FrozenValue,
    PairPartition,
    _walk_cycles,
)

D = "D"
S = "S"


def _require_two_colors(p: ColoredPairPartition):
    if p.num_colors != 2:
        raise ColorArityError("cycle-graph analysis is defined for exactly 2 colors")


class ColorProfile(FrozenValue):
    """Path-count profiles of a two-colored pair partition.

    counts[b][u] is the number of b-colored pairs (l, r) with l <= u <= r,
    for u in [0, 2m+1]; r_values[k-1] is the count for k's own color.
    """

    __slots__ = ("counts", "r_values")
    counts: tuple[tuple[int, ...], tuple[int, ...]]
    r_values: tuple[int, ...]

    def __init__(self, counts: tuple[tuple[int, ...], tuple[int, ...]], r_values: tuple[int, ...]):
        self._assign(counts, r_values)

    def p(self, color: int, u: int) -> int:
        return self.counts[color][u]

    def r(self, k: int) -> int:
        return self.r_values[k - 1]


def _oriented(pair: tuple[int, int], color: int) -> tuple[int, int]:
    # color id 1: keep (u, v); color id 0: reverse.
    return pair if color == 1 else (pair[1], pair[0])


class BarFrame(NamedTuple):
    """The word-level part of the cycle graph, point-indexed over 0..n
    (index 0 unused): the points' colors, span counts, dominance, Z, the
    bar pairs and their colors and arcs, and succ[u], the bar successor of
    each point u a bar arc leaves (0 at the points pair arcs leave).

    A maximal increasing path ends at a vertex entered by an increasing arc
    and left by a decreasing one.  Annihilators never are such peaks (a
    color-1 one leaves by its pair arc to the right, a color-0 one is
    entered by its pair arc from the right), and a creator's pair arc comes
    from or goes to its partner on the left, so a creator k is one iff its
    bar neighbour Z(k) lies left of it: `paths`, the number of peaks, is the
    number of bar pairs whose right end is a creator, the same for every
    partition with these points.
    """

    color: Sequence[int]
    counts: tuple[list[int], list[int]]
    r: list[int]
    dominant: list[bool]
    z: list[int]
    bar: tuple[tuple[int, int], ...]
    bar_colors: tuple[int, ...]
    arcs_bar: tuple[tuple[int, int], ...]
    succ: list[int]
    paths: int

    @property
    def classification(self) -> dict[int, str]:
        return {k: D if d else S for k, d in enumerate(self.dominant) if k}


def bar_frame(color: Sequence[int], annihilator: Sequence[bool]) -> BarFrame:
    """The frame of points 1..n with the given colors and roles (index 0
    unused), for points that some colored pair partition pairs off, each
    pair an annihilator left of a creator of its color.

    One pass each computes the span counts, the dominance split, Z, the bar
    coloring and the bar successors; a violated invariant of the
    construction raises RuntimeError.
    """
    n = len(color) - 1
    points = range(1, n + 1)
    # counts[b][u] = #b-annihilators <= u - #b-creators < u, from one
    # difference array per color
    diff = ([0] * (n + 2), [0] * (n + 2))
    for k, c, a in zip(points, color[1:], annihilator[1:]):
        if a:
            diff[c][k] += 1
        else:
            diff[c][k + 1] -= 1
    counts = (list(accumulate(diff[0])), list(accumulate(diff[1])))
    r = [counts[c][k] for k, c in enumerate(color)]
    dominant = [r[k] > counts[1 - c][k] for k, c in enumerate(color)]
    look_right = [a == d for a, d in zip(annihilator, dominant)]

    # two sweeps, each keeping the last point seen with every r-value in 1..m;
    # z[k] == 0 means no point of equal r-value lies on k's side
    z = [0] * (n + 1)
    for order, wanted in ((points, False), (reversed(points), True)):
        last = [0] * (n // 2 + 1)
        for k in order:
            if look_right[k] == wanted:
                z[k] = last[r[k]]
            last[r[k]] = k
    if any(z[z[k]] != k for k in points):
        raise RuntimeError("z must be a fixed-point-free involution")

    # a bar pair keeps the color of subordinate endpoints and flips dominant ones
    bar = tuple((k, zk) for k, zk in enumerate(z) if k < zk)
    bar_color = [c ^ d for c, d in zip(color, dominant)]
    bar_colors = tuple(bar_color[k] for k, _ in bar)
    if bar_colors != tuple(bar_color[k] for _, k in bar):
        raise RuntimeError("bar coloring must not depend on the endpoint")

    # pair arcs leave color-1 annihilators and color-0 creators and enter the
    # other points, so each vertex has in- and out-degree 1 iff every bar
    # arc leaves one of the other points and enters one of those
    arcs_bar = tuple(_oriented(pair, c) for pair, c in zip(bar, bar_colors))
    succ = [0] * (n + 1)
    for u, v in arcs_bar:
        # a pair arc leaves u iff color[u] == annihilator[u] (1 == True)
        if color[u] == annihilator[u]:
            raise RuntimeError("every vertex must have out-degree 1")
        if color[v] != annihilator[v]:
            raise RuntimeError("every vertex must have in-degree 1")
        succ[u] = v
    paths = sum(1 for _, k in bar if not annihilator[k])
    return BarFrame(color, counts, r, dominant, z, bar, bar_colors, arcs_bar, succ, paths)


def loop_counter(frame: BarFrame) -> Callable[[Iterable[tuple[int, int]]], list[int]]:
    """The per-cycle counts of maximal increasing paths of the graph made of
    the frame's bar arcs and the arcs of a matching of its points, as a
    function of the matching's pairs (l, r), each an annihilator l and a
    creator r of its color; one entry per cycle, so its length is the
    cycle count.

    A cycle alternates pair and bar arcs, so it is walked once on the m
    points pair arcs leave, under the map that follows a pair arc and then
    a bar arc.  A cycle's path count is its number of peaks, the creators r
    with Z(r) < r (see `BarFrame`), and each creator rides on the step of
    its own pair.
    """
    # slot numbers the points pair arcs leave; after[t] is the slot the bar
    # arc leaving t enters
    slot = [0] * len(frame.succ)
    sources = [u for u, v in enumerate(frame.succ) if u and not v]
    for j, u in enumerate(sources):
        slot[u] = j
    after = [slot[v] for v in frame.succ]
    peak = [int(z < k) for k, z in enumerate(frame.z)]
    color = frame.color
    m = len(sources)

    def path_counts(pairs: Iterable[tuple[int, int]]) -> list[int]:
        step = [0] * m
        peaks = [0] * m
        for l, r in pairs:
            if color[l]:
                j = slot[l]
                step[j] = after[r]
            else:
                j = slot[r]
                step[j] = after[l]
            peaks[j] = peak[r]
        # walk each cycle once, marking its slots done with step -1
        counts = []
        for start in range(m):
            if step[start] < 0:
                continue
            k = 0
            j = start
            while step[j] >= 0:
                k += peaks[j]
                step[j], j = -1, step[j]
            counts.append(k)
        return counts

    return path_counts


def point_roles(
    pairs: Sequence[tuple[int, int]], colors: Sequence[int]
) -> tuple[list[int], list[bool]]:
    """Point-indexed colors and annihilator flags (index 0 unused) of the
    points of a colored pair partition: left points are annihilators."""
    color = [0] * (2 * len(pairs) + 1)
    annihilator = [False] * (2 * len(pairs) + 1)
    for (l, r), c in zip(pairs, colors):
        color[l] = color[r] = c
        annihilator[l] = True
    return color, annihilator


def _frame(p: ColoredPairPartition) -> BarFrame:
    _require_two_colors(p)
    return bar_frame(*point_roles(p.base.pairs, p.colors))


def profile(p: ColoredPairPartition) -> ColorProfile:
    """Per-color span counts p_b(u) and the own-color count r(k)."""
    frame = _frame(p)
    return ColorProfile(tuple(map(tuple, frame.counts)), tuple(frame.r[1:]))


def classify(p: ColoredPairPartition) -> dict[int, str]:
    """Split points into dominant ('D') and subordinate ('S').

    Point k is dominant iff its own-color count r(k) exceeds the other
    color's count at k.
    """
    return _frame(p).classification


def z_map(p: ColoredPairPartition) -> dict[int, int]:
    """The fixed-point-free involution pairing each point with the nearest
    point of equal r-value on the prescribed side.

    Dominant left points and subordinate right points look right;
    dominant right points and subordinate left points look left.
    """
    z = _frame(p).z
    return {k: z[k] for k in range(1, p.size + 1)}


def bar_partition(p: ColoredPairPartition) -> tuple[PairPartition, tuple[int, ...]]:
    """The pair partition {(k, Z(k))} with its induced coloring.

    A bar pair keeps the color of its subordinate endpoints and flips the
    color of dominant ones; the two endpoints always agree on the result.
    """
    frame = _frame(p)
    return PairPartition(frame.bar), frame.bar_colors


class CycleGraphAnalysis(FrozenValue):
    """Full analysis of the directed graph attached to a 2-colored partition."""

    __slots__ = ("classification", "z", "bar_pairs", "bar_colors", "arcs_pairs", "arcs_bar",
                 "cycles", "path_counts")
    classification: dict[int, str]
    z: dict[int, int]
    bar_pairs: PairPartition
    bar_colors: tuple[int, ...]
    arcs_pairs: tuple[tuple[int, int], ...]
    arcs_bar: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    path_counts: tuple[int, ...]

    def __init__(
        self,
        classification: dict[int, str],
        z: dict[int, int],
        bar_pairs: PairPartition,
        bar_colors: tuple[int, ...],
        arcs_pairs: tuple[tuple[int, int], ...],
        arcs_bar: tuple[tuple[int, int], ...],
        cycles: tuple[tuple[int, ...], ...],
        path_counts: tuple[int, ...],
    ):
        self._assign(
            classification, z, bar_pairs, bar_colors, arcs_pairs, arcs_bar, cycles, path_counts
        )

    @property
    def gamma(self) -> dict[int, int]:
        """Histogram: maximal-increasing-path count -> number of cycles."""
        out: dict[int, int] = {}
        for c in self.path_counts:
            out[c] = out.get(c, 0) + 1
        return out

    @property
    def total_increasing_paths(self) -> int:
        return sum(self.path_counts)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict:
        return {
            "classification": {str(k): v for k, v in sorted(self.classification.items())},
            "z": {str(k): v for k, v in sorted(self.z.items())},
            "bar": {
                "pairs": [list(p) for p in self.bar_pairs.pairs],
                "colors": list(self.bar_colors),
            },
            "cycles": [
                {"vertices": list(vs), "inc_paths": n}
                for vs, n in zip(self.cycles, self.path_counts)
            ],
            "gamma": {str(k): v for k, v in sorted(self.gamma.items())},
        }


def build_graph(p: ColoredPairPartition) -> CycleGraphAnalysis:
    """Build the directed graph and extract its cycle/path statistics: the
    bar frame of p's points plus p's own arcs."""
    frame = _frame(p)
    arcs_pairs = tuple(
        _oriented(pair, c) for pair, c in zip(p.base.pairs, p.colors)
    )
    succ = list(frame.succ)
    for u, v in arcs_pairs:
        succ[u] = v
    # the first cycle is the fixed point 0 that pads the point-indexed list
    cycles = tuple(_walk_cycles(succ)[1:])
    # a maximal increasing path ends at each vertex entered by an
    # increasing arc and left by a decreasing one
    path_counts = tuple(
        sum(1 for i, v in enumerate(cyc) if cyc[i - 1] < v > succ[v])
        for cyc in cycles
    )
    points = range(1, p.size + 1)
    return CycleGraphAnalysis(
        classification=frame.classification,
        z={k: frame.z[k] for k in points},
        bar_pairs=PairPartition(frame.bar),
        bar_colors=frame.bar_colors,
        arcs_pairs=arcs_pairs,
        arcs_bar=frame.arcs_bar,
        cycles=cycles,
        path_counts=path_counts,
    )
