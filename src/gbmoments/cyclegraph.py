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
so `bar_frame` computes it from those alone, in one sweep over the points,
once per word for all the partitions compatible with it (the word-level
sum `fock._loop_sum` scans its Z and path count), and refuses roles that
no partition pairs off.  The frame keeps the colors, dominance and Z,
which the `graph` report reads, and the bar successors and peaks, which
the cycle walk reads.  `point_roles` reads a partition's point roles and
the steps of its pair arcs in one pass over its pairs, and `loop_counter`
follows those steps and the frame's bar arcs around the cycles and
returns each cycle's count of maximal increasing paths: the one cycle
statistic behind every moment weight (`moments.t_n`,
`moments.t_colored`, and `moments.t_uncolored` through the constant
coloring).  The reports build the rest on demand:
`profile` builds the per-color span counts and reads r from them, with no
frame, and `build_graph` the `graph` report.  It alone derives the
classification, the bar pairs with their colors and arcs, and the full
vertex cycles, each cycle's paths counted by the same peak flags;
`classify`, `z_map` and `bar_partition` return its fields.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

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

    def p(self, color: int, u: int) -> int:
        return self.counts[color][u]

    def r(self, k: int) -> int:
        return self.r_values[k - 1]


def _oriented(pair: tuple[int, int], color: int) -> tuple[int, int]:
    # color id 1: keep (u, v); color id 0: reverse.
    return pair if color == 1 else (pair[1], pair[0])


class BarFrame(NamedTuple):
    """The word-level part of the cycle graph, point-indexed over 0..n
    (index 0 unused): the points' colors, dominance and Z, and at each
    point u a bar arc leaves, its bar successor succ[u] and its peak flag
    peak[u] (both 0 at the points pair arcs leave).

    A maximal increasing path ends at a vertex entered by an increasing arc
    and left by a decreasing one.  Annihilators never are such peaks (a
    color-1 one leaves by its pair arc to the right, a color-0 one is
    entered by its pair arc from the right), and a creator's pair arc comes
    from or goes to its partner on the left, so a creator k is one iff its
    bar neighbour Z(k) lies left of it.  So a bar pair holds a peak iff its
    right end is a creator; peak[u] marks that on the pair's bar arc, and
    `paths`, the number of peaks, is the same for every partition with
    these points.  `loop_counter` and `build_graph` both count a cycle's
    paths as the peak flags of its vertices.

    `bar_frame` fills every field in one sweep over the points: a bar pair
    closes at its right end, and its arc, succ and peak are set there.
    Only reports read the bar pairs, their colors and arcs and the
    classification; `build_graph` derives them from z, color and dominant.
    """

    color: Sequence[int]
    dominant: list[bool]
    z: list[int]
    succ: list[int]
    peak: list[int]
    paths: int


def bar_frame(color: Sequence[int], annihilator: Sequence[bool]) -> BarFrame:
    """The frame of points 1..n with the given colors in {0, 1} and roles
    (index 0 unused).  Points that no colored pair partition pairs off,
    each pair an annihilator left of a creator of its color, raise
    ValueError.

    One left-to-right sweep.  It keeps one running count of open pairs per
    color: r[k] counts the pairs of k's color open at k, k's own included,
    and k is dominant iff that exceeds the other color's open pairs.  No
    count may drop below 0, and at each point the open pairs may not
    outnumber the points left to close them, so at n both counts are 0:
    else ValueError.  It also keeps the last point seen with every r-value
    in 1..n/2 (the bound keeps r there): a point that looks left takes it,
    and the bar pair closes there.  Its checks (the partner exists and
    looks right, one bar color for both ends, one pair arc in and out of
    each end) and, after the sweep, one bar pair per two points are
    invariants of the construction, and a violated one raises
    RuntimeError.  The checks at a point read no later point, and points
    that pass the counts so far begin roles that some partition pairs off,
    so invalid roles raise ValueError before any of them could fail.
    """
    n = len(color) - 1
    dominant = [False] * (n + 1)
    z = [0] * (n + 1)
    succ = [0] * (n + 1)
    peak = [0] * (n + 1)
    # last[r]: the last point seen with r-value r
    last = [0] * (n // 2 + 1)
    opened = [0, 0]
    paths = bars = 0
    for k in range(1, n + 1):
        c = color[k]
        a = annihilator[k]
        # only an annihilator raises the open pairs, so only it can break the bound
        if a:
            opened[c] = rk = opened[c] + 1
            if opened[0] + opened[1] > n - k:
                raise ValueError("every annihilator must be closed by a creator of its color")
        else:
            rk = opened[c]
            if not rk:
                raise ValueError("a creator must close an open annihilator of its color")
            opened[c] = rk - 1
        dominant[k] = dk = rk > opened[1 - c]
        j = last[rk]
        last[rk] = k
        # dominant annihilators and subordinate creators look right
        if a == dk:
            continue
        if not j or annihilator[j] != dominant[j]:
            raise RuntimeError("z must be a fixed-point-free involution")
        z[j] = k
        z[k] = j
        # a bar pair keeps the color of subordinate endpoints and flips dominant ones
        bc = c ^ dk
        if bc != color[j] ^ dominant[j]:
            raise RuntimeError("bar coloring must not depend on the endpoint")
        # color 1 keeps the arc (j, k), color 0 reverses it; a pair arc
        # leaves u iff color[u] == annihilator[u] (1 == True), so each
        # vertex has in- and out-degree 1 iff every bar arc leaves one of
        # the other points and enters one of those
        u, v = (j, k) if bc else (k, j)
        if color[u] == annihilator[u]:
            raise RuntimeError("every vertex must have out-degree 1")
        if color[v] != annihilator[v]:
            raise RuntimeError("every vertex must have in-degree 1")
        succ[u] = v
        # a bar pair holds a peak iff its right end is a creator
        if not a:
            peak[u] = 1
            paths += 1
        bars += 1
    if 2 * bars != n:
        raise RuntimeError("z must be a fixed-point-free involution")
    return BarFrame(color, dominant, z, succ, peak, paths)


def loop_counter(frame: BarFrame, step: list[int]) -> list[int]:
    """The per-cycle counts of maximal increasing paths of the graph made of
    the frame's bar arcs and the arcs of a matching of its points, given by
    its pair steps: step[u] is the point the pair arc leaving u enters, 0
    at the points pair arcs enter, as `point_roles` fills them.  One entry
    per cycle, so its length is the cycle count.

    A cycle alternates pair and bar arcs, so it is walked once on the m
    points pair arcs leave, each step a pair arc and then a bar arc; a
    cycle's path count is the number of its bar arcs that carry a peak
    (see `BarFrame`).  The walk zeroes the steps it takes, so it uses
    step up.
    """
    succ, peak = frame.succ, frame.peak
    # walk each cycle once from its first point; the enumeration reads the
    # zeroed entries and skips them
    counts = []
    for j, t in enumerate(step):
        if t:
            k = 0
            while t:
                step[j] = 0
                k += peak[t]
                j = succ[t]
                t = step[j]
            counts.append(k)
    return counts


def point_roles(
    pairs: Sequence[tuple[int, int]], colors: Sequence[int]
) -> tuple[list[int], list[bool], list[int]]:
    """Point-indexed colors, annihilator flags and pair steps (index 0
    unused) of the points of a colored pair partition, in one pass over its
    pairs: left points are annihilators, and the arc of a pair (l, r) runs
    from l to r for color 1 and from r to l for color 0, so step[l] = r or
    step[r] = l (see `loop_counter`)."""
    color = [0] * (2 * len(pairs) + 1)
    annihilator = [False] * (2 * len(pairs) + 1)
    step = [0] * (2 * len(pairs) + 1)
    for (l, r), c in zip(pairs, colors):
        color[l] = color[r] = c
        annihilator[l] = True
        if c:
            step[l] = r
        else:
            step[r] = l
    return color, annihilator, step


def profile(p: ColoredPairPartition) -> ColorProfile:
    """Per-color span counts p_b(u) and the own-color count r(k): the
    number of pairs of k's own color that span k, read from those counts."""
    _require_two_colors(p)
    # one difference array per color: a pair (l, r) spans the points l..r
    diff = ([0] * (p.size + 2), [0] * (p.size + 2))
    for (left, right), c in zip(p.base.pairs, p.colors):
        diff[c][left] += 1
        diff[c][right + 1] -= 1
    counts = (tuple(accumulate(diff[0])), tuple(accumulate(diff[1])))
    color, _, _ = point_roles(p.base.pairs, p.colors)
    return ColorProfile(counts, tuple(counts[color[k]][k] for k in range(1, p.size + 1)))


def classify(p: ColoredPairPartition) -> dict[int, str]:
    """Split points into dominant ('D') and subordinate ('S').

    Point k is dominant iff its own-color count r(k) exceeds the other
    color's count at k.
    """
    return dict(build_graph(p).classification)


def z_map(p: ColoredPairPartition) -> dict[int, int]:
    """The fixed-point-free involution pairing each point with the nearest
    point of equal r-value on the prescribed side.

    Dominant left points and subordinate right points look right;
    dominant right points and subordinate left points look left.
    """
    return dict(build_graph(p).z)


def bar_partition(p: ColoredPairPartition) -> tuple[PairPartition, tuple[int, ...]]:
    """The pair partition {(k, Z(k))} with its induced coloring.

    A bar pair keeps the color of its subordinate endpoints and flips the
    color of dominant ones; the two endpoints always agree on the result.
    """
    analysis = build_graph(p)
    return analysis.bar_pairs, analysis.bar_colors


class CycleGraphAnalysis(FrozenValue):
    """Full analysis of the directed graph attached to a 2-colored partition."""

    __slots__ = ("classification", "z", "bar_pairs", "bar_colors", "arcs_pairs", "arcs_bar",
                 "cycles", "path_counts")
    # (point, value) items in point order, as `to_json` writes them
    classification: tuple[tuple[int, str], ...]
    z: tuple[tuple[int, int], ...]
    bar_pairs: PairPartition
    bar_colors: tuple[int, ...]
    arcs_pairs: tuple[tuple[int, int], ...]
    arcs_bar: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    path_counts: tuple[int, ...]

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
            "classification": {str(k): v for k, v in self.classification},
            "z": {str(k): v for k, v in self.z},
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
    bar frame of p's points plus p's own arcs.  Only here are the frame's
    report views (classification, Z, bar pairs, colors, arcs) derived."""
    _require_two_colors(p)
    color, annihilator, _ = point_roles(p.base.pairs, p.colors)
    frame = bar_frame(color, annihilator)
    arcs_pairs = tuple(
        _oriented(pair, c) for pair, c in zip(p.base.pairs, p.colors)
    )
    succ = list(frame.succ)
    for u, v in arcs_pairs:
        succ[u] = v
    # the first cycle is the fixed point 0 that pads the point-indexed list
    cycles = tuple(_walk_cycles(succ)[1:])
    path_counts = tuple(sum(frame.peak[v] for v in cyc) for cyc in cycles)
    z = tuple(enumerate(frame.z))[1:]
    bar = tuple((k, zk) for k, zk in z if k < zk)
    # a bar pair keeps the color of subordinate endpoints and flips dominant ones
    bar_colors = tuple(frame.color[k] ^ frame.dominant[k] for k, _ in bar)
    return CycleGraphAnalysis(
        tuple((k, D if frame.dominant[k] else S) for k, _ in z),
        z,
        PairPartition(bar),
        bar_colors,
        arcs_pairs,
        tuple(_oriented(pair, c) for pair, c in zip(bar, bar_colors)),
        cycles,
        path_counts,
    )
