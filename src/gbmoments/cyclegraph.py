"""Directed cycle graph of a two-colored pair partition.

Everything here is for num_colors == 2.  Color id 0 plays the role of the
"minus" color and id 1 the "plus" color: arcs of plus-colored pairs run left
to right, arcs of minus-colored pairs are reversed.  The graph on [2m] built
from the partition's arcs together with the arcs of the derived bar-partition
decomposes into vertex-disjoint directed cycles; the number of maximal
increasing paths per cycle is the statistic that drives the two-colored
moment formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .partitions import (
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    _walk_cycles,
)

D = "D"
S = "S"


def _require_two_colors(p: ColoredPairPartition):
    if p.num_colors != 2:
        raise ColorArityError("cycle-graph analysis is defined for exactly 2 colors")


@dataclass(frozen=True)
class ColorProfile:
    """Path-count profiles of a two-colored pair partition.

    counts[b][u] is the number of b-colored pairs (l, r) with l <= u <= r,
    for u in [0, 2m+1]; r_values[k-1] is the count for k's own color.
    """

    counts: tuple[tuple[int, ...], tuple[int, ...]]
    r_values: tuple[int, ...]

    def p(self, color: int, u: int) -> int:
        return self.counts[color][u]

    def r(self, k: int) -> int:
        return self.r_values[k - 1]


def _point_arrays(p: ColoredPairPartition):
    """Point-indexed color and partner lists (index 0 unused) and the span
    counts counts[b][u] for u in [0, 2m+1], from one difference array per
    color."""
    n = p.size
    color = [0] * (n + 1)
    partner = [0] * (n + 1)
    diff = ([0] * (n + 2), [0] * (n + 2))
    for (l, r), c in zip(p.base.pairs, p.colors):
        color[l] = color[r] = c
        partner[l], partner[r] = r, l
        diff[c][l] += 1
        diff[c][r + 1] -= 1
    counts = (list(accumulate(diff[0])), list(accumulate(diff[1])))
    return color, partner, counts


def profile(p: ColoredPairPartition) -> ColorProfile:
    """Per-color span counts p_b(u) and the own-color count r(k)."""
    _require_two_colors(p)
    color, _, counts = _point_arrays(p)
    r_values = tuple(counts[color[k]][k] for k in range(1, p.size + 1))
    return ColorProfile((tuple(counts[0]), tuple(counts[1])), r_values)


def classify(p: ColoredPairPartition) -> dict[int, str]:
    """Split points into dominant ('D') and subordinate ('S').

    Point k is dominant iff its own-color count r(k) exceeds the other
    color's count at k.
    """
    return build_graph(p).classification


def z_map(p: ColoredPairPartition) -> dict[int, int]:
    """The fixed-point-free involution pairing each point with the nearest
    point of equal r-value on the prescribed side.

    Dominant left points and subordinate right points look right;
    dominant right points and subordinate left points look left.
    """
    return build_graph(p).z


def bar_partition(p: ColoredPairPartition) -> tuple[PairPartition, tuple[int, ...]]:
    """The pair partition {(k, Z(k))} with its induced coloring.

    A bar pair keeps the color of its subordinate endpoints and flips the
    color of dominant ones; the two endpoints always agree on the result.
    """
    analysis = build_graph(p)
    return analysis.bar_pairs, analysis.bar_colors


def _oriented(pair: tuple[int, int], color: int) -> tuple[int, int]:
    # color id 1: keep (u, v); color id 0: reverse.
    return pair if color == 1 else (pair[1], pair[0])


@dataclass(frozen=True)
class CycleGraphAnalysis:
    """Full analysis of the directed graph attached to a 2-colored partition."""

    classification: dict[int, str]
    z: dict[int, int]
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
    """Build the directed graph and extract its cycle/path statistics.

    One pass each computes the profile, the dominance split, Z, the bar
    coloring and the successor of every vertex; a violated invariant of
    the construction raises RuntimeError.
    """
    _require_two_colors(p)
    n = p.size
    points = range(1, n + 1)
    color, partner, counts = _point_arrays(p)
    r = [counts[c][k] for k, c in enumerate(color)]
    dominant = [r[k] > counts[1 - c][k] for k, c in enumerate(color)]
    look_right = [(k < partner[k]) == dominant[k] for k in range(n + 1)]

    # two sweeps, each keeping the last point seen with every r-value in 1..m;
    # z[k] == 0 means no point of equal r-value lies on k's side
    z = [0] * (n + 1)
    for order, wanted in ((points, False), (reversed(points), True)):
        last = [0] * (p.m + 1)
        for k in order:
            if look_right[k] == wanted:
                z[k] = last[r[k]]
            last[r[k]] = k
    if any(z[z[k]] != k for k in points):
        raise RuntimeError("z must be a fixed-point-free involution")

    # a bar pair keeps the color of subordinate endpoints and flips dominant ones
    bar = tuple((k, z[k]) for k in points if k < z[k])
    bar_color = [c ^ d for c, d in zip(color, dominant)]
    if any(bar_color[k] != bar_color[k2] for k, k2 in bar):
        raise RuntimeError("bar coloring must not depend on the endpoint")
    bar_colors = tuple(bar_color[k] for k, _ in bar)

    arcs_pairs = tuple(
        _oriented(pair, c) for pair, c in zip(p.base.pairs, p.colors)
    )
    arcs_bar = tuple(_oriented(pair, c) for pair, c in zip(bar, bar_colors))
    succ = [0] * (n + 1)
    for u, v in arcs_pairs + arcs_bar:
        if succ[u]:
            raise RuntimeError(
                "arc sets must be disjoint"
                if succ[u] == v
                else "every vertex must have out-degree 1"
            )
        succ[u] = v
    if len(set(succ)) != n + 1:
        raise RuntimeError("every vertex must have in-degree 1")

    # the first cycle is the fixed point 0 that pads the point-indexed list
    cycles = tuple(_walk_cycles(succ)[1:])
    # a maximal increasing path ends at each vertex entered by an
    # increasing arc and left by a decreasing one
    path_counts = tuple(
        sum(1 for i, v in enumerate(cyc) if cyc[i - 1] < v > succ[v])
        for cyc in cycles
    )
    return CycleGraphAnalysis(
        classification={k: D if dominant[k] else S for k in points},
        z={k: z[k] for k in points},
        bar_pairs=PairPartition(bar),
        bar_colors=bar_colors,
        arcs_pairs=arcs_pairs,
        arcs_bar=arcs_bar,
        cycles=cycles,
        path_counts=path_counts,
    )
