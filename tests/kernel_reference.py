"""Reference implementations of the cycle-graph kernel, kept for
differential tests.

These are the direct, unoptimized transcriptions of the definitions that
`gbmoments.cyclegraph.build_graph` replaced with one O(n) pass: every step
recomputes what it needs from the partition and checks its invariants with
plain asserts.  `cycle_type_via_permutation` is the permutation-based cycle
type that `gbmoments.partitions.uncolored_cycles` must agree with, and
`uncolored_cycles` here is the hat-based walk it must reproduce cycle by
cycle, which builds the noncrossing hat as a partition and looks pairs up
in dicts; `color_class` is the relabel that re-sorts the chosen pairs
through `PairPartition.of`.
`pair_layout_ok`, `colors_ok` and `broken_layout_ok` are the sort-based
validity checks of `PairPartition`, `ColoredPairPartition` and
`BrokenPairPartition` that the one-pass `partitions._check_layout` and
`partitions._check_colors` replaced; on int points they must accept and
reject the same inputs.
`gram_matrix` is the all-products Gram assembly that
`gbmoments.broken.gram_matrix` must agree with, and `t_q_star_n` is the
n^m coloring enumeration that `gbmoments.qproduct.t_q_star_n` must agree
with.  `sym_project` is the literal |G|-fold group average that
`gbmoments.fock.sym_project` computes by orbit sums.  `point_color` and
`maximal_monotone_paths` are direct readings of a partition and a cycle
that only the tests use.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

from gbmoments.broken import (
    MAX_PRODUCT_POINTS,
    evaluate_t_hat,
    involution,
    multiply,
)
from gbmoments.cyclegraph import ColorProfile, CycleGraphAnalysis
from gbmoments.fock import StateKey
from gbmoments.partitions import (
    CapacityError,
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
    noncrossing_hat,
)

D = "D"
S = "S"


def point_color(p: ColoredPairPartition, k: int) -> int:
    """Color of point k (both endpoints of a pair share its color)."""
    for pair, c in zip(p.base.pairs, p.colors):
        if k in pair:
            return c
    raise KeyError(k)


def _require_two_colors(p: ColoredPairPartition):
    if p.num_colors != 2:
        raise ColorArityError("cycle-graph analysis is defined for exactly 2 colors")


def profile(p: ColoredPairPartition) -> ColorProfile:
    """Per-color span counts p_b(u) and the own-color count r(k)."""
    _require_two_colors(p)
    n = p.size
    counts = [[0] * (n + 2), [0] * (n + 2)]
    for (l, r), c in zip(p.base.pairs, p.colors):
        for u in range(l, r + 1):
            counts[c][u] += 1
    prof = (tuple(counts[0]), tuple(counts[1]))
    r_values = tuple(prof[point_color(p, k)][k] for k in range(1, n + 1))
    return ColorProfile(prof, r_values)


def classify(p: ColoredPairPartition) -> dict[int, str]:
    """Point k is dominant iff its own-color count r(k) exceeds the other
    color's count at k."""
    prof = profile(p)
    out = {}
    for k in range(1, p.size + 1):
        c = point_color(p, k)
        out[k] = D if prof.r(k) > prof.p(1 - c, k) else S
    return out


def z_map(p: ColoredPairPartition) -> dict[int, int]:
    """Nearest point of equal r-value on the prescribed side."""
    prof = profile(p)
    cls = classify(p)
    lefts = p.base.left_points()
    n = p.size
    z = {}
    for k in range(1, n + 1):
        rk = prof.r(k)
        look_right = (k in lefts) == (cls[k] == D)
        if look_right:
            candidates = [k2 for k2 in range(k + 1, n + 1) if prof.r(k2) == rk]
            assert candidates, f"no equivalent point right of {k}"
            z[k] = min(candidates)
        else:
            candidates = [k2 for k2 in range(1, k) if prof.r(k2) == rk]
            assert candidates, f"no equivalent point left of {k}"
            z[k] = max(candidates)
    for k, k2 in z.items():
        assert k2 != k and z[k2] == k, "z must be a fixed-point-free involution"
    return z


def bar_partition(p: ColoredPairPartition) -> tuple[PairPartition, tuple[int, ...]]:
    """The pair partition {(k, Z(k))} with its induced coloring."""
    z = z_map(p)
    cls = classify(p)
    pairs = sorted((k, z[k]) for k in z if k < z[k])
    colors = []
    for k, k2 in pairs:
        c1 = point_color(p, k) if cls[k] == S else 1 - point_color(p, k)
        c2 = point_color(p, k2) if cls[k2] == S else 1 - point_color(p, k2)
        assert c1 == c2, "bar coloring must not depend on the endpoint"
        colors.append(c1)
    return PairPartition(tuple(pairs)), tuple(colors)


def maximal_monotone_paths(
    cycle_vertices: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Maximal increasing and decreasing vertex runs of a directed cycle.

    The cycle is given in arc order; each arc is increasing or decreasing
    and maximal runs of equal direction form the monotone paths.  A 2-cycle
    has exactly one of each.
    """
    n = len(cycle_vertices)
    signs = [cycle_vertices[i] < cycle_vertices[(i + 1) % n] for i in range(n)]
    increasing, decreasing = [], []
    starts = [i for i in range(n) if signs[i] != signs[i - 1]]
    for i in starts:
        j = i
        while signs[j % n] == signs[i]:
            j += 1
        run = tuple(cycle_vertices[k % n] for k in range(i, j + 1))
        (increasing if signs[i] else decreasing).append(run)
    return increasing, decreasing


def _oriented(pair: tuple[int, int], color: int) -> tuple[int, int]:
    return pair if color == 1 else (pair[1], pair[0])


def _increasing_run_count(cycle_vertices: tuple[int, ...]) -> int:
    """Number of maximal increasing runs in the cyclic arc sequence."""
    n = len(cycle_vertices)
    signs = [
        cycle_vertices[i] < cycle_vertices[(i + 1) % n] for i in range(n)
    ]
    return sum(
        1 for i in range(n) if signs[i] and not signs[(i + 1) % n]
    )


def build_graph(p: ColoredPairPartition) -> CycleGraphAnalysis:
    """Build the directed graph and extract its cycle/path statistics."""
    _require_two_colors(p)
    cls = classify(p)
    z = z_map(p)
    bar_pp, bar_colors = bar_partition(p)

    arcs_pairs = tuple(
        _oriented(pair, c) for pair, c in zip(p.base.pairs, p.colors)
    )
    arcs_bar = tuple(
        _oriented(pair, c) for pair, c in zip(bar_pp.pairs, bar_colors)
    )
    assert not set(arcs_pairs) & set(arcs_bar), "arc sets must be disjoint"

    succ: dict[int, int] = {}
    for u, v in arcs_pairs + arcs_bar:
        assert u not in succ, "every vertex must have out-degree 1"
        succ[u] = v
    assert sorted(succ) == list(range(1, p.size + 1))
    assert sorted(succ.values()) == list(range(1, p.size + 1))

    seen: set[int] = set()
    cycles = []
    for start in range(1, p.size + 1):
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = succ[cur]
        cycles.append(tuple(cyc))

    path_counts = tuple(_increasing_run_count(c) for c in cycles)
    return CycleGraphAnalysis(
        classification=cls,
        z=z,
        bar_pairs=bar_pp,
        bar_colors=bar_colors,
        arcs_pairs=arcs_pairs,
        arcs_bar=arcs_bar,
        cycles=tuple(cycles),
        path_counts=path_counts,
    )


def cycle_type_via_permutation(v: PairPartition) -> dict[int, int]:
    """rho computed through the permutation sigma with
    hat = {(a_i, z_{sigma^-1(i)})}; must agree with uncolored_cycles."""
    hat = noncrossing_hat(v)
    hat_right_of = {l: r for l, r in hat.pairs}
    right_index = {r: j for j, (_, r) in enumerate(v.pairs)}
    # sigma^-1(i) = index of the pair of v whose right point closes a_i in hat
    sigma_inv = [right_index[hat_right_of[l]] for l, _ in v.pairs]
    rho: dict[int, int] = {}
    seen = set()
    for j in range(v.m):
        if j in seen:
            continue
        length = 0
        cur = j
        while cur not in seen:
            seen.add(cur)
            length += 1
            cur = sigma_inv[cur]
        rho[length] = rho.get(length, 0) + 1
    return rho


def uncolored_cycles(
    v: PairPartition,
) -> tuple[list[tuple[tuple[int, int], ...]], dict[int, int]]:
    """Cycles (l_1,r_1), ..., (l_s,r_s) of v with (l_i, r_{i+1 mod s}) in
    the noncrossing hat, each from its first pair, ordered by that pair;
    and rho, length -> count, in the order the cycles are found."""
    hat_right_of = dict(noncrossing_hat(v).pairs)
    owner_of_right = {r: j for j, (_, r) in enumerate(v.pairs)}
    succ = [owner_of_right[hat_right_of[l]] for l, _ in v.pairs]
    seen = [False] * v.m
    cycles = []
    for start in range(v.m):
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(v.pairs[cur])
            cur = succ[cur]
        if cycle:
            cycles.append(tuple(cycle))
    rho: dict[int, int] = {}
    for cyc in cycles:
        rho[len(cyc)] = rho.get(len(cyc), 0) + 1
    return cycles, rho


def color_class(p: ColoredPairPartition, color: int) -> PairPartition:
    """The pairs of the given color, points relabeled order-preservingly to
    1..2s and the pairs sorted again."""
    chosen = [pair for pair, c in zip(p.base.pairs, p.colors) if c == color]
    points = sorted(q for pair in chosen for q in pair)
    relabel = {q: i + 1 for i, q in enumerate(points)}
    return PairPartition.of((relabel[l], relabel[r]) for l, r in chosen)


def pair_layout_ok(pairs) -> bool:
    """Whether the pairs, sorted, each l < r, use each point of 1..2m once."""
    points = sorted(q for pair in pairs for q in pair)
    if points != list(range(1, 2 * len(pairs) + 1)):
        return False
    return all(l < r for l, r in pairs) and list(pairs) == sorted(pairs)


def colors_ok(colors, m: int, num_colors: int) -> bool:
    """Whether there is one color per pair, each in [0, num_colors)."""
    return len(colors) == m and all(0 <= c < num_colors for c in colors)


def broken_layout_ok(n, num_colors, pairs, colors, left_legs, right_legs) -> bool:
    """Whether the fields make a broken diagram: one leg entry per color,
    valid colors, sorted pairs with 1 <= l < r <= n, and pairs and legs
    using each point of 1..n once."""
    if not len(left_legs) == len(right_legs) == num_colors:
        return False
    if not colors_ok(colors, len(pairs), num_colors) or list(pairs) != sorted(pairs):
        return False
    used = [q for legs in left_legs + right_legs for q in legs]
    for l, r in pairs:
        if not 1 <= l < r <= n:
            return False
        used += [l, r]
    return len(used) == n and sorted(used) == list(range(1, n + 1))


def gram_matrix(family, t) -> list[list]:
    """The matrix t_hat(d_i* . d_j), every product formed and evaluated."""
    if not family:
        raise ValueError("family must be nonempty")
    stars = [involution(d) for d in family]
    out = []
    for di in stars:
        row = []
        for dj in family:
            if di.n + dj.n > MAX_PRODUCT_POINTS:
                raise CapacityError("gram product exceeds the size budget")
            row.append(evaluate_t_hat(multiply(di, dj), t))
        out.append(row)
    return out


def t_q_star_n(t, q_base, n: int, v: PairPartition):
    """n^-|V| times the sum over all n^m colorings of (crossing product
    with the periodically extended matrix) * (per-class weights), one
    color at a time, pruning a partial product once it is 0."""
    m = v.m
    k = q_base.size
    index = {pair: j for j, pair in enumerate(v.pairs)}
    cross = [(index[p1], index[p2]) for p1, p2 in crossings(v)]
    total = Fraction(0)
    assignment = [0] * m

    def rec(j: int, partial):
        nonlocal total
        if j == m:
            value = partial
            for color in set(assignment):
                ids = [jj for jj in range(m) if assignment[jj] == color]
                value *= t(v.restrict(ids))
                if value == 0:
                    return
            total += value
            return
        for color in range(1, n + 1):
            assignment[j] = color
            factor = Fraction(1)
            for (j1, j2) in cross:
                if j2 == j:
                    factor *= q_base.entries[(assignment[j1] - 1) % k][(color - 1) % k]
            new_partial = partial * factor
            if new_partial == 0:
                continue
            rec(j + 1, new_partial)

    rec(0, Fraction(1))
    return total / Fraction(n**m)


def _apply_perm(seq: tuple, perm: tuple[int, ...]) -> tuple:
    return tuple(seq[perm[i]] for i in range(len(perm))) + seq[len(perm):]


def sym_project(state: dict[StateKey, Fraction]) -> dict[StateKey, Fraction]:
    """Group-average over the per-color symmetrizations of tuple prefixes
    and tensor words, on exact amplitudes."""
    out: dict[StateKey, Fraction] = defaultdict(Fraction)
    for (x, y, wm, wp), amp in state.items():
        nm, np_ = len(wm), len(wp)
        weight = amp / (factorial(nm) * factorial(np_))
        for pm in itertools.permutations(range(nm)):
            x2 = _apply_perm(x, pm)
            wm2 = _apply_perm(wm, pm)
            for pp in itertools.permutations(range(np_)):
                key = (x2, _apply_perm(y, pp), wm2, _apply_perm(wp, pp))
                out[key] += weight
    return {k: v for k, v in out.items() if v}
