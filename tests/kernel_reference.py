"""Reference implementations of the cycle-graph kernel, kept for
differential tests.

These are the direct, unoptimized transcriptions of the definitions that
`gbmoments.cyclegraph.build_graph` replaced with one O(n) pass: every step
recomputes what it needs from the partition and checks its invariants with
plain asserts.  `cycle_type_via_permutation` is the permutation-based cycle
type that `gbmoments.partitions.uncolored_cycles` must agree with, and
`uncolored_cycles` here is the hat-based walk it must reproduce cycle by
cycle, which looks pairs up in dicts; both read the reference's own
`noncrossing_hat`, a stack over the left points, and share no code with
the package's hat matcher `partitions._hat_successors`; `color_class` is
the relabel that re-sorts the chosen pairs through `PairPartition.of`,
which the one-pass `PairPartition.split` must reproduce class by class.
`pair_layout_ok`, `colors_ok` and `broken_layout_ok` are the sort-based
validity checks of `PairPartition`, `ColoredPairPartition` and
`BrokenPairPartition` that the one-pass `partitions._check_layout` and
`partitions._check_colors` replaced; on int points they must accept and
reject the same inputs.
`gram_matrix` is the all-products Gram assembly that
`gbmoments.broken.gram_matrix` must agree with; `ldl_pivots` factors
that dense matrix with one diagonal-max LDL^T over the rationals, as
`gbmoments.broken.gram_psd_check` did before it factored block by block
and by integer elimination: its smallest pivot and verdict must be what
that function returns, and on any symmetric rational matrix its pivots and
verdict must be those of the fraction-free `gbmoments.broken._pivots`; and
`t_q_star_n` is the n^m coloring enumeration that
`gbmoments.qproduct.t_q_star_n` must agree with.
The dense oracle's references work on vectors given per basis key, with
one exact amplitude each: `expand` lists every key of each orbit of a
`gbmoments.fock.State`, decoding each int column into its (value,
index) pair with `divmod`, counting each orbit's size from the column
orderings it lists and asserting the orbit invariants, so it reads no
code of the oracle under test; `apply_letter` is the per-key operator
that `gbmoments.fock.apply_letter` applies a whole orbit at a time (every key
of the state moved, before re-symmetrizing), and `sym_project` is the
literal |G|-fold group average that `gbmoments.fock.sym_project` computes
by orbit sums.  `propagate` is one elementary-state propagation for one
value assignment to the dominant creators, and `vacuum_expectation_lambda`
runs it once per assignment, which `gbmoments.fock`'s one depth-first walk
must agree with.  `point_color` and `maximal_monotone_paths` are direct
readings of a partition and a cycle that only the tests use.
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
from gbmoments import words as W
from gbmoments.cyclegraph import ColorProfile, CycleGraphAnalysis
from gbmoments.fock import COLUMN_BASE, DENSE_MAX_LEVEL, LAMBDA_MAX_LEVEL, State, StateKey
from gbmoments.partitions import (
    CapacityError,
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
)

D = "D"
S = "S"


def noncrossing_hat(v: PairPartition) -> PairPartition:
    """The unique noncrossing pair partition with the same left points as v:
    left points open, right points close the most recently opened point."""
    lefts = v.left_points()
    stack: list[int] = []
    pairs = []
    for k in range(1, v.size + 1):
        if k in lefts:
            stack.append(k)
        else:
            pairs.append((stack.pop(), k))
    return PairPartition.of(pairs)


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
        tuple(sorted(cls.items())), tuple(sorted(z.items())), bar_pp, bar_colors, arcs_pairs, arcs_bar,
        tuple(cycles), path_counts
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


def ldl_pivots(matrix) -> tuple[list[Fraction], bool]:
    """Exact LDL^T of the whole symmetric matrix, pivoting on the largest
    remaining diagonal entry d: the pivots up to and including the first
    d <= 0, and the verdict, which is then d == 0 with nothing nonzero
    left."""
    a = [[_exact(x) for x in row] for row in matrix]
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        raise ValueError("gram matrix must be symmetric")
    rest = list(range(len(a)))
    pivots = []
    while rest:
        p = max(rest, key=lambda i: a[i][i])
        d = a[p][p]
        pivots.append(d)
        if d <= 0:
            return pivots, d == 0 and not any(a[i][j] for i in rest for j in rest)
        rest.remove(p)
        row = a[p]
        nonzero = [j for j in rest if row[j]]
        for i in nonzero:
            factor = row[i] / d
            target = a[i]
            for j in nonzero:
                target[j] -= factor * row[j]
    return pivots, True


def _exact(x) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise ValueError(f"Gram weights must be int or Fraction, not {type(x).__name__}")
    return x if isinstance(x, Fraction) else Fraction(x)


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


def expand(state: State, from_vacuum: bool = True) -> dict[StateKey, Fraction]:
    """The state per basis key: each orbit's total times the scale, shared
    by every distinct ordering of its minus columns and of its plus
    columns, the orbit's size being the product of the two ordering
    counts.  Each orbit is first checked to have a nonzero int total (the
    projector drops an orbit of total 0) and sorted columns; on a state
    reached from the vacuum, also to have its two value multisets (column
    values and tail) equal and sized to the larger word, which a projection
    of arbitrary keys need not."""
    out: dict[StateKey, Fraction] = {}
    for orbit, total in state.amps.items():
        assert type(total) is int and total, f"{orbit} has total {total!r}"
        assert all(list(cols) == sorted(cols) for cols in orbit[::2]), f"{orbit} has unsorted columns"
        # a column is the int index * COLUMN_BASE + value
        minus, plus = ([divmod(column, COLUMN_BASE)[::-1] for column in cols] for cols in orbit[::2])
        x_tail, y_tail = orbit[1::2]
        if from_vacuum:
            level = max(len(minus), len(plus))
            assert len(minus) + len(x_tail) == len(plus) + len(y_tail) == level, f"{orbit} is off its level"
            values = sorted([v for v, _ in minus] + list(x_tail)), sorted([v for v, _ in plus] + list(y_tail))
            assert values[0] == values[1], f"{orbit} has unequal value multisets"
        minus_orders = set(itertools.permutations(minus))
        plus_orders = set(itertools.permutations(plus))
        amp = Fraction(state.num * total, state.den * len(minus_orders) * len(plus_orders))
        for minus_order in minus_orders:
            x_head, wm = (tuple(part) for part in zip(*minus_order)) if minus else ((), ())
            for plus_order in plus_orders:
                y_head, wp = (tuple(part) for part in zip(*plus_order)) if plus else ((), ())
                out[(x_head + x_tail, y_head + y_tail, wm, wp)] = amp
    return out


def apply_letter(state: dict[StateKey, Fraction], letter: W.Letter, n: int) -> dict[StateKey, Fraction]:
    """One creation or annihilation operator on a symmetrized vector given
    per key, before re-symmetrizing.  A creator multiplies each amplitude
    by n_b + 1 and, at a dominant creator (n_b >= n_other), puts the new
    column at every value z in 1..N; an annihilator removes the last word
    factor, and divides by N when it drops the level."""
    b, i = letter.b, letter.i
    out: dict[StateKey, Fraction] = defaultdict(Fraction)
    if letter.k == W.CREATE:
        for (x, y, wm, wp), amp in state.items():
            words = (wm, wp)
            nb, nother = len(words[b]), len(words[1 - b])
            if max(nb + 1, nother) > DENSE_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {DENSE_MAX_LEVEL}")
            coef = amp * (nb + 1)
            new_word = words[b] + (i,)
            pair = (new_word, words[1 - b]) if b == 0 else (words[1 - b], new_word)
            if nb >= nother:
                for z in range(1, n + 1):
                    out[(x + (z,), y + (z,), pair[0], pair[1])] += coef
            else:
                out[(x, y, pair[0], pair[1])] += coef
    else:
        # adjoint of creation: on an already-symmetrized state only the
        # last word factor is removed; the k-sum of the textbook formula
        # is recovered by the surrounding symmetrization average
        for (x, y, wm, wp), amp in state.items():
            words = (wm, wp)
            nb, nother = len(words[b]), len(words[1 - b])
            if nb == 0 or words[b][-1] != i:
                continue
            new_word = words[b][:-1]
            pair = (new_word, words[1 - b]) if b == 0 else (words[1 - b], new_word)
            if nb <= nother:
                out[(x, y, pair[0], pair[1])] += amp
            elif x[-1] == y[-1]:
                out[(x[:-1], y[:-1], pair[0], pair[1])] += amp / n
    return dict(out)


def vacuum_expectation_lambda(p: ColoredPairPartition, n: int) -> Fraction:
    """The elementary-state oracle, one propagation per value assignment
    to the dominant creators: the survivor count times the word's scale."""
    word = W.canonical_word(p)
    cls = classify(p)
    rights = p.base.right_points()
    dominant_creators = [k for k in range(1, p.size + 1) if k in rights and cls[k] == D]
    found = []
    for values in itertools.product(range(1, n + 1), repeat=len(dominant_creators)):
        scale = propagate(word, dict(zip(dominant_creators, values)), n, p)
        if scale is not None:
            found.append(scale)
    assert all(scale == found[0] for scale in found), found
    return Fraction(len(found) * found[0][0], found[0][1]) if found else Fraction(0)


def propagate(
    word: W.Word, lam: dict[int, int], n: int, p: ColoredPairPartition
) -> tuple[int, int] | None:
    """Elementary-state propagation right-to-left through the word.

    The state is a scale factor, one value tuple per color (both of length
    max(level_0, level_1)), and one index word per color; word positions
    1..level_b bind to the same positions of color b's tuple, positions
    above level_b are its unbound tail.  Returns the scale as (numerator,
    denominator), or None when the state dies."""
    num = den = 1
    tuples: list[list[int]] = [[], []]  # color 0 tuple, color 1 tuple
    words: list[list[int]] = [[], []]
    for k in range(p.size, 0, -1):
        letter = word[k - 1]
        b, i = letter.b, letter.i
        nb, nother = len(words[b]), len(words[1 - b])
        if letter.k == W.CREATE:
            if max(nb + 1, nother) > LAMBDA_MAX_LEVEL:
                raise CapacityError(f"word drives a level above {LAMBDA_MAX_LEVEL}")
            num *= nb + 1
            assert (k in lam) == (nb >= nother), "exactly the dominant creators carry an assignment"
            if k in lam:
                tuples[0].append(lam[k])
                tuples[1].append(lam[k])
            words[b].append(i)
        else:
            pos = words[b].index(i)
            bound_value = tuples[b][pos]
            if nb > nother:
                # dominant: level drops, the weak side's top tail entry must
                # match the value bound to this index
                if tuples[1 - b][-1] != bound_value:
                    return None
                den *= n * nb
                del tuples[b][pos]
                del tuples[1 - b][-1]
            else:
                # subordinate: freed value becomes the bottom of b's tail
                den *= nb
                del tuples[b][pos]
                tuples[b].insert(nb - 1, bound_value)
            del words[b][pos]
    assert not (words[0] or words[1] or tuples[0] or tuples[1]), "the word must return to the vacuum"
    return num, den
