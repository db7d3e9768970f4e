"""The *-semigroup of colored broken pair partitions.

A broken pair partition is a diagram on base points 1..n where every point
either belongs to a colored pair or carries a single open leg (left or
right) of some color; the legs of each color/side are numbered bijectively
1..count.  Pairs are laid out as in a colored pair partition, (l, r) sorted
by left point with a parallel tuple of colors; each color/side stores its
leg points in leg-number order: legs[j] carries number j + 1.
Multiplication concatenates diagrams and joins right legs of the first
factor with left legs of the second factor of the same color: the
lowest-numbered legs join first (number k with number k), so a freshly
opened right leg carries number 1 and is the first one consumed; leg numbers
count outward from the seam.  Surviving legs of the outer factor are
numbered above the inner factor's legs.  Equality is structural on this
canonical form, which encodes equivalence up to order-preserving relabeling
of base points.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .partitions import (
    CapacityError,
    ColoredPairPartition,
    FrozenValue,
    PairPartition,
    _check_colors,
    _check_layout,
    _check_permutation,
    _is_int,
    _json_pairs,
    _ordered,
    _sorted_pairs,
    double_factorial,
)

MAX_PRODUCT_POINTS = 64

Legs = tuple[int, ...]  # leg points in leg-number order


class BrokenPairPartition(FrozenValue):
    """Canonical-form broken pair partition on base points 1..n."""

    __slots__ = ("n", "num_colors", "pairs", "colors", "left_legs", "right_legs")
    n: int
    num_colors: int
    pairs: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]
    left_legs: tuple[Legs, ...]
    right_legs: tuple[Legs, ...]

    def __init__(
        self,
        n: int,
        num_colors: int,
        pairs: tuple[tuple[int, int], ...],
        colors: tuple[int, ...],
        left_legs: tuple[Legs, ...],
        right_legs: tuple[Legs, ...],
    ):
        if not len(left_legs) == len(right_legs) == num_colors:
            raise ValueError("need one leg entry per color")
        _check_colors(colors, len(pairs), num_colors)
        _check_layout(pairs, n, [p for legs in left_legs + right_legs for p in legs])
        self._assign(n, num_colors, pairs, colors, left_legs, right_legs)

    @property
    def has_legs(self) -> bool:
        return any(self.left_legs) or any(self.right_legs)

    def as_colored(self) -> ColoredPairPartition:
        """View a leg-free diagram as a colored pair partition."""
        if self.has_legs:
            raise ValueError("diagram has open legs")
        return ColoredPairPartition(PairPartition(self.pairs), self.colors, self.num_colors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "colors": self.num_colors,
            "per_color": [
                {
                    "pairs": [list(p) for p, c in zip(self.pairs, self.colors) if c == a],
                    "left_legs": _leg_map(self.left_legs[a]),
                    "right_legs": _leg_map(self.right_legs[a]),
                }
                for a in range(self.num_colors)
            ],
        }


def _leg_map(legs: Legs) -> dict[str, int]:
    """{point: leg number}, keyed in point order."""
    return {str(p): legs.index(p) + 1 for p in sorted(legs)}


def _legs_from_json(leg_map) -> Legs:
    """Leg points in leg-number order from a {point: number} map whose
    numbers must be a bijection onto 1..count."""
    if not isinstance(leg_map, dict):
        raise ValueError("leg maps must be objects")
    by_number = {}
    for point, num in leg_map.items():
        if not (isinstance(point, str) and point.isdecimal() and _is_int(num)):
            raise ValueError(f"a leg must map a point to an integer number, got {point!r}: {num!r}")
        by_number[num] = int(point)
    count = len(leg_map)
    if sorted(by_number) != list(range(1, count + 1)):
        raise ValueError("leg numbering must be a bijection onto 1..count")
    return tuple(by_number[num] for num in range(1, count + 1))


def broken_from_json(obj) -> BrokenPairPartition:
    """Read {"n", "colors", "per_color": [{"pairs", "left_legs",
    "right_legs"}, ...]}; any other shape raises ValueError."""
    if not (isinstance(obj, dict) and _is_int(obj.get("n")) and _is_int(obj.get("colors"))):
        raise ValueError("a broken partition must be an object with integer 'n' and 'colors'")
    per_color = obj.get("per_color")
    if not (isinstance(per_color, list) and len(per_color) == obj["colors"]):
        raise ValueError("'per_color' must be a list with one entry per color")
    tagged, lefts, rights = [], [], []
    for a, entry in enumerate(per_color):
        tagged += [(_ordered(p), a) for p in _json_pairs(entry)]
        lefts.append(_legs_from_json(entry.get("left_legs", {})))
        rights.append(_legs_from_json(entry.get("right_legs", {})))
    pairs, colors = _sorted_pairs(tagged)
    return BrokenPairPartition(obj["n"], obj["colors"], pairs, colors, tuple(lefts), tuple(rights))


def empty(num_colors: int = 2) -> BrokenPairPartition:
    none: tuple = ((),) * num_colors
    return BrokenPairPartition(0, num_colors, (), (), none, none)


def left_hook(color: int, num_colors: int = 2) -> BrokenPairPartition:
    """One point with a single open left leg of the given color."""
    lefts = tuple((1,) if a == color else () for a in range(num_colors))
    none: tuple = ((),) * num_colors
    return BrokenPairPartition(1, num_colors, (), (), lefts, none)


def right_hook(color: int, num_colors: int = 2) -> BrokenPairPartition:
    """One point with a single open right leg of the given color."""
    rights = tuple((1,) if a == color else () for a in range(num_colors))
    none: tuple = ((),) * num_colors
    return BrokenPairPartition(1, num_colors, (), (), none, rights)


def embed(p: ColoredPairPartition) -> BrokenPairPartition:
    """A colored pair partition as a leg-free broken diagram."""
    none: tuple = ((),) * p.num_colors
    return BrokenPairPartition(p.size, p.num_colors, p.base.pairs, p.colors, none, none)


def multiply(d1: BrokenPairPartition, d2: BrokenPairPartition) -> BrokenPairPartition:
    """Concatenate d1 and d2 and join legs across the seam.

    Per color, min(|R_1|, |L_2|) pairs form; joined legs are matched by
    equal numbers starting at 1, the new pair's left point lying in d1.
    Surviving right legs of d1 follow d2's right legs, and surviving left
    legs of d2 follow d1's left legs.
    """
    if d1.num_colors != d2.num_colors:
        raise ValueError("operands must share the color set")
    shift = d1.n
    joined = tuple(r1[: len(l2)] for r1, l2 in zip(d1.right_legs, d2.left_legs))
    pairs, colors = _join(shift, _template(d1.pairs, d1.colors, joined), d2)
    lefts, rights = [], []
    for a in range(d1.num_colors):
        r1, l2 = d1.right_legs[a], d2.left_legs[a]
        m = min(len(r1), len(l2))
        lefts.append(d1.left_legs[a] + tuple([p + shift for p in l2[m:]]))
        rights.append(tuple([p + shift for p in d2.right_legs[a]]) + r1[m:])
    return BrokenPairPartition(d1.n + d2.n, d1.num_colors, pairs, colors, tuple(lefts), tuple(rights))


def _template(
    pairs: Sequence[tuple[int, int]], colors: Sequence[int], right_legs: tuple[Legs, ...]
) -> tuple[list, tuple[int, ...]]:
    """A first factor's part of each product it heads, from its pairs in
    any order with their colors and the right legs that join: one slot per
    left point, in point order, with the slots' colors.  A pair (l, r) of
    color c is the slot (l, r, c, -1); right leg k + 1 of color a at point
    p is (p, 0, a, k), whose right point the second factor fills in."""
    slots = sorted(
        [(l, r, c, -1) for (l, r), c in zip(pairs, colors)]
        + [(p, 0, a, k) for a, legs in enumerate(right_legs) for k, p in enumerate(legs)]
    )
    return slots, tuple([slot[2] for slot in slots])


def _join(shift: int, template: tuple[list, tuple[int, ...]], d2: BrokenPairPartition):
    """Pairs and pair colors of the product of a first factor on `shift`
    points, given by its `_template`, and d2: right leg k of color a joins
    d2's left leg k of color a, and d2's pairs follow, shifted past every
    other point."""
    slots, colors = template
    lefts = d2.left_legs
    pairs = [(l, r) if r else (l, lefts[a][k] + shift) for l, r, a, k in slots]
    pairs += [(l + shift, r + shift) for l, r in d2.pairs]
    return tuple(pairs), colors + d2.colors


def involution(d: BrokenPairPartition) -> BrokenPairPartition:
    """Mirror reflection: base order reversed, left and right legs swapped
    with their numbers kept."""
    pairs, legs = _mirror(d, d.left_legs + d.right_legs)
    k = d.num_colors
    return BrokenPairPartition(d.n, k, *_sorted_pairs(zip(pairs, d.colors)), legs[k:], legs[:k])


def _mirror(d: BrokenPairPartition, sides: tuple[Legs, ...]) -> tuple[list, tuple[Legs, ...]]:
    """d*'s pairs, unsorted and aligned with d.colors, and the given leg
    tuples of d mirrored: d's left legs mirrored are d*'s right legs, and
    its right legs d*'s left legs.  The one copy of the flip k -> n + 1 - k."""
    flip = d.n + 1
    pairs = [(flip - r, flip - l) for l, r in d.pairs]
    return pairs, tuple([tuple([flip - p for p in legs]) for legs in sides])


def evaluate_t_hat(
    d: BrokenPairPartition, t: Callable[[ColoredPairPartition], object]
):
    """Extension of a pair-partition weight: t on leg-free diagrams, 0 else."""
    if d.has_legs:
        return Fraction(0)
    return t(d.as_colored())


def gram_blocks(
    family: Sequence[BrokenPairPartition],
    t: Callable[[ColoredPairPartition], object],
) -> list[tuple[list[int], list[list]]]:
    """The nonzero blocks of the Gram matrix t_hat(d_i* . d_j) over the family.

    d_i* . d_j is leg-free exactly when d_i* has no left legs, d_j has no
    right legs and d_i*'s right-leg count equals d_j's left-leg count in
    every color.  d_i* carries d_i's legs with the sides swapped, so one key
    per diagram serves both: None with right legs, else the per-color
    left-leg counts.  Each key's block is (its family indices in order, one
    row per index holding the products with those columns); every other
    entry, a right-legged diagram's whole row and column included, is an
    exact 0.  A leg-free product goes straight to a colored pair partition:
    a row's `_template` is built once, straight from `_mirror`'s pairs of
    d_i and its left legs (d_i*'s right legs), and each column only fills
    in its seam partners and appends its shifted pairs.  t is called on the
    same diagrams in the same row-major order as when every product is
    formed."""
    if not family:
        raise ValueError("family must be nonempty")
    if 2 * max(d.n for d in family) > MAX_PRODUCT_POINTS:
        raise CapacityError("gram product exceeds the size budget")
    keys = [None if any(d.right_legs) else tuple(map(len, d.left_legs)) for d in family]
    blocks: dict[tuple[int, ...], tuple[list[int], list[list]]] = {}
    for j, key in enumerate(keys):
        if key is not None:
            blocks.setdefault(key, ([], []))[0].append(j)
    for d, key in zip(family, keys):
        if key is not None:
            columns, rows = blocks[key]
            mirrored, right_legs = _mirror(d, d.left_legs)
            template = _template(mirrored, d.colors, right_legs)
            row = []
            for j in columns:
                pairs, colors = _join(d.n, template, family[j])
                row.append(t(ColoredPairPartition(PairPartition(pairs), colors, d.num_colors)))
            rows.append(row)
    return list(blocks.values())


def gram_matrix(
    family: Sequence[BrokenPairPartition],
    t: Callable[[ColoredPairPartition], object],
) -> list[list]:
    """The matrix t_hat(d_i* . d_j) over the given family: the dense view
    of `gram_blocks`, with t called in the same order."""
    out = [[Fraction(0)] * len(family) for _ in family]
    for columns, rows in gram_blocks(family, t):
        for i, row in zip(columns, rows):
            for j, x in zip(columns, row):
                out[i][j] = x
    return out


def gram_psd_check(
    family: Sequence[BrokenPairPartition], t: Callable[[ColoredPairPartition], object]
) -> tuple[Fraction, bool]:
    """Exact positive-semidefiniteness of the Gram matrix t_hat(d_i* d_j),
    decided one `gram_blocks` block at a time by `_pivots`: integer
    elimination pivoting on the block's largest remaining diagonal entry d.
    Once d <= 0, the block is PSD iff d == 0 and nothing nonzero remains in
    it.  A weight that is not an int or Fraction, in any block, raises
    ValueError before an asymmetric block does.  Returns (smallest pivot,
    verdict), the same pair as one LDL^T on the dense matrix: its pivots
    within a block are the block's own, it takes every positive one and
    ends at the largest non-positive pivot any block ends at, a
    right-legged diagram's zero row ending at 0."""
    blocks = gram_blocks(family, t)
    for x in (x for _, rows in blocks for row in rows for x in row):
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"Gram weights must be int or Fraction, not {type(x).__name__}")
    for _, a in blocks:
        if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
            raise ValueError("gram matrix must be symmetric")
    right_legged = any(any(d.right_legs) for d in family)
    positive, ends, ok = [], [Fraction(0)] if right_legged else [], True
    for _, a in blocks:
        pivots, block_ok = _pivots(a)
        ok = ok and block_ok
        if pivots[-1] <= 0:
            ends.append(pivots.pop())
        positive += pivots
    if ends:
        positive.append(max(ends))
    return min(positive), ok


def _pivots(block: Sequence[Sequence[int | Fraction]]) -> tuple[list[Fraction], bool]:
    """The pivots of a symmetric rational matrix's LDL^T, largest remaining
    diagonal entry first (the first such row on ties), up to and
    including the first one <= 0, and whether the matrix is PSD.

    Fraction-free (Bareiss, Math. Comp. 22 (1968) 565): the matrix is
    scaled by the lcm s of its denominators, and step k replaces each
    remaining entry by (d_k a_ij - a_ip a_pj) // d_(k-1), an exact division
    with d_0 = 1, where d_k is the k-th pivot entry.  Entry a_ij is then
    d_k * s times the rational Schur complement's, so the diagonal maxima
    agree (every d_k taken is > 0), and the rational pivot is
    d_k / (d_(k-1) * s)."""
    s = math.lcm(*[x.denominator for row in block for x in row])
    a = [[x.numerator * (s // x.denominator) for x in row] for row in block]
    rest = list(range(len(a)))
    pivots = []
    prev = 1
    while rest:
        p = max(rest, key=lambda i: a[i][i])
        d = a[p][p]
        pivots.append(Fraction(d, prev * s))
        if d <= 0:
            return pivots, d == 0 and not any(a[i][j] for i in rest for j in rest)
        rest.remove(p)
        row = a[p]
        # the update keeps the matrix symmetric: compute j >= i, mirror the rest
        for n, i in enumerate(rest):
            target, f = a[i], row[i]
            for j in rest[n:]:
                target[j] = a[j][i] = (d * target[j] - f * row[j]) // prev
        prev = d
    return pivots, True



# ---------------------------------------------------------------------------
# standard form


class RightHookRun(FrozenValue):
    __slots__ = ("colors",)
    colors: tuple[int, ...]


class LeftHookRun(FrozenValue):
    __slots__ = ("colors",)
    colors: tuple[int, ...]


class PermutationBlock(FrozenValue):
    """Renumbering of the currently open right legs, one permutation per
    color in 0-based one-line notation: leg number j becomes perms[a][j-1]+1."""

    __slots__ = ("perms",)
    perms: tuple[tuple[int, ...], ...]


Factor = RightHookRun | LeftHookRun | PermutationBlock


class StandardForm(FrozenValue):
    __slots__ = ("num_colors", "factors")
    num_colors: int
    factors: tuple[Factor, ...]


def permute_right_legs(
    d: BrokenPairPartition, perms: Sequence[Sequence[int]]
) -> BrokenPairPartition:
    rights = []
    for legs, perm in zip(d.right_legs, perms, strict=True):
        _check_permutation(perm)
        if len(perm) != len(legs):
            raise ValueError("permutation must match the open leg count")
        rights.append(_permuted(legs, perm))
    return BrokenPairPartition(
        d.n, d.num_colors, d.pairs, d.colors, d.left_legs, tuple(rights)
    )


def standard_form(p: ColoredPairPartition) -> StandardForm:
    """Factor p into right-hook runs, leg permutations, and left-hook runs.

    Hook products alone close the most recently opened leg of each color, so
    a permutation block is inserted immediately before a left-hook run
    whenever the pairs it closes are not already on top, and nowhere else.
    """
    color = [0] * (p.size + 1)
    opener = [0] * (p.size + 1)  # left point of the pair through each point
    for (l, r), c in zip(p.base.pairs, p.colors):
        color[l] = color[r] = c
        opener[l] = opener[r] = l
    factors: list[Factor] = []
    # per color: openers of the open pairs, position 0 = leg number 1 (most recent)
    open_: list[list[int]] = [[] for _ in range(p.num_colors)]
    runs = itertools.groupby(range(1, p.size + 1), key=lambda k: opener[k] == k)
    for opens, run in runs:
        run = list(run)
        run_colors = tuple(color[k] for k in run)
        if opens:
            for k in run:
                open_[color[k]].insert(0, k)
            factors.append(RightHookRun(run_colors))
            continue
        closing: list[list[int]] = [[] for _ in range(p.num_colors)]
        for k in run:
            closing[color[k]].append(opener[k])
        perms = []
        for a in range(p.num_colors):
            rest = [q for q in open_[a] if q not in closing[a]]
            desired = closing[a] + rest
            perms.append(tuple(desired.index(q) for q in open_[a]))
            open_[a] = rest
        if any(perm != tuple(range(len(perm))) for perm in perms):
            factors.append(PermutationBlock(tuple(perms)))
        factors.append(LeftHookRun(run_colors))
    return StandardForm(p.num_colors, tuple(factors))


def standard_form_product(sf: StandardForm) -> BrokenPairPartition:
    """Multiply the factors of a standard form back out."""
    acc = empty(sf.num_colors)
    for factor in sf.factors:
        if isinstance(factor, RightHookRun):
            for c in factor.colors:
                acc = multiply(acc, right_hook(c, sf.num_colors))
        elif isinstance(factor, LeftHookRun):
            for c in factor.colors:
                acc = multiply(acc, left_hook(c, sf.num_colors))
        else:
            acc = permute_right_legs(acc, factor.perms)
    return acc


def enumerate_broken(
    max_points: int, num_colors: int, include_right_legs: bool = False
) -> list[BrokenPairPartition]:
    """All broken diagrams on at most max_points base points.

    By default only diagrams without right legs are produced: in any Gram
    matrix t_hat(d_i* . d_j) the rows of right-legged diagrams vanish
    identically, so they add nothing to a positivity check.  The order is
    fixed: by n, then matching, pair colors, the role (left colors, then
    right colors) of each single point, and leg numberings.
    """
    roles = (2 if include_right_legs else 1) * num_colors
    out: list[BrokenPairPartition] = []
    for n in range(max_points + 1):
        for match, singles in _partial_matchings(list(range(1, n + 1))):
            for pair_colors in itertools.product(range(num_colors), repeat=len(match)):
                for assignment in itertools.product(range(roles), repeat=len(singles)):
                    groups = [
                        [p for p, role in zip(singles, assignment) if role == j]
                        for j in range(2 * num_colors)
                    ]
                    for legs in itertools.product(*map(_numberings, groups)):
                        lefts, rights = legs[:num_colors], legs[num_colors:]
                        out.append(
                            BrokenPairPartition(n, num_colors, match, pair_colors, lefts, rights)
                        )
    return out


def broken_count(max_points: int, num_colors: int, include_right_legs: bool = False) -> int:
    """len(enumerate_broken(max_points, num_colors, include_right_legs)) in
    closed form.  A diagram on n points with p pairs picks its 2p paired
    points, matches and colors them, then spreads the s = n - 2p single
    points over the r leg roles and numbers each role's legs, which can be
    done in s! * C(s + r - 1, r - 1) ways."""
    if num_colors < 1:
        raise ValueError("need at least one color")
    roles = (2 if include_right_legs else 1) * num_colors
    total = 0
    for n in range(max_points + 1):
        for p in range(n // 2 + 1):
            s = n - 2 * p
            paired = math.comb(n, 2 * p) * double_factorial(2 * p - 1) * num_colors**p
            total += paired * math.factorial(s) * math.comb(s + roles - 1, roles - 1)
    return total


def _partial_matchings(points: list[int]) -> Iterator[tuple[tuple, list[int]]]:
    """Every partial matching of the points, pairs sorted by left point, with
    its single points: the first point stays single first, then pairs
    with each later point."""
    if not points:
        yield (), []
        return
    first, rest = points[0], points[1:]
    for match, singles in _partial_matchings(rest):
        yield match, [first] + singles
    for j, other in enumerate(rest):
        for match, singles in _partial_matchings(rest[:j] + rest[j + 1 :]):
            yield ((first, other),) + match, singles


def _numberings(points: Sequence[int]) -> list[Legs]:
    """Every leg numbering of the points, as legs in leg-number order.  The
    numbers are permuted, not the points: point i takes number perm[i] + 1."""
    return [_permuted(points, perm) for perm in itertools.permutations(range(len(points)))]


def _permuted(points: Sequence[int], perm: Sequence[int]) -> Legs:
    """The points with points[i] moved to position perm[i]."""
    out = [0] * len(points)
    for point, j in zip(points, perm):
        out[j] = point
    return tuple(out)
