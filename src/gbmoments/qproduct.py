"""Crossing-weighted products of moment weights and the averaging limit.

The q-product multiplies per-color weights by a factor q[c(p), c(p')] for
every crossing of the colored partition.  Averaging the n-fold product of
one weight over all colorings, with the matrix extended periodically,
converges to a pure crossing kernel; both sides are computed exactly here
so convergence rates can be asserted as rational identities.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

# bench/tracing.py BOUNDARIES and bench/workloads.py call the Gram check by this name
from .broken import gram_psd_check  # noqa: F401
from .moments import Scalar, TFunction, UncoloredTFunction
from .partitions import (
    MAX_ENUM_PAIRS,
    CapacityError,
    ColoredPairPartition,
    FrozenValue,
    PairPartition,
    _check_n,
    _crossing_indices,
    _is_int,
    _walk_cycles,
    read_scalar,
)

# t_q_star_n sums at most this many (kernel, residue) terms, each standing
# for at least one coloring; m = 8 pairs with a 2x2 matrix is 89,918 terms
MAX_COLORING_SUMS = 100_000


class QMatrix(FrozenValue):
    """Symmetric matrix of coupling constants in [-1, 1]."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Scalar, ...], ...]

    def __init__(self, entries: tuple[tuple[Scalar, ...], ...]):
        k = len(entries)
        for row in entries:
            if len(row) != k:
                raise ValueError("matrix must be square")
        for i in range(k):
            for j in range(k):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix must be symmetric")
                if not -1 <= entries[i][j] <= 1:
                    raise ValueError("entries must lie in [-1, 1]")
        self._assign(entries)

    @classmethod
    def of(cls, rows: Sequence[Sequence]) -> "QMatrix":
        """From a list of row lists whose entries are "p/q" strings, floats,
        Fractions or ints (not bools); any other shape raises ValueError."""
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("a coupling matrix must be a list of row lists")
        for x in (x for row in rows for x in row):
            if not (isinstance(x, (str, float, Fraction)) or _is_int(x)):
                raise ValueError(f"bad coupling entry {x!r}")
        return cls(tuple(tuple(read_scalar(x) for x in row) for row in rows))

    @classmethod
    def constant(cls, size: int, q: Scalar) -> "QMatrix":
        """The matrix with every entry equal to q."""
        q = read_scalar(q)
        return cls(((q,) * size,) * size)

    @property
    def size(self) -> int:
        return len(self.entries)

    def at(self, i: int, j: int) -> Scalar:
        """Entry for 0-based color ids."""
        return self.entries[i][j]


def q_product_eval(
    ts: Sequence[UncoloredTFunction], q: QMatrix, p: ColoredPairPartition
) -> Scalar:
    """Crossing product times the per-color component weights: the
    factors q[c(j), c(k)] in the order `_crossing_indices` walks the
    crossings, then the classes' weights in color order."""
    if len(ts) != p.num_colors or q.size != p.num_colors:
        raise ValueError("need one component weight per color and a matching matrix")
    value: Scalar = Fraction(1)
    colors, rows = p.colors, q.entries
    for j1, j2 in _crossing_indices(p.base.pairs):
        value *= rows[colors[j1]][colors[j2]]
    for t, v in zip(ts, p.base.split(p.colors, p.num_colors)):
        value *= t(v)
    return value


def q_product_handle(ts: Sequence[UncoloredTFunction], q: QMatrix) -> TFunction:
    return lambda p: q_product_eval(ts, q, p)


def _kernels(m: int) -> list[tuple[tuple[int, ...], int]]:
    """Every set partition of the pairs 0..m-1 as class ids in order of
    first use, with its class count."""
    kernels: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(m):
        kernels = [(ids + (b,), max(used, b + 1)) for ids, used in kernels for b in range(used + 1)]
    return kernels


def _residue_counts(m: int, sizes: Sequence[int]) -> list[int]:
    """For each length b <= m, how many residue tuples of length b use each
    residue r at most sizes[r] times (an exponential generating function)."""
    ways = [1] + [0] * m  # ways[b]: such tuples over the residues so far
    for s in sizes:
        ways = [sum(math.comb(b, j) * ways[b - j] for j in range(min(s, b) + 1))
                for b in range(m + 1)]
    return ways


def t_q_star_n(
    t: UncoloredTFunction, q_base: QMatrix, n: int, v: PairPartition
) -> Scalar:
    """Coloring-averaged n-fold product with the periodically extended matrix:
    n^-|V| sum over colorings of (crossing product) * (per-class weights).

    A coloring enters only through its kernel (which pairs share a color)
    and each class's color residue mod K = q_base.size, so the sum runs over
    kernels and the residue assignments shared by a nonzero number of
    colorings, prod_r perm(n_r, #classes with residue r) with n_r colors of
    residue r; there are never more terms than colorings.  A kernel fixes
    once its crossings' class pairs (a, b) and class weights; a term is the
    product of q_base[res[a], res[b]] and them, in q_product_eval's order.
    A kernel with a class of weight 0 has only zero terms, so it is skipped.
    ValueError unless n >= 1 is an int (not a bool).
    """
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1 or q_base.size < 1:
        raise ValueError("n and the matrix size must be positive")
    if v.m > MAX_ENUM_PAIRS:
        raise CapacityError(f"coloring sums limited to m <= {MAX_ENUM_PAIRS}")
    k, kernels = q_base.size, _kernels(v.m)
    sizes = [(n - 1 - r) // k + 1 for r in range(k)]  # colors c <= n, c = r + 1 mod k
    ways = _residue_counts(v.m, sizes)
    if sum(ways[blocks] for _, blocks in kernels) > MAX_COLORING_SUMS:
        raise CapacityError(f"coloring sum exceeds {MAX_COLORING_SUMS} terms")
    # residues[b]: those tuples of length b, in lexicographic order
    residues: list[list[tuple[int, ...]]] = [[()]]
    for _ in range(v.m):
        residues.append([res + (r,) for res in residues[-1] for r in range(k)
                         if res.count(r) < sizes[r]])
    cross, rows = _crossing_indices(v.pairs), q_base.entries
    total: Scalar = Fraction(0)
    for ids, blocks in kernels:
        if not residues[blocks]:
            continue
        links = [(ids[j1], ids[j2]) for j1, j2 in cross]
        weights = [t(c) for c in v.split(ids, blocks)]
        if not all(weights):
            continue
        for res in residues[blocks]:
            term = math.prod([rows[res[a]][res[b]] for a, b in links] + weights, start=Fraction(1))
            if term:
                count = math.prod(math.perm(sizes[r], res.count(r)) for r in set(res))
                total += Fraction(count, n**v.m) * term
    return total


def t_q_limit(q_base: QMatrix, v: PairPartition) -> Scalar:
    """The limit kernel: N^-|V| sum over colorings into the base colors of
    the crossing product alone, which is t_q_star_n of the weight 1 at n = N."""
    return t_q_star_n(lambda _: 1, q_base, q_base.size, v)


def clt_error_curve(
    t: UncoloredTFunction,
    q_base: QMatrix,
    v: PairPartition,
    n_values: Sequence[int],
) -> list[tuple[int, Scalar]]:
    """|averaged n-fold product - limit kernel| for each requested n."""
    limit = t_q_limit(q_base, v)
    return [(n, abs(t_q_star_n(t, q_base, n, v) - limit)) for n in n_values]


def clt_error_bound(m: int, n: int) -> Fraction:
    """2 (1 - perm(n, m) / n^m), which bounds |t_q_star_n - t_q_limit| at m
    pairs whenever K = q_base.size divides n and |t| <= 1 (free, t_N, Thoma).
    Then the residues of a uniform coloring are iid uniform on the K base
    colors, the law the limit averages over.  An injective coloring, of
    probability perm(n, m) / n^m, has one-pair classes of weight 1, so its
    term is the limit's term; any other term differs from the limit's by at
    most 2, as |t| <= 1 and |q_ij| <= 1.  ValueError unless m >= 0 and
    n >= 1 are ints (not bools)."""
    if not (_is_int(m) and _is_int(n) and m >= 0 and n >= 1):
        raise ValueError(f"need integers m >= 0 and n >= 1, got m={m!r}, n={n!r}")
    return 2 * (1 - Fraction(math.perm(n, m), n**m))


def _stirling_unsigned(n: int) -> list[int]:
    """Row n of the unsigned cycle-count triangle: coefficients of
    x(x+1)...(x+n-1)."""
    row = [1]  # n = 0
    for size in range(n):
        new = [0] * (len(row) + 1)
        for k, val in enumerate(row):
            new[k] += size * val
            new[k + 1] += val
        row = new
    return row


def stirling_check(n: int) -> tuple[int, bool]:
    """Sum of N^(cycle count) over all permutations of 1..|N|+1, computed by
    enumeration and through the rising-factorial identity; both must agree
    and vanish.  ValueError unless N is a negative int (not a bool)."""
    _check_n(n)
    if n >= 0:
        raise ValueError("the cancellation holds for negative N")
    if -n > 7:
        raise CapacityError("factorial budget limited to |N| <= 7")
    degree = -n + 1
    by_enum = sum(
        n ** len(_walk_cycles(perm))
        for perm in itertools.permutations(range(degree))
    )
    row = _stirling_unsigned(degree)
    by_identity = sum(coef * n**k for k, coef in enumerate(row))
    rising = 1
    for j in range(degree):
        rising *= n + j
    if not by_enum == by_identity == rising:
        raise RuntimeError("enumeration, Stirling row and rising factorial disagree")
    return by_enum, by_enum == 0
