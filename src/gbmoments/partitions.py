"""Pair partitions of [2m], colorings, crossings and cycle decomposition.

Points are 1-based everywhere in the public API.  A pair partition is stored
in canonical form: pairs (l, r) with l < r, sorted by l.  Colors are 0-based
integers; when a two-element color set {-1, 1} is meant, color id 0 stands
for -1 and color id 1 for +1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

MAX_ENUM_PAIRS = 8
# Python prints no integer of more than this many digits; a rational read
# from text may have no more digits, nor an exponent of larger magnitude
MAX_VALUE_DIGITS = 4300


class CapacityError(Exception):
    """Requested computation exceeds the configured exact-arithmetic budget."""


class ColorArityError(Exception):
    """Operation is only defined for two-colored pair partitions."""


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass lists its attributes in `__slots__` and sets them through
    `_assign` only, which calls the slots' own setters (the member
    descriptors' `__set__`, kept per class in `_setters`) past the refusing
    `__setattr__`; after that, assignment and deletion raise
    AttributeError.  The default `__init__` takes one value per slot, in
    order (a wrong count raises ValueError); a subclass that validates or
    fills memo slots writes its own.  The slots not named with a leading
    underscore are the value's fields, in order: two values are equal when
    they are of the same class and their fields are equal, a value hashes
    as the tuple of its fields, its repr is `Class(field=value, ...)`, and
    pickling rebuilds it from its fields.  Underscore slots hold memos and
    take part in none of these.  No subclass overrides these methods.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        self._assign(*values)

    def _assign(self, *values):
        """Set the slots, in order, to values; for use in __init__."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{self.__class__.__qualname__} takes {len(setters)} values, got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which takes the fields
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PairPartition(FrozenValue):
    """A partition of {1, ..., 2m} into m pairs, canonically ordered."""

    __slots__ = ("pairs",)
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        _check_layout(pairs, 2 * len(pairs))
        self._assign(pairs)

    @classmethod
    def of(cls, pairs: Iterable[Sequence[int]]) -> "PairPartition":
        """Build from any iterable of pairs of two ints, canonicalizing
        order; any other pair raises ValueError."""
        canon = tuple(sorted(map(_ordered, pairs)))
        return cls(canon)

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def split(self, ids: Sequence[int], count: int) -> list["PairPartition"]:
        """Every class of pairs at once: class b holds the pairs j with
        ids[j] == b, in their order here, points relabeled
        order-preservingly to 1..2s.  One pass over the points numbers each
        point within its class; each class comes from `_class_of`, so equal
        classes are one object, built and checked by the validating
        constructor on a miss.  ValueError unless count is an int >= 0 and
        ids holds one int in [0, count) per pair."""
        if not (type(count) is int and count >= 0):
            raise ValueError(f"the class count must be an integer >= 0, got {count!r}")
        _check_ids(ids, self.m, count)
        # label[k] is first k's class, then k's number among its points
        label = [0] * (self.size + 1)
        for (l, r), b in zip(self.pairs, ids):
            label[l] = label[r] = b
        seen = [0] * count
        for k in range(1, len(label)):
            b = label[k]
            seen[b] += 1
            label[k] = seen[b]
        classes: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for (l, r), b in zip(self.pairs, ids):
            classes[b].append((label[l], label[r]))
        return [_class_of(tuple(pairs)) for pairs in classes]

    def to_json(self) -> dict:
        return {"m": self.m, "pairs": [list(p) for p in self.pairs]}


# the classes of `PairPartition.split`, one object per distinct class: the
# weight path splits many partitions into few classes, and the q-product's
# memoized layouts share them; keyed only by the int pairs split builds, and
# bounded as moments._graph_exponent is
_class_of = lru_cache(maxsize=4096)(PairPartition)


class ColoredPairPartition(FrozenValue):
    """A pair partition plus one color id per pair (aligned to canonical order)."""

    __slots__ = ("base", "colors", "num_colors")
    base: PairPartition
    colors: tuple[int, ...]
    num_colors: int

    def __init__(self, base: PairPartition, colors: tuple[int, ...], num_colors: int = 2):
        _check_colors(colors, base.m, num_colors)
        self._assign(base, colors, num_colors)

    @classmethod
    def of(cls, pairs, colors, num_colors: int = 2) -> "ColoredPairPartition":
        """Build from unsorted pairs of two ints; colors given in the order
        of `pairs`, one per pair."""
        tagged = ((_ordered(p), c) for p, c in zip(pairs, colors, strict=True))
        canon, canon_colors = _sorted_pairs(tagged)
        return cls(PairPartition(canon), canon_colors, num_colors)

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def size(self) -> int:
        return self.base.size

    def to_json(self) -> dict:
        d = self.base.to_json()
        d["colors"] = list(self.colors)
        d["num_colors"] = self.num_colors
        return d


def _check_layout(pairs: Sequence[tuple[int, int]], n: int, singles: Sequence[int] = ()):
    """Raise ValueError unless the pairs (l, r), left points strictly
    increasing and 1 <= l < r <= n, and the single points together use each
    point of 1..n exactly once.  A point must be an int, not a bool, and the
    pairs a tuple of 2-tuples, so that the value holding them hashes."""
    if type(pairs) is not tuple:
        raise ValueError(f"the pairs must be a tuple, got {type(pairs).__name__}")
    # the count is checked first, so a huge n allocates nothing
    if type(n) is not int or 2 * len(pairs) + len(singles) != n:
        raise ValueError(f"pairs and single points must use each point of 1..{n} once")
    free = [True] * (n + 1)
    last = 0
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            raise ValueError(f"each pair must be a tuple (l, r), got {pair!r}")
        l, r = pair
        if not (type(l) is int and type(r) is int and last < l < r <= n and free[l] and free[r]):
            raise ValueError(f"bad pair ({l!r},{r!r}): need unused integer points, sorted by l, l < r <= {n}")
        free[l] = free[r] = False
        last = l
    for k in singles:
        if not (type(k) is int and 1 <= k <= n and free[k]):
            raise ValueError(f"single point {k!r} must be an unused integer point in 1..{n}")
        free[k] = False


def _check_colors(colors: Sequence[int], m: int, num_colors: int):
    """Raise ValueError unless num_colors is an int >= 1 and there is one
    color per pair, each an int in [0, num_colors), in a tuple, so that the
    value holding them hashes; bools are refused."""
    if type(colors) is not tuple:
        raise ValueError(f"the colors must be a tuple, got {type(colors).__name__}")
    if not (type(num_colors) is int and num_colors >= 1):
        raise ValueError(f"num_colors must be an integer >= 1, got {num_colors!r}")
    _check_ids(colors, m, num_colors)


def _check_ids(ids: Sequence[int], m: int, count: int):
    """Raise ValueError unless there is one id per pair, each an int in
    [0, count); bools are refused."""
    if len(ids) != m:
        raise ValueError("need exactly one color per pair")
    for c in ids:
        if not (type(c) is int and 0 <= c < count):
            raise ValueError("color ids must be integers in [0, num_colors)")


def _check_permutation(perm: Sequence[int]):
    """Raise ValueError unless perm is a one-line permutation of ints (not bools)."""
    if any(type(j) is not int for j in perm) or sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation of ints in one-line notation")


def _ordered(pair) -> tuple[int, int]:
    """The pair (l, r), l <= r, of two ints (not bools) in either order;
    anything else, a triple or a lone int included, raises ValueError."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValueError(f"each pair must be two integers, got {pair!r}") from None
    if not (_is_int(a) and _is_int(b)):
        raise ValueError(f"each pair must be two integers, got {pair!r}")
    return (a, b) if a < b else (b, a)


def _sorted_pairs(tagged: Iterable) -> tuple[tuple, tuple]:
    """(pairs, colors) of the (pair, color) items, sorted by left point."""
    return tuple(zip(*sorted(tagged))) or ((), ())


def too_long(text: str) -> bool:
    """Whether a rational's text has more than MAX_VALUE_DIGITS digits, or
    an exponent of larger magnitude, judged before Fraction builds
    10^|exponent| from it."""
    if sum(map(str.isdecimal, text)) > MAX_VALUE_DIGITS:
        return True
    try:
        return abs(int(text.lower().partition("e")[2] or 0)) > MAX_VALUE_DIGITS
    except ValueError:  # a malformed exponent, which Fraction refuses
        return False


def read_scalar(x) -> Fraction | float:
    """A float as it is, anything else as an exact Fraction: ValueError when
    malformed or the denominator is zero, CapacityError when too_long."""
    if isinstance(x, float):
        return x
    if isinstance(x, str) and too_long(x):
        raise CapacityError(f"a rational of more than {MAX_VALUE_DIGITS} digits or exponent")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n(n) -> None:
    """ValueError unless N is a nonzero int (bools and other int subclasses refused)."""
    if type(n) is not int:
        raise ValueError(f"N must be an int, got {n!r}")
    if n == 0:
        raise ValueError("N must be nonzero")


def pair_partition_from_json(obj) -> PairPartition:
    """Read {"pairs": [[l, r], ...]}; any other shape raises ValueError."""
    return PairPartition.of(_json_pairs(obj))


def _json_pairs(obj) -> list:
    """The "pairs" list of a JSON object, each pair checked by `_ordered`
    where it is read."""
    pairs = obj.get("pairs") if isinstance(obj, dict) else None
    if not isinstance(pairs, list):
        raise ValueError("a partition must be an object with a 'pairs' list")
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
    return ColoredPairPartition(base, tuple(colors), num_colors)


def double_factorial(n: int) -> int:
    """n!! for odd n (with (-1)!! = 1)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# enumerations hold at most (2 * MAX_ENUM_PAIRS - 1)!! partitions
MAX_ENUM_PARTITIONS = double_factorial(2 * MAX_ENUM_PAIRS - 1)


def _matchings(opens: Sequence, closes: Sequence) -> list[tuple[tuple[int, int], ...]]:
    """The perfect matchings of 1..len(opens)-1 whose pairs (l, r) have
    opens[l] is not None and closes[r] == opens[l] (index 0 is unused), each
    as its pairs sorted by l.  The smallest free point is paired with each
    allowed partner in ascending order, depth first and without recursion,
    so a word of any depth is matched: the free points form a doubly linked
    list (nxt, prv; sentinels 0 and n + 1), a pair taken is unlinked, and
    relinked in reverse order on the way back."""
    end = len(opens)
    nxt, prv = list(range(1, end + 1)), list(range(-1, end))
    out: list[tuple[tuple[int, int], ...]] = []
    pairs: list[tuple[int, int]] = []
    descend = True
    while True:
        if descend:
            l = nxt[0]
            if l == end:
                out.append(tuple(pairs))
            r = nxt[l] if l < end and opens[l] is not None else end
        while r < end and closes[r] != opens[l]:
            r = nxt[r]
        descend = r < end
        if descend:
            pairs.append((l, r))
            nxt[prv[l]], prv[nxt[l]] = nxt[l], prv[l]
            nxt[prv[r]], prv[nxt[r]] = nxt[r], prv[r]
        elif not pairs:
            return out
        else:
            # back up: relink the last pair, then try l's next partner
            l, r = pairs.pop()
            nxt[prv[r]] = prv[nxt[r]] = r
            nxt[prv[l]] = prv[nxt[l]] = l
            r = nxt[r]


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
    # m is bounded first, so a huge m costs no double factorial
    if m > MAX_ENUM_PAIRS or double_factorial(2 * m - 1) * k**m > MAX_ENUM_PARTITIONS:
        raise CapacityError(f"colored enumeration limited to {MAX_ENUM_PARTITIONS} partitions")
    bases = enumerate_pair_partitions(m)
    return [
        ColoredPairPartition(base, coloring, k)
        for base in bases
        for coloring in itertools.product(range(k), repeat=m)
    ]


def crossings(
    v: PairPartition,
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All ordered pairs of pairs ((l1,r1),(l2,r2)) with l1 < l2 < r1 < r2,
    in lexicographic order: `_crossing_indices` read as pairs."""
    pairs = v.pairs
    return [(pairs[j], pairs[k]) for j, k in _crossing_indices(pairs)]


def _crossing_indices(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The crossings (j, k), j < k, l_j < l_k < r_j < r_k, of pairs sorted
    by left point, in lexicographic order: the one crossing walk.  Pair j
    meets no pair k from the first one with l_k > r_j on, so its scan stops
    there."""
    out = []
    for j, (_, r1) in enumerate(pairs):
        for k in range(j + 1, len(pairs)):
            l2, r2 = pairs[k]
            if l2 > r1:
                break
            if r2 > r1:
                out.append((j, k))
    return out


def _hat_successors(v: PairPartition) -> list[int]:
    """succ[j], the pair whose right point the noncrossing hat joins to pair
    j's left point.  Left points open in pair order, and a right point closes
    the last one opened; the one hat matcher, for `noncrossing_hat` and `uncolored_cycles`."""
    closer = [-1] * (v.size + 1)
    for j, (_, r) in enumerate(v.pairs):
        closer[r] = j
    succ = [0] * v.m
    stack: list[int] = []
    opened = 0
    for j in closer[1:]:
        if j < 0:
            stack.append(opened)
            opened += 1
        else:
            succ[stack.pop()] = j
    return succ


def noncrossing_hat(v: PairPartition) -> PairPartition:
    """The unique noncrossing pair partition with the same left points as v:
    each left point with the right point `_hat_successors` joins it to."""
    hat = zip(v.pairs, _hat_successors(v))
    return PairPartition(tuple((l, v.pairs[k][1]) for (l, _), k in hat))


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
    that (l_i, r_{i+1 mod s}) lies in the noncrossing hat of v: the cycles
    of the hat's successor map `_hat_successors`, walked by `_walk_cycles`.
    """
    cycles = [tuple(v.pairs[j] for j in cyc) for cyc in _walk_cycles(_hat_successors(v))]
    rho: dict[int, int] = {}
    for cyc in cycles:
        rho[len(cyc)] = rho.get(len(cyc), 0) + 1
    return cycles, rho
