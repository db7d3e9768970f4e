"""Words in colored creation/annihilation letters and their combinatorics.

A letter carries a color id b in {0, 1}, a basis index i >= 1, and a kind
k which is "a" (annihilator) or "a*" (creator), matching the JSON wire
format [{"b": 0, "i": 1, "k": "a*"}, ...].  Words are read left to right as
operator products, so the rightmost letter acts first on the vacuum.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .partitions import ColoredPairPartition, _is_int

ANNIHILATE = "a"
CREATE = "a*"


class Letter(NamedTuple):
    b: int
    i: int
    k: str


def create(b: int, i: int) -> Letter:
    return Letter(b, i, CREATE)


def annihilate(b: int, i: int) -> Letter:
    return Letter(b, i, ANNIHILATE)


Word = tuple[Letter, ...]


def word(letters: Iterable[Letter]) -> Word:
    w = tuple(letters)
    for let in w:
        if let.k not in (ANNIHILATE, CREATE):
            raise ValueError(f"letter kind must be 'a' or 'a*', got {let.k!r}")
        if let.b not in (0, 1):
            raise ValueError("color id must be 0 or 1")
        if let.i < 1:
            raise ValueError("basis index must be >= 1")
    return w


def adjoint(w: Word) -> Word:
    """The word A*: reversed order, creators and annihilators swapped."""
    return tuple(
        Letter(let.b, let.i, CREATE if let.k == ANNIHILATE else ANNIHILATE)
        for let in reversed(w)
    )


def word_profile(w: Word) -> dict[tuple[int, int], int]:
    """Creator count minus annihilator count per (color, index)."""
    out: dict[tuple[int, int], int] = {}
    for let in w:
        key = (let.b, let.i)
        out[key] = out.get(key, 0) + (1 if let.k == CREATE else -1)
    return {k: v for k, v in out.items() if v != 0}


def profile_weight(w: Word, b: int) -> int:
    """Sum of the profile over all indices of color b."""
    return sum(v for (bb, _), v in word_profile(w).items() if bb == b)


def compatible_partitions(w: Word) -> list[ColoredPairPartition]:
    """All colored pair partitions compatible with the word.

    A pair (l, r) with l < r requires an annihilator at l and a creator at
    r with equal colors and equal basis indices; the pair inherits that
    color.  Empty for odd length or unbalanced words.
    """
    n = len(w)
    if n % 2:
        return []
    out: list[ColoredPairPartition] = []
    pairs: list[tuple[int, int]] = []

    def rec(free: list[int]):
        if not free:
            out.append(
                ColoredPairPartition.of(
                    list(pairs), [w[l - 1].b for l, _ in pairs], num_colors=2
                )
            )
            return
        l = free[0]
        if w[l - 1].k != ANNIHILATE:
            return
        for j in range(1, len(free)):
            r = free[j]
            let_l, let_r = w[l - 1], w[r - 1]
            if let_r.k == CREATE and let_r.b == let_l.b and let_r.i == let_l.i:
                pairs.append((l, r))
                rec(free[1:j] + free[j + 1 :])
                pairs.pop()

    rec(list(range(1, n + 1)))
    return out


def canonical_word(p: ColoredPairPartition) -> Word:
    """The standard word whose only compatible structure is p itself:
    left points become annihilators, right points creators, the basis index
    of both letters of a pair is the pair's 1-based canonical ordinal."""
    letters = [None] * p.size
    for j, ((l, r), c) in enumerate(zip(p.base.pairs, p.colors), start=1):
        letters[l - 1] = annihilate(c, j)
        letters[r - 1] = create(c, j)
    return word(letters)


def word_to_json(w: Word) -> list[dict]:
    return [{"b": let.b, "i": let.i, "k": let.k} for let in w]


def word_from_json(obj) -> Word:
    """Read [{"b": int, "i": int, "k": str}, ...]; any other shape raises
    ValueError."""
    if not isinstance(obj, list) or not all(
        isinstance(d, dict)
        and _is_int(d.get("b"))
        and _is_int(d.get("i"))
        and isinstance(d.get("k"), str)
        for d in obj
    ):
        raise ValueError("a word must be a list of {'b': int, 'i': int, 'k': str} letters")
    return word(Letter(d["b"], d["i"], d["k"]) for d in obj)
