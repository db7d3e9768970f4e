"""Words in colored creation/annihilation letters and their combinatorics.

A letter carries a color id b in {0, 1}, a basis index i >= 1, and a kind
k which is "a" (annihilator) or "a*" (creator), matching the JSON wire
format [{"b": 0, "i": 1, "k": "a*"}, ...].  Words are read left to right as
operator products, so the rightmost letter acts first on the vacuum.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .partitions import ColoredPairPartition, PairPartition, _is_int, _matchings

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
    """The letters as a word; ValueError for an item that is no Letter
    (such as a plain tuple, a string or None), a kind not 'a' or 'a*', or a
    color id or basis index that is not an int in range (bools refused)."""
    w = tuple(letters)
    try:
        for let in w:
            if let.k not in (ANNIHILATE, CREATE):
                raise ValueError(f"letter kind must be 'a' or 'a*', got {let.k!r}")
            if type(let.b) is not int or let.b not in (0, 1):
                raise ValueError("color id must be 0 or 1")
            if type(let.i) is not int or let.i < 1:
                raise ValueError("basis index must be an int >= 1")
    except AttributeError:
        # an item without the fields b, i and k; caught around the loop, so
        # a word of Letters pays nothing for the check
        raise ValueError(f"a word's letters must be Letter(b, i, k), got {let!r}") from None
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
    """All colored pair partitions compatible with the word, in the order of
    `partitions._matchings` (each sorted by left point).

    A pair (l, r) with l < r requires an annihilator at l and a creator at
    r with equal colors and equal basis indices; the pair inherits that
    color.  Empty for odd length or unbalanced words, and for words that
    start with a creator or end with an annihilator.  Letters given in any
    other sequence than a tuple, such as a list, are read through `word`.
    """
    if not isinstance(w, tuple):
        w = word(w)
    if len(w) % 2 or w and (w[0].k == CREATE or w[-1].k == ANNIHILATE):
        return []
    # an annihilator opens a pair that its creator closes
    opens = [None] + [(let.b, let.i, CREATE) if let.k == ANNIHILATE else None for let in w]
    return [
        ColoredPairPartition(PairPartition(pairs), tuple(w[l - 1].b for l, _ in pairs), 2)
        for pairs in _matchings(opens, (None,) + w)
    ]


def compatible_count(w: Word) -> int:
    """len(compatible_partitions(w)) in closed form: the product, over the
    creators read left to right, of the still-unmatched earlier annihilators
    of the same color and index; 0 unless every (color, index) balances."""
    unmatched: dict[tuple[int, int], int] = {}
    count = 1
    for let in w:
        key = (let.b, let.i)
        opened = unmatched.get(key, 0)
        if let.k == CREATE:
            if not opened:
                return 0
            count *= opened
            unmatched[key] = opened - 1
        else:
            unmatched[key] = opened + 1
    return 0 if any(unmatched.values()) else count


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
