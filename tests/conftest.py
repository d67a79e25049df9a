"""Shared test helpers: ascii word building, seeded random generators,
and source text decorated with comments."""

import random

from gridlang.grid import ELEMENT_KINDS, FILTERS, Selector, Word
from gridlang.compose import And, Comparison, Not, Or, Restriction
from gridlang.tiling import Tile, TileSystem


def W(*rows: str) -> Word:
    """Build a word from ascii rows, '.' marking empty positions.

    W("c.", ".c") is the diagonal two-cell pair of c's.
    """
    cells = [
        (r, c, ch)
        for r, line in enumerate(rows)
        for c, ch in enumerate(line)
        if ch != "."
    ]
    return Word(tuple(cells))


def random_word(rng: random.Random, size: int = 5, letters: str = "ab") -> Word:
    n = rng.randint(1, max(1, size * size // 2))
    cells = {}
    while len(cells) < n:
        cells[(rng.randrange(size), rng.randrange(size))] = rng.choice(letters)
    return Word.from_map(cells)


def random_tile_system(
    rng: random.Random, letters: str = "ab", labels: str = "01"
) -> TileSystem:
    """2 to 6 tiles over `labels`, several possibly sharing a letter, and
    one to all of the labels admissible per direction."""
    tiles = tuple(
        Tile(rng.choice(letters), *(rng.choice(labels) for _ in range(4)))
        for _ in range(rng.randint(2, 6))
    )
    ext = (frozenset(rng.sample(labels, rng.randint(1, len(labels)))) for _ in range(4))
    return TileSystem(tiles, *ext)


def random_selector(rng: random.Random) -> Selector:
    return Selector(rng.choice(ELEMENT_KINDS), rng.choice(FILTERS))


def random_restriction(rng: random.Random, depth: int = 2) -> Restriction:
    if depth == 0 or rng.random() < 0.4:
        return Comparison(random_selector(rng), rng.choice("=<>#"), random_selector(rng))
    pick = rng.randrange(4)
    if pick == 0:
        return Not(random_restriction(rng, depth - 1))
    if pick == 1:
        items = tuple(random_restriction(rng, depth - 1) for _ in range(2))
        return And(items)
    if pick == 2:
        items = tuple(random_restriction(rng, depth - 1) for _ in range(2))
        return Or(items)
    return Comparison(random_selector(rng), rng.choice("=<>#"), random_selector(rng))


def random_edits(rng: random.Random, text: str, alphabet: str, edits: int = 3) -> str:
    """Apply 1 to `edits` random insertions, replacements, deletions or
    truncations of single characters drawn from `alphabet`."""
    chars = list(text)
    for _ in range(rng.randint(1, edits)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(4)
        if op == 0:
            chars.insert(i, rng.choice(alphabet))
        elif op == 3:
            del chars[i:]
        elif i < len(chars):
            if op == 1:
                chars[i] = rng.choice(alphabet)
            else:
                del chars[i]
    return "".join(chars)


def with_comments(text: str) -> str:
    """`text` with comment lines, blank lines, indentation and end-of-line
    comments added, none of which any text format reads."""
    out = ["-- a leading comment", ""]
    for line in text.splitlines():
        out += [f" \t{line}  -- a note", "", "   -- a comment line"]
    return "\n".join(out) + "\n"
