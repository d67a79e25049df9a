"""Tile systems in two-colour notation, written apart from gridlang.

The benchmark checks the program's tile answers against this module:
`parse_two_color` reads `F<hex digits>[.<hex digit>]`, `accepts` decides
membership of one word, and `count_words` counts a language within
bounds by a transfer-matrix sweep. None of them imports gridlang.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple


class System(NamedTuple):
    tiles: dict  # letter -> (west, north, east, south) labels
    ext: tuple  # admissible labels on the west, north, east, south boundary


def parse_two_color(text: str) -> System:
    """Each hex digit is a tile named by the digit; its bits, from the
    most significant, are the west, north, east and south labels. A `.z`
    suffix narrows each boundary side to tile z's label on that side."""
    m = re.fullmatch(r"F([0-9a-f]+)(?:\.([0-9a-f]))?", text)
    if not m:
        raise ValueError(f"not two-colour notation: {text!r}")

    def bits(d: str) -> tuple:
        v = int(d, 16)
        return tuple((v >> k) & 1 for k in (3, 2, 1, 0))

    tiles = {d: bits(d) for d in m.group(1)}
    if len(tiles) != len(m.group(1)):
        raise ValueError(f"repeated tile digit in {text!r}")
    z = m.group(2)
    ext = tuple({b} for b in bits(z)) if z else tuple({0, 1} for _ in range(4))
    return System(tiles, ext)


def accepts(system: System, cells) -> bool:
    """True when the word given as (row, col, letter) cells tiles validly.

    Letters name tiles one to one, so the tiling is forced: every shared
    border must carry one label from both sides, and every border facing
    an empty position must be admissible on the boundary.
    """
    occ = {}
    for r, c, letter in cells:
        tile = system.tiles.get(letter)
        if tile is None:
            return False
        occ[(r, c)] = tile
    ext_w, ext_n, ext_e, ext_s = system.ext
    for (r, c), (w, n, e, s) in occ.items():
        west, north = occ.get((r, c - 1)), occ.get((r - 1, c))
        east, south = occ.get((r, c + 1)), occ.get((r + 1, c))
        if (w not in ext_w) if west is None else (west[2] != w):
            return False
        if (n not in ext_n) if north is None else (north[3] != n):
            return False
        if east is None and e not in ext_e:
            return False
        if south is None and s not in ext_s:
            return False
    return True


def _count_in_box(system: System, rows: int, cols: int, max_cells: int) -> int:
    """Non-empty valid fillings of a rows x cols box with <= max_cells tiles.

    Row-major sweep; a state is the label each column shows southward
    (None when empty), the label the previous cell shows eastward, and
    the number of tiles placed.
    """
    if rows <= 0 or cols <= 0:
        return 0
    ext_w, ext_n, ext_e, ext_s = system.ext
    tiles = list(system.tiles.values())
    states = {((None,) * cols, None, 0): 1}
    for k in range(rows * cols):
        c = k % cols
        last_col = c == cols - 1
        nxt: dict = {}
        for (front, east, n), mult in states.items():
            above = front[c]
            # Leave the cell empty: the borders facing it are boundary.
            if (east is None or east in ext_e) and (above is None or above in ext_s):
                key = (front[:c] + (None,) + front[c + 1:], None, n)
                nxt[key] = nxt.get(key, 0) + mult
            if n == max_cells:
                continue
            for w, no, e, s in tiles:
                if (w not in ext_w) if east is None else (w != east):
                    continue
                if (no not in ext_n) if above is None else (no != above):
                    continue
                if last_col and e not in ext_e:
                    continue
                key = (front[:c] + (s,) + front[c + 1:], None if last_col else e, n + 1)
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
    return sum(
        mult
        for (front, _, n), mult in states.items()
        if n and all(s is None or s in ext_s for s in front)
    )


def count_words(system: System, rows: int, cols: int, max_cells: int) -> int:
    """Words of the language whose bounding box fits rows x cols and that
    have at most max_cells cells.

    Letters name tiles one to one, so words and fillings correspond.
    A normalized word touches row 0 and column 0; inclusion-exclusion over
    the boxes that leave out the first row or column counts exactly those.
    """
    f = lambda r, c: _count_in_box(system, r, c, max_cells)
    return f(rows, cols) - f(rows - 1, cols) - f(rows, cols - 1) + f(rows - 1, cols - 1)


if __name__ == "__main__":
    spec, r, c, n = sys.argv[1], *map(int, sys.argv[2:5])
    print(count_words(parse_two_color(spec), r, c, n))
