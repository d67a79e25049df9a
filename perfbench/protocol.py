"""Runs of the lossy-channel protocol, generated as scenario files.

Each run follows the worked scenario of the packaged protocol library:
one row per datum (sender SK, channel CY or CN, receiver RK), an
end-of-stream row (SEnd, CY, REnd), one re-send row (SR, CY, RKR) when a
datum was corrupted, the End row that starts the OS column, and one more
OS row per further datum. Feedback wires carry REnd's and RKR's east
borders to the next row's sender cell.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Stream letters avoid the library's variable names (i, j, n, x, y).
LETTERS = "abcdefghklmopqrstuvwz"
MUTANT = "zz"  # no generated border carries this symbol

E = "_"


def fmt(d) -> str:
    """Scenario text of a datum: '_', a symbol or number, a pair, a set."""
    if isinstance(d, tuple):
        return f"({fmt(d[0])},{fmt(d[1])})"
    if isinstance(d, frozenset):
        return "{" + ",".join(sorted(fmt(x) for x in d)) + "}"
    return str(d)


class Run(NamedTuple):
    stream: str  # the data, in index order
    cells: dict  # (row, col) -> [module, west, north, east, south]
    wires: tuple  # ((row, col), (row, col)): east border -> west border


def make_run(stream: str, corrupted: int = 0) -> Run:
    """The run of `stream`; `corrupted` is the 1-based index of the one
    datum the channel corrupts, 0 for none."""
    n = len(stream)
    cells: dict = {}
    kept = frozenset()  # what the sender keeps: {(i, x)}
    missing, got = frozenset(), frozenset()  # receiver state (U, V)
    for r, x in enumerate(stream):
        i = r + 1
        before = kept
        kept = kept | {(i, x)}
        cells[(r, 0)] = ["SK", x, (i - 1, before), (i, x), (i, kept)]
        if i == corrupted:
            cells[(r, 1)] = ["CN", (i, x), E, (i, "?"), E]
            cells[(r, 2)] = ["RK", (i, "?"), (missing, got), E, (missing | {i}, got)]
            missing = missing | {i}
        else:
            cells[(r, 1)] = ["CY", (i, x), E, (i, x), E]
            cells[(r, 2)] = ["RK", (i, x), (missing, got), E, (missing, got | {(i, x)})]
            got = got | {(i, x)}
    r = n
    cells[(r, 0)] = ["SEnd", E, (n, kept), (n, "end"), kept]
    cells[(r, 1)] = ["CY", (n, "end"), E, (n, "end"), E]
    wires = [((r, 2), (r + 1, 0))]
    if corrupted:
        k, xk = corrupted, stream[corrupted - 1]
        cells[(r, 2)] = ["REnd", (n, "end"), (missing, got), k, (frozenset(), got)]
        r += 1
        cells[(r, 0)] = ["SR", k, kept, (k, xk), kept]
        cells[(r, 1)] = ["CY", (k, xk), E, (k, xk), E]
        cells[(r, 2)] = ["RKR", (k, xk), (frozenset(), got), "OK", got | {(k, xk)}]
        wires.append(((r, 2), (r + 1, 0)))
    else:
        cells[(r, 2)] = ["REnd", (n, "end"), (missing, got), "OK", got]
    r += 1
    cells[(r, 0)] = ["End", "OK", kept, E, E]
    cells[(r, 1)] = ["0", E, E, E, E]
    rest = kept
    for i, x in enumerate(stream, 1):
        north = rest
        rest = rest - {(i, x)}
        cells[(r, 2)] = ["OS", E, north, x, rest]
        r += 1
    return Run(stream, cells, tuple(wires))


def scenario_text(run: Run, mutation=None) -> str:
    """The run as scenario text; `mutation` = (pos, side) replaces that
    one border of that one cell with a symbol no run carries."""
    lines = []
    for (r, c), (module, *borders) in sorted(run.cells.items()):
        texts = [fmt(d) for d in borders]
        if mutation is not None and mutation[0] == (r, c):
            texts["wnes".index(mutation[1])] = MUTANT
        w, n, e, s = texts
        lines.append(f"cell ({r},{c}) {module}: <{w} | {n}> -> <{e} | {s}>")
    for (r, c), (r2, c2) in run.wires:
        lines.append(f"wire ({r},{c}).e -> ({r2},{c2}).w")
    return "\n".join(lines) + "\n"


def emitted(run: Run) -> str:
    """The OS column's east borders, top to bottom."""
    return "".join(
        cell[3] for (r, c), cell in sorted(run.cells.items()) if cell[0] == "OS"
    )


def allowed_flags(run: Run, pos, side: str) -> set:
    """Cells a validator may flag for a mutation of one border: the
    mutated cell, its neighbour across that border, and the far end of a
    wire attached to it."""
    r, c = pos
    step = {"w": (0, -1), "n": (-1, 0), "e": (0, 1), "s": (1, 0)}[side]
    out = {pos}
    other = (r + step[0], c + step[1])
    if other in run.cells:
        out.add(other)
    for src, dst in run.wires:
        if side == "e" and src == pos:
            out.add(dst)
        if side == "w" and dst == pos:
            out.add(src)
    return out


def random_run(rng: random.Random, n: int, corrupt: bool) -> Run:
    stream = "".join(rng.choice(LETTERS) for _ in range(n))
    return make_run(stream, rng.randint(1, n) if corrupt else 0)
