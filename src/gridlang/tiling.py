"""Tiles, self-assembling tile systems, scenarios, and bounded enumeration.

A tile is a letter with a label on each border. A tile system pairs a
finite tile set with admissible label sets for external borders (borders
not shared with another occupied cell). A scenario is a tile-valued
word; it is valid when adjacent cells agree on shared border labels and
accepting when every external border carries an admissible label. The
language of a system is the set of letter words obtained by stripping
accepting scenarios.

Every bounded question about a language walks an R x C box cell by cell
in row-major order, choosing a letter or leaving the cell empty, and
tracks the frontier: the set of border profiles the choices so far can
leave open. One transition, _step, matches borders and checks boundary
labels. Enumeration and witness search drive it depth first one row at
a time, reading each row's fillings from a table built once per row,
start state and cells left; counting drives it as a dynamic program over
frontiers, and acceptance drives it with every choice fixed by the word.
Words come out in normalized position because row 0 and column 0 must be
occupied.

Labels are strings throughout. The two-color notation packs a 2-label
system into hex digits: tile digit d has borders (w, n, e, s) spelled
by the bits of d from high to low, and the optional trailing digit
fixes the single admissible external label per direction the same way.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from .grid import (
    FILLER,
    Bounds,
    Budget,
    BudgetExhausted,
    Pos,
    Word,
    _good_letter,
    normalize,
    record,
    render_ascii,
    source_lines,
    word_sort_key,
)


@record
class Tile:
    """A letter with west, north, east, south border labels."""

    letter: str
    west: str
    north: str
    east: str
    south: str

    def __post_init__(self) -> None:
        if not _good_letter(self.letter):
            raise ValueError(f"bad tile letter {self.letter!r}")
        for side in (self.west, self.north, self.east, self.south):
            # '--' would start a comment in the text format.
            if not isinstance(side, str) or not side or "--" in side or any(
                ch.isspace() or ch in "{},=" for ch in side
            ):
                raise ValueError(f"bad border label {side!r}")

    def key(self) -> tuple[str, str, str, str, str]:
        return (self.letter, self.west, self.north, self.east, self.south)


@record
class TileSystem:
    """A self-assembling tile system: tiles plus external label sets."""

    tiles: tuple[Tile, ...]
    external_west: frozenset[str]
    external_north: frozenset[str]
    external_east: frozenset[str]
    external_south: frozenset[str]

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("a tile system needs at least one tile")
        ordered = tuple(sorted(set(self.tiles), key=Tile.key))
        object.__setattr__(self, "tiles", ordered)
        for name in ("external_west", "external_north", "external_east", "external_south"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    @cached_property
    def letters(self) -> frozenset[str]:
        return frozenset(t.letter for t in self.tiles)

    @cached_property
    def tiles_by_letter(self) -> dict[str, tuple[Tile, ...]]:
        out: dict[str, list[Tile]] = {}
        for t in self.tiles:
            out.setdefault(t.letter, []).append(t)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def placements(self) -> dict[Optional[str], dict[tuple, tuple[tuple, ...]]]:
        """Per letter or None (empty): (west, north, last row, last column) -> (south, east).

        A west or north of None stands for an empty neighbour, so the
        tile's border there must be admissible. On the last row or column
        the south or east border faces outside and must be admissible
        too, and the outgoing east is None because the next cell starts
        a new row. An empty cell has the one outcome (None, None) where
        the borders facing it are admissible. Keys without outcomes are
        left out.
        """
        ext_w, ext_n = self.external_west, self.external_north
        ext_e, ext_s = self.external_east, self.external_south
        wests = [None, *sorted({t.east for t in self.tiles})]
        norths = [None, *sorted({t.south for t in self.tiles})]
        keys = list(itertools.product(wests, norths, (False, True), (False, True)))
        out: dict[Optional[str], dict] = {
            None: {
                key: ((None, None),)
                for key in keys
                if (key[0] is None or key[0] in ext_e) and (key[1] is None or key[1] in ext_s)
            }
        }
        for letter, group in self.tiles_by_letter.items():
            table = out[letter] = {}
            for key in keys:
                west, north, last_row, last_col = key
                outcomes = {
                    (t.south, None if last_col else t.east)
                    for t in group
                    if (t.west in ext_w if west is None else t.west == west)
                    and (t.north in ext_n if north is None else t.north == north)
                    and (not last_col or t.east in ext_e)
                    and (not last_row or t.south in ext_s)
                }
                if outcomes:
                    table[key] = tuple(outcomes)
        return out


@record
class Scenario:
    """A tile-valued word; validity and acceptance are separate checks."""

    cells: tuple[tuple[int, int, Tile], ...]

    def __post_init__(self) -> None:
        cells = tuple(sorted(self.cells, key=lambda c: (c[0], c[1])))
        if not cells:
            raise ValueError("a scenario needs at least one cell")
        seen: set[Pos] = set()
        for r, c, tile in cells:
            if not isinstance(r, int) or not isinstance(c, int):
                raise ValueError(f"cell position must be integral: ({r!r}, {c!r})")
            if not isinstance(tile, Tile):
                raise ValueError(f"not a tile: {tile!r}")
            if (r, c) in seen:
                raise ValueError(f"duplicate cell at ({r}, {c})")
            seen.add((r, c))
        object.__setattr__(self, "cells", cells)

    @cached_property
    def tile_map(self) -> dict[Pos, Tile]:
        return {(r, c): tile for r, c, tile in self.cells}

    def __len__(self) -> int:
        return len(self.cells)


# ---------------------------------------------------------------------------
# Two-color notation and the tile-system text format


_TWO_COLOR = re.compile(r"^F([0-9a-f]+)(?:\.([0-9a-f]))?$")


def parse_two_color(text: str) -> TileSystem:
    """Parse the compact hex notation for 2-label systems."""
    m = _TWO_COLOR.match(text.strip())
    if not m:
        raise ValueError(
            f"bad two-color notation {text!r}: expected F<hex digits>[.<hex digit>]"
        )
    digits, zpart = m.group(1), m.group(2)
    seen: set[str] = set()
    tiles: list[Tile] = []
    for ch in digits:
        if ch in seen:
            raise ValueError(f"duplicate tile digit {ch!r} in {text!r}")
        seen.add(ch)
        d = int(ch, 16)
        w, n, e, s = (str((d >> k) & 1) for k in (3, 2, 1, 0))
        tiles.append(Tile(ch, w, n, e, s))
    if zpart is None:
        both = frozenset({"0", "1"})
        ext = (both, both, both, both)
    else:
        z = int(zpart, 16)
        ext = tuple(frozenset({str((z >> k) & 1)}) for k in (3, 2, 1, 0))
    return TileSystem(tuple(tiles), *ext)


def _format_label_set(labels: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def format_tile_system(f: TileSystem) -> str:
    lines = [
        f"tile {t.letter} w={t.west} n={t.north} e={t.east} s={t.south}"
        for t in f.tiles
    ]
    lines.append(
        "accept w=%s n=%s e=%s s=%s"
        % (
            _format_label_set(f.external_west),
            _format_label_set(f.external_north),
            _format_label_set(f.external_east),
            _format_label_set(f.external_south),
        )
    )
    return "\n".join(lines) + "\n"


_TILE_LINE = re.compile(
    r"^tile\s+(\S)\s+w=(\S+)\s+n=(\S+)\s+e=(\S+)\s+s=(\S+)$"
)
_ACCEPT_LINE = re.compile(
    r"^accept\s+w=\{([^}]*)\}\s+n=\{([^}]*)\}\s+e=\{([^}]*)\}\s+s=\{([^}]*)\}$"
)


def _parse_label_set(body: str) -> frozenset[str]:
    body = body.strip()
    if not body:
        return frozenset()
    return frozenset(part.strip() for part in body.split(","))


def parse_tile_system(text: str) -> TileSystem:
    """Parse either tile/accept lines or a single "sats F..." line."""
    lines = list(source_lines(text))
    if not lines:
        raise ValueError("empty tile system text")
    if len(lines) == 1 and lines[0].startswith("sats"):
        return parse_two_color(lines[0][4:].strip())
    tiles: list[Tile] = []
    externals: Optional[tuple[frozenset[str], ...]] = None
    for line in lines:
        m = _TILE_LINE.match(line)
        if m:
            tiles.append(Tile(*m.groups()))
            continue
        m = _ACCEPT_LINE.match(line)
        if m:
            if externals is not None:
                raise ValueError("multiple accept lines")
            externals = tuple(_parse_label_set(g) for g in m.groups())
            continue
        raise ValueError(f"unrecognized tile system line: {line!r}")
    if not tiles:
        raise ValueError("tile system text declares no tiles")
    if externals is None:
        raise ValueError("tile system text lacks an accept line")
    return TileSystem(tuple(tiles), *externals)


# ---------------------------------------------------------------------------
# The row-major frontier
#
# Every question about a language within a box is answered by walking the
# box cell by cell in row-major order, choosing for each cell a letter or
# nothing. After a prefix of choices, the frontier is the set of border
# profiles that some tile assignment of the prefix leaves open. A profile
# is sparse, as in broken-profile dynamic programming: the south labels
# still to be read, as a flat tuple (col, label, col, label, ...) that
# lists only the columns whose latest cell is lettered, in walk order from
# the current column, plus the east label facing the next cell (None
# after an empty cell or at the end of a row). A profile never names its row, so
# steps at one column are shared across rows. _step, with the
# TileSystem.placements table it reads, is the one place where borders
# are matched and boundary labels checked; enumeration, counting, witness
# search and acceptance all drive it. Enumeration and witness search step
# whole rows: they list a row's complete fillings once per (row, state at
# the row's start, cells left) by walking its cells, and join the rows of
# a word from those tables.

Profile = tuple[tuple, Optional[str]]  # ((col, south, col, south, ...), east)
Frontier = frozenset[Profile]

_START: Frontier = frozenset({((), None)})  # nothing faces the first cell


def _step(
    f: TileSystem,
    frontier: Frontier,
    c: int,
    choice: Optional[str],
    last_row: bool,
    last_col: bool,
) -> Frontier:
    """Profiles reachable after `choice` (a letter, or None for empty) at column c."""
    out = set()
    table = f.placements.get(choice, {})
    for souths, east in frontier:
        if souths and souths[0] == c:
            north, rest = souths[1], souths[2:]
        else:
            north, rest = None, souths
        for south, east_out in table.get((east, north, last_row, last_col), ()):
            out.add((rest if south is None else rest + (c, south), east_out))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Validity and acceptance


def scenario_valid(f: TileSystem, s: Scenario) -> bool:
    """Tiles all belong to the system and shared borders agree."""
    tileset = set(f.tiles)
    tmap = s.tile_map
    for (r, c), t in tmap.items():
        if t not in tileset:
            return False
        east = tmap.get((r, c + 1))
        if east is not None and t.east != east.west:
            return False
        south = tmap.get((r + 1, c))
        if south is not None and t.south != south.north:
            return False
    return True


def accepting(f: TileSystem, s: Scenario) -> bool:
    """Every external border label is admissible for its direction."""
    tmap = s.tile_map
    for (r, c), t in tmap.items():
        if (r, c - 1) not in tmap and t.west not in f.external_west:
            return False
        if (r - 1, c) not in tmap and t.north not in f.external_north:
            return False
        if (r, c + 1) not in tmap and t.east not in f.external_east:
            return False
        if (r + 1, c) not in tmap and t.south not in f.external_south:
            return False
    return True


def word_accepted(f: TileSystem, w: Word, *, steps: Optional[dict] = None) -> bool:
    """Some accepting scenario of f strips to this word.

    Steps the frontier across the word's bounding box in row-major
    order, each cell's choice fixed to its letter or to empty. An empty
    cell whose west and north cells are empty too leaves every profile
    as it is, so it is skipped. `steps` memoizes _step by its arguments;
    a caller testing many words of one system passes one dict to every
    call, so words that share a prefix share its steps. It defaults to a
    fresh dict.
    """
    w = normalize(w)
    letters = w.cell_map
    rows, cols = w.height, w.width
    if steps is None:
        steps = {}
    frontier = _START
    for r in range(rows):
        for c in range(cols):
            letter = letters.get((r, c))
            if letter is None and (
                (r, c - 1) not in letters and (r - 1, c) not in letters
            ):
                continue
            key = (frontier, c, letter, r == rows - 1, c == cols - 1)
            frontier = steps.get(key)
            if frontier is None:
                frontier = steps[key] = _step(f, *key)
            if not frontier:
                return False
    return True


# ---------------------------------------------------------------------------
# Bounded enumeration

State = tuple[bool, Frontier]  # (column 0 used, frontier)
Cell = tuple[int, int, str]


def _walk(
    f: TileSystem, bounds: Bounds, budget: Budget, *, brief: Optional[dict] = None
) -> Callable[[int, State, bool], list[tuple[Optional[Cell], State]]]:
    """The box walk that enumeration and counting share.

    Returns children(k, state, room): the choices at cell k (letters in
    sorted order if there is room, then empty) that leave a non-empty
    frontier, each as the cell it fills (None for empty) and the state
    it leads to. A state, (column 0 used, frontier), holds no cell count:
    the caller says if a letter fits under max_cells, and cuts a state
    reaching row 1 with no cells. Each call charges len(choices) budget
    units with room, else 1, and cuts a child that must leave column 0
    bare. Steps are memoized by (column, last row, frontier, room), the
    cell's row filled in when a step is used, so rows share them. When
    `brief` is given, the steps no later row reads go there instead:
    those of the last row, whose keys no other row has, and of the row
    above it, which only the last row follows; and, since they offer
    only the empty choice, those without room. A caller that reaches
    each cell once empties `brief` after each cell, so those steps live
    for their cell only.
    """
    rows, cols = bounds.max_rows, bounds.max_cols
    done = _START  # no frontier is read after the last cell
    choices = (*sorted(f.letters), None)
    steps: dict[tuple[int, bool, Frontier, bool], list[tuple[Optional[str], Frontier]]] = {}
    if brief is None:
        brief = steps

    def children(k: int, state: State, room: bool) -> list[tuple[Optional[Cell], State]]:
        col0, frontier = state
        r, c = divmod(k, cols)
        last_row = r == rows - 1
        key = (c, last_row, frontier, room)
        found = steps.get(key)
        if found is None:
            found = brief.get(key)
        if found is None:
            last_col = c == cols - 1
            found = [
                (choice, done if last_row and last_col else reached)
                for choice in (choices if room else (None,))
                if (reached := _step(f, frontier, c, choice, last_row, last_col))
            ]
            (steps if room and r < rows - 2 else brief)[key] = found
        budget.charge(len(choices) if room else 1)
        out = []
        for choice, reached in found:
            if choice is not None:
                out.append(((r, c, choice), (col0 or c == 0, reached)))
            elif c or col0 or not last_row:  # else column 0 stays empty
                out.append((None, (col0, reached)))
        return out

    return children


# One complete filling of a row: its letter cells, its drawn text, its
# cell count, its rightmost letter column plus one (0 if none), and the
# state after it.
RowFill = tuple[tuple[Cell, ...], str, int, int, State]


def _search(f: TileSystem, bounds: Bounds, budget: Budget) -> Iterator[Word]:
    """Every word of the language within the bounds, once each, in search order.

    Depth first over the box one row at a time, with an explicit stack.
    For each (row, state at the row's start, cells left) it reaches, the
    search keeps a table of the row's complete fillings, in the order a
    cell-by-cell walk meets them (sorted letters, then empty). A table is
    built once, depth first across the row's cells through the walk's
    children, and records the budget its build charged; reaching it again
    charges that cost, so a finished search spends what the cell walk
    would. Letters are chosen, not tiles, so a word that several tile
    assignments realize is reached once. A word is its rows' cells
    joined: row-major, normalized, duplicate-free and lettered by tiles,
    so it makes a trusted word, primed with its rendering: the drawn rows
    cut to the word's width, down to its last lettered row. The walk
    cuts a last row that would leave column 0 empty and the search cuts
    an empty row 0, so no finished word needs a check.
    """
    rows, cols, max_cells = bounds.max_rows, bounds.max_cols, bounds.max_cells
    children = _walk(f, bounds, budget)
    tables: dict[tuple[int, State, int], tuple[int, list[RowFill]]] = {}

    def fillings(r: int, state: State, left: int) -> list[RowFill]:
        key = (r, state, left)
        table = tables.get(key)
        if table is not None:
            budget.charge(table[0])
            return table[1]
        before, first, out = budget.remaining, r * cols, []
        stack = [iter(children(first, state, left > 0))]
        drawn: list[str] = []  # the character drawn at each decided cell
        cells: list[Cell] = []  # the letter cells among them
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if drawn and drawn.pop() != FILLER:
                    del cells[-1]
                continue
            cell, after = move
            if cell is None:
                drawn.append(FILLER)
            else:
                drawn.append(cell[2])
                cells.append(cell)
            if len(drawn) < cols:
                stack.append(iter(children(first + len(drawn), after, len(cells) < left)))
                continue
            right = cells[-1][1] + 1 if cells else 0
            out.append((tuple(cells), "".join(drawn), len(cells), right, after))
            if drawn.pop() != FILLER:
                del cells[-1]
        tables[key] = (before - budget.remaining, out)
        return out

    def words(
        cells: tuple[Cell, ...], lines: list[str], height: int, width: int, last: list[RowFill]
    ) -> Iterator[Word]:
        """The words ending in a filling of the last row, below `lines`."""
        heads: dict[int, str] = {}  # the rows above, cut to a width, by width
        for row_cells, drawn, n, right, _ in last:
            if n:
                w = right if right > width else width
                head = heads.get(w)
                if head is None:
                    head = heads[w] = "".join([s[:w] + "\n" for s in lines])
                yield Word._trusted(cells + row_cells, head + drawn[:w])
            else:
                yield Word._trusted(cells, "\n".join([s[:width] for s in lines[:height]]))

    start = (False, _START)
    if rows == 1:
        yield from words((), [], 0, 0, fillings(0, start, max_cells))
        return
    lines: list[str] = []  # the drawn text of each row above the frames' last
    # A frame: the fillings of row len(frames) - 1 left to try, and the word
    # above that row: its cells, height and width, and the cells left.
    frames = [(iter(fillings(0, start, max_cells)), (), 0, 0, max_cells)]
    while frames:
        rest, cells, height, width, left = frames[-1]
        fill = next(rest, None)
        if fill is None:
            frames.pop()
            continue
        row_cells, drawn, n, right, state = fill
        r = len(frames)  # the row below this filling
        if n:
            cells, height, width = cells + row_cells, r, max(width, right)
        elif r == 1:
            continue  # row 0 stayed empty
        del lines[r - 1 :]
        lines.append(drawn)
        below = fillings(r, state, left - n)
        if r < rows - 1:
            frames.append((iter(below), cells, height, width, left - n))
        else:
            yield from words(cells, lines, height, width, below)


class Language(frozenset):
    """A set of words that also keeps them, in `found`, in the order the
    tile search found them. That order is made of long sorted runs, so a
    listing sorts it in under half the time it takes to sort the set's
    hash order."""

    __slots__ = ("found",)

    def __new__(cls, found: list[Word]) -> "Language":
        self = super().__new__(cls, found)
        self.found = found
        return self


def enumerate_language(f: TileSystem, bounds: Bounds) -> Language:
    """All normalized words of accepting scenarios within the bounds."""
    found: list[Word] = []
    try:
        found.extend(_search(f, bounds, Budget(bounds.node_budget)))
    except BudgetExhausted:
        raise BudgetExhausted(
            "enumeration node budget exhausted", partial=frozenset(found)
        )
    return Language(found)


def count_language(f: TileSystem, bounds: Bounds) -> int:
    """Exact number of words in the system's language within the bounds.

    A dynamic program over the walk enumeration uses, so it agrees with
    enumerate_language but never materializes the words. Paths reaching
    one state (column 0 used, frontier) merge whatever their cell counts;
    a frontier is a SET of profiles, so a letter word counts once even
    when several tile assignments realize it. A state carries its path
    counts by cell count, a polynomial packed into one integer at `width`
    bits a count. One walk serves the whole count, so a row reuses the
    steps an earlier row took at the same column; the steps no later row
    reads live for their cell only. The walk charges the budget per
    merged state, and this caller applies the cell-count rules: a letter
    shifts the counts up one, dropping the one past max_cells; an empty
    cell keeps them; row 1 clears the zero-cell count; room is a path
    under max_cells cells.
    """
    rows, cols, max_cells = bounds.max_rows, bounds.max_cols, bounds.max_cells
    # No count exceeds the ways to letter that many cells of the box.
    ways = (comb(rows * cols, n) * len(f.letters) ** n for n in range(max_cells + 1))
    width = max(ways).bit_length()
    below_top = (1 << width * max_cells) - 1  # the counts below max_cells
    budget, brief = Budget(bounds.node_budget), {}
    children = _walk(f, bounds, budget, brief=brief)
    states = {(False, _START): 1}
    for k in range(rows * cols):
        if k == cols:  # row 0 stayed empty: clear the zero-cell counts
            states = {s: v >> width << width for s, v in states.items() if v >> width}
        nxt: dict[State, int] = {}
        for state, vec in states.items():
            up = (vec & below_top) << width
            for cell, child in children(k, state, up != 0):
                nxt[child] = nxt.get(child, 0) + (vec if cell is None else up)
        states = nxt
        brief.clear()  # no later cell reads these steps
    total = sum(vec for (col0, _), vec in states.items() if col0)
    return sum(total >> n * width & (1 << width) - 1 for n in range(max_cells + 1))


# ---------------------------------------------------------------------------
# Language comparison


@record
class LanguageDiff:
    """Two-sided comparison with counts and bounded witness lists."""

    left_total: int
    right_total: int
    common: int
    only_left_count: int
    only_left: tuple[Word, ...]
    only_right_count: int
    only_right: tuple[Word, ...]

    @property
    def equal(self) -> bool:
        return self.only_left_count == 0 and self.only_right_count == 0


def diff_against_language(
    f: TileSystem,
    bounds: Bounds,
    words: Iterable[Word],
    max_witnesses: int = 10,
) -> LanguageDiff:
    """Compare a finite word set (left) against the system language (right).

    The system language is never materialized: its size comes from
    count_language, membership of each left word from word_accepted, and
    the first `max_witnesses` right-only words in search order from an
    enumeration that stops once it has enough. Left witnesses are
    reported in sorted word order, right witnesses in search order.
    """
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be non-negative, got {max_witnesses!r}")
    expected = frozenset(normalize(w) for w in words)
    steps: dict = {}  # the left words' steps, shared among them
    only_left = sorted(
        (
            w
            for w in expected
            if not (bounds.admits(w) and word_accepted(f, w, steps=steps))
        ),
        key=word_sort_key,
    )
    common = len(expected) - len(only_left)
    right_total = count_language(f, bounds)
    witnesses: list[Word] = []
    if max_witnesses > 0 and right_total > common:
        for w in _search(f, bounds, Budget(bounds.node_budget)):
            if w not in expected:
                witnesses.append(w)
                if len(witnesses) == max_witnesses:
                    break
    return LanguageDiff(
        left_total=len(expected),
        right_total=right_total,
        common=common,
        only_left_count=len(only_left),
        only_left=tuple(only_left[:max_witnesses]),
        only_right_count=right_total - common,
        only_right=tuple(witnesses),
    )


def format_language_diff(
    diff: LanguageDiff, left_name: str = "A", right_name: str = "B"
) -> str:
    lines = [
        f"{left_name}: {diff.left_total} words",
        f"{right_name}: {diff.right_total} words",
        f"common: {diff.common}",
        f"only in {left_name}: {diff.only_left_count}",
    ]
    for i, w in enumerate(diff.only_left, 1):
        lines.append(f"-- {left_name} witness {i}")
        lines.append(render_ascii(w))
    lines.append(f"only in {right_name}: {diff.only_right_count}")
    for i, w in enumerate(diff.only_right, 1):
        lines.append(f"-- {right_name} witness {i}")
        lines.append(render_ascii(w))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Projection to a finite automaton


@record
class Nfa:
    """Nondeterministic automaton over tile letters."""

    states: tuple[str, ...]
    initial: frozenset[str]
    accepting: frozenset[str]
    transitions: tuple[tuple[str, str, str], ...]

    @cached_property
    def _step(self) -> dict[tuple[str, str], frozenset[str]]:
        out: dict[tuple[str, str], set[str]] = {}
        for src, letter, dst in self.transitions:
            out.setdefault((src, letter), set()).add(dst)
        return {k: frozenset(v) for k, v in out.items()}

    def accepts(self, s: str) -> bool:
        current = set(self.initial)
        for letter in s:
            nxt: set[str] = set()
            for state in current:
                nxt |= self._step.get((state, letter), frozenset())
            current = nxt
            if not current:
                return False
        return bool(current & self.accepting)

    def words_up_to(self, n: int) -> frozenset[str]:
        """All non-empty accepted strings of length at most n."""
        letters = sorted({letter for _, letter, _ in self.transitions})
        out: set[str] = set()

        def walk(prefix: str, current: frozenset[str]) -> None:
            if len(prefix) >= n:
                return
            for letter in letters:
                nxt: set[str] = set()
                for state in current:
                    nxt |= self._step.get((state, letter), frozenset())
                if not nxt:
                    continue
                word = prefix + letter
                if nxt & self.accepting:
                    out.add(word)
                walk(word, frozenset(nxt))

        walk("", frozenset(self.initial))
        return frozenset(out)


def project_to_nfa(f: TileSystem) -> Nfa:
    """Vertical projection for systems whose rows cannot grow.

    Precondition, checked: every tile has west != east, and no chain of
    east-west matches can connect a west-admissible tile to an
    east-admissible one across two or more columns. Accepted columns are
    then independent, and contiguous single-column words correspond
    exactly to automaton words read north to south.
    """
    for t in f.tiles:
        if t.west == t.east:
            raise ValueError(
                f"projection precondition violated: tile {t.letter} has the "
                f"same label {t.west!r} on west and east"
            )
    # Labels a tile's east side can show in a row that starts at the west
    # boundary; a tile whose west matches one sits east of another tile.
    reach: set[str] = set()
    more = {t.east for t in f.tiles if t.west in f.external_west}
    while more:
        reach |= more
        more = {t.east for t in f.tiles if t.west in reach} - reach
    for t in f.tiles:
        if t.west in reach and t.east in f.external_east:
            raise ValueError(
                "projection precondition violated: west/east labels let "
                f"tile {t.letter} sit side by side with a tile to its west"
            )
    transitions = sorted(
        {
            (t.north, t.letter, t.south)
            for t in f.tiles
            if t.west in f.external_west and t.east in f.external_east
        }
    )
    states = sorted(
        {t.north for t in f.tiles}
        | {t.south for t in f.tiles}
        | f.external_north
        | f.external_south
    )
    return Nfa(
        states=tuple(states),
        initial=f.external_north,
        accepting=f.external_south,
        transitions=tuple(transitions),
    )


def column_strings(words: Iterable[Word]) -> frozenset[str]:
    """North-to-south letter strings of contiguous single-column words."""
    out: set[str] = set()
    for w in words:
        w = normalize(w)
        if w.width != 1:
            continue
        if w.height != len(w):
            continue  # vertical gaps: a stack of shorter columns, skip
        out.add("".join(letter for _, _, letter in w.cells))
    return frozenset(out)

