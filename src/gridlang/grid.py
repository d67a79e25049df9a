"""Lattice geometry for arbitrary-shape two-dimensional words.

Coordinate convention: rows grow southward, columns grow eastward, so
"north" means decreasing row. Cell (r, c) occupies the unit square whose
north-west lattice point is (r, c); its corner points are nw=(r, c),
ne=(r, c+1), sw=(r+1, c), se=(r+1, c+1).

A word is a finite non-empty set of cells labelled with letters. Words
may be disconnected and may contain holes. The normalized form places
the minimum occupied row and column at 0.

Contour elements sit on the boundary between occupied and empty cells.
There are 12 kinds:

* sides w, n, e, s: unit edges with an occupied cell on exactly one
  side, named for the direction they face from that cell (the 'w' side
  of a cell is its west edge, and so on). A vertical edge is identified
  by its north endpoint, a horizontal edge by its west endpoint.
* land corners nw, ne, sw, se: convex corners. A land nw sits at a
  lattice point whose south-east cell is occupied while the other three
  cells around the point are empty; the other kinds are the rotations.
* golf corners nw', ne', sw', se': reflex corners. A golf nw' sits at a
  point whose south-east cell is empty while the north-east and
  south-west cells are occupied; rotations likewise. The fourth cell
  around the point is left unconstrained, so two diagonally touching
  cells produce golf corners at the touch point, and hole boundaries
  contribute corners like any other boundary.

An extreme cell has at most one occupied cell among the 8 positions
around it. Selectors pick contour elements by kind with an optional
extremeness filter applied to the elements' inside cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Pos = tuple[int, int]

FILLER = "."

SIDE_KINDS = ("w", "n", "e", "s")
LAND_KINDS = ("nw", "ne", "sw", "se")
GOLF_KINDS = ("nw'", "ne'", "sw'", "se'")
CORNER_KINDS = LAND_KINDS + GOLF_KINDS
ELEMENT_KINDS = SIDE_KINDS + CORNER_KINDS

FILTER_ANY = "any"
FILTER_EXTREME = "extreme"
FILTER_NONEXTREME = "nonextreme"
FILTERS = (FILTER_ANY, FILTER_EXTREME, FILTER_NONEXTREME)

# The four cells around a lattice point (r, c), as cell-coordinate offsets.
_TL = (-1, -1)
_TR = (-1, 0)
_BL = (0, -1)
_BR = (0, 0)

# Corner kind -> (offsets that must be occupied, offsets that must be empty).
# Land corners constrain all four cells; golf corners leave the cell diagonal
# to the named empty cell unconstrained.
_CORNER_PATTERNS: dict[str, tuple[tuple[Pos, ...], tuple[Pos, ...]]] = {
    "nw": ((_BR,), (_TL, _TR, _BL)),
    "ne": ((_BL,), (_TL, _TR, _BR)),
    "sw": ((_TR,), (_TL, _BL, _BR)),
    "se": ((_TL,), (_TR, _BL, _BR)),
    "nw'": ((_TR, _BL), (_BR,)),
    "ne'": ((_TL, _BR), (_BL,)),
    "sw'": ((_TL, _BR), (_TR,)),
    "se'": ((_TR, _BL), (_TL,)),
}


# The cells around a lattice point in bit order of its occupancy mask, and
# the corner kinds that sit at a point with each of the 16 masks.
_AROUND_POINT = (_TL, _TR, _BL, _BR)


def _corner_kinds(mask: int) -> tuple[str, ...]:
    occupied = {off for bit, off in enumerate(_AROUND_POINT) if mask >> bit & 1}
    return tuple(
        kind
        for kind, (inside, outside) in _CORNER_PATTERNS.items()
        if occupied.issuperset(inside) and occupied.isdisjoint(outside)
    )


_CORNER_TABLE = tuple(_corner_kinds(mask) for mask in range(16))

_AROUND8 = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)


@dataclass(frozen=True)
class Element:
    """One contour element: a side edge or a corner lattice point."""

    kind: str
    row: int
    col: int

    def __post_init__(self) -> None:
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown contour element kind {self.kind!r}")

    @property
    def axis(self) -> str:
        """'v' for vertical edges, 'h' for horizontal edges, 'p' for points."""
        if self.kind in ("w", "e"):
            return "v"
        if self.kind in ("n", "s"):
            return "h"
        return "p"

    @property
    def key(self) -> tuple[str, int, int]:
        """Geometric identity used when elements of different kinds meet."""
        return (self.axis, self.row, self.col)


def element_sort_key(el: Element) -> tuple[int, int, str]:
    return (el.row, el.col, el.kind)


def element_translate(el: Element, dr: int, dc: int) -> Element:
    return Element(el.kind, el.row + dr, el.col + dc)


@dataclass(frozen=True)
class Selector:
    """An element kind plus an extremeness filter on its inside cells."""

    kind: str
    filter: str = FILTER_ANY

    def __post_init__(self) -> None:
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown contour element kind {self.kind!r}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown extremeness filter {self.filter!r}")

    def __str__(self) -> str:
        if self.filter == FILTER_EXTREME:
            return "x" + self.kind
        if self.filter == FILTER_NONEXTREME:
            return "(!x)" + self.kind
        return self.kind


def _good_letter(letter: object) -> bool:
    return (
        isinstance(letter, str)
        and len(letter) == 1
        and letter.isprintable()
        and not letter.isspace()
        and letter != FILLER
    )


@dataclass(frozen=True)
class Word:
    """A finite labelled cell set; cells are kept sorted for stable identity."""

    cells: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        cells = tuple(sorted(self.cells))
        if not cells:
            raise ValueError("a word needs at least one cell")
        seen: set[Pos] = set()
        for r, c, letter in cells:
            if not isinstance(r, int) or not isinstance(c, int):
                raise ValueError(f"cell position must be integral: ({r!r}, {c!r})")
            if not _good_letter(letter):
                raise ValueError(f"bad cell letter {letter!r}")
            if (r, c) in seen:
                raise ValueError(f"duplicate cell at ({r}, {c})")
            seen.add((r, c))
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_map(cls, cells: dict[Pos, str]) -> "Word":
        return cls(tuple((r, c, letter) for (r, c), letter in cells.items()))

    @cached_property
    def cell_map(self) -> dict[Pos, str]:
        return {(r, c): letter for r, c, letter in self.cells}

    @cached_property
    def positions(self) -> frozenset[Pos]:
        return frozenset((r, c) for r, c, _ in self.cells)

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        """(min_row, min_col, max_row, max_col) over occupied cells."""
        rows = [r for r, _, _ in self.cells]
        cols = [c for _, c, _ in self.cells]
        return (min(rows), min(cols), max(rows), max(cols))

    @property
    def height(self) -> int:
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def width(self) -> int:
        return self.bbox[3] - self.bbox[1] + 1

    @cached_property
    def contour(self) -> frozenset[Element]:
        """Every side edge and corner point on the boundary, holes included."""
        occ = self.positions
        elems: set[Element] = set()
        for r, c in occ:
            if (r, c - 1) not in occ:
                elems.add(Element("w", r, c))
            if (r, c + 1) not in occ:
                elems.add(Element("e", r, c + 1))
            if (r - 1, c) not in occ:
                elems.add(Element("n", r, c))
            if (r + 1, c) not in occ:
                elems.add(Element("s", r + 1, c))
        # Corner candidates: the four lattice points around each occupied
        # cell, each classified once by the occupancy of its four cells.
        points = {(r + dr, c + dc) for r, c in occ for dr in (0, 1) for dc in (0, 1)}
        for pr, pc in points:
            mask = (
                ((pr - 1, pc - 1) in occ)
                | ((pr - 1, pc) in occ) << 1
                | ((pr, pc - 1) in occ) << 2
                | ((pr, pc) in occ) << 3
            )
            for kind in _CORNER_TABLE[mask]:
                elems.add(Element(kind, pr, pc))
        return frozenset(elems)

    @cached_property
    def extreme_cells(self) -> frozenset[Pos]:
        """Cells with at most one occupied cell among their 8 neighbours."""
        occ = self.positions
        return frozenset(
            (r, c)
            for r, c in occ
            if sum(((r + dr, c + dc) in occ) for dr, dc in _AROUND8) <= 1
        )

    @cached_property
    def selected_keys(self) -> dict[Selector, frozenset[tuple[str, int, int]]]:
        """Keys of the elements each selector picks, filled in by callers
        as they first read them; freed with the word."""
        return {}

    def __len__(self) -> int:
        return len(self.cells)


def translate(w: Word, dr: int, dc: int) -> Word:
    return Word(tuple((r + dr, c + dc, letter) for r, c, letter in w.cells))


def normalize(w: Word) -> Word:
    """Translate so the minimum occupied row and column are both 0."""
    r0, c0, _, _ = w.bbox
    if r0 == 0 and c0 == 0:
        return w
    return translate(w, -r0, -c0)


def hv_components(w: Word) -> list[frozenset[Pos]]:
    """Maximal 4-neighbour connected cell sets, in original coordinates."""
    todo = set(w.positions)
    out: list[frozenset[Pos]] = []
    while todo:
        seed = min(todo)
        todo.discard(seed)
        comp = {seed}
        frontier = [seed]
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in todo:
                    todo.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        out.append(frozenset(comp))
    return sorted(out, key=min)


def contour(w: Word) -> frozenset[Element]:
    """Every side edge and corner point on the boundary, holes included."""
    return w.contour


def extreme_cells(w: Word) -> frozenset[Pos]:
    """Cells with at most one occupied cell among their 8 neighbours."""
    return w.extreme_cells


def element_inside_cells(w: Word, el: Element) -> frozenset[Pos]:
    """The occupied cells an element touches; extremeness filters use these."""
    if el.kind == "w":
        return frozenset({(el.row, el.col)})
    if el.kind == "e":
        return frozenset({(el.row, el.col - 1)})
    if el.kind == "n":
        return frozenset({(el.row, el.col)})
    if el.kind == "s":
        return frozenset({(el.row - 1, el.col)})
    occ = w.positions
    return frozenset(
        (el.row + dr, el.col + dc)
        for dr, dc in (_TL, _TR, _BL, _BR)
        if (el.row + dr, el.col + dc) in occ
    )


def select(w: Word, sel: Selector) -> frozenset[Element]:
    """Contour elements of one kind, optionally filtered by extremeness."""
    elems = frozenset(el for el in w.contour if el.kind == sel.kind)
    if sel.filter == FILTER_ANY:
        return elems
    xs = w.extreme_cells
    if sel.filter == FILTER_EXTREME:
        return frozenset(el for el in elems if element_inside_cells(w, el) <= xs)
    return frozenset(el for el in elems if not (element_inside_cells(w, el) & xs))


def render_ascii(w: Word) -> str:
    """One text row per lattice row of the bounding box, '.' when empty."""
    r0, c0, r1, c1 = w.bbox
    cmap = w.cell_map
    return "\n".join(
        "".join(cmap.get((r, c), FILLER) for c in range(c0, c1 + 1))
        for r in range(r0, r1 + 1)
    )


def format_word_text(w: Word) -> str:
    """Word text format: a "rows cols" header line, then the ascii grid."""
    v = normalize(w)
    _, _, r1, c1 = v.bbox
    return f"{r1 + 1} {c1 + 1}\n{render_ascii(v)}\n"


def parse_word_text(text: str) -> Word:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty word text")
    head = lines[0].split()
    if len(head) != 2 or not all(part.isdigit() for part in head):
        raise ValueError(f"expected header 'rows cols', got {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} grid rows, got {len(body)}")
    cells: list[tuple[int, int, str]] = []
    for r, line in enumerate(body):
        if len(line) != cols:
            raise ValueError(f"grid row {r} has {len(line)} glyphs, expected {cols}")
        for c, ch in enumerate(line):
            if ch != FILLER:
                cells.append((r, c, ch))
    return Word(tuple(cells))


def word_sort_key(w: Word) -> tuple[int, str]:
    """Stable listing order: fewest cells first, then row-major rendering."""
    return (len(w.cells), render_ascii(normalize(w)).replace("\n", "/"))


class BudgetExhausted(RuntimeError):
    """A bounded search exceeded its node budget.

    `partial` optionally carries whatever the search had produced so far,
    so callers can report a marked partial result instead of nothing.
    """

    def __init__(self, message: str, partial: object = None):
        super().__init__(message)
        self.partial = partial


@dataclass
class Budget:
    """Mutable countdown of search steps; shared across one whole run."""

    remaining: int

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExhausted("node budget exhausted")


@dataclass(frozen=True)
class Bounds:
    """Search limits shared by enumeration, composition, and solving."""

    max_rows: int
    max_cols: int
    max_cells: int
    node_budget: int = 100_000_000

    def __post_init__(self) -> None:
        for name in ("max_rows", "max_cols", "max_cells", "node_budget"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.max_cells > self.max_rows * self.max_cols:
            raise ValueError("max_cells cannot exceed max_rows * max_cols")

    def admits(self, w: Word) -> bool:
        """True when the word's bounding box and cell count fit the limits."""
        r0, c0, r1, c1 = w.bbox
        return (
            r1 - r0 + 1 <= self.max_rows
            and c1 - c0 + 1 <= self.max_cols
            and len(w) <= self.max_cells
        )
