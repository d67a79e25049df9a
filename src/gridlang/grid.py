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
extremeness filter applied to the elements' inside cells. A word keeps
its cells and each selection it is asked for as bitboard masks of a
frame (`Word.board`), where composition compares them by shifting;
`Word.selection` decodes a mask into keys (axis, row, col).

The module also holds what every layer shares: the `record` class
decorator, search budgets and bounds, the packaged corpus files, the
line reader of the text formats, and the token cursor that the
restriction, expression, module library and scenario grammars read
through, with its nesting limit and its one error, ParseError.
"""

from __future__ import annotations

import re
from functools import cached_property
from importlib import resources
from typing import Iterator, NoReturn, Optional

Pos = tuple[int, int]
Key = tuple[str, int, int]  # (axis, row, col): an element's place, whatever its kind


# ---------------------------------------------------------------------------
# Records


class FrozenRecordError(AttributeError):
    """An attempt to assign to or delete an attribute of a record."""


# Stores an attribute past a record's frozen __setattr__. On CPython 3.11
# and later an instance keeps what it stores so in its inline attribute
# storage, and builds no `__dict__` until something asks for one.
_set = object.__setattr__


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _record_method(m: str, names: tuple, post_init: bool):
    """Compile the record method `m` over the fields `names`."""
    fields = "".join(f"self.{n}," for n in names)
    if m == "__init__":
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _set(self, {n!r}, {n})" for n in names]
        if post_init:
            lines.append("    self.__post_init__()")
        if len(lines) == 1:
            lines.append("    pass")
    elif m == "__eq__":
        other = "".join(f"other.{n}," for n in names)
        lines = [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({fields}) == ({other})",
            "    return NotImplemented",
        ]
    elif m == "__hash__":
        lines = ["def __hash__(self):", f"    return hash(({fields}))"]
    else:
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        lines = [
            "def __repr__(self):",
            f"    return f'{{self.__class__.__qualname__}}({shown})'",
        ]
    made: dict = {}
    exec("\n".join(lines), {"_set": _set}, made)
    return made[m]


def record(cls: type) -> type:
    """Make `cls` an immutable value class over its annotated fields.

    The fields are the class's own annotations, in order; a class-level
    value is that field's default. Instances compare equal when they have
    the same class and equal fields, hash their field tuple, and repr as
    `Name(field=value, ...)`. `__init__` takes the fields positionally
    or by keyword. If the class has a `__post_init__` when decorated,
    `__init__` then calls `self.__post_init__()`, looked up at each call
    so that a wrapper set on the class later is the one called; one that
    normalizes a field writes it with `object.__setattr__`. Assigning or
    deleting any attribute raises `FrozenRecordError`; `cached_property`
    still works, as it writes the instance `__dict__` directly. Fields
    are stored with `object.__setattr__`, so on CPython 3.11 and later an
    instance whose cached properties are never computed allocates no
    `__dict__`.

    A method the class defines itself is kept. Each of the others is
    compiled the first time it is called, so a process pays only for the
    methods it uses.
    """
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    if any(n not in cls.__dict__ for n in names[len(names) - len(defaults) :]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    post_init = hasattr(cls, "__post_init__")

    def stub(m: str):
        def first_call(self, *args, **kwargs):
            method = _record_method(m, names, post_init)
            if m == "__init__":
                method.__defaults__ = defaults
            setattr(cls, m, method)
            return method(self, *args, **kwargs)

        return first_call

    for m in ("__init__", "__eq__", "__hash__", "__repr__"):
        if m not in cls.__dict__:
            setattr(cls, m, stub(m))
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


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

# Element kind -> (offsets that must be occupied, offsets that must be empty)
# around the lattice point that identifies the element. A side constrains
# the two cells of its edge, seen from the edge's north or west end. Land
# corners constrain all four cells; golf corners leave the cell diagonal to
# the named empty cell unconstrained.
_PATTERNS: dict[str, tuple[tuple[Pos, ...], tuple[Pos, ...]]] = {
    "w": ((_BR,), (_BL,)),
    "n": ((_BR,), (_TR,)),
    "e": ((_BL,), (_BR,)),
    "s": ((_TR,), (_BR,)),
    "nw": ((_BR,), (_TL, _TR, _BL)),
    "ne": ((_BL,), (_TL, _TR, _BR)),
    "sw": ((_TR,), (_TL, _BL, _BR)),
    "se": ((_TL,), (_TR, _BL, _BR)),
    "nw'": ((_TR, _BL), (_BR,)),
    "ne'": ((_TL, _BR), (_BL,)),
    "sw'": ((_TL, _BR), (_TR,)),
    "se'": ((_TR, _BL), (_TL,)),
}


# The four cells around a lattice point.
_AROUND_POINT = (_TL, _TR, _BL, _BR)

# Element kind -> its axis class: 'v' vertical edge, 'h' horizontal edge,
# 'p' lattice point.
_AXIS = {"w": "v", "e": "v", "n": "h", "s": "h"} | dict.fromkeys(CORNER_KINDS, "p")

# Element kind -> the cells it touches around its lattice point: both cells
# of a side's edge, or the four cells around a corner.
_TOUCHED = {
    kind: inside + outside if kind in SIDE_KINDS else _AROUND_POINT
    for kind, (inside, outside) in _PATTERNS.items()
}


_AROUND8 = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)


def bits(mask: int) -> list[int]:
    """The indices of the set bits of a non-negative mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@record
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
        return _AXIS[self.kind]

    @property
    def key(self) -> Key:
        """Geometric identity used when elements of different kinds meet."""
        return (self.axis, self.row, self.col)


@record
class Selector:
    """An element kind plus an extremeness filter on its inside cells."""

    kind: str
    filter: str = FILTER_ANY

    def __post_init__(self) -> None:
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown contour element kind {self.kind!r}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown extremeness filter {self.filter!r}")

    @property
    def axis(self) -> str:
        """The axis class of the elements the selector picks."""
        return _AXIS[self.kind]

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


@record
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

    @classmethod
    def _trusted(
        cls,
        cells: tuple[tuple[int, int, str], ...],
        rendering: Optional[str] = None,
        bbox: Optional[tuple[int, int, int, int]] = None,
    ) -> "Word":
        """A word built without validation, for internal callers whose
        cells are valid by construction.

        Trust contract: `cells` is non-empty, sorted, free of duplicate
        positions, with integral positions and good letters, exactly as
        `__post_init__` would leave it. A given `rendering` or `bbox` must
        equal what that property computes; it is stored, not recomputed.
        Nothing is checked. Public `Word(...)` and the parsers validate.
        Each is stored as `__init__` stores a field, so it reads as the
        cached property would (also through `__dict__`), and a word whose
        other cached properties are never computed holds no `__dict__`.

        Callers: `translate` (an integral shift), the tile search in
        `tiling` (cells and drawn rows joined row by row, so in row-major
        order, with the rendering), and `compose._Plan.place` (the sorted
        union of two valid words whose occupancy masks share no bit at the
        offset, shifted to row and column 0, with the box it computed from
        the offset and the two words' boxes).
        """
        w = object.__new__(cls)
        _set(w, "cells", cells)
        if rendering is not None:
            _set(w, "rendering", rendering)
        if bbox is not None:
            _set(w, "bbox", bbox)
        return w

    @cached_property
    def cell_map(self) -> dict[Pos, str]:
        return {(r, c): letter for r, c, letter in self.cells}

    @cached_property
    def positions(self) -> frozenset[Pos]:
        return frozenset((r, c) for r, c, _ in self.cells)

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        """(min_row, min_col, max_row, max_col) over occupied cells; the
        cells are sorted, so the rows are the first and last cells'. A word
        made by `_trusted` may hold it primed, as it may its rendering."""
        cols = [c for _, c, _ in self.cells]
        return (self.cells[0][0], min(cols), self.cells[-1][0], max(cols))

    @cached_property
    def rendering(self) -> str:
        """The bounding box drawn one text row per lattice row, '.' where
        empty, rows joined by newlines; the same for every translation.

        A word made by `_trusted` may hold it primed. The builder vouches
        for it as for the cells (sorted, duplicate-free, good letters): it
        is what this property computes, and it is never checked.
        """
        r0, c0, r1, c1 = self.bbox
        rows = [[FILLER] * (c1 - c0 + 1) for _ in range(r1 - r0 + 1)]
        for r, c, letter in self.cells:
            rows[r - r0][c - c0] = letter
        return "\n".join(map("".join, rows))

    @property
    def height(self) -> int:
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def width(self) -> int:
        return self.bbox[3] - self.bbox[1] + 1

    @cached_property
    def _kept(self) -> dict:
        """What `board`, `mask` and `selection` computed, by argument."""
        return {}

    def board(self, cols: int) -> tuple[int, int, int, int]:
        """The word as bitboards (stride, occupancy, extreme cells, corners
        of its cells) in the frame of words at most `cols` wide.

        With pad = cols + 2 and stride = 3 * pad, cell (r, c) and lattice
        point (r, c) are bit (r - top + 1) * stride + c - left + pad, for
        the word's least row top and column left. A shift by
        dr * stride + dc with |dc| <= cols + 2 then moves every point by
        (dr, dc): no column wraps into the next row.
        """
        got = self._kept.get(cols)
        if got is None:
            r0, c0, _, _ = self.bbox
            pad, stride = cols + 2, 3 * cols + 6
            occ = sum(1 << ((r - r0 + 1) * stride + c - c0 + pad) for r, c, _ in self.cells)
            ones = twos = 0  # cells with at least one, and two, occupied neighbours
            for dr, dc in _AROUND8:
                step = dr * stride + dc  # bit i of nb is bit i + step of occ
                nb = occ >> step if step > 0 else occ << -step
                twos |= ones & nb
                ones |= nb
            points = occ | occ << 1 | occ << stride | occ << stride + 1
            got = self._kept[cols] = (stride, occ, occ & ~twos, points)
        return got

    def _decode(self, mask: int) -> list[Pos]:
        """The positions of the bits of a mask of `board(self.width)`."""
        r0, c0, _, _ = self.bbox
        pad = self.width + 2
        return [(r0 - 1 + i // (3 * pad), c0 - pad + i % (3 * pad)) for i in bits(mask)]

    @cached_property
    def contour(self) -> frozenset[Element]:
        """Every side edge and corner point on the boundary, holes included."""
        return frozenset(
            Element(kind, r, c)
            for kind in ELEMENT_KINDS
            for _, r, c in self.selection(Selector(kind))
        )

    @cached_property
    def extreme_cells(self) -> frozenset[Pos]:
        """Cells with at most one occupied cell among their 8 neighbours."""
        return frozenset(self._decode(self.board(self.width)[2]))

    def mask(self, sel: Selector, cols: int) -> int:
        """The lattice points of the contour elements `sel` picks, as a
        mask of `board(cols)`, kept on the word once asked for.

        The points of a kind are the AND of its pattern's occupied and
        empty cells, each shifted onto the point. With a filter, an
        element is picked when all (extreme) or none (nonextreme) of the
        occupied cells it touches are extreme, so the points touching a
        bad cell are cleared.
        """
        key = (sel.kind, sel.filter, cols)  # hashes faster than sel
        picked = self._kept.get(key)
        if picked is None:
            stride, occ, xs, _ = self.board(cols)
            inside, outside = _PATTERNS[sel.kind]
            # Pattern cells sit north or west of the point: shifts go up.
            picked = -1
            for dr, dc in inside:
                picked &= occ << -dr * stride - dc
            for dr, dc in outside:
                picked &= ~(occ << -dr * stride - dc)
            if sel.filter != FILTER_ANY:
                bad = occ & ~xs if sel.filter == FILTER_EXTREME else xs
                for dr, dc in _TOUCHED[sel.kind]:
                    picked &= ~(bad << -dr * stride - dc)
            self._kept[key] = picked
        return picked

    def selection(self, sel: Selector) -> frozenset[Key]:
        """Keys (axis, row, col) of the contour elements `sel` picks, kept
        on the word once asked for: the bits of its mask in the word's
        own frame."""
        keys = self._kept.get(sel)
        if keys is None:
            axis = sel.axis
            keys = self._kept[sel] = frozenset(
                [(axis, r, c) for r, c in self._decode(self.mask(sel, self.width))]
            )
        return keys

    def __len__(self) -> int:
        return len(self.cells)


def translate(w: Word, dr: int, dc: int) -> Word:
    """Shift every cell by (dr, dc).

    An integral shift keeps a valid word's cells sorted, distinct and
    well lettered, so the result is built trusted.
    """
    if not isinstance(dr, int) or not isinstance(dc, int):
        raise ValueError(f"shift must be integral: ({dr!r}, {dc!r})")
    return Word._trusted(
        tuple((r + dr, c + dc, letter) for r, c, letter in w.cells),
        w.__dict__.get("rendering"),
    )


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


def select(w: Word, sel: Selector) -> frozenset[Element]:
    """Contour elements of one kind, optionally filtered by extremeness."""
    return frozenset(Element(sel.kind, r, c) for _, r, c in w.selection(sel))


def render_ascii(w: Word) -> str:
    """One text row per lattice row of the bounding box, '.' when empty."""
    return w.rendering


_LAST_CHAR = 0x10FFFF  # the code point of the last character


def word_sort_key(w: Word) -> str:
    """Stable listing order: fewest cells first, then row-major rendering
    with '/' between rows.

    The key is one string, which sorts about three times faster than a
    (count, picture) tuple: the cell count as one character, then the
    picture. From the last character's code point on, the count is that
    character, then its number of decimal digits as a character, then
    the digits, so that every count orders before any picture does.
    """
    n = len(w.cells)
    picture = w.rendering.replace("\n", "/")
    if n < _LAST_CHAR:
        return chr(n) + picture
    digits = str(n)
    return f"{_LAST_CHAR:c}{len(digits):c}{digits}{picture}"


class BudgetExhausted(RuntimeError):
    """A bounded search exceeded its node budget.

    `partial` optionally carries whatever the search had produced so far,
    so callers can report a marked partial result instead of nothing.
    """

    def __init__(self, message: str, partial: object = None):
        super().__init__(message)
        self.partial = partial


class Budget:
    """Mutable countdown of search steps; shared across one whole run."""

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExhausted("node budget exhausted")


@record
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


# ---------------------------------------------------------------------------
# Text


# Deepest nesting the restriction, expression, library and scenario
# parsers accept. It keeps parsing, and every walk of the parsed tree, far
# inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error carrying the offending offset in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


def excerpt(text: str, pos: int) -> str:
    """At most 40 characters of `text` around offset `pos`, quoted."""
    start = max(pos - 20, 0)
    return repr(text[start : start + 40])


class Cursor:
    """The tokens of one text and a read position, for the restriction,
    expression, module library and scenario grammars.

    `items` are the strings `pattern.findall` returns. With a group in
    the pattern, the empty ones are dropped, so an alternative outside
    the group, such as a comment, is skipped; so is every character that
    no alternative matches.

    The cursor bounds nesting per path as the parser reads. `depth`
    counts the constructs open at the cursor, entered by `nest`. `reach`
    is the deepest path so far in the tree being read; `chain` puts the
    operands before each link one level deeper. Both stay within
    MAX_NESTING, so parsing and every walk of the parsed tree stay within
    the recursion limit.

    Every syntax error is a ParseError from `fail`, at the offset of a
    token, quoting a short excerpt of the text around it.
    """

    def __init__(self, pattern: re.Pattern, text: str) -> None:
        items = pattern.findall(text)
        self.items = [tok for tok in items if tok] if pattern.groups else items
        self.pattern, self.text = pattern, text
        self.at = 0
        self.depth = self.reach = 0

    def peek(self) -> Optional[str]:
        return self.items[self.at] if self.at < len(self.items) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of text")
        if expected is not None and tok != expected:
            self.fail(f"expected {expected!r}, got {tok!r}")
        self.at += 1
        return tok

    def end(self) -> None:
        """Fail unless every token has been read."""
        if self.at < len(self.items):
            self.fail(f"unexpected {self.items[self.at]!r}")

    def nest(self, levels: int = 1) -> None:
        """Enter `levels` more constructs; callers restore `depth` on leaving."""
        self.depth += levels
        if self.depth > self.reach:
            self.reach = self.depth
        if self.reach > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING}")

    def chain(self, first, ops: tuple, link):
        """A left-associative chain: `first(self)`, then, while the next
        token is one of `ops`, `node = link(self, node)`.

        Each link puts the operands before it one level deeper, before
        the link reads its own; a link reads its operands at the chain's
        depth unless it nests them.
        """
        outer, self.reach = self.reach, self.depth
        node = first(self)
        while self.peek() in ops:
            self.reach += 1
            self.nest(0)  # checks the bound
            node = link(self, node)
        if outer > self.reach:
            self.reach = outer
        return node

    def fail(self, message: str, at: Optional[int] = None) -> NoReturn:
        """Raise a ParseError at token `at`, by default the next one; the
        offset of the end of the text when there is no such token."""
        k = self.at if at is None else at
        pos = len(self.text)
        found = self.pattern.finditer(self.text)
        if self.pattern.groups:
            found = (m for m in found if m.group(1))
        for i, m in enumerate(found):
            if i == k:
                pos = m.start()
                break
        raise ParseError(f"{message} in {excerpt(self.text, pos)}", pos)


def source_lines(text: str) -> Iterator[str]:
    """The lines of a text format: each cut at its '--' comment and
    trimmed of blanks, and those left empty skipped."""
    for raw in text.splitlines():
        line = raw.split("--", 1)[0].strip()
        if line:
            yield line


def corpus_text(name: str) -> str:
    """Text of a packaged corpus file."""
    return resources.files("gridlang").joinpath("corpus", name).read_text()
