"""Contour-restricted composition of two-dimensional words.

A restriction is a boolean formula over atomic comparisons between
contour selectors. The left selector of a comparison is evaluated on the
first operand word, the right selector on the second; the selected
element sets are compared geometrically once both words sit in a common
coordinate frame.

Comparison operators: '=' set equality, '<' included-in, '>' includes,
'#' non-empty intersection. Elements of different kinds compare by
location and axis class only, so a golf corner can meet a land corner at
the same lattice point and a west edge can equal an east edge on the
same vertical unit segment.

Inclusion is read as a statement about existing elements: '<' fails when
the left selection is empty and '>' fails when the right selection is
empty. Plain equality stays pure, so two empty selections are equal,
and '#' needs a common element by definition.

Composition places the second word at every integer offset where the
two closed regions share at least one lattice point, cells stay
disjoint, and the restriction holds. Restricted iteration (star) closes
a language under composing with it on the right, inside given bounds.

Concrete restriction syntax: selectors w, n, e, s, nw, ne, sw, se and
the primed golf kinds, with an optional extremeness prefix 'x' or
'(!x)'; operators = < > #; connectives & | !; parentheses; the keyword
'always' for the restriction with no requirement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .grid import (
    FILTER_ANY,
    FILTER_EXTREME,
    FILTER_NONEXTREME,
    Bounds,
    Budget,
    Selector,
    Word,
    contour,
    normalize,
    select,
)

Key = tuple[str, int, int]
Offset = tuple[int, int]

COMPARISON_OPS = ("=", "<", ">", "#")


@dataclass(frozen=True)
class Always:
    """Restriction satisfied by every placement."""


@dataclass(frozen=True)
class Comparison:
    left: Selector
    op: str
    right: Selector

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Not:
    item: "Restriction"


@dataclass(frozen=True)
class And:
    items: tuple["Restriction", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a conjunction needs at least two operands")


@dataclass(frozen=True)
class Or:
    items: tuple["Restriction", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a disjunction needs at least two operands")


Restriction = Union[Always, Comparison, Not, And, Or]


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error carrying the offending offset in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class Cursor:
    """Scanning state shared by the restriction and expression grammars."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        t = self.text
        while self.pos < len(t):
            ch = t[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif t.startswith("--", self.pos):
                nl = t.find("\n", self.pos)
                self.pos = len(t) if nl < 0 else nl + 1
            else:
                break

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> bool:
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str) -> None:
        if not self.take(s):
            self.fail(f"expected {s!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, message: str) -> None:
        raise ParseError(message, self.pos)


def parse_restriction(text: str) -> Restriction:
    cur = Cursor(text)
    r = parse_restriction_at(cur)
    if not cur.at_end():
        cur.fail("trailing input after restriction")
    return r


def parse_restriction_at(cur: Cursor) -> Restriction:
    items = [_parse_and(cur)]
    while True:
        cur.skip_ws()
        if not cur.take("|"):
            break
        items.append(_parse_and(cur))
    return items[0] if len(items) == 1 else Or(tuple(items))


def _parse_and(cur: Cursor) -> Restriction:
    items = [_parse_unary(cur)]
    while True:
        cur.skip_ws()
        if not cur.take("&"):
            break
        items.append(_parse_unary(cur))
    return items[0] if len(items) == 1 else And(tuple(items))


def _parse_unary(cur: Cursor) -> Restriction:
    cur.skip_ws()
    if cur.take("!"):
        return Not(_parse_unary(cur))
    # '(!x)' opens a non-extreme selector, not a grouped subformula.
    if cur.startswith("(!x)"):
        return _parse_comparison(cur)
    if cur.peek() == "(":
        cur.take("(")
        inner = parse_restriction_at(cur)
        cur.skip_ws()
        cur.expect(")")
        return inner
    if cur.startswith("always"):
        after = cur.text[cur.pos + 6 : cur.pos + 7]
        if not (after.isalnum() or after == "_"):
            cur.pos += 6
            return Always()
    return _parse_comparison(cur)


def _parse_comparison(cur: Cursor) -> Comparison:
    left = parse_selector_at(cur)
    cur.skip_ws()
    op = cur.peek()
    if op not in COMPARISON_OPS:
        cur.fail("expected comparison operator =, <, > or #")
    cur.pos += 1
    right = parse_selector_at(cur)
    return Comparison(left, op, right)


_KIND_TOKENS = ("nw'", "ne'", "sw'", "se'", "nw", "ne", "sw", "se", "w", "n", "e", "s")


def parse_selector_at(cur: Cursor) -> Selector:
    cur.skip_ws()
    filt = FILTER_ANY
    if cur.take("(!x)"):
        filt = FILTER_NONEXTREME
    elif cur.peek() == "x" and cur.text[cur.pos + 1 : cur.pos + 2] in "nsew":
        cur.pos += 1
        filt = FILTER_EXTREME
    for cand in _KIND_TOKENS:
        if cur.take(cand):
            return Selector(cand, filt)
    cur.fail("expected contour element kind")
    raise AssertionError("unreachable")


def format_restriction(r: Restriction) -> str:
    """Canonical text form; parsing it back yields an equal tree."""
    if isinstance(r, Always):
        return "always"
    if isinstance(r, Comparison):
        return f"{r.left}{r.op}{r.right}"
    if isinstance(r, Not):
        return "!" + _wrap(r.item)
    if isinstance(r, And):
        return "&".join(_wrap(i) for i in r.items)
    if isinstance(r, Or):
        return "|".join(_wrap(i) for i in r.items)
    raise TypeError(f"not a restriction: {r!r}")


def _wrap(r: Restriction) -> str:
    s = format_restriction(r)
    if isinstance(r, (Comparison, And, Or)):
        return "(" + s + ")"
    return s


def restriction_selectors(r: Restriction) -> list[Selector]:
    """Every selector mentioned in the formula, left to right."""
    if isinstance(r, Comparison):
        return [r.left, r.right]
    if isinstance(r, Not):
        return restriction_selectors(r.item)
    if isinstance(r, (And, Or)):
        out: list[Selector] = []
        for item in r.items:
            out.extend(restriction_selectors(item))
        return out
    return []


def uses_extremeness(r: Restriction) -> bool:
    return any(sel.filter != FILTER_ANY for sel in restriction_selectors(r))


# ---------------------------------------------------------------------------
# Evaluation


def _selected_keys(w: Word, sel: Selector) -> frozenset[Key]:
    keys = w.selected_keys.get(sel)
    if keys is None:
        keys = w.selected_keys[sel] = frozenset(el.key for el in select(w, sel))
    return keys


def _comparison_holds(
    a: frozenset[Key], op: str, b: frozenset[Key], dr: int, dc: int
) -> bool:
    # b is interpreted at offset (dr, dc); membership is tested by shifting
    # single keys rather than translating whole sets.
    if op == "=":
        return len(a) == len(b) and all(
            (ax, r - dr, c - dc) in b for ax, r, c in a
        )
    if op == "<":
        return bool(a) and all((ax, r - dr, c - dc) in b for ax, r, c in a)
    if op == ">":
        return bool(b) and all((ax, r + dr, c + dc) in a for ax, r, c in b)
    return any((ax, r + dr, c + dc) in a for ax, r, c in b)


def _holds_at(r: Restriction, v: Word, w: Word, dr: int, dc: int) -> bool:
    if isinstance(r, Always):
        return True
    if isinstance(r, Comparison):
        return _comparison_holds(
            _selected_keys(v, r.left), r.op, _selected_keys(w, r.right), dr, dc
        )
    if isinstance(r, Not):
        return not _holds_at(r.item, v, w, dr, dc)
    if isinstance(r, And):
        return all(_holds_at(item, v, w, dr, dc) for item in r.items)
    if isinstance(r, Or):
        return any(_holds_at(item, v, w, dr, dc) for item in r.items)
    raise TypeError(f"not a restriction: {r!r}")


def eval_restriction(r: Restriction, v: Word, w: Word) -> bool:
    """Evaluate with both words already placed in a common frame."""
    return _holds_at(r, v, w, 0, 0)


def contact_elements(v: Word, w: Word) -> frozenset[Key]:
    """Geometric locations shared by the two placed contours.

    Informational only; no comparison operator reads this set.
    """
    keys_v = {el.key for el in contour(v)}
    return frozenset(el.key for el in contour(w) if el.key in keys_v)


# ---------------------------------------------------------------------------
# Placement search


def _positive_atoms(r: Restriction) -> list[Comparison]:
    """Comparisons on the top-level conjunction spine."""
    if isinstance(r, Comparison):
        return [r]
    if isinstance(r, And):
        out: list[Comparison] = []
        for item in r.items:
            out.extend(_positive_atoms(item))
        return out
    return []


def _atom_offsets(
    atom: Comparison, v: Word, w: Word
) -> Optional[frozenset[Offset]]:
    """Offsets at which one comparison could hold; None means no information."""
    a = _selected_keys(v, atom.left)
    b = _selected_keys(w, atom.right)
    if atom.op == "=":
        if not a and not b:
            return None  # holds at every offset
        if not a or not b:
            return frozenset()  # can never hold
        ax0, r0, c0 = min(b)
        return frozenset((r - r0, c - c0) for ax, r, c in a if ax == ax0)
    if atom.op == "<":
        if not a or not b:
            return frozenset()
        ax0, r0, c0 = min(a)
        return frozenset((r0 - r, c0 - c) for ax, r, c in b if ax == ax0)
    if atom.op == ">":
        if not a or not b:
            return frozenset()
        ax0, r0, c0 = min(b)
        return frozenset((r - r0, c - c0) for ax, r, c in a if ax == ax0)
    # '#'
    if not a or not b:
        return frozenset()
    return frozenset(
        (ar - br, ac - bc)
        for ax_a, ar, ac in a
        for ax_b, br, bc in b
        if ax_a == ax_b
    )


def _candidate_offsets(
    r: Restriction, v: Word, w: Word
) -> Optional[frozenset[Offset]]:
    cands: Optional[frozenset[Offset]] = None
    for atom in _positive_atoms(r):
        offs = _atom_offsets(atom, v, w)
        if offs is None:
            continue
        cands = offs if cands is None else (cands & offs)
        if not cands:
            return frozenset()
    return cands


def _contact_window(v: Word, w: Word) -> Iterable[Offset]:
    hv, wv = v.height, v.width
    hw, ww = w.height, w.width
    return (
        (dr, dc)
        for dr in range(-hw, hv + 1)
        for dc in range(-ww, wv + 1)
    )


def _placements(
    r: Restriction,
    v: Word,
    w: Word,
    offsets: Iterable[Offset],
    require_contact: bool,
) -> frozenset[Word]:
    occ_v = v.positions
    out: set[Word] = set()
    for dr, dc in offsets:
        placed = [(pr + dr, pc + dc) for pr, pc, _ in w.cells]
        if any(p in occ_v for p in placed):
            continue  # overlap
        if require_contact and not any(
            (pr + a, pc + b) in occ_v
            for pr, pc in placed
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
        ):
            continue  # closed regions never touch
        if not _holds_at(r, v, w, dr, dc):
            continue
        merged = v.cells + tuple(
            (pr + dr, pc + dc, letter) for pr, pc, letter in w.cells
        )
        out.add(normalize(Word(merged)))
    return frozenset(out)


def _contact_results(r: Restriction, v: Word, w: Word) -> frozenset[Word]:
    cands = _candidate_offsets(r, v, w)
    if cands is None:
        return _placements(r, v, w, _contact_window(v, w), require_contact=True)
    # Candidates come from a comparison on the conjunction spine, and when
    # it holds the two placed contours share an element, hence a lattice
    # point: contact needs no separate test.
    return _placements(r, v, w, cands, require_contact=False)


def compose_words(
    v: Word,
    w: Word,
    r: Restriction,
    *,
    require_contact: bool = True,
    window: Optional[Iterable[Offset]] = None,
) -> frozenset[Word]:
    """All normalized joint placements of v and w satisfying the restriction.

    The experimentation hooks relax the default rule: `require_contact=False`
    drops the shared-lattice-point requirement, in which case an explicit
    finite offset `window` must be supplied.
    """
    v = normalize(v)
    w = normalize(w)
    if window is None:
        if not require_contact:
            raise ValueError("contact-free composition needs an explicit window")
        return _contact_results(r, v, w)
    return _placements(r, v, w, tuple(window), require_contact)


def compose_langs(
    l1: Iterable[Word],
    l2: Iterable[Word],
    r: Restriction,
    bounds: Bounds,
    budget: Optional[Budget] = None,
) -> frozenset[Word]:
    """Pointwise composition of two finite languages, filtered to bounds.

    Every pair is charged to the budget. A pair whose cells together
    exceed `bounds.max_cells` is not placed: placed cells are disjoint,
    so every result would have that many cells and fail the bounds.
    """
    right = sorted((normalize(w) for w in l2), key=len)
    sizes = [len(w) for w in right]
    out: set[Word] = set()
    for v in l1:
        v = normalize(v)
        if budget is not None:
            budget.charge(len(right))
        for w in right[: bisect_right(sizes, bounds.max_cells - len(v))]:
            for res in _contact_results(r, v, w):
                if bounds.admits(res):
                    out.add(res)
    return frozenset(out)


def star(
    l: Iterable[Word],
    r: Restriction,
    bounds: Bounds,
    budget: Optional[Budget] = None,
    closed: frozenset[Word] = frozenset(),
) -> frozenset[Word]:
    """Least language containing l and closed under self-composition.

    Closure under S (r) S rather than S (r) l: the two differ when a
    restriction inspects extreme cells of a composite operand, and only
    the former makes the operator idempotent. The bounded universe is
    finite and composition is monotone, so the loop reaches the least
    fixed point. Each round composes only the pairs that touch the
    frontier, each pair once; older pairs were already exhausted.

    `closed` resumes an earlier closure: it must be the star of some
    subset of l under the same restriction and bounds, so its own pairs
    are exhausted and only l's words outside it start the frontier.
    """
    base = frozenset(normalize(v) for v in l if bounds.admits(v))
    frontier = base - closed
    known: set[Word] = set(closed) | frontier
    while frontier:
        grown = set(compose_langs(frontier, known, r, bounds, budget))
        grown |= compose_langs(known - frontier, frontier, r, bounds, budget)
        frontier = frozenset(grown - known)
        known |= frontier
    return frozenset(known)
