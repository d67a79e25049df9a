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
disjoint, and the restriction holds. Each call compiles the restriction
once into a plan: numbered selectors, the conjunction-spine comparisons,
and one predicate over the two words' selections. Candidate offsets
come from the spine, or else from contact. A spine '=' gives the one
offset min(a) - min(b), exactly, as translation keeps the order of keys
(axis, row, col); every candidate still meets the whole predicate.
Restricted iteration (star) closes a language under composing with it
on the right, inside given bounds.

Concrete restriction syntax: selectors w, n, e, s, nw, ne, sw, se and
the primed golf kinds, with an optional extremeness prefix 'x' or
'(!x)'; operators = < > #; connectives & | !; parentheses; the keyword
'always' for the restriction with no requirement.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Optional, Union

from .grid import (
    FILTER_ANY,
    FILTER_EXTREME,
    FILTER_NONEXTREME,
    MAX_NESTING,
    Bounds,
    Budget,
    Key,
    Selector,
    Word,
    normalize,
    record,
    select,  # unused here; perfbench/layers.py wraps `compose.select`
)

Offset = tuple[int, int]

COMPARISON_OPS = ("=", "<", ">", "#")


@record
class Always:
    """Restriction satisfied by every placement."""


@record
class Comparison:
    left: Selector
    op: str
    right: Selector

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@record
class Not:
    item: "Restriction"


@record
class And:
    items: tuple["Restriction", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a conjunction needs at least two operands")


@record
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
        self.depth = 0

    def nest(self) -> None:
        """Enter one more nested construct; callers restore `depth` on leaving."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING}")

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
        cur.nest()
        item = Not(_parse_unary(cur))
        cur.depth -= 1
        return item
    # '(!x)' opens a non-extreme selector, not a grouped subformula.
    if cur.startswith("(!x)"):
        return _parse_comparison(cur)
    if cur.peek() == "(":
        cur.take("(")
        cur.nest()
        inner = parse_restriction_at(cur)
        cur.depth -= 1
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
    """Canonical text form; parsing it back yields an equal tree.

    Only the brackets the tree needs are written, so the text nests no
    deeper than any text that parses to the same tree.
    """
    if isinstance(r, Always):
        return "always"
    if isinstance(r, Comparison):
        return f"{r.left}{r.op}{r.right}"
    if isinstance(r, Not):
        return "!" + _wrap(r.item, (And, Or))
    if isinstance(r, And):
        return "&".join(_wrap(i, (And, Or)) for i in r.items)
    if isinstance(r, Or):
        return "|".join(_wrap(i, (Or,)) for i in r.items)
    raise TypeError(f"not a restriction: {r!r}")


def _wrap(r: Restriction, grouped: tuple[type, ...]) -> str:
    s = format_restriction(r)
    return "(" + s + ")" if isinstance(r, grouped) else s


def uses_extremeness(r: Restriction) -> bool:
    return any(sel.filter != FILTER_ANY for sels in _Plan(r).sels for sel in sels)


# ---------------------------------------------------------------------------
# Plans


class _Plan:
    """A restriction compiled for one call: `sels` numbers the left and
    the right selectors, `spine` holds the spine comparisons as (left
    index, op, right index), '=' first, and `holds` is the predicate over
    the two words' selection tuples and the right word's offset."""

    def __init__(self, r: Restriction) -> None:
        self.sels: tuple[list[Selector], list[Selector]] = ([], [])
        self.spine: list[tuple[int, str, int]] = []
        self.holds = self._compile(r, True)
        self.spine.sort(key=lambda atom: atom[1] != "=")
        # A spine '<', '>' or '#' never holds with an empty side.
        self.needed = tuple({atom[k] for atom in self.spine if atom[1] != "="} for k in (0, 2))

    def _compile(self, r: Restriction, on_spine: bool):
        if isinstance(r, Always):
            return lambda a, b, dr, dc: True
        if isinstance(r, Not):
            item = self._compile(r.item, False)
            return lambda a, b, dr, dc: not item(a, b, dr, dc)
        if isinstance(r, (And, Or)):
            join, spine = (all, on_spine) if isinstance(r, And) else (any, False)
            items = tuple(self._compile(item, spine) for item in r.items)
            return lambda a, b, dr, dc: join(f(a, b, dr, dc) for f in items)
        if not isinstance(r, Comparison):
            raise TypeError(f"not a restriction: {r!r}")
        for sels, sel in zip(self.sels, (r.left, r.right)):
            if sel not in sels:
                sels.append(sel)
        i, j = self.sels[0].index(r.left), self.sels[1].index(r.right)
        if on_spine:
            self.spine.append((i, r.op, j))
        # The right selection sits at offset (dr, dc); membership is tested
        # by shifting single keys rather than translating whole sets.
        if r.op == "=":
            return lambda a, b, dr, dc: len(a[i]) == len(b[j]) and all(
                (ax, row - dr, col - dc) in b[j] for ax, row, col in a[i]
            )
        if r.op == "<":
            return lambda a, b, dr, dc: bool(a[i]) and all(
                (ax, row - dr, col - dc) in b[j] for ax, row, col in a[i]
            )
        if r.op == ">":
            return lambda a, b, dr, dc: bool(b[j]) and all(
                (ax, row + dr, col + dc) in a[i] for ax, row, col in b[j]
            )
        return lambda a, b, dr, dc: any(
            (ax, row + dr, col + dc) in a[i] for ax, row, col in b[j]
        )

    def selections(self, w: Word, side: int) -> Optional[tuple[frozenset[Key], ...]]:
        """The word's selections as operand `side` (0 left, 1 right), or
        None when a spine comparison that needs one finds it empty."""
        got = tuple(map(w.selection, self.sels[side]))
        return None if any(not got[k] for k in self.needed[side]) else got

    def offsets(self, v: Word, a, w: Word, b) -> Iterable[Offset]:
        """Offsets of w that every spine comparison allows, or, when none
        gives information, those sharing a cell-corner lattice point with
        v. A spine comparison that holds makes the placed contours share
        an element, hence a lattice point: contact needs no own test."""
        cands: Optional[set[Offset]] = None
        for i, op, j in self.spine:
            x, y = a[i], b[j]
            if op == "=":
                if len(x) != len(y):
                    return ()
                if not x:
                    continue  # two empty selections are equal anywhere
                # Translation keeps the (axis, row, col) order, so equal
                # sets line up their least keys.
                (ax, r0, c0), (ay, r1, c1) = min(x), min(y)
                offs = {(r0 - r1, c0 - c1)} if ax == ay else set()
            elif op == "<":
                ax0, r0, c0 = min(x)
                offs = {(r0 - r, c0 - c) for ax, r, c in y if ax == ax0}
            elif op == ">":
                ax0, r0, c0 = min(y)
                offs = {(r - r0, c - c0) for ax, r, c in x if ax == ax0}
            else:
                offs = {(ar - br, ac - bc) for ax, ar, ac in x for bx, br, bc in y if ax == bx}
            cands = offs if cands is None else cands & offs
            if len(cands) < 2:
                break  # the predicate tests the rest of the spine
        if cands is None:
            points_w = _lattice_points(w)
            return {(pr - qr, pc - qc) for pr, pc in _lattice_points(v) for qr, qc in points_w}
        return cands

    def place(self, v: Word, a, w: Word, b) -> Iterator[Word]:
        """Normalized joint placements of normalized v and w that keep
        cells disjoint and satisfy the restriction."""
        occ_v = v.positions
        for dr, dc in self.offsets(v, a, w, b):
            if not self.holds(a, b, dr, dc):
                continue
            placed = [(pr + dr, pc + dc, letter) for pr, pc, letter in w.cells]
            if any((pr, pc) in occ_v for pr, pc, _ in placed):
                continue  # overlap
            # Both words start at row and column 0: shift the union there.
            sr, sc = max(-dr, 0), max(-dc, 0)
            cells = v.cells + tuple(placed) if sr == sc == 0 else [
                (pr + sr, pc + sc, letter) for pr, pc, letter in (*v.cells, *placed)
            ]
            yield Word._trusted(tuple(sorted(cells)))


def _lattice_points(w: Word) -> set[Offset]:
    return {(r + a, c + b) for r, c, _ in w.cells for a in (0, 1) for b in (0, 1)}


def eval_restriction(r: Restriction, v: Word, w: Word) -> bool:
    """Evaluate with both words already placed in a common frame."""
    plan = _Plan(r)
    a, b = (tuple(map(u.selection, sels)) for u, sels in zip((v, w), plan.sels))
    return plan.holds(a, b, 0, 0)


# ---------------------------------------------------------------------------
# Placement search


def compose_words(v: Word, w: Word, r: Restriction) -> frozenset[Word]:
    """All normalized joint placements of v and w satisfying the restriction."""
    v, w, plan = normalize(v), normalize(w), _Plan(r)
    a, b = plan.selections(v, 0), plan.selections(w, 1)
    if a is None or b is None:
        return frozenset()
    return frozenset(plan.place(v, a, w, b))


def compose_langs(
    l1: Iterable[Word],
    l2: Iterable[Word],
    r: Restriction,
    bounds: Bounds,
    budget: Budget,
) -> frozenset[Word]:
    """Pointwise composition of two finite languages, filtered to bounds.

    Every pair is charged to `budget`, which raises BudgetExhausted once
    it runs out. A pair whose cells together exceed `bounds.max_cells`
    is not placed: placed cells are disjoint, so every result would have
    that many cells and fail the bounds. A left word that fits beside
    some right word fetches its selections once, a right word the first
    time a pair needs them.
    """
    plan = _Plan(r)
    right = sorted((normalize(w) for w in l2), key=len)
    sizes = [len(w) for w in right]
    fetched: list = [False] * len(right)  # False: not fetched yet
    out: set[Word] = set()
    for v in l1:
        v = normalize(v)
        budget.charge(len(right))
        cut = bisect_right(sizes, bounds.max_cells - len(v))
        a = plan.selections(v, 0) if cut else None
        if a is None:
            continue
        for k in range(cut):
            w, b = right[k], fetched[k]
            if b is False:
                b = fetched[k] = plan.selections(w, 1)
            if b is not None:
                out.update(filter(bounds.admits, plan.place(v, a, w, b)))
    return frozenset(out)


def star(
    l: Iterable[Word],
    r: Restriction,
    bounds: Bounds,
    budget: Budget,
    closed: frozenset[Word] = frozenset(),
) -> frozenset[Word]:
    """Least language containing l and closed under self-composition.

    Closure under S (r) S rather than S (r) l: the two differ when a
    restriction inspects extreme cells of a composite operand, and only
    the former makes the operator idempotent. The bounded universe is
    finite and composition is monotone, so the loop reaches the least
    fixed point. Each round composes only the pairs that touch the
    frontier, each pair once; older pairs were already exhausted. Every
    pair is charged to `budget`, as in compose_langs.

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
