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
disjoint, and the restriction holds. Both words are bitboards of one
frame as wide as the bounds, so an offset is one shift and each test is
arithmetic on shifted masks: '=' is ==, '<' and '>' are & ~, '#' and
overlap are &. The restriction is compiled into a plan: numbered
selectors, the conjunction-spine comparisons, and one predicate over the
masks. A Context keeps the plan and the right operand, sorted by size,
from one call to the next; a solve keeps one per expression node. Candidate offsets come from the spine, or else from contact: a
spine '=' gives the one offset low(x) - low(y) of the least bits, all
'<' one AND of shifted masks, all '>' another, each '#' its offset set.
Restricted iteration (star) closes a language under composing with it
on the right, inside given bounds.

Concrete restriction syntax: selectors w, n, e, s, nw, ne, sw, se and
the primed golf kinds, with an optional extremeness prefix 'x' or
'(!x)' written against the kind; operators = < > #; connectives & | !;
parentheses; the keyword 'always' for the restriction with no
requirement. Restriction and expression text share one token pattern,
TOKEN, read through a grid.Cursor: the blanks between tokens are space,
tab, CR and LF, and '--' starts a comment that runs to the end of the
line. Each '!' and each bracket opens one level of nesting, at most
MAX_NESTING deep along each path; an error is a ParseError.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from .grid import (
    ELEMENT_KINDS,
    FILTER_ANY,
    FILTERS,
    MAX_NESTING,  # unused here; kept importable from `compose`
    Bounds,
    Budget,
    Cursor,
    ParseError,  # raised through Cursor.fail; kept importable from `compose`
    Selector,
    Word,
    bits,
    normalize,
    record,
    select,  # unused here; perfbench/layers.py wraps `compose.select`
)

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


# Tokens of restriction and expression text: a selector with its filter,
# 'always', a variable name, or any other character but a blank. '(!x)'
# belongs to its selector, so it opens no group. A '--' comment is skipped.
VAR_NAME = r"[A-Z][A-Za-z0-9_']*"
TOKEN = re.compile(
    rf"--[^\n]*|((?:\(!x\)|x)?(?:[ns][ew]'?|[nsew])|always(?!\w)|{VAR_NAME}|[^ \t\r\n])"
)
_SELECTORS = {str(s): s for s in (Selector(k, f) for k in ELEMENT_KINDS for f in FILTERS)}


def parse_restriction(text: str) -> Restriction:
    cur = Cursor(TOKEN, text)
    r = parse_restriction_at(cur)
    cur.end()
    return r


def parse_restriction_at(cur: Cursor) -> Restriction:
    items = [_parse_and(cur)]
    while cur.peek() == "|":
        cur.at += 1
        items.append(_parse_and(cur))
    return items[0] if len(items) == 1 else Or(tuple(items))


def _parse_and(cur: Cursor) -> Restriction:
    items = [_parse_unary(cur)]
    while cur.peek() == "&":
        cur.at += 1
        items.append(_parse_unary(cur))
    return items[0] if len(items) == 1 else And(tuple(items))


def _parse_unary(cur: Cursor) -> Restriction:
    tok = cur.peek()
    if tok == "always":
        cur.at += 1
        return Always()
    if tok == "!":
        cur.at += 1
        cur.nest()
        item = Not(_parse_unary(cur))
        cur.depth -= 1
        return item
    if tok == "(":
        cur.at += 1
        cur.nest()
        inner = parse_restriction_at(cur)
        cur.depth -= 1
        cur.take(")")
        return inner
    return _parse_comparison(cur)


def _parse_comparison(cur: Cursor) -> Comparison:
    left = parse_selector_at(cur)
    op = cur.peek()
    if op not in COMPARISON_OPS:
        cur.fail("expected comparison operator =, <, > or #")
    cur.at += 1
    return Comparison(left, op, parse_selector_at(cur))


def parse_selector_at(cur: Cursor) -> Selector:
    sel = _SELECTORS.get(cur.peek())
    if sel is None:
        cur.fail("expected contour element kind")
    cur.at += 1
    return sel


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
    return any(sel.filter != FILTER_ANY for sels in _Plan(r, 0).sels for sel in sels)


# ---------------------------------------------------------------------------
# Plans


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _differences(x: int, y: int) -> set[int]:
    """Every p - q for p a bit of x and q a bit of y."""
    ys = bits(y)
    return {p - q for p in bits(x) for q in ys}


class _Plan:
    """A restriction compiled for one frame `cols` columns wide (see
    `Word.board`): `sels` numbers the left and the right selectors, the
    spine comparisons are listed by operator as (left index, right index)
    pairs, '>' ones reversed, and `holds` is the predicate over the two
    words' masks, the left ones shifted by `sv` bits, the right by `sw`."""

    def __init__(self, r: Restriction, cols: int) -> None:
        self.cols, self.pad, self.stride = cols, cols + 2, 3 * cols + 6
        self.sels: tuple[list[Selector], list[Selector]] = ([], [])
        self.spine: dict[str, list[tuple[int, int]]] = {op: [] for op in COMPARISON_OPS}
        # A spine '<', '>' or '#' never holds with an empty side.
        self.needed: tuple[set[int], set[int]] = (set(), set())
        self.holds = self._compile(r, True)

    def _compile(self, r: Restriction, on_spine: bool):
        if isinstance(r, Always):
            return lambda a, b, sv, sw: True
        if isinstance(r, Not):
            item = self._compile(r.item, False)
            return lambda a, b, sv, sw: not item(a, b, sv, sw)
        if isinstance(r, And):
            items = tuple(self._compile(item, on_spine) for item in r.items)

            def every(a, b, sv, sw):
                for f in items:
                    if not f(a, b, sv, sw):
                        return False
                return True

            return every
        if isinstance(r, Or):
            items = tuple(self._compile(item, False) for item in r.items)

            def some(a, b, sv, sw):
                for f in items:
                    if f(a, b, sv, sw):
                        return True
                return False

            return some
        if not isinstance(r, Comparison):
            raise TypeError(f"not a restriction: {r!r}")
        for sels, sel in zip(self.sels, (r.left, r.right)):
            if sel not in sels:
                sels.append(sel)
        i, j = self.sels[0].index(r.left), self.sels[1].index(r.right)
        if r.left.axis != r.right.axis:
            # Elements on different axes never coincide: a constant.
            return lambda a, b, sv, sw: r.op == "=" and not a[i] and not b[j]
        if on_spine:
            self.spine[r.op].append((j, i) if r.op == ">" else (i, j))
            if r.op != "=":
                self.needed[0].add(i)
                self.needed[1].add(j)
        if r.op == "=":
            return lambda a, b, sv, sw: a[i] << sv == b[j] << sw
        if r.op == "<":
            return lambda a, b, sv, sw: a[i] != 0 and not a[i] << sv & ~(b[j] << sw)
        if r.op == ">":
            return lambda a, b, sv, sw: b[j] != 0 and not b[j] << sw & ~(a[i] << sv)
        return lambda a, b, sv, sw: a[i] << sv & b[j] << sw != 0

    def selections(self, w: Word, side: int) -> Optional[tuple[int, ...]]:
        """The masks of the word's selections as operand `side` (0 left,
        1 right), then of its cells and of their corners; None when a
        spine comparison that needs a selection finds it empty."""
        got = [w.mask(sel, self.cols) for sel in self.sels[side]]
        if not all(got[k] for k in self.needed[side]):
            return None
        _, occ, _, points = w.board(self.cols)
        return (*got, occ, points)

    def offsets(self, a, b) -> Iterable[int]:
        """Offsets s = dr * stride + dc of the right word's masks that every
        spine comparison allows, or, when none gives information, those
        where the two words' cell corners meet: a spine comparison that
        holds makes the placed contours share a lattice point."""
        eq, lt, gt, meet = self.spine.values()
        for i, j in eq:
            x, y = a[i], b[j]
            if x or y:  # two empty selections are equal anywhere
                # Translation keeps the order of points: equal sets line up
                # their least bits.
                return (_low(x) - _low(y),) if x.bit_count() == y.bit_count() else ()
        cands: Optional[set[int]] = None
        for atoms, x, y, sign in ((lt, a, b, -1), (gt, b, a, 1)):
            if atoms:  # each x[i] inside y[j]: '<', or '>' with sides swapped
                # With the right word at offset s = sign * (q - low(x_1)), each
                # low(x_k) lands on bit q + low(x_k) - low(x_1) of y_k.
                (i, j), *rest = atoms
                low, q = _low(x[i]), y[j]
                for i, j in rest:
                    d = _low(x[i]) - low
                    q &= y[j] >> d if d >= 0 else y[j] << -d
                offs = {sign * (k - low) for k in bits(q)}
                cands = offs if cands is None else cands & offs
        for i, j in meet:
            x, y = a[i], b[j]
            if cands is None:
                cands = _differences(x, y)
            else:  # keep the offsets where the two selections meet
                cands = {s for s in cands if (x << -s & y if s < 0 else x & y << s)}
        return _differences(a[-1], b[-1]) if cands is None else cands

    def place(self, v: Word, a, w: Word, b, rows: int, cols: int) -> Iterator[Word]:
        """Normalized joint placements of normalized v and w that keep
        cells disjoint, satisfy the restriction, and span at most `rows`
        rows and `cols` columns.

        An offset is tested against that box before anything else: with
        the right word at (dr, dc), the union shifted to row 0 has its last
        row at max(hv, dr + hw) + max(-dr, 0), for hv and hw the two words'
        last rows, and its last column likewise. A placement carries that
        box, so no placed word computes its box from its cells.
        """
        occ_v, occ_w = a[-2], b[-2]
        _, _, hv, cv = v.bbox
        _, _, hw, cw = w.bbox
        for s in self.offsets(a, b):
            dr, dc = divmod(s + self.pad, self.stride)
            dc -= self.pad
            # Both words start at row and column 0: shift the union there.
            sr, sc = max(-dr, 0), max(-dc, 0)
            last_row, last_col = max(hv, dr + hw) + sr, max(cv, dc + cw) + sc
            if last_row >= rows or last_col >= cols:
                continue  # outside the box
            sv, sw = (-s, 0) if s < 0 else (0, s)
            if occ_v << sv & occ_w << sw or not self.holds(a, b, sv, sw):
                continue  # overlap, or the restriction fails
            placed = [(pr + dr, pc + dc, letter) for pr, pc, letter in w.cells]
            cells = v.cells + tuple(placed) if sr == sc == 0 else [
                (pr + sr, pc + sc, letter) for pr, pc, letter in (*v.cells, *placed)
            ]
            yield Word._trusted(tuple(sorted(cells)), bbox=(0, 0, last_row, last_col))


def eval_restriction(r: Restriction, v: Word, w: Word) -> bool:
    """Evaluate with both words already placed in a common frame."""
    (r0, c0, _, c1), (r2, c2, _, c3) = v.bbox, w.bbox
    plan = _Plan(r, max(c1, c3) - min(c0, c2) + 1)
    a, b = (tuple(u.mask(sel, plan.cols) for sel in sels) for u, sels in zip((v, w), plan.sels))
    s = (r2 - r0) * plan.stride + c2 - c0
    return plan.holds(a, b, max(-s, 0), max(s, 0))


# ---------------------------------------------------------------------------
# Placement search


def compose_words(v: Word, w: Word, r: Restriction) -> frozenset[Word]:
    """All normalized joint placements of v and w satisfying the restriction."""
    v, w = normalize(v), normalize(w)
    plan = _Plan(r, max(v.width, w.width))
    a, b = plan.selections(v, 0), plan.selections(w, 1)
    if a is None or b is None:
        return frozenset()
    # The union of two words that share a lattice point fits their summed extents.
    return frozenset(plan.place(v, a, w, b, v.height + w.height, v.width + w.width))


_SIZE = itemgetter(0)


def _entries(words: Iterable[Word]) -> list[list]:
    """Right operand entries [size, word, masks] of the normalized words,
    sorted by size; masks stay False until a pair first needs them."""
    return sorted(([len(w), normalize(w), False] for w in words), key=_SIZE)


class Context:
    """What composition under one restriction and bounds keeps from call to
    call: the compiled plan, and the right operand's words as entries,
    normalized, sorted by size, each with its masks once fetched.

    A solve's `expr.Rounds` keeps one context for each composition and
    star node and extends it by each round's new right words, so no round
    sorts its right operand or compiles its plan again. `held` is the
    language whose words `right` lists.
    """

    def __init__(self, r: Restriction, bounds: Bounds) -> None:
        self.plan = _Plan(r, bounds.max_cols)
        self.held: Optional[frozenset[Word]] = None
        self.right: list[list] = []

    def extend(self, old: frozenset[Word], new: frozenset[Word]) -> list[list]:
        """Hold `new`, a superset of `old`, and return the entries of its
        words outside `old`.

        `old` is what the context holds, unless this is its first use or
        a round cut short by the budget extended it further: then its
        entries are built from `old` again.
        """
        if self.held is not old:
            self.right = _entries(old)
        fresh = _entries(new - old)
        if fresh:  # two sorted runs: the sort merges them
            self.right = sorted(self.right + fresh, key=_SIZE)
        self.held = new
        return fresh


def compose_langs(
    l1: Iterable[Word],
    l2: Iterable,
    r: Union[Restriction, Context],
    bounds: Bounds,
    budget: Budget,
) -> frozenset[Word]:
    """Pointwise composition of two finite languages, filtered to bounds.

    `r` is the restriction, or a Context made for it and `bounds`; then
    `l2` lists entries of that context (its `right`, or what its `extend`
    returned), so nothing is normalized, sorted or compiled again.
    Otherwise the call compiles the plan and sorts the words of `l2` for
    itself, as a context would, and drops them when it returns.

    Every pair is charged to `budget`, which raises BudgetExhausted once
    it runs out. A pair is placed, in the frame `bounds.max_cols` wide,
    only when both words fit the bounds and their cells together do not
    exceed `bounds.max_cells`: a placement holds both words' cells, so
    it would fail the bounds too. A left word that fits beside some right
    word fetches its masks once, a right word when a pair first needs
    them, and its entry keeps them.
    """
    if isinstance(r, Context):
        plan, right = r.plan, l2
    else:
        plan, right = _Plan(r, bounds.max_cols), _entries(l2)
    rows, cols = bounds.max_rows, bounds.max_cols
    out: set[Word] = set()
    for v in l1:
        budget.charge(len(right))
        cut = bisect_right(right, bounds.max_cells - len(v), key=_SIZE)
        if not cut or not bounds.admits(v):
            continue
        v = normalize(v)
        a = plan.selections(v, 0)
        if a is None:
            continue
        for entry in islice(right, cut):
            _, w, b = entry
            if b is False:
                b = entry[2] = plan.selections(w, 1) if bounds.admits(w) else None
            if b is not None:
                out.update(plan.place(v, a, w, b, rows, cols))
    return frozenset(out)


def star(
    l: Iterable[Word],
    r: Restriction,
    bounds: Bounds,
    budget: Budget,
    closed: frozenset[Word] = frozenset(),
    context: Optional[Context] = None,
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
    `context`, made for the same restriction and bounds, holds the known
    words as the right operand, and each round extends it by the
    frontier. A context that holds `closed`, as after the call that
    returned it, resumes without sorting `closed` again.
    """
    ctx = Context(r, bounds) if context is None else context
    known = frozenset(closed)
    frontier = frozenset(normalize(v) for v in l if bounds.admits(v)) - known
    while frontier:
        fresh = ctx.extend(known, known | frontier)
        grown = compose_langs(frontier, ctx.right, ctx, bounds, budget)
        grown |= compose_langs(known, fresh, ctx, bounds, budget)
        known = ctx.held
        frontier = frozenset(grown - known)
    return known
