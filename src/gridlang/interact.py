"""Interactive modules: guarded relations on structured border data.

A data module relates the west and north borders of a cell to its east
and south borders through a list of rules. Each rule has patterns for
the inputs, templates for the outputs, and guard clauses in between;
guards may bind extra variables, so a rule denotes a relation rather
than a function. A data scenario is a grid of cells annotated with a
module name and four concrete borders, plus feedback wires that carry
an east border to the west border of a cell on a later row.

Border data are plain Python values: the blank border `_` is None, a
number an int, a symbol (`?` too) a str, a pair a 2-tuple and a set a
frozenset. A stream `a^b` is the one data record, Stream, so that it
stays apart from the pair `(a,b)`. Rule templates are DExpr records,
and a datum inside a template stands for itself.

Validation is local: every cell must be related by its module, every
shared border must carry identical data on both sides, and every wire
must carry identical data end to end. Reports list each violation with
the coordinates of the cells it touches.

Library rules and scenario cells are written in one line shape,
`<W | N> -> <E | S>`: a rule line reads `module NAME [reconstructed]:
<W | N> -> <E | S> [where GUARDS]` and a cell line `cell (r,c) NAME:
<W | N> -> <E | S>`. Each line is matched whole against its shape (a
wire line has its own), and only the four border fields, through one
field reader, and a rule's where clause go through the expression
grammar, which rejects a bad character as it reads and bounds each path
through each of them on its own. Scenario text writes every shared
border twice and repeats each datum kept so far in every later set, so
parsing shares equal data: within one parse_scenario call, each
distinct field text is parsed once, set items are keyed by their text,
so each is parsed and evaluated once, and interned by value, so every
copy of an item comes back as the same object. format_dexpr prints
data and templates alike, as text that parses back to them.

The communication protocol from the problem domain ships as a builtin
library and scenario. Its SR and End modules are reconstructions (the
original presents them only inside the scenario) and are flagged as
such on the module objects.
"""

from __future__ import annotations

import re
from typing import Collection, Iterable, Iterator, Mapping, Optional, Union

from .grid import MAX_NESTING, Budget, Pos, corpus_text, record, source_lines


# ---------------------------------------------------------------------------
# Border data


@record
class Stream:
    """Two or more data joined by the stream separator."""

    items: tuple[Datum, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a stream joins at least two data")
        if any(i is None or isinstance(i, Stream) for i in self.items):
            raise ValueError("stream items are non-empty and unnested")


Datum = Union[None, int, str, tuple, frozenset, Stream]


def datum_key(d: Datum):
    """Total order on data; used wherever set iteration must be stable."""
    if d is None:
        return (0,)
    if isinstance(d, int):
        return (1, d)
    if isinstance(d, str):
        return (2, d)
    if isinstance(d, tuple):
        return (3, datum_key(d[0]), datum_key(d[1]))
    if isinstance(d, frozenset):
        return (4, len(d), tuple(sorted(datum_key(i) for i in d)))
    return (5, tuple(datum_key(i) for i in d.items))


# ---------------------------------------------------------------------------
# Pattern and template expressions

_NUM_VARS = frozenset("ijn")
_SET_VARS = frozenset("UVWYZ")
_ANY_VARS = frozenset("xy")
_VAR_NAMES = _NUM_VARS | _SET_VARS | _ANY_VARS


class DExpr:
    """Base class for rule-side templates; a template may also be a datum."""

    __slots__ = ()


@record
class VarRef(DExpr):
    name: str


@record
class PairExpr(DExpr):
    first: DExpr
    second: DExpr


@record
class SetDisplay(DExpr):
    items: tuple[DExpr, ...]


@record
class StreamExpr(DExpr):
    items: tuple[DExpr, ...]


@record
class BinOp(DExpr):
    """'+' joins sets or adds numbers; '-' is set difference."""

    op: str
    left: DExpr
    right: DExpr


@record
class MinOf(DExpr):
    """Least index occurring in a set: bare numbers and pair heads."""

    arg: DExpr


class _EvalFail(Exception):
    """A template or guard does not apply to the data at hand."""


Env = dict[str, Datum]


def dexpr_vars(e: DExpr) -> frozenset[str]:
    if isinstance(e, VarRef):
        return frozenset({e.name})
    if isinstance(e, PairExpr):
        return dexpr_vars(e.first) | dexpr_vars(e.second)
    if isinstance(e, (SetDisplay, StreamExpr)):
        out: frozenset[str] = frozenset()
        for item in e.items:
            out |= dexpr_vars(item)
        return out
    if isinstance(e, BinOp):
        return dexpr_vars(e.left) | dexpr_vars(e.right)
    if isinstance(e, MinOf):
        return dexpr_vars(e.arg)
    return frozenset()


def eval_dexpr(e: DExpr, env: Env) -> Datum:
    """Instantiate a template; raises _EvalFail on unbound or ill-typed use."""
    if not isinstance(e, DExpr):
        return e
    if isinstance(e, VarRef):
        if e.name not in env:
            raise _EvalFail(f"unbound variable {e.name}")
        return env[e.name]
    if isinstance(e, PairExpr):
        return (eval_dexpr(e.first, env), eval_dexpr(e.second, env))
    if isinstance(e, SetDisplay):
        return frozenset(eval_dexpr(i, env) for i in e.items)
    if isinstance(e, StreamExpr):
        try:
            return Stream(tuple(eval_dexpr(i, env) for i in e.items))
        except ValueError as exc:  # a blank or a stream among the items
            raise _EvalFail(str(exc))
    if isinstance(e, MinOf):
        s = eval_dexpr(e.arg, env)
        if not isinstance(s, frozenset):
            raise _EvalFail("min needs a set")
        indices = []
        for item in s:
            if isinstance(item, int):
                indices.append(item)
            elif isinstance(item, tuple) and isinstance(item[0], int):
                indices.append(item[0])
        if not indices:
            raise _EvalFail("min of a set without indices")
        return min(indices)
    left = eval_dexpr(e.left, env)
    right = eval_dexpr(e.right, env)
    if e.op == "+":
        if isinstance(left, int) and isinstance(right, int):
            return left + right
        if isinstance(left, frozenset) and isinstance(right, frozenset):
            return left | right
        raise _EvalFail("'+' joins two sets or adds two numbers")
    if isinstance(left, frozenset) and isinstance(right, frozenset):
        return left - right
    if isinstance(left, int) and isinstance(right, int):
        return left - right
    raise _EvalFail("'-' needs two sets or two numbers")


def _var_admits(name: str, d: Datum) -> bool:
    if name in _NUM_VARS:
        return isinstance(d, int)
    if name in _SET_VARS:
        return isinstance(d, frozenset)
    return d is not None


def match_pattern(e: DExpr, d: Datum, env: Env) -> Optional[Env]:
    """Structurally match data against a pattern, extending the binding."""
    if not isinstance(e, DExpr):
        return env if e == d else None
    if isinstance(e, VarRef):
        if e.name in env:
            return env if env[e.name] == d else None
        if not _var_admits(e.name, d):
            return None
        out = dict(env)
        out[e.name] = d
        return out
    if isinstance(e, PairExpr):
        if not isinstance(d, tuple):
            return None
        first = match_pattern(e.first, d[0], env)
        if first is None:
            return None
        return match_pattern(e.second, d[1], first)
    if isinstance(e, SetDisplay):
        # Set patterns must be ground once reached; {} matches the empty set.
        try:
            value = eval_dexpr(e, env)
        except _EvalFail:
            return None
        return env if value == d else None
    if isinstance(e, StreamExpr):
        if not isinstance(d, Stream) or len(e.items) != len(d.items):
            return None
        cur: Optional[Env] = env
        for pat, item in zip(e.items, d.items):
            cur = match_pattern(pat, item, cur)
            if cur is None:
                return None
        return cur
    return None


# ---------------------------------------------------------------------------
# Rules and modules


@record
class Guard:
    """A side condition: 'in' may enumerate, '=' may bind, '!=' only tests."""

    op: str
    left: DExpr
    right: DExpr

    def __post_init__(self) -> None:
        if self.op not in ("in", "=", "!="):
            raise ValueError(f"unknown guard operator {self.op!r}")


def _guard_envs(g: Guard, env: Env) -> Iterator[Env]:
    try:
        if g.op == "in":
            s = eval_dexpr(g.right, env)
            if not isinstance(s, frozenset):
                return
            for item in s:
                got = match_pattern(g.left, item, env)
                if got is not None:
                    yield got
            return
        if g.op == "=":
            value = eval_dexpr(g.right, env)
            got = match_pattern(g.left, value, env)
            if got is not None:
                yield got
            return
        if eval_dexpr(g.left, env) != eval_dexpr(g.right, env):
            yield env
    except _EvalFail:
        return


@record
class Rule:
    west: DExpr
    north: DExpr
    east: DExpr
    south: DExpr
    guards: tuple[Guard, ...] = ()

    def __post_init__(self) -> None:
        bound = set(dexpr_vars(self.west) | dexpr_vars(self.north))
        for g in self.guards:
            used = dexpr_vars(g.right) if g.op in ("in", "=") else (
                dexpr_vars(g.left) | dexpr_vars(g.right)
            )
            free = used - bound
            if free:
                raise ValueError(f"guard uses unbound variables {sorted(free)}")
            bound |= dexpr_vars(g.left)
        free = (dexpr_vars(self.east) | dexpr_vars(self.south)) - bound
        if free:
            raise ValueError(f"templates use unbound variables {sorted(free)}")

    def outputs(self, west: Datum, north: Datum) -> Iterator[tuple[Datum, Datum]]:
        env = match_pattern(self.west, west, {})
        if env is None:
            return
        env = match_pattern(self.north, north, env)
        if env is None:
            return
        envs = [env]
        for g in self.guards:
            envs = [out for e in envs for out in _guard_envs(g, e)]
            if not envs:
                return
        for e in envs:
            try:
                yield eval_dexpr(self.east, e), eval_dexpr(self.south, e)
            except _EvalFail:
                continue


@record
class DataModule:
    """A named list of rules; reconstructed modules are flagged as such."""

    name: str
    rules: tuple[Rule, ...]
    reconstructed: bool = False

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError(f"module {self.name} has no rules")


def cell_outputs(m: DataModule, west: Datum, north: Datum) -> tuple[tuple[Datum, Datum], ...]:
    """Every (east, south) some rule relates to the inputs, stably ordered."""
    found = {out for rule in m.rules for out in rule.outputs(west, north)}
    if len(found) < 2:
        return tuple(found)
    return tuple(sorted(found, key=lambda p: (datum_key(p[0]), datum_key(p[1]))))


def check_cell(m: DataModule, west: Datum, north: Datum, east: Datum, south: Datum) -> bool:
    """True iff some rule of the module relates the inputs to the outputs."""
    return any((east, south) in rule.outputs(west, north) for rule in m.rules)


# ---------------------------------------------------------------------------
# Scenarios


@record
class DataCell:
    module: str
    west: Datum
    north: Datum
    east: Datum
    south: Datum


@record
class DataScenario:
    """Module-labelled cells with concrete borders, plus feedback wires.

    The grid may be ragged. Wires run from a cell's east border to the
    west border of a cell on a strictly later row, so feedback stays
    acyclic when cells are processed row by row. Each west border has
    at most one feeder: the east border of its west neighbour, or else
    one wire. Border agreement is not a construction invariant;
    validate_scenario reports on it.
    """

    cells: tuple[tuple[int, int, DataCell], ...]
    wiring: tuple[tuple[Pos, Pos], ...] = ()

    def __post_init__(self) -> None:
        cells = tuple(sorted(self.cells, key=lambda c: (c[0], c[1])))
        if not cells:
            raise ValueError("a data scenario needs at least one cell")
        seen: set[Pos] = set()
        for r, c, cell in cells:
            if (r, c) in seen:
                raise ValueError(f"duplicate cell at ({r}, {c})")
            if not isinstance(cell, DataCell):
                raise ValueError(f"not a data cell: {cell!r}")
            seen.add((r, c))
        wiring = tuple(sorted(self.wiring))
        _west_feeds(seen, wiring)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "wiring", wiring)

    @property
    def cell_map(self) -> dict[Pos, DataCell]:
        return {(r, c): cell for r, c, cell in self.cells}


def _west_feeds(
    cells: Collection[Pos], wiring: Iterable[tuple[Pos, Pos]]
) -> dict[Pos, tuple[str, Pos]]:
    """Map each fed west border to its feeder: ("border", west neighbour)
    or ("wire", source), the source always earlier in row order.

    Raises ValueError for a wire that leaves the grid, that does not
    reach a later row, or that feeds a west border already fed.
    """
    feeds = {(r, c): ("border", (r, c - 1)) for r, c in cells if (r, c - 1) in cells}
    for src, dst in wiring:
        if src not in cells or dst not in cells:
            raise ValueError(f"wire {src} -> {dst} leaves the grid")
        if dst[0] <= src[0]:
            raise ValueError(f"wire {src} -> {dst} must reach a later row")
        if dst in feeds:
            kind, other = feeds[dst]
            raise ValueError(
                f"wire {src} -> {dst}: the {kind} from {other} already feeds {dst}"
            )
        feeds[dst] = ("wire", src)
    return feeds


def _modules_at(
    lib: Iterable[DataModule], layout: Mapping[Pos, str]
) -> dict[Pos, DataModule]:
    """The module of each cell; raises ValueError for a name not in `lib`."""
    by_name = {m.name: m for m in lib}
    for pos, name in layout.items():
        if name not in by_name:
            raise ValueError(f"unknown module {name!r} at {pos}")
    return {pos: by_name[name] for pos, name in layout.items()}


@record
class Violation:
    kind: str  # rule, border, or wire
    cells: tuple[Pos, ...]
    message: str


@record
class ValidationReport:
    cell_checks: tuple[tuple[Pos, bool], ...]
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def flagged(self) -> frozenset[Pos]:
        return frozenset(p for v in self.violations for p in v.cells)


def validate_scenario(s: DataScenario, lib: Iterable[DataModule]) -> ValidationReport:
    """Check every cell, every shared border, and every wire."""
    cmap = s.cell_map
    modules = _modules_at(lib, {pos: cell.module for pos, cell in cmap.items()})
    checks = tuple(
        (pos, check_cell(modules[pos], c.west, c.north, c.east, c.south))
        for pos, c in cmap.items()
    )

    violations: list[Violation] = []
    for pos, ok in checks:
        if not ok:
            c = cmap[pos]
            w, n, e, so = (format_dexpr(d) for d in (c.west, c.north, c.east, c.south))
            message = f"no rule of {c.module} relates <{w} | {n}> to <{e} | {so}>"
            violations.append(Violation("rule", (pos,), message))
    for dst, (kind, src) in _west_feeds(cmap, s.wiring).items():
        if cmap[src].east != cmap[dst].west:
            e, w = format_dexpr(cmap[src].east), format_dexpr(cmap[dst].west)
            message = (
                f"east {e} disagrees with west {w}"
                if kind == "border"
                else f"wire carries {e} east but {w} west"
            )
            violations.append(Violation(kind, (src, dst), message))
    for (r, c), cell in cmap.items():
        south = cmap.get((r + 1, c))
        if south is not None and cell.south != south.north:
            so, n = format_dexpr(cell.south), format_dexpr(south.north)
            message = f"south {so} disagrees with north {n}"
            violations.append(Violation("border", ((r, c), (r + 1, c)), message))
    violations.sort(key=lambda v: (v.cells, v.kind, v.message))
    return ValidationReport(cell_checks=checks, violations=tuple(violations))


def format_report(rep: ValidationReport) -> str:
    lines = []
    for v in rep.violations:
        where = " ".join(f"({r},{c})" for r, c in v.cells)
        lines.append(f"{v.kind} violation at {where}: {v.message}")
    checked = len(rep.cell_checks)
    if rep.valid:
        lines.append(f"valid scenario: {checked} cells checked")
    else:
        lines.append(f"{len(rep.violations)} violations in {checked} cells")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bounded execution: search for concrete borders that complete a grid


def complete_scenario(
    lib: Iterable[DataModule],
    layout: Mapping[Pos, str],
    west_inputs: Mapping[Pos, Datum] = {},
    north_inputs: Mapping[Pos, Datum] = {},
    wiring: Iterable[tuple[Pos, Pos]] = (),
    node_budget: int = 100_000,
) -> Optional[DataScenario]:
    """Search for border data that make every cell check out.

    Free west and north borders (no neighbour, no wire) default to the
    given inputs or to the blank border. The search walks cells in row
    order and branches over each module's possible outputs, charging
    one budget unit per candidate. Returns the first completion in the
    stable candidate order, or None when the search space is exhausted.
    Raises ValueError, before searching, for a module name not in `lib`,
    for wiring that DataScenario rejects, or for a budget below one.
    """
    if not isinstance(node_budget, int) or node_budget < 1:
        raise ValueError(f"node_budget must be a positive integer, got {node_budget!r}")
    modules = _modules_at(lib, layout)
    wires = tuple(wiring)
    feeds = _west_feeds(layout, wires)
    order = sorted(layout)
    budget = Budget(node_budget)
    borders: dict[Pos, tuple[Datum, Datum, Datum, Datum]] = {}

    def west_of(pos: Pos) -> Datum:
        if pos in feeds:
            return borders[feeds[pos][1]][2]
        return west_inputs.get(pos)

    def north_of(pos: Pos) -> Datum:
        r, c = pos
        if (r - 1, c) in borders:
            return borders[(r - 1, c)][3]
        return north_inputs.get(pos)

    # Depth first with an explicit stack: one entry per cell from the
    # first to the one being decided, holding its inputs and the
    # candidates it has not tried yet.
    pending: list[tuple[Datum, Datum, Iterator[tuple[Datum, Datum]]]] = []
    while len(borders) < len(order):
        k = len(borders)
        pos = order[k]
        if len(pending) == k:
            west, north = west_of(pos), north_of(pos)
            outputs = cell_outputs(modules[pos], west, north)
            pending.append((west, north, iter(outputs)))
        west, north, candidates = pending[-1]
        choice = next(candidates, None)
        if choice is None:
            pending.pop()
            if not pending:
                return None
            del borders[order[k - 1]]
            continue
        budget.charge()
        borders[pos] = (west, north, *choice)
    cells = tuple(
        (r, c, DataCell(layout[(r, c)], *borders[(r, c)])) for r, c in order
    )
    return DataScenario(cells=cells, wiring=wires)


# ---------------------------------------------------------------------------
# Text formats

# A name, a number, '!=', or any other character on its own.
_TOKEN = re.compile(r"!=|[A-Za-z][A-Za-z0-9_]*|\d+|\S")
_KEYWORDS = frozenset({"module", "cell", "wire", "where", "in", "min", "reconstructed"})
_NAME = r"[A-Za-z][A-Za-z0-9_]*|\d+"  # a module name
_POS = r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"
# The four border fields of a cell or a rule. A field runs to the first
# '|' or '>' after its '<' or '|'.
_BORDERS = r"<([^|]*)\|([^>]*)>\s*->\s*<([^|]*)\|([^>]*)>"
_CELL = re.compile(rf"cell\s*{_POS}\s*({_NAME})\s*:\s*{_BORDERS}")
# The where clause starts at a word boundary, so 'where(i,x) in V' has
# one and 'wherever' is no keyword.
_RULE = re.compile(
    rf"module\s+({_NAME})(\s+reconstructed)?\s*:\s*{_BORDERS}(?:\s*where\b(.*))?"
)
_WIRE = re.compile(rf"wire\s*{_POS}\s*\.\s*e\s*->\s*{_POS}\s*\.\s*w")
# Scenario fields read a flat set display as one token: no brace and no
# operator inside, and nothing nested in its parentheses. _ITEM_COMMA cuts
# its items apart, its lookahead stopping at the next comma or bracket.
_SET_TOKEN = re.compile(r"\{[^(){}+\-]*(?:\([^(){}+\-]*\)[^(){}+\-]*)*\}|" + _TOKEN.pattern)
_ITEM_COMMA = re.compile(r",(?![^(),]*\))")
# parse_scenario's tables of set data: the datum of each set item and of
# each flat set display, by its text, and the one object of each item's
# value. An item holds no brace, so the two kinds of text never meet.
_Shared = tuple[dict[str, Datum], dict[Datum, Datum]]
# What parse_scenario's field table returns for text not parsed yet;
# None is the blank border.
_UNSEEN = object()


class _Tokens:
    """The tokens of one border field, where clause or set item, and a cursor.

    `shared` holds parse_scenario's tables of set data (see _Shared).
    With them, a flat set display (see _SET_TOKEN) is one token, read by
    _flat_set. Other sets, and every set of a module library, which has
    no tables, are read bracket by bracket, their items without tables.

    The parser bounds nesting per path as it reads. `depth` counts the
    constructs open at the cursor: '(' (also after min), '{' and an
    operator's right operand. `reach` is the deepest path so far in the
    tree of the sum being read; each operator puts the operands before it
    one level deeper. Both stay within MAX_NESTING, and so parsing,
    evaluation and hashing of the text's data stay within the recursion
    limit.
    """

    def __init__(self, line: str, shared: Optional[_Shared] = None) -> None:
        self.items = (_TOKEN if shared is None else _SET_TOKEN).findall(line)
        self.line = line
        self.shared = shared
        self.at = 0
        self.depth = self.reach = 0

    def nest(self, levels: int = 1) -> None:
        """Enter `levels` more constructs; callers restore `depth` on leaving."""
        self.depth += levels
        if self.depth > self.reach:
            self.reach = self.depth
        if self.reach > MAX_NESTING:
            raise ValueError(f"nesting deeper than {MAX_NESTING} in {self.line!r}")

    def end(self) -> None:
        """Raise ValueError unless every token has been read."""
        if self.at < len(self.items):
            raise ValueError(f"unexpected {self.items[self.at]!r} in {self.line!r}")

    def peek(self) -> Optional[str]:
        return self.items[self.at] if self.at < len(self.items) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of line")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.at += 1
        return tok


def _flat_set(tok: str, t: _Tokens) -> frozenset:
    """The set a flat set token displays, looked up by the token's text.

    A set not seen yet is cut into items at the commas outside
    parentheses, and each item is looked up by its text. An item not
    seen yet is parsed from its own tokens, which it must use up, then
    grounded and kept as the one object of its value. A flat set holds
    no operator, so wherever it sits it nests one level, two with a pair.
    """
    levels = 2 if "(" in tok else 1
    t.nest(levels)
    t.depth -= levels
    texts, data = t.shared
    s = texts.get(tok)
    if s is None:
        parts = _ITEM_COMMA.split(tok[1:-1]) if tok[1:-1].strip() else []
        for text in parts:
            if text not in texts:
                item = _Tokens(text)
                e = _parse_sum(item)
                item.end()
                d = _ground(e, t.line)
                texts[text] = data.setdefault(d, d)
        s = texts[tok] = frozenset([texts[text] for text in parts])
    return s


def _parse_atom(t: _Tokens) -> DExpr:
    tok = t.take()
    if tok == "_":
        return None
    if tok == "?":
        return tok
    if tok.isdecimal():
        return int(tok)
    if tok == "min" and t.peek() == "(":
        return MinOf(_parse_atom(t))
    if tok == "(":
        t.nest()
        first = _parse_sum(t)
        if t.peek() == ",":
            t.take(",")
            first = PairExpr(first, _parse_sum(t))
        t.take(")")
        t.depth -= 1
        return first
    if tok[0] == "{":
        if len(tok) > 1:
            return _flat_set(tok, t)
        t.nest()
        items: list[DExpr] = []
        if t.peek() != "}":
            items.append(_parse_sum(t))
            while t.peek() == ",":
                t.at += 1
                items.append(_parse_sum(t))
        t.take("}")
        t.depth -= 1
        return SetDisplay(tuple(items))
    if tok[0].isascii() and tok[0].isalpha():
        if tok in _KEYWORDS:
            raise ValueError(f"keyword {tok!r} cannot name data")
        if tok in _VAR_NAMES:
            return VarRef(tok)
        return tok
    raise ValueError(f"unexpected token {tok!r}")


def _parse_unit(t: _Tokens) -> DExpr:
    first = _parse_atom(t)
    if t.peek() != "^":
        return first
    items = [first]
    while t.peek() == "^":
        t.take("^")
        items.append(_parse_atom(t))
    return StreamExpr(tuple(items))


def _parse_sum(t: _Tokens) -> DExpr:
    outer, t.reach = t.reach, t.depth
    out = _parse_unit(t)
    while t.peek() in ("+", "-"):
        op = t.take()
        t.reach += 1
        t.nest()
        out = BinOp(op, out, _parse_unit(t))
        t.depth -= 1
    if outer > t.reach:
        t.reach = outer
    return out


def _read_field(field: str, shared: Optional[_Shared] = None) -> DExpr:
    """One whole border field of a library rule or a scenario cell; an
    empty one is blank."""
    t = _Tokens(field, shared)
    if t.peek() is None:
        return None
    e = _parse_sum(t)
    if t.peek() == ",":
        t.take(",")
        e = PairExpr(e, _parse_sum(t))
    t.end()
    return e


def _parse_guard(t: _Tokens) -> Guard:
    # Guard operands use explicit parens for pairs; a bare comma would
    # be read as the separator between guard clauses.
    left = _parse_sum(t)
    op = t.take()
    if op not in ("in", "=", "!="):
        raise ValueError(f"expected a guard operator, got {op!r}")
    return Guard(op, left, _parse_sum(t))


def parse_module_library(text: str) -> tuple[DataModule, ...]:
    """One rule per 'module NAME: <W | N> -> <E | S> where ...' line.

    Lines sharing a name form one module, in first-appearance order.
    """
    rules: dict[str, list[Rule]] = {}
    marked: set[str] = set()
    for line in source_lines(text):
        m = _RULE.fullmatch(line)
        if m is None:
            raise ValueError(f"unrecognized library line: {line!r}")
        name, tag, *borders, where = m.groups()
        if tag:
            marked.add(name)
        west, north, east, south = map(_read_field, borders)
        guards: list[Guard] = []
        if where is not None:
            t = _Tokens(where)
            guards.append(_parse_guard(t))
            while t.peek() == ",":
                t.take(",")
                guards.append(_parse_guard(t))
            t.end()
        rules.setdefault(name, []).append(Rule(west, north, east, south, tuple(guards)))
    return tuple(
        DataModule(name, tuple(group), reconstructed=name in marked)
        for name, group in rules.items()
    )


def format_dexpr(e: DExpr) -> str:
    """Text that parses back to `e`, as a rule's template or, for data,
    as a scenario's border."""
    if e is None:
        return "_"
    if isinstance(e, int):
        # The parsers read no negative literal, so write one as a difference.
        return str(e) if e >= 0 else f"0-{-e}"
    if isinstance(e, str):
        return e
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, tuple):
        return f"({format_dexpr(e[0])},{format_dexpr(e[1])})"
    if isinstance(e, PairExpr):
        return f"({format_dexpr(e.first)},{format_dexpr(e.second)})"
    if isinstance(e, frozenset):
        inner = ",".join(format_dexpr(i) for i in sorted(e, key=datum_key))
        return "{" + inner + "}"
    if isinstance(e, SetDisplay):
        return "{" + ",".join(format_dexpr(i) for i in e.items) + "}"
    if isinstance(e, (Stream, StreamExpr)):
        # A bracketed item is the only way the parser nests a sum, a
        # stream or a negative number inside a stream.
        return "^".join(
            f"({format_dexpr(i)})"
            if isinstance(i, (BinOp, StreamExpr)) or (isinstance(i, int) and i < 0)
            else format_dexpr(i)
            for i in e.items
        )
    if isinstance(e, MinOf):
        return f"min({format_dexpr(e.arg)})"
    # Sums parse left to right, so a sum on the right needs its brackets.
    right = format_dexpr(e.right)
    if isinstance(e.right, BinOp):
        right = f"({right})"
    return f"{format_dexpr(e.left)}{e.op}{right}"


def _format_borders(x: Union[Rule, DataCell]) -> str:
    """The four border fields as `_BORDERS` reads them back."""
    w, n, e, s = map(format_dexpr, (x.west, x.north, x.east, x.south))
    return f"<{w} | {n}> -> <{e} | {s}>"


def format_module_library(lib: Iterable[DataModule]) -> str:
    lines = []
    for m in lib:
        tag = " reconstructed" if m.reconstructed else ""
        for rule in m.rules:
            head = f"module {m.name}{tag}: {_format_borders(rule)}"
            if rule.guards:
                conds = ", ".join(
                    f"{format_dexpr(g.left)} {g.op} {format_dexpr(g.right)}"
                    for g in rule.guards
                )
                head += f" where {conds}"
            lines.append(head)
    return "\n".join(lines) + "\n"


def _ground(e: DExpr, line: str) -> Datum:
    try:
        return eval_dexpr(e, {})
    except _EvalFail as exc:
        raise ValueError(f"scenario borders must be concrete in {line!r}: {exc}")


def parse_scenario(text: str) -> DataScenario:
    """Cell and wire lines; borders must be concrete data.

    Each line is matched whole, and only its border fields go through
    the expression grammar. Equal fields (as text, blanks trimmed) are
    parsed once and shared between the cells that carry them. Set items
    are looked up by their text, parsed once per distinct text, and
    interned by value, so equal items are one object throughout.
    """
    cells: list[tuple[int, int, DataCell]] = []
    wires: list[tuple[Pos, Pos]] = []
    fields: dict[str, Datum] = {}
    items: _Shared = ({}, {})

    def datum(field: str) -> Datum:
        field = field.strip()
        d = fields.get(field, _UNSEEN)
        if d is _UNSEEN:
            d = fields[field] = _ground(_read_field(field, items), field)
        return d

    for line in source_lines(text):
        m = _CELL.fullmatch(line)
        if m is not None:
            r, c, name, *borders = m.groups()
            cells.append((int(r), int(c), DataCell(name, *map(datum, borders))))
            continue
        m = _WIRE.fullmatch(line)
        if m is None:
            raise ValueError(f"unrecognized scenario line: {line!r}")
        r, c, r2, c2 = map(int, m.groups())
        wires.append(((r, c), (r2, c2)))
    return DataScenario(cells=tuple(cells), wiring=tuple(wires))


def format_scenario(s: DataScenario) -> str:
    lines = []
    for r, c, cell in s.cells:
        lines.append(f"cell ({r},{c}) {cell.module}: {_format_borders(cell)}")
    for (r, c), (r2, c2) in s.wiring:
        lines.append(f"wire ({r},{c}).e -> ({r2},{c2}).w")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The communication protocol


def builtin_protocol() -> tuple[tuple[DataModule, ...], DataScenario]:
    """The lossy-channel communication protocol: library and scenario.

    A sender stamps the stream a, b, c with indices and keeps copies;
    the channel corrupts the second datum; the receiver keeps good data
    and records missing indices; end-of-stream triggers re-requests
    over the feedback wires until the receiver outputs the full stream
    in index order. The SR and End modules are reconstructions.
    """
    return (
        builtin_protocol_library(),
        parse_scenario(corpus_text("protocol-scenario.imod")),
    )


def builtin_protocol_library() -> tuple[DataModule, ...]:
    """The module library of builtin_protocol alone."""
    return parse_module_library(corpus_text("protocol-modules.imod"))
