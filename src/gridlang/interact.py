"""Interactive modules: guarded relations on structured border data.

A data module relates the west and north borders of a cell to its east
and south borders through a list of rules. Each rule has patterns for
the inputs, templates for the outputs, and guard clauses in between;
guards may bind extra variables, so a rule denotes a relation rather
than a function. A data scenario is a grid of cells annotated with a
module name and four concrete borders, plus feedback wires that carry
an east border to the west border of a cell on a later row.

Validation is local: every cell must be related by its module, every
shared border must carry identical data on both sides, and every wire
must carry identical data end to end. Reports list each violation with
the coordinates of the cells it touches.

Scenario text writes every shared border twice and repeats each datum
kept so far in every later set, so parsing shares equal data: within
one parse_scenario call, each distinct border field and set item is
parsed and evaluated once, and every copy of it in the text comes back
as the same object.

The communication protocol from the problem domain ships as a builtin
library and scenario. Its SR and End modules are reconstructions (the
original presents them only inside the scenario) and are flagged as
such on the module objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .equations import corpus_text
from .grid import Budget

Pos = tuple[int, int]


# ---------------------------------------------------------------------------
# Border data


class Datum:
    """Base class for structured border data."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Datum):
    """The blank border."""


@dataclass(frozen=True)
class Sym(Datum):
    name: str


@dataclass(frozen=True)
class Num(Datum):
    value: int


@dataclass(frozen=True)
class Pair(Datum):
    first: Datum
    second: Datum


@dataclass(frozen=True)
class DataSet(Datum):
    items: frozenset[Datum]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", frozenset(self.items))


@dataclass(frozen=True)
class Stream(Datum):
    """Two or more data joined by the stream separator."""

    items: tuple[Datum, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a stream joins at least two data")
        if any(isinstance(i, (Stream, Empty)) for i in self.items):
            raise ValueError("stream items are non-empty and unnested")


EMPTY = Empty()


def datum_key(d: Datum):
    """Total order on data; used wherever set iteration must be stable."""
    if isinstance(d, Empty):
        return (0,)
    if isinstance(d, Num):
        return (1, d.value)
    if isinstance(d, Sym):
        return (2, d.name)
    if isinstance(d, Pair):
        return (3, datum_key(d.first), datum_key(d.second))
    if isinstance(d, DataSet):
        return (4, len(d.items), tuple(sorted(datum_key(i) for i in d.items)))
    return (5, tuple(datum_key(i) for i in d.items))


def format_datum(d: Datum) -> str:
    if isinstance(d, Empty):
        return "_"
    if isinstance(d, Num):
        # The parsers read no negative literal, so write one as a difference.
        return str(d.value) if d.value >= 0 else f"0-{-d.value}"
    if isinstance(d, Sym):
        return d.name
    if isinstance(d, Pair):
        return f"({format_datum(d.first)},{format_datum(d.second)})"
    if isinstance(d, DataSet):
        inner = ",".join(format_datum(i) for i in sorted(d.items, key=datum_key))
        return "{" + inner + "}"
    return "^".join(
        f"({format_datum(i)})" if isinstance(i, Num) and i.value < 0 else format_datum(i)
        for i in d.items
    )


# ---------------------------------------------------------------------------
# Pattern and template expressions

_NUM_VARS = frozenset("ijn")
_SET_VARS = frozenset("UVWYZ")
_ANY_VARS = frozenset("xy")
_VAR_NAMES = _NUM_VARS | _SET_VARS | _ANY_VARS


class DExpr:
    """Base class for rule-side expressions over border data."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(DExpr):
    value: Datum


@dataclass(frozen=True)
class VarRef(DExpr):
    name: str


@dataclass(frozen=True)
class PairExpr(DExpr):
    first: DExpr
    second: DExpr


@dataclass(frozen=True)
class SetDisplay(DExpr):
    items: tuple[DExpr, ...]


@dataclass(frozen=True)
class StreamExpr(DExpr):
    items: tuple[DExpr, ...]


@dataclass(frozen=True)
class BinOp(DExpr):
    """'+' joins sets or adds numbers; '-' is set difference."""

    op: str
    left: DExpr
    right: DExpr


@dataclass(frozen=True)
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
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, VarRef):
        if e.name not in env:
            raise _EvalFail(f"unbound variable {e.name}")
        return env[e.name]
    if isinstance(e, PairExpr):
        return Pair(eval_dexpr(e.first, env), eval_dexpr(e.second, env))
    if isinstance(e, SetDisplay):
        return DataSet(frozenset(eval_dexpr(i, env) for i in e.items))
    if isinstance(e, StreamExpr):
        return Stream(tuple(eval_dexpr(i, env) for i in e.items))
    if isinstance(e, MinOf):
        s = eval_dexpr(e.arg, env)
        if not isinstance(s, DataSet):
            raise _EvalFail("min needs a set")
        indices = []
        for item in s.items:
            if isinstance(item, Num):
                indices.append(item.value)
            elif isinstance(item, Pair) and isinstance(item.first, Num):
                indices.append(item.first.value)
        if not indices:
            raise _EvalFail("min of a set without indices")
        return Num(min(indices))
    left = eval_dexpr(e.left, env)
    right = eval_dexpr(e.right, env)
    if e.op == "+":
        if isinstance(left, Num) and isinstance(right, Num):
            return Num(left.value + right.value)
        if isinstance(left, DataSet) and isinstance(right, DataSet):
            return DataSet(left.items | right.items)
        raise _EvalFail("'+' joins two sets or adds two numbers")
    if isinstance(left, DataSet) and isinstance(right, DataSet):
        return DataSet(left.items - right.items)
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(left.value - right.value)
    raise _EvalFail("'-' needs two sets or two numbers")


def _var_admits(name: str, d: Datum) -> bool:
    if name in _NUM_VARS:
        return isinstance(d, Num)
    if name in _SET_VARS:
        return isinstance(d, DataSet)
    return not isinstance(d, Empty)


def match_pattern(e: DExpr, d: Datum, env: Env) -> Optional[Env]:
    """Structurally match data against a pattern, extending the binding."""
    if isinstance(e, Lit):
        return env if e.value == d else None
    if isinstance(e, VarRef):
        if e.name in env:
            return env if env[e.name] == d else None
        if not _var_admits(e.name, d):
            return None
        out = dict(env)
        out[e.name] = d
        return out
    if isinstance(e, PairExpr):
        if not isinstance(d, Pair):
            return None
        first = match_pattern(e.first, d.first, env)
        if first is None:
            return None
        return match_pattern(e.second, d.second, first)
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


@dataclass(frozen=True)
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
            if not isinstance(s, DataSet):
                return
            for item in sorted(s.items, key=datum_key):
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    return tuple(sorted(found, key=lambda p: (datum_key(p[0]), datum_key(p[1]))))


def check_cell(m: DataModule, west: Datum, north: Datum, east: Datum, south: Datum) -> bool:
    """True iff some rule of the module relates the inputs to the outputs."""
    return any((east, south) in rule.outputs(west, north) for rule in m.rules)


def matching_rules(
    m: DataModule, west: Datum, north: Datum, east: Datum, south: Datum
) -> tuple[int, ...]:
    """Indices of the rules that relate the borders; for coverage checks."""
    return tuple(
        idx
        for idx, rule in enumerate(m.rules)
        if (east, south) in rule.outputs(west, north)
    )


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class DataCell:
    module: str
    west: Datum
    north: Datum
    east: Datum
    south: Datum


@dataclass(frozen=True)
class DataScenario:
    """Module-labelled cells with concrete borders, plus feedback wires.

    The grid may be ragged. Wires run from a cell's east border to the
    west border of a cell on a strictly later row, so feedback stays
    acyclic when cells are processed row by row. Border agreement is
    not a construction invariant; validate_scenario reports on it.
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
        dests: set[Pos] = set()
        for src, dst in wiring:
            if src not in seen or dst not in seen:
                raise ValueError(f"wire {src} -> {dst} leaves the grid")
            if dst[0] <= src[0]:
                raise ValueError(f"wire {src} -> {dst} must reach a later row")
            if dst in dests:
                raise ValueError(f"two wires feed the west border of {dst}")
            dests.add(dst)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "wiring", wiring)

    @property
    def cell_map(self) -> dict[Pos, DataCell]:
        return {(r, c): cell for r, c, cell in self.cells}


@dataclass(frozen=True)
class Violation:
    kind: str  # rule, border, or wire
    cells: tuple[Pos, ...]
    message: str


@dataclass(frozen=True)
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
    by_name = {m.name: m for m in lib}
    cmap = s.cell_map
    for pos, cell in cmap.items():
        if cell.module not in by_name:
            raise ValueError(f"unknown module {cell.module!r} at {pos}")
    checks = tuple(
        (pos, check_cell(by_name[c.module], c.west, c.north, c.east, c.south))
        for pos, c in sorted(cmap.items())
    )

    violations: list[Violation] = []
    for pos, ok in checks:
        if not ok:
            cell = cmap[pos]
            violations.append(
                Violation(
                    kind="rule",
                    cells=(pos,),
                    message=(
                        f"no rule of {cell.module} relates"
                        f" <{format_datum(cell.west)} | {format_datum(cell.north)}>"
                        f" to <{format_datum(cell.east)} | {format_datum(cell.south)}>"
                    ),
                )
            )
    for (r, c), cell in sorted(cmap.items()):
        east = cmap.get((r, c + 1))
        if east is not None and cell.east != east.west:
            violations.append(
                Violation(
                    kind="border",
                    cells=((r, c), (r, c + 1)),
                    message=(
                        f"east {format_datum(cell.east)} disagrees with"
                        f" west {format_datum(east.west)}"
                    ),
                )
            )
        south = cmap.get((r + 1, c))
        if south is not None and cell.south != south.north:
            violations.append(
                Violation(
                    kind="border",
                    cells=((r, c), (r + 1, c)),
                    message=(
                        f"south {format_datum(cell.south)} disagrees with"
                        f" north {format_datum(south.north)}"
                    ),
                )
            )
    for src, dst in s.wiring:
        if cmap[src].east != cmap[dst].west:
            violations.append(
                Violation(
                    kind="wire",
                    cells=(src, dst),
                    message=(
                        f"wire carries {format_datum(cmap[src].east)} east but"
                        f" {format_datum(cmap[dst].west)} west"
                    ),
                )
            )
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
    """
    by_name = {m.name: m for m in lib}
    for pos, name in layout.items():
        if name not in by_name:
            raise ValueError(f"unknown module {name!r} at {pos}")
    order = sorted(layout)
    wires = tuple(wiring)
    wire_into = {dst: src for src, dst in wires}
    budget = Budget(node_budget)
    borders: dict[Pos, tuple[Datum, Datum, Datum, Datum]] = {}

    def west_of(pos: Pos) -> Datum:
        r, c = pos
        if (r, c - 1) in borders:
            return borders[(r, c - 1)][2]
        if pos in wire_into:
            return borders[wire_into[pos]][2]
        return west_inputs.get(pos, EMPTY)

    def north_of(pos: Pos) -> Datum:
        r, c = pos
        if (r - 1, c) in borders:
            return borders[(r - 1, c)][3]
        return north_inputs.get(pos, EMPTY)

    # Depth first with an explicit stack: one entry per cell from the
    # first to the one being decided, holding its inputs and the
    # candidates it has not tried yet.
    pending: list[tuple[Datum, Datum, Iterator[tuple[Datum, Datum]]]] = []
    while len(borders) < len(order):
        k = len(borders)
        pos = order[k]
        if len(pending) == k:
            west, north = west_of(pos), north_of(pos)
            outputs = cell_outputs(by_name[layout[pos]], west, north)
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

_TOKEN = re.compile(r"->|!=|[A-Za-z][A-Za-z0-9_]*|\d+|[?_<>|(){},^+\-=:.]")
# A character that is neither blank nor the start of a token.
_BAD_CHAR = re.compile(r"[^\sA-Za-z\d_?<>|(){},^+\-=:.!]|!(?!=)")
_KEYWORDS = frozenset({"module", "cell", "wire", "where", "in", "min", "reconstructed"})
_MAX_NESTING = 100
# Keeps a line's brackets, as '(' and ')', and drops its other ASCII.
_BRACKETS = str.maketrans(
    "{}", "()", "".join(c for c in map(chr, range(128)) if c not in "(){}")
)
_NOT_BRACKET = re.compile(r"[^()]+")
_OPENERS = frozenset("({")
_ITEM_ENDS = frozenset(",})")


def _nesting(line: str) -> int:
    """A bound on how deep the expressions of a line nest.

    Brackets nest the parser and each '+' or '-' nests the expression it
    builds, so the bound is the depth of the brackets, counting one left
    unclosed as open to the end of the line, plus the operators. Keeping
    it small keeps parsing, evaluation and hashing of the line's data
    within Python's recursion limit.
    """
    brackets = _NOT_BRACKET.sub("", line.translate(_BRACKETS))
    depth = 0
    while "()" in brackets and depth <= _MAX_NESTING:
        brackets = brackets.replace("()", "")
        depth += 1
    operators = line.count("+") + line.count("-") - line.count("->")
    return depth + brackets.count("(") + operators


class _Tokens:
    """The tokens of one line and a cursor into them.

    `shared` is parse_scenario's table of data parsed so far: it maps a
    run of tokens (a border field or a set item) to the literal that
    run grounds to. Module libraries have no table.
    """

    def __init__(
        self, line: str, shared: Optional[dict[tuple[str, ...], Lit]] = None
    ) -> None:
        if _BAD_CHAR.search(line):
            raise ValueError(f"bad character in {line!r}")
        self.items = _TOKEN.findall(line)
        if _nesting(line) > _MAX_NESTING:
            raise ValueError(f"nesting deeper than {_MAX_NESTING} in {line!r}")
        self.line = line
        self.shared = shared
        self.at = 0

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


def _parse_shared(t: _Tokens, end: int, parse) -> DExpr:
    """Parse the tokens up to `end` once per distinct run in a scenario.

    A run that `parse` consumes exactly is grounded and remembered, so
    an equal run later in the scenario returns the same literal without
    parsing. A run it does not consume is left to the caller to reject.
    """
    if end == t.at:
        # An empty run is a blank field but no set item: never remembered.
        return parse(t)
    key = tuple(t.items[t.at : end])
    lit = t.shared.get(key)
    if lit is not None:
        t.at = end
        return lit
    e = parse(t)
    if t.at != end:
        return e
    lit = t.shared[key] = Lit(_ground(e, t.line))
    return lit


def _parse_item(t: _Tokens) -> DExpr:
    """A set item, which ends at a ',', '}' or ')' outside its brackets."""
    if t.shared is None:
        return _parse_sum(t)
    items, depth = t.items, 0
    for end in range(t.at, len(items)):
        tok = items[end]
        if tok in _OPENERS:
            depth += 1
        elif tok in _ITEM_ENDS:
            if depth == 0:
                break
            if tok != ",":
                depth -= 1
    else:
        end = len(items)
    return _parse_shared(t, end, _parse_sum)


def _parse_atom(t: _Tokens) -> DExpr:
    tok = t.take()
    if tok == "_":
        return Lit(EMPTY)
    if tok == "?":
        return Lit(Sym("?"))
    if tok.isdigit():
        return Lit(Num(int(tok)))
    if tok == "min":
        t.take("(")
        inner = _parse_field(t)
        t.take(")")
        return MinOf(inner)
    if tok == "(":
        first = _parse_sum(t)
        if t.peek() == ",":
            t.take(",")
            second = _parse_sum(t)
            t.take(")")
            return PairExpr(first, second)
        t.take(")")
        return first
    if tok == "{":
        items: list[DExpr] = []
        if t.peek() != "}":
            items.append(_parse_item(t))
            while t.peek() == ",":
                t.at += 1
                items.append(_parse_item(t))
        t.take("}")
        return SetDisplay(tuple(items))
    if tok[0].isalpha():
        if tok in _KEYWORDS:
            raise ValueError(f"keyword {tok!r} cannot name data")
        if tok in _VAR_NAMES:
            return VarRef(tok)
        return Lit(Sym(tok))
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
    out = _parse_unit(t)
    while t.peek() in ("+", "-"):
        op = t.take()
        out = BinOp(op, out, _parse_unit(t))
    return out


def _parse_field(t: _Tokens) -> DExpr:
    if t.peek() in ("|", ">"):
        return Lit(EMPTY)
    first = _parse_sum(t)
    if t.peek() == ",":
        t.take(",")
        return PairExpr(first, _parse_sum(t))
    return first


def _parse_border(t: _Tokens, delimiter: str) -> DExpr:
    """A border field, which ends at `delimiter` ('|' or '>')."""
    if t.shared is None:
        return _parse_field(t)
    try:
        end = t.items.index(delimiter, t.at)
    except ValueError:
        end = len(t.items)
    return _parse_shared(t, end, _parse_field)


def _parse_borders(t: _Tokens) -> tuple[DExpr, DExpr, DExpr, DExpr]:
    t.take("<")
    west = _parse_border(t, "|")
    t.take("|")
    north = _parse_border(t, ">")
    t.take(">")
    t.take("->")
    t.take("<")
    east = _parse_border(t, "|")
    t.take("|")
    south = _parse_border(t, ">")
    t.take(">")
    return west, north, east, south


def _parse_guard(t: _Tokens) -> Guard:
    # Guard operands use explicit parens for pairs; a bare comma would
    # be read as the separator between guard clauses.
    left = _parse_sum(t)
    op = t.take()
    if op not in ("in", "=", "!="):
        raise ValueError(f"expected a guard operator, got {op!r}")
    return Guard(op, left, _parse_sum(t))


def parse_module_library(text: str) -> tuple[DataModule, ...]:
    """One rule per 'module NAME: <w | n> -> <e | s> where ...' line.

    Lines sharing a name form one module, in first-appearance order.
    """
    order: list[str] = []
    rules: dict[str, list[Rule]] = {}
    marked: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        t = _Tokens(line)
        t.take("module")
        name = t.take()
        if t.peek() == "reconstructed":
            t.take()
            marked.add(name)
        t.take(":")
        west, north, east, south = _parse_borders(t)
        guards: list[Guard] = []
        if t.peek() == "where":
            t.take("where")
            guards.append(_parse_guard(t))
            while t.peek() == ",":
                t.take(",")
                guards.append(_parse_guard(t))
        if t.peek() is not None:
            raise ValueError(f"trailing tokens in {line!r}")
        if name not in rules:
            order.append(name)
            rules[name] = []
        rules[name].append(Rule(west, north, east, south, tuple(guards)))
    return tuple(
        DataModule(name, tuple(rules[name]), reconstructed=name in marked)
        for name in order
    )


def format_dexpr(e: DExpr) -> str:
    if isinstance(e, Lit):
        return format_datum(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, PairExpr):
        return f"({format_dexpr(e.first)},{format_dexpr(e.second)})"
    if isinstance(e, SetDisplay):
        return "{" + ",".join(format_dexpr(i) for i in e.items) + "}"
    if isinstance(e, StreamExpr):
        # A bracketed item is the only way the parser nests a sum or a
        # stream inside a stream.
        return "^".join(
            f"({format_dexpr(i)})" if isinstance(i, (BinOp, StreamExpr)) else format_dexpr(i)
            for i in e.items
        )
    if isinstance(e, MinOf):
        return f"min({format_dexpr(e.arg)})"
    # Sums parse left to right, so a sum on the right needs its brackets.
    right = format_dexpr(e.right)
    if isinstance(e.right, BinOp):
        right = f"({right})"
    return f"{format_dexpr(e.left)}{e.op}{right}"


def format_module_library(lib: Iterable[DataModule]) -> str:
    lines = []
    for m in lib:
        tag = " reconstructed" if m.reconstructed else ""
        for rule in m.rules:
            head = (
                f"module {m.name}{tag}:"
                f" <{format_dexpr(rule.west)} | {format_dexpr(rule.north)}>"
                f" -> <{format_dexpr(rule.east)} | {format_dexpr(rule.south)}>"
            )
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


def _parse_pos(t: _Tokens) -> Pos:
    t.take("(")
    r = int(t.take())
    t.take(",")
    c = int(t.take())
    t.take(")")
    return (r, c)


def parse_scenario(text: str) -> DataScenario:
    """Cell and wire lines; borders must be concrete data.

    Equal border fields and equal set items are parsed once and shared
    between the cells that carry them.
    """
    cells: list[tuple[int, int, DataCell]] = []
    wires: list[tuple[Pos, Pos]] = []
    shared: dict[tuple[str, ...], Lit] = {}
    for raw in text.splitlines():
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        t = _Tokens(line, shared)
        kind = t.take()
        if kind == "cell":
            r, c = _parse_pos(t)
            name = t.take()
            t.take(":")
            west, north, east, south = _parse_borders(t)
            if t.peek() is not None:
                raise ValueError(f"trailing tokens in {line!r}")
            cells.append(
                (
                    r,
                    c,
                    DataCell(
                        name,
                        _ground(west, line),
                        _ground(north, line),
                        _ground(east, line),
                        _ground(south, line),
                    ),
                )
            )
        elif kind == "wire":
            src = _parse_pos(t)
            t.take(".")
            t.take("e")
            t.take("->")
            dst = _parse_pos(t)
            t.take(".")
            t.take("w")
            if t.peek() is not None:
                raise ValueError(f"trailing tokens in {line!r}")
            wires.append((src, dst))
        else:
            raise ValueError(f"unrecognized scenario line: {line!r}")
    return DataScenario(cells=tuple(cells), wiring=tuple(wires))


def format_scenario(s: DataScenario) -> str:
    lines = []
    for r, c, cell in s.cells:
        lines.append(
            f"cell ({r},{c}) {cell.module}:"
            f" <{format_datum(cell.west)} | {format_datum(cell.north)}>"
            f" -> <{format_datum(cell.east)} | {format_datum(cell.south)}>"
        )
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
