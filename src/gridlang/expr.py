"""Expression DSL over two-dimensional word languages.

Expression trees combine single-cell atoms, unions, restricted
compositions, restricted iteration, and variables. Concrete syntax:

    sum    : term ('+' term)*
    term   : factor ('(' restriction ')' factor)*    left-associative
    factor : atom | variable | '(' sum ')' | factor '*(' restriction ')'

Atoms are single lowercase ASCII letters or digits; variables are
identifiers starting with an uppercase letter and may contain primes, so
X5' is a valid name. Postfix iteration binds tightest, then composition,
then union. Comments run from '--' to end of line. The tokens are those
of restrictions (compose.TOKEN).

Nesting is bounded along each path of the tree, as in every text
format: a bracket opens one level, and each link of a composition or
star chain puts the operands before it one level deeper, since the
chain is left-associative. A composition's restriction and right factor
count from the link's level. So `a (e=w) b (e=w) c` is 2 deep, and a
chain nested in the first operand of another chain adds up.

An expression belongs to the extended class exactly when some selector
in some restriction carries an extremeness filter; `classify` reports
the class name. Evaluation substitutes word sets for variables and
keeps every intermediate result inside the given bounds.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Union

from .compose import (
    TOKEN,
    VAR_NAME,
    Context,
    ParseError,  # raised through Cursor.fail; kept importable from `expr`
    Restriction,
    compose_langs,
    format_restriction,
    parse_restriction_at,
    star,
    uses_extremeness,
)
from .grid import Bounds, Budget, Cursor, Word, normalize, record, source_lines

N2RE = "n2RE"
X2RE = "x2RE"

_ATOM_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
_VAR_NAME = re.compile(VAR_NAME)


def _node(cls: type) -> type:
    """`record` for an expression node, which keeps its hash after the
    first call. `Rounds` keys its dicts by nodes, and a record's hash
    hashes the whole subtree again at every lookup. The kept value is the
    hash of the field tuple, as for any record; pickling and copying
    leave it out, since a string hashes differently in another process.
    """
    names = tuple(cls.__annotations__)

    def field_hash(self) -> int:
        return hash(tuple(getattr(self, n) for n in names))

    cls._hash = cached_property(field_hash)
    cls._hash.__set_name__(cls, "_hash")
    cls.__hash__ = lambda self: self._hash
    cls.__getstate__ = lambda self: {n: getattr(self, n) for n in names}
    return record(cls)


@_node
class Atom:
    """A single-cell word constant."""

    letter: str

    def __post_init__(self) -> None:
        if len(self.letter) != 1 or self.letter not in _ATOM_CHARS:
            raise ValueError(f"bad atom letter {self.letter!r}")


@_node
class Sum:
    items: tuple["Expr", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("a sum needs at least two operands")


@_node
class Compose:
    left: "Expr"
    restriction: Restriction
    right: "Expr"


@_node
class Star:
    body: "Expr"
    restriction: Restriction


@_node
class Var:
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME.fullmatch(self.name):
            raise ValueError(f"bad variable name {self.name!r}")


Expr = Union[Atom, Sum, Compose, Star, Var]


# ---------------------------------------------------------------------------
# Parsing


def parse_expr(text: str) -> Expr:
    cur = Cursor(TOKEN, text)
    e = parse_expr_at(cur)
    cur.end()
    return e


def parse_expr_at(cur: Cursor) -> Expr:
    items = [_parse_term(cur)]
    while cur.peek() == "+":
        cur.at += 1
        items.append(_parse_term(cur))
    return items[0] if len(items) == 1 else Sum(tuple(items))


def _parse_term(cur: Cursor) -> Expr:
    return cur.chain(_parse_factor, ("(",), _compose)


def _compose(cur: Cursor, left: Expr) -> Expr:
    opened = cur.at
    cur.at += 1
    if cur.peek() is None:
        cur.fail("unfinished composition: expected a restriction after '('", opened)
    r = parse_restriction_at(cur)
    cur.take(")")
    return Compose(left, r, _parse_factor(cur))


def _parse_factor(cur: Cursor) -> Expr:
    return cur.chain(_parse_primary, ("*",), _star)


def _star(cur: Cursor, body: Expr) -> Expr:
    cur.at += 1
    cur.take("(")
    r = parse_restriction_at(cur)
    cur.take(")")
    return Star(body, r)


def _parse_primary(cur: Cursor) -> Expr:
    tok = cur.peek() or ""
    if tok == "(":
        cur.at += 1
        cur.nest()
        node = parse_expr_at(cur)
        cur.depth -= 1
        cur.take(")")
        return node
    if len(tok) == 1 and tok in _ATOM_CHARS:
        node = Atom(tok)
    elif _VAR_NAME.match(tok):
        node = Var(tok)
    else:
        cur.fail("expected an atom, a variable, or '('")
    cur.at += 1
    return node


# ---------------------------------------------------------------------------
# Printing


def format_expr(e: Expr) -> str:
    if isinstance(e, Atom):
        return e.letter
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        return " + ".join(
            f"({format_expr(i)})" if isinstance(i, Sum) else format_expr(i)
            for i in e.items
        )
    if isinstance(e, Compose):
        left = format_expr(e.left)
        if isinstance(e.left, Sum):
            left = f"({left})"
        right = format_expr(e.right)
        if isinstance(e.right, (Sum, Compose)):
            right = f"({right})"
        return f"{left} ({format_restriction(e.restriction)}) {right}"
    if isinstance(e, Star):
        body = format_expr(e.body)
        if isinstance(e.body, (Sum, Compose)):
            body = f"({body})"
        return f"{body} *({format_restriction(e.restriction)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Tree walks


def expr_vars(e: Expr) -> Iterator[str]:
    if isinstance(e, Var):
        yield e.name
    elif isinstance(e, Sum):
        for item in e.items:
            yield from expr_vars(item)
    elif isinstance(e, Compose):
        yield from expr_vars(e.left)
        yield from expr_vars(e.right)
    elif isinstance(e, Star):
        yield from expr_vars(e.body)


def expr_restrictions(e: Expr) -> Iterator[Restriction]:
    if isinstance(e, Sum):
        for item in e.items:
            yield from expr_restrictions(item)
    elif isinstance(e, Compose):
        yield e.restriction
        yield from expr_restrictions(e.left)
        yield from expr_restrictions(e.right)
    elif isinstance(e, Star):
        yield e.restriction
        yield from expr_restrictions(e.body)


def classify(e: Expr) -> str:
    """Class name: extended when any selector filters on extremeness."""
    if any(uses_extremeness(r) for r in expr_restrictions(e)):
        return X2RE
    return N2RE


# ---------------------------------------------------------------------------
# Equation systems


@record
class EquationSystem:
    """Ordered variable definitions; every referenced name is defined."""

    equations: tuple[tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        if not self.equations:
            raise ValueError("no equations")
        names = [name for name, _ in self.equations]
        seen: set[str] = set()
        for name in names:
            if not _VAR_NAME.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate definition of {name}")
            seen.add(name)
        for name, rhs in self.equations:
            for ref in expr_vars(rhs):
                if ref not in seen:
                    raise ValueError(
                        f"undefined variable {ref} in the definition of {name}"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.equations)


def parse_system(text: str) -> EquationSystem:
    """One `Name = expression` per line or semicolon-separated statement."""
    equations: list[tuple[str, Expr]] = []
    for line in source_lines(text):
        for piece in line.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            name, eq, rhs = piece.partition("=")
            name, rhs = name.rstrip(), rhs.lstrip()
            if not (eq and rhs and _VAR_NAME.fullmatch(name)):
                raise ValueError(f"expected 'Name = expression', got {piece!r}")
            equations.append((name, parse_expr(rhs)))
    return EquationSystem(tuple(equations))


def format_system(sys: EquationSystem) -> str:
    return "\n".join(f"{name} = {format_expr(rhs)}" for name, rhs in sys.equations) + "\n"


# ---------------------------------------------------------------------------
# Evaluation


class Rounds:
    """Each expression node's language from the last completed round and
    from the round in progress, keyed by the node, and each composition
    and star node's composition context.

    Equal nodes share one entry, so a repeated subexpression is evaluated
    once per round. A context (compose.Context) holds the node's compiled
    plan and its right operand, sorted by size with each word's masks:
    a composition's right language, a star's known words. Each round
    extends it by the new words only. Values and contexts alike assume
    one bounds for every round.
    """

    def __init__(self) -> None:
        self.done: dict[Expr, frozenset[Word]] = {}
        self.current: dict[Expr, frozenset[Word]] = {}
        self.contexts: dict[Expr, Context] = {}

    def commit(self) -> None:
        """Make the round in progress the last completed one."""
        self.done, self.current = self.current, {}

    def context(self, e: Union[Compose, Star], bounds: Bounds) -> Context:
        ctx = self.contexts.get(e)
        if ctx is None:
            ctx = self.contexts[e] = Context(e.restriction, bounds)
        return ctx


def eval_expr(
    e: Expr,
    env: Mapping[str, Iterable[Word]],
    bounds: Bounds,
    budget: Budget,
    rounds: Optional[Rounds] = None,
) -> frozenset[Word]:
    """Language of an expression under a variable environment, in bounds.

    Evaluation is semi-naive over `rounds`: a node that has a value from
    the last completed round only adds what the words new since then
    produce. A variable normalizes and admits only its words outside its
    old value. A composition L (r) R adds the pairs of new left words with
    all right words and of old left words with new right words, and a
    star resumes from its old closure; both compose through the node's
    context in `rounds`, which holds the right words sorted from earlier
    rounds and takes in only the new ones. This is exact when no variable
    lost a word since that round, as in a solve's rounds from the empty
    environment, since every operator is monotone. Without `rounds`,
    evaluation is a first round, in which every word is new. Every
    composed pair is charged to `budget`, which raises BudgetExhausted
    once it runs out.
    """
    if rounds is None:
        rounds = Rounds()
    value = rounds.current.get(e)
    if value is not None:
        return value
    old = rounds.done.get(e, frozenset())
    if isinstance(e, Atom):
        value = frozenset({Word(((0, 0, e.letter),))})
    elif isinstance(e, Var):
        if e.name not in env:
            raise ValueError(f"unbound variable {e.name}")
        fresh = frozenset(env[e.name]) - old
        value = old | frozenset(w for w in map(normalize, fresh) if bounds.admits(w))
    elif isinstance(e, Sum):
        value = frozenset().union(
            *(eval_expr(item, env, bounds, budget, rounds) for item in e.items)
        )
    elif isinstance(e, Compose):
        left = eval_expr(e.left, env, bounds, budget, rounds)
        right = eval_expr(e.right, env, bounds, budget, rounds)
        old_left = rounds.done.get(e.left, frozenset())
        old_right = rounds.done.get(e.right, frozenset())
        ctx = rounds.context(e, bounds)
        fresh = ctx.extend(old_right, right)
        value = (
            old
            | compose_langs(left - old_left, ctx.right, ctx, bounds, budget)
            | compose_langs(old_left, fresh, ctx, bounds, budget)
        )
    elif isinstance(e, Star):
        base = eval_expr(e.body, env, bounds, budget, rounds)
        ctx = rounds.context(e, bounds)
        value = star(base, e.restriction, bounds, budget, closed=old, context=ctx)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    rounds.current[e] = value
    return value
