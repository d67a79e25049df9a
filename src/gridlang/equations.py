"""Bounded least-fixed-point solving of recursive equation systems.

A system is solved by round-based iteration from the all-empty
environment: every round evaluates every right-hand side against the
previous round's sets, so the result does not depend on equation order.
All operators are monotone and the bounded universe of words is finite,
which makes the iteration reach the least fixed point within bounds.

Rounds are semi-naive (Bancilhon and Ramakrishnan, 1986): each
expression node keeps its value from the last completed round, and a
round composes only the pairs that involve a word new since then. The
values and the number of rounds are those of full re-evaluation.

The node budget from the bounds is shared across the entire solve.
When it runs out mid-round, the last completed round is returned with
saturated=False instead of raising.

Two systems from the problem domain ship as builtins, read from the
packaged corpus files: a square-growing system whose solution is the
odd squares of a's with a single x center (squares.t2d), and the
roof-and-fill system describing the language of the F02ac.c tile
system, in a basic form (f02ac.t2d) and a general form that merges
roofs through extremeness-filtered corner restrictions
(f02ac-general.t2d).
"""

from __future__ import annotations

from .expr import EquationSystem, Rounds, eval_expr, parse_system
from .grid import Bounds, Budget, BudgetExhausted, Word, corpus_text, record


@record
class Solution:
    """Solved variable sets plus how the iteration ended."""

    values: dict[str, frozenset[Word]]
    iterations: int
    saturated: bool


def solve(sys: EquationSystem, bounds: Bounds) -> Solution:
    """Least fixed point of the system within bounds.

    The iteration count includes the final round that confirms nothing
    changed, so a non-recursive system takes two rounds.
    """
    budget = Budget(bounds.node_budget)
    env: dict[str, frozenset[Word]] = {name: frozenset() for name in sys.names}
    rounds = Rounds()
    iterations = 0
    while True:
        try:
            new = {
                name: eval_expr(rhs, env, bounds, budget, rounds)
                for name, rhs in sys.equations
            }
        except BudgetExhausted:
            return Solution(values=env, iterations=iterations, saturated=False)
        rounds.commit()
        iterations += 1
        if new == env:
            return Solution(values=new, iterations=iterations, saturated=True)
        env = new


def fixed_point_holds(sys: EquationSystem, sol: Solution, bounds: Bounds) -> bool:
    """Re-evaluate every right-hand side; a true solution reproduces itself."""
    budget = Budget(bounds.node_budget)
    for name, rhs in sys.equations:
        if eval_expr(rhs, sol.values, bounds, budget) != sol.values[name]:
            return False
    return True


# ---------------------------------------------------------------------------
# Builtin systems

def builtin_squares() -> EquationSystem:
    """Growing odd squares of a's around a single x center; target X."""
    return parse_system(corpus_text("squares.t2d"))


def builtin_f02ac(general: bool = False) -> EquationSystem:
    """Roof-and-fill system for the F02ac.c language; target X11.

    The general form adds a roof-merging equation X5' and feeds it into
    X9 in place of X5; single roofs stay reachable since X5' sums them
    in. The basic form describes single-roof (hat-shaped) words only.
    """
    return parse_system(corpus_text("f02ac-general.t2d" if general else "f02ac.t2d"))

