"""Equation solving, builtin systems and corpus files."""

import random

import gridlang.compose
import gridlang.grid
from gridlang.compose import compose_langs
from gridlang.grid import Bounds, Budget, Word, normalize
from gridlang.expr import (
    N2RE,
    X2RE,
    Atom,
    Compose,
    EquationSystem,
    Star,
    Sum,
    Var,
    classify,
    eval_expr,
    parse_expr,
    parse_system,
)
from gridlang.equations import (
    Solution,
    builtin_f02ac,
    builtin_squares,
    corpus_text,
    fixed_point_holds,
    solve,
)
from gridlang.tiling import (
    Scenario,
    Tile,
    accepting,
    parse_tile_system,
    parse_two_color,
    scenario_valid,
    word_accepted,
)

from conftest import W
from test_properties import _random_system


B5 = Bounds(5, 5, 25)


def square_word(k: int) -> Word:
    """The (2k+1)-sided square of a's with an x center."""
    n = 2 * k + 1
    cells = {(r, c): "a" for r in range(n) for c in range(n)}
    cells[(k, k)] = "x"
    return Word.from_map(cells)


def diamond_word(k: int) -> Word:
    """The radius-k diamond of b's with a y center."""
    cells = {
        (r, c): "b"
        for r in range(2 * k + 1)
        for c in range(2 * k + 1)
        if abs(r - k) + abs(c - k) <= k
    }
    cells[(k, k)] = "y"
    return Word.from_map(cells)


def diamond_ring(k: int) -> Word:
    """The radius-k diamond ring alone, hole included."""
    return Word.from_map(
        {
            (r, c): "b"
            for r in range(2 * k + 1)
            for c in range(2 * k + 1)
            if abs(r - k) + abs(c - k) == k
        }
    )


class TestSolve:
    def test_non_recursive_system_takes_two_rounds(self):
        sol = solve(parse_system("X = x"), B5)
        assert sol.values["X"] == frozenset({W("x")})
        assert sol.iterations == 2
        assert sol.saturated

    def test_unproductive_recursion_solves_to_empty(self):
        sol = solve(parse_system("X = X (e=w) X"), B5)
        assert sol.values["X"] == frozenset()
        assert sol.saturated

    def test_least_solution_of_bar_growth_is_the_star(self):
        bounds = Bounds(1, 4, 4)
        sol = solve(parse_system("X = a + X (e=w) a"), bounds)
        budget = Budget(bounds.node_budget)
        star = eval_expr(parse_expr("(a *(e=w))"), {}, bounds, budget)
        assert sol.values["X"] == star
        assert len(sol.values["X"]) == 4

    def test_rounds_grow_one_bar_cell_at_a_time(self):
        sol = solve(parse_system("X = x + X (e=w) a"), Bounds(1, 3, 3))
        assert len(sol.values["X"]) == 3
        assert sol.iterations == 4

    def test_equation_order_does_not_change_the_solution(self):
        sys = builtin_f02ac()
        bounds = Bounds(3, 3, 6)
        baseline = solve(sys, bounds)
        rng = random.Random(7)
        for _ in range(5):
            eqs = list(sys.equations)
            rng.shuffle(eqs)
            again = solve(EquationSystem(tuple(eqs)), bounds)
            assert again.values == baseline.values

    def test_budget_exhaustion_returns_last_completed_round(self):
        bounds = Bounds(5, 5, 25, node_budget=40)
        sol = solve(builtin_squares(), bounds)
        assert not sol.saturated
        full = solve(builtin_squares(), B5)
        for name, got in sol.values.items():
            assert got <= full.values[name]

    def test_solution_is_a_fixed_point(self):
        sys = builtin_squares()
        sol = solve(sys, B5)
        assert fixed_point_holds(sys, sol, B5)

    def test_wrong_values_are_not_a_fixed_point(self):
        sys = builtin_squares()
        sol = solve(sys, B5)
        forged = dict(sol.values)
        forged["X"] = sol.values["X"] | {W("xx")}
        assert not fixed_point_holds(sys, Solution(forged, sol.iterations, True), B5)


def naive_eval(e, env, bounds):
    """Full evaluation by definition: every pair of every operand, and a
    star grown by composing its whole closure with itself."""
    if isinstance(e, Atom):
        return frozenset({Word(((0, 0, e.letter),))})
    if isinstance(e, Var):
        return frozenset(w for w in map(normalize, env[e.name]) if bounds.admits(w))
    if isinstance(e, Sum):
        return frozenset().union(*(naive_eval(i, env, bounds) for i in e.items))
    if isinstance(e, Compose):
        left = naive_eval(e.left, env, bounds)
        right = naive_eval(e.right, env, bounds)
        return compose_langs(
            left, right, e.restriction, bounds, Budget(bounds.node_budget)
        )
    assert isinstance(e, Star)
    closure = naive_eval(e.body, env, bounds)
    while True:
        grown = closure | compose_langs(
            closure, closure, e.restriction, bounds, Budget(bounds.node_budget)
        )
        if grown == closure:
            return closure
        closure = grown


def naive_rounds(sys, bounds):
    """Jacobi rounds from the empty environment by full re-evaluation:
    the environment after each round, the empty one first."""
    env = {name: frozenset() for name in sys.names}
    history = [env]
    while True:
        new = {name: naive_eval(rhs, env, bounds) for name, rhs in sys.equations}
        history.append(new)
        if new == env:
            return history
        env = new


def assert_solve_matches_naive(sys, bounds, history=None):
    """A saturated solve ends where the naive loop does, after as many
    rounds; an unsaturated one returns one of the naive rounds."""
    history = history or naive_rounds(sys, bounds)
    sol = solve(sys, bounds)
    assert sol.values == history[sol.iterations]
    if sol.saturated:
        assert sol.iterations == len(history) - 1
    return sol


class TestSemiNaive:
    def test_builtins_match_the_naive_loop(self):
        cases = [
            (builtin_squares(), Bounds(5, 5, 25), 5),
            (builtin_f02ac(), Bounds(4, 4, 8), None),
            (builtin_f02ac(general=True), Bounds(4, 4, 8), None),
            (parse_system(corpus_text("mutual.t2d")), Bounds(4, 4, 6), None),
            (parse_system(corpus_text("diamonds.t2d")), Bounds(4, 4, 8), None),
        ]
        for sys, bounds, rounds in cases:
            sol = assert_solve_matches_naive(sys, bounds)
            assert sol.saturated
            if rounds is not None:
                assert sol.iterations == rounds

    def test_pinned_round_counts_match_the_naive_loop(self):
        cases = [
            ("X = x", Bounds(5, 5, 25), 2),
            ("X = x + X (e=w) a", Bounds(1, 3, 3), 4),
        ]
        for text, bounds, rounds in cases:
            sol = assert_solve_matches_naive(parse_system(text), bounds)
            assert sol.saturated and sol.iterations == rounds
        general = builtin_f02ac(general=True)
        assert solve(general, Bounds(6, 6, 12)).iterations == 15

    def test_random_systems_match_the_naive_loop(self):
        rng = random.Random(2305)
        saturated = unsaturated = 0
        for k in range(200):
            sys = _random_system(rng)
            bounds = Bounds(4, 4, 4)
            history = naive_rounds(sys, bounds)
            sol = assert_solve_matches_naive(sys, bounds, history)
            assert sol.saturated
            # Every fourth system again under a budget small enough that
            # some solves stop early.
            if k % 4 == 0:
                tight = Bounds(4, 4, 4, node_budget=rng.randint(1, 60))
                sol = assert_solve_matches_naive(sys, tight, history)
                saturated += sol.saturated
                unsaturated += not sol.saturated
        assert saturated and unsaturated, (saturated, unsaturated)

    def test_no_module_cache_is_left_after_a_solve(self):
        solve(builtin_squares(), Bounds(5, 5, 25))
        for module in (gridlang.grid, gridlang.compose):
            cached = [
                name for name, obj in vars(module).items() if hasattr(obj, "cache_info")
            ]
            assert not cached, (module.__name__, cached)


class TestSquares:
    def test_smallest_two_words(self):
        sol = solve(builtin_squares(), Bounds(3, 3, 9))
        assert sol.values["X"] == frozenset({W("x"), square_word(1)})

    def test_matches_direct_generator_up_to_five(self):
        sol = solve(builtin_squares(), B5)
        expected = frozenset({W("x"), square_word(1), square_word(2)})
        assert sol.values["X"] == expected

    def test_intermediate_sizes_are_stable(self):
        sol = solve(builtin_squares(), B5)
        assert {n: len(v) for n, v in sol.values.items()} == {
            "Er": 12,
            "Erect": 9,
            "X": 3,
        }
        assert sol.saturated


class TestHats:
    def test_anti_diagonal_chains(self):
        sol = solve(builtin_f02ac(), Bounds(3, 3, 9))
        assert sol.values["X1"] == frozenset(
            {W("c"), W(".c", "c."), W("..c", ".c.", "c..")}
        )

    def test_smallest_hat_is_the_four_cell_roof(self):
        sol = solve(builtin_f02ac(), Bounds(4, 4, 8))
        target = sol.values["X11"]
        assert W(".c.", "c2c") in target
        assert W("c") not in target
        assert min(len(w) for w in target) == 4

    def test_general_variant_extends_the_basic_one(self):
        bounds = Bounds(6, 6, 12)
        basic = solve(builtin_f02ac(), bounds)
        general = solve(builtin_f02ac(general=True), bounds)
        assert basic.values["X11"] < general.values["X11"]

    def test_general_variant_sizes_are_stable(self):
        sol = solve(builtin_f02ac(general=True), Bounds(6, 6, 12))
        assert sol.saturated
        assert sol.iterations == 15
        assert {n: len(v) for n, v in sol.values.items()} == {
            "X1": 6,
            "X2": 5,
            "X3": 6,
            "X4": 10,
            "X5": 10,
            "X5'": 11,
            "X6": 10,
            "X7": 6,
            "X8": 6,
            "X9": 14,
            "X10": 68,
            "X11": 133,
        }

    def test_every_hat_word_is_tile_accepted(self):
        # 7x7x16 is the smallest bound at which a bar can be laid over the
        # apex of a roof merged further down, so it covers every guard.
        tiles = parse_two_color("F02ac.c")
        for general in (False, True):
            sol = solve(builtin_f02ac(general=general), Bounds(7, 7, 16))
            assert sol.saturated
            rejected = [
                w for w in sol.values["X11"] if not word_accepted(tiles, w)
            ]
            assert not rejected, (general, len(rejected))

    def test_basic_system_never_filters_on_extremeness(self):
        for _, rhs in builtin_f02ac().equations:
            assert classify(rhs) == N2RE

    def test_roof_merging_equation_filters_on_extremeness(self):
        general = dict(builtin_f02ac(general=True).equations)
        assert classify(general["X5'"]) == X2RE
        assert classify(general["X1"]) == N2RE


class TestCorpus:
    def test_equation_files_match_builtins(self):
        assert parse_system(corpus_text("squares.t2d")) == builtin_squares()
        assert parse_system(corpus_text("f02ac.t2d")) == builtin_f02ac()
        assert parse_system(corpus_text("f02ac-general.t2d")) == builtin_f02ac(
            general=True
        )

    def test_diamonds_contain_exact_diamonds(self):
        sol = solve(parse_system(corpus_text("diamonds.t2d")), B5)
        assert sol.saturated
        assert {W("y"), diamond_word(1), diamond_word(2)} <= sol.values["Y"]
        assert {diamond_ring(1), diamond_ring(2)} <= sol.values["Dring"]
        for w in sol.values["Y"]:
            assert sum(1 for _, _, ch in w.cells if ch == "y") in (0, 1)

    def test_mutual_pair_alternates_centers_diagonally(self):
        sol = solve(parse_system(corpus_text("mutual.t2d")), B5)
        assert sol.saturated
        u, v = sol.values["U"], sol.values["V"]
        assert {W("x"), square_word(1), square_word(2)} <= u
        assert {W("y"), diamond_word(1), diamond_word(2)} <= v
        assert W("x.", ".y") in u
        assert W("y.", ".x") in v
        assert W("x.", ".x") not in u
        chain5 = W("x....", ".y...", "..x..", "...y.", "....x")
        assert chain5 in u and chain5 not in v

    def test_two_letter_tile_file_round_trips_the_examples(self):
        f = parse_tile_system(corpus_text("twocolor-example.sats"))
        a1 = Tile("a", "8", "1", "9", "2")
        a2 = Tile("a", "9", "1", "9", "4")
        b = Tile("b", "9", "1", "9", "1")
        c = Tile("c", "7", "1", "9", "2")
        assert set(f.tiles) == {a1, a2, b, c}
        lone = Scenario(((0, 0, a1),))
        bent = Scenario(((0, 0, a1), (0, 1, b), (1, 1, c)))
        spoiled = Scenario(((0, 0, a1), (0, 1, b), (1, 1, c), (1, 2, a2)))
        assert scenario_valid(f, lone) and accepting(f, lone)
        assert scenario_valid(f, bent) and accepting(f, bent)
        assert scenario_valid(f, spoiled) and not accepting(f, spoiled)
