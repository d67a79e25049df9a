"""Expression DSL: grammar, printer, classification, evaluation."""

import random

import pytest

from gridlang.compose import (
    MAX_NESTING,
    And,
    Comparison,
    Not,
    Or,
    ParseError,
    format_restriction,
    parse_restriction,
)
from gridlang.grid import Bounds, Budget, Selector, Word, corpus_text, translate
from gridlang.expr import (
    Atom,
    Compose,
    EquationSystem,
    Rounds,
    Star,
    Sum,
    Var,
    classify,
    eval_expr,
    expr_restrictions,
    expr_vars,
    format_expr,
    format_system,
    parse_expr,
    parse_system,
)

from conftest import W, random_edits, random_restriction, random_word, with_comments


def random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Atom(rng.choice("abx012"))
        return Var(rng.choice(["X", "Y1", "Er", "X5'", "U_v"]))
    kind = rng.choice(["sum", "compose", "star"])
    if kind == "sum":
        return Sum(tuple(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "compose":
        return Compose(
            random_expr(rng, depth - 1),
            random_restriction(rng, 2),
            random_expr(rng, depth - 1),
        )
    return Star(random_expr(rng, depth - 1), random_restriction(rng, 2))


def tree_depth(tree) -> int:
    """Nodes on the longest path down an expression or restriction tree,
    selectors left out, counted without recursion."""
    deepest, todo = 0, [(tree, 1)]
    while todo:
        node, d = todo.pop()
        deepest = max(deepest, d)
        if isinstance(node, (Sum, And, Or)):
            todo += [(item, d + 1) for item in node.items]
        elif isinstance(node, Compose):
            todo += [(node.left, d + 1), (node.restriction, d + 1), (node.right, d + 1)]
        elif isinstance(node, Star):
            todo += [(node.body, d + 1), (node.restriction, d + 1)]
        elif isinstance(node, Not):
            todo.append((node.item, d + 1))
    return deepest


def cmp(a: str, op: str, b: str) -> Comparison:
    def sel(s: str) -> Selector:
        if s.startswith("x"):
            return Selector(s[1:], "extreme")
        return Selector(s)

    return Comparison(sel(a), op, sel(b))


class TestGrammar:
    def test_sum_of_atom_and_composition(self):
        e = parse_expr("c + c (sw=ne) X1")
        assert e == Sum(
            (Atom("c"), Compose(Atom("c"), cmp("sw", "=", "ne"), Var("X1")))
        )

    def test_star_in_group(self):
        assert parse_expr("(0 *(e=w))") == Star(Atom("0"), cmp("e", "=", "w"))

    def test_left_associative_composition(self):
        e = parse_expr("a (e=w) b (n=s) c")
        assert e == Compose(
            Compose(Atom("a"), cmp("e", "=", "w"), Atom("b")),
            cmp("n", "=", "s"),
            Atom("c"),
        )

    def test_star_binds_tighter_than_composition(self):
        e = parse_expr("a *(e=w) (n=s) b")
        assert e == Compose(
            Star(Atom("a"), cmp("e", "=", "w")), cmp("n", "=", "s"), Atom("b")
        )

    def test_sum_is_loosest(self):
        e = parse_expr("a + b (e=w) c")
        assert e == Sum((Atom("a"), Compose(Atom("b"), cmp("e", "=", "w"), Atom("c"))))

    def test_grouped_sum_as_operand(self):
        e = parse_expr("(a + b) (e=w) c")
        assert e == Compose(
            Sum((Atom("a"), Atom("b"))), cmp("e", "=", "w"), Atom("c")
        )

    def test_primed_variable(self):
        assert parse_expr("X5'") == Var("X5'")

    def test_variable_names(self):
        assert parse_expr("Erect") == Var("Erect")
        assert parse_expr("U_2") == Var("U_2")

    def test_names_end_at_their_last_character(self):
        # A pattern anchored with '$' would let a trailing newline through.
        with pytest.raises(ValueError, match="bad variable name"):
            Var("X\n")
        with pytest.raises(ValueError, match="bad variable name"):
            EquationSystem((("X\n", Atom("a")),))

    def test_comments_and_whitespace(self):
        e = parse_expr("c -- roof seed\n  + c")
        assert e == Sum((Atom("c"), Atom("c")))

    def test_unfinished_composition_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("a (")
        assert exc.value.pos == 2

    @pytest.mark.parametrize(
        "bad",
        ["", "a +", "a (e=w)", ") a", "a *", "a *(e=w", "ab", "a b", "_x", "a (e=q) b"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    def test_nested_restriction_parens(self):
        e = parse_expr("a ((xne<xsw)&!((!x)nw#sw)) b")
        assert isinstance(e, Compose)
        assert classify(e) == "x2RE"


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "c + c (sw=ne) X1",
            "0 *(e=w)",
            "a *(e=w) (n=s) b *(w=e)",
            "(a + b) (e=w) c",
            "a (e=w) (b (n=s) c)",
            "((a *(e=w)) (se=ne) (a *(s=n))) (sw=ne) ((a *(e=w)) (nw=sw) (a *(s=n)))",
            "X5 + X5 ((xne<xsw)&!((!x)nw#sw)) X5'",
            "x + X ((n<s)&(e<w)&(s<n)&(w<e)) Erect",
            "c ((s<n)&!(sw#nw)&!(se#ne)) X4",
        ],
    )
    def test_round_trip(self, text):
        tree = parse_expr(text)
        assert parse_expr(format_expr(tree)) == tree

    def test_canonical_strings(self):
        assert format_expr(parse_expr("c + c (sw=ne) X1")) == "c + c (sw=ne) X1"
        assert format_expr(parse_expr("(0 *(e=w))")) == "0 *(e=w)"
        assert format_expr(parse_expr("(a+b)(e=w)c")) == "(a + b) (e=w) c"

    def test_random_trees_round_trip(self):
        rng = random.Random(20240816)
        for _ in range(200):
            tree = random_expr(rng, 3)
            assert parse_expr(format_expr(tree)) == tree


class TestNestingBound:
    """Text nested up to MAX_NESTING parses, and its printed form parses back."""

    RESTRICTIONS = [
        "!" * MAX_NESTING + "n=s",
        "(" * MAX_NESTING + "n=s" + ")" * MAX_NESTING,
        "!(" * (MAX_NESTING // 2) + "n=s&e=w" + ")" * (MAX_NESTING // 2),
        "!" * (MAX_NESTING - 2) + "(n=s|(e=w&always))",
    ]
    EXPRESSIONS = [
        "(" * MAX_NESTING + "a" + ")" * MAX_NESTING,
        "a" + " (e=w) a" * MAX_NESTING,
        "a" + " *(e=w)" * MAX_NESTING,
        "a (" + "!" * MAX_NESTING + "n=s) b",
        "a (e=w) (" * MAX_NESTING + "b" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING - 2) + "a + b (!(n=s|e=w)) c" + ")" * (MAX_NESTING - 2),
    ]

    @pytest.mark.parametrize("text", RESTRICTIONS, ids=["not", "group", "mixed", "or"])
    def test_restriction_at_the_bound(self, text):
        tree = parse_restriction(text)
        assert parse_restriction(format_restriction(tree)) == tree
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_restriction("!" + text)

    @pytest.mark.parametrize(
        "text",
        EXPRESSIONS,
        ids=["group", "compose", "star", "restriction", "right", "mixed"],
    )
    def test_expression_at_the_bound(self, text):
        tree = parse_expr(text)
        assert parse_expr(format_expr(tree)) == tree
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_expr("(" + text + ") *(e=w)")

    def test_system_at_the_bound(self):
        sys = parse_system(
            "".join(f"X{i} = {text}\n" for i, text in enumerate(self.EXPRESSIONS))
        )
        assert parse_system(format_system(sys)) == sys

    def test_random_trees_deepest_admitted_round_trip(self):
        # Wrap each random tree in as many brackets as the bound admits;
        # the printed form of what parses must parse back equal.
        rng = random.Random(7)
        for _ in range(100):
            text = format_expr(random_expr(rng, 3))
            for k in range(MAX_NESTING, -1, -1):
                try:
                    tree = parse_expr("(" * k + text + ")" * k)
                except ParseError:
                    continue
                break
            assert parse_expr(format_expr(tree)) == tree
            inner = format_restriction(random_restriction(rng, 3))
            for k in range(MAX_NESTING, -1, -1):
                try:
                    r = parse_restriction("!" * k + "(" + inner + ")")
                except ParseError:
                    continue
                break
            assert parse_restriction(format_restriction(r)) == r

    def test_admitted_trees_nest_at_most_twice_the_bound(self):
        # The bound counts brackets, negations and chain links along each
        # path; the trees it admits here stay within 2 * MAX_NESTING + 2.
        trees = [parse_restriction(text) for text in self.RESTRICTIONS]
        trees += [parse_expr(text) for text in self.EXPRESSIONS]
        rng = random.Random(20240816)
        trees += [parse_expr(format_expr(random_expr(rng, 3))) for _ in range(200)]
        rng = random.Random(7)
        for _ in range(100):
            text = format_expr(random_expr(rng, 3))
            trees.append(deepest_admitted(parse_expr, lambda k: "(" * k + text + ")" * k))
            inner = format_restriction(random_restriction(rng, 3))
            trees.append(
                deepest_admitted(parse_restriction, lambda k: "!" * k + "(" + inner + ")")
            )
        assert max(map(tree_depth, trees)) <= 2 * MAX_NESTING + 2


def deepest_admitted(parse, wrap):
    """What `parse` reads from `wrap(k)` for the largest k up to
    MAX_NESTING that it admits."""
    for k in range(MAX_NESTING, -1, -1):
        try:
            return parse(wrap(k))
        except ParseError:
            pass


class TestEditedText:
    """Seeded edits of formatted restrictions, expressions and corpus
    systems, with a letter beyond ASCII, a Unicode blank, an Arabic-Indic
    digit and an uppercase letter beyond ASCII: each edit parses and
    prints back to text that parses equal, or raises ValueError."""

    ALPHABET = "()!&|=<>#*+;' nsewxabc012XY-\n\t" + "é\xa0٣É"
    CASES = 1500

    def check(self, rng, bases, parse, fmt) -> None:
        parsed = 0
        for base in bases:
            text = random_edits(rng, base, self.ALPHABET)
            try:
                tree = parse(text)
            except ValueError:
                continue
            parsed += 1
            assert parse(fmt(tree)) == tree, text
        assert parsed > 0

    def test_edited_restrictions(self):
        rng = random.Random(2501)
        bases = [format_restriction(random_restriction(rng, 3)) for _ in range(self.CASES)]
        self.check(rng, bases, parse_restriction, format_restriction)

    def test_edited_expressions(self):
        rng = random.Random(2502)
        bases = [format_expr(random_expr(rng, 3)) for _ in range(self.CASES)]
        self.check(rng, bases, parse_expr, format_expr)

    @pytest.mark.parametrize(
        "name", ["diamonds.t2d", "f02ac-general.t2d", "f02ac.t2d", "mutual.t2d", "squares.t2d"]
    )
    def test_edited_corpus_systems(self, name):
        bases = [corpus_text(name)] * self.CASES
        self.check(random.Random(2503), bases, parse_system, format_system)


class TestClassify:
    def test_plain(self):
        assert classify(parse_expr("a (e=w) b")) == "n2RE"
        assert classify(parse_expr("X")) == "n2RE"
        assert classify(parse_expr("a + b")) == "n2RE"

    def test_extreme_selector(self):
        assert classify(parse_expr("a (e>xw) b")) == "x2RE"
        assert classify(parse_expr("a *(xe=w)")) == "x2RE"
        assert classify(parse_expr("a ((!x)nw#sw) b")) == "x2RE"

    def test_walks(self):
        e = parse_expr("A + a (e=w) B *(n=s)")
        assert sorted(expr_vars(e)) == ["A", "B"]
        assert len(list(expr_restrictions(e))) == 2


class TestSystems:
    def test_parse_order_and_names(self):
        sys = parse_system("A = a\nB = A + b\n")
        assert sys.names == ("A", "B")
        assert dict(sys.equations)["B"] == Sum((Var("A"), Atom("b")))

    def test_semicolons_and_comments(self):
        sys = parse_system("A = a; B = b -- two at once\n")
        assert sys.names == ("A", "B")

    def test_forward_reference(self):
        sys = parse_system("A = B (e=w) a\nB = b\n")
        assert sys.names == ("A", "B")

    def test_self_reference(self):
        sys = parse_system("X1 = c + c (sw=ne) X1\n")
        assert sys.names == ("X1",)

    def test_undefined_variable(self):
        with pytest.raises(ValueError, match="E"):
            parse_system("X = x + E\n")

    def test_duplicate_definition(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_system("X = x\nX = y\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="no equations"):
            parse_system("-- nothing here\n")

    def test_bad_statement(self):
        for bad in ("lowercase = a", "X =", "= a", "X Y = a", "X' a"):
            with pytest.raises(ValueError, match="expected 'Name = expression'"):
                parse_system(bad + "\n")

    def test_format_round_trip(self):
        text = "X1 = c + c (sw=ne) X1\nX2 = X1 (ne=nw) 2\n"
        sys = parse_system(text)
        assert format_system(sys) == text
        assert parse_system(format_system(sys)) == sys
        assert parse_system(with_comments(text)) == sys


class TestEval:
    def test_atom(self):
        b = Bounds(2, 2, 4)
        assert eval_expr(parse_expr("a"), {}, b, Budget(b.node_budget)) == {W("a")}

    def test_sum(self):
        b = Bounds(2, 2, 4)
        assert eval_expr(parse_expr("a + b"), {}, b, Budget(b.node_budget)) == {
            W("a"),
            W("b"),
        }

    def test_sum_idempotent(self):
        b = Bounds(2, 2, 4)
        twice = eval_expr(parse_expr("a + a"), {}, b, Budget(b.node_budget))
        assert twice == eval_expr(parse_expr("a"), {}, b, Budget(b.node_budget))

    def test_compose(self):
        b = Bounds(1, 2, 2)
        assert eval_expr(parse_expr("a (e=w) b"), {}, b, Budget(b.node_budget)) == {
            W("ab")
        }

    def test_star_chain(self):
        b = Bounds(1, 3, 3)
        lang = eval_expr(
            parse_expr("(0 *(e=w)) (e=w) 2"), {}, b, Budget(b.node_budget)
        )
        assert lang == {W("02"), W("002")}

    def test_bounds_monotone(self):
        e = parse_expr("(0 *(e=w)) (e=w) 2")
        b_small, b_big = Bounds(1, 3, 3), Bounds(1, 5, 5)
        small = eval_expr(e, {}, b_small, Budget(b_small.node_budget))
        big = eval_expr(e, {}, b_big, Budget(b_big.node_budget))
        assert small <= big
        assert W("00002") in big

    def test_var_lookup_and_bounds_filter(self):
        env = {"X": {W("a"), W("aaa")}}
        b = Bounds(2, 2, 4)
        assert eval_expr(parse_expr("X"), env, b, Budget(b.node_budget)) == {W("a")}

    def test_var_normalizes(self):
        shifted = Word(((3, 4, "a"),))
        b = Bounds(1, 1, 1)
        assert eval_expr(
            parse_expr("X"), {"X": {shifted}}, b, Budget(b.node_budget)
        ) == {W("a")}

    def test_unbound_variable(self):
        b = Bounds(1, 1, 1)
        with pytest.raises(ValueError, match="unbound variable X"):
            eval_expr(parse_expr("X"), {}, b, Budget(b.node_budget))

    def test_rounds_over_growing_lists_match_fresh_evaluations(self):
        # Each round of a Rounds adds only what the new words produce; with
        # list environments that grow by shifted words, repeats and words
        # outside the bounds, each round still gives a fresh evaluation.
        rng = random.Random(2710)
        names = ["X", "Y1", "Er", "X5'", "U_v"]
        bounds = Bounds(2, 3, 3)
        grew = 0
        for _ in range(200):
            e = random_expr(rng, 3)
            env = {name: [] for name in names}
            rounds, last = Rounds(), frozenset()
            for _ in range(4):
                for words in env.values():
                    for _ in range(rng.randint(0, 2)):
                        w = random_word(rng, rng.choice((2, 3)))
                        words.append(translate(w, rng.randint(-2, 2), rng.randint(-2, 2)))
                    if words and rng.random() < 0.3:
                        words.append(rng.choice(words))
                got = eval_expr(e, env, bounds, Budget(10**6), rounds)
                rounds.commit()
                assert got == eval_expr(e, env, bounds, Budget(10**6)), format_expr(e)
                grew += bool(last) and got != last
                last = got
        assert grew >= 80, grew
