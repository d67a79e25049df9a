"""Restricted composition: formula parsing, evaluation, placement search."""

import random
from collections import Counter

import pytest

from conftest import W, random_restriction, random_word
from gridlang import equations
from gridlang.compose import (
    Always,
    And,
    Budget,
    Comparison,
    Context,
    Not,
    Or,
    ParseError,
    compose_langs,
    compose_words,
    eval_restriction,
    format_restriction,
    parse_restriction,
    star,
    uses_extremeness,
)
from gridlang.expr import parse_system
from gridlang.grid import (
    FILTERS,
    GOLF_KINDS,
    Bounds,
    BudgetExhausted,
    Selector,
    Word,
    corpus_text,
    normalize,
    select,
    translate,
)


def R(text):
    return parse_restriction(text)


class TestParse:
    def test_atom(self):
        assert R("w=e") == Comparison(Selector("w"), "=", Selector("e"))

    def test_extreme_prefix(self):
        assert R("xne<xsw") == Comparison(
            Selector("ne", "extreme"), "<", Selector("sw", "extreme")
        )

    def test_nonextreme_prefix_is_not_grouping(self):
        got = R("(!x)nw#sw")
        assert got == Comparison(Selector("nw", "nonextreme"), "#", Selector("sw"))

    def test_primed_kinds(self):
        assert R("sw'=sw") == Comparison(Selector("sw'"), "=", Selector("sw"))

    def test_connectives_and_precedence(self):
        got = R("w=e&n<s|se#ne")
        assert got == Or(
            (
                And((R("w=e"), R("n<s"))),
                R("se#ne"),
            )
        )

    def test_negation_binds_one_operand(self):
        assert R("!w=e&n<s") == And((Not(R("w=e")), R("n<s")))

    def test_grouping(self):
        assert R("(w=e)") == R("w=e")
        assert R("w=e&(n<s|se#ne)") == And((R("w=e"), Or((R("n<s"), R("se#ne")))))

    def test_always(self):
        assert R("always") == Always()
        assert R("!always") == Not(Always())

    def test_comments_and_whitespace(self):
        assert R(" w = e -- trailing note\n") == R("w=e")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            R("w=")
        assert err.value.pos == 2
        with pytest.raises(ParseError):
            R("q=e")
        with pytest.raises(ParseError):
            R("w=e)")
        with pytest.raises(ParseError):
            R("")


class TestPrint:
    CASES = [
        "w=e",
        "(n<s)&(w<e)&(e<w)",
        "(xne<xsw)&!((!x)nw#sw)",
        "sw'=sw",
        "(e=w)|(w=e)",
        "!(se#ne)",
        "always",
        "((s<n)&!(sw#nw)&!(se#ne))|always",
        "(s<n)&!(sw#nw)&!(se#ne)",
        "(nw>ne)&(nw>sw)",
    ]

    def test_parse_print_identity(self):
        for text in self.CASES:
            tree = R(text)
            assert R(format_restriction(tree)) == tree

    def test_print_random_trees(self):
        rng = random.Random(7)
        for _ in range(200):
            tree = random_restriction(rng, depth=3)
            assert R(format_restriction(tree)) == tree

    def test_classification_helper(self):
        assert not uses_extremeness(R("w=e"))
        assert uses_extremeness(R("xne<xsw"))
        assert uses_extremeness(R("w=e|(!x)nw#sw"))


class TestEval:
    def test_side_by_side_equality(self):
        # b sits west of a; a's west edge coincides with b's east edge.
        a = W("a")
        b = translate(W("b"), 0, -1)
        assert eval_restriction(R("w=e"), a, b)
        assert not eval_restriction(R("n=s"), a, b)

    def test_empty_sets_equal_but_never_meet(self):
        a = W("a")
        b = translate(W("b"), 0, 2)
        # Single cells have no golf corners at all.
        assert eval_restriction(R("nw'=nw'"), a, b)
        assert not eval_restriction(R("nw'#nw'"), a, b)

    def test_inclusion_needs_a_left_element(self):
        a = W("a")
        b = translate(W("b"), 0, 2)
        assert not eval_restriction(R("nw'<nw"), a, b)
        assert not eval_restriction(R("nw>nw'"), a, b)

    def test_inclusion_normal_case(self):
        tall = W("a", "a", "a")
        mid = translate(W("b"), 1, 1)
        # mid's only west edge is one of tall's three east edges.
        assert eval_restriction(R("e>xw"), tall, mid)
        assert eval_restriction(R("e>w"), tall, mid)
        assert not eval_restriction(R("e<w"), tall, mid)

    def test_cross_kind_comparison_by_location(self):
        # A golf corner meets a land corner at the same lattice point:
        # hook's reflex corner sits at (1,1), and a cell at (0,1) puts its
        # sw land corner on that exact point.
        hook = W("a.", "aa")
        other = translate(W("b"), 0, 1)
        assert eval_restriction(R("sw'#sw"), hook, other)
        assert eval_restriction(R("sw'=sw"), hook, other)

    def test_connectives(self):
        a = W("a")
        b = translate(W("b"), 0, -1)
        assert not eval_restriction(R("w=e&n<n"), a, b)
        assert eval_restriction(R("w=e|n<n"), a, b)
        assert eval_restriction(R("!(n<n)"), a, b)
        assert eval_restriction(R("always"), a, b)

    def test_de_morgan_seeded(self):
        rng = random.Random(41)
        for _ in range(150):
            v = random_word(rng, 4)
            w = translate(random_word(rng, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            p = random_restriction(rng, 1)
            q = random_restriction(rng, 1)
            lhs = eval_restriction(Not(And((p, q))), v, w)
            rhs = eval_restriction(Or((Not(p), Not(q))), v, w)
            assert lhs == rhs


class TestComposeWords:
    def test_unique_horizontal_join(self):
        got = compose_words(W("a"), W("b"), R("e=w"))
        assert got == frozenset({W("ab")})

    def test_diagonal_staircase(self):
        step = R("se=nw")
        first = compose_words(W("a"), W("b"), step)
        assert first == frozenset({W("a.", ".b")})
        second = compose_words(W("a.", ".b"), W("c"), step)
        assert second == frozenset({W("a..", ".b.", "..c")})

    def test_contradictory_equalities_empty(self):
        assert compose_words(W("a"), W("b"), R("(e=w)&(w=e)")) == frozenset()

    def test_flush_west_equality(self):
        # Full-height west/east equality forces the one flush placement.
        v = W("ad.", "ecb")
        w = W("ab", "bc")
        got = compose_words(v, w, R("w=e"))
        assert got == frozenset({W("abad.", "bcecb")})

    def test_golf_meets_land_unique_placement(self):
        v = W("ad.", "ecb")
        w = W("ab", "bc")
        got = compose_words(v, w, R("sw'=sw"))
        assert got == frozenset({W("..ab", "adbc", "ecb.")})

    def test_superset_corner_rejects_overlap(self):
        # Two candidate anchors; one collides, leaving a single result.
        v = W("ad.", "ecb")
        w = W("ab", "bc")
        got = compose_words(v, w, R("ne>nw"))
        assert got == frozenset({W("ad...", "ecbab", "...bc")})

    def test_contact_only_composition(self):
        got = compose_words(W("a"), W("b"), Always())
        # 4 edge-adjacent placements plus 4 corner touches.
        assert len(got) == 8
        assert all(len(w) == 2 for w in got)

    def test_no_overlap_and_conserved_cells(self):
        rng = random.Random(11)
        for _ in range(50):
            v = random_word(rng, 3)
            w = random_word(rng, 3)
            r = random_restriction(rng, 2)
            for res in compose_words(v, w, r):
                assert len(res) == len(v) + len(w)


def oracle_eval(r, v, wt):
    """Naive evaluator on fully placed words."""
    if isinstance(r, Always):
        return True
    if isinstance(r, Not):
        return not oracle_eval(r.item, v, wt)
    if isinstance(r, And):
        return all(oracle_eval(item, v, wt) for item in r.items)
    if isinstance(r, Or):
        return any(oracle_eval(item, v, wt) for item in r.items)
    a = {el.key for el in select(v, r.left)}
    b = {el.key for el in select(wt, r.right)}
    if r.op == "=":
        return a == b
    if r.op == "<":
        return bool(a) and a <= b
    if r.op == ">":
        return bool(b) and b <= a
    return bool(a & b)


def oracle_compose(v, w, r):
    """Placement scan written independently: translate, test, collect."""
    v = normalize(v)
    w = normalize(w)
    span = max(v.height, v.width, w.height, w.width) + 2
    out = set()
    corners_v = {
        (r2 + a, c2 + b) for r2, c2 in v.positions for a in (0, 1) for b in (0, 1)
    }
    for dr in range(-span, span + 1):
        for dc in range(-span, span + 1):
            wt = translate(w, dr, dc)
            if v.positions & wt.positions:
                continue
            corners_w = {
                (r2 + a, c2 + b)
                for r2, c2 in wt.positions
                for a in (0, 1)
                for b in (0, 1)
            }
            if not (corners_v & corners_w):
                continue
            if not oracle_eval(r, v, wt):
                continue
            out.add(normalize(Word(v.cells + wt.cells)))
    return frozenset(out)


class TestComposeOracle:
    def test_matches_independent_scanner(self):
        rng = random.Random(20260816)
        for _ in range(120):
            v = random_word(rng, 3)
            w = random_word(rng, 3)
            r = random_restriction(rng, 2)
            assert compose_words(v, w, r) == oracle_compose(v, w, r)

    def test_scanner_on_contact_only(self):
        rng = random.Random(5)
        for _ in range(30):
            v = random_word(rng, 3)
            w = random_word(rng, 3)
            assert compose_words(v, w, Always()) == oracle_compose(v, w, Always())


def oracle_restriction(rng, depth=2):
    """A random restriction that also draws `always`, negations,
    disjunctions, extremeness filters, and golf-corner equalities, which
    on words this small often compare two empty selections."""
    pick = rng.random()
    if pick < 0.1:
        return Always()
    if pick < 0.25:
        golf = lambda: Selector(rng.choice(GOLF_KINDS), rng.choice(FILTERS))
        return Comparison(golf(), "=", golf())
    if depth and pick < 0.55:
        items = tuple(oracle_restriction(rng, depth - 1) for _ in range(2))
        return rng.choice((Not(items[0]), And(items), Or(items)))
    return random_restriction(rng, 0)


class TestComposeLangsOracle:
    def test_matches_the_union_of_pair_scans(self):
        rng = random.Random(1804)
        placed = both_empty = 0
        for _ in range(200):
            l1 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            l2 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            r = oracle_restriction(rng)
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            bounds = Bounds(rows, cols, rng.randint(rows * cols // 2 + 1, rows * cols))
            want = frozenset(
                res
                for v in l1
                for w in l2
                for res in oracle_compose(v, w, r)
                if bounds.admits(res)
            )
            budget = Budget(10_000)
            assert compose_langs(l1, l2, r, bounds, budget) == want, format_restriction(r)
            assert 10_000 - budget.remaining == len(l1) * len(l2)
            placed += bool(want)
            both_empty += any(
                c.op == "=" and not v.selection(c.left) and not w.selection(c.right)
                for c in comparisons(r)
                for v in l1
                for w in l2
            )
        assert placed >= 50 and both_empty >= 40, (placed, both_empty)


def comparisons(r):
    if isinstance(r, Comparison):
        return [r]
    if isinstance(r, Not):
        return comparisons(r.item)
    if isinstance(r, (And, Or)):
        return [c for item in r.items for c in comparisons(item)]
    return []


def spanning_word(rng, rows, cols):
    """A random word whose bounding box is exactly rows x cols, somewhere;
    often the whole box."""
    if rng.random() < 0.5:
        cells = {(r, c): rng.choice("ab") for r in range(rows) for c in range(cols)}
    else:
        cells = {
            (rng.randrange(rows), rng.randrange(cols)): rng.choice("ab")
            for _ in range(rng.randint(0, rows * cols // 2))
        }
    for pos in (
        (0, rng.randrange(cols)),
        (rows - 1, rng.randrange(cols)),
        (rng.randrange(rows), 0),
        (rng.randrange(rows), cols - 1),
    ):
        cells[pos] = rng.choice("ab")
    return translate(Word.from_map(cells), rng.randint(-3, 3), rng.randint(-3, 3))


class TestComposeLangsAtTheFrameEdges:
    # compose_langs places words in a frame as wide as the bounds, so these
    # cases sit where a shifted mask could wrap a column into the next row.
    RESTRICTIONS = (
        "e=w",
        "n=s",  # the right word above
        "nw=se",  # above and to the left
        "ne=sw",  # above and to the right
        "n<w",  # across axes: never
        "e=s",  # across axes, with sides never empty: never
        "w#n",  # across axes: never
        "(!x)n=nw'",  # across axes: only when both sides are empty
        "se>nw",  # '>' only
        "s>n&sw>nw",
        "s<n&sw>nw",  # '<' and '>'
        "xse#xnw",  # '#' only
        "n#s&nw#sw",
        "always",  # contact only
        "e=w|s=n",
        "!(w#e)",
    )
    NEVER = ("n<w", "e=s", "w#n")

    def test_matches_the_union_of_pair_scans(self):
        rng = random.Random(2210)
        held, exact, outside = Counter(), 0, 0
        for text in self.RESTRICTIONS * 15:
            r = R(text)
            sizes = [
                [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
                for _ in range(2)
            ]
            langs = [{spanning_word(rng, *size) for size in side} for side in sizes]

            def extent(k):
                # The largest operand's extent, which a pair placed across the
                # axis can fill, or the sum of two, which fits a pair placed
                # along it; at times one less, leaving an operand outside.
                largest = max(size[k] for side in sizes for size in side)
                fit = rng.choice((largest, sizes[0][0][k] + sizes[1][0][k]))
                return max(1, fit - rng.choice((0, 0, 1)))

            rows, cols = extent(0), extent(1)
            bounds = Bounds(rows, cols, rng.choice((rng.randint(1, rows * cols), rows * cols)))
            want = frozenset(
                res
                for v in langs[0]
                for w in langs[1]
                for res in oracle_compose(v, w, r)
                if bounds.admits(res)
            )
            budget = Budget(10_000)
            assert compose_langs(*langs, r, bounds, budget) == want, text
            assert 10_000 - budget.remaining == len(langs[0]) * len(langs[1])
            held[text] += bool(want)
            for w in langs[0] | langs[1]:
                exact += bounds.admits(w) and (w.height, w.width) == (rows, cols)
                outside += not bounds.admits(w)
        assert all(held[text] == 0 for text in self.NEVER), held
        assert all(held[text] > 0 for text in self.RESTRICTIONS if text not in self.NEVER), held
        assert exact >= 30 and outside >= 150, (exact, outside)


class TestBoundedPlacement:
    # compose_langs tests the bounds on each offset before it builds the
    # placement, and the placement carries the box it computed.
    def test_kept_words_are_the_admitted_placements_with_their_boxes(self):
        rng = random.Random(2707)
        kept = cut = 0
        for _ in range(300):
            l1 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            l2 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            r = oracle_restriction(rng)
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            bounds = Bounds(rows, cols, rng.randint(rows * cols // 2 + 1, rows * cols))
            every = {res for v in l1 for w in l2 for res in compose_words(v, w, r)}
            got = compose_langs(l1, l2, r, bounds, Budget(10_000))
            assert got == {res for res in every if bounds.admits(res)}, format_restriction(r)
            for w in got:
                assert w.__dict__["bbox"] == Word(w.cells).bbox, w.cells
            kept += len(got)
            cut += sum(
                len(v) + len(w) <= bounds.max_cells and not bounds.admits(res)
                for v in l1
                for w in l2
                for res in compose_words(v, w, r)
            )
        assert kept >= 200 and cut >= 200, (kept, cut)


class TestContext:
    # A context carries its plan and its right operand across calls; each
    # call through it equals a one-shot call on the same words.
    def test_growing_operands_match_one_shot_calls(self):
        rng = random.Random(2708)
        placed = rebuilt = 0
        for _ in range(60):
            r = oracle_restriction(rng)
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            bounds = Bounds(rows, cols, rng.randint(1, rows * cols))
            ctx = Context(r, bounds)
            held = frozenset()
            for _ in range(rng.randint(1, 5)):
                new = held | {random_word(rng, 3) for _ in range(rng.randint(0, 3))}
                if rng.random() < 0.2:  # a round cut short extended it further
                    ctx.extend(held, held | {random_word(rng, 3)})
                    rebuilt += 1
                fresh = ctx.extend(held, new)
                sizes = [size for size, _, _ in ctx.right]
                assert sizes == sorted(sizes) and len(sizes) == len(new)
                assert {w for _, w, _ in ctx.right} == set(map(normalize, new))
                left = {random_word(rng, 3) for _ in range(rng.randint(0, 3))}
                for entries, words in ((ctx.right, new), (fresh, new - held)):
                    through, alone = Budget(10_000), Budget(10_000)
                    got = compose_langs(left, entries, ctx, bounds, through)
                    assert got == compose_langs(left, words, r, bounds, alone)
                    assert through.remaining == alone.remaining
                    placed += bool(got)
                held = new
        assert placed >= 50 and rebuilt >= 20, (placed, rebuilt)

    def test_star_resumed_through_its_context(self):
        rng = random.Random(2709)
        bounds = Bounds(4, 4, 4)
        checked = 0
        for _ in range(150):
            base = {random_word(rng, 2) for _ in range(rng.randint(1, 2))}
            delta = {random_word(rng, 2) for _ in range(rng.randint(1, 2))}
            r = random_restriction(rng)
            ctx = Context(r, bounds)
            through, alone = Budget(20_000), Budget(20_000)
            try:
                old = star(base, r, bounds, Budget(3000), context=ctx)
                fresh = star(base | delta, r, bounds, Budget(20_000))
                got = star(base | delta, r, bounds, through, closed=old, context=ctx)
            except BudgetExhausted:
                continue
            checked += 1
            assert got == fresh
            assert got == star(base | delta, r, bounds, alone, closed=old)
            assert through.remaining == alone.remaining
        assert checked >= 100, checked


def gapped_word(rng, cols):
    """Two or three cells in two rows, spread over `cols` columns: a word
    with empty columns inside its box, wider than its cell count."""
    cells = {(rng.randrange(2), c): rng.choice("ab") for c in (0, cols - 1)}
    cells[(rng.randrange(2), rng.randrange(cols))] = rng.choice("ab")
    return Word.from_map(cells)


class TestWordsWithHoles:
    # A word with empty columns inside its box spans more columns than it
    # has cells, so it can be wider than the frame a context starts with,
    # which is as wide as the cell bound; its masks and offsets would then
    # wrap into the next row of the frame.
    def test_wide_operands_match_the_union_of_pair_scans(self):
        rng = random.Random(2901)
        wide = placed = 0
        for _ in range(100):
            # The wide words on one side, so that each side must widen.
            langs = [
                {random_word(rng, 2) for _ in range(rng.randint(1, 2))},
                {gapped_word(rng, rng.randint(6, 14)) for _ in range(rng.randint(1, 2))},
            ]
            rng.shuffle(langs)
            r = oracle_restriction(rng)
            bounds = Bounds(rng.randint(2, 4), rng.randint(16, 30), rng.randint(3, 5))
            want = frozenset(
                res
                for v in langs[0]
                for w in langs[1]
                for res in oracle_compose(v, w, r)
                if bounds.admits(res)
            )
            budget = Budget(10_000)
            assert compose_langs(*langs, r, bounds, budget) == want, format_restriction(r)
            assert 10_000 - budget.remaining == len(langs[0]) * len(langs[1])
            # Wide enough that a mask at the first frame's width would wrap.
            wide += any(w.width > 2 * bounds.max_cells + 4 for side in langs for w in side)
            placed += bool(want)
        assert wide >= 20 and placed >= 25, (wide, placed)

    def test_context_widens_after_masks_were_fetched(self):
        # Narrow words first, so entries hold masks of the first frame; then
        # wider right and left words, through one context, against one-shot
        # calls, their charges and the pair scan.
        rng = random.Random(2902)
        widened = 0
        for _ in range(40):
            r = oracle_restriction(rng)
            bounds = Bounds(3, 30, 3)
            ctx = Context(r, bounds)
            held = frozenset()
            for cols in (1, 2, 9, 12, 14):
                new = held | {gapped_word(rng, cols) if cols > 2 else random_word(rng, cols)}
                fresh = ctx.extend(held, new)
                for left in ({random_word(rng, 2)}, {gapped_word(rng, rng.randint(9, 14))}):
                    for entries, words in ((ctx.right, new), (fresh, new - held)):
                        through, alone = Budget(10_000), Budget(10_000)
                        got = compose_langs(left, entries, ctx, bounds, through)
                        assert got == compose_langs(left, words, r, bounds, alone)
                        assert through.remaining == alone.remaining
                    assert got == {
                        res
                        for v in left
                        for w in new - held
                        for res in oracle_compose(v, w, r)
                        if bounds.admits(res)
                    }
                held = new
            widened += ctx.plan.cols > bounds.max_cells
        assert widened == 40, widened


class TestSolveSpends:
    # The node budget a solve spends: one unit per pair of words that
    # composition meets, pairs it skips without placing included.
    @pytest.mark.parametrize(
        "name, bounds, spent",
        [
            ("squares", Bounds(17, 17, 17), 19_829),
            ("mutual", Bounds(9, 9, 12), 9_972),
            ("f02ac-general", Bounds(7, 7, 16), 7_943),
        ],
    )
    def test_budget_left_after_solve(self, monkeypatch, name, bounds, spent):
        made = []

        class Recorded(Budget):
            def __init__(self, remaining):
                super().__init__(remaining)
                made.append(self)

        monkeypatch.setattr(equations, "Budget", Recorded)
        sol = equations.solve(parse_system(corpus_text(name + ".t2d")), bounds)
        assert sol.saturated and len(made) == 1
        assert made[0].remaining == bounds.node_budget - spent


class TestComposeLangs:
    def test_pairs(self):
        bounds = Bounds(3, 3, 9)
        got = compose_langs(
            {W("a")}, {W("b")}, R("e=w"), bounds, Budget(bounds.node_budget)
        )
        assert got == frozenset({W("ab")})

    def test_empty_annihilates(self):
        bounds = Bounds(3, 3, 9)
        budget = Budget(bounds.node_budget)
        assert compose_langs(set(), {W("a")}, R("e=w"), bounds, budget) == frozenset()

    def test_bounds_filter(self):
        bounds = Bounds(3, 1, 3)
        got = compose_langs(
            {W("a")}, {W("a")}, R("e=w"), bounds, Budget(bounds.node_budget)
        )
        assert got == frozenset()

    def test_budget_charges_per_pair(self):
        budget = Budget(3)
        langs = {W("a"), W("b")}
        with pytest.raises(BudgetExhausted):
            compose_langs(langs, langs, R("e=w"), Bounds(3, 3, 9), budget)


    def test_tight_bounds_equal_wide_results_filtered(self):
        rng = random.Random(3307)
        wide = Bounds(7, 7, 18)
        for _ in range(150):
            l1 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            l2 = {random_word(rng, 3) for _ in range(rng.randint(1, 3))}
            r = random_restriction(rng)
            every = compose_langs(l1, l2, r, wide, Budget(wide.node_budget))
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            tight = Bounds(rows, cols, rng.randint(1, rows * cols))
            got = compose_langs(l1, l2, r, tight, Budget(tight.node_budget))
            assert got == frozenset(w for w in every if tight.admits(w))

    def test_pairs_too_large_to_fit_are_still_charged(self):
        budget = Budget(3)
        langs = {W("aa"), W("bb")}
        with pytest.raises(BudgetExhausted):
            compose_langs(langs, langs, R("e=w"), Bounds(3, 3, 3), budget)


class TestStar:
    def test_horizontal_bars(self):
        bounds = Bounds(1, 4, 4)
        got = star({W("0")}, R("e=w"), bounds, Budget(bounds.node_budget))
        assert got == frozenset({W("0"), W("00"), W("000"), W("0000")})

    def test_antidiagonals(self):
        bounds = Bounds(3, 3, 9)
        got = star({W("c")}, R("sw=ne"), bounds, Budget(bounds.node_budget))
        assert got == frozenset(
            {W("c"), W(".c", "c."), W("..c", ".c.", "c..")}
        )

    def test_empty_base(self):
        bounds = Bounds(3, 3, 9)
        assert star(set(), R("e=w"), bounds, Budget(bounds.node_budget)) == frozenset()

    def test_contains_base_and_idempotent(self):
        bounds = Bounds(3, 3, 9)
        base = {W("a"), W("b")}
        s = star(base, R("e=w"), bounds, Budget(bounds.node_budget))
        assert frozenset(base) <= s
        assert star(s, R("e=w"), bounds, Budget(bounds.node_budget)) == s

    def test_resuming_equals_a_fresh_closure(self):
        rng = random.Random(3308)
        bounds = Bounds(4, 4, 4)
        checked = 0
        for _ in range(300):
            base = {random_word(rng, 2) for _ in range(rng.randint(1, 2))}
            delta = {random_word(rng, 2) for _ in range(rng.randint(1, 2))}
            r = random_restriction(rng)
            try:
                old = star(base, r, bounds, Budget(3000))
                fresh = star(base | delta, r, bounds, Budget(20000))
            except BudgetExhausted:
                continue
            checked += 1
            budget = Budget(bounds.node_budget)
            assert star(base | delta, r, bounds, budget, closed=old) == fresh
        assert checked >= 200, checked

    def test_each_pair_is_composed_once_per_round(self):
        # From one base word the first round composes one pair, and a
        # round with frontier F over known K composes |F|*|K| + (|K|-|F|)*|F|.
        budget = Budget(1)
        assert star({W("0")}, R("e=w"), Bounds(1, 1, 1), budget) == {W("0")}
        assert budget.remaining == 0
        budget = Budget(10_000)
        star({W("0")}, R("e=w"), Bounds(1, 3, 3), budget)
        # Rounds: F={0}: 1; F={00}, K=2: 2+1; F={000}, K=3: 3+2.
        assert 10_000 - budget.remaining == 1 + 3 + 5
