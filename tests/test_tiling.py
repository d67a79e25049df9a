"""Tile systems, scenarios, enumeration, projection."""

import itertools
import random

import pytest

from gridlang.grid import (
    Bounds,
    Budget,
    BudgetExhausted,
    Word,
    normalize,
    render_ascii,
    word_sort_key,
)
from gridlang.tiling import (
    LanguageDiff,
    Nfa,
    Scenario,
    Tile,
    TileSystem,
    _search,
    _START,
    _walk,
    accepting,
    column_strings,
    count_language,
    diff_against_language,
    enumerate_language,
    format_language_diff,
    format_tile_system,
    parse_tile_system,
    parse_two_color,
    project_to_nfa,
    scenario_valid,
    word_accepted,
)

from conftest import W, random_tile_system, random_word, with_comments


def scen(f: TileSystem, *rows: str, top: int = 0, left: int = 0) -> Scenario:
    """Build a scenario from an ascii letter grid, one tile per letter."""
    cells = []
    for dr, row in enumerate(rows):
        for dc, ch in enumerate(row):
            if ch != ".":
                (tile,) = f.tiles_by_letter[ch]
                cells.append((top + dr, left + dc, tile))
    return Scenario(tuple(cells))


F = parse_two_color("F02ac.c")


def hat_scenario() -> Scenario:
    """A 6-row roofed figure with a one-cell hole in the bottom row."""
    return scen(
        F,
        ".....c.....",
        "....c2c....",
        "...c2aac...",
        "..c002aac..",
        ".c000002ac.",
        "c000.aaaaac",
    )


class TestTileBasics:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            Tile("", "0", "0", "0", "0")
        with pytest.raises(ValueError):
            Tile("ab", "0", "0", "0", "0")
        with pytest.raises(ValueError):
            Tile(".", "0", "0", "0", "0")

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Tile("a", "", "0", "0", "0")
        with pytest.raises(ValueError):
            Tile("a", "0", "a b", "0", "0")
        with pytest.raises(ValueError):
            Tile("a", "0", "0", "{x}", "0")

    def test_labels_cannot_start_a_comment(self):
        # The text format reads '--' as the start of a comment.
        for label in ("x--y", "--", "x--"):
            with pytest.raises(ValueError, match="bad border label"):
                Tile("a", label, "0", "0", "0")
        f = TileSystem(
            (Tile("a", "x-y", "0", "-", "0"),),
            frozenset({"x-y"}), frozenset("0"), frozenset("-"), frozenset("0"),
        )
        assert parse_tile_system(format_tile_system(f)) == f

    def test_equality(self):
        assert Tile("a", "0", "0", "1", "1") == Tile("a", "0", "0", "1", "1")
        assert Tile("a", "0", "0", "1", "1") != Tile("a", "0", "0", "1", "0")


class TestTileSystemBasics:
    def test_tiles_sorted_and_deduped(self):
        t1 = Tile("b", "0", "0", "1", "0")
        t2 = Tile("a", "0", "0", "1", "0")
        f = TileSystem((t1, t2, t1), frozenset("0"), frozenset("0"), frozenset("1"), frozenset("0"))
        assert f.tiles == (t2, t1)
        assert f.letters == {"a", "b"}

    def test_needs_tiles(self):
        with pytest.raises(ValueError):
            TileSystem((), frozenset(), frozenset(), frozenset(), frozenset())

    def test_tiles_by_letter_groups(self):
        t1 = Tile("a", "0", "0", "1", "1")
        t2 = Tile("a", "0", "1", "1", "0")
        f = TileSystem((t1, t2), frozenset("0"), frozenset("0"), frozenset("1"), frozenset("0"))
        assert f.tiles_by_letter == {"a": (t1, t2)}


class TestTwoColor:
    def test_f02ac_c(self):
        f = parse_two_color("F02ac.c")
        by = {t.letter: (t.west, t.north, t.east, t.south) for t in f.tiles}
        assert by == {
            "0": ("0", "0", "0", "0"),
            "2": ("0", "0", "1", "0"),
            "a": ("1", "0", "1", "0"),
            "c": ("1", "1", "0", "0"),
        }
        assert f.external_west == {"1"}
        assert f.external_north == {"1"}
        assert f.external_east == {"0"}
        assert f.external_south == {"0"}

    def test_single_tile_all_labels(self):
        f = parse_two_color("Fb")
        (t,) = f.tiles
        assert (t.west, t.north, t.east, t.south) == ("1", "0", "1", "1")
        assert f.external_west == {"0", "1"}
        assert f.external_south == {"0", "1"}

    def test_zero_system(self):
        f = parse_two_color("F0.0")
        (t,) = f.tiles
        assert (t.west, t.north, t.east, t.south) == ("0", "0", "0", "0")
        assert f.external_north == {"0"}

    @pytest.mark.parametrize(
        "bad", ["", "02ac", "F", "Fg", "F02ac.", "F02ac.c.c", "F0 2", "f02ac"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_two_color(bad)

    def test_rejects_duplicate_digit(self):
        with pytest.raises(ValueError):
            parse_two_color("F00")


class TestTextFormat:
    def test_round_trip(self):
        text = format_tile_system(F)
        assert parse_tile_system(text) == F
        assert parse_tile_system(with_comments(text)) == F
        assert parse_tile_system(with_comments("sats F02ac.c")) == F

    def test_sats_line(self):
        assert parse_tile_system("sats F02ac.c\n") == F
        assert parse_tile_system("-- compact form\nsats F02ac.c") == F

    def test_explicit_lines(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\n"
            "tile a w=0 n=1 e=1 s=0  -- same letter, different borders\n"
            "accept w={0} n={0} e={1} s={0}\n"
        )
        assert len(f.tiles) == 2
        assert f.letters == {"a"}
        assert parse_tile_system(format_tile_system(f)) == f

    def test_empty_label_set(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\naccept w={} n={0} e={1} s={1}\n"
        )
        assert f.external_west == frozenset()

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_tile_system("")
        with pytest.raises(ValueError):
            parse_tile_system("tile a w=0 n=0 e=1 s=1\n")
        with pytest.raises(ValueError):
            parse_tile_system("accept w={0} n={0} e={0} s={0}\n")
        with pytest.raises(ValueError):
            parse_tile_system(
                "tile a w=0 n=0 e=1 s=1\n"
                "accept w={0} n={0} e={1} s={1}\n"
                "accept w={0} n={0} e={1} s={1}\n"
            )
        with pytest.raises(ValueError):
            parse_tile_system("tile a w=0 n=0 e=1\naccept w={0} n={0} e={1} s={1}\n")


class TestScenario:
    def test_duplicate_cell_rejected(self):
        t = Tile("a", "0", "0", "0", "0")
        with pytest.raises(ValueError):
            Scenario(((0, 0, t), (0, 0, t)))

    def test_cells_sorted(self):
        t = Tile("a", "0", "0", "0", "0")
        s = Scenario(((1, 0, t), (0, 0, t)))
        assert [(r, c) for r, c, _ in s.cells] == [(0, 0), (1, 0)]


class TestValidAccepting:
    def test_vertical_cc_invalid(self):
        # c's south label is 0 but its north label is 1
        assert not scenario_valid(F, scen(F, "c", "c"))

    def test_c_west_of_a_invalid(self):
        assert not scenario_valid(F, scen(F, "ca"))

    def test_2_west_of_a_valid_not_accepting(self):
        s = scen(F, "2a")
        assert scenario_valid(F, s)
        assert not accepting(F, s)

    def test_foreign_tile_invalid(self):
        t = Tile("q", "1", "1", "0", "0")
        assert not scenario_valid(F, Scenario(((0, 0, t),)))

    def test_single_c_accepting(self):
        s = scen(F, "c")
        assert scenario_valid(F, s)
        assert accepting(F, s)

    def test_single_0_not_accepting(self):
        s = scen(F, "0")
        assert scenario_valid(F, s)
        assert not accepting(F, s)

    def test_diagonal_cc_accepting(self):
        s = scen(F, "c.", ".c")
        assert scenario_valid(F, s)
        assert accepting(F, s)

    def test_hat_is_valid_and_accepting(self):
        s = hat_scenario()
        assert len(s) == 35
        assert scenario_valid(F, s)
        assert accepting(F, s)

    def test_hat_strip(self):
        s = hat_scenario()
        assert normalize(Word(tuple((r, c, t.letter) for r, c, t in s.cells))) == W(
            ".....c.....",
            "....c2c....",
            "...c2aac...",
            "..c002aac..",
            ".c000002ac.",
            "c000.aaaaac",
        )

    def test_hat_mutations(self):
        # swap the tile next to the hole: shared border with its east
        # neighbour stops matching
        cells = dict(((r, c), t) for r, c, t in hat_scenario().cells)
        (zero,) = F.tiles_by_letter["0"]
        (top,) = F.tiles_by_letter["a"]
        broken = dict(cells)
        broken[(5, 5)] = zero
        assert not scenario_valid(F, Scenario(tuple((r, c, t) for (r, c), t in broken.items())))
        # swap the roof peak: still valid, but its north border label 0
        # is not admissible externally
        broken = dict(cells)
        broken[(0, 5)] = top
        mutated = Scenario(tuple((r, c, t) for (r, c), t in broken.items()))
        assert scenario_valid(F, mutated)
        assert not accepting(F, mutated)


class TestWordAccepted:
    def test_single_letters(self):
        assert word_accepted(F, W("c"))
        assert not word_accepted(F, W("0"))
        assert not word_accepted(F, W("a"))

    def test_diagonals(self):
        assert word_accepted(F, W("c.", ".c"))
        assert word_accepted(F, W(".c", "c."))

    def test_adjacent_cc_rejected(self):
        assert not word_accepted(F, W("cc"))
        assert not word_accepted(F, W("c", "c"))

    def test_hook_fragments(self):
        assert word_accepted(F, W("c.", "ac"))
        assert word_accepted(F, W(".c", "c0"))

    def test_hat_word(self):
        s = hat_scenario()
        assert word_accepted(F, Word(tuple((r, c, t.letter) for r, c, t in s.cells)))

    def test_unknown_letter(self):
        assert not word_accepted(F, W("z"))

    def test_backtracks_over_same_letter_tiles(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\n"
            "tile a w=0 n=1 e=1 s=0\n"
            "accept w={0} n={0} e={1} s={0}\n"
        )
        assert word_accepted(f, W("a", "a"))
        assert not word_accepted(f, W("a"))
        assert not word_accepted(f, W("aa"))


def brute_language(f: TileSystem, rows: int, cols: int, max_cells: int) -> set[Word]:
    """Try every tile assignment of every shape in the box. Slow and sure."""
    spots = [(r, c) for r in range(rows) for c in range(cols)]
    out = set()
    for combo in itertools.product([None] + list(f.tiles), repeat=len(spots)):
        placed = tuple(
            (r, c, t) for (r, c), t in zip(spots, combo) if t is not None
        )
        if not 1 <= len(placed) <= max_cells:
            continue
        if min(r for r, _, _ in placed) != 0:
            continue
        if min(c for _, c, _ in placed) != 0:
            continue
        s = Scenario(placed)
        if scenario_valid(f, s) and accepting(f, s):
            out.add(Word(tuple((r, c, t.letter) for r, c, t in s.cells)))
    return out


def cell_search(f: TileSystem, bounds: Bounds, budget: Budget):
    """The tile search one cell at a time, depth first over the walk's
    children: the reference the row-table search must match."""
    cols, max_cells = bounds.max_cols, bounds.max_cells
    total = bounds.max_rows * cols
    children = _walk(f, bounds, budget)
    stack = [iter(children(0, (False, _START), True))]
    path, cells = [], []  # the choice made at each decided cell; the letter cells
    while stack:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            if path and path.pop() is not None:
                cells.pop()
            continue
        cell, state = move
        path.append(cell)
        if cell is not None:
            cells.append(cell)
        if len(path) < total:
            if len(path) != cols or cells:  # else row 0 stayed empty
                stack.append(iter(children(len(path), state, len(cells) < max_cells)))
                continue
        elif state[0]:
            yield Word(tuple(cells))
        if path.pop() is not None:
            cells.pop()


def searched(f: TileSystem, bounds: Bounds) -> tuple[list[Word], int]:
    """The row-table search's words and budget spent, checked against
    the cell search: the same words in the same order, rendered as fresh
    words render, for the same spend."""
    budget, reference = Budget(bounds.node_budget), Budget(bounds.node_budget)
    words = list(_search(f, bounds, budget))
    fresh = list(cell_search(f, bounds, reference))
    assert words == fresh
    assert [w.rendering for w in words] == [w.rendering for w in fresh]
    assert budget.remaining == reference.remaining
    return words, bounds.node_budget - budget.remaining


class TestRowSearch:
    @pytest.mark.parametrize(
        "sats, box, spent",
        [
            ("F02ac.c", (4, 4, 8), 24_974),
            ("F0f", (3, 4, 6), 36_372),
            ("F3c5a", (3, 3, 5), 66_075),
            ("F02ac.c", (5, 5, 6), 299_148),
        ],
    )
    def test_matches_cell_search_with_pinned_spend(self, sats, box, spent):
        assert searched(parse_two_color(sats), Bounds(*box))[1] == spent

    def test_matches_cell_search_on_thin_boxes_and_shared_letters(self):
        two_per_letter = parse_tile_system(
            "tile a w=0 n=0 e=0 s=0\n"
            "tile a w=0 n=0 e=0 s=1\n"
            "accept w={0} n={0} e={0} s={0,1}\n"
        )
        for f, box in [
            (F, (1, 5, 5)),
            (F, (5, 1, 5)),
            (F, (6, 6, 4)),
            (F, (40, 40, 1)),
            (parse_two_color("F8c.c"), (6, 2, 6)),
            (two_per_letter, (3, 3, 6)),
        ]:
            assert searched(f, Bounds(*box))[0], box

    def test_wide_box(self):
        # A 60-cell row holds 1,831 fillings of up to 2 cells; its tables
        # list only those that fit the cells left.
        f, bounds = parse_two_color("F0"), Bounds(6, 60, 2)
        assert len(enumerate_language(f, bounds)) == 655 == count_language(f, bounds)


class TestEnumerate:
    def test_single_cell_bounds(self):
        assert enumerate_language(F, Bounds(1, 1, 1)) == {W("c")}

    def test_two_cell_bounds(self):
        assert enumerate_language(F, Bounds(2, 2, 2)) == {
            W("c"),
            W("c.", ".c"),
            W(".c", "c."),
        }

    def test_hook_words_appear(self):
        lang = enumerate_language(F, Bounds(2, 2, 4))
        assert W("c.", "ac") in lang
        assert W(".c", "c0") in lang

    def test_matches_brute_force_2x2(self):
        assert enumerate_language(F, Bounds(2, 2, 4)) == brute_language(F, 2, 2, 4)

    def test_found_lists_each_word_once_in_search_order(self):
        bounds = Bounds(4, 4, 5)
        lang = enumerate_language(F, bounds)
        assert isinstance(lang, frozenset)
        assert len(lang.found) == len(lang) and frozenset(lang.found) == lang
        assert lang.found == list(_search(F, bounds, Budget(bounds.node_budget)))
        # The search order is mostly sorted already, which is what makes
        # sorting it cheaper than sorting the set.
        assert sorted(lang.found, key=word_sort_key) == sorted(lang, key=word_sort_key)

    def test_matches_brute_force_2x3(self):
        assert enumerate_language(F, Bounds(2, 3, 6)) == brute_language(F, 2, 3, 6)

    def test_matches_brute_force_max_cells_cap(self):
        assert enumerate_language(F, Bounds(2, 3, 2)) == brute_language(F, 2, 3, 2)

    def test_duplicate_letter_system(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\n"
            "tile a w=0 n=1 e=1 s=0\n"
            "accept w={0} n={0} e={1} s={0}\n"
        )
        assert enumerate_language(f, Bounds(2, 1, 2)) == {W("a", "a")}
        assert enumerate_language(f, Bounds(2, 2, 4)) == brute_language(f, 2, 2, 4)

    def test_trusted_words_equal_validated_words(self):
        two_per_letter = parse_tile_system(
            "tile a w=0 n=0 e=0 s=0\n"
            "tile a w=0 n=0 e=0 s=1\n"
            "accept w={0} n={0} e={0} s={0,1}\n"
        )
        for f, bounds in [(F, Bounds(4, 4, 6)), (two_per_letter, Bounds(3, 3, 6))]:
            lang = enumerate_language(f, bounds)
            assert lang
            for w in lang:
                fresh = Word(w.cells)
                assert w == fresh and hash(w) == hash(fresh)
                assert render_ascii(w) == render_ascii(fresh)
                assert word_sort_key(w) == word_sort_key(fresh)

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(BudgetExhausted) as exc:
            enumerate_language(F, Bounds(3, 3, 9, node_budget=20))
        assert isinstance(exc.value.partial, frozenset)

    def test_budget_generous_is_fine(self):
        lang = enumerate_language(F, Bounds(2, 2, 4, node_budget=10_000))
        assert W("c") in lang


class TestProjection:
    def test_rejects_equal_west_east(self):
        with pytest.raises(ValueError, match="tile b"):
            project_to_nfa(parse_two_color("Fb.b"))

    def test_rejects_possible_adjacency(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\n"
            "tile b w=1 n=1 e=0 s=0\n"
            "accept w={0} n={0} e={0} s={1}\n"
        )
        with pytest.raises(ValueError, match="side by side"):
            project_to_nfa(f)

    def test_single_tile_language(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\naccept w={0} n={0} e={1} s={1}\n"
        )
        nfa = project_to_nfa(f)
        assert nfa.accepts("a")
        assert not nfa.accepts("aa")
        assert not nfa.accepts("")
        assert nfa.words_up_to(4) == {"a"}

    def test_chain_language(self):
        f = parse_tile_system(
            "tile a w=0 n=0 e=1 s=1\n"
            "tile b w=0 n=1 e=1 s=2\n"
            "accept w={0} n={0} e={1} s={2}\n"
        )
        assert project_to_nfa(f).words_up_to(4) == {"ab"}

    def test_f8c_language(self):
        nfa = project_to_nfa(parse_two_color("F8c.c"))
        assert nfa.words_up_to(3) == {"c", "c8", "c88"}
        assert nfa.accepts("c888888")
        assert not nfa.accepts("8")
        assert not nfa.accepts("cc")

    def test_column_oracle(self):
        f = parse_two_color("F8c.c")
        lang = enumerate_language(f, Bounds(4, 1, 4))
        assert column_strings(lang) == project_to_nfa(f).words_up_to(4)

    def test_column_strings_skip_gaps_and_wide_words(self):
        gapped = W("c", ".", "c")
        wide = W("cc")
        assert column_strings([gapped, wide, W("c")]) == {"c"}


class TestCountLanguage:
    def test_matches_enumeration(self):
        for bounds in [
            Bounds(1, 1, 1),
            Bounds(2, 2, 2),
            Bounds(2, 2, 4),
            Bounds(2, 3, 6),
            Bounds(3, 3, 9),
            Bounds(1, 5, 5),
            Bounds(5, 1, 5),
            Bounds(6, 6, 4),
            Bounds(40, 40, 1),  # 1,600 cells deep, past the recursion limit
        ]:
            assert count_language(F, bounds) == len(enumerate_language(F, bounds))

    def test_matches_enumeration_with_duplicate_letters(self):
        # Several tiles per letter: distinct assignments, one word each.
        f = TileSystem(
            (
                Tile("a", "0", "0", "1", "0"),
                Tile("a", "1", "0", "0", "0"),
                Tile("a", "0", "0", "0", "0"),
            ),
            frozenset("01"),
            frozenset("0"),
            frozenset("01"),
            frozenset("0"),
        )
        for bounds in [Bounds(2, 2, 4), Bounds(3, 3, 6)]:
            assert count_language(f, bounds) == len(enumerate_language(f, bounds))

    def test_matches_enumeration_random_systems(self):
        rng = __import__("random").Random(411)
        hexd = "0123456789abcdef"
        for _ in range(40):
            digits = rng.sample(hexd, rng.randint(1, 5))
            z = rng.choice([None, rng.choice(hexd)])
            sats = "F" + "".join(digits) + (("." + z) if z else "")
            f = parse_two_color(sats)
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            cells = min(rng.randint(1, 6), rows * cols)
            bounds = Bounds(rows, cols, cells)
            assert count_language(f, bounds) == len(
                enumerate_language(f, bounds)
            ), sats
            # Each merged counting state stands for at least one search
            # node charged at least as much, so a budget the enumeration
            # finishes under suffices for counting too.
            words, spent = searched(f, bounds)
            tight = Bounds(rows, cols, cells, node_budget=spent)
            assert count_language(f, tight) == len(words), sats

    def test_budget(self):
        with pytest.raises(BudgetExhausted):
            count_language(F, Bounds(4, 4, 8, node_budget=10))

    def test_no_states_merge(self):
        # F0 in one row: up to the last cell the frontier records every
        # cell, so each counting state holds one cell count.
        f, bounds = parse_two_color("F0"), Bounds(1, 14, 14)
        assert count_language(f, bounds) == 8192 == len(enumerate_language(f, bounds))

    @pytest.mark.parametrize(
        "sats, box, count",
        [
            ("F02ac.c", (6, 6, 12), 33_611_898),
            ("F02ac.c", (7, 7, 16), 21_116_863_978),
            ("F02ac.c", (8, 8, 16), 3_874_078_967_842),
            ("F0f", (4, 4, 8), 352_692),
            ("F0f", (3, 8, 24), 310_605_588),
            ("F02ac", (5, 5, 10), 319_109_437_484),
            ("F3c5a", (4, 4, 9), 78_865_892),
        ],
    )
    def test_paper_scale_counts(self, sats, box, count):
        assert count_language(parse_two_color(sats), Bounds(*box)) == count

    def test_large_box_count_is_frozen(self):
        # Regression pin; the cross-check golden file carries the same figure.
        assert count_language(F, Bounds(6, 6, 12)) == 33_611_898


class TestSharedSteps:
    """Steps are memoized by column rather than by cell, and acceptance
    shares them across the words of a diff. A memo key that forgot the
    last row or the last column would let a step of one row, or of one
    word, stand in for a step whose borders face outside."""

    @pytest.mark.parametrize(
        "box",
        [(1, 7, 4), (2, 5, 4), (6, 2, 4), (2, 12, 3)],
        ids=["one row", "two rows", "tall", "wide"],
    )
    def test_count_matches_enumeration_random_systems(self, box):
        rng = random.Random(2300 + box[0] * 100 + box[1])
        bounds = Bounds(*box)
        for _ in range(20):
            f = random_tile_system(rng)
            words = enumerate_language(f, bounds)
            assert count_language(f, bounds) == len(words), f
            steps: dict = {}
            assert all(word_accepted(f, w, steps=steps) for w in words), f

    def test_shared_acceptance_matches_word_by_word(self):
        rng = random.Random(2323)
        bounds = Bounds(4, 4, 6)
        for _ in range(30):
            f = random_tile_system(rng)
            words = {normalize(random_word(rng, rng.randint(1, 4), "ab")) for _ in range(40)}
            grown = enumerate_language(f, Bounds(3, 3, 4))
            # A word's top rows: one word ends in the row where another goes on.
            words |= grown | {
                normalize(Word(tuple(cell for cell in w.cells if cell[0] < h)))
                for w in grown
                for h in range(1, w.height)
            }
            rejected = sorted(
                (w for w in words if not (bounds.admits(w) and word_accepted(f, w))),
                key=word_sort_key,
            )
            diff = diff_against_language(f, bounds, words)
            assert diff.only_left_count == len(rejected), f
            assert diff.only_left == tuple(rejected[:10]), f


class TestDiff:
    def test_counts_and_witnesses(self):
        f = parse_two_color("F8c.c")
        bounds = Bounds(3, 1, 3)
        diff = diff_against_language(f, bounds, [W("c"), W("c", "8")])
        assert diff.left_total == 2
        assert diff.right_total == 4
        assert diff.common == 2
        assert diff.only_left_count == 0
        assert diff.only_right_count == 2
        assert set(diff.only_right) == {W("c", "8", "8"), W("c", ".", "c")}
        assert not diff.equal

    def test_left_only_words(self):
        f = parse_two_color("F8c.c")
        bounds = Bounds(2, 1, 2)
        diff = diff_against_language(f, bounds, [W("c"), W("8"), W("c", "8")])
        assert diff.only_left == (W("8"),)
        assert diff.only_left_count == 1
        assert diff.common == 2

    def test_out_of_bounds_expected_word_counts_as_left_only(self):
        f = parse_two_color("F8c.c")
        diff = diff_against_language(f, Bounds(1, 1, 1), [W("c"), W("c", "8")])
        assert diff.only_left == (W("c", "8"),)

    def test_equal_languages(self):
        f = parse_two_color("F8c.c")
        bounds = Bounds(2, 1, 2)
        lang = enumerate_language(f, bounds)
        diff = diff_against_language(f, bounds, lang)
        assert diff.equal
        assert diff.common == len(lang)

    def test_negative_witness_count_is_rejected(self):
        with pytest.raises(ValueError):
            diff_against_language(parse_two_color("F8c.c"), Bounds(2, 1, 2), [W("c")], -1)

    def test_witnesses_are_distinct_with_duplicate_letters(self):
        # Two tiles per letter: one word can have several tile assignments.
        f = parse_tile_system(
            "tile a w=0 n=0 e=0 s=0\n"
            "tile a w=0 n=0 e=0 s=1\n"
            "accept w={0} n={0} e={0} s={0,1}\n"
        )
        diff = diff_against_language(f, Bounds(1, 2, 2), [])
        assert diff.only_right_count == 2
        assert len(set(diff.only_right)) == len(diff.only_right)
        assert len(diff.only_right) <= diff.only_right_count
        assert set(diff.only_right) == {W("a"), W("aa")}

    def test_report_format(self):
        f = parse_two_color("F8c.c")
        diff = diff_against_language(f, Bounds(2, 1, 2), [W("c"), W("8")])
        text = format_language_diff(diff, "left", "right")
        lines = text.splitlines()
        assert lines[0] == "left: 2 words"
        assert lines[1] == "right: 2 words"
        assert lines[2] == "common: 1"
        assert lines[3] == "only in left: 1"
        assert "-- left witness 1" in lines
        assert "only in right: 1" in lines
        assert text.endswith("\n")
