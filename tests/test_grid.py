"""Geometry layer: normalization, components, contours, extremes, rendering."""

import random

import pytest

from conftest import W, random_word
from gridlang.grid import (
    ELEMENT_KINDS,
    FILTERS,
    Bounds,
    Element,
    Selector,
    Word,
    contour,
    extreme_cells,
    hv_components,
    normalize,
    render_ascii,
    select,
    source_lines,
    translate,
    word_sort_key,
)


def els(*triples):
    return frozenset(Element(k, r, c) for k, r, c in triples)


class TestWordBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Word(())

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError):
            Word(((0, 0, "a"), (0, 0, "b")))

    def test_bad_letter_rejected(self):
        for letter in ("", "ab", ".", " ", "\t"):
            with pytest.raises(ValueError):
                Word(((0, 0, letter),))

    def test_cells_sorted_on_construction(self):
        w = Word(((1, 1, "b"), (0, 0, "a")))
        assert w.cells == ((0, 0, "a"), (1, 1, "b"))

    def test_equality_ignores_input_order(self):
        assert Word(((1, 1, "b"), (0, 0, "a"))) == Word(((0, 0, "a"), (1, 1, "b")))
        assert hash(W("ab")) == hash(Word(((0, 1, "b"), (0, 0, "a"))))

    def test_from_map(self):
        assert Word.from_map({(0, 0): "a", (0, 1): "b"}) == W("ab")


class TestNormalize:
    def test_single_cell_to_origin(self):
        w = Word(((5, 7, "a"),))
        assert normalize(w) == Word(((0, 0, "a"),))

    def test_already_normalized_unchanged(self):
        w = W("ab")
        assert normalize(w) == w

    def test_negative_offsets(self):
        w = Word(((-2, 3, "a"), (-1, 3, "b")))
        assert normalize(w) == Word(((0, 0, "a"), (1, 0, "b")))

    def test_idempotent(self):
        for w in (W("a"), W("ab", ".c"), Word(((-4, -9, "z"), (2, 0, "y")))):
            assert normalize(normalize(w)) == normalize(w)

    def test_min_corner_need_not_be_occupied(self):
        # Min row and min col can come from different cells.
        w = Word(((3, 9, "a"), (7, 4, "b")))
        n = normalize(w)
        assert n == Word(((0, 5, "a"), (4, 0, "b")))


class TestTranslate:
    def test_matches_the_validated_shift(self):
        rng = random.Random(808)
        for i in range(1000):
            w = random_word(rng, size=6, letters="abc")
            if i % 2:
                render_ascii(w)  # a cached rendering carries over
            dr, dc = rng.randint(-9, 9), rng.randint(-9, 9)
            moved = translate(w, dr, dc)
            fresh = Word(tuple((r + dr, c + dc, ch) for r, c, ch in w.cells))
            assert moved == fresh and hash(moved) == hash(fresh)
            assert moved.cells == fresh.cells
            assert render_ascii(moved) == render_ascii(fresh)
            assert word_sort_key(moved) == word_sort_key(fresh)

    def test_non_integral_shift_rejected(self):
        with pytest.raises(ValueError):
            translate(W("ab"), 0.5, 0)


class TestHvComponents:
    def test_single_cell(self):
        assert hv_components(W("a")) == [frozenset({(0, 0)})]

    def test_diagonal_pair_split(self):
        assert len(hv_components(W("a.", ".a"))) == 2

    def test_components_keep_original_coordinates(self):
        w = translate(W("aa"), 3, 4)
        assert hv_components(w) == [frozenset({(3, 4), (3, 5)})]

    def test_one_three_seven(self):
        one = W("aa", "aa")
        three = W("a.a", ".a.")
        seven = W("a.a.a.a", ".......", "a.a.a..")
        assert len(hv_components(one)) == 1
        assert len(hv_components(three)) == 3
        assert len(hv_components(seven)) == 7


class TestContour:
    def test_single_cell(self):
        got = contour(W("a"))
        want = els(
            ("w", 0, 0), ("e", 0, 1), ("n", 0, 0), ("s", 1, 0),
            ("nw", 0, 0), ("ne", 0, 1), ("sw", 1, 0), ("se", 1, 1),
        )
        assert got == want

    def test_horizontal_bar_1x2(self):
        got = contour(W("ab"))
        want = els(
            ("w", 0, 0), ("e", 0, 2),
            ("n", 0, 0), ("n", 0, 1), ("s", 1, 0), ("s", 1, 1),
            ("nw", 0, 0), ("ne", 0, 2), ("sw", 1, 0), ("se", 1, 2),
        )
        assert got == want

    def test_l_shape_single_golf(self):
        got = contour(W("a.", "aa"))
        golfs = {el for el in got if el.kind.endswith("'")}
        assert golfs == els(("sw'", 1, 1))

    def test_diagonal_touch_gives_two_golfs(self):
        # Cells at nw and se touch at one point; the empty notches open to
        # the ne and sw, so both reflex kinds appear there.
        got = contour(W("a.", ".a"))
        golfs = {el for el in got if el.kind.endswith("'")}
        assert golfs == els(("ne'", 1, 1), ("sw'", 1, 1))

    def test_antidiagonal_touch_gives_the_other_two_golfs(self):
        got = contour(W(".a", "a."))
        golfs = {el for el in got if el.kind.endswith("'")}
        assert golfs == els(("nw'", 1, 1), ("se'", 1, 1))

    def test_hole_boundary_counts(self):
        donut = W("aaa", "a.a", "aaa")
        got = contour(donut)
        inner_sides = els(("e", 1, 1), ("w", 1, 2), ("s", 1, 1), ("n", 2, 1))
        inner_golfs = els(("nw'", 1, 1), ("ne'", 1, 2), ("sw'", 2, 1), ("se'", 2, 2))
        assert inner_sides <= got
        assert {el for el in got if el.kind.endswith("'")} == inner_golfs
        assert sum(el.kind == "w" for el in got) == 4
        assert sum(el.kind == "e" for el in got) == 4

    def test_rectangle_counts(self):
        w = W("aaaa", "aaaa", "aaaa")
        got = contour(w)
        by_kind = {}
        for el in got:
            by_kind.setdefault(el.kind, set()).add(el)
        assert len(by_kind.get("nw", ())) == 1
        assert len(by_kind.get("ne", ())) == 1
        assert len(by_kind.get("sw", ())) == 1
        assert len(by_kind.get("se", ())) == 1
        assert not any(k.endswith("'") for k in by_kind)
        assert len(by_kind["w"]) == 3 and len(by_kind["e"]) == 3
        assert len(by_kind["n"]) == 4 and len(by_kind["s"]) == 4

    def test_translation_moves_elements(self):
        w = W("a.", "aa")
        moved = translate(w, 2, 5)
        assert contour(moved) == frozenset(
            Element(el.kind, el.row + 2, el.col + 5) for el in contour(w)
        )


def brute_corner_scan(w: Word):
    """Independent corner classification: spell out each pattern directly."""
    occ = w.positions
    r0, c0, r1, c1 = w.bbox
    found = set()
    for pr in range(r0 - 1, r1 + 3):
        for pc in range(c0 - 1, c1 + 3):
            tl = (pr - 1, pc - 1) in occ
            tr = (pr - 1, pc) in occ
            bl = (pr, pc - 1) in occ
            br = (pr, pc) in occ
            if br and not tl and not tr and not bl:
                found.add(Element("nw", pr, pc))
            if bl and not tl and not tr and not br:
                found.add(Element("ne", pr, pc))
            if tr and not tl and not bl and not br:
                found.add(Element("sw", pr, pc))
            if tl and not tr and not bl and not br:
                found.add(Element("se", pr, pc))
            if tr and bl and not br:
                found.add(Element("nw'", pr, pc))
            if tl and br and not bl:
                found.add(Element("ne'", pr, pc))
            if tl and br and not tr:
                found.add(Element("sw'", pr, pc))
            if tr and bl and not tl:
                found.add(Element("se'", pr, pc))
    return found


class TestCornerOracle:
    def test_matches_brute_scan(self):
        rng = random.Random(20260816)
        for _ in range(300):
            w = random_word(rng)
            got = {el for el in contour(w) if el.axis == "p"}
            assert got == brute_corner_scan(w)


def pattern_contour(w: Word):
    """The contour as first defined: each side tested cell by cell, and
    each corner point tested against the eight patterns spelt out."""
    occ = w.positions
    sides = set()
    for r, c in occ:
        if (r, c - 1) not in occ:
            sides.add(Element("w", r, c))
        if (r, c + 1) not in occ:
            sides.add(Element("e", r, c + 1))
        if (r - 1, c) not in occ:
            sides.add(Element("n", r, c))
        if (r + 1, c) not in occ:
            sides.add(Element("s", r + 1, c))
    return frozenset(sides | brute_corner_scan(w))


def has_hole(w: Word) -> bool:
    """True when some empty cell cannot reach outside the bounding box."""
    occ = w.positions
    r0, c0, r1, c1 = w.bbox
    outside = {(r0 - 1, c0 - 1)}
    todo = [(r0 - 1, c0 - 1)]
    while todo:
        r, c = todo.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (
                r0 - 1 <= nb[0] <= r1 + 1
                and c0 - 1 <= nb[1] <= c1 + 1
                and nb not in occ
                and nb not in outside
            ):
                outside.add(nb)
                todo.append(nb)
    return (r1 - r0 + 3) * (c1 - c0 + 3) > len(outside) + len(occ)


def has_diagonal_touch(w: Word) -> bool:
    occ = w.positions
    return any(
        ((r + 1, c + dc) in occ) and (r, c + dc) not in occ and (r + 1, c) not in occ
        for r, c in occ
        for dc in (-1, 1)
    )


class TestContourTable:
    def test_matches_the_pattern_definition(self):
        rng = random.Random(1105)
        holes = touches = 0
        for size in (2, 3, 4, 5, 6):
            for _ in range(200):
                w = random_word(rng, size=size, letters="abc")
                assert contour(w) == pattern_contour(w), render_ascii(w)
                holes += has_hole(w)
                touches += has_diagonal_touch(w)
        assert holes >= 20 and touches >= 100, (holes, touches)

    def test_contour_is_kept_on_the_word(self):
        w = W("a.", "aa")
        assert contour(w) is contour(w) is w.contour
        assert extreme_cells(w) is w.extreme_cells


class TestExtremeCells:
    def test_single_cell(self):
        assert extreme_cells(W("a")) == frozenset({(0, 0)})

    def test_bar_ends(self):
        assert extreme_cells(W("aaa")) == frozenset({(0, 0), (0, 2)})

    def test_square_has_none(self):
        assert extreme_cells(W("aa", "aa")) == frozenset()

    def test_diagonal_neighbour_counts(self):
        # One diagonal neighbour still leaves a cell extreme; two do not.
        assert extreme_cells(W("a.", ".a")) == frozenset({(0, 0), (1, 1)})
        assert extreme_cells(W("a.a", ".a.")) == frozenset({(0, 0), (0, 2)})


class TestSelect:
    def test_bar_extreme_west(self):
        got = select(W("aaa"), Selector("w", "extreme"))
        assert got == els(("w", 0, 0))

    def test_square_extreme_nw_empty(self):
        assert select(W("aa", "aa"), Selector("nw", "extreme")) == frozenset()

    def test_single_cell_se(self):
        assert select(W("a"), Selector("se")) == els(("se", 1, 1))

    def test_bar_nonextreme_north(self):
        got = select(W("aaa"), Selector("n", "nonextreme"))
        assert got == els(("n", 0, 1))

    def test_golf_filter_uses_all_inside_cells(self):
        # Diagonal contact where one touching cell has a further neighbour:
        # the golf corner's inside cells are then mixed, so both extremeness
        # filters drop it while the unfiltered selector keeps it.
        w = W("a..", ".ab")
        assert select(w, Selector("ne'", "extreme")) == frozenset()
        assert select(w, Selector("ne'", "nonextreme")) == frozenset()
        assert select(w, Selector("ne'")) == els(("ne'", 1, 1))

    def test_golf_all_nonextreme_inside_cells(self):
        # L-shape: every cell has two neighbours, so the reflex corner's
        # inside cells are uniformly non-extreme.
        w = W("a.", "aa")
        assert select(w, Selector("sw'", "extreme")) == frozenset()
        assert select(w, Selector("sw'", "nonextreme")) == els(("sw'", 1, 1))

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            Selector("q")
        with pytest.raises(ValueError):
            Selector("w", "sometimes")


def touched_cells(el: Element):
    """The cells an element touches, spelt out: both cells of a side's edge
    (west and east of a vertical one, north and south of a horizontal one),
    or the four cells around a corner point."""
    r, c = el.row, el.col
    if el.kind in ("w", "e"):
        return {(r, c - 1), (r, c)}
    if el.kind in ("n", "s"):
        return {(r - 1, c), (r, c)}
    return {(r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c)}


def brute_extreme_cells(w: Word):
    occ = w.positions
    return {
        (r, c)
        for r, c in occ
        if sum(
            (r + dr, c + dc) in occ
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        )
        <= 1
    }


SELECTORS = [Selector(k, f) for k in ELEMENT_KINDS for f in FILTERS]


def assert_selections_match_the_definition(w: Word) -> None:
    """Every selector's `select` and `selection` on w, against the pattern
    contour filtered cell by cell with the brute-force extreme cells."""
    elems = pattern_contour(w)
    occ, xs = w.positions, brute_extreme_cells(w)
    for sel in SELECTORS:
        want = set()
        for el in elems:
            if el.kind != sel.kind:
                continue
            inside = touched_cells(el) & occ
            if sel.filter == "extreme" and not all(p in xs for p in inside):
                continue
            if sel.filter == "nonextreme" and any(p in xs for p in inside):
                continue
            want.add(el)
        got = select(w, sel)
        assert got == want, (render_ascii(w), sel)
        assert w.selection(sel) == {el.key for el in got}, (render_ascii(w), sel)


class TestSelectionDefinition:
    def test_select_and_selection_match_the_pattern_contour(self):
        assert len(SELECTORS) == 36
        rng = random.Random(909)
        for _ in range(1000):
            assert_selections_match_the_definition(random_word(rng))

    def test_odd_coordinates_and_long_words(self):
        # The bitboard puts a word's bounding box at its origin, so the
        # geometry must not depend on where the word sits or how long a
        # row of the board is.
        rng = random.Random(1812)
        words = [
            translate(random_word(rng), rng.randint(-60, 60), rng.randint(-60, 60))
            for _ in range(60)
        ]
        words += [
            Word(tuple((-4, c, "a") for c in range(-150, 150))),  # 1x300 bar
            Word(tuple((r, -9, "b") for r in range(-299, 1))),  # 300x1 column
            Word(tuple((7, c, "a") for c in range(0, 300, 2))),  # 1x299, no contact
            Word(((-3, -3, "a"), (-3, -1, "a"), (-2, -2, "b"), (-1, -3, "a"))),
        ]
        assert any(min(w.positions) < (0, 0) for w in words)
        for w in words:
            assert contour(w) == pattern_contour(w), render_ascii(w)
            assert extreme_cells(w) == brute_extreme_cells(w), render_ascii(w)
            assert_selections_match_the_definition(w)
        bar, column = words[-4], words[-3]
        assert extreme_cells(bar) == {(-4, -150), (-4, 149)}
        assert extreme_cells(column) == {(-299, -9), (0, -9)}
        assert len(contour(bar)) == len(contour(column)) == 2 * 300 + 2 + 4

    def test_selection_is_kept_on_the_word(self):
        w = W("a.", "aa")
        sel = Selector("sw'", "nonextreme")
        assert w.selection(sel) is w.selection(sel)


class TestRenderAndText:
    def test_single(self):
        assert render_ascii(W("a")) == "a"

    def test_diagonal(self):
        assert render_ascii(W("a.", ".b")) == "a.\n.b"

    def test_bar(self):
        assert render_ascii(W("ab")) == "ab"

    def test_sort_key_orders_by_size_then_shape(self):
        words = [W("ba"), W("a"), W("ab")]
        words.sort(key=word_sort_key)
        assert words == [W("a"), W("ab"), W("ba")]

    def test_source_lines_cut_comments_and_skip_blank_lines(self):
        text = "-- head\r\n  a = b  -- note\n\n\t--\nc--d--e\n  f"
        assert list(source_lines(text)) == ["a = b", "c", "f"]


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(0, 1, 1)
        with pytest.raises(ValueError):
            Bounds(2, 2, 5)
        with pytest.raises(ValueError):
            Bounds(2, 2, 4, node_budget=0)

    def test_admits(self):
        b = Bounds(2, 3, 4)
        assert b.admits(W("abc", "..c"))
        assert not b.admits(W("abc", "a.c"))  # five cells exceed max_cells=4
        assert not b.admits(W("a", "a", "a"))
        assert b.admits(translate(W("a"), 100, 100))  # extent matters, not offset
