"""Data modules, border data, scenario validation, protocol corpus."""

import random

import pytest

from gridlang.grid import BudgetExhausted
from gridlang.interact import (
    DataCell,
    DataModule,
    DataScenario,
    DExpr,
    Guard,
    PairExpr,
    Stream,
    VarRef,
    _ground,
    _read_field,
    builtin_protocol,
    cell_outputs,
    check_cell,
    complete_scenario,
    datum_key,
    format_dexpr,
    format_module_library,
    format_report,
    format_scenario,
    parse_module_library,
    parse_scenario,
    validate_scenario,
)

from conftest import random_edits, with_comments


def pr(i: int, x: str) -> tuple:
    return (i, x)


def ds(*items) -> frozenset:
    return frozenset(items)


LIB, SCENARIO = builtin_protocol()
MODS = {m.name: m for m in LIB}


class TestData:
    def test_formatting(self):
        assert format_dexpr(None) == "_"
        assert format_dexpr(pr(2, "b")) == "(2,b)"
        assert format_dexpr(ds(pr(3, "c"), pr(1, "a"))) == "{(1,a),(3,c)}"
        assert format_dexpr(Stream(("a", "b", "c"))) == "a^b^c"
        assert format_dexpr(ds(*"zyxwvutsrq")) == "{q,r,s,t,u,v,w,x,y,z}"

    def test_set_iteration_order_is_total(self):
        # Blank, numbers, symbols, pairs, sets (smaller first), streams.
        items = [None, -1, 2, "?", "b", pr(1, "a"), ds(), ds(1), Stream(("a", "b"))]
        keys = [datum_key(d) for d in items]
        assert len(set(keys)) == len(keys)
        assert sorted(reversed(items), key=datum_key) == items
        assert format_dexpr(ds(*items)) == "{_,0-1,2,?,b,(1,a),{},{1},a^b}"

    def test_streams_join_at_least_two(self):
        with pytest.raises(ValueError):
            Stream(("a",))
        with pytest.raises(ValueError):
            Stream(("a", None))

    def test_round_trip_through_text(self):
        lib = parse_module_library("module Q: <a^b | _> -> <{1,2} | (1,{})>")
        rule = lib[0].rules[0]
        assert check_cell(
            lib[0],
            Stream(("a", "b")),
            None,
            ds(1, 2),
            (1, ds()),
        )
        assert rule.guards == ()

    @staticmethod
    def random_datum(rng: random.Random, depth: int):
        """A datum nested at most `depth` deep: blanks, numbers of either
        sign, symbols (with '?'), pairs, sets and streams."""
        kind = rng.choice("_nsps{^" if depth > 1 else "_nss")
        if kind == "_":
            return None
        if kind == "n":
            return rng.randint(-50, 50)
        if kind == "s":
            return rng.choice(["a", "b", "end", "OK", "?", "zz"])

        def inner():
            return TestData.random_datum(rng, depth - 1)

        if kind == "p":
            return inner(), inner()
        if kind == "{":
            return frozenset(inner() for _ in range(rng.randint(0, 4)))
        items, size = [], rng.randint(2, 4)
        while len(items) < size:
            item = inner()
            if item is not None and not isinstance(item, Stream):
                items.append(item)
        return Stream(tuple(items))

    @staticmethod
    def assert_same_types(got, want):
        assert type(got) is type(want), (got, want)
        if isinstance(want, tuple):
            for g, w in zip(got, want):
                TestData.assert_same_types(g, w)
        elif isinstance(want, frozenset):
            by_value = {g: g for g in got}
            for w in want:
                TestData.assert_same_types(by_value[w], w)
        elif isinstance(want, Stream):
            for g, w in zip(got.items, want.items):
                TestData.assert_same_types(g, w)

    def test_random_data_round_trip_through_scenario_text(self):
        rng = random.Random(1501)
        kinds = set()
        for _ in range(1000):
            d = self.random_datum(rng, 4)
            kinds.add(type(d))
            line = f"cell (0,0) 0: <{format_dexpr(d)} | _> -> <_ | _>"
            got = parse_scenario(line).cells[0][2].west
            assert got == d, line
            self.assert_same_types(got, d)
        assert kinds == {type(None), int, str, tuple, frozenset, Stream}

    def test_parsed_data_are_plain_values(self):
        cell = parse_scenario("cell (0,0) 0: <_ | (7,{a,?})> -> <a^b | {}>").cells[0][2]
        assert cell.west is None
        assert type(cell.north) is tuple and type(cell.north[0]) is int
        assert type(cell.north[1]) is frozenset
        assert {type(s) for s in cell.north[1]} == {str}
        assert type(cell.east) is Stream and cell.east.items == ("a", "b")
        assert cell.south == frozenset() and type(cell.south) is frozenset
        parts = [cell.west, *cell.north, *cell.north[1], cell.east, *cell.east.items, cell.south]
        assert not any(isinstance(p, DExpr) for p in parts)


class TestCheckCell:
    def test_sender_stamps_and_keeps(self):
        assert check_cell(
            MODS["SK"],
            "a",
            (0, ds()),
            pr(1, "a"),
            (1, ds(pr(1, "a"))),
        )

    def test_sender_rejects_wrong_index(self):
        assert not check_cell(
            MODS["SK"],
            "a",
            (0, ds()),
            pr(2, "a"),
            (2, ds(pr(2, "a"))),
        )

    def test_end_request_with_nothing_missing_acknowledges(self):
        v = ds(pr(1, "a"), pr(3, "c"))
        assert check_cell(MODS["REnd"], (3, "end"), (ds(), v), "OK", v)

    def test_output_stream_emits_least_index_first(self):
        v = ds(pr(1, "a"), pr(3, "c"), pr(2, "b"))
        assert check_cell(MODS["OS"], None, v, "a", ds(pr(3, "c"), pr(2, "b")))
        assert not check_cell(
            MODS["OS"], None, v, "b", ds(pr(1, "a"), pr(3, "c"))
        )

    def test_corruptor_replaces_payload(self):
        assert check_cell(MODS["CN"], pr(2, "b"), None, pr(2, "?"), None)
        assert not check_cell(MODS["CN"], pr(2, "b"), None, pr(2, "b"), None)

    def test_keeper_separates_good_from_corrupted(self):
        n = (ds(), ds(pr(1, "a")))
        assert check_cell(MODS["RK"], pr(2, "?"), n, None, (ds(2), ds(pr(1, "a"))))
        assert check_cell(MODS["RK"], pr(3, "c"), n, None, (ds(), ds(pr(1, "a"), pr(3, "c"))))
        # A corrupted pair must not be stored as if it were good data.
        assert not check_cell(
            MODS["RK"], pr(2, "?"), n, None, (ds(), ds(pr(1, "a"), pr(2, "?")))
        )

    def test_a_template_nesting_a_stream_does_not_apply(self):
        (m,) = parse_module_library("module A: <x | _> -> <x^x | _>")
        assert cell_outputs(m, "a", None) == ((Stream(("a", "a")), None),)
        assert cell_outputs(m, Stream(("a", "b")), None) == ()

    def test_rule_choice_is_nondeterministic_but_bounded(self):
        outs = cell_outputs(MODS["REnd"], (3, "end"), (ds(1, 2), ds()))
        assert [e for e, _ in outs] == [1, 2]


class TestRuleHygiene:
    def test_templates_must_be_bound(self):
        with pytest.raises(ValueError):
            parse_module_library("module Q: <x | _> -> <(i,x) | _>")

    def test_guards_bind_left_to_right(self):
        with pytest.raises(ValueError):
            parse_module_library("module Q: <x | _> -> <x | _> where i in U")

    def test_modules_need_rules(self):
        with pytest.raises(ValueError):
            DataModule("Q", ())


class TestProtocolScenario:
    def test_the_figure_validates(self):
        rep = validate_scenario(SCENARIO, LIB)
        assert rep.valid
        assert rep.violations == ()
        assert all(ok for _, ok in rep.cell_checks)
        assert len(rep.cell_checks) == 20
        assert format_report(rep) == "valid scenario: 20 cells checked\n"

    def test_library_shape(self):
        assert [m.name for m in LIB] == [
            "SK", "CY", "CN", "RK", "SEnd", "REnd", "RKR", "OS", "SR", "End", "0",
        ]
        assert [m.name for m in LIB if m.reconstructed] == ["SR", "End"]

    def test_every_rule_has_a_concrete_witness(self):
        # Instantiations drawn from the scenario's own data pool; the
        # scenario itself exercises one rule of each multi-rule module.
        s1 = ds(pr(1, "a"))
        s13 = ds(pr(1, "a"), pr(3, "c"))
        s123 = ds(pr(1, "a"), pr(2, "b"), pr(3, "c"))
        witnesses = {
            ("SK", 0): ("a", (0, ds()), pr(1, "a"), (1, s1)),
            ("CY", 0): (pr(1, "a"), None, pr(1, "a"), None),
            ("CN", 0): (pr(2, "b"), None, pr(2, "?"), None),
            ("RK", 0): (pr(1, "a"), (ds(), ds()), None, (ds(), s1)),
            ("RK", 1): (pr(2, "?"), (ds(), s1), None, (ds(2), s1)),
            ("SEnd", 0): (None, (3, s123), (3, "end"), s123),
            ("REnd", 0): (
                (3, "end"),
                (ds(2), s13),
                2,
                (ds(), s13),
            ),
            ("REnd", 1): ((3, "end"), (ds(), s13), "OK", s13),
            ("RKR", 0): (pr(3, "c"), (ds(2), s1), 2, (ds(), s13)),
            ("RKR", 1): (pr(2, "b"), (ds(2), s13), "OK", s123),
            ("RKR", 2): (pr(2, "?"), (ds(), s13), 2, (ds(), s13)),
            ("RKR", 3): (pr(2, "b"), (ds(), s13), "OK", s123),
            ("OS", 0): (None, s123, "a", ds(pr(2, "b"), pr(3, "c"))),
            ("SR", 0): (2, s123, pr(2, "b"), s123),
            ("End", 0): ("OK", s123, None, None),
            ("0", 0): (None, None, None, None),
        }
        for m in LIB:
            for idx in range(len(m.rules)):
                w, n, e, s = witnesses[(m.name, idx)]
                assert (e, s) in m.rules[idx].outputs(w, n), (m.name, idx)

    def test_scenario_exercises_every_module(self):
        used = {cell.module for _, _, cell in SCENARIO.cells}
        assert used == set(MODS)

    def test_unknown_module_name_errors(self):
        bad = DataScenario(
            cells=((0, 0, DataCell("Nope", None, None, None, None)),)
        )
        with pytest.raises(ValueError):
            validate_scenario(bad, LIB)


def _mutate(s: DataScenario, pos, side: str, value) -> DataScenario:
    cells = []
    for r, c, cell in s.cells:
        if (r, c) == pos:
            parts = {
                "west": cell.west,
                "north": cell.north,
                "east": cell.east,
                "south": cell.south,
            }
            parts[side] = value
            cell = DataCell(cell.module, **parts)
        cells.append((r, c, cell))
    return DataScenario(cells=tuple(cells), wiring=s.wiring)


class TestLocality:
    CASES = [
        ((0, 0), "south", {(0, 0), (1, 0)}),
        ((0, 1), "east", {(0, 1), (0, 2)}),
        ((1, 2), "south", {(1, 2), (2, 2)}),
        ((2, 0), "east", {(2, 0), (2, 1)}),
        ((3, 0), "south", {(3, 0), (4, 0)}),
        ((3, 2), "east", {(3, 2), (4, 0)}),  # wired border
        ((4, 2), "east", {(4, 2), (5, 0)}),  # wired border
        ((5, 2), "south", {(5, 2), (6, 2)}),
        ((6, 2), "north", {(6, 2), (5, 2)}),
        ((7, 2), "south", {(7, 2)}),  # boundary border, one cell
    ]

    def test_corruptions_flag_only_incident_cells(self):
        junk = "zz"
        assert len(self.CASES) == 10
        for pos, side, expected in self.CASES:
            rep = validate_scenario(_mutate(SCENARIO, pos, side, junk), LIB)
            assert not rep.valid
            assert rep.flagged == expected, (pos, side)

    def test_wire_mismatch_is_a_wire_violation(self):
        rep = validate_scenario(_mutate(SCENARIO, (3, 2), "east", 9), LIB)
        kinds = {v.kind for v in rep.violations}
        assert "wire" in kinds
        wires = [v for v in rep.violations if v.kind == "wire"]
        assert wires[0].cells == ((3, 2), (4, 0))


class TestScenarioShape:
    def test_wires_must_point_to_later_rows(self):
        cells = (
            (0, 0, DataCell("0", None, None, None, None)),
            (1, 0, DataCell("0", None, None, None, None)),
        )
        with pytest.raises(ValueError):
            DataScenario(cells=cells, wiring=(((1, 0), (0, 0)),))
        with pytest.raises(ValueError):
            DataScenario(cells=cells, wiring=(((0, 0), (0, 0)),))

    def test_one_wire_per_west_border(self):
        cells = (
            (0, 0, DataCell("0", None, None, None, None)),
            (0, 1, DataCell("0", None, None, None, None)),
            (1, 0, DataCell("0", None, None, None, None)),
        )
        with pytest.raises(ValueError):
            DataScenario(
                cells=cells, wiring=(((0, 0), (1, 0)), ((0, 1), (1, 0)))
            )

    def test_a_wire_cannot_feed_a_fed_west_border(self):
        # C's east border feeds (1,1) from its west neighbour, so the
        # wire from (0,0) would be a second feeder.
        lib = parse_module_library(
            "module A: <_ | _> -> <x | _> where x in {a,b}\n"
            "module B: <x | _> -> <_ | _>\n"
            "module C: <_ | _> -> <b | _>\n"
        )
        layout = {(0, 0): "A", (0, 1): "B", (1, 0): "C", (1, 1): "B"}
        wire = (((0, 0), (1, 1)),)
        cells = tuple(
            (r, c, DataCell(name, None, None, None, None))
            for (r, c), name in layout.items()
        )
        fed = "the border from \\(1, 0\\) already feeds"
        with pytest.raises(ValueError, match=fed):
            DataScenario(cells=cells, wiring=wire)
        with pytest.raises(ValueError, match=fed):
            complete_scenario(lib, layout, wiring=wire)

    def test_wiring_is_checked_before_the_search(self):
        layout = {(0, 0): "0", (1, 0): "0"}
        for wire, why in (
            (((1, 0), (0, 0)), "later row"),
            (((0, 0), (2, 0)), "leaves the grid"),
        ):
            with pytest.raises(ValueError, match=why):
                complete_scenario(LIB, layout, wiring=(wire,), node_budget=1)

    def test_text_round_trips(self):
        assert parse_scenario(format_scenario(SCENARIO)) == SCENARIO
        assert parse_module_library(format_module_library(LIB)) == LIB
        assert parse_scenario(with_comments(format_scenario(SCENARIO))) == SCENARIO
        assert parse_module_library(with_comments(format_module_library(LIB))) == LIB


def random_field(rng: random.Random, depth: int = 3) -> str:
    """Seeded text of a scenario border field, possibly malformed: data,
    sets of pairs, nested sets, streams, sums, negatives and min(...)
    inside sets, random blanks, and set displays with empty items,
    leading or trailing commas, or no closing bracket."""

    def sp() -> str:
        return rng.choice(("", "", "", " ", "  ", "\t"))

    def atom() -> str:
        if rng.randrange(25) == 0:
            return rng.choice(("x", "U", "in"))  # not data
        return rng.choice(("0", "1", "2", "7", "12", "a", "b", "ok", "?", "_"))

    def expr(d: int) -> str:
        pick = rng.randrange(9 if d > 0 else 1)
        if pick in (0, 1):
            return atom()
        if pick == 2:
            return f"({sp()}{expr(d - 1)}{sp()},{sp()}{expr(d - 1)}{sp()})"
        if pick in (3, 4, 5):
            n = rng.choice((0, 1, 2, 3, 5))
            items = [f"{sp()}{expr(d - 1)}{sp()}" for _ in range(n)]
            flaw = rng.randrange(40)
            if flaw == 0:
                items.append("")  # trailing comma
            elif flaw == 1:
                items.insert(0, "")  # leading comma
            elif flaw == 2 and items:
                items.insert(rng.randrange(len(items) + 1), sp())  # empty item
            text = "{" + (",".join(items) or sp()) + "}"
            return text[:-1] if flaw == 3 else text  # unclosed
        if pick == 6:
            return "^".join(expr(d - 1) for _ in range(rng.randint(2, 3)))
        if pick == 7:
            op = rng.choice("+-")
            return f"{expr(d - 1)}{sp()}{op}{sp()}{expr(d - 1)}"
        inner = expr(d - 1)
        return rng.choice((f"min({inner})", f"({inner})", f"({inner}", "min"))

    text = sp() + expr(depth) + sp()
    if rng.randrange(5) == 0:
        text += "," + sp() + expr(depth - 1)
    return text


class TestParsing:
    # Characters of the scenario and module syntax, a blank, a line
    # break, and '~', which no token uses.
    ALPHABET = "()<>{}|,^+-=:._?!ab09xU \n~"
    CASES = 1500

    def test_deep_brackets_are_rejected(self):
        deep = "(" * 2000 + "a" + ")" * 2000
        with pytest.raises(ValueError, match="nesting"):
            parse_scenario(f"cell (0,0) 0: <{deep} | b> -> <_ | _>")
        with pytest.raises(ValueError, match="nesting"):
            parse_module_library(f"module Q: <{deep} | _> -> <_ | _>")

    def test_long_operator_chains_are_rejected(self):
        chain = "+".join(["{1}"] * 2000)
        with pytest.raises(ValueError, match="nesting"):
            parse_scenario(f"cell (0,0) 0: <{chain} | b> -> <_ | _>")
        with pytest.raises(ValueError, match="nesting"):
            parse_module_library(f"module Q: <{chain} | _> -> <_ | _>")

    def test_nesting_bound_is_one_hundred(self):
        def cell(west: str) -> str:
            return f"cell (0,0) 0: <{west} | _> -> <_ | _>"

        deepest = parse_scenario(cell("{" * 100 + "1" + "}" * 100))
        assert parse_scenario(format_scenario(deepest)) == deepest
        assert not validate_scenario(deepest, LIB).valid
        with pytest.raises(ValueError, match="nesting"):
            parse_scenario(cell("{" * 101 + "1" + "}" * 101))
        # 99 operators between sets one bracket deep, then 100.
        assert parse_scenario(cell("+".join(["{1}"] * 100)))
        with pytest.raises(ValueError, match="nesting"):
            parse_scenario(cell("+".join(["{1}"] * 101)))

    def test_edited_scenarios_parse_or_raise(self):
        rng = random.Random(4101)
        base = format_scenario(SCENARIO)
        parsed = 0
        for _ in range(self.CASES):
            text = random_edits(rng, base, self.ALPHABET)
            try:
                s = parse_scenario(text)
            except ValueError:
                continue
            parsed += 1
            assert parse_scenario(format_scenario(s)) == s, text
        assert parsed > 0

    def test_edited_scenarios_with_other_characters_parse_or_raise(self):
        # A letter beyond ASCII, a Unicode blank, and an Arabic-Indic
        # digit, which `\d` and int() read as 3.
        rng = random.Random(4104)
        base = format_scenario(SCENARIO)
        parsed = 0
        for _ in range(self.CASES):
            text = random_edits(rng, base, self.ALPHABET + "é\xa0٣")
            try:
                s = parse_scenario(text)
            except ValueError:
                continue
            parsed += 1
            assert parse_scenario(format_scenario(s)) == s, text
        assert parsed > 0

    def test_non_ascii_letters_are_rejected(self):
        for line in (
            "cell (0,0) 0: <é | _> -> <_ | _>",
            "cell (0,0) 0: <{a,é} | _> -> <_ | _>",
            "cell (0,0) 0: <({(1,é)},b) | _> -> <_ | _>",
            "cell (0,0) é: <_ | _> -> <_ | _>",
        ):
            with pytest.raises(ValueError, match="é"):
                parse_scenario(line)
        for line in (
            "module Q: <é | _> -> <_ | _>",
            "module Q: <x | _> -> <_ | _> where x in {a,é}",
            "module é: <_ | _> -> <_ | _>",
        ):
            with pytest.raises(ValueError, match="é"):
                parse_module_library(line)
        # A Unicode blank separates tokens, inside a flat set too.
        cell = parse_scenario("cell (0,0) 0: <{a,\xa0b} | _> -> <_ | _>").cells[0][2]
        assert cell.west == ds("a", "b")

    def test_edited_libraries_parse_or_raise(self):
        rng = random.Random(4102)
        base = format_module_library(LIB)
        for _ in range(self.CASES):
            try:
                parse_module_library(random_edits(rng, base, self.ALPHABET))
            except ValueError:
                pass

    def test_truncated_cell_line_is_rejected(self):
        # Earlier lines fill the table of shared data, so the truncated
        # line meets both remembered and new fields and items.
        lines = format_scenario(SCENARIO).splitlines()
        k = max(range(len(lines)), key=lambda i: len(lines[i]))
        head = "\n".join(lines[:k]) + "\n"
        for end in range(1, len(lines[k])):
            with pytest.raises(ValueError):
                parse_scenario(head + lines[k][:end])
        assert parse_scenario(head + lines[k]).cell_map.keys() == {
            (r, c) for r, c, _ in SCENARIO.cells[: k + 1]
        }

    def test_equal_borders_parse_to_one_object(self):
        stream = "abcdefghklmopqrstuvwzabcdefghk"
        done = complete_scenario(LIB, *_protocol_layout(stream, {3, 17}, ["CY", "CY"]))
        parsed = parse_scenario(format_scenario(done))
        assert parsed == done
        cmap = parsed.cell_map
        for (r, c), cell in cmap.items():
            if (r + 1, c) in cmap:
                assert cell.south is cmap[(r + 1, c)].north, (r, c)
            if (r, c + 1) in cmap:
                assert cell.east is cmap[(r, c + 1)].west, (r, c)
        for src, dst in parsed.wiring:
            assert cmap[src].east is cmap[dst].west, (src, dst)
        # Each kept datum is one object in every set that holds it.
        kept = {}
        for cell in cmap.values():
            for border in (cell.west, cell.north, cell.east, cell.south):
                parts = border if isinstance(border, tuple) else (border,)
                for part in parts:
                    for item in part if isinstance(part, frozenset) else ():
                        assert kept.setdefault(item, item) is item, item
        assert len(kept) >= len(stream)


    def test_blank_fields_parse(self):
        s = parse_scenario("cell (0,0) A: < | > -> <a | >")
        assert s.cells == ((0, 0, DataCell("A", None, None, "a", None)),)
        lib = parse_module_library("module A: < | _> -> <a | >")
        assert validate_scenario(s, lib).valid
        assert parse_module_library(format_module_library(lib)) == lib

    def test_spacing_does_not_change_a_field(self):
        texts = ("(1,{(2,a),b})", " ( 1 , { ( 2 , a ) , b } ) ", "(1,{(2,a),\tb})")
        s = parse_scenario(
            "\n".join(f"cell (0,{c}) A: <{t} | _> -> <_ | _>" for c, t in enumerate(texts))
        )
        want = (1, ds(pr(2, "a"), "b"))
        assert [cell.west for _, _, cell in s.cells] == [want] * len(texts)

    def test_module_names_are_identifiers_or_numbers(self):
        for name in ("?", "0a", "_", "<"):
            with pytest.raises(ValueError):
                parse_scenario(f"cell (0,0) {name}: <_ | _> -> <_ | _>")
            with pytest.raises(ValueError):
                parse_module_library(f"module {name}: <_ | _> -> <_ | _>")
        for name in ("A", "0", "12", "a_b2"):
            s = parse_scenario(f"cell (0,0) {name}: <_ | _> -> <_ | _>")
            assert s.cells[0][2].module == name
            assert parse_module_library(f"module {name}: <_ | _> -> <_ | _>")[0].name == name

    def test_nesting_is_bounded_per_field(self):
        # 60 operators in each of two fields: 120 on the line, 61 per field.
        west = "+".join(["{1}"] * 61)
        north = "+".join(["{2}"] * 61)
        cell = parse_scenario(f"cell (0,0) 0: <{west} | {north}> -> <_ | _>").cells[0][2]
        assert (cell.west, cell.north) == (ds(1), ds(2))
        # A library counts each field and the where clause on its own.
        lib = parse_module_library(
            f"module Q: <{west} | {north}> -> <_ | U> where U = {west}"
        )
        assert parse_module_library(format_module_library(lib)) == lib

    def test_nesting_is_bounded_per_path(self):
        # Every operator plus the bracket depth counts 121 here; the
        # deepest path, through the first pair of sets, is 62 deep.
        west = "+".join(["({1}+{2})"] * 60)
        s = parse_scenario(f"cell (0,0) 0: <{west} | _> -> <_ | _>")
        assert s.cells[0][2].west == ds(1, 2)
        assert parse_scenario(format_scenario(s)) == s
        lib = parse_module_library(f"module Q: <{west} | _> -> <U | _> where U = {west}")
        assert parse_module_library(format_module_library(lib)) == lib

        # The first operand of a chain sits below every operator of it.
        def chain(k: int) -> str:
            return "(" * k + "+".join(["{1}"] * 50) + ")" * k

        assert _ground(_read_field(chain(50)), "") == ds(1)
        lib = parse_module_library(f"module Q: <U | _> -> <_ | _> where U = {chain(50)}")
        assert parse_module_library(format_module_library(lib)) == lib
        for line in (
            f"cell (0,0) 0: <{chain(51)} | _> -> <_ | _>",
            f"cell (0,0) 0: <_ | ({chain(51)},a)> -> <_ | _>",
        ):
            with pytest.raises(ValueError, match="nesting"):
                parse_scenario(line)
        with pytest.raises(ValueError, match="nesting"):
            parse_module_library(f"module Q: <U | _> -> <_ | _> where U = {chain(51)}")
        # Chains nested in chains: 99 deep counted top-down, but the tree
        # is 2,401 operators deep.
        tower = "(" * 49 + "{1}" + ("+{1}" * 49 + ")") * 49
        with pytest.raises(ValueError, match="nesting"):
            parse_scenario(f"cell (0,0) 0: <{tower} | _> -> <_ | _>")

    @pytest.mark.parametrize("inner", ["{}", "{1,2}", "{(1,a),b}", "{1+1}", "{(1,0-2)}"])
    def test_flat_sets_nest_as_read_bracket_by_bracket(self, inner):
        # Near the bound, the scenario reader's flat set tokens count as
        # deep as the library reader, which reads every bracket on its own.
        outcomes = set()
        for k in range(95, 102):
            for text in (
                "(" * k + inner + ")" * k,
                "{" * k + inner + "}" * k,
                "+".join([inner] * k),
                "(" * k + f"a,{inner}" + ")" * k,
            ):
                try:
                    want = _ground(_read_field(text), text)
                except ValueError:
                    want = ValueError
                try:
                    s = parse_scenario(f"cell (0,0) 0: <{text} | _> -> <_ | _>")
                    got = s.cells[0][2].west
                except ValueError:
                    got = ValueError
                assert got == want, (k, text)
                outcomes.add(want is ValueError)
        assert outcomes == {True, False}

    def test_library_header_forms(self):
        (m,) = parse_module_library("module A: <_ | (i,V)> -> <x | _> where(i,x) in V")
        (i, x, v) = map(VarRef, "ixV")
        assert m.rules[0].guards == (Guard("in", PairExpr(i, x), v),)
        (m,) = parse_module_library("module reconstructed: <_ | _> -> <_ | _>")
        assert (m.name, m.reconstructed) == ("reconstructed", False)
        (m,) = parse_module_library("module SK reconstructed: <_ | _> -> <_ | _>")
        assert (m.name, m.reconstructed) == ("SK", True)

    def test_malformed_library_lines_are_rejected(self):
        for bad in (
            "module A <_ | _> -> <_ | _>",
            "module A: <_ | _> <_ | _>",
            "module A: <_ | _> -> <_ | _> x",
            "module A: <x | _> -> <_ | _> where x in {1~}",
            "module A: <x | _> -> <_ | _> wherex in {1}",
            "module A: <x | _> -> <_ | _> where x in {1} x",
            "moduleA: <_ | _> -> <_ | _>",
        ):
            with pytest.raises(ValueError):
                parse_module_library(bad)

    def test_equal_items_in_different_fields_are_one_object(self):
        cell = parse_scenario(
            "cell (0,0) 0: <{(1,a),b} | ({(1,a)},{ ( 1 , a ) })> -> <{b} | _>"
        ).cells[0][2]
        west = {d: d for d in cell.west}
        (first,) = cell.north[0]
        (second,) = cell.north[1]
        (b,) = cell.east
        assert west[pr(1, "a")] is first is second
        assert west["b"] is b

    def test_set_items_parse_as_the_library_reader_does(self):
        # The library reader has no item table and reads every bracket on
        # its own, so it is the reference for the scenario reader's flat
        # set tokens, item cutting and item table.
        rng = random.Random(4103)
        parsed, rejected, good = 0, 0, []
        for _ in range(self.CASES):
            text = random_field(rng)
            try:
                want = _ground(_read_field(text), text)
            except ValueError:
                want = ValueError
            try:
                s = parse_scenario(f"cell (0,0) 0: <{text} | _> -> <_ | _>")
                got = s.cells[0][2].west
            except ValueError:
                got = ValueError
            assert got == want, text
            if want is ValueError:
                rejected += 1
            else:
                parsed += 1
                good.append((text, want))
        assert parsed > 300 and rejected > 300, (parsed, rejected)
        # Many fields in one scenario share one item table.
        for k in range(0, len(good), 25):
            batch = good[k : k + 25]
            lines = (f"cell (0,{c}) 0: <{t} | _> -> <_ | _>" for c, (t, _) in enumerate(batch))
            s = parse_scenario("\n".join(lines))
            assert [cell.west for _, _, cell in s.cells] == [d for _, d in batch]

    @pytest.mark.parametrize(
        "bad", ["{a,}", "{,a}", "{a,,b}", "{(1,a) b}", "{(1,a}", "{a^}", "{min}"]
    )
    def test_malformed_sets_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_scenario(f"cell (0,0) 0: <{bad} | _> -> <_ | _>")
        # Also after the same items were read well formed.
        with pytest.raises(ValueError):
            parse_scenario(
                "cell (0,0) 0: <{a,b,(1,a)} | _> -> <_ | _>\n"
                f"cell (0,1) 0: <{bad} | _> -> <_ | _>"
            )

    def test_long_sets_parse(self):
        # Cutting a set into items must stay linear in its length: these
        # parse in about 1 s on a 2-CPU Xeon, against about 15 s with an
        # item cut whose lookahead runs to the end of the text.
        n = 50_000
        numbers = "{" + ",".join(map(str, range(n))) + "}"
        pairs = "(1,{" + ",".join(f"({i},a)" for i in range(n)) + "})"
        s = parse_scenario(
            f"cell (0,0) 0: <{numbers} | _> -> <_ | _>\n"
            f"cell (1,0) 0: <{pairs} | _> -> <_ | _>"
        )
        cmap = s.cell_map
        assert cmap[(0, 0)].west == frozenset(range(n))
        assert cmap[(1, 0)].west == (1, frozenset(pr(i, "a") for i in range(n)))

    def test_bracketed_right_operands_round_trip(self):
        for line in (
            "module Q: <U | V> -> <U-(V+U) | _>",
            "module Q: <x^(i+1) | (U,V)> -> <U-(V-U) | (V+U)+V> where i in U-(V+U)",
        ):
            lib = parse_module_library(line)
            assert parse_module_library(format_module_library(lib)) == lib, line

    def test_negative_numbers_round_trip(self):
        s = parse_scenario("cell (0,0) 0: <3-5 | _> -> <_ | _>")
        assert s.cells[0][2].west == -2
        assert parse_scenario(format_scenario(s)) == s
        s = parse_scenario("cell (0,0) 0: <a^(1-3) | (1-4,{2-3})> -> <_ | _>")
        assert s.cells[0][2].west == Stream(("a", -2))
        assert parse_scenario(format_scenario(s)) == s


class TestExecution:
    LAYOUT = {(r, c): cell.module for r, c, cell in SCENARIO.cells}
    WEST = {(0, 0): "a", (1, 0): "b", (2, 0): "c"}
    NORTH = {(0, 0): (0, ds()), (0, 2): (ds(), ds())}

    def test_search_rebuilds_the_figure(self):
        redo = complete_scenario(
            LIB, self.LAYOUT, self.WEST, self.NORTH, SCENARIO.wiring
        )
        assert redo == SCENARIO

    def test_unsatisfiable_inputs_return_none(self):
        west = dict(self.WEST)
        west[(0, 0)] = None  # the sender has nothing to stamp
        assert (
            complete_scenario(LIB, self.LAYOUT, west, self.NORTH, SCENARIO.wiring)
            is None
        )

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExhausted):
            complete_scenario(
                LIB, self.LAYOUT, self.WEST, self.NORTH, SCENARIO.wiring,
                node_budget=3,
            )

    def test_budget_below_one_is_rejected(self):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="node_budget"):
                complete_scenario(
                    LIB, self.LAYOUT, self.WEST, self.NORTH, SCENARIO.wiring,
                    node_budget=budget,
                )
        # Also where no cell has a candidate, so nothing would be charged.
        with pytest.raises(ValueError, match="node_budget"):
            complete_scenario(LIB, {(0, 0): "SK"}, node_budget=0)

    def test_search_backtracks_past_a_dead_end(self):
        # A's first output (east 1) leaves B with no rule, so the search
        # undoes A's border and takes its second output (east 2).
        lib = parse_module_library(
            "module A: <_ | _> -> <1 | _>\n"
            "module A: <_ | _> -> <2 | _>\n"
            "module B: <2 | _> -> <_ | _>\n"
        )
        layout = {(0, 0): "A", (0, 1): "B"}
        done = complete_scenario(lib, layout, node_budget=3)
        assert done.cell_map[(0, 0)].east == 2
        assert done.cell_map[(0, 1)].west == 2
        assert validate_scenario(done, lib).valid
        with pytest.raises(BudgetExhausted):
            complete_scenario(lib, layout, node_budget=2)

    def test_long_run_does_not_recurse(self):
        # 1,500 cells deep, past the recursion limit.
        layout = {(r, 0): "0" for r in range(1500)}
        redo = complete_scenario(LIB, layout)
        assert redo is not None
        assert len(redo.cells) == 1500


class TestCompletionsValidate:
    """Every completion found on small random grids passes validation."""

    LIB = parse_module_library(
        "module S: <_ | _> -> <x | x> where x in {a,b}\n"
        "module S: <x | _> -> <x | _>\n"
        "module S: <_ | y> -> <_ | y>\n"
        "module K: <x | y> -> <y | x>\n"
        "module K: <x | _> -> <x | x>\n"
        "module K: <_ | y> -> <y | _>\n"
        "module K: <_ | _> -> <_ | _>\n"
        "module T: <a | y> -> <b | y>\n"
        "module T: <b | y> -> <a | _>\n"
        "module T: <x | _> -> <x | a>\n"
        "module T: <_ | y> -> <a | y>\n"
    )

    @staticmethod
    def random_grid(rng: random.Random):
        """A ragged layout of up to 3x3 cells, free inputs, and wires into
        west borders that no west neighbour feeds."""
        layout = {}
        while not layout:
            layout = {
                (r, c): rng.choice("SKT")
                for r in range(3)
                for c in range(3)
                if rng.random() < 0.6
            }
        inputs = ({}, {})
        for pos in layout:
            for side in inputs:
                if rng.random() < 0.3:
                    side[pos] = rng.choice([None, "a", "b"])
        wires = []
        for r, c in layout:
            earlier = [p for p in layout if p[0] < r]
            if (r, c - 1) not in layout and earlier and rng.random() < 0.6:
                wires.append((rng.choice(earlier), (r, c)))
        return layout, *inputs, wires

    def test_seeded_grids(self):
        rng = random.Random(1109)
        completed = wired = 0
        for _ in range(400):
            layout, west, north, wires = self.random_grid(rng)
            done = complete_scenario(self.LIB, layout, west, north, wires)
            if done is None:
                continue
            assert validate_scenario(done, self.LIB).valid, format_scenario(done)
            assert {pos: c.module for pos, c in done.cell_map.items()} == layout
            assert done.wiring == tuple(sorted(wires))
            completed += 1
            wired += bool(wires)
        assert completed >= 100 and wired >= 50, (completed, wired)


def _protocol_layout(stream: str, corrupted: set[int], resends: list[str]):
    """A protocol layout shaped like the worked scenario.

    One row per datum (SK, CN for the corrupted indices or CY, RK), the
    end-of-stream row (SEnd, CY, REnd), one re-send row (SR, channel,
    RKR) per entry of `resends` naming its channel module, the End row,
    and the OS column below it. Returns complete_scenario's arguments
    after the library: layout, west and north inputs, and wires.
    """
    layout, west, wires = {}, {}, []
    for r, x in enumerate(stream):
        layout[(r, 0)], layout[(r, 1)], layout[(r, 2)] = (
            "SK", "CN" if r + 1 in corrupted else "CY", "RK"
        )
        west[(r, 0)] = x
    r = len(stream)
    layout[(r, 0)], layout[(r, 1)], layout[(r, 2)] = "SEnd", "CY", "REnd"
    for channel in resends:
        wires.append(((r, 2), (r + 1, 0)))
        r += 1
        layout[(r, 0)], layout[(r, 1)], layout[(r, 2)] = "SR", channel, "RKR"
    wires.append(((r, 2), (r + 1, 0)))
    r += 1
    layout[(r, 0)], layout[(r, 1)] = "End", "0"
    for k in range(len(stream)):
        layout[(r + k, 2)] = "OS"
    north = {(0, 0): (0, ds()), (0, 2): (ds(), ds())}
    return layout, west, north, wires


def _protocol_run(stream: str, corrupted: set[int], resends: list[str]):
    """Complete a protocol layout; returns the OS column's output."""
    redo = complete_scenario(LIB, *_protocol_layout(stream, corrupted, resends))
    if redo is None:
        return None
    assert validate_scenario(redo, LIB).valid
    return "".join(
        cell.east for _, _, cell in redo.cells if cell.module == "OS"
    )


class TestRecovery:
    def test_one_corrupted_datum(self):
        assert _protocol_run("abc", {2}, ["CY"]) == "abc"
        assert _protocol_run("abcd", {4}, ["CY"]) == "abcd"

    def test_two_corrupted_data(self):
        assert _protocol_run("abc", {1, 2}, ["CY", "CY"]) == "abc"

    def test_three_corrupted_data(self):
        assert _protocol_run("abcd", {1, 3, 4}, ["CY", "CY", "CY"]) == "abcd"

    def test_resent_datum_corrupted_again(self):
        assert _protocol_run("abc", {2}, ["CN", "CY"]) == "abc"
        assert _protocol_run("abc", {1, 3}, ["CY", "CN", "CY"]) == "abc"
