"""Data modules, border data, scenario validation, protocol corpus."""

import random

import pytest

from gridlang.grid import BudgetExhausted
from gridlang.interact import (
    EMPTY,
    DataCell,
    DataModule,
    DataScenario,
    DataSet,
    Num,
    Pair,
    Stream,
    Sym,
    builtin_protocol,
    cell_outputs,
    check_cell,
    complete_scenario,
    datum_key,
    format_datum,
    format_module_library,
    format_report,
    format_scenario,
    matching_rules,
    parse_module_library,
    parse_scenario,
    validate_scenario,
)

from conftest import random_edits


def pr(i: int, x: str) -> Pair:
    return Pair(Num(i), Sym(x))


def ds(*items) -> DataSet:
    return DataSet(frozenset(items))


LIB, SCENARIO = builtin_protocol()
MODS = {m.name: m for m in LIB}


class TestData:
    def test_formatting(self):
        assert format_datum(EMPTY) == "_"
        assert format_datum(pr(2, "b")) == "(2,b)"
        assert format_datum(ds(pr(3, "c"), pr(1, "a"))) == "{(1,a),(3,c)}"
        assert format_datum(Stream((Sym("a"), Sym("b"), Sym("c")))) == "a^b^c"

    def test_set_iteration_order_is_total(self):
        items = [EMPTY, Num(2), Sym("b"), pr(1, "a"), ds(Num(1)), ds()]
        keys = [datum_key(d) for d in items]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(keys, key=lambda k: k)

    def test_streams_join_at_least_two(self):
        with pytest.raises(ValueError):
            Stream((Sym("a"),))
        with pytest.raises(ValueError):
            Stream((Sym("a"), EMPTY))

    def test_round_trip_through_text(self):
        lib = parse_module_library("module Q: <a^b | _> -> <{1,2} | (1,{})>")
        rule = lib[0].rules[0]
        assert check_cell(
            lib[0],
            Stream((Sym("a"), Sym("b"))),
            EMPTY,
            ds(Num(1), Num(2)),
            Pair(Num(1), ds()),
        )
        assert rule.guards == ()


class TestCheckCell:
    def test_sender_stamps_and_keeps(self):
        assert check_cell(
            MODS["SK"],
            Sym("a"),
            Pair(Num(0), ds()),
            pr(1, "a"),
            Pair(Num(1), ds(pr(1, "a"))),
        )

    def test_sender_rejects_wrong_index(self):
        assert not check_cell(
            MODS["SK"],
            Sym("a"),
            Pair(Num(0), ds()),
            pr(2, "a"),
            Pair(Num(2), ds(pr(2, "a"))),
        )

    def test_end_request_with_nothing_missing_acknowledges(self):
        v = ds(pr(1, "a"), pr(3, "c"))
        assert check_cell(
            MODS["REnd"], Pair(Num(3), Sym("end")), Pair(ds(), v), Sym("OK"), v
        )

    def test_output_stream_emits_least_index_first(self):
        v = ds(pr(1, "a"), pr(3, "c"), pr(2, "b"))
        assert check_cell(MODS["OS"], EMPTY, v, Sym("a"), ds(pr(3, "c"), pr(2, "b")))
        assert not check_cell(
            MODS["OS"], EMPTY, v, Sym("b"), ds(pr(1, "a"), pr(3, "c"))
        )

    def test_corruptor_replaces_payload(self):
        assert check_cell(MODS["CN"], pr(2, "b"), EMPTY, pr(2, "?"), EMPTY)
        assert not check_cell(MODS["CN"], pr(2, "b"), EMPTY, pr(2, "b"), EMPTY)

    def test_keeper_separates_good_from_corrupted(self):
        n = Pair(ds(), ds(pr(1, "a")))
        assert check_cell(MODS["RK"], pr(2, "?"), n, EMPTY, Pair(ds(Num(2)), ds(pr(1, "a"))))
        assert check_cell(MODS["RK"], pr(3, "c"), n, EMPTY, Pair(ds(), ds(pr(1, "a"), pr(3, "c"))))
        # A corrupted pair must not be stored as if it were good data.
        assert not check_cell(
            MODS["RK"], pr(2, "?"), n, EMPTY, Pair(ds(), ds(pr(1, "a"), pr(2, "?")))
        )

    def test_rule_choice_is_nondeterministic_but_bounded(self):
        outs = cell_outputs(
            MODS["REnd"], Pair(Num(3), Sym("end")), Pair(ds(Num(1), Num(2)), ds())
        )
        easts = {e for e, _ in outs}
        assert easts == {Num(1), Num(2)}


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
            ("SK", 0): (Sym("a"), Pair(Num(0), ds()), pr(1, "a"), Pair(Num(1), s1)),
            ("CY", 0): (pr(1, "a"), EMPTY, pr(1, "a"), EMPTY),
            ("CN", 0): (pr(2, "b"), EMPTY, pr(2, "?"), EMPTY),
            ("RK", 0): (pr(1, "a"), Pair(ds(), ds()), EMPTY, Pair(ds(), s1)),
            ("RK", 1): (pr(2, "?"), Pair(ds(), s1), EMPTY, Pair(ds(Num(2)), s1)),
            ("SEnd", 0): (EMPTY, Pair(Num(3), s123), Pair(Num(3), Sym("end")), s123),
            ("REnd", 0): (
                Pair(Num(3), Sym("end")),
                Pair(ds(Num(2)), s13),
                Num(2),
                Pair(ds(), s13),
            ),
            ("REnd", 1): (Pair(Num(3), Sym("end")), Pair(ds(), s13), Sym("OK"), s13),
            ("RKR", 0): (pr(3, "c"), Pair(ds(Num(2)), s1), Num(2), Pair(ds(), s13)),
            ("RKR", 1): (pr(2, "b"), Pair(ds(Num(2)), s13), Sym("OK"), s123),
            ("RKR", 2): (pr(2, "?"), Pair(ds(), s13), Num(2), Pair(ds(), s13)),
            ("RKR", 3): (pr(2, "b"), Pair(ds(), s13), Sym("OK"), s123),
            ("OS", 0): (EMPTY, s123, Sym("a"), ds(pr(2, "b"), pr(3, "c"))),
            ("SR", 0): (Num(2), s123, pr(2, "b"), s123),
            ("End", 0): (Sym("OK"), s123, EMPTY, EMPTY),
            ("0", 0): (EMPTY, EMPTY, EMPTY, EMPTY),
        }
        for m in LIB:
            for idx in range(len(m.rules)):
                w, n, e, s = witnesses[(m.name, idx)]
                assert idx in matching_rules(m, w, n, e, s), (m.name, idx)

    def test_scenario_exercises_every_module(self):
        used = {cell.module for _, _, cell in SCENARIO.cells}
        assert used == set(MODS)

    def test_unknown_module_name_errors(self):
        bad = DataScenario(
            cells=((0, 0, DataCell("Nope", EMPTY, EMPTY, EMPTY, EMPTY)),)
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
        junk = Sym("zz")
        assert len(self.CASES) == 10
        for pos, side, expected in self.CASES:
            rep = validate_scenario(_mutate(SCENARIO, pos, side, junk), LIB)
            assert not rep.valid
            assert rep.flagged == expected, (pos, side)

    def test_wire_mismatch_is_a_wire_violation(self):
        rep = validate_scenario(_mutate(SCENARIO, (3, 2), "east", Num(9)), LIB)
        kinds = {v.kind for v in rep.violations}
        assert "wire" in kinds
        wires = [v for v in rep.violations if v.kind == "wire"]
        assert wires[0].cells == ((3, 2), (4, 0))


class TestScenarioShape:
    def test_wires_must_point_to_later_rows(self):
        cells = (
            (0, 0, DataCell("0", EMPTY, EMPTY, EMPTY, EMPTY)),
            (1, 0, DataCell("0", EMPTY, EMPTY, EMPTY, EMPTY)),
        )
        with pytest.raises(ValueError):
            DataScenario(cells=cells, wiring=(((1, 0), (0, 0)),))
        with pytest.raises(ValueError):
            DataScenario(cells=cells, wiring=(((0, 0), (0, 0)),))

    def test_one_wire_per_west_border(self):
        cells = (
            (0, 0, DataCell("0", EMPTY, EMPTY, EMPTY, EMPTY)),
            (0, 1, DataCell("0", EMPTY, EMPTY, EMPTY, EMPTY)),
            (1, 0, DataCell("0", EMPTY, EMPTY, EMPTY, EMPTY)),
        )
        with pytest.raises(ValueError):
            DataScenario(
                cells=cells, wiring=(((0, 0), (1, 0)), ((0, 1), (1, 0)))
            )

    def test_text_round_trips(self):
        assert parse_scenario(format_scenario(SCENARIO)) == SCENARIO
        assert parse_module_library(format_module_library(LIB)) == LIB


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
                parts = (border.first, border.second) if isinstance(border, Pair) else (border,)
                for part in parts:
                    for item in part.items if isinstance(part, DataSet) else ():
                        assert kept.setdefault(item, item) is item, item
        assert len(kept) >= len(stream)


    def test_bracketed_right_operands_round_trip(self):
        for line in (
            "module Q: <U | V> -> <U-(V+U) | _>",
            "module Q: <x^(i+1) | (U,V)> -> <U-(V-U) | (V+U)+V> where i in U-(V+U)",
        ):
            lib = parse_module_library(line)
            assert parse_module_library(format_module_library(lib)) == lib, line

    def test_negative_numbers_round_trip(self):
        s = parse_scenario("cell (0,0) 0: <3-5 | _> -> <_ | _>")
        assert s.cells[0][2].west == Num(-2)
        assert parse_scenario(format_scenario(s)) == s
        s = parse_scenario("cell (0,0) 0: <a^(1-3) | (1-4,{2-3})> -> <_ | _>")
        assert s.cells[0][2].west == Stream((Sym("a"), Num(-2)))
        assert parse_scenario(format_scenario(s)) == s


class TestExecution:
    LAYOUT = {(r, c): cell.module for r, c, cell in SCENARIO.cells}
    WEST = {(0, 0): Sym("a"), (1, 0): Sym("b"), (2, 0): Sym("c")}
    NORTH = {(0, 0): Pair(Num(0), ds()), (0, 2): Pair(ds(), ds())}

    def test_search_rebuilds_the_figure(self):
        redo = complete_scenario(
            LIB, self.LAYOUT, self.WEST, self.NORTH, SCENARIO.wiring
        )
        assert redo == SCENARIO

    def test_unsatisfiable_inputs_return_none(self):
        west = dict(self.WEST)
        west[(0, 0)] = EMPTY  # the sender has nothing to stamp
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

    def test_long_run_does_not_recurse(self):
        # 1,500 cells deep, past the recursion limit.
        layout = {(r, 0): "0" for r in range(1500)}
        redo = complete_scenario(LIB, layout)
        assert redo is not None
        assert len(redo.cells) == 1500


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
        west[(r, 0)] = Sym(x)
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
    north = {(0, 0): Pair(Num(0), ds()), (0, 2): Pair(ds(), ds())}
    return layout, west, north, wires


def _protocol_run(stream: str, corrupted: set[int], resends: list[str]):
    """Complete a protocol layout; returns the OS column's output."""
    redo = complete_scenario(LIB, *_protocol_layout(stream, corrupted, resends))
    if redo is None:
        return None
    assert validate_scenario(redo, LIB).valid
    return "".join(
        cell.east.name for _, _, cell in redo.cells if cell.module == "OS"
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
