"""Command-line verbs, exit codes, output determinism."""

import io
import json

from gridlang.cli import run
from gridlang.equations import corpus_text
from gridlang.interact import builtin_protocol, format_scenario


def go(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


class TestEnum:
    def test_single_cell_language(self):
        assert go("enum", "--sats", "F02ac.c", "--max-cells", "1") == (0, "c\n")

    def test_records_are_sorted_json_lines(self):
        code, text = go(
            "enum", "--sats", "F02ac.c", "--max-cells", "2", "--format", "records"
        )
        assert code == 0
        lines = text.splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[0] == {"cells": [[0, 0, "c"]]}
        assert len(docs) == 3
        sizes = [len(d["cells"]) for d in docs]
        assert sizes == sorted(sizes)

    def test_cells_bound_alone_fixes_rows_and_cols(self):
        implicit = go("enum", "--sats", "F8c.c", "--max-cells", "3")
        explicit = go(
            "enum", "--sats", "F8c.c", "--max-rows", "3", "--max-cols", "3",
            "--max-cells", "3",
        )
        assert implicit[0] == 0
        assert implicit == explicit

    def test_single_column_language(self):
        code, text = go("enum", "--sats", "F8c.c", "--max-rows", "3", "--max-cols", "1")
        assert code == 0
        assert text == "c\n\nc\n.\nc\n\nc\n8\n\nc\n8\n8\n"

    def test_large_sparse_box_exits_cleanly(self):
        # A 40x40 box is searched 1,600 cells deep; this once raised RecursionError.
        assert go(
            "enum", "--sats", "F02ac.c", "--max-rows", "40", "--max-cols", "40",
            "--max-cells", "1",
        ) == (0, "c\n")

    def test_budget_exhaustion_marks_partial_output(self):
        code, text = go(
            "enum", "--sats", "F02ac.c", "--max-cells", "4", "--node-budget", "20"
        )
        assert code == 1
        assert text.rstrip().endswith("partial: node budget exhausted")

    def test_sats_file_path(self, tmp_path):
        path = tmp_path / "example.sats"
        path.write_text(corpus_text("twocolor-example.sats"))
        code, text = go("enum", "--sats", str(path), "--max-cells", "1")
        assert code == 0
        assert text == "a\n\nc\n"

    def test_missing_bounds_is_a_usage_error(self):
        code, _ = go("enum", "--sats", "F02ac.c")
        assert code == 2

    def test_bad_notation_is_a_usage_error(self):
        code, _ = go("enum", "--sats", "ZZZ", "--max-cells", "1")
        assert code == 2


class TestEvalAndSolve:
    def test_star_expression(self):
        code, text = go("eval", "--expr", "(a *(e=w))", "--max-rows", "1", "--max-cols", "3")
        assert code == 0
        assert text == "a\n\naa\n\naaa\n"

    def test_expression_with_solved_environment(self):
        code, text = go(
            "eval", "--expr", "X1", "--system", "f02ac", "--max-rows", "2",
            "--max-cols", "2",
        )
        assert code == 0
        assert text == "c\n\n.c\nc.\n"

    def test_unbound_variable_is_a_usage_error(self):
        code, _ = go("eval", "--expr", "Q + a", "--max-cells", "2")
        assert code == 2

    def test_solve_records_document(self):
        code, text = go(
            "solve", "--system", "squares", "--max-cells", "9", "--var", "X",
            "--format", "records",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["saturated"] is True
        assert [len(w["cells"]) for w in doc["values"]["X"]] == [1, 9]

    def test_solve_requires_exactly_one_source(self):
        assert go("solve", "--max-cells", "4")[0] == 2
        assert go(
            "solve", "--system", "squares", "--file", "x.t2d", "--max-cells", "4"
        )[0] == 2

    def test_unknown_variable_is_a_usage_error(self):
        code, _ = go("solve", "--system", "squares", "--var", "Nope", "--max-cells", "4")
        assert code == 2

    def test_equation_file(self, tmp_path):
        path = tmp_path / "bars.t2d"
        path.write_text("A = a + A (e=w) a\n")
        code, text = go("solve", "--file", str(path), "--max-rows", "1", "--max-cols", "2")
        assert code == 0
        assert text == "A: 2 words\na\n\naa\n\n"


class TestRender:
    def test_squares_at_nine_cells(self):
        code, text = go("render", "--system", "squares", "--max-cells", "9")
        assert code == 0
        assert text == "x\n\naaa\naxa\naaa\n"


class TestDiff:
    def test_exit_code_reflects_inequality(self):
        code, text = go(
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
            "--max-rows", "4", "--max-cols", "4", "--witnesses", "2",
        )
        assert code == 1
        assert "only in tiles:" in text
        assert "-- tiles witness 1" in text

    def test_equal_languages_exit_zero(self):
        # Both sides admit exactly the single c cell at one-cell bounds.
        code, text = go(
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X1",
            "--max-cells", "1",
        )
        assert code == 0
        assert "common: 1" in text

    def test_records_document(self):
        code, text = go(
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
            "--max-rows", "3", "--max-cols", "3", "--format", "records",
        )
        assert code == 1
        doc = json.loads(text)
        assert doc["equal"] is False
        assert doc["common"] == doc["left_total"] - doc["only_left_count"]


class TestValidate:
    def test_builtin_protocol_is_valid(self):
        assert go("validate", "--modules", "protocol") == (
            0,
            "valid scenario: 20 cells checked\n",
        )

    def test_execution_flag_reports_completion(self):
        code, text = go("validate", "--modules", "protocol", "--execute")
        assert code == 0
        assert text.endswith("execution: completion found\n")

    def test_corrupted_scenario_file_fails(self, tmp_path):
        _, scenario = builtin_protocol()
        text = format_scenario(scenario).replace(
            "<a | (0,{})> -> <(1,a) |", "<a | (0,{})> -> <(9,a) |"
        )
        path = tmp_path / "bad.imod"
        path.write_text(text)
        code, report = go("validate", "--modules", "protocol", "--scenario", str(path))
        assert code == 1
        assert "violation" in report

    def test_records_document(self):
        code, text = go("validate", "--modules", "protocol", "--format", "records")
        assert code == 0
        doc = json.loads(text)
        assert doc == {"cells_checked": 20, "valid": True, "violations": []}

    def test_missing_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing.imod"
        code, text = go("validate", "--modules", "protocol", "--scenario", str(path))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_malformed_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        deep = "(" * 2000 + "a" + ")" * 2000
        for bad in (
            "cell (0,0) 0: <c | d!> -> <_ | _>\n",
            "cell (0,0) 0: <_ | _> -> <_ | _>\ncell (0,0) 0: <_ | _> -> <_ | _>\n",
            f"cell (0,0) 0: <{deep} | b> -> <_ | _>\n",
        ):
            path = tmp_path / "bad.imod"
            path.write_text(bad)
            code, text = go("validate", "--modules", "protocol", "--scenario", str(path))
            assert (code, text) == (2, ""), bad[:40]
            assert capsys.readouterr().err.startswith("error: bad scenario"), bad[:40]


class TestProjectNfa:
    def test_vertical_chain_system(self):
        code, text = go("project-nfa", "--sats", "F8c.c")
        assert code == 0
        assert text == (
            "states: 0 1\n"
            "initial: 1\n"
            "accepting: 0\n"
            "transition: 0 --8--> 0\n"
            "transition: 1 --c--> 0\n"
        )

    def test_horizontal_tiles_are_a_domain_error(self):
        # Tile digit 0 carries the same label on west and east.
        code, _ = go("project-nfa", "--sats", "F0.0")
        assert code == 1


class TestDeterminism:
    CASES = [
        ("enum", "--sats", "F02ac.c", "--max-cells", "4", "--format", "records"),
        (
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
            "--max-rows", "4", "--max-cols", "4", "--format", "records",
        ),
        ("validate", "--modules", "protocol", "--format", "records"),
    ]

    def test_jobs_do_not_change_output_bytes(self):
        for case in self.CASES:
            one = go(*case, "--jobs", "1")
            four = go(*case, "--jobs", "4")
            assert one == four, case

    def test_repeated_runs_are_byte_identical(self):
        for case in self.CASES:
            assert go(*case) == go(*case), case
