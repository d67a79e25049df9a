"""Command-line verbs, exit codes, output determinism."""

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gridlang
from gridlang import cli
from conftest import W, random_word
from gridlang.cli import _dump, _emit_words, run
from gridlang.equations import corpus_text, solve
from gridlang.expr import eval_expr, parse_expr, parse_system
from gridlang.grid import Bounds, Budget, BudgetExhausted, Word, translate, word_sort_key
from gridlang.interact import builtin_protocol, format_scenario
from gridlang.tiling import enumerate_language, parse_two_color, word_accepted


ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(gridlang.__file__).parent / "corpus"


def go(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


def dumped(words) -> str:
    """A records listing built the long way, one `_dump` per word."""
    return "".join(_dump(w) + "\n" for w in sorted(words, key=word_sort_key))


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports gridlang from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports gridlang from this checkout."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=checkout_env(),
        timeout=120,
    )


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--sats", "F02ac.c", "--max-rows", "5", "--max-cols", "5",
                 "--max-cells", "6", "--format", "records"),
                "28c9bd914fffa0dbc84d54b1895e6d53e987170362368c6427c8f262979b0808",
            ),
            (
                ("--sats", "F0f", "--max-rows", "3", "--max-cols", "4", "--max-cells", "6"),
                "84ddec02466d3085d0ff52bd8ba26606ab82187618d47e8de87356881c01cd00",
            ),
        ],
    )
    def test_listing_bytes_are_pinned(self, argv, digest):
        # The listings of the enumerate benchmark workload, byte for byte.
        code, text = go("enum", *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("budget", ["300", "5000"])
    @pytest.mark.parametrize("fmt", ["records", "ascii"])
    def test_partial_output_is_a_sorted_listing_of_language_words(self, budget, fmt):
        argv = (
            "enum", "--sats", "F02ac.c", "--max-cells", "5", "--node-budget", budget,
            "--format", fmt,
        )
        code, text = go(*argv, "--jobs", "1")
        assert go(*argv, "--jobs", "4") == (code, text)
        assert code == 1
        body, marker = text.rstrip("\n").rsplit("\n", 1)
        assert marker == "partial: node budget exhausted"
        if fmt == "records":
            words = [
                Word(tuple(map(tuple, json.loads(line)["cells"])))
                for line in body.split("\n")
            ]
        else:
            words = [W(*block.split("\n")) for block in body.split("\n\n")]
        keys = [word_sort_key(w) for w in words]
        assert keys == sorted(set(keys))  # sorted and distinct
        f = parse_two_color("F02ac.c")
        full = enumerate_language(f, Bounds(5, 5, 5))
        assert all(word_accepted(f, w) and w in full for w in words)

    def test_letters_needing_escapes_list_like_fresh_words(self, tmp_path):
        # '#' sorts below the '/' between rows of a sort key but above a
        # newline, so the order shows which separator the key uses.
        letters = '"\\/#\u00e9'
        path = tmp_path / "escapes.sats"
        path.write_text(
            "".join(f"tile {ch} w=0 n=0 e=0 s=0\n" for ch in letters)
            + "accept w={0} n={0} e={0} s={0}\n"
        )
        # Every word of up to 3 cells in a 2x2 box, built from scratch.
        spots = [(0, 0), (0, 1), (1, 0), (1, 1)]
        expected = [
            tuple((r, c, ch) for (r, c), ch in zip(shape, chars))
            for n in (1, 2, 3)
            for shape in itertools.combinations(spots, n)
            if min(r for r, _ in shape) == 0 and min(c for _, c in shape) == 0
            for chars in itertools.product(letters, repeat=n)
        ]

        def picture(cells):
            grid = {(r, c): ch for r, c, ch in cells}
            height = max(r for r, _, _ in cells) + 1
            width = max(c for _, c, _ in cells) + 1
            return [
                "".join(grid.get((r, c), ".") for c in range(width))
                for r in range(height)
            ]

        expected.sort(key=lambda cells: (len(cells), "/".join(picture(cells))))
        box = ("--sats", str(path), "--max-rows", "2", "--max-cols", "2", "--max-cells", "3")
        code, records = go("enum", *box, "--format", "records")
        assert code == 0
        assert records.splitlines() == [
            json.dumps(
                {"cells": [list(cell) for cell in Word(cells).cells]},
                separators=(",", ":"),
                sort_keys=True,
            )
            for cells in expected
        ]
        code, ascii_ = go("enum", *box)
        assert code == 0
        assert ascii_ == "\n\n".join("\n".join(picture(c)) for c in expected) + "\n"

    def test_records_lines_equal_dumped_records(self):
        # Escaped letters, a letter outside the Basic Multilingual Plane
        # (written as a surrogate pair) and negative positions.
        rng = random.Random(4242)
        letters = '"\\/#\u00e9\U0001d538a'
        words = []
        for _ in range(500):
            w = random_word(rng, size=4, letters=letters)
            words.append(translate(w, rng.randint(-3, 3), rng.randint(-3, 3)))
        out = io.StringIO()
        _emit_words(words, "records", out)
        assert out.getvalue() == dumped(words)
        assert "\\ud835\\udd38" in out.getvalue()

    @pytest.mark.parametrize("budget", [300, 5000])
    def test_partial_records_equal_dumped_partial_words(self, budget):
        with pytest.raises(BudgetExhausted) as caught:
            enumerate_language(
                parse_two_color("F02ac.c"), Bounds(5, 5, 5, node_budget=budget)
            )
        partial = caught.value.partial
        assert partial
        code, text = go(
            "enum", "--sats", "F02ac.c", "--max-cells", "5", "--node-budget",
            str(budget), "--format", "records",
        )
        assert code == 1
        assert text == dumped(partial) + "partial: node budget exhausted\n"

    def test_sats_file_path(self, tmp_path):
        path = tmp_path / "example.sats"
        path.write_text(corpus_text("twocolor-example.sats"))
        code, text = go("enum", "--sats", str(path), "--max-cells", "1")
        assert code == 0
        assert text == "a\n\nc\n"

    def test_missing_bounds_is_a_usage_error(self):
        code, _ = go("enum", "--sats", "F02ac.c")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, others",
        [
            ("--max-rows", ("--max-cols", "3")),
            ("--max-cols", ("--max-rows", "3", "--max-cells", "4")),
            ("--max-cells", ()),
        ],
    )
    def test_non_positive_bound_names_its_flag(self, flag, others, capsys):
        assert go("enum", "--sats", "F02ac.c", flag, "-1", *others) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be a positive integer, got -1\n"

    @pytest.mark.parametrize(
        "bounds", [("--max-rows", "3"), ("--max-cells", "0")], ids=["rows-alone", "zero-cells"]
    )
    def test_unusable_bounds_are_a_usage_error(self, bounds, capsys):
        assert go("enum", "--sats", "F02ac.c", *bounds) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_notation_is_a_usage_error(self):
        code, _ = go("enum", "--sats", "ZZZ", "--max-cells", "1")
        assert code == 2

    @pytest.mark.parametrize("labels", ["{0 1}", "{0,}", "{0,=}"])
    def test_bad_accept_label_is_a_usage_error(self, labels, tmp_path, capsys):
        path = tmp_path / "typo.sats"
        path.write_text(f"tile a w=0 n=0 e=0 s=0\naccept w={labels} n={{0}} e={{0}} s={{0}}\n")
        assert go("enum", "--sats", str(path), "--max-cells", "2") == (2, "")
        assert "bad border label" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [("enum", "--max-cells", "1"), ("project-nfa",)])
    def test_unreadable_sats_path_is_a_usage_error(self, verb, tmp_path, capsys):
        assert go(verb[0], "--sats", str(tmp_path), *verb[1:]) == (2, "")
        assert capsys.readouterr().err.startswith("error: cannot read")


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

    def test_node_budget_bounds_eval(self):
        assert go(
            "eval", "--expr", "a *(e=w)", "--max-rows", "1", "--max-cols", "12",
            "--max-cells", "12", "--node-budget", "1",
        ) == (1, "partial: node budget exhausted\n")

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


class TestUnsaturatedSolve:
    """A node budget that stops the solver after 6 rounds: every verb that
    solves first marks its output partial and exits 1."""

    BOUNDS = ("--max-rows", "6", "--max-cols", "6", "--max-cells", "12", "--node-budget", "200")
    MARKER = "partial: node budget exhausted"

    def test_solve_records_match_the_library(self):
        code, text = go("solve", "--system", "f02ac", *self.BOUNDS, "--format", "records")
        assert code == 1
        record, marker = text.splitlines()
        assert marker == self.MARKER
        doc = json.loads(record)
        assert doc["saturated"] is False and doc["iterations"] == 6
        sol = solve(parse_system(corpus_text("f02ac.t2d")), Bounds(6, 6, 12, node_budget=200))
        assert not sol.saturated and sol.iterations == 6
        assert doc["values"] == {
            name: [
                {"cells": [list(cell) for cell in w.cells]}
                for w in sorted(words, key=word_sort_key)
            ]
            for name, words in sol.values.items()
        }

    def test_solve_lists_then_marks(self):
        code, text = go("solve", "--system", "f02ac", *self.BOUNDS)
        assert code == 1
        assert text.startswith("X1: 6 words\n")
        assert text.endswith("X11: 0 words\n" + self.MARKER + "\n")

    def test_render_lists_words_before_the_marker(self):
        code, text = go("render", "--system", "f02ac", "--var", "X1", *self.BOUNDS)
        assert code == 1
        listing, marker = text.rstrip("\n").rsplit("\n", 1)
        assert marker == self.MARKER
        words = listing.split("\n\n")
        assert len(words) == 6 and words[0] == "c" and words[-1].endswith("c.....")

    @pytest.mark.parametrize(
        "verb", [("eval", "--expr", "X11"), ("diff", "--sats", "F02ac.c")], ids=["eval", "diff"]
    )
    def test_eval_and_diff_print_only_the_marker(self, verb):
        assert go(*verb, "--system", "f02ac", *self.BOUNDS) == (1, self.MARKER + "\n")


class TestBuiltinSystems:
    @pytest.mark.parametrize("name", ["squares", "f02ac", "f02ac-general"])
    def test_builtin_equals_its_corpus_file(self, name):
        path = str(CORPUS / f"{name}.t2d")
        bounds = ("--max-rows", "4", "--max-cols", "4", "--max-cells", "9")
        for verb in ("solve", "render"):
            builtin = go(verb, "--system", name, *bounds)
            from_file = go(verb, "--file", path, *bounds)
            assert builtin[0] == 0
            assert builtin == from_file, (verb, name)

    def test_unknown_builtin_is_a_usage_error(self, capsys):
        assert go("solve", "--system", "nope", "--max-cells", "4")[0] == 2
        assert "builtins: squares, f02ac, f02ac-general" in capsys.readouterr().err


class TestDeepNesting:
    """Nesting past the parsers' bound is a usage error, not a RecursionError."""

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 3000 + "a" + ")" * 3000,
            "a (" + "!" * 3000 + "n=s) a",
            "a" + " (always) a" * 3000,
            "a" + " *(always)" * 3000,
        ],
    )
    def test_deep_expression(self, expr, capsys):
        assert go("eval", "--expr", expr, "--max-cells", "2") == (2, "")
        assert capsys.readouterr().err.startswith("error: bad expression: nesting")

    def test_deep_equation_file(self, tmp_path, capsys):
        path = tmp_path / "deep.t2d"
        path.write_text("X = " + "(" * 3000 + "a" + ")" * 3000 + "\n")
        assert go("solve", "--file", str(path), "--max-cells", "2") == (2, "")
        assert capsys.readouterr().err.startswith("error: bad equation file")

    @pytest.mark.parametrize(
        "link", [" (always) a", " *(always)"], ids=["compose-chains", "star-chains"]
    )
    def test_chains_nested_in_chains(self, link, tmp_path):
        # 49 groups of 49 links: 98 levels counted top-down, but each chain
        # is the first operand of the next, so the tree is 2,401 deep.
        tower = "(" * 49 + "a" + (link * 49 + ")") * 49
        path = tmp_path / "tower.t2d"
        path.write_text(f"X = {tower}\n")
        for argv, what in (
            (("eval", "--expr", tower), "expression"),
            (("solve", "--file", str(path)), f"equation file {str(path)!r}"),
        ):
            res = python("-m", "gridlang.cli", *argv, "--max-cells", "2")
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr.startswith(f"error: bad {what}: nesting deeper than 100")
            assert "Traceback" not in res.stderr and len(res.stderr) < 1024

    def test_deep_scenario_field(self, tmp_path, capsys):
        path = tmp_path / "deep.imod"
        deep = "(" * 3000 + "a" + ")" * 3000
        path.write_text(f"cell (0,0) SK: <{deep} | _> -> <_ | _>\n")
        assert go("validate", "--modules", "protocol", "--scenario", str(path)) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: bad scenario") and "nesting deeper than 100" in err

    def test_errors_quote_a_short_excerpt(self, tmp_path):
        # A field 200,000 brackets deep, an unrecognized line and a field
        # that is no datum, each 400 KB long: each message stays short.
        deep = "(" * 200_000 + "a" + ")" * 200_000
        for line in (
            f"cell (0,0) SK: <{deep} | _> -> <_ | _>",
            f"cell (0,0) SK: <_ | _> -> <_ | _> {deep}",
            f"cell (0,0) SK: <x{'^a' * 200_000} | _> -> <_ | _>",
        ):
            path = tmp_path / "deep.imod"
            path.write_text(line + "\n")
            res = python("-m", "gridlang.cli", "validate", "--modules", "protocol",
                         "--scenario", str(path))
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr.startswith("error: bad scenario"), res.stderr[:200]
            assert "Traceback" not in res.stderr and len(res.stderr) < 1024

    def test_bad_character_in_module_library(self, tmp_path, capsys):
        lib, scenario = tmp_path / "lib.imod", tmp_path / "one.imod"
        lib.write_text("module Q: <a | _> -> <b~ | _>\n")
        scenario.write_text("cell (0,0) Q: <a | _> -> <b | _>\n")
        assert go("validate", "--modules", str(lib), "--scenario", str(scenario)) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: bad module library") and "'~'" in err


class TestModuleEntry:
    def test_help(self):
        res = python("-m", "gridlang.cli", "--help")
        assert res.returncode == 0
        assert res.stdout.startswith("usage: gridlang")

    def test_enum(self):
        res = python("-m", "gridlang.cli", "enum", "--sats", "F02ac.c", "--max-cells", "1")
        assert (res.returncode, res.stdout, res.stderr) == (0, "c\n", "")

    def test_reader_closing_early_exits_1_without_a_traceback(self):
        # The reader is gone before the first write, as under `| head -c
        # 300` once the listing outgrows what the pipe buffers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridlang.cli", "solve", "--file",
             str(CORPUS / "mutual.t2d"), "--var", "U", "--max-rows", "9",
             "--max-cols", "9", "--max-cells", "12", "--format", "records"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")


class TestBenchEntry:
    """The benchmark's traced entry point runs each verb and sees its layers."""

    CASES = [
        (
            ("enum", "--sats", "F02ac.c", "--max-cells", "3"),
            ("tiling.enumerate_language", "grid.word_sort_key", "cli.run"),
        ),
        (
            ("validate", "--modules", "protocol", "--execute"),
            (
                "interact.parse_scenario",
                "interact.parse_module_library",
                "interact.validate_scenario",
                "interact.complete_scenario",
            ),
        ),
        (
            ("solve", "--system", "squares", "--max-cells", "9"),
            ("equations.solve", "expr.eval_expr", "compose.compose_langs"),
        ),
        (
            (
                "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X1",
                "--max-cells", "1",
            ),
            (
                "tiling.count_language",
                "tiling.word_accepted",
                "tiling.diff_against_language",
            ),
        ),
        (
            ("eval", "--expr", "(a *(e=w))", "--max-rows", "1", "--max-cols", "3"),
            ("compose.compose_langs",),
        ),
    ]

    @pytest.mark.parametrize("argv,layers", CASES, ids=[c[0][0] for c in CASES])
    def test_traced_run(self, argv, layers, tmp_path):
        trace = tmp_path / "trace.json"
        entry = str(ROOT / "perfbench" / "entry.py")
        res = python("-I", entry, "--trace-to", str(trace), *argv)
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        calls = json.loads(trace.read_text())
        for layer in layers:
            assert calls.get(layer + ".calls", 0) >= 1, layer

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_reader_closing_early_exits_1_without_a_word(self, traced, tmp_path):
        # The same exit as `python -m gridlang.cli`: run itself, not only
        # main, turns the closed pipe into exit 1.
        trace = tmp_path / "trace.json"
        entry = [str(ROOT / "perfbench" / "entry.py")]
        if traced:
            entry += ["--trace-to", str(trace)]
        proc = subprocess.Popen(
            [sys.executable, "-I", *entry, "solve", "--file", str(CORPUS / "mutual.t2d"),
             "--var", "U", "--max-rows", "9", "--max-cols", "9", "--max-cells", "12",
             "--format", "records"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")
        if traced:
            assert json.loads(trace.read_text())["cli.run.calls"] == 1

    def test_tracer_finds_every_name_it_wraps(self):
        # The tracer replaces module attributes by name; one that a refactor
        # drops makes install() raise instead of tracing.
        code = (
            "import io, json, layers\n"
            "tracer = layers.install()\n"
            "import gridlang.cli as cli\n"
            "rc = cli.run(['solve', '--system', 'squares', '--max-cells', '5'], io.StringIO())\n"
            "print(json.dumps({'rc': rc, **tracer.stats}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert res.returncode == 0, res.stderr
        stats = json.loads(res.stdout.splitlines()[-1])
        assert stats["rc"] == 0
        assert stats["cli.run.calls"] > 0
        assert stats["compose.compose_langs.calls"] > 0


class TestRender:
    def test_squares_at_nine_cells(self):
        code, text = go("render", "--system", "squares", "--max-cells", "9")
        assert code == 0
        assert text == "x\n\naaa\naxa\naaa\n"

    def test_records_format(self):
        code, text = go(
            "render", "--system", "squares", "--max-cells", "9", "--format", "records"
        )
        assert code == 0
        square = [
            [r, c, "x" if (r, c) == (1, 1) else "a"] for r in range(3) for c in range(3)
        ]
        assert text.splitlines() == [
            '{"cells":[[0,0,"x"]]}',
            json.dumps({"cells": square}, separators=(",", ":")),
        ]


class TestRecordsListings:
    """eval and render write the same records lines as a dict per word."""

    def test_eval(self):
        bounds = Bounds(4, 4, 6)
        sol = solve(parse_system(corpus_text("f02ac.t2d")), bounds)
        budget = Budget(bounds.node_budget)
        words = eval_expr(parse_expr("X11 + X1"), sol.values, bounds, budget)
        assert len(words) > 1
        code, text = go(
            "eval", "--expr", "X11 + X1", "--system", "f02ac", "--max-rows", "4",
            "--max-cols", "4", "--max-cells", "6", "--format", "records",
        )
        assert code == 0
        assert text == dumped(words)

    def test_render(self):
        bounds = Bounds(5, 5, 8)
        sol = solve(parse_system(corpus_text("f02ac.t2d")), bounds)
        code, text = go(
            "render", "--system", "f02ac", "--var", "X11", "--max-rows", "5",
            "--max-cols", "5", "--max-cells", "8", "--format", "records",
        )
        assert code == 0
        assert len(sol.values["X11"]) > 1
        assert text == dumped(sol.values["X11"])


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

    def test_negative_witnesses_is_a_usage_error(self, capsys):
        assert go(
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
            "--max-cells", "4", "--witnesses", "-1",
        ) == (2, "")
        assert capsys.readouterr().err.startswith("error: --witnesses")

    def test_zero_witnesses_lists_none(self):
        code, text = go(
            "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
            "--max-cells", "4", "--witnesses", "0", "--format", "records",
        )
        assert code == 1
        doc = json.loads(text)
        assert doc["only_right_count"] > 0
        assert doc["only_left"] == doc["only_right"] == []


class TestWideBoxes:
    """Boxes far wider than any word they hold: a tile step copies no
    row-wide profile, so each command ends in its exit code within
    seconds, never in a MemoryError traceback. Each runs in a fresh
    interpreter whose address space is capped at 1 GiB."""

    ONE_ROW = ("--sats", "F0", "--max-rows", "1", "--max-cols", "100000", "--max-cells", "1")
    BUDGETED = ("--sats", "F0", "--max-rows", "300", "--max-cols", "3000",
                "--max-cells", "2", "--node-budget", "100000")

    @staticmethod
    def run_capped(*argv: str) -> subprocess.CompletedProcess:
        import resource

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        return subprocess.run(
            [sys.executable, "-m", "gridlang.cli", *argv], capture_output=True,
            text=True, env=checkout_env(), timeout=60, preexec_fn=cap,
        )

    def test_one_row_enum(self):
        res = self.run_capped("enum", *self.ONE_ROW)
        assert (res.returncode, res.stdout, res.stderr) == (0, "0\n", "")

    def test_one_row_diff(self):
        res = self.run_capped("diff", "--system", "squares", *self.ONE_ROW)
        assert (res.returncode, res.stderr) == (1, "")
        assert res.stdout.startswith("solver: 1 words\ntiles: 1 words\ncommon: 0\n")

    def test_one_row_count(self):
        # A one-row box counts in time linear in its width: the last row's
        # south borders are checked as each tile is placed, not carried.
        res = self.run_capped(
            "diff", "--sats", "F0", "--system", "squares", "--max-rows", "1",
            "--max-cols", "200", "--max-cells", "200", "--witnesses", "0",
        )
        assert (res.returncode, res.stderr) == (1, "")
        assert f"tiles: {2 ** 199} words" in res.stdout.splitlines()

    def test_composition_frame_is_as_wide_as_a_word(self):
        # The solver's words are connected, and a connected word of 9
        # cells spans at most 9 columns, so composition places words in a
        # frame no wider, however wide the box.
        box = ("solve", "--system", "squares", "--max-rows", "3", "--max-cells", "9",
               "--format", "records")
        res = self.run_capped(*box, "--max-cols", "10000000")
        assert (res.returncode, res.stderr) == (0, "")
        assert go(*box, "--max-cols", "9") == (0, res.stdout)

    @pytest.mark.parametrize("verb", [("enum",), ("diff", "--system", "squares")])
    def test_budget_ends_a_wide_box(self, verb):
        res = self.run_capped(*verb, *self.BUDGETED)
        assert (res.returncode, res.stderr) == (1, "")
        assert res.stdout.endswith("partial: node budget exhausted\n")


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

    def test_non_positive_node_budget_is_a_usage_error(self, capsys):
        code, text = go(
            "validate", "--modules", "protocol", "--execute", "--node-budget", "0"
        )
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err == "error: node_budget must be a positive integer, got 0\n"

    def test_node_budget_without_execute_is_a_usage_error(self, capsys):
        code, text = go("validate", "--modules", "protocol", "--node-budget", "1")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --node-budget needs --execute\n"

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


    @pytest.mark.parametrize(
        "bad", ["{a,}", "{,a}", "{a,,b}", "{(1,a) b}", "{(1,a}", "{a^}", "{min}"]
    )
    def test_malformed_set_is_a_usage_error(self, tmp_path, bad):
        path = tmp_path / "bad.imod"
        # The first line fills the item table before the bad set is read.
        path.write_text(
            f"cell (0,0) 0: <{{a}} | _> -> <_ | _>\ncell (1,0) 0: <{bad} | _> -> <_ | _>\n"
        )
        validate = ("validate", "--modules", "protocol", "--scenario", str(path))
        res = python("-m", "gridlang.cli", *validate)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith("error: bad scenario")
        assert "Traceback" not in res.stderr

    def test_a_template_nesting_a_stream_does_not_apply(self, tmp_path):
        # x binds a^b, so the template x^x would put a stream in a stream.
        scenario = tmp_path / "scenario.imod"
        scenario.write_text("cell (0,0) A: <a^b | _> -> <_ | _>\n")
        both = tmp_path / "both.imod"
        both.write_text("module A: <x | _> -> <_ | _>\nmodule A: <x | _> -> <x^x | _>\n")
        nested = tmp_path / "nested.imod"
        nested.write_text("module A: <x | _> -> <x^x | _>\n")
        validate = ("-m", "gridlang.cli", "validate", "--scenario", str(scenario))
        res = python(*validate, "--modules", str(both), "--execute")
        assert (res.returncode, res.stdout) == (
            0,
            "valid scenario: 1 cells checked\nexecution: completion found\n",
        )
        assert "Traceback" not in res.stderr
        res = python(*validate, "--modules", str(nested))
        assert (res.returncode, res.stdout) == (
            1,
            "rule violation at (0,0): no rule of A relates <a^b | _> to <_ | _>\n"
            "1 violations in 1 cells\n",
        )
        assert "Traceback" not in res.stderr

    def test_wire_into_a_fed_west_border_is_a_usage_error(self, tmp_path, capsys):
        # The border from (1,0) already feeds (1,1)'s west border.
        lib = tmp_path / "lib.imod"
        lib.write_text(
            "module A: <_ | _> -> <x | _> where x in {a,b}\n"
            "module B: <x | _> -> <_ | _>\n"
            "module C: <_ | _> -> <b | _>\n"
        )
        path = tmp_path / "fed.imod"
        path.write_text(
            "cell (0,0) A: <_ | _> -> <a | _>\n"
            "cell (0,1) B: <a | _> -> <_ | _>\n"
            "cell (1,0) C: <_ | _> -> <b | _>\n"
            "cell (1,1) B: <b | _> -> <_ | _>\n"
            "wire (0,0).e -> (1,1).w\n"
        )
        code, text = go("validate", "--modules", str(lib), "--scenario", str(path))
        assert (code, text) == (2, "")
        assert "already feeds (1, 1)" in capsys.readouterr().err


class TestCollector:
    """run pauses the cyclic collector for one command and puts it back."""

    COMMANDS = {
        "exit 0": (("validate", "--modules", "protocol"), 0),
        "budget": (("enum", "--sats", "F02ac.c", "--max-cells", "4", "--node-budget", "20"), 1),
        "usage": (("validate", "--modules", "protocol", "--node-budget", "1"), 2),
        "bad flag": (("enum", "--no-such-flag"), 2),
    }

    @pytest.fixture(autouse=True)
    def keep_collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("label", COMMANDS)
    def test_collector_is_restored(self, label):
        argv, code = self.COMMANDS[label]
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            assert go(*argv)[0] == code
            assert gc.isenabled() is before

    def test_collector_is_off_during_a_command_and_after_an_error(self, monkeypatch):
        seen = []

        def fail(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("escapes run")

        monkeypatch.setattr("gridlang.cli.validate_scenario", fail)
        gc.enable()
        with pytest.raises(RuntimeError):
            go("validate", "--modules", "protocol")
        assert seen == [False]
        assert gc.isenabled()

    def test_commands_leave_no_cycles(self):
        # The parser is built once per process, so a command leaves nothing
        # that only the cyclic collector could free. Building it per call
        # left 4,680 objects in cycles after these 10 commands.
        gc.disable()
        gc.collect()
        for _ in range(10):
            assert go("validate", "--modules", "protocol")[0] == 0
        assert gc.collect() == 0

    def test_repeated_commands_stay_small(self):
        # Memory stays bounded over many commands in one process.
        gc.enable()
        argv = ("validate", "--modules", "protocol")
        for _ in range(3):
            go(*argv)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                assert go(*argv)[0] == 0
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, grown


class TestParserPerVerb:
    """The parser `run` uses adds arguments only for the verb named first;
    on any argv it must act as the parser with every verb's arguments."""

    VERBS = ["enum", "eval", "solve", "diff", "validate", "render", "project-nfa"]
    UNKNOWN_VERBS = ["bogus", "Enum", "enu", "validate-", ""]
    FLAGS = [
        "--sats", "--expr", "--system", "--file", "--var", "--witnesses", "--modules",
        "--scenario", "--execute", "--max-rows", "--max-cols", "--max-cells",
        "--node-budget", "--format", "--jobs",
    ]
    UNKNOWN_FLAGS = ["--no-such-flag", "-x", "--form", "--max", "--", "-hx", "--jobs=2"]
    HELP = ["--help", "-h", "--he"]
    REQUIRED = {
        "enum": ["--sats"], "eval": ["--expr"], "diff": ["--sats"], "validate": ["--modules"],
        "project-nfa": ["--sats"],
    }
    VALUES = [
        "F0f", "F02ac.c", "protocol", "squares", "X", "a*a", "records", "ascii", "0", "1",
        "-1", "3", "99999999999999999999", "-99999999999999999999", "1.5", "x", "", "1e3",
    ]

    @staticmethod
    def parse(parser, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = parser.parse_args(list(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    def token(self, rng: random.Random) -> list:
        pick = rng.random()
        if pick < 0.6:
            flag = rng.choice(self.FLAGS)
            return [flag] if flag == "--execute" else [flag, rng.choice(self.VALUES)]
        if pick < 0.75:
            return [rng.choice(self.VALUES)]
        if pick < 0.9:
            return [rng.choice(self.UNKNOWN_FLAGS)]
        if pick < 0.95:
            return [rng.choice(self.HELP)]
        return [rng.choice(self.VERBS + self.UNKNOWN_VERBS)]

    def argvs(self, rng: random.Random, n: int):
        """Half start with a verb and its required flags, then up to two
        random tokens; half are random tokens with a verb, known or not,
        anywhere or nowhere."""
        for i in range(n):
            if i % 2:
                verb = rng.choice(self.VERBS)
                argv = [verb]
                for flag in self.REQUIRED.get(verb, ()):
                    argv += [flag, rng.choice(self.VALUES)]
                for _ in range(rng.randrange(3)):
                    argv += self.token(rng)
            else:
                argv = [t for _ in range(rng.randrange(6)) for t in self.token(rng)]
                verb = rng.choice(self.VERBS + self.UNKNOWN_VERBS + [None])
                if verb is not None:
                    argv.insert(rng.randrange(len(argv) + 1), verb)
            yield argv

    def test_acts_as_the_whole_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        whole = cli._build_parser()
        outcomes = collections.Counter()
        for argv in self.argvs(random.Random(21), 500):
            got = self.parse(cli._parser(argv), argv)
            assert got == self.parse(whole, argv), argv
            result, out, _ = got
            outcomes["parsed" if isinstance(result, argparse.Namespace) else
                     "help" if out else f"exit {result}"] += 1
        # The sample reaches every kind of outcome, each many times.
        assert set(outcomes) == {"parsed", "help", "exit 2"}
        assert min(outcomes.values()) >= 20, outcomes

    def test_builds_one_parser_per_verb(self):
        argv = ["validate", "--modules", "protocol"]
        assert cli._parser(argv) is cli._parser(argv[::-1])
        assert cli._parser(argv) is not cli._parser(["enum"])


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


class TestRecordsDocuments:
    """Every records document comes from `_dump`; its bytes are pinned."""

    F02AC_5X5X8 = ("--system", "f02ac", "--max-rows", "5", "--max-cols", "5", "--max-cells", "8")

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ("solve", *F02AC_5X5X8),
                0,
                "6cb26f5df83a772ae571a436f98fc6af20eca914e47d9da00a13188b3dfda68c",
            ),
            (
                ("solve", *F02AC_5X5X8, "--node-budget", "200"),
                1,
                "e703f382482d940ee4dacad8183bc4c561b4c9deb1c910399665bb94c47e0b8f",
            ),
            (
                (
                    "diff", "--sats", "F02ac.c", "--system", "f02ac", "--var", "X11",
                    "--max-rows", "6", "--max-cols", "6", "--max-cells", "12",
                ),
                1,
                "7dfa9dd07fcdaa911a8c4b99c4949f32ed6d712b42029777df31d09b39ad12e2",
            ),
            (
                ("validate", "--modules", "protocol", "--execute"),
                0,
                "4588c3b4cc6483c651773abbfbf3e39f62fb0ecaadad5e67d4b6f22d6a2d0d1f",
            ),
            (
                ("project-nfa", "--sats", "F8c.c"),
                0,
                "11d16fd1afbac06195076efd58fcfa4fe54c4950f4c7a5c8ac8c1d447aae7a23",
            ),
        ],
        ids=["solve", "solve-stopped", "diff", "validate", "project-nfa"],
    )
    def test_document_bytes_are_pinned(self, argv, code, digest):
        got, text = go(*argv, "--format", "records")
        assert got == code
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_violations_document_bytes_are_pinned(self, tmp_path):
        _, scenario = builtin_protocol()
        path = tmp_path / "bad.imod"
        path.write_text(format_scenario(scenario).replace(
            "<a | (0,{})> -> <(1,a) |", "<a | (0,{})> -> <(9,a) |"
        ))
        code, text = go(
            "validate", "--modules", "protocol", "--scenario", str(path), "--execute",
            "--format", "records",
        )
        assert code == 1
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e63a0659edd09545fb466b0b78afa23cc9c4e4da264c3c008e32345acbdd7ec"
        )

    def test_only_words_are_encoded_beyond_json(self):
        assert _dump({"w": W("ab")}) == '{"w":{"cells":[[0,0,"a"],[0,1,"b"]]}}'
        with pytest.raises(TypeError, match="frozenset is not JSON serializable"):
            _dump(frozenset())


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
