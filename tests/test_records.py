"""The record classes: construction, defaults, equality, hashing, repr,
immutability and `__post_init__` checks, for every record in the package;
a start-up that imports no `dataclasses` and only the modules a verb
uses; and the package's names, which it imports on first lookup."""

import copy
import importlib
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gridlang
from gridlang import cli, compose, equations, expr, grid, interact, tiling
from gridlang.compose import Always, And, Comparison, Not, Or
from gridlang.equations import Solution
from gridlang.expr import Atom, Compose, EquationSystem, Star, Sum, Var
from gridlang.grid import Bounds, Element, FrozenRecordError, Selector, Word, record
from gridlang.interact import (
    BinOp,
    DataCell,
    DataModule,
    DataScenario,
    Guard,
    MinOf,
    PairExpr,
    Rule,
    SetDisplay,
    Stream,
    StreamExpr,
    ValidationReport,
    VarRef,
    Violation,
)
from gridlang.tiling import LanguageDiff, Nfa, Scenario, Tile, TileSystem

ROOT = Path(__file__).resolve().parent.parent

TILE = Tile("a", "0", "0", "0", "0")
RULE = Rule(VarRef("x"), None, VarRef("x"), None)
CELL = DataCell("M", 1, None, 1, None)
ZERO = frozenset({"0"})

# Constructor arguments of one instance of every record class. Some
# samples of different classes hold equal field values on purpose.
SAMPLES = {
    Element: ("nw", 1, 2),
    Selector: ("n", "extreme"),
    Word: (((0, 0, "a"), (0, 1, "b")),),
    Bounds: (2, 2, 3, 50),
    Always: (),
    Comparison: (Selector("e"), "=", Selector("w")),
    Not: (Always(),),
    And: ((Always(), Not(Always())),),
    Or: ((Always(), Not(Always())),),
    Atom: ("a",),
    Sum: ((Atom("a"), Atom("b")),),
    Compose: (Atom("a"), Always(), Atom("b")),
    Star: (Atom("a"), Always()),
    Var: ("X",),
    EquationSystem: ((("X", Atom("a")),),),
    Solution: ({"X": frozenset()}, 2, True),
    Tile: ("a", "0", "0", "0", "0"),
    TileSystem: ((TILE,), ZERO, ZERO, ZERO, ZERO),
    Scenario: (((0, 0, TILE),),),
    LanguageDiff: (1, 1, 1, 0, (), 0, ()),
    Nfa: (("q",), frozenset({"q"}), frozenset({"q"}), (("q", "a", "q"),)),
    Stream: ((1, 2),),
    VarRef: ("a",),
    PairExpr: ("a", 1),
    SetDisplay: ((1, 2),),
    StreamExpr: ((1, 2),),
    BinOp: ("+", VarRef("U"), VarRef("V")),
    MinOf: (VarRef("U"),),
    Guard: ("in", VarRef("x"), VarRef("U")),
    Rule: (VarRef("x"), None, VarRef("x"), None, ()),
    DataModule: ("M", (RULE,), True),
    DataCell: ("M", 1, None, 1, None),
    DataScenario: (((0, 0, CELL),), ()),
    Violation: ("rule", ((0, 0),), "no rule of M fits"),
    ValidationReport: ((((0, 0), True),), ()),
}
CLASSES = list(SAMPLES)
IDS = [cls.__name__ for cls in CLASSES]


def fields(cls) -> tuple:
    return tuple(cls.__annotations__)


def sample(cls):
    return cls(*SAMPLES[cls])


def test_every_record_class_has_a_sample():
    found = {
        value
        for module in (grid, compose, expr, equations, tiling, interact)
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and value.__dict__.get("__setattr__") is grid._frozen_setattr
    }
    assert found == set(CLASSES)
    assert len(CLASSES) == 35


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction(self, cls):
        args = SAMPLES[cls]
        assert len(args) == len(fields(cls))
        a = cls(*args)
        b = cls(**dict(zip(fields(cls), args)))
        assert a == b
        for name in fields(cls):
            assert getattr(a, name) == getattr(b, name)

    def test_equal_instances_hash_equal(self, cls):
        a, b = sample(cls), sample(cls)
        assert a is not b
        assert a == b and not a != b
        if cls is Solution:  # holds a dict, so it has no hash
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in fields(cls)))

    def test_unequal_to_every_other_class(self, cls):
        a = sample(cls)
        for other in CLASSES:
            if other is not cls:
                b = sample(other)
                assert a != b and not a == b
                assert a.__eq__(b) is NotImplemented

    def test_repr_names_each_field(self, cls):
        a = sample(cls)
        shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in fields(cls))
        assert repr(a) == f"{cls.__name__}({shown})"

    def test_assignment_and_deletion_raise(self, cls):
        a = sample(cls)
        for name in fields(cls) + ("extra",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(FrozenRecordError):
                delattr(a, name)
        assert a == sample(cls)

    def test_pickle_and_copy(self, cls):
        a = sample(cls)
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a


class TestDefaults:
    def test_selector_filter(self):
        assert Selector("n").filter == "any"
        assert Selector("n") == Selector("n", "any")

    def test_bounds_node_budget(self):
        assert Bounds(1, 1, 1).node_budget == 100_000_000

    def test_rule_guards(self):
        assert Rule(VarRef("x"), None, VarRef("x"), None).guards == ()

    def test_data_scenario_wiring(self):
        assert DataScenario(((0, 0, CELL),)).wiring == ()

    def test_data_module_reconstructed(self):
        assert DataModule("M", (RULE,)).reconstructed is False


class TestReprs:
    def test_spelt_out(self):
        assert repr(Selector("n")) == "Selector(kind='n', filter='any')"
        assert repr(PairExpr(VarRef("i"), 1)) == "PairExpr(first=VarRef(name='i'), second=1)"
        assert repr(Always()) == "Always()"


class TestEquality:
    def test_equal_fields_of_different_classes(self):
        assert "a" != VarRef("a")
        assert PairExpr("a", 1) != ("a", 1)
        assert SetDisplay((1,)) != StreamExpr((1,))
        assert Stream((1, 2)) != (1, 2)
        assert And((Always(), Always())) != Or((Always(), Always()))

    def test_fieldless_records_are_equal(self):
        assert Always() == Always() and hash(Always()) == hash(())


class TestPostInit:
    def test_checks_still_raise(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Bounds(0, 1, 1)
        with pytest.raises(ValueError):
            Stream((1,))

    def test_normalized_fields(self):
        assert Word(((0, 1, "b"), (0, 0, "a"))).cells == ((0, 0, "a"), (0, 1, "b"))

    def test_patched_post_init_is_called(self, monkeypatch):
        # A tracer wraps `Word.__post_init__` on the class after import.
        seen = []
        original = Word.__post_init__

        def traced(self):
            seen.append(self.cells)
            original(self)

        monkeypatch.setattr(Word, "__post_init__", traced)
        w = Word(((0, 1, "b"), (0, 0, "a")))
        assert seen == [((0, 1, "b"), (0, 0, "a"))]
        assert w.cells == ((0, 0, "a"), (0, 1, "b"))

    def test_cached_properties_still_work(self):
        w = sample(Word)
        assert w.positions == frozenset({(0, 0), (0, 1)})
        assert w.rendering == "ab"
        assert sample(TileSystem).letters == frozenset({"a"})


class TestDecorator:
    def test_methods_a_class_defines_are_kept(self):
        @record
        class Named:
            name: str
            size: int = 1

            def __repr__(self):
                return f"<{self.name}>"

        n = Named("a")
        assert (repr(n), n.size, n) == ("<a>", 1, Named("a", 1))

    def test_default_before_a_field_without_one_is_rejected(self):
        with pytest.raises(TypeError):

            @record
            class Bad:
                x: int = 0
                y: int

    def test_arity_is_checked(self):
        with pytest.raises(TypeError):
            Element("nw", 1)
        with pytest.raises(TypeError):
            Element("nw", 1, 2, 3)
        with pytest.raises(TypeError):
            Element("nw", 1, col=2, colour=3)


USAGE = """\
usage: gridlang [-h] {enum,eval,solve,diff,validate,render,project-nfa} ...

Workbench for languages of two-dimensional words.

positional arguments:
  {enum,eval,solve,diff,validate,render,project-nfa}
    enum                list a tile-system language within bounds
    eval                evaluate an expression within bounds
    solve               solve an equation system within bounds
    diff                cross-check a solved variable against tiles
    validate            validate a data scenario
    render              draw every word of a solved variable
    project-nfa         project a vertical-only system

options:
  -h, --help            show this help message and exit
"""


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in an isolated interpreter with this checkout's `src/` first."""
    prelude = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    env = dict(os.environ, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-I", "-c", prelude + code],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestStartUp:
    def test_import_leaves_out_dataclasses(self):
        res = fresh_python(
            "early = 'dataclasses' in sys.modules\n"
            "import gridlang.cli, gridlang.compose, gridlang.equations, gridlang.expr\n"
            "import gridlang.grid, gridlang.interact, gridlang.tiling\n"
            "print(early, 'dataclasses' in sys.modules)\n"
        )
        assert res.returncode == 0, res.stderr
        early, late = res.stdout.split()
        if early == "True":
            pytest.skip("dataclasses is loaded at interpreter start")
        assert late == "False"

    def test_help_prints_the_usage(self):
        res = fresh_python("from gridlang.cli import run\nsys.exit(run(['--help']))\n")
        assert (res.returncode, res.stdout, res.stderr) == (0, USAGE, "")

    # argv, the modules it loads and those it leaves out ("json" and
    # gridlang's own modules by their short names)
    SPLIT = {
        "help": (
            ["--help"],
            ("grid",),
            ("tiling", "compose", "expr", "equations", "interact", "json"),
        ),
        "enum": (
            ["enum", "--sats", "F0f", "--max-rows", "2", "--max-cols", "2", "--max-cells", "2",
             "--format", "ascii"],
            ("grid", "tiling"),
            ("interact", "compose", "expr", "equations", "json"),
        ),
        "validate": (
            ["validate", "--modules", "protocol"],
            ("grid", "interact"),
            ("tiling", "compose", "expr", "equations"),
        ),
        "solve": (
            ["solve", "--system", "squares", "--max-cells", "9"],
            ("grid", "compose", "expr", "equations"),
            ("interact", "tiling"),
        ),
    }

    @pytest.mark.parametrize("label", SPLIT)
    def test_a_verb_loads_only_its_modules(self, label):
        argv, loaded, left_out = self.SPLIT[label]
        res = fresh_python(
            "import io, json\n"
            "def seen():\n"
            "    return {m.removeprefix('gridlang.') for m in sys.modules\n"
            "            if m.startswith('gridlang.') or m == 'json'}\n"
            "early = seen()\n"
            "from gridlang.cli import run\n"
            f"code = run({argv!r}, io.StringIO())\n"
            "print(json.dumps([code, sorted(early), sorted(seen())]))\n"
        )
        assert res.returncode == 0, res.stderr
        code, early, late = json.loads(res.stdout.splitlines()[-1])
        early, late = set(early), set(late)
        assert code == 0
        assert set(loaded) <= late
        assert not (set(left_out) - set(early)) & late


# The public names of the package, by defining module.
EXPORTS = {
    "grid": (
        "Bounds", "Budget", "BudgetExhausted", "Element", "Selector", "Word", "contour",
        "corpus_text", "extreme_cells", "hv_components", "normalize", "render_ascii",
        "select", "translate", "word_sort_key",
    ),
    "compose": (
        "Restriction", "compose_langs", "compose_words", "eval_restriction",
        "format_restriction", "parse_restriction", "star",
    ),
    "tiling": (
        "LanguageDiff", "Nfa", "Scenario", "Tile", "TileSystem", "accepting", "count_language",
        "diff_against_language", "enumerate_language", "format_language_diff",
        "format_tile_system", "parse_tile_system", "parse_two_color", "project_to_nfa",
        "scenario_valid", "word_accepted",
    ),
    "expr": (
        "EquationSystem", "Expr", "classify", "eval_expr", "format_expr", "format_system",
        "parse_expr", "parse_system",
    ),
    "equations": ("Solution", "builtin_f02ac", "builtin_squares", "fixed_point_holds", "solve"),
    "interact": (
        "DataModule", "DataScenario", "ValidationReport", "builtin_protocol", "check_cell",
        "complete_scenario", "format_report", "format_scenario", "parse_module_library",
        "parse_scenario", "validate_scenario",
    ),
}
PUBLIC = [(module, name) for module, names in EXPORTS.items() for name in names]

# The library names the verbs call on `gridlang.cli`, by defining module,
# each with a command that calls it.
CORPUS = Path(grid.__file__).parent / "corpus"
ENUM = ["enum", "--sats", "F0f", "--max-cells", "2"]
SOLVE = ["solve", "--system", "squares", "--max-cells", "1"]
EVAL = ["eval", "--expr", "a", "--max-cells", "1"]
DIFF = ["diff", "--sats", "F0f", "--system", "squares", "--max-cells", "1"]
VALIDATE = ["validate", "--modules", "protocol"]
FILES = ["--modules", str(CORPUS / "protocol-modules.imod"),
         "--scenario", str(CORPUS / "protocol-scenario.imod")]
VERB_CALLS = {
    ("expr", "parse_expr"): EVAL,
    ("expr", "eval_expr"): EVAL,
    ("expr", "parse_system"): SOLVE,
    ("equations", "solve"): SOLVE,
    ("interact", "builtin_protocol"): VALIDATE,
    ("interact", "builtin_protocol_library"): [
        "validate", "--modules", "protocol", *FILES[2:]
    ],
    ("interact", "parse_module_library"): ["validate", *FILES],
    ("interact", "parse_scenario"): ["validate", *FILES],
    ("interact", "validate_scenario"): VALIDATE,
    ("interact", "complete_scenario"): [*VALIDATE, "--execute"],
    ("interact", "format_report"): VALIDATE,
    ("tiling", "enumerate_language"): ENUM,
    ("tiling", "parse_two_color"): ENUM,
    ("tiling", "parse_tile_system"): [
        "enum", "--sats", str(CORPUS / "twocolor-example.sats"), "--max-cells", "1"
    ],
    ("tiling", "diff_against_language"): DIFF,
    ("tiling", "format_language_diff"): DIFF,
    ("tiling", "project_to_nfa"): ["project-nfa", "--sats", "F8c.c"],
}


class Called(Exception):
    """Raised by a stand-in, to show that the verb called it."""


class TestLazyNames:
    def test_all_is_pinned(self):
        assert gridlang.__all__ == sorted(name for _, name in PUBLIC)
        assert len(gridlang.__all__) == 62

    @pytest.mark.parametrize("module, name", PUBLIC)
    def test_a_name_is_its_modules_object(self, module, name):
        value = getattr(gridlang, name)
        assert value is getattr(importlib.import_module(f"gridlang.{module}"), name)

    def test_dir_covers_all(self):
        assert set(gridlang.__all__) <= set(dir(gridlang))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from gridlang import *", namespace)
        assert all(namespace[name] is getattr(gridlang, name) for name in gridlang.__all__)

    @pytest.mark.parametrize("module", [gridlang, cli], ids=["gridlang", "cli"])
    def test_an_unknown_name_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "ParseErrors")

    @pytest.mark.parametrize("module, name", [*VERB_CALLS, ("expr", "ParseError")])
    def test_a_verbs_name_is_on_cli(self, module, name):
        defining = importlib.import_module(f"gridlang.{module}")
        assert getattr(cli, name) is getattr(defining, name)

    @pytest.mark.parametrize("module, name", VERB_CALLS)
    def test_a_name_set_on_cli_is_the_one_called(self, module, name, monkeypatch):
        def stand_in(*args, **kwargs):
            raise Called(name)

        monkeypatch.setattr(f"gridlang.cli.{name}", stand_in)
        with pytest.raises(Called):
            cli.run(VERB_CALLS[module, name], io.StringIO())
