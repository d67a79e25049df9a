"""The record classes: construction, defaults, equality, hashing, repr,
immutability and `__post_init__` checks, for every record in the package;
and a start-up that imports no `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gridlang import compose, equations, expr, grid, interact, tiling
from gridlang.compose import Always, And, Comparison, Not, Or
from gridlang.equations import Solution
from gridlang.expr import Atom, Compose, EquationSystem, Star, Sum, Var
from gridlang.grid import Bounds, Element, FrozenRecordError, Selector, Word, record
from gridlang.interact import (
    EMPTY,
    BinOp,
    DataCell,
    DataModule,
    DataScenario,
    DataSet,
    Empty,
    Guard,
    MinOf,
    Num,
    Pair,
    PairExpr,
    Rule,
    SetDisplay,
    Stream,
    StreamExpr,
    Sym,
    ValidationReport,
    VarRef,
    Violation,
)
from gridlang.tiling import LanguageDiff, Nfa, Scenario, Tile, TileSystem

ROOT = Path(__file__).resolve().parent.parent

TILE = Tile("a", "0", "0", "0", "0")
RULE = Rule(VarRef("x"), EMPTY, VarRef("x"), EMPTY)
CELL = DataCell("M", Num(1), EMPTY, Num(1), EMPTY)
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
    Empty: (),
    Sym: ("a",),
    Num: (1,),
    Pair: (Sym("a"), Num(1)),
    DataSet: (frozenset({Num(1)}),),
    Stream: ((Num(1), Num(2)),),
    VarRef: ("a",),
    PairExpr: (Sym("a"), Num(1)),
    SetDisplay: ((Num(1), Num(2)),),
    StreamExpr: ((Num(1), Num(2)),),
    BinOp: ("+", VarRef("U"), VarRef("V")),
    MinOf: (VarRef("U"),),
    Guard: ("in", VarRef("x"), VarRef("U")),
    Rule: (VarRef("x"), EMPTY, VarRef("x"), EMPTY, ()),
    DataModule: ("M", (RULE,), True),
    DataCell: ("M", Num(1), EMPTY, Num(1), EMPTY),
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
    assert len(CLASSES) == 40


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
        assert Rule(VarRef("x"), EMPTY, VarRef("x"), EMPTY).guards == ()

    def test_data_scenario_wiring(self):
        assert DataScenario(((0, 0, CELL),)).wiring == ()

    def test_data_module_reconstructed(self):
        assert DataModule("M", (RULE,)).reconstructed is False


class TestReprs:
    def test_spelt_out(self):
        assert repr(Selector("n")) == "Selector(kind='n', filter='any')"
        assert repr(Pair(Sym("a"), Num(1))) == "Pair(first=Sym(name='a'), second=Num(value=1))"
        assert repr(Always()) == "Always()"
        assert repr(EMPTY) == "Empty()"


class TestEquality:
    def test_equal_fields_of_different_classes(self):
        assert Sym("a") != VarRef("a")
        assert PairExpr(Sym("a"), Num(1)) != Pair(Sym("a"), Num(1))
        assert SetDisplay((Num(1),)) != StreamExpr((Num(1),))
        assert And((Always(), Always())) != Or((Always(), Always()))
        assert Empty() != Always()

    def test_fieldless_records_are_equal(self):
        assert Empty() == EMPTY and hash(Empty()) == hash(())


class TestPostInit:
    def test_checks_still_raise(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Bounds(0, 1, 1)
        with pytest.raises(ValueError):
            Stream((Num(1),))

    def test_normalized_fields(self):
        assert Word(((0, 1, "b"), (0, 0, "a"))).cells == ((0, 0, "a"), (0, 1, "b"))
        assert DataSet({Num(1)}).items == frozenset({Num(1)})

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
            "import gridlang.cli\n"
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
