"""Command-line front door for the workbench.

Verbs wrap library operations one to one: enum lists a tile-system
language, eval evaluates an expression, solve runs an equation system
to its least fixed point, diff cross-checks a solved variable against a
tile-system language, validate checks a data scenario, render draws a
solved variable, and project-nfa projects a vertical-only tile system
onto an automaton.

Exit codes: 0 for success, 1 for domain outcomes (unequal languages,
scenario violations, exhausted node budget), 2 for usage errors. Node
budget exhaustion always leaves a partial marker on the output rather
than silently truncating: `run` alone turns BudgetExhausted into the
marker, after the words enumerated so far when the search kept them.
With --format records the output is JSON lines sorted by (cell count,
row-major rendering), byte-identical for identical inputs.

Every verb runs in one process. Each still accepts --jobs N and ignores
it, so existing command lines keep working.

A process pays only for the verb it runs: importing this module loads
argparse and `grid`, a verb imports the modules it calls on first use,
and the parser adds arguments only for the verb named on the command
line.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from . import _exports, _lazy
from .grid import (
    Bounds,
    Budget,
    BudgetExhausted,
    Word,
    corpus_text,
    render_ascii,
    word_sort_key,
)

if TYPE_CHECKING:
    from .expr import EquationSystem
    from .tiling import TileSystem

# The library names the verbs call, imported on first lookup. Verbs look
# them up on this module (`_cli`) at each call, so that a value set over
# one, by a tracer or a test, is the one called.
__getattr__ = _lazy(globals(), _exports(
    expr="ParseError eval_expr parse_expr parse_system",
    equations="solve",
    interact="builtin_protocol builtin_protocol_library complete_scenario format_report"
    " parse_module_library parse_scenario validate_scenario",
    tiling="diff_against_language enumerate_language format_language_diff parse_tile_system"
    " parse_two_color project_to_nfa",
))
_cli = sys.modules[__name__]

_PARTIAL_MARKER = "partial: node budget exhausted"


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _usage(message: str) -> _CliError:
    return _CliError(message, 2)


def _domain(message: str) -> _CliError:
    return _CliError(message, 1)


# ---------------------------------------------------------------------------
# Argument plumbing


def _resolve_bounds(args: argparse.Namespace) -> Bounds:
    rows, cols, cells = args.max_rows, args.max_cols, args.max_cells
    if rows is None and cols is None and cells is None:
        raise _usage("give at least one of --max-rows, --max-cols, --max-cells")
    flags = (("--max-rows", rows), ("--max-cols", cols), ("--max-cells", cells))
    for flag, value in flags:
        if value is not None and value < 1:
            raise _usage(f"{flag} must be a positive integer, got {value}")
    if rows is None:
        rows = cells
    if cols is None:
        cols = cells
    if rows is None or cols is None:
        raise _usage("--max-cells alone or both of --max-rows/--max-cols are needed")
    if cells is None:
        cells = rows * cols
    cells = min(cells, rows * cols)
    try:
        if args.node_budget is not None:
            return Bounds(rows, cols, cells, node_budget=args.node_budget)
        return Bounds(rows, cols, cells)
    except ValueError as exc:
        raise _usage(str(exc))


def _read(path: str, what: str, parse):
    """Parse a file, turning a read or parse failure into a usage error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _usage(f"cannot read {path!r}: {exc}")
    except ValueError as exc:
        raise _usage(f"bad {what} {path!r}: {exc}")


def _load_sats(value: str) -> TileSystem:
    if os.path.exists(value):
        return _read(value, "tile system", _cli.parse_tile_system)
    try:
        return _cli.parse_two_color(value)
    except ValueError as exc:
        raise _usage(f"bad tile system {value!r}: {exc}")


_BUILTIN_SYSTEMS = ("squares", "f02ac", "f02ac-general")


def _load_system(args: argparse.Namespace) -> tuple[EquationSystem, str]:
    """The equation system plus its default target, the last variable defined."""
    system = getattr(args, "system", None)
    path = getattr(args, "file", None)
    if (system is None) == (path is None):
        raise _usage("give exactly one of --system or --file")
    if system is None:
        sys_ = _read(path, "equation file", _cli.parse_system)
    elif system in _BUILTIN_SYSTEMS:
        sys_ = _cli.parse_system(corpus_text(f"{system}.t2d"))
    else:
        raise _usage(f"unknown --system {system!r}; builtins: {', '.join(_BUILTIN_SYSTEMS)}")
    return sys_, sys_.names[-1]


def _pick_var(sys_: EquationSystem, target: str, var: Optional[str]) -> str:
    name = var if var is not None else target
    if name not in sys_.names:
        raise _usage(f"variable {name!r} is not defined by the system")
    return name


# ---------------------------------------------------------------------------
# Output emitters


def _encode(obj) -> dict:
    if isinstance(obj, Word):
        return {"cells": obj.cells}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump(obj) -> str:
    """The one records encoding: compact, sorted keys, a Word as its cells."""
    import json

    return json.dumps(obj, separators=(",", ":"), sort_keys=True, default=_encode)


def _emit_words(words, fmt: str, out: TextIO) -> None:
    """Write a word listing in sort order, one records line per word or
    the ASCII pictures separated by blank lines.

    A records line is joined from the `_dump` of each cell, encoded once
    per distinct (row, col, letter) triple; it has the bytes `_dump(w)`
    gives, without encoding a word at a time.
    """
    ordered = sorted(words, key=word_sort_key)
    if fmt == "records":
        fragments: dict[tuple[int, int, str], str] = {}
        for w in ordered:
            parts = []
            for cell in w.cells:
                frag = fragments.get(cell)
                if frag is None:
                    frag = fragments[cell] = _dump(cell)
                parts.append(frag)
            out.write('{"cells":[' + ",".join(parts) + "]}\n")
    elif ordered:
        print("\n\n".join(render_ascii(w) for w in ordered), file=out)


# ---------------------------------------------------------------------------
# Verbs


def _cmd_enum(args: argparse.Namespace, out: TextIO) -> int:
    f = _load_sats(args.sats)
    bounds = _resolve_bounds(args)
    # Sorting the search order is faster than sorting the set.
    _emit_words(_cli.enumerate_language(f, bounds).found, args.format, out)
    return 0


def _cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    bounds = _resolve_bounds(args)
    try:
        expr = _cli.parse_expr(args.expr)
    except _cli.ParseError as exc:
        raise _usage(f"bad expression: {exc}")
    env = {}
    if args.system is not None or args.file is not None:
        sys_, _ = _load_system(args)
        sol = _cli.solve(sys_, bounds)
        if not sol.saturated:
            raise BudgetExhausted("node budget exhausted")
        env = sol.values
    try:
        words = _cli.eval_expr(expr, env, bounds, Budget(bounds.node_budget))
    except ValueError as exc:
        raise _usage(str(exc))
    _emit_words(words, args.format, out)
    return 0


def _cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
    sys_, target = _load_system(args)
    bounds = _resolve_bounds(args)
    sol = _cli.solve(sys_, bounds)
    names = [_pick_var(sys_, target, args.var)] if args.var else list(sys_.names)
    if args.format == "records":
        doc = {
            "iterations": sol.iterations,
            "saturated": sol.saturated,
            "values": {name: sorted(sol.values[name], key=word_sort_key) for name in names},
        }
        print(_dump(doc), file=out)
    else:
        for name in names:
            words = sorted(sol.values[name], key=word_sort_key)
            print(f"{name}: {len(words)} words", file=out)
            for w in words:
                print(render_ascii(w), file=out)
                print(file=out)
    if not sol.saturated:
        raise BudgetExhausted("node budget exhausted")
    return 0


def _cmd_diff(args: argparse.Namespace, out: TextIO) -> int:
    f = _load_sats(args.sats)
    sys_, target = _load_system(args)
    bounds = _resolve_bounds(args)
    var = _pick_var(sys_, target, args.var)
    if args.witnesses < 0:
        raise _usage(f"--witnesses must be a non-negative integer, got {args.witnesses}")
    sol = _cli.solve(sys_, bounds)
    if not sol.saturated:
        raise BudgetExhausted("node budget exhausted")
    diff = _cli.diff_against_language(
        f, bounds, sol.values[var], max_witnesses=args.witnesses
    )
    if args.format == "records":
        doc = {
            "equal": diff.equal,
            "left_total": diff.left_total,
            "right_total": diff.right_total,
            "common": diff.common,
            "only_left_count": diff.only_left_count,
            "only_right_count": diff.only_right_count,
            "only_left": diff.only_left,
            "only_right": diff.only_right,
        }
        print(_dump(doc), file=out)
    else:
        out.write(_cli.format_language_diff(diff, "solver", "tiles"))
    return 0 if diff.equal else 1


def _load_protocol(args: argparse.Namespace):
    if args.modules == "protocol":
        if args.scenario is None:
            return _cli.builtin_protocol()
        lib = _cli.builtin_protocol_library()
    else:
        lib = _read(args.modules, "module library", _cli.parse_module_library)
        if args.scenario is None:
            raise _usage("--scenario is required with a module library file")
    return lib, _read(args.scenario, "scenario", _cli.parse_scenario)


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    if args.node_budget is not None and not args.execute:
        raise _usage("--node-budget needs --execute")
    budget = args.node_budget if args.node_budget is not None else 100_000
    if budget < 1:
        raise _usage(f"node_budget must be a positive integer, got {budget!r}")
    lib, scenario = _load_protocol(args)
    try:
        report = _cli.validate_scenario(scenario, lib)
    except ValueError as exc:
        raise _domain(str(exc))
    completed = True
    execution_line = None
    if args.execute:
        cmap = scenario.cell_map
        layout = {pos: cell.module for pos, cell in cmap.items()}
        west = {pos: cell.west for pos, cell in cmap.items()}
        north = {pos: cell.north for pos, cell in cmap.items()}
        redo = _cli.complete_scenario(
            lib, layout, west, north, scenario.wiring, node_budget=budget
        )
        completed = redo is not None
        execution_line = (
            "execution: completion found" if completed else "execution: no completion"
        )
    if args.format == "records":
        doc = {
            "valid": report.valid,
            "cells_checked": len(report.cell_checks),
            "violations": [
                {"kind": v.kind, "cells": v.cells, "message": v.message}
                for v in report.violations
            ],
        }
        if args.execute:
            doc["completion_found"] = completed
        print(_dump(doc), file=out)
    else:
        out.write(_cli.format_report(report))
        if execution_line is not None:
            print(execution_line, file=out)
    return 0 if report.valid and completed else 1


def _cmd_render(args: argparse.Namespace, out: TextIO) -> int:
    sys_, target = _load_system(args)
    bounds = _resolve_bounds(args)
    sol = _cli.solve(sys_, bounds)
    var = _pick_var(sys_, target, args.var)
    if not sol.saturated:
        raise BudgetExhausted("node budget exhausted", partial=sol.values[var])
    _emit_words(sol.values[var], args.format, out)
    return 0


def _cmd_project_nfa(args: argparse.Namespace, out: TextIO) -> int:
    f = _load_sats(args.sats)
    try:
        nfa = _cli.project_to_nfa(f)
    except ValueError as exc:
        raise _domain(str(exc))
    transitions = sorted(nfa.transitions)
    if args.format == "records":
        doc = {
            "states": nfa.states,
            "initial": sorted(nfa.initial),
            "accepting": sorted(nfa.accepting),
            "transitions": transitions,
        }
        print(_dump(doc), file=out)
    else:
        print("states:", " ".join(nfa.states), file=out)
        print("initial:", " ".join(sorted(nfa.initial)), file=out)
        print("accepting:", " ".join(sorted(nfa.accepting)), file=out)
        for src, letter, dst in transitions:
            print(f"transition: {src} --{letter}--> {dst}", file=out)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry points


_BOUNDS = [
    (f"--{bound}", {"type": int})
    for bound in ("max-rows", "max-cols", "max-cells", "node-budget")
]
_SYSTEM = [("--system", {}), ("--file", {})]
_SATS = ("--sats", {"required": True})
_VAR = ("--var", {})
_OUTPUT = [
    ("--format", {"choices": ("ascii", "records"), "default": "ascii"}),
    ("--jobs", {"type": int, "default": 1, "help": "accepted and ignored"}),
]

# Each verb's help line, command and arguments, in help order; every verb
# then takes the `_OUTPUT` arguments.
_VERBS = {
    "enum": ("list a tile-system language within bounds", _cmd_enum, [
        ("--sats", {"required": True, "help": "two-color notation or a .sats file"}),
        *_BOUNDS,
    ]),
    "eval": ("evaluate an expression within bounds", _cmd_eval, [
        ("--expr", {"required": True}), *_SYSTEM, *_BOUNDS,
    ]),
    "solve": ("solve an equation system within bounds", _cmd_solve, [
        ("--system", {"help": "|".join(_BUILTIN_SYSTEMS)}), ("--file", {}), _VAR, *_BOUNDS,
    ]),
    "diff": ("cross-check a solved variable against tiles", _cmd_diff, [
        _SATS, *_SYSTEM, _VAR, ("--witnesses", {"type": int, "default": 10}), *_BOUNDS,
    ]),
    "validate": ("validate a data scenario", _cmd_validate, [
        ("--modules", {"required": True, "help": "'protocol' or a library file"}),
        ("--scenario", {}),
        ("--execute", {"action": "store_true", "help": "also search for a completion"}),
        ("--node-budget", {"type": int, "help": "bounds --execute's search"}),
    ]),
    "render": ("draw every word of a solved variable", _cmd_render, [
        *_SYSTEM, _VAR, *_BOUNDS,
    ]),
    "project-nfa": ("project a vertical-only system", _cmd_project_nfa, [_SATS]),
}


def _build_parser(verbs: Sequence[str] = tuple(_VERBS)) -> argparse.ArgumentParser:
    """The parser with a subparser for every verb, so that usage and help
    are whole, but with arguments only for the verbs in `verbs`."""
    parser = argparse.ArgumentParser(
        prog="gridlang",
        description="Workbench for languages of two-dimensional words.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_, func, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_)
        if verb in verbs:
            for flag, options in arguments + _OUTPUT:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


# One parser per verb, built on first use and kept: argparse leaves each
# parser's own objects in reference cycles.
_PARSERS: dict = {}


def _parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, with arguments for the verb it names first.

    argparse dispatches on the first positional token, and no option
    before it takes a value, so that token is the verb when it names one;
    when it does not, parsing fails before any verb's arguments are read.
    """
    verb = next((a for a in argv if a in _VERBS), None)
    parser = _PARSERS.get(verb)
    if parser is None:
        parser = _PARSERS[verb] = _build_parser(() if verb is None else (verb,))
        # Building leaves argparse's spent help formatters in reference
        # cycles: free them now, so that a command leaves none behind.
        gc.collect(0)
    return parser


def run(argv: Sequence[str], out: Optional[TextIO] = None) -> int:
    """Parse and dispatch; returns the exit code instead of raising."""
    sink = out if out is not None else sys.stdout
    try:
        argv = list(argv)
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # A command builds many long-lived containers and frees them at the
    # end, so the cyclic collector would only rescan them: pause it for
    # the command, and switch it back on only if it was on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            code = args.func(args, sink)
        except _CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.code
        except BudgetExhausted as exc:
            if exc.partial is not None:
                _emit_words(exc.partial, args.format, sink)
            print(_PARTIAL_MARKER, file=sink)
            code = 1
        sink.flush()
        return code
    except BrokenPipeError:
        # The reader left early. Point the sink at the null device, so that
        # the flush at exit cannot fail again, and exit 1 without a word.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sink.fileno())
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
