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
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Optional, Sequence, TextIO

from .grid import (
    Bounds,
    Budget,
    BudgetExhausted,
    Word,
    corpus_text,
    render_ascii,
    word_sort_key,
)
from .expr import EquationSystem, ParseError, eval_expr, parse_expr, parse_system
from .equations import solve
from .interact import (
    builtin_protocol,
    builtin_protocol_library,
    complete_scenario,
    format_report,
    parse_module_library,
    parse_scenario,
    validate_scenario,
)
from .tiling import (
    TileSystem,
    diff_against_language,
    enumerate_language,
    format_language_diff,
    parse_tile_system,
    parse_two_color,
    project_to_nfa,
)

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


def _add_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--max-cols", type=int, default=None)
    p.add_argument("--max-cells", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)


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
        return _read(value, "tile system", parse_tile_system)
    try:
        return parse_two_color(value)
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
        sys_ = _read(path, "equation file", parse_system)
    elif system in _BUILTIN_SYSTEMS:
        sys_ = parse_system(corpus_text(f"{system}.t2d"))
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


def _word_record(w: Word) -> dict:
    return {"cells": [[r, c, ch] for r, c, ch in w.cells]}


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _emit_words(words, fmt: str, out: TextIO) -> None:
    """Write a word listing in sort order, one records line per word or
    the ASCII pictures separated by blank lines.

    A records line is built from one JSON fragment per cell, encoded once
    per distinct (row, col, letter) triple; it has the bytes
    `_dump(_word_record(w))` gives, without a dict per word.
    """
    ordered = sorted(words, key=word_sort_key)
    if fmt == "records":
        fragments: dict[tuple[int, int, str], str] = {}
        for w in ordered:
            parts = []
            for cell in w.cells:
                frag = fragments.get(cell)
                if frag is None:
                    frag = fragments[cell] = json.dumps(cell, separators=(",", ":"))
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
    _emit_words(enumerate_language(f, bounds).found, args.format, out)
    return 0


def _cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    bounds = _resolve_bounds(args)
    try:
        expr = parse_expr(args.expr)
    except ParseError as exc:
        raise _usage(f"bad expression: {exc}")
    env = {}
    if args.system is not None or args.file is not None:
        sys_, _ = _load_system(args)
        sol = solve(sys_, bounds)
        if not sol.saturated:
            raise BudgetExhausted("node budget exhausted")
        env = sol.values
    try:
        words = eval_expr(expr, env, bounds, Budget(bounds.node_budget))
    except ValueError as exc:
        raise _usage(str(exc))
    _emit_words(words, args.format, out)
    return 0


def _cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
    sys_, target = _load_system(args)
    bounds = _resolve_bounds(args)
    sol = solve(sys_, bounds)
    names = [_pick_var(sys_, target, args.var)] if args.var else list(sys_.names)
    if args.format == "records":
        doc = {
            "iterations": sol.iterations,
            "saturated": sol.saturated,
            "values": {
                name: [
                    _word_record(w)
                    for w in sorted(sol.values[name], key=word_sort_key)
                ]
                for name in names
            },
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
    sol = solve(sys_, bounds)
    if not sol.saturated:
        raise BudgetExhausted("node budget exhausted")
    diff = diff_against_language(
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
            "only_left": [_word_record(w) for w in diff.only_left],
            "only_right": [_word_record(w) for w in diff.only_right],
        }
        print(_dump(doc), file=out)
    else:
        out.write(format_language_diff(diff, "solver", "tiles"))
    return 0 if diff.equal else 1


def _load_protocol(args: argparse.Namespace):
    if args.modules == "protocol":
        if args.scenario is None:
            return builtin_protocol()
        lib = builtin_protocol_library()
    else:
        lib = _read(args.modules, "module library", parse_module_library)
        if args.scenario is None:
            raise _usage("--scenario is required with a module library file")
    return lib, _read(args.scenario, "scenario", parse_scenario)


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    if args.node_budget is not None and not args.execute:
        raise _usage("--node-budget needs --execute")
    budget = args.node_budget if args.node_budget is not None else 100_000
    if budget < 1:
        raise _usage(f"node_budget must be a positive integer, got {budget!r}")
    lib, scenario = _load_protocol(args)
    try:
        report = validate_scenario(scenario, lib)
    except ValueError as exc:
        raise _domain(str(exc))
    completed = True
    execution_line = None
    if args.execute:
        cmap = scenario.cell_map
        layout = {pos: cell.module for pos, cell in cmap.items()}
        west = {pos: cell.west for pos, cell in cmap.items()}
        north = {pos: cell.north for pos, cell in cmap.items()}
        redo = complete_scenario(
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
                {"kind": v.kind, "cells": [list(p) for p in v.cells], "message": v.message}
                for v in report.violations
            ],
        }
        if args.execute:
            doc["completion_found"] = completed
        print(_dump(doc), file=out)
    else:
        out.write(format_report(report))
        if execution_line is not None:
            print(execution_line, file=out)
    return 0 if report.valid and completed else 1


def _cmd_render(args: argparse.Namespace, out: TextIO) -> int:
    sys_, target = _load_system(args)
    bounds = _resolve_bounds(args)
    sol = solve(sys_, bounds)
    var = _pick_var(sys_, target, args.var)
    if not sol.saturated:
        raise BudgetExhausted("node budget exhausted", partial=sol.values[var])
    _emit_words(sol.values[var], args.format, out)
    return 0


def _cmd_project_nfa(args: argparse.Namespace, out: TextIO) -> int:
    f = _load_sats(args.sats)
    try:
        nfa = project_to_nfa(f)
    except ValueError as exc:
        raise _domain(str(exc))
    transitions = sorted(nfa.transitions)
    if args.format == "records":
        doc = {
            "states": list(nfa.states),
            "initial": sorted(nfa.initial),
            "accepting": sorted(nfa.accepting),
            "transitions": [list(t) for t in transitions],
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlang",
        description="Workbench for languages of two-dimensional words.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, bounds: bool = True) -> None:
        if bounds:
            _add_bounds(p)
        p.add_argument("--format", choices=("ascii", "records"), default="ascii")
        p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")

    p = sub.add_parser("enum", help="list a tile-system language within bounds")
    p.add_argument("--sats", required=True, help="two-color notation or a .sats file")
    common(p)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("eval", help="evaluate an expression within bounds")
    p.add_argument("--expr", required=True)
    p.add_argument("--system", default=None)
    p.add_argument("--file", default=None)
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("solve", help="solve an equation system within bounds")
    p.add_argument("--system", default=None, help="|".join(_BUILTIN_SYSTEMS))
    p.add_argument("--file", default=None)
    p.add_argument("--var", default=None)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("diff", help="cross-check a solved variable against tiles")
    p.add_argument("--sats", required=True)
    p.add_argument("--system", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--var", default=None)
    p.add_argument("--witnesses", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("validate", help="validate a data scenario")
    p.add_argument("--modules", required=True, help="'protocol' or a library file")
    p.add_argument("--scenario", default=None)
    p.add_argument("--execute", action="store_true", help="also search for a completion")
    p.add_argument(
        "--node-budget", type=int, default=None, help="bounds --execute's search"
    )
    common(p, bounds=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", help="draw every word of a solved variable")
    p.add_argument("--system", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--var", default=None)
    common(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("project-nfa", help="project a vertical-only system")
    p.add_argument("--sats", required=True)
    common(p, bounds=False)
    p.set_defaults(func=_cmd_project_nfa)

    return parser


def run(argv: Sequence[str], out: Optional[TextIO] = None) -> int:
    """Parse and dispatch; returns the exit code instead of raising."""
    sink = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # A command builds many long-lived containers and frees them at the
    # end, so the cyclic collector would only rescan them: pause it for
    # the command, and switch it back on only if it was on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args, sink)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExhausted as exc:
        if exc.partial is not None:
            _emit_words(exc.partial, args.format, sink)
        print(_PARTIAL_MARKER, file=sink)
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early. Point stdout at the null device, so that
        # the flush at exit cannot fail again, and exit 1 without a word.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
