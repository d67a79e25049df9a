"""The four workloads: their operations and the checks on their outputs.

A workload is a fixed list of CLI operations built from a seed, plus a
`check` that reads every operation's output and returns, per operation
label, what is wrong with it. Checks compare against computations made
apart from gridlang (`tiles.py`, `protocol.py` and the generators here)
or against properties a bounded least fixed point must have; no stored
copy of the program's output is read.

`scale="tiny"` shrinks every bound and stream so the self-test can run
each workload in seconds.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, NamedTuple

import protocol
import tiles


class Op(NamedTuple):
    label: str
    argv: tuple  # gridlang arguments
    expect: int  # expected exit code


class Result(NamedTuple):
    code: int
    out: bytes
    err: str


class Workload(NamedTuple):
    ops: list
    check: Callable  # dict label -> Result  =>  dict label -> problem


def bound_args(b) -> tuple:
    return ("--max-rows", str(b[0]), "--max-cols", str(b[1]), "--max-cells", str(b[2]))


# ---------------------------------------------------------------------------
# Words as sorted tuples of (row, col, letter)


def fits(cells, b) -> bool:
    rows = [r for r, _, _ in cells]
    cols = [c for _, c, _ in cells]
    return (max(rows) - min(rows) < b[0] and max(cols) - min(cols) < b[1]
            and len(cells) <= b[2])


def sort_key(cells) -> tuple:
    """(cell count, row-major rendering with '/' between rows), the
    documented listing order, for a normalized word."""
    grid = {(r, c): ch for r, c, ch in cells}
    height = max(r for r, _, _ in cells) + 1
    width = max(c for _, c, _ in cells) + 1
    text = "/".join(
        "".join(grid.get((r, c), ".") for c in range(width)) for r in range(height)
    )
    return (len(cells), text)


def listing_problem(words, b, accept=None):
    """Why a listed word sequence is not a valid listing, or None: each
    word is well formed, normalized, in bounds, accepted (when `accept` is
    given), and the sequence is strictly increasing in `sort_key`, which
    also makes the words distinct."""
    prev = None
    for i, cells in enumerate(words):
        if not cells:
            return f"word {i} is empty"
        if list(cells) != sorted(set(cells)) or len({(r, c) for r, c, _ in cells}) != len(cells):
            return f"word {i} has unsorted or repeated cells"
        if min(r for r, _, _ in cells) != 0 or min(c for _, c, _ in cells) != 0:
            return f"word {i} is not normalized"
        if not fits(cells, b):
            return f"word {i} is out of bounds {b}"
        if accept is not None and not accept(cells):
            return f"word {i} is rejected by the tile matcher"
        key = sort_key(cells)
        if prev is not None and key <= prev:
            return f"word {i} is out of order or repeated"
        prev = key
    return None


def record_words(records) -> list:
    return [tuple(tuple(x) for x in rec["cells"]) for rec in records]


def ascii_words(text: str) -> list:
    """Words of an ascii listing: grids separated by blank lines."""
    words = []
    for block in text.split("\n\n"):
        rows = block.strip("\n").split("\n")
        if not block.strip():
            continue
        cells = tuple(
            (r, c, ch) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch != "."
        )
        width = {len(row) for row in rows}
        tight = (
            len(width) == 1 and cells
            and any(ch != "." for ch in rows[-1])
            and any(row[-1] != "." for row in rows)
        )
        words.append(cells if tight else ())
    return words


def squares(b) -> set:
    """Odd squares of a's around one x, the language of squares.t2d."""
    out = set()
    n = 1
    while n <= min(b[0], b[1]) and n * n <= b[2]:
        k = n // 2
        out.add(tuple((r, c, "x" if r == c == k else "a") for r in range(n) for c in range(n)))
        n += 2
    return out


def diagonal_chains(b, anti: bool) -> set:
    """Diagonal runs of b's: Dmain and Danti of mutual.t2d."""
    longest = min(b)
    return {
        tuple(sorted((k, n - 1 - k if anti else k, "b") for k in range(n)))
        for n in range(1, longest + 1)
    }


def _solve_doc(res: Result):
    doc = json.loads(res.out)
    if not doc.get("saturated"):
        raise ValueError("solve did not saturate")
    return {name: record_words(recs) for name, recs in doc["values"].items()}


def _first(*problems):
    return next((p for p in problems if p), None)


def _guard(problems: dict, label: str, fn) -> None:
    """Run one check; a malformed output is that operation's problem."""
    try:
        problem = fn()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem:
        problems[label] = problem


# ---------------------------------------------------------------------------
# solve


def solve_workload(rng: random.Random, workdir: str, scale: str) -> Workload:
    big, small, mutual_b = ((17, 17, 17), (11, 11, 11), (9, 9, 12)) if scale == "full" \
        else ((9, 9, 9), (5, 5, 5), (4, 4, 5))
    mutual = os.path.join("src", "gridlang", "corpus", "mutual.t2d")
    ops = [
        Op("squares-big", ("solve", "--system", "squares", *bound_args(big), "--format", "records"), 0),
        Op("squares-small", ("solve", "--system", "squares", *bound_args(small), "--format", "records"), 0),
        Op("mutual", ("solve", "--file", mutual, *bound_args(mutual_b), "--format", "records"), 0),
    ]
    rng.shuffle(ops)

    def check(results: dict) -> dict:
        problems: dict = {}
        docs: dict = {}

        def values(label, b):
            docs[label] = vals = _solve_doc(results[label])
            return _first(*(listing_problem(ws, b) for ws in vals.values()))

        def squares_big():
            return _first(values("squares-big", big),
                          set(docs["squares-big"]["X"]) != squares(big) and "X is not the odd squares")

        def squares_small():
            p = values("squares-small", small)
            if p or "squares-big" not in docs:
                return p or "no larger solve to compare with"
            for name, ws in docs["squares-big"].items():
                if docs["squares-small"].get(name) != [w for w in ws if fits(w, small)]:
                    return f"{name} is not the larger solve filtered to {small}"
            return None

        def mutual_check():
            p = values("mutual", mutual_b)
            vals = docs["mutual"]
            return _first(
                p,
                set(vals["X"]) != squares(mutual_b) and "X is not the odd squares",
                set(vals["Dmain"]) != diagonal_chains(mutual_b, False) and "Dmain is not the main-diagonal chains",
                set(vals["Danti"]) != diagonal_chains(mutual_b, True) and "Danti is not the anti-diagonal chains",
            )

        _guard(problems, "squares-big", squares_big)
        _guard(problems, "squares-small", squares_small)
        _guard(problems, "mutual", mutual_check)
        return problems

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# crosscheck


SATS = "F02ac.c"


def crosscheck_workload(rng: random.Random, workdir: str, scale: str) -> Workload:
    if scale == "full":
        top, diffs, basic = (7, 7, 16), [(6, 6, 12), (7, 7, 16)], (6, 6, 12)
    else:
        top, diffs, basic = (6, 6, 8), [(4, 4, 6), (5, 5, 8), (6, 6, 8)], (4, 4, 6)
    system = tiles.parse_two_color(SATS)
    accept = lambda cells: tiles.accepts(system, cells)
    diff = lambda name, b: ("diff", "--sats", SATS, "--system", name, "--var", "X11",
                            *bound_args(b), "--format", "records")
    ops = [Op("solve", ("solve", "--system", "f02ac-general", "--var", "X11",
                        *bound_args(top), "--format", "records"), 0)]
    ops += [Op(f"diff-general-{b[0]}x{b[1]}x{b[2]}", diff("f02ac-general", b), 1) for b in diffs]
    ops.append(Op(f"diff-basic-{basic[0]}x{basic[1]}x{basic[2]}", diff("f02ac", basic), 1))
    rng.shuffle(ops)
    totals: dict = {}

    def tile_total(b) -> int:
        if b not in totals:
            totals[b] = tiles.count_words(system, *b)
        return totals[b]

    def check(results: dict) -> dict:
        problems: dict = {}
        solver: list = []

        def solve_check():
            solver.extend(_solve_doc(results["solve"])["X11"])
            return listing_problem(solver, top, accept)

        def diff_check(label, b, words):
            doc = json.loads(results[label].out)
            left = len(words) if words is not None else doc["left_total"]
            witnesses = record_words(doc["only_right"])
            known = set(words or ())
            return _first(
                doc["left_total"] != left and f"left_total {doc['left_total']} != {left} solver words",
                (doc["common"], doc["only_left_count"], doc["only_left"]) != (left, 0, [])
                and "solver words reported outside the tile language",
                doc["right_total"] != tile_total(b)
                and f"right_total {doc['right_total']} != {tile_total(b)} counted",
                doc["only_right_count"] != doc["right_total"] - doc["common"] and "only_right_count",
                doc["equal"] is not (doc["only_right_count"] == 0) and "equal flag",
                len(witnesses) != min(10, doc["only_right_count"]) and "witness count",
                any(w in known for w in witnesses) and "a tile witness is a solver word",
                listing_problem(sorted(witnesses, key=sort_key), b, accept),
            )

        _guard(problems, "solve", solve_check)
        for b in diffs:
            label = f"diff-general-{b[0]}x{b[1]}x{b[2]}"
            words = None if "solve" in problems else [w for w in solver if fits(w, b)]
            _guard(problems, label, lambda: diff_check(label, b, words)
                   or (words is None and "no solver words to compare with"))
        label = f"diff-basic-{basic[0]}x{basic[1]}x{basic[2]}"
        _guard(problems, label, lambda: diff_check(label, basic, None))
        return problems

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# enumerate


def enumerate_workload(rng: random.Random, workdir: str, scale: str) -> Workload:
    rec_b, asc_b = ((5, 5, 6), (3, 4, 6)) if scale == "full" else ((3, 3, 4), (2, 2, 3))
    f02ac, f0f = tiles.parse_two_color(SATS), tiles.parse_two_color("F0f")
    enum = lambda sats, b: ("enum", "--sats", sats, *bound_args(b))
    ops = [
        Op("records-jobs1", (*enum(SATS, rec_b), "--format", "records", "--jobs", "1"), 0),
        Op("records-jobs2", (*enum(SATS, rec_b), "--format", "records", "--jobs", "2"), 0),
        Op("ascii-F0f", enum("F0f", asc_b), 0),
    ]
    rng.shuffle(ops)

    def listing(words, b, system):
        return _first(
            listing_problem(words, b, lambda cells: tiles.accepts(system, cells)),
            len(words) != tiles.count_words(system, *b)
            and f"{len(words)} words listed, {tiles.count_words(system, *b)} counted",
        )

    def check(results: dict) -> dict:
        problems: dict = {}
        one, two = results["records-jobs1"].out, results["records-jobs2"].out
        _guard(problems, "records-jobs1", lambda: listing(
            record_words(json.loads(line) for line in one.decode().splitlines()), rec_b, f02ac))
        if two != one:
            problems["records-jobs2"] = "output differs from --jobs 1"
        elif "records-jobs1" in problems:
            problems["records-jobs2"] = problems["records-jobs1"]
        _guard(problems, "ascii-F0f", lambda: listing(
            ascii_words(results["ascii-F0f"].out.decode()), asc_b, f0f))
        return problems

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# protocol


def protocol_workload(rng: random.Random, workdir: str, scale: str) -> Workload:
    lengths = [40, 60, 80, 100] if scale == "full" else [3, 4, 5, 6]
    pooled = lengths[-1]  # the run validated with --jobs 2
    rng.shuffle(lengths)
    corrupt = set(rng.sample(range(len(lengths)), len(lengths) // 2))
    ops, runs, mutations = [], {}, {}
    for k, n in enumerate(lengths):
        run = protocol.random_run(rng, n, k in corrupt)
        if protocol.emitted(run) != run.stream:
            raise AssertionError("generated OS column does not emit the stream")
        pos = rng.choice(sorted(run.cells))
        side = rng.choice("wnes")
        clean, mutant = f"run{k}-n{n}", f"mutant{k}-n{n}"
        runs[clean] = runs[mutant] = run
        mutations[mutant] = (pos, side)
        for label, mutation in ((clean, None), (mutant, (pos, side))):
            path = os.path.join(workdir, label + ".imod")
            with open(path, "w") as fh:
                fh.write(protocol.scenario_text(run, mutation))
        jobs = ("--jobs", "2") if n == pooled else ()
        ops.append(Op(clean, ("validate", "--modules", "protocol", "--scenario",
                              os.path.join(workdir, clean + ".imod"), "--execute",
                              "--format", "records", *jobs), 0))
        ops.append(Op(mutant, ("validate", "--modules", "protocol", "--scenario",
                               os.path.join(workdir, mutant + ".imod"), "--format", "records"), 1))

    def clean_check(doc, run, _):
        expected = {"cells_checked": len(run.cells), "completion_found": True,
                    "valid": True, "violations": []}
        return doc != expected and f"clean run not validated: {doc}"

    def mutant_check(doc, run, mutation):
        pos, side = mutation
        flagged = {tuple(p) for v in doc["violations"] for p in v["cells"]}
        allowed = protocol.allowed_flags(run, pos, side)
        return _first(
            doc["valid"] and f"mutation of {pos}.{side} not detected",
            not doc["violations"] and "no violations listed",
            doc["cells_checked"] != len(run.cells) and "cells_checked",
            not flagged <= allowed and f"{sorted(flagged - allowed)} flagged for {pos}.{side}",
        )

    def check(results: dict) -> dict:
        problems: dict = {}
        for label, run in runs.items():
            fn = mutant_check if label in mutations else clean_check
            _guard(problems, label,
                   lambda: fn(json.loads(results[label].out), run, mutations.get(label)))
        return problems

    return Workload(ops, check)


WORKLOADS = {
    "solve": solve_workload,
    "crosscheck": crosscheck_workload,
    "enumerate": enumerate_workload,
    "protocol": protocol_workload,
}
