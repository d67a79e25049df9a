"""Acceptance gate: one verdict line per criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line;
without -s the lines still appear in the captured output of failures.

Two clauses pin results of the hat cross-check:

* Criterion 1, no-additional-words clause. The single-cell language of
  F02ac.c is exactly "c", and at two cells the system also accepts the
  two diagonal placements of a c pair: a lone c is admissible on every
  border side, and diagonal neighbours share no border, so nothing
  rejects the pair. The clause therefore expects the single cells plus
  their diagonal pairs, and no two-cell word with edge-adjacent cells.

* Criterion 2, soundness clause. Every word of the general hat system
  within 6x6x12 is accepted by the tile system; the guards that make
  this hold are named in the header of corpus/f02ac-general.t2d. The
  committed golden report pins the break-down (133 solver words, all
  common, none solver-only); it is byte-stable across runs and job
  counts.
"""

import itertools
import random
import time
from io import StringIO
from pathlib import Path

import pytest

import test_properties
from conftest import W
from test_interact import LIB, SCENARIO, TestLocality, _mutate

from gridlang.cli import run
from gridlang.equations import builtin_f02ac, builtin_squares, solve
from gridlang.grid import Bounds, Word, hv_components, normalize, render_ascii
from gridlang.interact import Sym, validate_scenario
from gridlang.tiling import (
    Scenario,
    Tile,
    TileSystem,
    accepting,
    column_strings,
    diff_against_language,
    enumerate_language,
    format_language_diff,
    parse_two_color,
    project_to_nfa,
    scenario_valid,
)

GOLDEN = Path(__file__).parent / "golden" / "hat_cross_check.txt"


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# Criterion 1: F02ac.c base cases


def _small_shapes():
    yield [(0, 0)]
    for p in [(0, 1), (1, 0), (1, 1)]:
        yield [(0, 0), p]
    yield [(0, 1), (1, 0)]


def _brute_language_up_to_two(f: TileSystem) -> frozenset[Word]:
    out = set()
    for shape in _small_shapes():
        for combo in itertools.product(f.tiles, repeat=len(shape)):
            s = Scenario(tuple((r, c, t) for (r, c), t in zip(shape, combo)))
            if scenario_valid(f, s) and accepting(f, s):
                w = Word(tuple((r, c, t.letter) for (r, c), t in zip(shape, combo)))
                out.add(normalize(w))
    return frozenset(out)


@pytest.fixture(scope="module")
def hat_tiles() -> TileSystem:
    return parse_two_color("F02ac.c")


def test_criterion_1_single_cell_and_oracle(hat_tiles):
    t0 = time.monotonic()
    one = enumerate_language(hat_tiles, Bounds(1, 1, 1))
    two = enumerate_language(hat_tiles, Bounds(2, 2, 2))
    oracle = _brute_language_up_to_two(hat_tiles)
    elapsed = time.monotonic() - t0
    ok = one == {W("c")} and two == oracle and elapsed < 1.0
    _verdict(
        "criterion 1 (single cell + oracle equality)",
        ok,
        f"{len(two)} words at two cells, {elapsed:.2f}s",
    )
    assert one == {W("c")}
    assert two == oracle
    assert elapsed < 1.0


def _diagonal_pairs(one: frozenset[Word]) -> frozenset[Word]:
    """Every diagonal placement of two one-cell words."""
    letters = [w.cells[0][2] for w in one]
    return frozenset(
        Word(((0, col, a), (1, 1 - col, b)))
        for a in letters
        for b in letters
        for col in (0, 1)
    )


def test_criterion_1_no_additional_two_cell_words(hat_tiles):
    # Diagonal neighbours share no border, so two accepted single cells
    # placed diagonally are accepted too; any other two-cell word would be
    # a further base case.
    one = enumerate_language(hat_tiles, Bounds(1, 1, 1))
    two = enumerate_language(hat_tiles, Bounds(2, 2, 2))
    expected = one | _diagonal_pairs(one)
    extra = sorted(two - expected, key=lambda w: render_ascii(w))
    adjacent = [w for w in two if len(hv_components(w)) < len(w)]
    _verdict(
        "criterion 1 (no additional words at two cells)",
        two == expected and not adjacent,
        f"{len(two)} words, {len(extra)} beyond single cells and diagonal pairs",
    )
    for w in extra:
        print(render_ascii(w))
        print()
    assert two == expected
    assert not adjacent


# ---------------------------------------------------------------------------
# Criterion 2: hat-form cross-check at 6x6x12


@pytest.fixture(scope="module")
def hat_diff(hat_tiles):
    bounds = Bounds(6, 6, 12)
    t0 = time.monotonic()
    sol = solve(builtin_f02ac(general=True), bounds)
    assert sol.saturated
    diff = diff_against_language(
        hat_tiles, bounds, sol.values["X11"], max_witnesses=10
    )
    return diff, sol.values["X11"], time.monotonic() - t0


def test_criterion_2_soundness(hat_tiles, hat_diff):
    diff, _, _ = hat_diff
    _verdict(
        "criterion 2 (soundness: solver words all tile-accepted)",
        diff.only_left_count == 0,
        f"{diff.only_left_count} counterexamples of {diff.left_total} solver words",
    )
    if diff.only_left:
        print("first counterexample:")
        print(render_ascii(diff.only_left[0]))
    assert diff.only_left_count == 0


def test_criterion_2_completeness_report_is_stable(hat_tiles, hat_diff):
    diff, solver_words, elapsed = hat_diff
    report = format_language_diff(diff, "solver", "tiles")
    golden = GOLDEN.read_text()
    rerun = diff_against_language(
        hat_tiles, Bounds(6, 6, 12), solver_words, max_witnesses=10
    )
    report_rerun = format_language_diff(rerun, "solver", "tiles")
    ok = report == golden and report_rerun == golden and elapsed < 300
    _verdict(
        "criterion 2 (completeness report stable, golden match)",
        ok,
        f"{diff.right_total} tile words, {elapsed:.1f}s",
    )
    assert report == golden
    assert report_rerun == golden
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 3: squares against a direct generator


def _odd_squares(max_cells: int) -> frozenset[Word]:
    out = set()
    side = 1
    while side * side <= max_cells:
        mid = side // 2
        cells = tuple(
            (r, c, "x" if (r, c) == (mid, mid) else "a")
            for r in range(side)
            for c in range(side)
        )
        out.add(Word(cells))
        side += 2
    return frozenset(out)


def test_criterion_3_squares():
    t0 = time.monotonic()
    at9 = solve(builtin_squares(), Bounds(9, 9, 9)).values["X"]
    at25 = solve(builtin_squares(), Bounds(25, 25, 25)).values["X"]
    elapsed = time.monotonic() - t0
    ok = at9 == _odd_squares(9) and at25 == _odd_squares(25) and elapsed < 600
    _verdict(
        "criterion 3 (squares vs direct generator)",
        ok,
        f"{len(at9)} words at 9 cells, {len(at25)} at 25, {elapsed:.1f}s",
    )
    assert at9 == _odd_squares(9)
    assert len(at9) == 2
    assert at25 == _odd_squares(25)
    assert len(at25) == 3
    assert elapsed < 600


# ---------------------------------------------------------------------------
# Criterion 4: NFA projection on random vertical-only systems


def _random_vertical_system(rng: random.Random) -> TileSystem:
    # West is always "0" and east always "1", so tiles can never sit side
    # by side and the projection precondition holds by construction.
    tiles = tuple(
        Tile(
            rng.choice("ab"),
            "0",
            str(rng.randint(0, 1)),
            "1",
            str(rng.randint(0, 1)),
        )
        for _ in range(rng.randint(1, 4))
    )
    def labels() -> frozenset[str]:
        return frozenset(s for s in ("0", "1") if rng.random() < 0.6)
    return TileSystem(
        tiles=tiles,
        external_west=frozenset({"0"}) if rng.random() < 0.8 else frozenset(),
        external_north=labels(),
        external_east=frozenset({"1"}) if rng.random() < 0.8 else frozenset(),
        external_south=labels(),
    )


def test_criterion_4_nfa_projection_matches_column_language():
    rng = random.Random(1009)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(100):
        f = _random_vertical_system(rng)
        cols = column_strings(enumerate_language(f, Bounds(6, 1, 6)))
        auto = project_to_nfa(f).words_up_to(6)
        if cols != auto:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60
    _verdict(
        "criterion 4 (NFA projection, 100 random systems)",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# Criterion 5: protocol scenario and mutation locality


def test_criterion_5_protocol_and_mutations():
    t0 = time.monotonic()
    clean = validate_scenario(SCENARIO, LIB)
    localized = 0
    for pos, side, expected in TestLocality.CASES:
        report = validate_scenario(_mutate(SCENARIO, pos, side, Sym("zz")), LIB)
        if not report.valid and report.flagged == expected:
            localized += 1
    elapsed = time.monotonic() - t0
    ok = clean.valid and localized == 10 and elapsed < 1.0
    _verdict(
        "criterion 5 (protocol valid, 10 localized mutations)",
        ok,
        f"{len(clean.cell_checks)} cells, {localized}/10 localized, {elapsed:.2f}s",
    )
    assert clean.valid
    assert not clean.violations
    assert localized == 10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 6: randomized property suites


def test_criterion_6_property_suites():
    results = test_properties.run_all()
    all_ok = True
    for name, stats in results.items():
        failures = sum(v for k, v in stats.items() if k != "checked")
        ok = stats["checked"] >= test_properties.CASES and failures == 0
        all_ok = all_ok and ok
        _verdict(
            f"criterion 6 ({name} properties)",
            ok,
            f"{stats['checked']} cases, {failures} failures",
        )
        assert stats["checked"] >= test_properties.CASES, name
        assert failures == 0, (name, stats)
    assert all_ok


# ---------------------------------------------------------------------------
# Criterion 7: determinism of records output across job counts


CRITERION_COMMANDS = [
    ("enum", "--sats", "F02ac.c", "--max-cells", "2"),
    (
        "diff", "--sats", "F02ac.c", "--system", "f02ac-general", "--var", "X11",
        "--max-rows", "6", "--max-cols", "6", "--max-cells", "12",
    ),
    ("solve", "--system", "squares", "--max-cells", "25", "--var", "X"),
    ("project-nfa", "--sats", "F8c.c"),
    ("validate", "--modules", "protocol"),
]


def _records(argv: tuple[str, ...], jobs: int) -> tuple[int, str]:
    out = StringIO()
    code = run([*argv, "--format", "records", "--jobs", str(jobs)], out)
    return code, out.getvalue()


def test_criterion_7_determinism_across_jobs():
    stable = 0
    for argv in CRITERION_COMMANDS:
        first = _records(argv, 1)
        again = _records(argv, 1)
        parallel = _records(argv, 4)
        if first == again == parallel:
            stable += 1
        assert first == again, argv
        assert first == parallel, argv
    _verdict(
        "criterion 7 (records byte-identical at 1 and 4 jobs)",
        stable == len(CRITERION_COMMANDS),
        f"{stable}/{len(CRITERION_COMMANDS)} commands stable",
    )
    assert stable == len(CRITERION_COMMANDS)
