"""Randomized property suites, each over at least a thousand cases in 5x5.

The suites double as the bulk-verification layer behind the acceptance
gate: every invariant here must hold with zero failures. Expensive
generators (star closures, equation solves) skip cases whose search
exceeds a small budget; skipped cases do not count toward the quota, so
each suite still checks its full thousand. Results are memoized per
process because the acceptance test re-reads them.
"""

import random

from conftest import random_restriction, random_word

from gridlang.compose import (
    compose_langs,
    compose_words,
    format_restriction,
    star,
)
from gridlang.equations import fixed_point_holds, solve
from gridlang.expr import parse_system
from gridlang.grid import (
    Bounds,
    Budget,
    BudgetExhausted,
    Element,
    Word,
    contour,
    normalize,
    translate,
)

CASES = 1000

_cache: dict[str, dict[str, int]] = {}


def _memo(name, build):
    if name not in _cache:
        _cache[name] = build()
    return _cache[name]


# ---------------------------------------------------------------------------
# Word geometry


def word_suite() -> dict[str, int]:
    rng = random.Random(401)
    stats = {
        "checked": 0,
        "bad_normalize": 0,
        "bad_translation": 0,
        "bad_balance": 0,
    }
    for _ in range(CASES):
        w = random_word(rng, size=5, letters="abc")
        stats["checked"] += 1

        norm = normalize(w)
        rows = [r for r, _ in norm.positions]
        cols = [c for _, c in norm.positions]
        if normalize(norm) != norm or min(rows) != 0 or min(cols) != 0:
            stats["bad_normalize"] += 1

        dr, dc = rng.randint(-9, 9), rng.randint(-9, 9)
        moved = {Element(el.kind, el.row + dr, el.col + dc) for el in contour(w)}
        if moved != set(contour(translate(w, dr, dc))):
            stats["bad_translation"] += 1

        kinds = [el.kind for el in contour(w)]
        if kinds.count("w") != kinds.count("e") or kinds.count("n") != kinds.count("s"):
            stats["bad_balance"] += 1
    return stats


def test_normalization_idempotence():
    stats = _memo("word", word_suite)
    assert stats["checked"] >= CASES
    assert stats["bad_normalize"] == 0


def test_contour_translation_invariance():
    stats = _memo("word", word_suite)
    assert stats["bad_translation"] == 0


def test_side_count_balance():
    stats = _memo("word", word_suite)
    assert stats["bad_balance"] == 0


# ---------------------------------------------------------------------------
# Composition


def compose_suite() -> dict[str, int]:
    rng = random.Random(409)
    bounds = Bounds(5, 5, 8)
    stats = {"checked": 0, "bad_cells": 0, "bad_monotone": 0}
    for _ in range(CASES):
        v = random_word(rng, size=3, letters="ab")
        w = random_word(rng, size=3, letters="ab")
        r = random_restriction(rng)
        stats["checked"] += 1

        for res in compose_words(v, w, r):
            if len(res.cells) != len(v.cells) + len(w.cells):
                stats["bad_cells"] += 1
                break

        l1 = frozenset({v})
        l2 = frozenset({w})
        l1_big = l1 | {random_word(rng, size=2, letters="ab")}
        l2_big = l2 | {random_word(rng, size=2, letters="ab")}
        small = compose_langs(l1, l2, r, bounds, Budget(bounds.node_budget))
        big = compose_langs(l1_big, l2_big, r, bounds, Budget(bounds.node_budget))
        if not small <= big:
            stats["bad_monotone"] += 1
    return stats


def test_composition_conserves_cell_counts():
    stats = _memo("compose", compose_suite)
    assert stats["checked"] >= CASES
    assert stats["bad_cells"] == 0


def test_composition_is_monotone():
    stats = _memo("compose", compose_suite)
    assert stats["bad_monotone"] == 0


# ---------------------------------------------------------------------------
# Star closure


def star_suite() -> dict[str, int]:
    rng = random.Random(11)
    bounds = Bounds(5, 5, 4)
    stats = {"checked": 0, "bad_idempotent": 0, "bad_monotone": 0}
    trials = 0
    while stats["checked"] < CASES and trials < 30 * CASES:
        trials += 1
        base = frozenset(
            random_word(rng, size=2, letters="ab") for _ in range(rng.randint(1, 2))
        )
        extra = random_word(rng, size=2, letters="ab")
        r = random_restriction(rng)
        try:
            once = star(base, r, bounds, Budget(400))
            if len(once) > 8:
                continue
            twice = star(once, r, bounds, Budget(8000))
            wider = star(base | {extra}, r, bounds, Budget(8000))
        except BudgetExhausted:
            continue
        stats["checked"] += 1
        if twice != once:
            stats["bad_idempotent"] += 1
        if not once <= wider:
            stats["bad_monotone"] += 1
    return stats


def test_star_is_idempotent():
    stats = _memo("star", star_suite)
    assert stats["checked"] >= CASES
    assert stats["bad_idempotent"] == 0


def test_star_is_monotone():
    stats = _memo("star", star_suite)
    assert stats["bad_monotone"] == 0


# ---------------------------------------------------------------------------
# Equation systems


def _random_system(rng: random.Random):
    r1 = format_restriction(random_restriction(rng))
    r2 = format_restriction(random_restriction(rng))
    shape = rng.randrange(3)
    if shape == 0:
        text = f"X = a + X ({r1}) b\n"
    elif shape == 1:
        text = f"X = a + Y ({r1}) b\nY = c + X ({r2}) a\n"
    else:
        text = f"X = (a *({r1})) + X ({r2}) b\n"
    return parse_system(text)


def solve_suite() -> dict[str, int]:
    rng = random.Random(23)
    small = Bounds(5, 5, 3, node_budget=1500)
    big = Bounds(5, 5, 4, node_budget=6000)
    stats = {"checked": 0, "bad_monotone": 0, "bad_fixed_point": 0}
    trials = 0
    while stats["checked"] < CASES and trials < 30 * CASES:
        trials += 1
        sys_ = _random_system(rng)
        lo = solve(sys_, small)
        if not lo.saturated:
            continue
        hi = solve(sys_, big)
        if not hi.saturated:
            continue
        stats["checked"] += 1
        if not all(lo.values[n] <= hi.values[n] for n in sys_.names):
            stats["bad_monotone"] += 1
        if not (fixed_point_holds(sys_, lo, small) and fixed_point_holds(sys_, hi, big)):
            stats["bad_fixed_point"] += 1
    return stats


def test_solve_is_monotone_in_bounds():
    stats = _memo("solve", solve_suite)
    assert stats["checked"] >= CASES
    assert stats["bad_monotone"] == 0


def test_every_solve_is_a_fixed_point():
    stats = _memo("solve", solve_suite)
    assert stats["bad_fixed_point"] == 0


ALL_SUITES = {
    "word": word_suite,
    "compose": compose_suite,
    "star": star_suite,
    "solve": solve_suite,
}


def run_all() -> dict[str, dict[str, int]]:
    """Used by the acceptance gate; memoization makes reruns free."""
    return {key: _memo(key, fn) for key, fn in ALL_SUITES.items()}
