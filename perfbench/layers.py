"""Per-layer spans around gridlang's public functions.

`install()` replaces each traced function at the module attribute its
callers look up (for example `gridlang.expr.compose_langs`, which
`eval_expr` calls, and `gridlang.compose.compose_langs`, which `star`
calls) with a wrapper that records one span per call. Spans nest on one
stack: a span's `.self_s` is its duration minus the spans it caused, and
`.s` is busy time, which counts recursive calls of one function once.
Worker processes of a `--jobs` pool inherit the wrappers but their spans
are not collected; the parent's span covers the wait for them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = defaultdict(float)
        self.stack: list = []  # child time of each open span
        self.open: dict = defaultdict(int)  # open spans per layer name

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording `name.calls`, `.s` and `.self_s`, then
        `count(stats, args, kwargs, result)` for layer-specific counters."""
        stats, stack, open_ = self.stats, self.stack, self.open

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += dur
                stats[name + ".calls"] += 1
                if not open_[name]:
                    stats[name + ".s"] += dur
                stats[name + ".self_s"] += dur - frame[0]
            if count is not None:
                count(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(dict(self.stats), fh)


def _sized(xs):
    return xs if hasattr(xs, "__len__") else list(xs)


def install() -> Tracer:
    import gridlang.cli as cli
    import gridlang.compose as compose
    import gridlang.equations as equations
    import gridlang.expr as expr
    import gridlang.grid as grid
    import gridlang.interact as interact
    import gridlang.tiling as tiling

    t = Tracer()

    def patch(name, modules, attr, count=None):
        wrapped = t.wrap(name, getattr(modules[0], attr), count)
        for m in modules:
            setattr(m, attr, wrapped)

    def add(key, f):
        def count(stats, args, kwargs, result):
            stats[key] += f(args, kwargs, result)

        return count

    # grid: selections past the callers' caches, Word validation, sort keys.
    patch("grid.select", [compose], "select")
    patch("grid.word", [grid.Word], "__post_init__")
    patch("grid.word_sort_key", [cli, equations, tiling], "word_sort_key")

    # compose: count pairs before the call, since operands may be iterators.
    raw_compose = compose.compose_langs

    def compose_langs(l1, l2, r, bounds, budget=None):
        l1, l2 = _sized(l1), _sized(l2)
        t.stats["compose.compose_langs.pairs"] += len(l1) * len(l2)
        return raw_compose(l1, l2, r, bounds, budget)

    traced_compose = t.wrap(
        "compose.compose_langs",
        compose_langs,
        add("compose.compose_langs.words", lambda a, k, res: len(res)),
    )
    compose.compose_langs = expr.compose_langs = traced_compose
    patch("compose.star", [compose, expr], "star",
          add("compose.star.words", lambda a, k, res: len(res)))

    patch("expr.eval_expr", [expr, equations], "eval_expr")

    def solve_counts(stats, args, kwargs, sol):
        stats["equations.solve.rounds"] += sol.iterations
        stats["equations.solve.words"] += sum(len(v) for v in sol.values.values())

    patch("equations.solve", [cli], "solve", solve_counts)

    patch("tiling.enumerate_language", [cli], "enumerate_language",
          add("tiling.enumerate_language.words", lambda a, k, res: len(res)))
    patch("tiling.count_language", [tiling], "count_language")
    patch("tiling.word_accepted", [tiling], "word_accepted")
    patch("tiling.diff_against_language", [cli], "diff_against_language")

    patch("interact.parse_scenario", [cli, interact], "parse_scenario",
          add("interact.parse_scenario.bytes", lambda a, k, res: len(a[0])))
    patch("interact.parse_module_library", [cli, interact], "parse_module_library")
    patch("interact.validate_scenario", [cli], "validate_scenario",
          add("interact.validate_scenario.cells", lambda a, k, res: len(res.cell_checks)))
    patch("interact.complete_scenario", [cli], "complete_scenario",
          add("interact.complete_scenario.cells", lambda a, k, res: len(a[1])))

    patch("cli.run", [cli], "run")
    return t
