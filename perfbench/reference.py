"""A fixed pure-Python job that gauges how fast the machine runs Python.

    python3 -I perfbench/reference.py

It starts an interpreter, imports the standard modules gridlang uses,
builds an argument parser and does a fixed amount of work on tuples,
sets, dicts and sorting, the kinds of work gridlang's commands do. It
reads no input, imports nothing from gridlang and prints one digest,
so its cost depends only on the interpreter and the machine. `run.py`
starts it between operations and scales the measured times by it (see
README.md, "End-to-end metrics").
"""

import argparse
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import json
import re
import typing  # noqa: F401
from importlib import resources  # noqa: F401

SIDE = 5  # cells per side of the square the shapes grow in


def shapes(cells: int) -> set:
    """Every connected set of `cells` cells in a SIDE x SIDE square,
    grown cell by cell as sorted tuples of (row, col)."""
    level = {((r, c),) for r in range(SIDE) for c in range(SIDE)}
    for _ in range(cells - 1):
        grown = set()
        for shape in level:
            have = set(shape)
            for r, c in shape:
                for cell in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                    if cell not in have and 0 <= cell[0] < SIDE and 0 <= cell[1] < SIDE:
                        grown.add(tuple(sorted(have | {cell})))
        level = grown
    return level


def main() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("--cells", type=int, default=7)
    args = parser.parse_args([])
    found = sorted(shapes(args.cells), key=lambda s: (len(s), s))
    by_height: dict = {}
    for shape in found:
        height = max(r for r, _ in shape) - min(r for r, _ in shape) + 1
        by_height[height] = by_height.get(height, 0) + 1
    text = json.dumps({"shapes": len(found), "by_height": by_height}, sort_keys=True)
    print(re.sub(r"\s+", "", text))


if __name__ == "__main__":
    main()
