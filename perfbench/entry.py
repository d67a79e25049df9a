"""Start the gridlang command line from the checkout's `src/`.

    python3 -I perfbench/entry.py VERB ARGS...
    python3 -I perfbench/entry.py --trace-to FILE VERB ARGS...

The second form first wraps gridlang's public functions (see
`layers.py`), and after the command has run writes the per-layer counts
and times as JSON to FILE. The exit code is the command's in both forms.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list) -> int:
    if argv[:1] != ["--trace-to"]:
        from gridlang.cli import run

        return run(argv)
    sys.path.insert(0, HERE)
    import layers

    path, argv = argv[1], argv[2:]
    tracer = layers.install()
    import gridlang.cli

    try:
        return gridlang.cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
