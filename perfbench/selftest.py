"""Quick self-test of the benchmark itself, in well under a minute.

    python3 perfbench/selftest.py

1. Runs every workload once at tiny sizes, untraced and traced, and
   requires every operation to pass.
2. Feeds each workload's checker deliberately wrong outputs (a dropped
   record, two records swapped, a wrong letter, a wrong stream letter, a
   wrong tile total, a misreported validation) and requires each to be
   counted as a failed operation.
3. Checks the protocol generator against the packaged worked scenario
   and the tile counter against the 6x6x12 figure.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import protocol  # noqa: E402
import run  # noqa: E402
import tiles  # noqa: E402
import workloads  # noqa: E402
from workloads import Result  # noqa: E402

failures: list = []


def expect(what: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def outputs(name: str, workdir: str, edit_inputs=None):
    """The tiny workload and the real output of each of its operations."""
    wl = workloads.WORKLOADS[name](random.Random(7), workdir, "tiny")
    if edit_inputs is not None:
        edit_inputs(workdir)
    runner = run.Runner(workdir)
    return wl, {op.label: runner.launch(op.argv)[0] for op in wl.ops}


def edited(res: Result, fn) -> Result:
    return res._replace(out=fn(res.out))


def json_edit(fn):
    def apply(out: bytes) -> bytes:
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc).encode()

    return apply


def lines_edit(fn):
    return lambda out: b"".join(fn(out.splitlines(keepends=True)))


def caught(wl, results: dict, label: str, fn) -> bool:
    """Does the checker fault `label` once its output is edited by fn?"""
    wrong = dict(results)
    wrong[label] = edited(results[label], fn)
    return label in wl.check(wrong)


def generator_tests() -> None:
    with open(os.path.join(run.ROOT, "src", "gridlang", "corpus", "protocol-scenario.imod")) as fh:
        worked = [line for line in fh.read().splitlines() if line and not line.startswith("--")]
    text = protocol.scenario_text(protocol.make_run("abc", corrupted=2))
    expect("protocol: the generator lays out the packaged worked scenario",
           text.splitlines() == worked)
    system = tiles.parse_two_color("F02ac.c")
    expect("tiles: 33,611,898 words of F02ac.c at 6x6x12",
           tiles.count_words(system, 6, 6, 12) == 33_611_898)


def checker_tests(workdir: str) -> None:
    wl, res = outputs("solve", workdir)
    expect("solve: real outputs pass", wl.check(res) == {})

    def wrong_letter(doc):
        doc["values"]["X"][-1]["cells"][0][2] = "x"

    expect("solve: a wrong letter in X is caught", caught(wl, res, "squares-big", json_edit(wrong_letter)))
    dropped = dict(res)
    dropped["squares-big"] = edited(res["squares-big"], json_edit(lambda d: d["values"]["Er"].pop(0)))
    expect("solve: a record dropped from the larger solve is caught",
           "squares-small" in wl.check(dropped))

    wl, res = outputs("crosscheck", workdir)
    expect("crosscheck: real outputs pass", wl.check(res) == {})
    diff = next(label for label in res if label.startswith("diff-general"))

    def wrong_total(doc):
        doc["right_total"] += 1
        doc["only_right_count"] += 1

    expect("crosscheck: a wrong tile total is caught", caught(wl, res, diff, json_edit(wrong_total)))
    dropped = dict(res)
    dropped["solve"] = edited(res["solve"], json_edit(lambda d: d["values"]["X11"].pop()))
    expect("crosscheck: a solver record dropped is caught", any(
        label.startswith("diff-general") for label in wl.check(dropped)))

    wl, res = outputs("enumerate", workdir)
    expect("enumerate: real outputs pass", wl.check(res) == {})
    both = lambda fn: {**res, "records-jobs1": edited(res["records-jobs1"], fn),
                       "records-jobs2": edited(res["records-jobs2"], fn)}
    drop = lines_edit(lambda lines: lines[:3] + lines[4:])
    swap = lines_edit(lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:])
    expect("enumerate: a dropped record is caught", "records-jobs1" in wl.check(both(drop)))
    expect("enumerate: two swapped records are caught", "records-jobs1" in wl.check(both(swap)))
    expect("enumerate: --jobs 2 output differing from --jobs 1 is caught",
           caught(wl, res, "records-jobs2", drop))
    expect("enumerate: a dropped ascii word is caught", caught(
        wl, res, "ascii-F0f", lambda out: out.split(b"\n\n", 1)[1]))

    wl, res = outputs("protocol", workdir)
    expect("protocol: real outputs pass", wl.check(res) == {})
    clean = next(label for label in res if label.startswith("run"))
    mutant = next(label for label in res if label.startswith("mutant"))
    expect("protocol: a mutant reported valid is caught", caught(
        wl, res, mutant, json_edit(lambda d: d.update(valid=True, violations=[]))))

    def far_flag(doc):
        doc["violations"][0]["cells"].append([99, 99])

    expect("protocol: a flag far from the mutated border is caught",
           caught(wl, res, mutant, json_edit(far_flag)))

    def wrong_stream_letter(workdir):
        path = os.path.join(workdir, clean + ".imod")
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if " OS: " in line)
        head, tail = lines[k].split("-> <", 1)
        letter = tail[0]
        lines[k] = head + "-> <" + ("b" if letter != "b" else "c") + tail[1:]
        with open(path, "w") as fh:
            fh.writelines(lines)

    wl, res = outputs("protocol", workdir, wrong_stream_letter)
    expect("protocol: a run whose OS column emits a wrong letter is caught", clean in wl.check(res))


def main() -> int:
    workdir = os.path.join(HERE, "_run", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run.bench(name, 1, 0, trace, "tiny")
                expect(f"{name} (trace {int(trace)}): {result['attempted']} operations, "
                       f"{result['failed']} failed", result["failed"] == 0 and result["correct"])
        generator_tests()
        checker_tests(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed expectations" if failures else "all expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
