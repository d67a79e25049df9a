"""gridlang benchmark: CLI verbs end to end, and a traced run per layer.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; it works on the checkout that contains it. Each
operation is one `gridlang` command in a fresh interpreter, run one at a
time (a closed loop with one client). Whole rounds of the workload's
operations repeat until `--seconds` have passed. Every output is checked;
an operation fails on an unexpected exit code, a traceback or a failed
check. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
End-to-end times are scaled to the speed of a fixed reference job
(`reference.py`) started between the operations, so that the machine's
drift in speed cancels. See README.md for the metrics, workloads and
reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import Result  # noqa: E402

# Starts of the reference job, and timed `--help` starts, per untraced
# round, spread evenly before its operations so that they sample the
# machine as the operations do.
SAMPLES = 3
# The reference job's wall and cpu time at the speed the reported times
# are scaled to (see `gauge`): about its time on the reference machine.
REFERENCE_S = 0.17
REFERENCE_OUT = b'{"by_height":{"2":216,"3":1461,"4":1468,"5":401},"shapes":3546}\n'
OP_TIMEOUT_S = 150  # an operation still running then is killed and fails
MB = 1024.0  # ru_maxrss is in KiB on Linux

# Per-layer metrics summed from the traced children's trace files; the
# word counter is the `calls` of the wrapped `Word.__post_init__`.
TRACED = (
    "grid.select.calls", "grid.select.s", "grid.word.built", "grid.word.s",
    "grid.word_sort_key.calls", "grid.word_sort_key.s",
    "compose.compose_langs.calls", "compose.compose_langs.pairs",
    "compose.compose_langs.words", "compose.compose_langs.self_s",
    "compose.star.calls", "compose.star.words", "compose.star.self_s",
    "expr.eval_expr.calls", "expr.eval_expr.self_s", "equations.solve.calls",
    "equations.solve.rounds", "equations.solve.words", "equations.solve.s",
    "equations.solve.self_s", "tiling.enumerate_language.calls",
    "tiling.enumerate_language.words", "tiling.enumerate_language.s",
    "tiling.count_language.calls", "tiling.count_language.s",
    "tiling.word_accepted.calls", "tiling.word_accepted.s",
    "tiling.diff_against_language.self_s", "interact.parse_scenario.calls",
    "interact.parse_scenario.bytes", "interact.parse_scenario.s",
    "interact.parse_module_library.s", "interact.validate_scenario.calls",
    "interact.validate_scenario.cells", "interact.validate_scenario.s",
    "interact.complete_scenario.calls", "interact.complete_scenario.cells",
    "interact.complete_scenario.s", "cli.run.calls", "cli.run.s",
    "cli.run.self_s",
)
TRACE_KEY = {"grid.word.built": "grid.word.calls"}


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes") or name == "cli.output_bytes":
        return "B"
    if name == "equations.solve.yield":
        return "words/pair"
    return "count"


class Runner:
    """Runs operations as child processes and records what each cost."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.setup_walls: list = []
        self.gauges: list = []  # (wall s, cpu s) of each reference job
        self.verdicts: dict = {}  # digest of a round's outputs -> problems

    def launch(self, argv, trace_to=None, script="entry.py"):
        """One gridlang command: (Result, wall s, cpu s, peak rss MB)."""
        cmd = [sys.executable, "-I", os.path.join(HERE, script)]
        if trace_to is not None:
            cmd += ["--trace-to", trace_to]
        cmd += list(argv)
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        cpu = usage.ru_utime + usage.ru_stime
        return Result(proc.returncode, stdout, stderr), wall, cpu, usage.ru_maxrss / MB

    def tally(self, label: str, res: Result, expect: int, problem) -> None:
        self.attempted += 1
        if res.code != expect:
            problem = f"exit code {res.code}, expected {expect}: {res.err.strip()[-300:]}"
        elif "Traceback" in res.err:
            problem = f"traceback: {res.err.strip()[-300:]}"
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")

    def setup(self, timed: bool) -> None:
        """One `--help` start: interpreter, `import gridlang.cli`, parser."""
        res, wall, _, _ = self.launch(["--help"])
        ok = res.out.startswith(b"usage: gridlang")
        self.tally("setup --help", res, 0, None if ok else "no usage text")
        if timed:
            self.setup_walls.append(wall)

    def gauge(self) -> None:
        """One start of the reference job (`reference.py`), which does a
        fixed amount of Python work apart from gridlang."""
        res, wall, cpu, _ = self.launch([], script="reference.py")
        if (res.code, res.out) != (0, REFERENCE_OUT):
            raise RuntimeError(f"reference job failed: {res.code} {res.out!r} {res.err[-300:]}")
        self.gauges.append((wall, cpu))

    def round(self, wl: workloads.Workload, traced: bool) -> dict:
        """One pass over the workload's operations: per operation label,
        its wall s, cpu s and peak rss MB, plus the summed layer figures
        of a traced round."""
        results, ops, layers = {}, {}, {}
        out_bytes = 0
        for k, op in enumerate(wl.ops):
            if not traced and k * SAMPLES % len(wl.ops) < SAMPLES:
                self.setup(timed=True)
                self.gauge()
            trace_to = os.path.join(self.workdir, "trace.json") if traced else None
            res, w, c, r = self.launch(op.argv, trace_to)
            results[op.label] = res
            ops[op.label] = (w, c, r)
            out_bytes += len(res.out)
            if traced:
                with open(trace_to) as fh:
                    for key, value in json.load(fh).items():
                        layers[key] = layers.get(key, 0.0) + value
        # A round whose outputs repeat an earlier round's byte for byte
        # gets that round's verdict without checking them again.
        digest = hashlib.sha256()
        for op in wl.ops:
            res = results[op.label]
            digest.update(b"%d %d %d\n" % (res.code, len(res.out), len(res.err)))
            digest.update(res.out)
            digest.update(res.err.encode())
        key = digest.digest()
        if key not in self.verdicts:
            self.verdicts[key] = wl.check(results)
        problems = self.verdicts[key]
        for op in wl.ops:
            self.tally(op.label, results[op.label], op.expect, problems.get(op.label))
        layers["cli.output_bytes"] = out_bytes
        return {"ops": ops, "layers": layers}


def per_round(rounds: list, k: int) -> float:
    """Figure `k` (0 wall s, 1 cpu s) of the run's average round: the sum
    over operations of their mean across the rounds."""
    return statistics.fmean(sum(r["ops"][label][k] for label in r["ops"]) for r in rounds)


def layer_metrics(traced: list, untraced: list) -> dict:
    out = {}
    for name in TRACED:
        key = TRACE_KEY.get(name, name)
        out[name] = statistics.median(r["layers"].get(key, 0.0) for r in traced)
    pairs = out["compose.compose_langs.pairs"]
    out["equations.solve.yield"] = out["equations.solve.words"] / pairs if pairs else 0.0
    out["cli.output_bytes"] = statistics.median(r["layers"]["cli.output_bytes"] for r in traced)
    out["trace.overhead_s"] = per_round(traced, 0) - per_round(untraced, 0)
    return out


def bench(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    workdir = os.path.join(HERE, "_run", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](random.Random(seed), workdir, scale)
        runner = Runner(workdir)
        runner.setup(timed=False)  # warm-up: compiles the bytecode
        plain, traced = [], []
        t0 = perf_counter()
        # Whole rounds; another starts only if it should end within the run.
        # A traced run alternates untraced and traced rounds, one of each
        # at least.
        while True:
            tracing = trace and len(traced) < len(plain)
            (traced if tracing else plain).append(runner.round(wl, tracing))
            done = len(plain) + len(traced)
            elapsed = perf_counter() - t0
            if (not trace or traced) and elapsed * (done + 1) / done > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = {}
    if trace:
        values = layer_metrics(traced, plain)
    else:
        walls, cpus = zip(*runner.gauges)
        raw = {
            "setup_s": statistics.fmean(runner.setup_walls),
            "wall_s": per_round(plain, 0),
            "cpu_s": per_round(plain, 1),
            "reference_wall_s": statistics.fmean(walls),
            "reference_cpu_s": statistics.fmean(cpus),
        }
        # Times are scaled to the reference speed: the machine's speed
        # drifts by a third over minutes, and the reference job, started
        # between the operations, drifts with it (README.md).
        pace = REFERENCE_S / raw["reference_wall_s"]
        values = {
            "setup_s": raw["setup_s"] * pace,
            "wall_s": raw["wall_s"] * pace,
            "cpu_s": raw["cpu_s"] * REFERENCE_S / raw["reference_cpu_s"],
            "peak_rss_mb": max(statistics.median(r["ops"][label][2] for r in plain)
                               for label in plain[0]["ops"]),
        }
    for problem in runner.problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "rounds": len(plain) + len(traced),
        "operations": [" ".join(op.argv) for op in wl.ops],
        "unscaled": raw,
        "problems": runner.problems,
    }
    with open(os.path.join(HERE, "_run", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gridlang", "cli.py")):
        print(f"error: no gridlang sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = bench(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
