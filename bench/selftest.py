#!/usr/bin/env python3
"""Self-test of the benchmark's tracer, on small inputs.

    python3 bench/selftest.py

Runs one small operation of each CLI command the workloads use, first under
cProfile and then under the tracer, in one process. Passes when every traced
span's call count equals cProfile's ncalls for the same function (a
generator counts once per resumption, as cProfile counts it), the Fraction
construction count equals cProfile's count of Fraction.__new__, every self
time lies between 0 and its span's total, and tracing leaves every output
byte-identical. Exits 1 on any difference.
"""

from __future__ import annotations

import contextlib
import cProfile
import inspect
import io
import json
import os
import pstats
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402
from workloads import bipartite_document, hopfield_attractor, hopfield_document  # noqa: E402


def small_operations(workdir: str) -> list[list[str]]:
    os.makedirs(workdir, exist_ok=True)
    bipartite = os.path.join(workdir, "bipartite.json")
    hopfield = os.path.join(workdir, "hopfield.json")
    with open(bipartite, "w", encoding="utf-8") as fh:
        json.dump(bipartite_document(5, 2, 3, {("s0", "t0")}), fh)
    with open(hopfield, "w", encoding="utf-8") as fh:
        json.dump(hopfield_document(5, cells=3, split=1), fh)
    output = ",".join(f"n{k}@1={b}" for k, b in enumerate(hopfield_attractor(5, cells=3, split=1)))
    return [
        ["quale", bipartite, "--out", os.path.join(workdir, "quale.json")],
        ["lattice", bipartite, "--output", "t0=1,t1=0,t2=1"],
        ["gamma", hopfield, "--partition", "n0@0|n1@0,n2@0", "--output", output],
        ["ei", hopfield, "--subsystem", "all", "--output", output],
        ["oracle-check", "--random", "4", "--seed", "3", "--dims", "2x3x2"],
    ]


def run_all(cli, operations, workdir: str) -> list[str]:
    outputs = []
    for argv in operations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"selftest operation {argv[0]} exited with {code}")
        outputs.append(out.getvalue())
    with open(os.path.join(workdir, "quale.json"), encoding="utf-8") as fh:
        outputs.append(fh.read())
    return outputs


def code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def main() -> int:
    import distmeas.cli as cli

    workdir = os.path.join(ROOT, ".bench_work", "selftest")
    operations = small_operations(workdir)
    run_all(cli, operations, workdir)  # warm-up: first-call imports

    profiler = cProfile.Profile()
    profiler.enable()
    plain = run_all(cli, operations, workdir)
    profiler.disable()
    ncalls = {key: row[1] for key, row in pstats.Stats(profiler).stats.items()}
    fraction_new = Fraction.__new__

    tracer = Tracer()
    tracer.install()
    traced = run_all(cli, operations, workdir)
    report = tracer.report()

    problems = []
    if traced != plain:
        problems.append("tracing changed an operation's output")
    compared = 0
    for name, fn in sorted(tracer.functions.items()):
        span = report["spans"][name]
        counted = span["resumes"] if inspect.isgeneratorfunction(fn) else span["calls"]
        want = ncalls.get(code_key(fn), 0)
        compared += want > 0
        if counted != want:
            problems.append(f"{name}: traced {counted} calls, cProfile {want}")
        if not -1e-6 <= span["self_s"] <= span["total_s"] + 1e-6:
            problems.append(f"{name}: self {span['self_s']} s outside [0, {span['total_s']}] s")
    fractions = ncalls.get(code_key(fraction_new), 0)
    if report["fractions_built"] != fractions:
        problems.append(
            f"Fraction.__new__: traced {report['fractions_built']}, cProfile {fractions}")
    for line in problems:
        print(f"FAIL {line}")
    print(f"{compared} called functions and Fraction.__new__ ({fractions} calls) "
          f"compared with cProfile: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
