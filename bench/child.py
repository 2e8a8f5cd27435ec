"""One benchmark child process: set up, then call the CLI in a closed loop.

    python3 child.py ROOT WORKLOAD SEED WORKDIR MODE SECONDS RESULT

Set-up imports distmeas.cli from ROOT/src and passes the workload's document
through io.load_system and system.validate, then prints "ready" and the time
on time.monotonic(). MODE "setup" stops there. MODE "loop" then runs
operations (one cli.main call each) until another would pass SECONDS, with
one client and no threads. MODE "trace" runs operations for half of
SECONDS, then one more under the tracer. Each
operation's standard output and output file are hashed after its timer
stops; the run's record goes to RESULT as JSON for the parent to check.

Right after each operation the child also times reference_work(), a fixed
computation that does not touch distmeas. A shared machine's speed can drift
by half over minutes and swing between levels within seconds; the reference,
timed in the same process right after the operation, slows down with it, so
the ratio of the two holds steady where wall seconds do not.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


def _digest(stdout: str, path: str | None) -> tuple[str, int]:
    data = stdout.encode()
    h = hashlib.sha256(data)
    size = len(data)
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


def reference_work() -> None:
    """A fixed exact-rational computation of about 0.1 s, of the kind distmeas
    spends its time on: 40 rounds of a 14 x 14 Fraction matrix times a
    vector, renormalised after each round."""
    n = 14
    m = [[Fraction(1 + (i * 7 + j * 3) % 11, 10 + (i + 2 * j) % 9) for j in range(n)]
         for i in range(n)]
    v = [Fraction(1, n)] * n
    for _ in range(40):
        v = [sum((m[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)]
        total = sum(v)
        v = [x / total for x in v]


def run_op(cli, argv, out_path) -> dict:
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises counts as failed
        code, error = None, f"{type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - start
    digest, size = _digest(out.getvalue(), out_path)
    return {"op_s": op_s, "code": code, "error": error or err.getvalue()[-2000:],
            "digest": digest, "output_bytes": size, "stdout": out.getvalue()}


def main(argv) -> int:
    root, name, seed, workdir, mode, seconds, result = argv
    seconds = float(seconds)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from workloads import WORKLOADS
    import distmeas.cli as cli
    from distmeas import io as docio
    from distmeas.system import validate

    work = WORKLOADS[name](int(seed), workdir)
    if work.doc_path is not None:
        violations = validate(docio.load_system(work.doc_path))
        if violations:
            print(f"invalid generated document: {violations}", file=sys.stderr)
            return 1
    print("ready", repr(time.monotonic()), flush=True)
    if mode == "setup":
        return 0

    op_argv = work.argv()
    budget = seconds / 2 if mode == "trace" else seconds
    ops = []
    start = time.perf_counter()
    while True:
        gc.collect()
        op = run_op(cli, op_argv, work.out_path)
        gc.collect()
        start_ref = time.perf_counter()
        reference_work()
        op["ref_s"] = time.perf_counter() - start_ref
        ops.append(op)
        typical = statistics.median(op["op_s"] + op["ref_s"] for op in ops)
        if time.perf_counter() - start + typical > budget:
            break
    record = {"ops": ops}
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        gc.collect()
        traced = run_op(cli, op_argv, work.out_path)
        record["traced_op"] = traced
        record["trace"] = tracer.report()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
