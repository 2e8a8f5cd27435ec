#!/usr/bin/env python3
"""Benchmark of the distmeas command-line interface.

    python3 bench/run.py --workload quale-11 --seed 99 --seconds 24 --trace 0

Run from the root of a source checkout. The workload's inputs are generated
from --seed into .bench_work/, and every measurement runs in a fresh child
process (bench/child.py) that imports the CLI from src/ and calls
distmeas.cli.main in a closed loop with one client and no threads.

--trace 0 prints the end-to-end metrics: op_rel (median over the run's CLI
operations of the operation's wall time divided by that of the fixed
reference computation timed right after it, child.reference_work),
items_per_ref (domain items one operation completes, divided by op_rel; the
items per operation vary with the seed on oracle-3x3x3 only), peak_rss_mb
(the looping child's ru_maxrss) and setup_s (median over several children,
spawned before and after the loop, of the time from spawning one until it
has imported the CLI and validated the workload's document). --trace 1 runs
untraced operations for half of --seconds, then one operation with every
distmeas function wrapped in a span (bench/tracer.py), and prints the
per-layer metrics.

Every operation's output is checked after its timer stops, against
references computed in bench/workloads.py. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_SAMPLES = 24  # half before the loop, half after it
CHILD_TIMEOUT_S = 150

# span name -> the per-layer metrics read from it; self_s is the span's self
# time in seconds within the one traced operation
SPAN_METRICS = {
    "io.load_system": ("self_s",),
    "system.validate": ("self_s",),
    "io.format_rational": ("calls", "self_s"),
    "io.json_encode": ("self_s",),
    "lattice.build_quale": ("self_s",),
    "lattice.enumerate_subsystems": ("items",),
    "lattice.glue_mechanism": ("calls", "self_s"),
    "lattice.occasion_submechanism": ("calls", "self_s"),
    "measure.extend": ("calls", "self_s"),
    "measure.measure": ("calls", "self_s"),
    "measure.measurement_report": ("calls",),
    "stoch.compose": ("calls", "self_s"),
    "stoch.dual": ("calls", "self_s"),
    "stoch.projection": ("calls", "self_s"),
    "stoch.marginal": ("self_s",),
    "stoch.matrix_validate": ("calls", "self_s"),
    "stoch.kl_divergence": ("calls", "self_s"),
    "entangle.entanglement": ("calls", "self_s"),
    "entangle.is_rectangular": ("self_s",),
    "oracle.crosscheck": ("self_s",),
}
COUNTING_ORACLES = ("oracle.ei_classical", "oracle.ei_partial", "oracle.ei_relative",
                    "oracle.gamma_counts")
UNITS = {"calls": "count", "items": "count", "self_s": "s"}


def child_command(work, mode: str, seconds: float, result: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), ROOT, work.name, str(work.seed),
            work.workdir, mode, str(seconds), result]


def spawn(work, mode: str, seconds: float, result: str) -> float:
    """Run one child; return seconds from spawning it until it was ready.

    The child reports its ready time on time.monotonic(), a clock shared by
    every process on the machine.
    """
    start = time.monotonic()
    proc = subprocess.Popen(child_command(work, mode, seconds, result),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"{mode} child of {work.name} exited with {proc.returncode}")
    return float(words[1]) - start


def check_ops(work, record: dict) -> tuple[list[dict], int]:
    """Mark each operation ok or not; return (operations, items per operation).

    The reference operation (the last one run) is checked in full; every
    other operation must have produced byte-identical output.
    """
    reference = record.get("traced_op") or record["ops"][-1]
    ops = record["ops"] + ([record["traced_op"]] if "traced_op" in record else [])
    items = 0
    if reference["code"] == 0:
        out_text = None
        if work.out_path is not None:
            with open(work.out_path, encoding="utf-8") as fh:
                out_text = fh.read()
        try:
            items = work.check(reference["stdout"], out_text)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # output too malformed for the checker to read
            traceback.print_exc()
    for op in ops:
        op["ok"] = bool(items) and op["code"] == 0 and op["digest"] == reference["digest"]
        if op["code"] != 0:
            print(f"operation failed with {op['code']}: {op['error']}", file=sys.stderr)
    return ops, items


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_op(ops: list[dict], key) -> float:
    """Median of key(op) over the correct operations, or over all if none is."""
    return statistics.median(key(op) for op in ([op for op in ops if op["ok"]] or ops))


def end_to_end(work, seconds: float) -> tuple[dict, list[dict]]:
    result = os.path.join(work.workdir, "result.json")
    spawn(work, "setup", 0, result)  # warm-up: bytecode caches and page cache
    setups = [spawn(work, "setup", 0, result) for _ in range(SETUP_SAMPLES // 2)]
    setups.append(spawn(work, "loop", seconds, result))
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    setups += [spawn(work, "setup", 0, result) for _ in range(SETUP_SAMPLES // 2)]
    ops, items = check_ops(work, record)
    op_rel = median_op(ops, lambda op: op["op_s"] / op["ref_s"])
    print(f"median operation {median_op(ops, lambda op: op['op_s']):.4g} s, median reference "
          f"{median_op(ops, lambda op: op['ref_s']):.4g} s", file=sys.stderr)
    return {
        "op_rel": metric(op_rel, "ratio"),
        "items_per_ref": metric(items / op_rel, "1/ref"),
        "peak_rss_mb": metric(record["maxrss_kb"] / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }, ops


def per_layer(work, seconds: float) -> tuple[dict, list[dict]]:
    result = os.path.join(work.workdir, "result.json")
    spawn(work, "trace", seconds, result)
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    ops, _ = check_ops(work, record)
    traced = record["traced_op"]["op_s"]
    spans = record["trace"]["spans"]
    empty = {"calls": 0, "self_s": 0.0, "items": 0}

    metrics = {}
    for name, fields in SPAN_METRICS.items():
        span = spans.get(name, empty)
        for field in fields:
            metrics[f"{name}.{field}"] = metric(span[field], UNITS[field])
    metrics["io.output_bytes"] = metric(record["traced_op"]["output_bytes"], "B")
    metrics["stoch.fractions_built"] = metric(record["trace"]["fractions_built"], "count")
    subsystems = spans.get("lattice.enumerate_subsystems", empty)["items"]
    rebuilds = spans.get("lattice.occasion_submechanism", empty)["calls"]
    metrics["lattice.occasion_submechanism.per_subsystem"] = metric(
        rebuilds / subsystems if subsystems else 0.0, "ratio")
    metrics["oracle.counting.self_s"] = metric(
        sum(spans.get(name, empty)["self_s"] for name in COUNTING_ORACLES), "s")
    metrics["trace.op_s"] = metric(traced, "s")
    metrics["trace.overhead_ratio"] = metric(
        traced / median_op(record["ops"], lambda op: op["op_s"]), "ratio")
    return metrics, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "distmeas", "cli.py")):
        print(f"error: no distmeas sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    work = cls(seed, os.path.join(ROOT, ".bench_work", f"{cls.name}-{seed}"))
    work.write_inputs()

    measure = per_layer if args.trace else end_to_end
    metrics, ops = measure(work, args.seconds)
    failed = sum(not op["ok"] for op in ops)
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
