#!/usr/bin/env python3
"""Run every workload once untraced and once traced, and print every metric.

    python3 bench/baseline.py [--write]

Each run is `bench/run.py --workload W --seed <default> --seconds S
--trace 0|1`, with S the run_seconds of BENCHMARK.json, as the benchmark's
command line gives it. Prints one line per metric with its unit,
and exits 1 if any run fails or any correctness check fails. With --write,
also records the figures, each workload's argv and item unit, and the
machine's facts in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name} --trace {trace}: exited with {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record bench/baseline.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    workloads = {}
    for name, cls in WORKLOADS.items():
        work = cls(cls.default_seed, os.path.join(".bench_work", f"{name}-{cls.default_seed}"))
        entry = {"seed": work.seed, "argv": work.argv(), "item": work.item, "why": work.why}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, work.seed, seconds, trace)
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} --trace {trace}: INCORRECT {result}", file=sys.stderr)
                continue
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry[f"{key}_attempted"] = result["attempted"]
            for metric, v in result["metrics"].items():
                print(f"{name:14} {metric:48} {v['value']:>16.6g} {v['unit']}")
        workloads[name] = entry

    if args.write and ok:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                            "platform": platform.platform()},
                "seconds": seconds,
                "workloads": workloads,
            }, fh, indent=2)
            fh.write("\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
