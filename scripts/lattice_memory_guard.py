#!/usr/bin/env python3
"""Check that `lattice` on 16-edge systems, and `ei` of one record, run in
bounded memory.

Each host below runs one `python -m distmeas.cli` command on a document
written to a temporary directory, in a child process, and the guard reads
the child's peak resident set (ru_maxrss from os.wait4, in KiB on Linux).
It exits 1 unless every child succeeds under its host's limit.

Two hosts run `lattice ... --dot` on a bench/workloads.bipartite_document.
Both have 16 edges, 65,536 subsystems and 524,288 arrows: four binary
sources fully feeding four targets, where S_C has at most 16 states, and
eight feeding two, where it has up to 256, so that the records `lattice`
holds grow with the sum of |S_C| as well as the edges.

The single-record host `unroll`s a ring of 20 binary cells, each reading its
neighbours and itself through rule 110 over one step from uniform initial
states, and runs `ei --subsystem all` at the image of a random.Random(20)
state. Its S_C has 2^20 states, and one record reads one glued row per
target, so the limit bounds what a measurement keeps beyond that row: the
restriction maps from S_C onto each target's inputs among it.

    python scripts/lattice_memory_guard.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import bipartite_document  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

# (sources, targets, --output, peak RSS limit in MB)
HOSTS = [
    (4, 4, "t0=0,t1=1,t2=0,t3=1", 100),
    (8, 2, "t0=0,t1=1", 325),
]
# (cells, peak RSS limit in MB) of the single-record host
RING = (20, 100)


def run_child(label: str, argv: list[str], limit_mb: int) -> bool:
    """Run `python -m distmeas.cli` with argv, and report whether it exits 0
    with a peak RSS under limit_mb."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "distmeas.cli", *argv], env=ENV)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by proc
    seconds = time.perf_counter() - start
    peak_mb = usage.ru_maxrss / 1024
    print(f"{label}: exit {code}, {seconds:.1f} s, "
          f"peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)")
    return code == 0 and peak_mb < limit_mb


def run_host(workdir: str, sources: int, targets: int, output: str, limit_mb: int) -> bool:
    doc = os.path.join(workdir, f"bipartite-{sources}x{targets}.json")
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(bipartite_document(99, sources, targets, {}), fh)
    return run_child(f"lattice on {sources} sources x {targets} targets",
                     ["lattice", doc, "--output", output,
                      "--dot", os.path.join(workdir, "lattice.dot")], limit_mb)


def rule_110(left: int, cell: int, right: int) -> int:
    return 110 >> (4 * left + 2 * cell + right) & 1


def run_ring(workdir: str, cells: int, limit_mb: int) -> bool:
    ids = [f"c{k}" for k in range(cells)]
    table = {f"{a},{b},{c}": str(rule_110(a, b, c))
             for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    auto = os.path.join(workdir, f"ring-{cells}-automaton.json")
    with open(auto, "w", encoding="utf-8") as fh:
        json.dump({
            "format_version": 1, "cells": ids, "alphabet": ["0", "1"],
            "neighborhoods": {c: [ids[k - 1], c, ids[(k + 1) % cells]] for k, c in enumerate(ids)},
            "rules": {c: {"kind": "table", "table": table} for c in ids},
            "window": [0, 1],
            "initial": {c: {"distribution": ["1/2", "1/2"]} for c in ids}}, fh)
    doc = os.path.join(workdir, f"ring-{cells}.json")
    subprocess.run([sys.executable, "-m", "distmeas.cli", "unroll", auto, "--out", doc],
                   env=ENV, check=True)
    rng = random.Random(cells)
    state = [rng.randrange(2) for _ in ids]
    output = ",".join(f"{c}@1={rule_110(state[k - 1], state[k], state[(k + 1) % cells])}"
                      for k, c in enumerate(ids))
    return run_child(f"ei of the whole {cells}-cell rule-110 ring",
                     ["ei", doc, "--subsystem", "all", "--output", output], limit_mb)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        passed = [run_host(workdir, *host) for host in HOSTS]
        passed.append(run_ring(workdir, *RING))
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
