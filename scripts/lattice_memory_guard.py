#!/usr/bin/env python3
"""Check that `lattice` on 16-edge systems runs in bounded memory.

For each host below, writes its bench/workloads.bipartite_document to a
temporary directory, runs `python -m distmeas.cli lattice ... --dot` on it in
a child process, and reads the child's peak resident set (ru_maxrss from
os.wait4, in KiB on Linux). Exits 1 unless every child succeeds under its
host's limit. Both hosts have 16 edges, 65,536 subsystems and 524,288
arrows: four binary sources fully feeding four targets, where S_C has at
most 16 states, and eight feeding two, where it has up to 256, so that the
records `lattice` holds grow with the sum of |S_C| as well as the edges.

    python scripts/lattice_memory_guard.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import bipartite_document  # noqa: E402

# (sources, targets, --output, peak RSS limit in MB)
HOSTS = [
    (4, 4, "t0=0,t1=1,t2=0,t3=1", 100),
    (8, 2, "t0=0,t1=1", 325),
]


def run_host(workdir: str, sources: int, targets: int, output: str, limit_mb: int) -> bool:
    doc = os.path.join(workdir, f"bipartite-{sources}x{targets}.json")
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(bipartite_document(99, sources, targets, {}), fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, "-m", "distmeas.cli", "lattice", doc,
            "--output", output, "--dot", os.path.join(workdir, "lattice.dot")]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by proc
    seconds = time.perf_counter() - start
    peak_mb = usage.ru_maxrss / 1024
    print(f"lattice on {sources} sources x {targets} targets: exit {code}, {seconds:.1f} s, "
          f"peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)")
    return code == 0 and peak_mb < limit_mb


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        passed = [run_host(workdir, *host) for host in HOSTS]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
