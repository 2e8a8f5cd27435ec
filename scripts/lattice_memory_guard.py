#!/usr/bin/env python3
"""Check that `lattice` on a 16-edge system runs in bounded memory.

Writes bench/workloads.bipartite_document(99, 4, 4, {}) (four binary sources
fully feeding four targets: 16 edges, 65,536 subsystems and 524,288 arrows)
to a temporary directory, runs `python -m distmeas.cli lattice ... --dot` on
it in a child process, and exits 1 unless the child succeeds with a peak
resident set (ru_maxrss of RUSAGE_CHILDREN, in KiB on Linux) under the limit.

    python scripts/lattice_memory_guard.py
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import bipartite_document  # noqa: E402

LIMIT_MB = 100


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        doc = os.path.join(workdir, "bipartite-16.json")
        with open(doc, "w", encoding="utf-8") as fh:
            json.dump(bipartite_document(99, 4, 4, {}), fh)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        argv = [sys.executable, "-m", "distmeas.cli", "lattice", doc,
                "--output", "t0=0,t1=1,t2=0,t3=1", "--dot", os.path.join(workdir, "lattice.dot")]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, check=False)
        seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"lattice on 16 edges: exit {proc.returncode}, {seconds:.1f} s, "
          f"peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB} MB)")
    return 0 if proc.returncode == 0 and peak_mb < LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
