#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed set of runs.

Each run is one `python -m distmeas.cli` child process. Its digest is the
sha256 of its exit code, standard output, standard error and the file it
writes (if any), and one `sha256 name` line is printed per run. The runs are
the four argvs of bench/baseline.json, plus quale, lattice, gamma and ei on
the bundled xor and and systems, gamma and ei on the hopfield-6 document,
lattice on the quale-11 document, quale of the quale-11 document to standard
output (through the CLI's anonymous temporary file), five oracle-check runs
(two of them the README's examples, and one of 31 tables, which two
processes split unevenly), gamma and ei on a proper multi-target subsystem of the
lattice-8 document (its blocks and its context read fewer sources than it
does, and it reads fewer than the system), gamma over every partition of a
5-cell and of an 8-cell Hopfield ring (the 8-cell one computes all 255 block
terms), ei of the whole 10-cell Hopfield ring (its 10,240 columns are 11
distinct ones), lattice on the lattice-8 document at a mixed output, lattice
on fully connected 12- and 16-edge bipartite documents (4 sources, 3 or 4
targets; the 16-edge run pins all 524,288 arrow labels), quale --out on the
12-edge one (4,096 sections),
validate and quale --out on a document of mixed alphabet sizes whose
mechanisms list their sources out of order (mixed_radix_document), unroll of
a three-cell hopfield/life/table automaton document with and without
--steps and with --out, unroll of an automaton document with per-cell
alphabets and a time-keyed rule (mixed_automaton_document), and unroll and
ei --output @ of a file that is not UTF-8. The
benchmark documents are generated by bench/workloads.py at their baseline
seeds.
Every run happens in a temporary directory with relative paths, so the
digests do not depend on where the repository lives.

    python scripts/output_digests.py                 # print the digests
    python scripts/output_digests.py --check FILE    # exit 1 unless they equal FILE's

A change that must not alter any printed byte keeps scripts/output_digests.txt
as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import (  # noqa: E402
    WORKLOADS,
    bipartite_document,
    hopfield_attractor,
    hopfield_document,
)

DATA = os.path.join(ROOT, "src", "distmeas", "data")


def runs() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, path of the file the run writes or None), with the
    inputs written under the current directory; argv and paths are relative
    to it."""
    with open(os.path.join(ROOT, "bench", "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["workloads"]
    out = []
    works = {}
    for name, entry in baseline.items():
        work = WORKLOADS[name](entry["seed"], os.path.join(".bench_work", f"{name}-{entry['seed']}"))
        work.write_inputs()
        works[name] = work
        out.append((f"baseline:{name}", entry["argv"], work.out_path))

    for host in ("xor", "and"):
        doc = f"{host}.json"
        shutil.copy(os.path.join(DATA, doc), doc)
        out += [
            (f"{host}:quale", ["quale", doc], None),
            (f"{host}:quale-out", ["quale", doc, "--out", f"{host}-quale.json"], f"{host}-quale.json"),
        ]
        for z in ("0", "1"):
            out += [
                (f"{host}:lattice@{z}", ["lattice", doc, "--output", f"vZ={z}"], None),
                (f"{host}:gamma-all@{z}",
                 ["gamma", doc, "--all-partitions", "--output", f"vZ={z}"], None),
            ]
        out += [
            (f"{host}:ei-whole@1", ["ei", doc, "--subsystem", "all", "--output", "vZ=1"], None),
            (f"{host}:ei-context@0",
             ["ei", doc, "--subsystem", "all", "--context", "vX-vZ", "--output", "vZ=0"], None),
            (f"{host}:ei-edge@1", ["ei", doc, "--subsystem", "vY-vZ", "--output", "vZ=1"], None),
        ]

    hop = works["hopfield-6"]
    out += [
        ("hopfield-6:gamma-all",
         ["gamma", hop.doc_path, "--all-partitions", "--output", hop.output_spec()], None),
        ("hopfield-6:ei-whole",
         ["ei", hop.doc_path, "--subsystem", "all", "--output", hop.output_spec()], None),
        ("quale-11:lattice",
         ["lattice", works["quale-11"].doc_path, "--output", "t0=0,t1=0,t2=0,t3=0",
          "--dot", "quale-11-lattice.dot"], "quale-11-lattice.dot"),
        ("quale-11:quale-stdout", ["quale", works["quale-11"].doc_path], None),
        ("oracle-check:exhaustive",
         ["oracle-check", "--exhaustive", "2x2x2", "--exhaustive", "2x3x2"], None),
        ("oracle-check:random",
         ["oracle-check", "--random", "12", "--seed", "3", "--dims", "3x2x3"], None),
        ("oracle-check:readme-exhaustive",
         ["oracle-check", "--exhaustive", "2x2x2", "--exhaustive", "2x2x4"], None),
        ("oracle-check:readme-random",
         ["oracle-check", "--random", "500", "--seed", "7", "--dims", "3x3x3"], None),
        ("oracle-check:random-uneven",
         ["oracle-check", "--random", "31", "--seed", "5", "--dims", "3x3x3"], None),
    ]

    lat = works["lattice-8"]
    # targets t0, t2, t3 read sources s1, s2 of s0, s1, s2
    part = ["--subsystem", "s1-t2,s1-t3,s2-t0,s2-t3", "--output", lat.OUTPUT]
    out += [
        ("lattice-8:gamma-all-sub", ["gamma", lat.doc_path, "--all-partitions", *part], None),
        ("lattice-8:ei-sub-context", ["ei", lat.doc_path, *part, "--context", "s2-t3"], None),
    ]

    seed = 99
    with open("hopfield-5.json", "w", encoding="utf-8") as fh:
        json.dump(hopfield_document(seed, 5, 2), fh, indent=2)
    attractor = ",".join(f"n{k}@1={b}" for k, b in enumerate(hopfield_attractor(seed, 5, 2)))
    out.append(("hopfield-5:gamma-all",
                ["gamma", "hopfield-5.json", "--all-partitions", "--output", attractor], None))
    with open("hopfield-8.json", "w", encoding="utf-8") as fh:
        json.dump(hopfield_document(1, 8, 4), fh, indent=2)
    attractor = ",".join(f"n{k}@1={b}" for k, b in enumerate(hopfield_attractor(1, 8, 4)))
    out.append(("hopfield-8:gamma-all",
                ["gamma", "hopfield-8.json", "--all-partitions", "--output", attractor], None))
    with open("hopfield-10.json", "w", encoding="utf-8") as fh:
        json.dump(hopfield_document(1, 10, 5), fh, indent=2)
    attractor = ",".join(f"n{k}@1={b}" for k, b in enumerate(hopfield_attractor(1, 10, 5)))
    out.append(("hopfield-10:ei-whole",
                ["ei", "hopfield-10.json", "--subsystem", "all", "--output", attractor], None))

    # a mixed output: every subsystem's posterior sums three glued rows
    with open("mixed.json", "w", encoding="utf-8") as fh:
        json.dump({"weights": ["1/2"] + ["0"] * 4 + ["1/3"] + ["0"] * 9 + ["1/6"]}, fh)
    out.append(("lattice-8:lattice-mixed",
                ["lattice", lat.doc_path, "--output", "@mixed.json"], None))
    with open("bipartite-12.json", "w", encoding="utf-8") as fh:
        json.dump(bipartite_document(99, 4, 3, {}), fh, indent=2)
    out += [
        ("bipartite-12:lattice",
         ["lattice", "bipartite-12.json", "--output", "t0=0,t1=1,t2=0"], None),
        ("bipartite-12:quale-out",
         ["quale", "bipartite-12.json", "--out", "bipartite-12-quale.json"],
         "bipartite-12-quale.json"),
    ]
    with open("bipartite-16.json", "w", encoding="utf-8") as fh:
        json.dump(bipartite_document(99, 4, 4, {}), fh, indent=2)
    out.append(("bipartite-16:lattice",
                ["lattice", "bipartite-16.json", "--output", "t0=0,t1=1,t2=0,t3=1"], None))

    with open("mixed-radix.json", "w", encoding="utf-8") as fh:
        json.dump(mixed_radix_document(), fh, indent=2)
    out += [
        ("mixed-radix:validate", ["validate", "mixed-radix.json"], None),
        ("mixed-radix:quale-out",
         ["quale", "mixed-radix.json", "--out", "mixed-radix-quale.json"], "mixed-radix-quale.json"),
    ]

    with open("automaton.json", "w", encoding="utf-8") as fh:
        json.dump(automaton_document(), fh, indent=2)
    with open("mixed-automaton.json", "w", encoding="utf-8") as fh:
        json.dump(mixed_automaton_document(), fh, indent=2)
    with open("not-utf-8.json", "wb") as fh:
        fh.write(b"\xff")
    out += [
        ("automaton:unroll", ["unroll", "automaton.json"], None),
        ("automaton:unroll-steps", ["unroll", "automaton.json", "--steps", "3"], None),
        ("automaton:unroll-out",
         ["unroll", "automaton.json", "--out", "automaton-unrolled.json"], "automaton-unrolled.json"),
        ("mixed-automaton:unroll", ["unroll", "mixed-automaton.json"], None),
        ("not-utf-8:unroll", ["unroll", "not-utf-8.json"], None),
        ("not-utf-8:ei-output",
         ["ei", "xor.json", "--subsystem", "all", "--output", "@not-utf-8.json"], None),
    ]

    return out


def automaton_document() -> dict:
    """Cells a (hopfield), b (life) and c (table, reading b one step back)
    over two time steps, with a fixed and a distributed initial state."""
    return {
        "format_version": 1,
        "cells": ["a", "b", "c"],
        "alphabet": ["0", "1"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b", "c"], "c": [["b", 1], "c"]},
        "rules": {
            "a": {"kind": "hopfield", "weights": ["1", "-1/2"], "temperature": "1/2"},
            "b": {"kind": "life"},
            "c": {"kind": "table", "table": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "0"}},
        },
        "window": [0, 1],
        "initial": {"a": "1", "b": {"distribution": ["1/3", "2/3"]}, "c": "0"},
    }


def mixed_automaton_document() -> dict:
    """A binary cell a and a ternary cell b (per-cell alphabets) over three
    time steps. a becomes a xor (b == 2). b's rule is keyed by time: at t = 1
    it is a + b, at t = 2 it is a + 2b, modulo 3."""
    pairs = [(x, y) for x in range(2) for y in range(3)]
    return {
        "format_version": 1,
        "cells": ["a", "b"],
        "alphabet": ["0", "1"],
        "alphabets": {"b": ["0", "1", "2"]},
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {
            "a": {"kind": "table", "table": {f"{x},{y}": str(int(x != (y == 2))) for x, y in pairs}},
            "b": {
                "1": {"kind": "table", "table": {f"{x},{y}": str((x + y) % 3) for x, y in pairs}},
                "2": {"kind": "table", "table": {f"{x},{y}": str((x + 2 * y) % 3) for x, y in pairs}},
            },
        },
        "window": [0, 2],
        "initial": {"a": "1", "b": {"distribution": ["1/2", "1/3", "1/6"]}},
    }


def mixed_radix_document() -> dict:
    """Sources a, b, c with alphabets of sizes 2, 3 and 4 feed y (a, b) and z
    (a, b, c), whose mechanisms list their sources out of id order. Entries
    are written as n/d strings, JSON and string integers, decimals and with
    leading zeros. The column patterns' periods do not divide the tables'
    widths, so a wrong column order changes the quale."""
    sizes = {"a": 2, "b": 3, "c": 4, "y": 2, "z": 3}
    y_cols = [["0.25", "3/4"], [1, 0], ["01/2", "0.5"], ["1", "0"]]
    z_cols = [["1/2", "0.25", "01/4"], [1, 0, 0], ["0.5", "002/6", "1/6"],
              ["1/3", "1/3", "1/3"], [0, "0003/4", "0.25"]]
    return {
        "format_version": 1,
        "occasions": [{"id": i, "alphabet": [str(s) for s in range(n)]} for i, n in sizes.items()],
        "edges": [["a", "y"], ["b", "y"], ["a", "z"], ["b", "z"], ["c", "z"]],
        "mechanisms": {
            "y": {"sources": ["b", "a"], "table": [y_cols[j % 4] for j in range(6)]},
            "z": {"sources": ["c", "a", "b"], "table": [z_cols[j % 5] for j in range(24)]},
        },
        "sources": {"a": ["0.5", "1/2"], "b": ["1/3", "01/3", "2/6"],
                    "c": ["0.25", 0, "3/4", "0"]},
    }


def digest(argv: list[str], out_path: str | None, workdir: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "distmeas.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, check=False)
    h = hashlib.sha256()
    parts = [str(proc.returncode).encode(), proc.stdout, proc.stderr]
    if out_path is not None and os.path.exists(os.path.join(workdir, out_path)):
        with open(os.path.join(workdir, out_path), "rb") as fh:
            parts.append(fh.read())
    for part in parts:
        h.update(b"%d:" % len(part))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests in FILE instead of printing them")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            planned = runs()
        finally:
            os.chdir(cwd)
        lines = [f"{digest(a, p, workdir)} {name}" for name, a, p in planned]

    if args.check is None:
        print("\n".join(lines))
        return 0
    with open(args.check, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    differ = sorted(set(want) ^ set(lines))
    for line in differ:
        print(f"{'expected' if line in want else 'got':8} {line}", file=sys.stderr)
    if differ:
        print(f"error: the outputs differ from {args.check}", file=sys.stderr)
        return 1
    print(f"{len(lines)} runs match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
