"""The benchmark's workloads: seeded input generators, the CLI argv of one
operation, and untimed correctness checks against references computed here.

Every input is a pure function of the seed. The program under test receives
only the generated system document and the argv; the references below read
the same document and recompute the expected output exactly.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- exact helpers shared by the references -----------------------------------


def _sums_to_one(col) -> bool:
    """Exact test that rationals written as ints or "num/den" are
    non-negative and sum to 1."""
    parts = [(v, 1) if isinstance(v, int) else tuple(map(int, v.split("/"))) for v in col]
    common = math.lcm(*(d for _, d in parts))
    return all(n >= 0 for n, _ in parts) and sum(n * (common // d) for n, d in parts) == common


def _kl_bits(p, q) -> float:
    """Relative entropy in bits of exact weights p against q."""
    total = 0.0
    for pw, qw in zip(p, q):
        if pw == 0:
            continue
        if qw == 0:
            return math.inf
        ratio = pw / qw
        total += float(pw) * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
    return total


def _mech_tables(doc: dict) -> dict:
    """target id -> (canonical source ids, columns in mixed-radix order)."""
    out = {}
    for trg, mdoc in doc["mechanisms"].items():
        srcs = list(mdoc["sources"])
        _require(srcs == sorted(srcs), f"generated sources of {trg} are not canonical")
        out[trg] = (srcs, [[Fraction(v) for v in col] for col in mdoc["table"]])
    return out


def _submechanism(srcs, cols, inside):
    """p(a | inputs on `inside`) with the other sources averaged uniformly:
    dict from the tuple of inside bits (canonical order) to the column."""
    acc = {}
    for bits, col in zip(product((0, 1), repeat=len(srcs)), cols):
        key = tuple(b for s, b in zip(srcs, bits) if s in inside)
        prev = acc.get(key)
        acc[key] = list(col) if prev is None else [x + y for x, y in zip(prev, col)]
    n_out = 2 ** (len(srcs) - len(inside))
    return {k: [v / n_out for v in col] for k, col in acc.items()}


def _posterior(mechs, sources, a_star, inside):
    """Exact p(s | a*) over the states of the binary `sources` (canonical
    order), under a uniform prior, for the subsystem in which each target t
    of `inside` reads the sources inside[t] and has its other inputs averaged
    out uniformly. Targets outside the subsystem give every state the same
    likelihood, so they drop out. a_star maps each target to its output bit."""
    states = list(product((0, 1), repeat=len(sources)))
    lik = [Fraction(1)] * len(states)
    for t, srcs_in in inside.items():
        srcs, cols = mechs[t]
        sub = _submechanism(srcs, cols, srcs_in)
        for i, s in enumerate(states):
            key = tuple(b for src, b in zip(sources, s) if src in srcs_in)
            lik[i] *= sub[key][a_star[t]]
    total = sum(lik)
    return [w / total for w in lik]


def _glued_rows(mechs, pairs):
    """Glued mechanism of a subsystem given by its edge pairs, as rows:
    (source ids, target ids, rows[a][s] = p(a | s)) over binary alphabets."""
    sources = sorted({s for s, _ in pairs})
    targets = sorted({t for _, t in pairs})
    subs = []
    for t in targets:
        inside = sorted(s for s, tt in pairs if tt == t)
        srcs, cols = mechs[t]
        subs.append(([sources.index(s) for s in inside], _submechanism(srcs, cols, set(inside))))
    rows = []
    for a in product((0, 1), repeat=len(targets)):
        row = []
        for s in product((0, 1), repeat=len(sources)):
            v = Fraction(1)
            for (pos, sub), bit in zip(subs, a):
                v *= sub[tuple(s[p] for p in pos)][bit]
            row.append(v)
        rows.append(row)
    return sources, targets, rows


# -- seeded generators ---------------------------------------------------------


def bipartite_document(seed: int, n_sources: int, n_targets: int, dropped) -> dict:
    """Binary sources s0.. fully feeding targets t0.. minus the dropped edges;
    every column of every mechanism is (k/10, 1 - k/10) with k drawn from 1..9."""
    rng = random.Random(seed)
    sources = [f"s{i}" for i in range(n_sources)]
    targets = [f"t{i}" for i in range(n_targets)]
    edges = [(s, t) for s in sources for t in targets if (s, t) not in dropped]
    mechanisms = {}
    for t in targets:
        srcs = sorted(s for s, tt in edges if tt == t)
        table = []
        for _ in range(2 ** len(srcs)):
            k = rng.randint(1, 9)
            table.append([str(Fraction(k, 10)), str(Fraction(10 - k, 10))])
        mechanisms[t] = {"sources": srcs, "table": table}
    return {
        "format_version": 1,
        "occasions": [{"id": o, "alphabet": ["0", "1"]} for o in sources + targets],
        "edges": [list(e) for e in sorted(edges)],
        "mechanisms": mechanisms,
        "sources": {s: ["1/2", "1/2"] for s in sources},
    }


HOPFIELD_CELLS = 6
HOPFIELD_SPLIT = 3  # n0..n2 form the first block of the measured partition
HOPFIELD_TEMPERATURE = Fraction(1, 2)
SNAP = 10 ** 12


def hopfield_attractor(seed: int, cells: int = HOPFIELD_CELLS,
                       split: int = HOPFIELD_SPLIT) -> list[int]:
    """The pattern 1,0,1,0,... with the cells before and after `split`
    shuffled by the seed. Every seed gives the same system up to renaming
    cells within a partition block, so an operation's cost does not depend
    on the seed."""
    rng = random.Random(seed)
    base = [(k + 1) % 2 for k in range(cells)]
    first, second = base[:split], base[split:]
    rng.shuffle(first)
    rng.shuffle(second)
    return first + second


def hopfield_document(seed: int, cells: int = HOPFIELD_CELLS,
                      split: int = HOPFIELD_SPLIT) -> dict:
    """A fully connected ring of stochastic binary units storing one seeded
    attractor by the Hebbian rule, unrolled over one step: sources n*@0 hold
    the attractor, each n_k@1 reads every n_j@0 with p(1) = logistic(h / T)
    snapped to a multiple of 1/10^12."""
    attractor = hopfield_attractor(seed, cells, split)
    xi = [2 * b - 1 for b in attractor]
    n = cells
    before = [f"n{j}@0" for j in range(n)]
    after = [f"n{k}@1" for k in range(n)]
    mechanisms = {}
    for k, trg in enumerate(after):
        table = []
        for bits in product((0, 1), repeat=n):
            h = sum(xi[j] * xi[k] * b for j, b in enumerate(bits))
            x = float(h / HOPFIELD_TEMPERATURE)
            p1 = 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
            one = Fraction(round(p1 * SNAP), SNAP)
            table.append([str(1 - one), str(one)])
        mechanisms[trg] = {"sources": before, "table": table}
    return {
        "format_version": 1,
        "occasions": [{"id": o, "alphabet": ["0", "1"]} for o in before + after],
        "edges": [[s, t] for s in before for t in after],
        "mechanisms": mechanisms,
        "sources": {
            s: ["0", "1"] if b else ["1", "0"] for s, b in zip(before, attractor)},
    }


# -- workloads -----------------------------------------------------------------


class Workload:
    """One seeded CLI operation and the checks on its output.

    argv() is the argv of one cli.main call. check(stdout, out_text) takes
    the operation's standard output and the text of the file it wrote, raises
    CheckFailed when they disagree with the reference, and otherwise returns
    the number of domain items (`item`) the operation completed.
    """

    name = ""
    default_seed = 99
    item = ""
    why = ""
    has_document = True
    out_file: str | None = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.doc_path = os.path.join(workdir, "system.json") if self.has_document else None
        self.out_path = os.path.join(workdir, self.out_file) if self.out_file else None

    def document(self) -> dict:
        raise NotImplementedError

    def write_inputs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        if self.has_document:
            with open(self.doc_path, "w", encoding="utf-8") as fh:
                json.dump(self.document(), fh, indent=2)


class Quale11(Workload):
    name = "quale-11"
    item = "section"
    why = ("build_quale plus section formatting and JSON encoding of 2,048 "
           "sections; memory grows with edge count")
    out_file = "quale.json"
    DROPPED = {("s0", "t0"), ("s1", "t0"), ("s2", "t0"), ("s0", "t1"), ("s1", "t1")}
    SAMPLE = 48

    def document(self):
        return bipartite_document(self.seed, 4, 4, self.DROPPED)

    def argv(self):
        return ["quale", self.doc_path, "--out", self.out_path]

    def check(self, stdout: str, out_text: str | None) -> int:
        doc = json.loads(out_text)
        sections = doc["sections"]
        n_edges = 16 - len(self.DROPPED)
        _require(len(sections) == 2 ** n_edges, f"{len(sections)} sections, want 2^{n_edges}")
        keys = set()
        for sec in sections:
            keys.add(tuple(sec["subsystem"]))
            for col in sec["matrix"]:
                _require(_sums_to_one(col), f"a column of {sec['subsystem']} does not sum to 1")
        _require(len(keys) == len(sections), "repeated subsystems in the quale")
        mechs = _mech_tables(self.document())
        rng = random.Random(self.seed)
        for sec in rng.sample(sections, self.SAMPLE):
            pairs = [tuple(p.split("-")) for p in sec["subsystem"]]
            if not pairs:
                _require(sec["matrix"] == [[1]], "null section is not [[1]]")
                continue
            sources, targets, rows = _glued_rows(mechs, pairs)
            _require(sec["outputs"] == targets and sec["inputs"] == sources,
                     f"spaces of {sec['subsystem']}")
            want = [[v / sum(row) for v in row] for row in rows]
            got = [[Fraction(v) for v in col] for col in sec["matrix"]]
            _require(got == want, f"section {sec['subsystem']} differs from the reference")
        return len(sections)


class Lattice8(Workload):
    name = "lattice-8"
    item = "arrow"
    why = ("256 subsystems measured through measure.extend's dense "
           "projections and the Fraction glue kernel; many medium calls")
    out_file = "lattice.dot"
    DROPPED = {("s0", "t0"), ("s1", "t0"), ("s0", "t1"), ("s1", "t1")}
    OUTPUT = "t0=0,t1=0,t2=0,t3=0"
    SAMPLE = 24
    ARROW = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[label="([^"]*)"\];$')

    def document(self):
        return bipartite_document(self.seed, 3, 4, self.DROPPED)

    def argv(self):
        return ["lattice", self.doc_path, "--output", self.OUTPUT, "--dot", self.out_path]

    def check(self, stdout: str, out_text: str | None) -> int:
        n_edges = 12 - len(self.DROPPED)
        arrows = [m.groups() for m in map(self.ARROW.match, out_text.splitlines()) if m]
        _require(len(arrows) == n_edges * 2 ** (n_edges - 1),
                 f"{len(arrows)} arrows, want {n_edges * 2 ** (n_edges - 1)}")
        doc = self.document()
        mechs = _mech_tables(doc)
        sources = sorted(doc["sources"])
        a_star = {t: int(v) for t, v in (kv.split("=") for kv in self.OUTPUT.split(","))}
        _require(sorted(a_star) == sorted(mechs), "the measured output names every target")

        def pairs(key):
            return [] if key == "null" else [tuple(p.split("-")) for p in key.split(",")]

        def posterior(key):
            inside = {}
            for s, t in pairs(key):
                inside.setdefault(t, set()).add(s)
            return _posterior(mechs, sources, a_star, inside)

        rng = random.Random(self.seed)
        for src, dst, label in rng.sample(arrows, self.SAMPLE):
            _require(set(pairs(src)) < set(pairs(dst)) and len(pairs(dst)) == len(pairs(src)) + 1,
                     f"arrow {src} -> {dst} does not add one edge")
            want = _kl_bits(posterior(dst), posterior(src))
            # labels are printed with five decimals, so half of their last digit
            # is the finest agreement they can show
            _require(abs(float(label) - want) <= 0.5e-5 + 1e-9,
                     f"arrow {src} -> {dst}: label {label}, reference {want!r}")
        return len(arrows)


class Hopfield6(Workload):
    name = "hopfield-6"
    item = "measurement"
    why = ("entanglement of a 6-cell Hopfield ring: few subsystems over 64 "
           "states with 10^12-denominator big ints; few large compose calls")
    BLOCKS = (tuple(f"n{j}@0" for j in range(HOPFIELD_SPLIT)),
              tuple(f"n{j}@0" for j in range(HOPFIELD_SPLIT, HOPFIELD_CELLS)))
    # the whole subsystem, then one per block
    MEASUREMENTS = 1 + len(BLOCKS)

    def document(self):
        return hopfield_document(self.seed)

    def output_spec(self):
        bits = hopfield_attractor(self.seed)
        return ",".join(f"n{k}@1={b}" for k, b in enumerate(bits))

    def argv(self):
        partition = "|".join(",".join(b) for b in self.BLOCKS)
        return ["gamma", self.doc_path, "--partition", partition, "--output", self.output_spec()]

    def reference(self):
        """(gamma, ei_whole, per-block ei) of the exact posterior at the
        attractor output, straight from the generated document."""
        doc = self.document()
        mechs = _mech_tables(doc)
        sources = sorted(doc["sources"])
        targets = sorted(doc["mechanisms"])
        a_star = dict(zip(targets, hopfield_attractor(self.seed)))
        states = list(product((0, 1), repeat=len(sources)))
        uniform = [Fraction(1, len(states))] * len(states)

        def posterior(block):
            """The posterior at a* with sources outside the block averaged out."""
            return _posterior(mechs, sources, a_star, {t: set(block) for t in targets})

        whole = posterior(sources)
        product_weights = [Fraction(1)] * len(states)
        per_block = []
        for block in self.BLOCKS:
            post = posterior(block)
            per_block.append(_kl_bits(post, uniform))
            pos = [sources.index(b) for b in block]
            marg = {}
            for s, w in zip(states, post):
                key = tuple(s[p] for p in pos)
                marg[key] = marg.get(key, Fraction(0)) + w
            for i, s in enumerate(states):
                product_weights[i] *= marg[tuple(s[p] for p in pos)]
        return _kl_bits(whole, product_weights), _kl_bits(whole, uniform), per_block

    def check(self, stdout: str, out_text: str | None) -> int:
        lines = stdout.splitlines()
        _require(len(lines) == 2 + len(self.BLOCKS), f"unexpected gamma output {stdout!r}")
        fields = lines[1].split()
        gamma, ei_whole, blocks_sum, gap = map(float, fields[1:5])
        per_block = [float(line.rsplit("ei=", 1)[1]) for line in lines[2:]]
        want_gamma, want_whole, want_blocks = self.reference()
        tol = 1e-9
        _require(abs(gamma - want_gamma) <= tol, f"gamma {gamma} vs reference {want_gamma!r}")
        _require(abs(ei_whole - want_whole) <= tol, f"ei_whole {ei_whole} vs reference {want_whole!r}")
        for got, want in zip(per_block, want_blocks):
            _require(abs(got - want) <= tol, f"block ei {got} vs reference {want!r}")
        _require(abs(blocks_sum - sum(want_blocks)) <= tol, "sum of block ei")
        _require(abs(gap - (want_whole - sum(want_blocks))) <= tol, "additivity gap")
        return self.MEASUREMENTS


class Oracle333(Workload):
    name = "oracle-3x3x3"
    default_seed = 7
    has_document = False
    item = "check"
    why = ("30 tiny fan-in systems crosschecked against counting oracles: "
           "~7k small matrices, so per-call overhead dominates")
    FUNCTIONS = 30
    SUMMARY = re.compile(r": (\d+) functions, (\d+) checks, 0 mismatches$")

    def argv(self):
        return ["oracle-check", "--random", str(self.FUNCTIONS), "--seed", str(self.seed),
                "--dims", "3x3x3"]

    def check(self, stdout: str, out_text: str | None) -> int:
        m = self.SUMMARY.search(stdout.strip())
        _require(m is not None, f"oracle-check did not report 0 mismatches: {stdout!r}")
        _require(int(m.group(1)) == self.FUNCTIONS, f"{m.group(1)} functions checked")
        return int(m.group(2))


WORKLOADS = {w.name: w for w in (Quale11, Lattice8, Hopfield6, Oracle333)}
