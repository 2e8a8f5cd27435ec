"""Command-line front end.

Exit codes: 0 success, 1 domain error (invalid system, non-surjective
mechanism, bad subsystem, ...), 2 I/O or parse error. All output is
deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from array import array

from . import io as docio
from .entangle import entanglement, enumerate_partitions, partition_of
from .errors import BudgetExceeded, DocumentError, Error
from .lattice import (
    Subsystem,
    _edges_within_budget,
    _quale_rows,
    _walk,
    bottom,
    subsystem,
    top,
)
from .measure import (
    _cross,
    _ei,
    _glued_posterior,
    _log_table,
    effective_information,
    system_output_space,
)
from .oracle import CrosscheckReport, crosscheck, exhaustive_tables, random_tables
from .stoch import dirac
from .system import unroll, validate


def _bits(x: float, places: int = 9) -> str:
    text = f"{x:.{places}f}"
    # a value that rounds to zero prints unsigned, from either side of it
    return text[1:] if text[0] == "-" and not text.strip("-0.") else text


def _parse_subsystem(spec, text: str) -> Subsystem:
    text = text.strip()
    if text == "all":
        return top(spec)
    if text == "null" or text == "":
        return bottom(spec)
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split("-")
        if len(parts) != 2 or not all(parts):
            raise DocumentError(
                f"bad edge {chunk!r}: expected srcId-trgId (ids must not contain '-')")
        pairs.append((parts[0], parts[1]))
    return subsystem(spec, pairs)


def _parse_output(spec, text: str):
    out_space = system_output_space(spec)
    if text.startswith("@"):
        return docio.load_distribution(text[1:], out_space)
    assignments = {}
    for chunk in text.split(","):
        if not chunk.strip():
            raise DocumentError(f"output {text!r} has an empty assignment")
        if "=" in chunk:
            occ, sym = (part.strip() for part in chunk.split("=", 1))
        elif len(out_space.factors) == 1:
            occ, sym = out_space.factor_ids[0], chunk.strip()
        else:
            raise DocumentError(
                f"output {chunk!r} must name its occasion, e.g. vZ=0")
        if occ in assignments:
            raise DocumentError(f"output {text!r} assigns {occ!r} more than once")
        assignments[occ] = sym
    missing = set(out_space.factor_ids) - set(assignments)
    extra = set(assignments) - set(out_space.factor_ids)
    if missing or extra:
        raise DocumentError(
            f"output must assign exactly the target occasions {out_space.factor_ids}; "
            f"missing {sorted(missing)}, unknown {sorted(extra)}")
    for occ, a in out_space.factors:
        if assignments[occ] not in a.symbols:
            raise DocumentError(
                f"output assigns {occ!r} the symbol {assignments[occ]!r}, "
                f"not in its alphabet {a.symbols}")
    return dirac(out_space, tuple(assignments[f] for f in out_space.factor_ids))


def _budgeted_edges(spec, max_edges: int):
    """The host's edges, sorted, or BudgetExceeded when there are more than
    max_edges (--max-edges), which must be >= 0."""
    if max_edges < 0:
        raise DocumentError("--max-edges must be >= 0")
    return _edges_within_budget(spec, max_edges)


def _valid(spec):
    """spec, or an Error naming each of its violations on one line."""
    violations = validate(spec)
    if violations:
        raise Error("invalid system: " + "; ".join(str(v) for v in violations))
    return spec


def cmd_validate(args) -> int:
    _valid(docio.load_system(args.path))
    return 0


def _refuse_directory(out: str | None) -> None:
    """Raise what open(out, "w") raises where out is "" or a directory, before any work."""
    if out == "":
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if out is not None and os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def _publish(out: str | None, write) -> None:
    """Run write(fh) on a temporary file; publish what it wrote only once it
    has returned, so a failing run writes nothing.

    A regular (or new) file out is replaced by the temporary sibling it was
    written to. Standard output (out is None) and other kinds of file, such
    as devices, get a copy of an anonymous temporary file.
    """
    _refuse_directory(out)
    target = None if out is None else os.path.realpath(out)
    if target is None or (os.path.exists(target) and not os.path.isfile(target)):
        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            write(fh)
            fh.seek(0)
            if target is None:
                shutil.copyfileobj(fh, sys.stdout)
            else:
                with open(out, "w", encoding="utf-8") as dst:
                    shutil.copyfileobj(fh, dst)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=f".{os.path.basename(target)}.", suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open(out, "w") would create
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# the fewest subsystems per process, so that quale forks nothing below
# twice this many. On a 2-vCPU VM a worker costs 4-7 ms beyond its sections
# (fork, a cold submechanism memo, reaping and copying its file; measured as
# a one-section worker against none) and a section 40-80 us, so a worker's
# fixed cost is at most about a tenth of its work.
_SUBSYSTEMS_PER_WORKER = 2 ** 10


def _ranges(count: int, paying: int) -> list[range]:
    """The indices 0, ..., count - 1 split into contiguous ranges of equal
    length (to one), one per process that works them: one per CPU this
    process may run on, and at most paying, the number of processes whose
    shares of the work each pay for forking one. One range, nothing being
    forked, where os.fork is missing or another thread is alive (a forked
    child would hold only the calling thread). Each command prices its own
    work: quale by subsystems, whose sections differ in size, as a cut at
    equal entries would cost a walk over every subsystem, about as long as
    the imbalance it removes (README); oracle-check by table inputs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, paying)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [range(count)]
    return [range(k * count // n, (k + 1) * count // n) for k in range(n)]


def _write_quale(fh, spec, edges, ranges: list[range]) -> None:
    """Write the quale document to fh, ranges being contiguous ranges of
    masks that cover them all in order, by _write_ranges."""

    def write_range(f, masks):
        docio.write_sections(f, edges, _quale_rows(spec, edges, masks))

    docio.write_quale(fh, lambda f: _write_ranges(f, ranges, write_range))


def _write_ranges(fh, ranges: list[range], write_range) -> None:
    """Write to fh, a UTF-8 text file with a binary buffer as _publish opens
    it, what write_range(f, masks) writes to a file f for each of ranges in
    turn.

    This process writes the first range to fh. Each later range is written
    by a worker forked for it into an anonymous temporary file, which is
    copied into fh in range order (_copy_part). A worker only saves time:
    where os.fork fails, or the worker does not end well (it raised, or a
    signal killed it), this process writes that range to fh itself. So the
    bytes are the serial ones, and an error is raised where a serial run
    raises it, as the same exception. Every worker is killed, if still running, and reaped
    before this returns or raises.
    """
    parent = os.getpid()
    later = []  # (masks, part, pid of its worker or None) per range after the first
    live = set()  # the pids of the workers not yet reaped
    try:
        for masks in ranges[1:]:
            part = tempfile.TemporaryFile("w+", encoding="utf-8")
            pid = None
            # ^C waits until the worker is in live here, and until the
            # worker ignores it there
            sigmask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _range_worker(part, write_range, masks, parent, sigmask)
                live.add(pid)
            except OSError:
                pass  # no worker: this process writes the range
            finally:
                later.append((masks, part, pid))
                signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
        write_range(fh, ranges[0])
        for masks, part, pid in later:
            ended_well = pid is not None and os.waitpid(pid, 0)[1] == 0  # exit status 0
            live.discard(pid)
            if ended_well:
                _copy_part(part, fh)
            else:
                write_range(fh, masks)
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, part, _ in later:
            part.close()


def _copy_part(part, fh) -> None:
    """Append the whole of a worker's text file part to fh, a text file in
    part's encoding (UTF-8, as _publish opens it), as bytes from buffer to
    buffer; fh is flushed first, so the bytes land after its text."""
    part.seek(0)
    fh.flush()
    shutil.copyfileobj(part.buffer, fh.buffer)


def _range_worker(part, write_range, masks: range, parent: int, sigmask):
    """The body of a forked worker: run write_range(part, masks) and end the
    process, with status 0 once it has returned and 1 on any error. It never
    returns. It stops before its next mask when the process that forked it
    is gone. It ignores SIGINT, ^C being the parent's to handle, and then
    takes sigmask as its signal mask."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)

        def watched():
            for mask in masks:
                if os.getppid() != parent:
                    raise ChildProcessError("the parent process is gone")
                yield mask

        write_range(part, watched())
        part.flush()
        code = 0
    finally:
        os._exit(code)


def cmd_quale(args) -> int:
    spec = _valid(docio.load_system(args.path))
    edges = _budgeted_edges(spec, args.max_edges)
    count = 1 << len(edges)
    ranges = _ranges(count, count // _SUBSYSTEMS_PER_WORKER)
    _publish(args.out, lambda fh: _write_quale(fh, spec, edges, ranges))
    return 0


def cmd_ei(args) -> int:
    spec = _valid(docio.load_system(args.path))
    sub = _parse_subsystem(spec, args.subsystem)
    context = _parse_subsystem(spec, args.context)
    d_out = _parse_output(spec, args.output)
    print(_bits(effective_information(spec, sub, context, d_out)))
    return 0


def cmd_gamma(args) -> int:
    if args.all_partitions and args.partition is not None:
        raise DocumentError("give --partition or --all-partitions, not both")
    spec = _valid(docio.load_system(args.path))
    sub = _parse_subsystem(spec, args.subsystem)
    d_out = _parse_output(spec, args.output)
    if args.all_partitions:
        parts = list(enumerate_partitions(sub.source_ids()))
    elif args.partition is not None:
        blocks = [[k.strip() for k in blk.split(",")] for blk in args.partition.split("|")]
        if any("" in blk for blk in blocks):
            raise DocumentError(
                f"bad partition {args.partition!r}: expected like a,b|c (no empty source ids)")
        parts = [partition_of(blocks)]
    else:
        raise DocumentError("need --partition or --all-partitions")
    # every report is computed before anything is printed, so a failing run
    # writes nothing to stdout
    reports = [entanglement(spec, sub, part, d_out) for part in parts]
    print(f"{'partition':24} {'gamma':>13} {'ei_whole':>13} {'sum_blocks':>13} {'gap':>13}")
    for part, rep in zip(parts, reports):
        blocks_sum = sum(rep.per_block_ei)
        print(f"{part.label():24} {_bits(rep.gamma_bits):>13} {_bits(rep.ei_whole):>13} "
              f"{_bits(blocks_sum):>13} {_bits(rep.additivity_gap):>13}")
        if not args.all_partitions:
            for block, ei in zip(part.blocks, rep.per_block_ei):
                print(f"  block {','.join(block):17} ei={_bits(ei)}")
    return 0


def cmd_lattice(args) -> int:
    """Write the Hasse diagram one line at a time: every node in (size, key)
    order, then each node's out-arrows, the nodes in key order and each
    one's arrows in the order of their destinations' keys. Node keys are
    unique, so that is the order of all arrows sorted by (source, destination)
    key. Subsystems are indexed by the bitmask of their edges (bit i for the
    i-th edge in sorted order), so that an arrow adds one bit.

    The arrow D -> B is labelled ei(B / D) = sum_x p_B log2 p_B
    - sum_x p_B(x) log2 p_D(x|_D) + log2(|S_B| / |S_D|). The first sum is
    kept once per node and D's log table is made once, when D's arrows are
    written, which is in one string. The label is measure._ei, the formula
    effective_information uses, so it equals ei --subsystem B --context D
    exactly, and a record that spreads D's evenly over B's extra sources
    gives exactly 0."""
    spec = _valid(docio.load_system(args.path))
    d_out = _parse_output(spec, args.output)
    edges = _budgeted_edges(spec, args.max_edges)
    _refuse_directory(args.dot)
    # each subsystem is measured once, so the posteriors skip _log_terms'
    # per-output memo; walk, the rows at the output's symbols restricted onto
    # each S_C, which subsystems with one S_C share, lives for this walk only
    walk: dict = {}
    posteriors = [_glued_posterior(spec, parts, domain, d_out, walk)
                  for _, parts, domain in _walk(spec, edges)]
    del walk
    neg_entropy = array("d", (_cross(spec, p, p, _log_table(p)) for p in posteriors))
    names = [f"{a}-{b}" for a, b in edges]
    # the key of a mask is the key of the mask without its highest edge, plus
    # that edge, which sorts after the rest
    keys = ["null"]
    for mask in range(1, len(posteriors)):
        top_bit = mask.bit_length() - 1
        rest = mask ^ (1 << top_bit)
        keys.append(keys[rest] + "," + names[top_bit] if rest else names[top_bit])
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    nodes = sorted(by_key, key=lambda m: m.bit_count())  # stable: keys within a size

    def write(fh):
        fh.write('digraph ei_lattice {\n  rankdir=BT;\n  node [shape=box];\n')
        for m in nodes:
            fh.write(f'  "{keys[m]}" [label="{keys[m]}"];\n')
        for m in by_key:
            src = keys[m]
            d = posteriors[m]
            logs = _log_table(d)
            bigger = [m | 1 << i for i in range(len(edges)) if not m >> i & 1]
            fh.write("".join(
                f'  "{src}" -> "{keys[b]}" '
                f'[label="{_bits(_ei(spec, posteriors[b], neg_entropy[b], d, logs), 5)}"];\n'
                for b in sorted(bigger, key=keys.__getitem__)))
        fh.write("}\n")

    _publish(args.dot, write)
    return 0


def cmd_unroll(args) -> int:
    doc = docio._read_json(args.path)
    if args.steps is not None:
        if args.steps < 1:
            raise DocumentError("--steps must be >= 1")
        if isinstance(doc, dict):  # anything else is refused as a document below
            doc = {**doc, "window": [0, args.steps - 1]}
    auto = docio.automaton_from_document(doc)
    spec = _valid(unroll(auto))
    text = json.dumps(docio.system_to_document(spec), indent=2, sort_keys=True) + "\n"
    _publish(args.out, lambda fh: fh.write(text))
    return 0


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise DocumentError(f"bad dimensions {text!r}: expected like 2x2x2")
    return tuple(int(p) for p in parts)


# an exhaustive sweep of nx x ny x nz enumerates nz^(nx*ny) tables
_EXHAUSTIVE_LOG2_BUDGET = 16
# crosschecking one table takes time steeply growing in its nx*ny inputs: on a
# 2-vCPU VM, 32x32x2 takes 0.4 s, 45x45x2 4 s and 64x64x2 25 s
_TABLE_INPUTS_BUDGET = 2 ** 10
# a table's system holds NX*NY*NZ matrix entries, so its output alphabet is
# priced too
_TABLE_ENTRIES_BUDGET = 2 ** 16


# the fewest table inputs (tables times NX*NY) per process, so that
# oracle-check forks nothing below twice this many. On a 2-vCPU VM, two
# ranges against one break even at 90 to 128 inputs (3x3x3: 10 tables;
# 4x4x4: 8; 2x2x2: between 16 and 24) in alternating in-process runs, a
# worker costing 4-5 ms beyond its tables (README)
_TABLE_INPUTS_PER_WORKER = 64


def _tables_at(tables, indices):
    """The items of the iterable tables at indices, which increase, each
    index taken just before its item is. Every item before an index is
    built and dropped: random_tables draws each table from one seeded
    generator, so a range of its tables is read by replaying it. One item
    past the last index is read too, so that a range which ends where
    tables do runs them to their end, as crosscheck does in one process,
    rather than leaving a generator to be closed."""
    tables = iter(tables)
    at = 0
    for i in indices:
        yield from itertools.islice(tables, i - at, i - at + 1)
        at = i + 1
    next(tables, None)


def _crosscheck_in_ranges(tables, ranges: list[range], label: str) -> CrosscheckReport:
    """crosscheck(tables(), label), the tables of each of ranges, contiguous
    ranges of table indices that cover them all in order, checked by
    _write_ranges. Each range writes its report as a line of its function,
    check and mismatch counts, then its mismatches, one a line in table
    order; the reports are summed in range order, so the report is the
    serial one."""

    def write_range(f, indices):
        rep = crosscheck(_tables_at(tables(), indices))
        f.write(f"{rep.functions} {rep.checks} {len(rep.mismatches)}\n")
        f.writelines(line + "\n" for line in rep.mismatches)

    report = CrosscheckReport(label)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
        _write_ranges(fh, ranges, write_range)
        fh.seek(0)
        for line in fh:
            functions, checks, mismatches = map(int, line.split())
            report.functions += functions
            report.checks += checks
            report.mismatches += [next(fh).rstrip("\n") for _ in range(mismatches)]
    return report


def cmd_oracle_check(args) -> int:
    if args.random is not None and args.random < 1:
        raise DocumentError("--random must be >= 1")
    if args.dims is not None and args.random is None:
        raise DocumentError("--dims sizes the --random tables and needs --random")
    sweeps = [_parse_dims(dims) for dims in args.exhaustive or []]
    for nx, ny, nz in sweeps:
        # in logs: the count itself may have millions of digits
        if math.log2(nz) > _EXHAUSTIVE_LOG2_BUDGET / (nx * ny):
            raise BudgetExceeded(
                f"exhaustive {nx}x{ny}x{nz} sweeps {nz}^{nx * ny} tables, over the budget "
                f"of 2^{_EXHAUSTIVE_LOG2_BUDGET}")
    random_dims = [] if args.random is None else [
        _parse_dims("3x3x3" if args.dims is None else args.dims)]
    for nx, ny, nz in sweeps + random_dims:
        if nx * ny > _TABLE_INPUTS_BUDGET:
            raise BudgetExceeded(
                f"a {nx}x{ny}x{nz} table has {nx * ny} inputs, over the budget of "
                f"{_TABLE_INPUTS_BUDGET}")
    for nx, ny, nz in sweeps + random_dims:
        if nx * ny * nz > _TABLE_ENTRIES_BUDGET:
            raise BudgetExceeded(
                f"a {nx}x{ny}x{nz} table has {nx * ny * nz} matrix entries, over the budget "
                f"of {_TABLE_ENTRIES_BUDGET}")
    # (tables, how many, inputs of each, label) per sweep
    checks = [(functools.partial(exhaustive_tables, nx, ny, nz), nz ** (nx * ny), nx * ny,
               f"exhaustive {nx}x{ny}x{nz}") for nx, ny, nz in sweeps]
    checks += [(functools.partial(random_tables, nx, ny, nz, args.random, args.seed), args.random,
                nx * ny, f"random {args.random} of {nx}x{ny}x{nz} (seed {args.seed})")
               for nx, ny, nz in random_dims]
    if not checks:
        raise DocumentError("need --exhaustive and/or --random")
    reports = [_crosscheck_in_ranges(
        tables, _ranges(count, count * inputs // _TABLE_INPUTS_PER_WORKER), label)
        for tables, count, inputs, label in checks]
    failed = False
    for rep in reports:
        print(rep.summary())
        for line in rep.mismatches:
            print(f"  {line}", file=sys.stderr)
        failed = failed or not rep.ok
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmeas",
        description="Analyze the measurements performed by distributed stochastic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system document")
    p.add_argument("path")

    p = sub.add_parser("quale", help="dualized glued mechanism of every subsystem")
    p.add_argument("path")
    p.add_argument("--max-edges", type=int, default=16)
    p.add_argument("--out")

    p = sub.add_parser("ei", help="effective information of a subsystem in a context")
    p.add_argument("path")
    p.add_argument("--subsystem", required=True, help='"all", "null" or "src-trg,..."')
    p.add_argument("--context", default="null", help='"all", "null" or "src-trg,..."')
    p.add_argument("--output", required=True, help='"vZ=0[,vW=1]" or "@dist.json"')

    p = sub.add_parser("gamma", help="entanglement over a partition of sources")
    p.add_argument("path")
    p.add_argument("--subsystem", default="all")
    p.add_argument("--partition", help='blocks like "vX|vY" or "vA,vB|vC"')
    p.add_argument("--all-partitions", action="store_true")
    p.add_argument("--output", required=True)

    p = sub.add_parser("lattice", help="Hasse diagram with ei increments, DOT format")
    p.add_argument("path")
    p.add_argument("--output", required=True)
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--max-edges", type=int, default=16)

    p = sub.add_parser("unroll", help="unroll an automaton document into a system")
    p.add_argument("path")
    p.add_argument("--steps", type=int, help="override the window to [0, steps-1]")
    p.add_argument("--out")

    p = sub.add_parser("oracle-check", help="compare the pipeline with counting oracles")
    p.add_argument("--exhaustive", action="append", metavar="NXxNYxNZ",
                   help="sweep all functions of these dimensions (repeatable)")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", metavar="NXxNYxNZ", help="of the --random tables (default 3x3x3)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name when it runs, so that the cached parser holds no
        # cmd_* function that may since have been rebound on this module
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
