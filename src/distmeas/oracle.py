"""Brute-force oracles: every closed-form information quantity evaluated by
preimage and slice counting on deterministic function tables, with no
stochastic-matrix machinery involved. crosscheck() is the only function here
that touches the matrix pipeline, and only to compare against it.

Every closed form reads one count record of an output z (_counts: z's
preimage, its size n and its per-axis slice counts), built in one pass over
the table; crosscheck builds one record per (table, attained output) and
reads every closed form, the relative-ei identity and rectangularity from it.

Quantities are returned as ExactBits, a formal log2(K)/N with rational K, so
identities between them can be checked exactly before any float conversion.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2, prod
from typing import NamedTuple

from .errors import NotInImage, UnknownSymbol
from .stoch import Alphabet, alphabet


@dataclass(frozen=True, eq=False)
class ExactBits:
    """The number log2(radicand) / root, kept exact. Unhashable: equal values
    may have different fields, log2(4) / 2 == log2(2) / 1."""

    radicand: Fraction
    root: int = 1

    def __post_init__(self):
        if self.radicand.numerator <= 0 or self.root <= 0:
            raise ValueError("radicand and root must be positive")

    def __float__(self) -> float:
        k = self.radicand
        return (log2(k.numerator) - log2(k.denominator)) / self.root

    @property
    def bits(self) -> float:
        return float(self)

    def __add__(self, other: "ExactBits") -> "ExactBits":
        return ExactBits(
            self.radicand ** other.root * other.radicand ** self.root,
            self.root * other.root)

    def __sub__(self, other: "ExactBits") -> "ExactBits":
        return self + ExactBits(1 / other.radicand, other.root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactBits):
            return NotImplemented
        return self.radicand ** other.root == other.radicand ** self.root

    def is_zero(self) -> bool:
        return self.radicand == 1


@dataclass(frozen=True)
class FunctionTable:
    """Dense deterministic function from a product of alphabets.

    outputs[i] is the value at the i-th joint input under mixed-radix order,
    first factor most significant.
    """

    factors: tuple[Alphabet, ...]
    codomain: Alphabet
    outputs: tuple[str, ...]

    def __post_init__(self):
        if len(self.outputs) != self.total_inputs:
            raise UnknownSymbol(
                f"table has {len(self.outputs)} outputs, expected {self.total_inputs}")
        for v in self.outputs:
            if v not in self.codomain.symbols:
                raise UnknownSymbol(f"output {v!r} not in codomain")

    @property
    def total_inputs(self) -> int:
        n = 1
        for a in self.factors:
            n *= len(a)
        return n

    def inputs(self):
        return itertools.product(*(a.symbols for a in self.factors))

    def value(self, symbols) -> str:
        idx = 0
        for a, s in zip(self.factors, symbols):
            idx = idx * len(a) + a.index(s)
        return self.outputs[idx]

    def attained(self) -> tuple[str, ...]:
        seen = set(self.outputs)
        return tuple(s for s in self.codomain.symbols if s in seen)


def preimage_count(f: FunctionTable, y: str) -> int:
    if y not in f.codomain.symbols:
        raise UnknownSymbol(f"{y!r} not in codomain")
    return f.outputs.count(y)


def slice_count(g: FunctionTable, axis: int, symbol: str, z: str) -> int:
    """Size of the preimage slice with the given axis held at symbol."""
    if z not in g.codomain.symbols:
        raise UnknownSymbol(f"{z!r} not in codomain")
    if symbol not in g.factors[axis].symbols:
        raise UnknownSymbol(f"{symbol!r} not in factor {axis}")
    return sum(1 for inp, v in zip(g.inputs(), g.outputs) if v == z and inp[axis] == symbol)


def _preimage(g: FunctionTable, z: str) -> list[tuple[str, ...]]:
    """The inputs g maps to z, in table order, from one pass over the table."""
    pre = [inp for inp, v in zip(g.inputs(), g.outputs) if v == z]
    if not pre:
        raise NotInImage(f"{z!r} is never output")
    return pre


class _Counts(NamedTuple):
    """One output's count record: its preimage in table order, the size n of
    the preimage, and the slice counts c_k(s) of each axis k, for the symbols
    s that occur in the preimage."""

    pre: list[tuple[str, ...]]
    n: int
    slices: list[Counter]


def _counts(g: FunctionTable, z: str) -> _Counts:
    pre = _preimage(g, z)
    return _Counts(pre, len(pre), [Counter(axis) for axis in zip(*pre)])


def _self_powers(counts: Counter) -> int:
    return prod(c ** c for c in counts.values())


# -- the closed forms, each read from one count record ----------------------


def _classical(g: FunctionTable, c: _Counts) -> ExactBits:
    return ExactBits(Fraction(g.total_inputs, c.n))


def _partial(g: FunctionTable, c: _Counts, axis: int) -> ExactBits:
    n = c.n
    return ExactBits(Fraction(len(g.factors[axis]) ** n * _self_powers(c.slices[axis]), n ** n), n)


def _relative(g: FunctionTable, c: _Counts, axis: int) -> ExactBits:
    others = g.total_inputs // len(g.factors[axis])
    return ExactBits(Fraction(others ** c.n, _self_powers(c.slices[axis])), c.n)


def _gamma(c: _Counts) -> ExactBits:
    n = c.n
    return ExactBits(Fraction(n ** ((len(c.slices) - 1) * n), prod(map(_self_powers, c.slices))), n)


def _rectangular(c: _Counts) -> bool:
    """Whether the preimage is the product of its projections: its size is
    the product of the numbers of symbols its axes take."""
    return c.n == prod(map(len, c.slices))


def ei_classical(f: FunctionTable, y: str) -> ExactBits:
    """Precision of a deterministic reading: log2(|inputs| / |preimage|)."""
    return _classical(f, _counts(f, y))


def ei_partial(g: FunctionTable, z: str, axis: int = 0) -> ExactBits:
    """Precision about one input axis when the others are unobserved noise."""
    return _partial(g, _counts(g, z), axis)


def ei_relative(g: FunctionTable, z: str, axis: int = 0) -> ExactBits:
    """Precision of the joint reading in the context of the partial one."""
    return _relative(g, _counts(g, z), axis)


def gamma_counts(g: FunctionTable, z: str) -> ExactBits:
    """Indecomposability from counts over the K single-input blocks: how far
    the preimage size exceeds the product of its K slice sizes, averaged over
    the preimage, n^((K-1)n) / prod_k prod_s c_k(s)^c_k(s)."""
    return _gamma(_counts(g, z))


# -- families of test functions ---------------------------------------------


def _symbols(n: int) -> Alphabet:
    return alphabet(range(n))


def exhaustive_tables(nx: int, ny: int, nz: int):
    """All deterministic functions from an nx x ny grid onto nz symbols."""
    x, y, z = _symbols(nx), _symbols(ny), _symbols(nz)
    for outputs in itertools.product(z.symbols, repeat=nx * ny):
        yield FunctionTable((x, y), z, outputs)


def random_tables(nx: int, ny: int, nz: int, count: int, seed: int):
    rng = random.Random(seed)
    x, y, z = _symbols(nx), _symbols(ny), _symbols(nz)
    for _ in range(count):
        yield FunctionTable(
            (x, y), z,
            tuple(rng.choice(z.symbols) for _ in range(nx * ny)))


def single_function_tables(nx: int, ny: int):
    """All deterministic single-input functions from nx to ny symbols."""
    x, y = _symbols(nx), _symbols(ny)
    for outputs in itertools.product(y.symbols, repeat=nx):
        yield FunctionTable((x,), y, outputs)


# -- pipeline comparison -----------------------------------------------------


@dataclass
class CrosscheckReport:
    label: str
    functions: int = 0
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "0 mismatches" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.label}: {self.functions} functions, "
                f"{self.checks} checks, {status}")


# pipeline floats within this of an oracle's value agree with it
_TOLERANCE = 1e-9


def crosscheck(tables, label: str = "crosscheck") -> CrosscheckReport:
    """Run the matrix pipeline on each two-input table and compare every
    closed-form quantity against the counting oracles above. Each (table,
    attained output) is counted once: its six closed forms, the relative-ei
    identity and its rectangularity all read one count record."""
    from .entangle import Partition, entanglement
    from .fixtures import two_input_system
    from .lattice import subsystem, top
    from .measure import effective_information
    from .stoch import dirac

    report = CrosscheckReport(label)
    for g in tables:
        report.functions += 1
        spec = two_input_system(g)
        whole = top(spec)
        x_edge = subsystem(spec, [("vX", "vZ")])
        y_edge = subsystem(spec, [("vY", "vZ")])
        out_space = spec.output_space("vZ")
        part = Partition((("vX",), ("vY",)))

        def check(desc: str, got: float, want: float):
            report.checks += 1
            if abs(got - want) > _TOLERANCE:
                report.mismatches.append(f"{desc}: pipeline {got!r} vs oracle {want!r}")

        for z in g.attained():
            d_out = dirac(out_space, z)
            ei_top = effective_information(spec, whole, None, d_out)
            ei_x = effective_information(spec, x_edge, None, d_out)
            ei_y = effective_information(spec, y_edge, None, d_out)
            rel_x = effective_information(spec, whole, x_edge, d_out)
            rel_y = effective_information(spec, whole, y_edge, d_out)
            gamma = entanglement(spec, whole, part, d_out).gamma_bits
            tag = f"{g.outputs}@z={z}"
            c = _counts(g, z)
            top_o, gamma_o = _classical(g, c), _gamma(c)
            x_o, y_o = _partial(g, c, 0), _partial(g, c, 1)
            rel_x_o, rel_y_o = _relative(g, c, 0), _relative(g, c, 1)

            check(f"{tag} ei(top)", ei_top, top_o.bits)
            check(f"{tag} ei(X.)", ei_x, x_o.bits)
            check(f"{tag} ei(.Y)", ei_y, y_o.bits)
            check(f"{tag} ei(X.->top)", rel_x, rel_x_o.bits)
            check(f"{tag} ei(.Y->top)", rel_y, rel_y_o.bits)
            check(f"{tag} gamma", gamma, gamma_o.bits)

            # comparing-measurements identity, oracle-internal and pipeline
            report.checks += 1
            if rel_x_o != top_o - x_o:
                report.mismatches.append(f"{tag} exact relative-ei identity broke")
            check(f"{tag} rel == top - partial", rel_x, ei_top - ei_x)

            # rectangular preimage iff exactly zero entanglement
            report.checks += 1
            rect = _rectangular(c)
            if rect != gamma_o.is_zero() or rect != (gamma == 0.0):
                report.mismatches.append(f"{tag} rectangularity/entanglement disagree")
    return report
