"""Entanglement of measurements over partitions of source occasions, the
two-input closed forms, rectangularity, and product decomposition.

Entanglement compares the measurement performed by a subsystem with the
tensor product of the measurements its blocks perform independently; it is
zero exactly when the measurement splits into independent submeasurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, NotAPartition, NotInImage, NotSurjective
from .lattice import Subsystem
from .measure import _measure_subsystem, system_input_space
from .oracle import ExactBits, FunctionTable, gamma_counts
from .stoch import (
    Distribution,
    kl_divergence,
    marginal,
    support_violations,
    uniform,
)
from .system import SystemSpec


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of occasion ids; canonical order throughout."""

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        flat = [m for b in self.blocks for m in b]
        if len(set(flat)) != len(flat) or not all(self.blocks):
            raise NotAPartition(f"blocks must be disjoint and nonempty: {self.blocks}")

    def members(self) -> frozenset[str]:
        return frozenset(m for b in self.blocks for m in b)

    def label(self) -> str:
        return "|".join(",".join(b) for b in self.blocks)


def partition_of(blocks: Iterable[Iterable[str]]) -> Partition:
    canon = tuple(sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0] if b else ""))
    return Partition(canon)


@dataclass(frozen=True)
class EntanglementReport:
    partition: Partition
    gamma_bits: float
    per_block_ei: tuple[float, ...]
    ei_whole: float
    additivity_gap: float
    infinite_states: tuple[tuple[str, ...], ...] = ()


def entanglement(spec: SystemSpec, sub: Subsystem, part: Partition,
                 d_out: Distribution) -> EntanglementReport:
    """Divergence of the subsystem's measurement from the product of its
    blocks' measurements, plus per-block precision and the additivity gap."""
    srcs = set(sub.source_ids())
    if part.members() != srcs:
        raise NotAPartition(
            f"blocks {part.label()!r} do not partition sources {sorted(srcs)}")
    whole = _measure_subsystem(spec, sub, d_out)
    in_space = system_input_space(spec)
    flat = uniform(in_space)

    block_marginals = []
    per_block_ei = []
    for block in part.blocks:
        block_sub = Subsystem(
            frozenset(p for p in sub.effective if p[0] in block),
            frozenset(p for p in sub.effective if p[0] in block))
        if block_sub.is_null:
            raise NotAPartition(f"block {block} touches no effective pair")
        block_measurement = _measure_subsystem(spec, block_sub, d_out)
        per_block_ei.append(kl_divergence(block_measurement, flat))
        block_marginals.append((block, marginal(block_measurement, block)))

    # product of block measurements, uniform on inputs outside the subsystem
    outside = [fid for fid in in_space.factor_ids if fid not in srcs]
    outside_weight = Fraction(1)
    for fid in outside:
        outside_weight /= len(in_space.alphabet_of(fid))
    lookup = []
    for block, dist in block_marginals:
        pos = [in_space.position(f) for f in dist.space.factor_ids]
        lookup.append((dist, pos))
    weights = []
    for i in range(in_space.dim):
        syms = in_space.symbols_at(i)
        w = outside_weight
        for dist, pos in lookup:
            w *= dist.weights[dist.space.index_of(tuple(syms[p] for p in pos))]
            if w == 0:
                break
        weights.append(w)
    product = Distribution(in_space, tuple(weights))

    gamma = kl_divergence(whole, product)
    ei_whole = kl_divergence(whole, flat)
    offenders = support_violations(whole, product) if gamma == float("inf") else ()
    return EntanglementReport(
        part, gamma, tuple(per_block_ei), ei_whole,
        ei_whole - sum(per_block_ei), offenders)


def gamma_closed_form_two_source(g: FunctionTable, z: str) -> ExactBits:
    """Entanglement of a two-input function at output z, from slice counts."""
    if len(g.factors) != 2:
        raise NotAPartition("closed form needs a two-input function")
    return gamma_counts(g, z)


def is_rectangular(g: FunctionTable, z: str) -> tuple[bool, tuple | None]:
    """Whether the preimage of z is the product of its slices.

    Returns (True, None) or (False, witness) where the witness is a pair of
    preimage points whose recombination leaves the preimage.
    """
    pre = [inp for inp in g.inputs() if g.value(inp) == z]
    if not pre:
        raise NotInImage(f"{z!r} is never output")
    members = set(pre)
    for (x1, y1) in pre:
        for (x2, y2) in pre:
            if (x1, y2) not in members:
                return False, ((x1, y1), (x2, y2))
    return True, None


def product_decomposition(g: FunctionTable):
    """Split a surjective two-input function into a product of single-input
    functions when every output's preimage is rectangular; None otherwise.

    The factor codomains are the slice classes of the proof, relabeled q0,
    q1, ... in order of first appearance.
    """
    if set(g.attained()) != set(g.codomain.symbols):
        raise NotSurjective(
            f"function does not attain {sorted(set(g.codomain.symbols) - set(g.attained()))}")
    xs = g.factors[0].symbols
    ys = g.factors[1].symbols

    def column_class(x):
        # the x-slice classes g^{-1}_{X x y}(z) containing x, one per y
        classes = {
            frozenset(x2 for x2 in xs if g.value((x2, y)) == g.value((x, y)))
            for y in ys}
        return classes

    def row_class(y):
        classes = {
            frozenset(y2 for y2 in ys if g.value((x, y2)) == g.value((x, y)))
            for x in xs}
        return classes

    g1: dict[str, frozenset] = {}
    for x in xs:
        classes = column_class(x)
        if len(classes) != 1:
            return None
        g1[x] = next(iter(classes))
    g2: dict[str, frozenset] = {}
    for y in ys:
        classes = row_class(y)
        if len(classes) != 1:
            return None
        g2[y] = next(iter(classes))

    # the pair of classes must determine the output exactly
    outputs: dict[tuple[frozenset, frozenset], str] = {}
    for x in xs:
        for y in ys:
            key = (g1[x], g2[y])
            z = g.value((x, y))
            if outputs.setdefault(key, z) != z:
                return None
    if len(outputs) != len(set(outputs.values())):
        return None

    def relabel(mapping):
        labels: dict[frozenset, str] = {}
        out = {}
        for sym in mapping:
            cls = mapping[sym]
            if cls not in labels:
                labels[cls] = f"q{len(labels)}"
            out[sym] = labels[cls]
        return out

    return relabel(g1), relabel(g2)


def enumerate_partitions(sources: Sequence[str], max_sources: int = 8) -> Iterator[Partition]:
    """All set partitions of the sources, by restricted growth strings."""
    items = sorted(sources)
    n = len(items)
    if n > max_sources:
        raise BudgetExceeded(f"{n} sources exceed the partition budget of {max_sources}")
    if n == 0:
        yield Partition(())
        return

    def grow(prefix: list[int], maxval: int):
        if len(prefix) == n:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for item, b in zip(items, prefix):
                blocks[b].append(item)
            yield Partition(tuple(tuple(b) for b in blocks))
            return
        for v in range(maxval + 2):
            yield from grow(prefix + [v], max(maxval, v))

    yield from grow([0], 0)
