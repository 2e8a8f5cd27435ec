"""Entanglement of measurements over partitions of source occasions, and the
rectangularity and product decomposition of two-input functions. The
two-input closed form of entanglement is oracle.gamma_counts.

Entanglement compares the measurement performed by a subsystem with the
tensor product of the measurements its blocks perform independently; it is
zero exactly when the measurement splits into independent submeasurements.
It is computed on the subsystem's own inputs S_C, as a sum of one memoised
term per block, so a subsystem's partitions share their block terms. Block
ei is effective_information; measure._is_product alone decides a zero gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, NotAPartition, NotSurjective
from .lattice import Subsystem
from .measure import _cross, _is_product, _log_terms, _measurements, _Record, effective_information
from .oracle import FunctionTable, _counts, _rectangular
from .stoch import Distribution
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
    """gamma over one partition, with the ei of the whole and of each block."""

    partition: Partition
    gamma_bits: float
    per_block_ei: tuple[float, ...]
    ei_whole: float
    additivity_gap: float


def entanglement(spec: SystemSpec, sub: Subsystem, part: Partition,
                 d_out: Distribution) -> EntanglementReport:
    """Divergence of the subsystem's measurement from the product of its
    blocks' measurements, plus per-block precision and the additivity gap.

    With p the subsystem's posterior on S_C and p_k block k's,
    gamma = sum_x p log2 p - sum_k sum_x p(x) log2 p_k(x|_k): one memoised
    term per block (_block_terms), the whole source set being the block
    whose term is sum_x p log2 p. gamma is exactly 0.0, however the sum
    rounds, when p is the product of the p_k: first at state 0 of S_C, which
    restricts to every block's state 0, then by measure._is_product.
    """
    sources = sub.source_ids()
    if part.members() != set(sources):
        raise NotAPartition(
            f"blocks {part.label()!r} do not partition sources {list(sources)}")
    ei_whole, gamma, p = _block_terms(spec, sub, sources, d_out)
    per_block_ei = []
    records = []
    at_zero, total = 1, 1  # prod_k p_k(state 0) = at_zero / total
    for block in part.blocks:
        ei, cross, pk = _block_terms(spec, sub, block, d_out)
        per_block_ei.append(ei)
        gamma -= cross
        records.append(pk)
        at_zero *= pk.weights[0]
        total *= pk.total
    if gamma and p.weights[0] * total == p.total * at_zero and _is_product(spec, p, records):
        gamma = 0.0
    return EntanglementReport(
        part, gamma, tuple(per_block_ei), ei_whole, ei_whole - sum(per_block_ei))


def _block_subsystem(sub: Subsystem, block: Sequence[str]) -> Subsystem:
    pairs = frozenset(p for p in sub.effective if p[0] in block)
    return Subsystem(pairs, pairs)


def _block_terms(spec: SystemSpec, sub: Subsystem, block: tuple[str, ...],
                 d_out: Distribution) -> tuple[float, float, _Record]:
    """(ei of block k's own measurement p_k, sum_x p(x) log2 p_k(x|_k), p_k)
    for one block of sub's sources, p being sub's measurement. p_k averages
    the same nonnegative mechanism entries as p, so it has weight wherever p
    does. Both terms read p_k's log table, and the cross term p, from
    measure._log_terms; the ei is effective_information against the null
    context. Memoised per output by (sub's effective pairs, block)."""
    memo = _measurements(spec, d_out).memo
    key = (sub.effective, block)
    terms = memo.get(key)
    if terms is None:
        block_sub = _block_subsystem(sub, block)
        pk, logs, _ = _log_terms(spec, block_sub, d_out)
        terms = memo[key] = (effective_information(spec, block_sub, None, d_out),
                             _cross(spec, _log_terms(spec, sub, d_out)[0], pk, logs), pk)
    return terms


def is_rectangular(g: FunctionTable, z: str) -> tuple[bool, tuple | None]:
    """Whether the preimage of z under a two-input function is the product of
    its slices, that is, whether its size is the product of its projections'.

    Returns (True, None) or (False, witness) where the witness is a pair of
    preimage points whose recombination leaves the preimage.
    """
    if len(g.factors) != 2:
        raise NotAPartition("rectangularity needs a two-input function")
    counts = _counts(g, z)
    if _rectangular(counts):
        return True, None
    # some (x1, y2) of the projections' product is missing, so the scan returns
    pre = counts.pre
    members = set(pre)
    for (x1, y1) in pre:
        for (x2, y2) in pre:
            if (x1, y2) not in members:
                return False, ((x1, y1), (x2, y2))


def product_decomposition(g: FunctionTable):
    """Split a surjective two-input function into a product of single-input
    functions, or None when it has no such split.

    g factors as an injective h(g1(x), g2(y)) exactly when its codomain has
    as many symbols as its distinct columns times its distinct rows: equal
    columns, or equal rows, give equal outputs, so h is well defined and
    onto, and it is one-to-one when the sizes match. The factor codomains
    are then the classes of equal columns and of equal rows, relabeled q0,
    q1, ... in order of first appearance.
    """
    if len(g.factors) != 2:
        raise NotAPartition("product decomposition needs a two-input function")
    if set(g.attained()) != set(g.codomain.symbols):
        raise NotSurjective(
            f"function does not attain {sorted(set(g.codomain.symbols) - set(g.attained()))}")
    xs, ys = g.factors[0].symbols, g.factors[1].symbols
    n = len(ys)
    columns = [g.outputs[i * n:(i + 1) * n] for i in range(len(xs))]
    rows = [g.outputs[j::n] for j in range(n)]
    if len(g.codomain) != len(set(columns)) * len(set(rows)):
        return None
    return _relabel(xs, columns), _relabel(ys, rows)


def _relabel(symbols: Sequence[str], classes: Sequence[tuple]) -> dict[str, str]:
    """symbol -> q<k>, k numbering the distinct classes by first appearance."""
    labels: dict[tuple, str] = {}
    return {sym: labels.setdefault(cls, f"q{len(labels)}") for sym, cls in zip(symbols, classes)}


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
