"""The Boolean lattice of subsystems, mechanism gluing, the structure
presheaf's restriction and gluing maps, and the quale.

A subsystem is a set of ordered occasion pairs. Pairs that are real edges of
the host are effective; the rest are ineffective and contribute nothing, so
every construction here reads only the effective part. The input space S_C of
a subsystem is the canonical (id-sorted) product over sources of effective
pairs, the output space A_C the product over targets. A section over C is a
stochastic map from A_C back to S_C; the quale assigns to each subsystem the
dual of its glued mechanism. Glued mechanisms are computed on integers by one
kernel (_glued_rows), which multiplies each target's submechanism rows, kept
as integer numerators over the submechanism's own inputs, read through the
restriction map from S_C; no other module reads those rows. The kernel reads
a subsystem as its parts, (target, inside sources) per target (_parts); the
lattice of subsystems is enumerated with its parts and input spaces by one
walk over edge bitmasks (_walk), which the quale stream and the lattice
command share. Each memo holds one kind of entry and lives as long as what it
reads: the spec keeps occasion spaces (_occasion_space), restriction maps
(_restriction) and submechanism rows (_submechanism_numerators); a walk
(_quale_rows, the lattice command) keeps the rows it selects, restricted onto
each S_C, for its subsystems to share; a single record (glue_mechanism, a
measurement) keeps none, and at one output reads one row per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    EmptySubsystem,
    Incompatible,
    NotASubsystem,
    NotATarget,
    NotStochastic,
    NotSurjective,
    UnknownOccasion,
)
from .stoch import (
    BINARY,
    ZERO,
    ProductSpace,
    StochasticMatrix,
    _restriction_table,
    _trusted_matrix,
    canonical_space,
    compose,
    dual,
    projection,
)
from .system import SystemSpec

PairSet = frozenset[tuple[str, str]]


@dataclass(frozen=True)
class Subsystem:
    """Ordered occasion pairs, split into effective (host edges) and not."""

    pairs: PairSet
    effective: PairSet

    @property
    def ineffective(self) -> PairSet:
        return self.pairs - self.effective

    @property
    def is_null(self) -> bool:
        return not self.effective

    def source_ids(self) -> tuple[str, ...]:
        return tuple(sorted({k for (k, _) in self.effective}))

    def target_ids(self) -> tuple[str, ...]:
        return tuple(sorted({l for (_, l) in self.effective}))

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.pairs))


def subsystem(spec: SystemSpec, pairs: Iterable[tuple[str, str]]) -> Subsystem:
    pset = frozenset((str(a), str(b)) for a, b in pairs)
    known = set(spec.occasion_ids())
    for (a, b) in pset:
        for v in (a, b):
            if v not in known:
                raise UnknownOccasion(f"pair ({a},{b}) references unknown occasion {v!r}")
    return Subsystem(pset, pset & spec.edges)


def top(spec: SystemSpec) -> Subsystem:
    return Subsystem(frozenset(spec.edges), frozenset(spec.edges))


_NULL = Subsystem(frozenset(), frozenset())


def bottom(spec: SystemSpec) -> Subsystem:
    """The null subsystem, one shared instance (it is frozen)."""
    return _NULL


def _occasion_space(spec: SystemSpec, ids: tuple[str, ...]) -> ProductSpace:
    """The canonical space over the occasions ids, one shared space per id
    tuple: memoised in spec._spaces by the ids (a spec gives each id one
    alphabet)."""
    space = spec._spaces.get(ids)
    if space is None:
        space = spec._spaces[ids] = canonical_space({k: spec.alphabet_of(k) for k in ids})
    return space


def source_space(spec: SystemSpec, sub: Subsystem) -> ProductSpace:
    """S_C, one shared space per source set."""
    return _occasion_space(spec, sub.source_ids())


def target_space(spec: SystemSpec, sub: Subsystem) -> ProductSpace:
    """A_C, one shared space per target set."""
    return _occasion_space(spec, sub.target_ids())


def _edges_within_budget(spec: SystemSpec, max_pairs: int) -> list[tuple[str, str]]:
    edges = sorted(spec.edges)
    if len(edges) > max_pairs:
        raise BudgetExceeded(
            f"{len(edges)} edges exceed the budget of {max_pairs} "
            f"(2^{len(edges)} subsystems)")
    return edges


def enumerate_subsystems(spec: SystemSpec, max_pairs: int = 16) -> Iterator[Subsystem]:
    """All subsets of the effective edge set, in binary counting order."""
    edges = _edges_within_budget(spec, max_pairs)
    for mask in range(2 ** len(edges)):
        yield _masked(edges, mask)


def _masked(edges: Sequence[tuple[str, str]], mask: int) -> Subsystem:
    """The subsystem of the edges whose bits are set in mask, bit i standing
    for edges[i]."""
    chosen = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
    return Subsystem(chosen, chosen)


Parts = tuple[tuple[str, frozenset[str]], ...]


def _parts(sub: Subsystem) -> Parts:
    """What the glue kernel reads of a subsystem: (target, the target's
    sources inside it) for each of its targets, in id order."""
    inside: dict[str, set[str]] = {}
    for k, l in sub.effective:
        inside.setdefault(l, set()).add(k)
    return tuple((l, frozenset(inside[l])) for l in sorted(inside))


def _walk(spec: SystemSpec, edges: Sequence[tuple[str, str]],
          masks: Iterable[int] | None = None) -> Iterator[tuple[int, Parts, ProductSpace]]:
    """Every subsystem over edges (the host's edges, sorted) as (mask, parts,
    S_C), in binary counting order of mask, bit i standing for edges[i];
    parts is _parts of the subsystem. masks (every mask by default) limits
    the walk to the masks it yields, in its order.

    Everything comes from bit operations on the mask. Each target's part is
    cached by the target's sub-mask (the sub-masks of different targets
    share no bit) together with the mask of its sources, bit j standing for
    the j-th source in id order; S_C is cached by the union of those.
    """
    sources = sorted({k for k, _ in edges})
    source_bit = [1 << sources.index(k) for k, _ in edges]
    by_target = [(l, sum(1 << i for i, e in enumerate(edges) if e[1] == l))
                 for l in sorted({l for _, l in edges})]
    cached_parts: dict[int, tuple[tuple[str, frozenset[str]], int]] = {}
    spaces: dict[int, ProductSpace] = {}
    if masks is None:
        masks = range(1 << len(edges))
    for mask in masks:
        parts = []
        source_mask = 0
        for l, target_mask in by_target:
            sub_mask = mask & target_mask
            if sub_mask:
                cached = cached_parts.get(sub_mask)
                if cached is None:
                    bits = [i for i in range(sub_mask.bit_length()) if sub_mask >> i & 1]
                    cached = cached_parts[sub_mask] = (
                        (l, frozenset(edges[i][0] for i in bits)),
                        sum(source_bit[i] for i in bits))
                parts.append(cached[0])
                source_mask |= cached[1]
        domain = spaces.get(source_mask)
        if domain is None:
            domain = spaces[source_mask] = _occasion_space(
                spec, tuple(k for j, k in enumerate(sources) if source_mask >> j & 1))
        yield mask, tuple(parts), domain


def occasion_submechanism(spec: SystemSpec, sub: Subsystem, target: str) -> StochasticMatrix:
    """The target's mechanism with inputs on edges outside the subsystem
    averaged out uniformly."""
    if target not in sub.target_ids():
        raise NotATarget(f"{target!r} is not a target of the subsystem")
    mech = spec.mechanisms[target]
    inside = tuple(sorted(k for (k, l) in sub.effective if l == target))
    if inside == spec.sources_of(target):
        return mech
    return compose(mech, dual(projection(mech.domain, inside)))


def glue_mechanism(spec: SystemSpec, sub: Subsystem) -> StochasticMatrix:
    """Joint mechanism of a subsystem: marginalize each target's extrinsic
    inputs, tensor the results and pull back along the diagonal.

    Column s is the glue kernel's column at s divided by its sum, which
    cancels the per-target scales."""
    if sub.is_null:
        raise EmptySubsystem("the empty subsystem has no glued mechanism; use the null mechanism")
    domain = source_space(spec, sub)
    cols = []
    for col in zip(*_glued_rows(spec, _parts(sub), domain)):
        total = sum(col)
        cols.append(tuple(Fraction(v, total) for v in col))
    return _trusted_matrix(domain, target_space(spec, sub), tuple(cols))


def _restriction(spec: SystemSpec, src: ProductSpace, dst: ProductSpace) -> Sequence[int]:
    """_restriction_table(src, dst), memoised in spec._restrictions by the
    two spaces' factor ids, (src ids, dst ids) (a spec gives each id one
    alphabet), so targets whose domains have equal ids share it."""
    key = (src.factor_ids, dst.factor_ids)
    table = spec._restrictions.get(key)
    if table is None:
        table = spec._restrictions[key] = _restriction_table(src, dst)
    return table


def _submechanism_numerators(spec: SystemSpec, target: str, inside: frozenset[str]):
    """(domain, integer numerator rows) of the target's submechanism with
    only the inside sources kept: one row per output symbol, over the inputs
    of domain in mixed-radix order.

    A submechanism averages the inputs outside the subsystem out uniformly,
    so over integers it is a sum: with the target's full mechanism scaled
    once by the LCM of its denominators, the numerator at (output, inside
    input) is the sum of the full numerators over the outside inputs. The
    common denominator left out is LCM x |outside inputs|, which cancels
    wherever a glued row or column is normalized. occasion_submechanism is
    the reference they are pinned to. Memoised for the spec's lifetime in
    spec._submechanisms by (target, inside), the scaled full mechanism being
    the entry with every source inside.
    """
    memo = spec._submechanisms
    entry = memo.get((target, inside))
    if entry is None:
        mech = spec.mechanisms[target]
        every = frozenset(mech.domain.factor_ids)
        if inside == every:
            # each distinct column object once: a loaded document shares the
            # columns it repeats
            distinct = {id(col): col for col in mech.cols}
            scale = lcm(*(v.denominator for col in distinct.values() for v in col))
            scaled = {k: tuple(v.numerator * (scale // v.denominator) for v in col)
                      for k, col in distinct.items()}
            rows = tuple(zip(*(scaled[id(col)] for col in mech.cols)))
            entry = (mech.domain, rows)
        else:
            full = _submechanism_numerators(spec, target, every)[1]
            domain = mech.domain.subspace(inside)
            restrict = _restriction(spec, mech.domain, domain)
            rows = []
            for row in full:
                acc = [0] * domain.dim
                for j, v in zip(restrict, row):
                    acc[j] += v
                rows.append(tuple(acc))
            entry = (domain, tuple(rows))
        memo[target, inside] = entry
    return entry


def _glued_rows(spec: SystemSpec, parts: Parts, domain: ProductSpace,
                at: Mapping[str, int] | None = None,
                walk: dict | None = None) -> Sequence[Sequence[int]]:
    """The glue kernel: integer numerators of a glued mechanism's rows.

    parts is the subsystem's (target, inside sources) pairs in target id
    order (_parts), and domain its input space S_C. rows[i][j] is the glued
    mechanism at output i of A_C and input j of domain, a product of scaled
    submechanism entries, one per target: each target's rows
    (_submechanism_numerators) read through the restriction from domain to
    their own inputs. With at (a symbol index by target id, for every target
    of parts) only the row at that output is computed, as the single element
    of the result. The null subsystem, with no parts, is the empty product:
    the one row [1] over the scalar space.

    Each target's rows are selected first, the one row at at[target] or
    every row without at, and only those are read through the restriction.
    walk is a walk's memo (_quale_rows, the lattice command): the rows read
    through the restriction onto domain are kept there by (target, inside,
    domain ids, at[target]), the last None when every row is read, for the
    walk's subsystems to share. Without it nothing is kept.
    """
    rows = None
    for l, inside in parts:
        symbol = None if at is None else at[l]
        vecs = None if walk is None else walk.get(key := (l, inside, domain.factor_ids, symbol))
        if vecs is None:
            own, vecs = _submechanism_numerators(spec, l, inside)
            if symbol is not None:
                vecs = (vecs[symbol],)
            if own.factor_ids != domain.factor_ids:
                restrict = _restriction(spec, domain, own)
                vecs = tuple(tuple(map(v.__getitem__, restrict)) for v in vecs)
            if walk is not None:
                walk[key] = vecs
        # later targets are less significant in the output space
        rows = vecs if rows is None else [
            list(map(mul, r, v)) for r in rows for v in vecs]
    return [[1]] if rows is None else rows


@dataclass(frozen=True)
class Section:
    """An element of the structure presheaf at a subsystem: a stochastic map
    from the subsystem's output space back to its input space."""

    subsystem: Subsystem
    matrix: StochasticMatrix


def section(spec: SystemSpec, sub: Subsystem, matrix: StochasticMatrix) -> Section:
    if matrix.domain != target_space(spec, sub) or matrix.codomain != source_space(spec, sub):
        raise NotASubsystem(
            f"section matrix must map {sub.target_ids()} outputs to {sub.source_ids()} inputs")
    return Section(sub, matrix)


@dataclass(frozen=True)
class Quale:
    """One section per subsystem: the dual of each glued mechanism."""

    host: SystemSpec
    sections: tuple[Section, ...]

    @cached_property
    def _index(self) -> dict[Subsystem, Section]:
        # the first section wins, as a scan in order would find it
        return {s.subsystem: s for s in reversed(self.sections)}

    def section(self, sub: Subsystem) -> Section:
        try:
            return self._index[sub]
        except KeyError:
            raise NotASubsystem(f"no section for pairs {sorted(sub.pairs)}") from None

    def __len__(self) -> int:
        return len(self.sections)


def _quale_rows(spec: SystemSpec, edges: Sequence[tuple[str, str]],
                masks: Iterable[int] | None = None):
    """The quale's glued rows, one subsystem at a time.

    Yields (mask, output space A_C, input space S_C, rows, row sums) for
    every mask of _walk(spec, edges, masks), in its order, rows being
    _glued_rows' numerators. The section over the subsystem is the glued
    mechanism's dual, whose column i is rows[i] divided by row_sums[i]; the
    per-target scales cancel in that division. The null subsystem is no
    special case: its rows are the empty product [[1]] over the scalar
    spaces. Raises NotSurjective, when it reaches it, for a subsystem whose
    glued mechanism misses an output. The restricted rows the walk's
    subsystems share (_glued_rows' walk) live as long as the walk.
    """
    walk: dict = {}
    for mask, parts, domain in _walk(spec, edges, masks):
        codomain = _occasion_space(spec, tuple(l for l, _ in parts))
        rows = _glued_rows(spec, parts, domain, walk=walk)
        row_sums = [sum(r) for r in rows]
        zero = [codomain.symbols_at(i) for i, t in enumerate(row_sums) if t == 0]
        if zero:
            raise NotSurjective(
                f"subsystem {_masked(edges, mask).sorted_pairs()} has a non-surjective "
                f"glued mechanism (outputs {zero} are never produced)")
        yield mask, codomain, domain, rows, row_sums


def build_quale(spec: SystemSpec, max_pairs: int = 16) -> Quale:
    """Dualize the glued mechanism of every subsystem of the host.

    Equivalent to dual(glue_mechanism(...)) per subsystem but computed on
    integer numerators (_quale_rows): the dual's row normalization cancels
    every denominator. Tests pin equality with the operator pipeline.
    """
    edges = _edges_within_budget(spec, max_pairs)
    sections = []
    for mask, codomain, domain, rows, row_sums in _quale_rows(spec, edges):
        cols = tuple(tuple(Fraction(v, t) for v in row) for row, t in zip(rows, row_sums))
        sections.append(Section(_masked(edges, mask), _trusted_matrix(codomain, domain, cols)))
    return Quale(spec, tuple(sections))


def restrict(spec: SystemSpec, sec: Section, sub: Subsystem) -> Section:
    """Presheaf restriction: marginalize a section onto a sub-subsystem.

    Inserts the uniform distribution on the outputs the smaller subsystem
    lacks and projects away the inputs it lacks.
    """
    if not sub.pairs <= sec.subsystem.pairs:
        raise NotASubsystem(
            f"{sorted(sub.pairs)} is not contained in {sorted(sec.subsystem.pairs)}")
    return Section(sub, _coordinate_restriction(spec, sec, sub.source_ids(), sub.target_ids()))


def _coordinate_restriction(spec: SystemSpec, sec: Section,
                            src_ids: Sequence[str], trg_ids: Sequence[str]) -> StochasticMatrix:
    """Marginal of a section onto given source/target occasion sets."""
    m = sec.matrix
    out_proj = projection(target_space(spec, sec.subsystem), trg_ids)
    in_proj = projection(source_space(spec, sec.subsystem), src_ids)
    return compose(in_proj, compose(m, dual(out_proj)))


def glue_sections(spec: SystemSpec, a: Section, b: Section,
                  renormalize: bool = False) -> Section:
    """Glue two compatible sections over the union of their subsystems.

    The glued conditional is p(a-part) * p(b-part) / p(shared part), with the
    shared-coordinate marginal computed by uniform averaging; 0/0 counts as 0.
    Columns of the result are checked to sum to 1 and NotStochastic is raised
    otherwise (set renormalize to divide them out instead).
    """
    sub_a, sub_b = a.subsystem, b.subsystem
    shared_src = tuple(sorted(set(sub_a.source_ids()) & set(sub_b.source_ids())))
    shared_trg = tuple(sorted(set(sub_a.target_ids()) & set(sub_b.target_ids())))
    ra = _coordinate_restriction(spec, a, shared_src, shared_trg)
    rb = _coordinate_restriction(spec, b, shared_src, shared_trg)
    if ra != rb:
        raise Incompatible(
            "sections disagree on their shared coordinates "
            f"(sources {shared_src}, targets {shared_trg})")

    union = Subsystem(sub_a.pairs | sub_b.pairs, sub_a.effective | sub_b.effective)
    domain = target_space(spec, union)
    codomain = source_space(spec, union)
    s_to_a = _restriction(spec, codomain, source_space(spec, sub_a))
    s_to_b = _restriction(spec, codomain, source_space(spec, sub_b))
    s_to_shared = _restriction(spec, codomain, ra.codomain)
    t_to_a = _restriction(spec, domain, target_space(spec, sub_a))
    t_to_b = _restriction(spec, domain, target_space(spec, sub_b))
    t_to_shared = _restriction(spec, domain, ra.domain)

    cols = []
    bad: list[tuple[tuple[str, ...], Fraction]] = []
    for o in range(domain.dim):
        col_a = a.matrix.cols[t_to_a[o]]
        col_b = b.matrix.cols[t_to_b[o]]
        col_r = ra.cols[t_to_shared[o]]
        col = []
        for i, j, k in zip(s_to_a, s_to_b, s_to_shared):
            va, vb, denom = col_a[i], col_b[j], col_r[k]
            col.append(va * vb / denom if va and vb and denom else ZERO)
        total = sum(col, ZERO)
        if total != 1:
            if renormalize and total > 0:
                col = [v / total for v in col]
            else:
                bad.append((domain.symbols_at(o), total))
        cols.append(tuple(col))
    if bad:
        detail = ", ".join(f"{o}: {t}" for o, t in bad[:4])
        raise NotStochastic(
            f"glued section has {len(bad)} non-stochastic columns ({detail})")
    return Section(union, StochasticMatrix(domain, codomain, tuple(cols)))


def descent_counterexample() -> tuple[Section, Section]:
    """Two unequal sections over one two-source subsystem whose restrictions
    to both single-pair subsystems coincide (perfectly correlated versus
    independent joint over two bits, both with uniform marginals)."""
    z_space = canonical_space({"vZ": BINARY})
    xy_space = canonical_space({"vX": BINARY, "vY": BINARY})
    pairs = frozenset({("vX", "vZ"), ("vY", "vZ")})
    both = Subsystem(pairs, pairs)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    correlated = StochasticMatrix(
        z_space, xy_space,
        ((half, ZERO, ZERO, half), (half, ZERO, ZERO, half)))
    product = StochasticMatrix(
        z_space, xy_space,
        ((quarter,) * 4, (quarter,) * 4))
    return Section(both, correlated), Section(both, product)
