"""Exact linear algebra over labeled product spaces.

Everything is a column-stochastic matrix of ``fractions.Fraction`` entries
between product spaces whose factors carry string ids and finite alphabets.
Joint indices are mixed-radix with the FIRST factor most significant, and the
empty product is the one-dimensional scalar space. Probabilities stay exact
rationals end to end; floating point appears only inside kl_divergence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    FactorCollision,
    NonStochastic,
    NotSurjective,
    SpaceMismatch,
    UnknownFactor,
    UnknownSymbol,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Rational = Fraction | int | str


def rational(value: Rational) -> Fraction:
    """Coerce ints, Fractions and strings like "1/2" or "0.25" to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbol labels; order fixes basis indices."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet {self.symbols}")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet {self.symbols}") from None


def alphabet(symbols: Iterable[str | int]) -> Alphabet:
    return Alphabet(tuple(str(s) for s in symbols))


BINARY = alphabet(["0", "1"])


@dataclass(frozen=True)
class ProductSpace:
    """Ordered list of (factor id, alphabet) pairs with unique ids."""

    factors: tuple[tuple[str, Alphabet], ...]

    def __post_init__(self):
        ids = [fid for fid, _ in self.factors]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate factor ids in {ids}")

    @cached_property
    def dim(self) -> int:
        d = 1
        for _, a in self.factors:
            d *= len(a)
        return d

    @cached_property
    def factor_ids(self) -> tuple[str, ...]:
        return tuple(fid for fid, _ in self.factors)

    def alphabet_of(self, factor_id: str) -> Alphabet:
        return self.factors[self.position(factor_id)][1]

    def index_of(self, symbols: Sequence[str]) -> int:
        """Mixed-radix joint index, first factor most significant."""
        if len(symbols) != len(self.factors):
            raise UnknownSymbol(
                f"expected {len(self.factors)} symbols, got {len(symbols)}")
        idx = 0
        for (fid, a), s in zip(self.factors, symbols):
            idx = idx * len(a) + a.index(s)
        return idx

    def digits_at(self, index: int) -> tuple[int, ...]:
        """The symbol index in each factor of the joint index."""
        out: list[int] = []
        for fid, a in reversed(self.factors):
            index, r = divmod(index, len(a))
            out.append(r)
        return tuple(reversed(out))

    def symbols_at(self, index: int) -> tuple[str, ...]:
        return tuple(a.symbols[d] for (_, a), d in zip(self.factors, self.digits_at(index)))

    def iter_symbols(self):
        for i in range(self.dim):
            yield self.symbols_at(i)

    def position(self, factor_id: str) -> int:
        for k, (fid, _) in enumerate(self.factors):
            if fid == factor_id:
                return k
        raise UnknownFactor(f"factor {factor_id!r} not in space {self.factor_ids}")

    def subspace(self, kept_ids: Iterable[str]) -> "ProductSpace":
        """Subspace of the kept factors, in this space's factor order."""
        kept = set(kept_ids)
        missing = kept - set(self.factor_ids)
        if missing:
            raise UnknownFactor(f"factors {sorted(missing)} not in space {self.factor_ids}")
        return ProductSpace(tuple(f for f in self.factors if f[0] in kept))


SCALAR = ProductSpace(())


def space(*factors: tuple[str, Alphabet]) -> ProductSpace:
    return ProductSpace(tuple(factors))


def canonical_space(factors: Mapping[str, Alphabet] | Iterable[tuple[str, Alphabet]]) -> ProductSpace:
    """Product space with factors sorted by id (the canonical convention)."""
    items = factors.items() if isinstance(factors, Mapping) else factors
    return ProductSpace(tuple(sorted(items, key=lambda f: f[0])))


def _restriction_table(src: ProductSpace, dst: ProductSpace) -> list[int]:
    """For each joint index of src, the joint index of its restriction to dst.

    dst's factors must all occur in src (same alphabets); dst's own order wins.
    """
    strides = {}
    stride = 1
    for fid, a in reversed(dst.factors):
        if src.factors[src.position(fid)][1] != a:
            raise SpaceMismatch(f"factor {fid!r} has different alphabets")
        strides[fid] = stride
        stride *= len(a)
    table = [0]
    for fid, a in src.factors:  # the first factor is the most significant
        s = strides.get(fid, 0)
        offsets = [d * s for d in range(len(a))]
        table = [t + o for t in table for o in offsets]
    return table


def _check_unit_sum(values: Sequence[Fraction], negative: str, bad_sum: str, *where) -> None:
    """Raise NonStochastic unless values are nonnegative and add up to exactly 1.

    The check runs in integers: each sign is read from the numerator, and the
    numerators scaled to the LCM of the denominators must add up to that LCM.
    The message is the template negative formatted with the first negative
    value, or bad_sum with the sum; where are the templates' further fields.
    """
    denominators = [v.denominator for v in values]
    lcd = math.lcm(*denominators)
    total = 0
    for v, d in zip(values, denominators):
        n = v.numerator
        if n < 0:
            raise NonStochastic(negative.format(_printable(v), *where))
        total += n * (lcd // d)
    if total != lcd:
        raise NonStochastic(bad_sum.format(_printable(Fraction(total, lcd)), *where))


def _printable(value: Fraction) -> str:
    """str(value), or a description of value when its numerator or
    denominator has more digits than str() may print."""
    try:
        return str(value)
    except ValueError:
        return f"a rational of more than {sys.get_int_max_str_digits()} digits"


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic map between product spaces.

    Stored column-major: cols[j][i] = p(codomain symbol i | domain symbol j).
    """

    domain: ProductSpace
    codomain: ProductSpace
    cols: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.cols) != self.domain.dim:
            raise NonStochastic(
                f"expected {self.domain.dim} columns, got {len(self.cols)}")
        for j, col in enumerate(self.cols):
            if len(col) != self.codomain.dim:
                raise NonStochastic(
                    f"column {j} has {len(col)} rows, expected {self.codomain.dim}")
            _check_unit_sum(col, "negative entry {0} in column {1}",
                            "column {1} sums to {0}, not 1", j)

    def p(self, out_symbols: Sequence[str], in_symbols: Sequence[str]) -> Fraction:
        """p(out | in) by symbol tuples."""
        return self.cols[self.domain.index_of(in_symbols)][self.codomain.index_of(out_symbols)]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(col[i] for col in self.cols)


@dataclass(frozen=True)
class Distribution:
    """Exact probability vector over a product space."""

    space: ProductSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.dim:
            raise NonStochastic(
                f"expected {self.space.dim} weights, got {len(self.weights)}")
        _check_unit_sum(self.weights, "negative weight {0}", "weights sum to {0}, not 1")

    def support(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.space.symbols_at(i) for i, w in enumerate(self.weights) if w > 0)

    def as_matrix(self) -> StochasticMatrix:
        return StochasticMatrix(SCALAR, self.space, (self.weights,))


def distribution(space_: ProductSpace, weights: Iterable[Rational]) -> Distribution:
    return Distribution(space_, tuple(rational(w) for w in weights))


def uniform(space_: ProductSpace) -> Distribution:
    n = space_.dim
    w = Fraction(1, n)
    return Distribution(space_, (w,) * n)


def dirac(space_: ProductSpace, symbols: Sequence[str] | str) -> Distribution:
    if isinstance(symbols, str):
        symbols = (symbols,)
    return Distribution(space_, _point(space_.dim, space_.index_of(symbols)))


def make_matrix(domain: ProductSpace, codomain: ProductSpace,
                entries: Sequence[Sequence[Rational]]) -> StochasticMatrix:
    """Build a matrix from a row-major table (codomain rows x domain columns)."""
    if len(entries) != codomain.dim or any(len(r) != domain.dim for r in entries):
        raise NonStochastic(
            f"table is {len(entries)}x{len(entries[0]) if entries else 0}, "
            f"expected {codomain.dim}x{domain.dim}")
    return matrix_from_columns(domain, codomain, list(zip(*entries)))


def matrix_from_columns(domain: ProductSpace, codomain: ProductSpace,
                        cols: Sequence[Sequence[Rational]]) -> StochasticMatrix:
    return StochasticMatrix(
        domain, codomain,
        tuple(tuple(rational(v) for v in col) for col in cols))


def _trusted_matrix(domain: ProductSpace, codomain: ProductSpace,
                    cols: tuple[tuple[Fraction, ...], ...]) -> StochasticMatrix:
    """Construct without re-validating. Only for internal hot paths whose
    columns are stochastic by construction (normalized integer rows, point
    masses), and for the document loader, which checks each distinct column
    once itself."""
    m = object.__new__(StochasticMatrix)
    object.__setattr__(m, "domain", domain)
    object.__setattr__(m, "codomain", codomain)
    object.__setattr__(m, "cols", cols)
    return m


def _point(n: int, i: int) -> tuple[Fraction, ...]:
    """The point mass at index i of an n-state space."""
    return tuple(ONE if k == i else ZERO for k in range(n))


def _deterministic(domain: ProductSpace, codomain: ProductSpace,
                   images: Iterable[int]) -> StochasticMatrix:
    """The 0/1 matrix whose column j is the point mass at images[j], the
    codomain index of domain state j; point masses are stochastic by
    construction, so it is not re-validated."""
    n = codomain.dim
    return _trusted_matrix(domain, codomain, tuple(_point(n, i) for i in images))


def _as_symbol_tuple(value) -> tuple[str, ...]:
    if isinstance(value, tuple):
        return tuple(str(v) for v in value)
    return (str(value),)


def lift_function(domain: ProductSpace, codomain: ProductSpace,
                  mapping: Mapping) -> StochasticMatrix:
    """Lift a deterministic function to its 0/1 column-Dirac matrix.

    mapping's keys are domain joint-symbol tuples (bare symbols are accepted
    for one-factor spaces) and values are codomain joint-symbol tuples.
    """
    table: dict[int, int] = {}
    for key, val in mapping.items():
        table[domain.index_of(_as_symbol_tuple(key))] = codomain.index_of(_as_symbol_tuple(val))
    try:
        images = [table[j] for j in range(domain.dim)]
    except KeyError as exc:
        raise UnknownSymbol(f"function undefined on {domain.symbols_at(exc.args[0])}") from None
    return _deterministic(domain, codomain, images)


def identity(space_: ProductSpace) -> StochasticMatrix:
    return _deterministic(space_, space_, range(space_.dim))


def terminal(space_: ProductSpace) -> StochasticMatrix:
    """The map onto the scalar space (every column is the single entry 1)."""
    return _deterministic(space_, SCALAR, [0] * space_.dim)


def compose(second: StochasticMatrix, first: StochasticMatrix) -> StochasticMatrix:
    """Exact matrix product second . first (apply first, then second)."""
    if first.codomain != second.domain:
        raise SpaceMismatch(
            f"cannot compose: {first.codomain.factor_ids} != {second.domain.factor_ids}")
    nrows = second.codomain.dim
    cols = []
    for col in first.cols:
        acc = [ZERO] * nrows
        for k, w in enumerate(col):
            if w == 0:
                continue
            mid = second.cols[k]
            for i in range(nrows):
                v = mid[i]
                if v != 0:
                    acc[i] += w * v
        cols.append(tuple(acc))
    return StochasticMatrix(first.domain, second.codomain, tuple(cols))


def _concat_spaces(a: ProductSpace, b: ProductSpace, what: str) -> ProductSpace:
    overlap = set(a.factor_ids) & set(b.factor_ids)
    if overlap:
        raise FactorCollision(f"{what} share factor ids {sorted(overlap)}")
    return ProductSpace(a.factors + b.factors)


def tensor(m1: StochasticMatrix, m2: StochasticMatrix) -> StochasticMatrix:
    """Kronecker product under the mixed-radix index convention."""
    domain = _concat_spaces(m1.domain, m2.domain, "domains")
    codomain = _concat_spaces(m1.codomain, m2.codomain, "codomains")
    cols = []
    for c1 in m1.cols:
        for c2 in m2.cols:
            cols.append(tuple(v1 * v2 for v1 in c1 for v2 in c2))
    return StochasticMatrix(domain, codomain, tuple(cols))


def dual(m: StochasticMatrix) -> StochasticMatrix:
    """Transpose with columns renormalized: Bayes posterior over a uniform prior.

    Partial: a zero row makes the renormalization undefined (NotSurjective).
    """
    row_sums = [ZERO] * m.codomain.dim
    for col in m.cols:
        for i, v in enumerate(col):
            if v != 0:
                row_sums[i] += v
    zero_rows = [m.codomain.symbols_at(i) for i, s in enumerate(row_sums) if s == 0]
    if zero_rows:
        raise NotSurjective(f"zero rows at {zero_rows}; dual is undefined")
    cols = tuple(
        tuple(col[i] / row_sums[i] for col in m.cols)
        for i in range(m.codomain.dim))
    return StochasticMatrix(m.codomain, m.domain, cols)


def projection(space_: ProductSpace, kept_ids: Iterable[str]) -> StochasticMatrix:
    """Deterministic map sending each joint Dirac to its kept sub-Dirac."""
    sub = space_.subspace(kept_ids)
    return _deterministic(space_, sub, _restriction_table(space_, sub))


def diagonal(source: ProductSpace, targets: Sequence[ProductSpace]) -> StochasticMatrix:
    """Generalized diagonal: copy a joint Dirac into one block per target.

    Every factor of every target must occur in the source with the same
    alphabet. If the concatenated blocks would repeat a factor id, every
    block's ids are qualified with the block position ("0.x", "1.x", ...).
    """
    images = [0] * source.dim  # the targets' restrictions, as mixed-radix digits
    for t in targets:
        images = [i * t.dim + r for i, r in zip(images, _restriction_table(source, t))]
    all_ids = [fid for t in targets for fid in t.factor_ids]
    if len(set(all_ids)) != len(all_ids):
        blocks = [
            ProductSpace(tuple((f"{k}.{fid}", a) for fid, a in t.factors))
            for k, t in enumerate(targets)]
    else:
        blocks = list(targets)
    codomain = ProductSpace(tuple(f for b in blocks for f in b.factors))
    return _deterministic(source, codomain, images)


def with_spaces(m: StochasticMatrix, domain: ProductSpace | None = None,
                codomain: ProductSpace | None = None) -> StochasticMatrix:
    """Relabel factor ids without touching entries (alphabets must agree)."""
    domain = domain if domain is not None else m.domain
    codomain = codomain if codomain is not None else m.codomain
    for old, new in ((m.domain, domain), (m.codomain, codomain)):
        if tuple(a for _, a in old.factors) != tuple(a for _, a in new.factors):
            raise SpaceMismatch("relabeling must preserve alphabet sequence")
    return StochasticMatrix(domain, codomain, m.cols)


def marginal(d: Distribution, kept_ids: Iterable[str]) -> Distribution:
    sub = d.space.subspace(kept_ids)
    restrict = _restriction_table(d.space, sub)
    acc = [ZERO] * sub.dim
    for i, w in enumerate(d.weights):
        if w != 0:
            acc[restrict[i]] += w
    return Distribution(sub, tuple(acc))


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Relative entropy in bits; +inf when p has weight where q has none."""
    if p.space != q.space:
        raise SpaceMismatch("kl_divergence needs a common space")
    total = 0.0
    for pw, qw in zip(p.weights, q.weights):
        if pw == 0:
            continue
        if qw == 0:
            return math.inf
        if pw == qw:
            continue
        total += float(pw) * (
            math.log2(pw.numerator * qw.denominator)
            - math.log2(pw.denominator * qw.numerator))
    return total
