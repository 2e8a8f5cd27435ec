"""Measurements and effective information.

A subsystem's mechanism is extended to the whole system so that mechanisms of
different subsystems share domain and codomain (missing inputs are ignored,
missing outputs are emitted uniformly). A measurement composes the dual of an
extended mechanism with an output distribution; effective information is the
relative entropy of a measurement against the measurement in a coarser
context, with the empty subsystem's uniform measurement as the null context.

extend and measure are the reference semantics. Reports read a subsystem's
posterior on its own inputs S_C instead (_posterior): the glued row each
output selects, computed at that output's symbols by lattice's integer glue
kernel (_glued_rows) and normalized. It is kept as an integer record
(_Record): the space S_C, one nonnegative integer weight per state and their
total, reduced by their common gcd so that equal posteriors have equal
records. The extended measurement is that posterior times the uniform
distribution on the inputs outside C, a factor both sides of every divergence
share, so each divergence is computed on S_C alone, with a context D within C
contributing m_D(x|_D) / |S_C - S_D|. The maps restricting one space's
states to another's are lattice's memoised ones. Every ei, the lattice
command's arrows and entangle's block terms included, is one formula (_ei) of
sums sum_x p(x) log2 q(x|_Q) that read q's log table (_cross), and one
integer test (_is_product) decides whether each is exactly 0, whatever its
float. A log table (_log_table) holds 0.0 where q has no weight. Every
measurement is finite by construction, a zero of q being a zero of p, so a
cross term sums every state of p's space through C-level iterators, and the
terms at p's zeros are +-0.0, which leave the bits of the sum unchanged.

Each memo holds one kind of entry and lives as long as what it reads. What
is measured at one output (_measurements) lives as long as that output does:
its support; its records, one entry per measured subsystem holding the
record, its log table and sum_x p log2 p (_log_terms); and its blocks,
entangle's block terms, which gamma's partitions share. A record reads one
glued row per target at each output and keeps no row (_posterior); the
lattice command's walk shares the rows it selects, restricted onto each S_C,
through the dict it passes to _glued_posterior. No report builds a Fraction
distribution on the whole system: _spread does, for tests that pin the
posterior times the uniform factor to measure(extend(...)) with exact
equality.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul, truediv
from typing import NamedTuple, Sequence

from .errors import ContextNotContained, SpaceMismatch, UnsupportedOutput
from .lattice import (
    Parts,
    Subsystem,
    _glued_rows,
    _parts,
    _restriction,
    bottom,
    glue_mechanism,
    source_space,
    target_space,
    top,
)
from .stoch import (
    ZERO,
    Distribution,
    ProductSpace,
    StochasticMatrix,
    compose,
    dual,
    projection,
    terminal,
    uniform,
)
from .system import SystemSpec


def system_input_space(spec: SystemSpec) -> ProductSpace:
    return source_space(spec, top(spec))


def system_output_space(spec: SystemSpec) -> ProductSpace:
    return target_space(spec, top(spec))


@dataclass(frozen=True)
class ExtendedMechanism:
    """A subsystem's glued mechanism, extended to map all system inputs to a
    distribution over all system outputs."""

    subsystem: Subsystem
    matrix: StochasticMatrix


def null_mechanism(spec: SystemSpec) -> ExtendedMechanism:
    """Mechanism of the empty subsystem: every column is uniform outputs."""
    in_space = system_input_space(spec)
    out_space = system_output_space(spec)
    m = compose(uniform(out_space).as_matrix(), terminal(in_space))
    return ExtendedMechanism(bottom(spec), m)


def extend(spec: SystemSpec, sub: Subsystem) -> ExtendedMechanism:
    """Extend a subsystem's glued mechanism to the whole system."""
    if sub.is_null:
        return ExtendedMechanism(sub, null_mechanism(spec).matrix)
    glued = glue_mechanism(spec, sub)
    in_space = system_input_space(spec)
    out_space = system_output_space(spec)
    drop_inputs = projection(in_space, sub.source_ids())
    insert_outputs = dual(projection(out_space, sub.target_ids()))
    return ExtendedMechanism(sub, compose(insert_outputs, compose(glued, drop_inputs)))


def measure(mech: ExtendedMechanism, d_out: Distribution) -> Distribution:
    """Bayes-invert the mechanism at the observed output distribution.

    Each output in d_out's support selects a row of the mechanism, normalized
    to a posterior over system inputs; rows that are identically zero cannot
    be observed and raise UnsupportedOutput.
    """
    m = mech.matrix
    if d_out.space != m.codomain:
        raise SpaceMismatch("output distribution is not over the system's outputs")
    acc = [ZERO] * m.domain.dim
    for i, w in enumerate(d_out.weights):
        if w == 0:
            continue
        row = m.row(i)
        total = sum(row, ZERO)
        if total == 0:
            raise UnsupportedOutput(
                f"output {m.codomain.symbols_at(i)} is never produced by the mechanism")
        for j, v in enumerate(row):
            if v != 0:
                acc[j] += w * v / total
    return Distribution(m.domain, tuple(acc))


class _Record(NamedTuple):
    """A measurement on a subsystem's own inputs S_C, in integers: state i of
    space has weight weights[i] / total, and gcd(total, *weights) is 1."""

    space: ProductSpace
    weights: tuple[int, ...]
    total: int


class _Output(NamedTuple):
    """What is measured at one output distribution d_out.

    support lists the outputs d_out gives weight, in state order, as pairs
    of (weight, symbol index by system target id, in id order). records
    holds each measured subsystem's posterior, log table and sum_x p log2 p
    in one entry by its effective pairs (_log_terms), and blocks entangle's
    block terms by (effective pairs, block) (entangle._block_terms)."""

    support: list[tuple[Fraction, dict[str, int]]]
    records: dict
    blocks: dict


def _measurements(spec: SystemSpec, d_out: Distribution) -> _Output:
    """What is measured at d_out, which lives as long as d_out does:
    memoised in spec._outputs by id(d_out).

    It is keyed by d_out's identity, not its value, so that a lookup never
    hashes the distribution's Fractions. The entry does not keep d_out
    alive: it is dropped when d_out is collected, before the identity can
    be reused. Raises SpaceMismatch, and makes no entry, unless d_out is
    over the system's outputs.
    """
    memo = spec._outputs
    entry = memo.get(id(d_out))
    if entry is None:
        out_space = system_output_space(spec)
        if d_out.space != out_space:
            raise SpaceMismatch("output distribution is not over the system's outputs")
        support = [(w, dict(zip(out_space.factor_ids, out_space.digits_at(i))))
                   for i, w in enumerate(d_out.weights) if w]
        entry = memo[id(d_out)] = _Output(support, {}, {})
        weakref.finalize(d_out, memo.pop, id(d_out), None)
    return entry


def _posterior(spec: SystemSpec, sub: Subsystem, d_out: Distribution) -> _Record:
    """The subsystem's measurement at d_out, on its own input space S_C:
    _glued_posterior at the subsystem's glue kernel parts and S_C.

    measure(extend(spec, sub), d_out) is this posterior times the uniform
    distribution on the system inputs outside S_C. The null subsystem's
    posterior is the point mass on the scalar space. It is not memoised
    here: _log_terms memoises it with its log terms.
    """
    return _glued_posterior(spec, _parts(sub), source_space(spec, sub), d_out)


def _log_terms(spec: SystemSpec, sub: Subsystem,
               d_out: Distribution) -> tuple[_Record, list[float], float]:
    """The subsystem's posterior p at d_out (_posterior), its log table
    (_log_table) and sum_x p log2 p: what every ei and block term reads of a
    record. Memoised in the output's records by sub's effective pairs."""
    memo = _measurements(spec, d_out).records
    terms = memo.get(sub.effective)
    if terms is None:
        p = _posterior(spec, sub, d_out)
        logs = _log_table(p)
        terms = memo[sub.effective] = (p, logs, _cross(spec, p, p, logs))
    return terms


def _glued_posterior(spec: SystemSpec, parts: Parts, domain: ProductSpace,
                     d_out: Distribution, walk: dict | None = None) -> _Record:
    """The measurement at d_out, on its input space S_C, of the subsystem
    whose glue kernel parts (lattice._parts) and S_C are given.

    Each output in d_out's support (_measurements) selects the glued row at
    the subsystem's targets' symbols, read by the glue kernel with walk, a
    walk's memo, or with none for a single record. The rows of a mixed
    output are summed over one common denominator, the record's total,
    which is reduced with the weights by their one gcd."""
    rows = []
    for w, at in _measurements(spec, d_out).support:
        (glued,) = _glued_rows(spec, parts, domain, at, walk)
        total = sum(glued)
        if total == 0:
            symbols = tuple(a.symbols[k] for (_, a), k in zip(d_out.space.factors, at.values()))
            raise UnsupportedOutput(f"output {symbols} is never produced by the mechanism")
        rows.append((w, glued, total))
    if len(rows) == 1:  # a point mass: its weight is 1
        ((_, weights, denominator),) = rows
    else:
        # sum_rows w * glued / total, over one common denominator
        denominator = math.lcm(*(w.denominator * total for w, _, total in rows))
        weights = [0] * domain.dim
        for w, glued, total in rows:
            scale = w.numerator * (denominator // (w.denominator * total))
            weights = [n + scale * v for n, v in zip(weights, glued)]
    g = math.gcd(denominator, *weights)
    if g > 1:
        weights = map(floordiv, weights, repeat(g))
    return _Record(domain, tuple(weights), denominator // g)


def _spread(spec: SystemSpec, posterior: _Record) -> Distribution:
    """A posterior on S_C times the uniform distribution on the rest of the
    system's inputs, as a Fraction distribution."""
    in_space = system_input_space(spec)
    denominator = posterior.total * (in_space.dim // posterior.space.dim)
    weights = [Fraction(n, denominator) for n in posterior.weights]
    restrict = _restriction(spec, in_space, posterior.space)
    return Distribution(in_space, tuple(weights[i] for i in restrict))


def _log_table(q: _Record) -> list[float]:
    """log2 q(x) for each state x of q's space, and 0.0 where q(x) is 0.

    A zero of q is a zero of every record whose cross term reads q's table
    (_cross), so the entry 0.0 is only ever multiplied by a zero weight."""
    log_total = math.log2(q.total)
    return [math.log2(n) - log_total if n else 0.0 for n in q.weights]


def _cross(spec: SystemSpec, p: _Record, q: _Record, logs: Sequence[float]) -> float:
    """sum_x p(x) log2 q(x|_Q) in bits, for a record q on a subspace Q of p's
    space that has weight wherever p does, given q's log table (_log_table).
    With q = p it is sum_x p log2 p, the negative of p's entropy.

    Every state of p's space is summed, by C-level iterators: a state where p
    has no weight adds +-0.0, which leaves the bits of the sum as they are.
    Where Q is p's space, q's table is read without the restriction map."""
    probs = map(truediv, p.weights, repeat(p.total))
    if q.space.factor_ids == p.space.factor_ids:
        return sum(map(mul, probs, logs))
    return sum(map(mul, probs, map(logs.__getitem__, _restriction(spec, p.space, q.space))))


def _is_product(spec: SystemSpec, p: _Record, factors: Sequence[_Record]) -> bool:
    """Whether a posterior p on S_C is exactly the product of factors (on
    disjoint subspaces of S_C) times the uniform distribution on the rest.

    p and the product are compared in integers: first at state 0 and at the
    last state of S_C, then state by state, up to the first state where they
    differ."""
    # q(x) = qw[x] / qd over p's states, qw computed as compared
    qd = p.space.dim // math.prod(f.space.dim for f in factors)
    qd *= math.prod(f.total for f in factors)
    # state 0 and the last state of S_C restrict to every factor's state 0
    # and last state, so they are compared before any restriction map is read
    pt = p.total
    for x in (0, -1):
        if p.weights[x] * qd != pt * math.prod(f.weights[x] for f in factors):
            return False
    qw = repeat(1)
    for f in factors:
        qw = map(mul, qw, map(f.weights.__getitem__, _restriction(spec, p.space, f.space)))
    return all(a * qd == pt * n for a, n in zip(p.weights, qw))


def _ei(spec: SystemSpec, p: _Record, neg_entropy: float, q: _Record,
        logs: Sequence[float]) -> float:
    """ei(B / D) = sum_x p log2 p - sum_x p(x) log2 q(x|_D) + log2(|S_B| / |S_D|)
    in bits, for the posteriors p of B and q of D within B, given the first
    sum and q's log table (unread when S_D has one state, where the second
    sum is 0.0).

    It is exactly 0.0 when p is q spread over S_B, however the float sums
    round: state 0 of S_B, which restricts to state 0 of S_D, is compared
    first, inline on this hot path, and _is_product compares the rest."""
    k = p.space.dim // q.space.dim
    cross = _cross(spec, p, q, logs) if q.space.dim > 1 else 0.0
    ei = neg_entropy - cross + math.log2(k)
    if (ei and p.weights[0] * k * q.total == p.total * q.weights[0]
            and _is_product(spec, p, (q,))):
        return 0.0
    return ei


def effective_information(spec: SystemSpec, sub: Subsystem,
                          context: Subsystem | None,
                          d_out: Distribution) -> float:
    """Bits of precision the subsystem's measurement adds over the context's."""
    if context is None:
        context = bottom(spec)
    elif not context.effective <= sub.effective:
        raise ContextNotContained(
            f"context {sorted(context.effective)} is not contained in "
            f"{sorted(sub.effective)}")
    p, _, neg_entropy = _log_terms(spec, sub, d_out)
    q, logs, _ = _log_terms(spec, context, d_out)
    return _ei(spec, p, neg_entropy, q, logs)
