"""Measurements and effective information.

A subsystem's mechanism is extended to the whole system so that mechanisms of
different subsystems share domain and codomain (missing inputs are ignored,
missing outputs are emitted uniformly). A measurement composes the dual of an
extended mechanism with an output distribution; effective information is the
relative entropy of a measurement against the measurement in a coarser
context, with the empty subsystem's uniform measurement as the null context.

extend and measure are the reference semantics. Reports read a subsystem's
posterior on its own inputs S_C instead (_posterior): the glued rows the
output selects, read from lattice's integer glue kernel and normalized. The
extended measurement is that posterior times the uniform distribution on the
inputs outside C, a factor both sides of every divergence share, so each
divergence is computed on S_C alone (_divergence), with a context D within C
contributing m_D(x|_D) / |S_C - S_D|. Posteriors are memoised on the spec
per output. Tests pin the posterior times the uniform factor to
measure(extend(...)) with exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ContextNotContained, SpaceMismatch, UnsupportedOutput
from .lattice import (
    Subsystem,
    _glued_rows,
    _numerator_blocks,
    bottom,
    glue_mechanism,
    source_space,
    target_space,
    top,
)
from .stoch import (
    ONE,
    ZERO,
    Distribution,
    ProductSpace,
    StochasticMatrix,
    _restriction_indexer,
    _trusted_distribution,
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


def _measurements(spec: SystemSpec, d_out: Distribution) -> dict:
    """The spec's memo of what is measured at d_out: posteriors by effective
    pairs (_posterior) and entangle's block terms.

    It is keyed by d_out's identity, not its value, so that a lookup never
    hashes the distribution's Fractions. The entry keeps d_out alive, so the
    identity cannot be reused while the entry exists.
    """
    entry = spec._glue_memo.get(id(d_out))
    if entry is None:
        entry = spec._glue_memo[id(d_out)] = (d_out, {})
    return entry[1]


def _posterior(spec: SystemSpec, sub: Subsystem, d_out: Distribution) -> Distribution:
    """The subsystem's measurement at d_out, on its own input space S_C.

    measure(extend(spec, sub), d_out) is this posterior times the uniform
    distribution on the system inputs outside S_C. Each output in d_out's
    support selects one glued row from lattice's integer glue kernel, which
    is normalized (the per-target scales cancel) and weighted. The null
    subsystem's posterior is the point mass on the scalar space. Memoised
    per output (_measurements).
    """
    memo = _measurements(spec, d_out)
    posterior = memo.get(sub.effective)
    if posterior is None:
        posterior = memo[sub.effective] = _glued_posterior(spec, sub, d_out)
    return posterior


def _glued_posterior(spec: SystemSpec, sub: Subsystem, d_out: Distribution) -> Distribution:
    out_space = system_output_space(spec)
    if d_out.space != out_space:
        raise SpaceMismatch("output distribution is not over the system's outputs")
    domain = source_space(spec, sub)
    if sub.is_null:
        return _trusted_distribution(domain, (ONE,))
    blocks = _numerator_blocks(spec, sub, domain)
    slots = [out_space.position(l) for l in sub.target_ids()]
    rows = []
    for i, w in enumerate(d_out.weights):
        if w == 0:
            continue
        symbols = out_space.symbols_at(i)
        at = [out_space.factors[p][1].index(symbols[p]) for p in slots]
        (glued,) = _glued_rows(blocks, at)
        total = sum(glued)
        if total == 0:
            raise UnsupportedOutput(f"output {symbols} is never produced by the mechanism")
        rows.append((w, glued, total))
    # sum_rows w * glued / total, over one common denominator
    denominator = math.lcm(*(w.denominator * total for w, _, total in rows))
    numerators = [0] * domain.dim
    for w, glued, total in rows:
        scale = w.numerator * (denominator // (w.denominator * total))
        numerators = [n + scale * v for n, v in zip(numerators, glued)]
    return _trusted_distribution(domain, tuple(Fraction(n, denominator) for n in numerators))


def _spread(spec: SystemSpec, posterior: Distribution) -> Distribution:
    """A posterior on S_C times the uniform distribution on the rest of the
    system's inputs."""
    in_space = system_input_space(spec)
    outside = in_space.dim // posterior.space.dim
    weights = [w / outside for w in posterior.weights]
    restrict = _restriction_indexer(in_space, posterior.space)
    return Distribution(in_space, tuple(weights[restrict(j)] for j in range(in_space.dim)))


def _divergence(p: Distribution, factors: Sequence[Distribution] = ()) -> float:
    """Relative entropy in bits of a posterior p on S_C from q, the product of
    factors (distributions on disjoint subspaces of S_C) times the uniform
    distribution on the rest of S_C; +inf where p has weight and q has none.

    Both sides of a divergence between extended measurements share the
    uniform factor outside S_C, so this equals their divergence on the whole
    system. The factors are the one measurement of a context D within C, so
    that q(x) = m_D(x|_D) / |S_C - S_D|; none for the null context, where q is
    uniform on S_C; or the measurements of a partition's blocks. States where
    p and q agree add exactly 0, so equal distributions give exactly 0.0.
    """
    lookups = [(f.weights, _restriction_indexer(p.space, f.space)) for f in factors]
    rest = p.space.dim // math.prod(f.space.dim for f in factors)
    total = 0.0
    for i, pw in enumerate(p.weights):
        a, b = pw.numerator, pw.denominator
        if not a:
            continue
        num, den = a * rest, b  # of p(x) / q(x)
        for weights, restrict in lookups:
            qw = weights[restrict(i)]
            num *= qw.denominator
            den *= qw.numerator
        if not den:
            return math.inf
        if num != den:
            total += a / b * (math.log2(num) - math.log2(den))
    return total


def _infinite_states(spec: SystemSpec, p: Distribution,
                     factors: Sequence[Distribution]) -> tuple[tuple[str, ...], ...]:
    """The system input states where the extended p has weight and the
    extended product of factors has none, in the order support_violations
    gives them: the sources of an infinite _divergence(p, factors)."""
    lookups = [(f.weights, _restriction_indexer(p.space, f.space)) for f in factors]
    bad = {i for i, pw in enumerate(p.weights)
           if pw and any(weights[restrict(i)] == 0 for weights, restrict in lookups)}
    in_space = system_input_space(spec)
    restrict = _restriction_indexer(in_space, p.space)
    return tuple(in_space.symbols_at(j) for j in range(in_space.dim) if restrict(j) in bad)


@dataclass(frozen=True)
class MeasurementResult:
    """A fine measurement compared against a coarser context."""

    subsystem: Subsystem
    context: Subsystem | None
    output: Distribution
    fine: Distribution
    coarse: Distribution
    ei_bits: float
    infinite_states: tuple[tuple[str, ...], ...] = ()


def _fine_and_coarse(spec: SystemSpec, sub: Subsystem, context: Subsystem | None,
                     d_out: Distribution) -> tuple[Distribution, Distribution]:
    if context is not None and not context.is_null:
        if not context.effective <= sub.effective:
            raise ContextNotContained(
                f"context {sorted(context.effective)} is not contained in "
                f"{sorted(sub.effective)}")
    fine = _posterior(spec, sub, d_out)
    return fine, _posterior(spec, bottom(spec) if context is None else context, d_out)


def measurement_report(spec: SystemSpec, sub: Subsystem,
                       context: Subsystem | None,
                       d_out: Distribution) -> MeasurementResult:
    """Measurements of subsystem and context at d_out plus their divergence."""
    fine, coarse = _fine_and_coarse(spec, sub, context, d_out)
    ei = _divergence(fine, (coarse,))
    offenders = _infinite_states(spec, fine, (coarse,)) if ei == math.inf else ()
    return MeasurementResult(sub, context, d_out, _spread(spec, fine), _spread(spec, coarse),
                             ei, offenders)


def effective_information(spec: SystemSpec, sub: Subsystem,
                          context: Subsystem | None,
                          d_out: Distribution) -> float:
    """Bits of precision the subsystem's measurement adds over the context's."""
    fine, coarse = _fine_and_coarse(spec, sub, context, d_out)
    return _divergence(fine, (coarse,))
