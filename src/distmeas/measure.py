"""Measurements and effective information.

A subsystem's mechanism is extended to the whole system so that mechanisms of
different subsystems share domain and codomain (missing inputs are ignored,
missing outputs are emitted uniformly). A measurement composes the dual of an
extended mechanism with an output distribution; effective information is the
relative entropy of a measurement against the measurement in a coarser
context, with the empty subsystem's uniform measurement as the null context.

extend and measure are the reference semantics. Reports are computed by
_measure_subsystem, which reads from lattice's glue kernel only the glued
rows a measurement selects; the kernel memoises submechanisms on the spec,
so every measurement of one spec shares them. Tests pin _measure_subsystem
to measure(extend(...)) with exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ZERO,
    Distribution,
    ProductSpace,
    StochasticMatrix,
    _restriction_indexer,
    compose,
    dual,
    kl_divergence,
    projection,
    support_violations,
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


def _measure_subsystem(spec: SystemSpec, sub: Subsystem, d_out: Distribution) -> Distribution:
    """measure(extend(spec, sub), d_out) without building any extended matrix.

    The extended mechanism's row at a system output is the glued row at the
    output's restriction to the subsystem's targets, emitted uniformly over
    the system inputs outside the subsystem. So the posterior is that glued
    row normalized, times the uniform distribution on the outside inputs.
    Each glued row comes from lattice's integer glue kernel, whose
    submechanisms are memoised on the spec; the per-target scales cancel in
    the normalization.
    """
    in_space = system_input_space(spec)
    out_space = system_output_space(spec)
    if d_out.space != out_space:
        raise SpaceMismatch("output distribution is not over the system's outputs")
    if sub.is_null:
        return uniform(in_space)
    domain = source_space(spec, sub)
    blocks = _numerator_blocks(spec, sub, domain)
    slots = [out_space.position(l) for l in sub.target_ids()]
    outside = in_space.dim // domain.dim
    posterior = [ZERO] * domain.dim
    for i, w in enumerate(d_out.weights):
        if w == 0:
            continue
        symbols = out_space.symbols_at(i)
        at = [out_space.factors[p][1].index(symbols[p]) for p in slots]
        (glued,) = _glued_rows(blocks, at)
        total = sum(glued)
        if total == 0:
            raise UnsupportedOutput(f"output {symbols} is never produced by the mechanism")
        scale = w / (total * outside)
        for c, v in enumerate(glued):
            if v:
                posterior[c] += v * scale
    spread = _restriction_indexer(in_space, domain)
    return Distribution(in_space, tuple(posterior[spread(j)] for j in range(in_space.dim)))


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


def measurement_report(spec: SystemSpec, sub: Subsystem,
                       context: Subsystem | None,
                       d_out: Distribution) -> MeasurementResult:
    """Measurements of subsystem and context at d_out plus their divergence."""
    if context is not None and not context.is_null:
        if not context.effective <= sub.effective:
            raise ContextNotContained(
                f"context {sorted(context.effective)} is not contained in "
                f"{sorted(sub.effective)}")
    fine = _measure_subsystem(spec, sub, d_out)
    if context is None or context.is_null:
        coarse = uniform(system_input_space(spec))
    else:
        coarse = _measure_subsystem(spec, context, d_out)
    ei = kl_divergence(fine, coarse)
    offenders = support_violations(fine, coarse) if ei == float("inf") else ()
    return MeasurementResult(sub, context, d_out, fine, coarse, ei, offenders)


def effective_information(spec: SystemSpec, sub: Subsystem,
                          context: Subsystem | None,
                          d_out: Distribution) -> float:
    """Bits of precision the subsystem's measurement adds over the context's."""
    return measurement_report(spec, sub, context, d_out).ei_bits
