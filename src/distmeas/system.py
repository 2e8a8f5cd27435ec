"""Distributed dynamical systems: directed graphs of occasions with
per-occasion stochastic mechanisms, plus constructors that unroll cellular
automata (deterministic tables, life rule, Hopfield units) into occasion
graphs over a finite time window.

Conventions: an occasion's mechanism has domain equal to the canonical
(id-sorted) product of its source alphabets and codomain equal to its own
one-factor space. Occasions without sources carry a Distribution instead
(initial condition or noise source). Unrolled occasions are named "cell@t".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    BudgetExceeded,
    EmptyWindow,
    InvalidAutomaton,
    LengthMismatch,
    NonpositiveTemperature,
    UnknownOccasion,
)
from .stoch import (
    BINARY,
    Alphabet,
    Distribution,
    ProductSpace,
    StochasticMatrix,
    _deterministic,
    _trusted_matrix,
    canonical_space,
    dirac,
    matrix_from_columns,
    rational,
)


@dataclass(frozen=True)
class Occasion:
    id: str
    alphabet: Alphabet


@dataclass(frozen=True)
class SystemSpec:
    """D1-D3 data: occasions, edges, mechanisms and source distributions."""

    occasions: tuple[Occasion, ...]
    edges: frozenset[tuple[str, str]]
    mechanisms: Mapping[str, StochasticMatrix]
    sources: Mapping[str, Distribution] = field(default_factory=dict)

    def occasion(self, occ_id: str) -> Occasion:
        for o in self.occasions:
            if o.id == occ_id:
                return o
        raise UnknownOccasion(f"no occasion {occ_id!r}")

    def alphabet_of(self, occ_id: str) -> Alphabet:
        return self.occasion(occ_id).alphabet

    def occasion_ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.occasions)

    def sources_of(self, occ_id: str) -> tuple[str, ...]:
        return tuple(sorted(k for (k, l) in self.edges if l == occ_id))

    def output_space(self, occ_id: str) -> ProductSpace:
        return canonical_space({occ_id: self.alphabet_of(occ_id)})

    @cached_property
    def _glue_memo(self) -> dict:
        # what depends on the spec alone, kept as long as the spec, which is
        # never changed after it is built: lattice's source and target
        # spaces, its submechanisms' integer rows by (target, inside source
        # ids), each target's scaled full mechanism among them, and its
        # restriction maps by (domain ids, subspace ids), which every target,
        # measure and entangle share. And by id(d_out), what measure keeps
        # of an output while the output lives: its support, each measured
        # subsystem's posterior with its log terms in one entry, and
        # entangle's block terms. Rows read through the restriction onto a
        # domain are not kept here but by the walk that reads them
        return {}


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate(spec: SystemSpec) -> list[Violation]:
    """Structural diagnostics; an empty list means every invariant holds."""
    out: list[Violation] = []
    ids = [o.id for o in spec.occasions]
    known = set(ids)
    for i in sorted({x for x in ids if ids.count(x) > 1}):
        out.append(Violation("DuplicateOccasion", f"occasion id {i!r} repeats"))
    for (a, b) in sorted(spec.edges):
        for end in (a, b):
            if end not in known:
                out.append(Violation("UnknownOccasion", f"edge ({a},{b}) references {end!r}"))
    for occ_id in sorted(spec.mechanisms):
        if occ_id not in known:
            out.append(Violation("UnknownOccasion", f"mechanism for unknown occasion {occ_id!r}"))
    for occ_id in sorted(spec.sources):
        if occ_id not in known:
            out.append(Violation("UnknownOccasion", f"source distribution for unknown occasion {occ_id!r}"))

    for occ in spec.occasions:
        srcs = tuple(k for k in spec.sources_of(occ.id) if k in known)
        if srcs:
            m = spec.mechanisms.get(occ.id)
            if m is None:
                out.append(Violation("MissingMechanism", f"occasion {occ.id!r} has sources {srcs} but no mechanism"))
                continue
            want = canonical_space({k: spec.alphabet_of(k) for k in srcs})
            if m.domain != want:
                if set(m.domain.factor_ids) == set(want.factor_ids) and all(
                        m.domain.alphabet_of(f) == want.alphabet_of(f) for f in want.factor_ids):
                    out.append(Violation(
                        "DomainOrderMismatch",
                        f"mechanism of {occ.id!r} orders sources {m.domain.factor_ids}, canonical is {want.factor_ids}"))
                else:
                    out.append(Violation(
                        "DomainMismatch",
                        f"mechanism of {occ.id!r} has domain {m.domain.factor_ids}, expected {want.factor_ids}"))
            if m.codomain != spec.output_space(occ.id):
                out.append(Violation(
                    "CodomainMismatch",
                    f"mechanism of {occ.id!r} must output over its own alphabet"))
            if occ.id in spec.sources:
                out.append(Violation(
                    "UnexpectedSource",
                    f"occasion {occ.id!r} has sources but also a source distribution"))
        else:
            if occ.id in spec.mechanisms:
                out.append(Violation(
                    "UnexpectedMechanism",
                    f"sourceless occasion {occ.id!r} carries a mechanism"))
            d = spec.sources.get(occ.id)
            if d is None:
                out.append(Violation(
                    "MissingSource",
                    f"sourceless occasion {occ.id!r} needs a distribution"))
            elif d.space != spec.output_space(occ.id):
                out.append(Violation(
                    "SourceSpaceMismatch",
                    f"distribution of {occ.id!r} is over the wrong space"))
    return out


# -- automata ---------------------------------------------------------------

@dataclass(frozen=True)
class AutomatonSpec:
    """A cellular automaton to be unrolled over a finite window.

    neighborhoods list the inputs of each cell in rule order; entries are
    cell ids (lag 1) or (cell id, lag) pairs. A rule is a table from every
    neighborhood-ordered symbol tuple to a symbol of the cell (unroll reads it
    as its 0/1 matrix), a stochastic matrix from the neighbors' alphabets, in
    that order, onto the cell's symbols, or a {time: rule} mapping of such
    rules. initial gives each cell's state at the window start as a symbol or
    a Distribution.
    """

    cells: tuple[str, ...]
    neighborhoods: Mapping[str, tuple[tuple[str, int], ...]]
    rules: Mapping[str, object]
    window: tuple[int, int]
    initial: Mapping[str, object]
    alphabets: Mapping[str, Alphabet] = field(default_factory=dict)

    def alphabet_of(self, cell: str) -> Alphabet:
        return self.alphabets.get(cell, BINARY)


def automaton(cells, neighborhoods, rules, window, initial, alphabets=None) -> AutomatonSpec:
    cells = tuple(str(c) for c in cells)
    norm = {}
    for cell, nbrs in neighborhoods.items():
        entries = []
        for n in nbrs:
            if isinstance(n, (tuple, list)):
                entries.append((str(n[0]), _integer(n[1], f"lag of {n[0]!r} for cell {cell!r}",
                                                    InvalidAutomaton)))
            else:
                entries.append((str(n), 1))
        norm[str(cell)] = tuple(entries)
    window = (_integer(window[0], "window start", InvalidAutomaton),
              _integer(window[1], "window end", InvalidAutomaton))
    spec = AutomatonSpec(cells, norm, dict(rules), window, dict(initial), dict(alphabets or {}))
    for cell in cells:
        if cell not in spec.neighborhoods:
            raise InvalidAutomaton(f"cell {cell!r} has no neighborhood")
        for k, lag in spec.neighborhoods[cell]:
            if k not in cells:
                raise InvalidAutomaton(f"neighborhood of {cell!r} references unknown cell {k!r}")
            if lag < 1:
                raise InvalidAutomaton(f"lag must be >= 1, got {lag} for {cell!r}")
        if cell not in spec.rules:
            raise InvalidAutomaton(f"cell {cell!r} has no rule")
        if cell not in spec.initial:
            raise InvalidAutomaton(f"cell {cell!r} has no initial condition")
    return spec


def _integer(value, what: str, error: type[Exception]) -> int:
    """value, which must be an int: not a float, a string or a bool; else
    error, saying what must be one."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _rule_at(auto: AutomatonSpec, cell: str, t: int):
    rule = auto.rules[cell]
    if isinstance(rule, Mapping) and rule and all(isinstance(k, int) for k in rule):
        try:
            return rule[t]
        except KeyError:
            raise InvalidAutomaton(f"cell {cell!r} has no rule for time {t}") from None
    return rule


# the most joint inputs a rule may have: a rule is built as a table entry or
# a column for each of them before it can be refused
_RULE_INPUTS_BUDGET = 2 ** 16


def _check_rule_inputs(cell: str, sizes: Sequence[int]) -> None:
    """Raise BudgetExceeded when a rule of cell over inputs of these alphabet
    sizes has more joint inputs than _RULE_INPUTS_BUDGET."""
    count = math.prod(sizes)
    if count > _RULE_INPUTS_BUDGET:
        raise BudgetExceeded(
            f"the rule of {cell!r} has {count} joint inputs over its {len(sizes)} "
            f"neighbors, over the budget of {_RULE_INPUTS_BUDGET}")


def _rule_matrix(auto: AutomatonSpec, cell: str, rule) -> StochasticMatrix:
    """rule as a stochastic matrix from cell's neighbors, in order, onto cell's
    symbols (a table as its 0/1 columns), or InvalidAutomaton naming cell."""
    nbrs = auto.neighborhoods[cell]
    _check_rule_inputs(cell, [len(auto.alphabet_of(k)) for k, _ in nbrs])
    outputs = canonical_space({"out": auto.alphabet_of(cell)})
    if isinstance(rule, StochasticMatrix):
        if len(rule.domain.factors) != len(nbrs):
            raise InvalidAutomaton(
                f"rule arity of {cell!r} does not match neighborhood size {len(nbrs)}")
        for (_, a), (k, _) in zip(rule.domain.factors, nbrs):
            if a != auto.alphabet_of(k):
                raise InvalidAutomaton(f"rule of {cell!r} reads {a.symbols} from {k!r}, not "
                                       f"{auto.alphabet_of(k).symbols}")
        if rule.codomain.dim != outputs.dim:
            raise InvalidAutomaton(f"rule of {cell!r} has {rule.codomain.dim} outputs, for the "
                                   f"{outputs.dim} symbols of {cell!r}")
        return rule
    if not isinstance(rule, Mapping):
        raise InvalidAutomaton(f"rule of {cell!r} is neither a table nor a stochastic matrix")
    for key in rule:
        if len(key) != len(nbrs):
            raise InvalidAutomaton(
                f"rule of {cell!r} has key {key} of {len(key)} symbols, for a "
                f"neighborhood of {len(nbrs)}")
        for symbol, (k, _) in zip(key, nbrs):
            if symbol not in auto.alphabet_of(k).symbols:
                raise InvalidAutomaton(
                    f"rule of {cell!r} has key {key}, whose {symbol!r} is not a symbol "
                    f"of {k!r}")
    inputs = ProductSpace(tuple((f"n{i}", auto.alphabet_of(k)) for i, (k, _) in enumerate(nbrs)))
    index = {s: i for i, s in enumerate(auto.alphabet_of(cell).symbols)}
    images = []
    for joint in inputs.iter_symbols():
        if joint not in rule:
            raise InvalidAutomaton(f"rule of {cell!r} undefined on {joint}")
        if str(rule[joint]) not in index:
            raise InvalidAutomaton(f"rule of {cell!r} has key {joint}, whose value "
                                   f"{rule[joint]!r} is not a symbol of {cell!r}")
        images.append(index[str(rule[joint])])
    return _deterministic(inputs, outputs, images)


def _mechanism_from_rule(auto: AutomatonSpec, cell: str, t: int, rule: StochasticMatrix):
    """Build (present source ids, mechanism or distribution) for cell@t from
    rule, its rule at t as _rule_matrix returns it.

    Neighborhood entries pointing before the window start are averaged out
    uniformly (extrinsic noise); if nothing remains the result is the rule's
    uniform average, a Distribution.
    """
    present = {}  # (alphabet, stride in the rule's inputs) by occasion id
    offsets = [0]  # the rule's input index of each combination of the absent slots
    stride = rule.domain.dim
    for k, lag in auto.neighborhoods[cell]:
        a = auto.alphabet_of(k)
        stride //= len(a)
        if t - lag < auto.window[0]:
            offsets = [o + d * stride for o in offsets for d in range(len(a))]
        else:  # an occasion in two slots reads the same digit in both
            occ = f"{k}@{t - lag}"
            present[occ] = (a, stride + present.get(occ, (a, 0))[1])
    domain = canonical_space({occ: a for occ, (a, _) in present.items()})
    base = [0]  # the rule's input index of each joint input of domain, the absent slots at 0
    for a, stride in (present[occ] for occ in domain.factor_ids):
        base = [b + d * stride for b in base for d in range(len(a))]
    cols = tuple(tuple(sum(v) / len(offsets) for v in zip(*(rule.cols[b + o] for o in offsets)))
                 for b in base)
    out_space = canonical_space({f"{cell}@{t}": auto.alphabet_of(cell)})
    if not present:
        return (), Distribution(out_space, cols[0])
    return domain.factor_ids, _trusted_matrix(domain, out_space, cols)  # averages of stochastic columns


def unroll(auto: AutomatonSpec) -> SystemSpec:
    """Unroll an automaton into one occasion per (cell, time point)."""
    t_alpha, t_omega = auto.window
    if t_omega < t_alpha:
        raise EmptyWindow(f"window [{t_alpha}, {t_omega}] is empty")
    occasions = []
    edges = set()
    mechanisms = {}
    sources = {}
    matrices = {}  # each rule in use as _rule_matrix returns it, by (cell, id of the rule)
    for t in range(t_alpha, t_omega + 1):
        for cell in auto.cells:
            occ_id = f"{cell}@{t}"
            occasions.append(Occasion(occ_id, auto.alphabet_of(cell)))
            if t == t_alpha:
                init = auto.initial[cell]
                out_space = canonical_space({occ_id: auto.alphabet_of(cell)})
                if isinstance(init, Distribution):
                    sources[occ_id] = Distribution(out_space, init.weights)
                else:
                    sources[occ_id] = dirac(out_space, str(init))
                continue
            rule = _rule_at(auto, cell, t)
            if (cell, id(rule)) not in matrices:
                matrices[cell, id(rule)] = _rule_matrix(auto, cell, rule)
            present, mech = _mechanism_from_rule(auto, cell, t, matrices[cell, id(rule)])
            if not present:
                sources[occ_id] = mech
                continue
            edges.update((src, occ_id) for src in present)
            mechanisms[occ_id] = mech
    return SystemSpec(tuple(occasions), frozenset(edges), mechanisms, sources)


def life_rule(neighborhood_size: int, self_index: int = 0) -> dict[tuple[str, ...], str]:
    """Game-of-life table over a neighborhood that includes the cell itself.

    Output is "1" iff exactly three non-self neighbors were "1", or the cell
    was "1" and exactly two non-self neighbors were.
    """
    if not 0 <= self_index < neighborhood_size:
        raise InvalidAutomaton(
            f"self_index {self_index} outside neighborhood of size {neighborhood_size}")
    inputs = ProductSpace(tuple((f"n{i}", BINARY) for i in range(neighborhood_size)))
    table = {}
    for joint in inputs.iter_symbols():
        self_on = joint[self_index] == "1"
        others = joint.count("1") - self_on
        alive = others == 3 or (self_on and others == 2)
        table[joint] = "1" if alive else "0"
    return table


def hopfield_rule(weights: Sequence, temperature,
                  snap_denominator: int = 10 ** 12) -> StochasticMatrix:
    """Stochastic unit: p(1|n) = e^(h/T) / (e^(h/T) + 1) with h = sum_j w_j n_j.

    The domain uses positional placeholder ids n0, n1, ...; unroll() reindexes
    them to actual occasion ids. Entries are evaluated in floating point and
    snapped to rationals with the given denominator D, so columns sum to
    exactly 1. The snapped p(1) is clamped to [1/D, 1 - 1/D], which keeps
    every entry strictly positive however large |h|/T is.
    """
    temperature = rational(temperature)
    if temperature <= 0:
        raise NonpositiveTemperature(f"temperature {temperature} must be > 0")
    if snap_denominator < 2:
        raise InvalidAutomaton(f"snap denominator {snap_denominator} must be >= 2")
    if snap_denominator > 10 ** 308:
        raise InvalidAutomaton("snap denominator must not exceed 10^308: p(1) is scaled "
                               "by it in floating point")
    w = [rational(v) for v in weights]
    domain = ProductSpace(tuple((f"n{i}", BINARY) for i in range(len(w))))
    out_space = canonical_space({"out": BINARY})
    cols = []
    for joint in domain.iter_symbols():
        h = sum((wj for wj, s in zip(w, joint) if s == "1"), Fraction(0))
        # e^-1000 is 0.0 in floats, so bounding |x| there changes no entry
        # and keeps float() from overflowing
        x = float(min(max(h / temperature, -1000), 1000))
        if x >= 0:
            p1 = 1.0 / (1.0 + math.exp(-x))
        else:
            e = math.exp(x)
            p1 = e / (1.0 + e)
        numerator = min(max(round(p1 * snap_denominator), 1), snap_denominator - 1)
        snapped = Fraction(numerator, snap_denominator)
        cols.append((1 - snapped, snapped))
    return matrix_from_columns(domain, out_space, cols)


def hopfield_weights(attractors: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Connectivity embedding the given binary patterns: sum of (2x-1)(2x-1)."""
    if not attractors:
        return []
    n = len(attractors[0])
    for xi in attractors:
        if len(xi) != n:
            raise LengthMismatch("attractor patterns must have equal length")
    out = [[Fraction(0)] * n for _ in range(n)]
    for xi in attractors:
        signed = [2 * int(b) - 1 for b in xi]
        for j in range(n):
            for k in range(n):
                out[j][k] += signed[j] * signed[k]
    return out
