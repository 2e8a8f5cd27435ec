import importlib
import itertools
import math
import os
import random
from fractions import Fraction

import pytest

from distmeas.errors import ContextNotContained, UnsupportedOutput
from distmeas.fixtures import (
    and_system,
    and_table,
    single_function_system,
    two_input_system,
    xor_system,
)
from distmeas.io import automaton_from_document, system_from_document
from distmeas.lattice import bottom, enumerate_subsystems, source_space, subsystem, top
from distmeas.measure import (
    _is_product,
    _measurements,
    _posterior,
    _Record,
    _spread,
    effective_information,
    extend,
    measure,
    null_mechanism,
    system_input_space,
    system_output_space,
)
from distmeas.oracle import (
    FunctionTable,
    ei_partial,
    ei_relative,
    preimage_count,
    single_function_tables,
    slice_count,
)
from distmeas.stoch import (
    BINARY,
    alphabet,
    canonical_space,
    dirac,
    distribution,
    kl_divergence,
    marginal,
    uniform,
    with_spaces,
)
from distmeas.system import unroll
from test_acceptance import _positive_random_system
from test_lattice import chain_system, copy_source_system, positive_system, three_target_system

F = Fraction
TOL = 1e-9
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def d_out_for(spec, symbol):
    return dirac(system_output_space(spec), (symbol,))


# -- extension ----------------------------------------------------------------

def test_extension_of_top_is_the_mechanism(xor_spec):
    ext = extend(xor_spec, top(xor_spec))
    assert ext.matrix == xor_spec.mechanisms["vZ"]


def test_extension_of_single_edge_ignores_other_input(xor_spec):
    sub = subsystem(xor_spec, [("vX", "vZ")])
    ext = extend(xor_spec, sub)
    space = ext.matrix.domain
    for x in "01":
        col0 = ext.matrix.cols[space.index_of((x, "0"))]
        col1 = ext.matrix.cols[space.index_of((x, "1"))]
        assert col0 == col1


def test_extension_ineffective_padding_is_noop(xor_spec):
    plain = subsystem(xor_spec, [("vX", "vZ")])
    padded = subsystem(xor_spec, [("vX", "vZ"), ("vY", "vX")])
    assert extend(xor_spec, plain).matrix == extend(xor_spec, padded).matrix


def test_null_mechanism_columns_are_uniform():
    spec = xor_system()
    ext = null_mechanism(spec)
    for col in ext.matrix.cols:
        assert col == (F(1, 2), F(1, 2))


def test_null_mechanism_two_targets_uniform_over_four():
    # two independent binary edges: outputs live on a 4-state space
    g1 = {"0": "1", "1": "0"}
    from distmeas.stoch import canonical_space, lift_function
    from distmeas.system import Occasion, SystemSpec
    occs = tuple(Occasion(i, BINARY) for i in ("a", "b", "p", "q"))
    mech = lambda src, trg: lift_function(
        canonical_space({src: BINARY}), canonical_space({trg: BINARY}), g1)
    spec = SystemSpec(
        occs, frozenset({("a", "p"), ("b", "q")}),
        {"p": mech("a", "p"), "q": mech("b", "q")},
        {i: uniform(canonical_space({i: BINARY})) for i in ("a", "b")})
    ext = null_mechanism(spec)
    for col in ext.matrix.cols:
        assert col == (F(1, 4),) * 4
    # measuring anything through the null device returns uniform inputs
    got = measure(ext, dirac(system_output_space(spec), ("0", "1")))
    assert got == uniform(system_input_space(spec))
    assert effective_information(spec, bottom(spec), None, dirac(
        system_output_space(spec), ("0", "1"))) == 0.0


# -- measurement --------------------------------------------------------------

def test_measurement_is_normalized_preimage():
    a4 = alphabet("abcd")
    b3 = alphabet("xyz")
    f = FunctionTable((a4,), b3, ("x", "x", "y", "x"))
    spec = single_function_system(f)
    got = measure(extend(spec, top(spec)), d_out_for(spec, "x"))
    assert got.weights == (F(1, 3), F(1, 3), 0, F(1, 3))


def test_measurement_of_xor_zero(xor_spec):
    got = measure(extend(xor_spec, top(xor_spec)), d_out_for(xor_spec, "0"))
    assert got.weights == (F(1, 2), 0, 0, F(1, 2))
    assert got.support() == (("0", "0"), ("1", "1"))


def test_measurement_rejects_unattained_output():
    f = FunctionTable((BINARY,), BINARY, ("0", "0"))
    spec = single_function_system(f)
    with pytest.raises(UnsupportedOutput):
        measure(extend(spec, top(spec)), d_out_for(spec, "1"))
    # the attained output is still measurable even though dual() would fail
    got = measure(extend(spec, top(spec)), d_out_for(spec, "0"))
    assert got == uniform(system_input_space(spec))


def test_measurement_of_doubly_stochastic_uniform_output_is_uniform():
    from distmeas.stoch import canonical_space, make_matrix
    from distmeas.system import Occasion, SystemSpec
    m = make_matrix(
        canonical_space({"vA": BINARY}), canonical_space({"vB": BINARY}),
        [["3/4", "1/4"], ["1/4", "3/4"]])
    spec = SystemSpec(
        (Occasion("vA", BINARY), Occasion("vB", BINARY)),
        frozenset({("vA", "vB")}), {"vB": m},
        {"vA": uniform(canonical_space({"vA": BINARY}))})
    got = measure(extend(spec, top(spec)),
                  distribution(system_output_space(spec), ["1/2", "1/2"]))
    assert got == uniform(system_input_space(spec))


# -- effective information ------------------------------------------------------

def test_xor_generates_one_bit(xor_spec):
    assert effective_information(
        xor_spec, top(xor_spec), None, d_out_for(xor_spec, "0")) == 1.0


def test_xor_single_edge_generates_nothing(xor_spec):
    for pairs in ([("vX", "vZ")], [("vY", "vZ")]):
        sub = subsystem(xor_spec, pairs)
        assert effective_information(
            xor_spec, sub, None, d_out_for(xor_spec, "0")) == 0.0


def test_and_at_one_generates_two_bits(and_spec):
    assert effective_information(
        and_spec, top(and_spec), None, d_out_for(and_spec, "1")) == 2.0


def test_ei_context_must_nest(and_spec):
    sub = subsystem(and_spec, [("vX", "vZ")])
    other = subsystem(and_spec, [("vY", "vZ")])
    with pytest.raises(ContextNotContained):
        effective_information(and_spec, sub, other, d_out_for(and_spec, "0"))


def test_ei_matches_preimage_counting_exhaustive():
    # every deterministic f with up to 4 inputs and 3 outputs, every attained y
    for nx, ny in itertools.product(range(1, 5), range(1, 4)):
        for f in single_function_tables(nx, ny):
            spec = single_function_system(f)
            whole = top(spec)
            for y in f.attained():
                got = effective_information(spec, whole, None, d_out_for(spec, y))
                want = math.log2(nx / preimage_count(f, y))
                assert abs(got - want) <= TOL


def test_partial_measurement_weights_are_slice_ratios(and_spec):
    # measurement of the X-only subsystem has slice/preimage weights,
    # spread uniformly over the unobserved input
    sub = subsystem(and_spec, [("vX", "vZ")])
    got = measure(extend(and_spec, sub), d_out_for(and_spec, "0"))
    assert got.weights == (F(1, 3), F(1, 3), F(1, 6), F(1, 6))
    ei = effective_information(and_spec, sub, None, d_out_for(and_spec, "0"))
    want = 1 + (2 / 3) * math.log2(2 / 3) + (1 / 3) * math.log2(1 / 3)
    assert abs(ei - want) <= TOL
    from distmeas.fixtures import and_table
    assert abs(ei - ei_partial(and_table(), "0", 0).bits) <= TOL


def test_relative_measurement_is_expected_slice_precision(and_spec):
    from distmeas.fixtures import and_table
    sub = subsystem(and_spec, [("vX", "vZ")])
    got = effective_information(and_spec, top(and_spec), sub, d_out_for(and_spec, "0"))
    # expected precision of the per-x slice readings under slice/preimage odds
    g = and_table()
    want = 0.0
    pre = preimage_count(g, "0")
    for x in "01":
        s = slice_count(g, 0, x, "0")
        if s:
            want += (s / pre) * math.log2(2 / s)
    assert abs(got - want) <= TOL
    assert abs(got - ei_relative(g, "0", 0).bits) <= TOL


def test_relative_ei_is_difference_of_precisions():
    import random
    rng = random.Random(5)
    z3 = alphabet("012")
    for _ in range(30):
        outputs = [rng.choice(z3.symbols) for _ in range(9)]
        g = FunctionTable((alphabet("012"), alphabet("abc")), z3, tuple(outputs))
        spec = two_input_system(g)
        whole, xe = top(spec), subsystem(spec, [("vX", "vZ")])
        for z in g.attained():
            d_out = d_out_for(spec, z)
            rel = effective_information(spec, whole, xe, d_out)
            fine = effective_information(spec, whole, None, d_out)
            coarse = effective_information(spec, xe, None, d_out)
            assert abs(rel - (fine - coarse)) <= TOL


def test_ei_bounds(xor_spec, and_spec):
    for spec in (xor_spec, and_spec):
        cap = math.log2(system_input_space(spec).dim)
        for z in "01":
            v = effective_information(spec, top(spec), None, d_out_for(spec, z))
            assert 0.0 <= v <= cap + TOL


def test_ei_invariant_under_symbol_relabeling():
    base = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "0", "1"))
    renamed = FunctionTable(
        (alphabet("pq"), alphabet("rs")), alphabet("uv"), ("u", "u", "u", "v"))
    spec1, spec2 = two_input_system(base), two_input_system(renamed)
    for z1, z2 in (("0", "u"), ("1", "v")):
        for pairs in ([("vX", "vZ")], [("vY", "vZ")], None):
            s1 = top(spec1) if pairs is None else subsystem(spec1, pairs)
            s2 = top(spec2) if pairs is None else subsystem(spec2, pairs)
            v1 = effective_information(spec1, s1, None, d_out_for(spec1, z1))
            v2 = effective_information(spec2, s2, None, d_out_for(spec2, z2))
            assert abs(v1 - v2) <= 1e-15


def test_ei_invariant_under_symbol_permutation():
    # permute basis order, not just labels: x -> not x on the first input
    # and z -> not z on the output, with the table re-sorted to match
    base = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "0", "1"))
    flip = {"0": "1", "1": "0"}
    permuted_outputs = []
    for x in "01":
        for y in "01":
            permuted_outputs.append(flip[base.value((flip[x], y))])
    permuted = FunctionTable((BINARY, BINARY), BINARY, tuple(permuted_outputs))
    spec1, spec2 = two_input_system(base), two_input_system(permuted)
    for z in "01":
        for pairs in ([("vX", "vZ")], [("vY", "vZ")], None):
            s1 = top(spec1) if pairs is None else subsystem(spec1, pairs)
            s2 = top(spec2) if pairs is None else subsystem(spec2, pairs)
            v1 = effective_information(spec1, s1, None, d_out_for(spec1, z))
            v2 = effective_information(spec2, s2, None, d_out_for(spec2, flip[z]))
            assert abs(v1 - v2) <= 1e-15


def test_spread_measurements_carry_distributions(and_spec):
    d_out = d_out_for(and_spec, "1")
    fine = _spread(and_spec, _posterior(and_spec, top(and_spec), d_out))
    coarse = _spread(and_spec, _posterior(and_spec, bottom(and_spec), d_out))
    assert fine.weights == (0, 0, 0, 1)
    assert coarse == uniform(system_input_space(and_spec))
    ei = effective_information(and_spec, top(and_spec), None, d_out)
    assert ei == 2.0
    assert math.isfinite(ei)


# -- glued-row measurements against the reference operators --------------------

def _record(d):
    """A Fraction distribution as the integer record a posterior is kept in:
    the weights over the least common denominator, which is in lowest terms
    with them since each weight's own denominator is coprime to its
    numerator."""
    total = math.lcm(*(w.denominator for w in d.weights))
    return _Record(d.space, tuple(w.numerator * (total // w.denominator) for w in d.weights),
                   total)


def _measured(spec, sub, d_out):
    # the kernel's posterior on S_C, times the uniform distribution outside
    return _spread(spec, _posterior(spec, sub, d_out))


def _reference_or_error(spec, sub, d_out):
    try:
        return measure(extend(spec, sub), d_out)
    except UnsupportedOutput as exc:
        return str(exc)


def _fast_or_error(spec, sub, d_out):
    try:
        return _measured(spec, sub, d_out)
    except UnsupportedOutput as exc:
        return str(exc)


def _output_distributions(spec):
    """Every Dirac output, a two-output mixture and the uniform output."""
    out = system_output_space(spec)
    yield from (dirac(out, a) for a in out.iter_symbols())
    if out.dim > 1:
        weights = [0] * out.dim
        weights[0], weights[-1] = F(1, 3), F(2, 3)
        yield distribution(out, weights)
    yield uniform(out)


def _assert_rows_match_reference(spec):
    # the kernel's posterior lives on S_C; times the uniform distribution on
    # the inputs outside C it is measure(extend(...)) exactly
    for d_out in _output_distributions(spec):
        for sub in enumerate_subsystems(spec):
            want = _reference_or_error(spec, sub, d_out)
            assert _fast_or_error(spec, sub, d_out) == want, (sorted(sub.pairs), d_out)
            if not isinstance(want, str):
                got = _posterior(spec, sub, d_out)
                assert got.space == source_space(spec, sub)
                assert got == _record(marginal(want, sub.source_ids())), (sorted(sub.pairs), d_out)


def test_glued_rows_match_extend_on_fixtures(xor_spec, and_spec):
    # copy_source_system's glued pair mechanism is not surjective
    for spec in (xor_spec, and_spec, chain_system(), positive_system(), three_target_system(),
                 copy_source_system()):
        _assert_rows_match_reference(spec)


def test_glued_rows_match_extend_on_positive_random_systems():
    rng = random.Random(7)
    for n_sources, n_targets in ((2, 2), (3, 2), (2, 3)):
        spec = _positive_random_system(
            rng, [f"s{i}" for i in range(n_sources)], [f"t{i}" for i in range(n_targets)])
        _assert_rows_match_reference(spec)


def test_glued_rows_null_subsystem_is_uniform(xor_spec):
    padded = subsystem(xor_spec, [("vY", "vX")])  # ineffective only
    for sub in (bottom(xor_spec), padded):
        for d_out in _output_distributions(xor_spec):
            got = _measured(xor_spec, sub, d_out)
            assert got == uniform(system_input_space(xor_spec))
            assert got == measure(extend(xor_spec, sub), d_out)


def double_and_system():
    """Two AND gates vW and vZ reading the same inputs, which never disagree:
    the output vW=1, vZ=0 is never produced."""
    from distmeas.stoch import canonical_space
    from distmeas.system import Occasion, SystemSpec
    and_mech = two_input_system(and_table()).mechanisms["vZ"]
    return SystemSpec(
        tuple(Occasion(i, BINARY) for i in ("vW", "vX", "vY", "vZ")),
        frozenset({("vX", "vW"), ("vY", "vW"), ("vX", "vZ"), ("vY", "vZ")}),
        {"vZ": and_mech, "vW": with_spaces(and_mech, codomain=canonical_space({"vW": BINARY}))},
        {i: uniform(canonical_space({i: BINARY})) for i in ("vX", "vY")})


def test_glued_rows_reject_unattained_output_like_measure():
    spec = double_and_system()
    d_out = dirac(system_output_space(spec), ("1", "0"))
    with pytest.raises(UnsupportedOutput) as fast:
        _measured(spec, top(spec), d_out)
    with pytest.raises(UnsupportedOutput) as reference:
        measure(extend(spec, top(spec)), d_out)
    assert str(fast.value) == str(reference.value)
    assert "('1', '0')" in str(fast.value)
    _assert_rows_match_reference(spec)


def test_glued_rows_check_the_output_space(xor_spec, and_spec):
    from distmeas.errors import SpaceMismatch
    wrong = uniform(system_input_space(and_spec))
    for sub in (bottom(xor_spec), top(xor_spec)):
        with pytest.raises(SpaceMismatch):
            _measured(xor_spec, sub, wrong)


def _posterior_by_reference(spec, sub, d_out):
    return _record(marginal(measure(extend(spec, sub), d_out), sub.source_ids()))


def _kernel_hosts():
    rng = random.Random(7)
    hosts = [xor_system(), and_system(), chain_system(), positive_system(),
             three_target_system(), copy_source_system()]
    for n_sources, n_targets in ((2, 2), (3, 2), (2, 3)):
        hosts.append(_positive_random_system(
            rng, [f"s{i}" for i in range(n_sources)], [f"t{i}" for i in range(n_targets)]))
    return hosts


def _spread_measurements(spec, sub, context, d_out):
    """(ei, fine, coarse): the subsystem's and the context's measurements as
    Fraction distributions on the whole system, each posterior read through
    the measure module's _posterior, so that a patched reference is used."""
    posterior = importlib.import_module("distmeas.measure")._posterior
    fine = _spread(spec, posterior(spec, sub, d_out))
    coarse = _spread(spec, posterior(spec, bottom(spec) if context is None else context, d_out))
    return effective_information(spec, sub, context, d_out), fine, coarse


def test_effective_information_is_kl_of_the_spread_measurements():
    for spec in _kernel_hosts():
        subs = list(enumerate_subsystems(spec))
        for d_out in _output_distributions(spec):
            for sub in subs:
                for context in [None] + [c for c in subs if c.effective <= sub.effective]:
                    try:
                        ei, fine, coarse = _spread_measurements(spec, sub, context, d_out)
                    except UnsupportedOutput:
                        continue
                    assert abs(ei - kl_divergence(fine, coarse)) <= 1e-12


def test_reports_equal_reference_built_reports(monkeypatch):
    from distmeas.entangle import entanglement, enumerate_partitions

    def reports():
        # fresh specs, so that a pass reads nothing another pass memoised
        rng = random.Random(11)
        specs = [and_system(), chain_system(), three_target_system(),
                 _positive_random_system(rng, ["s0", "s1", "s2"], ["t0", "t1"])]
        out = []
        for spec in specs:
            whole = top(spec)
            for d_out in _output_distributions(spec):
                for sub in enumerate_subsystems(spec):
                    for part in enumerate_partitions(sub.source_ids()):
                        out.append(entanglement(spec, sub, part, d_out))
                    out.append(_spread_measurements(spec, whole, sub, d_out))
                    out.append(_spread_measurements(spec, sub, None, d_out))
                    out.append(effective_information(spec, whole, sub, d_out))
        return out

    fast = reports()
    # the reference is slow, so memoise it for one pass, whose specs stay alive
    # through it; each entry keeps its output alive, so that no id is reused
    measured = {}

    def by_reference(spec, sub, d_out):
        key = (id(spec), sub.effective, id(d_out))
        if key not in measured:
            measured[key] = d_out, _posterior_by_reference(spec, sub, d_out)
        return measured[key][1]

    # the package re-exports a function named measure, so fetch the module
    monkeypatch.setattr(importlib.import_module("distmeas.measure"), "_posterior", by_reference)
    reference = reports()
    assert fast == reference
    # both passes share the divergence on S_C; the reference pass's fine and
    # coarse are measure(extend(...)), so pin it to the whole-system KL
    for rep in reference:
        if isinstance(rep, tuple):
            ei, fine, coarse = rep
            assert abs(ei - kl_divergence(fine, coarse)) <= 1e-12


def test_measurements_read_their_own_specs_submechanisms():
    # xor and and share occasion ids and edges, so a submechanism memo keyed
    # by ids rather than held by the spec would serve one the other's tables.
    # extend reads the same memo through glue_mechanism, so the references
    # are the counting oracles.
    from distmeas.entangle import entanglement, partition_of
    from distmeas.fixtures import xor_table
    from distmeas.oracle import ei_classical, gamma_counts
    tables = (xor_table(), and_table())
    specs = [two_input_system(g) for g in tables]
    split = partition_of([["vX"], ["vY"]])
    for g, spec in list(zip(tables, specs)) * 2:
        edges = [subsystem(spec, [(k, "vZ")]) for k in ("vX", "vY")]
        for z in g.attained():
            d_out = d_out_for(spec, z)
            whole = ei_classical(g, z).bits
            partial = [ei_partial(g, z, axis).bits for axis in (0, 1)]
            assert abs(effective_information(spec, top(spec), None, d_out) - whole) <= TOL
            for sub, want in zip(edges, partial):
                assert abs(effective_information(spec, sub, None, d_out) - want) <= TOL
            rep = entanglement(spec, top(spec), split, d_out)
            assert abs(rep.gamma_bits - gamma_counts(g, z).bits) <= TOL
            assert abs(rep.ei_whole - whole) <= TOL
            assert all(abs(got - want) <= TOL for got, want in zip(rep.per_block_ei, partial))


def test_an_output_memoises_each_measured_subsystem_in_one_entry():
    spec = xor_system()
    d_out = d_out_for(spec, "0")
    assert effective_information(spec, top(spec), None, d_out) == 1.0
    memo = _measurements(spec, d_out).memo
    assert len(memo) == 2
    assert set(memo) == {top(spec).effective, bottom(spec).effective}


def test_a_dropped_output_leaves_no_entry_on_the_spec(monkeypatch):
    # whole-system ei at every output of a 6-cell Hopfield ring, each output
    # dropped once it is measured: the spec's memo keeps only what depends
    # on the spec, so it stops growing at the first output. Each ei equals a
    # fresh spec's, so no entry outlives its output to serve a later output
    # given the same id
    monkeypatch.syspath_prepend(BENCH)
    from workloads import hopfield_document
    doc = hopfield_document(1, 6, 3)
    spec = system_from_document(doc)
    out = system_output_space(spec)
    sizes = []
    for i in range(out.dim):
        got = effective_information(spec, top(spec), None, dirac(out, out.symbols_at(i)))
        sizes.append(len(spec._glue_memo))
        fresh = system_from_document(doc)
        want = effective_information(fresh, top(fresh), None, dirac(out, out.symbols_at(i)))
        assert got == want, out.symbols_at(i)
    assert sizes == [sizes[0]] * out.dim


def rule_110_ring(cells):
    """A ring of binary cells, each reading its two neighbours and itself
    through rule 110, unrolled over one step from uniform initial states."""
    ids = [f"c{k}" for k in range(cells)]
    table = {f"{a},{b},{c}": str(110 >> (4 * a + 2 * b + c) & 1)
             for a, b, c in itertools.product((0, 1), repeat=3)}
    return unroll(automaton_from_document({
        "format_version": 1, "cells": ids, "alphabet": ["0", "1"],
        "neighborhoods": {c: [ids[k - 1], c, ids[(k + 1) % cells]] for k, c in enumerate(ids)},
        "rules": {c: {"kind": "table", "table": table} for c in ids},
        "window": [0, 1],
        "initial": {c: {"distribution": ["1/2", "1/2"]} for c in ids}}))


def test_one_ei_keeps_no_restricted_row_block_on_the_spec():
    # a single record reads one row per target at its output and keeps none:
    # no (target, inside sources, domain ids) entry is left on the spec
    spec = rule_110_ring(6)
    out = system_output_space(spec)
    d_out = dirac(out, ("1", "1", "0", "1", "0", "0"))
    assert effective_information(spec, top(spec), None, d_out) > 0
    assert not [key for key in spec._glue_memo if isinstance(key, tuple) and len(key) == 3
                and isinstance(key[1], frozenset)]


def test_is_product_compares_the_last_state_before_any_restriction(monkeypatch):
    # state 0 agrees (1/3 against 2/3 spread over vY's two states) and the
    # last state differs (0 against 1/6), so no restriction map is needed
    spec = xor_system()
    space = source_space(spec, top(spec))
    vx = canonical_space({"vX": BINARY})
    p = _Record(space, (1, 1, 1, 0), 3)
    q = _Record(vx, (2, 1), 3)

    def refuse(*args):
        raise AssertionError("a restriction map was read")

    monkeypatch.setattr(importlib.import_module("distmeas.measure"), "_restriction", refuse)
    assert not _is_product(spec, p, (q,))
