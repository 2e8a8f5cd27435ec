import itertools
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distmeas import entangle, lattice
from distmeas.cli import main
from distmeas.entangle import (
    Partition,
    _block_terms,
    entanglement,
    enumerate_partitions,
    is_rectangular,
    partition_of,
    product_decomposition,
)
from distmeas.errors import (
    BudgetExceeded,
    NotAPartition,
    NotInImage,
    NotSurjective,
    UnsupportedOutput,
)
from distmeas.fixtures import and_system, and_table, two_input_system, xor_system, xor_table
from distmeas.io import save_system
from distmeas.lattice import Subsystem, bottom, enumerate_subsystems, source_space, subsystem, top
from distmeas.measure import (
    _ei,
    _is_product,
    _log_terms,
    _posterior,
    effective_information,
    extend,
    measure,
    system_input_space,
    system_output_space,
)
from distmeas.oracle import FunctionTable, exhaustive_tables, gamma_counts, random_tables
from distmeas.stoch import (
    BINARY,
    Distribution,
    _restriction_table,
    alphabet,
    canonical_space,
    dirac,
    kl_divergence,
    marginal,
    matrix_from_columns,
    uniform,
)
from distmeas.system import Occasion, SystemSpec

TOL = 1e-9
XY_PARTITION = partition_of([["vX"], ["vY"]])


def d_out_for(spec, symbol):
    return dirac(system_output_space(spec), (symbol,))


def gamma_of(g, z):
    spec = two_input_system(g)
    return entanglement(spec, top(spec), XY_PARTITION, d_out_for(spec, z))


# -- entanglement -----------------------------------------------------------

def test_xor_is_maximally_entangled():
    rep = gamma_of(xor_table(), "0")
    assert rep.gamma_bits == 1.0
    assert rep.per_block_ei == (0.0, 0.0)
    assert rep.ei_whole == 1.0
    assert rep.additivity_gap == 1.0


def test_projection_function_is_disentangled():
    g = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "1", "1"))  # g = x
    for z in "01":
        assert gamma_of(g, z).gamma_bits == 0.0


def test_and_entanglement_at_zero():
    rep = gamma_of(and_table(), "0")
    want = math.log2(27 / 16) / 3
    assert abs(rep.gamma_bits - want) <= TOL
    assert round(rep.gamma_bits, 5) == 0.25163


def test_partition_must_cover_sources():
    spec = two_input_system(xor_table())
    with pytest.raises(NotAPartition):
        entanglement(spec, top(spec), partition_of([["vX"]]), d_out_for(spec, "0"))


def test_blocks_must_be_disjoint():
    with pytest.raises(NotAPartition):
        Partition((("vX", "vY"), ("vY",)))


def test_whole_partition_has_zero_gamma():
    spec = two_input_system(and_table())
    both = partition_of([["vX", "vY"]])
    rep = entanglement(spec, top(spec), both, d_out_for(spec, "0"))
    assert rep.gamma_bits == 0.0
    assert abs(rep.additivity_gap) <= TOL


# -- closed form ---------------------------------------------------------------

def test_closed_form_xor():
    assert gamma_counts(xor_table(), "0").bits == 1.0
    assert gamma_counts(xor_table(), "1").bits == 1.0


def test_closed_form_vanishes_on_products():
    import random
    rng = random.Random(3)
    for _ in range(20):
        g = random_product_function(rng, 3, 3)
        for z in g.attained():
            assert gamma_counts(g, z).is_zero()


def test_closed_form_and():
    got = gamma_counts(and_table(), "0")
    assert abs(got.bits - math.log2(27 / 16) / 3) <= TOL


def test_closed_form_requires_attained_output():
    g = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "0", "0"))
    with pytest.raises(NotInImage):
        gamma_counts(g, "1")


# -- rectangularity --------------------------------------------------------------

def test_xor_preimage_is_not_rectangular():
    rect, witness = is_rectangular(xor_table(), "0")
    assert not rect
    (p1, p2) = witness
    assert {p1, p2} == {("0", "0"), ("1", "1")}


def test_projection_preimage_is_full_rectangle():
    g = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "1", "1"))
    assert is_rectangular(g, "0") == (True, None)


def test_and_preimage_of_one_is_point_rectangle():
    assert is_rectangular(and_table(), "1") == (True, None)


def test_rectangular_iff_zero_gamma_exhaustive_2x2():
    for nz in (2, 4):
        for g in exhaustive_tables(2, 2, nz):
            for z in g.attained():
                rect, _ = is_rectangular(g, z)
                assert rect == gamma_counts(g, z).is_zero()
                assert rect == (gamma_of(g, z).gamma_bits < TOL)


# -- product decomposition --------------------------------------------------------

def random_product_function(rng, nx, ny):
    """g((x,y)) = (g1(x), g2(y)) with codomain exactly the attained pairs."""
    x, y = alphabet(range(nx)), alphabet(range(ny))
    g1 = {s: rng.randint(0, nx - 1) for s in x.symbols}
    g2 = {s: rng.randint(0, ny - 1) for s in y.symbols}
    pairs = sorted({(g1[a], g2[b]) for a in x.symbols for b in y.symbols})
    label = {p: f"z{i}" for i, p in enumerate(pairs)}
    z = alphabet([label[p] for p in pairs])
    outputs = [label[(g1[a], g2[b])] for a in x.symbols for b in y.symbols]
    return FunctionTable((x, y), z, tuple(outputs))


def test_decomposes_pair_valued_function():
    # g((x, y)) = (x, y mod 2) over a 2 x 4 grid
    x, y = alphabet("01"), alphabet("0123")
    label = {("0", 0): "a", ("0", 1): "b", ("1", 0): "c", ("1", 1): "d"}
    outputs = [label[(a, int(b) % 2)] for a in x.symbols for b in y.symbols]
    g = FunctionTable((x, y), alphabet("abcd"), tuple(outputs))
    got = product_decomposition(g)
    assert got is not None
    g1, g2 = got
    assert len(set(g1.values())) == 2
    assert len(set(g2.values())) == 2
    # fibers of the returned pair reproduce g's fibers
    for a1, b1 in g.inputs():
        for a2, b2 in g.inputs():
            same_g = g.value((a1, b1)) == g.value((a2, b2))
            same_pair = (g1[a1], g2[b1]) == (g1[a2], g2[b2])
            assert same_g == same_pair


def test_xor_has_no_decomposition():
    assert product_decomposition(xor_table()) is None


def test_constant_function_decomposes():
    one = alphabet(["c"])
    g = FunctionTable((BINARY, BINARY), one, ("c", "c", "c", "c"))
    got = product_decomposition(g)
    assert got is not None
    g1, g2 = got
    assert len(set(g1.values())) == 1 and len(set(g2.values())) == 1


def test_decomposition_requires_surjectivity():
    g = FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "0", "0"))
    with pytest.raises(NotSurjective):
        product_decomposition(g)


def test_rectangular_everywhere_but_no_product():
    # fibers {(0,0)}, {(0,1)}, {1}x{0,1}: gamma is 0 at every output, yet
    # |Z| = 3 cannot factor, so no decomposition exists (known proof gap)
    g = FunctionTable((BINARY, BINARY), alphabet("012"), ("0", "1", "2", "2"))
    for z in g.attained():
        assert gamma_counts(g, z).is_zero()
        assert gamma_of(g, z).gamma_bits <= TOL
    assert product_decomposition(g) is None


def test_round_trip_on_random_products():
    import random
    rng = random.Random(17)
    for _ in range(25):
        g = random_product_function(rng, rng.randint(2, 4), rng.randint(2, 4))
        for z in g.attained():
            assert gamma_counts(g, z).is_zero()
        got = product_decomposition(g)
        assert got is not None
        g1, g2 = got
        for a1, b1 in g.inputs():
            for a2, b2 in g.inputs():
                same_g = g.value((a1, b1)) == g.value((a2, b2))
                same_pair = (g1[a1], g2[b1]) == (g1[a2], g2[b2])
                assert same_g == same_pair


def _decomposition_by_slice_classes(g):
    """product_decomposition as a scan of every x-slice and y-slice class,
    symbol by symbol: (g1, g2), None, or the NotSurjective message."""
    xs, ys = g.factors[0].symbols, g.factors[1].symbols
    value = dict(zip(itertools.product(xs, ys), g.outputs))
    missing = sorted(set(g.codomain.symbols) - set(g.outputs))
    if missing:
        return f"function does not attain {missing}"
    g1, g2 = {}, {}
    for x in xs:
        classes = {frozenset(x2 for x2 in xs if value[x2, y] == value[x, y]) for y in ys}
        if len(classes) != 1:
            return None
        g1[x] = classes.pop()
    for y in ys:
        classes = {frozenset(y2 for y2 in ys if value[x, y2] == value[x, y]) for x in xs}
        if len(classes) != 1:
            return None
        g2[y] = classes.pop()
    outputs = {}
    for x in xs:
        for y in ys:
            if outputs.setdefault((g1[x], g2[y]), value[x, y]) != value[x, y]:
                return None
    if len(outputs) != len(set(outputs.values())):
        return None

    def relabel(mapping):
        labels, out = {}, {}
        for sym, cls in mapping.items():
            if cls not in labels:
                labels[cls] = f"q{len(labels)}"
            out[sym] = labels[cls]
        return out

    return relabel(g1), relabel(g2)


def test_decomposition_matches_slice_class_scan():
    tables = itertools.chain(
        *(exhaustive_tables(*dims) for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (3, 2, 3))),
        random_tables(4, 4, 4, 500, seed=5))
    kinds = set()
    for g in tables:
        try:
            got = product_decomposition(g)
        except NotSurjective as exc:
            got = str(exc)
        want = _decomposition_by_slice_classes(g)
        assert got == want, g.outputs
        kinds.add(type(want))
    assert kinds == {tuple, type(None), str}


# -- identities -------------------------------------------------------------------

def test_additivity_when_gamma_vanishes_exhaustive_2x2():
    for g in exhaustive_tables(2, 2, 2):
        spec = two_input_system(g)
        for z in g.attained():
            rep = entanglement(spec, top(spec), XY_PARTITION, d_out_for(spec, z))
            if rep.gamma_bits < TOL:
                assert abs(rep.additivity_gap) <= TOL


def test_triple_identity_exhaustive_2x2():
    from distmeas.measure import effective_information
    from distmeas.lattice import subsystem
    for g in exhaustive_tables(2, 2, 2):
        spec = two_input_system(g)
        whole = top(spec)
        xe = subsystem(spec, [("vX", "vZ")])
        ye = subsystem(spec, [("vY", "vZ")])
        for z in g.attained():
            d_out = d_out_for(spec, z)
            kl = entanglement(spec, whole, XY_PARTITION, d_out).gamma_bits
            counts = gamma_counts(g, z).bits
            diff = (effective_information(spec, whole, None, d_out)
                    - effective_information(spec, xe, None, d_out)
                    - effective_information(spec, ye, None, d_out))
            assert abs(kl - counts) <= TOL
            assert abs(kl - diff) <= TOL


def test_triple_identity_random_3x3():
    from distmeas.measure import effective_information
    from distmeas.lattice import subsystem
    for g in random_tables(3, 3, 3, 40, seed=29):
        spec = two_input_system(g)
        whole = top(spec)
        xe = subsystem(spec, [("vX", "vZ")])
        ye = subsystem(spec, [("vY", "vZ")])
        for z in g.attained():
            d_out = d_out_for(spec, z)
            kl = entanglement(spec, whole, XY_PARTITION, d_out).gamma_bits
            assert abs(kl - gamma_counts(g, z).bits) <= TOL
            diff = (effective_information(spec, whole, None, d_out)
                    - effective_information(spec, xe, None, d_out)
                    - effective_information(spec, ye, None, d_out))
            assert abs(kl - diff) <= TOL


def test_gamma_nonnegative_random():
    for g in random_tables(2, 3, 3, 30, seed=41):
        spec = two_input_system(g)
        for z in g.attained():
            rep = entanglement(spec, top(spec), XY_PARTITION, d_out_for(spec, z))
            assert rep.gamma_bits >= -1e-12


# -- partition enumeration ---------------------------------------------------------

def test_partition_counts_match_bell_numbers():
    def bell(n):
        # Bell triangle: each row starts with the previous row's last entry,
        # and the row's last entry is the next Bell number
        row = [1]
        for _ in range(n - 1):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
        return row[-1]

    for n, want in ((1, 1), (2, 2), (3, 5), (4, 15)):
        names = [f"v{i}" for i in range(n)]
        got = list(enumerate_partitions(names))
        assert len(got) == want == bell(n)
        seen = set()
        for part in got:
            assert sorted(m for b in part.blocks for m in b) == sorted(names)
            assert part.blocks == tuple(sorted(part.blocks, key=lambda b: b[0]))
            seen.add(part.blocks)
        assert len(seen) == want


def test_partition_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_partitions([f"v{i}" for i in range(9)], max_sources=8))


# -- block terms against the whole-space reference --------------------------------

def _whole_space_pair(spec, sub, part, d_out, measured):
    """measure(extend(sub)) and the product of its blocks' measurements times
    the uniform distribution outside S_C, both on the whole system."""
    def reference(s):
        if s.effective not in measured:
            measured[s.effective] = measure(extend(spec, s), d_out)
        return measured[s.effective]

    whole = reference(sub)
    space = whole.space
    weights = [Fraction(1, space.dim // source_space(spec, sub).dim)] * space.dim
    for block in part.blocks:
        pairs = frozenset(p for p in sub.effective if p[0] in block)
        m = marginal(reference(Subsystem(pairs, pairs)), block)
        restrict = _restriction_table(space, m.space)
        weights = [w * m.weights[j] for j, w in zip(restrict, weights)]
    return whole, Distribution(space, tuple(weights))


def _assert_gamma_matches_reference(spec, subs):
    from test_measure import _output_distributions
    for d_out in _output_distributions(spec):
        measured = {}
        for sub in subs:
            try:
                measured[sub.effective] = measure(extend(spec, sub), d_out)
            except UnsupportedOutput:
                continue
            ei_whole = kl_divergence(measured[sub.effective], uniform(system_input_space(spec)))
            for part in enumerate_partitions(sub.source_ids()):
                rep = entanglement(spec, sub, part, d_out)
                whole, product = _whole_space_pair(spec, sub, part, d_out, measured)
                if whole == product:
                    assert rep.gamma_bits == 0.0, (sorted(sub.pairs), part.label())
                assert abs(rep.gamma_bits - kl_divergence(whole, product)) <= 1e-12
                assert abs(rep.ei_whole - ei_whole) <= 1e-12
                assert math.isfinite(rep.gamma_bits)


def test_block_terms_match_whole_space_gamma_on_fixtures():
    # a block system's gates share no occasion, so its measurements are
    # products of their blocks' and gamma must come out exactly 0.0
    from test_acceptance import _block_system
    from test_measure import _kernel_hosts
    rng = random.Random(3)
    for spec in _kernel_hosts() + [_block_system(rng, 3) for _ in range(3)]:
        _assert_gamma_matches_reference(spec, list(enumerate_subsystems(spec)))


def test_block_terms_match_whole_space_gamma_on_hopfield_ring():
    from test_lattice import hopfield_ring
    spec = hopfield_ring((1, 0, 1, 1, 0))
    out = system_output_space(spec)
    attractor = dirac(out, ("1", "0", "1", "1", "0"))
    measured = {}
    parts = list(enumerate_partitions(top(spec).source_ids()))
    assert len(parts) == 52
    for part in parts:
        rep = entanglement(spec, top(spec), part, attractor)
        whole, product = _whole_space_pair(spec, top(spec), part, attractor, measured)
        assert abs(rep.gamma_bits - kl_divergence(whole, product)) <= 1e-12
        assert (rep.gamma_bits == 0.0) == (len(part.blocks) == 1)


def test_each_restriction_map_is_built_once(monkeypatch):
    # every target, measure and entangle share one memo of restriction maps,
    # so all block terms of a fully connected host build each map once
    from test_acceptance import _positive_random_system
    built = []

    def counted(src, dst):
        built.append((src.factor_ids, dst.factor_ids))
        return _restriction_table(src, dst)

    monkeypatch.setattr(lattice, "_restriction_table", counted)
    spec = _positive_random_system(
        random.Random(8), [f"s{i}" for i in range(4)], ["t0", "t1", "t2"])
    d_out = dirac(system_output_space(spec), ("0", "1", "0"))
    sources = top(spec).source_ids()
    for size in range(1, len(sources) + 1):
        for block in combinations(sources, size):
            _block_terms(spec, top(spec), block, d_out)
    assert built and len(built) == len(set(built))


@st.composite
def sparse_hosts(draw):
    """1-3 sources feeding 1-3 targets, each target reading a nonempty subset
    of the sources (at most 6 edges in all), over alphabets of size 2 or 3.
    Each mechanism column is a Dirac or a few positive weights, so most
    entries are 0."""
    sources = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    targets = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    alphabets = {i: alphabet(range(draw(st.integers(2, 3)))) for i in sources + targets}
    read = {t: sorted(draw(st.sets(st.sampled_from(sources), min_size=1))) for t in targets}
    assume(sum(map(len, read.values())) <= 6)
    mechanisms = {}
    for t in targets:
        domain = canonical_space({s: alphabets[s] for s in read[t]})
        n = len(alphabets[t])
        cols = []
        for _ in range(domain.dim):
            support = draw(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=draw(st.sampled_from([1, n]))))
            weights = [draw(st.integers(1, 3)) if o in support else 0 for o in range(n)]
            cols.append([Fraction(w, sum(weights)) for w in weights])
        mechanisms[t] = matrix_from_columns(domain, canonical_space({t: alphabets[t]}), cols)
    return SystemSpec(
        tuple(Occasion(i, alphabets[i]) for i in sources + targets),
        frozenset((s, t) for t in targets for s in read[t]), mechanisms,
        {s: uniform(canonical_space({s: alphabets[s]})) for s in sources})


def _attained(spec, out_space):
    """The output states some input state produces with positive probability,
    read from the mechanism tables."""
    in_space = system_input_space(spec)
    attained = set()
    for x in in_space.iter_symbols():
        for i, o in enumerate(out_space.iter_symbols()):
            if all(mech.p((o[out_space.position(t)],),
                          tuple(x[in_space.position(s)] for s in mech.domain.factor_ids))
                   for t, mech in spec.mechanisms.items()):
                attained.add(i)
    return sorted(attained)


def _lattice_labels(spec, weights):
    with tempfile.TemporaryDirectory() as tmp:
        doc, dist, dot = (os.path.join(tmp, name) for name in ("s.json", "d.json", "l.dot"))
        save_system(spec, doc)
        with open(dist, "w", encoding="utf-8") as fh:
            json.dump({"weights": [str(w) for w in weights]}, fh)
        assert main(["lattice", doc, "--output", "@" + dist, "--dot", dot]) == 0
        with open(dot, encoding="utf-8") as fh:
            return re.findall(r' -> "[^"]*" \[label="([^"]*)"\]', fh.read())


@settings(max_examples=100, deadline=None)
@given(spec=sparse_hosts(), data=st.data())
def test_measurements_are_finite_on_sparse_hosts(spec, data):
    # a context's or a block's posterior averages the same nonnegative
    # mechanism entries as the finer one, so it has weight wherever that one
    # does, and no divergence between them can be infinite
    out = system_output_space(spec)
    attained = _attained(spec, out)
    for i in set(range(out.dim)) - set(attained):
        with pytest.raises(UnsupportedOutput):
            effective_information(spec, top(spec), None, dirac(out, out.symbols_at(i)))
    mixed = data.draw(st.lists(st.sampled_from(attained), min_size=2, max_size=3, unique=True)
                      if len(attained) > 1 else st.just(attained))
    point = data.draw(st.sampled_from(attained))
    dirac_weights = [Fraction(int(i == point)) for i in range(out.dim)]
    mixed_weights = [Fraction(0)] * out.dim
    for k, i in enumerate(mixed):  # weights 1, 2, 3 over their sum
        mixed_weights[i] = Fraction(2 * (k + 1), len(mixed) * (len(mixed) + 1))
    subs = list(enumerate_subsystems(spec))
    for weights in (dirac_weights, mixed_weights):
        d_out = Distribution(out, tuple(weights))
        for sub in subs:
            for context in [None] + [c for c in subs if c.effective <= sub.effective]:
                assert math.isfinite(effective_information(spec, sub, context, d_out))
            for part in enumerate_partitions(sub.source_ids()):
                rep = entanglement(spec, sub, part, d_out)
                assert math.isfinite(rep.gamma_bits) and rep.gamma_bits >= -TOL
        labels = _lattice_labels(spec, weights)
        assert len(labels) == len(subs) * len(spec.edges) // 2
        assert all(math.isfinite(float(label)) for label in labels)



@settings(max_examples=60, deadline=None)
@given(spec=sparse_hosts(), data=st.data())
def test_report_ei_is_effective_information(spec, data):
    # a report's ei_whole and block ei are the floats ei prints, to the last bit
    out = system_output_space(spec)
    d_out = dirac(out, out.symbols_at(data.draw(st.sampled_from(_attained(spec, out)))))
    for sub in enumerate_subsystems(spec):
        whole = effective_information(spec, sub, None, d_out)
        for part in enumerate_partitions(sub.source_ids()):
            rep = entanglement(spec, sub, part, d_out)
            assert rep.ei_whole == whole
            for block, ei in zip(part.blocks, rep.per_block_ei):
                pairs = [p for p in sub.effective if p[0] in block]
                assert ei == effective_information(spec, subsystem(spec, pairs), None, d_out)


@settings(max_examples=100, deadline=None)
@given(spec=sparse_hosts())
def test_ei_and_gamma_are_zero_exactly_on_products(spec):
    # every ei and gamma is 0.0 exactly when the integer test finds the
    # measurement to be the product it is compared with, whatever the floats
    out = system_output_space(spec)
    subs = list(enumerate_subsystems(spec))
    whole = top(spec)
    for i in _attained(spec, out):
        d_out = dirac(out, out.symbols_at(i))
        for b in subs:
            p = _posterior(spec, b, d_out)
            for d in subs:
                if d.pairs < b.pairs and len(b.pairs - d.pairs) == 1:
                    assert (effective_information(spec, b, d, d_out) == 0.0) == _is_product(
                        spec, p, (_posterior(spec, d, d_out),))
        p = _posterior(spec, whole, d_out)
        for part in enumerate_partitions(whole.source_ids()):
            blocks = [_posterior(spec, subsystem(spec, [e for e in whole.pairs if e[0] in block]),
                                 d_out) for block in part.blocks]
            rep = entanglement(spec, whole, part, d_out)
            assert (rep.gamma_bits == 0.0) == _is_product(spec, p, blocks), part.label()


def test_exact_product_ei_is_zero_however_far_its_float_is():
    # the edge vX-vZ alone reads nothing of XOR: its posterior is the null
    # one spread over vX, so ei is 0.0 even if the sum is off by far more
    # than rounding
    spec = xor_system()
    d_out = d_out_for(spec, "0")
    p, _, neg_entropy = _log_terms(spec, subsystem(spec, [("vX", "vZ")]), d_out)
    q, logs, _ = _log_terms(spec, bottom(spec), d_out)
    assert _ei(spec, p, neg_entropy + 1e-6, q, logs) == 0.0


def test_exact_product_gamma_is_zero_however_far_its_float_is(monkeypatch):
    # AND at vZ=1 is the point mass on (1, 1), the product of its blocks'
    # point masses, so gamma is 0.0 even if every cross term is off by 1e-6
    cross = entangle._cross
    monkeypatch.setattr(entangle, "_cross", lambda *args: cross(*args) + 1e-6)
    spec = and_system()
    rep = entanglement(spec, top(spec), XY_PARTITION, d_out_for(spec, "1"))
    assert rep.gamma_bits == 0.0


# -- the additivity identity ------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_sources=st.integers(2, 3), z=st.sampled_from("01"))
def test_single_target_additivity_gap_is_gamma(seed, n_sources, z):
    # with one target, a block's measurement is the marginal of the whole
    # measurement, so ei_whole - sum of block ei is the entanglement
    from test_acceptance import _positive_random_system
    spec = _positive_random_system(
        random.Random(seed), [f"s{i}" for i in range(n_sources)], ["t0"])
    d_out = dirac(system_output_space(spec), (z,))
    for part in enumerate_partitions(top(spec).source_ids()):
        rep = entanglement(spec, top(spec), part, d_out)
        assert abs(rep.additivity_gap - rep.gamma_bits) <= 1e-12


def test_two_target_additivity_gap_is_not_gamma():
    from test_acceptance import _positive_random_system
    spec = _positive_random_system(random.Random(0), ["s0", "s1"], ["t0", "t1"])
    d_out = dirac(system_output_space(spec), ("0", "0"))
    rep = entanglement(spec, top(spec), partition_of([["s0"], ["s1"]]), d_out)
    assert abs(rep.gamma_bits - 0.0516383510621) <= 1e-9
    assert abs(rep.additivity_gap - 0.0830447390787) <= 1e-9
