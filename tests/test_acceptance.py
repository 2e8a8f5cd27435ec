"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget.

Criterion 7's involution half is expected to FAIL: the claimed law
dual(dual(m)) = m is false for generic column-stochastic matrices (see the
module test test_stoch.test_dual_involution_fails_for_generic_stochastic_maps
for the minimal counterexample). The test states the criterion faithfully and
is left red on purpose rather than weakened; the Bayes half is a separate
test and passes.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from distmeas.entangle import (
    entanglement,
    enumerate_partitions,
    is_rectangular,
    partition_of,
    product_decomposition,
)
from distmeas.fixtures import (
    single_function_system,
    two_input_system,
    xor_system,
)
from distmeas.lattice import (
    Subsystem,
    build_quale,
    descent_counterexample,
    enumerate_subsystems,
    glue_sections,
    restrict,
    section,
    source_space,
    subsystem,
    target_space,
    top,
)
from distmeas.measure import (
    effective_information,
    extend,
    measure,
    system_output_space,
)
from distmeas.oracle import (
    FunctionTable,
    exhaustive_tables,
    gamma_counts,
    preimage_count,
    single_function_tables,
)
from distmeas.stoch import (
    BINARY,
    ProductSpace,
    StochasticMatrix,
    alphabet,
    canonical_space,
    dirac,
    dual,
    kl_divergence,
    make_matrix,
    matrix_from_columns,
    uniform,
)
from distmeas.system import Occasion, SystemSpec

TOL = 1e-9
XY = partition_of([["vX"], ["vY"]])


def report(n, detail):
    print(f"[acceptance] criterion {n}: PASS ({detail})")


def d_for(spec, *symbols):
    return dirac(system_output_space(spec), tuple(symbols))


def test_criterion_1_xor_fixture():
    start = time.monotonic()
    spec = xor_system()
    d0 = d_for(spec, "0")
    whole = top(spec)
    assert abs(effective_information(spec, whole, None, d0) - 1.0) < 1e-12
    for pairs in ([("vX", "vZ")], [("vY", "vZ")]):
        got = effective_information(spec, subsystem(spec, pairs), None, d0)
        assert abs(got - 0.0) < 1e-12
    gamma = entanglement(spec, whole, XY, d0).gamma_bits
    assert abs(gamma - 1.0) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"XOR ei/gamma exact in {elapsed:.3f}s")


def test_criterion_2_classical_measurement_equivalence():
    start = time.monotonic()
    functions = 0
    for nx, ny in itertools.product(range(1, 5), range(1, 4)):
        for f in single_function_tables(nx, ny):
            functions += 1
            spec = single_function_system(f)
            whole = top(spec)
            for y in f.attained():
                got = effective_information(spec, whole, None, d_for(spec, y))
                want = math.log2(nx / preimage_count(f, y))
                assert abs(got - want) < TOL, (f.outputs, y)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"{functions} functions swept in {elapsed:.2f}s")


def _families():
    yield from exhaustive_tables(2, 2, 2)
    yield from exhaustive_tables(2, 2, 4)


def test_criterion_3_comparison_and_entanglement_identities():
    start = time.monotonic()
    checks = 0
    for g in _families():
        spec = two_input_system(g)
        whole = top(spec)
        xe = subsystem(spec, [("vX", "vZ")])
        ye = subsystem(spec, [("vY", "vZ")])
        for z in g.attained():
            d_out = d_for(spec, z)
            ei_top = effective_information(spec, whole, None, d_out)
            ei_x = effective_information(spec, xe, None, d_out)
            ei_y = effective_information(spec, ye, None, d_out)
            rel_x = effective_information(spec, whole, xe, d_out)
            gamma_kl = entanglement(spec, whole, XY, d_out).gamma_bits
            assert abs(rel_x - (ei_top - ei_x)) < TOL
            assert abs(gamma_kl - gamma_counts(g, z).bits) < TOL
            assert abs(gamma_kl - (ei_top - ei_x - ei_y)) < TOL
            checks += 3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"{checks} identity checks on 272 functions in {elapsed:.2f}s")


def test_criterion_4_rectangularity_characterizes_zero_entanglement():
    start = time.monotonic()
    disagreements = 0
    cases = 0
    for g in _families():
        spec = two_input_system(g)
        whole = top(spec)
        for z in g.attained():
            cases += 1
            rect, _ = is_rectangular(g, z)
            gamma = entanglement(spec, whole, XY, d_for(spec, z)).gamma_bits
            if rect != (gamma < TOL):
                disagreements += 1
    assert disagreements == 0
    elapsed = time.monotonic() - start
    report(4, f"{cases} (g, z) cases, zero disagreements, {elapsed:.2f}s")


def _random_product_function(rng, nx, ny):
    x, y = alphabet(range(nx)), alphabet(range(ny))
    g1 = {s: rng.randint(0, nx - 1) for s in x.symbols}
    g2 = {s: rng.randint(0, ny - 1) for s in y.symbols}
    pairs = sorted({(g1[a], g2[b]) for a in x.symbols for b in y.symbols})
    label = {p: f"z{i}" for i, p in enumerate(pairs)}
    outputs = [label[(g1[a], g2[b])] for a in x.symbols for b in y.symbols]
    return FunctionTable((x, y), alphabet([label[p] for p in pairs]), tuple(outputs))


def _random_non_product_function(rng, nx, ny):
    """Rejection sample until some fiber is non-rectangular (hence the fiber
    partition cannot be a product)."""
    x, y = alphabet(range(nx)), alphabet(range(ny))
    while True:
        nz = rng.randint(2, nx * ny)
        outputs = tuple(f"z{rng.randint(0, nz - 1)}" for _ in range(nx * ny))
        attained = sorted(set(outputs))
        g = FunctionTable((x, y), alphabet(attained), outputs)
        if any(not is_rectangular(g, z)[0] for z in attained):
            return g


def test_criterion_5_product_decomposition_round_trip():
    rng = random.Random(2024)
    for _ in range(100):
        g = _random_product_function(rng, rng.randint(2, 4), rng.randint(2, 4))
        spec = two_input_system(g)
        whole = top(spec)
        for z in g.attained():
            assert gamma_counts(g, z).is_zero()
            gamma = entanglement(spec, whole, XY, d_for(spec, z)).gamma_bits
            assert gamma < TOL
        got = product_decomposition(g)
        assert got is not None
        g1, g2 = got
        for p in g.inputs():
            for q in g.inputs():
                assert (g.value(p) == g.value(q)) == (
                    (g1[p[0]], g2[p[1]]) == (g1[q[0]], g2[q[1]]))
    for _ in range(100):
        g = _random_non_product_function(rng, rng.randint(2, 4), rng.randint(2, 4))
        assert product_decomposition(g) is None
    report(5, "100 products decomposed, 100 non-products rejected")


def _block_system(rng, blocks):
    occasions = []
    edges = set()
    mechanisms = {}
    sources = {}
    for b in range(blocks):
        src, trg = f"b{b}s", f"b{b}t"
        occasions += [Occasion(src, BINARY), Occasion(trg, BINARY)]
        edges.add((src, trg))
        a = Fraction(rng.randint(1, 9), 10)
        c = Fraction(rng.randint(1, 9), 10)
        mechanisms[trg] = make_matrix(
            canonical_space({src: BINARY}), canonical_space({trg: BINARY}),
            [[a, c], [1 - a, 1 - c]])
        sources[src] = uniform(canonical_space({src: BINARY}))
    return SystemSpec(tuple(occasions), frozenset(edges), mechanisms, sources)


def test_criterion_6_additivity_on_independent_blocks():
    rng = random.Random(77)
    for _ in range(50):
        blocks = rng.randint(2, 3)
        spec = _block_system(rng, blocks)
        whole = top(spec)
        out_space = system_output_space(spec)
        d_out = dirac(out_space, tuple(
            rng.choice(("0", "1")) for _ in out_space.factor_ids))
        part = partition_of([[f"b{b}s"] for b in range(blocks)])
        rep = entanglement(spec, whole, part, d_out)
        assert rep.gamma_bits == 0.0
        assert abs(rep.ei_whole - sum(rep.per_block_ei)) < TOL
    report(6, "50 block systems: gamma = 0 and ei additive")


def _random_stochastic_matrix(rng):
    nin = rng.randint(1, 12)
    nout = rng.randint(1, 12)
    domain = ProductSpace((("in", alphabet(range(nin))),))
    codomain = ProductSpace((("out", alphabet(range(nout))),))
    while True:
        cols = []
        for _ in range(nin):
            raw = [rng.randint(0, 9) for _ in range(nout)]
            if sum(raw) == 0:
                raw[rng.randrange(nout)] = 1
            cols.append(tuple(Fraction(v, sum(raw)) for v in raw))
        if all(any(col[i] != 0 for col in cols) for i in range(nout)):
            return StochasticMatrix(domain, codomain, tuple(cols))


def test_criterion_7a_dual_involution_as_stated():
    """EXPECTED RED: the involution is a paper defect, kept faithful here.

    dual(dual(m)) applies a uniform prior on the codomain rather than the
    pushforward prior, so generic column-stochastic matrices violate it;
    m = [[1, 1/2], [0, 1/2]] already fails (documented in the ledger and in
    test_stoch). The assertion below is the criterion verbatim.
    """
    rng = random.Random(1234)
    failures = []
    for k in range(200):
        m = _random_stochastic_matrix(rng)
        if dual(dual(m)) != m:
            failures.append(k)
    assert not failures, (
        f"dual involution failed for {len(failures)} of 200 seeded matrices "
        f"(first at index {failures[0]}); the law does not hold for generic "
        f"column-stochastic matrices")
    report(7, "dual involution held for 200 random matrices")


def test_criterion_7b_bayes_formula_exact():
    rng = random.Random(1234)
    for _ in range(200):
        m = _random_stochastic_matrix(rng)
        d = dual(m)
        for y in range(m.codomain.dim):
            denom = sum(m.cols[x][y] for x in range(m.domain.dim))
            for x in range(m.domain.dim):
                assert d.cols[y][x] == m.cols[x][y] / denom
    report(7, "Bayes posterior formula exact on 200 random matrices")


def _three_source_host():
    occs = tuple(Occasion(i, BINARY) for i in ("s1", "s2", "s3", "t1", "t2"))
    edges = {("s1", "t1"), ("s2", "t1"), ("s1", "t2"), ("s3", "t2")}
    m1 = make_matrix(
        canonical_space({"s1": BINARY, "s2": BINARY}), canonical_space({"t1": BINARY}),
        [["1/2", "1/3", "1/4", "1/5"], ["1/2", "2/3", "3/4", "4/5"]])
    m2 = make_matrix(
        canonical_space({"s1": BINARY, "s3": BINARY}), canonical_space({"t2": BINARY}),
        [["1/6", "2/5", "3/5", "1/7"], ["5/6", "3/5", "2/5", "6/7"]])
    return SystemSpec(
        occs, frozenset(edges), {"t1": m1, "t2": m2},
        {i: uniform(canonical_space({i: BINARY})) for i in ("s1", "s2", "s3")})


def _seeded_joint(spec, sub, rng):
    """Conditionally factored section r(x) s(y|x,u) t(z|x,v): the family for
    which the gluing formula is provably stochastic."""
    def rand_dist(n):
        raw = [rng.randint(1, 6) for _ in range(n)]
        return [Fraction(v, sum(raw)) for v in raw]

    r = rand_dist(2)
    s = {(x, u): rand_dist(2) for x in "01" for u in "01"}
    t = {(x, v): rand_dist(2) for x in "01" for v in "01"}
    dom = target_space(spec, sub)
    cod = source_space(spec, sub)
    cols = []
    for (u, v) in dom.iter_symbols():
        cols.append([r[int(x)] * s[(x, u)][int(y)] * t[(x, v)][int(z)]
                     for (x, y, z) in cod.iter_symbols()])
    return section(spec, sub, matrix_from_columns(dom, cod, cols))


def test_criterion_8_presheaf_gluing_and_descent():
    spec = _three_source_host()
    ci = subsystem(spec, [("s1", "t1"), ("s2", "t1")])
    cj = subsystem(spec, [("s1", "t2"), ("s3", "t2")])
    union = subsystem(spec, sorted(ci.pairs | cj.pairs))
    rng = random.Random(31)
    for _ in range(50):
        joint = _seeded_joint(spec, union, rng)
        a = restrict(spec, joint, ci)
        b = restrict(spec, joint, cj)
        glued = glue_sections(spec, a, b)
        assert restrict(spec, glued, ci).matrix == a.matrix
        assert restrict(spec, glued, cj).matrix == b.matrix

    correlated, product = descent_counterexample()
    assert correlated.matrix != product.matrix
    host = xor_system()
    for pairs in ([("vX", "vZ")], [("vY", "vZ")]):
        sub = subsystem(host, pairs)
        assert restrict(host, correlated, sub).matrix == \
            restrict(host, product, sub).matrix
    report(8, "50 glue round-trips exact; descent counterexample verified")


def _positive_random_system(rng, sources, targets):
    occasions = tuple(Occasion(i, BINARY) for i in sources + targets)
    edges = {(s, t) for s in sources for t in targets}
    mechanisms = {}
    for t in targets:
        dom = canonical_space({s: BINARY for s in sources})
        cols = []
        for _ in range(dom.dim):
            a = Fraction(rng.randint(1, 9), 10)
            cols.append((a, 1 - a))
        mechanisms[t] = matrix_from_columns(
            dom, canonical_space({t: BINARY}), cols)
    return SystemSpec(
        occasions, frozenset(edges), mechanisms,
        {s: uniform(canonical_space({s: BINARY})) for s in sources})


def test_criterion_9a_small_system_full_analysis():
    start = time.monotonic()
    rng = random.Random(55)
    # diamond: va feeds vb and vc, which both feed vd
    occs = tuple(Occasion(i, BINARY) for i in ("va", "vb", "vc", "vd"))
    edges = {("va", "vb"), ("va", "vc"), ("vb", "vd"), ("vc", "vd")}
    mechs = {}
    for trg, srcs in (("vb", ["va"]), ("vc", ["va"]), ("vd", ["vb", "vc"])):
        dom = canonical_space({s: BINARY for s in srcs})
        cols = []
        for _ in range(dom.dim):
            a = Fraction(rng.randint(1, 9), 10)
            cols.append((a, 1 - a))
        mechs[trg] = matrix_from_columns(dom, canonical_space({trg: BINARY}), cols)
    spec = SystemSpec(occs, frozenset(edges), mechs,
                      {"va": uniform(canonical_space({"va": BINARY}))})
    quale = build_quale(spec)
    assert len(quale) == 16

    out_space = system_output_space(spec)
    d_out = dirac(out_space, ("0",) * len(out_space.factors))
    subs = list(enumerate_subsystems(spec))
    fine = {s.effective: measure(extend(spec, s), d_out) for s in subs}
    arrows = 0
    for s in subs:
        for e in sorted(edges):
            if e in s.pairs:
                continue
            bigger = Subsystem(s.pairs | {e}, s.effective | {e})
            kl_divergence(fine[bigger.effective], fine[s.effective])
            arrows += 1
    assert arrows == 32

    whole = top(spec)
    n_parts = 0
    for part in enumerate_partitions(whole.source_ids()):
        entanglement(spec, whole, part, d_out)
        n_parts += 1
    assert n_parts == 5  # Bell(3) partitions of {va, vb, vc}

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(9, f"quale + 32-arrow lattice + 5 partitions in {elapsed:.2f}s")


def test_criterion_9b_sixteen_edge_enumeration():
    start = time.monotonic()
    rng = random.Random(99)
    spec = _positive_random_system(
        rng, [f"s{i}" for i in range(4)], [f"t{i}" for i in range(4)])
    quale = build_quale(spec, max_pairs=16)
    assert len(quale) == 65536
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(9, f"65,536 sections in {elapsed:.1f}s")
