import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import lcm, prod

import pytest

from distmeas.errors import (
    BudgetExceeded,
    EmptySubsystem,
    Incompatible,
    NotASubsystem,
    NotATarget,
    NotStochastic,
    NotSurjective,
    UnknownOccasion,
)
from distmeas import lattice
from distmeas.fixtures import xor_system
from distmeas.lattice import (
    Section,
    Subsystem,
    _submechanism_numerators,
    bottom,
    build_quale,
    descent_counterexample,
    enumerate_subsystems,
    glue_mechanism,
    glue_sections,
    occasion_submechanism,
    restrict,
    section,
    source_space,
    subsystem,
    target_space,
    top,
)
from distmeas.stoch import (
    BINARY,
    ProductSpace,
    StochasticMatrix,
    alphabet,
    canonical_space,
    compose,
    diagonal,
    dual,
    lift_function,
    make_matrix,
    matrix_from_columns,
    tensor,
    uniform,
    with_spaces,
)
from distmeas.system import (
    Occasion,
    SystemSpec,
    automaton,
    hopfield_rule,
    hopfield_weights,
    unroll,
)
from test_acceptance import _positive_random_system

F = Fraction


def positive_system():
    """Fan-out host: sx feeds both tu and tv, sy feeds tv; all entries > 0."""
    occs = tuple(Occasion(i, BINARY) for i in ("sx", "sy", "tu", "tv"))
    edges = {("sx", "tu"), ("sx", "tv"), ("sy", "tv")}
    m_tu = make_matrix(
        canonical_space({"sx": BINARY}), canonical_space({"tu": BINARY}),
        [["3/4", "1/4"], ["1/4", "3/4"]])
    m_tv = make_matrix(
        canonical_space({"sx": BINARY, "sy": BINARY}), canonical_space({"tv": BINARY}),
        [["2/3", "1/2", "1/3", "1/5"], ["1/3", "1/2", "2/3", "4/5"]])
    sources = {i: uniform(canonical_space({i: BINARY})) for i in ("sx", "sy")}
    return SystemSpec(occs, frozenset(edges), {"tu": m_tu, "tv": m_tv}, sources)


def chain_system():
    """va -> vb -> vc with positive mechanisms."""
    occs = tuple(Occasion(i, BINARY) for i in ("va", "vb", "vc"))
    edges = {("va", "vb"), ("vb", "vc")}
    m_b = make_matrix(
        canonical_space({"va": BINARY}), canonical_space({"vb": BINARY}),
        [["5/6", "1/3"], ["1/6", "2/3"]])
    m_c = make_matrix(
        canonical_space({"vb": BINARY}), canonical_space({"vc": BINARY}),
        [["1/4", "2/5"], ["3/4", "3/5"]])
    return SystemSpec(occs, frozenset(edges), {"vb": m_b, "vc": m_c},
                      {"va": uniform(canonical_space({"va": BINARY}))})


def joint_table_oracle(spec, sub, averaged=None):
    """Independent construction of the glued mechanism: for each joint input
    and output, multiply each target's full-mechanism probability averaged
    uniformly over its inputs outside the subsystem.

    averaged (a dict, empty at first) keeps those averages by (target, its
    inside sources' symbols, its output symbol), for callers that build the
    oracle of many subsystems of one spec."""
    if averaged is None:
        averaged = {}
    s_space = source_space(spec, sub)
    a_space = target_space(spec, sub)
    cols = []
    for s in s_space.iter_symbols():
        fixed = dict(zip(s_space.factor_ids, s))
        col = []
        for a in a_space.iter_symbols():
            want = dict(zip(a_space.factor_ids, a))
            p = F(1)
            for l in sub.target_ids():
                mech = spec.mechanisms[l]
                inside = {k for (k, t) in sub.effective if t == l}
                key = (l, frozenset((k, fixed[k]) for k in inside), want[l])
                if key not in averaged:
                    total = F(0)
                    count = 0
                    for full in mech.domain.iter_symbols():
                        if any(full[mech.domain.position(k)] != fixed[k] for k in inside):
                            continue
                        count += 1
                        total += mech.p((want[l],), full)
                    averaged[key] = total / count
                p *= averaged[key]
            col.append(p)
        cols.append(col)
    return matrix_from_columns(s_space, a_space, cols)


# -- enumeration --------------------------------------------------------------

def test_bottom_is_one_shared_null_subsystem(xor_spec, and_spec):
    assert bottom(xor_spec) is bottom(xor_spec) is bottom(and_spec)
    assert bottom(xor_spec) == Subsystem(frozenset(), frozenset())
    assert bottom(xor_spec).is_null


def test_enumerate_xor_subsystems(xor_spec):
    subs = list(enumerate_subsystems(xor_spec))
    assert len(subs) == 4
    assert subs[0].pairs == frozenset()
    assert subs[1].pairs == {("vX", "vZ")}
    assert subs[2].pairs == {("vY", "vZ")}
    assert subs[3].pairs == {("vX", "vZ"), ("vY", "vZ")}


def test_enumerate_single_edge():
    spec = chain_system()
    small = SystemSpec(spec.occasions[:2], frozenset({("va", "vb")}),
                       {"vb": spec.mechanisms["vb"]}, dict(spec.sources))
    assert len(list(enumerate_subsystems(small))) == 2


def test_enumerate_budget_guard(xor_spec):
    with pytest.raises(BudgetExceeded):
        list(enumerate_subsystems(xor_spec, max_pairs=1))


def test_subsystem_tags_ineffective(xor_spec):
    sub = subsystem(xor_spec, [("vX", "vZ"), ("vZ", "vX")])
    assert sub.effective == {("vX", "vZ")}
    assert sub.ineffective == {("vZ", "vX")}
    with pytest.raises(UnknownOccasion):
        subsystem(xor_spec, [("vX", "ghost")])


# -- occasion submechanism ------------------------------------------------------

def test_submechanism_full_context_is_mechanism(and_spec):
    sub = top(and_spec)
    assert occasion_submechanism(and_spec, sub, "vZ") == and_spec.mechanisms["vZ"]


def test_submechanism_and_averages_noise(and_spec):
    sub = subsystem(and_spec, [("vX", "vZ")])
    m = occasion_submechanism(and_spec, sub, "vZ")
    assert m.cols[0] == (1, 0)                # AND(0, .) is always 0
    assert m.cols[1] == (F(1, 2), F(1, 2))    # AND(1, .) averages over y


def test_submechanism_xor_is_uninformative(xor_spec):
    sub = subsystem(xor_spec, [("vX", "vZ")])
    m = occasion_submechanism(xor_spec, sub, "vZ")
    assert m.cols[0] == (F(1, 2), F(1, 2))
    assert m.cols[1] == (F(1, 2), F(1, 2))


def test_submechanism_requires_target(xor_spec):
    with pytest.raises(NotATarget):
        occasion_submechanism(xor_spec, subsystem(xor_spec, [("vX", "vZ")]), "vX")


# -- glue ----------------------------------------------------------------------

def test_glue_single_edge_equals_submechanism(and_spec):
    sub = subsystem(and_spec, [("vX", "vZ")])
    assert glue_mechanism(and_spec, sub) == occasion_submechanism(and_spec, sub, "vZ")


def test_glue_top_recovers_whole_mechanism(xor_spec):
    assert glue_mechanism(xor_spec, top(xor_spec)) == xor_spec.mechanisms["vZ"]


def test_glue_empty_subsystem_rejected(xor_spec):
    with pytest.raises(EmptySubsystem):
        glue_mechanism(xor_spec, bottom(xor_spec))


def three_target_system():
    """Sources u, v; targets r (from u), s (from u, v), t (from v)."""
    occs = tuple(Occasion(i, BINARY) for i in ("u", "v", "r", "s", "t"))
    edges = {("u", "r"), ("u", "s"), ("v", "s"), ("v", "t")}
    unary = lambda src, trg, a: make_matrix(
        canonical_space({src: BINARY}), canonical_space({trg: BINARY}),
        [[a, "1/3"], [1 - F(a), "2/3"]])
    m_s = make_matrix(
        canonical_space({"u": BINARY, "v": BINARY}), canonical_space({"s": BINARY}),
        [["1/2", "1/5", "2/5", "3/7"], ["1/2", "4/5", "3/5", "4/7"]])
    return SystemSpec(
        occs, frozenset(edges),
        {"r": unary("u", "r", F(1, 4)), "s": m_s, "t": unary("v", "t", F(5, 6))},
        {i: uniform(canonical_space({i: BINARY})) for i in ("u", "v")})


def test_glue_matches_joint_table_oracle():
    for spec in (positive_system(), three_target_system()):
        for sub in enumerate_subsystems(spec):
            if sub.is_null:
                continue
            assert glue_mechanism(spec, sub) == joint_table_oracle(spec, sub)


def test_glue_matches_explicit_tensor_diagonal_composition():
    # shared sources: the diagonal must duplicate them before tensoring;
    # copy_source_system's pair joint is not surjective and is still returned
    for spec in (positive_system(), three_target_system(), chain_system(),
                 copy_source_system()):
        for sub in enumerate_subsystems(spec):
            if sub.is_null:
                continue
            mechs = [occasion_submechanism(spec, sub, l) for l in sub.target_ids()]
            diag = diagonal(source_space(spec, sub), [m.domain for m in mechs])
            renamed = []
            offset = 0
            for m in mechs:
                n = len(m.domain.factors)
                renamed.append(with_spaces(
                    m, domain=ProductSpace(diag.codomain.factors[offset:offset + n])))
                offset += n
            literal = compose(reduce(tensor, renamed), diag)
            direct = glue_mechanism(spec, sub)
            assert literal.cols == direct.cols, sorted(sub.pairs)
            assert literal.domain == direct.domain
            assert literal.codomain == direct.codomain


def hopfield_ring(attractor=(1, 0, 1, 1)):
    """Fully connected Hopfield units unrolled over one step; every entry is
    snapped to a multiple of 1/10^12."""
    cells = [f"n{k}" for k in range(len(attractor))]
    weights = hopfield_weights([attractor])
    rules = {c: hopfield_rule([row[k] for row in weights], "1/2") for k, c in enumerate(cells)}
    return unroll(automaton(
        cells=cells, neighborhoods={c: list(cells) for c in cells}, rules=rules,
        window=(0, 1), initial={c: str(b) for c, b in zip(cells, attractor)}))


def test_integer_marginal_equals_occasion_submechanism(xor_spec, and_spec):
    # the kernel's submechanism numerators over LCM x |outside inputs| are the
    # reference submechanism, at every (target, inside sources) of each host.
    # Fresh specs also request them all in increasing and in decreasing size
    # order, so that the memo reaches each target's full mechanism both by
    # recursion and first
    rng = random.Random(31)
    hosts = [xor_spec, and_spec, positive_system(), chain_system(), three_target_system(),
             copy_source_system(), hopfield_ring()]
    hosts += [_positive_random_system(rng, [f"s{i}" for i in range(n)], ["t0", "t1"])
              for n in (1, 2, 3)]
    largest = 0
    for host in hosts:
        cases = [(l, inside) for l in host.mechanisms
                 for size in range(1, len(host.sources_of(l)) + 1)
                 for inside in combinations(host.sources_of(l), size)]
        for spec, order in ((host, cases), (replace(host), cases), (replace(host), cases[::-1])):
            for l, inside in order:
                mech = spec.mechanisms[l]
                scale = lcm(*(v.denominator for col in mech.cols for v in col))
                largest = max(largest, scale)
                pairs = frozenset((k, l) for k in inside)
                sub = Subsystem(pairs, pairs)
                ref = occasion_submechanism(spec, sub, l)
                assert source_space(spec, sub) == ref.domain
                domain, rows = _submechanism_numerators(spec, l, frozenset(inside))
                assert domain == ref.domain
                denom = scale * (mech.domain.dim // ref.domain.dim)
                got = tuple(tuple(F(v, denom) for v in col) for col in zip(*rows))
                assert got == ref.cols, (l, inside)
    assert largest == 10 ** 12  # the Hopfield ring's snap denominator


def test_glue_ignores_ineffective_pairs(xor_spec):
    plain = subsystem(xor_spec, [("vX", "vZ")])
    padded = subsystem(xor_spec, [("vX", "vZ"), ("vZ", "vY"), ("vY", "vX")])
    assert glue_mechanism(xor_spec, plain) == glue_mechanism(xor_spec, padded)


# -- quale ---------------------------------------------------------------------

def test_quale_of_xor(xor_spec):
    quale = build_quale(xor_spec)
    assert len(quale) == 4
    whole = quale.section(top(xor_spec)).matrix
    assert whole.cols[0] == (F(1, 2), 0, 0, F(1, 2))
    assert whole.cols[1] == (0, F(1, 2), F(1, 2), 0)
    for pairs in ([("vX", "vZ")], [("vY", "vZ")]):
        sec = quale.section(subsystem(xor_spec, pairs)).matrix
        assert sec.cols == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    empty = quale.section(bottom(xor_spec)).matrix
    assert empty.cols == ((1,),)


def test_quale_section_is_dual_of_preimages():
    from distmeas.stoch import alphabet
    a3 = alphabet("abc")
    occs = (Occasion("vA", a3), Occasion("vB", BINARY))
    f = lift_function(
        canonical_space({"vA": a3}), canonical_space({"vB": BINARY}),
        {"a": "0", "b": "0", "c": "1"})
    spec = SystemSpec(occs, frozenset({("vA", "vB")}), {"vB": f},
                      {"vA": uniform(canonical_space({"vA": a3}))})
    quale = build_quale(spec)
    sec = quale.section(top(spec)).matrix
    assert sec.cols[0] == (F(1, 2), F(1, 2), 0)
    assert sec.cols[1] == (0, 0, 1)


def copy_source_system():
    """A source copied into two targets: the pair-joint mechanism misses
    (0,1), and that subsystem comes last in the quale's order."""
    occs = tuple(Occasion(i, BINARY) for i in ("s", "t1", "t2"))
    ident = lambda trg: lift_function(
        canonical_space({"s": BINARY}), canonical_space({trg: BINARY}),
        {"0": "0", "1": "1"})
    return SystemSpec(occs, frozenset({("s", "t1"), ("s", "t2")}),
                      {"t1": ident("t1"), "t2": ident("t2")},
                      {"s": uniform(canonical_space({"s": BINARY}))})


def test_quale_reports_non_surjective_subsystem():
    with pytest.raises(NotSurjective, match="t1"):
        build_quale(copy_source_system())


def test_quale_fast_path_matches_operator_pipeline():
    # build_quale's integer path must equal the dual of the independently
    # built joint table exactly (glue_mechanism reads the same kernel)
    for spec in (positive_system(), chain_system(), xor_system()):
        quale = build_quale(spec)
        for sec in quale.sections:
            if sec.subsystem.is_null:
                continue
            assert sec.matrix == dual(joint_table_oracle(spec, sec.subsystem))


def test_quale_checks_the_budget_before_the_first_section(xor_spec, monkeypatch):
    monkeypatch.setattr(lattice, "_quale_rows", None)  # a TypeError if reached
    with pytest.raises(BudgetExceeded, match="2 edges exceed the budget of 1"):
        build_quale(xor_spec, max_pairs=1)


def test_quale_section_lookup_finds_every_section_and_only_those(xor_spec):
    quale = build_quale(xor_spec)
    assert all(quale.section(sec.subsystem) is sec for sec in quale.sections)
    padded = subsystem(xor_spec, [("vX", "vZ"), ("vZ", "vX")])
    with pytest.raises(NotASubsystem, match="no section for pairs"):
        quale.section(padded)


def test_quale_sections_identical_across_ineffective_padding(xor_spec):
    quale = build_quale(xor_spec)
    plain = quale.section(subsystem(xor_spec, [("vX", "vZ")]))
    padded_sub = subsystem(xor_spec, [("vX", "vZ"), ("vZ", "vX")])
    assert glue_mechanism(xor_spec, padded_sub) == glue_mechanism(
        xor_spec, plain.subsystem)
    assert dual(glue_mechanism(xor_spec, padded_sub)) == plain.matrix


# -- restriction ----------------------------------------------------------------

def test_restrict_to_self_is_identity(xor_spec):
    quale = build_quale(xor_spec)
    sec = quale.section(top(xor_spec))
    again = restrict(xor_spec, sec, top(xor_spec))
    assert again.matrix == sec.matrix


def test_restrict_to_bottom_is_scalar(xor_spec):
    quale = build_quale(xor_spec)
    sec = quale.section(top(xor_spec))
    down = restrict(xor_spec, sec, bottom(xor_spec))
    assert down.matrix.cols == ((1,),)


def test_restrict_chain_composes(xor_spec):
    quale = build_quale(xor_spec)
    sec = quale.section(top(xor_spec))
    mid = subsystem(xor_spec, [("vX", "vZ")])
    low = bottom(xor_spec)
    assert restrict(xor_spec, restrict(xor_spec, sec, mid), low).matrix == \
        restrict(xor_spec, sec, low).matrix


def test_restrict_chain_composes_positive_system():
    spec = positive_system()
    quale = build_quale(spec)
    sec = quale.section(top(spec))
    mid = subsystem(spec, [("sx", "tv"), ("sy", "tv")])
    low = subsystem(spec, [("sy", "tv")])
    two_step = restrict(spec, restrict(spec, sec, mid), low)
    one_step = restrict(spec, sec, low)
    assert two_step.matrix == one_step.matrix


def test_restrict_chain_commutes_on_random_chains():
    # restriction along any containment chain equals the one-step restriction
    import random
    rng = random.Random(8)
    for spec in (positive_system(), three_target_system()):
        edges = sorted(spec.edges)
        quale = build_quale(spec)
        for _ in range(25):
            keep3 = [e for e in edges if rng.random() < 0.8]
            keep2 = [e for e in keep3 if rng.random() < 0.7]
            keep1 = [e for e in keep2 if rng.random() < 0.7]
            c3 = subsystem(spec, keep3)
            c2 = subsystem(spec, keep2)
            c1 = subsystem(spec, keep1)
            sec = quale.section(c3)
            two_step = restrict(spec, restrict(spec, sec, c2), c1)
            one_step = restrict(spec, sec, c1)
            assert two_step.matrix == one_step.matrix


def test_restrict_xor_top_to_single_edge_is_uniform(xor_spec):
    # marginalizing the XOR posterior over the other input gives coin flips
    quale = build_quale(xor_spec)
    sec = quale.section(top(xor_spec))
    down = restrict(xor_spec, sec, subsystem(xor_spec, [("vX", "vZ")]))
    assert down.matrix.cols == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_restrict_requires_containment(xor_spec):
    quale = build_quale(xor_spec)
    sec = quale.section(subsystem(xor_spec, [("vX", "vZ")]))
    with pytest.raises(NotASubsystem):
        restrict(xor_spec, sec, top(xor_spec))


def test_quale_restrictions_pairwise_compatible_on_fanout_free_systems(xor_spec, and_spec):
    for spec in (xor_spec, and_spec, chain_system()):
        quale = build_quale(spec)
        for s1 in quale.sections:
            for s2 in quale.sections:
                meet = Subsystem(s1.subsystem.pairs & s2.subsystem.pairs,
                                 s1.subsystem.effective & s2.subsystem.effective)
                r1 = restrict(spec, s1, meet)
                r2 = restrict(spec, s2, meet)
                assert r1.matrix == r2.matrix


def test_quale_restrictions_can_disagree_under_fanout():
    # known gap: averaging a posterior over dropped outputs is not the
    # posterior of the averaged mechanism, so shared-source fan-out systems
    # produce incompatible restrictions
    spec = positive_system()
    quale = build_quale(spec)
    big = quale.section(top(spec))
    small_sub = subsystem(spec, [("sx", "tu")])
    small = quale.section(small_sub)
    restricted = restrict(spec, big, small_sub)
    assert restricted.matrix != small.matrix


# -- gluing sections -------------------------------------------------------------

def test_glue_disjoint_sections_is_product():
    spec = chain_system()
    quale = build_quale(spec)
    a = quale.section(subsystem(spec, [("va", "vb")]))
    b = quale.section(subsystem(spec, [("vb", "vc")]))
    glued = glue_sections(spec, a, b)
    assert glued.subsystem.pairs == top(spec).pairs
    gm = glued.matrix
    for out in gm.domain.iter_symbols():
        o = dict(zip(gm.domain.factor_ids, out))
        for inp in gm.codomain.iter_symbols():
            i = dict(zip(gm.codomain.factor_ids, inp))
            want = (a.matrix.p((i["va"],), (o["vb"],))
                    * b.matrix.p((i["vb"],), (o["vc"],)))
            assert gm.p(inp, out) == want


def test_glue_same_subsystem_is_idempotent(xor_spec):
    quale = build_quale(xor_spec)
    sec = quale.section(top(xor_spec))
    glued = glue_sections(xor_spec, sec, sec)
    assert glued.matrix == sec.matrix


def test_glue_incompatible_sections_rejected(xor_spec):
    correlated, product = descent_counterexample()
    tweaked = Section(
        product.subsystem,
        make_matrix(product.matrix.domain, product.matrix.codomain,
                    [["1/2", "1/4"], [0, "1/4"], [0, "1/4"], ["1/2", "1/4"]]))
    with pytest.raises(Incompatible):
        glue_sections(xor_spec, correlated, tweaked)


def _two_reader_host():
    occs = tuple(Occasion(i, BINARY) for i in ("sx", "tu", "tv"))
    reader = lambda trg: make_matrix(
        canonical_space({"sx": BINARY}), canonical_space({trg: BINARY}),
        [["2/3", "1/3"], ["1/3", "2/3"]])
    return SystemSpec(occs, frozenset({("sx", "tu"), ("sx", "tv")}),
                      {"tu": reader("tu"), "tv": reader("tv")},
                      {"sx": uniform(canonical_space({"sx": BINARY}))})


def test_glue_detects_non_stochastic_result():
    # two perfectly informative reads of one shared bit: the gluing formula
    # double counts and the column at agreeing outputs sums to 2
    spec = _two_reader_host()
    cu = subsystem(spec, [("sx", "tu")])
    cv = subsystem(spec, [("sx", "tv")])
    ident = ((1, 0), (0, 1))
    a = section(spec, cu, StochasticMatrix(
        target_space(spec, cu), source_space(spec, cu), ident))
    b = section(spec, cv, StochasticMatrix(
        target_space(spec, cv), source_space(spec, cv), ident))
    with pytest.raises(NotStochastic):
        glue_sections(spec, a, b)


def test_glue_renormalize_flag():
    spec = _two_reader_host()
    cu = subsystem(spec, [("sx", "tu")])
    cv = subsystem(spec, [("sx", "tv")])
    soft = ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    a = section(spec, cu, StochasticMatrix(
        target_space(spec, cu), source_space(spec, cu), soft))
    b = section(spec, cv, StochasticMatrix(
        target_space(spec, cv), source_space(spec, cv), soft))
    with pytest.raises(NotStochastic):
        glue_sections(spec, a, b)
    glued = glue_sections(spec, a, b, renormalize=True)
    col = glued.matrix.cols[glued.matrix.domain.index_of(("0", "0"))]
    assert sum(col) == 1
    assert col[0] == F(4, 5)  # (2/3 * 2/3) / (1/2), renormalized by 10/9


def _conditional_product_joint(spec, rng):
    """A random section over {(s1,t1),(s2,t1),(s1,t2),(s3,t2)} of the form
    r(x) s(y|x,u) t(z|x,v); gluing its restrictions recovers it exactly."""
    def rand_dist(n):
        raw = [rng.randint(1, 6) for _ in range(n)]
        total = sum(raw)
        return [F(v, total) for v in raw]

    r = rand_dist(2)
    s = {(x, u): rand_dist(2) for x in "01" for u in "01"}
    t = {(x, v): rand_dist(2) for x in "01" for v in "01"}
    sub = subsystem(spec, [("s1", "t1"), ("s2", "t1"), ("s1", "t2"), ("s3", "t2")])
    dom = target_space(spec, sub)      # (t1, t2)
    cod = source_space(spec, sub)      # (s1, s2, s3)
    cols = []
    for (u, v) in dom.iter_symbols():
        col = []
        for (x, y, z) in cod.iter_symbols():
            col.append(r[int(x)] * s[(x, u)][int(y)] * t[(x, v)][int(z)])
        cols.append(col)
    return sub, section(spec, sub, matrix_from_columns(dom, cod, cols))


def _three_source_host():
    occs = tuple(Occasion(i, BINARY) for i in ("s1", "s2", "s3", "t1", "t2"))
    edges = {("s1", "t1"), ("s2", "t1"), ("s1", "t2"), ("s3", "t2")}
    m1 = make_matrix(
        canonical_space({"s1": BINARY, "s2": BINARY}), canonical_space({"t1": BINARY}),
        [["1/2", "1/3", "1/4", "1/5"], ["1/2", "2/3", "3/4", "4/5"]])
    m2 = make_matrix(
        canonical_space({"s1": BINARY, "s3": BINARY}), canonical_space({"t2": BINARY}),
        [["1/6", "2/5", "3/5", "1/7"], ["5/6", "3/5", "2/5", "6/7"]])
    sources = {i: uniform(canonical_space({i: BINARY})) for i in ("s1", "s2", "s3")}
    return SystemSpec(occs, frozenset(edges), {"t1": m1, "t2": m2}, sources)


def test_glue_roundtrip_from_common_joint():
    import random
    spec = _three_source_host()
    rng = random.Random(11)
    for _ in range(10):
        sub, joint = _conditional_product_joint(spec, rng)
        ci = subsystem(spec, [("s1", "t1"), ("s2", "t1")])
        cj = subsystem(spec, [("s1", "t2"), ("s3", "t2")])
        a = restrict(spec, joint, ci)
        b = restrict(spec, joint, cj)
        glued = glue_sections(spec, a, b)
        assert glued.matrix == joint.matrix
        assert restrict(spec, glued, ci).matrix == a.matrix
        assert restrict(spec, glued, cj).matrix == b.matrix


def test_glue_arbitrary_joint_detects_or_roundtrips():
    import random
    spec = _three_source_host()
    rng = random.Random(23)
    ci = subsystem(spec, [("s1", "t1"), ("s2", "t1")])
    cj = subsystem(spec, [("s1", "t2"), ("s3", "t2")])
    sub = subsystem(spec, sorted(ci.pairs | cj.pairs))
    dom = target_space(spec, sub)
    cod = source_space(spec, sub)
    detected = 0
    for _ in range(25):
        cols = []
        for _ in range(dom.dim):
            raw = [rng.randint(0, 9) for _ in range(cod.dim)]
            if sum(raw) == 0:
                raw[0] = 1
            cols.append([F(v, sum(raw)) for v in raw])
        joint = section(spec, sub, matrix_from_columns(dom, cod, cols))
        a = restrict(spec, joint, ci)
        b = restrict(spec, joint, cj)
        try:
            glued = glue_sections(spec, a, b)
        except NotStochastic:
            detected += 1
            continue
        assert restrict(spec, glued, ci).matrix == a.matrix
        assert restrict(spec, glued, cj).matrix == b.matrix
    assert detected > 0  # generic joints do trip the stochasticity check


TERNARY = alphabet("012")


def _interleaved_host():
    """Sources a, c (ternary) and b (binary); targets x, z (binary) and y
    (ternary). The subsystems {a-x, c-x, c-z} and {b-y, c-y, b-z} share
    source c and target z, so their union's canonical factor order (a, b, c)
    and (x, y, z) interleaves the two parts' factors."""
    alphabets = {"a": TERNARY, "b": BINARY, "c": TERNARY, "x": BINARY, "y": TERNARY, "z": BINARY}
    occs = tuple(Occasion(i, a) for i, a in alphabets.items())
    edges = {("a", "x"), ("c", "x"), ("c", "z"), ("b", "y"), ("c", "y"), ("b", "z")}
    return SystemSpec(occs, frozenset(edges), {})


def _section_table(spec, sec):
    """{(source symbols, target symbols): entry} of a section, each tuple in
    id order."""
    def joints(ids):
        return list(product(*(spec.alphabet_of(i).symbols for i in ids)))

    srcs, trgs = joints(sec.subsystem.source_ids()), joints(sec.subsystem.target_ids())
    return {(s, t): sec.matrix.cols[j][i] for j, t in enumerate(trgs) for i, s in enumerate(srcs)}


def _glue_by_symbols(spec, a, b, renormalize):
    """glue_sections entry by entry over symbol tuples: the glued columns,
    or (error type name, message)."""
    sa, ta = a.subsystem.source_ids(), a.subsystem.target_ids()
    sb, tb = b.subsystem.source_ids(), b.subsystem.target_ids()
    shared_src = tuple(sorted(set(sa) & set(sb)))
    shared_trg = tuple(sorted(set(ta) & set(tb)))
    pa, pb = _section_table(spec, a), _section_table(spec, b)

    def pick(ids, syms, kept):
        return tuple(v for i, v in zip(ids, syms) if i in kept)

    def shared_marginal(p, srcs, trgs):
        # uniform average over the targets outside the shared ones
        n = prod(len(spec.alphabet_of(i)) for i in trgs if i not in shared_trg)
        out = {}
        for (s, t), v in p.items():
            key = (pick(srcs, s, shared_src), pick(trgs, t, shared_trg))
            out[key] = out.get(key, 0) + v / n
        return out

    ra = shared_marginal(pa, sa, ta)
    if ra != shared_marginal(pb, sb, tb):
        return ("Incompatible", "sections disagree on their shared coordinates "
                f"(sources {shared_src}, targets {shared_trg})")
    srcs, trgs = tuple(sorted(set(sa) | set(sb))), tuple(sorted(set(ta) | set(tb)))
    cols, bad = [], []
    for t in product(*(spec.alphabet_of(i).symbols for i in trgs)):
        o = dict(zip(trgs, t))
        col = []
        for s in product(*(spec.alphabet_of(i).symbols for i in srcs)):
            v = dict(zip(srcs, s))
            va = pa[tuple(v[i] for i in sa), tuple(o[i] for i in ta)]
            vb = pb[tuple(v[i] for i in sb), tuple(o[i] for i in tb)]
            denom = ra[tuple(v[i] for i in shared_src), tuple(o[i] for i in shared_trg)]
            col.append(va * vb / denom if va and vb and denom else F(0))
        total = sum(col, F(0))
        if total != 1:
            if renormalize and total > 0:
                col = [v / total for v in col]
            else:
                bad.append((t, total))
        cols.append(tuple(col))
    if bad:
        detail = ", ".join(f"{o}: {t}" for o, t in bad[:4])
        return ("NotStochastic", f"glued section has {len(bad)} non-stochastic columns ({detail})")
    return tuple(cols)


def _random_union_section(spec, sub, rng):
    """A random section over sub: either any column-stochastic matrix with
    some zero entries, or r(c|z) s(a|c,x) u(b|c,y), whose restrictions glue
    back exactly."""
    dom, cod = target_space(spec, sub), source_space(spec, sub)

    def rand_dist(n):
        raw = [rng.randint(0, 4) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        return [F(v, sum(raw)) for v in raw]

    if rng.random() < 0.5:
        cols = [rand_dist(cod.dim) for _ in range(dom.dim)]
    else:
        r = {(z,): rand_dist(3) for z in "01"}
        s = {(c, x): rand_dist(3) for c in "012" for x in "01"}
        u = {(c, y): rand_dist(2) for c in "012" for y in "012"}
        cols = [[r[z,][int(c)] * s[c, x][int(a)] * u[c, y][int(b)]
                 for a, b, c in cod.iter_symbols()] for x, y, z in dom.iter_symbols()]
    return section(spec, sub, matrix_from_columns(dom, cod, cols))


def test_glue_matches_symbol_scan_on_interleaved_factors():
    spec = _interleaved_host()
    ci = subsystem(spec, [("a", "x"), ("c", "x"), ("c", "z")])
    cj = subsystem(spec, [("b", "y"), ("c", "y"), ("b", "z")])
    union = subsystem(spec, sorted(ci.pairs | cj.pairs))
    rng = random.Random(29)
    kinds = Counter()
    for _ in range(45):
        joint = _random_union_section(spec, union, rng)
        other = _random_union_section(spec, union, rng)
        pairs = [(restrict(spec, joint, ci), restrict(spec, joint, cj)),
                 (restrict(spec, joint, ci), restrict(spec, other, cj))]
        for (a, b), renormalize in product(pairs, (False, True)):
            try:
                got = glue_sections(spec, a, b, renormalize=renormalize).matrix.cols
            except (Incompatible, NotStochastic) as exc:
                got = (type(exc).__name__, str(exc))
            want = _glue_by_symbols(spec, a, b, renormalize)
            assert got == want
            kinds[want[0] if isinstance(want[0], str) else "glued"] += 1
    assert set(kinds) == {"glued", "Incompatible", "NotStochastic"}


# -- descent -------------------------------------------------------------------

def test_descent_counterexample_restricts_equally():
    correlated, product = descent_counterexample()
    assert correlated.subsystem == product.subsystem
    assert correlated.matrix != product.matrix
    host = xor_system()
    for pairs in ([("vX", "vZ")], [("vY", "vZ")]):
        sub = subsystem(host, pairs)
        r1 = restrict(host, correlated, sub)
        r2 = restrict(host, product, sub)
        assert r1.matrix == r2.matrix


def test_descent_counterexample_entry_difference():
    correlated, product = descent_counterexample()
    col_c = correlated.matrix.cols[0]
    col_p = product.matrix.cols[0]
    assert col_c[0] == F(1, 2) and col_p[0] == F(1, 4)
