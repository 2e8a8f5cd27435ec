import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distmeas.errors import (
    BudgetExceeded,
    EmptyWindow,
    InvalidAutomaton,
    LengthMismatch,
    NonpositiveTemperature,
)
from distmeas.stoch import (
    BINARY,
    ProductSpace,
    alphabet,
    canonical_space,
    dirac,
    make_matrix,
    matrix_from_columns,
    uniform,
)
from distmeas.system import (
    Occasion,
    SystemSpec,
    _rule_matrix,
    automaton,
    hopfield_rule,
    hopfield_weights,
    life_rule,
    unroll,
    validate,
)

from conftest import alphabets, assert_point_masses, spaces


def kinds(violations):
    return sorted(v.kind for v in violations)


# -- validate -----------------------------------------------------------------

def test_wellformed_xor_validates_clean(xor_spec):
    assert validate(xor_spec) == []


def test_domain_order_mismatch_detected(xor_spec):
    # same factors ordered (vY, vX) against canonical (vX, vY)
    flipped_space = ProductSpace((("vY", BINARY), ("vX", BINARY)))
    z = canonical_space({"vZ": BINARY})
    flipped = make_matrix(flipped_space, z, [[1, 0, 1, 0], [0, 1, 0, 1]])
    bad = SystemSpec(xor_spec.occasions, xor_spec.edges,
                     {"vZ": flipped}, dict(xor_spec.sources))
    assert "DomainOrderMismatch" in kinds(validate(bad))


def test_unknown_occasion_in_edge(xor_spec):
    bad = SystemSpec(xor_spec.occasions, xor_spec.edges | {("vX", "ghost")},
                     dict(xor_spec.mechanisms), dict(xor_spec.sources))
    assert "UnknownOccasion" in kinds(validate(bad))


def test_missing_mechanism_and_source(xor_spec):
    bad = SystemSpec(xor_spec.occasions, xor_spec.edges, {}, {})
    assert kinds(validate(bad)).count("MissingMechanism") == 1
    assert kinds(validate(bad)).count("MissingSource") == 2


def test_sourceless_occasion_with_mechanism_flagged(xor_spec):
    z = canonical_space({"vZ": BINARY})
    bad = SystemSpec(
        xor_spec.occasions, xor_spec.edges,
        dict(xor_spec.mechanisms, vX=make_matrix(z, canonical_space({"vX": BINARY}),
                                                 [[1, 0], [0, 1]])),
        dict(xor_spec.sources))
    assert "UnexpectedMechanism" in kinds(validate(bad))


Z = canonical_space({"vZ": BINARY})


@pytest.mark.parametrize("kind, change", [
    ("DuplicateOccasion", {"occasions": (Occasion("vX", BINARY),)}),
    ("UnknownOccasion", {"mechanisms": {"ghost": make_matrix(
        canonical_space({"vX": BINARY}), canonical_space({"ghost": BINARY}), [[1, 0], [0, 1]])}}),
    ("UnknownOccasion", {"sources": {"ghost": uniform(canonical_space({"ghost": BINARY}))}}),
    ("DomainMismatch", {"mechanisms": {"vZ": make_matrix(
        canonical_space({"vX": BINARY}), Z, [[1, 0], [0, 1]])}}),
    ("CodomainMismatch", {"mechanisms": {"vZ": make_matrix(
        canonical_space({"vX": BINARY, "vY": BINARY}), canonical_space({"vW": BINARY}),
        [[1, 0, 0, 1], [0, 1, 1, 0]])}}),
    ("UnexpectedSource", {"sources": {"vZ": uniform(Z)}}),
    ("SourceSpaceMismatch", {"sources": {"vX": uniform(canonical_space({"vY": BINARY}))}}),
], ids=["duplicate-occasion", "mechanism-of-an-unknown-occasion",
        "source-of-an-unknown-occasion", "domain-mismatch", "codomain-mismatch",
        "unexpected-source", "source-space-mismatch"])
def test_validate_reports_the_one_violation_of_a_mutated_xor(xor_spec, kind, change):
    bad = SystemSpec(
        xor_spec.occasions + change.get("occasions", ()), xor_spec.edges,
        {**xor_spec.mechanisms, **change.get("mechanisms", {})},
        {**xor_spec.sources, **change.get("sources", {})})
    assert kinds(validate(bad)) == [kind]


def test_validate_reports_every_violation_in_order():
    # duplicate ids read their first occasion's alphabet (vX ternary, vZ
    # binary); targets read their known sources in id order
    ternary = alphabet(range(3))
    occasions = (Occasion("vZ", BINARY), Occasion("vX", ternary), Occasion("vY", BINARY),
                 Occasion("vX", BINARY), Occasion("vW", BINARY), Occasion("vV", BINARY),
                 Occasion("vZ", ternary))
    edges = frozenset({("vX", "vZ"), ("vY", "vZ"), ("ghost", "vZ"), ("vY", "vW"),
                       ("vX", "ghost"), ("vY", "vV"), ("vX", "vV")})
    identity = [[1, 0], [0, 1]]
    x, y = canonical_space({"vX": BINARY}), canonical_space({"vY": BINARY})
    mechanisms = {
        "vZ": make_matrix(canonical_space({"vX": BINARY, "vY": BINARY}), Z,
                          [[1, 0, 0, 1], [0, 1, 1, 0]]),
        "vW": make_matrix(y, canonical_space({"vQ": BINARY}), identity),
        "vY": make_matrix(x, y, identity),
        "ghost2": make_matrix(x, canonical_space({"ghost2": BINARY}), identity),
    }
    sources = {"vX": uniform(x), "vW": uniform(canonical_space({"vW": BINARY})),
               "nobody": uniform(canonical_space({"nobody": BINARY}))}
    assert [str(v) for v in validate(SystemSpec(occasions, edges, mechanisms, sources))] == [
        "DuplicateOccasion: occasion id 'vX' repeats",
        "DuplicateOccasion: occasion id 'vZ' repeats",
        "UnknownOccasion: edge (ghost,vZ) references 'ghost'",
        "UnknownOccasion: edge (vX,ghost) references 'ghost'",
        "UnknownOccasion: mechanism for unknown occasion 'ghost2'",
        "UnknownOccasion: source distribution for unknown occasion 'nobody'",
        "DomainMismatch: mechanism of 'vZ' has domain ('vX', 'vY'), expected ('vX', 'vY')",
        "SourceSpaceMismatch: distribution of 'vX' is over the wrong space",
        "UnexpectedMechanism: sourceless occasion 'vY' carries a mechanism",
        "MissingSource: sourceless occasion 'vY' needs a distribution",
        "SourceSpaceMismatch: distribution of 'vX' is over the wrong space",
        "CodomainMismatch: mechanism of 'vW' must output over its own alphabet",
        "UnexpectedSource: occasion 'vW' has sources but also a source distribution",
        "MissingMechanism: occasion 'vV' has sources ('vX', 'vY') but no mechanism",
        "DomainMismatch: mechanism of 'vZ' has domain ('vX', 'vY'), expected ('vX', 'vY')",
    ]


# -- unroll -------------------------------------------------------------------

def identity_rule():
    return {("0",): "0", ("1",): "1"}


def test_unroll_single_cell_two_steps():
    auto = automaton(
        cells=["c"], neighborhoods={"c": ["c"]}, rules={"c": identity_rule()},
        window=(0, 1), initial={"c": "1"})
    spec = unroll(auto)
    assert len(spec.occasions) == 2
    assert spec.edges == {("c@0", "c@1")}
    assert validate(spec) == []
    assert spec.sources["c@0"] == dirac(canonical_space({"c@0": BINARY}), "1")


def test_unroll_three_cell_ring_three_steps():
    cells = ["a", "b", "c"]
    nbrs = {c: [cells[(i - 1) % 3], c, cells[(i + 1) % 3]]
            for i, c in enumerate(cells)}
    rule = life_rule(3, self_index=1)
    auto = automaton(
        cells=cells, neighborhoods=nbrs,
        rules={c: rule for c in cells},
        window=(0, 2), initial={c: "0" for c in cells})
    spec = unroll(auto)
    assert len(spec.occasions) == 9
    assert len(spec.edges) == 18  # 6 non-initial occasions x 3 in-edges
    assert validate(spec) == []
    for (a, b) in spec.edges:
        sa, ta = a.split("@"), b.split("@")
        assert int(ta[1]) == int(sa[1]) + 1
        assert sa[0] in [n if isinstance(n, str) else n[0] for n in nbrs[ta[0]]]


def test_unroll_time_varying_rule():
    flip = {("0",): "1", ("1",): "0"}
    auto = automaton(
        cells=["c"], neighborhoods={"c": ["c"]},
        rules={"c": {1: identity_rule(), 2: flip}},
        window=(0, 2), initial={"c": "0"})
    spec = unroll(auto)
    m1 = spec.mechanisms["c@1"]
    m2 = spec.mechanisms["c@2"]
    assert m1.cols == ((1, 0), (0, 1))
    assert m2.cols == ((0, 1), (1, 0))


def test_unroll_lagged_inputs_reach_back():
    auto = automaton(
        cells=["c"], neighborhoods={"c": [("c", 2)]},
        rules={"c": identity_rule()},
        window=(0, 2), initial={"c": "1"})
    spec = unroll(auto)
    assert ("c@0", "c@2") in spec.edges
    # c@1 has no available input: it becomes a noise source, the rule's
    # uniform average
    assert "c@1" in spec.sources
    assert spec.sources["c@1"].weights == (Fraction(1, 2),) * 2
    assert validate(spec) == []


def test_unroll_partially_available_history_averages_missing_input():
    # at t=1 the lag-2 input does not exist yet; the rule is averaged over it
    xor = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    auto = automaton(
        cells=["c"], neighborhoods={"c": [("c", 1), ("c", 2)]},
        rules={"c": xor}, window=(0, 2), initial={"c": "1"})
    spec = unroll(auto)
    assert validate(spec) == []
    m1 = spec.mechanisms["c@1"]
    assert m1.domain.factor_ids == ("c@0",)
    assert m1.cols == ((Fraction(1, 2), Fraction(1, 2)),) * 2
    m2 = spec.mechanisms["c@2"]  # both inputs exist at t=2
    assert set(m2.domain.factor_ids) == {"c@0", "c@1"}
    assert m2.p(("1",), ("0", "1")) == 1


def test_unroll_empty_window():
    auto = automaton(
        cells=["c"], neighborhoods={"c": ["c"]}, rules={"c": identity_rule()},
        window=(0, 0), initial={"c": "0"})
    with pytest.raises(EmptyWindow):
        unroll(automaton(
            cells=["c"], neighborhoods={"c": ["c"]}, rules={"c": identity_rule()},
            window=(3, 2), initial={"c": "0"}))
    assert len(unroll(auto).occasions) == 1


def test_unroll_arity_mismatch():
    auto = automaton(
        cells=["c"], neighborhoods={"c": ["c", "c"]}, rules={"c": identity_rule()},
        window=(0, 1), initial={"c": "0"})
    with pytest.raises(InvalidAutomaton):
        unroll(auto)


XOR_RULE = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}


@pytest.mark.parametrize("key", [("0", "0", "0"), ("0",), ("0", "7"), ("2", "1")],
                         ids=["three-symbols", "one-symbol", "7-of-b", "2-of-a"])
def test_unroll_refuses_a_table_key_after_the_first_that_does_not_fit(key):
    # the first key fits the neighborhood (a, b); a later one does not
    auto = automaton(
        cells=["a", "b"], neighborhoods={"a": ["a", "b"], "b": ["b"]},
        rules={"a": {**XOR_RULE, key: "1"}, "b": identity_rule()},
        window=(0, 1), initial={"a": "0", "b": "0"})
    with pytest.raises(InvalidAutomaton, match=re.escape(f"rule of 'a' has key {key}")):
        unroll(auto)


def test_rule_inputs_budget_is_priced_before_a_rule_is_read():
    from distmeas.system import _RULE_INPUTS_BUDGET, _check_rule_inputs
    _check_rule_inputs("a", [2] * 16)
    _check_rule_inputs("a", [_RULE_INPUTS_BUDGET, 1])
    with pytest.raises(BudgetExceeded, match="'a' has 131072 joint inputs"):
        _check_rule_inputs("a", [2] * 17)
    # eleven ternary neighbors: 3^11 inputs, refused before the table's
    # arity is looked at
    cells = [f"c{i}" for i in range(11)]
    auto = automaton(
        cells=cells, neighborhoods={c: cells for c in cells},
        rules={c: identity_rule() for c in cells}, window=(0, 1),
        initial={c: "0" for c in cells}, alphabets={c: alphabet("012") for c in cells})
    with pytest.raises(BudgetExceeded, match="'c0' has 177147 joint inputs"):
        unroll(auto)


@pytest.mark.parametrize("change, message", [
    ({"neighborhoods": {}}, "cell 'a' has no neighborhood"),
    ({"neighborhoods": {"a": ["z"]}}, "neighborhood of 'a' references unknown cell 'z'"),
    ({"neighborhoods": {"a": [("a", 0)]}}, "lag must be >= 1, got 0 for 'a'"),
    ({"neighborhoods": {"a": [("a", -2)]}}, "lag must be >= 1, got -2 for 'a'"),
    ({"rules": {}}, "cell 'a' has no rule"),
    ({"initial": {}}, "cell 'a' has no initial condition"),
], ids=["no-neighborhood", "unknown-neighbor", "lag-0", "lag-negative", "no-rule", "no-initial"])
def test_automaton_refuses_a_cell_it_cannot_unroll(change, message):
    args = {"cells": ["a"], "neighborhoods": {"a": ["a"]}, "rules": {"a": identity_rule()},
            "window": (0, 1), "initial": {"a": "0"}}
    with pytest.raises(InvalidAutomaton, match=f"^{re.escape(message)}$"):
        automaton(**{**args, **change})


ON_A = canonical_space({"out": BINARY})


@pytest.mark.parametrize("rule, message", [
    ({("0",): "0"}, "rule of 'a' undefined on ('1',)"),
    ({("0",): "0", ("1",): "2"},
     "rule of 'a' has key ('1',), whose value '2' is not a symbol of 'a'"),
    ("life", "rule of 'a' is neither a table nor a stochastic matrix"),
    (make_matrix(ProductSpace((("n0", alphabet("10")),)), ON_A, [[1, 0], [0, 1]]),
     "rule of 'a' reads ('1', '0') from 'a', not ('0', '1')"),
    (make_matrix(ProductSpace((("n0", BINARY),)), canonical_space({"out": alphabet("012")}),
                 [[1, 0], [0, 1], [0, 0]]),
     "rule of 'a' has 3 outputs, for the 2 symbols of 'a'"),
    (hopfield_rule([1, 1], 1), "rule arity of 'a' does not match neighborhood size 1"),
], ids=["table-missing-an-input", "table-value-not-a-symbol", "neither", "matrix-over-another-alphabet",
        "matrix-onto-three-outputs", "matrix-of-two-inputs"])
def test_unroll_refuses_a_rule_that_does_not_fit_its_cell(rule, message):
    auto = automaton(cells=["a"], neighborhoods={"a": ["a"]}, rules={"a": rule},
                     window=(0, 1), initial={"a": "0"})
    with pytest.raises(InvalidAutomaton, match=f"^{re.escape(message)}$"):
        unroll(auto)


def test_unroll_converts_each_rule_of_a_cell_once(monkeypatch):
    import distmeas.system
    convert = distmeas.system._rule_matrix
    calls = Counter()

    def counted(auto, cell, rule):
        calls[cell] += 1
        return convert(auto, cell, rule)

    monkeypatch.setattr(distmeas.system, "_rule_matrix", counted)
    flip = {("0",): "1", ("1",): "0"}
    shared = identity_rule()
    auto = automaton(
        cells=["a", "b", "c"], neighborhoods={c: [c] for c in "abc"},
        rules={"a": shared, "b": shared, "c": {1: shared, 2: flip, 3: shared, 4: flip}},
        window=(0, 4), initial={c: "0" for c in "abc"})
    unroll(auto)
    # a table is checked against each cell that uses it
    assert calls == {"a": 1, "b": 1, "c": 2}


def _reference_columns(auto, cell, t):
    """The columns (or the weights) of cell@t, each summed over every
    combination of the symbols of the slots before the window, one rule
    input at a time."""
    rule = auto.rules[cell]
    nbrs = auto.neighborhoods[cell]
    out_symbols = auto.alphabet_of(cell).symbols
    domain = canonical_space({f"{k}@{t - lag}": auto.alphabet_of(k)
                              for k, lag in nbrs if t - lag >= auto.window[0]})
    cols = []
    for joint in domain.iter_symbols():
        by_occ = dict(zip(domain.factor_ids, joint))
        keys = list(itertools.product(*(
            (by_occ[f"{k}@{t - lag}"],) if t - lag >= auto.window[0] else auto.alphabet_of(k).symbols
            for k, lag in nbrs)))
        acc = [Fraction(0)] * len(out_symbols)
        for key in keys:
            if isinstance(rule, dict):
                acc[out_symbols.index(rule[key])] += Fraction(1, len(keys))
            else:
                for i, v in enumerate(rule.cols[rule.domain.index_of(key)]):
                    acc[i] += v / len(keys)
        cols.append(tuple(acc))
    return domain.factor_ids, tuple(cols)


@given(spaces(), alphabets(), st.data())
def test_a_table_rule_is_read_as_valid_point_masses(inputs, out, data):
    # each factor of inputs is a neighbor of cell c, read at lag 1
    rule = {joint: data.draw(st.sampled_from(out.symbols)) for joint in inputs.iter_symbols()}
    neighbors = inputs.factor_ids
    auto = automaton(
        cells=(*neighbors, "c"),
        neighborhoods={**{k: [] for k in neighbors}, "c": neighbors},
        rules={**{k: {(): "0"} for k in neighbors}, "c": rule},
        window=(0, 1), initial={k: "0" for k in (*neighbors, "c")},
        alphabets={**dict(inputs.factors), "c": out})
    m = _rule_matrix(auto, "c", rule)
    assert_point_masses(m)
    assert [out.symbols[col.index(1)] for col in m.cols] == list(rule.values())


@st.composite
def lagged_automata(draw):
    """Up to three cells of one to three symbols, each reading one to three
    (cell, lag) slots, lags up to 3, by a random table or matrix."""
    cells = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    alphabets = {c: alphabet(range(draw(st.integers(1, 3)))) for c in cells}
    nbrs, rules = {}, {}
    for c in cells:
        nbrs[c] = draw(st.lists(st.tuples(st.sampled_from(cells), st.integers(1, 3)),
                                min_size=1, max_size=3))
        inputs = ProductSpace(tuple((f"n{i}", alphabets[k]) for i, (k, _) in enumerate(nbrs[c])))
        n_out = len(alphabets[c])
        if draw(st.booleans()):
            rules[c] = {joint: draw(st.sampled_from(alphabets[c].symbols))
                        for joint in inputs.iter_symbols()}
        else:
            cols = []
            for _ in range(inputs.dim):
                raw = draw(st.lists(st.integers(0, 3), min_size=n_out, max_size=n_out))
                cols.append([Fraction(v, sum(raw)) for v in raw] if sum(raw) else [1] + [0] * (n_out - 1))
            rules[c] = matrix_from_columns(inputs, canonical_space({"out": alphabets[c]}), cols)
    return automaton(cells=cells, neighborhoods=nbrs, rules=rules, window=(0, 3),
                     initial={c: "0" for c in cells}, alphabets=alphabets)


@given(lagged_automata())
def test_unrolled_mechanisms_average_the_rule_over_the_slots_before_the_window(auto):
    spec = unroll(auto)
    for t in range(1, 4):
        for cell in auto.cells:
            present, cols = _reference_columns(auto, cell, t)
            if present:
                mech = spec.mechanisms[f"{cell}@{t}"]
                assert (mech.domain.factor_ids, mech.cols) == (present, cols)
            else:
                assert spec.sources[f"{cell}@{t}"].weights == cols[0]


@pytest.mark.parametrize("lag, window", [
    (1.5, (0, 2)), (True, (0, 2)), ("1", (0, 2)),
    (1, (0, 2.9)), (1, (0.0, 2)), (1, (False, 2)), (1, ("0", 2)),
], ids=["lag-a-float", "lag-a-bool", "lag-a-string", "window-end-a-float",
        "window-start-a-float", "window-start-a-bool", "window-start-a-string"])
def test_automaton_refuses_non_integer_lags_and_window_bounds(lag, window):
    # int() would truncate 1.5 to lag 1 and 2.9 to window end 2
    with pytest.raises(InvalidAutomaton, match="must be an integer"):
        automaton(cells=["a"], neighborhoods={"a": [("a", lag)]}, rules={"a": identity_rule()},
                  window=window, initial={"a": "0"})


@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_unroll_always_validates(n_cells, steps, data):
    cells = [f"c{i}" for i in range(n_cells)]
    nbrs = {}
    for i, c in enumerate(cells):
        k = data.draw(st.integers(1, min(3, n_cells)), label=f"deg {c}")
        nbrs[c] = [cells[(i + d) % n_cells] for d in range(k)]
    rules = {}
    for c in cells:
        table = {}
        for joint in itertools.product("01", repeat=len(nbrs[c])):
            table[joint] = data.draw(st.sampled_from("01"), label=f"{c}{joint}")
        rules[c] = table
    auto = automaton(cells=cells, neighborhoods=nbrs, rules=rules,
                     window=(0, steps - 1), initial={c: "0" for c in cells})
    spec = unroll(auto)
    assert validate(spec) == []
    assert len(spec.occasions) == n_cells * steps
    for (a, b) in spec.edges:
        src_cell, src_t = a.split("@")
        trg_cell, trg_t = b.split("@")
        assert int(trg_t) == int(src_t) + 1
        assert src_cell in nbrs[trg_cell]


# -- life rule ----------------------------------------------------------------

def test_life_rule_three_live_neighbors_births():
    rule = life_rule(4, self_index=0)
    assert rule[("0", "1", "1", "1")] == "1"


def test_life_rule_self_and_two_survives():
    rule = life_rule(4, self_index=0)
    assert rule[("1", "1", "1", "0")] == "1"


def test_life_rule_lonely_cell_dies():
    rule = life_rule(4, self_index=0)
    assert rule[("0", "1", "0", "0")] == "0"
    assert rule[("1", "1", "0", "0")] == "0"


def test_life_rule_permutation_invariant_over_neighbors():
    for size in (3, 4, 5):
        rule = life_rule(size, self_index=0)
        for bits in itertools.product("01", repeat=size):
            for perm in itertools.permutations(bits[1:]):
                assert rule[bits] == rule[(bits[0],) + perm]


# -- hopfield -----------------------------------------------------------------

def test_hopfield_zero_field_is_even_odds():
    m = hopfield_rule([0, 0], 1)
    for col in m.cols:
        assert col == (Fraction(1, 2), Fraction(1, 2))


def test_hopfield_high_temperature_flattens():
    m = hopfield_rule([5, -3], Fraction(10 ** 9))
    for col in m.cols:
        assert abs(col[1] - Fraction(1, 2)) < Fraction(1, 10 ** 6)


def test_hopfield_log3_field_gives_three_quarters():
    import math
    temperature = 2
    # h = T ln 3 makes e^(h/T) = 3, so p(1) snaps to exactly 3/4
    weight = Fraction(math.log(3)) * temperature
    m = hopfield_rule([weight], temperature)
    on = m.cols[1]  # input n0 = "1"
    assert on[1] == Fraction(3, 4)


def test_hopfield_columns_sum_exactly_one():
    m = hopfield_rule([Fraction(7, 3), Fraction(-1, 9), 2], Fraction(1, 7))
    for col in m.cols:
        assert sum(col) == 1


def test_hopfield_strong_field_stays_strictly_positive():
    # |h|/T = 40 rounds p(1) to 0 or 1 before clamping to [1/D, 1 - 1/D];
    # 10^999 is beyond the float range
    for field in ("40", "1e999"):
        m = hopfield_rule([field, "-" + field], "1")
        for col in m.cols:
            assert all(v > 0 for v in col) and sum(col) == 1
        assert m.cols[1] == (1 - Fraction(1, 10 ** 12), Fraction(1, 10 ** 12))
        assert m.cols[2] == (Fraction(1, 10 ** 12), 1 - Fraction(1, 10 ** 12))


def test_hopfield_snap_denominator_must_leave_room():
    with pytest.raises(InvalidAutomaton):
        hopfield_rule([1], 1, snap_denominator=1)


def test_hopfield_snap_denominator_must_fit_a_float():
    m = hopfield_rule([1], 1, snap_denominator=10 ** 308)
    assert all(sum(col) == 1 and min(col) > 0 for col in m.cols)
    with pytest.raises(InvalidAutomaton):
        hopfield_rule([1], 1, snap_denominator=10 ** 308 + 1)


def test_hopfield_temperature_must_be_positive():
    with pytest.raises(NonpositiveTemperature):
        hopfield_rule([1], 0)


def test_hopfield_weights_empty():
    assert hopfield_weights([]) == []


def test_hopfield_weights_complement_invariant():
    a = hopfield_weights([[1, 0, 1]])
    b = hopfield_weights([[0, 1, 0]])
    assert a == b


def test_hopfield_weights_single_pattern():
    w = hopfield_weights([[1, 0]])
    assert w == [[1, -1], [-1, 1]]


def test_hopfield_weights_length_mismatch():
    with pytest.raises(LengthMismatch):
        hopfield_weights([[1, 0], [1, 0, 1]])
