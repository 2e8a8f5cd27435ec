import itertools
import re
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
)
from distmeas.system import (
    SystemSpec,
    automaton,
    hopfield_rule,
    hopfield_weights,
    life_rule,
    unroll,
    validate,
)


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
