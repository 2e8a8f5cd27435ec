import math
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distmeas.errors import (
    FactorCollision,
    NonStochastic,
    NotSurjective,
    SpaceMismatch,
    UnknownFactor,
    UnknownSymbol,
)
from distmeas.stoch import (
    BINARY,
    SCALAR,
    Distribution,
    ProductSpace,
    StochasticMatrix,
    _restriction_table,
    alphabet,
    compose,
    diagonal,
    dirac,
    distribution,
    dual,
    identity,
    kl_divergence,
    lift_function,
    make_matrix,
    marginal,
    projection,
    space,
    tensor,
    terminal,
    uniform,
    with_spaces,
)

from conftest import assert_point_masses, deterministic_tables, spaces, stochastic_matrices

X = space(("x", BINARY))
Y = space(("y", BINARY))
XY = space(("x", BINARY), ("y", BINARY))
Z = space(("z", BINARY))

XOR = lift_function(XY, Z, {("0", "0"): "0", ("0", "1"): "1",
                            ("1", "0"): "1", ("1", "1"): "0"})
AND = lift_function(XY, Z, {("0", "0"): "0", ("0", "1"): "0",
                            ("1", "0"): "0", ("1", "1"): "1"})


def frac(s):
    return Fraction(s)


# -- spaces and indexing ------------------------------------------------------

def test_mixed_radix_first_factor_most_significant():
    s = space(("a", alphabet("012")), ("b", BINARY))
    assert s.dim == 6
    assert s.index_of(("0", "0")) == 0
    assert s.index_of(("0", "1")) == 1
    assert s.index_of(("1", "0")) == 2
    assert s.index_of(("2", "1")) == 5
    assert s.symbols_at(3) == ("1", "1")


def test_empty_product_is_scalar():
    assert SCALAR.dim == 1
    assert SCALAR.symbols_at(0) == ()


@given(spaces())
def test_index_roundtrip(s):
    for i in range(s.dim):
        assert s.index_of(s.symbols_at(i)) == i


def test_duplicate_factor_ids_rejected():
    with pytest.raises(ValueError):
        space(("x", BINARY), ("x", BINARY))


# -- make_matrix --------------------------------------------------------------

def test_make_matrix_identity():
    m = make_matrix(X, X, [[1, 0], [0, 1]])
    assert m == identity(X)


def test_make_matrix_uniform_column_is_distribution():
    m = make_matrix(SCALAR, X, [["1/2"], ["1/2"]])
    assert m.cols[0] == uniform(X).weights


def test_make_matrix_rejects_bad_column_sum():
    with pytest.raises(NonStochastic, match="column 0"):
        make_matrix(X, X, [["9/10", 0], [0, 1]])


def test_make_matrix_rejects_negative():
    with pytest.raises(NonStochastic):
        make_matrix(X, X, [["3/2", 0], ["-1/2", 1]])


# -- lift_function ------------------------------------------------------------

def test_lift_identity():
    m = lift_function(X, X, {"0": "0", "1": "1"})
    assert m.cols == identity(X).cols


def test_lift_xor_columns():
    assert XOR.cols == (
        (1, 0), (0, 1), (0, 1), (1, 0))


def test_lift_constant_is_all_ones_row():
    one = space(("z", alphabet(["c"])))
    m = lift_function(X, one, {"0": "c", "1": "c"})
    assert m.cols == ((1,), (1,))


def test_lift_requires_total_function():
    with pytest.raises(UnknownSymbol):
        lift_function(X, X, {"0": "0"})


def test_lift_is_faithful():
    # distinct functions always lift to distinct matrices
    import itertools
    seen = {}
    for outputs in itertools.product("01", repeat=2):
        m = lift_function(X, X, {"0": outputs[0], "1": outputs[1]})
        assert m.cols not in seen.values()
        seen[outputs] = m.cols


@given(deterministic_tables())
def test_dual_of_lift_is_normalized_preimage(table):
    mapping, nin, nout = table
    dom = space(("a", alphabet(range(nin))))
    cod = space(("b", alphabet(range(nout))))
    m = lift_function(dom, cod, mapping)
    attained = set(mapping.values())
    if len(attained) < nout:
        with pytest.raises(NotSurjective):
            dual(m)
        return
    d = dual(m)
    for y in range(nout):
        pre = [x for x in range(nin) if mapping[str(x)] == str(y)]
        for x in range(nin):
            want = Fraction(1, len(pre)) if x in pre else 0
            assert d.cols[y][x] == want


# -- compose ------------------------------------------------------------------

def test_compose_identity():
    assert compose(identity(Z), XOR) == XOR
    assert compose(XOR, identity(XY)) == XOR


def test_compose_matches_function_composition():
    a = space(("a", alphabet("ab")))
    b = space(("b", BINARY))
    c = space(("c", alphabet("pq")))
    f = lift_function(a, b, {"a": "0", "b": "1"})
    g = lift_function(b, c, {"0": "p", "1": "q"})
    gf = lift_function(a, c, {"a": "p", "b": "q"})
    assert compose(g, f) == gf


@given(stochastic_matrices())
def test_terminal_absorbs_everything(m):
    assert compose(terminal(m.codomain), m) == terminal(m.domain)


def test_compose_space_mismatch():
    with pytest.raises(SpaceMismatch):
        compose(XOR, XOR)


@given(stochastic_matrices(), stochastic_matrices())
def test_compose_and_tensor_stay_stochastic(m1, m2):
    # construction re-validates column sums exactly, so surviving is the assert
    bridge = lift_function(m1.codomain, m2.domain,
                           {m1.codomain.symbols_at(i):
                            m2.domain.symbols_at(i % m2.domain.dim)
                            for i in range(m1.codomain.dim)})
    compose(m2, compose(bridge, m1))
    m2r = with_spaces(
        m2,
        domain=ProductSpace((("in2", m2.domain.factors[0][1]),)),
        codomain=ProductSpace((("out2", m2.codomain.factors[0][1]),)))
    tensor(m1, m2r)


# -- tensor -------------------------------------------------------------------

def test_tensor_of_diracs():
    dx = dirac(X, ("1",)).as_matrix()
    dy = dirac(Y, ("0",)).as_matrix()
    with pytest.raises(FactorCollision):
        tensor(dx, dx)
    t = tensor(dx, dy)
    assert t.cols[0] == dirac(XY, ("1", "0")).weights


def test_tensor_of_uniforms():
    t = tensor(uniform(X).as_matrix(), uniform(Y).as_matrix())
    assert t.cols[0] == uniform(XY).weights


def test_tensor_of_lifts_is_lift_of_product():
    f = lift_function(X, X, {"0": "1", "1": "1"})
    g = lift_function(Y, Y, {"0": "0", "1": "0"})
    t = tensor(f, g)
    fxg = lift_function(XY, XY, {
        (x, y): (("1"), ("0"))
        for x in "01" for y in "01"})
    # expected columns enumerated directly from the component functions
    for x in "01":
        for y in "01":
            col = t.cols[XY.index_of((x, y))]
            expect = dirac(XY, ("1", "0")).weights
            assert col == expect
    assert t == fxg


# -- dual ---------------------------------------------------------------------

def test_dual_of_xor_is_normalized_preimage():
    d = dual(XOR)
    assert d.cols[Z.index_of(("0",))] == (frac("1/2"), 0, 0, frac("1/2"))
    assert d.cols[Z.index_of(("1",))] == (0, frac("1/2"), frac("1/2"), 0)


def test_dual_identity():
    assert dual(identity(XY)) == identity(XY)


def test_dual_preimages_three_to_two():
    a3 = space(("a", alphabet("abc")))
    f = lift_function(a3, X, {"a": "0", "b": "0", "c": "1"})
    d = dual(f)
    assert d.cols[0] == (frac("1/2"), frac("1/2"), 0)
    assert d.cols[1] == (0, 0, 1)


def test_dual_requires_surjective():
    f = lift_function(X, X, {"0": "0", "1": "0"})
    with pytest.raises(NotSurjective):
        dual(f)


@given(stochastic_matrices(no_zero_rows=True))
def test_dual_is_bayes_over_uniform(m):
    d = dual(m)
    for y in range(m.codomain.dim):
        denom = sum(m.cols[x][y] for x in range(m.domain.dim))
        for x in range(m.domain.dim):
            assert d.cols[y][x] == m.cols[x][y] / denom


@given(stochastic_matrices(no_zero_rows=True))
def test_dual_stays_stochastic(m):
    dual(m)  # constructor asserts exact column sums


def test_dual_involution_on_deterministic_lifts():
    a4 = space(("a", alphabet("abcd")))
    b3 = space(("b", alphabet("xyz")))
    f = lift_function(a4, b3, {"a": "x", "b": "x", "c": "y", "d": "z"})
    assert dual(dual(f)) == f


def test_dual_involution_on_doubly_stochastic():
    m = make_matrix(X, X, [["3/4", "1/4"], ["1/4", "3/4"]])
    assert dual(dual(m)) == m


def test_dual_involution_fails_for_generic_stochastic_maps():
    # dual(dual(m)) applies a uniform prior on the OUTPUT side, which only
    # recovers m when the pushforward of the uniform input is itself uniform
    # (or the support structure is deterministic); this pins the known gap.
    m = make_matrix(X, X, [[1, "1/2"], [0, "1/2"]])
    dd = dual(dual(m))
    assert dd != m
    assert dd.cols[1] == (frac("1/4"), frac("3/4"))


# -- projection ---------------------------------------------------------------

def test_projection_of_dirac():
    p = projection(XY, ["x"])
    assert compose(p, dirac(XY, ("1", "0")).as_matrix()).cols[0] == (0, 1)


def test_dual_projection_inserts_uniform():
    ins = dual(projection(XY, ["x"]))
    got = compose(ins, dirac(X, ("1",)).as_matrix()).cols[0]
    assert got == (0, 0, frac("1/2"), frac("1/2"))


def test_and_after_uniform_insertion_averages_over_noise():
    m = compose(AND, dual(projection(XY, ["x"])))
    # averaging AND(1, y) over uniform y by hand: outputs 0 and 1 equally often
    assert m.cols[X.index_of(("1",))] == (frac("1/2"), frac("1/2"))
    assert m.cols[X.index_of(("0",))] == (1, 0)


def test_projection_unknown_factor():
    with pytest.raises(UnknownFactor):
        projection(XY, ["nope"])


@given(stochastic_matrices())
def test_marginalization_over_uniform_matches_column_average(m):
    # precomposing with a dual projection averages, exactly,
    # the columns over the dropped factor.
    ax = m.domain.factors[0][1]
    nin = len(ax)
    noisy = ProductSpace((("in", ax), ("noise", BINARY)))
    # column at (x, n) is m's column at x (n=0) or at the next input (n=1)
    cols = []
    for x in range(nin):
        cols.append(m.cols[x])
        cols.append(m.cols[(x + 1) % nin])
    wide = StochasticMatrix(noisy, m.codomain, tuple(cols))
    averaged = compose(wide, dual(projection(noisy, ["in"])))
    for x in range(nin):
        want = tuple(
            (m.cols[x][i] + m.cols[(x + 1) % nin][i]) / 2
            for i in range(m.codomain.dim))
        assert averaged.cols[x] == want


# -- diagonal -----------------------------------------------------------------

def test_diagonal_duplicates_dirac():
    d = diagonal(X, [X, X])
    col = d.cols[X.index_of(("1",))]
    assert sum(col) == 1
    assert col[3] == 1  # joint index of ("1","1") in the doubled space
    assert d.codomain.factor_ids == ("0.x", "1.x")


def test_diagonal_single_block_is_identity():
    assert diagonal(XY, [XY]) == identity(XY)


def test_diagonal_mixed_blocks_by_enumeration():
    d = diagonal(XY, [XY, Y])
    for x in "01":
        for y in "01":
            col = d.cols[XY.index_of((x, y))]
            hot = [i for i, v in enumerate(col) if v != 0]
            joint = XY.index_of((x, y)) * 2 + Y.index_of((y,))
            assert hot == [joint]


@given(spaces(), spaces(), st.data())
def test_deterministic_constructors_build_valid_point_masses(s, codomain, data):
    ids = s.factor_ids
    subsets = st.sets(st.sampled_from(ids)) if ids else st.just(set())
    for m in (identity(s), terminal(s), projection(s, data.draw(subsets)),
              diagonal(s, [s.subspace(kept) for kept in data.draw(st.lists(subsets, max_size=2))])):
        assert_point_masses(m)
    images = data.draw(st.lists(st.integers(0, codomain.dim - 1),
                                min_size=s.dim, max_size=s.dim))
    lifted = lift_function(s, codomain, {s.symbols_at(j): codomain.symbols_at(i)
                                         for j, i in enumerate(images)})
    assert_point_masses(lifted)
    assert [col.index(1) for col in lifted.cols] == images


def test_diagonal_unknown_factor():
    with pytest.raises(UnknownFactor):
        diagonal(X, [Y])


# -- distributions and KL ------------------------------------------------------

def test_distribution_must_sum_to_one():
    with pytest.raises(NonStochastic):
        distribution(X, ["1/2", "1/3"])


F = Fraction
X3 = space(("x", alphabet("abc")))


@pytest.mark.parametrize("build, message", [
    (lambda: StochasticMatrix(X, X3, ((F(1, 3),) * 3, (F(3, 2), F(-1, 2), F(0)))),
     "negative entry -1/2 in column 1"),
    (lambda: StochasticMatrix(X, X3, ((F(1, 3),) * 3, (F(1, 2), F(1, 3), F(1, 4)))),
     "column 1 sums to 13/12, not 1"),
    (lambda: StochasticMatrix(X, X3, ((F(1),) * 3, (F(1), F(0), F(0)))),
     "column 0 sums to 3, not 1"),
    (lambda: StochasticMatrix(X, X3, ((F(1), F(0), F(0)),)),
     "expected 2 columns, got 1"),
    (lambda: StochasticMatrix(X, X3, ((F(1), F(0), F(0)), (F(1), F(0)))),
     "column 1 has 2 rows, expected 3"),
    (lambda: Distribution(X3, (F(3, 2), F(-1, 2), F(0))), "negative weight -1/2"),
    (lambda: Distribution(X3, (F(1, 2), F(1, 3), F(1, 12))), "weights sum to 11/12, not 1"),
    (lambda: Distribution(X3, (F(0),) * 3), "weights sum to 0, not 1"),
    (lambda: Distribution(X3, (F(1), F(0))), "expected 3 weights, got 2"),
], ids=["matrix-negative", "matrix-sum", "matrix-integer-sum", "matrix-columns",
        "matrix-rows", "distribution-negative", "distribution-sum",
        "distribution-zero-sum", "distribution-length"])
def test_non_stochastic_messages(build, message):
    with pytest.raises(NonStochastic) as exc:
        build()
    assert str(exc.value) == message


def test_kl_self_is_zero():
    p = distribution(X, ["1/3", "2/3"])
    assert kl_divergence(p, p) == 0.0


def test_kl_dirac_vs_uniform_four():
    s = space(("s", alphabet("abcd")))
    assert kl_divergence(dirac(s, ("a",)), uniform(s)) == 2.0


def test_kl_halves_vs_quarters():
    p = distribution(X, ["1/2", "1/2"])
    q = distribution(X, ["1/4", "3/4"])
    expected = 0.5 * math.log2(2) + 0.5 * math.log2(Fraction(1, 2) / Fraction(3, 4))
    assert abs(kl_divergence(p, q) - expected) < 1e-12
    assert round(kl_divergence(p, q), 5) == 0.20752


def test_kl_infinite_on_support_mismatch():
    p = distribution(X, [1, 0])
    q = distribution(X, [0, 1])
    assert kl_divergence(p, q) == math.inf


def test_kl_space_mismatch():
    with pytest.raises(SpaceMismatch):
        kl_divergence(uniform(X), uniform(Y))


@given(st.data())
def test_kl_nonnegative_and_zero_iff_equal(data):
    from conftest import rational_columns
    dim = data.draw(st.integers(1, 5))
    s = ProductSpace((("s", alphabet(range(dim))),))
    p = Distribution(s, data.draw(rational_columns(dim)))
    q = Distribution(s, data.draw(rational_columns(dim)))
    v = kl_divergence(p, q)
    if p == q:
        assert v == 0.0
    else:
        assert v > 0.0


def test_marginal_sums_out_dropped_factors():
    d = distribution(XY, ["1/2", 0, 0, "1/2"])
    assert marginal(d, ["x"]).weights == (frac("1/2"), frac("1/2"))


@pytest.mark.parametrize("states, kind", [(256, bytes), (257, array)])
def test_restriction_table_is_narrow_and_equals_a_symbol_scan(states, kind):
    # a target space of at most 256 states is indexed by one byte per source
    # state, a larger one by an array('I'); either way entry i is the index,
    # found symbol by symbol, of source state i's restriction
    many = alphabet(range(states))
    src = space(("a", BINARY), ("b", many), ("c", alphabet(range(3))))
    dst = space(("b", many))
    table = _restriction_table(src, dst)
    assert type(table) is kind
    assert list(table) == [dst.index_of((syms[1],)) for syms in src.iter_symbols()]


@pytest.mark.parametrize("kept, kind", [((3, 11, 19), bytes), (range(0, 20, 2), array)])
def test_restriction_table_of_a_large_space_holds_only_narrow_tables(kept, kind):
    # 2^20 source states onto 8 states (one byte each) or 1,024 (four bytes):
    # the table is built in its narrow form, never as a list of 2^20 ints,
    # which would take eight bytes a pointer
    src = space(*((f"f{i:02d}", BINARY) for i in range(20)))
    dst = space(*((f"f{i:02d}", BINARY) for i in kept))
    tracemalloc.start()
    try:
        table = _restriction_table(src, dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(table) is kind and len(table) == 2 ** 20
    size = len(table) * (1 if kind is bytes else table.itemsize)
    assert peak < 3 * size
    # entry i is the index of source state i's restriction: its digits at
    # the kept factors, the first one most significant
    for i in (0, 1, 2 ** 19 + 5, 2 ** 20 - 1, 123_457):
        digits = [i >> (19 - k) & 1 for k in kept]
        assert table[i] == sum(b << (len(digits) - 1 - j) for j, b in enumerate(digits))
