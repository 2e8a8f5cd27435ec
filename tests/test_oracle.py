import math
from fractions import Fraction

import pytest

from distmeas.entangle import is_rectangular, product_decomposition
from distmeas.errors import NotAPartition, NotInImage, UnknownSymbol
from distmeas.fixtures import and_table, single_function_system, two_input_system, xor_table
from distmeas import oracle
from distmeas.oracle import (
    ExactBits,
    FunctionTable,
    crosscheck,
    ei_classical,
    ei_partial,
    ei_relative,
    exhaustive_tables,
    gamma_counts,
    preimage_count,
    random_tables,
    single_function_tables,
    slice_count,
)
from distmeas.stoch import BINARY, alphabet, canonical_space, lift_function

TOL = 1e-9


# -- counting -----------------------------------------------------------------

def test_xor_counts():
    g = xor_table()
    assert preimage_count(g, "0") == 2
    assert slice_count(g, 0, "0", "0") == 1
    assert slice_count(g, 1, "0", "0") == 1


def test_and_counts():
    g = and_table()
    assert preimage_count(g, "0") == 3
    assert slice_count(g, 0, "0", "0") == 2
    assert slice_count(g, 0, "1", "0") == 1


def test_constant_counts():
    one = alphabet(["c"])
    g = FunctionTable((BINARY, alphabet("012")), one, ("c",) * 6)
    assert preimage_count(g, "c") == 6


def test_unknown_symbols_rejected():
    with pytest.raises(UnknownSymbol):
        preimage_count(xor_table(), "7")
    with pytest.raises(UnknownSymbol):
        slice_count(xor_table(), 0, "7", "0")


# -- exact bits ------------------------------------------------------------------

def test_exact_bits_equality_across_roots():
    assert ExactBits(Fraction(4), 2) == ExactBits(Fraction(2), 1)
    assert ExactBits(Fraction(8), 3) != ExactBits(Fraction(4), 1)


def test_equal_exact_bits_never_hash_apart():
    a, b = ExactBits(Fraction(4), 2), ExactBits(Fraction(2), 1)
    assert a == b
    try:
        hashes = {hash(a), hash(b)}
    except TypeError:
        return  # unhashable, so no set or dict can hold both
    assert len(hashes) == 1


def test_exact_bits_arithmetic():
    two = ExactBits(Fraction(4), 2)
    one = ExactBits(Fraction(2), 2)
    assert (two - one) == ExactBits(Fraction(2), 2)
    assert float(two) == 1.0
    assert (one + one) == two


# -- closed forms ------------------------------------------------------------------

def test_ei_classical_xor_as_four_input_function():
    assert ei_classical(xor_table(), "0").bits == 1.0


def test_ei_partial_and():
    got = ei_partial(and_table(), "0", 0)
    want = 1 + (2 / 3) * math.log2(2 / 3) + (1 / 3) * math.log2(1 / 3)
    assert abs(got.bits - want) <= TOL
    assert round(got.bits, 5) == 0.08170


def test_ei_relative_xor():
    assert ei_relative(xor_table(), "0", 0).bits == 1.0


def test_not_in_image():
    g = FunctionTable((BINARY, BINARY), BINARY, ("0",) * 4)
    with pytest.raises(NotInImage):
        ei_classical(g, "1")


def test_relative_identity_exact_before_floats():
    # the comparing-measurements identity holds in exact arithmetic
    for g in exhaustive_tables(2, 2, 2):
        for z in g.attained():
            for axis in (0, 1):
                assert ei_relative(g, z, axis) == \
                    ei_classical(g, z) - ei_partial(g, z, axis)


def test_gamma_counts_is_difference_of_eis_exactly():
    for g in exhaustive_tables(2, 2, 3):
        for z in g.attained():
            assert gamma_counts(g, z) == (
                ei_classical(g, z) - ei_partial(g, z, 0) - ei_partial(g, z, 1))


def test_three_input_parity_reads_every_axis():
    # preimage of "0": 000, 011, 101, 110; each axis holds each bit twice
    g = FunctionTable((BINARY,) * 3, BINARY, ("0", "1", "1", "0", "1", "0", "0", "1"))
    one_bit = ExactBits(Fraction(2))
    assert ei_relative(g, "0", 0) == one_bit == ei_classical(g, "0") - ei_partial(g, "0", 0)
    # gamma over the three single-axis blocks
    assert gamma_counts(g, "0") == one_bit
    with pytest.raises(NotAPartition):
        is_rectangular(g, "0")
    with pytest.raises(NotAPartition):
        product_decomposition(g)


# -- the count pass against brute force ------------------------------------------

def _brute_force(g, z):
    """(preimage, slice counts per axis) of a two-input table by nested loops
    over g.value, sharing no code with the oracles."""
    xs, ys = g.factors[0].symbols, g.factors[1].symbols
    pre = [(x, y) for x in xs for y in ys if g.value((x, y)) == z]
    cx = {x: sum(1 for p in pre if p[0] == x) for x in xs}
    cy = {y: sum(1 for p in pre if p[1] == y) for y in ys}
    return pre, (cx, cy)


def _pairwise_scan(pre):
    members = set(pre)
    for (x1, y1) in pre:
        for (x2, y2) in pre:
            if (x1, y2) not in members:
                return False, ((x1, y1), (x2, y2))
    return True, None


def _brute_force_tables():
    yield from exhaustive_tables(2, 2, 2)
    yield from exhaustive_tables(2, 3, 2)
    yield from exhaustive_tables(2, 2, 4)
    yield from random_tables(3, 3, 3, 50, seed=7)


def test_count_pass_matches_brute_force():
    # each closed form as a product over preimage points p of the ratio the
    # definitions average: KL terms of the uniform posterior on the preimage
    for g in _brute_force_tables():
        total = g.total_inputs
        for z in g.codomain.symbols:
            pre, slices = _brute_force(g, z)
            assert preimage_count(g, z) == len(pre)
            for axis in (0, 1):
                for s in g.factors[axis].symbols:
                    assert slice_count(g, axis, s, z) == slices[axis][s]
            if not pre:
                with pytest.raises(NotInImage):
                    gamma_counts(g, z)
                continue
            n = len(pre)
            assert ei_classical(g, z) == ExactBits(Fraction(total, n))
            for axis in (0, 1):
                kept = len(g.factors[axis])
                c = [slices[axis][p[axis]] for p in pre]
                assert ei_partial(g, z, axis) == ExactBits(
                    math.prod(Fraction(kept * ck, n) for ck in c), n)
                assert ei_relative(g, z, axis) == ExactBits(
                    math.prod(Fraction(total, kept * ck) for ck in c), n)
            assert gamma_counts(g, z) == ExactBits(
                math.prod(Fraction(n, slices[0][x] * slices[1][y]) for x, y in pre), n)
            assert is_rectangular(g, z) == _pairwise_scan(pre)


def test_record_readers_equal_the_public_closed_forms():
    # compared with == on ExactBits: the readers crosscheck uses are the
    # public closed forms, read from one count record
    for g in [*exhaustive_tables(2, 2, 3), *random_tables(3, 3, 3, 30, 7)]:
        for z in g.attained():
            c = oracle._counts(g, z)
            assert c.n == len(c.pre) == preimage_count(g, z)
            assert oracle._classical(g, c) == ei_classical(g, z)
            assert oracle._gamma(c) == gamma_counts(g, z)
            for axis in (0, 1):
                assert oracle._partial(g, c, axis) == ei_partial(g, z, axis)
                assert oracle._relative(g, c, axis) == ei_relative(g, z, axis)
            assert oracle._rectangular(c) == is_rectangular(g, z)[0]


# -- families ----------------------------------------------------------------------

def test_exhaustive_family_sizes():
    assert sum(1 for _ in exhaustive_tables(2, 2, 2)) == 16
    assert sum(1 for _ in exhaustive_tables(2, 2, 4)) == 256
    assert sum(1 for _ in single_function_tables(3, 2)) == 8


def test_random_tables_are_seeded():
    a = [g.outputs for g in random_tables(3, 3, 3, 5, seed=7)]
    b = [g.outputs for g in random_tables(3, 3, 3, 5, seed=7)]
    assert a == b


def _lifted(table, inputs, output):
    """lift_function of the table, as a map from the inputs' canonical space
    to the output's, keyed by joint symbols."""
    domain = canonical_space(dict(zip(inputs, table.factors)))
    codomain = canonical_space({output: table.codomain})
    return lift_function(domain, codomain,
                         {joint: table.value(joint) for joint in domain.iter_symbols()})


def test_fixture_mechanisms_are_the_lifted_tables():
    for g in [*exhaustive_tables(2, 2, 2), *random_tables(3, 3, 3, 30, 7)]:
        assert two_input_system(g).mechanisms["vZ"] == _lifted(g, ("vX", "vY"), "vZ"), g
    for f in single_function_tables(3, 2):
        assert single_function_system(f).mechanisms["vY"] == _lifted(f, ("vX",), "vY"), f


# -- crosscheck ----------------------------------------------------------------------

def test_crosscheck_exhaustive_2x2x2():
    report = crosscheck(exhaustive_tables(2, 2, 2), label="2x2x2")
    assert report.functions == 16
    assert report.ok, report.mismatches
    assert "0 mismatches" in report.summary()


def test_crosscheck_exhaustive_2x2x4():
    report = crosscheck(exhaustive_tables(2, 2, 4), label="2x2x4")
    assert report.functions == 256
    assert report.ok, report.mismatches


def test_crosscheck_random_500_seeded():
    report = crosscheck(random_tables(3, 3, 3, 500, seed=7), label="random")
    assert report.functions == 500
    assert report.ok, report.mismatches


def test_crosscheck_counts_each_table_output_once(monkeypatch):
    calls = []
    preimage = oracle._preimage
    monkeypatch.setattr(oracle, "_preimage", lambda g, z: calls.append((g.outputs, z)) or preimage(g, z))
    tables = list(random_tables(3, 3, 3, 30, 7))
    report = crosscheck(tables)
    assert (report.functions, report.checks, report.ok) == (30, 783, True)
    want = [(g.outputs, z) for g in tables for z in g.attained()]
    assert len(want) == 87
    assert calls == want
