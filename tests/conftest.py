from fractions import Fraction

import pytest
from hypothesis import strategies as st

from distmeas.fixtures import and_system, xor_system
from distmeas.stoch import ProductSpace, StochasticMatrix, alphabet


@pytest.fixture
def xor_spec():
    return xor_system()


@pytest.fixture
def and_spec():
    return and_system()


def alphabets(max_size=4):
    return st.integers(1, max_size).map(lambda n: alphabet(range(n)))


def spaces(max_factors=3, max_size=3):
    def build(sizes):
        return ProductSpace(tuple(
            (f"f{i}", alphabet(range(n))) for i, n in enumerate(sizes)))
    return st.lists(st.integers(1, max_size), min_size=0, max_size=max_factors).map(build)


def rational_columns(dim, denominator_bound=24):
    """A random exact distribution over dim outcomes (positive denominators)."""
    def normalize(raw):
        total = sum(raw)
        if total == 0:
            raw = [1] * dim
            total = dim
        return tuple(Fraction(v, total) for v in raw)
    return st.lists(
        st.integers(0, denominator_bound), min_size=dim, max_size=dim).map(normalize)


@st.composite
def stochastic_matrices(draw, max_dim=5, no_zero_rows=False):
    nin = draw(st.integers(1, max_dim))
    nout = draw(st.integers(1, max_dim))
    domain = ProductSpace((("in", alphabet(range(nin))),))
    codomain = ProductSpace((("out", alphabet(range(nout))),))
    cols = [draw(rational_columns(nout)) for _ in range(nin)]
    if no_zero_rows:
        for i in range(nout):
            if all(col[i] == 0 for col in cols):
                j = i % nin
                bumped = list(cols[j])
                bumped = [v / 2 for v in bumped]
                bumped[i] += Fraction(1, 2)
                cols[j] = tuple(bumped)
    return StochasticMatrix(domain, codomain, tuple(cols))


@st.composite
def deterministic_tables(draw, max_in=4, max_out=3):
    nin = draw(st.integers(1, max_in))
    nout = draw(st.integers(1, max_out))
    values = draw(st.lists(st.integers(0, nout - 1), min_size=nin, max_size=nin))
    return {str(i): str(v) for i, v in enumerate(values)}, nin, nout


def assert_point_masses(m):
    """m is accepted by the validating constructor, and each of its columns
    is one entry 1 and otherwise 0."""
    assert StochasticMatrix(m.domain, m.codomain, m.cols) == m
    for col in m.cols:
        assert len(col) == m.codomain.dim
        assert col.count(1) == 1 and col.count(0) == len(col) - 1
