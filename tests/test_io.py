import contextlib
import copy
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distmeas.cli import main
from distmeas.errors import DocumentError, NonStochastic
from distmeas.fixtures import data_path
from distmeas.io import (
    _parse_rational,
    automaton_from_document,
    system_from_document,
    system_to_document,
)
from distmeas.stoch import ProductSpace, alphabet, canonical_space
from distmeas.system import unroll, validate


# -- rationals -----------------------------------------------------------------------

def _pieces(draw_digits):
    return st.tuples(
        st.sampled_from(["", " ", "\t", "\n"]),
        st.sampled_from(["", "+", "-"]),
        draw_digits,
        st.sampled_from(["", "/", "/0", "/00", "/7", "/012", "/-3", "/ 4", "/٣", "/1_0"]),
        st.sampled_from(["", ".", ".25", "e3", "E-2", ".5e1", "_"]),
        st.sampled_from(["", " ", "\n"]),
    ).map("".join)


RATIONAL_TEXT = st.one_of(
    _pieces(st.text(alphabet="0123456789", min_size=1, max_size=6)),
    _pieces(st.text(alphabet="0123456789_٣", max_size=5)),
    st.text(alphabet="0123456789/._-+eE ٣x", max_size=10),
)


@settings(deadline=None)
@given(RATIONAL_TEXT)
@example("0")
@example("007")
@example("0003/4")
@example("10/10")
@example("1/0")
@example("-1/2")
@example("+3")
@example(" 1/2\n")
@example("0.25")
@example("1e3")
@example("1_000")
@example("\u0663/4")
@example("1e5000")
@example("1e-5000")
def test_parse_rational_agrees_with_fraction(text):
    try:
        want = Fraction(text)
        str(want)  # a document may not hold what cannot be printed
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DocumentError, match="bad rational"):
            _parse_rational(text, "column 0")
    else:
        got = _parse_rational(text, "column 0")
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("value, message", [
    ("1/0", "bad rational '1/0' in mechanism 'vZ' column 3: Fraction(1, 0)"),
    ("1/2/3", "bad rational '1/2/3' in mechanism 'vZ' column 3: "
              "Invalid literal for Fraction: '1/2/3'"),
    (None, "bad rational None in mechanism 'vZ' column 3: "
           "argument should be a string or a Rational instance"),
    (float("inf"), "bad rational inf in mechanism 'vZ' column 3: "
                   "cannot convert Infinity to integer ratio"),
])
def test_parse_rational_error_names_its_location(value, message):
    with pytest.raises(DocumentError) as exc:
        _parse_rational(value, "mechanism 'vZ' column 3")
    assert str(exc.value) == message


# -- column order ----------------------------------------------------------------------

SIZES = {"a": 2, "b": 3, "c": 4}


@pytest.mark.parametrize("listed", list(itertools.permutations(SIZES)),
                         ids=lambda p: "".join(p))
def test_loader_permutes_columns_of_every_source_order(listed):
    occasions = {i: alphabet(range(n)) for i, n in {**SIZES, "z": 2}.items()}
    listed_space = ProductSpace(tuple((s, occasions[s]) for s in listed))
    n = listed_space.dim  # 24, one distinct column per listed input
    table = [[f"{j}/{n}", f"{n - j}/{n}"] for j in range(n)]
    doc = {
        "format_version": 1,
        "occasions": [{"id": i, "alphabet": list(a.symbols)} for i, a in occasions.items()],
        "edges": [[s, "z"] for s in SIZES],
        "mechanisms": {"z": {"sources": list(listed), "table": table}},
        "sources": {s: [f"1/{k}"] * k for s, k in SIZES.items()},
    }
    mech = system_from_document(doc).mechanisms["z"]

    canonical = canonical_space({s: occasions[s] for s in SIZES})
    want = [None] * n
    for j in range(n):
        by_id = dict(zip(listed, listed_space.symbols_at(j)))
        want[canonical.index_of([by_id[s] for s in canonical.factor_ids])] = (
            Fraction(j, n), Fraction(n - j, n))
    assert mech.domain == canonical
    assert mech.cols == tuple(want)


# -- repeated columns ------------------------------------------------------------------

HALF = ["1/2", "1/2"]


def _repeating_document() -> dict:
    """Targets y and w of two symbols and z of three, whose columns repeat
    texts within and across mechanisms, with equal values spelled apart."""
    binary = ["0", "1"]
    return {
        "format_version": 1,
        "occasions": [{"id": i, "alphabet": binary} for i in ("a", "b", "y", "w")]
                     + [{"id": "z", "alphabet": ["0", "1", "2"]}],
        "edges": [["a", "y"], ["b", "y"], ["a", "w"], ["a", "z"]],
        "mechanisms": {
            "y": {"sources": ["b", "a"], "table": [HALF, ["2/4", "0.5"], HALF, ["1", 0]]},
            "w": {"sources": ["a"], "table": [HALF, ["0.5", "2/4"]]},
            "z": {"sources": ["a"], "table": [["1/3", "1/3", "1/3"], ["2/4", "0.5", 0]]},
        },
        "sources": {"a": HALF, "b": ["1/4", "3/4"]},
    }


def test_repeated_columns_load_entry_for_entry():
    doc = _repeating_document()
    spec = system_from_document(copy.deepcopy(doc))
    for target, mdoc in doc["mechanisms"].items():
        mech = spec.mechanisms[target]
        listed = ProductSpace(tuple((s, mech.domain.alphabet_of(s)) for s in mdoc["sources"]))
        for j, col in enumerate(mdoc["table"]):
            by_id = dict(zip(mdoc["sources"], listed.symbols_at(j)))
            got = mech.cols[mech.domain.index_of([by_id[s] for s in mech.domain.factor_ids])]
            assert got == tuple(Fraction(v) for v in col)


def _bad_rational(value, where) -> str:
    with pytest.raises(DocumentError) as exc:
        _parse_rational(value, where)
    return str(exc.value)


def _set_columns(doc, target, columns):
    for j, col in columns.items():
        doc["mechanisms"][target]["table"][j] = col


@pytest.mark.parametrize("mutate, error", [
    # an unhashable entry, in a column listed twice
    (lambda d: _set_columns(d, "y", {1: [["1/2"], "1/2"], 3: [["1/2"], "1/2"]}),
     ("DocumentError", _bad_rational(["1/2"], "mechanism 'y' column 1"))),
    (lambda d: _set_columns(d, "y", {1: ["1/2", "1/3"], 2: ["1/2", "1/3"]}),
     ("NonStochastic", "mechanism 'y' column 1 sums to 5/6, not 1")),
    (lambda d: (_set_columns(d, "y", {2: ["-1/3", "4/3"]}), _set_columns(d, "w", {0: ["-1/3", "4/3"]})),
     ("NonStochastic", "negative entry -1/3 in mechanism 'y' column 2")),
    # HALF passes in y and w, but z has three symbols
    (lambda d: _set_columns(d, "z", {1: HALF}),
     ("NonStochastic", "mechanism 'z' column 1 has 2 rows, expected 3")),
    # every column of a mechanism is parsed before any is checked
    (lambda d: _set_columns(d, "y", {0: ["1/2", "1/3"], 3: ["x", "1"]}),
     ("DocumentError", _bad_rational("x", "mechanism 'y' column 3"))),
], ids=["unhashable", "sum", "negative-across-targets", "rows", "parse-before-check"])
def test_repeated_bad_column_fails_at_its_first_listed_occurrence(mutate, error):
    doc = _repeating_document()
    mutate(doc)
    with pytest.raises((DocumentError, NonStochastic)) as exc:
        system_from_document(doc)
    assert (type(exc.value).__name__, str(exc.value)) == error


def test_each_distinct_column_text_is_parsed_once(monkeypatch):
    # an unrolled Hopfield ring repeats a few columns under every cell
    from test_lattice import hopfield_ring
    spec = hopfield_ring((1, 0, 1, 1, 0))
    doc = json.loads(json.dumps(system_to_document(spec)))
    columns = [tuple(col) for mdoc in doc["mechanisms"].values() for col in mdoc["table"]]
    distinct = set(columns)
    assert len(columns) == 160 and len(distinct) < 20
    parsed = []
    monkeypatch.setattr("distmeas.io._parse_rational",
                        lambda value, where: parsed.append(value) or _parse_rational(value, where))
    loaded = system_from_document(doc)
    weights = sum(len(w) for w in doc["sources"].values())
    assert len(parsed) == sum(map(len, distinct)) + weights
    assert loaded.mechanisms == spec.mechanisms and loaded.sources == spec.sources


# -- automaton documents ----------------------------------------------------------------

PAIRS = [(x, y) for x in range(2) for y in range(3)]

# a binary cell a and a ternary cell b; b's rule is keyed by time
TIMED = {
    "format_version": 1,
    "cells": ["a", "b"],
    "alphabets": {"b": ["0", "1", "2"]},
    "neighborhoods": {"a": ["a"], "b": ["a", "b"]},
    "rules": {
        "a": {"kind": "table", "table": {"0": "1", "1": "0"}},
        "b": {
            "1": {"kind": "table", "table": {f"{x},{y}": str((x + y) % 3) for x, y in PAIRS}},
            "2": {"kind": "table", "table": {f"{x},{y}": str((x + 2 * y) % 3) for x, y in PAIRS}},
        },
    },
    "window": [0, 2],
    "initial": {"a": "0", "b": "2"},
}


def test_cell_alphabets_reach_every_occasion_of_the_cell():
    spec = unroll(automaton_from_document(TIMED))
    for t in range(3):
        assert spec.alphabet_of(f"a@{t}").symbols == ("0", "1")
        assert spec.alphabet_of(f"b@{t}").symbols == ("0", "1", "2")
    assert spec.sources["b@0"].weights == (0, 0, 1)
    assert validate(spec) == []


@pytest.mark.parametrize("t, rule", [(1, lambda x, y: (x + y) % 3),
                                     (2, lambda x, y: (x + 2 * y) % 3)])
def test_time_keyed_rule_applies_at_its_own_time(t, rule):
    mech = unroll(automaton_from_document(TIMED)).mechanisms[f"b@{t}"]
    assert mech.domain.factor_ids == (f"a@{t - 1}", f"b@{t - 1}")
    for (x, y), col in zip(PAIRS, mech.cols):
        assert col == tuple(int(z == rule(x, y)) for z in range(3))


def test_time_keyed_rule_without_the_time_is_a_domain_error(tmp_path, capsys):
    doc = copy.deepcopy(TIMED)
    del doc["rules"]["b"]["2"]
    path = tmp_path / "timed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["unroll", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidAutomaton: cell 'b' has no rule for time 2\n"


# -- mutated documents through the CLI ------------------------------------------------

AUTOMATON = {
    "format_version": 1,
    "cells": ["a", "b", "c"],
    "alphabet": ["0", "1"],
    "neighborhoods": {"a": ["a", "b"], "b": ["a", "b", "c"], "c": [["b", 1], "c"]},
    "rules": {
        "a": {"kind": "hopfield", "weights": ["1", "-1/2"], "temperature": "1/2"},
        "b": {"kind": "life"},
        "c": {"kind": "table", "table": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "0"}},
    },
    "window": [0, 1],
    "initial": {"a": "1", "b": {"distribution": ["1/3", "2/3"]}, "c": "0"},
}


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


SWAPPED = [None, True, 2.5, -1, "x", "", [], {}, ["1/2"], {"kind": "life"}]
CORRUPT = ["1/0", "-1/2", "1/2/3", "0x1", "", " ", "1e999", "1e5000", "nan", "inf", "٣/4",
           "1_0", "3/2", "0.1", 7, -0.5, float("inf"), None, "0" * 30 + "1/" + "0" * 30 + "2"]


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations: a key or item dropped, a value
    swapped for one of another type, a rational corrupted, or a source or
    neighbour list reordered."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = _at(doc, path)
        value = parent[key]
        kind = draw(st.sampled_from(["drop", "swap", "corrupt", "reorder"]))
        if kind == "drop":
            del parent[key]
        elif kind == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in SWAPPED if type(v) is not type(value)])))
        elif kind == "corrupt":
            parent[key] = draw(st.sampled_from(CORRUPT))
        elif isinstance(value, list):
            parent[key] = draw(st.permutations(value))
    return doc


def _assert_clean_exit(argv, content: bytes):
    """Run the CLI on argv, with {} in it replaced by the path of a file of
    content: it must exit 0, 1 or 2, and a failure must report one error,
    without a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(path) for arg in argv])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", ["xor.json", "and.json"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_system_documents_fail_cleanly(name, data):
    with open(data_path(name), encoding="utf-8") as fh:
        doc = data.draw(mutated(json.load(fh)))
    # quale loads, validates and glues every subsystem; validate loads and
    # prints a loadable document's violations on one error line
    for command in ("quale", "validate"):
        _assert_clean_exit([command, "{}"], json.dumps(doc).encode())


@settings(deadline=None, max_examples=150)
@given(doc=mutated(AUTOMATON))
def test_mutated_automaton_documents_fail_cleanly(doc):
    _assert_clean_exit(["unroll", "{}"], json.dumps(doc).encode())


READERS = {
    "quale": ["quale", "{}"],
    "unroll": ["unroll", "{}"],
    "ei-output": ["ei", data_path("xor.json"), "--subsystem", "all", "--output", "@{}"],
}


@pytest.mark.parametrize("command", list(READERS))
@pytest.mark.parametrize("content", [b"\xff", b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf-8", "5000-digit-integer"])
def test_unreadable_json_fails_cleanly(command, content):
    _assert_clean_exit(READERS[command], content)
