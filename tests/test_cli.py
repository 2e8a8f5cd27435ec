import errno
import functools
import io
import json
import os
import random
import re
import signal
import stat
import sys
import tempfile
import threading
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distmeas import cli, oracle
from distmeas.cli import (
    _SUBSYSTEMS_PER_WORKER,
    _TABLE_INPUTS_PER_WORKER,
    _bits,
    _crosscheck_in_ranges,
    _range_worker,
    _ranges,
    _tables_at,
    _write_quale,
    build_parser,
    main,
)
from distmeas.fixtures import and_system, data_path, two_input_system, xor_system
from distmeas.io import (
    format_rational,
    load_system,
    save_system,
    system_from_document,
    system_to_document,
    write_sections,
)
from distmeas.entangle import entanglement, partition_of
from distmeas.errors import NotSurjective, UnknownSymbol, UnsupportedOutput
from distmeas.lattice import (
    _glued_rows,
    _masked,
    _parts,
    _quale_rows,
    _walk,
    build_quale,
    enumerate_subsystems,
    source_space,
    subsystem,
    target_space,
    top,
)
from distmeas.measure import (
    _glued_posterior,
    _posterior,
    _spread,
    effective_information,
    extend,
    measure,
    system_output_space,
)
from distmeas.oracle import ExactBits, FunctionTable, crosscheck, exhaustive_tables, random_tables
from distmeas.stoch import (
    BINARY,
    _restriction_table,
    alphabet,
    canonical_space,
    dirac,
    distribution,
    kl_divergence,
    lift_function,
    make_matrix,
    matrix_from_columns,
    uniform,
)
from distmeas.system import Occasion, SystemSpec
from test_acceptance import _positive_random_system
from test_lattice import (
    chain_system,
    copy_source_system,
    joint_table_oracle,
    positive_system,
    three_target_system,
)
from test_measure import double_and_system

XOR = data_path("xor.json")
AND = data_path("and.json")
BAD = data_path("bad-column.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- document round trip ---------------------------------------------------------

def test_round_trip_is_identity():
    spec = load_system(XOR)
    again = system_from_document(system_to_document(spec))
    assert again == spec


def test_round_trip_preserves_fixture_exactly():
    assert load_system(XOR) == xor_system()


def test_loader_canonicalizes_listed_source_order():
    doc = system_to_document(xor_system())
    mech = doc["mechanisms"]["vZ"]
    # relist sources as (vY, vX); the table is reinterpreted accordingly
    mech["sources"] = ["vY", "vX"]
    mech["table"] = [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]]
    spec = system_from_document(doc)
    # column for (x=0, y=1) must be XOR = 1 again
    assert spec.mechanisms["vZ"].p(("1",), ("0", "1")) == 1


# -- validate ----------------------------------------------------------------------

def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", XOR)
    assert code == 0 and err == ""


def test_validate_bad_column(capsys):
    code, out, err = run(capsys, "validate", BAD)
    assert code == 1
    assert "NonStochastic" in err
    assert "column 0" in err


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2


def _validate_mutated_xor(capsys, tmp_path, mutate):
    doc = json.loads(open(XOR, encoding="utf-8").read())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "validate", str(path))


def test_validate_duplicate_sources_is_a_document_error(capsys, tmp_path):
    code, _, err = _validate_mutated_xor(
        capsys, tmp_path, lambda d: d["mechanisms"]["vZ"].update(sources=["vX", "vX"]))
    assert code == 2 and err.startswith("error:")


def test_validate_scalar_columns_is_a_document_error(capsys, tmp_path):
    code, _, err = _validate_mutated_xor(
        capsys, tmp_path, lambda d: d["mechanisms"]["vZ"].update(table=[1, 1, 1, 1]))
    assert code == 2 and err.startswith("error:")


def test_validate_mechanisms_list_is_a_document_error(capsys, tmp_path):
    code, _, err = _validate_mutated_xor(
        capsys, tmp_path, lambda d: d.update(mechanisms=[]))
    assert code == 2 and err.startswith("error:")


# each entry prints, but the two add up to a denominator of about 8,000 digits
LONG = "1" + "0" * 4000


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["sources"].update(vX=[f"1/{LONG}1", f"1/{LONG}3"]), "source 'vX' weights sum to"),
    (lambda d: d["mechanisms"]["vZ"]["table"].__setitem__(0, [f"1/{LONG}1", f"1/{LONG}3"]),
     "mechanism 'vZ' column 0 sums to"),
], ids=["source", "column"])
def test_unprintable_sum_is_a_domain_error(capsys, tmp_path, mutate, message):
    code, out, err = _validate_mutated_xor(capsys, tmp_path, mutate)
    digits = sys.get_int_max_str_digits()
    assert (code, out) == (1, "")
    assert err == f"error: NonStochastic: {message} a rational of more than {digits} digits, not 1\n"


def _listed_yx(doc, column):
    # vZ's sources listed out of id order: listed column j is not canonical column j
    doc["mechanisms"]["vZ"]["sources"] = ["vY", "vX"]
    doc["mechanisms"]["vZ"]["table"][1] = column


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["sources"].update(vX=["1/2", "1/3"]), "source 'vX' weights sum to 5/6, not 1"),
    (lambda d: d["sources"].update(vX=["3/2", "-1/2"]), "negative weight -1/2 in source 'vX'"),
    (lambda d: d["sources"].update(vX=["1"]), "source 'vX' has 1 weights, expected 2"),
    (lambda d: _listed_yx(d, ["1/2", "1/3"]), "mechanism 'vZ' column 1 sums to 5/6, not 1"),
    (lambda d: _listed_yx(d, ["3/2", "-1/2"]), "negative entry -1/2 in mechanism 'vZ' column 1"),
    (lambda d: _listed_yx(d, ["1", "0", "0"]), "mechanism 'vZ' column 1 has 3 rows, expected 2"),
], ids=["source-sum", "source-negative", "source-length",
        "column-sum", "column-negative", "column-rows"])
def test_non_stochastic_error_names_occasion_and_listed_column(capsys, tmp_path, mutate, message):
    code, out, err = _validate_mutated_xor(capsys, tmp_path, mutate)
    assert (code, out, err) == (1, "", f"error: NonStochastic: {message}\n")


@pytest.mark.parametrize("mutate, where", [
    (lambda d: d["mechanisms"]["vZ"]["table"].__setitem__(0, [True, False]),
     "mechanism 'vZ' column 0"),
    (lambda d: d["sources"].update(vX=[True, False]), "source 'vX'"),
], ids=["column", "source"])
def test_json_boolean_is_not_a_rational(capsys, tmp_path, mutate, where):
    # Fraction reads true and false as 1 and 0, so both would sum to 1
    code, out, err = _validate_mutated_xor(capsys, tmp_path, mutate)
    assert (code, out, err) == (
        2, "", f"error: bad rational True in {where}: a boolean is not a rational\n")


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["ei", "--subsystem", "all", "--output", "vZ=1"],
], ids=["validate", "ei"])
def test_invalid_system_is_one_error_line(capsys, tmp_path, argv):
    # a loadable document that breaks the system invariants: every command
    # names all its violations on one line and exits 1
    doc = json.loads(open(XOR, encoding="utf-8").read())
    del doc["sources"]
    path = tmp_path / "sourceless.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == ("error: Error: invalid system: "
                   "MissingSource: sourceless occasion 'vX' needs a distribution; "
                   "MissingSource: sourceless occasion 'vY' needs a distribution\n")


# ids the CLI could not address, by the character or the whitespace in them
_UNADDRESSABLE_IDS = {"comma": "v,X", "bar": "v|X", "equals": "v=X", "quote": 'v"X',
                      "backslash": "v\\X", "empty": "", "leading-space": " vX",
                      "trailing-space": "vX "}
_VALIDATE = ["validate"]
_EI = ["ei", "--subsystem", "all", "--output", "vZ=1"]


@pytest.mark.parametrize("argv, occasion_id", [
    pytest.param(_VALIDATE, "v-X", id="validate"),
    pytest.param(_EI, "v-X", id="ei"),
    *(pytest.param(argv, i, id=f"{argv[0]}-{name}")
      for argv in (_VALIDATE, _EI) for name, i in _UNADDRESSABLE_IDS.items()),
])
def test_dashed_occasion_id_is_a_document_error(capsys, tmp_path, argv, occasion_id):
    # subsystem keys join a pair's ids with '-', so v-X-vZ would be ambiguous;
    # the CLI splits its other text forms on , | and =, strips whitespace,
    # and writes ids into DOT between unescaped quotes
    path = tmp_path / "dashed.json"
    path.write_text(
        open(XOR, encoding="utf-8").read().replace('"vX"', json.dumps(occasion_id)))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(occasion_id) in err


# -- quale -------------------------------------------------------------------------

def test_quale_xor_has_four_sections(capsys, tmp_path):
    out_file = tmp_path / "quale.json"
    code, _, _ = run(capsys, "quale", XOR, "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["sections"]) == 4
    keys = [",".join(s["subsystem"]) for s in doc["sections"]]
    assert keys[0] == "" and "vX-vZ,vY-vZ" in keys


def test_quale_and_top_section_at_one_is_dirac(capsys):
    code, out, _ = run(capsys, "quale", AND)
    assert code == 0
    doc = json.loads(out)
    whole = [s for s in doc["sections"]
             if s["subsystem"] == ["vX-vZ", "vY-vZ"]][0]
    assert whole["matrix"][1] == [0, 0, 0, 1]  # column at z=1 is delta_(1,1)


def test_quale_budget_exceeded(capsys):
    code, out, err = run(capsys, "quale", XOR, "--max-edges", "1")
    assert code == 1
    assert "BudgetExceeded" in err
    assert out == ""


def _reference_quale_text(spec):
    """The quale document as one json.dumps of the whole tree writes it."""
    sections = [{
        "subsystem": [f"{a}-{b}" for a, b in sec.subsystem.sorted_pairs()],
        "outputs": list(sec.matrix.domain.factor_ids),
        "inputs": list(sec.matrix.codomain.factor_ids),
        "matrix": [[format_rational(v) for v in col] for col in sec.matrix.cols],
    } for sec in build_quale(spec).sections]
    return json.dumps({"format_version": 1, "sections": sections}, indent=2) + "\n"


def _three_symbol_system():
    """vA (3 symbols) and vB (binary) feed vC (3 symbols) and vD (binary)."""
    abc, xyz = alphabet("abc"), alphabet("xyz")
    occs = (Occasion("vA", abc), Occasion("vB", BINARY),
            Occasion("vC", xyz), Occasion("vD", BINARY))
    both = canonical_space({"vA": abc, "vB": BINARY})
    m_c = make_matrix(both, canonical_space({"vC": xyz}), [
        ["1/2", "1/3", "1/6", "1/4", "1/5", "2/3"],
        ["1/4", "1/3", "1/2", "1/2", "2/5", "1/6"],
        ["1/4", "1/3", "1/3", "1/4", "2/5", "1/6"]])
    m_d = lift_function(canonical_space({"vA": abc}), canonical_space({"vD": BINARY}),
                        {"a": "0", "b": "1", "c": "1"})
    edges = {("vA", "vC"), ("vB", "vC"), ("vA", "vD")}
    return SystemSpec(occs, frozenset(edges), {"vC": m_c, "vD": m_d},
                      {"vA": uniform(canonical_space({"vA": abc})),
                       "vB": uniform(canonical_space({"vB": BINARY}))})


def _non_ascii_system():
    doc = json.loads(json.dumps(system_to_document(and_system())).replace("vZ", "v\u03a9"))
    return system_from_document(doc)


QUALE_SYSTEMS = {
    "xor": xor_system,
    "and": and_system,
    "positive": positive_system,
    "random-3x2": lambda: _positive_random_system(
        random.Random(41), ["s0", "s1", "s2"], ["t0", "t1"]),
    "three-symbol": _three_symbol_system,
    "non-ascii": _non_ascii_system,
}


@pytest.mark.parametrize("name", sorted(QUALE_SYSTEMS))
def test_quale_streamed_bytes_equal_whole_tree_document(capsys, tmp_path, name):
    spec = QUALE_SYSTEMS[name]()
    doc_path = tmp_path / "system.json"
    save_system(spec, str(doc_path))
    want = _reference_quale_text(spec)
    if name == "non-ascii":
        assert '"v\\u03a9"' in want
    code, out, err = run(capsys, "quale", str(doc_path))
    assert (code, err) == (0, "")
    assert out == want
    out_file = tmp_path / "quale.json"
    code, out, err = run(capsys, "quale", str(doc_path), "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    assert out_file.read_bytes() == want.encode("ascii")


def _copy_source_document(tmp_path):
    path = tmp_path / "copy.json"
    save_system(copy_source_system(), str(path))
    return str(path)


def test_quale_non_surjective_writes_nothing(capsys, tmp_path):
    doc = _copy_source_document(tmp_path)
    code, out, err = run(capsys, "quale", doc)
    assert code == 1 and "NotSurjective" in err and out == ""
    out_file = tmp_path / "quale.json"
    code, out, err = run(capsys, "quale", doc, "--out", str(out_file))
    assert code == 1 and "NotSurjective" in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.json"]


def test_quale_failure_leaves_existing_out_file_untouched(capsys, tmp_path):
    doc = _copy_source_document(tmp_path)
    out_file = tmp_path / "quale.json"
    out_file.write_bytes(b'{"previous": true}\n')
    code, out, err = run(capsys, "quale", doc, "--out", str(out_file))
    assert code == 1 and "NotSurjective" in err and out == ""
    assert out_file.read_bytes() == b'{"previous": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.json", "quale.json"]


def test_quale_out_through_a_symlink_replaces_its_target(capsys, tmp_path):
    target = tmp_path / "real.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, err = run(capsys, "quale", XOR, "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == _reference_quale_text(xor_system())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def _life_pair(tmp_path):
    """The path of a two-cell life automaton document in tmp_path."""
    path = tmp_path / "life.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {c: {"kind": "life"} for c in "ab"},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
    }))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda p: ["quale", XOR, "--out", os.devnull],
    lambda p: ["lattice", XOR, "--output", "vZ=0", "--dot", os.devnull],
    lambda p: ["unroll", _life_pair(p), "--out", os.devnull],
], ids=["quale", "lattice", "unroll"])
def test_publish_copies_into_an_existing_device_and_never_replaces_it(capsys, tmp_path, argv):
    # a file that exists and is not regular gets a copy: replacing the
    # device by the temporary file would turn it into a regular file
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_quale_out_in_a_missing_directory_is_an_io_error(capsys, tmp_path):
    out_file = tmp_path / "missing" / "quale.json"
    code, out, err = run(capsys, "quale", XOR, "--out", str(out_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(out_file) in err


@pytest.mark.parametrize("argv", [
    lambda d: ["quale", AND, "--out", d],
    lambda d: ["lattice", AND, "--output", "vZ=0", "--dot", d],
], ids=["quale", "lattice"])
def test_directory_destination_is_refused_before_any_subsystem_is_measured(
        capsys, monkeypatch, tmp_path, argv):
    def walk(*args, **kwargs):
        raise AssertionError("a subsystem was measured")
        yield

    monkeypatch.setattr("distmeas.lattice._walk", walk)
    monkeypatch.setattr("distmeas.cli._walk", walk)
    code, out, err = run(capsys, *argv(str(tmp_path)))
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    lambda p: ["quale", AND, "--out", ""],
    lambda p: ["lattice", AND, "--output", "vZ=0", "--dot", ""],
    lambda p: ["unroll", _life_pair(p), "--out", ""],
], ids=["quale", "lattice", "unroll"])
def test_empty_destination_is_refused_before_any_subsystem_is_measured(
        capsys, monkeypatch, tmp_path, argv):
    # "" names no file, as open("", "w") says: it is not standard output
    def walk(*args, **kwargs):
        raise AssertionError("a subsystem was measured")
        yield

    monkeypatch.setattr("distmeas.lattice._walk", walk)
    monkeypatch.setattr("distmeas.cli._walk", walk)
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out, err) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_quale_budget_exceeded_creates_no_out_file(capsys, tmp_path):
    out_file = tmp_path / "quale.json"
    code, out, err = run(capsys, "quale", XOR, "--max-edges", "1", "--out", str(out_file))
    assert code == 1 and "BudgetExceeded" in err and out == ""
    assert list(tmp_path.iterdir()) == []


# -- ei ----------------------------------------------------------------------------

def test_ei_xor_top(capsys):
    code, out, _ = run(capsys, "ei", XOR, "--subsystem", "all",
                       "--context", "null", "--output", "vZ=0")
    assert code == 0
    assert float(out.strip()) == 1.0


def test_ei_xor_single_edge(capsys):
    code, out, _ = run(capsys, "ei", XOR, "--subsystem", "vX-vZ",
                       "--context", "null", "--output", "vZ=0")
    assert code == 0
    assert float(out.strip()) == 0.0


def test_ei_and_relative(capsys):
    code, out, _ = run(capsys, "ei", AND, "--subsystem", "all",
                       "--context", "vX-vZ", "--output", "vZ=0")
    assert code == 0
    assert abs(float(out.strip()) - 1 / 3) < 1e-9


def test_ei_bare_output_symbol(capsys):
    code, out, _ = run(capsys, "ei", XOR, "--subsystem", "all",
                       "--context", "null", "--output", "0")
    assert code == 0
    assert float(out.strip()) == 1.0


OUTPUT_ARGS = {"ei": ["--subsystem", "all"], "gamma": ["--partition", "vX|vY"], "lattice": []}


@pytest.mark.parametrize("output", ["vZ=0,vZ=1", "0,1", "0, vZ=0", "vW=0,vZ=0,vW=1",
                                    "vZ=1,", "vZ=1,,", " ", ""])
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGS))
def test_output_assigning_an_occasion_twice_or_nothing_is_a_parse_error(
        capsys, tmp_path, command, output):
    host = AND
    if "vW" in output:  # a host with two targets, vW and vZ
        host = str(tmp_path / "double-and.json")
        save_system(double_and_system(), host)
    code, out, err = run(capsys, command, host, *OUTPUT_ARGS[command], "--output", output)
    assert (code, out) == (2, "") and err.startswith(f"error: output {output!r} ")


@pytest.mark.parametrize("output", ["vZ=7", "7", "vZ= 00", "vW=0,vZ=2"])
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGS))
def test_output_symbol_outside_the_alphabet_is_a_parse_error(capsys, tmp_path, command, output):
    host = XOR
    if "vW" in output:  # a host with two targets, vW and vZ
        host = str(tmp_path / "double-and.json")
        save_system(double_and_system(), host)
    code, out, err = run(capsys, command, host, *OUTPUT_ARGS[command], "--output", output)
    symbol = output.rpartition("=")[2].strip()
    assert (code, out) == (2, "")
    assert err == (f"error: output assigns 'vZ' the symbol {symbol!r}, "
                   "not in its alphabet ('0', '1')\n")


def test_ei_context_not_contained(capsys):
    code, _, err = run(capsys, "ei", XOR, "--subsystem", "vX-vZ",
                       "--context", "vY-vZ", "--output", "vZ=0")
    assert code == 1
    assert "ContextNotContained" in err


def test_ei_distribution_file(capsys, tmp_path):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"weights": ["1/2", "1/2"]}))
    code, out, _ = run(capsys, "ei", XOR, "--subsystem", "all",
                       "--context", "null", "--output", f"@{dist}")
    assert code == 0
    # the two posteriors are complementary, so their even mix is uniform
    assert float(out.strip()) == 0.0


def test_ei_distribution_file_needs_a_weights_list(capsys, tmp_path):
    dist = tmp_path / "w.json"
    dist.write_text(json.dumps({"weights": 5}))
    code, out, err = run(capsys, "ei", XOR, "--subsystem", "all", "--output", f"@{dist}")
    assert code == 2 and err.startswith("error:") and "weights" in err and out == ""


# -- gamma -------------------------------------------------------------------------

def test_gamma_xor(capsys):
    code, out, _ = run(capsys, "gamma", XOR, "--partition", "vX|vY",
                       "--output", "vZ=0")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("vX|vY")][0]
    assert "1.000000000" in line


def test_gamma_and_at_one_vanishes(capsys):
    code, out, _ = run(capsys, "gamma", AND, "--partition", "vX|vY",
                       "--output", "vZ=1")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("vX|vY")][0]
    assert "0.000000000" in line.split()[1]


def test_gamma_refuses_partition_with_all_partitions(capsys):
    code, out, err = run(capsys, "gamma", AND, "--partition", "vX|vY", "--all-partitions",
                         "--output", "vZ=0")
    assert (code, out, err) == (2, "", "error: give --partition or --all-partitions, not both\n")


def test_gamma_all_partitions(capsys):
    code, out, _ = run(capsys, "gamma", AND, "--all-partitions",
                       "--output", "vZ=0")
    assert code == 0
    body = [l for l in out.splitlines()[1:] if l.strip()]
    assert len(body) == 2  # Bell(2) partitions of {vX, vY}


def test_gamma_gap_that_rounds_to_zero_prints_unsigned(capsys, tmp_path, monkeypatch):
    # gamma is 0 on this subsystem's measurement, and the gap ei_whole minus
    # the block eis comes out of the float subtraction as a tiny negative
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    from workloads import WORKLOADS
    work = WORKLOADS["lattice-8"](99, str(tmp_path))
    work.write_inputs()
    code, out, _ = run(capsys, "gamma", work.doc_path,
                       "--subsystem", "s0-t2,s1-t3,s2-t0,s2-t1,s2-t3",
                       "--partition", "s0|s1,s2", "--output", "t0=0,t1=0,t2=0,t3=0")
    assert code == 0
    label, gamma, _, _, gap = out.splitlines()[1].split()
    assert (label, gamma, gap) == ("s0|s1,s2", "0.000000000", "0.000000000")


@pytest.mark.parametrize("partition", ["vX|vY"])
def test_gamma_bad_partition_prints_nothing(capsys, partition):
    # vY is not a source of the subsystem
    code, out, err = run(capsys, "gamma", XOR, "--subsystem", "vX-vZ",
                         "--partition", partition, "--output", "vZ=0")
    assert code == 1 and err.startswith("error:") and "NotAPartition" in err
    assert out == ""


def test_gamma_strips_whitespace_around_partition_ids(capsys):
    want = run(capsys, "gamma", XOR, "--partition", "vX|vY", "--output", "vZ=0")
    assert want[0] == 0
    assert run(capsys, "gamma", XOR, "--partition", " vX | vY ", "--output", "vZ=0") == want
    code, out, err = run(capsys, "gamma", XOR, "--partition", "vX|  ", "--output", "vZ=0")
    assert (code, out) == (2, "")
    assert err == ("error: bad partition 'vX|  ': "
                   "expected like a,b|c (no empty source ids)\n")


@pytest.mark.parametrize("partition", ["vX,vY|", "", "vX|", "vX,|vY", "|vX", "vX||vY", ",vX|vY"])
def test_gamma_empty_block_name_is_a_document_error(capsys, partition):
    code, out, err = run(capsys, "gamma", XOR, "--partition", partition, "--output", "vZ=0")
    assert (code, out) == (2, "")
    assert err == (f"error: bad partition {partition!r}: "
                   "expected like a,b|c (no empty source ids)\n")


# -- lattice -----------------------------------------------------------------------

def test_lattice_xor_diamond(capsys):
    code, out, _ = run(capsys, "lattice", XOR, "--output", "vZ=0")
    assert code == 0
    assert out.count("->") == 4
    # lower covers generate nothing, upper covers generate the full bit
    assert out.count('[label="0.00000"]') == 2
    assert out.count('[label="1.00000"]') == 2
    assert '"null"' in out


def test_lattice_single_edge_chain(capsys, tmp_path):
    doc = system_to_document(xor_system())
    doc["edges"] = [["vX", "vZ"]]
    del doc["sources"]["vY"]
    doc["occasions"] = [o for o in doc["occasions"] if o["id"] != "vY"]
    doc["mechanisms"]["vZ"] = {
        "sources": ["vX"], "table": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "lattice", str(path), "--output", "vZ=0")
    assert code == 0
    assert out.count("->") == 1


def test_lattice_and_opposing_diagonals_differ_by_gamma(capsys):
    code, out, _ = run(capsys, "lattice", AND, "--output", "vZ=0")
    assert code == 0
    labels = {}
    for line in out.splitlines():
        if "->" in line:
            src = line.split('"')[1]
            dst = line.split('"')[3]
            val = float(line.split('label="')[1].split('"')[0])
            labels[(src, dst)] = val
    gamma = 0.2516291673878229
    up_y = labels[("vX-vZ", "vX-vZ,vY-vZ")]   # add vY edge in X context
    low_y = labels[("null", "vY-vZ")]          # add vY edge in null context
    assert abs((up_y - low_y) - gamma) < 2e-5  # labels carry 5 decimals


LATTICE_HOSTS = {
    "and": and_system,
    "xor": xor_system,
    "chain": chain_system,
    "three-target": three_target_system,
    "random-3x2": lambda: _positive_random_system(
        random.Random(13), ["s0", "s1", "s2"], ["t0", "t1"]),
}
DOT_NODE = re.compile(r'^  "([^"]*)" \[label="\1"\];$')
DOT_ARROW = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[label="([^"]*)"\];$')


def _produced_output(spec, output):
    """A point mass on the first output the whole system produces, or a
    mixture of the first and the last."""
    out_space = system_output_space(spec)
    produced = []
    for a in out_space.iter_symbols():
        try:
            measure(extend(spec, top(spec)), dirac(out_space, a))
        except UnsupportedOutput:
            continue
        produced.append(a)
    if output == "dirac":
        return dirac(out_space, produced[0])
    weights = [0] * out_space.dim
    weights[out_space.index_of(produced[0])] = Fraction(1, 3)
    weights[out_space.index_of(produced[-1])] += Fraction(2, 3)
    return distribution(out_space, weights)


def _key(sub):
    return ",".join(f"{a}-{b}" for a, b in sorted(sub.pairs)) or "null"


@pytest.mark.parametrize("output", ["dirac", "mixed"])
@pytest.mark.parametrize("host", sorted(LATTICE_HOSTS))
def test_lattice_labels_match_reference(capsys, tmp_path, host, output):
    spec = LATTICE_HOSTS[host]()
    doc = tmp_path / "host.json"
    save_system(spec, str(doc))
    d_out = _produced_output(spec, output)
    if output == "dirac":
        (a,) = d_out.support()
        arg = ",".join(f"{fid}={sym}" for fid, sym in zip(d_out.space.factor_ids, a))
    else:
        (tmp_path / "dist.json").write_text(
            json.dumps({"weights": [str(w) for w in d_out.weights]}))
        arg = "@" + str(tmp_path / "dist.json")
    code, out, err = run(capsys, "lattice", str(doc), "--output", arg)
    assert (code, err) == (0, "")

    lines = out.splitlines()
    assert lines[:3] == ["digraph ei_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    assert lines[-1] == "}"
    nodes = [m.group(1) for m in map(DOT_NODE.match, lines) if m]
    arrows = [m.groups() for m in map(DOT_ARROW.match, lines) if m]
    assert len(nodes) + len(arrows) == len(lines) - 4
    subs = {_key(s): s for s in enumerate_subsystems(spec)}
    assert nodes == sorted(subs, key=lambda k: (len(subs[k].pairs), k))
    covers = [(_key(s), _key(b)) for s in subs.values() for b in subs.values()
              if s.pairs < b.pairs and len(b.pairs) == len(s.pairs) + 1]
    assert [(src, dst) for src, dst, _ in arrows] == sorted(covers)

    measured = {k: measure(extend(spec, s), d_out) for k, s in subs.items()}
    for src, dst, label in arrows:
        want = kl_divergence(measured[dst], measured[src])
        # labels carry five decimals
        assert abs(float(label) - want) <= 0.5e-5 + 1e-12, (src, dst, label, want)


WALK_HOSTS = {
    **LATTICE_HOSTS,
    "random-2x3": lambda: _positive_random_system(
        random.Random(21), ["s0", "s1"], ["t0", "t1", "t2"]),
    "random-4x1": lambda: _positive_random_system(
        random.Random(34), ["s0", "s1", "s2", "s3"], ["t0"]),
}


@pytest.mark.parametrize("output", ["dirac", "mixed"])
@pytest.mark.parametrize("host", sorted(WALK_HOSTS))
def test_lattice_walk_measures_every_subsystem(host, output):
    spec = WALK_HOSTS[host]()
    d_out = _produced_output(spec, output)
    edges = sorted(spec.edges)
    walked = list(_walk(spec, edges))
    subs = list(enumerate_subsystems(spec))
    assert [mask for mask, _, _ in walked] == list(range(len(subs)))
    for (_, parts, domain), sub in zip(walked, subs):
        assert parts == _parts(sub) and domain == source_space(spec, sub)
        got = _glued_posterior(spec, parts, domain, d_out)
        assert got == _posterior(spec, sub, d_out), sorted(sub.pairs)
        assert _spread(spec, got) == measure(extend(spec, sub), d_out), sorted(sub.pairs)

    streamed = list(_quale_rows(spec, edges))
    assert [item[0] for item in streamed] == list(range(len(subs)))
    for (_, codomain, domain, rows, row_sums), sub in zip(streamed[1:], subs[1:]):
        assert (codomain, domain) == (target_space(spec, sub), source_space(spec, sub))
        want = _glued_rows(spec, _parts(sub), domain)
        assert [list(r) for r in rows] == [list(r) for r in want]
        assert list(row_sums) == [sum(r) for r in want]


def _lattice_labels(capsys, doc, output_arg):
    code, out, err = run(capsys, "lattice", doc, "--output", output_arg)
    assert (code, err) == (0, "")
    return [m.groups() for m in map(DOT_ARROW.match, out.splitlines()) if m]


def _is_spread(spec, p, d):
    """Whether record p is record d times the uniform distribution on the
    rest of p's space, by exact integer comparison."""
    restrict = _restriction_table(p.space, d.space)
    ratio = p.space.dim // d.space.dim
    return all(a * d.total * ratio == d.weights[j] * p.total
               for a, j in zip(p.weights, restrict))


def _assert_zero_labels(spec, arrows, d_out):
    records = {_key(s): _posterior(spec, s, d_out) for s in enumerate_subsystems(spec)}
    spreads = 0
    for src, dst, label in arrows:
        assert label != "-0.00000", (src, dst)
        if _is_spread(spec, records[dst], records[src]):
            assert label == "0.00000", (src, dst, label)
            spreads += 1
    return spreads


def test_lattice_labels_of_spread_posteriors_are_exactly_zero(capsys, tmp_path, monkeypatch):
    # at seed 99, the label formula's float sums leave some of these arrows a
    # tiny negative, which would print as -0.00000
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    from workloads import WORKLOADS
    work = WORKLOADS["lattice-8"](99, str(tmp_path))
    work.write_inputs()
    spec = load_system(work.doc_path)
    arrows = _lattice_labels(capsys, work.doc_path, work.OUTPUT)
    d_out = dirac(system_output_space(spec), ("0", "0", "0", "0"))
    assert _assert_zero_labels(spec, arrows, d_out) > 0


@pytest.mark.parametrize("host", sorted(LATTICE_HOSTS))
def test_lattice_labels_never_print_negative_zero(capsys, tmp_path, host):
    spec = LATTICE_HOSTS[host]()
    doc = tmp_path / "host.json"
    save_system(spec, str(doc))
    for output in ("dirac", "mixed"):
        d_out = _produced_output(spec, output)
        (tmp_path / "dist.json").write_text(
            json.dumps({"weights": [str(w) for w in d_out.weights]}))
        arrows = _lattice_labels(capsys, str(doc), "@" + str(tmp_path / "dist.json"))
        _assert_zero_labels(spec, arrows, d_out)



def _label_floats(doc, output_arg):
    """(source key, destination key, the float the label prints) for each
    arrow the lattice command writes, read by wrapping cli._bits."""
    floats = []

    def capture(x, places=9):
        floats.append(x)
        return _bits(x, places)

    with tempfile.TemporaryDirectory() as tmp, mock.patch("distmeas.cli._bits", capture):
        dot = os.path.join(tmp, "lattice.dot")
        assert main(["lattice", doc, "--output", output_arg, "--dot", dot]) == 0
        with open(dot, encoding="utf-8") as fh:
            arrows = [m.groups()[:2] for m in map(DOT_ARROW.match, fh.read().splitlines()) if m]
    assert len(arrows) == len(floats)
    return [(src, dst, x) for (src, dst), x in zip(arrows, floats)]


def _assert_labels_are_ei(spec, doc, output_arg, d_out):
    subs = {_key(s): s for s in enumerate_subsystems(spec)}
    labels = _label_floats(doc, output_arg)
    assert len(labels) == len(subs) * len(spec.edges) // 2
    for src, dst, x in labels:
        assert x == effective_information(spec, subs[dst], subs[src], d_out), (src, dst, x)


def test_lattice_labels_are_effective_information(tmp_path, monkeypatch):
    # every label is the float ei --subsystem B --context D prints, to the last bit
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    from workloads import WORKLOADS
    work = WORKLOADS["lattice-8"](99, str(tmp_path))
    work.write_inputs()
    spec = load_system(work.doc_path)
    d_out = dirac(system_output_space(spec), ("0", "0", "0", "0"))
    _assert_labels_are_ei(spec, work.doc_path, work.OUTPUT, d_out)


@pytest.mark.parametrize("host, output", [
    ("and", "vZ=0"), ("and", "vZ=1"),
    ("2x3", "vZ=0"), ("2x3", "vZ=1"), ("2x3", "vZ=2"), ("2x3", "mixed"),
    ("double-and", "vW=0,vZ=0"), ("double-and", "vW=1,vZ=1")])
def test_lattice_labels_are_effective_information_at_zero_posterior_weights(
        tmp_path, host, output):
    # deterministic hosts: posteriors are zero on some inputs, where the log
    # tables hold 0.0 and the cross terms add +-0.0. The two AND gates of
    # double-and read each (target, inside) block through several domains
    if host == "and":
        spec, doc = and_system(), AND
    elif host == "double-and":
        spec, doc = double_and_system(), str(tmp_path / "double-and.json")
        save_system(spec, doc)
    else:
        table = FunctionTable((BINARY, alphabet("012")), alphabet("012"),
                              ("0", "0", "1", "2", "1", "0"))
        spec, doc = two_input_system(table), str(tmp_path / "2x3.json")
        save_system(spec, doc)
    out_space = system_output_space(spec)
    if output == "mixed":
        d_out = distribution(out_space, [Fraction(1, 2), Fraction(1, 2)]
                             + [0] * (out_space.dim - 2))
        with open(tmp_path / "dist.json", "w", encoding="utf-8") as fh:
            json.dump({"weights": [str(w) for w in d_out.weights]}, fh)
        output = "@" + str(tmp_path / "dist.json")
    else:
        d_out = dirac(out_space, tuple(a[-1] for a in output.split(",")))
    zeros = [sub for sub in enumerate_subsystems(spec)
             if 0 in _posterior(spec, sub, d_out).weights]
    assert zeros
    _assert_labels_are_ei(spec, doc, output, d_out)


@st.composite
def ignoring_hosts(draw):
    """Two or three sources with two or three symbols, and one or two binary
    targets that read every source but heed only some: a column depends only
    on the symbols of the heeded sources."""
    sources = [f"s{i}" for i in range(draw(st.integers(2, 3)))]
    targets = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    alphabets = {s: alphabet(range(draw(st.integers(2, 3)))) for s in sources}
    domain = canonical_space({s: alphabets[s] for s in sources})
    mechanisms = {}
    for t in targets:
        heeded = [domain.position(s) for s in sorted(draw(st.sets(st.sampled_from(sources))))]
        columns = {}
        for x in domain.iter_symbols():
            key = tuple(x[k] for k in heeded)
            if key not in columns:
                a = Fraction(draw(st.integers(1, 9)), 10)
                columns[key] = (a, 1 - a)
        mechanisms[t] = matrix_from_columns(
            domain, canonical_space({t: BINARY}),
            [columns[tuple(x[k] for k in heeded)] for x in domain.iter_symbols()])
    return SystemSpec(
        tuple(Occasion(s, alphabets[s]) for s in sources)
        + tuple(Occasion(t, BINARY) for t in targets),
        frozenset((s, t) for s in sources for t in targets), mechanisms,
        {s: uniform(canonical_space({s: alphabets[s]})) for s in sources})


@settings(max_examples=40, deadline=None)
@given(spec=ignoring_hosts(), output=st.sampled_from(["dirac", "mixed"]))
def test_lattice_labels_are_effective_information_on_hosts_that_ignore_sources(spec, output):
    d_out = _produced_output(spec, output)
    with tempfile.TemporaryDirectory() as tmp:
        doc, dist = os.path.join(tmp, "host.json"), os.path.join(tmp, "dist.json")
        save_system(spec, doc)
        with open(dist, "w", encoding="utf-8") as fh:
            json.dump({"weights": [str(w) for w in d_out.weights]}, fh)
        _assert_labels_are_ei(spec, doc, "@" + dist, d_out)


def test_ignored_ternary_source_gives_exact_zeros(tmp_path):
    # t reads a and c but ignores c, so the measurement of {a-t, c-t} is that
    # of a-t spread evenly over c: ei, gamma and the label are exactly 0.0,
    # where the float sums alone leave about 2e-16
    ternary = alphabet("012")
    domain = canonical_space({"a": ternary, "c": ternary})
    p_one = {"0": Fraction(1, 10), "1": Fraction(1, 2), "2": Fraction(9, 10)}
    columns = [(1 - p_one[a], p_one[a]) for a, _ in domain.iter_symbols()]
    spec = SystemSpec(
        (Occasion("a", ternary), Occasion("c", ternary), Occasion("t", BINARY)),
        frozenset({("a", "t"), ("c", "t")}),
        {"t": matrix_from_columns(domain, canonical_space({"t": BINARY}), columns)},
        {s: uniform(canonical_space({s: ternary})) for s in ("a", "c")})
    doc = tmp_path / "host.json"
    save_system(spec, str(doc))
    d_out = dirac(system_output_space(spec), ("1",))
    a_t = subsystem(spec, [("a", "t")])
    assert effective_information(spec, top(spec), a_t, d_out) == 0.0
    assert entanglement(spec, top(spec), partition_of([["a"], ["c"]]), d_out).gamma_bits == 0.0
    labels = {(src, dst): x for src, dst, x in _label_floats(str(doc), "t=1")}
    assert labels["a-t", "a-t,c-t"] == 0.0
    assert labels["null", "c-t"] == 0.0


def test_lattice_unattained_output_fails_as_ei_does(capsys, tmp_path):
    doc = tmp_path / "double-and.json"
    save_system(double_and_system(), str(doc))
    code, out, err = run(capsys, "ei", str(doc), "--subsystem", "all", "--output", "vW=1,vZ=0")
    assert (code, out) == (1, "")
    assert err == "error: UnsupportedOutput: output ('1', '0') is never produced by the mechanism\n"
    assert run(capsys, "lattice", str(doc), "--output", "vW=1,vZ=0") == (code, out, err)


@pytest.mark.parametrize("case", ["budget", "unproduced-output"])
def test_lattice_failure_writes_nothing(capsys, tmp_path, case):
    if case == "budget":
        argv = ["lattice", XOR, "--max-edges", "1", "--output", "vZ=0"]
        error = "BudgetExceeded"
    else:
        doc = tmp_path / "double-and.json"
        save_system(double_and_system(), str(doc))
        argv = ["lattice", str(doc), "--output", "vW=1,vZ=0"]
        error = "UnsupportedOutput"
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error:") and error in err and out == ""
    dot = tmp_path / "lattice.dot"
    dot.write_bytes(b"digraph previous {}\n")
    code, out, err = run(capsys, *argv, "--dot", str(dot))
    assert code == 1 and err.startswith("error:") and error in err and out == ""
    assert dot.read_bytes() == b"digraph previous {}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["lattice.dot"])


# -- unroll ------------------------------------------------------------------------

def test_unroll_life_ring(capsys, tmp_path):
    auto = {
        "format_version": 1,
        "cells": ["a", "b", "c"],
        "alphabet": ["0", "1"],
        "neighborhoods": {c: ["a", "b", "c"] for c in "abc"},
        "rules": {c: {"kind": "life"} for c in "abc"},
        "window": [0, 3],
        "initial": {"a": "1", "b": "1", "c": "0"},
    }
    path = tmp_path / "life.json"
    path.write_text(json.dumps(auto))
    out_path = tmp_path / "system.json"
    code, _, _ = run(capsys, "unroll", str(path), "--steps", "2",
                     "--out", str(out_path))
    assert code == 0
    spec = load_system(str(out_path))
    assert len(spec.occasions) == 6
    code, _, err = run(capsys, "validate", str(out_path))
    assert code == 0, err


def test_unroll_hopfield_document(tmp_path, capsys):
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {c: {"kind": "hopfield", "weights": ["1", "-1"],
                      "temperature": "1/2"} for c in "ab"},
        "window": [0, 1],
        "initial": {"a": {"distribution": ["1/2", "1/2"]}, "b": "0"},
    }
    path = tmp_path / "hop.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 0, err
    spec = system_from_document(json.loads(out))
    assert len(spec.occasions) == 4
    from distmeas.system import validate
    assert validate(spec) == []


@pytest.mark.parametrize("change", [
    {"snap_denominator": "lots"},
    {"snap_denominator": 2.5},
    {"weights": 5},
], ids=["snap-not-a-number", "snap-not-an-integer", "weights-not-a-list"])
def test_unroll_malformed_hopfield_rule_is_a_document_error(tmp_path, capsys, change):
    rule = {"kind": "hopfield", "weights": ["1", "-1"], "temperature": "1/2", **change}
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {c: rule for c in "ab"},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
    }
    path = tmp_path / "hop.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 2 and err.startswith("error:") and out == ""


def test_unroll_dashed_cell_id_is_a_document_error(tmp_path, capsys):
    # the cell id becomes the occasion ids a-1@0 and a-1@1
    auto = {
        "format_version": 1,
        "cells": ["a-1", "b"],
        "neighborhoods": {"a-1": ["a-1", "b"], "b": ["a-1", "b"]},
        "rules": {c: {"kind": "hopfield", "weights": ["1", "-1"], "temperature": "1/2"}
                  for c in ("a-1", "b")},
        "window": [0, 1],
        "initial": {"a-1": "1", "b": "0"},
    }
    path = tmp_path / "dashed.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'a-1'" in err


@pytest.mark.parametrize("cell", [
    pytest.param(i, id=name) for name, i in _UNADDRESSABLE_IDS.items()])
def test_unroll_unaddressable_cell_id_is_a_document_error(tmp_path, capsys, cell):
    auto = {
        "format_version": 1,
        "cells": [cell, "b"],
        "neighborhoods": {cell: [cell, "b"], "b": [cell, "b"]},
        "rules": {c: {"kind": "life"} for c in (cell, "b")},
        "window": [0, 1],
        "initial": {cell: "1", "b": "0"},
    }
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cell id {cell!r} must ")


def _renamed_xor(renames):
    """xor.json with each id renamed as renames says, as a JSON object."""
    text = open(XOR, encoding="utf-8").read()
    for old, new in renames.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    return json.loads(text)


def _short_xor():
    return _renamed_xor({"vX": "X", "vY": "Y", "vZ": "Z"})


def _occasion(doc, occ_id):
    return next(o for o in doc["occasions"] if o["id"] == occ_id)


def _set_edges(doc):
    doc["edges"] = ["XZ", "YZ"]


def _set_sources(doc):
    doc["mechanisms"]["Z"]["sources"] = "XY"


def _set_alphabet(value):
    def change(doc):
        _occasion(doc, "X")["alphabet"] = value
    return change


def _set_listed_id(doc):
    # the id ['vX'] everywhere else, given as an array where it is an occasion's id
    _occasion(doc, "['vX']")["id"] = ["vX"]


def _set_numbered_id(doc):
    _occasion(doc, "7")["id"] = 7


@pytest.mark.parametrize("renames, change", [
    ({}, _set_edges),
    ({}, _set_sources),
    ({}, _set_alphabet("01")),
    ({}, _set_alphabet({"0": 1, "1": 2})),
    ({}, _set_alphabet([None, True])),
    ({"vX": "['vX']"}, _set_listed_id),
    ({"vZ": "7"}, _set_numbered_id),
], ids=["edges-strings", "sources-a-string", "alphabet-a-string", "alphabet-an-object",
        "alphabet-null-and-boolean", "id-an-array", "id-a-number"])
def test_system_document_arrays_and_strings_are_typed(capsys, tmp_path, renames, change):
    doc = _renamed_xor(renames) if renames else _short_xor()
    change(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    (target,) = doc["mechanisms"]
    for argv in (["validate"], ["ei", "--subsystem", "all", "--output", f"{target}=1"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == "", (argv, err)
        assert re.fullmatch(r"error: .* must be (an array|a string), not [a-z ]+\n", err), err


@pytest.mark.parametrize("change", [
    {"cells": "ab"},
    {"alphabet": "01"},
    {"alphabets": {"a": "01"}},
    {"neighborhoods": {"a": "ab", "b": ["a", "b"]}},
    {"neighborhoods": {"a": [["a", 1, 2], "b"], "b": ["a", "b"]}},
    {"window": [0, 1, 7]},
    {"initial": {"a": 1, "b": "0"}},
    {"rules": {"a": {"kind": "table", "table": {"0,0": 0, "0,1": 1, "1,0": 1, "1,1": 0}},
               "b": {"kind": "life"}}},
], ids=["cells-a-string", "alphabet-a-string", "alphabets-entry-a-string",
        "neighborhood-a-string", "lagged-neighbor-of-three", "window-of-three",
        "initial-symbol-a-number",
        "table-values-numbers"])
def test_automaton_document_arrays_and_strings_are_typed(tmp_path, capsys, change):
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {c: {"kind": "life"} for c in "ab"},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
        **change,
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 2 and out == "" and err.startswith("error:"), err


@pytest.mark.parametrize("change", [
    {"rules": [1]},
    {"initial": [1]},
    {"alphabets": [1]},
    {"neighborhoods": [1]},
    {"initial": {"a": {"distribution": 5}, "b": "0"}},
    {"neighborhoods": {"a": [["a", "x"], "b"], "b": ["a", "b"]}},
    {"neighborhoods": {"a": [["a"], "b"], "b": ["a", "b"]}},
    {"initial": {"a": "1", "b": "0", "zz": {"distribution": ["1/2", "1/2"]}}},
    {"rules": {"a": {"kind": "table", "table": [1]}, "b": {"kind": "life"}}},
    {"neighborhoods": {"a": [["a", 1.9], "b"], "b": ["a", "b"]}},
    {"neighborhoods": {"a": [["a", True], "b"], "b": ["a", "b"]}},
    {"window": [0, 1.8]},
    {"window": ["0", 1]},
    {"rules": {"a": {"\u00b2": {"kind": "life"}}, "b": {"kind": "life"}}},
    {"rules": {"a": {"1" * 5000: {"kind": "life"}}, "b": {"kind": "life"}}},
    {"rules": {"a": {"1": {"1": {"kind": "life"}}}, "b": {"kind": "life"}}},
], ids=["rules-not-an-object", "initial-not-an-object", "alphabets-not-an-object",
        "neighborhoods-not-an-object", "distribution-not-a-list", "lag-not-an-integer",
        "entry-without-lag", "distribution-of-unknown-cell", "table-not-an-object",
        "lag-a-float", "lag-a-boolean", "window-end-a-float", "window-start-a-string",
        "time-key-a-non-ascii-digit", "time-key-of-5000-digits",
        "rule-by-time-in-rule-by-time"])
def test_unroll_malformed_automaton_document_is_a_document_error(tmp_path, capsys, change):
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {c: {"kind": "life"} for c in "ab"},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
        **change,
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("key", ["0,0,0", "0,7"], ids=["three-symbols", "7-of-b"])
def test_unroll_table_key_that_does_not_fit_is_a_domain_error(tmp_path, capsys, key):
    table = {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "0", key: "1"}
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {"a": {"kind": "table", "table": table}, "b": {"kind": "life"}},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidAutomaton: rule of 'a' has key ")
    assert repr(tuple(key.split(","))) in err


def test_unroll_reads_the_empty_table_key_of_a_cell_without_neighbors(tmp_path, capsys):
    auto = {
        "format_version": 1,
        "cells": ["a"],
        "neighborhoods": {"a": []},
        "rules": {"a": {"kind": "table", "table": {"": "1"}}},
        "window": [0, 1],
        "initial": {"a": "0"},
    }
    code, out, err = run(capsys, "unroll", _json_file(tmp_path, auto))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert "a@1" not in doc["mechanisms"]
    assert doc["sources"]["a@1"] == [0, 1]  # the point mass at "1"
    # any other key is still one symbol too many for no neighbors
    auto["rules"]["a"]["table"] = {"0": "1"}
    code, out, err = run(capsys, "unroll", _json_file(tmp_path, auto))
    assert (code, out) == (1, "")
    assert err == ("error: InvalidAutomaton: rule of 'a' has key ('0',) of 1 symbols, "
                   "for a neighborhood of 0\n")


@pytest.mark.parametrize("change, error", [
    ({"rules": {"a": {"kind": "table", "table": {"0,0": "0", "0,1": "7", "1,0": "1", "1,1": "0"}},
                "b": {"kind": "life"}}},
     "rule of 'a' has key ('0', '1'), whose value '7' is not a symbol of 'a'"),
    ({"alphabets": {"b": ["0", "1", "2"]}, "neighborhoods": {"a": ["a", "b"], "b": ["b"]},
      "rules": {"a": {"kind": "hopfield", "weights": ["1", "-1"], "temperature": "1"},
                "b": {"kind": "table", "table": {"0": "1", "1": "2", "2": "0"}}}},
     "rule of 'a' reads ('0', '1') from 'b', not ('0', '1', '2')"),
    ({"alphabets": {"a": ["0", "1", "2"]}, "neighborhoods": {"a": ["b"], "b": ["b"]},
      "rules": {"a": {"kind": "hopfield", "weights": ["1"], "temperature": "1"},
                "b": {"kind": "life"}}},
     "rule of 'a' has 2 outputs, for the 3 symbols of 'a'"),
], ids=["table-value-not-a-symbol", "hopfield-over-a-ternary-neighbor",
        "hopfield-on-a-ternary-cell"])
def test_unroll_rule_that_does_not_fit_its_cell_is_a_domain_error(tmp_path, capsys, change, error):
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
        **change,
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert (code, out, err) == (1, "", f"error: InvalidAutomaton: {error}\n")


def _not_built(*args, **kwargs):
    raise AssertionError("built a rule that unroll refuses")


@pytest.mark.parametrize("size, rule, error", [
    (30, {"kind": "life"}, "BudgetExceeded: the rule of 'c0' has 1073741824 joint inputs"),
    (17, {"kind": "hopfield", "weights": ["1"] * 17, "temperature": "1"},
     "BudgetExceeded: the rule of 'c0' has 131072 joint inputs"),
    (2, {"kind": "hopfield", "weights": ["1"] * 40, "temperature": "1"},
     "InvalidAutomaton: rule arity of 'c0' does not match neighborhood size 2"),
], ids=["life-of-30-cells", "hopfield-of-17-cells", "hopfield-of-40-weights-on-2-cells"])
def test_unroll_refuses_a_rule_over_budget_before_building_it(tmp_path, capsys, monkeypatch,
                                                              size, rule, error):
    monkeypatch.setattr("distmeas.io.life_rule", _not_built)
    monkeypatch.setattr("distmeas.io.hopfield_rule", _not_built)
    cells = [f"c{i}" for i in range(size)]
    auto = {
        "format_version": 1,
        "cells": cells,
        "neighborhoods": {c: cells for c in cells},
        "rules": {"c0": {"0": rule, "1": rule}},
        "window": [0, 1],
        "initial": {c: "0" for c in cells},
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error}")


@pytest.mark.parametrize("first, second", [("1", "01"), ("01", "1"), ("0", "-0"), ("1", "001")])
def test_unroll_time_keys_naming_one_time_are_a_document_error(tmp_path, capsys, first, second):
    # read as ints the two keys name one time, and one rule would silently replace the other
    joints = ["0,0", "0,1", "1,0", "1,1"]
    auto = {
        "format_version": 1,
        "cells": ["a", "b"],
        "neighborhoods": {"a": ["a", "b"], "b": ["a", "b"]},
        "rules": {"a": {first: {"kind": "table", "table": {j: "0" for j in joints}},
                        second: {"kind": "table", "table": {j: "1" for j in joints}}},
                  "b": {"kind": "life"}},
        "window": [0, 1],
        "initial": {"a": "1", "b": "0"},
    }
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(auto))
    code, out, err = run(capsys, "unroll", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and repr(first) in err and repr(second) in err


# -- oracle-check -------------------------------------------------------------------

def test_oracle_check_exhaustive(capsys):
    code, out, _ = run(capsys, "oracle-check", "--exhaustive", "2x2x2")
    assert code == 0
    assert "16 functions" in out and "0 mismatches" in out


def test_oracle_check_random(capsys):
    code, out, _ = run(capsys, "oracle-check", "--random", "5", "--seed", "7",
                       "--dims", "2x3x2")
    assert code == 0
    assert "0 mismatches" in out


def test_oracle_check_needs_a_mode(capsys):
    code, _, err = run(capsys, "oracle-check")
    assert code == 2


def _no_tables(nx, ny, nz):
    raise AssertionError(f"built the tables of {nx}x{ny}x{nz}")


@pytest.mark.parametrize("dims, count", [("4x4x4", "4^16"), ("2x17x2", "2^34"), ("3x11x1000", "1000^33"),
                                         ("1000x1000x2", "2^1000000")])
def test_oracle_check_refuses_exhaustive_sweeps_over_budget(capsys, monkeypatch, dims, count):
    # every sweep is priced before any table of any sweep is built
    monkeypatch.setattr("distmeas.cli.exhaustive_tables", _no_tables)
    code, out, err = run(capsys, "oracle-check", "--exhaustive", "2x2x2", "--exhaustive", dims)
    assert (code, out) == (1, "")
    assert err == (f"error: BudgetExceeded: exhaustive {dims} sweeps {count} tables, "
                   "over the budget of 2^16\n")


@pytest.mark.parametrize("dims", ["4x4x2", "2x2x16", "2x8x2", "1x1x65536", "9x9x1", "2x5x3"])
def test_oracle_check_sweeps_up_to_the_budget(capsys, monkeypatch, dims):
    monkeypatch.setattr("distmeas.cli.exhaustive_tables", lambda nx, ny, nz: [])
    code, out, _ = run(capsys, "oracle-check", "--exhaustive", dims)
    assert code == 0
    assert out.startswith(f"exhaustive {dims}: 0 functions")


@pytest.mark.parametrize("argv, dims, inputs", [
    (["--random", "1", "--dims", "100x100x2"], "100x100x2", 10000),
    (["--exhaustive", "1000x1000x1"], "1000x1000x1", 1000000),
    (["--exhaustive", "2x2x2", "--random", "1", "--dims", "33x32x2"], "33x32x2", 1056),
])
def test_oracle_check_refuses_tables_over_the_input_budget(capsys, monkeypatch, argv, dims, inputs):
    # every table size is priced before any table of any sweep is built
    monkeypatch.setattr("distmeas.cli.exhaustive_tables", _no_tables)
    monkeypatch.setattr("distmeas.cli.random_tables", lambda nx, ny, nz, *_: _no_tables(nx, ny, nz))
    code, out, err = run(capsys, "oracle-check", *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: BudgetExceeded: a {dims} table has {inputs} inputs, "
                   "over the budget of 1024\n")


def test_oracle_check_runs_a_table_at_the_input_budget(capsys, monkeypatch):
    monkeypatch.setattr("distmeas.cli.random_tables", lambda *_: [])
    code, out, _ = run(capsys, "oracle-check", "--random", "1", "--dims", "32x32x2")
    assert code == 0
    assert out.startswith("random 1 of 32x32x2 (seed 0): 0 functions")


@pytest.mark.parametrize("argv, dims, entries", [
    (["--random", "2", "--dims", "3x3x99999999999999999999"], "3x3x99999999999999999999",
     899999999999999999991),
    (["--random", "1", "--dims", "2x2x4000000"], "2x2x4000000", 16000000),
    (["--random", "1", "--dims", "32x32x65"], "32x32x65", 66560),
    (["--exhaustive", "2x2x2", "--random", "1", "--dims", "1x1x65537"], "1x1x65537", 65537),
])
def test_oracle_check_refuses_tables_over_the_entries_budget(capsys, monkeypatch, argv, dims, entries):
    # the output alphabet is priced before any table is built
    monkeypatch.setattr("distmeas.cli.exhaustive_tables", _no_tables)
    monkeypatch.setattr("distmeas.cli.random_tables", lambda nx, ny, nz, *_: _no_tables(nx, ny, nz))
    code, out, err = run(capsys, "oracle-check", *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: BudgetExceeded: a {dims} table has {entries} matrix entries, "
                   "over the budget of 65536\n")


def test_oracle_check_prices_inputs_before_entries(capsys, monkeypatch):
    monkeypatch.setattr("distmeas.cli.random_tables", lambda nx, ny, nz, *_: _no_tables(nx, ny, nz))
    code, out, err = run(capsys, "oracle-check", "--random", "1", "--dims", "33x32x100")
    assert (code, out) == (1, "")
    assert err == "error: BudgetExceeded: a 33x32x100 table has 1056 inputs, over the budget of 1024\n"


@pytest.mark.parametrize("dims", ["1x1x65536", "32x32x64"])
def test_oracle_check_runs_a_table_at_the_entries_budget(capsys, monkeypatch, dims):
    monkeypatch.setattr("distmeas.cli.random_tables", lambda *_: [])
    code, out, _ = run(capsys, "oracle-check", "--random", "1", "--dims", dims)
    assert code == 0
    assert out.startswith(f"random 1 of {dims} (seed 0): 0 functions")


@pytest.mark.parametrize("count", ["-1", "0"])
def test_oracle_check_random_count_must_be_positive(capsys, count):
    code, out, err = run(capsys, "oracle-check", "--random", count)
    assert (code, out, err) == (2, "", "error: --random must be >= 1\n")


@pytest.mark.parametrize("argv", [["--dims", "garbage"], ["--exhaustive", "1x1x2", "--dims", "garbage"],
                                  ["--exhaustive", "1x1x2", "--dims", "2x2x2"]])
def test_oracle_check_refuses_dims_without_random(capsys, monkeypatch, argv):
    monkeypatch.setattr("distmeas.cli.exhaustive_tables", _no_tables)
    code, out, err = run(capsys, "oracle-check", *argv)
    assert (code, out, err) == (2, "", "error: --dims sizes the --random tables and needs --random\n")


def test_oracle_check_random_tables_default_to_3x3x3(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("distmeas.cli.random_tables", lambda *dims: seen.append(dims) or [])
    code, out, _ = run(capsys, "oracle-check", "--random", "2")
    assert (code, seen) == (0, [(3, 3, 3, 2, 0)])
    assert out.startswith("random 2 of 3x3x3 (seed 0): 0 functions")


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_unrolled_life_window_exceeds_quale_budget(capsys, tmp_path):
    auto = {
        "format_version": 1,
        "cells": ["a", "b", "c"],
        "neighborhoods": {c: ["a", "b", "c"] for c in "abc"},
        "rules": {c: {"kind": "life"} for c in "abc"},
        "window": [0, 2],
        "initial": {"a": "1", "b": "1", "c": "0"},
    }
    path = tmp_path / "life.json"
    path.write_text(json.dumps(auto))
    out_path = tmp_path / "system.json"
    code, _, _ = run(capsys, "unroll", str(path), "--out", str(out_path))
    assert code == 0
    spec = load_system(str(out_path))
    assert len(spec.edges) == 18
    code, _, err = run(capsys, "quale", str(out_path), "--max-edges", "8")
    assert code == 1
    assert "BudgetExceeded" in err


def _json_file(tmp_path, value, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(value))
    return str(path)


def _xor_with_a_source_for_vQ(tmp_path):
    doc = json.loads(open(XOR, encoding="utf-8").read())
    doc["sources"]["vQ"] = ["1/2", "1/2"]
    return _json_file(tmp_path, doc)


def _hopfield_without_temperature(tmp_path):
    return _json_file(tmp_path, {
        "format_version": 1,
        "cells": ["a"],
        "neighborhoods": {"a": ["a"]},
        "rules": {"a": {"kind": "hopfield", "weights": ["1"]}},
        "window": [0, 1],
        "initial": {"a": "0"},
    })


@pytest.mark.parametrize("argv", [
    lambda p: ["ei", XOR, "--subsystem", "vX", "--output", "vZ=0"],
    lambda p: ["ei", _json_file(p, system_to_document(double_and_system())),
               "--subsystem", "all", "--output", "0"],
    lambda p: ["ei", XOR, "--subsystem", "all", "--output", "vQ=0"],
    lambda p: ["gamma", XOR, "--output", "vZ=0"],
    lambda p: ["unroll", _life_pair(p), "--steps", "0"],
    lambda p: ["oracle-check", "--random", "2", "--dims", "3x3"],
    lambda p: ["validate", _json_file(p, [])],
    lambda p: ["unroll", _json_file(p, [])],
    lambda p: ["unroll", _json_file(p, []), "--steps", "2"],
    lambda p: ["validate", _xor_with_a_source_for_vQ(p)],
    lambda p: ["unroll", _hopfield_without_temperature(p)],
    lambda p: ["ei", XOR, "--subsystem", "all", "--output", "@" + _json_file(p, [], "out.json")],
    lambda p: ["ei", XOR, "--subsystem", "all",
               "--output", "@" + _json_file(p, {"weights": ["1"]}, "out.json")],
    lambda p: ["quale", XOR, "--max-edges", "-1"],
    lambda p: ["lattice", XOR, "--output", "vZ=0", "--max-edges", "-3"],
], ids=["subsystem-edge-without-a-dash", "bare-output-of-two-targets",
        "output-of-an-unknown-occasion", "gamma-without-a-partition-flag", "unroll-steps-0",
        "oracle-dims-of-two-sizes", "system-document-a-list", "automaton-document-a-list",
        "automaton-document-a-list-with-steps", "source-of-an-unknown-occasion",
        "hopfield-without-temperature", "output-file-not-an-object",
        "output-file-of-the-wrong-weight-count", "quale-negative-max-edges",
        "lattice-negative-max-edges"])
def test_parse_error_is_one_error_line_and_exit_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1


# -- determinism --------------------------------------------------------------------

def test_outputs_are_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        _, quale_out, _ = run(capsys, "quale", AND)
        _, gamma_out, _ = run(capsys, "gamma", AND, "--all-partitions",
                              "--output", "vZ=0")
        _, dot_out, _ = run(capsys, "lattice", AND, "--output", "vZ=0")
        outs.append((quale_out, gamma_out, dot_out))
    assert outs[0] == outs[1]


# -- quale in forked workers ---------------------------------------------------------

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split(count, n):
    return [range(count * i // n, count * (i + 1) // n) for i in range(n)]


def _quale_text(spec, ranges):
    fh = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    _write_quale(fh, spec, sorted(spec.edges), ranges)
    _assert_no_child_process()
    fh.flush()
    return fh.buffer.getvalue().decode("utf-8")


def _quale_11_system(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from workloads import WORKLOADS
    return system_from_document(WORKLOADS["quale-11"](99, "").document())


def _mixed_radix_system(monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    from output_digests import mixed_radix_document
    return system_from_document(mixed_radix_document())


@pytest.mark.parametrize("host", [_quale_11_system, _mixed_radix_system],
                         ids=["quale-11", "mixed-radix"])
def test_quale_written_in_ranges_has_the_serial_bytes(monkeypatch, host):
    spec = host(monkeypatch)
    count = 2 ** len(spec.edges)
    serial = _quale_text(spec, [range(count)])
    assert serial == _reference_quale_text(spec)
    for n in (2, 3):
        assert _quale_text(spec, _split(count, n)) == serial, n
        # a worker's file is copied as bytes into a file with a binary buffer
        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            _write_quale(fh, spec, sorted(spec.edges), _split(count, n))
            _assert_no_child_process()
            fh.seek(0)
            assert fh.read() == serial, n


@pytest.mark.parametrize("host, walk", [
    pytest.param(_quale_11_system, False, id="quale-11"),
    pytest.param(_mixed_radix_system, False, id="mixed-radix"),
    pytest.param(_quale_11_system, True, id="quale-11-walk"),
    pytest.param(_mixed_radix_system, True, id="mixed-radix-walk"),
])
def test_glued_rows_read_each_block_through_every_domain_as_the_joint_table(
        monkeypatch, host, walk):
    # one (target, inside sources) block is read through the restriction onto
    # several domains: on one spec, every mask's rows, whole and at every
    # output, are the joint table's, whether a walk's dict keeps each block
    # per domain for the walk or every call reads its rows afresh
    spec = host(monkeypatch)
    edges = sorted(spec.edges)
    averaged = {}
    rows_memo = {} if walk else None
    for mask, parts, domain in _walk(spec, edges):
        sub = _masked(edges, mask)
        codomain = target_space(spec, sub)
        single = [_glued_rows(spec, parts, domain,
                              dict(zip(codomain.factor_ids, codomain.digits_at(i))), rows_memo)
                  for i in range(codomain.dim)]
        rows = [list(r) for r in _glued_rows(spec, parts, domain, walk=rows_memo)]
        assert [[list(r) for r in one] for one in single] == [[r] for r in rows]
        cols = [[Fraction(v, sum(col)) for v in col] for col in zip(*rows)]
        assert matrix_from_columns(domain, codomain, cols) == joint_table_oracle(
            spec, sub, averaged), mask


@pytest.mark.parametrize("host", sorted(WALK_HOSTS))
def test_walk_over_a_mask_range_is_that_slice_of_the_full_walk(host):
    spec = WALK_HOSTS[host]()
    edges = sorted(spec.edges)
    walked = list(_walk(spec, edges))
    for start in range(len(walked) + 1):
        for stop in range(start, len(walked) + 1):
            assert list(_walk(spec, edges, range(start, stop))) == walked[start:stop]


def _quale_ranges(count):
    return _ranges(count, count // _SUBSYSTEMS_PER_WORKER)


def test_quale_ranges_split_the_masks_only_when_forking_pays(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # three CPUs, but each range takes _SUBSYSTEMS_PER_WORKER subsystems or more
    assert _quale_ranges(2048) == [range(1024), range(1024, 2048)]
    assert 2048 // _SUBSYSTEMS_PER_WORKER == 2
    # the benchmark self-test's 32-subsystem quale
    assert _quale_ranges(32) == [range(32)]
    # a 4,096-subsystem host: one range per CPU, contiguous, covering every
    # mask in order, their lengths within one of each other
    for cpus in (2, 3, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        ranges = _quale_ranges(4096)
        assert len(ranges) == cpus
        assert all(r.step == 1 for r in ranges)
        assert [m for r in ranges for m in r] == list(range(4096))
        lengths = [len(r) for r in ranges]
        assert max(lengths) - min(lengths) <= 1 and min(lengths) >= _SUBSYSTEMS_PER_WORKER

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _quale_ranges(2048) == [range(2048)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert _quale_ranges(2048) == [range(2048)]
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert _quale_ranges(2048) == [range(2048)]


def test_quale_cut_into_ranges_walks_each_subsystem_once(capsys, monkeypatch, tmp_path):
    # no subsystem is walked to cut the ranges: this process walks each of
    # its own masks once (every mask, where a worker could not fork)
    spec = _quale_11_system(monkeypatch)
    doc = tmp_path / "quale-11.json"
    save_system(spec, str(doc))
    walked = Counter()

    def walk(spec, edges, masks=None):
        for item in _walk(spec, edges, masks):
            walked[item[0]] += 1
            yield item

    monkeypatch.setattr("distmeas.lattice._walk", walk)
    monkeypatch.setattr("distmeas.cli._walk", walk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out_file = tmp_path / "quale.json"
    assert run(capsys, "quale", str(doc), "--out", str(out_file)) == (0, "", "")
    _assert_no_child_process()
    assert max(walked.values()) == 1
    assert sorted(walked) in (list(range(1024)), list(range(2048)))


def _xor_of_y_and_z(u):
    yz = canonical_space({"y": BINARY, "z": BINARY})
    return lift_function(yz, canonical_space({u: BINARY}),
                         {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"})


def _late_non_surjective_system():
    """s0, ..., s6 feed t0 through a positive mechanism, and y and z feed u0
    and u1, each y xor z. The four y and z edges are the top bits of the
    2,048 masks, and only the subsystems holding all four (masks 1920 to
    2047) miss outputs of their glued mechanisms."""
    filler = _positive_random_system(random.Random(5), [f"s{i}" for i in range(7)], ["t0"])
    binary = {k: uniform(canonical_space({k: BINARY})) for k in "yz"}
    return SystemSpec(
        filler.occasions + tuple(Occasion(k, BINARY) for k in ("u0", "u1", "y", "z")),
        filler.edges | {(k, u) for k in "yz" for u in ("u0", "u1")},
        {**filler.mechanisms, "u0": _xor_of_y_and_z("u0"), "u1": _xor_of_y_and_z("u1")},
        {**filler.sources, **binary})


def _serial_error(spec, ranges):
    with pytest.raises(NotSurjective) as info:
        _write_quale(io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), spec,
                     sorted(spec.edges), ranges)
    _assert_no_child_process()
    return str(info.value)


def test_quale_failing_in_its_last_range_is_the_serial_failure(capsys, tmp_path):
    spec = _late_non_surjective_system()
    edges = sorted(spec.edges)
    doc = tmp_path / "late.json"
    save_system(spec, str(doc))
    ranges = _quale_ranges(2 ** len(edges))
    assert ranges[-1].start <= 1920
    line = f"error: NotSurjective: {_serial_error(spec, [range(2048)])}\n"
    assert "('y', 'u0'), ('y', 'u1'), ('z', 'u0'), ('z', 'u1')" in line

    out_file = tmp_path / "quale.json"
    out_file.write_bytes(b'{"previous": true}\n')
    for extra in ([], ["--out", str(out_file)]):
        assert run(capsys, "quale", str(doc), *extra) == (1, "", line)
        _assert_no_child_process()
    assert out_file.read_bytes() == b'{"previous": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["late.json", "quale.json"]


def test_quale_raises_the_error_of_the_first_failing_range():
    spec = _late_non_surjective_system()
    first = _serial_error(spec, [range(2048)])
    # two failing workers, the second failing at another subsystem: the
    # first one's error is the serial one
    assert _serial_error(spec, [range(1930, 2048)]) != first
    assert _serial_error(spec, [range(1000), range(1000, 1930), range(1930, 2048)]) == first
    # this process fails in its own range, and so does the worker after it
    assert _serial_error(spec, [range(1921), range(1921, 2048)]) == first


def test_quale_interrupted_in_its_own_range_leaves_no_worker():
    class Interrupted(io.StringIO):
        def write(self, text):
            if self.tell() > 10_000:
                raise KeyboardInterrupt
            return super().write(text)

    spec = _late_non_surjective_system()
    with pytest.raises(KeyboardInterrupt):
        _write_quale(Interrupted(), spec, sorted(spec.edges), _split(2048, 3))
    _assert_no_child_process()


def test_quale_worker_stops_when_its_parent_is_gone():
    spec = xor_system()
    with tempfile.TemporaryFile("w+", encoding="utf-8") as part:
        pid = os.fork()
        if pid == 0:  # a parent pid that is not this worker's
            try:
                _range_worker(part, lambda f, masks: write_sections(
                    f, sorted(spec.edges), _quale_rows(spec, sorted(spec.edges), masks)),
                    range(4), -1, set())
            finally:
                os._exit(3)
        for _ in range(1000):  # ten seconds at most
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 1


# a worker only saves time: the range of one that does not end well, or is
# never forked, is written by the process that runs _write_quale

def _worker_killed_by_a_signal(part, *args):
    part.write('    {\n      "subsystem": [')
    part.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_writing_junk(part, *args):
    part.write("not a section\n" * 1000)
    part.flush()
    os._exit(1)


@pytest.mark.parametrize("worker", [_worker_killed_by_a_signal, _worker_writing_junk],
                         ids=["killed", "junk"])
def test_quale_range_of_a_failed_worker_is_written_by_this_process(monkeypatch, worker):
    spec = _quale_11_system(monkeypatch)
    serial = _quale_text(spec, [range(2048)])
    late = _late_non_surjective_system()
    error = _serial_error(late, [range(2048)])
    monkeypatch.setattr("distmeas.cli._range_worker", worker)
    assert _quale_text(spec, _split(2048, 3)) == serial
    assert _serial_error(late, _split(2048, 3)) == error


def test_quale_range_that_cannot_be_forked_is_written_by_this_process(monkeypatch):
    spec = _quale_11_system(monkeypatch)
    serial = _quale_text(spec, [range(2048)])
    fork = os.fork
    for refused in ({1}, {1, 2}):
        calls = []

        def fork_under_a_process_limit():
            calls.append(None)
            if len(calls) in refused:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_under_a_process_limit)
        assert _quale_text(spec, _split(2048, 3)) == serial
        assert len(calls) == 2


# -- oracle-check in forked workers ---------------------------------------------------

# (tables, how many) of a sweep that two processes split unevenly, and of one
# whose tables are each crosschecked in fewer checks
ORACLE_SWEEPS = {
    "random-31": (functools.partial(random_tables, 3, 3, 3, 31, 5), 31),
    "exhaustive-2x2x3": (functools.partial(exhaustive_tables, 2, 2, 3), 81),
}


def _oracle_report(sweep, ranges):
    tables, _ = ORACLE_SWEEPS[sweep]
    report = _crosscheck_in_ranges(tables, ranges, sweep)
    _assert_no_child_process()
    return report


def _serial_report(sweep):
    return crosscheck(ORACLE_SWEEPS[sweep][0](), sweep)


def _misread_partial_ei(monkeypatch):
    """Make the oracle of ei(X.) read one bit too many on the tables whose
    first output is 0, so that their checks of it and of the relative-ei
    identity fail."""
    partial = oracle._partial

    def misread(g, c, axis):
        bits = partial(g, c, axis)
        if axis == 0 and g.outputs[0] == "0":
            return ExactBits(bits.radicand * 2 ** bits.root, bits.root)
        return bits

    monkeypatch.setattr(oracle, "_partial", misread)


def test_tables_of_a_range_are_the_generator_replayed_and_the_last_runs_to_its_end():
    ended = []

    def tables():
        yield from "abcde"
        ended.append(True)

    assert list(_tables_at(tables(), range(1, 3))) == ["b", "c"] and not ended
    assert list(_tables_at(tables(), range(3, 5))) == ["d", "e"] and ended


@pytest.mark.parametrize("mismatching", [False, True], ids=["agreeing", "mismatching"])
@pytest.mark.parametrize("sweep", sorted(ORACLE_SWEEPS))
def test_oracle_check_in_ranges_is_the_serial_report(monkeypatch, sweep, mismatching):
    if mismatching:
        _misread_partial_ei(monkeypatch)
    serial = _serial_report(sweep)
    assert serial.ok != mismatching
    count = ORACLE_SWEEPS[sweep][1]
    for n in (1, 2, 3):
        assert _oracle_report(sweep, _split(count, n)) == serial, n


@pytest.mark.parametrize("worker", [_worker_killed_by_a_signal, _worker_writing_junk],
                         ids=["killed", "junk"])
def test_oracle_check_range_of_a_failed_worker_is_written_by_this_process(monkeypatch, worker):
    _misread_partial_ei(monkeypatch)
    serial = _serial_report("random-31")
    monkeypatch.setattr("distmeas.cli._range_worker", worker)
    assert _oracle_report("random-31", _split(31, 3)) == serial


def test_oracle_check_range_that_cannot_be_forked_is_written_by_this_process(monkeypatch):
    serial = _serial_report("random-31")
    fork = os.fork
    for refused in ({1}, {1, 2}):
        calls = []

        def fork_under_a_process_limit():
            calls.append(None)
            if len(calls) in refused:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_under_a_process_limit)
        assert _oracle_report("random-31", _split(31, 3)) == serial
        assert len(calls) == 2


def test_oracle_check_raises_the_error_of_the_first_failing_range(monkeypatch):
    # the oracle fails on the tables whose first two outputs are 2: the
    # serial run raises at the first of them, and so does a run whose
    # workers each meet one
    classical = oracle._classical

    def failing(g, c):
        if g.outputs[:2] == ("2", "2"):
            raise UnknownSymbol(f"table {g.outputs}")
        return classical(g, c)

    monkeypatch.setattr(oracle, "_classical", failing)
    tables, _ = ORACLE_SWEEPS["random-31"]
    failing_at = [i for i, g in enumerate(tables()) if g.outputs[:2] == ("2", "2")]
    assert len(failing_at) >= 2 and failing_at[0] >= 10
    with pytest.raises(UnknownSymbol) as serial:
        crosscheck(tables())
    for ranges in (_split(31, 3), [range(failing_at[1]), range(failing_at[1], 31)]):
        with pytest.raises(UnknownSymbol) as ranged:
            _crosscheck_in_ranges(tables, ranges, "random-31")
        _assert_no_child_process()
        assert str(ranged.value) == str(serial.value)


def test_oracle_check_interrupted_in_its_own_range_leaves_no_worker(monkeypatch):
    parent = os.getpid()
    classical = oracle._classical

    def interrupted(g, c):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return classical(g, c)

    monkeypatch.setattr(oracle, "_classical", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _crosscheck_in_ranges(ORACLE_SWEEPS["random-31"][0], _split(31, 3), "random-31")
    _assert_no_child_process()


def _recording_cuts(monkeypatch):
    """The ranges of each _write_ranges call the commands make, in order."""
    cuts = []
    write_ranges = cli._write_ranges

    def recorded(fh, ranges, write_range):
        cuts.append(ranges)
        write_ranges(fh, ranges, write_range)

    monkeypatch.setattr(cli, "_write_ranges", recorded)
    return cuts


def test_oracle_check_forked_prints_the_serial_mismatches(capsys, monkeypatch):
    _misread_partial_ei(monkeypatch)
    cuts = _recording_cuts(monkeypatch)
    argv = ["oracle-check", "--exhaustive", "2x2x3", "--random", "31", "--seed", "5"]
    runs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        runs[len(cpus)] = run(capsys, *argv)
        _assert_no_child_process()
    assert cuts == [[range(81)], [range(31)],
                    [range(40), range(40, 81)], [range(15), range(15, 31)]]
    code, out, err = runs[1]
    assert runs[2] == runs[1]
    assert code == 1 and out.count("MISMATCHES") == 2
    assert err.count("\n") > 20 and "exact relative-ei identity broke" in err


def test_commands_cut_their_work_where_forking_pays(capsys, monkeypatch, tmp_path):
    # quale prices a range by its subsystems, oracle-check by its table
    # inputs, tables times NX*NY: both fork nothing below twice their
    # minimum per process
    assert (_SUBSYSTEMS_PER_WORKER, _TABLE_INPUTS_PER_WORKER) == (1024, 64)
    cuts = _recording_cuts(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    doc = tmp_path / "quale-11.json"
    save_system(_quale_11_system(monkeypatch), str(doc))
    for argv in (["quale", str(doc), "--out", str(tmp_path / "quale.json")],
                 ["quale", XOR],
                 ["oracle-check", "--random", "14"],
                 ["oracle-check", "--random", "15"],
                 ["oracle-check", "--random", "31", "--seed", "5"],
                 ["oracle-check", "--exhaustive", "2x2x2", "--random", "32", "--dims", "2x2x2"],
                 ["oracle-check", "--exhaustive", "2x2x3"]):
        assert run(capsys, *argv)[0] == 0
        _assert_no_child_process()
    assert cuts == [
        [range(1024), range(1024, 2048)],  # 2,048 subsystems
        [range(4)],
        [range(14)],  # 126 inputs
        [range(7), range(7, 15)],  # 135
        [range(10), range(10, 20), range(20, 31)],  # 279: one range per CPU
        [range(16)], [range(16), range(16, 32)],  # 64 and 128
        [range(27), range(27, 54), range(54, 81)],  # 324
    ]
