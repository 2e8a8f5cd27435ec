"""JSON document formats.

System documents::

    {
      "format_version": 1,
      "occasions": [{"id": "vX", "alphabet": ["0", "1"]}, ...],
      "edges": [["vX", "vZ"], ["vY", "vZ"]],
      "mechanisms": {
        "vZ": {"sources": ["vX", "vY"],
               "table": [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]]}
      },
      "sources": {"vX": ["1/2", "1/2"], "vY": ["1/2", "1/2"]}
    }

A mechanism's table is column-major: table[j] is the output distribution for
the j-th joint input, where inputs run in mixed-radix order over the listed
sources with the FIRST listed source most significant. Sources may be listed
in any order; the loader permutes columns into the canonical id-sorted order.
Rationals are written "num/den" strings; integers and exact decimal strings
are accepted on input. Ids and symbols are JSON strings, and every list shown
is a JSON array. An occasion or cell id is nonempty, has no whitespace at
either end and holds none of the characters of _RESERVED, which the CLI
splits its text forms on or DOT would need to escape.

Automaton documents::

    {
      "format_version": 1,
      "cells": ["a", "b", "c"],
      "alphabet": ["0", "1"],
      "neighborhoods": {"a": ["c", "a", "b"], ...},   # or [["c", 2], ...] for lag 2
      "rules": {"a": {"kind": "life"}
                     | {"kind": "table", "table": {"0,0,0": "0", ...}}
                     | {"kind": "hopfield", "weights": ["1", "-1"], "temperature": "1"}
                     | {"0": {"kind": "life"}, "1": {"kind": "table", ...}}},  # by time
      "window": [0, 1],
      "initial": {"a": "1", "b": {"distribution": ["1/2", "1/2"]}}
    }

Table keys are comma-joined symbols in neighborhood order. Life rules take
the cell's own position in its neighborhood as the self slot. Lags and window
bounds are JSON integers. A rule by time is keyed by times written in ASCII
digits with an optional "-", and each of its values is a rule with a kind.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Any

from .errors import DocumentError, InvalidAutomaton, NonStochastic
from .stoch import (
    Distribution,
    ProductSpace,
    _check_unit_sum,
    _restriction_table,
    _trusted_matrix,
    alphabet,
    canonical_space,
    rational,
)
from .system import (
    AutomatonSpec,
    Occasion,
    SystemSpec,
    _check_rule_inputs,
    _integer,
    automaton,
    hopfield_rule,
    life_rule,
)

FORMAT_VERSION = 1


def format_rational(value: Fraction) -> Any:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _json_array(items: list[str], indent: int) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    out an array that opens at the given indent."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def write_quale(fh, write_body) -> None:
    """Write the quale document to fh, write_body(fh) writing its sections
    as write_sections writes them, beginning with the null subsystem's.

    The text is that of json.dumps(doc, indent=2) plus a newline for
    doc = {"format_version": ..., "sections": [...]}, each section being
    {"subsystem": ["src-trg", ...], "outputs": [...], "inputs": [...],
    "matrix": [[format_rational(entry), ...] per column]}, but no more than
    one section is held at a time.
    """
    fh.write('{\n  "format_version": %d,\n  "sections": [' % FORMAT_VERSION)
    write_body(fh)
    fh.write("\n  ]\n}\n")


def write_sections(fh, edges, glued) -> None:
    """Write the text of each section glued yields, (mask, output space,
    input space, rows, row sums) as lattice._quale_rows yields them, to fh,
    each after a newline, and after a comma too unless its mask is 0: the
    null subsystem's section is the quale's first.
    Column i of a section is rows[i] over row_sums[i]; bit i of the mask
    stands for edges[i] (sorted, so the mask's bits in increasing order are
    the subsystem's pairs in sorted order). Each pair's name and each
    space's id array is encoded once.
    """
    encode = json.JSONEncoder().encode  # what json.dumps(v) runs, ensure_ascii included
    names = [encode(f"{a}-{b}") for a, b in edges]
    ids: dict[tuple[str, ...], str] = {}

    def id_array(space) -> str:
        text = ids.get(space.factor_ids)
        if text is None:
            text = ids[space.factor_ids] = _json_array(list(map(encode, space.factor_ids)), 6)
        return text

    for mask, outputs, inputs, rows, row_sums in glued:
        pairs = [names[i] for i in range(mask.bit_length()) if mask >> i & 1]
        # entries in lowest terms: an int when the denominator reduces to 1
        matrix = [
            _json_array([str(n // g) if (g := gcd(n, t)) == t else f'"{n // g}/{t // g}"'
                         for n in row], 8)
            for row, t in zip(rows, row_sums)]
        sep = ",\n" if mask else "\n"
        fh.write(f'{sep}    {{\n'
                 f'      "subsystem": {_json_array(pairs, 6)},\n'
                 f'      "outputs": {id_array(outputs)},\n'
                 f'      "inputs": {id_array(inputs)},\n'
                 f'      "matrix": {_json_array(matrix, 6)}\n'
                 '    }')


# "n" or "n/d" in ASCII digits, as documents write probabilities
_PLAIN_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _parse_rational(value: Any, where: str) -> Fraction:
    """rational(value), with a DocumentError naming where in place of its
    errors. A value whose numerator or denominator has more digits than
    str() may print (sys.get_int_max_str_digits; "1e5000" has them) is
    refused here, not in the message or the output that would print it."""
    try:
        if type(value) is bool:  # Fraction reads True and False as 1 and 0
            raise TypeError("a boolean is not a rational")
        if type(value) is str and (plain := _PLAIN_RATIONAL.fullmatch(value)):
            n, d = plain.groups()  # int() refuses too many digits itself
            if d is None:
                return Fraction(int(n))
            if d := int(d):
                return Fraction(int(n), d)
        fraction = rational(value)
        str(fraction)  # ValueError past the digit limit
        return fraction
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise DocumentError(f"bad rational {value!r} in {where}: {exc}") from None


def system_to_document(spec: SystemSpec) -> dict:
    occasions = [
        {"id": o.id, "alphabet": list(o.alphabet.symbols)}
        for o in sorted(spec.occasions, key=lambda o: o.id)]
    edges = [list(e) for e in sorted(spec.edges)]
    mechanisms = {}
    for occ_id in sorted(spec.mechanisms):
        m = spec.mechanisms[occ_id]
        mechanisms[occ_id] = {
            "sources": list(m.domain.factor_ids),
            "table": [[format_rational(v) for v in col] for col in m.cols],
        }
    sources = {
        occ_id: [format_rational(w) for w in spec.sources[occ_id].weights]
        for occ_id in sorted(spec.sources)}
    return {
        "format_version": FORMAT_VERSION,
        "occasions": occasions,
        "edges": edges,
        "mechanisms": mechanisms,
        "sources": sources,
    }


# what each character an id may not hold stands for in the CLI's text forms
# and the DOT it writes, where ids are quoted without escapes
_RESERVED = {
    "-": "joins the ids of a pair",
    ",": "separates pairs, partition members and lattice keys",
    "|": "separates partition blocks",
    "=": "separates an occasion from its symbol in --output",
    '"': "quotes ids in DOT",
    "\\": "escapes in DOT",
}

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    """The JSON type of a decoded value, as errors name it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _array(value, where: str) -> list:
    """value, which a document must give as a JSON array at where."""
    if type(value) is not list:
        raise DocumentError(f"{where} must be an array, not {_json_type(value)}")
    return value


def _string(value, where: str) -> str:
    """value, which a document must give as a JSON string at where."""
    if type(value) is not str:
        raise DocumentError(f"{where} must be a string, not {_json_type(value)}")
    return value


def _strings(value, where: str) -> list[str]:
    """value, which a document must give as a JSON array of strings at where."""
    for item in _array(value, where):
        _string(item, f"each entry of {where}")
    return value


def _check_ids(ids, what: str) -> None:
    """Refuse an id the CLI cannot address: an empty one, one with
    whitespace at either end (the CLI strips it), or one holding a
    character of _RESERVED."""
    for i in ids:
        if not i or i != i.strip():
            raise DocumentError(
                f"{what} id {i!r} must be nonempty, without whitespace at either end")
        for c, role in _RESERVED.items():
            if c in i:
                raise DocumentError(f"{what} id {i!r} must not contain {c!r}, which {role}")


def system_from_document(doc: dict) -> SystemSpec:
    if not isinstance(doc, dict):
        raise DocumentError("system document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        occasions = []
        for o in _array(doc["occasions"], "'occasions'"):
            o_id = _string(o["id"], "an occasion id")
            occasions.append(
                Occasion(o_id, alphabet(_strings(o["alphabet"], f"the alphabet of {o_id!r}"))))
        edge_list = [tuple(_strings(e, "an edge"))
                     for e in _array(doc["edges"], "'edges'")]
        mech_docs = doc.get("mechanisms", {})
        source_docs = doc.get("sources", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed system document: {exc}") from None
    _check_ids((o.id for o in occasions), "occasion")
    for e in edge_list:
        if len(e) != 2:
            raise DocumentError(f"an edge must be two occasion ids, not {len(e)}: {list(e)}")
    for key, value in (("mechanisms", mech_docs), ("sources", source_docs)):
        if not isinstance(value, dict):
            raise DocumentError(f"{key!r} must be a JSON object keyed by occasion id")

    alpha = {o.id: o.alphabet for o in occasions}
    # one parsed column per distinct column text (the tuple of its entries),
    # for every mechanism: unrolled automata repeat a few columns many times
    texts: dict[tuple, tuple[Fraction, ...]] = {}
    mechanisms = {}
    for occ_id, mdoc in mech_docs.items():
        try:
            listed = _strings(mdoc["sources"], f"the sources of the mechanism for {occ_id!r}")
            table = mdoc["table"]
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"malformed mechanism for {occ_id!r}: {exc}") from None
        for s in listed + [occ_id]:
            if s not in alpha:
                raise DocumentError(f"mechanism for {occ_id!r} references unknown occasion {s!r}")
        if len(set(listed)) != len(listed):
            raise DocumentError(f"mechanism for {occ_id!r} lists a source twice: {listed}")
        if not isinstance(table, list) or not all(isinstance(col, list) for col in table):
            raise DocumentError(
                f"mechanism for {occ_id!r} needs a table that is a list of columns, "
                "each a list of rationals")
        listed_space = ProductSpace(tuple((s, alpha[s]) for s in listed))
        if len(table) != listed_space.dim:
            raise DocumentError(
                f"mechanism for {occ_id!r} has {len(table)} columns, expected {listed_space.dim}")
        listed_cols = []
        unchecked = set()  # listed indices of the column texts first parsed here
        for j, col in enumerate(table):
            try:
                parsed = texts.get(key := tuple(col))
            except TypeError:  # an unhashable entry: parsed, and refused, on its own
                key = parsed = None
            if parsed is None:
                parsed = tuple(_parse_rational(v, f"mechanism {occ_id!r} column {j}") for v in col)
                unchecked.add(j)
                if key is not None:
                    texts[key] = parsed
            listed_cols.append(parsed)
        # every column is parsed before any is checked, so a document error
        # in a mechanism comes before a domain error in it
        rows = len(alpha[occ_id])
        for j, col in enumerate(listed_cols):
            if len(col) != rows:
                raise NonStochastic(
                    f"mechanism {occ_id!r} column {j} has {len(col)} rows, expected {rows}")
            if j in unchecked:
                _check_unit_sum(col, "negative entry {0} in mechanism {1!r} column {2}",
                                "mechanism {1!r} column {2} sums to {0}, not 1", occ_id, j)
        canonical = canonical_space({s: alpha[s] for s in listed})
        cols = [None] * canonical.dim
        # listed column j is canonical column to_canonical[j]
        to_canonical = _restriction_table(listed_space, canonical)
        for j, col in enumerate(listed_cols):
            cols[to_canonical[j]] = col
        mechanisms[occ_id] = _trusted_matrix(
            canonical, canonical_space({occ_id: alpha[occ_id]}), tuple(cols))

    sources = {}
    for occ_id, weights in source_docs.items():
        if occ_id not in alpha:
            raise DocumentError(f"source distribution for unknown occasion {occ_id!r}")
        if not isinstance(weights, list):
            raise DocumentError(f"source distribution for {occ_id!r} must be a list of rationals")
        values = tuple(_parse_rational(w, f"source {occ_id!r}") for w in weights)
        if len(values) != len(alpha[occ_id]):
            raise NonStochastic(
                f"source {occ_id!r} has {len(values)} weights, expected {len(alpha[occ_id])}")
        _check_unit_sum(values, "negative weight {0} in source {1!r}",
                        "source {1!r} weights sum to {0}, not 1", occ_id)
        sources[occ_id] = Distribution(canonical_space({occ_id: alpha[occ_id]}), values)

    return SystemSpec(tuple(occasions), frozenset(edge_list), mechanisms, sources)


def _read_json(path: str) -> Any:
    """The JSON value in the file at path, read as UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, too many digits
            raise DocumentError(f"{path}: invalid JSON: {exc}") from None


def load_system(path: str) -> SystemSpec:
    return system_from_document(_read_json(path))


def save_system(spec: SystemSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_document(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def automaton_from_document(doc: dict) -> AutomatonSpec:
    if not isinstance(doc, dict):
        raise DocumentError("automaton document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {doc.get('format_version')!r}")
    for key in ("alphabets", "neighborhoods", "rules", "initial"):
        if not isinstance(doc.get(key, {}), dict):
            raise DocumentError(f"{key!r} must be a JSON object keyed by cell")
    try:
        cells = _strings(doc["cells"], "'cells'")
        shared = alphabet(_strings(doc.get("alphabet", ["0", "1"]), "'alphabet'"))
        alphabets = {c: shared for c in cells}
        for c, symbols in doc.get("alphabets", {}).items():
            alphabets[c] = alphabet(_strings(symbols, f"the alphabet of cell {c!r}"))
        neighborhoods = {
            c: [_neighbor(n, c) for n in _array(nbrs, f"the neighborhood of cell {c!r}")]
            for c, nbrs in doc["neighborhoods"].items()}
        window = _array(doc["window"], "'window'")
        if len(window) != 2:
            raise DocumentError(f"'window' must be [start, end], not {window!r}")
        window = (_integer(window[0], "window start", DocumentError),
                  _integer(window[1], "window end", DocumentError))
        rule_docs = doc["rules"]
        init_docs = doc["initial"]
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed automaton document: {exc}") from None
    _check_ids(cells, "cell")

    rules = {}
    for cell, rdoc in rule_docs.items():
        cell = str(cell)
        nbrs = neighborhoods.get(cell, [])
        rules[cell] = _rule_from_document(cell, rdoc, nbrs)

    initial = {}
    for cell, idoc in init_docs.items():
        if isinstance(idoc, dict):
            weights = idoc.get("distribution")
            if not isinstance(weights, list):
                raise DocumentError(f"initial for {cell!r} must be a symbol or a distribution list")
            if str(cell) not in alphabets:
                raise DocumentError(f"initial distribution for unknown cell {cell!r}")
            space = canonical_space({"init": alphabets[str(cell)]})
            initial[str(cell)] = Distribution(
                space, tuple(_parse_rational(w, f"initial {cell!r}") for w in weights))
        else:
            initial[str(cell)] = _string(idoc, f"the initial symbol of cell {cell!r}")

    return automaton(cells, neighborhoods, rules, window, initial, alphabets)


def _neighbor(n, cell: str):
    """A neighbor of cell as the document gives it: an id, or an array of an
    id and an integer lag."""
    if type(n) is not list:
        return _string(n, f"a neighbor of cell {cell!r}")
    if len(n) != 2:
        raise DocumentError(f"a lagged neighbor of cell {cell!r} must be [id, lag], not {n!r}")
    return (_string(n[0], f"a neighbor of cell {cell!r}"),
            _integer(n[1], f"lag of {n[0]!r} for cell {cell!r}", DocumentError))


# a time of a rule by time, in ASCII digits: str.isdigit also accepts
# superscript digits, which int() refuses
_TIME_KEY = re.compile(r"-?[0-9]+")


def _rule_from_document(cell, rdoc, nbrs):
    """One rule, or a rule per time when every key of rdoc is a time. Each
    rule has a kind, so a rule per time holds no rules per time."""
    if isinstance(rdoc, dict) and rdoc and all(_TIME_KEY.fullmatch(k) for k in rdoc):
        rules, keys = {}, {}
        for t, sub in rdoc.items():
            try:
                time = int(t)
            except ValueError:  # more digits than int() reads
                raise DocumentError(
                    f"rule for {cell!r} has a {len(t)}-character time key") from None
            if time in keys:  # such as "1" and "01", or "0" and "-0"
                raise DocumentError(
                    f"rule for {cell!r} has time keys {keys[time]!r} and {t!r} for time {time}")
            keys[time] = t
            if not isinstance(sub, dict) or "kind" not in sub:
                raise DocumentError(f"rule for {cell!r} at time {time} needs a 'kind'")
            rules[time] = _rule_from_document(cell, sub, nbrs)
        return rules
    if not isinstance(rdoc, dict) or "kind" not in rdoc:
        raise DocumentError(f"rule for {cell!r} needs a 'kind'")
    kind = rdoc["kind"]
    if kind == "life":
        self_positions = [i for i, n in enumerate(nbrs)
                          if (n if isinstance(n, str) else n[0]) == cell]
        if not self_positions:
            raise DocumentError(f"life rule for {cell!r} needs the cell in its own neighborhood")
        _check_rule_inputs(cell, [2] * len(nbrs))  # an entry per binary input
        return life_rule(len(nbrs), self_index=self_positions[0])
    if kind == "table":
        # a key joins one symbol per neighbor with ","; a cell without
        # neighbors has one joint input, the empty key ""
        try:
            return {
                tuple(k.split(",")) if nbrs or k != "" else ():
                    _string(v, f"the table rule value at {k!r} for {cell!r}")
                for k, v in rdoc["table"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise DocumentError(f"malformed table rule for {cell!r}: {exc}") from None
    if kind == "hopfield":
        try:
            weight_docs = rdoc["weights"]
            temperature = _parse_rational(rdoc["temperature"], f"hopfield temperature of {cell!r}")
        except KeyError as exc:
            raise DocumentError(f"hopfield rule for {cell!r} missing {exc}") from None
        if not isinstance(weight_docs, list):
            raise DocumentError(f"hopfield weights of {cell!r} must be a list of rationals")
        weights = [_parse_rational(w, f"hopfield weights of {cell!r}") for w in weight_docs]
        snap = _parse_rational(rdoc.get("snap_denominator", 10 ** 12),
                               f"hopfield snap_denominator of {cell!r}")
        if snap.denominator != 1:
            raise DocumentError(f"hopfield snap_denominator of {cell!r} must be an integer, not {snap}")
        if len(weights) != len(nbrs):
            raise InvalidAutomaton(
                f"rule arity of {cell!r} does not match neighborhood size {len(nbrs)}")
        _check_rule_inputs(cell, [2] * len(nbrs))  # a column per binary input
        return hopfield_rule(weights, temperature, int(snap))
    raise DocumentError(f"unknown rule kind {kind!r} for {cell!r}")


def load_distribution(path: str, space) -> Distribution:
    """Read {"weights": [...]} over the given space, mixed-radix order."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "weights" not in doc:
        raise DocumentError(f"{path}: expected an object with a 'weights' list")
    weights = doc["weights"]
    if not isinstance(weights, list):
        raise DocumentError(f"{path}: 'weights' must be a list of rationals")
    if len(weights) != space.dim:
        raise DocumentError(f"{path}: {len(weights)} weights for a {space.dim}-state space")
    return Distribution(space, tuple(_parse_rational(w, path) for w in weights))
