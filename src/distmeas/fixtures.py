"""Ready-made small systems used by tests, scripts and the oracle harness."""

from __future__ import annotations

from pathlib import Path

from .oracle import FunctionTable
from .stoch import BINARY, _deterministic, canonical_space, uniform
from .system import Occasion, SystemSpec


def _function_system(table: FunctionTable, inputs: tuple[str, ...], output: str) -> SystemSpec:
    """The system computing table at output from the uniform sources inputs,
    which sort in table order, so its outputs are in the domain's state order."""
    alphabets = dict(zip(inputs, table.factors))
    images = [table.codomain.index(v) for v in table.outputs]
    return SystemSpec(
        (*(Occasion(k, a) for k, a in alphabets.items()), Occasion(output, table.codomain)),
        frozenset((k, output) for k in inputs),
        {output: _deterministic(canonical_space(alphabets),
                                canonical_space({output: table.codomain}), images)},
        {k: uniform(canonical_space({k: a})) for k, a in alphabets.items()},
    )


def two_input_system(g: FunctionTable) -> SystemSpec:
    """The fan-in system vX -> vZ <- vY computing a two-input function."""
    if len(g.factors) != 2:
        raise ValueError("two_input_system needs a two-input table")
    return _function_system(g, ("vX", "vY"), "vZ")


def single_function_system(f: FunctionTable) -> SystemSpec:
    """The one-edge system vX -> vY computing a single-input function."""
    if len(f.factors) != 1:
        raise ValueError("single_function_system needs a one-input table")
    return _function_system(f, ("vX",), "vY")


def xor_table() -> FunctionTable:
    return FunctionTable((BINARY, BINARY), BINARY, ("0", "1", "1", "0"))


def and_table() -> FunctionTable:
    return FunctionTable((BINARY, BINARY), BINARY, ("0", "0", "0", "1"))


def xor_system() -> SystemSpec:
    return two_input_system(xor_table())


def and_system() -> SystemSpec:
    return two_input_system(and_table())


def data_path(name: str) -> str:
    """Path of a bundled example document (xor.json, and.json, bad-column.json)."""
    return str(Path(__file__).parent / "data" / name)
