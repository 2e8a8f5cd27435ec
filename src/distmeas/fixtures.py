"""Ready-made small systems used by tests, scripts and the oracle harness."""

from __future__ import annotations

from pathlib import Path

from .oracle import FunctionTable
from .stoch import BINARY, canonical_space, lift_function, uniform
from .system import Occasion, SystemSpec


def two_input_system(g: FunctionTable) -> SystemSpec:
    """The fan-in system vX -> vZ <- vY computing a two-input function."""
    if len(g.factors) != 2:
        raise ValueError("two_input_system needs a two-input table")
    nx, ny, nz = "vX", "vY", "vZ"
    ax, ay = g.factors
    az = g.codomain
    domain = canonical_space({nx: ax, ny: ay})
    codomain = canonical_space({nz: az})
    # vX sorts before vY, so a joint input lists x then y, as g takes them
    mapping = {joint: g.value(joint) for joint in domain.iter_symbols()}
    return SystemSpec(
        (Occasion(nx, ax), Occasion(ny, ay), Occasion(nz, az)),
        frozenset({(nx, nz), (ny, nz)}),
        {nz: lift_function(domain, codomain, mapping)},
        {nx: uniform(canonical_space({nx: ax})),
         ny: uniform(canonical_space({ny: ay}))},
    )


def single_function_system(f: FunctionTable) -> SystemSpec:
    """The one-edge system vX -> vY computing a single-input function."""
    if len(f.factors) != 1:
        raise ValueError("single_function_system needs a one-input table")
    nx, ny = "vX", "vY"
    ax, ay = f.factors[0], f.codomain
    domain = canonical_space({nx: ax})
    codomain = canonical_space({ny: ay})
    mapping = {joint: f.value(joint) for joint in domain.iter_symbols()}
    return SystemSpec(
        (Occasion(nx, ax), Occasion(ny, ay)),
        frozenset({(nx, ny)}),
        {ny: lift_function(domain, codomain, mapping)},
        {nx: uniform(domain)},
    )


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
