#!/usr/bin/env python3
"""Full measurement portrait of a two-input gate.

For each output symbol: the precision of the joint reading, of each partial
reading, the relative readings, and the entanglement across the input split,
all computed twice (matrix pipeline and counting oracle) and printed side by
side.

Usage:
    python scripts/gate_portrait.py            # XOR and AND
    python scripts/gate_portrait.py 0 1 1 1    # any 2x2 table, row-major
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from distmeas.entangle import entanglement, partition_of
from distmeas.fixtures import and_table, two_input_system, xor_table
from distmeas.lattice import subsystem, top
from distmeas.measure import effective_information, system_output_space
from distmeas.oracle import (
    FunctionTable,
    ei_classical,
    ei_partial,
    ei_relative,
    gamma_counts,
)
from distmeas.stoch import BINARY, alphabet, dirac


def portrait(name, g):
    spec = two_input_system(g)
    whole = top(spec)
    xe = subsystem(spec, [("vX", "vZ")])
    ye = subsystem(spec, [("vY", "vZ")])
    part = partition_of([["vX"], ["vY"]])
    print(f"\n{name}  (outputs {', '.join(g.attained())})")
    print(f"{'z':>3} {'ei(XY)':>10} {'ei(X.)':>10} {'ei(.Y)':>10} "
          f"{'ei(X.->XY)':>11} {'gamma':>10} {'oracle':>10}")
    for z in g.attained():
        d_out = dirac(system_output_space(spec), (z,))
        ei_top = effective_information(spec, whole, None, d_out)
        ei_x = effective_information(spec, xe, None, d_out)
        ei_y = effective_information(spec, ye, None, d_out)
        rel = effective_information(spec, whole, xe, d_out)
        gamma = entanglement(spec, whole, part, d_out).gamma_bits
        print(f"{z:>3} {ei_top:10.5f} {ei_x:10.5f} {ei_y:10.5f} "
              f"{rel:11.5f} {gamma:10.5f} {gamma_counts(g, z).bits:10.5f}")
        assert abs(ei_top - ei_classical(g, z).bits) < 1e-9
        assert abs(ei_x - ei_partial(g, z, 0).bits) < 1e-9
        assert abs(ei_y - ei_partial(g, z, 1).bits) < 1e-9
        assert abs(rel - ei_relative(g, z, 0).bits) < 1e-9
        assert abs(gamma - gamma_counts(g, z).bits) < 1e-9


def main(argv):
    if len(argv) == 5:
        outputs = tuple(argv[1:])
        codomain = alphabet(sorted(set(outputs)))
        gates = [("custom", FunctionTable((BINARY, BINARY), codomain, outputs))]
    else:
        gates = [("XOR", xor_table()), ("AND", and_table())]
    for name, g in gates:
        portrait(name, g)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
