#!/usr/bin/env python3
"""Build induced modules explicitly and inspect their structure.

Shows the generator matrices for a two-singleton parameter, checks the
defining relations and the central character, and extracts irreducible
quotients through the intertwiner to the reversed ordering: rank 1 at a
linked pair, full rank at an unlinked pair.
"""

from glhecke.heckemod import (
    build_standard_module,
    central_character_of_module,
    intertwiner_space,
    irreducible_quotient,
    module_to_json,
    reversed_ordering,
    verify_relations,
)
from glhecke.multisegments import parse_segments, steinberg_param
from glhecke.scalars import scalar_str


def show_matrix(name, entries, dim):
    """Print a row-major list of entry strings, one row per line."""
    print(f"  {name} =")
    for r in range(0, len(entries), dim):
        print("     [" + "  ".join(x.rjust(4) for x in entries[r : r + dim]) + "]")


def tour(text):
    ms = parse_segments(text)
    M = build_standard_module(ms)
    print(f"module for {text}: dimension {M.dim}")
    if M.dim <= 3:
        mats = module_to_json(M)
        for i, s in enumerate(mats["s"]):
            show_matrix(f"s_{i}", s, M.dim)
        for j, eps in enumerate(mats["eps"]):
            show_matrix(f"eps_{j}", eps, M.dim)
    print(f"  relations hold: {verify_relations(M)}")
    chi = central_character_of_module(M)
    print(f"  central character (multiset): {[scalar_str(c) for c in chi]}")
    d, mats = intertwiner_space(ms, reversed_ordering(ms))
    q = irreducible_quotient(ms)
    print(f"  intertwiner space dimension {d}; irreducible quotient dimension {q.dim}")
    print()


if __name__ == "__main__":
    tour("{1/2};{-1/2}")  # linked: quotient collapses to dimension 1
    tour("{3};{1}")       # unlinked: the module is already irreducible
    tour("{0,1};{-1,0}")  # two length-2 blocks, dimension 6, quotient 2
    st = steinberg_param(4)
    M = build_standard_module(st)
    print(f"length-4 block at 0: dimension {M.dim}, "
          f"weight {[scalar_str(c) for c in M.chi]}")
