#!/usr/bin/env python3
"""Step through the column/arc/flip construction on a 12-point example.

The weight (4,4,3,3,3,3,2,2,2,1,1,0) gives five columns of parities; the
multisegment {0..4};{1,2,3};{2};{3};{3};{4} joins its two long segments as
arcs, flipping one fresh sign in each strictly intermediate column because
both endpoint columns have even parity.  All flattenings of the result,
and all choice orders, land in a single block-move equivalence class.
"""

from glhecke.multisegments import parse_segments
from glhecke.orbits import (
    build_diagram,
    flatten_diagram,
    initial_diagram,
    make_involution,
    orbit_class,
    psi_g,
    render_diagram,
    render_involution,
)

LAM = (4, 4, 3, 3, 3, 3, 2, 2, 2, 1, 1, 0)
TAU = "{0,1,2,3,4};{1,2,3};{2};{3};{3};{4}"

if __name__ == "__main__":
    tau = parse_segments(TAU)
    print(f"weight   {LAM}")
    print(f"segments {TAU}\n")
    print("columns before any segment is processed (even -> +, odd -> -):")
    print(render_diagram(initial_diagram(LAM)), "\n")

    diagram = build_diagram(tau, LAM)
    print("after joining both long segments (arc labels mark the endpoints):")
    print(render_diagram(diagram), "\n")

    sigma = flatten_diagram(diagram)
    print("one flattening:", render_involution(sigma))
    print("signature (p, q) =", sigma.signature())

    cls = orbit_class(sigma, diagram.blocks())
    print(f"\nits block-move class has {cls.size} members;"
          f" canonical representative:")
    print("  ", render_involution(cls.canonical))

    other = make_involution(
        12, [(1, 11), (2, 10)],
        {0: "+", 3: "-", 4: "+", 5: "-", 6: "-", 7: "-", 8: "+", 9: "+"},
    )
    print("\na different flattening of the same columns:")
    print("  ", render_involution(other))
    print("same class:", other in psi_g(tau, LAM))
