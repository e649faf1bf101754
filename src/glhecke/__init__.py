"""Exact combinatorics of GL(n,R) parameters and graded Hecke algebra modules.

The package computes, over exact Gaussian-rational arithmetic:

* relative discrete series parameters with dominance, levels, and
  enumeration at an integral infinitesimal character (:mod:`.realparams`);
* segments, multisegments, dominant orderings, and central characters
  (:mod:`.multisegments`);
* the level-k map from real parameters to multisegments, the dimension
  formula, and the block-by-block weight identity (:mod:`.levelmap`);
* a brute-force O(2)/O(1) branching oracle for the dimension formula
  (:mod:`.branching`);
* explicit induced modules for the graded Hecke algebra of gl(k), relation
  verification, central characters, intertwiners, and irreducible quotients
  (:mod:`.heckemod`);
* signed involutions with block moves and the multisegment-to-orbit map
  (:mod:`.orbits`).
"""

from .branching import SGN, TRIV, V, hom_multiplicity, tensor_o2, tensor_power_standard
from .heckemod import (
    QuotientModule,
    StandardModule,
    build_standard_module,
    central_character_of_module,
    intertwiner_space,
    irreducible_quotient,
    verify_relations,
)
from .levelmap import (
    dimension_std,
    eigenvalue_identity,
    factor_order_image,
    gamma,
    verify_bijection_level_n,
    w_structure,
)
from .multisegments import (
    Multisegment,
    Segment,
    central_character,
    dominant_representative,
    enumerate_multisegments,
    is_dominant_ms,
    parse_segments,
    steinberg_param,
)
from .orbits import (
    BlockStructure,
    OrbitClass,
    SignedInvolution,
    StructuralError,
    build_diagram,
    flatten_diagram,
    orbit_class,
    psi_g,
    verify_injectivity,
    verify_psi_wellposed,
)
from .realparams import (
    GL1Factor,
    GL2Factor,
    RealParam,
    canonical_class,
    enumerate_real_params,
    is_dominant,
    parse_factors,
)
from .scalars import Scalar, parse_scalar, scalar_str

__version__ = "0.1.0"
