"""Exact fixed-ideal computations on affine toric rings.

Given a pointed full-dimensional rational cone sigma (the exponent
monoid of the ring), a prime power p^e, a twist vector w (or boundary
divisor data), and optionally a monomial coefficient ideal to a rational
power t, this package enumerates every ideal fixed by the associated
twisted trace operator, computes the matching multiplier-type and
non-LC-type ideals from the shifted Newton region, and verifies all of
it against independent brute-force oracles.  Every computation is in
exact rational arithmetic.
"""

from .birational import (
    face_ideal_via_perturbation,
    intermediate_adjoint_set,
    non_lc_ideal,
)
from .cartier import (
    CartierData,
    DivisorData,
    TripleData,
    admissible_period,
    cartier_operator,
    cartier_step,
    divisor_to_w,
    phi_on_ideal,
    phi_on_monomial,
    stable_image,
    twisted_stable_image,
    w_to_divisor,
)
from .errors import ToricError
from .fixed_points import (
    Decomposition,
    FixedIdealRecord,
    ShiftedNewton,
    decompose_fixed,
    enumerate_fixed,
    face_ideal,
    fixed_ideals,
    largest_fixed,
    smallest_nonzero_fixed,
)
from .ideals import (
    MonomialIdeal,
    Semigroup,
    format_ideal,
    ideal_from_generators,
    monomial_string,
    unit_ideal,
    zero_ideal,
)
from .instance import InstanceConfig, build_triple, parse_instance, serialize_instance
from .oracle import (
    BoxSpec,
    Report,
    Verdict,
    brute_force_enumerate,
    cross_validate,
    verify_fixed,
)
from .polyhedral import (
    Cone,
    Face,
    FaceLattice,
    Polyhedron,
    cone_from_rays,
    dual_cone,
    face_lattice,
    hilbert_basis,
    minimal_lattice_points,
    minkowski_sum,
    newton_polyhedron,
    relint_contains,
    scale_polyhedron,
    translate_polyhedron,
)

__version__ = "0.1.0"
