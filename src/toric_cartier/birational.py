"""Intermediate adjoint ideals through closed lattice formulas.

Everything resolution-theoretic enters only through its toric closed
form: the non-LC ideal of a shifted Newton region, the perturbation that
realizes one face ideal as a non-LC ideal of a slightly bigger boundary,
and the full set of intermediate adjoint ideals assembled per face.  No
resolution is ever computed, and no characteristic is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NoStabilizationError
from .fixed_points import ShiftedNewton, _relint_ideal
from .ideals import ideal_from_generators, unit_ideal, zero_ideal
from .linalg import vadd, vscale, vsub
from .polyhedral import (
    as_rational_vector,
    minkowski_sum,
    scale_polyhedron,
    translate_polyhedron,
)

PERTURBATION_CAP = 2**20


def non_lc_ideal(amb, base, a_ideal, t, b_ideal=None, s=0):
    """Ideal of semigroup points v with v - base inside
    t*Newt(a) + s*Newt(b): the maximal non-LC ideal of the data."""
    base = as_rational_vector(base, amb.dim)
    t, s = Fraction(t), Fraction(s)
    if t < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    if b_ideal is None:
        b_ideal = unit_ideal(amb)
    region = scale_polyhedron(a_ideal.newton(), t)
    if not (b_ideal.is_unit and s == 0):
        region = minkowski_sum(region, scale_polyhedron(b_ideal.newton(), s))
    region = translate_polyhedron(region, base)
    return ideal_from_generators(amb, amb.minimal_points(region))


def _relint_point(sn, face):
    """A canonical rational point in the relative interior of a shifted
    face: the vertex barycenter pushed along the recession generators."""
    verts = [sn.shifted.vertices[i] for i in sorted(face.vertex_ids)]
    rays = [sn.shifted.recession.rays[j] for j in sorted(face.ray_ids)]
    center = tuple(sum(col) / len(verts) for col in zip(*verts))
    for r in rays:
        center = vadd(center, r)
    return center


def face_ideal_via_perturbation(sn, face):
    """Realize one face ideal as a perturbed non-LC ideal.

    With a in the relative interior of the face of the polytope and n'a
    integral, the points v with v - base - (n'/n)a in the polytope cut
    out the face ideal once n is large; stabilization across two
    consecutive doublings is required before accepting.  The stabilized
    ideal is returned as found; comparing it with the face ideal is left
    to the caller.
    """
    a = vsub(_relint_point(sn, face), sn.base)
    nprime = lcm(*(Fraction(c).denominator for c in a)) if any(a) else 1

    def at(n):
        shift = vadd(sn.base, vscale(Fraction(nprime, n), a))
        region = translate_polyhedron(sn.polytope, shift)
        return ideal_from_generators(sn.ambient, sn.ambient.minimal_points(region))

    n = 1
    current, middle = at(1), at(2)
    while n * 4 <= PERTURBATION_CAP:
        last = at(n * 4)
        if current == middle == last:
            return current
        n, current, middle = n * 2, middle, last
    raise NoStabilizationError(f"perturbation did not stabilize below n = {PERTURBATION_CAP}")


def _sum_closure(seeds):
    """Close a list of ideals under pairwise sums: exactly the sums over
    non-empty subsets, since ideal sum is idempotent."""
    found = set(seeds)
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in found.copy():
                s = a + b
                if s not in found:
                    found.add(s)
                    fresh.append(s)
        frontier = fresh
    return found


def intermediate_adjoint_set(amb, base, a_ideal=None, t=0):
    """The full set of intermediate adjoint ideals, assembled per face:
    the single-face relative-interior ideals, their per-face sums over
    superfaces, and all sums of those; the zero ideal is appended."""
    t = Fraction(t)
    if a_ideal is None:
        a_ideal = unit_ideal(amb)
    polytope = scale_polyhedron(a_ideal.newton(), t)
    sn = ShiftedNewton.from_base(amb, base, polytope)
    per_face = []
    for face in sn.faces.faces:
        total = zero_ideal(amb)
        for sup in sn.faces.superfaces(face):
            total = total + _relint_ideal(sn, sup.index)
        per_face.append(total)
    ideals = {i for i in _sum_closure(per_face) if not i.is_zero}
    ideals.add(zero_ideal(amb))
    return tuple(sorted(ideals, key=lambda i: (not i.is_zero, i.gens)))
