"""Monomial ideals in a normal toric semigroup ring.

The ring k[S] for S = sigma ∩ Z^d is represented purely through its
exponent monoid; an ideal is stored as its unique minimal generating set
of exponent vectors, so equality is syntactic.  Membership of a
difference vector in S is an exact facet-inequality test (S is all of
sigma ∩ Z^d, so no Hilbert-basis recombination is needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientMismatchError, PointOutsideSemigroupError, ZeroIdealError
from .linalg import dot, vadd, vsub
from .polyhedral import (
    Cone,
    _minimal_elements,
    as_lattice_point,
    cone_from_rays,
    hilbert_basis,
    minimal_lattice_points,
    newton_polyhedron,
    scale_polyhedron,
    translate_polyhedron,
    polyhedron_from_hrep,
)


@dataclass(frozen=True)
class Semigroup:
    """S = cone ∩ Z^d with its cached Hilbert basis."""

    cone: Cone
    hilbert: tuple

    @classmethod
    def for_cone(cls, cone):
        return cls(cone, hilbert_basis(cone))

    @classmethod
    def from_rays(cls, rays):
        return cls.for_cone(cone_from_rays(rays))

    @property
    def dim(self):
        return self.cone.dim

    @property
    def origin(self):
        return (0,) * self.dim

    def contains(self, v):
        return self.cone.contains(v)

    def minimal_points(self, region, face=None):
        return minimal_lattice_points(region, self.cone, face=face)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its minimal sorted generator exponents; the
    zero ideal carries the flag and no generators, the unit ideal is
    generated by the origin."""

    ambient: Semigroup
    gens: tuple
    is_zero: bool

    def __post_init__(self):
        if self.is_zero and self.gens:
            raise ValueError("zero ideal cannot carry generators")

    @property
    def is_unit(self):
        return self.gens == (self.ambient.origin,)

    def contains(self, v):
        if self.is_zero:
            return False
        return any(self.ambient.contains(vsub(v, u)) for u in self.gens)

    def contains_ideal(self, other):
        _check_ambient(self, other)
        if other.is_zero:
            return True
        return all(self.contains(u) for u in other.gens)

    def sum(self, other):
        _check_ambient(self, other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return ideal_from_generators(self.ambient, self.gens + other.gens)

    __add__ = sum

    def product(self, other):
        _check_ambient(self, other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.ambient)
        pts = [vadd(u, v) for u in self.gens for v in other.gens]
        return ideal_from_generators(self.ambient, pts)

    __mul__ = product

    def intersection(self, other):
        """Exponents lying above a generator of each factor, assembled
        per generator pair through exact lattice point enumeration."""
        _check_ambient(self, other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.ambient)
        amb = self.ambient
        pts = []
        for u in self.gens:
            for v in other.gens:
                region = _upper_set_intersection(amb.cone, u, v)
                pts.extend(amb.minimal_points(region))
        return ideal_from_generators(amb, pts)

    __and__ = intersection

    def newton(self):
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no Newton region")
        return newton_polyhedron(self.gens, self.ambient.cone)

    def integral_closure(self):
        """Ideal of all lattice points of the Newton region; idempotent."""
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no integral closure")
        amb = self.ambient
        return ideal_from_generators(amb, amb.minimal_points(self.newton()))

    def closure_of_power(self, k):
        """Integral closure of the k-th power, read off the scaled Newton
        region rather than an expanded product."""
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no powers to close")
        if k < 1:
            raise ValueError("power must be a positive integer")
        amb = self.ambient
        region = scale_polyhedron(self.newton(), k)
        return ideal_from_generators(amb, amb.minimal_points(region))

    def shifted(self, d):
        """The translate x^d * I."""
        d = as_lattice_point(d, self.ambient.dim)
        if self.is_zero:
            return self
        return ideal_from_generators(self.ambient, [vadd(u, d) for u in self.gens])

    def __str__(self):
        return format_ideal(self)


def _check_ambient(a, b):
    if a.ambient != b.ambient:
        raise AmbientMismatchError("ideal operands live in different semigroup rings")


@lru_cache(maxsize=None)
def _upper_set_intersection(cone, u, v):
    rows = [(n, dot(n, u)) for n in cone.normals] + [(n, dot(n, v)) for n in cone.normals]
    return polyhedron_from_hrep(rows, cone.dim)


def ideal_from_generators(amb, pts):
    """Minimalize a generating set; empty input gives the zero ideal."""
    pts = [as_lattice_point(p, amb.dim) for p in pts]
    for p in pts:
        if not amb.contains(p):
            raise PointOutsideSemigroupError(f"exponent {p} lies outside the semigroup")
    if not pts:
        return zero_ideal(amb)
    return MonomialIdeal(amb, tuple(_minimal_elements(set(pts), amb.cone)), False)


def zero_ideal(amb):
    return MonomialIdeal(amb, (), True)


def unit_ideal(amb):
    return MonomialIdeal(amb, (amb.origin,), False)


def format_ideal(ideal):
    """Canonical serialization: the sorted generator list, '0' for zero."""
    if ideal.is_zero:
        return "0"
    return " ".join("(" + ",".join(str(c) for c in g) + ")" for g in ideal.gens)


_VARIABLES = ("x", "y", "z")


def monomial_string(v):
    """Readable x^i y^j string for exponent vectors in d <= 3."""
    if len(v) > len(_VARIABLES):
        raise ValueError("monomial strings are only rendered for dimension <= 3")
    if all(c == 0 for c in v):
        return "1"
    parts = []
    for name, c in zip(_VARIABLES, v):
        if c == 0:
            continue
        parts.append(name if c == 1 else f"{name}^{c}")
    return "".join(parts)
