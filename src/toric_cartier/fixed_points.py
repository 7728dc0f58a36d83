"""Enumeration of all fixed ideals through face geometry.

An ideal is fixed by the twisted operator (paired with a coefficient
ideal power) exactly when it is a sum of face ideals of the shifted
Newton region base + t*Newt(a), with base = w/(1-p^e): for each face F,
the face ideal J_F collects the semigroup points in the relative
interiors of all faces containing F.

The lattice of these sums has a direct description.  Let Q be the set of
faces whose relative interior holds a point of S = sigma ∩ Z^d.  The
fixed ideals are exactly the sets  I_U = ∪_{G in U} (relint G ∩ S)  for
the up-closed subsets U of Q, and distinct U give distinct ideals.  So
the fixed ideals form the distributive lattice of up-sets of Q
(Birkhoff's representation theorem), and their number is the number of
antichains of Q.  The top face always lies in Q.

Proof sketch.  The region has recession cone sigma, so for x in relint G
and s in S the point x + s lies in the relative interior of some face
G' ⊇ G, and G' is in Q because it holds that point; hence each union
over an up-set is an ideal.  The face ideal J_F is the union over
up(F) ∩ Q, and every up-set is the union of the principal up-sets of
its members, so the sums of face ideals are exactly the unions over
up-sets.  Relative interiors are disjoint, so distinct up-sets give
distinct ideals.

The enumeration therefore walks the up-sets of Q along a linear
extension instead of closing face ideals under sums; faces and up-sets
are handled as bitmasks over face indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartier import CartierData, TripleData
from .errors import AllFixedIdealsZeroError, TooManyFacesError
from .ideals import MonomialIdeal, Semigroup, ideal_from_generators, zero_ideal
from .polyhedral import (
    Face,
    FaceLattice,
    Polyhedron,
    as_rational_vector,
    face_lattice,
    translate_polyhedron,
)

MAX_FACES = 64


@dataclass(frozen=True)
class ShiftedNewton:
    """The polytope P = t*Newt(a), its base point, and the face lattice
    of the shifted region base + P."""

    ambient: Semigroup
    polytope: Polyhedron
    base: tuple
    shifted: Polyhedron
    faces: FaceLattice

    @classmethod
    def from_base(cls, ambient, base, polytope):
        base = as_rational_vector(base, ambient.dim)
        shifted = translate_polyhedron(polytope, base)
        lattice = face_lattice(shifted)
        if len(lattice) > MAX_FACES:
            raise TooManyFacesError(f"face lattice has {len(lattice)} faces, cap is {MAX_FACES}")
        return cls(ambient, polytope, base, shifted, lattice)

    @classmethod
    def from_triple(cls, tr: TripleData):
        return cls.from_base(tr.ambient, tr.cartier.base_point, tr.newton_region())

    @classmethod
    def from_cartier(cls, c: CartierData):
        return cls.from_base(c.ambient, c.base_point, c.ambient.cone.as_polyhedron())


@dataclass(frozen=True)
class FixedIdealRecord:
    """One fixed ideal with a reduced generating set of faces (removing
    any face changes the sum) and a canonical label."""

    ideal: MonomialIdeal
    generating_faces: tuple
    label: str


@lru_cache(maxsize=None)
def _relint_ideal(sn, face_index):
    """Ideal generated by the semigroup points in the relative interior
    of one shifted face."""
    face = sn.faces.faces[face_index]
    pts = sn.ambient.minimal_points(sn.shifted, face=face)
    return ideal_from_generators(sn.ambient, pts)


@lru_cache(maxsize=None)
def face_ideal(sn, face):
    """Sum of the relative-interior ideals over all faces containing the
    given one (itself included); possibly zero on lower faces, never on
    the top face."""
    if isinstance(face, Face):
        face_index = face.index
    else:
        face_index = face
        face = sn.faces.faces[face_index]
    pts = []
    for sup in sn.faces.superfaces(face):
        pts.extend(_relint_ideal(sn, sup.index).gens)
    return ideal_from_generators(sn.ambient, pts)


@lru_cache(maxsize=None)
def _face_poset(sn):
    """The poset Q as a bitmask over face indices, and per face F its
    up-mask up_Q(F): the members of Q containing F."""
    count = len(sn.faces)
    q = sum(1 << i for i in range(count) if not _relint_ideal(sn, i).is_zero)
    up = [0] * count
    for i, j in sn.faces.order:
        up[i] |= 1 << j
    return q, tuple(m & q for m in up)


def _union_ideal(sn, mask):
    """The ideal of the semigroup points in the relative interiors of the
    faces in the mask."""
    pts = []
    for i in range(len(sn.faces)):
        if mask >> i & 1:
            pts.extend(_relint_ideal(sn, i).gens)
    return ideal_from_generators(sn.ambient, pts)


def _up_sets(sn):
    """Every up-closed subset of Q as a bitmask.  Members of Q are decided
    one at a time along a linear extension, larger faces first; a face may
    join only once every larger member of Q has joined, so each up-set is
    reached exactly once."""
    q, up = _face_poset(sn)
    order = sorted((i for i in range(len(up)) if q >> i & 1), key=lambda i: -sn.faces.faces[i].dim)

    def walk(k, chosen):
        if k == len(order):
            yield chosen
            return
        i = order[k]
        yield from walk(k + 1, chosen)
        if not up[i] & ~chosen & ~(1 << i):
            yield from walk(k + 1, chosen | 1 << i)

    return walk(0, 0)


def _roman(n):
    out = []
    for value, glyph in ((1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
                         (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I")):
        while n >= value:
            out.append(glyph)
            n -= value
    return "".join(out)


def _reduced_faces(sn, up_set):
    """A minimal set of faces whose face ideals sum to the ideal of the
    up-set.  The candidates are the faces F with up_Q(F) ⊆ U; in face
    order, each is dropped when the others still cover U."""
    _, up = _face_poset(sn)
    chosen = [i for i, m in enumerate(up) if not m & ~up_set]
    for i in list(chosen):
        rest = [j for j in chosen if j != i]
        covered = 0
        for j in rest:
            covered |= up[j]
        if covered == up_set:
            chosen = rest
    return tuple(chosen)


@lru_cache(maxsize=None)
def enumerate_fixed(sn):
    """Every fixed ideal, one per up-set of Q, plus the zero ideal (the
    empty up-set), in canonical order."""
    found = sorted(((_union_ideal(sn, u), u) for u in _up_sets(sn) if u), key=lambda pair: pair[0].gens)
    records = [FixedIdealRecord(zero_ideal(sn.ambient), (), "0")]
    for k, (ideal, up_set) in enumerate(found, start=1):
        records.append(FixedIdealRecord(ideal, _reduced_faces(sn, up_set), _roman(k)))
    return tuple(records)


def fixed_ideals(sn):
    return tuple(r.ideal for r in enumerate_fixed(sn))


def smallest_nonzero_fixed(sn):
    """The top-face ideal J_top, the ideal of the smallest nonempty up-set
    {top}: the unique smallest nonzero fixed ideal (the test-ideal
    analogue)."""
    smallest = face_ideal(sn, sn.faces.top)
    if smallest.is_zero:
        raise AllFixedIdealsZeroError("top face carries no semigroup points")
    return smallest


def largest_fixed(sn):
    """The ideal of all of Q: the largest fixed ideal (the non-LC
    analogue, and the stable image of the operator for a pair)."""
    return _union_ideal(sn, _face_poset(sn)[0])


@dataclass(frozen=True)
class Decomposition:
    """Result of decomposing an ideal into face data; ``faces`` is None
    exactly when the ideal is not fixed, and then the witness explains
    why (a generator outside the shifted region, or a relative-interior
    point the ideal misses)."""

    faces: tuple | None
    witness: tuple | None
    detail: str

    @property
    def is_fixed(self):
        return self.faces is not None


def decompose_fixed(sn, ideal):
    """Assign each generator its unique relative-interior face and check
    that the ideal of the union of their up-masks gives the ideal back."""
    if ideal.is_zero:
        return Decomposition((), None, "zero ideal is fixed by convention")
    _, up = _face_poset(sn)
    picked = []
    up_set = 0
    for v in ideal.gens:
        face = sn.faces.relint_face_of(v)
        if face is None:
            return Decomposition(None, v, f"generator {v} lies outside the shifted region")
        if face.index not in picked:
            picked.append(face.index)
        up_set |= up[face.index]
    total = _union_ideal(sn, up_set)
    if total != ideal:
        missing = next(g for g in total.gens if not ideal.contains(g))
        return Decomposition(None, missing, f"relative-interior point {missing} is missing from the ideal")
    return Decomposition(tuple(sorted(picked)), None, "fixed")
