"""Exact polyhedral geometry: pointed rational cones, polyhedra with a
recession cone, face lattices, relative interiors, Hilbert bases and
minimal lattice point enumeration.

Conventions.  The ambient lattice has a fixed dimension d (small desk
scale, d <= 4).  All cones are pointed and full-dimensional; every
polyhedron is full-dimensional with a pointed full-dimensional recession
cone.  H-representations are stored as jointly primitive integer rows
(a, b) meaning <a, x> >= b, sorted lexicographically, and V-representations
list extreme vertices and primitive extreme rays only, so equality of
cones and polyhedra is syntactic.  Converting between the two
descriptions goes through homogenization to a cone in dimension d + 1.
One exact sweep over the kernels of (d-1)-subsets of the given
description computes the other one, and a rank filter then makes the
given description irredundant: a generator is an extreme ray, and an
inequality a facet, exactly when it is tight on a rank d-1 subset of the
computed description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as _cartesian
from math import ceil, floor, lcm

from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    EmptyRegionError,
    NegativeScaleError,
    NotFullDimensionalError,
    NotPointedError,
    PointOutsideSemigroupError,
    UnboundedMinimalSetError,
)
from .linalg import as_fractions, dot, primitive, vadd, vscale, vsub

# Exponent vectors are plain tuples: ints for lattice points, Fractions
# for rational vectors.
LatticePoint = tuple
RationalVector = tuple

# minimal_lattice_points: initial box padding in Hilbert-basis spans,
# number of box expansions, and the largest box it scans
_MARGIN = 2
_MAX_EXPAND = 12
_BOX_CAP = 2_000_000


def as_lattice_point(v, dim=None):
    pt = linalg.as_integers(v)
    if dim is not None and len(pt) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got point {pt}")
    return pt


def as_rational_vector(v, dim=None):
    vec = as_fractions(v)
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got vector {vec}")
    return vec


def iter_box(lower, upper):
    """All integer points x with lower <= x <= upper componentwise."""
    return _cartesian(*(range(lo, hi + 1) for lo, hi in zip(lower, upper)))


def _extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {x : <r, x> >= 0 for all r in rows}.

    Every extreme ray is tight on a rank d-1 subset of rows, so kernels
    of (d-1)-subsets sweep all candidates.
    """
    seen = set()
    for idx in combinations(range(len(rows)), dim - 1):
        ker = linalg.kernel_basis([rows[i] for i in idx], dim)
        if len(ker) != 1:
            continue
        v = primitive(ker[0])
        if all(dot(r, v) >= 0 for r in rows):
            seen.add(v)
        elif all(dot(r, v) <= 0 for r in rows):
            seen.add(linalg.vneg(v))
    return sorted(seen)


def _tight_members(gens, duals, dim):
    """Members of gens tight on a rank dim-1 subset of duals.

    With duals the facet normals of the cone gens generate, these are
    its extreme rays; with gens the inequality rows of a cone and duals
    its extreme rays, they are its facets.  Either way the result is a
    subset of the input."""
    return sorted({g for g in gens if linalg.rank([h for h in duals if dot(h, g) == 0]) == dim - 1})


def _positive_functional(cone):
    # strictly positive on cone minus the origin since the cone is pointed
    return tuple(sum(col) for col in zip(*cone.normals))


def _minimal_elements(points, cone):
    """The sorted members of points with no other member below them in
    the order of cone (y - x in cone), pruned greedily in increasing
    order of a functional positive on cone; a repeated point is pruned
    as lying below itself."""
    ell = _positive_functional(cone)
    mins = []
    for x in sorted(points, key=lambda x: (dot(ell, x), x)):
        if not any(cone.contains(vsub(x, b)) for b in mins):
            mins.append(x)
    return sorted(mins)


@dataclass(frozen=True)
class Cone:
    """Pointed full-dimensional rational cone with both descriptions.

    ``rays`` are the primitive extreme generators, ``normals`` the
    primitive inward facet normals; the two are cross-validated at
    construction and each is the other's dual description.
    """

    dim: int
    rays: tuple
    normals: tuple

    def contains(self, x):
        return all(dot(n, x) >= 0 for n in self.normals)

    def as_polyhedron(self):
        origin = (Fraction(0),) * self.dim
        return polyhedron_from_generators([origin], self)


def cone_from_rays(rays):
    """Build a Cone from generators, rejecting non-pointed or lower
    dimensional input."""
    if not rays:
        raise EmptyGeneratorsError("a cone needs at least one generating ray")
    dim = len(rays[0])
    prim = []
    for r in rays:
        if len(r) != dim:
            raise DimensionMismatchError(f"ray {tuple(r)} does not have dimension {dim}")
        if linalg.is_zero(r):
            raise EmptyGeneratorsError("zero vector is not a valid ray")
        prim.append(primitive(r))
    # pointed <=> the origin is not a convex combination of the rays
    rows = [tuple(r[i] for r in prim) for i in range(dim)] + [(1,) * len(prim)]
    rhs = [0] * dim + [1]
    witness = linalg.nonneg_solve(rows, rhs)
    if witness is not None:
        support = [prim[j] for j, c in enumerate(witness) if c != 0]
        raise NotPointedError(f"cone contains a line: rays {support} admit a vanishing positive combination")
    if linalg.rank(prim) != dim:
        basis = [tuple(b) for b in linalg.row_space_basis(prim)]
        raise NotFullDimensionalError(f"rays span only the subspace with basis {basis}")
    normals = tuple(_extreme_rays(prim, dim))
    if linalg.rank(normals) != dim:
        line = linalg.kernel_basis(normals, dim)[0]
        raise NotPointedError(f"cone contains the line through {primitive(line)}")
    return Cone(dim, tuple(_tight_members(prim, normals, dim)), normals)


def dual_cone(c):
    """Swap the two descriptions; an involution on pointed full-dimensional cones."""
    return Cone(c.dim, c.normals, c.rays)


@lru_cache(maxsize=None)
def hilbert_basis(cone):
    """Minimal generating set of the monoid cone ∩ Z^d.

    Every irreducible element lies in the zonotope spanned by the
    primitive extreme rays, so enumerating that box and greedily pruning
    reducible points (in increasing order of a strictly positive
    functional) yields the basis.
    """
    dim = cone.dim
    lower = [sum(min(r[k], 0) for r in cone.rays) for k in range(dim)]
    upper = [sum(max(r[k], 0) for r in cone.rays) for k in range(dim)]
    zero = (0,) * dim
    cands = [x for x in iter_box(lower, upper) if x != zero and cone.contains(x)]
    return tuple(_minimal_elements(cands, cone))


@dataclass(frozen=True)
class Polyhedron:
    """conv(vertices) + recession cone, with canonical facet inequalities."""

    dim: int
    vertices: tuple
    recession: Cone
    hrep: tuple  # rows ((a_1..a_d), b) meaning <a, x> >= b

    def contains(self, x):
        return all(dot(a, x) >= b for a, b in self.hrep)


def _hom_to_polyhedron(hom_normals, ext, dim, recession=None):
    """Assemble the canonical polyhedron from the facet normals and the
    extreme rays of its homogenization cone in dimension d + 1; the
    recession cone is read off the rays at infinity unless given."""
    verts = sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in ext if r[-1] > 0)
    if not verts:
        raise EmptyRegionError("H-representation has no feasible point")
    if recession is None:
        recession = cone_from_rays(sorted(r[:-1] for r in ext if r[-1] == 0))
    hrep = sorted((row[:-1], -row[-1]) for row in hom_normals if not linalg.is_zero(row[:-1]))
    return Polyhedron(dim, tuple(verts), recession, tuple(hrep))


def polyhedron_from_generators(points, recession):
    """conv(points) + recession, homogenized to a pointed cone in d + 1
    and dualized there; vertices of the result are a subset of points."""
    if not points:
        raise EmptyGeneratorsError("a polyhedron needs at least one point")
    dim = recession.dim
    hom_rays = sorted(
        {primitive(as_rational_vector(p, dim) + (Fraction(1),)) for p in points}
        | {r + (0,) for r in recession.rays}
    )
    hom_normals = _extreme_rays(hom_rays, dim + 1)
    ext = _tight_members(hom_rays, hom_normals, dim + 1)
    return _hom_to_polyhedron(hom_normals, ext, dim, recession)


def polyhedron_from_hrep(rows, dim):
    """Canonical polyhedron for inequality rows (a, b), a·x >= b.

    Input rows may be redundant and rationally scaled; the facets are the
    rows left by the rank filter against the computed extreme rays.
    """
    hom = sorted({primitive(tuple(a) + (-Fraction(b),)) for a, b in rows} | {(0,) * dim + (1,)})
    ext = _extreme_rays(hom, dim + 1)
    return _hom_to_polyhedron(_tight_members(hom, ext, dim + 1), ext, dim)


def newton_polyhedron(generators, sigma):
    """conv(generators) + sigma for exponent vectors inside sigma."""
    if not generators:
        raise EmptyGeneratorsError("Newton region of the zero ideal is undefined")
    pts = [as_lattice_point(g, sigma.dim) for g in generators]
    for g in pts:
        if not sigma.contains(g):
            raise PointOutsideSemigroupError(f"generator {g} lies outside the cone")
    return polyhedron_from_generators(pts, sigma)


def scale_polyhedron(p, c):
    """Scale by a nonnegative rational; scaling by zero yields the
    recession cone (the power-zero convention)."""
    c = Fraction(c)
    if c < 0:
        raise NegativeScaleError(f"cannot scale a polyhedron by {c}")
    if c == 0:
        return p.recession.as_polyhedron()
    return polyhedron_from_generators([vscale(c, v) for v in p.vertices], p.recession)


def translate_polyhedron(p, vec):
    vec = as_rational_vector(vec, p.dim)
    return polyhedron_from_generators([vadd(v, vec) for v in p.vertices], p.recession)


def minkowski_sum(p, q):
    """Pointwise sum; vertices of the result are among pairwise vertex sums."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension {p.dim} vs {q.dim}")
    recession = cone_from_rays(sorted(set(p.recession.rays) | set(q.recession.rays)))
    pts = [vadd(v, w) for v in p.vertices for w in q.vertices]
    return polyhedron_from_generators(pts, recession)


@dataclass(frozen=True)
class Face:
    """A face of a polyhedron, recorded through its incidences.

    ``active_facets`` is the full set of facet inequalities tight on the
    face; the improper face (the whole polyhedron) has an empty active
    set.  ``affine_point`` plus ``affine_basis`` span the affine hull.
    """

    index: int
    dim: int
    active_facets: frozenset
    vertex_ids: frozenset
    ray_ids: frozenset
    affine_point: tuple
    affine_basis: tuple


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polyhedron, closed under intersection, with the
    containment partial order as (sub, super) index pairs."""

    polyhedron: Polyhedron
    faces: tuple
    order: frozenset

    def __len__(self):
        return len(self.faces)

    @property
    def top(self):
        return next(f for f in self.faces if not f.active_facets)

    def superfaces(self, face):
        """Faces containing the given face, itself included."""
        return tuple(self.faces[j] for i, j in sorted(self.order) if i == face.index)

    def subfaces(self, face):
        return tuple(self.faces[i] for i, j in sorted(self.order) if j == face.index)

    def relint_face_of(self, x):
        """The unique face whose relative interior holds x, or None when
        x is outside the polyhedron."""
        if not self.polyhedron.contains(x):
            return None
        for f in self.faces:
            if relint_contains(self.polyhedron, f, x):
                return f
        raise AssertionError("face partition failed to classify a member point")


@lru_cache(maxsize=None)
def face_lattice(p):
    """Enumerate every face of p (vertices through the improper face).

    Faces are intersections of facets; each is identified by the set of
    vertices and recession rays it contains, a complete invariant for
    pointed polyhedra.
    """
    verts, rays = p.vertices, p.recession.rays
    inc = []
    for a, b in p.hrep:
        vt = frozenset(i for i, v in enumerate(verts) if dot(a, v) == b)
        rt = frozenset(j for j, r in enumerate(rays) if dot(a, r) == 0)
        inc.append((vt, rt))
    top = (frozenset(range(len(verts))), frozenset(range(len(rays))))
    found = {top} | {pair for pair in inc if pair[0]}
    frontier = list(found)
    while frontier:
        fresh = []
        for v1, r1 in frontier:
            for v2, r2 in inc:
                v, r = v1 & v2, r1 & r2
                if v and (v, r) not in found:
                    found.add((v, r))
                    fresh.append((v, r))
        frontier = fresh
    entries = []
    for vs, rs in found:
        active = frozenset(i for i, (vt, rt) in enumerate(inc) if vs <= vt and rs <= rt)
        anchor = verts[min(vs)]
        dirs = [vsub(verts[i], anchor) for i in sorted(vs) if i != min(vs)]
        dirs += [as_fractions(rays[j]) for j in sorted(rs)]
        basis = tuple(tuple(b) for b in linalg.row_space_basis(dirs)) if dirs else ()
        entries.append((len(basis), tuple(sorted(vs)), tuple(sorted(rs)), active, anchor, basis))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    faces = tuple(
        Face(i, d, active, frozenset(vs), frozenset(rs), anchor, basis)
        for i, (d, vs, rs, active, anchor, basis) in enumerate(entries)
    )
    order = frozenset(
        (f.index, g.index)
        for f in faces
        for g in faces
        if f.vertex_ids <= g.vertex_ids and f.ray_ids <= g.ray_ids
    )
    return FaceLattice(p, faces, order)


def relint_contains(p, face, x):
    """Membership of x in the relative interior of a face: the active
    inequalities hold with equality, every other inequality strictly.
    For a vertex this reduces to equality with the vertex itself."""
    for i, (a, b) in enumerate(p.hrep):
        s = dot(a, x)
        if i in face.active_facets:
            if s != b:
                return False
        elif s <= b:
            return False
    return True


def supporting_functional(p, face):
    """A functional (a, b) with <a, x> = b exactly on the face and
    <a, x> >= b on p: the sum of the active facet rows."""
    rows = [p.hrep[i] for i in sorted(face.active_facets)]
    if not rows:
        return (0,) * p.dim, 0
    a = tuple(sum(col) for col in zip(*(r[0] for r in rows)))
    return a, sum(r[1] for r in rows)


def minimal_lattice_points(region, amb, face=None):
    """Minimal generators of the lattice points of a region inside the
    semigroup amb ∩ Z^d.

    A point m qualifies when no other point m' of the region with
    m - m' in amb exists.  With ``face`` given, membership means lying in
    the relative interior of that face of ``region`` instead of closed
    membership.  The box-and-stabilize strategy: enumerate a box anchored
    at the (face) vertices, extend it so that every possible dominator of
    an enumerated point is itself enumerated (making the pruning exact),
    then grow the box until the answer survives one expansion.
    """
    dim = region.dim
    hb = hilbert_basis(amb)
    ell = _positive_functional(amb)

    if face is not None:
        anchors = [region.vertices[i] for i in sorted(face.vertex_ids)]
        dirs = [region.recession.rays[j] for j in sorted(face.ray_ids)]
    else:
        anchors = list(region.vertices)
        dirs = list(region.recession.rays)
    # lattice points on a lower-dimensional face recur with a period
    # governed by the anchor denominators; closed full-dimensional
    # regions have points near every anchor already
    if face is not None and face.dim < dim:
        denom = lcm(*(Fraction(c).denominator for a in anchors for c in a))
    else:
        denom = 1
    pad = [max(_MARGIN * max(abs(h[k]) for h in hb), 1) for k in range(dim)]

    def member(x):
        if not amb.contains(x):
            return False
        if face is not None:
            return relint_contains(region, face, x)
        return region.contains(x)

    bounded = face is not None and not dirs
    prev = None
    for k in range(1, _MAX_EXPAND + 1):
        lower = [floor(min(a[i] for a in anchors)) - k * pad[i] for i in range(dim)]
        upper = [ceil(max(a[i] for a in anchors)) + k * pad[i] for i in range(dim)]
        extent = 4 * k * denom
        for r in dirs:
            for i in range(dim):
                if r[i] > 0:
                    upper[i] += extent * r[i]
                elif r[i] < 0:
                    lower[i] += extent * r[i]
        if _box_volume(lower, upper) > _BOX_CAP:
            raise UnboundedMinimalSetError(f"enumeration box exceeded {_BOX_CAP} points before stabilizing")
        result = _minimal_elements((x for x in iter_box(lower, upper) if member(x)), amb)
        if result:
            # widen so every possible dominator of a candidate minimal
            # point (an amb point below its level in the positive
            # functional) is itself enumerated: pruning becomes exact
            level = max(dot(ell, x) for x in result)
            before = (tuple(lower), tuple(upper))
            for ray in amb.rays:
                corner = vscale(Fraction(level, dot(ell, ray)), ray)
                for i in range(dim):
                    lower[i] = min(lower[i], floor(corner[i]))
                    upper[i] = max(upper[i], ceil(corner[i]))
            if (tuple(lower), tuple(upper)) != before:
                if _box_volume(lower, upper) > _BOX_CAP:
                    raise UnboundedMinimalSetError(f"enumeration box exceeded {_BOX_CAP} points before stabilizing")
                result = _minimal_elements((x for x in iter_box(lower, upper) if member(x)), amb)
        if bounded:
            return result
        if prev is not None and result == prev:
            return result
        prev = result
    raise UnboundedMinimalSetError(f"minimal set failed to stabilize after {_MAX_EXPAND} box expansions")


def _box_volume(lower, upper):
    vol = 1
    for lo, hi in zip(lower, upper):
        vol *= max(hi - lo + 1, 0)
    return vol
