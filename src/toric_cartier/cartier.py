"""Twisted trace operators on a toric semigroup ring and the divisor
dictionary.

The canonical splitting sends x^m to x^{m/q} (q = p^e) when the exponent
divides and to zero otherwise; twisting by a lattice vector w gives
phi(x^u) = x^{(u-w)/q}.  On ideals the operator acts exactly, dropping
any image exponent that falls outside the semigroup, which matches the
combinatorial fixed-ideal lattice even when the associated divisor fails
to be effective (effectivity is computed and exposed, never enforced).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    AmbientMismatchError,
    InadmissibleExponentError,
    IndexNotCoprimeError,
    NoStabilizationError,
    NotPrincipalError,
    PDividesDenominatorError,
    PointOutsideSemigroupError,
    ZeroIdealError,
)
from .ideals import MonomialIdeal, Semigroup, ideal_from_generators, unit_ideal, zero_ideal
from .linalg import dot, vscale, vsub
from .polyhedral import (
    as_lattice_point,
    polyhedron_from_hrep,
    scale_polyhedron,
)

_MAX_ITER = 64


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CartierData:
    """The operator x^u -> x^{(u-w)/p^e} on k[S]."""

    p: int
    e: int
    w: tuple
    ambient: Semigroup

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1:
            raise ValueError("e must be a positive integer")
        object.__setattr__(self, "w", as_lattice_point(self.w, self.ambient.dim))

    @property
    def q(self):
        return self.p ** self.e

    @property
    def base_point(self):
        """w / (1 - p^e), the anchor of every shifted region."""
        return tuple(Fraction(c, 1 - self.q) for c in self.w)

    @property
    def is_well_defined(self):
        """Whether the operator maps the whole ring into itself, i.e. the
        associated divisor is effective: <w, n> <= p^e - 1 per facet."""
        return all(dot(self.w, n) <= self.q - 1 for n in self.ambient.cone.normals)

    def iterate(self, n):
        """The n-fold composite: exponent e*n, twist w * (q^n-1)/(q-1)."""
        if n < 1:
            raise InadmissibleExponentError("iterate count must be positive")
        factor = (self.q**n - 1) // (self.q - 1)
        return CartierData(self.p, self.e * n, vscale(factor, self.w), self.ambient)


def phi_on_monomial(c, u):
    """Image exponent of x^u, or None when the operator kills it (either
    non-divisible or falling outside the semigroup)."""
    u = as_lattice_point(u, c.ambient.dim)
    num = vsub(u, c.w)
    if any(a % c.q for a in num):
        return None
    m = tuple(a // c.q for a in num)
    return m if c.ambient.contains(m) else None


@lru_cache(maxsize=None)
def _phi_gen_minimal(c, u):
    # minimal exponents m in S with q*m + w - u in S: the region
    # ((u - w) + sigma)/q meets sigma
    cone = c.ambient.cone
    shift = vsub(u, c.w)
    rows = [(n, 0) for n in cone.normals]
    rows += [(vscale(c.q, n), dot(n, shift)) for n in cone.normals]
    region = polyhedron_from_hrep(rows, cone.dim)
    return c.ambient.minimal_points(region)


def phi_on_ideal(c, ideal):
    """The ideal generated by all surviving images of monomials of the input."""
    if ideal.ambient != c.ambient:
        raise AmbientMismatchError("ideal does not live in the operator's ring")
    if ideal.is_zero:
        return ideal
    pts = []
    for u in ideal.gens:
        pts.extend(_phi_gen_minimal(c, u))
    return ideal_from_generators(c.ambient, pts)


def admissible_period(t, p, e):
    """Least n >= 1 with t(p^{en} - 1) integral: the multiplicative order
    of p^e modulo the denominator of t."""
    t = Fraction(t)
    den = t.denominator
    if den % p == 0:
        raise PDividesDenominatorError(
            f"t = {t} has p = {p} in its denominator, so no iterate pairs with an integral power"
        )
    if den == 1:
        return 1
    q = pow(p, e, den)
    n, cur = 1, q
    while cur != 1:
        cur = cur * q % den
        n += 1
    return n


@dataclass(frozen=True)
class TripleData:
    """Operator data (p, e, w) together with a coefficient ideal to a
    rational power t; iterates pair with integrally closed powers of the
    coefficient ideal at exponents that are multiples of the period."""

    cartier: CartierData
    a_ideal: MonomialIdeal
    t: Fraction
    period: int

    @classmethod
    def create(cls, cartier, a_ideal=None, t=0):
        t = Fraction(t)
        if t < 0:
            raise ValueError("t must be nonnegative")
        if a_ideal is None:
            a_ideal = unit_ideal(cartier.ambient)
        if a_ideal.ambient != cartier.ambient:
            raise AmbientMismatchError("coefficient ideal lives in a different ring")
        if a_ideal.is_zero:
            raise ZeroIdealError("the coefficient ideal must be nonzero")
        period = admissible_period(t, cartier.p, cartier.e)
        return cls(cartier, a_ideal, t, period)

    @property
    def ambient(self):
        return self.cartier.ambient

    @property
    def is_pair(self):
        return self.t == 0 or self.a_ideal.is_unit

    def is_admissible(self, n):
        return n > 0 and n % self.period == 0

    def admissible_up_to(self, limit):
        return tuple(range(self.period, limit + 1, self.period))

    def newton_region(self):
        """t * Newt(a); degenerates to the ambient cone for a pair."""
        return _triple_region(self)


@lru_cache(maxsize=None)
def _triple_region(tr):
    return scale_polyhedron(tr.a_ideal.newton(), tr.t)


@lru_cache(maxsize=None)
def _step_gen_minimal(tr, u, n):
    # minimal m in S with q_n*m + w_n - u inside the scaled Newton region
    # (exponent set of the closed power times the principal part at u)
    c = tr.cartier
    qn = c.q**n
    wn = vscale((qn - 1) // (c.q - 1), c.w)
    k = tr.t * (qn - 1)
    region_rows = [(nrm, 0) for nrm in tr.ambient.cone.normals]
    scaled = scale_polyhedron(tr.a_ideal.newton(), k)
    shift = vsub(u, wn)
    for a, b in scaled.hrep:
        region_rows.append((vscale(qn, a), b + dot(a, shift)))
    region = polyhedron_from_hrep(region_rows, tr.ambient.dim)
    return tr.ambient.minimal_points(region)


def cartier_step(tr, ideal, n):
    """One graded piece: phi^n( closure(a^{t(q^n - 1)}) * I ), computed
    through the composite region so large powers never materialize."""
    if not tr.is_admissible(n):
        raise InadmissibleExponentError(f"n = {n} is not a positive multiple of the period {tr.period}")
    if ideal.is_zero:
        return ideal
    pts = []
    for u in ideal.gens:
        pts.extend(_step_gen_minimal(tr, u, n))
    return ideal_from_generators(tr.ambient, pts)


def cartier_operator(tr, ideal, limit):
    """Sum of the graded pieces over admissible exponents up to the limit."""
    if limit < tr.period:
        raise InadmissibleExponentError(f"limit {limit} is below the period {tr.period}")
    total = zero_ideal(tr.ambient)
    for n in tr.admissible_up_to(limit):
        total = total + cartier_step(tr, ideal, n)
    return total


def stable_image(c):
    """Fixed point of iterating the operator on the unit ideal: the
    largest fixed ideal.  The chain descends, and stabilization is
    witnessed by exact ideal equality."""
    current = unit_ideal(c.ambient)
    for _ in range(_MAX_ITER):
        nxt = phi_on_ideal(c, current)
        if nxt == current:
            return current
        current = nxt
    raise NoStabilizationError(f"image chain did not stabilize within {_MAX_ITER} iterations")


def twisted_stable_image(c, d, n):
    """Stable image of psi(x) = phi^n(x^d * x); for n past stabilization
    the result is fixed for the original operator."""
    d = as_lattice_point(d, c.ambient.dim)
    if not c.ambient.contains(d):
        raise PointOutsideSemigroupError(f"twist monomial exponent {d} lies outside the semigroup")
    it = c.iterate(n)
    psi = CartierData(c.p, c.e * n, vsub(it.w, d), c.ambient)
    return stable_image(psi)


@dataclass(frozen=True)
class DivisorData:
    """Rational coefficients along the prime invariant divisors, ordered
    like the cone's (sorted) facet normals."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(Fraction(c) for c in self.coefficients))

    @property
    def is_effective(self):
        return all(c >= 0 for c in self.coefficients)


def divisor_to_w(sigma, delta, p, e, require_effective=False):
    """Solve <w, n_i> = (1 - p^e)(d_i - 1) across the facets: the twist
    vector whose operator realizes the given boundary divisor.

    Effectivity of the divisor is only enforced under the strict flag;
    the fixed-ideal machinery runs from w alone.
    """
    coeffs = DivisorData(tuple(delta) if not isinstance(delta, DivisorData) else delta.coefficients)
    normals = sigma.normals
    if len(coeffs.coefficients) != len(normals):
        raise ValueError(f"expected {len(normals)} divisor coefficients, got {len(coeffs.coefficients)}")
    if require_effective and not coeffs.is_effective:
        raise ValueError(f"divisor {coeffs.coefficients} is not effective")
    q = p**e
    rhs = [(1 - q) * (d - 1) for d in coeffs.coefficients]
    sol = linalg.solve(list(normals), rhs)
    if sol is None:
        raise NotPrincipalError("no rational w solves the facet equations: the log divisor is not Q-Cartier here")
    w, kernel_dim = sol
    if kernel_dim:
        raise AssertionError("facet normals failed to determine w uniquely")
    if not linalg.is_integral(w):
        raise IndexNotCoprimeError(
            f"w = {w} is not integral: the Q-Cartier index is not coprime to p for exponent e = {e}"
        )
    return tuple(int(c) for c in w)


def w_to_divisor(sigma, w, p, e):
    """Inverse dictionary: d_i = 1 - <w, n_i>/(p^e - 1)."""
    q = p**e
    return DivisorData(tuple(1 - Fraction(dot(w, n), q - 1) for n in sigma.normals))
