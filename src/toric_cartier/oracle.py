"""Independent brute-force verification.

Fixedness is checked directly against the operator: containment of every
graded piece in the ideal (exact, per admissible exponent up to a
truncation), and reproduction of every generator through the explicit
witness monomial, whose membership in the closed power reduces to exact
polytope membership of the generator in the shifted Newton region.
Exhaustive enumeration then generates every candidate ideal from a small
pool of lattice points and keeps the verified ones; agreement with the
face-geometry enumeration is the anti-circularity check for the whole
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

from .birational import face_ideal_via_perturbation, intermediate_adjoint_set, non_lc_ideal
from .cartier import cartier_step, phi_on_monomial, stable_image
from .errors import InadmissibleExponentError, PoolTooLargeError
from .fixed_points import ShiftedNewton, enumerate_fixed, face_ideal, fixed_ideals, largest_fixed, smallest_nonzero_fixed
from .ideals import MonomialIdeal, format_ideal, zero_ideal
from .linalg import vadd, vscale, vsub
from .polyhedral import iter_box

POOL_CAP = 20


@dataclass(frozen=True)
class BoxSpec:
    """Integer search window around the shifted region's vertices,
    expanded by a margin multiple of the Hilbert basis span."""

    lower: tuple
    upper: tuple

    @classmethod
    def from_instance(cls, sn, margin=2):
        dim = sn.ambient.dim
        span = [max(max(abs(h[k]) for h in sn.ambient.hilbert), 1) for k in range(dim)]
        lower = tuple(floor(min(v[k] for v in sn.shifted.vertices)) - margin * span[k] for k in range(dim))
        upper = tuple(ceil(max(v[k] for v in sn.shifted.vertices)) + margin * span[k] for k in range(dim))
        return cls(lower, upper)

    def points(self):
        return iter_box(self.lower, self.upper)


@dataclass(frozen=True)
class Verdict:
    status: str  # "fixed" | "not_fixed"
    witness: tuple | None
    detail: str

    @property
    def is_fixed(self):
        return self.status == "fixed"


def verify_fixed(tr, ideal, limit=None):
    """Decide fixedness of an ideal against the operator data.

    Containment direction: each graded piece up to the truncation limit
    must sit inside the ideal (exact).  Reproduction direction: each
    generator v must admit the witness monomial of exponent
    (q^n - 1)v + (q^n - 1)/(q - 1) w inside the closed coefficient power,
    equivalently v - base must lie in the Newton region; the witness is
    re-checked by plain monomial arithmetic.  A verdict of fixed relies
    on the truncation for the containment direction, so a limit below
    the period, which would check no graded piece, is rejected.
    """
    if limit is None:
        limit = 3 * tr.period
    if limit < tr.period:
        raise InadmissibleExponentError(f"limit {limit} is below the period {tr.period}")
    if ideal.is_zero:
        return Verdict("fixed", None, "zero ideal is fixed by convention")
    for n in tr.admissible_up_to(limit):
        piece = cartier_step(tr, ideal, n)
        for g in piece.gens:
            if not ideal.contains(g):
                return Verdict("not_fixed", g, f"graded piece at n = {n} leaves the ideal at {g}")
    region = tr.newton_region()
    c = tr.cartier
    n0 = tr.period
    qn = c.q**n0
    for v in ideal.gens:
        if not region.contains(vsub(v, c.base_point)):
            return Verdict("not_fixed", v, f"generator {v} is not reproduced: {v} - base is outside the Newton region")
        witness = vadd(vscale(qn - 1, v), vscale((qn - 1) // (c.q - 1), c.w))
        if phi_on_monomial(c.iterate(n0), vadd(witness, v)) != v:
            raise AssertionError("witness monomial failed to reproduce its generator")
    return Verdict("fixed", None, f"containment through n = {limit}, every generator reproduced at n = {n0}")


def candidate_pool(tr, box, sn):
    """Lattice points of box ∩ S ∩ (base + Newton region): every minimal
    generator of every fixed ideal lives here when the box is adequate."""
    return tuple(
        x for x in box.points() if tr.ambient.contains(x) and sn.shifted.contains(x)
    )


def brute_force_enumerate(tr, limit=None, pool_cap=POOL_CAP, margin=2):
    """All fixed ideals by exhaustion: every antichain of the candidate
    pool generates one candidate ideal, each one is verified directly."""
    sn = ShiftedNewton.from_triple(tr)
    pool = candidate_pool(tr, BoxSpec.from_instance(sn, margin=margin), sn)
    if len(pool) > pool_cap:
        raise PoolTooLargeError(f"candidate pool has {len(pool)} points, cap is {pool_cap}")
    sigma = tr.ambient.cone
    below = []
    for i, x in enumerate(pool):
        mask = 0
        for j, y in enumerate(pool):
            if i != j and sigma.contains(vsub(x, y)):
                mask |= 1 << j
        below.append(mask)
    antichains = set()
    for subset in range(1 << len(pool)):
        chain = 0
        for i in range(len(pool)):
            if subset >> i & 1 and not subset & below[i]:
                chain |= 1 << i
        antichains.add(chain)
    found = []
    for chain in sorted(antichains):
        gens = tuple(pool[i] for i in range(len(pool)) if chain >> i & 1)
        ideal = MonomialIdeal(tr.ambient, tuple(sorted(gens)), False) if gens else zero_ideal(tr.ambient)
        if verify_fixed(tr, ideal, limit=limit).is_fixed:
            found.append(ideal)
    return tuple(sorted(found, key=lambda i: (not i.is_zero, i.gens)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None: skipped
    detail: str


@dataclass(frozen=True)
class Report:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed is not False for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            tag = "skip" if c.passed is None else ("pass" if c.passed else "FAIL")
            out.append(f"[{tag}] {c.name}: {c.detail}")
        return out


def _canon(ideals):
    return tuple(sorted(set(ideals), key=lambda i: (not i.is_zero, i.gens)))


def cross_validate(tr, sn=None, limit=None, margin=2, pool_cap=POOL_CAP):
    """Run every route and assert the pairwise consistencies; emits a
    structured report and never silently passes on a mismatch."""
    if sn is None:
        sn = ShiftedNewton.from_triple(tr)
    checks = []

    records = enumerate_fixed(sn)
    enumerated = _canon(r.ideal for r in records)
    checks.append(CheckResult("enumerate", True, f"{len(enumerated)} fixed ideals"))

    bad = [r for r in records if not verify_fixed(tr, r.ideal, limit=limit).is_fixed]
    checks.append(
        CheckResult(
            "verify-enumerated",
            not bad,
            "every enumerated ideal verifies as fixed" if not bad else f"not fixed: {format_ideal(bad[0].ideal)}",
        )
    )

    try:
        brute = brute_force_enumerate(tr, limit=limit, pool_cap=pool_cap, margin=margin)
        same = brute == enumerated
        detail = f"{len(brute)} ideals agree" if same else (
            f"enumerated {[format_ideal(i) for i in enumerated]} vs brute {[format_ideal(i) for i in brute]}"
        )
        checks.append(CheckResult("brute-force-agreement", same, detail))
    except PoolTooLargeError as exc:
        checks.append(CheckResult("brute-force-agreement", None, f"skipped: {exc}"))

    members = set(enumerated)
    closure_ok = True
    for a in enumerated:
        for b in enumerated:
            if a + b not in members or a.intersection(b) not in members:
                closure_ok = False
    checks.append(CheckResult("sum-and-intersection-closure", closure_ok, "lattice closed under sum and intersection"))

    smallest = smallest_nonzero_fixed(sn)
    nonzero = [i for i in enumerated if not i.is_zero]
    checks.append(
        CheckResult(
            "smallest-nonzero",
            all(i.contains_ideal(smallest) for i in nonzero),
            format_ideal(smallest),
        )
    )
    largest = largest_fixed(sn)
    checks.append(
        CheckResult("largest", all(largest.contains_ideal(i) for i in enumerated), format_ideal(largest))
    )
    nonlc = non_lc_ideal(tr.ambient, sn.base, tr.a_ideal, tr.t)
    checks.append(CheckResult("largest-equals-non-lc", largest == nonlc, format_ideal(nonlc)))
    if tr.is_pair:
        stable = stable_image(tr.cartier)
        checks.append(CheckResult("largest-equals-stable-image", largest == stable, format_ideal(stable)))

    adjoint = _canon(intermediate_adjoint_set(tr.ambient, sn.base, tr.a_ideal, tr.t))
    checks.append(
        CheckResult(
            "adjoint-set-equality",
            adjoint == enumerated,
            f"{len(adjoint)} intermediate adjoint ideals match" if adjoint == enumerated else "sets differ",
        )
    )

    mismatched = []
    for face in sn.faces.faces:
        if face_ideal_via_perturbation(sn, face) != face_ideal(sn, face):
            mismatched.append(face.index)
    checks.append(
        CheckResult(
            "perturbation-per-face",
            not mismatched,
            "perturbed non-LC ideal matches every face ideal" if not mismatched else f"faces {mismatched} differ",
        )
    )

    if tr.is_pair:
        square = ShiftedNewton.from_cartier(tr.cartier.iterate(2))
        checks.append(
            CheckResult(
                "square-operator-same-list",
                _canon(fixed_ideals(square)) == enumerated,
                "operator and its square fix the same ideals",
            )
        )
    return Report(tuple(checks))
