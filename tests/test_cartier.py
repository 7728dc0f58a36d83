import random
from fractions import Fraction

import pytest

from toric_cartier.cartier import (
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
from toric_cartier.errors import (
    AmbientMismatchError,
    InadmissibleExponentError,
    IndexNotCoprimeError,
    NotPrincipalError,
    PDividesDenominatorError,
    PointOutsideSemigroupError,
    ZeroIdealError,
)
from toric_cartier.ideals import ideal_from_generators, unit_ideal, zero_ideal
from toric_cartier.polyhedral import iter_box


@pytest.fixture
def worked_cartier(worked_semigroup):
    return CartierData(2, 1, (-1, -2), worked_semigroup)


class TestCartierData:
    def test_rejects_composite_p(self, worked_semigroup):
        with pytest.raises(ValueError):
            CartierData(4, 1, (0, 0), worked_semigroup)

    def test_rejects_nonpositive_e(self, worked_semigroup):
        with pytest.raises(ValueError):
            CartierData(2, 0, (0, 0), worked_semigroup)

    def test_base_point(self, worked_cartier):
        assert worked_cartier.base_point == (Fraction(1), Fraction(2))

    def test_effectivity_flag(self, worked_semigroup):
        assert CartierData(2, 1, (-1, -2), worked_semigroup).is_well_defined
        assert not CartierData(2, 1, (1, 2), worked_semigroup).is_well_defined

    def test_effectivity_matches_box_scan(self, worked_semigroup):
        # an operator maps the whole ring into itself exactly when no
        # box point has a divisible image escaping the cone
        for w in [(-1, -2), (0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (-2, 3)]:
            c = CartierData(2, 1, w, worked_semigroup)
            escapes = False
            for u in iter_box((-8, -8), (8, 24)):
                if not worked_semigroup.contains(u):
                    continue
                num = tuple(a - b for a, b in zip(u, w))
                if any(v % 2 for v in num):
                    continue
                if not worked_semigroup.contains(tuple(v // 2 for v in num)):
                    escapes = True
            assert c.is_well_defined == (not escapes), w


class TestPhiOnMonomial:
    def test_splitting_fixes_one(self, worked_semigroup):
        c = CartierData(2, 1, (0, 0), worked_semigroup)
        assert phi_on_monomial(c, (0, 0)) == (0, 0)

    def test_worked_image(self, worked_cartier):
        assert phi_on_monomial(worked_cartier, (1, 0)) == (1, 1)

    def test_non_divisible_is_killed(self, worked_cartier):
        assert phi_on_monomial(worked_cartier, (2, 0)) is None

    def test_linearity(self, worked_cartier):
        amb = worked_cartier.ambient
        for u in [(1, 0), (1, 2), (3, 4)]:
            m = phi_on_monomial(worked_cartier, u)
            if m is None:
                continue
            for s in amb.hilbert:
                shifted = tuple(a + 2 * b for a, b in zip(u, s))
                assert phi_on_monomial(worked_cartier, shifted) == tuple(a + b for a, b in zip(m, s))


class TestPhiOnIdeal:
    def test_splitting_fixes_unit(self, worked_semigroup):
        c = CartierData(2, 1, (0, 0), worked_semigroup)
        assert phi_on_ideal(c, unit_ideal(worked_semigroup)) == unit_ideal(worked_semigroup)

    def test_fixed_ideal(self, worked_cartier):
        ideal = ideal_from_generators(worked_cartier.ambient, [(2, 3), (2, 4)])
        assert phi_on_ideal(worked_cartier, ideal) == ideal

    def test_image_matches_box_scan(self, worked_cartier):
        amb = worked_cartier.ambient
        ideal = ideal_from_generators(amb, [(1, 1), (2, 0)])
        image = phi_on_ideal(worked_cartier, ideal)
        for m in iter_box((0, -2), (6, 10)):
            if not amb.contains(m):
                continue
            preimage = tuple(2 * a + b for a, b in zip(m, worked_cartier.w))
            expected = amb.contains(preimage) and ideal.contains(preimage)
            assert image.contains(m) == expected

    def test_zero_maps_to_zero(self, worked_cartier):
        assert phi_on_ideal(worked_cartier, zero_ideal(worked_cartier.ambient)).is_zero

    def test_composition_matches_square(self, worked_semigroup):
        # phi_{e,w} twice equals phi_{2e, w + q w} once (effective data)
        rng = random.Random(2)
        c = CartierData(2, 1, (-1, -2), worked_semigroup)
        square = c.iterate(2)
        rays = worked_semigroup.cone.rays
        for _ in range(5):
            pts = []
            for _ in range(rng.randint(1, 3)):
                k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
                pts.append(tuple(k1 * a + k2 * b for a, b in zip(*rays)))
            ideal = ideal_from_generators(worked_semigroup, pts)
            assert phi_on_ideal(c, phi_on_ideal(c, ideal)) == phi_on_ideal(square, ideal)


class TestAdmissiblePeriod:
    def test_integer_exponent(self):
        assert admissible_period(Fraction(3), 5, 1) == 1

    def test_half_at_p3(self):
        assert admissible_period(Fraction(1, 2), 3, 1) == 1

    def test_order_four(self):
        assert admissible_period(Fraction(2, 5), 3, 1) == 4

    def test_p_divides_denominator(self):
        with pytest.raises(PDividesDenominatorError):
            admissible_period(Fraction(1, 2), 2, 1)

    def test_triple_rejects_p_in_denominator(self, worked_semigroup):
        c = CartierData(2, 1, (-1, -2), worked_semigroup)
        with pytest.raises(PDividesDenominatorError):
            TripleData.create(c, t=Fraction(1, 2))


class TestCartierStep:
    def test_pair_step_is_operator_image(self, worked_cartier):
        tr = TripleData.create(worked_cartier)
        ideal = ideal_from_generators(worked_cartier.ambient, [(1, 1), (2, 0)])
        assert cartier_step(tr, ideal, 1) == phi_on_ideal(worked_cartier, ideal)

    def test_fixed_principal_ideal(self, worked_cartier):
        tr = TripleData.create(worked_cartier)
        ideal = ideal_from_generators(worked_cartier.ambient, [(1, 2)])
        assert cartier_step(tr, ideal, 1) == ideal

    def test_witnesses_non_fixedness(self, worked_semigroup):
        tr = TripleData.create(CartierData(3, 1, (-1, -2), worked_semigroup))
        ideal = ideal_from_generators(worked_semigroup, [(1, 1)])
        step = cartier_step(tr, ideal, 1)
        assert step.contains((1, 2)) and not ideal.contains((1, 2))

    def test_inadmissible_exponent_rejected(self, worked_semigroup):
        c = CartierData(3, 1, (0, 0), worked_semigroup)
        tr = TripleData.create(c, t=Fraction(2, 5))
        with pytest.raises(InadmissibleExponentError):
            cartier_step(tr, unit_ideal(worked_semigroup), 3)

    def test_matches_naive_closure_product_composition(self, worked_semigroup):
        # same graded piece through the materialized closed power
        a = ideal_from_generators(worked_semigroup, [(2, 1), (1, 3)])
        c = CartierData(3, 1, (-1, -2), worked_semigroup)
        tr = TripleData.create(c, a, Fraction(1, 2))
        ideal = ideal_from_generators(worked_semigroup, [(1, 1)])
        for n in (1, 2):
            k = tr.t * (3**n - 1)
            factor = a.closure_of_power(int(k)) if k else unit_ideal(worked_semigroup)
            naive = phi_on_ideal(c.iterate(n), factor * ideal)
            assert cartier_step(tr, ideal, n) == naive


class TestCartierOperator:
    def test_zero(self, worked_cartier):
        tr = TripleData.create(worked_cartier)
        assert cartier_operator(tr, zero_ideal(worked_cartier.ambient), 3).is_zero

    def test_fixed_ideals_stay_fixed(self, worked_cartier):
        tr = TripleData.create(worked_cartier)
        for gens in [[(1, 2)], [(2, 3), (2, 4)], [(2, 2), (2, 3), (2, 4)]]:
            ideal = ideal_from_generators(worked_cartier.ambient, gens)
            for limit in (1, 2, 3):
                assert cartier_operator(tr, ideal, limit) == ideal

    def test_monotone_in_truncation(self, worked_cartier):
        tr = TripleData.create(worked_cartier)
        ideal = ideal_from_generators(worked_cartier.ambient, [(2, 0)])
        small = cartier_operator(tr, ideal, 1)
        large = cartier_operator(tr, ideal, 3)
        assert large.contains_ideal(small)

    def test_limit_below_period_rejected(self, worked_semigroup):
        tr = TripleData.create(CartierData(3, 1, (0, 0), worked_semigroup), t=Fraction(2, 5))
        with pytest.raises(InadmissibleExponentError):
            cartier_operator(tr, unit_ideal(worked_semigroup), 3)


class TestStableImage:
    def test_splitting(self, worked_semigroup):
        c = CartierData(2, 1, (0, 0), worked_semigroup)
        assert stable_image(c) == unit_ideal(worked_semigroup)

    def test_worked_instance(self, worked_cartier):
        assert stable_image(worked_cartier).gens == ((1, 2),)

    def test_ineffective_twist_fixes_the_ring(self, worked_semigroup):
        # for w = (1,2) the ring itself is fixed (phi sends xy^2 to 1),
        # so the stable image is the unit ideal
        c = CartierData(2, 1, (1, 2), worked_semigroup)
        assert stable_image(c) == unit_ideal(worked_semigroup)

    def test_stable_image_is_fixed_and_chain_descends(self, worked_semigroup):
        for w in [(-1, -2), (0, 1), (1, 0), (2, 2)]:
            c = CartierData(3, 1, w, worked_semigroup)
            current = unit_ideal(worked_semigroup)
            while True:
                nxt = phi_on_ideal(c, current)
                assert current.contains_ideal(nxt)
                if nxt == current:
                    break
                current = nxt
            assert phi_on_ideal(c, stable_image(c)) == stable_image(c)


class TestTwistedStableImage:
    def test_trivial_twist(self, worked_cartier):
        assert twisted_stable_image(worked_cartier, (0, 0), 1) == stable_image(worked_cartier)
        assert twisted_stable_image(worked_cartier, (0, 0), 3) == stable_image(worked_cartier)

    def test_twist_outside_semigroup_rejected(self, worked_cartier):
        with pytest.raises(PointOutsideSemigroupError):
            twisted_stable_image(worked_cartier, (0, 1), 1)

    def test_produces_fixed_ideal(self, worked_cartier):
        for n in (2, 3, 4):
            result = twisted_stable_image(worked_cartier, (1, 2), n)
            assert phi_on_ideal(worked_cartier, result) == result

    def test_deep_twist_gives_small_fixed_ideal(self, worked_cartier):
        result = twisted_stable_image(worked_cartier, (4, 6), 4)
        assert phi_on_ideal(worked_cartier, result) == result


class TestDivisorDictionary:
    def test_worked_divisor(self, worked_semigroup):
        assert divisor_to_w(worked_semigroup.cone, (3, 2), 2, 1) == (-1, -2)

    def test_trivial_divisor_needs_compatible_exponent(self, worked_semigroup):
        assert divisor_to_w(worked_semigroup.cone, (0, 0), 2, 2) == (2, 3)
        with pytest.raises(IndexNotCoprimeError):
            divisor_to_w(worked_semigroup.cone, (0, 0), 2, 1)

    def test_round_trips(self, worked_semigroup):
        sigma = worked_semigroup.cone
        delta = w_to_divisor(sigma, (2, 3), 2, 2)
        assert delta.coefficients == (Fraction(0), Fraction(0))
        assert divisor_to_w(sigma, delta, 2, 2) == (2, 3)
        assert w_to_divisor(sigma, (-1, -2), 2, 1).coefficients == (Fraction(3), Fraction(2))
        assert w_to_divisor(sigma, (0, 1), 2, 1).coefficients == (Fraction(0), Fraction(2))

    def test_random_round_trips(self, worked_semigroup):
        rng = random.Random(17)
        sigma = worked_semigroup.cone
        for _ in range(20):
            w = (rng.randint(-4, 4), rng.randint(-4, 4))
            delta = w_to_divisor(sigma, w, 3, 1)
            assert divisor_to_w(sigma, delta, 3, 1) == w

    def test_not_principal(self):
        # the cone over a square is not simplicial: four facets
        # over-determine w for a generic boundary choice
        from toric_cartier.polyhedral import cone_from_rays

        sigma = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        with pytest.raises(NotPrincipalError):
            divisor_to_w(sigma, (0, 0, 0, 1), 2, 1)
        assert divisor_to_w(sigma, (0, 0, 0, 0), 2, 1) == (0, 0, 1)

    def test_effectivity_flag(self):
        assert DivisorData((0, 1)).is_effective
        assert not DivisorData((Fraction(-1, 2), 1)).is_effective


class TestSpecSurfaceExtras:
    def test_triple_period(self, worked_semigroup):
        tr = TripleData.create(CartierData(3, 1, (0, 0), worked_semigroup), t=Fraction(2, 5))
        assert tr.period == 4

    def test_strict_effectivity_flag(self, worked_semigroup):
        sigma = worked_semigroup.cone
        assert divisor_to_w(sigma, (3, 2), 2, 1, require_effective=True) == (-1, -2)
        with pytest.raises(ValueError, match="not effective"):
            divisor_to_w(sigma, (-1, 2), 2, 1, require_effective=True)
