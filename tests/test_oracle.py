from fractions import Fraction

import pytest

from toric_cartier.cartier import CartierData, TripleData, phi_on_monomial
from toric_cartier.errors import InadmissibleExponentError, PDividesDenominatorError, PoolTooLargeError
from toric_cartier.fixed_points import ShiftedNewton, enumerate_fixed, fixed_ideals
from toric_cartier.ideals import format_ideal, ideal_from_generators, zero_ideal
from toric_cartier.oracle import (
    BoxSpec,
    brute_force_enumerate,
    candidate_pool,
    cross_validate,
    verify_fixed,
)


def make_triple(semigroup, p, e, w, a_gens=None, t=0):
    a = ideal_from_generators(semigroup, a_gens) if a_gens else None
    return TripleData.create(CartierData(p, e, w, semigroup), a, t)


def canon(ideals):
    return tuple(sorted(set(ideals), key=lambda i: (not i.is_zero, i.gens)))


class TestVerifyFixed:
    def test_all_enumerated_are_fixed(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        for record in enumerate_fixed(ShiftedNewton.from_triple(tr)):
            assert verify_fixed(tr, record.ideal).is_fixed

    def test_non_example_with_witness(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 3, 1, (-1, -2))
        verdict = verify_fixed(tr, ideal_from_generators(worked_semigroup, [(1, 1)]))
        assert verdict.status == "not_fixed"
        assert verdict.witness == (1, 2)

    def test_zero_ideal(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        assert verify_fixed(tr, zero_ideal(worked_semigroup)).is_fixed

    def test_witness_violates_by_monomial_arithmetic(self, worked_semigroup):
        # the reported witness really does land outside by hand: it shows
        # up in a graded piece but membership in the ideal fails
        tr = make_triple(worked_semigroup, 3, 1, (-1, -2))
        ideal = ideal_from_generators(worked_semigroup, [(1, 1)])
        witness = verify_fixed(tr, ideal).witness
        assert not ideal.contains(witness)
        # preimage 3 * witness + w lies over the generator (1,1)
        preimage = tuple(3 * a + b for a, b in zip(witness, (-1, -2)))
        assert phi_on_monomial(tr.cartier, preimage) == witness
        assert ideal.contains(preimage)

    def test_verdicts_stable_in_truncation(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        candidates = [
            ideal_from_generators(worked_semigroup, g)
            for g in ([(1, 2)], [(1, 1)], [(2, 3), (2, 4)], [(2, 2)], [(2, 0)])
        ]
        for ideal in candidates:
            verdicts = {verify_fixed(tr, ideal, limit=n).status for n in (1, 2, 3, 6)}
            assert len(verdicts) == 1

    def test_limit_below_period_rejected(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 3, 1, (0, 0), [(2, 1), (1, 3)], Fraction(2, 5))
        assert tr.period == 4
        ideal = ideal_from_generators(worked_semigroup, [(1, 0)])
        with pytest.raises(InadmissibleExponentError, match="limit 3 is below the period 4"):
            verify_fixed(tr, ideal, limit=3)
        with pytest.raises(InadmissibleExponentError):
            verify_fixed(tr, zero_ideal(worked_semigroup), limit=3)
        assert verify_fixed(tr, zero_ideal(worked_semigroup), limit=4).is_fixed


class TestBruteForce:
    def test_worked_instance_pool_and_list(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        sn = ShiftedNewton.from_triple(tr)
        box = BoxSpec.from_instance(sn, margin=2)
        pool = candidate_pool(tr, box, sn=sn)
        assert len(pool) == 12
        found = brute_force_enumerate(tr)
        assert [format_ideal(i) for i in found] == [
            "0",
            "(1,2)",
            "(2,2) (2,3) (2,4)",
            "(2,2) (2,3) (2,4) (2,5)",
            "(2,3) (2,4)",
            "(2,3) (2,4) (2,5)",
        ]

    def test_large_exponent_instance(self, worked_semigroup):
        for p, e in [(2, 2), (5, 1)]:
            tr = make_triple(worked_semigroup, p, e, (-1, -2))
            assert [format_ideal(i) for i in brute_force_enumerate(tr)] == ["0", "(1,1) (1,2)"]

    def test_ineffective_twist(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (1, 2))
        assert [format_ideal(i) for i in brute_force_enumerate(tr)] == ["0", "(0,0)"]

    def test_agrees_with_enumeration(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 3, 1, (0, 1))
        sn = ShiftedNewton.from_triple(tr)
        assert brute_force_enumerate(tr) == canon(fixed_ideals(sn))

    def test_pool_cap_enforced(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        with pytest.raises(PoolTooLargeError, match="12"):
            brute_force_enumerate(tr, pool_cap=8)


class TestCrossValidate:
    def test_worked_instance_passes(self, worked_semigroup):
        report = cross_validate(make_triple(worked_semigroup, 2, 1, (-1, -2)))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "brute-force-agreement" in names and "adjoint-set-equality" in names

    def test_triple_passes(self, worked_semigroup):
        tr = make_triple(worked_semigroup, 3, 1, (-1, -2), a_gens=[(2, 1), (1, 3)], t=Fraction(1, 2))
        assert cross_validate(tr).passed

    def test_corrupted_base_is_detected(self, worked_semigroup):
        # mutate the twist used by the face-geometry route only: the
        # operator-based brute force must disagree
        tr = make_triple(worked_semigroup, 2, 1, (-1, -2))
        corrupt = ShiftedNewton.from_cartier(CartierData(2, 1, (-1, -1), worked_semigroup))
        report = cross_validate(tr, sn=corrupt)
        assert not report.passed
        agreement = next(c for c in report.checks if c.name == "brute-force-agreement")
        assert agreement.passed is False

    def test_p_in_denominator_rejected_at_construction(self, worked_semigroup):
        with pytest.raises(PDividesDenominatorError):
            make_triple(worked_semigroup, 2, 1, (-1, -2), a_gens=[(1, 1)], t=Fraction(1, 2))
