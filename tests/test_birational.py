from fractions import Fraction

import pytest

from toric_cartier.birational import (
    face_ideal_via_perturbation,
    intermediate_adjoint_set,
    non_lc_ideal,
)
from toric_cartier.cartier import CartierData, TripleData
from toric_cartier.fixed_points import ShiftedNewton, face_ideal, fixed_ideals, smallest_nonzero_fixed
from toric_cartier.ideals import format_ideal, ideal_from_generators, unit_ideal


def canon(ideals):
    return tuple(sorted(set(ideals), key=lambda i: (not i.is_zero, i.gens)))


@pytest.fixture
def worked_pe2(worked_semigroup):
    return ShiftedNewton.from_cartier(CartierData(2, 1, (-1, -2), worked_semigroup))


class TestNonLcIdeal:
    def test_trivial_coefficient_data(self, worked_semigroup):
        result = non_lc_ideal(worked_semigroup, (1, 2), unit_ideal(worked_semigroup), 0)
        assert result.gens == ((1, 2),)

    def test_base_origin_gives_unit(self, worked_semigroup):
        result = non_lc_ideal(worked_semigroup, (0, 0), unit_ideal(worked_semigroup), 0)
        assert result.is_unit

    def test_second_factor_at_zero_reduces(self, worked_semigroup):
        a = ideal_from_generators(worked_semigroup, [(2, 1), (1, 3)])
        b = ideal_from_generators(worked_semigroup, [(1, 1)])
        with_b = non_lc_ideal(worked_semigroup, (1, 2), a, Fraction(1, 2), b, 0)
        without = non_lc_ideal(worked_semigroup, (1, 2), a, Fraction(1, 2))
        assert with_b == without

    def test_monotone_decreasing_in_t(self, worked_semigroup):
        a = ideal_from_generators(worked_semigroup, [(2, 1), (1, 3)])
        previous = None
        for t in (0, Fraction(1, 2), 1, 2):
            current = non_lc_ideal(worked_semigroup, (1, 2), a, t)
            if previous is not None:
                assert previous.contains_ideal(current)
            previous = current

    def test_monotone_decreasing_in_s(self, orthant_semigroup):
        a = ideal_from_generators(orthant_semigroup, [(1, 0), (0, 1)])
        b = ideal_from_generators(orthant_semigroup, [(1, 1)])
        previous = None
        for s in (0, 1, 2):
            current = non_lc_ideal(orthant_semigroup, (0, 0), a, 1, b, s)
            if previous is not None:
                assert previous.contains_ideal(current)
            previous = current


class TestPerturbation:
    def test_top_face_reproduces_smallest_fixed(self, worked_pe2):
        got = face_ideal_via_perturbation(worked_pe2, worked_pe2.faces.top)
        assert got == smallest_nonzero_fixed(worked_pe2)

    def test_vertex_face(self, worked_pe2):
        vertex = next(f for f in worked_pe2.faces.faces if f.dim == 0)
        assert face_ideal_via_perturbation(worked_pe2, vertex).gens == ((1, 2),)

    def test_flat_ray_face(self, worked_pe2):
        ray = next(
            f
            for f in worked_pe2.faces.faces
            if f.dim == 1 and [worked_pe2.shifted.recession.rays[j] for j in f.ray_ids] == [(1, 0)]
        )
        assert face_ideal_via_perturbation(worked_pe2, ray).gens == ((2, 2), (2, 3), (2, 4))

    def test_every_face_in_a_triple_instance(self, worked_semigroup):
        a = ideal_from_generators(worked_semigroup, [(2, 1), (1, 3)])
        tr = TripleData.create(CartierData(3, 1, (-1, -2), worked_semigroup), a, Fraction(1, 2))
        sn = ShiftedNewton.from_triple(tr)
        for f in sn.faces.faces:
            assert face_ideal_via_perturbation(sn, f) == face_ideal(sn, f)


class TestIntermediateAdjointSet:
    def test_matches_worked_enumeration(self, worked_semigroup, worked_pe2):
        ias = intermediate_adjoint_set(worked_semigroup, (1, 2))
        assert canon(ias) == canon(fixed_ideals(worked_pe2))
        assert len(ias) == 6

    def test_non_integral_base_drops_vertex_ideal(self, worked_semigroup):
        # base = (1/3, 2/3) mirrors the large-exponent instances: the
        # shifted vertex carries no lattice point
        ias = intermediate_adjoint_set(worked_semigroup, (Fraction(1, 3), Fraction(2, 3)))
        assert [format_ideal(i) for i in ias] == ["0", "(1,1) (1,2)"]

    def test_base_origin_contains_unit(self, worked_semigroup):
        ias = intermediate_adjoint_set(worked_semigroup, (0, 0))
        assert any(i.is_unit for i in ias)

    def test_sandwich(self, worked_semigroup):
        a = ideal_from_generators(worked_semigroup, [(2, 1), (1, 3)])
        base = (Fraction(1, 2), Fraction(1))
        ias = intermediate_adjoint_set(worked_semigroup, base, a, Fraction(1, 2))
        largest = non_lc_ideal(worked_semigroup, base, a, Fraction(1, 2))
        assert largest in ias
        nonzero = [i for i in ias if not i.is_zero]
        smallest = min(nonzero, key=lambda i: sum(1 for j in nonzero if j.contains_ideal(i)))
        for i in ias:
            assert largest.contains_ideal(i)
        for i in nonzero:
            assert i.contains_ideal(smallest)

    def test_closed_under_sum_and_intersection(self, worked_semigroup):
        ias = set(intermediate_adjoint_set(worked_semigroup, (Fraction(1, 2), 1)))
        for a in ias:
            for b in ias:
                assert a + b in ias
                assert a.intersection(b) in ias
