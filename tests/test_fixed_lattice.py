"""The fixed-ideal lattice as the up-sets of the face poset Q.

Golden documents pin the CLI output bytes on four corpus instances; the
counts on the orthant are the Dedekind numbers; and on random small
pairs and triples the up-set enumeration must equal the closure of the
face ideals under sums, computed here independently.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toric_cartier.cartier import CartierData, TripleData
from toric_cartier.cli import main
from toric_cartier.fixed_points import ShiftedNewton, enumerate_fixed, face_ideal, fixed_ideals
from toric_cartier.ideals import Semigroup, ideal_from_generators, zero_ideal

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("command", ["enumerate", "test-ideal", "stable-image"])
@pytest.mark.parametrize("name", ["worked_pair", "orthant_triple_3d", "quotient_cone_3d", "orthant_pair_4d"])
def test_golden_document(name, command, capsys):
    code = main([command, "--instance", str(GOLDEN / f"{name}.instance")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.json").read_text()


@pytest.mark.parametrize("d, dedekind", [(1, 3), (2, 6), (3, 20), (4, 168)])
def test_orthant_counts_are_dedekind_numbers(d, dedekind):
    # w = 0: every face of the orthant holds a lattice point in its
    # relative interior, so Q is the Boolean lattice of d elements
    orthant = Semigroup.from_rays([tuple(int(i == j) for j in range(d)) for i in range(d)])
    tr = TripleData.create(CartierData(2, 1, (0,) * d, orthant))
    assert len(enumerate_fixed(ShiftedNewton.from_triple(tr))) == dedekind


RAYS = {
    2: [[(1, 0), (0, 1)], [(1, 0), (1, 2)], [(1, 0), (1, 3)], [(2, 1), (1, 2)], [(1, -1), (1, 2)]],
    3: [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]],
}


@st.composite
def shifted_regions(draw):
    """A random pair, or a triple with a coefficient ideal of one to three
    generators (at most two in d = 3), in dimension 2 or 3."""
    d = draw(st.sampled_from([2, 3]))
    amb = Semigroup.from_rays(draw(st.sampled_from(RAYS[d])))
    # in d = 3 the relative-interior search dominates the cost, and it is
    # largest on faces that hold no lattice point; so there the base point
    # stays integral and the twists and coefficient ideals stay small
    p = draw(st.sampled_from([2, 3] if d == 2 else [2]))
    w = tuple(draw(st.lists(st.integers(d - 4, 1), min_size=d, max_size=d)))
    c = CartierData(p, 1, w, amb)
    if draw(st.booleans()):
        return ShiftedNewton.from_triple(TripleData.create(c))
    coords = st.lists(st.integers(0, 4 - d), min_size=len(amb.cone.rays), max_size=len(amb.cone.rays))
    gens = [
        tuple(sum(k * r[i] for k, r in zip(ks, amb.cone.rays)) for i in range(d))
        for ks in draw(st.lists(coords, min_size=1, max_size=5 - d))
    ]
    t = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2, 5)]).filter(lambda t: t.denominator % p))
    return ShiftedNewton.from_triple(TripleData.create(c, ideal_from_generators(amb, gens), t))


def sum_closure(ideals):
    found = set(ideals)
    while True:
        fresh = {a + b for a in found for b in found} - found
        if not fresh:
            return found
        found |= fresh


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shifted_regions())
def test_up_sets_equal_face_ideal_sum_closure(sn):
    listed = fixed_ideals(sn)
    assert len(set(listed)) == len(listed)
    seeds = [face_ideal(sn, f) for f in sn.faces.faces] + [zero_ideal(sn.ambient)]
    assert set(listed) == sum_closure(seeds)
