import pytest

from stacky_brauer.abelian import FinAbGroup
from stacky_brauer.cohomology import (
    INTEGERS,
    UNITS,
    cohomology,
    cohomology_Zm,
    enumerate_extension_classes,
    mod_coefficients,
)
from stacky_brauer.errors import ResourceCapError, ValidationError
from stacky_brauer.groups import cyclic, direct_product, trivial_group
from stacky_brauer.oracle import (
    brute_cocycles,
    brute_hom_from_presentation,
    cyclic_closed_form,
    full_bar_cohomology,
    full_bar_differential,
)


class TestClosedForms:
    def test_units_pattern(self):
        assert cyclic_closed_form(5, 3, UNITS).value == FinAbGroup.cyclic(5)
        assert cyclic_closed_form(5, 4, UNITS).value.is_trivial
        assert cyclic_closed_form(7, 1, UNITS).value == FinAbGroup.cyclic(7)

    def test_integral_pattern(self):
        assert cyclic_closed_form(4, 0, INTEGERS).value == FinAbGroup.free(1)
        assert cyclic_closed_form(4, 1, INTEGERS).value.is_trivial
        assert cyclic_closed_form(4, 2, INTEGERS).value == FinAbGroup.cyclic(4)

    def test_mod_m_pattern(self):
        assert cyclic_closed_form(6, 0, mod_coefficients(4)).value == \
            FinAbGroup.cyclic(4)
        for deg in (1, 2, 3):
            assert cyclic_closed_form(6, deg, mod_coefficients(4)).value == \
                FinAbGroup.cyclic(2)

    def test_units_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_closed_form(4, 0, UNITS)


class TestFullBar:
    def test_differential_squares_to_zero(self):
        for G in (cyclic(2), cyclic(3), direct_product(cyclic(2), cyclic(2))):
            for n in range(2):
                d_n = full_bar_differential(G, n)
                d_n1 = full_bar_differential(G, n + 1)
                assert (d_n1 @ d_n).is_zero()

    def test_agrees_with_engine_pointwise(self):
        assert full_bar_cohomology(cyclic(2), 2, INTEGERS).value == \
            FinAbGroup.cyclic(2)
        assert full_bar_cohomology(cyclic(3), 1, mod_coefficients(3)).value == \
            FinAbGroup.cyclic(3)
        for n in (1, 2, 3):
            assert full_bar_cohomology(trivial_group(), n, INTEGERS).value.is_trivial

    def test_oracle_cap(self):
        with pytest.raises(ResourceCapError):
            full_bar_differential(cyclic(30), 4)

    def test_elimination_budget(self):
        # |G|^(2n+1) entries of d_out: Z/12 in degree 4 is refused before
        # anything is built, Z/6 in degree 4 (7776 x 1296) is not
        with pytest.raises(ResourceCapError, match="rows x columns"):
            full_bar_cohomology(cyclic(12), 4, INTEGERS)
        assert full_bar_cohomology(cyclic(6), 3, UNITS).value == FinAbGroup.cyclic(6)


class TestBruteCocycles:
    def test_klein_four_mod_two(self):
        V = direct_product(cyclic(2), cyclic(2))
        res = brute_cocycles(V, 2, 2)
        assert res.value == FinAbGroup(0, (2, 2, 2))

    def test_z2_two_classes(self):
        res = brute_cocycles(cyclic(2), 2, 2)
        assert res.value == FinAbGroup.cyclic(2)

    def test_degree_zero(self):
        assert brute_cocycles(cyclic(3), 0, 6).value == FinAbGroup.cyclic(6)

    def test_degree_one_is_hom(self):
        assert brute_cocycles(cyclic(4), 1, 2).value == FinAbGroup.cyclic(2)
        assert brute_cocycles(cyclic(3), 1, 2).value.is_trivial

    def test_matches_engine_and_class_enumeration(self):
        cases = [(cyclic(2), 2), (cyclic(2), 4), (cyclic(3), 3),
                 (cyclic(4), 2), (cyclic(4), 4),
                 (direct_product(cyclic(2), cyclic(2)), 2)]
        for G, m in cases:
            res = brute_cocycles(G, 2, m)
            assert res.value == cohomology_Zm(G, 2, m).value, (G.order, m)
            assert res.value.order() == len(enumerate_extension_classes(G, m))

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_cocycles(cyclic(6), 2, 5)


class TestPresentationOracle:
    def test_small_values(self):
        assert brute_hom_from_presentation(0, [], 5).is_trivial
        assert brute_hom_from_presentation(1, [], 3) == FinAbGroup(0, (3, 3))
        assert brute_hom_from_presentation(0, [2, 2, 2], 2) == FinAbGroup(0, (2, 2))
