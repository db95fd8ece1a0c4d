from importlib import import_module
from math import gcd

import pytest

from stacky_brauer.abelian import is_injective, is_split_injection, set_resource_cap
from stacky_brauer.cohomology import (
    UNITS,
    clear_cache,
    cohomology_Z,
    cohomology_units,
    enumerate_extension_classes,
    inflation_kernel_trivial,
    inflation_map,
)
from stacky_brauer.errors import InvariantViolationError
from stacky_brauer.fibers import (
    FiberDiagnostics,
    analyze_fiber,
    fiber_is_root_gerbe,
    fiber_is_root_gerbe_via_inflation,
    h2_section_exists,
    h3_inflation_injective,
)
from stacky_brauer.groups import (
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    split_extension,
)
from stacky_brauer.oracle import _kernel_trivial_by_homology
from conftest import quaternion_cocycle

# the module, which the package's `cohomology` function shadows
cohomology_module = import_module("stacky_brauer.cohomology")


class TestRootGerbeDetectors:
    def test_split_extensions_are_root_gerbes(self, family):
        for name, G in family:
            if G.order > 6:
                continue
            ext = split_extension(G, 2)
            assert fiber_is_root_gerbe(ext), name
            assert fiber_is_root_gerbe_via_inflation(ext), name

    def test_cyclic_bases_always_root(self):
        # H^2(Z/n, kx) = 0, so every extension of a cyclic group qualifies
        for n in (2, 3, 4):
            for r in (2, 3):
                for c in enumerate_extension_classes(cyclic(n), r):
                    ext = central_extension(cyclic(n), r, c)
                    assert fiber_is_root_gerbe(ext)
                    assert fiber_is_root_gerbe_via_inflation(ext)

    def test_quaternion_fiber_is_not_root(self):
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        assert not fiber_is_root_gerbe(ext)
        assert not fiber_is_root_gerbe_via_inflation(ext)

    def test_detectors_agree_on_klein_four_classes(self):
        V = direct_product(cyclic(2), cyclic(2))
        for c in enumerate_extension_classes(V, 2):
            ext = central_extension(V, 2, c)
            assert fiber_is_root_gerbe(ext) == \
                fiber_is_root_gerbe_via_inflation(ext)


class TestH3Inflation:
    def test_coprime_always_injective(self):
        # E = Z/6 over Z/3 with r = 2
        ext = split_extension(cyclic(3), 2)
        assert h3_inflation_injective(ext)

    def test_cyclic_base_any_extension(self):
        for n in (2, 3, 4):
            for c in enumerate_extension_classes(cyclic(n), 2):
                ext = central_extension(cyclic(n), 2, c)
                got = h3_inflation_injective(ext)
                # injectivity of H^4(Z/n) -> H^4(E): holds for the split class;
                # the nonsplit cyclic-over-cyclic classes can fail (E = Z/2n
                # pulls the generator to m^2 = 4 times it)
                if c.is_zero:
                    assert got, n

    def test_split_extension_retraction(self, family):
        for name, G in family:
            if G.order > 6:
                continue
            assert h3_inflation_injective(split_extension(G, 2)), name

    def test_dicyclic_class_fails(self):
        # the nonsplit central Z/2-extension of S3 (dicyclic of order 12)
        # kills the 2-part of H^4(S3, Z) = Z/6
        S3 = semidirect_cyclic_by_z2(3, 2)
        classes = enumerate_extension_classes(S3, 2)
        assert len(classes) == 2
        flags = []
        for c in classes:
            ext = central_extension(S3, 2, c)
            flags.append(h3_inflation_injective(ext))
        assert sorted(flags) == [False, True]

    def test_answer_does_not_need_the_bar_shape_of_h4(self):
        # a trivial source is read off H_3(G, Z), not off H^4(G, Z), whose
        # bar rows (|G| - 1)^5 = 16,807 are over this cap: every class of D4
        # with r = 2, the split one too, gets the same answer under it
        D4 = semidirect_cyclic_by_z2(4, 3)
        exts = [central_extension(D4, 2, c) for c in enumerate_extension_classes(D4, 2)]
        expected = [h3_inflation_injective(ext) for ext in exts]
        assert expected.count(True) == 1
        clear_cache()
        set_resource_cap(10_000)
        try:
            assert [h3_inflation_injective(ext) for ext in exts] == expected
        finally:
            set_resource_cap(5_000_000)
            clear_cache()


class TestSections:
    def test_cyclic_base_trivial_source(self):
        for n in (2, 3, 4):
            assert h2_section_exists(split_extension(cyclic(n), 2))

    def test_coprime_section(self):
        ext = split_extension(semidirect_cyclic_by_z2(3, 2), 5)
        assert h2_section_exists(ext)

    def test_split_extension_section(self):
        V = direct_product(cyclic(2), cyclic(2))
        assert h2_section_exists(split_extension(V, 2))

    def test_quaternion_class_has_no_section(self):
        # no section can exist where inflation is not even injective
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        assert not h2_section_exists(ext)


class TestSectionCertificate:
    """Split fibers are answered from a section; the elimination and the
    full induced maps must agree with that answer."""

    def split_fibers(self, family):
        for name, G in family:
            for r in (2, 3, 4):
                if G.order * r <= 8:
                    yield f"{name} r={r}", G, split_extension(G, r)

    def test_elimination_agrees_with_the_section(self, family):
        for label, G, ext in self.split_fibers(family):
            q = ext.projection
            for n in (3, 4):
                assert _kernel_trivial_by_homology(q, cohomology_Z(G, n)), \
                    (label, n)
                assert inflation_kernel_trivial(q, n), (label, n)
                assert is_injective(inflation_map(q, n - 1, UNITS)), (label, n)

    def test_split_injection_agrees_with_the_section(self, family):
        for label, G, ext in self.split_fibers(family):
            assert h2_section_exists(ext), label
            assert is_split_injection(
                inflation_map(ext.projection, 2, UNITS)), label


class TestNonSplitElimination:
    """The elimination against the full induced map, on non-split fibers."""

    def test_elimination_matches_inflation_map(self, family):
        cases = 0
        for name, G in family:
            for r in (2, 3, 4):
                if G.order * r > 8:
                    continue
                for i, c in enumerate(enumerate_extension_classes(G, r)[1:], 1):
                    q = central_extension(G, r, c).projection
                    for n in (3, 4):
                        expected = is_injective(inflation_map(q, n - 1, UNITS))
                        assert _kernel_trivial_by_homology(
                            q, cohomology_Z(G, n)) == expected, (name, r, i, n)
                        cases += 1
        assert cases == 20


class TestSchurMultiplierRoute:
    """Degree-2 units questions answered off H_2(E, Z): the dual of q_* on
    the Schur multipliers against the full inflation map on H^3(-, Z)."""

    def test_section_matches_split_injection_of_inflation(self, family):
        cases = 0
        for name, G in family:
            for r in (2, 3, 4):
                if G.order * r > 12:
                    continue
                for i, c in enumerate(enumerate_extension_classes(G, r)[1:], 1):
                    ext = central_extension(G, r, c)
                    expected = is_split_injection(
                        inflation_map(ext.projection, 2, UNITS))
                    assert h2_section_exists(ext) == expected, (name, r, i)
                    cases += 1
        assert cases == 14

    @pytest.mark.parametrize("G, r, flags", [
        (direct_product(cyclic(2), cyclic(2)), 4,
         [False, True, False, True, False, True, False]),
        (semidirect_cyclic_by_z2(4, 3), 2,
         [True, True, True, False, False, False, False]),
        (direct_product(cyclic(2), cyclic(4)), 2,
         [False, True, False, False, False, True, False]),
    ], ids=["V4-r4", "D4-r2", "Z2xZ4-r2"])
    def test_non_split_answers_at_order_16(self, G, r, flags):
        # recorded with the inflation map on H^3(E, Z) before this route
        classes = enumerate_extension_classes(G, r)[1:]
        assert [h2_section_exists(central_extension(G, r, c))
                for c in classes] == flags

    def test_analyze_fiber_builds_no_degree_three_bar_complex_of_e(self, monkeypatch):
        V = direct_product(cyclic(2), cyclic(2))
        ext = central_extension(V, 2, enumerate_extension_classes(V, 2)[1])
        built = []
        original = cohomology_module.bar_differential

        def counting(X, n):
            built.append((X.order, n))
            return original(X, n)

        monkeypatch.setattr(cohomology_module, "bar_differential", counting)
        cohomology_module.clear_cache()
        d = analyze_fiber(ext)
        monkeypatch.undo()
        # E's questions take its free resolution, and the Bockstein reads
        # H_2(V, Z) (H^3(V, Z) = Z/2): no bar complex is built in any degree
        assert built == []
        assert d.h2_section_exists is False
        assert d.h2_units_total == cohomology_units(ext.total, 2).value


class TestDiagnostics:
    def test_full_battery_on_split_klein_four(self):
        V = direct_product(cyclic(2), cyclic(2))
        d = analyze_fiber(split_extension(V, 2))
        assert d.is_root_gerbe and d.root_gerbe_via_inflation
        assert d.h3_inflation_injective and d.h2_section_exists
        assert str(d.h2_units_base) == "Z/2"
        assert d.bockstein_class == (0,)

    def test_detector_mismatch_is_hard_failure(self):
        V = direct_product(cyclic(2), cyclic(2))
        d = analyze_fiber(split_extension(V, 2))
        with pytest.raises(InvariantViolationError):
            FiberDiagnostics(
                extension=d.extension,
                h2_units_base=d.h2_units_base,
                h2_units_total=d.h2_units_total,
                is_root_gerbe=True,
                root_gerbe_via_inflation=False,
                h3_inflation_injective=None,
                h2_section_exists=None,
                bockstein_class=(0,),
            )

    def test_coprime_batch(self):
        # gcd(r, |G|) = 1 forces all three flags, over every class
        for G, r in [(cyclic(3), 2), (cyclic(2), 3), (cyclic(5), 2)]:
            for c in enumerate_extension_classes(G, r):
                ext = central_extension(G, r, c)
                d = analyze_fiber(ext)
                assert gcd(r, G.order) == 1
                assert d.is_root_gerbe and d.h3_inflation_injective \
                    and d.h2_section_exists

    def test_section_implies_injective_inflation(self, family):
        for name, G in family:
            if G.order > 4:
                continue
            for c in enumerate_extension_classes(G, 2):
                d = analyze_fiber(central_extension(G, 2, c))
                if d.h2_section_exists:
                    assert d.root_gerbe_via_inflation, name
