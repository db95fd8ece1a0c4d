from importlib import import_module
from itertools import combinations_with_replacement

import pytest

from stacky_brauer.abelian import FinAbGroup, IntegerMatrix, cokernel
from stacky_brauer.cohomology import (bockstein_r, cohomology_units, cohomology_Zm,
                                   enumerate_extension_classes)
from stacky_brauer.curves import (
    CurveSpec,
    StabilizerPoint,
    brauer_report,
    h1_coarse_zr,
    h1_stack_zr,
    orbifold_abelianization,
    stacky_units_cohomology,
)
from stacky_brauer.errors import (
    MissingDataError,
    ResourceCapError,
    TamenessError,
    ValidationError,
)
from stacky_brauer.groups import (
    Cocycle2,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
)
from stacky_brauer.oracle import brute_hom_from_presentation
from conftest import quaternion_cocycle


def smooth_curve(genus, orders, **kw):
    pts = tuple(StabilizerPoint(f"p{i}", cyclic(n))
                for i, n in enumerate(orders))
    return CurveSpec(smooth=True, proper=True, points=pts,
                     coarse_genus=genus, **kw)


class TestCurveValidation:
    def test_noncyclic_at_smooth_point(self):
        V = direct_product(cyclic(2), cyclic(2))
        with pytest.raises(ValidationError):
            StabilizerPoint("p", V, singular=False)
        StabilizerPoint("p", V, singular=True)

    def test_tameness(self):
        with pytest.raises(TamenessError):
            CurveSpec(smooth=True, proper=True, coarse_genus=0,
                      characteristic=2,
                      points=(StabilizerPoint("p", cyclic(4)),))
        curve = smooth_curve(0, [3], characteristic=2)
        with pytest.raises(TamenessError):
            curve.validate_modulus(2)

    def test_connectedness_required(self):
        with pytest.raises(ValidationError):
            CurveSpec(smooth=True, proper=True, coarse_genus=0,
                      connected=False)

    def test_smooth_needs_genus(self):
        with pytest.raises(ValidationError):
            CurveSpec(smooth=True, proper=True)


class TestStackyUnits:
    def test_smooth_curve_vanishes_in_degree_two(self):
        curve = smooth_curve(1, [2, 3, 4])
        assert stacky_units_cohomology(curve, 2).is_trivial

    def test_dihedral_node_contributes(self):
        node = StabilizerPoint("n", semidirect_cyclic_by_z2(4, 3), singular=True)
        curve = CurveSpec(smooth=False, proper=True, points=(node,))
        assert stacky_units_cohomology(curve, 2) == FinAbGroup.cyclic(2)

    def test_no_points_gives_zero(self):
        curve = CurveSpec(smooth=True, proper=True, coarse_genus=5)
        for k in (2, 3):
            assert stacky_units_cohomology(curve, k).is_trivial

    def test_even_degree_needs_singularities(self):
        # non-singular points are cyclic, and cyclic groups contribute
        # nothing in even degrees
        curve = smooth_curve(0, [2, 3, 4, 5])
        assert stacky_units_cohomology(curve, 2).is_trivial
        assert not stacky_units_cohomology(curve, 3).is_trivial


class TestH1:
    def test_genus_only(self):
        for g in (0, 1, 2):
            got = h1_stack_zr(smooth_curve(g, []), 3)
            assert got == FinAbGroup.from_factors([3] * (2 * g))
            assert got == brute_hom_from_presentation(g, [], 3)

    def test_two_z2_points_mod3(self):
        got = h1_stack_zr(smooth_curve(0, [2, 2]), 3)
        assert got.is_trivial
        assert got == brute_hom_from_presentation(0, [2, 2], 3)

    def test_equal_orders_with_dividing_modulus(self):
        for n, r in [(4, 2), (6, 3), (4, 4)]:
            got = h1_stack_zr(smooth_curve(0, [n, n]), r)
            assert got == FinAbGroup.cyclic(r)
            assert got == brute_hom_from_presentation(0, [n, n], r)

    def test_presentation_oracle_sweep(self):
        for g in (0, 1):
            for orders in ([], [2], [2, 3], [3, 3], [2, 2, 2]):
                for r in (2, 3, 4):
                    got = h1_stack_zr(smooth_curve(g, orders), r)
                    want = brute_hom_from_presentation(g, orders, r)
                    assert got == want, (g, orders, r)

    def test_orbifold_abelianization(self):
        # genus 0 with orders (2, 3): gamma_2 = -gamma_1 forces triviality
        assert orbifold_abelianization(0, [2, 3]).is_trivial
        assert orbifold_abelianization(0, [4, 4]) == FinAbGroup.cyclic(4)
        assert orbifold_abelianization(1, []) == FinAbGroup.free(2)

    def test_orbifold_abelianization_against_the_presentation(self):
        # Z^(2g + n) modulo the relations n_i g_i = 0 and sum g_i = 0, as
        # the cokernel of the presentation matrix
        def presented(genus, orders):
            n = len(orders)
            entries = {(2 * genus + i, i): ni for i, ni in enumerate(orders)}
            entries.update({(2 * genus + i, n): 1 for i in range(n)})
            return cokernel(IntegerMatrix(2 * genus + n, n + 1, entries))

        for size in range(6):
            for orders in combinations_with_replacement(range(1, 13), size):
                for genus in range(4):
                    assert orbifold_abelianization(genus, orders) == \
                        presented(genus, orders), (genus, orders)

    def test_missing_overrides(self):
        curve = CurveSpec(smooth=False, proper=True,
                          points=(StabilizerPoint("p", cyclic(2), singular=True),))
        with pytest.raises(MissingDataError):
            h1_stack_zr(curve, 2)
        with pytest.raises(MissingDataError):
            h1_coarse_zr(curve, 2)

    def test_overrides_used(self):
        curve = CurveSpec(smooth=False, proper=True,
                          points=(StabilizerPoint("p", cyclic(2), singular=True),),
                          h1_stack_override=FinAbGroup.cyclic(2),
                          h1_coarse_override=FinAbGroup.trivial())
        assert h1_stack_zr(curve, 2) == FinAbGroup.cyclic(2)
        assert h1_coarse_zr(curve, 2).is_trivial

    def test_huge_genus_is_refused_before_its_factors(self):
        # both list 2g factors; the cap is charged first
        curve = smooth_curve(10 ** 7, [3])
        for h1 in (h1_stack_zr, h1_coarse_zr):
            with pytest.raises(ResourceCapError, match="20000000"):
                h1(curve, 2)


class TestLeftKernel:
    def test_split_extensions_trivial(self):
        node = StabilizerPoint("n", semidirect_cyclic_by_z2(4, 3), singular=True)
        curve = CurveSpec(smooth=False, proper=True, points=(node,),
                          h1_stack_override=FinAbGroup.trivial())
        assert brauer_report(curve, 2).left_kernel.is_trivial

    def test_quaternion_point(self):
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        pt = StabilizerPoint("q", c.base, singular=True, extension=ext)
        curve = CurveSpec(smooth=False, proper=True, points=(pt,),
                          h1_stack_override=FinAbGroup.trivial())
        assert brauer_report(curve, 2).left_kernel == FinAbGroup.cyclic(2)

    def test_two_quaternion_points_generate_one_cyclic_kernel(self):
        # both points carry the Q8 class, so both Bockstein classes are
        # nonzero: the kernel is the cyclic group their tuple generates, of
        # the lcm of their orders (Z/2, not Z/4), and the image keeps Z/2
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        pts = tuple(StabilizerPoint(name, c.base, singular=True, extension=ext)
                    for name in ("q1", "q2"))
        curve = CurveSpec(smooth=False, proper=True, points=pts,
                          h1_stack_override=FinAbGroup.trivial())
        rep = brauer_report(curve, 2)
        order = bockstein_r(c.base, c).order()
        assert order == 2
        assert rep.left_term == FinAbGroup(0, (2, 2))
        assert rep.left_kernel == FinAbGroup.cyclic(order)
        assert rep.left_image == FinAbGroup.cyclic(2)
        assert not rep.is_root_gerbe
        assert rep.result.status == "partial"

    def test_cyclic_stabilizers_trivial(self):
        curve = smooth_curve(0, [2, 4, 3])
        assert brauer_report(curve, 2).left_kernel.is_trivial

    def test_report_builds_each_split_extension_once(self, monkeypatch):
        # the report hands the extensions it holds to the left-kernel step
        curves_module = import_module("stacky_brauer.curves")
        real = curves_module.split_extension
        built = []

        def counting(G, r):
            built.append((G.order, r))
            return real(G, r)

        monkeypatch.setattr(curves_module, "split_extension", counting)
        c = quaternion_cocycle()
        pts = (StabilizerPoint("a", cyclic(2), singular=True),
               StabilizerPoint("b", semidirect_cyclic_by_z2(4, 3), singular=True),
               StabilizerPoint("q", c.base, singular=True,
                               extension=central_extension(c.base, 2, c)))
        curve = CurveSpec(smooth=False, proper=True, points=pts,
                          h1_stack_override=FinAbGroup.trivial())
        rep = brauer_report(curve, 2)
        assert built == [(2, 2), (8, 2)]
        assert rep.left_kernel == FinAbGroup.cyclic(2)

    def test_report_computes_each_fibers_bockstein_once(self, monkeypatch):
        # the left kernel is read off the fibers' own classes, on D4
        # (H^3 = Z/2) and on Z/3 x Z/3 (H^3 = Z/3) alike
        real = import_module("stacky_brauer.cohomology").bockstein_r
        calls = []

        def counting(G, c):
            calls.append(G.order)
            return real(G, c)

        for name in ("curves", "fibers"):
            monkeypatch.setattr(import_module(f"stacky_brauer.{name}"), "bockstein_r", counting)
        for G, r, kernel in ((semidirect_cyclic_by_z2(4, 3), 2, 2),
                             (direct_product(cyclic(3), cyclic(3)), 3, 3)):
            classes = enumerate_extension_classes(G, r)
            pts = tuple(StabilizerPoint(f"p{i}", G, singular=True,
                                        extension=central_extension(G, r, classes[i]))
                        for i in (0, len(classes) - 1))
            curve = CurveSpec(smooth=False, proper=True, points=pts,
                              h1_stack_override=FinAbGroup.trivial())
            calls.clear()
            rep = brauer_report(curve, r)
            assert calls == [G.order] * 2
            assert rep.left_kernel == FinAbGroup.cyclic(kernel)


class TestLocalClassification:
    """The local targets H^2(G_i, Z/r) of mu_r-gerbes at their points."""

    def test_cyclic_points(self):
        # H^2(Z/n, Z/r) = Z/gcd(n, r)
        for n in (2, 4):
            assert cohomology_Zm(cyclic(n), 2, 2).value == FinAbGroup.cyclic(2), n

    def test_klein_four_point(self):
        V = direct_product(cyclic(2), cyclic(2))
        assert cohomology_Zm(V, 2, 2).value == FinAbGroup(0, (2, 2, 2))


class TestBrauerReport:
    def test_smooth_genus_two(self):
        rep = brauer_report(smooth_curve(2, [3, 3]), 2)
        assert rep.result.status == "determined"
        assert rep.result.value == FinAbGroup(0, (2, 2, 2, 2))
        assert rep.splitting == "smooth-shortcut"
        assert rep.left_term.is_trivial and rep.is_root_gerbe

    def test_dihedral_node(self):
        node = StabilizerPoint("n", semidirect_cyclic_by_z2(4, 3), singular=True)
        curve = CurveSpec(smooth=False, proper=True, points=(node,),
                          h1_stack_override=FinAbGroup.trivial())
        rep = brauer_report(curve, 2)
        assert rep.result.status == "determined"
        assert rep.result.value == FinAbGroup.cyclic(2)
        assert rep.is_root_gerbe and rep.right_exact
        assert rep.splitting == "sections"

    def test_no_points_trivial_gerbe(self):
        curve = CurveSpec(smooth=True, proper=True, coarse_genus=0)
        rep = brauer_report(curve, 1)
        assert rep.result.status == "determined"
        assert rep.result.value.is_trivial

    def test_coprime_matches_general_path(self):
        # same singular curve run through the coprime shortcut and, with the
        # stabilizer declared via a non-coprime-looking route, the general path
        h1 = FinAbGroup(0, (2, 2))
        pt = StabilizerPoint("p", cyclic(3), singular=True)
        curve = CurveSpec(smooth=False, proper=True, points=(pt,),
                          h1_stack_override=h1, h1_coarse_override=h1)
        rep = brauer_report(curve, 2)
        assert rep.splitting == "coprime"
        assert rep.result.status == "determined"
        assert rep.result.value == h1
        # general path: force it by taking a point of non-coprime order with
        # a split extension whose contribution is trivial anyway
        pt2 = StabilizerPoint("p", cyclic(2), singular=True)
        curve2 = CurveSpec(smooth=False, proper=True, points=(pt2,),
                           h1_stack_override=h1)
        rep2 = brauer_report(curve2, 2)
        assert rep2.splitting == "sections"
        assert rep2.result.status == "determined"
        assert rep2.result.value == h1

    def test_quaternion_node_is_partial_without_root(self):
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        pt = StabilizerPoint("q", c.base, singular=True, extension=ext)
        curve = CurveSpec(smooth=False, proper=True, points=(pt,),
                          h1_stack_override=FinAbGroup.cyclic(2))
        rep = brauer_report(curve, 2)
        assert not rep.is_root_gerbe
        assert rep.left_kernel == FinAbGroup.cyclic(2)
        # left term (Z/2) modulo the kernel (Z/2) leaves nothing
        assert rep.left_image.is_trivial
        assert rep.result.status == "partial"

    def test_nonsplit_cyclic_fiber_blocks_right_exactness(self):
        # two Z/2-points with Z/4-extensions: inflation on H^4 integral is
        # multiplication by 4 = 0, so the sequence is not right-exact and the
        # honest answer is a bound, not a value
        cc = Cocycle2(cyclic(2), 2, [[0, 0], [0, 1]])
        e1 = central_extension(cyclic(2), 2, cc)
        pts = (StabilizerPoint("x", cyclic(2), singular=True, extension=e1),
               StabilizerPoint("y", cyclic(2), singular=True, extension=e1))
        curve = CurveSpec(smooth=False, proper=True, points=pts,
                          h1_stack_override=FinAbGroup.cyclic(2))
        rep = brauer_report(curve, 2)
        assert rep.is_root_gerbe
        assert rep.right_exact is False
        assert rep.result.status == "partial"
        assert rep.result.subgroup.is_trivial
        assert rep.result.quotient_bound == FinAbGroup.cyclic(2)

    def test_smooth_shortcut_is_forced_regardless_of_extensions(self):
        # the same Z/4-over-Z/2 fibers on a smooth curve: the smooth-case
        # formula is applied as specified even though the general path would
        # only give a bound (see the test above); the report flags the
        # unevaluated right-exactness rather than asserting it
        cc = Cocycle2(cyclic(2), 2, [[0, 0], [0, 1]])
        e1 = central_extension(cyclic(2), 2, cc)
        pts = (StabilizerPoint("x", cyclic(2), extension=e1),
               StabilizerPoint("y", cyclic(2), extension=e1))
        curve = CurveSpec(smooth=True, proper=True, coarse_genus=0, points=pts)
        rep = brauer_report(curve, 2)
        assert rep.result.status == "determined"
        assert rep.result.value == FinAbGroup.cyclic(2)
        assert rep.splitting == "smooth-shortcut"
        assert rep.right_exact is None

    def test_smooth_agrees_with_general_for_split_extensions(self):
        # with split gerbe data the general path certifies everything the
        # smooth formula promises, so the two answers must coincide
        curve = smooth_curve(1, [2, 3])
        rep = brauer_report(curve, 2)
        gen = brauer_report(curve, 2, force_general=True)
        assert rep.result.status == gen.result.status == "determined"
        assert rep.result.value == gen.result.value
        assert gen.right_exact is True and gen.is_root_gerbe

    def test_extension_modulus_mismatch(self):
        cc = Cocycle2(cyclic(2), 2, [[0, 0], [0, 1]])
        e1 = central_extension(cyclic(2), 2, cc)
        pt = StabilizerPoint("x", cyclic(2), extension=e1)
        curve = CurveSpec(smooth=True, proper=True, coarse_genus=0, points=(pt,))
        with pytest.raises(ValidationError):
            brauer_report(curve, 3)
        # the mismatch is reported before the missing H^1 data
        node = StabilizerPoint("x", cyclic(2), singular=True, extension=e1)
        curve = CurveSpec(smooth=False, proper=True, points=(node,))
        with pytest.raises(ValidationError):
            brauer_report(curve, 3)

    @pytest.mark.parametrize("kind, force, source, splitting", [
        ("smooth", False, "orbifold-presentation", "smooth-shortcut"),
        ("smooth-stack", False, "override-stack", "smooth-shortcut"),
        ("coprime-both", False, "override-coarse", "coprime"),
        ("coprime-stack", False, "override-stack", "coprime"),
        ("general-both", False, "override-stack", "sections"),
        ("smooth", True, "orbifold-presentation", "sections"),
    ])
    def test_right_term_source_per_branch(self, kind, force, source, splitting):
        # stack and coarse overrides differ, so right_term shows which was read
        stack, coarse = FinAbGroup(0, (2, 2)), FinAbGroup.cyclic(2)
        if kind.startswith("smooth"):
            curve = smooth_curve(1, [2, 3], h1_stack_override=(
                stack if kind == "smooth-stack" else None))
        else:
            order = 3 if kind.startswith("coprime") else 2
            pt = StabilizerPoint("p", cyclic(order), singular=True)
            curve = CurveSpec(smooth=False, proper=True, points=(pt,),
                              h1_stack_override=stack,
                              h1_coarse_override=(
                                  coarse if kind.endswith("both") else None))
        rep = brauer_report(curve, 2, force_general=force)
        assert rep.right_term_source == source
        assert rep.splitting == splitting
        assert rep.right_term == (coarse if source == "override-coarse"
                                  else h1_stack_zr(curve, 2))
        assert rep.result.status == "determined"
        assert rep.result.value == rep.left_term.direct_sum(rep.right_term)


class TestNodeSearch:
    def test_klein_four_and_dihedral_nodes_have_nonvanishing_h2(self):
        # the node family mu_n x| Z/2 with a^2 = 1 mod n
        for n, a in ((2, 1), (4, 3)):
            G = semidirect_cyclic_by_z2(n, a)
            assert cohomology_units(G, 2).value == FinAbGroup.cyclic(2), (n, a)
        # S3 = semidirect(3, 2) has trivial multiplier
        assert cohomology_units(semidirect_cyclic_by_z2(3, 2), 2).value.is_trivial
