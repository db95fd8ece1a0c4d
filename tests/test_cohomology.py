import hashlib
import random

import pytest

from stacky_brauer.abelian import (
    FinAbGroup,
    IntegerMatrix,
    homology_at,
    induced_map,
    is_injective,
    is_split_injection,
    is_surjective,
    kernel_basis,
    kernel_group,
    image_group,
    cokernel_of_map,
)
from stacky_brauer.cohomology import (
    INTEGERS,
    UNITS,
    _kernel_trivial_by_homology,
    bar_differential,
    bockstein,
    bockstein_r,
    cohomology,
    cohomology_Z,
    cohomology_Zm,
    cohomology_units,
    enumerate_extension_classes,
    inflation_kernel_trivial,
    inflation_map,
    mod_coefficients,
    restriction_map,
)
from stacky_brauer.errors import TamenessError, ValidationError
from stacky_brauer.groups import (
    Cocycle2,
    GroupHom,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    trivial_group,
)
from conftest import quaternion_cocycle


def cyclic_projection(mn, n):
    return GroupHom(cyclic(mn), cyclic(n), tuple(x % n for x in range(mn)))


class TestBarDifferential:
    def test_z2_degree_one(self):
        assert bar_differential(cyclic(2), 1).to_rows() == [[2]]

    def test_squares_to_zero(self, family):
        for name, G in family:
            if G.order > 4:
                continue
            for n in range(3):
                d_n = bar_differential(G, n)
                d_n1 = bar_differential(G, n + 1)
                assert (d_n1 @ d_n).is_zero(), (name, n)

    def test_z3_degree_one_kernel_trivial(self):
        # Hom(Z/3, Z) = 0, so the degree-1 integral cocycles vanish
        K = kernel_basis(bar_differential(cyclic(3), 1))
        assert K.cols == 0

    def test_slice_shapes(self):
        d_out = bar_differential(cyclic(3), 2)
        d_in = bar_differential(cyclic(3), 1)
        assert d_out.rows == 8 and d_out.cols == 4
        assert d_in.rows == 4 and d_in.cols == 2


class TestCohomologyValues:
    def test_h0_is_coefficients(self, family):
        for name, G in family:
            assert cohomology_Z(G, 0).value == FinAbGroup.free(1), name
            assert cohomology_Zm(G, 0, 6).value == FinAbGroup.cyclic(6), name

    def test_cyclic_h2_is_group_order(self):
        for n in (2, 3, 4, 5, 6):
            assert cohomology_Z(cyclic(n), 2).value == FinAbGroup.cyclic(n)

    def test_hom_coefficients(self):
        assert cohomology_Zm(cyclic(2), 1, 2).value == FinAbGroup.cyclic(2)
        assert cohomology_Zm(cyclic(4), 1, 2).value == FinAbGroup.cyclic(2)

    def test_units_cyclic_pattern(self):
        for r in (2, 3, 4, 5):
            for n in (1, 2, 3, 4, 5):
                got = cohomology_units(cyclic(r), n).value
                want = FinAbGroup.cyclic(r) if n % 2 else FinAbGroup.trivial()
                if n == 5 and r > 3:
                    continue   # keep the long tail cheap
                assert got == want, (r, n)

    def test_units_trivial_group(self):
        for n in (1, 2, 3):
            assert cohomology_units(trivial_group(), n).value.is_trivial

    def test_units_klein_four(self):
        V = direct_product(cyclic(2), cyclic(2))
        assert cohomology_units(V, 2).value == FinAbGroup.cyclic(2)

    def test_schur_multipliers(self):
        # H^2(G, kx) = H^3(G, Z): dihedral-8 has Z/2, quaternion-8 is trivial
        D4 = semidirect_cyclic_by_z2(4, 3)
        assert cohomology_units(D4, 2).value == FinAbGroup.cyclic(2)
        c = quaternion_cocycle()
        Q8 = central_extension(c.base, 2, c).total
        assert cohomology_units(Q8, 2).value.is_trivial

    def test_tameness_validation(self):
        with pytest.raises(TamenessError):
            cohomology_units(cyclic(4), 2, characteristic=2)
        assert cohomology_units(cyclic(4), 1, characteristic=3).value == \
            FinAbGroup.cyclic(4)

    def test_representatives_are_cocycles(self):
        h = cohomology_Z(cyclic(4), 2)
        d_out = bar_differential(cyclic(4), 2)
        for rep in h.representatives:
            assert not d_out.apply(rep)

    def test_memo_returns_equal_values(self):
        a = cohomology_Z(cyclic(6), 2)
        b = cohomology_Z(cyclic(6), 2)
        assert a.value == b.value and a.representatives == b.representatives

    def test_concurrent_calls_agree(self):
        import threading
        from stacky_brauer.cohomology import clear_cache
        clear_cache()
        results = [None] * 4
        def work(i):
            results[i] = cohomology_Z(cyclic(5), 2)
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.value == FinAbGroup.cyclic(5) for r in results)
        assert all(r.representatives == results[0].representatives
                   for r in results)


class TestCokernelRoute:
    """Integral cohomology in positive degree is read off coker(d_in) alone;
    homology_at, which eliminates d_out for its cycle basis and computes
    the free rank on its own, is the reference."""

    def test_matches_homology_at(self, family):
        for name, G in family:
            top = 4 if G.order <= 6 else 3
            for n in range(1, top + 1):
                d_out = bar_differential(G, n)
                d_in = bar_differential(G, n - 1)
                h = cohomology_Z(G, n)
                assert h.value == homology_at(d_out, d_in).quotient, (name, n)
                k = h.value.num_generators
                for i, rep in enumerate(h.representatives):
                    assert not d_out.apply(rep), (name, n, i)
                    unit = tuple(int(j == i) for j in range(k))
                    assert h.class_of(rep).coords == unit, (name, n, i)
                bview = d_in.col_view()
                for j in range(d_in.cols):
                    assert h.class_of(bview.get(j, {})).is_zero, (name, n, j)

    def test_class_of_rejects_non_cocycles(self):
        from stacky_brauer.errors import NotChainCompatibleError
        h = cohomology_Z(cyclic(4), 2)
        with pytest.raises(NotChainCompatibleError):
            h.class_of({0: 1})

    def test_bockstein_coordinates_change_by_the_basis_change(self):
        # H^3((Z/2)^3, Z) = (Z/2)^3 forces no basis, so the two routes pick
        # different generators; the identity cochain map carries one basis
        # to the other and every Bockstein class's coordinates with it
        G = direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))
        old = homology_at(bar_differential(G, 3), bar_differential(G, 2))
        new = cohomology_Z(G, 3).subquotient
        change = induced_map(IntegerMatrix.identity(old.ambient_dim), old, new)
        assert is_injective(change) and is_surjective(change)
        d2 = bar_differential(G, 2)
        classes = enumerate_extension_classes(G, 2)
        assert len(classes) == 64
        for c in classes:
            image = d2.apply(c.to_vector())
            divided = {k: v // 2 for k, v in image.items() if v // 2}
            assert change.apply(old.reduce(divided)) == bockstein_r(G, c).coords


class TestInflation:
    def test_identity(self):
        q = GroupHom.identity(cyclic(4))
        f = inflation_map(q, 2, INTEGERS)
        assert f.matrix.to_rows() == [[1]]

    def test_needs_surjection(self):
        i = GroupHom(cyclic(2), cyclic(4), (0, 2))
        with pytest.raises(ValidationError):
            inflation_map(i, 1, INTEGERS)

    def test_cyclic_inflation_h3_units_is_multiplication_by_m_squared(self):
        # On H^3(-, kx) = H^4(-, Z) the inflation along Z/mn -> Z/n is
        # multiplication by m^2 up to generator choice (the degree-2 map is
        # 1 |-> m and H^4 is its cup square), hence injective with cokernel
        # Z/m exactly when gcd(m, n) = 1.
        from math import gcd
        for (n, m) in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            f = inflation_map(cyclic_projection(m * n, n), 3, UNITS)
            entry = f.matrix.get(0, 0) % (m * n)
            assert gcd(entry, m * n) == (m * gcd(m, n)) % (m * n) or \
                (entry == 0 and m * gcd(m, n) % (m * n) == 0), (n, m, entry)
            assert is_injective(f) == (gcd(m, n) == 1), (n, m)
            assert cokernel_of_map(f) == FinAbGroup.cyclic(m * gcd(m, n)), (n, m)

    def test_cyclic_inflation_h1_units_is_canonical_injection(self):
        from math import gcd
        for (n, m) in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            f = inflation_map(cyclic_projection(m * n, n), 1, UNITS)
            entry = f.matrix.get(0, 0) % (m * n)
            # image is the index-m subgroup, independent of generator choices
            assert gcd(entry, m * n) == m, (n, m, entry)
            assert is_injective(f)
            assert cokernel_of_map(f) == FinAbGroup.cyclic(m)

    def test_projection_inflation_units_injective(self):
        # split surjection Z/a + Z/b ->> Z/a: inflation is (split) injective
        for (a, b) in [(2, 2), (2, 4), (3, 3)]:
            P = direct_product(cyclic(a), cyclic(b))
            for deg in (1, 2):
                f = inflation_map(P.proj_left, deg, UNITS)
                assert is_injective(f), (a, b, deg)
                assert is_split_injection(f), (a, b, deg)

    def test_functoriality(self):
        q1 = cyclic_projection(4, 2)
        q2 = GroupHom(cyclic(8), cyclic(4), tuple(x % 4 for x in range(8)))
        composite = q1.compose(q2)
        for coeff in (INTEGERS, mod_coefficients(4)):
            lhs = inflation_map(composite, 2, coeff)
            rhs = inflation_map(q2, 2, coeff).compose(inflation_map(q1, 2, coeff))
            assert lhs == rhs

    def test_split_surjection_split_injection_all_degrees(self):
        P = direct_product(cyclic(2), cyclic(3))
        section = GroupHom(cyclic(2), P, tuple(g * 3 for g in range(2)))
        for deg in (1, 2, 3):
            f = inflation_map(P.proj_left, deg, mod_coefficients(4))
            assert is_split_injection(f)
            # the retraction really is restriction along the section
            r = restriction_map(section, deg, mod_coefficients(4))
            assert r.compose(f) == type(f).identity(f.source)

    def test_kernel_trivial_matches_full_map(self):
        pairs = [(4, 2), (6, 2), (6, 3), (8, 4)]
        for mn, n in pairs:
            q = cyclic_projection(mn, n)
            assert inflation_kernel_trivial(q, 4) == \
                is_injective(inflation_map(q, 3, UNITS)), (mn, n)
            assert inflation_kernel_trivial(q, 3) == \
                is_injective(inflation_map(q, 2, UNITS)), (mn, n)


class TestKernelTrivialByHomology:
    """The homology route at |E| = 12 and 16, beyond the order-8 oracles."""

    def test_cyclic_projections_match_the_closed_form(self):
        # on H^4 inflation along Z/mn -> Z/n is multiplication by m^2, so it
        # is injective iff gcd(m, n) = 1; m = 1 (q the identity) is left
        # out: H^4(Z/16, Z) alone takes over a minute
        from math import gcd
        for mn in (12, 16):
            for n in range(1, mn):
                if mn % n:
                    continue
                got = _kernel_trivial_by_homology(cyclic_projection(mn, n),
                                                  cohomology_Z(cyclic(n), 4))
                assert got == (gcd(mn // n, n) == 1), (mn, n)

    @pytest.mark.parametrize("G, count", [
        (semidirect_cyclic_by_z2(3, 2), 2),      # S3, |E| = 12
        (semidirect_cyclic_by_z2(4, 3), 8),      # D4, |E| = 16
    ])
    def test_degree_three_matches_the_induced_map(self, G, count):
        classes = enumerate_extension_classes(G, 2)
        assert len(classes) == count
        for i, c in enumerate(classes):
            q = central_extension(G, 2, c).projection
            expected = is_injective(inflation_map(q, 2, UNITS))
            assert _kernel_trivial_by_homology(q, cohomology_Z(G, 3)) == expected, i


class TestRestriction:
    def test_identity(self):
        f = restriction_map(GroupHom.identity(cyclic(3)), 2, INTEGERS)
        assert f.matrix.to_rows() == [[1]]

    def test_needs_injection(self):
        q = cyclic_projection(4, 2)
        with pytest.raises(ValidationError):
            restriction_map(q, 1, INTEGERS)

    def test_index_two_subgroup_of_z4(self):
        # direct Hom computation: Hom(Z/4, Z/2) = {0, x -> x mod 2} and the
        # generator restricts to phi(2) = 0, so the restriction is the zero
        # map (with Z/4 coefficients it is surjective instead)
        i = GroupHom(cyclic(2), cyclic(4), (0, 2))
        f = restriction_map(i, 1, mod_coefficients(2))
        assert f.matrix.to_rows() == [[0]]
        assert not is_surjective(f)
        f4 = restriction_map(i, 1, mod_coefficients(4))
        assert is_surjective(f4)

    def test_restriction_to_trivial_subgroup_is_zero(self):
        triv = GroupHom(trivial_group(), cyclic(4), (0,))
        for n in (1, 2):
            f = restriction_map(triv, n, mod_coefficients(4))
            assert f.target.is_trivial


class TestInflationRestrictionExactness:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_degree_one_exactness_for_central_extensions(self, m):
        # 0 -> H^1(G, Z/m) -> H^1(E, Z/m) -> H^1(Z/r, Z/m), exact at the
        # first two spots, for every central extension in a small family
        specimens = []
        for G in (cyclic(2), cyclic(3), direct_product(cyclic(2), cyclic(2))):
            for r in (2, 3):
                for c in enumerate_extension_classes(G, r):
                    specimens.append(central_extension(G, r, c))
        for ext in specimens:
            inf = inflation_map(ext.projection, 1, mod_coefficients(m))
            res = restriction_map(ext.kernel_embedding, 1, mod_coefficients(m))
            assert is_injective(inf)
            comp = res.compose(inf)
            assert comp == type(comp).zero(comp.source, comp.target)
            # im(inf) = ker(res): orders agree and one contains the other
            assert image_group(inf).order() == kernel_group(res).order()


class TestBockstein:
    def test_split_cocycle_vanishes(self, family):
        for name, G in family:
            if G.order > 6:
                continue
            assert bockstein_r(G, Cocycle2.zero(G, 2)).is_zero, name

    def test_z4_class_vanishes_in_trivial_group(self):
        C2 = cyclic(2)
        c = Cocycle2(C2, 2, [[0, 0], [0, 1]])
        beta = bockstein_r(C2, c)
        assert beta.parent.value.is_trivial and beta.is_zero

    def test_quaternion_class_nonzero(self):
        c = quaternion_cocycle()
        beta = bockstein_r(c.base, c)
        assert beta.parent.value == FinAbGroup.cyclic(2)
        assert not beta.is_zero

    def test_lift_independence(self):
        # perturbing the integral lift by r * (anything) keeps the class
        c = quaternion_cocycle()
        vec = c.to_vector()
        base = bockstein(c.base, vec, 2, 2).coords
        rng = random.Random(5)
        for _ in range(5):
            pert = {k: v + 2 * rng.randint(-2, 2) for k, v in vec.items()}
            assert bockstein(c.base, pert, 2, 2).coords == base

    def test_coboundary_invariance(self):
        # shifting the cocycle by a coboundary keeps the Bockstein class
        c = quaternion_cocycle()
        G = c.base
        d1 = bar_differential(G, 1)
        vec = dict(c.to_vector())
        cob = d1.apply({0: 1, 2: 1})
        shifted = dict(vec)
        for k, v in cob.items():
            shifted[k] = (shifted.get(k, 0) + v) % 2
        shifted = {k: v for k, v in shifted.items() if v}
        assert bockstein(G, shifted, 2, 2).coords == \
            bockstein(G, vec, 2, 2).coords


class TestExtensionClasses:
    def test_counts(self):
        assert len(enumerate_extension_classes(cyclic(2), 2)) == 2
        assert len(enumerate_extension_classes(trivial_group(), 5)) == 1
        V = direct_product(cyclic(2), cyclic(2))
        assert len(enumerate_extension_classes(V, 2)) == 8

    def test_classes_start_split_and_validate(self):
        classes = enumerate_extension_classes(cyclic(4), 2)
        assert classes[0].is_zero
        for c in classes:
            central_extension(cyclic(4), 2, c)

    # sha256 of the cocycle tables of enumerate_extension_classes(G, r) and
    # of the Z/r representatives in degrees 0..2.  The benchmark documents
    # embed these cocycles, so a changed basis must fail here first.
    PINNED = {
        ("Z/2", 2): "3ee398a66b754acef161db545bb83e836679200b728ea1793498e0db8c840262",
        ("Z/2", 3): "f299b5f58ca7a55ca95c778862f7fce720dcef4193a1dc9e829ae6a319ae667e",
        ("Z/2", 4): "f0c61de49bba061a1d503c0f3fd4101beff1ff3b18aa8ae69767e9ecd94cf9c9",
        ("Z/4", 2): "6a05ae63fae681809e16ae6283dc703eb660eba827fe86d840647ecfba2e82be",
        ("Z/4", 3): "487c9cd86ad67d5ab73ad8c8dd5726f38fa9335d2ed3aaa3fb987c9cf137cede",
        ("Z/4", 4): "3e643533157262ad4ddbc026aa32f0709e252e180860fd598b32b7d740704890",
        ("V4", 2): "e01b83229d592878b088382be779baed7153d1c891be2d3f6d53bd4acf4b704a",
        ("V4", 3): "487c9cd86ad67d5ab73ad8c8dd5726f38fa9335d2ed3aaa3fb987c9cf137cede",
        ("V4", 4): "f97348bdcfab976e8456d8cc878836cb1de87b378750f7bde86796abb67fad1d",
        ("S3", 2): "6b8b417d98e2bca22e5cd28b339b3aa09bacc8093cb554fa40f2e106f8df69b5",
        ("S3", 3): "1b0c914d9eea2779a3623b83860fd680b537ab0cd2f2b2b550cd144d79088c53",
        ("S3", 4): "5c13cb2b04d2e36b8a7ed63723eb0aa3b3de969bc61b5c5f1029e7911d6badd3",
        ("D4", 2): "11d12541abf2f15c3176b2ca864a3cfa9298f9116ffcd0f0099be7f2d4b94903",
        ("D4", 3): "3e4fb84f99853f1f4c7a22b2688c5e9483b19fa056f58267204d5acac6e95068",
        ("D4", 4): "3683ea060af9efff553ff1ac5be4b778a219e900282a2cd8ab163670cd2c1bfe",
    }

    def test_representatives_are_pinned(self):
        groups = {"Z/2": cyclic(2), "Z/4": cyclic(4),
                  "V4": direct_product(cyclic(2), cyclic(2)),
                  "S3": semidirect_cyclic_by_z2(3, 2),
                  "D4": semidirect_cyclic_by_z2(4, 3)}
        for (name, r), digest in self.PINNED.items():
            G = groups[name]
            h = hashlib.sha256()
            h.update(repr([c.values for c in enumerate_extension_classes(G, r)]).encode())
            for n in range(3):
                h.update(repr(cohomology_Zm(G, n, r).representatives).encode())
            assert h.hexdigest() == digest, (name, r)


class TestTorsionBound:
    def test_exponent_divides_group_order(self, family):
        # H^n(G, Z) is |G|-torsion for n >= 1
        for name, G in family:
            top = 4 if G.order <= 4 else 3
            for n in range(1, top + 1):
                value = cohomology_Z(G, n).value
                assert value.free_rank == 0, (name, n)
                exp = value.exponent()
                assert G.order % exp == 0, (name, n, str(value))

    def test_mod_m_coefficients_are_m_torsion(self, family):
        for name, G in family:
            if G.order > 6:
                continue
            for m in (2, 4):
                for n in range(0, 3):
                    value = cohomology_Zm(G, n, m).value
                    if not value.is_trivial:
                        assert m % value.exponent() == 0, (name, n, m)
