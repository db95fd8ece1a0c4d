from collections import Counter

import pytest

from stacky_brauer.abelian import set_resource_cap
from stacky_brauer.cohomology import enumerate_extension_classes
from stacky_brauer.errors import ResourceCapError, ValidationError
from stacky_brauer.groups import (
    Cocycle2,
    FiniteGroup,
    GroupHom,
    are_isomorphic,
    central_extension,
    cyclic,
    direct_product,
    section,
    semidirect_cyclic_by_z2,
    split_extension,
)
from conftest import quaternion_cocycle


class TestConstructors:
    def test_cyclic(self):
        assert cyclic(1).order == 1
        assert cyclic(4).order == 4
        assert cyclic(4).is_cyclic

    def test_product_of_coprime_cyclics_is_cyclic(self):
        P = direct_product(cyclic(2), cyclic(3))
        assert are_isomorphic(P, cyclic(6))
        assert P.proj_left.is_surjective and P.proj_right.is_surjective

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [1, 1]])   # not a Latin square / no inverse
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [0, 1]])   # no two-sided identity
        with pytest.raises(ValidationError):
            # closed with identity and inverses but not associative
            FiniteGroup([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]])


    def test_order_is_capped_before_the_table(self):
        # the associativity walk takes |G|^3 steps; a huge order is refused
        # before its |G| x |G| table is built
        for build in (lambda: cyclic(10 ** 7),
                      lambda: semidirect_cyclic_by_z2(10 ** 6, 1),
                      lambda: direct_product(cyclic(100), cyclic(100))):
            with pytest.raises(ResourceCapError, match="associativity"):
                build()

    def test_extension_group_is_not_capped_by_its_order(self):
        # E's order cubed (and r's) exceed this cap: the extension is still
        # built, and only the costly questions about E degrade to unknown
        V = direct_product(cyclic(2), cyclic(2))
        set_resource_cap(100)
        try:
            ext = split_extension(V, 5)
        finally:
            set_resource_cap(5_000_000)
        assert ext.total.order == 20


class TestSemidirect:
    def test_dihedral(self):
        D4 = semidirect_cyclic_by_z2(4, 3)
        assert D4.order == 8
        assert not D4.is_abelian
        assert Counter(D4.element_orders()) == Counter({1: 1, 2: 5, 4: 2})

    def test_trivial_action_is_abelian(self):
        G = semidirect_cyclic_by_z2(5, 1)
        assert G.is_abelian
        assert are_isomorphic(G, cyclic(10))

    def test_semidihedral_order_16_validates(self):
        G = semidirect_cyclic_by_z2(8, 3)
        assert G.order == 16
        assert not G.is_abelian

    def test_invalid_action(self):
        with pytest.raises(ValidationError):
            semidirect_cyclic_by_z2(5, 2)

    def test_inversion_nonabelian_for_n_at_least_3(self):
        for n in (3, 4, 5, 6):
            assert not semidirect_cyclic_by_z2(n, n - 1).is_abelian
        for n in (1, 2, 3, 5):
            assert semidirect_cyclic_by_z2(n, 1).is_abelian


class TestCocycles:
    def test_normalization_enforced(self):
        C2 = cyclic(2)
        with pytest.raises(ValidationError):
            Cocycle2(C2, 2, [[1, 0], [0, 0]])

    def test_cocycle_identity_enforced(self):
        C3 = cyclic(3)
        bad = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        with pytest.raises(ValidationError):
            Cocycle2(C3, 3, bad)

    def test_vector_round_trip(self):
        c = quaternion_cocycle()
        assert Cocycle2.from_vector(c.base, 2, c.to_vector()) == c


class TestCentralExtensions:
    def test_z4_from_nontrivial_cocycle(self):
        C2 = cyclic(2)
        ext = central_extension(C2, 2, Cocycle2(C2, 2, [[0, 0], [0, 1]]))
        assert are_isomorphic(ext.total, cyclic(4))

    def test_split_gives_product(self):
        C2 = cyclic(2)
        ext = split_extension(C2, 2)
        assert are_isomorphic(ext.total, direct_product(C2, cyclic(2)))

    def test_quaternion(self):
        c = quaternion_cocycle()
        ext = central_extension(c.base, 2, c)
        Q8 = ext.total
        assert Q8.order == 8
        assert not Q8.is_abelian
        # unique element of order 2 characterizes Q8 among order-8 groups
        assert Counter(Q8.element_orders())[2] == 1

    def test_kernel_is_central_and_exact(self, family):
        for name, G in family:
            if G.order > 4:
                continue
            ext = split_extension(G, 3)
            proj, embed = ext.projection, ext.kernel_embedding
            kernel = {x for x in range(ext.total.order)
                      if proj(x) == G.identity}
            assert kernel == set(embed.image)
            for z in kernel:
                assert all(ext.total.mul(z, x) == ext.total.mul(x, z)
                           for x in range(ext.total.order))

    def test_modulus_one_degenerates(self):
        ext = split_extension(cyclic(3), 1)
        assert ext.total.order == 3


class TestGroupHom:
    def test_not_a_hom_rejected(self):
        with pytest.raises(ValidationError):
            GroupHom(cyclic(2), cyclic(3), (0, 1))

    def test_compose(self):
        q1 = GroupHom(cyclic(4), cyclic(2), (0, 1, 0, 1))
        q2 = GroupHom(cyclic(8), cyclic(4), tuple(x % 4 for x in range(8)))
        comp = q1.compose(q2)
        assert comp.image == tuple(x % 2 for x in range(8))


class TestSection:
    def test_exactly_the_split_class_has_a_section(self):
        V = direct_product(cyclic(2), cyclic(2))
        S3 = semidirect_cyclic_by_z2(3, 2)
        cases = [(cyclic(2), 2), (cyclic(2), 3), (cyclic(2), 4),
                 (cyclic(3), 2), (cyclic(3), 3), (cyclic(4), 2),
                 (cyclic(5), 2), (V, 2), (S3, 2)]
        for G, r in cases:
            for i, c in enumerate(enumerate_extension_classes(G, r)):
                q = central_extension(G, r, c).projection
                s = section(q)
                assert (s is not None) == (i == 0), (G, r, i)
                if s is not None:
                    assert s.source == G and s.target == q.source
                    assert q.compose(s) == GroupHom.identity(G)

    def test_nonsplit_class_over_s3_is_dicyclic(self):
        S3 = semidirect_cyclic_by_z2(3, 2)
        E = central_extension(S3, 2, enumerate_extension_classes(S3, 2)[1]).total
        # the dicyclic group of order 12 has a unique involution
        assert Counter(E.element_orders())[2] == 1

    def test_no_section_for_nonsplit_surjections(self):
        c = quaternion_cocycle()
        assert section(central_extension(c.base, 2, c).projection) is None
        assert section(GroupHom(cyclic(4), cyclic(2), (0, 1, 0, 1))) is None

    def test_split_class_given_by_a_nonzero_coboundary(self):
        # c = delta f for a normalized f: G -> Z/4 that is not a homomorphism;
        # over the Klein group the lifts g -> (g; 0) of the generators have
        # order 4, so the section must use other preimages
        V = direct_product(cyclic(2), cyclic(2))
        for G, f in [(cyclic(4), (0, 1, 3, 2)), (V, (0, 1, 1, 3))]:
            r = 4
            c = Cocycle2(G, r, [[f[g] + f[h] - f[G.mul(g, h)] for h in range(4)]
                                for g in range(4)])
            assert not c.is_zero
            ext = central_extension(G, r, c)
            with pytest.raises(ValidationError):
                # the zero-coordinate lift g -> (g; 0) is not a homomorphism
                GroupHom(G, ext.total, tuple(g * r for g in range(4)))
            s = section(ext.projection)
            assert s is not None
            assert ext.projection.compose(s) == GroupHom.identity(G)


class TestIsomorphism:
    def test_distinguishes_order_8_groups(self):
        c = quaternion_cocycle()
        Q8 = central_extension(c.base, 2, c).total
        D4 = semidirect_cyclic_by_z2(4, 3)
        assert not are_isomorphic(Q8, D4)
        assert not are_isomorphic(Q8, cyclic(8))
        assert are_isomorphic(Q8, Q8)

    def test_abelian_types(self):
        assert not are_isomorphic(direct_product(cyclic(2), cyclic(4)), cyclic(8))
        assert are_isomorphic(direct_product(cyclic(4), cyclic(2)),
                              direct_product(cyclic(2), cyclic(4)))

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            are_isomorphic(cyclic(17), cyclic(17))
