import sys
import threading
from collections import Counter
from importlib import import_module
from itertools import product

import pytest

from stacky_brauer.abelian import set_resource_cap
from stacky_brauer.cohomology import (
    clear_cache,
    comparison_chains,
    enumerate_extension_classes,
    free_resolution,
)
from stacky_brauer.errors import ResourceCapError, ValidationError
from stacky_brauer.groups import (
    Cocycle2,
    FiniteGroup,
    GroupHom,
    central_extension,
    cyclic,
    direct_product,
    section,
    semidirect_cyclic_by_z2,
    split_extension,
)
from stacky_brauer.oracle import are_isomorphic
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


class TestExtensionMemo:
    """central_extension builds and validates each table once."""

    def test_equal_data_share_one_extension(self):
        # cyclic(4) is built once per process, so H is built from its data
        G = cyclic(4)
        H = FiniteGroup(G.table, labels=G.labels)
        assert G is not H
        ext = central_extension(G, 2, Cocycle2.zero(G, 2))
        assert central_extension(H, 2, Cocycle2.zero(H, 2)) is ext
        assert split_extension(H, 2) is ext

    def test_built_split_extension_is_found_without_a_cocycle(self, monkeypatch):
        # split_extension looks the memo up by the zero cocycle's values;
        # a key that drifted from central_extension's would miss every time
        groups = import_module("stacky_brauer.groups")
        G = cyclic(3)
        ext = central_extension(G, 4, Cocycle2.zero(G, 4))

        def refuse(*args):
            raise AssertionError("memo miss")

        monkeypatch.setattr(groups, "central_extension", refuse)
        monkeypatch.setattr(Cocycle2, "zero", refuse)
        assert split_extension(cyclic(3), 4) is ext

    def test_other_data_get_other_extensions(self):
        G = cyclic(4)
        ext = split_extension(G, 2)
        nonsplit = enumerate_extension_classes(G, 2)[1]
        # the same table without labels: E's base must keep its own labels
        unlabeled = FiniteGroup(G.table)
        others = [split_extension(G, 3), central_extension(G, 2, nonsplit),
                  split_extension(unlabeled, 2)]
        assert all(other is not ext for other in others)
        assert split_extension(unlabeled, 2).base.labels is None
        # a coboundary gives an isomorphic extension, but not the same table
        b = [0, 1, 0, 0]
        coboundary = Cocycle2(G, 2, [[(b[g] + b[h] - b[G.mul(g, h)]) % 2
                                      for h in range(4)] for g in range(4)])
        assert not coboundary.is_zero
        assert central_extension(G, 2, coboundary) is not ext

    def test_clear_cache_drops_the_memo(self):
        # extensions, resolutions and comparison chains share one store
        ext = split_extension(cyclic(3), 2)
        R, psi = free_resolution(ext.total), comparison_chains(ext.projection, 2)
        assert split_extension(cyclic(3), 2) is ext
        assert free_resolution(ext.total) is R
        assert comparison_chains(ext.projection, 2) is psi
        clear_cache()
        again = split_extension(cyclic(3), 2)
        assert again is not ext
        assert again.total == ext.total
        assert free_resolution(again.total) is not R
        assert comparison_chains(again.projection, 2) is not psi
        assert comparison_chains(again.projection, 2) == psi

    def test_concurrent_callers_share_one_extension(self):
        # more threads than cores, switching often: every first caller
        # must get the one stored object
        V = direct_product(cyclic(2), cyclic(2))
        c = enumerate_extension_classes(V, 4)[3]
        clear_cache()
        results = []

        def work():
            results.append(central_extension(V, 4, c))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            clear_cache()
        assert len(results) == 8
        assert all(ext is results[0] for ext in results)


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


class TestRefusalsKeepTheirMessages:
    """GroupHom and central_extension index the tables in place; every check
    runs in its old order with its old message."""

    def test_group_hom_refusals(self):
        V = direct_product(cyclic(2), cyclic(2))
        # the last map keeps every square, (0, 1) + (1, 0) = (1, 1) breaks it
        for source, image, message in (
                (cyclic(4), (0, 1, 0), "image list length mismatch"),
                (cyclic(4), (0, 1, 0, 2), "image index out of range"),
                (cyclic(4), (0, 0, 1, 1), "not a homomorphism"),
                (V, (0, 1, 1, 1), "not a homomorphism")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                GroupHom(source, cyclic(2), image)

    def test_mismatched_cocycle_is_refused(self):
        c = Cocycle2.zero(cyclic(2), 2)
        for G, r in ((cyclic(2), 3), (cyclic(3), 2)):
            with pytest.raises(ValidationError, match="^cocycle does not match the "
                                                      "requested extension data$"):
                central_extension(G, r, c)

    def test_a_total_group_whose_kernel_is_not_central_is_refused(self, monkeypatch):
        # no cocycle gives one (c(e, h) = c(h, e) for every 2-cocycle), so the
        # built table is replaced by S3 with its rotations at 0, 1, 2: the
        # projection (sign) and the embedding of Z/3 are homomorphisms, and
        # the embedded Z/3 is the projection's kernel but not central
        def s3(x, y):
            a, b = x % 3, y % 3
            if x < 3:
                return (a + b) % 3 if y < 3 else 3 + (b - a) % 3
            return 3 + (a + b) % 3 if y < 3 else (b - a) % 3

        extensions = import_module("stacky_brauer.extensions")
        table = [[s3(x, y) for y in range(6)] for x in range(6)]
        monkeypatch.setattr(extensions, "FiniteGroup",
                            lambda rows, labels: FiniteGroup(table, labels=labels))
        clear_cache()
        with pytest.raises(ValidationError, match="^extension is not central$"):
            central_extension(cyclic(2), 3, Cocycle2.zero(cyclic(2), 3))
        clear_cache()

    def test_tables_are_the_cocycle_formula(self, family):
        # (g, s)(h, t) = (gh, s + t + c(g, h)) at index g * r + t
        for name, G in family:
            for r in (2, 3):
                if G.order * r > 16:
                    continue
                for c in enumerate_extension_classes(G, r):
                    E = central_extension(G, r, c).total
                    assert E.table == tuple(
                        tuple(G.mul(g, h) * r + (s + t + c.values[g][h]) % r
                              for h in range(G.order) for t in range(r))
                        for g in range(G.order) for s in range(r)), (name, r)


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

    @staticmethod
    def generated(G, elements):
        """The subgroup generated by elements, closed under all products."""
        closure = {G.identity, *elements}
        while True:
            grown = closure | {G.mul(a, b) for a in closure for b in closure}
            if grown == closure:
                return closure
            closure = grown

    def test_generating_sequence_is_greedy(self, family):
        extensions = import_module("stacky_brauer.extensions")
        groups = [G for _, G in family] + [
            central_extension(G, r, c).total for _, G in family if G.order <= 4
            for r in (2, 3) for c in enumerate_extension_classes(G, r)]
        for G in groups:
            gens = extensions._generating_sequence(G)
            for i, g in enumerate(gens):
                earlier = self.generated(G, gens[:i])
                assert g == min(set(range(G.order)) - earlier), (G, gens)
            assert self.generated(G, gens) == set(range(G.order)), (G, gens)

    def test_extend_hom_finds_exactly_the_homomorphisms(self, family):
        # every map G -> H is tried where there are at most 4096; the
        # homomorphisms among them are exactly what _extend_hom returns
        extensions = import_module("stacky_brauer.extensions")
        tried = 0
        for _, G in family:
            for _, H in family:
                if H.order ** G.order > 4096:
                    continue
                gens = extensions._generating_sequence(G)
                homs = {}
                for f in product(range(H.order), repeat=G.order):
                    if all(f[G.mul(a, b)] == H.mul(f[a], f[b])
                           for a in range(G.order) for b in range(G.order)):
                        homs[tuple(f[g] for g in gens)] = dict(enumerate(f))
                for images in product(range(H.order), repeat=len(gens)):
                    assert extensions._extend_hom(G, H, gens, images) == \
                        homs.get(images), (G, H, images)
                    tried += 1
        assert tried > 500, tried

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


class TestCyclicMemo:
    """groups.cyclic builds and validates one table per order."""

    def test_each_order_is_built_once(self, monkeypatch):
        clear_cache()
        built = []
        init = FiniteGroup.__init__

        def counting(self, table, labels=None):
            built.append(len(table))
            init(self, table, labels)

        monkeypatch.setattr(FiniteGroup, "__init__", counting)
        groups = [cyclic(n) for n in (5, 7, 5, 7, 5)]
        assert built == [5, 7]
        assert groups[0] is groups[2] is groups[4] and groups[1] is groups[3]
        clear_cache()

    def test_a_lower_cap_still_refuses_a_built_order(self):
        G = cyclic(30)
        try:
            set_resource_cap(30 ** 3 - 1)
            with pytest.raises(ResourceCapError, match="associativity"):
                cyclic(30)
        finally:
            set_resource_cap(5_000_000)
        assert cyclic(30) is G

    def test_clear_cache_drops_the_memo(self):
        G = cyclic(9)
        clear_cache()
        H = cyclic(9)
        assert H is not G and H == G and H.labels == G.labels

    def test_memo_is_bounded(self):
        maxsize = import_module("stacky_brauer.groups")._cyclic.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256
