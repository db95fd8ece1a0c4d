import random
from itertools import product
from math import gcd

import pytest

from stacky_brauer.abelian import (
    AbGroupMap,
    FinAbGroup,
    IntegerMatrix,
    capped_power,
    cokernel,
    cokernel_of_map,
    determinant,
    finite_homology_at,
    hom_to_cyclic,
    homology_at,
    image_group,
    induced_map,
    invariant_factor_chain,
    is_injective,
    is_split_injection,
    is_surjective,
    kernel_basis,
    kernel_group,
    set_resource_cap,
    smith_normal_form,
)
from stacky_brauer.cohomology import bar_differential
from stacky_brauer.errors import (
    ChainCompositionError,
    NotChainCompatibleError,
    ResourceCapError,
    ValidationError,
)
from stacky_brauer.groups import cyclic
from stacky_brauer.oracle import _type_from_order_counts


class TestSmithNormalForm:
    def test_reorders_and_normalizes_divisibility(self):
        M = IntegerMatrix.from_rows([[3, 0], [0, 1]])
        S, U, V = smith_normal_form(M)
        assert S.diagonal() == [1, 3]
        assert (U @ M @ V) == S
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1

    def test_divisor_chain_matches_determinantal_oracle(self):
        M = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        S, U, V = smith_normal_form(M)
        # determinantal divisors: d1 = gcd of entries, d1*d2 = |det|
        d1 = gcd(gcd(2, 4), gcd(6, 8))
        det = abs(determinant(M))
        assert S.diagonal() == [d1, det // d1] == [2, 4]
        assert (U @ M @ V) == S

    def test_zero_matrix(self):
        M = IntegerMatrix.zeros(2, 3)
        S, U, V = smith_normal_form(M)
        assert S.is_zero()
        assert U == IntegerMatrix.identity(2)
        assert V == IntegerMatrix.identity(3)

    def test_idempotence_and_unimodularity_random(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            S, U, V = smith_normal_form(M)
            assert (U @ M @ V) == S
            assert abs(determinant(U)) == 1
            assert abs(determinant(V)) == 1
            assert S.is_diagonal()
            nz = [d for d in S.diagonal() if d]
            assert all(d > 0 for d in nz)
            assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
            S2, _, _ = smith_normal_form(S)
            assert S2 == S

    def test_resource_cap(self):
        set_resource_cap(10)
        try:
            M = IntegerMatrix.from_rows([[1] * 10 for _ in range(10)])
            with pytest.raises(ResourceCapError):
                smith_normal_form(M)
        finally:
            set_resource_cap(5_000_000)


    def test_capped_power_refuses_a_huge_power_unformed(self):
        with pytest.raises(ResourceCapError) as huge:
            capped_power(3, 10 ** 11)
        assert huge.value.needed == "3^100000000000"
        with pytest.raises(ResourceCapError) as exact:
            capped_power(3, 31)
        assert exact.value.needed == 3 ** 31
        assert capped_power(1, 10 ** 11) == 1
        assert capped_power(7, 4) == 2401
        assert capped_power(2, 9, cap=512) == 512


class TestCokernel:
    def test_single_factor(self):
        assert cokernel(IntegerMatrix.from_rows([[7]])) == FinAbGroup.cyclic(7)

    def test_z2_quotient_matches_brute_enumeration(self):
        # columns (2,0), (0,2), (1,1): quotient of Z^2 enumerated directly
        M = IntegerMatrix.from_rows([[2, 0, 1], [0, 2, 1]])
        # brute force: the lattice contains (1,1) and (2,0), hence index 2
        lattice = set()
        for a in range(-10, 11):
            for b in range(-10, 11):
                for c in range(-10, 11):
                    lattice.add((2 * a + c, 2 * b + c))
        classes = set()
        for x in range(4):
            for y in range(4):
                rep = min((x - u, y - v) for (u, v) in lattice
                          if abs(x - u) <= 4 and abs(y - v) <= 4)
                classes.add(rep)
        assert len(classes) == 2
        assert cokernel(M) == FinAbGroup.cyclic(2)

    def test_no_columns_gives_free_group(self):
        assert cokernel(IntegerMatrix(2, 0)) == FinAbGroup.free(2)

    def test_invariant_under_unimodular_changes(self):
        rng = random.Random(11)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = IntegerMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
            base = cokernel(M)
            # random unimodular row/column transforms: shear products
            L = IntegerMatrix.identity(m)
            R = IntegerMatrix.identity(n)
            for _ in range(4):
                i, j = rng.randrange(m), rng.randrange(m)
                if i != j:
                    ent = {(a, a): 1 for a in range(m)}
                    ent[(i, j)] = rng.randint(-3, 3)
                    L = IntegerMatrix(m, m, ent) @ L
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    ent = {(a, a): 1 for a in range(n)}
                    ent[(i, j)] = rng.randint(-3, 3)
                    R = R @ IntegerMatrix(n, n, ent)
            assert cokernel(L @ M @ R) == base


class TestKernelAndSolve:
    def test_kernel_annihilates(self):
        M = IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        K = kernel_basis(M)
        assert K.cols == 2
        assert (M @ K).is_zero()


class TestHomologyAt:
    def test_cyclic_quotient(self):
        sq = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.from_rows([[5]]))
        assert sq.quotient == FinAbGroup.cyclic(5)

    def test_trivial_kernel(self):
        sq = homology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(1, 0))
        assert sq.quotient.is_trivial

    def test_bar_slice_of_z2(self):
        # normalized bar complex of Z/2 in degree 2 over Z: d_out = [0], d_in = [2];
        # the periodic-resolution oracle for cyclic groups gives H^2(Z/2, Z) = Z/2
        sq = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.from_rows([[2]]))
        assert sq.quotient == FinAbGroup.cyclic(2)

    def test_composition_check(self):
        with pytest.raises(ChainCompositionError):
            homology_at(IntegerMatrix.from_rows([[1]]), IntegerMatrix.from_rows([[1]]))

    def test_composition_check_on_a_broken_bar_differential(self):
        d_out = bar_differential(cyclic(3), 2)
        d_in = bar_differential(cyclic(3), 1)
        (r, c), v = min(d_out.entries.items())
        entries = dict(d_out.entries)
        entries[(r, c)] = -v
        broken = IntegerMatrix(d_out.rows, d_out.cols, entries)
        # flipping one sign changes the product by even multiples only
        assert not (broken @ d_in).is_zero()
        with pytest.raises(ChainCompositionError):
            finite_homology_at(broken, d_in)
        with pytest.raises(ChainCompositionError):
            homology_at(broken, d_in, modulus=3)
        # the same composition is zero mod 2, so the mod-2 check passes
        assert homology_at(broken, d_in, modulus=2).quotient == \
            homology_at(d_out, d_in, modulus=2).quotient

    def test_composition_zero_mod_m_passes(self):
        sq = homology_at(IntegerMatrix.from_rows([[1]]),
                         IntegerMatrix.from_rows([[3]]), modulus=3)
        assert sq.quotient.is_trivial

    def test_lift_round_trip(self):
        d_out = IntegerMatrix.zeros(2, 2)
        d_in = IntegerMatrix.from_rows([[2, 0], [0, 6]])
        sq = homology_at(d_out, d_in)
        assert sq.quotient == FinAbGroup(0, (2, 6))
        for i, lift in enumerate(sq.lifts):
            coords = sq.reduce(lift)
            expected = tuple(1 if j == i else 0 for j in range(len(sq.lifts)))
            assert coords == expected

    def test_modulus_case(self):
        # one ambient coordinate, zero differentials, mod 4: H = Z/4
        sq = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.zeros(1, 0),
                         modulus=4)
        assert sq.quotient == FinAbGroup.cyclic(4)
        assert sq.reduce(sq.lifts[0]) == (1,)


class TestInducedMap:
    def test_identity(self):
        sq = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.from_rows([[4]]))
        f = induced_map(IntegerMatrix.identity(1), sq, sq)
        assert f == AbGroupMap.identity(sq.quotient)

    def test_multiplication(self):
        sq = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.from_rows([[5]]))
        f = induced_map(IntegerMatrix.from_rows([[3]]), sq, sq)
        assert f.matrix.to_rows() == [[3]]

    def test_chain_compatibility_enforced(self):
        src = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.zeros(1, 0))
        dst = homology_at(IntegerMatrix.from_rows([[1]]), IntegerMatrix.zeros(1, 0))
        with pytest.raises(NotChainCompatibleError):
            induced_map(IntegerMatrix.identity(1), src, dst)

    def test_boundaries_must_go_to_boundaries(self):
        # Z/2 -> Z by the identity: the cycle 1 stays a cycle, but the
        # boundary 2 is not a boundary in Z
        src = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.from_rows([[2]]))
        dst = homology_at(IntegerMatrix.zeros(1, 1), IntegerMatrix.zeros(1, 0))
        with pytest.raises(NotChainCompatibleError):
            induced_map(IntegerMatrix.identity(1), src, dst)


class TestHomToCyclic:
    def test_examples(self):
        assert hom_to_cyclic(FinAbGroup.cyclic(6), 4) == FinAbGroup.cyclic(2)
        assert hom_to_cyclic(FinAbGroup(2, (3,)), 3) == FinAbGroup(0, (3, 3, 3))
        assert hom_to_cyclic(FinAbGroup.trivial(), 12) == FinAbGroup.trivial()
        assert hom_to_cyclic(FinAbGroup.cyclic(6), 1) == FinAbGroup.trivial()


class TestMapPredicates:
    def test_zero_map(self):
        f = AbGroupMap.zero(FinAbGroup.cyclic(2), FinAbGroup.cyclic(4))
        assert not is_injective(f)
        assert not is_surjective(f)

    def test_apply_reduces_torsion_coordinates(self):
        f = AbGroupMap.from_rows(FinAbGroup.free(1), FinAbGroup(1, (4,)),
                                 [[3], [5]])
        assert f.apply((1,)) == (3, 5)
        assert f.apply((2,)) == (2, 10)

    def test_canonical_injection(self):
        f = AbGroupMap.from_rows(FinAbGroup.cyclic(3), FinAbGroup.cyclic(6), [[2]])
        assert is_injective(f)
        assert cokernel_of_map(f) == FinAbGroup.cyclic(2)

    def test_identity_both(self):
        A = FinAbGroup(1, (2, 4))
        f = AbGroupMap.identity(A)
        assert is_injective(f) and is_surjective(f)

    def test_split_examples(self):
        Z2 = FinAbGroup.cyclic(2)
        # Z/2 into Z/2 + Z/3 = Z/6 as the order-2 element
        f = AbGroupMap.from_rows(Z2, FinAbGroup.cyclic(6), [[3]])
        assert is_split_injection(f)
        # 1 |-> 2 into Z/4: image is not a direct summand
        g = AbGroupMap.from_rows(Z2, FinAbGroup.cyclic(4), [[2]])
        assert is_injective(g)
        assert not is_split_injection(g)
        # first coordinate of Z/2 + Z/2
        h = AbGroupMap.from_rows(Z2, FinAbGroup(0, (2, 2)), [[1], [0]])
        assert is_split_injection(h)

    def test_split_implies_injective_random(self):
        rng = random.Random(3)
        groups = [FinAbGroup.cyclic(n) for n in (2, 3, 4, 6)] + \
                 [FinAbGroup(0, (2, 4)), FinAbGroup(0, (2, 2)), FinAbGroup(1, (2,))]
        checked = 0
        for _ in range(300):
            A = rng.choice(groups)
            B = rng.choice(groups)
            rows = [[rng.randint(-4, 4) for _ in range(A.num_generators)]
                    for _ in range(B.num_generators)]
            try:
                f = AbGroupMap.from_rows(A, B, rows)
            except ValidationError:
                continue
            if is_split_injection(f):
                assert is_injective(f)
                checked += 1
        assert checked > 5

    def test_split_injection_matches_retraction_search(self):
        # oracle: enumerate every well-defined g: B -> A (generator images
        # killed by the generator's relation order) and look for g . f = id
        def elements(G):
            return list(product(*(range(d) for d in G.invariant_factors)))

        def respects(G, d, x):
            return all(d * v % e == 0 for v, e in zip(x, G.invariant_factors))

        groups = [FinAbGroup.from_factors(fs) for fs in
                  ([], [2], [3], [4], [5], [6], [7], [8],
                   [2, 2], [2, 4], [2, 2, 2])]
        rng = random.Random(11)
        counts = {True: 0, False: 0}
        for _ in range(400):
            A, B = rng.choice(groups), rng.choice(groups)
            columns = [rng.choice([y for y in elements(B) if respects(B, d, y)])
                       for d in A.invariant_factors]
            f = AbGroupMap(A, B, IntegerMatrix.from_columns(
                B.num_generators,
                ({i: v for i, v in enumerate(col) if v} for col in columns)))
            units = [tuple(int(i == j) for i in range(A.num_generators))
                     for j in range(A.num_generators)]
            choices = [[x for x in elements(A) if respects(A, e, x)]
                       for e in B.invariant_factors]
            retracts = False
            for images in product(*choices):
                retracts = all(
                    tuple(sum(c * x[i] for c, x in zip(col, images)) % d
                          for i, d in enumerate(A.invariant_factors)) == unit
                    for col, unit in zip(columns, units))
                if retracts:
                    break
            assert is_split_injection(f) == retracts, (A, B, columns)
            counts[retracts] += 1
        assert counts[True] > 50 and counts[False] > 50, counts

    def test_kernel_and_image_groups(self):
        f = AbGroupMap.from_rows(FinAbGroup.cyclic(4), FinAbGroup.cyclic(4), [[2]])
        assert kernel_group(f) == FinAbGroup.cyclic(2)
        assert image_group(f) == FinAbGroup.cyclic(2)

    def test_predicates_match_brute_force(self):
        # oracle: list the source elements, apply f, and rebuild kernel,
        # image and cokernel from order statistics of the element sets
        def elements(G):
            return list(product(*(range(d) for d in G.invariant_factors)))

        def killed(G, k, x):
            return all(k * v % d == 0 for v, d in zip(x, G.invariant_factors))

        groups = [FinAbGroup.from_factors(fs) for fs in
                  ([], [2], [3], [4], [5], [6], [8], [9], [12], [16],
                   [2, 2], [2, 4], [2, 6], [2, 8], [3, 3], [4, 4],
                   [2, 2, 2], [2, 2, 4], [2, 2, 2, 2])]
        rng = random.Random(17)
        seen = {"inj": 0, "not-inj": 0, "surj": 0, "not-surj": 0}
        for _ in range(300):
            A, B = rng.choice(groups), rng.choice(groups)
            columns = [rng.choice([y for y in elements(B) if killed(B, d, y)])
                       for d in A.invariant_factors]
            f = AbGroupMap(A, B, IntegerMatrix.from_columns(
                B.num_generators,
                ({i: v for i, v in enumerate(col) if v} for col in columns)))
            zero = tuple(0 for _ in B.invariant_factors)
            kernel = [x for x in elements(A) if f.apply(x) == zero]
            image_set = {f.apply(x) for x in elements(A)}
            image = sorted(image_set)

            def in_image(y):
                return tuple(v % d for v, d in zip(y, B.invariant_factors)) in image_set

            cosets = {}
            for y in elements(B):
                key = min(tuple((v + w) % d for v, w, d in
                                zip(y, z, B.invariant_factors)) for z in image)
                cosets.setdefault(key, y)
            assert is_injective(f) == (len(kernel) == 1), (A, B, columns)
            assert is_surjective(f) == (len(image) == B.order()), (A, B, columns)
            assert kernel_group(f) == _type_from_order_counts(
                kernel, lambda k, x: killed(A, k, x), len(kernel)), (A, B, columns)
            assert image_group(f) == _type_from_order_counts(
                image, lambda k, y: killed(B, k, y), len(image)), (A, B, columns)
            assert cokernel_of_map(f) == _type_from_order_counts(
                list(cosets.values()), lambda k, y: in_image([k * v for v in y]),
                len(cosets)), (A, B, columns)
            seen["inj" if len(kernel) == 1 else "not-inj"] += 1
            seen["surj" if len(image) == B.order() else "not-surj"] += 1
        assert min(seen.values()) > 30, seen


class TestFinAbGroup:
    def test_canonical_validation(self):
        with pytest.raises(ValidationError):
            FinAbGroup(0, (4, 2))
        with pytest.raises(ValidationError):
            FinAbGroup(0, (1, 2))

    def test_from_factors_canonicalizes(self):
        assert FinAbGroup.from_factors([2, 3]) == FinAbGroup.cyclic(6)
        assert FinAbGroup.from_factors([4, 6]) == FinAbGroup(0, (2, 12))
        assert FinAbGroup.from_factors([2, 0, 2]) == FinAbGroup(1, (2, 2))

    def test_invariant_factor_chain(self):
        assert invariant_factor_chain([6, 4]) == (2, 12)
        assert invariant_factor_chain([1, 1]) == ()
        assert invariant_factor_chain([2, 2, 3]) == (2, 6)

    def test_display(self):
        assert str(FinAbGroup.trivial()) == "0"
        assert str(FinAbGroup(1, (2, 4))) == "Z/2 + Z/4 + Z"
