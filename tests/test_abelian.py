import heapq
import random
import weakref
from importlib import import_module
from itertools import product
from math import gcd

import pytest

from stacky_brauer.abelian import (
    AbGroupMap,
    ColumnEchelon,
    FinAbGroup,
    IntegerMatrix,
    IntegerSpan,
    _CycleSolver,
    capped_power,
    check_cap,
    cokernel,
    cokernel_of_map,
    finite_homology_at,
    hom_to_cyclic,
    homology_at,
    induced_map,
    invariant_factor_chain,
    is_injective,
    is_split_injection,
    is_surjective,
    kernel_basis,
    set_resource_cap,
    xgcd,
)
from stacky_brauer.cohomology import bar_differential
from stacky_brauer.errors import (
    ChainCompositionError,
    NotChainCompatibleError,
    ResourceCapError,
    ValidationError,
)
from stacky_brauer.groups import cyclic
from stacky_brauer.oracle import (
    _type_from_order_counts,
    determinant,
    image_group,
    kernel_group,
    smith_normal_form,
)


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

    def test_kernel_basis_leaves_its_matrix_unchanged(self):
        M = IntegerMatrix.from_rows([[2, 4, 0, 1], [0, 6, 0, 3], [1, 0, 0, 5]])
        entries = dict(M.entries)
        view = {c: dict(col) for c, col in M.col_view().items()}
        K = kernel_basis(M)
        assert K.cols == 1 and (M @ K).is_zero()
        assert M.entries == entries and M.col_view() == view


class TestColumnEchelonColumns:
    """ColumnEchelon takes M as rows and a list of sparse columns, which it
    consumes."""

    def test_a_row_outside_the_matrix_is_refused(self):
        for bad in (3, -1):
            with pytest.raises(ValidationError):
                ColumnEchelon(3, [{0: 1}, {bad: 2, 1: 1}])

    def test_a_stored_zero_is_refused(self):
        with pytest.raises(ValidationError):
            ColumnEchelon(2, [{0: 1, 1: 0}])

    def test_nonzeros_over_the_cap_are_refused_before_any_column_is_touched(self):
        columns = [{0: 2, 1: 3}, {0: 4, 2: 1}, {1: 6, 2: 5}]
        before = [dict(col) for col in columns]
        set_resource_cap(5)
        try:
            with pytest.raises(ResourceCapError) as refused:
                ColumnEchelon(3, columns)
        finally:
            set_resource_cap(5_000_000)
        assert refused.value.needed == 6
        assert columns == before

    def test_empty_columns_are_kernel_columns(self):
        echelon = ColumnEchelon(2, [{}, {0: 1, 1: 2}, {}, {0: 2, 1: 4}, {}])
        kernel = echelon.kernel()
        assert len(kernel) == 4 and all({c: 1} in kernel for c in (0, 2, 4))
        assert echelon.solve({0: 3, 1: 6}) is not None
        assert echelon.solve({0: 1}) is None

    def test_columns_become_the_h_columns(self):
        columns = [{0: 1, 1: 1}, {0: 2, 1: 3}]
        echelon = ColumnEchelon(2, columns)
        held = {id(col) for _, _, col in echelon.pivots}
        assert held <= {id(col) for col in columns} and len(held) == 2


class TestIntegerSpan:
    """Membership in the integer span, not the rational one."""

    def test_index_two_sublattice(self):
        span = IntegerSpan()
        span.add({0: 2})
        span.add({0: 1, 1: 2})
        assert {0: 5, 1: 2} in span and {0: 4, 1: 2} not in span
        assert {0: 1} not in span and {1: 1} not in span
        assert {0: 1, 1: 1} not in span
        span.add({0: 3})          # gcd(2, 3) = 1 frees e_0
        assert {0: 1} in span and {1: 2} in span and {1: 1} not in span

    def test_membership_matches_the_cokernel(self):
        # v is in the span of S exactly when adding v to S leaves
        # Z^n / span unchanged (a finitely generated abelian group is not
        # isomorphic to a proper quotient of itself)
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 4)
            vecs = [{i: rng.randint(-3, 3) for i in range(n)} for _ in range(rng.randint(1, 4))]
            vecs = [{i: v for i, v in w.items() if v} for w in vecs]
            span = IntegerSpan()
            for w in vecs:
                span.add(w)
            base = cokernel(IntegerMatrix.from_columns(n, vecs))
            for _ in range(5):
                v = {i: x for i in range(n) if (x := rng.randint(-4, 4))}
                grown = cokernel(IntegerMatrix.from_columns(n, vecs + [v]))
                assert (v in span) == (grown == base), (vecs, v)


class TestIntegerSpanProperties:
    """Hypothesis properties of IntegerSpan, derandomized: what its one
    ordered reduction pass and the free resolution's early stop rely on."""

    @staticmethod
    def vector_lists():
        from hypothesis import strategies as st

        def build(n):
            vec = st.lists(st.integers(-6, 6) | st.just(0), min_size=n, max_size=n)
            return st.tuples(st.just(n), st.lists(vec, min_size=1, max_size=6),
                             st.lists(vec, min_size=1, max_size=3))

        return st.integers(1, 5).flatmap(build)

    def test_basis_bits_and_membership(self):
        from hypothesis import given, settings

        def sparse(row):
            return {i: x for i, x in enumerate(row) if x}

        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(self.vector_lists())
        def check(case):
            n, added, probes = case
            added, probes = [sparse(v) for v in added], [sparse(v) for v in probes]
            span = IntegerSpan()
            for k, w in enumerate(added, 1):
                span.add(w)
                # each basis vector is zero at every earlier pivot
                for j, (p, u) in enumerate(span.basis):
                    assert u[p] and all(not u.get(q) for q, _ in span.basis[:j])
                assert span.bits == sum(x.bit_length() for _, u in span.basis
                                        for x in u.values())
                base = cokernel(IntegerMatrix.from_columns(n, added[:k]))
                if span.is_saturated():
                    assert not base.invariant_factors
                for v in probes:
                    grown = cokernel(IntegerMatrix.from_columns(n, added[:k] + [v]))
                    assert (v in span) == (grown == base)

        check()

    def test_a_saturated_span_of_full_rank_is_the_kernel(self):
        # the translates of a free resolution's kernel basis, added in any
        # order: once the span has the nullity as rank and +-1 pivots, every
        # kernel vector is in it
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from stacky_brauer.cohomology import free_resolution
        from conftest import small_family

        family = small_family()
        stopped = []

        @settings(derandomize=True, max_examples=150, deadline=None, database=None)
        @given(st.sampled_from(family), st.integers(0, 3), st.randoms(use_true_random=False))
        def check(named, n, rng):
            _, G = named
            R = free_resolution(G)
            kernel = R.echelon(n).kernel()
            translates = [R.translate(h, v) for v in kernel for h in range(G.order)]
            rng.shuffle(translates)
            span = IntegerSpan()
            for t in translates:
                span.add(t)
                if len(span.basis) == len(kernel) and span.is_saturated():
                    assert all(v in span for v in kernel)
                    stopped.append(n)
                    break

        check()
        assert len(stopped) > 100 and set(stopped) == {0, 1, 2, 3}


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

    @staticmethod
    def _exchange_chain(values):
        """The uncapped gcd/lcm exchange pass, as invariant_factor_chain ran
        it before the pass was charged to the resource cap."""
        fs = sorted(abs(v) for v in values if abs(v) != 1)
        if all(b % a == 0 for a, b in zip(fs, fs[1:])):
            return tuple(fs)
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                a, b = fs[i], fs[j]
                if b % a:
                    g = gcd(a, b)
                    fs[i], fs[j] = g, a * b // g
        return tuple(f for f in fs if f != 1)

    def test_invariant_factor_chain_below_the_cap_is_unchanged(self):
        rng = random.Random(24)
        for _ in range(3000):
            values = [rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 27, 30, 36, 60))
                      * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
            assert invariant_factor_chain(values) == self._exchange_chain(values), values

    def test_invariant_factor_chain_charges_only_the_exchange_pass(self):
        set_resource_cap(10)
        try:
            # a chain once sorted costs one pass and is never refused
            assert invariant_factor_chain([4, 2] * 50) == (2,) * 50 + (4,) * 50
            # 5 factors that are no chain: 10 pairs, within the cap
            assert invariant_factor_chain([2, 2, 2, 2, 3]) == (2, 2, 2, 6)
            # 6 such factors: 15 pairs
            with pytest.raises(ResourceCapError) as refused:
                invariant_factor_chain([2, 2, 2, 2, 2, 3])
            assert refused.value.needed == 15
        finally:
            set_resource_cap(5_000_000)

    def test_display(self):
        assert str(FinAbGroup.trivial()) == "0"
        assert str(FinAbGroup(1, (2, 4))) == "Z/2 + Z/4 + Z"


class TestSmithNormalFormProperties:
    """Hypothesis properties of smith_normal_form on small dense and sparse
    matrices; derandomized, so every run draws the same examples."""

    @staticmethod
    def matrices():
        from hypothesis import strategies as st

        def build(shape):
            rows, cols = shape
            return st.lists(st.lists(st.integers(-9, 9) | st.just(0),
                                     min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows).map(IntegerMatrix.from_rows)

        return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(build)

    def test_properties(self):
        from hypothesis import given, settings

        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(self.matrices())
        def check(M):
            S, U, V = smith_normal_form(M)
            assert U @ M @ V == S
            assert S.is_diagonal()
            assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1
            diagonal = [S.get(i, i) for i in range(min(M.rows, M.cols))]
            nonzero = [d for d in diagonal if d]
            assert diagonal == nonzero + [0] * (len(diagonal) - len(nonzero))
            assert all(d > 0 for d in nonzero)
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))

        check()


class TestCycleSolverLog:
    def test_only_the_column_log_is_kept(self, monkeypatch):
        # V and V^-1 are replayed from the column log; U is never asked for,
        # so the elimination logs no row operation
        maps = import_module("stacky_brauer.abelian_maps")
        made = []

        class Recording(maps._Elim):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(maps, "_Elim", Recording)
        M = bar_differential(cyclic(4), 2)
        _CycleSolver(M, (2,) * M.rows)
        assert len(made) == 1
        assert made[0].row_ops is None
        assert made[0].col_ops


class TestCycleSolverProperties:
    """Hypothesis properties of _CycleSolver, whose V and V^-1 come from one
    replay of its elimination's column log: the lattice of x with M x = 0
    modulo the row moduli (0 for a Z row).  Derandomized, so every run
    draws the same examples."""

    @staticmethod
    def _in_lattice(img: dict, moduli) -> bool:
        return all((v % moduli[r] if moduli[r] else v) == 0 for r, v in img.items())

    def test_properties(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(TestSmithNormalFormProperties.matrices(), st.data())
        def check(M, data):
            moduli = tuple(data.draw(st.lists(st.sampled_from((0, 0, 2, 3, 4, 6)),
                                              min_size=M.rows, max_size=M.rows)))
            solver = _CycleSolver(M, moduli)
            K = solver.cycle_basis
            assert K.rows == M.cols
            kview = K.col_view()
            for j in range(K.cols):
                assert self._in_lattice(M.apply(kview.get(j, {})), moduli)
            c = data.draw(st.lists(st.integers(-5, 5), min_size=K.cols, max_size=K.cols))
            c = {i: v for i, v in enumerate(c) if v}
            assert solver.contains(K.apply(c))
            assert solver.coords(K.apply(c)) == c
            for _ in range(3):
                probe = data.draw(st.lists(st.integers(-4, 4), min_size=M.cols,
                                           max_size=M.cols))
                probe = {i: v for i, v in enumerate(probe) if v}
                assert solver.contains(probe) == self._in_lattice(M.apply(probe), moduli)

        check()


class TestHomologyAtReplay:
    def test_the_elimination_is_dropped_before_the_replay(self, monkeypatch):
        # U and U^-1 are replayed from the row log alone; the _Elim's row
        # dicts keep the capacity of their peak fill-in, so each _Elim must
        # be gone when its log is replayed (for _CycleSolver's column log
        # and for homology_at's row log)
        maps = import_module("stacky_brauer.abelian_maps")
        abelian = import_module("stacky_brauer.abelian")
        live, seen = weakref.WeakSet(), []
        replay = abelian._replay_rows

        class Tracked(maps._Elim):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)

        def checking(ops):
            seen.append(len(live))
            return replay(ops)

        monkeypatch.setattr(maps, "_Elim", Tracked)
        monkeypatch.setattr(abelian, "_replay_rows", checking)
        G = cyclic(4)
        sq = homology_at(bar_differential(G, 2), bar_differential(G, 1), 2)
        assert sq.quotient == FinAbGroup.cyclic(2)
        assert seen == [0, 0]


def _reference_vec_acc(dst: dict, src: dict, q: int):
    for k, v in src.items():
        nv = dst.get(k, 0) + q * v
        if nv:
            dst[k] = nv
        elif k in dst:
            del dst[k]


def _reference_combine(v1: dict, a: int, v2: dict, b: int) -> dict:
    out = {}
    for k, v in v1.items():
        nv = a * v
        if nv:
            out[k] = nv
    for k, v in v2.items():
        nv = out.get(k, 0) + b * v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def reference_echelon(rows: int, columns: list):
    """ColumnEchelon's elimination as it was before its inner loops were
    rewritten (a min over key tuples, one vector update call per column):
    (pivots, V columns, kernel columns)."""
    check_cap(sum(map(len, columns)), "matrix nonzeros")
    cols, row_index = {}, {}
    for c, col in enumerate(columns):
        if col:
            cols[c] = col
            for r, v in col.items():
                if not (v and 0 <= r < rows):
                    raise ValidationError(f"entry ({r},{c}) = {v} is zero or out of "
                                          f"bounds for {rows}x{len(columns)}")
                row_index.setdefault(r, set()).add(c)
    vcols = {}
    pivots = []
    heap = [(len(cs), r) for r, cs in row_index.items()]
    heapq.heapify(heap)
    while heap:
        k, r = heapq.heappop(heap)
        live = row_index[r]
        if len(live) != k:
            if live:
                heapq.heappush(heap, (len(live), r))
            continue
        while True:
            if len(live) == 1:
                c = next(iter(live))
                break
            c = min(live, key=lambda cc: (abs(cols[cc][r]), len(cols[cc]), -cc))
            pcol, v = cols[c], cols[c][r]
            pv = vcols.get(c) or {c: 1}
            for c2 in sorted(live - {c}):
                q = cols[c2][r] // v
                col2 = cols[c2]
                for rr, w in pcol.items():
                    nv = col2.get(rr, 0) - q * w
                    if nv:
                        if rr not in col2:
                            cs = row_index[rr]
                            if not cs:
                                heapq.heappush(heap, (1, rr))
                            cs.add(c2)
                        col2[rr] = nv
                    else:
                        del col2[rr]
                        row_index[rr].discard(c2)
                _reference_vec_acc(vcols.setdefault(c2, {c2: 1}), pv, -q)
        col = cols.pop(c)
        for rr in col:
            cs = row_index[rr]
            cs.discard(c)
            if cs:
                heapq.heappush(heap, (len(cs), rr))
        pivots.append((r, c, col))
    retired = {c for _, c, _ in pivots}
    return pivots, vcols, [c for c in range(len(columns)) if c not in retired]


class ReferenceSpan:
    """IntegerSpan's reduction as it was before its inner loop was inlined,
    with is_saturated as a scan of the pivots."""

    def __init__(self):
        self.basis = []
        self.bits = 0

    def _hold(self, added: dict, dropped: dict) -> None:
        grown = sum(map(int.bit_length, added.values())) - \
            sum(map(int.bit_length, dropped.values()))
        self.bits += grown
        if grown > 0:
            check_cap(self.bits, "integer span bits")

    def is_saturated(self) -> bool:
        return all(u[p] in (1, -1) for p, u in self.basis)

    def _reduce(self, vec: dict, insert: bool) -> dict:
        basis = self.basis
        w = {k: v for k, v in vec.items() if v}
        for j, (p, u) in enumerate(basis):
            b = w.get(p)
            if not b:
                continue
            a = u[p]
            if b % a == 0:
                _reference_vec_acc(w, u, -(b // a))
                if not w:
                    return w
                continue
            if not insert:
                return w
            x, y, g = xgcd(a, b)
            merged = _reference_combine(u, x, w, y)
            w = _reference_combine(u, b // g, w, -(a // g))
            basis[j] = (p, merged)
            self._hold(merged, u)
        if w and insert:
            p = min(w, key=lambda k: (abs(w[k]), k))
            basis.append((p, w))
            self._hold(w, {})
        return w


class TestInnerLoopsAgainstTheReference:
    """ColumnEchelon and IntegerSpan against the references above, on
    sparse columns with many ties in |entry| and in column length, so that
    every tie-break of the pivot rule is exercised.  Outputs are compared
    by repr, so the dicts' insertion order must agree too.  Derandomized:
    every run draws the same examples."""

    @staticmethod
    def sparse_columns():
        from hypothesis import strategies as st

        def build(rows):
            entry = st.sampled_from((1, -1, 1, -1, 2, -2, 3, -4))
            column = st.dictionaries(st.integers(0, rows - 1), entry, max_size=3)
            return st.tuples(st.just(rows), st.lists(column, max_size=10))

        return st.integers(1, 7).flatmap(build)

    def test_echelon_and_span(self):
        from hypothesis import given, settings

        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(self.sparse_columns())
        def check(case):
            rows, columns = case
            copies = [dict(col) for col in columns]
            echelon = ColumnEchelon(rows, columns)
            pivots, vcols, kernel_columns = reference_echelon(rows, copies)
            assert repr(echelon.pivots) == repr(pivots)
            assert repr(echelon._vcols) == repr(vcols)
            assert echelon._kernel_columns == kernel_columns
            # the H columns are the reduced columns as the reference leaves them
            assert repr(columns) == repr(copies)
            # the span of the kernel's translates by a shift, grown in the
            # kernel's order, probed with every input column
            span, reference = IntegerSpan(), ReferenceSpan()
            vectors = echelon.kernel()
            vectors += [{k + 1: v for k, v in vec.items()} for vec in vectors]
            for vec in vectors + [dict(col) for col in columns]:
                for insert in (False, True):
                    left = span._reduce(vec, insert)
                    assert repr(left) == repr(reference._reduce(vec, insert))
                assert repr(span.basis) == repr(reference.basis)
                assert span.bits == reference.bits
                assert span.is_saturated() == reference.is_saturated()

        check()

    def test_bad_entries_are_refused_before_any_column_is_touched(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(self.sparse_columns(), st.data())
        def check(case, data):
            rows, columns = case
            columns = columns or [{}]
            j = data.draw(st.integers(0, len(columns) - 1))
            bad = data.draw(st.sampled_from(("zero", "low", "high")))
            if bad == "zero":
                row, value = data.draw(st.integers(0, rows - 1)), 0
            else:
                row = -1 if bad == "low" else data.draw(st.integers(rows, rows + 3))
                value = data.draw(st.sampled_from((1, -2)))
            if row in columns[j]:
                columns[j][row] = value      # a stored zero where an entry was
            else:
                # the bad entry goes first, last or in between
                items = list(columns[j].items())
                at = data.draw(st.integers(0, len(items)))
                items[at:at] = [(row, value)]
                columns[j] = dict(items)
            before = repr(columns)
            with pytest.raises(ValidationError):
                ColumnEchelon(rows, columns)
            assert repr(columns) == before

        check()
