"""The free ZE-resolution route for the extension groups' questions,
against the bar complex of E (the oracle) and closed forms."""

import hashlib
import sys
import threading
import time
from importlib import import_module
from itertools import combinations
from math import gcd

import pytest

from stacky_brauer.abelian import (
    ColumnEchelon,
    FinAbGroup,
    IntegerMatrix,
    IntegerSpan,
    cokernel,
    kernel_basis,
    set_resource_cap,
)
from stacky_brauer.cohomology import (
    FreeResolution,
    _pushforward_onto,
    bockstein_r,
    clear_cache,
    cohomology_Z,
    cohomology_units,
    comparison_chains,
    enumerate_extension_classes,
    free_resolution,
    resolution_homology_Z,
)
from stacky_brauer.curves import CurveSpec, StabilizerPoint, brauer_report
from stacky_brauer.cli import parse_input
from stacky_brauer.errors import InvariantViolationError, ResourceCapError
from stacky_brauer.fibers import analyze_fiber
from stacky_brauer.groups import (
    FiniteGroup,
    _greedy_generators,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    split_extension,
)
from stacky_brauer import oracle
from stacky_brauer.oracle import (
    _kernel_trivial_by_homology,
    bockstein,
    homology_Z,
    resolution_boundary,
)
from conftest import small_family

# the module, which the package's `cohomology` function shadows
cohomology_module = import_module("stacky_brauer.cohomology")
abelian_maps = import_module("stacky_brauer.abelian_maps")


def extensions(max_total):
    """(label, class) for every extension class of the test family with
    |G| * r <= max_total, r >= 2."""
    for name, G in small_family():
        for r in range(2, max_total // G.order + 1):
            for i, c in enumerate(enumerate_extension_classes(G, r)):
                yield f"{name} r={r} #{i}", central_extension(G, r, c)


def dicyclic(m):
    """The dicyclic group of order 4m: a^k x^j with a^(2m) = 1, x^2 = a^m
    and x a x^-1 = a^-1, at index k + 2m j."""
    n = 2 * m

    def mul(u, v):
        (k1, j1), (k2, j2) = divmod(u, n)[::-1], divmod(v, n)[::-1]
        if not j1:
            return (k1 + k2) % n + n * j2
        if not j2:
            return (k1 - k2) % n + n
        return (k1 - k2 + m) % n

    return FiniteGroup([[mul(u, v) for v in range(2 * n)] for u in range(2 * n)])


def test_extension_count():
    assert sum(1 for _ in extensions(16)) == 85


class TestHomologyAgainstTheBarComplex:
    def test_schur_multiplier_of_every_class_up_to_order_16(self):
        for label, ext in extensions(16):
            E = ext.total
            assert resolution_homology_Z(E, 2).quotient == \
                homology_Z(E, 2).quotient, label

    def test_third_homology_of_every_class_up_to_order_8(self):
        # the bar H_3 of a group of order 12 eliminates a 1331 x 14641
        # boundary (about 14 s), of order 16 a 3375 x 50625 one (minutes)
        for label, ext in extensions(8):
            E = ext.total
            assert resolution_homology_Z(E, 3).quotient == \
                homology_Z(E, 3).quotient, label

    def test_cached_and_dropped_by_clear_cache(self):
        E = split_extension(cyclic(2), 2).total
        clear_cache()
        R, H = free_resolution(E), resolution_homology_Z(E, 2)
        assert free_resolution(E) is R and resolution_homology_Z(E, 2) is H
        clear_cache()
        assert free_resolution(E) is not R


class TestComparisonMap:
    def test_phi_is_a_chain_map_through_degree_4(self):
        # psi: R^E -> R^G over q, with E acting on R^G through q
        for label, ext in extensions(16):
            q, N = ext.projection, ext.total.order
            RE, RG = free_resolution(ext.total), free_resolution(ext.base)
            for n in range(1, 5):
                psi_n, psi_prev = comparison_chains(q, n), comparison_chains(q, n - 1)
                d_G = resolution_boundary(RG, n)
                for i, d in enumerate(RE.boundary(n)):
                    # psi_{n-1}(d e_i): c * q(x) psi_{n-1}(e_j) over the terms c (j, x)
                    expected = {}
                    for idx, c in d.items():
                        for k, a in RG.translate(q(idx % N), psi_prev[idx // N]).items():
                            expected[k] = expected.get(k, 0) + c * a
                    expected = {k: v for k, v in expected.items() if v}
                    assert d_G.apply(psi_n[i]) == expected, (label, n, i)

    def test_consecutive_boundaries_compose_to_zero(self):
        for label, ext in extensions(16):
            R = free_resolution(ext.total)
            for n in range(1, 4):
                d, d_next = resolution_boundary(R, n), resolution_boundary(R, n + 1)
                assert (d @ d_next).is_zero(), (label, n)


class TestSurjectivityAgainstTheBarOracle:
    def test_every_class_and_degree_up_to_order_16(self):
        onto = 0
        for label, ext in extensions(16):
            q = ext.projection
            for n in (3, 4):
                expected = _kernel_trivial_by_homology(q, cohomology_Z(ext.base, n))
                assert _pushforward_onto(q, n - 1) == expected, (label, n)
                onto += expected
        assert 0 < onto < 170

    # (classes, classes onto H_2(G, Z)) with r = 2
    ORDER_12_COUNTS = {"D6": (8, 4), "Dic12": (2, 2), "Z/2xZ/6": (8, 4)}

    @pytest.mark.parametrize("name, make", [
        ("D6", lambda: semidirect_cyclic_by_z2(6, 5)),
        ("Dic12", lambda: dicyclic(3)),
        ("Z/2xZ/6", lambda: direct_product(cyclic(2), cyclic(6))),
    ])
    def test_every_class_of_order_12_bases_with_r_2(self, name, make):
        # degree 3 only: the bar H_3(G) at |G| = 12 takes about 14 s
        G = make()
        t0 = time.perf_counter()
        onto = []
        for i, c in enumerate(enumerate_extension_classes(G, 2)):
            q = central_extension(G, 2, c).projection
            expected = _kernel_trivial_by_homology(q, cohomology_Z(G, 3))
            assert _pushforward_onto(q, 2) == expected, (name, i)
            onto.append(expected)
        assert time.perf_counter() - t0 < 10, name
        assert (len(onto), sum(onto)) == self.ORDER_12_COUNTS[name]


class TestSchurMultipliersAtOrders12To48:
    CASES = (
        [(f"Z/{n}", lambda n=n: cyclic(n), ()) for n in (12, 16, 24, 30, 48)]
        + [(f"Dic{4 * m}", lambda m=m: dicyclic(m), ()) for m in (3, 4, 5, 6, 12)]
        + [(f"D{n}", lambda n=n: semidirect_cyclic_by_z2(n, n - 1),
            (2,) if n % 2 == 0 else ()) for n in (6, 7, 8, 9, 12, 15, 24)]
        + [(f"Z/{a}xZ/{b}", lambda a=a, b=b: direct_product(cyclic(a), cyclic(b)),
            (gcd(a, b),)) for a, b in ((2, 6), (2, 8), (4, 4), (3, 6), (4, 6),
                                       (2, 12), (3, 12), (2, 24), (4, 12))]
    )

    @pytest.mark.parametrize("name, make, factors", CASES, ids=[c[0] for c in CASES])
    def test_closed_form(self, name, make, factors):
        G = make()
        assert 12 <= G.order <= 48
        assert resolution_homology_Z(G, 2).quotient == FinAbGroup.from_factors(factors)


class TestLift:
    def test_lifts_every_boundary_of_a_generator_translate(self):
        for name, G in small_family():
            R = free_resolution(G)
            for n in range(1, 5):
                d = resolution_boundary(R, n)
                for y in d.col_view().values():
                    assert d.apply(R.lift(n, y)) == y, (name, n)

    def test_non_boundary_is_refused(self):
        # the augmentation of e_0 = (0, 1) is 1, so it is not in im d_1
        for name, G in small_family():
            with pytest.raises(InvariantViolationError):
                free_resolution(G).lift(1, {G.identity: 1})

    def test_echelons_are_dropped_with_the_resolution(self):
        G = cyclic(4)
        clear_cache()
        R = free_resolution(G)
        R.lift(2, resolution_boundary(R, 2).column(0))
        assert R._echelons
        clear_cache()
        assert not free_resolution(G)._echelons

    def test_lift_solves_through_the_echelon(self):
        for name, G in small_family():
            clear_cache()
            R = free_resolution(G)
            for n in range(1, 5):
                d, echelon = resolution_boundary(R, n), R.echelon(n)
                for y in d.col_view().values():
                    x = R.lift(n, y)
                    assert x == echelon.solve(y) and d.apply(x) == y, (name, n)
                assert R.echelon(n) is echelon, (name, n)
        clear_cache()


class TestOneEliminationPerDegree:
    def test_kernel_is_the_kernel_lattice_through_degree_4(self):
        # a Z-basis of ker d_n: killed by d_n, as many vectors as the
        # nullity an untracked diagonalization gives, spanning a saturated
        # lattice (torsion-free cokernel), and the same lattice as
        # kernel_basis(resolution_boundary(R, n))
        for label, ext in extensions(16):
            R = free_resolution(ext.total)
            for n in range(1, 5):
                d = resolution_boundary(R, n)
                K = R.echelon(n).kernel()
                assert all(not d.apply(v) for v in K), (label, n)
                rank = d.rows - cokernel(d).free_rank
                assert len(K) == d.cols - rank, (label, n)
                assert not cokernel(IntegerMatrix.from_columns(d.cols, K)).invariant_factors
                other = kernel_basis(d).col_view().values()
                span, other_span = IntegerSpan(), IntegerSpan()
                for v in K:
                    span.add(v)
                for v in other:
                    other_span.add(v)
                assert all(v in other_span for v in K), (label, n)
                assert all(v in span for v in other), (label, n)

    def test_coinvariant_boundaries_are_built_once(self):
        G = semidirect_cyclic_by_z2(4, 3)
        clear_cache()
        R = free_resolution(G)
        d = [R.coinvariant_boundary(n) for n in (1, 2, 3)]
        assert [R.coinvariant_boundary(n) for n in (1, 2, 3)] == d
        assert all(R.coinvariant_boundary(n) is d[n - 1] for n in (1, 2, 3))
        assert all(d[n - 1] == R.coinvariants(n - 1, R.boundary(n)) for n in (1, 2, 3))
        clear_cache()
        assert free_resolution(G) is not R

    def test_cold_homology_builds_only_its_own_degrees(self):
        for label, ext in extensions(16):
            for n in range(1, 5):
                clear_cache()
                resolution_homology_Z(ext.total, n)
                R = free_resolution(ext.total)
                assert len(R._boundaries) == n, (label, n)
                assert sorted(R._echelons) == list(range(1, n + 1)), (label, n)
        clear_cache()


def plain_greedy(E, top):
    """The generators of R_1, ..., R_top by the greedy with no early stop:
    every kernel vector is tested, every translate of a kept one is added to
    the span, and each d_n is formed afresh from the generators.  In degree
    0 the kept vectors are then scanned from the last back to the first,
    and each one is dropped whose removal leaves translates that still span
    the augmentation ideal: a saturated lattice of rank |E| - 1."""
    N = E.order

    def translate(h, vec):
        return {i - i % N + E.table[h][i % N]: v for i, v in vec.items()}

    def spans_the_augmentation_ideal(vectors):
        span = IntegerSpan()
        for v in vectors:
            for h in range(N):
                span.add(translate(h, v))
        return len(span.basis) == N - 1 and span.is_saturated()

    rows, columns = 1, [{0: 1} for _ in range(N)]
    out = []
    for n in range(top):
        span, gens = IntegerSpan(), []
        for v in sorted(ColumnEchelon(rows, columns).kernel(), key=len):
            if v not in span:
                gens.append(v)
                for h in range(N):
                    span.add(translate(h, v))
        if n == 0:
            for i in reversed(range(len(gens))):
                if spans_the_augmentation_ideal(gens[:i] + gens[i + 1:]):
                    del gens[i]
        out.append(tuple(gens))
        rows, columns = len(columns), [translate(h, v) for v in gens for h in range(N)]
    return out


def relabeled(G):
    """G's table with its identity at index 1 and a non-central element at
    the last index, |G| - 1."""
    z = next(g for g in range(G.order)
             if any(G.mul(g, h) != G.mul(h, g) for h in range(G.order)))
    rest = [g for g in range(G.order) if g not in (G.identity, z)]
    old = rest[:1] + [G.identity] + rest[1:] + [z]     # new index -> old element
    new = {g: i for i, g in enumerate(old)}
    return FiniteGroup([[new[G.mul(a, b)] for b in old] for a in old])


class TestTheGeneratorsAreThePlainGreedys:
    # degree 0 is read off a generating sequence, not the span the plain
    # greedy runs; these tables put the identity, and a last index that is
    # not central, where no extension total of the test family has them
    TABLES = (("trivial", FiniteGroup([[0]])), ("Z/2", cyclic(2)),
              ("D12", semidirect_cyclic_by_z2(12, 11)),
              ("S3 relabeled", relabeled(semidirect_cyclic_by_z2(3, 2))),
              ("D4 relabeled", relabeled(semidirect_cyclic_by_z2(4, 3))),
              ("Q8 relabeled", relabeled(dicyclic(2))))

    def test_every_class_up_to_order_16_through_degree_3(self):
        for label, ext in extensions(16):
            E = ext.total
            R = FreeResolution(E)
            assert repr([R.boundary(n) for n in range(1, 4)]) == \
                repr(plain_greedy(E, 3)), label
            for n in range(1, 4):
                kept = R.echelon(n)       # built from the greedy's translates
                d = resolution_boundary(R, n)
                rebuilt = ColumnEchelon(d.rows, [d.column(c) for c in range(d.cols)])
                assert kept.pivots == rebuilt.pivots, (label, n)
                assert kept._vcols == rebuilt._vcols, (label, n)
                assert kept._kernel_columns == rebuilt._kernel_columns, (label, n)
            assert not R._translates, label

    def test_degree_1_of_tables_with_the_identity_anywhere(self):
        for label, E in self.TABLES:
            if label.endswith("relabeled"):
                last = E.order - 1
                assert E.identity == 1, label
                assert any(E.mul(last, h) != E.mul(h, last) for h in range(E.order)), label
            R = FreeResolution(E)
            assert repr(R.boundary(1)) == repr(plain_greedy(E, 1)[0]), label
            kept = R.echelon(1)
            d = resolution_boundary(R, 1)
            rebuilt = ColumnEchelon(d.rows, [d.column(c) for c in range(d.cols)])
            assert repr((kept.pivots, kept._vcols, kept._kernel_columns)) == \
                repr((rebuilt.pivots, rebuilt._vcols, rebuilt._kernel_columns)), label

    def test_degree_1_runs_no_span_and_no_elimination(self, monkeypatch):
        groups = [(label, ext.total) for label, ext in extensions(16)] + list(self.TABLES)
        calls = []
        span_init, echelon_init = IntegerSpan.__init__, ColumnEchelon.__init__

        def counting_span(span):
            calls.append("IntegerSpan")
            span_init(span)

        def counting_echelon(ech, rows, columns):
            calls.append("ColumnEchelon")
            echelon_init(ech, rows, columns)

        monkeypatch.setattr(IntegerSpan, "__init__", counting_span)
        monkeypatch.setattr(ColumnEchelon, "__init__", counting_echelon)
        for label, E in groups:
            R = FreeResolution(E)
            R.boundary(1)
            assert not calls and not R._echelons, label
        # the second degree's kernel step eliminates d_1 and runs the span
        R.boundary(2)
        assert calls == ["ColumnEchelon", "IntegerSpan"], calls


class TestDegreeZeroIsIrredundant:
    """Degree 0 keeps e_c - e_l (l = |E| - 1) for an irredundant generating
    set of elements l^-1 c, drawn by derandomized Hypothesis over
    relabelings of the test family, its extension totals with |G| * r <= 16,
    the dihedral group of order 24 and the dicyclic group of order 12."""

    @staticmethod
    def is_prime_power(n):
        p = next((q for q in range(2, n + 1) if n % q == 0), None)
        while p and n % p == 0:
            n //= p
        return n == 1

    @staticmethod
    def generated(E, elements):
        """The subgroup elements generate, by a walk of right multiplications."""
        closure, frontier = {E.identity}, [E.identity]
        while frontier:
            x = frontier.pop()
            for z in (E.mul(x, g) for g in elements):
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
        return closure

    def test_kept_elements(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        S3 = semidirect_cyclic_by_z2(3, 2)
        tables = [G for _, G in small_family()] + [ext.total for _, ext in extensions(16)] + [
            semidirect_cyclic_by_z2(12, 11),
            central_extension(S3, 2, enumerate_extension_classes(S3, 2)[1]).total]
        minimal = []

        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @given(st.sampled_from(tables), st.randoms(use_true_random=False))
        def check(G, rng):
            old = list(range(G.order))          # new index -> old element
            rng.shuffle(old)
            new = {g: i for i, g in enumerate(old)}
            E = FiniteGroup([[new[G.mul(a, b)] for b in old] for a in old])
            l = E.order - 1
            kept = [E.table[E.inverse[l]][c] for v in FreeResolution(E).boundary(1)
                    for c, x in v.items() if x == 1]      # v = e_c - e_l
            everything = set(range(E.order))
            assert self.generated(E, kept) == everything
            for i, g in enumerate(kept):
                assert g not in self.generated(E, kept[:i] + kept[i + 1:]), kept
            greedy = iter(_greedy_generators(E, E.table[E.inverse[l]][:l]))
            assert all(g in greedy for g in kept), kept    # a subsequence
            if self.is_prime_power(E.order):
                # Burnside's basis theorem: every irredundant generating set
                # of a p-group has the minimum size
                size = next(k for k in range(E.order) if any(
                    self.generated(E, subset) == everything
                    for subset in combinations(range(E.order), k)))
                assert len(kept) == size, kept
                minimal.append(size)

        check()
        assert len(minimal) > 100 and max(minimal) == 3, minimal


class TestRanksThroughDegree3:
    """k_1, k_2, k_3 of the free resolution of every class of extensions(16).
    BEFORE is the table recorded before degree 0 dropped the generators the
    others generate; SMALLER lists the 14 classes that drop changed.  No
    class may have a larger rank than BEFORE in any degree."""

    BEFORE = {
        "Z/1 r=2": ((1, 1, 1),),
        "Z/1 r=3": ((1, 1, 1),),
        "Z/1 r=4": ((1, 1, 1),),
        "Z/1 r=5": ((1, 1, 1),),
        "Z/1 r=6": ((1, 1, 1),),
        "Z/1 r=7": ((1, 1, 1),),
        "Z/1 r=8": ((1, 1, 1),),
        "Z/1 r=9": ((1, 1, 1),),
        "Z/1 r=10": ((1, 1, 1),),
        "Z/1 r=11": ((1, 1, 1),),
        "Z/1 r=12": ((1, 1, 1),),
        "Z/1 r=13": ((1, 1, 1),),
        "Z/1 r=14": ((1, 1, 1),),
        "Z/1 r=15": ((1, 1, 1),),
        "Z/1 r=16": ((1, 1, 1),),
        "Z/2 r=2": ((2, 3, 4), (1, 1, 1)),
        "Z/2 r=3": ((1, 1, 1),),
        "Z/2 r=4": ((2, 3, 5), (1, 1, 1)),
        "Z/2 r=5": ((1, 1, 1),),
        "Z/2 r=6": ((2, 3, 4), (1, 1, 1)),
        "Z/2 r=7": ((1, 1, 1),),
        "Z/2 r=8": ((2, 3, 4), (1, 1, 1)),
        "Z/3 r=2": ((1, 1, 1),),
        "Z/3 r=3": ((2, 3, 4), (1, 1, 1), (1, 1, 1)),
        "Z/3 r=4": ((1, 1, 1),),
        "Z/3 r=5": ((1, 1, 1),),
        "Z/4 r=2": ((2, 3, 4), (1, 1, 1)),
        "Z/4 r=3": ((1, 1, 1),),
        "Z/4 r=4": ((2, 3, 4), (1, 1, 1), (2, 3, 4), (1, 1, 1)),
        "Z/5 r=2": ((1, 1, 1),),
        "Z/5 r=3": ((1, 1, 1),),
        "Z/6 r=2": ((2, 3, 4), (1, 1, 1)),
        "Z/7 r=2": ((1, 1, 1),),
        "Z/8 r=2": ((2, 3, 4), (1, 1, 1)),
        "Z/2xZ/2 r=2": ((3, 6, 10), (3, 4, 4), (2, 3, 4), (2, 3, 4), (3, 5, 5), (3, 5, 5), (2, 3, 4), (2, 2, 1)),
        "Z/2xZ/2 r=3": ((2, 3, 5),),
        "Z/2xZ/2 r=4": ((3, 6, 10), (3, 5, 6), (2, 3, 4), (2, 3, 4), (3, 4, 4), (3, 4, 3), (2, 3, 4), (2, 2, 2)),
        "Z/2xZ/3 r=2": ((2, 3, 5), (1, 1, 1)),
        "Z/2xZ/4 r=2": ((3, 6, 11), (3, 5, 7), (2, 3, 4), (2, 2, 2), (3, 4, 5), (3, 4, 5), (2, 3, 4), (2, 3, 4)),
        "D4 r=2": ((3, 6, 10), (2, 4, 6), (3, 5, 7), (2, 3, 4), (3, 4, 3), (2, 2, 1), (3, 4, 4), (2, 3, 3)),
        "Q8 r=2": ((3, 5, 6), (3, 5, 6), (3, 4, 5), (3, 5, 5)),
    }
    SMALLER = {
        "Z/2xZ/2 r=2 #1": (2, 3, 4),
        "Z/2xZ/2 r=2 #4": (2, 3, 4),
        "Z/2xZ/2 r=2 #5": (2, 3, 4),
        "Z/2xZ/2 r=4 #4": (2, 3, 4),
        "Z/2xZ/2 r=4 #5": (2, 2, 2),
        "Z/2xZ/4 r=2 #1": (2, 4, 7),
        "Z/2xZ/4 r=2 #4": (2, 3, 4),
        "Z/2xZ/4 r=2 #5": (2, 3, 4),
        "D4 r=2 #2": (2, 4, 6),
        "D4 r=2 #4": (2, 2, 2),
        "D4 r=2 #6": (2, 3, 4),
        "Q8 r=2 #1": (2, 3, 5),
        "Q8 r=2 #2": (2, 3, 5),
        "Q8 r=2 #3": (2, 3, 5),
    }

    def test_ranks(self):
        before = {f"{key} #{i}": k for key, ks in self.BEFORE.items()
                  for i, k in enumerate(ks)}
        recorded = {**before, **self.SMALLER}
        assert len(before) == len(recorded) == 85
        assert all(a <= b for label, k in recorded.items()
                   for a, b in zip(k, before[label]))
        assert sum(map(sum, before.values())) - sum(map(sum, recorded.values())) == 42
        ranks = {label: tuple(free_resolution(ext.total).rank(n) for n in (1, 2, 3))
                 for label, ext in extensions(16)}
        assert ranks == recorded


class TestResolutionPins:
    """The free resolutions bit for bit: each boundary and each echelon
    form's pivots (row, column and H column), V columns and kernel columns,
    with their dicts in insertion order, hashed over every class of
    extensions(16) through degree 4 and over the dihedral group of order 24
    and the dicyclic group of order 12 (the total of S3's nonsplit class
    with r = 2) through degree 3.  The digest was first recorded before the
    kernel step's inner loops were rewritten, and recorded again, over the
    same cases, when degree 0 began dropping the generators the others
    generate (221e2ecc... before); the plain greedy above rebuilds with the
    same code it checks, so it cannot see a change that both sides share."""

    SHA256 = "2dbcb620a8d6a652b5dc7fae99fee0815f3fd154d78f8c119dbe89e27489821f"

    @staticmethod
    def cases():
        for label, ext in extensions(16):
            yield label, ext.total, 4
        yield "semidirect_z2:12:11", semidirect_cyclic_by_z2(12, 11), 3
        S3 = semidirect_cyclic_by_z2(3, 2)
        nonsplit = enumerate_extension_classes(S3, 2)[1]
        yield "Dic12", central_extension(S3, 2, nonsplit).total, 3

    def test_boundaries_and_echelons(self):
        digest = hashlib.sha256()
        for label, E, top in self.cases():
            R = FreeResolution(E)
            for n in range(1, top + 1):
                digest.update(repr((label, n, R.boundary(n))).encode())
            for n in range(top + 1):
                ech = R.echelon(n)
                digest.update(repr((n, ech.pivots, ech._vcols, ech._kernel_columns)).encode())
        assert digest.hexdigest() == self.SHA256


class TestComparisonChainPins:
    """The chain maps psi over every class projection of extensions(16),
    degrees 1 to 3, bit for bit: repr of comparison_chains, whose dicts
    carry their insertion order, hashed.  The digest was first recorded
    before comparison_chains stopped forming a translate per term, and
    recorded again, over the same cases, when degree 0 of the resolutions
    began dropping the generators the others generate (83f5e20d... before)."""

    SHA256 = "df98a0d620ae83374a76daa866edcfc6eea0cfdca96c6ad5c637c602b408e61e"

    def test_comparison_chains(self):
        digest = hashlib.sha256()
        for label, ext in extensions(16):
            for n in (1, 2, 3):
                digest.update(repr((label, n, comparison_chains(ext.projection, n))).encode())
        assert digest.hexdigest() == self.SHA256


class TestKernelStepWork:
    """What a cold pass of the class-sweep family (every extension class of
    Z/2, Z/3, Z/4, Z/5 and V4 with |G| * r <= 10, one brauer_report each)
    asks of the kernel step.  The greedy stops at a saturated span and the
    next echelon reuses its translates, so the span sees fewer adds and
    membership tests (985 and 455 before the early stop, 703 and 229 with
    it), while the ranks of R stay as they were.  Degree 0 is read off a
    generating sequence, with no span and no echelon of the augmentation
    (503 and 185, and 72 echelons where there were 96).  Degree 0 then
    drops each kept generator the others still generate, so the ranks of R
    fall from 135 to 125 and the span sees 445 adds and 169 membership
    tests.
    The bounds were fixed before the early stop was written; the exact
    counts keep the greedy on IntegerSpan.add and __contains__, since a
    greedy that went round them would count 0 and pass the bounds.  Each echelon
    eliminates in the columns the greedy formed, so no d_n is built as an
    IntegerMatrix on the way (one from_columns per echelon of degree >= 1
    before).  Around the kernel step the fiber battery repeats nothing:
    one section search per projection, a _CycleSolver only where a kernel
    lattice is read, and no copy of a kernel vector the greedy does not
    keep."""

    BASES = ((cyclic(2), (2, 3, 4)), (cyclic(3), (2, 3)), (cyclic(4), (2,)),
             (cyclic(5), (2,)), (direct_product(cyclic(2), cyclic(2)), (2,)))

    def test_cold_class_sweep_pass(self, monkeypatch):
        nodes = [(r, central_extension(G, r, c)) for G, moduli in self.BASES
                 for r in moduli for c in enumerate_extension_classes(G, r)]
        assert len(nodes) == 20
        counts = dict.fromkeys(("add", "in", "echelons", "from_columns", "sections",
                                "solvers", "kernel_copies"), 0)
        add, contains = IntegerSpan.add, IntegerSpan.__contains__
        build, echelon = ColumnEchelon.__init__, FreeResolution.echelon
        from_columns = IntegerMatrix.from_columns.__func__
        kernel, solver = ColumnEchelon.kernel, abelian_maps._CycleSolver
        depth = [0]               # calls of FreeResolution.echelon under way
        searches = {}             # module -> its section, where it holds one

        def counting_section(q):
            counts["sections"] += 1
            return searches["stacky_brauer.extensions"](q)

        class CountingSolver(solver):
            def __init__(self, M, moduli):
                counts["solvers"] += 1
                super().__init__(M, moduli)

        def counting_kernel(ech):
            vectors = kernel(ech)
            counts["kernel_copies"] += len(vectors)
            return vectors

        def counting_add(span, vec):
            counts["add"] += 1
            return add(span, vec)

        def counting_contains(span, vec):
            counts["in"] += 1
            return contains(span, vec)

        def counting_build(ech, rows, columns):
            counts["echelons"] += 1
            build(ech, rows, columns)

        def tracked_echelon(R, n):
            depth[0] += 1
            try:
                return echelon(R, n)
            finally:
                depth[0] -= 1

        def counting_from_columns(cls, rows, columns):
            counts["from_columns"] += depth[0] > 0
            return from_columns(cls, rows, columns)

        monkeypatch.setattr(IntegerSpan, "add", counting_add)
        monkeypatch.setattr(IntegerSpan, "__contains__", counting_contains)
        monkeypatch.setattr(ColumnEchelon, "__init__", counting_build)
        monkeypatch.setattr(FreeResolution, "echelon", tracked_echelon)
        monkeypatch.setattr(IntegerMatrix, "from_columns", classmethod(counting_from_columns))
        monkeypatch.setattr(ColumnEchelon, "kernel", counting_kernel)
        monkeypatch.setattr(abelian_maps, "_CycleSolver", CountingSolver)
        for name in ("stacky_brauer.extensions", "stacky_brauer.fibers",
                     "stacky_brauer.cohomology_maps"):
            module = import_module(name)
            if "section" in vars(module):
                searches[name] = module.section
                monkeypatch.setattr(module, "section", counting_section)
        clear_cache()
        for r, ext in nodes:
            brauer_report(node_curve(ext), r, verify=True)
        monkeypatch.undo()
        resolutions = [R for key, R in cohomology_module._CACHE.items()
                       if key[0] == "resolution"]
        counts["ranks"] = sum(len(gens) for R in resolutions for gens in R._boundaries)
        # a kept generator is a copy, not the V column the echelon holds
        held = {id(v) for R in resolutions for ech in R._echelons.values()
                for v in ech._vcols.values()}
        assert not any(id(g) in held for R in resolutions
                       for gens in R._boundaries for g in gens)
        clear_cache()
        assert counts["add"] < 985 and counts["in"] < 455, counts
        assert (counts["add"], counts["in"]) == (445, 169), counts
        assert (counts["echelons"], counts["ranks"]) == (72, 125), counts
        assert counts["from_columns"] == 0, counts
        # one section search per projection (36 without the memo)
        assert counts["sections"] == 20, counts
        # is_surjective and cokernel_of_map replay nothing (26 when they did)
        assert counts["solvers"] == 7, counts
        # the kernel is read in place: the only copies are the 125 kept
        # generators (kernel() copied 760 vectors when the greedy used it)
        assert counts["kernel_copies"] == 0, counts


class TestDihedral24WithR2:
    """The eight extension classes of the dihedral group of order 24 by
    Z/2, split class first: H_2(E), and whether q_* is onto H_2(G) and
    H_3(G)."""

    H2 = [(2, 2, 2), (2, 2), (), (), (2, 2), (2,), (2,), ()]
    ONTO_H2 = [True, True, False, False, True, True, False, False]
    ONTO_H3 = [True] + [False] * 7

    def test_answers_and_time(self):
        G = semidirect_cyclic_by_z2(12, 11)
        clear_cache()
        projections = [central_extension(G, 2, c).projection
                       for c in enumerate_extension_classes(G, 2)]
        t0 = time.perf_counter()
        answers = []
        for q in projections:
            answers.append((resolution_homology_Z(q.source, 2).quotient,
                            _pushforward_onto(q, 2), _pushforward_onto(q, 3),
                            resolution_homology_Z(G, 3).quotient))
        elapsed = time.perf_counter() - t0
        clear_cache()
        assert answers == [
            (FinAbGroup.from_factors(h2), onto2, onto3, FinAbGroup.from_factors((2, 2, 12)))
            for h2, onto2, onto3 in zip(self.H2, self.ONTO_H2, self.ONTO_H3)]
        # these take 0.2-0.3 s on a 2-vCPU VM; the bound leaves room for a
        # slower machine and still catches a blow-up of the entries in the
        # span of translates, which took minutes
        assert elapsed < 10


class TestCaps:
    def test_kernel_step_is_refused_by_its_column_count(self):
        E = split_extension(cyclic(2), 100).total
        clear_cache()
        try:
            set_resource_cap(199)
            with pytest.raises(ResourceCapError, match=r"\|E\| \* k_0"):
                resolution_homology_Z(E, 2)
        finally:
            set_resource_cap(5_000_000)
            clear_cache()
        assert resolution_homology_Z(E, 2).quotient == FinAbGroup.cyclic(2)

    def test_huge_degrees_are_refused_before_the_walk(self):
        # a walk to degree n is charged (n + 1) * 5 * |E| before it starts,
        # and the trivial group is charged as well, though it holds nothing
        for order in (1, 2, 4):
            t0 = time.perf_counter()
            with pytest.raises(ResourceCapError, match="resolution walk"):
                cohomology_Z(cyclic(order), 10 ** 11)
            assert time.perf_counter() - t0 < 1, order

    def test_span_whose_entries_explode_is_refused(self):
        # the span of translates in D4's degree-11 kernel step holds
        # 17.7 M bits in 2,663 entries when unbounded, and took 23 s; its
        # bit count refuses it (0.6 s on a 2-vCPU x86-64 VM; the bound of
        # 5 s was fixed before this test was written)
        D4 = semidirect_cyclic_by_z2(4, 3)
        clear_cache()
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match="integer span bits"):
            resolution_homology_Z(D4, 11)
        elapsed = time.perf_counter() - t0
        clear_cache()
        assert elapsed < 5


def node_curve(ext):
    """A proper nodal curve with one stacky node whose fiber is ext."""
    pt = StabilizerPoint("node", ext.base, singular=True, extension=ext)
    return CurveSpec(smooth=False, proper=True, points=(pt,),
                     h1_stack_override=FinAbGroup.trivial())


def count_bar_differentials(monkeypatch) -> list:
    """The (|X|, n) of every bar_differential(X, n) built from now on."""
    built = []
    original = cohomology_module.bar_differential

    def counting(X, n):
        built.append((X.order, n))
        return original(X, n)

    monkeypatch.setattr(cohomology_module, "bar_differential", counting)
    return built


D4_NODE = """\
[curve]
smooth = false
proper = true
h1_stack = 0
[gerbe]
r = 2
[point.node]
group = semidirect_z2:4:3
singular = true
extension = split
"""


def test_d4_node_report_builds_no_bar_complex_of_e(monkeypatch):
    doc = parse_input(D4_NODE)
    built = count_bar_differentials(monkeypatch)
    clear_cache()
    rep = brauer_report(doc.curve_spec(), doc.r)
    monkeypatch.undo()
    clear_cache()
    # no bar complex at all: E's questions are read off its resolution, the
    # Bockstein off H_2(D4, Z) (H^3(D4, Z) = Z/2), and the degree-4
    # question is answered by the section before H^4(G, Z)
    assert built == []
    (_, d), = rep.fibers
    assert d.h2_units_total == FinAbGroup.from_factors((2, 2, 2))
    assert d.h3_inflation_injective



def test_non_split_d4_node_builds_no_bar_complex(monkeypatch):
    G = semidirect_cyclic_by_z2(4, 3)
    ext = central_extension(G, 2, enumerate_extension_classes(G, 2)[1])

    def refused(X, n):
        raise AssertionError(f"homology_Z({X.order}, {n}) on the report path")

    built = count_bar_differentials(monkeypatch)
    monkeypatch.setattr(oracle, "homology_Z", refused)
    clear_cache()
    rep = brauer_report(node_curve(ext), 2)
    monkeypatch.undo()
    clear_cache()
    # H^3(D4, Z) = Z/2: the Bockstein is read off H_2(D4, Z)
    assert built == []
    assert rep.splitting == "unknown"


def test_values_past_the_bar_caps_build_no_bar_complex(monkeypatch):
    # the bar d_out of each is over the default cap (49^4 rows for Z/50 in
    # degree 3, 23^5 for the dihedral group of order 24 in degree 4), but
    # only the free resolutions' caps bound a value
    built = count_bar_differentials(monkeypatch)
    clear_cache()
    assert cohomology_Z(cyclic(50), 3).value == FinAbGroup.trivial()
    assert cohomology_units(semidirect_cyclic_by_z2(12, 11), 3).value == \
        FinAbGroup.from_factors((2, 2, 12))
    node = StabilizerPoint("node", cyclic(50), singular=True)
    rep = brauer_report(CurveSpec(smooth=False, proper=True, points=(node,),
                                  h1_stack_override=FinAbGroup.cyclic(2)), 2)
    monkeypatch.undo()
    clear_cache()
    assert built == []
    assert rep.result.status == "determined"
    assert rep.result.value == FinAbGroup.cyclic(2)


class TestBocksteinOffTheResolution:
    """bockstein_r reads the class off H_2(G, Z) of G's free resolution
    through the chain map phi: R^G -> Bar(G) (FreeResolution.bar_chains);
    the bar Bockstein is the oracle."""

    def test_phi_is_a_chain_map_in_degrees_1_and_2(self, family):
        def add(chain, key, c):
            chain[key] = chain.get(key, 0) + c

        def nonzero(chain):
            return {k: v for k, v in chain.items() if v}

        for name, G in family:
            R, N, e = free_resolution(G), G.order, G.identity
            phi1, phi2 = R.bar_chains(1), R.bar_chains(2)
            # Bar_0 = ZG with g[] as g; d[x] = x[] - []; R_0 = ZG with e_0 = 1
            for i, d in enumerate(R.boundary(1)):
                image = {}
                for (x,), c in phi1[i].items():
                    add(image, x, c)
                    add(image, e, -c)
                assert nonzero(image) == d, (name, 1, i)
            # Bar_1 chains as {(h, g): c} for c h[g]; d[x|g] = x[g] - [xg] + [x]
            for i, d in enumerate(R.boundary(2)):
                image = {}
                for (x, g), c in phi2[i].items():
                    add(image, (x, g), c)
                    if G.mul(x, g) != e:
                        add(image, (e, G.mul(x, g)), -c)
                    add(image, (e, x), c)
                # phi_1(d_2 e_i): c c' x[g] over the terms c (j, x) of d_2 e_i
                expected = {}
                for idx, c in d.items():
                    j, x = divmod(idx, N)
                    for (g,), c2 in phi1[j].items():
                        add(expected, (x, g), c * c2)
                assert nonzero(image) == nonzero(expected), (name, 2, i)

    def test_order_and_coordinates_match_the_bar_bockstein(self, family):
        checked = 0
        for name, G in family:
            forced = cohomology_Z(G, 3).value.order() <= 2
            for r in (2, 3, 4):
                for i, c in enumerate(enumerate_extension_classes(G, r)):
                    new, bar = bockstein_r(G, c), bockstein(G, c.to_vector(), 2, r)
                    assert (new.order(), new.is_zero) == (bar.order(), bar.is_zero), \
                        (name, r, i)
                    if forced:
                        assert new.coords == bar.coords, (name, r, i)
                    checked += 1
        assert checked == 115

    def test_cyclic_group_builds_no_bar_complex(self, monkeypatch):
        for n, r in ((4, 2), (6, 3), (8, 4)):
            G = cyclic(n)
            classes = enumerate_extension_classes(G, r)
            clear_cache()
            built = count_bar_differentials(monkeypatch)
            betas = [bockstein_r(G, c) for c in classes]
            assert built == [], n
            # the count sees the bar Bockstein's H^3(G, Z) classes
            bockstein(G, classes[-1].to_vector(), 2, r)
            monkeypatch.undo()
            clear_cache()
            assert sorted(built) == [(n, 2), (n, 3)]
            assert len(betas) == r and all(b.is_zero and b.coords == () for b in betas)

    @pytest.mark.parametrize("G, moduli", [
        (direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))), (2, 4)),
        (direct_product(cyclic(3), cyclic(3)), (3, 9)),
        (direct_product(semidirect_cyclic_by_z2(4, 3), cyclic(2)), (2,)),
    ], ids=["(Z/2)^3", "Z/3xZ/3", "D4xZ/2"])
    def test_bar_and_character_coordinates_differ_by_an_automorphism(self, G, moduli):
        # H^3(G, Z) is (Z/2)^3, Z/3 and (Z/2)^3: the value forces no basis,
        # so the bar generators and the basis dual to H_2(G, Z) may differ.
        # Both Bocksteins are homomorphisms of H^2(G, Z/r), so a map between
        # their images that is well defined, injective and additive is an
        # isomorphism of the images.
        factors = cohomology_Z(G, 3).value.invariant_factors

        def add(x, y):
            return tuple((a + b) % d for a, b, d in zip(x, y, factors))

        for r in moduli:
            to_character = {}
            for i, c in enumerate(enumerate_extension_classes(G, r)):
                bar, new = bockstein(G, c.to_vector(), 2, r).coords, bockstein_r(G, c).coords
                assert to_character.setdefault(bar, new) == new, (r, i)
            assert len(set(to_character.values())) == len(to_character), r
            for x in to_character:
                for y in to_character:
                    assert add(x, y) in to_character, (r, x, y)
                    assert to_character[add(x, y)] == \
                        add(to_character[x], to_character[y]), (r, x, y)

    def test_a_wrong_phi_is_caught_by_the_fiber_and_the_oracle(self, monkeypatch):
        G = direct_product(cyclic(3), cyclic(3))   # H^3(G, Z) = Z/3 is not forced
        c = next(c for c in enumerate_extension_classes(G, 3)
                 if not bockstein(G, c.to_vector(), 2, 3).is_zero)
        ext = central_extension(G, 3, c)
        assert bockstein_r(G, c).order() == 3
        clear_cache()
        monkeypatch.setattr(FreeResolution, "bar_chains",
                            lambda self, n: tuple({} for _ in self.boundary(n)))
        # the character vanishes, so the Bockstein detector reads a root
        # gerbe, which inflation, off the comparison chains, refutes
        with pytest.raises(InvariantViolationError, match="root-gerbe detectors disagree"):
            analyze_fiber(ext)
        assert bockstein_r(G, c).order() == 1 != bockstein(G, c.to_vector(), 2, 3).order()
        monkeypatch.undo()
        clear_cache()

    def test_a_target_not_dual_to_h2_is_caught(self, monkeypatch):
        G = direct_product(cyclic(3), cyclic(3))
        c = enumerate_extension_classes(G, 3)[-1]
        maps = import_module("stacky_brauer.cohomology_maps")
        wrong = cohomology_Z(cyclic(9), 2)      # Z/9, where H^3(G, Z) = Z/3
        monkeypatch.setattr(maps, "cohomology_Z", lambda G, n: wrong)
        with pytest.raises(InvariantViolationError, match="is not dual to"):
            bockstein_r(G, c)

    def test_bar_chains_are_dropped_with_the_resolution(self):
        G = semidirect_cyclic_by_z2(4, 3)
        clear_cache()
        R = free_resolution(G)
        R.bar_chains(2)
        assert sorted(R._bar_chains) == [1, 2]
        clear_cache()
        assert free_resolution(G) is not R and not free_resolution(G)._bar_chains


class TestDihedral24Fibers:
    """The eight classes of the dihedral group of order 24 by Z/2, split
    class first: H^3(D12, Z) = Z/2 forces the Bockstein's coordinates."""

    COORDS = [(0,), (0,), (1,), (1,), (0,), (0,), (1,), (1,)]

    def test_cold_reports_build_no_bar_complex(self, monkeypatch):
        # nor do the nodes of Z/3 x Z/3 (r = 3) and D4 x Z/2 (r = 2), whose
        # H^3(G, Z), Z/3 and (Z/2)^3, forces no coordinates.  Their root
        # gerbes are the classes of H^2(G, Z/r) that come from H^2(G, Z),
        # (Z/3)^2 and (Z/2)^3: 9 of 27 and 8 of 64.
        G = semidirect_cyclic_by_z2(12, 11)
        others = ((direct_product(cyclic(3), cyclic(3)), 3, 9),
                  (direct_product(semidirect_cyclic_by_z2(4, 3), cyclic(2)), 2, 8))
        clear_cache()
        extensions = [central_extension(G, 2, c) for c in enumerate_extension_classes(G, 2)]
        more = [[central_extension(H, r, c) for c in enumerate_extension_classes(H, r)]
                for H, r, _ in others]
        built = count_bar_differentials(monkeypatch)

        def cold_reports(exts, r):
            elapsed, fibers = 0.0, []
            for ext in exts:
                clear_cache()
                t0 = time.perf_counter()
                rep = brauer_report(node_curve(ext), r)
                elapsed += time.perf_counter() - t0
                (_, d), = rep.fibers
                fibers.append(d)
            return elapsed, fibers

        elapsed, fibers = cold_reports(extensions, 2)
        results = [cold_reports(exts, r) for exts, (_, r, _) in zip(more, others)]
        monkeypatch.undo()
        clear_cache()
        assert built == []
        assert [(d.bockstein_class, d.is_root_gerbe) for d in fibers] == \
            [(c, c == (0,)) for c in self.COORDS]
        assert [sum(d.is_root_gerbe for d in ds) for _, ds in results] == \
            [roots for _, _, roots in others]
        # the bounds were fixed before the test was written.  0.5 s per fiber
        # for the eight reports, which take about 0.25 s together on a 2-vCPU
        # VM (the bar Bockstein took about 7 s for each); 0.25 s per report
        # for the 91 others, which take about 1.7 s together (a D4 x Z/2
        # report took 0.67-0.71 s while its coordinates came off the bar
        # Bockstein)
        assert elapsed < 4
        assert sum(t for t, _ in results) < 0.25 * sum(map(len, more))


def test_concurrent_callers_share_one_resolution():
    # more threads than cores, switching often: every caller must see the
    # same generators, not a degree appended twice or half built
    V = direct_product(cyclic(2), cyclic(2))
    ext = central_extension(V, 4, enumerate_extension_classes(V, 4)[3])
    clear_cache()
    results = []

    def work():
        H = resolution_homology_Z(ext.total, 2).quotient
        onto = _pushforward_onto(ext.projection, 3)
        results.append((H, onto, free_resolution(ext.total).boundary(4)))

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
    assert len({(H, onto) for H, onto, _ in results}) == 1
    assert all(b is results[0][2] for _, _, b in results)
    assert results[0][0] == homology_Z(ext.total, 2).quotient
