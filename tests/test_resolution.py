"""The free ZE-resolution route for the extension groups' questions,
against the bar complex of E (the oracle) and closed forms."""

import sys
import threading
import time
from importlib import import_module
from math import gcd

import pytest

from stacky_brauer.abelian import (
    FinAbGroup,
    IntegerMatrix,
    IntegerSpan,
    cokernel,
    kernel_basis,
    set_resource_cap,
)
from stacky_brauer.cohomology import (
    _kernel_trivial_by_homology,
    _pushforward_onto,
    clear_cache,
    cohomology_Z,
    comparison_chains,
    enumerate_extension_classes,
    free_resolution,
    homology_Z,
    resolution_homology_Z,
)
from stacky_brauer.curves import CurveSpec, StabilizerPoint, brauer_report
from stacky_brauer.cli import parse_input
from stacky_brauer.errors import InvariantViolationError, ResourceCapError
from stacky_brauer.groups import (
    FiniteGroup,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    split_extension,
)
from conftest import small_family

# the module, which the package's `cohomology` function shadows
cohomology_module = import_module("stacky_brauer.cohomology")


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
                d_G = RG.z_boundary(n)
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
                assert (R.z_boundary(n) @ R.z_boundary(n + 1)).is_zero(), (label, n)


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
                d = R.z_boundary(n)
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
        R.lift(2, R.z_boundary(2).column(0))
        assert R._echelons
        clear_cache()
        assert not free_resolution(G)._echelons

    def test_lift_solves_through_the_echelon(self):
        for name, G in small_family():
            clear_cache()
            R = free_resolution(G)
            for n in range(1, 5):
                d, echelon = R.z_boundary(n), R.echelon(n)
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
        # kernel_basis(z_boundary(n))
        for label, ext in extensions(16):
            R = free_resolution(ext.total)
            for n in range(1, 5):
                d = R.z_boundary(n)
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

    def test_cold_homology_builds_only_its_own_degrees(self):
        for label, ext in extensions(16):
            for n in range(1, 5):
                clear_cache()
                resolution_homology_Z(ext.total, n)
                R = free_resolution(ext.total)
                assert len(R._boundaries) == n, (label, n)
                assert sorted(R._echelons) == list(range(n + 1)), (label, n)
        clear_cache()


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
    built = []
    original = cohomology_module.bar_differential

    def counting(X, n):
        built.append((X.order, n))
        return original(X, n)

    monkeypatch.setattr(cohomology_module, "bar_differential", counting)
    clear_cache()
    rep = brauer_report(doc.curve_spec(), doc.r)
    monkeypatch.undo()
    clear_cache()
    assert (8, 3) in built
    assert not [n for order, n in built if order == 16], built
    # the degree-4 question is answered by the section before H^4(G, Z)
    assert (8, 4) not in built
    (_, d), = rep.fibers
    assert d.h2_units_total == FinAbGroup.from_factors((2, 2, 2))
    assert d.h3_inflation_injective



def test_non_split_d4_node_builds_only_the_bockstein_bar_complex(monkeypatch):
    G = semidirect_cyclic_by_z2(4, 3)
    ext = central_extension(G, 2, enumerate_extension_classes(G, 2)[1])
    pt = StabilizerPoint("node", G, singular=True, extension=ext)
    curve = CurveSpec(smooth=False, proper=True, points=(pt,),
                      h1_stack_override=FinAbGroup.trivial())
    built = []
    original = cohomology_module.bar_differential

    def counting(X, n):
        built.append((X.order, n))
        return original(X, n)

    def refused(X, n):
        raise AssertionError(f"homology_Z({X.order}, {n}) on the report path")

    monkeypatch.setattr(cohomology_module, "bar_differential", counting)
    monkeypatch.setattr(cohomology_module, "homology_Z", refused)
    clear_cache()
    rep = brauer_report(curve, 2)
    monkeypatch.undo()
    clear_cache()
    # the Bockstein's H^3(G, Z) classes: its d_in and d_out, once each
    assert sorted(built) == [(8, 2), (8, 3)]
    assert rep.splitting == "unknown"


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
