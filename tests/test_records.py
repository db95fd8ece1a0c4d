"""The package's records: value equality and hashing, refused assignment,
and the checks each constructor runs."""

import pytest

from stacky_brauer.abelian import FinAbGroup
from stacky_brauer.cli import InputDocument, PointSection, parse_input
from stacky_brauer.cohomology import Coefficients, mod_coefficients
from stacky_brauer.curves import BrauerReport, CurveSpec, StabilizerPoint, brauer_report
from stacky_brauer.errors import InvariantViolationError, ValidationError
from stacky_brauer.groups import GroupHom, cyclic


def assert_value_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


class TestValueSemantics:
    def test_fin_ab_group(self):
        assert_value_equal(FinAbGroup(1, (2, 4)), FinAbGroup(1, [2, 4]))
        assert FinAbGroup(0, (2, 4)) != FinAbGroup(1, (2, 4))
        assert FinAbGroup(0, (2,)) != FinAbGroup(0, (4,))
        assert FinAbGroup(0, ()) != (0, ())

    def test_coefficients(self):
        assert_value_equal(mod_coefficients(6), Coefficients("Zm", 6))
        assert Coefficients("Zm", 6) != Coefficients("Zm", 3)
        assert Coefficients("Z") != Coefficients("units")

    def test_group_hom(self):
        C4, C2 = cyclic(4), cyclic(2)
        assert_value_equal(GroupHom(C4, C2, [0, 1, 0, 1]), GroupHom(C4, C2, (0, 1, 0, 1)))
        assert GroupHom(C4, C2, (0, 1, 0, 1)) != GroupHom(C4, C2, (0, 0, 0, 0))

    def test_curve_spec(self):
        def spec(genus):
            pts = [StabilizerPoint("a", cyclic(3)), StabilizerPoint("b", cyclic(2))]
            return CurveSpec(True, True, pts, coarse_genus=genus)

        assert_value_equal(spec(2), spec(2))
        assert spec(2) != spec(1)

    def test_repr_names_every_field(self):
        assert repr(FinAbGroup(0, (2,))) == "FinAbGroup(free_rank=0, invariant_factors=(2,))"
        assert repr(Coefficients("Z")) == "Coefficients(kind='Z', modulus=0)"


class TestFrozen:
    def test_assignment_is_refused(self):
        G = FinAbGroup(0, (2,))
        with pytest.raises(AttributeError):
            G.free_rank = 1
        with pytest.raises(AttributeError):
            G.other = 1
        with pytest.raises(AttributeError):
            del G.invariant_factors
        with pytest.raises(AttributeError):
            Coefficients("Z").modulus = 2
        assert G == FinAbGroup(0, (2,))


class TestConstructorChecks:
    def test_broken_divisibility_chain(self):
        with pytest.raises(ValidationError, match="divisibility"):
            FinAbGroup(0, (2, 3))

    def test_unknown_coefficients(self):
        with pytest.raises(ValidationError):
            Coefficients("Q")

    # a non-homomorphism GroupHom and disagreeing FiberDiagnostics detectors:
    # test_groups.py::TestGroupHom and test_fibers.py::TestDiagnostics

    def test_root_gerbe_flag(self):
        curve = CurveSpec(True, True, [StabilizerPoint("a", cyclic(2))], coarse_genus=0)
        report = brauer_report(curve, 2)
        assert report.is_root_gerbe
        fields = {name: getattr(report, name) for name in BrauerReport._fields}
        assert BrauerReport(**fields) == report
        with pytest.raises(InvariantViolationError, match="root-gerbe flag"):
            BrauerReport(**{**fields, "is_root_gerbe": False})


class TestInputDocument:
    TEXT = "[curve]\nsmooth = true\nproper = true\ngenus = 1\n[gerbe]\nr = 2\n"

    def test_spec_is_not_compared(self):
        a, b = parse_input(self.TEXT), parse_input(self.TEXT)
        assert a.spec is not None and a.spec is not b.spec
        assert a == b
        b.spec = None
        assert a == b
        b.genus = 2
        assert a != b

    def test_points_default_to_a_fresh_list(self):
        a, b = InputDocument(True, True), InputDocument(True, True)
        a.points.append(PointSection("p", "cyclic:2", cyclic(2)))
        assert b.points == []

    def test_mutable_records_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(InputDocument(True, True))
        with pytest.raises(TypeError):
            hash(PointSection("p", "cyclic:2", cyclic(2)))
