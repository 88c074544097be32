"""Hyperplanes through point configurations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (
    DegenerateConfigurationError,
    DomainError,
    LimitHyperplane,
    hyperplane_contains,
    hyperplane_through,
)

F = Fraction

coords = st.fractions(min_value=-5, max_value=5, max_denominator=4)


class TestConstruction:
    def test_pinned_three_points(self):
        points = [(F(1), F(0), F(-3)), (F(2), F(-1), F(1)), (F(4), F(1), F(2))]
        H = hyperplane_through(points)
        assert H.coeffs == (F(-3), F(12), F(4))
        assert H.rhs == F(-12)

    def test_defining_points_are_members(self):
        points = [(F(1), F(0), F(-3)), (F(2), F(-1), F(1)), (F(4), F(1), F(2))]
        H = hyperplane_through(points)
        for pt in points:
            assert hyperplane_contains(H, pt)

    def test_origin_not_member(self):
        points = [(F(1), F(0), F(-3)), (F(2), F(-1), F(1)), (F(4), F(1), F(2))]
        H = hyperplane_through(points)
        assert not hyperplane_contains(H, (F(0), F(0), F(0)))

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            hyperplane_through([(F(1), F(0)), (F(2), F(0))])

    def test_wrong_point_count(self):
        with pytest.raises(DomainError):
            hyperplane_through([(F(1), F(2))])

    def test_direct_construction_validation(self):
        with pytest.raises(DomainError):
            LimitHyperplane((F(0), F(0)), F(1))
        with pytest.raises(DomainError):
            LimitHyperplane((F(1), F(1)), F(0))

    def test_rhs_follows_the_scalar_rule(self):
        # the right-hand side reads like every other scalar input: 0.1 as
        # the decimal 1/10, as it does among the coefficients
        H = LimitHyperplane((0.1, 2), 0.1)
        assert H.rhs == H.coeffs[0] == F(1, 10)
        assert type(H.rhs) is F
        assert LimitHyperplane((1, 1), "-3/4").rhs == F(-3, 4)
        for bad in ("1.5", True, float("inf"), "1/0"):
            with pytest.raises(DomainError):
                LimitHyperplane((F(1), F(1)), bad)


class TestMembership:
    def test_membership_is_a_sandwich(self):
        """A point belongs when the target value sits between the lower and
        upper envelope of the coefficient products."""
        H = LimitHyperplane((F(1), F(-1)), F(2))
        assert hyperplane_contains(H, (F(2), F(-2)))
        assert hyperplane_contains(H, (F(3), F(3)))
        assert not hyperplane_contains(H, (F(3), F(1)))
        assert not hyperplane_contains(H, (F(1), F(3)))

    def test_dimension_mismatch(self):
        H = LimitHyperplane((F(1), F(2)), F(1))
        with pytest.raises(DomainError):
            hyperplane_contains(H, (F(1), F(1), F(1)))

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(coords, coords), min_size=2, max_size=2,
                    unique=True))
    def test_two_point_planes_contain_their_points(self, points):
        try:
            H = hyperplane_through(points)
        except (DegenerateConfigurationError, DomainError):
            return
        for pt in points:
            assert hyperplane_contains(H, pt)
