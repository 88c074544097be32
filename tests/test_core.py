"""Scalar limit addition, envelopes, and inner products."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxalg import (
    DomainError,
    as_scalar,
    boxminus,
    boxplus,
    inner,
    nary_boxplus,
    residual_set,
    smile,
    xi,
)
from boxalg.core import _scalars

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
vectors = st.lists(rationals, min_size=1, max_size=8)


class TestBinary:
    def test_larger_magnitude_wins(self):
        assert boxplus(F(2), F(-5)) == F(-5)
        assert boxplus(F(-5), F(2)) == F(-5)
        assert boxplus(F(3), F(1)) == F(3)

    def test_opposite_tie_averages_to_zero(self):
        assert boxplus(F(4), F(-4)) == 0

    def test_equal_values_idempotent(self):
        assert boxplus(F(7, 3), F(7, 3)) == F(7, 3)

    def test_zero_is_identity(self):
        assert boxplus(F(0), F(-2)) == F(-2)
        assert boxplus(F(5), F(0)) == F(5)

    @pytest.mark.parametrize("bad, message", [
        (True, "not a scalar: True"),
        ("1.5", "not a rational string: '1.5'"),
    ])
    def test_operands_coerce_through_as_scalar(self, bad, message):
        for call in (lambda: boxplus(bad, F(1)), lambda: boxplus(F(1), bad),
                     lambda: as_scalar(bad)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()

    def test_subtraction_negates_second(self):
        assert boxminus(F(2), F(5)) == F(-5)
        assert boxminus(F(3), F(3)) == F(0)
        assert boxminus(F(3), F(-3)) == F(3)

    @given(rationals, rationals)
    def test_commutative(self, x, y):
        assert boxplus(x, y) == boxplus(y, x)

    @given(rationals, rationals)
    def test_magnitude_never_grows(self, x, y):
        assert abs(boxplus(x, y)) <= max(abs(x), abs(y))

    def test_not_associative(self):
        a, b, c = F(2), F(-2), F(1)
        assert boxplus(boxplus(a, b), c) == F(1)
        assert boxplus(a, boxplus(b, c)) == F(0)


class TestNary:
    def test_net_count_example(self):
        xs = (F(-3), F(-2), F(3), F(3), F(1), F(-3))
        assert nary_boxplus(xs) == F(-2)
        assert residual_set(xs) == (2, 5)
        assert xi(xs, None, F(3)) == 0
        assert xi(xs, None, F(2)) == -1

    def test_zeros_never_survive(self):
        assert nary_boxplus((F(0), F(0), F(0))) == 0
        assert residual_set((F(0), F(5), F(0))) == (2,)

    def test_fully_balanced_gives_zero(self):
        assert nary_boxplus((F(3), F(-3), F(1), F(-1))) == 0

    def test_index_subset_one_based(self):
        xs = (F(-3), F(-2), F(3), F(3), F(1), F(-3))
        assert nary_boxplus(xs, I=(2, 5)) == F(-2)
        assert nary_boxplus(xs, I=(3, 4)) == F(3)

    def test_bad_indices_rejected(self):
        xs = (F(1), F(2))
        with pytest.raises(DomainError):
            nary_boxplus(xs, I=(0,))
        with pytest.raises(DomainError):
            nary_boxplus(xs, I=(3,))
        with pytest.raises(DomainError):
            nary_boxplus(xs, I=(1, 1))

    def test_singleton(self):
        assert nary_boxplus((F(-7, 2),)) == F(-7, 2)

    @given(vectors)
    def test_matches_smile_average(self, xs):
        """The n-ary sum is the midpoint of its two envelopes only in the
        binary case; in general it sits between them."""
        total = nary_boxplus(xs)
        assert smile(xs, "lower") <= total <= smile(xs, "upper")

    @given(vectors)
    def test_magnitude_bounded_by_max(self, xs):
        assert abs(nary_boxplus(xs)) <= max(abs(x) for x in xs)

    @given(rationals, rationals)
    def test_binary_agrees_with_nary(self, x, y):
        assert boxplus(x, y) == nary_boxplus((x, y))


class TestSmile:
    def test_unique_extreme(self):
        xs = (F(1), F(-4), F(2))
        assert smile(xs, "lower") == F(-4)
        assert smile(xs, "upper") == F(-4)

    def test_both_signs_at_max(self):
        xs = (F(3), F(-3), F(1))
        assert smile(xs, "lower") == F(-3)
        assert smile(xs, "upper") == F(3)

    def test_all_zero(self):
        assert smile((F(0), F(0)), "lower") == 0
        assert smile((F(0), F(0)), "upper") == 0

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            smile((F(1),), "sideways")

    @given(rationals, rationals)
    def test_binary_decomposition(self, u, v):
        low = smile((u, v), "lower")
        high = smile((u, v), "upper")
        assert boxplus(u, v) == (low + high) / 2

    @given(vectors)
    def test_envelope_reflection(self, xs):
        neg = [-x for x in xs]
        assert smile(xs, "upper") == -smile(neg, "lower")

    @given(vectors, vectors)
    def test_envelopes_associate_over_concatenation(self, xs, ys):
        joined = list(xs) + list(ys)
        for mode in ("lower", "upper"):
            two_step = smile((smile(xs, mode), smile(ys, mode)), mode)
            assert two_step == smile(joined, mode)


class TestInner:
    def test_limit_flavor(self):
        x = (F(-1), F(1))
        y = (F(2), F(3))
        assert inner(x, y) == F(3)

    def test_envelope_flavors(self):
        x = (F(1), F(1))
        y = (F(2), F(-2))
        assert inner(x, y, flavor="lower") == F(-2)
        assert inner(x, y, flavor="upper") == F(2)
        assert inner(x, y) == F(0)

    def test_finite_exponent_flavor(self):
        x = (F(1), F(1))
        y = (F(2), F(3))
        z = inner(x, y, flavor="p", p=1)
        expected = (2 ** 3 + 3 ** 3) ** (1 / 3)
        assert z.to_float() == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            inner((F(1),), (F(1), F(2)))

    def test_unknown_flavor(self):
        with pytest.raises(DomainError):
            inner((F(1),), (F(1),), flavor="median")


class TestAsScalar:
    def test_accepted_forms(self):
        assert as_scalar(3) == 3
        assert as_scalar("-3/4") == F(-3, 4)
        assert as_scalar(0.1) == F(1, 10)
        assert as_scalar(1e300) == 10 ** 300
        assert as_scalar(F(2, 3)) == F(2, 3)

    @pytest.mark.parametrize("value", [
        True, "1.5", "12 ", "1e3", "1/0", float("nan"), float("inf"), None,
        [1],
    ])
    def test_rejected_forms(self, value):
        with pytest.raises(DomainError):
            as_scalar(value)


class TestScalars:
    def test_ints_pass_unwrapped(self):
        vec = _scalars(iter([3, -1, 0]))
        assert vec == [3, -1, 0] and all(type(v) is int for v in vec)

    def test_mixed_vector_coerces_the_rest(self):
        vec = _scalars([1, 2.5, "1/3", F(4, 2)])
        assert vec == [1, F(5, 2), F(1, 3), F(2)]
        assert type(vec[0]) is int and type(vec[1]) is F

    @pytest.mark.parametrize("values, message", [
        ([1, True], "not a scalar: True"),
        ([1, "x", True], "not a rational string: 'x'"),
        ([2, None, "y"], "not a scalar: None"),
        ([], "vector must be nonempty"),
    ])
    def test_first_fault_in_reading_order(self, values, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            _scalars(values)
