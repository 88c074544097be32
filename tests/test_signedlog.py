"""Signed log-magnitude arithmetic and finite-exponent power sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxalg import (
    BoxMatrix,
    DomainError,
    SignedLog,
    det_p,
    net_by_magnitude,
    boxplus,
    inner,
    odd_exponent,
    phi_p_sum,
    psi_ln,
    slog_boxplus,
    slog_roundtrip,
)

F = Fraction
REL = 1e-12

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero = rationals.filter(lambda r: r != 0)
small_p = st.integers(min_value=0, max_value=6)


class TestRepresentation:
    def test_from_rational_roundtrip(self):
        z = SignedLog.from_rational(F(-3, 4))
        assert z.sign == -1
        assert z.exact == F(-3, 4)
        assert z.to_float() == pytest.approx(-0.75, rel=REL)

    def test_zero(self):
        z = SignedLog.zero()
        assert z.is_zero
        assert z.to_float() == 0.0
        assert z.exact == 0

    def test_from_float_has_no_exact_part(self):
        z = SignedLog.from_float(2.5)
        assert z.exact is None
        assert z.to_float() == pytest.approx(2.5, rel=REL)

    def test_negation_and_product(self):
        a = SignedLog.from_rational(F(2))
        b = SignedLog.from_rational(F(-3))
        assert (-a).exact == -2
        assert (a * b).exact == -6
        assert (a * b).exact == -6

    def test_division(self):
        a = SignedLog.from_rational(F(-6))
        b = SignedLog.from_rational(F(4))
        assert (a / b).exact == F(-3, 2)
        with pytest.raises(DomainError):
            a / SignedLog.zero()

    def test_odd_root(self):
        z = SignedLog.from_rational(F(-8))
        r = z.root(3)
        assert r.sign == -1
        assert r.to_float() == pytest.approx(-2.0, rel=REL)
        with pytest.raises(DomainError):
            z.root(2)

    def test_exponent_schedule(self):
        assert odd_exponent(0) == 1
        assert odd_exponent(20) == 41


class TestPowerSum:
    def test_p_zero_is_plain_sum(self):
        xs = [SignedLog.from_rational(F(k)) for k in (1, 2, 3)]
        assert phi_p_sum(xs, 0).to_float() == pytest.approx(6.0, rel=REL)

    def test_exact_cancellation_across_magnitudes_is_zero(self):
        """The two log-sum-exp parts of these sums differ in the last bits,
        but the power sums are exactly 0, so the result is the zero."""
        for values, p in (([1, -8, F(7, 2), F(7, 2)], 0),
                          ([3, 4, 5, -6], 1)):  # 3^3 + 4^3 + 5^3 = 6^3
            z = phi_p_sum([SignedLog.from_rational(F(v)) for v in values], p)
            assert z.is_zero and z.exact == 0
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % (n - 1)])]
            assert det_p(BoxMatrix(rows), 0).is_zero, rows

    def test_equal_logs_of_a_nonzero_sum_read_the_exact_sum(self):
        """10^16 and 10^16 - 1 have bitwise equal float logs, so the two
        parts tie exactly in floats; the exact sum 1 is read instead of 0,
        while a map that cancels exactly still reads the exact zero."""
        z = phi_p_sum([SignedLog.from_rational(10 ** 16),
                       SignedLog.from_rational(-(10 ** 16 - 1))], 0)
        assert (z.sign, z.to_float(), z.exact) == (1, 1.0, None)
        for values, p in (([10 ** 16, -(10 ** 16 - 1), -1], 0),
                          ([3, 4, 5, -6], 1)):
            z = phi_p_sum([SignedLog.from_rational(v) for v in values], p)
            assert z.is_zero and z.exact == 0

    def test_seeded_equal_logs_read_the_root_of_the_exact_sum(self):
        # x against -y with equal float logs: the value at each p is the
        # q-th root of x^q - y^q, through one log and one exp
        rng = random.Random(20)
        seen = 0
        for _ in range(400):
            x = rng.randint(10 ** 15, 10 ** 18)
            y = x + rng.choice((-3, -2, -1, 1, 2, 3))
            if math.log(x) != math.log(y):
                continue
            seen += 1
            xs = [SignedLog.from_rational(x), SignedLog.from_rational(-y)]
            for p in (0, 1, 2):
                q = odd_exponent(p)
                s = x ** q - y ** q
                assert phi_p_sum(xs, p).to_float() == math.copysign(
                    math.exp(math.log(abs(s)) / q), s)
        assert seen > 100

    def test_single_survivor_is_exact(self):
        xs = [SignedLog.from_rational(v) for v in (F(3), F(-3), F(2))]
        z = phi_p_sum(xs, 5)
        assert z.exact == F(2)

    def test_balanced_input_is_exactly_zero(self):
        xs = [SignedLog.from_rational(v) for v in (F(3), F(-3), F(1), F(-1))]
        for p in (0, 1, 7, 20):
            assert phi_p_sum(xs, p).is_zero

    def test_net_multiplicity_shows_up_as_root(self):
        """Two copies of the dominant value leave a factor 2^(1/(2p+1))."""
        xs = [SignedLog.from_rational(F(3)), SignedLog.from_rational(F(3))]
        p = 4
        z = phi_p_sum(xs, p)
        assert z.to_float() == pytest.approx(3 * 2 ** (1 / odd_exponent(p)),
                                             rel=REL)

    def test_large_magnitudes_do_not_overflow(self):
        xs = [SignedLog.from_rational(F(10 ** 40)),
              SignedLog.from_rational(F(10 ** 39))]
        z = phi_p_sum(xs, 10)
        assert math.isfinite(z.logmag)
        assert z.logmag == pytest.approx(40 * math.log(10), rel=1e-9)

    @pytest.mark.parametrize("p", [10 ** 306, 10 ** 307, 5 * 10 ** 307,
                                   10 ** 400],
                             ids=["1e306", "1e307", "5e307", "1e400"])
    def test_index_past_the_float_range_leaves_the_top_group(self, p):
        """Once (2p+1) times a log leaves the float range, the power mean
        is its top group: the same sign and log as at p = 10^306."""
        for xs, sign, top in (
            ([F(9504), F(-9506)], -1, math.log(9506)),
            ([F(-9504), F(9506), F(9506)], 1, math.log(9506)),
            ([F(1, 3), F(-1, 2)], -1, math.log(F(1, 2))),
        ):
            for z in (phi_p_sum([SignedLog.from_rational(x) for x in xs], p),
                      phi_p_sum([SignedLog.from_float(float(x)) for x in xs], p),
                      inner(xs, [1] * len(xs), "p", p)):
                assert z.sign == sign
                assert z.logmag == pytest.approx(top, rel=1e-15)
        zero = [SignedLog.from_rational(F(3)), SignedLog.from_rational(F(-3))]
        assert phi_p_sum(zero, p).is_zero

    @given(st.lists(nonzero, min_size=1, max_size=6), small_p)
    def test_sign_matches_exact_power_sum(self, values, p):
        """The grouped log-domain sum gets the sign right whenever the exact
        power sum is not a near-cancellation below float resolution."""
        q = odd_exponent(p)
        exact = sum(v ** q for v in values)
        xs = [SignedLog.from_rational(v) for v in values]
        z = phi_p_sum(xs, p)
        if exact == 0:
            assert z.is_zero
        else:
            scale = max(abs(v) for v in values) ** q
            if abs(exact) / scale > 1e-9:
                assert z.sign == (1 if exact > 0 else -1)

    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_mirrored_inputs_cancel_bit_exactly(self, values):
        xs = [SignedLog.from_rational(v) for v in values]
        xs += [SignedLog.from_rational(-v) for v in values]
        for p in (0, 3, 11):
            assert phi_p_sum(xs, p).is_zero


class TestLimitAgreement:
    @given(rationals, rationals)
    def test_slog_boxplus_matches_exact_boxplus(self, x, y):
        a = SignedLog.from_rational(x)
        b = SignedLog.from_rational(y)
        got = slog_boxplus(a, b)
        want = boxplus(x, y)
        if want == 0:
            assert got.is_zero
        else:
            assert got.exact == want

    @given(nonzero)
    def test_psi_roundtrip(self, r):
        z = psi_ln(r)
        assert z.to_float() == pytest.approx(float(r), rel=REL)

    @given(rationals)
    def test_roundtrip_helper(self, r):
        assert slog_roundtrip(r)

    def test_convergence_toward_limit(self):
        """phi_p sums of a fixed multiset approach the limit value as the
        exponent grows, at the documented geometric-gap rate."""
        values = (F(-3), F(-2), F(3), F(3), F(1), F(-3))
        xs = [SignedLog.from_rational(v) for v in values]
        gaps = []
        for p in (2, 6, 18):
            z = phi_p_sum(xs, p)
            gaps.append(abs(z.to_float() - (-2.0)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8



class TestNetMap:
    @pytest.mark.parametrize("seed", range(40))
    def test_net_by_magnitude_matches_a_fraction_keyed_map(self, seed):
        """({m: net}, S) holds the same magnitudes m/S and net counts as a
        map keyed by the Fraction magnitudes, S is the least common
        denominator, and magnitudes that cancel stay with net 0."""
        rng = random.Random(seed)
        values = [F(0) if rng.random() < 0.15
                  else F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 9)))
                  for _ in range(rng.randint(0, 60))]
        values += [-v for v in values[:rng.randint(0, len(values))]]
        rng.shuffle(values)
        counts = [rng.randint(-3, 5) for _ in values] if seed % 2 else None
        want = {}
        for v, c in zip(values, counts or [1] * len(values)):
            if v:
                want[abs(v)] = want.get(abs(v), 0) + (c if v > 0 else -c)
        net, scale = net_by_magnitude(iter(values), counts)
        assert scale == math.lcm(*[v.denominator for v in values])
        assert all(type(m) is int and m > 0 for m in net)
        assert {F(m, scale): c for m, c in net.items()} == want

    @pytest.mark.parametrize("seed", range(20))
    def test_tally_matches_per_value_netting(self, seed):
        """Tallying equal values first (an int and an equal Fraction share
        one tally) gives the map, and the key order, of netting each value
        in turn; so do ``counts`` over repeated values."""
        rng = random.Random(1000 + seed)
        pool = [0, 2, F(2), -2, F(-2), 3, F(3, 2), F(-3, 2), F(7, 6), -5]
        values = [rng.choice(pool) for _ in range(rng.randint(0, 80))]
        counts = [rng.randint(-3, 5) for _ in values] if seed % 2 else None
        scale = math.lcm(*[F(v).denominator for v in values])
        want = {}
        for v, c in zip(values, counts or [1] * len(values)):
            m = int(F(v) * scale)
            if m:
                want[abs(m)] = want.get(abs(m), 0) + (c if m > 0 else -c)
        net, got_scale = net_by_magnitude(iter(values), counts)
        assert got_scale == scale
        assert list(net.items()) == list(want.items())
