"""Finite-exponent sweeps against exact limit values."""

import math
import re
from fractions import Fraction

import pytest

from boxalg import (CapacityError, ConvergenceError, DomainError, perron_p,
                    predict_near_tie, sweep)

F = Fraction
TOL = 1e-6


class TestDetSweep:
    def test_well_separated_products_converge_fast(self):
        rep = sweep("det", {"A": [[2, 3, -4], [0, -4, 2], [1, -1, 5]]})
        assert rep.limit == F(-40)
        assert rep.converged
        assert rep.final_rel_gap < 1e-12

    def test_repeated_dominant_product_converges_slowly(self):
        """Two equal dominant products leave a gap of 2**(1/41) - 1 at the
        default sweep depth, which the near-tie predictor flags."""
        rep = sweep("det", {"A": [[-1, 1], [1, 1]]})
        assert rep.limit == F(-1)
        assert not rep.converged
        assert rep.near_tie
        assert rep.final_rel_gap == pytest.approx(2 ** (1 / 41) - 1, rel=1e-9)

    def test_p_grid_is_increasing(self):
        rep = sweep("det", {"A": [[1, 0], [0, 1]]}, p_max=5)
        assert rep.p_values == tuple(range(6))
        assert rep.converged


class TestCramerSweep:
    def test_limit_solution_as_target(self):
        rep = sweep("cramer", {"A": [[-1, 1], [1, 1]], "b": [2, 3]})
        assert rep.limit == (F(3), F(3))
        assert rep.near_tie

    def test_singular_system_is_rejected(self):
        with pytest.raises(DomainError):
            sweep("cramer", {"A": [[1, 1], [1, 1]], "b": [1, 2]})

    @pytest.mark.parametrize("A, b, message", [
        ([[1, None]], ["zz"], "not a scalar: None"),
        ([[1, 2]], ["zz"], "not a rational string: 'zz'"),
        ([[1, 2]], [1, 1, 1], "system matrix must be square, got 1x2"),
        ([[1, 2], [3, 4]], [1, 1, 1], "right-hand side length 3 != size 2"),
    ], ids=["A-scalar", "b-scalar", "square", "length"])
    def test_shape_faults_in_order(self, A, b, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sweep("cramer", {"A": A, "b": b})


class TestHyperplaneSweep:
    def test_defining_point_residual_is_exactly_zero(self):
        rep = sweep("hyperplane", {
            "points": [[1, 0, -3], [2, -1, 1], [4, 1, 2]],
            "x": [1, 0, -3],
        })
        assert rep.limit == F(0)
        assert rep.converged
        assert all(g == 0.0 for g in rep.abs_gaps)

    def test_off_plane_point_keeps_residual(self):
        rep = sweep("hyperplane", {
            "points": [[1, 0, -3], [2, -1, 1], [4, 1, 2]],
            "x": [0, 0, 0],
        })
        assert rep.final_gap > 0

    @pytest.mark.parametrize("points, x, message", [
        ([[1, None]], ["zz"], "not a scalar: None"),
        ([], ["zz"], "not a rational string: 'zz'"),
        ([], [1], "matrix must have at least one column"),
        ([[1, 2, 7], [3, 4]], [1], "columns have inconsistent lengths"),
        ([[1, 2], [3, 4], [5, 6]], [1, 1, 1], "x has length 3, expected 2"),
        ([[1, 2], [3, 4], [5, 6]], [1, 1],
         "determinant needs a square matrix, got 2x3"),
        ([[1, "1/2"]], [1, 1], "determinant needs a square matrix, got 2x1"),
    ], ids=["points-scalar", "x-scalar", "empty", "ragged", "x-length",
            "more-points", "fewer-points"])
    def test_shape_faults_in_order(self, points, x, message):
        """Each point's scalars, then x's; the points are the columns of
        V: empty, then ragged, then x against their length, then V
        square, each with V's shape."""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sweep("hyperplane", {"points": points, "x": x})

    def test_size_is_held_to_the_cap(self):
        points = [[int(i == j) for j in range(4)] for i in range(4)]
        with pytest.raises(CapacityError, match="^determinant on a 4x4 "
                                                "matrix exceeds the size cap 3$"):
            sweep("hyperplane", {"points": points, "x": [1] * 4}, cap=3)


class TestCharpolySweep:
    def test_balanced_evaluation_is_zero_at_every_exponent(self):
        rep = sweep("charpoly", {"A": [[0, 1], [1, 0]], "lam": 1})
        assert rep.limit == F(0)
        assert rep.converged
        assert all(v is not None and v.is_zero for v in rep.values)

    def test_survivor_evaluation(self):
        rep = sweep("charpoly", {"A": [[2, 1], [1, 2]], "lam": 2})
        assert rep.limit == F(-1)
        assert rep.converged
        assert rep.final_gap == 0.0


class TestPerronSweep:
    def test_symmetric_two_by_two(self):
        rep = sweep("perron", {"A": [[2, 1], [1, 2]]})
        assert rep.limit == F(2)
        assert rep.converged
        assert rep.final_rel_gap < TOL

    def test_slow_case_reports_honest_gap(self):
        rep = sweep("perron", {"A": [[1, 1], [1, 1]]})
        assert rep.limit == F(1)
        assert not rep.converged
        assert rep.final_rel_gap == pytest.approx(2 ** (1 / 41) - 1, rel=1e-9)


    def test_irrational_limit_past_float_range(self):
        # the limit is r = sqrt(2) * 10^400 and rho_p = (c^q + r^q)^(1/q),
        # q = 2p+1, so each relative gap is (1 + (c/r)^q)^(1/q) - 1
        c, big = 5 * 10 ** 399, 10 ** 400
        rep = sweep("perron", {"A": [[c, big], [2 * big, c]]})
        assert rep.limit == math.inf
        ratio = 1 / (2 * math.sqrt(2))
        for p, gap in enumerate(rep.rel_gaps[:8]):
            q = 2 * p + 1
            assert gap == pytest.approx((1 + ratio ** q) ** (1 / q) - 1,
                                        rel=1e-6, abs=1e-12)
        assert rep.abs_gaps[:8] == (math.inf,) * 8
        assert not any(map(math.isnan, rep.abs_gaps + rep.rel_gaps))
        assert rep.converged

    def test_unsettled_index_reads_as_a_missing_value(self, monkeypatch):
        import boxalg.oracle as oracle

        def perron(A, p):
            if p >= 10:
                raise ConvergenceError("did not settle")
            return perron_p(A, p)
        monkeypatch.setattr(oracle, "perron_p", perron)
        rep = sweep("perron", {"A": [[2, 1], [1, 2]]}, p_max=12)
        assert rep.limit == F(2)
        assert None not in rep.values[:10]
        assert rep.values[10:] == (None, None, None)
        assert rep.abs_gaps[10:] == rep.rel_gaps[10:] == (math.inf,) * 3
        assert rep.final_gap == math.inf and not rep.converged

    def test_other_errors_still_raise_at_their_index(self):
        with pytest.raises(DomainError, match="^at p=0: matrix entry"):
            sweep("perron", {"A": [[1, 0], [0, 1]]})


class TestPredictor:
    def test_flags_repeated_dominant(self):
        assert predict_near_tie([F(-1), F(-1)], 20, TOL) is True

    def test_clears_separated_values(self):
        assert predict_near_tie([F(2), F(1)], 20, TOL) is False

    def test_flags_close_second_magnitude(self):
        assert predict_near_tie([F(100), F(-99)], 20, TOL) is True

    def test_reads_values_as_a_sum_sweep_does(self):
        """Floats and rational strings read exactly (0.5 is 1/2), as the
        ``sum`` sweep reads its vector, and give the Fraction answer."""
        for p_max in (0, 3, 20):
            want = predict_near_tie([F(1, 2), F(1)], p_max, TOL)
            assert predict_near_tie([0.5, 1], p_max, TOL) is want
            assert predict_near_tie(["1/2", 1], p_max, TOL) is want

    @pytest.mark.parametrize("values, message", [
        ([True, 1], "not a scalar: True"),
        ([1, "x"], "not a rational string: 'x'"),
        ([], "vector must be nonempty"),
    ])
    def test_rejects_what_a_sum_sweep_rejects(self, values, message):
        with pytest.raises(DomainError, match=message):
            predict_near_tie(values, 3, TOL)
        with pytest.raises(DomainError, match=message):
            sweep("sum", {"xs": values}, p_max=3)


class TestExactZeroAtOneIndex:
    """Exact cancellation at a single p: the tie is settled with the q at
    hand, and no other index inherits that p's zero."""

    def test_sum_vanishes_at_p_1_only(self):
        # 3^3 + 4^3 + 5^3 = 6^3
        rep = sweep("sum", {"xs": [3, 4, 5, -6]}, p_max=3)
        assert [v.sign for v in rep.values] == [1, 0, -1, -1]
        assert rep.values[1].exact == 0

    A = [[1, 9, -2], [7, 7, 0], [6, -8, 2]]

    def test_det_vanishes_at_p_1_only(self):
        rep = sweep("det", {"A": self.A}, p_max=3)
        assert [v.sign for v in rep.values] == [1, 0, -1, -1]
        assert rep.values[1].exact == 0

    def test_cramer_is_singular_at_p_1_only(self):
        rep = sweep("cramer", {"A": self.A, "b": [1, 1, 1]}, p_max=3)
        assert [v is None for v in rep.values] == [False, True, False, False]
        assert rep.abs_gaps[1] == math.inf
        assert all(len(v) == 3 for i, v in enumerate(rep.values) if i != 1)


class TestGuards:
    def test_depth_guard(self):
        with pytest.raises(DomainError):
            sweep("det", {"A": [[1]]}, p_max=65)

    def test_bool_depth_is_no_depth(self):
        with pytest.raises(DomainError, match="p_max must be a nonnegative "
                                              "integer, got True"):
            sweep("det", {"A": [[1]]}, p_max=True)

    @pytest.mark.parametrize("tol", ["x", True, math.inf, math.nan, 0, -1])
    def test_one_tol_rule_for_sweep_and_predictor(self, tol):
        message = re.escape(f"tol must be a positive real number, got {tol!r}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            sweep("sum", {"xs": [1, 2]}, p_max=3, tol=tol)
        with pytest.raises(DomainError, match=f"^{message}$"):
            predict_near_tie([1, 2], 3, tol)

    @pytest.mark.parametrize("p_max, message", [
        (65, "p_max 65 exceeds the guard 64"),
        (-1, "p_max must be a nonnegative integer, got -1"),
        (1.5, "p_max must be a nonnegative integer, got 1.5"),
        (True, "p_max must be a nonnegative integer, got True"),
    ], ids=["65", "-1", "1.5", "True"])
    def test_one_p_max_guard_for_sweep_and_predictor(self, p_max, message):
        for check in (lambda: sweep("sum", {"xs": [1, 2]}, p_max=p_max),
                      lambda: predict_near_tie([1, 2], p_max, TOL)):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check()

    @pytest.mark.parametrize("tol", [1, 0.5, F(1, 10 ** 6)])
    def test_positive_real_tols_pass(self, tol):
        assert sweep("sum", {"xs": [2, 1]}, p_max=3, tol=tol).p_values[-1] == 3
        assert predict_near_tie([2, 1], 3, tol) in (True, False)

    def test_unknown_quantity(self):
        with pytest.raises(DomainError):
            sweep("median", {"A": [[1]]})

    def test_sum_quantity(self):
        """The balanced dominant magnitude nets away exactly, so the sweep
        homes in on the survivor without a near-tie warning."""
        rep = sweep("sum", {"xs": [-3, -2, 3, 3, 1, -3]})
        assert rep.limit == F(-2)
        assert rep.converged
        assert not rep.near_tie
