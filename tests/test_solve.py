"""Cramer-style solving, max-equation systems, and two-sided systems."""

from fractions import Fraction

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (
    DomainError,
    LimitHyperplane,
    LimitSystem,
    TwoSidedSystem,
    BoxMatrix,
    boxminus,
    cramer_limit_solve,
    det_inf,
    hyperplane_contains,
    inner,
    is_regular,
    kaykobad_check,
    kaykobad_p_check,
    maxsys_candidate,
    maxsys_existence_permutation,
    maxsys_reduce,
    maxsys_solve,
    replace_column,
    smile,
    twosided_is_regular,
    twosided_row_checks,
    twosided_solve,
    verify_limit_system,
)
import boxalg.signedlog as signedlog
import boxalg.solve as solve
from boxalg.solve import _max_columns

F = Fraction


def _reference_kaykobad(A, b):
    """The Fraction-sum loop this package used to decide the Kaykobad
    condition, kept as a reference for the integer test."""
    rows, n = A.to_rows(), A.rows
    for i, row in enumerate(rows):
        total = sum(
            (row[j] * b[j] / rows[j][j] for j in range(n) if j != i),
            Fraction(0),
        )
        if not b[i] > total:
            return False
    return True


def _reference_envelopes(xs):
    """The Fraction envelopes this package used before it read them in
    integers: on a tie of +M and -M, -M is lower and +M upper."""
    vec = [F(v) for v in xs]
    m = max(map(abs, vec), default=F(0))
    return (-m if -m in vec else m), (m if m in vec else -m)


def _reference_sandwich(rows, b, x):
    """The Fraction-row sandwich check this package used before its
    integer one, kept as a reference for it."""
    out = []
    for row, t in zip(rows, b):
        lo, hi = _reference_envelopes(a * v for a, v in zip(row, x))
        out.append(solve.RowBounds(lo, hi, lo <= t <= hi))
    return tuple(out)


def _reference_row_checks(a_rows, c_rows, b, d, x):
    """The Fraction-row two-sided check this package used before its
    integer one, kept as a reference for it."""
    out = []
    for a_row, c_row, bi, di in zip(a_rows, c_rows, b, d):
        a_lo, a_hi = _reference_envelopes([*(a * v for a, v in zip(a_row, x)), di])
        c_lo, c_hi = _reference_envelopes([*(c * v for c, v in zip(c_row, x)), bi])
        out.append(solve.TwoSidedRowCheck(a_lo, c_lo, a_hi, c_hi,
                                          a_lo <= c_lo and a_hi >= c_hi))
    return tuple(out)


def _reference_cramer(rows, b):
    """Cramer's rule from one limit determinant per column, each row of
    the solution checked by :func:`_reference_sandwich`."""
    A = BoxMatrix(rows)
    det = det_inf(A)
    if det == 0:
        return solve.SolveReport(None, det, (), False)
    x = tuple(det_inf(replace_column(A, i, b)) / det
              for i in range(1, A.rows + 1))
    checked = _reference_sandwich(A.to_rows(), b, x)
    return solve.SolveReport(x, det, checked,
                             all(r.lower == r.upper for r in checked))


def _reference_twosided(a_rows, c_rows, b, d):
    """The two-sided solve as it was built on Fraction rows: D = A (-) C
    entry by entry, then both checks on Fraction rows."""
    d_rows = [list(map(boxminus, a_row, c_row))
              for a_row, c_row in zip(a_rows, c_rows)]
    base = _reference_cramer(d_rows, list(map(boxminus, b, d)))
    if base.solution is None:
        return base
    originals = _reference_row_checks(a_rows, c_rows, b, d, base.solution)
    rows = tuple(solve.RowBounds(rb.lower, rb.upper,
                                 rb.satisfied and oc.satisfied)
                 for rb, oc in zip(base.per_row, originals))
    return solve.SolveReport(base.solution, base.det, rows, all(
        c.a_lower == c.a_upper and c.c_lower == c.c_upper for c in originals))


def _seeded_two_sided(rng, n, entries):
    """Seeded A, C, b, d and a point x: each row of A and of C over its own
    denominator, b, d and x each over one of their own. Every third system
    forces a tie of +M and -M at the top of one row of A and x (paired with
    d_i = -M on the two-sided side), and every fifth takes C = A in one
    row, so that row of D = A (-) C is zero and often D is singular."""
    lo, hi = entries

    def vec(den):
        return [F(rng.randint(lo, hi), den) for _ in range(n)]

    A = [vec(rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(n)]
    C = [vec(rng.choice((1, 1, 2, 5, 6))) for _ in range(n)]
    b, d = vec(rng.choice((1, 2, 3))), vec(rng.choice((1, 2, 5)))
    x = [v or F(1) for v in vec(rng.choice((1, 3, 4)))]
    k = rng.randrange(3 * 5)
    if n > 1 and k % 3 == 0:
        i, (j, l) = rng.randrange(n), rng.sample(range(n), 2)
        top = 1 + max(abs(a * v) for a, v in zip(A[i], x))
        A[i][j], A[i][l], d[i] = top / x[j], -top / x[l], -top
    if k % 5 == 0:
        C[rng.randrange(n)] = A[rng.randrange(n)]
    return A, C, b, d, x


def _seeded_max_system(rng, n, m, entries):
    """A nonnegative n x m system with positive b: zeros, small integers
    (where ratio ties are common) or rationals, and a right-hand side that
    is either the max-times image of a positive x or drawn freely. The
    "by-row" rationals take one denominator per row, so the rows' scales
    differ from each other and from b's."""
    def scalar(den=None):
        if rng.random() < 0.25:
            return F(0)
        if entries == "small":
            return F(rng.randint(1, 3))
        return F(rng.randint(1, 9), den or rng.randint(1, 4))
    dens = [rng.choice((1, 2, 3, 5, 6, 7)) if entries == "by-row" else None
            for _ in range(n)]
    rows = [[scalar(den) for _ in range(m)] for den in dens]
    if rng.random() < 0.5:
        x = [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(m)]
        b = [max(a * v for a, v in zip(row, x)) or F(1) for row in rows]
    else:
        b = [scalar() or F(1) for _ in range(n)]
    return BoxMatrix(rows), tuple(b)


def _reference_existence(A, b):
    """The matching search this package used before, one full augmenting-
    path matching per trial column: (sigma, strict) or None."""
    rows, n = A.to_rows(), A.rows
    argmax = {}
    for k in range(n):
        ratios = [row[k] / v for row, v in zip(rows, b)]
        best = max(ratios)
        argmax[k + 1] = {i for i, (row, r) in enumerate(zip(rows, ratios), 1)
                         if row[k] > 0 and r == best}
    adj = {j: {k for k in range(1, n + 1) if j in argmax[k]}
           for j in range(1, n + 1)}

    def perfect(fixed):
        match = {c: r for r, c in fixed.items()}
        locked = set(match)

        def try_row(r, seen):
            for c in sorted(adj[r]):
                if c in seen or c in locked:
                    continue
                seen.add(c)
                if c not in match or try_row(match[c], seen):
                    match[c] = r
                    return True
            return False

        return all(r in fixed or try_row(r, set()) for r in range(1, n + 1))

    sigma = {}
    for j in range(1, n + 1):
        for k in sorted(adj[j] - set(sigma.values())):
            if perfect({**sigma, j: k}):
                sigma[j] = k
                break
        else:
            return None
    strict = all(len(argmax[sigma[j]]) == 1 for j in range(1, n + 1))
    return tuple(sigma[j] for j in range(1, n + 1)), strict


class TestCramer:
    def test_two_by_two(self):
        system = LimitSystem(BoxMatrix([[-1, 1], [1, 1]]), (F(2), F(3)))
        report = cramer_limit_solve(system)
        assert report.det == F(-1)
        assert report.solution == (F(3), F(3))
        lows = tuple(r.lower for r in report.per_row)
        highs = tuple(r.upper for r in report.per_row)
        assert lows == (F(-3), F(3))
        assert highs == (F(3), F(3))
        assert all(r.satisfied for r in report.per_row)

    def test_three_by_three(self):
        A = BoxMatrix([[3, -1, 3], [2, -4, 1], [-4, 5, 3]])
        system = LimitSystem(A, (F(6), F(8), F(4)))
        report = cramer_limit_solve(system)
        assert report.det == F(-48)
        assert report.solution == (F(-5, 2), F(-2), F(5, 2))
        lows = tuple(r.lower for r in report.per_row)
        highs = tuple(r.upper for r in report.per_row)
        assert lows == (F(-15, 2), F(8), F(-10))
        assert highs == (F(15, 2), F(8), F(10))
        assert all(r.satisfied for r in report.per_row)

    def test_singular_yields_no_solution(self):
        system = LimitSystem(BoxMatrix([[1, 1], [1, 1]]), (F(1), F(2)))
        report = cramer_limit_solve(system)
        assert report.det == 0
        assert report.solution is None
        assert report.per_row == ()
        assert not report.regular

    def test_satisfied_needs_a_solution_and_every_row(self):
        A = BoxMatrix([[3, -1, 3], [2, -4, 1], [-4, 5, 3]])
        assert cramer_limit_solve(LimitSystem(A, (F(6), F(8), F(4)))).satisfied
        singular = LimitSystem(BoxMatrix([[1, 1], [1, 1]]), (F(1), F(2)))
        assert cramer_limit_solve(singular).satisfied is False
        rows = (solve.RowBounds(F(1), F(1), True),
                solve.RowBounds(F(0), F(1), False))
        report = solve.SolveReport((F(1), F(1)), F(1), rows, False)
        assert report.satisfied is False

    def test_regularity_means_envelopes_collapse(self):
        system = LimitSystem(BoxMatrix([[2, 1], [1, 3]]), (F(4), F(3)))
        report = cramer_limit_solve(system)
        x = report.solution
        rows = verify_limit_system(system, x)
        assert is_regular(system, x) == all(
            r.lower == r.upper for r in rows.rows
        )

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            LimitSystem(BoxMatrix([[1, 2]]), (F(1), F(2)))

    def test_verified_rows_match_inner(self):
        rng = random.Random(11)
        for k in range(60):
            n = 1 + k % 6

            def draw():
                if k % 2:
                    return F(rng.randint(-2, 2))
                return F(rng.randint(-9, 9), rng.randint(1, 4))

            A = BoxMatrix([[draw() for _ in range(n)] for _ in range(n)])
            C = BoxMatrix([[draw() for _ in range(n)] for _ in range(n)])
            b, d, x = ([draw() for _ in range(n)] for _ in range(3))
            rows = verify_limit_system(LimitSystem(A, b), x).rows
            for i, r in enumerate(rows, start=1):
                lo = inner(A.row(i), x, "lower")
                hi = inner(A.row(i), x, "upper")
                assert r == (lo, hi, lo <= b[i - 1] <= hi)
            checks = twosided_row_checks(TwoSidedSystem(A, C, b, d), x)
            for i, c in enumerate(checks, start=1):
                a_side = [a * v for a, v in zip(A.row(i), x)] + [d[i - 1]]
                c_side = [a * v for a, v in zip(C.row(i), x)] + [b[i - 1]]
                assert c[:4] == (smile(a_side, "lower"), smile(c_side, "lower"),
                                 smile(a_side, "upper"), smile(c_side, "upper"))


def _counting(monkeypatch, name):
    """Count the calls of solve.<name>, still answering through it."""
    calls = []
    inner = getattr(solve, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(solve, name, counted)
    return calls


class TestRegularityFromTheCheckedRows:
    @pytest.mark.parametrize("A, b, regular", [
        ([[2, 1], [1, 3]], (4, 3), True),
        ([[2, 1], [2, 3]], (4, 3), False),
    ])
    def test_one_sided_rows_are_checked_once(self, monkeypatch, A, b,
                                             regular):
        system = LimitSystem(BoxMatrix(A), b)
        calls = _counting(monkeypatch, "_bounds")
        report = cramer_limit_solve(system)
        assert len(calls) == 1
        assert report.regular is regular
        assert report.regular == is_regular(system, report.solution)

    @pytest.mark.parametrize("C, regular", [
        ([[1, 1], [2, 2]], True),
        ([[3, -3], [-1, -3]], False),
    ])
    def test_two_sided_rows_are_checked_once(self, monkeypatch, C, regular):
        system = TwoSidedSystem(BoxMatrix([[2, 1], [1, 3]]), BoxMatrix(C),
                                (F(4), F(3)), (F(3), F(2)))
        calls = _counting(monkeypatch, "_row_checks")
        report = twosided_solve(system)
        assert len(calls) == 1
        assert report.regular is regular
        assert report.regular == twosided_is_regular(system, report.solution)

    def test_solvers_never_read_the_fraction_rows(self, monkeypatch):
        # D = A (-) C and every check are read from the integer rows, so
        # no solver or membership test builds a matrix's Fraction rows
        reads = []
        to_rows = BoxMatrix.to_rows

        def counted(M):
            reads.append(M)
            return to_rows(M)
        monkeypatch.setattr(BoxMatrix, "to_rows", counted)
        A, C = BoxMatrix([[2, 1], [1, 3]]), BoxMatrix([[1, 1], [2, 2]])
        report = twosided_solve(TwoSidedSystem(A, C, (4, 3), (3, 2)))
        assert report.solution is not None
        report = cramer_limit_solve(LimitSystem(A, ("1/2", 3)))
        assert report.solution is not None
        assert hyperplane_contains(LimitHyperplane((1, -1), 2), (2, -2))
        assert reads == []


# inputs whose every row and vector is read: a system with a fractional
# row, a two-sided system whose b (-) d is (-5, 3), and a max system
ONE = ([[2, -1], ["1/2", 3]], [1, 4])
TWO = ([[2, 1], [1, 3]], [[1, 1], [2, 2]], [4, 3], [5, 2])
MAX = ([[2, 3], [4, 1]], [5, 7])
X = [1, "1/2"]


class TestEachInputIsReadOnce:
    @pytest.mark.parametrize("call, inputs", [
        pytest.param(lambda: cramer_limit_solve(LimitSystem(*ONE)).solution,
                     [*ONE[0], ONE[1]], id="cramer_limit_solve"),
        pytest.param(lambda: twosided_solve(TwoSidedSystem(*TWO)).solution,
                     [*TWO[0], *TWO[1], TWO[2], TWO[3]], id="twosided_solve"),
        pytest.param(lambda: maxsys_existence_permutation(*MAX),
                     [*MAX[0], MAX[1]], id="maxsys_existence_permutation"),
        pytest.param(lambda: kaykobad_check(*MAX), [*MAX[0], MAX[1]],
                     id="kaykobad_check"),
        pytest.param(lambda: kaykobad_p_check(*MAX, [2, 1], 2),
                     [*MAX[0], MAX[1]], id="kaykobad_p_check"),
        pytest.param(lambda: verify_limit_system(LimitSystem(*ONE), X),
                     [*ONE[0], ONE[1], X], id="verify_limit_system"),
        pytest.param(lambda: twosided_row_checks(TwoSidedSystem(*TWO), X),
                     [*TWO[0], *TWO[1], TWO[2], TWO[3], X],
                     id="twosided_row_checks"),
    ])
    def test_each_input_vector_is_read_once(self, scalar_passes, call,
                                            inputs):
        """One ``core._scalars`` pass per input row and vector, in the order
        they are read, and none over a vector the solver computes: its
        solution x, the two-sided b (-) d or the max system's b again."""
        assert call() is not None
        assert scalar_passes == inputs


class TestIntegerChecksMatchTheFractionReference:
    """The solvers' integer checks against the Fraction-row code they
    replaced, field for field: every bound and every flag."""

    @pytest.mark.parametrize("entries", [(-2, 2), (-99, 99)])
    def test_solvers_and_checks_match(self, entries):
        rng = random.Random(21 + entries[1])
        seen = {"tie": 0, "negative det": 0, "singular D": 0, "rows": 0}
        for k in range(150):
            n = 1 + k % 5
            A, C, b, d, x = _seeded_two_sided(rng, n, entries)
            one = LimitSystem(BoxMatrix(A), b)
            two = TwoSidedSystem(BoxMatrix(A), BoxMatrix(C), b, d)
            report = verify_limit_system(one, x)
            want = _reference_sandwich(A, b, x)
            assert report == (want, all(r.satisfied for r in want))
            assert all(type(v) is F for r in report.rows for v in r[:2])
            assert twosided_row_checks(two, x) == _reference_row_checks(
                A, C, b, d, x)
            solved = cramer_limit_solve(one)
            assert solved == _reference_cramer(A, b)
            assert twosided_solve(two) == _reference_twosided(A, C, b, d)
            H = LimitHyperplane(A[0] if any(A[0]) else [1] * n, b[0] or 1)
            for point in (x, solved.solution or x):
                lo, hi = _reference_envelopes(
                    c * v for c, v in zip(H.coeffs, point))
                assert hyperplane_contains(H, point) == (lo <= H.rhs <= hi)
            checked = _reference_row_checks(A, C, b, d, x)
            seen["tie"] += any(r.lower != r.upper for r in want) or any(
                c.a_lower != c.a_upper for c in checked)
            seen["negative det"] += solved.det < 0
            seen["singular D"] += twosided_solve(two).solution is None
            seen["rows"] += len(solved.per_row)
        assert all(seen.values()), seen


def _reduced(monkeypatch, A, C, b, d):
    """The matrix and right-hand side that twosided_solve hands to its
    Cramer step: D = A (-) C and r = b (-) d."""
    seen = []
    cramer = solve._cramer_solution

    def spy(M, r, cap):
        seen.append((M, r))
        return cramer(M, r, cap)
    with monkeypatch.context() as patched:
        patched.setattr(solve, "_cramer_solution", spy)
        twosided_solve(TwoSidedSystem(A, C, b, d))
    return seen[0]


class TestIntegerDifference:
    """D = A (-) C is built in integers, in BoxMatrix's canonical form: the
    same integers and scales as BoxMatrix of the Fraction boxminus values.
    A tie |a| = |c| is a = c (giving 0) or a = -c (giving a), so the halving
    on a tie always leaves an integer over the row's scale."""

    @staticmethod
    def _assert_canonical(monkeypatch, A, C, b, d):
        D, r = _reduced(monkeypatch, A, C, b, d)
        want = BoxMatrix([[boxminus(a, c) for a, c in zip(a_row, c_row)]
                          for a_row, c_row in zip(A, C)])
        assert (D._ints, D._scales) == (want._ints, want._scales)
        assert list(r) == list(map(boxminus, b, d))
        return D

    def test_ties_scales_and_a_zero_row(self, monkeypatch):
        A = [["3/2", "-1/3", 5], [2, "1/2", "-7/4"], ["2/3", "-2/5", 1]]
        C = [["-3/2", "-1/3", "5/6"], ["2/3", "-1/2", "7/4"],
             ["2/3", "-2/5", 1]]
        D = self._assert_canonical(monkeypatch, A, C, ["1/2", 3, -1],
                                   [1, "-3/7", 1])
        # a = -c ties keep a, a = c ties give 0; the third row cancels
        assert D.to_rows() == ((F(3, 2), F(0), F(5)),
                               (F(2), F(1, 2), F(-7, 4)),
                               (F(0), F(0), F(0)))
        assert D._scales == (2, 4, 1)

    def test_seeded_rows_match_boxminus(self, monkeypatch):
        rng = random.Random(2121)
        for k in range(200):
            n = 1 + k % 4

            def vec():
                den = rng.choice((1, 2, 3, 4))
                return [F(rng.randint(-3, 3), den) for _ in range(n)]
            A, C = [vec() for _ in range(n)], [vec() for _ in range(n)]
            if k % 4 == 0:
                C[0] = [-a if rng.random() < 0.5 else a for a in A[0]]
            self._assert_canonical(monkeypatch, A, C, vec(), vec())


class TestMaxSystem:
    def test_two_by_two_pinned(self):
        A = BoxMatrix([[2, 3], [4, 1]])
        b = (F(1), F(1))
        assert maxsys_candidate(A, b) == (F(1, 4), F(1, 3))
        assert maxsys_solve(A, b) == (F(1, 4), F(1, 3))
        assert det_inf(A) == F(-12)

    def test_three_by_three_pinned(self):
        A = BoxMatrix([[1, 3, 4], [2, 5, 1], [4, 2, 1]])
        b = (F(1), F(1), F(1))
        assert maxsys_solve(A, b) == (F(1, 4), F(1, 5), F(1, 4))
        assert det_inf(A) == F(-80)

    def test_infeasible(self):
        A = BoxMatrix([[1, 0], [1, 0]])
        b = (F(1), F(2))
        assert maxsys_solve(A, b) is None

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            maxsys_solve(BoxMatrix([[1, -1], [0, 1]]), (F(1), F(1)))

    def test_zero_rhs_needs_reduction(self):
        A = BoxMatrix([[1, 0], [0, 1]])
        with pytest.raises(DomainError):
            maxsys_solve(A, (F(1), F(0)))
        sub, b2, rows, cols, forced = maxsys_reduce(A, (F(1), F(0)))
        assert rows == (1,)
        assert cols == (1,)
        assert forced == (2,)
        assert b2 == (F(1),)
        assert sub is not None and sub.to_rows() == ((F(1),),)

    def test_candidate_needs_positive_column(self):
        A = BoxMatrix([[1, 0], [1, 0]])
        with pytest.raises(DomainError):
            maxsys_candidate(A, (F(1), F(1)))

    def test_existence_permutation_pinned(self):
        A = BoxMatrix([[2, 3], [4, 1]])
        found = maxsys_existence_permutation(A, (F(1), F(1)))
        assert found == ((2, 1), True)

    def test_existence_on_ties_is_lex_smallest_and_slack(self):
        A = BoxMatrix([[1, 1], [1, 1]])
        found = maxsys_existence_permutation(A, (F(1), F(1)))
        assert found == ((1, 2), False)

    def test_existence_none_when_unsolvable(self):
        A = BoxMatrix([[1, 1], [1, 1]])
        found = maxsys_existence_permutation(A, (F(1), F(2)))
        assert found is None

    def test_kaykobad_exact(self):
        A = BoxMatrix([[1, 0], [0, 1]])
        assert kaykobad_check(A, (F(1), F(1))) is True
        B = BoxMatrix([[1, 3], [3, 1]])
        assert kaykobad_check(B, (F(1), F(1))) is False
        with pytest.raises(DomainError):
            kaykobad_check(BoxMatrix([[0, 1], [1, 0]]), (F(1), F(1)))

    def test_kaykobad_finite_exponent(self):
        A = BoxMatrix([[2, 3], [4, 1]])
        assert kaykobad_p_check(A, (F(1), F(1)), (2, 1), 3) is True

    def test_kaykobad_finite_exponent_zero_pivot(self):
        A = BoxMatrix([[0, 1], [1, 0]])
        with pytest.raises(DomainError):
            kaykobad_p_check(A, (F(1), F(1)), (1, 2), 3)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_solve_agrees_with_existence(self, n, data):
        """A certificate always implies solvability, and the converse holds
        whenever no two rows tie for a column's best ratio."""
        rows = data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=3),
                     min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
        A = BoxMatrix(rows)
        if not all(any(A.entry(i, j) > 0 for i in range(1, n + 1))
                   for j in range(1, n + 1)):
            return
        b = tuple(F(data.draw(st.integers(min_value=1, max_value=4)))
                  for _ in range(n))
        x = maxsys_solve(A, b)
        found = maxsys_existence_permutation(A, b)
        if found is not None:
            assert x is not None
        tie_free = True
        for j in range(1, n + 1):
            ratios = [A.entry(i, j) / b[i - 1] for i in range(1, n + 1)]
            if ratios.count(max(ratios)) > 1:
                tie_free = False
                break
        if tie_free:
            assert (x is not None) == (found is not None)

    def test_existence_matches_per_trial_matching(self):
        """One matching plus alternating-cycle hand-overs gives the same
        certificate as a full matching per trial column, on seeded systems
        whose right-hand side is the max-times image of a positive x."""
        rng = random.Random(4242)
        found = 0
        for _ in range(3000):
            n = rng.randint(1, 8)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            x = [rng.randint(1, 3) for _ in range(n)]
            b = tuple(F(max(a * v for a, v in zip(row, x))) for row in rows)
            if 0 in b:
                continue
            A = BoxMatrix(rows)
            want = _reference_existence(A, b)
            assert maxsys_existence_permutation(A, b) == want
            found += want is not None
        assert found > 1000

    def test_column_scan_matches_the_definitions(self):
        """x_j is the least b_i/a_ij over the column's positive entries, its
        tight rows are those with a_ij x_j = b_i, the system is feasible
        exactly when every row maximum reaches b_i, and on a square system
        the tight rows are the argmax of a_ik/b_i over positive a_ik."""
        rng = random.Random(7)
        feasible = tied = 0
        for k in range(2000):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            if k % 2:
                m = n
            entries = ("small", "rational")[k % 3 == 0] if k < 1500 else "by-row"
            A, b = _seeded_max_system(rng, n, m, entries)
            rows = A.to_rows()
            _M, _b, cols = _max_columns(A, b)
            assert len(cols) == m
            for j, (x, tight) in enumerate(cols):
                support = [i for i in range(n) if rows[i][j] > 0]
                if not support:
                    assert (x, tight) == (None, ())
                    continue
                assert x == min(b[i] / rows[i][j] for i in support)
                assert tight == tuple(i + 1 for i in support
                                      if rows[i][j] * x == b[i])
                tied += len(tight) > 1
                if n == m:
                    ratios = [rows[i][j] / b[i] for i in range(n)]
                    assert set(tight) == {i + 1 for i in support
                                          if ratios[i] == max(ratios)}
            x = tuple(F(0) if v is None else v for v, _t in cols)
            if all(v is not None for v, _t in cols):
                assert maxsys_candidate(A, b) == x
            ok = all(max(a * v for a, v in zip(row, x)) == t
                     for row, t in zip(rows, b))
            assert maxsys_solve(A, b) == (x if ok else None)
            feasible += ok
        assert feasible > 300 and tied > 300

    def test_kaykobad_matches_fraction_sums(self):
        rng = random.Random(11)
        verdicts = set()
        for k in range(2000):
            n = rng.randint(1, 6)
            entries = ("small", "rational")[k % 2] if k < 1500 else "by-row"
            A, b = _seeded_max_system(rng, n, n, entries)
            rows = [list(r) for r in A.to_rows()]
            for i in range(n):
                rows[i][i] = rows[i][i] or F(rng.randint(1, 4))
            A = BoxMatrix(rows)
            want = _reference_kaykobad(A, b)
            assert kaykobad_check(A, b) is want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_kaykobad_tie_is_not_strict(self):
        # 2 * 1 / 1 is exactly b_1, so the strict inequality fails
        assert kaykobad_check(BoxMatrix([[1, 2], [0, 1]]), (F(2), F(1))) is False

    def test_kaykobad_p_matches_exact_power_sums(self):
        rng = random.Random(12)
        verdicts = set()
        for k in range(800):
            n = rng.randint(1, 5)
            entries = ("small", "rational")[k % 2] if k < 600 else "by-row"
            A, b = _seeded_max_system(rng, n, n, entries)
            found = maxsys_existence_permutation(A, b)
            if found is None:
                continue
            sigma, p = found[0], rng.randint(0, 6)
            q, rows = 2 * p + 1, A.to_rows()
            want = all(
                b[i] ** q > sum((rows[i][sigma[j] - 1] * b[j]
                                 / rows[j][sigma[j] - 1]) ** q
                                for j in range(n) if j != i)
                for i in range(n))
            assert kaykobad_p_check(A, b, sigma, p) is want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_kaykobad_p_tie_is_not_strict(self):
        # 3^3 + 4^3 + 5^3 = 6^3: row 1 only ties at p = 1
        A = BoxMatrix([[1, 3, 4, 5], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = (F(6), F(1), F(1), F(1))
        assert kaykobad_p_check(A, b, (1, 2, 3, 4), 1) is False
        assert kaykobad_p_check(A, b, (1, 2, 3, 4), 2) is True
        assert kaykobad_p_check(A, b, (1, 2, 3, 4), 0) is False

    def test_kaykobad_p_large_index(self):
        # far from a tie the largest term decides
        A = BoxMatrix([[1, 3, 4, 5], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert kaykobad_p_check(A, (F(6), F(1), F(1), F(1)),
                                (1, 2, 3, 4), 10 ** 5) is True
        assert kaykobad_p_check(A, (F(5), F(1), F(1), F(1)),
                                (1, 2, 3, 4), 10 ** 5) is False

    def test_kaykobad_p_near_tie_at_a_huge_index(self):
        # row 1 at q = 2 * 10^9 + 1: 10^10 + 1 against 10^10 and 1, so
        # Bernoulli cannot decide and the exact power would need ~8 GB
        A = BoxMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        b = (F(10 ** 10 + 1), F(10 ** 10), F(1))
        start = time.perf_counter()
        assert kaykobad_p_check(A, b, (1, 2, 3), 10 ** 9) is True
        assert time.perf_counter() - start < 0.5

    def test_kaykobad_p_past_the_exact_budget(self):
        # 3^3 + 4^3 + 5^3 = 6^3 scaled by K: at q = 3 the powers of 6K
        # outgrow the exact budget, so the rows are decided in logs
        K = 10 ** 10000
        A = BoxMatrix([[1, 3, 4, 5], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

        def check(b1):
            return kaykobad_p_check(A, (F(b1), F(K), F(K), F(K)), (1, 2, 3, 4), 1)

        assert 2 * (6 * K).bit_length() > signedlog.EXACT_BITS
        with pytest.raises(DomainError, match="too close to a tie to decide at p = 1"):
            check(6 * K)
        assert check(6 * K + K // 10 ** 6) is True
        assert check(6 * K - K // 10 ** 6) is False

    def test_kaykobad_logs_agree_with_the_exact_powers(self, monkeypatch):
        # the same seeded rows decided once exactly and once in logs (no
        # exact budget): the logs agree wherever they decide, and they
        # decline only at exact ties
        rng = random.Random(13)
        cases = []
        for k in range(800):
            n = rng.randint(2, 5)
            A, b = _seeded_max_system(rng, n, n, ("small", "rational")[k % 2])
            found = maxsys_existence_permutation(A, b)
            if found is not None:
                p = rng.choice((0, 0, 1, 2, 5))
                cases.append((A, b, found[0], p, kaykobad_p_check(A, b, found[0], p)))
        monkeypatch.setattr(signedlog, "EXACT_BITS", -1)
        declined = 0
        for A, b, sigma, p, want in cases:
            try:
                assert kaykobad_p_check(A, b, sigma, p) is want
            except DomainError:
                q, rows, n = 2 * p + 1, A.to_rows(), len(b)
                assert want is False and any(
                    b[i] ** q == sum((rows[i][sigma[j] - 1] * b[j]
                                      / rows[j][sigma[j] - 1]) ** q
                                     for j in range(n) if j != i)
                    for i in range(n))
                declined += 1
        assert len(cases) > 250 and 0 < declined < len(cases) // 10

    def test_tied_cover_has_no_certificate(self):
        # Two rows whose only positive entries share a column can both be
        # satisfied by one column value when their ratios tie, so the system
        # is solvable even though no injective row-to-column assignment
        # exists.  The certificate is deliberately the stricter notion.
        A = BoxMatrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        b = (F(1), F(1), F(1))
        assert maxsys_solve(A, b) == (F(1), F(1), F(1))
        assert maxsys_existence_permutation(A, b) is None


class TestTwoSided:
    def test_pinned_example(self):
        system = TwoSidedSystem(
            BoxMatrix([[2, 1], [1, 3]]),
            BoxMatrix([[1, 1], [2, 2]]),
            (F(4), F(3)),
            (F(3), F(2)),
        )
        report = twosided_solve(system)
        assert report.det == F(6)
        assert report.solution == (F(2), F(4, 3))
        assert all(r.satisfied for r in report.per_row)
        assert report.regular is True

    def test_row_checks_compare_cross_sides(self):
        system = TwoSidedSystem(
            BoxMatrix([[2, 1], [1, 3]]),
            BoxMatrix([[1, 1], [2, 2]]),
            (F(4), F(3)),
            (F(3), F(2)),
        )
        x = (F(2), F(4, 3))
        checks = twosided_row_checks(system, x)
        first = checks[0]
        assert first.a_lower == first.c_lower == F(4)
        assert first.a_upper == first.c_upper == F(4)
        assert first.satisfied
        assert twosided_is_regular(system, x)

    def test_singular_reduced_system(self):
        system = TwoSidedSystem(
            BoxMatrix([[1, 1], [1, 1]]),
            BoxMatrix([[1, 1], [1, 1]]),
            (F(1), F(1)),
            (F(2), F(2)),
        )
        report = twosided_solve(system)
        assert report.solution is None
        assert report.det == 0

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            TwoSidedSystem(
                BoxMatrix([[1, 1]]),
                BoxMatrix([[1, 1], [1, 1]]),
                (F(1),),
                (F(1), F(1)),
            )
