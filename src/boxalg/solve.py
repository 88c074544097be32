"""Linear systems under the limit algebra.

Three families live here. Square limit systems are solved by Cramer
quotients of limit determinants and verified against the sandwich
inequalities (lower envelope of each row value below the right-hand side,
upper envelope above). Two-sided systems reduce to a one-sided limit
system by the entrywise signed difference.

Nonnegative max-equation systems max_j a_ij x_j = b_i (b > 0) are read
from one scan of the columns: x_j = min b_i/a_ij over positive a_ij is
the principal solution, and the rows attaining it are the column's tight
rows. As a_ij x_j <= b_i with equality exactly there, the system is
solvable exactly when the tight rows cover every row, and the permutation
witness is a matching of rows to columns where they are tight. Both
Kaykobad-style conditions are one test of b_i^q against the q-th power
sum of a_{i,sigma(j)} b_j / a_{j,sigma(j)} over j != i: in integers while
the powers stay within the budget that :mod:`boxalg.signedlog` owns,
``EXACT_BITS``, in logs with a guarded margin past that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import signedlog
from .core import _envelopes, _scalars, as_vector, boxminus
from .errors import DomainError
from .linalg import (
    DEFAULT_DET_CAP,
    BoxMatrix,
    BoxVector,
    _cramer_dets,
    as_matrix,
)
from .signedlog import _over_lcm, odd_exponent


class LimitSystem:
    """Square system: limit row sums of a_i * x against the target b."""

    __slots__ = ("A", "b")

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_vector(b)
        if not self.A.is_square:
            raise DomainError(
                f"system matrix must be square, got {self.A.rows}x{self.A.cols}"
            )
        if len(self.b) != self.A.rows:
            raise DomainError(
                f"right-hand side length {len(self.b)} != size {self.A.rows}"
            )


class TwoSidedSystem:
    """Rows of (A, b) balanced against rows of (C, d), same shapes."""

    __slots__ = ("A", "C", "b", "d")

    def __init__(self, A, C, b, d):
        self.A = as_matrix(A)
        self.C = as_matrix(C)
        self.b = as_vector(b)
        self.d = as_vector(d)
        if not self.A.is_square:
            raise DomainError(
                f"system matrix must be square, got {self.A.rows}x{self.A.cols}"
            )
        n = self.A.rows
        if (self.C.rows, self.C.cols) != (n, n) or len(self.b) != n or len(self.d) != n:
            raise DomainError("two-sided system shapes disagree")


class RowBounds(NamedTuple):
    lower: Fraction
    upper: Fraction
    satisfied: bool


class VerifyReport(NamedTuple):
    rows: tuple[RowBounds, ...]
    satisfied: bool


@dataclass(frozen=True)
class SolveReport:
    solution: Optional[BoxVector]
    det: Fraction
    per_row: tuple[RowBounds, ...]
    regular: bool

    def __post_init__(self):
        if (self.solution is None) != (self.det == 0):
            raise DomainError("solution must be present exactly when det is nonzero")

    @property
    def satisfied(self) -> bool:
        """Every row is satisfied at the solution; False without one."""
        return self.solution is not None and all(
            r.satisfied for r in self.per_row)


def verify_limit_system(sys: LimitSystem, x: Sequence) -> VerifyReport:
    """Sandwich check of every row at x: lower value <= b_i <= upper value."""
    vec = as_vector(x)
    if len(vec) != sys.A.cols:
        raise DomainError(f"x has length {len(vec)}, expected {sys.A.cols}")
    rows = _sandwich(sys.A.to_rows(), sys.b, vec)
    return VerifyReport(rows, all(r.satisfied for r in rows))


def _sandwich(rows, b, x) -> tuple[RowBounds, ...]:
    """:func:`verify_limit_system` on Fraction rows, b and x."""
    out = []
    for row, t in zip(rows, b):
        lo, hi = _envelopes(a * v for a, v in zip(row, x))
        out.append(RowBounds(lo, hi, lo <= t <= hi))
    return tuple(out)


def is_regular(sys: LimitSystem, x: Sequence) -> bool:
    """True when every row's lower and upper envelopes agree at x."""
    return all(r.lower == r.upper for r in verify_limit_system(sys, x).rows)


def cramer_limit_solve(sys: LimitSystem, cap: int = DEFAULT_DET_CAP) -> SolveReport:
    """Cramer quotients of limit determinants, with a verification report.

    When the limit determinant of A vanishes there is no Cramer solution;
    the report then carries det=0, no solution, and no row bounds.
    """
    return _cramer_report(sys.A, sys.b, cap,
                          lambda x: verify_limit_system(sys, x).rows)


def _cramer_report(A: BoxMatrix, b, cap: int, check) -> SolveReport:
    """:func:`cramer_limit_solve` of A x = b, its rows checked at the
    solution x by ``check(x)``."""
    det, *dets = _cramer_dets(A, b, cap)
    if det == 0:
        return SolveReport(None, det, (), False)
    x = tuple(d / det for d in dets)
    rows = check(x)
    return SolveReport(x, det, rows, all(r.lower == r.upper for r in rows))


# --- nonnegative max-equation systems ---------------------------------------


def _check_max_inputs(A: BoxMatrix, b) -> None:
    for i, row in enumerate(A._ints, start=1):
        for j, a in enumerate(row, start=1):
            if a < 0:
                raise DomainError(f"matrix entry ({i},{j}) is negative")
    for i, v in enumerate(b, start=1):
        if v < 0:
            raise DomainError(f"right-hand side entry {i} is negative")
        if v == 0:
            raise DomainError(
                f"right-hand side entry {i} is zero; apply maxsys_reduce first"
            )


def maxsys_reduce(A, b):
    """Preprocess away zero right-hand sides from a max-equation system.

    A row with b_i = 0 forces x_j = 0 for every column j it touches with a
    positive entry. Those rows and columns are removed; the remaining
    subsystem (or None when nothing remains) is returned alongside the
    1-based surviving row and column indices and the forced-zero columns.
    This is deliberately a separate step: it changes the variable set.
    """
    M = as_matrix(A)
    vec = as_vector(b)
    if len(vec) != M.rows:
        raise DomainError(f"right-hand side length {len(vec)} != rows {M.rows}")
    rows = M.to_rows()
    zero_rows = {i for i, v in enumerate(vec, start=1) if v == 0}
    forced = tuple(sorted({j for i in zero_rows
                           for j, a in enumerate(rows[i - 1], start=1) if a > 0}))
    keep_rows = tuple(i for i in range(1, M.rows + 1) if i not in zero_rows)
    keep_cols = tuple(j for j in range(1, M.cols + 1) if j not in forced)
    if not keep_rows or not keep_cols:
        return None, (), keep_rows, keep_cols, forced
    sub = BoxMatrix(tuple(rows[i - 1][j - 1] for j in keep_cols)
                    for i in keep_rows)
    return sub, tuple(vec[i - 1] for i in keep_rows), keep_rows, keep_cols, forced


def _max_columns(A, b):
    """The checked system M, b as integers B over its own scale T, and per
    column (x_j, the 1-based rows attaining it): x_j the least b_i/a_ij,
    that is B_i s_i / (T A_ij) over M's positive integers A_ij over s_i,
    compared as integer cross products; (None, ()) for a column with no
    positive entry."""
    M = as_matrix(A)
    vec = _scalars(b)
    if len(vec) != M.rows:
        raise DomainError(f"right-hand side length {len(vec)} != rows {M.rows}")
    _check_max_inputs(M, vec)
    rhs, scale = _over_lcm(vec)
    ts = list(map(mul, rhs, M._scales))
    cols = []
    for j in range(M.cols):
        num, den, tight = 0, 0, []  # x_j = num/(den T) once a row is tight
        for i, (row, t) in enumerate(zip(M._ints, ts), start=1):
            a = row[j]
            if a:
                diff = t * den - num * a
                if diff < 0 or not tight:
                    num, den, tight = t, a, [i]
                elif diff == 0:
                    tight.append(i)
        cols.append((Fraction(num, den * scale), tuple(tight)) if tight
                    else (None, ()))
    return M, rhs, cols


def _candidate(cols) -> BoxVector:
    """:func:`maxsys_candidate` from the column scan."""
    for j, (x, _tight) in enumerate(cols, start=1):
        if x is None:
            raise DomainError(f"column {j} has no positive entry")
    return tuple(x for x, _tight in cols)


def maxsys_candidate(A, b) -> BoxVector:
    """Componentwise-maximal candidate x_j = min over supports of b_i/a_ij."""
    return _candidate(_max_columns(A, b)[2])


def _solution(n: int, cols) -> Optional[BoxVector]:
    """:func:`maxsys_solve` from the column scan of n rows: row i attains
    b_i exactly when it is tight in some column."""
    if len({i for _x, tight in cols for i in tight}) < n:
        return None
    return tuple(Fraction(0) if x is None else x for x, _tight in cols)


def maxsys_solve(A, b) -> Optional[BoxVector]:
    """The candidate if it satisfies every row's max equation, else None;
    a column with no positive entry never reaches a row maximum, so it is
    pinned to zero rather than rejected."""
    M, _vec, cols = _max_columns(A, b)
    return _solution(M.rows, cols)


def _witness(cols):
    """:func:`maxsys_existence_permutation` from the column scan."""
    n = len(cols)
    argmax = {k: tight for k, (_x, tight) in enumerate(cols, start=1)}
    adj = {j: [k for k in argmax if j in argmax[k]] for j in range(1, n + 1)}

    owner: dict[int, int] = {}  # column -> row, one augmenting-path matching

    def augment(r: int, seen: set[int]) -> bool:
        for c in adj[r]:
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    if not all(augment(r, set()) for r in range(1, n + 1)):
        return None
    sigma = {r: c for c, r in owner.items()}
    # Row by row, the smallest column an alternating cycle through the later
    # rows can hand over: search back from the row's own column, each later
    # row r moving from sigma[r] to a column it may take (reach[c]).
    for j in range(1, n + 1):
        free = sigma[j]
        reach, todo = {free: free}, [free]
        for c in todo:
            for r in argmax[c]:
                if r > j and sigma[r] not in reach:
                    reach[sigma[r]] = c
                    todo.append(sigma[r])
        c, r = min(k for k in adj[j] if k in reach), j
        while c != free:  # hand c to r; its owner moves on to reach[c]
            owner[c], sigma[r], r, c = r, c, owner[c], reach[c]
        owner[c], sigma[r] = r, c
    strict = all(len(argmax[sigma[j]]) == 1 for j in range(1, n + 1))
    return tuple(sigma[j] for j in range(1, n + 1)), strict


def maxsys_existence_permutation(A, b):
    """Permutation witness for solvability of the max-equation system.

    Row j may take column k only when a_jk > 0 and j maximizes a_ik/b_i
    over all rows i, that is when j is tight in column k. A perfect
    matching of rows to columns under this rule is returned as
    (sigma, strict) with sigma the lexicographically smallest assignment
    (sigma[j] read for j = 1..n); strict reports whether every matched
    column's maximizer is unique, in which case the solution of the system
    is unique as well. None when no matching exists.
    """
    M = as_matrix(A)
    vec = as_vector(b)
    if not M.is_square:
        raise DomainError(f"matrix must be square, got {M.rows}x{M.cols}")
    if len(vec) != M.rows:
        raise DomainError(f"right-hand side length {len(vec)} != size {M.rows}")
    return _witness(_max_columns(M, vec)[2])


def _dominates(M: BoxMatrix, rhs, cols, q: int) -> bool:
    """True when b_i^q > sum_{j != i} (a_{i,cols[j]} b_j / a_{j,cols[j]})^q
    for every row i, with 0-based columns and positive pivots a_{j,cols[j]};
    ``rhs`` is b as integers over its own scale T.

    With A_ij M's integers over the row scales s_i, B_i b's over T and L
    the lcm of the integer pivots, row i's sides times T s_i L are the
    integers B_i s_i L and A_{i,cols[j]} B_j s_j L / A_{j,cols[j]}.
    A row fails when its largest term reaches b_i, and passes without the
    powers when Bernoulli's inequality puts b_i^q above (terms) * top^q.
    Otherwise the powers are compared exactly while b_i^q stays within
    ``signedlog.EXACT_BITS``, and past that as q log(b_i/top) against
    log sum (y/top)^q in floats. Each side is then off by at most about
    q ulps per term, and a row within 256 times that of a tie raises
    DomainError rather than guess.
    """
    rows, scales = M._ints, M._scales
    pivots = [rows[j][c] for j, c in enumerate(cols)]
    lcm = math.lcm(*pivots)
    w = [t * s * (lcm // piv) for t, s, piv in zip(rhs, scales, pivots)]
    for i, (row, t, s) in enumerate(zip(rows, rhs, scales)):
        x = t * s * lcm
        ys = [row[c] * wj for j, (c, wj) in enumerate(zip(cols, w)) if j != i]
        top = max(ys, default=0)
        if x <= top:
            return False
        if q * (x - top) > (len(ys) - 1) * top:
            continue
        if (q - 1) * x.bit_length() <= signedlog.EXACT_BITS:
            if x ** q <= sum(y ** q for y in ys):
                return False
            continue
        if q < 2 ** 44:  # past that the margin exceeds any gap left here
            gap = q * math.log(x / top) - math.log(math.fsum(
                math.exp(q * math.log(r)) for r in (y / top for y in ys) if r))
            if abs(gap) > q * len(ys) * 2.0 ** -44:
                if gap < 0:
                    return False
                continue
        raise DomainError(
            f"row {i + 1} lies too close to a tie to decide at p = {q // 2}")
    return True


def _square_max(A, b):
    """A checked square max system: the matrix, and the right-hand side as
    integers over its own scale."""
    M = as_matrix(A)
    vec = _scalars(b)
    if not M.is_square or len(vec) != M.rows:
        raise DomainError("square matrix and matching vector required")
    _check_max_inputs(M, vec)
    return M, _over_lcm(vec)[0]


def kaykobad_check(A, b) -> bool:
    """Strict dominance b_i > sum_{j != i} a_ij b_j / a_jj for every row."""
    M, rhs = _square_max(A, b)
    for i, row in enumerate(M._ints):
        if row[i] <= 0:
            raise DomainError(f"diagonal entry ({i + 1},{i + 1}) must be positive")
    return _dominates(M, rhs, range(M.rows), 1)


def kaykobad_p_check(A, b, sigma: Sequence[int], p: int) -> bool:
    """Finite-index dominance along a permutation: for each row i,
    b_i^(2p+1) strictly above the sum over j != i of
    (a_{i,sigma(j)} b_j / a_{j,sigma(j)})^(2p+1), decided as in
    :func:`_dominates` (exactly unless a large p meets a near tie)."""
    M, rhs = _square_max(A, b)
    n = M.rows
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {tuple(sigma)!r}")
    cols = [s - 1 for s in sigma]
    for j, c in enumerate(cols):
        if M._ints[j][c] == 0:
            raise DomainError(f"zero pivot at row {j + 1}, column {c + 1}")
    return _dominates(M, rhs, cols, odd_exponent(p))


# --- two-sided systems -------------------------------------------------------


class TwoSidedRowCheck(NamedTuple):
    a_lower: Fraction
    c_lower: Fraction
    a_upper: Fraction
    c_upper: Fraction
    satisfied: bool


def twosided_row_checks(sys: TwoSidedSystem, x: Sequence) -> tuple[TwoSidedRowCheck, ...]:
    """Original two-sided inequalities rowwise at x.

    The A row is enveloped together with d_i, the C row with b_i; the row
    passes when the lower A value stays below the lower C value and the
    upper A value stays above the upper C value.
    """
    vec = as_vector(x)
    if len(vec) != sys.A.cols:
        raise DomainError(f"x has length {len(vec)}, expected {sys.A.cols}")
    return _row_checks(sys.A.to_rows(), sys.C.to_rows(), sys.b, sys.d, vec)


def _row_checks(a_rows, c_rows, b, d, x) -> tuple[TwoSidedRowCheck, ...]:
    """:func:`twosided_row_checks` on Fraction rows of A and C and on x."""
    out = []
    for a_row, c_row, bi, di in zip(a_rows, c_rows, b, d):
        a_lo, a_hi = _envelopes([*(a * v for a, v in zip(a_row, x)), di])
        c_lo, c_hi = _envelopes([*(c * v for c, v in zip(c_row, x)), bi])
        out.append(TwoSidedRowCheck(a_lo, c_lo, a_hi, c_hi, a_lo <= c_lo and a_hi >= c_hi))
    return tuple(out)


def twosided_is_regular(sys: TwoSidedSystem, x: Sequence) -> bool:
    """True when both enveloped sides collapse (lower = upper) in every row."""
    checks = twosided_row_checks(sys, x)
    return all(c.a_lower == c.a_upper and c.c_lower == c.c_upper for c in checks)


def twosided_solve(sys: TwoSidedSystem, cap: int = DEFAULT_DET_CAP) -> SolveReport:
    """Reduce to the one-sided system D x = r with D = A (-) C, r = b (-) d.

    Each entry of D is the signed difference boxminus(a, c) and likewise
    for r. The Cramer solution of the reduced system is verified both
    against the reduced sandwich inequalities and against the original
    two-sided inequalities; a row's satisfied flag requires both.
    """
    a_rows, c_rows = sys.A.to_rows(), sys.C.to_rows()
    d_rows = [tuple(map(boxminus, a_row, c_row))
              for a_row, c_row in zip(a_rows, c_rows)]
    r = tuple(map(boxminus, sys.b, sys.d))
    base = _cramer_report(BoxMatrix(d_rows), r, cap,
                          lambda x: _sandwich(d_rows, r, x))
    if base.solution is None:
        return base
    originals = _row_checks(a_rows, c_rows, sys.b, sys.d, base.solution)
    rows = tuple(
        RowBounds(rb.lower, rb.upper, rb.satisfied and oc.satisfied)
        for rb, oc in zip(base.per_row, originals)
    )
    # regularity of a two-sided system is its own notion (envelopes of the
    # original sides), not regularity of the reduced system
    return SolveReport(base.solution, base.det, rows, all(
        c.a_lower == c.a_upper and c.c_lower == c.c_upper for c in originals))
