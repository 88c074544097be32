"""Linear systems under the limit algebra.

Three families live here. Square limit systems are solved by Cramer
quotients of limit determinants and verified against the sandwich
inequalities (lower envelope of each row value below the right-hand side,
upper envelope above). Nonnegative max-equation systems get the classical
componentwise-maximal candidate, a permutation-matching existence test,
and the diagonal-dominance style sufficient conditions. Two-sided systems
reduce to a one-sided limit system by the entrywise signed difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import LOWER, UPPER, as_vector, boxminus, inner, smile
from .errors import DomainError
from .linalg import (
    DEFAULT_DET_CAP,
    BoxMatrix,
    BoxVector,
    as_matrix,
    det_inf,
    replace_column,
)
from .signedlog import SignedLog, phi_p_sum


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


def verify_limit_system(sys: LimitSystem, x: Sequence) -> VerifyReport:
    """Sandwich check of every row at x: lower value <= b_i <= upper value."""
    vec = as_vector(x)
    if len(vec) != sys.A.cols:
        raise DomainError(f"x has length {len(vec)}, expected {sys.A.cols}")
    rows = []
    for i in range(1, sys.A.rows + 1):
        lo = inner(sys.A.row(i), vec, LOWER)
        hi = inner(sys.A.row(i), vec, UPPER)
        rows.append(RowBounds(lo, hi, lo <= sys.b[i - 1] <= hi))
    return VerifyReport(tuple(rows), all(r.satisfied for r in rows))


def is_regular(sys: LimitSystem, x: Sequence) -> bool:
    """True when every row's lower and upper envelopes agree at x."""
    vec = as_vector(x)
    if len(vec) != sys.A.cols:
        raise DomainError(f"x has length {len(vec)}, expected {sys.A.cols}")
    return all(
        inner(sys.A.row(i), vec, LOWER) == inner(sys.A.row(i), vec, UPPER)
        for i in range(1, sys.A.rows + 1)
    )


def cramer_limit_solve(sys: LimitSystem, cap: int = DEFAULT_DET_CAP) -> SolveReport:
    """Cramer quotients of limit determinants, with a verification report.

    When the limit determinant of A vanishes there is no Cramer solution;
    the report then carries det=0, no solution, and no row bounds.
    """
    det = det_inf(sys.A, cap)
    if det == 0:
        return SolveReport(None, det, (), False)
    x = tuple(
        det_inf(replace_column(sys.A, i, sys.b), cap) / det
        for i in range(1, sys.A.rows + 1)
    )
    report = verify_limit_system(sys, x)
    return SolveReport(x, det, report.rows, is_regular(sys, x))


# --- nonnegative max-equation systems ---------------------------------------


def _check_max_inputs(A: BoxMatrix, b: BoxVector) -> None:
    for i, row in enumerate(A.to_rows(), start=1):
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
    zero_rows = {i for i, v in enumerate(vec, start=1) if v == 0}
    forced = {
        j
        for j in range(1, M.cols + 1)
        for i in zero_rows
        if M.entry(i, j) > 0
    }
    keep_rows = tuple(i for i in range(1, M.rows + 1) if i not in zero_rows)
    keep_cols = tuple(j for j in range(1, M.cols + 1) if j not in forced)
    if not keep_rows or not keep_cols:
        return None, (), keep_rows, keep_cols, tuple(sorted(forced))
    sub = BoxMatrix(
        tuple(M.entry(i, j) for j in keep_cols) for i in keep_rows
    )
    return sub, tuple(vec[i - 1] for i in keep_rows), keep_rows, keep_cols, tuple(
        sorted(forced)
    )


def _column_minima(A, b):
    """The checked system and, per column, min b_i/a_ij over its positive
    entries (None for a column with none)."""
    M = as_matrix(A)
    vec = as_vector(b)
    if len(vec) != M.rows:
        raise DomainError(f"right-hand side length {len(vec)} != rows {M.rows}")
    _check_max_inputs(M, vec)
    minima = [
        min((vec[i] / row[j] for i, row in enumerate(M.to_rows()) if row[j] > 0),
            default=None)
        for j in range(M.cols)
    ]
    return M, vec, minima


def _candidate(minima) -> BoxVector:
    """:func:`maxsys_candidate` from the column minima."""
    for j, x in enumerate(minima, start=1):
        if x is None:
            raise DomainError(f"column {j} has no positive entry")
    return tuple(minima)


def maxsys_candidate(A, b) -> BoxVector:
    """Componentwise-maximal candidate x_j = min over supports of b_i/a_ij."""
    return _candidate(_column_minima(A, b)[2])


def _solution(M: BoxMatrix, vec: BoxVector, minima) -> Optional[BoxVector]:
    """:func:`maxsys_solve` from the checked system and its column minima."""
    x = tuple(Fraction(0) if v is None else v for v in minima)
    for row, target in zip(M.to_rows(), vec):
        if max(a * v for a, v in zip(row, x)) != target:
            return None
    return x


def maxsys_solve(A, b) -> Optional[BoxVector]:
    """The candidate if it satisfies every row's max equation, else None.

    Columns with no positive entry never influence a row maximum, so they
    are pinned to zero rather than rejected; only the constrained columns
    go through the candidate formula.
    """
    return _solution(*_column_minima(A, b))


def maxsys_existence_permutation(A, b):
    """Permutation witness for solvability of the max-equation system.

    Row j may take column k only when a_jk > 0 and j maximizes a_ik/b_i
    over all rows i. A perfect matching of rows to columns under this rule
    is returned as (sigma, strict) with sigma the lexicographically
    smallest assignment (sigma[j] read for j = 1..n); strict reports
    whether every matched column's maximizer is unique, in which case the
    solution of the system is unique as well. None when no matching exists.
    """
    M = as_matrix(A)
    vec = as_vector(b)
    n = M.rows
    if not M.is_square:
        raise DomainError(f"matrix must be square, got {M.rows}x{M.cols}")
    if len(vec) != n:
        raise DomainError(f"right-hand side length {len(vec)} != size {n}")
    _check_max_inputs(M, vec)

    rows = M.to_rows()
    argmax: dict[int, set[int]] = {}
    for k in range(n):
        ratios = [row[k] / v for row, v in zip(rows, vec)]
        best = max(ratios)
        argmax[k + 1] = {
            i
            for i, (row, r) in enumerate(zip(rows, ratios), start=1)
            if row[k] > 0 and r == best
        }
    adj = {j: sorted(k for k in range(1, n + 1) if j in argmax[k])
           for j in range(1, n + 1)}

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


def kaykobad_check(A, b) -> bool:
    """Strict dominance b_i > sum_{j != i} a_ij b_j / a_jj for every row."""
    M = as_matrix(A)
    vec = as_vector(b)
    n = M.rows
    if not M.is_square or len(vec) != n:
        raise DomainError("square matrix and matching vector required")
    _check_max_inputs(M, vec)
    rows = M.to_rows()
    for i in range(n):
        if rows[i][i] <= 0:
            raise DomainError(f"diagonal entry ({i + 1},{i + 1}) must be positive")
    for i, row in enumerate(rows):
        total = sum(
            (row[j] * vec[j] / rows[j][j] for j in range(n) if j != i),
            Fraction(0),
        )
        if not vec[i] > total:
            return False
    return True


def kaykobad_p_check(A, b, sigma: Sequence[int], p: int) -> bool:
    """Finite-index dominance along a permutation, in signed-log arithmetic.

    For each row i the odd-power sum of a_{i,sigma(j)} b_j / a_{j,sigma(j)}
    over j != i is compared (after taking the matching root) against b_i.
    """
    M = as_matrix(A)
    vec = as_vector(b)
    n = M.rows
    if not M.is_square or len(vec) != n:
        raise DomainError("square matrix and matching vector required")
    _check_max_inputs(M, vec)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {tuple(sigma)!r}")
    rows = M.to_rows()
    cols = [s - 1 for s in sigma]
    pivots = [row[c] for row, c in zip(rows, cols)]
    for j, piv in enumerate(pivots, start=1):
        if piv == 0:
            raise DomainError(f"zero pivot at row {j}, column {sigma[j - 1]}")
    for i, row in enumerate(rows):
        terms = [
            SignedLog.from_rational(row[cols[j]] * vec[j] / pivots[j])
            for j in range(n)
            if j != i
        ]
        if not terms:
            continue
        rhs = phi_p_sum(terms, p)
        lhs = SignedLog.from_rational(vec[i])
        if rhs.is_zero:
            continue
        if rhs.exact is not None:
            if not vec[i] > rhs.exact:
                return False
        elif not lhs.logmag > rhs.logmag:
            return False
    return True


# --- two-sided systems -------------------------------------------------------


class TwoSidedRowCheck(NamedTuple):
    a_lower: Fraction
    c_lower: Fraction
    a_upper: Fraction
    c_upper: Fraction
    satisfied: bool


def _side_values(row: BoxVector, x: BoxVector, t: Fraction) -> tuple[Fraction, Fraction]:
    products = tuple(a * v for a, v in zip(row, x)) + (t,)
    return smile(products, LOWER), smile(products, UPPER)


def twosided_row_checks(sys: TwoSidedSystem, x: Sequence) -> tuple[TwoSidedRowCheck, ...]:
    """Original two-sided inequalities rowwise at x.

    The A row is enveloped together with d_i, the C row with b_i; the row
    passes when the lower A value stays below the lower C value and the
    upper A value stays above the upper C value.
    """
    vec = as_vector(x)
    if len(vec) != sys.A.cols:
        raise DomainError(f"x has length {len(vec)}, expected {sys.A.cols}")
    out = []
    for i in range(1, sys.A.rows + 1):
        a_lo, a_hi = _side_values(sys.A.row(i), vec, sys.d[i - 1])
        c_lo, c_hi = _side_values(sys.C.row(i), vec, sys.b[i - 1])
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
    n = sys.A.rows
    D = BoxMatrix(
        tuple(boxminus(sys.A.entry(i, j), sys.C.entry(i, j)) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    r = tuple(boxminus(b, d) for b, d in zip(sys.b, sys.d))
    reduced = LimitSystem(D, r)
    base = cramer_limit_solve(reduced, cap)
    if base.solution is None:
        return base
    originals = twosided_row_checks(sys, base.solution)
    rows = tuple(
        RowBounds(rb.lower, rb.upper, rb.satisfied and oc.satisfied)
        for rb, oc in zip(base.per_row, originals)
    )
    # regularity of a two-sided system is its own notion (envelopes of the
    # original sides), not regularity of the reduced system
    return SolveReport(base.solution, base.det, rows,
                       twosided_is_regular(sys, base.solution))
