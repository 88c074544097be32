"""Linear systems under the limit algebra.

Three families live here. Square limit systems are solved by Cramer
quotients of limit determinants and verified against the sandwich
inequalities (lower envelope of each row value below the right-hand side,
upper envelope above). Two-sided systems reduce to a one-sided limit
system by the entrywise signed difference, built in integers. Each input
is read once, as a system is built (each side through one square check)
or by ``core._point``; a solver checks its own x by ``_bounds`` as it
is. Each check compares integer cross products, with x over one
denominator; only the printed bounds become Fractions.

Nonnegative max-equation systems max_j a_ij x_j = b_i (b > 0) are read
from one scan of the columns: x_j = min b_i/a_ij over positive a_ij is
the principal solution, and the rows attaining it are the column's tight
rows. As a_ij x_j <= b_i with equality exactly there, the system is
solvable exactly when the tight rows cover every row, and the permutation
witness is a matching of rows to columns where they are tight. Both
Kaykobad-style conditions are one test of b_i^q against the q-th power
sum of a_{i,sigma(j)} b_j / a_{j,sigma(j)} over j != i: in integers while
the powers stay within the budget that :mod:`boxalg.signedlog` owns
(``_in_budget``), past it by that module's guarded log reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import signedlog
from .core import (_array, _envelopes, _point, _resolve_index_set, _scalars,
                   as_vector)
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
        self.A, self.b = _square_system(as_matrix(A), as_vector(b))


def _square_system(A: BoxMatrix, b: Sequence) -> tuple[BoxMatrix, Sequence]:
    """A and the coerced b as they are, once A is square and b has its size."""
    if not A.is_square:
        raise DomainError(f"system matrix must be square, got {A.rows}x{A.cols}")
    if len(b) != A.rows:
        raise DomainError(f"right-hand side length {len(b)} != size {A.rows}")
    return A, b


class TwoSidedSystem:
    """Rows of (A, b) balanced against rows of (C, d), same shapes."""

    __slots__ = ("A", "C", "b", "d")

    def __init__(self, A, C, b, d):
        A, C, b, d = as_matrix(A), as_matrix(C), as_vector(b), as_vector(d)
        self.A, self.b = _square_system(A, b)
        self.C, self.d = _square_system(C, d)
        if C.rows != A.rows:
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
    rows = _bounds(sys.A, *_over_lcm(sys.b), _point(x, sys.A.cols))
    return VerifyReport(rows, all(r.satisfied for r in rows))


def _bounds(A: BoxMatrix, bs, t: int, x) -> tuple[RowBounds, ...]:
    """The row bounds of A at x = X / L against b = B / T, the integers
    ``bs`` over ``t``: lo T <= B_i den <= hi T with :func:`_sides`."""
    return tuple(RowBounds(Fraction(lo, den), Fraction(hi, den),
                           lo * t <= v * den <= hi * t)
                 for (lo, hi, den), v in zip(_sides(A, x), bs))


def _sides(M: BoxMatrix, x, v=None) -> list[tuple[int, int, int]]:
    """(lo, hi, den) per row i: the envelopes of M's row at x = X / L and of
    v_i = V_i / T (default 0), read on R_ij X_j T, V_i s_i L over s_i L T."""
    (xs, lcm), (vs, t) = x, v or ([0] * M.rows, 1)
    xs = [u * t for u in xs] if t > 1 else xs
    return [(*_envelopes([*map(mul, row, xs), w * s * lcm]), s * lcm * t)
            for row, s, w in zip(M._ints, M._scales, vs)]


def is_regular(sys: LimitSystem, x: Sequence) -> bool:
    """True when every row's lower and upper envelopes agree at x."""
    return all(r.lower == r.upper for r in verify_limit_system(sys, x).rows)


def cramer_limit_solve(sys: LimitSystem, cap: int = DEFAULT_DET_CAP) -> SolveReport:
    """Cramer quotients of limit determinants, with a verification report.

    When the limit determinant of A vanishes there is no Cramer solution;
    the report then carries det=0, no solution, and no row bounds.
    """
    det, x = _cramer_solution(sys.A, sys.b, cap)
    rows = () if x is None else _bounds(sys.A, *_over_lcm(sys.b), _over_lcm(x))
    return SolveReport(x, det, rows, x is not None
                       and all(r.lower == r.upper for r in rows))


def _cramer_solution(A: BoxMatrix, b, cap: int):
    """det A and the Cramer solution of A x = b, None when det A = 0."""
    det, *dets = _cramer_dets(A, b, cap)
    return det, (tuple(v / det for v in dets) if det else None)


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
    return _witness(_square_max(A, b)[2])


def _dominates(M: BoxMatrix, rhs, cols, q: int) -> bool:
    """True when b_i^q > sum_{j != i} (a_{i,cols[j]} b_j / a_{j,cols[j]})^q
    for every row i, with 0-based columns and positive pivots a_{j,cols[j]};
    ``rhs`` is b as integers over its own scale T.

    With A_ij M's integers over the row scales s_i, B_i b's over T and L
    the lcm of the integer pivots, row i's sides times T s_i L are the
    integers x = B_i s_i L and y_j = A_{i,cols[j]} B_j s_j L / A_{j,cols[j]}.
    A row fails when its largest term reaches b_i, and passes without the
    powers when Bernoulli's inequality puts x^q above (terms) * top^q.
    Otherwise x^q is compared with sum y_j^q exactly while
    ``signedlog._in_budget`` holds for x, and past it as the sign of the
    power sum of the groups {x: +1, y_j: -1}, read by
    ``signedlog._power_means``, which raises DomainError for a row too
    close to a tie to decide.
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
        if signedlog._in_budget(q, x, 1):
            if x ** q <= sum(y ** q for y in ys):
                return False
            continue
        nets = signedlog.net_by_magnitude([x, *(-y for y in ys)])
        try:
            v = signedlog._decided(signedlog._power_means(
                0.0, signedlog._top_logs(nets)[1], (q,))[0], q // 2)
        except DomainError as exc:
            raise DomainError(f"row {i + 1} lies {exc}") from exc
        if v.sign < 0:
            return False
    return True


def _square_max(A, b):
    """:func:`_max_columns` of a system whose matrix is square."""
    M, rhs, cols = _max_columns(A, b)
    if not M.is_square:
        raise DomainError(f"matrix must be square, got {M.rows}x{M.cols}")
    return M, rhs, cols


def kaykobad_check(A, b) -> bool:
    """Strict dominance b_i > sum_{j != i} a_ij b_j / a_jj for every row."""
    M, rhs, _cols = _square_max(A, b)
    for i, row in enumerate(M._ints):
        if row[i] <= 0:
            raise DomainError(f"diagonal entry ({i + 1},{i + 1}) must be positive")
    return _dominates(M, rhs, range(M.rows), 1)


def kaykobad_p_check(A, b, sigma: Sequence[int], p: int) -> bool:
    """Finite-index dominance along a permutation: for each row i,
    b_i^(2p+1) strictly above the sum over j != i of
    (a_{i,sigma(j)} b_j / a_{j,sigma(j)})^(2p+1), decided as in
    :func:`_dominates` (exactly unless a large p meets a near tie)."""
    M, rhs, _cols = _square_max(A, b)
    n, sigma = M.rows, _array(sigma, "indices")
    if _resolve_index_set(n, sigma) != tuple(range(1, n + 1)):
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
    return tuple(TwoSidedRowCheck(*(Fraction(side[k], side[2]) for k in (0, 1)
                                    for side in (a, c)), ok)
                 for a, c, ok in _row_checks(sys, _point(x, sys.A.cols)))


def _row_checks(sys: TwoSidedSystem, x) -> list[tuple]:
    """:func:`twosided_row_checks` at x = X / L: per row the A and C sides
    from :func:`_sides` and whether they pass, as cross products."""
    b, d = _over_lcm(sys.b), _over_lcm(sys.d)
    return [(a, c, a[0] * c[2] <= c[0] * a[2] and a[1] * c[2] >= c[1] * a[2])
            for a, c in zip(_sides(sys.A, x, d), _sides(sys.C, x, b))]


def twosided_is_regular(sys: TwoSidedSystem, x: Sequence) -> bool:
    """True when both enveloped sides collapse (lower = upper) in every row."""
    checks = twosided_row_checks(sys, x)
    return all(c.a_lower == c.a_upper and c.c_lower == c.c_upper for c in checks)


def _minus(a_row, sa: int, c_row, sc: int) -> tuple[list[int], int]:
    """Row a/sa (-) c/sc in canonical form: over sa sc, whichever of a sc
    and -c sa is larger in magnitude, (a sc - c sa) / 2 on a tie (a sc or 0)."""
    out = [a if abs(a) > abs(c) else -c if abs(a) < abs(c) else (a - c) // 2
           for a, c in ((a * sc, c * sa) for a, c in zip(a_row, c_row))]
    g = math.gcd(*out, sa * sc)
    return [v // g for v in out], sa * sc // g


def twosided_solve(sys: TwoSidedSystem, cap: int = DEFAULT_DET_CAP) -> SolveReport:
    """Reduce to the one-sided system D x = r with D = A (-) C, r = b (-) d.

    Each entry of D is the signed difference boxminus(a, c) and likewise
    for r. The Cramer solution of the reduced system is verified both
    against the reduced sandwich inequalities and against the original
    two-sided inequalities; a row's satisfied flag requires both.
    """
    D = BoxMatrix._from_ints(*zip(*map(_minus, sys.A._ints, sys.A._scales,
                                       sys.C._ints, sys.C._scales)))
    rhs, t = _minus(*_over_lcm(sys.b), *_over_lcm(sys.d))
    det, x = _cramer_solution(D, [Fraction(v, t) for v in rhs], cap)
    if x is None:
        return SolveReport(None, det, (), False)
    xs = _over_lcm(x)
    checks = _row_checks(sys, xs)
    rows = tuple(RowBounds(rb.lower, rb.upper, rb.satisfied and ok)
                 for rb, (_a, _c, ok) in zip(_bounds(D, rhs, t, xs), checks))
    # regular: both original sides collapse, not the reduced system's rows
    return SolveReport(x, det, rows, all(a[0] == a[1] and c[0] == c[1]
                                         for a, c, _ok in checks))
