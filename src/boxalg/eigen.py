"""Characteristic monomials, spectral region, and finite-index Perron data.

The characteristic object is the raw multiset of signed monomials (one per
subset-permutation pair), never merged per degree: the limit sum cancels
by exact magnitude across the whole multiset, and premature merging would
corrupt those counts. Listing it takes sum_k k! C(n, k) monomials, so
:func:`char_monomials` is capped.

The listing runs in integers: it reads the matrix's integer rows over
their row scales, so every coefficient is an integer over one common
denominator S, and only the finished coefficients become Fractions.

Evaluation nets each degree's tally {coeff * S: count} as it reads it.
Two monomials of equal degree and equal absolute coefficient but opposite
sign contribute exactly cancelling odd powers at every finite index and
every argument, so netting each (degree, |coeff|) class preserves every
evaluation mode while removing spurious ties that a plain envelope of the
raw multiset would see. At lam = a/b the pass scales every value by the
same positive integer S * b^n, which keeps magnitude order and ties, and
yields the limit sum's net map (over S * b^n) and both envelopes, read
from each degree's largest surviving class, at once; only the winner
becomes a Fraction, and the finite-index mode reads the integer map.

The subset DP of :mod:`boxalg.linalg`, run on a_ij - lam delta_ij in
O(2^n n) steps, yields the netted classes {|coeff| * S: net count}, a
tally like any other, without listing the monomials. :func:`eigen_region`
reads the dominant surviving class per degree from it and the oracle's
charpoly sweep its whole maps; the ``charpoly`` CLI kind runs no DP and
evaluates the tallies of the listing it prints.

The region comes from the Newton polygon. At |lam| = r the degree-d term
has magnitude m_d r^d (m_d the dominant class of degree d), so the terms
on top are the points (d, log m_d) on the face of slope -log r of their
upper hull. Each maximal collinear run of the hull ties at one radius,
(m_a / m_b)^(1/(b-a)) for any two of its degrees a < b, and that radius
is a member on a half-line exactly when the run's effective signs (sign *
(-1)^d on the negative half-line) differ. The hull tests compare powers
of rationals, so no float enters a verdict.

The finite-index Perron data of a positive matrix come from Noda
iteration on the entrywise power B = A^(q), run in floats after a
tropical scaling: Karp's maximum cycle mean of q log A and a max-plus
subeigenvector give a diagonal similarity of B / e^lam with every entry
at most 1 and spectral radius in [1, n], so the run neither overflows
nor loses to underflow anything that moves the result, however far apart
the entries are (see :func:`perron_p`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations, cycle
from operator import add, getitem, mul
from typing import NamedTuple, Optional, Sequence

from .core import LOWER, UPPER, _net_limit, as_scalar, smile
from .errors import CapacityError, ConvergenceError, DomainError
from .linalg import (
    BoxMatrix,
    _dominant_terms,
    as_matrix,
    matvec_limit,
    signed_permutations,
)
from .signedlog import (
    SignedLog,
    _log_abs_fraction,
    _log_over,
    _over_lcm,
    _phi_p_net,
    net_by_magnitude,
    odd_exponent,
)

DEFAULT_CHAR_CAP = 7
NODA_TOL, NODA_STEPS = 1e-12, 100  # perron_p's bracket width, step limit


class Monomial(NamedTuple):
    coeff: Fraction
    degree: int


def expected_monomial_count(n: int) -> int:
    """Sum over k of k! * C(n, k), counting the degree-n term once (k=0)."""
    return sum(
        math.factorial(k) * math.comb(n, k) for k in range(n + 1)
    )


def _check_char(A, cap: int) -> BoxMatrix:
    M = as_matrix(A)
    if not M.is_square:
        raise DomainError(f"square matrix required, got {M.rows}x{M.cols}")
    n = M.rows
    if n > cap:
        raise CapacityError(
            f"characteristic multiset for a {n}x{n} matrix exceeds the size "
            f"cap {cap} ({expected_monomial_count(n)} monomials)"
        )
    return M


@cache
def _heap_table(k: int) -> bytes:
    """The permutations of :func:`~boxalg.linalg.signed_permutations` of k,
    concatenated as bytes, listed once per k on first use. Heap's
    algorithm swaps one pair per step, so their signs alternate +1, -1, ..."""
    return b"".join(bytes(perm) for perm, _sign in signed_permutations(k))


def _char_levels(M: BoxMatrix) -> tuple[list[tuple[int, list[int]]], int]:
    """The listing of :func:`char_monomials` in integers: M's integer rows
    over their row scales, with the scales of the rows outside H
    completing each product to an integer over S, the product of all of
    them. Returns [(n - k, the coefficients times S) for k = 0..n] and S."""
    rows, scales = M._ints, M._scales
    n = len(rows)
    total = math.prod(scales)
    levels = [(n, [-total if n % 2 else total])]
    for k in range(1, n + 1):
        table, level = _heap_table(k), []
        for H in combinations(range(n), k):
            perms = zip(*[iter(table)] * k)  # the table's k-tuples
            sub = [[rows[i][j] for j in H] for i in H]
            f = math.prod(s for i, s in enumerate(scales) if i not in H)
            if (n - k) % 2:
                f = -f
            level.extend([g * math.prod(map(getitem, sub, perm))
                          for perm, g in zip(perms, cycle((f, -f)))])
        levels.append((n - k, level))
    return levels, total


def char_monomials(A, cap: int = DEFAULT_CHAR_CAP) -> tuple[Monomial, ...]:
    """One signed monomial per (subset H, permutation of H) pair.

    The monomial for (H, sigma) has coefficient (-1)^(n-k) sgn(sigma)
    times the product of a[i, sigma(i)] over H (k = |H|) and degree n-k;
    the empty subset contributes ((-1)^n, n). Order: k ascending, then the
    subsets in ``combinations`` order, then Heap order.
    """
    levels, total = _char_levels(_check_char(A, cap))
    return tuple(Monomial(Fraction(c, total), d)
                 for d, level in levels for c in level)


def _tallies(m) -> tuple[dict[int, Counter], int]:
    """Per degree, the tally {c: count} of monomials (coeff, degree), each
    coeff an integer c over S, their least common denominator; and S."""
    coeffs, degrees = [], []
    for coeff, degree in m:
        if type(degree) is not int or degree < 0:
            raise DomainError(f"monomial degree {degree!r} is not an int >= 0")
        coeffs.append(as_scalar(coeff))
        degrees.append(degree)
    ints, scale = _over_lcm(coeffs)
    tallies: dict[int, Counter] = defaultdict(Counter)
    for c, degree in zip(ints, degrees):
        tallies[degree][c] += 1
    return tallies, scale


def reduced_monomials(m) -> tuple[Monomial, ...]:
    """Net signs within each (degree, |coeff|) class; drop zero coefficients.

    The surviving class keeps |net| copies of its dominant sign, so the
    reduced multiset evaluates identically to the raw one at every finite
    index, while its envelopes are free of exactly-cancelling ties.
    """
    out = []
    tallies, scale = _tallies(m)
    for degree, t in sorted(tallies.items()):
        for mag, net in sorted(net_by_magnitude(t, t.values())[0].items()):
            coeff = Fraction(mag if net > 0 else -mag, scale)
            out.extend([Monomial(coeff, degree)] * abs(net))
    return tuple(out)


class _Values(NamedTuple):
    """The values coeff * lam^degree of the monomials, each times one
    positive integer ``den``."""

    net: dict[int, int]  # {scaled |value|: net signed count}
    top: int             # the largest scaled |value| of a surviving class
    signs: set[bool]     # the signs (True for +) of the classes at top
    den: int


def _values_at(tallies, scale: int, lam: Fraction) -> _Values:
    """Per-degree tallies {integer c over ``scale``: count} evaluated at
    lam and netted in one pass.

    With lam = a/b (b > 0) and n the top degree, S * b^n scales every
    value c/S * lam^d to the integer c * a^d * b^(n-d), keeping magnitude
    order and ties. Each count enters the net map with its value's sign,
    zero coefficients skipped. A degree's envelope value is its largest
    |c| whose counts of +c and -c differ, read only when |c| beats the
    degree's best so far, with the sign of the larger side."""
    a, b = lam.numerator, lam.denominator
    n = max(tallies, default=0)
    net: dict[int, int] = {}
    get = net.get
    top, signs = 0, set()
    for d, t in tallies.items():
        w = a ** d * b ** (n - d)  # signed as lam^d
        if not w:  # lam = 0 zeroes every positive degree
            continue
        best = 0
        for c, k in t.items():
            v = c * w
            if v > 0:
                net[v] = get(v, 0) + k
                if v > best and k != t.get(-c, 0):
                    best, up = v, k > t.get(-c, 0)
            elif v:
                net[-v] = get(-v, 0) - k
                if -v > best and k != t.get(-c, 0):
                    best, up = -v, k < t.get(-c, 0)
        if best > top:
            top, signs = best, set()
        if best and best == top:
            signs.add(up)
    return _Values(net, top, signs, scale * b ** n)


def _read(at: _Values, mode: str, p: Optional[int] = None):
    """:func:`charpoly_eval`'s reading of the values at lam."""
    if mode == "p":
        return _phi_p_net((at.net, at.den), (p,))[0]
    if mode == "limit":
        return _net_limit((at.net, at.den))
    return smile([at.top if s else -at.top for s in at.signs], mode) / at.den


def charpoly_eval(m, lam, mode: str = "limit", p: Optional[int] = None):
    """Evaluate the monomial multiset at lam under the requested mode.

    'limit' takes the dominant-magnitude sum of all values c * lam^degree,
    'lower'/'upper' take the matching envelope of the reduced multiset,
    and 'p' returns the finite-index power sum as a SignedLog. Every mode
    reads the per-(degree, |coeff|) net counts, which give the raw
    multiset's limit sum and power sums (equal magnitudes net either way),
    and never lists the |net| copies of a class.
    """
    lam = as_scalar(lam)
    if mode == "p" and p is None:
        raise DomainError("mode 'p' requires the index p")
    if mode not in ("limit", LOWER, UPPER, "p"):
        raise DomainError(f"unknown mode {mode!r}")
    return _read(_values_at(*_tallies(m), lam), mode, p)


# --- spectral region ---------------------------------------------------------


def _iroot(k: int, e: int) -> int:
    """floor(k^(1/e)) of an integer k >= 0, by integer Newton steps."""
    if k < 2:
        return k
    r = 1 << -(-k.bit_length() // e)  # 2^ceil(bits/e) > k^(1/e)
    while True:
        s = ((e - 1) * r + k // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _nth_root_exact(q: Fraction, e: int) -> Optional[Fraction]:
    """q^(1/e) when rational, else None (q in lowest terms, q > 0)."""
    rn, rd = _iroot(q.numerator, e), _iroot(q.denominator, e)
    if rn ** e != q.numerator or rd ** e != q.denominator:
        return None
    return Fraction(rn, rd)


def _radii(A, cap: int):
    """The members of :func:`eigen_region`, unsorted, as (half-line, exact
    root or None, log of the radius)."""
    dom, _scale = _dominant_terms(_check_char(A, cap), lam=True)
    mag = {d: m for d, (m, _s) in dom.items()}  # each over the one scale

    def bend(a: int, b: int, c: int) -> int:
        # +1, 0, -1: (b, log m_b) above, on, below the chord a-c, a < b < c
        left, right = mag[b] ** (c - a), mag[a] ** (c - b) * mag[c] ** (b - a)
        return (left > right) - (left < right)

    hull: list[int] = []  # monotone chain, collinear points kept
    for d in sorted(dom):
        while len(hull) > 1 and bend(hull[-2], hull[-1], d) < 0:
            hull.pop()
        hull.append(d)

    if 0 not in dom:
        yield 1, Fraction(0), -math.inf
    start = 0
    for i in range(1, len(hull)):
        if i + 1 < len(hull) and bend(hull[start], hull[i], hull[i + 1]) == 0:
            continue  # the collinear run from hull[start] goes on
        run, start = hull[start:i + 1], i
        for halfline in (1, -1):
            signs = [dom[d][1] * (halfline if d % 2 else 1) for d in run]
            b = next((d for d, s in zip(run, signs) if s != signs[0]), None)
            if b is not None:
                q, e = Fraction(mag[run[0]], mag[b]), b - run[0]
                yield halfline, _nth_root_exact(q, e), _log_abs_fraction(q) / e


def eigen_region(A, *, cap: int = DEFAULT_CHAR_CAP) -> list:
    """All lam with lower eval <= 0 <= upper eval, smallest first.

    lam = 0 when the constant term cancels, and each member radius of the
    upper hull (see the module docstring), read from its run's lowest
    degree and the first run degree of the other effective sign. Rational
    members are Fractions, irrational ones floats (clamped to +-inf).
    """
    return sorted(halfline * root if root is not None
                  else SignedLog(halfline, log_r).to_float()
                  for halfline, root, log_r in _radii(A, cap))


# --- finite-index Perron data ------------------------------------------------


def _max_cycle_mean(L) -> float:
    """Karp's maximum cycle mean of the complete digraph with arc weights
    L[i][j]: with D_k(v) the heaviest k-arc walk ending at v from any
    start, it is max over v of min over k < n of (D_n(v) - D_k(v))/(n - k)."""
    n = len(L)
    D = [[0.0] * n]
    for _ in range(n):
        D.append([max(map(add, D[-1], col)) for col in zip(*L)])
    return max(min((D[n][v] - D[k][v]) / (n - k) for k in range(n))
               for v in range(n))


def _subeigenvector(C) -> list[float]:
    """A column of the max-plus Kleene star of C, whose maximum cycle mean
    is 0: u with C[i][j] + u[j] <= u[i]. The column is that of a critical
    node (the heaviest closed walk through it weighs 0), so every row i
    has an arc with C[i][j] + u[j] = u[i]."""
    S = [row[:] for row in C]
    for k, Sk in enumerate(S):  # Floyd-Warshall: heaviest paths
        for Si in S:
            w = Si[k]
            Si[:] = [max(a, w + b) for a, b in zip(Si, Sk)]
    j = max(range(len(S)), key=lambda i: S[i][i])
    return [0.0 if i == j else row[j] for i, row in enumerate(S)]


def _triplet_solve(N, u, v, b) -> Optional[list[float]]:
    """Solve M y = b for the M-matrix M with off-diagonal entries -N[i][j]
    (N's diagonal is not read) and M u = v, u > 0, v >= 0, by Gaussian
    elimination in triplet form (Alfa, Xue and Ye, Math. Comp. 71, 2002).
    Each pivot is read as (v_k + sum_j N[k][j] u_j) / u_k and every update
    adds nonnegative terms, so no step subtracts. Returns None at a zero
    pivot, when M is singular."""
    n = len(u)
    N, v, b = [row[:] for row in N], v[:], b[:]
    pivots = []
    for k in range(n):
        Nk = N[k]
        d = (v[k] + sum(map(mul, Nk[k + 1:], u[k + 1:]))) / u[k]
        if not d:
            return None
        pivots.append(d)
        for i in range(k + 1, n):
            f = N[i][k] / d
            if f:
                N[i][k + 1:] = [a + f * c for a, c in zip(N[i][k + 1:],
                                                          Nk[k + 1:])]
                v[i] += f * v[k]
                b[i] += f * b[k]
    y = [0.0] * n
    for k in reversed(range(n)):
        y[k] = (b[k] + sum(map(mul, N[k][k + 1:], y[k + 1:]))) / pivots[k]
    return y


def perron_p(A, p: int) -> tuple[SignedLog, tuple[SignedLog, ...]]:
    """Dominant eigenpair of the odd-power image of a positive matrix.

    B = A^(q), q = 2p+1 entrywise, is scaled tropically before any float
    is exponentiated: with L = q log A, lam its maximum cycle mean (Karp)
    and u a max-plus subeigenvector of L - lam, the matrix B'_ij =
    exp(L_ij - lam + u_j - u_i) has every entry <= 1 and rho(B') in [1, n],
    so an entry that underflows cannot move the result. Noda iteration on
    B' (Numer. Math. 17, 1971) reads the Collatz-Wielandt bracket [min,
    max] of (B'x)_i / x_i and solves (top I - B') y = x, subtraction-free,
    with top the bracket's maximum; it stops when the bracket closes to
    ``NODA_TOL`` relative, or at a zero pivot, where top is an eigenvalue and
    so rho(B'). The returned value is the q-th root of rho(B) = e^lam
    top; the vector is B's eigenvector e^u_i x_i, sup-norm 1. A bracket
    still open after ``NODA_STEPS`` steps raises ConvergenceError.
    """
    M = as_matrix(A)
    if not M.is_square:
        raise DomainError(f"square matrix required, got {M.rows}x{M.cols}")
    for i, row in enumerate(M._ints, start=1):
        for j, a in enumerate(row, start=1):
            if a <= 0:
                raise DomainError(f"matrix entry ({i},{j}) must be positive")
    q = odd_exponent(p)
    L = [[q * _log_over(a, s) for a in row]
         for row, s in zip(M._ints, M._scales)]
    lam = _max_cycle_mean(L)
    C = [[a - lam for a in row] for row in L]
    u = _subeigenvector(C)
    exp, fsum = math.exp, math.fsum
    B = [[exp(c + uj - ui) for c, uj in zip(row, u)]
         for row, ui in zip(C, u)]
    x = [1.0] * M.rows
    for _ in range(NODA_STEPS):
        ratios = [fsum(map(mul, row, x)) / xi for row, xi in zip(B, x)]
        top = max(ratios)
        if top - min(ratios) <= NODA_TOL * top:
            break
        y = _triplet_solve(B, x, [(top - r) * xi
                                  for r, xi in zip(ratios, x)], x)
        if y is None:
            break
        m = max(y)
        x = [yi / m for yi in y]
    else:
        raise ConvergenceError(
            f"Noda iteration did not settle within {NODA_STEPS} iterations")
    logs = [ui + math.log(xi) for ui, xi in zip(u, x)]
    top_log = max(logs)
    return (SignedLog(1, (lam + math.log(top)) / q),
            tuple(SignedLog(1, g - top_log) for g in logs))


def boxtimes_eig_check(A, lam, v: Sequence) -> bool:
    """True when the limit matrix product reproduces lam * v exactly."""
    M = as_matrix(A)
    lam = as_scalar(lam)
    vec = tuple(as_scalar(x) for x in v)
    if not vec or all(x == 0 for x in vec):
        raise DomainError("eigenvector must be nonzero")
    image = matvec_limit(M, vec, "exact")
    return all(img == lam * x for img, x in zip(image, vec))
