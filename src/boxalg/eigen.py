"""Characteristic monomials, spectral region, and finite-index Perron data.

The characteristic object is the raw multiset of signed monomials (one per
subset-permutation pair), never merged per degree: the limit sum cancels
by exact magnitude across the whole multiset, and premature merging would
corrupt those counts. Listing it takes sum_k k! C(n, k) monomials, so
:func:`char_monomials` is capped.

The listing runs in integers: it reads the matrix's integer rows over
their row scales, so every coefficient is an integer over one common
denominator S, and only the finished coefficients become Fractions.
Each k's permutations are stored once, as index tables in Heap order,
and the subsets of size k list by suffix products: the product over
rows j..k-1 is shared by the j! consecutive permutations that agree
there. All C(n, k) subsets list together, so each row down to row 2 is
one C-level pass over the suffix products of every subset, and one more
reads the signed products of rows 0 and 1 from each subset's table, with
no Python step per permutation.

Evaluation reads each degree's coefficients as listed, integers over S,
and tallies none unless it must. Two monomials of equal degree and equal
absolute coefficient but opposite sign contribute exactly cancelling odd
powers at every finite index and every argument, so netting each
(degree, |coeff|) class preserves every evaluation mode while removing
spurious ties that a plain envelope of the raw multiset would see. At
lam = a/b every value is scaled by the same positive integer S * b^n,
which keeps magnitude order and ties, and only the winner becomes a
Fraction. A degree's dominant class is its largest |coeff| whose + and -
counts differ, and every value above the largest dominant value cancels
within its own degree. So :func:`_eval_at` reads
the limit and both envelopes from each degree's dominant class, found by
``max``, ``min`` and ``list.count``, and tallies a degree only when its
top class cancels; :func:`_net_at` tallies and nets every class into the
whole map, which the finite-index mode reads, and the limit too when the
largest dominant value nets to 0 across degrees.

The subset DP of :mod:`boxalg.linalg`, run on a_ij - lam delta_ij in
O(2^n n) steps, yields the netted classes {|coeff| * S: net count},
which :func:`_net_at` reads as it reads a listed degree, without listing
the monomials. :func:`eigen_region` reads the dominant surviving class per
degree from it and the oracle's charpoly sweep its whole maps; the
``charpoly`` CLI kind runs no DP and evaluates the lists it prints.

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
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from operator import add, itemgetter, mul
from typing import NamedTuple, Optional, Sequence

from .core import LOWER, UPPER, _array, _envelopes, _net_limit, as_scalar
from .errors import ConvergenceError, DomainError
from .linalg import (
    BoxMatrix,
    _checked,
    _dominant_terms,
    as_matrix,
    matmul_limit,
    signed_permutations,
)
from .signedlog import (
    SignedLog,
    _log_over,
    _nth_root_exact,
    _over_lcm,
    _decided,
    _phi_p_net,
    net_by_magnitude,
    odd_exponent,
)

DEFAULT_CHAR_CAP = 7
_CHAR = "characteristic multiset"  # the name of a characteristic input in faults
NODA_TOL, NODA_STEPS = 1e-12, 100  # perron_p's bracket width, step limit


class Monomial(NamedTuple):
    coeff: Fraction
    degree: int


def expected_monomial_count(n: int) -> int:
    """Sum over k of k! * C(n, k), counting the degree-n term once (k=0)."""
    return sum(math.perm(n, k) for k in range(n + 1))


@cache
def _heap_tables(k: int) -> tuple[tuple[bytes, ...], array]:
    """The permutations of k >= 2 in the Heap order of
    :func:`signed_permutations` as index tables. Positions j..k-1 stay fixed over each block of j!
    permutations, so for j = k-1 down to 2 a table holds perm[j] of each
    block. The last holds, per permutation m, its entry m % 2 * k^2 +
    perm[0] * k + perm[1] in the products of rows 0 and 1 followed by
    their negations: the signs alternate +1, -1, ..."""
    perms = [p for p, _s in signed_permutations(k)]
    blocks = tuple(bytes(p[j] for p in perms[::math.factorial(j)])
                   for j in range(k - 1, 1, -1))
    pairs = array("H", [m % 2 * k * k + x * k + y
                        for m, (x, y, *_rest) in enumerate(perms)])
    return blocks, pairs


@cache
def _heap_getters(k: int) -> tuple[tuple[itemgetter, ...], itemgetter]:
    """The tables of :func:`_heap_tables` as itemgetters: a block table's
    getter reads a subset's row at perm[j] of each block, the pair getter
    reads its table of 2k^2 signed products, k >= 2."""
    blocks, pairs = _heap_tables(k)
    return tuple(itemgetter(*block) for block in blocks), itemgetter(*pairs)


def _char_levels(M: BoxMatrix) -> tuple[dict[int, list[int]], int]:
    """:func:`char_monomials` in integers: {n - k: the coefficients times
    S} for k = 0..n, in that order, and S, the product of the row scales
    (those outside H complete each product over S). All C(n, k) subsets
    of size k list at once by suffix products: per row j = k-1 down to 2,
    one pass repeats each suffix product j + 1 times in place and
    multiplies by the row's entries at the block values of
    :func:`_heap_tables`, gathered for every subset; a last one reads the
    signed products of rows 0 and 1 from each subset's 2k^2 table."""
    rows, scales = M._ints, M._scales
    n = len(rows)
    total = math.prod(scales)
    sign = -1 if n % 2 else 1
    levels = {n: [sign * total],
              n - 1: [-sign * (total // s) * row[i]
                      for i, (row, s) in enumerate(zip(rows, scales))]}
    for k in range(2, n + 1):
        subsets = list(combinations(range(n), k))
        cols = [itemgetter(*H) for H in subsets]  # a row's entries in H
        blocks, pairs = _heap_getters(k)
        f = -sign if k % 2 else sign  # (-1)^(n-k)
        suffix = [f * (total // math.prod(map(scales.__getitem__, H)))
                  for H in subsets]
        for j, block in zip(range(k - 1, 1, -1), blocks):
            suffix = list(map(mul, _each(suffix, j + 1), chain.from_iterable(
                [block(col(rows[H[j]])) for H, col in zip(subsets, cols)])))
        tables = []
        for H, col in zip(subsets, cols):
            pair = [x * y for x in col(rows[H[0]]) for y in col(rows[H[1]])]
            pair += [-v for v in pair]
            tables.append(pairs(pair))
        levels[n - k] = list(map(mul, _each(suffix, 2),
                                 chain.from_iterable(tables)))
    return levels, total


def _each(xs: list, times: int) -> list:
    """Each of xs ``times`` times in a row."""
    out = [0] * (len(xs) * times)
    for t in range(times):
        out[t::times] = xs
    return out


def char_monomials(A, cap: int = DEFAULT_CHAR_CAP) -> tuple[Monomial, ...]:
    """One signed monomial per (subset H, permutation of H) pair.

    The monomial for (H, sigma) has coefficient (-1)^(n-k) sgn(sigma)
    times the product of a[i, sigma(i)] over H (k = |H|) and degree n-k;
    the empty subset contributes ((-1)^n, n). Order: k ascending, then the
    subsets in ``combinations`` order, then Heap order.
    """
    levels, total = _char_levels(_checked(A, cap, _CHAR))
    return tuple(Monomial(Fraction(c, total), d)
                 for d, level in levels.items() for c in level)


def _levels(m) -> tuple[dict[int, list[int]], int]:
    """Per degree, the coefficients of monomials (coeff, degree) in order,
    each an integer c over S, their least common denominator; and S: the
    form of :func:`_char_levels`. The one shape check of a monomial: a
    list or tuple of two, so a :class:`Monomial` passes."""
    coeffs, degrees = [], []
    for mono in _array(m, "monomials"):
        if not isinstance(mono, (list, tuple)) or len(mono) != 2:
            raise DomainError(f"not a monomial: {mono!r}")
        coeff, degree = mono
        if type(degree) is not int or degree < 0:
            raise DomainError(f"monomial degree {degree!r} is not an int >= 0")
        coeffs.append(as_scalar(coeff))
        degrees.append(degree)
    ints, scale = _over_lcm(coeffs)
    levels: dict[int, list[int]] = defaultdict(list)
    for c, degree in zip(ints, degrees):
        levels[degree].append(c)
    return levels, scale


def reduced_monomials(m) -> tuple[Monomial, ...]:
    """Net signs within each (degree, |coeff|) class; drop zero coefficients.

    The surviving class keeps |net| copies of its dominant sign, so the
    reduced multiset evaluates identically to the raw one at every finite
    index, while its envelopes are free of exactly-cancelling ties.
    """
    out = []
    levels, scale = _levels(m)
    for degree, level in sorted(levels.items()):
        for mag, net in sorted(net_by_magnitude(level)[0].items()):
            coeff = Fraction(mag if net > 0 else -mag, scale)
            out.extend([Monomial(coeff, degree)] * abs(net))
    return tuple(out)


def _net_at(levels, scale: int, lam: Fraction) -> tuple[dict[int, int], int]:
    """Per-degree coefficients, each an integer c over ``scale``, netted at
    lam into one map ({den * |value|: net signed count}, den): what mode
    'p', the oracle's sweep and an unsettled :func:`_eval_at` limit read.
    A degree's coefficients are a list (:func:`_char_levels`), tallied
    here, or the DP's classes {c: net count}. With lam = a/b (b > 0) and n
    the top degree, den = S * b^n scales each value c/S * lam^d to the
    integer c * a^d * b^(n-d), keeping magnitude order and ties; zero
    values are skipped."""
    a, b = lam.numerator, lam.denominator
    n = max(levels, default=0)
    net: dict[int, int] = {}
    get = net.get
    for d, t in levels.items():
        w = a ** d * b ** (n - d)  # signed as lam^d
        if not w:  # lam = 0 zeroes every positive degree
            continue
        for c, k in (t if isinstance(t, dict) else Counter(t)).items():
            v = c * w
            if v > 0:
                net[v] = get(v, 0) + k
            elif v:
                net[-v] = get(-v, 0) - k
    return net, scale * b ** n


def _tops(levels) -> dict[int, tuple[int, int]]:
    """Per degree, the largest and the smallest of its coefficients."""
    return {d: (max(level), min(level)) for d, level in levels.items()}


def _eval_at(levels, scale: int, lam: Fraction, tops=None
             ) -> tuple[Fraction, Fraction, Fraction]:
    """(limit, lower, upper) at lam of per-degree coefficient lists, as
    :func:`_char_levels` gives them, read from each degree's dominant
    class: its largest |c| whose counts of +c and -c differ. That is its
    top class, found from the degree's :func:`_tops` (``tops``, when the
    caller has them) and ``list.count``, unless the top cancels; only then
    is the degree tallied and its classes scanned.

    Every value above the largest dominant value cancels within its own
    degree. So that value, with the signs of the degrees that reach it,
    gives both envelopes of the netted classes, and its count netted over
    those degrees gives the limit; only when that count nets to 0 does the
    limit come from the whole net map (:func:`_net_at`)."""
    a, b = lam.numerator, lam.denominator
    n = max(levels, default=0)
    tops = _tops(levels) if tops is None else tops
    top, signs, net = 0, set(), 0
    for d, level in levels.items():
        w = a ** d * b ** (n - d)  # signed as lam^d
        if not w:  # lam = 0 zeroes every positive degree
            continue
        hi, lo = tops[d]
        c = max(hi, -lo)
        k = (level.count(c) if hi == c else 0) - (
            level.count(-c) if lo == -c else 0)
        if not k and c:  # the top cancels: scan
            t = Counter(level)
            c = max((abs(x) for x in t if t[x] != t.get(-x, 0)), default=0)
            k = t[c] - t[-c]
        k *= 1 if w > 0 else -1
        v = c * abs(w)
        if k and v > top:  # k = 0: every class cancels
            top, signs, net = v, {k > 0}, k
        elif k and v == top:
            signs.add(k > 0)
            net += k
    den = scale * b ** n
    limit = (Fraction(top if net > 0 else -top, den) if net
             else _net_limit(_net_at(levels, scale, lam)))
    lower, upper = _envelopes(top if s else -top for s in signs)
    return limit, Fraction(lower, den), Fraction(upper, den)


def charpoly_eval(m, lam, mode: str = "limit", p: Optional[int] = None):
    """Evaluate the monomial multiset at lam under the requested mode.

    'limit' takes the dominant-magnitude sum of all values c * lam^degree,
    'lower'/'upper' take the matching envelope of the reduced multiset,
    and 'p' returns the finite-index power sum as a SignedLog. Every mode
    reads the per-(degree, |coeff|) net counts, which give the raw
    multiset's limit sum and power sums (equal magnitudes net either way),
    and never lists the |net| copies of a class: 'p' through
    :func:`_net_at`, the other three through :func:`_eval_at`; both read
    the monomials' per-degree coefficient lists, as the ``charpoly`` CLI
    kind hands them its listing.
    """
    lam = as_scalar(lam)
    if mode == "p" and p is None:
        raise DomainError("mode 'p' requires the index p")
    if mode not in ("limit", LOWER, UPPER, "p"):
        raise DomainError(f"unknown mode {mode!r}")
    levels, scale = _levels(m)
    if mode == "p":
        return _decided(_phi_p_net(_net_at(levels, scale, lam), (p,))[0], p)
    return _eval_at(levels, scale, lam)[("limit", LOWER, UPPER).index(mode)]


# --- spectral region ---------------------------------------------------------


def _radii(A, cap: int):
    """The members of :func:`eigen_region`, unsorted, as (half-line, exact
    root or None, log of the radius)."""
    dom, _scale = _dominant_terms(_checked(A, cap, _CHAR), lam=True)
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
                yield (halfline, _nth_root_exact(q, e),
                       _log_over(mag[run[0]], mag[b]) / e)


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
    M = _checked(A, math.inf, "Perron data")
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
    M, lam, V = as_matrix(A), as_scalar(lam), BoxMatrix.from_columns([v])
    vec = V.col(1)  # v, read once, as V's one column
    if all(x == 0 for x in vec):
        raise DomainError("eigenvector must be nonzero")
    image = matmul_limit(M, V, "exact").col(1)
    return all(img == lam * x for img, x in zip(image, vec))
