"""Characteristic monomials, spectral region, and finite-index Perron data.

The characteristic object is the raw multiset of signed monomials (one per
subset-permutation pair), never merged per degree: the limit sum cancels
by exact magnitude across the whole multiset, and premature merging would
corrupt those counts. Listing it takes sum_k k! C(n, k) monomials, so
:func:`char_monomials` is capped.

Evaluation nets signs within each (degree, |coeff|) class first. Two
monomials of equal degree and equal absolute coefficient but opposite sign
contribute exactly cancelling odd powers at every finite index and every
argument, so the reduction preserves every evaluation mode while removing
spurious ties that a plain envelope of the raw multiset would see. Every
mode reads these per-degree net maps directly: the value of a class at
lam is one magnitude with a net count, never |net| listed copies.

The subset DP of :mod:`boxalg.linalg`, run on a_ij - lam delta_ij in
O(2^n n) steps, yields the same per-degree net maps without listing the
monomials. :func:`eigen_region` reads the dominant surviving class per
degree from it, and the oracle's charpoly sweep the whole maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
from .signedlog import SignedLog, _phi_p_net, net_by_magnitude, odd_exponent

DEFAULT_CHAR_CAP = 7
DEFAULT_TIE_TOL = 1e-9


class Monomial(NamedTuple):
    coeff: Fraction
    degree: int


def expected_monomial_count(n: int) -> int:
    """Sum over k of k! * C(n, k), counting the degree-n term once (k=0)."""
    return sum(
        math.factorial(k) * math.comb(n, k) for k in range(n + 1)
    )


@dataclass(frozen=True)
class MonomialList:
    monomials: tuple[Monomial, ...]
    size: int

    def __post_init__(self):
        want = expected_monomial_count(self.size)
        if len(self.monomials) != want:
            raise DomainError(
                f"monomial multiset for size {self.size} must have {want} "
                f"entries, got {len(self.monomials)}"
            )
        for m in self.monomials:
            if not 0 <= m.degree <= self.size:
                raise DomainError(f"degree {m.degree} outside 0..{self.size}")

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)


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


def char_monomials(A, cap: int = DEFAULT_CHAR_CAP) -> MonomialList:
    """One signed monomial per (subset H, permutation of H) pair.

    The monomial for (H, sigma) has coefficient (-1)^(n-k) sgn(sigma)
    times the product of a[i, sigma(i)] over H (k = |H|) and degree n-k;
    the empty subset contributes ((-1)^n, n).
    """
    M = _check_char(A, cap)
    n = M.rows
    rows = M.to_rows()
    out = [Monomial(Fraction(-1 if n % 2 else 1), n)]
    for k in range(1, n + 1):
        outer = Fraction(-1 if (n - k) % 2 else 1)
        for H in combinations(range(n), k):
            for perm, sign in signed_permutations(k):
                prod = outer * sign
                for pos, target in enumerate(perm):
                    prod *= rows[H[pos]][H[target]]
                out.append(Monomial(prod, n - k))
    return MonomialList(tuple(out), n)


def _net_classes(m) -> dict[int, dict[Fraction, int]]:
    """Per degree, the net map {|coeff|: net signed count} of the monomials."""
    by_degree: dict[int, list[Fraction]] = {}
    for coeff, degree in m:
        by_degree.setdefault(int(degree), []).append(as_scalar(coeff))
    return {d: net_by_magnitude(cs) for d, cs in by_degree.items()}


def reduced_monomials(m) -> tuple[Monomial, ...]:
    """Net signs within each (degree, |coeff|) class; drop zero coefficients.

    The surviving class keeps |net| copies of its dominant sign, so the
    reduced multiset evaluates identically to the raw one at every finite
    index, while its envelopes are free of exactly-cancelling ties.
    """
    out = []
    classes = _net_classes(m)
    for degree in sorted(classes):
        for mag, net in sorted(classes[degree].items()):
            if net:
                coeff = mag if net > 0 else -mag
                out.extend([Monomial(coeff, degree)] * abs(net))
    return tuple(out)


def _values_at(classes, lam: Fraction) -> tuple[list[Fraction], list[int]]:
    """The value |coeff| * lam^degree of every surviving class, and its net
    count."""
    values, counts = [], []
    for degree, net in classes.items():
        power = lam ** degree
        for mag, c in net.items():
            if c:
                values.append(mag * power)
                counts.append(c)
    return values, counts


def _eval_classes(classes, lam: Fraction, mode: str, p: Optional[int] = None):
    """:func:`charpoly_eval` on per-degree net maps."""
    values, counts = _values_at(classes, lam)
    if mode in (LOWER, UPPER):
        return smile([v if c > 0 else -v for v, c in zip(values, counts)], mode)
    net = net_by_magnitude(values, counts)
    return _net_limit(net) if mode == "limit" else _phi_p_net(net, p)


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
    return _eval_classes(_net_classes(m), lam, mode, p)


# --- spectral region ---------------------------------------------------------


def _nth_root_exact(q: Fraction, e: int) -> Optional[Fraction]:
    """q^(1/e) when rational, else None (q in lowest terms, q > 0)."""
    def iroot(k: int) -> Optional[int]:
        if k == 0:
            return 0
        r = round(k ** (1.0 / e))
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** e == k:
                return cand
        return None

    rn = iroot(q.numerator)
    rd = iroot(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _member_at_radius(dom: dict[int, tuple[Fraction, int]], halfline: int,
                      q: Fraction, e: int) -> bool:
    """Exact membership at lam = halfline * q^(1/e).

    Magnitudes |c_d| r^d are compared through their e-th powers, which are
    rational, so no floating point enters the verdict.
    """
    keys = {d: mag ** e * q ** d for d, (mag, _s) in dom.items()}
    top = max(keys.values())
    signs = {
        sign * (1 if halfline > 0 or d % 2 == 0 else -1)
        for d, (mag, sign) in dom.items()
        if keys[d] == top
    }
    return len(signs) == 2


def _member_at_float(dom: dict[int, tuple[Fraction, int]], lam: float,
                     tie_tol: float) -> bool:
    """Float membership with a relative magnitude-tie tolerance."""
    mags = {d: float(mag) * abs(lam) ** d for d, (mag, _s) in dom.items()}
    top = max(mags.values())
    if top == 0.0:
        return True
    signs = {
        sign * (1 if lam > 0 or d % 2 == 0 else -1)
        for d, (mag, sign) in dom.items()
        if mags[d] >= top * (1.0 - tie_tol)
    }
    return len(signs) == 2


def eigen_region(A, *, cap: int = DEFAULT_CHAR_CAP,
                 tie_tol: float = DEFAULT_TIE_TOL) -> list:
    """All lam with lower eval <= 0 <= upper eval, smallest first.

    Candidates are lam = 0 plus every cross-degree magnitude-tie radius on
    both half-lines; each is validated exactly through e-th powers of the
    tie equation, so irrational radii are decided without float error.
    Rational members come back as Fractions, irrational ones as floats.
    As a guard against region intervals, midpoints between consecutive
    candidate radii are also sampled (with the tie tolerance) and included
    if they pass, which the reduction argument rules out.
    """
    # per degree, the largest surviving |coeff| class and its sign (the
    # others never reach the magnitude envelope)
    dom = _dominant_terms(_check_char(A, cap), lam=True)

    members: list = []
    if 0 not in dom:
        members.append(Fraction(0))

    degrees = sorted(dom)
    accepted: list[tuple[int, Fraction, int]] = []
    radii: dict[int, list[float]] = {1: [], -1: []}
    for d2, d1 in combinations(degrees, 2):  # d1 > d2
        (mag1, s1), (mag2, s2) = dom[d1], dom[d2]
        q = mag2 / mag1
        e = d1 - d2
        for halfline in (1, -1):
            es1 = s1 * (1 if halfline > 0 or d1 % 2 == 0 else -1)
            es2 = s2 * (1 if halfline > 0 or d2 % 2 == 0 else -1)
            if es1 == es2:
                continue
            radii[halfline].append(float(q) ** (1.0 / e))
            if not _member_at_radius(dom, halfline, q, e):
                continue
            if any(
                h == halfline and q ** ee == qq ** e
                for h, qq, ee in accepted
            ):
                continue
            accepted.append((halfline, q, e))
            root = _nth_root_exact(q, e)
            if root is not None:
                members.append(halfline * root)
            else:
                logr = (math.log(q.numerator) - math.log(q.denominator)) / e
                members.append(halfline * math.exp(logr))

    for halfline, rs in radii.items():
        rs = sorted(set(rs))
        for lo, hi in zip(rs, rs[1:]):
            mid = halfline * (lo + hi) / 2.0
            if _member_at_float(dom, mid, tie_tol):
                members.append(mid)

    return sorted(members, key=float)


# --- finite-index Perron data ------------------------------------------------


def perron_p(A, p: int, tol: float = 1e-12,
             max_iter: int = 1000) -> tuple[SignedLog, tuple[SignedLog, ...]]:
    """Dominant eigenpair of the odd-power image of a positive matrix.

    Power iteration runs in log space on the entrywise (2p+1)-th powers,
    starting from the all-ones vector with sup-norm normalization. The
    returned value is the (2p+1)-th root of the dominant eigenvalue; the
    vector is the eigenvector of the powered matrix, sup-norm 1.
    """
    M = as_matrix(A)
    if not M.is_square:
        raise DomainError(f"square matrix required, got {M.rows}x{M.cols}")
    n = M.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if M.entry(i, j) <= 0:
                raise DomainError(f"matrix entry ({i},{j}) must be positive")
    q = odd_exponent(p)
    logA = [
        [q * (math.log(M.entry(i, j).numerator) - math.log(M.entry(i, j).denominator))
         for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    v = [0.0] * n
    rho_log = None
    for _ in range(max_iter):
        w = []
        for i in range(n):
            terms = [logA[i][j] + v[j] for j in range(n)]
            m = max(terms)
            w.append(m + math.log(math.fsum(math.exp(t - m) for t in terms)))
        top = max(w)
        new_v = [wi - top for wi in w]
        drift = max(abs(a - b) for a, b in zip(new_v, v))
        settled = rho_log is not None and abs(top - rho_log) <= tol and drift <= tol
        v, rho_log = new_v, top
        if settled:
            rho = SignedLog(1, rho_log / q)
            vec = tuple(SignedLog(1, vi) for vi in v)
            return rho, vec
    raise ConvergenceError(
        f"power iteration did not settle within {max_iter} iterations"
    )


def boxtimes_eig_check(A, lam, v: Sequence) -> bool:
    """True when the limit matrix product reproduces lam * v exactly."""
    M = as_matrix(A)
    lam = as_scalar(lam)
    vec = tuple(as_scalar(x) for x in v)
    if not vec or all(x == 0 for x in vec):
        raise DomainError("eigenvector must be nonzero")
    image = matvec_limit(M, vec, "exact")
    return all(img == lam * x for img, x in zip(image, vec))
