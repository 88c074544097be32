"""Sign-and-log-magnitude arithmetic: the stable carrier for odd-power sums.

Raising rationals to the power 2p+1 overflows any fixed-width float long
before p reaches useful values, so every finite-index computation in this
package runs on ``SignedLog`` values: a sign in {-1, 0, +1} plus the natural
log of the magnitude. The zero element is (sign 0, logmag -inf).

Exact cancellation is the whole point of the limit algebra, and float logs
destroy exact magnitude ties (two equal rational magnitudes reached through
different log additions differ in the last ulp). Values built from rationals
therefore carry their exact magnitude alongside the float log; products
propagate it, and ``phi_p_sum`` groups by the exact magnitude whenever every
input has one. Equal magnitudes of opposite sign then cancel bit-exactly at
every p. Float-born values fall back to a relative logmag tolerance.

The grouping is the integer net map ({m: net signed count}, S) of
:func:`net_by_magnitude`, m/S the magnitude; every net map in the package
takes this one form, and each log is read from the reduced fraction m/S.

This module owns the odd-power rules: :func:`_power_sums` are the exact
power sums of a net map, each an integer over S^q, :func:`_root` the one
reader of an exact power sum, from those integers, :func:`_in_budget` the
one budget (``EXACT_BITS``) of the powers the package forms exactly,
:func:`_power_means` the one reader past it, of logs relative to the top
magnitude (:func:`_top_logs`), which declines (None; DomainError for a
single value) a tie its floats cannot resolve, and :func:`_int_root`
the one exact integer root, whose residue test turns away most
non-powers before a Newton step (of :func:`_root`, and through
:func:`_nth_root_exact` of the radii of :mod:`boxalg.eigen`). Dominance
in :mod:`boxalg.solve` uses the same budget and log reader.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DomainError

#: relative tolerance for magnitude ties between float-born values
#: (applied to the difference of logmags, scaled by max(1, |logmag|))
DEFAULT_TIE_TOL = 1e-12

#: the largest power, in bits, that the exact odd-power rules form
EXACT_BITS = 1 << 16


def _log_over(m: int, scale: int) -> float:
    """log(m / scale) for integers m, scale > 0, read from the reduced
    fraction, so one magnitude has one log whatever its scale."""
    if scale == 1:
        return math.log(m)
    g = math.gcd(m, scale)
    return math.log(m // g) - math.log(scale // g)


def _iroot(k: int, e: int) -> int:
    """floor(k^(1/e)) of an integer k >= 0, by integer Newton steps from
    an overestimate read off the float log, right to about 30 bits."""
    if k < 2:
        return k
    t = math.log2(k) / e
    n = max(int(t) - 52, 0)
    r = (int(2.0 ** (t - n) * (1 + 2.0 ** -20)) + 1) << n
    while True:
        s = ((e - 1) * r + k // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=256)
def _residue_primes(e: int) -> tuple[int, ...]:
    """The four smallest primes P = 1 (mod e): modulo each, the e-th
    powers prime to P are the k with k^((P - 1)/e) = 1."""
    out, P = [], e + 1
    while len(out) < 4:
        if all(P % d for d in range(2, math.isqrt(P) + 1)):
            out.append(P)
        P += e
    return tuple(out)


def _int_root(k: int, e: int) -> int | None:
    """k^(1/e) of an integer k >= 0 when it is an integer, else None. A k
    that is not an e-th power residue modulo one of
    :func:`_residue_primes` is no e-th power, so the Newton steps run
    only on the few that pass."""
    if e == 1 or k < 2:
        return k
    for P in _residue_primes(e):
        if k % P and pow(k, (P - 1) // e, P) != 1:
            return None
    r = _iroot(k, e)
    return r if r ** e == k else None


def _nth_root_exact(q: Fraction, e: int) -> Fraction | None:
    """q^(1/e) when rational, else None (q in lowest terms, q >= 0): the
    :func:`_int_root` of its denominator, then of its numerator."""
    if (rd := _int_root(q.denominator, e)) is None:
        return None
    rn = _int_root(q.numerator, e)
    return None if rn is None else Fraction(rn, rd)


def check_p(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise DomainError(f"p must be a nonnegative integer, got {p!r}")
    return p


def odd_exponent(p: int) -> int:
    """The derived odd exponent 2p+1 for a validated index p."""
    return 2 * check_p(p) + 1


class SignedLog:
    """An extended real as (sign, log of magnitude), optionally exact.

    ``exact`` is the value as a Fraction when it is known exactly (inputs
    built from rationals, and products of such inputs); None otherwise.
    """

    __slots__ = ("sign", "logmag", "exact")

    def __init__(self, sign: int, logmag: float, exact: Fraction | None = None):
        if sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {sign!r}")
        if (sign == 0) != (logmag == -math.inf):
            raise DomainError("sign 0 and logmag -inf must occur together")
        if exact is not None:
            if (exact == 0) != (sign == 0):
                raise DomainError("exact value inconsistent with sign")
            if exact != 0 and (exact > 0) != (sign > 0):
                raise DomainError("exact value inconsistent with sign")
        self.sign = sign
        self.logmag = logmag
        self.exact = exact

    @classmethod
    def zero(cls) -> "SignedLog":
        return cls(0, -math.inf, Fraction(0))

    @classmethod
    def from_rational(cls, value) -> "SignedLog":
        r = value if isinstance(value, Fraction) else Fraction(value)
        if r == 0:
            return cls.zero()
        sign = 1 if r > 0 else -1
        return cls(sign, _log_over(abs(r.numerator), r.denominator), r)

    @classmethod
    def from_float(cls, value: float) -> "SignedLog":
        if value == 0.0:
            return cls.zero()
        if math.isnan(value) or math.isinf(value):
            raise DomainError(f"cannot represent {value!r}")
        sign = 1 if value > 0 else -1
        return cls(sign, math.log(abs(value)))

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.logmag,
                         None if self.exact is None else -self.exact)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if not isinstance(other, SignedLog):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return SignedLog.zero()
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = self.exact * other.exact
        return SignedLog(self.sign * other.sign,
                         self.logmag + other.logmag, exact)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if not isinstance(other, SignedLog):
            return NotImplemented
        if other.sign == 0:
            raise DomainError("division by the zero element")
        if self.sign == 0:
            return SignedLog.zero()
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = self.exact / other.exact
        return SignedLog(self.sign * other.sign,
                         self.logmag - other.logmag, exact)

    def root(self, q: int) -> "SignedLog":
        """The q-th root for odd q (sign preserved); exactness is kept only
        for the zero element."""
        if q < 1 or q % 2 == 0:
            raise DomainError(f"odd positive root required, got {q}")
        if self.sign == 0:
            return SignedLog.zero()
        return SignedLog(self.sign, self.logmag / q)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.logmag)
        except OverflowError:
            return self.sign * math.inf

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"SignedLog({self.exact})"
        return f"SignedLog(sign={self.sign}, logmag={self.logmag:.12g})"


def _lse(logs: Sequence[float]) -> float:
    """log(sum(exp(l))) without overflow; -inf for no logs."""
    m = max(logs, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))


def _tie(lx: float, ly: float) -> bool:
    return abs(lx - ly) <= DEFAULT_TIE_TOL * max(1.0, abs(lx), abs(ly))


def _over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integers over one scale S, their least common
    denominator: each value v is the returned integer over S."""
    values = list(values)
    scale = math.lcm(*{v.denominator for v in values})
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def net_by_magnitude(values: Iterable, counts: Iterable[int] | None = None
                     ) -> tuple[dict[int, int], int]:
    """The net map ({m: (count of +m/S) - (count of -m/S)}, S) of rationals,
    S their least common denominator.

    Zeros are skipped; ``counts`` weights each value (default: equal
    values, an int and its equal Fraction too, are tallied before netting).
    Equal magnitudes of opposite sign cancel in the limit sum and at every
    finite index, so every limit and power sum reads its input through
    this map. Magnitudes whose counts cancel stay in it with net 0.
    """
    if counts is None:
        values = Counter(values)
        counts = values.values()
    ints, scale = _over_lcm(values)
    net: dict[int, int] = {}
    get = net.get
    for m, c in zip(ints, counts):
        if m > 0:
            net[m] = get(m, 0) + c
        elif m:
            net[-m] = get(-m, 0) - c
    return net, scale


def _power_sums(nets: tuple[dict[int, int], int],
                qs: Sequence[int]) -> Iterator[int]:
    """The integer T with T / S^q the sum of c * (m/S)^q over a net map
    ({m: c}, S), at each q of ``qs`` (increasing): each term steps on by
    m^(q - last q), from a factor list built only when the step changes
    (m^2 between consecutive p). For a map of a matrix's products, T / S^q
    is the determinant of its entrywise q-th power."""
    net, scale = nets
    ms = [m for m, c in net.items() if c]
    ts, last, step = [c for c in net.values() if c], 0, 0
    for q in qs:
        if q - last != step:
            step = q - last
            factors = ms if step == 1 else [m ** step for m in ms]
        ts, last = list(map(mul, ts, factors)), q
        yield sum(ts)


def _in_budget(q: int, top: int, scale: int) -> bool:
    """Whether q times the bits of max(top, scale) is within the budget."""
    return q * max(top, scale).bit_length() <= EXACT_BITS


def _root(total: int, q: int, scale: int) -> SignedLog:
    """The q-th root of an exact power sum total / scale^q: 0 exactly when
    it vanishes, the rational root r / scale when |total| = r^q, else the
    root of its log, read from integers. scale^q is a q-th power, so the
    sum has a rational q-th root exactly when |total| has an integer one
    (:func:`_int_root`)."""
    if not total:
        return SignedLog.zero()
    if (root := _int_root(abs(total), q)) is None:
        return SignedLog(1 if total > 0 else -1,
                         _log_over(abs(total), scale ** q) / q)
    return SignedLog.from_rational(
        Fraction(root if total > 0 else -root, scale))


def _top_logs(nets: tuple[dict[int, int], int]) -> tuple[int, list]:
    """(top, groups) of a net map ({m: c}, S): its largest live magnitude
    top and, largest first, each live m as (r, c) with r = log(m / top),
    read from the exact int ratio; (0, []) when every count cancels."""
    live = sorted(((m, c) for m, c in nets[0].items() if c), reverse=True)
    top = live[0][0] if live else 0
    return top, [(_log_ratio(m, top), c) for m, c in live]


def _log_ratio(m: int, top: int) -> float:
    """log(m / top) of integers 0 < m <= top, read from the float ratio
    unless it underflows to 0, then from the integers."""
    return math.log(f) if (f := m / top) else _log_over(m, top)


def _power_means(base: float, groups, qs: Sequence[int]) -> list:
    """(sum of c * exp(base + r)^q)^(1/q) at each q in ``qs`` over (r, net
    count c != 0) groups, r = log(m / top): a split log-sum-exp of the
    positive and the negative groups, subtracted in log domain. Each part
    is off by about q ulps per group, so parts within q * (groups) * 2^-44
    of each other read None (declined) rather than a guessed sign."""
    pos = [(math.log(c), r) for r, c in groups if c > 0]
    neg = [(math.log(-c), r) for r, c in groups if c < 0]

    def at(q: int) -> SignedLog | None:
        if not groups:
            return SignedLog.zero()
        qf = float(min(q, sys.float_info.max))  # q * r < 0 leaves the range
        lp = _lse([lc + qf * r for lc, r in pos])
        ln = _lse([lc + qf * r for lc, r in neg])
        if abs(lp - ln) <= len(groups) * 2.0 ** -44 * qf:
            return None
        hi, lo = max(lp, ln), min(lp, ln)
        total = hi + math.log1p(-math.exp(lo - hi))  # exactly hi if lo = -inf
        return SignedLog(1 if lp > ln else -1, base + total / qf)
    return [at(q) for q in qs]


def _decided(value: SignedLog | None, p: int) -> SignedLog:
    """A single value at p; DomainError where the log reader declined it."""
    if value is None:
        raise DomainError(f"too close to a tie to decide at p = {p}")
    return value


def _phi_p_net(nets: tuple[dict[int, int], int],
               ps: Sequence[int]) -> list[SignedLog | None]:
    """phi_p of a net map ({m: net count}, S) at each p in ``ps``, in
    increasing order: within the budget (:func:`_in_budget`), the
    :func:`_root` of the exact :func:`_power_sums`. Past it the logs go
    through :func:`_power_means` (None where it declines), except that a
    single surviving magnitude with net +-1 is its own exact root.
    """
    qs = [odd_exponent(p) for p in ps]
    net, scale = nets
    top = max((m for m, c in net.items() if c), default=0)
    inside = [q for q in qs if _in_budget(q, top, scale)]
    out = [_root(t, q, scale)
           for t, q in zip(_power_sums(nets, inside), inside)]
    if len(out) == len(qs):
        return out
    top, groups = _top_logs(nets)
    base = _log_over(top, scale) if top else 0.0
    if len(groups) == 1 and abs(groups[0][1]) == 1:
        c = groups[0][1]
        return out + [SignedLog(c, base, Fraction(c * top, scale))
                      for _ in qs[len(out):]]
    return out + _power_means(base, groups, qs[len(out):])


def phi_p_sum(xs: Iterable[SignedLog], p: int) -> SignedLog:
    """The odd-power mean sum (sum x_i^(2p+1))^(1/(2p+1)) of SignedLogs.

    Equal magnitudes are netted before exponentiation: x^(2p+1) + (-x)^(2p+1)
    is identically zero for every p, so a fully balanced input returns the
    exact zero element regardless of p. Netting is exact when every input
    carries an exact value, otherwise by logmag within ``DEFAULT_TIE_TOL``.
    A sum read in logs too close to a tie to decide raises DomainError.
    """
    q = odd_exponent(p)
    live = [v for v in xs if v.sign != 0]
    if all(v.exact is not None for v in live):
        return _decided(_phi_p_net(net_by_magnitude(v.exact for v in live),
                                   (p,))[0], p)
    clusters = []  # float path: cluster sorted logmags
    for v in sorted(live, key=lambda v: v.logmag):
        if clusters and _tie(v.logmag, clusters[-1][0]):
            clusters[-1][1] += v.sign
        else:
            clusters.append([v.logmag, v.sign])
    top = max((logmag for logmag, c in clusters if c), default=0.0)
    return _decided(_power_means(top, [(logmag - top, c) for logmag, c
                                       in clusters if c], (q,))[0], p)


def slog_boxplus(x: SignedLog, y: SignedLog) -> SignedLog:
    """Dominant-magnitude sum on SignedLogs.

    Larger magnitude wins; an equal-magnitude tie keeps the value when the
    signs agree and cancels to the zero element when they differ. Ties are
    exact when both operands carry exact magnitudes.
    """
    if x.sign == 0:
        return y
    if y.sign == 0:
        return x
    if x.exact is not None and y.exact is not None:
        tied = abs(x.exact) == abs(y.exact)
    else:
        tied = _tie(x.logmag, y.logmag)
    if tied:
        return x if x.sign == y.sign else SignedLog.zero()
    return x if x.logmag > y.logmag else y


def psi_ln(value) -> SignedLog:
    """Logarithmic embedding; the sign bit records the branch for negatives."""
    if isinstance(value, float):
        return SignedLog.from_float(value)
    return SignedLog.from_rational(value)


def slog_roundtrip(r, partner=None, *, rel_tol: float = 1e-12) -> bool:
    """Check psi_ln(r).to_float() == r, and the sum homomorphism when given
    a partner: psi_ln(boxplus(r, partner)) equals psi_ln(r) boxplus'd with
    psi_ln(partner) in log domain."""
    z = psi_ln(r)
    back = z.to_float()
    want = float(r)
    if back != want and not math.isclose(back, want, rel_tol=rel_tol):
        return False
    if partner is None:
        return True
    from .core import boxplus  # local import avoids a cycle at module load

    direct = psi_ln(boxplus(Fraction(r), Fraction(partner)))
    viaslog = slog_boxplus(psi_ln(Fraction(r)), psi_ln(Fraction(partner)))
    if direct.sign != viaslog.sign:
        return False
    if direct.sign == 0:
        return True
    return math.isclose(direct.logmag, viaslog.logmag, rel_tol=rel_tol,
                        abs_tol=rel_tol)
