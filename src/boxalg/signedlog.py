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

This module owns the exact odd-power rules: :func:`_power_sum` is the one
exact power sum of a net map, and ``EXACT_BITS`` the one budget, in bits,
of the powers the package forms exactly (here, to settle a tie of the
two parts of a power sum; in :mod:`boxalg.solve`, to decide dominance).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError

#: relative tolerance for magnitude ties between float-born values
#: (applied to the difference of logmags, scaled by max(1, |logmag|))
DEFAULT_TIE_TOL = 1e-12

#: the largest power, in bits, that the exact odd-power rules form
EXACT_BITS = 1 << 16


def _log_abs_fraction(r: Fraction) -> float:
    # math.log accepts arbitrary-precision ints, so huge rationals are fine
    return math.log(abs(r.numerator)) - math.log(r.denominator)


def _log_over(m: int, scale: int) -> float:
    """log(m / scale) for integers m, scale > 0, read from the reduced
    fraction, so one magnitude has one log whatever its scale."""
    if scale == 1:
        return math.log(m)
    g = math.gcd(m, scale)
    return math.log(m // g) - math.log(scale // g)


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
        return cls(sign, _log_abs_fraction(r), r)

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


def _net_logs(nets: tuple[dict[int, int], int]) -> list[tuple[float, int]]:
    """The groups (log(m/S), net count c) of a net map ({m: c}, S), one
    per live magnitude m, in the map's order."""
    net, scale = nets
    return [(_log_over(m, scale), c) for m, c in net.items() if c]


def _power_sum(nets: tuple[dict[int, int], int], q: int) -> Fraction:
    """Sum of c * (m/S)^q over a net map ({m: c}, S), exactly: for the map
    of a matrix's products, the determinant of its entrywise q-th power."""
    net, scale = nets
    return Fraction(sum(c * m ** q for m, c in net.items() if c), scale ** q)


def _power_means(groups, qs: Sequence[int], exact=None) -> list:
    """(sum of c * exp(logmag)^q)^(1/q) at each q in ``qs`` over (logmag,
    net count c != 0) groups, whose log|c|, signs and top are read once.

    Positive and negative groups enter a split log-sum-exp, and the two
    parts are combined by signed subtraction in log domain. When q times
    the top logmag leaves the float range, only the top group is left.
    Parts that tie within rounding ask ``exact(q)``, the exact sum or
    None: a zero sum gives 0, and parts with equal logs, whose difference
    would be log1p(-1), read the root of the sum (0 when it is None).
    """
    top, top_c = max(groups, default=(-math.inf, 0))
    pos = [(math.log(c), logmag) for logmag, c in groups if c > 0]
    neg = [(math.log(-c), logmag) for logmag, c in groups if c < 0]

    def at(q: int) -> SignedLog:
        if top_c and (q > sys.float_info.max or math.isinf(q * top)):
            return SignedLog(1 if top_c > 0 else -1, top)
        lp = _lse([lc + q * logmag for lc, logmag in pos])
        ln = _lse([lc + q * logmag for lc, logmag in neg])
        s = exact(q) if exact and _tie(lp, ln) else None
        if s == 0 or (lp == ln and s is None):
            return SignedLog.zero()
        if lp == ln:
            return SignedLog.from_rational(s).root(q)
        hi, lo = max(lp, ln), min(lp, ln)
        total = hi + math.log1p(-math.exp(lo - hi))  # exactly hi if lo = -inf
        return SignedLog(1 if lp > ln else -1, total / q)
    return [at(q) for q in qs]


def _phi_p_net(nets: tuple[dict[int, int], int], ps: Sequence[int],
               groups: list | None = None) -> list[SignedLog]:
    """phi_p of a net map ({m: net count}, S) at each p in ``ps``, given
    its :func:`_net_logs` groups or reading them.

    A single surviving magnitude with net +-1 is its own exact root; every
    other map goes through :func:`_power_means`, and :func:`_power_sum`
    (each m^q up to ``EXACT_BITS``) settles a tie of its two parts.
    """
    qs = [odd_exponent(p) for p in ps]
    net, scale = nets
    groups = _net_logs(nets) if groups is None else groups
    if len(groups) == 1 and abs(groups[0][1]) == 1:
        m, c = next((m, c) for m, c in net.items() if c)
        return [SignedLog(c, groups[0][0], Fraction(c * m, scale)) for _ in qs]

    def exact(q: int) -> Fraction | None:
        if q * max(m for m, c in net.items() if c).bit_length() > EXACT_BITS:
            return None
        return _power_sum(nets, q)
    return _power_means(groups, qs, exact)


def phi_p_sum(xs: Iterable[SignedLog], p: int) -> SignedLog:
    """The odd-power mean sum (sum x_i^(2p+1))^(1/(2p+1)) of SignedLogs.

    Equal magnitudes are netted before exponentiation: x^(2p+1) + (-x)^(2p+1)
    is identically zero for every p, so a fully balanced input returns the
    exact zero element regardless of p. Netting is exact when every input
    carries an exact value, otherwise by logmag within ``DEFAULT_TIE_TOL``.
    """
    q = odd_exponent(p)
    live = [v for v in xs if v.sign != 0]
    if all(v.exact is not None for v in live):
        return _phi_p_net(net_by_magnitude(v.exact for v in live), (p,))[0]
    # float path: cluster sorted logmags
    live.sort(key=lambda v: v.logmag)
    clusters = [(live[0].logmag, live[0].sign)]
    for v in live[1:]:
        cur_log, cur_net = clusters[-1]
        if _tie(v.logmag, cur_log):
            clusters[-1] = (cur_log, cur_net + v.sign)
        else:
            clusters.append((v.logmag, v.sign))
    return _power_means([(logmag, c) for logmag, c in clusters if c], (q,))[0]


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
