"""Scalar algebra of the limit operations.

The central operation is the dominant-magnitude sum ``boxplus``: among the
operands, equal magnitudes of opposite sign cancel exactly, and the largest
surviving magnitude wins. It is idempotent and symmetric but *not*
associative, which is why the n-ary form works on the whole vector at once
(via the net occurrence count ``xi``) instead of folding the binary form.

Two associative envelopes bracket it: the lower and upper semicontinuous
operators (``smile``), where an opposite-sign tie at the top magnitude
resolves to the negative respectively positive extreme instead of
cancelling. Everything is computed over exact rationals; finite-index
power sums live in :mod:`boxalg.signedlog`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .signedlog import SignedLog, _over_lcm, net_by_magnitude, phi_p_sum

Scalar = Fraction

LOWER = "lower"
UPPER = "upper"

RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def as_scalar(value) -> Fraction:
    """Coerce a scalar exactly, to a Fraction.

    Fractions pass and ints become Fractions (:func:`_scalars` is where
    ints pass unwrapped); strings must read ``-?digits(/digits)?``; finite
    floats convert through their decimal repr, so 0.1 reads as 1/10.
    Bools, other strings, non-finite floats, zero denominators and strings
    past Python's integer digit limit raise :class:`DomainError`.
    """
    if isinstance(value, bool):
        raise DomainError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        if not RATIONAL_RE.match(value):
            raise DomainError(f"not a rational string: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator: {value!r}") from None
        except ValueError as exc:  # past Python's int-string digit limit
            raise DomainError(f"cannot read a rational string: {exc}") from None
    raise DomainError(f"not a scalar: {value!r}")


def as_float(x) -> float:
    """x as a float; rationals past the float range clamp to +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _scalars(values: Iterable) -> list:
    """A nonempty vector checked by :func:`as_scalar` in reading order,
    but with its ints passed unwrapped, for the integer readers."""
    vec = list(values)
    if set(map(type, vec)) != {int}:
        vec = [v if type(v) is int else as_scalar(v) for v in vec]
    if not vec:
        raise DomainError("vector must be nonempty")
    return vec


def as_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(as_scalar, _scalars(values)))


def _resolve_index_set(n: int, indices) -> tuple[int, ...]:
    """Normalize a 1-based index set; None means all of 1..n."""
    if indices is None:
        return tuple(range(1, n + 1))
    idx = tuple(sorted(indices))
    seen = set()
    for i in idx:
        if not isinstance(i, int) or i < 1 or i > n:
            raise DomainError(f"index {i!r} out of range 1..{n}")
        if i in seen:
            raise DomainError(f"duplicate index {i}")
        seen.add(i)
    return idx


def xi(xs: Sequence, I, alpha) -> int:
    """Net occurrence count of alpha versus -alpha within positions I."""
    vec = as_vector(xs)
    idx = _resolve_index_set(len(vec), I)
    a = as_scalar(alpha)
    count = 0
    for i in idx:
        if vec[i - 1] == a:
            count += 1
        if vec[i - 1] == -a:
            count -= 1
    return count


def residual_set(xs: Sequence, I=None) -> tuple[int, ...]:
    """Positions whose value survives symmetric cancellation (1-based).

    A position j stays iff the net count of its own value is nonzero; zero
    entries never survive (their net count is identically zero).
    """
    vec = as_vector(xs)
    idx = _resolve_index_set(len(vec), I)
    ints, _scale = _over_lcm(vec[i - 1] for i in idx)
    net, _one = net_by_magnitude(ints)
    return tuple(i for i, m in zip(idx, ints) if net.get(abs(m), 0) * m > 0)


def nary_boxplus(xs: Sequence, I=None) -> Fraction:
    """Dominant surviving magnitude with its net sign; 0 when all balance."""
    if I is None and not xs:
        return Fraction(0)
    vec = as_vector(xs)
    idx = _resolve_index_set(len(vec), I)
    return _net_limit(net_by_magnitude(vec[i - 1] for i in idx))


def _net_limit(nets: tuple[dict[int, int], int]) -> Fraction:
    """The dominant-magnitude sum of a net map ({m: net count}, S): the
    largest surviving magnitude with its count's sign; 0 when all cancel."""
    net, scale = nets
    best = max((m for m, c in net.items() if c), default=0)
    return Fraction(best if net.get(best, 0) >= 0 else -best, scale)


def boxplus(x, y) -> Fraction:
    """Binary dominant-magnitude sum, :func:`nary_boxplus` of the pair: an
    exact tie nets, to x for (x, x) and to their average 0 for (x, -x)."""
    return nary_boxplus((x, y))


def boxminus(x, y) -> Fraction:
    """boxplus(x, -y)."""
    return boxplus(as_scalar(x), -as_scalar(y))


def _envelopes(xs: Iterable) -> tuple:
    """(lower, upper) envelopes of exact numbers, mostly integers over one
    denominator. With M the largest magnitude present, a tie of +M and -M
    gives -M lower and +M upper; otherwise both are the one extreme of
    magnitude M, and both are 0 for no or only zero inputs."""
    vec = list(xs)
    lo, hi = min(vec, default=0), max(vec, default=0)
    return (lo, lo) if -lo > hi else (hi, hi) if hi > -lo else (lo, hi)


def _envelope(ints: Iterable[int], mode: str) -> int:
    """The ``mode`` component of :func:`_envelopes`."""
    if mode not in (LOWER, UPPER):
        raise DomainError(f"mode must be 'lower' or 'upper', got {mode!r}")
    return _envelopes(ints)[mode == UPPER]


def smile(xs: Iterable, mode: str) -> Fraction:
    """Semicontinuous envelope of the dominant-magnitude sum, read on xs
    over their least common denominator. Associative, so the n-ary value
    equals any fold of the binary operation."""
    ints, scale = _over_lcm([as_scalar(v) for v in xs])
    return Fraction(_envelope(ints, mode), scale)


def inner(x: Sequence, y: Sequence, flavor: str = "limit", p: int | None = None):
    """Componentwise products aggregated per flavor.

    flavor 'limit' -> nary_boxplus of the products (Fraction);
    'lower'/'upper' -> smile of the products (Fraction);
    'p' -> finite-index power sum of the products (SignedLog), p required.
    """
    vx, vy = as_vector(x), as_vector(y)
    if len(vx) != len(vy):
        raise DomainError(f"length mismatch: {len(vx)} vs {len(vy)}")
    products = tuple(a * b for a, b in zip(vx, vy))
    if flavor == "limit":
        return nary_boxplus(products)
    if flavor in (LOWER, UPPER):
        return smile(products, flavor)
    if flavor == "p":
        if p is None:
            raise DomainError("flavor 'p' requires the index p")
        return phi_p_sum([SignedLog.from_rational(t) for t in products], p)
    raise DomainError(f"unknown flavor {flavor!r}")
