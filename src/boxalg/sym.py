"""Balance-pair semiring.

A pair (plus, minus) of nonnegative rationals carries a sign class:
positive when plus dominates, negative when minus does, balanced on a
tie. Addition is componentwise max, multiplication crosses the
components like a sign rule, and the balance relation compares the
cross maxima. The associated determinant is associative, which is what
a Cramer theory would need, but it pays for that by going balanced
exactly when the dominant permutation-product magnitude is reached with
both parities, even when the limit determinant itself survives. Every
pair read, by the library or the CLI, passes one shape check, and every
pair determinant one size check, ``linalg._checked``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import _envelopes, as_scalar
from .errors import DomainError
from .linalg import DEFAULT_DET_CAP, _checked, _pair_det, as_matrix


class SPair(NamedTuple):
    plus: Fraction
    minus: Fraction

    @property
    def is_positive(self) -> bool:
        return self.minus < self.plus

    @property
    def is_negative(self) -> bool:
        return self.plus < self.minus

    @property
    def is_balanced(self) -> bool:
        return self.plus == self.minus


def s_pair(plus, minus) -> SPair:
    p, m = as_scalar(plus), as_scalar(minus)
    if p < 0 or m < 0:
        raise DomainError(f"pair components must be nonnegative, got ({p}, {m})")
    return SPair(p, m)


def _as_pair(x) -> SPair:
    """x, a list or tuple of two entries, as a checked pair: the one shape
    check of a pair, for the library and the CLI."""
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise DomainError(f"not a pair: {x!r}")
    return s_pair(*x)


def s_embed(value) -> SPair:
    """A real scalar as a pair: magnitude on the side matching its sign."""
    v = as_scalar(value)
    return SPair(v, Fraction(0)) if v >= 0 else SPair(Fraction(0), -v)


def s_add(x: SPair, y: SPair) -> SPair:
    x, y = _as_pair(x), _as_pair(y)
    return SPair(max(x.plus, y.plus), max(x.minus, y.minus))


def s_mul(t: SPair, x: SPair) -> SPair:
    t, x = _as_pair(t), _as_pair(x)
    return SPair(
        max(t.plus * x.plus, t.minus * x.minus),
        max(t.plus * x.minus, t.minus * x.plus),
    )


def balanced(x: SPair, y: SPair) -> bool:
    x, y = _as_pair(x), _as_pair(y)
    return max(x.plus, y.minus) == max(y.plus, x.minus)


S_ONE = SPair(Fraction(1), Fraction(0))
S_ZERO = SPair(Fraction(0), Fraction(0))


def s_det(rows: Sequence[Sequence[SPair]], cap: int = DEFAULT_DET_CAP) -> SPair:
    """Permutation expansion with parity as component swap.

    Even permutations contribute their product pair as is; odd ones
    contribute it with plus and minus exchanged (the semiring's negation).
    Read each pair (p, q) as the two terms +p and -q: plus and minus are
    then the largest positive and the largest negative permutation
    product, which a leading-term subset DP of :mod:`boxalg.linalg` finds
    in O(2^n n) integer steps; of an embedded real matrix they are read by
    ``linalg._det_lead``, with det_inf from the same run (the CLI's kind).
    """
    data = [tuple(map(_as_pair, r)) for r in rows]
    _checked([[x.plus for x in r] for r in data], cap, "pair determinant")
    return SPair(*_pair_det(data))


def s_embed_matrix(A) -> tuple[tuple[SPair, ...], ...]:
    """Entrywise embedding of a rational matrix into pairs."""
    M = as_matrix(A)
    return tuple(tuple(s_embed(v) for v in row) for row in M.to_rows())


def v_map(x: SPair) -> Fraction:
    """Collapse a pair to its signed representative (balanced goes to 0)."""
    x = _as_pair(x)
    if x.is_positive:
        return x.plus
    if x.is_negative:
        return -x.minus
    return Fraction(0)


def v_identity_check(xs: Iterable[SPair]) -> bool:
    """Does collapsing commute with pair addition through the envelopes?

    Compares v_map of the pair sum against the average of the upper and
    lower envelopes of the collapsed values. The identity holds whenever
    the dominant pairs are strictly signed; a dominant balanced pair can
    break it, and this check reports that honestly.
    """
    pairs = list(map(_as_pair, xs))
    if not pairs:
        return True
    total = pairs[0]
    for x in pairs[1:]:
        total = s_add(total, x)
    lower, upper = _envelopes(v_map(x) for x in pairs)
    rhs = (upper + lower) / 2
    return v_map(total) == rhs
