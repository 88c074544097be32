"""Hyperplanes through n points under the limit algebra.

The points sit as the columns of a square matrix V. Coefficient i of the
hyperplane is the limit determinant of V with row i overwritten by ones,
the right-hand side is the limit determinant of V itself: as V^T with
column i replaced by ones, all n + 1 come from one DP on [V^T | ones].
Membership is the usual sandwich: the lower envelope of the products
must not exceed the right-hand side, the upper envelope must reach it,
compared as integer cross products over one denominator.
"""

from __future__ import annotations

from typing import Sequence

from .core import (_array, _envelopes, _over_lcm, _point, _scalars,
                   as_scalar, as_vector)
from .errors import DegenerateConfigurationError, DomainError
from .linalg import DEFAULT_DET_CAP, BoxMatrix, _cramer_dets


class LimitHyperplane:
    """Sandwich-defined hyperplane: lower(coeffs*x) <= rhs <= upper(coeffs*x)."""

    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Sequence, rhs):
        self._set(as_vector(coeffs), as_scalar(rhs))

    def _set(self, coeffs: tuple, rhs) -> "LimitHyperplane":
        """Hold read coefficients and rhs, once they define a hyperplane."""
        if rhs == 0:
            raise DomainError("hyperplane right-hand side must be nonzero")
        if all(c == 0 for c in coeffs):
            raise DomainError("hyperplane coefficients must not all vanish")
        self.coeffs, self.rhs = coeffs, rhs
        return self

    def __repr__(self) -> str:
        terms = " , ".join(str(c) for c in self.coeffs)
        return f"LimitHyperplane(({terms}) ; {self.rhs})"


def _points(points) -> list:
    """The one reader of a point set: each point read once, as a vector."""
    return [_scalars(pt) for pt in _array(points, "points")]


def hyperplane_through(points: Sequence[Sequence],
                       cap: int = DEFAULT_DET_CAP) -> LimitHyperplane:
    """Hyperplane through n points of length n (points become columns),
    each point read once: V^T holds them as its rows."""
    pts = _points(points)
    n = len(pts)
    if n == 0 or any(len(p) != n for p in pts):
        raise DomainError(f"need n points of length n, got lengths "
                          f"{[len(p) for p in pts]}")
    rhs, *coeffs = _cramer_dets(BoxMatrix._transposed(pts), (1,) * n, cap)
    if rhs == 0:
        raise DegenerateConfigurationError(
            "the points are degenerate: the limit determinant vanishes"
        )
    return LimitHyperplane.__new__(LimitHyperplane)._set(tuple(coeffs), rhs)


def hyperplane_contains(H: LimitHyperplane, x: Sequence) -> bool:
    """The sandwich at x: the envelopes of the integers K_j X_j, with the
    coefficients K_j over S and x over L, hold rhs S L between them."""
    (xs, lcm), (ks, s) = _point(x, len(H.coeffs), "point"), _over_lcm(H.coeffs)
    t = H.rhs.denominator
    lo, hi = _envelopes(k * v for k, v in zip(ks, xs))
    return lo * t <= H.rhs.numerator * s * lcm <= hi * t
