"""Finite-index convergence harness.

Every limit operation in this package is the p -> infinity limit of an
odd-power computation. The sweep evaluates a chosen quantity at each
p in {0, ..., p_max}, compares against the limit-module value, and
reports the gap sequence. Convergence speed depends entirely on the
input's magnitude profile: a repeated dominant magnitude approaches its
limit only like |count|^(1/(2p+1)), so the report carries a near-tie
flag predicting, from the exact magnitude groups, whether the final gap
can be expected to beat the tolerance at all.

Each quantity depends on its input only through integer net maps ({m:
net signed count}, S), m/S the magnitude: of the vector for ``sum``, of
the permutation products (from the subset DP of :mod:`boxalg.linalg`)
for the determinant-shaped quantities, of the characteristic monomial
values at lam for ``charpoly``. ``sum``, ``det``, ``charpoly`` and
``cramer`` share one pipeline that reads the limit, the near-tie flag and
every finite-index value from maps built once; the maps of ``cramer``
come from one run on [A | b]. The values are the ``signedlog._root`` of
the integer power sums, and the near-tie verdict is final once its
running prediction reaches tol. :func:`sweep` coerces each input it
reads, unless the CLI's ``oracle`` kind hands it the fields it has
already parsed (:class:`_Parsed`), so each is read once. With P the
points as rows, the ``hyperplane`` residual at p is -det of the bordered
[[P | 1], [x | 1]] raised entrywise to q = 2p + 1, read by
``linalg._powered_dets`` as ``det_p`` is; its size is det_inf of P.
``perron`` shares its Perron path with the CLI's ``eigen`` kind, and
this module owns two rules for both: the ``tol`` check and the cap
override's resolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import _net_limit, _scalars, as_float, as_scalar, as_vector
from .eigen import (
    DEFAULT_CHAR_CAP,
    _CHAR,
    _net_at,
    _radii,
    eigen_region,
    perron_p,
)
from .errors import BoxAlgError, ConvergenceError, DomainError
from .linalg import (DEFAULT_DET_CAP, BoxMatrix, _cramer_nets,
                     _checked, _det_net, _powered_dets, _ring_terms,
                     as_matrix, det_inf)
from .signedlog import (
    SignedLog,
    _log_ratio,
    _over_lcm,
    _phi_p_net,
    net_by_magnitude,
    odd_exponent,
)
from .solve import _square_system

DEFAULT_P_MAX = 20
DEFAULT_TOL = 1e-6
HARD_P_MAX = 64

QUANTITIES = ("sum", "det", "cramer", "hyperplane", "charpoly", "perron")


@dataclass(frozen=True)
class SweepReport:
    quantity: str
    p_values: tuple[int, ...]
    values: tuple            # per-p SignedLog, tuple of SignedLog, or None
    limit: object            # Fraction, tuple of Fraction, or float
    abs_gaps: tuple[float, ...]
    rel_gaps: tuple[float, ...]
    final_gap: float
    final_rel_gap: float
    converged: bool
    near_tie: bool

    def __post_init__(self):
        if list(self.p_values) != sorted(set(self.p_values)):
            raise DomainError("p values must be strictly increasing")


def predict_near_tie(values: Sequence[Fraction], p_max: int, tol: float) -> bool:
    """Will the relative gap at p_max plausibly still exceed tol?

    The dominant group reaches its limit like |net|^(1/(2p+1)) and every
    other group decays like (m/m1)^(2p+1); both effects are summed from
    the exact magnitude groups of the value multiset. A balanced multiset
    (no surviving group) is exactly zero at every p and never near-tie.
    The values are read as a ``sum`` sweep reads its vector, and p_max
    and tol pass the sweep's guard.
    """
    _check_sweep(p_max, tol)
    return _near_tie(net_by_magnitude(_scalars(values)), p_max, tol)


def _near_tie(nets: tuple, p_max: int, tol: float) -> bool:
    """:func:`predict_near_tie` on a net map ({m: net count}, S). The live
    magnitudes are read largest first and the prediction summed as it
    goes, each log taken only when its term is added: every term is >= 0,
    so the verdict is True as soon as the running sum reaches tol."""
    live = sorted(((m, c) for m, c in nets[0].items() if c), reverse=True)
    if not live:
        return False
    q = odd_exponent(p_max)
    (top, n1), rest = live[0], live[1:]
    pred = abs(math.expm1(math.log(abs(n1)) / q))
    for m, c in rest:
        if pred >= tol:
            return True
        pred += math.exp(math.log(abs(c)) + q * _log_ratio(m, top))
    return pred >= tol


def _gap(value, limit, size=None) -> float:
    """|value - limit|, the sup norm for vectors; inf for a missing value.
    Given ``size``, a SignedLog, both are first divided by it; an inexact
    size is the limit itself, an irrational past the float range."""
    if value is None:
        return math.inf
    if isinstance(limit, tuple):
        return max(_gap(v, t, size) for v, t in zip(value, limit))
    if size is not None:
        unit = 1.0 if size.exact is None else float(limit / size.exact)
        return abs((value / size).to_float() - unit)
    return abs(value.to_float() - as_float(limit))


def _check_tol(tol) -> None:
    """The one tol check, the library's and the CLI's: a finite real > 0."""
    if (isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction))
            or not 0 < tol < math.inf):
        raise DomainError(f"tol must be a positive real number, got {tol!r}")


def _check_sweep(p_max: int, tol: float) -> None:
    """The guard on a sweep's p_max and tol."""
    if not isinstance(p_max, int) or isinstance(p_max, bool) or p_max < 0:
        raise DomainError(f"p_max must be a nonnegative integer, got {p_max!r}")
    if p_max > HARD_P_MAX:
        raise DomainError(f"p_max {p_max} exceeds the guard {HARD_P_MAX}")
    _check_tol(tol)


def _caps(cap: int | None) -> tuple[int, int]:
    """(det_cap, char_cap): both ``cap`` when it is given, else the defaults."""
    return (DEFAULT_DET_CAP, DEFAULT_CHAR_CAP) if cap is None else (cap, cap)


def _gaps(values, limit, size) -> tuple[list[float], list[float]]:
    """Absolute and relative gaps of each value to the limit, relative to
    max(1, |size|). A size past the float range, a rational or the
    SignedLog of an irrational limit, divides in logs, and the absolute
    gaps past it read inf."""
    if not isinstance(size, SignedLog):
        scale = max(1.0, abs(as_float(size)))
        if scale < math.inf:
            abs_gaps = [_gap(v, limit) for v in values]
            return abs_gaps, [g / scale for g in abs_gaps]
        size = SignedLog.from_rational(abs(size))
    rel_gaps = [_gap(v, limit, size) for v in values]
    return [SignedLog(1, math.log(g) + size.logmag).to_float()
            if g else 0.0 for g in rel_gaps], rel_gaps


def _perron(A, region: list, ps, cap: int) -> tuple:
    """(values, limit, size) for :func:`_gaps`: the Perron run at each p in
    ``ps``, None where it does not settle (every other error gets an ``at
    p=`` prefix), against the largest region member, sized by its log when
    it is an irrational past the float range."""
    values = []
    for p in ps:
        try:
            values.append(perron_p(A, p)[0])
        except ConvergenceError:
            values.append(None)
        except BoxAlgError as exc:
            raise type(exc)(f"at p={p}: {exc}") from exc
    limit = max(region)
    if limit != math.inf:
        return values, limit, limit
    # an irrational past the float range: the largest positive radius's log
    return values, limit, SignedLog(1, max(
        log_r for halfline, _root, log_r in _radii(A, cap) if halfline > 0))


# how :func:`sweep` coerces each input field, as the sweep reads it
_COERCE = {"xs": _scalars, "b": as_vector, "x": as_vector, "A": as_matrix,
           "points": lambda pts: [_scalars(pt) for pt in pts],
           "lam": as_scalar}


class _Parsed(dict):
    """Input fields already coerced as :func:`sweep` coerces them: the
    CLI's ``oracle`` kind parses every field first, and the sweep reads
    these as they are, so none is coerced twice."""


def sweep(quantity: str, inputs: dict, p_max: int = DEFAULT_P_MAX,
          tol: float = DEFAULT_TOL, cap: int | None = None) -> SweepReport:
    """Evaluate one quantity over p in {0..p_max} against its limit value.

    Quantities and their inputs:
      sum        {"xs": vector}            limit: dominant-magnitude sum
      det        {"A": matrix}             limit: limit determinant
      cramer     {"A": matrix, "b": vec}   limit: Cramer solution vector
      hyperplane {"points": [...], "x": v} limit: 0 (equation residual)
      charpoly   {"A": matrix, "lam": s}   limit: limit evaluation
      perron     {"A": matrix}             limit: largest region member

    Scalar quantities report |value_p - limit| gaps; vector quantities use
    the sup norm. Relative gaps divide by max(1, scale of the limit); the
    hyperplane residual, whose limit is identically zero, scales by the
    magnitude of the configuration's determinant instead. A scale past
    the float range divides in logs, and absolute gaps past it read inf.
    A p whose reading declines (a tie in logs, or a Perron run that does
    not settle) has value None and gap inf; the other ps keep theirs.
    ``cap`` overrides both size caps, as ``BOXALG_CAP`` does in the CLI.
    """
    _check_sweep(p_max, tol)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}; pick from {QUANTITIES}")
    det_cap, char_cap = _caps(cap)
    field = (inputs.__getitem__ if type(inputs) is _Parsed
             else lambda key: _COERCE[key](inputs[key]))
    ps = tuple(range(p_max + 1))
    near_tie = False

    if quantity == "hyperplane":
        pts = field("points")
        x = field("x")
        # the points as rows, P = V^T, each point read once
        P = BoxMatrix._transposed(pts)
        n = P.cols
        if len(x) != n:
            raise DomainError(f"x has length {len(x)}, expected {n}")
        if not P.is_square:  # in the shape of V, the points as columns
            raise DomainError(
                f"determinant needs a square matrix, got {n}x{P.rows}")
        limit = Fraction(0)
        size = det_inf(P, det_cap)  # that of V: the same signed products
        # [[P | 1], [x | 1]] in integer rows over their scales
        xs, sx = _over_lcm(x)
        bordered = BoxMatrix._from_ints(
            [*(row + (s,) for row, s in zip(P._ints, P._scales)), (*xs, sx)],
            (*P._scales, sx))
        # the residual either vanishes exactly or diverges: never near-tie
        values = [None if v is None else -v
                  for v in _powered_dets(bordered, ps, det_cap)]

    elif quantity == "perron":
        A = field("A")
        region = eigen_region(A, cap=char_cap)
        if not region:
            raise DomainError("empty spectral region; no limit value")
        values, limit, size = _perron(A, region, ps, char_cap)

    else:  # sum, det, charpoly and cramer: one pipeline over net maps
        if quantity == "sum":
            nets = [net_by_magnitude(field("xs"))]
        elif quantity == "det":
            nets = [_det_net(field("A"), det_cap)]
        elif quantity == "charpoly":
            A, lam = field("A"), field("lam")
            A = _checked(A, char_cap, _CHAR)
            nets = [_net_at(*_ring_terms(A, lam=True), lam)]
        else:  # det A, then each det A_i(b)
            nets = _cramer_nets(*_square_system(field("A"), field("b")),
                                det_cap)
        limit, *dets = [_net_limit(net) for net in nets]
        size = limit
        if quantity == "cramer":
            if limit == 0:
                raise DomainError("limit determinant is zero; no limit solution")
            limit = tuple(d / limit for d in dets)
            size = max(limit, key=abs)
        near_tie = any(_near_tie(net, p_max, tol) for net in nets)
        values, *nums = [_phi_p_net(net, ps) for net in nets]
        if nums:  # cramer: x_i at each p, None where det A_p is 0 or unread
            values = [None if d is None or d.is_zero or None in col
                      else tuple(v / d for v in col)
                      for d, col in zip(values, zip(*nums))]

    abs_gaps, rel_gaps = _gaps(values, limit, size)
    return SweepReport(
        quantity=quantity,
        p_values=ps,
        values=tuple(values),
        limit=limit,
        abs_gaps=tuple(abs_gaps),
        rel_gaps=tuple(rel_gaps),
        final_gap=abs_gaps[-1],
        final_rel_gap=rel_gaps[-1],
        converged=rel_gaps[-1] < tol,
        near_tie=near_tie,
    )
