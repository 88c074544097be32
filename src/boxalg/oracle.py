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
every finite-index value from maps built once. The maps of ``cramer`` and
``hyperplane`` come from one DP on [A | b], with (V^T, ones) for the
hyperplane's, whose residual is exact: the determinant of the entrywise
q-th power is the map's power sum. :mod:`boxalg.signedlog` owns that sum
and the bit budget under which the other values settle ties exactly.
``perron`` shares its Perron path with the CLI's ``eigen`` kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import _net_limit, _scalars, as_float, as_scalar, as_vector
from .eigen import (
    DEFAULT_CHAR_CAP,
    _check_char,
    _radii,
    _values_at,
    eigen_region,
    perron_p,
)
from .errors import BoxAlgError, ConvergenceError, DomainError
from .linalg import (DEFAULT_DET_CAP, BoxMatrix, _check_square, _cramer_nets,
                     _det_net, _ring_terms, as_matrix)
from .signedlog import (
    SignedLog,
    _net_logs,
    _phi_p_net,
    _power_sum,
    net_by_magnitude,
    odd_exponent,
)
from .solve import LimitSystem

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
    The values are read as a ``sum`` sweep reads its vector.
    """
    net = net_by_magnitude(_scalars(values))
    return _near_tie(net, _net_logs(net), p_max, tol)


def _near_tie(nets: tuple, groups: list, p_max: int, tol: float) -> bool:
    """:func:`predict_near_tie` on a net map ({m: net count}, S) and its
    :func:`~boxalg.signedlog._net_logs` groups."""
    net, _scale = nets
    ranked = sorted(zip((m for m, c in net.items() if c), groups),
                    reverse=True)
    if not ranked:
        return False
    q = odd_exponent(p_max)
    (_m1, (lm1, n1)), rest = ranked[0], ranked[1:]
    pred = abs(math.expm1(math.log(abs(n1)) / q))
    for _m, (logmag, c) in rest:
        pred += math.exp(math.log(abs(c)) + q * (logmag - lm1))
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


def _check_sweep(p_max: int, tol: float) -> None:
    """The guard on a sweep's p_max and tol."""
    if not isinstance(p_max, int) or isinstance(p_max, bool) or p_max < 0:
        raise DomainError(f"p_max must be a nonnegative integer, got {p_max!r}")
    if p_max > HARD_P_MAX:
        raise DomainError(f"p_max {p_max} exceeds the guard {HARD_P_MAX}")
    if tol is None or not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")


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
    ``cap`` overrides both size caps, as ``BOXALG_CAP`` does in the CLI.
    """
    _check_sweep(p_max, tol)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}; pick from {QUANTITIES}")
    det_cap, char_cap = ((DEFAULT_DET_CAP, DEFAULT_CHAR_CAP) if cap is None
                         else (cap, cap))
    ps = tuple(range(p_max + 1))
    near_tie = False

    if quantity == "hyperplane":
        pts = [_scalars(pt) for pt in inputs["points"]]
        x = as_vector(inputs["x"])
        V = BoxMatrix.from_columns(pts)
        n = V.rows
        if len(x) != n:
            raise DomainError(f"x has length {len(x)}, expected {n}")
        limit = Fraction(0)
        _check_square(V, "determinant")
        net, *row_nets = _cramer_nets(pts, (1,) * n, det_cap)  # V^T
        size = _net_limit(net)
        # the residual either vanishes exactly or diverges: never near-tie
        values = []
        for p in ps:
            q = odd_exponent(p)
            total = -_power_sum(net, q) + sum(
                (_power_sum(ni, q) * xi ** q for ni, xi in zip(row_nets, x)),
                Fraction(0))
            values.append(SignedLog.from_rational(total).root(q))

    elif quantity == "perron":
        A = as_matrix(inputs["A"])
        region = eigen_region(A, cap=char_cap)
        if not region:
            raise DomainError("empty spectral region; no limit value")
        values, limit, size = _perron(A, region, ps, char_cap)

    else:  # sum, det, charpoly and cramer: one pipeline over net maps
        if quantity == "sum":
            nets = [net_by_magnitude(_scalars(inputs["xs"]))]
        elif quantity == "det":
            nets = [_det_net(as_matrix(inputs["A"]), det_cap)]
        elif quantity == "charpoly":
            A, lam = as_matrix(inputs["A"]), as_scalar(inputs["lam"])
            at = _values_at(*_ring_terms(_check_char(A, char_cap), lam=True),
                            lam)
            nets = [(at.net, at.den)]
        else:  # det A, then each det A_i(b)
            system = LimitSystem(as_matrix(inputs["A"]), as_vector(inputs["b"]))
            nets = _cramer_nets(system.A, system.b, det_cap)
        limit, *dets = [_net_limit(net) for net in nets]
        size = limit
        if quantity == "cramer":
            if limit == 0:
                raise DomainError("limit determinant is zero; no limit solution")
            limit = tuple(d / limit for d in dets)
            size = max(limit, key=abs)
        groups = [_net_logs(net) for net in nets]
        near_tie = any(_near_tie(net, g, p_max, tol)
                       for net, g in zip(nets, groups))
        values, *nums = [_phi_p_net(net, ps, g) for net, g in zip(nets, groups)]
        if nums:  # cramer: x_i at each p, None where det A_p is 0
            values = [None if d.is_zero else tuple(v[i] / d for v in nums)
                      for i, d in enumerate(values)]

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
