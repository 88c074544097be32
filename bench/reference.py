"""Reference results for the output checker, written apart from ``boxalg``.

Determinant-shaped results are recomputed from a plain
``itertools.permutations`` expansion, ``sum`` sweeps from net counts per
magnitude, ``maxsolve`` from the row maxima, and the rest from documented
invariants. Nothing here imports the program under test.

``check(kind, problem, code, out)`` returns the list of disagreements
between one CLI result and the reference; an empty list is a pass. Exact
fields must match exactly; float fields must lie within ``REL_TOL``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

#: relative tolerance for float fields (finite-index values and *_float)
REL_TOL = 1e-9

DEFAULT_P_MAX = 20
DEFAULT_TOL = 1e-6

# Exit codes the CLI contract allows, and the one meaning "no result".
ALLOWED_CODES = (0, 2, 3, 4)
NO_RESULT = 2


# --- scalar algebra ------------------------------------------------------------


def rat(x) -> str:
    return str(Fraction(x))


def nary(values) -> Fraction:
    """Dominant magnitude that survives netting of opposite signs, or 0."""
    net: dict = {}
    for v in values:
        if v:
            m = abs(v)
            net[m] = net.get(m, 0) + (1 if v > 0 else -1)
    live = [m for m, c in net.items() if c]
    if not live:
        return Fraction(0)
    top = max(live)
    return Fraction(top if net[top] > 0 else -top)


def smile(values, mode: str) -> Fraction:
    """Lower/upper envelope: the extreme magnitude, ties resolved by mode."""
    vals = list(values)
    if not vals:
        return Fraction(0)
    top = max(abs(v) for v in vals)
    if top == 0:
        return Fraction(0)
    has_pos, has_neg = top in vals, -top in vals
    if has_pos and has_neg:
        return Fraction(-top if mode == "lower" else top)
    return Fraction(top if has_pos else -top)


def boxminus(a, c) -> Fraction:
    """Binary dominant-magnitude sum of a and -c; exact ties average."""
    a, c = Fraction(a), -Fraction(c)
    if abs(a) != abs(c):
        return a if abs(a) > abs(c) else c
    return (a + c) / 2


def power_sum(values, q: int):
    """sum of v**q over the values, exactly."""
    return Fraction(sum(v ** q for v in values if v))


def root_float(s: Fraction, q: int) -> float:
    """The real q-th root (q odd) of an exact value, as a float."""
    if s == 0:
        return 0.0
    mag = (math.log(abs(s.numerator)) - math.log(s.denominator)) / q
    return math.copysign(math.exp(mag), s)


def close(got, want: float, scale: float = 0.0) -> bool:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= REL_TOL * max(abs(want), scale)


# --- permutation expansion -----------------------------------------------------


@lru_cache(maxsize=None)
def signed_perms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of 0..n-1 with its parity sign (n <= 7 is cached;
    larger matrices are expanded along their first row instead)."""
    out = []
    for perm in permutations(range(n)):
        seen, sign = [False] * n, 1
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out.append((perm, sign))
    return tuple(out)


def products(A) -> list:
    """All n! signed permutation products of the square matrix A.

    Above n = 7 the expansion runs along the first row, over the n = 7
    table for the rest, so no n! table (40320 tuples at n = 8) is held.
    """
    n = len(A)
    if n > 7:
        out = []
        for j in range(n):
            rest = [row[:j] + row[j + 1:] for row in A[1:]]
            head = -A[0][j] if j % 2 else A[0][j]
            out.extend(head * v for v in products(rest))
        return out
    out = []
    for perm, sign in signed_perms(n):
        prod = sign
        for i, j in enumerate(perm):
            prod *= A[i][j]
            if not prod:
                break
        out.append(prod)
    return out


def det_inf(A) -> Fraction:
    return nary(products(A))


def exact_det(A) -> Fraction:
    """The classical determinant, by the same expansion."""
    return sum(products(A), Fraction(0))


def with_column(A, i: int, b):
    return [row[:i] + [b[r]] + row[i + 1:] for r, row in enumerate(A)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def monomials(A) -> list[tuple[Fraction, int]]:
    """(coefficient, degree) per (subset, permutation of the subset) pair."""
    n = len(A)
    out = [(Fraction(-1 if n % 2 else 1), n)]
    for k in range(1, n + 1):
        outer = -1 if (n - k) % 2 else 1
        for H in combinations(range(n), k):
            for perm, sign in signed_perms(k):
                prod = outer * sign
                for pos, target in enumerate(perm):
                    prod *= A[H[pos]][H[target]]
                out.append((Fraction(prod), n - k))
    return out


def expected_monomial_count(n: int) -> int:
    return sum(math.factorial(k) * math.comb(n, k) for k in range(n + 1))


def reduced(monos) -> list[tuple[Fraction, int]]:
    """Net signs per (degree, |coeff|) class; keep |net| copies."""
    net: Counter = Counter()
    for c, d in monos:
        if c:
            net[(d, abs(c))] += 1 if c > 0 else -1
    out = []
    for (d, mag), k in net.items():
        out.extend([(mag if k > 0 else -mag, d)] * abs(k))
    return out


# --- per-kind checks -----------------------------------------------------------


class _Errors(list):
    def eq(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {_short(got)}, want {_short(want)}")

    def near(self, what: str, got, want: float, scale: float = 0.0) -> None:
        if not close(got, want, scale):
            self.append(f"{what}: got {got!r}, want {want!r}")


def _short(v, limit: int = 120) -> str:
    s = repr(v)
    return s if len(s) <= limit else s[:limit] + "..."


def _exact_and_float(err: _Errors, out: dict, key: str, want) -> None:
    err.eq(key, out.get(key), rat(want))
    err.near(key + "_float", out.get(key + "_float"), float(want))


def _slog(err: _Errors, what: str, got, s: Fraction, q: int,
          scale: float) -> None:
    """A serialized SignedLog against the exact power sum s (value s^(1/q))."""
    if not isinstance(got, dict):
        err.append(f"{what}: not a signed-log object: {_short(got)}")
        return
    want_sign = (s > 0) - (s < 0)
    err.eq(what + ".sign", got.get("sign"), want_sign)
    err.near(what + ".float", got.get("float"), root_float(s, q), scale)
    exact = got.get("exact")
    if exact is not None and Fraction(exact) ** q != s:
        err.append(f"{what}.exact: {exact}^{q} != power sum")


def _p_option(problem: dict):
    return problem.get("options", {}).get("p")


def _check_det(problem, code, out):
    err = _Errors()
    A = problem["A"]
    P = products(A)
    err.eq("exit", code, 0)
    _exact_and_float(err, out, "det_inf", nary(P))
    mode = problem.get("options", {}).get("mode")
    if mode in ("lower", "upper"):
        _exact_and_float(err, out, f"det_{mode}", smile(P, mode))
    p = _p_option(problem)
    if p is not None:
        q = 2 * p + 1
        err.eq("p", out.get("p"), p)
        scale = max(abs(v) for v in P) if P else 0
        _slog(err, "det_p", out.get("det_p"), power_sum(P, q), q, float(scale))
    return err


def _cramer(A, b):
    """(det_inf, solution or None) of the limit system A x = b."""
    d = det_inf(A)
    if d == 0:
        return d, None
    return d, [det_inf(with_column(A, i, b)) / d for i in range(len(A))]


def _row_bounds(A, x):
    out = []
    for row in A:
        prods = [Fraction(a) * v for a, v in zip(row, x)]
        out.append((smile(prods, "lower"), smile(prods, "upper")))
    return out


def _check_rows(err, out, bounds, oks) -> None:
    rows = out.get("rows")
    if not isinstance(rows, list) or len(rows) != len(bounds):
        err.append(f"rows: wrong shape {_short(rows)}")
        return
    for i, (row, (lo, hi), ok) in enumerate(zip(rows, bounds, oks)):
        _exact_and_float(err, row, "lower", lo)
        _exact_and_float(err, row, "upper", hi)
        err.eq(f"rows[{i}].satisfied", row.get("satisfied"), ok)
    err.eq("satisfied", out.get("satisfied"), all(oks))


def _check_solved(err, code, out, d, x) -> bool:
    """Common part of solve/twosided; False when no solution is expected."""
    if x is None:
        err.eq("exit", code, NO_RESULT)
        err.eq("det_inf", out.get("det_inf"), "0")
        return False
    err.eq("exit", code, 0)
    _exact_and_float(err, out, "det_inf", d)
    err.eq("x", out.get("x"), [rat(v) for v in x])
    xf = out.get("x_float")
    if not isinstance(xf, list) or len(xf) != len(x):
        err.append(f"x_float: wrong shape {_short(xf)}")
    else:
        for i, (g, v) in enumerate(zip(xf, x)):
            err.near(f"x_float[{i}]", g, float(v))
    return True


def _check_solve(problem, code, out):
    err = _Errors()
    A, b = problem["A"], problem["b"]
    d, x = _cramer(A, b)
    if _check_solved(err, code, out, d, x):
        bounds = _row_bounds(A, x)
        oks = [lo <= bi <= hi for (lo, hi), bi in zip(bounds, b)]
        _check_rows(err, out, bounds, oks)
        err.eq("regular", out.get("regular"), all(lo == hi for lo, hi in bounds))
    return err


def _check_twosided(problem, code, out):
    err = _Errors()
    A, C, b, d_ = problem["A"], problem["C"], problem["b"], problem["d"]
    n = len(A)
    D = [[boxminus(A[i][j], C[i][j]) for j in range(n)] for i in range(n)]
    r = [boxminus(bi, di) for bi, di in zip(b, d_)]
    d, x = _cramer(D, r)
    if _check_solved(err, code, out, d, x):
        bounds = _row_bounds(D, x)
        oks, regular = [], True
        for i in range(n):
            a_side = [Fraction(a) * v for a, v in zip(A[i], x)] + [d_[i]]
            c_side = [Fraction(c) * v for c, v in zip(C[i], x)] + [b[i]]
            a_lo, a_hi = smile(a_side, "lower"), smile(a_side, "upper")
            c_lo, c_hi = smile(c_side, "lower"), smile(c_side, "upper")
            lo, hi = bounds[i]
            oks.append(lo <= r[i] <= hi and a_lo <= c_lo and a_hi >= c_hi)
            regular = regular and a_lo == a_hi and c_lo == c_hi
        _check_rows(err, out, bounds, oks)
        err.eq("regular", out.get("regular"), regular)
    return err


def _check_hyperplane(problem, code, out):
    err = _Errors()
    V = transpose(problem["points"])  # points are the columns
    n = len(V)
    rhs = det_inf(V)
    if rhs == 0:
        err.eq("exit", code, NO_RESULT)
        return err
    err.eq("exit", code, 0)
    coeffs = [det_inf(V[:i] + [[1] * n] + V[i + 1:]) for i in range(n)]
    _exact_and_float(err, out, "rhs", rhs)
    err.eq("coeffs", out.get("coeffs"), [rat(c) for c in coeffs])
    members = []
    for q in problem.get("queries", []):
        prods = [c * v for c, v in zip(coeffs, q)]
        members.append(smile(prods, "lower") <= rhs <= smile(prods, "upper"))
    if "queries" in problem:
        err.eq("members", out.get("members"), members)
    return err


def _check_sym(problem, code, out):
    err = _Errors()
    P = products(problem["A"])
    plus = max((v for v in P if v > 0), default=0)
    minus = max((-v for v in P if v < 0), default=0)
    err.eq("exit", code, 0)
    err.eq("s_det", out.get("s_det"), [rat(plus), rat(minus)])
    err.eq("balanced_with_zero", out.get("balanced_with_zero"), plus == minus)
    _exact_and_float(err, out, "det_inf", nary(P))
    return err


def _check_charpoly(problem, code, out):
    err = _Errors()
    A = problem["A"]
    monos = monomials(A)
    err.eq("exit", code, 0)
    err.eq("count", out.get("count"), expected_monomial_count(len(A)))
    got = out.get("monomials")
    if not isinstance(got, list):
        err.append("monomials: missing")
    elif Counter((c, d) for c, d in got) != Counter((rat(c), d) for c, d in monos):
        err.append("monomials: multiset differs from the expansion")
    if "lam" in problem:
        lam = Fraction(problem["lam"])
        vals = [c * lam ** d for c, d in monos]
        red = [c * lam ** d for c, d in reduced(monos)]
        _exact_and_float(err, out, "eval_limit", nary(vals))
        _exact_and_float(err, out, "eval_lower", smile(red, "lower"))
        _exact_and_float(err, out, "eval_upper", smile(red, "upper"))
    return err


def _is_member(red, lam) -> bool:
    """Both signs reach the top magnitude of c * lam^d (lower <= 0 <= upper).

    Rational lam is decided exactly; a float lam (an irrational tie radius)
    within ``REL_TOL`` of the top magnitude.
    """
    if isinstance(lam, Fraction):
        vals = [c * lam ** d for c, d in red]
        return smile(vals, "lower") <= 0 <= smile(vals, "upper")
    vals = [float(c) * lam ** d for c, d in red]
    top = max((abs(v) for v in vals), default=0.0)
    if top == 0.0:
        return True
    signs = {v > 0 for v in vals if abs(v) >= top * (1 - REL_TOL)}
    return len(signs) == 2


def _check_eigen(problem, code, out):
    err = _Errors()
    A = problem["A"]
    positive = all(v > 0 for row in A for v in row)
    if code == NO_RESULT:
        # the Perron sweep's power iteration may fail to settle; that is
        # the contract's no-result outcome, counted apart from failures
        if not (positive and "did not settle" in str(out.get("error"))):
            err.append(f"exit 2 without a non-convergence report: {_short(out)}")
        return err
    err.eq("exit", code, 0)
    region = out.get("region")
    if not isinstance(region, list):
        err.append("region: missing")
        return err
    members = [Fraction(v) if isinstance(v, str) else v for v in region]
    red = reduced(monomials(A))
    for v in members:
        if not _is_member(red, v):
            err.append(f"region member {v} fails lower <= 0 <= upper")
    floats = [float(v) for v in members]
    if floats != sorted(floats):
        err.append("region is not sorted")
    rf = out.get("region_float")
    if not isinstance(rf, list) or len(rf) != len(floats):
        err.append("region_float: wrong shape")
    else:
        for i, (g, w) in enumerate(zip(rf, floats)):
            err.near(f"region_float[{i}]", g, w)
    if positive and members:
        perron = out.get("perron")
        if not isinstance(perron, dict):
            err.append("perron: missing for a positive matrix")
        else:
            err.near("perron.limit_float", perron.get("limit_float"),
                     max(floats))
            if not isinstance(perron.get("converged"), bool):
                err.append("perron.converged: not a bool")
    return err


def _check_sweep_values(err, values, ps, sums_at, scale) -> None:
    """values[p] against the q-th root of the exact power sum sums_at(q)."""
    for p in ps:
        q = 2 * p + 1
        err.near(f"values[{p}]", values[p], root_float(sums_at(q), q), scale)


def _check_oracle(problem, code, out):
    err = _Errors()
    opts = problem.get("options", {})
    p_max = opts.get("p_max", DEFAULT_P_MAX)
    tol = opts.get("tol", DEFAULT_TOL)
    quantity = problem["quantity"]
    ps = list(range(p_max + 1))
    if quantity == "cramer" and det_inf(problem["A"]) == 0:
        # a sweep needs a limit solution; a singular system is an input error
        err.eq("exit", code, 3)
        return err
    err.eq("exit", code, 0)
    err.eq("quantity", out.get("quantity"), quantity)
    err.eq("p_values", out.get("p_values"), ps)
    values = out.get("values")
    if not isinstance(values, list) or len(values) != len(ps):
        err.append(f"values: wrong shape {_short(values)}")
        return err
    rel = out.get("rel_gaps")
    if not isinstance(rel, list) or len(rel) != len(ps):
        err.append("rel_gaps: wrong shape")
    else:
        err.eq("final_rel_gap", out.get("final_rel_gap"), rel[-1])
        err.eq("converged", out.get("converged"), rel[-1] < tol)

    if quantity == "sum":
        xs = problem["xs"]
        err.eq("limit", out.get("limit"), rat(nary(xs)))
        net = Counter()
        for v in xs:
            if v:
                net[abs(v)] += 1 if v > 0 else -1
        _check_sweep_values(
            err, values, ps,
            lambda q: sum((c * Fraction(m) ** q for m, c in net.items() if c),
                          Fraction(0)),
            float(max(abs(v) for v in xs)))
    elif quantity == "det":
        P = products(problem["A"])
        err.eq("limit", out.get("limit"), rat(nary(P)))
        _check_sweep_values(err, values, ps, lambda q: power_sum(P, q),
                            float(max(abs(v) for v in P)))
    elif quantity == "cramer":
        A, b = problem["A"], problem["b"]
        _, x = _cramer(A, b)
        err.eq("limit", out.get("limit"), [rat(v) for v in x])
        mats = [A] + [with_column(A, i, b) for i in range(len(A))]
        P = [products(M) for M in mats]
        for p in ps:
            q = 2 * p + 1
            roots = [root_float(power_sum(Pm, q), q) for Pm in P]
            got = values[p]
            if roots[0] == 0.0:
                err.eq(f"values[{p}]", got, None)
            elif not isinstance(got, list) or len(got) != len(A):
                err.append(f"values[{p}]: wrong shape {_short(got)}")
            else:
                for i, g in enumerate(got):
                    err.near(f"values[{p}][{i}]", g, roots[i + 1] / roots[0])
    elif quantity == "hyperplane":
        V = transpose(problem["points"])
        x = problem["x"]
        n = len(V)
        err.eq("limit", out.get("limit"), "0")

        def residual(q):
            W = [[Fraction(v) ** q for v in row] for row in V]
            total = -exact_det(W)
            for i in range(n):
                Wi = W[:i] + [[Fraction(1)] * n] + W[i + 1:]
                total += exact_det(Wi) * Fraction(x[i]) ** q
            return total

        scale = float(max(abs(v) for row in V for v in row))
        scale *= max(1.0, float(max(abs(v) for v in x)))
        _check_sweep_values(err, values, ps, residual, scale)
    elif quantity == "charpoly":
        lam = Fraction(problem["lam"])
        vals = [c * lam ** d for c, d in monomials(problem["A"])]
        err.eq("limit", out.get("limit"), rat(nary(vals)))
        _check_sweep_values(err, values, ps, lambda q: power_sum(vals, q),
                            float(max(abs(v) for v in vals)))
    else:
        err.append(f"no reference for oracle quantity {quantity!r}")
    return err


def _check_maxsolve(problem, code, out):
    err = _Errors()
    A, b = problem["A"], problem["b"]
    n, m = len(A), len(A[0])
    cand = [min(Fraction(b[i], A[i][j]) for i in range(n) if A[i][j] > 0)
            for j in range(m)]
    feasible = all(max(A[i][j] * cand[j] for j in range(m)) == b[i]
                   for i in range(n))
    err.eq("exit", code, 0 if feasible else NO_RESULT)
    err.eq("candidate", out.get("candidate"), [rat(v) for v in cand])
    err.eq("feasible", out.get("feasible"), feasible)
    if feasible:
        err.eq("x", out.get("x"), [rat(v) for v in cand])
    if n != m:
        return err
    sigma = out.get("sigma")
    if sigma is not None:
        if sorted(sigma) != list(range(1, n + 1)):
            err.append(f"sigma is not a permutation: {_short(sigma)}")
            return err
        for j, k in enumerate(sigma):
            col = [Fraction(A[i][k - 1], b[i]) for i in range(n)]
            if not (A[j][k - 1] > 0 and col[j] == max(col)):
                err.append(f"sigma[{j}]={k} breaks the argmax rule")
    if all(A[i][i] > 0 for i in range(n)):
        kay = all(
            b[i] > sum(Fraction(A[i][j] * b[j], A[j][j])
                       for j in range(n) if j != i)
            for i in range(n))
        err.eq("kaykobad", out.get("kaykobad"), kay)
    p = _p_option(problem)
    if p is not None and sigma is not None and not err:
        q = 2 * p + 1
        ok = True
        for i in range(n):
            terms = [Fraction(A[i][sigma[j] - 1] * b[j], A[j][sigma[j] - 1])
                     for j in range(n) if j != i]
            if terms and not Fraction(b[i]) ** q > power_sum(terms, q):
                ok = False
                break
        err.eq("kaykobad_p", out.get("kaykobad_p"), ok)
    return err


_CHECKS = {
    "det": _check_det,
    "solve": _check_solve,
    "twosided": _check_twosided,
    "hyperplane": _check_hyperplane,
    "sym": _check_sym,
    "charpoly": _check_charpoly,
    "eigen": _check_eigen,
    "oracle": _check_oracle,
    "maxsolve": _check_maxsolve,
}


def check(kind: str, problem: dict, code: int, out) -> list[str]:
    """Disagreements between one CLI result and the reference (empty: pass)."""
    if code not in ALLOWED_CODES:
        return [f"exit code {code} outside {ALLOWED_CODES}"]
    if not isinstance(out, dict):
        return [f"result is not a JSON object: {_short(out)}"]
    try:
        return list(_CHECKS[kind](problem, code, out))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        # a malformed field in the output (wrong type, missing key)
        return [f"malformed result: {type(exc).__name__}: {exc}"]
