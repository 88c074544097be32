"""Command-line front end.

One problem per invocation (or a JSON array for batch mode), JSON in and
JSON out; one parser reads the kind and the options, in either order.
Rationals travel as canonical strings like "-3/4" so nothing is lost to
floats; a float rendering rides alongside under a ``_float`` key. Output
keys are sorted and the encoding is compact, so identical inputs produce
byte-identical outputs. One emitter writes every document, single or
batch; it splices in raw fragments, JSON text a handler has already
encoded (only the `charpoly` listing is one).

Exit codes: 0 success, 2 infeasible or no result (singular systems,
degenerate configurations, non-convergence), 3 input error (unreadable
input, bad JSON, bad shapes, bad values), 4 capacity exceeded (a size cap,
or a result with more digits than Python prints as an integer). The
environment variable BOXALG_CAP overrides the determinant and
characteristic size caps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

from .core import _scalars, as_float, as_scalar
from .eigen import (
    DEFAULT_CHAR_CAP,
    _char_levels,
    _check_char,
    _read,
    _values_at,
    eigen_region,
)
from .errors import (
    BoxAlgError,
    CapacityError,
    ConvergenceError,
    DegenerateConfigurationError,
    DomainError,
)
from .geom import hyperplane_contains, hyperplane_through
from .linalg import DEFAULT_DET_CAP, BoxMatrix, det_inf, det_inf_reg, det_p
from .oracle import (DEFAULT_P_MAX, DEFAULT_TOL, _check_sweep, _gaps,
                     _perron, sweep)
from .signedlog import SignedLog, check_p
from .solve import (
    LimitSystem,
    TwoSidedSystem,
    _candidate,
    _dominates,
    _max_columns,
    _solution,
    _witness,
    cramer_limit_solve,
    twosided_solve,
)
from .sym import s_det, s_embed_matrix, s_pair, v_identity_check, v_map

KINDS = ("det", "solve", "maxsolve", "twosided", "hyperplane", "charpoly",
         "eigen", "oracle", "sym")

OK, INFEASIBLE, INPUT_ERROR, CAPACITY = 0, 2, 3, 4


# --- JSON <-> exact values ----------------------------------------------------


def _array(v, of: str = "scalars") -> list:
    """v itself when it is a nonempty JSON array."""
    if not isinstance(v, list) or not v:
        raise DomainError(f"expected a nonempty array of {of}")
    return v


def _vector_in(v) -> list:
    return _scalars(_array(v))


def _matrix_in(v) -> BoxMatrix:
    # BoxMatrix coerces each row as the map yields it, so the first fault
    # reported is the first in reading order
    return BoxMatrix(map(_array, _array(v, "rows")))


def _points_in(v) -> list[list]:
    if not isinstance(v, list):
        raise DomainError("points must be an array of points")
    return [_vector_in(p) for p in v]


# how the oracle reads each input field it knows; other fields are ignored
ORACLE_FIELDS = {"xs": _vector_in, "b": _vector_in, "x": _vector_in,
                 "A": _matrix_in, "points": _points_in, "lam": as_scalar}


def _float_out(x):
    """A number as a JSON float; non-finite values as "inf", "-inf" or
    "nan", and rationals past the float range clamp to "inf" / "-inf"."""
    f = as_float(x)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if math.isnan(f):
        return "nan"
    return f


def _rat(xs, scale: int = 1) -> list[str]:
    """The canonical strings of the rationals x / scale for x in xs."""
    try:
        return (list(map(str, xs)) if scale == 1
                else [str(Fraction(x, scale)) for x in xs])
    except ValueError:  # Python's limit on int-to-str conversion
        raise CapacityError(
            "result too long to print: more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def _exact(out: dict, **values) -> dict:
    """Write each exact value under its key and its float under the key
    plus "_float". A rational prints as its canonical string, a float (an
    irrational region member or Perron limit) as itself, a sequence as a
    list of either."""
    for key, v in values.items():
        many = isinstance(v, (tuple, list))
        items = v if many else (v,)
        exact = [_float_out(x) if isinstance(x, float) else r
                 for x, r in zip(items, _rat(items))]
        floats = [_float_out(x) for x in items]
        out[key], out[key + "_float"] = ((exact, floats) if many
                                         else (exact[0], floats[0]))
    return out


class _Fragment(str):
    """JSON text that :func:`_emit` writes as is: the `charpoly` listing."""


_KEY = '"monomials":'  # the listing's key, as compact JSON writes it


def _slog(z: SignedLog) -> dict:
    return {
        "sign": z.sign,
        "logmag": _float_out(z.logmag),
        "float": _float_out(z.to_float()),
        "exact": None if z.exact is None else _rat([z.exact])[0],
    }


# --- option plumbing ----------------------------------------------------------


def _cap() -> int | None:
    """The BOXALG_CAP override of both size caps, None when unset."""
    raw = os.environ.get("BOXALG_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"BOXALG_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise DomainError(f"BOXALG_CAP must be positive, got {cap}")
    return cap


def _caps() -> tuple[int, int]:
    cap = _cap()
    return (DEFAULT_DET_CAP, DEFAULT_CHAR_CAP) if cap is None else (cap, cap)


def _merge_opts(data: dict, args) -> dict:
    """The problem's options with the command-line flags laid over them."""
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise DomainError(f"options must be a JSON object, got {opts!r}")
    opts = dict(opts)
    if args.p is not None:
        opts["p"] = args.p
    if args.pmax is not None:
        opts["p_max"] = args.pmax
    if args.tol is not None:
        opts["tol"] = args.tol
    if args.mode is not None:
        opts["mode"] = args.mode
    tol = opts.get("tol")
    if tol is not None and (isinstance(tol, bool)
                            or not isinstance(tol, (int, float))
                            or not 0 < tol < math.inf):
        raise DomainError(f"tol must be a positive real number, got {tol!r}")
    return opts


def _opt_p(opts) -> int | None:
    p = opts.get("p")
    return None if p is None else check_p(p)


# --- handlers (each returns (exit_code, json_object)) -------------------------


def _do_det(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps()
    A = _matrix_in(data["A"])
    out = _exact({}, det_inf=det_inf(A, det_cap))
    mode = opts.get("mode")
    if mode in ("lower", "upper"):
        _exact(out, **{f"det_{mode}": det_inf_reg(A, mode, det_cap)})
    elif mode not in (None, "exact"):
        raise DomainError(f"mode must be lower, upper or exact, got {mode!r}")
    p = _opt_p(opts)
    if p is not None:
        out["det_p"] = _slog(det_p(A, p, det_cap))
        out["p"] = p
    return OK, out


def _solve_out(report) -> tuple[int, dict]:
    """A Cramer-style :class:`~boxalg.solve.SolveReport` as a result."""
    if report.solution is None:
        return INFEASIBLE, _exact({}, det_inf=0)
    rows = [_exact({"satisfied": r.satisfied}, lower=r.lower, upper=r.upper)
            for r in report.per_row]
    return OK, _exact({"rows": rows, "regular": report.regular,
                       "satisfied": report.satisfied},
                      det_inf=report.det, x=report.solution)


def _do_solve(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps()
    system = LimitSystem(_matrix_in(data["A"]), _vector_in(data["b"]))
    return _solve_out(cramer_limit_solve(system, det_cap))


def _do_maxsolve(data: dict, opts: dict) -> tuple[int, dict]:
    A, rhs, cols = _max_columns(_matrix_in(data["A"]), _vector_in(data["b"]))
    out: dict = {}
    try:
        _exact(out, candidate=_candidate(cols))
    except DomainError as exc:
        out["candidate"] = None
        out["candidate_error"] = str(exc)
    x = _solution(A.rows, cols)
    out["feasible"] = x is not None
    if x is not None:
        _exact(out, x=x)
    if A.is_square:
        found = _witness(cols)
        out["sigma"] = None if found is None else list(found[0])
        out["strict"] = None if found is None else found[1]
        diagonal = all(row[i] > 0 for i, row in enumerate(A._ints))
        out["kaykobad"] = _dominates(A, rhs, range(A.rows), 1) if diagonal else None
    p = _opt_p(opts)
    if p is not None and A.is_square and found is not None:
        sigma = [k - 1 for k in found[0]]  # sigma's pivots are tight: > 0
        out["kaykobad_p"] = _dominates(A, rhs, sigma, 2 * p + 1)
        out["p"] = p
    return (OK if x is not None else INFEASIBLE), out


def _do_twosided(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps()
    system = TwoSidedSystem(
        _matrix_in(data["A"]), _matrix_in(data["C"]),
        _vector_in(data["b"]), _vector_in(data["d"]),
    )
    return _solve_out(twosided_solve(system, det_cap))


def _do_hyperplane(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps()
    H = hyperplane_through(_points_in(data["points"]), det_cap)
    out = _exact({}, coeffs=H.coeffs, rhs=H.rhs)
    queries = data.get("queries")
    if queries is not None:
        if not isinstance(queries, list):
            raise DomainError("queries must be an array of points")
        out["members"] = [hyperplane_contains(H, _array(q)) for q in queries]
    return OK, out


def _do_charpoly(data: dict, opts: dict) -> tuple[int, dict]:
    _, char_cap = _caps()
    A = _check_char(_matrix_in(data["A"]), char_cap)
    lam = data.get("lam")
    lam = None if lam is None else as_scalar(lam)
    levels, scale = _char_levels(A)
    tallies = {degree: Counter(level) for degree, level in levels}
    out: dict = {}
    if lam is not None:
        at = _values_at(tallies, scale, lam)
        out["lam"] = _rat([lam])[0]
        for mode in ("limit", "lower", "upper"):
            _exact(out, **{f"eval_{mode}": _read(at, mode)})
    p = _opt_p(opts)  # read after the evaluations, whose faults come first
    if lam is not None and p is not None:
        out["eval_p"], out["p"] = _slog(_read(at, "p", p)), p
    texts = []
    for degree, level in levels:
        t = tallies[degree]  # equal coefficients share one formatted string
        r = dict(zip(t, _rat(t, scale)))
        between = f'",{degree}],["'  # ends one ["r",degree], starts the next
        texts.append(f'["{between.join(map(r.__getitem__, level))}",{degree}]')
    out["monomials"] = _Fragment("[" + ",".join(texts) + "]")
    out["count"] = sum(len(level) for _, level in levels)
    return OK, out


def _do_eigen(data: dict, opts: dict) -> tuple[int, dict]:
    _, char_cap = _caps()
    A = _matrix_in(data["A"])
    region = eigen_region(A, cap=char_cap)
    p_max = opts.get("p_max", DEFAULT_P_MAX)
    tol = opts.get("tol", DEFAULT_TOL)
    _check_sweep(p_max, tol)
    out = _exact({}, region=region)
    if region and all(a > 0 for row in A._ints for a in row):
        # the run at p_max alone
        gap = _gaps(*_perron(A, region, (p_max,), char_cap))[1][0]
        out["perron"] = {"limit_float": _float_out(max(region)), "p_max": p_max,
                         "final_rel_gap": _float_out(gap), "converged": gap < tol}
    return OK, out


def _do_oracle(data: dict, opts: dict) -> tuple[int, dict]:
    quantity = data.get("quantity")
    if not isinstance(quantity, str):
        raise DomainError("oracle problems need a 'quantity' string")
    inputs = {k: parse(data[k]) for k, parse in ORACLE_FIELDS.items()
              if k in data}
    p_max = opts.get("p_max", DEFAULT_P_MAX)
    tol = opts.get("tol", DEFAULT_TOL)
    rep = sweep(quantity, inputs, p_max=p_max, tol=tol, cap=_cap())
    values = []
    for v in rep.values:
        if v is None:
            values.append(None)
        elif isinstance(v, tuple):
            values.append([_float_out(z.to_float()) for z in v])
        else:
            values.append(_float_out(v.to_float()))
    return OK, _exact({
        "quantity": rep.quantity,
        "p_values": list(rep.p_values),
        "values": values,
        "abs_gaps": [_float_out(g) for g in rep.abs_gaps],
        "rel_gaps": [_float_out(g) for g in rep.rel_gaps],
        "final_gap": _float_out(rep.final_gap),
        "final_rel_gap": _float_out(rep.final_rel_gap),
        "converged": rep.converged,
        "near_tie": rep.near_tie,
    }, limit=rep.limit)


def _do_sym(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps()
    out: dict = {}
    if "A" in data:
        A = _matrix_in(data["A"])
        d = s_det(s_embed_matrix(A), det_cap)
        _exact(out, s_det=(d.plus, d.minus))
        out["balanced_with_zero"] = d.plus == d.minus
        _exact(out, det_inf=det_inf(A, det_cap))
    if "pairs" in data:
        raw = data["pairs"]
        if not isinstance(raw, list) or not raw:
            raise DomainError("pairs must be a nonempty array of [plus, minus]")
        pairs = []
        for item in raw:
            if not isinstance(item, list) or len(item) != 2:
                raise DomainError(f"not a pair: {item!r}")
            pairs.append(s_pair(*item))
        _exact(out, v_values=[v_map(x) for x in pairs])
        out["v_identity"] = v_identity_check(pairs)
    if not out:
        raise DomainError("sym problems need 'A' (pair determinant) or 'pairs'")
    return OK, out


HANDLERS = {
    "det": _do_det,
    "solve": _do_solve,
    "maxsolve": _do_maxsolve,
    "twosided": _do_twosided,
    "hyperplane": _do_hyperplane,
    "charpoly": _do_charpoly,
    "eigen": _do_eigen,
    "oracle": _do_oracle,
    "sym": _do_sym,
}


def _run_one(kind: str, data, args) -> tuple[int, dict]:
    if not isinstance(data, dict):
        raise DomainError("each problem must be a JSON object")
    item_kind = data.get("kind", kind)
    if item_kind not in KINDS:
        raise DomainError(f"unknown kind {item_kind!r}")
    opts = _merge_opts(data, args)
    return HANDLERS[item_kind](data, opts)


def _guarded(kind: str, data, args) -> tuple[int, dict]:
    try:
        return _run_one(kind, data, args)
    except KeyError as exc:
        return INPUT_ERROR, {"error": f"missing field {exc.args[0]!r}"}
    except CapacityError as exc:
        return CAPACITY, {"error": str(exc)}
    except (DegenerateConfigurationError, ConvergenceError) as exc:
        return INFEASIBLE, {"error": str(exc)}
    except RecursionError:  # the repr of an input nested near Python's limit
        return INPUT_ERROR, {"error": "input nested too deeply"}
    except BoxAlgError as exc:
        return INPUT_ERROR, {"error": str(exc)}


def _emit(obj) -> None:
    """Print obj, a result or a batch of {"code", "result"} items, as one
    compact, key-sorted JSON document. Each result's ``monomials`` fragment
    is encoded as 0 and its text spliced in for that key's bytes, which can
    be nothing but a key: compact JSON escapes every '"' inside a string."""
    results = ([item["result"] for item in obj] if isinstance(obj, list)
               else [obj])
    fragments = []
    for result in results:
        if isinstance(result.get("monomials"), _Fragment):
            fragments.append(result["monomials"])
            result["monomials"] = 0
    pieces = json.dumps(obj, sort_keys=True,
                        separators=(",", ":")).split(_KEY + "0")
    assert len(pieces) == len(fragments) + 1
    parts = [pieces[0]]
    for fragment, piece in zip(fragments, pieces[1:]):
        parts += (_KEY, fragment, piece)
    print("".join(parts))


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="boxalg",
        description="Exact limit-algebra computations over JSON problems.",
    )
    parser.add_argument("kind", nargs="?", choices=KINDS)
    parser.add_argument("--json", dest="json_text")
    parser.add_argument("--file", dest="json_file")
    parser.add_argument("--p", type=int)
    parser.add_argument("--pmax", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--mode", choices=("lower", "upper", "exact"))
    return parser


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else INPUT_ERROR

    if args.kind is None:
        _emit({"error": f"missing subcommand; pick from {', '.join(KINDS)}"})
        return INPUT_ERROR
    if (args.json_text is None) == (args.json_file is None):
        _emit({"error": "exactly one of --json or --file is required"})
        return INPUT_ERROR

    if args.json_file is not None:
        try:
            if args.json_file == "-":
                text = sys.stdin.read()
            else:
                with open(args.json_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            _emit({"error": f"cannot read {args.json_file}: {exc}"})
            return INPUT_ERROR
    else:
        text = args.json_text

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        _emit({
            "error": f"malformed JSON at line {exc.lineno} column {exc.colno} "
                     f"(char {exc.pos}): {exc.msg}"
        })
        return INPUT_ERROR
    except (RecursionError, ValueError) as exc:  # Python's nesting, digits
        _emit({"error": f"unreadable JSON: {exc}"})
        return INPUT_ERROR

    if isinstance(payload, list):
        results = []
        code = OK
        for item in payload:
            item_code, obj = _guarded(args.kind, item, args)
            results.append({"code": item_code, "result": obj})
            if code == OK and item_code != OK:
                code = item_code
        _emit(results)
        return code

    code, obj = _guarded(args.kind, payload, args)
    _emit(obj)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
