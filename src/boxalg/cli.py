"""Command-line front end.

One problem per invocation (or a JSON array for batch mode), JSON in and
JSON out; one parser reads the kind and the options, in either order, and
the kinds are the keys of one handler table, which lists the fields and
``options`` keys each kind reads (``oracle.INPUTS`` those of each
quantity): any other is refused. Each raw field goes to the library entry
point that reads it and owns its shape check. Rationals travel as
canonical strings like "-3/4" so nothing is lost to floats; a float
rendering rides alongside under a ``_float`` key. Output keys are sorted
and the encoding is compact, so identical inputs produce byte-identical
outputs. One emitter writes every document, single or batch; it splices
in raw fragments, JSON text a handler has already encoded (only the
`charpoly` listing is one). The `sym` kind and the `det` kind with mode
lower or upper read one leading-term run (``linalg._det_lead``); a plain
`det` reads ``linalg.det_inf``, which needs none when the ring packs.

Exit codes: 0 success, 2 infeasible or no result (singular systems,
degenerate configurations, non-convergence), 3 input error (unreadable
input, bad JSON, unknown fields or options, bad shapes, bad values), 4
capacity exceeded (a size cap, or a result with more digits than Python
prints as an integer). The environment variable BOXALG_CAP overrides the
determinant and characteristic size caps. As in the library,
:mod:`boxalg.oracle` resolves that override and checks ``tol``, and
:mod:`boxalg.sym` checks each pair.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from .core import _array, _envelope, _known, as_float, as_scalar
from .eigen import (_CHAR, _char_levels, _eval_at, _net_at, _tops,
                    eigen_region)
from .errors import (
    BoxAlgError,
    CapacityError,
    ConvergenceError,
    DegenerateConfigurationError,
    DomainError,
)
from .geom import hyperplane_contains, hyperplane_through
from .linalg import _checked, _det_lead, as_matrix, det_inf, det_p
from .oracle import (DEFAULT_P_MAX, DEFAULT_TOL, _caps, _check_sweep,
                     _check_tol, _gaps, _inputs, _perron, sweep)
from .signedlog import SignedLog, _decided, _phi_p_net, check_p, odd_exponent
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
from .sym import _as_pair, v_identity_check, v_map

OK, INFEASIBLE, INPUT_ERROR, CAPACITY = 0, 2, 3, 4


# --- JSON <-> exact values ----------------------------------------------------


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


def _merge_opts(opts: dict, args) -> dict:
    """The problem's options with the command-line flags laid over them."""
    flags = {"p": args.p, "p_max": args.pmax, "tol": args.tol, "mode": args.mode}
    opts = {**opts, **{k: v for k, v in flags.items() if v is not None}}
    if opts.get("tol") is not None:  # a kind that reads tol rejects null
        _check_tol(opts["tol"])
    return opts


def _opt_p(opts) -> int | None:
    p = opts.get("p")
    return None if p is None else check_p(p)


# --- handlers (each returns (exit_code, json_object)) -------------------------


def _do_det(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps(_cap())
    A = as_matrix(data["A"])
    mode = opts.get("mode")
    if mode in ("lower", "upper"):
        plus, minus, limit = _det_lead(A, det_cap)
        out = _exact({}, det_inf=limit())
        _exact(out, **{f"det_{mode}": _envelope((plus, -minus), mode)})
    else:  # a size fault is reported before a bad mode
        out = _exact({}, det_inf=det_inf(A, det_cap))
        if mode not in (None, "exact"):
            raise DomainError(
                f"mode must be lower, upper or exact, got {mode!r}")
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
    det_cap, _ = _caps(_cap())
    system = LimitSystem(data["A"], data["b"])
    return _solve_out(cramer_limit_solve(system, det_cap))


def _do_maxsolve(data: dict, opts: dict) -> tuple[int, dict]:
    A, rhs, cols = _max_columns(data["A"], data["b"])
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
        out["kaykobad_p"] = _dominates(A, rhs, sigma, odd_exponent(p))
        out["p"] = p
    return (OK if x is not None else INFEASIBLE), out


def _do_twosided(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps(_cap())
    system = TwoSidedSystem(data["A"], data["C"], data["b"], data["d"])
    return _solve_out(twosided_solve(system, det_cap))


def _do_hyperplane(data: dict, opts: dict) -> tuple[int, dict]:
    det_cap, _ = _caps(_cap())
    H = hyperplane_through(data["points"], det_cap)
    out = _exact({}, coeffs=H.coeffs, rhs=H.rhs)
    queries = data.get("queries")
    if queries is not None:
        out["members"] = [hyperplane_contains(H, q)
                          for q in _array(queries, "points")]
    return OK, out


def _do_charpoly(data: dict, opts: dict) -> tuple[int, dict]:
    _, char_cap = _caps(_cap())
    A = _checked(data["A"], char_cap, _CHAR)
    lam = data.get("lam")
    lam = None if lam is None else as_scalar(lam)
    levels, scale = _char_levels(A)
    tops = _tops(levels)
    out: dict = {}
    if lam is not None:
        limit, lower, upper = _eval_at(levels, scale, lam, tops)
        out["lam"] = _rat([lam])[0]
        _exact(out, eval_limit=limit, eval_lower=lower, eval_upper=upper)
    p = _opt_p(opts)  # read after the evaluations, whose faults come first
    if lam is not None and p is not None:
        [value] = _phi_p_net(_net_at(levels, scale, lam), (p,))
        out["eval_p"], out["p"] = _slog(_decided(value, p)), p
    texts = []
    for degree, level in levels.items():
        hi, lo = tops[degree]
        # a degree has at most 2 |c| + 1 distinct values, |c| its top
        if scale == 1 and 2 * (2 * max(hi, -lo) + 1) > len(level):
            strs = _rat(level)  # may be mostly distinct: no dict
        else:  # equal coefficients share one formatted string
            distinct = set(level)
            strs = map(dict(zip(distinct, _rat(distinct, scale))).__getitem__,
                       level)
        between = f'",{degree}],["'  # ends one ["r",degree], starts the next
        texts.append(f'["{between.join(strs)}",{degree}]')
    out["monomials"] = _Fragment("[" + ",".join(texts) + "]")
    out["count"] = sum(map(len, levels.values()))
    return OK, out


def _do_eigen(data: dict, opts: dict) -> tuple[int, dict]:
    _, char_cap = _caps(_cap())
    A = as_matrix(data["A"])
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
    p_max = opts.get("p_max", DEFAULT_P_MAX)
    tol = opts.get("tol", DEFAULT_TOL)
    fields = {k: data[k] for k in _inputs(data["quantity"]) if k in data}
    rep = sweep(data["quantity"], fields, p_max=p_max, tol=tol, cap=_cap())
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
    det_cap, _ = _caps(_cap())
    out: dict = {}
    if "A" in data:
        plus, minus, limit = _det_lead(data["A"], det_cap, "pair determinant")
        _exact(out, s_det=(plus, minus), det_inf=limit())
        out["balanced_with_zero"] = plus == minus
    if "pairs" in data:
        raw = data["pairs"]
        if not isinstance(raw, list) or not raw:
            raise DomainError("pairs must be a nonempty array of [plus, minus]")
        pairs = list(map(_as_pair, raw))
        _exact(out, v_values=[v_map(x) for x in pairs])
        out["v_identity"] = v_identity_check(pairs)
    if not out:
        raise DomainError("sym problems need 'A' (pair determinant) or 'pairs'")
    return OK, out


class _Kind(NamedTuple):
    """A kind's handler, the top-level fields it reads besides ``kind``
    and ``options``, and the keys of ``options`` it reads."""
    handler: Callable[[dict, dict], tuple[int, dict]]
    fields: tuple[str, ...]
    options: tuple[str, ...]


HANDLERS = {
    "det": _Kind(_do_det, ("A",), ("p", "mode")),
    "solve": _Kind(_do_solve, ("A", "b"), ()),
    "maxsolve": _Kind(_do_maxsolve, ("A", "b"), ("p",)),
    "twosided": _Kind(_do_twosided, ("A", "C", "b", "d"), ()),
    "hyperplane": _Kind(_do_hyperplane, ("points", "queries"), ()),
    "charpoly": _Kind(_do_charpoly, ("A", "lam"), ("p",)),
    "eigen": _Kind(_do_eigen, ("A",), ("p_max", "tol")),
    # and the input fields of its quantity
    "oracle": _Kind(_do_oracle, ("quantity",), ("p_max", "tol")),
    "sym": _Kind(_do_sym, ("A", "pairs"), ()),
}
KINDS = tuple(HANDLERS)


def _run_one(kind: str, data, args) -> tuple[int, dict]:
    if not isinstance(data, dict):
        raise DomainError("each problem must be a JSON object")
    item_kind = data.get("kind", kind)
    if item_kind not in KINDS:
        raise DomainError(f"unknown kind {item_kind!r}")
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise DomainError(f"options must be a JSON object, got {opts!r}")
    handler, fields, options = HANDLERS[item_kind]
    if item_kind == "oracle":
        if not isinstance(data.get("quantity"), str):
            raise DomainError("oracle problems need a 'quantity' string")
        fields += _inputs(data["quantity"])
    _known("field", item_kind, data, ("kind", "options", *fields))
    _known("option", item_kind, opts, options)
    return handler(data, _merge_opts(opts, args))


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
