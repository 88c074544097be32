"""Boundary tracer and work counters for the traced benchmark run.

The tracer wraps the coarse public functions of each ``boxalg`` module and
rebinds the wrappers in every ``boxalg`` namespace that holds the original,
since modules import each other's functions by name (``from .linalg import
det_inf``). No file of the program changes. Each wrapped call records a
span (layer, function, start, end, parent); spans stay in memory until the
run ends. Calls that feed a work counter also keep their arguments and
result, and the counters are computed from those after the problem, so
counting adds nothing to the timed spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "signedlog", "linalg", "solve", "geom", "eigen",
          "sym", "oracle")

# Per-element helpers run once per entry or per permutation; a span each
# would cost more than the work inside it. Their time counts as self time
# of the calling span.
SKIP = frozenset({"as_scalar", "s_mul", "s_pair", "s_add", "s_embed"})

# Calls whose arguments and results feed a counter or the size ladder.
RECORDED = frozenset({"nary_boxplus", "permutation_products", "phi_p_sum",
                      "char_monomials", "reduced_monomials", "sweep",
                      "det_inf", "det_p"})

# Size ladder: mean call time of these functions at each matrix size.
LADDER = {
    "det_inf": ("linalg", (5, 6, 7, 8)),
    "det_p": ("linalg", (5, 6, 7)),
    "char_monomials": ("eigen", (5, 6, 7)),
}


class Tracer:
    """Wraps ``boxalg`` functions while installed (use as a context manager).

    ``take()`` returns and clears the spans and records of the calls made
    since the previous ``take()``.
    """

    def __init__(self):
        self._spans: list[list] = []
        self._records: list[tuple] = []
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "boxalg"
                                         or name.startswith("boxalg."))]
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules["boxalg." + layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, records, stack = self._spans, self._records, self._stack
        record = name in RECORDED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if record:
                records.append((idx, args, kwargs, result))
            return result

        return traced

    def take(self) -> tuple[list[list], list[tuple]]:
        spans, records = list(self._spans), list(self._records)
        self._spans.clear()
        self._records.clear()
        self._stack.clear()
        return spans, records


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _size(matrix) -> int:
    return len(matrix.to_rows()) if hasattr(matrix, "to_rows") else len(matrix)


def _rows_key(matrix) -> tuple:
    if hasattr(matrix, "to_rows"):
        return matrix.to_rows()
    return tuple(tuple(r) for r in matrix)


class TraceStats:
    """Per-layer metrics accumulated over the traced problems of a run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.ladder = defaultdict(lambda: [0.0, 0])
        self.n = defaultdict(int)

    def count(self, spans: list[list], records: list[tuple]) -> dict:
        """Fold in one problem's work counters.

        Returns {span index: ladder key} for the calls on the size ladder;
        the program is deterministic, so the same indices hold in every
        call of the problem and ``time`` can use them on another call.
        """
        ladder = {}
        seen: set = set()
        n = self.n
        for idx, args, kwargs, result in records:
            name = spans[idx][1]
            if name in LADDER:
                ladder[idx] = (name, _size(args[0]))
            if name == "permutation_products":
                key = _rows_key(args[0])
                n["perm_calls"] += 1
                n["perm_reenumerated"] += key in seen
                seen.add(key)
                n["perm_products"] += len(result)
                n["perm_zero"] += result.count(0)
            elif name == "nary_boxplus":
                xs = args[0]
                index = args[1] if len(args) > 1 else kwargs.get("I")
                vals = xs if index is None else [xs[i - 1] for i in index]
                net: dict = {}
                for v in vals:
                    if v:
                        m = abs(v)
                        net[m] = net.get(m, 0) + (1 if v > 0 else -1)
                n["boxplus_calls"] += 1
                n["boxplus_terms"] += len(vals)
                n["top_cancel"] += bool(net) and net[max(net)] == 0
            elif name == "phi_p_sum":
                n["phi_p_terms"] += len(args[0])
            elif name == "char_monomials":
                n["monomials"] += len(result)
            elif name == "reduced_monomials":
                n["reduced_in"] += len(args[0])
                n["reduced_out"] += len(result)
            elif name == "sweep":
                n["p_evals"] += len(result.p_values)
        return ladder

    def time(self, spans: list[list], ladder: dict) -> float:
        """Fold in the spans of one call; returns their summed self time."""
        own = self_times(spans)
        for s, t in zip(spans, own):
            self.self_s[s[0]] += t
            self.calls[s[0]] += 1
        for idx, key in ladder.items():
            slot = self.ladder[key]
            slot[0] += spans[idx][3] - spans[idx][2]
            slot[1] += 1
        return sum(own)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit). A size absent from the workload reads 0."""
        n = self.n
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        out["linalg.perm_products"] = (n["perm_products"], "count")
        out["linalg.zero_product_share"] = (
            _share(n["perm_zero"], n["perm_products"]), "ratio")
        out["linalg.reenumerated_share"] = (
            _share(n["perm_reenumerated"], n["perm_calls"]), "ratio")
        for name, (layer, sizes) in LADDER.items():
            for size in sizes:
                total, count = self.ladder[(name, size)]
                out[f"{layer}.{name}.n{size}_s"] = (_share(total, count), "s")
        out["core.top_cancel_share"] = (
            _share(n["top_cancel"], n["boxplus_calls"]), "ratio")
        out["core.boxplus_terms"] = (n["boxplus_terms"], "count")
        out["signedlog.phi_p_terms"] = (n["phi_p_terms"], "count")
        out["eigen.monomials"] = (n["monomials"], "count")
        out["eigen.reduced_share"] = (
            _share(n["reduced_out"], n["reduced_in"]), "ratio")
        out["oracle.p_evals"] = (n["p_evals"], "count")
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
