"""Seeded problem generators for the three benchmark workloads.

A workload is an endless sequence of *blocks*. Every block holds the same
number of problems of each slot of the workload's slot table, so each block
has the same mix of kinds and sizes; only the entries change with the seed
and the block index.
The harness measures whole blocks, which keeps the mix (and so the latency
percentiles) the same however many blocks a run completes.

Each problem is ``(kind, text)``: the CLI subcommand and the JSON document
passed as ``--json``. The program sees nothing but that text.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("limit-wide", "limit-cancel", "finite-p")

# Entry ranges. limit-wide: spread-out entries, so the top product magnitude
# almost never cancels. limit-cancel: entries in -2..2, so many products are
# zero and the top magnitude often nets out. eigen needs positive entries
# for the Perron sweep the CLI adds.
_RANGES = {
    "limit-wide": {"entry": (-99, 99), "positive": (1, 99)},
    "limit-cancel": {"entry": (-2, 2), "positive": (1, 3)},
    "finite-p": {"entry": (-9, 9), "positive": (1, 99)},
}

# Slot tables: (kind, n, variant, copies per block). Sizes follow the cost
# of n! enumeration. The copies shape the latency distribution so that its
# median and 90th percentile each fall inside a group of alike problems,
# not on the gap between two groups, where they would jump with the seed.
# limit-*: five heavy problems (two det n=8, solve n=7 with eight n=7
# determinants, charpoly and eigen n=7) are 5 of 36, so the 90th
# percentile lies among them even when a singular solve ends early; 15
# problems sit below the 12 n=6 solve/twosided/hyperplane/sym ones, which
# take nearly equal time, so the median falls among those 12.
_LIMIT_SLOTS = (
    ("det", 5, "upper", 2), ("solve", 5, None, 2), ("twosided", 5, None, 2),
    ("hyperplane", 5, None, 2), ("sym", 5, None, 2), ("charpoly", 5, None, 1),
    ("eigen", 5, None, 1),
    ("det", 6, "lower", 3), ("solve", 6, None, 3), ("twosided", 6, None, 3),
    ("hyperplane", 6, None, 3), ("sym", 6, None, 3), ("charpoly", 6, None, 2),
    ("eigen", 6, None, 2),
    ("det", 8, "exact", 2), ("solve", 7, None, 1), ("charpoly", 7, None, 1),
    ("eigen", 7, None, 1),
)

# finite-p: three 10^4-term sums per block of 21 are the slowest seventh,
# so the 90th percentile lies among them; the three 10^3-term sums sit in
# the middle of the distribution and carry the median.
_FINITE_P_SLOTS = (
    ("oracle", 1000, "sum", 3), ("oracle", 3000, "sum", 1),
    ("oracle", 10000, "sum", 3),
    ("oracle", 5, "det", 1), ("oracle", 6, "det", 1),
    ("oracle", 4, "cramer", 1), ("oracle", 5, "cramer", 1),
    ("oracle", 4, "hyperplane", 1), ("oracle", 5, "hyperplane", 1),
    ("oracle", 5, "charpoly", 1), ("oracle", 6, "charpoly", 1),
    ("det", 5, "p", 1), ("det", 6, "p", 1), ("det", 7, "p", 1),
    ("maxsolve", 20, "p", 1), ("maxsolve", 30, "p", 1),
    ("maxsolve", 40, "p", 1),
)

SLOTS = {
    "limit-wide": _LIMIT_SLOTS,
    "limit-cancel": _LIMIT_SLOTS,
    "finite-p": _FINITE_P_SLOTS,
}

# p_max of each oracle sweep: every sweep evaluates p = 0..p_max.
_SWEEP_P_MAX = {"sum": 8, "det": 6, "cramer": 4, "hyperplane": 6,
                "charpoly": 4}


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _matrix(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _vector(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _limit_problem(rng, kind, n, variant, ranges) -> dict:
    lo, hi = ranges["entry"]
    if kind == "det":
        return {"A": _matrix(rng, n, lo, hi), "options": {"mode": variant}}
    if kind == "solve":
        return {"A": _matrix(rng, n, lo, hi), "b": _vector(rng, n, lo, hi)}
    if kind == "twosided":
        return {"A": _matrix(rng, n, lo, hi), "C": _matrix(rng, n, lo, hi),
                "b": _vector(rng, n, lo, hi), "d": _vector(rng, n, lo, hi)}
    if kind == "hyperplane":
        points = _matrix(rng, n, lo, hi)
        # one query on the hyperplane's own point set, one at random
        return {"points": points,
                "queries": [points[0], _vector(rng, n, lo, hi)]}
    if kind == "sym":
        return {"A": _matrix(rng, n, lo, hi)}
    if kind == "charpoly":
        return {"A": _matrix(rng, n, lo, hi), "lam": _nonzero(rng, lo, hi)}
    if kind == "eigen":
        plo, phi = ranges["positive"]
        return {"A": _matrix(rng, n, plo, phi)}
    raise ValueError(f"no limit-side generator for {kind!r}")


def _finite_p_problem(rng, kind, n, variant, ranges) -> dict:
    lo, hi = ranges["entry"]
    if kind == "oracle":
        opts = {"p_max": _SWEEP_P_MAX[variant]}
        if variant == "sum":
            return {"quantity": "sum", "xs": _vector(rng, n, -99, 99),
                    "options": opts}
        if variant == "det":
            return {"quantity": "det", "A": _matrix(rng, n, lo, hi),
                    "options": opts}
        if variant == "cramer":
            return {"quantity": "cramer", "A": _matrix(rng, n, lo, hi),
                    "b": _vector(rng, n, lo, hi), "options": opts}
        if variant == "hyperplane":
            points = _matrix(rng, n, lo, hi)
            return {"quantity": "hyperplane", "points": points,
                    "x": _vector(rng, n, lo, hi), "options": opts}
        return {"quantity": "charpoly", "A": _matrix(rng, n, lo, hi),
                "lam": _nonzero(rng, lo, hi), "options": opts}
    if kind == "det":
        return {"A": _matrix(rng, n, lo, hi),
                "options": {"p": rng.randint(1, 12)}}
    if kind == "maxsolve":
        # b is the max-times image of a positive x, so every system is
        # feasible and the componentwise-maximal candidate solves it
        plo, phi = ranges["positive"]
        A = _matrix(rng, n, plo, phi)
        x = _vector(rng, n, 1, 99)
        b = [max(a * v for a, v in zip(row, x)) for row in A]
        return {"A": A, "b": b, "options": {"p": rng.randint(1, 12)}}
    raise ValueError(f"no finite-p generator for {kind!r}")


def block(workload: str, seed: int, index: int) -> list[tuple[str, str]]:
    """Block ``index`` of ``workload`` under ``seed``: one problem per slot."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    make = _finite_p_problem if workload == "finite-p" else _limit_problem
    ranges = _RANGES[workload]
    out = []
    for kind, n, variant, copies in SLOTS[workload]:
        for _ in range(copies):
            out.append((kind, _dump(make(rng, kind, n, variant, ranges))))
    rng.shuffle(out)
    return out
