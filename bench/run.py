"""Benchmark harness for boxalg.

    python3 bench/run.py --workload limit-wide --seed 1 --seconds 15 --trace 0

Drives seeded problems through the real entry point, ``boxalg.cli.run()``,
in-process with argv ``<kind> --json <problem>``: one problem per call, one
process, no threads, a closed loop (the next call starts when the previous
one returns). Every result is checked against ``reference.py``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` a
traced run reports the per-layer metrics of ``tracer.py`` and writes the
spans to ``bench/out/``. Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Per-problem time is the best of K calls. The K calls of a problem are
# spread over K passes through the run's problem list instead of running
# back to back, so they do not share one slow phase of the machine.
K_REPEATS = 2
# Every timed call sits between two runs of the speed probe below, and its
# wall time is scaled by PROBE_REF_S / (their mean): times are reported in
# reference seconds, those of a machine on which the probe takes
# PROBE_REF_S. On shared virtual machines the CPU speed drifts by up to 2x
# over minutes; raw wall times then spread by 10-30% between runs, scaled
# ones far less (see README.md). Raw figures are printed too.
PROBE_REF_S = 0.005
# The first pass takes whole blocks until --seconds / K have passed and,
# untraced, at least MIN_PROBLEMS problems are listed, so the 90th
# percentile has >= 10 samples beyond it; HARD_LIMIT_S caps a slow run.
MIN_PROBLEMS = 100
HARD_LIMIT_S = 120.0
# Cold starts before the first pass and after each pass; setup_s is the
# median of all of them, so it samples the whole run, slow phases included.
SETUP_LAUNCHES_PER_STAGE = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_cli():
    """Import ``boxalg.cli`` from the checkout's ``src``; None if absent."""
    if not (SRC / "boxalg" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from boxalg import cli
    return cli


def speed_probe() -> float:
    """Seconds taken by a fixed loop of the Fraction and dict work that
    dominates the program, as a measure of the machine's current speed."""
    start = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 2000):
        total += Fraction(i % 97, 1 + i % 13)
        counts[i % 50] = counts.get(i % 50, 0) + 1
    return time.perf_counter() - start


def call(cli, kind: str, text: str):
    """One timed call of ``cli.run``: (seconds, code, stdout, error)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run([kind, "--json", text])
    except Exception:  # an escaping exception is a failure to report
        elapsed = time.perf_counter() - start
        return elapsed, None, buf.getvalue(), traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, buf.getvalue(), None


class Problem:
    """One problem and its samples over the passes of a run."""

    def __init__(self, kind: str, text: str):
        self.kind, self.text = kind, text
        self.first = None           # (code, stdout, error) of the first call
        self.consistent = True      # every call repeated the first's output
        self.best = math.inf        # fastest untraced call, reference s
        self.wall_best = math.inf   # fastest untraced call, wall s
        self.traced_best = math.inf  # fastest traced call, reference s
        self.spans = None           # spans of the fastest traced call
        self.spans_wall = math.inf  # wall time of the call they come from
        self.ladder = None          # size-ladder spans, from the first pass

    def sample(self, cli, stats) -> None:
        """One untraced call and, when ``stats`` is given, one traced call."""
        gc.collect()
        before = speed_probe()
        seconds, code, stdout, error = call(cli, self.kind, self.text)
        scale = 2 * PROBE_REF_S / (before + speed_probe())
        self.best = min(self.best, seconds * scale)
        self.wall_best = min(self.wall_best, seconds)
        if self.first is None:
            self.first = (code, stdout, error)
        elif (code, stdout) != self.first[:2]:
            self.consistent = False
        if stats is None:
            return
        gc.collect()
        with tracer.Tracer() as tr:
            before = speed_probe()
            seconds = call(cli, self.kind, self.text)[0]
            scale = 2 * PROBE_REF_S / (before + speed_probe())
        spans, records = tr.take()
        if self.ladder is None:
            self.ladder = stats.count(spans, records)
        if seconds * scale < self.traced_best:
            self.traced_best = seconds * scale
            self.spans, self.spans_wall = spans, seconds

    def failures(self) -> list[str]:
        """Escaped exceptions, a broken stdout contract, calls that
        disagree, or fields that disagree with the reference."""
        code, stdout, error = self.first
        if error is not None:
            return [f"exception escaped run(): "
                    f"{error.strip().splitlines()[-1]}"]
        if not self.consistent:
            return ["repeated calls gave different exit codes or bytes"]
        try:
            obj, end = json.JSONDecoder().raw_decode(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if stdout[end:] != "\n":
            return ["stdout holds more than one JSON document"]
        return reference.check(self.kind, json.loads(self.text), code, obj)


def run_workload(cli, workload: str, seed: int, seconds: float,
                 stats, cold) -> list[Problem]:
    """Sample every problem once per pass, K_REPEATS passes in all.

    The first pass takes whole blocks, so each block's mix of kinds and
    sizes is measured in full, and fixes the problem list of the others.
    ``cold`` (untraced runs) makes its cold starts before, between and
    after the passes.
    """
    first_kind, first_text = workloads.block(workload, seed, 0)[0]
    call(cli, first_kind, first_text)  # untimed: warms imports and caches
    if cold is not None:
        cold.launch(SETUP_LAUNCHES_PER_STAGE)

    problems: list[Problem] = []
    start = time.perf_counter()
    index = 0
    while True:
        for kind, text in workloads.block(workload, seed, index):
            problem = Problem(kind, text)
            problem.sample(cli, stats)
            problems.append(problem)
        index += 1
        projected = (time.perf_counter() - start) * K_REPEATS
        enough = stats is not None or len(problems) >= MIN_PROBLEMS
        if projected >= HARD_LIMIT_S or (projected >= seconds and enough):
            break
    for _ in range(K_REPEATS - 1):
        if cold is not None:
            cold.launch(SETUP_LAUNCHES_PER_STAGE)
        for problem in problems:
            problem.sample(cli, stats)
    if cold is not None:
        cold.launch(SETUP_LAUNCHES_PER_STAGE)
    return problems


class ColdStarts:
    """Fresh ``python -m boxalg.cli det`` processes on 1x1 problems,
    launched one at a time: their wall times and any failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.times: list[float] = []        # reference seconds
        self.wall_times: list[float] = []
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def launch(self, count: int) -> None:
        for _ in range(count):
            v = (self.seed * 31 + len(self.times)) % 97 + 1
            cmd = [sys.executable, "-m", "boxalg.cli", "det", "--json",
                   json.dumps({"A": [[v]]})]
            before = speed_probe()
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=60)
            self.wall_times.append(time.perf_counter() - start)
            scale = 2 * PROBE_REF_S / (before + speed_probe())
            self.times.append(self.wall_times[-1] * scale)
            want = json.dumps({"det_inf": str(v), "det_inf_float": float(v)},
                              sort_keys=True, separators=(",", ":")) + "\n"
            if proc.returncode != 0 or proc.stdout != want:
                self.failures.append(
                    f"cold start {len(self.times)}: exit {proc.returncode}, "
                    f"stdout {proc.stdout[:80]!r}")


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = math.ceil(pct / 100 * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def metadata() -> dict:
    try:
        rev = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "boxalg").glob("*.py"))
    return {"rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    if cli is None:
        print(f"boxalg sources not found under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    stats = tracer.TraceStats() if traced else None

    cold = None if traced else ColdStarts(args.seed)
    problems = run_workload(cli, args.workload, args.seed, args.seconds,
                            stats, cold)
    setup_failures = [] if cold is None else cold.failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times = sorted(p.best for p in problems)
    total = sum(times)
    attempted = len(problems)
    failed = []
    for p in problems:
        failures = p.failures()
        if traced:
            own = stats.time(p.spans, p.ladder)
            if own > p.spans_wall:
                failures.append(f"self times {own} exceed the call's wall "
                                f"time {p.spans_wall}")
        if failures:
            failed.append((p, failures))
    no_result = sum(p.first[0] == reference.NO_RESULT for p in problems)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"repeats={K_REPEATS} problems={attempted}")
    print("# " + " ".join(f"{k}={v}" for k, v in metadata().items()))
    codes = defaultdict(Counter)
    for p in problems:
        codes[p.kind][p.first[0]] += 1
    for kind in sorted(codes):
        print(f"# exit codes {kind}: " + ", ".join(
            f"{code}x{count}" for code, count in sorted(
                codes[kind].items(), key=lambda kv: str(kv[0]))))
    print(f"# failed {len(failed)} of {attempted}, no result (exit 2) in "
          f"{no_result}; fail_share and no_result_share are metrics of the "
          f"traced run")
    for p, failures in failed[:10]:
        print(f"# FAILED {p.kind} exit={p.first[0]} {p.text[:200]}")
        for f in failures[:5]:
            print(f"#   {f}")
    for f in setup_failures:
        print(f"# FAILED {f}")

    if traced:
        metrics = stats.metrics()
        metrics["cli.output_bytes"] = (
            sum(len(p.first[1]) for p in problems), "bytes")
        traced_total = sum(p.traced_best for p in problems)
        metrics["trace.overhead_share"] = (traced_total / total - 1, "ratio")
        metrics["fail_share"] = (len(failed) / attempted, "ratio")
        metrics["no_result_share"] = (no_result / attempted, "ratio")
        layer_total = sum(metrics[f"{l}.self_s"][0] for l in tracer.LAYERS)
        print("# self-time shares: " + ", ".join(
            f"{l} {metrics[f'{l}.self_s'][0] / layer_total:.0%}"
            for l in tracer.LAYERS))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, p in enumerate(problems):
                for span in p.spans:
                    fh.write(json.dumps([i] + span) + "\n")
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        p90, beyond = percentile(times, 90)
        metrics = {
            "problems_per_s": (attempted / total, "1/s"),
            "latency_p50_s": (statistics.median(times), "s"),
            "latency_p90_s": (p90, "s"),
            "setup_s": (statistics.median(cold.times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"# latency_p90_s is nearest-rank over {attempted} samples, "
              f"{beyond} beyond it")
        wall = sorted(p.wall_best for p in problems)
        print(f"# raw wall clock: problems_per_s {attempted / sum(wall):.6g}"
              f" latency_p50_s {statistics.median(wall):.6g} latency_p90_s "
              f"{percentile(wall, 90)[0]:.6g} setup_s "
              f"{statistics.median(cold.wall_times):.6g}; reference/wall "
              f"time {sum(times) / sum(wall):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": not failed and not setup_failures,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
