"""The benchmark workloads' output, pinned by one digest.

Every problem of seeds 1-4, blocks 0-2 of the three workloads runs
through ``cli.run`` in process, and the sha256 of ``kind\\0text\\0code\\0
stdout\\0`` over all of them, workloads in the order of
``workloads.WORKLOADS``, must stay the same: a change that only speeds
the program up prints the same bytes and exits with the same codes.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from boxalg import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEEDS, BLOCKS = range(1, 5), range(3)
DIGEST = "27b0a76bfdf55046dfcba3ee79f3310a18b7c8f1373eb80e15bd5f9789de1c8c"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_stdout_digest(monkeypatch):
    monkeypatch.delenv("BOXALG_CAP", raising=False)
    workloads = _workloads()
    digest, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for index in BLOCKS:
                for kind, text in workloads.block(workload, seed, index):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.run([kind, "--json", text])
                    digest.update(
                        f"{kind}\0{text}\0{code}\0{buf.getvalue()}\0".encode())
                    count += 1
    assert workloads.WORKLOADS == ("limit-wide", "limit-cancel", "finite-p")
    assert count == 1116
    assert digest.hexdigest() == DIGEST
