"""Tests of the benchmark itself: python -m pytest bench/test_bench.py -q"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()


def first_call(kind, text):
    problem = run.Problem(kind, text)
    problem.sample(CLI, None)
    return problem


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.block(workload, 5, 2) == workloads.block(workload, 5, 2)
    assert workloads.block(workload, 5, 2) != workloads.block(workload, 6, 2)
    assert workloads.block(workload, 5, 2) != workloads.block(workload, 5, 3)
    kinds = sorted(k for k, _ in workloads.block(workload, 5, 2))
    assert kinds == sorted(k for k, _, _, copies in workloads.SLOTS[workload]
                           for _ in range(copies))


def test_reference_matches_pinned_values():
    A = [[3, -1, 3], [2, -4, 1], [-4, 5, 3]]
    assert reference.det_inf(A) == -48
    assert reference.nary([-3, -2, 3, 3, 1, -3]) == -2
    assert reference.smile([-3, 1, 3], "lower") == -3
    assert len(reference.monomials(A)) == reference.expected_monomial_count(3)


@pytest.mark.parametrize("field, bad", [
    ("det_inf", "12345"),
    ("det_inf_float", 1.5),
    ("det_lower", "0"),
])
def test_checker_counts_a_corrupted_result(field, bad):
    text = json.dumps({"A": [[3, -1, 3], [2, -4, 1], [-4, 5, 3]],
                       "options": {"mode": "lower"}})
    problem = first_call("det", text)
    assert problem.failures() == []
    code, stdout, error = problem.first
    obj = json.loads(stdout)
    obj[field] = bad
    problem.first = (code, json.dumps(obj) + "\n", error)
    assert problem.failures()


def test_checker_counts_a_broken_stdout_contract():
    problem = first_call("det", json.dumps({"A": [[2, 1], [1, 2]]}))
    code, stdout, error = problem.first
    problem.first = (code, stdout + stdout, error)
    assert problem.failures() == ["stdout holds more than one JSON document"]
    problem.first = (5, stdout, error)
    assert problem.failures()


def test_checker_counts_a_corrupted_monomial():
    text = json.dumps({"A": [[2, 1, 0], [1, 2, 1], [0, 1, 2]], "lam": 2})
    problem = first_call("charpoly", text)
    assert problem.failures() == []
    code, stdout, error = problem.first
    obj = json.loads(stdout)
    obj["monomials"][3][0] = "7"
    problem.first = (code, json.dumps(obj) + "\n", error)
    assert problem.failures()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_fit_in_each_call(workload):
    stats = tracer.TraceStats()
    for kind, text in workloads.block(workload, 3, 0)[:6]:
        problem = run.Problem(kind, text)
        problem.sample(CLI, stats)
        own = stats.time(problem.spans, problem.ladder)
        assert 0 < own <= problem.spans_wall
        assert problem.spans[0][:2] == ["cli", "run"]
    metrics = stats.metrics()
    assert metrics["cli.calls"][0] == 6


def test_tracer_restores_the_program():
    from boxalg import cli, linalg
    before = (linalg.det_inf, cli.det_inf, cli.run)
    with tracer.Tracer():
        assert cli.det_inf is not before[1]
        assert cli.det_inf.__wrapped__ is before[1]
    assert (linalg.det_inf, cli.det_inf, cli.run) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_runs_clean(workload):
    for kind, text in workloads.block(workload, 20261017, 0):
        problem = first_call(kind, text)
        assert problem.failures() == [], (kind, text)
