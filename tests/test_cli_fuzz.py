"""The CLI contract on arbitrary input: every problem of every kind, however
malformed, exits in {0, 2, 3, 4} with exactly one JSON document on stdout,
and a field or option the kind does not read exits 3."""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg.cli import KINDS, run
from test_cli import _read_by

SIGNED = st.one_of(st.integers(min_value=-3, max_value=3),
                   st.sampled_from(["1/2", "-3/4", "2/3", 0.5]))
NONNEGATIVE = st.one_of(st.integers(min_value=0, max_value=3),
                        st.sampled_from(["1/2", "5/3"]))
POSITIVE = st.one_of(st.integers(min_value=1, max_value=3),
                     st.sampled_from(["1/2", "5/3", "1" + "0" * 30]))
SCALARS = st.one_of(
    SIGNED,
    st.sampled_from(["1" + "0" * 30, "1/0", "x", 1e300, None, True, [], {}]),
)
QUANTITIES = st.sampled_from(
    ["sum", "det", "cramer", "hyperplane", "charpoly", "perron", "nope"])
P_VALUES = [0, 1, 3, 12, 10 ** 6]


def _matrix(n_rows, n_cols, scalars=SCALARS):
    return st.lists(st.lists(scalars, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def well_formed(draw, kind):
    """Every field ``kind`` reads, consistently sized, from one entry pool:
    signed (zeros and negatives), nonnegative, or positive (Perron runs)."""
    n = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.sampled_from([SIGNED, NONNEGATIVE, POSITIVE]))
    vector = st.lists(pool, min_size=n, max_size=n)
    matrix = _matrix(n, n, pool)
    return _read_by(kind, {
        "A": draw(matrix), "C": draw(matrix), "points": draw(matrix),
        "b": draw(vector), "d": draw(vector), "x": draw(vector),
        "xs": draw(st.lists(pool, min_size=1, max_size=8)),
        "lam": draw(pool),
        "queries": draw(st.lists(vector, max_size=2)),
        "pairs": draw(st.lists(st.lists(pool, min_size=2, max_size=2),
                               min_size=1, max_size=3)),
        "quantity": draw(QUANTITIES),
        "options": draw(st.fixed_dictionaries(
            {"p_max": st.sampled_from([0, 2, 5])},
            optional={"p": st.sampled_from(P_VALUES),
                      "mode": st.sampled_from(["lower", "upper", "exact"])})),
    })


SIZES = st.integers(min_value=0, max_value=4)
SQUARE = SIZES.flatmap(lambda n: _matrix(n, n))
RAGGED = st.lists(st.lists(SCALARS, max_size=4), max_size=4)
VECTORS = SIZES.flatmap(lambda n: st.lists(SCALARS, min_size=n, max_size=n))
JUNK = st.one_of(SCALARS, st.text(max_size=3))
MATRICES = st.one_of(SQUARE, SQUARE, RAGGED, VECTORS, JUNK)
FIELDS = {
    "A": MATRICES,
    "C": MATRICES,
    "b": st.one_of(VECTORS, JUNK),
    "d": st.one_of(VECTORS, JUNK),
    "xs": st.one_of(VECTORS, JUNK),
    "x": st.one_of(VECTORS, JUNK),
    "lam": SCALARS,
    "points": MATRICES,
    "queries": MATRICES,
    "pairs": st.one_of(RAGGED, JUNK),
    "quantity": QUANTITIES,
}
OPTIONS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "p": st.sampled_from(P_VALUES + [-1, 1.5, "2", True, None]),
        "p_max": st.sampled_from([0, 2, 5, -1, 65, 2.0, True, "x"]),
        "tol": st.sampled_from([1e-6, 0.5, 0, -1, "x", True, None]),
        "mode": st.sampled_from(["lower", "upper", "exact", "sideways", 1]),
    }),
    JUNK,
)
MALFORMED = st.fixed_dictionaries(
    {}, optional={**FIELDS, "options": OPTIONS,
                  "kind": st.sampled_from(KINDS + ("nope",))})


@st.composite
def payloads(draw):
    """A kind and its payload: a problem of any form, mostly with only
    the fields the kind reads, a batch of them, or junk."""
    kind = draw(st.sampled_from(KINDS))
    problems = st.one_of(well_formed(kind), well_formed(kind),
                         MALFORMED.map(lambda doc: _read_by(kind, doc)),
                         MALFORMED)
    return kind, draw(st.one_of(problems, problems,
                                st.lists(problems, max_size=3), JUNK))


@st.composite
def near_tie(draw):
    """A max-times system at a huge p whose first row lies within one unit
    of its largest term, so the Kaykobad-p test cannot decide by Bernoulli's
    inequality and must not form the exact powers."""
    n = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=1, max_value=10 ** 30))
    A = [[1] * n] + [[int(i == j) for j in range(n)] for i in range(1, n)]
    b = [t + draw(st.integers(min_value=-1, max_value=1)), t] + [1] * (n - 2)
    return {"A": A, "b": b,
            "options": {"p": draw(st.sampled_from([10 ** 6, 10 ** 9]))}}


def _keeps_the_contract(kind, payload):
    return _one_document([kind, "--json", json.dumps(payload)])


def _one_document(argv):
    """The exit code and the one JSON document printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    out = buf.getvalue()
    assert out.endswith("\n") and out.count("\n") == 1
    return code, json.loads(out)


# derandomized, so every run draws the same examples and a failure reproduces
@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True)
@given(payloads())
def test_every_input_keeps_the_contract(case):
    _keeps_the_contract(*case)


# per kind, a problem it reads, one of its fields, and that field misspelt
VALID = {
    "det": ({"A": [[1, 2], [3, 4]]}, "A", "a"),
    "solve": ({"A": [[-1, 1], [1, 1]], "b": [2, 3]}, "b", "B"),
    "maxsolve": ({"A": [[2, 3], [4, 1]], "b": [1, 1]}, "b", "rhs"),
    "twosided": ({"A": [[2, 1], [1, 3]], "C": [[1, 1], [2, 2]],
                  "b": [4, 3], "d": [3, 2]}, "C", "c"),
    "hyperplane": ({"points": [[1, 0], [2, -1]], "queries": [[1, 0]]},
                   "queries", "query"),
    "charpoly": ({"A": [[2, 1], [1, 2]], "lam": 2}, "lam", "lambda"),
    "eigen": ({"A": [[1, 2], [2, 2]]}, "A", "matrix"),
    "oracle": ({"quantity": "sum", "xs": [3, -3, 1]}, "xs", "x"),
    "sym": ({"pairs": [[2, 0], [0, 3]]}, "pairs", "pair"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_misspelt_field_or_option_exits_three(kind):
    problem, field, misspelt = VALID[kind]
    assert _keeps_the_contract(kind, problem)[0] == 0
    doc = {misspelt if k == field else k: v for k, v in problem.items()}
    code, out = _keeps_the_contract(kind, doc)
    assert code == 3 and out["error"].startswith(
        f"unknown field {misspelt!r} for {kind}; known fields: "), out
    assert field in out["error"]
    code, out = _keeps_the_contract(kind, {**problem,
                                           "options": {"pmax": 2}})
    assert code == 3 and out["error"].startswith(
        f"unknown option 'pmax' for {kind}; known options: "), out
    # a batch item is checked the same way
    code, out = _keeps_the_contract(kind, [problem, doc])
    assert code == 3 and [item["code"] for item in out] == [0, 3]


@settings(max_examples=25, deadline=timedelta(seconds=1), derandomize=True)
@given(near_tie())
def test_near_tie_maxsolve_at_a_huge_index_keeps_the_contract(payload):
    _keeps_the_contract("maxsolve", payload)


BIG = "1" + "0" * 3000  # its square has 6,001 digits
HUGE_P = {"1e306": 10 ** 306, "1e307": 10 ** 307, "5e307": 5 * 10 ** 307,
          "1e400": 10 ** 400}


# Python's own limits: nesting depth, the 4,300-digit cap on int-string
# conversion (on input and on output), and indices whose power 2p+1 times
# a log leaves the float range
@pytest.mark.parametrize("kind, text", [
    pytest.param("det", "[" * 100_000 + "]" * 100_000, id="deep"),
    pytest.param("det", '{"A":[[1%s]]}' % ("0" * 5000), id="json-digits"),
    pytest.param("det", '{"A":[["1%s"]]}' % ("0" * 5000), id="string-digits"),
    pytest.param("det", json.dumps({"A": [[BIG, 0], [0, BIG]]}),
                 id="det-digits"),
    pytest.param("det", json.dumps([{"A": [[1]]}, {"A": [[BIG, 0], [0, BIG]]}]),
                 id="batch-digits"),
    pytest.param("charpoly", json.dumps({"A": [[BIG, 0], [0, BIG]], "lam": 1}),
                 id="charpoly-digits"),
    *(pytest.param(kind, json.dumps({"A": [[99, 98], [97, 96]], "lam": 3,
                                     "options": {"p": p}}),
                   id=f"{kind}-p{label}")
      for kind in ("det", "charpoly") for label, p in HUGE_P.items()),
])
def test_inputs_at_python_limits_keep_the_contract(kind, text):
    _one_document([kind, "--json", text])


def test_undecodable_file_keeps_the_contract(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b'{"A":[[1\xff]]}')
    _one_document(["det", "--file", str(path)])
