"""One shape rule for every library entry point that reads a vector, a
matrix or a point set: a vector, a matrix row and a point is a nonempty
array of scalars, and a matrix or a point set an array of them. A string,
a number, a mapping, None or an empty array in any of those places raises
DomainError: never TypeError, and no string is read as its digits."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (BoxAlgError, BoxMatrix, DomainError, LimitSystem,
                    as_vector, det_inf, hyperplane_through, nary_boxplus,
                    smile)
from boxalg.oracle import sweep

BAD = {"string": "34", "number": 5, "dict": {"a": 1}, "none": None,
       "empty": []}
A = [[1, 2], [3, 5]]
ROW = [1, 2]

# each place a vector, a row, a matrix or the points go, as a call that
# puts its argument there and keeps every other input well formed
PLACES = {
    "as_vector": as_vector,
    "nary_boxplus": nary_boxplus,
    "BoxMatrix": BoxMatrix,
    "BoxMatrix-row": lambda v: BoxMatrix([ROW, v]),
    "det_inf": det_inf,
    "det_inf-row": lambda v: det_inf([ROW, v]),
    "LimitSystem-A": lambda v: LimitSystem(v, ROW),
    "LimitSystem-row": lambda v: LimitSystem([ROW, v], ROW),
    "LimitSystem-b": lambda v: LimitSystem(A, v),
    "hyperplane_through": hyperplane_through,
    "hyperplane_through-point": lambda v: hyperplane_through([ROW, v]),
    "sweep-sum": lambda v: sweep("sum", {"xs": v}),
    "sweep-det": lambda v: sweep("det", {"A": v}),
    "sweep-det-row": lambda v: sweep("det", {"A": [ROW, v]}),
    "sweep-cramer-b": lambda v: sweep("cramer", {"A": A, "b": v}),
    "sweep-hyperplane": lambda v: sweep("hyperplane",
                                        {"points": v, "x": ROW}),
    "sweep-hyperplane-point": lambda v: sweep(
        "hyperplane", {"points": [ROW, v], "x": ROW}),
    "sweep-hyperplane-x": lambda v: sweep("hyperplane",
                                          {"points": A, "x": v}),
    "sweep-charpoly-row": lambda v: sweep("charpoly",
                                          {"A": [ROW, v], "lam": 1}),
    "sweep-perron-row": lambda v: sweep("perron", {"A": [ROW, v]}),
}


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("value", BAD.values(), ids=BAD)
def test_a_non_array_or_empty_input_is_a_domain_error(place, value):
    with pytest.raises(DomainError):
        PLACES[place](value)


@pytest.mark.parametrize("call, message", [
    (lambda: det_inf([[1, 2], "34"]), "expected an array of scalars, got str"),
    (lambda: det_inf("12"), "expected an array of rows, got str"),
    (lambda: as_vector(5), "expected an array of scalars, got int"),
    (lambda: as_vector({1, 2}), "expected an array of scalars, got set"),
    (lambda: BoxMatrix({"a": [1]}), "expected an array of rows, got dict"),
    (lambda: hyperplane_through(7), "expected an array of points, got int"),
    (lambda: sweep("det", {"A": 7}), "expected an array of rows, got int"),
    (lambda: nary_boxplus([]), "vector must be nonempty"),
    (lambda: smile("34", "lower"), "expected an array of scalars, got str"),
])
def test_the_fault_names_the_shape(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_arrays_of_every_iterable_kind_still_read():
    rows = ((1, 2), [3, 5])
    assert BoxMatrix(iter(rows)) == BoxMatrix(map(list, rows))
    assert as_vector(x for x in (1, "1/2")) == as_vector([1, "1/2"])
    assert det_inf(rows) == det_inf(A) == -6  # 5 against -6
    assert BoxMatrix.from_columns(iter([(1, 3), (2, 5)])) == BoxMatrix(A)


JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.sampled_from(["", "7", "1/2", "x", 0.5, float("nan")])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=8)


# derandomized, so every run draws the same examples
@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
@given(st.sampled_from(sorted(PLACES)), JUNK)
def test_any_input_reads_or_raises_the_package_error(place, value):
    try:
        PLACES[place](value)
    except BoxAlgError:
        pass
