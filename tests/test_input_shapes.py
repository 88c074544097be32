"""One shape rule for every library entry point that reads an array: a
vector, a matrix row and a point is a nonempty array of scalars, and a
matrix or a point set an array of them; so are the rows of pairs, the
pairs, the monomials, the SignedLogs of a power sum, an index set and a
permutation, each array of its own items. The inputs of a sweep are a
mapping of its quantity's fields. A string, a number, a mapping, None or
an empty array in any of those places raises DomainError, unless it is a
valid input there (``VALID``): never TypeError, KeyError or
AttributeError, and no string is read as its digits."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (BoxAlgError, BoxMatrix, DomainError, LimitSystem,
                    as_vector, boxtimes_eig_check, charpoly_eval,
                    det_inf, hyperplane_through, kaykobad_p_check,
                    nary_boxplus, phi_p_sum, reduced_monomials, residual_set,
                    s_det, smile, v_identity_check, xi)
from boxalg.oracle import sweep

BAD = {"string": "34", "number": 5, "dict": {"a": 1}, "none": None,
       "empty": []}
A = [[1, 2], [3, 5]]
ROW = [1, 2]
PAIRS = [[1, 0], [0, 2]]
MAX = ([[2, 3], [4, 1]], [5, 7])  # a max system with a permutation witness

# each place an array or a sweep's inputs go, as a call that puts its
# argument there and keeps every other input well formed
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
    "boxtimes_eig_check-v": lambda v: boxtimes_eig_check([[1, 0], [0, 1]],
                                                         1, v),
    "s_det": s_det,
    "s_det-row": lambda v: s_det([PAIRS, v]),
    "v_identity_check": v_identity_check,
    "charpoly_eval": lambda v: charpoly_eval(v, 1),
    "reduced_monomials": reduced_monomials,
    "phi_p_sum": lambda v: phi_p_sum(v, 1).sign,
    "kaykobad_p_check-sigma": lambda v: kaykobad_p_check(*MAX, v, 1),
    "kaykobad_p_check-sigma-item": lambda v: kaykobad_p_check(*MAX, [1, v],
                                                              1),
    "xi-I": lambda v: xi(ROW, v, 1),
    "residual_set-I": lambda v: residual_set(ROW, v),
    "nary_boxplus-I": lambda v: nary_boxplus(ROW, v),
    "nary_boxplus-I-item": lambda v: nary_boxplus(ROW, [1, v]),
    "sweep-inputs": lambda v: sweep("sum", v),
    "sweep-unknown-field": lambda v: sweep("sum", {"xs": ROW, "A": v}),
    "sweep-missing-field": lambda v: sweep("hyperplane", {"x": v}),
}

# the places where a BAD value is a valid input, with what it reads: an
# empty array of pairs, of monomials or of SignedLogs, or an empty index
# set, and None, the whole index set
VALID = {
    "v_identity_check": {"empty": True},
    "charpoly_eval": {"empty": 0},
    "reduced_monomials": {"empty": ()},
    "phi_p_sum": {"empty": 0},  # the sign of the exact zero
    "xi-I": {"empty": 0, "none": 1},
    "residual_set-I": {"empty": (), "none": (1, 2)},
    "nary_boxplus-I": {"empty": 0, "none": 2},
}


@pytest.mark.parametrize("place, value", [
    pytest.param(place, value, id=f"{name}-{place}")
    for name, value in BAD.items() for place in PLACES
    if name not in VALID.get(place, ())])
def test_a_non_array_or_empty_input_is_a_domain_error(place, value):
    with pytest.raises(DomainError):
        PLACES[place](value)


@pytest.mark.parametrize("place, name", [
    (place, name) for place, valid in VALID.items() for name in valid])
def test_a_valid_empty_or_none_input_keeps_its_result(place, name):
    assert PLACES[place](BAD[name]) == VALID[place][name]


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
    (lambda: boxtimes_eig_check([[1, 0], [0, 1]], 1, "11"),
     "expected an array of scalars, got str"),
    (lambda: s_det(5), "expected an array of rows, got int"),
    (lambda: v_identity_check(5), "expected an array of pairs, got int"),
    (lambda: charpoly_eval(5, 1), "expected an array of monomials, got int"),
    (lambda: phi_p_sum([1], 1), "expected an array of SignedLogs"),
    (lambda: nary_boxplus(ROW, 5), "expected an array of indices, got int"),
    (lambda: nary_boxplus(ROW, [1, "a"]), "index 'a' out of range 1..2"),
    (lambda: kaykobad_p_check(*MAX, [1, "2"], 1),
     "index '2' out of range 1..2"),
    (lambda: kaykobad_p_check(*MAX, [True, 2], 1),
     "index True out of range 1..2"),
    (lambda: kaykobad_p_check(*MAX, [2.0, 1], 1),
     "index 2.0 out of range 1..2"),
    (lambda: sweep("sum", [1, 2]),
     "the fields of sum must be a mapping, got list"),
    (lambda: sweep("sum", {}), "missing field 'xs'"),
    (lambda: sweep("sum", {"xs": [1, 2], "A": "junk", "p": 9}),
     "unknown field 'A' for sum; known fields: xs"),
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
