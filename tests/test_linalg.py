"""Matrices, permutation expansions, and limit determinants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (
    BoxMatrix,
    CapacityError,
    DomainError,
    as_vector,
    boxplus,
    cofactor_inf,
    det_inf,
    det_inf_reg,
    det_p,
    matmul_limit,
    matvec_limit,
    nary_boxplus,
    permutation_products,
    replace_column,
    signed_permutations,
    smile,
)

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def random_matrix(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n,
    ).map(BoxMatrix)


class TestBoxMatrix:
    def test_shape_and_access(self):
        A = BoxMatrix([[1, 2], [3, 4]])
        assert (A.rows, A.cols) == (2, 2)
        assert A.entry(1, 2) == 2
        assert A[2, 1] == 3
        assert A.row(2) == (F(3), F(4))
        assert A.col(1) == (F(1), F(3))

    def test_from_columns_transposes(self):
        A = BoxMatrix.from_columns([[1, 2], [3, 4]])
        assert A.to_rows() == ((F(1), F(3)), (F(2), F(4)))

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(DomainError, match="columns have inconsistent"):
            BoxMatrix.from_columns([[1, 2, 7], [3, 4]])

    def test_identity(self):
        eye = BoxMatrix.identity(3)
        assert det_inf(eye) == 1

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            BoxMatrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            BoxMatrix([])

    def test_minor_drops_row_and_column(self):
        A = BoxMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert A.minor(2, 2).to_rows() == ((F(1), F(3)), (F(7), F(9)))

    def test_out_of_range_access(self):
        A = BoxMatrix([[1]])
        with pytest.raises(DomainError):
            A.entry(0, 1)
        with pytest.raises(DomainError):
            A.entry(1, 2)

    def test_equality_and_hash(self):
        A = BoxMatrix([[1, 2], [3, 4]])
        B = BoxMatrix([[F(1), F(2)], [F(3), F(4)]])
        assert A == B
        assert hash(A) == hash(B)

    def test_one_form_whatever_the_spelling(self):
        # seeded matrices of ints, of rationals with zeros and a different
        # denominator in each row, and of entries past the float range,
        # spelled as ints, rational strings, decimal floats and Fractions:
        # one matrix, read back as the same Fractions, and the same after
        # a round trip through minor, from_columns and replace_column
        rng = random.Random(31)

        def value(kind, den):
            if kind == "int":
                return F(rng.randint(-9, 9))
            if kind == "rational":
                return F(0) if rng.random() < 0.3 else F(rng.randint(-30, 30), den)
            return rng.choice((-1, 1)) * F(rng.randint(10 ** 310, 10 ** 320), den)

        spellings = {
            "int": lambda v: int(v) if v.denominator == 1 else None,
            "string": str,
            "float": lambda v: (float(v) if abs(v) < 2 ** 53
                                and F(str(float(v))) == v else None),
            "fraction": lambda v: v,
        }
        seen = set()
        for k in range(300):
            kind = ("int", "rational", "wide")[k % 3]
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            dens = [rng.choice((1, 2, 3, 4, 5, 7, 8, 10)) for _ in range(n)]
            want = [[value(kind, d) for _ in range(m)] for d in dens]
            forms = []
            for name, spell in spellings.items():
                rows = [[spell(v) for v in row] for row in want]
                if all(v is not None for row in rows for v in row):
                    forms.append(BoxMatrix(rows))
                    seen.add((kind, name))
            mixed = [[rng.choice([s(v) for s in spellings.values()
                                  if s(v) is not None]) for v in row]
                     for row in want]
            A = BoxMatrix(mixed)
            for M in forms:
                assert M == A and hash(M) == hash(A)
            rows = A.to_rows()
            assert rows == tuple(as_vector(r) for r in want)
            assert all(type(v) is F for row in rows for v in row)
            for i in range(1, n + 1):
                assert A.row(i) == rows[i - 1]
                for j in range(1, m + 1):
                    assert type(A.entry(i, j)) is F
                    assert A.entry(i, j) == A[i, j] == want[i - 1][j - 1]
            for j in range(1, m + 1):
                assert A.col(j) == tuple(r[j - 1] for r in want)
                assert all(type(v) is F for v in A.col(j))
                assert replace_column(A, j, A.col(j)) == A
                b = [value(kind, 1) for _ in range(n)]
                B = replace_column(A, j, [str(v) for v in b])
                assert B.col(j) == tuple(b)
                if n > 1 and m > 1:
                    assert B.minor(1, j) == A.minor(1, j)
            assert BoxMatrix.from_columns(zip(*mixed)) == A
            if n > 1 and m > 1:
                i, j = rng.randint(1, n), rng.randint(1, m)
                assert A.minor(i, j) == BoxMatrix(
                    [v for c, v in enumerate(row, 1) if c != j]
                    for r, row in enumerate(want, 1) if r != i)
        assert {(kind, "fraction") for kind in ("int", "rational", "wide")} <= seen
        assert {("int", "int"), ("int", "float"), ("rational", "float"),
                ("wide", "int")} <= seen


class TestPermutations:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_counts(self, n, count):
        perms = list(signed_permutations(n))
        assert len(perms) == count
        assert len({tuple(p) for p, _ in perms}) == count

    def test_signs_split_evenly(self):
        perms = list(signed_permutations(4))
        assert sum(1 for _, s in perms if s == 1) == 12

    def test_sign_matches_inversion_parity(self):
        for perm, sign in signed_permutations(4):
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if perm[i] > perm[j]
            )
            assert sign == (-1) ** inversions


class TestDeterminant:
    def test_products_multiset(self):
        A = BoxMatrix([[2, 3, -4], [0, -4, 2], [1, -1, 5]])
        assert sorted(permutation_products(A)) == [
            F(-40), F(-16), F(0), F(0), F(4), F(6),
        ]
        assert det_inf(A) == F(-40)

    def test_pinned_two_by_two(self):
        assert det_inf(BoxMatrix([[-1, 1], [1, 1]])) == F(-1)

    def test_envelopes_bracket_limit(self):
        A = BoxMatrix([[1, 1], [1, 1]])
        assert det_inf_reg(A, "lower") == F(-1)
        assert det_inf_reg(A, "upper") == F(1)
        assert det_inf(A) == F(0)

    def test_capacity_guard(self):
        big = BoxMatrix([[1] * 10 for _ in range(10)])
        with pytest.raises(CapacityError):
            det_inf(big)
        small = BoxMatrix([[1, 0], [0, 1]])
        with pytest.raises(CapacityError):
            det_inf(small, cap=1)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            det_inf(BoxMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_finite_exponent_converges_to_limit(self):
        A = BoxMatrix([[2, 3, -4], [0, -4, 2], [1, -1, 5]])
        z = det_p(A, 12)
        assert z.sign == -1
        assert z.to_float() == pytest.approx(-40.0, rel=1e-3)

    def test_finite_exponent_near_cancellation_reads_the_exact_sum(self):
        # the two products 10^16 and 10^16 - 1 have equal float logs; the
        # power sums are 1 and 3 * 10^32 - 3 * 10^16 + 1, read as the
        # root of the exact sum, log(s) / q through one exp
        A = BoxMatrix([[10 ** 8, 10 ** 8 - 1], [10 ** 8 + 1, 10 ** 8]])
        for p, want in ((0, 1.0), (1, 66943295008.21706)):
            q = 2 * p + 1
            s = sum(x ** q for x in permutation_products(A))
            assert math.exp(math.log(s) / q) == want
            z = det_p(A, p)
            assert (z.sign, z.to_float()) == (1, want)

    def test_finite_exponent_exact_when_single_product_survives(self):
        A = BoxMatrix([[2, 0], [0, 3]])
        for p in (0, 5, 17):
            assert det_p(A, p).exact == F(6)

    @settings(deadline=None)
    @given(random_matrix(3), entries.filter(lambda t: t != 0),
           st.integers(min_value=1, max_value=3))
    def test_column_scaling(self, A, t, j):
        scaled = BoxMatrix.from_columns([
            tuple(t * x for x in A.col(k)) if k == j else A.col(k)
            for k in range(1, 4)
        ])
        assert det_inf(scaled) == t * det_inf(A)

    @settings(deadline=None)
    @given(random_matrix(3), st.permutations(range(3)))
    def test_row_permutation_flips_sign(self, A, perm):
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        sign = (-1) ** inversions
        shuffled = BoxMatrix([A.row(i + 1) for i in perm])
        assert det_inf(shuffled) == sign * det_inf(A)


class TestCofactorAndColumnSwap:
    def test_cofactors_two_by_two(self):
        A = BoxMatrix([[1, 2], [3, 4]])
        assert [cofactor_inf(A, i, j) for i in (1, 2) for j in (1, 2)] == [
            F(4), F(-3), F(-2), F(1),
        ]

    def test_replace_column(self):
        A = BoxMatrix([[1, 2], [3, 4]])
        B = replace_column(A, 2, (F(9), F(8)))
        assert B.to_rows() == ((F(1), F(9)), (F(3), F(8)))
        with pytest.raises(DomainError):
            replace_column(A, 3, (F(1), F(1)))

    def test_wedge_of_column_vectors(self):
        assert det_inf(BoxMatrix.from_columns([(F(1), F(3)), (F(2), F(4))])) == F(-6)


class TestMatVec:
    def test_exact_mode_uses_limit_addition(self):
        A = BoxMatrix([[1, 1], [2, -3]])
        x = (F(2), F(-2))
        got = matvec_limit(A, x)
        assert got == (
            nary_boxplus((F(2), F(-2))),
            nary_boxplus((F(4), F(6))),
        )

    def test_envelope_modes(self):
        A = BoxMatrix([[1, 1]])
        x = (F(2), F(-2))
        assert matvec_limit(A, x, mode="lower") == (F(-2),)
        assert matvec_limit(A, x, mode="upper") == (F(2),)

    def test_matmul_shapes(self):
        A = BoxMatrix([[1, 0], [0, 1], [1, 1]])
        B = BoxMatrix([[5, 7], [2, -2]])
        C = matmul_limit(A, B)
        assert (C.rows, C.cols) == (3, 2)
        assert C.row(3) == (boxplus(F(5), F(2)), boxplus(F(7), F(-2)))

    def test_matmul_dimension_mismatch(self):
        A = BoxMatrix([[1, 2]])
        with pytest.raises(DomainError):
            matmul_limit(A, A)

    @settings(deadline=None)
    @given(random_matrix(2), st.lists(entries, min_size=2, max_size=2))
    def test_modes_sandwich_exact(self, A, x):
        low = matvec_limit(A, x, mode="lower")
        mid = matvec_limit(A, x)
        high = matvec_limit(A, x, mode="upper")
        for lo, m, hi in zip(low, mid, high):
            assert lo <= m <= hi
