"""Subset-DP determinant kernels against the n! expansions they replace.

Seeded random matrices, n = 1..7, over four entry sets. Small integers make
the top product magnitude cancel often, so the group-ring fallback runs;
wide integers almost never cancel; rationals with zeros exercise the
integer row scaling and the zero-entry skip.
"""

import random
from fractions import Fraction

import pytest

from boxalg import (
    S_ONE,
    S_ZERO,
    BoxMatrix,
    SignedLog,
    SPair,
    char_monomials,
    charpoly_eval,
    det_inf,
    det_inf_reg,
    eigen_region,
    nary_boxplus,
    permutation_products,
    phi_p_sum,
    reduced_monomials,
    s_add,
    s_det,
    s_embed_matrix,
    s_mul,
    signed_permutations,
    smile,
)
from boxalg import linalg

F = Fraction

ENTRY_SETS = {
    "small": lambda rng: rng.randint(-2, 2),
    "digits": lambda rng: rng.randint(-9, 9),
    "wide": lambda rng: rng.randint(-99, 99),
    "rational": lambda rng: (F(0) if rng.random() < 0.3
                             else F(rng.randint(-9, 9), rng.randint(1, 6))),
}
# matrices per size; n = 7 costs 13,700 reference monomials each
PER_SIZE = {1: 3, 2: 4, 3: 6, 4: 4, 5: 3, 6: 2, 7: 1}

TOP_CANCELLING = BoxMatrix([[3, 2, 3], [1, 3, 2], [3, 1, 3]])


def _matrices():
    rng = random.Random(20201009)
    out = []
    for name, draw in ENTRY_SETS.items():
        for n, count in PER_SIZE.items():
            for k in range(count):
                A = BoxMatrix([[draw(rng) for _ in range(n)] for _ in range(n)])
                out.append(pytest.param(A, id=f"{name}-n{n}-{k}"))
    return out


MATRICES = _matrices()
SMALL = [p.values[0] for p in MATRICES if p.id.startswith("small-")]


@pytest.fixture
def ring_runs(monkeypatch):
    """Sizes of the matrices on which the group-ring fallback ran."""
    runs = []
    inner = linalg._subset_dp

    def spy(entries, step, one):
        if step is linalg._ring_step:
            runs.append(len(entries))
        return inner(entries, step, one)

    monkeypatch.setattr(linalg, "_subset_dp", spy)
    return runs


def _pair_expansion(rows):
    acc = S_ZERO
    for perm, sign in signed_permutations(len(rows)):
        prod = S_ONE
        for i, j in enumerate(perm):
            prod = s_mul(prod, rows[i][j])
        if sign < 0:
            prod = SPair(prod.minus, prod.plus)
        acc = s_add(acc, prod)
    return acc


def _reference_dominant(ms):
    """Per degree, the largest surviving |coeff| class of the listed
    characteristic monomials and its sign."""
    dom = {}
    for mono in reduced_monomials(ms):
        mag = abs(mono.coeff)
        if mono.degree not in dom or mag > dom[mono.degree][0]:
            dom[mono.degree] = (mag, 1 if mono.coeff > 0 else -1)
    return dom


class TestDeterminants:
    @pytest.mark.parametrize("A", MATRICES)
    def test_det_inf(self, A):
        assert det_inf(A) == nary_boxplus(permutation_products(A))

    @pytest.mark.parametrize("A", MATRICES)
    def test_envelopes(self, A):
        prods = permutation_products(A)
        for mode in ("lower", "upper"):
            assert det_inf_reg(A, mode) == smile(prods, mode)

    @pytest.mark.parametrize("A", MATRICES)
    def test_pair_determinant_of_embedding(self, A):
        rows = s_embed_matrix(A)
        assert s_det(rows) == _pair_expansion(rows)

    def test_pair_determinant_of_general_pairs(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(4):
                rows = [[SPair(F(rng.randint(0, 4)),
                               F(rng.randint(0, 4), rng.randint(1, 3)))
                         for _ in range(n)] for _ in range(n)]
                assert s_det(rows) == _pair_expansion(rows)

    def test_pinned_top_cancelling_matrix_falls_back(self, ring_runs):
        assert nary_boxplus(permutation_products(TOP_CANCELLING)) == 12
        assert det_inf(TOP_CANCELLING) == 12
        assert ring_runs == [3]

    def test_fallback_runs_on_small_integers(self, ring_runs):
        for A in SMALL:
            assert det_inf(A) == nary_boxplus(permutation_products(A))
        assert len(ring_runs) >= 3
        assert max(ring_runs) >= 5

    def test_no_fallback_when_top_survives(self, ring_runs):
        assert det_inf(BoxMatrix([[3, -1, 3], [2, -4, 1], [-4, 5, 3]])) == -48
        assert ring_runs == []


class TestCharacteristic:
    @pytest.mark.parametrize("A", MATRICES)
    def test_eigen_region(self, A):
        ms = char_monomials(A)
        assert linalg._dominant_terms(A, lam=True) == _reference_dominant(ms)
        for lam in eigen_region(A):
            if isinstance(lam, Fraction):
                assert charpoly_eval(ms, lam, "lower") <= 0
                assert charpoly_eval(ms, lam, "upper") >= 0

    def test_eigen_fallback_runs_on_small_integers(self, ring_runs):
        for A in SMALL:
            want = _reference_dominant(char_monomials(A))
            assert linalg._dominant_terms(A, lam=True) == want
        assert len(ring_runs) >= 3

    @pytest.mark.parametrize("A", MATRICES)
    def test_charpoly_eval_modes(self, A):
        ms = char_monomials(A)
        reduced = reduced_monomials(ms)
        lams = (F(0), F(1), F(-1), F(2), F(-3, 2), F(7))
        for lam in lams if A.rows < 6 else lams[-2:]:
            raw = [m.coeff * lam ** m.degree for m in ms]
            assert charpoly_eval(ms, lam, "limit") == nary_boxplus(raw)
            for mode in ("lower", "upper"):
                want = smile([m.coeff * lam ** m.degree for m in reduced], mode)
                assert charpoly_eval(ms, lam, mode) == want
            for p in (0, 3):
                got = charpoly_eval(ms, lam, "p", p=p)
                want = phi_p_sum([SignedLog.from_rational(v) for v in raw], p)
                assert (got.sign, got.logmag, got.exact) == (
                    want.sign, want.logmag, want.exact)
