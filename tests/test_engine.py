"""Subset-DP determinant kernels and net-map readers against the n!
expansions and listings they replace.

Seeded random matrices, n = 1..7, over four entry sets. Small integers make
the top product magnitude cancel often, so the group-ring fallback runs;
wide integers almost never cancel; rationals with zeros exercise the
integer row scaling and the zero-entry skip. Finite-index values are
compared bit for bit: sign, logmag and exact value.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from boxalg import (
    S_ONE,
    S_ZERO,
    BoxMatrix,
    CapacityError,
    SignedLog,
    SPair,
    DomainError,
    char_monomials,
    charpoly_eval,
    det_inf,
    det_inf_reg,
    det_p,
    eigen_region,
    nary_boxplus,
    net_by_magnitude,
    odd_exponent,
    perron_p,
    permutation_products,
    phi_p_sum,
    predict_near_tie,
    reduced_monomials,
    replace_column,
    s_add,
    s_det,
    s_embed_matrix,
    s_mul,
    signed_permutations,
    smile,
    sweep,
)
from boxalg import eigen, linalg, signedlog
from boxalg.cli import _slog, run
from boxalg.core import _net_limit
from boxalg.signedlog import EXACT_BITS, _nth_root_exact, _phi_p_net, _power_sums

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
# one even and two odd products share the top magnitude 1: the counts net
# to -1 while both signs are present
MIXED_PARITY_TOP = BoxMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


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
EDGE_MATRICES = [
    pytest.param(BoxMatrix([[0] * 3] * 3), id="zeros"),
    pytest.param(BoxMatrix([[1, -2, 3], [0, 0, 0], [4, 5, -6]]),
                 id="zero-row"),
    pytest.param(BoxMatrix([[-3]]), id="negative-1x1"),
    pytest.param(TOP_CANCELLING, id="top-cancelling"),
    pytest.param(MIXED_PARITY_TOP, id="mixed-parity-top"),
]
SMALL = [p.values[0] for p in MATRICES if p.id.startswith("small-")]


@pytest.fixture
def dp_runs(monkeypatch):
    """The semiring of every subset-DP run, 'lead', 'ring' or 'packed',
    'top' for each top-magnitude run and 'elim' for each Bareiss
    elimination of a packed matrix. Every factor handed to a run must be
    an int."""
    runs = []
    inner, top, eliminate = (linalg._subset_dp, linalg._top_dp,
                             linalg._kronecker_slots)
    names = {linalg._lead_step: "lead", linalg._ring_step: "ring",
             linalg._packed_step: "packed"}

    def ints(entries):
        assert all(type(a) is int
                   for row in entries for _j, _shift, a, _s in row)

    def spy(entries, width, step, one):
        runs.append(names[step])
        ints(entries)
        return inner(entries, width, step, one)

    def spy_top(entries, width):
        runs.append("top")
        ints(entries)
        return top(entries, width)

    def spy_elimination(M, entries, packing):
        runs.append("elim")
        return eliminate(M, entries, packing)

    monkeypatch.setattr(linalg, "_subset_dp", spy)
    monkeypatch.setattr(linalg, "_top_dp", spy_top)
    monkeypatch.setattr(linalg, "_kronecker_slots", spy_elimination)
    return runs


def _ring_tops(nets):
    """Per slot of a dict ring (:func:`linalg._ring_terms`), its largest
    magnitude and the sign of its count, and the scale S: the tops that
    :func:`linalg._dominant_terms` must read."""
    ring, total = nets
    return {k: (m := max(net), 1 if net[m] > 0 else -1)
            for k, net in ring.items()}, total


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


def _ring_net(M, lam):
    """The net map of the characteristic values of M at lam, read from the
    classes of the group-ring subset DP, as the oracle's charpoly sweep
    reads them."""
    return eigen._net_at(*linalg._ring_terms(M, lam=True), lam)


def _reference_dominant(ms):
    """Per degree, the largest surviving |coeff| class of the listed
    characteristic monomials and its sign."""
    dom = {}
    for mono in reduced_monomials(ms):
        mag = abs(mono.coeff)
        if mono.degree not in dom or mag > dom[mono.degree][0]:
            dom[mono.degree] = (mag, 1 if mono.coeff > 0 else -1)
    return dom


def _dominant(A):
    """:func:`linalg._dominant_terms` of the characteristic monomials, each
    integer magnitude read back over the scale as a Fraction."""
    top, scale = linalg._dominant_terms(A, lam=True)
    return {d: (F(m, scale), s) for d, (m, s) in top.items()}


def _reference_region(ms):
    """Every pairwise tie radius of the reduced classes where lower <= 0 <=
    upper holds exactly, duplicates removed, smallest first.

    A class below the largest of its degree never reaches the top, so the
    pairs and the top run over the largest class per degree. At lam =
    h * q^(1/e) the class values |c| r^d are compared through their e-th
    powers |c|^e q^d, which are rational.
    """
    dom = _reference_dominant(ms)
    found = []  # (h, q, e) with the radius q^(1/e) on the half-line h
    for (d1, (m1, _)), (d2, _) in combinations(sorted(dom.items()), 2):
        q, e = m1 / dom[d2][0], d2 - d1
        keys = {d: m ** e * q ** d for d, (m, _) in dom.items()}
        top = max(keys.values())
        for h in (1, -1):
            signs = {s * (h if d % 2 else 1)
                     for d, (_, s) in dom.items() if keys[d] == top}
            if len(signs) == 2 and not any(
                    hh == h and q ** ee == qq ** e for hh, qq, ee in found):
                found.append((h, q, e))
    reduced = reduced_monomials(ms)
    out = [F(0)] if (charpoly_eval(reduced, 0, "lower") <= 0
                     <= charpoly_eval(reduced, 0, "upper")) else []
    for h, q, e in found:
        root = _nth_root_exact(q, e)
        out.append(h * root if root is not None
                   else h * float(q) ** (1 / e))
    return sorted(out)


TIED_BELOW_TOP = [
    BoxMatrix([[1, 1, 2, 2, 1, 1], [1, 3, 1, 2, 2, 2], [3, 3, 2, 1, 1, 1],
               [3, 1, 2, 1, 2, 2], [1, 3, 3, 3, 2, 2], [2, 2, 2, 1, 2, 3]]),
    BoxMatrix([[8, 4, 4, -9, -4, 2, 3], [7, -9, 6, -5, -6, -7, -1],
               [6, 1, -1, -8, 5, -3, -7], [-4, 1, -3, -7, 2, 3, 1],
               [3, 5, 3, -6, 1, -2, -6], [0, -8, 5, -9, -5, 6, 1],
               [-2, 6, -8, -9, 1, 9, -2]]),
]


class TestBareiss:
    @pytest.mark.parametrize("A", MATRICES + EDGE_MATRICES)
    def test_equals_the_sum_of_the_products(self, A):
        # the integer rows' determinant is det A times the row scales
        want = sum(permutation_products(A)) * math.prod(A._scales)
        assert linalg._bareiss(A._ints) == want

    @pytest.mark.parametrize("rows", [
        [[0, 2, 1], [3, 0, 4], [5, 6, 0]],  # zero leading pivot
        [[1, 1, 1], [1, 1, 2], [1, 2, 1]],  # zero second pivot
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a swap at every step
        [[0, 1], [2, 3]],
        [[0, 1, 2], [0, 3, 4], [5, 6, 7]],
        [[0, 1], [0, 3]],  # no pivot in the column: 0
    ])
    def test_row_swaps(self, rows):
        want = sum(permutation_products(BoxMatrix(rows)))
        assert linalg._bareiss(rows) == want
        assert linalg._bareiss(rows[::-1]) == want * (-1) ** (
            len(rows) * (len(rows) - 1) // 2)

    def test_one_by_one(self):
        assert [linalg._bareiss([[a]]) for a in (-7, 0, 5)] == [-7, 0, 5]


class TestDeterminants:
    @pytest.mark.parametrize("A", MATRICES)
    def test_det_inf(self, A):
        assert det_inf(A) == nary_boxplus(permutation_products(A))

    @pytest.mark.parametrize("A", MATRICES + EDGE_MATRICES)
    def test_envelopes(self, A):
        prods = permutation_products(A)
        for mode in ("lower", "upper"):
            assert det_inf_reg(A, mode) == smile(prods, mode)

    @pytest.mark.parametrize("A", MATRICES + EDGE_MATRICES)
    def test_pair_determinant_of_embedding(self, A):
        rows = s_embed_matrix(A)
        assert s_det(rows) == _pair_expansion(rows)

    def test_mixed_parity_top(self):
        A = MIXED_PARITY_TOP
        assert det_inf(A) == -1
        assert (det_inf_reg(A, "lower"), det_inf_reg(A, "upper")) == (-1, 1)
        assert s_det(s_embed_matrix(A)) == (1, 1)

    def test_pair_determinant_of_general_pairs(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(4):
                rows = [[SPair(F(rng.randint(0, 4)),
                               F(rng.randint(0, 4), rng.randint(1, 3)))
                         for _ in range(n)] for _ in range(n)]
                assert s_det(rows) == _pair_expansion(rows)
        for n in range(1, 7):
            for k in range(3):
                rows = [[SPair(F(rng.randint(0, 4), rng.randint(1, 3)),
                               F(rng.randint(0, 4), rng.randint(1, 3)))
                         for _ in range(n)] for _ in range(n)]
                if k:
                    rows[rng.randrange(n)] = [S_ZERO] * n
                assert s_det(rows) == _pair_expansion(rows)

    def test_pinned_top_cancelling_matrix_falls_back(self, dp_runs):
        # the leading count cancels, so the leading-term run's reader falls
        # back to the group ring; det_inf reads the packed ring at once
        assert nary_boxplus(permutation_products(TOP_CANCELLING)) == 12
        assert linalg._det_lead(TOP_CANCELLING, 9)[2]() == 12
        assert dp_runs == ["lead", "elim"]
        assert det_inf(TOP_CANCELLING) == 12
        assert dp_runs == ["lead", "elim", "elim"]

    def test_fallback_runs_on_small_integers(self, dp_runs):
        fell_back = []
        for A in SMALL:
            dp_runs.clear()
            want = nary_boxplus(permutation_products(A))
            assert linalg._det_lead(A, 9)[2]() == want
            if dp_runs != ["lead"]:
                assert dp_runs == ["lead", "elim"]
                fell_back.append(A.rows)
        assert len(fell_back) >= 3
        assert max(fell_back) >= 5
        # every small matrix packs: det_inf runs one elimination each
        dp_runs.clear()
        for A in SMALL:
            assert det_inf(A) == nary_boxplus(permutation_products(A))
        assert dp_runs == ["elim"] * len(SMALL)

    def test_no_fallback_when_top_survives(self, dp_runs):
        A = BoxMatrix([[3, -1, 3], [2, -4, 1], [-4, 5, 3]])
        assert linalg._det_lead(A, 9)[2]() == -48
        assert dp_runs == ["lead"]
        assert det_inf(A) == -48


def _fraction_listing(A):
    """The characteristic monomials listed with Fraction products."""
    rows = A.to_rows()
    n = len(rows)
    out = [(F(-1 if n % 2 else 1), n)]
    for k in range(1, n + 1):
        outer = F(-1 if (n - k) % 2 else 1)
        for H in combinations(range(n), k):
            for perm, sign in signed_permutations(k):
                prod = outer * sign
                for pos, target in enumerate(perm):
                    prod *= rows[H[pos]][H[target]]
                out.append((prod, n - k))
    return out


class TestCharacteristic:
    @pytest.mark.parametrize("A", MATRICES + [
        pytest.param(BoxMatrix([[0, 0, 0], [F(1, 2), 0, F(2, 3)],
                                [0, F(5, 7), F(-9, 4)]]), id="mixed-denominators"),
        pytest.param(BoxMatrix([[0] * 4] * 4), id="zeros"),
    ])
    def test_char_monomials_match_the_fraction_listing(self, A):
        got = [(m.coeff, m.degree) for m in char_monomials(A)]
        assert got == _fraction_listing(A)
        assert all(type(c) is Fraction for c, _d in got)

    @pytest.mark.parametrize("A", MATRICES)
    def test_dp_values_read_every_mode(self, A):
        # the DP's net map gives the limit and mode 'p'; the envelopes are
        # read from the listing's levels, as the charpoly kind reads them
        ms = char_monomials(A)
        reduced = reduced_monomials(ms)
        levels, scale = eigen._levels(ms)
        lams = (F(0), F(-1), F(2, 3), F(-3, 2), F(7))
        for lam in lams if A.rows < 6 else lams[:3]:
            net = _ring_net(A, lam)
            raw = [m.coeff * lam ** m.degree for m in ms]
            assert _net_limit(net) == nary_boxplus(raw)
            vals = [m.coeff * lam ** m.degree for m in reduced]
            assert eigen._eval_at(levels, scale, lam) == (
                nary_boxplus(raw), smile(vals, "lower"), smile(vals, "upper"))
            for p in (0, 5):
                assert _bits(_phi_p_net(net, (p,))[0]) == _bits(_phi(raw, p))

    @pytest.mark.parametrize("A", MATRICES)
    def test_eigen_region(self, A):
        ms = char_monomials(A)
        assert _dominant(A) == _reference_dominant(ms)
        for lam in eigen_region(A):
            if isinstance(lam, Fraction):
                assert charpoly_eval(ms, lam, "lower") <= 0
                assert charpoly_eval(ms, lam, "upper") >= 0

    @pytest.mark.parametrize("A", MATRICES + [
        pytest.param(A, id=f"tied-below-top-{k}")
        for k, A in enumerate(TIED_BELOW_TOP)])
    def test_eigen_region_is_complete(self, A):
        region = eigen_region(A)
        want = _reference_region(char_monomials(A))
        assert len(region) == len(want)
        for got, ref in zip(region, want):
            if isinstance(ref, Fraction):
                assert type(got) is Fraction and got == ref
            else:
                assert type(got) is float
                assert got == pytest.approx(ref, rel=1e-12)

    def test_eigen_fallback_runs_on_small_integers(self, dp_runs):
        for A in SMALL:
            want = _reference_dominant(char_monomials(A))
            assert _dominant(A) == want
        # every small lam ring packs: one packed DP each
        assert dp_runs == ["packed"] * len(SMALL)

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


def _bits(z):
    """A finite-index value (or a tuple of them, or None) down to its bits."""
    if z is None:
        return None
    if isinstance(z, tuple):
        return tuple(_bits(v) for v in z)
    return (z.sign, z.logmag, z.exact)


def _phi(values, p):
    return phi_p_sum([SignedLog.from_rational(v) for v in values], p)


def _root_of(s, q):
    """The q-th root of an exact sum s: the rational root, exact, when
    there is one, else the root of the sum's log."""
    root = _nth_root_exact(abs(s), q) if s else None
    if root is None:
        return SignedLog.from_rational(s).root(q)
    return SignedLog.from_rational(root if s > 0 else -root)


def _exact_root(values, p):
    """The q-th root of the exact power sum of the values, q = 2p + 1."""
    q = odd_exponent(p)
    return _root_of(sum((v ** q for v in values), F(0)), q)


def _det_p_matrices():
    """Seeded matrices, n = 1..7, on which det_p often cancels: 0..1
    entries, and singular ones (a row the sum of two others, or a
    repeated row) over small integers and rationals."""
    rng = random.Random(20261019)
    out = []
    for n in range(1, 8):
        for k in range(2):
            A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            out.append(pytest.param(BoxMatrix(A), id=f"binary-n{n}-{k}"))
        for name in ("small", "rational"):
            draw = ENTRY_SETS[name]
            A = [[F(draw(rng)) for _ in range(n)] for _ in range(n)]
            if n > 2:
                A[-1] = [a + b for a, b in zip(A[0], A[1])]
            elif n == 2:
                A[1] = A[0]
            out.append(pytest.param(BoxMatrix(A), id=f"singular-{name}-n{n}"))
    return out


DET_P_MATRICES = _det_p_matrices()


def _vectors():
    rng = random.Random(20201017)
    out = []
    for name, draw in ENTRY_SETS.items():
        for k in range(6):
            xs = [F(draw(rng)) for _ in range(rng.randint(1, 40))]
            out.append(pytest.param(xs, id=f"{name}-{k}"))
    return out


SWEEP_P_MAX = 2
SWEEP_TOL = 1e-6


def _check_sweep(rep, limit, values, listings):
    assert rep.limit == limit
    assert [_bits(v) for v in rep.values] == [_bits(v) for v in values]
    assert rep.near_tie == any(predict_near_tie(ms, SWEEP_P_MAX, SWEEP_TOL)
                               for ms in listings)


class TestFiniteIndex:
    @pytest.mark.parametrize("A", MATRICES + EDGE_MATRICES + DET_P_MATRICES)
    def test_det_p(self, A):
        # det_p is the q-th root of det(A^(q)), the exact power sum of the
        # products, exact when that root is rational
        prods = permutation_products(A)
        for p in (0, 1, 3, 7, 12):
            assert _bits(det_p(A, p)) == _bits(_exact_root(prods, p))

    def test_det_p_near_cancellation(self):
        # the two products nearly cancel in logs; the exact determinant
        # of A^(q) is read instead
        z = det_p(BoxMatrix([[10 ** 4, 9999], [10001, 10 ** 4]]), 0)
        assert (z.sign, z.exact, z.to_float()) == (1, 1, 1.0)
        assert _slog(z)["exact"] == "1"
        # det(A^(3)) = 2999999999997000000000001, not a cube; the cube
        # root 144224957.0306927632... sits 1.76 float ulps from exp of its
        # correctly rounded log, so the log is the exact one to 1 ulp and
        # the float is within 2 ulps
        z = det_p(BoxMatrix([[10 ** 6, 10 ** 6 - 1],
                             [10 ** 6 + 1, 10 ** 6]]), 1)
        root = F(1442249570306927632464869174652669, 10 ** 25)
        assert z.sign == 1 and z.exact is None
        assert abs(z.logmag - math.log(root)) <= math.ulp(z.logmag)
        assert abs(z.to_float() - root) <= 2 * math.ulp(float(root))

    def test_det_p_past_the_budget_reads_the_ring(self, dp_runs):
        # q times the bits of the largest product magnitude passes
        # EXACT_BITS at p = 12, so the group ring's power sum is read
        big = 2 ** 3000
        A = BoxMatrix([[big + 1, 3], [-5, big]])
        prods = permutation_products(A)
        assert 25 * (big * (big + 1)).bit_length() > EXACT_BITS
        assert _bits(det_p(A, 12)) == _bits(_phi(prods, 12))
        assert dp_runs == ["ring"]
        assert _bits(det_p(A, 0)) == _bits(_exact_root(prods, 0))
        assert dp_runs == ["ring"]

    def test_det_p_budget_counts_the_row_scales(self, dp_runs):
        # 1/3^8000 has a 1-bit numerator over a 12,680-bit scale: its
        # 129th power is past the budget, so the ring is read, and the
        # lone product is its own exact root
        A = BoxMatrix([[F(1, 3 ** 8000)]])
        z = det_p(A, 64)
        assert dp_runs == ["ring"]
        assert _bits(z) == _bits(_phi(permutation_products(A), 64))
        assert z.exact == F(1, 3 ** 8000)
        assert _bits(det_p(A, 2)) == _bits(_exact_root([F(1, 3 ** 8000)], 2))
        assert dp_runs == ["ring"]

    @pytest.mark.parametrize("A", MATRICES)
    def test_characteristic_value_is_one_determinant(self, A):
        # the q-th powers of the characteristic values at lam = a/b sum to
        # det(A^(q) - lam^q I); row i times s_i^q b^q is integer. The
        # power sums of q = 1, 3, 7 come from one run, each stepped on
        # from the last
        for lam in (F(0), F(-3, 2), F(2)):
            net = _ring_net(A, lam)
            a, b = lam.numerator, lam.denominator
            qs = [odd_exponent(p) for p in (0, 1, 3)]
            for q, power_sum in zip(qs, _power_sums(net, qs)):
                rows = [[x ** q * b ** q - (a ** q * s ** q if i == j else 0)
                         for j, x in enumerate(row)]
                        for i, (row, s) in enumerate(zip(A._ints, A._scales))]
                scale = math.prod(s ** q * b ** q for s in A._scales)
                assert linalg._bareiss(rows) == F(power_sum,
                                                  net[1] ** q) * scale

    @pytest.mark.parametrize("xs", _vectors())
    def test_sum_sweep(self, xs):
        rep = sweep("sum", {"xs": xs}, p_max=SWEEP_P_MAX, tol=SWEEP_TOL)
        values = [_phi(xs, p) for p in range(SWEEP_P_MAX + 1)]
        _check_sweep(rep, nary_boxplus(xs), values, [xs])

    @pytest.mark.parametrize("A", MATRICES)
    def test_det_sweep(self, A):
        rep = sweep("det", {"A": A.to_rows()}, p_max=SWEEP_P_MAX,
                    tol=SWEEP_TOL)
        prods = permutation_products(A)
        values = [_phi(prods, p) for p in range(SWEEP_P_MAX + 1)]
        _check_sweep(rep, nary_boxplus(prods), values, [prods])

    @pytest.mark.parametrize("A", MATRICES)
    def test_cramer_sweep(self, A):
        rng = random.Random(A.rows)
        b = [F(rng.randint(-9, 9)) for _ in range(A.rows)]
        listings = [permutation_products(A)] + [
            permutation_products(replace_column(A, i, b))
            for i in range(1, A.rows + 1)]
        det, *dets = [nary_boxplus(ms) for ms in listings]
        inputs = {"A": A.to_rows(), "b": b}
        if det == 0:
            with pytest.raises(DomainError):
                sweep("cramer", inputs, p_max=SWEEP_P_MAX, tol=SWEEP_TOL)
            return
        rep = sweep("cramer", inputs, p_max=SWEEP_P_MAX, tol=SWEEP_TOL)
        values = []
        for p in range(SWEEP_P_MAX + 1):
            den = _phi(listings[0], p)
            values.append(None if den.is_zero else tuple(
                _phi(ms, p) / den for ms in listings[1:]))
        _check_sweep(rep, tuple(d / det for d in dets), values, listings)

    @pytest.mark.parametrize("A", MATRICES)
    def test_hyperplane_sweep(self, A):
        n = A.rows
        rng = random.Random(n)
        x = [F(rng.randint(-3, 3)) for _ in range(n)]
        points = [A.col(j) for j in range(1, n + 1)]
        rows = A.to_rows()
        ones = tuple(F(1) for _ in range(n))
        row_prods = [permutation_products(BoxMatrix(
            rows[:i] + (ones,) + rows[i + 1:])) for i in range(n)]
        prods = permutation_products(A)
        rep = sweep("hyperplane", {"points": points, "x": x},
                    p_max=SWEEP_P_MAX, tol=SWEEP_TOL)
        values = []
        for p in range(SWEEP_P_MAX + 1):
            q = odd_exponent(p)
            total = -sum(t ** q for t in prods) + sum(
                sum(t ** q for t in ms) * xi ** q
                for ms, xi in zip(row_prods, x))
            values.append(_root_of(total, q))
        _check_sweep(rep, F(0), values, [])

    @pytest.mark.parametrize("A", MATRICES)
    def test_hyperplane_residuals_match_the_bordered_nets(self, A):
        # the residual read before the Bareiss determinant: the power sums
        # of the net maps of V^T and of its rows replaced by ones
        n = A.rows
        rng = random.Random(n)
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        points = A.to_rows()
        rep = sweep("hyperplane", {"points": points, "x": x}, p_max=4,
                    tol=SWEEP_TOL)
        net, *row_nets = linalg._cramer_nets(points, (1,) * n)
        values = []
        for p in range(5):
            q = odd_exponent(p)
            total = -F(next(_power_sums(net, [q])), net[1] ** q) + sum(
                (F(next(_power_sums(ni, [q])), ni[1] ** q) * xi ** q
                 for ni, xi in zip(row_nets, x)), F(0))
            values.append(_root_of(total, q))
        assert [_bits(v) for v in rep.values] == [_bits(v) for v in values]
        assert rep.limit == 0

    @pytest.mark.parametrize("A", MATRICES)
    def test_charpoly_sweep(self, A):
        ms = char_monomials(A)
        for lam in (F(0), F(-3, 2), F(2))[:3 if A.rows < 6 else 2]:
            rep = sweep("charpoly", {"A": A.to_rows(), "lam": lam},
                        p_max=SWEEP_P_MAX, tol=SWEEP_TOL)
            vals = [m.coeff * lam ** m.degree for m in ms]
            values = [_phi(vals, p) for p in range(SWEEP_P_MAX + 1)]
            _check_sweep(rep, nary_boxplus(vals), values, [vals])

    @pytest.mark.parametrize("A", MATRICES)
    def test_charpoly_eval_against_reduced_expansion(self, A):
        ms = char_monomials(A)
        reduced = reduced_monomials(ms)
        for lam in (F(0), F(1), F(-1), F(5, 3))[:4 if A.rows < 6 else 2]:
            vals = [m.coeff * lam ** m.degree for m in reduced]
            assert charpoly_eval(ms, lam, "limit") == nary_boxplus(vals)
            for mode in ("lower", "upper"):
                assert charpoly_eval(ms, lam, mode) == smile(vals, mode)
            for p in (0, 9):
                assert _bits(charpoly_eval(ms, lam, "p", p=p)) == _bits(
                    _phi(vals, p))

    @pytest.mark.parametrize("A", MATRICES)
    def test_dp_classes_match_the_listing(self, A):
        ms = char_monomials(A)
        def exact(classes, scale):
            return {d: {F(m, scale): c for m, c in net.items()}
                    for d, net in classes.items() if net}

        levels, scale = eigen._levels(ms)
        listed = {d: {m: c for m, c in net_by_magnitude(level)[0].items()
                      if c} for d, level in levels.items()}
        assert exact(*linalg._ring_terms(A, lam=True)) == exact(listed, scale)


def _near_cancelling():
    """10^k against -(10^k - 1), k = 1..16: their power sums are small
    differences of large powers, 1 at p = 0."""
    return [[F(10 ** k), F(-(10 ** k - 1))] for k in range(1, 17)]


def _small_vectors():
    rng = random.Random(20261021)
    return [[F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 12))]
            for _ in range(40)]


def _char_identity_matrices():
    """Seeded matrices, n = 1..7, over -2..2, 0..1 and rationals."""
    rng = random.Random(20261022)
    draws = {"small": ENTRY_SETS["small"], "binary": lambda r: r.randint(0, 1),
             "rational": ENTRY_SETS["rational"]}
    return [pytest.param(BoxMatrix([[draw(rng) for _ in range(n)]
                                    for _ in range(n)]), id=f"{name}-n{n}")
            for name, draw in draws.items() for n in range(1, 8)]


class TestExactRoot:
    """Every finite-index value within the exact budget is the root of its
    exact power sum, read here by the tests' own reader, bit for bit."""

    P_VALUES = (0, 1, 2, 5)

    def test_phi_p_sum(self):
        for xs in _small_vectors() + _near_cancelling():
            for p in self.P_VALUES:
                assert _bits(_phi(xs, p)) == _bits(_exact_root(xs, p)), xs

    def test_sum_and_det_sweeps(self):
        for xs in _small_vectors() + _near_cancelling():
            rep = sweep("sum", {"xs": xs}, p_max=5)
            assert [_bits(v) for v in rep.values] == [
                _bits(_exact_root(xs, p)) for p in range(6)]
        for A in SMALL + [BoxMatrix([[10 ** k, 10 ** k - 1],
                                     [10 ** k + 1, 10 ** k]])
                          for k in range(1, 9)]:
            rep = sweep("det", {"A": A.to_rows()}, p_max=5)
            prods = permutation_products(A)
            assert [_bits(v) for v in rep.values] == [
                _bits(_exact_root(prods, p)) for p in range(6)]

    @pytest.mark.parametrize("A", SMALL)
    def test_cramer_sweep(self, A):
        b = [F(v) for v in random.Random(A.rows).choices(range(-2, 3),
                                                          k=A.rows)]
        listings = [permutation_products(A)] + [
            permutation_products(replace_column(A, i, b))
            for i in range(1, A.rows + 1)]
        if nary_boxplus(listings[0]) == 0:
            return
        rep = sweep("cramer", {"A": A.to_rows(), "b": b}, p_max=5)
        for p, v in enumerate(rep.values):
            den, *nums = [_exact_root(ms, p) for ms in listings]
            want = None if den.is_zero else tuple(x / den for x in nums)
            assert _bits(v) == _bits(want)

    def test_near_cancelling_pairs_read_exactly_one(self):
        z = _phi([10 ** 8, -(10 ** 8 - 1)], 0)
        assert (z.sign, z.exact, z.to_float()) == (1, 1, 1.0)
        rep = sweep("det", {"A": [[10 ** 4, 9999], [10001, 10 ** 4]]})
        z = rep.values[0]
        assert (z.sign, z.exact, z.to_float()) == (1, 1, 1.0)
        assert rep.abs_gaps[0] == 10 ** 8 - 1

    def test_a_non_power_runs_no_newton_step(self, monkeypatch):
        # 2 * 10^300 is 2 modulo 7, where the cubes prime to 7 are 1 and 6,
        # so the residue test declines it before any integer root step
        calls = []
        inner = signedlog._iroot

        def spy(k, e):
            calls.append(e)
            return inner(k, e)
        monkeypatch.setattr(signedlog, "_iroot", spy)
        assert _nth_root_exact(Fraction(2 * 10 ** 300), 3) is None
        assert _nth_root_exact(Fraction(3 ** 90, 2 * 10 ** 300), 3) is None
        assert calls == []
        # every e-th power passes the residue test and keeps its root
        rng = random.Random(30)
        for e in range(1, 10):
            for _ in range(20):
                r = Fraction(rng.randint(0, 10 ** 12), rng.randint(1, 10 ** 9))
                assert _nth_root_exact(r ** e, e) == r
        assert calls

    def test_past_the_budget_reads_the_logs(self, monkeypatch):
        # q = 25 times the 3,002 bits of the top magnitude is past the
        # budget, so p = 12 takes the log-sum-exp; p = 0 does not
        calls = []
        inner = signedlog._power_means

        def spy(base, groups, qs):
            calls.append(tuple(qs))
            return inner(base, groups, qs)

        monkeypatch.setattr(signedlog, "_power_means", spy)
        xs = [3 * 2 ** 3000, -(2 ** 3000)]
        assert 25 * (3 * 2 ** 3000).bit_length() > EXACT_BITS
        assert _bits(_phi(xs, 0)) == _bits(_exact_root(xs, 0))
        assert calls == []
        z = _phi(xs, 12)
        assert calls == [(25,)]
        assert z.sign == 1 and z.exact is None
        assert z.logmag == pytest.approx(
            3000 * math.log(2) + math.log(3 ** 25 - 1) / 25, rel=1e-12)
        rep = sweep("sum", {"xs": xs}, p_max=12)
        assert calls[1:] == [(23, 25)]  # 21 * 3,002 is within the budget
        assert [_bits(v) for v in rep.values[:11]] == [
            _bits(_exact_root(xs, p)) for p in range(11)]

    @pytest.mark.parametrize("A", _char_identity_matrices())
    def test_characteristic_identity(self, capsys, A):
        # at lam = a/b the power sum of the characteristic values is
        # det(b^q A^(q) - a^q I) / (S^q b^(qn)); every reader of mode p
        # must read that determinant's root
        n, ms = A.rows, char_monomials(A)
        rows = [[str(a) for a in row] for row in A.to_rows()]
        for lam in (F(0), F(1), F(-3, 2), F(2)):
            a, b = lam.numerator, lam.denominator
            rep = sweep("charpoly", {"A": A.to_rows(), "lam": lam}, p_max=3)
            for p in range(4):
                q = odd_exponent(p)
                det = linalg._bareiss([
                    [x ** q * b ** q - (a ** q * s ** q if i == j else 0)
                     for j, x in enumerate(row)]
                    for i, (row, s) in enumerate(zip(A._ints, A._scales))])
                scale = math.prod(A._scales) ** q * b ** (q * n)
                want = _root_of(F(det, scale), q)
                assert _bits(charpoly_eval(ms, lam, "p", p)) == _bits(want)
                assert _bits(rep.values[p]) == _bits(want)
                problem = {"A": rows, "lam": str(lam), "options": {"p": p}}
                assert run(["charpoly", "--json", json.dumps(problem)]) == 0
                out = json.loads(capsys.readouterr().out)
                assert out["eval_p"] == _slog(want), (lam, p)


def _sign(v):
    return (v > 0) - (v < 0)


def _power_sum_signs(values, p_max):
    """The sign of the exact power sum of the values at p = 0..p_max."""
    return [_sign(sum((v ** odd_exponent(p) for v in values), F(0)))
            for p in range(p_max + 1)]


# the FOUND hyperplane sweep: a 4x4 bordered matrix whose entries have up
# to 1,270 bits, past the budget from p = 11
BIG_POINTS = [[F(1, 3 ** 800), 2, 3], [4, F(5, 7 ** 300), 6], [7, 8, 10 ** 200]]


class TestPastTheBudget:
    """Past the exact budget every finite-index value is read from logs
    relative to the top magnitude, by one reader that decides the sign of
    the exact power sum or declines at a tie its floats cannot resolve,
    and every powered determinant comes from one function."""

    def test_a_tie_in_floats_is_declined(self):
        # 2^3000 + 1 and -2^3000 have equal float logs; their power sum at
        # q = 25 is about 25 * 2^72000, not 0, so the reader raises
        xs = [2 ** 3000 + 1, -(2 ** 3000)]
        assert 25 * (2 ** 3000 + 1).bit_length() > EXACT_BITS
        with pytest.raises(DomainError,
                           match="too close to a tie to decide at p = 12"):
            _phi(xs, 12)
        # 21 times the 3,001 bits is within the budget: read exactly
        assert _bits(_phi(xs, 10)) == _bits(_exact_root(xs, 10))
        # a sweep reads None where phi_p_sum declines and keeps the rest
        rep = sweep("sum", {"xs": xs}, p_max=12)
        assert [_bits(v) for v in rep.values] == [
            _bits(_exact_root(xs, p)) for p in range(11)] + [None, None]
        assert rep.abs_gaps[11:] == rep.rel_gaps[11:] == (math.inf,) * 2
        assert not rep.converged

    @pytest.mark.parametrize("quantity, inputs, declined", [
        # det and hyperplane: the two products 2^3000 + 1 and -2^3000
        ("det", {"A": [[2 ** 3000 + 1, 1], [2 ** 3000, 1]]}, 11),
        ("hyperplane", {"points": [[2 ** 3000 + 1]], "x": [2 ** 3000]}, 11),
        # cramer: det A is 1, x_1's numerator is that difference
        ("cramer", {"A": [[1, 1], [0, 1]], "b": [2 ** 3000 + 1, 2 ** 3000]},
         11),
        # charpoly: lam^2 = 2^6000 and -a_11 lam = -(2^6000 + 2^3000) tie
        # in floats, past the budget from p = 5 (11 * 6,001 bits)
        ("charpoly", {"A": [[2 ** 3000 + 1, 0], [0, 1]], "lam": 2 ** 3000},
         5)])
    def test_every_sweep_reads_none_where_it_declines(self, quantity, inputs,
                                                       declined):
        rep = sweep(quantity, inputs, p_max=12)
        assert None not in rep.values[:declined]
        assert rep.values[declined:] == (None,) * (13 - declined)
        assert rep.abs_gaps[declined:] == (math.inf,) * (13 - declined)

    def test_the_cli_sweep_keeps_the_decided_values(self, capsys):
        xs = [str(2 ** 3000 + 1), str(-(2 ** 3000))]
        problem = {"quantity": "sum", "xs": xs, "options": {"p_max": 12}}
        assert run(["oracle", "--json", json.dumps(problem)]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert values[0] == 1.0
        assert None not in values[:11] and values[11:] == [None, None]

    def test_hyperplane_sweep_reads_one_ring_past_the_budget(self, dp_runs):
        x = [1, 2, 3]
        bordered = BoxMatrix([[*pt, 1] for pt in BIG_POINTS] + [[*x, 1]])
        prods = permutation_products(bordered)
        top = math.prod(max(map(abs, row)) for row in bordered._ints)
        scale = math.prod(bordered._scales)
        start = time.perf_counter()
        rep = sweep("hyperplane", {"points": BIG_POINTS, "x": x}, p_max=64)
        assert time.perf_counter() - start < 2
        assert dp_runs == ["top", "ring"]  # det_inf of V, then the ring
        inside = [p for p in range(65)
                  if signedlog._in_budget(odd_exponent(p), top, scale)]
        assert inside == list(range(12))
        for p, v in enumerate(rep.values):
            q = odd_exponent(p)
            if p in inside:  # the Bareiss root, bit for bit
                want = _root_of(-sum(t ** q for t in prods), q)
            else:
                want = -_phi(prods, p)
            assert _bits(v) == _bits(want), p

    def test_bordered_matrix_is_held_to_the_cap_past_the_budget(self):
        # P is 2x2 within cap 2; its bordered matrix is 3x3, which only the
        # group ring, past the budget, is held to
        small = {"points": [[1, 2], [3, 5]], "x": [1, 1]}
        big = {"points": [[2 ** 3000, 1], [1, 2 ** 3000 + 1]], "x": [1, 1]}
        assert sweep("hyperplane", small, p_max=64, cap=2).values
        assert sweep("hyperplane", big, p_max=3, cap=2).values
        with pytest.raises(CapacityError, match="exceeds the size cap 2"):
            sweep("hyperplane", big, p_max=12, cap=2)
        assert sweep("hyperplane", big, p_max=12).values

    def test_logs_agree_with_the_exact_power_sums(self, monkeypatch):
        # with no exact budget every reading is in logs: phi_p_sum and the
        # sum, det and cramer sweeps must have the exact power sum's sign
        # wherever they decide, and decline only where it is an exact 0;
        # a sweep reads None exactly where phi_p_sum declines
        rng = random.Random(20261024)
        draws = (lambda: F(rng.randint(-4, 4)),
                 lambda: F(rng.randint(-9, 9), rng.randint(1, 6)))
        vectors = [[draws[k % 2]() for _ in range(rng.randint(1, 8))]
                   for k in range(120)] + [[F(3), F(4), F(5), F(-6)]]
        systems = [([[draws[k % 2]() for _ in range(n)] for _ in range(n)],
                    [draws[k % 2]() for _ in range(n)])
                   for k in range(60) for n in [rng.randint(1, 4)]]
        monkeypatch.setattr(signedlog, "EXACT_BITS", -1)
        declined = 0

        def signs(values):
            """The sign phi_p_sum reads at p = 0..5, None where it declines,
            which must be only where the exact power sum is 0. A sweep's
            values read as ``v and v.sign``: a SignedLog is never false."""
            want, out = _power_sum_signs(values, 5), []
            for p in range(6):
                try:
                    out.append(_phi(values, p).sign)
                except DomainError:
                    assert want[p] == 0, (values, p)
                    out.append(None)
                else:
                    assert out[p] == want[p], (values, p)
            return out

        for xs in vectors:
            want = signs(xs)
            declined += want.count(None)
            rep = sweep("sum", {"xs": xs}, p_max=5)
            assert [v and v.sign for v in rep.values] == want, xs
        for A, b in systems:
            listings = [permutation_products(A)] + [
                permutation_products(replace_column(A, i, b))
                for i in range(1, len(A) + 1)]
            den, *nums = map(signs, listings)
            rep = sweep("det", {"A": A}, p_max=5)
            assert [v and v.sign for v in rep.values] == den, A
            if nary_boxplus(listings[0]) == 0:
                continue
            rep = sweep("cramer", {"A": A, "b": b}, p_max=5)
            assert [None if v is None else tuple(x.sign for x in v)
                    for v in rep.values] == [
                None if not d or None in col else tuple(n * d for n in col)
                for d, col in zip(den, zip(*nums))], (A, b)
        assert 0 < declined < 20

    def test_the_euler_identity_is_declined(self, monkeypatch):
        # 3^3 + 4^3 + 5^3 = 6^3: in logs the two parts tie at p = 1 only
        monkeypatch.setattr(signedlog, "EXACT_BITS", -1)
        xs = [3, 4, 5, -6]
        with pytest.raises(DomainError,
                           match="too close to a tie to decide at p = 1"):
            _phi(xs, 1)
        assert [_phi(xs, p).sign for p in (0, 2, 3)] == [1, -1, -1]


CHARPOLY_ENTRIES = {**ENTRY_SETS, "binary": lambda rng: rng.randint(0, 1),
                    "positive": lambda rng: rng.randint(1, 3)}
CHARPOLY_LAMS = (F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(7),
                 F(5, 3))


def _charpoly_cases():
    """Seeded (A, lams, p), n = 1..7, for every entry set: every lam up to
    n = 5, fewer above, where each reference listing is longer."""
    rng = random.Random(20201019)
    out = []
    for name, draw in CHARPOLY_ENTRIES.items():
        for n in range(1, 8):
            A = [[draw(rng) for _ in range(n)] for _ in range(n)]
            lams = rng.sample(CHARPOLY_LAMS, {6: 2, 7: 1}.get(n, 9))
            out.append(pytest.param(A, lams, rng.choice((0, 1, 5, 40)),
                                    id=f"{name}-n{n}"))
    return out


class TestCharpolyKind:
    """The charpoly kind nets its own listing at lam; every value it
    prints must equal charpoly_eval's and a reference: the group-ring net
    map's limit and mode 'p', smile of the reduced values' envelopes."""

    @pytest.mark.parametrize("A, lams, p", _charpoly_cases())
    def test_values_equal_both_readers(self, capsys, A, lams, p):
        M = BoxMatrix(A)
        ms = char_monomials(M)
        rows = [[str(a) for a in row] for row in A]
        reduced = reduced_monomials(ms)
        for lam in lams:
            net = _ring_net(M, lam)
            vals = [m.coeff * lam ** m.degree for m in reduced]
            wants = (_net_limit(net), smile(vals, "lower"),
                     smile(vals, "upper"))
            printed = []
            for options in ({}, {"p": p}):
                problem = {"A": rows, "lam": str(lam), "options": options}
                assert run(["charpoly", "--json", json.dumps(problem)]) == 0
                printed.append(json.loads(capsys.readouterr().out))
            without_p, with_p = printed
            assert "eval_p" not in without_p
            for mode, want in zip(("limit", "lower", "upper"), wants):
                assert charpoly_eval(ms, lam, mode) == want
                assert without_p[f"eval_{mode}"] == str(want), (lam, mode)
                assert with_p[f"eval_{mode}"] == str(want), (lam, mode)
            want = _phi_p_net(net, (p,))[0]
            assert _bits(charpoly_eval(ms, lam, "p", p)) == _bits(want)
            assert with_p["eval_p"] == _slog(want), lam


def _bordered_cases():
    """Seeded (A, b), n = 1..7, each b drawn, zero or a column of A."""
    rng = random.Random(20201018)
    out = []
    for name in ("small", "wide", "rational"):
        draw = ENTRY_SETS[name]
        for n in range(1, 8):
            for b_kind in ("drawn", "zero", "column"):
                A = BoxMatrix([[draw(rng) for _ in range(n)]
                               for _ in range(n)])
                if b_kind == "drawn":
                    b = [draw(rng) for _ in range(n)]
                elif b_kind == "zero":
                    b = [0] * n
                else:
                    b = A.col(rng.randint(1, n))
                out.append(pytest.param(A, tuple(F(v) for v in b),
                                        id=f"{name}-n{n}-{b_kind}"))
    return out


BORDERED = _bordered_cases()


def _exact(nets):
    """A net map ({m: c}, S) keyed by the magnitude m/S as a Fraction."""
    net, scale = nets
    return {F(m, scale): c for m, c in net.items()}


def _with_ones_row(V, i):
    rows = V.to_rows()
    return BoxMatrix(rows[:i] + ((1,) * V.rows,) + rows[i + 1:])


class TestBorderedDP:
    """One subset DP on [A | b] against det A and the n matrices with a
    column replaced by b (or, for hyperplanes, a row replaced by ones)."""

    def test_cases_reach_both_parities_and_the_fallback(self, dp_runs):
        live = {A.rows % 2 for A, _b in (p.values for p in BORDERED)
                if det_inf(A) != 0}
        assert live == {0, 1}
        rung = []  # sizes past a leading-term run
        for A, b in (p.values for p in BORDERED if p.id.startswith("small")):
            dp_runs.clear()
            linalg._cramer_dets(A, b)
            if dp_runs != ["lead"]:
                rung.append(A.rows)
        assert rung and max(rung) == 7

    @pytest.mark.parametrize("A, b", BORDERED)
    def test_dets_match_the_replaced_columns(self, A, b):
        dets = linalg._cramer_dets(A, b)
        assert dets[0] == det_inf(A)
        assert dets[1:] == [det_inf(replace_column(A, i, b))
                            for i in range(1, A.rows + 1)]

    @pytest.mark.parametrize("A, b", BORDERED)
    def test_nets_match_the_replaced_columns(self, A, b):
        nets = [_exact(net) for net in linalg._cramer_nets(A, b)]
        assert nets[0] == _exact(linalg._det_net(A))
        assert nets[1:] == [_exact(linalg._det_net(replace_column(A, i, b)))
                            for i in range(1, A.rows + 1)]

    @pytest.mark.parametrize("A, b", BORDERED)
    def test_hyperplane_rows_of_ones(self, A, b):
        points = A.to_rows()  # as the columns of V
        V = BoxMatrix.from_columns(points)
        ones = (1,) * A.rows
        replaced = [_with_ones_row(V, i) for i in range(A.rows)]
        assert linalg._cramer_dets(points, ones) == [det_inf(V)] + [
            det_inf(M) for M in replaced]
        assert [_exact(net) for net in linalg._cramer_nets(points, ones)] == [
            _exact(linalg._det_net(M)) for M in [V] + replaced]

    def test_bordered_rows_equal_the_constructor(self):
        # [A | b] is built in integers; its rows must be the canonical rows
        # BoxMatrix builds from A's integers and s_i b_i
        rng = random.Random(22)
        seen, tally = [], {"zero b": 0, "rational b": 0, "reduced": 0,
                           "mixed scales": 0, "ones": 0}

        def read(B):
            seen.append(B)
            return {}, 1
        for case in range(120):
            n = 1 + case % 6
            A = BoxMatrix([[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6)))
                            for _ in range(n)] for _ in range(n)])
            if case % 4 == 3:
                b, tally["ones"] = (1,) * n, tally["ones"] + 1
            else:
                b = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 3, 4)))
                          for _ in range(n))
            linalg._cramer_slots(A, b, 9, read, None)
            ref = BoxMatrix((*row, s * v)
                            for row, s, v in zip(A._ints, A._scales, b))
            assert (seen[-1]._ints, seen[-1]._scales) == (ref._ints, ref._scales)
            tally["zero b"] += 0 in b
            tally["rational b"] += any(Fraction(v).denominator > 1 for v in b)
            tally["reduced"] += any(Fraction(s * v).denominator
                                    < Fraction(v).denominator
                                    for s, v in zip(A._scales, b))
            tally["mixed scales"] += len(set(A._scales)) > 1
        assert min(tally.values()) >= 10, tally

    def test_cap_applies_to_n(self):
        A = BoxMatrix.identity(4)
        with pytest.raises(CapacityError, match="size cap 3"):
            linalg._cramer_dets(A, (1,) * 4, cap=3)
        with pytest.raises(CapacityError, match="size cap 3"):
            linalg._cramer_nets(A, (1,) * 4, cap=3)
        assert linalg._cramer_dets(A, (1, 2, 3, 4), cap=4) == [1, 1, 2, 3, 4]


class TestOneBorderedRun:
    """A Cramer-shaped problem runs one elimination of the packed matrix
    when its box is small, else the top-magnitude DP, plus one group-ring
    run when a top count cancels. A det problem with mode lower or
    upper, and a sym problem, runs the leading-term DP and, when its count
    cancels, reads det_inf as a plain det problem does. That one, whatever
    its p, and a hyperplane sweep, whose residuals are Bareiss
    determinants, read det_inf as a Cramer problem does. The other sweeps read whole net
    maps, so they run the dict ring once whatever the entries, and the
    charpoly kind, which nets its listing, runs none. Entries of 17 keep
    every ring in dicts."""

    CANCELLING = TOP_CANCELLING.to_rows()
    WIDE = [[3, -1, 3], [2, -4, 1], [-4, 5, 3]]
    CANCELLING17 = [[17 * a for a in row] for row in CANCELLING]
    WIDE17 = [[17 * a for a in row] for row in WIDE]

    def _limit(self, rows):
        """The runs that read det_inf of rows: one elimination when they
        pack, else the top-magnitude DP and the ring when it cancels."""
        if rows in (self.WIDE17, self.CANCELLING17):
            return ["top"] + ["ring"] * (rows == self.CANCELLING17)
        return ["elim"]

    @pytest.mark.parametrize("rows, expected", [
        (WIDE, ["elim"]), (CANCELLING, ["elim"]),
        (WIDE17, ["top"]), (CANCELLING17, ["top", "ring"])])
    def test_cli_kinds(self, capsys, dp_runs, rows, expected):
        A = [[str(a) for a in row] for row in rows]
        zeros = [["0"] * 3] * 3
        for kind, problem in [
                ("solve", {"A": A, "b": ["1", "2", "3"]}),
                ("twosided", {"A": A, "C": zeros, "b": ["1", "2", "3"],
                              "d": ["0", "0", "0"]}),
                ("hyperplane", {"points": A, "queries": [["1", "1", "1"]]})]:
            dp_runs.clear()
            assert run([kind, "--json", json.dumps(problem)]) == 0
            capsys.readouterr()
            assert dp_runs == expected, kind

    @pytest.mark.parametrize("rows, ring", [
        (WIDE, 0), (CANCELLING, 1), (MIXED_PARITY_TOP.to_rows(), 0),
        ([["1/2", "-2/3", "0"], ["3/4", "5", "-1/6"], ["0", "7/3", "2"]], 0),
        (WIDE17, 0), (CANCELLING17, 1)])
    def test_det_and_sym_kinds_run_lead_dps(self, capsys, dp_runs, rows,
                                            ring):
        A = [[str(a) for a in row] for row in rows]
        for kind, problem, leads in [
                ("det", {"A": A, "options": {"mode": "lower"}}, 1),
                ("det", {"A": A, "options": {"mode": "upper", "p": 3}}, 1),
                ("sym", {"A": A}, 1)]:
            dp_runs.clear()
            assert run([kind, "--json", json.dumps(problem)]) == 0
            capsys.readouterr()
            assert dp_runs == ["lead"] * leads + self._limit(rows) * ring, kind

    @pytest.mark.parametrize("rows", [WIDE, CANCELLING, WIDE17, CANCELLING17])
    def test_plain_det_kind_runs_no_lead_dp_when_it_packs(self, capsys,
                                                         dp_runs, rows):
        A = [[str(a) for a in row] for row in rows]
        for options in ({}, {"mode": "exact"}, {"p": 3}):
            dp_runs.clear()
            problem = {"A": A, "options": options}
            assert run(["det", "--json", json.dumps(problem)]) == 0
            capsys.readouterr()
            assert dp_runs == self._limit(rows), options

    @pytest.mark.parametrize("rows", [WIDE, CANCELLING, WIDE17, CANCELLING17])
    def test_sweeps(self, capsys, dp_runs, rows):
        A = [[str(a) for a in row] for row in rows]
        for problem, expected in [
                ({"quantity": "cramer", "A": A, "b": ["1", "2", "3"]},
                 ["ring"]),
                ({"quantity": "hyperplane", "points": A, "x": ["1", "0", "2"]},
                 self._limit(rows)),
                ({"quantity": "charpoly", "A": A, "lam": "-2/3"}, ["ring"])]:
            dp_runs.clear()
            assert run(["oracle", "--json", json.dumps(problem)]) == 0
            capsys.readouterr()
            assert dp_runs == expected, problem["quantity"]

    @pytest.mark.parametrize("rows, expected", [
        ([[2, 1], [1, 2]], ["packed"]),
        # the degree-0 leading count cancels: one packed run reads past it
        ([[1, 1], [1, 1]], ["packed"]),
        # past the box, the top-magnitude run, then the group ring when
        # the degree-0 top count cancels
        ([[34, 17], [17, 34]], ["top"]),
        ([[17, 17], [17, 17]], ["top", "ring"])])
    def test_eigen_kind(self, capsys, dp_runs, rows, expected):
        assert run(["eigen", "--json", json.dumps({"A": rows})]) == 0
        assert "perron" in json.loads(capsys.readouterr().out)
        assert dp_runs == expected

    @pytest.mark.parametrize("rows", [
        WIDE, CANCELLING,
        [["1/2", "0", "-2"], ["3", "5/3", "1"], ["0", "-1", "7/4"]]])
    @pytest.mark.parametrize("options", [{}, {"p": 3}])
    def test_charpoly_kind_runs_no_dp(self, capsys, dp_runs, rows, options):
        A = [[str(a) for a in row] for row in rows]
        for lam in ("2", "0", "-2/3", None):
            problem = {"A": A, "lam": lam, "options": options}
            assert run(["charpoly", "--json", json.dumps(problem)]) == 0
            capsys.readouterr()
        assert dp_runs == []


LEAD_ENTRIES = {**ENTRY_SETS, "binary": lambda rng: rng.randint(0, 1)}


class TestOneLeadRun:
    """det_inf, both envelopes and the pair determinant of a matrix come
    from one leading-term run, which runs the group ring only when
    det_inf's leading count cancels."""

    def test_pair_is_the_largest_products(self):
        # 1,000 seeded matrices over five entry sets, n = 1..7, and the
        # all-zero ones: the run's (plus, minus) is the embedded pair
        # determinant, the largest positive product and minus the largest
        # negative one; its det_inf is the dominant-magnitude sum
        rng = random.Random(20261020)
        cases = [[[draw(rng) for _ in range(n)] for _ in range(n)]
                 for _ in range(40) for draw in LEAD_ENTRIES.values()
                 for n in range(1, 6)]
        cases += [[[draw(rng) for _ in range(n)] for _ in range(n)]
                  for draw in LEAD_ENTRIES.values() for n in (6, 7)
                  for _ in range(5)]
        cases += [[[0] * n for _ in range(n)] for n in range(1, 8)]
        assert len(cases) >= 1000
        balanced = 0
        for rows in cases:
            A = BoxMatrix(rows)
            prods = permutation_products(A)
            want = (max((v for v in prods if v > 0), default=0),
                    max((-v for v in prods if v < 0), default=0))
            plus, minus, limit = linalg._det_lead(A, 9)
            assert (plus, minus) == want == s_det(s_embed_matrix(A)), rows
            assert limit() == nary_boxplus(prods), rows
            balanced += plus == minus
        assert 100 < balanced < len(cases) - 100

    def test_envelopes_run_no_ring(self, dp_runs):
        assert det_inf_reg(TOP_CANCELLING, "lower") == -27
        assert dp_runs == ["lead"]
        dp_runs.clear()
        assert det_inf(TOP_CANCELLING) == 12
        assert dp_runs == ["elim"]

    def test_one_message_template(self):
        for what, call in [
                ("determinant", lambda A: det_inf(A, 2)),
                ("pair determinant", lambda A: s_det(s_embed_matrix(A), 2))]:
            with pytest.raises(CapacityError, match=(
                    f"^{what} on a 3x3 matrix exceeds the size cap 2$")):
                call(TOP_CANCELLING)
            with pytest.raises(DomainError, match=(
                    f"^{what} needs a square matrix, got 2x3$")):
                call([[1, 2, 3], [4, 5, 6]])

    def test_characteristic_and_perron_inputs_share_the_template(self,
                                                                 capsys):
        wide = [[1, 2, 3], [4, 5, 6]]
        for call in (lambda A: eigen_region(A, cap=2),
                     lambda A: char_monomials(A, 2),
                     lambda A: sweep("charpoly", {"A": A, "lam": 1}, cap=2)):
            with pytest.raises(CapacityError, match=(
                    "^characteristic multiset on a 3x3 matrix exceeds the "
                    "size cap 2$")):
                call(TOP_CANCELLING)
            with pytest.raises(DomainError, match=(
                    "^characteristic multiset needs a square matrix, "
                    "got 2x3$")):
                call(wide)
        with pytest.raises(DomainError, match=(
                "^Perron data needs a square matrix, got 2x3$")):
            perron_p(wide, 1)
        for kind, code in (("charpoly", 3), ("eigen", 3)):
            assert run([kind, "--json", json.dumps({"A": wide})]) == code
            assert json.loads(capsys.readouterr().out) == {
                "error": "characteristic multiset needs a square matrix, "
                         "got 2x3"}


PACKED_ENTRIES = {
    "small": lambda rng: rng.randint(-2, 2),
    "binary": lambda rng: rng.randint(0, 1),
    "positive": lambda rng: rng.randint(1, 3),
    "smooth": lambda rng: rng.choice((1, -1, 2, -2, 3, -3, 4, -4, 6, -6)),
    "rational": lambda rng: Fraction(rng.randint(-3, 3),
                                     rng.choice((1, 2, 3, 4, 6))),
}


class TestPackedRing:
    """The tops read from the group ring packed in ints (each net map one
    int, a count per w-bit digit) against the tops of the ring in dicts,
    on the matrices it takes: magnitudes over the primes 2..13 in a small
    box."""

    # each entry set packs its matrices up to size top: the box grows
    # with n
    @pytest.mark.parametrize("name, top", [
        ("small", 8), ("binary", 8), ("positive", 7), ("smooth", 5),
        ("rational", 5)])
    def test_equals_the_dict_ring(self, name, top):
        draw, rng = PACKED_ENTRIES[name], random.Random(name)
        packed = set()
        for n in range(1, 9):
            for _ in range(3 if n < 7 else 1):
                A = BoxMatrix([[draw(rng) for _ in range(n)]
                               for _ in range(n)])
                bordered = BoxMatrix((*row, draw(rng)) for row in A.to_rows())
                for M, lam in ((A, False), (A, True), (bordered, False)):
                    assert (linalg._dominant_terms(M, lam)
                            == _ring_tops(linalg._ring_terms(M, lam)))
                    if linalg._packing(linalg._dp_entries(M, lam)):
                        packed.add((n, lam, M is bordered))
        for form in ((False, False), (True, False), (False, True)):
            assert {n for n, *f in packed if tuple(f) == form} >= set(
                range(1, top)), form
        assert max(n for n, *_f in packed) == top

    @pytest.mark.parametrize("rows, lam, form", [
        ([[17, 1], [1, 1]], False, "top"),  # 17 is past the primes
        ([["1/17", 0], [1, 1]], False, "elim"),  # a scale off the diagonal
        ([["1/17", 0], [1, 1]], True, "top"),  # lam puts it there
        ([[30, 1, 1], [1, 30, 1], [1, 1, 30]], True, "packed"),  # D = 64
        ([[2 ** 63]], False, "elim"),  # D = 64 from one prime
        ([[2 ** 64]], False, "top"),
        ([[30, 1, 1, 1], [1, 30, 1, 1], [1, 1, 30, 1], [1, 1, 1, 30]],
         False, "top")])  # D = 125
    def test_the_box_chooses_the_ring(self, dp_runs, rows, lam, form):
        # the tops read the form the box allows; past it, the top run
        # settles these; the whole net map always runs in dicts
        M = BoxMatrix(rows)
        assert (linalg._dominant_terms(M, lam)
                == _ring_tops(linalg._ring_terms(M, lam)))
        assert dp_runs == [form, "ring"]

    def test_a_packed_ring_reads_its_tops_in_one_run(self, dp_runs):
        H = [[1]]  # Sylvester's 8x8 Hadamard matrix, det 8^4
        for _ in range(3):
            H = [r + r for r in H] + [r + [-v for v in r] for r in H]
        H = BoxMatrix(H)
        assert linalg._ring_terms(H) == ({0: {1: 4096}}, 1)
        assert linalg._dominant_terms(H) == ({0: (1, 1)}, 1)
        assert dp_runs == ["ring", "elim"]
        dp_runs.clear()
        # det_inf reads the same top from one elimination: the count 4096
        # at magnitude 1 is the ordinary determinant
        assert det_inf(H) == 1 and det_p(H, 0).exact == 4096
        assert dp_runs == ["elim"]

    @pytest.mark.parametrize("name", [*PACKED_ENTRIES, "digits", "wide"])
    def test_the_box_row_by_row_gives_the_whole_verdict(self, name):
        """The packing checks the box after each row; the verdict and the
        layout are those of the box of all rows at once."""
        draw, rng = {**PACKED_ENTRIES, **ENTRY_SETS}[name], random.Random(name)
        for n in range(1, 9):
            for _ in range(4):
                A = BoxMatrix([[draw(rng) for _ in range(n)]
                               for _ in range(n)])
                bordered = BoxMatrix((*row, draw(rng)) for row in A.to_rows())
                for M, lam in ((A, False), (A, True), (bordered, False)):
                    entries = linalg._dp_entries(M, lam)
                    tops, packing = _whole_box(entries), linalg._packing(entries)
                    assert (tops is None) == (packing is None)
                    if tops is not None:
                        w, strides, table, _order = linalg._box(tops, n)
                        assert packing.span == w * len(table)
                        assert packing.shifts == {
                            a: sum(map(mul, linalg._exponents(a), strides))
                            for a in {t[2] for row in entries for t in row}}

    def test_the_first_row_past_the_box_ends_the_check(self):
        def rows():
            yield [(0, 0, 2 ** 40 * 3 ** 2, 1)]  # a box of 41 * 3 digits
            raise AssertionError("read past the box")
        assert linalg._packing(rows()) is None


def _whole_box(entries):
    """The exponents T_p of the product of every row lcm, read at once
    after all rows, or None when a row leaves the primes or the box
    prod_p (T_p + 1) is past ``PACK_BOX``."""
    lcms = []
    for row in entries:
        lcms.append(math.lcm(*{term[2] for term in row}))
        if linalg._PACK_MULTIPLE % lcms[-1]:
            return None
    tops = linalg._exponents(math.prod(lcms))
    if math.prod(t + 1 for t in tops) > linalg.PACK_BOX:
        return None
    return tops


SPIED_ENTRIES = {
    "small": lambda rng: rng.randint(-2, 2),
    "positive": lambda rng: rng.randint(1, 3),
    "wide": lambda rng: rng.randint(-99, 99),
}


class TestOneRingPerReader:
    def test_full_maps_run_the_dict_ring_and_tops_pack_once(
            self, monkeypatch, dp_runs):
        """Every reader of whole net maps runs the dict ring alone; each
        tops read builds its DP terms and tries the packing once; past the
        box it runs the top-magnitude DP once and no leading-term run, and
        a cancelled top count runs the dict ring. A `_det_lead` read builds
        the DP terms once, for its leading-term run, which settles det_inf
        unless its count cancels; then det_inf is read its own way."""
        calls, reads, settled = [], [], set()
        terms, packing = linalg._dp_entries, linalg._packing
        dominant = linalg._dominant_terms

        def spy_terms(M, lam):
            calls.append("terms")
            return terms(M, lam)

        def spy_packing(entries):
            calls.append("packing")
            return packing(entries)

        def spy_dominant(M, lam=False):
            calls.clear()
            out = dominant(M, lam)
            reads.append((calls.count("terms"), calls.count("packing")))
            return out

        monkeypatch.setattr(linalg, "_dp_entries", spy_terms)
        monkeypatch.setattr(linalg, "_packing", spy_packing)
        monkeypatch.setattr(linalg, "_dominant_terms", spy_dominant)
        monkeypatch.setattr(eigen, "_dominant_terms", spy_dominant)
        rng = random.Random(33)
        for name, draw in SPIED_ENTRIES.items():
            for n in range(1, 7):
                A = BoxMatrix([[draw(rng) for _ in range(n)]
                               for _ in range(n)])
                b = [draw(rng) for _ in range(n)]
                bordered = BoxMatrix((*row, v)
                                     for row, v in zip(A.to_rows(), b))
                reads.clear()
                live = det_inf(A) != 0  # a cramer sweep needs det A != 0
                calls.clear()
                limit = linalg._det_lead(A, 9)[2]
                assert calls == ["terms"]
                limit()
                linalg._cramer_dets(A, b)
                eigen_region(A)
                # (terms built, packings tried) per read; the leading-term
                # run reads tops only when its count cancels
                assert len(reads) in (3, 4), (name, n, reads)
                assert set(reads) == {(1, 1)}, reads
                settled.add(len(reads) == 3)
                dp_runs.clear()
                for M, lam in ((A, False), (A, True), (bordered, False)):
                    linalg._ring_terms(M, lam)
                linalg._det_net(A)
                linalg._cramer_nets(A, b)
                sweep("det", {"A": A}, p_max=1)
                sweep("charpoly", {"A": A, "lam": -2}, p_max=1)
                if live:
                    sweep("cramer", {"A": A, "b": b}, p_max=1)
                assert dp_runs == ["ring"] * (7 + live), (name, n)
        assert settled == {True, False}
        # leading counts that cancel, in the box and past it: one tops
        # read, the elimination or the top run and the dict ring
        for rows, runs in ((TestOneBorderedRun.CANCELLING, ["lead", "elim"]),
                           (TestOneBorderedRun.CANCELLING17,
                            ["lead", "top", "ring"])):
            dp_runs.clear()
            limit = linalg._det_lead(BoxMatrix(rows), 9)[2]
            reads.clear()
            limit()
            assert reads == [(1, 1)], reads
            assert dp_runs == runs
        dp_runs.clear()
        for M, lam in ((BoxMatrix(TestOneBorderedRun.CANCELLING17), False),
                       (BoxMatrix([[17, 17], [17, 17]]), True)):
            reads.clear()
            linalg._dominant_terms(M, lam)
            assert dp_runs == ["top", "ring"] and reads == [(1, 1)]
            dp_runs.clear()
        # a top that survives past the box, for each reader of tops
        A = BoxMatrix(TestOneBorderedRun.WIDE17)
        for read in (lambda: det_inf(A), lambda: eigen_region(A),
                     lambda: linalg._cramer_dets(A, (1, 2, 3))):
            dp_runs.clear()
            reads.clear()
            read()
            assert dp_runs == ["top"] and reads == [(1, 1)]


TOP_ENTRIES = {
    "wide": lambda rng: rng.randint(-99, 99),
    "digits": lambda rng: rng.randint(-9, 9),
    "small": lambda rng: rng.randint(-2, 2),
    "nonnegative": lambda rng: rng.randint(0, 3),
    "positive": lambda rng: rng.randint(1, 3),
    "rational": lambda rng: (F(0) if rng.random() < 0.2
                             else F(rng.randint(-9, 9), rng.randint(1, 6))),
}


def _top_cases(name):
    """Seeded square matrices A, n = 1..8, and their bordered [A | b]:
    two per size below 7 and one above, and in every second size a zero
    row in A, which leaves the lam-free slots of A empty."""
    draw, rng = TOP_ENTRIES[name], random.Random(f"top-{name}")
    out = []
    for n in range(1, 9):
        for k in range(2 if n < 7 else 1):
            rows = [[draw(rng) for _ in range(n)] for _ in range(n)]
            if (n + k) % 2:
                rows[rng.randrange(n)] = [0] * n
            A = BoxMatrix(rows)
            b = [draw(rng) for _ in range(n)]
            out.append((A, False))
            out.append((A, True))
            out.append((BoxMatrix((*r, v) for r, v in zip(A.to_rows(), b)),
                        False))
    return out


def _top_run(M, lam):
    """The top-magnitude run on M's DP terms, per slot."""
    return linalg._slots(M, linalg._top_dp(linalg._dp_entries(M, lam),
                                           M.cols))


class TestTopRun:
    """The top-magnitude DP against the two runs it stands for: per slot,
    the larger side of the leading terms with its net count, and the
    largest magnitude of the dict ring, with its net count there."""

    @pytest.mark.parametrize("name", TOP_ENTRIES)
    def test_equals_the_leading_terms_and_the_dict_ring(self, name):
        for M, lam in _top_cases(name):
            entries = linalg._dp_entries(M, lam)
            top = _top_run(M, lam)
            lead, _total = linalg._dp_slots(M, entries, linalg._lead_step,
                                            (1, 1, 0, 0))
            assert top == {k: (max(p, n), cp * (p >= n) - cn * (n >= p))
                           for k, (p, cp, n, cn) in lead.items()}
            ring, _total = linalg._dp_slots(M, entries, linalg._ring_step,
                                            {1: 1})
            assert top == {k: (m := max(net), net[m])
                           for k, net in ring.items()}

    @pytest.mark.parametrize("name", TOP_ENTRIES)
    def test_tops_past_the_box(self, monkeypatch, dp_runs, name):
        """With the packing declined, every tops read runs the top DP once
        and, when some top count nets to zero, the dict ring after it."""
        monkeypatch.setattr(linalg, "_packing", lambda entries: None)
        for M, lam in _top_cases(name):
            cancels = any(not c for _m, c in _top_run(M, lam).values())
            want = _ring_tops(linalg._ring_terms(M, lam))
            dp_runs.clear()
            assert linalg._dominant_terms(M, lam) == want
            assert dp_runs == ["top"] + ["ring"] * cancels, (M, lam)

    def test_cases_reach_every_count(self):
        """Top counts of either sign, ties, cancelled tops in every form,
        and empty slots: the DP's layer dies at a zero row."""
        counts, empty = set(), set()
        for name in TOP_ENTRIES:
            for M, lam in _top_cases(name):
                top = _top_run(M, lam)
                slots = M.rows + 1 if lam or not M.is_square else 1
                if len(top) < slots:
                    empty.add((lam, M.is_square))
                for _m, c in top.values():
                    counts.add((max(-2, min(c, 2)), lam, M.is_square))
        assert {c for c, *_f in counts} == {-2, -1, 0, 1, 2}
        assert {(lam, sq) for c, lam, sq in counts if c == 0} == {
            (False, True), (True, True), (False, False)}
        assert empty == {(False, True), (True, True), (False, False)}


ELIMINATED_ENTRIES = {
    "small": lambda rng: rng.randint(-2, 2),
    "nonnegative": lambda rng: rng.randint(0, 3),
    "positive": lambda rng: rng.randint(1, 3),
}


def _elimination_cases():
    """Seeded square matrices, n = 1..9, and bordered ones, n = 1..8, over
    three entry sets, and the edge cases: two equal rows, a zero row, a
    zero column, and a b with denominators."""
    rng = random.Random(20261021)
    out = []
    for name, draw in ELIMINATED_ENTRIES.items():
        for n in range(1, 10):
            for k in range(3 if n < 8 else 1):
                rows = [[draw(rng) for _ in range(n)] for _ in range(n)]
                out.append(pytest.param(BoxMatrix(rows), id=f"{name}-n{n}-{k}"))
                if n < 9:
                    out.append(pytest.param(
                        BoxMatrix((*row, draw(rng)) for row in rows),
                        id=f"{name}-bordered-n{n}-{k}"))
    twice = [[1, -2, 2, 1], [2, 1, -1, 2], [1, -2, 2, 1], [-2, 2, 1, 1]]
    zero_row = [[2, -1, 1], [0, 0, 0], [1, 2, -2]]
    zero_col = [[2, 0, 1, -1], [1, 0, -2, 2], [-1, 0, 2, 1], [2, 0, 1, 2]]
    for name, rows, b in (("equal-rows", twice, (2, 1, 2, -1)),
                          ("zero-row", zero_row, (1, 0, -2)),
                          ("zero-column", zero_col, (2, 1, 1, -2))):
        out.append(pytest.param(BoxMatrix(rows), id=name))
        out.append(pytest.param(BoxMatrix([*row, v] for row, v in zip(rows, b)),
                                id=f"{name}-bordered"))
    # [A | b] as the Cramer readers build it: s_i b_i = p/q scales A's
    # integers by q
    seen = []
    A = BoxMatrix([[1, -2, 0, 2], [2, 1, -1, 0], [0, 2, 1, -1], [-1, 0, 2, 1]])
    linalg._cramer_slots(A, (F(1, 2), F(-2, 3), F(3, 4), 0), 9,
                         lambda B: seen.append(B) or ({}, 1), None)
    out.append(pytest.param(seen[0], id="fractional-b"))
    return out


ELIMINATION_CASES = _elimination_cases()


def _packed_dp(M, entries, packing):
    """The packed subset DP's slots, without the slots that cancel: the
    DP keeps them as 0 where the elimination has no block."""
    shifts = packing.shifts
    slots, _total = linalg._dp_slots(
        M, [[(j, d, shifts[a], s) for j, d, a, s in row] for row in entries],
        linalg._packed_step, 1)
    return {k: x for k, x in slots.items() if x}


class TestKroneckerElimination:
    """One Bareiss elimination of the packed matrix against the packed DP,
    int for int, and its tops against the dict ring's. The box limit is raised so that every case packs:
    the elimination itself holds for any box, and entries in 0..3 and 1..3
    pass the box of 64 from n = 7 or 8 on."""

    @pytest.fixture(autouse=True)
    def _large_box(self, monkeypatch):
        monkeypatch.setattr(linalg, "PACK_BOX", 4096)

    @pytest.mark.parametrize("M", ELIMINATION_CASES)
    def test_equals_the_packed_dp_and_the_dict_ring(self, M):
        entries = linalg._dp_entries(M, False)
        packing = linalg._packing(entries)
        slots = linalg._kronecker_slots(M, entries, packing)
        assert slots == _packed_dp(M, entries, packing)
        ring = linalg._ring_terms(M)
        assert set(slots) == set(ring[0])
        assert linalg._dominant_terms(M) == _ring_tops(ring)

    def test_cases_reach_every_block(self):
        # bordered blocks at both parities of n + j, of both signs, and
        # the edge cases where every count cancels
        parities, signs, sizes = set(), set(), set()
        for M in (p.values[0] for p in ELIMINATION_CASES):
            entries = linalg._dp_entries(M, False)
            packing = linalg._packing(entries)
            assert packing is not None
            slots = linalg._kronecker_slots(M, entries, packing)
            sizes.add((M.rows, M.is_square))
            if not M.is_square:
                for j, x in slots.items():
                    parities.add((M.rows + j) % 2)
                    signs.add((x > 0) == ((M.rows + j) % 2 == 0))
        assert parities == {0, 1} and signs == {True, False}
        assert {n for n, square in sizes if square} == set(range(1, 10))
        assert {n for n, square in sizes if not square} == set(range(1, 9))
        for name in ("equal-rows", "equal-rows-bordered", "zero-row",
                     "zero-row-bordered"):
            M = next(p.values[0] for p in ELIMINATION_CASES if p.id == name)
            assert linalg._ring_terms(M)[0] == {}, name
        M = next(p.values[0] for p in ELIMINATION_CASES
                 if p.id == "zero-column-bordered")
        assert set(linalg._ring_terms(M)[0]) == {1}

    def test_digits_are_read_in_magnitude_order(self):
        # a packed map's top is read from the largest magnitude down, and
        # mixed-radix index order is not magnitude order: in the box of
        # 2^2 and 3^1, idx(3) > idx(4)
        _w, _strides, table, order = linalg._box((2, 1, 0, 0, 0, 0), 2)
        assert table.index(3) > table.index(4)
        assert [m for m, _at in order] == sorted(table, reverse=True)

    def test_no_lam_free_packed_determinant_runs_the_packed_dp(
            self, capsys, dp_runs):
        rng = random.Random(31)
        for n in range(1, 8):
            A = BoxMatrix([[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)])
            b = [rng.randint(-2, 2) for _ in range(n)]
            det_inf(A)
            linalg._cramer_dets(A, b)
            linalg._det_lead(A, 9)[2]()
            rows = [[str(a) for a in row] for row in A.to_rows()]
            for kind, problem in [
                    ("det", {"A": rows}),
                    ("solve", {"A": rows, "b": b}),
                    ("hyperplane", {"points": rows, "queries": [[1] * n]})]:
                run([kind, "--json", json.dumps(problem)])
            capsys.readouterr()
        assert "packed" not in dp_runs and "ring" not in dp_runs
        assert dp_runs.count("elim") >= 5 * 7

    def test_eigen_region_runs_the_packed_dp(self, dp_runs):
        rng = random.Random(32)
        for n in range(1, 7):
            A = BoxMatrix([[rng.randint(1, 3) for _ in range(n)]
                           for _ in range(n)])
            eigen_region(A)
            assert dp_runs == ["packed"], n
            dp_runs.clear()


# a 12x12 system with entries in -2..2 whose det A leading count cancels:
# the positive and the negative top product 4096 each count 472. The
# installed command line solves it at BOXALG_CAP=12.
CANCELLING12 = {
    "A": [[0, 0, -1, -1, -1, -1, -1, -1, -2, 2, -1, 0],
          [-2, 1, -1, 2, -2, 0, -1, -2, 0, 1, 1, -1],
          [0, 0, -1, 1, 2, 2, 1, 0, 1, 0, -2, 0],
          [2, 0, 1, 2, 2, -1, 1, 1, 2, -1, 0, -1],
          [-1, 2, 0, 0, 0, 1, 0, 2, 0, 1, -1, 2],
          [1, 2, -1, 2, -1, -1, 0, -1, -2, 1, 1, 1],
          [-2, 1, -2, -1, -1, 1, 1, 0, -1, 1, 0, 0],
          [-1, 0, 2, -1, 2, -1, 1, -1, 2, -2, 2, 2],
          [-2, 0, 2, 2, 0, -1, 0, -1, -1, 2, -2, -1],
          [-1, -2, 1, 2, 2, 2, -2, 1, 0, -2, 2, -2],
          [-1, 0, -2, 1, 0, 0, 2, 2, -2, 1, 2, 0],
          [-2, -2, 0, 0, -1, 1, 2, 2, 2, 1, -1, -1]],
    "b": [0, -2, 1, 2, -1, -1, 0, 1, -1, 0, 1, 2]}
CANCELLING12_X = [2, -2, -2, 2, 2, -2, -2, 2, -2, -2, -2, 2]


# a 12x12 matrix with entries in -99..99, past the box: its top product
# WIDE12_DET, the larger of the leading terms, counts once. The installed
# command line reads it at BOXALG_CAP=12.
WIDE12 = [[93, -52, -75, -19, 93, -5, -23, 85, -83, -75, -55, -33],
          [-59, 76, -1, 67, 2, 35, -8, -9, 54, -37, 36, -28],
          [41, -86, -70, 47, 33, 32, 39, 5, 56, -24, -21, 40],
          [-10, -73, 25, -80, 42, -42, -25, 16, 7, 83, 68, -96],
          [22, -57, -10, -57, 83, -12, -20, 89, 25, -69, 36, 52],
          [-30, -3, 63, 82, 9, -16, 54, -72, -69, 15, -81, 44],
          [43, 16, 44, -30, 1, 20, 20, -13, -66, 20, -74, -74],
          [-64, 73, -22, -90, 52, 63, -25, 55, 39, 27, 19, 99],
          [70, 9, -98, 41, -52, -81, -25, -62, -60, 23, -62, 5],
          [-84, -86, 36, -71, -21, 22, -59, 86, -77, -48, 18, 29],
          [55, 20, -8, -10, -27, -9, 45, 96, -67, 37, -29, -47],
          [-31, -5, -36, 84, 27, 8, 3, 94, 68, 20, -19, 12]]
WIDE12_DET = 69518831585288442255360


class TestPastTheDefaultCap:
    def test_wide_12x12_det_from_one_top_run(self, capsys, monkeypatch,
                                             dp_runs):
        rng = random.Random(1962)
        assert WIDE12 == [[rng.randint(-99, 99) for _ in range(12)]
                          for _ in range(12)]
        A = BoxMatrix(WIDE12)
        dp_runs.clear()
        assert linalg._det_lead(A, 12)[2]() == WIDE12_DET
        assert dp_runs == ["lead"]  # its leading count settles it
        monkeypatch.setenv("BOXALG_CAP", "12")
        dp_runs.clear()
        assert run(["det", "--json", json.dumps({"A": WIDE12})]) == 0
        assert json.loads(capsys.readouterr().out)["det_inf"] == str(
            WIDE12_DET)
        assert dp_runs == ["top"]

    def test_cancelling_12x12_system_from_the_dict_ring(self, capsys,
                                                        monkeypatch):
        A, b = BoxMatrix(CANCELLING12["A"]), CANCELLING12["b"]
        lead = linalg._dp_slots(A, linalg._dp_entries(A, False),
                                linalg._lead_step, (1, 1, 0, 0))
        assert lead == ({0: (4096, 472, 4096, 472)}, 1)  # it cancels

        def read(B):
            return _ring_tops(linalg._ring_terms(B))
        slots, total = linalg._cramer_slots(A, b, 12, read, (0, 1))
        det, *dets = [F(s * m * c, total) for (m, c), s in slots]
        assert det == 2048
        assert [d / det for d in dets] == CANCELLING12_X
        assert linalg._cramer_dets(A, b, 12) == [det, *dets]
        monkeypatch.setenv("BOXALG_CAP", "12")
        for kind, problem in (("det", {"A": CANCELLING12["A"]}),
                              ("solve", CANCELLING12)):
            assert run([kind, "--json", json.dumps(problem)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["det_inf"] == "2048", kind
        assert out["x"] == [str(x) for x in CANCELLING12_X]
