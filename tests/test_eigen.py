"""Characteristic monomials, eigenvalue regions, and positive spectra."""

import contextlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxalg import (
    BoxMatrix,
    CapacityError,
    DomainError,
    Monomial,
    SignedLog,
    boxtimes_eig_check,
    char_monomials,
    charpoly_eval,
    eigen_region,
    expected_monomial_count,
    nary_boxplus,
    perron_p,
    phi_p_sum,
    reduced_monomials,
    signed_permutations,
    smile,
)
from boxalg import cli, eigen
from boxalg.core import _net_limit
from boxalg.eigen import _char_levels, _eval_at, _heap_tables, _net_at
from boxalg.signedlog import _nth_root_exact, _phi_p_net

F = Fraction
REL = 1e-9

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


class TestMonomials:
    def test_expected_counts(self):
        assert [expected_monomial_count(n) for n in (1, 2, 3, 4)] == [
            2, 5, 16, 65,
        ]

    def test_two_by_two_multiset(self):
        ms = char_monomials(BoxMatrix([[2, 1], [1, 2]]))
        got = sorted((m.coeff, m.degree) for m in ms)
        assert got == [(F(-2), 1), (F(-2), 1), (F(-1), 0), (F(1), 2), (F(4), 0)]

    def test_zero_coefficients_are_kept(self):
        ms = char_monomials(BoxMatrix([[0, 2], [1, 0]]))
        assert len(ms) == 5
        assert sorted((m.coeff, m.degree) for m in ms) == [
            (F(-2), 0), (F(0), 0), (F(0), 1), (F(0), 1), (F(1), 2),
        ]

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.lists(entries, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_count_invariant(self, rows):
        ms = char_monomials(BoxMatrix(rows))
        assert len(ms) == 16
        top = [m for m in ms if m.degree == 3]
        assert len(top) == 1 and top[0].coeff == F(-1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            char_monomials(BoxMatrix([[1] * 8 for _ in range(8)]))

    def test_reduction_nets_per_degree_and_magnitude(self):
        ms = [Monomial(F(2), 1), Monomial(F(-2), 1), Monomial(F(3), 0)]
        assert reduced_monomials(ms) == (Monomial(F(3), 0),)
        ms = [Monomial(F(2), 1), Monomial(F(2), 1)]
        assert reduced_monomials(ms) == (
            Monomial(F(2), 1), Monomial(F(2), 1),
        )


class TestEvaluation:
    def test_envelope_values_pinned(self):
        ms = char_monomials(BoxMatrix([[2, 1], [1, 2]]))
        assert charpoly_eval(ms, F(2), "lower") == F(-4)
        assert charpoly_eval(ms, F(2), "upper") == F(4)

    def test_three_by_three_envelopes(self):
        ms = char_monomials(BoxMatrix([[1, 2, 1], [2, 2, 9], [1, 1, 3]]))
        assert charpoly_eval(ms, F(3), "lower") == F(-27)
        assert charpoly_eval(ms, F(3), "upper") == F(27)

    def test_finite_exponent_stays_exact_after_cancellation(self):
        """At lambda = 2 the dominant terms of this multiset net to zero,
        leaving a single survivor, so every exponent gives exactly -1."""
        ms = char_monomials(BoxMatrix([[2, 1], [1, 2]]))
        for p in (0, 2, 9):
            z = charpoly_eval(ms, F(2), "p", p=p)
            assert z.exact == F(-1)

    def test_limit_value(self):
        ms = char_monomials(BoxMatrix([[2, 1], [1, 2]]))
        assert charpoly_eval(ms, F(2), "limit") == F(-1)

    def test_bad_mode(self):
        ms = char_monomials(BoxMatrix([[1]]))
        with pytest.raises(DomainError):
            charpoly_eval(ms, F(1), "sideways")

    def test_degree_must_be_an_int(self):
        # a degree is read as given, never truncated or parsed: 1.5 would
        # evaluate as degree 1, and "2" or True as a degree they are not
        for degree in (1.5, 2.0, "2", True, False, None, -1):
            ms = [(F(1), degree), (F(1), 0)]
            with pytest.raises(DomainError, match="not an int >= 0"):
                charpoly_eval(ms, 2)
            with pytest.raises(DomainError, match="not an int >= 0"):
                reduced_monomials(ms)
        assert charpoly_eval([(F(1), 1), (F(1), 0)], 2) == 2

    @pytest.mark.parametrize("mono", [(1,), 1, (1, 2, 3), [], "ab", None,
                                      {1: 2, 3: 4}], ids=repr)
    def test_malformed_monomial(self, mono):
        message = f"not a monomial: {mono!r}"
        for mode, p in (("limit", None), ("upper", None), ("p", 2)):
            with pytest.raises(DomainError) as err:
                charpoly_eval([(F(1), 0), mono], 2, mode, p)
            assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            reduced_monomials([mono])
        assert str(err.value) == message

    def test_lists_and_tuples_of_two_are_monomials(self):
        ms = [Monomial(F(1), 2), [F(-3), 1], ("1/2", 0)]
        assert charpoly_eval(ms, 2) == -6
        assert reduced_monomials(ms) == (Monomial(F(1, 2), 0),
                                         Monomial(F(-3), 1),
                                         Monomial(F(1), 2))


def _inversion_sign(perm) -> int:
    """The parity sign of a permutation from its inversion count."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _reference_listing(rows):
    """The characteristic listing in Fractions, one monomial per (H, sigma):
    (-1)^(n-k) sgn(sigma) prod_t a[H_t][H_sigma(t)] of degree n - k, with
    the empty subset first, then k ascending, the subsets in combinations
    order and the permutations in Heap order. Every Heap sign is checked
    against the inversion count's parity on the way."""
    n = len(rows)
    out = [(F((-1) ** n), n)]
    for k in range(1, n + 1):
        perms = list(signed_permutations(k))
        assert all(sign == _inversion_sign(perm) for perm, sign in perms)
        for H in combinations(range(n), k):
            for perm, sign in perms:
                coeff = math.prod(rows[H[t]][H[u]] for t, u in enumerate(perm))
                out.append((F((-1) ** (n - k) * sign * coeff), n - k))
    return out


class TestListingReference:
    """:func:`char_monomials` against a listing that never reads the
    column tables."""

    POOLS = {"-2..2": range(-2, 3), "0..1": range(2), "-99..99": range(-99, 100)}

    @pytest.mark.parametrize("pool", POOLS)
    def test_integer_matrices(self, pool):
        rng = random.Random(pool)
        for n in range(1, 8):
            rows = [[F(rng.choice(self.POOLS[pool])) for _ in range(n)]
                    for _ in range(n)]
            got = [(m.coeff, m.degree) for m in char_monomials(BoxMatrix(rows))]
            assert got == _reference_listing(rows)
            assert len(got) == expected_monomial_count(n)

    def test_rows_with_different_denominators(self):
        rng = random.Random(22)
        for n in range(1, 8):
            rows = [[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
                     for _ in range(n)] for _ in range(n)]
            M = BoxMatrix(rows)
            if n > 2:
                assert len(set(M._scales)) > 1
            got = [(m.coeff, m.degree) for m in char_monomials(M)]
            assert got == _reference_listing(rows)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_column_table_read_by_rows(self, k):
        """Every permutation and its sign rebuilt from the tables: perm[j]
        from the block table of j (blocks of j! permutations), perm[0],
        perm[1] and the sign from the pair entry."""
        blocks, pairs = _heap_tables(k)
        assert len(pairs) == math.factorial(k)
        rebuilt = []
        for m, entry in enumerate(pairs):
            sign, (x, y) = -1 if entry >= k * k else 1, divmod(entry % (k * k), k)
            tail = [block[m // math.factorial(j)]
                    for j, block in zip(range(k - 1, 1, -1), blocks)]
            rebuilt.append(((x, y, *reversed(tail)), sign))
        assert rebuilt == list(signed_permutations(k))
        # the listing reads the signs as alternating from +1
        assert [s for _p, s in rebuilt] == [(-1) ** m for m in range(len(rebuilt))]

    def test_eight_by_eight_under_a_raised_cap(self):
        # no workload lists k = 8; the default cap stops at 7
        rng = random.Random(8)
        rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
        got = [(m.coeff, m.degree) for m in char_monomials(rows, cap=8)]
        assert len(got) == expected_monomial_count(8) == 109601
        assert got == _reference_listing(rows)  # in order, so as multisets


# hand-built levels, the coefficients c per degree, each c over SCALE: a
# zero coefficient, a +-9 pair cancelling at degree 2's largest |c| (its
# envelope must read 4), and a degree (1) whose every class cancels
LISTING_LEVELS = {2: [9, -9, 4, 0, -1, 9, 0, -9, -1, 0, 0, -1, 0],
                  1: [6, 0, -6, 0],
                  0: [2, -5, 2]}
# group-ring classes {m > 0: net count}, one count negative at the top
RING_TALLIES = {3: {1: 1}, 2: {5: -2, 3: 1}, 1: {4: 3}, 0: {7: -1}}
SCALE = 6


def _bits(x):
    return x.sign, x.logmag, x.exact


@pytest.fixture
def whole_map_reads(monkeypatch):
    """The levels each :func:`_net_at` call nets, as :func:`_eval_at`
    reaches it."""
    reads = []

    def spy(levels, scale, lam):
        reads.append(levels)
        return _net_at(levels, scale, lam)

    monkeypatch.setattr(eigen, "_net_at", spy)
    return reads


class TestValuesAt:
    """:func:`_net_at` nets the levels while it evaluates them, and
    :func:`_eval_at` reads the limit and the envelopes; every reading is
    checked against references that never call them. Group-ring (DP)
    classes only ever feed :func:`_net_at`."""

    @staticmethod
    def _monomials(tallies):
        # each listed c; |count| copies of c, of -c for a negative (ring)
        # count
        return [Monomial(F(c if k > 0 else -c, SCALE), d)
                for d, t in tallies.items()
                for c, k in (t.items() if isinstance(t, dict)
                             else Counter(t).items())
                for _ in range(abs(k))]

    @pytest.mark.parametrize("tallies", [LISTING_LEVELS, RING_TALLIES],
                             ids=["listing", "ring"])
    @pytest.mark.parametrize("lam", [F(0), F(1), F(3), F(-2, 3), F(-7, 2)],
                             ids=str)
    def test_every_mode_against_the_expansion(self, tallies, lam):
        ms = self._monomials(tallies)
        vals = [m.coeff * lam ** m.degree for m in ms]
        net = _net_at(tallies, SCALE, lam)
        assert 0 not in net[0]
        assert _net_limit(net) == nary_boxplus(vals)
        for p in (0, 1, 7):
            want = phi_p_sum([SignedLog.from_rational(v) for v in vals], p)
            assert _bits(_phi_p_net(net, (p,))[0]) == _bits(want)
        if tallies is LISTING_LEVELS:
            reduced = [m.coeff * lam ** m.degree for m in reduced_monomials(ms)]
            assert _eval_at(tallies, SCALE, lam) == (
                nary_boxplus(vals), smile(reduced, "lower"),
                smile(reduced, "upper"))

    def test_cancelled_top_class_is_passed_over(self):
        # at lam = 3 the cancelled +-9 class of degree 2 (81) would top
        # every value; all three read the surviving 4 * 9 = 36
        assert _eval_at(LISTING_LEVELS, SCALE, F(3)) == (F(36, SCALE),) * 3


class TestTopValues:
    """:func:`_eval_at` on the listings' own levels, against the whole
    net map and against an expansion of the listing: the limit is the
    dominant-magnitude sum of the values, the envelopes are smile of the
    reduced values. The inputs must reach all three ways of reading: every
    top class settles, a degree's top class cancels and its keys are
    scanned, and the top count nets to 0 so the whole map is read."""

    POOLS = {"-99..99": range(-99, 100), "-2..2": range(-2, 3),
             "0..1": range(2), "small-rational": [0, F(1, 2), F(-3, 4), 2,
                                                  F(5, 3), -1]}
    LAMS = [F(0), F(-3), F(2), F(1, 2), F(-5, 3)]

    @classmethod
    def _matrices(cls):
        rng = random.Random(24)
        for pool in cls.POOLS.values():
            for n in range(1, 8):
                yield [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        for n in range(1, 8):  # skew-symmetric: odd k cancels whole
            rows = [[0] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                rows[i][j] = rng.randint(-9, 9)
                rows[j][i] = -rows[i][j]
            yield rows

    def test_agrees_with_the_full_pass(self):
        # the limit of the whole net map, which only a top count netting
        # to 0 makes _eval_at read
        for rows in self._matrices():
            levels, scale = _char_levels(BoxMatrix(rows))
            for lam in self.LAMS:
                assert _eval_at(levels, scale, lam)[0] == _net_limit(
                    _net_at(levels, scale, lam)), (rows, lam)

    def test_every_way_of_reading_against_the_expansion(self,
                                                        whole_map_reads):
        outcomes = Counter()
        for rows in self._matrices():
            ms = char_monomials(BoxMatrix(rows))
            reduced = reduced_monomials(ms)
            levels, scale = _char_levels(BoxMatrix(rows))
            for lam in self.LAMS:
                vals = [m.coeff * lam ** m.degree for m in reduced]
                want = (nary_boxplus(m.coeff * lam ** m.degree for m in ms),
                        smile(vals, "lower"), smile(vals, "upper"))
                whole_map_reads.clear()
                assert _eval_at(levels, scale, lam) == want, (rows, lam)
                # a degree at lam^d != 0 whose top class c cancels
                scanned = any(lam ** d and t.count(c) == t.count(-c)
                              for d, t in levels.items()
                              for c in [max(max(t), -min(t))])
                outcomes["whole map" if whole_map_reads else
                         "scanned" if scanned else "settled"] += 1
        assert len(outcomes) == 3, outcomes

    def test_falls_back_where_a_read_class_cancels(self, whole_map_reads):
        # a cancelled +-9 class of degree 2 tops the surviving 4 at lam = 3:
        # degree 2 is scanned, and the value read settles the limit
        assert _eval_at(LISTING_LEVELS, SCALE, F(3))[0] == F(36, SCALE)
        assert not whole_map_reads
        # 4 - 2 * 4 + 4: the top value nets to 0 over three degrees, and
        # the limit is read from the whole map
        levels, scale = _char_levels(BoxMatrix([[2, 1], [1, 2]]))
        assert _eval_at(levels, scale, F(2)) == (F(-1), F(-4), F(4))
        assert whole_map_reads == [levels]
        # at lam = 4 degree 2 alone is on top
        assert _eval_at(levels, scale, F(4)) == (F(16),) * 3
        assert whole_map_reads == [levels]

    @pytest.mark.parametrize("lam", LAMS, ids=str)
    def test_charpoly_eval_reads_either_way(self, lam):
        # from the monomials' levels or from the listing's integer levels
        for rows in self._matrices():
            if len(rows) > 5:
                continue
            ms = char_monomials(BoxMatrix(rows))
            levels, scale = _char_levels(BoxMatrix(rows))
            net = _net_at(levels, scale, lam)
            want = _eval_at(levels, scale, lam)
            assert want[0] == _net_limit(net)
            for mode, value in zip(("limit", "lower", "upper"), want):
                assert charpoly_eval(ms, lam, mode) == value
            assert _bits(charpoly_eval(ms, lam, "p", 3)) == _bits(
                _phi_p_net(net, (3,))[0])


@pytest.fixture
def counters_made(monkeypatch):
    """The argument of each ``Counter`` that :mod:`boxalg.eigen` builds."""
    made = []

    class Spy(Counter):
        def __init__(self, *args, **kwargs):
            made.append(args[0] if args else None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(eigen, "Counter", Spy)
    return made


def _charpoly_kind(problem):
    """The ``charpoly`` kind's exit code and parsed output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["charpoly", "--json", json.dumps(problem)])
    return code, json.loads(buf.getvalue())


# a 7x7 matrix with entries in -99..99, whose top classes settle
A7W = [[83, -1, 50, -53, -44, -57, -50], [-56, 72, 75, -76, 81, 94, -61],
       [81, -27, 86, 97, -96, 13, 20], [85, 63, -70, -92, 33, -56, 26],
       [90, 14, 75, -22, 28, -78, 76], [95, -34, 57, -59, 75, -16, -21],
       [-80, 39, 67, -6, 70, -91, -45]]


class TestListForm:
    """The listing's per-degree coefficient lists are the one form the
    evaluator reads: a degree is tallied only when its top class cancels,
    and every reading equals the reduced multiset's."""

    def test_settled_listing_builds_no_counter(self, counters_made):
        code, out = _charpoly_kind({"A": A7W, "lam": -3})
        assert code == 0 and out["count"] == expected_monomial_count(7)
        assert counters_made == []

    def test_cancelled_top_class_builds_one_counter(self, counters_made):
        # degree 0's top class 8 cancels at lam = -1; the scanned class 4
        # is the value read
        rows = [[2, -2, 1], [1, 2, -2], [2, 0, -2]]
        code, out = _charpoly_kind({"A": rows, "lam": -1})
        assert code == 0
        assert [out["eval_" + m] for m in ("limit", "lower", "upper")] == [
            "-4", "-4", "-4"]
        levels, _scale = _char_levels(BoxMatrix(rows))
        assert counters_made == [levels[0]]

    POOLS = {"-2..2": range(-2, 3), "0..3": range(4),
             "-99..99": range(-99, 100),
             "fractional": [F(a, b) for a in range(-5, 6) for b in (1, 2, 3)]}
    LAMS = [F(0), F(1), F(-1), F(2), F(-2), F(-2, 3), F(5, 2)]

    @pytest.mark.parametrize("pool", POOLS)
    def test_every_reading_against_the_reduced_multiset(self, pool):
        rng = random.Random(f"list-form/{pool}")
        for n in range(1, 8):
            rows = [[rng.choice(self.POOLS[pool]) for _ in range(n)]
                    for _ in range(n)]
            listed = [Monomial(c, d) for c, d in _reference_listing(rows)]
            reduced = reduced_monomials(listed)
            ms = char_monomials(BoxMatrix(rows))
            for lam in self.LAMS:
                vals = [m.coeff * lam ** m.degree for m in reduced]
                want = [nary_boxplus(vals), smile(vals, "lower"),
                        smile(vals, "upper")]
                p3 = phi_p_sum([SignedLog.from_rational(v) for v in vals], 3)
                got = [charpoly_eval(ms, lam, mode)
                       for mode in ("limit", "lower", "upper")]
                assert got == want, (rows, lam)
                assert _bits(charpoly_eval(ms, lam, "p", 3)) == _bits(p3)
                code, out = _charpoly_kind(
                    {"A": [[str(a) for a in row] for row in rows],
                     "lam": str(lam), "options": {"p": 3}})
                assert code == 0
                assert [out["eval_" + m] for m in ("limit", "lower", "upper")
                        ] == [str(v) for v in want], (rows, lam)
                assert out["eval_p"] == json.loads(json.dumps(cli._slog(p3)))


class TestRegion:
    def test_symmetric_two_by_two(self):
        assert eigen_region(BoxMatrix([[2, 1], [1, 2]])) == [F(2)]

    def test_all_ones(self):
        assert eigen_region(BoxMatrix([[1, 1], [1, 1]])) == [F(0), F(1)]

    def test_three_by_three_with_negative_members(self):
        region = eigen_region(BoxMatrix([[1, 2, 1], [2, 2, 9], [1, 1, 3]]))
        assert region == [F(-3), F(-2), F(3)]

    def test_irrational_radius_reported_as_float(self):
        region = eigen_region(BoxMatrix([[0, 2], [1, 0]]))
        assert len(region) == 2
        assert all(isinstance(x, float) for x in region)
        assert region[0] == pytest.approx(-(2 ** 0.5), rel=REL)
        assert region[1] == pytest.approx(2 ** 0.5, rel=REL)

    def test_equal_radii_give_one_member(self):
        # the radius 8 is q^(1/e) for several (q, e) whose float roots
        # differ in the last bit; no float copy of 8 may join the region
        A = BoxMatrix([[7, 8, 2, 8], [8, 7, 1, 4], [5, 2, 8, 5], [7, 1, 9, 6]])
        assert eigen_region(A) == [F(-8), F(49, 8), F(8)]

    def test_radius_read_from_its_tie(self):
        # the degrees 0 and 6 tie at sqrt(6) below the top; the radius is
        # read from the tie on top, degrees 2 and 4
        A = BoxMatrix([[1, 1, 2, 2, 1, 1], [1, 3, 1, 2, 2, 2],
                       [3, 3, 2, 1, 1, 1], [3, 1, 2, 1, 2, 2],
                       [1, 3, 3, 3, 2, 2], [2, 2, 2, 1, 2, 3]])
        region = eigen_region(A)
        assert region == [-math.sqrt(6), F(2), math.sqrt(6), F(3)]
        assert [type(x) for x in region] == [float, F, float, F]

    def test_radii_past_float_range(self):
        big = 10 ** 400
        assert eigen_region(BoxMatrix([[big, 1], [1, 1]])) == [F(1), F(big)]
        assert eigen_region(BoxMatrix([[0, 2 * big ** 2], [1, 0]])) == [
            -math.inf, math.inf]
        assert _nth_root_exact(F(3 ** 600, 7 ** 300), 3) == F(3 ** 200,
                                                               7 ** 100)
        assert _nth_root_exact(F(2 * big ** 2), 2) is None

    def test_region_values_satisfy_sign_sandwich(self):
        A = BoxMatrix([[1, 2, 1], [2, 2, 9], [1, 1, 3]])
        ms = char_monomials(A)
        for lam in eigen_region(A):
            assert charpoly_eval(ms, F(lam), "lower") <= 0
            assert charpoly_eval(ms, F(lam), "upper") >= 0


class TestPositiveSpectrum:
    def test_exponent_zero_matches_classical_radius(self):
        rho, v = perron_p(BoxMatrix([[2, 1], [1, 2]]), 0)
        assert rho.to_float() == pytest.approx(3.0, rel=REL)
        assert max(z.to_float() for z in v) == pytest.approx(1.0, rel=REL)

    def test_large_exponent_approaches_limit(self):
        rho, _ = perron_p(BoxMatrix([[2, 1], [1, 2]]), 10)
        assert rho.to_float() == pytest.approx((2 ** 21 + 1) ** (1 / 21),
                                               rel=REL)

    def test_requires_strictly_positive_entries(self):
        with pytest.raises(DomainError):
            perron_p(BoxMatrix([[1, 0], [0, 1]]), 3)

    @pytest.mark.parametrize("hi", [99, 3])
    def test_value_inside_its_vectors_exact_bracket(self, hi):
        # the Collatz-Wielandt bracket [min, max] of (Bx)_i / x_i holds
        # rho(B) for every positive x; here it is exact, in Fractions,
        # against the integer B = A^(q) and the returned vector
        rng = random.Random(hi)
        for n in range(2, 8):
            for _ in range(3):
                A = [[rng.randint(1, hi) for _ in range(n)] for _ in range(n)]
                for p in (0, 5, 10, 20):
                    q = 2 * p + 1
                    rho, vec = perron_p(A, p)
                    x = [F(v.to_float()) for v in vec]
                    assert max(x) == 1 and min(x) > 0
                    ratios = [sum(a ** q * xj for a, xj in zip(row, x)) / xi
                              for row, xi in zip(A, x)]
                    lo, hi_ = math.log(min(ratios)), math.log(max(ratios))
                    assert hi_ - lo < 1e-11
                    assert lo - 1e-12 <= q * rho.logmag <= hi_ + 1e-12

    @staticmethod
    def _within_friedland_bound(A, p):
        # mu <= rho(A^(q))^(1/q) <= n^(1/q) mu, with mu the maximum cycle
        # geometric mean, the top of the eigen region; compared in logs
        q, n = 2 * p + 1, len(A)
        log_mu = math.log(max(eigen_region(A)))
        slack = 1e-12 * max(1.0, abs(log_mu))
        rho, vec = perron_p(A, p)
        assert log_mu - slack <= rho.logmag
        assert rho.logmag <= log_mu + math.log(n) / q + slack
        assert max(v.logmag for v in vec) == 0.0

    @pytest.mark.parametrize("A, p", [
        # B = A^(q) scaled by its largest entry alone is nilpotent in floats
        ([[1, 10 ** 8], [1, 1]], 64),
        ([[10 ** 8, 1], [1, 1]], 20),
    ])
    def test_friedland_bound_far_apart_entries(self, A, p):
        self._within_friedland_bound(A, p)

    def test_friedland_bound_wide_entries(self):
        rng = random.Random(30)
        for n in range(2, 7):
            for _ in range(4):
                A = [[rng.randint(1, 10 ** rng.randint(0, 30))
                      for _ in range(n)] for _ in range(n)]
                for p in (0, 7, 20, 64):
                    self._within_friedland_bound(A, p)


class TestEigenCheck:
    def test_pinned_true_case(self):
        A = BoxMatrix([[1, 2, 1], [2, 2, 9], [1, 1, 3]])
        assert boxtimes_eig_check(A, F(3), (F(2), F(3), F(1))) is True

    def test_pinned_false_case(self):
        A = BoxMatrix([[1, 1], [1, 1]])
        assert boxtimes_eig_check(A, F(0), (F(1), F(1))) is False
        assert boxtimes_eig_check(A, F(1), (F(1), F(1))) is True

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            boxtimes_eig_check(BoxMatrix([[1]]), F(1), (F(0),))

    def test_each_row_and_the_vector_are_read_once(self, scalar_passes):
        # the product reads no vector it computes
        assert boxtimes_eig_check([[2, 0], [0, 1]], 2, [1, 0]) is True
        assert scalar_passes == [[2, 0], [0, 1], [1, 0]]
