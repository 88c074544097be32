"""Matrices and determinants over the limit algebra.

The determinant here is the usual signed sum over permutations, except the
sum is the dominant-magnitude operation from :mod:`boxalg.core` (or one of
its semicontinuous envelopes, or a finite-index power sum).

No determinant here lists the n! products. One subset DP sums them in
one of two semirings; each state is keyed by the set of used columns
and the degree of lam, so a plain determinant takes O(2^n n) steps. The
leading terms keep the largest positive and the largest negative
magnitude with their counts. One run of them (:func:`_det_lead`) gives
the balance-pair determinant of :mod:`boxalg.sym` (the two magnitudes),
which holds both regularized ones; the group ring, the whole net map
({m: net signed count}, S), runs when their net count cancels. A read of
tops alone needs less: the top-magnitude DP (:func:`_top_dp`) keeps per
state the largest |product| and its net count, the max-times semiring
with multiplicities, in a loop of its own on the same keys. A
:class:`BoxMatrix` keeps each row as integers over the row's own scale,
which the DP reads as they are, so every magnitude is an integer m over
one scale S, the product of the row scales, and the maps pass on in
that form. The same DP with a_ii - lam on the diagonal, a term of
degree 1, keeps one state per degree and gives the per-degree net maps
of the characteristic monomials (:mod:`boxalg.eigen`). On the bordered
matrix [A | b] its last layer holds Cramer's n + 1 determinants, one per
left-out column: without b, det A; without column i, the minor
(-1)^(n-1-i) det A_i(b), the sign of moving b from the last column to
column i. The listing (:func:`permutation_products`, Heap's algorithm)
stays as public API and as the tests' reference expansion.

Each reader fixes the form of the group ring it runs. The readers of
whole net maps (:func:`_ring_terms`: the oracle's sweeps and
:func:`_powered_dets` past the budget) run it in dicts. The one reader
of tops, :func:`_dominant_terms`, packs it in one int per map by
Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009;
:func:`_packing`) when every entry magnitude (with lam, every row scale
too) factors over the primes 2..13 and the box D = prod_p (T_p + 1) is
at most 64, T_p the sum of the rows' largest exponents of p: each
product magnitude m is a digit idx(m) < D of w = bit_length(n!) + 1
bits, and an entry a is sgn(a) 2^(w idx|a|). Without lam, a packed ring
is one Bareiss elimination of that packed matrix
(:func:`_kronecker_slots`), O(n^3) integer steps: det commutes with the
packing map, every product's exponents stay inside the box and every net
count stays below 2^(w-1), so the integer determinant is the packed net
map. The bordered [A | b] gains the row (Y^0, ..., Y^n), Y = 2^(w D),
which places the minor that leaves out column j in a block of its own,
Y^j, with the sign (-1)^(n+j). The lam ring is one top run
(:func:`_top_dp`) with every magnitude 1 and each sign s times 2^(w
idx(a)), the packed factor a: every step ties, so each state's count is
the packed net map of its partial products, and putting lam in further
blocks would make the integers n + 1 times longer. Either way only each
slot's top digit is read, at once, in place of a top run and then a
ring; a ring that does not pack runs the top-magnitude DP on its
magnitudes and then the dict ring when a top count cancels.

The finite-index determinant needs no DP: the sum of the signed products
raised to the power q = 2p + 1 is det(A^(q)), the ordinary determinant of
the entrywise power, an integer over S^q. Fraction-free elimination
(Bareiss, Math. Comp. 22, 1968) gives that integer exactly in O(n^3)
steps, and ``signedlog._root`` reads the value from it. It runs while the
powers fit the package's exact budget (``signedlog._in_budget``, on the
largest product magnitude and S); past it ``signedlog._phi_p_net`` reads
the group ring's net map. :func:`_powered_dets` owns that choice, for
``det_p`` and the oracle's ``hyperplane`` residual.

Determinant-flavored operations take a size cap; one check, :func:`_checked`,
raises :class:`~boxalg.errors.CapacityError` past it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (LOWER, UPPER, _array, _envelope, _net_limit, _scalars,
                   as_vector)
from .errors import CapacityError, DomainError
from .signedlog import (SignedLog, _decided, _in_budget, _over_lcm, _phi_p_net,
                        _root, net_by_magnitude, odd_exponent)

BoxVector = tuple[Fraction, ...]

DEFAULT_DET_CAP = 9


class BoxMatrix:
    """Immutable rational matrix with 1-based element helpers.

    Row i is kept from construction as integers over its scale s_i, the
    lcm of the row's denominators: a canonical form, which the integer
    readers take as it is. Fraction rows are built per call.
    """

    __slots__ = ("_ints", "_scales")

    def __init__(self, rows: Iterable[Iterable]):
        scaled = [_over_lcm(_scalars(r)) for r in _array(rows, "rows")]
        if not scaled:
            raise DomainError("matrix must have at least one row")
        ints, self._scales = zip(*scaled)
        width = len(ints[0])
        if any(len(r) != width for r in ints):
            raise DomainError("rows have inconsistent lengths")
        self._ints = tuple(map(tuple, ints))

    @classmethod
    def _from_ints(cls, ints, scales) -> "BoxMatrix":
        """A matrix from integer rows over scales, already canonical."""
        M = cls.__new__(cls)
        M._ints, M._scales = tuple(map(tuple, ints)), tuple(scales)
        return M

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable]) -> "BoxMatrix":
        """The matrix with the vectors ``cols`` as its columns."""
        cols = _columns([_scalars(c) for c in _array(cols, "columns")])
        return cls._transposed(list(zip(*cols)))

    @classmethod
    def _transposed(cls, cols: Sequence[Sequence]) -> "BoxMatrix":
        """The matrix whose rows are the checked :func:`_columns` ``cols``,
        already scalars (:func:`~boxalg.core._scalars`), read as they are:
        the transpose of ``from_columns(cols)``."""
        return cls._from_ints(*zip(*map(_over_lcm, _columns(cols))))

    @classmethod
    def identity(cls, n: int) -> "BoxMatrix":
        if n < 1:
            raise DomainError(f"identity size must be positive, got {n}")
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._ints)

    @property
    def cols(self) -> int:
        return len(self._ints[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> BoxVector:
        self._check_row(i)
        return _fractions(self._ints[i - 1], self._scales[i - 1])

    def col(self, j: int) -> BoxVector:
        self._check_col(j)
        return tuple(Fraction(r[j - 1], s)
                     for r, s in zip(self._ints, self._scales))

    def entry(self, i: int, j: int) -> Fraction:
        self._check_row(i)
        self._check_col(j)
        return Fraction(self._ints[i - 1][j - 1], self._scales[i - 1])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entry(*ij)

    def minor(self, i: int, j: int) -> "BoxMatrix":
        """Submatrix with row i and column j removed (1-based)."""
        self._check_row(i)
        self._check_col(j)
        if self.rows < 2 or self.cols < 2:
            raise DomainError("minor needs at least a 2x2 matrix")
        rows = self.to_rows()
        return BoxMatrix(r[:j - 1] + r[j:] for r in rows[:i - 1] + rows[i:])

    def to_rows(self) -> tuple[BoxVector, ...]:
        return tuple(map(_fractions, self._ints, self._scales))

    def _check_row(self, i: int) -> None:
        if not isinstance(i, int) or not 1 <= i <= self.rows:
            raise DomainError(f"row index {i!r} out of range 1..{self.rows}")

    def _check_col(self, j: int) -> None:
        if not isinstance(j, int) or not 1 <= j <= self.cols:
            raise DomainError(f"column index {j!r} out of range 1..{self.cols}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoxMatrix) and self._ints == other._ints
                and self._scales == other._scales)

    def __hash__(self) -> int:
        return hash((self._ints, self._scales))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.to_rows())
        return f"BoxMatrix[{body}]"


def _columns(cols: Sequence[Sequence]) -> Sequence[Sequence]:
    """The columns of a matrix, once there is one and all have one length."""
    if not cols:
        raise DomainError("matrix must have at least one column")
    if any(len(c) != len(cols[0]) for c in cols):
        raise DomainError("columns have inconsistent lengths")
    return cols


def _fractions(ints: Iterable[int], scale: int) -> BoxVector:
    """The integers over scale, as Fractions."""
    return tuple(map(Fraction, ints) if scale == 1
                 else (Fraction(a, scale) for a in ints))


def as_matrix(value) -> BoxMatrix:
    return value if isinstance(value, BoxMatrix) else BoxMatrix(value)


def signed_permutations(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (permutation of 0..n-1, parity sign) via Heap's algorithm."""
    perm = list(range(n))
    sign = 1
    yield tuple(perm), sign
    c = [0] * n
    i = 0
    while i < n:
        if c[i] < i:
            if i % 2 == 0:
                perm[0], perm[i] = perm[i], perm[0]
            else:
                perm[c[i]], perm[i] = perm[i], perm[c[i]]
            sign = -sign
            yield tuple(perm), sign
            c[i] += 1
            i = 0
        else:
            c[i] = 0
            i += 1


def _checked(A, cap: float, what: str = "determinant") -> BoxMatrix:
    """A as a square matrix within ``cap``; ``what`` names it in each fault."""
    M = as_matrix(A)
    n = M.rows
    if not M.is_square:
        raise DomainError(f"{what} needs a square matrix, got {n}x{M.cols}")
    if n > cap:
        raise CapacityError(f"{what} on a {n}x{n} matrix exceeds the size cap {cap}")
    return M


def permutation_products(A, cap: int = DEFAULT_DET_CAP) -> tuple[Fraction, ...]:
    """The n! signed products sgn(s) * prod_i a[i, s(i)], in Heap order."""
    rows = _checked(A, cap).to_rows()
    out = []
    for perm, sign in signed_permutations(len(rows)):
        prod = Fraction(sign)
        for i, j in enumerate(perm):
            prod *= rows[i][j]
            if prod == 0:
                break
        out.append(prod)
    return tuple(out)


# --- subset DP ---------------------------------------------------------------


def _subset_dp(entries, width, step, one):
    """Semiring sum over all permutations of the products of chosen entries.

    ``entries[i]`` lists the terms (j, shift, a, s) of row i: in column j,
    the factor a with sign s, times lam**shift; a is an integer magnitude
    > 0. A state key is the mask of the used columns plus the degree of
    lam times 2**width, and holds the semiring sum over the partial
    permutations that reach it. Taking column j adds one inversion per
    used column above j, so the sign flips when their count is odd.
    ``step(acc, value, a, s)`` returns acc plus value * s * a; acc is None
    for the semiring zero and may be updated in place. Returns the last
    layer, {key: sum}, empty when every product is zero.
    """
    layer = {0: one}
    top = 1 << width
    for row in entries:
        terms = [(1 << j, top - (2 << j), (1 << j) + (shift << width), a, s)
                 for j, shift, a, s in row]
        nxt: dict = {}
        get = nxt.get
        for key, value in layer.items():
            for bit, above, inc, a, s in terms:
                if not key & bit:
                    k = key + inc
                    nxt[k] = step(get(k), value, a,
                                  -s if (key & above).bit_count() & 1 else s)
        layer = nxt
    return layer


@cache
def _free_columns(width: int) -> tuple[tuple[int, ...], ...]:
    """Per mask of used columns, 2 j + o for each free column j, where
    o = 1 when the used columns above j are odd in number, which flips
    the sign of taking j (:func:`_subset_dp`); built once per width, on
    first use."""
    return tuple(tuple(2 * j + ((mask >> j).bit_count() & 1)
                       for j in range(width) if not mask >> j & 1)
                 for mask in range(1 << width))


def _top_dp(entries, width) -> dict[int, tuple[int, int]]:
    """The largest |product| and its net signed count per key of
    :func:`_subset_dp`, on the same terms and keys.

    A state holds (m, c): the largest magnitude m of the partial products
    that reach it and the net signed count of those at m. Every factor is
    > 0, so a prefix below its state's m stays below on every way on, and
    a product of the largest magnitude of its key passes only through
    states where its prefix holds m: the last layer holds each key's top
    magnitude and its net count, which may be 0. A step multiplies m by
    the factor and c by the sign, negated by the parity; a larger m replaces
    the state and an equal one adds the counts. A key's mask has one bit
    per row taken, so each key lies in one layer, and the states sit in
    two flat lists over all keys, m = 0 where no product reaches. A sign
    may be any int: with the factor 1 and the sign s 2^(w idx(a)) in place
    of a and s, every step ties and c is the packed net map
    (:func:`_packing`).
    """
    free, full = _free_columns(width), (1 << width) - 1
    degree = sum(max((term[1] for term in row), default=0) for row in entries)
    mags = [0] * ((degree + 1) << width)
    counts = mags[:]
    mags[0] = counts[0] = 1
    layer = [0]
    for row in entries:
        terms = [[] for _ in range(2 * width)]  # at 2 j + o, o flips s
        for j, shift, a, s in row:
            inc = (1 << j) + (shift << width)
            terms[2 * j].append((inc, a, s))
            terms[2 * j + 1].append((inc, a, -s))
        nxt: list[int] = []
        reach = nxt.append
        for key in layer:
            m, c = mags[key], counts[key]
            for at in free[key & full]:
                for inc, a, s in terms[at]:
                    k, p = key + inc, m * a
                    old = mags[k]
                    if old < p:
                        if not old:
                            reach(k)
                        mags[k], counts[k] = p, c * s
                    elif old == p:
                        counts[k] += c * s
        layer = nxt
    return {k: (mags[k], counts[k]) for k in layer}


def _lead_step(acc, value, a, s):
    """Leading terms: (P, cp, N, cn), the largest positive magnitude P with
    its count cp and the largest negative magnitude N with its count cn; a
    sign with no term reads 0, 0. A negative factor swaps the sides; a sum
    takes each side's maximum and adds the counts on a tie."""
    if s > 0:
        p, cp, n, cn = value
    else:
        n, cn, p, cp = value
    p *= a
    n *= a
    if acc is not None:
        q, cq, r, cr = acc
        if p < q:
            p, cp = q, cq
        elif p == q:
            cp += cq
        if n < r:
            n, cn = r, cr
        elif n == r:
            cn += cr
    return p, cp, n, cn


def _ring_step(acc, value, a, s):
    """Group ring: {magnitude: net signed count}."""
    if acc is None:
        acc = {}
    for m, c in value.items():
        m *= a
        acc[m] = acc.get(m, 0) + s * c
    return acc


#: the primes a packed ring's magnitudes factor over, and its largest box
PACK_PRIMES = (2, 3, 5, 7, 11, 13)
PACK_BOX = 64
# a multiple of every lcm over PACK_PRIMES with each exponent below the box
_PACK_MULTIPLE = math.prod(PACK_PRIMES) ** (PACK_BOX - 1)


@lru_cache(maxsize=1024)
def _exponents(m: int) -> tuple[int, ...]:
    """The exponent of each of ``PACK_PRIMES`` in m."""
    out = []
    for p in PACK_PRIMES:
        e = 0
        while not m % p:
            m //= p
            e += 1
        out.append(e)
    return tuple(out)


@lru_cache(maxsize=256)
def _box(tops: tuple[int, ...], n: int
         ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple]:
    """The packed layout of n rows whose exponents of ``PACK_PRIMES`` sum
    to at most ``tops``: the digit width w = bit_length(n!) + 1, the shift
    of one more factor p for each prime p, the magnitude at each digit, in
    mixed radix with radix T_p + 1 for p, and (magnitude, shift) of every
    digit, largest magnitude first: index order is not magnitude order
    (idx(3) > idx(4))."""
    w = math.factorial(n).bit_length() + 1
    strides, table = [], [1]
    for p, t in zip(PACK_PRIMES, tops):
        strides.append(w * len(table))
        table = [m * p ** e for e in range(t + 1) for m in table]
    order = sorted(((m, w * i) for i, m in enumerate(table)), reverse=True)
    return w, tuple(strides), tuple(table), tuple(order)


class _Packing(NamedTuple):
    """How a group ring packs into ints (:func:`_packing`)."""
    shifts: dict[int, int]  # {magnitude a: its shift w idx(a)}
    span: int  # the bits w D of one packed map
    top: Callable[[int], tuple[int, int] | None]  # its top (m, sign of c)


def _packing(entries) -> _Packing | None:
    """How the group ring of the DP terms ``entries`` packs into ints, or
    None.

    It packs when every magnitude factors over ``PACK_PRIMES`` and the
    box D = prod_p (T_p + 1) is at most ``PACK_BOX``, T_p the sum over
    rows of the row's largest exponent of p: the exponent of p in the
    product of the rows' lcms. Every product then has a mixed-radix index
    idx(m) < D, and idx of a product is the sum of its factors' idx. A
    state's net count at one magnitude is at most its number of terms,
    i!/d! <= n! (i rows, d factors lam), so each count is a signed digit
    of w = bit_length(n!) + 1 bits (:func:`_box`), and a factor a is the
    shift w idx(a)."""
    lcms = 1
    for row in entries:  # the box only grows row by row
        lcm = math.lcm(*{term[2] for term in row})
        lcms *= lcm
        if _PACK_MULTIPLE % lcm or math.prod(  # the box D: divisors of lcms
                t + 1 for t in _exponents(lcms)) > PACK_BOX:
            return None
    w, strides, table, order = _box(_exponents(lcms), len(entries))
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = half * ((1 << w * len(table)) - 1) // mask  # half in every digit

    def top(x: int) -> tuple[int, int] | None:
        """The largest magnitude whose count in a packed map is not 0,
        with the sign of that count; None when every count is 0. The bias
        lifts every digit to c + 2^(w - 1) in [0, 2^w), so no digit
        borrows, and its xor leaves the digits with c != 0 the only ones
        set."""
        x += bias
        above = (x ^ bias).bit_length()  # every digit from here up is 0
        for m, at in order:
            if at < above and (digit := x >> at & mask) != half:
                return m, 1 if digit > half else -1
        return None
    mags = {term[2] for row in entries for term in row}
    return _Packing({a: sum(map(mul, _exponents(a), strides)) for a in mags},
                    w * len(table), top)


def _dp_entries(M: BoxMatrix, lam: bool) -> list[list[tuple]]:
    """M's rows as the integer terms of :func:`_subset_dp`, with a_ii - lam
    on the diagonal with ``lam``: lam's factor is the row scale s_i."""
    entries = []
    for i, (row, scale) in enumerate(zip(M._ints, M._scales)):
        line = []
        for j, a in enumerate(row):
            if a:
                line.append((j, 0, abs(a), 1 if a > 0 else -1))
            if lam and i == j:
                line.append((j, 1, scale, -1))
        entries.append(line)
    return entries


def _slots(M: BoxMatrix, layer: dict) -> dict:
    """The last layer of a DP on M's terms per slot. A square M uses every
    column, so a final key's bits above the mask give the slot, the degree
    of lam; a bordered one leaves one column out, which is the slot."""
    width = M.cols
    if M.is_square:
        return {key >> width: v for key, v in layer.items()}
    full = (1 << width) - 1
    return {(full ^ key).bit_length() - 1: v for key, v in layer.items()}


def _dp_slots(M: BoxMatrix, entries, step, one) -> tuple[dict, int]:
    """The subset DP of M's terms ``entries`` (:func:`_dp_entries`) per
    slot (:func:`_slots`), and the scale S of every term. Each term takes
    one factor per row, so it scales by S, the product of M's row scales,
    which keeps magnitude order and ties."""
    return (_slots(M, _subset_dp(entries, M.cols, step, one)),
            math.prod(M._scales))


def _kronecker_slots(M: BoxMatrix, entries, packing) -> dict[int, int]:
    """The packed net map of each slot of a lam-free M (:func:`_dp_slots`)
    by one Bareiss elimination of its Kronecker image, where an entry a is
    sgn(a) 2^(w idx|a|) (:func:`_packing`) and a zero stays 0: the ring
    map commutes with det, so the determinant is the packed map. A
    bordered n x (n + 1) M gains the row (Y^0, ..., Y^n), Y = 2^(w D);
    expanded along it, the determinant is the sum of (-1)^(n+j) Y^j times
    the minor that leaves out column j. Each minor is below Y/2 in size,
    so balanced blocks of w D bits, read from the bottom with a borrow
    when one is past Y/2, give them back. Slots that cancel are absent."""
    shifts, span = packing.shifts, packing.span
    image = []
    for row in entries:
        line = [0] * M.cols
        for j, _d, a, s in row:
            line[j] = s << shifts[a]
        image.append(line)
    if M.is_square:
        det = _bareiss(image)
        return {0: det} if det else {}
    n = M.rows
    det = _bareiss(image + [[1 << span * j for j in range(n + 1)]])
    half, mask, slots = 1 << (span - 1), (1 << span) - 1, {}
    for j in range(n + 1):
        block = det & mask
        det >>= span
        if block >= half:
            block -= 1 << span
            det += 1
        if block:
            slots[j] = -block if (n + j) & 1 else block
    return slots


def _ring_terms(M: BoxMatrix, lam: bool = False
                ) -> tuple[dict[int, dict[int, int]], int]:
    """Per slot (:func:`_dp_slots`), the net map {magnitude: net signed
    count} of the signed permutation products or, with ``lam``, of the
    characteristic monomials, and the scale S: every magnitude is the
    integer key over S. Magnitudes that cancel are dropped, and so are
    slots where all of them do. The ring runs in dicts."""
    ring, total = _dp_slots(M, _dp_entries(M, lam), _ring_step, {1: 1})
    return {k: live for k, nets in ring.items()
            if (live := {m: c for m, c in nets.items() if c})}, total


def _dominant_terms(M: BoxMatrix, lam: bool = False
                    ) -> tuple[dict[int, tuple[int, int]], int]:
    """Per slot, the largest magnitude whose net signed count survives
    and the sign of that count, and the scale S (terms as in
    :func:`_ring_terms`: every magnitude is its integer over S).

    Slots where everything cancels are absent. M's DP terms are built
    once, and a ring that packs is read at once, each slot's top digit:
    one Bareiss elimination without lam, and with it one top-magnitude DP
    (:func:`_top_dp`) on the packed factors, every magnitude 1. A ring
    that does not pack runs the top-magnitude DP on its magnitudes, and
    then the dict ring when some top count nets to zero.
    """
    entries, total = _dp_entries(M, lam), math.prod(M._scales)
    if (packing := _packing(entries)) is None:
        tops = _slots(M, _top_dp(entries, M.cols))
        if not all(c for _m, c in tops.values()):
            ring, _total = _dp_slots(M, entries, _ring_step, {1: 1})
            tops = {k: (m, net[m]) for k, net in ring.items()
                    if (m := max((a for a, c in net.items() if c), default=0))}
        return {k: (m, (c > 0) - (c < 0)) for k, (m, c) in tops.items()}, total
    if not lam:
        slots = _kronecker_slots(M, entries, packing)
    else:  # every magnitude 1, so each count is a packed map
        slots = {k: x for k, (_one, x) in _slots(M, _top_dp(
            [[(j, d, 1, s << packing.shifts[a]) for j, d, a, s in row]
             for row in entries], M.cols)).items()}
    return {k: t for k, x in slots.items() if (t := packing.top(x))}, total


def _pair_det(rows) -> tuple[Fraction, Fraction]:
    """(plus, minus) of the balance-pair determinant of a square matrix of
    pairs of nonnegative rationals: the largest positive and negative
    leading terms, each pair (p, q) read as the terms +p and -q."""
    M = BoxMatrix([v for pair in row for v in pair] for row in rows)
    entries = [[(j, 0, m, s) for j, pq in enumerate(zip(r[::2], r[1::2]))
                for m, s in zip(pq, (1, -1)) if m] for r in M._ints]
    layer = _subset_dp(entries, M.rows, _lead_step, (1, 1, 0, 0))
    p, _cp, n, _cn = layer.get((1 << M.rows) - 1, (0, 0, 0, 0))
    total = math.prod(M._scales)
    return Fraction(p, total), Fraction(n, total)


def _det_value(dominant: tuple[dict, int]) -> Fraction:
    """det_inf from :func:`_dominant_terms` of a square lam-free matrix."""
    top, total = dominant
    mag, sign = top.get(0, (0, 1))
    return Fraction(sign * mag, total)


def _det_lead(A, cap: int, what: str = "determinant"
              ) -> tuple[Fraction, Fraction, Callable[[], Fraction]]:
    """One leading-term run of a square A (:func:`_checked` with ``what``):
    (plus, minus, limit), its largest positive product P/S and minus its
    largest negative one N/S (the pair determinant, which holds both
    envelopes), and a call reading det_inf: the larger side of the same
    run with its net count, unless that count cancels, when it reads
    det_inf's own way (:func:`_dominant_terms`)."""
    M = _checked(A, cap, what)
    lead, total = _dp_slots(M, _dp_entries(M, False), _lead_step,
                            (1, 1, 0, 0))
    p, cp, n, cn = lead.get(0, (0, 0, 0, 0))
    top, count = max(p, n), cp * (p >= n) - cn * (n >= p)

    def limit() -> Fraction:
        if count or not top:
            return Fraction(top if count >= 0 else -top, total)
        return _det_value(_dominant_terms(M))
    return Fraction(p, total), Fraction(n, total), limit


def det_inf(A, cap: int = DEFAULT_DET_CAP) -> Fraction:
    """Limit determinant: dominant-magnitude sum of the signed products,
    read with no leading-term run (:func:`_dominant_terms`)."""
    return _det_value(_dominant_terms(_checked(A, cap)))


def det_inf_reg(A, mode: str, cap: int = DEFAULT_DET_CAP) -> Fraction:
    """Lower or upper regularized determinant (smile over the products): an
    envelope of the two products of :func:`_det_lead`'s pair."""
    plus, minus, _limit = _det_lead(A, cap)
    return _envelope((plus, -minus), mode)


def _det_net(A, cap: int = DEFAULT_DET_CAP) -> tuple[dict[int, int], int]:
    """Net map ({m: net count}, S) of the signed permutation products of a
    square matrix."""
    ring, total = _ring_terms(_checked(A, cap))
    return ring.get(0, {}), total


def _cramer_slots(A, b, cap: int, read, zero) -> tuple[list, int]:
    """``read`` of one run on [A | b]: the slot of det A, then that of each
    det A_i(b) with its sign (-1)^(n-1-i), and the scale S. The DP runs
    on row i of [A | b] times A's row scale s_i: with s_i b_i = p/q, A's
    integers times q, then p, over q; S takes the product of the s_i."""
    M = _checked(A, cap)
    n = M.rows
    ts = [s * v for s, v in zip(M._scales, b)]
    slots, total = read(BoxMatrix._from_ints(
        ([a * t.denominator for a in row] + [t.numerator]
         for row, t in zip(M._ints, ts)), [t.denominator for t in ts]))
    return [(slots.get(k, zero), 1 if k == n else (-1) ** (n - 1 - k))
            for k in (n, *range(n))], total * math.prod(M._scales)


def _cramer_dets(A, b, cap: int = DEFAULT_DET_CAP) -> list[Fraction]:
    """det_inf of A, then of each A_i(b) (column i replaced by b)."""
    slots, total = _cramer_slots(A, b, cap, _dominant_terms, (0, 1))
    return [Fraction(s * m * c, total) for (m, c), s in slots]


def _cramer_nets(A, b, cap: int = DEFAULT_DET_CAP) -> list[tuple[dict, int]]:
    """Net maps ({m: net count}, S) of A, then of each A_i(b)."""
    slots, total = _cramer_slots(A, b, cap, _ring_terms, {})
    return [({m: s * c for m, c in net.items()}, total) for net, s in slots]


def _bareiss(rows) -> int:
    """The determinant of a square integer matrix by fraction-free
    elimination: step k replaces each entry below and right of the pivot
    by (pivot * a_ij - a_ik * a_kj) // (the previous pivot), a division
    that is exact, so every entry stays an integer minor. A zero pivot
    swaps in the next row with a nonzero entry in its column, which
    flips the sign; when there is none, the determinant is 0."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pivot, top = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev
                           for x, y in zip(row[k + 1:], top)]
        prev = pivot
    return sign * a[-1][-1]


def _powered_dets(M: BoxMatrix, ps: Sequence[int], cap: int
                  ) -> list[SignedLog]:
    """det(M^(q))^(1/q), q = 2p + 1, of a square M at each p in ``ps``
    (increasing): the Bareiss determinant of the powered integers over S^q
    while the budget holds for prod_i max_j |a_ij| and S, the product of
    the row scales; past it, one group-ring run held to ``cap``."""
    top = math.prod(max(map(abs, row)) for row in M._ints)
    scale, out = math.prod(M._scales), []
    for p in ps:
        q = odd_exponent(p)
        if not _in_budget(q, top, scale):
            return out + _phi_p_net(_det_net(M, cap), ps[len(out):])
        powered = _bareiss([[a ** q for a in row] for row in M._ints])
        out.append(_root(powered, q, scale))
    return out


def det_p(A, p: int, cap: int = DEFAULT_DET_CAP) -> SignedLog:
    """Finite-index determinant det(A^(q))^(1/q), q = 2p + 1, as a signed
    log value (:func:`_powered_dets`)."""
    return _decided(_powered_dets(_checked(A, cap), (p,), cap)[0], p)


def cofactor_inf(A, i: int, j: int, cap: int = DEFAULT_DET_CAP) -> Fraction:
    M = _checked(A, math.inf, "cofactor")  # the minor's det_inf holds cap
    if M.rows < 2:
        raise DomainError("cofactor needs at least a 2x2 matrix")
    sub = det_inf(M.minor(i, j), cap)
    return sub if (i + j) % 2 == 0 else -sub


def replace_column(A, i: int, b: Sequence) -> BoxMatrix:
    """Copy of A with column i (1-based) replaced by the vector b."""
    M = as_matrix(A)
    M._check_col(i)
    vec = as_vector(b)
    if len(vec) != M.rows:
        raise DomainError(f"column length {len(vec)} != row count {M.rows}")
    return BoxMatrix(row[:i - 1] + (v,) + row[i:]
                     for row, v in zip(M.to_rows(), vec))


def matmul_limit(A, B, mode: str = "exact") -> BoxMatrix:
    """Matrix product where entry sums use the limit algebra.

    mode 'exact' aggregates each entry's products with the dominant-
    magnitude sum; 'lower'/'upper' use the corresponding envelope.
    Rectangular operands are fine as long as the inner dimensions agree.
    Each operand is read once; entry (i, j) sums integers over one scale,
    s_i times the lcm of B's column j, which keeps magnitude order and ties.
    """
    MA, MB = as_matrix(A), as_matrix(B)
    if MA.cols != MB.rows:
        raise DomainError(
            f"inner dimensions differ: {MA.rows}x{MA.cols} times {MB.rows}x{MB.cols}"
        )
    if mode not in ("exact", LOWER, UPPER):
        raise DomainError(f"mode must be 'exact', 'lower' or 'upper', got {mode!r}")

    def agg(ints: list[int]):
        return (_net_limit(net_by_magnitude(ints)) if mode == "exact"
                else _envelope(ints, mode))
    cols = [_over_lcm(MB.col(j)) for j in range(1, MB.cols + 1)]
    return BoxMatrix._from_ints(*zip(*(_over_lcm(
        [Fraction(agg(list(map(mul, r, c))), s * t) for c, t in cols])
        for r, s in zip(MA._ints, MA._scales))))


def matvec_limit(A, x: Sequence, mode: str = "exact") -> BoxVector:
    """Matrix-vector product under :func:`matmul_limit` semantics."""
    col = matmul_limit(A, BoxMatrix.from_columns([x]), mode)
    return col.col(1)
