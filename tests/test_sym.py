"""Balance-pair semiring and its collapse back to signed values."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxalg import (
    BoxMatrix,
    DomainError,
    S_ONE,
    S_ZERO,
    SPair,
    balanced,
    boxplus,
    det_inf,
    s_add,
    s_det,
    s_embed,
    s_embed_matrix,
    s_mul,
    s_pair,
    v_identity_check,
    v_map,
)
from boxalg import cli, sym

F = Fraction

magnitudes = st.fractions(min_value=0, max_value=9, max_denominator=6)
signed = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def pairs():
    return st.tuples(magnitudes, magnitudes).map(lambda t: s_pair(*t))


class TestPairs:
    def test_embedding(self):
        assert s_embed(F(3)) == SPair(F(3), F(0))
        assert s_embed(F(-2)) == SPair(F(0), F(2))
        assert s_embed(F(0)) == S_ZERO

    def test_classification(self):
        assert s_pair(F(2), F(0)).is_positive
        assert s_pair(F(0), F(2)).is_negative
        assert s_pair(F(2), F(2)).is_balanced
        assert S_ZERO.is_balanced

    def test_negative_components_rejected(self):
        with pytest.raises(DomainError):
            s_pair(F(-1), F(0))

    @pytest.mark.parametrize("call, bad", [
        (lambda: s_det([[1]]), 1),
        (lambda: v_identity_check([(1,)]), (1,)),
        (lambda: s_add((1, 2, 3), (1, 1)), (1, 2, 3)),
        (lambda: s_mul((1, 1), [2]), [2]),
        (lambda: balanced((1, 1), None), None),
        (lambda: v_map("ab"), "ab"),
    ], ids=["s_det", "v_identity_check", "s_add", "s_mul", "balanced",
            "v_map"])
    def test_malformed_pair_rejected(self, call, bad):
        message = re.escape(f"not a pair: {bad!r}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()

    def test_lists_and_tuples_of_two_are_pairs(self):
        assert s_add([1, 4], (F(3), "2")) == SPair(F(3), F(4))
        assert v_map(s_pair(1, 3)) == F(-3)

    def test_add_is_componentwise_max(self):
        assert s_add(SPair(F(1), F(4)), SPair(F(3), F(2))) == SPair(F(3), F(4))

    def test_mul_crosses_components(self):
        got = s_mul(SPair(F(2), F(1)), SPair(F(3), F(4)))
        assert got == SPair(F(6), F(8))

    def test_one_and_zero(self):
        x = SPair(F(5), F(7))
        assert s_mul(S_ONE, x) == x
        assert s_add(S_ZERO, x) == x
        assert s_mul(S_ZERO, x) == S_ZERO

    def test_balanced_relation(self):
        assert balanced(SPair(F(3), F(0)), SPair(F(3), F(0)))
        assert balanced(SPair(F(3), F(1)), SPair(F(3), F(1)))
        assert not balanced(SPair(F(3), F(0)), SPair(F(0), F(2)))

    @given(pairs(), pairs())
    def test_add_commutes(self, x, y):
        assert s_add(x, y) == s_add(y, x)

    @given(pairs(), pairs(), pairs())
    def test_mul_distributes_over_add(self, t, x, y):
        left = s_mul(t, s_add(x, y))
        right = s_add(s_mul(t, x), s_mul(t, y))
        assert left == right

    @given(signed, signed)
    def test_embedding_respects_balance(self, x, y):
        """Embedded values balance exactly when the limit sum of one with
        the negation of the other vanishes."""
        assert balanced(s_embed(F(x)), s_embed(F(y))) == (boxplus(x, -y) == 0)


class TestSemiringDeterminant:
    def test_pinned_balanced_example(self):
        A = BoxMatrix([[3, 2, 3], [1, 3, 2], [3, 1, 3]])
        d = s_det(s_embed_matrix(A))
        assert d == SPair(F(27), F(27))
        assert d.is_balanced
        assert det_inf(A) == F(12)

    def test_strictly_signed_determinant(self):
        A = BoxMatrix([[2, 3], [4, 1]])
        d = s_det(s_embed_matrix(A))
        assert d == SPair(F(2), F(12))
        assert v_map(d) == F(-12) == det_inf(A)

    def test_identity_matrix(self):
        eye = s_embed_matrix(BoxMatrix.identity(3))
        assert s_det(eye) == S_ONE


class TestCollapse:
    def test_v_map_cases(self):
        assert v_map(SPair(F(5), F(2))) == F(5)
        assert v_map(SPair(F(2), F(5))) == F(-5)
        assert v_map(SPair(F(4), F(4))) == F(0)

    def test_identity_check_on_strict_signs(self):
        xs = [s_embed(F(v)) for v in (2, -3, 1)]
        assert v_identity_check(xs) is True

    def test_identity_fails_for_dominant_balanced_pair(self):
        xs = [SPair(F(5), F(5)), s_embed(F(2))]
        assert v_identity_check(xs) is False

    def test_each_pair_is_read_once(self, monkeypatch, capsys):
        # by the CLI's sym kind and by v_identity_check, which collapse
        # the pairs and their sum without checking them again
        calls, inner = [], sym._as_pair

        def spy(x):
            calls.append(x)
            return inner(x)

        monkeypatch.setattr(sym, "_as_pair", spy)
        monkeypatch.setattr(cli, "_as_pair", spy)
        pairs = [[2, 0], [0, 3], [1, 1]]
        assert cli.run(["sym", "--json", json.dumps({"pairs": pairs})]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["v_values"], out["v_identity"]) == (["2", "-3", "0"], True)
        assert calls == pairs
        calls.clear()
        assert v_identity_check(pairs) is True
        assert calls == pairs

    @given(st.lists(signed.filter(lambda v: v != 0), min_size=1, max_size=6))
    def test_identity_holds_for_embedded_values(self, values):
        xs = [s_embed(F(v)) for v in values]
        assert v_identity_check(xs) is True
