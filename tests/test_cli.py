"""JSON command-line interface: outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from boxalg.cli import HANDLERS, KINDS, _float_out, run
from boxalg.core import RATIONAL_RE
from boxalg.eigen import eigen_region, perron_p
from boxalg.errors import DomainError
from boxalg.oracle import INPUTS, sweep

BIG = "1" + "0" * 400
# a positive matrix whose Perron limit, sqrt(2) * 10^400, is an irrational
# region member past the float range
IRRATIONAL_BIG = [[1, BIG], ["2" + "0" * 400, 1]]

# the limit-cancel seed 1 block 2 eigen matrix: power iteration did not
# settle on it from p = 10 on, Noda iteration settles at every p
SETTLES_NOW = [[1, 1, 2, 2, 3, 2, 1], [2, 2, 2, 2, 3, 2, 2],
               [3, 2, 1, 3, 2, 1, 2], [1, 2, 1, 3, 1, 2, 3],
               [3, 2, 1, 3, 2, 3, 3], [2, 1, 2, 1, 1, 2, 2],
               [1, 2, 2, 1, 2, 1, 1]]


def _unsettled_from(p_first):
    """perron_p, raising ConvergenceError from p = p_first on."""
    from boxalg import ConvergenceError, perron_p

    def perron(A, p, *args, **kw):
        if p >= p_first:
            raise ConvergenceError("did not settle")
        return perron_p(A, p, *args, **kw)
    return perron


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestDet:
    def test_pinned_output(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A":[[-1,1],[1,1]]}')
        assert code == 0
        assert obj["det_inf"] == "-1"
        assert obj["det_inf_float"] == -1.0

    def test_mode_adds_envelope(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A":[[1,1],[1,1]]}',
                           "--mode", "lower")
        assert code == 0
        assert obj["det_inf"] == "0"
        assert obj["det_lower"] == "-1"

    def test_finite_exponent_block(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A":[[2,0],[0,3]]}',
                           "--p", "4")
        assert code == 0
        assert obj["det_p"]["exact"] == "6"
        assert obj["det_p"]["sign"] == 1
        assert obj["p"] == 4

    # sha256 of the whole stdout of seeded batches, recorded while the
    # regularized determinants still ran a balance-pair DP on Fractions;
    # re-recorded when the size-cap message lost its "(10! permutation
    # products)" tail, with every other byte of the batches unchanged, and
    # when det_p became the root of the exact det(A^(q)): only det_p
    # fields changed (4 and 7 of them), each to the exact-root reading
    @pytest.mark.parametrize("entries, digest", [
        ("small",
         "75eb4f608a0cb40697ff2e7215d464ccf8b8537577f1cc2993e36049f77a3705"),
        ("rational",
         "aff7536d4a72891bca4c40d38b6a551b36397aaf251d0377a38a2d609eb7f216"),
    ])
    def test_stdout_pinned(self, capsys, entries, digest):
        run(["det", "--json", json.dumps(_det_sym_batch("det", entries))])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _det_sym_batch(kind: str, entries: str) -> list:
    """Seeded det (every mode, with and without p) or sym (A, pairs or
    both) problems: all-zero and 1x1 matrices, a 10x10 matrix past the
    determinant cap and malformed shapes among them."""
    rng = random.Random(f"det-sym/{kind}/{entries}")

    def scalar():
        if entries == "small":
            return rng.randint(-2, 2)
        return "0" if rng.random() < 0.3 else (
            f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}")

    batch = []
    for k in range(80):
        n = 1 + k % 7
        A = [[scalar() for _ in range(n)] for _ in range(n)]
        if k % 10 == 3:
            A = [[0] * n for _ in range(n)]
        elif k % 10 == 7:
            A = [[scalar() for _ in range(10)] for _ in range(10)]
        elif k % 10 == 9:
            A[0] = A[0] + [scalar()]  # ragged rows
        if kind == "det":
            opts = {}
            mode = ("lower", "upper", "exact", None)[k % 4]
            if mode:
                opts["mode"] = mode
            if k % 3 == 1:
                opts["p"] = rng.randint(0, 9)
            item = {"A": A, "options": opts} if opts else {"A": A}
        else:
            pairs = [[rng.randint(0, 3), rng.randint(0, 3)]
                     for _ in range(rng.randint(1, 5))]
            item = ({"A": A}, {"pairs": pairs},
                    {"A": A, "pairs": pairs})[k % 3]
        batch.append(item)
    return batch


class TestSolve:
    def test_regular_system(self, capsys):
        code, obj = invoke(capsys, "solve", "--json",
                           '{"A":[[-1,1],[1,1]],"b":[2,3]}')
        assert code == 0
        assert obj["x"] == ["3", "3"]
        assert obj["satisfied"] is True

    def test_singular_system_exits_infeasible(self, capsys):
        code, obj = invoke(capsys, "solve", "--json",
                           '{"A":[[1,1],[1,1]],"b":[1,2]}')
        assert code == 2
        assert obj["det_inf"] == "0"


class TestMaxsolve:
    def test_pinned_three_by_three(self, capsys):
        code, obj = invoke(capsys, "maxsolve", "--json",
                           '{"A":[[1,3,4],[2,5,1],[4,2,1]],"b":[1,1,1]}')
        assert code == 0
        assert obj["x"] == ["1/4", "1/5", "1/4"]
        assert obj["feasible"] is True
        assert obj["sigma"] == [3, 2, 1]
        assert obj["strict"] is True

    def test_infeasible_exits_two(self, capsys):
        code, obj = invoke(capsys, "maxsolve", "--json",
                           '{"A":[[1,1],[1,1]],"b":[1,2]}')
        assert code == 2
        assert obj["feasible"] is False
        assert obj["sigma"] is None

    def test_kaykobad_p_tie_is_exact(self, capsys):
        # row 2 at q = 23: its terms 2 * 18 / 6 = 6 and 1 * 4 / 4 = 1 sum to
        # 6^23 + 1, above b_2^23 = 6^23, which floats cannot tell apart
        code, obj = invoke(capsys, "maxsolve", "--json",
                           '{"A":[[6,2,0],[2,6,1],[1,3,4]],"b":[18,6,4],'
                           '"options":{"p":11}}')
        assert code == 0
        assert obj["sigma"] == [1, 2, 3]
        assert obj["kaykobad_p"] is False

    def test_kaykobad_p_near_tie_at_a_huge_index(self, capsys):
        # row 1 at q = 2 * 10^9 + 1 is decided in logs, not by exact powers
        start = time.perf_counter()
        code, obj = invoke(capsys, "maxsolve", "--json",
                           '{"A":[[1,1,1],[0,1,0],[0,0,1]],'
                           '"b":[10000000001,10000000000,1],'
                           '"options":{"p":1000000000}}')
        assert time.perf_counter() - start < 0.5
        assert code == 0 and obj["sigma"] == [1, 2, 3]
        assert obj["kaykobad"] is False and obj["kaykobad_p"] is True

    def test_one_scan_and_one_validation(self, capsys, monkeypatch):
        import boxalg.solve as solve
        calls = {"_max_columns": 0, "_check_max_inputs": 0}
        for name in calls:
            def counted(*args, _f=getattr(solve, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(solve, name, counted)
        monkeypatch.setattr("boxalg.cli._max_columns", solve._max_columns)
        code, obj = invoke(capsys, "maxsolve", "--json",
                           '{"A":[[2,3],[4,1]],"b":[1,1],"options":{"p":2}}')
        assert code == 0 and obj["kaykobad_p"] is True
        assert calls == {"_max_columns": 1, "_check_max_inputs": 1}

    # sha256 of the whole stdout of seeded batches, recorded before the
    # column scan replaced the three ratio passes: square and non-square
    # systems, zero columns, infeasible systems, with and without p
    @pytest.mark.parametrize("entries, digest", [
        ("int",
         "b4592e34ad19d06d23096d1b69aa4d60f886e29a2e61e67ab4f270bc9dbacc66"),
        ("rational",
         "42c25ab2570574837c8b6128af8c83ce55cf82cee52385abdb9e2532dab36535"),
    ])
    def test_maxsolve_stdout_pinned(self, capsys, entries, digest):
        rng = random.Random(f"maxsolve/{entries}")

        def scalar():
            if rng.random() < 0.3:
                return 0
            if entries == "int":
                return rng.randint(1, 9)
            return f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"

        batch = []
        for k in range(60):
            n = 1 + k % 6
            m = n if k % 3 else rng.randint(1, 6)
            A = [[scalar() for _ in range(m)] for _ in range(n)]
            if k % 5 == 0:
                j = rng.randrange(m)
                for row in A:
                    row[j] = 0
            if k % 2:  # the max-times image of a positive vector: feasible
                x = [rng.randint(1, 6) for _ in range(m)]
                b = [str(max(Fraction(a) * v for a, v in zip(row, x)) or 1)
                     for row in A]
            else:
                b = [rng.randint(1, 9) for _ in range(n)]
            item = {"A": A, "b": b}
            if k % 4 < 2:
                item["options"] = {"p": rng.randint(0, 12)}
            batch.append(item)
        run(["maxsolve", "--json", json.dumps(batch)])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTwosided:
    def test_pinned_example(self, capsys):
        code, obj = invoke(
            capsys, "twosided", "--json",
            '{"A":[[2,1],[1,3]],"C":[[1,1],[2,2]],"b":[4,3],"d":[3,2]}',
        )
        assert code == 0
        assert obj["det_inf"] == "6"
        assert obj["x"] == ["2", "4/3"]
        assert obj["regular"] is True


class TestHyperplane:
    def test_construction_and_queries(self, capsys):
        code, obj = invoke(
            capsys, "hyperplane", "--json",
            '{"points":[[1,0,-3],[2,-1,1],[4,1,2]],'
            '"queries":[[1,0,-3],[0,0,0]]}',
        )
        assert code == 0
        assert obj["coeffs"] == ["-3", "12", "4"]
        assert obj["rhs"] == "-12"
        assert obj["members"] == [True, False]

    def test_degenerate_exits_two(self, capsys):
        code, obj = invoke(capsys, "hyperplane", "--json",
                           '{"points":[[1,2],[2,4]]}')
        assert code == 2
        assert "degenerate" in obj["error"]


def _cramer_batch(entries: str) -> list:
    """Seeded solve, twosided and hyperplane problems: singular systems,
    degenerate point sets, queries, zero right-hand sides and ones equal
    to a column, non-square inputs and a b or query of the wrong length."""
    rng = random.Random(f"cramer-kinds/{entries}")

    def scalar():
        if entries == "small":
            return rng.randint(-2, 2)
        if entries == "wide":
            return rng.randint(-99, 99)
        return "0" if rng.random() < 0.3 else (
            f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}")

    def vec(n):
        return [scalar() for _ in range(n)]

    batch = []
    for k in range(90):
        n = 1 + k // 3 % 7
        m = n + 1 if k % 11 == 5 else n  # non-square
        rows = [vec(m) for _ in range(n)]
        if k % 7 == 3 and n > 1:  # singular: a repeated row / point
            rows[1] = list(rows[0])
        b = vec(n + 1 if k % 13 == 7 else n)
        if k % 9 == 4:
            b = [0] * len(b)
        elif k % 9 == 8:
            b = [row[0] for row in rows]
        kind = ("solve", "twosided", "hyperplane")[k % 3]
        if kind == "solve":
            batch.append({"kind": kind, "A": rows, "b": b})
        elif kind == "twosided":
            batch.append({"kind": kind, "A": rows,
                          "C": [vec(n) for _ in range(n)], "b": b,
                          "d": vec(n)})
        else:
            item = {"kind": kind, "points": rows}
            if k % 2:
                item["queries"] = [vec(len(rows[0])), b]
            batch.append(item)
    return batch


class TestCramerKinds:
    # sha256 of the whole stdout of seeded batches, recorded while det A
    # and each column-replaced determinant still took a DP of their own,
    # and re-recorded when a two-sided b or d of the wrong length came to
    # be refused by its length, as a one-sided one is (3 items a batch)
    @pytest.mark.parametrize("entries, digest", [
        ("small",
         "fb9c50557650918ef8132e96ad0004d3ca2835335ea3df6e5f38d6a4f2df5ddd"),
        ("wide",
         "888efffaac2a8bb962d8dac92d20e71faffd85dcaefc3a8a824113efc0ac664d"),
        ("rational",
         "5481ac6bb9728c4118476de46d03ad312479faca69e9208ba6dd9ab1c59a0651"),
    ])
    def test_stdout_pinned(self, capsys, entries, digest):
        run(["solve", "--json", json.dumps(_cramer_batch(entries))])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCharpolyAndEigen:
    def test_monomials_and_evaluations(self, capsys):
        code, obj = invoke(capsys, "charpoly", "--json",
                           '{"A":[[2,1],[1,2]],"lam":2}')
        assert code == 0
        assert obj["count"] == 5
        assert obj["eval_lower"] == "-4"
        assert obj["eval_upper"] == "4"
        assert obj["eval_limit"] == "-1"

    def test_region_and_perron(self, capsys):
        code, obj = invoke(capsys, "eigen", "--json", '{"A":[[2,1],[1,2]]}')
        assert code == 0
        assert obj["region"] == ["2"]
        assert obj["perron"]["converged"] is True

    # small entries repeat a few coefficients, which the listing formats
    # once each; the entries must still follow char_monomials one by one
    @pytest.mark.parametrize("pool", [
        [-2, -1, 0, 1, 2], [0, 1], ["1/2", "-3/4", 0, 2, "5/3"], [0]])
    def test_listing_follows_char_monomials(self, capsys, pool):
        from boxalg import BoxMatrix, char_monomials
        rng = random.Random(len(pool))
        for n in range(1, 7):
            A = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            code, obj = invoke(capsys, "charpoly", "--json",
                               json.dumps({"A": A}))
            assert code == 0
            ms = char_monomials(BoxMatrix([[Fraction(x) for x in row]
                                           for row in A]))
            assert obj["monomials"] == [[str(m.coeff), m.degree]
                                        for m in ms]
            assert obj["count"] == len(ms)

    # the listing formats each degree's distinct coefficients in one call
    @pytest.mark.parametrize("entries", ["int", "rational"])
    def test_listing_formats_once_per_level(self, capsys, monkeypatch,
                                            entries):
        import boxalg.cli as cli
        calls = []

        def counted(xs, scale=1, _rat=cli._rat):
            calls.append(scale)
            return _rat(xs, scale)
        monkeypatch.setattr(cli, "_rat", counted)
        code, obj = invoke(capsys, "charpoly", "--json", json.dumps(
            {"A": self._charpoly_matrix(7, entries)}))
        assert code == 0 and obj["count"] == 13700
        assert len(calls) == 8
        assert (set(calls) == {1}) == (entries == "int")

    # entry pools whose top class of some degree cancels: -2..2 at n = 6
    # and 7 (degrees 4 and 6), 0..1 at n = 5 (degree 2)
    CHARPOLY_POOLS = {"-2..2": [-2, -1, 0, 1, 2], "0..1": [0, 1],
                      "small-rational": [0, "1/2", "-3/4", 2, "5/3"]}

    def _charpoly_matrix(self, n, entries):
        rng = random.Random(n)
        if entries == "int":
            return [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        if entries == "rational":
            return [[0 if rng.random() < 0.2
                     else f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"
                     for _ in range(n)] for _ in range(n)]
        return [[rng.choice(self.CHARPOLY_POOLS[entries]) for _ in range(n)]
                for _ in range(n)]

    # sha256 of the whole stdout, recorded before the integer listing and
    # the one-pass evaluation replaced the Fraction loops, the rows with p
    # re-recorded when eval_p became the exact root of its power sum; the
    # rows without p, recorded while the values at lam came from the DP
    @pytest.mark.parametrize("n, entries, lam, p, digest", [
        (5, "int", 0, 3,
         "848f18ca1c58968722f8e315fcf607886d09f00f9c8aa52c5bb8024bc725c988"),
        (5, "rational", -3, 0,
         "e8dba7f8307e987c4d1beba02509254635f02cf236dc3deeb952144480e9544b"),
        (6, "int", "2/3", 7,
         "1b17875019d629f4294b5b88209ee307ff8fd0261a1e0d73087c65b938d2b2eb"),
        (6, "rational", 0, 2,
         "fa4287c188fc316a67cff409c9fe3ed039027b81543ed59feccda7f49c52a534"),
        (7, "int", -3, 5,
         "adf8885c52c4a5d4ded3f30de443aef79e5ff8541cb0ecc8f7eaee82789bec83"),
        (7, "rational", "2/3", 1,
         "054aff259a8f4a191edc2e9ec62f3597a77bbf3b1f7b585a18a78f41595639d1"),
        (6, "-2..2", 1, None,
         "7ead9a1e506c73a95d658b7d88f20e7802fd2239a097d66bd30ed5ff36fba0f6"),
        (7, "-2..2", "-2/3", None,
         "b6a5298df3824e98702c803268300cba39fb00a1e831a302d2c7f0a26dd42820"),
        (5, "0..1", 2, None,
         "1a44ec2a2251d7a3224678caf702cc6c76edcaf096e7ce350d29996ab915bf7a"),
        (6, "-2..2", 0, None,
         "0c9d52d11475257f226ed706cfe5c9794f03402a5290791a7c1266437afe3c48"),
        (5, "0..1", 0, None,
         "8f43a228e8d151a80e5f17749c1bf9e67aec305759c352079d4a8399b592dd43"),
        (4, "small-rational", "5/3", None,
         "6b876d425e6830b870b383bf8404a0a11766d5f8ef674ea7874ea1dacfb85d5a"),
    ])
    def test_charpoly_stdout_pinned(self, capsys, n, entries, lam, p, digest):
        text = json.dumps({"A": self._charpoly_matrix(n, entries), "lam": lam,
                           "options": {} if p is None else {"p": p}})
        assert run(["charpoly", "--json", text]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # recorded with the rows without p above, re-recorded with those with p
    def test_charpoly_batch_pinned(self, capsys):
        m = self._charpoly_matrix
        batch = [{"A": m(6, "-2..2"), "lam": -1}, {"A": m(5, "0..1")},
                 {"A": m(4, "small-rational"), "lam": 0, "options": {"p": 2}},
                 {"A": m(3, "-2..2"), "lam": "x"},
                 {"A": m(4, "small-rational")}]
        assert run(["charpoly", "--json", json.dumps(batch)]) == 3
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2694d50a42f57b418f695d95d7c4f6d7ac3983a96592b1bf241f9cb4ffb37620")

    @pytest.mark.parametrize("entries", ["int", "-2..2", "rational"])
    def test_index_leaves_the_limit_reads_alone(self, capsys, entries):
        """options.p reads its value from the full pass; eval_limit,
        eval_lower and eval_upper read as without it, whether the top
        classes settle them or the full pass does."""
        for n in range(2, 8):
            for lam in (0, -3, "2/3", 1):
                doc = {"A": self._charpoly_matrix(n, entries), "lam": lam}
                _, plain = invoke(capsys, "charpoly", "--json", json.dumps(doc))
                doc["options"] = {"p": 3}
                code, with_p = invoke(capsys, "charpoly", "--json",
                                      json.dumps(doc))
                assert code == 0 and with_p["p"] == 3
                assert {key: with_p[key] for key in plain} == plain

    # the listing's entries embed _rat's strings in JSON text unescaped
    def test_rat_text_needs_no_json_escaping(self):
        import boxalg.cli as cli
        big = 10 ** (sys.get_int_max_str_digits() or 4300) - 1  # most digits
        xs = [0, 1, -1, 7, -123456789, big, -big, -big // 3]
        for scale in (1, 2, 7, 10 ** 40, big):
            texts = cli._rat(xs, scale)
            texts += cli._rat([Fraction(x, scale) for x in xs])
            for s in texts:
                assert json.dumps(s) == '"' + s + '"'
                assert RATIONAL_RE.fullmatch(s)

    # the listing is spliced into the document as raw text: stdout must be
    # the compact, key-sorted encoding of the document it parses to
    def _assert_canonical(self, out):
        doc = json.dumps(json.loads(out), sort_keys=True,
                         separators=(",", ":"))
        assert out == doc + "\n"

    def test_spliced_batch_is_canonical(self, capsys, monkeypatch):
        import boxalg.cli as cli
        from boxalg import BoxMatrix, char_monomials
        built = []

        class Counted(cli._Fragment):
            def __new__(cls, text):
                built.append(text)
                return super().__new__(cls, text)
        monkeypatch.setattr(cli, "_Fragment", Counted)
        big = "1" + "0" * 3000
        m = self._charpoly_matrix
        batch = [{"A": [[5]]}, {"A": m(7, "-2..2"), "lam": 2},
                 {"A": m(3, "rational"), "lam": "1/2", "options": {"p": 3}},
                 {"A": m(8, "-2..2")},  # over the characteristic cap
                 {"A": [[f"{big}/7", 0], [0, f"{big}/7"]]},  # digit limit
                 {"kind": 'x"monomials":0', "A": [[1]]},
                 {"kind": "det", "A": [[1, 2], [3, 4]]},
                 {"A": [[2, 1], [1, 2]]}]
        assert run(["charpoly", "--json", json.dumps(batch)]) == 4
        out = capsys.readouterr().out
        self._assert_canonical(out)
        items = json.loads(out)
        assert [it["code"] for it in items] == [0, 0, 0, 4, 4, 3, 0, 0]
        assert '"monomials":0' in items[5]["result"]["error"]
        assert items[6]["result"]["det_inf"] == "-6"
        assert "too long to print" in items[4]["result"]["error"]
        assert len(built) == 4  # the digit guard fired before a fragment
        for i in (0, 1, 2, 7):
            ms = char_monomials(BoxMatrix([[Fraction(x) for x in row]
                                           for row in batch[i]["A"]]))
            assert items[i]["result"]["monomials"] == [
                [str(mono.coeff), mono.degree] for mono in ms]
            assert items[i]["result"]["count"] == len(ms)

    @pytest.mark.parametrize("lam", [None, "-2/3"])
    def test_spliced_single_is_canonical(self, capsys, lam):
        for n, entries in ((1, "int"), (7, "-2..2"), (4, "rational")):
            doc = {"A": self._charpoly_matrix(n, entries),
                   "options": {"p": 3}}
            if lam is not None:
                doc["lam"] = lam
            assert run(["charpoly", "--json", json.dumps(doc)]) == 0
            out = capsys.readouterr().out
            self._assert_canonical(out)
            assert ("eval_limit" in json.loads(out)) == (lam is not None)

    # sha256 of the whole stdout, recorded before the region was read from
    # the upper hull: members negative, irrational and at lam = 0, n = 2..7,
    # and two positive matrices whose Perron sweep converges
    @pytest.mark.parametrize("n, entries, digest", [
        (2, "digits",
         "8b86d5ad20f7db3a1b6e0ee9e2d43757513157955fdd97eeed12c34740f25cfd"),
        (3, "small",
         "067a168972318207c8fe3d925398916cd49eb2709df64cb018890487121b3dad"),
        (4, "rational",
         "2e1ed21548c6906fb326c34334bd50da954117601e0baa335d06ba4dcd5334db"),
        (5, "small",
         "7f130d80d404560d7090597841e795b0a3d9d624aee386df7d9915bb017cd093"),
        (6, "rational",
         "efb87d31968397e285499c91cfa64f9e85666e38c50c0cacf9933dd3e7a4bf29"),
        (7, "digits",
         "4928bbb8a6de1bb9d455ffe3ca023abfb27272c4c8c2d68674206b962ce7bda9"),
        (2, "positive",
         "f1af46879e4fee888d4a8139584001e0bbd7daee6c3eec752bb0e2b5ffd15437"),
        (6, "positive",
         "2af36e7e6866be767494e00544e8f75f6a0c1fce727af2f8e8f1404ac9782ce9"),
    ])
    def test_eigen_stdout_pinned(self, capsys, n, entries, digest):
        rng = random.Random(n)
        if entries == "rational":
            A = [[0 if rng.random() < 0.2
                  else f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"
                  for _ in range(n)] for _ in range(n)]
        else:
            lo, hi = {"digits": (-9, 9), "small": (-2, 2),
                      "positive": (1, 9)}[entries]
            A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        assert run(["eigen", "--json", json.dumps({"A": A})]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("p_max, tol", [(20, 1e-6), (2, 1e-6), (2, 1e-2)])
    def test_perron_block_end_to_end(self, capsys, n, p_max, tol):
        """The Perron block's gap is the relative gap of perron_p at p_max
        to the largest region member, and ``converged`` is that gap < tol."""
        rng = random.Random(n)
        A = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        code, obj = invoke(capsys, "eigen", "--json", json.dumps(
            {"A": A, "options": {"p_max": p_max, "tol": tol}}))
        assert code == 0
        limit = float(max(eigen_region(A)))
        rho = perron_p(A, p_max)[0].to_float()
        gap = abs(rho - limit) / max(1.0, abs(limit))
        assert obj["perron"] == {"limit_float": limit, "p_max": p_max,
                                 "final_rel_gap": gap,
                                 "converged": gap < tol}

    def test_perron_gap_past_float_range(self, capsys):
        code, obj = invoke(capsys, "eigen", "--json",
                           json.dumps({"A": [[BIG, 1], [1, 1]]}))
        assert code == 0
        assert obj["perron"]["limit_float"] == "inf"
        gap = obj["perron"]["final_rel_gap"]
        assert isinstance(gap, float) and gap < 1e-12
        assert obj["perron"]["converged"] is True
        # the true gap is far below any float; check the value it measures
        logmag = perron_p([[BIG, 1], [1, 1]], 20)[0].logmag
        assert logmag == pytest.approx(math.log(10 ** 400), rel=1e-12)

    def test_perron_gap_past_float_range_irrational(self, capsys):
        code, obj = invoke(capsys, "eigen", "--json",
                           json.dumps({"A": IRRATIONAL_BIG}))
        assert code == 0
        assert obj["region"] == ["-inf", "inf"]
        gap = obj["perron"]["final_rel_gap"]
        assert isinstance(gap, float) and gap < 1e-12
        assert obj["perron"]["limit_float"] == "inf"
        assert obj["perron"]["converged"] is True

    def test_unsettled_perron_keeps_the_region(self, capsys, monkeypatch):
        import boxalg.oracle as oracle
        monkeypatch.setattr(oracle, "perron_p", _unsettled_from(0))
        code, obj = invoke(capsys, "eigen", "--json",
                           json.dumps({"A": SETTLES_NOW}))
        assert code == 0
        assert obj["region"] == ["-3", "-2", "2", "3"]
        assert obj["perron"] == {"converged": False, "final_rel_gap": "inf",
                                 "limit_float": 3.0, "p_max": 20}

    def test_step_limit_reaches_the_unsettled_path(self, capsys,
                                                   monkeypatch):
        # the real perron_p, allowed one Noda step on a matrix that needs
        # more: it raises, and the kind still prints its region
        import boxalg.eigen as eigen
        from boxalg import ConvergenceError
        A = [[1, 2, 1], [2, 2, 9], [1, 1, 3]]
        monkeypatch.setattr(eigen, "NODA_STEPS", 1)
        with pytest.raises(ConvergenceError):
            perron_p(A, 20)
        code, obj = invoke(capsys, "eigen", "--json", json.dumps({"A": A}))
        assert code == 0
        assert obj["region"] == ["-3", "-2", "3"]
        assert obj["perron"] == {"converged": False, "final_rel_gap": "inf",
                                 "limit_float": 3.0, "p_max": 20}

    def test_former_unsettled_matrix_settles(self, capsys):
        code, obj = invoke(capsys, "eigen", "--json",
                           json.dumps({"A": SETTLES_NOW}))
        assert code == 0
        assert isinstance(obj["perron"]["final_rel_gap"], float)
        code, obj = invoke(capsys, "oracle", "--json",
                           json.dumps({"quantity": "perron", "A": SETTLES_NOW}))
        assert code == 0
        assert all(isinstance(v, float) for v in obj["values"])
        assert len(obj["values"]) == 21

    def test_one_region_and_one_perron_run(self, capsys, monkeypatch):
        import boxalg.cli as cli
        import boxalg.oracle as oracle
        calls = []
        for module, name in ((cli, "eigen_region"), (oracle, "perron_p")):
            def counted(*args, _f=getattr(module, name), _name=name, **kw):
                calls.append((_name, args[1:]))
                return _f(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        code, obj = invoke(capsys, "eigen", "--json",
                           '{"A":[[2,1],[1,2]],"options":{"p_max":12}}')
        assert code == 0 and obj["perron"]["converged"] is True
        assert calls == [("eigen_region", ()), ("perron_p", (12,))]

    @pytest.mark.parametrize("p_max, message", [
        (-1, "p_max must be a nonnegative integer"),
        (65, "exceeds the guard"),
        (True, "p_max must be a nonnegative integer, got True"),
    ])
    def test_perron_keeps_the_sweep_guard(self, capsys, p_max, message):
        code, obj = invoke(capsys, "eigen", "--json", json.dumps(
            {"A": [[2, 1], [1, 2]], "options": {"p_max": p_max}}))
        assert code == 3
        assert message in obj["error"]

    @pytest.mark.parametrize("rows", [[[BIG, 1], [1, 1]], [[BIG, 0], [0, 1]]])
    def test_eigen_past_float_range(self, capsys, rows):
        code, obj = invoke(capsys, "eigen", "--json", json.dumps({"A": rows}))
        assert code == 0
        assert obj["region"] == ["1", BIG]
        assert obj["region_float"] == [1.0, "inf"]


class TestOracle:
    def test_near_tie_sweep(self, capsys):
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"det","A":[[-1,1],[1,1]]}',
                           "--pmax", "8")
        assert code == 0
        assert obj["limit"] == "-1"
        assert obj["near_tie"] is True
        assert obj["p_values"] == list(range(9))

    def test_equal_logs_of_a_nonzero_sum(self, capsys):
        # 10^16 and 10^16 - 1 have equal float logs, but their power sums
        # at p = 0 and 1 are 1 and 3 * 10^32 - 3 * 10^16 + 1, not 0
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"sum","xs":[10000000000000000,'
                           '-9999999999999999],"options":{"p_max":1}}')
        assert code == 0
        assert obj["values"] == [1.0, 66943295008.21706]

    @pytest.mark.parametrize("text", [
        '{"quantity":"sum","xs":5}',
        '{"quantity":"det","A":5}',
        '{"quantity":"hyperplane","points":5,"x":[1]}',
        '{"quantity":"cramer","A":[[1]],"b":7}',
        '{"quantity":"sum","xs":"12"}',
        '{"quantity":"sum","xs":["1.5"]}',
        '{"quantity":"charpoly","A":[[1]],"lam":true}',
    ])
    def test_malformed_inputs_exit_three(self, capsys, text):
        code, obj = invoke(capsys, "oracle", "--json", text)
        assert code == 3
        assert "error" in obj

    @pytest.mark.parametrize("text, message", [
        ('{"quantity":"hyperplane","points":[[1,2],[3,4],[5,6]],"x":[1,1]}',
         "determinant needs a square matrix, got 2x3"),
        ('{"quantity":"hyperplane","points":[[1,2],[3,4],[5,6]],'
         '"x":[1,1,1]}', "x has length 3, expected 2"),
        ('{"quantity":"cramer","A":[[1,2],[3,4]],"b":[1,1,1]}',
         "right-hand side length 3 != size 2"),
        ('{"quantity":"cramer","A":[[1,2]],"b":[1,1,1]}',
         "system matrix must be square, got 1x2"),
        ('{"quantity":"hyperplane","points":[],"x":[1]}',
         "matrix must have at least one column"),
        ('{"quantity":"hyperplane","points":[[1,2,7],[3,4]],"x":[1]}',
         "columns have inconsistent lengths"),
        ('{"quantity":"hyperplane","points":[[1,"1/2"]],"x":[1,1]}',
         "determinant needs a square matrix, got 2x1"),
        ('{"quantity":"sum","xs":[1,2],"options":{"p_max":true}}',
         "p_max must be a nonnegative integer, got True"),
    ])
    def test_malformed_shapes_keep_their_messages(self, capsys, text,
                                                  message):
        code, obj = invoke(capsys, "oracle", "--json", text)
        assert code == 3
        assert obj == {"error": message}

    def test_unsettled_perron_keeps_the_settled_values(self, capsys,
                                                       monkeypatch):
        import boxalg.oracle as oracle
        monkeypatch.setattr(oracle, "perron_p", _unsettled_from(10))
        code, obj = invoke(capsys, "oracle", "--json",
                           json.dumps({"quantity": "perron", "A": SETTLES_NOW}))
        assert code == 0
        assert obj["limit"] == "3"
        assert all(isinstance(v, float) for v in obj["values"][:10])
        assert obj["values"][10:] == [None] * 11
        assert obj["abs_gaps"][10:] == obj["rel_gaps"][10:] == ["inf"] * 11
        assert obj["final_rel_gap"] == "inf" and obj["converged"] is False

    def test_perron_gaps_past_float_range_irrational(self, capsys):
        text = json.dumps({"quantity": "perron", "A": IRRATIONAL_BIG})
        assert run(["oracle", "--json", text]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        obj = json.loads(out)
        assert obj["limit"] == "inf" and obj["converged"] is True
        assert all(isinstance(g, float) and g < 1e-12
                   for g in obj["rel_gaps"])
        # an absolute gap is the relative one times the limit: inf unless 0
        assert obj["abs_gaps"] == ["inf" if g else 0.0
                                   for g in obj["rel_gaps"]]
        assert "inf" in obj["abs_gaps"]

    def test_perron_still_rejects_a_non_positive_entry(self, capsys):
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"perron","A":[[1,0],[0,1]]}')
        assert code == 3
        assert obj == {"error": "at p=0: matrix entry (1,2) must be positive"}

    def test_hyperplane_rejects_ragged_points(self, capsys):
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"hyperplane","points":[[1,2,7],[3,4]],'
                           '"x":[1,1]}')
        assert code == 3
        assert obj == {"error": "columns have inconsistent lengths"}

    def test_floats_read_as_decimals(self, capsys):
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"sum","xs":[0.1,0.2],'
                           '"options":{"p_max":2}}')
        assert code == 0
        assert obj["limit"] == "1/5"

    def test_limit_past_float_range(self, capsys):
        big = "1" + "0" * 400
        code, obj = invoke(capsys, "oracle", "--json", json.dumps(
            {"quantity": "sum", "xs": [big, 1], "options": {"p_max": 2}}))
        assert code == 0
        assert obj["limit"] == big
        assert obj["limit_float"] == "inf"
        assert obj["values"] == ["inf"] * 3
        # relative gaps from log magnitudes; absolute ones clamp to inf
        assert obj["rel_gaps"][:2] == [0.0, 0.0]
        assert 0 < obj["rel_gaps"][2] < 1e-12
        assert obj["abs_gaps"] == [0.0, 0.0, "inf"]
        assert obj["converged"] is True


    # sha256 of the whole stdout of a seeded batch of rational sweeps,
    # recorded while the net maps were still keyed by Fraction, and
    # re-recorded when each finite-index value became the exact root
    @pytest.mark.parametrize("quantity, digest", [
        ("sum", "7a1ddef914f114b4464a46a7c1fc6ab672e30b6c9a2496590d52dfd807f5e5e0"),
        ("det", "fe082152fb0c9fcfeb3ea4d1b49ddb392d00f72c9d9871055793b8c0b71d2fe5"),
        ("cramer", "574223e06ab5f2f540c2e716ab562dbc24b84d3edf43dbbe4d7292160598ce6c"),
        ("hyperplane", "81a5b702d029499d4b1f25d855849ed485393fa03a0c7526f90b8a6275a9a5eb"),
        ("charpoly", "ef73cf394f7adc63d094b01bc44aa6fb819d8f0c5437bc574cd703dc55b2027f"),
    ])
    def test_rational_sweeps_pinned(self, capsys, quantity, digest):
        rng = random.Random(quantity)

        def rat():
            if rng.random() < 0.2:
                return "0"
            return f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"

        def mat(n):
            return [[rat() for _ in range(n)] for _ in range(n)]

        batch = []
        for k in range(8):
            n = 1 + k % 4
            item = {"quantity": quantity, "options": {"p_max": k}}
            if quantity == "sum":
                xs = [rat() for _ in range(40 * (k + 1))]
                item["xs"] = xs + [str(-Fraction(x)) for x in xs[::3]]
            elif quantity == "det":
                item["A"] = mat(n)
            elif quantity == "cramer":
                item.update(A=mat(n), b=[rat() for _ in range(n)])
            elif quantity == "hyperplane":
                item.update(points=mat(n), x=[rat() for _ in range(n)])
            else:
                item.update(A=mat(n), lam=rat())
            batch.append(item)
        run(["oracle", "--json", json.dumps(batch)])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sum_reads_its_vector_once(self, capsys, scalar_passes):
        """The CLI hands the sweep the raw ``xs``: one ``core._scalars``
        pass over the vector."""
        xs = [random.Random(34).randint(-99, 99) for _ in range(500)]
        code, obj = invoke(capsys, "oracle", "--json", json.dumps(
            {"quantity": "sum", "xs": xs, "options": {"p_max": 3}}))
        assert code == 0 and scalar_passes == [xs]
        assert Fraction(obj["limit"]) == sweep("sum", {"xs": xs}).limit

    @pytest.mark.parametrize("problem, passes", [
        ({"quantity": "hyperplane", "points": [[1, "1/2"], [-3, 2]],
          "x": [2, "1/3"]}, [[1, "1/2"], [-3, 2], [2, "1/3"]]),
        ({"quantity": "cramer", "A": [[2, -1], ["1/2", 3]], "b": [1, 4]},
         [[2, -1], ["1/2", 3], [1, 4]]),
    ], ids=["hyperplane", "cramer"])
    def test_each_point_and_vector_is_read_once(self, capsys, scalar_passes,
                                                problem, passes):
        """One ``core._scalars`` pass per point, per matrix row and per
        vector, in the order the sweep reads the fields."""
        from boxalg import cli

        code, obj = invoke(capsys, "oracle", "--json", json.dumps(problem))
        assert code == 0 and scalar_passes == passes
        inputs = {k: v for k, v in problem.items() if k != "quantity"}
        limit = sweep(problem["quantity"], inputs).limit
        assert obj["limit"] == cli._exact({}, limit=limit)["limit"]

    def test_a_bool_in_a_sum_is_still_rejected(self, capsys):
        with pytest.raises(DomainError, match="not a scalar: True"):
            sweep("sum", {"xs": (1, True)})
        code, obj = invoke(capsys, "oracle", "--json",
                           '{"quantity":"sum","xs":[1,true]}')
        assert code == 3 and obj["error"] == "not a scalar: True"


class TestSym:
    def test_balanced_determinant(self, capsys):
        code, obj = invoke(capsys, "sym", "--json",
                           '{"A":[[3,2,3],[1,3,2],[3,1,3]]}')
        assert code == 0
        assert obj["s_det"] == ["27", "27"]
        assert obj["balanced_with_zero"] is True
        assert obj["det_inf"] == "12"

    def test_pair_collapse(self, capsys):
        code, obj = invoke(capsys, "sym", "--json",
                           '{"pairs":[[2,0],[0,3],[1,1]]}')
        assert code == 0
        assert obj["v_values"] == ["2", "-3", "0"]
        assert obj["v_identity"] is True

    def test_dominant_balanced_pair_breaks_identity(self, capsys):
        code, obj = invoke(capsys, "sym", "--json",
                           '{"pairs":[[5,5],[2,0]]}')
        assert code == 0
        assert obj["v_identity"] is False

    @pytest.mark.parametrize("A, code, error", [
        ([[1] * 10] * 10, 4,
         "pair determinant on a 10x10 matrix exceeds the size cap 9"),
        ([[1, 2, 3], [4, 5, 6]], 3,
         "pair determinant needs a square matrix, got 2x3")])
    def test_pair_determinant_faults(self, capsys, A, code, error):
        assert invoke(capsys, "sym", "--json", json.dumps({"A": A})) == (
            code, {"error": error})

    @pytest.mark.parametrize("item", ["[3]", "[1,2,3]", '"ab"', "5"])
    def test_malformed_pair(self, capsys, item):
        code, obj = invoke(capsys, "sym", "--json",
                           f'{{"pairs":[[2,0],{item}]}}')
        assert code == 3
        assert obj == {"error": f"not a pair: {json.loads(item)!r}"}

    # sha256 of the whole stdout of seeded batches, recorded while s_det
    # still ran a balance-pair DP on Fractions
    @pytest.mark.parametrize("entries, digest", [
        ("small",
         "6b29e97d3f43a894a9889c6b29a000df71a979a279bfbc9491f8d038faf5d33a"),
        ("rational",
         "6316b1cb4df0791fb9c9f541d7128c3105aaffb2126cd4bded706db2916a2e6f"),
    ])
    def test_stdout_pinned(self, capsys, entries, digest):
        run(["sym", "--json", json.dumps(_det_sym_batch("sym", entries))])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInputHandling:
    def test_integer_inputs_are_read_once(self, capsys, monkeypatch):
        # all-integer problems reach the integer kernels without a Fraction
        # coercion, and a max system's matrix is scaled once, when it is
        # built: the column scan and the Kaykobad tests scale only b
        import boxalg.solve as solve
        coerced, scaled = [], []

        def as_scalar(value, _f=sys.modules["boxalg.core"].as_scalar):
            coerced.append(value)
            return _f(value)

        def over_lcm(values, _f=solve._over_lcm):
            values = list(values)
            scaled.append(values)
            return _f(values)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "boxalg" and hasattr(module, "as_scalar"):
                monkeypatch.setattr(module, "as_scalar", as_scalar)
        monkeypatch.setattr(solve, "_over_lcm", over_lcm)
        for kind, doc in (
                ("oracle", '{"quantity":"sum","xs":[3,-3,2,5,-5,1],'
                           '"options":{"p_max":4}}'),
                ("det", '{"A":[[2,1,0],[1,2,1],[0,1,2]],"options":{"p":2}}'),
                ("maxsolve", '{"A":[[2,3],[4,1]],"b":[5,7],"options":{"p":2}}')):
            code, obj = invoke(capsys, kind, "--json", doc)
            assert code == 0 and "error" not in obj
        assert obj["kaykobad"] is not None and "kaykobad_p" in obj
        assert coerced == []
        assert scaled == [[5, 7]]

    @pytest.mark.parametrize("kind, problem", [pytest.param(*case, id=(
            case[0] + "-" + case[1]["quantity"] if "quantity" in case[1]
            else case[0])) for case in [
        ("det", {"A": [[2, -1], ["1/2", 3]],
                 "options": {"mode": "upper", "p": 2}}),
        ("solve", {"A": [[2, -1], ["1/2", 3]], "b": [1, 4]}),
        ("maxsolve", {"A": [[2, 3], [4, 1]], "b": [5, 7],
                      "options": {"p": 2}}),
        # b (-) d = (-5, 3) is a vector of the kind's own
        ("twosided", {"A": [[2, 1], [1, 3]], "C": [[1, 1], [2, 2]],
                      "b": [4, 3], "d": [5, 2]}),
        ("hyperplane", {"points": [[1, 0, -3], [2, -1, 1], [4, 1, 2]],
                        "queries": [[0, 0, 0], ["1/2", 1, 1]]}),
        ("charpoly", {"A": [[2, 1], [1, "1/2"]], "lam": 2,
                      "options": {"p": 1}}),
        ("eigen", {"A": [[1, 2, 1], [2, 2, 9], [1, 1, 3]]}),
        ("sym", {"A": [[3, 2, 3], [1, 3, 2], [3, 1, 3]],
                 "pairs": [[2, 0], [0, 3]]}),
        # TestOracle pins the passes of the sum, cramer and hyperplane sweeps
        *(("oracle", {"quantity": q, **fields}) for q, fields in (
            ("det", {"A": [[2, -1], ["1/2", 3]]}),
            ("charpoly", {"A": [[2, 1], [1, "1/2"]], "lam": 2}),
            ("perron", {"A": [[2, 1], [1, 2]]}))),
    ]])
    def test_each_row_point_and_vector_is_read_once(self, capsys,
                                                    scalar_passes, kind,
                                                    problem):
        """Each input row, point and vector passes ``core._scalars`` once,
        the matrices' rows first, whichever module calls it, and no vector
        a kind computes does: not a solver's x, nor the two-sided b (-) d.
        The one exception is the hyperplane's coefficients, which
        ``LimitHyperplane`` reads as it would a caller's."""
        inputs = [v for key in ("A", "C", "points", "queries")
                  for v in problem.get(key, ())]
        inputs += [problem[key] for key in ("b", "d", "xs", "x")
                   if key in problem]
        code, obj = invoke(capsys, kind, "--json", json.dumps(problem))
        assert code == 0 and "error" not in obj, obj
        passes = scalar_passes
        if kind == "hyperplane":
            passes = [v for v in passes if v in inputs]
        assert passes == inputs

    def test_malformed_json_reports_position(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A": [[1,')
        assert code == 3
        assert "line 1" in obj["error"]
        assert "char" in obj["error"]

    def test_missing_field(self, capsys):
        code, obj = invoke(capsys, "solve", "--json", '{"A":[[1,0],[0,1]]}')
        assert code == 3
        assert "missing field" in obj["error"]

    def test_bad_rational_string(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A":[["2/3x"]]}')
        assert code == 3

    def test_float_entries_read_as_decimals(self, capsys):
        code, obj = invoke(capsys, "det", "--json", '{"A":[[0.5]]}')
        assert code == 0
        assert obj["det_inf"] == "1/2"

    @pytest.mark.parametrize("kind,text", [
        ("det", '{"A":[[1e400]]}'),
        ("det", '{"A":[[NaN]]}'),
        ("det", '{"A":[["1/0"]]}'),
        ("charpoly", '{"A":[[1]],"lam":"1/0"}'),
        ("oracle", '{"quantity":"sum","xs":[1,-Infinity]}'),
    ])
    def test_non_finite_and_zero_denominator_scalars(self, capsys, kind, text):
        code, obj = invoke(capsys, kind, "--json", text)
        assert code == 3
        assert "finite" in obj["error"] or "denominator" in obj["error"]

    @pytest.mark.parametrize("kind,text", [
        ("det", '{"A":[[1]],"options":5}'),
        ("det", '{"A":[[1]],"options":[["mode","lower"]]}'),
        ("oracle", '{"quantity":"sum","xs":[1],"options":{"tol":"x"}}'),
        ("oracle", '{"quantity":"sum","xs":[1],"options":{"tol":0}}'),
        ("eigen", '{"A":[[2]],"options":{"tol":true}}'),
        ("eigen", '{"A":[[2]],"options":{"tol":null}}'),
        ("oracle", '{"quantity":"sum","xs":[1],"options":{"tol":null}}'),
        ("oracle", '{"quantity":"sum","xs":[1],"options":{"tol":true}}'),
        ("eigen", '{"A":[[2]],"options":{"tol":"x"}}'),
        ("eigen", '{"A":[[2]],"options":{"tol":-1}}'),
        ("solve", '{"A":[[1]],"b":[1],"options":{"tol":0}}'),
        ("solve", '{"A":[[1]],"b":[1],"options":{"tol":Infinity}}'),
    ])
    def test_bad_options(self, capsys, kind, text):
        # a kind that reads tol checks it by the library's one rule, and
        # rejects a null one; a kind that does not refuses the key itself
        code, obj = invoke(capsys, kind, "--json", text)
        assert code == 3
        opts = json.loads(text)["options"]
        if kind == "solve":
            assert obj["error"] == ("unknown option 'tol' for solve; "
                                    "known options: none")
        elif isinstance(opts, dict):
            assert obj["error"] == ("tol must be a positive real number, "
                                    f"got {opts['tol']!r}")
        else:
            assert obj["error"].startswith("options must be a JSON object")

    @pytest.mark.parametrize("kind, text, message", [
        pytest.param("eigen", '{"A":[[1,-2],[3,4]],"options":{"p_max":-5}}',
                     "p_max must be", id="eigen-mixed-signs"),
        pytest.param("maxsolve",
                     '{"A":[[1,2,1],[3,4,1]],"b":[1,2],"options":{"p":-3}}',
                     "p must be", id="maxsolve-non-square"),
        pytest.param("charpoly", '{"A":[[1,2],[3,4]],"options":{"p":-3}}',
                     "p must be", id="charpoly-without-lam"),
    ])
    def test_options_checked_on_every_input(self, capsys, kind, text,
                                            message):
        # a kind checks each option it reads, also on the inputs whose
        # result does not use it
        code, obj = invoke(capsys, kind, "--json", text)
        assert code == 3 and message in obj["error"]

    def test_huge_values_clamp_float_fields(self, capsys):
        big = "1" + "0" * 400
        code, obj = invoke(capsys, "det", "--json",
                           json.dumps({"A": [["-" + big]]}), "--mode", "upper")
        assert code == 0
        assert obj["det_inf"] == obj["det_upper"] == "-" + big
        assert obj["det_inf_float"] == obj["det_upper_float"] == "-inf"
        code, obj = invoke(capsys, "sym", "--json", json.dumps({"A": [[big]]}))
        assert code == 0
        assert obj["s_det_float"] == ["inf", 0.0]

    def test_requires_exactly_one_source(self, capsys):
        code, _ = invoke(capsys, "det")
        assert code == 3
        code, _ = invoke(capsys, "det", "--json", "{}", "--file", "x.json")
        assert code == 3

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"A":[[5]]}')
        code, obj = invoke(capsys, "det", "--file", str(path))
        assert code == 0
        assert obj["det_inf"] == "5"

    def test_missing_file(self, capsys, tmp_path):
        code, obj = invoke(capsys, "det", "--file", str(tmp_path / "no.json"))
        assert code == 3

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"A":[[7]]}'))
        code, obj = invoke(capsys, "det", "--file", "-")
        assert code == 0
        assert obj["det_inf"] == "7"

    def test_capacity_exit(self, capsys):
        big = json.dumps({"A": [[1] * 10 for _ in range(10)]})
        code, obj = invoke(capsys, "det", "--json", big)
        assert code == 4
        assert obj == {"error": "determinant on a 10x10 matrix exceeds the "
                                "size cap 9"}

    def test_cap_override_reaches_the_oracle(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXALG_CAP", "10")
        A = [[2 if i == j else 1 for j in range(10)] for i in range(10)]
        code, obj = invoke(capsys, "oracle", "--json", json.dumps(
            {"quantity": "det", "A": A, "options": {"p_max": 1}}))
        assert code == 0
        assert obj["limit"] == "1024"

    def test_cap_override_reaches_the_perron_sweep(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXALG_CAP", "8")
        A = [[2 if i == j else 1 for j in range(8)] for i in range(8)]
        code, obj = invoke(capsys, "eigen", "--json", json.dumps({"A": A}))
        assert code == 0
        assert obj["region"] == ["2"]
        assert obj["perron"]["converged"] is True

    def test_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXALG_CAP", "2")
        code, _ = invoke(capsys, "det", "--json",
                         '{"A":[[1,0,0],[0,1,0],[0,0,1]]}')
        assert code == 4
        monkeypatch.setenv("BOXALG_CAP", "3")
        code, obj = invoke(capsys, "det", "--json",
                           '{"A":[[1,0,0],[0,1,0],[0,0,1]]}')
        assert code == 0
        assert obj["det_inf"] == "1"

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXALG_CAP", "lots")
        code, obj = invoke(capsys, "det", "--json", '{"A":[[1]]}')
        assert code == 3


def _read_by(kind: str, doc: dict) -> dict:
    """doc with only the fields and options a problem of ``kind`` reads
    (an ``oracle`` problem those of its quantity): the CLI refuses the
    others."""
    known = {"kind", "options", *HANDLERS[kind].fields}
    if kind == "oracle":
        known.update(INPUTS.get(doc.get("quantity"), ()))
    out = {k: v for k, v in doc.items() if k in known}
    if isinstance(out.get("options"), dict):
        out["options"] = {k: v for k, v in out["options"].items()
                          if k in HANDLERS[kind].options}
    return out


def _malformed_batch(kind: str) -> list:
    """Problems whose fields each go wrong in a different way, for every
    oracle quantity, each with the fields ``kind`` reads; the first fault
    each reports is pinned by digest."""
    valid = {"A": [[1, 2], [3, 4]], "C": [[1, 0], [0, 1]], "b": [1, 2],
             "d": [2, 1], "points": [[1, 2], [3, 5]], "queries": [[1, 1]],
             "xs": [1, -1, 2], "x": [1, 1], "lam": 1, "pairs": [[1, 2]]}
    faults = [
        {"A": [["x", 1], 5], "points": [["x", 1], 5]},  # junk, then a non-row
        {"A": [[1, 2], []], "points": [[1, 2], []]},  # an empty row
        {"A": [[1, 2], ["q"]], "points": [[1, 2], ["q"]]},  # short and junk
        {"A": [[1, "y"], [3, 4]], "b": ["z", 1]},  # bad A and bad b
        {"C": [[1, True], [0, 1]], "d": [None, 1]},
        {"points": 5, "queries": 7},
        {"queries": "q"},
        {"queries": [[1, "w"], 3]},
        {"xs": ["v", 5], "x": 3},
        {"pairs": [["x", 1], 5]},
        {"A": "bad", "b": {}},
        {"A": [[1, 2], [3, "u"]], "lam": "1/0"},
        {"A": [], "C": [], "b": [], "d": [], "points": [], "queries": [],
         "xs": [], "x": [], "pairs": []},
    ]
    return [_read_by(kind, {**valid, **fault, "quantity": q})
            for fault in faults
            for q in ("sum", "det", "cramer", "hyperplane", "charpoly")]


def _seeded_documents(kind: str, rng: random.Random) -> list:
    """Problems of one kind over integer entries, rationals with zeros,
    entries past the float range and positive matrices (whose eigen
    regions often hold irrational members)."""
    pools = {
        "int": list(range(-9, 10)),
        "rational": [0, "0", "3/4", "-5/7", "1/3", 2, -1],
        "big": [BIG, "-" + BIG, 1, -2, "1/2"],
        "positive": list(range(1, 10)),
    }
    pairs = [0, "0", "3/4", "1/3", 2, BIG]
    docs = []
    for _ in range(40):
        n = rng.randint(1, 4)
        name = "positive" if kind in ("eigen", "maxsolve") else rng.choice(
            sorted(pools))
        pool = pools[name]
        vec = lambda: [rng.choice(pool) for _ in range(n)]  # noqa: E731
        mat = lambda: [vec() for _ in range(n)]  # noqa: E731
        docs.append(_read_by(kind, {
            "A": mat(), "C": mat(), "b": vec(), "d": vec(), "x": vec(),
            "points": mat(), "queries": [vec(), vec()], "xs": vec(),
            "lam": rng.choice(pool),
            "pairs": [[rng.choice(pairs), rng.choice(pairs)] for _ in range(3)],
            "quantity": rng.choice(["sum", "det", "cramer", "hyperplane",
                                    "charpoly", "perron"]),
            "options": {"p_max": 2, "p": rng.choice([0, 3]),
                        "mode": rng.choice(["lower", "upper", "exact"])},
        }))
    return docs


def _check_float_siblings(obj, seen: dict) -> None:
    """Each <key>_float with a <key> sibling is _float_out of that sibling
    read back as a Fraction; lists elementwise, a float member itself."""
    if isinstance(obj, list):
        for v in obj:
            _check_float_siblings(v, seen)
    elif isinstance(obj, dict):
        for key, v in obj.items():
            if key + "_float" in obj:
                _same_value(v, obj[key + "_float"], seen)
            _check_float_siblings(v, seen)


def _same_value(exact, flt, seen: dict) -> None:
    if isinstance(exact, list):
        assert isinstance(flt, list) and len(flt) == len(exact)
        for e, f in zip(exact, flt):
            _same_value(e, f, seen)
    elif isinstance(exact, str) and RATIONAL_RE.match(exact):
        assert _float_out(Fraction(exact)) == flt
        seen["rational"] += 1
    else:  # a float member, or its clamp "inf" / "-inf"
        assert exact == flt
        assert isinstance(exact, float) or exact in ("inf", "-inf")
        seen["float"] += 1


class TestBoundary:
    # sha256 of the stdout and exit code of the malformed batch for every
    # kind, recorded while the CLI still coerced every scalar itself,
    # re-recorded when each finite-index value became the exact root, and
    # again when each kind's batch kept only the fields it reads and the
    # library's shape check took over the CLI's
    def test_first_faults_pinned(self):
        out = io.StringIO()
        for kind in KINDS:
            with contextlib.redirect_stdout(out):
                code = run([kind, "--json",
                            json.dumps(_malformed_batch(kind))])
            out.write(f"exit {code}\n")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "bce9b9dcd14f1f5767b5f2f2e0eb241d275759c82d2ff6ce600f2a70b69b810b")

    def test_every_float_sibling_reads_its_exact_value(self, capsys):
        rng = random.Random(2024)
        seen = {"rational": 0, "float": 0}
        for kind in KINDS:
            run([kind, "--json", json.dumps(_seeded_documents(kind, rng))])
            _check_float_siblings(json.loads(capsys.readouterr().out), seen)
        assert seen["rational"] > 1000 and seen["float"] > 10

    @pytest.mark.parametrize("text, message", [
        pytest.param("[" * 100_000 + "]" * 100_000, "unreadable JSON",
                     id="deep"),
        pytest.param('{"A":[[1%s]]}' % ("0" * 5000), "unreadable JSON",
                     id="json-digits"),
        pytest.param('{"A":[["1%s"]]}' % ("0" * 5000),
                     "cannot read a rational string", id="string-digits"),
    ])
    def test_input_past_python_limits_exits_three(self, capsys, text,
                                                  message):
        code, obj = invoke(capsys, "det", "--json", text)
        assert code == 3 and message in obj["error"]

    def test_input_nested_near_the_recursion_limit_exits_three(self, capsys):
        # near the limit json.loads may read an input whose repr, in the
        # error message, then recurses too deeply
        limit = sys.getrecursionlimit()
        for depth in range(limit - 60, limit + 10):
            nested = "[" * depth + "]" * depth
            code, obj = invoke(capsys, "det", "--json", '{"A":[[%s]]}' % nested)
            assert code == 3 and set(obj) == {"error"}

    def test_undecodable_input_exits_three(self, capsys, monkeypatch,
                                           tmp_path):
        path = tmp_path / "problem.json"
        path.write_bytes(b'{"A":[[1\xff]]}')
        code, obj = invoke(capsys, "det", "--file", str(path))
        assert code == 3 and "cannot read" in obj["error"]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(path.read_bytes()), encoding="utf-8"))
        code, obj = invoke(capsys, "det", "--file", "-")
        assert code == 3 and "cannot read -" in obj["error"]

    def test_result_past_the_digit_limit_exits_four(self, capsys):
        big = "1" + "0" * 3000  # det_inf = big^2 has 6,001 digits
        A = [[big, 0], [0, big]]
        A7 = [[f"{big}/7", 0], [0, f"{big}/7"]]  # a listing over S = 49
        # without lam the listing's own guard trips, at S = 1 and S > 1
        for kind, doc in (("det", {"A": A}), ("charpoly", {"A": A, "lam": 1}),
                          ("charpoly", {"A": A}), ("charpoly", {"A": A7})):
            code, obj = invoke(capsys, kind, "--json", json.dumps(doc))
            assert code == 4 and "too long to print" in obj["error"]
        code, items = invoke(capsys, "det", "--json",
                             json.dumps([{"A": [[1]]}, {"A": A}, {"A": [[2]]}]))
        assert code == 4
        assert [it["code"] for it in items] == [0, 4, 0]
        assert items[2]["result"]["det_inf"] == "2"
        code, items = invoke(capsys, "charpoly", "--json",
                             json.dumps([{"A": [[1]]}, {"A": A7}, {"A": [[2]]}]))
        assert code == 4
        assert [it["code"] for it in items] == [0, 4, 0]
        assert items[2]["result"]["monomials"] == [["-1", 1], ["2", 0]]

    @pytest.mark.parametrize("p", [10 ** 306, 10 ** 307, 5 * 10 ** 307,
                                   10 ** 400],
                             ids=["1e306", "1e307", "5e307", "1e400"])
    def test_index_past_the_float_range(self, capsys, p):
        A = [[99, 98], [97, 96]]
        for kind, doc in (("det", {"A": A}), ("charpoly", {"A": A, "lam": 3})):
            doc["options"] = {"p": p}
            code, obj = invoke(capsys, kind, "--json", json.dumps(doc))
            z = obj["det_p" if kind == "det" else "eval_p"]
            assert code == 0 and z["sign"] == -1
            assert z["logmag"] == pytest.approx(math.log(9506), rel=1e-15)


class TestBatch:
    def test_array_input_and_first_nonzero_code(self, capsys):
        batch = json.dumps([
            {"A": [[-1, 1], [1, 1]]},
            {"kind": "solve", "A": [[1, 1], [1, 1]], "b": [1, 2]},
            {"A": [[2, 1], [1, 2]]},
        ])
        code = run(["det", "--json", batch])
        items = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [it["code"] for it in items] == [0, 2, 0]
        assert items[0]["result"]["det_inf"] == "-1"
        assert items[2]["result"]["det_inf"] == "4"

    def test_item_kind_override(self, capsys):
        batch = json.dumps([{"kind": "nonsense", "A": [[1]]}])
        code = run(["det", "--json", batch])
        items = json.loads(capsys.readouterr().out)
        assert code == 3
        assert "unknown kind" in items[0]["result"]["error"]


class TestDeterminism:
    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        text = '{"A":[[1,-2],[3,"1/2"]],"options":{"p":3}}'
        assert run(["det", "--json", text, "--mode", "upper"]) == 0
        first = capsys.readouterr().out
        assert run(["det", "--json", text, "--mode", "sideways"]) == 3
        err = capsys.readouterr()
        assert err.out == "" and "invalid choice" in err.err
        assert run(["det", "--json", text, "--mode", "upper"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("kind, text, options", [
        ("det", '{"A":[[1,-2],[3,"1/2"]]}', ["--mode", "upper", "--p", "2"]),
        ("oracle", '{"quantity":"det","A":[[-1,1],[1,1]]}',
         ["--pmax", "5", "--tol", "0.01"]),
        ("eigen", '{"A":[[2,1],[1,2]]}', ["--pmax", "3"]),
        ("charpoly", '[{"A":[[2,1],[1,2]],"lam":2},{"A":[[1]]}]', ["--p", "1"]),
    ])
    def test_options_before_the_kind(self, capsys, kind, text, options):
        outs = []
        for argv in ([kind, "--json", text, *options],
                     ["--json", text, *options, kind],
                     [*options, kind, "--json", text]):
            assert run(argv) == 0
            out = capsys.readouterr()
            assert out.err == ""
            outs.append(out.out)
        assert outs[0] == outs[1] == outs[2]

    def test_json_without_a_kind_gets_the_json_error(self, capsys):
        assert run(["--json", '{"A":[[1]]}']) == 3
        out = capsys.readouterr()
        assert out.err == "" and out.out.count("\n") == 1
        assert json.loads(out.out) == {
            "error": f"missing subcommand; pick from {', '.join(KINDS)}"}

    def test_kinds_are_the_handlers_in_order(self, capsys):
        # the usage message and the argparse choices list the kinds in
        # this order, written once as the handler table's keys
        kinds = ("det", "solve", "maxsolve", "twosided", "hyperplane",
                 "charpoly", "eigen", "oracle", "sym")
        assert KINDS == kinds
        assert run([]) == 3
        assert capsys.readouterr().out == (
            '{"error":"missing subcommand; pick from ' + ", ".join(kinds)
            + '"}\n')
        assert run(["nope"]) == 3
        assert "{" + ",".join(kinds) + "}" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["det", "--help"]) == 0
        assert "--json" in capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, capsys):
        run(["eigen", "--json", '{"A":[[1,2,1],[2,2,9],[1,1,3]]}'])
        first = capsys.readouterr().out
        run(["eigen", "--json", '{"A":[[1,2,1],[2,2,9],[1,1,3]]}'])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["region"] == ["-3", "-2", "3"]
