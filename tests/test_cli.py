import contextlib
import io
import json
import random
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from conftest import central_extension, generalized_heisenberg, random_basis_change
from hypothesis import given, settings
from hypothesis import strategies as st

from liecap import catalog, covers, homology, linalg
from liecap.algebra import (
    LieAlgebra,
    adapted_basis,
    direct_sum,
    dumps,
    lower_central_series,
    transform,
    validate,
)
from liecap import cli as cli_module
from liecap.cli import SUITES, invariant_report, main, run_suites
from liecap.homology import kunneth_exterior_dim, kunneth_tensor_dim, schur_multiplier
from liecap.linalg import QQ, PrimeField
from liecap.recognize import recognize


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def validate_calls(monkeypatch):
    """The dim of the algebra of every triple walk (``validate``) that the
    command line makes while the test runs."""
    calls = []
    walk = cli_module.validate

    def counted(algebra):
        calls.append(algebra.dim)
        return walk(algebra)
    monkeypatch.setattr(cli_module, "validate", counted)
    return calls


def _hall(d, c, field=QQ):
    return covers.free_nilpotent(d, c).algebra_over(field)


def _scrambled(L):
    return transform(L, random_basis_change(random.Random(7), L.dim))


def _upper_triangular(L):
    # e_j -> e_1 + ... + e_j fills the table: F(3,3) gets 55 brackets, not
    # 12, and no RREF row of L^2 and no pivot of im d3 is a unit
    return transform(L, [{i: 1 for i in range(j + 1)} for j in range(L.dim)])


def _extension(field):
    # the central extension of F(2,4) by A(4) whose 15 brackets all have
    # two or more terms
    E = central_extension(_hall(2, 4, field), 4, random.Random(7))
    assert len(E.table) == 15 and all(len(row) > 1 for row in E.table.values())
    return E


def _cover_multiplier(E):
    cover = covers.Cover(E)
    assert cover.free.dim == 23
    return {"multiplier_dim": cover.multiplier_dim}


def _numbers(multiplier, derived, zw):
    return {"multiplier_dim": multiplier, "derived_dim": derived, "exterior_center_dim": zw}


# the types of F(3,3) and F(4,3), on the Hall basis and on any other: their
# derz field is dim L^2 + dim Z - dim(L^2 + Z)
_F33_TYPES = {"exterior_type": "UNRECOGNIZED[dim=29;lcs=29,3,0;ucs=26,29;der=3;z=26;"
                               "derz=3;cent=29,29;m=330]",
              "tensor_type": "UNRECOGNIZED[dim=35;lcs=35,3,0;ucs=32,35;der=3;z=32;"
                             "derz=3;cent=35,35;m=501]"}
_F43_TYPE = {"exterior_type": "UNRECOGNIZED[dim=86;lcs=86,15,0;ucs=80,86;der=15;z=80;"
                              "derz=15;cent=86,86;m=2540]"}

# (the algebra of a --file document, the report fields it must give, or a
# function of the algebra that gives them): the Witt closed forms of F(d,c),
# basis changes that must keep every type, and the cover's multiplier
_FILE_REPORTS = [
    (lambda: _hall(5, 3), _numbers(150, 50, 0)),
    (lambda: _hall(2, 6), _numbers(18, 21, 0)),
    (lambda: _hall(3, 3), {**_numbers(18, 11, 0), **_F33_TYPES}),
    (lambda: _upper_triangular(_hall(3, 3)), {**_numbers(18, 11, 0), **_F33_TYPES}),
    (lambda: _hall(4, 3), {**_numbers(60, 26, 0), **_F43_TYPE}),
    (lambda: _scrambled(_hall(4, 3)), {**_numbers(60, 26, 0), **_F43_TYPE}),
    # both branches of the class-2 split label a re-based table
    (lambda: _scrambled(catalog.build(catalog.parse_key("L6_21(e=2)")).algebra),
     {"exterior_type": "L5_8+A(3)", "tensor_type": "L5_8+A(6)"}),
    (lambda: _scrambled(catalog.build(catalog.parse_key("L5_7")).algebra),
     {"exterior_type": "H(1)+A(3)", "tensor_type": "H(1)+A(6)"}),
    (lambda: _extension(QQ), _cover_multiplier),
    (lambda: _extension(PrimeField(101)), _cover_multiplier),
]


class TestList:
    def test_dim5(self, capsys):
        code, out, err = run(capsys, "list", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert lines[0].startswith("L5_1")

    def test_dim6_epsilon_annotation(self, capsys):
        code, out, _ = run(capsys, "list", "6")
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.strip()]) == 28
        assert sum("epsilon family" in l for l in lines) == 4

    def test_dim7_errors(self, capsys):
        code, out, err = run(capsys, "list", "7")
        assert code == 2
        assert "one-parameter families" in err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dim_below_one_errors(self, capsys, dim):
        code, out, err = run(capsys, "list", dim)
        assert code == 2 and out == ""
        assert "range 1..6" in err and "dimension 7" not in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "list", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [d["key"] for d in data] == ["L3_1", "L3_2"]


class TestInvariants:
    def test_l54_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "L5_4", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["multiplier_dim"] == 5
        assert d["exterior_type"] == "A(6)"
        assert d["diagonal_dim"] == 10
        assert d["tensor_type"] == "A(16)"
        assert d["capable"] is False

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
    def test_tensor_fields_match_the_tensor_square(self, field):
        # the report reads L x L off L ^ L; the built tensor square agrees
        for key in catalog.all_keys(6, field):
            L = catalog.build(key, field).algebra
            report = invariant_report(L, str(key))
            tensor = schur_multiplier(L).tensor_square()
            assert tensor.dim == report.tensor_dim, str(key)
            assert recognize(tensor).label() == report.tensor_type, str(key)

    def test_a1_noncapable(self, capsys):
        code, out, _ = run(capsys, "invariants", "A1", "--format", "json")
        assert code == 0
        assert json.loads(out)["capable"] is False

    def test_l621_eps0(self, capsys):
        code, out, _ = run(capsys, "invariants", "L6_21(e=0)", "--format", "json")
        assert code == 0
        assert json.loads(out)["exterior_type"] == "H(1)+A(5)"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "invariants", "H1", "--format", "csv")
        assert code == 0
        header, row = [l for l in out.splitlines() if l.strip()]
        assert header.split(",")[0] == "label"
        assert row.split(",")[0] == "H1"

    def test_bad_key_exit2(self, capsys):
        code, _, err = run(capsys, "invariants", "L9_1")
        assert code == 2

    def test_file_input(self, tmp_path, capsys):
        doc = {"dim": 3, "labels": ["x1", "x2", "x3"], "field": "Q",
               "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]}
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "invariants", "--file", str(path),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["exterior_type"] == "A(3)"

    @pytest.mark.parametrize("make, want", _FILE_REPORTS, ids=[
        "F(5,3)", "F(2,6)", "F(3,3)", "F(3,3)-upper-triangular", "F(4,3)",
        "F(4,3)-scrambled", "L6_21(e=2)-scrambled", "L5_7-scrambled",
        "extension-Q", "extension-GF101"])
    def test_file_reports(self, tmp_path, capsys, make, want):
        algebra = make()
        path = tmp_path / "algebra.json"
        path.write_text(dumps(algebra))
        start = time.perf_counter()
        code, out, _ = run(capsys, "invariants", "--file", str(path), "--format", "json")
        assert time.perf_counter() - start < 60
        assert code == 0
        report = json.loads(out)
        want = want(algebra) if callable(want) else want
        assert {name: report[name] for name in want} == want

    def test_not_nilpotent_exit2(self, tmp_path, capsys):
        # [x1,x2]=x2 is a valid solvable algebra but not nilpotent
        doc = {"dim": 2, "field": "Q",
               "brackets": [{"i": 1, "j": 2, "out": [{"k": 2, "c": "1"}]}]}
        path = tmp_path / "solvable.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2
        assert "nilpotent" in err

    def test_not_nilpotent_refused_before_im_d3(self, tmp_path, capsys, d3_calls):
        # [x1,x2]=x2, [x1,x3]=x3 has the d3 triple (x1,x2,x3), which the
        # lower central series rejects before it is built
        doc = {"dim": 3, "field": "Q",
               "brackets": [{"i": 1, "j": 2, "out": [{"k": 2, "c": "1"}]},
                            {"i": 1, "j": 3, "out": [{"k": 3, "c": "1"}]}]}
        path = tmp_path / "solvable3.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2 and out == ""
        assert "nilpotent" in err
        assert d3_calls == []

    def test_negative_dim_exit2(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"dim": -1, "field": "Q", "brackets": []}))
        code, out, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2 and out == ""
        assert "dim" in err

    def test_jacobi_violation_exit3(self, tmp_path, capsys, validate_calls):
        doc = {"dim": 3, "field": "Q",
               "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]},
                            {"i": 1, "j": 3, "out": [{"k": 1, "c": "1"}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariants", "--file", str(path))
        assert code == 3
        assert "Jacobi" in err
        # the residual is printed with the algebra's labels, in coordinate order
        doc = {"dim": 4, "field": "Q", "labels": ["a", "b", "c", "z"],
               "brackets": [{"i": 2, "j": 3, "out": [{"k": 4, "c": "1"}]},
                            {"i": 1, "j": 4, "out": [{"k": 3, "c": "-1"}, {"k": 2, "c": "1/2"}]}]}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariants", "--file", str(path))
        assert (code, out) == (3, "")
        assert err == "error: Jacobi violation at (1,2,3): 1/2*b + -1*c\n"
        # the triple walk ran once per document, after the report failed
        assert validate_calls == [3, 4]

    def test_valid_file_walks_no_triple(self, tmp_path, capsys, validate_calls):
        # d2 . d3 = 0 inside the report is the Jacobi check of a valid document
        path = tmp_path / "l5_9.json"
        path.write_text(dumps(catalog.build(catalog.parse_key("L5_9", QQ), QQ).algebra))
        code, _, _ = run(capsys, "invariants", "--file", str(path))
        assert code == 0
        assert validate_calls == []

    def test_beyond_the_word_cap(self, capsys):
        # a cover of H(20) would need F(40, 3), far over the Hall-word cap
        code, out, _ = run(capsys, "invariants", "H20", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["multiplier_dim"] == 2 * 20 * 20 - 20 - 1
        assert d["exterior_type"] == "A(780)" and d["capable"] is False

    @pytest.mark.parametrize("key, want", [
        ("A300", {"multiplier_dim": 44850, "exterior_center_dim": 0, "capable": True}),
        ("H149", {"multiplier_dim": 44252, "exterior_center_dim": 1, "capable": False}),
    ], ids=["A300", "H149"])
    def test_largest_keys(self, capsys, key, want):
        # dim M(A(n)) = n(n-1)/2 and A(n) is capable; dim M(H(m)) = 2m^2 - m - 1
        # and Z^(H(m)) is the center line
        code, out, _ = run(capsys, "invariants", key, "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert {name: d[name] for name in want} == want

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "invariants", "L6_10", "--format", "json")
        _, out2, _ = run(capsys, "invariants", "L6_10", "--format", "json")
        assert out1 == out2

    def test_missing_key_exit2(self, capsys):
        code, _, err = run(capsys, "invariants")
        assert code == 2


def _bracket(i, j, k, c="1"):
    return {"i": i, "j": j, "out": [{"k": k, "c": c}]}


@pytest.mark.parametrize("argv, doc", [
    (("invariants", "L6_19(e=1/0)"), None),
    (("cover", "L6_19(e=1/0)"), None),
    (("invariants", "L6_19(e=1/101)", "--field", "Fp:101"), None),
    (("invariants",), [1, 2]),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 2, 3), _bracket(2, 1, 3)]}),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 2, 3), _bracket(1, 2, 3)]}),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 1, 3)]}),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 4, 3)]}),
    (("invariants",), {"dim": 3, "labels": ["a", "b"], "brackets": []}),
    (("invariants",), {"dim": 6, "brackets": [_bracket(1, 2, 7)]}),
    (("invariants",), {"dim": 3, "brackets": 5}),
    (("invariants",), {"dim": 3, "brackets": [5]}),
    (("invariants",), {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": 5}]}),
    (("invariants",), {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}, {"k": 3, "c": "2"}]}]}),
    (("invariants",), {"dim": 3, "labels": 5}),
    (("invariants",), {"dim": 3, "labels": [1, 2, 3]}),
    (("invariants",), {"dim": []}),
    (("invariants",), {"dim": 3.7}),
    (("invariants",), {"dim": True}),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 2, 3, "1/0")]}),
    (("invariants",), {"dim": 3, "field": {"p": 101},
                       "brackets": [_bracket(1, 2, 3, "1/101")]}),
    (("cover", "A100"), None),
    (("cover", "H40"), None),
    (("invariants",), {"dim": 301, "brackets": []}),
    (("invariants",), {"dim": 10**12, "brackets": []}),
    (("invariants",), {"dim": 3, "field": {"p": 2**61 - 1}, "brackets": []}),
    (("invariants", "L5_4", "--field", f"Fp:{2**61 - 1}"), None),
    (("verify-tables", "multipliers5", "--field", f"Fp:{2**61 - 1}"), None),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 2, 3, "1e999999999")]}),
    (("invariants",), {"dim": 3, "brackets": [_bracket(1, 2, 3, "1e-999999999")]}),
    (("invariants",), {"dim": 3, "field": {"p": 101},
                       "brackets": [_bracket(1, 2, 3, "1e1_000_000_000")]}),
    (("invariants", "A301"), None),
    (("invariants", "H150"), None),
    (("cover", "A5000"), None),
    (("invariants", "L3_3"), None),
    (("invariants", "L6_29"), None),
    (("invariants", "H0"), None),
    (("invariants", "L5_4"), {"dim": 3, "brackets": [_bracket(1, 2, 3)]}),
    (("invariants", "--field", "Fp:3"), {"dim": 3, "brackets": [_bracket(1, 2, 3)]}),
    # nested past the JSON reader's recursion limit, written as text
    (("invariants",), "[" * 200_000 + "]" * 200_000),
], ids=["eps-zero-den", "cover-eps-zero-den", "eps-zero-den-fp", "json-list",
        "bracket-both-orders", "bracket-twice", "diagonal-bracket", "index-ij",
        "label-count", "index-k", "brackets-int", "bracket-int", "out-int",
        "out-index-twice", "labels-int", "labels-ints", "dim-list", "dim-float",
        "dim-bool", "coefficient-zero-den", "coefficient-zero-den-fp",
        "cover-beyond-cap-abelian", "cover-beyond-cap-heisenberg", "dim-above-bound",
        "dim-huge", "prime-huge", "field-prime-huge", "verify-field-prime-huge",
        "coefficient-exponent-huge", "coefficient-exponent-huge-negative",
        "coefficient-exponent-huge-fp", "key-abelian-above-bound",
        "key-heisenberg-above-bound", "cover-key-huge", "key-index-above-range",
        "key-index-above-range-dim6", "key-heisenberg-zero", "key-and-file",
        "field-and-file", "nested-too-deep"])
def test_malformed_input_exit2(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "algebra.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += ("--file", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and out == ""
    # a catalog key outside its range names the range
    assert _KEY_RANGES.get(argv[1], "") in err


@pytest.mark.parametrize("brackets, message", [
    ([_bracket(0, 1, 3)], "bracket index (0,1) outside 1..3"),
    ([_bracket(1, 4, 3)], "bracket index (1,4) outside 1..3"),
    ([_bracket(2, 1, 3), _bracket(1, 2, 3)], "bracket (1,2) given twice, once as (2,1)"),
    ([_bracket(1, 2, 3), _bracket(2, 1, 3, "0")], "bracket (2,1) given twice, once as (1,2)"),
    ([_bracket(2, 1, 3), _bracket(2, 1, 3)], "bracket (2,1) given twice"),
    ([_bracket(1, 1, 3)], "diagonal bracket (1,1) may not be given"),
    ([_bracket(1, 1, 3, "0")], "diagonal bracket (1,1) may not be given"),
    ([_bracket(1, 2, 4)], "bracket (1,2) has output index 4 outside 1..3"),
    ([_bracket(1, 2, 0)], "bracket (1,2) has output index 0 outside 1..3"),
], ids=["i-zero", "j-above-dim", "both-orders", "both-orders-zero", "reversed-twice",
        "diagonal", "diagonal-zero", "k-above-dim", "k-zero"])
def test_bad_document_names_its_own_indices(tmp_path, capsys, brackets, message):
    # refused while reading, in the document's 1-based numbers
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 3, "brackets": brackets}))
    code, out, err = run(capsys, "invariants", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


_KEY_RANGES = {"L3_3": "L3_3: dimension 3 has indices 1..2",
               "L6_29": "L6_29: dimension 6 has indices 1..28",
               "H0": "H(0): m must be at least 1"}


@pytest.mark.parametrize("field", ["Fp:4", "Fp:9", "GF7"])
@pytest.mark.parametrize("argv", [("invariants", "L5_4"),
                                  ("verify-tables", "multipliers5"),
                                  ("cover", "L4_3")])
def test_bad_field_exit2(capsys, argv, field):
    code, out, err = run(capsys, *argv, "--field", field)
    assert code == 2
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("field", ["Fp:abc", "Fp:"])
@pytest.mark.parametrize("argv", [("invariants", "L5_4"), ("verify-tables", "multipliers5")])
def test_field_without_a_prime_is_unknown(capsys, argv, field):
    code, out, err = run(capsys, *argv, "--field", field)
    assert (code, out) == (2, "")
    assert err == f"error: unknown field {field!r} (use Q or Fp:<p>)\n"


def test_deeply_nested_document_names_its_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "invariants", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("doc, message", [
    ({"dim": 3, "brackets": [1] * 100_000},
     "'brackets' must be an array of objects, not a list of length 100000"),
    ({"dim": "1" * 100_000}, "'dim' must be an integer, not a str of length 100000"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1/" + "0" * 100_000}]}]},
     "coefficient a str of length 100002 is not an element of Q"),
    ({"dim": 3, "labels": ["x"] * 2 + [1] * 100_000},
     "'labels' must be an array of strings, not a list of length 100002"),
], ids=["brackets", "dim", "coefficient", "labels"])
def test_long_bad_value_is_named_not_echoed(tmp_path, capsys, doc, message):
    # a malformed value is named by its type and length, so the error is one
    # short line however large the document
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


_NOT_A_NUMBER = "is not an integer, p/q or decimal with exponent within +-1000 in"


@pytest.mark.parametrize("argv, message", [
    (("verify-tables", "exterior6", "--epsilon-set", "x" * 50_000),
     f"epsilon a str of length 50000 {_NOT_A_NUMBER} Q"),
    (("invariants", "L5_4", "--field", "Fp:" + "7" * 3000),
     "prime field needs p < 2^32, got an int of 3000 characters"),
    (("invariants", "L5_4", "--field", "Fp:" + "7" * 5000),
     "unknown field a str of length 5003 (use Q or Fp:<p>)"),
    (("invariants", "L5_" + "7" * 3000), "a str of length 3003: dimension 5 has indices 1..9"),
    (("invariants", "Q" * 5000), "cannot parse key a str of length 5000"),
    (("invariants", "A" + "7" * 3000),
     "a str of length 3001 has dimension an int of 3000 characters, beyond 300"),
    (("invariants", "L6_19(e=" + "7" * 5000 + ")"),
     f"epsilon a str of length 5000 {_NOT_A_NUMBER} Q"),
    (("invariants", "L6_19(e=1/" + "3" * 3000 + ")", "--field", "Fp:3"),
     "epsilon a str of length 3002 has a zero denominator in GF(3)"),
    (("list", "-" + "7" * 3000),
     "dimension an int of 3001 characters is outside the supported range 1..6"),
    # beyond the 4,300 digits that int() converts
    (("invariants", "A" + "7" * 5000),
     "a str of length 5001 has dimension an int of 5000 characters, beyond 300"),
    (("invariants", "H" + "7" * 5000),
     "a str of length 5001 has dimension an int of 5001 characters, beyond 300"),
    (("invariants", "L6_" + "7" * 5000), "a str of length 5003: dimension 6 has indices 1..28"),
    # refused by argparse itself
    (("x" * 3000,), "argument command: invalid choice: a str of length 3000"),
    (("verify-tables", "x" * 3000), "argument suite: invalid choice: a str of length 3000"),
    (("list", "x" * 3000), "argument dim: invalid int value: a str of length 3000"),
    (("invariants", "L5_8", "--format", "x" * 3000),
     "argument --format: invalid choice: a str of length 3000"),
    (("invariants", "L5_8", "x" * 3000), "unrecognized arguments: a str of length 3000"),
], ids=["epsilon-set", "field-prime", "field-digits", "key-index", "key", "key-abelian",
        "key-epsilon", "key-epsilon-zero-den", "list-dim", "key-abelian-int-limit",
        "key-heisenberg-int-limit", "key-index-int-limit", "argparse-command",
        "argparse-suite", "argparse-dim", "argparse-format", "argparse-unrecognized"])
def test_long_command_line_value_is_named_not_echoed(capsys, argv, message):
    # as with a --file value: one short line, whatever the length of the value
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:
        # argparse refuses the value: a usage line and the program name come
        # before its error line, and the choices it lists, whose form differs
        # between Python versions, are left out of the comparison
        code, (out, err) = exc.code, capsys.readouterr()
        usage, _, line = err.partition(": error: ")
        assert usage.startswith("usage: liecap")
        err = "error: " + line
        assert len(err.encode()) < 200
        err = re.sub(r" \(choose from .*\)\n$", "\n", err)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 200


def test_short_bad_value_is_echoed(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": "3"}))
    code, out, err = run(capsys, "invariants", "--file", str(path))
    assert (code, out, err) == (2, "", "error: 'dim' must be an integer, not '3'\n")


def coordinate_terms(L):
    """Whether each term of the lower central series of L is a coordinate
    span, one flag per term."""
    return [all(len(row) == 1 for row in term.sparse_rows()) for term in lower_central_series(L)]


class TestReportOnScrambledInput:
    """``invariant_report`` keeps an algebra whose lower central series is
    a chain of coordinate spans, and computes on any other re-based on its
    adapted basis when that table has fewer terms.  After a random change
    of basis the report equals the one computed on the natural basis as it
    stands, without re-basing."""

    FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)

    @staticmethod
    def natural_report(monkeypatch, L):
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "_rebased", lambda algebra: algebra)
            return invariant_report(L, "L").as_dict()

    def assert_oracle(self, monkeypatch, field, family, seed):
        """Each algebra of the family, scrambled twice, reports as in its
        natural basis; some scrambled input takes the re-based path."""
        rng = random.Random(seed)
        rebased = 0
        for L in family:
            want = self.natural_report(monkeypatch, L)
            for _ in range(2):
                S = transform(L, random_basis_change(rng, L.dim, field))
                rebased += cli_module._rebased(S) is not S
                assert invariant_report(S, "L").as_dict() == want, (L, field)
        assert rebased

    @FIELDS
    def test_free_nilpotent(self, monkeypatch, field):
        family = [covers.free_nilpotent(d, c).algebra_over(field) for d, c in ((2, 4), (3, 3), (2, 5))]
        self.assert_oracle(monkeypatch, field, family, 3)

    @FIELDS
    def test_heisenberg_sums(self, monkeypatch, field):
        family = [direct_sum(catalog.heisenberg_algebra(m, field), catalog.abelian_algebra(k, field))
                  for m, k in ((1, 2), (2, 1), (3, 2))]
        self.assert_oracle(monkeypatch, field, family, 5)

    @FIELDS
    def test_generalized_heisenberg(self, monkeypatch, field):
        rng = random.Random(7)
        family = [generalized_heisenberg(rng, v, r, field) for v, r in ((8, 4), (7, 5))]
        assert all(L.dim > 10 for L in family)
        self.assert_oracle(monkeypatch, field, family, 11)

    @FIELDS
    def test_fraction_extensions(self, monkeypatch, field):
        # 3 is no unit of GF(3); over Q the tables hold fractions
        rng = random.Random(17)
        denominators = (1, 2, 4) if field == PrimeField(3) else (1, 2, 3, 4)
        family = [central_extension(catalog.build(catalog.parse_key(text, field), field).algebra,
                                    kdim, rng, denominators)
                  for text, kdim in (("L5_6", 2), ("L6_19(e=1)", 3), ("L6_25", 2))]
        self.assert_oracle(monkeypatch, field, family, 19)

    @staticmethod
    def forbid_adapted_basis(monkeypatch):
        def refuse(algebra):
            raise AssertionError("a kept table was re-based")
        monkeypatch.setattr(cli_module, "adapted_basis", refuse)

    def test_coordinate_series_kept(self, monkeypatch):
        # the central extension's 15 brackets all have two or more terms,
        # but each term of its series is a coordinate span
        E = _extension(QQ)
        assert all(coordinate_terms(E))
        want = invariant_report(transform(E, adapted_basis(E)), "E").as_dict()
        with monkeypatch.context() as patch:
            self.forbid_adapted_basis(patch)
            assert cli_module._rebased(E) is E
            assert invariant_report(E, "E").as_dict() == want

    def test_mixed_inside_derived_rebased(self):
        # F(3,3) with its basis mixed inside the L^2 block, across layers 2
        # and 3: L^2 stays a coordinate span and gamma_3 does not, so the
        # rule does not keep it
        F = covers.FreeNilpotent(3, 3).algebra
        mix = random_basis_change(random.Random(7), F.dim - 3)
        cols = [{i: 1} for i in range(3)] + [{3 + j: c for j, c in col.items()} for col in mix]
        S = transform(F, cols)
        assert coordinate_terms(S)[:3] == [True, True, False]
        assert cli_module._rebased(S) is not S

    def test_hall_basis_kept(self, monkeypatch):
        # the Hall table of F(2,7) is kept by the rule, with no adapted basis
        F = covers.FreeNilpotent(2, 7).algebra
        self.forbid_adapted_basis(monkeypatch)
        assert cli_module._rebased(F) is F

    def test_kept_when_rebasing_adds_terms(self):
        # F(2,7) with e5 + e3 for e5: gamma_4 is no coordinate span, and the
        # adapted table has 96 terms against this table's 95
        F = covers.FreeNilpotent(2, 7).algebra
        cols = [{i: 1} for i in range(F.dim)]
        cols[5] = {5: 1, 3: 1}
        S = transform(F, cols)
        assert not all(coordinate_terms(S))
        assert (cli_module._terms(S), cli_module._terms(transform(S, adapted_basis(S)))) == (95, 96)
        assert cli_module._rebased(S) is S


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a user path built {what}")
    return refuse


class _UserPaths:
    """``verify-tables all`` and a report on every catalog key, each run
    under the ban that the subclass's fixture applies."""

    def test_verify_tables_all(self, capsys):
        # the one failing row is the published L6_14 exterior square
        # (tables.EXTERIOR_6_ERRATA), over each field
        for field in ("Q", "Fp:3"):
            code, out, _ = run(capsys, "verify-tables", "all", "--field", field)
            assert code == 1
            failing = [l for l in out.splitlines() if l.startswith("FAIL")]
            assert len(failing) == 1 and re.match(r"FAIL +exterior6 +L6_14 ", failing[0])

    def test_invariant_reports(self):
        for key in catalog.all_keys(6):
            invariant_report(catalog.build(key).algebra, str(key))
        h = catalog.build(catalog.parse_key("L6_17")).algebra
        k = catalog.build(catalog.parse_key("L6_22(e=1)")).algebra
        report = invariant_report(direct_sum(h, k), "L6_17+L6_22(e=1)")
        assert report.exterior_dim == kunneth_exterior_dim(h, k)
        assert report.tensor_dim == kunneth_tensor_dim(h, k)


class TestNoFreeAlgebra(_UserPaths):
    """The user paths never build the free nilpotent algebra of a cover."""

    @pytest.fixture(autouse=True)
    def forbid_free_algebras(self, monkeypatch):
        monkeypatch.setattr(covers.FreeNilpotent, "__init__", _refuse("a free algebra"))
        monkeypatch.setattr(covers, "_FREE_CACHE", {})


class TestNoDenseBoundary(_UserPaths):
    """The user paths read ker d2 and im d3 off the sparse bracket table;
    the dense boundary matrices are a reference for the tests only."""

    @pytest.fixture(autouse=True)
    def forbid_dense_boundaries(self, monkeypatch):
        monkeypatch.setattr(homology, "ce_d2", _refuse("a dense boundary matrix"))
        monkeypatch.setattr(homology, "ce_d3", _refuse("a dense boundary matrix"))


class TestNoDenseMatrix(_UserPaths):
    """Maps, basis changes and recognition bases are sparse columns on the
    user paths, ``cover``'s star table and the maps around it included; the
    dense Matrix serves only ce_d2/ce_d3 and the tests."""

    @pytest.fixture(autouse=True)
    def forbid_dense_matrices(self, monkeypatch):
        monkeypatch.setattr(linalg.Matrix, "__init__", _refuse("a dense Matrix"))

    def test_cover_dump_star(self, capsys):
        code, out, _ = run(capsys, "cover", "L6_14", "--dump-star")
        assert code == 0
        info = json.loads(out)
        assert info["star"]["dim"] == info["star_dim"] == 8

    def test_beyond_the_catalog(self, capsys):
        code, out, _ = run(capsys, "invariants", "H20", "--format", "json")
        assert code == 0
        assert json.loads(out)["multiplier_dim"] == 2 * 20 * 20 - 20 - 1


class TestNoMultiplierBasis(_UserPaths):
    """Every user path reads the multiplier dimension, the squares and the
    exterior center off im d3; none needs a basis of M(L)."""

    @pytest.fixture(autouse=True)
    def forbid_multiplier_basis(self, monkeypatch):
        monkeypatch.setattr(homology.MultiplierResult, "basis",
                            property(_refuse("the multiplier basis")))


# JSON documents of dim <= 4 in which any field may hold a value of the wrong type
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                     st.floats(-3, 3, width=16), st.text(max_size=2))
_INDEX = st.one_of(st.integers(0, 5), _SCALARS)
_COEFFICIENT = st.one_of(st.sampled_from(["1", "-1", "2", "1/2", "1/0", "1/101", "x"]),
                         _SCALARS)
_OUT = st.one_of(st.lists(st.one_of(st.fixed_dictionaries({"k": _INDEX, "c": _COEFFICIENT}),
                                    _SCALARS), max_size=3), _SCALARS)
_BRACKET = st.one_of(st.fixed_dictionaries({"i": _INDEX, "j": _INDEX, "out": _OUT}), _SCALARS)
_DOCUMENT = st.one_of(
    st.fixed_dictionaries(
        {"dim": st.one_of(st.integers(-1, 4), _SCALARS)},
        optional={"field": st.one_of(st.just("Q"), st.fixed_dictionaries(
                      {"p": st.one_of(st.sampled_from([3, 4, 5, 101]), _SCALARS)}), _SCALARS),
                  "labels": st.one_of(st.lists(st.one_of(st.text(max_size=2), _SCALARS),
                                               max_size=5), _SCALARS),
                  "brackets": st.one_of(st.lists(_BRACKET, max_size=4), _SCALARS)}),
    st.lists(_SCALARS, max_size=2), _SCALARS)


# catalog keys of small dimension, keys beyond the bounds, and garbage; a
# leading "-" would be read as an option by argparse, so none is generated
_EPSILON = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "1/101", "x", ""])
_KEY = st.one_of(
    st.builds("A{}".format, st.one_of(st.integers(0, 8), st.integers(301, 10**12))),
    st.builds("H{}".format, st.one_of(st.integers(0, 3), st.integers(150, 10**12))),
    st.builds("L{}_{}{}".format, st.integers(2, 7), st.integers(0, 30),
              st.one_of(st.just(""), st.builds("(e={})".format, _EPSILON))),
    st.text(max_size=8).filter(lambda t: not t.startswith("-")))

# documents over the dim bound, or with one bracket whose indices may pass dim
_OVERSIZED = st.one_of(
    st.fixed_dictionaries({"dim": st.integers(301, 10**13), "brackets": st.just([])}),
    st.builds(lambda dim, i, j, k: {"dim": dim, "brackets": [_bracket(i, j, k)]},
              st.integers(2, 5), st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)))


def _main_output(argv, doc=None):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = Path(tmp) / "algebra.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--file", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(_DOCUMENT)
@settings(max_examples=150, deadline=None)
def test_fuzzed_file_input_never_raises(doc):
    code, out, err = _main_output(["invariants", "--format", "json"], doc)
    assert code in (0, 2, 3)
    if code == 0:
        assert json.loads(out)["dim"] == doc["dim"]
    else:
        assert err.startswith("error: ") and out == ""


# well-formed tables of dim 3..5 with up to four brackets, most of which
# violate the Jacobi identity
_TABLE_DOCUMENT = st.integers(3, 5).flatmap(lambda n: st.fixed_dictionaries({
    "dim": st.just(n),
    "field": st.sampled_from(["Q", {"p": 3}, {"p": 101}]),
    "brackets": st.dictionaries(
        st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda ij: ij[0] < ij[1]),
        st.dictionaries(st.integers(1, n), st.sampled_from(["1", "-1", "2", "1/2"]),
                        min_size=1, max_size=2),
        max_size=4).map(lambda table: [
            {"i": i, "j": j, "out": [{"k": k, "c": c} for k, c in out.items()]}
            for (i, j), out in table.items()])}))


def _walk_first_report(algebra, label):
    """``invariant_report`` behind the triple walk, the reference for the
    report-first order: a failed walk raises before the report runs, and
    the command line's own walk then names the triple."""
    if not validate(algebra).ok:
        raise linalg.LiecapError("Jacobi violation")
    return invariant_report(algebra, label)


@given(st.one_of(_DOCUMENT, _TABLE_DOCUMENT))
@settings(max_examples=150, deadline=None)
def test_fuzzed_file_input_as_with_the_walk_first(doc):
    # the report runs first and the walk only after it fails, with the
    # same exit code and the same output as the walk first
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.json"
        path.write_text(json.dumps(doc))
        argv = ["invariants", "--format", "json", "--file", str(path)]
        got = _main_output(argv)
        with mock.patch.object(cli_module, "invariant_report", _walk_first_report):
            assert got == _main_output(argv)


_FIELDS = {"Q": linalg.QQ, "Fp:3": linalg.PrimeField(3), "Fp:101": linalg.PrimeField(101)}


@given(_KEY, st.sampled_from(sorted(_FIELDS)))
@settings(max_examples=150, deadline=None)
def test_fuzzed_key_never_raises(key, field):
    code, out, err = _main_output(["invariants", key, "--field", field, "--format", "json"])
    assert code in (0, 2)
    if code == 0:
        label = str(catalog.parse_key(key, _FIELDS[field]))
        assert json.loads(out)["label"] == label and err == ""
    else:
        assert err.startswith("error: ") and out == ""


@given(_OVERSIZED)
@settings(max_examples=100, deadline=None)
def test_fuzzed_oversized_document_never_raises(doc):
    code, out, err = _main_output(["invariants", "--format", "json"], doc)
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out)["dim"] == doc["dim"] and err == ""
    else:
        assert err.startswith("error: ") and out == ""


class TestVerifyTables:
    def test_multipliers5_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "multipliers5")
        assert code == 0
        assert "9/9 rows pass" in out

    def test_diagonal5_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "diagonal5")
        assert code == 0

    def test_census_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "census")
        assert code == 0

    def test_exterior6_reports_published_divergence(self, capsys):
        # the published table's k=14 row disagrees with the computation;
        # the suite must surface that row as a failure with a JSON diff
        code, out, _ = run(capsys, "verify-tables", "exterior6")
        assert code == 1
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failing) == 1 and "L6_14" in failing[0]
        diff = json.loads(out.splitlines()[-1])
        assert diff == [{"suite": "exterior6", "row": "L6_14",
                         "expected": "L5_8+A(1)", "computed": "H(1)+A(3)"}]

    def test_kept_rows_and_reports_share_their_strings(self):
        eps = tuple(QQ.coerce(e) for e in catalog.DEFAULT_EPSILON_SAMPLES)
        first, again = (run_suites(["multipliers6", "kunneth"], QQ, eps) for _ in range(2))
        assert [r.line() for r in first] == [r.line() for r in again]
        assert all(a.row is b.row and a.expected is b.expected and a.computed is b.computed
                   for a, b in zip(first, again))
        key = catalog.parse_key("L6_14")
        alg = catalog.build(key).algebra
        a, b = (invariant_report(alg, str(key)) for _ in range(2))
        assert a.label is b.label
        assert a.exterior_type is b.exterior_type and a.tensor_type is b.tensor_type

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
    def test_one_multiplier_per_distinct_table(self, field, monkeypatch):
        eps = tuple(field.coerce(e) for e in catalog.DEFAULT_EPSILON_SAMPLES)
        # each suite alone, with a fresh schur_multiplier on every call
        alone = [row for name in SUITES for row in SUITES[name](field, eps)]
        tables = []

        def counted(algebra):
            tables.append((algebra.field, algebra.dim, algebra.table_key()))
            return schur_multiplier(algebra)
        monkeypatch.setattr(cli_module, "schur_multiplier", counted)
        rows = run_suites(list(SUITES), field, eps)
        assert len(tables) == len(set(tables)) > 100
        assert [r.line() for r in rows] == [r.line() for r in alone]
        # the shared results die with the call: a second call computes afresh
        run_suites(["multipliers5"], field, eps)
        assert len(tables) == len(set(tables)) + 9

    def test_shares_by_table_equality(self, monkeypatch):
        # one table given in two entry orders shares one result; the same
        # integer table over Q and GF(3) compares equal as a dict, and the
        # field in the bucket key keeps the two apart; [x1,x2]=x3 and
        # [x1,x3]=x2 share a bucket and not a result
        table = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}, (0, 3): {4: 1}}
        computed, seen = [], {}

        def counted(algebra):
            computed.append(algebra)
            return schur_multiplier(algebra)

        def probe(field, eps, homology):
            for name, f, brackets in (
                    ("Q", QQ, table), ("Q reversed", QQ, dict(reversed(table.items()))),
                    ("GF3", PrimeField(3), table),
                    ("GF3 reversed", PrimeField(3), dict(reversed(table.items()))),
                    ("H x3", QQ, {(0, 1): {2: 1}}), ("H x2", QQ, {(0, 2): {1: 1}})):
                dim = 3 if name.startswith("H") else 5
                seen[name] = homology(LieAlgebra(f, dim, brackets))
            return []
        monkeypatch.setattr(cli_module, "schur_multiplier", counted)
        monkeypatch.setitem(SUITES, "probe", probe)
        assert run_suites(["probe"], QQ, ()) == []
        assert seen["Q"] is seen["Q reversed"] and seen["GF3"] is seen["GF3 reversed"]
        assert seen["Q"] is not seen["GF3"] and seen["H x3"] is not seen["H x2"]
        assert seen["Q"].algebra.field == QQ and seen["GF3"].algebra.field == PrimeField(3)
        assert len(computed) == 4

    def test_jobs_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-tables", "diagonal5", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_epsilon_set(self, capsys):
        for text, count in (("1,-1", 2), ("1/2", 1)):
            code, out, _ = run(capsys, "verify-tables", "multipliers6",
                               "--epsilon-set", text)
            assert code == 0
            rows = [l for l in out.splitlines() if l.startswith("PASS")]
            assert len(rows) == 24 + 4 * count
        assert "L6_19(e=1/2)" in out

    @pytest.mark.parametrize("argv, message", [
        (["--epsilon-set", "1/0"], "error: epsilon 1/0 has a zero denominator in Q\n"),
        (["--field", "Fp:3", "--epsilon-set", "1/3"],
         "error: epsilon 1/3 has a zero denominator in GF(3)\n"),
        (["--epsilon-set", ","],
         "error: epsilon '' is not an integer, p/q or decimal with exponent "
         "within +-1000 in Q\n"),
    ])
    def test_bad_epsilon_set_exit2(self, capsys, argv, message):
        code, out, err = run(capsys, "verify-tables", "exterior6", *argv)
        assert code == 2
        assert out == ""
        assert err == message


class TestCover:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "cover", "L4_3")
        assert code == 0
        d = json.loads(out)
        assert d["multiplier_dim"] == 2
        assert d["star_dim"] == 6

    def test_dump_star(self, capsys):
        code, out, _ = run(capsys, "cover", "H1", "--dump-star")
        assert code == 0
        d = json.loads(out)
        assert d["star"]["dim"] == 5  # H(1) has a 2-dim multiplier

    @staticmethod
    def star_document(key, gens, free_class, free_dim, multiplier, derived, star_dim, brackets):
        """The ``cover --dump-star`` document, for a star whose brackets
        (i, j, k, c) are single terms [s_i, s_j] = c s_k."""
        labels = [f"s{t}" for t in range(1, star_dim + 1)]
        star = {"dim": star_dim, "labels": labels, "field": "Q",
                "brackets": [{"i": i, "j": j, "out": [{"k": k, "c": c}]}
                             for i, j, k, c in brackets]}
        return {"key": key, "free_generators": gens, "free_class": free_class,
                "free_dim": free_dim, "star_dim": star_dim, "multiplier_dim": multiplier,
                "derived_dim": derived, "exterior_center_dim": 0, "star": star}

    @pytest.mark.parametrize("key, want", [
        ("H1", (2, 3, 5, 2, 3, 5, [(1, 2, 3, "-1"), (1, 3, 4, "-1"), (2, 3, 5, "-1")])),
        ("L5_6", (2, 5, 14, 3, 6, 8, [
            (1, 2, 3, "-1"), (1, 3, 4, "-1"), (1, 4, 6, "-1"), (1, 5, 7, "1"),
            (1, 6, 7, "-1"), (2, 3, 5, "-1"), (2, 4, 7, "1"), (2, 5, 8, "-1"),
            (2, 6, 8, "1"), (3, 4, 8, "-1")])),
    ])
    def test_dump_star_bytes(self, capsys, key, want):
        # the star table of the cover, word for word as the command prints it
        code, out, _ = run(capsys, "cover", key, "--dump-star")
        assert code == 0
        assert out == json.dumps(self.star_document(key, *want), indent=2) + "\n"
