import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecap import catalog, covers, homology, linalg
from liecap.algebra import direct_sum
from liecap.cli import invariant_report, main
from liecap.homology import kunneth_exterior_dim, kunneth_tensor_dim


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_not_nilpotent_exit2(self, tmp_path, capsys):
        # [x1,x2]=x2 is a valid solvable algebra but not nilpotent
        doc = {"dim": 2, "field": "Q",
               "brackets": [{"i": 1, "j": 2, "out": [{"k": 2, "c": "1"}]}]}
        path = tmp_path / "solvable.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2
        assert "nilpotent" in err

    def test_negative_dim_exit2(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"dim": -1, "field": "Q", "brackets": []}))
        code, out, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2 and out == ""
        assert "dim" in err

    def test_jacobi_violation_exit3(self, tmp_path, capsys):
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

    def test_beyond_the_word_cap(self, capsys):
        # a cover of H(20) would need F(40, 3), far over the Hall-word cap
        code, out, _ = run(capsys, "invariants", "H20", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["multiplier_dim"] == 2 * 20 * 20 - 20 - 1
        assert d["exterior_type"] == "A(780)" and d["capable"] is False

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
        "field-and-file"])
def test_malformed_input_exit2(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        argv += ("--file", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and out == ""
    # a catalog key outside its range names the range
    assert _KEY_RANGES.get(argv[1], "") in err


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


class TestNoFreeAlgebra:
    """The user paths never build the free nilpotent algebra of a cover."""

    @pytest.fixture(autouse=True)
    def forbid_free_algebras(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a user path built a free algebra")
        monkeypatch.setattr(covers.FreeNilpotent, "__init__", refuse)
        monkeypatch.setattr(covers, "_FREE_CACHE", {})

    def test_verify_tables_all(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "all")
        assert code == 1
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failing) == 1 and "L6_14" in failing[0]

    def test_invariant_reports(self):
        for key in catalog.all_keys(6):
            invariant_report(catalog.build(key).algebra, str(key))
        h = catalog.build(catalog.parse_key("L6_17")).algebra
        k = catalog.build(catalog.parse_key("L6_22(e=1)")).algebra
        report = invariant_report(direct_sum(h, k), "L6_17+L6_22(e=1)")
        assert report.exterior_dim == kunneth_exterior_dim(h, k)
        assert report.tensor_dim == kunneth_tensor_dim(h, k)


class TestNoDenseBoundary:
    """The user paths read ker d2 and im d3 off the sparse bracket table;
    the dense boundary matrices are a reference for the tests only."""

    @pytest.fixture(autouse=True)
    def forbid_dense_boundaries(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a user path built a dense boundary matrix")
        monkeypatch.setattr(homology, "ce_d2", refuse)
        monkeypatch.setattr(homology, "ce_d3", refuse)

    def test_verify_tables_all(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "all")
        assert code == 1
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failing) == 1 and "L6_14" in failing[0]

    def test_invariant_reports(self):
        for key in catalog.all_keys(6):
            invariant_report(catalog.build(key).algebra, str(key))


class TestNoDenseMatrix:
    """Maps, basis changes and recognition bases are sparse columns on the
    user paths; the dense Matrix serves only ce_d2/ce_d3 and the tests."""

    @pytest.fixture(autouse=True)
    def forbid_dense_matrices(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a user path built a dense Matrix")
        monkeypatch.setattr(linalg.Matrix, "__init__", refuse)

    def test_verify_tables_all(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "all")
        assert code == 1
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failing) == 1 and "L6_14" in failing[0]

    def test_cover_dump_star(self, capsys):
        code, out, _ = run(capsys, "cover", "L6_14", "--dump-star")
        assert code == 0
        info = json.loads(out)
        assert info["star"]["dim"] == info["star_dim"] == 8

    def test_invariant_reports(self):
        for key in catalog.all_keys(6):
            invariant_report(catalog.build(key).algebra, str(key))

    def test_beyond_the_catalog(self, capsys):
        code, out, _ = run(capsys, "invariants", "H20", "--format", "json")
        assert code == 0
        assert json.loads(out)["multiplier_dim"] == 2 * 20 * 20 - 20 - 1


class TestNoMultiplierBasis:
    """Every user path reads the multiplier dimension, the squares and the
    exterior center off im d3; none needs a basis of M(L)."""

    @pytest.fixture(autouse=True)
    def forbid_multiplier_basis(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a user path built the multiplier basis")
        monkeypatch.setattr(homology.MultiplierResult, "basis", property(refuse))

    def test_verify_tables_all(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "all")
        assert code == 1
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failing) == 1 and "L6_14" in failing[0]

    def test_invariant_reports(self):
        for key in catalog.all_keys(6):
            invariant_report(catalog.build(key).algebra, str(key))


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

    def test_jobs_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-tables", "diagonal5", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_epsilon_set(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "multipliers6",
                           "--epsilon-set", "1,-1")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(rows) == 24 + 4 * 2


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
