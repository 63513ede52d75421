import json
import random
from itertools import combinations

import pytest
from conftest import central_extension

from liecap import catalog
from liecap.algebra import (
    LieAlgebra,
    NotAnIdeal,
    NotNilpotent,
    center,
    derived_subalgebra,
    direct_sum,
    dumps,
    is_ideal,
    loads,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    quotient,
    subalgebra_on,
    support_triples,
    transform,
    upper_central_series,
    validate,
)
from liecap.linalg import (
    QQ,
    DimensionMismatch,
    PrimeField,
    Subspace,
    apply_columns,
    kernel_columns,
)


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


class TestValidate:
    def test_abelian_ok(self):
        assert validate(build("A4")).ok

    def test_catalog_entries_ok(self):
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                assert validate(catalog.build(key).algebra).ok, str(key)

    def test_jacobi_violation_located(self):
        # [x1,x2]=x3, [x1,x3]=x1: the Jacobi sum on (1,2,3) leaves +x3
        bad = LieAlgebra(QQ, 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        report = validate(bad)
        assert not report.ok
        i, j, k, residual = report.first_failure()
        assert (i, j, k) == (0, 1, 2)
        assert residual

    def test_output_index_outside_dim_rejected(self):
        for k in (6, -1):
            with pytest.raises(DimensionMismatch):
                LieAlgebra(QQ, 6, {(0, 1): {k: 1}})


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])


def seeded_algebras(field, seed, count):
    """Every catalog entry, then ``count`` seeded central extensions of them."""
    keys = catalog.all_keys(6, field)
    algebras = [catalog.build(key, field).algebra for key in keys]
    rng = random.Random(seed)
    for _ in range(count):
        base = catalog.build(rng.choice([k for k in keys if k.a >= 3]), field).algebra
        algebras.append(central_extension(base, rng.choice((1, 2)), rng))
    return algebras


def brute_first_failure(L):
    """The first of all C(n, 3) triples in lex order with a nonzero Jacobi
    sum, and that sum, read off bracket_sparse."""
    f = L.field
    for i, j, k in combinations(range(L.dim), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in L.bracket_sparse({a: f.one}, L.bracket_basis(b, c)).items():
                total[t] = f.add(total.get(t, f.zero), v)
        total = {t: v for t, v in total.items() if v}
        if total:
            return (i, j, k, total)
    return None


class TestSupportTriples:
    @FIELDS
    def test_equals_brute_force_filter(self, field):
        for L in seeded_algebras(field, 17, 12):
            brute = [t for t in combinations(range(L.dim), 3)
                     if any(p in L.table for p in combinations(t, 2))]
            assert support_triples(L) == brute, L

    def test_closed_counts(self):
        # A(n) has no bracket; the pairs of H(m) are disjoint, so each meets
        # 2m - 1 third indices
        assert support_triples(catalog.abelian_algebra(16)) == []
        for m in range(1, 6):
            assert len(support_triples(catalog.heisenberg_algebra(m))) == m * (2 * m - 1)

    @FIELDS
    def test_validate_matches_full_scan_on_flipped_tables(self, field):
        # change one structure constant of a valid table; validate, walking
        # only the support, names the same first failure as the full scan
        rng = random.Random(29)
        failures = 0
        for L in seeded_algebras(field, 31, 12):
            if not L.table:
                continue
            for _ in range(2):
                (i, j), row = rng.choice(sorted(L.table.items()))
                k = rng.choice(sorted(row)) if rng.random() < 0.5 else rng.randrange(L.dim)
                new_row = dict(row)
                new_row[k] = field.add(row.get(k, field.zero), field.from_int(rng.choice((1, 2))))
                bad = LieAlgebra(field, L.dim, {**L.table, (i, j): new_row})
                expected = brute_first_failure(bad)
                assert validate(bad).first_failure() == expected
                assert validate(bad).ok == (expected is None)
                failures += expected is not None
        assert failures >= 40


def vector(*coords):
    """The sparse vector with the given coordinates."""
    return {i: QQ.coerce(c) for i, c in enumerate(coords) if c}


def plus(a, b):
    return apply_columns(QQ, (a, b), {0: QQ.one, 1: QQ.one})


class TestBracket:
    def test_alternating(self):
        L = build("L5_6")
        v = vector(1, 2, -3, 5, 7)
        assert L.bracket_sparse(v, v) == {}

    def test_heisenberg_bracket(self):
        L = build("L3_2")
        assert L.bracket_sparse(vector(1, 0, 0), vector(0, 1, 0)) == vector(0, 0, 1)

    def test_l43_bracket(self):
        L = build("L4_3")
        assert L.bracket_sparse(vector(1, 0, 0, 0), vector(0, 0, 1, 0)) == vector(0, 0, 0, 1)

    def test_bilinear(self):
        L = build("L6_14")
        u, v, w = vector(1, 0, 2, 0, 0, 0), vector(0, 1, 0, 0, 3, 0), vector(0, 0, 1, 1, 0, 0)
        uv = L.bracket_sparse(u, v)
        uw = L.bracket_sparse(u, w)
        assert L.bracket_sparse(u, plus(v, w)) == plus(uv, uw)


class TestDirectSum:
    def test_abelian_sum(self):
        s = direct_sum(build("A2"), build("A3"))
        assert s.dim == 5 and s.is_abelian()

    def test_h1_plus_a1_is_l42(self):
        s = direct_sum(build("H1"), build("A1"))
        assert s.table_key() == build("L4_2").table_key()

    def test_l58_plus_a1(self):
        # hand table concatenation: same brackets inside a dim-6 ambient
        s = direct_sum(build("L5_8"), build("A1"))
        assert s.dim == 6
        assert derived_subalgebra(s).dim == 2
        expected = LieAlgebra(QQ, 6, {(0, 1): {3: 1}, (0, 2): {4: 1}})
        assert s.table_key() == expected.table_key()


class TestSeries:
    def test_h2_derived_equals_center(self):
        L = build("L5_4")
        d = derived_subalgebra(L)
        z = center(L)
        assert d.dim == 1 and z.space == d.space

    def test_class_l618(self):
        # chain x3, x4, x5, x6 gives class 5
        assert nilpotency_class(build("L6_18")) == 5

    def test_center_of_abelian(self):
        L = build("A4")
        assert center(L).dim == 4

    def test_lcs_strict_descent(self):
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                series = lower_central_series(catalog.build(key).algebra)
                dims = [s.dim for s in series]
                assert dims[-1] == 0 or len(dims) == 1
                assert all(a > b for a, b in zip(dims, dims[1:]))

    def test_center_contains_last_term(self):
        for key in catalog.expand_keys(6):
            L = catalog.build(key).algebra
            series = lower_central_series(L)
            if len(series) >= 2:
                last = series[-2]  # gamma_c, the last nonzero term
                assert center(L).space.contains_subspace(last.space)

    def test_not_nilpotent_detected(self):
        # [x1,x2]=x2 is solvable, not nilpotent
        L = LieAlgebra(QQ, 2, {(0, 1): {1: 1}})
        assert validate(L).ok
        with pytest.raises(NotNilpotent):
            nilpotency_class(L)

    def test_upper_central_series(self):
        L = build("L4_3")
        ucs = upper_central_series(L)
        assert [s.dim for s in ucs] == [1, 2, 4]


class TestGenerators:
    def test_abelian(self):
        assert minimal_generator_count(build("A5")) == 5

    def test_l610(self):
        assert minimal_generator_count(build("L6_10")) == 4

    def test_heisenberg(self):
        for m in (1, 2, 3):
            assert minimal_generator_count(build(f"H{m}")) == 2 * m


class TestQuotient:
    def test_quotient_by_whole(self):
        L = build("L5_6")
        q, proj = quotient(L, Subspace.full(QQ, 5))
        assert q.dim == 0

    def test_l43_mod_center(self):
        L = build("L4_3")
        q, proj = quotient(L, center(L).space)
        assert q.dim == 3
        assert q.table_key() == build("L3_2").table_key()
        assert proj.is_bracket_preserving()
        assert kernel_columns(QQ, proj.columns) == center(L).space

    def test_not_an_ideal(self):
        L = build("L4_3")
        with pytest.raises(NotAnIdeal):
            quotient(L, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))

    def test_l53_quotients_by_central_lines(self):
        # the two pivot lines of Z(L5_3) = <x4, x5> give H(1)+A(1) and L4_3
        L = build("L5_3")
        z = center(L)
        assert z.dim == 2
        q1, _ = quotient(L, Subspace.from_vectors(QQ, 5, [[0, 0, 0, 1, 0]]))
        q2, _ = quotient(L, Subspace.from_vectors(QQ, 5, [[0, 0, 0, 0, 1]]))
        assert q1.table_key() == build("L4_2").table_key()
        assert q2.table_key() == build("L4_3").table_key()

    def test_nested_quotients_compose(self):
        from liecap.recognize import fingerprint
        for text in ("L6_17", "L6_14", "L5_7", "L6_19(e=1)"):
            L = build(text)
            g = lower_central_series(L)
            n_small = g[-2].space   # gamma_c, the last nonzero term
            n_big = g[-3].space
            mid, proj = quotient(L, n_small)
            img = Subspace.from_vectors(QQ, mid.dim,
                                        [proj.apply(v) for v in n_big.sparse_rows()])
            q2, _ = quotient(mid, img)
            direct, _ = quotient(L, n_big)
            assert q2.dim == direct.dim, text
            assert fingerprint(q2).as_tuple() == fingerprint(direct).as_tuple(), text


class TestSubalgebra:
    def test_derived_as_algebra(self):
        L = build("L6_14")
        sub, embed = subalgebra_on(L, derived_subalgebra(L))
        assert sub.dim == 4
        assert embed.is_bracket_preserving()

    def test_ideal_check(self):
        L = build("L4_3")
        assert is_ideal(L, derived_subalgebra(L).space)
        assert not is_ideal(L, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))


class TestTransform:
    def test_identity(self):
        L = build("L5_9")
        T = tuple({i: 1} for i in range(5))
        assert transform(L, T).table_key() == L.table_key()

    def test_scaling_preserves_validity(self):
        L = build("L6_16")
        T = tuple({j: 2} if j == 0 else {j - 1: 1, j: 2} for j in range(6))
        M = transform(L, T)
        assert validate(M).ok

    def test_singular_basis_rejected(self):
        from liecap.linalg import LinalgError
        L = build("L3_2")
        T = ({0: 1, 1: 1}, {0: 1, 1: 1}, {2: 1})
        with pytest.raises(LinalgError):
            transform(L, T)


class TestJson:
    def test_round_trip(self):
        for text in ("A3", "H2", "L5_6", "L6_19(e=2)", "L6_14"):
            L = build(text)
            again = loads(dumps(L))
            assert again.dim == L.dim
            assert again.table_key() == L.table_key()
            assert again.labels == L.labels

    def test_schema_shape(self):
        obj = json.loads(dumps(build("L3_2")))
        assert obj["dim"] == 3
        assert obj["field"] == "Q"
        assert obj["brackets"] == [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]

    def test_fraction_coefficients(self):
        from fractions import Fraction
        L = LieAlgebra(QQ, 3, {(0, 1): {2: Fraction(1, 2)}})
        again = loads(dumps(L))
        assert again.bracket_basis(0, 1) == {2: Fraction(1, 2)}
