import contextlib
import gc
import io
import json
import random
from itertools import combinations

import pytest
from conftest import central_extension, inverse_columns, random_basis_change, solvable_algebra
from hypothesis import given, settings
from hypothesis import strategies as st

from liecap import catalog, cli, covers
from liecap.algebra import (
    AlgebraMap,
    LieAlgebra,
    NotAnIdeal,
    NotNilpotent,
    _adjacency,
    adapted_basis,
    center,
    centralizer,
    derived_subalgebra,
    direct_sum,
    dumps,
    from_json,
    is_ideal,
    is_nilpotent,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    quotient,
    subalgebra_on,
    support_triples,
    to_json,
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
    kernel_from_rows,
    subspace_sum,
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


def series_nilpotent(L):
    """Nilpotency by the lower central series alone, on a fresh copy of the
    table, so no certificate and no memo is read."""
    return lower_central_series(LieAlgebra(L.field, L.dim, L.table))[-1].dim == 0


THREE_FIELDS = [QQ, PrimeField(3), PrimeField(101)]


class TestNilpotencyCertificate:
    """is_nilpotent accepts a triangular table, every [e_i, e_j] (i < j) on
    coordinates above j, without building the lower central series, and
    asks the series on every other table; both routes agree."""

    @pytest.mark.parametrize("field", THREE_FIELDS, ids=["Q", "GF3", "GF101"])
    def test_catalog_is_triangular(self, field):
        for key in catalog.all_keys(6, field):
            L = catalog.build(key, field).algebra
            assert is_nilpotent(L) and series_nilpotent(L), str(key)
            assert "lcs" not in L._memo, str(key)

    def test_not_nilpotent(self):
        # [x1,x2]=x2 is solvable, not nilpotent, and not triangular
        assert not is_nilpotent(LieAlgebra(QQ, 2, {(0, 1): {1: 1}}))
        assert not is_nilpotent(solvable_algebra())

    def test_nilpotent_off_the_triangle(self):
        # [x2,x3]=x1 is H(1) written below the diagonal: the series decides
        L = LieAlgebra(QQ, 3, {(1, 2): {0: 1}})
        assert is_nilpotent(L) and "lcs" in L._memo

    @given(st.sampled_from(THREE_FIELDS), st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]),
           st.integers(0, 2), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_series(self, field, dc, extend, scramble, solvable, rng):
        # a Hall basis, summed with a catalog entry or the solvable
        # [x1,x2]=x2, [x1,x3]=x3, then centrally extended and scrambled
        F = covers.free_nilpotent(*dc).algebra_over(field)
        keys = catalog.all_keys(5, field)
        other = solvable_algebra(field) if solvable else \
            catalog.build(keys[rng.randrange(len(keys))], field).algebra
        L = direct_sum(F, other)
        assert is_nilpotent(F) and "lcs" not in F._memo
        if extend and not solvable:
            L = central_extension(L, extend, rng)
        triangular = is_nilpotent(L) and "lcs" not in L._memo
        assert is_nilpotent(L) == series_nilpotent(L) == (not solvable)
        assert triangular or solvable
        if scramble:
            B = transform(L, random_basis_change(rng, L.dim, field))
            assert is_nilpotent(B) == series_nilpotent(B) == (not solvable)


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

    @given(st.sampled_from([QQ, PrimeField(3), PrimeField(101)]), st.integers(0, 55),
           st.booleans(), st.integers(1, 3), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_validate_matches_full_scan_on_planted_violations(self, field, index, scramble,
                                                              plants, rng):
        # validate reads [e_a, [e_b, e_c]] off the table; the full scan goes
        # through bracket_sparse on every triple, in the same lex order
        # a plant needs two indices, and a Jacobi triple three
        keys = [key for key in catalog.all_keys(6, field) if key.a >= 3]
        L = catalog.build(keys[index % len(keys)], field).algebra
        if rng.random() < 0.5:
            L = central_extension(L, 1, rng)
        if scramble:
            L = transform(L, random_basis_change(rng, L.dim, field))
        table = dict(L.table)
        for _ in range(plants):
            i, j = sorted(rng.sample(range(L.dim), 2))
            row = dict(table.get((i, j), {}))
            k = rng.randrange(L.dim)
            row[k] = field.add(row.get(k, field.zero), field.from_int(rng.choice((1, 2, -1))))
            table[(i, j)] = row
        bad = LieAlgebra(field, L.dim, table)
        expected = brute_first_failure(bad)
        report = validate(bad)
        assert report.first_failure() == expected
        assert report.ok == (expected is None)


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
        assert d.dim == 1 and z == d

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
                assert center(L).contains_subspace(last)

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

    def test_upper_central_series_stalls_below_l(self):
        # Z(L) = 0 on [x1, x2] = x2, [x1, x3] = x3, and Z_2 = Z(L)
        L = solvable_algebra()
        assert upper_central_series(L) == [center(L)]
        assert center(L).dim == 0


class TestDefaultLabels:
    """An algebra built without labels holds none until ``labels`` is read,
    which forms x1..xn once; every reader sees those names."""

    def test_formed_on_first_read(self):
        L = LieAlgebra(QQ, 3, {(0, 1): {2: 1}})
        assert L._labels is None
        assert L.labels == ("x1", "x2", "x3")
        assert L.labels is L.labels

    def test_readers_see_the_default_names(self, tmp_path):
        L = build("L4_2")  # [x1, x2] = x3, x4 central
        cols = [{0: 1}, {0: 1, 1: 1}, {2: 1}, {2: 1, 3: 1}]
        moved = transform(L, cols)
        assert L._labels is None and moved._labels is None
        assert moved.labels == ("x1", "x2", "x3", "x4")
        assert to_json(L)["labels"] == ["x1", "x2", "x3", "x4"]
        q, _ = quotient(L, derived_subalgebra(L))
        assert q.labels == ("x1", "x2", "x4")
        assert direct_sum(L, build("A1")).labels == ("a.x1", "a.x2", "a.x3", "a.x4", "b.x1")
        named = L.relabel("abcz")
        assert transform(named, cols).labels == ("a", "b", "c", "z")
        # the Jacobi message of a document without labels names x1..xn
        doc = {"dim": 4, "field": "Q",
               "brackets": [{"i": 2, "j": 3, "out": [{"k": 4, "c": "1"}]},
                            {"i": 1, "j": 4, "out": [{"k": 3, "c": "-1"}, {"k": 2, "c": "1/2"}]}]}
        path = tmp_path / "jacobi.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["invariants", "--file", str(path)]) == 3
        assert err.getvalue() == "error: Jacobi violation at (1,2,3): 1/2*x2 + -1*x3\n"


def all_pairs_bracket_span(L, space):
    one = L.field.one
    return Subspace.from_vectors(L.field, L.dim, [L.bracket_sparse(r, {j: one})
                                                  for r in space.sparse_rows()
                                                  for j in range(L.dim)])


def all_pairs_lcs(L):
    """The lower central series of a nilpotent L, bracketing every basis row
    with every basis vector."""
    out = [Subspace.full(L.field, L.dim)]
    while out[-1].dim:
        out.append(all_pairs_bracket_span(L, out[-1]))
    return out


def all_pairs_ucs(L):
    """Z_{i+1} = {v : [v, e_j] in Z_i for all j}, one functional per residue
    coordinate of [e_i, e_j] over all ordered pairs."""
    out = [Subspace.from_vectors(L.field, L.dim, [])]
    while True:
        rows = {}
        for i in range(L.dim):
            for j in range(L.dim):
                for k, c in out[-1].reduce(L.bracket_basis(i, j)).items():
                    rows.setdefault((j, k), {})[i] = c
        nxt = kernel_from_rows(L.field, L.dim, rows.values())
        if nxt.dim == out[-1].dim:
            return out[1:]
        out.append(nxt)


def all_pairs_is_ideal(L, space):
    one = L.field.one
    return all(space.contains(L.bracket_sparse(r, {j: one}))
               for r in space.sparse_rows() for j in range(L.dim))


def all_pairs_quotient_table(L, space):
    """(table key, labels, projection columns) of L/space over all kept pairs."""
    kept = [i for i in range(L.dim) if i not in space.pivots]
    pos = {c: t for t, c in enumerate(kept)}

    def project(vec):
        return {pos[c]: v for c, v in space.reduce(vec).items()}

    brackets = {(a, b): project(L.bracket_basis(kept[a], kept[b]))
                for a in range(len(kept)) for b in range(a + 1, len(kept))}
    q = LieAlgebra(L.field, len(kept), brackets, labels=[L.labels[i] for i in kept])
    cols = tuple(project({i: L.field.one}) for i in range(L.dim))
    return q.table_key(), q.labels, cols


def all_pairs_centralizer(L, space):
    one = L.field.one
    rows = space.sparse_rows()
    return kernel_columns(L.field, [{(t, k): c for t, s in enumerate(rows)
                                     for k, c in L.bracket_sparse({i: one}, s).items()}
                                    for i in range(L.dim)])


class TestTableWalks:
    """The series and ideal code walks the bracket table; it must agree with
    the all-pairs definitions on every catalog entry in a scrambled basis."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
    def test_match_all_pairs_reference(self, field):
        rng = random.Random(53)
        verdicts = []
        for key in catalog.all_keys(6, field):
            base = catalog.build(key, field).algebra
            n = base.dim
            L = transform(base, random_basis_change(rng, n, field))
            lcs = all_pairs_lcs(L)
            ucs = all_pairs_ucs(L)
            assert list(lower_central_series(L)) == lcs, str(key)
            assert upper_central_series(L) == ucs, str(key)
            for g in lcs[1:]:
                assert centralizer(L, g) == all_pairs_centralizer(L, g), str(key)
            # a random line and plane are ideals only sometimes
            probes = [Subspace.from_vectors(field, n, [
                {i: field.from_int(rng.randint(-2, 2)) for i in range(n)}
                for _ in range(r)]) for r in (1, 2)]
            spaces = []
            for space in lcs + ucs + probes:
                if space not in spaces:
                    spaces.append(space)
            for space in spaces:
                ideal = all_pairs_is_ideal(L, space)
                assert is_ideal(L, space) == ideal, str(key)
                verdicts.append(ideal)
                if ideal:
                    q, proj = quotient(L, space)
                    assert ((q.table_key(), q.labels, proj.columns)
                            == all_pairs_quotient_table(L, space)), str(key)
        assert verdicts.count(True) > 200 and verdicts.count(False) > 50

    def test_no_bracket_calls(self, monkeypatch):
        # the walks read the table; none brackets basis vectors pair by pair
        calls = []
        for name in ("bracket_sparse", "bracket_basis"):
            original = getattr(LieAlgebra, name)

            def counted(self, *args, _original=original):
                calls.append(1)
                return _original(self, *args)
            monkeypatch.setattr(LieAlgebra, name, counted)
        for L in (catalog.abelian_algebra(300), catalog.heisenberg_algebra(60)):
            lcs = lower_central_series(L)
            upper_central_series(L)
            assert is_ideal(L, lcs[1])
            quotient(L, lcs[1])
            centralizer(L, lcs[1])
        assert not calls


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
        q, proj = quotient(L, center(L))
        assert q.dim == 3
        assert q.table_key() == build("L3_2").table_key()
        assert proj.is_bracket_preserving()
        assert kernel_columns(QQ, proj.columns) == center(L)

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
            n_small = g[-2]   # gamma_c, the last nonzero term
            n_big = g[-3]
            mid, proj = quotient(L, n_small)
            img = Subspace.from_vectors(QQ, mid.dim,
                                        [proj.apply(v) for v in n_big.sparse_rows()])
            q2, _ = quotient(mid, img)
            direct, _ = quotient(L, n_big)
            assert q2.dim == direct.dim, text
            assert fingerprint(q2) == fingerprint(direct), text


class TestBracketPreserving:
    """``AlgebraMap.is_bracket_preserving`` brackets each column once
    through the target's table; it agrees with the check of every pair of
    source coordinates, on projections, embeddings and basis changes, and
    on maps that break one bracket."""

    @staticmethod
    def all_pairs(f):
        src, cols = f.source, f.columns
        return all(f.apply(src.bracket_basis(i, j)) == f.target.bracket_sparse(cols[i], cols[j])
                   for i in range(src.dim) for j in range(i + 1, src.dim))

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
    def test_matches_all_pairs_reference(self, field):
        rng = random.Random(47)
        two = field.from_int(2)
        maps = []
        for L in seeded_algebras(field, 53, 6):
            for ideal in (derived_subalgebra(L), center(L)):
                maps.append(quotient(L, ideal)[1])
                maps.append(subalgebra_on(L, ideal)[1])
            cols = random_basis_change(rng, L.dim, field)
            maps.append(AlgebraMap(transform(L, cols), L, cols))
        # each map with one column doubled, and with one column dropped
        for f in list(maps):
            for t in range(len(f.columns)):
                if f.columns[t]:
                    doubled = {i: field.mul(two, c) for i, c in f.columns[t].items()}
                    for col in (doubled, {}):
                        maps.append(AlgebraMap(f.source, f.target,
                                               (*f.columns[:t], col, *f.columns[t + 1:])))
                    break
        verdicts = [f.is_bracket_preserving() for f in maps]
        assert verdicts == [self.all_pairs(f) for f in maps]
        assert 0 < sum(verdicts) < len(verdicts)


class TestSubalgebra:
    def test_derived_as_algebra(self):
        L = build("L6_14")
        sub, embed = subalgebra_on(L, derived_subalgebra(L))
        assert sub.dim == 4
        assert embed.is_bracket_preserving()

    def test_ideal_check(self):
        L = build("L4_3")
        assert is_ideal(L, derived_subalgebra(L))
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

    @staticmethod
    def all_pairs(L, cols):
        """The rewritten table by bracketing every pair of basis columns."""
        f = L.field
        inv = inverse_columns(f, cols)
        return LieAlgebra(f, L.dim, {(a, b): apply_columns(f, inv, L.bracket_sparse(cols[a], cols[b]))
                                     for a in range(L.dim) for b in range(a + 1, L.dim)},
                          labels=L.labels)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
    def test_matches_all_pairs_reference(self, field, monkeypatch):
        rng = random.Random(41)
        algebras = seeded_algebras(field, 43, 10)
        algebras += [covers.free_nilpotent(2, 4).algebra_over(field),
                     direct_sum(catalog.heisenberg_algebra(3, field), catalog.abelian_algebra(2, field))]
        cases = []
        for L in algebras:
            cols = random_basis_change(rng, L.dim, field)
            # a second basis with a non-unit diagonal, so that the inverse
            # holds fractions over Q
            two = field.from_int(2)
            halved = tuple({i: field.mul(two, c) for i, c in col.items()} for col in cols)
            cases += [(L, cols), (L, halved), (transform(L, cols), halved)]
        got = []
        calls = []
        bracket_sparse = LieAlgebra.bracket_sparse
        monkeypatch.setattr(LieAlgebra, "bracket_sparse",
                            lambda *args: calls.append(1) or bracket_sparse(*args))
        for L, cols in cases:
            got.append(transform(L, cols))
        assert calls == []
        monkeypatch.undo()
        for (L, cols), M in zip(cases, got):
            want = self.all_pairs(L, cols)
            assert M.table == want.table and M.labels == want.labels
            assert list(M.table) == sorted(M.table)
            assert validate(M).ok


def solve_by_kernel(field, cols, v):
    """The x with sum of x_a cols[a] = v, read off the kernel of [B | v],
    whose one basis vector is scaled to -1 at the last column."""
    (k,) = kernel_columns(field, list(cols) + [v]).sparse_rows()
    scale = field.neg(field.inv(k[len(cols)]))
    return {a: field.mul(scale, c) for a, c in k.items() if a < len(cols)}


class TestTransformOverQ:
    """transform over Q against the coordinates read off a kernel, on bases
    whose inverse holds fractions, with every stored scalar canonical."""

    @staticmethod
    def det6_basis(rng, n):
        # a random basis change, determinant +-1, with two columns scaled
        # by 2 and 3: its determinant is +-6
        cols = [dict(c) for c in random_basis_change(rng, n)]
        for a, factor in ((0, 2), (n - 1, 3)):
            cols[a] = {t: factor * c for t, c in cols[a].items()}
        return cols

    def test_non_unimodular_basis(self):
        rng = random.Random(29)
        algebras = [build("L6_19(e=1)"), build("L5_9"),
                    covers.FreeNilpotent(2, 4).algebra,
                    central_extension(build("L6_25"), 2, rng, denominators=(1, 2, 3, 4))]
        fractions = 0
        for L in algebras:
            cols = self.det6_basis(rng, L.dim)
            M = transform(L, cols)
            for a in range(L.dim):
                for b in range(a + 1, L.dim):
                    v = L.bracket_sparse(cols[a], cols[b])
                    want = solve_by_kernel(QQ, cols, v) if v else {}
                    assert M.bracket_basis(a, b) == want, (L, a, b)
            for row in M.table.values():
                for c in row.values():
                    # canonical: an int when integral, else a reduced Fraction
                    assert type(c) is int or c.denominator > 1
                    fractions += type(c) is not int
        assert fractions


class TestAdaptedBasis:
    """``adapted_basis``: the generators are the unit vectors at the
    non-pivots of L^2, and layer k+1 is a set of brackets [g, b] of a
    generator g and a vector b of layer k that spans gamma_{k+1} modulo
    gamma_{k+2}."""

    @staticmethod
    def assert_adapted(L, cols):
        f, n = L.field, L.dim
        series = lower_central_series(L)
        assert len(cols) == n
        assert Subspace.from_vectors(f, n, cols).dim == n
        pivots = set(series[1].pivots) if len(series) > 1 else set()
        gens = [t for t in range(n) if t not in pivots]
        assert cols[:len(gens)] == [{g: f.one} for g in gens]
        start, previous = 0, None
        for k in range(len(series) - 1):
            size = series[k].dim - series[k + 1].dim
            layer = cols[start:start + size]
            assert all(series[k].contains(w) for w in layer)
            assert subspace_sum(Subspace.from_vectors(f, n, layer), series[k + 1]) == series[k]
            if previous is not None:
                # the greedy pick, fewest terms first, over the brackets
                # [g, b] in the order of b, then of g
                brackets = [w for b in previous for g in gens
                            if (w := L.bracket_sparse({g: f.one}, b))]
                kept = []
                for w in sorted(brackets, key=len):
                    span = Subspace.from_vectors(f, n, kept + [w] + series[k + 1].sparse_rows())
                    if len(kept) < size and span.dim == len(kept) + 1 + series[k + 1].dim:
                        kept.append(w)
                assert layer == kept
            start, previous = start + size, layer
        assert start == n

    @staticmethod
    def single_term_algebras(field):
        rng = random.Random(13)
        keys = catalog.all_keys(6, field)
        out = [catalog.build(key, field).algebra for key in keys]
        out += [catalog.heisenberg_algebra(m, field) for m in range(1, 6)]
        out += [catalog.abelian_algebra(n, field) for n in range(1, 5)]
        for _ in range(12):
            a, b = rng.choice(keys), rng.choice(keys)
            out.append(direct_sum(catalog.build(a, field).algebra, catalog.build(b, field).algebra))
        return out

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)
    def test_single_term_tables_give_monomial_bases(self, field):
        # by induction every gamma_k of a single-term table is a coordinate
        # subspace, and the picked brackets are single terms
        algebras = self.single_term_algebras(field)
        assert len(algebras) == 56 + 5 + 4 + 12
        for L in algebras:
            assert all(len(row) == 1 for row in L.table.values())
            cols = adapted_basis(L)
            self.assert_adapted(L, cols)
            assert all(len(col) == 1 for col in cols), L
            for term in lower_central_series(L):
                assert all(len(row) == 1 for row in term.sparse_rows()), L

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)
    def test_multi_term_tables(self, field):
        rng = random.Random(31)
        denominators = (1, 2, 4) if field == PrimeField(3) else (1, 2, 3, 4)
        algebras = [covers.free_nilpotent(d, c).algebra_over(field)
                    for d, c in ((2, 4), (3, 3), (2, 5))]
        for text in ("L6_14", "L6_19(e=1)", "L6_25", "L6_26"):
            base = catalog.build(catalog.parse_key(text, field), field).algebra
            algebras.append(central_extension(base, rng.choice((1, 2, 3)), rng, denominators))
        algebras += [transform(L, random_basis_change(rng, L.dim, field)) for L in algebras]
        for L in algebras:
            self.assert_adapted(L, adapted_basis(L))

    def test_hall_bases(self):
        # fewest terms first: F(3,3), F(4,2) and F(4,3) come out monomial,
        # F(2,6) and F(2,7) with more terms than their Hall tables
        for d, c in ((3, 3), (4, 2), (4, 3)):
            assert all(len(col) == 1 for col in adapted_basis(covers.FreeNilpotent(d, c).algebra))
        for (d, c), (before, after) in (((2, 6), (39, 42)), ((2, 7), (87, 96))):
            F = covers.FreeNilpotent(d, c).algebra
            M = transform(F, adapted_basis(F))
            assert (cli._terms(F), cli._terms(M)) == (before, after)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            adapted_basis(solvable_algebra())

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
    def test_reports_on_catalog_keys_transform_nothing(self, field, monkeypatch):
        # every catalog table is single-term, so the report computes on it
        # as it stands, with no adapted basis built
        calls = []
        monkeypatch.setattr(cli, "transform", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "adapted_basis", lambda *args: calls.append(args))
        for key in catalog.all_keys(6, field):
            cli.invariant_report(catalog.build(key, field).algebra, str(key))
        assert calls == []


class TestStructureMemo:
    """L^2, Z(L), the lower central series and the adjacency of the table
    are kept per algebra object."""

    @staticmethod
    def structure(L):
        return (derived_subalgebra(L), center(L),
                *lower_central_series(L))

    def test_no_reference_cycles(self):
        # the memo holds bare Subspaces, so an algebra is freed by
        # refcounting alone and leaves nothing for the cyclic collector
        from liecap.cli import SUITES, invariant_report, run_suites
        gc.collect()
        gc.disable()
        try:
            for field in (QQ, PrimeField(101)):
                for key in catalog.all_keys(6, field):
                    invariant_report(catalog.build(key, field).algebra, str(key))
            run_suites(list(SUITES), QQ, catalog.DEFAULT_EPSILON_SAMPLES)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_adjacency_built_once(self):
        # every ad image reads the one adjacency, made of the table's own
        # rows; with it in the memo an algebra is still freed by refcounting
        from liecap.recognize import fingerprint
        L = build("L6_19(e=1)")
        adj = _adjacency(L)
        assert _adjacency(L) is adj and L._memo["adj"] is adj
        assert sum(len(nbrs) for nbrs in adj.values()) == 2 * len(L.table)
        for i, nbrs in adj.items():
            for j, row, negate in nbrs:
                assert row is L.table[(j, i) if negate else (i, j)]
        cols = random_basis_change(random.Random(5), L.dim)
        gc.collect()
        gc.disable()
        try:
            M = transform(L, cols)
            fingerprint(M)
            assert is_ideal(M, center(M)) and "adj" in M._memo
            del M
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memo_objects_are_plain_ideals(self):
        # every call returns the memo's own objects, which the ideal
        # calculus takes as they are
        L = build("L6_19(e=1)")
        der, z, lcs = derived_subalgebra(L), center(L), lower_central_series(L)
        assert derived_subalgebra(L) is der
        assert center(L) is z
        assert isinstance(lcs, tuple) and lower_central_series(L) is lcs
        assert lcs[1] is der
        for ideal in (der, z, *lcs):
            assert is_ideal(L, ideal)
            q, proj = quotient(L, ideal)
            assert q.dim == L.dim - ideal.dim
            assert kernel_columns(L.field, proj.columns) == ideal
            sub, emb = subalgebra_on(L, ideal)
            assert sub.dim == ideal.dim and emb.is_bracket_preserving()
        assert centralizer(L, lcs[0]) == z
        assert centralizer(L, z).dim == L.dim

    def test_derived_algebras_compute_their_own(self):
        L = build("L6_19(e=1)")
        mine = self.structure(L)
        z = center(L)
        cols = random_basis_change(random.Random(3), L.dim)
        for M in (L.relabel([f"y{i}" for i in range(L.dim)]), transform(L, cols),
                  quotient(L, z)[0]):
            theirs = self.structure(M)
            assert not {id(s) for s in theirs} & {id(s) for s in mine}
            # the same structure as a fresh algebra on M's table
            assert theirs == self.structure(LieAlgebra(M.field, M.dim, M.table))
        assert self.structure(L) == mine


class TestJson:
    def test_round_trip(self):
        for text in ("A3", "H2", "L5_6", "L6_19(e=2)", "L6_14"):
            L = build(text)
            again = from_json(json.loads(dumps(L)))
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
        again = from_json(json.loads(dumps(L)))
        assert again.bracket_basis(0, 1) == {2: Fraction(1, 2)}
