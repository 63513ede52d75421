import random

import pytest
from conftest import central_extension, random_basis_change
from test_covers import witt_dim
from test_linalg import is_canonical

from liecap import catalog, covers, homology, tables
from liecap.algebra import (
    LieAlgebra,
    center,
    derived_subalgebra,
    direct_sum,
    transform,
    validate,
)
from liecap.cli import invariant_report
from liecap.homology import (
    ExteriorBasis,
    NotCentral,
    ce_d2,
    ce_d3,
    induced_map_injective,
    induced_multiplier_map,
    kunneth_exterior_dim,
    kunneth_tensor_dim,
    schur_multiplier,
)
from liecap.linalg import (
    QQ,
    NotContained,
    PrimeField,
    Subspace,
    apply_columns,
    kernel,
    subspace_sum,
)


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


def columns(m):
    """The columns of a dense reference matrix, as dense tuples."""
    return [m.column(j) for j in range(m.ncols)]


def rank(m):
    """The rank of a dense reference matrix: the dim of its row space."""
    return Subspace.from_vectors(m.field, m.ncols, m.rows).dim


def is_zero(m):
    return not any(any(r) for r in m.rows)


def d2_kills_d3(L):
    """d2 . d3 = 0: the span of the columns of ce_d3 lies in the kernel of ce_d2."""
    d3 = ce_d3(L)
    image = Subspace.from_vectors(L.field, d3.nrows, columns(d3))
    return kernel(ce_d2(L)).contains_subspace(image)


class TestExteriorBasis:
    def test_sizes(self):
        ext = ExteriorBasis.for_dim(6)
        assert len(ext.pairs) == 15
        assert len(ext.triples) == 20

    def test_lex_order(self):
        ext = ExteriorBasis.for_dim(4)
        assert ext.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestBoundaryMaps:
    def test_d2_abelian_zero(self):
        assert is_zero(ce_d2(build("A4")))

    def test_d2_h1_rank(self):
        assert rank(ce_d2(build("H1"))) == 1

    def test_d2_l43_rank(self):
        # two independent bracket outputs x3, x4
        assert rank(ce_d2(build("L4_3"))) == 2

    def test_d3_abelian_zero(self):
        assert is_zero(ce_d3(build("A3")))

    def test_d3_rank_h2(self):
        # rank d3 = dim Lambda^2 - dim L^2 - dim M = 10 - 1 - 5
        assert rank(ce_d3(build("L5_4"))) == 4

    def test_d3_rank_l610(self):
        # 15 - 2 - 6
        assert rank(ce_d3(build("L6_10"))) == 7

    def test_d2_compose_d3_zero_catalog(self):
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                assert d2_kills_d3(L), str(key)

    def test_d2_compose_d3_zero_randomized(self):
        import random
        from conftest import central_extension
        from liecap.algebra import validate
        rng = random.Random(73)
        keys = catalog.all_keys(6)
        for _ in range(12):
            base = catalog.build(rng.choice(keys)).algebra
            E = central_extension(base, rng.choice((1, 2)), rng)
            assert validate(E).ok
            assert d2_kills_d3(E)


class TestMultiplier:
    def test_abelian_closed_form(self):
        for n in range(1, 9):
            assert schur_multiplier(build(f"A{n}") if n <= 6 else
                                    catalog.abelian_algebra(n)).dim == n * (n - 1) // 2

    def test_heisenberg_closed_form(self):
        assert schur_multiplier(build("H1")).dim == 2
        for m in range(2, 5):
            alg = catalog.heisenberg_algebra(m)
            assert schur_multiplier(alg).dim == 2 * m * m - m - 1

    def test_l58(self):
        assert schur_multiplier(build("L5_8")).dim == 6

    def test_l622_all_epsilon(self):
        for e in (0, 1, -1, 2):
            alg = build(f"L6_22(e={e})")
            assert schur_multiplier(alg).dim == 8

    def test_multiplier_basis_deterministic(self):
        L = build("L6_13")
        a = schur_multiplier(L)
        b = schur_multiplier(L)
        assert a.basis == b.basis and a.image == b.image
        m1 = induced_multiplier_map(L, center(L).space)
        m2 = induced_multiplier_map(L, center(L).space)
        assert m1 == m2

    def test_basis_consists_of_cycles(self):
        L = build("L5_6")
        res = schur_multiplier(L)
        d2 = ce_d2(L)
        for v in res.basis.basis_vectors():
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in d2.rows)
        assert kernel(d2).contains_subspace(res.basis)
        from liecap.linalg import subspace_intersect
        assert subspace_intersect(res.basis, res.image).dim == 0


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])


class TestSupportWalk:
    """schur_multiplier builds a d3 column only for a triple with a nonzero
    bracket among its pairs, and the answers reach the key bound."""

    @pytest.fixture
    def d3_calls(self, monkeypatch):
        calls = []
        column = homology._d3_column

        def counted(algebra, index, triple):
            calls.append(triple)
            return column(algebra, index, triple)
        monkeypatch.setattr(homology, "_d3_column", counted)
        return calls

    def test_column_counts(self, d3_calls):
        for n in (1, 5, 16):
            assert schur_multiplier(catalog.abelian_algebra(n)).dim == n * (n - 1) // 2
            assert d3_calls == []
        for m in range(1, 6):
            d3_calls.clear()
            assert schur_multiplier(catalog.heisenberg_algebra(m)).dim == \
                (2 if m == 1 else 2 * m * m - m - 1)
            assert len(d3_calls) == m * (2 * m - 1)

    @FIELDS
    @pytest.mark.parametrize("d, c", [(3, 5), (4, 4)])
    def test_free_nilpotent_witt(self, field, d, c):
        # M(F(d, c)) is the degree-(c+1) part of the free algebra
        L = covers.free_nilpotent(d, c).algebra_over(field)
        assert schur_multiplier(L).dim == witt_dim(d, c + 1)

    def test_key_bound(self):
        # A(300) and H(149), the largest A and H keys, over GF(101)
        f = PrimeField(101)
        assert schur_multiplier(catalog.abelian_algebra(300, f)).dim == 300 * 299 // 2
        assert schur_multiplier(catalog.heisenberg_algebra(149, f)).dim == 2 * 149**2 - 149 - 1


class TestClosedForms:
    """Closed forms beyond the catalog, through schur_multiplier."""

    @FIELDS
    @pytest.mark.parametrize("d, c", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)])
    def test_free_nilpotent_capable(self, field, d, c):
        # M(F(d, c)) is the degree-(c+1) part of the free algebra, and
        # F(d, c) = F(d, c+1) / (degree c+1) is capable
        m = schur_multiplier(covers.free_nilpotent(d, c).algebra_over(field))
        assert m.dim == witt_dim(d, c + 1)
        assert m.exterior_center().dim == 0

    @FIELDS
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_heisenberg_plus_abelian(self, field, m, k):
        # Kunneth: M(H + A) = M(H) + M(A) + dim H/H^2 * dim A, with
        # dim M(H(m)) = 2m^2 - m - 1 for m >= 2 and 2 for m = 1
        h_mult = 2 if m == 1 else 2 * m * m - m - 1
        L = direct_sum(catalog.heisenberg_algebra(m, field), catalog.abelian_algebra(k, field))
        assert schur_multiplier(L).dim == h_mult + k * (k - 1) // 2 + 2 * m * k


def test_report_scalars_are_canonical(monkeypatch):
    """Every Subspace and algebra table that invariant_report builds over Q,
    through schur_multiplier, exterior_center, kernel_columns and the
    squares, holds canonical scalars only."""
    built = []

    def recording(cls):
        init = cls.__init__

        def record(self, *args, **kw):
            init(self, *args, **kw)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", record)
    recording(Subspace)
    recording(LieAlgebra)
    algebras = [catalog.build(key).algebra for key in catalog.all_keys(6)]
    algebras += [catalog.heisenberg_algebra(4), covers.free_nilpotent(3, 3).algebra]
    for L in algebras:
        invariant_report(L, "")
        built.append(schur_multiplier(L).basis)
        built.append(L)
    spaces = [x for x in built if isinstance(x, Subspace)]
    tables = [x for x in built if isinstance(x, LieAlgebra)]
    assert len(spaces) > len(algebras) and len(tables) > len(algebras)
    for s in spaces:
        assert all(is_canonical(v) for row in s.sparse_rows() for v in row.values())
    for a in tables:
        assert all(is_canonical(v) for row in a.table.values() for v in row.values())


class TestSparseBoundaries:
    """im d3 from the sparse d3 columns equals, as an RREF subspace, the span
    of the dense ce_d3 columns, and im d3 plus the multiplier basis read off
    the kept pairs is ker ce_d2, as a direct sum."""

    @staticmethod
    def assert_matches_dense(L, name):
        m = schur_multiplier(L)
        cycles = kernel(ce_d2(L))
        assert subspace_sum(m.image, m.basis) == cycles, name
        assert m.image.dim + m.basis.dim == cycles.dim, name
        assert m.dim == m.basis.dim, name
        d3 = ce_d3(L)
        assert m.image == Subspace.from_vectors(L.field, d3.nrows, columns(d3)), name

    @FIELDS
    def test_catalog(self, field):
        for key in catalog.all_keys(6, field):
            self.assert_matches_dense(catalog.build(key, field).algebra, f"{key} over {field!r}")

    @FIELDS
    def test_central_extensions(self, field):
        rng = random.Random(5)
        keys = [k for k in catalog.all_keys(6, field) if k.a >= 3]
        for trial in range(10):
            key = rng.choice(keys)
            E = central_extension(catalog.build(key, field).algebra, rng.choice((1, 2)), rng)
            assert validate(E).ok
            self.assert_matches_dense(E, f"extension {trial} of {key} over {field!r}")

    @FIELDS
    def test_scrambled_bases(self, field):
        rng = random.Random(55)
        for text in ("L5_4", "L6_10", "L6_14", "L6_19(e=2)", "L6_25"):
            L = catalog.build(catalog.parse_key(text, field), field).algebra
            for _ in range(3):
                B = transform(L, random_basis_change(rng, L.dim, field))
                self.assert_matches_dense(B, f"{text} over {field!r}")


class TestMultiplierCoords:
    """basis.coords(image.reduce(z)) inverts z = sum a_s basis_s + sum b_r image_r,
    and a vector outside ker d2 has no coordinates."""

    @staticmethod
    def assert_coords_invert(L, rng, name):
        f = L.field
        m = schur_multiplier(L)
        rows = m.basis.sparse_rows() + m.image.sparse_rows()
        outside = [t for t, (i, j) in enumerate(ExteriorBasis(L.dim).pairs)
                   if L.bracket_basis(i, j)]
        for _ in range(3):
            coeffs = [f.from_int(rng.randint(-6, 6)) for _ in rows]
            z = apply_columns(f, rows, dict(enumerate(coeffs)))
            expected = {s: c for s, c in enumerate(coeffs[:m.dim]) if c}
            assert m.basis.coords(m.image.reduce(z)) == expected, name
            if outside:
                t = rng.choice(outside)
                z[t] = f.add(z.get(t, f.zero), f.one)
                with pytest.raises(NotContained):
                    m.basis.coords(m.image.reduce(z))

    @FIELDS
    def test_coords_invert_combinations(self, field):
        rng = random.Random(11)
        for key in catalog.all_keys(6, field):
            self.assert_coords_invert(catalog.build(key, field).algebra, rng,
                                      f"{key} over {field!r}")
        keys = [k for k in catalog.all_keys(6, field) if k.a >= 3]
        for trial in range(10):
            key = rng.choice(keys)
            E = central_extension(catalog.build(key, field).algebra, rng.choice((1, 2)), rng)
            self.assert_coords_invert(E, rng, f"extension {trial} of {key} over {field!r}")


class TestInducedMap:
    def test_zero_ideal_injective(self):
        L = build("L4_3")
        zero = Subspace.zero(QQ, 4)
        cols = induced_multiplier_map(L, zero)
        assert Subspace.from_vectors(QQ, len(cols), cols).dim == schur_multiplier(L).dim

    def test_l43_center_not_injective(self):
        L = build("L4_3")
        assert not induced_map_injective(L, center(L).space)

    def test_h2_derived_injective(self):
        L = build("L5_4")
        assert induced_map_injective(L, derived_subalgebra(L).space)

    def test_not_central_rejected(self):
        L = build("L4_3")
        bad = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]])
        with pytest.raises(NotCentral):
            induced_multiplier_map(L, bad)

    def test_exact_sequence_dimension_level(self):
        # dim M(L) - dim M(L/K) + dim(L^2 cap K) >= 0, equality iff K in Z^(L)
        from liecap.algebra import quotient
        from liecap.capability import central_test_lines
        from liecap.covers import Cover, exterior_center
        from liecap.linalg import subspace_intersect
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                zw = exterior_center(Cover(L))
                m_l = schur_multiplier(L).dim
                der = derived_subalgebra(L).space
                for line in central_test_lines(L):
                    q, _ = quotient(L, line)
                    gap = (m_l - schur_multiplier(q).dim
                           + subspace_intersect(der, line).dim)
                    assert gap >= 0, str(key)
                    assert (gap == 0) == zw.space.contains_subspace(line), str(key)


class TestPrimeFieldTables:
    def test_dim5_tables_mod_p(self):
        # the classification promises the same answers in any odd characteristic
        from liecap import tables
        from liecap.covers import Cover, exterior_square
        from liecap.linalg import PrimeField
        from liecap.recognize import recognize
        for p in (3, 5):
            F = PrimeField(p)
            for k in range(1, 10):
                L = catalog.build(catalog.indexed_key(5, k), field=F).algebra
                assert schur_multiplier(L).dim == tables.MULTIPLIER_5[k], (p, k)
                label = recognize(exterior_square(Cover(L))).label()
                assert label == tables.EXTERIOR_5[k], (p, k)

    def test_dim6_multipliers_mod3(self):
        from liecap import tables
        from liecap.linalg import PrimeField
        F = PrimeField(3)
        for key in catalog.expand_keys(6, F):
            L = catalog.build(key, field=F).algebra
            assert schur_multiplier(L).dim == tables.MULTIPLIER_6[key.b], str(key)


class TestL614ExteriorSquare:
    """The published exterior square of L6_14, L5_8+A(1), cannot hold.

    L ^ L is Lambda^2 L / im d3 with bracket [a, b] = d2(a) ^ d2(b) (Ellis,
    "A non-abelian tensor product of Lie algebras", Glasgow Math. J., 1991),
    so its derived subalgebra is spanned by the classes of d2(a) ^ d2(b).
    Everything here comes from the boundary maps; neither the cover route
    nor recognition is used.  Acceptance criterion 6 checks the computed
    label H(1)+A(3) through tables.EXTERIOR_6_ERRATA on the strength of it.
    """

    @staticmethod
    def _wedge(field, ext, u, v):
        # u ^ v in Lambda^2 coordinates, for dense vectors u and v
        out = {}
        for t, (i, j) in enumerate(ext.pairs):
            c = field.sub(field.mul(u[i], v[j]), field.mul(u[j], v[i]))
            if c:
                out[t] = c
        return out

    def _square(self, L):
        """(im d3, im d3 + derived subalgebra of L ^ L) inside Lambda^2 L."""
        ext = ExteriorBasis.for_dim(L.dim)
        width = len(ext.pairs)
        d2, d3 = ce_d2(L), ce_d3(L)
        image = Subspace.from_vectors(L.field, width, columns(d3))
        brackets = columns(d2)
        products = [self._wedge(L.field, ext, u, v) for u in brackets for v in brackets]
        return image, subspace_sum(image, Subspace.from_vectors(L.field, width, products))

    @pytest.mark.parametrize(
        "field", [QQ, PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(101)],
        ids=repr)
    def test_derived_square_is_one_dimensional(self, field):
        L = catalog.build(catalog.indexed_key(6, 14), field=field).algebra
        assert validate(L).ok
        ext = ExteriorBasis.for_dim(6)
        pair = {p: t for t, p in enumerate(ext.pairs)}
        one = field.one

        def wedge(i, j):
            # x_i ^ x_j, 1-based as in the relations
            return {pair[(i - 1, j - 1)]: one}

        d2, d3 = ce_d2(L), ce_d3(L)

        def d3_of(i, j, k):
            col = d3.column(ext.triples.index((i - 1, j - 1, k - 1)))
            return {t: c for t, c in enumerate(col) if c}

        x35, x16 = pair[(2, 4)], pair[(0, 5)]
        assert d3_of(1, 2, 5) == {x35: one, x16: field.neg(one)}
        assert d3_of(1, 3, 4) == {x35: one, x16: one}

        image, derived = self._square(L)
        assert image.contains(wedge(3, 5)) and image.contains(wedge(1, 6))
        assert not image.contains(wedge(3, 4))

        # dim L ^ L = dim M(L) + dim L^2, with M(L) = ker d2 / im d3
        multiplier = kernel(d2).dim - image.dim
        assert multiplier == tables.MULTIPLIER_6[14]
        assert rank(d2) == 4
        assert len(ext.pairs) - image.dim == 6 == multiplier + rank(d2)

        # the derived subalgebra of L ^ L is the line through x3 ^ x4 ...
        assert derived.dim - image.dim == 1
        assert derived == subspace_sum(
            image, Subspace.from_vectors(field, len(ext.pairs), [wedge(3, 4)]))
        # ... while the published L5_8+A(1) has a two-dimensional one
        published = direct_sum(build("L5_8"), build("A1"))
        assert derived_subalgebra(published).dim == 2

    def test_sign_flip_gives_published_size_but_breaks_jacobi(self):
        # [x3,x4] = +x6 would make the derived square two-dimensional, as
        # L5_8+A(1) needs, but then the relations define no Lie algebra
        L = build("L6_14")
        flipped = LieAlgebra(QQ, 6, {**L.table, (2, 3): {5: 1}})
        image, derived = self._square(flipped)
        assert derived.dim - image.dim == 2
        report = validate(flipped)
        assert not report.ok
        assert report.first_failure()[:3] == (0, 1, 3)
        # the column-by-column d2 . d3 = 0 check refuses the table
        with pytest.raises(NotContained):
            schur_multiplier(flipped)


class TestKunneth:
    def test_two_lines(self):
        a1 = catalog.abelian_algebra(1)
        assert kunneth_exterior_dim(a1, a1) == 1
        assert kunneth_tensor_dim(a1, a1) == 4  # A(2) x A(2) = A(4)

    def test_l52_decomposition(self):
        # L5_2 = L4_2 + A(1): 5 + 0 + 3*1 = 8
        assert kunneth_exterior_dim(build("L4_2"), build("A1")) == 8

    def test_matches_direct_sum_computation(self):
        from liecap.covers import Cover, exterior_square_dim
        h, k = build("H1"), build("A2")
        total = kunneth_exterior_dim(h, k)
        assert total == exterior_square_dim(Cover(direct_sum(h, k)))
        assert total == schur_multiplier(direct_sum(h, k)).dim + 1

    def test_tensor_square_of_abelian(self):
        for n in (1, 2, 3, 4):
            a = catalog.abelian_algebra(n)
            assert kunneth_tensor_dim(a, catalog.abelian_algebra(0)) == n * n
