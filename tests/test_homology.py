import inspect
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from conftest import (
    central_extension,
    echelon_rref,
    exterior_center_reference,
    exterior_square_reference,
    generalized_heisenberg,
    intersection_reference,
    random_basis_change,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_capability import class_two_cases
from test_covers import witt_dim
from test_linalg import is_canonical

from liecap import catalog, covers, homology, linalg, tables
from liecap.algebra import (
    LieAlgebra,
    center,
    derived_subalgebra,
    direct_sum,
    quotient,
    subalgebra_on,
    transform,
    validate,
)
from liecap.cli import SUITES, _epsilon_set, invariant_report, run_suites
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
    Echelon,
    Elimination,
    NotContained,
    PrimeField,
    Subspace,
    _prepare,
    apply_columns,
    kernel,
    subspace_sum,
)
from liecap.recognize import recognize


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


def columns(m):
    """The columns of a dense reference matrix, as dense tuples."""
    return [m.column(j) for j in range(m.ncols)]


def sparse_columns(m):
    return [{i: x for i, x in enumerate(col) if x} for col in columns(m)]


def rank(m):
    """The rank of a dense reference matrix, by plain Echelon elimination."""
    return len(echelon_rref(m.field, m.nrows, sparse_columns(m))[0])


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
        # base[a] + b, the one coordinate rule, is the pair's place in pairs
        for n in range(10):
            ext = ExteriorBasis.for_dim(n)
            assert len(ext.pairs) == ext.width
            for a, b in ext.pairs:
                assert ext.base[a] + b == ext.pairs.index((a, b))


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
        m1 = induced_multiplier_map(L, center(L))
        m2 = induced_multiplier_map(L, center(L))
        assert m1 == m2

    def test_basis_consists_of_cycles(self):
        L = build("L5_6")
        res = schur_multiplier(L)
        d2 = ce_d2(L)
        for v in res.basis.basis_vectors():
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in d2.rows)
        assert kernel(d2).contains_subspace(res.basis)
        # M cap im d3 = 0
        assert subspace_sum(res.basis, res.image).dim == res.basis.dim + res.image.dim


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
# GF(3) too: mod 3 the terms of a column with several brackets cancel
FIELDS3 = pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)],
                                  ids=["Q", "GF3", "GF101"])


class TestSupportWalk:
    """The table walk behind im d3: a lone single-term bracket gives unit
    columns and no vector, so A(n) has an empty im d3 and H(m) one of units
    only; the answers reach the key bound."""

    def test_column_counts(self):
        for n in (1, 5, 16):
            res = schur_multiplier(catalog.abelian_algebra(n))
            assert res.dim == n * (n - 1) // 2
            assert res.span.rank == 0
        for m in range(1, 6):
            res = schur_multiplier(catalog.heisenberg_algebra(m))
            assert res.dim == (2 if m == 1 else 2 * m * m - m - 1)
            # [x_i, y_i] = z with a third index c gives z ^ e_c, or zero
            # when c = z, and every triple of H(1) has c = z
            assert not res.span.echelon_rows()
            assert len(res.span.units) == (0 if m == 1 else 2 * m)

    @FIELDS3
    def test_one_vector_per_column(self, field, monkeypatch):
        # a lone single-term bracket gives a unit coordinate and no vector;
        # when some bracket has two or more terms, the columns at a central
        # coordinate c come from L^2, one unit or vector u ^ e_c per RREF row
        # u of L^2; every other nonzero d3 column is built once, struck of
        # the unit columns, and handed over unless that leaves it empty,
        # counted against the dense ce_d3
        handed = []
        elimination = homology.Elimination

        def counted(f, width, vectors, units):
            handed.append(([dict(v) for v in vectors], set(units)))
            return elimination(f, width, vectors, units)
        monkeypatch.setattr(homology, "Elimination", counted)
        rng = random.Random(61)
        algebras = [catalog.build(k, field).algebra for k in catalog.all_keys(6, field)]
        free = [covers.free_nilpotent(d, c).algebra_over(field) for d, c in [(2, 4), (3, 3)]]
        algebras += free
        algebras += [transform(L, random_basis_change(rng, L.dim, field)) for L in algebras[-12:]]
        # the extended brackets have several terms, and the kernel is central
        algebras += [central_extension(free[0], 4, rng), central_extension(free[1], 2, rng),
                     central_extension(catalog.build(catalog.parse_key("L6_19(e=1)", field),
                                                     field).algebra, 1, rng)]
        spread = 0
        for L in algebras:
            handed.clear()
            schur_multiplier(L)
            base = ExteriorBasis(L.dim).base
            central = {c for c in range(L.dim) if not any(c in ij for ij in L.table)}
            if not any(len(r) > 1 for r in L.table.values()):
                central = set()
            spread += bool(central)
            units, walked = set(), set()
            for t, triple in enumerate(combinations(range(L.dim), 3)):
                pairs = [ab for ab in combinations(triple, 2) if ab in L.table]
                if len(pairs) == 1:
                    (c,) = set(triple) - set(pairs[0])
                    r = L.table[pairs[0]]
                    if len(r) == 1:
                        (m,) = r
                        if m != c:
                            units.add(base[min(m, c)] + max(m, c))
                        walked.add(t)
                    elif c in central:
                        walked.add(t)
            wedges = []
            for u in derived_subalgebra(L).sparse_rows():
                for c in central:
                    w = set(homology._wedge(field, base, u, {c: field.one}))
                    if len(u) == 1:
                        units |= w
                    elif w:
                        wedges.append(w)
            supports = [{i for i, x in enumerate(col) if x} for col in columns(ce_d3(L))]
            want = sum(1 for t, s in enumerate(supports)
                       if s and t not in walked and not s <= units)
            want += sum(1 for w in wedges if not w <= units)
            ((vectors, given),) = handed
            assert given == units, L
            assert len(vectors) == want, L
            assert all(v and not units.intersection(v) for v in vectors), L
        assert spread >= 3

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


class TestEllisExteriorSquare:
    """Ellis's L ^ L = F'/[R, F] for L = F/R, with F free nilpotent of class
    c+1: for L = F(d, c), R is the degree-(c+1) part and [R, F] is zero in
    F(d, c+1), so L ^ L is the derived subalgebra of F(d, c+1).  That side
    shares no code with the im d3 route but ``derived_subalgebra`` and
    ``subalgebra_on``, and it checks the bracket of L ^ L beyond dim 6."""

    @staticmethod
    def assert_matches(L, d, c):
        big = covers.free_nilpotent(d, c + 1).algebra_over(L.field)
        derived, _ = subalgebra_on(big, derived_subalgebra(big))
        assert recognize(schur_multiplier(L).exterior_square()).label() == recognize(derived).label()

    @FIELDS3
    @pytest.mark.parametrize("d, c", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (4, 3)])
    def test_hall_basis(self, field, d, c):
        self.assert_matches(covers.free_nilpotent(d, c).algebra_over(field), d, c)

    @pytest.mark.parametrize("field, d, c", [
        (QQ, 2, 4), (PrimeField(3), 2, 4), (PrimeField(101), 2, 4),
        (QQ, 3, 3), (PrimeField(3), 3, 3), (PrimeField(101), 3, 3)], ids=repr)
    def test_scrambled(self, field, d, c):
        # no re-basing on this path: im d3 is dense, and the square reads its
        # back-substituted RREF
        F = covers.free_nilpotent(d, c).algebra_over(field)
        self.assert_matches(transform(F, random_basis_change(random.Random(7), F.dim, field)),
                            d, c)


class TestZeroBracketSquare:
    """When phi is zero, as in class 2, the square is abelian of dim
    width - rank im d3: neither the kept pairs nor the default labels of
    the square are formed."""

    @FIELDS3
    @pytest.mark.parametrize("text", ["A1", "A9", "H1", "H6", "L5_8", "L6_26"])
    def test_reads_no_kept_pair(self, field, text):
        m = schur_multiplier(catalog.build(catalog.parse_key(text), field).algebra)
        w = m.exterior_square()
        assert "kept" not in m.__dict__
        assert w.is_abelian() and w._labels is None
        assert w.dim == len(m.kept) == m.dim + derived_subalgebra(m.algebra).dim

    def test_nonzero_form_reads_kept_pairs(self):
        m = schur_multiplier(build("L5_6"))
        assert not m.exterior_square().is_abelian()
        assert "kept" in m.__dict__


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
        # the reference RREF is plain Echelon elimination of every column
        d3 = ce_d3(L)
        assert (m.image.pivots, tuple(m.image.sparse_rows())) == \
            echelon_rref(L.field, d3.nrows, sparse_columns(d3)), name

    @FIELDS3
    def test_catalog(self, field):
        for key in catalog.all_keys(6, field):
            self.assert_matches_dense(catalog.build(key, field).algebra, f"{key} over {field!r}")

    @FIELDS3
    def test_central_extensions(self, field):
        rng = random.Random(5)
        keys = [k for k in catalog.all_keys(6, field) if k.a >= 3]
        for trial in range(10):
            key = rng.choice(keys)
            E = central_extension(catalog.build(key, field).algebra, rng.choice((1, 2)), rng)
            assert validate(E).ok
            self.assert_matches_dense(E, f"extension {trial} of {key} over {field!r}")

    @FIELDS
    def test_fraction_extensions(self, field):
        # over Q the tables hold Fractions, which d3 columns carry into the
        # elimination; over GF(101) the same draws are residues
        rng = random.Random(15)
        keys = [k for k in catalog.all_keys(6, field) if k.a >= 4]
        fractions = 0
        for trial in range(8):
            key = rng.choice(keys)
            E = central_extension(catalog.build(key, field).algebra, rng.choice((1, 2)), rng,
                                  denominators=(1, 2, 3, 4))
            assert validate(E).ok
            fractions += any(type(x) is not int for row in E.table.values() for x in row.values())
            self.assert_matches_dense(E, f"extension {trial} of {key} over {field!r}")
        assert fractions if field == QQ else not fractions

    @FIELDS3
    def test_scrambled_bases(self, field):
        rng = random.Random(55)
        for text in ("L5_4", "L6_10", "L6_14", "L6_19(e=2)", "L6_25"):
            L = catalog.build(catalog.parse_key(text, field), field).algebra
            for _ in range(3):
                B = transform(L, random_basis_change(rng, L.dim, field))
                self.assert_matches_dense(B, f"{text} over {field!r}")


def dense_result(L):
    """The MultiplierResult of L on im d3 eliminated from every column of
    the dense ce_d3: the reference for the table walk of ``_im_d3``."""
    ext = ExteriorBasis(L.dim)
    cols = [_prepare(L.field, c) for c in sparse_columns(ce_d3(L))]
    return homology.MultiplierResult(Elimination(L.field, ext.width, cols), L, ext)


class TestCentralColumns:
    """When a bracket has two or more terms, im d3 takes its columns at a
    central coordinate c, d3(e_i ^ e_j ^ e_c) = [e_i, e_j] ^ e_c, as
    u ^ e_c on the RREF rows u of L^2, one per row and not one per table
    entry.  They span the same L^2 ^ e_c, so every invariant equals its
    reference from the dense ce_d3, and an extension whose brackets all
    have several terms peels to a few clearing steps."""

    @staticmethod
    def extensions(field):
        """(name, central extension) pairs: by A(k) of F(2,4), F(3,3), H(m)
        and dim-6 entries, some with fractions over Q, and those of F(2,4)
        with every bracket of two or more terms."""
        rng = random.Random(71)

        def entry(text):
            return catalog.build(catalog.parse_key(text, field), field).algebra
        bases = [("F(2,4)", covers.free_nilpotent(2, 4).algebra_over(field), 4, None),
                 ("F(2,4)", covers.free_nilpotent(2, 4).algebra_over(field), 4, (1, 2, 4, 5)),
                 ("F(3,3)", covers.free_nilpotent(3, 3).algebra_over(field), 2, None),
                 ("H(2)", catalog.heisenberg_algebra(2, field), 2, None),
                 ("H(3)", catalog.heisenberg_algebra(3, field), 1, (2, 5)),
                 ("L6_14", entry("L6_14"), 2, None),
                 ("L6_19(e=1)", entry("L6_19(e=1)"), 1, (1, 2)),
                 ("L6_25", entry("L6_25"), 3, None)]
        for name, base, kdim, denominators in bases:
            E = central_extension(base, kdim, rng, denominators=denominators)
            yield f"{name} by A({kdim}) over {field!r}", E

    @FIELDS3
    def test_matches_dense(self, field):
        fractions = multi = 0
        for name, L in self.extensions(field):
            m, ref = schur_multiplier(L), dense_result(L)
            assert m.span.rank == ref.span.rank, name
            assert m.kept == ref.kept, name
            assert m.image == ref.image, name
            assert m.exterior_square().table_key() == ref.exterior_square().table_key(), name
            assert m.exterior_center() == ref.exterior_center(), name
            fractions += any(type(x) is not int for r in L.table.values() for x in r.values())
            multi += all(len(r) > 1 for r in L.table.values())
        assert multi
        assert fractions if field == QQ else not fractions

    def test_central_columns_carry_rank(self, monkeypatch):
        # with no rows of L^2, the walk misses the columns at the central
        # coordinates, and where every bracket has several terms, no unit
        # of a single-term bracket makes up for them: im d3 falls short of
        # the dense reference, which test_matches_dense would see
        monkeypatch.setattr(homology, "derived_subalgebra",
                            lambda L: Subspace.from_vectors(L.field, L.dim, []))
        short = [schur_multiplier(L).span.rank < dense_result(L).span.rank
                 for _, L in self.extensions(QQ)
                 if all(len(r) > 1 for r in L.table.values())]
        assert short and all(short)

    @FIELDS3
    @pytest.mark.parametrize("seed", [7, 11])
    def test_stalled_extension_work(self, field, seed, monkeypatch):
        # the 15 brackets of these extensions of F(2,4) by A(4) all have
        # several terms; built per entry, their columns peel to one unit and
        # leave about 400 clearing steps; from L^2, z1..z4 ^ L^2 are units
        E = central_extension(covers.free_nilpotent(2, 4).algebra_over(field), 4,
                              random.Random(seed))
        assert all(len(r) > 1 for r in E.table.values())
        derived_subalgebra(E)  # L^2 is eliminated before the count starts
        steps = []
        clear_int, clear_mod = linalg._clear_int, linalg._clear_mod

        def counted_int(*args):
            steps.append(args)
            return clear_int(*args)

        def counted_mod(*args):
            steps.append(args)
            return clear_mod(*args)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_clear_int", counted_int)
            patch.setattr(linalg, "_clear_mod", counted_mod)
            m = schur_multiplier(E)
        assert len(steps) <= 20
        assert m.dim == covers.Cover(E).multiplier_dim


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
        zero = Subspace.from_vectors(QQ, 4, [])
        cols = induced_multiplier_map(L, zero)
        assert Subspace.from_vectors(QQ, len(cols), cols).dim == schur_multiplier(L).dim

    def test_l43_center_not_injective(self):
        L = build("L4_3")
        assert not induced_map_injective(L, center(L))

    def test_h2_derived_injective(self):
        L = build("L5_4")
        assert induced_map_injective(L, derived_subalgebra(L))

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
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                zw = exterior_center(Cover(L))
                m_l = schur_multiplier(L).dim
                der = derived_subalgebra(L)
                for line in central_test_lines(L):
                    q, _ = quotient(L, line)
                    gap = (m_l - schur_multiplier(q).dim
                           + int(der.contains_subspace(line)))
                    assert gap >= 0, str(key)
                    assert (gap == 0) == zw.contains_subspace(line), str(key)


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
            c = field.add(field.mul(u[i], v[j]), field.neg(field.mul(u[j], v[i])))
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
        # d2 . d3 = 0, checked on the RREF rows of im d3, refuses the table
        with pytest.raises(NotContained):
            schur_multiplier(flipped)

    def test_sign_flip_refused_over_gf101(self):
        f = PrimeField(101)
        L = catalog.build(catalog.indexed_key(6, 14), field=f).algebra
        flipped = LieAlgebra(f, 6, {**L.table, (2, 3): {5: 1}})
        assert validate(flipped).first_failure()[:3] == (0, 1, 3)
        with pytest.raises(NotContained):
            schur_multiplier(flipped)


@pytest.fixture
def finalized(monkeypatch):
    """The number of Echelon.finalize calls, the back-substitution that
    builds an RREF, made while the test runs."""
    calls = []
    finalize = Echelon.finalize

    def counted(self):
        calls.append(self)
        return finalize(self)
    monkeypatch.setattr(Echelon, "finalize", counted)
    return calls


class TestJacobiRefusal:
    """schur_multiplier checks d2 . d3 = 0 on the unit columns and the
    echelon rows of im d3 as its elimination leaves them, not on each
    column and not on the RREF; a basis of the span is killed exactly when
    every column is, so every table that breaks Jacobi is still refused,
    inside the call and before any RREF is built, wherever the violation
    sits."""

    @staticmethod
    def unkilled_columns(L):
        """The ce_d3 columns that ce_d2 does not send to zero."""
        d2 = sparse_columns(ce_d2(L))
        return [t for t, col in zip(ExteriorBasis(L.dim).triples, sparse_columns(ce_d3(L)))
                if apply_columns(L.field, d2, col)]

    @staticmethod
    def violation_sites(L):
        """Where d2 fails to kill im d3 once the ce_d3 columns are
        eliminated: the unit columns d2 does not kill, the number of
        echelon rows it does not kill, and whether im d3 is all of
        Lambda^2.  The unit columns of the peel, and whether the echelon
        rows span a subspace d2 kills, do not depend on the column order."""
        width = ExteriorBasis(L.dim).width
        span = Elimination(L.field, width, [_prepare(L.field, c)
                                            for c in sparse_columns(ce_d3(L))])
        d2 = sparse_columns(ce_d2(L))
        rows = sum(1 for r in span.echelon_rows() if apply_columns(L.field, d2, r))
        return sorted(t for t in span.units if d2[t]), rows, span.rank == width

    @FIELDS
    def test_violation_in_one_column(self, field, finalized):
        # L6_13 with [x2, x5] = x6 added breaks Jacobi on (x1, x2, x3) only,
        # at the unit column x5 ^ x6 less a combination of other units
        L = catalog.build(catalog.indexed_key(6, 13), field=field).algebra
        planted = LieAlgebra(field, 6, {**L.table, (1, 4): {5: 1}})
        assert self.unkilled_columns(L) == []
        assert self.unkilled_columns(planted) == [(0, 1, 2)]
        assert validate(planted).first_failure()[:3] == (0, 1, 2)
        assert self.violation_sites(planted) == ([ExteriorBasis(6).base[1] + 4], 0, False)
        finalized.clear()
        with pytest.raises(NotContained):
            schur_multiplier(planted)
        assert finalized == []

    @FIELDS
    def test_violation_at_unit_columns(self, field, finalized):
        # [x1, x2] = x3 and [x3, x4] = x1: every d3 column is a single term,
        # and x3 ^ x4 and x1 ^ x2 are unit columns whose pairs have brackets
        L = LieAlgebra(field, 4, {(0, 1): {2: 1}, (2, 3): {0: 1}})
        base = ExteriorBasis(4).base
        assert self.violation_sites(L) == (sorted([base[0] + 1, base[2] + 3]), 0, False)
        finalized.clear()
        with pytest.raises(NotContained):
            schur_multiplier(L)
        assert finalized == []

    @FIELDS
    def test_violation_only_in_echelon_rows(self, field, finalized):
        # L5_7 with [x2, x3] = x4 added: every unit column is killed, and
        # only a row with several entries carries the violation
        L = catalog.build(catalog.indexed_key(5, 7), field=field).algebra
        planted = LieAlgebra(field, 5, {**L.table, (1, 2): {3: 1}})
        assert self.unkilled_columns(L) == []
        assert self.unkilled_columns(planted)
        bad_units, bad_rows, full = self.violation_sites(planted)
        assert bad_units == [] and bad_rows > 0 and not full
        finalized.clear()
        with pytest.raises(NotContained):
            schur_multiplier(planted)
        assert finalized == []

    @FIELDS
    def test_full_width_image(self, field, finalized):
        # a random dim-6 table: im d3 is all of Lambda^2, so the elimination
        # stops at full width, and its basis meets pairs of the table
        rng = random.Random(3)
        table = {(i, j): {k: field.from_int(rng.randint(1, 3)) for k in rng.sample(range(6), 2)}
                 for i in range(6) for j in range(i + 1, 6)}
        L = LieAlgebra(field, 6, table)
        width = len(ExteriorBasis(6).pairs)
        assert len(echelon_rref(field, width, sparse_columns(ce_d3(L)))[0]) == width
        assert self.unkilled_columns(L)
        assert self.violation_sites(L)[2]
        finalized.clear()
        with pytest.raises(NotContained):
            schur_multiplier(L)
        assert finalized == []

    @FIELDS
    def test_violation_with_central_coordinates(self, field, finalized):
        # an extension of F(2,4) by A(4) whose 15 brackets all have several
        # terms, with z1 added to [x3, x4]: z1..z4 stay central, so im d3
        # takes their columns from L^2, and Jacobi fails at (x1, x2, x4)
        E = central_extension(covers.free_nilpotent(2, 4).algebra_over(field), 4,
                              random.Random(7))
        table = dict(E.table)
        table[(2, 3)] = {**table[(2, 3)], 8: field.add(table[(2, 3)].get(8, 0), 1)}
        planted = LieAlgebra(field, E.dim, table)
        assert all(len(r) > 1 for r in planted.table.values())
        assert not any(c in ij for ij in planted.table for c in range(8, 12))
        assert self.unkilled_columns(E) == []
        assert self.unkilled_columns(planted)
        assert validate(planted).first_failure()[:3] == (0, 1, 3)
        # the walk reads the RREF of L^2, built here so that only an RREF
        # of im d3 would be counted
        derived_subalgebra(planted)
        finalized.clear()
        with pytest.raises(NotContained):
            schur_multiplier(planted)
        assert finalized == []


class TestLazyImage:
    """schur_multiplier eliminates im d3 without back-substituting it:
    ``dim`` and ``kept`` read the pivots, and the canonical RREF is built on
    the first read of ``image`` (``TestSparseBoundaries`` compares it with
    plain elimination of every ce_d3 column)."""

    @staticmethod
    def algebras(field):
        for key in ("L5_6", "L6_13", "L6_14", "L6_22(e=2)"):
            yield catalog.build(catalog.parse_key(key, field), field).algebra
        yield covers.free_nilpotent(3, 3).algebra_over(field)

    @FIELDS
    def test_dim_and_kept_build_no_rref(self, field, finalized):
        inserted = []
        for L in self.algebras(field):
            m = schur_multiplier(L)
            inserted.append(m.span.echelon.rank)
            derived_subalgebra(L)  # L^2, a Subspace of L in its own RREF
            finalized.clear()
            dim, kept = m.dim, m.kept
            assert finalized == []
            # the RREF, once read, agrees with what was read off the pivots
            image = m.image
            assert len(finalized) == 1 and m.image is image
            assert kept == tuple(t for t in range(m.ext.width) if t not in image.pivots)
            assert dim == len(kept) - derived_subalgebra(L).dim
        # these need Echelon, so a finalize was there to be skipped
        assert all(inserted)


class TestEliminatedReads:
    """The square, the exterior center and the induced maps read residues
    modulo im d3 off its elimination (``Elimination.reduce``): the unit
    columns as a set and the echelon rows, with no unit row built.  The
    canonical RREF of im d3 (``image``) is built on no report or suite
    path, and the residues equal those read off it."""

    @pytest.fixture
    def results(self, monkeypatch):
        """Every ``MultiplierResult`` made while the test runs."""
        made = []
        make = homology.MultiplierResult

        def recorded(*args):
            made.append(make(*args))
            return made[-1]
        monkeypatch.setattr(homology, "MultiplierResult", recorded)
        return made

    @FIELDS3
    def test_reports_and_suites_build_no_image(self, field, results):
        for key in catalog.all_keys(6, field):
            invariant_report(catalog.build(key, field).algebra, str(key))
        reports = len(results)
        run_suites(list(SUITES), field, _epsilon_set(field, ""))
        assert 0 < reports < len(results)
        assert all("image" not in m.__dict__ for m in results)

    @staticmethod
    def tables(field):
        rng = random.Random(31)
        for key in catalog.all_keys(6, field):
            yield str(key), catalog.build(key, field).algebra
        for d, c in ((2, 3), (3, 2), (2, 4), (3, 3), (4, 2)):
            F = covers.free_nilpotent(d, c).algebra_over(field)
            yield f"F({d},{c})", F
            yield f"F({d},{c}) by A(2)", central_extension(F, 2, rng)
            yield f"F({d},{c}) scrambled", transform(F, random_basis_change(rng, F.dim, field))
        for text in ("L5_6", "L6_14", "L6_19(e=1)", "L6_25"):
            L = catalog.build(catalog.parse_key(text, field), field).algebra
            E = central_extension(L, 2, rng)
            yield f"{text} by A(2)", E
            yield f"{text} by A(2) scrambled", transform(E, random_basis_change(rng, E.dim, field))

    @FIELDS3
    def test_reduce_matches_subspace_reduce(self, field):
        rng = random.Random(37)
        raw = [0, 1, -1, 2, -3, 7, field.char or 5]
        if not field.char:
            raw += [Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)]
        units = 0
        for name, L in self.tables(field):
            m = schur_multiplier(L)
            width, span = m.ext.width, m.span
            vectors = [{t: field.one} for t in range(width)]
            vectors += [{t: rng.choice(raw) for t in rng.sample(range(width), min(width, 5))}
                        for _ in range(20)]
            # the first reduce back-substitutes the echelon; image is read after
            got = [span.reduce(v) for v in vectors]
            want = [m.image.reduce(v) for v in vectors]
            # the same entries in the same order, with the same scalar types
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want], name
            assert all(type(a) is type(b) for g, w in zip(got, want)
                       for a, b in zip(g.values(), w.values())), name
            # canonical scalars on both sides: == takes Fraction(1, 1) for 1
            assert not any(type(x) is Fraction and x.denominator == 1
                           for r in got + want for x in r.values()), name
            units += bool(span.units) and bool(span.echelon.rank)
        assert units

    @pytest.fixture
    def functionals(self, monkeypatch):
        """The rows that each ``_exterior_center`` hands to
        ``kernel_from_rows``, one list per call."""
        calls = []
        kernel = homology.kernel_from_rows

        def spied(field, width, rows):
            calls.append(list(rows))
            return kernel(field, width, calls[-1])
        monkeypatch.setattr(homology, "kernel_from_rows", spied)
        return calls

    @staticmethod
    def integral(rows):
        return all(type(x) is int for r in rows for x in r.values())

    def test_exterior_center_functionals_are_integers(self, functionals):
        # over Q the residues are read off the integer echelon rows of
        # im d3, each scaled by the lcm of their leads, so on a table whose
        # Z(L) rows are integers every functional is: no Fraction is formed
        integral = scaled = 0
        for name, L in self.tables(QQ):
            zrows = center(L).sparse_rows()
            if not (self.integral(L.table.values()) and self.integral(zrows)):
                continue
            m = schur_multiplier(L)
            functionals.clear()
            assert m.exterior_center() == exterior_center_reference(m), name
            (rows,) = functionals
            assert self.integral(rows), name
            integral += 1
            scaled += any(row[t] > 1 for t, row in m.span.echelon.reduced_rows().items())
        # more tables than the catalog holds pass the filter, and some
        # lead above 1 is scaled
        assert integral > len(catalog.all_keys(6, QQ)) and scaled

    def test_exterior_center_on_fraction_tables(self, functionals):
        # Z(L) rows with Fractions, here after a basis change of a table
        # with Fractions, give Fraction functionals, which the kernel
        # scales to integers on their way in (``_prepare``)
        rng = random.Random(41)
        fractions = 0
        for text in ("L5_6", "L6_14", "L6_19(e=1)", "L6_25"):
            L = catalog.build(catalog.parse_key(text, QQ), QQ).algebra
            E = central_extension(L, 2, rng, denominators=(1, 2, 3))
            for X in (E, transform(E, random_basis_change(rng, E.dim))):
                m = schur_multiplier(X)
                functionals.clear()
                assert m.exterior_center() == exterior_center_reference(m), text
                fractions += not self.integral(functionals[0])
        assert fractions


class TestExteriorCenterOracle:
    """exterior_center, solved inside Z(L) with the functionals generated
    one j at a time, equals the all-pairs formulation over all of L."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)
    def test_catalog(self, field):
        for key in catalog.all_keys(6, field):
            m = schur_multiplier(catalog.build(key, field).algebra)
            assert m.exterior_center() == exterior_center_reference(m), str(key)

    @given(st.sampled_from([QQ, PrimeField(3), PrimeField(101)]),
           st.integers(0, 55), st.integers(0, 2), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_extensions_and_scrambles(self, field, index, kdim, scramble, rng):
        keys = catalog.all_keys(6, field)
        key = keys[index % len(keys)]
        L = catalog.build(key, field).algebra
        if kdim:
            L = central_extension(L, kdim, rng)
        if scramble:
            L = transform(L, random_basis_change(rng, L.dim, field))
        m = schur_multiplier(L)
        assert m.exterior_center() == exterior_center_reference(m)

    @given(st.sampled_from([QQ, PrimeField(3), PrimeField(101)]),
           st.integers(1, 5), st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_heisenberg_plus_abelian(self, field, hm, k, scramble, rng):
        L = direct_sum(catalog.heisenberg_algebra(hm, field), catalog.abelian_algebra(k, field))
        if scramble:
            L = transform(L, random_basis_change(rng, L.dim, field))
        m = schur_multiplier(L)
        zw = m.exterior_center()
        assert zw == exterior_center_reference(m)
        # Z^(H(m) + A(k)) is the center of H(m) when m >= 2, and 0 for H(1)
        assert zw.dim == (0 if hm == 1 else 1)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
    def test_direct_sums(self, field):
        # for H and K nonzero, (H + K) ^ (H + K) = H ^ H + K ^ K + H/H^2 x K/K^2,
        # so h + k lies in Z^ exactly when h ^ H and k ^ K vanish and the
        # cross terms h x K/K^2 and H/H^2 x k do, that is when h lies in
        # Z^(H) cap H^2 and k in Z^(K) cap K^2, K/K^2 and H/H^2 being nonzero
        parts = []
        for key in catalog.all_keys(5, field):
            L = catalog.build(key, field).algebra
            inner = intersection_reference(schur_multiplier(L).exterior_center(),
                                           derived_subalgebra(L))
            parts.append((str(key), L, inner.sparse_rows()))
        assert len(parts) == 16
        nonzero = 0
        for (hname, H, hrows), (kname, K, krows) in product(parts, repeat=2):
            S = direct_sum(H, K)
            want = Subspace.from_vectors(
                field, S.dim, hrows + [{H.dim + i: c for i, c in r.items()} for r in krows])
            assert schur_multiplier(S).exterior_center() == want, f"{hname}+{kname}"
            nonzero += want.dim > 0
        assert nonzero

    def test_stops_at_full_rank(self, monkeypatch):
        # A(40) is capable: its 40 coefficients meet full rank long before
        # the C(40, 2) = 780 pairs are read, and the functionals are
        # generated as they are read, not built up front
        read = []
        kernel = homology.kernel_from_rows

        def counting(field, width, rows):
            assert inspect.isgenerator(rows)

            def counted():
                for row in rows:
                    read.append(row)
                    yield row
            return kernel(field, width, counted())
        monkeypatch.setattr(homology, "kernel_from_rows", counting)
        assert schur_multiplier(catalog.abelian_algebra(40)).exterior_center().dim == 0
        assert 0 < len(read) < 40 * 39 // 2


class TestQuotientByExteriorCenter:
    """Z^(L) is the largest central ideal N for which L ^ L -> (L/N) ^ (L/N)
    is an isomorphism (G. Ellis, Glasgow Math. J. 33 (1991); F. Niroomand,
    M. Parvizi and F. G. Russo, J. Algebra 384 (2013)).  With the exact
    sequence 0 -> M(Q) -> Q ^ Q -> Q^2 -> 0 for Q = L/Z^(L), this gives
    dim L ^ L = dim M(Q) + dim Q^2, and L ^ L and Q ^ Q get one label.  The
    right side is a second multiplier computation, on the quotient.  Q^2 is
    the derived algebra of Q, not L^2/Z^(L): for A(1), Z^ = L lies outside
    L^2 = 0."""

    @staticmethod
    def noncapable(L, name):
        """Whether Z^(L) is nonzero, once the identity has held on L."""
        m = schur_multiplier(L)
        zw = m.exterior_center()
        Q, _ = quotient(L, zw)
        mq = schur_multiplier(Q)
        wedge = m.exterior_square()
        assert wedge.dim == mq.dim + derived_subalgebra(Q).dim, name
        assert recognize(wedge).label() == recognize(mq.exterior_square()).label(), name
        return zw.dim > 0

    @FIELDS3
    def test_catalog(self, field):
        assert sum(self.noncapable(catalog.build(key, field).algebra, str(key))
                   for key in catalog.all_keys(6, field))

    @FIELDS3
    def test_free_nilpotent_and_extensions(self, field):
        rng = random.Random(13)
        cases = []
        for d, c in ((2, 3), (3, 2), (2, 4), (3, 3), (4, 2)):
            F = covers.free_nilpotent(d, c).algebra_over(field)
            cases.append((F, f"F({d},{c})"))
            cases += [(central_extension(F, kdim, rng), f"F({d},{c}) by A({kdim})")
                      for kdim in (1, 2, 3)]
        for text in ("L5_6", "L6_14", "L6_19(e=1)", "L6_25"):
            L = catalog.build(catalog.parse_key(text, field), field).algebra
            cases += [(central_extension(L, kdim, rng), f"{text} by A({kdim})")
                      for kdim in (1, 2)]
        assert sum(self.noncapable(L, name) for L, name in cases)


class TestExteriorSquareOracle:
    """exterior_square, read off the form phi on the RREF rows of L^2,
    equals the pairwise wedge-and-reduce of every pair of live kept pairs:
    the same basis, pair order and bracket values."""

    @staticmethod
    def assert_matches(L, name):
        m = schur_multiplier(L)
        square, reference = m.exterior_square(), exterior_square_reference(m)
        assert (square.dim, square.table_key()) == (reference.dim, reference.table_key()), name
        return square

    @FIELDS3
    def test_catalog(self, field):
        for key in catalog.all_keys(6, field):
            self.assert_matches(catalog.build(key, field).algebra, str(key))

    @FIELDS3
    def test_hall_bases(self, field):
        rng = random.Random(61)
        for d, c in ((2, 4), (3, 3), (4, 3)):
            F = covers.free_nilpotent(d, c).algebra_over(field)
            self.assert_matches(F, f"F({d},{c})")
        # a scrambled class-4 basis, where phi has many nonzero values
        F = covers.free_nilpotent(2, 4).algebra_over(field)
        square = self.assert_matches(transform(F, random_basis_change(rng, F.dim, field)),
                                     "scrambled F(2,4)")
        assert not square.is_abelian()

    @FIELDS3
    def test_scrambled_generalized_heisenberg(self, field):
        rng = random.Random(47)
        for v, r in [(4, 3), (5, 2), (5, 4), (6, 3)]:
            L = generalized_heisenberg(rng, v, r, field)
            self.assert_matches(transform(L, random_basis_change(rng, L.dim, field)),
                                f"GH({v},{r})")

    def test_fraction_extensions(self):
        # the tables, and with them im d3 and phi, hold Fractions over Q
        rng = random.Random(67)
        fractions = 0
        for n, key in enumerate(catalog.all_keys(6, QQ)):
            L = central_extension(catalog.build(key, QQ).algebra, rng.choice((1, 2)), rng,
                                  denominators=(1, 2, 3, 4))
            if n % 2:
                L = transform(L, random_basis_change(rng, L.dim))
            square = self.assert_matches(L, str(key))
            fractions += any(type(x) is not int for row in square.table.values()
                             for x in row.values())
        assert fractions


class TestSquareWork:
    """exterior_square reduces the wedges u_s ^ u_t of the live RREF rows of
    L^2, those outside Z(L), and no other: d3(a ^ b ^ z) = [a, b] ^ z for a
    central z, so L^2 ^ z lies in im d3 and a central row forms no residue.
    With l live rows that is l(l-1)/2 reductions, none when L^2 has fewer
    than two rows.  It reads no kept pair when the residues all lie in im d3,
    as in class 2, where L^2 ^ L^2 is in im d3.  It reads d2 of a kept pair
    off the table by coordinate, never through bracket_basis."""

    @staticmethod
    def counted(monkeypatch, L):
        """(square, reductions, bracket_basis calls, kept pairs read) of
        exterior_square on L, with im d3 and L^2 built before the count
        starts.  A reduction is a residue modulo im d3 read off its
        elimination (``Elimination.reduce``)."""
        m = schur_multiplier(L)
        derived_subalgebra(L)
        reduced, brackets, read = [], [], []

        class CountedD2(dict):
            def get(self, t, default=None):
                read.append(t)
                return dict.get(self, t, default)
        m.__dict__["_d2"] = CountedD2(m._d2)
        reduce, bracket_basis = Elimination.reduce, LieAlgebra.bracket_basis

        def counted_reduce(self, vec):
            reduced.append(vec)
            return reduce(self, vec)

        def counted_bracket(self, i, j):
            brackets.append((i, j))
            return bracket_basis(self, i, j)
        with monkeypatch.context() as patch:
            patch.setattr(Elimination, "reduce", counted_reduce)
            patch.setattr(LieAlgebra, "bracket_basis", counted_bracket)
            square = m.exterior_square()
        return square, len(reduced), len(brackets), len(read)

    def test_scrambled_generalized_heisenberg(self, monkeypatch):
        rng = random.Random(43)
        L = generalized_heisenberg(rng, 5, 4)
        L = transform(L, random_basis_change(rng, L.dim))
        assert derived_subalgebra(L).dim == 4
        square, reduced, brackets, read = self.counted(monkeypatch, L)
        assert square.is_abelian() and square.dim == schur_multiplier(L).dim + 4
        assert reduced <= 6 and brackets == read == 0

    @FIELDS3
    def test_class_two_reads_no_pair(self, field, monkeypatch):
        for name, L in class_two_cases(field):
            d = derived_subalgebra(L).dim
            square, reduced, brackets, read = self.counted(monkeypatch, L)
            assert square.is_abelian(), name
            assert reduced <= d * (d - 1) // 2 and brackets == read == 0, name

    def test_class_four_reads_pairs(self, monkeypatch):
        # F(2,4) has dim L^2 = 6 and a nonabelian square, so phi is not zero;
        # its three weight-4 rows of L^2 are central, so 3 of the 15 wedges
        # of its rows are reduced
        L = covers.free_nilpotent(2, 4).algebra_over(QQ)
        square, reduced, brackets, read = self.counted(monkeypatch, L)
        assert not square.is_abelian()
        assert reduced == 3 and brackets == 0
        assert read == len(schur_multiplier(L).kept)

    @staticmethod
    def live_rows(L):
        """The RREF rows of L^2 outside Z(L), by the center's own test."""
        z = center(L)
        return [u for u in derived_subalgebra(L).sparse_rows() if not z.contains(u)]

    @FIELDS3
    def test_central_rows_form_no_residue(self, field, monkeypatch):
        # F(3,3) is class 3: its eight weight-3 rows of L^2 are central, so
        # only the wedges of its three weight-2 rows are reduced, not 55
        L = covers.free_nilpotent(3, 3).algebra_over(field)
        assert derived_subalgebra(L).dim == 11 and len(self.live_rows(L)) == 3
        square, reduced, _, _ = self.counted(monkeypatch, L)
        assert reduced == 3
        assert square.table_key() == exterior_square_reference(schur_multiplier(L)).table_key()

    @FIELDS3
    def test_scrambled_count_and_square(self, field, monkeypatch):
        # on a scrambled basis the RREF rows of L^2 are dense, and the count
        # is still l(l-1)/2 for the l rows outside Z(L)
        rng = random.Random(71)
        cases = [covers.free_nilpotent(2, 4).algebra_over(field),
                 central_extension(covers.free_nilpotent(2, 3).algebra_over(field), 2, rng)]
        cases += [catalog.build(catalog.parse_key(key, field), field).algebra
                  for key in ("L5_6", "L6_14", "L6_19(e=2)")]
        for n, L in enumerate(cases):
            L = transform(L, random_basis_change(rng, L.dim, field))
            live = len(self.live_rows(L))
            square, reduced, _, _ = self.counted(monkeypatch, L)
            assert reduced == live * (live - 1) // 2, n
            reference = exterior_square_reference(schur_multiplier(L))
            assert (square.dim, square.table_key()) == (reference.dim, reference.table_key()), n


class TestKunneth:
    def test_two_lines(self):
        a1 = catalog.abelian_algebra(1)
        assert kunneth_exterior_dim(a1, a1) == 1
        assert kunneth_tensor_dim(a1, a1) == 4  # A(2) x A(2) = A(4)

    def test_l52_decomposition(self):
        # L5_2 = L4_2 + A(1): 5 + 0 + 3*1 = 8
        assert kunneth_exterior_dim(build("L4_2"), build("A1")) == 8

    def test_matches_direct_sum_computation(self):
        from liecap.covers import Cover
        h, k = build("H1"), build("A2")
        total = kunneth_exterior_dim(h, k)
        cov = Cover(direct_sum(h, k))
        # dim L^L = dim M(L) + dim L^2, with M(L) read off the cover
        assert total == cov.multiplier_dim + derived_subalgebra(cov.algebra).dim
        assert total == schur_multiplier(direct_sum(h, k)).dim + 1

    def test_tensor_square_of_abelian(self):
        for n in (1, 2, 3, 4):
            a = catalog.abelian_algebra(n)
            assert kunneth_tensor_dim(a, catalog.abelian_algebra(0)) == n * n
