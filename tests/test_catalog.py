from fractions import Fraction

import pytest

from liecap import catalog
from liecap.algebra import derived_subalgebra, direct_sum, validate
from liecap.linalg import QQ, PrimeField


class TestListing:
    def test_counts(self):
        assert len(catalog.list_keys(1)) == 1
        assert len(catalog.list_keys(2)) == 1
        assert len(catalog.list_keys(3)) == 2
        assert len(catalog.list_keys(4)) == 3
        assert len(catalog.list_keys(5)) == 9
        assert len(catalog.list_keys(6)) == 28

    def test_epsilon_families(self):
        fams = [k for k in catalog.list_keys(6) if k.is_epsilon_family]
        assert sorted(k.b for k in fams) == [19, 21, 22, 24]

    def test_expand(self):
        assert len(catalog.expand_keys(6)) == 24 + 4 * 4

    def test_dim7_unsupported(self):
        with pytest.raises(catalog.UnsupportedDimension):
            catalog.list_keys(7)


class TestBuild:
    def test_heisenberg1(self):
        e = catalog.build(catalog.heisenberg_key(1))
        assert e.algebra.dim == 3
        assert e.algebra.bracket_basis(0, 1) == {2: Fraction(1)}
        assert len(e.algebra.table) == 1

    def test_l614_brackets(self):
        L = catalog.build(catalog.indexed_key(6, 14)).algebra
        assert L.bracket_basis(1, 4) == {5: Fraction(1)}
        assert L.bracket_basis(2, 3) == {5: Fraction(-1)}

    def test_l619_epsilon_variants(self):
        a = catalog.build(catalog.indexed_key(6, 19, Fraction(0))).algebra
        b = catalog.build(catalog.indexed_key(6, 19, Fraction(1))).algebra
        assert a.bracket_basis(2, 4) == {}
        assert b.bracket_basis(2, 4) == {5: Fraction(1)}
        # they differ in that row only
        ta = {ij: row for ij, row in a.table.items()}
        tb = {ij: row for ij, row in b.table.items()}
        tb.pop((2, 4))
        assert ta == tb

    def test_every_entry_validates(self):
        """The guarantee behind ``catalog.build``, which does not validate.

        A non-family entry has integer structure constants, so its Jacobi
        sums are integers, and zero over Q means zero over every field.  In
        an epsilon family epsilon sits in one bracket entry (see
        ``test_epsilon_enters_one_bracket``), so each Jacobi sum, a sum of
        products of two structure constants, is an integer polynomial of
        degree at most 2 in epsilon.  Zero at the four samples 0, 1, -1 and
        2 over Q makes it the zero polynomial: every epsilon over every
        field gives a Lie algebra.
        """
        assert catalog.DEFAULT_EPSILON_SAMPLES == (0, 1, -1, 2)
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                assert validate(catalog.build(key).algebra).ok

    def test_epsilon_enters_one_bracket(self):
        # the family's table at epsilon is its table at 0 plus epsilon in
        # the one entry catalog._EPSILON_BRACKET names
        for key in catalog.list_keys(6):
            if not key.is_epsilon_family:
                continue
            (i, j), k = catalog._EPSILON_BRACKET[(key.a, key.b)]
            zero = catalog.build(catalog.indexed_key(6, key.b, 0)).algebra.table
            assert (i - 1, j - 1) not in zero
            for e in (1, -1, 2, Fraction(3, 7)):
                table = dict(catalog.build(catalog.indexed_key(6, key.b, e)).algebra.table)
                assert table.pop((i - 1, j - 1)) == {k - 1: e}
                assert table == zero

    def test_heisenberg_validates(self):
        # [x_a, x_b] lies in the center for every bracket, so Jacobi holds
        # for every m; checked here up to m = 6
        for m in range(1, 7):
            assert validate(catalog.heisenberg_algebra(m)).ok

    def test_derived_dims_spot(self):
        # recomputed from the tables, not hardcoded into the builder
        for text, expected in (("L6_10", 2), ("L6_26", 3), ("L5_8", 2)):
            L = catalog.build(catalog.parse_key(text)).algebra
            assert derived_subalgebra(L).dim == expected

    def test_l6k_is_l5k_plus_line(self):
        from liecap.recognize import fingerprint
        for k in range(1, 10):
            six = catalog.build(catalog.indexed_key(6, k)).algebra
            five = catalog.build(catalog.indexed_key(5, k)).algebra
            summed = direct_sum(five, catalog.abelian_algebra(1))
            assert fingerprint(six) == fingerprint(summed)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
    def test_l6k_table_is_l5k_plus_line(self, field):
        # read off the dim-5 relations, the same table, in the same order,
        # and the same names as the relabelled direct sum
        names = tuple(f"x{i + 1}" for i in range(6))
        for k in range(1, 10):
            six = catalog.build(catalog.indexed_key(6, k), field).algebra
            five = catalog.build(catalog.indexed_key(5, k), field).algebra
            summed = direct_sum(five, catalog.abelian_algebra(1, field)).relabel(names)
            assert list(six.table.items()) == list(summed.table.items()), k
            assert six.labels == summed.labels == names

    def test_epsilon_guards(self):
        with pytest.raises(catalog.EpsilonRequired):
            catalog.build(catalog.indexed_key(6, 19))
        with pytest.raises(catalog.EpsilonForbidden):
            catalog.build(catalog.indexed_key(6, 18, Fraction(1)))
        with pytest.raises(catalog.UnknownKey):
            catalog.build(catalog.indexed_key(6, 29))

    def test_prime_field_build(self):
        F = PrimeField(5)
        L = catalog.build(catalog.indexed_key(6, 14), field=F).algebra
        assert validate(L).ok
        assert L.bracket_basis(2, 3) == {5: 4}  # -1 mod 5


class TestKeySyntax:
    def test_round_trip(self):
        for text in ("A3", "H2", "L5_4", "L6_19(e=2)", "L6_22(e=-1)", "L6_24(e=1/2)"):
            key = catalog.parse_key(text)
            assert str(key) == text

    def test_bad_keys(self):
        for text in ("B3", "L7_1", "L5", "A", "L6_19(e=x)"):
            with pytest.raises(catalog.UnknownKey):
                catalog.parse_key(text)

    def test_size_bound(self):
        # A(n) has dim n and H(m) dim 2m+1; neither may exceed algebra.MAX_DIM
        assert str(catalog.parse_key("A300")) == "A300"
        assert str(catalog.parse_key("H149")) == "H149"
        for text in ("A301", "H150", "A5000"):
            with pytest.raises(catalog.CatalogError):
                catalog.parse_key(text)
