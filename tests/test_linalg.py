import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecap.linalg import (
    QQ,
    DimensionMismatch,
    Echelon,
    LinalgError,
    NotContained,
    PrimeField,
    Subspace,
    apply_columns,
    complement,
    inverse_columns,
    kernel_columns,
    subspace_intersect,
    subspace_sum,
)


def columns(rows, field=QQ):
    """The sparse columns of the matrix with the given dense rows."""
    return [{i: c for i, r in enumerate(rows) if (c := field.coerce(r[j]))}
            for j in range(len(rows[0]))]


def column_rank(field, cols):
    """Rank of a map from its sparse columns, by elimination on the columns."""
    ech = Echelon(field, 0)
    for col in cols:
        ech.add(col)
    return ech.rank


def is_identity(field, cols):
    return cols == [{j: field.one} for j in range(len(cols))]


def product(field, a_cols, b_cols):
    """The sparse columns of A B."""
    return [apply_columns(field, a_cols, col) for col in b_cols]


class TestFields:
    def test_rational_exactness(self):
        a, b = Fraction(1, 3), Fraction(22, 7)
        assert QQ.sub(QQ.add(a, b), b) == a
        assert QQ.div(QQ.mul(a, b), b) == a

    def test_prime_field_exactness(self):
        F = PrimeField(7)
        for a in range(7):
            for b in range(1, 7):
                assert F.sub(F.add(a, b), b) == a
                assert F.div(F.mul(a, b), b) == a

    def test_prime_field_rejects_bad_p(self):
        for p in (2, 4, 9, 15, 1):
            with pytest.raises(ValueError):
                PrimeField(p)

    def test_is_square(self):
        assert QQ.is_square(Fraction(4))
        assert QQ.is_square(Fraction(9, 4))
        assert not QQ.is_square(Fraction(2))
        assert not QQ.is_square(Fraction(-4))
        F5 = PrimeField(5)
        assert F5.is_square(4)
        assert not F5.is_square(2)

    def test_parse_round_trip(self):
        for s in ("3", "-1/2", "0"):
            assert QQ.to_str(QQ.parse(s)) == s


def is_canonical(x):
    """A canonical Q scalar: an int, or a Fraction with denominator above 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


class TestCanonicalRationals:
    """The Q operations agree with Fraction arithmetic, never give a float,
    and inv, div, parse and coerce give an int exactly when the value is
    integral."""

    @staticmethod
    def values(seed, n=40):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            num = rng.randint(-30, 30)
            # a Fraction of denominator 1 stands for a result of mixed arithmetic
            out.append(num if rng.random() < 0.4 else Fraction(num, rng.randint(1, 9)))
        return out

    def test_ring_operations(self):
        xs = self.values(1018)
        for a in xs:
            got = QQ.neg(a)
            assert type(got) in (int, Fraction) and got == -Fraction(a)
            for b in xs:
                for got, want in ((QQ.add(a, b), Fraction(a) + b),
                                  (QQ.sub(a, b), Fraction(a) - b),
                                  (QQ.mul(a, b), Fraction(a) * b)):
                    assert type(got) in (int, Fraction) and got == want

    def test_inv_and_div(self):
        xs = self.values(2026)
        for a in xs:
            if a:
                got = QQ.inv(a)
                assert is_canonical(got) and got == 1 / Fraction(a)
            for b in xs:
                if b:
                    got = QQ.div(a, b)
                    assert is_canonical(got) and got == Fraction(a) / b
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, 0)

    def test_parse_and_coerce(self):
        xs = self.values(10)
        texts = [str(x) for x in xs] + ["4/2", "-6/3", "0/5", "2.50", "0.5", "1e2", "-3e-1"]
        for t in texts:
            got = QQ.parse(t)
            assert is_canonical(got) and got == Fraction(t)
        for a in xs + [Fraction(6, 3), Fraction(0, 7), True, False, 10**30]:
            got = QQ.coerce(a)
            assert is_canonical(got) and got == Fraction(a)
        assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
        assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.from_int(5)))
        with pytest.raises(TypeError):
            QQ.coerce(0.5)

    def test_subspace_rows_are_canonical(self):
        rng = random.Random(7)
        for _ in range(30):
            vecs = [{j: x for j, x in enumerate(self.values(rng.randrange(10**6), 6)) if x}
                    for _ in range(rng.randint(1, 5))]
            space = Subspace.from_vectors(QQ, 6, vecs)
            rows = space.sparse_rows()
            assert all(is_canonical(x) for r in rows for x in r.values())
            assert all(r[p] == 1 for r, p in zip(rows, space.pivots))


class TestRref:
    """A Subspace holds the RREF rows of the vectors it is built from."""

    def test_identity(self):
        s = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert s == Subspace.full(QQ, 3) and s.dim == 3 and s.pivots == (0, 1, 2)

    def test_zero(self):
        s = Subspace.from_vectors(QQ, 4, [[0, 0, 0, 0], [0, 0, 0, 0]])
        assert s == Subspace.zero(QQ, 4) and s.dim == 0 and s.pivots == ()

    def test_rank_one(self):
        # hand row reduction: second row is twice the first
        s = Subspace.from_vectors(QQ, 2, [[1, 2], [2, 4]])
        assert s.sparse_rows() == [{0: 1, 1: 2}]
        assert s.dim == 1 and s.pivots == (0,)

    def test_fractions_normalized(self):
        s = Subspace.from_vectors(QQ, 3, [[2, 4, 2], [1, 3, 5]])
        rows = s.sparse_rows()
        assert s.dim == 2
        # unit pivots, back substituted
        assert rows[0][0] == 1 and rows[1][1] == 1
        assert rows[0].get(1, 0) == 0


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel_columns(QQ, [{i: QQ.one} for i in range(4)]).dim == 0

    def test_zero_map_full_kernel(self):
        k = kernel_columns(QQ, [{}] * 5)
        assert k.dim == 5 and k == Subspace.full(QQ, 5)

    def test_kernel_vectors_annihilate(self):
        cols = columns([[1, 2, 3], [4, 5, 6]])
        k = kernel_columns(QQ, cols)
        assert k.dim == 1
        for v in k.sparse_rows():
            assert apply_columns(QQ, cols, v) == {}


class TestSubspaceOps:
    def test_sum_intersect_same(self):
        u = Subspace.from_vectors(QQ, 3, [[1, 0, 2], [0, 1, 1]])
        assert subspace_sum(u, u) == u
        assert subspace_intersect(u, u) == u

    def test_complementary_planes(self):
        u = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = Subspace.from_vectors(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert subspace_sum(u, v).dim == 4
        assert subspace_intersect(u, v).dim == 0

    def test_skew_line_example(self):
        # U = span(e1+e2), V = span(e2): hand computation gives
        # dim(U+V) = 2 and U cap V = 0
        u = Subspace.from_vectors(QQ, 2, [[1, 1]])
        v = Subspace.from_vectors(QQ, 2, [[0, 1]])
        assert subspace_sum(u, v).dim == 2
        assert subspace_intersect(u, v).dim == 0

    def test_grassmann_dimension_formula(self):
        u = Subspace.from_vectors(QQ, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        v = Subspace.from_vectors(QQ, 4, [[1, 0, 1, 0], [0, 0, 1, 1]])
        s = subspace_sum(u, v)
        i = subspace_intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert i.contains({0: 1, 2: 1})

    def test_membership(self):
        u = Subspace.from_vectors(QQ, 3, [[1, 2, 0], [0, 0, 1]])
        assert u.contains({0: 2, 1: 4, 2: 5})
        assert not u.contains({0: 1})

    def test_quotient_coords(self):
        w = Subspace.full(QQ, 3)
        u = Subspace.from_vectors(QQ, 3, [[1, 1, 0]])
        rows = Subspace.from_vectors(QQ, 3, complement(u, w))
        assert rows.dim == 2
        # w mod U lies in the complement's span, and is zero exactly on U
        assert u.reduce({0: 1, 1: 1}) == {} and u.reduce({0: 2, 1: 2}) == {}
        residue = u.reduce({0: 1})
        assert residue and rows.contains(residue)

    def test_quotient_coords_not_contained(self):
        w = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        u = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
        with pytest.raises(NotContained):
            complement(u, w)

    def test_dimension_mismatch(self):
        u = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        v = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]])
        with pytest.raises(DimensionMismatch):
            subspace_sum(u, v)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrices(draw, max_dim=5):
    """Dense rows of an m x n integer matrix."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def row_space(rows, field=QQ):
    return Subspace.from_vectors(field, len(rows[0]), rows)


class TestProperties:
    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, rows):
        s = row_space(rows)
        assert Subspace.from_vectors(QQ, s.ambient_dim, s.sparse_rows()) == s

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_and_column_rank_agree(self, rows):
        cols = columns(rows)
        assert row_space(rows).dim == Subspace.from_vectors(QQ, len(rows), cols).dim

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows):
        n = len(rows[0])
        assert kernel_columns(QQ, columns(rows)).dim + row_space(rows).dim == n

    @given(small_matrices())
    @settings(max_examples=40, deadline=None)
    def test_subspace_sum_commutes(self, rows):
        n = len(rows[0])
        half = len(rows) // 2
        u = Subspace.from_vectors(QQ, n, rows[:half] or [[0] * n])
        v = Subspace.from_vectors(QQ, n, rows[half:] or [[0] * n])
        assert subspace_sum(u, v) == subspace_sum(v, u)

    def test_modular_consistency(self):
        # integer matrices whose rank over Q is known; rank agrees mod 3, 5, 7
        cases = [
            # row3 = row1 + row2, and the upper-left 2x2 minor is 1
            ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2),
            ([[1, 0], [0, 1]], 2),
            ([[2, 4], [1, 2]], 1),
            ([[1, 1, 1, 1]], 1),
            ([[1, 2], [3, 4]], 2),
        ]
        for rows, expected in cases:
            assert row_space(rows).dim == expected
            for p in (3, 5, 7):
                assert row_space(rows, PrimeField(p)).dim == expected

    def test_inverse(self):
        b = columns([[2, 1], [1, 1]])
        inv = inverse_columns(QQ, b)
        assert is_identity(QQ, product(QQ, b, inv))
        assert is_identity(QQ, product(QQ, inv, b))


FIELDS = [QQ, PrimeField(101)]


def combine(field, coeffs, rows, n):
    """sum of c * row over dense or sparse rows, as a dense tuple."""
    out = [field.zero] * n
    for c, row in zip(coeffs, rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        for j, x in items:
            out[j] = field.add(out[j], field.mul(field.coerce(c), field.coerce(x)))
    return tuple(out)


@st.composite
def nested_subspaces(draw, max_dim=6):
    """(field, n, U, W) with U inside W, U spanned by random combinations of W's rows."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_dim))
    vec = st.lists(small_entries, min_size=n, max_size=n)
    w_rows = draw(st.lists(vec, max_size=n + 1))
    u_coeffs = draw(st.lists(st.lists(small_entries, min_size=len(w_rows),
                                      max_size=len(w_rows)), max_size=n))
    u_rows = [combine(field, c, w_rows, n) for c in u_coeffs]
    return (field, n, Subspace.from_vectors(field, n, u_rows),
            Subspace.from_vectors(field, n, w_rows))


class TestQuotientProperties:
    @given(nested_subspaces())
    @settings(max_examples=80, deadline=None)
    def test_complement_and_u_form_a_basis_of_w(self, case):
        field, n, u, w = case
        rows = complement(u, w) + u.sparse_rows()
        assert len(rows) == w.dim
        assert Subspace.from_vectors(field, n, rows) == w

    @given(nested_subspaces(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reduce_residue(self, case, data):
        field, n, u, _ = case
        v = dict(enumerate(field.coerce(x) for x in
                           data.draw(st.lists(small_entries, min_size=n, max_size=n))))
        residue = u.reduce(v)
        assert not set(residue) & set(u.pivots)
        assert all(residue.values())
        diff = {j: field.sub(x, residue.get(j, field.zero)) for j, x in v.items()}
        assert u.contains(diff)


@st.composite
def square_matrices(draw, max_dim=5):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return field, n, rows


class TestInverseProperties:
    @given(square_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_invertible(self, case, data):
        field, n, rows = case
        # unit lower triangular times upper triangular with a unit-free diagonal
        diag = data.draw(st.lists(st.sampled_from([1, -1, 2, -3, 5]),
                                  min_size=n, max_size=n))
        lower = [[1 if i == j else (x if j < i else 0) for j, x in enumerate(r)]
                 for i, r in enumerate(rows)]
        upper = [[diag[i] if i == j else (x if j > i else 0) for j, x in enumerate(r)]
                 for i, r in enumerate(rows)]
        b = product(field, columns(lower, field), columns(upper, field))
        assert is_identity(field, product(field, b, inverse_columns(field, b)))

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_deficient_inverse_raises(self, case):
        field, n, rows = case
        # the last row becomes a combination of the others
        rows[-1] = list(combine(field, rows[-1][:n - 1], rows[:n - 1], n))
        with pytest.raises(LinalgError):
            inverse_columns(field, columns(rows, field))

    def test_entry_outside_the_square_raises(self):
        with pytest.raises(DimensionMismatch):
            inverse_columns(QQ, [{0: 1}, {2: 1}])


class TestKernelColumns:
    """kernel_columns on seeded random maps, with integer row keys and with
    (block, index) row keys: every kernel row maps to zero, and
    dim ker + rank = number of columns."""

    @pytest.mark.parametrize("tuple_keys", [False, True], ids=["int-keys", "tuple-keys"])
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_random_maps(self, field, tuple_keys):
        rng = random.Random(41)
        ranks = set()
        for _ in range(80):
            nrows, ncols = rng.randint(1, 7), rng.randint(0, 7)
            # columns in the span of r random vectors, so ranks below
            # min(nrows, ncols) are common
            r = rng.randint(0, min(nrows, ncols))
            span = [{k: c for k in range(nrows) if (c := field.from_int(rng.randint(-3, 3)))}
                    for _ in range(r)]
            cols = [apply_columns(field, span, {t: field.from_int(rng.randint(-2, 2))
                                                for t in range(r)})
                    for _ in range(ncols)]
            if tuple_keys:
                cols = [{(k % 2, k // 2): c for k, c in col.items()} for col in cols]
            ker = kernel_columns(field, cols)
            assert ker.ambient_dim == ncols
            for v in ker.sparse_rows():
                assert apply_columns(field, cols, v) == {}
            rank = column_rank(field, cols)
            assert ker.dim + rank == ncols
            ranks.add((rank, ncols))
        assert len(ranks) > 15
