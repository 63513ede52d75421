from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecap.linalg import (
    QQ,
    DimensionMismatch,
    LinalgError,
    Matrix,
    NotContained,
    PrimeField,
    Subspace,
    complement,
    inverse_columns,
    kernel,
    rref,
    subspace_intersect,
    subspace_sum,
)


def mat(rows, field=QQ):
    return Matrix(field, rows, ncols=len(rows[0]) if rows else 0)


def inverse(m):
    """The inverse of a square dense Matrix, through inverse_columns."""
    cols = [{i: x for i, x in enumerate(m.column(j)) if x} for j in range(m.ncols)]
    inv = inverse_columns(m.field, cols)
    return Matrix.from_columns(m.field, [[c.get(i, m.field.zero) for i in range(m.nrows)]
                                         for c in inv], m.nrows)


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


class TestRref:
    def test_identity(self):
        m = Matrix.identity(QQ, 3)
        r, pivots, rk = rref(m)
        assert r == m and rk == 3 and pivots == (0, 1, 2)

    def test_zero(self):
        m = Matrix.zeros(QQ, 2, 4)
        r, pivots, rk = rref(m)
        assert r == m and rk == 0 and pivots == ()

    def test_rank_one(self):
        # hand row reduction: second row is twice the first
        m = mat([[1, 2], [2, 4]])
        r, pivots, rk = rref(m)
        assert r == mat([[1, 2], [0, 0]])
        assert rk == 1 and pivots == (0,)

    def test_fractions_normalized(self):
        m = mat([[2, 4, 2], [1, 3, 5]])
        r, _, rk = rref(m)
        assert rk == 2
        # unit pivots, back substituted
        assert r.rows[0][0] == 1 and r.rows[1][1] == 1
        assert r.rows[0][1] == 0


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel(Matrix.identity(QQ, 4)).dim == 0

    def test_zero_map_full_kernel(self):
        k = kernel(Matrix.zeros(QQ, 3, 5))
        assert k.dim == 5 and k == Subspace.full(QQ, 5)

    def test_kernel_vectors_annihilate(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        k = kernel(m)
        assert k.dim == 1
        for v in k.basis_vectors():
            assert all(x == 0 for x in m.apply(v))


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
        assert i.contains([1, 0, 1, 0])

    def test_membership(self):
        u = Subspace.from_vectors(QQ, 3, [[1, 2, 0], [0, 0, 1]])
        assert u.contains([2, 4, 5])
        assert not u.contains([1, 0, 0])

    def test_quotient_coords(self):
        w = Subspace.full(QQ, 3)
        u = Subspace.from_vectors(QQ, 3, [[1, 1, 0]])
        rows = Subspace.from_vectors(QQ, 3, complement(u, w))
        assert rows.dim == 2
        # w mod U lies in the complement's span, and is zero exactly on U
        assert u.reduce([1, 1, 0]) == {} and u.reduce([2, 2, 0]) == {}
        residue = u.reduce([1, 0, 0])
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
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return mat(rows)


class TestProperties:
    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, m):
        r1, _, _ = rref(m)
        r2, _, _ = rref(r1)
        assert r1 == r2

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_and_column_rank_agree(self, m):
        assert rref(m)[2] == rref(m.transpose())[2]

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert kernel(m).dim + rref(m)[2] == m.ncols

    @given(small_matrices())
    @settings(max_examples=40, deadline=None)
    def test_subspace_sum_commutes(self, m):
        rows = [list(r) for r in m.rows]
        half = len(rows) // 2
        u = Subspace.from_vectors(QQ, m.ncols, rows[:half] or [[0] * m.ncols])
        v = Subspace.from_vectors(QQ, m.ncols, rows[half:] or [[0] * m.ncols])
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
            assert rref(mat(rows))[2] == expected
            for p in (3, 5, 7):
                F = PrimeField(p)
                assert rref(mat(rows, field=F))[2] == expected

    def test_inverse(self):
        m = mat([[2, 1], [1, 1]])
        inv = inverse(m)
        assert m @ inv == Matrix.identity(QQ, 2)
        assert inv @ m == Matrix.identity(QQ, 2)


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
        v = [field.coerce(x) for x in
             data.draw(st.lists(small_entries, min_size=n, max_size=n))]
        residue = u.reduce(v)
        assert not set(residue) & set(u.pivots)
        assert all(residue.values())
        diff = [field.sub(x, residue.get(j, field.zero)) for j, x in enumerate(v)]
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
        m = mat(lower, field) @ mat(upper, field)
        assert m @ inverse(m) == Matrix.identity(field, n)

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_deficient_inverse_raises(self, case):
        field, n, rows = case
        # the last row becomes a combination of the others
        rows[-1] = list(combine(field, rows[-1][:n - 1], rows[:n - 1], n))
        with pytest.raises(LinalgError):
            inverse(mat(rows, field))

    def test_entry_outside_the_square_raises(self):
        with pytest.raises(DimensionMismatch):
            inverse_columns(QQ, [{0: 1}, {2: 1}])
