import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from conftest import (
    central_extension,
    echelon_rref,
    gauss_jordan_rref,
    intersection_reference,
    inverse_columns,
    random_basis_change,
    two_pass_kernel,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecap import covers, linalg
from liecap.algebra import transform
from liecap.homology import schur_multiplier
from liecap.linalg import (
    QQ,
    DimensionMismatch,
    Echelon,
    Elimination,
    LinalgError,
    NotContained,
    PrimeField,
    Subspace,
    accumulate,
    apply_columns,
    basis_coordinates,
    complement,
    kernel_columns,
    kernel_from_rows,
    subspace_sum,
    _clear_int,
    _clear_mod,
    _prepare,
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
        assert QQ.add(QQ.add(a, b), QQ.neg(b)) == a
        assert QQ.div(QQ.mul(a, b), b) == a

    def test_prime_field_exactness(self):
        F = PrimeField(7)
        for a in range(7):
            for b in range(1, 7):
                assert F.add(F.add(a, b), F.neg(b)) == a
                assert F.div(F.mul(a, b), b) == a

    def test_prime_field_rejects_bad_p(self):
        for p in (2, 4, 9, 15, 1):
            with pytest.raises(ValueError):
                PrimeField(p)

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
                                  (QQ.add(a, QQ.neg(b)), Fraction(a) - b),
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
        assert s == Subspace.from_vectors(QQ, 4, []) and s.dim == 0 and s.pivots == ()

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


    def test_back_substitution_leaves_content(self):
        # each second row is subtracted once from the first, with a = 1:
        # [2, 1, 3] - [0, 1, -1] = [2, 0, 4] and [4, 1, 1] - [0, 1, -1] =
        # [4, 0, 2], both of content 2, which the division by the pivot
        # entry takes out: rows x1 + 2x3 and x1 + x3/2
        for first, want in (({0: 2, 1: 1, 2: 3}, {0: 1, 2: 2}),
                            ({0: 4, 1: 1, 2: 1}, {0: 1, 2: Fraction(1, 2)})):
            ech = Echelon(QQ, 3)
            ech.add(first)
            ech.add({1: 1, 2: -1})
            rows = ech.rows()
            assert rows == [(0, want), (1, {1: 1, 2: -1})]
            assert all(is_canonical(x) and type(x) is type(want[c])
                       for c, x in rows[0][1].items())
            assert Subspace.from_vectors(QQ, 3, [first, {1: 1, 2: -1}]).sparse_rows() == [
                want, {1: 1, 2: -1}]


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
    def test_sum_same(self):
        u = Subspace.from_vectors(QQ, 3, [[1, 0, 2], [0, 1, 1]])
        assert subspace_sum(u, u) == u

    def test_complementary_planes(self):
        u = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = Subspace.from_vectors(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert subspace_sum(u, v).dim == 4

    def test_skew_line_example(self):
        # U = span(e1+e2), V = span(e2): hand computation gives
        # dim(U+V) = 2
        u = Subspace.from_vectors(QQ, 2, [[1, 1]])
        v = Subspace.from_vectors(QQ, 2, [[0, 1]])
        assert subspace_sum(u, v).dim == 2

    def test_grassmann_dimension_formula(self):
        # dim(U cap V) = dim U + dim V - dim(U + V), the formula fingerprint
        # reads derived_cap_center by, against U cap V built as a kernel
        u = Subspace.from_vectors(QQ, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        v = Subspace.from_vectors(QQ, 4, [[1, 0, 1, 0], [0, 0, 1, 1]])
        i = intersection_reference(u, v)
        assert u.dim + v.dim - subspace_sum(u, v).dim == i.dim == 1
        assert i.contains({0: 1, 2: 1})
        rng = random.Random(43)
        for field in PEEL_FIELDS:
            for _ in range(40):
                n = rng.randint(1, 6)
                u, v = (Subspace.from_vectors(field, n, [
                    {k: field.from_int(rng.randint(-1, 1)) for k in range(n)}
                    for _ in range(rng.randint(0, n))]) for _ in range(2))
                i = intersection_reference(u, v)
                assert u.dim + v.dim - subspace_sum(u, v).dim == i.dim
                assert u.contains_subspace(i) and v.contains_subspace(i)

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
        # a vector that does not fit the ambient space, as a sequence or a dict
        for vectors in ([[1, 0]], [{5: 1}], [{-1: 1, 0: 1}]):
            with pytest.raises(DimensionMismatch):
                Subspace.from_vectors(QQ, 3, vectors)


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


@st.composite
def clearing_steps(draw):
    """(row, held, col): integer sparse rows over 0..n-1, both nonzero at
    col, and held zero before col, as a held row is zero left of its pivot."""
    n = draw(st.integers(1, 6))
    col = draw(st.integers(0, n - 1))
    entries = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    nonzero = st.integers(-12, 12).filter(bool)
    row = {c: x for c, x in enumerate(draw(entries)) if x}
    held = {c: x for c, x in enumerate(draw(entries)) if x and c > col}
    row[col], held[col] = draw(nonzero), draw(nonzero)
    return n, row, held, col


def multiple_of(out, ref):
    """The scalar s with out = s * ref for the dense reference ref, or None."""
    k = next((k for k, x in enumerate(ref) if x), None)
    s = Fraction(out.get(k, 0), ref[k]) if k is not None else Fraction(1)
    return s if all(out.get(c, 0) == s * x for c, x in enumerate(ref)) else None


class TestClearingSteps:
    """``_clear_int`` and ``_clear_mod``, the one step per field by which
    ``Echelon`` inserts and back-substitutes, against Fraction arithmetic."""

    @given(clearing_steps())
    @settings(max_examples=200, deadline=None)
    def test_clear_int(self, case):
        n, row, held, col = case
        factor = Fraction(row[col], held[col])
        ref = [row.get(c, 0) - factor * held.get(c, 0) for c in range(n)]
        out = _clear_int(dict(row), held, col)
        assert col not in out and all(type(x) is int and x for x in out.values())
        s = multiple_of(out, ref)
        assert s is not None and bool(out) == any(ref)
        # a positive multiple when the held row leads positive, as a stored row does
        assert s * held[col] > 0 or not out
        a = held[col] // gcd(held[col], row[col])
        if a == 1:
            assert s == 1
        elif out:
            assert gcd(*out.values()) == 1

    @pytest.mark.parametrize("p", [3, 101])
    @given(case=clearing_steps())
    @settings(max_examples=100, deadline=None)
    def test_clear_mod(self, p, case):
        n, row, held, col = case
        row = {c: y for c, x in row.items() if (y := x % p)}
        held = {c: y for c, x in held.items() if (y := x % p)}
        assume(col in row and col in held)
        inv = pow(held[col], p - 2, p)
        held = {c: x * inv % p for c, x in held.items()}  # stored with the lead 1
        out = _clear_mod(row, held, col, p)
        want = {c: y for c in range(n)
                if (y := (row.get(c, 0) - row[col] * held.get(c, 0)) % p)}
        assert out == want and col not in out

    @staticmethod
    def back_substitution_leads(rows, n):
        """The pivot entry of the row after each back-substitution step over Q."""
        ech = Echelon(QQ, n)
        for r in rows:
            ech.add({j: x for j, x in enumerate(r) if x})
        leads = []
        clear = linalg._clear_int

        def step(row, held, col):
            out = clear(row, held, col)
            leads.append(out[min(out)])
            return out
        with mock.patch.object(linalg, "_clear_int", step):
            ech.finalize()
        return leads

    def test_back_substitution_scales_the_pivot(self):
        # 2*(x1 + x2) - (2x2 + x3) = 2x1 - x3: a = 2 scales the pivot entry
        assert self.back_substitution_leads([[1, 1, 0], [0, 2, 1]], 3) == [2]

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_back_substitution_keeps_positive_pivots(self, rows):
        # held rows lead positive, so no step needs a sign flip
        assert all(x > 0 for x in self.back_substitution_leads(rows, len(rows[0])))


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
        diff = {j: field.add(x, field.neg(residue.get(j, field.zero))) for j, x in v.items()}
        assert u.contains(diff)


@st.composite
def square_matrices(draw, max_dim=5, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return field, n, rows


def invertible_columns(data, field, n, rows):
    """Unit lower triangular times upper triangular with a unit-free
    diagonal, nonzero in the field, as sparse columns."""
    diag = data.draw(st.lists(st.sampled_from([d for d in (1, -1, 2, -3, 5) if field.coerce(d)]),
                              min_size=n, max_size=n))
    lower = [[1 if i == j else (x if j < i else 0) for j, x in enumerate(r)]
             for i, r in enumerate(rows)]
    upper = [[diag[i] if i == j else (x if j > i else 0) for j, x in enumerate(r)]
             for i, r in enumerate(rows)]
    return product(field, columns(lower, field), columns(upper, field))


class TestInverseProperties:
    @given(square_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_invertible(self, case, data):
        field, n, rows = case
        b = invertible_columns(data, field, n, rows)
        assert is_identity(field, product(field, b, inverse_columns(field, b)))

    @given(square_matrices(fields=FIELDS + [PrimeField(3)]), st.data())
    @settings(max_examples=90, deadline=None)
    def test_basis_coordinates_apply_the_inverse(self, case, data):
        # the coordinates read off the unfinished echelon are B^-1 v, in
        # canonical scalars, and a column's own are a unit; a v with
        # rational entries starts the scale column above 1 over Q
        field, n, rows = case
        b = invertible_columns(data, field, n, rows)
        coords = basis_coordinates(field, b)
        inv = inverse_columns(field, b)
        entries = st.one_of(small_entries, st.builds(Fraction, small_entries, st.integers(2, 7)))
        if field.char:
            entries = entries.filter(lambda x: x.denominator % field.char)
        vs = [{j: c for j, x in enumerate(data.draw(st.lists(entries, min_size=n, max_size=n)))
               if (c := field.coerce(x))} for _ in range(2)]
        for w in [{t: field.one} for t in range(n)] + vs:
            got = coords(w)
            assert got == apply_columns(field, inv, w)
            assert all(c and type(c) is type(field.coerce(c)) for c in got.values())
        for a, col in enumerate(b):
            assert coords(col) == {a: field.one}

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_deficient_inverse_raises(self, case):
        field, n, rows = case
        # the last row becomes a combination of the others
        rows[-1] = list(combine(field, rows[-1][:n - 1], rows[:n - 1], n))
        with pytest.raises(LinalgError):
            inverse_columns(field, columns(rows, field))
        with pytest.raises(LinalgError):
            basis_coordinates(field, columns(rows, field))

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


PEEL_FIELDS = [QQ, PrimeField(3), PrimeField(101)]


def raw_values(field):
    """Scalars as callers may pass them: over Q ints, zeros and Fractions
    (some of denominator 1), over GF(p) ints of any size, multiples of p
    among them."""
    if field.char == 0:
        return st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=5),
                         st.integers(-4, 4).map(lambda a: Fraction(a, 1)))
    p = field.p
    return st.one_of(st.integers(-2 * p, 2 * p), st.sampled_from([0, p, -p, 2 * p, p + 1]))


def nonzero_values(field):
    """Raw scalars that are nonzero in the field: ints >= p over GF(p) too."""
    if field.char == 0:
        return st.one_of(st.integers(1, 4), st.integers(-4, -1),
                         st.fractions(min_value=1, max_value=3, max_denominator=5))
    p = field.p
    return st.integers(1, 3 * p).filter(lambda a: a % p).map(lambda a: a if a % 2 else -a)


@st.composite
def peel_cases(draw):
    """(field, n, vectors): a chain of singletons that takes one peeling
    round per link (at least three), plus random vectors with raw entries,
    duplicates and zero vectors, in a random order."""
    field = draw(st.sampled_from(PEEL_FIELDS))
    n = draw(st.integers(3, 9))
    cols = draw(st.permutations(range(n)))
    nonzero = nonzero_values(field)
    length = draw(st.integers(3, n))
    # link r becomes a singleton only once cols[r - 1] is a unit column
    vecs = [{cols[0]: draw(nonzero)}]
    vecs += [{cols[r - 1]: draw(nonzero), cols[r]: draw(nonzero)} for r in range(1, length)]
    vecs += draw(st.lists(st.dictionaries(st.integers(0, n - 1), raw_values(field), max_size=n),
                          max_size=5))
    vecs += [dict(v) for v in draw(st.lists(st.sampled_from(vecs), max_size=3))]
    vecs += [{}, {cols[-1]: 0}, {cols[0]: field.char, cols[-1]: 0}]
    return field, n, draw(st.permutations(vecs))


def reference_kernel(field, n, rows):
    """The kernel basis read off the plain Echelon RREF, in RREF itself."""
    pivots, prows = echelon_rref(field, n, rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            vec = {f: field.one}
            for p, row in zip(pivots, prows):
                if row.get(f):
                    vec[p] = field.neg(row[f])
            basis.append(vec)
    return echelon_rref(field, n, basis)


class TestPeeledRref:
    """Subspaces and kernels come from the RREF that peels structural
    pivots first; it equals plain Echelon elimination of every vector."""

    @staticmethod
    def held(space):
        return space.pivots, tuple(space.sparse_rows())

    @given(peel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_echelon(self, case):
        field, n, vecs = case
        want = echelon_rref(field, n, vecs)
        # Elimination takes canonical nonzero values in dicts it may strike
        fresh = [{j: y for j, x in v.items() if (y := field.coerce(x))} for v in vecs]
        for space in (Subspace.from_vectors(field, n, vecs), Subspace._from_sparse(field, n, vecs),
                      Elimination(field, n, fresh).subspace()):
            assert self.held(space) == want
            # == takes Fraction(1, 1) for 1, so the scalar types are checked apart
            assert all(type(x) is int if field.char else is_canonical(x)
                       for r in space.sparse_rows() for x in r.values())

    @given(peel_cases())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_plain_echelon(self, case):
        field, n, vecs = case
        ker = kernel_from_rows(field, n, vecs)
        assert self.held(ker) == reference_kernel(field, n, vecs)
        coerced = [{j: field.coerce(x) for j, x in v.items()} for v in vecs]
        for v in ker.sparse_rows():
            assert all(not field.coerce(sum(x * v.get(j, 0) for j, x in r.items()))
                       for r in coerced)

    @staticmethod
    def assert_primitive(ech):
        """Every row held before ``finalize`` leads at its pivot and is, over
        Q, a primitive integer vector with a positive lead, over GF(p) one
        with lead 1; a combine that skips the gcd relies on this."""
        assert not ech._final
        for pivot, row in ech._rows.items():
            assert min(row) == pivot and all(row.values())
            if ech.field.char:
                assert row[pivot] == 1
            else:
                assert all(type(x) is int for x in row.values())
                assert row[pivot] > 0 and gcd(*row.values()) == 1

    @given(peel_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_rref(self, case, data):
        # the residue read off the unit columns and the echelon rows equals
        # the one read off the RREF, entry for entry and in the same order
        field, n, vecs = case
        fresh = [{j: y for j, x in v.items() if (y := field.coerce(x))} for v in vecs]
        span = Elimination(field, n, fresh)
        probes = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), raw_values(field),
                                                    max_size=n), max_size=6))
        got = [list(span.reduce(v).items()) for v in probes]
        space = span.subspace()
        assert got == [list(space.reduce(v).items()) for v in probes]

    @given(peel_cases())
    @settings(max_examples=150, deadline=None)
    def test_held_rows_are_primitive(self, case):
        field, n, vecs = case
        fresh = [{j: y for j, x in v.items() if (y := field.coerce(x))} for v in vecs]
        self.assert_primitive(Elimination(field, n, fresh).echelon)

    def test_held_rows_of_im_d3_are_primitive(self):
        # F(2,4) extended by A(4) with Fractions in the table, as given and
        # after a basis change that fills the table, so that many rows meet
        # in Echelon over Q
        rng = random.Random(29)
        F = covers.free_nilpotent(2, 4).algebra_over(QQ)
        held = 0
        for trial in range(3):
            E = central_extension(F, 4, rng, denominators=(1, 2, 3, 4))
            assert any(type(x) is not int for row in E.table.values() for x in row.values())
            for L in (E, transform(E, random_basis_change(rng, E.dim))):
                ech = schur_multiplier(L).span.echelon
                self.assert_primitive(ech)
                held += ech.rank
        assert held

    def test_fresh_rational_vectors_are_scaled(self):
        # a sum of table entries can be a Fraction with denominator 1
        vecs = [{0: Fraction(1, 2), 1: 1}, {1: Fraction(2, 1), 2: 4}, {0: 1, 1: 2}]
        want = echelon_rref(QQ, 3, vecs)
        space = Elimination(QQ, 3, [dict(v) for v in vecs]).subspace()
        assert self.held(space) == want
        assert all(type(x) is int for r in space.sparse_rows() for x in r.values())

    @pytest.fixture
    def added(self, monkeypatch):
        """The rows that reach the Echelon elimination, in order: the
        prepared rows that ``Echelon._insert`` row-reduces."""
        rows = []
        insert = Echelon._insert

        def counted(self, row):
            rows.append(row)
            return insert(self, row)
        monkeypatch.setattr(Echelon, "_insert", counted)
        return rows

    @pytest.mark.parametrize("field", PEEL_FIELDS, ids=repr)
    def test_chains_need_no_elimination(self, field, added):
        n = 12
        # five rounds: 7, then 6, 5, 4, 3; the others never become singletons
        chain = [{7: 2}, {7: 1, 6: 4}, {6: 1, 5: 1}, {5: 3, 4: 1}, {4: 1, 3: 5}]
        rest = [{0: 1, 1: 1}, {1: 1, 2: 1, 3: 1}]
        vecs = chain[::-1] + [{}, {9: 0}] + chain[:2] + rest
        space = Subspace.from_vectors(field, n, vecs)
        # only the rest, struck of the unit column 3, reaches Echelon
        assert added == [{0: 1, 1: 1}, {1: 1, 2: 1}]
        assert self.held(space) == echelon_rref(field, n, vecs)
        assert {3, 4, 5, 6, 7} <= set(space.pivots)

    @pytest.mark.parametrize("field", PEEL_FIELDS, ids=repr)
    def test_stops_at_full_rank(self, field, added):
        rng = random.Random(12)
        n = 6
        # J - I is invertible over Q, GF(3) and GF(101) (det -5), and has no
        # singleton row; 40 more rows without zero entries follow it
        rows = [{j: field.one for j in range(n) if j != i} for i in range(n)]
        rows += [{j: field.from_int(rng.randint(1, 2)) for j in range(n)} for _ in range(40)]
        assert kernel_from_rows(field, n, rows) == Subspace.from_vectors(field, n, [])
        assert Subspace.from_vectors(field, n, rows) == Subspace.full(field, n)
        # each of the first n rows raises the rank, and no row follows them;
        # the kernel eliminates its rows in reversed column order
        reversed_rows = [{n - 1 - j: x for j, x in r.items()} for r in rows[:n]]
        assert added == reversed_rows + rows[:n]


@st.composite
def rational_cases(draw):
    """Vectors over Q in F^n, with ints up to 9 and Fractions among their
    entries, so that the held integer rows lead above 1, and probes of the
    same kind."""
    n = draw(st.integers(2, 7))
    value = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    vector = st.dictionaries(st.integers(0, n - 1), value, max_size=n)
    return n, draw(st.lists(vector, min_size=1, max_size=n + 2)), draw(st.lists(vector, max_size=4))


def typed(rows):
    """Sparse rows with each scalar paired with its type: == takes
    Fraction(1, 1) for 1, and a canonical Q scalar is an int."""
    return [{c: (type(x), x) for c, x in r.items()} for r in rows]


class TestGaussJordanReference:
    """Over Q the echelon keeps integer rows through the back-substitution
    and divides only when its RREF is read.  That RREF, the peeled RREF,
    the residues and the one-pass kernel equal dense Gauss-Jordan
    elimination on Fractions (``conftest.gauss_jordan_rref``), which shares
    no code with ``linalg``: entry for entry, scalar type included."""

    @given(rational_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_gauss_jordan(self, case):
        n, vecs, probes = case
        pivots, rows = gauss_jordan_rref(n, vecs)
        ech = Echelon(QQ, n)
        for v in vecs:
            ech.add(v)
        # a lead above 1 is what the integer rows carry and RREF rows do not
        assume(any(row[t] > 1 for t, row in ech.reduced_rows().items()))
        got = ech.rows()
        assert tuple(t for t, _ in got) == pivots
        assert typed(r for _, r in got) == typed(rows)
        span = Elimination(QQ, n, [_prepare(QQ, v) for v in vecs])
        assert span.rref()[0] == pivots
        assert typed(span.rref()[1]) == typed(rows)
        for v in probes:
            # v less v[p] times the RREF row at p, for each pivot p
            want = {j: Fraction(x) for j, x in v.items() if x}
            for p, row in zip(pivots, rows):
                c = want.get(p, 0)
                for j, x in row.items():
                    want[j] = want.get(j, 0) - c * x
            want = {j: x.numerator if x.denominator == 1 else x for j, x in want.items() if x}
            # Echelon.reduce takes canonical values, as Elimination.reduce
            # hands them over
            canonical = {j: QQ.coerce(x) for j, x in v.items()}
            assert typed([span.reduce(v)]) == typed([ech.reduce(canonical)]) == typed([want])
        # the kernel vector of a free column f is e_f less row_p[f] e_p
        basis = [{f: 1, **{p: -row[f] for p, row in zip(pivots, rows) if f in row}}
                 for f in range(n) if f not in pivots]
        want_pivots, want_rows = gauss_jordan_rref(n, basis)
        ker = kernel_from_rows(QQ, n, vecs)
        assert ker.pivots == want_pivots
        assert typed(ker.sparse_rows()) == typed(want_rows)


@st.composite
def kernel_cases(draw):
    """(field, width, rows): raw rows over columns 0..width-1, widths 0 and
    1 among them, with zero and duplicate rows, and sometimes a full-rank
    block of unit upper-triangular rows mixed in."""
    field = draw(st.sampled_from(PEEL_FIELDS))
    width = draw(st.integers(0, 8))
    cols = st.integers(0, width - 1) if width else st.nothing()
    rows = draw(st.lists(st.dictionaries(cols, raw_values(field), max_size=width), max_size=8))
    rows += [dict(r) for r in draw(st.lists(st.sampled_from(rows), max_size=3))] if rows else []
    rows += [{}] + ([{width - 1: 0}] if width else [])
    if draw(st.booleans()):
        rows += [{c: draw(nonzero_values(field)) if c == a else draw(raw_values(field))
                  for c in range(a, width)} for a in range(width)]
    return field, width, draw(st.permutations(rows))


class TestOnePassKernel:
    """kernel_from_rows eliminates once, in reversed column order, and reads
    the kernel's RREF straight off; it equals the kernel eliminated a second
    time from its basis vectors."""

    @given(kernel_cases(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_two_pass_reference(self, case, lazy):
        field, width, rows = case
        want = two_pass_kernel(field, width, rows)
        # the rows may come one at a time, as exterior_center generates them
        given_rows = (dict(r) for r in rows) if lazy else rows
        got = kernel_from_rows(field, width, given_rows)
        assert (got.pivots, got.sparse_rows()) == (want.pivots, want.sparse_rows())
        assert all(type(x) is int if field.char else is_canonical(x)
                   for r in got.sparse_rows() for x in r.values())
        # the rows are left as they were given
        assert rows == case[2]

    @pytest.mark.parametrize("field", PEEL_FIELDS, ids=repr)
    def test_builds_no_unit_row(self, field, monkeypatch):
        # a unit row {P: 1} has no entry at a free column, so the kernel reads
        # the echelon rows alone, and a span of full rank not even those
        n = 6
        units = [{j: field.from_int((-1) ** j)} for j in range(n)]
        # J - I, invertible over Q, GF(3) and GF(101) (det -5), all echelon rows
        echelon = [{j: field.one for j in range(n) if j != i} for i in range(n)]
        mixed = [{0: field.one}, {1: field.one, 2: field.one}, {3: field.one, 4: field.one}]
        want = two_pass_kernel(field, n, mixed)

        def refuse(*args):
            raise AssertionError("a row dict was built")
        monkeypatch.setattr(Elimination, "rref", refuse)
        zero = Subspace(field, n, (), (), _internal=True)
        with monkeypatch.context() as patch:
            patch.setattr(Echelon, "finalize", refuse)
            patch.setattr(Echelon, "rows", refuse)
            assert kernel_from_rows(field, n, units) == zero
            assert kernel_from_rows(field, n, echelon) == zero
        assert kernel_from_rows(field, n, mixed) == want and want.dim == 3

    @pytest.mark.parametrize("field", PEEL_FIELDS, ids=repr)
    def test_widths_zero_and_one(self, field):
        assert kernel_from_rows(field, 0, [{}, {}]) == Subspace.from_vectors(field, 0, [])
        assert kernel_from_rows(field, 1, [{0: 0}]) == Subspace.full(field, 1)
        assert kernel_from_rows(field, 1, [{0: 2}, {}]) == Subspace.from_vectors(field, 1, [])


class TestLift:
    """The images of an RREF coefficient basis under RREF rows are already
    the RREF of their span."""

    @given(st.sampled_from(PEEL_FIELDS), st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_span_of_images(self, field, n, data):
        vecs = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), raw_values(field),
                                                  max_size=n), max_size=n))
        space = Subspace.from_vectors(field, n, vecs)
        coeffs = Subspace.from_vectors(field, space.dim, data.draw(st.lists(
            st.dictionaries(st.integers(0, max(space.dim - 1, 0)), raw_values(field),
                            max_size=space.dim), max_size=space.dim + 1)) if space.dim else [])
        lifted = coeffs.lift(space)
        images = [apply_columns(field, space.sparse_rows(), a) for a in coeffs.sparse_rows()]
        want = Subspace.from_vectors(field, n, images)
        assert (lifted.pivots, lifted.sparse_rows()) == (want.pivots, want.sparse_rows())
        assert all(type(x) is int if field.char else is_canonical(x)
                   for r in lifted.sparse_rows() for x in r.values())

    def test_integral_sums_are_ints(self):
        # 1/2 + 2 * 1/4 sums to the int 1, not Fraction(1, 1)
        space = Subspace.from_vectors(QQ, 3, [{0: 1, 2: Fraction(1, 2)},
                                              {1: 1, 2: Fraction(1, 4)}])
        lifted = Subspace.from_vectors(QQ, 2, [{0: 1, 1: 2}]).lift(space)
        assert lifted.sparse_rows() == [{0: 1, 1: 2, 2: 1}]
        assert all(type(x) is int for x in lifted.sparse_rows()[0].values())

    def test_coefficient_count_checked(self):
        space = Subspace.from_vectors(QQ, 3, [{0: 1}, {1: 1}])
        with pytest.raises(DimensionMismatch):
            Subspace.full(QQ, 3).lift(space)


class TestAccumulate:
    """accumulate is the one sparse combination out += c * v, and
    apply_columns is one accumulate per column: both equal dense arithmetic,
    with no entry left that cancelled."""

    @staticmethod
    def sparse(field, data, n):
        raw = data.draw(st.dictionaries(st.integers(0, n - 1), raw_values(field), max_size=n))
        return {k: c for k, x in raw.items() if (c := field.coerce(x))}

    @given(st.sampled_from(PEEL_FIELDS), st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_arithmetic(self, field, n, data):
        out, v = self.sparse(field, data, n), self.sparse(field, data, n)
        c = field.coerce(data.draw(raw_values(field)))
        dense = [field.add(out.get(k, 0), field.mul(c, v.get(k, 0))) for k in range(n)]
        got = dict(out)
        accumulate(field, got, c, v)
        assert got == {k: x for k, x in enumerate(dense) if x}
        assert all(x for x in got.values())
        # adding -c * v back cancels to out, to {} when out was {}
        accumulate(field, got, field.neg(c), v)
        assert got == out
        cols = [self.sparse(field, data, n) for _ in range(n)]
        vec = self.sparse(field, data, n)
        dense = [0] * n
        for i, a in vec.items():
            for k in range(n):
                dense[k] = field.add(dense[k], field.mul(a, cols[i].get(k, 0)))
        assert apply_columns(field, cols, vec) == {k: x for k, x in enumerate(dense) if x}

    @pytest.mark.parametrize("field", PEEL_FIELDS, ids=repr)
    def test_cancels_to_empty(self, field):
        v = {0: field.one, 2: field.from_int(2)}
        out = {0: field.neg(field.from_int(3)), 2: field.neg(field.from_int(6))}
        accumulate(field, out, field.from_int(3), v)
        assert out == {}
        # the columns e_0 + 2 e_2 and -(e_0 + 2 e_2) cancel in their sum
        assert apply_columns(field, [v, {k: field.neg(x) for k, x in v.items()}],
                             {0: field.one, 1: field.one}) == {}
