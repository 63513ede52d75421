import pytest

from liecap import homology
from liecap.algebra import LieAlgebra
from liecap.homology import ExteriorBasis, ce_d3
from liecap.linalg import QQ, Echelon, kernel_from_rows


@pytest.fixture
def d3_calls(monkeypatch):
    """The triples of every d3 column built while the test runs."""
    calls = []
    column = homology._d3_column

    def counted(algebra, index, triple):
        calls.append(triple)
        return column(algebra, index, triple)
    monkeypatch.setattr(homology, "_d3_column", counted)
    return calls


def solvable_algebra(field=QQ):
    """[x1, x2] = x2, [x1, x3] = x3: Jacobi holds, not nilpotent, and the
    support walk has the triple (x1, x2, x3)."""
    one = field.one
    return LieAlgebra(field, 3, {(0, 1): {1: one}, (0, 2): {2: one}})


def echelon_rref(field, n, vectors):
    """(pivots, RREF rows) of the span of sparse vectors, by plain Echelon
    elimination of every vector: the reference for the peeled RREF that
    every Subspace and kernel is built by."""
    ech = Echelon(field, n)
    for v in vectors:
        ech.add(dict(v))
    return ech.pivots(), tuple(row for _, row in ech.rows())


def central_extension(algebra, kdim, rng):
    """Random central extension by A(kdim) via a random 2-cocycle.

    Cocycles are combinations of a kernel basis of the transposed degree-3
    boundary map, which is exactly the condition for the extended table to
    satisfy the Jacobi identity.  Works over the algebra's field.
    """
    field = algebra.field
    m = ce_d3(algebra)
    rows = [{i: v for i, v in enumerate(m.column(j)) if v} for j in range(m.ncols)]
    cocycles = kernel_from_rows(field, m.nrows, rows).sparse_rows()
    ext = ExteriorBasis.for_dim(algebra.dim)
    brackets = {ij: dict(row) for ij, row in algebra.table.items()}
    for s in range(kdim):
        f = {}
        for r in cocycles:
            c = rng.randint(-2, 2)
            if c:
                for col, v in r.items():
                    f[col] = field.add(f.get(col, field.zero), field.mul(field.from_int(c), v))
        for t, val in f.items():
            if val:
                i, j = ext.pairs[t]
                row = dict(brackets.get((i, j), {}))
                row[algebra.dim + s] = field.add(row.get(algebra.dim + s, field.zero), val)
                brackets[(i, j)] = row
    return LieAlgebra(field, algebra.dim + kdim, brackets)


def random_basis_change(rng, n, field=QQ):
    """Sparse columns of a random permutation times a unit upper-triangular
    matrix U: row i of the product is row perm[i] of U."""
    perm = list(range(n))
    rng.shuffle(perm)
    upper = []
    for i in range(n):
        row = {i: field.one}
        for j in range(i + 1, n):
            row[j] = field.from_int(rng.randint(-2, 2))
        upper.append(row)
    return tuple({i: upper[perm[i]][j] for i in range(n) if upper[perm[i]].get(j)}
                 for j in range(n))


def exterior_center_reference(m):
    """Z^(L) of the MultiplierResult m by the all-pairs formulation: the
    kernel over all of L of l -> (l ^ e_j mod im d3), two functionals per
    Lambda^2 pair, with no use of Z(L).  The reference for
    ``MultiplierResult.exterior_center``."""
    f = m.algebra.field
    residues = {t: {t: f.one} for t in m.kept}
    for p, row in zip(m.image.pivots, m.image.sparse_rows()):
        residues[p] = {s: f.neg(c) for s, c in row.items() if s != p}
    rows = {}
    for t, residue in residues.items():
        # l ^ e_j takes l_i (e_i ^ e_j); l ^ e_i takes -l_j (e_i ^ e_j)
        i, j = m.ext.pairs[t]
        for s, c in residue.items():
            rows.setdefault((j, s), {})[i] = c
            rows.setdefault((i, s), {})[j] = f.neg(c)
    return kernel_from_rows(f, m.algebra.dim, rows.values())
