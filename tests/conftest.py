import pytest

from liecap import homology
from liecap.algebra import (
    LieAlgebra,
    derived_subalgebra,
    lower_central_series,
    quotient,
    subalgebra_on,
)
from liecap.capability import BoundCheck
from liecap.homology import ExteriorBasis, _wedge, ce_d3, schur_multiplier
from liecap.linalg import (
    QQ,
    Echelon,
    Elimination,
    Subspace,
    _prepare,
    _tagged_echelon,
    apply_columns,
    kernel_columns,
    kernel_from_rows,
)


@pytest.fixture
def d3_calls(monkeypatch):
    """The algebra of every im d3 built while the test runs, one entry per
    call of ``homology._im_d3``."""
    calls = []
    im_d3 = homology._im_d3

    def counted(algebra, width):
        calls.append(algebra)
        return im_d3(algebra, width)
    monkeypatch.setattr(homology, "_im_d3", counted)
    return calls


def solvable_algebra(field=QQ):
    """[x1, x2] = x2, [x1, x3] = x3: Jacobi holds, not nilpotent, and d3
    has a nonzero column on the triple (x1, x2, x3)."""
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


def inverse_columns(field, cols):
    """Sparse columns of B^-1, for the square matrix B with sparse columns
    cols: the reference for the coordinates ``transform`` reads off the
    echelon of the columns with no inverse formed.

    The RREF of [B^T | I] is [I | (B^-1)^T], and the row at pivot i, read in
    the tag block, is column i of B^-1.
    """
    n = len(cols)
    return [{t - n: v for t, v in row.items() if t >= n}
            for _, row in _tagged_echelon(field, cols).rows()]


def central_extension(algebra, kdim, rng, denominators=None):
    """Random central extension by A(kdim) via a random 2-cocycle.

    Cocycles are combinations of a kernel basis of the transposed degree-3
    boundary map, which is exactly the condition for the extended table to
    satisfy the Jacobi identity.  Works over the algebra's field.  With
    denominators given, each coefficient of a combination is divided by
    one of them, drawn at random, so the table holds fractions over Q.
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
            c = field.from_int(rng.randint(-2, 2))
            if denominators:
                c = field.div(c, field.from_int(rng.choice(denominators)))
            if c:
                for col, v in r.items():
                    f[col] = field.add(f.get(col, field.zero), field.mul(c, v))
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


def exterior_square_reference(m):
    """L ^ L of the MultiplierResult m by the pairwise formulation: for every
    pair of live kept pairs a < b, d2(a) ^ d2(b) reduced mod im d3, with no
    use of L^2.  The reference for ``MultiplierResult.exterior_square``."""
    alg = m.algebra
    pos = {t: a for a, t in enumerate(m.kept)}
    d2 = [alg.bracket_basis(*m.ext.pairs[t]) for t in m.kept]
    live = [a for a in range(len(m.kept)) if d2[a]]
    brackets = {}
    for x, a in enumerate(live):
        for b in live[x + 1:]:
            residue = m.image.reduce(_wedge(alg.field, m.ext.base, d2[a], d2[b]))
            brackets[(a, b)] = {pos[t]: c for t, c in residue.items()}
    return LieAlgebra(alg.field, len(m.kept), brackets)


def intersection_reference(u, v):
    """U cap V as a Subspace: the points a U of the coefficient vectors
    (a, b) in the kernel of the stacked bases [U; V], so a U = -b V.  The
    reference for dim(U cap V) = dim U + dim V - dim(U + V)."""
    urows = u.sparse_rows()
    ker = kernel_columns(u.field, urows + v.sparse_rows())
    points = [apply_columns(u.field, urows, {i: a for i, a in k.items() if i < len(urows)})
              for k in ker.sparse_rows()]
    return Subspace.from_vectors(u.field, u.ambient_dim, points)


def two_pass_kernel(field, width, rows):
    """The kernel of stacked row functionals by two eliminations: the RREF of
    the rows in their own column order, then the RREF of the kernel vectors
    read off it.  The reference for the one-pass ``kernel_from_rows``."""
    pivots, prows = Elimination(field, width, (_prepare(field, r) for r in rows)).rref()
    pivot_set = set(pivots)
    basis = {f: {f: field.one} for f in range(width) if f not in pivot_set}
    for p, row in zip(pivots, prows):
        for f, c in row.items():
            if f != p:
                basis[f][p] = field.neg(c)
    return Subspace._from_sparse(field, width, basis.values())


def theorem2_reference(algebra):
    """``theorem2_bound_check`` as first formulated: L^2/Z^(L) built as the
    quotient of the subalgebra L^2 by the coordinates of Z^(L) in it, and
    L/Z^(L) always built as a quotient, with every multiplier computed
    afresh.  The reference for the shared formulation."""
    if algebra.is_abelian():
        return BoundCheck("skipped", reason="abelian")
    if algebra.dim < 3:
        return BoundCheck("skipped", reason="dimension below 3")
    der = derived_subalgebra(algebra)
    if lower_central_series(algebra)[-1].dim != 0:
        return BoundCheck("skipped", reason="not nilpotent")
    multiplier = schur_multiplier(algebra)
    zw = multiplier.exterior_center()
    dsub, _ = subalgebra_on(algebra, der)
    inner = Subspace.from_vectors(
        algebra.field, dsub.dim,
        [der.coords(v) for v in zw.sparse_rows()])
    dq, _ = quotient(dsub, inner)
    if dq.dim > 0 and schur_multiplier(dq).exterior_center().dim > 0:
        return BoundCheck("skipped", reason="L^2/Z^(L) not capable")
    lhs = schur_multiplier(multiplier.exterior_square()).exterior_center().dim
    lbar, _ = quotient(algebra, zw)
    rhs = schur_multiplier(lbar).dim
    return BoundCheck("checked", lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def generalized_heisenberg(rng, v, r, field=QQ):
    """A random rank-r generalized Heisenberg algebra V + Z, dim V = v and
    dim Z = r: [x_a, x_b] = sum of B_k(a, b) z_k over r alternating forms
    B_k on V, drawn until they are independent and have no common radical.
    Then L^2 = Z = Z(L), and the class is 2."""
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    if not 1 <= r <= len(pairs) or v < 2:
        raise ValueError(f"no rank-{r} forms on a space of dim {v}")
    while True:
        forms = [{ab: c for ab in pairs if (c := field.from_int(rng.randint(-2, 2)))}
                 for _ in range(r)]
        # the forms as vectors of Lambda^2 V, and x -> (B_k(x, .))_k as columns
        independent = Subspace.from_vectors(
            field, len(pairs), [{pairs.index(ab): c for ab, c in b.items()} for b in forms])
        radical = [{} for _ in range(v)]
        for k, b in enumerate(forms):
            for (a, c), x in b.items():
                radical[a][(k, c)] = x
                radical[c][(k, a)] = field.neg(x)
        if independent.dim == r and kernel_columns(field, radical).dim == 0:
            break
    table = {}
    for k, b in enumerate(forms):
        for ab, x in b.items():
            table.setdefault(ab, {})[v + k] = x
    return LieAlgebra(field, v + r, table)
