"""Second homology of a Lie algebra from the exterior-power boundary maps.

The complex in low degrees is

    Lambda^3 L --d3--> Lambda^2 L --d2--> L

with d2(x ^ y) = [x, y] and d3(x ^ y ^ z) = [x,y]^z - [x,z]^y + [y,z]^x;
d2 . d3 vanishing is a rewrite of the Jacobi identity, and it is checked on
every d3 column whenever the complex is built.  Each of the three terms of
d3(x_i ^ x_j ^ x_k) carries one bracket of two of its indices, so only the
columns of ``algebra.support_triples`` are built: every other column is
zero, adds nothing to im d3 and passes the check trivially.  A column is
read straight off ``algebra.table``.

The canonical RREF of im d3 peels its structural pivots before any row
reduction (``linalg._rref``): a column with a single nonzero entry is a
unit row, and its pair is struck from the other columns until no new
singleton appears.  Most of im d3 is found this way on free nilpotent
algebras, and all of it on H(m), so ``Echelon`` reduces only the rest.

One object carries every invariant: L ^ L = Lambda^2 L / im d3, with
bracket [a, b] = d2(a) ^ d2(b) (Ellis, "A non-abelian tensor product of Lie
algebras", Glasgow Math. J., 1991).  Its basis is the pairs that are not
pivots of im d3.  d2 maps it onto L^2, and the multiplier M(L) is the kernel
of d2 on those pairs, so dim M(L) = dim L ^ L - dim L^2 needs no kernel at
all.  The exterior center Z^(L) and the tensor square
L x L = (L ^ L) + A(diagonal) follow from the same image without a free
algebra.

Every map into or out of Lambda^2 L is built sparse from the bracket table
in the coordinates of ``ExteriorBasis``; the dense ``ce_d2`` and ``ce_d3``
are an independent reference for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .algebra import (
    IdealSubspace,
    LieAlgebra,
    center,
    derived_subalgebra,
    direct_sum,
    quotient,
    support_triples,
)
from .catalog import abelian_algebra
from .linalg import (
    LiecapError,
    Matrix,
    NotContained,
    Subspace,
    apply_columns,
    kernel_columns,
    kernel_from_rows,
)


class NotCentral(LiecapError):
    pass


class ExteriorBasis:
    """Lexicographic coordinates on Lambda^2 of F^n: ``index`` maps each of
    the ``pairs`` i < j to its coordinate; ``triples`` are listed on request."""

    def __init__(self, n):
        self.n = n
        self.pairs = tuple(combinations(range(n), 2))
        self.index = {p: t for t, p in enumerate(self.pairs)}

    @classmethod
    def for_dim(cls, n):
        return cls(n)

    @property
    def triples(self):
        return tuple(combinations(range(self.n), 3))


def _wedge_entry(field, out, index, a, b, coeff):
    """Accumulate coeff * (e_a ^ e_b) into sparse Lambda^2 coords."""
    if a == b or not coeff:
        return
    if a > b:
        a, b = b, a
        coeff = field.neg(coeff)
    idx = index[(a, b)]
    nv = field.add(out.get(idx, field.zero), coeff)
    if nv:
        out[idx] = nv
    else:
        out.pop(idx, None)


def _wedge(field, index, u, v):
    """u ^ v of two sparse L-vectors, in sparse Lambda^2 coords."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            _wedge_entry(field, out, index, i, j, field.mul(a, b))
    return out


def ce_d2(algebra):
    """Matrix of Lambda^2 L -> L, e_i ^ e_j -> [e_i, e_j]."""
    cols = []
    z = algebra.field.zero
    for (i, j) in ExteriorBasis(algebra.dim).pairs:
        row = algebra.bracket_basis(i, j)
        cols.append(tuple(row.get(k, z) for k in range(algebra.dim)))
    return Matrix.from_columns(algebra.field, cols, algebra.dim)


def _d3_column(algebra, index, triple):
    """d3(e_i ^ e_j ^ e_k) for i < j < k, in sparse Lambda^2 coords."""
    f = algebra.field
    add, neg = f.add, f.neg
    table = algebra.table
    i, j, k = triple
    out = {}
    # the table holds [e_a, e_b] for a < b, which each of the three pairs is
    for a, b, c, negate in ((i, j, k, False), (i, k, j, True), (j, k, i, False)):
        row = table.get((a, b))
        if not row:
            continue
        for m, cm in row.items():
            # e_m ^ e_c = -(e_c ^ e_m), and e_c ^ e_c = 0
            if m < c:
                t = index[(m, c)]
                x = neg(cm) if negate else cm
            elif m > c:
                t = index[(c, m)]
                x = cm if negate else neg(cm)
            else:
                continue
            if t in out:
                nv = add(out[t], x)
                if nv:
                    out[t] = nv
                else:
                    del out[t]
            else:
                out[t] = x
    return out


def ce_d3(algebra):
    """Matrix of Lambda^3 L -> Lambda^2 L; satisfies d2 @ d3 = 0 exactly."""
    ext = ExteriorBasis(algebra.dim)
    z = algebra.field.zero
    cols = []
    for triple in ext.triples:
        col = _d3_column(algebra, ext.index, triple)
        cols.append(tuple(col.get(t, z) for t in range(len(ext.pairs))))
    return Matrix.from_columns(algebra.field, cols, len(ext.pairs))


@dataclass(frozen=True)
class MultiplierResult:
    """im d3 of an algebra, and the invariants read off it.

    The pairs that are not pivots of im d3 (``kept``) are a basis of
    L ^ L = Lambda^2 L / im d3.  M(L) is the kernel of d2 on them, so its
    dim is len(kept) - dim L^2; ``basis`` is that kernel in RREF, in
    Lambda^2 coordinates, built only when asked for.  It is fixed by the
    lexicographic Lambda^2 order, so induced-map matrices are reproducible.
    The multiplier is an abelian Lie algebra of this dimension.  The squares
    and the exterior center are read off the same im d3.
    """

    image: Subspace   # im d3
    algebra: LieAlgebra
    ext: ExteriorBasis  # the Lambda^2 coordinates of image
    derived: IdealSubspace  # L^2

    @cached_property
    def kept(self):
        """Ascending Lambda^2 coordinates that are not pivots of im d3."""
        pivots = set(self.image.pivots)
        return tuple(t for t in range(self.image.ambient_dim) if t not in pivots)

    @cached_property
    def dim(self):
        return len(self.kept) - self.derived.dim

    @property
    def diagonal_dim(self):
        """dim of the diagonal ideal of L x L; see ``diagonal_square_dim``."""
        return diagonal_square_dim(self.algebra, self.derived)

    @cached_property
    def basis(self):
        # ker d2 on the kept pairs; kept is ascending, so the RREF rows stay
        # RREF when read back in Lambda^2 coordinates
        alg = self.algebra
        pairs = self.ext.pairs
        ker = kernel_columns(alg.field, [alg.bracket_basis(*pairs[t]) for t in self.kept])
        basis = Subspace(alg.field, self.image.ambient_dim,
                         tuple({self.kept[a]: c for a, c in r.items()} for r in ker.sparse_rows()),
                         tuple(self.kept[a] for a in ker.pivots), _internal=True)
        assert basis.dim == self.dim
        return basis

    @cached_property
    def _square(self):
        alg = self.algebra
        ext = self.ext
        pos = {t: a for a, t in enumerate(self.kept)}
        d2 = [alg.bracket_basis(*ext.pairs[t]) for t in self.kept]
        live = [a for a in range(len(self.kept)) if d2[a]]
        brackets = {}
        for x, a in enumerate(live):
            for b in live[x + 1:]:
                residue = self.image.reduce(_wedge(alg.field, ext.index, d2[a], d2[b]))
                brackets[(a, b)] = {pos[t]: c for t, c in residue.items()}
        return LieAlgebra(alg.field, len(self.kept), brackets)

    def exterior_square(self):
        """L ^ L on the pairs that are not pivots of im d3, in pair order,
        with [a, b] = d2(a) ^ d2(b) mod im d3."""
        return self._square

    def exterior_center(self):
        """Z^(L), the kernel of l -> (l ^ e_j mod im d3) over all j.

        The residue of a pair mod im d3 is read off the RREF of im d3: a
        kept pair is its own residue, and a pivot pair t is minus its row
        with the unit entry at t removed.
        """
        alg = self.algebra
        f = alg.field
        neg = f.neg
        residues = {t: {t: f.one} for t in self.kept}
        for p, row in zip(self.image.pivots, self.image.sparse_rows()):
            residues[p] = {s: neg(c) for s, c in row.items() if s != p}
        rows = {}
        pairs = self.ext.pairs
        for t, residue in residues.items():
            # l ^ e_j takes l_i (e_i ^ e_j); l ^ e_i takes -l_j (e_i ^ e_j)
            i, j = pairs[t]
            for s, c in residue.items():
                rows.setdefault((j, s), {})[i] = c
                rows.setdefault((i, s), {})[j] = neg(c)
        space = kernel_from_rows(f, alg.dim, rows.values())
        assert center(alg).space.contains_subspace(space)
        return IdealSubspace(alg, space)

    def tensor_square(self):
        """L x L = (L ^ L) + diagonal ideal; the diagonal part is abelian."""
        diag = abelian_algebra(self.diagonal_dim, self.algebra.field)
        return direct_sum(self._square, diag)


def schur_multiplier(algebra, derived=None):
    """im d3 of algebra and the invariants read off it; derived is L^2 when
    the caller has it already."""
    ext = ExteriorBasis(algebra.dim)
    field = algebra.field
    d2 = [algebra.bracket_basis(i, j) for i, j in ext.pairs]
    d3 = [_d3_column(algebra, ext.index, t) for t in support_triples(algebra)]
    for col in d3:
        if apply_columns(field, d2, col):
            raise NotContained("d2 . d3 is not zero: the bracket violates Jacobi")
    if derived is None:
        derived = derived_subalgebra(algebra)
    return MultiplierResult(Subspace._from_sparse(field, len(ext.pairs), d3), algebra, ext,
                            derived)


def multiplier_dim(algebra):
    return schur_multiplier(algebra).dim


def diagonal_square_dim(algebra, derived=None):
    """dim of the diagonal ideal: (n - m)(n - m + 1)/2 for m = dim L^2;
    derived is L^2 when the caller has it already."""
    n = algebra.dim
    m = (derived_subalgebra(algebra) if derived is None else derived).dim
    return (n - m) * (n - m + 1) // 2


def _lambda2_map(linear_map, index):
    """Columns of Lambda^2 of a linear map, as sparse target coordinates;
    index is the target's ``ExteriorBasis.index``."""
    cols = linear_map.columns
    return [_wedge(linear_map.target.field, index, cols[i], cols[j])
            for i, j in combinations(range(len(cols)), 2)]


def induced_multiplier_map(algebra, ideal):
    """Sparse columns of M(L) -> M(L/N) for a central ideal N.

    Column s is the image of the s-th multiplier basis vector of L, as sparse
    coordinates on the multiplier basis of L/N; the kernel dimension does not
    depend on either basis choice.
    """
    space = ideal.space if isinstance(ideal, IdealSubspace) else ideal
    if not center(algebra).space.contains_subspace(space):
        raise NotCentral("ideal is not central")
    q, proj = quotient(algebra, space)
    m_q = schur_multiplier(q)
    lam2 = _lambda2_map(proj, m_q.ext.index)
    # a cycle maps to a cycle; NotContained here would mean it did not
    return [m_q.basis.coords(m_q.image.reduce(apply_columns(algebra.field, lam2, v)))
            for v in schur_multiplier(algebra).basis.sparse_rows()]


def induced_map_injective(algebra, ideal):
    return kernel_columns(algebra.field, induced_multiplier_map(algebra, ideal)).dim == 0


def kunneth_exterior_dim(h, k):
    """dim of (H + K) ^ (H + K) from the summand squares and abelianizations.

    The square dims come from the homology route: dim X^X = dim M(X) + dim X^2.
    """
    dh = derived_subalgebra(h).dim
    dk = derived_subalgebra(k).dim
    wedge_h = multiplier_dim(h) + dh
    wedge_k = multiplier_dim(k) + dk
    return wedge_h + wedge_k + (h.dim - dh) * (k.dim - dk)


def kunneth_tensor_dim(h, k):
    """Four-term analogue: summand tensor squares plus both cross terms."""
    dh = derived_subalgebra(h).dim
    dk = derived_subalgebra(k).dim
    tensor_h = multiplier_dim(h) + dh + (h.dim - dh) * (h.dim - dh + 1) // 2
    tensor_k = multiplier_dim(k) + dk + (k.dim - dk) * (k.dim - dk + 1) // 2
    return tensor_h + tensor_k + 2 * (h.dim - dh) * (k.dim - dk)
