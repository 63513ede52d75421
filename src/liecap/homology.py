"""Second homology of a Lie algebra from the exterior-power boundary maps.

The complex in low degrees is

    Lambda^3 L --d3--> Lambda^2 L --d2--> L

with d2(x ^ y) = [x, y] and d3(x ^ y ^ z) = [x,y]^z - [x,z]^y + [y,z]^x;
d2 . d3 vanishing is a rewrite of the Jacobi identity.  The multiplier is
ker d2 / im d3, reported with an explicit basis so maps induced by central
quotients can be written down as coordinate columns.

Every map into or out of Lambda^2 L is built sparse from the bracket table
in the coordinates of ``ExteriorBasis``; the dense ``ce_d2`` and ``ce_d3``
are an independent reference for the tests.

The same image presents the nonabelian exterior square: L ^ L is
Lambda^2 L / im d3 with bracket [a, b] = d2(a) ^ d2(b) (Ellis, "A
non-abelian tensor product of Lie algebras", Glasgow Math. J., 1991).  The
exterior center Z^(L) and the tensor square L x L = (L ^ L) + A(diagonal)
follow from it without a free algebra.
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
)
from .catalog import abelian_algebra
from .linalg import (
    Echelon,
    Matrix,
    QuotientCoords,
    Subspace,
    apply_columns,
    kernel_from_rows,
)


class NotCentral(Exception):
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
    f = algebra.field
    i, j, k = triple
    out = {}
    for (a, b, c, sign) in ((i, j, k, 1), (i, k, j, -1), (j, k, i, 1)):
        row = algebra.bracket_basis(a, b)
        for m, cm in row.items():
            _wedge_entry(f, out, index, m, c, cm if sign > 0 else f.neg(cm))
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
    """dim and a basis for ker d2 modulo im d3, in Lambda^2 coordinates.

    The basis is the RREF rows of ker d2 at the pivots that im d3 lacks, so
    it spans a complement of im d3 inside ker d2 and is fixed by the
    lexicographic Lambda^2 order; induced-map matrices are reproducible.
    ``quotient`` gives coordinates on it.  The multiplier is an abelian Lie
    algebra of this dimension.  The squares and the exterior center are read
    off the same im d3.
    """

    dim: int
    basis: Subspace
    image: Subspace   # im d3
    cycles: Subspace  # ker d2
    quotient: QuotientCoords  # ker d2 / im d3
    algebra: LieAlgebra

    @cached_property
    def _square(self):
        alg = self.algebra
        ext = ExteriorBasis(alg.dim)
        pivots = set(self.image.pivots)
        kept = [t for t in range(len(ext.pairs)) if t not in pivots]
        pos = {t: a for a, t in enumerate(kept)}
        d2 = [alg.bracket_basis(*ext.pairs[t]) for t in kept]
        live = [a for a in range(len(kept)) if d2[a]]
        brackets = {}
        for x, a in enumerate(live):
            for b in live[x + 1:]:
                residue = self.image.reduce(_wedge(alg.field, ext.index, d2[a], d2[b]))
                brackets[(a, b)] = {pos[t]: c for t, c in residue.items()}
        return LieAlgebra(alg.field, len(kept), brackets)

    def exterior_square(self):
        """L ^ L on the pairs that are not pivots of im d3, in pair order,
        with [a, b] = d2(a) ^ d2(b) mod im d3."""
        return self._square

    def exterior_center(self):
        """Z^(L), the kernel of l -> (l ^ e_j mod im d3) over all j."""
        alg = self.algebra
        f = alg.field
        rows = {}
        for t, (i, j) in enumerate(ExteriorBasis(alg.dim).pairs):
            # l ^ e_j takes l_i (e_i ^ e_j); l ^ e_i takes -l_j (e_i ^ e_j)
            for s, c in self.image.reduce({t: f.one}).items():
                rows.setdefault((j, s), {})[i] = c
                rows.setdefault((i, s), {})[j] = f.neg(c)
        space = kernel_from_rows(f, alg.dim, rows.values())
        assert center(alg).space.contains_subspace(space)
        return IdealSubspace(alg, space)

    def tensor_square(self):
        """L x L = (L ^ L) + diagonal ideal; the diagonal part is abelian."""
        diag = abelian_algebra(diagonal_square_dim(self.algebra), self.algebra.field)
        return direct_sum(self._square, diag)


def _d2_kernel(algebra, ext):
    """ker d2, with one functional per output coordinate of the table."""
    rows = {}
    for (i, j), row in algebra.table.items():
        t = ext.index[(i, j)]
        for k, c in row.items():
            rows.setdefault(k, {})[t] = c
    return kernel_from_rows(algebra.field, len(ext.pairs), rows.values())


def _d3_image(algebra, ext):
    vecs = [_d3_column(algebra, ext.index, t) for t in combinations(range(algebra.dim), 3)]
    return Subspace._from_sparse(algebra.field, len(ext.pairs), vecs)


def schur_multiplier(algebra):
    ext = ExteriorBasis(algebra.dim)
    cycles = _d2_kernel(algebra, ext)
    image = _d3_image(algebra, ext)
    # raises NotContained unless d2 . d3 = 0
    quotient = QuotientCoords(image, cycles)
    basis = Subspace(algebra.field, cycles.ambient_dim, tuple(quotient.complement),
                     quotient.pivots, _internal=True)
    return MultiplierResult(quotient.dim, basis, image, cycles, quotient, algebra)


def multiplier_dim(algebra):
    return schur_multiplier(algebra).dim


def diagonal_square_dim(algebra):
    """dim of the diagonal ideal: (n - m)(n - m + 1)/2 for m = dim L^2."""
    n = algebra.dim
    m = derived_subalgebra(algebra).dim
    return (n - m) * (n - m + 1) // 2


def _lambda2_map(linear_map):
    """Columns of Lambda^2 of a linear map, as sparse target coordinates."""
    index = ExteriorBasis(linear_map.target.dim).index
    cols = linear_map.columns
    return [_wedge(linear_map.target.field, index, cols[i], cols[j])
            for i, j in combinations(range(len(cols)), 2)]


def induced_multiplier_map(algebra, ideal):
    """Coordinate columns of M(L) -> M(L/N) for a central ideal N.

    Column s is the image of the s-th multiplier basis vector of L, as a
    tuple of coordinates on the multiplier basis of L/N; the kernel
    dimension does not depend on either basis choice.
    """
    space = ideal.space if isinstance(ideal, IdealSubspace) else ideal
    if not center(algebra).space.contains_subspace(space):
        raise NotCentral("ideal is not central")
    q, proj = quotient(algebra, space)
    m_q = schur_multiplier(q)
    lam2 = _lambda2_map(proj)
    # a cycle maps to a cycle; NotContained here would mean it did not
    return [m_q.quotient.coords(apply_columns(algebra.field, lam2, v))
            for v in schur_multiplier(algebra).basis.sparse_rows()]


def induced_map_injective(algebra, ideal):
    cols = induced_multiplier_map(algebra, ideal)
    ech = Echelon(algebra.field, len(cols[0]) if cols else 0)
    return all(ech.add(dict(enumerate(c))) for c in cols)


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
