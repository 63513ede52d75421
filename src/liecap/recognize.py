"""Identify computed algebras against the candidate output shapes.

Recognition targets the three families that occur as exterior or tensor
squares in dimensions up to six: A(k), H(m) + A(k), and L5_8 + A(k).
Recognition is constructive: a basis of the input is built, and the label
is returned only once the map from the model onto that basis is certified
an isomorphism, bijective (its columns have full rank) and bracket
preserving.  Everything else gets a canonical invariant fingerprint.

Both split shapes have class 2, and they are split in one place.  In class
2, L^2 lies in Z(L).  Let W be spanned by the unit vectors at the
non-pivots of Z(L), so that L = W + Z(L).  The core is W + L^2, and A(k)
is the complement of L^2 in Z(L), with k = dim Z(L) - dim L^2.  The core
is H(m) when dim L^2 = 1, with 2m = dim W, and L5_8 when dim L^2 = 2 and
dim W = 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraMap,
    center,
    centralizer,
    derived_subalgebra,
    direct_sum,
    lower_central_series,
    upper_central_series,
)
from .catalog import abelian_algebra, heisenberg_algebra, indexed_key, build
from .homology import schur_multiplier
from .linalg import (
    Elimination,
    Subspace,
    _prepare,
    apply_columns,
    complement,
    kernel_columns,
    subspace_sum,
)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant profile used for fallback identification.

    Every field is basis-independent: dimensions of the lower and upper
    central series, of the derived subalgebra and its central part, of the
    centralizers of the lower central terms, and of the multiplier.
    """

    dim: int
    lcs_dims: tuple
    ucs_dims: tuple
    derived_dim: int
    center_dim: int
    derived_cap_center: int
    centralizer_dims: tuple
    multiplier_dim: int

    def plus_abelian(self, d):
        """The fingerprint of W + A(d), for W the algebra of this one.

        The A(d) block adds d to L, to every upper central term, to the
        center and to every centralizer, and leaves L^k for k >= 2 and L^2
        as they are.  The multiplier follows Kunneth:
        M(W + A(d)) = M(W) + d(d-1)/2 + d dim(W/W^2).
        """
        return Fingerprint(
            dim=self.dim + d,
            lcs_dims=(self.lcs_dims[0] + d, *self.lcs_dims[1:]),
            ucs_dims=tuple(x + d for x in self.ucs_dims),
            derived_dim=self.derived_dim,
            center_dim=self.center_dim + d,
            derived_cap_center=self.derived_cap_center,
            centralizer_dims=tuple(x + d for x in self.centralizer_dims),
            multiplier_dim=(self.multiplier_dim + d * (d - 1) // 2
                            + d * (self.dim - self.derived_dim)),
        )

    def __str__(self):
        lcs = ",".join(str(d) for d in self.lcs_dims)
        ucs = ",".join(str(d) for d in self.ucs_dims)
        cents = ",".join(str(d) for d in self.centralizer_dims)
        return (f"dim={self.dim};lcs={lcs};ucs={ucs};der={self.derived_dim};"
                f"z={self.center_dim};derz={self.derived_cap_center};"
                f"cent={cents};m={self.multiplier_dim}")


def fingerprint(algebra):
    """The invariant profile."""
    lcs = lower_central_series(algebra)
    der = derived_subalgebra(algebra)
    z = center(algebra)
    cents = tuple(centralizer(algebra, g).dim for g in lcs[1:])
    # dim(L^2 cap Z) = dim L^2 + dim Z - dim(L^2 + Z), from one elimination
    return Fingerprint(
        dim=algebra.dim,
        lcs_dims=tuple(g.dim for g in lcs),
        ucs_dims=tuple(s.dim for s in upper_central_series(algebra)),
        derived_dim=der.dim,
        center_dim=z.dim,
        derived_cap_center=der.dim + z.dim - subspace_sum(der, z).dim,
        centralizer_dims=cents,
        multiplier_dim=schur_multiplier(algebra).dim,
    )


@dataclass(frozen=True)
class IsoType:
    """Recognized label: A(k), H(m)+A(k), L5_8+A(k), or a fingerprint.

    For a split sum, ``basis`` is the sparse columns of an isomorphism
    from the model onto the algebra, so ``transform`` takes the algebra on
    them to the model table exactly.
    """

    kind: str                   # "abelian" | "heisenberg_sum" | "l58_sum" | "unrecognized"
    m: int = 0
    k: int = 0
    fp: Fingerprint = None
    basis: tuple = None

    def label(self):
        if self.kind == "abelian":
            return f"A({self.k})"
        if self.kind == "heisenberg_sum":
            return f"H({self.m})" + (f"+A({self.k})" if self.k else "")
        if self.kind == "l58_sum":
            return "L5_8" + (f"+A({self.k})" if self.k else "")
        return f"UNRECOGNIZED[{self.fp}]"

    def plus_abelian(self, d):
        """The label of W + A(d), for W the algebra recognized as this one.

        A split basis gains the unit columns of the A(d) block, which
        follows W's coordinates as in ``direct_sum``.
        """
        if self.kind == "unrecognized":
            return IsoType(self.kind, fp=self.fp.plus_abelian(d))
        basis = self.basis
        if basis is not None:
            n = len(basis)
            # 1 is the unit of Q and of GF(p) alike
            basis = (*basis, *({n + t: 1} for t in range(d)))
        return IsoType(self.kind, m=self.m, k=self.k + d, basis=basis)

    def __str__(self):
        return self.label()


def heisenberg_sum_model(m, k, field):
    alg = heisenberg_algebra(m, field)
    if k:
        alg = direct_sum(alg, abelian_algebra(k, field))
    return alg


def l58_sum_model(k, field):
    alg = build(indexed_key(5, 8), field).algebra
    if k:
        alg = direct_sum(alg, abelian_algebra(k, field))
    return alg


def _symplectic_core(algebra, w_rows, der):
    """u_1, v_1, ..., u_m, v_m, z for dim L^2 = 1: a symplectic basis of W
    for the form beta with [u, v] = beta(u, v) z, z the RREF row of L^2.

    The form's radical is Z(L), and W meets Z(L) in zero, so beta is
    nondegenerate on W.
    """
    f = algebra.field
    z_vec = der.sparse_rows()[0]
    z_pivot = der.pivots[0]

    def beta(u, v):
        # z_vec is an RREF row, so its entry at z_pivot is 1
        return algebra.bracket_sparse(u, v).get(z_pivot, f.zero)

    rem = list(w_rows)
    core = []
    while rem:
        u = rem.pop(0)
        partner = next((idx for idx, v in enumerate(rem) if beta(u, v)), None)
        assert partner is not None, "radical vector escaped the center"
        v = rem.pop(partner)
        c = beta(u, v)
        v = {i: f.div(x, c) for i, x in v.items()}
        # w - beta(u,w) v + beta(v,w) u
        rem = [apply_columns(f, (w, v, u), {0: f.one, 1: f.neg(beta(u, w)), 2: beta(v, w)})
               for w in rem]
        core += (u, v)
    return (*core, z_vec)


def _l58_core(algebra, w_rows, der):
    """v1, v2, v3, z4, z5 for dim L^2 = 2 and dim W = 3, with the relations
    of L5_8: [v1,v2] = z4, [v1,v3] = z5, [v2,v3] = 0.

    The bracket maps the 3-dim second exterior power of W onto L^2, so its
    kernel is a line; that line is spanned by a decomposable bivector
    a ^ b (its alternating matrix has rank two and its column space is
    span(a, b)), so (v1, a, b) with v1 outside span(a, b) realizes the
    relations.
    """
    f = algebra.field
    # kernel line of Lambda^2(W) -> L^2, in the coordinates of L^2
    ker = kernel_columns(f, [der.coords(algebra.bracket_sparse(w_rows[i], w_rows[j]))
                             for i, j in ((0, 1), (0, 2), (1, 2))])
    kappa = ker.sparse_rows()[0]
    k12 = kappa.get(0, f.zero)
    k13 = kappa.get(1, f.zero)
    k23 = kappa.get(2, f.zero)
    # the columns of the alternating matrix of kappa
    col_space = Subspace.from_vectors(f, 3, [{1: f.neg(k12), 2: f.neg(k13)},
                                             {0: k12, 2: f.neg(k23)},
                                             {0: k13, 1: k23}])
    # col_space is a plane, so some unit vector of W lies outside it
    v1 = next(w_rows[i] for i in range(3) if not col_space.contains({i: f.one}))
    v2, v3 = (apply_columns(f, w_rows, c) for c in col_space.sparse_rows())
    return (v1, v2, v3, algebra.bracket_sparse(v1, v2), algebra.bracket_sparse(v1, v3))


def _is_isomorphism(model, algebra, basis):
    """Whether the map from the model onto the algebra with the sparse
    columns basis is an isomorphism: the columns have rank n, checked by
    one elimination, and the map preserves brackets.  No inverse and no
    table on the new basis is formed."""
    f, n = algebra.field, algebra.dim
    if not len(basis) == model.dim == n:
        return False
    if Elimination(f, n, (_prepare(f, b) for b in basis)).rank != n:
        return False
    return AlgebraMap(model, algebra, basis).is_bracket_preserving()


def _class_two_split(algebra):
    """The class-2 split of the module docstring as an ``IsoType`` with its
    basis, once the map from the model onto that basis is an isomorphism;
    None when the core is neither H(m) nor L5_8."""
    f = algebra.field
    der = derived_subalgebra(algebra)
    zspace = center(algebra)
    z_pivots = set(zspace.pivots)
    w_rows = [{i: f.one} for i in range(algebra.dim) if i not in z_pivots]
    k = zspace.dim - der.dim
    if der.dim == 1:
        kind, m = "heisenberg_sum", len(w_rows) // 2
        core = _symplectic_core(algebra, w_rows, der)
        model = heisenberg_sum_model(m, k, f)
    elif der.dim == 2 and len(w_rows) == 3:
        kind, m = "l58_sum", 0
        core = _l58_core(algebra, w_rows, der)
        model = l58_sum_model(k, f)
    else:
        return None
    basis = (*core, *complement(der, zspace))
    if not _is_isomorphism(model, algebra, basis):
        return None
    return IsoType(kind, m=m, k=k, basis=basis)


def recognize(algebra):
    """Match against A(k), H(m)+A(k), L5_8+A(k); fingerprint otherwise.

    Every step reads the lower central series, L^2 and Z(L) off the
    algebra, which computes each once.
    """
    if algebra.is_abelian():
        return IsoType("abelian", k=algebra.dim)
    lcs = lower_central_series(algebra)
    if lcs[-1].dim == 0 and len(lcs) - 1 == 2:
        hit = _class_two_split(algebra)
        if hit is not None:
            return hit
    return IsoType("unrecognized", fp=fingerprint(algebra))
