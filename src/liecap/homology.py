"""Second homology of a Lie algebra from the exterior-power boundary maps.

The complex in low degrees is

    Lambda^3 L --d3--> Lambda^2 L --d2--> L

with d2(x ^ y) = [x, y] and d3(x ^ y ^ z) = [x,y]^z - [x,z]^y + [y,z]^x;
d2 . d3 vanishing is a rewrite of the Jacobi identity.

im d3 comes from one walk over the table (``_im_d3``), by table entry, not
by triple, in two phases.  Each of the three terms of d3(x_i ^ x_j ^ x_k)
carries one bracket of two of its indices, so a triple with no bracketed
pair has a zero column and is never met.  nb[a] holds the b whose pair
{a, b} has a bracket.  For the entry (i, j) with bracket r, the c outside
nb[i] and nb[j], one set difference, are the triples whose one bracketed
pair is (i, j), and the column of each is r ^ e_c up to sign.  The first
phase loops once over the entries and collects:

- the unit columns: when r is a single term x e_m, the column of each
  such c is the unit coordinate of the pair {m, c}, or zero when m = c,
  and all of them join a set in one update, with no vector built;
- the entries whose r has two or more terms, each with its set of c
  less the central coordinates;
- the triples with two or more bracketed pairs, the k other than i and j
  in nb[i] | nb[j], each taken once, from the first of its bracketed
  pairs in the order (a, b) < (a, c) < (b, c).

A central coordinate c, one with no bracket (nb[c] empty), lies in every
entry's set, and d3(e_i ^ e_j ^ e_c) = [e_i, e_j] ^ e_c, so the columns at
c span L^2 ^ e_c.  When some entry has two or more terms, the columns at
each central c are taken from L^2 instead, one per RREF row u of L^2 (the
rows ``MultiplierResult.dim`` reads), not one per entry: u ^ e_c is a unit
column when u is a unit row e_m (given already when an entry is x e_m),
and a vector otherwise.  On a central extension whose entries all have
several terms, the kernel coordinates are central and L^2 is often a
coordinate span, so those columns are units and the peel goes on from
them.  A table of single-term entries is walked without L^2, as its
columns at c are units already.

The second phase builds the other columns as fresh sparse vectors: r ^ e_c
for each multi-term entry and each of its c, u ^ e_c for each row u of L^2
that is not a unit and each central c, and for each shared triple the sum
of its three terms.  No entry is written at a unit column, and a vector
that comes out empty is dropped.  Each unit is itself a d3 column, or
lies in the span of those at its central c, so striking it from the
others changes neither the span nor the pivots.  Every column is read
straight off ``algebra.table``, or off the rows of L^2 scaled to integers
over Q, with plain + and - on the scalars (reduced mod p over GF(p)).

The pair a < b sits at the coordinate base[a] + b, with ``base`` from
``ExteriorBasis``; that is the one coordinate rule on Lambda^2, and no pair
tuple or pair dict is read on any user path.  The units and the vectors go
without a copy to ``linalg.Elimination``, which peels the structural
pivots the struck vectors still hold (a column with a single entry left is
a unit, struck from the others until no new one appears) and row-reduces
only the rest with ``Echelon``.  Most of im d3 is units on free nilpotent
algebras, and all of it on H(m).

d2 . d3 = 0 is checked inside ``schur_multiplier``, on the unit
coordinates and the echelon rows as the elimination leaves them.  The
echelon rows vanish on the unit columns, so together they are a basis of
im d3, as the RREF rows are; d2 is linear, so it kills every d3 column
exactly when it kills a basis of their span.  This holds too when the
elimination stops at full width, where units and rows span all of
Lambda^2.  A unit e_t is killed exactly when pair t has no bracket, so the
units cost one lookup per table entry.  The columns taken from L^2 span
exactly the columns they replace, so the check sees the same span; d2
sends each of them, r ^ e_c or u ^ e_c for a central c, to [., e_c] = 0.

``MultiplierResult`` keeps that elimination as it stands.  Its pivots give
``dim`` and ``kept``.  The squares, the exterior center and the induced
maps read a residue modulo im d3 off the elimination as it stands
(``Elimination.reduce``): a unit column is dropped, and the rest is reduced
by the echelon rows, back-substituted (``Echelon.finalize``) on first use.
Over Q those rows stay integer, each with a positive lead: a residue is
divided only at the end, once per surviving entry, and the exterior center
reads the integer rows themselves, every functional scaled by the one lcm
of their leads, so on an integer table with an integer Z(L) it does no
Fraction arithmetic.  No unit row is built on these paths; the canonical
RREF of im d3 (``image``), one unit row per unit column, is built only
when read.

One object carries every invariant: L ^ L = Lambda^2 L / im d3, with
bracket [a, b] = d2(a) ^ d2(b) (Ellis, "A non-abelian tensor product of Lie
algebras", Glasgow Math. J., 1991).  Its basis is the pairs that are not
pivots of im d3.  d2 maps it onto L^2, and the multiplier M(L) is the kernel
of d2 on those pairs, so dim M(L) = dim L ^ L - dim L^2 needs no kernel at
all.  As d2(a) lies in L^2, the bracket is a form on L^2: on the RREF rows
u_s of L^2 it is phi(s, t) = u_s ^ u_t mod im d3, and [a, b] expands d2(a)
and d2(b) on the u_s.  A central row forms no residue: d3(a ^ b ^ z) =
[a, b] ^ z for a central z, so L^2 ^ z lies in im d3 and phi(s, t) = 0
when u_s or u_t is central.  So phi takes l(l-1)/2 residues for the l live
rows, those with a nonzero ad image, and none when dim L^2 < 2.  When phi
is zero, as in class 2, where L^2 ^ L^2 lies in im d3, L ^ L is abelian
and no kept pair is read.  The exterior center Z^(L) and the tensor square
L x L = (L ^ L) + A(diagonal) follow from the same image without a free
algebra.

Every map into or out of Lambda^2 L is built sparse from the bracket table
at the coordinates base[a] + b; d2 is read off the table the same way, as
{base[a] + b: [e_a, e_b]}.  The dense ``ce_d2`` and ``ce_d3`` are an
independent reference for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import lcm

from .algebra import (
    LieAlgebra,
    _ad_images,
    center,
    derived_subalgebra,
    direct_sum,
    quotient,
)
from .catalog import abelian_algebra
from .linalg import (
    Elimination,
    LiecapError,
    Matrix,
    NotContained,
    Subspace,
    _prepare,
    accumulate,
    apply_columns,
    kernel_columns,
    kernel_from_rows,
)


class NotCentral(LiecapError):
    pass


class ExteriorBasis:
    """Lexicographic coordinates on Lambda^2 of F^n, ``width`` of them.

    The pair a < b sits at base[a] + b, where base[a] = a(2n - a - 3)/2 - 1
    counts the pairs before (a, a+1), less a + 1.  That is the one
    coordinate rule; ``pairs`` and ``triples`` list the pairs and triples
    in the same order, built on request for the dense reference maps and
    the tests, and read on no user path.
    """

    def __init__(self, n):
        self.n = n
        self.width = n * (n - 1) // 2
        self.base = [a * (2 * n - a - 3) // 2 - 1 for a in range(n)]

    @cached_property
    def pairs(self):
        return tuple(combinations(range(self.n), 2))

    @classmethod
    def for_dim(cls, n):
        return cls(n)

    @property
    def triples(self):
        return tuple(combinations(range(self.n), 3))


def _wedge_entry(field, out, base, a, b, coeff):
    """Accumulate coeff * (e_a ^ e_b) into sparse Lambda^2 coords."""
    if a == b or not coeff:
        return
    if a > b:
        a, b = b, a
        coeff = field.neg(coeff)
    idx = base[a] + b
    nv = field.add(out.get(idx, field.zero), coeff)
    if nv:
        out[idx] = nv
    else:
        out.pop(idx, None)


def _wedge(field, base, u, v):
    """u ^ v of two sparse L-vectors, in sparse Lambda^2 coords."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            _wedge_entry(field, out, base, i, j, field.mul(a, b))
    return out


def ce_d2(algebra):
    """Matrix of Lambda^2 L -> L, e_i ^ e_j -> [e_i, e_j]."""
    cols = []
    z = algebra.field.zero
    for (i, j) in ExteriorBasis(algebra.dim).pairs:
        row = algebra.bracket_basis(i, j)
        cols.append(tuple(row.get(k, z) for k in range(algebra.dim)))
    return Matrix.from_columns(algebra.field, cols, algebra.dim)


def ce_d3(algebra):
    """Matrix of Lambda^3 L -> Lambda^2 L; satisfies d2 @ d3 = 0 exactly."""
    f = algebra.field
    ext = ExteriorBasis(algebra.dim)
    cols = []
    for i, j, k in ext.triples:
        col = {}
        # [x_i, x_j] ^ x_k - [x_i, x_k] ^ x_j + [x_j, x_k] ^ x_i
        for a, b, c, negate in ((i, j, k, False), (i, k, j, True), (j, k, i, False)):
            for m, v in algebra.bracket_basis(a, b).items():
                _wedge_entry(f, col, ext.base, m, c, f.neg(v) if negate else v)
        cols.append(tuple(col.get(t, f.zero) for t in range(ext.width)))
    return Matrix.from_columns(algebra.field, cols, ext.width)


@dataclass(frozen=True)
class MultiplierResult:
    """im d3 of an algebra, and the invariants read off it.

    The pairs that are not pivots of im d3 (``kept``) are a basis of
    L ^ L = Lambda^2 L / im d3.  M(L) is the kernel of d2 on them, so its
    dim is len(kept) - dim L^2; ``basis`` is that kernel in RREF, in
    Lambda^2 coordinates, built only when asked for.  It is fixed by the
    lexicographic Lambda^2 order, so induced-map matrices are reproducible.
    The multiplier is an abelian Lie algebra of this dimension.  im d3 is
    held as its elimination (``span``), whose pivots give ``kept`` and
    ``dim``, and off which the squares, the exterior center and the
    induced maps read their residues (``Elimination.reduce``); its
    canonical RREF (``image``) is built only when read.  L^2 and Z(L)
    are read from the algebra, which computes each once.  The bracket of
    L ^ L is the alternating form phi(s, t) = u_s ^ u_t mod im d3 on the
    RREF rows u_s of L^2; phi vanishes at a central row, so it takes
    l(l-1)/2 residues for the l rows of L^2 outside Z(L).  L ^ L is
    abelian, with no kept pair read, exactly when phi is zero.
    """

    span: Elimination  # im d3, eliminated but not back-substituted
    algebra: LieAlgebra
    ext: ExteriorBasis  # the Lambda^2 coordinates of im d3

    @cached_property
    def image(self):
        """im d3 as its canonical RREF, back-substituted on first read."""
        return self.span.subspace()

    @cached_property
    def kept(self):
        """Ascending Lambda^2 coordinates that are not pivots of im d3."""
        return self.span.free_columns()

    @cached_property
    def dim(self):
        return self.ext.width - self.span.rank - derived_subalgebra(self.algebra).dim

    @property
    def diagonal_dim(self):
        """dim of the diagonal ideal of L x L; see ``diagonal_square_dim``."""
        return diagonal_square_dim(self.algebra)

    @cached_property
    def _d2(self):
        """d2 on Lambda^2 coordinates, {base[a] + b: [e_a, e_b]}, read off
        the table; the pairs with no bracket are absent."""
        base = self.ext.base
        return {base[a] + b: row for (a, b), row in self.algebra.table.items()}

    @cached_property
    def basis(self):
        # ker d2 on the kept pairs; kept is ascending, so the RREF rows stay
        # RREF when read back in Lambda^2 coordinates
        alg = self.algebra
        d2 = self._d2
        ker = kernel_columns(alg.field, [d2.get(t, {}) for t in self.kept])
        basis = Subspace(alg.field, self.ext.width,
                         tuple({self.kept[a]: c for a, c in r.items()} for r in ker.sparse_rows()),
                         tuple(self.kept[a] for a in ker.pivots), _internal=True)
        assert basis.dim == self.dim
        return basis

    @cached_property
    def _square(self):
        """[a, b] = d2(a) ^ d2(b) mod im d3, expanded on the RREF rows u_s
        of L^2: d2(a) = sum of alpha_a[s] u_s, with alpha_a[s] the entry of
        d2(a) at the s-th pivot, so [a, b] = sum of alpha_a[s] alpha_b[t]
        phi(s, t) for the alternating form phi(s, t) = u_s ^ u_t mod im d3.
        phi(s, t) = 0 when u_s or u_t is central, as L^2 ^ z lies in im d3
        for a central z; so only the live rows, those with a nonzero
        ``_ad_images``, are wedged, l(l-1)/2 residues for l of them on
        Lambda^2 coordinates, and none when dim L^2 < 2.  When phi is zero,
        as in class 2, where every row is central, the square is abelian
        of dim width - rank im d3, and no kept pair is read.  Otherwise the
        residues are moved to kept indices once, psi_a[t] = sum of
        alpha_a[s] phi(s, t) is formed once per kept a with d2(a) != 0,
        and [a, b] = sum of alpha_b[t] psi_a[t]."""
        alg = self.algebra
        f = alg.field
        base = self.ext.base
        der = derived_subalgebra(alg)
        rows = der.sparse_rows()
        live = [s for s, u in enumerate(rows) if _ad_images(alg, u)] if len(rows) > 1 else ()
        residues = [(s, t, self.span.reduce(_wedge(f, base, rows[s], rows[t])))
                    for s, t in combinations(live, 2)]
        if not any(r for _, _, r in residues):
            return LieAlgebra(f, self.ext.width - self.span.rank, {})
        kept = self.kept
        pos = {t: a for a, t in enumerate(kept)}
        phi = [[] for _ in rows]  # phi[s]: (t, phi(s, t)) for every t with phi(s, t) != 0
        for s, t, residue in residues:
            if residue:
                w = {pos[r]: c for r, c in residue.items()}
                phi[s].append((t, w))
                phi[t].append((s, {r: f.neg(c) for r, c in w.items()}))
        pivot = {p: s for s, p in enumerate(der.pivots)}
        alpha = []  # (a, alpha_a) of the live kept pairs, in pair order
        d2_of = self._d2
        for a, t in enumerate(kept):
            d2 = d2_of.get(t)
            if d2:
                alpha.append((a, {pivot[c]: v for c, v in d2.items() if c in pivot}))
        brackets = {}
        for x, (a, coeffs) in enumerate(alpha):
            psi = {}
            for s, c in coeffs.items():
                for t, w in phi[s]:
                    accumulate(f, psi.setdefault(t, {}), c, w)
            psi = {t: v for t, v in psi.items() if v}
            if psi:
                for b, other in alpha[x + 1:]:
                    out = {}
                    for t, c in other.items():
                        if t in psi:
                            accumulate(f, out, c, psi[t])
                    brackets[(a, b)] = out
        return LieAlgebra(f, len(kept), brackets)

    def exterior_square(self):
        """L ^ L on the pairs that are not pivots of im d3, in pair order,
        with [a, b] = d2(a) ^ d2(b) mod im d3."""
        return self._square

    def exterior_center(self):
        """Z^(L), the l with l ^ e_j in im d3 for every j; computed once,
        when first asked for."""
        return self._exterior_center

    @cached_property
    def _exterior_center(self):
        """Z^(L), solved inside Z(L).

        Z^(L) lies in Z(L), so l runs over Z(L): l = sum of a_s z_s on the
        RREF basis z_s of Z(L), and each residue coordinate of l ^ e_j mod
        im d3 is one functional on the coefficients a.  The residue of a
        pair t is read off the elimination of im d3, scaled by the lcm M
        of the leads L_t of its back-substituted echelon rows R_t, which
        are integer over Q (``Echelon.reduced_rows``): zero at a unit
        column, -(R_t - L_t e_t) M/L_t at an echelon pivot, and M e_t at a
        kept pair.  Every functional is scaled by the same M, so the kernel
        is unchanged, and the functionals are integer whenever the rows of
        Z(L) are: no Fraction is formed.  Over GF(p) every lead is 1, and
        so is M.  The functionals come one j at a time, so the kernel stops
        reading them once single-coefficient ones reach full rank, as on
        A(n) after two values of j.  The coefficient kernel is lifted
        through the RREF rows of Z(L) without a second elimination
        (``Subspace.lift``).
        """
        alg = self.algebra
        f = alg.field
        add, mul, neg, zero, one = f.add, f.mul, f.neg, f.zero, f.one
        base = self.ext.base
        units = self.span.units
        by_pivot = self.span.echelon.reduced_rows()
        scale = lcm(*(row[t] for t, row in by_pivot.items()))  # M
        zspace = center(alg)
        zrows = zspace.sparse_rows()

        def residue(t):
            if t in units:
                return {}
            row = by_pivot.get(t)
            if row is None:
                return {t: scale}
            c = scale // row[t]
            return {r: neg(v) * c for r, v in row.items() if r != t}

        def functionals():
            for j in range(alg.dim):
                rows = {}  # residue coordinate of l ^ e_j -> {s: coefficient of a_s}
                for s, z in enumerate(zrows):
                    for i, c in z.items():
                        # e_i ^ e_j = -(e_j ^ e_i), and e_j ^ e_j = 0
                        if i < j:
                            t = base[i] + j
                        elif i > j:
                            t, c = base[j] + i, neg(c)
                        else:
                            continue
                        for r, v in residue(t).items():
                            functional = rows.setdefault(r, {})
                            functional[s] = add(functional.get(s, zero), mul(c, v))
                yield from rows.values()

        space = kernel_from_rows(f, len(zrows), functionals()).lift(zspace)
        # l ^ e_j in im d3 for every basis vector l and every j
        assert not any(self.span.reduce(_wedge(f, base, l, {j: one}))
                       for l in space.sparse_rows() for j in range(alg.dim))
        return space

    def tensor_square(self):
        """L x L = (L ^ L) + diagonal ideal; the diagonal part is abelian."""
        diag = abelian_algebra(self.diagonal_dim, self.algebra.field)
        return direct_sum(self._square, diag)


def _im_d3(algebra, ext):
    """im d3 of algebra, eliminated but not back-substituted, with
    d2 . d3 = 0 checked on its basis; the module docstring says how the
    columns are built, why no vector carries a unit column and why that
    check suffices.  When an entry has two or more terms, the columns at a
    central coordinate c are u ^ e_c for the RREF rows u of L^2, which
    span the same L^2 ^ e_c as the columns [e_i, e_j] ^ e_c of the
    entries."""
    n = algebra.dim
    field = algebra.field
    table = algebra.table
    get = table.get
    p = field.char  # 0 over Q, so p - x is -x there
    base = ext.base
    nb = [set() for _ in range(n)]  # nb[a]: the b whose pair {a, b} has a bracket
    for a, b in table:
        nb[a].add(b)
        nb[b].add(a)
    everything = set(range(n))
    # first every unit column, so no vector below is written at one
    units = set()
    # (r, lone) of the entries whose bracket r has two or more terms, and
    # below (u, central) of the rows u of L^2 that are not units
    multi = []
    shared = []
    for (i, j), r in table.items():
        ni, nj = nb[i], nb[j]
        # j is in ni and i in nj, so lone is the c for which (i, j) is the
        # one bracketed pair of {i, j, c}
        lone = everything.difference(ni, nj)
        if len(r) == 1:
            # x e_m ^ e_c: the unit column of pair {m, c}, or zero when m = c
            (m,) = r
            lone.discard(m)
            bm = base[m]
            units.update([bm + c if m < c else base[c] + m for c in lone])
        else:
            multi.append((r.items(), lone))
        # the other triples have two or more bracketed pairs, and each is
        # taken from the first of them in the order (a, b) < (a, c) < (b, c):
        # from (i, j) when k > j, or when i < k < j and (i, k) has none
        for k in ni.union(nj):
            if k > j:
                shared.append((i, j, k))
            elif i < k < j and k not in ni:
                shared.append((i, k, j))
    central = [c for c in range(n) if not nb[c]] if multi else ()
    if central:
        # the columns at a central c are r ^ e_c for every entry r, so they
        # span L^2 ^ e_c, whose basis is u ^ e_c for the RREF rows u of L^2:
        # a unit column for each pair {m, c} when u = e_m, as for a
        # single-term entry, and otherwise a vector, with u over Q scaled to
        # integers once for every c; the multi-term entries drop c
        for _, lone in multi:
            lone.difference_update(central)
        # a single-term entry x e_m has put e_m ^ e_c among the units already
        singles = {m for r in table.values() if len(r) == 1 for m in r}
        for u in derived_subalgebra(algebra).sparse_rows():
            if len(u) == 1:
                (m,) = u
                if m not in singles:
                    bm = base[m]
                    units.update([bm + c if m < c else base[c] + m for c in central if c != m])
            else:
                multi.append((_prepare(field, u).items(), central))
    vectors = []
    for terms, lone in multi:
        for c in lone:
            # r ^ e_c, the column up to sign: e_m ^ e_c = -(e_c ^ e_m), and
            # e_c ^ e_c = 0; struck of the unit columns, so it may be empty
            out = {}
            for m, x in terms:
                if m < c:
                    t = base[m] + c
                    if t not in units:
                        out[t] = x
                elif m > c:
                    t = base[c] + m
                    if t not in units:
                        out[t] = p - x
            if out:
                vectors.append(out)
    for i, j, k in shared:
        # the table holds [e_a, e_b] for a < b, which each of the three pairs is
        out = {}
        for row, c, negate in ((get((i, j)), k, False), (get((i, k)), j, True),
                               (get((j, k)), i, False)):
            if row is None:
                continue
            for m, x in row.items():
                # e_m ^ e_c = -(e_c ^ e_m), and e_c ^ e_c = 0
                if m < c:
                    t = base[m] + c
                    if t in units:
                        continue
                    if negate:
                        x = p - x
                elif m > c:
                    t = base[c] + m
                    if t in units:
                        continue
                    if not negate:
                        x = p - x
                else:
                    continue
                if t in out:
                    y = out[t] + x
                    if p:
                        y %= p
                    if y:
                        out[t] = y
                    else:
                        del out[t]
                else:
                    out[t] = x
        if out:
            vectors.append(out)
    span = Elimination(field, ext.width, vectors, units)
    # d2 on Lambda^2 coordinates; a unit column is killed exactly when its
    # pair has no bracket
    d2 = {base[a] + b: row for (a, b), row in table.items()}
    if any(t in units for t in d2) or any(
            apply_columns(field, d2, {t: x for t, x in row.items() if t in d2})
            for row in span.echelon_rows()):
        raise NotContained("d2 . d3 is not zero: the bracket violates Jacobi")
    return span


def schur_multiplier(algebra):
    """im d3 of algebra and the invariants read off it, in one walk from
    the table; the RREF of im d3 is built only when ``image`` is read."""
    ext = ExteriorBasis(algebra.dim)
    return MultiplierResult(_im_d3(algebra, ext), algebra, ext)


def diagonal_square_dim(algebra):
    """dim of the diagonal ideal: (n - m)(n - m + 1)/2 for m = dim L^2."""
    n = algebra.dim
    m = derived_subalgebra(algebra).dim
    return (n - m) * (n - m + 1) // 2


def _lambda2_map(linear_map, base):
    """Columns of Lambda^2 of a linear map, as sparse target coordinates;
    base is the target's ``ExteriorBasis.base``."""
    cols = linear_map.columns
    return [_wedge(linear_map.target.field, base, cols[i], cols[j])
            for i, j in combinations(range(len(cols)), 2)]


def induced_multiplier_map(algebra, ideal):
    """Sparse columns of M(L) -> M(L/N) for a central ideal N.

    Column s is the image of the s-th multiplier basis vector of L, as sparse
    coordinates on the multiplier basis of L/N; the kernel dimension does not
    depend on either basis choice.
    """
    if not center(algebra).contains_subspace(ideal):
        raise NotCentral("ideal is not central")
    q, proj = quotient(algebra, ideal)
    m_q = schur_multiplier(q)
    lam2 = _lambda2_map(proj, m_q.ext.base)
    # a cycle maps to a cycle; NotContained here would mean it did not
    return [m_q.basis.coords(m_q.span.reduce(apply_columns(algebra.field, lam2, v)))
            for v in schur_multiplier(algebra).basis.sparse_rows()]


def induced_map_injective(algebra, ideal):
    return kernel_columns(algebra.field, induced_multiplier_map(algebra, ideal)).dim == 0


def kunneth_exterior_dim(h, k):
    """dim of (H + K) ^ (H + K) from the summand squares and abelianizations."""
    return sum_exterior_dim(schur_multiplier(h), schur_multiplier(k))


def sum_exterior_dim(mh, mk):
    """``kunneth_exterior_dim`` read off the multipliers of the summands.

    The square dims come from the homology route: dim X^X = dim M(X) + dim X^2.
    """
    dh, dk = derived_subalgebra(mh.algebra).dim, derived_subalgebra(mk.algebra).dim
    return (mh.dim + dh) + (mk.dim + dk) + (mh.algebra.dim - dh) * (mk.algebra.dim - dk)


def kunneth_tensor_dim(h, k):
    """Four-term analogue: summand tensor squares plus both cross terms."""
    dh = derived_subalgebra(h).dim
    dk = derived_subalgebra(k).dim
    tensor_h = schur_multiplier(h).dim + dh + diagonal_square_dim(h)
    tensor_k = schur_multiplier(k).dim + dk + diagonal_square_dim(k)
    return tensor_h + tensor_k + 2 * (h.dim - dh) * (k.dim - dk)
