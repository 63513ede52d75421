"""Structure-constant Lie algebras and their elementary ideal calculus.

An algebra is a basis ``x1..xn`` plus a sparse table of bracket vectors
``[e_i, e_j]`` stored only for i < j; the i > j values follow from
antisymmetry and the diagonal is identically zero.  Everything is immutable
after construction and all arithmetic is exact.

L^2, Z(L) and the lower central series are computed once per algebra and
returned as the memo's own ``Subspace``s (the series as the memo's tuple).
The adjacency of the table, which every ad image reads, joins them in the
memo; it holds lists of the table's own rows.  An ideal is a plain
``Subspace``; it refers to no algebra, so an algebra holds no reference
back to itself.

The cost of the invariants follows the table, not the algebra: a bracket
that is a single term gives unit columns of im d3.  ``adapted_basis``
picks a basis of brackets adapted to the lower central series, the form
of the catalog's own tables, and ``transform`` rewrites a table on any
basis.  The report path, whose invariants do not depend on the basis,
keeps a table whose series is a chain of coordinate spans and re-bases
any other on the first when that takes terms off the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .linalg import (
    QQ,
    DimensionMismatch,
    Echelon,
    LiecapError,
    PrimeField,
    Subspace,
    accumulate,
    apply_columns,
    basis_coordinates,
    kernel_columns,
    kernel_from_rows,
    _check_same_field,
    _prepare,
    _shown,
)


class AlgebraError(LiecapError):
    pass


class NotNilpotent(AlgebraError):
    """The lower central series stabilized above zero."""


class NotAnIdeal(AlgebraError):
    pass


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants; like the
    memo, the default labels x1..xn are formed on first read and kept."""

    __slots__ = ("field", "dim", "_labels", "table", "_memo")

    def __init__(self, field, dim, brackets, labels=None):
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise DimensionMismatch("label count != dim")
        table = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"bracket index ({i},{j}) outside 0..{dim - 1}")
            if i == j:
                raise AlgebraError(f"diagonal bracket ({i},{i}) must be zero")
            row = {}
            for k, c in vec.items():
                if not 0 <= k < dim:
                    raise DimensionMismatch(
                        f"bracket ({i},{j}) has output index {k} outside 0..{dim - 1}")
                c = field.coerce(c)
                if c:
                    row[k] = c
            if not row:
                continue
            if i > j:
                i, j = j, i
                row = {k: field.neg(c) for k, c in row.items()}
            if (i, j) in table:
                raise AlgebraError(f"bracket ({i},{j}) given twice")
            table[(i, j)] = row
        self.field = field
        self.dim = dim
        self._labels = labels  # None until the default names are read
        self.table = table
        self._memo = {}  # L^2, Z(L), the lower central series and the adjacency

    @property
    def labels(self):
        if self._labels is None:
            self._labels = tuple(f"x{i + 1}" for i in range(self.dim))
        return self._labels

    # -- basic bracket machinery ------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        row = self.table.get((j, i))
        if not row:
            return {}
        neg = self.field.neg
        return {k: neg(c) for k, c in row.items()}

    def bracket_sparse(self, u, v):
        """Bracket of two sparse vectors; cost scales with their supports."""
        out = {}
        f = self.field
        mul, neg = f.mul, f.neg
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                if i == j:
                    continue
                row = table.get((i, j)) if i < j else table.get((j, i))
                if not row:
                    continue
                c = mul(a, b)
                if i > j:
                    c = neg(c)
                accumulate(f, out, c, row)
        return out

    def is_abelian(self):
        return not self.table

    def relabel(self, labels):
        return LieAlgebra(self.field, self.dim, self.table, labels=labels)

    def table_key(self):
        """Hashable canonical form of the structure table (labels ignored)."""
        return tuple(sorted((ij, tuple(sorted(row.items())))
                            for ij, row in self.table.items()))

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field!r}, {len(self.table)} brackets)"


@dataclass
class ValidationReport:
    ok: bool
    failures: list = dc_field(default_factory=list)  # (i, j, k, residual dict)

    def first_failure(self):
        return self.failures[0] if self.failures else None


def support_triples(algebra):
    """The triples i < j < k with a nonzero bracket among their three pairs,
    in ascending lexicographic order.

    Only these can have a nonzero Jacobi sum or d3 column: both are sums of
    terms each carrying one of [x_i, x_j], [x_i, x_k], [x_j, x_k].
    """
    n = algebra.dim
    table = algebra.table
    out = []
    for i, j in table:
        # each triple once, from the first of its pairs in the order
        # (a, b) < (a, c) < (b, c) that has a bracket: (i, j) comes first in
        # (i, j, k), second in (i, k, j), last in (k, i, j)
        out.extend([(i, j, k) for k in range(j + 1, n)])
        out.extend([(i, k, j) for k in range(i + 1, j) if (i, k) not in table])
        out.extend([(k, i, j) for k in range(i) if (k, i) not in table and (k, j) not in table])
    out.sort()
    return out


def validate(algebra):
    """Check the Jacobi identity on every basis triple.

    Antisymmetry and the zero diagonal hold by construction of the table, so
    the Jacobi identity is the one axiom that can fail.  Only the
    ``support_triples`` can fail it, so only they are walked, in the same
    lexicographic order, with [e_a, [e_b, e_c]] read straight off the
    table.  Returns a report naming the first violating triple rather than
    raising.
    """
    f = algebra.field
    neg = f.neg
    table = algebra.table
    for i, j, k in support_triples(algebra):
        total = {}
        # [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]; the table
        # holds [e_a, e_b] for a < b only
        for a, b, c, negate in ((i, j, k, False), (j, i, k, True), (k, i, j, False)):
            inner = table.get((b, c))
            if not inner:
                continue
            for m, cm in inner.items():
                if negate:
                    cm = neg(cm)
                if a < m:
                    outer, sign = table.get((a, m)), cm
                elif a > m:
                    outer, sign = table.get((m, a)), neg(cm)
                else:
                    continue
                if outer:
                    accumulate(f, total, sign, outer)
        if total:
            return ValidationReport(False, [(i, j, k, total)])
    return ValidationReport(True)


def direct_sum(h, k):
    """Direct sum with vanishing cross brackets; labels keep their summand."""
    _check_same_field(h.field, k.field)
    brackets = {}
    for (i, j), row in h.table.items():
        brackets[(i, j)] = dict(row)
    off = h.dim
    for (i, j), row in k.table.items():
        brackets[(i + off, j + off)] = {m + off: c for m, c in row.items()}
    labels = tuple(f"a.{s}" for s in h.labels) + tuple(f"b.{s}" for s in k.labels)
    return LieAlgebra(h.field, h.dim + k.dim, brackets, labels=labels)


# -- ideals and series ------------------------------------------------------


def _span(algebra, sparse_vectors):
    return Subspace._from_sparse(algebra.field, algebra.dim, sparse_vectors)


def derived_subalgebra(algebra):
    """L^2 = [L, L]: the span of all structure table vectors."""
    memo = algebra._memo
    if "derived" not in memo:
        memo["derived"] = _span(algebra, algebra.table.values())
    return memo["derived"]


def _adjacency(algebra):
    """{i: [(j, [e_i, e_j] row, negate)]} over the table's nonzero brackets,
    built once per algebra; ``negate`` marks the pairs i > j, whose stored
    row is [e_j, e_i]."""
    memo = algebra._memo
    if "adj" not in memo:
        adj = memo["adj"] = {}
        for (i, j), row in algebra.table.items():
            adj.setdefault(i, []).append((j, row, False))
            adj.setdefault(j, []).append((i, row, True))
    return memo["adj"]


def _ad_images(algebra, v):
    """{j: [v, e_j]} for the sparse vector v, nonzero images only; the cost
    is the table entries met by v's support."""
    f = algebra.field
    neg = f.neg
    adj = _adjacency(algebra)
    out = {}
    for i, a in v.items():
        for j, row, negate in adj.get(i, ()):
            accumulate(f, out.setdefault(j, {}), neg(a) if negate else a, row)
    return {j: w for j, w in out.items() if w}


def _ad_kernel(algebra, modulo=None):
    """{v : [v, e_j] in modulo for every j}, from one functional per residue
    coordinate (j, k) of [e_i, e_j] mod modulo, read off the table; modulo
    None stands for the zero subspace."""
    f = algebra.field
    rows = {}
    for (i, j), row in algebra.table.items():
        residue = row if modulo is None else modulo.reduce(row)
        for k, c in residue.items():
            # [e_j, e_i] = -[e_i, e_j]
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = f.neg(c)
    return kernel_from_rows(f, algebra.dim, rows.values())


def center(algebra):
    """Z(L) = kernel of the adjoint action."""
    memo = algebra._memo
    if "center" not in memo:
        memo["center"] = _ad_kernel(algebra)
    return memo["center"]


def centralizer(algebra, space):
    """C_L(S) = {x : [x, s] = 0 for every s in S}, as a Subspace."""
    # column j of x -> ([s_t, x])_t, the negative of x -> ([x, s_t])_t
    cols = [{} for _ in range(algebra.dim)]
    for t, s in enumerate(space.sparse_rows()):
        for j, w in _ad_images(algebra, s).items():
            for k, c in w.items():
                cols[j][(t, k)] = c
    return kernel_columns(algebra.field, cols)


def _bracket_span(algebra, space):
    """Span of [space, L].  Over Q each RREF row of space is scaled to
    integers first, which spans the same; its ad images then take no
    fraction arithmetic on an integer table."""
    vecs = []
    for row in space.sparse_rows():
        vecs.extend(_ad_images(algebra, _prepare(algebra.field, row)).values())
    return _span(algebra, vecs)


def _series(algebra):
    """The terms of ``lower_central_series``, as a tuple of Subspaces."""
    out = [Subspace.full(algebra.field, algebra.dim)]
    nxt = derived_subalgebra(algebra)  # [L, L], the table's span
    while nxt.dim != out[-1].dim:
        out.append(nxt)
        if nxt.dim == 0:
            return tuple(out)
        nxt = _bracket_span(algebra, nxt)
    if nxt.dim != 0:
        out.append(nxt)  # stabilized above zero: not nilpotent
    return tuple(out)


def lower_central_series(algebra):
    """gamma_1 = L, gamma_{i+1} = [gamma_i, L], until it stops descending."""
    memo = algebra._memo
    if "lcs" not in memo:
        memo["lcs"] = _series(algebra)
    return memo["lcs"]


def is_nilpotent(algebra):
    """True when the table is triangular, every [e_i, e_j] (i < j) on
    coordinates above j: span{e_k : k >= m} is then a central series.
    Other tables are decided by ``lower_central_series``."""
    if all(k > j for (_, j), row in algebra.table.items() for k in row):
        return True
    return lower_central_series(algebra)[-1].dim == 0


def nilpotency_class(algebra):
    series = lower_central_series(algebra)
    if series[-1].dim != 0:
        raise NotNilpotent("not nilpotent: the lower central series stabilizes above zero")
    return len(series) - 1


def upper_central_series(algebra):
    """Z_1 = Z(L), Z_{i+1} = preimage of Z(L/Z_i), until stable."""
    out = [center(algebra)]
    while True:
        prev = out[-1]
        if prev.dim == algebra.dim:
            return out
        nxt = _ad_kernel(algebra, prev)
        if nxt.dim == prev.dim:
            return out
        out.append(nxt)


def minimal_generator_count(algebra):
    """dim L - dim L^2, the minimal generator count for nilpotent L."""
    if not is_nilpotent(algebra):
        raise NotNilpotent("generator count defined for nilpotent algebras only")
    return algebra.dim - derived_subalgebra(algebra).dim


def is_ideal(algebra, space):
    return all(space.contains(w) for row in space.sparse_rows()
               for w in _ad_images(algebra, row).values())


@dataclass(frozen=True)
class AlgebraMap:
    """Linear map between algebras: columns[i] is the sparse image of e_i."""

    source: LieAlgebra
    target: LieAlgebra
    columns: tuple

    def apply(self, vec):
        """Image of a sparse source vector, as a sparse target vector."""
        return apply_columns(self.target.field, self.columns, vec)

    def is_bracket_preserving(self):
        """[f(e_a), f(e_b)] = f([e_a, e_b]) on every pair a < b of source
        coordinates; only the pairs where either side is nonzero are
        compared, since both sides vanish on the rest.  The columns are
        bracketed as ``transform`` brackets them, each once through the
        target's table, and no inverse is formed, so a map with zero or
        repeated columns, such as a projection, is checked as a basis
        change is."""
        source = self.source
        later = {}  # a -> the b > a with [e_a, e_b] in the source table
        for a, b in source.table:
            later.setdefault(a, []).append(b)
        for a, out in enumerate(_column_brackets(self.target, self.columns)):
            for b in out.keys() | later.get(a, ()):
                if self.apply(source.bracket_basis(a, b)) != out.get(b, {}):
                    return False
        return True


def quotient(algebra, ideal):
    """L/N with the canonical projection; basis = non-pivot coordinates of N."""
    if ideal.ambient_dim != algebra.dim:
        raise DimensionMismatch("ideal lives in a different ambient space")
    if not is_ideal(algebra, ideal):
        raise NotAnIdeal("subspace is not an ideal")
    pivots = set(ideal.pivots)
    kept = [i for i in range(algebra.dim) if i not in pivots]
    pos = {c: t for t, c in enumerate(kept)}
    f = algebra.field

    def project(vec):
        residue = ideal.reduce(vec)
        return {pos[c]: v for c, v in residue.items()}

    # kept is ascending, so pos keeps each table pair's order
    brackets = {}
    for (i, j), row in sorted(algebra.table.items()):
        if i in pos and j in pos:
            img = project(row)
            if img:
                brackets[(pos[i], pos[j])] = img
    q = LieAlgebra(f, len(kept), brackets, labels=tuple(algebra.labels[i] for i in kept))
    proj = AlgebraMap(algebra, q, tuple(project({i: f.one}) for i in range(algebra.dim)))
    return q, proj


def subalgebra_on(algebra, space):
    """The bracket-closed subspace as a standalone algebra plus its embedding."""
    rows = space.sparse_rows()
    brackets = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            v = algebra.bracket_sparse(rows[a], rows[b])
            residue = space.reduce(v)
            if residue:
                raise AlgebraError("subspace is not closed under the bracket")
            coords = {t: v[p] for t, p in enumerate(space.pivots) if p in v}
            if coords:
                brackets[(a, b)] = coords
    sub = LieAlgebra(algebra.field, len(rows), brackets,
                     labels=tuple(f"w{t + 1}" for t in range(len(rows))))
    return sub, AlgebraMap(sub, algebra, tuple(rows))


def adapted_basis(algebra):
    """Sparse columns of a basis of L built from brackets and adapted to the
    lower central series gamma_1 > gamma_2 > ... > 0.

    The first d columns, layer 1, are the unit vectors at the coordinates
    that are not pivots of L^2: they span L modulo L^2, so they generate L.
    Layer k+1 is picked among the brackets [g, b], for g a generator and b
    in layer k, which span gamma_{k+1} modulo gamma_{k+2}; those with the
    fewest terms come first, and a bracket is kept when it is independent
    modulo gamma_{k+2} and the brackets already kept; brackets with as
    many terms keep the order of b, then of g.  So layers k and on are a
    basis of gamma_k.  A table whose brackets are all single terms gives
    single-term columns: each gamma_k is then a coordinate subspace.
    """
    series = lower_central_series(algebra)
    if series[-1].dim:
        raise NotNilpotent("an adapted basis needs a nilpotent algebra")
    f = algebra.field
    one, neg = f.one, f.neg
    pivots = set(series[1].pivots) if len(series) > 1 else ()
    gens = [g for g in range(algebra.dim) if g not in pivots]
    cols = [{g: one} for g in gens]
    layer = cols
    for k in range(1, len(series) - 1):
        below = series[k + 1]  # gamma_{k+2}
        # [g, b] = -[b, e_g], read off the ad images of b
        brackets = []
        for b in layer:
            images = _ad_images(algebra, b)
            brackets += [{t: neg(c) for t, c in images[g].items()} for g in gens if g in images]
        brackets.sort(key=len)
        # the residues modulo gamma_{k+2} of the brackets kept so far
        ech = Echelon(f, algebra.dim)
        want = series[k].dim - below.dim
        layer = []
        for w in brackets:
            if ech.add(below.reduce(w)):
                layer.append(w)
                if len(layer) == want:
                    break
        cols += layer
    return cols


def _column_brackets(algebra, cols):
    """For each a in turn, {b: [b_a, b_b]} over the later columns b > a,
    b_a being the sparse vector cols[a]; a bracket may be the empty dict.

    [b_a, b_b] is the sum of b_b[j] [b_a, e_j] over the ad images of b_a,
    so each column goes once through the table, and only the pairs whose
    columns meet through it are bracketed.
    """
    f = algebra.field
    holders = {}  # j -> [(b, b_b[j])], the columns with an entry at j
    for b, col in enumerate(cols):
        for j, c in col.items():
            holders.setdefault(j, []).append((b, c))
    for a, col in enumerate(cols):
        out = {}
        for j, w in _ad_images(algebra, col).items():
            for b, c in holders.get(j, ()):
                if b > a:
                    accumulate(f, out.setdefault(b, {}), c, w)
        yield out


def transform(algebra, cols):
    """Rewrite the algebra on the new basis whose a-th vector is the sparse
    column cols[a]; the columns must be a basis.

    The brackets of the columns are those of ``_column_brackets``.  Their
    new coordinates are read off the echelon of the columns
    (``basis_coordinates``), with no inverse formed: an image that is a
    multiple of one column, as most are on an adapted basis, takes one
    step, and over Q the steps run in integers, with one division per
    coordinate into its canonical scalar.
    """
    n = algebra.dim
    if len(cols) != n:
        raise DimensionMismatch(f"{len(cols)} basis columns for dim {n}")
    coords = basis_coordinates(algebra.field, cols)
    brackets = {}
    for a, out in enumerate(_column_brackets(algebra, cols)):
        for b in sorted(out):
            if out[b]:
                brackets[(a, b)] = coords(out[b])
    return LieAlgebra(algebra.field, n, brackets, labels=algebra._labels)


# -- JSON interchange --------------------------------------------------------
# {"dim": n, "labels": [...], "field": "Q" | {"p": 5},
#  "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]}
# with 1-based indices and exact coefficient strings.

# Lambda^2 has C(dim, 2) coordinates: the exterior basis lists every pair,
# and each pair outside the pivots of im d3 (all of them for an abelian
# algebra) is a basis vector of L ^ L
MAX_DIM = 300


def to_json(algebra):
    f = algebra.field
    brackets = []
    for (i, j) in sorted(algebra.table):
        row = algebra.table[(i, j)]
        out = [{"k": k + 1, "c": f.to_str(row[k])} for k in sorted(row)]
        brackets.append({"i": i + 1, "j": j + 1, "out": out})
    field_obj = "Q" if isinstance(f, type(QQ)) else {"p": f.p}
    return {"dim": algebra.dim, "labels": list(algebra.labels),
            "field": field_obj, "brackets": brackets}


def _json_int(obj, name):
    v = obj.get(name)
    # bool is an int subclass, but true is not an index
    if isinstance(v, bool) or not isinstance(v, int):
        raise AlgebraError(f"{name!r} must be an integer, not {_shown(v)}")
    return v


def _json_list(v, name, item_type):
    if not isinstance(v, list) or not all(isinstance(x, item_type) for x in v):
        items = "objects" if item_type is dict else "strings"
        raise AlgebraError(f"{name!r} must be an array of {items}, not {_shown(v)}")
    return v


def _json_coefficient(f, c):
    try:
        return f.parse(str(c))
    except (ValueError, ZeroDivisionError) as exc:
        shown = _shown(c)
        # the parser's own message repeats the value, so only a short one keeps it
        reason = f": {exc}" if shown == repr(c) else ""
        raise AlgebraError(f"coefficient {shown} is not an element of {f!r}{reason}") from None


def from_json(obj):
    if not isinstance(obj, dict):
        raise AlgebraError(f"an algebra must be a JSON object, not {type(obj).__name__}")
    fobj = obj.get("field", "Q")
    if fobj == "Q":
        f = QQ
    elif isinstance(fobj, dict):
        f = PrimeField(_json_int(fobj, "p"))
    else:
        raise AlgebraError(f"unknown field spec {_shown(fobj)}")
    dim = _json_int(obj, "dim")
    if not 0 <= dim <= MAX_DIM:
        raise AlgebraError(f"dim must be in 0..{MAX_DIM}, got {_shown(dim)}")
    # indices are checked here, so that every message names the document's
    # own 1-based numbers; [x_j, x_i] is the bracket [x_i, x_j] given again
    brackets = {}
    for item in _json_list(obj.get("brackets", []), "brackets", dict):
        i, j = _json_int(item, "i"), _json_int(item, "j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise AlgebraError(f"bracket index ({i},{j}) outside 1..{dim}")
        if i == j:
            raise AlgebraError(f"diagonal bracket ({i},{i}) may not be given")
        if (i - 1, j - 1) in brackets:
            raise AlgebraError(f"bracket ({i},{j}) given twice")
        if (j - 1, i - 1) in brackets:
            raise AlgebraError(f"bracket ({i},{j}) given twice, once as ({j},{i})")
        row = brackets[(i - 1, j - 1)] = {}
        for o in _json_list(item.get("out"), "out", dict):
            k = _json_int(o, "k")
            if not 1 <= k <= dim:
                raise AlgebraError(f"bracket ({i},{j}) has output index {k} outside 1..{dim}")
            if k - 1 in row:
                raise AlgebraError(f"bracket ({i},{j}) gives x{k} twice")
            row[k - 1] = _json_coefficient(f, o.get("c"))
    labels = obj.get("labels")
    if labels is not None:
        _json_list(labels, "labels", str)
    return LieAlgebra(f, dim, brackets, labels=labels)


def dumps(algebra):
    return json.dumps(to_json(algebra))
