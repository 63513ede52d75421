"""Exact linear algebra over the rationals and odd prime fields.

A scalar over Q is a plain ``int`` when it is integral and a
``fractions.Fraction`` with denominator above 1 otherwise; over GF(p) it is
a canonical residue ``0..p-1``.  There is no per-element wrapper type.  Row
reduction over Q is fraction-free (integer rows with gcd stripping), so
entries stay small during elimination and results are exact bit for bit.

Vectors are sparse ``{index: value}`` dicts, and a linear map is a list of
sparse columns, column i being the image of the i-th basis vector.
Subspaces are stored in reduced row echelon form, which makes equality
structural: two equal subspaces have identical basis matrices.  The dense
``Matrix`` only stores the boundary matrices ``ce_d2`` and ``ce_d3``, the
reference that the tests compare the sparse route against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


class LiecapError(Exception):
    """Base of every error liecap raises on bad input or an unmet hypothesis."""


class LinalgError(LiecapError):
    pass


class MixedFields(LinalgError):
    """Operands disagree on their ground field."""


class DimensionMismatch(LinalgError):
    pass


class NotContained(LinalgError):
    """A subspace or vector lies outside the space it must lie in."""


# bounds on input that would otherwise run unbounded: PrimeField checks
# primality by trial division up to sqrt(p), and Fraction("1e999999999")
# builds a power of ten with a billion digits
MAX_PRIME = 2**32
MAX_EXPONENT = 1000


def _parse_fraction(s):
    """Fraction(s), refusing a decimal exponent beyond +-MAX_EXPONENT."""
    _, e, exponent = s.lower().partition("e")
    try:
        huge = e and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        huge = False  # not an integer, so Fraction rejects s as well
    if huge:
        raise ValueError(f"the exponent of {s!r} is beyond +-{MAX_EXPONENT}")
    return Fraction(s)


# ---------------------------------------------------------------------------
# ground fields


class RationalField:
    """The field Q.

    The canonical scalar is an ``int`` when integral and a ``Fraction`` with
    denominator above 1 otherwise.  ``add``/``sub``/``mul``/``neg`` may return
    a ``Fraction`` with denominator 1, which is the same value; ``coerce``
    and ``Echelon.finalize`` restore the canonical form where values are
    stored, in every algebra table and every ``Subspace``.
    """

    char = 0
    zero = 0
    one = 1

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def from_int(self, a):
        return a

    def coerce(self, a):
        if isinstance(a, int):
            return int(a)  # a bool becomes 0 or 1
        if isinstance(a, Fraction):
            return a.numerator if a.denominator == 1 else a
        raise TypeError(f"cannot coerce {a!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    # through Fraction, since / on two ints gives a float
    def inv(self, a):
        return self.coerce(Fraction(1, a))

    def div(self, a, b):
        return self.coerce(Fraction(a, b))

    def is_square(self, a):
        if a < 0:
            return False
        n, d = a.numerator, a.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def parse(self, s):
        return self.coerce(_parse_fraction(s))

    def to_str(self, a):
        return str(a)


class PrimeField:
    """GF(p) for an odd prime p >= 3; scalars are ints in 0..p-1."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not isinstance(p, int) or p < 3 or p % 2 == 0:
            raise ValueError(f"prime field needs an odd prime >= 3, got {p!r}")
        if p >= MAX_PRIME:
            raise ValueError(f"prime field needs p < 2^32, got {p}")
        d = 3
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
            d += 2
        self.p = p
        self.char = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def from_int(self, a):
        return a % self.p

    def coerce(self, a):
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            return a.numerator % self.p * self.inv(a.denominator % self.p) % self.p
        raise TypeError(f"cannot coerce {a!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_square(self, a):
        a %= self.p
        return a != 0 and pow(a, (self.p - 1) // 2, self.p) == 1

    def parse(self, s):
        return self.coerce(_parse_fraction(s))

    def to_str(self, a):
        return str(a % self.p)


QQ = RationalField()


def _check_same_field(a, b):
    if a != b:
        raise MixedFields(f"mixed ground fields {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# incremental echelon engine (shared by the kernels and Subspace)


class Echelon:
    """Incremental row echelon structure over a fixed field.

    Rows are sparse ``{column: value}`` dicts, held as ``{pivot: row}``.
    Over Q the working rows are integer vectors (denominators cleared on
    entry, gcd stripped after each combination); over GF(p) every row is
    scaled to a unit pivot on entry.  ``finalize`` back-substitutes and, over
    Q, divides each row by its pivot entry, yielding the canonical RREF
    basis of the row space with canonical Q scalars.
    """

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self._rows = {}  # pivot column -> row dict
        self._final = False
        self._sorted_pivots = None

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        return tuple(sorted(self._rows))

    def add(self, row):
        """Insert a vector; returns True if it enlarged the row space."""
        if self._final:
            raise RuntimeError("echelon already finalized")
        return self._insert(self._prepare(row))

    def _prepare(self, row):
        if isinstance(self.field, RationalField):
            if all(type(v) is int for v in row.values()):
                return {c: v for c, v in row.items() if v}
            den = lcm(*(v.denominator for v in row.values()))
            return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        out = {}
        coerce = self.field.coerce
        for c, v in row.items():
            iv = coerce(v)
            if iv:
                out[c] = iv
        return out

    def _insert(self, row):
        rational = isinstance(self.field, RationalField)
        while row:
            lead = min(row)
            prow = self._rows.get(lead)
            if prow is None:
                if rational:
                    g = 0
                    for v in row.values():
                        g = gcd(g, v)
                    if row[lead] < 0:
                        g = -g
                    if g not in (0, 1):
                        row = {c: v // g for c, v in row.items()}
                else:
                    inv = self.field.inv(row[lead])
                    if inv != 1:
                        p = self.field.p
                        row = {c: v * inv % p for c, v in row.items()}
                self._rows[lead] = row
                return True
            if rational:
                a, b = prow[lead], row[lead]
                g = gcd(a, b)
                a //= g
                b //= g
                row = _int_combine(row, a, prow, b)
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
            else:
                row = _mod_combine(row, prow, row[lead], self.field.p)
        return False

    def finalize(self):
        """Back-substitute and normalize pivots to 1 (canonical RREF).

        Rows are cleared from the last pivot up, so each row is combined only
        with rows that are already reduced; those vanish on every other pivot
        column, and only the pivots in the row's own support need a step.
        """
        if self._final:
            return
        rows = self._rows
        pivots = sorted(rows)
        rational = isinstance(self.field, RationalField)
        for p0 in reversed(pivots):
            row = rows[p0]
            for q in [c for c in row if c != p0 and c in rows]:
                qrow = rows[q]
                if rational:
                    a, b = qrow[q], row[q]
                    g = gcd(a, b)
                    a //= g
                    b //= g
                    row = _int_combine(row, a, qrow, b)
                    g = 0
                    for v in row.values():
                        g = gcd(g, v)
                    if row[p0] < 0:
                        g = -g
                    if g not in (0, 1):
                        row = {c: v // g for c, v in row.items()}
                else:
                    row = _mod_combine(row, qrow, row[q], self.field.p)
            rows[p0] = row
        if rational:
            for p0 in pivots:
                row = rows[p0]
                lead = row[p0]
                if lead != 1:
                    rows[p0] = {c: v // lead if v % lead == 0 else Fraction(v, lead)
                                for c, v in row.items()}
        self._sorted_pivots = pivots
        self._final = True

    def reduce(self, vec):
        """Residue of vec modulo the row space (finalizes first).

        The residue is the unique representative supported off the pivot
        columns.
        """
        if not self._final:
            self.finalize()
        return _reduce(self.field, self._rows, {c: x for c, x in vec.items() if x})

    def rows(self):
        """Canonical RREF rows as (pivot, row dict) pairs, pivots ascending."""
        if not self._final:
            self.finalize()
        return [(p, self._rows[p]) for p in self._sorted_pivots]


def _reduce(field, by_pivot, v):
    """Reduce the sparse vector v in place modulo RREF rows ``{pivot: row}``.

    Only the pivots in v's own support get a step: an RREF row vanishes on
    every other pivot column, so subtracting it sets no other pivot entry,
    and the order of the steps does not matter.
    """
    sub, mul, zero = field.sub, field.mul, field.zero
    for p in [c for c in v if c in by_pivot]:
        c = v[p]
        for col, val in by_pivot[p].items():
            nv = sub(v.get(col, zero), mul(c, val))
            if nv:
                v[col] = nv
            else:
                v.pop(col, None)
    return v


def apply_columns(field, cols, vec):
    """Image of the sparse vector vec under the map whose sparse columns are
    cols: the sum of vec[i] * cols[i]."""
    add, mul, zero = field.add, field.mul, field.zero
    out = {}
    for i, c in vec.items():
        for k, w in cols[i].items():
            nv = add(out.get(k, zero), mul(c, w))
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _int_combine(row, a, other, b):
    """a*row - b*other for integer sparse rows."""
    out = {}
    for c, v in row.items():
        out[c] = a * v
    for c, v in other.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _mod_combine(row, other, f, p):
    """row - f*other mod p."""
    out = dict(row)
    for c, v in other.items():
        nv = (out.get(c, 0) - f * v) % p
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """Immutable dense matrix over a fixed field: storage only."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = [tuple(field.coerce(v) for v in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise DimensionMismatch("ragged rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs explicit column count")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        cols = list(cols)
        z = field.zero
        return cls(field, [[col[i] if i < len(col) else z for col in cols] for i in range(nrows)],
                   ncols=len(cols))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def kernel_from_rows(field, width, rows):
    """Kernel of the linear map given by stacked row functionals."""
    ech = Echelon(field, width)
    for r in rows:
        ech.add(dict(r))
    ech.finalize()
    pivot_rows = dict(ech.rows())
    pivots = ech.pivots()
    pivot_set = set(pivots)
    basis = []
    one = field.one
    for f in range(width):
        if f in pivot_set:
            continue
        vec = {f: one}
        for p in pivots:
            c = pivot_rows[p].get(f)
            if c:
                vec[p] = field.neg(c)
        basis.append(vec)
    return Subspace._from_sparse(field, width, basis)


def kernel(m):
    """Right kernel {v : m v = 0} as a Subspace of the column space."""
    return kernel_from_rows(m.field, m.ncols, ({j: v for j, v in enumerate(r) if v}
                                                for r in m.rows))


def kernel_columns(field, cols):
    """Kernel {v : sum of v[i] * cols[i] = 0} of the map whose sparse columns
    are cols, as a Subspace of F^len(cols).  The row keys of the columns may
    be any hashables, such as the tuple (block, index) of a stacked map."""
    rows = {}
    for i, col in enumerate(cols):
        for k, c in col.items():
            rows.setdefault(k, {})[i] = c
    return kernel_from_rows(field, len(cols), rows.values())


def inverse_columns(field, cols):
    """Sparse columns of B^-1, for the square matrix B with sparse columns cols.

    The rows (b_a | e_a) stack to [B^T | I].  Its RREF is [I | (B^-1)^T]
    exactly when no pivot falls in the tag block, and the row at pivot i,
    read in that block, is column i of B^-1.
    """
    n = len(cols)
    ech = Echelon(field, 2 * n)
    for a, col in enumerate(cols):
        if not all(0 <= i < n for i in col):
            raise DimensionMismatch(f"column {a} has an entry outside 0..{n - 1}")
        row = dict(col)
        row[n + a] = field.one
        ech.add(row)
    if ech.pivots() != tuple(range(n)):
        raise LinalgError("matrix is singular")
    return [{t - n: v for t, v in row.items() if t >= n} for _, row in ech.rows()]


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of F^n held as canonical RREF basis rows."""

    __slots__ = ("field", "ambient_dim", "_rows", "pivots", "_by_pivot")

    def __init__(self, field, ambient_dim, rows, pivots, _internal=False):
        if not _internal:
            raise RuntimeError("use Subspace.from_vectors / zero / full")
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows            # tuple of sparse row dicts, pivot order
        self.pivots = pivots         # ascending pivot columns
        self._by_pivot = dict(zip(pivots, rows))

    @classmethod
    def _from_sparse(cls, field, n, vectors):
        ech = Echelon(field, n)
        for v in vectors:
            ech.add(dict(v))
        ech.finalize()
        rows = tuple(row for _, row in ech.rows())
        return cls(field, n, rows, ech.pivots(), _internal=True)

    @classmethod
    def from_vectors(cls, field, n, vectors):
        sparse = []
        for v in vectors:
            if isinstance(v, dict):
                sparse.append({j: field.coerce(x) for j, x in v.items()})
            else:
                if len(v) != n:
                    raise DimensionMismatch(f"vector length {len(v)} in ambient {n}")
                sparse.append({j: field.coerce(x) for j, x in enumerate(v) if x})
        return cls._from_sparse(field, n, sparse)

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, (), (), _internal=True)

    @classmethod
    def full(cls, field, n):
        one = field.one
        rows = tuple({i: one} for i in range(n))
        return cls(field, n, rows, tuple(range(n)), _internal=True)

    @property
    def dim(self):
        return len(self._rows)

    def basis_vectors(self):
        z = self.field.zero
        return [tuple(r.get(j, z) for j in range(self.ambient_dim)) for r in self._rows]

    def sparse_rows(self):
        return list(self._rows)

    def reduce(self, vec):
        """Residue of the sparse vector vec modulo this subspace, as a sparse dict."""
        coerce = self.field.coerce
        v = {j: y for j, x in vec.items() if x and (y := coerce(x))}
        return _reduce(self.field, self._by_pivot, v)

    def contains(self, vec):
        return not self.reduce(vec)

    def contains_subspace(self, other):
        self._check_compatible(other)
        return all(not self.reduce(r) for r in other._rows)

    def coords(self, vec):
        """Sparse coefficients {s: c} of vec on the RREF basis rows; NotContained
        if outside.  Row s is the only basis row nonzero at the s-th pivot, so
        its coefficient is vec's entry there."""
        if self.reduce(vec):
            raise NotContained("vector outside subspace")
        coerce = self.field.coerce
        return {s: c for s, p in enumerate(self.pivots) if p in vec and (c := coerce(vec[p]))}

    def _check_compatible(self, other):
        _check_same_field(self.field, other.field)
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions disagree")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim
                and other.pivots == self.pivots and other._rows == self._rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


def subspace_sum(u, v):
    u._check_compatible(v)
    return Subspace._from_sparse(u.field, u.ambient_dim, list(u._rows) + list(v._rows))


def subspace_intersect(u, v):
    """U cap V via left-kernel coefficients on stacked bases."""
    u._check_compatible(v)
    urows = u.sparse_rows()
    vrows = v.sparse_rows()
    if not urows or not vrows:
        return Subspace.zero(u.field, u.ambient_dim)
    # coefficient vectors (a, b) with a*U + b*V = 0 give points a*U of the intersection
    coeff_kernel = kernel_columns(u.field, urows + vrows)
    vectors = []
    for coeff in coeff_kernel.sparse_rows():
        vec = apply_columns(u.field, urows, {i: a for i, a in coeff.items() if i < len(urows)})
        if vec:
            vectors.append(vec)
    return Subspace._from_sparse(u.field, u.ambient_dim, vectors)


def complement(u, w):
    """W's RREF rows at the pivots U lacks: a basis of W modulo U, for U inside W.

    A vector in the span of RREF rows leads at one of their pivots, so the
    pivots of U are pivots of W and these rows span a complement of U.
    """
    u._check_compatible(w)
    if not w.contains_subspace(u):
        raise NotContained("U is not contained in W")
    inner = set(u.pivots)
    return [w._by_pivot[p] for p in w.pivots if p not in inner]
