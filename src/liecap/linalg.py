"""Exact linear algebra over the rationals and odd prime fields.

A scalar over Q is a plain ``int`` when it is integral and a
``fractions.Fraction`` with denominator above 1 otherwise; over GF(p) it is
a canonical residue ``0..p-1``.  There is no per-element wrapper type.  Row
reduction over Q is fraction-free: integer rows, each stored primitive
(content 1, positive lead) and stripped of its content after a combination
that scaled it, so entries stay small during elimination and results are
exact bit for bit.  The rows stay integer through the back-substitution:
``Echelon.finalize`` divides no row by its lead, a residue is cleared
against the integer rows and divided once per surviving entry
(``Echelon.reduce``), and a caller that can carry one common scale reads
the integer rows as they stand (``Echelon.reduced_rows``).  Only
``Echelon.rows`` divides, forming the canonical RREF on its first call.

Vectors are sparse ``{index: value}`` dicts, and a linear map is a list of
sparse columns, column i being the image of the i-th basis vector.
``accumulate`` (out += c * v) and the two column-clearing steps,
``_clear_int`` over Q and ``_clear_mod`` over GF(p), are the only sparse
combinations.  ``apply_columns`` is one ``accumulate`` per column, and so
is a residue modulo finished RREF rows.  Every column cleared against the
working rows of an echelon, whether in its insertion, in its
back-substitution, in a residue over Q or in ``basis_coordinates``, is
cleared by one of the two steps.  Subspaces are stored in reduced row
echelon form, which makes equality structural: two equal subspaces have
identical basis matrices.  Every subspace, every kernel and im d3 come
from one elimination, ``Elimination``: it peels the structural pivots (a
vector with a single nonzero entry spans a unit row, whose column is struck
from the others, until no new singleton appears) and row-reduces only what
is left with ``Echelon``.  The unit columns and the echelon rows are then a basis of
the span, and their pivots are those of its RREF.  A residue modulo the
span is read off that pair as it stands (``Elimination.reduce``): the unit
columns stay a set, whose entries are dropped, and only the echelon rows
are back-substituted, on first use; the RREF, with a unit row per unit
column, is built only for a ``Subspace``.  A caller that finds unit
columns while building its vectors hands them over as columns, with no
vector built.  A kernel takes one elimination and no second: its
functionals are eliminated in reversed column order, and the kernel's RREF
is read straight off the echelon rows (``kernel_from_rows``), with no unit
row built.  Likewise the images of an RREF coefficient basis under RREF
rows are already in RREF (``Subspace.lift``).  Coordinates on a basis of
F^n are read off the echelon of its columns before back-substitution
(``basis_coordinates``), by clearing a scaled row against it with the same
steps, with no inverse formed.  The dense ``Matrix`` only stores the
boundary matrices ``ce_d2`` and ``ce_d3``, the reference that the tests
compare the sparse route against.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm


class LiecapError(Exception):
    """Base of every error liecap raises on bad input or an unmet hypothesis."""


# the longest value an error message repeats; a longer one is named by its
# type and length, so a malformed input never prints itself back
SHOWN_CHARS = 40


def _shown(v, form=repr):
    """``form(v)`` when it is at most SHOWN_CHARS long, else v named by its
    type and length."""
    text = form(v)
    if len(text) <= SHOWN_CHARS:
        return text
    kind = type(v).__name__
    article = "an" if kind[0] in "aeiou" else "a"
    if isinstance(v, (str, list, dict)):
        return f"{article} {kind} of length {len(v)}"
    return f"{article} {kind} of {len(text)} characters"


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
    denominator above 1 otherwise.  ``add``/``mul``/``neg`` may return
    a ``Fraction`` with denominator 1, which is the same value; ``coerce``,
    ``Echelon.rows`` and the residues of ``Echelon.reduce`` and
    ``Subspace.reduce`` give the canonical form where values are stored or
    returned, in every algebra table and every ``Subspace``.  Elimination
    itself works on integer rows and forms no scalar until a row or a
    residue is read.
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

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    # through Fraction, since / on two ints gives a float
    def inv(self, a):
        return self.coerce(Fraction(1, a))

    def div(self, a, b):
        return self.coerce(Fraction(a, b))

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
            raise ValueError(f"prime field needs an odd prime >= 3, got {_shown(p)}")
        if p >= MAX_PRIME:
            raise ValueError(f"prime field needs p < 2^32, got {_shown(p)}")
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
    Over Q the working rows are integer vectors, denominators cleared on
    entry.  Insertion, back-substitution, ``reduce`` over Q and
    ``basis_coordinates`` clear a column against a held working row by the
    same step per field, and no other code does: ``_clear_int`` over Q,
    which keeps integers, and ``_clear_mod`` over GF(p).  Each row is made
    primitive with a positive lead when it is stored, so the held rows are
    the same whichever steps skipped the strip of their content: each is
    the one primitive multiple of the same vector.  Over GF(p) every row is scaled to a unit pivot
    when stored.  ``finalize`` back-substitutes and divides nothing: over
    Q each held row stays an integer row with a positive lead, zero at
    every other pivot (``reduced_rows``), and ``reduce`` clears against
    those rows with one running scale.  ``rows`` divides each row by its
    lead, on its first call, and keeps the canonical RREF basis of the row
    space with canonical Q scalars.

    ``Elimination`` hands it, through ``_insert``, only the prepared
    vectors left after the structural pivots are peeled; ``covers``,
    ``algebra.adapted_basis`` and the tagged echelon behind
    ``basis_coordinates`` call ``add``, which prepares a copy of each
    vector.
    """

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self._rows = {}  # pivot column -> row dict
        self._final = False
        self._sorted_pivots = None
        self._rref = None  # the canonical rows, formed by the first ``rows``

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        return tuple(sorted(self._rows))

    def add(self, row):
        """Insert a vector; returns True if it enlarged the row space."""
        if self._final:
            raise RuntimeError("echelon already finalized")
        return self._insert(_prepare(self.field, row))

    def _insert(self, row):
        p = self.field.char
        rows = self._rows
        while row:
            lead = min(row)
            held = rows.get(lead)
            if held is None:
                if p:
                    inv = self.field.inv(row[lead])
                    if inv != 1:
                        row = {c: v * inv % p for c, v in row.items()}
                else:
                    g = 0
                    for v in row.values():
                        g = gcd(g, v)
                    if row[lead] < 0:
                        g = -g
                    if g not in (0, 1):
                        row = {c: v // g for c, v in row.items()}
                rows[lead] = row
                return True
            row = _clear_mod(row, held, lead, p) if p else _clear_int(row, held, lead)
        return False

    def finalize(self):
        """Back-substitute: afterwards each held row vanishes at every other
        pivot, and over Q it stays an integer row with a positive lead.

        Rows are cleared from the last pivot up, so each row is combined only
        with rows that are already reduced; those vanish on every other pivot
        column, and only the pivots in the row's own support need a step.
        Over Q a row keeps its positive lead: the row it is cleared against
        is zero at that column, so a step only scales the lead by that row's
        own positive lead over a gcd, and a strip divides it by a positive
        content.  No row is divided by its lead here; ``rows`` does that.
        """
        if self._final:
            return
        rows = self._rows
        pivots = sorted(rows)
        p = self.field.char
        for p0 in reversed(pivots):
            row = rows[p0]
            for q in [c for c in row if c != p0 and c in rows]:
                row = _clear_mod(row, rows[q], q, p) if p else _clear_int(row, rows[q], q)
            rows[p0] = row
        self._sorted_pivots = pivots
        self._final = True

    def reduced_rows(self):
        """The back-substituted rows as held, ``{pivot: row}`` (finalizes
        first): each vanishes at every other pivot and leads at its own
        with a positive integer over Q, 1 over GF(p).  The canonical RREF
        row at a pivot is the held row divided by its lead."""
        if not self._final:
            self.finalize()
        return self._rows

    def reduce(self, vec):
        """Residue of vec modulo the row space (finalizes first), with
        canonical values when vec's are, as ``Elimination.reduce`` hands
        them over.

        The residue is the unique representative supported off the pivot
        columns.  A held row vanishes at every other pivot, so only the
        pivots in vec's own support need a step, and no step sets another
        pivot entry.  Over Q it is fraction-free, as ``basis_coordinates``
        is: the row (vec | 1), its scale s at column ``width``, where no
        row has an entry, is scaled to integers and cleared against the
        held integer rows with ``_clear_int``, which scales and strips s
        with the rest, and each surviving entry is divided by s once.
        """
        if not self._final:
            self.finalize()
        rows = self._rows
        v = {c: x for c, x in vec.items() if x}
        hit = [c for c in v if c in rows]
        if not hit:
            return v
        if self.field.char:
            return _reduce(self.field, rows, v)
        scale = self.width
        v[scale] = 1
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if type(sum(v.values())) is not int:
            v = _prepare(self.field, v)
        for t in hit:
            v = _clear_int(v, rows[t], t)
        s = v.pop(scale)
        if s == 1:
            return v
        return {c: x // s if x % s == 0 else Fraction(x, s) for c, x in v.items()}

    def rows(self):
        """Canonical RREF rows as (pivot, row dict) pairs, pivots ascending,
        with canonical scalars: over Q each held row divided by its lead,
        formed on the first call and kept."""
        if self._rref is None:
            rows = self.reduced_rows()
            if not self.field.char:
                rows = {t: row if (lead := row[t]) == 1 else
                        {c: v // lead if v % lead == 0 else Fraction(v, lead)
                         for c, v in row.items()}
                        for t, row in rows.items()}
            self._rref = [(t, rows[t]) for t in self._sorted_pivots]
        return self._rref


def _prepare(field, row, last=None):
    """A fresh copy of the sparse vector row with the values elimination
    works on: canonical and nonzero, and over Q integers (the row scaled by
    the lcm of its denominators).  With last given, the entry at column c
    is written at column last - c, in reversed column order."""
    if isinstance(field, RationalField):
        if last is None:
            out = {c: v for c, v in row.items() if v}
        else:
            out = {last - c: v for c, v in row.items() if v}
        for v in out.values():
            if type(v) is not int:
                den = lcm(*(v.denominator for v in out.values()))
                return {c: v.numerator * (den // v.denominator) for c, v in out.items()}
        return out
    p, coerce = field.p, field.coerce
    if last is None:
        return {c: iv for c, v in row.items()
                if (iv := v % p if type(v) is int else coerce(v))}
    return {last - c: iv for c, v in row.items()
            if (iv := v % p if type(v) is int else coerce(v))}


class Elimination:
    """The span of vectors over columns 0..width-1, eliminated up to the
    back-substitution: the one elimination behind every ``Subspace``,
    every kernel and im d3.

    The vectors must come prepared: dicts of their own, which the peel
    strikes in place, holding canonical nonzero values.  ``_prepare`` makes
    such a copy of a borrowed vector; a builder of fresh vectors hands its
    own over.  ``units`` is the set of columns t with e_t known to lie in
    the span, given by the caller or empty; a vector with a single nonzero
    entry joins it.  The structural pivots are then peeled (``_peel``), and
    only the vectors left go through ``Echelon``.  Over Q a vector that
    still holds a non-integer is scaled to integers on its way in, the one
    copy it gets.  Vectors stop being read once the unit columns alone
    reach the width, and stop going through ``Echelon`` once the rank does;
    the span is then the whole space.

    The echelon rows vanish on the unit columns, so the unit columns and
    the echelon rows as they stand are a basis of the span, and their
    pivots are the pivots of its RREF.  ``reduce`` and the kernels read
    the span as that pair and back-substitute the echelon rows
    (``Echelon.finalize``) on first use; ``rref``, which adds a unit row
    per unit column, is called only for a ``Subspace``.
    """

    __slots__ = ("field", "width", "units", "echelon")

    def __init__(self, field, width, vectors, units=None):
        self.field = field
        self.width = width
        self.units = units = set() if units is None else units
        self.echelon = ech = Echelon(field, width)
        if len(units) == width:
            return
        vecs = []
        for row in vectors:
            if len(row) == 1:
                units.update(row)
                if len(units) == width:
                    return
            elif row:
                vecs.append(row)
        if units and vecs:
            _peel(units, vecs)
        rational = isinstance(field, RationalField)
        for row in vecs:
            if row:
                # a sum of ints is an int, and one Fraction makes it a Fraction
                if rational and type(sum(row.values())) is not int:
                    row = _prepare(field, row)
                ech._insert(row)
                if len(units) + ech.rank == width:
                    return

    @property
    def rank(self):
        return len(self.units) + self.echelon.rank

    def reduce(self, vec):
        """Residue of the sparse vector vec modulo the span, equal to
        ``subspace().reduce(vec)`` with no unit row built: the entries at
        the unit columns are dropped, and what is left is reduced by the
        echelon rows, back-substituted on first use (``Echelon.reduce``).
        The echelon rows vanish on the unit columns, so no step writes one
        back."""
        coerce, units = self.field.coerce, self.units
        return self.echelon.reduce(
            {j: y for j, x in vec.items() if x and j not in units and (y := coerce(x))})

    def echelon_rows(self):
        """The echelon rows as they stand, not back-substituted; with the
        unit columns, a basis of the span."""
        return self.echelon._rows.values()

    def free_columns(self):
        """The ascending columns that are not pivots of the span's RREF."""
        if self.rank == self.width:
            return ()
        pivots = self.units.union(self.echelon._rows)
        return tuple(t for t in range(self.width) if t not in pivots)

    def rref(self):
        """Canonical RREF of the span, as ``(pivots, rows)`` with the pivots
        ascending: the unit rows and the back-substituted echelon rows,
        which vanish on the unit columns as the echelon rows do."""
        one, width = self.field.one, self.width
        if self.rank == width:
            return tuple(range(width)), tuple({i: one} for i in range(width))
        by_pivot = {t: {t: one} for t in self.units}
        if self.echelon.rank:
            by_pivot.update(self.echelon.rows())
        pivots = tuple(sorted(by_pivot))
        return pivots, tuple(by_pivot[p] for p in pivots)

    def subspace(self):
        pivots, rows = self.rref()
        return Subspace(self.field, self.width, rows, pivots, _internal=True)


def _peel(units, vecs):
    """Strike the unit columns from vecs in place, growing units to its
    fixed point.  A vector with exactly one nonzero entry left spans the
    unit row at that column, which is struck from every other vector in
    turn, until no new singleton appears.  Only the unit columns that
    some vector holds are queued; the units im d3 hands over are held by
    none."""
    holders = defaultdict(list)  # column -> the vectors with an entry there
    for a, row in enumerate(vecs):
        for c in row:
            holders[c].append(a)
    queue = [t for t in units if t in holders]
    while queue:
        t = queue.pop()
        for a in holders.pop(t, ()):
            row = vecs[a]
            del row[t]
            if len(row) == 1:
                (s,) = row
                if s not in units:
                    units.add(s)
                    queue.append(s)


def _reduce(field, by_pivot, v):
    """Reduce the sparse vector v in place modulo RREF rows ``{pivot: row}``.

    Only the pivots in v's own support get a step: an RREF row vanishes on
    every other pivot column, so subtracting it sets no other pivot entry,
    and the order of the steps does not matter.  Over Q an entry that a
    step made an integral Fraction becomes an int, so canonical values
    give canonical values.
    """
    neg = field.neg
    hit = [c for c in v if c in by_pivot]
    for p in hit:
        accumulate(field, v, neg(v[p]), by_pivot[p])
    if hit and not field.char:
        for c, x in v.items():
            if type(x) is not int and x.denominator == 1:
                v[c] = x.numerator
    return v


def accumulate(field, out, c, v):
    """out += c * v for sparse vectors, in place, dropping the entries that
    cancel.  The field's + and * are written out: over GF(p) one reduction
    mod p per entry gives the same residue as ``add`` of ``mul``."""
    get, p = out.get, field.char
    for k, w in v.items():
        nv = get(k, 0) + c * w
        if p:
            nv %= p
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


def apply_columns(field, cols, vec):
    """Image of the sparse vector vec under the map whose sparse columns are
    cols: the sum of vec[i] * cols[i]."""
    out = {}
    for i, c in vec.items():
        accumulate(field, out, c, cols[i])
    return out


def _clear_int(row, held, col):
    """a*row - b*held for integer sparse rows, with a and b the entries of
    held and row at col over their gcd: a row zero at col.  Its content is
    stripped only when a is not 1; a row not scaled gains little."""
    a, b = held[col], row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    out = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
    for c, v in held.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    if a != 1:
        g = 0
        for v in out.values():
            g = gcd(g, v)
        if g > 1:
            out = {c: v // g for c, v in out.items()}
    return out


def _clear_mod(row, held, col, p):
    """row - row[col]*held mod p, for held with the entry 1 at col: a row
    zero at col."""
    f = row[col]
    out = dict(row)
    for c, v in held.items():
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
    """Kernel of the linear map given by stacked row functionals over
    columns 0..width-1, in one elimination.

    The functionals are eliminated in reversed column order (column c at
    width-1-c).  Read back, each RREF row then ends at its pivot P, its
    largest column, and its other entries sit at free columns f < P.  So
    e_f minus the sum of row_P[f] e_P, the kernel vector of a free column
    f, leads at f with the value 1 and vanishes at every other free column:
    by ascending f, these vectors are already the kernel's canonical RREF.
    A unit row {P: 1} has no entry at a free column, so only the echelon
    rows are read, and a span of full rank, whose kernel is zero, reads
    none.
    """
    last = width - 1
    span = Elimination(field, width, (_prepare(field, r, last) for r in rows))
    basis = {}
    if span.rank < width:
        neg, one = field.neg, field.one
        basis = {last - c: {last - c: one} for c in reversed(span.free_columns())}
        for p, row in span.echelon.rows():
            for c, v in row.items():
                if c != p:
                    basis[last - c][last - p] = neg(v)
    return Subspace(field, width, tuple(basis.values()), tuple(basis), _internal=True)


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


def _tagged_echelon(field, cols):
    """The rows (b_a | e_a) for the sparse columns b_a of a square matrix B,
    through one Echelon, not back-substituted.  They stack to [B^T | I],
    and B is invertible exactly when every pivot falls left of the tag
    block."""
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
    return ech


def basis_coordinates(field, cols):
    """The map v -> {a: x_a} with v = sum of x_a cols[a], for the sparse
    columns cols of a basis of F^n, with no inverse formed.

    The row (v | 0 | 1), its scale at column 2n, is cleared against the rows
    (b_a | e_a) as their echelon holds them, lead by lead, with the
    echelon's own step: ``_clear_int`` over Q, ``_clear_mod`` over GF(p).
    No row has an entry at column 2n, so each step subtracts a combination
    of the b_a and adds the same combination to the tag block, and
    (0 | -s x | s) is left.  Over Q the row is integer throughout: v comes
    scaled by the lcm of its denominators, which starts the scale s, and a
    step scales and strips the scale with the rest of the row.  Over GF(p)
    every held row has a unit lead, so s stays 1.
    """
    n = len(cols)
    rows = _tagged_echelon(field, cols)._rows
    p, scale = field.char, 2 * n

    def coords(v):
        w = _prepare(field, {**v, scale: 1})
        while (lead := min(w)) < n:
            w = _clear_mod(w, rows[lead], lead, p) if p else _clear_int(w, rows[lead], lead)
        s = w.pop(scale)
        if p:
            return {t - n: -x % p for t, x in w.items()}
        return {t - n: -x // s if x % s == 0 else Fraction(-x, s) for t, x in w.items()}
    return coords


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of F^n held as canonical RREF basis rows."""

    __slots__ = ("field", "ambient_dim", "_rows", "pivots", "_by_pivot")

    def __init__(self, field, ambient_dim, rows, pivots, _internal=False):
        if not _internal:
            raise RuntimeError("use Subspace.from_vectors / full")
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows            # tuple of sparse row dicts, pivot order
        self.pivots = pivots         # ascending pivot columns
        self._by_pivot = dict(zip(pivots, rows))

    @classmethod
    def _from_sparse(cls, field, n, vectors):
        return Elimination(field, n, (_prepare(field, v) for v in vectors)).subspace()

    @classmethod
    def from_vectors(cls, field, n, vectors):
        sparse = []
        for v in vectors:
            if isinstance(v, dict):
                if not all(0 <= j < n for j in v):
                    raise DimensionMismatch(f"vector index outside 0..{n - 1}")
                sparse.append({j: field.coerce(x) for j, x in v.items()})
            else:
                if len(v) != n:
                    raise DimensionMismatch(f"vector length {len(v)} in ambient {n}")
                sparse.append({j: field.coerce(x) for j, x in enumerate(v) if x})
        return cls._from_sparse(field, n, sparse)

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

    def lift(self, space):
        """The span of the combinations of space's RREF rows z_t, with this
        subspace's rows as coefficients, in RREF without an elimination.

        A coefficient row a with pivot s combines only rows z_t with t >= s,
        so the combination leads at the s-th pivot of space with the value
        1; at the t-th pivot of space it takes a_t, which is 0 at the other
        pivots t of this subspace.
        """
        if self.ambient_dim != space.dim:
            raise DimensionMismatch("one coefficient per row of space")
        field = space.field
        coerce, zrows = field.coerce, space._rows
        rows = tuple({c: coerce(v) for c, v in apply_columns(field, zrows, a).items()}
                     for a in self._rows)
        return Subspace(field, space.ambient_dim, rows,
                        tuple(space.pivots[s] for s in self.pivots), _internal=True)

    def reduce(self, vec):
        """Residue of the sparse vector vec modulo this subspace, as a sparse
        dict of canonical scalars."""
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
