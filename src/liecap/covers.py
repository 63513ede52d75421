"""Free nilpotent Lie algebras on Hall bases and the covers built from them.

The cover of a nilpotent algebra L with d generators and class c is
L* = F/[R,F], where F is the free nilpotent algebra F(d, c+1) and R the
kernel of the presentation F -> L.  Computing inside F(d, c+1) loses
nothing: the relation ideal contains the (c+1)st lower central term, so
brackets of R against F in any deeper truncation land in killed degrees.

From the cover come, in one sweep:
  * the multiplier as ker(L* -> L), matching the homology route,
  * the nonabelian exterior square as the derived subalgebra of L*,
  * the exterior center of L as the image of Z(L*) in L.

The user-facing invariants come from Lambda^2 L / im d3 in ``homology``;
this module is the independent route the tests compare them against, and
the source of ``liecap cover``.  Its functions take a ``Cover``.

The span of [R, F] is generated by brackets of an R-basis against the free
generators alone: [r, [u,v]] = [[r,u],v] - [[r,v],u] and both inner brackets
stay inside R because R is an ideal, so induction on word degree closes the
span.  A one-shot closure assertion guards the implementation anyway.
The star table is ``algebra.quotient`` of F by that span, relabelled.
"""

from __future__ import annotations

from .algebra import (
    AlgebraMap,
    LieAlgebra,
    center,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    minimal_generator_count,
    nilpotency_class,
    quotient,
    subalgebra_on,
    NotNilpotent,
)
from .catalog import abelian_algebra
from .homology import diagonal_square_dim
from .linalg import QQ, Echelon, LiecapError, Subspace, kernel_columns


class ResourceLimit(LiecapError):
    """A free algebra would exceed the basis-word cap ``WORD_LIMIT``."""


WORD_LIMIT = 5000


class HallWord:
    """A basis word of the free Lie algebra: a generator or a bracket [u, v].

    Non-leaf words satisfy the Hall conditions for the degree-compatible
    order: u > v, and when u = [a, b] also b <= v.
    """

    __slots__ = ("gen", "left", "right", "degree", "rank")

    def __init__(self, gen=None, left=None, right=None, degree=1, rank=0):
        self.gen = gen
        self.left = left
        self.right = right
        self.degree = degree
        self.rank = rank

    def __repr__(self):
        if self.gen is not None:
            return f"x{self.gen + 1}"
        return f"[{self.left!r},{self.right!r}]"


def hall_basis(d, c):
    """The Hall words on d generators through degree c, in canonical order."""
    if d < 0 or c < 1:
        raise ValueError("need d >= 0 and c >= 1")
    by_degree = [[]]
    words = []

    def push(w):
        w.rank = len(words)
        words.append(w)
        by_degree[w.degree].append(w)
        if len(words) > WORD_LIMIT:
            raise ResourceLimit(
                f"Hall basis for d={d}, c={c} exceeds {WORD_LIMIT} words")

    by_degree.append([])
    for g in range(d):
        push(HallWord(gen=g, degree=1))
    for n in range(2, c + 1):
        by_degree.append([])
        for dv in range(1, n // 2 + 1):
            du = n - dv
            for v in by_degree[dv]:
                for u in by_degree[du]:
                    if u.rank <= v.rank:
                        continue
                    if u.gen is None and u.right.rank > v.rank:
                        continue
                    push(HallWord(left=u, right=v, degree=n))
    return words


class FreeNilpotent:
    """F(d, c) with its Hall-word basis and integer structure constants."""

    def __init__(self, d, c):
        self.d = d
        self.c = c
        self.words = hall_basis(d, c)
        self.dim = len(self.words)
        self._word_rank = {(w.left.rank, w.right.rank): w.rank
                           for w in self.words if w.gen is None}
        self._products = {}
        table = {}
        for j, w in enumerate(self.words):
            for i in range(j):
                if self.words[i].degree + w.degree > c:
                    continue
                prod = self.product(i, j)
                if prod:
                    table[(i, j)] = prod
        self.algebra = LieAlgebra(QQ, self.dim, table,
                                  labels=tuple(repr(w) for w in self.words))

    def algebra_over(self, field):
        if field == QQ:
            return self.algebra
        return LieAlgebra(
            field, self.dim,
            {ij: {k: field.from_int(v) for k, v in row.items()}
             for ij, row in self.algebra.table.items()},
            labels=self.algebra.labels)

    def product(self, i, j):
        """[w_i, w_j] expanded over the Hall basis (integer coefficients),
        for two words whose degrees sum to at most c; the rewriting keeps
        that sum."""
        if i == j:
            return {}
        if i > j:
            return {k: -v for k, v in self.product(j, i).items()}
        key = (i, j)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        # orient as [u, v] with u = w_j the larger word and v = w_i
        u = self.words[j]
        w = self._word_rank.get((j, i))
        if w is not None:
            out = {w: -1}  # [w_i, w_j] = -[u, v] = -w
        else:
            # u = [a, b] with b > v; [u,v] = [[a,v],b] + [a,[b,v]]
            a, b = u.left.rank, u.right.rank
            acc = {}
            for t, ct in self.product(i, a).items():   # [v, a] = -[a, v]
                for s, cs in self.product(t, b).items():
                    acc[s] = acc.get(s, 0) - ct * cs    # -[..] since flipped
            for t, ct in self.product(i, b).items():   # [v, b] = -[b, v]
                for s, cs in self.product(a, t).items():
                    acc[s] = acc.get(s, 0) - ct * cs
            out = {k: -v2 for k, v2 in acc.items() if v2}
        self._products[key] = out
        return out


_FREE_CACHE = {}


def free_nilpotent(d, c):
    """Memoized F(d, c); degree-graded, validated in tests."""
    key = (d, c)
    hit = _FREE_CACHE.get(key)
    if hit is None:
        hit = FreeNilpotent(d, c)
        _FREE_CACHE[key] = hit
    return hit


def default_generator_lift(algebra):
    """Coordinate lifts of the non-pivot complement of L^2, in label order."""
    pivots, one = set(derived_subalgebra(algebra).pivots), algebra.field.one
    return [{i: one} for i in range(algebra.dim) if i not in pivots]


class Cover:
    """The cover L* = F/[R, F] with its projection onto L.

    ``multiplier_part`` is ker(pi) = R/[R,F], central in L*, of the same
    dimension as the homology-route multiplier; ``derived_part`` carries the
    nonabelian exterior square.  The star is ``algebra.quotient`` of the free
    algebra by the [R, F] span, built lazily so dimension-only sweeps skip
    its table; ``pi`` sends each kept word w to phi(w).
    """

    def __init__(self, algebra, lift=None, extra_class=0):
        if not is_nilpotent(algebra):
            raise NotNilpotent("covers need a nilpotent algebra")
        self.algebra = algebra
        field = algebra.field
        d = minimal_generator_count(algebra)
        c = nilpotency_class(algebra)
        self.gen_count = d
        self.cls = c
        self.free = free_nilpotent(d, c + 1 + extra_class)
        free_alg = self.free.algebra_over(field)
        self._free_alg = free_alg
        if lift is None:
            lift = default_generator_lift(algebra)
        if len(lift) != d:
            raise ValueError(f"lift must provide {d} generators")
        lift = [{i: field.coerce(v) for i, v in g.items()} for g in lift]
        self.lift = lift

        # evaluate the presentation on every Hall word
        phi = []
        for w in self.free.words:
            if w.gen is not None:
                phi.append(lift[w.gen])
            else:
                phi.append(algebra.bracket_sparse(phi[w.left.rank], phi[w.right.rank]))
        self.phi = phi

        # R = ker(phi); every word of degree above c maps to zero
        relations = kernel_columns(field, phi)
        if self.free.dim - relations.dim != algebra.dim:
            raise ValueError("generator lift does not generate the algebra")

        # span of [R, F]: an R-basis bracketed against the generators
        span = Echelon(field, self.free.dim)
        one = field.one
        gens = [{g: one} for g in range(d)]
        for r in relations.sparse_rows():
            for g in gens:
                v = free_alg.bracket_sparse(r, g)
                if v:
                    span.add(v)
        span.finalize()
        self._span = span
        self.multiplier_dim = relations.dim - span.rank
        self.star_dim = self.free.dim - span.rank

        # one-shot ideal closure assertion for the [R, F] span
        for _, row in span.rows():
            for g in gens:
                v = free_alg.bracket_sparse(row, g)
                if v and span.reduce(v):
                    raise AssertionError("[R,F] span failed ideal closure")

        self._star = None
        self._pi = None

    # -- lazy star ---------------------------------------------------------

    def _build_star(self):
        if self._star is not None:
            return
        free_alg = self._free_alg
        # the echelon's canonical RREF rows, formed on their first read
        rref = self._span.rows()
        span = Subspace(free_alg.field, free_alg.dim, tuple(row for _, row in rref),
                        tuple(p for p, _ in rref), _internal=True)
        star, _ = quotient(free_alg, span)
        star = star.relabel(tuple(f"s{t + 1}" for t in range(star.dim)))
        pivots = set(span.pivots)
        kept = [i for i in range(free_alg.dim) if i not in pivots]
        assert star.dim == self.algebra.dim + self.multiplier_dim
        self._star = star
        self._pi = AlgebraMap(star, self.algebra, tuple(self.phi[col] for col in kept))

    @property
    def star(self):
        self._build_star()
        return self._star

    @property
    def pi(self):
        self._build_star()
        return self._pi

    @property
    def multiplier_part(self):
        """ker(pi) = R/[R,F] as a subspace of the star algebra."""
        return kernel_columns(self.star.field, self.pi.columns)

    @property
    def derived_part(self):
        return derived_subalgebra(self.star)


def exterior_square(cover):
    """L ^ L, realized as the derived subalgebra of the cover."""
    sub, _ = subalgebra_on(cover.star, cover.derived_part)
    return sub


def exterior_center(cover):
    """Z^(L) = {l : l ^ l' = 0 for all l'}, the image of Z(L*) under pi."""
    algebra = cover.algebra
    z_star = center(cover.star)
    vectors = [cover.pi.apply(v) for v in z_star.sparse_rows()]
    space = Subspace.from_vectors(algebra.field, algebra.dim, vectors)
    assert center(algebra).contains_subspace(space)
    return space


def tensor_square(cover):
    """L x L = (L ^ L) + diagonal ideal; the diagonal part is abelian."""
    wedge = exterior_square(cover)
    diag = abelian_algebra(diagonal_square_dim(cover.algebra), cover.algebra.field)
    return direct_sum(wedge, diag)
