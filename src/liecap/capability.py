"""Capability verdicts and the cross-checks tying the three routes together.

A nilpotent algebra is capable exactly when its exterior center vanishes.
The decision procedure is the exterior center read off Lambda^2 L / im d3
in ``homology``; the one dimensional test through multiplier dimensions and
the injectivity of the induced multiplier map are independent certificates
that must agree with it line by line.

The exterior-center bound reads M(L/Z^(L)) and the capability of
L^2/Z^(L).  Z^(L) lies in L^2, so L^2/Z^(L) = (L/Z^(L))^2, the derived
algebra of the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .algebra import (
    center,
    derived_subalgebra,
    is_nilpotent,
    quotient,
    subalgebra_on,
)
from .homology import NotCentral, schur_multiplier
from .linalg import QQ, LiecapError, Subspace, apply_columns


class WrongDimension(LiecapError):
    pass


def dagger_test(algebra, line):
    """dim M(L) == dim M(L/K) - dim(L^2 cap K) for a central line K.

    True exactly when K lies inside the exterior center.
    """
    if line.dim != 1:
        raise WrongDimension("the test applies to one dimensional ideals")
    if not center(algebra).contains_subspace(line):
        raise NotCentral("K must be central")
    multiplier = schur_multiplier(algebra)
    q, _ = quotient(algebra, line)
    lhs = multiplier.dim
    # K is a line, so dim(L^2 cap K) is 1 exactly when K lies in L^2
    cap = int(derived_subalgebra(algebra).contains_subspace(line))
    return lhs == schur_multiplier(q).dim - cap


def central_test_lines(algebra):
    """Deterministic central lines: basis lines, pairwise sums and differences."""
    z = center(algebra)
    f = algebra.field
    rows = z.sparse_rows()
    seen = set()
    out = []

    def push(vec):
        s = Subspace.from_vectors(f, algebra.dim, [vec])
        key = tuple(sorted((c, f.to_str(v)) for c, v in s.sparse_rows()[0].items()))
        if key not in seen:
            seen.add(key)
            out.append(s)

    for r in rows:
        push(r)
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            push(apply_columns(f, rows, {a: f.one, b: f.one}))
            minus = apply_columns(f, rows, {a: f.one, b: f.neg(f.one)})
            if minus:
                push(minus)
    if len(rows) > 2:
        push(apply_columns(f, rows, dict.fromkeys(range(len(rows)), f.one)))
    return out


def noncapable_census(max_dim, field=QQ, epsilon_samples=catalog.DEFAULT_EPSILON_SAMPLES,
                      *, homology=None):
    """Keys of the noncapable catalog entries through max_dim; homology
    stands in for ``schur_multiplier``, as in ``theorem2_bound_check``.
    A max_dim above 6 raises ``UnsupportedDimension`` from the catalog's
    key list, before any entry is built."""
    homology = homology or schur_multiplier
    out = []
    for key in catalog.all_keys(max_dim, field, epsilon_samples):
        entry = catalog.build(key, field)
        if homology(entry.algebra).exterior_center().dim > 0:
            out.append(key)
    return out


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the exterior-center bound for one algebra.

    status is "checked" when the hypothesis (nonabelian, dim >= 3, and
    L^2/Z^(L) capable) holds and the inequality was evaluated; a failed
    hypothesis yields status "skipped", never a failure.  It names no
    algebra: a caller that keeps several labels them itself.
    """

    status: str          # "checked" | "skipped"
    reason: str = ""
    lhs: int = -1        # dim Z^(L ^ L)
    rhs: int = -1        # dim M(L / Z^(L))
    holds: bool = False


def theorem2_bound_check(algebra, *, homology=None):
    """dim Z^(L^L) <= dim M(L/Z^(L)) whenever L^2/Z^(L) is capable.

    homology is called in place of ``schur_multiplier`` on every algebra
    the check builds, so a caller can share one result per distinct table;
    by default each call computes afresh.  L^2/Z^(L) is built as
    (L/Z^(L))^2 (see the module docstring), and L/Z^(L) is L itself when
    Z^(L) = 0.
    """
    if algebra.is_abelian():
        return BoundCheck("skipped", reason="abelian")
    if algebra.dim < 3:
        return BoundCheck("skipped", reason="dimension below 3")
    if not is_nilpotent(algebra):
        return BoundCheck("skipped", reason="not nilpotent")
    homology = homology or schur_multiplier
    multiplier = homology(algebra)
    zw = multiplier.exterior_center()
    assert derived_subalgebra(algebra).contains_subspace(zw), "Z^(L) escaped L^2"
    lbar = quotient(algebra, zw)[0] if zw.dim else algebra
    dq, _ = subalgebra_on(lbar, derived_subalgebra(lbar))
    if dq.dim > 0 and homology(dq).exterior_center().dim > 0:
        return BoundCheck("skipped", reason="L^2/Z^(L) not capable")
    lhs = homology(multiplier.exterior_square()).exterior_center().dim
    rhs = (homology(lbar) if zw.dim else multiplier).dim
    return BoundCheck("checked", lhs=lhs, rhs=rhs, holds=lhs <= rhs)
