"""Seeded inputs and output oracles for the three benchmark workloads.

Each workload is a list of ``Item`` objects.  An item is one user-visible
answer: one ``cli.run_suites`` suite, one ``cli.invariant_report`` or one
``homology.schur_multiplier``.  Its ``call`` goes through the module
attribute at call time, so the tracer's rebinding sees it, and its
``check`` compares a plain-data summary of the result with an oracle that
does not come from the code path being timed.

Building the inputs must not warm a cache the passes use: free nilpotent
inputs come from the ``FreeNilpotent`` class, never from the memoized
``free_nilpotent``.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

from liecap import algebra, catalog, cli, covers, homology, tables
from liecap.linalg import QQ, PrimeField, kernel_from_rows

GF101 = PrimeField(101)
DEFAULT_WORD_CAP = 5000   # covers' default free-algebra basis-word cap
SEEDED_WORDS = 250         # cover size cap of the seeded invariants-scale items
COVER_CHECK_WORDS = 1000   # multipliers are re-derived by the cover up to this size
KNOWN_DIVERGENCE = "H(1)+A(3)"   # computed L6_14 exterior square
PUBLISHED_L6_14 = "L5_8+A(1)"

# outcome of one item, decided outside the timed region
OK, DIVERGENCE, REFUSED, FAILED = "ok", "known_divergence", "refused", "failed"


@dataclass
class Item:
    """One timed call into liecap plus the oracle for its answer."""

    label: str
    kind: str                          # "suite" | "report" | "multiplier"
    field: str                         # "Q" or "GF101"
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], str]     # summary -> OK | DIVERGENCE | FAILED
    may_refuse: bool = False           # beyond the word cap: ResourceLimit expected today
    # inputs for the checks that compare items or routes (not timed)
    algebra: object = None
    group: Optional[str] = None        # items of one group must agree on dim M(L)


# -- closed forms ------------------------------------------------------------


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(d, n):
    """Dimension of the degree-n part of the free Lie algebra on d generators."""
    total = sum(_mobius(k) * d ** (n // k) for k in range(1, n + 1) if n % k == 0)
    return total // n


def free_words(d, c):
    """Hall words of F(d, c): the sum of Witt(d, n) for n <= c."""
    return sum(witt(d, n) for n in range(1, c + 1))


def abelian_multiplier(n):
    return n * (n - 1) // 2


def heisenberg_multiplier(m):
    return 2 if m == 1 else 2 * m * m - m - 1


def cover_words(alg):
    """Hall words of the free algebra the cover of ``alg`` builds."""
    return free_words(algebra.minimal_generator_count(alg),
                      algebra.nilpotency_class(alg) + 1)


# -- seeded generators -------------------------------------------------------


def central_extension(alg, kdim, rng):
    """Random central extension of ``alg`` by A(kdim) via random 2-cocycles.

    The cocycles are combinations of a kernel basis of the transposed
    degree-3 boundary map, which is exactly the condition for the extended
    table to satisfy the Jacobi identity.  Works over the algebra's field.
    """
    f = alg.field
    m = homology.ce_d3(alg)
    rows = [{i: v for i, v in enumerate(m.column(j)) if v} for j in range(m.ncols)]
    cocycles = kernel_from_rows(f, m.nrows, rows).sparse_rows()
    ext = homology.ExteriorBasis.for_dim(alg.dim)
    brackets = {ij: dict(row) for ij, row in alg.table.items()}
    for s in range(kdim):
        cocycle = {}
        for r in cocycles:
            c = rng.randint(-2, 2)
            if c:
                for col, v in r.items():
                    cocycle[col] = f.add(cocycle.get(col, f.zero),
                                         f.mul(f.from_int(c), v))
        for t, val in cocycle.items():
            if val:
                i, j = ext.pairs[t]
                row = dict(brackets.get((i, j), {}))
                row[alg.dim + s] = f.add(row.get(alg.dim + s, f.zero), val)
                brackets[(i, j)] = row
    return algebra.LieAlgebra(f, alg.dim + kdim, brackets)


Shape = namedtuple("Shape", "key algebra gens cls")


def _catalog_shapes(keys):
    """A Shape (generator count and class) for each catalog key, over Q."""
    out = []
    for key in keys:
        alg = catalog.build(key).algebra
        out.append(Shape(key, alg, algebra.minimal_generator_count(alg),
                         algebra.nilpotency_class(alg)))
    return out


def _pair_words(a, b):
    # F(d, c+1) of a direct sum: generators add, the class is the larger one
    return free_words(a.gens + b.gens, max(a.cls, b.cls) + 1)


def _draw_pairs(rng, shapes, count, keep):
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(shapes), rng.choice(shapes)
        if keep(_pair_words(a, b)):
            pairs.append((a, b))
    return pairs


def _draw_extensions(rng, draws, max_words, field=QQ):
    """One seeded central extension per ``(bases, k)`` in ``draws``.

    Each extension is by A(k) of a base drawn from ``bases``.  The base and
    the cocycles are drawn again until the cover of the extension stays
    within ``max_words`` Hall words.
    """
    out = []
    for bases, kdim in draws:
        for _ in range(1000):
            label, base = rng.choice(bases)
            if field != QQ:
                base = _over(base, field)
            ext = central_extension(base, kdim, rng)
            if cover_words(ext) <= max_words:
                out.append((f"ext{len(out)}({label},{kdim})", ext))
                break
        else:
            raise RuntimeError(f"no extension by A({kdim}) within {max_words} words")
    return out


def _over(alg, field):
    """The same structure constants read in another field (integers only)."""
    return algebra.LieAlgebra(field, alg.dim,
                              {ij: {k: field.coerce(v) for k, v in row.items()}
                               for ij, row in alg.table.items()})


# -- item builders -----------------------------------------------------------


def _dim_check(expected):
    def check(dim):
        return OK if dim == expected else FAILED
    return check


def _multiplier_items(label, alg_q, expected, tags=("Q", "GF101")):
    """schur_multiplier over Q and, on the same integer table, over GF(101)."""
    algs = {"Q": alg_q, "GF101": _over(alg_q, GF101) if "GF101" in tags else None}
    return [Item(label=f"{label}/{tag}", kind="multiplier", field=tag,
                 call=lambda a=algs[tag]: homology.schur_multiplier(a),
                 summarize=lambda r: r.dim, check=_dim_check(expected),
                 algebra=algs[tag], group=label)
            for tag in tags]


def homology_scale(seed, tiny=False):
    """schur_multiplier over Q and GF(101): elimination and boundary maps only."""
    rng = random.Random(seed)
    shapes = _catalog_shapes(k for k in catalog.all_keys(6) if k.a >= 3)
    # F(3,5) is left out: at about 2 s per field it would be most of a pass
    # and leave room for few passes, which makes every figure noisier
    free = [(2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (4, 3), (5, 3)]
    heis = range(2, 11)
    abel = (8, 12, 16)
    n_pairs, n_ext = 8, 6
    if tiny:
        free, heis, abel, n_pairs, n_ext = [(2, 4), (3, 2)], range(2, 4), (4,), 2, 1
    items = []
    for d, c in free:
        items += _multiplier_items(f"F({d},{c})", covers.FreeNilpotent(d, c).algebra,
                                   witt(d, c + 1))
    for m in heis:
        items += _multiplier_items(f"H({m})", catalog.heisenberg_algebra(m),
                                   heisenberg_multiplier(m))
    for n in abel:
        items += _multiplier_items(f"A({n})", catalog.abelian_algebra(n),
                                   abelian_multiplier(n))
    # the seed draws which pairs are summed and which cocycles extend one
    # fixed base, so it changes what is computed but hardly what it costs
    dim6 = [sh for sh in shapes if sh.key.a == 6]
    for a, b in _draw_pairs(rng, dim6, n_pairs, lambda words: True):
        s = algebra.direct_sum(a.algebra, b.algebra)
        expected = (homology.kunneth_exterior_dim(a.algebra, b.algebra)
                    - algebra.derived_subalgebra(s).dim)
        items += _multiplier_items(f"{a.key}+{b.key}", s, expected)
    bases = [("F(2,4)", covers.FreeNilpotent(2, 4).algebra)]
    # the extension's cover is its oracle, so it must stay cheap to build
    for fld, tag in ((QQ, "Q"), (GF101, "GF101")):
        for label, ext in _draw_extensions(rng, [(bases, 4)] * n_ext, COVER_CHECK_WORDS, fld):
            items.append(Item(
                label=f"{label}/{tag}", kind="multiplier", field=tag,
                call=lambda a=ext: homology.schur_multiplier(a),
                summarize=lambda r: r.dim, check=lambda d: OK, algebra=ext))
    return items


# -- invariant reports ---------------------------------------------------------


def _report_check(expected, divergent_exterior=None):
    """Compare the named report fields; tolerate exactly the known divergence."""
    def check(got):
        status = OK
        for name, want in expected.items():
            if name == "exterior_type" and divergent_exterior is not None:
                # the known divergence must read exactly as computed today
                if got[name] != divergent_exterior:
                    return FAILED
                status = DIVERGENCE
            elif got.get(name) != want:
                return FAILED
        # the two routes must agree: dim L^L = dim M(L) + dim L^2 and
        # dim (L x L) = dim (L^L) + diagonal
        if got["exterior_dim"] != got["multiplier_dim"] + got["derived_dim"]:
            return FAILED
        if got["tensor_dim"] != got["exterior_dim"] + got["diagonal_dim"]:
            return FAILED
        if got["capable"] != (got["exterior_center_dim"] == 0):
            return FAILED
        return status
    return check


def _report_item(label, alg, expected, divergent_exterior=None, may_refuse=False,
                 group=None):
    return Item(
        label=f"{label}/Q", kind="report", field="Q",
        call=lambda: cli.invariant_report(alg, label),
        summarize=lambda report: report.as_dict(),
        check=_report_check(expected, divergent_exterior),
        may_refuse=may_refuse, algebra=alg, group=group)


def _published_report(key):
    """Report fields the published tables (or closed forms) fix for a key."""
    base = "A1" if key.kind == "A" and key.a == 1 else f"L{key.a}_{key.b}"
    out = {"capable": base not in tables.NONCAPABLE}
    if key.kind == "A" or (key.kind == "L" and key.b == 1):
        n = key.a
        out.update(multiplier_dim=abelian_multiplier(n),
                   exterior_type=f"A({abelian_multiplier(n)})",
                   diagonal_dim=n * (n + 1) // 2, tensor_type=f"A({n * n})")
    elif (key.a, key.b) == (3, 2):
        out.update(multiplier_dim=2, exterior_type="A(3)", diagonal_dim=3,
                   tensor_type="A(6)")
    elif key.a == 4:
        out.update(multiplier_dim=tables.DIM4_MULTIPLIER[key.b],
                   exterior_type=tables.DIM4_EXTERIOR[key.b],
                   diagonal_dim=int(tables.DIM4_DIAGONAL[key.b][2:-1]),
                   tensor_type=tables.DIM4_TENSOR[key.b])
    elif key.a == 5:
        out.update(multiplier_dim=tables.MULTIPLIER_5[key.b],
                   exterior_type=tables.EXTERIOR_5[key.b],
                   diagonal_dim=tables.DIAGONAL_5[key.b],
                   tensor_type=tables.TENSOR_5[key.b])
    else:
        out.update(multiplier_dim=tables.MULTIPLIER_6[key.b],
                   exterior_type=tables.exterior_6_label(key.b, key.epsilon))
    return out


# -- table suites --------------------------------------------------------------

# rows per suite with the default epsilon samples; a dropped row is a failure
SUITE_ROWS = {"multipliers5": 9, "exterior5": 9, "diagonal5": 9, "tensor5": 9,
              "multipliers6": 40, "exterior6": 40, "census": 2, "kunneth": 62,
              "theorem2": 54}


def _published_row(name, row):
    """The published value a table-driven suite row must carry, else None."""
    m = re.fullmatch(r"L(\d)_(\d+)(?:\(e=(-?\d+)\))?", row)
    if m is None:
        return ",".join(tables.NONCAPABLE) if row == "noncapable-set" else None
    index = int(m.group(2))
    if name == "multipliers5":
        return str(tables.MULTIPLIER_5[index])
    if name == "exterior5":
        return tables.EXTERIOR_5[index]
    if name == "diagonal5":
        return str(tables.DIAGONAL_5[index])
    if name == "tensor5":
        return tables.TENSOR_5[index]
    if name == "multipliers6":
        return str(tables.MULTIPLIER_6[index])
    if name == "exterior6":
        return tables.exterior_6_label(index, m.group(3) not in (None, "0"))
    return None


def _suite_check(name):
    """Every row passes, except the L6_14 exterior-square row, which must
    still read exactly as computed today; a dropped row is a failure."""
    def check(rows):
        if len(rows) != SUITE_ROWS[name]:
            return FAILED
        status = OK
        for row, expected, computed in rows:
            published = _published_row(name, row)
            if published is not None and expected != published:
                return FAILED
            if expected == computed:
                continue
            if (name, row, expected, computed) == (
                    "exterior6", "L6_14", PUBLISHED_L6_14, KNOWN_DIVERGENCE):
                status = DIVERGENCE
                continue
            return FAILED
        if name == "exterior6" and status != DIVERGENCE:
            return FAILED
        return status
    return check


def _suite_item(name, fld, tag, eps):
    return Item(label=f"{name}/{tag}", kind="suite", field=tag,
                call=lambda: cli.run_suites([name], fld, eps),
                summarize=lambda rows: [(r.row, r.expected, r.computed) for r in rows],
                check=_suite_check(name))


def catalog_tables(seed, tiny=False):
    """The published-table path: all suites over Q and GF(101), all reports."""
    del seed  # deterministic: the catalog and its tables are fixed
    names = list(SUITE_ROWS)
    keys = catalog.all_keys(6)
    if tiny:
        names, keys = ["multipliers5", "exterior5"], keys[:6]
    items = []
    for fld, tag in ((QQ, "Q"), (GF101, "GF101")):
        eps = tuple(fld.coerce(e) for e in catalog.DEFAULT_EPSILON_SAMPLES)
        items += [_suite_item(name, fld, tag, eps) for name in names]
    for key in keys:
        alg = catalog.build(key).algebra
        divergent = KNOWN_DIVERGENCE if (key.a, key.b) == (6, 14) else None
        items.append(_report_item(str(key), alg, _published_report(key), divergent))
    return items


def invariants_scale(seed, tiny=False):
    """invariant_report over Q beyond the catalog, plus some GF(101) multipliers."""
    rng = random.Random(seed)
    shapes = _catalog_shapes(k for k in catalog.all_keys(6) if k.a >= 3)
    free = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]
    heis = range(2, 9)
    n_pairs, n_beyond = 6, 1
    # extensions of dim 7 to 12; a fixed base per dimension keeps their cost
    # steady while the seed draws the cocycles
    ext_bases = [("L6_14", 1), ("L6_21(e=1)", 2), ("L6_25", 3), ("L6_19(e=1)", 4),
                 ("L6_22(e=0)", 5), ("L6_26", 6)]
    if tiny:
        free, heis, n_pairs, ext_bases = [(2, 3)], range(2, 3), 1, ext_bases[:1]
    items = []
    multipliers = []
    for d, c in free:
        alg = covers.FreeNilpotent(d, c).algebra
        label = f"F({d},{c})"
        items.append(_report_item(label, alg, {"multiplier_dim": witt(d, c + 1),
                                               "exterior_center_dim": 0}, group=label))
        if (d, c) == (3, 3):
            # with this one the item count is odd and the median is H(4)'s
            multipliers += _multiplier_items(label, alg, witt(d, c + 1), ("GF101",))
    for m in heis:
        alg = catalog.heisenberg_algebra(m)
        label = f"H({m})"
        items.append(_report_item(label, alg, {"multiplier_dim": heisenberg_multiplier(m),
                                               "capable": m == 1}, group=label))
        multipliers += _multiplier_items(label, alg, heisenberg_multiplier(m), ("GF101",))
    # seeded items are few and cheap, so the seed moves neither the cold
    # pass (free-algebra builds) nor the items at the 90th percentile; sums
    # of two dim-6 entries all cost more than the items below the median
    dim6 = [sh for sh in shapes if sh.key.a == 6]
    answered = _draw_pairs(rng, dim6, n_pairs, lambda words: words <= SEEDED_WORDS)
    # beyond the default cap: ResourceLimit today, a Kunneth answer once
    # the exterior route no longer needs the free algebra
    by_name = {str(sh.key): sh for sh in shapes}
    beyond = [(by_name["L6_17"], by_name["L6_22(e=1)"])]
    beyond += _draw_pairs(rng, shapes, n_beyond, lambda words: words > DEFAULT_WORD_CAP)
    for pairs, refuse in ((answered, False), (beyond, True)):
        for a, b in pairs:
            s = algebra.direct_sum(a.algebra, b.algebra)
            label = f"{a.key}+{b.key}"
            expected = {"exterior_dim": homology.kunneth_exterior_dim(a.algebra, b.algebra),
                        "tensor_dim": homology.kunneth_tensor_dim(a.algebra, b.algebra)}
            items.append(_report_item(label, s, expected, may_refuse=refuse))
    draws = [([(key, by_name[key].algebra)], kdim) for key, kdim in ext_bases]
    for label, ext in _draw_extensions(rng, draws, SEEDED_WORDS):
        items.append(_report_item(label, ext, {}))
    return items + multipliers


WORKLOADS = {
    "catalog-tables": catalog_tables,
    "homology-scale": homology_scale,
    "invariants-scale": invariants_scale,
}
