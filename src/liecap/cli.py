"""Command line front end: catalog listing, invariant reports, table checks.

Exit codes: 0 success, 1 failed verification rows, 2 parse/usage errors,
3 Jacobi violation in a user-supplied algebra.  Every ``LiecapError`` and
every error reading the input ends in ``error: ...`` and exit 2, in ``main``.
"""

from __future__ import annotations

import argparse
import ast
import json
import random
import re
import sys
from dataclasses import dataclass, fields

from . import catalog, tables
from .algebra import (
    adapted_basis,
    center,
    derived_subalgebra,
    direct_sum,
    from_json,
    lower_central_series,
    nilpotency_class,
    transform,
    validate,
)
from .capability import noncapable_census, theorem2_bound_check
from .covers import Cover, exterior_center
from .homology import diagonal_square_dim, schur_multiplier, sum_exterior_dim
from .linalg import QQ, LiecapError, PrimeField, _shown
from .recognize import recognize


# a value argparse quotes in an error message: the repr of a str
_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'" + r'|"(?:[^"\\]|\\.)*"')
_UNRECOGNIZED = "unrecognized arguments: "


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors pass every value they repeat
    through ``_shown``: a bad choice or int, which argparse quotes, and the
    unrecognized arguments, which it lists bare.  A long value is named by
    its type and length, so the error stays one short line."""

    def error(self, message):
        head, unrecognized, rest = message.partition(_UNRECOGNIZED)
        if unrecognized:
            message = head + unrecognized + _shown(rest, str)
        else:
            message = _QUOTED.sub(lambda m: _shown(ast.literal_eval(m.group())), message)
        super().error(message)


def _field_from_arg(text):
    if text in (None, "Q"):
        return QQ
    try:
        p = int(text[3:]) if text.startswith("Fp:") else None
    except ValueError:  # Fp:abc or Fp:
        p = None
    if p is None:
        raise ValueError(f"unknown field {_shown(text)} (use Q or Fp:<p>)")
    return PrimeField(p)


def _epsilon_set(field, text):
    if not text:
        return tuple(field.coerce(e) for e in catalog.DEFAULT_EPSILON_SAMPLES)
    return tuple(catalog.parse_epsilon(part, field) for part in text.split(","))


# -- invariants --------------------------------------------------------------


@dataclass
class InvariantReport:
    label: str
    dim: int
    derived_dim: int
    nilpotency_class: int
    center_dim: int
    multiplier_dim: int
    exterior_dim: int
    exterior_type: str
    diagonal_dim: int
    tensor_dim: int
    tensor_type: str
    exterior_center_dim: int
    capable: bool

    def __post_init__(self):
        # labels repeat across reports; interned, the reports a caller keeps
        # share one copy of each
        self.label = sys.intern(self.label)
        self.exterior_type = sys.intern(self.exterior_type)
        self.tensor_type = sys.intern(self.tensor_type)

    def check(self):
        assert self.tensor_dim == self.exterior_dim + self.diagonal_dim
        assert self.exterior_dim == self.multiplier_dim + self.derived_dim

    def as_dict(self):
        # the field order is the output order; nilpotency_class prints as "class"
        return {"class" if f.name == "nilpotency_class" else f.name: getattr(self, f.name)
                for f in fields(self)}


def _terms(algebra):
    return sum(map(len, algebra.table.values()))


def _rebased(algebra):
    """The nilpotent algebra as it is when every term of its lower central
    series is a coordinate span (each RREF row a single unit), else on its
    ``adapted_basis`` when that gives a table with fewer terms.

    On a table with a coordinate series, im d3 reads the columns at the
    central coordinates off the RREF of L^2 and needs no re-basing; such
    are the tables of single terms, the Hall bases of F(d, c) and their
    central extensions.  A coordinate L^2 alone is not enough: F(4,3) with
    its basis mixed across the layers inside L^2 keeps a coordinate L^2
    but not a coordinate gamma_3, and its report takes seconds as given
    against hundredths of a second re-based.
    """
    if all(len(row) == 1 for term in lower_central_series(algebra)[1:]
           for row in term.sparse_rows()):
        return algebra
    rebased = transform(algebra, adapted_basis(algebra))
    return rebased if _terms(rebased) < _terms(algebra) else algebra


def invariant_report(algebra, label):
    """The invariants of a nilpotent algebra, each a dimension or a
    basis-free label, so they are computed on ``_rebased(algebra)``.  An
    input whose lower central series is already a chain of coordinate
    spans is used as it stands; any other is re-based on a basis adapted
    to the series, whose im d3 is mostly unit columns, whatever basis the
    algebra came in.  The series is the one ``nilpotency_class`` holds."""
    cls = nilpotency_class(algebra)  # NotNilpotent before im d3 is built
    derived_dim = derived_subalgebra(algebra).dim
    work = _rebased(algebra)
    multiplier = schur_multiplier(work)
    wedge = multiplier.exterior_square()
    wedge_type = recognize(wedge)
    diagonal = multiplier.diagonal_dim
    zw = multiplier.exterior_center()
    report = InvariantReport(
        label=label,
        dim=algebra.dim,
        derived_dim=derived_dim,
        nilpotency_class=cls,
        center_dim=center(work).dim,
        multiplier_dim=multiplier.dim,
        exterior_dim=wedge.dim,
        exterior_type=wedge_type.label(),
        diagonal_dim=diagonal,
        # L x L = (L ^ L) + A(diagonal), so both are read off the wedge's
        tensor_dim=wedge.dim + diagonal,
        tensor_type=wedge_type.plus_abelian(diagonal).label(),
        exterior_center_dim=zw.dim,
        capable=zw.dim == 0,
    )
    report.check()
    return report


def _print_report(report, fmt):
    d = report.as_dict()
    if fmt == "json":
        print(json.dumps(d, indent=2))
    elif fmt == "csv":
        print(",".join(d))
        print(",".join(str(v) for v in d.values()))
    else:
        width = max(len(k) for k in d)
        for k, v in d.items():
            print(f"{k:<{width}}  {v}")


# -- verification suites ------------------------------------------------------


@dataclass
class SuiteRow:
    suite: str
    row: str
    expected: str
    computed: str

    def __post_init__(self):
        # row strings repeat across runs; interned, the rows a caller keeps
        # share one copy of each
        self.row = sys.intern(self.row)
        self.expected = sys.intern(self.expected)
        self.computed = sys.intern(self.computed)

    @property
    def passed(self):
        return self.expected == self.computed

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.suite:<12} {self.row:<16} expected={self.expected} computed={self.computed}"


def _tensor_label(alg, homology):
    m = homology(alg)
    return recognize(m.exterior_square()).plus_abelian(m.diagonal_dim).label()


def _exterior_label(alg, homology):
    return recognize(homology(alg).exterior_square()).label()


def _multiplier(alg, homology):
    return str(homology(alg).dim)


# suite name -> (dimension, published value of a key, computed value of its
# algebra, given the homology callable); one row per catalog key of that
# dimension, labelled by the key
TABLE_SUITES = {
    "multipliers5": (5, lambda key: str(tables.MULTIPLIER_5[key.b]), _multiplier),
    "exterior5": (5, lambda key: tables.EXTERIOR_5[key.b], _exterior_label),
    "diagonal5": (5, lambda key: str(tables.DIAGONAL_5[key.b]),
                  lambda alg, homology: str(diagonal_square_dim(alg))),
    "tensor5": (5, lambda key: tables.TENSOR_5[key.b], _tensor_label),
    "multipliers6": (6, lambda key: str(tables.MULTIPLIER_6[key.b]), _multiplier),
    "exterior6": (6, lambda key: tables.exterior_6_label(key.b, key.epsilon),
                  _exterior_label),
}


def _table_suite(name):
    dim, published, computed = TABLE_SUITES[name]

    def suite(field, eps, *, homology=None):
        homology = homology or schur_multiplier
        return [SuiteRow(name, str(key), published(key),
                         computed(catalog.build(key, field).algebra, homology))
                for key in catalog.expand_keys(dim, field, eps)]
    return suite


def _suite_census(field, eps, *, homology=None):
    got = noncapable_census(6, field, eps, homology=homology)
    got_strs = []
    for key in got:
        base = f"L{key.a}_{key.b}" if key.kind == "L" else str(key)
        if base not in got_strs:
            got_strs.append(base)
    expected = ",".join(tables.NONCAPABLE)
    computed = ",".join(got_strs)
    rows = [SuiteRow("census", "noncapable-set", expected, computed)]
    # every sampled epsilon member of the 19 family must be caught
    fam = [k for k in got if k.kind == "L" and k.b == 19]
    rows.append(SuiteRow("census", "L6_19-samples", str(len(eps)), str(len(fam))))
    return rows


def _suite_kunneth(field, eps, *, homology=None):
    # the direct side is dim M(S) + dim S^2, computed by the homology route
    # on the sum S, against the formula from the summands, whose multipliers
    # are computed once per distinct key
    homology = homology or schur_multiplier
    rows = []
    keys = catalog.all_keys(6, field)
    rng = random.Random(tables.KUNNETH_SEED)
    summands = {}
    for t in range(tables.KUNNETH_PAIR_COUNT):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        for key in (k1, k2):
            if key not in summands:
                summands[key] = homology(catalog.build(key, field).algebra)
        mh, mk = summands[k1], summands[k2]
        formula = sum_exterior_dim(mh, mk)
        m = homology(direct_sum(mh.algebra, mk.algebra))
        direct = m.dim + derived_subalgebra(m.algebra).dim
        rows.append(SuiteRow("kunneth", f"{k1}|{k2}", str(formula), str(direct)))
    for n in range(1, tables.ABELIAN_MULTIPLIER_RANGE + 1):
        alg = catalog.abelian_algebra(n, field)
        rows.append(SuiteRow("kunneth", f"A{n}-multiplier",
                             str(n * (n - 1) // 2),
                             str(homology(alg).dim)))
    rows.append(SuiteRow("kunneth", "H1-multiplier", "2",
                         str(homology(catalog.heisenberg_algebra(1, field)).dim)))
    for m in range(2, tables.HEISENBERG_MULTIPLIER_RANGE + 1):
        alg = catalog.heisenberg_algebra(m, field)
        rows.append(SuiteRow("kunneth", f"H{m}-multiplier",
                             str(2 * m * m - m - 1),
                             str(homology(alg).dim)))
    return rows


def _suite_theorem2(field, eps, *, homology=None):
    rows = []
    for dim in range(3, 7):
        for key in catalog.expand_keys(dim, field, eps):
            alg = catalog.build(key, field).algebra
            check = theorem2_bound_check(alg, homology=homology)
            if check.status == "skipped":
                computed = f"skipped({check.reason})"
                expected = computed  # a skip is not a failure
            else:
                expected = "bound-holds"
                computed = "bound-holds" if check.holds else \
                    f"bound-fails({check.lhs}>{check.rhs})"
            rows.append(SuiteRow("theorem2", str(key), expected, computed))
    return rows


# suite name -> suite(field, eps, *, homology=None); homology is called in
# place of schur_multiplier, which by default computes afresh each time
SUITES = {name: _table_suite(name) for name in TABLE_SUITES}
SUITES.update(census=_suite_census, kunneth=_suite_kunneth, theorem2=_suite_theorem2)


def run_suites(names, field, eps):
    """The rows of the named suites.  im d3 is computed once per distinct
    bracket table over the field for the whole call: the suites share one
    ``schur_multiplier`` result per table, and forget them on return.  The
    results are bucketed by (field, dim, entry count), and a table is
    matched within its bucket by dict equality, with no sorted key built."""
    buckets = {}

    def homology(algebra):
        table = algebra.table
        bucket = buckets.setdefault((algebra.field, algebra.dim, len(table)), [])
        for other, result in bucket:
            if other == table:
                return result
        result = schur_multiplier(algebra)
        bucket.append((table, result))
        return result

    rows = []
    for name in names:
        rows.extend(SUITES[name](field, eps, homology=homology))
    return rows


# -- commands ----------------------------------------------------------------


def cmd_list(args):
    entries = []
    for key in catalog.list_keys(args.dim):
        if key.is_epsilon_family:
            entries.append({"key": str(key), "epsilon_family": True,
                            "epsilon_samples": [str(e) for e in catalog.DEFAULT_EPSILON_SAMPLES]})
        else:
            entry = catalog.build(key)
            entries.append({"key": str(key), "epsilon_family": False,
                            "note": entry.structure_note})
    if args.format == "json":
        print(json.dumps(entries, indent=2, ensure_ascii=False))
    else:
        for e in entries:
            extra = " (epsilon family)" if e["epsilon_family"] else \
                (f"  {e['note']}" if e.get("note") else "")
            print(f"{e['key']}{extra}")
    return 0


def cmd_invariants(args):
    if not args.key and not args.file:
        raise ValueError("provide a key or --file")
    if args.key and args.file:
        raise ValueError("provide a key or --file, not both")
    if args.file and args.field is not None:
        raise ValueError("--field applies to a key; a --file names its own field")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.file}: JSON nested too deeply") from None
        algebra, label = from_json(doc), args.file
    else:
        field = _field_from_arg(args.field)
        key = catalog.parse_key(args.key, field)
        algebra, label = catalog.build(key, field).algebra, str(key)
    try:
        report = invariant_report(algebra, label)
    except LiecapError:
        # the report checks d2 . d3 = 0, which is the Jacobi identity, so a
        # file's triple walk runs only to name the triple a failure violates;
        # tests/test_catalog.py validates every catalog key
        failure = validate(algebra).first_failure() if args.file else None
        if failure is None:
            raise
        i, j, k, res = failure
        terms = " + ".join(f"{algebra.field.to_str(res[t])}*{algebra.labels[t]}"
                           for t in sorted(res))
        print(f"error: Jacobi violation at ({i + 1},{j + 1},{k + 1}): {terms}",
              file=sys.stderr)
        return 3
    _print_report(report, args.format)
    return 0


def cmd_verify_tables(args):
    field = _field_from_arg(args.field)
    eps = _epsilon_set(field, args.epsilon_set)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = run_suites(names, field, eps)
    failures = []
    for row in rows:
        print(row.line())
        if not row.passed:
            failures.append(row)
    print(f"{len(rows) - len(failures)}/{len(rows)} rows pass")
    if failures:
        print(json.dumps([{"suite": r.suite, "row": r.row,
                           "expected": r.expected, "computed": r.computed}
                          for r in failures]))
        return 1
    return 0


def cmd_cover(args):
    field = _field_from_arg(args.field)
    key = catalog.parse_key(args.key, field)
    cover = Cover(catalog.build(key, field).algebra)
    info = {
        "key": str(key),
        "free_generators": cover.gen_count,
        "free_class": cover.cls + 1,
        "free_dim": cover.free.dim,
        "star_dim": cover.star_dim,
        "multiplier_dim": cover.multiplier_dim,
        "derived_dim": cover.derived_part.dim,
        "exterior_center_dim": exterior_center(cover).dim,
    }
    if args.dump_star:
        from .algebra import to_json
        info["star"] = to_json(cover.star)
    print(json.dumps(info, indent=2))
    return 0


def build_parser():
    parser = _Parser(prog="liecap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog entries of one dimension")
    p_list.add_argument("dim", type=int)
    p_list.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p_list.set_defaults(func=cmd_list)

    p_inv = sub.add_parser("invariants", help="full invariant report for one algebra")
    p_inv.add_argument("key", nargs="?", help="catalog key such as L5_4 or L6_19(e=2)")
    p_inv.add_argument("--file", help="JSON algebra file instead of a key")
    p_inv.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_inv.add_argument("--field", help="Q (the default) or Fp:<p>; keys only")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify-tables", help="re-derive the published tables")
    p_ver.add_argument("suite", choices=["all"] + sorted(SUITES))
    p_ver.add_argument("--field", default="Q")
    p_ver.add_argument("--epsilon-set", default="")
    p_ver.set_defaults(func=cmd_verify_tables)

    p_cov = sub.add_parser("cover", help="cover diagnostics for one catalog entry")
    p_cov.add_argument("key")
    p_cov.add_argument("--dump-star", action="store_true")
    p_cov.add_argument("--field", default="Q")
    p_cov.set_defaults(func=cmd_cover)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LiecapError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
