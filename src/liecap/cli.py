"""Command line front end: catalog listing, invariant reports, table checks.

Exit codes: 0 success, 1 failed verification rows, 2 parse/usage errors,
3 Jacobi violation in a user-supplied algebra.  Every ``LiecapError`` and
every error reading the input ends in ``error: ...`` and exit 2, in ``main``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import catalog, tables
from .algebra import (
    center,
    derived_subalgebra,
    direct_sum,
    from_json,
    nilpotency_class,
    validate,
)
from .capability import noncapable_census, theorem2_bound_check
from .covers import Cover, exterior_center
from .homology import diagonal_square_dim, kunneth_exterior_dim, schur_multiplier
from .linalg import QQ, LiecapError, PrimeField
from .recognize import recognize


def _field_from_arg(text):
    if text in (None, "Q"):
        return QQ
    if text.startswith("Fp:"):
        return PrimeField(int(text[3:]))
    raise ValueError(f"unknown field {text!r} (use Q or Fp:<p>)")


def _epsilon_set(field, text):
    if not text:
        return tuple(field.coerce(e) for e in catalog.DEFAULT_EPSILON_SAMPLES)
    return tuple(field.parse(part) for part in text.split(","))


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

    def check(self):
        assert self.tensor_dim == self.exterior_dim + self.diagonal_dim
        assert self.exterior_dim == self.multiplier_dim + self.derived_dim

    def as_dict(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "derived_dim": self.derived_dim,
            "class": self.nilpotency_class,
            "center_dim": self.center_dim,
            "multiplier_dim": self.multiplier_dim,
            "exterior_dim": self.exterior_dim,
            "exterior_type": self.exterior_type,
            "diagonal_dim": self.diagonal_dim,
            "tensor_dim": self.tensor_dim,
            "tensor_type": self.tensor_type,
            "exterior_center_dim": self.exterior_center_dim,
            "capable": self.capable,
        }


def invariant_report(algebra, label):
    cls = nilpotency_class(algebra)  # NotNilpotent before any square is built
    multiplier = schur_multiplier(algebra)
    wedge = multiplier.exterior_square()
    tensor = multiplier.tensor_square()
    zw = multiplier.exterior_center()
    report = InvariantReport(
        label=label,
        dim=algebra.dim,
        derived_dim=derived_subalgebra(algebra).dim,
        nilpotency_class=cls,
        center_dim=center(algebra).dim,
        multiplier_dim=multiplier.dim,
        exterior_dim=wedge.dim,
        exterior_type=recognize(wedge).label(),
        diagonal_dim=diagonal_square_dim(algebra),
        tensor_dim=tensor.dim,
        tensor_type=recognize(tensor).label(),
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

    @property
    def passed(self):
        return self.expected == self.computed

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.suite:<12} {self.row:<16} expected={self.expected} computed={self.computed}"


# suite name -> (dimension, published value of a key, computed value of its
# algebra); one row per catalog key of that dimension, labelled by the key
TABLE_SUITES = {
    "multipliers5": (5, lambda key: str(tables.MULTIPLIER_5[key.b]),
                     lambda alg: str(schur_multiplier(alg).dim)),
    "exterior5": (5, lambda key: tables.EXTERIOR_5[key.b],
                  lambda alg: recognize(schur_multiplier(alg).exterior_square()).label()),
    "diagonal5": (5, lambda key: str(tables.DIAGONAL_5[key.b]),
                  lambda alg: str(diagonal_square_dim(alg))),
    "tensor5": (5, lambda key: tables.TENSOR_5[key.b],
                lambda alg: recognize(schur_multiplier(alg).tensor_square()).label()),
    "multipliers6": (6, lambda key: str(tables.MULTIPLIER_6[key.b]),
                     lambda alg: str(schur_multiplier(alg).dim)),
    "exterior6": (6, lambda key: tables.exterior_6_label(key.b, key.epsilon),
                  lambda alg: recognize(schur_multiplier(alg).exterior_square()).label()),
}


def _table_suite(name):
    dim, published, computed = TABLE_SUITES[name]

    def suite(field, eps):
        return [SuiteRow(name, str(key), published(key),
                         computed(catalog.build(key, field).algebra))
                for key in catalog.expand_keys(dim, field, eps)]
    return suite


def _suite_census(field, eps):
    got = noncapable_census(6, field, eps)
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


def _suite_kunneth(field, eps):
    # the direct side is dim M(S) + dim S^2, computed from scratch on the
    # sum S by the homology route, against the formula from the summands
    rows = []
    keys = catalog.all_keys(6, field)
    rng = random.Random(tables.KUNNETH_SEED)
    for t in range(tables.KUNNETH_PAIR_COUNT):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        h = catalog.build(k1, field).algebra
        k = catalog.build(k2, field).algebra
        s = direct_sum(h, k)
        formula = kunneth_exterior_dim(h, k)
        direct = schur_multiplier(s).dim + derived_subalgebra(s).dim
        rows.append(SuiteRow("kunneth", f"{k1}|{k2}", str(formula), str(direct)))
    for n in range(1, tables.ABELIAN_MULTIPLIER_RANGE + 1):
        alg = catalog.abelian_algebra(n, field)
        rows.append(SuiteRow("kunneth", f"A{n}-multiplier",
                             str(n * (n - 1) // 2),
                             str(schur_multiplier(alg).dim)))
    rows.append(SuiteRow("kunneth", "H1-multiplier", "2",
                         str(schur_multiplier(catalog.heisenberg_algebra(1, field)).dim)))
    for m in range(2, tables.HEISENBERG_MULTIPLIER_RANGE + 1):
        alg = catalog.heisenberg_algebra(m, field)
        rows.append(SuiteRow("kunneth", f"H{m}-multiplier",
                             str(2 * m * m - m - 1),
                             str(schur_multiplier(alg).dim)))
    return rows


def _suite_theorem2(field, eps):
    rows = []
    for dim in range(3, 7):
        for key in catalog.expand_keys(dim, field, eps):
            alg = catalog.build(key, field).algebra
            check = theorem2_bound_check(alg, label=str(key))
            if check.status == "skipped":
                computed = f"skipped({check.reason})"
                expected = computed  # a skip is not a failure
            else:
                expected = "bound-holds"
                computed = "bound-holds" if check.holds else \
                    f"bound-fails({check.lhs}>{check.rhs})"
            rows.append(SuiteRow("theorem2", str(key), expected, computed))
    return rows


SUITES = {name: _table_suite(name) for name in TABLE_SUITES}
SUITES.update(census=_suite_census, kunneth=_suite_kunneth, theorem2=_suite_theorem2)


def run_suites(names, field, eps):
    rows = []
    for name in names:
        rows.extend(SUITES[name](field, eps))
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
            algebra, label = from_json(json.load(fh)), args.file
        # catalog.build has already validated a key's algebra
        report = validate(algebra)
        if not report.ok:
            i, j, k, res = report.first_failure()
            terms = " + ".join(f"{algebra.field.to_str(res[t])}*{algebra.labels[t]}"
                               for t in sorted(res))
            print(f"error: Jacobi violation at ({i + 1},{j + 1},{k + 1}): {terms}",
                  file=sys.stderr)
            return 3
    else:
        field = _field_from_arg(args.field)
        key = catalog.parse_key(args.key, field)
        algebra, label = catalog.build(key, field).algebra, str(key)
    _print_report(invariant_report(algebra, label), args.format)
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
    parser = argparse.ArgumentParser(prog="liecap",
                                     description=__doc__.splitlines()[0])
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
