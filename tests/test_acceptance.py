"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line.  The published tables are checked
verbatim, with one exception: the dim-6 exterior square of L6_14, published
as L5_8+A(1), is proven to be H(1)+A(3) by
tests/test_homology.py::TestL614ExteriorSquare.  Criterion 6 checks that row
against tables.EXTERIOR_6_ERRATA and still prints the divergence from the
published label.

Criteria 3, 4, 6, 7, 11 and 12 read the squares and exterior centers off
Lambda^2 L / im d3, the route the command line uses; criteria 1, 8, 9, 13
and the fixed sums of criterion 10 use the cover route.
"""

import random

import pytest

from conftest import central_extension
from liecap import catalog, tables
from liecap.algebra import derived_subalgebra, direct_sum, validate
from liecap.capability import (
    central_test_lines,
    dagger_test,
    noncapable_census,
    theorem2_bound_check,
)
from liecap.covers import (
    Cover,
    default_generator_lift,
    exterior_center,
    exterior_square,
    tensor_square,
)
from liecap.homology import (
    diagonal_square_dim,
    induced_map_injective,
    kunneth_exterior_dim,
    schur_multiplier,
)
from liecap.linalg import QQ
from liecap.recognize import recognize

EPSILON_SAMPLES = (0, 1, -1, 2)


def report(number, title, failures, notes=()):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {title}")
    for line in (*notes, *failures):
        print(f"    {line}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def entries():
    out = {}
    for dim in range(1, 7):
        for key in catalog.expand_keys(dim, QQ, EPSILON_SAMPLES):
            out[key] = catalog.build(key).algebra
    return out


@pytest.fixture(scope="module")
def covers_map(entries):
    return {key: Cover(alg) for key, alg in entries.items()}


def test_criterion_01_dim4_invariants():
    failures = []
    for k in range(1, 4):
        L = catalog.build(catalog.indexed_key(4, k)).algebra
        m = schur_multiplier(L).dim
        if m != tables.DIM4_MULTIPLIER[k]:
            failures.append(f"L4_{k}: multiplier {m} != {tables.DIM4_MULTIPLIER[k]}")
        wedge = recognize(exterior_square(Cover(L))).label()
        if wedge != tables.DIM4_EXTERIOR[k]:
            failures.append(f"L4_{k}: wedge {wedge} != {tables.DIM4_EXTERIOR[k]}")
        tensor = recognize(tensor_square(Cover(L))).label()
        if tensor != tables.DIM4_TENSOR[k]:
            failures.append(f"L4_{k}: tensor {tensor} != {tables.DIM4_TENSOR[k]}")
        diag = f"A({diagonal_square_dim(L)})"
        if diag != tables.DIM4_DIAGONAL[k]:
            failures.append(f"L4_{k}: diagonal {diag} != {tables.DIM4_DIAGONAL[k]}")
    report(1, "dim-4 multiplier/wedge/tensor/diagonal table", failures)


def test_criterion_02_dim5_multipliers():
    failures = []
    for k in range(1, 10):
        L = catalog.build(catalog.indexed_key(5, k)).algebra
        m = schur_multiplier(L).dim
        if m != tables.MULTIPLIER_5[k]:
            failures.append(f"L5_{k}: {m} != {tables.MULTIPLIER_5[k]}")
    report(2, "dim-5 multiplier table", failures)


def test_criterion_03_dim5_exterior(entries):
    failures = []
    for k in range(1, 10):
        key = catalog.indexed_key(5, k)
        label = recognize(schur_multiplier(entries[key]).exterior_square()).label()
        if label != tables.EXTERIOR_5[k]:
            failures.append(f"L5_{k}: {label} != {tables.EXTERIOR_5[k]}")
    report(3, "dim-5 exterior squares with isomorphism type", failures)


def test_criterion_04_dim5_diagonal_and_tensor(entries):
    failures = []
    for k in range(1, 10):
        key = catalog.indexed_key(5, k)
        L = entries[key]
        if diagonal_square_dim(L) != tables.DIAGONAL_5[k]:
            failures.append(f"L5_{k}: diagonal {diagonal_square_dim(L)}"
                            f" != {tables.DIAGONAL_5[k]}")
        label = recognize(schur_multiplier(L).tensor_square()).label()
        if label != tables.TENSOR_5[k]:
            failures.append(f"L5_{k}: tensor {label} != {tables.TENSOR_5[k]}")
    report(4, "dim-5 diagonal dims and tensor squares", failures)


def test_criterion_05_dim6_multipliers(entries):
    failures = []
    for key, L in entries.items():
        if not (key.kind == "L" and key.a == 6):
            continue
        m = schur_multiplier(L).dim
        if m != tables.MULTIPLIER_6[key.b]:
            failures.append(f"{key}: {m} != {tables.MULTIPLIER_6[key.b]}")
    report(5, "dim-6 multiplier table over all epsilon samples", failures)


def test_criterion_06_dim6_exterior(entries):
    failures, notes = [], []
    errata_checked = set()
    for key, L in entries.items():
        if not (key.kind == "L" and key.a == 6):
            continue
        published = tables.exterior_6_label(key.b, key.epsilon)
        label = recognize(schur_multiplier(L).exterior_square()).label()
        erratum = tables.EXTERIOR_6_ERRATA.get(key.b)
        if erratum is None:
            if label != published:
                failures.append(f"{key}: computed {label}, published {published}")
            continue
        errata_checked.add(key.b)
        if erratum == published:
            failures.append(f"{key}: erratum {erratum} repeats the published label")
        elif label != erratum:
            failures.append(f"{key}: computed {label}, erratum {erratum},"
                            f" published {published}")
        else:
            notes.append(f"{key}: computed {label}, published {published} (erratum)")
    for index in sorted(set(tables.EXTERIOR_6_ERRATA) - errata_checked):
        failures.append(f"L6_{index}: erratum row not in the catalog")
    report(6, "dim-6 exterior squares with isomorphism type"
              " (published table, one proven erratum)", failures, notes)


def test_criterion_07_noncapable_census(entries):
    failures = []
    census = {str(k) for k in noncapable_census(6, QQ, EPSILON_SAMPLES)}
    expected = {"A1", "L5_4", "L6_4", "L6_10", "L6_14", "L6_16", "L6_20"}
    expected |= {f"L6_19(e={e})" for e in EPSILON_SAMPLES}
    if census != expected:
        failures.append(f"census mismatch: extra={census - expected},"
                        f" missing={expected - census}")
    for key, L in entries.items():
        zw = schur_multiplier(L).exterior_center()
        should_be_noncapable = str(key) in expected
        if (zw.dim > 0) != should_be_noncapable:
            failures.append(f"{key}: exterior center dim {zw.dim}")
    report(7, "noncapable census matches, all other entries capable", failures)


def test_criterion_08_differential_test(entries, covers_map):
    failures = []
    for key, cov in covers_map.items():
        ce = schur_multiplier(entries[key]).dim
        if ce != cov.multiplier_dim:
            failures.append(f"{key}: homology {ce} vs cover {cov.multiplier_dim}")
    rng = random.Random(20240517)
    keys = [k for k in entries if 3 <= entries[k].dim <= 6]
    for trial in range(100):
        key = keys[trial % len(keys)]
        L = entries[key]
        kdim = min(rng.choice((1, 2)), 8 - L.dim)
        E = central_extension(L, kdim, rng)
        if not validate(E).ok:
            failures.append(f"extension of {key}: Jacobi failed")
            continue
        ce = schur_multiplier(E).dim
        hopf = Cover(E).multiplier_dim
        if ce != hopf:
            failures.append(f"extension of {key} (+{kdim}): {ce} != {hopf}")
    report(8, "homology multiplier == cover multiplier, catalog + 100 extensions",
           failures)


def test_criterion_09_consistency_triangle(entries, covers_map):
    failures = []
    checked = 0
    for key, L in entries.items():
        zw = exterior_center(covers_map[key])
        for line in central_test_lines(L):
            a = dagger_test(L, line)
            b = zw.contains_subspace(line)
            c = induced_map_injective(L, line)
            if not (a == b == c):
                failures.append(f"{key}: dagger={a} member={b} mono={c}")
            checked += 1
    assert checked > 200
    report(9, f"dagger/exterior-center/monomorphism agree on {checked} central lines",
           failures)


def test_criterion_10_kunneth(entries):
    failures = []
    rng = random.Random(tables.KUNNETH_SEED)
    keys = list(entries)
    for _ in range(tables.KUNNETH_PAIR_COUNT):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        h, k = entries[k1], entries[k2]
        s = direct_sum(h, k)
        direct = schur_multiplier(s).dim + derived_subalgebra(s).dim
        formula = kunneth_exterior_dim(h, k)
        if direct != formula:
            failures.append(f"{k1}|{k2}: direct {direct} != formula {formula}")
    # cover-route cross-check on fixed small sums
    for t1, t2 in (("H1", "A2"), ("L4_2", "A1"), ("H1", "H1")):
        h = catalog.build(catalog.parse_key(t1)).algebra
        k = catalog.build(catalog.parse_key(t2)).algebra
        s = direct_sum(h, k)
        if Cover(s).multiplier_dim + derived_subalgebra(s).dim != kunneth_exterior_dim(h, k):
            failures.append(f"cover route {t1}+{t2}")
    for n in range(1, 9):
        alg = catalog.abelian_algebra(n)
        if schur_multiplier(alg).dim != n * (n - 1) // 2:
            failures.append(f"A({n}) closed form")
    if schur_multiplier(catalog.heisenberg_algebra(1)).dim != 2:
        failures.append("H(1) closed form")
    for m in range(2, 5):
        alg = catalog.heisenberg_algebra(m)
        if schur_multiplier(alg).dim != 2 * m * m - m - 1:
            failures.append(f"H({m}) closed form")
    report(10, "Kunneth formula on 50 random pairs plus closed forms", failures)


def test_criterion_11_capable_exterior_squares(entries):
    failures = []
    for key, L in entries.items():
        if L.is_abelian():
            continue
        w = schur_multiplier(L).exterior_square()
        zw = schur_multiplier(w).exterior_center()
        if zw.dim != 0:
            failures.append(f"{key}: Z^(LwL) has dim {zw.dim}")
    report(11, "every nonabelian entry has capable exterior square", failures)


def test_criterion_12_bound_shadow(entries):
    failures = []
    checked = skipped = 0
    for key, L in entries.items():
        if L.dim < 3:
            continue
        res = theorem2_bound_check(L)
        if res.status == "skipped":
            skipped += 1
            continue
        checked += 1
        if not res.holds:
            failures.append(f"{key}: {res.lhs} > {res.rhs}")
    report(12, f"exterior-center bound holds ({checked} checked, {skipped} skipped)",
           failures)


def test_criterion_13_robustness(entries, covers_map):
    failures = []
    rng = random.Random(424242)
    for key, L in entries.items():
        base = covers_map[key]
        expect = (base.star_dim, base.multiplier_dim,
                  recognize(exterior_square(base)).label())
        gens = default_generator_lift(L)
        der_rows = derived_subalgebra(L).sparse_rows()
        for _ in range(20):
            lift = []
            for i in range(len(gens)):
                v = dict(gens[i])
                for j in range(i):
                    c = QQ.from_int(rng.randint(-1, 1))
                    if c:
                        for col, val in gens[j].items():
                            v[col] = v.get(col, QQ.zero) + c * val
                for row in der_rows:
                    c = QQ.from_int(rng.randint(-1, 1))
                    if c:
                        for col, val in row.items():
                            nv = v.get(col, QQ.zero) + c * val
                            if nv:
                                v[col] = nv
                            else:
                                v.pop(col, None)
                lift.append(v)
            cov = Cover(L, lift=lift)
            got = (cov.star_dim, cov.multiplier_dim,
                   recognize(exterior_square(cov)).label())
            if got != expect:
                failures.append(f"{key}: lift trial changed {expect} -> {got}")
                break
        if L.dim <= 5:
            padded = Cover(L, extra_class=1)
            got = (padded.star_dim, padded.multiplier_dim,
                   recognize(exterior_square(padded)).label())
            if got != expect:
                failures.append(f"{key}: extra truncation class changed {expect} -> {got}")
    report(13, "lift randomization (20/entry) and truncation padding invariant",
           failures)
