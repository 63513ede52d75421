import random

import pytest

from conftest import (
    central_extension,
    generalized_heisenberg,
    intersection_reference,
    random_basis_change,
)
from liecap import catalog
from liecap.algebra import (
    AlgebraMap,
    LieAlgebra,
    center,
    derived_subalgebra,
    direct_sum,
    lower_central_series,
    transform,
    validate,
)
from liecap.covers import free_nilpotent
from liecap.homology import diagonal_square_dim, schur_multiplier
from liecap.linalg import QQ, LinalgError, PrimeField
from liecap.recognize import (
    _is_isomorphism,
    fingerprint,
    heisenberg_sum_model,
    l58_sum_model,
    recognize,
)


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


class TestLabels:
    def test_abelian(self):
        assert recognize(build("A4")).label() == "A(4)"
        assert recognize(catalog.abelian_algebra(0)).label() == "A(0)"

    def test_heisenberg(self):
        assert recognize(build("H2")).label() == "H(2)"
        assert recognize(build("L4_2")).label() == "H(1)+A(1)"

    def test_l58(self):
        assert recognize(build("L5_8")).label() == "L5_8"

    def test_exterior_square_of_l57(self):
        from liecap.covers import Cover, exterior_square
        assert recognize(exterior_square(Cover(build("L5_7")))).label() == "H(1)+A(3)"

    def test_exterior_square_of_l621(self):
        from liecap.covers import Cover, exterior_square
        iso = recognize(exterior_square(Cover(build("L6_21(e=2)"))))
        assert iso.kind == "l58_sum" and iso.k == 3

    def test_unrecognized_has_fingerprint(self):
        iso = recognize(build("L5_7"))  # class 4: outside the families
        assert iso.kind == "unrecognized"
        assert iso.label().startswith("UNRECOGNIZED[")


def split_model(kind, m, k, field):
    """The model algebra of a split label."""
    if kind == "heisenberg_sum":
        return heisenberg_sum_model(m, k, field)
    return l58_sum_model(k, field)


def assert_split(algebra, kind, m, k):
    """recognize splits algebra as kind with these m and k, its basis takes
    algebra to the model table exactly, and the certificate of the split,
    the isomorphism from the model onto that basis, agrees."""
    iso = recognize(algebra)
    assert (iso.kind, iso.m, iso.k) == (kind, m, k)
    model = split_model(kind, m, k, algebra.field)
    assert transform(algebra, iso.basis).table == model.table
    assert _is_isomorphism(model, algebra, iso.basis)


class TestHeisenbergDecomposition:
    """dim L^2 = 1 in class 2: the H(m)+A(k) branch of the class-2 split."""

    def test_h2(self):
        assert_split(build("H2"), "heisenberg_sum", 2, 0)

    def test_l42(self):
        assert_split(build("L4_2"), "heisenberg_sum", 1, 1)

    def test_basis_transforms_to_model(self):
        assert_split(build("L6_4"), "heisenberg_sum", 2, 1)  # H(2) + A(1)

    def test_scrambled_heisenberg(self):
        rng = random.Random(17)
        for m, k in ((1, 0), (1, 2), (2, 1), (3, 0)):
            model = heisenberg_sum_model(m, k, QQ)
            T = random_basis_change(rng, model.dim)
            assert_split(transform(model, T), "heisenberg_sum", m, k)

    def test_scrambled_heisenberg_prime_field(self):
        rng = random.Random(19)
        for F in (PrimeField(3), PrimeField(7), PrimeField(101)):
            for m, k in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0)):
                model = heisenberg_sum_model(m, k, F)
                scrambled = transform(model, random_basis_change(rng, model.dim, field=F))
                assert_split(scrambled, "heisenberg_sum", m, k)


class TestSplitCertificate:
    """The class-2 split is certified by the map from the model onto its
    basis: its columns have full rank and it preserves brackets, which
    holds exactly when ``transform`` takes the algebra on that basis to the
    model table, the reference kept here."""

    FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)

    @staticmethod
    def splits(field):
        """(algebra, model, basis) for both split shapes, each with and
        without A(k), as given and scrambled."""
        rng = random.Random(29)
        out = []
        for model in (heisenberg_sum_model(1, 0, field), heisenberg_sum_model(2, 2, field),
                      l58_sum_model(0, field), l58_sum_model(2, field)):
            for L in (model, transform(model, random_basis_change(rng, model.dim, field))):
                iso = recognize(L)
                assert iso.basis is not None
                out.append((L, model, iso.basis))
        return out

    @FIELDS
    def test_split_bases_certified(self, field):
        for L, model, basis in self.splits(field):
            assert transform(L, basis).table == model.table
            assert _is_isomorphism(model, L, basis)

    @FIELDS
    def test_scaled_core_vector_rejected(self, field):
        two = field.from_int(2)
        for L, model, basis in self.splits(field):
            scaled = ({i: field.mul(two, c) for i, c in basis[0].items()}, *basis[1:])
            assert transform(L, scaled).table != model.table
            assert not _is_isomorphism(model, L, scaled)

    @FIELDS
    def test_repeated_column_rejected(self, field):
        for L, model, basis in self.splits(field):
            for a, b in ((0, 1), (len(basis) - 2, len(basis) - 1)):
                repeated = tuple(basis[a] if t == b else col for t, col in enumerate(basis))
                with pytest.raises(LinalgError):
                    transform(L, repeated)
                assert not _is_isomorphism(model, L, repeated)

    def test_rank_is_checked_apart_from_brackets(self):
        # the last A(2) column repeated: the map still preserves brackets,
        # since A(2) brackets to zero, but it is no bijection
        model = heisenberg_sum_model(2, 2, QQ)
        L = transform(model, random_basis_change(random.Random(31), model.dim))
        basis = recognize(L).basis
        repeated = (*basis[:-1], basis[-2])
        assert AlgebraMap(model, L, repeated).is_bracket_preserving()
        assert not _is_isomorphism(model, L, repeated)


class TestRoundTrips:
    def test_heisenberg_sums(self):
        for m in (1, 2, 3):
            for k in range(5):
                assert_split(heisenberg_sum_model(m, k, QQ), "heisenberg_sum", m, k)

    def test_l58_sums(self):
        for k in range(4):
            assert_split(l58_sum_model(k, QQ), "l58_sum", 0, k)

    def test_scrambled_l58_sums(self):
        rng = random.Random(23)
        for field in (QQ, PrimeField(3), PrimeField(101)):
            for k in (0, 1, 3):
                model = l58_sum_model(k, field)
                for _ in range(5):
                    scrambled = transform(model, random_basis_change(rng, model.dim, field))
                    assert_split(scrambled, "l58_sum", 0, k)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)],
                             ids=["Q", "GF3", "GF101"])
    def test_class_two_outside_both_shapes(self, field):
        # L6_22(e=1): dim L^2 = 2 with dim W = 4; F(3,2): dim L^2 = 3
        rng = random.Random(37)
        cases = [(catalog.build(catalog.parse_key("L6_22(e=1)"), field).algebra, 2, 4),
                 (free_nilpotent(3, 2).algebra_over(field), 3, 3)]
        for L, der_dim, w_dim in cases:
            for _ in range(3):
                scrambled = transform(L, random_basis_change(rng, L.dim, field))
                assert len(lower_central_series(scrambled)) - 1 == 2
                der = derived_subalgebra(scrambled)
                assert (der.dim, L.dim - center(scrambled).dim) == (der_dim, w_dim)
                iso = recognize(scrambled)
                assert (iso.kind, iso.basis) == ("unrecognized", None)
                assert iso.fp == fingerprint(L)

    def test_soundness_reconstruction(self):
        # whenever a label comes back, the labeled model has the same fingerprint
        from liecap.covers import Cover, exterior_square
        for text in ("L5_6", "L6_16", "L6_21(e=1)", "L6_28"):
            W = exterior_square(Cover(build(text)))
            iso = recognize(W)
            if iso.kind == "heisenberg_sum":
                model = heisenberg_sum_model(iso.m, iso.k, QQ)
            elif iso.kind == "l58_sum":
                model = l58_sum_model(iso.k, QQ)
            else:
                continue
            assert fingerprint(W) == fingerprint(model)


class TestRandomClassTwoOracle:
    """Random dim-5 class-2 algebras with dim L^2 = dim Z = 2 are all L5_8.

    This is the basis-search style certification of the recognition rule:
    instances are produced by scrambling arbitrary surjections from the
    second exterior power, not by decorating the model table.
    """

    def _random_instance(self, rng, field):
        # a random kernel line inside Lambda^2(F^3) determines the bracket
        while True:
            kappa = [field.from_int(rng.randint(-3, 3)) for _ in range(3)]
            if any(kappa):
                break
        pairs = ((0, 1), (0, 2), (1, 2))
        from liecap.linalg import kernel_from_rows
        # two independent functionals vanishing on kappa give the bracket coords
        ker = kernel_from_rows(field, 3, [{t: kappa[t] for t in range(3) if kappa[t]}])
        funcs = ker.sparse_rows()  # 2 functionals: bracket coords
        brackets = {}
        for t, (i, j) in enumerate(pairs):
            out = {}
            for s, func in enumerate(funcs):
                c = func.get(t)
                if c:
                    out[3 + s] = c
            if out:
                brackets[(i, j)] = out
        return LieAlgebra(field, 5, brackets)

    def test_random_instances_recognized(self):
        rng = random.Random(20240229)
        for _ in range(40):
            L = self._random_instance(rng, QQ)
            assert validate(L).ok
            scrambled = transform(L, random_basis_change(rng, 5))
            assert_split(scrambled, "l58_sum", 0, 0)

    def test_prime_field_instances(self):
        F = PrimeField(5)
        rng = random.Random(31)
        for _ in range(10):
            L = self._random_instance(rng, F)
            if not L.table:
                continue
            assert_split(L, "l58_sum", 0, 0)


class TestFingerprint:
    def test_relabeling_invariance(self):
        rng = random.Random(41)
        for dim in range(3, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                fp = fingerprint(L)
                scrambled = transform(L, random_basis_change(rng, L.dim))
                assert fingerprint(scrambled) == fp, str(key)

    def test_direct_sum_commutes(self):
        for t1, t2 in (("L5_8", "H1"), ("L4_3", "A2"), ("L5_6", "H2"),
                       ("L6_19(e=2)", "L3_2")):
            h, k = build(t1), build(t2)
            assert (fingerprint(direct_sum(h, k))
                    == fingerprint(direct_sum(k, h))), (t1, t2)

    def test_distinguishes_imposters(self):
        # same dim, both class 2: differ in derived dimension
        a = direct_sum(build("L5_8"), build("A1"))
        b = build("L6_26")
        assert fingerprint(a) != fingerprint(b)

    def test_string_form(self):
        s = str(fingerprint(build("L4_3")))
        assert s.startswith("dim=4;") and "m=2" in s

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
    def test_derived_cap_center_is_the_intersection(self, field):
        # dim L^2 + dim Z - dim(L^2 + Z) against L^2 cap Z built as a kernel,
        # on the squares of F(3,3), F(2,5) and F(4,2), on scrambled
        # generalized Heisenberg algebras and on the scrambled catalog,
        # where L^2 cap Z is often inside both and equal to neither
        rng = random.Random(73)
        cases = [schur_multiplier(free_nilpotent(d, c).algebra_over(field)).exterior_square()
                 for d, c in ((3, 3), (2, 5), (4, 2))]
        for v, r in ((4, 2), (5, 3), (6, 4), (6, 1)):
            L = generalized_heisenberg(rng, v, r, field)
            cases.append(transform(L, random_basis_change(rng, L.dim, field)))
        for key in catalog.all_keys(6, field):
            L = catalog.build(key, field).algebra
            cases.append(transform(L, random_basis_change(rng, L.dim, field)))
        proper = 0
        for L in cases:
            der, z = derived_subalgebra(L), center(L)
            cap = fingerprint(L).derived_cap_center
            assert cap == intersection_reference(der, z).dim, repr(L)
            proper += 0 < cap < min(der.dim, z.dim)
        assert [fingerprint(W).derived_cap_center for W in cases[:3]] == [3, 6, 0]
        assert proper >= 5


def derived_tensor_cases():
    """(name, algebra): the catalog over Q and GF(3), F(d,c) for d + c <= 7
    and ten seeded central extensions."""
    cases = []
    for field in (QQ, PrimeField(3)):
        cases += [(f"{key}@{field}", catalog.build(key, field).algebra)
                  for key in catalog.all_keys(6, field)]
    cases += [(f"F({d},{c})", free_nilpotent(d, c).algebra)
              for d in range(2, 7) for c in range(1, 8 - d)]
    rng = random.Random(61)
    keys = [k for k in catalog.all_keys(6) if k.a >= 3]
    for t in range(10):
        key = rng.choice(keys)
        cases.append((f"ext{t}:{key}",
                      central_extension(catalog.build(key).algebra, rng.choice((1, 2)), rng)))
    return cases


def assert_derived_label(derived, algebra, name):
    """derived is the label that recognize gives algebra directly; a split
    basis must take algebra to the model table."""
    direct = recognize(algebra)
    assert derived.label() == direct.label(), name
    if derived.basis is None:
        assert derived == direct, name
    else:
        model = split_model(derived.kind, derived.m, derived.k, algebra.field)
        assert transform(algebra, derived.basis).table_key() == model.table_key(), name
        assert _is_isomorphism(model, algebra, derived.basis), name


class TestDerivedTensorLabel:
    """L x L = (L ^ L) + A(diagonal): the tensor label read off the exterior
    label equals the one recognized on L x L itself."""

    def test_matches_direct_recognition(self):
        rng = random.Random(67)
        kinds = []
        for name, base in derived_tensor_cases():
            algebras = [base]
            # a scrambled basis fills the table; above dim 8 (F(4,2), F(2,5),
            # F(3,3), F(5,2), F(3,4), F(4,3)) its d3 takes up to seconds
            if base.dim <= 8:
                algebras.append(transform(base, random_basis_change(rng, base.dim, base.field)))
            for L in algebras:
                m = schur_multiplier(L)
                derived = recognize(m.exterior_square()).plus_abelian(diagonal_square_dim(L))
                assert_derived_label(derived, m.tensor_square(), name)
                kinds.append(derived.kind)
        assert min(kinds.count(k) for k in ("abelian", "heisenberg_sum", "l58_sum")) >= 10
        assert kinds.count("unrecognized") >= 4

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
    def test_catalog_plus_abelian(self, field):
        # the catalog's own labels cover every kind, most of them fingerprints
        rng = random.Random(71)
        kinds = []
        for key in catalog.all_keys(6, field):
            W = catalog.build(key, field).algebra
            W = transform(W, random_basis_change(rng, W.dim, field))
            iso = recognize(W)
            assert_derived_label(iso.plus_abelian(2),
                                 direct_sum(W, catalog.abelian_algebra(2, field)), str(key))
            kinds.append(iso.kind)
        assert kinds.count("unrecognized") >= 20
