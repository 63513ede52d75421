import random

import pytest
from conftest import (
    generalized_heisenberg,
    random_basis_change,
    solvable_algebra,
    theorem2_reference,
)

from liecap import catalog, covers
from liecap.algebra import LieAlgebra, center, derived_subalgebra, direct_sum, quotient, transform
from liecap.capability import (
    WrongDimension,
    central_test_lines,
    dagger_test,
    noncapable_census,
    theorem2_bound_check,
)
from liecap.covers import Cover, exterior_center
from liecap.homology import NotCentral, induced_map_injective, schur_multiplier
from liecap.linalg import QQ, PrimeField, Subspace
from liecap.recognize import recognize


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


class TestIsCapable:
    # the verdict is Z^(L) read off Lambda^2 L / im d3: capable iff dim 0
    def test_h1_capable(self):
        assert schur_multiplier(build("H1")).exterior_center().dim == 0

    def test_l616_noncapable(self):
        assert schur_multiplier(build("L6_16")).exterior_center().dim == 1

    def test_l622_capable(self):
        assert schur_multiplier(build("L6_22(e=1)")).exterior_center().dim == 0

    def test_heisenberg_sums(self):
        # Z^(H(m) + A(k)) is L^2 for m >= 2 and 0 for m = 1, so H(m) + A(k)
        # is capable exactly when m = 1
        for field in (QQ, PrimeField(3), PrimeField(101)):
            for m in range(1, 5):
                for k in range(4):
                    alg = direct_sum(catalog.heisenberg_algebra(m, field),
                                     catalog.abelian_algebra(k, field))
                    zw = schur_multiplier(alg).exterior_center()
                    expected = (Subspace.from_vectors(field, alg.dim, []) if m == 1
                                else derived_subalgebra(alg))
                    assert zw == expected, (field, m, k)
                    assert (zw.dim == 0) == (m == 1), (field, m, k)


class TestDagger:
    def test_l53_all_lines_false(self):
        L = build("L5_3")
        for line in central_test_lines(L):
            assert not dagger_test(L, line)

    def test_h2_derived_true(self):
        L = build("L5_4")
        assert dagger_test(L, derived_subalgebra(L))

    def test_a2_lines_false(self):
        L = build("A2")
        for line in central_test_lines(L):
            assert not dagger_test(L, line)

    def test_wrong_dimension(self):
        L = build("L5_3")
        with pytest.raises(WrongDimension):
            dagger_test(L, center(L))

    def test_not_central(self, d3_calls):
        L = build("L4_3")
        with pytest.raises(NotCentral):
            dagger_test(L, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))
        assert d3_calls == []


class TestCensus:
    def test_dim4(self):
        got = [str(k) for k in noncapable_census(4)]
        assert got == ["A1"]

    def test_dim5(self):
        got = [str(k) for k in noncapable_census(5)]
        assert got == ["A1", "L5_4"]

    def test_above_dim6_refused(self):
        with pytest.raises(catalog.UnsupportedDimension):
            noncapable_census(7)

    def test_dim6(self):
        got = noncapable_census(6)
        names = []
        for key in got:
            base = f"L{key.a}_{key.b}" if key.kind == "L" else str(key)
            if base not in names:
                names.append(base)
        assert names == ["A1", "L5_4", "L6_4", "L6_10", "L6_14", "L6_16",
                         "L6_19", "L6_20"]
        # every sampled epsilon member of L6_19 shows up
        eps_members = [k for k in got if k.kind == "L" and k.b == 19]
        assert len(eps_members) == 4


class TestTriangle:
    def test_indicators_agree(self):
        for text in ("L4_3", "L5_3", "L5_4", "L6_20", "L6_23", "A3"):
            L = build(text)
            zw = exterior_center(Cover(L))
            for line in central_test_lines(L):
                a = dagger_test(L, line)
                b = zw.contains_subspace(line)
                c = induced_map_injective(L, line)
                assert a == b == c, text


class TestMonotonicity:
    def test_exterior_center_inside_center_and_derived(self):
        for dim in range(3, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                zw = exterior_center(Cover(L))
                assert center(L).contains_subspace(zw), str(key)
                if not L.is_abelian():
                    assert derived_subalgebra(L).contains_subspace(zw), str(key)


class TestSweep:
    def test_capable_exterior_squares(self):
        # Z^(L ^ L) = 0 for every nonabelian entry of dimension 5
        squares = {}
        for key in catalog.expand_keys(5):
            L = catalog.build(key).algebra
            if L.is_abelian():
                continue
            w = squares[str(key)] = schur_multiplier(L).exterior_square()
            assert schur_multiplier(w).exterior_center().dim == 0, str(key)
        assert recognize(squares["L5_6"]).label() == "H(1)+A(3)"


class TestBoundCheck:
    def test_h2_plus_a1(self):
        # L^2/Z^(L) is the zero algebra, hence capable; the bound must hold
        L = build("L6_4")
        check = theorem2_bound_check(L)
        assert check.status == "checked"
        assert check.holds and check.lhs <= check.rhs

    def test_l56(self):
        L = build("L5_6")
        check = theorem2_bound_check(L)
        assert check.status == "checked"
        assert check.lhs == 0 and check.rhs == 3 and check.holds

    def test_abelian_skipped(self):
        check = theorem2_bound_check(build("A3"))
        assert check.status == "skipped"
        assert check.reason == "abelian"

    def test_small_dim_skipped(self):
        # [x1, x2] = x2: nonabelian, so the dimension check is the one that
        # refuses it
        check = theorem2_bound_check(LieAlgebra(QQ, 2, {(0, 1): {1: 1}}))
        assert (check.status, check.reason) == ("skipped", "dimension below 3")

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
    def test_not_nilpotent_skipped_before_im_d3(self, field, d3_calls):
        check = theorem2_bound_check(solvable_algebra(field))
        assert (check.status, check.reason) == ("skipped", "not nilpotent")
        assert d3_calls == []
        # the fixture does see an im d3 that is built
        L = solvable_algebra(field)
        schur_multiplier(L)
        assert d3_calls == [L]


class TestBoundCheckReference:
    """theorem2_bound_check, with L/Z^(L) = L when Z^(L) = 0 and L^2/Z^(L)
    built as (L/Z^(L))^2, gives the BoundCheck of the quotient-by-coords
    formulation."""

    FIELDS = [QQ, PrimeField(3), PrimeField(101)]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_catalog(self, field):
        statuses = set()
        for key in catalog.all_keys(6, field):
            L = catalog.build(key, field).algebra
            check = theorem2_bound_check(L)
            assert check == theorem2_reference(L), str(key)
            statuses.add((check.status, check.reason))
        # checked rows and both skips a nilpotent catalog entry can meet
        assert statuses == {("checked", ""), ("skipped", "abelian"),
                            ("skipped", "L^2/Z^(L) not capable")}

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_scrambles(self, field):
        rng = random.Random(29)
        keys = [k for k in catalog.all_keys(6, field) if k.a >= 4]
        for key in rng.sample(keys, 8):
            L = catalog.build(key, field).algebra
            L = transform(L, random_basis_change(rng, L.dim, field))
            assert theorem2_bound_check(L) == theorem2_reference(L), str(key)


def class_two_cases(field):
    """(name, algebra) of class 2 at dims 7 to 30: random rank-r generalized
    Heisenberg algebras, sums H(m) + H(k) and free nilpotent F(d, 2)."""
    rng = random.Random(41)
    cases = [(f"GH({v},{r})", generalized_heisenberg(rng, v, r, field))
             for v, r in [(4, 3), (5, 2), (5, 4), (6, 3), (7, 5), (8, 4), (9, 3)]]
    cases += [(f"H({m})+H({k})", direct_sum(catalog.heisenberg_algebra(m, field),
                                            catalog.heisenberg_algebra(k, field)))
              for m, k in [(2, 1), (3, 2), (5, 5), (7, 6)]]
    cases += [(f"F({d},2)", covers.free_nilpotent(d, 2).algebra_over(field)) for d in (4, 5, 7)]
    assert all(7 <= L.dim <= 30 for _, L in cases)
    return cases


def class_two_summary(L):
    """dims of M(L), L ^ L and Z^(L), and the theorem2 check of L."""
    m = schur_multiplier(L)
    return m.dim, m.exterior_square().dim, m.exterior_center().dim, theorem2_bound_check(L)


class TestClassTwoBeyondCatalog:
    """In class 2, d3(x ^ y ^ z) = [x, y] ^ z for central z puts L^2 ^ Z(L)
    in im d3, so L ^ L is abelian of dim M(L) + dim L^2; an abelian square
    of dim at least 2 is capable, so the theorem2 lhs is 0.  A basis change
    moves none of the answers."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)
    def test_abelian_square_and_zero_lhs(self, field):
        rng = random.Random(43)
        checked = 0
        for name, L in class_two_cases(field):
            m = schur_multiplier(L)
            square = m.exterior_square()
            assert square.is_abelian(), name
            assert square.dim == m.dim + derived_subalgebra(L).dim, name
            check = theorem2_bound_check(L)
            if check.status == "checked":
                assert check.lhs == 0 and check.holds, name
                checked += 1
            else:
                assert check.reason == "L^2/Z^(L) not capable", name
            # a scrambled basis fills the table, and im d3 with it
            if L.dim <= 10:
                scrambled = transform(L, random_basis_change(rng, L.dim, field))
                assert class_two_summary(scrambled) == class_two_summary(L), name
        assert checked >= 10


class TestClassThreeRow:
    """A class-3 row where the theorem2 lhs is not 0: F(4,3) modulo every
    class-3 Hall word but [[x3,x1],x2] and [[x4,x1],x2].  Its L ^ L is
    H(2) + A(22), whose exterior center is the line L^2, so lhs = 1."""

    @staticmethod
    def row(field):
        F = covers.free_nilpotent(4, 3)
        A = F.algebra_over(field)
        kept = ("[[x3,x1],x2]", "[[x4,x1],x2]")
        dropped = [{w.rank: field.one} for w in F.words if w.degree == 3 and repr(w) not in kept]
        return quotient(A, Subspace.from_vectors(field, A.dim, dropped))[0]

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=repr)
    def test_bound_bites(self, field):
        L = self.row(field)
        m = schur_multiplier(L)
        assert (L.dim, m.dim, m.exterior_center().dim) == (12, 19, 0)
        check = theorem2_bound_check(L)
        assert (check.status, check.lhs, check.rhs, check.holds) == ("checked", 1, 19, True)
        assert recognize(m.exterior_square()).label() == "H(2)+A(22)"
