import itertools
import random

import pytest

from conftest import central_extension, random_basis_change
from liecap import catalog
from liecap.algebra import LieAlgebra, center, derived_subalgebra, transform, validate
from liecap.cli import main
from liecap.covers import (
    Cover,
    ResourceLimit,
    default_generator_lift,
    exterior_center,
    exterior_square,
    free_nilpotent,
    hall_basis,
    tensor_square,
)
from liecap.homology import diagonal_square_dim, schur_multiplier
from liecap.linalg import QQ, PrimeField
from liecap.recognize import recognize


def build(text):
    return catalog.build(catalog.parse_key(text)).algebra


def witt_dim(d, n):
    # number of degree-n Hall words: (1/n) sum_{e | n} mu(e) d^(n/e)
    def mobius(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    total = sum(mobius(e) * d ** (n // e) for e in range(1, n + 1) if n % e == 0)
    return total // n


class TestHallBasis:
    def test_two_generators_class_two(self):
        words = hall_basis(2, 2)
        assert [repr(w) for w in words] == ["x1", "x2", "[x2,x1]"]

    def test_two_generators_class_three(self):
        assert len(hall_basis(2, 3)) == 5

    def test_four_generators_class_two(self):
        assert len(hall_basis(4, 2)) == 10

    def test_witt_oracle(self):
        for d in (1, 2, 3, 4):
            for c in (1, 2, 3, 4):
                words = hall_basis(d, c)
                by_deg = {}
                for w in words:
                    by_deg[w.degree] = by_deg.get(w.degree, 0) + 1
                for n in range(1, c + 1):
                    assert by_deg.get(n, 0) == witt_dim(d, n), (d, c, n)

    def test_hall_conditions(self):
        for w in hall_basis(3, 4):
            if w.gen is None:
                assert w.left.rank > w.right.rank
                if w.left.gen is None:
                    assert w.left.right.rank <= w.right.rank

    def test_resource_limit(self):
        # F(6, 6) has 6+15+70+315+1554+7735 words, over the fixed cap
        with pytest.raises(ResourceLimit, match="exceeds 5000 words"):
            hall_basis(6, 6)

    def test_resource_limit_on_the_command_line(self, capsys):
        # the cover of A(100) is F(100, 2): 100 + 4950 = 5050 words
        assert main(["cover", "A100"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Hall basis for d=100, c=2 exceeds 5000 words\n"


class TestFreeNilpotent:
    def test_f22_is_heisenberg(self):
        F = free_nilpotent(2, 2)
        assert F.dim == 3
        assert recognize(F.algebra).label() == "H(1)"

    def test_f26_dim(self):
        assert free_nilpotent(2, 6).dim == 23

    def test_f33_dim(self):
        assert free_nilpotent(3, 3).dim == 14

    def test_small_free_algebras_validate(self):
        for (d, c) in ((2, 3), (2, 4), (3, 3), (4, 2)):
            assert validate(free_nilpotent(d, c).algebra).ok, (d, c)

    def test_f44_jacobi_sampled(self):
        F = free_nilpotent(4, 4)
        alg = F.algebra
        rng = random.Random(11)
        one = QQ.one
        for _ in range(200):
            i, j, k = sorted(rng.sample(range(F.dim), 3))
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = alg.bracket_basis(b, c)
                out = alg.bracket_sparse({a: one}, inner)
                for t, v in out.items():
                    nv = total.get(t, QQ.zero) + v
                    if nv:
                        total[t] = nv
                    else:
                        total.pop(t, None)
            assert not total, (i, j, k)

    def test_grading(self):
        F = free_nilpotent(3, 3)
        for (i, j), row in F.algebra.table.items():
            deg = F.words[i].degree + F.words[j].degree
            for k in row:
                assert F.words[k].degree == deg


class TestCover:
    def test_cover_invariants_catalog(self):
        for dim in range(1, 7):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                cov = Cover(L)
                assert cov.multiplier_dim == schur_multiplier(L).dim, str(key)
                assert cov.star_dim == L.dim + cov.multiplier_dim
                assert cov.pi.is_bracket_preserving(), str(key)
                assert center(cov.star).contains_subspace(cov.multiplier_part), str(key)

    def test_abelian_cover(self):
        for n in (1, 2, 4):
            cov = Cover(catalog.abelian_algebra(n))
            assert cov.multiplier_dim == n * (n - 1) // 2
            assert cov.star_dim == n + n * (n - 1) // 2

    def test_lift_must_generate(self):
        # x1 and 2 x1 span a line, which generates no more than itself
        with pytest.raises(ValueError, match="does not generate"):
            Cover(build("L4_3"), lift=[{0: 1}, {0: 2}])

    def test_l56_multiplier(self):
        assert Cover(build("L5_6")).multiplier_dim == 3

    def test_l611_multiplier(self):
        assert Cover(build("L6_11")).multiplier_dim == 5

    def test_class_bound_redundancy(self):
        # the same dims come out inside F(d, c+2) for every dim <= 5 entry
        for dim in range(1, 6):
            for key in catalog.expand_keys(dim):
                L = catalog.build(key).algebra
                a = Cover(L)
                b = Cover(L, extra_class=1)
                assert (a.star_dim, a.multiplier_dim) == (b.star_dim, b.multiplier_dim), str(key)
                assert (recognize(exterior_square(a)).label()
                        == recognize(exterior_square(b)).label()), str(key)

    def test_generator_lift_independence(self):
        rng = random.Random(20240601)
        for text in ("L5_6", "L6_10", "L5_4", "L6_21(e=1)"):
            L = build(text)
            base = Cover(L)
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
                assert got == expect, text


class TestStarTable:
    """The star table is read off the free table's pairs of kept words."""

    def test_no_bracket_basis_calls(self, monkeypatch):
        cover = Cover(catalog.abelian_algebra(30))
        calls = []
        bracket_basis = LieAlgebra.bracket_basis

        def counted(self, i, j):
            calls.append((i, j))
            return bracket_basis(self, i, j)
        monkeypatch.setattr(LieAlgebra, "bracket_basis", counted)
        assert cover.star.dim == 30 + 30 * 29 // 2
        assert calls == []

    @staticmethod
    def brute_force_star_key(cover):
        """Every pair of kept free words, bracketed and reduced mod [R, F]."""
        field = cover.algebra.field
        free_alg = cover.free.algebra_over(field)
        span = cover._span
        pivots = set(span.pivots())
        kept = [i for i in range(cover.free.dim) if i not in pivots]
        one = field.one
        brackets = {}
        for a, b in itertools.combinations(range(len(kept)), 2):
            vec = free_alg.bracket_sparse({kept[a]: one}, {kept[b]: one})
            brackets[(a, b)] = {kept.index(c): v for c, v in span.reduce(vec).items()}
        return LieAlgebra(field, len(kept), brackets).table_key()

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
    def test_equals_all_pairs(self, field):
        for key in catalog.all_keys(6, field):
            cover = Cover(catalog.build(key, field).algebra)
            assert cover.star.table_key() == self.brute_force_star_key(cover), str(key)


class TestExteriorSquare:
    def test_abelian(self):
        for n in (1, 2, 4, 6):
            W = exterior_square(Cover(catalog.abelian_algebra(n)))
            assert recognize(W).label() == f"A({n * (n - 1) // 2})"

    def test_l56(self):
        assert recognize(exterior_square(Cover(build("L5_6")))).label() == "H(1)+A(3)"

    def test_l614_computed_value(self):
        # the published table says L5_8+A(1); the computed square is H(1)+A(3)
        # (proved without the cover route in
        # tests/test_homology.py::TestL614ExteriorSquare)
        assert recognize(exterior_square(Cover(build("L6_14")))).label() == "H(1)+A(3)"

    def test_l621_split(self):
        assert recognize(exterior_square(Cover(build("L6_21(e=0)")))).label() == "H(1)+A(5)"
        assert recognize(exterior_square(Cover(build("L6_21(e=2)")))).label() == "L5_8+A(3)"

    def test_abelian_when_derived_is_line(self):
        # dim L^2 = 1 forces an abelian exterior square
        for text in ("L5_4", "H1", "L4_2"):
            W = exterior_square(Cover(build(text)))
            assert W.is_abelian()


class TestExteriorCenter:
    def test_l43_capable(self):
        assert exterior_center(Cover(build("L4_3"))).dim == 0

    def test_h2(self):
        L = build("L5_4")
        zw = exterior_center(Cover(L))
        assert zw.dim == 1
        assert zw == derived_subalgebra(L)

    def test_abelian(self):
        assert exterior_center(Cover(build("A1"))).dim == 1
        for n in (2, 3, 5):
            assert exterior_center(Cover(catalog.abelian_algebra(n))).dim == 0


class TestDiagonalAndTensor:
    def test_diagonal_dims(self):
        assert diagonal_square_dim(build("L5_1")) == 15
        assert diagonal_square_dim(build("L5_6")) == 3
        assert diagonal_square_dim(build("L4_3")) == 3

    def test_tensor_l59(self):
        assert recognize(tensor_square(Cover(build("L5_9")))).label() == "A(9)"

    def test_tensor_l56(self):
        assert recognize(tensor_square(Cover(build("L5_6")))).label() == "H(1)+A(6)"

    def test_tensor_heisenberg(self):
        for m in (2, 3):
            W = tensor_square(Cover(catalog.heisenberg_algebra(m)))
            assert recognize(W).label() == f"A({4 * m * m})"


class TestRoutesAgree:
    """The cover route against the Lambda^2 / im d3 route of ``homology``."""

    @staticmethod
    def assert_agree(L, name):
        cov = Cover(L)
        m = schur_multiplier(L)
        assert (recognize(exterior_square(cov)).label()
                == recognize(m.exterior_square()).label()), name
        assert (recognize(tensor_square(cov)).label()
                == recognize(m.tensor_square()).label()), name
        assert exterior_center(cov) == m.exterior_center(), name
        if not L.is_abelian():
            w_cover = exterior_square(cov)
            w_wedge = m.exterior_square()
            assert (exterior_center(Cover(w_cover)).dim
                    == schur_multiplier(w_wedge).exterior_center().dim), name

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
    def test_catalog(self, field):
        for key in catalog.all_keys(6, field):
            self.assert_agree(catalog.build(key, field).algebra, f"{key} over {field!r}")

    def test_central_extensions(self):
        rng = random.Random(20261018)
        keys = [k for k in catalog.all_keys(6) if k.a >= 3]
        for trial in range(20):
            key = rng.choice(keys)
            E = central_extension(catalog.build(key).algebra, rng.choice((1, 2)), rng)
            assert validate(E).ok
            self.assert_agree(E, f"extension {trial} of {key}")

    def test_scrambled_bases(self):
        # a random basis change mixes the pairs that the coordinate basis
        # keeps apart in Lambda^2, on every noncapable entry and a few others
        rng = random.Random(1018)
        for text in ("A1", "L5_4", "L6_4", "L6_10", "L6_14", "L6_16", "L6_19(e=2)",
                     "L6_20", "L5_6", "L6_21(e=2)", "L6_25"):
            L = build(text)
            for _ in range(3):
                self.assert_agree(transform(L, random_basis_change(rng, L.dim)), text)
