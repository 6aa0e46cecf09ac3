import math
from fractions import Fraction

import numpy as np
import pytest

from supereinstein import families, supercore
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    DegeneracyError,
    LieSuperAlgebra,
    LinearOperator,
    SuperBasis,
    algebra_to_json,
    bracket,
    check_form,
    check_super_jacobi,
    dual_basis,
    killing_form,
    supertrace,
)

from conftest import exact_entries, expand_in_basis


def unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def perturbed(alg, i, j, k, eps):
    """``alg`` with ``eps`` added to c[i, j, k] and to its graded-antisymmetric
    partner c[j, i, k], so the constructor accepts it."""
    entries = exact_entries(alg)
    sign = -1 if alg.basis.parity[i] and alg.basis.parity[j] else 1
    entries[(i, j, k)] = entries.get((i, j, k), 0) + eps
    entries[(j, i, k)] = entries.get((j, i, k), 0) - sign * eps
    return LieSuperAlgebra(alg.basis, entries, alg.decomposition)


def fraction_loop_jacobi(alg):
    """Test oracle: the largest |Jacobi sum| by a Fraction triple loop over
    basis triples, and the first (i, j, k) that reaches it."""
    by_pair = {}
    for (i, j, k), v in exact_entries(alg).items():
        by_pair.setdefault((i, j), {})[k] = v
    p = alg.basis.parity
    n = alg.dim
    worst, at = Fraction(0), (0, 0, 0)
    for i in range(n):
        for j in range(n):
            sij = -1 if (p[i] and p[j]) else 1
            for k in range(n):
                acc = {}
                for m, v in by_pair.get((j, k), {}).items():
                    for l, w in by_pair.get((i, m), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) + v * w
                for m, v in by_pair.get((i, j), {}).items():
                    for l, w in by_pair.get((m, k), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) - v * w
                for m, v in by_pair.get((i, k), {}).items():
                    for l, w in by_pair.get((j, m), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) - sij * v * w
                for val in acc.values():
                    if abs(val) > worst:
                        worst, at = abs(val), (i, j, k)
    return worst, at


def abelian_algebra(dim_even=2, dim_odd=0):
    parity = tuple([0] * dim_even + [1] * dim_odd)
    return LieSuperAlgebra(SuperBasis(parity), {},
                           (DecompositionRange(0, dim_even, "abelian"),))


class TestSuperBasis:
    def test_counts(self):
        b = SuperBasis((0, 0, 1))
        assert (b.total_dim, b.dim_even, b.dim_odd) == (3, 2, 1)

    def test_even_before_odd_enforced(self):
        with pytest.raises(ValueError):
            SuperBasis((1, 0))


class TestBracket:
    def test_even_self_bracket_vanishes(self, sl21):
        alg = sl21.algebra
        for i in range(alg.dim_even):
            assert np.allclose(bracket(alg, unit(alg.dim, i), unit(alg.dim, i)), 0.0)

    def test_sl21_cartan_raising(self, sl21):
        # [h, e] = 2e for h = diag(1,-1,0), e = E_12, against the direct
        # matrix commutator expanded in the defining matrices
        alg = sl21.algebra
        lbl = alg.basis.labels
        i_h, i_e = lbl.index("k1:H0"), lbl.index("k1:E(0,1)")
        got = bracket(alg, unit(alg.dim, i_h), unit(alg.dim, i_e))
        h, e = sl21.matrices[i_h], sl21.matrices[i_e]
        coeffs = expand_in_basis(sl21.matrices, h @ e - e @ h)
        assert np.max(np.abs(got - coeffs)) < 1e-12
        assert got[i_e] == pytest.approx(2.0)

    def test_odd_self_bracket_nonzero(self, sl21):
        alg = sl21.algebra
        lbl = alg.basis.labels
        q = unit(alg.dim, lbl.index("odd:Y(0,0)")) + unit(alg.dim, lbl.index("odd:Z(0,0)"))
        assert np.max(np.abs(bracket(alg, q, q))) > 0.5

    def test_dimension_mismatch(self, sl21):
        with pytest.raises(ValueError):
            bracket(sl21.algebra, np.zeros(3), np.zeros(3))


class TestSupertrace:
    def test_identity_counts_parity(self):
        basis = SuperBasis((0, 0, 0, 1, 1))
        assert supertrace(LinearOperator(np.eye(5)), basis) == pytest.approx(3 - 2)

    def test_identity_on_defining_space(self):
        basis = SuperBasis((0, 0, 1))
        assert supertrace(LinearOperator(np.eye(3)), basis) == pytest.approx(1.0)

    def test_ad_h_squared_matches_killing(self, sl21):
        alg = sl21.algebra
        i_h = alg.basis.labels.index("k1:H0")
        ad_h = supercore.ad_matrix(alg, unit(alg.dim, i_h))
        val = supertrace(LinearOperator(ad_h @ ad_h), alg.basis)
        assert val == pytest.approx(4.0)
        # cross-check against 2(m-n) str(XY) on the defining matrices
        h = sl21.matrices[i_h]
        sgn = np.array([1.0, 1.0, -1.0])
        assert val == pytest.approx(2 * (1 - 0) * float(np.sum(sgn * np.diag(h @ h))))


class TestKillingForm:
    def test_psl22_killing_vanishes(self, psl22):
        k = killing_form(psl22.algebra)
        assert np.max(np.abs(k.gram)) < 1e-12
        assert k.nondegenerate is False

    def test_sl21_value(self, sl21):
        k = killing_form(sl21.algebra)
        i_h = sl21.algebra.basis.labels.index("k1:H0")
        assert k.gram[i_h, i_h] == pytest.approx(4.0)
        assert k.even and k.supersymmetric and k.bi_invariant and k.nondegenerate

    def test_restriction_ratio_b11(self, osp32):
        # K restricted to each ideal is (1 - l_i) times the ideal's Killing form
        from supereinstein.invariants import b_ratio
        k = killing_form(osp32.algebra)
        for ideal, l in zip(osp32.algebra.simple_ideals(), osp32.data.l):
            assert b_ratio(osp32.algebra, k, ideal) == pytest.approx(1 - float(l))


class TestJacobi:
    def test_constructors_satisfy_jacobi(self, sl21, psl22, osp32):
        for real in (sl21, psl22, osp32):
            assert check_super_jacobi(real.algebra).residual < 1e-12

    def test_exact_channel_identically_zero(self, sl21, psl22, osp32):
        for real in (sl21, psl22, osp32):
            assert check_super_jacobi(real.algebra).residual == 0.0

    def test_abelian_residual_zero(self):
        assert check_super_jacobi(abelian_algebra()).residual == 0.0

    def test_perturbation_detected(self, sl21):
        # perturb an even-even pair
        i, j = 1, 2  # k1:H0, k1:E(0,1)
        k = 2
        report = check_super_jacobi(perturbed(sl21.algebra, i, j, k,
                                              Fraction(1, 1000)))
        assert report.residual >= 1e-4
        assert {i, j} & set(report.worst_triple)

    def test_kernel_matches_fraction_loop(self, sl21, psl22, osp32):
        odd = sl21.algebra.dim_even
        algebras = [r.algebra for r in (sl21, psl22, osp32)] + [
            perturbed(sl21.algebra, 1, 2, 2, Fraction(1, 3)),          # even-even
            perturbed(sl21.algebra, odd, odd + 1, 1, Fraction(2, 7)),  # odd-odd
        ]
        for alg in algebras:
            worst, at = fraction_loop_jacobi(alg)
            report = check_super_jacobi(alg)
            assert report.residual == float(worst)
            assert report.worst_triple == at
            assert all(type(v) is int for v in report.worst_triple)
        assert worst > 0

    def test_exactly_zero_over_catalog(self):
        for spec in families.catalog(4):
            if spec.realizable:
                report = check_super_jacobi(families.realize(spec).algebra)
                assert (report.residual, report.worst_triple) == (0.0, (0, 0, 0)), \
                    spec.name

    def test_overflow_refused(self):
        def two_dim(v):
            return LieSuperAlgebra(SuperBasis((0, 0)), {(0, 1, 1): v, (1, 0, 1): -v},
                                   (DecompositionRange(0, 2, "abelian"),))
        edge = math.isqrt((2**63 - 1) // 6)  # largest v with 3 * 2 * v**2 < 2**63
        assert check_super_jacobi(two_dim(edge)).residual == 0.0
        for v in (edge + 1, 2**31):
            with pytest.raises(ValueError, match="overflow int64"):
                check_super_jacobi(two_dim(v))


class TestExactTensor:
    EVEN2 = (DecompositionRange(0, 2, "abelian"),)

    def test_float_entries_refused(self):
        with pytest.raises(ValueError, match="exact"):
            LieSuperAlgebra(SuperBasis((0, 0)), {(0, 1, 1): 1.0, (1, 0, 1): -1.0},
                            self.EVEN2)

    def test_parity_violation_rejected(self):
        # [even, odd] with an even component
        with pytest.raises(ValueError, match="parity"):
            LieSuperAlgebra(SuperBasis((0, 1)), {(0, 1, 0): 1, (1, 0, 0): -1},
                            (DecompositionRange(0, 1, "abelian"),))

    def test_antisymmetry_violation_rejected(self):
        for entries in ({(0, 1, 1): 1}, {(0, 1, 1): 1, (1, 0, 1): 1}):
            with pytest.raises(ValueError, match="antisymmetry"):
                LieSuperAlgebra(SuperBasis((0, 0)), entries, self.EVEN2)

    def test_float_view_matches_fraction_fill(self):
        for spec in families.catalog(3):
            if not spec.realizable:
                continue
            alg = families.realize(spec).algebra
            fill = np.zeros((alg.dim,) * 3)
            for key, v in exact_entries(alg).items():
                fill[key] = float(v)
            assert np.array_equal(alg.c, fill), spec.name
            assert np.array_equal(np.argwhere(alg.c), alg.index), spec.name


class TestCheckForm:
    def test_killing_flags_across_families(self):
        degenerate = {"A(1,1)", "D(3,2)", "D(2,1;1)"}
        for args in [(1, 0), (2, 1)]:
            real = families.build_sl_super(*args)
            rep = check_form(real.algebra, killing_form(real.algebra))
            assert rep.is_even and rep.is_supersymmetric and rep.is_bi_invariant
            assert rep.is_nondegenerate
        for l, k in [(3, 2), (2, 4), (6, 4), (4, 2)]:
            real = families.build_osp(l, k)
            rep = check_form(real.algebra, killing_form(real.algebra))
            assert rep.is_even and rep.is_supersymmetric and rep.is_bi_invariant
            assert rep.is_nondegenerate != (real.name in degenerate)

    def test_case2_form_on_psl22(self, psl22):
        rep = check_form(psl22.algebra, psl22.canonical_form)
        assert rep.is_bi_invariant and rep.is_nondegenerate

    def test_random_symmetric_form_not_invariant(self, sl21):
        rng = np.random.default_rng(7)
        n = sl21.algebra.dim
        m = rng.normal(size=(n, n))
        form = BilinearFormMatrix(m + m.T)
        assert not check_form(sl21.algebra, form).is_bi_invariant


class TestDualBasis:
    def test_orthonormal_is_self_dual(self):
        form = BilinearFormMatrix(np.eye(4))
        d = dual_basis(form, (0, 4))
        assert np.allclose(d, np.eye(4))

    def test_diagonal_scaling(self):
        form = BilinearFormMatrix(np.diag([2.0, 1.0]))
        d = dual_basis(form, (0, 1))
        assert d[0, 0] == pytest.approx(0.5)

    def test_osp32_ideal_round_trip(self, osp32):
        k = killing_form(osp32.algebra)
        ideal = osp32.algebra.simple_ideals()[0]
        d = dual_basis(k, ideal)
        prod = k.gram[ideal.start:ideal.stop, :] @ d
        assert np.max(np.abs(prod - np.eye(ideal.dim))) < 1e-12

    def test_degenerate_names_subspace(self, psl22):
        k = killing_form(psl22.algebra)
        with pytest.raises(DegeneracyError, match=r"\[0:3\)"):
            dual_basis(k, (0, 3))


class TestSerialization:
    def test_round_trip(self, osp32):
        doc = algebra_to_json(osp32.algebra)
        assert set(doc) == {"dim_even", "dim_odd", "parity", "c", "decomposition"}
        assert all(len(t) == 5 for t in doc["c"])

    def test_small_entries_omitted(self):
        alg = abelian_algebra(2, 2)
        assert algebra_to_json(alg)["c"] == []
