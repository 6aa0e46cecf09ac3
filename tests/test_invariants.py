from fractions import Fraction

import numpy as np
import pytest

from supereinstein import invariants, supercore
from supereinstein.families import build_osp, build_psl, build_sl_super, \
    family_spec, realize
from supereinstein.invariants import (
    b_ratio,
    casimir_on_odd,
    defining_rep_index,
    representation_index,
    verify_killing_casimir,
    verify_trace_identities,
)
from supereinstein.supercore import LieSuperAlgebra, killing_form

from conftest import exact_entries


class TestRepresentationIndex:
    def test_so3_inside_osp32(self, osp32):
        so3 = osp32.algebra.simple_ideals()[0]
        assert representation_index(osp32.algebra, so3) == pytest.approx(2.0)

    def test_sl2_inside_sl21(self, sl21):
        sl2 = sl21.algebra.simple_ideals()[0]
        assert representation_index(sl21.algebra, sl2) == pytest.approx(0.5)

    def test_abelian_rejected(self, sl21):
        with pytest.raises(ValueError, match="abelian"):
            representation_index(sl21.algebra, sl21.algebra.abelian_ideal())

    def test_invariant_under_basis_rescaling(self, sl21):
        # rescale the simple ideal's basis vectors; the index is a ratio of
        # two quadratic forms, so it cannot change
        alg = sl21.algebra
        ideal = alg.simple_ideals()[0]
        t = [Fraction(1)] * alg.dim
        t[ideal.start:ideal.stop] = [Fraction(2), Fraction(3), Fraction(1, 2)]
        entries = {(i, j, k): v * t[i] * t[j] / t[k]
                   for (i, j, k), v in exact_entries(alg).items()}
        rescaled = LieSuperAlgebra(alg.basis, entries, alg.decomposition)
        assert representation_index(rescaled, ideal) == pytest.approx(0.5)


class TestDefiningRepIndex:
    def test_standard_probes(self):
        # standard-representation indices probed inside the realizations:
        # so(3) -> 1, sp(2) -> 1/4, sl(3) -> 1/6
        so3 = build_osp(3, 2)
        assert defining_rep_index(so3, so3.algebra.simple_ideals()[0]) == pytest.approx(1.0)
        sp2 = build_osp(1, 2)
        assert defining_rep_index(sp2, sp2.algebra.simple_ideals()[0]) == pytest.approx(0.25)
        sl3 = build_sl_super(2, 0)
        assert defining_rep_index(sl3, sl3.algebra.simple_ideals()[0]) == pytest.approx(1 / 6)


class TestCasimir:
    def test_b11_first_ideal_scalar(self, osp32):
        k = osp32.canonical_form
        cas = casimir_on_odd(osp32.algebra, k, osp32.algebra.simple_ideals()[0])
        assert cas.scalar == pytest.approx(-1.0)
        assert cas.off_scalar_residual < 1e-9

    def test_psl22_case2_scalar(self, psl22):
        cas = casimir_on_odd(psl22.algebra, psl22.canonical_form,
                             psl22.algebra.simple_ideals()[0])
        assert cas.scalar == pytest.approx(3 / 8)

    def test_c3_abelian_scalar(self):
        r = build_osp(2, 4)
        cas = casimir_on_odd(r.algebra, r.canonical_form, r.algebra.abelian_ideal())
        assert cas.scalar == pytest.approx(-1 / 8)

    def test_commutes_with_ideal_action(self, osp32):
        alg = osp32.algebra
        odd = list(alg.odd_range())
        for ideal in alg.simple_ideals():
            cas = casimir_on_odd(alg, osp32.canonical_form, ideal).operator.matrix
            for a in ideal.indices():
                rho = alg.c[a][np.ix_(odd, odd)].T
                assert np.max(np.abs(rho @ cas - cas @ rho)) < 1e-9

    def test_scaling_float(self, osp32):
        from supereinstein.supercore import BilinearFormMatrix
        alg = osp32.algebra
        ideal = alg.simple_ideals()[1]
        base = casimir_on_odd(alg, osp32.canonical_form, ideal).scalar
        doubled = BilinearFormMatrix(2.0 * osp32.canonical_form.gram)
        assert casimir_on_odd(alg, doubled, ideal).scalar == pytest.approx(base / 2)


class TestBRatio:
    @pytest.mark.parametrize("builder,args", [
        (build_sl_super, (1, 0)), (build_sl_super, (2, 1)),
        (build_osp, (3, 2)), (build_osp, (2, 4)), (build_osp, (6, 2)),
    ])
    def test_killing_gives_one_minus_index(self, builder, args):
        real = builder(*args)
        k = killing_form(real.algebra)
        for ideal, l in zip(real.algebra.simple_ideals(), real.data.l):
            got = b_ratio(real.algebra, k, ideal)
            assert got == pytest.approx(1 - float(l), abs=1e-9)

    def test_case_forms(self, psl22):
        d32 = build_osp(6, 4)
        ideals = d32.algebra.simple_ideals()
        assert b_ratio(d32.algebra, d32.canonical_form, ideals[1]) == pytest.approx(-2 / 3)
        ideals = psl22.algebra.simple_ideals()
        assert [b_ratio(psl22.algebra, psl22.canonical_form, i) for i in ideals] \
            == pytest.approx([1.0, -1.0])


class TestKillingCasimirIdentity:
    @pytest.mark.parametrize("fam,m,n", [
        ("A", 1, 0), ("A", 2, 1), ("A", 1, 1), ("B", 1, 1), ("C", None, 3),
        ("D", 3, 2), ("D", 2, 1),
    ])
    def test_identity_holds(self, fam, m, n):
        real = realize(family_spec(fam, m, n))
        assert verify_killing_casimir(real.algebra, real.canonical_form) < 1e-9

    def test_vanishing_both_sides_psl22(self, psl22):
        assert verify_killing_casimir(psl22.algebra, psl22.canonical_form) < 1e-12


class TestTraceIdentities:
    @pytest.mark.parametrize("fam,m,n", [("A", 1, 0), ("B", 1, 1)])
    def test_all_ideals(self, fam, m, n):
        real = realize(family_spec(fam, m, n))
        for ideal in real.algebra.decomposition:
            r1, r2, r3 = verify_trace_identities(real.algebra,
                                                 real.canonical_form, ideal)
            assert max(r1, r2, r3) < 1e-10

    def test_perturbation_breaks_second_identity(self, sl21):
        alg = sl21.algebra
        entries = exact_entries(alg)
        # odd-odd pair feeding the even part, antisymmetry-preserving
        i = alg.dim_even
        j = alg.dim_even + 1
        eps = Fraction(1, 1000)
        entries[(i, j, 1)] = entries.get((i, j, 1), 0) + eps
        entries[(j, i, 1)] = entries.get((j, i, 1), 0) + eps  # [Q, Q'] = +[Q', Q]
        perturbed = LieSuperAlgebra(alg.basis, entries, alg.decomposition)
        ideal = perturbed.simple_ideals()[0]
        _, r2, _ = verify_trace_identities(perturbed, sl21.canonical_form, ideal)
        assert r2 >= 1e-4
