from fractions import Fraction

import numpy as np
import pytest

from supereinstein.families import family_spec, realize
from supereinstein.invariants import (
    b_ratio,
    casimir_on_odd,
    ideal_killing_gram,
    representation_index,
)
from supereinstein.supercore import DegeneracyError, LieSuperAlgebra, exact_form, \
    killing_form

from conftest import defining_matrices, dense_casimir, dense_constants, \
    exact_entries


# Dense oracles of the Casimir and trace identities behind the closed-form
# Ricci tensor, and of the defining representation's index: independent
# references for the sparse invariants, built from the dense constants.

def defining_rep_index(real, matrices, ideal):
    """Index of the ideal's defining (matrix-slot) representation.

    Uses the realization's own basis ``matrices`` as rho, so a simple ideal
    sitting in one diagonal slot is probed in its standard representation.
    """
    if ideal.kind != "simple":
        raise ValueError("the index is undefined for an abelian ideal")
    idx = ideal.indices()
    mats = [matrices[a] for a in idx]
    rep_tr = np.array([[float(np.trace(x @ y)) for y in mats] for x in mats])
    cid = dense_constants(real.algebra)[np.ix_(idx, idx, idx)]
    ad_tr = np.einsum("bvw,awv->ab", cid, cid, optimize=True)
    l = float(np.sum(rep_tr * ad_tr)) / float(np.sum(ad_tr * ad_tr))
    res = float(np.max(np.abs(rep_tr - l * ad_tr))) / float(np.max(np.abs(ad_tr)))
    if res >= 1e-9:
        raise ValueError(f"defining-rep fit residual {res:g} on {ideal}")
    return l


def verify_killing_casimir(alg, form):
    """Max residual, over odd basis pairs, of the identity expressing the
    Killing form on the odd part through the per-ideal Casimir operators,
    each its scalar times the identity."""
    odd = list(alg.odd_range())
    k_odd = killing_form(alg).gram[np.ix_(odd, odd)]
    b_odd = form.gram[np.ix_(odd, odd)]
    total = np.zeros_like(k_odd)
    for ideal in alg.decomposition:
        total += float(casimir_on_odd(alg, form, ideal)) * b_odd
    return float(np.max(np.abs(k_odd - 2.0 * total)))


def verify_trace_identities(alg, form, ideal):
    """Max residuals of the three trace identities over odd basis pairs:
    vanishing trace of ad of the ideal component of [X, Y]; the ad-trace on
    the ideal against B(X, C Y); and the odd-part trace against -B(X, C Y)."""
    odd = list(alg.odd_range())
    idx = list(ideal.indices())
    c = dense_constants(alg)
    t = np.array([sum(c[m, v, v] for v in odd) for m in idx])
    r1 = float(np.max(np.abs(
        np.einsum("xym,m->xy", c[np.ix_(odd, odd, idx)], t))))
    bc = float(casimir_on_odd(alg, form, ideal)) * form.gram[np.ix_(odd, odd)]
    lhs2 = np.einsum("yaw,xwa->xy", c[np.ix_(odd, idx, odd)],
                     c[np.ix_(odd, odd, idx)], optimize=True)
    r2 = float(np.max(np.abs(lhs2 - bc)))
    lhs3 = np.einsum("yzm,xmz->xy", c[np.ix_(odd, odd, idx)],
                     c[np.ix_(odd, idx, odd)], optimize=True)
    r3 = float(np.max(np.abs(lhs3 + bc)))
    return r1, r2, r3


class TestRepresentationIndex:
    def test_so3_inside_osp32(self, osp32):
        so3 = osp32.algebra.simple_ideals()[0]
        ki = ideal_killing_gram(osp32.algebra, so3)
        assert representation_index(osp32.algebra, so3, ki) == 2

    def test_sl2_inside_sl21(self, sl21):
        sl2 = sl21.algebra.simple_ideals()[0]
        ki = ideal_killing_gram(sl21.algebra, sl2)
        assert representation_index(sl21.algebra, sl2, ki) == Fraction(1, 2)

    def test_abelian_rejected(self, sl21):
        with pytest.raises(ValueError, match="abelian"):
            representation_index(sl21.algebra, sl21.algebra.abelian_ideal(), None)

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
        ki = ideal_killing_gram(rescaled, ideal)
        assert representation_index(rescaled, ideal, ki) == Fraction(1, 2)


class TestDefiningRepIndex:
    def test_standard_probes(self):
        # standard-representation indices probed inside the realizations:
        # so(3) -> 1, sp(2) -> 1/4, sl(3) -> 1/6
        for spec, want in ((family_spec("B", 1, 1), 1.0),
                           (family_spec("B", 0, 1), 0.25),
                           (family_spec("A", 2, 0), 1 / 6)):
            real = realize(spec)
            assert defining_rep_index(real, defining_matrices(spec),
                                      real.algebra.simple_ideals()[0]) \
                == pytest.approx(want)


class TestCasimir:
    def test_b11_first_ideal_scalar(self, osp32):
        k = osp32.canonical_form
        cas = casimir_on_odd(osp32.algebra, k, osp32.algebra.simple_ideals()[0])
        assert cas == -1

    def test_psl22_case2_scalar(self, psl22):
        cas = casimir_on_odd(psl22.algebra, psl22.canonical_form,
                             psl22.algebra.simple_ideals()[0])
        assert cas == Fraction(3, 8)

    def test_c3_abelian_scalar(self):
        r = realize(family_spec("C", n=3))
        cas = casimir_on_odd(r.algebra, r.canonical_form, r.algebra.abelian_ideal())
        assert cas == Fraction(-1, 8)

    def test_singular_form_raises(self, psl22):
        # psl(2|2)'s Killing form vanishes: no dual basis on any ideal
        k = killing_form(psl22.algebra)
        with pytest.raises(DegeneracyError, match="singular"):
            casimir_on_odd(psl22.algebra, k, psl22.algebra.simple_ideals()[0])

    def test_commutes_with_ideal_action(self, osp32):
        alg = osp32.algebra
        odd = list(alg.odd_range())
        c = dense_constants(alg)
        for ideal in alg.simple_ideals():
            # the dense oracle of the operator is the exact scalar times the
            # identity, and commutes with the action
            cas = dense_casimir(alg, osp32.canonical_form, ideal)
            gamma = casimir_on_odd(alg, osp32.canonical_form, ideal)
            assert np.max(np.abs(cas - float(gamma) * np.eye(len(odd)))) < 1e-9
            for a in ideal.indices():
                rho = c[a][np.ix_(odd, odd)].T
                assert np.max(np.abs(rho @ cas - cas @ rho)) < 1e-9

    def test_scaling_float(self, osp32):
        # the form doubled, as an exact form: the duals, and so the scalar,
        # halve exactly
        alg, form = osp32.algebra, osp32.canonical_form
        ideal = alg.simple_ideals()[1]
        base = casimir_on_odd(alg, form, ideal)
        doubled = exact_form(alg, form.keys, 2 * form.numer, form.denom)
        assert casimir_on_odd(alg, doubled, ideal) == base / 2


class TestBRatio:
    @pytest.mark.parametrize("args", [
        ("A", 1, 0), ("A", 2, 1), ("B", 1, 1), ("C", None, 3), ("D", 3, 1),
    ], ids=lambda args: family_spec(*args).name)
    def test_killing_gives_one_minus_index(self, args):
        real = realize(family_spec(*args))
        k = killing_form(real.algebra)
        for ideal, l in zip(real.algebra.simple_ideals(), real.data.l):
            got = b_ratio(k, ideal, ideal_killing_gram(real.algebra, ideal))
            assert got == 1 - l

    def test_case_forms(self, psl22):
        d32 = realize(family_spec("D", 3, 2))
        ideals = d32.algebra.simple_ideals()
        ki = ideal_killing_gram(d32.algebra, ideals[1])
        assert b_ratio(d32.canonical_form, ideals[1], ki) == Fraction(-2, 3)
        ideals = psl22.algebra.simple_ideals()
        assert [b_ratio(psl22.canonical_form, i,
                        ideal_killing_gram(psl22.algebra, i)) for i in ideals] \
            == [1, -1]


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
