import dataclasses
import gc
import hashlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from supereinstein import cli, einstein, families, supercore
from supereinstein.supercore import DecompositionRange
from supereinstein.families import (
    catalog,
    family_spec,
    realize,
    verify_realization,
)

from conftest import defining_matrices, dense_constants, dense_integers


class TestFamilySpec:
    def test_a_equal_routes_to_quotient(self):
        assert family_spec("A", 1, 1).kind == "Ann"
        assert family_spec("A", 2, 1).kind == "A"

    def test_d_near_diagonal_routing(self):
        assert family_spec("D", 3, 2).kind == "Dn1n"
        assert family_spec("D", 2, 1).kind == "D21a"
        assert family_spec("D", 2, 1).alpha == 1.0
        assert family_spec("D", 3, 1).kind == "D"

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            family_spec("C", n=2)
        with pytest.raises(ValueError):
            family_spec("B", 1, 0)
        with pytest.raises(ValueError):
            family_spec("D", 1, 1)
        with pytest.raises(ValueError):
            family_spec("A", 0, 0)
        for bad_alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                family_spec("D21a", alpha=bad_alpha)

    def test_realizable(self):
        assert not family_spec("F4").realizable
        assert not family_spec("D21a", alpha=2.5).realizable
        assert family_spec("D21a", alpha=1.0).realizable

    @pytest.mark.parametrize("family,params", [
        ("A", {"m": 1, "n": 0, "alpha": 2.0}), ("B", {"m": 1, "n": 1, "alpha": 3.0}),
        ("C", {"m": 1, "n": 3}), ("D", {"m": 3, "n": 2, "alpha": 1.0}),
        ("D21a", {"m": 2, "alpha": 1.0}), ("D21a", {"n": 1, "alpha": 1.0}),
        ("F4", {"m": 1}), ("G3", {"n": 2}), ("G3", {"alpha": 1.0}),
    ])
    def test_parameter_the_family_does_not_take_refused(self, family, params):
        with pytest.raises(ValueError, match=f"^{family} takes no "):
            family_spec(family, **params)

    def test_basis_names_the_construction(self):
        assert family_spec("A", 2, 1).basis == (families._sl_basis, 2, 1)
        assert family_spec("A", 2, 2).basis == (families._sl_basis, 2, 2)
        assert family_spec("B", 1, 2).basis == (families._osp_basis, 3, 4)
        assert family_spec("C", n=3).basis == (families._osp_basis, 2, 4)
        assert family_spec("D", 3, 1).basis == (families._osp_basis, 6, 2)
        assert family_spec("D", 3, 2).basis == (families._osp_basis, 6, 4)
        assert family_spec("D", 2, 1).basis == (families._d21_basis,)
        for spec in (family_spec("F4"), family_spec("G3"),
                     family_spec("D21a", alpha=2.5)):
            assert spec.basis is None and not spec.realizable


class TestBuildSlSuper:
    def test_a10_data(self):
        r = realize(family_spec("A", 1, 0))
        assert r.data.dim_k0 == 1
        assert r.data.dim_k == (3,)
        assert r.data.dim_odd == 4
        assert r.data.l == (Fraction(1, 2),)

    def test_a21_data(self):
        r = realize(family_spec("A", 2, 1))
        assert r.data.dim_odd == 12
        assert r.data.l == (Fraction(2, 3), Fraction(3, 2))

    def test_jacobi(self):
        for m, n in [(1, 0), (2, 1), (0, 1)]:
            real = realize(family_spec("A", m, n))
            assert supercore.check_super_jacobi(real.algebra).residual < 1e-12


class TestBuildPsl:
    def test_psl22_data(self, psl22):
        assert psl22.data.dim_k == (3, 3)
        assert psl22.data.dim_odd == 8
        assert psl22.data.l == (Fraction(1), Fraction(1))

    def test_killing_vanishes(self, psl22):
        assert np.max(np.abs(supercore.killing_form(psl22.algebra).gram)) < 1e-12

    def test_form_ratios(self, psl22):
        from supereinstein.invariants import b_ratio, ideal_killing_gram
        b = [b_ratio(psl22.canonical_form, i,
                     ideal_killing_gram(psl22.algebra, i))
             for i in psl22.algebra.simple_ideals()]
        assert b == [Fraction(1), Fraction(-1)]

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            family_spec("A", 0, 0)


class TestBuildOsp:
    def test_b11_data(self, osp32):
        assert osp32.data.dim_k == (3, 3)
        assert osp32.data.dim_odd == 6
        assert osp32.data.l == (Fraction(2), Fraction(3, 4))

    def test_c3_data(self):
        r = realize(family_spec("C", n=3))
        assert r.data.dim_k0 == 1
        assert r.data.dim_k == (10,)
        assert r.data.dim_odd == 8
        assert r.data.l == (Fraction(1, 3),)
        assert r.algebra.abelian_ideal().dim == 1

    def test_d32_degenerate_killing(self):
        r = realize(family_spec("D", 3, 2))
        assert np.max(np.abs(supercore.killing_form(r.algebra).gram)) < 1e-12
        assert r.data.b == (Fraction(1), Fraction(-2, 3))

    def test_b01_drops_so1(self):
        r = realize(family_spec("B", 0, 1))
        assert len(r.algebra.decomposition) == 1
        assert r.algebra.decomposition[0].kind == "simple"
        assert r.data.dim_k == (3,)

    def test_osp42_three_ideals(self):
        r = realize(family_spec("D", 2, 1))
        assert [i.dim for i in r.algebra.simple_ideals()] == [3, 3, 3]
        # the two halves of the orthogonal block commute
        c = dense_constants(r.algebra)
        assert np.max(np.abs(c[np.ix_(range(0, 3), range(3, 6))])) < 1e-14


class TestFamilyData:
    def test_f4_g3_display_fractions(self):
        f4 = family_spec("F4").data
        assert f4.dim_k == (21, 3) and f4.dim_odd == 16
        assert f4.gamma == (Fraction(7, 8), Fraction(-3, 8))
        g3 = family_spec("G3").data
        assert g3.dim_k == (14, 3) and g3.dim_odd == 14
        assert g3.gamma == (Fraction(1), Fraction(-1, 2))

    def test_ann_casimir_scalars(self):
        for n in (1, 2, 3):
            data = family_spec("A", n, n).data
            g = Fraction(n * (n + 2), 2 * (n + 1) ** 2)
            assert data.gamma == (g, -g)

    def test_d21a_alpha_independent(self):
        d1 = family_spec("D21a", alpha=2.5).data
        d2 = family_spec("D21a", alpha=7.25).data
        assert d1 == d2
        assert d1.b == (Fraction(1), Fraction(1), Fraction(-1, 2))
        assert d1.gamma == (Fraction(3, 8), Fraction(3, 8), Fraction(-3, 4))

    def test_purity(self):
        assert family_spec("B", 2, 1).data == family_spec("B", 2, 1).data

    def test_casimir_sum_identities(self):
        # gamma_0 + sum gamma_i = 1/2 exactly when the Killing form is
        # non-degenerate, 0 when it vanishes identically
        for spec in catalog(4, 4):
            data = spec.data
            total = sum(data.gamma, Fraction(0)) + (data.gamma0 or Fraction(0))
            assert total == (Fraction(1, 2) if data.killing_nondegenerate else 0), spec.name

    def test_every_catalog_index_is_positive(self):
        for spec in catalog(6):
            assert all(l > 0 for l in spec.data.l), spec.name

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2)])
    def test_nonpositive_index_refused(self, bad):
        data = family_spec("B", 1, 1).data
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(data, l=(data.l[0], bad))


class TestCatalog:
    def test_members_at_bound_two(self):
        names = [s.name for s in catalog(2)]
        for expected in ["A(1,0)", "A(2,1)", "A(1,1)", "A(2,2)", "B(0,1)",
                         "B(1,1)", "B(2,1)", "B(1,2)", "B(2,2)", "D(2,2)",
                         "D(2,1;1)", "D(2,1;2.5)", "F(4)", "G(3)"]:
            assert expected in names
        assert len(names) >= 15

    def test_c_starts_at_three(self):
        assert not any(s.kind == "C" for s in catalog(2))
        assert [s.n for s in catalog(5) if s.kind == "C"] == [3, 4, 5]

    def test_deterministic(self):
        assert catalog(3) == catalog(3)

    def test_no_duplicates(self):
        for max_m in range(9):
            for max_n in [None, *range(9)]:
                specs = catalog(max_m, max_n)
                assert len(specs) == len(set(specs)), (max_m, max_n)

    def test_data_pinned(self):
        # b and gamma are derived from l; the records must not drift
        specs = catalog(8) + [family_spec("D21a", alpha=a)
                              for a in (1.0, 2.5, -3.0, 0.4)]
        text = "\n".join(repr(s.data) for s in specs)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "3e0cb2cef3692bfc5b0338ddcc8962bde8308d9101d6b0118ba6d9a7c52408ee"


class TestRealizationChecks:
    @pytest.mark.parametrize("fam,m,n", [
        ("A", 1, 0), ("A", 2, 1), ("A", 1, 1), ("B", 1, 1), ("B", 0, 2),
        ("C", None, 3), ("D", 3, 1), ("D", 3, 2), ("D", 2, 1),
    ])
    def test_data_recomputed_from_algebra(self, fam, m, n):
        report, _ = verify_realization(realize(family_spec(fam, m, n)))
        assert report["pass"], report

    def test_snapshot_matches_catalog_dims(self):
        r = realize(family_spec("B", 2, 2))
        assert r.algebra.dim_even == sum(r.data.dim_k) + r.data.dim_k0
        assert r.algebra.dim_odd == r.data.dim_odd

    def test_killing_form_carried(self, osp32):
        d32 = realize(family_spec("D", 3, 2))
        for r in (osp32, d32):
            assert np.array_equal(r.killing.gram,
                                  supercore.killing_form(r.algebra).gram)
        assert osp32.canonical_form is osp32.killing
        assert d32.canonical_form is not d32.killing

    def test_form_report_carried(self, osp32):
        d32 = realize(family_spec("D", 3, 2))
        for r in (osp32, d32):
            assert r.canonical_form.report == \
                supercore.check_form(r.algebra, r.canonical_form)

    def test_realization_carries_the_record_it_was_given(self):
        for spec in catalog(2):
            if spec.realizable:
                assert realize(spec).spec is spec

    def test_realization_freed_with_its_last_reference(self):
        real = realize(family_spec("B", 1, 1))
        ref = weakref.ref(real)
        del real
        gc.collect()
        assert ref() is None

    def test_casimirs_computed_once(self):
        from supereinstein.invariants import casimir_on_odd
        r = realize(family_spec("C", None, 3))
        assert r.ideal_invariants is r.ideal_invariants
        assert list(r.ideal_invariants) == list(r.algebra.decomposition)
        for rng, inv in r.ideal_invariants.items():
            direct = casimir_on_odd(r.algebra, r.canonical_form, rng)
            assert inv.gamma == direct

    def test_representation_indices_computed_once(self):
        from supereinstein.invariants import ideal_killing_gram, \
            representation_index
        r = realize(family_spec("B", 1, 1))
        assert r.ideal_invariants is r.ideal_invariants
        assert list(r.ideal_invariants) == list(r.algebra.decomposition)
        for rng, inv in r.ideal_invariants.items():
            ki = ideal_killing_gram(r.algebra, rng)
            assert inv.l == representation_index(r.algebra, rng, ki)


class TestExactAssembly:
    """The structure constants against the defining matrices, without the
    assembly kernel: sum_k c_ijk B_k rebuilt in integers over ``denom``."""

    REALIZABLE_3 = [s for s in catalog(3) if s.realizable]

    @pytest.mark.parametrize("spec", REALIZABLE_3, ids=lambda s: s.name)
    def test_constants_rebuild_every_bracket(self, spec):
        alg = realize(spec).algebra
        dense = defining_matrices(spec)
        mats = dense.astype(np.int64)
        assert np.array_equal(mats, dense)
        p = np.array(alg.basis.parity)
        prod = np.einsum("irc,jcd->ijrd", mats, mats)
        sign = (1 - 2 * np.outer(p, p))[:, :, None, None]
        brackets = prod - sign * prod.transpose(1, 0, 2, 3)
        numer = np.zeros((alg.dim,) * 3, dtype=np.int64)
        numer[tuple(alg.index.T)] = alg.numer
        rest = alg.denom * brackets - np.tensordot(numer, mats, axes=(2, 0))
        if spec.kind == "Ann":  # taken modulo the identity
            diag = np.diagonal(rest, axis1=2, axis2=3)
            assert np.all(diag == diag[:, :, :1])
            rest -= diag[:, :, :1, None] * np.eye(mats.shape[1], dtype=np.int64)
        assert not rest.any()

    def test_constants_pinned(self):
        h = hashlib.sha256()
        for spec in self.REALIZABLE_3:
            alg = realize(spec).algebra
            h.update(spec.name.encode())
            h.update(alg.index.astype("<i8").tobytes())
            h.update(alg.numer.astype("<i8").tobytes())
            h.update(str(alg.denom).encode())
        assert h.hexdigest() == \
            "cf3e0a2d62e8521e5427d91ef3cbc4e4b7f24bf84cf631cdbf457a21f0928fa1"

    SL2 = {"H": {(0, 0): 1, (1, 1): -1}, "E": {(0, 1): 1}, "F": {(1, 0): 1}}

    def _assemble(self, mats):
        elems = [(mat, 0, str(k)) for k, mat in enumerate(mats)]
        return families._assemble(family_spec("A", 1, 0), elems,
                                  [DecompositionRange(0, len(elems), "simple")],
                                  2, 0)

    def test_sl2_assembles(self):
        alg = self._assemble(list(self.SL2.values())).algebra
        c = dense_constants(alg)
        assert c[0, 1, 1] == 2 and c[1, 2, 0] == 1

    def test_open_basis_refused(self):
        with pytest.raises(ValueError, match="leaves the span"):
            self._assemble([self.SL2["E"], self.SL2["F"]])

    @pytest.mark.parametrize("extra", [{(0, 1): 1, (1, 0): 1}, {(0, 1): 2}, {}],
                             ids=["sum", "multiple", "zero"])
    def test_dependent_basis_refused(self, extra):
        with pytest.raises(ValueError, match="linearly dependent"):
            self._assemble(list(self.SL2.values()) + [extra])


REALIZABLE_4 = [s for s in catalog(4) if s.realizable]


class TestExactInverse:
    """The one exact inverse, on the two integer forms every realization
    inverts: its Frobenius Gram and its canonical form."""

    @pytest.mark.parametrize("spec", REALIZABLE_4, ids=lambda s: s.name)
    def test_inverse_times_form_is_the_identity(self, spec, monkeypatch):
        grams, inverse = [], supercore.exact_inverse

        def recording(keys, numer, size):
            grams.append((keys, numer, size))
            return inverse(keys, numer, size)

        monkeypatch.setattr(supercore, "exact_inverse", recording)
        form = realize(spec).canonical_form
        assert len(grams) == 1  # the Frobenius Gram of the basis
        for keys, numer, size in grams + [(*form.block(range(form.dim)),
                                           form.dim)]:
            inv_keys, inv, denom, det = supercore.exact_inverse(keys, numer,
                                                                size)
            assert np.all(np.diff(inv_keys) > 0) and np.all(inv != 0)
            dense = dense_integers(keys, numer, size)
            product = dense @ dense_integers(inv_keys, inv, size)
            assert np.array_equal(product,
                                  denom * np.eye(size, dtype=np.int64))
            sign, logdet = np.linalg.slogdet(dense)
            assert sign != 0 and math.log(det) == pytest.approx(logdet,
                                                                 rel=1e-12)

    def test_one_inverse_per_form_over_a_report(self, monkeypatch):
        # each realization eliminates its Frobenius Gram and its canonical
        # form, once: the form's nondegeneracy check, the curvature plan and
        # every Casimir dual read that one elimination (113 inversions
        # before, 57 of them Casimir blocks)
        sizes, eliminate = [], supercore._eliminate

        def counting(keys, numer, size):
            sizes.append(size)
            return eliminate(keys, numer, size)

        monkeypatch.setattr(supercore, "_eliminate", counting)
        doc = cli.build_report(3, 3, cli.DEFAULT_SEED, einstein.C_WINDOW)
        realized = [s for s in doc["families"] if s["realizable"]]
        assert doc["summary"]["all_pass"] and len(realized) == 28
        assert len(sizes) == 2 * 28


@pytest.mark.parametrize("spec", REALIZABLE_4, ids=lambda s: s.name)
def test_realized_invariants_equal_the_catalog(spec):
    real = realize(spec)
    data, alg = spec.data, real.algebra
    want = [(None, None, data.gamma0)] if data.has_k0 else []
    want += list(zip(data.l, data.b, data.gamma))
    got = [dataclasses.astuple(real.ideal_invariants[rng])
           for rng in alg.decomposition]
    assert got == want
    assert all(v is None or type(v) is Fraction for row in got for v in row)
    assert verify_realization(real)[0]["pass"]
