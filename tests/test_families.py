from fractions import Fraction

import numpy as np
import pytest

from supereinstein import families, supercore
from supereinstein.families import (
    build_osp,
    build_psl,
    build_sl_super,
    catalog,
    family_data,
    family_spec,
    realize,
    verify_realization,
)


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


class TestBuildSlSuper:
    def test_a10_data(self):
        r = build_sl_super(1, 0)
        assert r.data.dim_k0 == 1
        assert r.data.dim_k == (3,)
        assert r.data.dim_odd == 4
        assert r.data.l == (Fraction(1, 2),)

    def test_a21_data(self):
        r = build_sl_super(2, 1)
        assert r.data.dim_odd == 12
        assert r.data.l == (Fraction(2, 3), Fraction(3, 2))

    def test_jacobi(self):
        for m, n in [(1, 0), (2, 1), (0, 1)]:
            assert supercore.check_super_jacobi(build_sl_super(m, n).algebra).residual < 1e-12

    def test_equal_params_rejected(self):
        with pytest.raises(ValueError, match="build_psl"):
            build_sl_super(2, 2)


class TestBuildPsl:
    def test_psl22_data(self, psl22):
        assert psl22.data.dim_k == (3, 3)
        assert psl22.data.dim_odd == 8
        assert psl22.data.l == (Fraction(1), Fraction(1))

    def test_killing_vanishes(self, psl22):
        assert np.max(np.abs(supercore.killing_form(psl22.algebra).gram)) < 1e-12

    def test_form_ratios(self, psl22):
        from supereinstein.invariants import b_ratio
        b = [b_ratio(psl22.algebra, psl22.canonical_form, i)
             for i in psl22.algebra.simple_ideals()]
        assert b == pytest.approx([1.0, -1.0])

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            build_psl(0)


class TestBuildOsp:
    def test_b11_data(self, osp32):
        assert osp32.data.dim_k == (3, 3)
        assert osp32.data.dim_odd == 6
        assert osp32.data.l == (Fraction(2), Fraction(3, 4))

    def test_c3_data(self):
        r = build_osp(2, 4)
        assert r.data.dim_k0 == 1
        assert r.data.dim_k == (10,)
        assert r.data.dim_odd == 8
        assert r.data.l == (Fraction(1, 3),)
        assert r.algebra.abelian_ideal().dim == 1

    def test_d32_degenerate_killing(self):
        r = build_osp(6, 4)
        assert np.max(np.abs(supercore.killing_form(r.algebra).gram)) < 1e-12
        assert r.data.b == (Fraction(1), Fraction(-2, 3))

    def test_b01_drops_so1(self):
        r = build_osp(1, 2)
        assert len(r.algebra.decomposition) == 1
        assert r.algebra.decomposition[0].kind == "simple"
        assert r.data.dim_k == (3,)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            build_osp(3, 3)

    def test_osp42_three_ideals(self):
        r = build_osp(4, 2)
        assert [i.dim for i in r.algebra.simple_ideals()] == [3, 3, 3]
        # the two halves of the orthogonal block commute
        c = r.algebra.c
        assert np.max(np.abs(c[np.ix_(range(0, 3), range(3, 6))])) < 1e-14


class TestFamilyData:
    def test_f4_g3_display_fractions(self):
        f4 = family_data(family_spec("F4"))
        assert f4.dim_k == (21, 3) and f4.dim_odd == 16
        assert f4.gamma == (Fraction(7, 8), Fraction(-3, 8))
        g3 = family_data(family_spec("G3"))
        assert g3.dim_k == (14, 3) and g3.dim_odd == 14
        assert g3.gamma == (Fraction(1), Fraction(-1, 2))

    def test_ann_casimir_scalars(self):
        for n in (1, 2, 3):
            data = family_data(family_spec("A", n, n))
            g = Fraction(n * (n + 2), 2 * (n + 1) ** 2)
            assert data.gamma == (g, -g)

    def test_d21a_alpha_independent(self):
        d1 = family_data(family_spec("D21a", alpha=2.5))
        d2 = family_data(family_spec("D21a", alpha=7.25))
        assert d1 == d2
        assert d1.b == (Fraction(1), Fraction(1), Fraction(-1, 2))
        assert d1.gamma == (Fraction(3, 8), Fraction(3, 8), Fraction(-3, 4))

    def test_purity(self):
        assert family_data(family_spec("B", 2, 1)) == family_data(family_spec("B", 2, 1))

    def test_casimir_sum_identities(self):
        # gamma_0 + sum gamma_i = 1/2 exactly when the Killing form is
        # non-degenerate, 0 when it vanishes identically
        for spec in catalog(4, 4):
            data = family_data(spec)
            total = sum(data.gamma, Fraction(0)) + (data.gamma0 or Fraction(0))
            assert total == (Fraction(1, 2) if data.killing_nondegenerate else 0), spec.name


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
        specs = catalog(3)
        assert len(specs) == len(set(specs))


class TestRealizationChecks:
    @pytest.mark.parametrize("fam,m,n", [
        ("A", 1, 0), ("A", 2, 1), ("A", 1, 1), ("B", 1, 1), ("B", 0, 2),
        ("C", None, 3), ("D", 3, 1), ("D", 3, 2), ("D", 2, 1),
    ])
    def test_data_recomputed_from_algebra(self, fam, m, n):
        report = verify_realization(realize(family_spec(fam, m, n)))
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

    def test_casimirs_computed_once(self):
        from supereinstein.invariants import casimir_on_odd
        r = realize(family_spec("C", None, 3))
        assert r.casimirs is r.casimirs
        assert list(r.casimirs) == list(r.algebra.decomposition)
        for rng, cas in r.casimirs.items():
            direct = casimir_on_odd(r.algebra, r.canonical_form, rng)
            assert cas.scalar == direct.scalar

    def test_representation_indices_computed_once(self):
        from supereinstein.invariants import representation_index
        r = realize(family_spec("B", 1, 1))
        assert r.representation_indices is r.representation_indices
        assert list(r.representation_indices) == list(r.algebra.simple_ideals())
        for rng, l in r.representation_indices.items():
            assert l == representation_index(r.algebra, rng)

    def test_oversized_realization_refused(self):
        with pytest.raises(ValueError, match="MiB limit"):
            realize(family_spec("A", 40, 0))

    def test_catalog_fits_dense_limit(self):
        dims = [d.dim_k0 + sum(d.dim_k) + d.dim_odd
                for d in map(family_data, catalog(6))]
        assert max(dims) == 312
        assert 8 * max(dims) ** 3 <= families.MAX_DENSE_BYTES
