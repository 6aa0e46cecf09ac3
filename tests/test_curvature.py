from types import SimpleNamespace

import numpy as np
import pytest

from supereinstein import supercore
from supereinstein.curvature import (
    MetricParams,
    connection_residuals,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_from_params,
    ricci_closed_form,
    ricci_direct,
    verify_naturally_reductive,
)
from supereinstein.families import build_osp, build_sl_super, family_spec, realize
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    SuperBasis,
    check_form,
    killing_form,
)

from conftest import seeded_params

SWEEP_FAMILIES = [("A", 1, 0), ("A", 2, 1), ("A", 1, 1), ("B", 1, 1),
                  ("B", 0, 2), ("C", None, 3), ("D", 3, 2), ("D", 2, 1)]


class TestMetricFromParams:
    def test_unit_params_reproduce_canonical(self, osp32):
        metric = metric_from_params(osp32, MetricParams((1.0, 1.0)))
        assert np.array_equal(metric.gram, osp32.canonical_form.gram)

    def test_single_block_scaling(self, osp32):
        metric = metric_from_params(osp32, MetricParams((2.0, 1.0)))
        k1 = osp32.algebra.decomposition[0]
        base = osp32.canonical_form.gram
        sl = slice(k1.start, k1.stop)
        assert np.array_equal(metric.gram[sl, sl], 2.0 * base[sl, sl])
        rest = np.array(metric.gram)
        rest[sl, sl] = base[sl, sl]
        assert np.array_equal(rest, base)

    def test_flags(self, osp32):
        metric = metric_from_params(osp32, MetricParams((2.0, 0.5)))
        assert metric.even and metric.supersymmetric
        assert metric.bi_invariant is None
        assert not check_form(osp32.algebra, metric).is_bi_invariant

    def test_zero_param_rejected(self):
        with pytest.raises(ValueError):
            MetricParams((1.0, 0.0))

    def test_misaligned_length(self, osp32):
        with pytest.raises(ValueError):
            metric_from_params(osp32, MetricParams((1.0, 1.0, 1.0)))


class TestLeviCivita:
    def test_bi_invariant_metric_gives_half_bracket(self, osp32):
        metric = metric_from_params(osp32, MetricParams((1.0, 1.0)))
        conn = levi_civita_koszul(osp32.algebra, metric)
        assert np.max(np.abs(conn.gamma - 0.5 * osp32.algebra.c)) < 1e-12

    def test_routes_agree_on_b11(self, osp32):
        params = MetricParams((2.0, 1.0 / 3.0))
        metric = metric_from_params(osp32, params)
        ck = levi_civita_koszul(osp32.algebra, metric)
        cb = levi_civita_blockwise(osp32, params)
        assert np.max(np.abs(ck.gamma - cb.gamma)) < 1e-10

    def test_abelian_connection_vanishes(self):
        basis = SuperBasis((0, 0))
        alg = LieSuperAlgebra(basis, {}, (DecompositionRange(0, 2, "abelian"),))
        metric = BilinearFormMatrix(np.eye(2))
        conn = levi_civita_koszul(alg, metric)
        assert np.max(np.abs(conn.gamma)) == 0.0

    def test_blockwise_cases(self, osp32):
        alg = osp32.algebra
        c = alg.c
        k1 = alg.decomposition[0]
        odd0 = alg.dim_even
        # X in k_i, Y odd, x_i = 2: coefficient 1 - x_i/2 vanishes
        conn = levi_civita_blockwise(osp32, MetricParams((2.0, 1.0)))
        assert np.max(np.abs(conn.gamma[k1.start, odd0, :])) == 0.0
        # X odd, Y in k_i: (x_i/2) [X, Y]
        assert np.allclose(conn.gamma[odd0, k1.start, :], c[odd0, k1.start, :])
        # even pairs from different ideals commute: bracket already vanishes
        k2 = alg.decomposition[1]
        assert np.max(np.abs(c[k1.start, k2.start, :])) == 0.0

    def test_compatibility_and_torsion(self, osp32):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = MetricParams(seeded_params(rng, 2))
            metric = metric_from_params(osp32, params)
            conn = levi_civita_koszul(osp32.algebra, metric)
            compat, torsion = connection_residuals(osp32.algebra, metric, conn)
            assert compat < 1e-9 and torsion < 1e-9


class TestRicci:
    def test_sl21_unit_metric_einstein(self, sl21):
        metric = metric_from_params(sl21, MetricParams((1.0, 1.0)))
        ric = ricci_direct(sl21.algebra, metric,
                           levi_civita_koszul(sl21.algebra, metric))
        assert np.max(np.abs(ric.gram + 0.25 * metric.gram)) < 1e-9

    def test_cross_ideal_and_mixed_blocks_vanish(self):
        real = build_sl_super(2, 1)
        params = MetricParams((1.7, -0.6, 2.2))
        metric = metric_from_params(real, params)
        ric = ricci_direct(real.algebra, metric,
                           levi_civita_koszul(real.algebra, metric))
        ranges = real.algebra.decomposition
        for i in range(len(ranges)):
            for j in range(len(ranges)):
                if i != j:
                    blk = ric.gram[ranges[i].start:ranges[i].stop,
                                   ranges[j].start:ranges[j].stop]
                    assert np.max(np.abs(blk)) < 1e-9
        odd = list(real.algebra.odd_range())
        assert np.max(np.abs(ric.gram[:real.algebra.dim_even, :][:, odd])) == 0.0

    def test_odd_block_at_unit_params(self, osp32):
        # at x = 1 with the canonical form, the odd Ricci block is -1/4 of
        # the Killing form's odd block
        ric = ricci_closed_form(osp32, MetricParams((1.0, 1.0)))
        k = killing_form(osp32.algebra).gram
        odd = list(osp32.algebra.odd_range())
        assert np.max(np.abs(ric.gram[np.ix_(odd, odd)]
                             + 0.25 * k[np.ix_(odd, odd)])) < 1e-10

    def test_c3_abelian_block_scaling(self):
        real = build_osp(2, 4)
        ric = ricci_closed_form(real, MetricParams((2.0, 1.0)))
        k = killing_form(real.algebra).gram
        assert ric.gram[0, 0] == pytest.approx(-k[0, 0])

    @pytest.mark.parametrize("fam,m,n", SWEEP_FAMILIES)
    def test_route_equivalence(self, fam, m, n):
        real = realize(family_spec(fam, m, n))
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = MetricParams(seeded_params(rng, real.data.n_params))
            metric = metric_from_params(real, params)
            conn = levi_civita_koszul(real.algebra, metric)
            ric_d = ricci_direct(real.algebra, metric, conn)
            ric_c = ricci_closed_form(real, params)
            assert np.max(np.abs(ric_d.gram - ric_c.gram)) < 1e-8


class TestNaturallyReductive:
    @pytest.mark.parametrize("fam,m,n", [("A", 1, 0), ("B", 1, 1), ("C", None, 3)])
    def test_residual_vanishes_at_matching_t(self, fam, m, n):
        real = realize(family_spec(fam, m, n))
        rng = np.random.default_rng(21)
        for _ in range(5):
            params = MetricParams(seeded_params(rng, real.data.n_params))
            assert verify_naturally_reductive(real, params) < 1e-9

    def test_diagnostic_mode_detects_mismatch(self, osp32):
        params = MetricParams((1.3, -0.7))
        assert verify_naturally_reductive(osp32, params, t_offset=0.1) >= 1e-3

    def test_abelian_even_part_vacuous(self):
        # two-dimensional abelian algebra dressed as a realization stub
        basis = SuperBasis((0, 0))
        alg = LieSuperAlgebra(basis, {}, (DecompositionRange(0, 2, "abelian"),))
        stub = SimpleNamespace(
            algebra=alg,
            canonical_form=BilinearFormMatrix(np.eye(2)),
            data=SimpleNamespace(n_params=1),
            name="abelian",
        )
        assert verify_naturally_reductive(stub, MetricParams((1.5,))) == 0.0
