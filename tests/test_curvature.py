import dataclasses
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from supereinstein.curvature import (
    MetricParams,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_factors,
    metric_from_params,
    plan_curvature,
    ricci_closed_form,
    ricci_direct,
)
from supereinstein.families import catalog, family_spec, realize
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    SuperBasis,
    check_form,
    exact_form,
    killing_form,
)

from conftest import dense_connection, dense_constants, exact_metric, \
    parity_sign_matrix, seeded_params


def identity_form(alg):
    """The exact form with the identity Gram on ``alg``'s basis."""
    return exact_form(alg, np.arange(alg.dim) * (alg.dim + 1),
                      np.ones(alg.dim, dtype=np.int64))


def connection_residuals(alg, metric, conn):
    """(metric compatibility, torsion) max residuals over basis triples,
    from the dense symbols: an oracle independent of the sparse kernels."""
    g = metric.gram
    gamma = dense_connection(conn)
    s = parity_sign_matrix(alg.basis.parity_array())
    compat = np.einsum("ijm,mk->ijk", gamma, g, optimize=True) \
        + s[:, :, None] * np.einsum("ikm,jm->ijk", gamma, g, optimize=True)
    torsion = gamma - s[:, :, None] * np.swapaxes(gamma, 0, 1) \
        - dense_constants(alg)
    scale = metric.scale()
    return (float(np.max(np.abs(compat))) / scale,
            float(np.max(np.abs(torsion))))


def verify_naturally_reductive(real, params, t_offset=0.0):
    """Residual of natural reductivity on the doubled algebra.

    Builds the direct sum of the algebra with its even part, the complement
    spanned by (t_i X, (t_i - 1) X) over each even block plus (X, 0) over the
    odd part, and the induced metric; returns the max residual of
    <[U,V]_m, W>' = <U, [V,W]_m>' over all basis triples of the complement.
    At t = x the metric is naturally reductive; a nonzero ``t_offset`` is the
    diagnostic mode.
    """
    gram = metric_from_params(real, params).gram
    alg = real.algebra
    c = dense_constants(alg)
    n, e = alg.dim, alg.dim_even
    big = n + e
    c_sum = np.zeros((big, big, big))
    c_sum[:n, :n, :n] = c
    c_sum[n:, n:, n:] = c[:e, :e, :e]
    # complement basis, one column per original basis vector
    basis = np.zeros((big, n))
    for rng, xi in zip(alg.decomposition, params.x):
        ti = xi + t_offset
        for a in rng.indices():
            basis[a, a] = ti
            basis[n + a, a] = ti - 1.0
    for a in alg.odd_range():
        basis[a, a] = 1.0
    brk = np.einsum("Pi,Qj,PQR->ijR", basis, basis, c_sum, optimize=True)
    # project onto the complement along the diagonal copy of the even part
    proj = brk[:, :, :n].copy()
    proj[:, :, :e] -= brk[:, :, n:]
    lhs = np.einsum("abg,gd->abd", proj, gram, optimize=True)
    rhs = np.einsum("bdg,ag->abd", proj, gram, optimize=True)
    return float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(gram)))


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
        assert metric.report is None
        exact = exact_metric(osp32, (2, Fraction(1, 2)))
        assert np.array_equal(exact.gram, metric.gram)
        report = check_form(osp32.algebra, exact)
        assert report.is_even and report.is_supersymmetric
        assert not report.is_bi_invariant
        assert report.is_nondegenerate

    def test_zero_param_rejected(self):
        with pytest.raises(ValueError):
            MetricParams((1.0, 0.0))

    def test_misaligned_length(self, osp32):
        with pytest.raises(ValueError):
            metric_from_params(osp32, MetricParams((1.0, 1.0, 1.0)))


class TestLeviCivita:
    def test_bi_invariant_metric_gives_half_bracket(self, osp32):
        factors = metric_factors(osp32, MetricParams((1.0, 1.0)))
        conn = levi_civita_koszul(osp32.curvature_plan, factors)
        assert np.max(np.abs(dense_connection(conn)
                             - 0.5 * dense_constants(osp32.algebra))) < 1e-12

    def test_routes_agree_on_b11(self, osp32):
        params = MetricParams((2.0, 1.0 / 3.0))
        ck = levi_civita_koszul(osp32.curvature_plan,
                                metric_factors(osp32, params))
        cb = levi_civita_blockwise(osp32, params)
        assert np.max(np.abs(dense_connection(ck) - dense_connection(cb))) < 1e-10

    def test_abelian_connection_vanishes(self):
        basis = SuperBasis((0, 0))
        alg = LieSuperAlgebra(basis, {}, (DecompositionRange(0, 2, "abelian"),))
        metric = identity_form(alg)
        conn = levi_civita_koszul(plan_curvature(alg, metric))
        assert np.max(np.abs(dense_connection(conn))) == 0.0

    def test_factors_varying_inside_a_block_refused(self, osp32):
        # the plan is linear in one factor per block: a D that varies inside
        # a block has no such factors and must not give a connection
        plan = osp32.curvature_plan
        factors = metric_factors(osp32, MetricParams((2.0, 0.5)))
        factors[osp32.algebra.dim - 1] = 3.0  # one odd index only
        with pytest.raises(ValueError, match="vary inside a block"):
            levi_civita_koszul(plan, factors)
        alg = LieSuperAlgebra(SuperBasis((0, 0)), {},
                              (DecompositionRange(0, 2, "abelian"),))
        with pytest.raises(ValueError, match="vary inside a block"):
            levi_civita_koszul(plan_curvature(alg, identity_form(alg)),
                               np.array([1.0, 2.0]))

    def test_block_factors_give_the_exact_connection(self, osp32):
        # any block-constant D, the odd factor included, evaluated through
        # B's plan equals the one-shot plan of the metric D B itself, made
        # exact as (2 D) B / 2
        alg, form = osp32.algebra, osp32.canonical_form
        d = np.array([2.0, -0.5, 3.0])[alg.block_layout()]
        conn = levi_civita_koszul(osp32.curvature_plan, d)
        twice = (2 * d).astype(np.int64)[form.keys // alg.dim]
        direct = levi_civita_koszul(plan_curvature(alg, exact_form(
            alg, form.keys, twice * form.numer, 2 * form.denom)))
        assert np.array_equal(conn.keys, direct.keys)
        assert np.max(np.abs(conn.values - direct.values)) < 1e-12

    def test_blockwise_cases(self, osp32):
        alg = osp32.algebra
        c = dense_constants(alg)
        k1 = alg.decomposition[0]
        odd0 = alg.dim_even
        # X in k_i, Y odd, x_i = 2: coefficient 1 - x_i/2 vanishes
        gamma = dense_connection(levi_civita_blockwise(osp32, MetricParams((2.0, 1.0))))
        assert np.max(np.abs(gamma[k1.start, odd0, :])) == 0.0
        # X odd, Y in k_i: (x_i/2) [X, Y]
        assert np.allclose(gamma[odd0, k1.start, :], c[odd0, k1.start, :])
        # even pairs from different ideals commute: bracket already vanishes
        k2 = alg.decomposition[1]
        assert np.max(np.abs(c[k1.start, k2.start, :])) == 0.0

    def test_compatibility_and_torsion(self, osp32):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = MetricParams(seeded_params(rng, 2))
            metric = metric_from_params(osp32, params)
            conn = levi_civita_koszul(osp32.curvature_plan,
                                      metric_factors(osp32, params))
            compat, torsion = connection_residuals(osp32.algebra, metric, conn)
            assert compat < 1e-9 and torsion < 1e-9


class TestRicci:
    def test_sl21_unit_metric_einstein(self, sl21):
        metric = metric_from_params(sl21, MetricParams((1.0, 1.0)))
        plan = sl21.curvature_plan  # the unit metric is the canonical form
        ric = ricci_direct(plan, levi_civita_koszul(plan))
        assert np.max(np.abs(ric.gram + 0.25 * metric.gram)) < 1e-9

    def test_cross_ideal_and_mixed_blocks_vanish(self):
        real = realize(family_spec("A", 2, 1))
        params = MetricParams((1.7, -0.6, 2.2))
        plan, factors = real.curvature_plan, metric_factors(real, params)
        ric = ricci_direct(plan, levi_civita_koszul(plan, factors), factors)
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
        real = realize(family_spec("C", n=3))
        ric = ricci_closed_form(real, MetricParams((2.0, 1.0)))
        k = killing_form(real.algebra).gram
        assert ric.gram[0, 0] == pytest.approx(-k[0, 0])

    @pytest.mark.parametrize("fam,m,n", SWEEP_FAMILIES)
    def test_route_equivalence(self, fam, m, n):
        real = realize(family_spec(fam, m, n))
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = MetricParams(seeded_params(rng, real.data.n_params))
            plan, factors = real.curvature_plan, metric_factors(real, params)
            ric_d = ricci_direct(plan, levi_civita_koszul(plan, factors),
                                 factors)
            ric_c = ricci_closed_form(real, params)
            assert np.max(np.abs(ric_d.gram - ric_c.gram)) < 1e-8


CATALOG_3 = [spec for spec in catalog(3) if spec.realizable]


@pytest.mark.parametrize("spec", CATALOG_3, ids=lambda s: s.name)
def test_closed_form_is_the_catalog_block_formula(spec):
    # the canonical Gram row-scaled by -x0^2/4 on k0, (l x^2 - 1)/(4 b) on
    # each k_i and sum (x_i/2 - 1) gamma_i on the odd part, from the
    # catalog's exact l, b, gamma and gamma0
    real = realize(spec)
    data = spec.data
    assert all(v is None or type(v) is Fraction
               for inv in real.ideal_invariants.values()
               for v in dataclasses.astuple(inv))
    alg = real.algebra
    gamma = ([data.gamma0] if data.has_k0 else []) + list(data.gamma)
    for x in ([Fraction(1)] * data.n_params,
              [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4)][:data.n_params],
              [Fraction(-1, 2), Fraction(7, 3), Fraction(2)][:data.n_params]):
        scale = np.zeros(alg.dim)
        odd = sum((xi / 2 - 1) * g for xi, g in zip(x, gamma))
        scale[alg.dim_even:] = float(odd)
        simple = iter(zip(data.l, data.b))
        for rng, xi in zip(alg.decomposition, x):
            if rng.kind == "abelian":
                factor = -xi * xi / 4
            else:
                l, b = next(simple)
                factor = (l * xi * xi - 1) / (4 * b)
            scale[rng.start:rng.stop] = float(factor)
        want = scale[:, None] * real.canonical_form.gram
        got = ricci_closed_form(real, MetricParams(tuple(map(float, x)))).gram
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), x


# Both Ricci routes and the compatibility residual of the blockwise
# connection have degree <= 2 in each scaling, so agreement on the grid
# {1, 2, 3}^(number of scalings) is agreement on the whole family.
GRID_FAMILIES = [("A", 2, 1, None), ("B", 2, 2, None), ("D", 3, 2, None),
                 ("A", 2, 2, None), ("D21a", None, None, 1.0)]


class TestRouteGrid:
    @pytest.fixture(scope="class", params=GRID_FAMILIES,
                    ids=lambda f: family_spec(*f).name)
    def real(self, request):
        return realize(family_spec(*request.param))

    def test_blockwise_ricci_equals_closed_form_on_the_grid(self, real):
        for x in product((1.0, 2.0, 3.0), repeat=real.data.n_params):
            params = MetricParams(x)
            metric = metric_from_params(real, params)
            ric_d = ricci_direct(real.curvature_plan,
                                 levi_civita_blockwise(real, params),
                                 metric_factors(real, params))
            ric_c = ricci_closed_form(real, params)
            assert np.max(np.abs(ric_d.gram - ric_c.gram)) \
                <= 1e-12 * metric.scale(), x

    def test_blockwise_connection_is_levi_civita_on_the_grid(self, real):
        for x in product((1.0, 2.0, 3.0), repeat=real.data.n_params):
            params = MetricParams(x)
            compat, torsion = connection_residuals(
                real.algebra, metric_from_params(real, params),
                levi_civita_blockwise(real, params))
            assert compat <= 1e-12 and torsion <= 1e-12, x


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
            canonical_form=BilinearFormMatrix(2, np.array([0, 3]), np.ones(2)),
            data=SimpleNamespace(n_params=1),
            name="abelian",
        )
        assert verify_naturally_reductive(stub, MetricParams((1.5,))) == 0.0
