"""The sparse form and curvature kernels against dense einsum oracles.

The oracles are the dense (n, n, n) formulas the kernels replaced; they live
here only, as independent references.
"""

import math

import numpy as np
import pytest

from supereinstein import cli, families
from supereinstein.curvature import (
    MetricParams,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_from_params,
    ricci_direct,
)
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    DegeneracyError,
    LieSuperAlgebra,
    SuperBasis,
    _parity_sign_matrix,
    check_form,
    killing_form,
)

from conftest import seeded_params

REALIZABLE = [spec for spec in families.catalog(3) if spec.realizable]
TOL = 1e-12


def dense_killing(alg):
    sign = alg.basis.sign_vector()
    return np.einsum("k,jkm,imk->ij", sign, alg.c, alg.c, optimize=True)


def dense_bi_invariance(alg, g):
    t1 = np.einsum("ijm,mk->ijk", alg.c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", alg.c, g, optimize=True)
    return float(np.max(np.abs(t1 - t2)))


def dense_koszul(alg, g):
    c, n = alg.c, alg.dim
    s = _parity_sign_matrix(alg.basis.parity_array())
    t1 = np.einsum("ijm,mk->ijk", c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", c, g, optimize=True)
    t3 = np.einsum("ikm,jm->ijk", c, g, optimize=True)
    rhs = t1 - t2 - s[:, :, None] * t3
    return 0.5 * np.linalg.solve(g.T, rhs.reshape(-1, n).T).T.reshape(n, n, n)


def dense_ricci(alg, gamma):
    sign = alg.basis.sign_vector()
    s = _parity_sign_matrix(alg.basis.parity_array())
    g2 = np.einsum("zmz->zm", gamma)
    t1 = np.einsum("xym,zm->zxy", gamma, g2, optimize=True)
    t2 = np.einsum("zym,xmz->zxy", gamma, gamma, optimize=True)
    t3 = np.einsum("zxm,myz->zxy", alg.c, gamma, optimize=True)
    return np.einsum("z,zxy->xy", sign, t1 - s[:, :, None] * t2 - t3,
                     optimize=True)


def seeded_metric(real, seed):
    params = MetricParams(seeded_params(np.random.default_rng(seed),
                                        real.data.n_params))
    return params, metric_from_params(real, params)


@pytest.mark.parametrize("spec", REALIZABLE, ids=lambda sp: sp.name)
def test_kernels_match_dense_oracles(spec):
    real = families.realize(spec)
    alg = real.algebra
    k_dense = dense_killing(alg)
    k = killing_form(alg)
    assert np.max(np.abs(k.gram - k_dense)) <= TOL * max(k.scale(), 1.0)
    for seed in (1, 2):
        _, metric = seeded_metric(real, [seed, alg.dim])
        g = metric.gram
        scale = metric.scale()
        assert abs(check_form(alg, metric).bi_invariance
                   - dense_bi_invariance(alg, g) / scale) <= TOL
        conn = levi_civita_koszul(alg, metric)
        gamma = dense_koszul(alg, g)
        assert np.max(np.abs(conn.gamma - gamma)) <= TOL * max(
            float(np.max(np.abs(gamma))), 1.0)
        ric = ricci_direct(alg, metric, conn).gram
        ric_dense = dense_ricci(alg, gamma)
        assert np.max(np.abs(ric - ric_dense)) <= TOL * max(
            float(np.max(np.abs(ric_dense))), scale)


def test_bi_invariance_of_a_random_form_matches_oracle(sl21):
    alg = sl21.algebra
    m = np.random.default_rng(3).normal(size=(alg.dim, alg.dim))
    form = BilinearFormMatrix(m + m.T)
    residual = check_form(alg, form).bi_invariance
    assert residual > 0.1
    assert residual == pytest.approx(
        dense_bi_invariance(alg, form.gram) / form.scale(), rel=TOL)


def test_no_dense_structure_tensor_on_the_verify_path():
    real = families.build_osp(3, 2)  # fresh, not the cached realization
    alg = real.algebra
    params, metric = seeded_metric(real, 5)
    check_form(alg, killing_form(alg))
    ricci_direct(alg, metric, levi_civita_koszul(alg, metric))
    levi_civita_blockwise(real, params)
    assert cli._route_equivalence(real, np.random.default_rng(5), 2) < 1e-8
    assert "c" not in alg.__dict__


def two_dim(v):
    return LieSuperAlgebra(SuperBasis((0, 0)), {(0, 1, 1): v, (1, 0, 1): -v},
                           (DecompositionRange(0, 2, "abelian"),))


def test_killing_overflow_refused():
    edge = math.isqrt((2**63 - 1) // 4)  # largest v with 2 * 2 * v**2 < 2**63
    assert killing_form(two_dim(edge)).gram[0, 0] == float(edge**2)
    for v in (edge + 1, 2**31):
        with pytest.raises(ValueError, match="overflow int64"):
            killing_form(two_dim(v))


def test_singular_metric_raises(psl22):
    metric = killing_form(psl22.algebra)  # identically zero on psl(2|2)
    assert not np.any(metric.gram)
    with pytest.raises(DegeneracyError, match="singular"):
        levi_civita_koszul(psl22.algebra, metric)
