"""The sparse form, invariant and curvature kernels against dense einsum
oracles, and the join bound that keeps them within memory.

The oracles are the dense (n, n, n) formulas the kernels replaced; they live
here only, as independent references.
"""

import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from supereinstein import cli, curvature, einstein, families, invariants, \
    supercore
from supereinstein.curvature import (
    MetricParams,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_factors,
    metric_from_params,
    plan_curvature,
    ricci_direct,
)
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    DegeneracyError,
    LieSuperAlgebra,
    SuperBasis,
    MAX_JOIN_PAIRS,
    _join,
    check_form,
    check_super_jacobi,
    killing_form,
)

from conftest import dense_casimir, dense_connection, dense_constants, \
    dense_odd_action, exact_metric, integer_form, parity_sign_matrix, \
    seeded_params, sign_vector

REALIZABLE = [spec for spec in families.catalog(3) if spec.realizable]
TOL = 1e-12


def dense_killing(alg):
    sign = sign_vector(alg.basis)
    c = dense_constants(alg)
    return np.einsum("k,jkm,imk->ij", sign, c, c, optimize=True)


def dense_bi_invariance(alg, g):
    c = dense_constants(alg)
    t1 = np.einsum("ijm,mk->ijk", c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", c, g, optimize=True)
    return float(np.max(np.abs(t1 - t2)))


def dense_koszul(alg, g):
    c, n = dense_constants(alg), alg.dim
    s = parity_sign_matrix(alg.basis.parity_array())
    t1 = np.einsum("ijm,mk->ijk", c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", c, g, optimize=True)
    t3 = np.einsum("ikm,jm->ijk", c, g, optimize=True)
    rhs = t1 - t2 - s[:, :, None] * t3
    return 0.5 * np.linalg.solve(g.T, rhs.reshape(-1, n).T).T.reshape(n, n, n)


def dense_ricci(alg, gamma):
    sign = sign_vector(alg.basis)
    s = parity_sign_matrix(alg.basis.parity_array())
    g2 = np.einsum("zmz->zm", gamma)
    t1 = np.einsum("xym,zm->zxy", gamma, g2, optimize=True)
    t2 = np.einsum("zym,xmz->zxy", gamma, gamma, optimize=True)
    t3 = np.einsum("zxm,myz->zxy", dense_constants(alg), gamma, optimize=True)
    return np.einsum("z,zxy->xy", sign, t1 - s[:, :, None] * t2 - t3,
                     optimize=True)


def dense_index_traces(alg, ideal):
    """tr(rho(X) rho(Y)) and tr(ad X ad Y) on the ideal, the two sides of
    the representation index; the second is the ideal's own Killing form."""
    rho = dense_odd_action(alg, ideal)
    rep_tr = np.einsum("avw,bwv->ab", rho, rho, optimize=True)
    sl = slice(ideal.start, ideal.stop)
    cid = dense_constants(alg)[sl, sl, sl]
    return rep_tr, np.einsum("bvw,awv->ab", cid, cid, optimize=True)


def dense_form(form, size):
    """A sparse exact form (keys, numerators, denominator) on a block of
    ``size`` indices as a dense float Gram."""
    keys, numer, denom = form
    gram = np.zeros(size * size)
    gram[keys] = numer / float(denom)
    return gram.reshape(size, size)


def seeded_metric(real, seed):
    params = MetricParams(seeded_params(np.random.default_rng(seed),
                                        real.data.n_params))
    return params, metric_from_params(real, params)


def planned(plan, real, params):
    """The Koszul connection and direct Ricci tensor of one metric,
    evaluated through ``plan``."""
    factors = metric_factors(real, params)
    conn = levi_civita_koszul(plan, factors)
    return conn, ricci_direct(plan, conn, factors).gram


@pytest.mark.parametrize("spec", REALIZABLE, ids=lambda sp: sp.name)
def test_kernels_match_dense_oracles(spec):
    real = families.realize(spec)
    alg = real.algebra
    k_dense = dense_killing(alg)
    k = killing_form(alg)
    assert np.max(np.abs(k.gram - k_dense)) <= TOL * max(k.scale(), 1.0)
    plan = plan_curvature(alg, real.canonical_form)  # shared by every metric
    first = None
    for seed in (1, 2, 3):
        params, metric = seeded_metric(real, [seed, alg.dim])
        g = metric.gram
        scale = metric.scale()
        # the same check on the exact metric of the nearest nonzero halves
        exact = exact_metric(real, [Fraction(round(2 * x) or 1, 2)
                                    for x in params.x])
        assert abs(check_form(alg, exact).bi_invariance
                   - dense_bi_invariance(alg, exact.gram) / exact.scale()) \
            <= TOL
        conn, ric = planned(plan, real, params)
        first = first or (params, conn.values, ric)
        gamma = dense_koszul(alg, g)
        assert np.max(np.abs(dense_connection(conn) - gamma)) <= TOL * max(
            float(np.max(np.abs(gamma))), 1.0)
        ric_dense = dense_ricci(alg, gamma)
        assert np.max(np.abs(ric - ric_dense)) <= TOL * max(
            float(np.max(np.abs(ric_dense))), scale)
    # evaluating the first metric again, after the others, leaves no trace
    params, values, ric = first
    conn, again = planned(plan, real, params)
    assert np.array_equal(conn.values, values) and np.array_equal(again, ric)


def test_bi_invariance_of_a_random_form_matches_oracle(sl21):
    alg = sl21.algebra
    m = np.random.default_rng(3).integers(-9, 10, size=(alg.dim, alg.dim))
    form = integer_form(alg, m + m.T)
    residual = check_form(alg, form).bi_invariance
    assert residual > 0.1
    assert residual == pytest.approx(
        dense_bi_invariance(alg, form.gram) / form.scale(), rel=TOL)


def test_no_dense_structure_tensor_on_the_verify_path():
    real = families.realize(families.family_spec("B", 1, 1))
    alg = real.algebra
    params, _ = seeded_metric(real, 5)
    check_form(alg, killing_form(alg))
    planned(real.curvature_plan, real, params)
    levi_civita_blockwise(real, params)
    assert cli._route_equivalence(real, np.random.default_rng(5), 2) < 1e-8
    assert "c" not in alg.__dict__


def test_plan_is_built_once_and_reused(monkeypatch):
    # the joins are all made with the plan: later metrics only evaluate it
    real = families.realize(families.family_spec("B", 2, 2))
    joins = []

    def counted(*args, **kwargs):
        joins.append(args)
        return _join(*args, **kwargs)

    monkeypatch.setattr(supercore, "_join", counted)
    monkeypatch.setattr(curvature, "_join", counted)
    made = []
    for seed in (1, 2, 3):
        planned(real.curvature_plan, real, seeded_metric(real, seed)[0])
        made.append(len(joins))
    assert made[0] > 0 and made[1] == made[2] == made[0]


def test_one_plan_per_report_section(monkeypatch):
    # B(1,1): two route draws and two verified solutions, one plan
    built = []
    init = curvature.CurvaturePlan.__post_init__
    monkeypatch.setattr(curvature.CurvaturePlan, "__post_init__",
                        lambda plan: built.append(plan) or init(plan))
    verified = []
    inner = cli.einstein.verify_solution
    monkeypatch.setattr(cli.einstein, "verify_solution",
                        lambda *args: verified.append(args) or inner(*args))
    section, _ = cli.report_section(families.family_spec("B", 1, 1), 1, 0,
                                    cli.einstein.C_WINDOW)
    assert section["pass"] and len(verified) == 2 and len(built) == 1


def test_plan_retains_a_bounded_footprint():
    # B(4,4), dim 144, 4,464 structure constants: measured 364,757 bytes
    real = families.realize(families.family_spec("B", 4, 4))
    plan_curvature(real.algebra, real.canonical_form)  # first-call set-up
    tracemalloc.start()
    try:
        plan = plan_curvature(real.algebra, real.canonical_form)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plan.keys) == 4464
    assert retained <= 1.25 * 364_757


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
        levi_civita_koszul(plan_curvature(psl22.algebra, metric))


@pytest.mark.parametrize("spec", REALIZABLE, ids=lambda sp: sp.name)
def test_invariants_match_dense_oracles(spec):
    real = families.realize(spec)
    alg = real.algebra
    for ideal in alg.simple_ideals():
        rep_tr, ad_tr = dense_index_traces(alg, ideal)
        ki = invariants.ideal_killing_gram(alg, ideal)
        assert np.array_equal(dense_form(ki, ideal.dim), ad_tr)
        rep = supercore._trace_form(alg, ideal.indices(), alg.odd_range())
        assert np.array_equal(dense_form((*rep, alg.denom**2), ideal.dim),
                              rep_tr)
        l = invariants.representation_index(alg, ideal, ki)
        assert np.array_equal(rep_tr * l.denominator, ad_tr * l.numerator)
    for ideal in alg.decomposition:
        gamma = invariants.casimir_on_odd(alg, real.canonical_form, ideal)
        want = dense_casimir(alg, real.canonical_form, ideal)
        assert np.max(np.abs(float(gamma) * np.eye(alg.dim_odd) - want)) <= \
            1e-14 * float(np.max(np.abs(want)))


def test_invariants_allocate_no_ideal_cube():
    # sl(15)'s ideal cube alone would take 224**3 * 8 bytes = 90 MB
    real = families.realize(families.family_spec("A", 14, 0))
    alg = real.algebra
    tracemalloc.start()
    try:
        for ideal in alg.decomposition:
            if ideal.kind == "simple":
                ki = invariants.ideal_killing_gram(alg, ideal)
                invariants.representation_index(alg, ideal, ki)
            invariants.casimir_on_odd(alg, real.canonical_form, ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_coordinates_keep_the_gram_sparse():
    # A(40,0) spans 1,763 matrices: one dense int64 Gram would take 23.7 MiB
    calls = []

    def capture(*args):
        calls.append(args)
        raise StopIteration

    with mock.patch.object(families, "_coordinates", capture), \
            pytest.raises(StopIteration):
        families.realize(families.family_spec("A", 40, 0))
    span = calls[0][5]
    tracemalloc.start()
    try:
        families._coordinates(*calls[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < span * span * 8


def test_join_over_the_bound_refused_before_allocating():
    keys = np.zeros(math.isqrt(MAX_JOIN_PAIRS) + 1, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory limit"):
            _join(keys, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the pair indices alone would take 48 MB


def test_dense_form_over_the_bound_refused_before_allocating(capsys):
    # A(43,0) is the first A(m,0) over the bound: dim 2,024. ``build``,
    # which prints its dense Gram, refuses it before it is realized
    tracemalloc.start()
    try:
        code = cli.main(["build", "--family", "A", "--m", "43", "--n", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert re.fullmatch("error: A\\(43,0\\) has dimension 2,024: a dense .* "
                        "memory limit\n", capsys.readouterr().err)
    assert peak < 2**22  # one dense (2024, 2024) form alone would take 33 MB


def test_refused_from_the_record_before_the_basis_is_made():
    # the basis lists of A(300,0), dim 91,203, alone take tens of MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^A\\(300,0\\) has dimension "
                           "91,203: its basis products join at least .* "
                           "memory limit$"):
            families.realize(families.family_spec("A", 300, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dense_bound_admits_its_own_size(monkeypatch):
    spec = families.family_spec("B", 1, 1)
    monkeypatch.setattr(supercore, "MAX_DENSE_ENTRIES", 12 * 12)
    families.check_dense_size(spec)
    monkeypatch.setattr(supercore, "MAX_DENSE_ENTRIES", 12 * 12 - 1)
    with pytest.raises(ValueError, match="B\\(1,1\\) has dimension 12"):
        families.check_dense_size(spec)
    # only build reads the bound, not the realization
    assert families.realize(spec).algebra.dim == 12


def test_every_bound_is_read_from_supercore_when_it_is_used(monkeypatch):
    # the record checks and the solver's coarse-node refusal read the bounds
    # where every join reads its own, so lowering supercore's alone makes
    # all three refuse. B(1,1), dim 12: its basis products join at least 12
    # pairs, and its dense form has 144 entries
    spec = families.family_spec("B", 1, 1)
    families.check_product_join(spec)
    families.check_dense_size(spec)
    monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", 11)
    monkeypatch.setattr(supercore, "MAX_DENSE_ENTRIES", 143)
    with pytest.raises(ValueError, match="join at least 12 entry pairs, "
                       "over the 11-pair memory limit$"):
        families.check_product_join(spec)
    with pytest.raises(ValueError, match="over the 143-entry memory limit$"):
        families.check_dense_size(spec)
    with pytest.raises(ValueError, match="coarse nodes, over the 11-element "
                       "memory limit"):
        einstein.solve(spec.data)


def test_group_sum_peaks_under_six_values_per_pair(monkeypatch):
    # A(20,0): the contraction that rebuilds the brackets from their
    # coordinates joins 30,608 pairs. The keys and values are built in
    # place, gathered once in sorted order and each freed once read: a
    # peak of 45.8 bytes per pair (np.unique's copies and inverse took 64)
    calls = []
    rebuilds = supercore._rebuilds
    monkeypatch.setattr(supercore, "_rebuilds", lambda *args, **kwargs:
                        calls.append(args) or rebuilds(*args, **kwargs))
    families.realize(families.family_spec("A", 20, 0))
    coef_keys, coef, width, owner, flat, val, npos = calls[0][:7]
    args = (coef_keys % width, owner, coef, val, coef_keys // width, flat,
            npos)
    pairs = len(_join(*args[:2])[0])
    supercore._contract(*args)  # first-call set-up
    tracemalloc.start()
    try:
        supercore._contract(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 30_608
    assert peak <= 48 * pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_kernel_orders_and_groups_as_numpy_does(seed):
    # the oracles are numpy's stable sort and np.unique, which the package
    # no longer calls; the keys are negative and positive, with many ties
    rng = np.random.default_rng(seed)
    keys, vals = rng.integers(-40, 40, 500), rng.integers(-3, 4, 500)
    assert np.array_equal(supercore._order(keys, stable=True),
                          np.argsort(keys, kind="stable"))
    assert np.array_equal(keys[supercore._order(keys)], np.sort(keys))
    distinct, where = supercore._distinct(keys)
    want, inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(distinct, want) and np.array_equal(where, inverse)
    sums = np.zeros(len(want), dtype=np.int64)
    np.add.at(sums, inverse, vals)
    got = supercore._group_sum(keys, vals)
    assert np.array_equal(got[0], want[sums != 0])
    assert np.array_equal(got[1], sums[sums != 0])
    empty = np.zeros(0, dtype=np.int64)
    assert [len(v) for v in (*supercore._distinct(empty),
                             *supercore._group_sum(empty, empty))] == [0] * 4


def test_keys_too_wide_to_order_stably_refused():
    # a stable order sorts (key - min) * len + position, which must stay
    # under 2**63: two keys spanning 2**62 values just fit, and one more
    # value is refused by a one-line ValueError naming the join, the form
    # of every refusal the CLI prints before it exits 2
    assert supercore._order(np.array([2**62 - 1, 0]), stable=True).tolist() \
        == [1, 0]
    with pytest.raises(ValueError) as err:
        supercore._order(np.array([2**62, 0]), stable=True,
                         where=" in the Jacobi check")
    assert str(err.value) == ("a join in the Jacobi check orders 2 keys "
                              "spanning 4,611,686,018,427,387,905 values, too "
                              "wide to order in int64")
    with pytest.raises(ValueError, match="too wide to order in int64$"):
        _join(np.array([0]), np.array([2**62, 0]))
    assert supercore._order(np.array([2**62, 0])).tolist() == [1, 0]


def test_largest_catalog_family_passes_the_join_bound():
    dims = {spec: spec.data.dim_k0 + sum(spec.data.dim_k) + spec.data.dim_odd
            for spec in families.catalog(6)}
    largest = max(dims, key=dims.get)
    assert largest.name == "B(6,6)" and dims[largest] == 312
    alg = families.realize(largest).algebra  # freed after the test
    assert check_super_jacobi(alg).residual == 0.0
