import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supereinstein import families, supercore
from supereinstein.curvature import _even_supersymmetric_part, _slot_layout
from supereinstein.supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    DegeneracyError,
    LieSuperAlgebra,
    SuperBasis,
    algebra_to_json,
    bracket,
    check_form,
    check_super_jacobi,
    exact_inverse,
    killing_form,
)

from conftest import defining_matrices, dense_constants, dense_integers, \
    exact_entries, exact_metric, expand_in_basis, integer_form, \
    parity_sign_matrix, sign_vector


def unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def ad_matrix(alg, x):
    """Matrix of ad(x): column m holds the coefficients of [x, e_m]."""
    i, m, k = alg.index.T
    out = np.zeros((alg.dim, alg.dim))
    np.add.at(out, (k, m), np.asarray(x, dtype=float)[i] * (alg.numer / alg.denom))
    return out


def supertrace(matrix, basis):
    """Trace over the even block minus trace over the odd block."""
    if matrix.shape[0] != basis.total_dim:
        raise ValueError("operator does not act on this basis")
    return float(np.dot(sign_vector(basis), np.diagonal(matrix)))


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


def full_jacobi_sums(alg):
    """Test oracle: the exact Jacobi sums of every triple (i, j, k), sorted
    or not, as ``(keys, sums)`` by key ``((i * n + j) * n + k) * n + l``.
    The same joins as ``check_super_jacobi`` without its sorted-triple
    filters, so each join pairs every entry."""
    n, idx, num = alg.dim, alg.index, alg.numer
    p = alg.basis.parity_array()
    # c[., ., m] c[., m, l]: [e_i, [e_j, e_k]] and [e_j, [e_i, e_k]]
    a, b = supercore._join(idx[:, 2], idx[:, 1])
    inner = num[a] * num[b]
    sign = 1 - 2 * (p[idx[a, 0]] & p[idx[b, 0]])
    # c[i, j, m] c[m, k, l]: [[e_i, e_j], e_k]
    a2, b2 = supercore._join(idx[:, 2], idx[:, 0])
    i = np.concatenate([idx[b, 0], idx[a, 0], idx[a2, 0]])
    j = np.concatenate([idx[a, 0], idx[b, 0], idx[a2, 1]])
    k = np.concatenate([idx[a, 1], idx[a, 1], idx[b2, 1]])
    l = np.concatenate([idx[b, 2], idx[b, 2], idx[b2, 2]])
    vals = np.concatenate([inner, -sign * inner, -num[a2] * num[b2]])
    return supercore._group_sum(((i * n + j) * n + k) * n + l, vals)


def full_sum_jacobi(alg):
    """(residual, worst_triple) over the full sums: the largest |sum| as a
    float and the first (i, j, k) reaching it; (0.0, (0, 0, 0)) if none."""
    n = alg.dim
    keys, acc = full_jacobi_sums(alg)
    if not acc.size:
        return 0.0, (0, 0, 0)
    acc = np.abs(acc)
    first = int(np.argmax(acc))
    ijk = int(keys[first]) // n
    return (int(acc[first]) / alg.denom**2,
            (ijk // (n * n), ijk // n % n, ijk % n))


def sorted_triples_at_max(alg):
    """The distinct sorted triples whose |Jacobi sum| reaches the maximum."""
    n = alg.dim
    keys, acc = full_jacobi_sums(alg)
    at_max = keys[np.abs(acc) == np.max(np.abs(acc))] // n
    return {tuple(sorted((t // (n * n), t // n % n, t % n)))
            for t in at_max.tolist()}


PERTURBATION_KINDS = ("even-even", "even-odd", "odd-odd", "odd-same")
SMALL_RATIONALS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                   Fraction(-1, 3))


def draw_perturbation(data, alg):
    """``alg`` with one constant c[i, j, k] and its graded-antisymmetric
    partner moved (see ``perturbed``): (i, j) even-even, even-odd in either
    order, two distinct odd indices or one odd index twice, and k of the
    parity p_i + p_j that keeps the tensor parity-consistent."""
    even, odd = range(alg.dim_even), alg.odd_range()
    kind = data.draw(st.sampled_from(PERTURBATION_KINDS))
    if kind == "odd-same":
        i = j = data.draw(st.sampled_from(odd))
    else:
        first, second = {"even-even": (even, even), "even-odd": (even, odd),
                         "odd-odd": (odd, odd)}[kind]
        i, j = data.draw(st.tuples(st.sampled_from(first),
                                   st.sampled_from(second))
                         .filter(lambda ij: ij[0] != ij[1]))
        if data.draw(st.booleans()):
            i, j = j, i
    k = data.draw(st.sampled_from(odd if kind == "even-odd" else even))
    return perturbed(alg, i, j, k, data.draw(st.sampled_from(SMALL_RATIONALS)))


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
        mats = defining_matrices(sl21.spec)
        alg = sl21.algebra
        lbl = alg.basis.labels
        i_h, i_e = lbl.index("k1:H0"), lbl.index("k1:E(0,1)")
        got = bracket(alg, unit(alg.dim, i_h), unit(alg.dim, i_e))
        h, e = mats[i_h], mats[i_e]
        coeffs = expand_in_basis(mats, h @ e - e @ h)
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
        assert supertrace(np.eye(5), basis) == pytest.approx(3 - 2)

    def test_identity_on_defining_space(self):
        basis = SuperBasis((0, 0, 1))
        assert supertrace(np.eye(3), basis) == pytest.approx(1.0)

    def test_ad_h_squared_matches_killing(self, sl21):
        mats = defining_matrices(sl21.spec)
        alg = sl21.algebra
        i_h = alg.basis.labels.index("k1:H0")
        ad_h = ad_matrix(alg, unit(alg.dim, i_h))
        val = supertrace(ad_h @ ad_h, alg.basis)
        assert val == pytest.approx(4.0)
        # cross-check against 2(m-n) str(XY) on the defining matrices
        h = mats[i_h]
        sgn = np.array([1.0, 1.0, -1.0])
        assert val == pytest.approx(2 * (1 - 0) * float(np.sum(sgn * np.diag(h @ h))))


class TestKillingForm:
    def test_psl22_killing_vanishes(self, psl22):
        k = killing_form(psl22.algebra)
        assert np.max(np.abs(k.gram)) < 1e-12
        assert k.report.is_nondegenerate is False

    def test_sl21_value(self, sl21):
        k = killing_form(sl21.algebra)
        i_h = sl21.algebra.basis.labels.index("k1:H0")
        assert k.gram[i_h, i_h] == pytest.approx(4.0)
        assert k.report.is_even and k.report.is_supersymmetric
        assert k.report.is_bi_invariant and k.report.is_nondegenerate

    def test_restriction_ratio_b11(self, osp32):
        # K restricted to each ideal is (1 - l_i) times the ideal's Killing form
        from supereinstein.invariants import b_ratio, ideal_killing_gram
        k = killing_form(osp32.algebra)
        for ideal, l in zip(osp32.algebra.simple_ideals(), osp32.data.l):
            ki = ideal_killing_gram(osp32.algebra, ideal)
            assert b_ratio(k, ideal, ki) == 1 - l


@pytest.fixture(scope="module")
def realized_2():
    return [families.realize(s) for s in families.catalog(2) if s.realizable]


@pytest.fixture(scope="module")
def realized_3():
    return [families.realize(s) for s in families.catalog(3) if s.realizable]


def traced_peak(fn, *args):
    """The traced peak of one call ``fn(*args)``, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def moved_constants(alg, before):
    """{(i, j, k): c - c_before} over the constants ``alg`` moved."""
    now, was = exact_entries(alg), exact_entries(before)
    moved = {t: now.get(t, 0) - was.get(t, 0) for t in now.keys() | was.keys()}
    return {t: v for t, v in moved.items() if v}


# join bounds for the catalog check, and how many of catalog(3)'s 56 checks
# (28 realizations, each through its matrices and through ad) fit under each
BUDGETS = (1, 40, 16_384, 10**9)
HELD_AT = {1: 0, 40: 1, 16_384: 51, 10**9: 56}


@pytest.fixture(scope="module")
def b44():
    """B(4,4) = osp(9|8), dim 144, uncached: freed after the module."""
    return families.realize(families.family_spec("B", 4, 4))


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

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_sorted_triples_match_full_sum(self, sl21, psl22, osp32, data):
        # through ad, the check reports what one sum over all triples does
        alg = data.draw(st.sampled_from([sl21, psl22, osp32])).algebra
        for _ in range(data.draw(st.integers(1, 3))):
            alg = draw_perturbation(data, alg)
        report = check_super_jacobi(alg)
        assert (report.residual, report.worst_triple) == full_sum_jacobi(alg)

    def test_tied_sorted_triples_resolve_like_full_sum(self, sl21):
        # Several distinct sorted triples share the largest |J|, and both
        # kernels pick the first: c[H0, E(0,1), E(0,1)] + 1 on sl(2|1), and
        # c[Y, Y, Z0] + 1 for two odd Y, whose worst triples are (Y, Y, Y).
        # The derandomized property test above meets such ties in 59 of
        # its 150 examples.
        odd = sl21.algebra.dim_even
        twice = perturbed(sl21.algebra, odd, odd, 0, Fraction(1, 2))
        cases = [perturbed(sl21.algebra, 1, 2, 2, Fraction(1)),
                 perturbed(twice, odd + 1, odd + 1, 0, Fraction(1, 2))]
        for alg in cases:
            assert len(sorted_triples_at_max(alg)) > 1
            report = check_super_jacobi(alg)
            assert (report.residual, report.worst_triple) == \
                full_sum_jacobi(alg)

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_moved_constant_fails_through_the_matrices(self, realized_2,
                                                       data):
        # every realization of catalog(2), the psl quotients A(1,1) and
        # A(2,2) among them: the matrices name the constant that moved (or
        # its graded partner, whichever comes first) and how far, and ad
        # fails or holds with them
        real = data.draw(st.sampled_from(realized_2))
        alg = real.algebra
        for _ in range(data.draw(st.integers(0, 2))):
            alg = draw_perturbation(data, alg)
        moved = moved_constants(alg, real.algebra)
        report = check_super_jacobi(alg, real.matrices)
        if not moved:
            assert (report.residual, report.worst_triple) == (0.0, (0, 0, 0))
        else:
            worst = max(map(abs, moved.values()))
            assert report.residual == float(worst)
            assert report.worst_triple == min(
                t for t, v in moved.items() if abs(v) == worst)
        assert (check_super_jacobi(alg).residual == 0) == (not moved), \
            real.name

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_catalog_holds_at_every_budget(self, monkeypatch, budget,
                                           realized_3):
        # on both paths, under any join bound, every check of catalog(3)
        # holds exactly or refuses its join by name, and every one holds
        # under a bound the joins do not reach
        monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", budget)
        held = 0
        for real in realized_3:
            for matrices in (real.matrices, None):
                try:
                    report = check_super_jacobi(real.algebra, matrices)
                except ValueError as err:
                    assert "pairs in the Jacobi check is over the " \
                        f"{budget:,}-pair memory limit" in str(err), real.name
                    continue
                held += 1
                assert (report.residual, report.worst_triple) == \
                    (0.0, (0, 0, 0)), real.name
        assert (held, len(realized_3)) == (HELD_AT[budget], 28)

    def test_psl_holds_only_modulo_its_centre(self, psl22):
        # without the identity, the brackets [B_i, B_j] of psl(2|2) leave
        # the span of its basis matrices
        mats = psl22.matrices
        basis = mats.owner < mats.dim
        assert not basis.all()
        without = supercore.BasisMatrices(
            mats.dim, mats.owner[basis], mats.flat[basis], mats.value[basis],
            mats.even_slot, mats.size)
        assert check_super_jacobi(psl22.algebra, mats).residual == 0.0
        with pytest.raises(ValueError, match="leaves the span of the basis"):
            check_super_jacobi(psl22.algebra, without)

    def test_inhomogeneous_matrices_check_through_ad(self, sl21):
        # with every slot even, the odd matrices are off their parity, and
        # the check falls back to ad, which reports the full sum
        mats = dataclasses.replace(sl21.matrices, even_slot=sl21.matrices.size)
        odd = sl21.algebra.dim_even
        alg = perturbed(sl21.algebra, odd, odd + 1, 1, Fraction(2, 7))
        report = check_super_jacobi(alg, mats)
        assert (report.residual, report.worst_triple) == full_sum_jacobi(alg)
        assert check_super_jacobi(sl21.algebra, mats).residual == 0.0

    def test_join_pairs_halved(self, monkeypatch, b44):
        # B(4,4): the full sums join 140,280 pairs twice, and so does the
        # check through ad; through the matrices it joins less than half
        # of one of them
        pairs = []
        expand = supercore._expand

        def counting(*args):
            joined = expand(*args)
            pairs.append(len(joined[0]))
            return joined

        monkeypatch.setattr(supercore, "_expand", counting)
        full_sum_jacobi(b44.algebra)
        assert pairs == [140_280, 140_280]
        joined = []
        for matrices in (None, b44.matrices):
            pairs.clear()
            assert check_super_jacobi(b44.algebra, matrices).residual == 0.0
            joined.append(pairs[:])
        assert joined == [[140_280, 140_280], [4_616, 8_792]]
        assert 2 * sum(joined[1]) < 140_280

    def test_join_sides_ordered_once_per_check(self, monkeypatch, b44,
                                               psl22):
        # with no blocks, a check makes two joins, each ordering its right
        # side once: the products' inner index and the rebuild's basis
        # index; the two groupings are of the products and the rebuild, each
        # ordering its keys once, and modulo psl(2|2)'s centre each side is
        # regrouped once more. Every ordering is one call of the helper,
        # which makes one argsort, and nothing else sorts
        joins, orders, sorts, groups = [], [], [], []
        join, order, argsort, group_sum = (supercore._join, supercore._order,
                                           np.argsort, supercore._group_sum)
        monkeypatch.setattr(supercore, "_join", lambda *a: joins.append(1)
                            or join(*a))
        monkeypatch.setattr(supercore, "_order", lambda *a, **k:
                            orders.append(1) or order(*a, **k))
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1)
                            or argsort(*a, **k))
        monkeypatch.setattr(supercore, "_group_sum", lambda *a: groups.append(1)
                            or group_sum(*a))
        counts = []
        for real in (b44, psl22):
            for matrices in (real.matrices, None):
                joins.clear(), orders.clear(), sorts.clear(), groups.clear()
                assert check_super_jacobi(real.algebra, matrices).residual \
                    == 0.0
                assert len(sorts) == len(orders)
                counts.append((len(joins), len(orders), len(groups)))
        assert counts == [(2, 4, 2), (2, 4, 2), (2, 6, 4), (2, 4, 2)]

    def test_joins_no_more_than_the_realization(self, monkeypatch, b44):
        # B(4,4): the check joins the products that realize joins first and
        # the rebuild that realize makes of its coordinates, no more
        pairs = []
        expand, rebuilds = supercore._expand, supercore._rebuilds

        def counting(*args):
            joined = expand(*args)
            pairs.append(len(joined[0]))
            return joined

        def marked(*args, **kwargs):
            pairs.append("rebuild")
            return rebuilds(*args, **kwargs)

        monkeypatch.setattr(supercore, "_expand", counting)
        monkeypatch.setattr(supercore, "_rebuilds", marked)
        real = families.realize(b44.spec)
        made = pairs[:pairs.index("rebuild") + 2]
        pairs.clear()
        assert check_super_jacobi(real.algebra, real.matrices).residual == 0.0
        assert pairs == [made[0], "rebuild", made[-1]] == \
            [4_616, "rebuild", 8_792]

    @pytest.mark.parametrize("family", [("B", 4, 4), ("A", 20, 0)],
                             ids=["B(4,4)", "A(20,0)"])
    def test_traced_peak_within_realize(self, family):
        # B(4,4): 0.90 MB, under realize's 1.14 MB (the full sums peaked at
        # 43.7 MiB); A(20,0): 3.1 MB, under realize's 5.1 MB
        spec = families.family_spec(*family)
        made = traced_peak(families.realize, spec)
        real = families.realize(spec)
        assert traced_peak(check_super_jacobi, real.algebra,
                           real.matrices) <= made

    def test_join_refusal_names_the_jacobi_check(self, monkeypatch, sl21):
        # sl(2|1) = A(1,0): through ad the check joins 228 pairs twice,
        # through its matrices 41 and then 56
        for matrices, most in ((None, 228), (sl21.matrices, 56)):
            monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", most - 1)
            with pytest.raises(ValueError, match=f"a join of {most} entry "
                               "pairs in the Jacobi check is over the "
                               f"{most - 1}-pair memory limit"):
                check_super_jacobi(sl21.algebra, matrices)
            monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", most)
            assert check_super_jacobi(sl21.algebra, matrices).residual == 0.0

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

    def test_arrays_and_dict_store_the_same_constants(self, psl22):
        alg = psl22.algebra
        order = np.arange(len(alg.numer))[::-1]  # any order is sorted on entry
        for entries in (exact_entries(alg),
                        (alg.index[order], 3 * alg.numer[order], 3 * alg.denom)):
            again = LieSuperAlgebra(alg.basis, entries, alg.decomposition)
            assert np.array_equal(again.index, alg.index)
            assert np.array_equal(again.numer, alg.numer)
            assert again.numer.dtype == np.int64 and again.denom == alg.denom

    @pytest.mark.parametrize("index,numer,denom,match", [
        ([[0, 1, 1], [1, 0, 1]], [1.0, -1.0], 1, "exact"),
        ([[0, 1, 1], [1, 0, 1]], [1, -1], 0.5, "exact"),
        ([[0, 1, 1], [1, 0, 1]], [1, -1], 0, "exact"),
        ([[0, 1, 1], [1, 0, 1]], [1, 1], 1, "antisymmetry"),
        ([[0, 1, 2], [1, 0, 2]], [1, -1], 1, "outside"),
        ([[0, 1, 1], [0, 1, 1], [1, 0, 1]], [1, 1, -2], 1, "repeated"),
    ], ids=["float", "float denom", "zero denom", "antisymmetry", "bounds",
            "repeated"])
    def test_array_entries_validated(self, index, numer, denom, match):
        with pytest.raises(ValueError, match=match):
            LieSuperAlgebra(SuperBasis((0, 0)),
                            (np.array(index), np.array(numer), denom), self.EVEN2)

    def test_array_parity_violation_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            LieSuperAlgebra(SuperBasis((0, 1)),
                            (np.array([[0, 1, 0], [1, 0, 0]]), np.array([1, -1]), 1),
                            (DecompositionRange(0, 1, "abelian"),))

    def test_float_view_matches_fraction_fill(self):
        for spec in families.catalog(3):
            if not spec.realizable:
                continue
            alg = families.realize(spec).algebra
            fill = np.zeros((alg.dim,) * 3)
            for key, v in exact_entries(alg).items():
                fill[key] = float(v)
            assert np.array_equal(dense_constants(alg), fill), spec.name
            assert np.array_equal(np.argwhere(fill), alg.index), spec.name


class TestCheckForm:
    def test_killing_flags_across_families(self):
        degenerate = {"A(1,1)", "D(3,2)", "D(2,1;1)"}
        for args in [(1, 0), (2, 1)]:
            real = families.realize(families.family_spec("A", *args))
            rep = check_form(real.algebra, killing_form(real.algebra))
            assert rep.is_even and rep.is_supersymmetric and rep.is_bi_invariant
            assert rep.is_nondegenerate
        for args in [("B", 1, 1), ("C", None, 3), ("D", 3, 2), ("D", 2, 1)]:
            real = families.realize(families.family_spec(*args))
            rep = check_form(real.algebra, killing_form(real.algebra))
            assert rep.is_even and rep.is_supersymmetric and rep.is_bi_invariant
            assert rep.is_nondegenerate != (real.name in degenerate)

    def test_case2_form_on_psl22(self, psl22):
        rep = check_form(psl22.algebra, psl22.canonical_form)
        assert rep.is_bi_invariant and rep.is_nondegenerate

    def test_cartan_chain_is_nondegenerate_exactly(self):
        # A(m,0)'s Cartan chain makes the scaled determinant (m + 1) / 2**m:
        # 7.3e-11 at m = 39, under any float threshold, and still nonzero
        for m in (1, 3, 39):
            real = families.realize(families.family_spec("A", m, 0))
            report = real.canonical_form.report
            assert report.scaled_det == Fraction(m + 1, 2**m)
            assert report.is_nondegenerate

    def test_one_perturbed_entry_fails_its_axiom(self, osp32):
        # the canonical form times 1000 passes; one entry moved by 1 fails
        # the axiom it breaks, by 1 over the largest entry where it is a
        # key lookup, and a diagonal entry moved breaks bi-invariance only
        alg, form = osp32.algebra, osp32.canonical_form
        base = 1000 * dense_integers(form.keys, form.numer, alg.dim)
        assert check_form(alg, integer_form(alg, base)) == form.report
        for axiom, at in (("even", (0, alg.dim_even)),
                          ("supersymmetric", (0, 1)),
                          ("bi_invariant", (0, 0))):
            moved = base.copy()
            moved[at] += 1
            report = check_form(alg, integer_form(alg, moved))
            residual = {"even": report.evenness,
                        "supersymmetric": report.supersymmetry,
                        "bi_invariant": report.bi_invariance}[axiom]
            assert 0 < residual < 1e-3 and not getattr(report, f"is_{axiom}")
            if axiom != "bi_invariant":
                assert residual == 1 / np.max(np.abs(moved))
        assert report.is_even and report.is_supersymmetric

    @pytest.mark.parametrize("family,x", [
        (("A", 1, 0), (Fraction(109, 44), Fraction(124, 45))),
        (("A", 2, 0), (Fraction(112, 59), Fraction(74, 33))),
        (("A", 2, 1), (Fraction(31, 18), Fraction(31, 11), Fraction(159, 64))),
    ], ids=["A(1,0)", "A(2,0)", "A(2,1)"])
    def test_nondegeneracy_read_apart_from_the_inverse(self, monkeypatch,
                                                       family, x):
        # exact metrics whose inverse's common denominator is too large for
        # int64: the form still reads nondegenerate, from the determinants
        # of its components, and the one elimination also serves the
        # refused inverse
        real = families.realize(families.family_spec(*family))
        eliminated, inner = [], supercore._eliminate
        monkeypatch.setattr(supercore, "_eliminate",
                            lambda *args: eliminated.append(args) or inner(*args))
        metric = exact_metric(real, x)
        report = metric.report
        assert report.is_even and report.is_supersymmetric
        assert report.is_nondegenerate  # not bi-invariant: x scales blocks
        dense = dense_integers(metric.keys, metric.numer, metric.dim)
        row_max = np.abs(dense).max(axis=1)
        sign, logdet = np.linalg.slogdet(dense)
        assert sign != 0 and math.log(report.scaled_det) == pytest.approx(
            logdet - np.log(row_max.astype(float)).sum(), abs=1e-9)
        with pytest.raises(ValueError, match=r"an inverse over \d+ could "
                                             r"overflow int64"):
            metric.inverse
        assert len(eliminated) == 1

    def test_bi_invariance_overflow_refused(self, sl21):
        # coprime numerators near 2**60: the int64 sums could overflow
        n = sl21.algebra.dim
        with pytest.raises(ValueError, match="bi-invariance.*overflow int64"):
            integer_form(sl21.algebra, np.diag([2**60 + 1] + [1] * (n - 1)))

    def test_float_form_refused(self, sl21):
        with pytest.raises(ValueError, match="exact form is needed") as err:
            n = sl21.algebra.dim
            check_form(sl21.algebra, BilinearFormMatrix(
                n, np.arange(n) * (n + 1), np.ones(n)))
        assert "\n" not in str(err.value)

    def test_random_symmetric_form_not_invariant(self, sl21):
        rng = np.random.default_rng(7)
        n = sl21.algebra.dim
        m = rng.integers(-9, 10, size=(n, n))
        form = integer_form(sl21.algebra, m + m.T)
        assert not check_form(sl21.algebra, form).is_bi_invariant


def mask_even_supersymmetric_part(alg, mat):
    """The dense-mask formula of the even supersymmetric part: S mat^T with
    the full sign matrix S, and the mixed entries picked by a boolean mask."""
    p = alg.basis.parity_array()
    mixed = p[:, None] != p[None, :]
    evenness = float(np.max(np.abs(mat[mixed]))) if mixed.any() else 0.0
    transposed = parity_sign_matrix(p) * mat.T
    supersymmetry = float(np.max(np.abs(mat - transposed)))
    part = 0.5 * (mat + transposed)
    part[mixed] = 0.0
    return part, evenness, supersymmetry


ALL_ODD = LieSuperAlgebra(SuperBasis((1, 1, 1)), {}, ())


class TestEvenSupersymmetricPart:
    @pytest.mark.parametrize("alg", [abelian_algebra(3, 0), ALL_ODD, "B(1,1)"],
                             ids=["dim_odd=0", "dim_even=0", "B(1,1)"])
    def test_slices_match_the_mask_formula_bit_for_bit(self, alg, osp32):
        # the slot arithmetic on every entry, then on a random pattern with
        # the matrix zero off it: the same entries, bit for bit
        alg = osp32.algebra if alg == "B(1,1)" else alg
        n, p = alg.dim, alg.basis.parity_array()
        rng = np.random.default_rng(11)
        for _ in range(5):
            mat = rng.normal(size=(n, n))
            mat[rng.random(mat.shape) < 0.3] = -0.0
            slots, _, mirror, parity = _slot_layout(np.arange(n * n), p, n)
            assert slots.tolist() == list(range(n * n))
            part, evenness, supersymmetry = _even_supersymmetric_part(
                mirror, parity, mat.ravel())
            want = mask_even_supersymmetric_part(alg, mat)
            assert part.tobytes() == want[0].tobytes()
            assert (evenness, supersymmetry) == want[1:]
            keys = np.flatnonzero(rng.random(n * n) < 0.2)
            slots, at, mirror, parity = _slot_layout(keys, p, n)
            assert np.array_equal(slots[at], keys)
            sparse = np.zeros(n * n)
            sparse[keys] = mat.ravel()[keys]
            part, evenness, supersymmetry = _even_supersymmetric_part(
                mirror, parity, sparse[slots])
            want = mask_even_supersymmetric_part(alg, sparse.reshape(n, n))
            assert part.tobytes() == want[0].ravel()[slots].tobytes()
            assert not np.delete(want[0].ravel(), slots).any()
            assert (evenness, supersymmetry) == want[1:]

    def test_block_layout(self, osp32):
        alg = osp32.algebra
        want = [r for r, rng in enumerate(alg.decomposition) for _ in rng.indices()]
        want += [len(alg.decomposition)] * alg.dim_odd
        assert alg.block_layout().tolist() == want
        assert ALL_ODD.block_layout().tolist() == [0, 0, 0]
        assert abelian_algebra(3, 0).block_layout().tolist() == [0, 0, 0]


class TestDualBasis:
    """The dual basis of a form on a block is the columns of the exact
    inverse of the block."""

    def test_orthonormal_is_self_dual(self):
        keys, numer, denom, det = exact_inverse(np.array([0, 5, 10, 15]),
                                                np.ones(4, dtype=np.int64), 4)
        assert keys.tolist() == [0, 5, 10, 15] and numer.tolist() == [1] * 4
        assert denom == 1 and det == 1

    def test_diagonal_scaling(self):
        keys, numer, denom, det = exact_inverse(np.array([0, 3]),
                                                np.array([2, 1]), 2)
        assert (keys.tolist(), numer.tolist(), denom) == ([0, 3], [1, 2], 2)
        assert det == 2

    def test_osp32_ideal_round_trip(self, osp32):
        k = killing_form(osp32.algebra)
        for ideal in osp32.algebra.decomposition:
            block = k.block(ideal)
            inverse = exact_inverse(*block, ideal.dim)
            prod = dense_integers(*block, ideal.dim) \
                @ dense_integers(*inverse[:2], ideal.dim)
            assert np.array_equal(prod, inverse[2] * np.eye(ideal.dim, dtype=int))

    def test_degenerate_names_subspace(self, psl22):
        # psl(2|2)'s Killing form vanishes: every index is a singular
        # component of its own, and the first one is named
        k = killing_form(psl22.algebra)
        with pytest.raises(DegeneracyError, match=r"singular on the indices \[0\]"):
            exact_inverse(*k.block(range(0, 3)), 3)
        # a singular component of three indices among regular ones of one
        # and two, then a singular pair: each is named by its indices
        rows = [(0, 0, 1), (1, 2, 1), (2, 1, 1), (3, 3, 1), (3, 4, 1),
                (4, 3, 1), (4, 4, 2), (4, 5, 1), (5, 4, 1), (5, 5, 1)]
        keys = np.array([r * 6 + c for r, c, _ in rows])
        numer = np.array([v for _, _, v in rows])
        with pytest.raises(DegeneracyError, match=r"indices \[3, 4, 5\]"):
            exact_inverse(keys, numer, 6)
        singular_pair = [(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)]
        with pytest.raises(DegeneracyError, match=r"indices \[0, 1\]"):
            exact_inverse(np.array([r * 2 + c for r, c, _ in singular_pair]),
                          np.array([v for _, _, v in singular_pair]), 2)
        assert issubclass(DegeneracyError, ValueError)


class TestSerialization:
    def test_round_trip(self, osp32):
        doc = algebra_to_json(osp32.algebra)
        assert set(doc) == {"dim_even", "dim_odd", "parity", "c", "decomposition"}
        assert all(len(t) == 5 for t in doc["c"])

    def test_small_entries_omitted(self):
        alg = abelian_algebra(2, 2)
        assert algebra_to_json(alg)["c"].tolist() == []
