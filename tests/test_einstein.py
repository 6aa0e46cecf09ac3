import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from supereinstein import einstein, supercore
from supereinstein.curvature import MetricParams, metric_from_params, \
    ricci_routes
from supereinstein.einstein import (
    EinsteinSolution,
    cubic_factor,
    cubic_reference_coefficients,
    elimination_polynomial,
    lift_real_form,
    real_roots,
    solve,
    square_free_part,
    system_residual,
    verify_solution,
)
from supereinstein.families import FamilyData, catalog, family_spec, \
    iter_catalog, realize

F = Fraction
FLOAT_MAX = (2 - 2.0**-52) * 2.0**1023  # sys.float_info.max


def sys_for(fam, m=None, n=None, alpha=None):
    return family_spec(fam, m, n, alpha).data


def solve_family(spec, verify=True):
    """Solve the spec's system, and (when a matrix realization exists)
    verify each solution."""
    sols = solve(spec.data)
    if verify and spec.realizable:
        real = realize(spec)
        sols = [verify_solution(real, s) for s in sols]
    return sols


def known_solutions(spec):
    """The paper's closed-form (or four-digit approximate) solutions, the
    oracle for :func:`solve`: evaluated at the spec's parameters, stamped
    ``printed_catalog`` and returned in the ascending ``(c, x)`` order of
    :func:`solve`."""
    data = spec.data
    sols: list[tuple[tuple, float]] = []
    ones = tuple([1.0] * data.n_params)
    if spec.kind in ("A", "B", "C", "D", "F4", "G3"):
        sols.append((ones, -0.25))
    if spec.kind == "C":
        n = spec.n
        x0 = (4 * n**3 - 20 * n**2 + 33 * n - 16) / (4 * n**3 - 16 * n**2 + 23 * n - 12)
        x1 = (2 * n**2 - 3 * n) / (2 * n**2 - 5 * n + 4)
        sols.append(((x0, x1), -x0 / 4.0))
    if spec.kind == "G3":
        sols.append(((1.1760, 0.8767), -0.1312))  # four printed digits
    if spec.kind == "Ann":
        sols += [(ones, 0.0), (tuple(-v for v in ones), 0.0)]
    if spec.kind == "Dn1n":
        n = spec.n
        den = math.sqrt(2 * n**2 + 2 * n + 1)
        x1 = math.sqrt(2.0) * n / den
        x2 = math.sqrt(2.0) * (n + 1) / den
        c = -math.sqrt(2.0) * (2 * n + 1) / (8 * n * den)
        sols += [(ones, 0.0), (tuple(-v for v in ones), 0.0),
                 ((x1, x2), c), ((-x1, -x2), -c)]
    if spec.kind == "D21a":
        r = math.sqrt(2.0 / 5.0)
        c = -3.0 / 8.0 * r
        sols += [(ones, 0.0), (tuple(-v for v in ones), 0.0),
                 ((r, r, 2 * r), c), ((-r, -r, -2 * r), -c)]
    out = [EinsteinSolution(x, c, system_residual(data, x, c),
                            provenance="printed_catalog") for x, c in sols]
    out.sort(key=lambda s: (s.c, s.x))
    return out


def two_ideal_params_by_search(data):
    """(m, n) of an orthosymplectic two-ideal family recovered from its
    scalar data alone, searching m below 200, else (None, None). All scalar
    data must match, not just the dimensions: the exceptional families share
    dimension patterns with small orthosymplectic ones."""
    if data.form_kind != "killing" or data.has_k0 or data.s != 2:
        return None, None
    d1, d2 = data.dim_k
    # sp(2n) always sits second: d2 = n(2n+1)
    n = int(round((math.sqrt(1 + 8 * d2) - 1) / 4))
    if d2 != n * (2 * n + 1):
        return None, None
    for m in range(1, 200):
        if (d1 == m * (2 * m + 1)
                and data.l == (F(2 * n, 2 * m - 1), F(2 * m + 1, 2 * n + 2))
                and data.dim_odd == 2 * n * (2 * m + 1)):
            return m, n
        if (d1 == m * (2 * m - 1) and m >= 2
                and data.l == (F(n, m - 1), F(m, n + 1))
                and data.dim_odd == 4 * m * n):
            return m, n
    return None, None


def match_sets(solutions, expected, tol):
    """Each expected (x..., c) tuple matches exactly one solution."""
    assert len(solutions) == len(expected)
    remaining = list(solutions)
    for exp in expected:
        hit = None
        for s in remaining:
            vals = tuple(s.x) + (s.c,)
            if max(abs(a - b) for a, b in zip(vals, exp)) < tol:
                hit = s
                break
        assert hit is not None, f"no solution matches {exp}"
        remaining.remove(hit)


class TestBuildSystem:
    def test_g3_coefficients(self):
        sys = sys_for("G3")
        assert sys.l == (F(1, 2), F(7, 4))
        assert sys.b == (F(1, 2), F(-3, 4))
        assert sys.gamma == (F(1), F(-1, 2))
        assert sys.trace_rhs == 1 and not sys.has_k0

    def test_d21a_coefficients(self):
        sys = sys_for("D21a", alpha=2.5)
        assert sys.b == (F(1), F(1), F(-1, 2))
        assert sys.gamma == (F(3, 8), F(3, 8), F(-3, 4))
        assert sys.trace_rhs == 0

    def test_cn_has_abelian_equation(self):
        sys = sys_for("C", n=3)
        assert sys.has_k0 and sys.gamma0 == F(-1, 8)
        assert sys.trace_rhs == 1

    def test_unit_solution_exact_for_canonical_form(self):
        for fam, m, n in [("A", 2, 1), ("B", 1, 1), ("C", None, 3),
                          ("D", 3, 1), ("F4", None, None), ("G3", None, None)]:
            sys = sys_for(fam, m, n)
            ones = tuple([1.0] * sys.n_params)
            assert system_residual(sys, ones, -0.25) < 1e-15


class TestSolveRegression:
    def test_a21_unique(self):
        match_sets(solve(sys_for("A", 2, 1)), [(1, 1, 1, -0.25)], 1e-10)

    def test_ann_two_signed_solutions(self):
        for n in (1, 2):
            match_sets(solve(sys_for("A", n, n)),
                       [(1, 1, 0), (-1, -1, 0)], 1e-10)

    def test_c3_pair(self):
        match_sets(solve(sys_for("C", n=3)),
                   [(1, 1, -0.25), (11 / 21, 9 / 7, -11 / 84)], 1e-10)

    def test_d32_four(self):
        den = math.sqrt(13.0)
        x1, x2 = 2 * math.sqrt(2) / den, 3 * math.sqrt(2) / den
        c = -5 * math.sqrt(2) / (16 * den)
        match_sets(solve(sys_for("D", 3, 2)),
                   [(1, 1, 0), (-1, -1, 0), (x1, x2, c), (-x1, -x2, -c)], 1e-9)

    def test_d21a_four(self):
        r = math.sqrt(0.4)
        c = -3 / 8 * r
        match_sets(solve(sys_for("D21a", alpha=2.5)),
                   [(1, 1, 1, 0), (-1, -1, -1, 0),
                    (r, r, 2 * r, c), (-r, -r, -2 * r, -c)], 1e-10)

    def test_f4_unique(self):
        match_sets(solve(sys_for("F4")), [(1, 1, -0.25)], 1e-10)

    def test_solutions_carry_their_gating_residual(self, monkeypatch):
        # the residual that gates a candidate is the one its solution
        # carries: none is evaluated again while the solutions are made
        inner, made = einstein.system_residual, einstein.EinsteinSolution
        calls, at_made = [], []
        monkeypatch.setattr(einstein, "system_residual",
                            lambda *args: calls.append(args) or inner(*args))
        monkeypatch.setattr(einstein, "EinsteinSolution", lambda *args: (
            at_made.append(len(calls)) or made(*args)))
        data = sys_for("D", 3, 2)
        sols = solve(data)
        assert len(sols) == 4 and at_made == [len(calls)] * 4
        assert [s.residual for s in sols] == \
            [inner(data, s.x, s.c) for s in sols]

    def test_g3_two_with_printed_digits(self):
        sols = solve(sys_for("G3"))
        assert len(sols) == 2
        # solve returns ascending (c, x): c = -1/4 comes before c = -0.1312
        match_sets([sols[0]], [(1, 1, -0.25)], 1e-10)
        second = sols[1]
        # four printed digits; the catalogued constant carries them with
        # the sign forced by the trace equation
        assert abs(second.x[0] - 1.1760) < 2e-4
        assert abs(second.x[1] - 0.8767) < 2e-4
        assert abs(abs(second.c) - 0.1312) < 2e-4
        assert second.residual < 1e-10

    def test_deterministic(self):
        a = solve(sys_for("B", 2, 1))
        b = solve(sys_for("B", 2, 1))
        assert [(s.x, s.c) for s in a] == [(s.x, s.c) for s in b]

    def test_sign_symmetry_of_degenerate_killing_families(self):
        for fam, m, n, alpha in [("A", 1, 1, None), ("D", 3, 2, None),
                                 ("D21a", None, None, 2.5)]:
            sols = solve(sys_for(fam, m, n, alpha))
            keys = {tuple(round(v, 8) for v in s.x) + (round(s.c, 8),)
                    for s in sols}
            mirrored = {tuple(-v for v in k) for k in keys}
            assert keys == mirrored

    def test_ricci_flat_and_non_flat_coexist(self):
        for fam, m, n, alpha in [("D", 3, 2, None), ("D21a", None, None, 1.0)]:
            sols = solve(sys_for(fam, m, n, alpha))
            assert any(abs(s.c) < 1e-12 for s in sols)
            assert any(abs(s.c) > 1e-6 for s in sols)

    def test_contains_known_solutions(self):
        for fam, m, n, alpha in [("A", 2, 1, None), ("A", 1, 1, None),
                                 ("B", 2, 1, None), ("C", None, 3, None),
                                 ("D", 3, 2, None), ("D21a", None, None, 2.5),
                                 ("F4", None, None, None), ("G3", None, None, None)]:
            spec = family_spec(fam, m, n, alpha)
            sols = solve_family(spec, verify=False)
            for ks in known_solutions(spec):
                tol = 1e-8 if ks.residual < 1e-8 else 2e-4
                assert any(
                    max(abs(a - b) for a, b in zip(s.x + (s.c,), ks.x + (ks.c,))) < tol
                    for s in sols), (spec.name, ks)


class TestElimination:
    def test_d31_reference_coefficients(self):
        cubic = cubic_factor(elimination_polynomial(family_spec("D", 3, 1)))
        assert tuple(cubic) == (F(36), F(-48), F(48), F(-24))

    def test_unit_root_always_present(self):
        for fam, m, n in [("B", 1, 1), ("B", 3, 2), ("D", 2, 2), ("D", 4, 1)]:
            cubic_factor(elimination_polynomial(family_spec(fam, m, n)))  # raises if 1 is not a root

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            elimination_polynomial(family_spec("C", n=3))  # abelian block present
        with pytest.raises(ValueError):
            elimination_polynomial(family_spec("A", 1, 1))  # not the canonical form
        with pytest.raises(ValueError):
            elimination_polynomial(family_spec("B", 0, 2))  # single ideal

    @pytest.mark.parametrize("fam,m,n", [("B", 1, 1), ("B", 2, 1), ("B", 3, 2),
                                         ("D", 2, 2), ("D", 3, 1), ("D", 4, 2)])
    def test_matches_independent_resultant(self, fam, m, n):
        sys = sys_for(fam, m, n)
        quartic = elimination_polynomial(family_spec(fam, m, n))
        x = sp.symbols("x")
        l1, l2 = (sp.Rational(v) for v in sys.l)
        b1, b2 = (sp.Rational(v) for v in sys.b)
        g1, g2 = (sp.Rational(v) for v in sys.gamma)
        c = (l1 * x**2 - 1) / (4 * b1 * x)
        x2 = (2 * c + sp.Rational(sys.trace_rhs) - g1 * x) / g2
        expr = sp.Rational(1, 4) * (l2 * x2**2 - 1) - c * b2 * x2
        coeffs = sp.Poly(sp.expand(sp.numer(sp.together(expr))), x).all_coeffs()
        coeffs = [sp.Rational(0)] * (5 - len(coeffs)) + coeffs
        ratios = {sp.Rational(str(a)) / b for a, b in zip(quartic, coeffs) if b != 0}
        assert len(ratios) == 1
        assert all((a == 0) == (b == 0) for a, b in zip(quartic, coeffs))

    @pytest.mark.parametrize("fam,m,n", [("B", 1, 1), ("B", 2, 2), ("D", 3, 1),
                                         ("D", 2, 2)])
    def test_reference_formulas_match_resultant(self, fam, m, n):
        spec = family_spec(fam, m, n)
        cubic = tuple(cubic_factor(elimination_polynomial(spec)))
        assert cubic == cubic_reference_coefficients(spec)

    @pytest.mark.parametrize("spec", catalog(6), ids=lambda s: s.name)
    def test_reference_read_from_spec_equals_data_search(self, spec):
        # the reference cubic keys on the spec's (kind, m, n); the oracle
        # recovers (m, n) from the scalar data alone
        m, n = two_ideal_params_by_search(spec.data)
        ref = cubic_reference_coefficients(spec)
        if m is None:
            assert ref is None
            return
        assert (spec.kind, spec.m, spec.n) == \
            ("B" if spec.data.dim_k[0] == m * (2 * m + 1) else "D", m, n)
        assert tuple(cubic_factor(elimination_polynomial(spec))) == ref

    @pytest.mark.parametrize("fam,m,n", [("B", 1, 1), ("B", 2, 1), ("D", 2, 2),
                                         ("D", 3, 1)])
    def test_root_solution_bijection(self, fam, m, n):
        sys = sys_for(fam, m, n)
        roots = [r for r in real_roots(elimination_polynomial(
            family_spec(fam, m, n))) if abs(r) > 1e-9]
        xs = sorted({s.x[0] for s in solve(sys)})
        assert len(roots) == len(xs)
        assert all(abs(a - b) < 1e-8 for a, b in zip(sorted(roots), xs))

    def test_square_free_collapses_double_roots(self):
        # each case: coefficients, the square-free part's degree and the
        # distinct real roots, each the float nearest the exact root
        mul = einstein._poly_mul
        cases = {
            # (x - 1)^2 (2x - 1)^2, up to scale
            "D(2,2)": (elimination_polynomial(family_spec("D", 2, 2)), 2,
                       [0.5, 1.0]),
            # x (2x - 1)(x - 1), up to scale: each root on a bisection point
            "B(1,1)": (elimination_polynomial(family_spec("B", 1, 1)), 3,
                       [0.0, 0.5, 1.0]),
            "cluster": (mul([F(1), F(-1)], [F(1), -1 - F(1, 2**30)]), 2,
                        [1.0, 1.0 + 2.0**-30]),
            "x^2 + 1": ([F(1), F(0), F(1)], 2, []),
            "degree 0": ([F(3)], 0, []),
            "degree 1": ([F(3), F(-1)], 1, [1 / 3]),
            # -(x^2 - 2)(x + 3)^2
            "negative leading coefficient": (
                [-v for v in mul([F(1), F(0), F(-2)], [F(1), F(6), F(9)])],
                3, [-3.0, -math.sqrt(2), math.sqrt(2)]),
            # (x - 10^6)(3x + 1)^2, whose Cauchy bound is over 10^6
            "Cauchy bound over 10^6": (
                mul([F(1), F(-10**6)], [F(9), F(6), F(1)]), 2,
                [-1 / 3, 1e6]),
            # halfway between the floats 1 and 1 + 2^-52: ties go to the
            # even one, 1.0
            "tie": ([F(1), -1 - F(1, 2**53)], 1, [1.0]),
            "above the tie": ([F(1), -1 - F(1, 2**53) - F(1, 2**80)], 1,
                              [1.0 + 2.0**-52]),
            "below the tie": ([F(1), -1 - F(1, 2**53) + F(1, 2**80)], 1,
                              [1.0]),
            # (x^2 - 2)(x^2 - 2 - 2^-40): two irrational pairs 3.2e-13 apart;
            # math.sqrt rounds correctly
            "near-double irrational": (
                mul([F(1), F(0), F(-2)], [F(1), F(0), -2 - F(1, 2**40)]), 4,
                [-math.sqrt(2 + 2**-40), -math.sqrt(2), math.sqrt(2),
                 math.sqrt(2 + 2**-40)]),
        }
        for name, (coeffs, degree, roots) in cases.items():
            assert len(square_free_part(coeffs)) == degree + 1, name
            assert real_roots(coeffs) == roots, name
        zero = real_roots(cases["B(1,1)"][0])[0]
        assert math.copysign(1.0, zero) == 1.0

    def test_root_above_a_root_on_the_tie(self):
        # x - (1 + 2^-53) has its root on the tie between 1 and 1 + 2^-52,
        # and the interval isolating the root 2^-70 above it opens there:
        # p is 0 at that midpoint, and the upper root still rounds up
        tie = 1 + F(1, 2**53)
        coeffs = einstein._poly_mul([F(1), -tie], [F(1), -tie - F(1, 2**70)])
        assert real_roots(coeffs) == [1.0, 1.0 + 2.0**-52]

    def test_roots_at_the_ends_of_the_float_range(self):
        # 2^1000 and +-M, M the largest float, are exact, and M + 1, the
        # closed end of the window, rounds to M; the isolating interval of
        # 1.5 * 2^1023 opens past M and is cut to the window
        big = FLOAT_MAX
        assert real_roots([F(1), F(-2**1000)]) == [2.0**1000]
        assert real_roots([F(1), F(-int(big))]) == [big]
        assert real_roots([F(1), F(int(big))]) == [-big]
        assert real_roots([F(1), F(-int(big) - 1)]) == [big]
        assert real_roots([F(2), F(3 * 2**1023)]) == [-1.5 * 2.0**1023]
        assert real_roots(einstein._poly_mul(
            [F(1), F(-1)], [F(1), F(0), F(-2**2000)])) == \
            [-2.0**1000, 1.0, 2.0**1000]

    @pytest.mark.parametrize("coeffs", [
        [F(1), F(-2**1100)], [F(1), F(2**1100)], [F(1), F(-2**1024)],
        [F(1), F(-int(FLOAT_MAX) - 2)],
        einstein._poly_mul([F(1), F(-1)], [F(1), F(2**1100)])],
        ids=["2^1100", "-2^1100", "2^1024", "M+2", "1 and -2^1100"])
    def test_root_outside_the_float_range_refused(self, coeffs):
        with pytest.raises(ValueError, match=r"^a real root lies outside the "
                           r"float range \[-1\.7976931348623157e\+308, "
                           r"1\.7976931348623157e\+308\]$"):
            real_roots(coeffs)

    @pytest.mark.parametrize("spec", [
        s for s in catalog(6) if cubic_reference_coefficients(s) is not None],
        ids=lambda s: s.name)
    def test_real_roots_match_sympy(self, spec):
        quartic = elimination_polynomial(spec)
        exact = sp.Poly([sp.Rational(v.numerator, v.denominator)
                         for v in quartic], sp.Symbol("x")).real_roots()
        # each the correctly rounded float of the exact root
        want = [float(Fraction(str(r.evalf(60)))) for r in sorted(set(exact))]
        assert real_roots(quartic) == want

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 50),
                              st.integers(1, 3)), max_size=4),
           st.lists(st.tuples(st.integers(1, 50), st.integers(1, 2)),
                    max_size=2))
    def test_real_roots_of_rational_products(self, linear, squares):
        # prod (q x - p)^k prod (x^2 + a^2)^k has the real roots p / q
        poly = [F(1)]
        for p, q, k in linear:
            for _ in range(k):
                poly = einstein._poly_mul(poly, [F(q), F(-p)])
        for a, k in squares:
            for _ in range(k):
                poly = einstein._poly_mul(poly, [F(1), F(0), F(a * a)])
        assert real_roots(poly) == [
            float(r) for r in sorted({F(p, q) for p, q, _ in linear})]


class TestKnownSolutions:
    def test_c3_closed_form(self):
        sols = known_solutions(family_spec("C", n=3))
        vals = {tuple(round(v, 12) for v in s.x + (s.c,)) for s in sols}
        assert tuple(round(v, 12) for v in (11 / 21, 9 / 7, -11 / 84)) in vals

    def test_d32_closed_form_count(self):
        sols = known_solutions(family_spec("D", 3, 2))
        assert len(sols) == 4
        assert all(s.provenance == "printed_catalog" for s in sols)

    def test_g3_four_digit_row(self):
        sols = known_solutions(family_spec("G3"))
        approx = [s for s in sols if s.residual > 1e-8]
        assert len(approx) == 1
        assert approx[0].x == (1.1760, 0.8767)


class TestFolding:
    def test_ann_solutions_fold(self):
        spec = family_spec("A", 1, 1)
        assert spec.folding == ((0, 1),)
        for s in solve_family(spec, verify=False):
            assert lift_real_form(s, spec.folding).liftable

    def test_d21a_root_two_fifths_folds(self):
        spec = family_spec("D21a", alpha=1.0)
        sols = solve_family(spec, verify=False)
        target = [s for s in sols if abs(abs(s.x[0]) - math.sqrt(0.4)) < 1e-9]
        assert len(target) == 2
        for s in target:
            assert lift_real_form(s, spec.folding).liftable
            assert s.x[2] == pytest.approx(2 * s.x[0])

    def test_unequal_pair_rejected(self):
        sol = einstein.EinsteinSolution((1.0, 2.0), 0.0, 0.0)
        res = lift_real_form(sol, [(0, 1)])
        assert not res.liftable
        assert res.max_pair_gap == pytest.approx(1.0)

    def test_malformed_folding(self):
        sol = einstein.EinsteinSolution((1.0, 1.0, 1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            lift_real_form(sol, [(0, 0)])
        with pytest.raises(ValueError):
            lift_real_form(sol, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            lift_real_form(sol, [(0, 5)])

    def test_dn1n_folds_trivially(self):
        spec = family_spec("D", 3, 2)
        assert spec.folding == ()
        for s in solve_family(spec, verify=False):
            assert lift_real_form(s, spec.folding).liftable


class TestVerifySolution:
    def test_all_solutions_verify_on_b11(self, osp32):
        for s in solve_family(family_spec("B", 1, 1), verify=True):
            assert s.ricci_verified == "verified"

    def test_unit_solution_verifies_everywhere_canonical(self):
        for fam, m, n in [("A", 1, 0), ("B", 1, 1), ("C", None, 3), ("D", 3, 1)]:
            real = realize(family_spec(fam, m, n))
            ones = tuple([1.0] * real.data.n_params)
            sol = einstein.EinsteinSolution(ones, -0.25, 0.0)
            assert verify_solution(real, sol).ricci_verified == "verified"

    def test_perturbed_solution_fails(self, osp32):
        good = solve_family(family_spec("B", 1, 1), verify=False)[0]
        bad = dataclasses.replace(good, x=(good.x[0] + 1e-3, good.x[1]))
        stamped = verify_solution(osp32, bad)
        assert stamped.ricci_verified == "failed"
        assert stamped.detail is not None

    def test_nan_deviation_fails(self, osp32):
        # NaN compares false with the bound either way: it must not pass
        good = solve_family(family_spec("B", 1, 1), verify=False)[0]
        stamped = verify_solution(osp32, dataclasses.replace(good, c=math.nan))
        assert stamped.ricci_verified == "failed"
        assert stamped.detail.startswith("direct route deviates nan at ")

    @pytest.mark.parametrize("fam,m,n", [("A", 2, 1), ("B", 1, 1),
                                         ("C", None, 3), ("D", 3, 2)])
    def test_slots_match_the_dense_comparison(self, fam, m, n):
        # the outcome and the named blocks of dense (dim, dim) comparisons
        # of each route with c g, on solutions moved off in c or in x
        real = realize(family_spec(fam, m, n))
        plan = real.curvature_plan
        for sol in solve(real.data):
            for dc, dx in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (0.0, -0.3)):
                moved = dataclasses.replace(sol, c=sol.c + dc, x=tuple(
                    v + dx * (i + 1) for i, v in enumerate(sol.x)))
                got = verify_solution(real, moved)
                params = MetricParams(moved.x)
                metric = metric_from_params(real, params)
                target = moved.c * metric.gram
                _, direct, closed = ricci_routes(real, params)
                devs = [np.abs(ric.gram - target) for ric in (direct, closed)]
                bound = einstein.RICCI_TOL * metric.scale()
                worst = max(float(dev.max()) for dev in devs)
                assert got.ricci_verified == \
                    ("verified" if worst < bound else "failed")
                failing = [(route, dev) for route, dev in
                           zip(("direct", "closed_form"), devs)
                           if dev.max() >= bound]
                if not failing:
                    assert got.detail is None
                    continue
                route, dev = failing[0]
                i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
                assert got.detail == (
                    f"{route} route deviates {dev.max():.3g} at "
                    f"{einstein._block_of(real, int(i))} x "
                    f"{einstein._block_of(real, int(j))}")
                assert len(plan.slots) < dev.size


def branch_signs(sys):
    return [tuple(1 if (branch_id >> i) & 1 == 0 else -1 for i in range(sys.s))
            for branch_id in range(2 ** sys.s)]


def solutions_from_candidates(sys, branch_candidates):
    """The per-candidate tail of :func:`solve`: (signs, candidate c) pairs
    through the residual gate, then sorted and deduplicated."""
    found = []
    for signs, c in branch_candidates:
        c = c + 0.0
        vec = einstein._branch_vector(sys, signs, c)
        if min(abs(v) for v in vec) < 1e-9:
            continue
        if system_residual(sys, vec, c) < einstein.SOLUTION_TOL:
            found.append((vec, c))
    found.sort(key=lambda t: (t[1], t[0]))
    out = []
    for vec, c in found:
        if not any(max(abs(c - s.c), max(abs(a - b) for a, b in zip(vec, s.x)))
                   < einstein.DEDUPE_TOL for s in out):
            out.append(einstein.EinsteinSolution(
                vec, c, system_residual(sys, vec, c)))
    return out


def scalar_loop_solve(sys, c_window, grid_step):
    """Oracle for the grid scan of :func:`solve`: the same candidates found
    by plain per-grid-point loops, through the same per-candidate tail."""
    n_grid = int(round(2.0 * c_window / grid_step))
    c_grid = -c_window + grid_step * np.arange(n_grid + 1)
    candidates = []
    for signs in branch_signs(sys):
        g = einstein._trace_residual(sys, signs, c_grid)
        f = lambda c: float(einstein._trace_residual(sys, signs, c))  # noqa: E731

        def sharpened(c0):
            refined = einstein._refine_tangent(f, c0)
            return signs, (refined if abs(refined - c0) <= 1e-7 else c0)

        for k in range(n_grid):
            if g[k] == 0.0:
                candidates.append(sharpened(float(c_grid[k])))
            elif g[k] * g[k + 1] < 0.0:
                candidates.append(sharpened(einstein._bisect(
                    f, float(c_grid[k]), float(c_grid[k + 1]),
                    einstein.BISECT_TOL)))
        if g[n_grid] == 0.0:
            candidates.append(sharpened(float(c_grid[n_grid])))
        absg = np.abs(g)
        for k in range(1, n_grid):
            if absg[k] < einstein.TANGENT_PROBE and absg[k] <= absg[k - 1] \
                    and absg[k] <= absg[k + 1]:
                candidates.append(
                    (signs, einstein._refine_tangent(f, float(c_grid[k]))))
    return solutions_from_candidates(sys, candidates)


def full_grid_solve(sys, c_window=einstein.C_WINDOW,
                    grid_step=einstein.GRID_STEP):
    """Oracle for the pruned scan of :func:`solve`: the vectorized scan of
    every grid point on every branch, through the same per-candidate
    tail."""
    n_grid = int(round(2.0 * c_window / grid_step))
    c_grid = -c_window + grid_step * np.arange(n_grid + 1)
    candidates = []
    for signs in branch_signs(sys):
        g = einstein._trace_residual(sys, signs, c_grid)
        f = lambda c: float(einstein._trace_residual(sys, signs, c))  # noqa: E731

        def sharpened(c0):
            refined = einstein._refine_tangent(f, c0)
            return signs, (refined if abs(refined - c0) <= 1e-7 else c0)

        crossing = (g[:-1] == 0.0) | (g[:-1] * g[1:] < 0.0)
        for k in np.flatnonzero(crossing):
            if g[k] == 0.0:
                candidates.append(sharpened(float(c_grid[k])))
            else:
                candidates.append(sharpened(einstein._bisect(
                    f, float(c_grid[k]), float(c_grid[k + 1]),
                    einstein.BISECT_TOL)))
        if g[n_grid] == 0.0:
            candidates.append(sharpened(float(c_grid[n_grid])))
        absg = np.abs(g)
        mid = absg[1:-1]
        minima = ((mid < einstein.TANGENT_PROBE) & (mid <= absg[:-2])
                  & (mid <= absg[2:]))
        for k in np.flatnonzero(minima) + 1:
            candidates.append(
                (signs, einstein._refine_tangent(f, float(c_grid[k]))))
    return solutions_from_candidates(sys, candidates)


def whole_range_solve(data, c_window=einstein.C_WINDOW,
                      grid_step=einstein.GRID_STEP):
    """Oracle for the chunked fine pass of :func:`solve`: the same coarse
    pass, then every kept point of a branch evaluated in one array, with
    neighbours found from consecutive indices, through the same
    per-candidate tail."""
    block = einstein._BLOCK
    n_grid = int(round(2.0 * c_window / grid_step))
    nodes = np.append(np.arange(0, max(n_grid, 1), block), n_grid)
    c_nodes = -c_window + grid_step * nodes
    candidates = []
    for signs in branch_signs(data):
        terms = [einstein._trace_residual(data, (), c_nodes)] + [
            einstein._ideal_term(data, i, c_nodes)[sgn]
            for i, sgn in enumerate(signs)]
        lo = sum(np.minimum(t[:-1], t[1:]) for t in terms)
        hi = sum(np.maximum(t[:-1], t[1:]) for t in terms)
        kept = np.flatnonzero((lo <= 2.0 * einstein.TANGENT_PROBE)
                              & (hi >= -2.0 * einstein.TANGENT_PROBE))
        idx = np.unique(np.concatenate(
            [np.arange(max(nodes[k] - 1, 0), min(nodes[k + 1] + 1, n_grid) + 1)
             for k in kept] or [np.zeros(0, dtype=np.int64)]))
        c_pts = -c_window + grid_step * idx
        g = einstein._trace_residual(data, signs, c_pts)
        f = lambda c: float(einstein._trace_residual(data, signs, c))  # noqa: E731

        def sharpened(c0):
            refined = einstein._refine_tangent(f, c0)
            return signs, (refined if abs(refined - c0) <= 1e-7 else c0)

        adjacent = idx[1:] == idx[:-1] + 1
        crossing = adjacent & (g[:-1] * g[1:] < 0.0)
        for p in np.flatnonzero((g == 0.0) | np.append(crossing, False)):
            if g[p] == 0.0:
                candidates.append(sharpened(float(c_pts[p])))
            else:
                candidates.append(sharpened(einstein._bisect(
                    f, float(c_pts[p]), float(c_pts[p + 1]),
                    einstein.BISECT_TOL)))
        absg = np.abs(g)
        mid = absg[1:-1]
        minima = (adjacent[:-1] & adjacent[1:] & (mid < einstein.TANGENT_PROBE)
                  & (mid <= absg[:-2]) & (mid <= absg[2:]))
        for p in np.flatnonzero(minima) + 1:
            candidates.append(
                (signs, einstein._refine_tangent(f, float(c_pts[p]))))
    return solutions_from_candidates(data, candidates)


def with_candidates(solver, *args):
    """The solver's solutions and the sorted start points of every
    bisection and tangent polish it ran."""
    seen = []
    bisect, refine = einstein._bisect, einstein._refine_tangent
    einstein._bisect = lambda f, a, b, tol: (
        seen.append(("bisect", a, b)) or bisect(f, a, b, tol))
    einstein._refine_tangent = lambda f, c0: (
        seen.append(("refine", c0)) or refine(f, c0))
    try:
        return solver(*args), sorted(seen)
    finally:
        einstein._bisect, einstein._refine_tangent = bisect, refine


def bits(sols):
    """Every float of the solutions, residuals included, as exact bits."""
    return [tuple(v.hex() for v in s.x + (s.c, s.residual)) for s in sols]


# D(2,1;2.5) is in catalog(3) too
ORACLE_SPECS = list(dict.fromkeys(
    catalog(3) + [family_spec("D21a", alpha=a) for a in (0.5, 2.5, -0.3)]))


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
nonzero_fractions = small_fractions.filter(lambda v: v != 0)


@st.composite
def random_systems(draw):
    """A system with s simple ideals, positive l, nonzero b and gamma, any
    trace_rhs, and an abelian block half the time."""
    s = draw(st.integers(1, 3))
    has_k0 = draw(st.booleans())
    ideal = lambda values: tuple(draw(values) for _ in range(s))  # noqa: E731
    return FamilyData(
        dim_k0=int(has_k0), dim_k=(1,) * s, dim_odd=2,
        l=ideal(st.fractions(min_value=F(1, 8), max_value=6,
                             max_denominator=8)),
        b=ideal(nonzero_fractions), gamma=ideal(nonzero_fractions),
        gamma0=draw(nonzero_fractions) if has_k0 else None,
        killing_nondegenerate=True, form_kind="killing",
        trace_rhs=draw(small_fractions))


class TestSolverInternals:
    def test_branch_quadratic_never_vanishes(self):
        sys = sys_for("B", 2, 1)
        for s in solve(sys):
            assert min(abs(v) for v in s.x) > 1e-6

    def test_window_contains_catalog(self):
        # every solution across the small catalog fits well inside the
        # default window
        from supereinstein.families import catalog
        for spec in catalog(3, 2):
            for s in solve_family(spec, verify=False):
                assert abs(s.c) < 1.0

    def test_solutions_sorted(self):
        sols = solve(sys_for("D", 3, 2))
        keys = [(s.c,) + s.x for s in sols]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("c_window, grid_step", [(0.5, 1e-2), (2.0, 1e-3)])
    def test_scan_matches_scalar_loops(self, c_window, grid_step):
        from supereinstein.families import catalog
        specs = catalog(3) + [family_spec("D21a", alpha=a)
                              for a in (0.5, 2.5, -0.3)]
        for spec in specs:
            sys = spec.data
            assert solve(sys, c_window=c_window, grid_step=grid_step) == \
                scalar_loop_solve(sys, c_window, grid_step), spec.name

    @pytest.mark.parametrize("c_window", [einstein.C_WINDOW, 25.0])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
    def test_pruned_scan_matches_full_grid(self, spec, c_window):
        sys = spec.data
        got, got_starts = with_candidates(solve, sys, c_window)
        want, want_starts = with_candidates(full_grid_solve, sys, c_window)
        assert got == want and bits(got) == bits(want)
        assert got_starts == want_starts

    def test_near_miss_minimum_is_polished(self):
        # gamma0 = -1/2 cancels the linear part, so on the (+, +) branch
        # g(c) = 2 sqrt(1 + 4 c^2 / 10^4) - trace_rhs, whose minimum
        # g(0) = 0.008 lies under TANGENT_PROBE: a candidate though no
        # solution. The terms are so flat that the enclosures of the coarse
        # cells around c = 0 stay above 0.0078, near TANGENT_PROBE.
        sys = FamilyData(dim_k0=1, dim_k=(1, 1), dim_odd=2, l=(F(1), F(1)),
                         b=(F(1, 100), F(-1, 100)), gamma=(F(1), F(1)),
                         gamma0=F(-1, 2), killing_nondegenerate=True,
                         form_kind="killing", trace_rhs=2 - F(1, 125))
        got, got_starts = with_candidates(solve, sys)
        want, want_starts = with_candidates(full_grid_solve, sys)
        assert got == want == []
        assert got_starts == want_starts
        assert ("refine", 0.0) in want_starts

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(random_systems())
    def test_pruned_scan_matches_full_grid_on_random_systems(self, sys):
        # 4,000 grid steps: the window spans 63 coarse cells
        got, got_starts = with_candidates(solve, sys, 2.0, 1e-3)
        want, want_starts = with_candidates(full_grid_solve, sys, 2.0, 1e-3)
        assert got == want and bits(got) == bits(want)
        assert got_starts == want_starts

    @pytest.mark.parametrize("fam,m,n", [("D", 3, 3), ("B", 3, 2)])
    def test_scan_evaluates_under_five_percent_of_the_grid(
            self, monkeypatch, fam, m, n):
        # The full scan evaluates the trace residual of each of the 2^s
        # branches at all n_grid + 1 points. Each evaluation at c computes
        # every ideal's terms there, so the points evaluated are the sizes
        # passed to _ideal_term over s.
        sys = sys_for(fam, m, n)
        sizes = []
        term = einstein._ideal_term
        monkeypatch.setattr(einstein, "_ideal_term", lambda data, i, c: (
            sizes.append(np.size(c)) or term(data, i, c)))
        solve(sys)
        n_grid = int(round(2.0 * einstein.C_WINDOW / einstein.GRID_STEP))
        assert sum(sizes) / sys.s < 0.05 * 2 ** sys.s * (n_grid + 1)

    def test_peak_memory_under_two_grid_arrays(self):
        # one float array over the default grid takes 1.6 MB, and a scan of
        # the whole grid peaks at 15 MB here; D(3,3) keeps the most points
        tracemalloc.start()
        try:
            solve(sys_for("D", 3, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_grid = int(round(2.0 * einstein.C_WINDOW / einstein.GRID_STEP))
        assert peak < 2 * 8 * (n_grid + 1)

    def test_oversized_window_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="coarse nodes"):
                solve(sys_for("A", 1, 0), c_window=1e8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_kept_region_scanned_in_chunks(self, monkeypatch):
        # D(3,3)'s (+, +) branch keeps |c| < 1.24, about 24,800 points,
        # where its trace residual stays under 2 TANGENT_PROBE: over a
        # memory limit of 10,000, and scanned in chunks all the same
        sys = sys_for("D", 3, 3)
        want = solve(sys)
        sizes = []
        residual = einstein._trace_residual
        monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", 10_000)
        monkeypatch.setattr(einstein, "_trace_residual", lambda data, signs, c: (
            sizes.append(np.size(c)) or residual(data, signs, c)))
        assert bits(solve(sys)) == bits(want)
        assert max(sizes) <= einstein._CHUNK + 2
        assert sum(size > 1 for size in sizes) > 2 ** sys.s

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_chunk_boundaries_keep_every_candidate(self, monkeypatch, chunk):
        # with chunks of a few points, zeros, sign changes and minima fall
        # on every position relative to a chunk's edge
        monkeypatch.setattr(einstein, "_CHUNK", chunk)
        for spec in catalog(2) + [family_spec("D21a", alpha=0.4)]:
            got, got_starts = with_candidates(solve, spec.data, 0.5, 1e-3)
            want = whole_range_solve(spec.data, 0.5, 1e-3)
            assert bits(got) == bits(want), spec.name
            _, full_starts = with_candidates(full_grid_solve, spec.data,
                                             0.5, 1e-3)
            assert got_starts == full_starts, spec.name

    def test_runs_join_ranges_that_overlap_or_abut(self):
        # cells [0, 2], [2, 5], [5, 8] widened: [0, 3] and [4, 8] abut, so
        # points 3 and 4 are neighbours; [0, 3] and [6, 8] are apart
        nodes = np.array([0, 2, 5, 8])
        assert list(einstein._runs(nodes, np.array([0, 2]), 8)) == [(0, 8)]
        assert list(einstein._runs(nodes, np.array([0, 1]), 8)) == [(0, 6)]
        assert list(einstein._runs(np.array([0, 2, 6, 8]), np.array([0, 2]),
                                   8)) == [(0, 3), (5, 8)]

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunked_plateau_owns_each_point_once(self, monkeypatch, chunk):
        # every grid point of the identically-zero residual is a zero and
        # every interior one a minimum, each polished once at any chunk size
        monkeypatch.setattr(einstein, "_CHUNK", chunk)
        sys = dataclasses.replace(sys_for("C", n=3), dim_k=(), l=(), b=(),
                                  gamma=(), gamma0=F(-1, 2), trace_rhs=F(0))
        _, starts = with_candidates(solve, sys, 0.5, 1e-2)
        assert len(starts) == 101 + 99 and len(set(starts)) == 101

    def test_exact_zero_on_grid_is_not_bisected(self, monkeypatch):
        # A(1,0): the trace residual of the one branch is exactly 0.0 at the
        # grid point c = -1/4 of this grid
        sys = sys_for("A", 1, 0)
        c_window, grid_step = 0.5, 1e-2
        c_grid = -c_window + grid_step * np.arange(101)
        k = int(np.flatnonzero(c_grid == -0.25)[0])
        assert einstein._trace_residual(sys, (1,), c_grid[k]) == 0.0
        bisected, refined = [], []
        bisect, refine = einstein._bisect, einstein._refine_tangent

        def spy_bisect(f, a, b, tol):
            bisected.append((a, b))
            return bisect(f, a, b, tol)

        def spy_refine(f, c0):
            refined.append(c0)
            return refine(f, c0)

        monkeypatch.setattr(einstein, "_bisect", spy_bisect)
        monkeypatch.setattr(einstein, "_refine_tangent", spy_refine)
        sols = solve(sys, c_window=c_window, grid_step=grid_step)
        assert len(sols) == 1 and abs(sols[0].c + 0.25) < 1e-9
        assert all(-0.25 not in cell for cell in bisected)
        # one candidate from the zero test, one from the minimum of |g|
        assert refined.count(-0.25) == 2

    def test_plateau_minima_are_candidates(self, monkeypatch):
        # with no simple ideal, x0 = -4c makes the trace residual -2c + 2c,
        # identically 0.0: every grid point is a zero and every interior one
        # a (plateau) minimum of |g|
        sys = dataclasses.replace(sys_for("C", n=3), dim_k=(), l=(), b=(),
                                  gamma=(), gamma0=F(-1, 2), trace_rhs=F(0))
        refined = []
        refine = einstein._refine_tangent
        monkeypatch.setattr(einstein, "_refine_tangent",
                            lambda f, c0: refined.append(c0) or refine(f, c0))
        solve(sys, c_window=0.5, grid_step=1e-2)
        assert len(refined) == 101 + 99


CHUNK_SPECS = list(iter_catalog(6)) + [family_spec("D21a", alpha=a)
                                       for a in (0.4, -3.0)]


@pytest.mark.parametrize("c_window", [einstein.C_WINDOW, 37.5])
@pytest.mark.parametrize("spec", CHUNK_SPECS, ids=lambda s: s.name)
def test_chunked_scan_matches_the_whole_range_scan(spec, c_window):
    assert bits(solve(spec.data, c_window)) == \
        bits(whole_range_solve(spec.data, c_window))


class TestMemoryBounds:
    """Peaks traced by tracemalloc: no (dim, dim) array on the verify path,
    and no array over the whole kept range in the solver."""

    def test_verify_solution_stays_off_dense_arrays(self):
        # A(20,0) has dim 483: one dense (dim, dim) float array is 1.8 MiB,
        # and comparing the routes on them peaked at 12.75 MiB
        spec = family_spec("A", 20, 0)
        real = realize(spec)
        real.curvature_plan, real.ideal_invariants
        sol = solve(spec.data)[0]
        tracemalloc.start()
        try:
            checked = verify_solution(real, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked.ricci_verified == "verified"
        assert peak < 6 * 2**20

    def test_solve_holds_one_chunk(self):
        # B(4,4)'s fine pass evaluates 22,787 points; in one array that
        # peaked at 1.81 MiB
        data = sys_for("B", 4, 4)
        solve(data)  # caches outside the solver are warm
        tracemalloc.start()
        try:
            solve(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
