"""The algebraic Einstein system for the block-scaled metric family, read
from the family's catalog data: solved over the reals, exact elimination for
the two-ideal families (whose real roots one exact bisection isolates and
rounds), folding to real forms, and brute-force verification against the
curvature module."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import supercore
from .curvature import MetricParams, metric_from_params, ricci_routes
from .families import FamilyData, FamilySpec, Realization

SOLUTION_TOL = 1e-10
DEDUPE_TOL = 1e-8
BISECT_TOL = 1e-13
GRID_STEP = 1e-4
C_WINDOW = 10.0
FOLD_TOL = 1e-9
RICCI_TOL = 1e-8
# |g| threshold below which a local minimum is polished as a possible
# tangent (double) root that produces no sign change.
TANGENT_PROBE = 1e-2


@dataclass(frozen=True)
class EinsteinSolution:
    """One Einstein metric: scaling vector, constant, and verification."""

    x: tuple[float, ...]
    c: float
    residual: float
    ricci_verified: str = "not_applicable"  # verified | not_applicable | failed
    provenance: str = "solver"  # solver | printed_catalog
    detail: Optional[str] = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {"x": [float(v) for v in self.x], "c": float(self.c),
                "residual": float(self.residual),
                "ricci_verified": self.ricci_verified,
                "provenance": self.provenance}


def system_residual(data: FamilyData, x, c: float) -> float:
    """Max absolute residual over all equations of the family's system (see
    :class:`FamilyData`)."""
    x = tuple(float(v) for v in x)
    if len(x) != data.n_params:
        raise ValueError("parameter vector length mismatch")
    res = []
    xs = x
    if data.has_k0:
        res.append(abs(c + x[0] / 4.0))
        xs = x[1:]
    for xi, l, b in zip(xs, data.l, data.b):
        res.append(abs(0.25 * (float(l) * xi * xi - 1.0) - c * float(b) * xi))
    trace = sum(float(g) * xi for g, xi in zip(data.gamma, xs))
    if data.has_k0:
        trace += float(data.gamma0) * x[0]
    res.append(abs(trace - 2.0 * c - float(data.trace_rhs)))
    return max(res)


# ---------------------------------------------------------------------------
# Solver: branch enumeration + pruned grid scan + bisection
# ---------------------------------------------------------------------------

# Grid steps per coarse cell of the enclosure pass in :func:`solve`.
_BLOCK = 64
# Grid points one chunk of the fine pass of :func:`solve` owns at most.
_CHUNK = _BLOCK * _BLOCK


def _branch_roots(data: FamilyData, i: int, c) -> dict:
    """The two roots x_i(c) of l_i x^2 - 4 c b_i x - 1 = 0 for simple ideal
    i, keyed by sign, from one square root (l_i > 0, so the discriminant is
    positive); vectorized in c."""
    l, b = float(data.l[i]), float(data.b[i])
    lead = 2.0 * c * b
    root = np.sqrt(4.0 * c * c * b * b + l)
    return {1: (lead + root) / l, -1: (lead - root) / l}


def _branch_vector(data: FamilyData, signs, c: float) -> tuple:
    """The scaling vector on one sign branch at c: x_0 = -4c, and x_i the
    root of :func:`_branch_roots` with that sign."""
    head = [-4.0 * c] if data.has_k0 else []
    return tuple(head + [float(_branch_roots(data, i, c)[sgn])
                         for i, sgn in enumerate(signs)])


def _ideal_term(data: FamilyData, i: int, c) -> dict:
    """gamma_i x_i(c) of simple ideal i on both sign branches, keyed by the
    sign; vectorized in c."""
    gamma = float(data.gamma[i])
    return {sgn: gamma * x for sgn, x in _branch_roots(data, i, c).items()}


def _trace_residual(data: FamilyData, signs, c):
    """Residual of the trace equation along one branch, vectorized in c;
    with ``signs`` empty, its part linear in c."""
    total = -2.0 * c - float(data.trace_rhs)
    if data.has_k0:
        total = total + float(data.gamma0) * (-4.0 * c)
    for i, sgn in enumerate(signs):
        total = total + _ideal_term(data, i, c)[sgn]
    return total


def _bisect(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _refine_tangent(f, c0: float) -> float:
    """Newton steps on f' (finite differences) toward a stationary point.

    A tangent (double) root has f = f' = 0, so |f| minimization alone only
    localizes it to the noise basin; the stationary-point iteration recovers
    it to near machine precision.
    """
    c = c0
    h = 1e-5  # fixed: shrinking the stencil would sink d2 into float noise
    for _ in range(6):
        fm, f0, fp = f(c - h), f(c), f(c + h)
        d2 = fp - 2.0 * f0 + fm
        if d2 == 0.0:
            break
        step = (fp - fm) * h / (2.0 * d2)
        if abs(step) > 10.0 * h:
            break  # not a tangency; leave the candidate to the residual gate
        c -= step
        if abs(step) < 1e-13:
            break
    return c


def _runs(nodes, kept, n_grid: int):
    """The grid indices of the kept coarse cells, each widened by one grid
    point on both sides, as maximal runs of consecutive indices: ascending
    inclusive (first, last) pairs. Ranges that overlap or abut join one
    run, so two grid points are neighbours in a run exactly when their
    indices are."""
    starts = np.maximum(nodes[kept] - 1, 0)
    stops = np.minimum(nodes[kept + 1] + 1, n_grid)
    fresh = np.append(True, starts[1:] > stops[:-1] + 1)
    return zip(starts[fresh].tolist(),
               stops[np.append(fresh[1:], True)].tolist())


def solve(data: FamilyData, c_window: float = C_WINDOW,
          grid_step: float = GRID_STEP) -> list[EinsteinSolution]:
    """All real solutions with every x_i nonzero of the family's Einstein
    system for its canonical form: ``c = -x0/4`` on the abelian block,
    ``(l_i x_i^2 - 1)/4 = c b_i x_i`` on each simple ideal and
    ``gamma_0 x_0 + sum_i gamma_i x_i = 2 c + trace_rhs``.

    Strategy: enumerate the 2^s sign branches of the per-ideal quadratic in
    x_i(c) (with x_0 = -4c substituted when the abelian block is present)
    and scan c over the window on a uniform grid for the roots of the
    trace-equation residual g. Since every l_i > 0, each root x_i(c) is
    monotone in c, so on a cell [c_a, c_b] g lies between the sums of each
    term's smaller and larger end value. A coarse pass evaluates every
    ideal's terms at every ``_BLOCK``-th grid point, once for all branches,
    and drops each coarse cell whose enclosure lies outside
    ``[-2 TANGENT_PROBE, 2 TANGENT_PROBE]``: it can hold no zero, sign
    change or small minimum of |g|. The kept cells, widened by one grid
    point, form runs of consecutive grid points, and the fine pass scans
    each run in chunks: a chunk owns at most ``_CHUNK`` points and also
    evaluates the one neighbour on each side of them inside the run. From
    the points it owns it bisects the sign changes to the next point down,
    keeps the exact zeros and polishes the local minima of |g| below
    ``TANGENT_PROBE`` as candidate tangent roots. Every evaluated c and g is
    bit-identical to a scan of the whole grid, and every grid point is
    owned by one chunk, so the solutions are too; the fine pass holds one
    chunk at a time, so its memory does not grow with the window.
    Candidates survive only if the full system residual is below
    ``SOLUTION_TOL``, then are deduplicated and returned in ascending order
    of ``(c, x)``.

    Raises ValueError, before allocating, when the coarse nodes exceed
    ``supercore.MAX_JOIN_PAIRS``.
    """
    n_grid = int(round(2.0 * c_window / grid_step))
    n_nodes = n_grid // _BLOCK + 2
    bound = supercore.MAX_JOIN_PAIRS  # read now, so a lowered bound holds
    if n_nodes > bound:
        raise ValueError(f"the c-grid scan needs {n_nodes:,} coarse nodes, "
                         f"over the {bound:,}-element memory limit; "
                         f"use a smaller c window")
    # n_grid = 0 leaves the one coarse cell [0, 0]
    nodes = np.append(np.arange(0, max(n_grid, 1), _BLOCK), n_grid)
    c_nodes = -c_window + grid_step * nodes
    linear = _trace_residual(data, (), c_nodes)
    lin_lo = np.minimum(linear[:-1], linear[1:])
    lin_hi = np.maximum(linear[:-1], linear[1:])
    term_lo, term_hi = [], []
    for i in range(data.s):
        term = _ideal_term(data, i, c_nodes)
        term_lo.append({s: np.minimum(t[:-1], t[1:]) for s, t in term.items()})
        term_hi.append({s: np.maximum(t[:-1], t[1:]) for s, t in term.items()})
    found: list[tuple[tuple, float]] = []
    for branch_id in range(2 ** data.s):
        signs = tuple(1 if (branch_id >> i) & 1 == 0 else -1
                      for i in range(data.s))
        lo, hi = lin_lo, lin_hi
        for i, sgn in enumerate(signs):
            lo = lo + term_lo[i][sgn]
            hi = hi + term_hi[i][sgn]
        kept = np.flatnonzero((lo <= 2.0 * TANGENT_PROBE)
                              & (hi >= -2.0 * TANGENT_PROBE))
        if kept.size == 0:
            continue
        scalar = lambda c: float(_trace_residual(data, signs, c))  # noqa: E731
        candidates: list[float] = []

        def add_sharpened(c0: float) -> None:
            # A root where the residual is tangent to zero is only located
            # to the width of the float-noise basin; pulling it to the
            # nearby stationary point recovers full precision. Simple roots
            # leave the iteration immediately and are kept as found.
            refined = _refine_tangent(scalar, c0)
            candidates.append(refined if abs(refined - c0) <= 1e-7 else c0)

        for first, last in _runs(nodes, kept, n_grid):
            for own in range(first, last + 1, _CHUNK):
                # the owned points own..end - 1 and a neighbour on each side
                end = min(own + _CHUNK, last + 1)
                start = max(own - 1, first)
                c_pts = -c_window + grid_step * np.arange(start,
                                                          min(end, last) + 1)
                g = _trace_residual(data, signs, c_pts)
                owned = slice(own - start, end - start)
                # An exact zero at a point, else a sign change over the cell
                # to its neighbour (a zero makes the product 0, so never
                # both).
                hit = g == 0.0
                hit[:-1] |= g[:-1] * g[1:] < 0.0
                for p in np.flatnonzero(hit[owned]) + owned.start:
                    if g[p] == 0.0:
                        add_sharpened(float(c_pts[p]))
                    else:
                        add_sharpened(_bisect(scalar, float(c_pts[p]),
                                              float(c_pts[p + 1]), BISECT_TOL))
                absg = np.abs(g)
                mid = absg[1:-1]  # minima need both neighbours; plateaus count
                minima = np.zeros(len(g), dtype=bool)
                minima[1:-1] = ((mid < TANGENT_PROBE) & (mid <= absg[:-2])
                                & (mid <= absg[2:]))
                for p in np.flatnonzero(minima[owned]) + owned.start:
                    candidates.append(_refine_tangent(scalar, float(c_pts[p])))
        for c in candidates:
            c = c + 0.0  # normalize -0.0
            vec = _branch_vector(data, signs, c)
            if min(abs(v) for v in vec) < 1e-9:
                continue  # degenerate metric: outside the family
            res = system_residual(data, vec, c)
            if res < SOLUTION_TOL:
                found.append((vec, c, res))
    solutions: list[EinsteinSolution] = []
    for vec, c, res in sorted(found, key=lambda t: (t[1], t[0])):
        dup = any(
            max(abs(c - s.c), max(abs(a - bb) for a, bb in zip(vec, s.x))) < DEDUPE_TOL
            for s in solutions)
        if not dup:
            solutions.append(EinsteinSolution(vec, c, res))
    return solutions


# ---------------------------------------------------------------------------
# Exact elimination for the two-ideal canonical-form systems
# ---------------------------------------------------------------------------


def elimination_polynomial(spec: FamilySpec) -> list[Fraction]:
    """Exact quartic in x_1 for a family with a two-ideal Killing-form
    system, by eliminating c (from the first quadratic) and x_2 (from the
    trace equation) into the second quadratic.

    Returns descending coefficients, normalized so the leading coefficient
    equals the reference value when one is known (see
    :func:`cubic_reference_coefficients`); x_1 = 1 is always a root.
    """
    data = spec.data
    if data.form_kind != "killing" or data.has_k0 or data.s != 2:
        raise ValueError("elimination needs the two-ideal canonical-form shape")
    l1, l2 = data.l
    b1, b2 = data.b
    g1, g2 = data.gamma
    rhs = data.trace_rhs
    # c(X) = (l1 X^2 - 1) / (4 b1 X); x_other = (2 c + rhs - g1 X) / g2.
    # Substituting into (l2 x^2 - 1)/4 = c b2 x and clearing denominators
    # leaves the quartic below (a factor 4 b1 X cancels).
    p = [2 * l1 - 4 * b1 * g1, 4 * b1 * rhs, Fraction(-2)]  # numerator of g2*x_other*4*b1*X
    num_c = [l1, Fraction(0), Fraction(-1)]
    p_sq = _poly_mul(p, p)
    term1 = [l2 * v for v in p_sq]
    term2 = [Fraction(0)] * 2 + [16 * b1 * b1 * g2 * g2, Fraction(0), Fraction(0)]
    term3 = [4 * b2 * g2 * v for v in _poly_mul(num_c, p)]
    quartic = [a - bb - cc for a, bb, cc in zip(term1, term2, term3)]
    ref = cubic_reference_coefficients(spec)
    if ref is not None:
        # the quartic's leading coefficients can vanish (the cubic factor
        # degenerates), so scale at the first jointly nonzero position
        cubic = cubic_factor(quartic)
        for r, cc in zip(ref, cubic):
            if r != 0 and cc != 0:
                quartic = [r / cc * v for v in quartic]
                break
    return quartic


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def cubic_factor(quartic: list[Fraction]) -> list[Fraction]:
    """Divide out the root at 1; the remainder must vanish exactly."""
    cubic, rem = _pseudo_divmod(quartic, [1, -1])
    if rem != [0]:
        raise ValueError("1 is not a root of the quartic")
    return cubic


def cubic_reference_coefficients(spec: FamilySpec) -> Optional[tuple[Fraction, ...]]:
    """Known closed-form (A, B, C, D) for the cubic factor of the two-ideal
    quartic of B(m, n) with m >= 1 (so(2m+1) + sp(2n)) and D(m, n)
    (so(2m) + sp(2n)); None for every other family. Note A + B + C + D is
    nonzero in general (it equals (2n+1)(2m-2n+1) resp. 2(m-n)(2n+1) up to
    the normalization)."""
    if spec.kind not in ("B", "D") or spec.m == 0:
        return None
    m, n = Fraction(spec.m), Fraction(spec.n)
    if spec.kind == "B":
        return (
            2 * (2 * m**3 + (-4 * n + 1) * m**2 + n * (4 * n - 1) * m - 2 * n**3),
            -2 * (6 * m**3 - (12 * n + 1) * m**2 + (8 * n**2 - n - 2) * m
                  - 2 * n**3 + n),
            (2 * m - 1) * (6 * m**2 - (10 * n + 1) * m + 4 * n**2 - n - 1),
            (2 * m - 1) ** 2 * (n - m),
        )
    return (
        4 * m**3 - 4 * (2 * n + 1) * m**2 + (8 * n**2 + 6 * n + 1) * m
        - n * (2 * n + 1) ** 2,
        -12 * m**3 + 4 * (6 * n + 5) * m**2 - (16 * n**2 + 22 * n + 7) * m
        + n * (4 * n**2 + 8 * n + 3),
        2 * (m - 1) * (6 * m**2 - m * (10 * n + 7) + (2 * n + 1) ** 2),
        2 * (m - 1) ** 2 * (2 * n - 2 * m + 1),
    )


def _poly_derivative(p: list) -> list:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _pseudo_divmod(a: list, b: list[int]):
    """The q and r with |b_0|^k a = q b + r, k = deg a - deg b + 1 and deg r
    < deg b, for integer or rational a: the quotient and remainder over Q
    times a positive integer, so both keep their signs (exact division when
    |b_0| = 1)."""
    lead, sign = abs(b[0]), (b[0] > 0) - (b[0] < 0)
    q, r = [], list(a)
    for i in range(len(a) - len(b) + 1):
        c = sign * r[i]
        q = [lead * v for v in q] + [c]
        r = [lead * v for v in r]
        for j, v in enumerate(b):
            r[i + j] -= c * v
    return q, _poly_strip(r[len(a) - len(b) + 1:])


def _poly_strip(p: list) -> list:
    k = 0
    while k < len(p) - 1 and p[k] == 0:
        k += 1
    return p[k:]


def square_free_part(coeffs: list[Fraction]) -> list[int]:
    """Exact square-free reduction p / gcd(p, p'), scaled by a positive
    rational to coprime integer coefficients (a constant is returned as it
    is): every root of p becomes simple, which Sturm's theorem in
    :func:`real_roots` needs. The gcd is the last member of p's remainder
    sequence, and it divides p exactly."""
    p = _poly_strip(list(coeffs))
    if len(p) <= 1:
        return p
    p = _primitive(p)
    g = _remainder_sequence(p)[-1]
    return p if len(g) == 1 else _primitive(_pseudo_divmod(p, g)[0])


# Every real number in (-_EDGE, _EDGE] rounds to a finite float.
_EDGE = int(sys.float_info.max) + 1


def real_roots(coeffs: list[Fraction]) -> list[float]:
    """The distinct real roots of a rational polynomial, ascending, each
    rounded to the nearest float.

    One exact bisection isolates and refines them (Collins & Akritas,
    SYMSAC 1976): the Sturm chain of the square-free part p counts the
    distinct roots in (a, b] as V(a) - V(b), V the sign changes along the
    chain (Sturm's theorem), and Cauchy's bound puts every root inside
    (-2^e, 2^e). Bisecting that interval at dyadic points a / 2^k, where
    every sign is an integer Horner sum, leaves intervals (a, b] that hold
    one root each; :func:`_rounded_root` halves each further on the sign
    of p alone. A root outside (-_EDGE, _EDGE] is refused."""
    sf = square_free_part(coeffs)
    if len(sf) <= 1:
        return []
    chain = _remainder_sequence(sf)
    p = chain[0]
    # Cauchy: every root has |x| < 1 + max|p_i| / |p_0| <= bound <= 2^e
    lead = abs(p[0])
    bound = -(-(lead + max(map(abs, p[1:]))) // lead)
    e = (bound - 1).bit_length()
    out = []
    # intervals (lo / 2^k, hi / 2^k] with their sign changes, left first
    todo = [(-1 << e, 1 << e, 0, _variations(chain, -1 << e, 1),
             _variations(chain, 1 << e, 1))]
    if _variations(chain, -_EDGE, 1) - _variations(chain, _EDGE, 1) \
            != todo[0][3] - todo[0][4]:
        raise ValueError(f"a real root lies outside the float range "
                         f"[-{sys.float_info.max!r}, {sys.float_info.max!r}]")
    while todo:
        lo, hi, k, v_lo, v_hi = todo.pop()
        if v_lo - v_hi > 1:
            mid, k = lo + hi, k + 1
            v_mid = _variations(chain, mid, 1 << k)
            todo += [(mid, 2 * hi, k, v_mid, v_hi),
                     (2 * lo, mid, k, v_lo, v_mid)]
        elif v_lo - v_hi == 1:
            out.append(_rounded_root(p, lo, hi, k))
    return out


def _remainder_sequence(p: list[int]) -> list[list[int]]:
    """p, p', then the negated remainders -rem(p_(i-1), p_i) until one is
    zero, for p with coprime integer coefficients and degree >= 1; each
    member after p is scaled by a positive rational to coprime integer
    coefficients, which keeps every sign. The last member is gcd(p, p') up
    to a constant; for a square-free p it is a nonzero constant, and the
    sequence is p's Sturm chain."""
    seq = [p, _primitive(_poly_derivative(p))]
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if r == [0]:
            break
        seq.append(_primitive([-v for v in r]))
    return seq


def _primitive(p: list) -> list[int]:
    """A rational polynomial scaled by a positive rational to coprime
    integer coefficients."""
    den = math.lcm(*(v.denominator for v in p))
    ints = [v.numerator * (den // v.denominator) for v in p]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _sign_at(p: list[int], num: int, den: int) -> int:
    """The sign of p(num / den) for den > 0, from the integer
    den^deg p(num / den) by Horner's rule."""
    acc, power = 0, 1
    for c in p:
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], num: int, den: int) -> int:
    """Sign changes along the chain at num / den, zeros skipped."""
    signs = [s for s in (_sign_at(q, num, den) for q in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _rounded_root(p: list[int], lo: int, hi: int, k: int) -> float:
    """The float nearest the one root of p in (lo / 2^k, hi / 2^k], by
    halving the interval on the sign of p until its ends round to one float
    a = b or to two adjacent floats a < b. Rounding is monotone, so the sign
    at (a + b) / 2 picks one; a tie goes to float((a + b) / 2), the even one.
    A root on a bisection point comes back as it is (so 0 comes back as
    0.0), and every quotient of integers rounds correctly. The interval is
    first cut to (-_EDGE, _EDGE], where :func:`real_roots` found the roots."""
    lo, hi = max(lo, -_EDGE << k), min(hi, _EDGE << k)
    right = _sign_at(p, hi, 1 << k)  # the sign of p right of the root
    if right == 0:
        return hi / (1 << k)
    a, b = lo / (1 << k), hi / (1 << k)
    while math.nextafter(a, b) != b:
        mid, k = lo + hi, k + 1
        s = _sign_at(p, mid, 1 << k)
        if s == 0:
            return mid / (1 << k)
        if s == right:
            lo, hi, b = 2 * lo, mid, mid / (1 << k)
        else:
            lo, hi, a = mid, 2 * hi, mid / (1 << k)
    mid = (Fraction(a) + Fraction(b)) / 2
    s = right * _sign_at(p, mid.numerator, mid.denominator)
    # a 0 is a root on mid: ours unless mid is the open end lo / 2^k
    return a if s > 0 else b if s < 0 or mid == Fraction(lo, 1 << k) \
        else float(mid)


# ---------------------------------------------------------------------------
# Real-form folding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    """Outcome of folding a solution onto a real form."""

    liftable: bool
    max_pair_gap: float


def lift_real_form(sol: EinsteinSolution,
                   folding: tuple[tuple[int, int], ...]) -> LiftResult:
    """Whether a solution folds onto a real form that merges the paired
    coordinates (0-based positions into sol.x): it does exactly when each
    pair carries equal values, up to ``FOLD_TOL``."""
    used: set[int] = set()
    for i, j in folding:
        if i == j or not (0 <= i < len(sol.x)) or not (0 <= j < len(sol.x)):
            raise ValueError(f"invalid folding pair ({i}, {j})")
        if i in used or j in used:
            raise ValueError("folding pairs must be disjoint")
        used.update((i, j))
    gap = max((abs(sol.x[i] - sol.x[j]) for i, j in folding), default=0.0)
    return LiftResult(gap <= FOLD_TOL, gap)


# ---------------------------------------------------------------------------
# Brute-force verification
# ---------------------------------------------------------------------------


def verify_solution(real: Realization,
                    sol: EinsteinSolution) -> EinsteinSolution:
    """Check ric = c * metric by both Ricci routes, the direct one through
    the realization's curvature plan, to ``RICCI_TOL`` times the metric's
    largest |entry|, read at the call; stamp the outcome. Both tensors and
    c times the metric are compared on the plan's Ricci slots, every entry
    off them being zero in all three; a failure names the blocks of the
    first slot where the deviation is largest."""
    params = MetricParams(sol.x)
    metric = metric_from_params(real, params)
    plan = real.curvature_plan
    target = sol.c * plan.at_slots(metric)
    bound = RICCI_TOL * metric.scale()
    detail = None
    _, direct, closed_form = ricci_routes(real, params)
    for route, ric in (("direct", direct), ("closed_form", closed_form)):
        dev = np.abs(plan.at_slots(ric) - target)
        worst = float(np.max(dev, initial=0.0))
        if detail is None and not worst < bound:
            i, j = divmod(int(plan.slots[np.argmax(dev)]), real.algebra.dim)
            detail = (f"{route} route deviates {worst:.3g} at "
                      f"{_block_of(real, i)} x {_block_of(real, j)}")
    return replace(sol, detail=detail,
                   ricci_verified="verified" if detail is None else "failed")


def _block_of(real: Realization, idx: int) -> str:
    r = int(real.algebra.block_layout()[idx])
    if r == len(real.algebra.decomposition):
        return "odd"
    return f"k{r if real.data.has_k0 else r + 1}"
