"""The block-scaled metric family, the Levi-Civita connection (two
independent routes) and the Ricci tensor (two independent routes).

A connection is sparse: its Christoffel symbols are stored at flat keys
``(i * n + j) * n + k``. The Koszul route, the blockwise route and the
direct Ricci tensor are joins over the exact structure constants, the
nonzeros of the metric and the symbols themselves, so none of them
allocates a dense (n, n, n) array. The metric and the closed-form Ricci
tensor are the canonical form B with its rows scaled by one factor per
block (k_0, each simple k_i, the odd part): B is even, supersymmetric and
zero across blocks, and a block-constant row scaling keeps all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    DegeneracyError,
    LieSuperAlgebra,
    _contract,
    _even_supersymmetric_part,
    _group_sum,
    _join,
    _koszul_terms,
)

RICCI_SYM_TOL = 1e-9
ROUTE_TOL = 1e-8


@dataclass(frozen=True)
class MetricParams:
    """Scaling vector (x_0, x_1, ..., x_s) aligned with the decomposition."""

    x: tuple[float, ...]

    def __post_init__(self):
        if any(v == 0.0 for v in self.x):
            raise ValueError("metric parameters must be nonzero")


@dataclass(frozen=True, eq=False)
class Connection:
    """Christoffel symbols: ``values`` holds the coefficient of e_k in
    nabla_(e_i) e_j at the ascending flat keys ``(i * dim + j) * dim + k``;
    symbols not listed are zero."""

    dim: int
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.keys.setflags(write=False)
        self.values.setflags(write=False)


def _check_params(real, params: MetricParams) -> None:
    if len(params.x) != real.data.n_params:
        raise ValueError(
            f"{real.name} takes {real.data.n_params} metric parameters, "
            f"got {len(params.x)}")


def _block_factors(alg: LieSuperAlgebra, factors, odd: float) -> np.ndarray:
    """Per-basis-index vector: ``factors[r]`` on the r-th decomposition
    range, ``odd`` on the odd part."""
    out = np.full(alg.dim, float(odd))
    for rng, f in zip(alg.decomposition, factors):
        out[rng.start:rng.stop] = f
    return out


def metric_from_params(real, params: MetricParams) -> BilinearFormMatrix:
    """The canonical form with each even block scaled by its x_i and the odd
    block fixed; the metric carries no report."""
    _check_params(real, params)
    scale = _block_factors(real.algebra, params.x, 1.0)
    return BilinearFormMatrix(scale[:, None] * real.canonical_form.gram)


def levi_civita_koszul(alg: LieSuperAlgebra,
                       metric: BilinearFormMatrix) -> Connection:
    """Connection from the graded Koszul formula: the right side
    2 g(nabla_(e_i) e_j, e_k), summed sparsely per (i, j, k), contracted
    with the nonzeros of the inverse metric."""
    g = metric.gram
    n = alg.dim
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise DegeneracyError("metric is singular; no Levi-Civita connection")
    keys, rhs = _group_sum(*_koszul_terms(alg, g, third=True))
    rows, cols = np.nonzero(ginv)
    pair, k = np.divmod(keys, n)
    keys, gamma = _contract(k, rows, 0.5 * rhs, ginv[rows, cols], pair, cols, n)
    return Connection(n, keys, gamma)


def levi_civita_blockwise(real, params: MetricParams) -> Connection:
    """Connection assembled from the four-case closed form: 1/2 [X, Y] on
    even-even and odd-odd pairs, (1 - x_i/2) [X, Y] and (x_i/2) [X, Y] on the
    mixed pairs."""
    _check_params(real, params)
    alg = real.algebra
    p = alg.basis.parity_array()
    xv = _block_factors(alg, params.x, 1.0)
    i, j, k = alg.index.T
    coef = np.where(p[i] == p[j], 0.5,
                    np.where(p[i] == 0, 1.0 - xv[i] / 2.0, xv[j] / 2.0))
    n = alg.dim
    return Connection(n, (i * n + j) * n + k, coef * (alg.numer / alg.denom))


def ricci_direct(alg: LieSuperAlgebra, metric: BilinearFormMatrix,
                 conn: Connection) -> BilinearFormMatrix:
    """ric(X, Y) = str(Z -> R(Z, X) Y) from the curvature of the connection.

    With G the symbols and w_m = sum_z (-1)**p_z G_zmz, the three sparse
    terms are sum_m G_xym w_m, -sum_(z, m) (-1)**(p_z + p_z p_x) G_zym G_xmz
    and -sum_(z, m) (-1)**p_z c_zxm G_myz.
    """
    n = alg.dim
    p = alg.basis.parity_array()
    sign = 1 - 2 * p
    ij, gk = np.divmod(conn.keys, n)
    gi, gj = np.divmod(ij, n)
    gv = conn.values
    trace = gi == gk
    w = np.bincount(gj[trace], weights=sign[gi[trace]] * gv[trace], minlength=n)
    # G[z, y, m] G[x, m, z], joined on (m, z)
    a, b = _join(gk * n + gi, gj * n + gk)
    # c[z, x, m] G[m, y, z], joined on (m, z)
    idx = alg.index
    a2, b2 = _join(idx[:, 2] * n + idx[:, 0], gi * n + gk)
    keys, ric = _group_sum(
        np.concatenate([gi * n + gj, gi[b] * n + gj[a], idx[a2, 1] * n + gj[b2]]),
        np.concatenate([
            gv * w[gk],
            -(sign[gi[a]] * (1 - 2 * (p[gi[a]] & p[gi[b]]))) * (gv[a] * gv[b]),
            -sign[idx[a2, 0]] * (alg.numer[a2] / alg.denom * gv[b2])]))
    mat = np.zeros(n * n)
    mat[keys] = ric
    part, even_res, sym_res = _even_supersymmetric_part(alg, mat.reshape(n, n))
    if max(sym_res, even_res) > RICCI_SYM_TOL * metric.scale():
        raise ValueError("Ricci tensor failed the evenness/supersymmetry check")
    return BilinearFormMatrix(part)


def ricci_closed_form(real, params: MetricParams) -> BilinearFormMatrix:
    """Ricci tensor from the paper's block formula: the canonical form B with
    its rows scaled by -x_0^2/4 on the abelian ideal k_0 (where B is the
    Killing form: every family with a k_0 uses it), by
    (l_i x_i^2 - 1)/(4 b_i) on each simple ideal k_i (where B = b_i K_i) and
    by sum_i (x_i/2 - 1) gamma_i, over every ideal with k_0's gamma_0, on
    the odd part. l_i, b_i and gamma_i are the realized invariants, which
    :func:`~supereinstein.families.verify_realization` checks against the
    catalog."""
    _check_params(real, params)
    alg = real.algebra
    factors, odd = [], 0.0
    for rng, xi in zip(alg.decomposition, params.x):
        inv = real.ideal_invariants[rng]
        factors.append(-xi * xi / 4.0 if rng.kind == "abelian"
                       else (inv.l * xi * xi - 1.0) / (4.0 * inv.b))
        odd += (xi / 2.0 - 1.0) * inv.gamma
    scale = _block_factors(alg, factors, odd)
    return BilinearFormMatrix(scale[:, None] * real.canonical_form.gram)
