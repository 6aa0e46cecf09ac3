"""The block-scaled metric family, the Levi-Civita connection (two
independent routes) and the Ricci tensor (two independent routes).

A connection is sparse: its Christoffel symbols are stored at flat keys
``(i * n + j) * n + k``. The Koszul route, the blockwise route and the
direct Ricci tensor are joins over the exact structure constants, the
nonzeros of the metric and the symbols themselves, so none of them
allocates a dense (n, n, n) array.
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


def _block_param_vector(real, params: MetricParams) -> np.ndarray:
    """Per-even-basis-index metric parameter (undefined on odd indices)."""
    alg = real.algebra
    out = np.ones(alg.dim)
    for rng, xi in zip(alg.decomposition, params.x):
        out[rng.start:rng.stop] = xi
    return out


def metric_from_params(real, params: MetricParams) -> BilinearFormMatrix:
    """Scale each even block of the canonical form (odd block fixed); the
    metric carries no report."""
    _check_params(real, params)
    gram = np.array(real.canonical_form.gram)
    for rng, xi in zip(real.algebra.decomposition, params.x):
        gram[rng.start:rng.stop, rng.start:rng.stop] *= xi
    return BilinearFormMatrix(gram)


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
    p = alg.basis.parity_array().astype(bool)
    xv = _block_param_vector(real, params)
    n = alg.dim
    coef = np.full((n, n), 0.5)
    even, odd = ~p, p
    coef[np.ix_(even, odd)] = (1.0 - xv[even] / 2.0)[:, None]
    coef[np.ix_(odd, even)] = (xv[even] / 2.0)[None, :]
    i, j, k = alg.index.T
    return Connection(n, (i * n + j) * n + k,
                      coef[i, j] * (alg.numer / alg.denom))


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
    return _symmetrized_even_form(alg, mat.reshape(n, n), metric.scale())


def _symmetrized_even_form(alg: LieSuperAlgebra, mat: np.ndarray,
                           scale: float) -> BilinearFormMatrix:
    part, even_res, sym_res = _even_supersymmetric_part(alg, mat)
    if max(sym_res, even_res) > RICCI_SYM_TOL * scale:
        raise ValueError("Ricci tensor failed the evenness/supersymmetry check")
    return BilinearFormMatrix(part)


def ricci_closed_form(real, params: MetricParams) -> BilinearFormMatrix:
    """Ricci tensor from the four-block closed form: -x_0^2/4 K on the
    abelian block, 1/4 (l_i x_i^2 - 1) K_i on each simple ideal, the
    Casimir-weighted sum on the odd block, zero elsewhere."""
    _check_params(real, params)
    alg = real.algebra
    n = alg.dim
    ric = np.zeros((n, n))
    odd = list(alg.odd_range())
    b_odd = real.canonical_form.gram[np.ix_(odd, odd)]
    odd_sum = np.zeros((alg.dim_odd, alg.dim_odd))
    for rng, xi in zip(alg.decomposition, params.x):
        inv = real.ideal_invariants[rng]
        sl = slice(rng.start, rng.stop)
        if rng.kind == "abelian":
            ric[sl, sl] = -(xi * xi / 4.0) * real.killing.gram[sl, sl]
        else:
            ric[sl, sl] = 0.25 * (inv.l * xi * xi - 1.0) * inv.killing_gram
        odd_sum += (xi / 2.0 - 1.0) * (b_odd @ inv.casimir.operator)
    ric[np.ix_(odd, odd)] = odd_sum
    return _symmetrized_even_form(alg, ric, real.canonical_form.scale())
