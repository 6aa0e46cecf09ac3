"""The block-scaled metric family, Levi-Civita connection (two independent
routes), Ricci tensor (two independent routes), and the naturally-reductive
verification on the doubled algebra."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    DegeneracyError,
    LieSuperAlgebra,
    _parity_sign_matrix,
)
from .invariants import ideal_killing_gram

CONNECTION_TOL = 1e-9
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
    """gamma[i, j, k]: coefficient of e_k in nabla_(e_i) e_j."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma.setflags(write=False)


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
    """Scale each even block of the canonical form; the odd block is fixed."""
    _check_params(real, params)
    gram = np.array(real.canonical_form.gram)
    for rng, xi in zip(real.algebra.decomposition, params.x):
        gram[rng.start:rng.stop, rng.start:rng.stop] *= xi
    return BilinearFormMatrix(
        gram,
        even=real.canonical_form.even,
        supersymmetric=real.canonical_form.supersymmetric,
        bi_invariant=None,
        nondegenerate=real.canonical_form.nondegenerate,
    )


def levi_civita_koszul(alg: LieSuperAlgebra,
                       metric: BilinearFormMatrix) -> Connection:
    """Connection from the graded Koszul formula, one linear solve per pair."""
    g = metric.gram
    c = alg.c
    s = _parity_sign_matrix(alg.basis.parity_array())
    t1 = np.einsum("ijm,mk->ijk", c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", c, g, optimize=True)
    t3 = np.einsum("ikm,jm->ijk", c, g, optimize=True)
    rhs = t1 - t2 - s[:, :, None] * t3
    n = alg.dim
    try:
        gamma = 0.5 * np.linalg.solve(g.T, rhs.reshape(-1, n).T).T.reshape(n, n, n)
    except np.linalg.LinAlgError:
        raise DegeneracyError("metric is singular; no Levi-Civita connection")
    return Connection(gamma)


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
    return Connection(coef[:, :, None] * alg.c)


def connection_residuals(alg: LieSuperAlgebra, metric: BilinearFormMatrix,
                         conn: Connection) -> tuple[float, float]:
    """(metric compatibility, torsion) max residuals over basis triples."""
    g = metric.gram
    gamma = conn.gamma
    s = _parity_sign_matrix(alg.basis.parity_array())
    compat = np.einsum("ijm,mk->ijk", gamma, g, optimize=True) \
        + s[:, :, None] * np.einsum("ikm,jm->ijk", gamma, g, optimize=True)
    torsion = gamma - s[:, :, None] * np.swapaxes(gamma, 0, 1) - alg.c
    scale = metric.scale()
    return (float(np.max(np.abs(compat))) / scale,
            float(np.max(np.abs(torsion))))


def ricci_direct(alg: LieSuperAlgebra, metric: BilinearFormMatrix,
                 conn: Connection) -> BilinearFormMatrix:
    """ric(X, Y) = str(Z -> R(Z, X) Y) from the curvature of the connection."""
    gamma = conn.gamma
    c = alg.c
    sign = alg.basis.sign_vector()
    s = _parity_sign_matrix(alg.basis.parity_array())
    g2 = np.einsum("zmz->zm", gamma)
    t1 = np.einsum("xym,zm->zxy", gamma, g2, optimize=True)
    t2 = np.einsum("zym,xmz->zxy", gamma, gamma, optimize=True)
    t3 = np.einsum("zxm,myz->zxy", c, gamma, optimize=True)
    ric = np.einsum("z,zxy->xy", sign, t1 - s[:, :, None] * t2 - t3,
                    optimize=True)
    return _symmetrized_even_form(alg, ric, metric.scale())


def _symmetrized_even_form(alg: LieSuperAlgebra, mat: np.ndarray,
                           scale: float) -> BilinearFormMatrix:
    p = alg.basis.parity_array()
    s = _parity_sign_matrix(p)
    mask = p[:, None] != p[None, :]
    sym_res = float(np.max(np.abs(mat - s * mat.T)))
    even_res = float(np.max(np.abs(mat[mask]))) if mask.any() else 0.0
    if max(sym_res, even_res) > RICCI_SYM_TOL * scale:
        raise ValueError("Ricci tensor failed the evenness/supersymmetry check")
    out = 0.5 * (mat + s * mat.T)
    out[mask] = 0.0
    return BilinearFormMatrix(out, even=True, supersymmetric=True)


@lru_cache(maxsize=64)
def _closed_form_pieces(real):
    alg = real.algebra
    blocks = []
    for rng in alg.decomposition:
        if rng.kind == "simple":
            li = real.representation_indices[rng]
            ki = ideal_killing_gram(alg, rng)
        else:
            li, ki = None, None
        blocks.append((rng, li, ki, real.casimirs[rng].operator.matrix))
    return blocks


def ricci_closed_form(real, params: MetricParams) -> BilinearFormMatrix:
    """Ricci tensor from the four-block closed form: -x_0^2/4 K on the
    abelian block, 1/4 (l_i x_i^2 - 1) K_i on each simple ideal, the
    Casimir-weighted sum on the odd block, zero elsewhere."""
    _check_params(real, params)
    alg = real.algebra
    blocks = _closed_form_pieces(real)
    n = alg.dim
    ric = np.zeros((n, n))
    odd = list(alg.odd_range())
    b_odd = real.canonical_form.gram[np.ix_(odd, odd)]
    odd_sum = np.zeros((alg.dim_odd, alg.dim_odd))
    for (rng, li, ki, cas), xi in zip(blocks, params.x):
        sl = slice(rng.start, rng.stop)
        if rng.kind == "abelian":
            ric[sl, sl] = -(xi * xi / 4.0) * real.killing.gram[sl, sl]
        else:
            ric[sl, sl] = 0.25 * (li * xi * xi - 1.0) * ki
        odd_sum += (xi / 2.0 - 1.0) * (b_odd @ cas)
    ric[np.ix_(odd, odd)] = odd_sum
    return _symmetrized_even_form(alg, ric, real.canonical_form.scale())


def verify_naturally_reductive(real, params: MetricParams,
                               t_offset: float = 0.0) -> float:
    """Residual of natural reductivity on the doubled algebra.

    Builds the direct sum of the algebra with its even part, the complement
    spanned by (t_i X, (t_i - 1) X) over each even block plus (X, 0) over the
    odd part, and the induced metric; returns the max residual of
    <[U,V]_m, W>' = <U, [V,W]_m>' over all basis triples of the complement.
    At t = x the metric is naturally reductive; a nonzero ``t_offset`` is the
    diagnostic mode.
    """
    _check_params(real, params)
    alg = real.algebra
    n, e = alg.dim, alg.dim_even
    big = n + e
    c_sum = np.zeros((big, big, big))
    c_sum[:n, :n, :n] = alg.c
    c_sum[n:, n:, n:] = alg.c[:e, :e, :e]
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
    gram = metric_from_params(real, params).gram
    lhs = np.einsum("abg,gd->abd", proj, gram, optimize=True)
    rhs = np.einsum("bdg,ag->abd", proj, gram, optimize=True)
    return float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(gram)))
