"""The block-scaled metric family, the Levi-Civita connection (two
independent routes) and the Ricci tensor (two independent routes).

Every metric of a family is g = D B: the canonical form B with its rows
scaled by a diagonal D that is constant on each block, one factor per block
(x_0 on k_0, x_i on each simple k_i, 1 on the odd part; see
:meth:`~supereinstein.supercore.LieSuperAlgebra.block_layout`). So every
metric has B's nonzero pattern, its inverse B^-1 D^-1 has B^-1's, and the
right side of the Koszul formula is linear in the block factors f: each of
its terms reads one row of g. :func:`plan_curvature` works out once per
canonical form, the symbolic half of sparse products (Gustavson, ACM TOMS
4(3), 1978), the one linear map that gives every metric's Christoffel
symbols: the Koszul terms summed per (i, j, k) and block, contracted with
the nonzeros of B^-1, exact and sparse, a (symbols, blocks) matrix. It
also plans the three joins of the direct Ricci tensor over the connection
keys, with the constant factors folded in. :func:`levi_civita_koszul` is
then one product with f and one division by D's factor on the index k;
:func:`ricci_direct` is gathers and bincounts: no join, sort or inverse. An
exact form that is not a family's canonical form is its own one-shot plan,
evaluated at unit factors.

A connection is sparse: its Christoffel symbols are stored at flat keys
``(i * n + j) * n + k``, and no route allocates a dense (n, n, n) array.
The metric and the closed-form Ricci tensor are the canonical form B with
its rows scaled by one factor per block: B is even, supersymmetric and zero
across blocks, and a block-constant row scaling keeps all three, so both
are stored on B's nonzeros. The direct Ricci tensor lives on the plan's
Ricci slots: the entries its terms reach and B's nonzeros, closed under
transposition, each with its mirror slot and its parity class. Its even
supersymmetric part is slot arithmetic, and every comparison of the two
routes with each other or with c g reads the slots
(:meth:`CurvaturePlan.at_slots`), so no (n, n) array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    LieSuperAlgebra,
    _distinct,
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


@dataclass(frozen=True, eq=False)
class CurvaturePlan:
    """The structure of the Koszul connection and of the direct Ricci tensor
    of every metric D B of one form B, D constant on each block of
    :meth:`~supereinstein.supercore.LieSuperAlgebra.block_layout`, made by
    :func:`plan_curvature`. Positions are int32.

    Koszul: with f the block factors of D, the symbols are
    ``koszul @ f`` (1/2 B^-1 folded in), symbol s divided by f on the block
    of ``key_k[s]``.

    Ricci, from the symbols G at ``keys``: w = the sum of
    ``trace_sign * G[trace_at]`` per ``trace_j``; then G w[key_k],
    ``pair_sign * G[pair_a] G[pair_b]`` and
    ``bracket_values * G[bracket_from]``, in this order, are summed per
    slot ``ric_at``. The slots are the ascending flat (x, y) keys the terms
    reach and B's, closed under transposition: slot s holds entry
    ``slots[s]``, its transpose is slot ``mirror[s]`` and ``slot_parity[s]``
    is p_x + p_y."""

    algebra: LieSuperAlgebra
    keys: np.ndarray  # ascending flat (i, j, k) keys of the symbols, int64
    key_k: np.ndarray
    bracket_at: np.ndarray  # where the structure constants' keys sit in keys
    row_max: np.ndarray  # max |B[i, :]|, so D B has scale max |d_i| row_max[i]
    koszul: np.ndarray  # (symbols, blocks)
    trace_at: np.ndarray
    trace_j: np.ndarray
    trace_sign: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_sign: np.ndarray
    bracket_from: np.ndarray
    bracket_values: np.ndarray
    ric_at: np.ndarray  # the slot of each Ricci term
    slots: np.ndarray  # ascending flat (x, y) keys, int64
    mirror: np.ndarray
    slot_parity: np.ndarray  # 0 even-even, 1 mixed, 2 odd-odd

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def at_slots(self, form: BilinearFormMatrix) -> np.ndarray:
        """The values of ``form``, whose entries must lie on the slots (a
        metric, either Ricci tensor), at every slot: zero where it has
        none."""
        if form.keys is self.slots:
            return form.values
        out = np.zeros(len(self.slots))
        out[_positions(self.slots, form.keys)] = form.values
        return out


def _positions(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where the ascending keys ``wanted`` sit among a plan's ``keys``, its
    symbols' or its slots'."""
    at = np.searchsorted(keys, wanted)
    if np.any(at == len(keys)) or np.any(keys[at] != wanted):
        raise ValueError("entries outside the plan's pattern")
    return at.astype(np.int32)


def _slot_layout(keys: np.ndarray, parity: np.ndarray, n: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The slots of the flat (x, y) ``keys`` of an (n, n) form: their
    distinct values and transposes, ascending; the slot of each key; the
    slot of each slot's transpose; and each slot's parity class p_x + p_y.
    Two :func:`~supereinstein.supercore._distinct` groupings place every
    key, and every distinct key and its transpose, among the slots."""
    keys, at = _distinct(keys)
    row, col = np.divmod(keys, n)
    slots, place = _distinct(np.concatenate([keys, col * n + row]))
    key_slot, transpose_slot = np.split(place.astype(np.int32), 2)
    mirror = np.empty(len(slots), dtype=np.int32)
    mirror[key_slot] = transpose_slot  # every slot is a key or a transpose
    mirror[transpose_slot] = key_slot
    row, col = np.divmod(slots, n)
    return (slots, key_slot[at], mirror,
            (parity[row] + parity[col]).astype(np.int8))


def _even_supersymmetric_part(mirror: np.ndarray, slot_parity: np.ndarray,
                              vals: np.ndarray) -> tuple[np.ndarray, float,
                                                         float]:
    """The even supersymmetric part of a bilinear form given by its values
    ``vals`` on slots (:func:`_slot_layout`), (v + S v^T)/2 with
    S = (-1)**(p_x p_y) and its mixed-parity entries zeroed, and how far
    the form is from it, unscaled: its largest mixed-parity |entry| and the
    largest |v - S v^T|. S is -1 on the odd-odd slots only."""
    mixed = slot_parity == 1
    evenness = float(np.max(np.abs(vals[mixed]), initial=0.0))
    transposed = vals[mirror]
    transposed[slot_parity == 2] *= -1.0
    supersymmetry = float(np.max(np.abs(vals - transposed), initial=0.0))
    part = 0.5 * (vals + transposed)
    part[mixed] = 0.0
    return part, evenness, supersymmetry


def plan_curvature(alg: LieSuperAlgebra,
                   form: BilinearFormMatrix) -> CurvaturePlan:
    """The :class:`CurvaturePlan` of the exact ``form``: its exact inverse,
    the terms of :func:`~supereinstein.supercore._koszul_terms` summed per
    (i, j, k) and block of the Gram row they read, their contraction with
    the nonzeros of the inverse, and the three Ricci joins over the
    connection keys. Raises
    :class:`~supereinstein.supercore.DegeneracyError` when the form is
    singular, and ValueError on a float form."""
    n = alg.dim
    inv_keys, inv, inv_denom, _ = form.inverse
    block = alg.block_layout()
    nb = len(alg.decomposition) + 1
    vals = form.values  # the Gram's nonzeros, numer / denom
    row_max = np.zeros(n)
    np.maximum.at(row_max, form.keys // n, np.abs(vals))
    terms, values, rows = _koszul_terms(alg, alg.numer / alg.denom, form.keys,
                                        vals, third=True)
    rhs_keys, group = _distinct(terms)
    rhs = np.bincount(group * nb + block[rows], weights=values,
                      minlength=len(rhs_keys) * nb).reshape(-1, nb)
    del terms, values, rows, group
    rows, cols = np.divmod(inv_keys, n)
    pair, k = np.divmod(rhs_keys, n)
    at, q = _join(k, rows)
    del k
    keys, symbol = _distinct(pair[at] * n + cols[q])
    # B = numer / denom, so B^-1 = denom * inv / inv_denom; one block's
    # column at a time, so no (pairs, blocks) array is made, each summed in
    # the pairs' order as one bincount over all of them sums it
    weight = 0.5 * (inv[q] * form.denom / inv_denom)
    koszul = np.stack([np.bincount(symbol, weights=rhs[at, c] * weight,
                                   minlength=len(keys)) for c in range(nb)],
                      axis=1)
    del pair, at, q, rows, cols, inv, rhs, weight, symbol
    # the three terms of ricci_direct
    p = alg.basis.parity_array()
    sign = 1 - 2 * p
    ij, gk = np.divmod(keys, n)
    gi, gj = np.divmod(ij, n)
    trace_at = np.flatnonzero(gi == gk)
    # G[z, y, m] G[x, m, z], joined on (m, z), signed -(-1)**(p_z + p_z p_x)
    a, b = _join(gk * n + gi, gj * n + gk)
    pair_sign = -sign[gi[a]] * (1 - 2 * (p[gi[a]] & p[gi[b]]))
    # c[z, x, m] G[m, y, z], joined on (m, z)
    idx = alg.index
    a2, b2 = _join(idx[:, 2] * n + idx[:, 0], gi * n + gk)
    # the Ricci terms' keys, then B's, which only widen the slots
    slots, slot_at, mirror, slot_parity = _slot_layout(np.concatenate(
        [ij, gi[b] * n + gj[a], idx[a2, 1] * n + gj[b2], form.keys]), p, n)
    int32 = np.int32
    return CurvaturePlan(
        algebra=alg, keys=keys, key_k=gk.astype(int32),
        bracket_at=_positions(keys,
                              (idx[:, 0] * n + idx[:, 1]) * n + idx[:, 2]),
        row_max=row_max, koszul=koszul,
        trace_at=trace_at.astype(int32), trace_j=gj[trace_at].astype(int32),
        trace_sign=sign[gi[trace_at]].astype(float),
        pair_a=a.astype(int32), pair_b=b.astype(int32),
        pair_sign=pair_sign.astype(float),
        bracket_from=b2.astype(int32),
        bracket_values=-sign[idx[a2, 0]] * (alg.numer[a2] / alg.denom),
        ric_at=slot_at[:len(slot_at) - len(form.keys)], slots=slots,
        mirror=mirror, slot_parity=slot_parity)


def _check_params(real, params: MetricParams) -> None:
    if len(params.x) != real.data.n_params:
        raise ValueError(
            f"{real.name} takes {real.data.n_params} metric parameters, "
            f"got {len(params.x)}")


def metric_factors(real, params: MetricParams) -> np.ndarray:
    """The row factors d of the metric D B: each even block's x_i, and 1 on
    the odd block."""
    _check_params(real, params)
    return np.append(params.x, 1.0)[real.algebra.block_layout()]


def _rows_scaled(form: BilinearFormMatrix,
                 scale: np.ndarray) -> BilinearFormMatrix:
    """The float form D B of ``form`` B and D = diag(``scale``), on B's
    nonzeros."""
    return BilinearFormMatrix(form.dim, form.keys,
                              scale[form.keys // form.dim] * form.values)


def metric_from_params(real, params: MetricParams) -> BilinearFormMatrix:
    """The canonical form with each even block scaled by its x_i and the odd
    block fixed; the metric carries no report."""
    return _rows_scaled(real.canonical_form, metric_factors(real, params))


def levi_civita_koszul(plan: CurvaturePlan,
                       factors: np.ndarray | None = None) -> Connection:
    """Connection of the metric D B from the graded Koszul formula: the
    right side 2 g(nabla_(e_i) e_j, e_k) is linear in the block factors f
    of D, and so, after the contraction with g^-1 = B^-1 D^-1, is each
    symbol up to its division by d_k. ``factors`` is D's diagonal
    (:func:`metric_factors`); None is B itself. Raises ValueError when D
    is not constant on each block."""
    n = plan.algebra.dim
    d = np.ones(n) if factors is None else factors
    block = plan.algebra.block_layout()
    f = np.ones(plan.koszul.shape[1])
    f[block] = d
    if np.any(f[block] != d):
        raise ValueError("metric factors vary inside a block; the plan "
                         "takes one factor per block")
    return Connection(n, plan.keys, plan.koszul @ f / d[plan.key_k])


def levi_civita_blockwise(real, params: MetricParams) -> Connection:
    """Connection assembled from the four-case closed form: 1/2 [X, Y] on
    even-even and odd-odd pairs, (1 - x_i/2) [X, Y] and (x_i/2) [X, Y] on the
    mixed pairs."""
    alg = real.algebra
    p = alg.basis.parity_array()
    xv = metric_factors(real, params)
    i, j, k = alg.index.T
    coef = np.where(p[i] == p[j], 0.5,
                    np.where(p[i] == 0, 1.0 - xv[i] / 2.0, xv[j] / 2.0))
    n = alg.dim
    return Connection(n, (i * n + j) * n + k, coef * (alg.numer / alg.denom))


def ricci_direct(plan: CurvaturePlan, conn: Connection,
                 factors: np.ndarray | None = None) -> BilinearFormMatrix:
    """ric(X, Y) = str(Z -> R(Z, X) Y) from the curvature of the connection,
    whose symbols must lie in the plan's pattern; evenness and
    supersymmetry are checked relative to the scale of the metric D B
    (``factors`` as for :func:`levi_civita_koszul`).

    With G the symbols and w_m = sum_z (-1)**p_z G_zmz, the three sparse
    terms are sum_m G_xym w_m, -sum_(z, m) (-1)**(p_z + p_z p_x) G_zym G_xmz
    and -sum_(z, m) (-1)**p_z c_zxm G_myz, summed by one bincount over the
    plan's Ricci slots; the tensor returned is their even supersymmetric
    part, on those slots.
    """
    n = plan.algebra.dim
    if conn.keys is plan.keys:
        gv = conn.values
    else:
        gv = np.zeros(len(plan.keys))
        gv[_positions(plan.keys, conn.keys)] = conn.values
    w = np.bincount(plan.trace_j, weights=plan.trace_sign * gv[plan.trace_at],
                    minlength=n)
    first, second = len(gv), len(gv) + len(plan.pair_a)
    vals = np.empty(len(plan.ric_at))
    np.multiply(gv, w[plan.key_k], out=vals[:first])
    np.multiply(gv[plan.pair_a], gv[plan.pair_b], out=vals[first:second])
    vals[first:second] *= plan.pair_sign
    np.multiply(plan.bracket_values, gv[plan.bracket_from], out=vals[second:])
    part, even_res, sym_res = _even_supersymmetric_part(
        plan.mirror, plan.slot_parity,
        np.bincount(plan.ric_at, weights=vals, minlength=len(plan.slots)))
    d = np.ones(n) if factors is None else factors
    scale = float(np.max(np.abs(d) * plan.row_max, initial=0.0)) or 1.0
    if max(sym_res, even_res) > RICCI_SYM_TOL * scale:
        raise ValueError("Ricci tensor failed the evenness/supersymmetry check")
    return BilinearFormMatrix(n, plan.slots, part)


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
    return _rows_scaled(real.canonical_form,
                        np.append(factors, odd)[alg.block_layout()])


def ricci_routes(real, params: MetricParams) -> tuple[
        Connection, BilinearFormMatrix, BilinearFormMatrix]:
    """The Koszul connection of the metric of ``params``, through the
    realization's curvature plan, and its Ricci tensor by both routes:
    direct from that connection, and the closed form."""
    plan, factors = real.curvature_plan, metric_factors(real, params)
    conn = levi_civita_koszul(plan, factors)
    return (conn, ricci_direct(plan, conn, factors),
            ricci_closed_form(real, params))
