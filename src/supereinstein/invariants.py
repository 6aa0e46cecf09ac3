"""Representation indices, Casimir operators on the odd part, form ratios,
and numeric verification of the trace identities that tie them together."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    LinearOperator,
    dual_basis,
    killing_form,
)

# Least-squares ratio fits must reproduce every entry to this residual.
FIT_TOL = 1e-9
# Casimir operators on the odd part must be scalar to this residual.
SCALAR_TOL = 1e-9

IdealHandle = DecompositionRange


@dataclass(frozen=True)
class CasimirResult:
    """Casimir operator on the odd part and its fitted scalar."""

    operator: LinearOperator
    scalar: float
    off_scalar_residual: float


def _ratio_fit(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Least-squares ratio r with num ~= r * den, plus the scaled residual."""
    denom = float(np.sum(den * den))
    if denom == 0.0:
        raise ValueError("ratio fit against an identically zero tensor")
    r = float(np.sum(num * den)) / denom
    scale = float(np.max(np.abs(den)))
    res = float(np.max(np.abs(num - r * den))) / scale
    return r, res


def _odd_action(alg: LieSuperAlgebra, ideal) -> np.ndarray:
    """rho[a, v, w]: matrix of ad e_(ideal a) acting on the odd part."""
    odd = list(alg.odd_range())
    idx = list(ideal.indices())
    block = alg.c[np.ix_(idx, odd, odd)]  # block[a, w, v] = coeff of e_v
    return np.swapaxes(block, 1, 2)


def representation_index(alg: LieSuperAlgebra, ideal: IdealHandle) -> float:
    """Ratio l with tr(rho(X) rho(Y)) = l tr(ad X ad Y) on a simple ideal,
    where rho is the action on the odd part. Fitted over all basis pairs."""
    if ideal.kind != "simple":
        raise ValueError("the index is undefined for an abelian ideal")
    rho = _odd_action(alg, ideal)
    rep_tr = np.einsum("avw,bwv->ab", rho, rho, optimize=True)
    idx = list(ideal.indices())
    cid = alg.c[np.ix_(idx, idx, idx)]
    ad_tr = np.einsum("bvw,awv->ab", cid, cid, optimize=True)
    l, res = _ratio_fit(rep_tr, ad_tr)
    if res >= FIT_TOL:
        raise ValueError(f"index fit residual {res:g} on {ideal}")
    return l


def defining_rep_index(real, ideal: IdealHandle) -> float:
    """Index of the ideal's defining (matrix-slot) representation.

    Uses the realization's own matrices as rho, so a simple ideal sitting in
    one diagonal slot is probed in its standard representation.
    """
    if ideal.kind != "simple":
        raise ValueError("the index is undefined for an abelian ideal")
    idx = list(ideal.indices())
    mats = [real.matrices[a] for a in idx]
    rep_tr = np.array([[float(np.trace(x @ y)) for y in mats] for x in mats])
    cid = real.algebra.c[np.ix_(idx, idx, idx)]
    ad_tr = np.einsum("bvw,awv->ab", cid, cid, optimize=True)
    l, res = _ratio_fit(rep_tr, ad_tr)
    if res >= FIT_TOL:
        raise ValueError(f"defining-rep fit residual {res:g} on {ideal}")
    return l


def ideal_killing_gram(alg: LieSuperAlgebra, ideal: IdealHandle) -> np.ndarray:
    """The ideal's own Killing form (intrinsic, not the restriction)."""
    idx = list(ideal.indices())
    cid = alg.c[np.ix_(idx, idx, idx)]
    return np.einsum("bvw,awv->ab", cid, cid, optimize=True)


def b_ratio(alg: LieSuperAlgebra, form: BilinearFormMatrix,
            ideal: IdealHandle) -> float:
    """Ratio of the form restricted to a simple ideal to the ideal's own
    Killing form."""
    if ideal.kind != "simple":
        raise ValueError("b-ratio is defined on simple ideals only")
    ki = ideal_killing_gram(alg, ideal)
    sub = form.gram[ideal.start:ideal.stop, ideal.start:ideal.stop]
    ratio, res = _ratio_fit(sub, ki)
    if res >= FIT_TOL:
        raise ValueError(f"b-ratio fit residual {res:g} on {ideal}")
    return ratio


def casimir_on_odd(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                   ideal: IdealHandle) -> CasimirResult:
    """sum_j ad(e_j) o ad(e_j*) on the odd part, for a form-dual basis pair.

    Scalarity on the odd part is asserted: an off-scalar residue above
    tolerance is a verification failure, not a fallback path.
    """
    duals = dual_basis(form, ideal)  # may raise DegeneracyError
    rho = _odd_action(alg, ideal)
    d = duals[ideal.start:ideal.stop, :]
    rho_dual = np.einsum("mj,mvw->jvw", d, rho, optimize=True)
    op = np.einsum("jvu,juw->vw", rho, rho_dual, optimize=True)
    n_odd = alg.dim_odd
    scalar = float(np.trace(op)) / n_odd
    off = float(np.max(np.abs(op - scalar * np.eye(n_odd))))
    if off >= SCALAR_TOL:
        raise ValueError(
            f"Casimir operator is not scalar on the odd part (residual {off:g})")
    return CasimirResult(LinearOperator(op, parity=0), scalar, off)


def verify_killing_casimir(alg: LieSuperAlgebra,
                           form: BilinearFormMatrix) -> float:
    """Max residual, over odd basis pairs, of the identity expressing the
    Killing form on the odd part through the per-ideal Casimir operators."""
    odd = list(alg.odd_range())
    k_odd = killing_form(alg).gram[np.ix_(odd, odd)]
    b_odd = form.gram[np.ix_(odd, odd)]
    total = np.zeros_like(k_odd)
    for ideal in alg.decomposition:
        total += b_odd @ casimir_on_odd(alg, form, ideal).operator.matrix
    return float(np.max(np.abs(k_odd - 2.0 * total)))


def verify_trace_identities(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                            ideal: IdealHandle) -> tuple[float, float, float]:
    """Max residuals of the three trace identities over odd basis pairs:
    vanishing trace of ad of the ideal component of [X, Y]; the ad-trace on
    the ideal against B(X, C Y); and the odd-part trace against -B(X, C Y)."""
    odd = list(alg.odd_range())
    idx = list(ideal.indices())
    c = alg.c
    t = np.array([sum(c[m, v, v] for v in odd) for m in idx])
    r1 = float(np.max(np.abs(
        np.einsum("xym,m->xy", c[np.ix_(odd, odd, idx)], t))))
    bc = form.gram[np.ix_(odd, odd)] @ casimir_on_odd(alg, form, ideal).operator.matrix
    lhs2 = np.einsum("yaw,xwa->xy", c[np.ix_(odd, idx, odd)],
                     c[np.ix_(odd, odd, idx)], optimize=True)
    r2 = float(np.max(np.abs(lhs2 - bc)))
    lhs3 = np.einsum("yzm,xmz->xy", c[np.ix_(odd, odd, idx)],
                     c[np.ix_(odd, idx, odd)], optimize=True)
    r3 = float(np.max(np.abs(lhs3 + bc)))
    return r1, r2, r3
