"""Representation indices, Casimir operators on the odd part and form
ratios of the simple ideals: the invariants l_i, gamma_i and b_i of the
Einstein system, each built from sparse joins of the exact structure
constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    _contract,
    _trace_form,
    dual_basis,
)

# Least-squares ratio fits must reproduce every entry to this residual.
FIT_TOL = 1e-9
# Casimir operators on the odd part must be scalar to this residual.
SCALAR_TOL = 1e-9


@dataclass(frozen=True)
class CasimirResult:
    """Casimir operator on the odd part (a (dim_odd, dim_odd) matrix) and
    its fitted scalar."""

    operator: np.ndarray
    scalar: float
    off_scalar_residual: float


@dataclass(frozen=True)
class IdealInvariants:
    """The realized invariants of one ideal of the even part, the scalars the
    catalog states for it: index l and form ratio b (None on the abelian
    ideal) and the Casimir scalar gamma on the odd part under the canonical
    form."""

    l: Optional[float]
    b: Optional[float]
    gamma: float


def _ratio_fit(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Least-squares ratio r with num ~= r * den, plus the scaled residual."""
    denom = float(np.sum(den * den))
    if denom == 0.0:
        raise ValueError("ratio fit against an identically zero tensor")
    r = float(np.sum(num * den)) / denom
    scale = float(np.max(np.abs(den)))
    res = float(np.max(np.abs(num - r * den))) / scale
    return r, res


def _trace_gram(alg: LieSuperAlgebra, ideal: DecompositionRange,
                inner: range) -> np.ndarray:
    """Dense (dim, dim) Gram of the unsigned trace form of the ideal over
    ``inner``: sum_(w, v) c[a, w, v] c[b, v, w] for a, b in the ideal."""
    keys, acc = _trace_form(alg, ideal.indices(), inner)
    gram = np.zeros(ideal.dim**2)
    gram[keys] = acc / float(alg.denom**2)
    return gram.reshape(ideal.dim, ideal.dim)


def representation_index(alg: LieSuperAlgebra, ideal: DecompositionRange,
                         killing_gram: np.ndarray) -> float:
    """Ratio l with tr(rho(X) rho(Y)) = l tr(ad X ad Y) on a simple ideal,
    where rho is the action on the odd part and ``killing_gram`` the
    ideal's own Killing form. Fitted over all basis pairs."""
    if ideal.kind != "simple":
        raise ValueError("the index is undefined for an abelian ideal")
    l, res = _ratio_fit(_trace_gram(alg, ideal, alg.odd_range()), killing_gram)
    if res >= FIT_TOL:
        raise ValueError(f"index fit residual {res:g} on {ideal}")
    return l


def ideal_killing_gram(alg: LieSuperAlgebra,
                       ideal: DecompositionRange) -> np.ndarray:
    """The ideal's own Killing form (intrinsic, not the restriction)."""
    return _trace_gram(alg, ideal, ideal.indices())


def b_ratio(form: BilinearFormMatrix, ideal: DecompositionRange,
            killing_gram: np.ndarray) -> float:
    """Ratio of the form restricted to a simple ideal to the ideal's own
    Killing form ``killing_gram``."""
    if ideal.kind != "simple":
        raise ValueError("b-ratio is defined on simple ideals only")
    sub = form.gram[ideal.start:ideal.stop, ideal.start:ideal.stop]
    ratio, res = _ratio_fit(sub, killing_gram)
    if res >= FIT_TOL:
        raise ValueError(f"b-ratio fit residual {res:g} on {ideal}")
    return ratio


def casimir_on_odd(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                   ideal: DecompositionRange) -> CasimirResult:
    """sum_j ad(e_j) o ad(e_j*) on the odd part, for a form-dual basis pair.

    Two sparse contractions: the entries c[m, w, u] of the ideal's action on
    the odd part with the nonzeros d[m, j] of the dual basis, then the
    result with the entries c[j, u, v] on (j, u). Scalarity on the odd part
    is asserted: an off-scalar residue above tolerance is a verification
    failure, not a fallback path.
    """
    duals = dual_basis(form, ideal)  # may raise DegeneracyError
    rows, j = np.nonzero(duals[ideal.start:ideal.stop, :])
    d = duals[ideal.start + rows, j]
    odd, n_odd = alg.odd_range(), alg.dim_odd
    idx = alg.index
    inside = (idx[:, 0] >= ideal.start) & (idx[:, 0] < ideal.stop) \
        & (idx[:, 1] >= odd.start) & (idx[:, 2] >= odd.start)
    # the action's entries c[a, w, v]: a in the ideal, w and v odd (local)
    a, w, v = (idx[inside] - [ideal.start, odd.start, odd.start]).T
    c = alg.numer[inside] / alg.denom
    # (d c)[j, u, w] = sum_m d[m, j] c[m, w, u], keyed (u * n_odd + w) * dim + j
    keys, dc = _contract(a, rows, c, d, v * n_odd + w, j, ideal.dim)
    uw, j = np.divmod(keys, ideal.dim)
    u, w_dc = np.divmod(uw, n_odd)
    # op[v, w] = sum_(j, u) c[j, u, v] (d c)[j, u, w]
    keys, vals = _contract(a * n_odd + w, j * n_odd + u, c, dc, v, w_dc, n_odd)
    op = np.zeros(n_odd * n_odd)
    op[keys] = vals
    op = op.reshape(n_odd, n_odd)
    scalar = float(np.trace(op)) / n_odd
    off = float(np.max(np.abs(op - scalar * np.eye(n_odd))))
    if off >= SCALAR_TOL:
        raise ValueError(
            f"Casimir operator is not scalar on the odd part (residual {off:g})")
    op.setflags(write=False)
    return CasimirResult(op, scalar, off)


def ideal_invariants(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                     ideal: DecompositionRange) -> IdealInvariants:
    """All invariants of one ideal; its Killing Gram, computed once, and the
    Casimir operator serve the fits and the scalarity check and are then
    dropped."""
    gamma = casimir_on_odd(alg, form, ideal).scalar
    if ideal.kind != "simple":
        return IdealInvariants(None, None, gamma)
    ki = ideal_killing_gram(alg, ideal)
    return IdealInvariants(representation_index(alg, ideal, ki),
                           b_ratio(form, ideal, ki), gamma)
