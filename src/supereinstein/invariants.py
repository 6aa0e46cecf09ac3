"""Representation indices, Casimir operators on the odd part and form
ratios of the simple ideals: the invariants l_i, gamma_i and b_i of the
Einstein system, exact rationals from int64 joins of the exact structure
constants; ratios and scalarity are checked exactly."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    _block,
    _contract,
    _trace_form,
)


@dataclass(frozen=True)
class IdealInvariants:
    """The realized invariants of one ideal of the even part, the scalars the
    catalog states for it: index l and form ratio b (None on the abelian
    ideal) and the Casimir scalar gamma on the odd part under the canonical
    form."""

    l: Optional[Fraction]
    b: Optional[Fraction]
    gamma: Fraction


def _ratio(num: tuple, den: tuple) -> Fraction:
    """The exact r with num = r den for two sparse exact forms (ascending
    keys, numerators, denominator), proportional entry by entry in integers."""
    (nkeys, nnum, nden), (dkeys, dnum, dden) = num, den
    if not dnum.size:
        raise ValueError("ratio against an identically zero form")
    p, q = (int(nnum[0]) if nnum.size else 0), int(dnum[0])
    if not np.array_equal(nkeys, dkeys) or \
            [v * q for v in nnum.tolist()] != [v * p for v in dnum.tolist()]:
        raise ValueError("the two forms are not proportional")
    return Fraction(p * dden, q * nden)


def representation_index(alg: LieSuperAlgebra, ideal: DecompositionRange,
                         killing: tuple) -> Fraction:
    """The exact l with tr(rho(X) rho(Y)) = l tr(ad X ad Y) on a simple
    ideal, where rho is the action on the odd part and ``killing`` the
    ideal's own Killing form from :func:`ideal_killing_gram`."""
    if ideal.kind != "simple":
        raise ValueError("the index is undefined for an abelian ideal")
    return _ratio((*_trace_form(alg, ideal.indices(), alg.odd_range()),
                   alg.denom**2), killing)


def ideal_killing_gram(alg: LieSuperAlgebra,
                       ideal: DecompositionRange) -> tuple:
    """The ideal's own Killing form (intrinsic, not the restriction), exact
    and sparse: keys local to the ideal, numerators and denominator."""
    return (*_trace_form(alg, ideal.indices(), ideal.indices()), alg.denom**2)


def b_ratio(form: BilinearFormMatrix, ideal: DecompositionRange,
            killing: tuple) -> Fraction:
    """The exact ratio of the exact form restricted to a simple ideal to the
    ideal's own Killing form ``killing``."""
    if ideal.kind != "simple":
        raise ValueError("b-ratio is defined on simple ideals only")
    return _ratio((*form.block(ideal), form.denom), killing)


def casimir_on_odd(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                   ideal: DecompositionRange) -> Fraction:
    """The scalar of sum_j ad(e_j) o ad(e_j*) on the odd part, for the dual
    basis e_j*, the columns d[:, j] of the exact inverse of the form's block
    on the ideal. An even invariant form is zero across the ideals and the
    odd part, so that is the ideal's block of the form's own :attr:`inverse
    <supereinstein.supercore.BilinearFormMatrix.inverse>`, made once per
    form (DegeneracyError when the form is singular), here in lowest terms.
    Two sparse int64 contractions: the entries c[m, w, u] of the ideal's
    action on the odd part with the nonzeros of d, then the result with the
    entries c[j, u, v] on (j, u). The operator must be exactly scalar;
    anything else is a verification failure, not a fallback path."""
    keys, inv, denom, _ = form.inverse
    dkeys, d = _block(keys, inv, form.dim, ideal)
    common = math.gcd(denom, int(np.gcd.reduce(d, initial=0)))
    d, ddenom = d // common, denom // common
    rows, j = np.divmod(dkeys, ideal.dim)
    odd, n_odd = alg.odd_range(), alg.dim_odd
    idx = alg.index
    inside = (idx[:, 0] >= ideal.start) & (idx[:, 0] < ideal.stop) \
        & (idx[:, 1] >= odd.start) & (idx[:, 2] >= odd.start)
    # the action's entries c[a, w, v]: a in the ideal, w and v odd (local)
    a, w, v = (idx[inside] - [ideal.start, odd.start, odd.start]).T
    c = alg.numer[inside]
    big = int(np.max(np.abs(c), initial=0))
    if ideal.dim**2 * n_odd * big * big * int(np.max(np.abs(d))) >= 2**63:
        raise ValueError(f"Casimir sums on {ideal} could overflow int64")
    # (d c)[j, u, w] = sum_m d[m, j] c[m, w, u], keyed (u * n_odd + w) * dim + j
    keys, dc = _contract(a, rows, c, d, v * n_odd + w, j, ideal.dim)
    uw, j = np.divmod(keys, ideal.dim)
    u, w_dc = np.divmod(uw, n_odd)
    # op[v, w] = sum_(j, u) c[j, u, v] (d c)[j, u, w]
    keys, op = _contract(a * n_odd + w, j * n_odd + u, c, dc, v, w_dc, n_odd)
    if op.size and not (np.array_equal(keys, np.arange(n_odd) * (n_odd + 1))
                        and np.all(op == op[0])):
        raise ValueError("Casimir operator is not scalar on the odd part")
    return Fraction(int(op[:1].sum()) * form.denom, alg.denom**2 * ddenom)


def ideal_invariants(alg: LieSuperAlgebra, form: BilinearFormMatrix,
                     ideal: DecompositionRange) -> IdealInvariants:
    """All invariants of one ideal; its Killing form, computed once, serves
    both ratios."""
    gamma = casimir_on_odd(alg, form, ideal)
    if ideal.kind != "simple":
        return IdealInvariants(None, None, gamma)
    ki = ideal_killing_gram(alg, ideal)
    return IdealInvariants(representation_index(alg, ideal, ki),
                           b_ratio(form, ideal, ki), gamma)
