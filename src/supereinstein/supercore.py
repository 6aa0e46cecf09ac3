"""Graded linear algebra substrate: super vector spaces, structure-constant
brackets, supertrace, bilinear forms, and axiom verification.

All values are immutable after construction and every operation is a pure
function. Structure constants are exact rationals, stored once as sparse
integer numerators over one common denominator; the Jacobi identity is
checked exactly on them. The bracket, the Killing form and the form checks
read a dense float64 view derived from the same numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

# Structural residuals (constructor outputs).
JACOBI_TOL = 1e-12
# Verification residuals, relative to the max absolute Gram/tensor entry.
VERIFY_TOL = 1e-10
# Dual-basis round trip.
DUAL_TOL = 1e-12
# Row-max-scaled determinant threshold for non-degeneracy.
NONDEG_TOL = 1e-10


class DegeneracyError(ValueError):
    """A bilinear form is singular on a subspace where it must not be."""


@dataclass(frozen=True)
class SuperBasis:
    """Ordered homogeneous basis, even vectors first."""

    parity: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("parity entries must be 0 or 1")
        if list(self.parity) != sorted(self.parity):
            raise ValueError("even basis vectors must precede odd ones")
        if self.labels is not None and len(self.labels) != len(self.parity):
            raise ValueError("labels length mismatch")

    @property
    def total_dim(self) -> int:
        return len(self.parity)

    @property
    def dim_even(self) -> int:
        return self.total_dim - self.dim_odd

    @property
    def dim_odd(self) -> int:
        return sum(self.parity)

    def parity_array(self) -> np.ndarray:
        return np.asarray(self.parity, dtype=np.int64)

    def sign_vector(self) -> np.ndarray:
        """(-1)**parity as float, the supertrace weights."""
        return 1.0 - 2.0 * self.parity_array()


@dataclass(frozen=True)
class DecompositionRange:
    """Half-open index range [start, stop) of an even-part ideal."""

    start: int
    stop: int
    kind: str  # "abelian" | "simple"

    def __post_init__(self):
        if self.kind not in ("abelian", "simple"):
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if not 0 <= self.start < self.stop:
            raise ValueError("empty or negative range")

    @property
    def dim(self) -> int:
        return self.stop - self.start

    def indices(self) -> range:
        return range(self.start, self.stop)


def _parity_sign_matrix(parity: np.ndarray) -> np.ndarray:
    """S[i, j] = (-1)**(parity_i * parity_j)."""
    return 1.0 - 2.0 * np.outer(parity, parity)


@dataclass(frozen=True, eq=False)
class LieSuperAlgebra:
    """A Lie superalgebra given by its exact structure constants.

    Built from ``{(i, j, k): int | Fraction}``, the coefficient of basis
    vector ``k`` in ``[e_i, e_j]``, and stored once: ``index`` holds the
    nonzero (i, j, k) in ascending order, ``numer`` their numerators over
    the common denominator ``denom``. ``c`` is the dense float view.
    ``decomposition`` lists the even-part ideals k_0 (abelian, optional),
    k_1, ..., k_s as contiguous ranges; odd indices follow all even ones.
    """

    basis: SuperBasis
    entries: InitVar[dict]
    decomposition: tuple[DecompositionRange, ...]
    index: np.ndarray = field(init=False, repr=False)
    numer: np.ndarray = field(init=False, repr=False)
    denom: int = field(init=False)

    def __post_init__(self, entries: dict):
        n = self.basis.total_dim
        if not all(isinstance(v, numbers.Rational) for v in entries.values()):
            raise ValueError("structure constants must be exact (int or Fraction)")
        items = sorted((key, Fraction(v)) for key, v in entries.items() if v)
        denom = math.lcm(1, *(v.denominator for _, v in items))
        numer = [v.numerator * (denom // v.denominator) for _, v in items]
        if any(abs(v) >= 2**63 for v in numer):
            raise ValueError("structure constant numerator overflows int64")
        index = np.array([key for key, _ in items], dtype=np.int64).reshape(-1, 3)
        if index.size and (index.min() < 0 or index.max() >= n):
            raise ValueError("structure constant index outside the basis")
        numer = np.array(numer, dtype=np.int64)
        p = self.basis.parity_array()
        i, j, k = index.T
        if np.any((p[i] + p[j] + p[k]) % 2):
            raise ValueError("structure tensor violates parity consistency")
        # graded antisymmetry: c[j, i, k] = -(-1)**(p_i p_j) c[i, j, k]
        key = (i * n + j) * n + k  # ascending, as the index is
        swapped = (j * n + i) * n + k
        at = np.minimum(np.searchsorted(key, swapped), len(key) - 1)
        if np.any(key[at] != swapped) or np.any(
                numer[at] != (2 * (p[i] & p[j]) - 1) * numer):
            raise ValueError("structure tensor violates graded antisymmetry")
        index.setflags(write=False)
        numer.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)
        cover = []
        for rng in self.decomposition:
            if rng.stop > self.basis.dim_even:
                raise ValueError("decomposition range extends into the odd part")
            cover.extend(rng.indices())
        if cover != list(range(self.basis.dim_even)):
            raise ValueError("decomposition ranges must tile the even part")

    @cached_property
    def c(self) -> np.ndarray:
        """Dense float view: ``c[i, j, k]`` = numer / denom, read-only."""
        n = self.dim
        c = np.zeros((n, n, n))
        c[tuple(self.index.T)] = self.numer / self.denom
        c.setflags(write=False)
        return c

    @property
    def dim(self) -> int:
        return self.basis.total_dim

    @property
    def dim_even(self) -> int:
        return self.basis.dim_even

    @property
    def dim_odd(self) -> int:
        return self.basis.dim_odd

    def odd_range(self) -> range:
        return range(self.dim_even, self.dim)

    def simple_ideals(self) -> tuple[DecompositionRange, ...]:
        return tuple(r for r in self.decomposition if r.kind == "simple")

    def abelian_ideal(self) -> Optional[DecompositionRange]:
        for r in self.decomposition:
            if r.kind == "abelian":
                return r
        return None


@dataclass(frozen=True, eq=False)
class BilinearFormMatrix:
    """Gram matrix of a bilinear form, with tri-state verification flags.

    Each flag is True (verified), False (verified to fail) or None
    (unchecked). Degenerate forms are legal values, never errors. A form
    whose flags came from :func:`check_form` carries that report.
    """

    gram: np.ndarray
    even: Optional[bool] = None
    supersymmetric: Optional[bool] = None
    bi_invariant: Optional[bool] = None
    nondegenerate: Optional[bool] = None
    report: Optional[FormReport] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.gram.ndim != 2 or self.gram.shape[0] != self.gram.shape[1]:
            raise ValueError("gram must be square")
        self.gram.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def scale(self) -> float:
        m = float(np.max(np.abs(self.gram))) if self.gram.size else 0.0
        return m if m > 0 else 1.0


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Parity-homogeneous endomorphism in matrix form."""

    matrix: np.ndarray
    parity: int = 0

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class JacobiReport:
    residual: float
    worst_triple: tuple[int, int, int]

    @property
    def ok(self) -> bool:
        return self.residual < JACOBI_TOL


@dataclass(frozen=True)
class FormReport:
    """Max residuals of the four form axioms, relative to the Gram scale."""

    evenness: float
    supersymmetry: float
    bi_invariance: float
    scaled_det: float
    scale: float

    @property
    def is_even(self) -> bool:
        return self.evenness < VERIFY_TOL

    @property
    def is_supersymmetric(self) -> bool:
        return self.supersymmetry < VERIFY_TOL

    @property
    def is_bi_invariant(self) -> bool:
        return self.bi_invariance < VERIFY_TOL

    @property
    def is_nondegenerate(self) -> bool:
        return self.scaled_det > NONDEG_TOL


def bracket(alg: LieSuperAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for coefficient vectors over alg.basis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (alg.dim,) or y.shape != (alg.dim,):
        raise ValueError("coefficient vector length does not match the basis")
    return np.einsum("i,j,ijk->k", x, y, alg.c)


def ad_matrix(alg: LieSuperAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x): column m holds the coefficients of [x, e_m]."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,imk->km", x, alg.c)


def supertrace(op: LinearOperator, basis: SuperBasis) -> float:
    """Trace over the even block minus trace over the odd block."""
    if op.matrix.shape[0] != basis.total_dim:
        raise ValueError("operator does not act on this basis")
    return float(np.dot(basis.sign_vector(), np.diagonal(op.matrix)))


def killing_form(alg: LieSuperAlgebra) -> BilinearFormMatrix:
    """K(e_i, e_j) = str(ad e_i o ad e_j).

    Evenness and supersymmetry are asserted to float tolerance, then the
    matrix is symmetrized so downstream code sees them exactly.
    """
    sign = alg.basis.sign_vector()
    k = np.einsum("k,jkm,imk->ij", sign, alg.c, alg.c, optimize=True)
    scale = max(float(np.max(np.abs(k))), 1.0)
    p = alg.basis.parity_array()
    s = _parity_sign_matrix(p)
    sym_res = float(np.max(np.abs(k - s * k.T)))
    even_mask = (p[:, None] != p[None, :])
    even_res = float(np.max(np.abs(k[even_mask]))) if even_mask.any() else 0.0
    if sym_res > JACOBI_TOL * scale or even_res > JACOBI_TOL * scale:
        raise ValueError("Killing form failed the evenness/supersymmetry check")
    k = 0.5 * (k + s * k.T)
    k[even_mask] = 0.0
    form = BilinearFormMatrix(k, even=True, supersymmetric=True)
    report = check_form(alg, form)
    return BilinearFormMatrix(
        k,
        even=True,
        supersymmetric=True,
        bi_invariant=report.is_bi_invariant,
        nondegenerate=report.is_nondegenerate,
        report=report,
    )


def _join(a_key: np.ndarray, b_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position pair (p, q) with a_key[p] == b_key[q]."""
    order = np.argsort(b_key, kind="stable")
    sorted_b = b_key[order]
    lo = np.searchsorted(sorted_b, a_key, "left")
    counts = np.searchsorted(sorted_b, a_key, "right") - lo
    p = np.repeat(np.arange(len(a_key)), counts)
    run = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    return p, order[np.repeat(lo, counts) + run]


def check_super_jacobi(alg: LieSuperAlgebra) -> JacobiReport:
    """Exact residual of the graded Jacobi identity over all basis triples.

    Per (i, j, k, l) it sums the coefficient of e_l in
    [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - (-1)**(p_i p_j) [e_j, [e_i, e_k]]
    as int64 numerators over ``denom**2``, joining the sparse entries on the
    contracted index. Reports the largest |sum| as a float and the first
    (i, j, k) reaching it; (0.0, (0, 0, 0)) when the identity holds exactly.
    Refuses an algebra whose sums could overflow int64.
    """
    n = alg.dim
    idx, num = alg.index, alg.numer
    big = int(np.max(np.abs(num), initial=0))
    if 3 * n * big * big >= 2**63 or n**4 >= 2**63:
        raise ValueError(f"Jacobi sums of a dim-{n} algebra with numerators "
                         f"up to {big} could overflow int64")
    p = alg.basis.parity_array()
    # c[., ., m] c[., m, l]: [e_i, [e_j, e_k]] and [e_j, [e_i, e_k]]
    a, b = _join(idx[:, 2], idx[:, 1])
    inner = num[a] * num[b]
    sign = 1 - 2 * (p[idx[a, 0]] & p[idx[b, 0]])
    # c[i, j, m] c[m, k, l]: [[e_i, e_j], e_k]
    a2, b2 = _join(idx[:, 2], idx[:, 0])
    i = np.concatenate([idx[b, 0], idx[a, 0], idx[a2, 0]])
    j = np.concatenate([idx[a, 0], idx[b, 0], idx[a2, 1]])
    k = np.concatenate([idx[a, 1], idx[a, 1], idx[b2, 1]])
    l = np.concatenate([idx[b, 2], idx[b, 2], idx[b2, 2]])
    vals = np.concatenate([inner, -sign * inner, -num[a2] * num[b2]])
    keys, where = np.unique(((i * n + j) * n + k) * n + l, return_inverse=True)
    acc = np.zeros(len(keys), dtype=np.int64)
    np.add.at(acc, where, vals)
    acc = np.abs(acc)
    if not acc.any():
        return JacobiReport(0.0, (0, 0, 0))
    first = int(np.argmax(acc))
    ijk = int(keys[first]) // n
    return JacobiReport(int(acc[first]) / alg.denom**2,
                        (ijk // (n * n), ijk // n % n, ijk % n))


def check_form(alg: LieSuperAlgebra, form: BilinearFormMatrix) -> FormReport:
    """Verify evenness, supersymmetry, bi-invariance and non-degeneracy.

    Residuals are reported relative to the largest Gram entry;
    non-degeneracy is the absolute determinant after row-max scaling.
    """
    g = form.gram
    if g.shape[0] != alg.dim:
        raise ValueError("form is not defined on this algebra's basis")
    p = alg.basis.parity_array()
    scale = form.scale()
    mask = p[:, None] != p[None, :]
    evenness = float(np.max(np.abs(g[mask]))) / scale if mask.any() else 0.0
    s = _parity_sign_matrix(p)
    supersymmetry = float(np.max(np.abs(g - s * g.T))) / scale
    t1 = np.einsum("ijm,mk->ijk", alg.c, g, optimize=True)
    t2 = np.einsum("jkm,im->ijk", alg.c, g, optimize=True)
    bi_invariance = float(np.max(np.abs(t1 - t2))) / scale
    scaled_det = _scaled_abs_det(g)
    return FormReport(evenness, supersymmetry, bi_invariance, scaled_det, scale)


def _scaled_abs_det(g: np.ndarray) -> float:
    row_max = np.max(np.abs(g), axis=1)
    if np.any(row_max < 1e-300):
        return 0.0
    sign, logdet = np.linalg.slogdet(g / row_max[:, None])
    if sign == 0:
        return 0.0
    return float(np.exp(logdet))


def dual_basis(
    form: BilinearFormMatrix,
    subspace: DecompositionRange | range | tuple[int, int],
) -> np.ndarray:
    """Vectors e_j* with B(e_j, e_k*) = delta_jk on the given index range.

    Returns a (dim, r) array whose columns are the dual vectors embedded in
    the full space (supported on the subspace itself).
    """
    start, stop = _range_bounds(subspace)
    sub = form.gram[start:stop, start:stop]
    try:
        d = np.linalg.solve(sub, np.eye(stop - start))
    except np.linalg.LinAlgError:
        raise DegeneracyError(f"form degenerate on subspace [{start}:{stop})")
    if np.max(np.abs(sub @ d - np.eye(stop - start))) > DUAL_TOL:
        raise DegeneracyError(f"form ill-conditioned on subspace [{start}:{stop})")
    out = np.zeros((form.dim, stop - start))
    out[start:stop, :] = d
    return out


def _range_bounds(subspace) -> tuple[int, int]:
    if isinstance(subspace, DecompositionRange):
        return subspace.start, subspace.stop
    if isinstance(subspace, range):
        return subspace.start, subspace.stop
    start, stop = subspace
    return int(start), int(stop)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def algebra_to_json(alg: LieSuperAlgebra) -> dict:
    """Schema: dim_even, dim_odd, parity, sparse c triplets, decomposition."""
    triplets = [[i, j, k, v / alg.denom, 0.0]
                for (i, j, k), v in zip(alg.index.tolist(), alg.numer.tolist())]
    return {
        "dim_even": alg.dim_even,
        "dim_odd": alg.dim_odd,
        "parity": [int(p) for p in alg.basis.parity],
        "c": triplets,
        "decomposition": [[r.start, r.stop, r.kind] for r in alg.decomposition],
    }


def form_to_json(form: BilinearFormMatrix) -> dict:
    return {
        "gram": [[float(v) for v in row] for row in form.gram],
        "flags": {
            "even": form.even,
            "supersymmetric": form.supersymmetric,
            "bi_invariant": form.bi_invariant,
            "nondegenerate": form.nondegenerate,
        },
    }
