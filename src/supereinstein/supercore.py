"""Graded linear algebra substrate: super vector spaces, structure-constant
brackets, supertrace, bilinear forms, and axiom verification.

All values are immutable after construction and every operation is a pure
function. The numeric channel is float64; constructors that produce rational
structure constants additionally carry an exact sparse channel (Fractions)
used by the exact verification paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    """A Lie superalgebra given by its structure-constant tensor.

    ``c[i, j, k]`` is the coefficient of basis vector ``k`` in ``[e_i, e_j]``.
    ``decomposition`` lists the even-part ideals k_0 (abelian, optional),
    k_1, ..., k_s as contiguous ranges; odd indices follow all even ones.
    ``c_exact`` is an optional sparse exact channel ``{(i, j, k): Fraction}``.
    """

    basis: SuperBasis
    c: np.ndarray
    decomposition: tuple[DecompositionRange, ...]
    c_exact: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.basis.total_dim
        if self.c.shape != (n, n, n):
            raise ValueError("structure tensor shape mismatch")
        self.c.setflags(write=False)
        p = self.basis.parity_array()
        # parity consistency: c[i,j,k] = 0 unless p_k = p_i + p_j (mod 2)
        bad = (p[:, None, None] + p[None, :, None] + p[None, None, :]) % 2 == 1
        if self.c[bad].size and np.max(np.abs(self.c[bad])) > JACOBI_TOL:
            raise ValueError("structure tensor violates parity consistency")
        # graded antisymmetry
        s = _parity_sign_matrix(p)
        anti = self.c + s[:, :, None] * np.swapaxes(self.c, 0, 1)
        if np.max(np.abs(anti)) > JACOBI_TOL:
            raise ValueError("structure tensor violates graded antisymmetry")
        cover = []
        for rng in self.decomposition:
            if rng.stop > self.basis.dim_even:
                raise ValueError("decomposition range extends into the odd part")
            cover.extend(rng.indices())
        if cover != list(range(self.basis.dim_even)):
            raise ValueError("decomposition ranges must tile the even part")

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
    gram_exact: Optional[list] = field(default=None, repr=False, compare=False)
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


def check_super_jacobi(alg: LieSuperAlgebra) -> JacobiReport:
    """Max residual of the graded Jacobi identity over all basis triples."""
    c = alg.c
    n = alg.dim
    s = _parity_sign_matrix(alg.basis.parity_array())
    worst = (0, 0, 0)
    worst_val = 0.0
    for i in range(n):
        lhs = np.einsum("jkm,ml->jkl", c, c[i], optimize=True)
        r1 = np.einsum("jm,mkl->jkl", c[i], c, optimize=True)
        r2 = np.einsum("km,jml->jkl", c[i], c, optimize=True)
        res = np.abs(lhs - r1 - s[i][:, None, None] * r2).max(axis=2)
        j, k = np.unravel_index(int(np.argmax(res)), res.shape)
        if res[j, k] > worst_val:
            worst_val = float(res[j, k])
            worst = (i, int(j), int(k))
    return JacobiReport(worst_val, worst)


def check_super_jacobi_exact(alg: LieSuperAlgebra) -> Fraction:
    """Exact-channel Jacobi residual; zero iff the identity holds identically."""
    if alg.c_exact is None:
        raise ValueError("algebra carries no exact channel")
    by_pair: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j, k), v in alg.c_exact.items():
        by_pair.setdefault((i, j), {})[k] = v
    p = alg.basis.parity
    n = alg.dim
    worst = Fraction(0)
    for i in range(n):
        for j in range(n):
            sij = -1 if (p[i] and p[j]) else 1
            for k in range(n):
                acc: dict[int, Fraction] = {}
                for m, v in by_pair.get((j, k), {}).items():
                    for l, w in by_pair.get((i, m), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) + v * w
                for m, v in by_pair.get((i, j), {}).items():
                    for l, w in by_pair.get((m, k), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) - v * w
                for m, v in by_pair.get((i, k), {}).items():
                    for l, w in by_pair.get((j, m), {}).items():
                        acc[l] = acc.get(l, Fraction(0)) - sij * v * w
                for val in acc.values():
                    if abs(val) > worst:
                        worst = abs(val)
    return worst


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


def dual_basis_exact(gram_exact: list, subspace) -> list:
    """Exact-channel dual basis: columns of the inverse Gram restriction."""
    start, stop = _range_bounds(subspace)
    sub = [[Fraction(gram_exact[i][j]) for j in range(start, stop)]
           for i in range(start, stop)]
    inv = _fraction_inverse(sub)
    if inv is None:
        raise DegeneracyError(f"form degenerate on subspace [{start}:{stop})")
    return inv


def _range_bounds(subspace) -> tuple[int, int]:
    if isinstance(subspace, DecompositionRange):
        return subspace.start, subspace.stop
    if isinstance(subspace, range):
        return subspace.start, subspace.stop
    start, stop = subspace
    return int(start), int(stop)


def _fraction_inverse(rows: list) -> Optional[list]:
    """Gauss-Jordan inverse over the rationals; None when singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

SPARSE_CUTOFF = 1e-14


def algebra_to_json(alg: LieSuperAlgebra) -> dict:
    """Schema: dim_even, dim_odd, parity, sparse c triplets, decomposition."""
    triplets = []
    nz = np.argwhere(np.abs(alg.c) >= SPARSE_CUTOFF)
    for i, j, k in nz:
        v = alg.c[i, j, k]
        triplets.append([int(i), int(j), int(k), float(v), 0.0])
    return {
        "dim_even": alg.dim_even,
        "dim_odd": alg.dim_odd,
        "parity": [int(p) for p in alg.basis.parity],
        "c": triplets,
        "decomposition": [[r.start, r.stop, r.kind] for r in alg.decomposition],
    }


def algebra_from_json(doc: dict) -> LieSuperAlgebra:
    parity = tuple(int(p) for p in doc["parity"])
    n = len(parity)
    c = np.zeros((n, n, n))
    for i, j, k, re, im in doc["c"]:
        if im:
            raise ValueError("complex structure constants are not supported")
        c[int(i), int(j), int(k)] = re
    decomp = tuple(
        DecompositionRange(int(a), int(b), kind) for a, b, kind in doc["decomposition"]
    )
    return LieSuperAlgebra(SuperBasis(parity), c, decomp)


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
