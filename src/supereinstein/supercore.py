"""Graded linear algebra substrate: super vector spaces, structure-constant
brackets, bilinear forms, and axiom verification.

All values are immutable after construction and every operation is a pure
function. Structure constants are exact rationals, stored once as sparse
integer numerators over one common denominator, and every contraction of
them is a join over these entries: the trace forms (the Killing form, an
ideal's own Killing form, the trace of its action on the odd part), and
their join with an exact form's integer nonzeros in its bi-invariance
check, are summed exactly in int64. ``bracket`` scatters the entries
directly. No (n, n, n) array is built, and a join whose pair count could
exhaust memory is refused before it allocates. Every join, grouping and
distinct-key pass of the package orders its keys through :func:`_order`,
one numpy kernel, the default int64 ``argsort``. The Jacobi identity is
checked as rho([e_i, e_j]) = [rho e_i, rho e_j], rho the basis matrices
the constants were read from, or ad: two joins compared entry for entry,
the rebuild that also proves a matrix basis's coordinates. A form is
stored by its nonzeros alone, an exact one as integers beside their float
values, and :func:`exact_inverse`, the package's one inverse, inverts
those integers exactly, one connected component of their pattern at a
time; the form keeps that elimination, made once, whose component
determinants decide its nondegeneracy and whose inverse is assembled where
it is read: every verdict of :func:`check_form` is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

# Largest number of entry pairs one join may expand to. A contraction
# peaks at 48 traced bytes per pair or less, so the bound holds one under
# 150 MB.
MAX_JOIN_PAIRS = 3_000_000
# Largest number of entries of the dense (dim, dim) Gram that ``build``
# prints, which no other command makes: dim <= 2,000 holds it at 32 MB.
MAX_DENSE_ENTRIES = 4_000_000


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


def _exact_coo(entries) -> tuple[np.ndarray, np.ndarray, int]:
    """Structure constants as (index, numer, denom) in lowest terms, zeros
    dropped. ``entries`` is ``{(i, j, k): int | Fraction}`` or a triple
    ``(index, numer, denom)``: nnz x 3 indices, integer numerators and a
    positive integer denominator. Float values are refused."""
    if isinstance(entries, dict):
        if not all(isinstance(v, numbers.Rational) for v in entries.values()):
            raise ValueError("structure constants must be exact (int or Fraction)")
        items = [(key, Fraction(v)) for key, v in entries.items() if v]
        denom = math.lcm(1, *(v.denominator for _, v in items))
        numer = [v.numerator * (denom // v.denominator) for _, v in items]
        if any(abs(v) >= 2**63 for v in numer):
            raise ValueError("structure constant numerator overflows int64")
        index = np.array([key for key, _ in items], dtype=np.int64)
        numer = np.array(numer, dtype=np.int64)
    else:
        index, numer, denom = (np.asarray(entries[0]), np.asarray(entries[1]),
                               entries[2])
        if (index.dtype.kind not in "iu" or numer.dtype.kind != "i"
                or not isinstance(denom, numbers.Integral) or denom <= 0):
            raise ValueError("structure constants must be exact (integer "
                             "numerators over a positive integer denominator)")
        keep = numer != 0
        index, numer = index[keep].astype(np.int64), numer[keep].astype(np.int64)
    common = math.gcd(int(denom), int(np.gcd.reduce(numer, initial=0)))
    return index.reshape(-1, 3), numer // common, int(denom) // common


@dataclass(frozen=True, eq=False)
class LieSuperAlgebra:
    """A Lie superalgebra given by its exact structure constants.

    Built from ``{(i, j, k): int | Fraction}``, the coefficient of basis
    vector ``k`` in ``[e_i, e_j]``, or from the same constants as sparse
    integer arrays ``(index, numer, denom)``; both go through one
    validation. They are stored once: ``index`` holds the nonzero (i, j, k)
    in ascending order, ``numer`` their numerators over the common
    denominator ``denom``, in lowest terms.
    ``decomposition`` lists the even-part ideals k_0 (abelian, optional),
    k_1, ..., k_s as contiguous ranges; odd indices follow all even ones.
    """

    basis: SuperBasis
    entries: InitVar[dict]
    decomposition: tuple[DecompositionRange, ...]
    index: np.ndarray = field(init=False, repr=False)
    numer: np.ndarray = field(init=False, repr=False)
    denom: int = field(init=False)

    def __post_init__(self, entries):
        index, numer, denom = _exact_coo(entries)
        n = self.basis.total_dim
        if index.size and (index.min() < 0 or index.max() >= n):
            raise ValueError("structure constant index outside the basis")
        key = (index[:, 0] * n + index[:, 1]) * n + index[:, 2]
        order = _order(key)  # ties are refused just below
        index, numer, key = index[order], numer[order], key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("structure constant index repeated")
        p = self.basis.parity_array()
        i, j, k = index.T
        if np.any((p[i] + p[j] + p[k]) % 2):
            raise ValueError("structure tensor violates parity consistency")
        # graded antisymmetry: c[j, i, k] = -(-1)**(p_i p_j) c[i, j, k]
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

    def block_layout(self) -> np.ndarray:
        """The block of each basis index: r on the r-th decomposition range,
        ``len(decomposition)`` on the odd part. The ranges tile the even
        part in order, so the blocks ascend."""
        sizes = [r.dim for r in self.decomposition] + [self.dim_odd]
        return np.repeat(np.arange(len(sizes)), sizes)

    def simple_ideals(self) -> tuple[DecompositionRange, ...]:
        return tuple(r for r in self.decomposition if r.kind == "simple")

    def abelian_ideal(self) -> Optional[DecompositionRange]:
        for r in self.decomposition:
            if r.kind == "abelian":
                return r
        return None


@dataclass(frozen=True, eq=False)
class BilinearFormMatrix:
    """A bilinear form on a basis of ``dim`` vectors, stored by its pattern:
    float ``values`` at the ascending flat keys ``row * dim + col``, every
    entry not listed being zero, and, when it was checked, the
    :class:`FormReport` of its axioms from :func:`check_form` (None when
    unchecked). An exact form (:func:`exact_form`) lists its nonzeros and
    keeps them as integer ``numer`` over ``denom`` too, which its checks and
    inverse read; a float form (a metric, a Ricci tensor) has None there.
    The dense :attr:`gram` is built only when it is read. Degenerate forms
    are legal values, never errors.
    """

    dim: int
    keys: np.ndarray
    values: np.ndarray
    report: Optional[FormReport] = field(default=None, repr=False)
    numer: Optional[np.ndarray] = field(default=None, repr=False)
    denom: int = 1

    def __post_init__(self):
        if self.keys.shape != self.values.shape or self.keys.ndim != 1:
            raise ValueError("a form needs one value per key")
        for value in (self.keys, self.values, self.numer):
            if value is not None:
                value.setflags(write=False)

    @cached_property
    def gram(self) -> np.ndarray:
        """The dense (dim, dim) Gram matrix, built on first read; only
        ``build``'s output needs it."""
        gram = np.zeros(self.dim * self.dim)
        gram[self.keys] = self.values
        gram.setflags(write=False)
        return gram.reshape(self.dim, self.dim)

    def scale(self) -> float:
        m = float(np.max(np.abs(self.values), initial=0.0))
        return m if m > 0 else 1.0

    def block(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """The exact nonzeros on the index range ``rng`` x ``rng``: keys
        local to it, ascending, and numerators; refuses a float form."""
        if self.numer is None:
            raise ValueError("an exact form is needed here, not a float form")
        return _block(self.keys, self.numer, self.dim, rng)

    @cached_property
    def _elimination(self) -> tuple:  # read by check_form and the inverse
        return _eliminate(*self.block(range(self.dim)), self.dim)

    @cached_property
    def inverse(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The :func:`exact_inverse` of the integer matrix ``numer`` of an
        exact form (the form's own inverse is ``denom`` times it) and that
        matrix's |det|, made once, from its one elimination; refuses a float
        form and raises DegeneracyError on a singular one."""
        return _int64_inverse(*self._elimination)


def _block(keys: np.ndarray, numer: np.ndarray, n: int,
           rng) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the sparse (n, n) matrix with the values ``numer`` at
    the ascending flat keys ``row * n + col`` on the index range ``rng`` x
    ``rng``: keys local to it, ascending, and their values."""
    start, size = rng.start, rng.stop - rng.start
    rows = slice(*np.searchsorted(keys, [start * n, rng.stop * n]))
    # local columns; one outside the range comes out at least size
    row, col = np.divmod(keys[rows] - start * (n + 1), n)
    inside = col < size
    return row[inside] * size + col[inside], numer[rows][inside]


def exact_form(alg: LieSuperAlgebra, keys: np.ndarray, numer: np.ndarray,
               denom: int = 1) -> BilinearFormMatrix:
    """The exact form on ``alg``'s basis with the nonzeros ``numer / denom``
    at the ascending flat keys ``row * dim + col``; its float values are
    their quotients. The form itself, not a copy, gets its
    :func:`check_form` report, so it keeps the inverse that check made."""
    form = BilinearFormMatrix(alg.dim, keys, numer / float(denom),
                              numer=numer, denom=denom)
    object.__setattr__(form, "report", check_form(alg, form))
    return form


@dataclass(frozen=True)
class JacobiReport:
    residual: float
    worst_triple: tuple[int, int, int]


@dataclass(frozen=True)
class FormReport:
    """The exact results of :func:`check_form`; each flag tests one for 0."""

    evenness: float
    supersymmetry: float
    bi_invariance: float
    scaled_det: Fraction

    is_even = property(lambda self: self.evenness == 0)
    is_supersymmetric = property(lambda self: self.supersymmetry == 0)
    is_bi_invariant = property(lambda self: self.bi_invariance == 0)
    is_nondegenerate = property(lambda self: self.scaled_det != 0)


def _coefficients(alg: LieSuperAlgebra, *vectors) -> list[np.ndarray]:
    out = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != (alg.dim,) for v in out):
        raise ValueError("coefficient vector length does not match the basis")
    return out


def bracket(alg: LieSuperAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for coefficient vectors over alg.basis."""
    x, y = _coefficients(alg, x, y)
    i, j, k = alg.index.T
    return np.bincount(k, weights=x[i] * y[j] * (alg.numer / alg.denom),
                       minlength=alg.dim)


def _trace_form(alg: LieSuperAlgebra, first: range, inner: range,
               signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """T(a, b) = sum_(w, v) (+-)c[a, w, v] c[b, v, w] for a, b in ``first``
    and v, w in ``inner``, both contiguous ranges; the sign is (-1)**p_v
    when ``signed``, so (all, all) signed is the Killing form.

    One join of the entries with themselves on (w, v), summed exactly as
    int64 numerators over ``denom**2``. Returns the keys
    ``(a - first.start) * len(first) + (b - first.start)`` of the nonzero
    sums, ascending, and those sums; refuses sums that could overflow int64.
    """
    n = alg.dim
    idx = alg.index
    inside = (idx[:, 0] >= first.start) & (idx[:, 0] < first.stop)
    for axis in (1, 2):
        inside &= (idx[:, axis] >= inner.start) & (idx[:, axis] < inner.stop)
    idx, num = idx[inside], alg.numer[inside]
    big = int(np.max(np.abs(num), initial=0))
    if len(inner) ** 2 * big * big >= 2**63:
        raise ValueError(f"trace-form sums over {len(inner)} indices with "
                         f"numerators up to {big} could overflow int64")
    # c[a, w, v] c[b, v, w], joined on (w, v)
    a, b = _join(idx[:, 1] * n + idx[:, 2], idx[:, 2] * n + idx[:, 1])
    vals = num[a] * num[b]
    if signed:
        vals *= 1 - 2 * alg.basis.parity_array()[idx[a, 2]]
    return _group_sum((idx[a, 0] - first.start) * len(first)
                      + idx[b, 0] - first.start, vals)


def killing_form(alg: LieSuperAlgebra) -> BilinearFormMatrix:
    """K(e_i, e_j) = str(ad e_i o ad e_j) = sum_(k, m) (-1)**p_k c_jkm c_imk.

    The signed :func:`_trace_form` over all indices, an exact form over
    ``denom**2`` that carries its :func:`check_form` report; raises
    ValueError unless that report finds it even and supersymmetric.
    """
    everything = range(alg.dim)
    form = exact_form(alg, *_trace_form(alg, everything, everything, True),
                      alg.denom**2)
    if not (form.report.is_even and form.report.is_supersymmetric):
        raise ValueError("Killing form failed the evenness/supersymmetry check")
    return form


def _order(keys: np.ndarray, stable: bool = False,
           where: str = "") -> np.ndarray:
    """The permutation that puts the integer ``keys`` in ascending order:
    every ordering of the package, by one numpy kernel, the default (SIMD)
    ``np.argsort`` on int64. Equal keys come in no set order, unless
    ``stable``: then the sort is on the distinct (key - min) * len +
    position, so they keep their input order; keys too wide for that in
    int64 are refused, naming the join ``where`` they are ordered."""
    if not stable or len(keys) < 2:
        return np.argsort(keys)
    low, m = int(keys.min()), len(keys)
    span = int(keys.max()) - low + 1
    if span * m > 2**63:
        raise ValueError(f"a join{where} orders {m:,} keys spanning {span:,} "
                         "values, too wide to order in int64")
    tied = keys - low
    tied *= m
    tied += np.arange(m)
    return np.argsort(tied)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Whether each of the ascending ``ordered`` keys starts a run of equal
    ones."""
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return new


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, and where each key sits among them:
    a sort-based grouping (Graefe, ACM Comput. Surv. 25, 1993) in the order
    of :func:`_order`."""
    order = _order(keys)
    ordered = keys[order]
    new = _run_starts(ordered)
    distinct = ordered[new]
    run = np.cumsum(new, out=ordered)  # the sorted keys are read by now
    del new
    run -= 1
    where = np.empty_like(run)
    where[order] = run
    return distinct, where


def _join(a_key: np.ndarray, b_key: np.ndarray,
          where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Every position pair (p, q) with a_key[p] == b_key[q], ascending in p
    and, for one p, in q: ``b_key`` is ordered once by :func:`_order`'s
    default int64 ``np.argsort``, ties broken by position through the keys
    (key - min) * len + position, and each a_key[p] finds its run by two
    ``searchsorted``. Refuses, before allocating them, more than
    ``MAX_JOIN_PAIRS`` pairs, naming the join ``where`` it is made (such as
    " in the Jacobi check")."""
    order = _order(b_key, stable=True, where=where)
    sorted_b = b_key[order]
    lo = np.searchsorted(sorted_b, a_key, "left")
    counts = np.searchsorted(sorted_b, a_key, "right") - lo
    total = int(counts.sum())
    if total > MAX_JOIN_PAIRS:
        raise ValueError(f"a join of {total:,} entry pairs{where} is over the "
                         f"{MAX_JOIN_PAIRS:,}-pair memory limit")
    p, q = _expand(np.arange(len(a_key)), lo, counts)
    return p, order[q]


def _expand(left: np.ndarray, start: np.ndarray,
            count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q) of a join in which the position ``left[t]`` meets
    the ``count[t]`` consecutive positions from ``start[t]``."""
    q = np.repeat(start - (np.cumsum(count) - count), count)
    q += np.arange(len(q))
    return np.repeat(left, count), q


def _group_sum(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the exact ``vals``, int64 or Python ints, whose sums are exact in
    any order, per distinct key: the ascending keys whose sum is nonzero,
    and those sums. Keys and values are gathered once in the order of
    :func:`_order`'s default int64 ``np.argsort``, equal keys in no set
    order, which exact sums do not see; each run of equal keys is summed by
    ``reduceat``, and each gathered array is freed once read."""
    order = _order(keys)
    keys, vals = keys[order], vals[order]
    del order
    start = np.flatnonzero(_run_starts(keys))
    vals = np.add.reduceat(vals, start)
    keys = keys[start]
    del start
    nonzero = vals != 0
    return keys[nonzero], vals[nonzero]


def _contract(a_on: np.ndarray, b_on: np.ndarray, a_val: np.ndarray,
              b_val: np.ndarray, a_key: np.ndarray, b_key: np.ndarray,
              width: int, where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Join (refused as :func:`_join` refuses), multiply, group: sum the
    integers ``a_val[p] * b_val[q]`` over the pairs with
    ``a_on[p] == b_on[q]``, per key ``a_key[p] * width + b_key[q]``."""
    p, q = _join(a_on, b_on, where)
    keys = a_key[p]  # built in place, so one gather is the only temporary
    keys *= width
    keys += b_key[q]
    vals = a_val[p]
    vals *= b_val[q]
    del p, q  # before grouping, which gathers both once more
    return _group_sum(keys, vals)


@dataclass(frozen=True, eq=False)
class BasisMatrices:
    """Matrices rho(e_k) of a basis of ``dim`` vectors on ``size`` slots, the
    first ``even_slot`` even: the integer entries ``value`` (for ad, the
    constants' numerators) at the flat positions ``row * size + col`` of the
    matrix ``owner``, ascending by owner; owner ``dim`` is a central matrix
    that the bracket is taken modulo (the identity of psl(n|n))."""

    dim: int
    owner: np.ndarray
    flat: np.ndarray
    value: np.ndarray
    even_slot: int
    size: int

    def __post_init__(self):
        for value in (self.owner, self.flat, self.value):
            value.setflags(write=False)

    def supercommutators(self, p: np.ndarray,
                         where: str = "") -> tuple[np.ndarray, np.ndarray]:
        """Every [M_i, M_j] = M_i M_j - (-1)**(p_i p_j) M_j M_i of the basis
        matrices, of the parities ``p``, by one join of their entries on the
        inner index: the ascending keys ``(i * dim + j) * size**2 + position``
        of the nonzeros, and their values."""
        n, size = self.dim, self.size
        row, col = np.divmod(self.flat[:np.searchsorted(self.owner, n)], size)
        a, b = _join(col, row, where)
        i, j = self.owner[a], self.owner[b]
        prod = self.value[a] * self.value[b]
        at = row[a] * size + col[b]
        del a, b
        sign = 1 - 2 * (p[i] & p[j])
        return _group_sum(np.concatenate([(i * n + j) * size**2 + at,
                                          (j * n + i) * size**2 + at]),
                          np.concatenate([prod, -sign * prod]))


def _coordinates(keys: np.ndarray, brackets: np.ndarray, owner: np.ndarray,
                 flat: np.ndarray, val: np.ndarray, span: int, npos: int):
    """Exact coordinates x = v B* of the brackets v, entries
    ``pair * npos + position``, on the spanning matrices B, entries
    ``(owner, flat position, val)``: the brackets paired with the dual
    matrices B* = B^T G^-1, G = B B^T the Frobenius Gram, whose exact
    inverse is sparse. Returns the keys ``pair * span + k``, their
    numerators and the common denominator; refuses a bracket the
    coordinates do not rebuild."""
    try:
        inv_keys, inv, denom, _ = exact_inverse(
            *_contract(flat, flat, val, val, owner, owner, span), span)
    except DegeneracyError:
        raise ValueError("the basis matrices are linearly dependent") from None
    row, col = np.divmod(inv_keys, span)
    dual_keys, dual = _contract(owner, row, val, inv, flat, col, span)
    position, k = np.divmod(dual_keys, span)
    pair, at = np.divmod(keys, npos)
    xkeys, x = _contract(at, position, brackets, dual, pair, k, span)
    if not _rebuilds(xkeys, x, span, owner, flat, val, npos, keys,
                     denom * brackets):
        raise ValueError("a bracket leaves the span of the basis")
    return xkeys, x, denom


def _rebuilds(coef_keys: np.ndarray, coef: np.ndarray, width: int,
              owner: np.ndarray, flat: np.ndarray, val: np.ndarray, npos: int,
              keys: np.ndarray, target: np.ndarray,
              central: tuple | None = None, where: str = "") -> bool:
    """Whether sum_k coef[t, k] M_k, the coefficients at the keys
    ``t * width + k`` and M_k the matrices with the entries ``(owner, flat,
    val)``, has exactly the nonzeros ``target`` at the ascending keys
    ``t * npos + position``: one join and two ``array_equal``. Modulo a
    ``central`` Z, entries (flat, value), both sides are mapped to
    z M - M[q] Z first (q Z's first position, z = Z[q]; the kernel is CZ)."""
    sides = [_contract(coef_keys % width, owner, coef, val, coef_keys // width,
                       flat, npos, where), (keys, target)]
    if central is not None:
        at, z = central
        for t, (ks, vs) in enumerate(sides):
            on_q = ks % npos == at[0]
            moved = (ks[on_q] - at[0])[:, None] + at
            sides[t] = _group_sum(
                np.concatenate([ks, moved.ravel()]),
                np.concatenate([z[0] * vs, (vs[on_q][:, None] * -z).ravel()]))
    (got_keys, got), (keys, target) = sides
    return np.array_equal(got_keys, keys) and np.array_equal(got, target)


def check_super_jacobi(alg: LieSuperAlgebra,
                       matrices: BasisMatrices | None = None) -> JacobiReport:
    """Exact check of the graded Jacobi identity as rho([e_i, e_j]) =
    [rho e_i, rho e_j] for every pair, the left side sum_k c[i, j, k]
    rho(e_k) of the stored constants.

    For ``matrices`` homogeneous of their vectors' parities and independent
    (:func:`_coordinates` inverted their Frobenius Gram when the constants
    were read from them), rho is injective and the constants are the
    pull-back of the supercommutator of homogeneous matrices, which is
    graded antisymmetric and graded Jacobi (Scheunert, LNM 716, 1979). A
    central matrix Z spans an ideal, so the sides are compared modulo Z, in
    the quotient, into which rho, independent with Z, is injective. With no
    matrices, or an entry off its matrix's parity, rho is ad, (ad e_i)[l, k]
    = c[i, k, l], and the check is the Jacobi identity: the coefficient of
    e_l in [[e_i, e_j], e_k] - [e_i, [e_j, e_k]]
    + (-1)**(p_i p_j) [e_j, [e_i, e_k]] is the sum at (i, j, k, l).

    A pass is (0.0, (0, 0, 0)). A failure reports the largest |sum| through
    ad, with its first (i, j, k) in (i, j, k, l) order as one sum over all
    triples finds it; through matrices, the largest |c[i, j, k] - x[i, j, k]|,
    x the coordinates :func:`_coordinates` reads from them, with its first
    (i, j, k). Refuses sums that could overflow int64 and joins over the
    bound.
    """
    n, p = alg.dim, alg.basis.parity_array()
    mats = matrices
    if mats is not None:
        row, col = np.divmod(mats.flat, mats.size)
        slot = (row >= mats.even_slot) ^ (col >= mats.even_slot)
        if not np.array_equal(slot, np.append(p, 0)[mats.owner]):
            mats = None  # an entry off its matrix's parity
    if mats is None:  # numerators over denom, as the constants' are
        mats = BasisMatrices(n, alg.index[:, 0], alg.index[:, 2] * n
                             + alg.index[:, 1], alg.numer, alg.dim_even, n)
    scale = alg.denom if mats is matrices else 1  # of the brackets' side
    on_z = mats.owner == n
    central = (mats.flat[on_z], mats.value[on_z]) if on_z.any() else None
    big = int(np.max(np.abs(alg.numer), initial=0))
    most = int(np.max(np.abs(mats.value), initial=0))
    # both sides' sums, z M - M[q] Z at most doubling them
    if (2 * scale * mats.size * most**2 + n * big * most) * (
            1 if central is None else 2 * most) >= 2**63 \
            or (n * mats.size) ** 2 >= 2**63:
        raise ValueError(f"Jacobi sums of a dim-{n} algebra with numerators "
                         f"up to {big} could overflow int64")
    where, npos = " in the Jacobi check", mats.size**2
    keys, target = mats.supercommutators(p, where)
    i, j, k = alg.index.T
    if _rebuilds((i * n + j) * n + k, alg.numer, n, mats.owner, mats.flat,
                 mats.value, npos, keys, scale * target, central, where):
        return JacobiReport(0.0, (0, 0, 0))
    if mats is matrices:
        span = n + (central is not None)
        xkeys, x, xden = _coordinates(keys, target, mats.owner, mats.flat,
                                      mats.value, span, npos)
        keep = xkeys % span < n  # the central coefficient is dropped
        triple, diff = _group_sum(
            np.concatenate([(i * n + j) * n + k,
                            xkeys[keep] // span * n + xkeys[keep] % span]),
            np.concatenate([alg.numer * xden, -alg.denom * x[keep]]))
        order, denom = triple, alg.denom * xden
    else:
        got_keys, got = _contract(k, mats.owner, alg.numer, mats.value,
                                  i * n + j, mats.flat, npos)
        at, diff = _group_sum(np.concatenate([got_keys, keys]),
                              np.concatenate([got, -target]))
        triple = at // npos * n + at % n  # (i, j, k) of the key (i, j, l, k)
        order, denom = triple * n + at % npos // n, alg.denom**2
    hits = np.flatnonzero(np.abs(diff) == np.abs(diff).max())
    first = int(triple[hits[np.argmin(order[hits])]])
    return JacobiReport(int(np.abs(diff).max()) / denom,
                        (first // (n * n), first // n % n, first % n))


def check_form(alg: LieSuperAlgebra, form: BilinearFormMatrix) -> FormReport:
    """Decide the four axioms of the exact ``form`` B from its integer
    nonzeros; refuses a float form. The residuals, over B's largest |entry|,
    are the largest |entry| of B on mixed parity, of B - S B^T with
    S = (-1)**(p_i p_j), and of B([e_i, e_j], e_k) - B(e_i, [e_j, e_k]), a
    join summed in int64 over the numerators' gcd (refused if it could
    overflow); the scaled determinant is |det B|, from its components'
    determinants, not its inverse, over the product of its row maxima."""
    n = alg.dim
    if form.dim != n:
        raise ValueError("form is not defined on this algebra's basis")
    keys, numer = form.block(range(n))  # refuses a float form
    row, col = np.divmod(keys, n)
    p = alg.basis.parity_array()
    row_max = np.zeros(n, dtype=np.int64)
    np.maximum.at(row_max, row, np.abs(numer))
    big = int(row_max.max(initial=0)) or 1
    common = int(np.gcd.reduce(numer, initial=0)) or 1
    if 2 * n * big * int(np.abs(alg.numer).max(initial=0)) >= 2**63 * common:
        raise ValueError(f"bi-invariance sums on dim {n} could overflow int64")
    # B - S B^T as Python ints, which the difference of two int64s may need
    _, skew = _group_sum(np.concatenate([keys, col * n + row]), np.concatenate(
        [numer, (2 * (p[row] & p[col]) - 1) * numer]).astype(object))
    _, diff = _group_sum(*_koszul_terms(alg, alg.numer, keys, numer // common,
                                        third=False)[:2])
    try:
        det = form._elimination[3] if row_max.all() else 0
    except DegeneracyError:
        det = 0
    return FormReport(
        int(np.abs(numer[p[row] != p[col]]).max(initial=0)) / big,
        max(map(abs, skew), default=0) / big,
        int(np.abs(diff).max(initial=0)) * common / (alg.denom * big),
        Fraction(det, math.prod(row_max.tolist()) or 1))


def _koszul_terms(alg: LieSuperAlgebra, c: np.ndarray, keys: np.ndarray,
                  vals: np.ndarray, third: bool) -> tuple:
    """Keys ``(i * n + j) * n + k``, values and g rows of the sparse terms
    of g([e_i, e_j], e_k) - g(e_i, [e_j, e_k]) and, with ``third``, of
    -(-1)**(p_i p_j) g(e_j, [e_i, e_k]): joins of the structure constants,
    valued ``c``, with the nonzeros ``vals`` of g at the flat ``keys``,
    in their dtype. Grouping them sums the terms per (i, j, k). Each term
    reads one entry of g, in the returned row, so a g with its rows scaled
    by d scales each term by d[row]."""
    n = alg.dim
    idx = alg.index
    rows, cols = np.divmod(keys, n)
    # c[i, j, m] g[m, k], then c[j, k, m] g[i, m]
    a, q = _join(idx[:, 2], rows)
    keys = [(idx[a, 0] * n + idx[a, 1]) * n + cols[q]]
    terms = [c[a] * vals[q]]
    read = [rows[q]]
    a, q = _join(idx[:, 2], cols)
    keys.append((rows[q] * n + idx[a, 0]) * n + idx[a, 1])
    terms.append(-(c[a] * vals[q]))
    read.append(rows[q])
    if third:
        # c[i, k, m] g[j, m]
        p = alg.basis.parity_array()
        sign = 2 * (p[idx[a, 0]] & p[rows[q]]) - 1
        keys.append((idx[a, 0] * n + rows[q]) * n + idx[a, 1])
        terms.append(sign * (c[a] * vals[q]))
        read.append(rows[q])
    return np.concatenate(keys), np.concatenate(terms), np.concatenate(read)


def exact_inverse(keys: np.ndarray, numer: np.ndarray,
                  size: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The inverse of the symmetric integer (size, size) matrix with the
    nonzeros ``numer`` at the ascending flat keys ``row * size + col``,
    exactly (ascending keys, numerators and one positive denominator), and
    its |det|; it raises as :func:`_eliminate` and :func:`_int64_inverse`."""
    return _int64_inverse(*_eliminate(keys, numer, size))


def _eliminate(keys: np.ndarray, numer: np.ndarray, size: int) -> tuple:
    """The inverses of the connected components of the nonzero pattern of
    the matrix of :func:`exact_inverse`, each a diagonal block of it and of
    its inverse: their entries' keys, numerators and positive denominators;
    and the matrix's |det|, the product of theirs. Those of one or two
    indices are inverted by their adjugates over their determinants, all at
    once, each larger one by fraction-free Gauss-Jordan, whose last pivot is
    its determinant. Raises DegeneracyError naming the indices of a singular
    component; refuses numerators that could overflow int64."""
    big = int(np.max(np.abs(numer), initial=0))
    if 2 * big * big >= 2**63:
        raise ValueError(f"numerators up to {big} could overflow int64")
    row, col = np.divmod(keys, size)
    label, least = None, np.arange(size)
    while label is None or (least != label).any():  # a component's least index
        label, least = least, least.copy()
        np.minimum.at(least, row, label[col])
        least = least[least]
    members = _order(label, stable=True)  # by component, ascending
    # place, the inverse permutation of members: where each index sits
    place = np.empty_like(members)
    place[members] = np.arange(size)
    counts = np.bincount(label, minlength=size)  # of each component, by label
    found, absdet = [], 1
    padded_keys, padded = np.append(keys, -1), np.append(numer, 0)
    for k in sorted(set(counts.tolist()) - {0}):
        index = members[place[counts == k][:, None] + np.arange(k)]
        flat = (index[:, :, None] * size + index[:, None]).reshape(-1, k * k)
        at = np.searchsorted(keys, flat)
        block = np.where(padded_keys[at] == flat, padded[at], 0)  # row-major
        if k == 1:
            adj, det = np.ones_like(block), block[:, 0]
        elif k == 2:  # [[a, b], [c, d]]: adjugate [[d, -b], [-c, a]]
            adj = block[:, [3, 1, 2, 0]] * [1, -1, -1, 1]
            det = block[:, 0] * block[:, 3] - block[:, 1] * block[:, 2]
        else:
            adj, det, pivot = zip(*map(_gauss_jordan,
                                       block.reshape(-1, k, k).tolist()))
            adj, det = np.reshape(adj, (-1, k * k)), np.array(det)
        if not det.all():
            bad = index[np.argmin(np.abs(det))].tolist()
            raise DegeneracyError(f"form is singular on the indices {bad}")
        absdet *= abs(math.prod(pivot if k > 2 else det.tolist()))
        found.append((flat.ravel(), (adj * np.sign(det)[:, None]).ravel(),
                      np.repeat(np.abs(det), k * k)))
    return (*map(np.concatenate, zip(*found)), absdet)


def _int64_inverse(keys: np.ndarray, adj: np.ndarray, det: np.ndarray,
                   absdet: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The :func:`exact_inverse` assembled from :func:`_eliminate`'s parts
    over one denominator; refuses numerators that could overflow int64."""
    denom = math.lcm(*set(det.tolist()))
    if denom * int(np.max(np.abs(adj))) >= 2**63:
        raise ValueError(f"an inverse over {denom} could overflow int64")
    keep = adj != 0
    order = _order(keys[keep])  # distinct: the components are disjoint
    return (keys[keep][order], (adj * (denom // det))[keep][order], denom,
            absdet)


def _gauss_jordan(a: list) -> tuple[list, int, int]:
    """D A^-1, D and the last pivot, +-det A, for a square integer matrix
    A, by fraction-free Gauss-Jordan elimination (Bareiss), whose divisions
    are exact, with D the last pivot over the gcd of all: A^-1 in lowest
    terms. The matrix itself, 0 and 0 when it is singular."""
    n = len(a)
    m = [row + [int(r == c) for c in range(n)] for r, row in enumerate(a)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return a, 0, 0
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col:
                f, p = m[r][col], m[col][col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], m[col])]
        prev = m[col][col]
    common = math.gcd(prev, *(v for row in m for v in row[n:]))
    return [[v // common for v in row[n:]] for row in m], prev // common, prev


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def algebra_to_json(alg: LieSuperAlgebra) -> dict:
    """Schema: dim_even, dim_odd, parity, sparse c triplets, decomposition;
    unchanged. ``c`` holds the rows [i, j, k, c_ijk, 0.0] as a structured
    array made from the algebra's arrays, with no Python list per row.
    ``cli._emit_json`` makes it into lists a block of records at a time, so
    the text is byte for byte what ``json.dumps`` wrote for the nested lists,
    which ``default=np.ndarray.tolist`` gives too. The float64 quotient
    ``numer / denom`` is the one Python's int division gives while both
    stay below 2**53 (the catalog's are two-digit)."""
    c = np.zeros(len(alg.numer), dtype="i8, i8, i8, f8, f8")
    for name, column in zip(c.dtype.names, [*alg.index.T,
                                            alg.numer / alg.denom]):
        c[name] = column
    return {
        "dim_even": alg.dim_even,
        "dim_odd": alg.dim_odd,
        "parity": [int(p) for p in alg.basis.parity],
        "c": c,
        "decomposition": [[r.start, r.stop, r.kind] for r in alg.decomposition],
    }


def form_to_json(form: BilinearFormMatrix) -> dict:
    """The Gram matrix and the axiom flags of a checked form's report;
    schema unchanged. The Gram is the form's dense view, which only this
    output reads; ``cli._emit_json`` makes it into lists a block of rows at
    a time, byte for byte as the nested lists of floats it stands for."""
    report = form.report
    return {
        "gram": form.gram,
        "flags": {
            "even": report.is_even,
            "supersymmetric": report.is_supersymmetric,
            "bi_invariant": report.is_bi_invariant,
            "nondegenerate": report.is_nondegenerate,
        },
    }
