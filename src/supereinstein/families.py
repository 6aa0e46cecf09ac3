"""Constructors for the classical matrix families and the scalar data catalog.

Realizations are built from sparse exact (Fraction) matrices, so their
structure constants are exact rationals; the algebra stores them once, and
every float view derives from them. The case2/6/7 canonical forms are
computed exactly from the defining matrices and stored as float Gram
matrices. The exceptional families F(4) and G(3), and the one-parameter
deformation family at alpha != 1, exist only at the data-catalog level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import invariants
from .supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    SuperBasis,
    check_form,
    killing_form,
)

Sparse = dict  # {(row, col): Fraction}

REALIZATION_MATCH_TOL = 1e-9
# Largest dense (dim, dim, dim) float64 structure tensor a realization may
# allocate: dim <= 406.
MAX_DENSE_BYTES = 512 * 2**20


# ---------------------------------------------------------------------------
# Specs and scalar data
# ---------------------------------------------------------------------------

KINDS = ("A", "Ann", "B", "C", "D", "Dn1n", "D21a", "F4", "G3")


@dataclass(frozen=True)
class FamilySpec:
    """Canonical family identifier; use :func:`family_spec` to construct."""

    kind: str
    m: Optional[int] = None
    n: Optional[int] = None
    alpha: Optional[float] = None

    @property
    def name(self) -> str:
        if self.kind == "A":
            return f"A({self.m},{self.n})"
        if self.kind == "Ann":
            return f"A({self.n},{self.n})"
        if self.kind == "B":
            return f"B({self.m},{self.n})"
        if self.kind == "C":
            return f"C({self.n})"
        if self.kind == "D":
            return f"D({self.m},{self.n})"
        if self.kind == "Dn1n":
            return f"D({self.n + 1},{self.n})"
        if self.kind == "D21a":
            return f"D(2,1;{self.alpha:g})"
        return {"F4": "F(4)", "G3": "G(3)"}[self.kind]

    @property
    def realizable(self) -> bool:
        if self.kind in ("F4", "G3"):
            return False
        if self.kind == "D21a":
            return self.alpha == 1.0
        return True


def family_spec(family: str, m: Optional[int] = None, n: Optional[int] = None,
                alpha: Optional[float] = None) -> FamilySpec:
    """Validate parameters and route to the canonical family kind.

    A with m = n routes to the quotient family; D with m - n = 1 routes to
    the degenerate-Killing series (and to the three-ideal family at n = 1).
    """
    family = family.strip()
    if family in ("F4", "G3"):
        return FamilySpec(family)
    if family == "D21a":
        if alpha is None:
            raise ValueError("D21a requires alpha")
        if alpha in (0.0, -1.0):
            raise ValueError("alpha must avoid 0 and -1")
        return FamilySpec("D21a", alpha=float(alpha))
    if family == "A":
        if m is None or n is None or m < 0 or n < 0:
            raise ValueError("A requires m, n >= 0")
        if m == n:
            if n < 1:
                raise ValueError("A(0,0) has a trivial even part")
            return FamilySpec("Ann", n=n)
        return FamilySpec("A", m=m, n=n)
    if family == "B":
        if m is None or n is None or m < 0 or n < 1:
            raise ValueError("B requires m >= 0, n >= 1")
        return FamilySpec("B", m=m, n=n)
    if family == "C":
        if n is None or n < 3:
            raise ValueError("C requires n >= 3")
        return FamilySpec("C", n=n)
    if family == "D":
        if m is None or n is None or m < 2 or n < 1:
            raise ValueError("D requires m >= 2, n >= 1")
        if m - n == 1:
            if n == 1:
                return FamilySpec("D21a", alpha=1.0)
            return FamilySpec("Dn1n", n=n)
        return FamilySpec("D", m=m, n=n)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class FamilyData:
    """Per-family scalars driving the Einstein system.

    Arrays are aligned with the simple ideals k_1..k_s; the abelian summand
    k_0, when present, is carried by dim_k0/gamma0. All ratios are exact.
    """

    dim_k0: int
    dim_k: tuple[int, ...]
    dim_odd: int
    l: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    gamma0: Optional[Fraction]
    killing_nondegenerate: bool
    form_kind: str  # killing | case2 | case6 | case7

    @property
    def s(self) -> int:
        return len(self.dim_k)

    @property
    def has_k0(self) -> bool:
        return self.dim_k0 > 0

    @property
    def n_params(self) -> int:
        return self.s + (1 if self.has_k0 else 0)


def _gamma(l: Fraction, d: int, b: Fraction, dim_odd: int) -> Fraction:
    return l * d / (b * dim_odd)


def family_data(spec: FamilySpec) -> FamilyData:
    """All scalar data for a valid spec; total and pure."""
    F = Fraction
    k = spec.kind
    if k == "A":
        m, n = spec.m, spec.n
        big, small = m + 1, n + 1
        dim_odd = 2 * big * small
        dims, ls = [], []
        if big >= 2:
            dims.append(big * big - 1)
            ls.append(F(small, big))
        if small >= 2:
            dims.append(small * small - 1)
            ls.append(F(big, small))
        bs = [1 - l for l in ls]
        gs = [_gamma(l, d, b, dim_odd) for l, d, b in zip(ls, dims, bs)]
        return FamilyData(1, tuple(dims), dim_odd, tuple(ls), tuple(bs),
                          tuple(gs), F(-1, dim_odd), True, "killing")
    if k == "Ann":
        n = spec.n
        d = n * (n + 2)
        dim_odd = 2 * (n + 1) ** 2
        g = F(d, dim_odd)
        return FamilyData(0, (d, d), dim_odd, (F(1), F(1)), (F(1), F(-1)),
                          (g, -g), None, False, "case2")
    if k == "B":
        m, n = spec.m, spec.n
        dim_odd = 2 * n * (2 * m + 1)
        dims, ls = [], []
        if m >= 1:
            dims.append(m * (2 * m + 1))
            ls.append(F(2 * n, 2 * m - 1))
        dims.append(n * (2 * n + 1))
        ls.append(F(2 * m + 1, 2 * n + 2))
        bs = [1 - l for l in ls]
        gs = [_gamma(l, d, b, dim_odd) for l, d, b in zip(ls, dims, bs)]
        return FamilyData(0, tuple(dims), dim_odd, tuple(ls), tuple(bs),
                          tuple(gs), None, True, "killing")
    if k == "C":
        n = spec.n
        dim_odd = 4 * (n - 1)
        d1 = (n - 1) * (2 * n - 1)
        l1 = F(1, n)
        b1 = 1 - l1
        return FamilyData(1, (d1,), dim_odd, (l1,), (b1,),
                          (_gamma(l1, d1, b1, dim_odd),), F(-1, dim_odd),
                          True, "killing")
    if k == "D":
        m, n = spec.m, spec.n
        dim_odd = 4 * m * n
        dims = (m * (2 * m - 1), n * (2 * n + 1))
        ls = (F(n, m - 1), F(m, n + 1))
        bs = tuple(1 - l for l in ls)
        gs = tuple(_gamma(l, d, b, dim_odd) for l, d, b in zip(ls, dims, bs))
        return FamilyData(0, dims, dim_odd, ls, bs, gs, None, True, "killing")
    if k == "Dn1n":
        n = spec.n
        dims = ((n + 1) * (2 * n + 1), n * (2 * n + 1))
        g = F(2 * n + 1, 4 * n)
        return FamilyData(0, dims, 4 * n * (n + 1), (F(1), F(1)),
                          (F(1), F(-n, n + 1)), (g, -g), None, False, "case6")
    if k == "D21a":
        return FamilyData(0, (3, 3, 3), 8, (F(1), F(1), F(1)),
                          (F(1), F(1), F(-1, 2)),
                          (F(3, 8), F(3, 8), F(-3, 4)), None, False, "case7")
    if k == "F4":
        ls = (F(2, 5), F(2))
        bs = tuple(1 - l for l in ls)
        gs = tuple(_gamma(l, d, b, 16) for l, d, b in zip(ls, (21, 3), bs))
        return FamilyData(0, (21, 3), 16, ls, bs, gs, None, True, "killing")
    if k == "G3":
        ls = (F(1, 2), F(7, 4))
        bs = tuple(1 - l for l in ls)
        gs = tuple(_gamma(l, d, b, 14) for l, d, b in zip(ls, (14, 3), bs))
        return FamilyData(0, (14, 3), 14, ls, bs, gs, None, True, "killing")
    raise ValueError(f"unknown kind {k!r}")


def catalog(max_m: int, max_n: Optional[int] = None) -> list[FamilySpec]:
    """Deterministic enumeration of all valid specs within the bounds.

    A(m,n) is canonicalized to m > n (the two orderings give isomorphic
    algebras). The D enumeration routes m - n = 1 entries to their
    degenerate-Killing kinds; the exceptional trio and a non-realizable
    deformation sample are always appended.
    """
    if max_n is None:
        max_n = max_m
    specs: list[FamilySpec] = []
    for m in range(1, max_m + 1):
        for n in range(0, min(m - 1, max_n) + 1):
            if m != n:
                specs.append(family_spec("A", m, n))
    for n in range(1, max_n + 1):
        specs.append(family_spec("A", n, n))
    for m in range(0, max_m + 1):
        for n in range(1, max_n + 1):
            specs.append(family_spec("B", m, n))
    for n in range(3, max_n + 1):
        specs.append(family_spec("C", n=n))
    for m in range(2, max_m + 1):
        for n in range(1, max_n + 1):
            specs.append(family_spec("D", m, n))
    specs.append(family_spec("D21a", alpha=2.5))
    specs.append(family_spec("F4"))
    specs.append(family_spec("G3"))
    # dedupe while preserving order (D(2,1) routes to the alpha=1 kind once)
    seen: set = set()
    out = []
    for sp in specs:
        if sp not in seen:
            seen.add(sp)
            out.append(sp)
    return out


# ---------------------------------------------------------------------------
# Sparse exact matrix helpers
# ---------------------------------------------------------------------------


def _mat_mul(a: Sparse, b: Sparse) -> Sparse:
    rows: dict = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: Sparse = {}
    for (r, c1), v in a.items():
        for c2, w in rows.get(c1, ()):
            key = (r, c2)
            s = out.get(key, 0) + v * w
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _mat_sub(a: Sparse, b: Sparse, factor=1) -> Sparse:
    out = dict(a)
    for key, v in b.items():
        s = out.get(key, 0) - factor * v
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _super_commutator(a: Sparse, b: Sparse, pa: int, pb: int) -> Sparse:
    sign = -1 if (pa and pb) else 1
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a), factor=sign)


def _str_exact(mat: Sparse, even_slot: int) -> Fraction:
    tot = Fraction(0)
    for (r, c), v in mat.items():
        if r == c:
            tot += v if r < even_slot else -v
    return tot


def _dense(mat: Sparse, size: int) -> np.ndarray:
    out = np.zeros((size, size))
    for (r, c), v in mat.items():
        out[r, c] = float(v)
    return out


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """A matrix-realized family: algebra, canonical and Killing forms, and
    catalog data."""

    spec: FamilySpec
    algebra: LieSuperAlgebra
    canonical_form: BilinearFormMatrix
    killing: BilinearFormMatrix
    data: FamilyData
    matrices: tuple  # dense defining matrices, aligned with the basis
    rep_dims: tuple[int, int]  # (even slot, odd slot) of the defining space

    @property
    def name(self) -> str:
        return self.spec.name

    @cached_property
    def casimirs(self) -> dict:
        """Casimir result on the odd part, under the canonical form, for
        each decomposition range; computed once, on first use."""
        return {rng: invariants.casimir_on_odd(self.algebra,
                                               self.canonical_form, rng)
                for rng in self.algebra.decomposition}

    @cached_property
    def representation_indices(self) -> dict:
        """Representation index of each simple ideal on the odd part;
        computed once, on first use."""
        return {rng: invariants.representation_index(self.algebra, rng)
                for rng in self.algebra.simple_ideals()}


def _assemble(spec: FamilySpec, elems: list, decomposition, coordinatize,
              even_slot: int, odd_slot: int, form_scale: Optional[int]):
    """Common constructor tail: structure constants, algebra, canonical form.

    ``elems`` is a list of (sparse matrix, parity, label). ``form_scale``
    selects the canonical form: None means the Killing form, an integer t
    means t * str(XY) computed from the defining matrices.
    """
    dim = len(elems)
    if 8 * dim**3 > MAX_DENSE_BYTES:
        raise ValueError(f"{spec.name}: the dense structure tensor of dim {dim} "
                         f"needs {8 * dim**3 / 2**30:.1f} GiB, over the "
                         f"{MAX_DENSE_BYTES // 2**20} MiB limit")
    mats = [e[0] for e in elems]
    parity = tuple(e[1] for e in elems)
    labels = tuple(e[2] for e in elems)
    entries: dict = {}
    for i in range(dim):
        for j in range(i, dim):
            prod = _super_commutator(mats[i], mats[j], parity[i], parity[j])
            coords = coordinatize(prod, (parity[i] + parity[j]) % 2)
            sign = -1 if (parity[i] and parity[j]) else 1
            for idx, val in coords.items():
                entries[(i, j, idx)] = val
                if i != j:
                    entries[(j, i, idx)] = -sign * val
    alg = LieSuperAlgebra(SuperBasis(parity, labels), entries, tuple(decomposition))
    killing = killing_form(alg)
    if form_scale is None:
        form = killing
    else:
        gram = np.array([[float(form_scale * _str_exact(_mat_mul(a, b), even_slot))
                          for b in mats] for a in mats])
        report = check_form(alg, BilinearFormMatrix(gram))
        form = BilinearFormMatrix(
            gram,
            even=report.is_even,
            supersymmetric=report.is_supersymmetric,
            bi_invariant=report.is_bi_invariant,
            nondegenerate=report.is_nondegenerate,
            report=report,
        )
    size = even_slot + odd_slot
    dense = tuple(_dense(m, size) for m in mats)
    return Realization(spec, alg, form, killing, family_data(spec), dense,
                       (even_slot, odd_slot))


# -- special linear ----------------------------------------------------------


def _sl_block_elems(offset: int, size: int, prefix: str) -> list:
    """Traceless basis of one diagonal block: H's first, then off-diagonal."""
    one = Fraction(1)
    elems = []
    for a in range(size - 1):
        elems.append(({(offset + a, offset + a): one,
                       (offset + a + 1, offset + a + 1): -one}, 0,
                      f"{prefix}:H{a}"))
    for a in range(size):
        for bcol in range(size):
            if a != bcol:
                elems.append(({(offset + a, offset + bcol): one}, 0,
                              f"{prefix}:E({a},{bcol})"))
    return elems


def _expand_traceless_diag(diag: list, elems_per_h: int) -> list:
    """Coefficients on H_a = E_aa - E_(a+1)(a+1) for a traceless diagonal."""
    coeffs = []
    acc = Fraction(0)
    for a in range(elems_per_h):
        acc += diag[a]
        coeffs.append(acc)
    return coeffs


def build_sl_super(m: int, n: int) -> Realization:
    """Supertraceless (m+1|n+1) matrices; canonical form is the Killing form."""
    if m == n:
        raise ValueError("m = n gives a degenerate Killing form; use build_psl")
    if m < 0 or n < 0:
        raise ValueError("require m, n >= 0")
    spec = family_spec("A", m, n)
    big, small = m + 1, n + 1
    size = big + small
    one = Fraction(1)

    elems = [({(a, a): Fraction(small) for a in range(big)}
              | {(big + a, big + a): Fraction(big) for a in range(small)},
              0, "Z0")]
    decomposition = [DecompositionRange(0, 1, "abelian")]
    pos = 1
    if big >= 2:
        elems += _sl_block_elems(0, big, "k1")
        decomposition.append(DecompositionRange(pos, pos + big * big - 1, "simple"))
        pos += big * big - 1
    if small >= 2:
        elems += _sl_block_elems(big, small, "k2")
        decomposition.append(DecompositionRange(pos, pos + small * small - 1, "simple"))
        pos += small * small - 1
    for a in range(big):
        for bcol in range(small):
            elems.append(({(a, big + bcol): one}, 1, f"odd:Y({a},{bcol})"))
    for a in range(small):
        for bcol in range(big):
            elems.append(({(big + a, bcol): one}, 1, f"odd:Z({a},{bcol})"))

    def coordinatize(mat: Sparse, parity: int) -> dict:
        coords: dict = {}
        if parity == 1:
            base = 1 + (big * big - 1 if big >= 2 else 0) \
                     + (small * small - 1 if small >= 2 else 0)
            for (r, c), v in mat.items():
                if r < big:
                    coords[base + r * small + (c - big)] = v
                else:
                    coords[base + big * small + (r - big) * big + c] = v
            return coords
        trx = sum(mat.get((a, a), Fraction(0)) for a in range(big))
        z0 = trx / (big * small)
        if z0:
            coords[0] = z0
        pos_k = 1
        for offset, blk in ((0, big), (big, small)):
            if blk < 2:
                continue
            diag = [mat.get((offset + a, offset + a), Fraction(0))
                    - z0 * (small if offset == 0 else big) for a in range(blk)]
            for a, v in enumerate(_expand_traceless_diag(diag, blk - 1)):
                if v:
                    coords[pos_k + a] = v
            idx = pos_k + blk - 1
            for a in range(blk):
                for ccol in range(blk):
                    if a != ccol:
                        v = mat.get((offset + a, offset + ccol), Fraction(0))
                        if v:
                            coords[idx] = v
                        idx += 1
            pos_k += blk * blk - 1
        return coords

    return _assemble(spec, elems, decomposition, coordinatize, big, small, None)


def build_psl(n: int) -> Realization:
    """Quotient of supertraceless (n+1|n+1) matrices by the identity.

    Representatives are chosen with both diagonal blocks traceless; the
    bracket projects along the identity, which keeps structure constants
    rational. The canonical form is 2(n+1) str(XY) on representatives.
    """
    if n < 1:
        raise ValueError("require n >= 1")
    spec = family_spec("A", n, n)
    blk = n + 1
    size = 2 * blk
    one = Fraction(1)
    d = blk * blk - 1

    elems = _sl_block_elems(0, blk, "k1") + _sl_block_elems(blk, blk, "k2")
    decomposition = [DecompositionRange(0, d, "simple"),
                     DecompositionRange(d, 2 * d, "simple")]
    for a in range(blk):
        for bcol in range(blk):
            elems.append(({(a, blk + bcol): one}, 1, f"odd:Y({a},{bcol})"))
    for a in range(blk):
        for bcol in range(blk):
            elems.append(({(blk + a, bcol): one}, 1, f"odd:Z({a},{bcol})"))

    def coordinatize(mat: Sparse, parity: int) -> dict:
        coords: dict = {}
        if parity == 1:
            for (r, c), v in mat.items():
                if r < blk:
                    coords[2 * d + r * blk + (c - blk)] = v
                else:
                    coords[2 * d + blk * blk + (r - blk) * blk + c] = v
            return coords
        # project along the identity: both blocks become traceless
        trx = sum(mat.get((a, a), Fraction(0)) for a in range(blk))
        lam = trx / blk
        for offset, pos_k in ((0, 0), (blk, d)):
            diag = [mat.get((offset + a, offset + a), Fraction(0)) - lam
                    for a in range(blk)]
            for a, v in enumerate(_expand_traceless_diag(diag, blk - 1)):
                if v:
                    coords[pos_k + a] = v
            idx = pos_k + blk - 1
            for a in range(blk):
                for ccol in range(blk):
                    if a != ccol:
                        v = mat.get((offset + a, offset + ccol), Fraction(0))
                        if v:
                            coords[idx] = v
                        idx += 1
        return coords

    return _assemble(spec, elems, decomposition, coordinatize, blk, blk,
                     2 * blk)


# -- orthosymplectic ---------------------------------------------------------


def build_osp(l: int, k: int) -> Realization:
    """Matrices skew-supersymmetric for the standard form on C^(l|k).

    The form is the identity on the even slot and the standard symplectic
    matrix on the odd slot. Covers B(m,n) at l = 2m+1, D(m,n) at l = 2m,
    C(n) at (2, 2n-2) and the three-ideal family at (4, 2).
    """
    if k < 2 or k % 2:
        raise ValueError("require k even and >= 2")
    if l < 1:
        raise ValueError("require l >= 1")
    if l % 2:
        spec = family_spec("B", (l - 1) // 2, k // 2)
    elif l == 2:
        spec = family_spec("C", n=k // 2 + 1)
    else:
        spec = family_spec("D", l // 2, k // 2)
    q = k // 2
    one = Fraction(1)
    split_so4 = spec.kind == "D21a"

    so_pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]

    def so_mat(i, j):
        return {(i, j): one, (j, i): -one}

    elems: list = []
    decomposition: list = []
    pos = 0
    if split_so4:
        # so(4) = two commuting 3-dimensional ideals (self-dual halves)
        sd = [((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1)]
        for tag, sgn in (("k1", 1), ("k2", -1)):
            for (p1, p2, eps) in sd:
                mat = _mat_sub(so_mat(*p1), so_mat(*p2), factor=-sgn * eps)
                elems.append((mat, 0, f"{tag}:S{p1}"))
            decomposition.append(DecompositionRange(pos, pos + 3, "simple"))
            pos += 3
    elif l >= 2:
        for (i, j) in so_pairs:
            elems.append((so_mat(i, j), 0, f"so:A({i},{j})"))
        kind = "abelian" if l == 2 else "simple"
        decomposition.append(DecompositionRange(pos, pos + len(so_pairs), kind))
        pos += len(so_pairs)

    sp_start = pos
    for a in range(q):
        for bcol in range(q):
            elems.append(({(l + a, l + bcol): one,
                           (l + q + bcol, l + q + a): -one}, 0, f"sp:P({a},{bcol})"))
    for a in range(q):
        for bcol in range(a, q):
            mat = {(l + a, l + q + bcol): one}
            if a != bcol:
                mat[(l + bcol, l + q + a)] = one
            elems.append((mat, 0, f"sp:Q({a},{bcol})"))
    for a in range(q):
        for bcol in range(a, q):
            mat = {(l + q + a, l + bcol): one}
            if a != bcol:
                mat[(l + q + bcol, l + a)] = one
            elems.append((mat, 0, f"sp:R({a},{bcol})"))
    sp_dim = q * (2 * q + 1)
    decomposition.append(DecompositionRange(sp_start, sp_start + sp_dim, "simple"))
    even_dim = sp_start + sp_dim

    for r in range(k):
        for s in range(l):
            mat = {(l + r, s): one}
            if r < q:
                mat[(s, l + q + r)] = -one
            else:
                mat[(s, l + r - q)] = one
            elems.append((mat, 1, f"odd:M({r},{s})"))

    n_sym = q * (q + 1) // 2

    def coordinatize(mat: Sparse, parity: int) -> dict:
        coords: dict = {}
        if parity == 1:
            for (r, c), v in mat.items():
                if r >= l and c < l:
                    coords[even_dim + (r - l) * l + c] = v
            return coords
        if split_so4:
            alpha = {(i, j): mat.get((i, j), Fraction(0)) for (i, j) in so_pairs}
            half = Fraction(1, 2)
            sd = [((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1)]
            for t, (p1, p2, eps) in enumerate(sd):
                coords_val = (alpha[p1] + eps * alpha[p2]) * half
                if coords_val:
                    coords[t] = coords_val
                coords_val = (alpha[p1] - eps * alpha[p2]) * half
                if coords_val:
                    coords[3 + t] = coords_val
        elif l >= 2:
            for idx, (i, j) in enumerate(so_pairs):
                v = mat.get((i, j), Fraction(0))
                if v:
                    coords[idx] = v
        idx = sp_start
        for a in range(q):
            for bcol in range(q):
                v = mat.get((l + a, l + bcol), Fraction(0))
                if v:
                    coords[idx] = v
                idx += 1
        for a in range(q):
            for bcol in range(a, q):
                v = mat.get((l + a, l + q + bcol), Fraction(0))
                if v:
                    coords[idx] = v
                idx += 1
        for a in range(q):
            for bcol in range(a, q):
                v = mat.get((l + q + a, l + bcol), Fraction(0))
                if v:
                    coords[idx] = v
                idx += 1
        return coords

    data = family_data(spec)
    if data.form_kind == "case6":
        form_scale = 2 * spec.n
    elif data.form_kind == "case7":
        form_scale = 2
    else:
        form_scale = None
    return _assemble(spec, elems, decomposition, coordinatize, l, k, form_scale)


# ---------------------------------------------------------------------------
# Dispatch and checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def realize(spec: FamilySpec) -> Realization:
    """Build (and cache) the matrix realization for a realizable spec."""
    if not spec.realizable:
        raise ValueError(f"{spec.name} has no matrix realization here; "
                         "it is handled at the equation layer only")
    if spec.kind == "A":
        return build_sl_super(spec.m, spec.n)
    if spec.kind == "Ann":
        return build_psl(spec.n)
    if spec.kind == "B":
        return build_osp(2 * spec.m + 1, 2 * spec.n)
    if spec.kind == "C":
        return build_osp(2, 2 * spec.n - 2)
    if spec.kind == "D":
        return build_osp(2 * spec.m, 2 * spec.n)
    if spec.kind == "Dn1n":
        return build_osp(2 * spec.n + 2, 2 * spec.n)
    if spec.kind == "D21a":
        return build_osp(4, 2)
    raise ValueError(f"unknown kind {spec.kind!r}")


def verify_realization(real: Realization) -> dict:
    """Recompute dims, indices and b-ratios and compare with the catalog."""
    data = real.data
    alg = real.algebra
    report: dict = {"family": real.name, "pass": True}
    k0 = alg.abelian_ideal()
    checks = {
        "dim_k0": (k0.dim if k0 else 0, data.dim_k0),
        "dim_k": (tuple(r.dim for r in alg.simple_ideals()), data.dim_k),
        "dim_odd": (alg.dim_odd, data.dim_odd),
    }
    for key, (got, want) in checks.items():
        report[key] = {"computed": got, "catalog": want}
        report["pass"] &= got == want
    l_res, b_res = [], []
    for ideal, l_cat, b_cat in zip(alg.simple_ideals(), data.l, data.b):
        l_fit = real.representation_indices[ideal]
        b_fit = invariants.b_ratio(alg, real.canonical_form, ideal)
        l_res.append(abs(l_fit - float(l_cat)))
        b_res.append(abs(b_fit - float(b_cat)))
    report["index_residual"] = max(l_res, default=0.0)
    report["b_ratio_residual"] = max(b_res, default=0.0)
    report["pass"] &= report["index_residual"] < REALIZATION_MATCH_TOL
    report["pass"] &= report["b_ratio_residual"] < REALIZATION_MATCH_TOL
    report["pass"] = bool(report["pass"])
    return report
