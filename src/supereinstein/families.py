"""Constructors for the classical matrix families and the scalar data catalog.

Each family's record names the basis function that states its basis once,
as (sparse integer matrix, parity, label) triples, and ``realize`` is the
one constructor. ``_assemble`` forms every super-commutator from the
matrices' entries and reads its coordinates through the exact inverse of
the sparse integer Frobenius Gram, checking that they rebuild the bracket,
so the structure constants are exact rationals, which the algebra stores
once. The case2/6/7 canonical forms are exact supertrace forms of the same
matrices, like the Killing form, and the realized l, b and gamma are
rationals that must equal the catalog's. The realization keeps the basis
matrices, which the Jacobi check reads again. Every join of entries, here
and downstream, refuses a pair count over ``supercore.MAX_JOIN_PAIRS``
before allocating it, and ``realize`` its first join from the record; only
``build``, which prints the dense Gram, refuses a family over
``supercore.MAX_DENSE_ENTRIES``. The exceptional families F(4) and G(3),
and the one-parameter deformation family at alpha != 1, exist only at the
data-catalog level.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from . import curvature, invariants, supercore
from .supercore import (
    BasisMatrices,
    BilinearFormMatrix,
    DecompositionRange,
    LieSuperAlgebra,
    SuperBasis,
    _contract,
    _coordinates,
    exact_form,
    killing_form,
)


# ---------------------------------------------------------------------------
# Specs and scalar data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One family's record; use :func:`family_spec` to construct.

    ``kind``, ``m``, ``n`` and ``alpha`` identify the family; the rest is
    stated once per kind by :func:`family_spec`: the display name, the
    catalog ``data``, the ``basis`` :func:`realize` builds from (a
    module-level basis function and its arguments, so a record pickles;
    None when the family has no matrix realization here), the scale t of the
    canonical form t str(XY) that ``data.b`` is measured against (None for
    the Killing form), the pairs of isomorphic simple ideals that can
    merge in a real form, and the paper's two claims about the family:
    exactly one Einstein metric (``single_metric``), and both Ricci-flat and
    non-Ricci-flat ones (``flat_and_nonflat``).
    """

    kind: str
    m: Optional[int] = None
    n: Optional[int] = None
    alpha: Optional[float] = None
    _: KW_ONLY
    name: str
    data: FamilyData = field(repr=False)
    basis: Optional[tuple] = field(default=None, repr=False)
    form_scale: Optional[int] = None
    folding: tuple[tuple[int, int], ...] = ()
    single_metric: bool = False
    flat_and_nonflat: bool = False

    @property
    def realizable(self) -> bool:
        return self.basis is not None

    def count_as_claimed(self, found: int) -> bool:
        """Whether ``found`` Einstein metrics is what the paper claims:
        exactly one when ``single_metric``, at least two otherwise."""
        return found == 1 if self.single_metric else found >= 2


# the parameters each family takes
_PARAMS = {"A": ("m", "n"), "B": ("m", "n"), "C": ("n",), "D": ("m", "n"),
           "D21a": ("alpha",), "F4": (), "G3": ()}


def family_spec(family: str, m: Optional[int] = None, n: Optional[int] = None,
                alpha: Optional[float] = None) -> FamilySpec:
    """Validate parameters, route to the canonical family kind and fill its
    record.

    A with m = n routes to the quotient family; D with m - n = 1 routes to
    the degenerate-Killing series (and to the three-ideal family at n = 1).
    A parameter the family does not take is refused.
    """
    F = Fraction
    family = family.strip()
    if family not in _PARAMS:
        raise ValueError(f"unknown family {family!r}")
    extra = [k for k, v in (("m", m), ("n", n), ("alpha", alpha))
             if v is not None and k not in _PARAMS[family]]
    if extra:
        raise ValueError(f"{family} takes no {' or '.join(extra)}")
    if family == "F4":
        return FamilySpec("F4", name="F(4)",
                          data=_data("killing", (21, 3), 16, (F(2, 5), F(2))),
                          single_metric=True)
    if family == "G3":
        return FamilySpec("G3", name="G(3)",
                          data=_data("killing", (14, 3), 14, (F(1, 2), F(7, 4))))
    if family == "D21a":
        if alpha is None:
            raise ValueError("D21a requires alpha")
        if alpha in (0.0, -1.0):
            raise ValueError("alpha must avoid 0 and -1")
        alpha = float(alpha)
        return FamilySpec("D21a", alpha=alpha, name=f"D(2,1;{alpha:g})",
                          basis=(_d21_basis,) if alpha == 1.0 else None,
                          data=_data("case7", (3, 3, 3), 8, (F(1), F(1), F(1)),
                                     (F(1), F(1), F(-1, 2))),
                          form_scale=2, folding=((0, 1),),
                          flat_and_nonflat=True)
    if family == "A":
        if m is None or n is None or m < 0 or n < 0:
            raise ValueError("A requires m, n >= 0")
        if m == n:
            if n < 1:
                raise ValueError("A(0,0) has a trivial even part")
            d = n * (n + 2)
            return FamilySpec("Ann", n=n, name=f"A({n},{n})",
                              data=_data("case2", (d, d), 2 * (n + 1) ** 2,
                                         (F(1), F(1)), (F(1), F(-1))),
                              basis=(_sl_basis, n, n), form_scale=2 * (n + 1),
                              folding=((0, 1),))
        big, small = m + 1, n + 1
        dims, ls = [], []
        if big >= 2:
            dims.append(big * big - 1)
            ls.append(F(small, big))
        if small >= 2:
            dims.append(small * small - 1)
            ls.append(F(big, small))
        return FamilySpec("A", m, n, name=f"A({m},{n})",
                          data=_data("killing", dims, 2 * big * small, ls,
                                     dim_k0=1),
                          basis=(_sl_basis, m, n), single_metric=True)
    if family == "B":
        if m is None or n is None or m < 0 or n < 1:
            raise ValueError("B requires m >= 0, n >= 1")
        dims, ls = [], []
        if m >= 1:
            dims.append(m * (2 * m + 1))
            ls.append(F(2 * n, 2 * m - 1))
        dims.append(n * (2 * n + 1))
        ls.append(F(2 * m + 1, 2 * n + 2))
        return FamilySpec("B", m, n, name=f"B({m},{n})",
                          data=_data("killing", dims, 2 * n * (2 * m + 1), ls),
                          basis=(_osp_basis, 2 * m + 1, 2 * n))
    if family == "C":
        if n is None or n < 3:
            raise ValueError("C requires n >= 3")
        return FamilySpec("C", n=n, name=f"C({n})",
                          data=_data("killing", ((n - 1) * (2 * n - 1),),
                                     4 * (n - 1), (F(1, n),), dim_k0=1),
                          basis=(_osp_basis, 2, 2 * n - 2))
    if family == "D":
        if m is None or n is None or m < 2 or n < 1:
            raise ValueError("D requires m >= 2, n >= 1")
        if (m, n) == (2, 1):
            return family_spec("D21a", alpha=1.0)
        if m - n == 1:
            return FamilySpec("Dn1n", n=n, name=f"D({m},{n})",
                              data=_data("case6", (m * (2 * m - 1),
                                                   n * (2 * n + 1)),
                                         4 * n * m, (F(1), F(1)),
                                         (F(1), F(-n, m))),
                              basis=(_osp_basis, 2 * m, 2 * n),
                              form_scale=2 * n, flat_and_nonflat=True)
        return FamilySpec("D", m, n, name=f"D({m},{n})",
                          data=_data("killing", (m * (2 * m - 1), n * (2 * n + 1)),
                                     4 * m * n, (F(n, m - 1), F(m, n + 1))),
                          basis=(_osp_basis, 2 * m, 2 * n))


@dataclass(frozen=True)
class FamilyData:
    """Per-family scalars driving the Einstein system.

    Arrays are aligned with the simple ideals k_1..k_s; the abelian summand
    k_0, when present, is carried by dim_k0/gamma0. All ratios are exact.
    In the scaling variables x and the Einstein constant c, the system for
    the family's canonical form is:

    * ``c = -x0/4`` when the abelian block is present (canonical form only);
    * ``(l_i x_i^2 - 1)/4 = c b_i x_i`` for each simple ideal;
    * ``gamma_0 x_0 + sum_i gamma_i x_i = 2 c + trace_rhs`` where
      ``trace_rhs = 2 (gamma_0 + sum gamma_i)`` (1 for the canonical form on
      a non-degenerate-Killing family, 0 for the degenerate-Killing ones).

    Every index l_i is positive, so each quadratic has two real roots x_i
    for every c, each monotone in c; a record with some l_i <= 0 is
    refused. :func:`_data` derives b and gamma: on the Killing form, which
    restricts to (1 - l_i) K_i on k_i, ``b_i = 1 - l_i``; for every form,
    the Casimir scalars on the odd part obey the trace identities
    ``gamma_i dim_odd = l_i dim k_i / b_i`` and ``gamma_0 dim_odd = -dim_k0``.
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
    trace_rhs: Fraction

    def __post_init__(self):
        if any(l <= 0 for l in self.l):
            raise ValueError(f"every index l_i must be positive, got "
                             f"{[str(l) for l in self.l]}")

    @property
    def s(self) -> int:
        return len(self.dim_k)

    @property
    def has_k0(self) -> bool:
        return self.dim_k0 > 0

    @property
    def n_params(self) -> int:
        return self.s + (1 if self.has_k0 else 0)


def _data(form_kind: str, dim_k, dim_odd: int, l, b=None,
          dim_k0: int = 0) -> FamilyData:
    """The record of a family from its dimensions and indices, with b given
    only off the Killing form; the rest follows (see :class:`FamilyData`)."""
    if form_kind == "killing":
        b = [1 - v for v in l]
    gamma = tuple(v * d / (w * dim_odd) for v, d, w in zip(l, dim_k, b))
    gamma0 = Fraction(-dim_k0, dim_odd) if dim_k0 else None
    trace_rhs = 2 * (sum(gamma, Fraction(0)) + (gamma0 or Fraction(0)))
    return FamilyData(dim_k0, tuple(dim_k), dim_odd, tuple(l), tuple(b), gamma,
                      gamma0, form_kind == "killing", form_kind, trace_rhs)


def catalog(max_m: int, max_n: Optional[int] = None) -> list[FamilySpec]:
    """All valid specs within the bounds, in :func:`iter_catalog` order."""
    return list(iter_catalog(max_m, max_n))


def iter_catalog(max_m: int,
                 max_n: Optional[int] = None) -> Iterator[FamilySpec]:
    """Deterministic enumeration of all valid specs within the bounds, one
    record at a time.

    A(m,n) is canonicalized to m > n (the two orderings give isomorphic
    algebras). The D enumeration routes m - n = 1 entries to their
    degenerate-Killing kinds; the exceptional trio and a non-realizable
    deformation sample are always appended.
    """
    if max_n is None:
        max_n = max_m
    for m in range(1, max_m + 1):
        for n in range(0, min(m - 1, max_n) + 1):
            yield family_spec("A", m, n)
    for n in range(1, max_n + 1):
        yield family_spec("A", n, n)
    for m in range(0, max_m + 1):
        for n in range(1, max_n + 1):
            yield family_spec("B", m, n)
    for n in range(3, max_n + 1):
        yield family_spec("C", n=n)
    for m in range(2, max_m + 1):
        for n in range(1, max_n + 1):
            yield family_spec("D", m, n)
    yield family_spec("D21a", alpha=2.5)
    yield family_spec("F4")
    yield family_spec("G3")


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """A matrix-realized family: its record, algebra, canonical and Killing
    forms, and the basis matrices its constants were read from."""

    spec: FamilySpec
    algebra: LieSuperAlgebra
    canonical_form: BilinearFormMatrix
    killing: BilinearFormMatrix
    matrices: BasisMatrices

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def data(self) -> FamilyData:
        return self.spec.data

    @cached_property
    def ideal_invariants(self) -> dict:
        """Realized invariants of each decomposition range: l and b of a
        simple ideal and the Casimir scalar under the canonical form;
        computed once, on first use."""
        return {rng: invariants.ideal_invariants(self.algebra,
                                                 self.canonical_form, rng)
                for rng in self.algebra.decomposition}

    @cached_property
    def curvature_plan(self) -> curvature.CurvaturePlan:
        """The Koszul and direct-Ricci plan of the canonical form, which
        serves every metric of the family; built once, on first use."""
        return curvature.plan_curvature(self.algebra, self.canonical_form)


def _assemble(spec: FamilySpec, elems: list, decomposition, even_slot: int,
              odd_slot: int, quotient: Optional[dict] = None) -> Realization:
    """Common constructor tail: structure constants, algebra, canonical form.

    ``elems`` lists the basis as (sparse integer matrix ``{(row, col): int}``,
    parity, label). Every super-commutator
    [B_i, B_j] = B_i B_j - (-1)**(p_i p_j) B_j B_i is formed at once from the
    matrices' entries and expanded exactly in the basis. A ``quotient``
    matrix is a direction the bracket is taken modulo: it joins the spanning
    set and its coefficient is dropped. ``spec.form_scale`` selects the
    canonical form: None means the Killing form, an integer t means
    t * str(B_i B_j).
    """
    dim = len(elems)
    parity = tuple(e[1] for e in elems)
    size = even_slot + odd_slot
    mats = [e[0] for e in elems] + ([quotient] if quotient else [])
    owner, row, col, val = np.array(
        [(k, r, c, v) for k, mat in enumerate(mats) for (r, c), v in mat.items()],
        dtype=np.int64).reshape(-1, 4).T
    matrices = BasisMatrices(dim, owner, row * size + col, val, even_slot,
                             size)
    keys, brackets = matrices.supercommutators(np.array(parity))
    xkeys, x, denom = _coordinates(keys, brackets, owner, matrices.flat, val,
                                   len(mats), size * size)
    del keys, brackets
    pair, k = np.divmod(xkeys, len(mats))
    keep = k < dim  # the quotient direction's coefficient is dropped
    ijk = np.stack([pair // dim, pair % dim, k], axis=1)[keep]
    alg = LieSuperAlgebra(SuperBasis(parity, tuple(e[2] for e in elems)),
                          (ijk, x[keep], denom), tuple(decomposition))
    del xkeys, x, pair, k, keep, ijk
    killing = killing_form(alg)
    if spec.form_scale is None:
        form = killing
    else:  # str(B_i B_j): B_i's (r, c) meets B_j's (c, r), signed by r
        nb = int(np.searchsorted(owner, dim))  # the basis proper
        o, r, c, v = owner[:nb], row[:nb], col[:nb], val[:nb]
        keys, strace = _contract(r * size + c, c * size + r,
                                 np.where(r < even_slot, v, -v), v, o, o, dim)
        form = exact_form(alg, keys, spec.form_scale * strace)
    return Realization(spec, alg, form, killing, matrices)


# -- special linear ----------------------------------------------------------


def _sl_block_elems(offset: int, size: int, prefix: str) -> list:
    """Traceless basis of one diagonal block: H's first, then off-diagonal."""
    elems = []
    for a in range(size - 1):
        elems.append(({(offset + a, offset + a): 1,
                       (offset + a + 1, offset + a + 1): -1}, 0,
                      f"{prefix}:H{a}"))
    for a in range(size):
        for bcol in range(size):
            if a != bcol:
                elems.append(({(offset + a, offset + bcol): 1}, 0,
                              f"{prefix}:E({a},{bcol})"))
    return elems


def _sl_basis(m: int, n: int) -> tuple:
    """Supertraceless (m+1|n+1) matrices. At m = n their centre Z0 is
    (n+1) times the identity and is returned as the quotient direction, not
    a basis element: both diagonal blocks of every representative are
    traceless, and the bracket is taken modulo Z0, keeping it rational."""
    big, small = m + 1, n + 1
    z0 = {(a, a): small for a in range(big)} \
        | {(big + a, big + a): big for a in range(small)}
    quotient = m == n
    elems = [] if quotient else [(z0, 0, "Z0")]
    decomposition = [] if quotient else [DecompositionRange(0, 1, "abelian")]
    for size, offset, prefix in ((big, 0, "k1"), (small, big, "k2")):
        if size >= 2:
            decomposition.append(DecompositionRange(
                len(elems), len(elems) + size * size - 1, "simple"))
            elems += _sl_block_elems(offset, size, prefix)
    elems += [({(a, big + b): 1}, 1, f"odd:Y({a},{b})")
              for a in range(big) for b in range(small)]
    elems += [({(big + a, b): 1}, 1, f"odd:Z({a},{b})")
              for a in range(small) for b in range(big)]
    return (elems, decomposition, big, small) + ((z0,) if quotient else ())


# -- orthosymplectic ---------------------------------------------------------


def _osp_basis(l: int, k: int) -> tuple:
    """Matrices skew-supersymmetric for the standard form on C^(l|k), k even.

    The form is the identity on the even slot and the standard symplectic
    matrix on the odd slot. so(l) is one ideal, abelian at l = 2 and absent
    at l = 1.
    """
    elems = [({(i, j): 1, (j, i): -1}, 0, f"so:A({i},{j})")
             for i in range(l) for j in range(i + 1, l)]
    kind = "abelian" if l == 2 else "simple"
    decomposition = [DecompositionRange(0, len(elems), kind)] if elems else []
    return _sp_and_odd(elems, decomposition, l, k)


def _d21_basis() -> tuple:
    """D(2,1;1) = osp(4|2), with so(4) split into its two commuting
    3-dimensional ideals (self-dual halves): A(p1) + s A(p2) with s = +eps
    and s = -eps."""
    sd = [((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1)]
    elems: list = []
    decomposition = []
    for tag, sgn in (("k1", 1), ("k2", -1)):
        decomposition.append(DecompositionRange(len(elems), len(elems) + 3,
                                                "simple"))
        for ((i, j), (u, v), eps) in sd:
            s = sgn * eps
            elems.append(({(i, j): 1, (j, i): -1, (u, v): s, (v, u): -s},
                          0, f"{tag}:S{(i, j)}"))
    return _sp_and_odd(elems, decomposition, 4, 2)


def _sp_and_odd(elems: list, decomposition: list, l: int, k: int) -> tuple:
    """An osp(l|k) basis from the basis ``elems`` of its so(l) part, split
    by ``decomposition``: appends sp(k) as one simple ideal, then the odd
    part."""
    q = k // 2
    pos = len(elems)
    for a in range(q):
        for bcol in range(q):
            elems.append(({(l + a, l + bcol): 1,
                           (l + q + bcol, l + q + a): -1}, 0, f"sp:P({a},{bcol})"))
    for a in range(q):
        for bcol in range(a, q):
            mat = {(l + a, l + q + bcol): 1}
            if a != bcol:
                mat[(l + bcol, l + q + a)] = 1
            elems.append((mat, 0, f"sp:Q({a},{bcol})"))
    for a in range(q):
        for bcol in range(a, q):
            mat = {(l + q + a, l + bcol): 1}
            if a != bcol:
                mat[(l + q + bcol, l + a)] = 1
            elems.append((mat, 0, f"sp:R({a},{bcol})"))
    decomposition.append(DecompositionRange(pos, len(elems), "simple"))

    for r in range(k):
        for s in range(l):
            mat = {(l + r, s): 1}
            if r < q:
                mat[(s, l + q + r)] = -1
            else:
                mat[(s, l + r - q)] = 1
            elems.append((mat, 1, f"odd:M({r},{s})"))
    return elems, decomposition, l, k


# ---------------------------------------------------------------------------
# Construction and checks
# ---------------------------------------------------------------------------


def realize(spec: FamilySpec) -> Realization:
    """Build the matrix realization of a realizable spec from its ``basis``;
    the realization carries ``spec`` itself. Nothing caches it, so it lives
    as long as its caller holds it; :func:`check_product_join` runs first."""
    if spec.basis is None:
        raise ValueError(f"{spec.name} has no matrix realization here; "
                         "it is handled at the equation layer only")
    check_product_join(spec)
    build, *args = spec.basis
    return _assemble(spec, *build(*args))


def check_dense_size(spec: FamilySpec) -> None:
    """Refuse, from the record's dimension alone and so before any basis
    exists, a family whose dense (dim, dim) Gram, which only ``build``
    prints, would exceed ``supercore.MAX_DENSE_ENTRIES`` entries."""
    dim = spec.data.dim_k0 + sum(spec.data.dim_k) + spec.data.dim_odd
    bound = supercore.MAX_DENSE_ENTRIES
    if dim * dim > bound:
        raise ValueError(f"{spec.name} has dimension {dim:,}: a dense "
                         f"({dim}, {dim}) form is over the "
                         f"{bound:,}-entry memory limit")


def check_product_join(spec: FamilySpec) -> None:
    """Refuse, from the record's dimension alone and so before any basis
    exists, a family whose basis products, :func:`_assemble`'s first join,
    must pair more than ``supercore.MAX_JOIN_PAIRS`` entries: each basis
    here has an entry at every off-diagonal position of its N x N matrices,
    so each row and column holds N - 1 or more, the products (an entry of
    column x with one of row x) are at least N (N - 1)**2, and dim <= N**2."""
    dim = spec.data.dim_k0 + sum(spec.data.dim_k) + spec.data.dim_odd
    s, bound = math.isqrt(dim), supercore.MAX_JOIN_PAIRS
    if s * (s - 1) ** 2 > bound:
        raise ValueError(f"{spec.name} has dimension {dim:,}: its basis products"
                         f" join at least {s * (s - 1) ** 2:,} entry pairs, "
                         f"over the {bound:,}-pair memory limit")


def verify_realization(real: Realization) -> tuple[dict, list[dict]]:
    """Compare the realized dimensions and each ideal's realized l, b and
    gamma with the catalog, the rationals exactly.

    Returns the summary (dimensions, worst index and b-ratio residuals, and
    ``pass`` over every comparison) and one row per ideal, k0 first when
    present, with computed and catalog values and the worst residual.
    """
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
    catalog = list(zip(alg.simple_ideals(), data.l, data.b, data.gamma))
    if data.has_k0:
        catalog.insert(0, (k0, None, None, data.gamma0))
    rows, l_res, b_res = [], [Fraction(0)], [Fraction(0)]
    for pos, (ideal, l_cat, b_cat, g_cat) in enumerate(
            catalog, start=0 if data.has_k0 else 1):
        inv = real.ideal_invariants[ideal]
        row = {"ideal": f"k{pos}", "dim": ideal.dim, "l": None,
               "l_catalog": None, "b": None, "b_catalog": None}
        residual = abs(inv.gamma - g_cat)
        if l_cat is not None:
            l_res.append(abs(inv.l - l_cat))
            b_res.append(abs(inv.b - b_cat))
            residual = max(residual, l_res[-1], b_res[-1])
            row.update(l=float(inv.l), l_catalog=str(l_cat), b=float(inv.b),
                       b_catalog=str(b_cat))
        report["pass"] &= residual == 0
        rows.append(row | {"gamma": float(inv.gamma),
                           "gamma_catalog": str(g_cat),
                           "residual": float(residual)})
    report["index_residual"] = float(max(l_res))
    report["b_ratio_residual"] = float(max(b_res))
    return report, rows
