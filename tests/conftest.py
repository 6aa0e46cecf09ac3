import math
from fractions import Fraction

import numpy as np
import pytest

from supereinstein import families
from supereinstein.supercore import exact_form


@pytest.fixture(scope="session")
def sl21():
    return families.realize(families.family_spec("A", 1, 0))


@pytest.fixture(scope="session")
def psl22():
    return families.realize(families.family_spec("A", 1, 1))


@pytest.fixture(scope="session")
def osp32():
    return families.realize(families.family_spec("B", 1, 1))


def seeded_params(rng, count, low=-3.0, high=3.0, min_abs=0.1):
    """Draw nonzero metric parameters the way the verification sweeps do."""
    out = []
    while len(out) < count:
        v = float(rng.uniform(low, high))
        if abs(v) >= min_abs:
            out.append(v)
    return tuple(out)


def defining_matrices(spec):
    """The basis matrices of a realizable ``spec`` as a dense float array
    ``(dim, size, size)``, aligned with the basis of ``realize(spec)``. They
    are filled from the (sparse integer matrix, parity, label) triples of
    ``spec.basis``, so they stay an oracle independent of the structure
    constants."""
    build, *args = spec.basis
    elems, _, even_slot, odd_slot, *_ = build(*args)
    size = even_slot + odd_slot
    mats = np.zeros((len(elems), size, size))
    for k, (mat, _, _) in enumerate(elems):
        for (row, col), v in mat.items():
            mats[k, row, col] = v
    return mats


def expand_in_basis(matrices, target):
    """Least-squares coefficients of ``target`` in a list of basis matrices.

    Independent of the package's own coordinatization: used as an oracle for
    bracket computations on matrix realizations.
    """
    cols = np.stack([m.reshape(-1) for m in matrices], axis=1)
    coeffs, res, _, _ = np.linalg.lstsq(cols, target.reshape(-1), rcond=None)
    recon = cols @ coeffs
    assert np.max(np.abs(recon - target.reshape(-1))) < 1e-9
    return coeffs


def exact_entries(alg):
    """The algebra's structure constants as ``{(i, j, k): Fraction}``, the
    form its constructor takes."""
    return {tuple(key): Fraction(v, alg.denom)
            for key, v in zip(alg.index.tolist(), alg.numer.tolist())}


def dense_constants(alg):
    """The structure constants as a dense float array ``c[i, j, k]``, filled
    from the sparse entries: the input of the dense test-only oracles."""
    c = np.zeros((alg.dim,) * 3)
    c[tuple(alg.index.T)] = alg.numer / alg.denom
    return c


def dense_integers(keys, numer, size):
    """A sparse integer matrix, nonzeros ``numer`` at the flat keys
    ``row * size + col``, as a dense int64 array."""
    out = np.zeros(size * size, dtype=np.int64)
    out[keys] = numer
    return out.reshape(size, size)


def integer_form(alg, mat):
    """The exact form on ``alg``'s basis with the dense integer matrix
    ``mat``, checked on construction."""
    keys = np.flatnonzero(mat)
    return exact_form(alg, keys, np.asarray(mat, dtype=np.int64).ravel()[keys])


def exact_metric(real, x):
    """The metric D B of the rational block factors ``x`` as an exact form:
    the canonical form's numerators scaled by the integers
    ``x_i * lcm(denominators)`` per row, over ``denom * lcm``."""
    x = [Fraction(v) for v in x] + [Fraction(1)]
    scale = math.lcm(*(v.denominator for v in x))
    factors = np.array([int(v * scale) for v in x])[
        real.algebra.block_layout()]
    form = real.canonical_form
    return exact_form(real.algebra, form.keys,
                      form.numer * factors[form.keys // form.dim],
                      form.denom * scale)


def dense_odd_action(alg, ideal):
    """rho[a, v, w]: the matrix of ad e_a on the odd part, a in the ideal."""
    odd = alg.odd_range()
    block = dense_constants(alg)[ideal.start:ideal.stop, odd.start:, odd.start:]
    return np.swapaxes(block, 1, 2)


def dense_casimir(alg, form, ideal):
    """sum_j rho(e_j) rho(e_j*) on the odd part, the duals e_j* from a float
    inverse of the form's Gram on the ideal: the dense oracle of the exact
    Casimir operator."""
    sl = slice(ideal.start, ideal.stop)
    rho = dense_odd_action(alg, ideal)
    rho_dual = np.tensordot(np.linalg.inv(form.gram[sl, sl]), rho, ([0], [0]))
    return np.einsum("jvu,juw->vw", rho, rho_dual, optimize=True)


def parity_sign_matrix(parity):
    """S[i, j] = (-1)**(parity_i * parity_j), dense: the oracle of the
    graded transpose."""
    return 1.0 - 2.0 * np.outer(parity, parity)


def sign_vector(basis):
    """(-1)**parity as float over a super basis, the supertrace weights."""
    return 1.0 - 2.0 * basis.parity_array()


def dense_connection(conn):
    """A connection's Christoffel symbols as a dense array ``gamma[i, j, k]``."""
    gamma = np.zeros(conn.dim**3)
    gamma[conn.keys] = conn.values
    return gamma.reshape((conn.dim,) * 3)
