from fractions import Fraction

import numpy as np
import pytest

from supereinstein import families


@pytest.fixture(scope="session")
def sl21():
    return families.build_sl_super(1, 0)


@pytest.fixture(scope="session")
def psl22():
    return families.build_psl(1)


@pytest.fixture(scope="session")
def osp32():
    return families.build_osp(3, 2)


def seeded_params(rng, count, low=-3.0, high=3.0, min_abs=0.1):
    """Draw nonzero metric parameters the way the verification sweeps do."""
    out = []
    while len(out) < count:
        v = float(rng.uniform(low, high))
        if abs(v) >= min_abs:
            out.append(v)
    return tuple(out)


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
