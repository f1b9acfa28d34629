import numpy as np
import pytest

import polybloch as pb


@pytest.fixture(scope="session")
def z2():
    """Period 2*pi square lattice; dual is Z^2."""
    return pb.LatticeModel.cubic(2)


@pytest.fixture(scope="session")
def cosine(z2):
    """q = 2 cos x1: unit coefficients at (1,0) and (-1,0)."""
    return pb.cosine_pair(z2, (1, 0), 1.0)


def scaled_cascade(rho, d=2, l=1, s=45.0, thresholds=(2.0, 4.0, 8.0), pool_radius=3.0, **extra):
    """Desk-scale cascade: fixed visible thresholds instead of rho^alpha_k."""
    overrides = {"v_thresholds": thresholds[: d + 1], "pool_radius": pool_radius}
    overrides.update(extra)
    return pb.derive_parameters(d, l, s, rho, mode="scaled", overrides=overrides)


def free_eigenvalues(lattice, t, l, basis):
    """Sorted |gamma + t|^{2l} over the basis (the q = 0 spectrum)."""
    x = basis.embeddings + np.asarray(t, dtype=float)
    return np.sort(np.vecdot(x, x) ** l)


def s0_threshold(d):
    """Smallest smoothness the theory-mode cascade is built for."""
    return (3 * d - 1) / 2 * (3**d + d + 2) + 0.25 * d * 3**d + d + 6
