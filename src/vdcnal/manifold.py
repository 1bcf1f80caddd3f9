"""The pseudo-inertia embedding of the ten body parameters.

A parameter vector phi = [m, h, vecI] maps to the symmetric 4x4

    L = [[0.5 tr(I_bar) I3 - I_bar, h], [h', m]]

whose upper-left block is the second-moment (density covariance) matrix.
phi is physically realizable by some mass distribution exactly when L is
positive definite, so the set of consistent parameters is the SPD cone P(4).
The adaptation law in :mod:`vdcnal.adaptation` moves estimates along this
manifold, and its distance-to-truth term in the accompanying function is the
log-det Bregman divergence below.
"""
from __future__ import annotations

import numpy as np

from .rigid_body import InertialParams

_CONSISTENCY_REL_TOL = 1e-12


def params_to_pseudo(phi) -> np.ndarray:
    """Map [m, h, vecI] (or InertialParams) to the 4x4 pseudo-inertia matrix;
    a (..., 10) stack maps to (..., 4, 4)."""
    if isinstance(phi, InertialParams):
        phi = phi.as_vector()
    m, hx, hy, hz, xx, yy, zz, xy, yz, xz = np.moveaxis(np.asarray(phi, dtype=float), -1, 0)
    t = 0.5 * (xx + yy + zz)
    o = 0.0 * t     # off-diagonal of 0.5 tr(I) I3: keeps the signs of zeros
    return np.stack((np.stack((t - xx, o - xy, o - xz, hx), axis=-1),
                     np.stack((o - xy, t - yy, o - yz, hy), axis=-1),
                     np.stack((o - xz, o - yz, t - zz, hz), axis=-1),
                     np.stack((hx, hy, hz, m), axis=-1)), axis=-2)


# vec(L) @ _VECTOR_MAP inverts params_to_pseudo on symmetric L: m and h are read
# off the last column, each diagonal inertia entry is the sum of the other two
# second moments (I_xx = L_11 + L_22), the products of inertia are the negated
# off-diagonal moments
_VECTOR_MAP = np.zeros((16, 10))
_VECTOR_MAP[[15, 3, 7, 11, 5, 10, 0, 10, 0, 5], [0, 1, 2, 3, 4, 4, 5, 5, 6, 6]] = 1.0
_VECTOR_MAP[[1, 6, 2], [7, 8, 9]] = -1.0


def pseudo_to_vectors(L) -> np.ndarray:
    """Inverse of :func:`params_to_pseudo` over a stack of symmetric 4x4s,
    (..., 4, 4) -> (..., 10): one product with a constant map, unchecked."""
    L = np.asarray(L, dtype=float)
    return L.reshape(L.shape[:-2] + (16,)) @ _VECTOR_MAP


def is_consistent(phi) -> bool:
    """Physical-consistency test: min eig of the pseudo-inertia above tolerance.

    The tolerance scales with the trace so the test is meaningful across
    magnitudes; exact boundary cases (point masses, zero mass) test False.
    """
    L = params_to_pseudo(phi)
    w = np.linalg.eigvalsh(L)
    return bool(w[0] > _CONSISTENCY_REL_TOL * (1.0 + abs(np.trace(L))))


def spd_log_det(L, name: str) -> np.ndarray:
    """log|L| of a matrix or of each matrix of a stack, which must be positive definite."""
    w = np.linalg.eigvalsh(L)
    if np.any(w[..., 0] <= 0.0):
        raise ValueError(f"{name} must be positive definite")
    return np.sum(np.log(w), axis=-1)


def bregman_divergence(L1, log_det1, w2, Q2) -> np.ndarray:
    """Log-det Bregman divergence D(L1 || L2) = log|L2|/|L1| + tr(L2^-1 L1) - 4.

    Takes stacks: L1 with its log determinant (see :func:`spd_log_det`), and
    L2 by its eigendecomposition Q2 diag(w2) Q2', so log|L2| = sum(log w2) and
    L2^-1 = Q2 diag(1/w2) Q2' cost no further factorization.
    """
    if (w2[..., 0] <= 0.0).any():
        raise ValueError("L2 must be positive definite")
    inv = (Q2 / w2[..., None, :]) @ np.swapaxes(Q2, -1, -2)
    return (np.sum(np.log(w2), axis=-1) - log_det1
            + np.einsum("...ij,...ji->...", inv, L1) - 4.0)
