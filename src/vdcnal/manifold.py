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
    """Map [m, h, vecI] (or InertialParams) to the 4x4 pseudo-inertia matrix."""
    if isinstance(phi, InertialParams):
        phi = phi.as_vector()
    m, hx, hy, hz, xx, yy, zz, xy, yz, xz = np.asarray(phi, dtype=float).reshape(10)
    t = 0.5 * (xx + yy + zz)
    o = 0.0 * t     # off-diagonal of 0.5 tr(I) I3: keeps the signs of zeros
    return np.array([[t - xx, o - xy, o - xz, hx],
                     [o - xy, t - yy, o - yz, hy],
                     [o - xz, o - yz, t - zz, hz],
                     [hx, hy, hz, m]])


def pseudo_to_params(L) -> InertialParams:
    """Inverse of :func:`params_to_pseudo` (exact; no eigendecomposition)."""
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4):
        raise ValueError("pseudo-inertia must be 4x4")
    if np.max(np.abs(L - L.T)) > 1e-9 * (1.0 + np.max(np.abs(L))):
        raise ValueError("pseudo-inertia must be symmetric")
    sigma = 0.5 * (L[:3, :3] + L[:3, :3].T)
    inertia = np.trace(sigma) * np.eye(3) - sigma
    return InertialParams(L[3, 3], 0.5 * (L[:3, 3] + L[3, :3]), inertia)


def is_consistent(phi) -> bool:
    """Physical-consistency test: min eig of the pseudo-inertia above tolerance.

    The tolerance scales with the trace so the test is meaningful across
    magnitudes; exact boundary cases (point masses, zero mass) test False.
    """
    L = params_to_pseudo(phi)
    w = np.linalg.eigvalsh(L)
    return bool(w[0] > _CONSISTENCY_REL_TOL * (1.0 + abs(np.trace(L))))


def _check_spd(L, name: str) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if np.linalg.eigvalsh(L)[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return L


def bregman_divergence(L1, L2) -> float:
    """Log-det Bregman divergence D(L1 || L2) = log|L2|/|L1| + tr(L2^-1 L1) - 4."""
    L1 = _check_spd(L1, "L1")
    L2 = _check_spd(L2, "L2")
    _, ld1 = np.linalg.slogdet(L1)
    _, ld2 = np.linalg.slogdet(L2)
    return float(ld2 - ld1 + np.trace(np.linalg.solve(L2, L1)) - 4.0)
