"""Independent reference forms the tests check the library against.

None of these runs in a simulation: each restates a quantity the library
computes another way (an SPD distance, the center-of-mass Coriolis form), so
agreement between the two is the test.
"""
import numpy as np

from vdcnal.rigid_body import InertialParams
from vdcnal.spatial import skew


def _spd(L, name: str) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if np.linalg.eigvalsh(L)[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return L


def bregman_divergence_eigen(L1, L2) -> float:
    """Log-det Bregman divergence via the eigenvalues of L2^-1 L1: sum(-log l + l - 1)."""
    L1 = _spd(L1, "L1")
    L2 = _spd(L2, "L2")
    lam = np.real(np.linalg.eigvals(np.linalg.solve(L2, L1)))
    return float(np.sum(-np.log(lam) + lam - 1.0))


def _inv_sqrt(L) -> np.ndarray:
    w, Q = np.linalg.eigh(L)
    return Q @ np.diag(1.0 / np.sqrt(w)) @ Q.T


def geodesic_distance(L1, L2) -> float:
    """Affine-invariant geodesic distance on SPD(4): ||log(L1^-1/2 L2 L1^-1/2)||_F."""
    L1 = _spd(L1, "L1")
    L2 = _spd(L2, "L2")
    S = _inv_sqrt(L1)
    M = S @ L2 @ S
    lam = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def riemannian_metric(P, F1, F2) -> float:
    """Affine-invariant inner product at P: 0.5 tr(P^-1 F1 P^-1 F2)."""
    P = _spd(P, "P")
    A = np.linalg.solve(P, np.asarray(F1, dtype=float))
    B = np.linalg.solve(P, np.asarray(F2, dtype=float))
    return float(0.5 * np.trace(A @ B))


def coriolis_matrix_original(params: InertialParams, omega) -> np.ndarray:
    """Coriolis assembly in terms of the center-of-mass inertia.

    The lower-right block reads skew(w) I_A + I_A skew(w) - m rx wx rx with
    I_A the inertia about the center of mass (rotated to the frame axes).
    Differs from ``rigid_body.coriolis_matrix`` as a matrix, yet produces the
    same product against the velocity [v, omega] that generated it.
    """
    m = params.mass
    wx = skew(omega)
    rx = skew(params.com)
    hx = skew(params.first_moment)
    I_com = params.inertia + m * (rx @ rx)   # undo the frame-origin shift
    C = np.zeros((6, 6))
    C[:3, :3] = m * wx
    C[:3, 3:] = -wx @ hx
    C[3:, :3] = hx @ wx
    C[3:, 3:] = wx @ I_com + I_com @ wx - m * rx @ wx @ rx
    return C
