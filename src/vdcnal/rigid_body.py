"""Single rigid-body dynamics written in an arbitrary body-fixed frame.

The body is described by ten constants

    phi = [m, h, vecI],   h = m * com,   vecI = [Ixx, Iyy, Izz, Ixy, Iyz, Ixz]

where the rotational inertia is taken about the frame origin (not the center
of mass).  With that choice the net wrench is linear in phi, which is what the
regressor below exploits:

    W(a, V, R_AI, g) @ phi == M @ a + C(omega) @ V + G.

Gravity is handled through the G term with g = [0, 0, 9.8] in the inertial
frame; R_AI rotates inertial coordinates into the body frame.  The simulator
and the controller both use this convention, so the sign cancels consistently.

The stacked body wrenches take the velocity-product term as the spatial
force cross product V x* (M V); the plant in :mod:`vdcnal.simulation` writes
its bodies in base coordinates instead of their own frames and needs
nothing from this module but the mass matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import motion_cross, skew

GRAVITY = np.array([0.0, 0.0, 9.8])


def inertia_to_vector(I) -> np.ndarray:
    I = np.asarray(I, dtype=float)
    return np.array([I[0, 0], I[1, 1], I[2, 2], I[0, 1], I[1, 2], I[0, 2]])


@dataclass(frozen=True)
class InertialParams:
    """Ten-parameter description of one rigid body in its own frame."""

    mass: float
    first_moment: np.ndarray     # h = m * com, kg*m
    inertia: np.ndarray          # 3x3, about the frame origin, kg*m^2

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        h = np.array(self.first_moment, dtype=float)
        I = np.array(self.inertia, dtype=float)
        if h.shape != (3,):
            raise ValueError("first_moment must be a 3-vector")
        if I.shape != (3, 3):
            raise ValueError("inertia must be 3x3")
        if np.max(np.abs(I - I.T)) > 1e-12 * (1.0 + np.max(np.abs(I))):
            raise ValueError("inertia matrix must be symmetric")
        I = 0.5 * (I + I.T)
        h.setflags(write=False)
        I.setflags(write=False)
        object.__setattr__(self, "first_moment", h)
        object.__setattr__(self, "inertia", I)

    @property
    def com(self) -> np.ndarray:
        return self.first_moment / self.mass

    @classmethod
    def from_com(cls, mass: float, com, inertia_com) -> "InertialParams":
        """Build from center-of-mass data; applies the parallel-axis shift."""
        c = np.asarray(com, dtype=float)
        Ic = np.asarray(inertia_com, dtype=float)
        shift = mass * (float(c @ c) * np.eye(3) - np.outer(c, c))
        return cls(mass, mass * c, Ic + shift)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.mass], self.first_moment,
                               inertia_to_vector(self.inertia)))


def mass_matrix(params: InertialParams) -> np.ndarray:
    """6x6 spatial mass matrix [[m I, -skew(h)], [skew(h), I_bar]]."""
    hx = skew(params.first_moment)
    M = np.zeros((6, 6))
    M[:3, :3] = params.mass * np.eye(3)
    M[:3, 3:] = -hx
    M[3:, :3] = hx
    M[3:, 3:] = params.inertia
    return M


def body_wrenches(mass, accel, vel, R_AI, g=GRAVITY) -> np.ndarray:
    """Net wrenches M (a + [R_AI g, 0]) - crm(V)' M V of a stack of bodies, (n, 6),
    from their (n, 6, 6) mass matrices: the velocity-product term is V x* (M V)."""
    av = np.empty(accel.shape + (2,))
    av[..., 0] = accel
    av[..., :3, 0] += R_AI @ g
    av[..., 1] = vel
    Mav = mass @ av
    return Mav[..., 0] - (motion_cross(vel).swapaxes(-1, -2) @ Mav[..., 1:])[..., 0]


# (w @ _OMEGA_BASIS) holds omega_dot_operator(w) row by row: a 1 at [component,
# 6 row + column] for each entry of the operator below
_OMEGA_BASIS = np.zeros((3, 18))
_OMEGA_BASIS[[0, 1, 2, 1, 0, 2, 2, 1, 0], [0, 3, 5, 7, 9, 10, 14, 16, 17]] = 1.0


def omega_dot_operator(w) -> np.ndarray:
    """3x6 operator with I_bar @ w == omega_dot_operator(w) @ vecI; (..., 3) -> (..., 3, 6)."""
    w = np.asarray(w, dtype=float)
    return (w @ _OMEGA_BASIS).reshape(w.shape[:-1] + (3, 6))


def _regressor_map() -> np.ndarray:
    """The constant 42 x 60 map of :func:`regressor`.

    With a' = [u, alpha] = a + [R_AI g, 0] and V = [v, w], W is linear in a'
    and quadratic in V:

        W[:3, 0]    = u + w x v
        W[:3, 1:4]  = skew(alpha) + skew(w) skew(w)
        W[3:, 1:4]  = -skew(u + w x v)
        W[3:, 4:]   = Omega(alpha) + skew(w) Omega(w)

    with Omega = omega_dot_operator.  Row k of the map is vec(W) for the k-th
    entry of [a' | vec(V V')]; the products w_j v_k and w_j w_m are read from
    the outer product's (3 + j, k) and (3 + j, 3 + m) entries.
    """
    S, O = skew(np.eye(3)), omega_dot_operator(np.eye(3))    # skew(e_j), Omega(e_j)
    cross = S.transpose(0, 2, 1)                             # [j, k, i]: w_j v_k -> (w x v)_i
    lin = np.zeros((6, 6, 10))
    lin[:3, :3, 0] = np.eye(3)
    lin[3:, :3, 1:4] = S
    lin[:3, 3:, 1:4] = -S
    lin[3:, 3:, 4:] = O
    quad = np.zeros((6, 6, 6, 10))
    quad[3:, :3, :3, 0] = cross
    quad[3:, :3, 3:, 1:4] = -np.einsum("jki,iab->jkab", cross, S)
    quad[3:, 3:, :3, 1:4] = np.einsum("jik,mkl->jmil", S, S)
    quad[3:, 3:, 3:, 4:] = np.einsum("jik,mkl->jmil", S, O)
    return np.concatenate((lin.reshape(6, 60), quad.reshape(36, 60)))


_REGRESSOR_MAP = _regressor_map()


def regressor(accel, vel, R_AI, g=GRAVITY) -> np.ndarray:
    """Regressor W with W @ phi == M a + C(omega) V + G, for one body or a stack.

    ``accel`` and ``vel`` are (..., 6): the required or actual spatial
    acceleration and velocity of each frame; ``R_AI`` is (..., 3, 3).  W is
    (..., 6, 10), its columns in the phi layout [m | h | vecI], and it is one
    product [a + (R_AI g, 0) | vec(V V')] @ M with the constant map above.
    """
    a = np.asarray(accel, dtype=float)
    V = np.asarray(vel, dtype=float)
    lead = a.shape[:-1]
    x = np.empty(lead + (7, 6))
    x[..., 0, :] = a
    x[..., 0, :3] += np.asarray(R_AI, dtype=float) @ np.asarray(g, dtype=float)
    np.multiply(V[..., :, None], V[..., None, :], out=x[..., 1:, :])
    return (x.reshape(lead + (42,)) @ _REGRESSOR_MAP).reshape(lead + (6, 10))
