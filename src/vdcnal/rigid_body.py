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

The Coriolis assembly here is the compact form, whose lower-right block is
``skew(omega) @ I``.  The plant in :mod:`vdcnal.simulation` builds its own in
the center-of-mass form; the two differ as matrices but agree when applied to
the velocity that generated them, so either yields the same net wrench.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import cross3, skew

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


def coriolis_matrix(params: InertialParams, omega) -> np.ndarray:
    """Compact Coriolis assembly; lower-right block is skew(omega) @ I_bar."""
    wx = skew(omega)
    hx = skew(params.first_moment)
    C = np.zeros((6, 6))
    C[:3, :3] = params.mass * wx
    C[:3, 3:] = -wx @ hx
    C[3:, :3] = hx @ wx
    C[3:, 3:] = wx @ params.inertia
    return C


def gravity_wrench(params: InertialParams, R_AI, g=GRAVITY) -> np.ndarray:
    """G = [m R_AI g, h x (R_AI g)]; R_AI rotates inertial axes into the body frame."""
    ga = np.asarray(R_AI, dtype=float) @ np.asarray(g, dtype=float)
    out = np.empty(6)
    out[:3] = params.mass * ga
    out[3:] = cross3(params.first_moment, ga)
    return out


@dataclass(frozen=True)
class BodyMatrices:
    M: np.ndarray
    C: np.ndarray
    G: np.ndarray


def assemble_matrices(params: InertialParams, omega, R_AI, g=GRAVITY) -> BodyMatrices:
    return BodyMatrices(mass_matrix(params), coriolis_matrix(params, omega),
                        gravity_wrench(params, R_AI, g))


def net_wrench(mats: BodyMatrices, accel, vel) -> np.ndarray:
    """Net wrench the body must receive: M a + C V + G (6-arrays in/out)."""
    return mats.M @ np.asarray(accel, dtype=float) + mats.C @ np.asarray(vel, dtype=float) + mats.G


def omega_dot_operator(w) -> np.ndarray:
    """3x6 operator with I_bar @ w == omega_dot_operator(w) @ vecI."""
    wx, wy, wz = np.asarray(w, dtype=float)
    return np.array([
        [wx, 0.0, 0.0, wy, 0.0, wz],
        [0.0, wy, 0.0, wx, wz, 0.0],
        [0.0, 0.0, wz, 0.0, wy, wx],
    ])


def regressor(accel, vel, R_AI, g=GRAVITY) -> np.ndarray:
    """6x10 regressor W with W @ phi == M a + C(omega) V + G.

    ``accel`` and ``vel`` are 6-arrays (the required or actual spatial
    acceleration/velocity of the frame); columns follow the phi layout
    [m | h | vecI].
    """
    a = np.asarray(accel, dtype=float)
    V = np.asarray(vel, dtype=float)
    vd, wd = a[:3], a[3:]
    v, w = V[:3], V[3:]
    ga = np.asarray(R_AI, dtype=float) @ np.asarray(g, dtype=float)
    wxv = cross3(w, v)
    wx = skew(w)
    W = np.zeros((6, 10))
    W[:3, 0] = vd + wxv + ga
    W[:3, 1:4] = skew(wd) + wx @ wx
    W[3:, 1:4] = -(skew(vd) + skew(wxv) + skew(ga))
    W[3:, 4:] = omega_dot_operator(wd) + wx @ omega_dot_operator(w)
    return W
