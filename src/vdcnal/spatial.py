"""Spatial (6D) vector algebra: frame transforms, rotations, quaternions.

Spatial velocities and wrenches are plain 6-arrays; the conventions used
throughout the library are:

* a spatial velocity stacks the linear part on top of the angular part,
  ``V = [v, omega]``, both expressed in the frame the quantity belongs to;
* a spatial wrench stacks force on top of moment, ``F = [f, m]``;
* the force/velocity transform between a frame ``A`` and a frame ``B`` whose
  pose in ``A`` is ``(R, r)`` is the 6x6

      U = [[R, 0], [skew(r) @ R, R]]

  with ``F_A = U @ F_B`` and ``V_B = U.T @ V_A``.  Power is invariant under
  the pair of maps, which is what makes the transform pair useful as a
  bookkeeping device for cutting a chain into subsystems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# row k is skew(e_k) flattened, [k, i, j] = (e_k x e_j)_i, so (a @ _SKEW_BASIS) holds
# skew(a) row by row; every entry is 0 or +-1 times one component of a
_SKEW_BASIS = np.cross(np.eye(3)[:, None], np.eye(3)[None]).transpose(0, 2, 1).reshape(3, 9)


def skew(a) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, or of each row of a (..., 3) stack:
    ``skew(a) @ b == cross(a, b)``."""
    a = np.asarray(a, dtype=float)
    return (a @ _SKEW_BASIS).reshape(a.shape[:-1] + (3, 3))


# row k is crm(e_k) flattened, so (V @ _MOTION_CROSS_BASIS) holds crm(V) row by row:
# the skew of the angular part on both diagonal blocks, of the linear part top right
_MOTION_CROSS_BASIS = np.zeros((6, 6, 6))
_MOTION_CROSS_BASIS[3:, :3, :3] = _MOTION_CROSS_BASIS[3:, 3:, 3:] = \
    _MOTION_CROSS_BASIS[:3, :3, 3:] = _SKEW_BASIS.reshape(3, 3, 3)
_MOTION_CROSS_BASIS = _MOTION_CROSS_BASIS.reshape(6, 36)


def motion_cross(V) -> np.ndarray:
    """Spatial motion cross-product matrix crm(V) = [[skew(w), skew(v)], [0, skew(w)]]
    of V = [v, w], or of each row of a (..., 6) stack: crm(V) @ U is V x U for a
    motion U, and -crm(V)' @ F is V x* F for a wrench F."""
    V = np.asarray(V, dtype=float)
    return (V @ _MOTION_CROSS_BASIS).reshape(V.shape[:-1] + (6, 6))


def cross3(a, b) -> np.ndarray:
    """Cross product of 3-vectors or of (..., 3) stacks; np.cross pays more in dispatch."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack((a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]), axis=-1)


# entry (a, b) of the rotation about each principal axis, as an index into the
# values (0, 1, cos, sin, -sin); the scalar and the batched joint rotations
# (RobotModel.joint_rotations) are both gathered through these patterns
AXIS_ROTATION_PATTERN = {
    "x": np.array([[1, 0, 0], [0, 2, 4], [0, 3, 2]]),
    "y": np.array([[2, 0, 3], [0, 1, 0], [4, 0, 2]]),
    "z": np.array([[2, 4, 0], [3, 2, 0], [0, 0, 1]]),
}


def axis_rotation(axis: str, theta: float) -> np.ndarray:
    """Rotation about a named principal axis ('x', 'y' or 'z')."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([0.0, 1.0, c, s, -s])[AXIS_ROTATION_PATTERN[axis]]


def euler_xyz_to_rotation(alpha, beta, delta) -> np.ndarray:
    """R = Rx(alpha) @ Ry(beta) @ Rz(delta) (intrinsic XYZ angles); angle arrays
    of one shape give a stack of that shape + (3, 3)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cd, sd = np.cos(delta), np.sin(delta)
    R = np.array([[cb * cd, -cb * sd, sb],
                  [ca * sd + sa * sb * cd, ca * cd - sa * sb * sd, -sa * cb],
                  [sa * sd - ca * sb * cd, sa * cd + ca * sb * sd, ca * cb]])
    return np.moveaxis(R, (0, 1), (-2, -1))


def euler_xyz_to_quaternion(alpha, beta, delta) -> np.ndarray:
    """[w, x, y, z] of :func:`euler_xyz_to_rotation`, (..., 4) for angle arrays:
    the product of the three half-angle quaternions, with w >= 0 (a zero w is
    left to :meth:`UnitQuaternion.sign_normalized`)."""
    ca, sa = np.cos(0.5 * alpha), np.sin(0.5 * alpha)
    cb, sb = np.cos(0.5 * beta), np.sin(0.5 * beta)
    cd, sd = np.cos(0.5 * delta), np.sin(0.5 * delta)
    q = np.stack((ca * cb * cd - sa * sb * sd, sa * cb * cd + ca * sb * sd,
                  ca * sb * cd - sa * cb * sd, ca * cb * sd + sa * sb * cd), axis=-1)
    return np.where(q[..., :1] < 0.0, -q, q)


def rotation_to_euler_xyz(R) -> np.ndarray:
    """Inverse of :func:`euler_xyz_to_rotation`; beta folded into [-pi/2, pi/2].
    One matrix, on Python floats; see :func:`rotations_to_euler_xyz` for stacks."""
    (r00, r01, r02), (r10, r11, r12), (_, _, r22) = np.asarray(R, dtype=float).tolist()
    return np.array([math.atan2(-r12, r22), math.asin(min(max(r02, -1.0), 1.0)),
                     math.atan2(-r01, r00)])


def rotations_to_euler_xyz(R) -> np.ndarray:
    """:func:`rotation_to_euler_xyz` of each matrix of a (..., 3, 3) stack, on
    NumPy arrays, which costs a few times more for one matrix."""
    R = np.asarray(R, dtype=float)
    return np.stack((np.arctan2(-R[..., 1, 2], R[..., 2, 2]),
                     np.arcsin(np.clip(R[..., 0, 2], -1.0, 1.0)),
                     np.arctan2(-R[..., 0, 1], R[..., 0, 0])), axis=-1)


def euler_xyz_rate_matrix(alpha, beta) -> np.ndarray:
    """Map XYZ Euler-angle rates to the angular velocity in the reference frame.

    omega = E(alpha, beta) @ [alpha_dot, beta_dot, delta_dot].  Columns are the
    instantaneous axes of the three elementary rotations: x, Rx(alpha) y and
    Rx(alpha) Ry(beta) z.  Angle arrays of one shape give a stack of E.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    one, zero = np.ones_like(ca), np.zeros_like(ca)
    E = np.array([[one, zero, sb], [zero, ca, -sa * cb], [zero, sa, ca * cb]])
    return np.moveaxis(E, (0, 1), (-2, -1))


def prefix_products(A) -> np.ndarray:
    """Running products A_0, A_0 A_1, ..., A_0 A_1 ... A_{n-1} of an (n, k, k)
    stack, written over ``A``: a log-depth scan, ceil(log2 n) batched products
    in place of n - 1 single ones."""
    step = 1
    while step < len(A):
        A[step:] = A[:-step] @ A[step:]
        step *= 2
    return A


def _check_rotation(R) -> list:
    """Rows of ``R`` as Python floats; raises unless ``R`` is a 3x3 rotation."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    rows = R.tolist()
    (a, b, c), (d, e, f), (g, h, i) = rows
    if not math.isfinite(a + b + c + d + e + f + g + h + i):
        raise ValueError("matrix is not orthonormal (non-finite entries)")
    # the six distinct entries of R'R - I
    err = max(abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
              abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
              abs(a * c + d * f + g * i), abs(b * c + e * f + h * i))
    if err > _ORTHO_TOL:
        raise ValueError(f"matrix is not orthonormal (max |R'R - I| = {err:.3e})")
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
        raise ValueError("matrix has determinant -1 (reflection, not a rotation)")
    return rows


@dataclass(frozen=True)
class FrameTransform:
    """Pose of a frame B measured in a frame A: rotation ``R`` and offset ``r``.

    Stores the (R, r) pair rather than the module's 6x6 matrix U; the
    ``transform_*_raw`` functions apply U and U' from the pair.
    """

    R: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", _freeze(_check_rotation(self.R)))
        object.__setattr__(self, "r", _freeze(self.r))
        if self.r.shape != (3,):
            raise ValueError("offset must be a 3-vector")


def transform_velocity_raw(R, r, va) -> np.ndarray:
    """U.T @ V_A for U built from (R, r); 6-array in, 6-array out."""
    v, w = va[:3], va[3:]
    out = np.empty(6)
    out[:3] = R.T @ (v + cross3(w, r))
    out[3:] = R.T @ w
    return out


def transform_wrench_raw(R, r, fb) -> np.ndarray:
    """U @ F_B for U built from (R, r); 6-array in, 6-array out."""
    fa = R @ fb[:3]
    out = np.empty(6)
    out[:3] = fa
    out[3:] = cross3(r, fa) + R @ fb[3:]
    return out


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (w, vec) with the scalar part kept non-negative.

    The double cover is resolved by flipping the sign so that w >= 0; if w is
    zero the first nonzero vector component is made positive instead.
    """

    w: float
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "vec", _freeze(self.vec))
        if self.vec.shape != (3,):
            raise ValueError("quaternion vector part must be a 3-vector")
        x, y, z = self.vec.tolist()
        n = math.sqrt(self.w * self.w + x * x + y * y + z * z)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"quaternion is not unit norm (|q| = {n:.12g})")

    def sign_normalized(self) -> "UnitQuaternion":
        if self.w > 0.0:
            return self
        q = np.concatenate(([self.w], self.vec))
        nz = q[np.abs(q) > 0.0]
        if self.w < 0.0 or (self.w == 0.0 and nz.size and nz[0] < 0.0):
            return UnitQuaternion(-self.w, -self.vec)
        return self

    def rotation(self) -> np.ndarray:
        w, (x, y, z) = self.w, self.vec
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])


def quat_from_rotation(R) -> UnitQuaternion:
    """Convert a rotation matrix to the sign-normalized unit quaternion.

    Uses the dominant-component (Shepperd) branch selection, which stays
    accurate for all rotation angles.  Works on Python floats: the matrix is
    checked once and read once.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _check_rotation(R)
    t = r00 + r11 + r22
    k = (1.0 + t, 1.0 + 2.0 * r00 - t, 1.0 + 2.0 * r11 - t, 1.0 + 2.0 * r22 - t)
    i = k.index(max(k))
    s = 2.0 * math.sqrt(max(k[i], 0.0))
    if i == 0:
        q = (s / 4.0, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif i == 1:
        q = ((r21 - r12) / s, s / 4.0, (r01 + r10) / s, (r02 + r20) / s)
    elif i == 2:
        q = ((r02 - r20) / s, (r01 + r10) / s, s / 4.0, (r12 + r21) / s)
    else:
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, s / 4.0)
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return UnitQuaternion(q[0] / norm, np.array(q[1:]) / norm).sign_normalized()
