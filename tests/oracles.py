"""Independent reference forms the tests check the library against.

None of these runs in a simulation: each restates a quantity the library
computes another way (an SPD distance, the center-of-mass Coriolis form, the
per-body matrix route to a net wrench), so agreement between the two is the
test.  The per-link forms are the one-link-at-a-time sweeps, regressor and
natural-law step that the library's stacked versions replaced, and the
projection law's step one channel at a time.  The forms at the end are the
ones the library's constant maps and tables replaced: the Jacobian by cross
products, the frame rotations by a sequential product, the pseudo-inertia
unpacked entry by entry, and the Cartesian reference evaluated at one time on
Python floats.  Last come two inverses the library does not need: the checked
inverse of the pseudo-inertia map for one matrix, and the joint-space mass
matrix read off inverse-dynamics columns.
"""
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from vdcnal.manifold import pseudo_to_vectors
from vdcnal.rigid_body import InertialParams, mass_matrix
from vdcnal.simulation import inverse_dynamics
from vdcnal.spatial import (euler_xyz_rate_matrix, euler_xyz_to_rotation, quat_from_rotation,
                            rotation_to_euler_xyz, skew)


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


def coriolis_matrix(mass, omega) -> np.ndarray:
    """Compact Coriolis assembly [[m wx, -wx hx], [hx wx, wx I_bar]] from the
    mass matrix (which carries m, skew(h) and I_bar); (..., 6, 6), (..., 3) in."""
    mass = np.asarray(mass, dtype=float)
    m, hx, inertia = mass[..., :1, :1], mass[..., 3:, :3], mass[..., 3:, 3:]
    wx = skew(omega)
    C = np.empty(wx.shape[:-2] + (6, 6))
    C[..., :3, :3] = m * wx
    C[..., :3, 3:] = -(wx @ hx)
    C[..., 3:, :3] = hx @ wx
    C[..., 3:, 3:] = wx @ inertia
    return C


def coriolis_matrix_original(params: InertialParams, omega) -> np.ndarray:
    """Coriolis assembly in terms of the center-of-mass inertia.

    The lower-right block reads skew(w) I_A + I_A skew(w) - m rx wx rx with
    I_A the inertia about the center of mass (rotated to the frame axes).
    Differs from :func:`coriolis_matrix` as a matrix, yet produces the
    same product against the velocity [v, omega] that generated it.
    """
    m = params.mass
    wx = skew(omega)
    rx = skew(params.first_moment / params.mass)
    hx = skew(params.first_moment)
    I_com = params.inertia + m * (rx @ rx)   # undo the frame-origin shift
    C = np.zeros((6, 6))
    C[:3, :3] = m * wx
    C[:3, 3:] = -wx @ hx
    C[3:, :3] = hx @ wx
    C[3:, 3:] = wx @ I_com + I_com @ wx - m * rx @ wx @ rx
    return C


# --- the per-body and per-link forms the stacked library code replaced -------

def _cross(a, b) -> np.ndarray:
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _skew(a) -> np.ndarray:
    x, y, z = a
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def gravity_wrench(params: InertialParams, R_AI, g=(0.0, 0.0, 9.8)) -> np.ndarray:
    """G = [m R_AI g, h x (R_AI g)]; R_AI rotates inertial axes into the body frame."""
    ga = np.asarray(R_AI, dtype=float) @ np.asarray(g, dtype=float)
    return np.concatenate((params.mass * ga, _cross(params.first_moment, ga)))


@dataclass(frozen=True)
class BodyMatrices:
    M: np.ndarray
    C: np.ndarray
    G: np.ndarray


def assemble_matrices(params: InertialParams, omega, R_AI, g=(0.0, 0.0, 9.8)) -> BodyMatrices:
    M = mass_matrix(params)
    return BodyMatrices(M, coriolis_matrix(M, omega), gravity_wrench(params, R_AI, g))


def net_wrench(mats: BodyMatrices, accel, vel) -> np.ndarray:
    """Net wrench one body must receive by the matrix route: M a + C V + G."""
    return mats.M @ np.asarray(accel, dtype=float) + mats.C @ np.asarray(vel, dtype=float) + mats.G


def _omega_dot_operator(w) -> np.ndarray:
    wx, wy, wz = w
    return np.array([[wx, 0.0, 0.0, wy, 0.0, wz],
                     [0.0, wy, 0.0, wx, wz, 0.0],
                     [0.0, 0.0, wz, 0.0, wy, wx]])


def regressor_per_body(accel, vel, R_AI, g=(0.0, 0.0, 9.8)) -> np.ndarray:
    """6x10 regressor of one body, as built one link at a time."""
    vd, wd = accel[:3], accel[3:]
    v, w = vel[:3], vel[3:]
    ga = np.asarray(R_AI, dtype=float) @ np.asarray(g, dtype=float)
    wxv = _cross(w, v)
    wx = _skew(w)
    W = np.zeros((6, 10))
    W[:3, 0] = vd + wxv + ga
    W[:3, 1:4] = _skew(wd) + wx @ wx
    W[3:, 1:4] = -(_skew(vd) + _skew(wxv) + _skew(ga))
    W[3:, 4:] = _omega_dot_operator(wd) + wx @ _omega_dot_operator(w)
    return W


def _velocity_raw(R, r, va) -> np.ndarray:
    return np.concatenate((R.T @ (va[:3] + _cross(va[3:], r)), R.T @ va[3:]))


def _wrench_raw(R, r, fb) -> np.ndarray:
    fa = R @ fb[:3]
    return np.concatenate((fa, _cross(r, fa) + R @ fb[3:]))


def _axis_rotation(axis: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return {"x": np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]),
            "y": np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
            "z": np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])}[axis]


def propagate_velocities_per_link(model, q, qdot, qdot_r):
    """(vb, vt, vrb, vrt): one transform per link and velocity set."""
    n = model.n
    vb, vt, vrb, vrt = np.zeros((4, n, 6))
    prev, prev_r = np.zeros(6), np.zeros(6)
    for i, joint in enumerate(model.joints):
        R = _axis_rotation(joint.axis, q[i])
        k = np.eye(6)[3 + "xyz".index(joint.axis)]
        vb[i] = _velocity_raw(R, np.zeros(3), prev) + k * qdot[i]
        vrb[i] = _velocity_raw(R, np.zeros(3), prev_r) + k * qdot_r[i]
        vt[i] = _velocity_raw(joint.tip.R, joint.tip.r, vb[i])
        vrt[i] = _velocity_raw(joint.tip.R, joint.tip.r, vrb[i])
        prev, prev_r = vt[i], vrt[i]
    return vb, vt, vrb, vrt


def propagate_accelerations_per_link(model, q, qdot, qddot, vt_chain):
    """(ab, at), the joint-transform rate from the measured ``qdot``."""
    n = model.n
    ab, at = np.zeros((2, n, 6))
    prev_a = np.zeros(6)
    for i, joint in enumerate(model.joints):
        R = _axis_rotation(joint.axis, q[i])
        k = np.eye(6)[3 + "xyz".index(joint.axis)]
        k3 = k[3:]
        prev_v = vt_chain[i - 1] if i > 0 else np.zeros(6)
        a = _velocity_raw(R, np.zeros(3), prev_a)
        a[:3] -= qdot[i] * _cross(k3, R.T @ prev_v[:3])
        a[3:] -= qdot[i] * _cross(k3, R.T @ prev_v[3:])
        ab[i] = a + k * qddot[i]
        at[i] = _velocity_raw(joint.tip.R, joint.tip.r, ab[i])
        prev_a = at[i]
    return ab, at


def propagate_forces_per_link(model, q, net_b, tip):
    """(fb, ft) of the tip-to-base sweep, one joint at a time."""
    n = model.n
    fb, ft = np.zeros((2, n, 6))
    carried = np.asarray(tip, dtype=float)
    for j in range(n - 1, -1, -1):
        joint = model.joints[j]
        ft[j] = carried
        fb[j] = _wrench_raw(joint.tip.R, joint.tip.r, carried) + net_b[j]
        carried = _wrench_raw(_axis_rotation(joint.axis, q[j]), np.zeros(3), fb[j])
    return fb, ft


def _dual_per_link(s) -> np.ndarray:
    """solve_dual as a 10x10 solve and a sum over the symmetric basis."""
    from vdcnal.adaptation import pseudo_basis
    sym = []
    for i in range(4):
        for j in range(i, 4):
            E = np.zeros((4, 4))
            E[i, j] = E[j, i] = 1.0
            sym.append(E)
    system = np.array([[np.trace(E @ B) for B in sym] for E in pseudo_basis()])
    coeff = np.linalg.solve(system, np.asarray(s, dtype=float))
    return sum(c * B for c, B in zip(coeff, sym))


def nal_step_per_link(L, s, gamma: float, dt: float, method: str = "geometric"):
    """One link's natural-law step from its 4x4 estimate, two decompositions a step."""
    S = _dual_per_link(s)
    if method == "geometric":
        w, Q = np.linalg.eigh(L)
        H = Q @ np.diag(np.sqrt(w)) @ Q.T
        A = (dt / gamma) * (H @ S @ H)
        e, V = np.linalg.eigh(0.5 * (A + A.T))
        L_new = H @ (V @ np.diag(np.exp(e)) @ V.T) @ H
    else:
        L_new = L + (dt / gamma) * (L @ S @ L)
    return 0.5 * (L_new + L_new.T)


def projection_step_per_channel(theta, rho, lower, upper, s, dt: float) -> np.ndarray:
    """One Euler step of the projection law, one channel at a time: a channel
    at a bound whose update points outside stays put, any other moves by
    dt rho s and is clipped into its box."""
    out = []
    for th, r, lo, hi, si in zip(*(np.ravel(a) for a in (theta, rho, lower, upper, s))):
        frozen = (th <= lo and si <= 0.0) or (th >= hi and si >= 0.0)
        out.append(min(max(th if frozen else th + dt * r * si, lo), hi))
    return np.reshape(out, np.shape(theta))


# --- the NumPy forms of the quaternion and Euler conversions -------------------

def quat_from_rotation_numpy(R) -> np.ndarray:
    """[w, x, y, z] of R by Shepperd's branches on NumPy arrays, sign-normalized."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    k = np.array([1.0 + t, 1.0 + 2.0 * R[0, 0] - t, 1.0 + 2.0 * R[1, 1] - t,
                  1.0 + 2.0 * R[2, 2] - t])
    i = int(np.argmax(k))
    s = 2.0 * np.sqrt(max(k[i], 0.0))
    if i == 0:
        q = np.array([s / 4.0, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif i == 1:
        q = np.array([(R[2, 1] - R[1, 2]) / s, s / 4.0, (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif i == 2:
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, s / 4.0,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, s / 4.0])
    q = q / np.linalg.norm(q)
    nz = q[np.abs(q) > 0.0]
    return -q if q[0] < 0.0 or (q[0] == 0.0 and nz[0] < 0.0) else q


def rotation_to_euler_xyz_numpy(R) -> np.ndarray:
    """[alpha, beta, delta] with R = Rx(alpha) Ry(beta) Rz(delta), on NumPy arrays."""
    R = np.asarray(R, dtype=float)
    return np.array([np.arctan2(-R[1, 2], R[2, 2]),
                     np.arcsin(np.clip(R[0, 2], -1.0, 1.0)),
                     np.arctan2(-R[0, 1], R[0, 0])])


# --- the forms the constant maps and the reference table replaced --------------

def jacobian_cross_product(model, poses) -> np.ndarray:
    """Geometric tip Jacobian, world frame, column by column: [u_i x (p_tip - p_i), u_i]."""
    tip = poses.pt[-1]
    columns = []
    for i, joint in enumerate(model.joints):
        u = poses.Rb[i] @ np.eye(3)["xyz".index(joint.axis)]
        columns.append(np.concatenate((_cross(u, tip - poses.pb[i]), u)))
    return np.array(columns).T


def tip_rotations_sequential(model, q) -> np.ndarray:
    """(n, 3, 3) world rotations of the T frames, Rt_i = Rt_{i-1} Rj_i R_tip,i, one
    product after another."""
    factors = [_axis_rotation(j.axis, qi) @ j.tip.R for j, qi in zip(model.joints, q)]
    return np.array(list(accumulate(factors, np.matmul, initial=model.base.R))[1:])


def pseudo_to_vectors_unpack(L) -> np.ndarray:
    """[m, h, vecI] of one symmetric 4x4 pseudo-inertia, entry by entry, with
    I_xx = tr(Sigma) - Sigma_xx and so on."""
    L = np.asarray(L, dtype=float)
    trace = L[0, 0] + L[1, 1] + L[2, 2]
    return np.array([L[3, 3], L[0, 3], L[1, 3], L[2, 3],
                     trace - L[0, 0], trace - L[1, 1], trace - L[2, 2],
                     -L[0, 1], -L[1, 2], -L[0, 2]])


def cartesian_desired_scalar(chi0, chif, duration: float, t: float):
    """(chi_d, quaternion [w, x, y, z], task velocity) of the quintic Cartesian
    reference at one time: the profile on Python floats, then Euler angles ->
    rotation -> checked quaternion, the Euler round trip for chi_d, and the
    Euler-rate map for the angular velocity."""
    if t >= duration:
        chi, rate = np.array(chif, dtype=float), np.zeros(6)
    else:
        tau = max(t, 0.0) / duration
        s = 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5
        sd = (30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4) / duration
        d = np.asarray(chif, dtype=float) - chi0
        chi, rate = chi0 + d * s, d * sd
    R = euler_xyz_to_rotation(*chi[3:])
    omega = euler_xyz_rate_matrix(chi[3], chi[4]) @ rate[3:]
    quat = quat_from_rotation(R)
    return (np.concatenate((chi[:3], rotation_to_euler_xyz(R))),
            np.concatenate(([quat.w], quat.vec)), np.concatenate((rate[:3], omega)))


# --- inverses the library does not need -----------------------------------------

def pseudo_to_params(L) -> InertialParams:
    """Checked inverse of the pseudo-inertia map for one matrix."""
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4) or np.max(np.abs(L - L.T)) > 1e-9 * (1.0 + np.max(np.abs(L))):
        raise ValueError("pseudo-inertia must be a symmetric 4x4")
    m, hx, hy, hz, xx, yy, zz, xy, yz, xz = pseudo_to_vectors(0.5 * (L + L.T))
    return InertialParams(m, [hx, hy, hz], [[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def joint_space_mass_matrix(model, q) -> np.ndarray:
    """M_link(q) + diag(I_m): column j is the zero-gravity inverse dynamics at
    rest with the unit acceleration e_j, plus the reflected drive inertia."""
    rest = np.zeros(model.n)
    columns = [inverse_dynamics(model, q, rest, e, gravity=np.zeros(3)) for e in np.eye(model.n)]
    return np.column_stack(columns) + np.diag([j.motor_inertia for j in model.joints])
