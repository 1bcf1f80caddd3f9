"""Serial-chain model, forward kinematics, Jacobian, CLIK and references.

Frame layout: every joint i connects frame T_{i-1} (fixed to the previous
link, or to the base for i = 1) with frame B_i (fixed to link i).  The joint
itself is a pure rotation by q_i about a principal axis of B_i, so the
T_{i-1} -> B_i transform is (R_axis(q_i), 0); any constant mounting rotation
or offset is folded into the previous link's B -> T transform (or into the
base pose for the first joint).  Each link's inertial parameters are written
in its own B frame and are constant.

Task-space poses pair a position with a unit quaternion.  The 6-vector form
chi = [p, euler_xyz] is used by trajectory endpoints and logs; velocity-level
quantities always use the true angular velocity, never Euler rates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rigid_body import InertialParams
from .spatial import (FrameTransform, UnitQuaternion, axis_rotation, axis_vector, cross3,
                      euler_xyz_rate_matrix, euler_xyz_to_rotation, quat_from_rotation,
                      rotation_to_euler_xyz, skew, transform_velocity_raw, transform_wrench_raw)

# selector slots: linear part first, angular part last
_AXIS_SLOT = {"x": 3, "y": 4, "z": 5}

# axis pattern required of seven-joint arm models (shoulder/elbow/wrist layout)
SEVEN_JOINT_AXES = ("z", "z", "z", "z", "x", "z", "y")


@dataclass(frozen=True)
class Joint:
    """One revolute joint plus the link it drives."""

    name: str
    axis: str                       # 'x' | 'y' | 'z', in the B frame
    motor_inertia: float            # reflected drive inertia, kg m^2
    tip: FrameTransform             # constant B_i -> T_i transform
    link: InertialParams            # link body, written in B_i
    limit: tuple[float, float] = (-np.pi, np.pi)

    def __post_init__(self):
        if self.axis not in _AXIS_SLOT:
            raise ValueError(f"joint {self.name!r}: axis must be one of x, y, z")
        if self.motor_inertia < 0.0:
            raise ValueError(f"joint {self.name!r}: motor inertia must be >= 0")

    @property
    def selector(self) -> np.ndarray:
        """6-vector picking the joint's angular axis (the kappa vector)."""
        k = np.zeros(6)
        k[_AXIS_SLOT[self.axis]] = 1.0
        return k

    @property
    def axis_unit(self) -> np.ndarray:
        return axis_vector(self.axis)


@dataclass(frozen=True)
class Pose:
    position: np.ndarray
    orientation: UnitQuaternion

    def __post_init__(self):
        p = np.array(self.position, dtype=float)
        if p.shape != (3,):
            raise ValueError("position must be a 3-vector")
        p.setflags(write=False)
        object.__setattr__(self, "position", p)

    def as_vector(self) -> np.ndarray:
        """chi = [p, euler_xyz] (used for logs and trajectory endpoints)."""
        return np.concatenate((self.position,
                               rotation_to_euler_xyz(self.orientation.rotation())))


@dataclass(frozen=True)
class RobotModel:
    name: str
    joints: tuple[Joint, ...]
    base: FrameTransform
    gravity: np.ndarray
    home_pose: Pose | None = None
    # per-joint constants stacked along the chain, read-only, built once; the
    # true parameters are shaped as the link and drive adapters' estimates
    slots: np.ndarray = field(init=False, repr=False, compare=False)
    axes: np.ndarray = field(init=False, repr=False, compare=False)
    tip_velocity: np.ndarray = field(init=False, repr=False, compare=False)
    tip_wrench: np.ndarray = field(init=False, repr=False, compare=False)
    link_phi: np.ndarray = field(init=False, repr=False, compare=False)
    drive_phi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.array(self.gravity, dtype=float)
        if g.shape != (3,):
            raise ValueError("gravity must be a 3-vector")
        joints = tuple(self.joints)
        n, unit = len(joints), np.eye(6)
        stacks = {
            "gravity": g,
            "slots": np.array([_AXIS_SLOT[j.axis] for j in joints], dtype=int),
            "axes": np.array([j.axis_unit for j in joints]).reshape(n, 3),
            "tip_velocity": np.array([[transform_velocity_raw(j.tip.R, j.tip.r, e) for e in unit]
                                      for j in joints]).reshape(n, 6, 6).transpose(0, 2, 1),
            "tip_wrench": np.array([[transform_wrench_raw(j.tip.R, j.tip.r, e) for e in unit]
                                    for j in joints]).reshape(n, 6, 6).transpose(0, 2, 1),
            "link_phi": np.array([j.link.as_vector() for j in joints]).reshape(n, 10),
            "drive_phi": np.array([[j.motor_inertia] for j in joints], dtype=float).reshape(n, 1),
        }
        for name, a in stacks.items():
            a = np.ascontiguousarray(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "joints", joints)

    @property
    def n(self) -> int:
        return len(self.joints)

    def validate(self) -> list[str]:
        """Model-level checks; returns human-readable problem descriptions."""
        from .manifold import is_consistent
        problems = []
        for i, j in enumerate(self.joints, start=1):
            if not is_consistent(j.link):
                problems.append(f"link {i} ({j.name}): inertial parameters are not "
                                f"physically consistent (pseudo-inertia not positive definite)")
            if not j.limit[0] < j.limit[1]:
                problems.append(f"joint {i} ({j.name}): empty joint-limit interval")
        if self.n == 7:
            axes = tuple(j.axis for j in self.joints)
            if axes != SEVEN_JOINT_AXES:
                problems.append(f"seven-joint arm must use axis pattern "
                                f"{SEVEN_JOINT_AXES}, got {axes}")
        return problems


@dataclass(frozen=True)
class ChainPoses:
    """World pose of every frame: base (T_0), then B_i and T_i per link, and
    the joint rotations T_{i-1} -> B_i the sweeps read."""

    R0: np.ndarray
    p0: np.ndarray
    Rb: np.ndarray      # (n, 3, 3)
    pb: np.ndarray      # (n, 3)
    Rt: np.ndarray
    pt: np.ndarray
    Rj: np.ndarray      # (n, 3, 3)


def chain_poses(model: RobotModel, q) -> ChainPoses:
    q = np.asarray(q, dtype=float)
    n = model.n
    Rb = np.empty((n, 3, 3))
    pb = np.empty((n, 3))
    Rt = np.empty((n, 3, 3))
    pt = np.empty((n, 3))
    Rj = np.empty((n, 3, 3))
    R, p = model.base.R, model.base.r
    for i, joint in enumerate(model.joints):
        Rj[i] = axis_rotation(joint.axis, q[i])
        R = R @ Rj[i]
        Rb[i], pb[i] = R, p
        p = p + R @ joint.tip.r
        R = R @ joint.tip.R
        Rt[i], pt[i] = R, p
    return ChainPoses(model.base.R, model.base.r, Rb, pb, Rt, pt, Rj)


def forward_kinematics(model: RobotModel, q) -> Pose:
    """Pose of the last frame (T_n) in world coordinates."""
    if model.n == 0:
        return Pose(model.base.r, quat_from_rotation(model.base.R))
    poses = chain_poses(model, q)
    return Pose(poses.pt[-1], quat_from_rotation(poses.Rt[-1]))


def jacobian(model: RobotModel, poses: ChainPoses) -> np.ndarray:
    """Geometric Jacobian of the tip, world frame: [v, omega] = J @ qdot."""
    axis_w = (poses.Rb @ model.axes[:, :, None])[:, :, 0]
    return np.concatenate((cross3(axis_w, poses.pt[-1] - poses.pb), axis_w), axis=1).T


def orientation_error(q_cur: UnitQuaternion, q_des: UnitQuaternion) -> np.ndarray:
    """Vector part of the relative rotation, expressed in the world frame.

    e_o = eta ep_d - eta_d ep - skew(ep_d) ep with (eta, ep) the current and
    (eta_d, ep_d) the desired quaternion, both sign-normalized first so the
    double cover cannot flip the error.
    """
    qc = q_cur.sign_normalized()
    qd = q_des.sign_normalized()
    return (qc.w * qd.vec - qd.w * qc.vec - skew(qd.vec) @ qc.vec)


def pose_error(pose: Pose, pose_d: Pose) -> np.ndarray:
    """6-vector task error [p_d - p, e_o]."""
    return np.concatenate((pose_d.position - pose.position,
                           orientation_error(pose.orientation, pose_d.orientation)))


def clik_required_velocity(J, pose: Pose, pose_d: Pose, vel_d, xi,
                           damping: float = 1e-3) -> np.ndarray:
    """Closed-loop inverse kinematics: qdot_r = J+ (vel_d + xi e).

    ``vel_d`` is the desired task velocity [v_d, omega_d] (true angular
    velocity).  The pseudo-inverse is damped least squares,
    J' (J J' + damping^2 I)^-1, which stays bounded through singularities;
    damping = 0 recovers the exact (pseudo-)inverse for full-rank J.
    """
    J = np.asarray(J, dtype=float)
    xi = np.asarray(xi, dtype=float)
    e = pose_error(pose, pose_d)
    u = np.asarray(vel_d, dtype=float) + (xi @ e if xi.ndim == 2 else xi * e)
    A = J @ J.T + damping ** 2 * np.eye(J.shape[0])
    return J.T @ np.linalg.solve(A, u)


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    chi: np.ndarray
    chi_dot: np.ndarray
    chi_ddot: np.ndarray


def quintic_trajectory(chi0, chif, duration: float, t: float) -> TrajectorySample:
    """Minimum-jerk point-to-point profile with zero endpoint velocity/acceleration.

    chi(t) = chi0 + (chif - chi0) (10 tau^3 - 15 tau^4 + 6 tau^5), tau = t/T.
    Raises for t outside [0, T]; callers that hold the final pose clamp first.
    """
    chi0 = np.asarray(chi0, dtype=float)
    chif = np.asarray(chif, dtype=float)
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if t < 0.0 or t > duration:
        raise ValueError(f"t = {t} outside [0, {duration}]")
    tau = t / duration
    d = chif - chi0
    s = 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5
    sd = (30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4) / duration
    sdd = (60.0 * tau - 180.0 * tau ** 2 + 120.0 * tau ** 3) / duration ** 2
    return TrajectorySample(t, chi0 + d * s, d * sd, d * sdd)


class CartesianQuinticReference:
    """Quintic sweep between two chi = [p, euler_xyz] endpoints, then hold."""

    def __init__(self, chi0, chif, duration: float):
        self.chi0 = np.asarray(chi0, dtype=float).reshape(6)
        self.chif = np.asarray(chif, dtype=float).reshape(6)
        self.duration = float(duration)
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")

    def sample(self, t: float) -> TrajectorySample:
        if t >= self.duration:
            return TrajectorySample(t, self.chif.copy(), np.zeros(6), np.zeros(6))
        return quintic_trajectory(self.chi0, self.chif, self.duration, max(t, 0.0))

    def desired(self, t: float) -> tuple[Pose, np.ndarray]:
        """Desired pose and task velocity [v_d, omega_d] at time t."""
        s = self.sample(t)
        ang = s.chi[3:]
        pose = Pose(s.chi[:3], quat_from_rotation(euler_xyz_to_rotation(*ang)))
        omega = euler_xyz_rate_matrix(ang[0], ang[1]) @ s.chi_dot[3:]
        return pose, np.concatenate((s.chi_dot[:3], omega))


class JointSineReference:
    """Per-joint reference q_d,i(t) = A sin(w t) (joint-space scenarios)."""

    def __init__(self, n: int, amplitude: float = 1.0, omega: float = 1.0):
        self.n = int(n)
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def desired(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        q = np.full(self.n, self.amplitude * np.sin(self.omega * t))
        qd = np.full(self.n, self.amplitude * self.omega * np.cos(self.omega * t))
        return q, qd
