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
from functools import cached_property

import numpy as np

from .rigid_body import InertialParams
from .spatial import (AXIS_ROTATION_PATTERN, FrameTransform, UnitQuaternion, axis_vector,
                      euler_xyz_rate_matrix, euler_xyz_to_quaternion, euler_xyz_to_rotation,
                      prefix_products, quat_from_rotation, rotation_to_euler_xyz,
                      rotations_to_euler_xyz, skew, transform_velocity_raw,
                      transform_wrench_raw)

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

    @cached_property
    def rotation(self) -> np.ndarray:
        """The orientation's rotation matrix, built on first use; a pose made by
        :meth:`from_rotation` holds the checked matrix it was made from."""
        R = self.orientation.rotation()
        R.setflags(write=False)
        return R

    @classmethod
    def from_rotation(cls, position, R) -> "Pose":
        """Pose with the quaternion of rotation ``R``, keeping ``R`` itself."""
        pose = cls(position, quat_from_rotation(R))
        R = np.asarray(R, dtype=float).view()
        R.setflags(write=False)
        object.__setattr__(pose, "rotation", R)     # fills the cached property
        return pose

    def as_vector(self) -> np.ndarray:
        """chi = [p, euler_xyz] (used for logs and trajectory endpoints)."""
        return np.concatenate((self.position, rotation_to_euler_xyz(self.rotation)))


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
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    axis_cross: np.ndarray = field(init=False, repr=False, compare=False)
    rotation_index: np.ndarray = field(init=False, repr=False, compare=False)
    tip_R: np.ndarray = field(init=False, repr=False, compare=False)
    mount_R: np.ndarray = field(init=False, repr=False, compare=False)
    tip_r: np.ndarray = field(init=False, repr=False, compare=False)
    chain_lower: np.ndarray = field(init=False, repr=False, compare=False)
    chain_eye: np.ndarray = field(init=False, repr=False, compare=False)
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
        slots = np.array([_AXIS_SLOT[j.axis] for j in joints], dtype=int)
        axes = np.array([j.axis_unit for j in joints]).reshape(n, 3)
        # entry (i, a, b) of joint i's rotation is row pattern[a, b] of the
        # (5, n) table of values, column i
        pattern = np.array([AXIS_ROTATION_PATTERN[j.axis] for j in joints], dtype=int)
        blocks = np.arange(n)
        stacks = {
            "gravity": g,
            "slots": slots,
            "columns": 6 * blocks + slots,
            "axis_cross": np.swapaxes(skew(axes), 1, 2),
            "rotation_index": pattern.reshape(n, 3, 3) * n + blocks[:, None, None],
            "tip_R": np.array([j.tip.R for j in joints]).reshape(n, 3, 3),
            # the rotation of T_{i-1}, where joint i is mounted, in B_{i-1}: the
            # base rotation (in the world) for the first joint
            "mount_R": np.array([self.base.R] + [j.tip.R for j in joints])[:n],
            "tip_r": np.array([j.tip.r for j in joints]).reshape(n, 3),
            "chain_lower": np.kron(blocks[:, None] > blocks[None, :], np.ones((6, 6))) > 0,
            "chain_eye": np.eye(6 * n),
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

    def joint_rotations(self, q) -> np.ndarray:
        """(n, 3, 3) rotations T_{i-1} -> B_i at ``q``, gathered from one cos/sin table."""
        table = np.empty((5, self.n))
        table[0], table[1] = 0.0, 1.0
        np.cos(q, out=table[2])
        np.sin(q, out=table[3])
        np.negative(table[3], out=table[4])
        return table.take(self.rotation_index)

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
    """World pose of every frame: base (T_0), then B_i and T_i per link; the
    joint rotations T_{i-1} -> B_i; and the chain operator the sweeps apply.

    The chain operator X is 6n x 6n and block lower triangular: block (i, k)
    is the velocity transform X_{B_i <- B_k} for k <= i, with the diagonal
    blocks exactly I6.  A base-to-tip sweep of per-link inputs u is X u, and
    a tip-to-base force sweep of per-link loads is X' f.
    """

    R0: np.ndarray
    p0: np.ndarray
    Rb: np.ndarray      # (n, 3, 3)
    pb: np.ndarray      # (n, 3)
    Rt: np.ndarray
    pt: np.ndarray
    Rj: np.ndarray      # (n, 3, 3)
    X: np.ndarray       # (6n, 6n)


def chain_poses(model: RobotModel, q) -> ChainPoses:
    n = model.n
    Rj = model.joint_rotations(np.asarray(q, dtype=float))
    # Rb_i = Rb_{i-1} R_mount,i Rj_i, the only product that runs along the chain
    Rb = prefix_products(model.mount_R @ Rj)
    Rt = Rb @ model.tip_R
    p = np.cumsum(np.concatenate((model.base.r[None], (Rb @ model.tip_r[:, :, None])[:, :, 0])),
                  axis=0)
    pb, pt = p[:-1], p[1:]

    # X_{B_i <- B_k} = Y_i Z_k through the world frame: Y_i maps a world
    # velocity (about the world origin) into B_i, and Z_k = Y_k^-1 is Y_k with
    # each 3x3 block transposed in place
    Rbt = np.swapaxes(Rb, 1, 2)
    Y = np.zeros((n, 2, 3, 2, 3))
    Y[:, 0, :, 0] = Y[:, 1, :, 1] = Rbt
    Y[:, 0, :, 1] = -(Rbt @ skew(pb))
    Z = Y.transpose(1, 4, 0, 3, 2).reshape(6, 6 * n)
    X = np.where(model.chain_lower, Y.reshape(6 * n, 6) @ Z, model.chain_eye)
    return ChainPoses(model.base.R, model.base.r, Rb, pb, Rt, pt, Rj, X)


def forward_kinematics(model: RobotModel, q) -> Pose:
    """Pose of the last frame (T_n) in world coordinates."""
    if model.n == 0:
        return Pose.from_rotation(model.base.r, model.base.R)
    poses = chain_poses(model, q)
    return Pose.from_rotation(poses.pt[-1], poses.Rt[-1])


def jacobian(model: RobotModel, poses: ChainPoses) -> np.ndarray:
    """Geometric Jacobian of the tip, world frame: [v, omega] = J @ qdot.

    Read off the chain operator: its last block row at the joints' axis slots
    is the B_n velocity per unit joint rate, which the last tip map carries to
    T_n and the tip rotation turns into the world frame.
    """
    local = model.tip_velocity[-1] @ poses.X[-6:, model.columns]
    return (poses.Rt[-1] @ local.reshape(2, 3, model.n)).reshape(6, model.n)


def orientation_error(q_cur: UnitQuaternion, q_des: UnitQuaternion) -> np.ndarray:
    """Vector part of the relative rotation, expressed in the world frame.

    e_o = eta ep_d - eta_d ep - skew(ep_d) ep with (eta, ep) the current and
    (eta_d, ep_d) the desired quaternion, both sign-normalized first so the
    double cover cannot flip the error.
    """
    qc = q_cur.sign_normalized()
    qd = q_des.sign_normalized()
    w, (x, y, z) = qc.w, qc.vec.tolist()
    wd, (xd, yd, zd) = qd.w, qd.vec.tolist()
    return np.array([w * xd - wd * x - (yd * z - zd * y),
                     w * yd - wd * y - (zd * x - xd * z),
                     w * zd - wd * z - (xd * y - yd * x)])


def pose_error(pose: Pose, pose_d: Pose) -> np.ndarray:
    """6-vector task error [p_d - p, e_o]."""
    return np.concatenate((pose_d.position - pose.position,
                           orientation_error(pose.orientation, pose_d.orientation)))


def clik_required_velocity(J, e, vel_d, xi, damping: float = 1e-3) -> np.ndarray:
    """Closed-loop inverse kinematics: qdot_r = J+ (vel_d + xi e).

    ``e`` is the task error [p_d - p, e_o] of :func:`pose_error` and ``vel_d``
    the desired task velocity [v_d, omega_d] (true angular velocity).  The
    pseudo-inverse is damped least squares, J' (J J' + damping^2 I)^-1, which
    stays bounded through singularities; damping = 0 recovers the exact
    (pseudo-)inverse for full-rank J.
    """
    J = np.asarray(J, dtype=float)
    xi = np.asarray(xi, dtype=float)
    u = np.asarray(vel_d, dtype=float) + (xi @ e if xi.ndim == 2 else xi * e)
    A = J @ J.T + damping ** 2 * np.eye(J.shape[0])
    return J.T @ np.linalg.solve(A, u)


@dataclass(frozen=True)
class TrajectorySample:
    t: float | np.ndarray
    chi: np.ndarray
    chi_dot: np.ndarray
    chi_ddot: np.ndarray


def quintic_trajectory(chi0, chif, duration: float, t) -> TrajectorySample:
    """Minimum-jerk point-to-point profile with zero endpoint velocity/acceleration.

    chi(t) = chi0 + (chif - chi0) (10 tau^3 - 15 tau^4 + 6 tau^5), tau = t/T.
    A time array of shape (m,) gives (m, k) samples.  Raises for t outside
    [0, T]; callers that hold the final pose clamp first.
    """
    chi0 = np.asarray(chi0, dtype=float)
    chif = np.asarray(chif, dtype=float)
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    times = np.asarray(t, dtype=float)
    if np.any(times < 0.0) or np.any(times > duration):
        raise ValueError(f"t = {t} outside [0, {duration}]")
    tau = times[..., None] / duration
    d = chif - chi0
    s = 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5
    sd = (30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4) / duration
    sdd = (60.0 * tau - 180.0 * tau ** 2 + 120.0 * tau ** 3) / duration ** 2
    return TrajectorySample(t, chi0 + d * s, d * sd, d * sdd)


# A reference is sampled as a table: ``tabulate(t)`` gives one row of floats
# per time of ``t``, in one vectorized call, and ``unpack(row)`` reads the
# desired values off a row.  A run tabulates its whole tick grid once, before
# the first tick (see VdcController); ``desired(t)`` is the same code on one
# time.


class CartesianQuinticReference:
    """Quintic sweep between two chi = [p, euler_xyz] endpoints, then hold."""

    def __init__(self, chi0, chif, duration: float):
        self.chi0 = np.asarray(chi0, dtype=float).reshape(6)
        self.chif = np.asarray(chif, dtype=float).reshape(6)
        self.duration = float(duration)
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")

    def tabulate(self, t) -> np.ndarray:
        """(m, 16) rows [chi_d, quaternion (w, x, y, z), v_d, omega_d] at the (m,)
        times ``t``: chi_d is [p_d, euler_xyz(R_d)] (angles folded as
        :func:`rotation_to_euler_xyz` folds them), the task velocity uses the
        true angular velocity, and from the duration on the target is held."""
        t = np.asarray(t, dtype=float)
        hold = (t >= self.duration)[:, None]
        s = quintic_trajectory(self.chi0, self.chif, self.duration,
                               np.clip(t, 0.0, self.duration))
        chi = np.where(hold, self.chif, s.chi)
        rate = np.where(hold, 0.0, s.chi_dot)
        alpha, beta, delta = chi[:, 3:].T
        rows = np.empty((len(t), 16))
        rows[:, :3] = chi[:, :3]
        rows[:, 3:6] = rotations_to_euler_xyz(euler_xyz_to_rotation(alpha, beta, delta))
        rows[:, 6:10] = euler_xyz_to_quaternion(alpha, beta, delta)
        rows[:, 10:13] = rate[:, :3]
        rows[:, 13:] = (euler_xyz_rate_matrix(alpha, beta) @ rate[:, 3:, None])[:, :, 0]
        return rows

    @staticmethod
    def unpack(row) -> tuple[Pose, np.ndarray, np.ndarray]:
        """(desired pose, task velocity [v_d, omega_d], chi_d) of one table row."""
        return Pose(row[:3], UnitQuaternion(row[6], row[7:10])), row[10:], row[:6]

    def desired(self, t: float) -> tuple[Pose, np.ndarray]:
        """Desired pose and task velocity [v_d, omega_d] at time t."""
        return self.unpack(self.tabulate([t])[0])[:2]


class JointSineReference:
    """Per-joint reference q_d,i(t) = A sin(w t) (joint-space scenarios)."""

    def __init__(self, n: int, amplitude: float = 1.0, omega: float = 1.0):
        self.n = int(n)
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def tabulate(self, t) -> np.ndarray:
        """(m, 2n) rows [q_d, qdot_d] at the (m,) times ``t``."""
        wt = self.omega * np.asarray(t, dtype=float)[:, None]
        rows = np.empty((len(wt), 2 * self.n))
        rows[:, :self.n] = self.amplitude * np.sin(wt)
        rows[:, self.n:] = self.amplitude * self.omega * np.cos(wt)
        return rows

    def unpack(self, row) -> tuple[np.ndarray, np.ndarray]:
        """(q_d, qdot_d) of one table row."""
        return row[:self.n], row[self.n:]

    def desired(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return self.unpack(self.tabulate([t])[0])
