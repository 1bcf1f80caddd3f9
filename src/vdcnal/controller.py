"""Decentralized chain controller.

One control tick does, in order:

1. required joint velocities, either from closed-loop inverse kinematics
   (task mode) or from a joint-space reference (joint mode); required joint
   accelerations by backward differencing at the control period (first tick
   zero);
2. a base-to-tip sweep producing the actual and required spatial velocity of
   every link frame, plus the required spatial accelerations (the transform
   rates use the measured joint rates);
3. per link, the required net wrench  W phi_hat + K_B (V_r - V)  from the
   body regressor and the current parameter estimate;
4. a tip-to-base sweep accumulating required wrenches through the joints
   (zero required wrench at the tip);
5. per joint, tau = I_hat qddot_r + k_a (qdot_r - qdot) + kappa' F_r;
6. adaptation updates from s = W' (V_r - V) per link and the scalar analog
   per joint drive.

Every quantity a stability monitor needs (velocity/force pairs at both frames
of every link) is kept in the returned snapshot; the simulation harness adds
the measured-side force sweep, which needs the true parameters and the joint
accelerations and therefore lives outside the control path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import (ChainPoses, Pose, RobotModel, chain_poses, clik_required_velocity,
                         jacobian, pose_error)
from .rigid_body import assemble_matrices, net_wrench, regressor
from .spatial import (axis_rotation, cross3, quat_from_rotation, transform_velocity_raw,
                      transform_wrench_raw)

_ZERO3 = np.zeros(3)


@dataclass(frozen=True)
class ControllerGains:
    """Gain set shared by both scenarios; scalars expand to iso-tropic matrices."""

    xi: float = 25.0            # task/joint position-error gain, 1/s
    k_b: float = 1.2            # per-link velocity-error gain (times I6)
    k_a: float = 0.1            # joint velocity-error gain
    gamma: float = 10.0         # link adaptation gain (natural law)
    gamma_a: float = 10.0       # joint-drive adaptation gain
    clik_damping: float = 1e-3  # damped-least-squares parameter

    def validate(self) -> list[str]:
        bad = [name for name in ("xi", "k_b", "k_a", "gamma", "gamma_a")
               if getattr(self, name) <= 0.0]
        problems = [f"gain {name} must be positive" for name in bad]
        if self.clik_damping < 0.0:
            problems.append("clik_damping must be >= 0")
        return problems


def propagate_velocities(model: RobotModel, q, qdot, qdot_r):
    """Base-to-tip velocity sweep for the actual and required joint rates.

    Returns (vb, vt, vrb, vrt), each (n, 6), expressed in the local frames.
    The base frame is stationary, so both sweeps start from zero.
    """
    n = model.n
    vb = np.zeros((n, 6)); vt = np.zeros((n, 6))
    vrb = np.zeros((n, 6)); vrt = np.zeros((n, 6))
    prev = np.zeros(6)
    prev_r = np.zeros(6)
    for i, joint in enumerate(model.joints):
        R = axis_rotation(joint.axis, q[i])
        k = joint.selector
        vb[i] = transform_velocity_raw(R, _ZERO3, prev) + k * qdot[i]
        vrb[i] = transform_velocity_raw(R, _ZERO3, prev_r) + k * qdot_r[i]
        vt[i] = transform_velocity_raw(joint.tip.R, joint.tip.r, vb[i])
        vrt[i] = transform_velocity_raw(joint.tip.R, joint.tip.r, vrb[i])
        prev, prev_r = vt[i], vrt[i]
    return vb, vt, vrb, vrt


def propagate_accelerations(model: RobotModel, q, qdot, qddot, vt_chain):
    """Base-to-tip sweep of frame-coordinate accelerations.

    ``qddot`` are the joint accelerations of the velocity set being
    differentiated (required or actual); ``vt_chain`` are that set's T-frame
    velocities.  The joint-transform rate always uses the measured rates
    ``qdot`` because the frames move with the actual mechanism.
    Returns (ab, at), each (n, 6).
    """
    n = model.n
    ab = np.zeros((n, 6)); at = np.zeros((n, 6))
    prev_a = np.zeros(6)
    for i, joint in enumerate(model.joints):
        R = axis_rotation(joint.axis, q[i])
        k3 = joint.axis_unit
        prev_v = vt_chain[i - 1] if i > 0 else np.zeros(6)
        a = transform_velocity_raw(R, _ZERO3, prev_a)
        a[:3] -= qdot[i] * cross3(k3, R.T @ prev_v[:3])
        a[3:] -= qdot[i] * cross3(k3, R.T @ prev_v[3:])
        ab[i] = a + joint.selector * qddot[i]
        at[i] = transform_velocity_raw(joint.tip.R, joint.tip.r, ab[i])
        prev_a = at[i]
    return ab, at


def link_control_wrench(W, phi_hat, k_b, v_r, v) -> np.ndarray:
    """Required net wrench of one link: W phi_hat + K_B (V_r - V)."""
    dv = v_r - v
    fb = k_b @ dv if np.ndim(k_b) == 2 else k_b * dv
    return W @ phi_hat + fb


def propagate_forces(model: RobotModel, q, net_b, tip):
    """Tip-to-base force sweep; ``tip`` is the wrench passed on at T_n.

    Returns (fb, ft), each (n, 6): fb[j] = U(tip_j) ft[j] + net_b[j] and
    ft[j-1] = U(joint_j) fb[j].
    """
    n = model.n
    fb = np.zeros((n, 6)); ft = np.zeros((n, 6))
    carried = np.asarray(tip, dtype=float)
    for j in range(n - 1, -1, -1):
        joint = model.joints[j]
        ft[j] = carried
        fb[j] = transform_wrench_raw(joint.tip.R, joint.tip.r, carried) + net_b[j]
        R = axis_rotation(joint.axis, q[j])
        carried = transform_wrench_raw(R, _ZERO3, fb[j])
    return fb, ft


def joint_torques(model: RobotModel, i_hats, k_a, qddot_r, qdot_r, qdot, fr_b):
    """tau_i = I_hat_i qddot_r,i + k_a (qdot_r,i - qdot_i) + kappa_i' F_r,Bi."""
    n = model.n
    tau_star = np.empty(n)
    tau = np.empty(n)
    for i, joint in enumerate(model.joints):
        tau_star[i] = i_hats[i] * qddot_r[i] + k_a * (qdot_r[i] - qdot[i])
        tau[i] = tau_star[i] + float(joint.selector @ fr_b[i])
    return tau, tau_star


def virtual_power_flow(v_r, v, f_r, f) -> float:
    """p = (V_r - V)'(F_r - F), the power conjugate at one cutting frame."""
    return float((np.asarray(v_r) - np.asarray(v)) @ (np.asarray(f_r) - np.asarray(f)))


@dataclass
class StepSnapshot:
    """Everything one tick produced, for logging and stability monitoring."""

    t: float
    poses: ChainPoses
    pose: Pose
    chi: np.ndarray
    chi_d: np.ndarray
    err: np.ndarray            # [e_p, e_o] in task mode, q_d - q in joint mode
    qdot_r: np.ndarray
    qddot_r: np.ndarray
    vb: np.ndarray
    vt: np.ndarray
    vrb: np.ndarray
    vrt: np.ndarray
    fr_b: np.ndarray
    fr_t: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    min_eigs: np.ndarray


class VdcController:
    """Ties the sweeps together and owns the adapter and differencing state."""

    def __init__(self, model: RobotModel, gains: ControllerGains, reference,
                 link_adapters, joint_adapters, mode: str = "task",
                 dt: float = 1e-3, joint_gain: float | None = None):
        if mode not in ("task", "joint"):
            raise ValueError("mode must be 'task' or 'joint'")
        if len(link_adapters) != model.n or len(joint_adapters) != model.n:
            raise ValueError("need one link adapter and one joint adapter per joint")
        self.model = model
        self.gains = gains
        self.reference = reference
        self.link_adapters = list(link_adapters)
        self.joint_adapters = list(joint_adapters)
        self.mode = mode
        self.dt = float(dt)
        self.joint_gain = gains.xi if joint_gain is None else float(joint_gain)
        self._prev_qdot_r = None

    def step(self, t: float, q, qdot) -> tuple[np.ndarray, StepSnapshot]:
        model = self.model
        g = self.gains
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        poses = chain_poses(model, q)
        pose = Pose(poses.pt[-1], quat_from_rotation(poses.Rt[-1]))
        chi = pose.as_vector()

        if self.mode == "task":
            pose_d, vel_d = self.reference.desired(t)
            J = jacobian(model, poses)
            qdot_r = clik_required_velocity(J, pose, pose_d, vel_d, g.xi, g.clik_damping)
            err = pose_error(pose, pose_d)
            chi_d = pose_d.as_vector()
        else:
            q_d, qd_d = self.reference.desired(t)
            err = q_d - q
            qdot_r = qd_d + self.joint_gain * err
            chi_d = chi

        if self._prev_qdot_r is None:
            qddot_r = np.zeros(model.n)
        else:
            qddot_r = (qdot_r - self._prev_qdot_r) / self.dt
        self._prev_qdot_r = qdot_r

        vb, vt, vrb, vrt = propagate_velocities(model, q, qdot, qdot_r)
        ar_b, _ = propagate_accelerations(model, q, qdot, qddot_r, vrt)

        n = model.n
        net_r = np.empty((n, 6))
        regs = []
        for i in range(n):
            W = regressor(ar_b[i], vrb[i], poses.Rb[i].T, model.gravity)
            regs.append(W)
            net_r[i] = link_control_wrench(W, self.link_adapters[i].phi_hat(),
                                           g.k_b, vrb[i], vb[i])
        fr_b, fr_t = propagate_forces(model, q, net_r, np.zeros(6))

        i_hats = [a.phi_hat()[0] for a in self.joint_adapters]
        tau, tau_star = joint_torques(model, i_hats, g.k_a, qddot_r, qdot_r, qdot, fr_b)

        for i in range(n):
            self.link_adapters[i].update(regs[i].T @ (vrb[i] - vb[i]), self.dt)
            self.joint_adapters[i].update(qddot_r[i] * (qdot_r[i] - qdot[i]), self.dt)
        min_eigs = np.array([a.min_eig() for a in self.link_adapters])

        snap = StepSnapshot(t, poses, pose, chi, chi_d, err, qdot_r, qddot_r,
                            vb, vt, vrb, vrt, fr_b, fr_t, tau, tau_star, min_eigs)
        return tau, snap


@dataclass(frozen=True)
class StabilityDiagnostics:
    """Per-tick monitor values: virtual power flows and the decrescent total."""

    vpf: np.ndarray            # (n,) at the driven frame of each link
    nu_links: np.ndarray       # (n,)
    nu_joints: np.ndarray      # (n,)
    nu_total: float
    telescope: np.ndarray      # (n-1,) interior cancellation residuals
    min_eigs: np.ndarray       # (n,) of the link pseudo-inertia estimates


def stability_diagnostics(model: RobotModel, snap: StepSnapshot, q, qdot, qddot,
                          tip_wrench, link_adapters, joint_adapters) -> StabilityDiagnostics:
    """Measured-side force sweep plus the decrescent bookkeeping.

    Needs the actual joint accelerations and the true model, so it is a
    simulation-side monitor, not part of the control law.  ``tip_wrench`` is
    the wrench the chain passes to the environment at T_n, in that frame.
    """
    n = model.n
    ab, _ = propagate_accelerations(model, q, qdot, qddot, snap.vt)
    net = np.empty((n, 6))
    mats_list = []
    for i, joint in enumerate(model.joints):
        mats = assemble_matrices(joint.link, snap.vb[i][3:], snap.poses.Rb[i].T,
                                 model.gravity)
        mats_list.append(mats)
        net[i] = net_wrench(mats, ab[i], snap.vb[i])
    fb, ft = propagate_forces(model, q, net, tip_wrench)

    vpf = np.empty(n)
    nu_links = np.empty(n)
    nu_joints = np.empty(n)
    for i, joint in enumerate(model.joints):
        dv = snap.vrb[i] - snap.vb[i]
        vpf[i] = virtual_power_flow(snap.vrb[i], snap.vb[i], snap.fr_b[i], fb[i])
        M = mats_list[i].M
        nu_links[i] = 0.5 * float(dv @ (M @ dv)) + link_adapters[i].distance(joint.link_phi)
        dqd = snap.qdot_r[i] - qdot[i]
        nu_joints[i] = (0.5 * joint.motor_inertia * dqd ** 2
                        + joint_adapters[i].distance(joint.drive_phi))

    telescope = np.empty(max(n - 1, 0))
    for i in range(n - 1):
        p_t = virtual_power_flow(snap.vrt[i], snap.vt[i], snap.fr_t[i], ft[i])
        p_b = vpf[i + 1]
        joint = model.joints[i + 1]
        joint_channel = (snap.qdot_r[i + 1] - qdot[i + 1]) * float(
            joint.selector @ (snap.fr_b[i + 1] - fb[i + 1]))
        telescope[i] = p_b - p_t - joint_channel

    return StabilityDiagnostics(vpf, nu_links, nu_joints,
                                float(np.sum(nu_links) + np.sum(nu_joints)),
                                telescope, snap.min_eigs)
