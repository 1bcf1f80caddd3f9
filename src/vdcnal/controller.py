"""Decentralized chain controller.

One control tick computes only what depends on the measured state.  The
reference depends on time alone, so the controller tabulates it on the run's
whole tick grid when it is built (one vectorized call, one row of floats per
tick; see the references in :mod:`vdcnal.kinematics`), and each tick reads
its row.  Then the tick works on (n, ...) stacks along the chain and does,
in order:

1. the chain poses: the joint rotations, gathered in one batch from a cos/sin
   table, the frame rotations by a log-depth scan, the frame positions, and
   the chain operator X, the 6n x 6n block lower-triangular matrix whose
   block (i, k) is the velocity transform X_{B_i <- B_k} (identity on the
   diagonal);
2. required joint velocities, either from closed-loop inverse kinematics on
   the pose error (task mode: the measured tip quaternion comes from the last
   frame rotation, the desired one from the reference row, and the Jacobian
   is read off the last block row of X) or from a joint-space reference
   (joint mode, which builds no quaternion); required joint accelerations by
   backward differencing at the control period (first tick zero);
3. the base-to-tip sweep of the actual and required velocities together, one
   product of X with the joint rates, and the acceleration sweep, one product
   of X with the per-link drive terms (the transform rates use the measured
   joint rates); T-frame velocities follow from one batched tip-map product;
4. the (n, 6, 10) regressor as one product [a + (R g, 0) | vec(V V')] @ M with
   a constant 42 x 60 map M, and the required net wrenches
   W phi_hat + K_B (V_r - V), phi_hat one product of vec(L) with a constant
   16 x 10 map;
5. the tip-to-base force sweep, one product of X' with the required net
   wrenches (zero required wrench at the tip);
6. tau = I_hat qddot_r + k_a (qdot_r - qdot) + kappa' F_r for every joint;
7. one update of the link adapter with S = W' (V_r - V), (n, 10), and one of
   the drive adapter with its (n, 1) scalar analog.

No step loops over the links: the only product that runs along the chain is
the frame rotations' scan in ``chain_poses``, and every per-model constant
(axis slots, tip maps, rotation patterns) is built once with the model.
Every quantity a stability monitor needs (velocity/force pairs at both frames
of every link) is kept in the returned snapshot; the simulation harness adds
the measured-side acceleration and force sweeps with the same operator, which
need the true parameters and the joint accelerations and therefore live
outside the control path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import (ChainPoses, Pose, RobotModel, chain_poses, clik_required_velocity,
                         jacobian, pose_error)
from .rigid_body import body_wrenches, regressor
from .spatial import rotation_to_euler_xyz


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
               if not 0.0 < getattr(self, name) < np.inf]
        problems = [f"gain {name} must be positive and finite" for name in bad]
        if not 0.0 <= self.clik_damping < np.inf:
            problems.append("clik_damping must be >= 0 and finite")
        return problems


def propagate_velocities(model: RobotModel, poses: ChainPoses, qdot, qdot_r):
    """Base-to-tip sweep of the actual and required velocities, carried
    together as one 6x2 block [V | V_r] per frame.

    Returns (vb, vt, vrb, vrt), each (n, 6), expressed in the local frames.
    The base frame is stationary, so a B-frame velocity is the chain operator
    applied to the joint rates, each entered at its axis slot.
    """
    n = model.n
    B = (poses.X[:, model.columns] @ np.stack((qdot, qdot_r), axis=1)).reshape(n, 6, 2)
    T = model.tip_velocity @ B
    return B[:, :, 0], T[:, :, 0], B[:, :, 1], T[:, :, 1]


def propagate_accelerations(model: RobotModel, poses: ChainPoses, qdot, qddot, vt_chain):
    """Base-to-tip sweep of frame-coordinate accelerations.

    ``qddot`` are the joint accelerations of the velocity set being
    differentiated (required or actual); ``vt_chain`` are that set's T-frame
    velocities.  The joint-transform rate always uses the measured rates
    ``qdot`` because the frames move with the actual mechanism, so its term
    -qdot_i k x (R_i' V_T,i-1) is known for every link before the sweep,
    which is then the chain operator applied to it.  Returns the (n, 6)
    B-frame accelerations.
    """
    n = model.n
    inflow = np.zeros((n, 2, 3))
    inflow[1:] = np.reshape(vt_chain[:-1], (n - 1, 2, 3))
    # rows R_i' v, then k_i x (R_i' v), for the linear and angular halves
    drive = (-qdot[:, None, None] * ((inflow @ poses.Rj) @ model.axis_cross)).reshape(n, 6)
    drive[np.arange(n), model.slots] += qddot
    return (poses.X @ drive.reshape(6 * n)).reshape(n, 6)


def link_control_wrench(W, phi_hat, k_b, v_r, v) -> np.ndarray:
    """Required net wrenches W phi_hat + K_B (V_r - V), one row per link."""
    return (W @ phi_hat[..., None])[..., 0] + k_b * (v_r - v)


def propagate_forces(model: RobotModel, poses: ChainPoses, net_b, tip):
    """Tip-to-base force sweep; ``tip`` is the wrench passed on at T_n.

    Returns (fb, ft), each (n, 6): fb[j] = U(tip_j) ft[j] + net_b[j] and
    ft[j-1] = U(joint_j) fb[j], that is fb = X' net_b with the tip wrench
    moved into B_n and added to the last link's load.
    """
    n = model.n
    tip = np.asarray(tip, dtype=float)
    load = np.array(net_b, dtype=float)
    load[-1] += model.tip_wrench[-1] @ tip
    fb = (load.reshape(6 * n) @ poses.X).reshape(n, 6)
    ft = np.empty((n, 6))
    ft[-1] = tip
    ft[:-1] = (fb[1:].reshape(n - 1, 2, 3) @ np.swapaxes(poses.Rj[1:], 1, 2)).reshape(n - 1, 6)
    return fb, ft


def joint_torques(model: RobotModel, i_hats, k_a, qddot_r, qdot_r, qdot, fr_b):
    """tau_i = I_hat_i qddot_r,i + k_a (qdot_r,i - qdot_i) + kappa_i' F_r,Bi."""
    tau_star = i_hats * qddot_r + k_a * (qdot_r - qdot)
    return tau_star + fr_b[np.arange(model.n), model.slots], tau_star


def virtual_power_flow(v_r, v, f_r, f):
    """p = (V_r - V)'(F_r - F), the power conjugate at one cutting frame (or a row each)."""
    return np.sum((np.asarray(v_r) - v) * (np.asarray(f_r) - f), axis=-1)


@dataclass
class StepSnapshot:
    """Everything one tick produced, for logging and stability monitoring."""

    t: float
    poses: ChainPoses
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
    """Ties the sweeps together and owns the adapters and the differencing state.

    ``link_adapters`` and ``joint_adapters`` are one adapter each, for the
    whole chain (see :mod:`vdcnal.adaptation`).  ``ticks`` is the number of
    ticks t_k = k dt of the run, on which the reference is tabulated once; a
    step at any other time tabulates that time alone.
    """

    def __init__(self, model: RobotModel, gains: ControllerGains, reference,
                 link_adapters, joint_adapters, mode: str = "task",
                 dt: float = 1e-3, joint_gain: float | None = None, ticks: int = 0):
        if mode not in ("task", "joint"):
            raise ValueError("mode must be 'task' or 'joint'")
        if (link_adapters.phi_hat().shape, joint_adapters.phi_hat().shape) != \
                ((model.n, 10), (model.n, 1)):
            raise ValueError(f"need link and joint adapters for {model.n} joints")
        self.model = model
        self.gains = gains
        self.reference = reference
        self.link_adapters = link_adapters
        self.joint_adapters = joint_adapters
        self.mode = mode
        self.dt = float(dt)
        self.joint_gain = gains.xi if joint_gain is None else float(joint_gain)
        self._prev_qdot_r = None
        self._table = reference.tabulate(np.arange(ticks) * self.dt)
        self._table.setflags(write=False)     # steps hand out views of its rows

    def _reference_row(self, t: float) -> np.ndarray:
        """The reference at ``t``: its row of the table on the tick grid, else
        the reference tabulated at ``t`` alone."""
        k = round(t / self.dt)
        if 0 <= k < len(self._table) and k * self.dt == t:
            return self._table[k]
        return self.reference.tabulate([t])[0]

    def step(self, t: float, q, qdot) -> tuple[np.ndarray, StepSnapshot]:
        model, g = self.model, self.gains
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        poses = chain_poses(model, q)
        chi = np.concatenate((poses.pt[-1], rotation_to_euler_xyz(poses.Rt[-1])))

        if self.mode == "task":
            pose_d, vel_d, chi_d = self.reference.unpack(self._reference_row(t))
            err = pose_error(Pose.from_rotation(poses.pt[-1], poses.Rt[-1]), pose_d)
            qdot_r = clik_required_velocity(jacobian(model, poses), err, vel_d, g.xi,
                                            g.clik_damping)
        else:
            q_d, qd_d = self.reference.unpack(self._reference_row(t))
            err = q_d - q
            qdot_r = qd_d + self.joint_gain * err
            chi_d = chi

        if self._prev_qdot_r is None:
            qddot_r = np.zeros(model.n)
        else:
            qddot_r = (qdot_r - self._prev_qdot_r) / self.dt
        self._prev_qdot_r = qdot_r

        vb, vt, vrb, vrt = propagate_velocities(model, poses, qdot, qdot_r)
        ar_b = propagate_accelerations(model, poses, qdot, qddot_r, vrt)
        W = regressor(ar_b, vrb, np.swapaxes(poses.Rb, 1, 2), model.gravity)
        net_r = link_control_wrench(W, self.link_adapters.phi_hat(), g.k_b, vrb, vb)
        fr_b, fr_t = propagate_forces(model, poses, net_r, np.zeros(6))
        tau, tau_star = joint_torques(model, self.joint_adapters.phi_hat()[:, 0], g.k_a,
                                      qddot_r, qdot_r, qdot, fr_b)

        self.link_adapters.update(((vrb - vb)[:, None] @ W)[:, 0], self.dt)
        self.joint_adapters.update((qddot_r * (qdot_r - qdot))[:, None], self.dt)
        min_eigs = self.link_adapters.min_eig()

        snap = StepSnapshot(t, poses, chi, chi_d, err, qdot_r, qddot_r,
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
    poses = snap.poses
    ab = propagate_accelerations(model, poses, qdot, qddot, snap.vt)
    net = body_wrenches(model.link_mass, ab, snap.vb, np.swapaxes(poses.Rb, 1, 2), model.gravity)
    fb, ft = propagate_forces(model, poses, net, tip_wrench)

    dv = snap.vrb - snap.vb
    vpf = virtual_power_flow(snap.vrb, snap.vb, snap.fr_b, fb)
    nu_links = (0.5 * np.einsum("ni,nij,nj->n", dv, model.link_mass, dv)
                + link_adapters.distance())
    dqd = snap.qdot_r - qdot
    nu_joints = (0.5 * model.drive_phi[:, 0] * dqd ** 2
                 + joint_adapters.distance())

    p_t = virtual_power_flow(snap.vrt[:-1], snap.vt[:-1], snap.fr_t[:-1], ft[:-1])
    rows = (np.arange(1, model.n), model.slots[1:])
    joint_channel = dqd[1:] * (snap.fr_b[rows] - fb[rows])
    telescope = vpf[1:] - p_t - joint_channel

    return StabilityDiagnostics(vpf, nu_links, nu_joints,
                                float(np.sum(nu_links) + np.sum(nu_joints)),
                                telescope, snap.min_eigs)
