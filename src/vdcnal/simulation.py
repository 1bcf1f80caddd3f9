"""Plant simulation and scenario harness.

The plant side deliberately does not reuse the controller's sweeps or its
chain poses.  The controller works in each link's own frame and composes
link-to-link transforms; the plant writes every spatial vector in base
coordinates about the base origin, from per-link constants it builds itself,
and forms net wrenches with the spatial cross product rather than the
regressor.  Another frame, another velocity-product form and another
composition make agreement with the controller-side force propagation a
genuine cross-check rather than the same code run twice.

The joint-space plant is

    (M_link(q) + diag(I_m)) qddot + bias(q, qdot) = tau + J^T f_ext.

In base coordinates joint i moves along S_i = [p_i x u_i, u_i], and both
sides are prefix sums along the chain, the base-coordinate recursive
Newton-Euler and composite-rigid-body algorithms (Featherstone, *Rigid Body
Dynamics Algorithms*, 2008, ch. 5-6): velocities and accelerations are
cumulative sums of joint terms, the bias torques are S_i' times the reverse
cumulative sum of the net wrenches, and M_ij = S_i' Ic_max(i,j) S_j with Ic
the reverse cumulative sum of the base-frame inertias.  Only the frame
rotations' prefix product runs along the chain, as a log-depth scan.  The
reference point is the base origin, not the world origin, so a base placed
far away costs no precision.  External wrenches act at the tip-frame origin
and are given in world coordinates; the chain passes on their negative.

Scenario runs are deterministic: all randomness flows through one seeded
generator, and a re-run with the same configs and seed reproduces the run
log bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .adaptation import (FrozenAdapter, NalJointAdapter, NalLinkAdapter, ProjectionAdapter,
                         initial_link_estimate)
from .controller import (ControllerGains, StabilityDiagnostics, VdcController,
                         stability_diagnostics)
from .kinematics import (CartesianQuinticReference, JointSineReference, RobotModel,
                         forward_kinematics)
from .rigid_body import mass_matrix
from .spatial import motion_cross, prefix_products, skew


def _as_world_wrench(f_ext) -> np.ndarray | None:
    if f_ext is None:
        return None
    f_ext = np.asarray(f_ext, dtype=float)
    if f_ext.shape == (3,):                 # pure force
        return np.concatenate((f_ext, np.zeros(3)))
    return f_ext.reshape(6)


@dataclass(frozen=True)
class _PlantConstants:
    """Per-link constants of the plant, stacked along the chain, and its index tables."""

    mass: np.ndarray                # (n, 6, 6) spatial mass matrices, each in its B frame
    mount: np.ndarray               # (n, 3, 3) T_{i-1} in B_{i-1}: I at the base, then tip R
    tip_r: np.ndarray               # (n, 3) B_i -> T_i offsets, in B_i
    motor: np.ndarray               # diag(I_m)
    axis: tuple                     # (links, axis column): each joint axis in its B rotation
    upper: np.ndarray               # (n, n) flat index of (min(i, j), max(i, j)) in n x n

    @classmethod
    def build(cls, model: RobotModel) -> "_PlantConstants":
        n = model.n
        i, j = np.indices((n, n))
        return cls(np.array([mass_matrix(joint.link) for joint in model.joints]),
                   np.array([np.eye(3)] + [joint.tip.R for joint in model.joints[:-1]]),
                   np.array([joint.tip.r for joint in model.joints]),
                   np.diag([joint.motor_inertia for joint in model.joints]),
                   (np.arange(n), np.array(["xyz".index(joint.axis)
                                            for joint in model.joints])),
                   np.minimum(i, j) * n + np.maximum(i, j))


# the last model the plant saw, held (so its id cannot be reused) and compared by `is`
_cached_constants: tuple[RobotModel, _PlantConstants] | None = None


def _newton_euler(model: RobotModel, q, qdot, qddot=None, f_ext=None, gravity=None,
                  with_mass: bool = True):
    """(bias, M_link + diag(I_m)); M is None without ``with_mass``.

    The prefix sums of the module docstring, in base coordinates about the base
    origin: v = cumsum(S qdot); a = cumsum(S qddot + v x S qdot) on top of
    gravity as an upward base acceleration; net wrenches I a + v x* I v with
    the base-frame inertias I = Y' M Y.
    """
    global _cached_constants
    if _cached_constants is None or _cached_constants[0] is not model:
        _cached_constants = (model, _PlantConstants.build(model))
    k = _cached_constants[1]
    n = model.n
    g = model.gravity if gravity is None else np.asarray(gravity, dtype=float)
    qdot = np.asarray(qdot, dtype=float)

    # B_i rotations in the base, Rb_i = Rb_{i-1} Rtip_{i-1} Rj_i, by a log-depth scan
    Rb = prefix_products(k.mount @ model.joint_rotations(np.asarray(q, dtype=float)))
    # skew of each joint origin p_i, and last that of the tip-frame origin
    px = skew(np.concatenate((np.zeros((1, 3)),
                              np.add.accumulate((Rb @ k.tip_r[:, :, None])[:, :, 0]))))
    u = Rb[k.axis[0], :, k.axis[1]]
    S = np.concatenate(((px[:-1] @ u[:, :, None])[:, :, 0], u), axis=1)

    # [a | v] per link; the gravity row enters the first link's drive term
    av = np.empty((n, 6, 2))
    Sq = S * qdot[:, None]
    v = np.add.accumulate(Sq, out=av[:, :, 1])
    crm = motion_cross(v)
    drive = (crm @ Sq[:, :, None])[:, :, 0]
    if qddot is not None:
        drive += S * np.asarray(qddot, dtype=float)[:, None]
    drive[0, :3] += model.base.R.T @ g
    np.add.accumulate(drive, out=av[:, :, 0])

    # base-frame inertias Y' M Y, Y_i the velocity map from the base to B_i
    Y = np.zeros((n, 6, 6))
    Y[:, :3, :3] = Y[:, 3:, 3:] = Rb.transpose(0, 2, 1)
    Y[:, :3, 3:] = Y[:, :3, :3] @ -px[:-1]
    inertia = Y.transpose(0, 2, 1) @ k.mass @ Y
    Iav = inertia @ av
    net = Iav[:, :, 0] - (crm.transpose(0, 2, 1) @ Iav[:, :, 1:])[:, :, 0]

    w_ext = _as_world_wrench(f_ext)
    if w_ext is not None:           # the chain passes on -f_ext at the tip
        f, m = w_ext.reshape(2, 3) @ model.base.R       # both in base coordinates
        net[-1, :3] -= f
        net[-1, 3:] -= m + px[-1] @ f
    bias = (S * np.add.accumulate(net[::-1])[::-1]).sum(axis=1)
    if not with_mass:
        return bias, None
    composite = np.add.accumulate(inertia[::-1])[::-1]
    SIS = S @ (composite @ S[:, :, None])[:, :, 0].T
    return bias, SIS.take(k.upper) + k.motor


def inverse_dynamics(model: RobotModel, q, qdot, qddot, f_ext=None,
                     gravity=None) -> np.ndarray:
    """Joint torques balancing the chain at (q, qdot, qddot).

    ``f_ext`` is the wrench the environment applies to the tip, world frame,
    about the tip-frame origin (a bare 3-vector is read as a pure force); the
    chain passes on its negative at T_n.  ``gravity`` overrides the model's
    inertial-frame gravity vector (used to switch gravity off).
    """
    return _newton_euler(model, q, qdot, qddot, f_ext, gravity, with_mass=False)[0]


def joint_space_mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Chain mass matrix plus the reflected drive inertias on the diagonal."""
    return _newton_euler(model, q, np.zeros(model.n), gravity=np.zeros(3))[1]


def forward_dynamics(model: RobotModel, q, qdot, tau, f_ext=None) -> np.ndarray:
    """Solve (M_link + diag(I_m)) qddot = tau - bias(q, qdot, f_ext).

    Bias and mass matrix come from one pass of prefix sums; ``f_ext`` enters
    through the bias (Jacobian-transpose coupling without forming J).
    """
    bias, M = _newton_euler(model, q, qdot, f_ext=f_ext)
    return np.linalg.solve(M, np.asarray(tau, dtype=float) - bias)


def step_rk4(model: RobotModel, q, qdot, tau, dt, wrench_fn=None, t=0.0, qddot=None):
    """Classical RK4 on (q, qdot) with zero-order-hold torque; ``qddot``, the
    acceleration if already solved at (t, q, qdot), is taken as the first stage."""
    def accel(ti, qi, qdi):
        f = wrench_fn(ti) if wrench_fn else None
        return forward_dynamics(model, qi, qdi, tau, f)

    k1q = qdot
    k1v = accel(t, q, qdot) if qddot is None else qddot
    k2q = qdot + 0.5 * dt * k1v
    k2v = accel(t + 0.5 * dt, q + 0.5 * dt * k1q, k2q)
    k3q = qdot + 0.5 * dt * k2v
    k3v = accel(t + 0.5 * dt, q + 0.5 * dt * k2q, k3q)
    k4q = qdot + dt * k3v
    k4v = accel(t + dt, q + dt * k3q, k4q)
    q_new = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    qd_new = qdot + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return q_new, qd_new, k1v


_INTEGRATORS = ("semi_implicit", "rk4")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Tip wrench applied by the environment: equal sine force on all axes."""

    kind: str = "none"              # 'none' | 'sine'
    amplitude_n: float = 5.0
    frequency_hz: float = 0.5

    def wrench(self, t: float) -> np.ndarray | None:
        """World-frame [f, m] at the tip origin; None when inactive."""
        if self.kind == "none":
            return None
        if self.kind == "sine":
            f = self.amplitude_n * np.sin(2.0 * np.pi * self.frequency_hz * t)
            return np.array([f, f, f, 0.0, 0.0, 0.0])
        raise ValueError(f"unknown disturbance kind {self.kind!r}")


@dataclass
class TrajectorySpec:
    kind: str = "cartesian_quintic"      # or 'joint_sine'
    target_position_m: tuple = (0.25, 0.15, -0.15)
    target_euler_xyz_rad: tuple = (0.0, 0.0, 0.0)
    duration_s: float = 3.0
    amplitude_rad: float = 1.0
    omega_rad_s: float = 1.0


@dataclass
class AdaptationSpec:
    initial_scale: float = 0.5
    projection_rho: float = 10.0
    projection_bound_scale: float = 1.0
    projection_bound_floor: float = 0.01
    nal_integrator: str = "geometric"


@dataclass
class SimConfig:
    scenario: str = "exo-pose"
    dt_s: float = 1e-3
    duration_s: float = 6.0
    integrator: str = "semi_implicit"
    adapter: str = "nal"                 # 'nal' | 'projection' | 'none'
    seed: int = 0
    repetitions: int = 1
    transient_cutoff_s: float = 2.0
    initial_q_rad: tuple | None = None
    initial_q_perturb_rad: float = 0.1
    joint_tracking_gain: float | None = None
    gains: ControllerGains = field(default_factory=ControllerGains)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    adaptation: AdaptationSpec = field(default_factory=AdaptationSpec)

    def validate(self, model: RobotModel | None = None) -> list[str]:
        problems = self.gains.validate()
        problems += [f"{name} must be finite" for name in ("dt_s", "duration_s",
                     "transient_cutoff_s", "initial_q_perturb_rad")
                     if not np.isfinite(getattr(self, name))]
        if not self.dt_s > 0.0:
            problems.append("dt_s must be positive")
        # duration 0 is the legal degenerate case (empty run)
        if self.duration_s != 0.0 and self.duration_s < self.dt_s:
            problems.append("duration_s must be 0 or at least dt_s")
        if self.repetitions < 1:
            problems.append("repetitions must be at least 1")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.integrator not in _INTEGRATORS:
            problems.append(f"integrator must be one of {_INTEGRATORS}")
        if self.adapter not in ("nal", "projection", "none"):
            problems.append("adapter must be 'nal', 'projection' or 'none'")
        if self.scenario not in ("exo-pose", "rrr-compare"):
            problems.append("scenario must be 'exo-pose' or 'rrr-compare'")
        if self.disturbance.kind not in ("none", "sine"):
            problems.append("disturbance kind must be 'none' or 'sine'")
        if self.trajectory.kind not in ("cartesian_quintic", "joint_sine"):
            problems.append("trajectory kind must be 'cartesian_quintic' or 'joint_sine'")
        if self.trajectory.kind == "cartesian_quintic" and not self.trajectory.duration_s > 0.0:
            problems.append("trajectory duration_s must be positive")
        if model is not None and self.initial_q_rad is not None \
                and len(self.initial_q_rad) != model.n:
            problems.append(f"initial_q_rad must have {model.n} entries")
        if self.joint_tracking_gain is not None and not 0.0 < self.joint_tracking_gain < np.inf:
            problems.append("joint_tracking_gain must be positive and finite")
        if not self.adaptation.initial_scale > 0.0:
            problems.append("adaptation initial_scale must be positive")
        if not self.adaptation.projection_rho > 0.0:
            problems.append("adaptation projection_rho must be positive")
        if self.adaptation.nal_integrator not in ("geometric", "euler"):
            problems.append("adaptation nal_integrator must be 'geometric' or 'euler'")
        return problems


@dataclass
class RunLog:
    """One repetition's tick-by-tick record plus its summary numbers."""

    columns: list[str]
    data: np.ndarray
    meta: dict
    summary: dict

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"log has no column {name!r}")
        return self.data[:, self.columns.index(name)]


def rmse(values, t=None, transient_cutoff: float = 0.0) -> float:
    """Root-mean-square of a series, optionally dropping an initial transient."""
    values = np.asarray(values, dtype=float)
    if t is not None:
        values = values[np.asarray(t, dtype=float) >= transient_cutoff]
    if values.size == 0:
        raise ValueError("rmse of an empty series")
    return float(np.sqrt(np.mean(values ** 2)))


def orientation_angle_deg(e_o) -> np.ndarray:
    """Rotation angle implied by the quaternion-error vector part, in degrees."""
    norms = np.clip(np.linalg.norm(np.atleast_2d(e_o), axis=-1), 0.0, 1.0)
    return np.degrees(2.0 * np.arcsin(norms))


def make_adapters(model: RobotModel, kind: str, gains: ControllerGains,
                  spec: AdaptationSpec):
    """(link adapter, drive adapter) of one law, each for the whole chain of ``model``."""
    if kind not in ("nal", "projection", "none"):
        raise ValueError(f"unknown adapter kind {kind!r}")
    guess = np.array([initial_link_estimate(joint.link, spec.initial_scale).as_vector()
                      for joint in model.joints]).reshape(model.n, 10)
    i0 = spec.initial_scale * model.drive_phi
    if kind == "nal":
        return (NalLinkAdapter(guess, gains.gamma, spec.nal_integrator, truth=model.link_phi),
                NalJointAdapter(np.maximum(i0, 1e-8), gains.gamma_a))
    if kind == "projection":
        return (ProjectionAdapter.around_truth(
                    model.link_phi, guess, spec.projection_rho,
                    spec.projection_bound_scale, spec.projection_bound_floor),
                ProjectionAdapter.around_truth(
                    model.drive_phi, i0, spec.projection_rho,
                    spec.projection_bound_scale, 1e-2 * spec.projection_bound_floor))
    return FrozenAdapter(model.link_phi), FrozenAdapter(model.drive_phi)


def initial_configuration(model: RobotModel, cfg: SimConfig, repetition: int) -> np.ndarray:
    """Configured start plus, from the second repetition on, a seeded offset."""
    if cfg.initial_q_rad is not None:
        q0 = np.asarray(cfg.initial_q_rad, dtype=float)
    else:
        q0 = np.zeros(model.n)
    if cfg.initial_q_perturb_rad > 0.0 and repetition > 0:
        rng = np.random.default_rng([cfg.seed, repetition])
        q0 = q0 + rng.uniform(-cfg.initial_q_perturb_rad,
                              cfg.initial_q_perturb_rad, model.n)
    return q0


def _build_reference(model: RobotModel, cfg: SimConfig, q0):
    traj = cfg.trajectory
    if traj.kind == "joint_sine":
        return "joint", JointSineReference(model.n, traj.amplitude_rad, traj.omega_rad_s)
    chi0 = forward_kinematics(model, q0).as_vector()
    chif = np.concatenate((np.asarray(traj.target_position_m, dtype=float),
                           np.asarray(traj.target_euler_xyz_rad, dtype=float)))
    return "task", CartesianQuinticReference(chi0, chif, traj.duration_s)


def log_columns(model: RobotModel, mode: str) -> list[str]:
    n = model.n
    cols = ["t_s"]
    cols += [f"q_{i}_rad" for i in range(1, n + 1)]
    cols += [f"qdot_{i}_radps" for i in range(1, n + 1)]
    cols += ["x_m", "y_m", "z_m", "eul_x_rad", "eul_y_rad", "eul_z_rad"]
    cols += ["xd_m", "yd_m", "zd_m", "euld_x_rad", "euld_y_rad", "euld_z_rad"]
    if mode == "task":
        cols += ["ep_x_m", "ep_y_m", "ep_z_m", "eo_x", "eo_y", "eo_z"]
    else:
        cols += [f"eq_{i}_rad" for i in range(1, n + 1)]
    cols += [f"tau_{i}_nm" for i in range(1, n + 1)]
    cols += [f"nu_link_{i}" for i in range(1, n + 1)]
    cols += [f"nu_joint_{i}" for i in range(1, n + 1)]
    cols += ["nu_total"]
    cols += [f"vpf_{i}" for i in range(1, n + 1)]
    cols += [f"mineig_{i}" for i in range(1, n + 1)]
    return cols


def run_scenario(model: RobotModel, cfg: SimConfig, repetition: int = 0,
                 adapter: str | None = None) -> RunLog:
    """Simulate one repetition; returns the tick log with summary attached."""
    problems = cfg.validate(model) + model.validate()
    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))
    adapter = cfg.adapter if adapter is None else adapter
    dt = cfg.dt_s
    n_ticks = int(round(cfg.duration_s / dt))
    q0 = initial_configuration(model, cfg, repetition)
    q = q0.copy()
    qdot = np.zeros(model.n)

    mode, reference = _build_reference(model, cfg, q0)
    link_adapters, joint_adapters = make_adapters(model, adapter, cfg.gains, cfg.adaptation)
    controller = VdcController(model, cfg.gains, reference, link_adapters,
                               joint_adapters, mode=mode, dt=dt,
                               joint_gain=cfg.joint_tracking_gain, ticks=n_ticks)

    columns = log_columns(model, mode)
    rows = np.empty((n_ticks, len(columns)))
    started = time.perf_counter()
    for k in range(n_ticks):
        t = k * dt
        try:
            tau, snap = controller.step(t, q, qdot)
            wrench = cfg.disturbance.wrench(t)
            qddot = forward_dynamics(model, q, qdot, tau, wrench)
            tip_wrench = _transmitted_tip_wrench(snap, wrench)
            diag = stability_diagnostics(model, snap, q, qdot, qddot, tip_wrench,
                                         link_adapters, joint_adapters)
        except np.linalg.LinAlgError as exc:
            # a blown-up adapter state hits the eigensolver before the state
            # check below can notice; report it as the same divergence
            raise FloatingPointError(
                f"simulation diverged at t = {t:.3f} s "
                f"(repetition {repetition}): {exc}") from exc
        rows[k] = _row(t, q, qdot, snap, diag)
        if cfg.integrator == "semi_implicit":
            qdot = qdot + dt * qddot
            q = q + dt * qdot
        else:
            q, qdot, _ = step_rk4(model, q, qdot, tau, dt,
                                  wrench_fn=cfg.disturbance.wrench, t=t, qddot=qddot)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise FloatingPointError(f"simulation diverged at t = {t:.3f} s "
                                     f"(repetition {repetition})")
    elapsed = time.perf_counter() - started

    meta = {"scenario": cfg.scenario, "adapter": adapter, "repetition": repetition,
            "seed": cfg.seed, "dt_s": dt, "duration_s": cfg.duration_s,
            "integrator": cfg.integrator, "mode": mode,
            "transient_cutoff_s": cfg.transient_cutoff_s,
            "disturbance": cfg.disturbance.kind, "model": model.name,
            "initial_q_rad": [float(x) for x in q0],
            "wall_time_s": elapsed}
    log = RunLog(columns, rows, meta, {})
    log.summary = summarize(log)
    return log


def _transmitted_tip_wrench(snap, wrench_world) -> np.ndarray:
    """Wrench the chain passes to the environment at T_n, in that frame."""
    if wrench_world is None:
        return np.zeros(6)
    R = snap.poses.Rt[-1]
    return np.concatenate((-(R.T @ wrench_world[:3]), -(R.T @ wrench_world[3:])))


def _row(t, q, qdot, snap, diag: StabilityDiagnostics) -> np.ndarray:
    return np.concatenate([np.array([t]), q, qdot, snap.chi, snap.chi_d, snap.err,
                           snap.tau, diag.nu_links, diag.nu_joints,
                           np.array([diag.nu_total]), diag.vpf, diag.min_eigs])


def summarize(log: RunLog) -> dict:
    """Scalar error statistics of one run (transient dropped)."""
    out = {"adapter": log.meta["adapter"], "repetition": log.meta["repetition"]}
    if log.data.shape[0] == 0:
        out["samples"] = 0
        return out
    n = len(log.meta["initial_q_rad"])          # the chain's joints
    t = log.column("t_s")
    cutoff = log.meta["transient_cutoff_s"]
    if not np.any(t >= cutoff):
        cutoff = float(t[0])            # short run: keep everything
    if log.meta["mode"] == "task":
        ep = np.column_stack([log.column(c) for c in ("ep_x_m", "ep_y_m", "ep_z_m")])
        eo = np.column_stack([log.column(c) for c in ("eo_x", "eo_y", "eo_z")])
        out["rmse_position_mm"] = 1e3 * rmse(np.linalg.norm(ep, axis=1), t, cutoff)
        out["rmse_orientation_deg"] = rmse(orientation_angle_deg(eo), t, cutoff)
        keep = t >= cutoff
        out["max_position_error_mm"] = float(1e3 * np.max(np.linalg.norm(ep[keep], axis=1)))
    else:
        for i in range(1, n + 1):
            e = log.column(f"eq_{i}_rad")
            out[f"rmse_joint_{i}_rad"] = rmse(e, t, cutoff)
            out[f"max_error_joint_{i}_rad"] = float(np.max(np.abs(e[t >= cutoff])))
    mineig = np.column_stack([log.column(f"mineig_{i}") for i in range(1, n + 1)])
    out["min_pseudo_inertia_eig"] = float(np.min(mineig))
    # ticks on which some link estimate is outside the consistent set
    out["ticks_mineig_nonpositive"] = int(np.sum(np.any(mineig <= 0.0, axis=1)))
    return out


def tuning_burden(model: RobotModel, adapter: str) -> dict:
    """Gain bookkeeping for the comparison report.

    The per-channel law needs one rate per parameter of the classic 13-entry
    per-body vector plus a lower and an upper bound for each; the natural law
    needs one gain for all links and one more for the joint drives.
    """
    n = model.n
    if adapter == "projection":
        return {"adaptation_gains": 13 * n, "adaptation_bounds": 26 * n}
    if adapter == "nal":
        return {"adaptation_gains": 1, "adaptation_bounds": 0,
                "joint_adaptation_gains": 1}
    return {"adaptation_gains": 0, "adaptation_bounds": 0}
