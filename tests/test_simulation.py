"""Plant dynamics, integrators, the scenario runner, and its statistics."""
import collections
import sys

import numpy as np
import pytest

import vdcnal.simulation as simulation
import vdcnal.spatial as spatial
from conftest import pendulum_accel, random_rotation, zero_gravity_clone
from oracles import coriolis_matrix_original, gravity_wrench, joint_space_mass_matrix
from vdcnal.config import builtin_config_path, load_robot, load_sim
from vdcnal.kinematics import (CartesianQuinticReference, JointSineReference, RobotModel,
                               chain_poses, jacobian)
from vdcnal.rigid_body import mass_matrix
from vdcnal.spatial import FrameTransform, axis_rotation, cross3, skew
from vdcnal.simulation import (
    AdaptationSpec,
    DisturbanceSpec,
    SimConfig,
    forward_dynamics,
    initial_configuration,
    inverse_dynamics,
    make_adapters,
    orientation_angle_deg,
    rmse,
    run_scenario,
    step_rk4,
    summarize,
    tuning_burden,
)
from vdcnal.controller import ControllerGains


_SLOT = {"x": 3, "y": 4, "z": 5}


def _oracle_inverse_dynamics(model, q, qdot, qddot, f_ext=None, gravity=None):
    """Two-pass Newton-Euler bias recursion, one 6-vector per frame."""
    n = model.n
    g = model.gravity if gravity is None else gravity
    R_w = model.base.R
    v = np.zeros(6)
    a = np.zeros(6)
    Rb_w = np.empty((n, 3, 3))
    vb = np.empty((n, 6))
    ab = np.empty((n, 6))
    Rjs = []
    for i, joint in enumerate(model.joints):
        Rj = axis_rotation(joint.axis, q[i])
        Rjs.append(Rj)
        k3 = np.eye(3)["xyz".index(joint.axis)]
        vb[i, :3] = Rj.T @ v[:3]
        vb[i, 3:] = Rj.T @ v[3:]
        ab[i, :3] = Rj.T @ a[:3] - qdot[i] * cross3(k3, vb[i, :3])
        ab[i, 3:] = Rj.T @ a[3:] - qdot[i] * cross3(k3, vb[i, 3:])
        vb[i, _SLOT[joint.axis]] += qdot[i]
        ab[i, _SLOT[joint.axis]] += qddot[i]
        R_w = R_w @ Rj
        Rb_w[i] = R_w
        Rt, rt = joint.tip.R, joint.tip.r
        v = np.concatenate((Rt.T @ (vb[i, :3] + cross3(vb[i, 3:], rt)), Rt.T @ vb[i, 3:]))
        a = np.concatenate((Rt.T @ (ab[i, :3] + cross3(ab[i, 3:], rt)), Rt.T @ ab[i, 3:]))
        R_w = R_w @ Rt
    net = np.array([mass_matrix(j.link) @ ab[i]
                    + coriolis_matrix_original(j.link, vb[i, 3:]) @ vb[i]
                    + gravity_wrench(j.link, Rb_w[i].T, g)
                    for i, j in enumerate(model.joints)])
    carried = np.zeros(6)
    if f_ext is not None:
        carried = -np.concatenate((R_w.T @ f_ext[:3], R_w.T @ f_ext[3:]))
    tau = np.empty(n)
    for j in range(n - 1, -1, -1):
        joint = model.joints[j]
        Rt, rt = joint.tip.R, joint.tip.r
        f = Rt @ carried[:3]
        fb = net[j].copy()
        fb[:3] += f
        fb[3:] += cross3(rt, f) + Rt @ carried[3:]
        tau[j] = fb[_SLOT[joint.axis]]
        carried = np.concatenate((Rjs[j] @ fb[:3], Rjs[j] @ fb[3:]))
    return tau


def _oracle_mass_matrix(model, q):
    """Unit-acceleration columns carried through their own two passes."""
    n = model.n
    Rjs = [axis_rotation(j.axis, q[i]) for i, j in enumerate(model.joints)]
    A = np.empty((n, 6, n))
    prev = np.zeros((6, n))
    for i, joint in enumerate(model.joints):
        Ai = np.vstack((Rjs[i].T @ prev[:3], Rjs[i].T @ prev[3:]))
        Ai[_SLOT[joint.axis], i] += 1.0
        A[i] = Ai
        Rt, rt = joint.tip.R, joint.tip.r
        prev = np.vstack((Rt.T @ (Ai[:3] - skew(rt) @ Ai[3:]), Rt.T @ Ai[3:]))
    M = np.empty((n, n))
    carried = np.zeros((6, n))
    for j in range(n - 1, -1, -1):
        joint = model.joints[j]
        Rt, rt = joint.tip.R, joint.tip.r
        f = Rt @ carried[:3]
        fb = mass_matrix(joint.link) @ A[j]
        fb[:3] += f
        fb[3:] += skew(rt) @ f + Rt @ carried[3:]
        M[j] = fb[_SLOT[joint.axis]]
        carried = np.vstack((Rjs[j] @ fb[:3], Rjs[j] @ fb[3:]))
    M += np.diag([j.motor_inertia for j in model.joints])
    return 0.5 * (M + M.T)


def _oracle_forward_dynamics(model, q, qdot, tau, f_ext=None):
    bias = _oracle_inverse_dynamics(model, q, qdot, np.zeros(model.n), f_ext)
    return np.linalg.solve(_oracle_mass_matrix(model, q), tau - bias)


def _assert_close(got, want, rel=1e-12):
    assert np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want)))


def test_fused_recursion_matches_two_pass_oracle(rrr3, arm7, pendulum):
    rng = np.random.default_rng(66)
    for model in (arm7, rrr3, pendulum):
        for _ in range(200):
            q = rng.uniform(-np.pi, np.pi, model.n)
            qdot = 2.0 * rng.standard_normal(model.n)
            qddot = rng.standard_normal(model.n)
            tau = rng.standard_normal(model.n)
            F = rng.standard_normal(6)
            _assert_close(joint_space_mass_matrix(model, q), _oracle_mass_matrix(model, q))
            for f_ext in (None, F):
                for gravity in (None, np.zeros(3)):
                    _assert_close(
                        inverse_dynamics(model, q, qdot, qddot, f_ext, gravity),
                        _oracle_inverse_dynamics(model, q, qdot, qddot, f_ext, gravity))
                _assert_close(forward_dynamics(model, q, qdot, tau, f_ext),
                              _oracle_forward_dynamics(model, q, qdot, tau, f_ext))


def test_plant_is_invariant_to_the_base_pose(arm7):
    # the plant works about the base origin, so a base far from the world
    # origin costs no precision: no p x f terms of size |base| cancel
    rng = np.random.default_rng(69)
    moved = RobotModel(name=arm7.name, joints=arm7.joints, gravity=arm7.gravity,
                       base=FrameTransform(random_rotation(rng) @ arm7.base.R,
                                           arm7.base.r + np.array([100.0, -50.0, 30.0])))
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 7)
        qdot = 2.0 * rng.standard_normal(7)
        qddot, tau = rng.standard_normal((2, 7))
        F = rng.standard_normal(6)
        _assert_close(joint_space_mass_matrix(moved, q), _oracle_mass_matrix(moved, q))
        for f_ext in (None, F):
            _assert_close(inverse_dynamics(moved, q, qdot, qddot, f_ext),
                          _oracle_inverse_dynamics(moved, q, qdot, qddot, f_ext))
            _assert_close(forward_dynamics(moved, q, qdot, tau, f_ext),
                          _oracle_forward_dynamics(moved, q, qdot, tau, f_ext))


def test_plant_constants_follow_the_model(rrr3, arm7, tmp_path):
    # a same-named model with a heavier link must not reuse arm7's constants
    text = builtin_config_path("arm7").read_text()
    assert text.count("mass_kg: 2.0\n") >= 1
    (tmp_path / "heavy.yaml").write_text(text.replace("mass_kg: 2.0\n", "mass_kg: 3.5\n", 1))
    heavy = load_robot(tmp_path / "heavy.yaml")
    assert heavy.name == arm7.name
    assert [j.link.mass for j in heavy.joints] != [j.link.mass for j in arm7.joints]
    rng = np.random.default_rng(67)
    for model in (arm7, rrr3, arm7, heavy, arm7, heavy):
        q = rng.uniform(-1.0, 1.0, model.n)
        qdot = rng.standard_normal(model.n)
        tau = rng.standard_normal(model.n)
        _assert_close(forward_dynamics(model, q, qdot, tau),
                      _oracle_forward_dynamics(model, q, qdot, tau))


def test_rk4_given_start_acceleration_is_bit_identical(arm7):
    rng = np.random.default_rng(68)
    wrench = DisturbanceSpec(kind="sine").wrench
    q = rng.uniform(-1.0, 1.0, 7)
    qdot = rng.standard_normal(7)
    tau = rng.standard_normal(7)
    t = 0.37
    qddot = forward_dynamics(arm7, q, qdot, tau, wrench(t))
    plain = step_rk4(arm7, q, qdot, tau, 1e-3, wrench_fn=wrench, t=t)
    reused = step_rk4(arm7, q, qdot, tau, 1e-3, wrench_fn=wrench, t=t, qddot=qddot)
    for a, b in zip(plain, reused):
        assert np.array_equal(a, b)


def test_rk4_run_solves_the_plant_four_times_per_tick(arm7, monkeypatch):
    calls = []
    solve = simulation.forward_dynamics

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(simulation, "forward_dynamics", counted)
    cfg = load_sim(builtin_config_path("exo_stability"))
    assert cfg.integrator == "rk4"
    cfg.duration_s = 0.01
    log = run_scenario(arm7, cfg, repetition=0)
    assert log.data.shape[0] == 10
    assert len(calls) == 4 * 10


def test_nal_tick_decomposes_twice(arm7, monkeypatch):
    # an arm7 natural-law tick runs two batched eigh calls (the step's
    # exponent and its new estimate) and no eigvalsh or slogdet; ticks 11-20
    # are counted as the difference of a 20-tick and a 10-tick run, so set-up
    # work (model validation, the truth side of the monitor) drops out
    counts = collections.Counter()
    for name in ("eigh", "eigvalsh", "slogdet"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = load_sim(builtin_config_path("exo_pose"))
    assert cfg.adapter == "nal"
    runs = {}
    for ticks in (10, 20):
        cfg.duration_s = ticks * cfg.dt_s
        counts.clear()
        assert run_scenario(arm7, cfg, repetition=0).data.shape[0] == ticks
        runs[ticks] = dict(counts)
    per_tick = {name: (runs[20].get(name, 0) - runs[10].get(name, 0)) / 10
                for name in ("eigh", "eigvalsh", "slogdet")}
    assert per_tick["eigh"] <= 2
    assert per_tick["eigvalsh"] == 0 and per_tick["slogdet"] == 0


def _run_calls(monkeypatch, model, cfg, names):
    """Calls of ``spatial.<name>`` and of the references' ``tabulate`` (counted
    as ``tabulate``) in a 10-tick and in a 20-tick ``run_scenario``, keyed by
    the tick count.  The wrapper replaces the function in every vdcnal module
    that imported it."""
    counts = collections.Counter()
    for name in names:
        original = getattr(spatial, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "vdcnal" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for cls in (CartesianQuinticReference, JointSineReference):
        def tabulate(self, t, _fn=cls.tabulate):
            counts["tabulate"] += 1
            return _fn(self, t)
        monkeypatch.setattr(cls, "tabulate", tabulate)
    runs = {}
    for ticks in (10, 20):
        cfg.duration_s = ticks * cfg.dt_s
        counts.clear()
        assert run_scenario(model, cfg, repetition=0).data.shape[0] == ticks
        runs[ticks] = dict(counts)
    return runs


def _per_tick_calls(monkeypatch, model, cfg, names):
    """Calls of ``spatial.<name>`` per tick over ticks 11-20 of a run: the
    difference of a 20-tick and a 10-tick run, so set-up drops out."""
    runs = _run_calls(monkeypatch, model, cfg, names)
    return {name: (runs[20].get(name, 0) - runs[10].get(name, 0)) / 10 for name in names}


def test_tick_builds_no_axis_rotation_and_checks_at_most_two(arm7, rrr3, monkeypatch):
    # the joint rotations of chain_poses and of the plant come from one batched
    # gather each; the only rotation check of a tick is the measured tip's
    # quaternion in task mode (the reference's comes from the run's table, see
    # the test below), and joint mode builds no quaternion at all
    names = ("axis_rotation", "_check_rotation")
    cfg = load_sim(builtin_config_path("exo_pose"))
    assert (cfg.adapter, cfg.trajectory.kind) == ("nal", "cartesian_quintic")
    task = _per_tick_calls(monkeypatch, arm7, cfg, names)
    assert task["axis_rotation"] == 0
    assert task["_check_rotation"] == 1
    cfg = load_sim(builtin_config_path("rrr_compare"))
    assert cfg.trajectory.kind == "joint_sine"
    joint = _per_tick_calls(monkeypatch, rrr3, cfg, names)
    assert joint["axis_rotation"] == 0
    assert joint["_check_rotation"] == 0


def test_reference_is_sampled_once_per_run(arm7, rrr3, monkeypatch):
    # the run tabulates its reference on the whole tick grid before the first
    # tick; a tick reads its row, so it builds no Euler rotation, and the only
    # quaternion of a task-mode tick is the measured tip's
    names = ("euler_xyz_to_rotation", "quat_from_rotation")
    for model, sim, mode in ((arm7, "exo_pose", "task"), (rrr3, "rrr_compare", "joint")):
        cfg = load_sim(builtin_config_path(sim))
        runs = _run_calls(monkeypatch, model, cfg, names)
        assert runs[10]["tabulate"] == runs[20]["tabulate"] == 1
        per_tick = {name: (runs[20].get(name, 0) - runs[10].get(name, 0)) / 10
                    for name in names}
        assert per_tick["euler_xyz_to_rotation"] == 0
        assert per_tick["quat_from_rotation"] == (1 if mode == "task" else 0)


def _potential(model, q):
    poses = chain_poses(model, q)
    U = 0.0
    for i, joint in enumerate(model.joints):
        com_w = poses.pb[i] + poses.Rb[i] @ (joint.link.first_moment / joint.link.mass)
        U += joint.link.mass * float(model.gravity @ com_w)
    return U


def test_static_torques_match_potential_gradient(rrr3, arm7):
    # independent statics oracle: tau = dU/dq at rest
    rng = np.random.default_rng(61)
    h = 1e-6
    for model in (rrr3, arm7):
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, model.n)
            tau = inverse_dynamics(model, q, np.zeros(model.n), np.zeros(model.n))
            grad = np.array([
                (_potential(model, q + h * e) - _potential(model, q - h * e))
                / (2 * h) for e in np.eye(model.n)])
            assert np.allclose(tau, grad, atol=1e-8)


def test_pendulum_matches_closed_form(pendulum):
    for q in (-2.0, -0.8, 0.0, 0.3, 1.4, 2.9):
        for qd in (0.0, 1.0, -2.5):
            got = forward_dynamics(pendulum, np.array([q]), np.array([qd]),
                                   np.zeros(1))[0]
            assert got == pytest.approx(pendulum_accel(q, qd), abs=1e-10)
            # inverse route: torque that produces a chosen acceleration
            tau = inverse_dynamics(pendulum, np.array([q]), np.array([qd]),
                                   np.array([1.7]))
            back = forward_dynamics(pendulum, np.array([q]), np.array([qd]), tau)
            assert back[0] == pytest.approx(1.7, abs=1e-10)


def test_forward_inverse_dynamics_round_trip(rrr3, arm7):
    rng = np.random.default_rng(62)
    for model in (rrr3, arm7):
        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, model.n)
            qdot = rng.standard_normal(model.n)
            qddot = rng.standard_normal(model.n)
            tau = inverse_dynamics(model, q, qdot, qddot)
            tau += np.array([j.motor_inertia for j in model.joints]) * qddot
            back = forward_dynamics(model, q, qdot, tau)
            assert np.allclose(back, qddot, atol=1e-9)


def test_mass_matrix_batched_equals_naive(rrr3, arm7):
    # the composite-inertia M the plant solves with (undone from forward
    # dynamics at rest without gravity) against inverse-dynamics columns
    rng = np.random.default_rng(63)
    for model in (rrr3, arm7):
        q = rng.uniform(-1.0, 1.0, model.n)
        still = zero_gravity_clone(model)
        M = np.linalg.inv(np.column_stack([
            forward_dynamics(still, q, np.zeros(model.n), e) for e in np.eye(model.n)]))
        assert np.allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M)[0] > 0.0
        naive = joint_space_mass_matrix(model, q)
        assert np.allclose(M, naive, atol=1e-12)


def test_external_wrench_coupling(arm7):
    rng = np.random.default_rng(64)
    q = rng.uniform(-1.0, 1.0, 7)
    qdot = rng.standard_normal(7)
    tau = rng.standard_normal(7)
    F = np.array([3.0, -2.0, 1.0, 0.5, -0.2, 0.1])
    delta = (forward_dynamics(arm7, q, qdot, tau, f_ext=F)
             - forward_dynamics(arm7, q, qdot, tau))
    pred = np.linalg.solve(joint_space_mass_matrix(arm7, q),
                           jacobian(arm7, chain_poses(arm7, q)).T @ F)
    assert np.allclose(delta, pred, atol=1e-9)


def _kinetic_energy(model, q, qdot) -> float:
    return 0.5 * float(qdot @ (joint_space_mass_matrix(model, q) @ qdot))


def test_energy_conservation_without_gravity(rrr3):
    model = zero_gravity_clone(rrr3)
    q = np.array([0.3, -0.5, 0.8])
    qdot = np.array([1.0, -0.7, 0.4])
    e0 = _kinetic_energy(model, q, qdot)
    dt = 1e-3
    worst = 0.0
    for k in range(10000):  # 10 s of torque-free motion
        q, qdot, _ = step_rk4(model, q, qdot, np.zeros(3), dt)
        worst = max(worst, abs(_kinetic_energy(model, q, qdot) - e0))
    assert worst <= 1e-6 * e0


def test_rk4_observed_order(rrr3):
    # Richardson ratios over dt, dt/2, dt/4 without a reference solution
    q0 = np.array([0.4, -0.3, 0.6])
    qd0 = np.array([0.0, 0.5, -0.2])
    tau = np.array([0.5, -0.2, 0.1])
    T = 0.1

    def final_state(dt):
        q, qdot = q0.copy(), qd0.copy()
        for _ in range(int(round(T / dt))):
            q, qdot, _ = step_rk4(rrr3, q, qdot, tau, dt)
        return np.concatenate((q, qdot))

    x1 = final_state(4e-3)
    x2 = final_state(2e-3)
    x3 = final_state(1e-3)
    order = np.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3))
    assert order >= 3.5


def test_run_scenario_semi_implicit_step(rrr3):
    # the logged ticks follow symplectic Euler on the plant, bit for bit
    cfg = load_sim(builtin_config_path("rrr_compare"))
    assert cfg.integrator == "semi_implicit" and cfg.disturbance.kind == "none"
    cfg.duration_s = 0.005
    log = run_scenario(rrr3, cfg, repetition=0)
    dt = cfg.dt_s

    def block(prefix):
        return log.data[:, [i for i, c in enumerate(log.columns) if c.startswith(prefix)]]

    q, qdot, tau = block("q_"), block("qdot_"), block("tau_")
    assert q.shape == (5, 3)
    for k in range(4):
        qddot = forward_dynamics(rrr3, q[k], qdot[k], tau[k])
        assert np.array_equal(qdot[k + 1], qdot[k] + dt * qddot)
        assert np.array_equal(q[k + 1], q[k] + dt * (qdot[k] + dt * qddot))


def test_rmse_values():
    t = np.arange(1000) / 1000.0
    assert rmse(3.0 * np.ones(50)) == pytest.approx(3.0, abs=0.0)
    # whole periods on a half-open uniform grid: exactly 1/sqrt(2)
    for periods in (1, 3):
        vals = np.sin(2.0 * np.pi * periods * t)
        assert rmse(vals) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # transient cutoff drops early samples
    vals = np.where(t < 0.5, 100.0, 1.0)
    assert rmse(vals, t, transient_cutoff=0.5) == pytest.approx(1.0, abs=0.0)
    with pytest.raises(ValueError, match="empty"):
        rmse(np.array([]))
    with pytest.raises(ValueError, match="empty"):
        rmse(vals, t, transient_cutoff=2.0)


def test_orientation_angle_degrees():
    theta = 0.6
    e_o = np.array([0.0, 0.0, np.sin(theta / 2.0)])
    assert orientation_angle_deg(e_o)[0] == pytest.approx(np.degrees(theta),
                                                          abs=1e-12)
    # norms above one (roundoff) are clipped, not propagated into arcsin
    assert np.isfinite(orientation_angle_deg(np.array([1.0, 1.0, 1.0]))[0])


def test_disturbance_spec():
    none = DisturbanceSpec(kind="none")
    assert none.wrench(1.23) is None
    sine = DisturbanceSpec(kind="sine", amplitude_n=5.0, frequency_hz=0.5)
    assert np.allclose(sine.wrench(0.0), 0.0, atol=0.0)
    w = sine.wrench(0.5)  # quarter period: peak
    assert np.allclose(w, [5.0, 5.0, 5.0, 0.0, 0.0, 0.0], atol=1e-12)
    for t in np.linspace(0.0, 4.0, 200):
        w = sine.wrench(t)
        assert np.linalg.norm(w[:3]) <= np.sqrt(3.0) * 5.0 + 1e-12
        assert np.allclose(w[3:], 0.0, atol=0.0)
    with pytest.raises(ValueError, match="unknown disturbance"):
        DisturbanceSpec(kind="gust").wrench(0.0)


def test_sim_config_validation(arm7):
    cfg = load_sim(builtin_config_path("exo_pose"))
    assert cfg.validate(arm7) == []
    cfg.duration_s = 0.0
    assert cfg.validate(arm7) == []
    cfg.duration_s = 0.5 * cfg.dt_s
    assert any("duration" in p for p in cfg.validate(arm7))
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.integrator = "leapfrog"
    assert any("integrator" in p for p in cfg.validate(arm7))
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.adapter = "kalman"
    assert any("adapter" in p for p in cfg.validate(arm7))
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.initial_q_rad = (0.0, 0.0)
    assert any("initial_q_rad" in p for p in cfg.validate(arm7))


def test_initial_configuration_repetition_semantics(arm7):
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.initial_q_rad = tuple(0.1 * np.arange(7))
    base = initial_configuration(arm7, cfg, 0)
    assert np.array_equal(base, 0.1 * np.arange(7))
    q3a = initial_configuration(arm7, cfg, 3)
    q3b = initial_configuration(arm7, cfg, 3)
    assert np.array_equal(q3a, q3b)
    q4 = initial_configuration(arm7, cfg, 4)
    assert not np.array_equal(q3a, q4)
    assert np.max(np.abs(q3a - base)) <= cfg.initial_q_perturb_rad


def test_adapter_factories(arm7):
    gains = ControllerGains()
    spec = AdaptationSpec()
    from vdcnal.adaptation import (FrozenAdapter, NalJointAdapter, NalLinkAdapter,
                                   ProjectionAdapter)
    links, joints = make_adapters(arm7, "nal", gains, spec)
    assert isinstance(links, NalLinkAdapter)
    assert links.phi_hat()[0, 0] == pytest.approx(0.5 * arm7.joints[0].link.mass)
    assert isinstance(joints, NalJointAdapter)
    links, joints = make_adapters(arm7, "projection", gains, spec)
    assert isinstance(links, ProjectionAdapter) and isinstance(joints, ProjectionAdapter)
    for adapter, truth in ((links, arm7.link_phi), (joints, arm7.drive_phi)):
        assert np.all(adapter.lower <= truth) and np.all(truth <= adapter.upper)
    links, joints = make_adapters(arm7, "none", gains, spec)
    assert isinstance(links, FrozenAdapter) and isinstance(joints, FrozenAdapter)
    assert list(joints.phi_hat()[:, 0]) == [j.motor_inertia for j in arm7.joints]
    with pytest.raises(ValueError, match="unknown adapter"):
        make_adapters(arm7, "fancy", gains, spec)


def test_tuning_burden_counts(rrr3):
    proj = tuning_burden(rrr3, "projection")
    assert proj["adaptation_gains"] == 39
    assert proj["adaptation_bounds"] == 78
    nal = tuning_burden(rrr3, "nal")
    assert nal["adaptation_gains"] == 1
    assert nal["adaptation_bounds"] == 0
    assert nal["joint_adaptation_gains"] == 1


def test_zero_duration_run(arm7):
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.duration_s = 0.0
    log = run_scenario(arm7, cfg, repetition=0)
    assert log.data.shape[0] == 0
    assert summarize(log) == {"adapter": "nal", "repetition": 0, "samples": 0}


def test_run_scenario_is_deterministic(rrr3):
    cfg = load_sim(builtin_config_path("rrr_compare"))
    cfg.duration_s = 0.2
    a = run_scenario(rrr3, cfg, repetition=1)
    b = run_scenario(rrr3, cfg, repetition=1)
    assert a.columns == b.columns
    assert np.array_equal(a.data, b.data)


def test_run_scenario_reports_divergence(rrr3):
    cfg = load_sim(builtin_config_path("rrr_compare"))
    cfg.duration_s = 5.0
    cfg.dt_s = 0.5  # far outside the stable step range
    with pytest.raises(FloatingPointError, match="diverged"):
        with np.errstate(all="ignore"):
            run_scenario(rrr3, cfg, repetition=0)


def test_summarize_task_and_joint_keys(rrr3, arm7):
    cfg = load_sim(builtin_config_path("exo_pose"))
    cfg.duration_s = 0.05
    log = run_scenario(arm7, cfg, repetition=0)
    s = summarize(log)
    for key in ("rmse_position_mm", "rmse_orientation_deg",
                "max_position_error_mm", "min_pseudo_inertia_eig"):
        assert key in s and np.isfinite(s[key])

    cfg = load_sim(builtin_config_path("rrr_compare"))
    cfg.duration_s = 0.05
    log = run_scenario(rrr3, cfg, repetition=0)
    s = summarize(log)
    for i in (1, 2, 3):
        assert f"rmse_joint_{i}_rad" in s
        assert f"max_error_joint_{i}_rad" in s
    assert "min_pseudo_inertia_eig" in s
