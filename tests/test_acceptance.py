"""Acceptance gate: ten numbered criteria, each with its stated tolerance.

Run with -v for a per-criterion pass/fail scorecard; every test also prints
the measured quantity next to its bound (visible with -s or on failure).
The long-running criteria reuse the shipped scenario configs unmodified.
"""
import time

import numpy as np
import pytest

from conftest import divergence, pendulum_accel, random_consistent_params, random_rotation
from oracles import (
    assemble_matrices,
    bregman_divergence_eigen,
    coriolis_matrix,
    coriolis_matrix_original,
    geodesic_distance,
    net_wrench,
    pseudo_to_params,
)
from vdcnal.adaptation import NalLinkAdapter, initial_link_estimate, solve_dual
from vdcnal.config import builtin_config_path, load_sim
from vdcnal.controller import (
    VdcController,
    joint_torques,
    propagate_accelerations,
    propagate_forces,
    propagate_velocities,
    stability_diagnostics,
)
from vdcnal.kinematics import CartesianQuinticReference, chain_poses, forward_kinematics
from vdcnal.manifold import is_consistent, params_to_pseudo
from vdcnal.rigid_body import mass_matrix, regressor
from vdcnal.simulation import (
    forward_dynamics,
    inverse_dynamics,
    make_adapters,
    run_scenario,
    step_rk4,
    tuning_burden,
)


def test_criterion_01_regressor_matches_matrix_route():
    """W(a, V, R) phi equals M a + C V + G on 1000 random draws in under 1 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    draws = [(random_consistent_params(rng), rng.standard_normal(6), rng.standard_normal(6),
              random_rotation(rng)) for _ in range(1000)]
    params, V, a, R = (np.array(x) for x in zip(*draws))
    phi = np.array([p.as_vector() for p in params])
    lhs = np.einsum("kij,kj->ki", regressor(a, V, R), phi)
    worst = 0.0
    for k, (p, Vk, ak, Rk) in enumerate(draws):
        rhs = net_wrench(assemble_matrices(p, Vk[3:], Rk), ak, Vk)
        worst = max(worst, np.max(np.abs(lhs[k] - rhs)) / (1.0 + np.max(np.abs(rhs))))
    elapsed = time.perf_counter() - started
    print(f"criterion 1: worst relative gap {worst:.3e} <= 1e-10, "
          f"{elapsed:.2f} s < 1 s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_coriolis_forms_and_skew():
    """(Cbar - C) V = 0 and V.T C V = 0 within 1e-12 on 1000 draws."""
    rng = np.random.default_rng(102)
    worst_diff = 0.0
    worst_skew = 0.0
    for _ in range(1000):
        params = random_consistent_params(rng)
        V = rng.standard_normal(6)
        C = coriolis_matrix(mass_matrix(params), V[3:])
        Cbar = coriolis_matrix_original(params, V[3:])
        worst_diff = max(worst_diff, np.max(np.abs((Cbar - C) @ V)))
        worst_skew = max(worst_skew, abs(V @ C @ V), abs(V @ Cbar @ V))
    print(f"criterion 2: worst |(Cbar-C)V| {worst_diff:.3e}, "
          f"worst |V.C.V| {worst_skew:.3e}, both <= 1e-12")
    assert worst_diff <= 1e-12
    assert worst_skew <= 1e-12


def test_criterion_03_manifold_round_trip_and_consistency():
    """phi <-> L round trip at 1e-13; is_consistent agrees with the eigen test."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        phi = random_consistent_params(rng).as_vector()
        back = pseudo_to_params(params_to_pseudo(phi)).as_vector()
        worst = max(worst, np.max(np.abs(back - phi)))
    checked = skipped = 0
    for k in range(1000):
        if k % 2 == 0:
            phi = random_consistent_params(rng).as_vector()
        else:
            phi = rng.standard_normal(10)
        L = params_to_pseudo(phi)
        min_eig = np.linalg.eigvalsh(L)[0]
        if abs(min_eig) <= 1e-6 * (1.0 + abs(np.trace(L))):
            skipped += 1          # numerically on the cone boundary
            continue
        checked += 1
        assert is_consistent(phi) == (min_eig > 0.0)
    print(f"criterion 3: worst round-trip error {worst:.3e} <= 1e-13; "
          f"consistency agreed on {checked} samples ({skipped} boundary skips)")
    assert worst <= 1e-13
    assert checked >= 900


def test_criterion_04_dual_solve_pairing():
    """phi . s = tr(f(phi) S) with S = solve_dual(s), 1e-12 relative, 1000 draws."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        phi = rng.standard_normal(10)
        s = rng.standard_normal(10)
        lhs = float(phi @ s)
        rhs = float(np.trace(params_to_pseudo(phi) @ solve_dual(s)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    print(f"criterion 4: worst relative pairing gap {worst:.3e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_05_divergence_closed_forms():
    """Closed-form checks plus agreement and congruence invariance."""
    I4 = np.eye(4)
    d_breg = divergence(2.0 * I4, I4)
    d_geo = geodesic_distance(I4, 2.0 * I4)
    err_breg = abs(d_breg - (4.0 - 4.0 * np.log(2.0)))
    err_geo = abs(d_geo - 2.0 * np.log(2.0))
    assert err_breg <= 1e-9
    assert err_geo <= 1e-9

    rng = np.random.default_rng(105)
    worst_forms = worst_cong = 0.0
    for _ in range(300):
        A = rng.standard_normal((4, 4)); A = A @ A.T + 0.5 * I4
        B = rng.standard_normal((4, 4)); B = B @ B.T + 0.5 * I4
        d = divergence(A, B)
        worst_forms = max(worst_forms, abs(d - bregman_divergence_eigen(A, B)))
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        dc = divergence(T @ A @ T.T, T @ B @ T.T)
        worst_cong = max(worst_cong, abs(dc - d) / (1.0 + abs(d)))
    print(f"criterion 5: D(2I||I) err {err_breg:.3e}, d(I,2I) err {err_geo:.3e} "
          f"<= 1e-9; forms gap {worst_forms:.3e} <= 1e-10; "
          f"congruence drift {worst_cong:.3e} <= 1e-9")
    assert worst_forms <= 1e-10
    assert worst_cong <= 1e-9


def test_criterion_06_adversarial_signal_keeps_estimates_positive(arm7):
    """60 s of sign-alternating amplitude-10 signals never leaves the cone."""
    dt, gamma, duration = 1e-3, 10.0, 60.0
    steps = int(round(duration / dt))
    phi0 = np.array([initial_link_estimate(joint.link).as_vector() for joint in arm7.joints])
    adapter = NalLinkAdapter(phi0, arm7.link_phi, gamma)
    # each link keeps its own signal stream, drawn 10 at a time as before
    rngs = [np.random.default_rng(600 + j) for j in range(arm7.n)]
    u = np.stack([rng.standard_normal((steps, 10)) for rng in rngs], axis=1)
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    worst = np.inf
    for k in range(steps):
        adapter.update((10.0 if k % 2 == 0 else -10.0) * u[k], dt)
        min_eig = np.min(np.linalg.eigvalsh(adapter.L)[:, 0])
        worst = min(worst, min_eig)
        assert min_eig > 0.0
    print(f"criterion 6: smallest eigenvalue over 7 links x {steps} steps "
          f"{worst:.3e} > 0")


def _stability_rollout(model, qdot0):
    """Mirror of the scenario loop with exact parameters and adaptation off."""
    cfg = load_sim(builtin_config_path("exo_stability"))
    dt = cfg.dt_s
    n_ticks = int(round(cfg.duration_s / dt))
    q = np.zeros(model.n)
    qdot = np.asarray(qdot0, dtype=float).copy()
    chi0 = forward_kinematics(model, q).as_vector()
    chif = np.concatenate((cfg.trajectory.target_position_m,
                           cfg.trajectory.target_euler_xyz_rad))
    reference = CartesianQuinticReference(chi0, chif, cfg.trajectory.duration_s)
    links, joints = make_adapters(model, "none", cfg.gains, cfg.adaptation)
    controller = VdcController(model, cfg.gains, reference, links, joints,
                               mode="task", dt=dt)
    nu = np.empty(n_ticks)
    telescope = np.empty(n_ticks)
    for k in range(n_ticks):
        tau, snap = controller.step(k * dt, q, qdot)
        qddot = forward_dynamics(model, q, qdot, tau)
        diag = stability_diagnostics(model, snap, q, qdot, qddot, np.zeros(6),
                                     links, joints)
        nu[k] = diag.nu_total
        telescope[k] = np.max(np.abs(diag.telescope))
        q, qdot, _ = step_rk4(model, q, qdot, tau, dt, qddot=qddot)
    return nu, telescope


def test_criterion_07_accompanying_function_decrescent(arm7):
    """Exact-parameter monitoring run: nu never increases, powers telescope."""
    started = time.perf_counter()
    worst_rise = -np.inf
    worst_tel = 0.0
    for qdot0 in (np.zeros(7), 0.3 * np.array([1., -1., 1., -1., 1., -1., 1.])):
        nu, telescope = _stability_rollout(arm7, qdot0)
        worst_rise = max(worst_rise, float(np.max(np.diff(nu))))
        worst_tel = max(worst_tel, float(np.max(telescope)))
        assert np.all(nu >= -1e-12)
    elapsed = time.perf_counter() - started
    print(f"criterion 7: worst per-step nu increase {worst_rise:.3e} <= 1e-6, "
          f"worst telescoping residual {worst_tel:.3e} <= 1e-10, "
          f"{elapsed:.0f} s < 120 s")
    assert worst_rise <= 1e-6
    assert worst_tel <= 1e-10
    assert elapsed < 120.0


def test_criterion_08_three_joint_comparison(rrr3):
    """Both adaptation laws track within 0.02 rad after 5 s on shared gains."""
    cfg = load_sim(builtin_config_path("rrr_compare"))
    started = time.perf_counter()
    worst = {}
    for adapter in ("nal", "projection"):
        log = run_scenario(rrr3, cfg, repetition=0, adapter=adapter)
        t = log.column("t_s")
        late = t >= 5.0
        worst[adapter] = [float(np.max(np.abs(log.column(f"eq_{i}_rad")[late])))
                          for i in (1, 2, 3)]
        for value in worst[adapter]:
            assert value <= 0.02
    elapsed = time.perf_counter() - started

    nal = tuning_burden(rrr3, "nal")
    proj = tuning_burden(rrr3, "projection")
    print(f"criterion 8: max |e| after 5 s nal {worst['nal']}, "
          f"projection {worst['projection']} (bound 0.02 rad); "
          f"nal gains {nal['adaptation_gains']} vs projection "
          f"{proj['adaptation_gains']} gains + {proj['adaptation_bounds']} "
          f"bounds; {elapsed:.0f} s < 60 s")
    assert nal == {"adaptation_gains": 1, "adaptation_bounds": 0,
                   "joint_adaptation_gains": 1}
    assert proj == {"adaptation_gains": 39, "adaptation_bounds": 78}
    assert elapsed < 60.0


def test_criterion_09_pose_tracking_clean_and_disturbed(arm7):
    """Six-repetition pose task within 5 mm / 1 deg; bounded under a 5 N sine."""
    cfg = load_sim(builtin_config_path("exo_pose"))
    pos, ori = [], []
    for rep in range(cfg.repetitions):
        log = run_scenario(arm7, cfg, repetition=rep)
        assert log.meta["wall_time_s"] < 300.0
        pos.append(log.summary["rmse_position_mm"])
        ori.append(log.summary["rmse_orientation_deg"])
    mean_pos = float(np.mean(pos))
    mean_ori = float(np.mean(ori))

    cfg_dist = load_sim(builtin_config_path("exo_disturbed"))
    log = run_scenario(arm7, cfg_dist, repetition=0)   # raises if it diverges
    assert log.meta["wall_time_s"] < 300.0
    dist_pos = log.summary["rmse_position_mm"]
    print(f"criterion 9: clean mean position RMSE {mean_pos:.3f} mm <= 5, "
          f"orientation {mean_ori:.3f} deg <= 1.0 over {cfg.repetitions} reps; "
          f"disturbed 30 s position RMSE {dist_pos:.3f} mm <= 25, no divergence")
    assert mean_pos <= 5.0
    assert mean_ori <= 1.0
    assert dist_pos <= 25.0


def test_criterion_10_force_propagation_and_integrator(rrr3, arm7, pendulum):
    """Chain force sweep equals the torque oracle; plant integration is sound."""
    rng = np.random.default_rng(110)
    worst = 0.0
    for model in (rrr3, arm7):
        i_m = np.array([j.motor_inertia for j in model.joints])
        for _ in range(50):
            q = rng.uniform(-1.2, 1.2, model.n)
            qd = rng.standard_normal(model.n)
            qdd = rng.standard_normal(model.n)
            poses = chain_poses(model, q)
            vb, vt, _, _ = propagate_velocities(model, poses, qd, qd)
            ab = propagate_accelerations(model, poses, qd, qdd, vt)
            W = regressor(ab, vb, np.swapaxes(poses.Rb, 1, 2), model.gravity)
            net = np.einsum("nij,nj->ni", W, model.link_phi)
            fb, _ = propagate_forces(model, poses, net, np.zeros(6))
            tau, _ = joint_torques(model, i_m, 0.0, qdd, qd, qd, fb)
            ref = inverse_dynamics(model, q, qd, qdd) + i_m * qdd
            worst = max(worst, float(np.max(np.abs(tau - ref))))
    assert worst <= 1e-8

    worst_pend = 0.0
    for q in np.linspace(-3.0, 3.0, 25):
        got = forward_dynamics(pendulum, np.array([q]), np.array([0.7]),
                               np.zeros(1))[0]
        worst_pend = max(worst_pend, abs(got - pendulum_accel(q, 0.7)))
    assert worst_pend <= 1e-10

    q0 = np.array([0.4, -0.3, 0.6])
    qd0 = np.array([0.0, 0.5, -0.2])
    tau = np.array([0.5, -0.2, 0.1])

    def final_state(dt):
        q, qdot = q0.copy(), qd0.copy()
        for _ in range(int(round(0.1 / dt))):
            q, qdot, _ = step_rk4(rrr3, q, qdot, tau, dt)
        return np.concatenate((q, qdot))

    x1, x2, x3 = final_state(4e-3), final_state(2e-3), final_state(1e-3)
    order = float(np.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3)))
    print(f"criterion 10: worst sweep-vs-oracle gap {worst:.3e} <= 1e-8; "
          f"pendulum gap {worst_pend:.3e} <= 1e-10; "
          f"observed integrator order {order:.2f} >= 3.5")
    assert order >= 3.5
