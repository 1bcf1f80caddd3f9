"""Decentralized control sweeps, the controller loop, and its stability monitor."""
import numpy as np
import pytest

from vdcnal.adaptation import (
    FrozenAdapter,
    NalJointAdapter,
    NalLinkAdapter,
    initial_link_estimate,
)
from vdcnal.controller import (
    ControllerGains,
    VdcController,
    joint_torques,
    link_control_wrench,
    propagate_accelerations,
    propagate_forces,
    propagate_velocities,
    stability_diagnostics,
    virtual_power_flow,
)
from vdcnal.kinematics import (
    CartesianQuinticReference,
    JointSineReference,
    forward_kinematics,
    jacobian,
    chain_poses,
)
from oracles import gravity_wrench
from vdcnal.simulation import forward_dynamics, inverse_dynamics


def _frozen_adapters(model):
    return FrozenAdapter(model.link_phi), FrozenAdapter(model.drive_phi)


def _nal_adapters(model, gains):
    guess = np.array([initial_link_estimate(j.link).as_vector() for j in model.joints])
    drives = np.maximum(0.5 * model.drive_phi, 1e-8)
    return (NalLinkAdapter(guess, gains.gamma), NalJointAdapter(drives, gains.gamma_a))


def test_gains_validation_names_offenders():
    assert ControllerGains().validate() == []
    problems = ControllerGains(xi=-1.0, k_b=0.0).validate()
    assert any("xi" in p for p in problems)
    assert any("k_b" in p for p in problems)
    assert any("clik_damping" in p
               for p in ControllerGains(clik_damping=-1e-3).validate())


def test_propagate_velocities_zero(arm7):
    vb, vt, vrb, vrt = propagate_velocities(arm7, chain_poses(arm7, np.zeros(7)),
                                            np.zeros(7), np.zeros(7))
    for a in (vb, vt, vrb, vrt):
        assert np.allclose(a, 0.0, atol=0.0)


def test_propagate_velocities_single_joint(pendulum):
    w = 0.8
    vb, vt, _, _ = propagate_velocities(pendulum, chain_poses(pendulum, np.array([0.4])),
                                        np.array([w]), np.array([0.0]))
    assert np.allclose(vb[0], [0, 0, 0, 0, 0, w], atol=0.0)
    # tip frame sits 0.5 along the link y-axis
    assert np.allclose(vt[0], [-0.5 * w, 0, 0, 0, 0, w], atol=1e-15)


def test_tip_velocity_matches_jacobian(rrr3, arm7):
    rng = np.random.default_rng(50)
    for model in (rrr3, arm7):
        for _ in range(20):
            q = rng.uniform(-1.2, 1.2, model.n)
            qdot = rng.standard_normal(model.n)
            poses = chain_poses(model, q)
            _, vt, _, vrt = propagate_velocities(model, poses, qdot, qdot)
            tw = jacobian(model, poses) @ qdot
            Rt = poses.Rt[-1]
            local = np.concatenate((Rt.T @ tw[:3], Rt.T @ tw[3:]))
            assert np.allclose(vt[-1], local, atol=1e-10)
            assert np.allclose(vrt[-1], local, atol=1e-10)


def test_propagate_accelerations_matches_finite_differences(arm7):
    rng = np.random.default_rng(51)
    h = 1e-6
    q = rng.uniform(-1.0, 1.0, 7)
    qdot = rng.standard_normal(7)
    qddot = rng.standard_normal(7)

    def vels(t):
        qt = q + qdot * t + 0.5 * qddot * t * t
        qdt = qdot + qddot * t
        vb, vt, _, _ = propagate_velocities(arm7, chain_poses(arm7, qt), qdt, qdt)
        return vb, vt

    vb0, vt0 = vels(0.0)
    ab = propagate_accelerations(arm7, chain_poses(arm7, q), qdot, qddot, vt0)
    at = (arm7.tip_velocity @ ab[:, :, None])[:, :, 0]
    (vb_p, vt_p), (vb_m, vt_m) = vels(h), vels(-h)
    assert np.allclose(ab, (vb_p - vb_m) / (2 * h), atol=1e-6)
    assert np.allclose(at, (vt_p - vt_m) / (2 * h), atol=1e-6)


def test_link_control_wrench_branches():
    rng = np.random.default_rng(52)
    W = rng.standard_normal((6, 10))
    phi = rng.standard_normal(10)
    v_r, v = rng.standard_normal(6), rng.standard_normal(6)
    out = link_control_wrench(W, phi, 1.2, v_r, v)
    assert np.allclose(out, W @ phi + 1.2 * (v_r - v), atol=1e-14)
    K = np.diag(rng.uniform(0.5, 2.0, 6))
    out = link_control_wrench(W, phi, K, v_r, v)
    assert np.allclose(out, W @ phi + K @ (v_r - v), atol=1e-14)


def test_propagate_forces_zero(rrr3):
    fb, ft = propagate_forces(rrr3, chain_poses(rrr3, np.zeros(3)), np.zeros((3, 6)),
                              np.zeros(6))
    assert np.allclose(fb, 0.0, atol=0.0)
    assert np.allclose(ft, 0.0, atol=0.0)


def test_static_force_sweep_carries_total_weight(rrr3, arm7):
    rng = np.random.default_rng(53)
    for model in (rrr3, arm7):
        q = rng.uniform(-1.0, 1.0, model.n)
        poses = chain_poses(model, q)
        net = np.stack([
            gravity_wrench(j.link, poses.Rb[i].T, model.gravity)
            for i, j in enumerate(model.joints)
        ])
        fb, _ = propagate_forces(model, poses, net, np.zeros(6))
        world_force = poses.Rb[0] @ fb[0][:3]
        total = sum(j.link.mass for j in model.joints) * model.gravity
        assert np.allclose(world_force, total, atol=1e-9)
        # the extracted joint torques must match the independent recursion
        tau_static = np.array([
            float(j.selector @ fb[i]) for i, j in enumerate(model.joints)])
        expected = inverse_dynamics(model, q, np.zeros(model.n),
                                    np.zeros(model.n))
        assert np.allclose(tau_static, expected, atol=1e-8)


def test_joint_torque_arithmetic(pendulum):
    fr_b = np.zeros((1, 6))
    fr_b[0, 5] = 1.0  # unit moment on the joint axis
    tau, tau_star = joint_torques(pendulum, np.array([0.02]), 0.1, np.array([1.0]),
                                  np.array([0.7]), np.array([0.2]), fr_b)
    assert tau_star[0] == pytest.approx(0.02 + 0.05, abs=1e-15)
    assert tau[0] == pytest.approx(1.07, abs=1e-15)


def test_virtual_power_flow_values():
    assert virtual_power_flow(np.ones(6), np.ones(6),
                              np.ones(6), np.zeros(6)) == 0.0
    v_r, v = np.array([1.0, 0, 0, 0, 0, 0]), np.zeros(6)
    f_r, f = np.array([2.0, 0, 0, 0, 0, 0]), np.array([0.5, 0, 0, 0, 0, 0])
    assert virtual_power_flow(v_r, v, f_r, f) == pytest.approx(1.5, abs=0.0)


def test_controller_validation(arm7):
    links, joints = _frozen_adapters(arm7)
    ref = JointSineReference(7)
    with pytest.raises(ValueError, match="mode"):
        VdcController(arm7, ControllerGains(), ref, links, joints,
                      mode="cartesian")
    with pytest.raises(ValueError, match="adapter"):
        VdcController(arm7, ControllerGains(), ref, FrozenAdapter(arm7.link_phi[:-1]),
                      joints, mode="joint")


def test_controller_compensates_gravity_at_target(arm7):
    q0 = np.full(7, 0.3)
    chi0 = forward_kinematics(arm7, q0).as_vector()
    ref = CartesianQuinticReference(chi0, chi0, 1.0)
    links, joints = _frozen_adapters(arm7)
    ctl = VdcController(arm7, ControllerGains(), ref, links, joints)
    tau, snap = ctl.step(0.0, q0, np.zeros(7))
    expected = inverse_dynamics(arm7, q0, np.zeros(7), np.zeros(7))
    assert np.allclose(tau, expected, atol=1e-8)
    assert np.allclose(snap.err, 0.0, atol=1e-9)
    assert np.allclose(snap.qdot_r, 0.0, atol=1e-9)


def test_controller_joint_mode_tracking_law(rrr3):
    ref = JointSineReference(3, amplitude=1.0, omega=1.0)
    links, joints = _frozen_adapters(rrr3)
    lam = 50.0
    ctl = VdcController(rrr3, ControllerGains(), ref, links, joints,
                        mode="joint", joint_gain=lam)
    t, q, qdot = 0.4, np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.0, -0.1])
    _, snap = ctl.step(t, q, qdot)
    q_d, qd_d = ref.desired(t)
    assert np.allclose(snap.err, q_d - q, atol=0.0)
    assert np.allclose(snap.qdot_r, qd_d + lam * (q_d - q), atol=0.0)
    # first tick differences against a zero history
    assert np.allclose(snap.qddot_r, 0.0, atol=0.0)


def test_controller_is_deterministic(arm7):
    def roll():
        gains = ControllerGains()
        links, joints = _nal_adapters(arm7, gains)
        chi0 = forward_kinematics(arm7, np.full(7, 0.2)).as_vector()
        chif = chi0 + np.array([0.1, -0.05, 0.05, 0, 0, 0])
        ctl = VdcController(arm7, gains, CartesianQuinticReference(chi0, chif, 2.0),
                            links, joints)
        taus = []
        for k in range(50):
            t = 1e-3 * k
            q = np.full(7, 0.2) + 0.01 * np.sin(t * np.arange(1, 8))
            qdot = 0.01 * np.cos(t * np.arange(1, 8))
            tau, _ = ctl.step(t, q, qdot)
            taus.append(tau)
        return np.stack(taus)

    assert np.array_equal(roll(), roll())


def test_stability_diagnostics_structure(arm7):
    rng = np.random.default_rng(54)
    q = rng.uniform(-0.6, 0.6, 7)
    qdot = 0.3 * rng.standard_normal(7)
    gains = ControllerGains()
    links, joints = _nal_adapters(arm7, gains)
    chi0 = forward_kinematics(arm7, q).as_vector()
    ref = CartesianQuinticReference(chi0, chi0 + 0.05, 2.0)
    ctl = VdcController(arm7, gains, ref, links, joints)
    tau, snap = ctl.step(0.0, q, qdot)
    qddot = forward_dynamics(arm7, q, qdot, tau)
    diag = stability_diagnostics(arm7, snap, q, qdot, qddot, np.zeros(6), links, joints)

    assert np.all(diag.nu_links >= 0.0)
    assert np.all(diag.nu_joints >= 0.0)
    assert diag.nu_total == pytest.approx(
        float(np.sum(diag.nu_links) + np.sum(diag.nu_joints)), abs=1e-14)
    # interior virtual power flows cancel in the telescoping sum
    assert np.max(np.abs(diag.telescope)) <= 1e-10
    assert np.all(diag.min_eigs > 0.0)


def test_stability_diagnostics_frozen_matched_state_is_zero(rrr3):
    # exact parameters, zero tracking error: every term of nu vanishes
    q = np.array([0.2, -0.4, 0.6])
    links, joints = _frozen_adapters(rrr3)
    gains = ControllerGains()
    chi0 = forward_kinematics(rrr3, q).as_vector()
    ref = CartesianQuinticReference(chi0, chi0, 1.0)
    ctl = VdcController(rrr3, gains, ref, links, joints)
    tau, snap = ctl.step(0.0, q, np.zeros(3))
    qddot = forward_dynamics(rrr3, q, np.zeros(3), tau)
    diag = stability_diagnostics(rrr3, snap, q, np.zeros(3), qddot, np.zeros(6),
                                 links, joints)
    assert diag.nu_total <= 1e-12
    assert np.max(np.abs(diag.vpf)) <= 1e-8
