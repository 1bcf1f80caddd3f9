"""Forward kinematics, Jacobian, CLIK, and reference trajectories."""
import numpy as np
import pytest

from oracles import cartesian_desired_scalar
from vdcnal.kinematics import (
    CartesianQuinticReference,
    Joint,
    JointSineReference,
    Pose,
    RobotModel,
    SEVEN_JOINT_AXES,
    chain_poses,
    clik_required_velocity,
    forward_kinematics,
    jacobian,
    orientation_error,
    pose_error,
    quintic_trajectory,
)
from vdcnal.rigid_body import InertialParams
from vdcnal.spatial import (
    FrameTransform,
    UnitQuaternion,
    quat_from_rotation,
    rot_z,
)


def test_joint_validation():
    link = InertialParams(1.0, np.zeros(3), 0.4 * np.eye(3))
    tip = FrameTransform(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError, match="axis"):
        Joint("j", "w", 0.01, tip, link)
    with pytest.raises(ValueError, match="motor inertia"):
        Joint("j", "z", -0.01, tip, link)
    k = Joint("j", "y", 0.01, tip, link).selector
    assert np.array_equal(k, [0, 0, 0, 0, 1, 0])


def test_forward_kinematics_matches_home_pose(rrr3, arm7):
    for model in (rrr3, arm7):
        assert model.home_pose is not None
        pose = forward_kinematics(model, np.zeros(model.n))
        assert np.allclose(pose.position, model.home_pose.position, atol=1e-9)
        assert np.allclose(pose.orientation.as_array(),
                           model.home_pose.orientation.as_array(), atol=1e-9)


def test_pendulum_kinematics_by_hand(pendulum):
    # base rot_x(-pi/2) turns the joint z-axis into world +y; at q = 0 the
    # link points straight down
    pose = forward_kinematics(pendulum, np.zeros(1))
    assert np.allclose(pose.position, [0.0, 0.0, -0.5], atol=1e-12)
    J = jacobian(pendulum, chain_poses(pendulum, np.zeros(1)))
    assert np.allclose(J[:, 0], [-0.5, 0, 0, 0, 1, 0], atol=1e-12)


def test_jacobian_matches_finite_differences(rrr3, arm7):
    rng = np.random.default_rng(40)
    h = 1e-7
    for model in (rrr3, arm7):
        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, model.n)
            J = jacobian(model, chain_poses(model, q))
            for i in range(model.n):
                dq = np.zeros(model.n)
                dq[i] = h
                plus = forward_kinematics(model, q + dq)
                minus = forward_kinematics(model, q - dq)
                v_fd = (plus.position - minus.position) / (2 * h)
                Rdot = (plus.orientation.rotation()
                        - minus.orientation.rotation()) / (2 * h)
                W = Rdot @ forward_kinematics(model, q).orientation.rotation().T
                w_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
                assert np.allclose(J[:3, i], v_fd, atol=1e-5)
                assert np.allclose(J[3:, i], w_fd, atol=1e-5)


def test_arm7_full_task_rank_at_home(arm7):
    J = jacobian(arm7, chain_poses(arm7, np.zeros(7)))
    sv = np.linalg.svd(J, compute_uv=False)
    assert sv[5] > 0.1


def test_chain_tip_frames_are_consistent(arm7):
    rng = np.random.default_rng(41)
    q = rng.uniform(-1.0, 1.0, 7)
    poses = chain_poses(arm7, q)
    pose = forward_kinematics(arm7, q)
    assert np.allclose(poses.pt[-1], pose.position, atol=0.0)
    assert np.allclose(poses.Rt[-1], pose.orientation.rotation(), atol=1e-12)
    # each B frame shares its origin with the preceding T frame
    assert np.allclose(poses.pb[0], poses.p0, atol=0.0)
    for i in range(1, arm7.n):
        assert np.allclose(poses.pb[i], poses.pt[i - 1], atol=0.0)


def test_orientation_error_properties():
    q = quat_from_rotation(rot_z(0.8))
    assert np.allclose(orientation_error(q, q), 0.0, atol=1e-15)
    theta = 0.3
    e = orientation_error(UnitQuaternion(1.0, np.zeros(3)), quat_from_rotation(rot_z(theta)))
    assert np.allclose(e, [0.0, 0.0, np.sin(theta / 2.0)], atol=1e-12)
    # double-cover safety: negating either quaternion leaves the error alone
    flipped = UnitQuaternion(-q.w, -q.vec).sign_normalized()
    target = quat_from_rotation(rot_z(-0.4))
    assert np.allclose(orientation_error(q, target),
                       orientation_error(flipped, target), atol=0.0)


def test_orientation_error_zero_only_at_match():
    rng = np.random.default_rng(42)
    from conftest import random_rotation
    for _ in range(100):
        qa = quat_from_rotation(random_rotation(rng))
        qb = quat_from_rotation(random_rotation(rng))
        e = orientation_error(qa, qb)
        same = np.allclose(qa.as_array(), qb.as_array(), atol=1e-12)
        assert (np.linalg.norm(e) < 1e-10) == same


def test_clik_zero_error_zero_velocity(arm7):
    q = np.full(7, 0.3)
    pose = forward_kinematics(arm7, q)
    J = jacobian(arm7, chain_poses(arm7, q))
    qdot = clik_required_velocity(J, pose_error(pose, pose), np.zeros(6), 25.0)
    assert np.allclose(qdot, 0.0, atol=1e-12)


def test_clik_square_chain_recovers_exact_inverse(arm7):
    # first six joints form a square task map: zero damping must reproduce
    # the plain matrix inverse
    sub = RobotModel(name="arm6", joints=arm7.joints[:6], base=arm7.base,
                     gravity=arm7.gravity)
    rng = np.random.default_rng(43)
    q = rng.uniform(-0.8, 0.8, 6)
    J = jacobian(sub, chain_poses(sub, q))
    assert np.linalg.matrix_rank(J) == 6
    pose = forward_kinematics(sub, q)
    pose_d = forward_kinematics(sub, q + 0.1 * rng.standard_normal(6))
    vel_d = rng.standard_normal(6)
    got = clik_required_velocity(J, pose_error(pose, pose_d), vel_d, 25.0, damping=0.0)
    expected = np.linalg.solve(J, vel_d + 25.0 * pose_error(pose, pose_d))
    assert np.allclose(got, expected, atol=1e-9)


def test_clik_damped_solution_is_optimal(arm7):
    # stationarity of the damped least-squares objective
    rng = np.random.default_rng(44)
    q = rng.uniform(-0.8, 0.8, 7)
    J = jacobian(arm7, chain_poses(arm7, q))
    pose = forward_kinematics(arm7, q)
    pose_d = forward_kinematics(arm7, q + 0.2 * rng.standard_normal(7))
    vel_d = rng.standard_normal(6)
    lam = 1e-3
    qdot = clik_required_velocity(J, pose_error(pose, pose_d), vel_d, 25.0, damping=lam)
    u = vel_d + 25.0 * pose_error(pose, pose_d)
    grad = J.T @ (J @ qdot - u) + lam ** 2 * qdot
    assert np.max(np.abs(grad)) <= 1e-9


def _clik_rollout(model, q0, pose_d, xi, dt, n_steps):
    q = q0.copy()
    errors = []
    for _ in range(n_steps):
        pose = forward_kinematics(model, q)
        errors.append(np.linalg.norm(pose_error(pose, pose_d)))
        J = jacobian(model, chain_poses(model, q))
        qdot = clik_required_velocity(J, pose_error(pose, pose_d), np.zeros(6), xi)
        q = q + dt * qdot
    errors.append(np.linalg.norm(
        pose_error(forward_kinematics(model, q), pose_d)))
    return np.array(errors)


def test_clik_rollout_converges(arm7):
    rng = np.random.default_rng(45)
    q0 = np.full(7, 0.25)
    xi, dt = 25.0, 1e-3

    # moderate offset: the error must shrink monotonically
    pose_d = forward_kinematics(arm7, q0 + 0.3 * rng.standard_normal(7))
    errors = _clik_rollout(arm7, q0, pose_d, xi, dt, 2000)
    assert np.all(np.diff(errors) <= 1e-12)
    assert errors[-1] < 1e-5

    # small initial error: below 1e-6 within 5 / xi seconds.  The quaternion
    # error is sin(theta/2), so the orientation mode decays at xi/2; the
    # starting error must leave room for exp(-2.5) on that mode.
    pose_d = forward_kinematics(arm7, q0 + 1e-5 * rng.standard_normal(7))
    e0 = np.linalg.norm(pose_error(forward_kinematics(arm7, q0), pose_d))
    assert 1e-6 < e0 < 2e-5
    errors = _clik_rollout(arm7, q0, pose_d, xi, dt, int(round(5.0 / xi / dt)))
    assert errors[-1] < 1e-6


def test_quintic_boundary_conditions():
    chi0 = np.array([0.0, 1.0, -2.0])
    chif = np.array([1.0, 3.0, 0.5])
    T = 2.5
    start = quintic_trajectory(chi0, chif, T, 0.0)
    end = quintic_trajectory(chi0, chif, T, T)
    assert np.allclose(start.chi, chi0, atol=1e-14)
    assert np.allclose(end.chi, chif, atol=1e-14)
    for sample in (start, end):
        assert np.allclose(sample.chi_dot, 0.0, atol=1e-14)
        assert np.allclose(sample.chi_ddot, 0.0, atol=1e-14)
    mid = quintic_trajectory(chi0, chif, T, T / 2.0)
    assert np.allclose(mid.chi, 0.5 * (chi0 + chif), atol=1e-14)
    # peak velocity of the minimum-jerk profile
    assert np.allclose(mid.chi_dot, 15.0 * (chif - chi0) / (8.0 * T), atol=1e-13)


def test_quintic_derivatives_are_consistent():
    chi0, chif, T = np.zeros(2), np.array([1.0, -0.5]), 3.0
    h = 1e-6
    for t in (0.3, 1.0, 1.7, 2.4):
        plus = quintic_trajectory(chi0, chif, T, t + h)
        minus = quintic_trajectory(chi0, chif, T, t - h)
        here = quintic_trajectory(chi0, chif, T, t)
        assert np.allclose((plus.chi - minus.chi) / (2 * h), here.chi_dot,
                           atol=1e-6)
        assert np.allclose((plus.chi_dot - minus.chi_dot) / (2 * h),
                           here.chi_ddot, atol=1e-6)


def test_quintic_range_validation():
    chi0, chif = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError):
        quintic_trajectory(chi0, chif, 2.0, -0.01)
    with pytest.raises(ValueError):
        quintic_trajectory(chi0, chif, 2.0, 2.01)
    with pytest.raises(ValueError):
        quintic_trajectory(chi0, chif, 0.0, 0.0)


def test_cartesian_reference_holds_target():
    chi0 = np.array([0.1, 0.0, -0.3, 0.0, 0.0, 0.0])
    chif = np.array([0.25, 0.15, -0.15, 0.1, -0.2, 0.3])
    ref = CartesianQuinticReference(chi0, chif, 3.0)
    pose, twist = ref.desired(10.0)
    assert np.allclose(pose.as_vector(), chif, atol=1e-12)
    assert np.allclose(twist, 0.0, atol=0.0)
    # smooth through the hold transition
    for t in (3.0 - 1e-4, 3.0, 3.0 + 1e-4):
        _, twist = ref.desired(t)
        assert np.max(np.abs(twist)) <= 1e-6


def test_cartesian_reference_twist_matches_finite_differences():
    chi0 = np.array([0.1, 0.0, -0.3, 0.0, 0.0, 0.0])
    chif = np.array([0.25, 0.15, -0.15, 0.1, -0.2, 0.3])
    ref = CartesianQuinticReference(chi0, chif, 3.0)
    h = 1e-6
    for t in (0.4, 1.5, 2.6):
        pose, twist = ref.desired(t)
        plus, _ = ref.desired(t + h)
        minus, _ = ref.desired(t - h)
        v_fd = (plus.position - minus.position) / (2 * h)
        Rdot = (plus.orientation.rotation() - minus.orientation.rotation()) / (2 * h)
        W = Rdot @ pose.orientation.rotation().T
        w_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
        assert np.allclose(twist[:3], v_fd, atol=1e-6)
        assert np.allclose(twist[3:], w_fd, atol=1e-6)


def test_joint_sine_reference():
    ref = JointSineReference(3, amplitude=0.5, omega=2.0)
    q_d, qd_d = ref.desired(0.7)
    assert np.allclose(q_d, 0.5 * np.sin(1.4) * np.ones(3), atol=1e-15)
    assert np.allclose(qd_d, 1.0 * np.cos(1.4) * np.ones(3), atol=1e-15)
    q_d, qd_d = ref.desired(0.0)
    assert np.allclose(q_d, 0.0, atol=0.0)


@pytest.mark.parametrize("chif", [
    [0.25, 0.15, -0.15, 0.1, -0.2, 0.3],
    # beta beyond pi/2 and delta beyond pi: chi_d folds as rotation_to_euler_xyz does
    [0.25, 0.15, -0.15, -2.9, 2.0, 3.6],
    # the half-angle product has w < 0 towards the target, so the table flips its sign
    [0.25, 0.15, -0.15, 3.0, 0.5, 3.0],
])
def test_cartesian_table_matches_scalar_path(chif):
    chi0 = np.array([0.1, 0.0, -0.3, 0.4, -0.1, -0.2])
    T = 3.0
    ref = CartesianQuinticReference(chi0, chif, T)
    # t = 0, mid-sweep, the duration, the hold phase, and a tick grid across all
    times = np.concatenate(([0.0, T / 2.0, T, T + 1.7], np.arange(4000) * 1e-3))
    table = ref.tabulate(times)
    assert table.shape == (len(times), 16)
    for t, row in zip(times, table):
        chi_d, quat, twist = cartesian_desired_scalar(chi0, np.array(chif), T, t)
        for got, want in ((row[:6], chi_d), (row[6:10], quat), (row[10:], twist)):
            assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))
        pose, vel, chi = ref.unpack(row)
        assert np.array_equal(pose.position, row[:3]) and np.array_equal(vel, row[10:])
        assert np.array_equal(chi, row[:6])
    # desired(t) is the table's code on one time
    for t, row in zip(times[:4], table):
        pose, vel = ref.desired(t)
        assert np.allclose(pose.orientation.as_array(), row[6:10], atol=1e-15)
        assert np.allclose(vel, row[10:], atol=1e-15)
    assert np.array_equal(table[3, 10:], np.zeros(6))


def test_joint_table_matches_closed_form():
    ref = JointSineReference(3, amplitude=0.5, omega=2.0)
    times = np.concatenate(([0.0, 0.7], np.arange(2000) * 1e-3))
    table = ref.tabulate(times)
    assert table.shape == (len(times), 6)
    for t, row in zip(times, table):
        q_d, qd_d = ref.unpack(row)
        assert np.allclose(q_d, np.full(3, 0.5 * np.sin(2.0 * t)), rtol=0.0, atol=1e-15)
        assert np.allclose(qd_d, np.full(3, 1.0 * np.cos(2.0 * t)), rtol=0.0, atol=1e-15)


def test_model_validation_names_offending_link(rrr3):
    point_mass = InertialParams(1.0, np.zeros(3), np.zeros((3, 3)))
    joints = list(rrr3.joints)
    joints[1] = Joint(joints[1].name, joints[1].axis, joints[1].motor_inertia,
                      joints[1].tip, point_mass)
    bad = RobotModel(name="bad", joints=tuple(joints), base=rrr3.base,
                     gravity=rrr3.gravity)
    problems = bad.validate()
    # links are reported one-based
    assert any("link 2" in p and joints[1].name in p
               and "not physically consistent" in p for p in problems)


def test_model_validation_enforces_seven_joint_axes(arm7):
    assert arm7.validate() == []
    assert tuple(j.axis for j in arm7.joints) == SEVEN_JOINT_AXES
    joints = list(arm7.joints)
    joints[4] = Joint(joints[4].name, "y", joints[4].motor_inertia,
                      joints[4].tip, joints[4].link)
    shuffled = RobotModel(name="bad7", joints=tuple(joints), base=arm7.base,
                          gravity=arm7.gravity)
    assert any("axis" in p for p in shuffled.validate())


def test_pose_vector_round_trip():
    from vdcnal.spatial import euler_xyz_to_rotation
    p = np.array([0.2, -0.1, 0.4])
    angles = (0.3, -0.5, 1.1)
    pose = Pose(p, quat_from_rotation(euler_xyz_to_rotation(*angles)))
    chi = pose.as_vector()
    assert np.allclose(chi[:3], p, atol=0.0)
    assert np.allclose(chi[3:], angles, atol=1e-12)


def test_pose_rotation_is_the_orientations_or_the_checked_matrix():
    R = rot_z(0.8)
    q = quat_from_rotation(R)
    assert np.allclose(Pose(np.zeros(3), q).rotation, q.rotation(), atol=0.0)
    assert Pose.from_rotation(np.zeros(3), R).rotation.tobytes() == R.tobytes()
    # the matrix is no constructor argument, so it cannot disagree with the quaternion
    with pytest.raises(TypeError):
        Pose(np.zeros(3), q, np.eye(3))
    with pytest.raises(ValueError):
        Pose.from_rotation(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
