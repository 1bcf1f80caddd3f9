"""Rotations, quaternions, and the velocity/wrench transform pair."""
import numpy as np
import pytest

from conftest import random_rotation, random_transform
from oracles import quat_from_rotation_numpy, rotation_to_euler_xyz_numpy
from vdcnal.spatial import (
    FrameTransform,
    UnitQuaternion,
    axis_rotation,
    axis_vector,
    cross3,
    euler_xyz_rate_matrix,
    euler_xyz_to_rotation,
    quat_from_rotation,
    rot_x,
    rot_y,
    rot_z,
    rotation_to_euler_xyz,
    skew,
    transform_velocity_raw,
    transform_wrench_raw,
)


def _matrix6(U: FrameTransform) -> np.ndarray:
    """The 6x6 U = [[R, 0], [skew(r) R, R]] of the module's convention."""
    M = np.zeros((6, 6))
    M[:3, :3] = U.R
    M[3:, :3] = skew(U.r) @ U.R
    M[3:, 3:] = U.R
    return M


def _inverse(U: FrameTransform) -> FrameTransform:
    return FrameTransform(U.R.T, -(U.R.T @ U.r))


def test_skew_matches_cross():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(skew(a) @ b, np.cross(a, b), atol=1e-14)
        assert np.allclose(cross3(a, b), np.cross(a, b), atol=1e-14)
        assert np.allclose(skew(a).T, -skew(a), atol=0.0)


def test_axis_helpers():
    theta = 0.37
    assert np.array_equal(axis_rotation("x", theta), rot_x(theta))
    assert np.array_equal(axis_rotation("y", theta), rot_y(theta))
    assert np.array_equal(axis_rotation("z", theta), rot_z(theta))
    for ax in "xyz":
        # rotating about an axis leaves that axis fixed
        assert np.allclose(axis_rotation(ax, theta) @ axis_vector(ax),
                           axis_vector(ax), atol=1e-15)
    with pytest.raises(KeyError):
        axis_rotation("w", 0.0)


def test_velocity_transform_example():
    # B sits one unit along x of A; A spins at 1 rad/s about z.
    out = transform_velocity_raw(np.eye(3), np.array([1.0, 0.0, 0.0]),
                                 np.array([0, 0, 0, 0, 0, 1.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_wrench_transform_example():
    # unit y-force acting at B has a unit z-moment about A
    out = transform_wrench_raw(np.eye(3), np.array([1.0, 0.0, 0.0]),
                               np.array([0, 1.0, 0, 0, 0, 0]))
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_transform_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(200):
        U = random_transform(rng)
        Ui = _inverse(U)
        V = rng.standard_normal(6)
        F = rng.standard_normal(6)
        V_back = transform_velocity_raw(Ui.R, Ui.r, transform_velocity_raw(U.R, U.r, V))
        F_back = transform_wrench_raw(Ui.R, Ui.r, transform_wrench_raw(U.R, U.r, F))
        assert np.allclose(V_back, V, atol=1e-12)
        assert np.allclose(F_back, F, atol=1e-12)


def test_power_duality():
    # V_A . F_A == V_B . F_B when F_A = U F_B and V_B = U' V_A
    rng = np.random.default_rng(3)
    for _ in range(500):
        U = random_transform(rng)
        va = rng.standard_normal(6)
        fb = rng.standard_normal(6)
        fa = transform_wrench_raw(U.R, U.r, fb)
        vb = transform_velocity_raw(U.R, U.r, va)
        pa, pb = va @ fa, vb @ fb
        assert abs(pa - pb) <= 1e-12 * (1.0 + abs(pa))


def test_matrix6_matches_transforms():
    rng = np.random.default_rng(4)
    for _ in range(200):
        U = random_transform(rng)
        M = _matrix6(U)
        va = rng.standard_normal(6)
        fb = rng.standard_normal(6)
        assert np.allclose(M @ fb, transform_wrench_raw(U.R, U.r, fb), atol=1e-12)
        assert np.allclose(M.T @ va, transform_velocity_raw(U.R, U.r, va), atol=1e-12)
        assert np.allclose(_matrix6(_inverse(U)), np.linalg.inv(M), atol=1e-12)


def test_raw_transforms_compose_along_a_chain():
    # A -> B -> C applied in turn equals the one transform of C's pose in A,
    # which is what the base-to-tip and tip-to-base sweeps rely on
    rng = np.random.default_rng(5)
    for _ in range(200):
        U1, U2 = random_transform(rng), random_transform(rng)
        R, r = U1.R @ U2.R, U1.r + U1.R @ U2.r
        va = rng.standard_normal(6)
        fc = rng.standard_normal(6)
        assert np.allclose(transform_velocity_raw(U2.R, U2.r, transform_velocity_raw(
            U1.R, U1.r, va)), transform_velocity_raw(R, r, va), atol=1e-12)
        assert np.allclose(transform_wrench_raw(U1.R, U1.r, transform_wrench_raw(
            U2.R, U2.r, fc)), transform_wrench_raw(R, r, fc), atol=1e-12)
        assert np.allclose(_matrix6(FrameTransform(R, r)),
                           _matrix6(U1) @ _matrix6(U2), atol=1e-12)


def test_frame_transform_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        FrameTransform(np.eye(3) + 0.01, np.zeros(3))
    with pytest.raises(ValueError, match="reflection"):
        FrameTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        FrameTransform(np.eye(3), np.zeros(2))


def test_quaternion_examples():
    assert np.allclose(UnitQuaternion(1.0, np.zeros(3)).rotation(), np.eye(3), atol=0.0)
    q = quat_from_rotation(rot_z(np.pi))
    assert abs(q.w) <= 1e-12
    assert np.allclose(q.vec, [0.0, 0.0, 1.0], atol=1e-12)
    q = quat_from_rotation(rot_z(np.pi / 2.0))
    assert np.allclose(q.as_array(),
                       [np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)],
                       atol=1e-15)


def test_quaternion_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        R = random_rotation(rng)
        assert np.allclose(quat_from_rotation(R).rotation(), R, atol=1e-10)
    # near-pi rotations exercise the non-trace Shepperd branches
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 1e-7
        K = skew(axis)
        R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
        assert np.allclose(quat_from_rotation(R).rotation(), R, atol=1e-10)


def test_quaternion_sign_convention():
    rng = np.random.default_rng(7)
    for _ in range(500):
        q = quat_from_rotation(random_rotation(rng))
        arr = q.as_array()
        nz = arr[np.abs(arr) > 0.0]
        assert q.w > 0.0 or (q.w == 0.0 and nz[0] > 0.0)
    flipped = UnitQuaternion(-1.0, np.zeros(3)).sign_normalized()
    assert flipped.w == 1.0


def test_quaternion_validation():
    with pytest.raises(ValueError, match="unit norm"):
        UnitQuaternion(0.5, np.zeros(3))
    with pytest.raises(ValueError):
        UnitQuaternion(1.0, np.zeros(2))


def test_quat_from_rotation_rejects_non_rotations():
    R = random_rotation(np.random.default_rng(10))
    with pytest.raises(ValueError, match="reflection"):
        quat_from_rotation(R @ np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="reflection"):
        quat_from_rotation(-np.eye(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        quat_from_rotation(1.001 * R)
    with pytest.raises(ValueError, match="not orthonormal"):
        quat_from_rotation(R + 1e-6 * np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ValueError, match="not orthonormal"):
        quat_from_rotation(np.where(np.eye(3) > 0.0, np.nan, R))
    with pytest.raises(ValueError, match="3x3"):
        quat_from_rotation(np.eye(4))


def _conversion_rotations(rng):
    """1000 rotations: uniform ones, ones within 1e-8 of a half turn (trace
    near -1, where the non-trace Shepperd branches run), and XYZ Euler
    rotations with beta at or next to +-pi/2 (the gimbal-lock fold)."""
    rotations = [random_rotation(rng) for _ in range(600)]
    for _ in range(200):
        axis = rng.standard_normal(3)
        K = skew(axis / np.linalg.norm(axis))
        angle = np.pi - 10.0 ** -rng.uniform(0.0, 8.0)
        rotations.append(np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K))
    for k in range(200):
        beta = rng.choice([-1.0, 1.0]) * (np.pi / 2.0 - (0.0 if k % 4 == 0 else
                                                           10.0 ** -rng.uniform(0.0, 9.0)))
        rotations.append(euler_xyz_to_rotation(rng.uniform(-np.pi, np.pi), beta,
                                               rng.uniform(-np.pi, np.pi)))
    return rotations


def test_float_conversions_match_numpy_forms():
    rotations = _conversion_rotations(np.random.default_rng(11))
    assert min(np.trace(R) for R in rotations) < -1.0 + 1e-15
    assert max(abs(R[0, 2]) for R in rotations) == 1.0
    for R in rotations:
        q = quat_from_rotation(R)
        assert q is q.sign_normalized()
        assert np.max(np.abs(q.as_array() - quat_from_rotation_numpy(R))) <= 1e-15
        assert np.max(np.abs(rotation_to_euler_xyz(R) - rotation_to_euler_xyz_numpy(R))) <= 1e-15


def test_euler_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = rng.uniform(-np.pi, np.pi)
        b = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
        d = rng.uniform(-np.pi, np.pi)
        angles = rotation_to_euler_xyz(euler_xyz_to_rotation(a, b, d))
        assert np.allclose(angles, [a, b, d], atol=1e-10)
    for _ in range(200):
        # arbitrary rotations may fold into the other Euler branch, but the
        # recovered angles must reproduce the rotation itself
        R = random_rotation(rng)
        a, b, d = rotation_to_euler_xyz(R)
        assert np.allclose(euler_xyz_to_rotation(a, b, d), R, atol=1e-9)
    q = quat_from_rotation(euler_xyz_to_rotation(0.3, -0.2, 0.9))
    assert np.allclose(q.rotation(), euler_xyz_to_rotation(0.3, -0.2, 0.9),
                       atol=1e-12)


def test_euler_rate_matrix_matches_finite_difference():
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(50):
        a, d = rng.uniform(-np.pi, np.pi, 2)
        b = rng.uniform(-1.2, 1.2)
        rates = rng.standard_normal(3)
        Rp = euler_xyz_to_rotation(*(np.array([a, b, d]) + h * rates))
        Rm = euler_xyz_to_rotation(*(np.array([a, b, d]) - h * rates))
        Rdot = (Rp - Rm) / (2.0 * h)
        W = Rdot @ euler_xyz_to_rotation(a, b, d).T
        omega_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
        omega = euler_xyz_rate_matrix(a, b) @ rates
        assert np.allclose(omega, omega_fd, atol=1e-6)
