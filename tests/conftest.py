"""Shared fixtures and random-model helpers for the test suite."""
import numpy as np
import pytest

from vdcnal.config import builtin_config_path, load_robot
from vdcnal.kinematics import Joint, RobotModel
from vdcnal.manifold import bregman_divergence, spd_log_det
from vdcnal.rigid_body import InertialParams
from vdcnal.spatial import FrameTransform, rot_x


def random_rotation(rng) -> np.ndarray:
    """Uniformly distributed rotation via a normalized random quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_transform(rng) -> FrameTransform:
    return FrameTransform(random_rotation(rng), rng.uniform(-1.0, 1.0, 3))


def random_consistent_params(rng, npts: int | None = None) -> InertialParams:
    """Inertial parameters of a random point cloud.

    Any mass distribution of four or more points in general position has a
    strictly positive definite pseudo-inertia, so these are consistent by
    construction (no rejection sampling involved).
    """
    n = int(rng.integers(4, 13)) if npts is None else npts
    masses = rng.uniform(0.05, 1.0, n)
    pts = rng.uniform(-0.3, 0.3, (n, 3))
    m = float(masses.sum())
    h = masses @ pts
    inertia = np.zeros((3, 3))
    for mi, p in zip(masses, pts):
        inertia += mi * (float(p @ p) * np.eye(3) - np.outer(p, p))
    return InertialParams(m, h, inertia)


def divergence(L1, L2):
    """The library's Bregman divergence D(L1 || L2) between two SPD matrices."""
    w2, Q2 = np.linalg.eigh(L2)
    return float(bregman_divergence(L1, spd_log_det(L1, "L1"), w2, Q2))


def zero_gravity_clone(model: RobotModel) -> RobotModel:
    return RobotModel(name=model.name + "-g0", joints=model.joints,
                      base=model.base, gravity=np.zeros(3))


@pytest.fixture(scope="session")
def rrr3() -> RobotModel:
    return load_robot(builtin_config_path("rrr3"))


@pytest.fixture(scope="session")
def arm7() -> RobotModel:
    return load_robot(builtin_config_path("arm7"))


# Single hinge in a vertical plane: base is rot_x(-pi/2) so the joint z-axis
# maps to world -y and gravity produces the textbook -m g l sin(q) torque.
PEND_MASS = 1.0
PEND_LENGTH = 0.5
PEND_RADIUS = 0.05
PEND_IC = 0.4 * PEND_MASS * PEND_RADIUS ** 2


def pendulum_accel(q: float, qdot: float) -> float:
    """Closed-form hinge acceleration of the session pendulum fixture."""
    inertia_pivot = PEND_IC + PEND_MASS * PEND_LENGTH ** 2
    return -PEND_MASS * 9.8 * PEND_LENGTH * np.sin(q) / inertia_pivot


@pytest.fixture(scope="session")
def pendulum() -> RobotModel:
    link = InertialParams.from_com(
        PEND_MASS, np.array([0.0, PEND_LENGTH, 0.0]),
        np.diag([PEND_IC, PEND_IC, PEND_IC]))
    joint = Joint(
        name="hinge", axis="z", motor_inertia=0.0,
        tip=FrameTransform(np.eye(3), np.array([0.0, PEND_LENGTH, 0.0])),
        link=link)
    base = FrameTransform(rot_x(-np.pi / 2.0), np.zeros(3))
    return RobotModel(name="pendulum", joints=(joint,), base=base,
                      gravity=np.array([0.0, 0.0, 9.8]))
