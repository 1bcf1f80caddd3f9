"""Shared fixtures and random-model helpers for the test suite."""
import numpy as np
import pytest

from vdcnal.config import builtin_config_path, load_robot
from vdcnal.kinematics import Joint, RobotModel
from vdcnal.manifold import bregman_divergence, spd_log_det
from vdcnal.rigid_body import InertialParams
from vdcnal.spatial import FrameTransform, axis_rotation


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


# Single hinge in a vertical plane: base is a -pi/2 turn about x so the joint z-axis
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
    base = FrameTransform(axis_rotation("x", -np.pi / 2.0), np.zeros(3))
    return RobotModel(name="pendulum", joints=(joint,), base=base,
                      gravity=np.array([0.0, 0.0, 9.8]))


# Malformed robot files, each an edit of ROBOT_TEXT written to bot.yaml, and
# the message the loader must fail with: it names the file and the key.
ROBOT_TEXT = """\
name: mini
gravity_mps2: [0.0, 0.0, 9.8]
joints:
  - name: only
    axis: z
    motor_inertia_kgm2: 0.01
    tip_offset_m: [0.0, 0.0, 0.2]
    link:
      mass_kg: 1.0
      com_m: [0.0, 0.0, 0.1]
      inertia_com_kgm2: [1.0e-3, 1.0e-3, 1.0e-3, 0.0, 0.0, 0.0]
"""

MALFORMED_ROBOTS = {
    "joints_not_a_list": (
        lambda t: t[:t.index("joints:")] + "joints: 5\n",
        "bot.yaml: joints must be a non-empty list, got 5"),
    "short_limit": (
        lambda t: t.replace("    axis: z\n", "    axis: z\n    limit_rad: [1.0]\n"),
        "bot.yaml:joints[1]: unknown keys ['limit_rad']"),
    "home_pose": (
        lambda t: t + "home_pose:\n  position_m: [0.0, 0.0, 0.2]\n",
        "bot.yaml: unknown keys ['home_pose']"),
    "mass_not_a_number": (
        lambda t: t.replace("mass_kg: 1.0", 'mass_kg: "heavy"'),
        "bot.yaml:joints[1].link: mass_kg must be a finite number, got 'heavy'"),
    "infinite_com": (
        lambda t: t.replace("com_m: [0.0, 0.0, 0.1]", "com_m: [0, 0, .inf]"),
        "bot.yaml:joints[1].link: com_m must be a list of 3 finite numbers, got [0, 0, inf]"),
    "nan_motor_inertia": (
        lambda t: t.replace("motor_inertia_kgm2: 0.01", "motor_inertia_kgm2: .nan"),
        "bot.yaml:joints[1]: motor_inertia_kgm2 must be a finite number, got nan"),
    "nan_gravity": (
        lambda t: t.replace("[0.0, 0.0, 9.8]", "[0, 0, .nan]"),
        "bot.yaml: gravity_mps2 must be a list of 3 finite numbers, got [0, 0, nan]"),
    "unknown_joint_key": (
        lambda t: t.replace("    axis: z\n", "    axis: z\n    colour: red\n"),
        "bot.yaml:joints[1]: unknown keys ['colour']"),
    "unknown_link_key": (
        lambda t: t.replace("      mass_kg:", "      colour: red\n      mass_kg:"),
        "bot.yaml:joints[1].link: unknown keys ['colour']"),
    "unknown_top_key": (
        lambda t: "colour: red\n" + t,
        "bot.yaml: unknown keys ['colour']"),
    "negative_motor_inertia": (
        lambda t: t.replace("motor_inertia_kgm2: 0.01", "motor_inertia_kgm2: -0.01"),
        "bot.yaml:joints[1]: joint 'only': motor inertia must be >= 0"),
    "name_not_a_string": (
        lambda t: t.replace("name: mini", "name: [1, 2]"),
        "bot.yaml: name must be a string, got [1, 2]"),
    "joint_name_not_a_string": (
        lambda t: t.replace("name: only", "name: 7"),
        "bot.yaml:joints[1]: name must be a string, got 7"),
}

# Malformed manifests, each an edit of MANIFEST_TEXT written to man.yaml, in
# the same form as the robot probes above.
MANIFEST_TEXT = """\
scenario: exo-pose
robot: arm7
sim: exo_pose
output_dir: out
"""

MALFORMED_MANIFESTS = {
    "output_dir_a_number": (
        lambda t: t.replace("output_dir: out", "output_dir: 5"),
        "man.yaml: output_dir must be a string, got 5"),
    "output_dir_a_list": (
        lambda t: t.replace("output_dir: out", "output_dir: [out]"),
        "man.yaml: output_dir must be a string, got ['out']"),
    "output_dir_empty": (
        lambda t: t.replace("output_dir: out", 'output_dir: ""'),
        "man.yaml: output_dir must not be empty"),
    "unknown_key": (
        lambda t: t + "repetition: 3\n",
        "man.yaml: unknown keys ['repetition']"),
    "sim_missing": (
        lambda t: t.replace("sim: exo_pose\n", ""),
        "man.yaml: missing required key 'sim'"),
    "robot_missing": (
        lambda t: t.replace("robot: arm7\n", ""),
        "man.yaml: missing required key 'robot'"),
}
