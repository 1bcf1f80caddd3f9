"""Output checks for the benchmark, written apart from the program's code.

Nothing here imports ``vdcnal``.  Logs are parsed with a reader of our own,
the tip pose is recomputed with a homogeneous-transform chain built from the
robot YAML, and the joint-sine reference is recomputed from the sim YAML.
Every check returns a list of problems; an empty list means the log passed.
"""
from __future__ import annotations

import io
import pathlib
from dataclasses import dataclass

import numpy as np
import yaml

# the tip pose is recomputed along another route than the program's, so the
# two agree to rounding, not bit for bit
POSE_TOL = 1e-10
# eq_i is one subtraction of the same float64 operands
EQ_TOL = 1e-12
# decrescent accompanying function with exact parameters; the largest rise
# seen on arm7 is about 5e-12 per tick
NU_MAX_RISE = 1e-6
NU_FLOOR = -1e-12
# joint-sine tracking after the transient, for both laws
TRACK_AFTER_S = 5.0
TRACK_LIMIT_RAD = 0.02


@dataclass
class Log:
    path: pathlib.Path
    meta: dict
    columns: list
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def block(self, prefix: str, suffix: str = "") -> np.ndarray:
        """Columns ``<prefix>1<suffix>`` ... ``<prefix>n<suffix>`` as (rows, n)."""
        names = []
        while f"{prefix}{len(names) + 1}{suffix}" in self.columns:
            names.append(f"{prefix}{len(names) + 1}{suffix}")
        return np.column_stack([self.column(c) for c in names])


def read_log(path) -> Log:
    """Parse a run CSV: ``# key: value`` lines, a header row, numeric rows."""
    path = pathlib.Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition(":")
        meta[key.strip()] = value.strip()
        i += 1
    columns = lines[i].split(",")
    body = "\n".join(lines[i + 1:])
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(columns)))
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: {data.shape[1]} values per row, "
                         f"{len(columns)} columns")
    return Log(path, meta, columns, data)


# --- forward kinematics from the robot YAML ----------------------------------

def rotation(axis: str, angle) -> np.ndarray:
    """Stack of rotations about a principal axis, shape angle.shape + (3, 3)."""
    angle = np.asarray(angle, dtype=float)
    i = "xyz".index(axis)
    j, k = (i + 1) % 3, (i + 2) % 3
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros(angle.shape + (3, 3))
    R[..., i, i] = 1.0
    R[..., j, j] = c
    R[..., k, k] = c
    R[..., j, k] = -s
    R[..., k, j] = s
    return R


def rotation_xyz(angles) -> np.ndarray:
    """Rx(a) Ry(b) Rz(c) for angles (..., 3)."""
    angles = np.asarray(angles, dtype=float)
    return (rotation("x", angles[..., 0]) @ rotation("y", angles[..., 1])
            @ rotation("z", angles[..., 2]))


def homogeneous(R, p) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    T = np.zeros(R.shape[:-2] + (4, 4))
    T[..., :3, :3] = R
    T[..., :3, 3] = p
    T[..., 3, 3] = 1.0
    return T


def tip_transforms(robot: dict, q) -> np.ndarray:
    """World transform of the last frame for each row of joint angles q (rows, n)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    base = robot.get("base", {})
    T = homogeneous(rotation_xyz(base.get("rotation_xyz_rad", [0.0, 0.0, 0.0])),
                    base.get("position_m", [0.0, 0.0, 0.0]))
    T = np.broadcast_to(T, (q.shape[0], 4, 4))
    joints = robot["joints"]
    if len(joints) != q.shape[1]:
        raise ValueError(f"robot has {len(joints)} joints, log has {q.shape[1]}")
    for i, joint in enumerate(joints):
        J = homogeneous(rotation(joint["axis"], q[:, i]), np.zeros(3))
        tip = homogeneous(rotation_xyz(joint.get("tip_rotation_xyz_rad", [0.0, 0.0, 0.0])),
                          joint.get("tip_offset_m", [0.0, 0.0, 0.0]))
        T = T @ J @ tip
    return T


# --- the checks ----------------------------------------------------------------

def _first_bad(mask) -> int:
    return int(np.argmax(mask))


def _exceeds(values, limit) -> np.ndarray:
    # NaN fails the check instead of slipping past a ">" comparison
    return ~(np.asarray(values) <= limit)


def tip_pose_problems(log: Log, robot: dict) -> list[str]:
    """(a) x_m ... eul_z_rad match the tip pose recomputed from q_*."""
    T = tip_transforms(robot, log.block("q_", "_rad"))
    p_log = np.column_stack([log.column(c) for c in ("x_m", "y_m", "z_m")])
    eul = np.column_stack([log.column(c)
                           for c in ("eul_x_rad", "eul_y_rad", "eul_z_rad")])
    # compare rotations, not angles: immune to the +-pi wrap of atan2
    p_err = np.max(np.abs(T[:, :3, 3] - p_log), axis=1)
    r_err = np.max(np.abs(T[:, :3, :3] - rotation_xyz(eul)), axis=(1, 2))
    bad = _exceeds(p_err, POSE_TOL) | _exceeds(r_err, POSE_TOL)
    if np.any(bad):
        k = _first_bad(bad)
        return [f"{log.path.name}: row {k}: tip pose differs from forward kinematics "
                f"of q (position {p_err[k]:.3g} m, rotation {r_err[k]:.3g}; "
                f"{int(bad.sum())} rows)"]
    return []


def mineig_problems(log: Log) -> list[str]:
    """(b) on natural-law runs every pseudo-inertia eigenvalue stays positive."""
    if log.meta.get("adapter") != "nal":
        return []
    eig = log.block("mineig_")
    bad = ~(np.min(eig, axis=1) > 0.0)
    if np.any(bad):
        k = _first_bad(bad)
        return [f"{log.path.name}: row {k}: natural-law estimate left the "
                f"positive-definite cone (min eigenvalue {np.min(eig[k]):.3g})"]
    return []


def decrescent_problems(log: Log) -> list[str]:
    """(c) with exact parameters and no disturbance nu_total never rises and
    stays non-negative."""
    nu = log.column("nu_total")
    problems = []
    rise = _exceeds(np.diff(nu), NU_MAX_RISE)
    if np.any(rise):
        k = _first_bad(rise)
        problems.append(f"{log.path.name}: row {k + 1}: nu_total rose by "
                        f"{nu[k + 1] - nu[k]:.3g} in one tick (limit {NU_MAX_RISE:g})")
    low = ~(nu >= NU_FLOOR)
    if np.any(low):
        k = _first_bad(low)
        problems.append(f"{log.path.name}: row {k}: nu_total {nu[k]:.3g} is negative")
    return problems


def joint_sine_problems(log: Log, amplitude: float, omega: float) -> list[str]:
    """(d) eq_i = A sin(w t) - q_i, and |eq_i| <= 0.02 rad after t = 5 s."""
    t = log.column("t_s")
    q = log.block("q_", "_rad")
    eq = log.block("eq_", "_rad")
    expected = amplitude * np.sin(omega * t)[:, None] - q
    problems = []
    err = np.max(np.abs(eq - expected), axis=1)
    if np.any(_exceeds(err, EQ_TOL)):
        k = _first_bad(_exceeds(err, EQ_TOL))
        problems.append(f"{log.path.name}: row {k}: eq differs from A sin(w t) - q "
                        f"by {err[k]:.3g} rad")
    late = t > TRACK_AFTER_S
    if not np.any(late):
        problems.append(f"{log.path.name}: run ends before t = {TRACK_AFTER_S:g} s")
    else:
        worst = float(np.max(np.abs(eq[late])))
        if _exceeds(worst, TRACK_LIMIT_RAD):
            problems.append(f"{log.path.name}: max |eq| after {TRACK_AFTER_S:g} s is "
                            f"{worst:.4g} rad (limit {TRACK_LIMIT_RAD:g})")
    return problems


def log_problems(log: Log, robot: dict, sim: dict) -> list[str]:
    """Every check that applies to one log of a run of the sim file ``sim``.

    The checks are chosen from the sim file, which the benchmark wrote, so a
    log whose meta lines went wrong cannot skip one; only (b) reads the log's
    adapter, because a comparison run holds one log per law.
    """
    problems = tip_pose_problems(log, robot) + mineig_problems(log)
    if sim["adapter"] == "none" and sim.get("disturbance", {}).get("kind", "none") == "none":
        problems += decrescent_problems(log)
    traj = sim["trajectory"]
    if traj["kind"] == "joint_sine":
        problems += joint_sine_problems(log, traj["amplitude_rad"], traj["omega_rad_s"])
    return problems


def load_yaml(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)
