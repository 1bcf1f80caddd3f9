"""Each output check passes a log the program wrote and rejects it with one
value corrupted, so no check can pass vacuously.

Run with ``PYTHONPATH=src python3 -m pytest bench`` from the repository root.
The logs come from short runs of the benchmark's own sim files.
"""
import copy
import pathlib

import numpy as np
import pytest

import checks
from vdcnal.cli import write_run_csv
from vdcnal.config import load_robot, load_sim
from vdcnal.simulation import run_scenario

BENCH = pathlib.Path(__file__).resolve().parent
CONFIGS = BENCH.parent / "src" / "vdcnal" / "configs"
SHIPPED = {"arm7_nal_reps": "exo_pose", "arm7_exact_rk4": "exo_stability",
           "rrr3_compare": "rrr_compare"}
# kind of log -> (workload sim file, robot file)
KINDS = {"nal": ("arm7_nal_reps", "arm7.yaml"), "exact": ("arm7_exact_rk4", "arm7.yaml"),
         "sine": ("rrr3_compare", "rrr3.yaml")}


def _write_log(tmp_dir, kind, duration_s, dt_s=None, repetition=0):
    workload, robot = KINDS[kind]
    cfg = load_sim(BENCH / "workloads" / f"{workload}.yaml")
    cfg.duration_s = duration_s
    if dt_s is not None:
        cfg.dt_s = dt_s
    log = run_scenario(load_robot(CONFIGS / robot), cfg, repetition=repetition)
    path = tmp_dir / f"{workload}.csv"
    write_run_csv(path, log)
    return checks.read_log(path)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("logs")
    return {
        # repetition 1 starts from a seeded perturbed configuration
        "nal": _write_log(tmp, "nal", 0.05, repetition=1),
        "exact": _write_log(tmp, "exact", 0.05),
        # a coarser step keeps the run past t = 5 s short
        "sine": _write_log(tmp, "sine", 5.05, dt_s=2.5e-3),
    }


def _inputs(kind):
    workload, robot = KINDS[kind]
    return (checks.load_yaml(CONFIGS / robot),
            checks.load_yaml(BENCH / "workloads" / f"{workload}.yaml"))


def _corrupt(log, column, row, change):
    bad = copy.deepcopy(log)
    j = bad.columns.index(column)
    bad.data[row, j] = change(bad.data[row, j])
    return bad


@pytest.mark.parametrize("kind", ["nal", "exact", "sine"])
def test_logs_from_the_program_pass(logs, kind):
    robot, sim = _inputs(kind)
    assert checks.log_problems(logs[kind], robot, sim) == []


@pytest.mark.parametrize("kind", ["nal", "sine"])
@pytest.mark.parametrize("change", [lambda v: v + 1e-6, lambda v: np.nan])
def test_tip_pose_rejects_perturbed_q(logs, kind, change):
    robot, _ = _inputs(kind)
    bad = _corrupt(logs[kind], "q_2_rad", 17, change)
    problems = checks.tip_pose_problems(bad, robot)
    assert len(problems) == 1 and "row 17" in problems[0]


def test_mineig_rejects_negative_eigenvalue(logs):
    bad = _corrupt(logs["nal"], "mineig_3", 9, lambda v: -1e-9)
    assert "row 9" in " ".join(checks.mineig_problems(bad))


def test_mineig_ignores_projection_law(logs):
    bad = _corrupt(logs["nal"], "mineig_3", 9, lambda v: -1e-9)
    bad.meta["adapter"] = "projection"
    assert checks.mineig_problems(bad) == []


def test_decrescent_rejects_raised_step(logs):
    bad = _corrupt(logs["exact"], "nu_total", 30, lambda v: v + 2e-6)
    assert "row 30" in " ".join(checks.decrescent_problems(bad))


def test_decrescent_rejects_negative_total(logs):
    nu = logs["exact"].column("nu_total")
    row = len(nu) - 1
    bad = _corrupt(logs["exact"], "nu_total", row, lambda v: -1e-9)
    assert f"row {row}" in " ".join(checks.decrescent_problems(bad))


def test_joint_sine_rejects_shifted_eq(logs):
    _, sim = _inputs("sine")
    traj = sim["trajectory"]
    bad = _corrupt(logs["sine"], "eq_2_rad", 123, lambda v: v + 1e-9)
    problems = checks.joint_sine_problems(bad, traj["amplitude_rad"], traj["omega_rad_s"])
    assert len(problems) == 1 and "row 123" in problems[0]


def test_joint_sine_rejects_late_tracking_error(logs):
    # moving q and eq together keeps eq = A sin(w t) - q, so only the limit trips
    _, sim = _inputs("sine")
    traj = sim["trajectory"]
    row = logs["sine"].data.shape[0] - 1
    bad = _corrupt(logs["sine"], "q_1_rad", row, lambda v: v - 0.05)
    bad = _corrupt(bad, "eq_1_rad", row, lambda v: v + 0.05)
    problems = checks.joint_sine_problems(bad, traj["amplitude_rad"], traj["omega_rad_s"])
    assert len(problems) == 1 and "after 5 s" in problems[0]


@pytest.mark.parametrize("workload", sorted(SHIPPED))
def test_workload_inputs_differ_from_shipped_only_in_length(workload):
    ours = checks.load_yaml(BENCH / "workloads" / f"{workload}.yaml")
    shipped = checks.load_yaml(CONFIGS / f"{SHIPPED[workload]}.yaml")
    for doc in (ours, shipped):
        del doc["duration_s"], doc["repetitions"]
    assert ours == shipped
    manifest = checks.load_yaml(BENCH / "workloads" / f"{workload}_manifest.yaml")
    assert manifest["sim"] == f"{workload}.yaml"
    assert (CONFIGS / manifest["robot"]).is_file()
