"""YAML loaders: shipped files, error reporting, manifest overrides."""
import pathlib

import numpy as np
import pytest

from conftest import MALFORMED_MANIFESTS, MALFORMED_ROBOTS, MANIFEST_TEXT, ROBOT_TEXT
from vdcnal.config import (
    ConfigError,
    builtin_config_path,
    load_manifest,
    load_robot,
    load_sim,
    resolve_config_path,
)


MINIMAL_ROBOT = """\
name: mini
joints:
  - name: only
    axis: z
    motor_inertia_kgm2: 0.01
    tip_offset_m: [0.0, 0.0, 0.2]
    link:
      mass_kg: {mass}
      com_m: [0.0, 0.0, 0.1]
      inertia_com_kgm2: [1.0e-3, 1.0e-3, 1.0e-3, 0.0, 0.0, 0.0]
"""


def test_builtin_config_path():
    assert builtin_config_path("arm7") == builtin_config_path("arm7.yaml")
    assert builtin_config_path("arm7").name == "arm7.yaml"
    with pytest.raises(ConfigError, match="shipped"):
        builtin_config_path("arm9")


def test_resolve_config_path(tmp_path):
    local = tmp_path / "robot.yaml"
    local.write_text(MINIMAL_ROBOT.format(mass=1.0))
    assert resolve_config_path(str(local)) == local
    assert resolve_config_path("robot.yaml", tmp_path) == tmp_path / "robot.yaml"
    assert resolve_config_path("arm7", tmp_path) == builtin_config_path("arm7")


def test_manifest_configs_not_shadowed_by_working_directory(tmp_path, monkeypatch):
    text = builtin_config_path("arm7").read_text()
    assert text.count("name: arm7\n") == 1
    (tmp_path / "arm7.yaml").write_text(text.replace("name: arm7\n", "name: shadowed_arm7\n"))
    monkeypatch.chdir(tmp_path)
    assert load_manifest(builtin_config_path("exo_pose_manifest")).load()[0].name == "arm7"


def test_load_shipped_robots():
    arm = load_robot(builtin_config_path("arm7"))
    assert arm.name == "arm7"
    assert arm.n == 7
    assert np.allclose(arm.gravity, [0.0, 0.0, 9.8], atol=0.0)
    assert arm.joints[0].name == "shoulder_yaw"
    assert arm.home_pose is not None
    assert np.allclose(arm.home_pose.position, [0.35, 0.0, -0.30], atol=0.0)
    rrr = load_robot(builtin_config_path("rrr3"))
    assert rrr.n == 3
    assert rrr.validate() == []


def test_parallel_axis_applied_on_load(tmp_path):
    # file stores inertia about the com; the model stores it about the origin
    path = tmp_path / "mini.yaml"
    path.write_text(MINIMAL_ROBOT.format(mass=1.0))
    model = load_robot(path)
    link = model.joints[0].link
    assert np.allclose(link.com, [0.0, 0.0, 0.1], atol=1e-15)
    c = np.array([0.0, 0.0, 0.1])
    shift = link.mass * (c @ c * np.eye(3) - np.outer(c, c))
    assert np.allclose(link.inertia, 1.0e-3 * np.eye(3) + shift, atol=1e-15)


def test_load_robot_rejects_inconsistent_link(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL_ROBOT.format(mass=-1.0))
    with pytest.raises(ConfigError, match="link 1 \\(only\\)"):
        load_robot(path)


def test_load_robot_missing_key(tmp_path):
    text = MINIMAL_ROBOT.format(mass=1.0).replace("      mass_kg: 1.0\n", "")
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="missing required key 'mass_kg'"):
        load_robot(path)


def test_load_robot_bad_axis(tmp_path):
    text = MINIMAL_ROBOT.format(mass=1.0).replace("axis: z", "axis: w")
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="axis must be"):
        load_robot(path)


def test_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_robot(path)
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_robot(path)


def test_load_shipped_sim_configs():
    for name in ("exo_pose", "exo_stability", "exo_disturbed", "rrr_compare"):
        cfg = load_sim(builtin_config_path(name))
        assert cfg.validate() == []
    assert load_sim(builtin_config_path("exo_disturbed")).disturbance.kind == "sine"
    assert load_sim(builtin_config_path("rrr_compare")).scenario == "rrr-compare"


def test_load_sim_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("scenario: exo-pose\nwarp_factor: 9\n")
    with pytest.raises(ConfigError, match="unknown keys.*warp_factor"):
        load_sim(path)


@pytest.mark.parametrize("section", ["gains", "disturbance", "trajectory", "adaptation"])
def test_load_sim_rejects_unknown_nested_keys(tmp_path, section):
    path = tmp_path / "sim.yaml"
    path.write_text(f"scenario: exo-pose\n{section}:\n  bogus: 1\n")
    with pytest.raises(ConfigError, match=f"sim.yaml:{section}: unknown keys.*bogus"):
        load_sim(path)


def test_load_sim_rejects_non_mapping_section(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("scenario: exo-pose\ngains: 5\n")
    with pytest.raises(ConfigError, match="sim.yaml:gains: must be a mapping"):
        load_sim(path)


def test_load_sim_rejects_bad_gain(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("scenario: exo-pose\ngains:\n  k_b: 0.0\n")
    with pytest.raises(ConfigError, match="k_b must be positive"):
        load_sim(path)


def test_load_sim_duration_rules(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("scenario: exo-pose\nduration_s: 0.0\n")
    assert load_sim(path).duration_s == 0.0
    path.write_text("scenario: exo-pose\nduration_s: 0.0005\ndt_s: 0.001\n")
    with pytest.raises(ConfigError, match="duration_s must be 0 or at least"):
        load_sim(path)


def test_load_shipped_manifest():
    man = load_manifest(builtin_config_path("exo_pose_manifest"))
    assert man.scenario == "exo-pose"
    assert man.repetitions == 6
    assert man.seed == 2024
    # robot/sim referenced by bare name resolve next to the manifest
    assert man.robot_path == builtin_config_path("arm7")
    model, cfg = man.load()
    assert model.n == 7
    assert cfg.repetitions == 6
    assert cfg.seed == 2024


def test_manifest_overrides_and_relative_paths(tmp_path):
    (tmp_path / "bot.yaml").write_text(MINIMAL_ROBOT.format(mass=1.0))
    (tmp_path / "sim.yaml").write_text(
        "scenario: exo-pose\nrepetitions: 4\nseed: 7\nduration_s: 1.0\n")
    man_path = tmp_path / "man.yaml"
    man_path.write_text(
        "robot: bot.yaml\nsim: sim.yaml\noutput_dir: out\n"
        "repetitions: 2\nseed: 99\n")
    man = load_manifest(man_path)
    assert man.robot_path == tmp_path / "bot.yaml"
    assert man.sim_path == tmp_path / "sim.yaml"
    _, cfg = man.load()
    assert cfg.repetitions == 2 and cfg.seed == 99

    man = load_manifest(man_path, output_override=tmp_path / "elsewhere")
    assert man.output_dir == tmp_path / "elsewhere"

    man_path.write_text(
        "robot: bot.yaml\nsim: sim.yaml\noutput_dir: out\nrepetitions: 0\n")
    with pytest.raises(ConfigError, match="repetitions must be at least 1"):
        load_manifest(man_path)


@pytest.mark.parametrize("text, message", [
    ('gains: {xi: "25"}', "sim.yaml:gains: xi must be a finite number, got '25'"),
    ("gains: {gamma: .inf}", "sim.yaml:gains: gamma must be a finite number, got inf"),
    ("gains: {k_a: .nan}", "sim.yaml:gains: k_a must be a finite number, got nan"),
    ("gains: {k_b: true}", "sim.yaml:gains: k_b must be a finite number, got True"),
])
def test_load_sim_rejects_non_numeric_and_non_finite_gains(tmp_path, text, message):
    path = tmp_path / "sim.yaml"
    path.write_text(f"scenario: exo-pose\n{text}\n")
    with pytest.raises(ConfigError) as info:
        load_sim(path)
    assert message in str(info.value)


@pytest.mark.parametrize("probe", sorted(MALFORMED_ROBOTS))
def test_load_robot_names_file_and_key(tmp_path, probe):
    edit, message = MALFORMED_ROBOTS[probe]
    path = tmp_path / "bot.yaml"
    path.write_text(ROBOT_TEXT)
    assert load_robot(path).n == 1          # the unedited text loads
    path.write_text(edit(ROBOT_TEXT))
    with pytest.raises(ConfigError) as info:
        load_robot(path)
    assert str(info.value) == f"{path.parent}/{message}"


@pytest.mark.parametrize("probe", sorted(MALFORMED_MANIFESTS))
def test_load_manifest_names_file_and_key(tmp_path, probe):
    edit, message = MALFORMED_MANIFESTS[probe]
    path = tmp_path / "man.yaml"
    path.write_text(MANIFEST_TEXT)
    assert load_manifest(path).output_dir == pathlib.Path("out")   # the unedited text loads
    path.write_text(edit(MANIFEST_TEXT))
    with pytest.raises(ConfigError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path.parent}/{message}"


@pytest.mark.parametrize("key", ["seed", "repetitions"])
@pytest.mark.parametrize("value", ["1.5", "2.7", "true", '"3"'])
def test_counts_must_be_integers(tmp_path, key, value):
    # no truncation by int(...): a fraction, a bool or a string is an error,
    # in the sim file and in the manifest alike
    sim = tmp_path / "sim.yaml"
    sim.write_text(f"scenario: exo-pose\n{key}: {value}\n")
    with pytest.raises(ConfigError, match=f"sim.yaml: {key} must be an integer, got"):
        load_sim(sim)
    (tmp_path / "bot.yaml").write_text(MINIMAL_ROBOT.format(mass=1.0))
    sim.write_text("scenario: exo-pose\n")
    man = tmp_path / "man.yaml"
    man.write_text(f"robot: bot.yaml\nsim: sim.yaml\noutput_dir: out\n{key}: {value}\n")
    with pytest.raises(ConfigError, match=f"man.yaml: {key} must be an integer, got"):
        load_manifest(man)


def test_seed_must_not_be_negative(tmp_path):
    # the run's generator takes [seed, repetition] and refuses negative entries
    sim = tmp_path / "sim.yaml"
    sim.write_text("scenario: exo-pose\nseed: -1\n")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_sim(sim)
    (tmp_path / "bot.yaml").write_text(MINIMAL_ROBOT.format(mass=1.0))
    sim.write_text("scenario: exo-pose\nseed: 3\n")
    man = tmp_path / "man.yaml"
    man.write_text("robot: bot.yaml\nsim: sim.yaml\noutput_dir: out\nseed: -2\n")
    with pytest.raises(ConfigError, match="man.yaml: seed must be >= 0"):
        load_manifest(man)
