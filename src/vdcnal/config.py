"""YAML loading for robot models, simulation settings and run manifests.

Key names carry explicit units (mass_kg, com_m, tip_offset_m, ...) so the
files are self-describing.  Link inertias are written about the center of
mass in the link's own axes as [xx, yy, zz, xy, yz, xz]; the loader applies
the parallel-axis shift so the in-memory model is always about the frame
origin.  Loaders raise ConfigError with the file and the offending key.
"""
from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .controller import ControllerGains
from .kinematics import Joint, RobotModel
from .rigid_body import GRAVITY, InertialParams
from .simulation import AdaptationSpec, DisturbanceSpec, SimConfig, TrajectorySpec
from .spatial import FrameTransform, euler_xyz_to_rotation

_CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"

# libyaml's parser where PyYAML was built with it: it feeds the same resolver
# and constructor as the pure-Python loader, so the documents are equal
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """A config file failed to parse or failed validation."""


def builtin_config_path(name: str) -> pathlib.Path:
    """Path of a shipped config; accepts 'arm7' or 'arm7.yaml'."""
    stem = name if name.endswith(".yaml") else name + ".yaml"
    path = _CONFIG_DIR / stem
    if not path.exists():
        shipped = sorted(p.stem for p in _CONFIG_DIR.glob("*.yaml"))
        raise ConfigError(f"no built-in config {name!r}; shipped: {shipped}")
    return path


def resolve_config_path(name: str, relative_to: pathlib.Path | None = None) -> pathlib.Path:
    """Resolve a config reference: explicit path first, then built-in name.

    A path relative to ``relative_to`` (a manifest's directory) is tried before
    the current directory, so a same-named file there cannot shadow it.
    """
    p = pathlib.Path(name)
    if relative_to is not None and (relative_to / p).exists():
        return relative_to / p
    if p.exists():
        return p
    return builtin_config_path(name)


def load_mapping(path: pathlib.Path) -> dict:
    """The YAML mapping in ``path``; any failure to read one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    except ValueError as exc:           # e.g. an integer beyond int()'s digit limit
        raise ConfigError(f"{path}: a value cannot be read ({exc})") from exc
    except OSError as exc:              # e.g. a directory, or no permission
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return doc


def _need(node: dict, key: str, where: str):
    if key not in node:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return node[key]


def _only(node, keys, where: str) -> dict:
    """``node`` if it is a mapping with no key outside ``keys``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: must be a mapping")
    extra = set(node) - set(keys)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra, key=str)}")
    return node


def _finite(value) -> bool:
    """A YAML number (int or float, not a bool) of finite value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:               # an int beyond the float range
        return False


def _number(node, key: str, where: str) -> float:
    value = _need(node, key, where)
    if not _finite(value):
        raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")
    return float(value)


def _integer(node, key: str, default: int, where: str) -> int:
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _real(node, key: str, default: float, where: str) -> float:
    """A number, finite or not: the sim file's own checks judge its value."""
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:               # an int beyond the float range
        raise ConfigError(f"{where}: {key} must be a number in the float range, "
                          f"got an integer beyond it") from None


def _vec(node, key: str, where: str, length: int | None) -> np.ndarray:
    value = _need(node, key, where)
    if not (isinstance(value, list) and length in (None, len(value))
            and all(map(_finite, value))):
        raise ConfigError(f"{where}: {key} must be a list of {length or 'any number of'} "
                          f"finite numbers, got {value!r}")
    return np.array(value, dtype=float)


def _transform(node: dict, rot_key: str, off_key: str, where: str) -> FrameTransform:
    angles = _vec(node, rot_key, where, 3) if rot_key in node else np.zeros(3)
    offset = _vec(node, off_key, where, 3) if off_key in node else np.zeros(3)
    return FrameTransform(euler_xyz_to_rotation(*angles), offset)


_ROBOT_KEYS = ("name", "gravity_mps2", "base", "joints")
_JOINT_KEYS = ("name", "axis", "motor_inertia_kgm2", "tip_offset_m", "tip_rotation_xyz_rad",
               "link")
_LINK_KEYS = ("mass_kg", "com_m", "inertia_com_kgm2")


def load_robot(path) -> RobotModel:
    """Read a robot description file and return the validated model.

    Unknown keys are rejected at every level, and every number must be finite.
    """
    path = pathlib.Path(path)
    doc = _only(load_mapping(path), _ROBOT_KEYS, str(path))
    name = _need(doc, "name", str(path))
    if not isinstance(name, str):
        raise ConfigError(f"{path}: name must be a string, got {name!r}")
    gravity = _vec(doc, "gravity_mps2", str(path), 3) if "gravity_mps2" in doc \
        else np.asarray(GRAVITY)
    base = _transform(_only(doc.get("base", {}), ("rotation_xyz_rad", "position_m"),
                            f"{path}:base"), "rotation_xyz_rad", "position_m", f"{path}:base")

    jnodes = _need(doc, "joints", str(path))
    if not (isinstance(jnodes, list) and jnodes):
        raise ConfigError(f"{path}: joints must be a non-empty list, got {jnodes!r}")
    joints = []
    for idx, jnode in enumerate(jnodes, start=1):
        where = f"{path}:joints[{idx}]"
        jnode = _only(jnode, _JOINT_KEYS, where)
        jname = jnode.get("name", f"joint{idx}")
        if not isinstance(jname, str):
            raise ConfigError(f"{where}: name must be a string, got {jname!r}")
        axis = _need(jnode, "axis", where)
        if axis not in ("x", "y", "z"):
            raise ConfigError(f"{where}: axis must be 'x', 'y' or 'z'")
        lnode = _only(_need(jnode, "link", where), _LINK_KEYS, f"{where}.link")
        mass = _number(lnode, "mass_kg", f"{where}.link")
        com = _vec(lnode, "com_m", f"{where}.link", 3)
        xx, yy, zz, xy, yz, xz = _vec(lnode, "inertia_com_kgm2", f"{where}.link", 6)
        inertia_com = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
        motor = _number(jnode, "motor_inertia_kgm2", where)
        tip = _transform(jnode, "tip_rotation_xyz_rad", "tip_offset_m", where)
        try:
            joints.append(Joint(name=jname, axis=axis, motor_inertia=motor, tip=tip,
                                link=InertialParams.from_com(mass, com, inertia_com)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    model = RobotModel(name=name, joints=tuple(joints), base=base, gravity=gravity)
    problems = model.validate()
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    return model


def _known_keys(spec, node, where: str) -> dict:
    """``node`` as keyword arguments of dataclass ``spec``; other keys are rejected."""
    return _only(node, [f.name for f in fields(spec)], where)


def load_sim(path) -> SimConfig:
    """Read a simulation settings file; unknown keys are rejected at every level."""
    path = pathlib.Path(path)
    doc = _known_keys(SimConfig, load_mapping(path), str(path))

    def section(key, spec) -> dict:
        node = _known_keys(spec, doc.get(key, {}), f"{path}:{key}")
        for name, value in node.items():    # a number wherever the spec holds a float
            if isinstance(getattr(spec, name), float) and not _finite(value):
                raise ConfigError(f"{path}:{key}: {name} must be a finite number, "
                                  f"got {value!r}")
        return node

    gains = ControllerGains(**section("gains", ControllerGains))
    disturbance = DisturbanceSpec(**section("disturbance", DisturbanceSpec))
    tnode = dict(section("trajectory", TrajectorySpec))
    for key in ("target_position_m", "target_euler_xyz_rad"):
        if key in tnode:
            tnode[key] = tuple(_vec(tnode, key, f"{path}:trajectory", 3).tolist())
    trajectory = TrajectorySpec(**tnode)
    adaptation = AdaptationSpec(**section("adaptation", AdaptationSpec))

    cfg = SimConfig(
        scenario=doc.get("scenario", "exo-pose"),
        dt_s=_real(doc, "dt_s", 1e-3, str(path)),
        duration_s=_real(doc, "duration_s", 6.0, str(path)),
        integrator=doc.get("integrator", "semi_implicit"),
        adapter=doc.get("adapter", "nal"),
        seed=_integer(doc, "seed", 0, str(path)),
        repetitions=_integer(doc, "repetitions", 1, str(path)),
        transient_cutoff_s=_real(doc, "transient_cutoff_s", 2.0, str(path)),
        initial_q_rad=(tuple(_vec(doc, "initial_q_rad", str(path), None).tolist())
                       if doc.get("initial_q_rad") is not None else None),
        initial_q_perturb_rad=_real(doc, "initial_q_perturb_rad", 0.1, str(path)),
        joint_tracking_gain=(_real(doc, "joint_tracking_gain", None, str(path))
                             if doc.get("joint_tracking_gain") is not None else None),
        gains=gains, disturbance=disturbance, trajectory=trajectory,
        adaptation=adaptation)
    problems = cfg.validate()
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    return cfg


@dataclass(frozen=True)
class ExperimentManifest:
    """Which robot, which settings, where the artifacts go; loaded once."""

    robot_path: pathlib.Path
    sim_path: pathlib.Path
    output_dir: pathlib.Path
    model: RobotModel
    cfg: SimConfig

    def load(self) -> tuple[RobotModel, SimConfig]:
        """The robot and the sim settings, with the manifest's overrides applied."""
        return self.model, self.cfg


_MANIFEST_KEYS = ("scenario", "robot", "sim", "output_dir", "repetitions", "seed")


def load_manifest(path, output_override=None) -> ExperimentManifest:
    """Read a run manifest and the two files it names, each once.

    Config paths resolve relative to the manifest; where the manifest and the
    sim file overlap (scenario, repetitions, seed) the manifest wins.  Every
    file is validated here, before any run starts.
    """
    path = pathlib.Path(path)
    doc = _only(load_mapping(path), _MANIFEST_KEYS, str(path))
    here = path.parent
    sim_path = resolve_config_path(str(_need(doc, "sim", str(path))), here)
    robot_path = resolve_config_path(str(_need(doc, "robot", str(path))), here)
    output_dir = output_override
    if output_dir is None:
        output_dir = _need(doc, "output_dir", str(path))
        if not isinstance(output_dir, str):
            raise ConfigError(f"{path}: output_dir must be a string, got {output_dir!r}")
        if not output_dir:
            raise ConfigError(f"{path}: output_dir must not be empty")
    elif not output_dir:
        # an empty path is the working directory, which a run would litter
        raise ConfigError("--output-dir must not be empty")
    output_dir = pathlib.Path(output_dir)
    cfg = load_sim(sim_path)
    cfg.scenario = doc.get("scenario", cfg.scenario)
    cfg.repetitions = _integer(doc, "repetitions", cfg.repetitions, str(path))
    cfg.seed = _integer(doc, "seed", cfg.seed, str(path))
    if cfg.repetitions < 1:
        raise ConfigError(f"{path}: repetitions must be at least 1")
    if cfg.seed < 0:
        raise ConfigError(f"{path}: seed must be >= 0")
    model = load_robot(robot_path)
    problems = cfg.validate(model)
    if problems:
        raise ConfigError(f"{sim_path}: " + "; ".join(problems))
    return ExperimentManifest(robot_path, sim_path, output_dir, model, cfg)
