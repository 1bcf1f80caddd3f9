"""Every function and method defined in src/vdcnal is one a run executes.

A fresh interpreter installs ``sys.setprofile`` before it imports vdcnal,
then validates every shipped config, runs every shipped scenario cut to ten
ticks with two repetitions, and reports the CSVs the runs wrote.  A function
none of that calls is code that only tests execute: it goes, or it is named
in ALLOWED with the reason it stays.
"""
import json
import os
import pathlib
import subprocess
import sys

import yaml

from vdcnal.config import builtin_config_path

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_DIR = builtin_config_path("arm7").parent

# qualified name -> why it stays although no run calls it
ALLOWED = {
    "inverse_dynamics": "bench/worker.py's tracer counts its calls",
    "axis_rotation": "bench/worker.py's tracer counts its calls",
    "CartesianQuinticReference.desired": "bench/worker.py's tracer times it",
    "JointSineReference.desired": "bench/worker.py's tracer times it",
    "NalJointAdapter.min_eig": "bench/worker.py's tracer times min_eig on every adapter",
    "Pose.rotation": "the lazy matrix of a quaternion-built pose; runs build poses "
                     "from matrices",
    "UnitQuaternion.rotation": "the matrix Pose.rotation builds",
}

# every shipped sim file and the robot it runs on
SCENARIOS = {"exo_pose": "arm7", "exo_disturbed": "arm7", "exo_stability": "arm7",
             "rrr_compare": "rrr3"}

SCRIPT = """
import contextlib, io, json, pathlib, sys, types
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
from vdcnal import cli
validate, runs = json.loads(sys.argv[1])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["validate"] + validate))
    for manifest in runs:
        codes.append(cli.main(["run", manifest]))
    codes.append(cli.main(["report"] + sorted(map(str, pathlib.Path().rglob("*.csv")))))
sys.setprofile(None)

def named(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<"):
                yield const
            yield from named(const)

ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
defined, uncalled = [], []
for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
    for c in named(compile(path.read_text(), str(path), "exec")):
        defined.append(c.co_qualname)
        if (c.co_filename, c.co_firstlineno, c.co_name) not in ran:
            uncalled.append(c.co_qualname)
print(json.dumps({"codes": codes, "defined": defined, "uncalled": uncalled}))
"""


def _cut_scenarios(tmp_path) -> list[str]:
    """One manifest per shipped scenario, ten ticks long with two repetitions."""
    manifests = []
    for sim_name, robot in SCENARIOS.items():
        sim = yaml.safe_load((CONFIG_DIR / f"{sim_name}.yaml").read_text())
        sim["duration_s"] = 10 * sim["dt_s"]
        (tmp_path / f"{sim_name}.yaml").write_text(yaml.safe_dump(sim))
        path = tmp_path / f"{sim_name}_manifest.yaml"
        path.write_text(yaml.safe_dump({
            "scenario": sim["scenario"], "robot": robot, "sim": f"{sim_name}.yaml",
            "output_dir": f"out_{sim_name}", "repetitions": 2, "seed": sim["seed"]}))
        manifests.append(path.name)
    return manifests


def test_every_function_in_src_is_run(tmp_path):
    shipped = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
    sims = {name for name in shipped
            if not {"joints", "robot"} & set(yaml.safe_load((CONFIG_DIR / f"{name}.yaml")
                                                            .read_text()))}
    assert sims == set(SCENARIOS)
    argv = json.dumps([shipped, _cut_scenarios(tmp_path)])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * (len(SCENARIOS) + 2)
    assert set(ALLOWED) <= set(result["defined"])
    assert sorted(set(result["uncalled"]) - set(ALLOWED)) == []
