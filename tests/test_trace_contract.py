"""The benchmark's tracer still finds every function and method it wraps.

bench/worker.py patches vdcnal's layer functions by name from outside the
package; a rename in src/ would leave a counter with nothing patched and its
per-layer figure silently at zero.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

COUNTERS = (
    "controller.step", "controller.sweeps", "controller.monitor", "kinematics",
    "adaptation.update", "adaptation.phi_hat", "adaptation.min_eig",
    "rigid_body.regressor", "manifold.bregman", "simulation.forward_dynamics",
    "simulation.step_rk4", "simulation.inverse_dynamics", "spatial.axis_rotation",
    "spatial.transform", "config.load", "cli.csv_write", "cli.csv_read",
)

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
from vdcnal import cli
from worker import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.patched))
"""


def test_tracer_patches_every_counter():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    patched = json.loads(proc.stdout.splitlines()[-1])
    assert {name for name in COUNTERS if not patched.get(name)} == set()
    # both adapter kinds answer the per-law methods the tracer times
    for method in ("update", "phi_hat", "min_eig"):
        wrapped = patched[f"adaptation.{method}"]
        assert {"NalLinkAdapter", "NalJointAdapter", "ProjectionAdapter",
                "FrozenAdapter"} <= {name.split(".")[0] for name in wrapped}
