"""One benchmark workload inside a fresh interpreter.

run.py starts this file with PYTHONPATH set to the checkout's ``src/`` alone,
BLAS pinned to one thread and a clean run directory as the working
directory, then reads ``result.json`` back from that directory:

    python3 bench/worker.py MANIFEST SECONDS MODE T0

T0 is the CLOCK_MONOTONIC reading taken just before this process started;
set-up time runs from it until ``load_manifest`` returns.  MODE ``setup``
prints that time and stops there; ``0`` runs untraced rounds and ``1`` adds a
traced round.  A round is one
``vdcnal run`` of the manifest plus REPORT_REPEATS ``vdcnal report`` calls on
each CSV it wrote.  Without tracing, rounds repeat while another round still
fits in SECONDS.  With tracing, one untraced round is followed by one traced
round of the same inputs.
"""
import collections
import functools
import importlib
import json
import pathlib
import resource
import sys
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REPORT_REPEATS = 30
WINDOW_TICKS = 20
WINDOW_PERCENTILE = 1


class Tracer:
    """Spans and call counts around vdcnal's layer functions, patched from outside.

    A span records its time under (layer, enclosing layer), so a layer can be
    summed where it is called from, and a call nested in a span of its own
    layer is not counted twice.  Count-only wrappers take no time stamps.
    """

    def __init__(self):
        self.stack = []
        self.seconds = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.patched = collections.defaultdict(list)

    def _span(self, layer, counter, fn):
        stack, seconds, calls = self.stack, self.seconds, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer, parent] += time.perf_counter() - start
                calls[counter] += 1
                stack.pop()
        return span

    def _count(self, counter, fn):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)
        return count

    def function(self, module, name, layer=None, counter=None):
        """Wrap ``module.name`` in every vdcnal module that imported it.

        With no layer the wrapper only counts calls.
        """
        counter = counter or layer
        original = getattr(importlib.import_module(module), name)
        wrapper = (self._span(layer, counter, original) if layer
                   else self._count(counter, original))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] == "vdcnal" and getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self.patched[counter].append(f"{mod_name.rpartition('.')[2]}.{name}")

    def methods(self, module, name, layer):
        """Wrap method ``name`` of every class of ``module`` that defines it."""
        mod = importlib.import_module(module)
        classes = [cls for cls in vars(mod).values() if isinstance(cls, type)
                   and cls.__module__ == module and name in vars(cls)]
        if not classes:
            raise LookupError(f"no class in {module} defines {name}")
        for cls in classes:
            setattr(cls, name, self._span(layer, layer, vars(cls)[name]))
            self.patched[layer].append(f"{cls.__name__}.{name}")

    def install(self):
        self.methods("vdcnal.controller", "step", "controller.step")
        for name in ("propagate_velocities", "propagate_accelerations",
                     "propagate_forces", "joint_torques"):
            self.function("vdcnal.controller", name, "controller.sweeps")
        self.function("vdcnal.controller", "stability_diagnostics", "controller.monitor")
        for name in ("chain_poses", "clik_required_velocity", "pose_error"):
            self.function("vdcnal.kinematics", name, "kinematics")
        self.methods("vdcnal.kinematics", "desired", "kinematics")
        for name in ("update", "phi_hat", "min_eig"):
            self.methods("vdcnal.adaptation", name, f"adaptation.{name}")
        self.function("vdcnal.rigid_body", "regressor", "rigid_body.regressor")
        self.function("vdcnal.manifold", "bregman_divergence", "manifold.bregman")
        self.function("vdcnal.simulation", "forward_dynamics", "simulation.plant",
                      counter="simulation.forward_dynamics")
        self.function("vdcnal.simulation", "step_rk4", "simulation.plant",
                      counter="simulation.step_rk4")
        self.function("vdcnal.simulation", "inverse_dynamics",
                      counter="simulation.inverse_dynamics")
        self.function("vdcnal.spatial", "axis_rotation", counter="spatial.axis_rotation")
        for name in ("transform_velocity_raw", "transform_wrench_raw"):
            self.function("vdcnal.spatial", name, counter="spatial.transform")
        self.function("vdcnal.config", "load_manifest", "config.load")
        self.methods("vdcnal.config", "load", "config.load")
        self.function("vdcnal.cli", "write_run_csv", "cli.csv_write")
        self.function("vdcnal.cli", "read_run_csv", "cli.csv_read")

    def metrics(self, ticks, rows_written, rows_read) -> dict:
        """Per-layer figures of one traced round (one ``run`` call)."""
        seconds = self.seconds

        def within(layer, parent):
            return seconds.get((layer, parent), 0.0)

        def anywhere(layer):
            return sum(v for (name, _), v in seconds.items() if name == layer)

        step = "controller.step"
        in_step = sum(v for (_, parent), v in seconds.items() if parent == step)
        ms_per_tick = {
            "controller.step.self_ms": within(step, None) - in_step,
            "controller.sweeps.ms": within("controller.sweeps", step),
            "kinematics.ms": within("kinematics", step),
            "adaptation.update.ms": within("adaptation.update", step),
            "adaptation.phi_hat.ms": within("adaptation.phi_hat", step),
            "adaptation.min_eig.ms": within("adaptation.min_eig", step),
            "rigid_body.regressor.ms": within("rigid_body.regressor", step),
            "controller.monitor.ms": within("controller.monitor", None),
            "manifold.bregman.ms": anywhere("manifold.bregman"),
            "simulation.plant.ms": within("simulation.plant", None),
        }
        out = {name: (1e3 * s / ticks, "ms/tick") for name, s in ms_per_tick.items()}
        for counter in ("rigid_body.regressor", "manifold.bregman",
                        "simulation.forward_dynamics", "simulation.inverse_dynamics",
                        "spatial.axis_rotation", "spatial.transform"):
            out[f"{counter}.calls"] = (self.calls[counter] / ticks, "calls/tick")
        out["cli.csv_write.us_per_row"] = (1e6 * anywhere("cli.csv_write") / rows_written,
                                           "us/row")
        out["cli.csv_read.us_per_row"] = (1e6 * anywhere("cli.csv_read") / rows_read,
                                          "us/row")
        out["config.load.ms"] = (1e3 * within("config.load", None), "ms/run")
        return out


class StepTimer:
    """One timer pair around ``VdcController.step``, and nothing else.

    Samples are kept per controller object, that is per scenario run, so no
    window spans two runs.
    """

    def __init__(self, controller_cls):
        self.runs = []               # per run: (step start times, step durations)
        self._controller = None
        untimed = controller_cls.step

        def timed_step(controller, *args, **kwargs):
            start = time.perf_counter()
            out = untimed(controller, *args, **kwargs)
            end = time.perf_counter()
            if controller is not self._controller:
                self._controller = controller
                self.runs.append(([], []))
            starts, durations = self.runs[-1]
            starts.append(start)
            durations.append(end - start)
            return out

        controller_cls.step = timed_step

    @property
    def count(self) -> int:
        return sum(len(starts) for starts, _ in self.runs)


def window_figures(runs):
    """Ticks per second and median step time (ms) of the fast state.

    Every window of WINDOW_TICKS consecutive ticks inside one run of ``runs``
    (StepTimer.runs entries) gives a tick rate and a median step time; the
    figures are the ones that only WINDOW_PERCENTILE % of the windows beat.
    """
    spans, medians = [], []
    for starts, durations in runs:
        if len(starts) > WINDOW_TICKS:
            starts = np.asarray(starts)
            spans.append(starts[WINDOW_TICKS:] - starts[:-WINDOW_TICKS])
            medians.append(np.median(
                sliding_window_view(np.asarray(durations), WINDOW_TICKS), axis=1))
    if not spans:
        raise ValueError(f"no run has more than {WINDOW_TICKS} ticks")
    return (WINDOW_TICKS / np.percentile(np.concatenate(spans), WINDOW_PERCENTILE),
            1e3 * np.percentile(np.concatenate(medians), WINDOW_PERCENTILE))


def count_rows(path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def run_round(cli, manifest, rdir, timer) -> dict:
    first = timer.count
    start = time.perf_counter()
    run_rc = cli.main(["run", manifest, "--output-dir", str(rdir)])
    run_s = time.perf_counter() - start
    csvs = sorted(str(p) for p in rdir.glob("*.csv"))
    rows = {csv: count_rows(csv) for csv in csvs}
    reports = []                     # (rows, seconds, exit code) per report call
    for _ in range(REPORT_REPEATS):
        for csv in csvs:
            start = time.perf_counter()
            rc = cli.main(["report", csv])
            reports.append((rows[csv], time.perf_counter() - start, rc))
    return {"dir": rdir.name, "run_rc": run_rc, "run_s": run_s,
            "ticks": timer.count - first, "csvs": [pathlib.Path(c).name for c in csvs],
            "rows": sum(rows.values()), "reports": reports}


def main(argv) -> int:
    manifest, seconds, mode, t0 = argv[0], float(argv[1]), argv[2], float(argv[3])

    from vdcnal import cli
    cli.load_manifest(manifest)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    if mode == "setup":
        print(repr(setup_s))
        return 0
    trace = mode == "1"

    import vdcnal
    from vdcnal.controller import VdcController

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    if src not in pathlib.Path(vdcnal.__file__).resolve().parents:
        print(f"vdcnal imported from {vdcnal.__file__}, not from {src}", file=sys.stderr)
        return 3

    timer = StepTimer(VdcController)
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(cli, manifest, pathlib.Path(f"round_{len(rounds):03d}"),
                                timer))
        elapsed = time.perf_counter() - started
        if trace or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    untraced_runs = len(timer.runs)
    ticks_per_s, step_p50_ms = window_figures(timer.runs)
    result = {"setup_s": setup_s, "sim_ticks_per_s": ticks_per_s, "step_p50_ms": step_p50_ms,
              "step_samples": timer.count,
              "report_rows_per_s": max(rows / s for r in rounds for rows, s, _ in r["reports"]),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "rounds": rounds}

    if trace:
        tracer = Tracer()
        tracer.install()
        traced = run_round(cli, manifest, pathlib.Path(f"round_{len(rounds):03d}"), timer)
        rounds.append(traced)
        per_layer = tracer.metrics(traced["ticks"], traced["rows"],
                                   traced["rows"] * REPORT_REPEATS)
        # both rates from the fast state, so the host's speed changes cancel
        traced_rate, _ = window_figures(timer.runs[untraced_runs:])
        per_layer["trace.overhead_s"] = (
            traced["ticks"] * (1.0 / traced_rate - 1.0 / ticks_per_s), "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        result["traced_step_calls"] = tracer.calls["controller.step"]
        result["patched"] = dict(tracer.patched)

    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
