"""Same-process paired timing of the control tick of two vdcnal source trees.

    python3 tools/paired_tick.py BEFORE_SRC AFTER_SRC MANIFEST

BEFORE_SRC and AFTER_SRC are directories that each hold a ``vdcnal`` package
(for instance a ``src/`` of another checkout and this one's).  Both are
imported into this one process under the names ``vdcnal_before`` and
``vdcnal_after``, so neither shadows the other.  MANIFEST is a path or a
built-in manifest name; every repetition it asks for is run with
``run_scenario`` at the sim file's own duration, and the two trees take
turns for ``PAIRS`` rounds each (the ``before`` tree first in even pairs), so
a change in the host's speed hits both sides alike.

Each ``VdcController.step`` call is timed, and the figures are the
benchmark's fast-state statistic (``window_figures`` in ``bench/worker.py``,
imported from there): ``sim_ticks_per_s`` and ``control_step_p50_ms``.  The
third figure, ``round_wall_s``, is the wall time of the whole round of
``run_scenario`` calls, so per-run set-up (building the controller, its
adapters and its reference table) counts too, and work moved out of the tick
into set-up cannot pass for a gain.  One line per pair and side is printed,
then the medians over the pairs, the number of pairs the ``after`` tree won
on each figure, and the largest
drift between the two trees' logs and summaries, entry by entry as
|a - b| / (1 + |b|) with b the ``before`` value, the form the test suite's
tolerances take, with the column or summary figure where it occurs.

Run it with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``), as the
benchmark does.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from worker import window_figures  # noqa: E402  (the benchmark's own statistic)

PAIRS = 5


def load_tree(src: pathlib.Path, alias: str):
    """Import ``src/vdcnal`` as the package ``alias``; returns its simulation,
    config and controller modules."""
    pkg = pathlib.Path(src).resolve() / "vdcnal"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return (importlib.import_module(f"{alias}.simulation"),
            importlib.import_module(f"{alias}.config"),
            importlib.import_module(f"{alias}.controller"))


class Side:
    """One source tree: its loaded manifest and the step timer around its controller."""

    def __init__(self, name: str, src: pathlib.Path, manifest: str):
        self.name = name
        self.simulation, config, controller = load_tree(src, f"vdcnal_{name}")
        loaded = config.load_manifest(config.resolve_config_path(manifest))
        self.model, self.cfg = loaded.load()
        self.adapters = (("nal", "projection") if loaded.scenario == "rrr-compare"
                         else (self.cfg.adapter,))
        self.runs = []
        untimed = controller.VdcController.step
        runs = self.runs

        def timed_step(ctl, *args, **kwargs):
            start = time.perf_counter()
            out = untimed(ctl, *args, **kwargs)
            starts, durations = runs[-1]
            starts.append(start)
            durations.append(time.perf_counter() - start)
            return out

        controller.VdcController.step = timed_step

    def round(self) -> tuple[list, tuple[float, float, float]]:
        """All runs of the manifest once; returns the logs and the round's figures
        (tick rate, step time, the round's wall time)."""
        self.runs.clear()
        logs = []
        started = time.perf_counter()
        for adapter in self.adapters:
            for rep in range(self.cfg.repetitions):
                self.runs.append(([], []))
                logs.append(self.simulation.run_scenario(self.model, self.cfg, repetition=rep,
                                                         adapter=adapter))
        wall_s = time.perf_counter() - started
        return logs, (*window_figures(self.runs), wall_s)


def drift(before_logs, after_logs) -> tuple[tuple, tuple]:
    """Largest |a - b| / (1 + |b|) over the logs, and over the summaries' floats,
    each as (drift, column or figure name)."""
    logged = summary = (0.0, None)
    for a, b in zip(after_logs, before_logs):
        rel = np.max(np.abs(a.data - b.data) / (1.0 + np.abs(b.data)), axis=0, initial=0.0)
        col = int(np.argmax(rel))
        logged = max(logged, (float(rel[col]), b.columns[col]), key=lambda d: d[0])
        for key, value in b.summary.items():
            if isinstance(value, float):
                summary = max(summary, (abs(a.summary[key] - value) / (1.0 + abs(value)), key),
                              key=lambda d: d[0])
    return logged, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=pathlib.Path)
    ap.add_argument("after", type=pathlib.Path)
    ap.add_argument("manifest")
    args = ap.parse_args(argv)

    sides = {name: Side(name, src, args.manifest)
             for name, src in (("before", args.before), ("after", args.after))}
    figures = {name: [] for name in sides}
    worst = ((0.0, None), (0.0, None))
    for pair in range(PAIRS):
        logs = {}
        for name in (("before", "after") if pair % 2 == 0 else ("after", "before")):
            logs[name], (rate, step_ms, wall_s) = sides[name].round()
            figures[name].append((rate, step_ms, wall_s))
            print(f"pair {pair} {name:6s} sim_ticks_per_s {rate:8.1f} "
                  f"control_step_p50_ms {step_ms:.4f} round_wall_s {wall_s:.4f}", flush=True)
        worst = tuple(max(w, d, key=lambda x: x[0])
                      for w, d in zip(worst, drift(logs["before"], logs["after"])))

    result = {"manifest": args.manifest, "pairs": PAIRS}
    pairs = list(zip(figures["after"], figures["before"]))
    for k, (figure, higher) in enumerate((("sim_ticks_per_s", True),
                                          ("control_step_p50_ms", False),
                                          ("round_wall_s", False))):
        result[figure] = {
            **{name: statistics.median(f[k] for f in figures[name]) for name in sides},
            "after_won": sum(bool(a[k] > b[k] if higher else a[k] < b[k]) for a, b in pairs)}
    result["max_logged_rel_drift"] = list(worst[0])
    result["max_summary_rel_drift"] = list(worst[1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
