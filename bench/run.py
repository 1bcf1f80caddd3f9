"""Benchmark of ``vdcnal run`` / ``vdcnal report`` on three workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (bench/worker.py) that imports
vdcnal from this checkout's src/ only, with BLAS pinned to one thread, in a
clean run directory under bench/out/.  This process never imports vdcnal:
after the worker ends it checks every CSV the worker wrote with the
independent checks in bench/checks.py, then prints the metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is nonzero when a check fails.
See bench/README.md for the workloads and what each metric means.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import checks

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("arm7_nal_reps", "arm7_exact_rk4", "rrr3_compare")
# worker time allowed beyond --seconds: set-up, the round that ends past
# --seconds, and the traced round
SLACK_S = 120.0
# cold set-ups timed after the worker ends, besides the worker's own, and the
# pause before each: the machine's slow phases last seconds, so spacing the
# samples lets the fastest of them see the fast state
SETUP_PROBES = 4
SETUP_GAP_S = 0.5


def materialize(workload: str, seed: int, workdir: pathlib.Path) -> pathlib.Path:
    """Copy the workload's manifest (with the run's seed) and sim file into workdir."""
    manifest = checks.load_yaml(BENCH / "workloads" / f"{workload}_manifest.yaml")
    manifest["seed"] = seed
    shutil.copyfile(BENCH / "workloads" / manifest["sim"], workdir / manifest["sim"])
    path = workdir / f"{workload}_manifest.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)          # JSON is YAML
    return path


def _worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def cold_setup(manifest: pathlib.Path, workdir: pathlib.Path) -> float:
    """Seconds from starting a fresh worker until its load_manifest returns."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), manifest.name, "0", "setup", repr(t0)],
        cwd=workdir, env=_worker_env(), stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=SLACK_S, check=True)
    return float(done.stdout)


def run_worker(manifest: pathlib.Path, workdir: pathlib.Path, seconds: float,
               trace: bool) -> dict:
    with open(workdir / "worker.log", "w", encoding="utf-8") as log:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), manifest.name, repr(seconds),
             "1" if trace else "0", repr(t0)],
            cwd=workdir, env=_worker_env(), stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=seconds + SLACK_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        tail = (workdir / "worker.log").read_text(encoding="utf-8")[-3000:]
        raise RuntimeError(f"worker exited with code {rc}:\n{tail}")
    with open(workdir / "result.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_rounds(workload: str, workdir: pathlib.Path, result: dict):
    """Run every output check; returns (problems, attempted, failed, rows per round)."""
    manifest = checks.load_yaml(BENCH / "workloads" / f"{workload}_manifest.yaml")
    sim = checks.load_yaml(BENCH / "workloads" / manifest["sim"])
    robot = checks.load_yaml(ROOT / "src" / "vdcnal" / "configs" / manifest["robot"])
    laws = {"nal", "projection"} if manifest["scenario"] == "rrr-compare" else {sim["adapter"]}
    expected_logs = len(laws) * manifest["repetitions"]
    ticks_per_log = int(round(sim["duration_s"] / sim["dt_s"]))

    problems, rows = [], []
    attempted = failed = 0
    for rnd in result["rounds"]:
        where = rnd["dir"]
        attempted += expected_logs
        if rnd["run_rc"] != 0:
            failed += expected_logs - len(rnd["csvs"])
        elif len(rnd["csvs"]) != expected_logs:
            problems.append(f"{where}: run wrote {len(rnd['csvs'])} logs, "
                            f"expected {expected_logs}")
        failing = sorted({rc for _, _, rc in rnd["reports"] if rc != 0})
        if failing:
            problems.append(f"{where}: report exited with {failing}")  # (e)
        n = 0
        seen = set()
        for name in rnd["csvs"]:
            log = checks.read_log(workdir / where / name)
            n += log.data.shape[0]
            seen.add(log.meta.get("adapter"))
            if rnd["run_rc"] == 0 and log.data.shape[0] != ticks_per_log:
                problems.append(f"{where}/{name}: {log.data.shape[0]} rows, "
                                f"expected {ticks_per_log}")
            problems += [f"{where}/{p}" for p in checks.log_problems(log, robot, sim)]
        if rnd["run_rc"] == 0 and seen != laws:
            problems.append(f"{where}: logs of laws {sorted(map(str, seen))}, "
                            f"expected {sorted(laws)}")
        if n != rnd["ticks"]:
            problems.append(f"{where}: {rnd['ticks']} VdcController.step calls but "
                            f"{n} CSV rows")
        rows.append(n)
    return problems, attempted, failed, rows


def end_to_end(result: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "sim_ticks_per_s": (result["sim_ticks_per_s"], "ticks/s"),
        "control_step_p50_ms": (result["step_p50_ms"], "ms"),
        "report_rows_per_s": (result["report_rows_per_s"], "rows/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=out))
    manifest = materialize(workload, seed, workdir)
    result = run_worker(manifest, workdir, seconds, trace)
    problems, attempted, failed, rows = check_rounds(workload, workdir, result)
    if trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["per_layer"].items()}
        if result["traced_step_calls"] != rows[-1]:
            problems.append(f"traced round: {result['traced_step_calls']} traced "
                            f"VdcController.step calls but {rows[-1]} CSV rows")
    else:
        setups = [result["setup_s"]]
        for _ in range(SETUP_PROBES):
            time.sleep(SETUP_GAP_S)
            setups.append(cold_setup(manifest, workdir))
        metrics = end_to_end(result, min(setups))
    for problem in problems:
        print(f"{workload}: CHECK FAILED {problem}", file=sys.stderr)
    if problems:
        print(f"{workload}: logs kept in {workdir}", file=sys.stderr)
    else:
        shutil.rmtree(workdir)
    print(f"{workload} (seed {seed}, {len(result['rounds'])} rounds, "
          f"{result['step_samples']} control steps timed):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for counter, where in result.get("patched", {}).items():
        print(f"  traced {counter} in {', '.join(where)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vdcnal" / "__init__.py").is_file():
        print(f"no vdcnal package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
