"""Command-line entry point: validate configs, run scenarios, audit logs.

Three subcommands:

    vdcnal validate <paths...>   schema + physics gate on config files
    vdcnal run <manifest>        execute a scenario, write CSVs + summary
    vdcnal report <csvs...>      recompute RMSEs, cross-check stored summary

Run directories are self-describing: the manifest and both config files are
snapshotted under <output_dir>/config, and re-running from that snapshot
reproduces every CSV byte for byte (floats are written with full round-trip
precision; wall-clock timing stays out of the CSVs for that reason).  A
repetition that diverges is named on stderr and under its law's ``failed``
key in summary.yaml; the other repetitions and laws still run.

``report`` reads a CSV's data block in one NumPy call and checks that every
row is as wide as the header.  All YAML (configs, the CSV meta lines,
summary.yaml) is parsed with PyYAML's libyaml loader when PyYAML was built
with it, and with its pure-Python loader otherwise; both give the same
documents.
"""
from __future__ import annotations

import argparse
import pathlib
import shutil
import sys

import numpy as np
import yaml

from .config import (YAML_LOADER, ConfigError, ExperimentManifest, load_manifest,
                     load_mapping, load_robot, load_sim, resolve_config_path)
from .simulation import RunLog, run_scenario, summarize, tuning_burden

# recorded for context next to exo-pose results: operator-in-the-loop
# hardware trials of this controller class; not comparable to simulation
_HARDWARE_CONTEXT = ("operator-in-the-loop hardware trials of this controller "
                     "class report position RMSE 11.3 +/- 1.0 mm and orientation "
                     "RMSE 1.06 +/- 0.25 deg; those runs include human "
                     "interaction forces and are not directly comparable to "
                     "these simulation numbers")

_SUMMARY_NAME = "summary.yaml"
_META_KEYS = ("scenario", "model", "adapter", "repetition", "seed", "dt_s",
              "duration_s", "integrator", "mode", "transient_cutoff_s",
              "disturbance", "initial_q_rad")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_str(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def write_run_csv(path: pathlib.Path, log: RunLog) -> None:
    """Write ``log`` as ``# key: value`` meta lines, a header row and one row per tick.

    Every float is written as ``%.17g``, which reads back as the same float64
    (nan, inf and -0 included); each row is formatted by one ``%`` call.
    """
    lines = [f"# {key}: {_meta_str(log.meta[key])}" for key in _META_KEYS]
    lines.append(",".join(log.columns))
    row = ",".join(["%.17g"] * log.data.shape[1])
    lines.extend(row % tuple(values) for values in log.data.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_run_csv(path) -> RunLog:
    """The RunLog in a CSV that ``write_run_csv`` wrote.

    Meta values are read as YAML.  The data block is parsed by one
    ``np.loadtxt`` call; a cell that is not a float (an empty one, or a line
    starting with '#'), a ragged row, or rows narrower or wider than the
    header are a ConfigError naming the file.
    """
    path = pathlib.Path(path)
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, sep, val = lines[i][1:].partition(":")
        if not sep:
            raise ConfigError(f"{path}: malformed meta line {lines[i]!r}")
        try:
            meta[key.strip()] = yaml.load(val.strip(), Loader=YAML_LOADER)
        except (ValueError, yaml.YAMLError) as exc:
            raise ConfigError(f"{path}: malformed meta line {lines[i]!r} ({exc})") from exc
        i += 1
    if i >= len(lines) or not lines[i]:
        raise ConfigError(f"{path}: missing header row")
    columns = lines[i].split(",")
    body = lines[i + 1:]
    if not any(body):                   # loadtxt warns on a block with no rows
        data = np.empty((0, len(columns)))
    else:
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed data row ({exc})") from exc
        if data.shape[1] != len(columns):
            raise ConfigError(f"{path}: the header has {len(columns)} columns but "
                              f"the data rows have {data.shape[1]}")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ConfigError(f"{path}: meta block lacks key {missing[0]!r}")
    if not isinstance(meta["initial_q_rad"], list):
        raise ConfigError(f"{path}: meta initial_q_rad must be a list of joint angles")
    return RunLog(columns, data, meta, {})


# --- validate ----------------------------------------------------------------

def _classify(doc: dict) -> str:
    if "joints" in doc:
        return "robot"
    if {"robot", "sim", "output_dir"} & set(doc):     # keys only a manifest has
        return "manifest"
    return "sim"


def cmd_validate(paths) -> int:
    failures = 0
    for name in paths:
        try:
            path = resolve_config_path(name)
            kind = _classify(load_mapping(path))
            if kind == "robot":
                model = load_robot(path)
                print(f"{name}: ok (robot {model.name!r}, {model.n} joints)")
            elif kind == "manifest":
                cfg = load_manifest(path).cfg
                print(f"{name}: ok (manifest, scenario {cfg.scenario!r}, "
                      f"{cfg.repetitions} repetitions)")
            else:
                cfg = load_sim(path)
                print(f"{name}: ok (sim, scenario {cfg.scenario!r}, "
                      f"dt {cfg.dt_s:.12g} s, {cfg.duration_s:.12g} s)")
        except (OSError, ValueError) as exc:        # a ConfigError is a ValueError
            print(f"{name}: FAIL {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


# --- run ----------------------------------------------------------------------

def _snapshot_configs(manifest: ExperimentManifest, outdir: pathlib.Path) -> None:
    cfg = manifest.cfg
    snapdir = outdir / "config"
    snapdir.mkdir(parents=True, exist_ok=True)
    robot_copy = snapdir / manifest.robot_path.name
    sim_copy = snapdir / manifest.sim_path.name
    shutil.copyfile(manifest.robot_path, robot_copy)
    shutil.copyfile(manifest.sim_path, sim_copy)
    snap = {"scenario": cfg.scenario, "robot": robot_copy.name,
            "sim": sim_copy.name, "output_dir": str(outdir),
            "repetitions": cfg.repetitions, "seed": cfg.seed}
    with open(snapdir / "manifest.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(snap, fh, sort_keys=False)


def _mean_std(values) -> dict:
    values = [float(v) for v in values]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"mean": mean, "std": std}


def _aggregate(reps: list[dict]) -> dict:
    if not reps:
        return {}
    out = {}
    numeric = [k for k in reps[0]
               if k.startswith(("rmse_", "max_", "min_")) and
               isinstance(reps[0][k], (int, float))]
    for key in numeric:
        out[key] = _mean_std([r[key] for r in reps])
    return out


def _slug(text: str) -> str:
    return text.replace("-", "_")


def cmd_run(manifest_path, output_override=None) -> int:
    manifest = load_manifest(manifest_path, output_override)
    model, cfg = manifest.load()
    outdir = manifest.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    _snapshot_configs(manifest, outdir)

    adapters = ("nal", "projection") if cfg.scenario == "rrr-compare" \
        else (cfg.adapter,)
    results = {}
    timing = {}
    for adapter in adapters:
        reps, failed = [], []
        for rep in range(cfg.repetitions):
            try:
                log = run_scenario(model, cfg, repetition=rep, adapter=adapter)
            except FloatingPointError as exc:
                print(f"{adapter} rep {rep}: FAIL {exc}", file=sys.stderr)
                failed.append({"repetition": rep, "error": str(exc)})
                continue
            csv_path = outdir / f"{_slug(cfg.scenario)}_{adapter}_rep{rep}.csv"
            write_run_csv(csv_path, log)
            reps.append(log.summary)
            timing[f"{adapter}_rep{rep}_s"] = round(log.meta["wall_time_s"], 3)
            stats = {k: v for k, v in log.summary.items()
                     if isinstance(v, float)}
            line = ", ".join(f"{k} {v:.12g}" for k, v in sorted(stats.items()))
            print(f"{adapter} rep {rep}: {line}")
        results[adapter] = {"repetitions": reps, "aggregate": _aggregate(reps)}
        if failed:
            results[adapter]["failed"] = failed

    summary = {
        "scenario": cfg.scenario,
        "model": model.name,
        "joints": model.n,
        "repetitions": cfg.repetitions,
        "seed": cfg.seed,
        "adapters": {a: results[a] for a in adapters},
        "tuning_burden": {
            "joints": model.n,
            "natural_law": tuning_burden(model, "nal"),
            "projection_law": tuning_burden(model, "projection"),
            "note": (f"for this {model.n}-joint chain the projection law needs "
                     f"{13 * model.n} adaptation gains and {26 * model.n} upper "
                     f"and lower bounds; the natural law needs one gain for all "
                     f"links plus one for the joint drives"),
        },
        "timing": timing,
    }
    if cfg.scenario == "exo-pose":
        summary["hardware_context"] = _HARDWARE_CONTEXT
    with open(outdir / _SUMMARY_NAME, "w", encoding="utf-8") as fh:
        yaml.safe_dump(summary, fh, sort_keys=False, width=100)

    for adapter in adapters:
        agg = results[adapter]["aggregate"]
        line = ", ".join(f"{k} {v['mean']:.12g} +/- {v['std']:.12g}"
                         for k, v in sorted(agg.items()))
        print(f"{adapter} aggregate: {line}")
    print(f"wrote {outdir}/{_SUMMARY_NAME}")
    return 1 if any("failed" in r for r in results.values()) else 0


# --- report --------------------------------------------------------------------

def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def cmd_report(log_paths) -> int:
    if not log_paths:
        print("report: no input logs given", file=sys.stderr)
        return 2
    failures = 0
    for name in log_paths:
        path = pathlib.Path(name)
        try:
            log = read_run_csv(path)
            recomputed = summarize(log)
        except (OSError, ValueError) as exc:        # a ConfigError is a ValueError
            print(f"{name}: FAIL {exc}", file=sys.stderr)
            failures += 1
            continue
        stats = {k: v for k, v in recomputed.items()
                 if isinstance(v, float) or k.startswith("ticks_")}
        line = ", ".join(f"{k} {v:.12g}" for k, v in sorted(stats.items()))
        print(f"{name}: {line}")

        summary_path = path.parent / _SUMMARY_NAME
        if not summary_path.exists():
            print(f"{name}: FAIL no {_SUMMARY_NAME} next to the log", file=sys.stderr)
            failures += 1
            continue
        try:
            stored_doc = load_mapping(summary_path)
        except ConfigError as exc:
            print(f"{name}: FAIL {exc}", file=sys.stderr)
            failures += 1
            continue
        try:
            reps = stored_doc["adapters"][log.meta["adapter"]]["repetitions"]
            stored = next(r for r in reps
                          if r["repetition"] == log.meta["repetition"])
        except (KeyError, StopIteration, TypeError):  # TypeError: a level is no mapping
            print(f"{name}: FAIL {summary_path} has no entry for adapter "
                  f"{log.meta['adapter']!r} repetition {log.meta['repetition']}",
                  file=sys.stderr)
            failures += 1
            continue
        for key, value in stats.items():
            if not isinstance(stored.get(key), (int, float)):
                print(f"{name}: FAIL {summary_path} has no number for {key!r}",
                      file=sys.stderr)
                failures += 1
            elif not (_close(value, float(stored[key])) if isinstance(value, float)
                      else value == stored[key]):     # counts compare exactly
                print(f"{name}: MISMATCH {key}: recomputed {value:.12g} vs "
                      f"stored {float(stored[key]):.12g}", file=sys.stderr)
                failures += 1
    return 1 if failures else 0


# --- entry ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vdcnal",
        description="Decentralized adaptive-control scenarios: validate configs, "
                    "run simulations, audit run logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check config files (schema, "
                           "physical consistency, gain positivity)")
    p_val.add_argument("paths", nargs="+",
                       help="robot/sim/manifest YAML files or built-in names")

    p_run = sub.add_parser("run", help="execute a scenario from a manifest")
    p_run.add_argument("manifest", help="manifest YAML file or built-in name "
                       "(e.g. exo_pose_manifest)")
    p_run.add_argument("--output-dir", default=None,
                       help="override the manifest's output directory")

    p_rep = sub.add_parser("report", help="recompute error statistics from "
                           "run CSVs and cross-check the stored summary")
    p_rep.add_argument("logs", nargs="*", help="run CSV files")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.paths)
        if args.command == "run":
            return cmd_run(resolve_config_path(args.manifest), args.output_dir)
        return cmd_report(args.logs)
    except (ConfigError, FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
