"""Command-line interface: validate, run, report, and the CSV round trip."""
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import MALFORMED_MANIFESTS, MALFORMED_ROBOTS, MANIFEST_TEXT, ROBOT_TEXT
from vdcnal.cli import _META_KEYS, main, read_run_csv, write_run_csv
from vdcnal.config import YAML_LOADER, ConfigError, builtin_config_path
from vdcnal.simulation import RunLog

CONFIG_DIR = builtin_config_path("arm7").parent
WORKLOAD_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads"


def _short_sim(tmp_path, name, duration):
    """Copy a shipped sim config with the duration swapped out."""
    text = (CONFIG_DIR / f"{name}.yaml").read_text()
    out = tmp_path / f"{name}.yaml"
    lines = [f"duration_s: {duration}" if ln.startswith("duration_s:") else ln
             for ln in text.splitlines()]
    out.write_text("\n".join(lines) + "\n")
    return out


def _manifest(tmp_path, scenario, robot, sim_path, reps, seed):
    path = tmp_path / "manifest.yaml"
    path.write_text(
        f"scenario: {scenario}\nrobot: {robot}\nsim: {sim_path.name}\n"
        f"output_dir: {tmp_path / 'out'}\nrepetitions: {reps}\nseed: {seed}\n")
    return path


def _diverging_rrr_manifest(tmp_path, duration):
    """rrr_compare with gamma = 1e-4: the first natural-law step overflows its
    exponential, and the projection law does not use gamma."""
    sim = _short_sim(tmp_path, "rrr_compare", duration)
    text = sim.read_text()
    assert text.count("  gamma: 10.0\n") == 1
    sim.write_text(text.replace("  gamma: 10.0\n", "  gamma: 1.0e-4\n"))
    return _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=7)


def test_validate_shipped_configs(capsys):
    assert main(["validate", "arm7", "rrr3", "exo_pose",
                 "exo_pose_manifest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 4
    assert "robot 'arm7'" in out
    assert "7 joints" in out


def test_validate_rejects_bad_robot(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("""\
name: bad
joints:
  - name: heavy
    axis: z
    motor_inertia_kgm2: 0.01
    tip_offset_m: [0.0, 0.0, 0.2]
    link:
      mass_kg: -2.0
      com_m: [0.0, 0.0, 0.1]
      inertia_com_kgm2: [1.0e-3, 1.0e-3, 1.0e-3, 0.0, 0.0, 0.0]
""")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "link 1 (heavy)" in err


def test_validate_rejects_zero_gain(tmp_path, capsys):
    path = tmp_path / "sim.yaml"
    path.write_text("scenario: exo-pose\ngains:\n  k_b: 0.0\n")
    assert main(["validate", str(path)]) == 1
    assert "k_b must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["gains", "disturbance", "trajectory", "adaptation"])
def test_validate_rejects_unknown_nested_key(tmp_path, capsys, section):
    path = tmp_path / "sim.yaml"
    path.write_text(f"scenario: exo-pose\n{section}:\n  bogus: 1\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and f"{section}: unknown keys ['bogus']" in err
    assert "Traceback" not in err


def test_run_parses_each_config_once(tmp_path, monkeypatch):
    import vdcnal.config as config
    calls = {"load_robot": 0, "load_sim": 0}
    for name in calls:
        def counted(*args, _load=getattr(config, name), _name=name):
            calls[_name] += 1
            return _load(*args)
        monkeypatch.setattr(config, name, counted)
    sim = _short_sim(tmp_path, "rrr_compare", 0.01)
    man = _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=7)
    assert main(["run", str(man)]) == 0
    assert calls == {"load_robot": 1, "load_sim": 1}


def test_validate_entry_point():
    # everything else drives main() in process; this checks the wiring
    proc = subprocess.run([sys.executable, "-m", "vdcnal", "validate", "arm7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


@pytest.fixture(scope="module")
def pose_run(tmp_path_factory):
    """One tiny exo-pose run shared by the run/report/round-trip tests."""
    tmp_path = tmp_path_factory.mktemp("pose")
    sim = _short_sim(tmp_path, "exo_pose", 0.05)
    man = _manifest(tmp_path, "exo-pose", "arm7.yaml", sim, reps=2, seed=11)
    assert main(["run", str(man)]) == 0
    return tmp_path / "out"


def test_run_writes_artifacts(pose_run):
    csvs = sorted(p.name for p in pose_run.glob("*.csv"))
    assert csvs == ["exo_pose_nal_rep0.csv", "exo_pose_nal_rep1.csv"]
    assert (pose_run / "summary.yaml").exists()
    snap = pose_run / "config"
    assert (snap / "manifest.yaml").exists()
    assert (snap / "arm7.yaml").exists()
    assert (snap / "exo_pose.yaml").exists()

    with open(pose_run / "summary.yaml") as fh:
        summary = yaml.safe_load(fh)
    assert summary["scenario"] == "exo-pose"
    assert summary["model"] == "arm7"
    assert len(summary["adapters"]["nal"]["repetitions"]) == 2
    agg = summary["adapters"]["nal"]["aggregate"]
    assert set(agg["rmse_position_mm"]) == {"mean", "std"}
    assert summary["tuning_burden"]["natural_law"]["adaptation_gains"] == 1
    assert summary["tuning_burden"]["projection_law"]["adaptation_gains"] == 91
    assert "hardware_context" in summary


def test_csv_meta_round_trip(pose_run):
    log = read_run_csv(pose_run / "exo_pose_nal_rep0.csv")
    assert set(log.meta) == set(_META_KEYS)
    assert "wall_time_s" not in log.meta  # timing would break reproducibility
    assert log.meta["scenario"] == "exo-pose"
    assert log.meta["adapter"] == "nal"
    assert log.meta["repetition"] == 0
    assert log.meta["dt_s"] == 1e-3
    assert log.data.shape == (50, len(log.columns))
    # full round-trip float precision: write -> read -> write is stable
    copy = pose_run / "copy.csv"
    write_run_csv(copy, log)
    assert copy.read_bytes() == (pose_run / "exo_pose_nal_rep0.csv").read_bytes()
    copy.unlink()


def test_rerun_from_snapshot_is_bit_identical(pose_run, tmp_path):
    snap_manifest = pose_run / "config" / "manifest.yaml"
    assert main(["run", str(snap_manifest), "--output-dir",
                 str(tmp_path / "again")]) == 0
    for name in ("exo_pose_nal_rep0.csv", "exo_pose_nal_rep1.csv"):
        assert (tmp_path / "again" / name).read_bytes() == \
            (pose_run / name).read_bytes()


def test_report_matches_stored_summary(pose_run, capsys):
    csv = pose_run / "exo_pose_nal_rep0.csv"
    assert main(["report", str(csv)]) == 0
    assert main(["report", str(csv)]) == 0  # idempotent
    out = capsys.readouterr().out
    assert "rmse_position_mm" in out


def test_report_flags_tampered_log(pose_run, tmp_path, capsys):
    src = pose_run / "exo_pose_nal_rep1.csv"
    lines = src.read_text().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    col = header.split(",").index("ep_x_m")  # feeds rmse_position_mm
    fields = lines[-1].split(",")
    fields[col] = format(float(fields[col]) + 0.5, ".17g")
    lines[-1] = ",".join(fields)
    tampered = pose_run / "exo_pose_nal_rep1_tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")
    try:
        assert main(["report", str(tampered)]) == 1
        assert "MISMATCH" in capsys.readouterr().err
    finally:
        tampered.unlink()


def test_report_without_logs(capsys):
    assert main(["report"]) == 2
    assert "no input logs" in capsys.readouterr().err


def test_report_missing_summary(pose_run, tmp_path, capsys):
    lonely = tmp_path / "exo_pose_nal_rep0.csv"
    lonely.write_bytes((pose_run / "exo_pose_nal_rep0.csv").read_bytes())
    assert main(["report", str(lonely)]) == 1
    assert "no summary.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["adapter", "repetition", "transient_cutoff_s", "mode"])
def test_report_names_a_missing_meta_key(pose_run, tmp_path, capsys, key):
    lines = (pose_run / "exo_pose_nal_rep0.csv").read_text().splitlines()
    path = tmp_path / "exo_pose_nal_rep0.csv"
    path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"# {key}:")) + "\n")
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: FAIL {path}: meta block lacks key {key!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column", ["t_s", "ep_y_m", "mineig_3"])
def test_report_names_a_missing_column_and_goes_on(pose_run, tmp_path, capsys, column):
    good = pose_run / "exo_pose_nal_rep0.csv"
    lines = good.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[header] = ",".join("renamed" if c == column else c for c in lines[header].split(","))
    bad = tmp_path / "exo_pose_nal_rep0.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["report", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert f"{bad}: FAIL log has no column {column!r}" in captured.err
    assert f"{good}: " in captured.out and "rmse_position_mm" in captured.out
    assert "Traceback" not in captured.err


def test_report_rejects_a_meta_joint_vector_that_is_not_a_list(pose_run, tmp_path, capsys):
    text = (pose_run / "exo_pose_nal_rep0.csv").read_text()
    path = tmp_path / "exo_pose_nal_rep0.csv"
    start = text.index("# initial_q_rad:")
    path.write_text(text[:start] + "# initial_q_rad: 7" + text[text.index("\n", start):])
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: FAIL {path}: meta initial_q_rad must be a list of joint angles" in err
    assert "Traceback" not in err


def test_run_rejects_an_empty_output_dir(tmp_path, capsys, monkeypatch):
    sim = _short_sim(tmp_path, "rrr_compare", 0.01)
    man = _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=0)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(man), "--output-dir", ""]) == 1
    err = capsys.readouterr().err
    assert "error: --output-dir must not be empty" in err
    assert "Traceback" not in err
    assert list(cwd.iterdir()) == [] and not (tmp_path / "out").exists()


def test_run_names_a_config_that_cannot_be_read(tmp_path, capsys):
    (tmp_path / "simdir").mkdir()
    man = _manifest(tmp_path, "exo-pose", "arm7.yaml", tmp_path / "simdir", reps=1, seed=0)
    assert main(["run", str(man)]) == 1
    err = capsys.readouterr().err
    assert f"error: {tmp_path}/simdir: cannot be read" in err
    assert "Traceback" not in err


def test_rrr_compare_runs_both_adapters(tmp_path, capsys):
    sim = _short_sim(tmp_path, "rrr_compare", 0.2)
    man = _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=7)
    assert main(["run", str(man)]) == 0
    out = capsys.readouterr().out
    assert "nal rep 0" in out and "projection rep 0" in out
    outdir = tmp_path / "out"
    names = sorted(p.name for p in outdir.glob("*.csv"))
    assert names == ["rrr_compare_nal_rep0.csv", "rrr_compare_projection_rep0.csv"]
    with open(outdir / "summary.yaml") as fh:
        summary = yaml.safe_load(fh)
    assert set(summary["adapters"]) == {"nal", "projection"}
    note = summary["tuning_burden"]["note"]
    assert "39 adaptation gains" in note
    assert "78 upper and lower bounds" in note
    assert "one gain" in note


def test_run_reports_divergence_as_error(tmp_path, capsys):
    text = (CONFIG_DIR / "rrr_compare.yaml").read_text()
    lines = []
    for ln in text.splitlines():
        if ln.startswith("duration_s:"):
            ln = "duration_s: 5.0"
        elif ln.startswith("dt_s:"):
            ln = "dt_s: 0.5"
        lines.append(ln)
    sim = tmp_path / "rrr_compare.yaml"
    sim.write_text("\n".join(lines) + "\n")
    man = _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=7)
    with np.errstate(all="ignore"):
        assert main(["run", str(man)]) == 1
    assert "diverged" in capsys.readouterr().err


def test_run_names_a_link_estimate_leaving_the_cone(tmp_path, capsys):
    # the run stops with the time, the repetition and the cause
    man = _diverging_rrr_manifest(tmp_path, 0.05)
    with np.errstate(all="ignore"):
        assert main(["run", str(man)]) == 1
    err = capsys.readouterr().err
    assert "simulation diverged at t = 0.001 s (repetition 0)" in err
    assert "link estimate left the positive-definite cone" in err


def test_run_goes_on_after_a_diverging_law(tmp_path, capsys):
    man = _diverging_rrr_manifest(tmp_path, 0.05)
    with np.errstate(all="ignore"):
        assert main(["run", str(man)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [ln for ln in err if "diverged" in ln] == [
        "nal rep 0: FAIL simulation diverged at t = 0.001 s (repetition 0): "
        "link estimate left the positive-definite cone"]
    outdir = tmp_path / "out"
    assert sorted(p.name for p in outdir.glob("*.csv")) == ["rrr_compare_projection_rep0.csv"]
    with open(outdir / "summary.yaml") as fh:
        summary = yaml.safe_load(fh)
    nal, projection = summary["adapters"]["nal"], summary["adapters"]["projection"]
    assert nal["repetitions"] == [] and nal["aggregate"] == {}
    assert [f["repetition"] for f in nal["failed"]] == [0]
    assert "left the positive-definite cone" in nal["failed"][0]["error"]
    assert "failed" not in projection
    assert len(projection["repetitions"]) == 1 and "rmse_joint_1_rad" in projection["aggregate"]
    assert main(["report", str(outdir / "rrr_compare_projection_rep0.csv")]) == 0


def test_read_run_csv_rejects_garbage(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("# broken meta line\n")
    with pytest.raises(ConfigError, match="malformed meta"):
        read_run_csv(path)
    path.write_text("# a: 1\n")
    with pytest.raises(ConfigError, match="missing header"):
        read_run_csv(path)
    path.write_text("# a: 1\nt_s,x\n1.0,nope\n")
    with pytest.raises(ConfigError, match="malformed data"):
        read_run_csv(path)


@pytest.mark.parametrize("text, message", [
    ("# a: [unclosed\nt_s,x\n1.0,2.0\n", "malformed meta line '# a: \\[unclosed'"),
    # a '#' line inside the data is no comment, and an empty cell no number
    ("# a: 1\nt_s,x\n1.0,2.0\n#3.0,4.0\n", "malformed data"),
    ("# a: 1\nt_s,x\n1.0,2.0\n3.0,\n", "malformed data"),
    ("# a: 1\nt_s,x\n1.0,2.0\n3.0,4.0,5.0\n", "malformed data"),
    ("# a: 1\nt_s,x\n1.0,2.0\n \n", "malformed data"),
    ("# a: 1\nt_s,x\n1.0\n2.0\n", "the header has 2 columns but the data rows have 1$"),
    ("# a: 1\nt_s,x\n1.0,2.0,3.0,4.0\n", "the header has 2 columns but the data rows have 4$"),
])
def test_read_run_csv_names_the_file_of_a_malformed_log(tmp_path, text, message):
    path = tmp_path / "run.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as info:
        read_run_csv(path)
    assert str(info.value).startswith(f"{path}: ")


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, 1.797e308,
                  np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3.0]


def test_csv_round_trips_every_float64_bit_for_bit(pose_run, tmp_path):
    # 10 000 random float64 bit patterns and the special values, 8 to a row
    bits = np.random.default_rng(5).integers(0, 2**64, 10_000, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), SPECIAL_FLOATS, np.zeros(2)])
    meta = read_run_csv(pose_run / "exo_pose_nal_rep0.csv").meta
    log = RunLog([f"c{k}" for k in range(8)], values.reshape(-1, 8), meta, {})
    path = tmp_path / "bits.csv"
    write_run_csv(path, log)
    back = read_run_csv(path)
    assert back.columns == log.columns and back.data.shape == log.data.shape
    nan = np.isnan(log.data)
    assert (np.isnan(back.data) == nan).all()
    assert (back.data.view(np.uint64)[~nan] == log.data.view(np.uint64)[~nan]).all()
    # the text is the one a per-value format(v, ".17g") writer gives
    rows = [",".join(format(v, ".17g") for v in row) for row in log.data.tolist()]
    lines = path.read_text().splitlines()
    assert lines[len(_META_KEYS) + 1:] == rows


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")) +
                         sorted(WORKLOAD_DIR.glob("*.yaml")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_yaml_loader_reads_the_documents_the_python_loader_reads(path):
    text = path.read_text()
    assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("text, message", [
    ("adapters: [unclosed\n", "not valid YAML"),
    ("- adapters\n", "top level must be a mapping"),
    ("adapters: {nal: 3}\n", "has no entry for adapter 'nal' repetition 0"),
    ("adapters: {nal: {repetitions: [{repetition: 0, rmse_position_mm: [1]}]}}\n",
     "has no number for 'rmse_position_mm'"),
])
def test_report_names_a_bad_summary_and_goes_on(pose_run, tmp_path, capsys, text, message):
    bad = tmp_path / "exo_pose_nal_rep0.csv"
    bad.write_bytes((pose_run / "exo_pose_nal_rep0.csv").read_bytes())
    summary = tmp_path / "summary.yaml"
    summary.write_text(text)
    good = pose_run / "exo_pose_nal_rep1.csv"
    assert main(["report", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    fail = [ln for ln in captured.err.splitlines() if "FAIL" in ln]
    assert fail and all(ln.startswith(f"{bad}: FAIL {summary}") for ln in fail)
    assert any(message in ln for ln in fail)
    assert f"{good}: " in captured.out and "rmse_position_mm" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text, message", [
    ('gains: {xi: "25"}', "gains: xi must be a finite number, got '25'"),
    ("gains: {gamma: .inf}", "gains: gamma must be a finite number, got inf"),
    ("dt_s: .nan", "dt_s must be positive"),
    ("duration_s: .inf", "duration_s must be finite"),
    ("adaptation: {initial_scale: .nan}", "adaptation: initial_scale must be a finite number"),
    ("adaptation: {nal_integrator: bogus}", "nal_integrator must be 'geometric' or 'euler'"),
])
def test_validate_rejects_values_run_would_reject_or_mangle(tmp_path, capsys, text, message):
    path = tmp_path / "sim.yaml"
    path.write_text(f"scenario: exo-pose\n{text}\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and message in err
    assert "Traceback" not in err


def test_summary_counts_ticks_outside_the_consistent_set(tmp_path, capsys):
    sim = _short_sim(tmp_path, "rrr_compare", 0.05)
    man = _manifest(tmp_path, "rrr-compare", "rrr3.yaml", sim, reps=1, seed=7)
    assert main(["run", str(man)]) == 0
    outdir = tmp_path / "out"
    with open(outdir / "summary.yaml") as fh:
        summary = yaml.safe_load(fh)
    reps = {a: summary["adapters"][a]["repetitions"][0] for a in ("nal", "projection")}
    assert reps["projection"]["ticks_mineig_nonpositive"] > 0
    assert reps["nal"]["ticks_mineig_nonpositive"] == 0
    csv = outdir / "rrr_compare_projection_rep0.csv"
    assert main(["report", str(csv)]) == 0
    # an edited stored count is a mismatch, compared exactly
    reps["projection"]["ticks_mineig_nonpositive"] -= 1
    with open(outdir / "summary.yaml", "w") as fh:
        yaml.safe_dump(summary, fh, sort_keys=False)
    capsys.readouterr()
    assert main(["report", str(csv)]) == 1
    assert "MISMATCH ticks_mineig_nonpositive" in capsys.readouterr().err


@pytest.mark.parametrize("probe", sorted(MALFORMED_ROBOTS))
def test_validate_names_file_and_key_of_a_malformed_robot(tmp_path, capsys, probe):
    edit, message = MALFORMED_ROBOTS[probe]
    path = tmp_path / "bot.yaml"
    path.write_text(edit(ROBOT_TEXT))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"FAIL {path.parent}/{message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("probe", sorted(MALFORMED_MANIFESTS))
def test_validate_names_file_and_key_of_a_malformed_manifest(tmp_path, capsys, probe):
    edit, message = MALFORMED_MANIFESTS[probe]
    path = tmp_path / "man.yaml"
    path.write_text(edit(MANIFEST_TEXT))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"FAIL {path.parent}/{message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("seed: 1.5", "seed must be an integer, got 1.5"),
    ("repetitions: 2.7", "repetitions must be an integer, got 2.7"),
    ("repetitions: true", "repetitions must be an integer, got True"),
    ("seed: -1", "seed must be >= 0"),
    ('dt_s: "fast"', "dt_s must be a number, got 'fast'"),
    ("dt_s: " + "9" * 400, "dt_s must be a number in the float range"),
    pytest.param("dt_s: " + "9" * 5000, "a value cannot be read", id="dt_s-5000-digits"),
    ("initial_q_rad: [0, x]", "initial_q_rad must be a list of any number of finite numbers"),
    ("trajectory: {target_position_m: [1, 2]}",
     "trajectory: target_position_m must be a list of 3 finite numbers, got [1, 2]"),
    ("joint_tracking_gain: .inf", "joint_tracking_gain must be positive and finite"),
])
def test_validate_rejects_malformed_top_level_values(tmp_path, capsys, text, message):
    path = tmp_path / "sim.yaml"
    path.write_text(f"scenario: exo-pose\n{text}\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"FAIL {path}:" in err and message in err
    assert "Traceback" not in err
