import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rescomp
from rescomp.caldata import load_calibration
from rescomp.cli import main
from rescomp.pipeline import load_model
from rescomp.simgen import archetype_spec, spec_to_json


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    spec_to_json(archetype_spec(1), path)
    return path


@pytest.fixture()
def train_csv(tmp_path, spec_file):
    out = tmp_path / "train.csv"
    assert main(["simulate", "--spec", str(spec_file), "--step", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture()
def test_csv(tmp_path, spec_file):
    out = tmp_path / "test.csv"
    args = ["simulate", "--spec", str(spec_file), "--step", "2", "--offset", "1",
            "--out", str(out)]
    assert main(args) == 0
    return out


@pytest.fixture()
def tiny_model(tmp_path, train_csv):
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    args = [
        "train", "--data", str(train_csv), "--optimizer", "lm",
        "--hidden", "6", "--seed", "42", "--max-iterations", "60",
        "--stall-window", "20", "--out", str(model), "--history", str(history),
        "--encoder-id", "cli-test",
    ]
    assert main(args) == 0
    return model


def test_simulate_writes_training_grid(train_csv):
    cal = load_calibration(train_csv)
    assert len(cal) == 180
    assert cal.samples[0].table_angle_deg == 0.0
    assert cal.samples[-1].table_angle_deg == 358.0


def test_simulate_offset_writes_test_grid(test_csv):
    cal = load_calibration(test_csv)
    assert len(cal) == 180
    assert cal.samples[0].table_angle_deg == 1.0
    assert cal.samples[-1].table_angle_deg == 359.0


def test_train_writes_model_and_history(tmp_path, tiny_model):
    model = load_model(tiny_model)
    assert model.kind == "ann"
    assert model.encoder_id == "cli-test"
    assert model.payload.shape.n_hidden == 6
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,mse"
    assert history[1].startswith("1,")


def test_evaluate_writes_report(tmp_path, tiny_model, test_csv, capsys):
    report = tmp_path / "report.json"
    residuals = tmp_path / "residuals.csv"
    args = ["evaluate", "--model", str(tiny_model), "--data", str(test_csv),
            "--report", str(report), "--residuals", str(residuals)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "post compensation" in out
    doc = json.loads(report.read_text())
    assert doc["model_kind"] == "ann"
    assert doc["post"]["n_samples"] == 180
    lines = residuals.read_text().splitlines()
    assert lines[0] == "encoder_angle_deg,observed_arcmin,predicted_arcmin,residual_arcmin"
    assert len(lines) == 181


def test_fourier_subcommand(tmp_path, train_csv, test_csv, capsys):
    model = tmp_path / "fourier.json"
    spectrum = tmp_path / "spectrum.csv"
    args = ["fourier", "--data", str(train_csv), "--top", "10",
            "--out", str(model), "--spectrum", str(spectrum)]
    assert main(args) == 0
    loaded = load_model(model)
    assert loaded.kind == "fourier"
    lines = spectrum.read_text().splitlines()
    assert lines[0] == "order,amplitude_arcmin"
    assert len(lines) == 92  # orders 0..90 on the 2-degree grid
    assert main(["evaluate", "--model", str(model), "--data", str(test_csv)]) == 0


def test_correct_single_angle(tiny_model, capsys):
    assert main(["correct", "--model", str(tiny_model), "--angle", "123.4"]) == 0
    line = capsys.readouterr().out.strip()
    value = float(line)
    assert 0.0 <= value < 360.0
    assert len(line.split(".")[1]) == 6


def test_correct_stdin_stream(tiny_model, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("10.0\n\n200.5\n359.99\n"))
    assert main(["correct", "--model", str(tiny_model), "--stdin"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert 0.0 <= float(line) < 360.0


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angle_fails_with_error_name(tiny_model, capsys, angle):
    assert main(["correct", "--model", str(tiny_model), f"--angle={angle}"]) == 1
    assert capsys.readouterr().err.startswith("OutOfRange: ")


@pytest.mark.parametrize("line, error", [
    ("nan", "OutOfRange"), ("-inf", "OutOfRange"), ("12,5", "MalformedRow"),
    ("ten", "MalformedRow"),
])
def test_bad_stdin_line_fails_with_error_name(tiny_model, capsys, monkeypatch, line, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"10.0\n{line}\n20.0\n"))
    assert main(["correct", "--model", str(tiny_model), "--stdin"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert captured.err.startswith(f"{error}: ")


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    code = "import sys, rescomp.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_prune_subcommand(tmp_path, train_csv):
    model = tmp_path / "pruned.json"
    report = tmp_path / "prune.json"
    args = ["prune", "--data", str(train_csv), "--hidden", "6",
            "--max-iterations", "40", "--stall-window", "15",
            "--out", str(model), "--report", str(report)]
    assert main(args) == 0
    doc = json.loads(report.read_text())
    assert doc["initial_hidden"] == 6
    assert load_model(model).payload.shape.n_hidden == doc["pruned_hidden"]


def test_train_budget_below_default_stall_window(tmp_path, train_csv):
    args = ["train", "--data", str(train_csv), "--hidden", "6", "--max-iterations", "150",
            "--out", str(tmp_path / "m.json")]
    assert main(args) == 0


@pytest.mark.parametrize("command", ["run-experiment", "prune"])
def test_prune_one_node_net_fails_before_writing(tmp_path, spec_file, train_csv, capsys, command):
    out = tmp_path / "out"
    args = {"run-experiment": ["--prune", "--spec", str(spec_file), "--outdir", str(out)],
            "prune": ["--data", str(train_csv), "--out", str(out)]}[command]
    assert main([command, *args, "--hidden", "1"]) == 1
    assert capsys.readouterr().err.startswith("ValueError: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"terms": [{"amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '{"terms": [{"n": 2.5, "amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '[{"n": 1, "amp_arcmin": 1.0, "phase_rad": 0.0}]',
    '{"terms": [], "noise_sigma_arcmin": NaN}',
    "{ not json",
])
def test_bad_spec_file_fails_with_error_name(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "cal.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("CorruptFile: ")
    assert not out.exists()


def test_run_experiment_subcommand(tmp_path, spec_file, capsys):
    outdir = tmp_path / "bundle"
    args = ["run-experiment", "--spec", str(spec_file), "--outdir", str(outdir),
            "--hidden", "8", "--max-iterations", "60", "--stall-window", "20"]
    assert main(args) == 0
    assert (outdir / "report.json").exists()
    assert (outdir / "comparison.csv").exists()
    out = capsys.readouterr().out
    assert "post ann" in out


def test_missing_file_fails_with_error_name(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["train", "--data", str(missing), "--out", str(tmp_path / "m.json")])
    assert code != 0
    err = capsys.readouterr().err
    assert "FileNotFoundError" in err


def test_corrupt_model_fails_with_error_name(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["correct", "--model", str(bad), "--angle", "10"])
    assert code == 1
    assert "CorruptFile" in capsys.readouterr().err


def test_malformed_csv_fails_with_error_name(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("table_angle_deg,encoder_angle_deg\n1,zzz\n")
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "MalformedRow" in capsys.readouterr().err
