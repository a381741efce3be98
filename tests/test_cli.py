import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rescomp
from rescomp.caldata import load_calibration
from rescomp.cli import STDIN_BATCH_LINES, main
from rescomp.fourier import FourierModel, FourierTerm
from rescomp.network import NetworkShape, init_network
from rescomp.pipeline import CompensationModel, correct, load_model, save_model
from rescomp.simgen import LSB_DEG, archetype_spec, spec_to_json


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
    assert capsys.readouterr().err == f"OutOfRange: angle {angle} is not finite\n"


@pytest.mark.parametrize("line, error", [
    ("nan", "OutOfRange"), ("-inf", "OutOfRange"), ("12,5", "MalformedRow"),
    ("ten", "MalformedRow"),
])
def test_bad_stdin_line_fails_with_error_name(tiny_model, capsys, monkeypatch, line, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"10.0\n{line}\n20.0\n"))
    assert main(["correct", "--model", str(tiny_model), "--stdin"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert captured.err.startswith(f"{error}: stdin line 2: ")


# --- the batched stream, on models that need no training ---

ALL_CODES = [k * LSB_DEG for k in range(65536)]  # every 16-bit encoder reading


@pytest.fixture(scope="module", params=["ann", "fourier"])
def stream_case(request, tmp_path_factory):
    """A seeded random 1:80:1 net or 10-term Fourier model, saved, with the
    line `correct --stdin` must print for each 16-bit code, from per-angle
    `pipeline.correct` calls."""
    rng = np.random.default_rng(2009)
    if request.param == "ann":
        net = init_network(NetworkShape(1, 80, 1), seed=7)
        payload = net.with_params(rng.normal(0.0, 3.0, net.n_params))
    else:
        payload = FourierModel(0.3, tuple(
            FourierTerm(n, *rng.normal(0.0, 1.0, 2)) for n in range(1, 11)))
    path = tmp_path_factory.mktemp("stream") / "model.json"
    save_model(path, CompensationModel(request.param, "stream", payload))
    model = load_model(path)
    return path, model, [correct(model, a) for a in ALL_CODES]


def angle_lines(angles, pad="", end="\n"):
    return "".join(f"{pad}{a!r}{pad}{end}" for a in angles)


def stream_text(path, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return main(["correct", "--model", str(path), "--stdin"])


def stream(path, monkeypatch, angles, extra=""):
    return stream_text(path, monkeypatch, angle_lines(angles) + extra)


def test_stdin_stream_prints_per_angle_lines(stream_case, capsys, monkeypatch):
    path, _model, scalar = stream_case
    assert stream(path, monkeypatch, ALL_CODES) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar]


def test_array_correct_agrees_with_scalar(stream_case):
    _path, model, scalar = stream_case
    gap = np.abs(correct(model, np.array(ALL_CODES)) - scalar)
    assert np.minimum(gap, 360.0 - gap).max() <= 1e-12


@pytest.mark.parametrize("n", [STDIN_BATCH_LINES - 1, STDIN_BATCH_LINES, STDIN_BATCH_LINES + 1])
def test_stdin_batch_edges(stream_case, capsys, monkeypatch, n):
    path, _model, scalar = stream_case
    assert stream(path, monkeypatch, ALL_CODES[:n]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:n]]


@pytest.mark.parametrize("line, error", [("inf", "OutOfRange"), ("x", "MalformedRow")])
def test_stdin_lines_before_bad_one_are_written(stream_case, capsys, monkeypatch, line, error):
    path, _model, scalar = stream_case
    n = STDIN_BATCH_LINES + 1
    assert stream(path, monkeypatch, ALL_CODES[:n], extra=f"{line}\n1.0\n") == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{c:.6f}" for c in scalar[:n]]
    assert captured.err.startswith(f"{error}: stdin line {n + 1}: ")


def test_stdin_blank_run_across_blocks(stream_case, capsys, monkeypatch):
    # 100 angles, 200 blank lines over the first and second block boundary,
    # then 50 angles: the third block is 94 lines long
    path, _model, scalar = stream_case
    text = angle_lines(ALL_CODES[:100]) + "\n" * 200 + angle_lines(ALL_CODES[100:150])
    assert stream_text(path, monkeypatch, text) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:150]]


@pytest.mark.parametrize("pad", ["", " \t"])
def test_stdin_crlf_and_padded_lines(stream_case, capsys, monkeypatch, pad):
    # 300 lines: two full blocks and a partial one, with a whitespace-only
    # line in the second block
    path, _model, scalar = stream_case
    text = (angle_lines(ALL_CODES[:200], pad, "\r\n") + f"{pad}\r\n"
            + angle_lines(ALL_CODES[200:299], pad, "\r\n"))
    assert stream_text(path, monkeypatch, text) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:299]]


@pytest.mark.parametrize("line, message", [
    ("inf", "OutOfRange: stdin line 263: angle inf is not finite"),
    (" x\r", "MalformedRow: stdin line 263: not an angle: 'x'"),
])
def test_stdin_bad_line_in_third_block(stream_case, capsys, monkeypatch, line, message):
    # two full blocks hold 255 angles and a blank line (101); the third block
    # holds a blank line (257), 5 angles (258-262) and the bad line (263)
    path, _model, scalar = stream_case
    text = (angle_lines(ALL_CODES[:100]) + "\n" + angle_lines(ALL_CODES[100:255]) + "\n"
            + angle_lines(ALL_CODES[255:260]) + f"{line}\n1.0\n")
    assert stream_text(path, monkeypatch, text) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{c:.6f}" for c in scalar[:260]]
    assert captured.err == message + "\n"


class TerminalStdin(io.StringIO):
    """A stdin that says it is a terminal and records, at each line read, how
    many answers had been written to `out` so far."""

    def __init__(self, text, out):
        super().__init__(text)
        self.out = out
        self.answers_at_read = []

    def isatty(self):
        return True

    def __next__(self):
        self.answers_at_read.append(self.out.getvalue().count("\n"))
        return super().__next__()


def test_terminal_stdin_answers_each_line_before_the_next(tiny_model, monkeypatch):
    out = io.StringIO()
    stdin = TerminalStdin("10.0\n\n200.5\n359.99\n", out)
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["correct", "--model", str(tiny_model), "--stdin"]) == 0
    assert stdin.answers_at_read == [0, 1, 1, 2, 3]  # the last read meets EOF


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


@pytest.mark.parametrize("command, flags", [
    pytest.param("run-experiment", ["--hidden", "1"], id="run-experiment"),
    pytest.param("prune", ["--hidden", "1"], id="prune"),
    *(pytest.param(command, ["--hidden", "4", "--max-iterations", "30", "--rel-tol", tol],
                   id=f"{command}-rel-tol-{tol}")
      for command in ("run-experiment", "prune") for tol in ("0", "2", "nan")),
])
def test_prune_one_node_net_fails_before_writing(
    tmp_path, spec_file, train_csv, capsys, command, flags
):
    """Also any prune rel_tol outside (0, 1): both fail before training."""
    out = tmp_path / "out"
    args = {"run-experiment": ["--prune", "--spec", str(spec_file), "--outdir", str(out)],
            "prune": ["--data", str(train_csv), "--out", str(out)]}[command]
    assert main([command, *args, *flags]) == 1
    assert capsys.readouterr().err.startswith("ValueError: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"terms": [{"amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '{"terms": [{"n": 2.5, "amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '[{"n": 1, "amp_arcmin": 1.0, "phase_rad": 0.0}]',
    '{"terms": [], "noise_sigma_arcmin": NaN}',
    "{ not json",
    pytest.param("[" * 200_000, id="nested-200000"),
    '{"terms": [], "seed": 2.7}',
    '{"terms": [], "seed": true}',
    '{"terms": [], "seed": "3"}',
    '{"terms": [], "seed": -1}',
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
    for text in ("{ not json", "[" * 200_000):
        bad.write_text(text)
        code = main(["correct", "--model", str(bad), "--angle", "10"])
        assert code == 1
        assert "CorruptFile" in capsys.readouterr().err


def test_malformed_csv_fails_with_error_name(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for row in (b"1,zzz\n", b"1,1\xff\n"):  # non-numeric field, non-UTF-8 byte
        bad.write_bytes(b"table_angle_deg,encoder_angle_deg\n" + row)
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "MalformedRow" in capsys.readouterr().err
