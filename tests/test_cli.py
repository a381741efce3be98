import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rescomp
from rescomp import cli, config, errors, experiment, fourier, network, optim, pipeline
from rescomp.caldata import load_calibration
from rescomp.cli import (
    PRINT_SLICE_VALUES,
    STDIN_BATCH_LINES,
    _experiment_config,
    _format_tables,
    _rounded_micro,
    build_parser,
    format_angles,
    main,
)
from rescomp.fourier import FourierModel, FourierTerm
from rescomp.network import init_params
from rescomp.pipeline import CompensationModel, correct, load_model, save_model
from rescomp.simgen import LSB_DEG, HarmonicSpec, HarmonicTerm, archetype_spec, spec_to_json
from tests.conftest import make_net


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
    assert cal.table_deg[0] == 0.0
    assert cal.table_deg[-1] == 358.0


def test_simulate_offset_writes_test_grid(test_csv):
    cal = load_calibration(test_csv)
    assert len(cal) == 180
    assert cal.table_deg[0] == 1.0
    assert cal.table_deg[-1] == 359.0


def test_train_writes_model_and_history(tmp_path, tiny_model):
    model = load_model(tiny_model)
    assert model.kind == "ann"
    assert model.encoder_id == "cli-test"
    assert model.payload.n_hidden == 6
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
        payload = make_net(rng.normal(0.0, 3.0, 241))
    else:
        payload = FourierModel(0.3, tuple(
            FourierTerm(n, *rng.normal(0.0, 1.0, 2)) for n in range(1, 11)))
    path = tmp_path_factory.mktemp("stream") / "model.json"
    save_model(path, CompensationModel("stream", payload))
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


# corrected angles on a `%.6f` rounding tie: the 1/128 steps are exact ties,
# the others the nearest doubles to one
TIE_TARGETS = [10 + 1 / 128, 123 + 5 / 128, 300 + 127 / 128, 45.1234565, 200.0000005]


def angles_near_ties(model):
    """Encoder angles whose corrected angles lie within 2**-20 micro-units of
    each of `TIE_TARGETS`, and their neighbouring doubles."""
    found = []
    for target in TIE_TARGETS:
        angle = target
        for _ in range(10):  # the correction's slope is far below 1
            angle += target - correct(model, angle)
        assert _rounded_micro(correct(model, np.array([angle]))) is None
        found += [np.nextafter(angle, 0.0), angle, np.nextafter(angle, 360.0)]
    return [float(a) for a in found]


def test_angle_prints_what_the_stream_prints(stream_case, capsys, monkeypatch):
    path, model, _scalar = stream_case
    angles = [0.0, 10.0, 123.456, 359.9999995, -0.0, 720.5, 1e300, LSB_DEG, 90.0000005,
              *angles_near_ties(model)]
    assert stream(path, monkeypatch, angles) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert len(lines) == len(angles)
    for angle, line in zip(angles, lines):
        assert main(["correct", "--model", str(path), f"--angle={angle!r}"]) == 0
        assert capsys.readouterr().out == line


def count_calls(monkeypatch, module, name):
    """Count the calls of `module.name` made through any module of `rescomp`
    that binds it, as the benchmark's tracer sees them."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, holder in list(sys.modules.items()):
        if holder is not None and (key == "rescomp" or key.startswith("rescomp.")):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


def test_stdin_stream_makes_one_model_call_per_block(stream_case, capsys, monkeypatch):
    # 2B + 1 lines are three blocks; each block is one `forward_batch` or
    # `eval_fourier` call, so a tracer of that name sees the stream's model time
    path, model, scalar = stream_case
    n = 2 * STDIN_BATCH_LINES + 1
    calls = (count_calls(monkeypatch, network, "forward_batch") if model.kind == pipeline.KIND_ANN
             else count_calls(monkeypatch, fourier, "eval_fourier"))
    assert stream(path, monkeypatch, ALL_CODES[:n]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:n]]
    assert len(calls) == 3


def test_array_correct_agrees_with_scalar(stream_case):
    _path, model, scalar = stream_case
    gap = np.abs(correct(model, np.array(ALL_CODES)) - scalar)
    assert np.minimum(gap, 360.0 - gap).max() <= 1e-12


@pytest.mark.parametrize("n", [STDIN_BATCH_LINES - 1, STDIN_BATCH_LINES, STDIN_BATCH_LINES + 1],
                         ids=["one-short", "full", "one-over"])
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
    # B - 28 angles, B + 72 blank lines over the first and second block
    # boundary, then 50 angles: the third block is 94 lines long
    path, _model, scalar = stream_case
    head = STDIN_BATCH_LINES - 28
    text = (angle_lines(ALL_CODES[:head]) + "\n" * (STDIN_BATCH_LINES + 72)
            + angle_lines(ALL_CODES[head:head + 50]))
    assert stream_text(path, monkeypatch, text) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:head + 50]]


@pytest.mark.parametrize("pad", ["", " \t"])
def test_stdin_crlf_and_padded_lines(stream_case, capsys, monkeypatch, pad):
    # 2B + 44 lines: two full blocks and a partial one, with a whitespace-only
    # line in the second block
    path, _model, scalar = stream_case
    head, n = STDIN_BATCH_LINES + 72, 2 * STDIN_BATCH_LINES + 43
    text = (angle_lines(ALL_CODES[:head], pad, "\r\n") + f"{pad}\r\n"
            + angle_lines(ALL_CODES[head:n], pad, "\r\n"))
    assert stream_text(path, monkeypatch, text) == 0
    assert capsys.readouterr().out.splitlines() == [f"{c:.6f}" for c in scalar[:n]]


BAD_LINE = 2 * STDIN_BATCH_LINES + 7  # 8 199 at 4 096-line blocks


@pytest.mark.parametrize("line, message", [
    pytest.param("inf", f"OutOfRange: stdin line {BAD_LINE}: angle inf is not finite", id="inf"),
    pytest.param(" x\r", f"MalformedRow: stdin line {BAD_LINE}: not an angle: 'x'", id="x"),
])
def test_stdin_bad_line_in_third_block(stream_case, capsys, monkeypatch, line, message):
    # two full blocks hold 2B - 1 angles and a blank line (101); the third
    # block holds a blank line (2B + 1), 5 angles and the bad line (2B + 7)
    path, _model, scalar = stream_case
    n = 2 * STDIN_BATCH_LINES + 4
    text = (angle_lines(ALL_CODES[:100]) + "\n" + angle_lines(ALL_CODES[100:n - 5]) + "\n"
            + angle_lines(ALL_CODES[n - 5:n]) + f"{line}\n1.0\n")
    assert stream_text(path, monkeypatch, text) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{c:.6f}" for c in scalar[:n]]
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


# --- the "%.6f" formatter of corrected angles ---

def percent_lines(values):
    return "".join("%.6f\n" % v for v in values)


def near_ties(k):
    """(k + 1/2) micro-units and the floats on either side of it."""
    mid = (k + 0.5) / 1e6
    return [np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1e3)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_format_angles_matches_percent_for_finite_floats(values):
    assert format_angles(np.array(values, dtype=float)) == percent_lines(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(0.0, 1100.0),
    st.integers(0, 1_099_999_999).map(near_ties).flatmap(st.sampled_from),
), max_size=40))
def test_format_angles_matches_percent_near_the_table_range(values):
    assert format_angles(np.array(values, dtype=float)) == percent_lines(values)


@pytest.mark.parametrize("value, line", [
    (2.0 ** -7, "0.007812"),          # an exact tie, rounded to even
    (359.9999995, "360.000000"),
    (998.9999995, "%.6f" % 998.9999995),
    (-0.0, "-0.000000"),
    (5e-324, "0.000000"),
    (-1.5, "-1.500000"),
    (-359.9999995, "-360.000000"),
    (999.0, "999.000000"),
    (999.9999996, "1000.000000"),
    (1e300, "%.6f" % 1e300),
])
def test_format_angles_fixed_cases(value, line):
    assert format_angles(np.array([value])) == line + "\n"


@pytest.mark.parametrize("k", [0, 1, 7811, 359_999_999, 998_999_999])
def test_format_angles_either_side_of_a_tie(k):
    values = near_ties(k)
    assert format_angles(np.array(values)) == percent_lines(values)
    for v in values:
        assert format_angles(np.array([v])) == percent_lines([v])


@pytest.mark.parametrize("n", [0, 1, PRINT_SLICE_VALUES - 1, PRINT_SLICE_VALUES])
def test_format_angles_blocks(n):
    values = np.random.default_rng(n).uniform(0.0, 360.0, n)
    assert format_angles(values) == percent_lines(values.tolist())


def test_format_angles_every_16_bit_code():
    codes = np.arange(65536) * LSB_DEG
    assert format_angles(codes) == percent_lines(codes.tolist())


def test_format_angles_takes_the_table_path_for_a_block():
    assert _rounded_micro(np.random.default_rng(0).uniform(0.0, 360.0, PRINT_SLICE_VALUES)) \
        is not None
    assert _rounded_micro(np.array([10.0, 2.0 ** -7])) is None


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stdin_block_prints_each_slice_on_its_own_path(tmp_path, capsys, monkeypatch):
    """One full block through a zero model prints its angles unchanged, in
    `PRINT_SLICE_VALUES`-value slices: a value within 2**-20 of a `%.6f` tie
    sends the third slice down the `%` path, and the others take the tables."""
    path = tmp_path / "zero.json"
    save_model(path, CompensationModel("zero", FourierModel(0.0, ())))
    values = np.random.default_rng(3).uniform(0.0, 360.0, STDIN_BATCH_LINES)
    values[2 * PRINT_SLICE_VALUES + 17] = near_ties(123_456_789)[0]
    slices = values.reshape(-1, PRINT_SLICE_VALUES)
    assert [_rounded_micro(part) is None for part in slices] == [False, False, True, False]
    sizes = []

    def counted(block):
        sizes.append(block.size)
        return format_angles(block)

    monkeypatch.setattr(cli, "format_angles", counted)
    assert stream(path, monkeypatch, values.tolist()) == 0
    assert capsys.readouterr().out == percent_lines(values.tolist())
    assert sizes == [PRINT_SLICE_VALUES] * (STDIN_BATCH_LINES // PRINT_SLICE_VALUES)


def test_format_tables_build_under_mmap_threshold():
    """No temporary of the build may reach glibc's 128 KiB mmap threshold:
    freeing one raises the threshold for the rest of the process."""
    assert traced_peak(_format_tables) < 128 * 1024


def test_format_angles_block_peak_memory():
    # the values of one `format_angles` call of a stream block
    values = np.random.default_rng(1).uniform(0.0, 360.0, PRINT_SLICE_VALUES)
    assert traced_peak(format_angles, values) < 64 * 1024


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
    assert load_model(model).payload.n_hidden == doc["pruned_hidden"]


def test_train_budget_below_default_stall_window(tmp_path, train_csv):
    args = ["train", "--data", str(train_csv), "--hidden", "6", "--max-iterations", "150",
            "--out", str(tmp_path / "m.json")]
    assert main(args) == 0


@pytest.mark.parametrize("command, flags", [
    pytest.param("run-experiment", ["--hidden", "1"], id="run-experiment"),
    pytest.param("prune", ["--hidden", "1"], id="prune"),
])
def test_prune_one_node_net_fails_before_writing(
    tmp_path, spec_file, train_csv, capsys, command, flags
):
    out = tmp_path / "out"
    args = {"run-experiment": ["--prune", "--spec", str(spec_file), "--outdir", str(out)],
            "prune": ["--data", str(train_csv), "--out", str(out)]}[command]
    assert main([command, *args, *flags]) == 1
    assert capsys.readouterr().err.startswith("BadConfig: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--hidden", "0"], "hidden must be >= 1"),
    (["--max-iterations", "0"], "max_iterations must be >= 1"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_bad_training_flag_fails_with_error_name(tmp_path, train_csv, capsys, flags, message):
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(train_csv), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"BadConfig: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, required", [
    ("train", ["--data", "cal.csv", "--out", "m.json"]),
    ("prune", ["--data", "cal.csv", "--out", "m.json"]),
    ("run-experiment", ["--spec", "spec.json", "--outdir", "out"]),
])
def test_flag_defaults_are_the_library_defaults(command, required):
    args = build_parser().parse_args([command, *required])
    assert _experiment_config(args) == config.ExperimentConfig(prune=command == "prune")


def readme_commands() -> list[list[str]]:
    """The argv of every `rescomp` command in README's `sh` blocks, with
    backslash continuations joined and the command after a pipe included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            for command in line.split("|"):
                words = shlex.split(command, comments=True)
                if words[:1] == ["rescomp"]:
                    commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"simulate", "train", "prune", "fourier",
                                              "evaluate", "correct", "run-experiment"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command `rescomp {shlex.join(argv)}` does not parse: "
                        f"{capsys.readouterr().err}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["train", "prune"])
def test_overflowing_gradient_step_fails_with_error_name(
    tmp_path, train_csv, capsys, monkeypatch, command
):
    """A learning rate whose step overflows float64 ends in the named error,
    with no numpy warning before it."""
    monkeypatch.setattr(optim, "_LEARNING_RATE", 1e300)
    out = tmp_path / "m.json"
    args = [command, "--data", str(train_csv), "--out", str(out), "--optimizer", "backprop",
            "--hidden", "8", "--max-iterations", "5"]
    assert main(args) == 1
    assert capsys.readouterr().err == "DivergenceDetected: parameters became non-finite\n"
    assert not out.exists()


def no_training(*_args):
    raise AssertionError("the command started training before it checked its flags")


def test_negative_top_fails_with_error_name(tmp_path, spec_file, train_csv, capsys, monkeypatch):
    """`fourier` names a negative `--top`; `run-experiment` does so before training."""
    out = tmp_path / "out"
    assert main(["fourier", "--data", str(train_csv), "--top", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "BadConfig: top must be in [0, 90] for a profile of 180 samples, got -1\n")
    assert not out.exists()

    monkeypatch.setattr(experiment, "fit_network", no_training)
    args = ["run-experiment", "--spec", str(spec_file), "--outdir", str(out), "--top", "-3"]
    assert main(args) == 1
    assert capsys.readouterr().err == "BadConfig: top_orders must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("top", ["91", "200"])
def test_unfittable_top_fails_with_error_name(
    tmp_path, spec_file, train_csv, capsys, monkeypatch, top
):
    """A 2-degree grid has 180 samples, which fit the DC term and 89 other
    orders; `run-experiment` trains on such a half of a 1-degree grid and
    fails before training."""
    message = f"BadConfig: top must be in [0, 90] for a profile of 180 samples, got {top}\n"
    out = tmp_path / "out"
    assert main(["fourier", "--data", str(train_csv), "--top", top, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()

    monkeypatch.setattr(experiment, "fit_network", no_training)
    args = ["run-experiment", "--spec", str(spec_file), "--outdir", str(out), "--top", top]
    assert main(args) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "prune", "run-experiment"])
@pytest.mark.parametrize("hidden", [config.MAX_HIDDEN + 1, 10_000_000])
def test_hidden_above_bound_fails_before_allocating(
    tmp_path, spec_file, train_csv, capsys, monkeypatch, command, hidden
):
    """Never allocates the net: building one would fail the test, and the
    peak traced memory stays far below one (P, J) block."""
    monkeypatch.setattr(experiment, "init_params", no_training)
    monkeypatch.setattr(experiment, "fit_network", no_training)
    out = tmp_path / "out"
    args = {"run-experiment": ["--spec", str(spec_file), "--outdir", str(out)],
            "train": ["--data", str(train_csv), "--out", str(out)],
            "prune": ["--data", str(train_csv), "--out", str(out)]}[command]
    tracemalloc.start()
    try:
        code = main([command, *args, "--hidden", str(hidden)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == f"BadConfig: hidden must be <= 2000, got {hidden}\n"
    assert peak < 1 << 20
    assert not out.exists()


def test_simulate_step_finer_than_lsb_fails_with_error_name(tmp_path, spec_file, capsys):
    out = tmp_path / "cal.csv"
    assert main(["simulate", "--spec", str(spec_file), "--step", "1e-9",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("BadGrid: grid step 1e-09 is finer than")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"terms": [{"amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '{"terms": [{"n": 2.5, "amp_arcmin": 1.0, "phase_rad": 0.0}]}',
    '[{"n": 1, "amp_arcmin": 1.0, "phase_rad": 0.0}]',
    '{"terms": [], "noise_sigma_arcmin": NaN}',
    '{"terms": [], "noise_sigma_arcmin": "0.1"}',
    '{"terms": [{"n": 1, "amp_arcmin": "3", "phase_rad": 0.0}]}',
    '{"terms": [{"n": 1, "amp_arcmin": 3.0, "phase_rad": true}]}',
    "{ not json",
    pytest.param("[" * 200_000, id="nested-200000"),
    '{"terms": [], "seed": 2.7}',
    '{"terms": [], "seed": true}',
    '{"terms": [], "seed": "3"}',
    '{"terms": [], "seed": -1}',
    # values no calibration set can be simulated from, rejected as the spec is read
    '{"terms": [{"n": 1, "amp_arcmin": 1.0, "phase_rad": NaN}]}',
    '{"terms": [], "noise_sigma_arcmin": Infinity}',
    '{"terms": [{"n": 1, "amp_arcmin": 1e308, "phase_rad": 0.0}]}',
    # a misspelled spec, which would otherwise simulate 180 error-free samples
    '{"terms": {}, "noise_sigma": 0.5, "sed": 3}',
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


@pytest.mark.parametrize("case, message", [
    ("simulate-step-360", r"calibration set needs >= 2 samples, got 1"),
    ("run-experiment-even-csv", r"the odd-degree \(test\) half has 0 samples, needs >= 2"),
])
def test_too_few_samples_fails_with_error_name(tmp_path, spec_file, capsys, case, message):
    even_csv = tmp_path / "even.csv"
    even_csv.write_text("table_angle_deg,encoder_angle_deg\n0,0.01\n2,2.01\n")
    out = tmp_path / "out"
    args = {
        "simulate-step-360": ["simulate", "--spec", str(spec_file), "--step", "360",
                              "--out", str(out)],
        "run-experiment-even-csv": ["run-experiment", "--csv", str(even_csv),
                                    "--outdir", str(out)],
    }[case]
    assert main(args) == 1
    assert re.fullmatch(f"TooFewSamples: {message}\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "run-experiment"])
def test_errors_beyond_normalization_bounds_fail_with_error_name(tmp_path, capsys, command):
    # an 8' term, past the 7.5' that the +-6' band maps onto 0 and 1
    spec, csv, out = tmp_path / "spec.json", tmp_path / "wide.csv", tmp_path / "out"
    spec_to_json(HarmonicSpec(terms=(HarmonicTerm(1, 8.0, 0.0),)), spec)
    assert main(["simulate", "--spec", str(spec), "--step", "2", "--out", str(csv)]) == 0
    args = {"train": ["train", "--data", str(csv), "--out", str(out)],
            "run-experiment": ["run-experiment", "--spec", str(spec),
                               "--outdir", str(out)]}[command]
    assert main([*args, "--hidden", "4"]) == 1
    assert re.fullmatch(r"TargetOutOfRange: error \S+' at \S+ deg maps outside \[0, 1\] "
                        r"with normalization bounds \[-6\.0, 6\.0\]'\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_overflowing_statistics_fail_with_error_name(tmp_path, train_csv, capsys):
    """A series offset of 1e200' gives residuals whose squares overflow: no
    RMS of inf is printed or written, and no warning either."""
    model, report = tmp_path / "wide.json", tmp_path / "report.json"
    save_model(model, CompensationModel("wide", FourierModel(1e200, (FourierTerm(1, 0.5, -0.5),))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", "--model", str(model), "--data", str(train_csv),
                     "--report", str(report)]) == 1
        assert re.fullmatch(r"NonFiniteStats: MAE \S+' or RMS inf' of 180 errors is not finite\n",
                            capsys.readouterr().err)
    assert not report.exists()


# a command-line byte that is not UTF-8 decodes to a lone surrogate
@pytest.mark.parametrize("encoder_id", [os.fsdecode(b"enc-\xff"), "enc,7", "enc\n7", "enc\r7"])
def test_encoder_id_not_one_csv_field_fails_before_writing(tmp_path, spec_file, capsys, encoder_id):
    out = tmp_path / "out"
    args = ["run-experiment", "--spec", str(spec_file), "--outdir", str(out), "--hidden", "2",
            "--max-iterations", "1", f"--encoder-id={encoder_id}"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"BadConfig: encoder id {encoder_id!r} is not one CSV field of UTF-8 text\n")
    assert not out.exists()


# --- generated flags for every subcommand ---

ERROR_NAMES = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.RescompError)}

# any float at all, NaN and the infinities included
NUMBERS = st.floats()


def mostly(valid, anything=NUMBERS):
    """Values from `valid`, and one draw in eight from `anything`."""
    return st.integers(0, 7).flatmap(lambda k: anything if k == 0 else valid)


# what a command line can hold: any bytes but NUL, decoded as Python decodes argv
ARGV_TEXT = st.binary(max_size=8).filter(lambda b: b"\0" not in b).map(os.fsdecode)
# steps of at least 1 degree: divisors of 360 and other values
GRID_STEPS = mostly(st.sampled_from([1.0, 2.0, 3.0, 4.5, 5.0, 120.0, 360.0]),
                    st.floats(min_value=1.0))
OFFSETS = mostly(st.sampled_from([0.0, 0.5, 1.0]))


def optional_flags(**strategies):
    """Each flag absent or given a drawn value as `--name=value`; a keyword's
    underscores become dashes."""
    parts = [st.one_of(st.just([]), values.map(lambda v, n=name: [f"--{n.replace('_', '-')}={v}"]))
             for name, values in strategies.items()]
    return st.tuples(*parts).map(lambda drawn: [arg for flags in drawn for arg in flags])


def switch(flag):
    return st.sampled_from([[], [flag]])


# the width and budget are always given: their defaults train a 1:80:1 net for
# up to 10 000 iterations
TRAINING_FLAGS = st.tuples(
    mostly(st.integers(1, 8), st.integers(-1, 0)), mostly(st.integers(1, 5), st.integers(-1, 0)),
    optional_flags(
        seed=mostly(st.integers(0, 2 ** 64), st.just(-1)),
        stall_window=mostly(st.integers(1, 10), st.integers(-1, 0)),
        encoder_id=ARGV_TEXT,
    ),
).map(lambda a: [f"--hidden={a[0]}", f"--max-iterations={a[1]}", *a[2]])
TOPS = mostly(st.integers(0, 90), st.integers(-2, 200))
OPTIMIZER_FLAGS = optional_flags(optimizer=st.sampled_from(["lm", "backprop"]))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Inputs of every subcommand, and an output directory the calls share."""
    d = tmp_path_factory.mktemp("cli-flags")
    spec, cal = d / "spec.json", d / "cal.csv"
    spec_to_json(archetype_spec(1), spec)
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--spec", str(spec), "--step", "1", "--out", str(cal)]) == 0
    ann, series = d / "ann.json", d / "fourier.json"
    save_model(ann, CompensationModel("flags", make_net(init_params(4, seed=1))))
    save_model(series, CompensationModel("flags", FourierModel(0.1, (FourierTerm(1, 0.5, -0.5),))))
    out = d / "out"
    out.mkdir()
    return {"spec": str(spec), "cal": str(cal), "ann": str(ann), "fourier": str(series),
            "out": str(out)}


def command_lines(command, f):
    """Strategy of (argv, stdin text) for one subcommand at small sizes."""
    out = Path(f["out"])
    # each input file, right or wrong for the flag it is given to
    any_input = st.sampled_from([f["spec"], f["cal"], f["ann"], f["fourier"]])
    models = mostly(st.sampled_from([f["ann"], f["fourier"]]), any_input)
    inputs = mostly(st.just(f["cal"]), any_input)
    if command == "simulate":
        argv = st.tuples(optional_flags(step=GRID_STEPS, offset=OFFSETS),
                         switch("--no-quantize")).map(
            lambda a: ["simulate", "--spec", f["spec"], "--out", str(out / "cal.csv"), *a[0], *a[1]])
    elif command in ("train", "prune"):
        argv = st.tuples(TRAINING_FLAGS, OPTIMIZER_FLAGS).map(
            lambda a: [command, "--data", f["cal"], "--out", str(out / "model.json"),
                       *a[0], *a[1]])
    elif command == "fourier":
        argv = optional_flags(top=TOPS, encoder_id=ARGV_TEXT).map(
            lambda a: ["fourier", "--data", f["cal"], "--out", str(out / "fourier.json"),
                       "--spectrum", str(out / "spectrum.csv"), *a])
    elif command == "evaluate":
        argv = st.tuples(models, inputs, switch(f"--report={out / 'report.json'}"),
                         switch(f"--residuals={out / 'residuals.csv'}")).map(
            lambda a: ["evaluate", "--model", a[0], "--data", a[1], *a[2], *a[3]])
    elif command == "correct":
        angle = st.floats().map(lambda a: ([f"--angle={a}"], ""))
        lines = st.lists(mostly(st.floats().map(str), st.text(max_size=6)), max_size=12)
        stdin = lines.map(lambda ls: (["--stdin"], "".join(f"{line}\n" for line in ls)))
        return st.tuples(models, st.one_of(angle, stdin)).map(
            lambda a: (["correct", "--model", a[0], *a[1][0]], a[1][1]))
    else:
        argv = st.tuples(optional_flags(top=TOPS),
                         switch("--prune"), TRAINING_FLAGS, OPTIMIZER_FLAGS).map(
            lambda a: ["run-experiment", "--spec", f["spec"], "--outdir", str(out / "bundle"),
                       *a[0], *a[1], *a[2], *a[3]])
    return argv.map(lambda a: (a, ""))


# hypothesis's failure report itself emits this warning; raised there, it would
# end the session with INTERNALERROR instead of reporting the failing example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "train", "prune", "fourier", "evaluate",
                                     "correct", "run-experiment"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generated_flags_exit_0_or_name_the_error(cli_files, command, data):
    argv, stdin_text = data.draw(command_lines(command, cli_files))
    stderr = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
    finally:
        sys.stdin = stdin
    if code != 0:
        assert code == 1
        assert stderr.getvalue().split(":", 1)[0] in ERROR_NAMES, stderr.getvalue()
