import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rescomp

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, extra, outputs", [
    ("run_archetype_experiments.py", [], ["summary.csv"]),
    ("run_node_sweep.py", ["--skip-sweep"], ["convergence_lm.csv", "convergence_backprop.csv"]),
])
def test_script_runs_at_tiny_budget(tmp_path, script, extra, outputs):
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    args = [sys.executable, str(SCRIPTS / script), "--outdir", str(tmp_path),
            "--max-iterations", "30", "--hidden", "4", *extra]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).is_file()


def test_node_sweep_script_lists_every_width(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    args = [sys.executable, str(SCRIPTS / "run_node_sweep.py"), "--outdir", str(tmp_path),
            "--max-iterations", "3", "--hidden", "4"]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "width_sweep.csv").read_text().splitlines()
    assert lines[0] == "hidden_nodes,final_mse"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(10, 111, 10))


def test_ab_kernels_runs_at_tiny_budget(tmp_path):
    src = str(Path(rescomp.__file__).parents[1])
    out = tmp_path / "ab.json"
    args = [sys.executable, str(SCRIPTS / "ab_kernels.py"), "--base", src, "--change", src,
            "--out", str(out), "--rounds", "1", "--scale", "0.01"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["identical_results"] and doc["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert doc["differing_predictions"] == {}
    assert all(case["identical"] for case in doc["cases"].values())
    assert set(doc["cases"]) == {"gd-80", "lm-80", "lm-40", "lm-6", "prune-40", "predict-1024x6",
                                 "predict-1024x40", "predict-1024x80", "stream-ann-80",
                                 "stream-fourier-10"}


def test_ab_kernels_times_every_case_when_fourier_bits_differ(tmp_path):
    """A change tree whose Fourier series starts one float above `a0`: the
    script times all ten cases, writes which predictions differ, and exits 1."""
    src = Path(rescomp.__file__).parents[1]
    change = tmp_path / "change"
    shutil.copytree(src / "rescomp", change / "rescomp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fourier = change / "rescomp" / "fourier.py"
    text = fourier.read_text()
    start = "value = np.full(flat.shape, model.a0)"
    assert text.count(start) == 1
    fourier.write_text(text.replace(
        start, "value = np.full(flat.shape, np.nextafter(model.a0, np.inf))"))
    out = tmp_path / "ab.json"
    args = [sys.executable, str(SCRIPTS / "ab_kernels.py"), "--base", str(src),
            "--change", str(change), "--out", str(out), "--rounds", "1", "--scale", "0.01"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(out.read_text())
    assert not doc["identical_results"]
    assert len(doc["cases"]) == 10
    assert all(case["base_median"] > 0 and case["change_median"] > 0
               for case in doc["cases"].values())
    assert list(doc["differing_predictions"]) == ["stream-fourier-10.json"]
    assert all(doc["cases"][name]["identical"] for name in (
        "gd-80", "lm-80", "lm-40", "lm-6", "prune-40", "predict-1024x6", "predict-1024x40",
        "predict-1024x80", "stream-ann-80"))


def test_margin_report_runs_at_tiny_budget():
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    args = [sys.executable, str(SCRIPTS / "margin_report.py"), "--hidden", "4",
            "--max-iterations", "3", "--check"]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    # three iterations leave a 1:4:1 net far outside the held-out bounds
    assert proc.returncode == 1, proc.stderr
    assert "check failed" in proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()[2:46]]
    assert rows == [[str(k), str(s)] for k in (1, 2, 3, 4) for s in (*range(10), 42)]
    summary = [line for line in proc.stdout.splitlines() if line.startswith(
        ("held-out MAE", "held-out max", "dense max", "10-epoch max"))]
    assert len(summary) == 4 and all("/44 " in line for line in summary)
