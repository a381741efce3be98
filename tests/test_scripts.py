import json
import os
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


def test_ab_kernels_runs_at_tiny_budget(tmp_path):
    src = str(Path(rescomp.__file__).parents[1])
    out = tmp_path / "ab.json"
    args = [sys.executable, str(SCRIPTS / "ab_kernels.py"), "--base", src, "--change", src,
            "--out", str(out), "--rounds", "1", "--scale", "0.01"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["identical_results"] and doc["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(doc["cases"]) == {"gd-80", "lm-80", "lm-40", "lm-6", "prune-40", "predict-1024x6",
                                 "predict-1024x40", "predict-1024x80", "stream-ann-80",
                                 "stream-fourier-10"}
