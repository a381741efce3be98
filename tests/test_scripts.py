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
