"""The package's exports: each submodule loads on first use of a name it defines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rescomp
from rescomp import experiment, pipeline
from rescomp.fourier import FourierModel, FourierTerm
from rescomp.pipeline import CompensationModel, save_model
from tests.conftest import make_net

SUBMODULES = ["rescomp." + name for name in
              ("caldata", "config", "errors", "experiment", "fourier", "network", "optim",
               "pipeline", "prune", "simgen")]
# what a process that corrects angles may load: no training, pruning or simulation code
CORRECTION_SIDE = {"rescomp." + name for name in
                   ("caldata", "cli", "config", "errors", "fourier", "network", "pipeline")}


def run_fresh(code: str, stdin: str = "") -> list[str]:
    """Run `code` in a fresh interpreter; return the rescomp submodules loaded after it."""
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.startswith('rescomp.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code, loaded", [
    pytest.param("import rescomp", [], id="package"),
    pytest.param("import rescomp; from rescomp import simgen",
                 ["rescomp.caldata", "rescomp.errors", "rescomp.simgen"], id="submodule"),
    pytest.param("import rescomp; rescomp.RescompError", ["rescomp.errors"], id="attribute"),
    pytest.param("from rescomp import fit_fourier",
                 ["rescomp.caldata", "rescomp.errors", "rescomp.fourier"], id="from-import"),
    pytest.param("from rescomp import *", SUBMODULES, id="star"),
])
def test_import_loads_only_the_submodules_used(code, loaded):
    assert run_fresh(code) == loaded


def test_every_export_is_its_submodule_attribute():
    """Checked from a cold start, so each name's first lookup loads its module."""
    run_fresh("import sys, rescomp\n"
              "for name in rescomp.__all__:\n"
              "    obj = getattr(rescomp, name)\n"
              "    home = sys.modules[obj.__module__]\n"
              "    assert home.__name__.startswith('rescomp.'), name\n"
              "    assert getattr(home, name) is obj, name\n"
              "namespace = {}\n"
              "exec('from rescomp import *', namespace)\n"
              "assert all(namespace[name] is getattr(rescomp, name) for name in rescomp.__all__)\n")


def test_all_is_unique_and_listed_by_dir():
    assert len(set(rescomp.__all__)) == len(rescomp.__all__)
    assert set(rescomp.__all__) <= set(dir(rescomp))


def test_export_is_not_cached_in_the_package(monkeypatch):
    """A tracer patches functions in their own module; the package must not
    keep a copy that outlives the patch."""
    original = rescomp.train_lm
    assert "train_lm" not in vars(rescomp)
    monkeypatch.setattr(rescomp.optim, "train_lm", lambda *args: None)
    assert rescomp.train_lm is rescomp.optim.train_lm is not original
    monkeypatch.undo()
    assert rescomp.train_lm is original


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        rescomp.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from rescomp import no_such_name  # noqa: F401


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A 1:6:1 net's and a two-term Fourier series' model files."""
    root = tmp_path_factory.mktemp("models")
    payloads = {"ann": make_net(np.random.default_rng(3).uniform(-2, 2, 19)),
                "fourier": FourierModel(0.1, (FourierTerm(1, 0.5, -0.2), FourierTerm(3, 0.0, 0.1)))}
    for kind, payload in payloads.items():
        save_model(root / f"{kind}.json", CompensationModel("probe", payload))
    return root


@pytest.mark.parametrize("kind", ["ann", "fourier"])
@pytest.mark.parametrize("route", ["-m", "main"])
@pytest.mark.parametrize("source", [["--stdin"], ["--angle", "10"]], ids=["stdin", "angle"])
def test_correct_loads_no_fitting_code(model_files, kind, route, source):
    """`python -m rescomp.cli correct` (run as `-m` runs it) and the console
    script's `cli.main` load the correction side only."""
    argv = ["correct", "--model", str(model_files / f"{kind}.json"), *source]
    if route == "-m":
        code = ("import runpy, sys\n"
                f"sys.argv = ['rescomp', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('rescomp.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n")
    else:
        code = f"from rescomp.cli import main\nassert main({argv!r}) == 0\n"
    loaded = set(run_fresh(code, stdin="10\n20.5\n"))
    assert loaded <= CORRECTION_SIDE, sorted(loaded - CORRECTION_SIDE)
    assert "rescomp.pipeline" in loaded


def test_pipeline_forwards_moved_names_without_caching(monkeypatch):
    """`pipeline` answers for the fitting side's names from their defining
    module on every lookup, so a patch of that module is seen through it."""
    for name, home in pipeline._MOVED.items():
        assert getattr(pipeline, name) is getattr(sys.modules[f"rescomp.{home}"], name), name
        assert name not in vars(pipeline), name
    original = pipeline.run_experiment
    monkeypatch.setattr(experiment, "run_experiment", lambda *args: None)
    assert pipeline.run_experiment is experiment.run_experiment is not original
    monkeypatch.undo()
    assert pipeline.run_experiment is original
    assert "run_experiment" not in vars(pipeline)


def test_pipeline_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pipeline.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from rescomp.pipeline import no_such_name  # noqa: F401


def test_moved_names_are_exported_from_their_new_modules():
    homes = {name: rescomp._HOME[name] for name in
             ("ExperimentConfig", "TrainingConfig", "ExperimentResult", "run_experiment")}
    assert homes == {"ExperimentConfig": "config", "TrainingConfig": "config",
                     "ExperimentResult": "experiment", "run_experiment": "experiment"}
    assert all(rescomp._HOME[name] == home
               for name, home in pipeline._MOVED.items() if name in rescomp._HOME)
