"""The package's exports: each submodule loads on first use of a name it defines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rescomp

SUBMODULES = ["rescomp." + name for name in
              ("caldata", "errors", "fourier", "network", "optim", "pipeline", "prune", "simgen")]


def run_fresh(code: str) -> list[str]:
    """Run `code` in a fresh interpreter; return the rescomp submodules loaded after it."""
    env = dict(os.environ, PYTHONPATH=str(Path(rescomp.__file__).parents[1]))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.startswith('rescomp.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
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
