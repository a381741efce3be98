"""Shared fixtures.

The heavyweight trainings (10k-iteration Levenberg-Marquardt and gradient
descent on the seed-42 synthetic encoder) are session-scoped so the
convergence, pruning and acceptance tests all reuse one run; training is
deterministic, so sharing does not change any outcome.

The suite runs at one BLAS thread unless the caller sets the thread
variables: LM results depend on the thread count, and on two cores one
thread is also the faster setting for these small matrices.  OpenBLAS reads
the variables once, when numpy is first imported, so they are set before
this module imports numpy, and a numpy imported earlier with either variable
unset is an error.  (Tests that import `tests.conftest` run this module a
second time, with both variables set.)
"""

import os
import sys
import time

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules and not all(v in os.environ for v in _BLAS_THREAD_VARS):
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rescomp.caldata import error_profile, partition_even_odd
from rescomp.network import Network, dataset_from_profile, init_params
from rescomp.config import TrainingConfig
from rescomp.optim import train_backprop, train_lm
from rescomp.pipeline import CompensationModel, predict_error
from rescomp.prune import prune_and_retrain
from rescomp.simgen import archetype_spec, synthesize

# wall-clock seconds of the heavyweight trainings, keyed by fixture name;
# the acceptance suite asserts its runtime budgets from these (read it via
# the `training_seconds` fixture so everyone sees this module's instance)
TRAINING_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="session")
def training_seconds():
    return TRAINING_SECONDS


def make_net(params):
    """The Network of a parameter vector."""
    return Network(np.asarray(params, dtype=float))


def heldout_residuals(net, profile):
    """predicted - observed, arc-min, at the profile's encoder angles."""
    angles = np.array(profile.angles_deg())
    observed = np.array(profile.errors_arcmin())
    return predict_error(CompensationModel("", net), angles) - observed


@pytest.fixture(scope="session")
def arch1_data():
    """Archetype-1 calibration set split into even/odd grids, plus datasets."""
    cal = synthesize(archetype_spec(1), grid_step_deg=1.0, encoder_id="arch1")
    train_set, test_set = partition_even_odd(cal)
    train_prof = error_profile(train_set)
    test_prof = error_profile(test_set)
    params0 = init_params(80, seed=42)
    params0.setflags(write=False)  # shared by every test of the session
    dataset = dataset_from_profile(train_prof)
    return {
        "cal": cal,
        "train_set": train_set,
        "test_set": test_set,
        "train_prof": train_prof,
        "test_prof": test_prof,
        "params0": params0,
        "dataset": dataset,
    }


FULL_BUDGET = TrainingConfig(max_iterations=10000, seed=42)


@pytest.fixture(scope="session")
def arch1_lm80(arch1_data):
    """1:80:1 trained with Levenberg-Marquardt at the full iteration budget:
    (net, history)."""
    start = time.perf_counter()
    params, history = train_lm(arch1_data["params0"], arch1_data["dataset"], FULL_BUDGET)
    TRAINING_SECONDS["arch1_lm80"] = time.perf_counter() - start
    return make_net(params), history


@pytest.fixture(scope="session")
def arch1_pruned(arch1_data, arch1_lm80):
    """`arch1_lm80`'s net pruned by its activation spectrum and retrained at
    the full budget: (pruned net, retraining history, prune report)."""
    params, history, report = prune_and_retrain(arch1_lm80[0].params, arch1_data["dataset"],
                                                FULL_BUDGET, train_fn=train_lm)
    return make_net(params), history, report


@pytest.fixture(scope="session")
def arch1_lm20(arch1_data):
    """1:20:1 at the full budget, for the width-comparison checks: (net, history)."""
    params, history = train_lm(init_params(20, seed=42), arch1_data["dataset"], FULL_BUDGET)
    return make_net(params), history


@pytest.fixture(scope="session")
def arch1_backprop(arch1_data):
    """1:80:1 trained with plain gradient descent at the full budget: (net, history)."""
    start = time.perf_counter()
    params, history = train_backprop(arch1_data["params0"], arch1_data["dataset"], FULL_BUDGET)
    TRAINING_SECONDS["arch1_backprop"] = time.perf_counter() - start
    return make_net(params), history
