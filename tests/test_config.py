"""Training and experiment settings: a bad value is a BadConfig naming its field,
and every count is stored as a Python int."""

import json

import numpy as np
import pytest

from rescomp.config import ExperimentConfig, TrainingConfig
from rescomp.errors import BadConfig
from rescomp.experiment import run_experiment
from rescomp.optim import trainer
from rescomp.simgen import archetype_spec, synthesize

# the integer fields, each with the config class that holds it
COUNTS = [(TrainingConfig, "max_iterations"), (TrainingConfig, "stall_window"),
          (TrainingConfig, "seed"), (ExperimentConfig, "hidden"),
          (ExperimentConfig, "top_orders")]


@pytest.mark.parametrize("cls, field", COUNTS, ids=[f for _c, f in COUNTS])
@pytest.mark.parametrize("value", [2.5, 1.5, 3.0, True, "3", None, np.float64(3.0), np.bool_(True)],
                         ids=repr)
def test_non_integer_count_is_bad_config_naming_field(cls, field, value):
    with pytest.raises(BadConfig, match=f"^{field} must be an integer, got "):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", COUNTS, ids=[f for _c, f in COUNTS])
@pytest.mark.parametrize("make", [int, np.int64, np.int32, np.uint16], ids=lambda t: t.__name__)
def test_python_and_numpy_integers_are_stored_as_int(cls, field, make):
    value = getattr(cls(**{field: make(3)}), field)
    assert type(value) is int and value == 3


def test_numpy_integer_settings_reach_report_json(tmp_path):
    """A bundle's `report.json` holds the settings: once a numpy integer there
    stopped `run_experiment` with a bare TypeError and a cut-off file."""
    cal = synthesize(archetype_spec(1), grid_step_deg=1.0)
    cfg = ExperimentConfig(hidden=np.int64(3), top_orders=np.int32(2),
                           training=TrainingConfig(max_iterations=np.int64(2),
                                                   stall_window=np.uint16(5), seed=np.int64(1)))
    run_experiment(cal, tmp_path, cfg)
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config == {"hidden": 3, "optimizer": "lm", "top_orders": 2, "prune": False,
                      "max_iterations": 2, "stall_window": 5, "seed": 1}


def test_optimizer_name_check_is_shared():
    for make in (lambda: ExperimentConfig(optimizer="adam"), lambda: trainer("adam")):
        with pytest.raises(BadConfig, match="^optimizer must be 'lm' or 'backprop', got 'adam'$"):
            make()
