"""Dense audit: the corrected angle stays within 0.65' of the table angle at
every 16-bit code, not only on the held-out 1-degree grid.

At the middle of each of the 65 536 LSB cells the table angle is displaced by
the archetype's noiseless closed-form error and quantized to 16 bits, as the
encoder would read it; the net fitted at the full budget corrects the reading.
"""

import numpy as np
import pytest

from rescomp.caldata import ARCMIN_PER_DEG, error_profile, partition_even_odd
from rescomp.pipeline import CompensationModel, ExperimentConfig, correct, fit_network
from rescomp.simgen import LSB_DEG, archetype_spec, harmonic_error_arcmin, quantize16, synthesize
from tests.conftest import FULL_BUDGET


@pytest.mark.parametrize("archetype", [1, 2, 3, 4])
def test_dense_audit_within_bound_at_every_code(archetype):
    spec = archetype_spec(archetype)
    train_set, _ = partition_even_odd(synthesize(spec, grid_step_deg=1.0))
    net, _, _ = fit_network(error_profile(train_set), ExperimentConfig(training=FULL_BUDGET))
    table = (np.arange(65536) + 0.5) * LSB_DEG
    reading = quantize16(table + harmonic_error_arcmin(spec.terms, table) / ARCMIN_PER_DEG)
    residual = (correct(CompensationModel("", net), reading) - table + 180.0) % 360.0 - 180.0
    worst = int(np.argmax(np.abs(residual)))
    worst_arcmin = abs(residual[worst]) * ARCMIN_PER_DEG
    assert worst_arcmin <= 0.65, f"{worst_arcmin:.3f}' at table angle {table[worst]:.4f} deg"
